"""The base of every layer: the package's immutable values and its label rule.

A subclass of ``Frozen`` names its fields in ``__slots__`` and sets each one
once, in its own ``__init__``, with ``object.__setattr__``.  After that no
attribute can be assigned, deleted or added.  Values compare equal when their
classes are the same and their fields are equal in order; the hash is that of
the fields (so a value holding a read-only table is unhashable), and the repr
names them.  ``_assembled`` builds a value from fields known to be valid
through the class's slot setters, which are looked up once per class.

``check_label`` is the one rule for generator and object labels; every layer
imports it from here, so a layer that never runs a heap model does not load
``heaps``.
"""

from collections.abc import Mapping
from operator import attrgetter

RESERVED_LABEL_CHARS = frozenset("[],#*+=<>:")


def check_label(name: str) -> str:
    """Validate a generator label: non-empty, no whitespace, no reserved punctuation."""
    if not isinstance(name, str) or not name:
        raise ValueError("generator label must be a non-empty string")
    for ch in name:
        if ch.isspace():
            raise ValueError(f"label {name!r} contains whitespace")
        if ch in RESERVED_LABEL_CHARS:
            raise ValueError(f"label {name!r} contains reserved character {ch!r}")
    return name


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(name for name in vars(cls).get("__slots__", ()) if name != "__dict__")
        if own:
            cls._fields = cls._fields + own
            cls._key = attrgetter(*cls._fields)
            cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # rebuilt through __init__, which takes the fields in order and makes each
        # read-only table (a proxy, which neither pickles nor deep-copies, or a view) from a plain dict
        fields = (getattr(self, name) for name in self._fields)
        return type(self), tuple(dict(f) if isinstance(f, Mapping) else f for f in fields)


def _assembled(cls, *fields, **private):
    """A ``cls`` value from fields known to be valid, ``private`` going to its ``__dict__``: no validation runs."""
    value = object.__new__(cls)
    for put, field in zip(cls._setters, fields):
        put(value, field)
    if private:
        vars(value).update(private)
    return value

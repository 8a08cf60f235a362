"""The one base class of the package's validated, immutable values.

A subclass names its fields in ``__slots__`` and sets each one once, in its
own ``__init__``, with ``object.__setattr__``.  After that no attribute can
be assigned, deleted or added.  Values compare equal when their classes are
the same and their fields are equal in order; the hash is that of the fields
(so a value holding a read-only table is unhashable), and the repr names
them.
"""

from operator import attrgetter
from types import MappingProxyType


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(name for name in vars(cls).get("__slots__", ()) if name != "__dict__")
        if own:
            cls._fields = cls._fields + own
            cls._key = attrgetter(*cls._fields)

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
        # read-only table (which neither pickles nor deep-copies) from a plain dict
        fields = (getattr(self, name) for name in self._fields)
        return type(self), tuple(dict(f) if isinstance(f, MappingProxyType) else f for f in fields)

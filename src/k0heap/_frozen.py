"""The base of every layer: the package's immutable values and its label rule.

A subclass of ``Frozen`` names its fields in ``__slots__``, and its
``__init__`` ends in one ``_fill`` call: the one writer, which sets the
fields in slot order through the class's slot setters (looked up once per
class) and puts any private index in the instance ``__dict__``.  The heap
models fill twice, with the caller's tables and then with read-only views
over the tables ``__post_init__`` validated.  After that no attribute can be
assigned, deleted or added.  Values compare equal when their classes are the
same and their fields are equal in order; the hash is that of the fields (so
a value holding a read-only table is unhashable), and the repr names them.
``_assembled`` fills a bare instance with fields known to be valid.

``check_label`` is the one rule for generator and object labels, and
``bracket_letters`` the one walk that flattens a bracket tree; every layer
imports them from here, so a layer that never runs a heap model does not
load ``heaps``.  ``MAX_BOUND`` is the size bound of the generators and of
``snf``, kept here so that ``snf`` reads it without loading them.
"""

from collections.abc import Mapping
from itertools import cycle
from operator import attrgetter

RESERVED_LABEL_CHARS = frozenset("[],#*+=<>:")
MAX_BOUND = 100  # set/vect 100 have 176,851 / 348,551 pushouts; counts grow as N^3


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


def bracket_letters(tree) -> list[str]:
    """The checked labels of a nested bracket expression, in heap-word order.

    ``tree`` is a label or a sequence of an odd number of subtrees.  A subtree
    in an odd (0-based) position enters reversed, as an inverse does in the
    free heap, so letter i carries the sign (-1)**i in the abelian image.
    """
    out: list[str] = []
    stack = [(tree, False)]  # (node, reversed?): depth is bounded only by memory
    while stack:
        node, reverse = stack.pop()
        if isinstance(node, str):
            out.append(check_label(node))
            continue
        children = list(node)
        if len(children) % 2 == 0:
            raise ValueError(f"bracket nodes need odd arity >= 1, got {len(children)}")
        # pushed last-visited first; the first pushed is an end child, in an even position, so it keeps the direction
        stack.extend(zip(children if reverse else reversed(children), cycle((reverse, not reverse))))
    return out


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

    def _fill(self, *fields, **private):
        """Set every field, in ``_fields`` order, and put ``private`` in the instance ``__dict__``."""
        for put, field in zip(self._setters, fields, strict=True):
            put(self, field)
        if private:
            vars(self).update(private)

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
        # rebuilt through __init__, which takes the fields in order and makes each read-only table (a proxy,
        # which neither pickles nor deep-copies, or a view) from a dict of its items: no per-entry call
        fields = (getattr(self, name) for name in self._fields)
        return type(self), tuple(dict(f.items()) if isinstance(f, Mapping) else f for f in fields)


def _assembled(cls, *fields, **private):
    """A ``cls`` value from fields known to be valid, ``private`` going to its ``__dict__``: no validation runs."""
    value = object.__new__(cls)
    value._fill(*fields, **private)
    return value

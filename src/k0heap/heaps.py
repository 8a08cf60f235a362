"""Ternary heap algebra: free words with normal forms, finite models, retracts.

A heap is a set with a ternary bracket satisfying para-associativity
[a,b,[c,d,e]] = [[a,b,c],d,e] and the cancellation laws [x,x,y] = y = [y,x,x].
Free heap words embed into the free group as alternating products
x1 * x2^-1 * x3 * ..., so normal forms are computed by free reduction:
adjacent letters always carry opposite signs, hence cancel exactly when
equal.  A finite model is its index tables: a caller's table is read once
into carrier indices, validated (a group's in O(n^2 log n) by Light's test, a
heap's in O(n^3) through its retract group, entries outside the carrier
rejected) and not kept.  Each model keeps, as ``_tables`` in its instance
``__dict__``, the index tables of a group whose heap it is (for a validated
heap, its retract at carrier[0]) and the <= log2(n) elements Light's test
visited, which generate it; every table it shows is a read-only view over
them, in O(n^2) memory, and a heap pickles as that group.  A morphism check
reads one row per generator, O(n log n), and scans rows in O(n^2) only to
name the witness of a map that fails.  Retracts and heaps of a group are not
validated again.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

from collections.abc import ItemsView
from itertools import chain, compress, count, filterfalse, product, repeat
from operator import ne
from typing import Mapping, NamedTuple, Sequence

# the label rule is re-exported here
from ._frozen import RESERVED_LABEL_CHARS, Frozen, _assembled, bracket_letters, check_label

_MISSING = object()  # default of a table lookup; equal to no carrier label


class HeapAxiomError(ValueError):
    """A ternary table that is not a heap.

    ``witness`` holds the elements where the retract at carrier[0] breaks a
    group law, or a triple (a, b, c) with [a,b,c] != a * b^-1 * c in it.
    """

    def __init__(self, message: str, witness: tuple = ()):
        super().__init__(message)
        self.witness = witness


class GroupAxiomError(ValueError):
    def __init__(self, message: str, witness: tuple = ()):
        super().__init__(message)
        self.witness = witness


class FreeHeapWord(Frozen):
    """Odd-length sequence of generators, read as an iterated ternary product."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[str, ...]):
        if len(letters) % 2 == 0:
            raise ValueError(f"heap words must have odd length, got {len(letters)}")
        for name in letters:
            check_label(name)
        self._fill(letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if len(self.letters) == 1:
            return self.letters[0]
        return "[" + ",".join(self.letters) + "]"


def word(*letters: str) -> FreeHeapWord:
    return FreeHeapWord(tuple(letters))


def reduce_word(w: FreeHeapWord) -> FreeHeapWord:
    """Normal form of a free heap word.

    Under the alternating embedding into the free group, adjacent letters
    have opposite signs, so free reduction is a single stack pass cancelling
    adjacent equal letters.  The result is the unique reduced word in the
    congruence class; parity (and oddness) of the length is preserved.
    """
    stack: list[str] = []
    for letter in w.letters:
        if stack and stack[-1] == letter:
            stack.pop()
        else:
            stack.append(letter)
    return FreeHeapWord(tuple(stack))


def nary_product(words: Sequence[FreeHeapWord]) -> FreeHeapWord:
    """Left-associated iterated ternary product of an odd list of words.

    Arguments in even (1-based) positions enter inverted, which at the letter
    level means their sequence is spliced in reversed; for single-letter
    arguments this is plain concatenation.  The result is reduced.
    """
    if len(words) % 2 == 0:
        raise ValueError(f"n-ary products need an odd number of factors, got {len(words)}")
    return reduce_word(_assembled(FreeHeapWord, tuple(bracket_letters([w.letters for w in words]))))


def ternary(a: FreeHeapWord, b: FreeHeapWord, c: FreeHeapWord) -> FreeHeapWord:
    """The heap bracket [a, b, c] on free words, in normal form."""
    return nary_product((a, b, c))


def word_from_tree(tree) -> FreeHeapWord:
    """Flatten a nested bracket expression (odd arity everywhere) into a word.

    ``tree`` is a generator label or a sequence of subtrees; its letters are
    ``bracket_letters(tree)``, where a subtree in an odd position enters
    reversed, matching how inner brackets expand in the free heap.
    """
    return _assembled(FreeHeapWord, tuple(bracket_letters(tree)))


class GroupModel(Frozen):
    """Finite group from explicit tables, validated in O(n^2 log n); ``op`` and ``inverse`` are views.

    The tables are read once into carrier indices.  Associativity is Light's
    test: the g with (x*g)*y = x*(g*y) for all x, y form a submagma, so only
    each g outside the closure of the ones before it is checked; in a group
    each such g at least doubles that subgroup, so there are <= log2(n), and
    they are kept as the group's generators.
    """

    __slots__ = ("carrier", "op", "identity", "inverse", "__dict__")

    def __init__(self, carrier: tuple[str, ...], op: Mapping, identity: str, inverse: Mapping):
        self._fill(carrier, op, identity, inverse)
        self.__post_init__()

    def __post_init__(self):
        elems = self.carrier
        index = {x: i for i, x in enumerate(elems)}
        if len(index) != len(elems):
            raise GroupAxiomError("carrier labels must be distinct")
        if not elems:
            raise GroupAxiomError("a group needs at least the identity element")
        if self.identity not in index:
            raise GroupAxiomError(f"identity {self.identity!r} not in carrier")
        n, inv, flat = len(elems), _read(self.inverse, elems, index, 1), _read(self.op, elems, index, 2)
        row = (flat + [-1]).index(-1) // n  # the first with a gap in op, n if none; an inverse gap up to it comes first
        if -1 in inv[:row + 1]:
            raise GroupAxiomError(f"inverse table not total at {elems[inv.index(-1)]!r}")
        if row < n:
            raise GroupAxiomError(f"operation table not total at {_key(elems, flat.index(-1), 2)!r}")
        for given, name, arity in ((self.inverse, "inverse", 1), (self.op, "operation", 2)):
            if len(given) != n ** arity:  # total, so only an entry outside carrier^arity makes it longer
                raise GroupAxiomError(f"{name} table has a stray entry at {_stray(given, index, arity)!r}")
        table = [flat[a * n:a * n + n] for a in range(n)]
        tables = (index, table, inv, _check_group(elems, table, inv, index[self.identity]))
        self._fill(elems, _IndexView(2, elems, tables), self.identity, _IndexView(1, elems, tables), _tables=tables)


def _read(table, elems, index, arity) -> list[int]:
    """A caller's table read once, by key in product order, as the carrier indices of its values, -1 for none."""
    keys = elems if arity == 1 else product(elems, repeat=arity)
    return list(map(index.get, map(table.get, keys, repeat(_MISSING)), repeat(-1)))


def _key(elems, p: int, arity: int) -> tuple:
    """The key at position p of product(elems, repeat=arity)."""
    n = len(elems)
    return tuple(elems[p // n ** (arity - 1 - d) % n] for d in range(arity))


def _stray(table, index, arity):
    """The first key of a table outside carrier^arity (the carrier at arity 1)."""
    inside = (lambda key: isinstance(key, tuple) and len(key) == arity and all(map(index.__contains__, key)))
    return next(filterfalse(index.__contains__ if arity == 1 else inside, table))


def _check_group(elems, table: list[list[int]], inv: list[int], e: int) -> list[int]:
    """The group laws of total index tables, e the identity's index; returns the generators Light's test visited."""
    for i, a in enumerate(elems):
        if table[e][i] != i or table[i][e] != i:
            raise GroupAxiomError("identity law fails", witness=(a,))
        if table[i][inv[i]] != e:
            raise GroupAxiomError("inverse law fails", witness=(a,))
    closure, gens = {e}, []  # e passes Light's test by the identity law
    for g, row_g in enumerate(table):
        if g in closure:
            continue
        gens.append(g)
        for x, row_x in enumerate(table):
            left, right = table[row_x[g]], [row_x[z] for z in row_g]
            if left != right:
                y = next(y for y, (p, q) in enumerate(zip(left, right)) if p != q)
                raise GroupAxiomError("associativity fails", witness=(elems[x], elems[g], elems[y]))
        fresh = {g}
        while fresh:
            closure |= fresh
            fresh = {p for z in fresh for w in closure for p in (table[z][w], table[w][z])} - closure
    return gens


class FiniteHeapModel(Frozen):
    """Finite heap from a ternary table, validated in O(n^3); ``ternary`` is a view.

    The table is a heap exactly when its retract at e = carrier[0] is a group
    and [a,b,c] = a * b^-1 * c throughout, for then it is the heap of that
    group.  All entries are read in one pass; a table that is not total or has
    a stray entry is rejected before any law is checked.  An empty carrier is
    allowed (all axioms hold vacuously) but has no retracts, having no basepoint.
    """

    __slots__ = ("carrier", "ternary", "__dict__")

    def __init__(self, carrier: tuple[str, ...], ternary: Mapping):
        self._fill(carrier, ternary)
        self.__post_init__()

    def __post_init__(self):
        checked = _checked_heap(self.carrier, self.ternary)
        if isinstance(checked, HeapAxiomError):
            raise checked
        self._fill(self.carrier, _IndexView(3, self.carrier, checked), _tables=checked)

    def __reduce__(self):  # as its group, n^2 + n entries, not n^3; the empty heap has no group and travels as {}
        t = self.ternary  # the view's fields only: a copy may have dropped ``_tables``
        return (heap_from_group, (_group_of(t._elems, t._tables),)) if self.carrier else super().__reduce__()


def _checked_heap(elems, ternary):
    """The retract tables at elems[0] or the HeapAxiomError, returned so no traceback holds n^3 locals."""
    index, n = {x: i for i, x in enumerate(elems)}, len(elems)  # an empty carrier passes every check below
    if len(index) != n:
        return HeapAxiomError("carrier labels must be distinct")
    values = list(map(ternary.get, product(elems, repeat=3), repeat(_MISSING)))  # read once; failures named by position
    if not set(values) <= index.keys():
        gap = list(map(index.__contains__, values)).index(False)
        return HeapAxiomError(f"ternary table not total at {_key(elems, gap, 3)}")
    if len(ternary) != len(values):  # the table is total, so only an entry outside carrier^3 makes it longer
        return HeapAxiomError(f"ternary table has a stray entry at {_stray(ternary, index, 3)!r}")
    at = index.__getitem__
    table = [list(map(at, values[a * n * n:a * n * n + n])) for a in range(n)]  # [a,e,b]
    inv = [at(values[a * n]) for a in range(n)]  # [e,a,e]
    try:
        gens = _check_group(elems, table, inv, 0)
    except GroupAxiomError as exc:
        error = HeapAxiomError(f"retract at {elems[0]!r}: {exc}", witness=exc.witness)
        error.__cause__ = exc.with_traceback(None)  # as ``raise ... from exc``, without this frame
        return error
    expected = _bracket_values(elems, table, inv)
    if values != expected:
        wrong = next(compress(count(), map(ne, values, expected)))
        return HeapAxiomError(f"[a,b,c] != a*b^-1*c at base {elems[0]!r}", witness=_key(elems, wrong, 3))
    return index, table, inv, gens


def retract_group(h: FiniteHeapModel, e: str) -> GroupModel:
    """Group on the same carrier with a + b := [a, e, b] and identity e; a heap's retract is a group: no check runs."""
    if e not in h.carrier:
        raise ValueError(f"basepoint {e!r} not in carrier")
    index, table, inv, gens = h._tables
    i = index[e]
    rows = [table[row[inv[i]]] for row in table]  # [a,e,b] = a * e^-1 * b in the group of h's tables
    inverse = [table[table[i][j]][i] for j in inv]  # [e,a,e] = e * a^-1 * e
    return _group_of(h.carrier, (index, rows, inverse, [table[s][i] for s in gens]))  # a * e^-1 maps it onto h's group


def _group_of(elems, tables) -> GroupModel:
    """The group of index tables (index, rows, inv, gens) known to be one: op and inverse are views over them."""
    rows, inv = tables[1], tables[2]
    op, inverse = _IndexView(2, elems, tables), _IndexView(1, elems, tables)
    return _assembled(GroupModel, elems, op, elems[rows[0][inv[0]]], inverse, _tables=tables)


def _bracket_values(elems, table: list[list[int]], inv: list[int]) -> list:
    """a * b^-1 * c in product(elems, repeat=3) order, from index tables, with a * b^-1 once per (a, b)."""
    rows = [[elems[k] for k in row] for row in table]
    return list(chain.from_iterable(rows[row[j]] for row in table for j in inv))


def heap_from_group(g: GroupModel) -> FiniteHeapModel:
    """Heap with [a, b, c] = a * b^-1 * c as a view over g's index tables; retracting at the identity undoes it."""
    return _assembled(FiniteHeapModel, g.carrier, _IndexView(3, g.carrier, g._tables), _tables=g._tables)


class _IndexView(Mapping):
    """Read-only table over a group's ``_tables``: inverse (arity 1), op (2) or [a,b,c] = a * b^-1 * c (3)."""

    __slots__ = ("_arity", "_elems", "_tables")

    def __init__(self, arity, elems, tables):
        self._arity, self._elems, self._tables = arity, elems, tables

    def __getitem__(self, key):
        (index, rows, inv, _), k = self._tables, self._arity
        at = index.__getitem__
        try:
            if k == 1:
                return self._elems[inv[at(key)]]
            if isinstance(key, tuple) and len(key) == k:  # a 3-letter string is no triple
                i, j = at(key[0]), at(key[1])
                return self._elems[rows[rows[i][inv[j]]][at(key[2])] if k == 3 else rows[i][j]]
        except KeyError:
            pass
        hash(key)  # an unhashable key raises TypeError, as in a dict
        raise KeyError(key)

    def __iter__(self):
        return iter(self._elems) if self._arity == 1 else product(self._elems, repeat=self._arity)

    def __len__(self):
        return len(self._elems) ** self._arity

    def _values(self) -> list:  # in key order
        (_, rows, inv, _), k, elems = self._tables, self._arity, self._elems
        if k == 3:
            return _bracket_values(elems, rows, inv)
        return list(map(elems.__getitem__, inv if k == 1 else chain.from_iterable(rows)))

    def __eq__(self, other):  # in C-speed loops: value lists in this key order
        if not isinstance(other, Mapping):
            return NotImplemented
        if isinstance(other, _IndexView) and (other._arity, other._elems) == (self._arity, self._elems):
            return self._values() == other._values()  # the same keys in the same order
        return len(other) == len(self) and list(map(other.get, self, repeat(_MISSING))) == self._values()

    def items(self):  # iterated at C speed, so dict(view.items()) makes no per-entry call
        return _Items(self)

    def __repr__(self):  # as the read-only dict it stands for, so a value's repr is the same either way
        return f"mappingproxy({dict(self.items())!r})"


class _Items(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._values())


class MorphismCheck(NamedTuple):
    ok: bool
    witness: tuple | None = None
    group_law_ok: bool | None = None


def check_heap_morphism(
    mapping: Mapping[str, str],
    source: FiniteHeapModel,
    target: FiniteHeapModel,
    base: str | None = None,
) -> MorphismCheck:
    """Test phi([x,y,z]) = [phi x, phi y, phi z] over the models' index tables: O(n log n) if it holds, else O(n^2).

    Between heaps this is the homomorphism law of the retracts at e and
    phi(e), phi([x,e,y]) = [phi x, phi e, phi y], with e = ``base`` (which
    also sets ``group_law_ok``) or carrier[0].  The x for which it holds at
    every y include e and are closed under [-,e,-], so they are the whole heap
    once they include s*e for each of the source's g <= log2(n) generators s:
    a map is accepted after g rows of n.  Only a map that fails one is
    scanned row by row, in O(n^2), for its first failing (x, e, y).
    """
    (index, table, inv, gens), (t_index, t_table, t_inv, _) = source._tables, target._tables
    elems = source.carrier
    phi = _read(mapping, elems, t_index, 1)
    if -1 in phi:
        x = elems[phi.index(-1)]
        raise ValueError(f"mapping sends {x!r} outside the target carrier" if x in mapping
                         else f"mapping is not total: missing {x!r}")
    if base is not None and base not in elems:
        raise ValueError(f"basepoint {base!r} not in source carrier")
    e = elems[0] if base is None and elems else base
    j = index.get(e)  # None only with no x, and then there are no generators either
    for s in gens:  # the rows x = s*e, where [x,e,y] = s*y
        image = t_table[t_table[phi[table[s][j]]][t_inv[phi[j]]]]  # y -> [phi x, phi e, y], by index
        if list(map(phi.__getitem__, table[s])) != list(map(image.__getitem__, phi)):
            break
    else:
        return MorphismCheck(True, None, None if base is None else True)
    for i, x in enumerate(elems):  # a failing generator row means a failing row
        image = t_table[t_table[phi[i]][t_inv[phi[j]]]]
        left, right = list(map(phi.__getitem__, table[table[i][inv[j]]])), list(map(image.__getitem__, phi))
        if left != right:
            y = next(y for y, (p, q) in enumerate(zip(left, right)) if p != q)
            return MorphismCheck(False, (x, e, elems[y]), None if base is None else False)


def cyclic_group(n: int) -> GroupModel:
    """Z/n with elements labelled '0' ... 'n-1'."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    elems = tuple(str(i) for i in range(n))
    op = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
    inverse = {str(a): str((-a) % n) for a in range(n)}
    return GroupModel(carrier=elems, op=op, identity="0", inverse=inverse)


def klein_four_group() -> GroupModel:
    """The non-cyclic group of order four (componentwise xor on two bits)."""
    bits = {"e": 0, "a": 1, "b": 2, "c": 3}
    names = {v: k for k, v in bits.items()}
    elems = ("e", "a", "b", "c")
    op = {(x, y): names[bits[x] ^ bits[y]] for x in elems for y in elems}
    inverse = {x: x for x in elems}
    return GroupModel(carrier=elems, op=op, identity="e", inverse=inverse)

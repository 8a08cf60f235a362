"""Ternary heap algebra: free words with normal forms, finite models, retracts.

A heap is a set with a ternary bracket satisfying para-associativity
[a,b,[c,d,e]] = [[a,b,c],d,e] and the cancellation laws [x,x,y] = y = [y,x,x].
Free heap words embed into the free group as alternating products
x1 * x2^-1 * x3 * ..., so normal forms are computed by free reduction:
adjacent letters always carry opposite signs, hence cancel exactly when
equal.  Finite models carry read-only tables.  A caller's table is copied
and validated: a group table in O(n^2 log n) by Light's test, a heap table in
one pass and O(n^3) through its retract group; entries outside the carrier
are rejected.  Each model keeps, as ``_tables`` in its instance ``__dict__``
(read by no comparison, hash, repr or pickle), the index tables of a group
whose heap it is (for a validated heap, its retract at carrier[0]) and the
<= log2(n) elements that Light's test visited, which generate that group.
A morphism check reads one row per generator, O(n log n), and scans rows in
O(n^2) only to name the witness of a map that fails.  Retracts and heaps
of a group are not validated again: their tables are read-only views over
the rows, in O(n^2) memory, and a heap of a group pickles as its group.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

from itertools import chain, compress, filterfalse, product, repeat
from operator import ne
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from ._frozen import RESERVED_LABEL_CHARS, Frozen, _assembled, check_label  # the label rule is re-exported here

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
        object.__setattr__(self, "letters", letters)

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
    letters: list[str] = []
    for idx, w in enumerate(words):
        if idx % 2 == 0:
            letters.extend(w.letters)
        else:
            letters.extend(reversed(w.letters))
    return reduce_word(FreeHeapWord(tuple(letters)))


def ternary(a: FreeHeapWord, b: FreeHeapWord, c: FreeHeapWord) -> FreeHeapWord:
    """The heap bracket [a, b, c] on free words, in normal form."""
    return nary_product((a, b, c))


def word_from_tree(tree) -> FreeHeapWord:
    """Flatten a nested bracket expression (odd arity everywhere) into a word.

    ``tree`` is a generator label or a sequence of subtrees.  Subtrees in
    even positions contribute their letters reversed, matching how inner
    brackets expand in the free heap.
    """
    out: list[str] = []
    stack = [(tree, False)]  # (node, reversed?): depth is bounded only by memory
    while stack:
        node, reverse = stack.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        children = list(node)
        if not children or len(children) % 2 == 0:
            raise ValueError(f"bracket nodes need odd arity >= 1, got {len(children)}")
        # pushed last-visited first; a child in an odd position flips the direction
        indices = range(len(children)) if reverse else range(len(children) - 1, -1, -1)
        for i in indices:
            stack.append((children[i], reverse != (i % 2 == 1)))
    return FreeHeapWord(tuple(out))


class GroupModel(Frozen):
    """Finite group as read-only copies of explicit tables, validated in O(n^2 log n).

    The tables are read once into carrier indices.  Associativity is Light's
    test: the g with (x*g)*y = x*(g*y) for all x, y form a submagma, so only
    each g outside the closure of the ones before it is checked; in a group
    each such g at least doubles that subgroup, so there are <= log2(n), and
    they are kept as the group's generators.
    """

    __slots__ = ("carrier", "op", "identity", "inverse", "__dict__")

    def __init__(self, carrier: tuple[str, ...], op: Mapping, identity: str, inverse: Mapping):
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", inverse)
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
        op, inverse = dict(self.op), dict(self.inverse)
        object.__setattr__(self, "op", MappingProxyType(op))
        object.__setattr__(self, "inverse", MappingProxyType(inverse))
        table, inv = _index_tables(elems, index, op, inverse)
        if len(inverse) != len(elems):
            stray = next(filterfalse(index.__contains__, inverse))
            raise GroupAxiomError(f"inverse table has a stray entry at {stray!r}")
        if len(op) != len(elems) ** 2:
            stray = next(filterfalse(set(product(elems, repeat=2)).__contains__, op))
            raise GroupAxiomError(f"operation table has a stray entry at {stray!r}")
        vars(self)["_tables"] = (index, table, inv, _check_group(elems, table, inv, index[self.identity]))


def _index_tables(elems, index, op, inverse) -> tuple[list[list[int]], list[int]]:
    """table[i][j] and inv[i], the indices of elems[i] * elems[j] and elems[i]^-1; rejects tables not total."""
    table, inv, at = [], [], index.get
    for a in elems:
        inv.append(at(inverse.get(a, _MISSING), -1))
        if inv[-1] < 0:
            raise GroupAxiomError(f"inverse table not total at {a!r}")
        table.append([at(op.get((a, b), _MISSING), -1) for b in elems])
        if -1 in table[-1]:
            raise GroupAxiomError(f"operation table not total at ({a!r}, {elems[table[-1].index(-1)]!r})")
    return table, inv


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
    """Finite heap as a read-only copy of a ternary table, validated in O(n^3).

    The table is a heap exactly when its retract at e = carrier[0] is a group
    and [a,b,c] = a * b^-1 * c throughout, for then it is the heap of that
    group.  All entries are read in one pass; a table that is not total or has
    a stray entry is rejected before any law is checked.  An empty carrier is
    allowed (all axioms hold vacuously) but has no retracts, having no basepoint.
    """

    __slots__ = ("carrier", "ternary", "__dict__")

    def __init__(self, carrier: tuple[str, ...], ternary: Mapping):
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "ternary", ternary)
        self.__post_init__()

    def __post_init__(self):
        checked = _checked_heap(self.carrier, self.ternary)
        if isinstance(checked, HeapAxiomError):
            raise checked
        object.__setattr__(self, "ternary", checked[0])
        vars(self)["_tables"] = checked[1]

    def __reduce__(self):  # a heap of a group travels as that group: n^2 + n entries, not n^3
        t = self.ternary
        if isinstance(t, _IndexView):  # the view's fields only: a copy may have dropped ``_tables``
            return heap_from_group, (_group_of(t._elems, t._tables),)
        return super().__reduce__()


def _checked_heap(elems, ternary):
    """(read-only copy, retract tables at elems[0]) or the HeapAxiomError, returned so no traceback holds n^3 locals."""
    index = {x: i for i, x in enumerate(elems)}
    if len(index) != len(elems):
        return HeapAxiomError("carrier labels must be distinct")
    t = dict(ternary)
    values = list(map(t.get, product(elems, repeat=3), repeat(_MISSING)))
    if not set(values) <= index.keys():
        key = next(key for key, v in zip(product(elems, repeat=3), values) if v not in index)
        return HeapAxiomError(f"ternary table not total at {key}")
    if len(t) != len(values):  # t is total, so only an entry outside carrier^3 makes it longer
        stray = next(filterfalse(set(product(elems, repeat=3)).__contains__, t))
        return HeapAxiomError(f"ternary table has a stray entry at {stray!r}")
    n, at = len(elems), index.__getitem__  # an empty carrier passes every check below
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
        key = next(compress(product(elems, repeat=3), map(ne, values, expected)))
        return HeapAxiomError(f"[a,b,c] != a*b^-1*c at base {elems[0]!r}", witness=key)
    return MappingProxyType(t), (index, table, inv, gens)


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

    def __eq__(self, other):  # in C-speed loops: the other's values in this key order against the flat values
        if not isinstance(other, Mapping):
            return NotImplemented
        (_, rows, inv, _), k, elems = self._tables, self._arity, self._elems
        flat = inv if k == 1 else chain.from_iterable(rows)
        return len(other) == len(self) and list(map(other.get, self, repeat(_MISSING))) == (
            _bracket_values(elems, rows, inv) if k == 3 else list(map(elems.__getitem__, flat)))

    def __repr__(self):  # as the read-only dict it stands for, so a value's repr is the same either way
        return f"mappingproxy({dict(self)!r})"


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
    phi = list(map(t_index.get, map(mapping.get, elems, repeat(_MISSING)), repeat(-1)))
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

"""Ternary heap algebra: free words with normal forms, finite models, retracts.

A heap is a set with a ternary bracket satisfying para-associativity
[a,b,[c,d,e]] = [[a,b,c],d,e] and the cancellation laws [x,x,y] = y = [y,x,x].
Free heap words embed into the free group as alternating products
x1 * x2^-1 * x3 * ..., so normal forms are computed by free reduction:
adjacent letters always carry opposite signs, hence cancel exactly when
equal.  Finite models carry read-only operation tables, validated on
construction; a heap table is validated through its retract group.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

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


@dataclass(frozen=True)
class FreeHeapWord:
    """Odd-length sequence of generators, read as an iterated ternary product."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if len(self.letters) % 2 == 0:
            raise ValueError(f"heap words must have odd length, got {len(self.letters)}")
        for name in self.letters:
            check_label(name)

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


@dataclass(frozen=True, eq=True)
class GroupModel:
    """Finite group as read-only copies of explicit tables, validated in O(n^3)."""

    carrier: tuple[str, ...]
    op: Mapping
    identity: str
    inverse: Mapping

    def __post_init__(self):
        elems = self.carrier
        if len(set(elems)) != len(elems):
            raise GroupAxiomError("carrier labels must be distinct")
        if not elems:
            raise GroupAxiomError("a group needs at least the identity element")
        if self.identity not in elems:
            raise GroupAxiomError(f"identity {self.identity!r} not in carrier")
        object.__setattr__(self, "op", MappingProxyType(dict(self.op)))
        object.__setattr__(self, "inverse", MappingProxyType(dict(self.inverse)))
        op, inverse = self.op, self.inverse
        for a in elems:
            if a not in inverse or inverse[a] not in elems:
                raise GroupAxiomError(f"inverse table not total at {a!r}")
            for b in elems:
                if (a, b) not in op or op[(a, b)] not in elems:
                    raise GroupAxiomError(f"operation table not total at ({a!r}, {b!r})")
        for a in elems:
            if op[(self.identity, a)] != a or op[(a, self.identity)] != a:
                raise GroupAxiomError("identity law fails", witness=(a,))
            if op[(a, inverse[a])] != self.identity:
                raise GroupAxiomError("inverse law fails", witness=(a,))
        for a in elems:
            for b in elems:
                ab = op[(a, b)]
                for c in elems:
                    if op[(ab, c)] != op[(a, op[(b, c)])]:
                        raise GroupAxiomError("associativity fails", witness=(a, b, c))


@dataclass(frozen=True, eq=True)
class FiniteHeapModel:
    """Finite heap as a read-only copy of a ternary table, validated in O(n^3).

    The table is a heap exactly when its retract at e = carrier[0] is a group
    (checked by GroupModel) and [a,b,c] = a * b^-1 * c throughout, for then it
    is the heap of that group.  An empty carrier is allowed (all axioms hold
    vacuously), but it has no retracts since there is no basepoint.
    """

    carrier: tuple[str, ...]
    ternary: Mapping

    def __post_init__(self):
        elems = self.carrier
        members = set(elems)
        if len(members) != len(elems):
            raise HeapAxiomError("carrier labels must be distinct")
        t = MappingProxyType(dict(self.ternary))
        object.__setattr__(self, "ternary", t)
        for a in elems:
            for b in elems:
                for c in elems:
                    if (a, b, c) not in t or t[(a, b, c)] not in members:
                        raise HeapAxiomError(f"ternary table not total at ({a!r}, {b!r}, {c!r})")
        if not elems:
            return
        e = elems[0]
        try:
            g = retract_group(self, e)
        except GroupAxiomError as exc:
            raise HeapAxiomError(f"retract at {e!r}: {exc}", witness=exc.witness) from exc
        op, inverse = g.op, g.inverse
        for a in elems:
            for b in elems:
                ab_inv = op[(a, inverse[b])]
                for c in elems:
                    if t[(a, b, c)] != op[(ab_inv, c)]:
                        raise HeapAxiomError(f"[a,b,c] != a*b^-1*c at base {e!r}", witness=(a, b, c))


def retract_group(h: FiniteHeapModel, e: str) -> GroupModel:
    """Group on the same carrier with a + b := [a, e, b] and identity e."""
    if e not in h.carrier:
        raise ValueError(f"basepoint {e!r} not in carrier")
    op = {(a, b): h.ternary[(a, e, b)] for a in h.carrier for b in h.carrier}
    inverse = {a: h.ternary[(e, a, e)] for a in h.carrier}
    return GroupModel(carrier=h.carrier, op=op, identity=e, inverse=inverse)


def heap_from_group(g: GroupModel) -> FiniteHeapModel:
    """Heap with bracket [a, b, c] = a * b^-1 * c; retracting at the identity undoes this."""
    table = {
        (a, b, c): g.op[(a, g.op[(g.inverse[b], c)])]
        for a in g.carrier
        for b in g.carrier
        for c in g.carrier
    }
    return FiniteHeapModel(carrier=g.carrier, ternary=table)


@dataclass(frozen=True)
class MorphismCheck:
    ok: bool
    witness: tuple | None = None
    group_law_ok: bool | None = None


def check_heap_morphism(
    mapping: Mapping[str, str],
    source: FiniteHeapModel,
    target: FiniteHeapModel,
    base: str | None = None,
) -> MorphismCheck:
    """Test phi([x,y,z]) = [phi x, phi y, phi z] in O(n^2).

    Between heaps this is the homomorphism law of the retracts at e and
    phi(e), phi([x,e,y]) = [phi x, phi e, phi y], with e = ``base`` (which
    also sets ``group_law_ok``) or carrier[0]; a failing (x, e, y) is the witness.
    """
    for x in source.carrier:
        if x not in mapping:
            raise ValueError(f"mapping is not total: missing {x!r}")
        if mapping[x] not in target.carrier:
            raise ValueError(f"mapping sends {x!r} outside the target carrier")
    if base is not None and base not in source.carrier:
        raise ValueError(f"basepoint {base!r} not in source carrier")
    e = source.carrier[0] if base is None and source.carrier else base
    for x in source.carrier:
        for y in source.carrier:
            if mapping[source.ternary[(x, e, y)]] != target.ternary[(mapping[x], mapping[e], mapping[y])]:
                return MorphismCheck(False, (x, e, y), None if base is None else False)
    return MorphismCheck(True, None, None if base is None else True)


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

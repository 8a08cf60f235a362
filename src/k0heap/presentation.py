"""Finitely presented abelian heaps.

Elements are affine words: finitely supported integer coefficient vectors
over generators with coefficient sum 1 (the abelian normal form of an
iterated bracket, since [a, b, c] = a - b + c once a basepoint exists).
Relations are sum-zero vectors.  Retract groups are read off the Smith
normal form in basepoint-relative coordinates.  The retract group at the
first generator is the one membership kernel: a vector is a relation
exactly when it sums to zero and all its class coordinates there are zero.

Presentations are immutable and hashable.  Each presentation's Hermite
basis is built one relation at a time by ``lattice.insert``, which reduces
the relation's own terms against the basis's sparse pivot rows and keeps
the basis reduced; no row is densified until the basis is read out.  That
basis and the kernel are kept in a fixed-size module-level ``lru_cache``
keyed by the presentation's value, so each lookup hashes the whole
presentation.  The checks (truss, projection, morphism) live here; each
makes one lookup per presentation, ``word_equal`` one per query, takes each
word's class once and tests a relation by the weighted sum of its terms' classes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import cycle
from types import MappingProxyType
from typing import ClassVar, Hashable, Iterable, Mapping, NamedTuple

from ._frozen import Frozen, _assembled, bracket_letters, check_label
from .lattice import IntMatrix, InvariantFactors, basis_rows, hnf, insert, smith_decomposition


class UnknownGeneratorError(ValueError):
    pass


class MissingProductError(ValueError):
    def __init__(self, pair: tuple[str, str]):
        super().__init__(f"no product entry for ({pair[0]}, {pair[1]})")
        self.pair = pair


class _SparseTerms(Frozen):
    """Sorted nonzero (label, coefficient) pairs with a fixed coefficient sum.

    Subclasses set the required sum and the noun used in its error message;
    equality also compares the class, so an affine word never equals a
    relation vector with the same terms.
    """

    __slots__ = ("terms",)
    _total: ClassVar[int]
    _noun: ClassVar[str]

    def __init__(self, terms: tuple[tuple[str, int], ...]):
        total = sum(c for _, c in terms)
        if total != self._total:
            raise ValueError(f"{self._noun} coefficients must sum to {self._total}, got {total}")
        self._fill(terms)

    def __hash__(self):  # hashing a presentation hashes every relation: keep this call lean
        return hash(self.terms)

    @classmethod
    def from_coefficients(cls, coeffs: Mapping[str, int]):
        items = [(check_label(label), int(c)) for label, c in coeffs.items()]
        return cls(tuple(sorted(item for item in items if item[1])))

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.terms)

    def as_dict(self) -> dict[str, int]:
        return dict(self.terms)

    def __str__(self) -> str:
        return " ".join([f"{label}:{c}" for label, c in self.terms]) or "0"


class AffineWord(_SparseTerms):
    """Integer combination of generators with coefficient sum 1."""

    __slots__ = ()
    _total = 1
    _noun = "affine word"

    @classmethod
    def generator(cls, label: str) -> "AffineWord":
        return cls(((check_label(label), 1),))


class RelationVector(_SparseTerms):
    """Integer combination of generators with coefficient sum 0."""

    __slots__ = ()
    _total = 0
    _noun = "relation"

    @property
    def is_zero(self) -> bool:
        return not self.terms


def combine(parts: Iterable[tuple[int, Mapping[str, int]]]) -> dict[str, int]:
    """Integer linear combination of coefficient maps, zeros dropped."""
    acc: dict[str, int] = {}
    for coeff, mapping in parts:
        if not coeff:
            continue
        for label, c in mapping.items():
            acc[label] = acc.get(label, 0) + coeff * c
    return {k: v for k, v in acc.items() if v}


def bracket(a: AffineWord, b: AffineWord, c: AffineWord) -> AffineWord:
    """The heap bracket on affine words: a - b + c."""
    return AffineWord.from_coefficients(
        combine([(1, a.as_dict()), (-1, b.as_dict()), (1, c.as_dict())])
    )


def normalize_affine(tree) -> AffineWord:
    """Alternating-sign expansion of a nested bracket expression.

    ``tree`` is a generator label or an odd-length sequence of subtrees;
    signs alternate +,-,+,... inside every node, so the word is the signed
    count of ``bracket_letters(tree)``, letter i with sign (-1)**i.
    """
    acc: dict[str, int] = {}
    for label, sign in zip(bracket_letters(tree), cycle((1, -1))):
        acc[label] = acc.get(label, 0) + sign
    return _assembled(AffineWord, tuple(sorted(item for item in acc.items() if item[1])))  # odd, checked: sums to 1


class AbelianHeapPresentation(Frozen):
    __slots__ = ("generators", "relations")

    def __init__(self, generators: tuple[str, ...], relations: tuple[RelationVector, ...]):
        known = frozenset(generators)
        if not generators:
            raise ValueError("a presentation needs at least one generator")
        if len(known) != len(generators):
            raise ValueError("generators must be distinct")
        for g in generators:
            check_label(g)
        for r in relations:
            check_support(known, r)
        self._fill(generators, relations)


def check_support(generators: tuple[str, ...] | frozenset[str], w: AffineWord | RelationVector) -> None:
    """Every label of ``w`` must be a generator; pass a frozenset to check many words against one."""
    known = generators if isinstance(generators, frozenset) else set(generators)
    for g in w.support:
        if g not in known:
            raise UnknownGeneratorError(f"unknown generator {g!r}")


def _relation_hnf(p: AbelianHeapPresentation) -> IntMatrix:
    """The Hermite basis of the relations of ``p``, its rank nonzero rows, built one relation at a time."""
    n, index, basis = len(p.generators), {g: j for j, g in enumerate(p.generators)}, {}
    for r in p.relations:
        insert(basis, {index[g]: c for g, c in r.terms})
    return IntMatrix.from_rows(basis_rows(basis, n), cols=n)


@lru_cache(maxsize=8)  # more presentations than the warm-query workload keeps live
def _relation_lattice(p: AbelianHeapPresentation) -> tuple[IntMatrix, GroupStructure]:
    """The Hermite basis of ``p`` and the retract structure at its first generator, the membership kernel."""
    basis = _relation_hnf(p)
    return basis, _structure(p.generators, basis, p.generators[0])


def in_relation_lattice(p: AbelianHeapPresentation, coeffs: Mapping[str, int]) -> bool:
    """True when the vector lies in the span of the relations of ``p``: it sums to 0 and has class 0."""
    kernel = _relation_lattice(p)[1]
    return not any(kernel._coordinates(coeffs.items(), kernel._index)) and sum(coeffs.values()) == 0


def word_equal(p: AbelianHeapPresentation, w1: AffineWord, w2: AffineWord) -> bool:
    diff = dict(w1.terms)  # cancelled labels stay, as zeros, so that each is checked
    for g, c in w2.terms:
        diff[g] = diff.get(g, 0) - c
    return in_relation_lattice(p, diff)


class GroupStructure(Frozen):
    """Retract group of a presented abelian heap at a basepoint.

    ``class_coordinates`` maps a word to rank + torsion many integers, the
    free coordinates first, each torsion coordinate reduced into [0, d).
    The basepoint maps to the zero vector and the map is constant on
    word_equal classes.  ``_images`` holds each generator's image on those
    coordinates and ``_moduli`` each coordinate's modulus (0 when free); the
    instance ``__dict__`` indexes the images by label.
    """

    __slots__ = ("generators", "base", "invariants", "_images", "_moduli", "__dict__")

    def __init__(self, generators: tuple[str, ...], base: str, invariants: InvariantFactors,
                 _images: tuple[tuple[int, ...], ...], _moduli: tuple[int, ...]):
        self._fill(generators, base, invariants, _images, _moduli, _index=dict(zip(generators, _images)))

    def _coordinates(self, terms: Iterable[tuple[Hashable, int]], images: Mapping) -> tuple[int, ...]:
        """Class of the sum of c * images[key] over the (key, c) terms; a sum-zero vector is a relation iff it is 0."""
        acc = [0] * len(self._moduli)
        for key, c in terms:
            image = images.get(key)
            if image is None:
                raise UnknownGeneratorError(f"unknown generator {key!r}")
            acc = [a + c * x for a, x in zip(acc, image)]
        return tuple(a % d if d else a for a, d in zip(acc, self._moduli))

    def _first_outside(self, relations: Iterable[RelationVector], images: Mapping) -> RelationVector | None:
        """The first relation whose terms' classes, read from ``images``, do not sum to 0, else None."""
        return next((rel for rel in relations if any(self._coordinates(rel.terms, images))), None)

    def class_coordinates(self, w: AffineWord) -> tuple[int, ...]:
        return self._coordinates(w.terms, self._index)

    def report_lines(self) -> list[str]:
        word = AffineWord.generator
        classes = [" ".join(["class", g, *map(str, self.class_coordinates(word(g)))]) for g in self.generators]
        return [f"base {self.base}", *self.invariants.report_lines(), *classes]


def _structure(generators: tuple[str, ...], basis: IntMatrix, base: str) -> GroupStructure:
    """The retract structure at ``base`` of the lattice with Hermite basis ``basis``.

    Dropping the base column, i.e. g -> (g - base), is injective on sum-zero
    vectors; the Smith form of the basis in those coordinates yields the
    invariant factors and a coordinate map fixed by the lattice and the base.
    Each generator keeps its row of the column transform on the free and
    torsion columns only; columns with d = 1 carry no information.
    """
    k, n = generators.index(base), len(generators) - 1
    rows = [row[:k] + row[k + 1:] for row in basis.to_rows()]
    dec = smith_decomposition(hnf(IntMatrix.from_rows(rows, cols=n))[0])
    invariants = dec.invariants
    r = n - invariants.rank  # the nonzero diagonal entries come first
    columns = list(range(r, n)) + [j for j in range(r) if dec.diagonal[j] > 1]
    images = [tuple(row[j] for j in columns) for row in map(dec.right.row, range(n))]
    images.insert(k, (0,) * len(columns))
    return GroupStructure(generators, base, invariants, tuple(images), (0,) * invariants.rank + invariants.torsion)


def retract_group_structure(p: AbelianHeapPresentation, base: str) -> GroupStructure:
    """Structure of the retract group at ``base``; the one at the first generator is the cached kernel."""
    if base not in p.generators:
        raise UnknownGeneratorError(f"basepoint {base!r} is not a generator")
    basis, kernel = _relation_lattice(p)
    return kernel if base == kernel.base else _structure(p.generators, basis, base)


class PresentationMorphism(Frozen):
    __slots__ = ("source", "target", "images")

    def __init__(self, source: AbelianHeapPresentation, target: AbelianHeapPresentation, images: Mapping):
        self._fill(source, target, MappingProxyType(dict(images)))

    def apply(self, w: AffineWord) -> AffineWord:
        check_support(self.source.generators, w)
        return AffineWord.from_coefficients(
            combine([(c, self.images[g].as_dict()) for g, c in w.terms])
        )


class MorphismReport(NamedTuple):
    ok: bool
    witness: RelationVector | None = None
    morphism: PresentationMorphism | None = None


def induced_morphism(
    src: AbelianHeapPresentation,
    dst: AbelianHeapPresentation,
    genmap: Mapping[str, AffineWord],
) -> MorphismReport:
    """Check that mapping generators by ``genmap`` sends relations into relations.

    On success the linear extension is returned; on failure the first
    offending source relation, whose generators' classes in ``dst`` do not sum to 0, is the witness.
    """
    kernel, classes = _relation_lattice(dst)[1], {}
    for g in src.generators:
        if g not in genmap:
            raise ValueError(f"generator map is not total: missing {g!r}")
        classes[g] = kernel._coordinates(genmap[g].terms, kernel._index)
    witness = kernel._first_outside(src.relations, classes)
    if witness is not None:
        return MorphismReport(ok=False, witness=witness)
    images = {g: genmap[g] for g in src.generators}
    return MorphismReport(ok=True, morphism=PresentationMorphism(source=src, target=dst, images=images))


class ProjectionReport(NamedTuple):
    """Comparison of the split relation lattice against the full one."""

    contained: bool
    equal: bool
    witness: RelationVector | None = None

    @property
    def classification(self) -> str:
        if not self.contained:
            return "not-contained"
        return "isomorphism" if self.equal else "proper-projection"


def compare_projection(split: AbelianHeapPresentation, full: AbelianHeapPresentation) -> ProjectionReport:
    """Containment of split's lattice in full's, then equality, witnessed by the first relation outside."""
    if split.generators != full.generators:
        raise ValueError("presentations must share the same generator tuple")
    full_basis, in_full = _relation_lattice(full)
    witness = in_full._first_outside(split.relations, in_full._index)
    if witness is not None:
        return ProjectionReport(contained=False, equal=False, witness=witness)
    split_basis, in_split = _relation_lattice(split)
    if split_basis == full_basis:  # a lattice has one Hermite basis: no full relation needs a test
        return ProjectionReport(contained=True, equal=True)
    witness = in_split._first_outside(full.relations, in_split._index)
    return ProjectionReport(contained=True, equal=False, witness=witness)


class TrussTable(Frozen):
    """Products of generator pairs as affine words, with an optional unit label."""

    __slots__ = ("entries", "unit")

    def __init__(self, entries: Mapping, unit: str | None = None):
        self._fill(MappingProxyType(dict(entries)), unit)


class TrussViolation(NamedTuple):
    relation: RelationVector
    side: str
    generator: str


class Truss(NamedTuple):
    """Validated multiplicative structure on a presented abelian heap."""

    presentation: AbelianHeapPresentation
    table: TrussTable

    def product(self, w1: AffineWord, w2: AffineWord) -> AffineWord:
        """Bilinear extension of the generator table; total coefficient stays 1."""
        check_support(self.presentation.generators, w1)
        check_support(self.presentation.generators, w2)
        parts = []
        for g, a in w1.terms:
            for h, b in w2.terms:
                entry = self.table.entries.get((g, h))
                if entry is None:
                    raise MissingProductError((g, h))
                parts.append((a * b, entry.as_dict()))
        return AffineWord.from_coefficients(combine(parts))


class TrussCheck(NamedTuple):
    ok: bool
    violation: TrussViolation | None
    omitted: tuple[tuple[str, str], ...]
    unit_law: str  # "ok", "violated", or "unchecked"
    truss: Truss | None


def truss_from_table(p: AbelianHeapPresentation, table: TrussTable) -> TrussCheck:
    """Validate that the relation lattice is a two-sided ideal for the table.

    For every relation r and generator x the classes of the products of r's
    terms with x, on the left and on the right, weighted by r, must sum to 0.
    Pairs missing from a truncated table are skipped and reported as omitted.
    """
    known, kernel, classes = frozenset(p.generators), _relation_lattice(p)[1], {}
    for (g, h), w in table.entries.items():
        if g not in known or h not in known:
            raise UnknownGeneratorError(f"product entry ({g!r}, {h!r}) mentions unknown generators")
        classes[g, h] = kernel._coordinates(w.terms, kernel._index)
    if table.unit is not None and table.unit not in known:
        raise UnknownGeneratorError(f"unit {table.unit!r} is not a generator")

    omitted: set[tuple[str, str]] = set()
    for rel in p.relations:
        for x in p.generators:
            for side in ("left", "right"):
                terms = []
                for g, c in rel.terms:
                    pair = (x, g) if side == "left" else (g, x)
                    if pair not in classes:
                        omitted.add(pair)
                        break
                    terms.append((pair, c))
                if len(terms) == len(rel.terms) and any(kernel._coordinates(terms, classes)):
                    return TrussCheck(
                        ok=False,
                        violation=TrussViolation(relation=rel, side=side, generator=x),
                        omitted=tuple(sorted(omitted)),
                        unit_law="unchecked",
                        truss=None,
                    )

    unit_law = "unchecked"
    if table.unit is not None:
        unit_law = "ok"
        for g in p.generators:
            for pair in ((table.unit, g), (g, table.unit)):
                if pair not in classes:
                    omitted.add(pair)
                elif classes[pair] != kernel._coordinates(((g, 1),), kernel._index):
                    unit_law = "violated"

    return TrussCheck(
        ok=True,
        violation=None,
        omitted=tuple(sorted(omitted)),
        unit_law=unit_law,
        truss=Truss(presentation=p, table=table),
    )

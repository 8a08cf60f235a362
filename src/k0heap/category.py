"""From finite category descriptions to heap presentations and retract groups.

A category is ingested as data: object labels (one per isomorphism class),
enumerated pushout squares with per-leg monomorphism flags, and optional
zero object, direct-sum table and product table.  Each pushout square with
at least one monomorphic leg contributes the relation
left - apex + right - result; squares whose relation cancels to the zero
vector (for instance pushouts along an identity) are dropped.

Every check on a presentation lives in ``presentation``; ``compare_projection``
and ``ProjectionReport`` are re-exported here.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from ._frozen import Frozen, _assembled
from .presentation import (
    AbelianHeapPresentation,
    AffineWord,
    GroupStructure,
    MorphismReport,
    ProjectionReport,
    RelationVector,
    TrussTable,
    compare_projection,
    induced_morphism,
    retract_group_structure,
)


class InvalidSpecError(ValueError):
    def __init__(self, issues):
        super().__init__("; ".join(i.message for i in issues))
        self.issues = tuple(issues)


class SpecIssue(NamedTuple):
    severity: str  # "error" or "warning"
    message: str


class PushoutEntry(NamedTuple):
    """A pushout square; as a tuple, entries sort by apex, left, right, result, then flags."""

    apex: str
    left: str
    right: str
    result: str
    left_mono: bool = False
    right_mono: bool = False

    @property
    def qualifies(self) -> bool:
        """Only squares with a monomorphic leg generate relations."""
        return self.left_mono or self.right_mono


class CategorySpec(Frozen):
    """Finite category description; equality ignores entry order.

    The sum and product tables are kept as read-only copies.
    """

    __slots__ = ("objects", "pushouts", "zero", "sums", "products", "unit")

    def __init__(self, objects: tuple[str, ...], pushouts: tuple[PushoutEntry, ...] = (), zero: str | None = None,
                 sums: Mapping | None = None, products: Mapping | None = None, unit: str | None = None):
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "pushouts", pushouts)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "sums", None if sums is None else MappingProxyType(dict(sums)))
        object.__setattr__(self, "products", None if products is None else MappingProxyType(dict(products)))
        object.__setattr__(self, "unit", unit)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CategorySpec):
            return NotImplemented
        return (
            self.objects == other.objects
            and sorted(self.pushouts) == sorted(other.pushouts)
            and self.zero == other.zero
            and (self.sums or {}) == (other.sums or {})
            and (self.products or {}) == (other.products or {})
            and self.unit == other.unit
        )

    __hash__ = None


class FunctorSpec(Frozen):
    __slots__ = ("source", "target", "object_map")

    def __init__(self, source: CategorySpec, target: CategorySpec, object_map: Mapping | None = None):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "object_map", MappingProxyType(dict(object_map or {})))


def zero_law_violations(zero: str | None, sums: Mapping) -> list[tuple[tuple[str, str], str]]:
    """Each sum entry a + b = c that breaks 0 + b = b or a + 0 = a, as ((a, b), its message), in table order."""
    if zero is None:
        return []
    return [((a, b), f"sum {a} + {b} = {c} breaks the zero-object law")
            for (a, b), c in sums.items() if a == zero and c != b or b == zero and c != a]


def validate_spec(s: CategorySpec) -> list[SpecIssue]:
    """Label closure, mono-flag presence, and sum/zero coherence diagnostics."""
    issues: list[SpecIssue] = []
    seen = set()
    for o in s.objects:
        if o in seen:
            issues.append(SpecIssue("error", f"duplicate object {o!r}"))
        seen.add(o)

    def known(label: str, where: str):
        if label not in seen:
            issues.append(SpecIssue("error", f"{where} references unknown object {label!r}"))

    for e in s.pushouts:
        if not seen.issuperset(e[:4]):  # apex, left, right, result: named one by one only when one is unknown
            for label in e[:4]:
                known(label, "pushout entry")
        if not e.qualifies:
            issues.append(
                SpecIssue(
                    "warning",
                    f"pushout ({e.left!r} <- {e.apex!r} -> {e.right!r}) has no monomorphic leg "
                    "and generates no relation",
                )
            )
    if s.zero is not None:
        known(s.zero, "zero declaration")
    if s.unit is not None:
        known(s.unit, "unit declaration")
    for (a, b), c in (s.sums or {}).items():
        for label in (a, b, c):
            known(label, "sum entry")
    issues += [SpecIssue("error", message) for _, message in zero_law_violations(s.zero, s.sums or {})]
    for (a, b), c in (s.products or {}).items():
        for label in (a, b, c):
            known(label, "product entry")
    return issues


def ensure_valid(s: CategorySpec) -> None:
    errors = [i for i in validate_spec(s) if i.severity == "error"]
    if errors:
        raise InvalidSpecError(errors)


def _presentation(objects: tuple[str, ...], squares) -> AbelianHeapPresentation:
    """One relation left - apex + right - result per (left, apex, right, result), terms sorted, zeros dropped.

    Only the generators are checked, by a presentation with no relations:
    ``ensure_valid`` has put every label of a square among the objects, and
    each relation sums to zero as built.  Every relation takes its terms
    from one shared (label, coefficient) pair per value, so the relations
    hold one copy of each pair, not four fresh pairs each.
    """
    AbelianHeapPresentation(objects, ())
    plus, minus = {g: (g, 1) for g in objects}, {g: (g, -1) for g in objects}
    pairs = {pair: pair for pair in (*plus.values(), *minus.values())}  # a coefficient ±2 joins on first use
    new, (put_terms,) = object.__new__, RelationVector._setters  # as _assembled does, without a call per relation
    relations = []
    for left, apex, right, result in squares:
        if len({left, apex, right, result}) == 4:  # most squares: no label cancels or repeats
            terms = tuple(sorted((plus[left], plus[right], minus[apex], minus[result])))
        else:
            acc = {left: 1}
            acc[right] = acc.get(right, 0) + 1
            acc[apex] = acc.get(apex, 0) - 1
            acc[result] = acc.get(result, 0) - 1
            terms = tuple(sorted([pairs.setdefault(item, item) for item in acc.items() if item[1]]))
        if terms:
            relation = new(RelationVector)
            put_terms(relation, terms)
            relations.append(relation)
    return _assembled(AbelianHeapPresentation, objects, tuple(relations))


def k0_presentation(s: CategorySpec) -> AbelianHeapPresentation:
    """Generators are the objects; one relation per qualifying pushout square."""
    ensure_valid(s)
    return _presentation(s.objects, ((e.left, e.apex, e.right, e.result) for e in s.pushouts if e.qualifies))


def k0_group(s: CategorySpec, base: str) -> GroupStructure:
    return retract_group_structure(k0_presentation(s), base)


def split_presentation(s: CategorySpec) -> AbelianHeapPresentation:
    """Relations from the direct-sum table only: A + B - zero - (A+B)."""
    ensure_valid(s)
    if s.sums is None or s.zero is None:
        raise ValueError("split presentation needs both a sums table and a zero object")
    return _presentation(s.objects, ((a, s.zero, b, c) for (a, b), c in sorted(s.sums.items())))


def truss_table(s: CategorySpec) -> TrussTable:
    """Lift the object-level product table to single-generator affine words."""
    if s.products is None:
        raise ValueError("spec has no product table")
    entries = {
        (a, b): AffineWord.generator(c) for (a, b), c in sorted(s.products.items())
    }
    return TrussTable(entries=entries, unit=s.unit)


class FunctorReport(NamedTuple):
    heap: MorphismReport
    truss_checked: bool
    truss_ok: bool | None = None
    truss_witness: tuple | None = None
    truss_omitted: tuple[tuple[str, str], ...] = ()


def functor_induced(f: FunctorSpec) -> FunctorReport:
    """Heap morphism induced on presentations by an object map, plus truss status.

    The truss layer is checked only when both specs carry product tables:
    mapped product entries must agree label-for-label and units must
    correspond; source pairs whose image pair is missing from the target
    table are reported as omitted.
    """
    src, dst = k0_presentation(f.source), k0_presentation(f.target)  # each spec validated once, first
    targets = set(f.target.objects)
    for o in f.source.objects:
        if o not in f.object_map:
            raise ValueError(f"object map is not total: missing {o!r}")
        if f.object_map[o] not in targets:
            raise ValueError(f"object map sends {o!r} outside the target objects")
    genmap = {o: AffineWord.generator(f.object_map[o]) for o in f.source.objects}
    heap = induced_morphism(src, dst, genmap)

    checked = f.source.products is not None and f.target.products is not None
    if not checked:
        return FunctorReport(heap=heap, truss_checked=False)

    omitted: list[tuple[str, str]] = []
    truss_ok: bool = True
    witness: tuple | None = None
    for (a, b), c in sorted(f.source.products.items()):
        image_pair = (f.object_map[a], f.object_map[b])
        image_c = f.target.products.get(image_pair)
        if image_c is None:
            omitted.append((a, b))
            continue
        if image_c != f.object_map[c]:
            truss_ok = False
            witness = (a, b, c, image_c)
            break
    if truss_ok and f.source.unit is not None:
        if f.target.unit is None or f.object_map[f.source.unit] != f.target.unit:
            truss_ok = False
            witness = ("unit", f.source.unit)
    return FunctorReport(
        heap=heap,
        truss_checked=True,
        truss_ok=truss_ok,
        truss_witness=witness,
        truss_omitted=tuple(omitted),
    )

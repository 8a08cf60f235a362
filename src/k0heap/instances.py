"""Concrete category generators: finite sets, vector spaces, swindles, CW cells.

Infinite categories are truncated to a size bound: objects beyond the bound
are omitted and so are pushout/sum/product entries whose result would leave
the range.  Truncation is honest: downstream checks report the omitted
pairs instead of failing.  The bound N is at most ``MAX_BOUND``.  Finite
sets and vector spaces share one arithmetic, the pushout a - b + c with
truncated sums and products, and one enumerator writes both; they differ in
their labels and in whether there is a zero object.
"""

from __future__ import annotations

from importlib import resources
from typing import NamedTuple

from ._frozen import MAX_BOUND, Frozen  # MAX_BOUND is re-exported here
from .category import CategorySpec, PushoutEntry
from .dsl import CW_CONVENTIONS, SpecSource, data_lines, parse_spec
from .presentation import AffineWord, combine


MAX_CELLS = 100_000  # a CW word holds two labels per cell, so memory grows with the counts, not the file


def _check_bound(n: int) -> None:
    """Reject a size bound outside 1..MAX_BOUND before any entry is generated."""
    if not 1 <= n <= MAX_BOUND:
        raise ValueError(f"bound must be between 1 and {MAX_BOUND}, got {n}")


def set_label(k: int) -> str:
    return "empty" if k == 0 else str(k)


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class FiniteSetSpan(Frozen):
    """Span A <-f- B -g-> C with f injective; elements are 0-based indices."""

    __slots__ = ("size_a", "size_b", "size_c", "injection", "attach")

    def __init__(self, size_a: int, size_b: int, size_c: int, injection: tuple[int, ...], attach: tuple[int, ...]):
        if min(size_a, size_b, size_c) < 0:
            raise ValueError("set sizes must be non-negative")
        if len(injection) != size_b or len(attach) != size_b:  # f: B -> A, g: B -> C
            raise ValueError("f and g must be total on B")
        if any(not 0 <= x < size_a for x in injection):
            raise ValueError("f must land in A")
        if any(not 0 <= x < size_c for x in attach):
            raise ValueError("g must land in C")
        if len(set(injection)) != size_b:
            raise ValueError("f must be injective (the monomorphic leg)")
        self._fill(size_a, size_b, size_c, injection, attach)


class SetPushoutResult(NamedTuple):
    size: int
    classes: tuple[tuple[str, ...], ...]


def set_pushout(span: FiniteSetSpan) -> SetPushoutResult:
    """Quotient of the disjoint union A + C by f(b) ~ g(b), via union-find.

    With f injective the identifications form no cycles, so the size is
    exactly |A| - |B| + |C|.
    """
    items = [f"a{i}" for i in range(span.size_a)] + [f"c{j}" for j in range(span.size_c)]
    uf = _UnionFind(items)
    for b in range(span.size_b):
        uf.union(f"a{span.injection[b]}", f"c{span.attach[b]}")
    groups: dict[str, list[str]] = {}
    for x in items:
        groups.setdefault(uf.find(x), []).append(x)
    classes = tuple(tuple(sorted(g)) for g in sorted(groups.values()))
    return SetPushoutResult(size=len(groups), classes=classes)


def _arithmetic_spec(label: tuple[str, ...], zero: str | None) -> CategorySpec:
    """Numbers ``label[0]`` ... ``label[n]`` with each square b -> a, b -> c with b <= a and a - b + c <= n.

    The left leg is mono, the right one when b <= c; an unpointed spec (``zero`` None) keeps only c >= b.
    Sums and products are truncated addition and multiplication, with unit '1'.
    """
    n = len(label) - 1
    entries = sorted(
        PushoutEntry(apex=label[b], left=label[a], right=label[c], result=label[a - b + c],
                     left_mono=True, right_mono=b <= c)
        for b in range(n + 1)
        for a in range(b, n + 1)
        for c in range(b if zero is None else 0, n - a + b + 1)
    )
    pairs = [(a, b) for a in range(n + 1) for b in range(n + 1)]
    sums = {(label[a], label[b]): label[a + b] for a, b in pairs if a + b <= n}
    products = {(label[a], label[b]): label[a * b] for a, b in pairs if a * b <= n}
    return CategorySpec(objects=label, pushouts=tuple(entries), zero=zero, sums=sums, products=products, unit="1")


def finite_sets_spec(n: int) -> CategorySpec:
    """Cardinality classes 'empty', '1' ... 'n' with all bounded pushouts.

    An entry's result is |A| - |B| + |C|, the size of the pushout of two
    injections (``set_pushout`` computes it from a concrete span; the tests
    compare the two), so all O(N^3) entries are written down directly.  The
    product table is cartesian (truncated at the bound) with unit '1';
    sums are disjoint unions with 'empty' as the unit.  There is no zero
    object: this category is unpointed.
    """
    _check_bound(n)
    return _arithmetic_spec(tuple(set_label(k) for k in range(n + 1)), None)


def vect_spec(n: int) -> CategorySpec:
    """Finite-dimensional vector spaces by dimension label '0' ... 'n'.

    Pushouts follow dimension arithmetic: the left leg b -> a is the
    monomorphic one (b <= a), the right leg is any map, and the result is
    a - b + c.  The zero object is '0', sums and products are truncated
    addition and multiplication with unit '1'.
    """
    _check_bound(n)
    return _arithmetic_spec(tuple(str(k) for k in range(n + 1)), "0")


def swindle_spec(n: int) -> CategorySpec:
    """vect_spec(n) plus an absorbing object 'omega' with V + omega = omega.

    Each absorption V + omega = omega is a pushout along the zero object
    with both legs monomorphic; its relation collapses the class of V onto
    the class of 0, so the whole retract group is trivial.
    """
    base = vect_spec(n)
    objects = base.objects + ("omega",)
    entries = list(base.pushouts)
    for v in list(base.objects) + ["omega"]:
        entries.append(
            PushoutEntry(
                apex="0",
                left=v,
                right="omega",
                result="omega",
                left_mono=True,
                right_mono=True,
            )
        )
    entries.sort()
    sums = dict(base.sums)
    for v in objects:
        sums[(v, "omega")] = "omega"
        sums[("omega", v)] = "omega"
    products = dict(base.products)
    for k in range(1, n + 1):
        products[(str(k), "omega")] = "omega"
        products[("omega", str(k))] = "omega"
    products[("omega", "omega")] = "omega"
    # tensoring with the zero object kills everything
    products[("0", "omega")] = "0"
    products[("omega", "0")] = "0"
    return CategorySpec(
        objects=objects,
        pushouts=tuple(entries),
        zero="0",
        sums=sums,
        products=products,
        unit="1",
    )


def bounded_abelian_groups_file() -> CategorySpec:
    """The shipped hand-written slice of finitely generated abelian groups.

    Short exact sequences 0 -> Z -n-> Z -> Z/n -> 0 appear as pushouts with
    a monomorphic leg; direct sums appear both as sum-table entries and as
    pushouts along the zero object.
    """
    text = resources.files("k0heap").joinpath("data/zmod.cat").read_text(encoding="utf-8")
    result = parse_spec(SpecSource(text=text, name="zmod.cat"))
    if result.spec is None:
        raise RuntimeError("bundled zmod.cat failed to parse: " + "; ".join(
            d.message for d in result.diagnostics
        ))
    return result.spec


class CWComplexSpec(Frozen):
    """Cell counts per dimension; index k holds the number of k-cells."""

    __slots__ = ("cell_counts",)

    def __init__(self, cell_counts: tuple[int, ...]):
        if not cell_counts:
            raise ValueError("a CW spec needs at least dimension 0")
        if cell_counts[0] < 1:
            raise ValueError("at least one 0-cell is required")
        if any(c < 0 for c in cell_counts):
            raise ValueError("cell counts must be non-negative")
        if sum(cell_counts) > MAX_CELLS:
            raise ValueError(f"at most {MAX_CELLS} cells in total, got {sum(cell_counts)}")
        self._fill(cell_counts)

    @property
    def dimension(self) -> int:
        return len(self.cell_counts) - 1


def parse_cell_counts(text: str) -> CWComplexSpec:
    """One cell count per line; blank lines and '#' comments are ignored; the total is capped as it grows."""
    counts, total = [], 0
    for lineno, line in data_lines(text):
        try:
            counts.append(int(line))
        except ValueError:
            raise ValueError(f"line {lineno}: expected an integer cell count, got {line!r}")
        total += counts[-1]
        if total > MAX_CELLS:
            raise ValueError(f"line {lineno}: at most {MAX_CELLS} cells in total, got {total} so far")
    return CWComplexSpec(cell_counts=tuple(counts))


def _check_convention(convention: str) -> str:
    if convention not in CW_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; pick one of {CW_CONVENTIONS}")
    return convention


def _sphere_index(k: int, convention: str) -> int:
    return k if convention == "same-index" else k - 1


def _disjoint_union_tree(label: str, count: int):
    # m copies glued over the initial object: [X, empty, X, empty, ..., X]
    if count == 0:
        return "empty"
    parts: list = []
    for i in range(count):
        if i:
            parts.append("empty")
        parts.append(label)
    return parts if len(parts) > 1 else parts[0]


def cw_word(c: CWComplexSpec, convention: str = "same-index"):
    """Unexpanded skeleton bracket [uD^n, uS^?, ..., uD^1, uS^?, X0].

    ``same-index`` attaches the k-disks along S^k, ``boundary`` along
    S^(k-1).  Disjoint unions stay as nested brackets over 'empty'.
    """
    _check_convention(convention)
    x0 = _disjoint_union_tree("pt", c.cell_counts[0])
    if c.dimension == 0:
        return x0
    node: list = []
    for k in range(c.dimension, 0, -1):
        count = c.cell_counts[k]
        node.append(_disjoint_union_tree(f"D{k}", count))
        node.append(_disjoint_union_tree(f"S{_sphere_index(k, convention)}", count))
    node.append(x0)
    return node


def cw_class(c: CWComplexSpec, convention: str = "same-index") -> AffineWord:
    """Fully expanded class: sum over k of m_k * (D^k - S^?) plus the 0-skeleton."""
    _check_convention(convention)
    parts: list[tuple[int, dict[str, int]]] = []
    m0 = c.cell_counts[0]
    parts.append((m0, {"pt": 1}))
    parts.append((-(m0 - 1), {"empty": 1}))
    for k in range(1, c.dimension + 1):
        m = c.cell_counts[k]
        parts.append((m, {f"D{k}": 1}))
        parts.append((-m, {f"S{_sphere_index(k, convention)}": 1}))
    return AffineWord.from_coefficients(combine(parts))

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k0heap import presentation
from k0heap.category import compare_projection, k0_presentation, split_presentation, truss_table
from k0heap.instances import bounded_abelian_groups_file, finite_sets_spec, vect_spec
from k0heap.lattice import IntMatrix, hnf, identity_matrix, insert
from k0heap.presentation import (
    AbelianHeapPresentation,
    combine,
    AffineWord,
    MissingProductError,
    PresentationMorphism,
    RelationVector,
    TrussTable,
    UnknownGeneratorError,
    bracket,
    in_relation_lattice,
    induced_morphism,
    normalize_affine,
    retract_group_structure,
    truss_from_table,
    word_equal,
    _relation_hnf,
    _relation_lattice,
)

from oracles import (
    axis_class_coordinates,
    dense_residue,
    hermite_rows,
    matmul,
    morphism_by_membership,
    truss_check_by_relation_scan,
)

GENS = ("e", "a", "b", "c")


def rel(**coeffs):
    return RelationVector.from_coefficients(coeffs)


def aff(**coeffs):
    return AffineWord.from_coefficients(coeffs)


def gen(label):
    return AffineWord.generator(label)


@pytest.fixture
def small_presentation():
    return AbelianHeapPresentation(
        generators=GENS,
        relations=(rel(a=2, e=-2), rel(b=1, c=-1)),
    )


def test_affine_word_sum_must_be_one():
    with pytest.raises(ValueError, match=r"^affine word coefficients must sum to 1, got 2$"):
        aff(a=1, b=1)
    with pytest.raises(ValueError):
        AffineWord(())


def test_relation_vector_sum_must_be_zero():
    with pytest.raises(ValueError, match=r"^relation coefficients must sum to 0, got 1$"):
        rel(a=1)
    assert rel().is_zero


def test_from_coefficients_drops_zeros_and_sorts():
    w = AffineWord.from_coefficients({"c": 2, "a": 0, "b": -1})
    r = RelationVector.from_coefficients({"c": 1, "z": 0, "b": -1})
    assert w.terms == (("b", -1), ("c", 2))
    assert r.terms == (("b", -1), ("c", 1))
    assert (w.support, w.as_dict()) == (("b", "c"), {"b": -1, "c": 2})
    assert (str(w), str(r), str(rel())) == ("b:-1 c:2", "b:-1 c:1", "0")
    with pytest.raises(ValueError):
        AffineWord.from_coefficients({"a": 1, "b[": 0})  # zero terms are still labels


def test_affine_word_never_equals_relation_vector():
    w = aff(a=2, b=-1)
    # no relation vector can sum to 1, so build one around the same terms unchecked
    r = object.__new__(RelationVector)
    object.__setattr__(r, "terms", w.terms)
    assert w != r and r != w
    assert len({w, r}) == 2


def test_normalize_affine_examples():
    assert normalize_affine(["x", "y", "z"]) == aff(x=1, y=-1, z=1)
    assert normalize_affine(["x", "x", "y"]) == gen("y")
    assert normalize_affine(["a", "b", ["b", "a", "c"]]) == gen("c")
    with pytest.raises(ValueError):
        normalize_affine(["x", "y"])


def test_normalize_single_leaf_and_singleton_bracket():
    assert normalize_affine("x") == gen("x")
    assert normalize_affine(["x"]) == gen("x")


def test_presentation_rejects_unknown_support():
    with pytest.raises(UnknownGeneratorError):
        AbelianHeapPresentation(generators=("x",), relations=(rel(y=1, x=-1),))
    with pytest.raises(ValueError):
        AbelianHeapPresentation(generators=(), relations=())


def test_presentation_rejects_repeated_generators():
    with pytest.raises(ValueError) as exc:
        AbelianHeapPresentation(generators=("x", "y", "x"), relations=())
    assert str(exc.value) == "generators must be distinct"


def test_unknown_generator_message_is_shared():
    with pytest.raises(UnknownGeneratorError, match=r"^unknown generator 'y'$"):
        AbelianHeapPresentation(generators=("x",), relations=(rel(y=1, x=-1),))
    free = AbelianHeapPresentation(generators=("x",), relations=())
    with pytest.raises(UnknownGeneratorError, match=r"^unknown generator 'y'$"):
        word_equal(free, gen("y"), gen("x"))
    with pytest.raises(UnknownGeneratorError, match=r"^unknown generator 'u'$"):
        in_relation_lattice(AbelianHeapPresentation(("x", "y"), ()), {"u": 1, "v": -1})


@st.composite
def tall_relation_matrices(draw):
    """More than 2n sum-zero rows over n columns, small and up to 10^6 entries mixed."""
    n = draw(st.integers(min_value=1, max_value=6))
    cell = st.one_of(st.integers(min_value=-3, max_value=3), st.integers(min_value=-10**6, max_value=10**6))
    rows = draw(st.lists(st.lists(cell, min_size=n - 1, max_size=n - 1), min_size=2 * n + 1, max_size=4 * n + 3))
    return n, [r + [-sum(r)] for r in rows]


def presentation_of(n, rows):
    generators = tuple(f"g{i}" for i in range(n))
    relations = tuple(RelationVector.from_coefficients(dict(zip(generators, r))) for r in rows)
    return AbelianHeapPresentation(generators=generators, relations=relations)


def built_basis(p, monkeypatch):
    """The basis built without the cache, and the number of relations that changed it."""
    changes = []

    def spy(basis, v):
        before = {c: row[:2] for c, row in basis.items()}
        insert(basis, v)
        changes.append({c: row[:2] for c, row in basis.items()} != before)

    monkeypatch.setattr(presentation, "insert", spy)
    basis = _relation_hnf(p)
    monkeypatch.undo()
    return basis, sum(changes)


@settings(max_examples=100, deadline=None)
@given(tall_relation_matrices())
def test_inserted_basis_is_nonzero_rows_of_full_hnf(shape):
    n, rows = shape
    basis = _relation_hnf(presentation_of(n, rows))
    assert basis.cols == n
    assert basis.to_rows() == hermite_rows(rows, n)


def test_every_relation_can_be_an_insert(monkeypatch):
    # each row either raises the rank or halves the index of the lattice so far
    n, top = 5, 6
    rows = []
    for k in range(top, -1, -1):
        for j in range(1, n):
            row = [0] * n
            row[0], row[j] = -2 ** k, 2 ** k
            rows.append(row)
    basis, changes = built_basis(presentation_of(n, rows), monkeypatch)
    assert changes == len(rows)
    assert basis.to_rows() == hermite_rows(rows, n)


@st.composite
def hermite_inputs(draw, sum_zero):
    """Wide to tall rows of mostly 0, +-1 and +-2, with zero columns, repeated, scaled and zero rows, and rank near n.

    With ``sum_zero`` the last column is minus the sum of the others, so every row is a relation.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    width = n - 1 if sum_zero else n
    small = st.sampled_from((0, 0, 1, -1, 2, -2))
    row = st.lists(st.one_of(small, small, st.integers(-40, 40)), min_size=width, max_size=width)
    if draw(st.booleans()):  # integer combinations of at most `width` rows: rank close to full
        base = draw(st.lists(row, min_size=max(0, width - 2), max_size=width))
        coeffs = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
        rows = [[sum(c * r[j] for c, r in zip(cs, base)) for j in range(width)]
                for cs in draw(st.lists(coeffs, max_size=3 * n + 2))]
    else:
        rows = draw(st.lists(row, max_size=3 * n + 2))
    live = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    rows = [[x if on else 0 for x, on in zip(r, live)] for r in rows]
    edits = st.tuples(st.sampled_from("rsz"), st.integers(0, 99), st.integers(2, 4))
    for kind, i, k in draw(st.lists(edits, max_size=4)):
        if kind == "z" or not rows:
            rows.append([0] * width)
        else:  # a repeat, or a multiple for torsion
            rows.append([(k if kind == "s" else 1) * x for x in rows[i % len(rows)]])
    rows = draw(st.permutations(rows))
    return n, [r + [-sum(r)] for r in rows] if sum_zero else rows


@settings(max_examples=300, deadline=None)
@given(hermite_inputs(sum_zero=True))
def test_relation_basis_is_the_independent_hermite_form(case):
    n, rows = case
    assert _relation_hnf(presentation_of(n, rows)).to_rows() == hermite_rows(rows, n)


@settings(max_examples=300, deadline=None)
@given(hermite_inputs(sum_zero=False))
def test_hnf_is_the_independent_hermite_form_with_a_unimodular_transform(case):
    n, rows = case
    h, u = hnf(IntMatrix.from_rows(rows, cols=n))
    expected = hermite_rows(rows, n)
    assert h.to_rows() == expected + [[0] * n] * (len(rows) - len(expected))
    assert u.rows == u.cols == len(rows) and matmul(u.to_rows(), rows) == h.to_rows()
    assert hermite_rows(u.to_rows(), len(rows)) == identity_matrix(len(rows)).to_rows()  # unimodular


@st.composite
def same_lattice_relations(draw):
    """Sum-zero rows, and the same rows shuffled, negated, duplicated, and padded with combinations and zeros."""
    n = draw(st.integers(min_value=1, max_value=5))
    cell = st.integers(min_value=-3, max_value=3)
    rows = [r + [-sum(r)] for r in draw(st.lists(st.lists(cell, min_size=n - 1, max_size=n - 1), max_size=2 * n))]
    others = [[sign * x for x in r] for r, sign in zip(rows, draw(st.lists(st.sampled_from((1, -1)),
                                                                             min_size=len(rows), max_size=len(rows))))]
    others += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))] if rows else []
    for coeffs in draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)), max_size=3)):
        others.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)])
    others.append([0] * n)
    return n, rows, draw(st.permutations(others))


@settings(max_examples=100, deadline=None)
@given(same_lattice_relations())
def test_retract_group_depends_only_on_the_lattice_and_the_base(case):
    n, rows, others = case
    p, q = presentation_of(n, rows), presentation_of(n, others)
    for base in p.generators:
        gp, gq = retract_group_structure(p, base), retract_group_structure(q, base)
        assert gp.invariants == gq.invariants
        for g in p.generators:
            assert gp.class_coordinates(gen(g)) == gq.class_coordinates(gen(g)), (base, g)


def test_a_vector_whose_coefficients_do_not_sum_to_zero_is_no_relation():
    # dropping the base column alone would accept both: x - y is a relation, so x and y share a class
    p = AbelianHeapPresentation(generators=("y", "x"), relations=(rel(x=1, y=-1),))
    assert in_relation_lattice(p, {"x": 1, "y": -1})
    assert not in_relation_lattice(p, {"x": 1})
    assert not in_relation_lattice(p, {"y": 1})


@st.composite
def torsion_presentations(draw):
    """Relations d(t - s) with d >= 2 and scaled sum-zero rows free of t, under shuffled labels and rows.

    Written relative to s, the lattice is Z(d e_t) + L' with L' off the t axis, so every retract has torsion.
    """
    n = draw(st.integers(min_value=2, max_value=6))
    d = draw(st.integers(min_value=2, max_value=6))
    rows = [[-d, d] + [0] * (n - 2)]
    for r, scale in draw(st.lists(st.tuples(st.lists(st.integers(-4, 4), min_size=n - 2, max_size=n - 2),
                                            st.integers(1, 3)), max_size=n)):
        rows.append([-scale * sum(r), 0] + [scale * x for x in r])
    rows = draw(st.permutations(rows))
    labels = tuple(f"g{i}" for i in range(n))
    relations = tuple(RelationVector.from_coefficients(dict(zip(labels, row))) for row in rows)
    return AbelianHeapPresentation(generators=tuple(draw(st.permutations(labels))), relations=relations)


@settings(max_examples=100, deadline=None)
@given(torsion_presentations(), st.data())
def test_membership_matches_dense_residue_against_the_hermite_form(p, data):
    h = hnf(IntMatrix.from_rows([[r.as_dict().get(g, 0) for g in p.generators] for r in p.relations]))[0].to_rows()
    assert retract_group_structure(p, p.generators[0]).invariants.torsion
    coeff = st.integers(-5, 5)
    for i in range(8):
        if i % 2:  # a lattice combination, perhaps zero
            cs = data.draw(st.lists(coeff, min_size=len(p.relations), max_size=len(p.relations)))
            v = combine((c, r.as_dict()) for c, r in zip(cs, p.relations))
        else:
            v = dict(zip(p.generators, data.draw(st.lists(coeff, min_size=len(p.generators), max_size=len(p.generators)))))
            v[p.generators[-1]] -= sum(v.values())
        dense = not any(dense_residue(h, [v.get(g, 0) for g in p.generators]))
        assert in_relation_lattice(p, v) == dense
        assert dense or i % 2 == 0


@settings(max_examples=100, deadline=None)
@given(torsion_presentations(), st.data())
def test_class_coordinates_of_words_are_the_eager_sums_reduced(p, data):
    for base in p.generators:
        gs = retract_group_structure(p, base)
        rank, torsion = gs.invariants.rank, gs.invariants.torsion
        assert torsion
        coords = axis_class_coordinates(p, base)
        for _ in range(3):
            support = data.draw(st.lists(st.sampled_from(p.generators), min_size=1, max_size=4, unique=True))
            cs = data.draw(st.lists(st.integers(-6, 6), min_size=len(support), max_size=len(support)))
            cs[0] += 1 - sum(cs)
            w = AffineWord.from_coefficients(dict(zip(support, cs)))
            sums = [sum(c * coords[g][j] for g, c in w.terms) for j in range(rank + len(torsion))]
            assert gs.class_coordinates(w) == tuple(x % torsion[j - rank] if j >= rank else x
                                                   for j, x in enumerate(sums))


def test_basis_cache_evicts_the_least_recently_used_presentation():
    # one entry per presentation: its basis and the retract structure at its first generator
    presentations = [
        AbelianHeapPresentation(generators=(f"g{i}", "h"), relations=(rel(**{f"g{i}": 1, "h": -1}),))
        for i in range(_relation_lattice.cache_info().maxsize + 1)
    ]
    _relation_lattice.cache_clear()
    for p in presentations:
        assert in_relation_lattice(p, {})
    info = _relation_lattice.cache_info()
    assert info.currsize == info.maxsize == len(presentations) - 1
    basis, kernel = _relation_lattice(presentations[1])
    assert _relation_lattice.cache_info().hits == info.hits + 1
    assert basis == _relation_hnf(presentations[1]) and kernel.base == "g1"
    assert retract_group_structure(presentations[1], "g1") is kernel
    assert retract_group_structure(presentations[1], "h") == retract_group_structure(presentations[1], "h") != kernel
    assert _relation_lattice.cache_info().hits == info.hits + 4
    in_relation_lattice(presentations[0], {})
    assert _relation_lattice.cache_info().misses == info.misses + 1


def test_word_equal_reflexive_and_relation_driven():
    p = AbelianHeapPresentation(
        generators=("x", "y", "z", "w"),
        relations=(rel(x=1, y=-1, z=1, w=-1),),
    )
    assert word_equal(p, gen("x"), gen("x"))
    assert word_equal(p, normalize_affine(["w", "z", "y"]), gen("x"))
    free = AbelianHeapPresentation(generators=("x", "y"), relations=())
    assert not word_equal(free, gen("x"), gen("y"))
    with pytest.raises(UnknownGeneratorError):
        word_equal(free, gen("nope"), gen("x"))


def test_word_equal_is_equivalence_on_samples(small_presentation):
    rng = random.Random(3)
    p = small_presentation

    def random_word():
        coeffs = {g: rng.randint(-3, 3) for g in GENS}
        total = sum(coeffs.values())
        coeffs["e"] += 1 - total
        return AffineWord.from_coefficients(coeffs)

    words = [random_word() for _ in range(12)]
    for w in words:
        assert word_equal(p, w, w)
    for u in words[:6]:
        for v in words[:6]:
            assert word_equal(p, u, v) == word_equal(p, v, u)
    for u in words[:4]:
        for v in words[:4]:
            for w in words[:4]:
                if word_equal(p, u, v) and word_equal(p, v, w):
                    assert word_equal(p, u, w)


def test_retract_free_presentation_is_integers():
    p = AbelianHeapPresentation(generators=("e", "a"), relations=())
    gs = retract_group_structure(p, "e")
    assert gs.invariants.rank == 1
    assert gs.invariants.torsion == ()


def test_retract_with_torsion_relation():
    p = AbelianHeapPresentation(generators=("e", "a"), relations=(rel(a=2, e=-2),))
    gs = retract_group_structure(p, "e")
    assert gs.invariants.rank == 0
    assert gs.invariants.torsion == (2,)
    assert gs.class_coordinates(gen("e")) == (0,)
    assert gs.class_coordinates(gen("a")) == (1,)


def test_retract_errors():
    p = AbelianHeapPresentation(generators=("e",), relations=())
    with pytest.raises(UnknownGeneratorError):
        retract_group_structure(p, "missing")


def test_coordinates_constant_on_classes(small_presentation):
    gs = retract_group_structure(small_presentation, "e")
    w = aff(a=3, e=-2)
    shifted = AffineWord.from_coefficients(
        {"a": 3 + 2, "e": -2 - 2}  # add the relation 2a - 2e
    )
    assert gs.class_coordinates(w) == gs.class_coordinates(shifted)


def test_coordinates_respect_bracket(small_presentation):
    gs = retract_group_structure(small_presentation, "e")
    rng = random.Random(9)

    def random_word():
        coeffs = {g: rng.randint(-4, 4) for g in GENS}
        coeffs["e"] += 1 - sum(coeffs.values())
        return AffineWord.from_coefficients(coeffs)

    torsion = gs.invariants.torsion
    rank = gs.invariants.rank
    for _ in range(50):
        a, b, c = random_word(), random_word(), random_word()
        lhs = gs.class_coordinates(bracket(a, b, c))
        parts = [gs.class_coordinates(w) for w in (a, b, c)]
        rhs = []
        for j in range(rank + len(torsion)):
            value = parts[0][j] - parts[1][j] + parts[2][j]
            if j >= rank:
                value %= torsion[j - rank]
            rhs.append(value)
        assert lhs == tuple(rhs)


def test_bracket_is_plain_vector_arithmetic():
    a, b, c = aff(a=1), aff(b=1), aff(c=1)
    assert bracket(a, b, c) == aff(a=1, b=-1, c=1)
    # the affine vector a - b + c, assembled by hand
    by_hand = AffineWord.from_coefficients({"a": 1, "b": -1, "c": 1})
    assert bracket(a, b, c) == by_hand


def test_induced_morphism_identity_and_inclusion(small_presentation):
    p = small_presentation
    identity = {g: gen(g) for g in p.generators}
    report = induced_morphism(p, p, identity)
    assert report.ok
    assert report.morphism.apply(aff(a=2, e=-1)) == aff(a=2, e=-1)


def test_induced_morphism_failure_witness():
    src = AbelianHeapPresentation(
        generators=("x", "y", "z", "w"), relations=(rel(x=1, y=-1, z=1, w=-1),)
    )
    dst = AbelianHeapPresentation(generators=("x", "y", "z", "w"), relations=())
    report = induced_morphism(src, dst, {g: gen(g) for g in src.generators})
    assert not report.ok
    assert report.witness == src.relations[0]
    with pytest.raises(ValueError):
        induced_morphism(src, dst, {"x": gen("x")})


def mod_table(p, n):
    """Multiplication table g_i * g_j = g_(i*j mod n) over generators g0..g(n-1)."""
    return TrussTable(
        entries={
            (f"g{i}", f"g{j}"): gen(f"g{(i * j) % n}") for i in range(n) for j in range(n)
        },
        unit="g1",
    )


def mod_relations(n):
    """g_(i+1) = g_i + g_1 - g_0 for every i, coefficients combined additively."""
    out = []
    for i in range(n):
        coeffs = combine(
            [
                (1, {f"g{(i + 1) % n}": 1}),
                (-1, {f"g{i}": 1}),
                (-1, {"g1": 1}),
                (1, {"g0": 1}),
            ]
        )
        if coeffs:
            out.append(RelationVector.from_coefficients(coeffs))
    return tuple(out)


def test_truss_on_mod_presentation():
    n = 4
    gens = tuple(f"g{i}" for i in range(n))
    p = AbelianHeapPresentation(generators=gens, relations=mod_relations(n))
    check = truss_from_table(p, mod_table(p, n))
    assert check.ok
    assert check.unit_law == "ok"
    t = check.truss
    assert t.product(gen("g2"), gen("g3")) == gen(f"g{(2 * 3) % n}")


def test_truss_violation_witness():
    gens = ("x", "y", "z")
    p = AbelianHeapPresentation(
        generators=gens, relations=(rel(x=1, y=-2, z=1),)
    )
    # product table sending everything to x breaks the relation lattice:
    # pushing x - 2y + z through left multiplication gives 0 except at one spot
    entries = {(a, b): gen("x") for a in gens for b in gens}
    entries[("x", "y")] = gen("y")
    check = truss_from_table(p, TrussTable(entries=entries))
    assert not check.ok
    assert check.violation is not None
    assert check.violation.relation == p.relations[0]
    assert check.truss is None


def test_truss_truncation_reports_omitted_pairs():
    gens = ("x", "y")
    p = AbelianHeapPresentation(generators=gens, relations=(rel(x=1, y=-1),))
    entries = {("x", "x"): gen("x")}
    check = truss_from_table(p, TrussTable(entries=entries))
    assert check.ok
    assert ("x", "y") in check.omitted or ("y", "x") in check.omitted
    with pytest.raises(MissingProductError):
        check.truss.product(gen("y"), gen("y"))


def test_truss_distributes_over_bracket():
    n = 5
    gens = tuple(f"g{i}" for i in range(n))
    p = AbelianHeapPresentation(generators=gens, relations=mod_relations(n))
    t = truss_from_table(p, mod_table(p, n)).truss
    rng = random.Random(17)
    for _ in range(40):
        x, a, b, c = (gen(f"g{rng.randrange(n)}") for _ in range(4))
        lhs = t.product(x, bracket(a, b, c))
        rhs = bracket(t.product(x, a), t.product(x, b), t.product(x, c))
        assert word_equal(p, lhs, rhs)


@settings(max_examples=80)
@given(
    st.dictionaries(st.sampled_from(GENS), st.integers(min_value=-5, max_value=5)),
)
def test_affine_word_always_sums_to_one(partial):
    coeffs = dict(partial)
    coeffs["e"] = coeffs.get("e", 0) + 1 - sum(coeffs.values())
    w = AffineWord.from_coefficients(coeffs)
    assert sum(c for _, c in w.terms) == 1


def test_truss_table_and_morphism_images_are_frozen_copies(small_presentation):
    entries = {("a", "a"): gen("a")}
    table = TrussTable(entries=entries)
    entries[("a", "a")] = gen("b")
    assert table.entries[("a", "a")] == gen("a")
    with pytest.raises(TypeError):
        table.entries[("a", "a")] = gen("b")

    p = small_presentation
    images = {g: gen(g) for g in p.generators}
    morphism = PresentationMorphism(source=p, target=p, images=images)
    images["a"] = gen("b")
    assert morphism.apply(gen("a")) == gen("a")
    with pytest.raises(TypeError):
        morphism.images["a"] = gen("b")


def outcome(check, *args):
    """The report of a check, or the class and message of the input error it raised."""
    try:
        return check(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def small_presentations(draw):
    """Two to five generators and up to five sum-zero relations with small entries, zero ones included."""
    n = draw(st.integers(min_value=2, max_value=5))
    labels = tuple(f"g{i}" for i in range(n))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1), max_size=5))
    rows = [{**dict(zip(labels, row)), labels[-1]: -sum(row)} for row in rows]
    return AbelianHeapPresentation(generators=labels, relations=tuple(map(RelationVector.from_coefficients, rows)))


@st.composite
def affine_words(draw, labels):
    support = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True))
    cs = draw(st.lists(st.integers(-2, 2), min_size=len(support), max_size=len(support)))
    cs[0] += 1 - sum(cs)
    return AffineWord.from_coefficients(dict(zip(support, cs)))


@st.composite
def truss_cases(draw):
    """A table that keeps the lattice an ideal (x*y = x, = y or = g0), about 70 % full, perhaps perturbed.

    One case in four has a label fault: an unknown pair, an unknown label in a product, or an unknown unit.
    """
    p = draw(small_presentations())
    gens = p.generators
    kind = draw(st.sampled_from(("left", "right", "constant")))
    pairs = [(x, y) for x in gens for y in gens]
    keep = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    entries = {(x, y): gen({"left": x, "right": y, "constant": gens[0]}[kind])
               for (x, y), k in zip(pairs, keep) if k < 7}
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=2)):
        entries[pair] = draw(affine_words(gens))
    unit = draw(st.none() | st.sampled_from(gens))
    fault = draw(st.sampled_from((None, None, None, None, None, None, "pair", "word", "unit")))
    if fault == "pair":
        entries[gens[0], "zz"] = gen(gens[0])
    elif fault == "word":
        entries[draw(st.sampled_from(pairs))] = aff(zz=1, **{gens[0]: 1, gens[1]: -1})
    elif fault == "unit":
        unit = "zz"
    return p, TrussTable(entries=entries, unit=unit)


@settings(max_examples=300, deadline=None)
@given(truss_cases())
def test_truss_check_matches_the_relation_scan(case):
    """The whole report (ok, violation, omitted, unit law, truss) or the input error, as the relation scan gives it."""
    p, table = case
    assert outcome(truss_from_table, p, table) == outcome(truss_check_by_relation_scan, p, table)


@st.composite
def morphism_cases(draw):
    """A generator map into a random presentation, or the identity into src with more relations, perhaps perturbed.

    Some maps miss a generator or send one to a word with a label the target lacks.
    """
    src = draw(small_presentations())
    if draw(st.booleans()):
        dst = draw(small_presentations())
        genmap = {g: draw(affine_words(dst.generators)) for g in src.generators}
    else:
        extra = draw(small_presentations().filter(lambda q: len(q.generators) == len(src.generators)))
        dst = AbelianHeapPresentation(generators=src.generators, relations=src.relations + extra.relations)
        genmap = {g: gen(g) for g in src.generators}
        for g in draw(st.lists(st.sampled_from(src.generators), max_size=1)):
            genmap[g] = draw(affine_words(dst.generators))
    fault = draw(st.sampled_from((None, None, None, None, None, None, "missing", "word")))
    if fault == "missing":
        del genmap[draw(st.sampled_from(src.generators))]
    elif fault == "word":
        genmap[draw(st.sampled_from(src.generators))] = aff(zz=1)
    return src, dst, genmap


@settings(max_examples=300, deadline=None)
@given(morphism_cases())
def test_induced_morphism_matches_the_per_relation_query(case):
    """The whole report (ok, witness, morphism) or the input error, as one membership query per relation gives it."""
    src, dst, genmap = case
    assert outcome(induced_morphism, src, dst, genmap) == outcome(morphism_by_membership, src, dst, genmap)


def _presentation_calls(p, split, table, pairs):
    """What a shared presentation serves: word equality, a retract, and the truss and projection checks it has."""
    return ([word_equal(p, a, b) for a, b in pairs], retract_group_structure(p, p.generators[-1]),
            table and truss_from_table(p, table), split and compare_projection(split, p))


def test_presentation_calls_from_four_threads_match_the_serial_results():
    """Set, vect and zmod presentations shared by four threads racing to build their bases give the serial results."""
    rng, cases = random.Random(5), []
    for spec in (finite_sets_spec(6), vect_spec(5), bounded_abelian_groups_file()):
        p = k0_presentation(spec)
        words = [normalize_affine([rng.choice(p.generators) for _ in range(5)]) for _ in range(40)]
        pairs = list(zip(words, words[1:] + [gen(g) for g in p.generators[:3]]))
        split = split_presentation(spec) if spec.zero is not None else None
        cases.append((p, split, truss_table(spec) if spec.products is not None else None, pairs))
    _relation_lattice.cache_clear()
    expected = [_presentation_calls(*case) for case in cases]
    assert {x for e in expected for x in e[0]} == {True, False}
    assert all(e[2] is None or e[2].ok for e in expected) and [e[3] is None for e in expected] == [True, False, False]
    _relation_lattice.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that one thread reads what another is still building
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_presentation_calls, *cases[k % len(cases)]) for k in range(4 * len(cases))]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected[k % len(cases)] for k in range(4 * len(cases))]

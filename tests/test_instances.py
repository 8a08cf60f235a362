import itertools

import pytest

from k0heap.category import compare_projection, k0_group, k0_presentation, split_presentation
from k0heap.instances import (
    MAX_BOUND,
    MAX_CELLS,
    CWComplexSpec,
    FiniteSetSpan,
    bounded_abelian_groups_file,
    cw_class,
    cw_word,
    finite_sets_spec,
    parse_cell_counts,
    set_label,
    set_pushout,
    swindle_spec,
    vect_spec,
)
from k0heap.presentation import AffineWord, normalize_affine, word_equal


def gen(label):
    return AffineWord.generator(label)


def test_set_pushout_worked_example():
    span = FiniteSetSpan(size_a=2, size_b=1, size_c=3, injection=(0,), attach=(0,))
    assert set_pushout(span).size == 4


def test_set_pushout_empty_apex_is_disjoint_union():
    span = FiniteSetSpan(size_a=2, size_b=0, size_c=3, injection=(), attach=())
    assert set_pushout(span).size == 5


def test_set_pushout_identity_apex():
    span = FiniteSetSpan(size_a=2, size_b=2, size_c=3, injection=(0, 1), attach=(0, 1))
    assert set_pushout(span).size == 3


def test_set_pushout_rejects_non_injective_leg():
    with pytest.raises(ValueError):
        FiniteSetSpan(size_a=2, size_b=2, size_c=1, injection=(0, 0), attach=(0, 0))


def test_set_pushout_exhaustive_size_formula():
    """|A u_B C| = |A| - |B| + |C| over all spans with sizes <= 4 and f injective."""
    for a in range(5):
        for b in range(a + 1):
            for c in range(5):
                if b > 0 and c == 0:
                    continue  # no map B -> empty C
                for injection in itertools.permutations(range(a), b):
                    for attach in itertools.product(range(c), repeat=b):
                        span = FiniteSetSpan(
                            size_a=a, size_b=b, size_c=c,
                            injection=injection, attach=attach,
                        )
                        assert set_pushout(span).size == a - b + c


def test_finite_sets_spec_shape():
    s = finite_sets_spec(3)
    assert s.objects == ("empty", "1", "2", "3")
    assert s.zero is None
    assert s.unit == "1"
    # the worked entry: 2 - 1 + 2 = 3
    assert any(
        e.apex == "1" and e.left == "2" and e.right == "2" and e.result == "3"
        for e in s.pushouts
    )
    assert s.products[("2", "1")] == "2"
    assert s.sums[("empty", "3")] == "3"


def test_finite_sets_group_is_integers_with_cardinality_coordinate():
    s = finite_sets_spec(8)
    gs = k0_group(s, "empty")
    assert gs.invariants.rank == 1
    assert gs.invariants.torsion == ()
    unit = gs.class_coordinates(gen("1"))[0]
    assert unit in (1, -1)
    for n in range(9):
        assert gs.class_coordinates(gen(set_label(n)))[0] * unit == n


def test_vect_spec_group_and_projection():
    v = vect_spec(8)
    assert k0_group(v, "0").invariants.rank == 1
    assert k0_group(v, "0").invariants.torsion == ()
    report = compare_projection(split_presentation(v), k0_presentation(v))
    assert report.classification == "isomorphism"


def test_vect_zero_sum_entries_are_trivial_relations():
    v = vect_spec(4)
    p = split_presentation(v)
    # (0, d) entries contribute nothing: relation count < sum count
    zero_entries = [k for k in v.sums if "0" in k]
    assert zero_entries
    assert len(p.relations) == len(v.sums) - len(zero_entries)


def test_swindle_collapses_every_bounded_class():
    sw = swindle_spec(6)
    p = k0_presentation(sw)
    zero = gen("0")
    for k in range(7):
        assert word_equal(p, gen(str(k)), zero)
    assert word_equal(p, gen("omega"), zero)
    gs = k0_group(sw, "0")
    assert gs.invariants.is_trivial
    for k in range(7):
        assert gs.class_coordinates(gen(str(k))) == ()


def test_swindle_relation_vectors():
    sw = swindle_spec(3)
    p = k0_presentation(sw)
    collapse = AffineWord.from_coefficients({"2": 1})  # V = 2 collapses onto 0
    assert word_equal(p, collapse, gen("0"))
    # the omega + omega = omega square gives omega = 0 directly
    assert word_equal(p, gen("omega"), gen("0"))


def test_bounded_abelian_groups_file():
    z = bounded_abelian_groups_file()
    gs = k0_group(z, "0")
    assert gs.invariants.rank == 1
    assert gs.invariants.torsion == ()
    p = k0_presentation(z)
    assert word_equal(p, gen("Z/2"), gen("0"))
    split = split_presentation(z)
    report = compare_projection(split, p)
    assert report.contained and not report.equal
    # torsion classes survive in the split world
    split_gs = None
    from k0heap.presentation import retract_group_structure

    split_gs = retract_group_structure(split, "0")
    assert split_gs.invariants.rank > 1
    assert any(split_gs.class_coordinates(gen("Z/2")))
    assert not any(gs.class_coordinates(gen("Z/2")))


def test_cw_examples():
    assert cw_class(CWComplexSpec((1,))) == gen("pt")
    assert cw_class(CWComplexSpec((1, 1))) == AffineWord.from_coefficients(
        {"D1": 1, "S1": -1, "pt": 1}
    )
    assert cw_class(CWComplexSpec((2, 1))) == AffineWord.from_coefficients(
        {"D1": 1, "S1": -1, "pt": 2, "empty": -1}
    )


def test_cw_spec_caps_the_total_cell_count():
    assert CWComplexSpec((MAX_CELLS - 1, 1)).cell_counts == (MAX_CELLS - 1, 1)
    with pytest.raises(ValueError, match=rf"^at most {MAX_CELLS} cells in total, got {MAX_CELLS + 1}$"):
        CWComplexSpec((MAX_CELLS, 0, 1))
    with pytest.raises(ValueError, match=rf"^line 2: at most {MAX_CELLS} cells in total"):
        parse_cell_counts(f"{MAX_CELLS}\n1\nnot a count\n")  # the total is named before a later bad line


def test_cw_word_shapes():
    assert cw_word(CWComplexSpec((1,))) == "pt"
    assert cw_word(CWComplexSpec((1, 1))) == ["D1", "S1", "pt"]
    word = cw_word(CWComplexSpec((1, 1, 1)))
    assert word == ["D2", "S2", "D1", "S1", "pt"]


def test_cw_boundary_convention_uses_lower_spheres():
    cls = cw_class(CWComplexSpec((1, 2)), convention="boundary")
    assert cls == AffineWord.from_coefficients({"D1": 2, "S0": -2, "pt": 1})
    with pytest.raises(ValueError):
        cw_class(CWComplexSpec((1,)), convention="nonsense")


def test_cw_word_normalizes_to_class_exhaustively():
    """All specs with dimension <= 4 and counts <= 3, both conventions."""
    for n in range(5):
        tails = itertools.product(range(4), repeat=n)
        for tail in tails:
            for m0 in (1, 2, 3):
                spec = CWComplexSpec((m0,) + tail)
                for convention in ("same-index", "boundary"):
                    assert normalize_affine(cw_word(spec, convention)) == cw_class(
                        spec, convention
                    )


def test_cw_spec_validation():
    with pytest.raises(ValueError):
        CWComplexSpec(())
    with pytest.raises(ValueError):
        CWComplexSpec((0, 1))
    with pytest.raises(ValueError):
        CWComplexSpec((1, -1))


def test_parse_cell_counts():
    spec = parse_cell_counts("# a circle\n1\n1\n\n")
    assert spec == CWComplexSpec((1, 1))
    with pytest.raises(ValueError):
        parse_cell_counts("1\nx\n")


def test_cell_count_lines_end_at_lf_crlf_or_cr_only():
    assert parse_cell_counts("1\x0c\r\n\x852\r3\u2028\n") == CWComplexSpec((1, 2, 3))
    for text, message in [
        ("1\x0cx\n2", "line 1: expected an integer cell count, got '1\\x0cx'"),
        ("1\x85\n2\x0c\n3\u2028x\n", "line 3: expected an integer cell count, got '3\\u2028x'"),
    ]:
        with pytest.raises(ValueError) as info:
            parse_cell_counts(text)
        assert str(info.value) == message


def test_set_entries_are_the_bounded_triples_with_concrete_pushout_sizes():
    # finite_sets_spec writes |A| - |B| + |C| down directly; build each square
    # as a concrete span (legs not the first-b inclusions) and glue it here
    for n in range(1, 13):
        s = finite_sets_spec(n)
        size = {set_label(k): k for k in range(n + 1)}
        triples = [(size[e.left], size[e.apex], size[e.right]) for e in s.pushouts]
        expected = [
            (a, b, c)
            for a, b, c in itertools.product(range(n + 1), repeat=3)
            if b <= min(a, c) and a - b + c <= n
        ]
        assert sorted(triples) == expected
        for e, (a, b, c) in zip(s.pushouts, triples):
            assert e.left_mono and e.right_mono
            span = FiniteSetSpan(
                size_a=a,
                size_b=b,
                size_c=c,
                injection=tuple(range(a - b, a)),
                attach=tuple(reversed(range(b))),
            )
            assert set_pushout(span).size == size[e.result]
        assert (s.objects, s.zero) == (tuple(size), None)
        assert_arithmetic_tables(s, tuple(size))


def assert_arithmetic_tables(s, label):
    """Sums and products are truncated addition and multiplication of label indices, with unit '1'."""
    n = len(label) - 1
    pairs = list(itertools.product(range(n + 1), repeat=2))
    assert s.unit == "1"
    assert dict(s.sums) == {(label[a], label[b]): label[a + b] for a, b in pairs if a + b <= n}
    assert dict(s.products) == {(label[a], label[b]): label[a * b] for a, b in pairs if a * b <= n}


def test_vect_entries_are_the_bounded_triples_with_dimension_arithmetic():
    # every b -> a, b -> c with b <= a and a - b + c <= n; the right leg is any map, mono exactly when b <= c
    for n in range(1, 13):
        s = vect_spec(n)
        label = tuple(str(k) for k in range(n + 1))
        assert (s.objects, s.zero) == (label, "0")
        assert list(s.pushouts) == sorted(s.pushouts)
        got = sorted(
            (int(e.left), int(e.apex), int(e.right), int(e.result), e.left_mono, e.right_mono) for e in s.pushouts
        )
        expected = [
            (a, b, c, a - b + c, True, b <= c)
            for a, b, c in itertools.product(range(n + 1), repeat=3)
            if b <= a and a - b + c <= n
        ]
        assert got == expected
        assert_arithmetic_tables(s, label)


def test_generators_reject_bounds_outside_the_documented_range():
    # the guard runs before any entry exists, so N = 10**9 costs one comparison
    assert MAX_BOUND >= 64  # `demo set 64` stays available
    for generate in (finite_sets_spec, vect_spec, swindle_spec):
        for n in (0, -5, MAX_BOUND + 1, 10**9):
            with pytest.raises(ValueError, match=f"bound must be between 1 and {MAX_BOUND}, got {n}"):
                generate(n)

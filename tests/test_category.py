import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k0heap import lattice
from k0heap.category import (
    CategorySpec,
    FunctorSpec,
    InvalidSpecError,
    PushoutEntry,
    compare_projection,
    ensure_valid,
    functor_induced,
    k0_group,
    k0_presentation,
    split_presentation,
    truss_table,
    validate_spec,
    zero_law_violations,
)
from k0heap.dsl import SpecSource, parse_spec, print_spec
from k0heap.instances import bounded_abelian_groups_file, finite_sets_spec, swindle_spec, vect_spec
from k0heap.presentation import (
    AbelianHeapPresentation,
    AffineWord,
    GroupStructure,
    RelationVector,
    TrussTable,
    _relation_lattice,
    combine,
    in_relation_lattice,
    induced_morphism,
    normalize_affine,
    retract_group_structure,
    truss_from_table,
    word_equal,
)
from oracles import axis_class_coordinates, projection_by_two_scans, truss_check_by_relation_scan


def entry(apex, left, right, result, lm=True, rm=False):
    return PushoutEntry(apex=apex, left=left, right=right, result=result, left_mono=lm, right_mono=rm)


def test_validate_wellformed_spec_is_clean():
    assert validate_spec(finite_sets_spec(3)) == []


def test_validate_reports_unknown_label():
    s = CategorySpec(objects=("A",), pushouts=(entry("A", "A", "B", "A"),))
    issues = validate_spec(s)
    assert any(i.severity == "error" and "'B'" in i.message for i in issues)
    with pytest.raises(InvalidSpecError):
        ensure_valid(s)


def test_validate_flags_missing_mono_leg():
    s = CategorySpec(objects=("A",), pushouts=(entry("A", "A", "A", "A", lm=False, rm=False),))
    issues = validate_spec(s)
    assert any(i.severity == "warning" and "monomorphic" in i.message for i in issues)
    # warnings do not make the spec invalid
    ensure_valid(s)


def test_zero_sum_coherence_checked():
    s = CategorySpec(objects=("0", "A"), zero="0", sums={("0", "A"): "0"})
    issues = validate_spec(s)
    assert any("zero-object law" in i.message for i in issues)


def test_presentation_of_free_spec():
    s = CategorySpec(objects=("A", "B"))
    p = k0_presentation(s)
    assert p.generators == ("A", "B")
    assert p.relations == ()


def test_presentation_transcribes_entries():
    s = CategorySpec(objects=("X", "Y", "Z", "W"), pushouts=(entry("Y", "X", "Z", "W"),))
    p = k0_presentation(s)
    assert p.relations == (RelationVector.from_coefficients({"X": 1, "Y": -1, "Z": 1, "W": -1}),)


def test_parsed_spec_and_presentation_hold_one_copy_of_each_label_and_term():
    spec = parse_spec(SpecSource(print_spec(finite_sets_spec(8)))).spec
    label = {o: o for o in spec.objects}
    refs = [spec.unit] + [x for e in spec.pushouts for x in e[:4]]
    refs += [x for table in (spec.sums, spec.products) for (a, b), c in table.items() for x in (a, b, c)]
    assert len(refs) > 500 and all(x is label[x] for x in refs)
    p = k0_presentation(spec)
    terms = [t for r in p.relations for t in r.terms]
    assert all(g is label[g] for g, _ in terms)
    assert len({id(t) for t in terms}) == len(set(terms))  # one object per (label, coefficient) value
    assert len({t for t in terms if abs(t[1]) == 1}) <= 2 * len(p.generators)


def test_identity_pushouts_drop_to_zero():
    # X = X along the identity apex, in both orientations
    s = CategorySpec(
        objects=("X", "Y"),
        pushouts=(entry("X", "X", "Y", "Y"), entry("X", "Y", "X", "Y", lm=False, rm=True)),
    )
    assert k0_presentation(s).relations == ()


def test_unqualified_entries_generate_no_relation():
    s = CategorySpec(objects=("X", "Y", "Z", "W"), pushouts=(entry("Y", "X", "Z", "W", lm=False, rm=False),))
    assert k0_presentation(s).relations == ()


def test_single_object_spec_has_trivial_group():
    s = CategorySpec(objects=("0",))
    gs = k0_group(s, "0")
    assert gs.invariants.is_trivial
    assert gs.report_lines()[-1] == "class 0"


def test_presentation_insensitive_to_entry_order():
    s = finite_sets_spec(4)
    entries = list(s.pushouts)
    rng = random.Random(1)
    rng.shuffle(entries)
    shuffled = CategorySpec(
        objects=s.objects,
        pushouts=tuple(entries),
        zero=s.zero,
        sums=s.sums,
        products=s.products,
        unit=s.unit,
    )
    p1 = k0_presentation(s)
    p2 = k0_presentation(shuffled)
    for r in p1.relations:
        assert in_relation_lattice(p2, r.as_dict())
    for r in p2.relations:
        assert in_relation_lattice(p1, r.as_dict())


def test_split_presentation_requires_sums_and_zero():
    with pytest.raises(ValueError):
        split_presentation(finite_sets_spec(2))  # sums but no zero object
    with pytest.raises(ValueError):
        split_presentation(CategorySpec(objects=("0",), zero="0"))


def test_split_presentation_transcription():
    s = CategorySpec(
        objects=("0", "a", "b", "ab"),
        zero="0",
        sums={("a", "b"): "ab", ("0", "a"): "a"},
    )
    p = split_presentation(s)
    assert p.relations == (RelationVector.from_coefficients({"a": 1, "0": -1, "b": 1, "ab": -1}),)


def test_split_empty_sums_table_gives_free_presentation():
    s = CategorySpec(objects=("0", "a"), zero="0", sums={("0", "a"): "a"})
    assert split_presentation(s).relations == ()


def test_compare_projection_on_vect_is_isomorphism():
    v = vect_spec(6)
    report = compare_projection(split_presentation(v), k0_presentation(v))
    assert report.contained and report.equal
    assert report.classification == "isomorphism"


def test_compare_projection_trivial_containment():
    s = CategorySpec(objects=("0", "a"), zero="0", sums={("0", "a"): "a"})
    report = compare_projection(split_presentation(s), k0_presentation(s))
    assert report.contained


def test_compare_projection_generator_mismatch():
    a = AbelianHeapPresentation(generators=("x",), relations=())
    b = AbelianHeapPresentation(generators=("y",), relations=())
    with pytest.raises(ValueError):
        compare_projection(a, b)


def test_projection_containment_holds_with_sum_pushouts():
    # sums consistent with pushouts along zero: containment must hold
    for spec in (vect_spec(4), vect_spec(7)):
        report = compare_projection(split_presentation(spec), k0_presentation(spec))
        assert report.contained


def test_basepoint_independence_of_invariants():
    s = finite_sets_spec(5)
    shapes = {k0_group(s, base).invariants for base in s.objects}
    assert len(shapes) == 1
    z = CategorySpec(
        objects=("e", "a", "b"),
        pushouts=(entry("a", "b", "b", "e"),),
    )
    shapes = {k0_group(z, base).invariants for base in z.objects}
    assert len(shapes) == 1


def test_functor_inclusion_of_set_bounds():
    f = FunctorSpec(
        source=finite_sets_spec(3),
        target=finite_sets_spec(5),
        object_map={o: o for o in finite_sets_spec(3).objects},
    )
    report = functor_induced(f)
    assert report.heap.ok
    assert report.truss_checked
    assert report.truss_ok
    assert report.truss_omitted == ()


def test_functor_identity():
    s = vect_spec(3)
    report = functor_induced(FunctorSpec(source=s, target=s, object_map={o: o for o in s.objects}))
    assert report.heap.ok
    assert report.truss_ok


def test_functor_breaking_a_relation():
    src = CategorySpec(objects=("X", "Y", "Z", "W"), pushouts=(entry("Y", "X", "Z", "W"),))
    dst = CategorySpec(objects=("X", "Y", "Z", "W"))
    report = functor_induced(
        FunctorSpec(source=src, target=dst, object_map={o: o for o in src.objects})
    )
    assert not report.heap.ok
    assert report.heap.witness == k0_presentation(src).relations[0]


def test_functor_partial_map_rejected():
    s = CategorySpec(objects=("A", "B"))
    with pytest.raises(ValueError):
        functor_induced(FunctorSpec(source=s, target=s, object_map={"A": "A"}))
    with pytest.raises(ValueError, match="object map sends 'B' outside the target objects"):
        functor_induced(FunctorSpec(source=s, target=s, object_map={"A": "A", "B": "C"}))


def test_functor_product_mismatch_reported():
    src = CategorySpec(objects=("1", "a"), products={("a", "a"): "a"}, unit="1")
    dst = CategorySpec(objects=("1", "a"), products={("a", "a"): "1"}, unit="1")
    report = functor_induced(
        FunctorSpec(source=src, target=dst, object_map={"1": "1", "a": "a"})
    )
    assert report.heap.ok
    assert report.truss_checked
    assert not report.truss_ok
    assert report.truss_witness == ("a", "a", "a", "1")


def test_functor_reports_a_source_pair_whose_image_pair_the_target_omits():
    src = CategorySpec(objects=("1", "a", "b"), products={("a", "a"): "a", ("a", "b"): "b"}, unit="1")
    dst = CategorySpec(objects=("1", "a", "b"), products={("a", "a"): "a"}, unit="1")
    report = functor_induced(FunctorSpec(source=src, target=dst, object_map={o: o for o in src.objects}))
    assert report.truss_checked and report.truss_ok
    assert report.truss_witness is None
    assert report.truss_omitted == (("a", "b"),)


def test_functor_sending_the_unit_off_the_target_unit_is_witnessed():
    src = CategorySpec(objects=("1", "a"), products={("a", "a"): "a"}, unit="1")
    report = functor_induced(FunctorSpec(source=src, target=src, object_map={"1": "a", "a": "a"}))
    assert report.heap.ok and report.truss_checked
    assert not report.truss_ok
    assert report.truss_witness == ("unit", "1")


def test_compare_projection_names_a_split_relation_outside_the_full_lattice():
    s = CategorySpec(objects=("0", "a", "b", "c"), zero="0", sums={("a", "b"): "c"})
    split, full = split_presentation(s), k0_presentation(s)
    assert full.relations == ()
    report = compare_projection(split, full)
    assert (report.contained, report.equal) == (False, False)
    assert report.classification == "not-contained"
    assert report.witness == split.relations[0]


def test_truss_table_requires_products():
    with pytest.raises(ValueError):
        truss_table(CategorySpec(objects=("A",)))


def test_spec_equality_ignores_entry_order():
    s = finite_sets_spec(3)
    reversed_entries = CategorySpec(
        objects=s.objects,
        pushouts=tuple(reversed(s.pushouts)),
        zero=s.zero,
        sums=dict(s.sums),
        products=dict(s.products),
        unit=s.unit,
    )
    assert s == reversed_entries


def test_spec_tables_are_frozen_copies():
    s = finite_sets_spec(3)
    text = print_spec(s)
    sums, products = dict(s.sums), dict(s.products)
    frozen = CategorySpec(
        objects=s.objects, pushouts=s.pushouts, zero=s.zero, sums=sums, products=products, unit=s.unit
    )
    sums[("3", "3")] = "3"
    products[("3", "3")] = "1"
    assert frozen == s
    assert print_spec(frozen) == text
    with pytest.raises(TypeError):
        frozen.sums[("3", "3")] = "3"
    with pytest.raises(TypeError):
        frozen.products[("3", "3")] = "1"
    assert CategorySpec(objects=("A",), sums={}, products={}) == CategorySpec(objects=("A",))

    object_map = {o: o for o in s.objects}
    f = FunctorSpec(source=s, target=s, object_map=object_map)
    object_map["1"] = "2"
    assert f.object_map["1"] == "1"
    with pytest.raises(TypeError):
        f.object_map["1"] = "2"


def test_zero_law_violations_lists_breaking_entries_in_table_order():
    sums = {("0", "A"): "A", ("0", "B"): "A", ("A", "B"): "B", ("B", "0"): "A", ("A", "0"): "A"}
    assert zero_law_violations("0", sums) == [("0", "B", "A"), ("B", "0", "A")]
    assert zero_law_violations(None, sums) == []
    s = CategorySpec(objects=("0", "A", "B"), pushouts=(), zero="0", sums=sums)
    zero_errors = [i.message for i in validate_spec(s) if "zero-object law" in i.message]
    assert zero_errors == [
        "sum 0 + B = A breaks the zero-object law",
        "sum B + 0 = A breaks the zero-object law",
    ]


def test_class_coordinates_match_eager_smith_on_valid_corpus(data_dir):
    for path in sorted((data_dir / "valid").glob("*.cat")):
        p = k0_presentation(parse_spec(SpecSource(path.read_text(), path.name)).spec)
        for base in p.generators:
            gs = retract_group_structure(p, base)
            expected = axis_class_coordinates(p, base)
            got = {g: gs.class_coordinates(AffineWord.generator(g)) for g in p.generators}
            assert got == expected, f"{path.name} at base {base}"


def test_set32_equality_and_retract_group():
    """5,456 relations of rank 31: no rows x rows transform is built (no timing assert)."""
    p = k0_presentation(finite_sets_spec(32))
    assert len(p.relations) == 5456
    gen = AffineWord.generator
    assert word_equal(p, normalize_affine(["20", "7", "19"]), gen("32"))
    assert not word_equal(p, gen("31"), gen("32"))
    gs = retract_group_structure(p, "empty")
    assert gs.invariants.rank == 1 and gs.invariants.torsion == ()
    coords = [gs.class_coordinates(gen(str(k)))[0] for k in (1, 2, 32)]
    assert coords in ([1, 2, 32], [-1, -2, -32])


# ------------------------------------------ relations written straight into vectors


def presentation_by_combine(s, squares):
    """The construction the presentations replaced: combine, then from_coefficients per relation."""
    relations = []
    for left, apex, right, result in squares:
        coeffs = combine([(1, {left: 1}), (-1, {apex: 1}), (1, {right: 1}), (-1, {result: 1})])
        if coeffs:
            relations.append(RelationVector.from_coefficients(coeffs))
    return AbelianHeapPresentation(generators=s.objects, relations=tuple(relations))


def corpus_and_generated_specs(data_dir):
    for path in sorted((data_dir / "valid").glob("*.cat")):
        yield path.name, parse_spec(SpecSource(path.read_text())).spec
    for n in range(1, 13):
        for generate in (finite_sets_spec, vect_spec, swindle_spec):
            yield f"{generate.__name__}({n})", generate(n)


def test_presentations_equal_the_combine_construction(data_dir):
    for name, s in corpus_and_generated_specs(data_dir):
        squares = [(e.left, e.apex, e.right, e.result) for e in s.pushouts if e.qualifies]
        assert k0_presentation(s) == presentation_by_combine(s, squares), name
        if s.sums is not None and s.zero is not None:
            squares = [(a, s.zero, b, c) for (a, b), c in sorted(s.sums.items())]
            assert split_presentation(s) == presentation_by_combine(s, squares), name


POOL = ("0", "a", "b", "c", "d", "日")
SQUARE = st.tuples(*[st.sampled_from(POOL)] * 4, st.booleans(), st.booleans()).map(lambda t: entry(*t))


@settings(max_examples=300, deadline=None)
@given(st.lists(SQUARE, max_size=12), st.dictionaries(st.tuples(*[st.sampled_from(POOL)] * 2), st.sampled_from(POOL)))
def test_random_squares_give_the_combine_construction(entries, sums):
    # squares whose labels repeat or cancel as often as squares of four distinct labels
    for a, b, _ in zero_law_violations("0", sums):
        del sums[(a, b)]
    s = CategorySpec(objects=POOL, pushouts=tuple(entries), zero="0", sums=sums)
    squares = [(e.left, e.apex, e.right, e.result) for e in entries if e.qualifies]
    assert k0_presentation(s) == presentation_by_combine(s, squares)
    squares = [(a, "0", b, c) for (a, b), c in sorted(sums.items())]
    assert split_presentation(s) == presentation_by_combine(s, squares)


@pytest.mark.parametrize("ch", [":", "[", ">"])
def test_presentations_still_check_every_label(ch):
    bad = f"b{ch}c"
    in_a_relation = CategorySpec(objects=("a", bad), pushouts=(entry("a", "a", bad, bad),))
    in_no_relation = CategorySpec(objects=("0", "a", bad), zero="0", sums={("a", "0"): "a"})
    for s in (in_a_relation, in_no_relation):
        assert validate_spec(s) == []
        with pytest.raises(ValueError):
            k0_presentation(s)
    with pytest.raises(ValueError):
        split_presentation(in_no_relation)


def test_checks_look_each_basis_up_once_per_presentation(monkeypatch):
    # a check reads class images off the cached retract structure: nothing reduces against the basis
    reductions, calls = [], []
    residue, coordinates = lattice.residue, GroupStructure._coordinates
    monkeypatch.setattr(lattice, "residue", lambda pivots, v: reductions.append(v) or residue(pivots, v))
    monkeypatch.setattr(GroupStructure, "_coordinates",
                        lambda gs, terms, images: calls.append(gs) or coordinates(gs, terms, images))

    def run(check, *args, bases):
        kernels = [_relation_lattice(p)[1] for p in bases]  # built first: only the check's own calls count
        before = _relation_lattice.cache_info()
        reductions.clear()
        calls.clear()
        result = check(*args)
        after = _relation_lattice.cache_info()
        assert after.misses == before.misses and not reductions
        assert all(any(gs is known for known in kernels) for gs in calls)
        return result, after.hits - before.hits, len(calls)

    for s in (vect_spec(6), swindle_spec(6)):
        full, split, table = k0_presentation(s), split_presentation(s), truss_table(s)
        # one class per product entry, one sum per complete (relation, generator, side), one per unit pair
        complete = sum(all(pair in table.entries for pair in pairs)
                       for r in full.relations for x in full.generators
                       for pairs in ([(x, g) for g in r.support], [(g, x) for g in r.support]))
        unit_pairs = sum(pair in table.entries for g in full.generators for pair in ((table.unit, g), (g, table.unit)))
        check, lookups, calls_made = run(truss_from_table, full, table, bases=(full,))
        assert check.ok and check.unit_law == "ok"
        assert lookups == 1 and calls_made == len(table.entries) + complete + unit_pairs
        report, lookups, calls_made = run(compare_projection, split, full, bases=(split, full))
        assert report.equal
        assert lookups == 2 and calls_made == len(split.relations)  # equal bases: no full relation is tested
        identity = {g: AffineWord.generator(g) for g in full.generators}
        morphism, lookups, calls_made = run(induced_morphism, full, full, identity, bases=(full,))
        assert morphism.ok
        assert lookups == 1 and calls_made == len(full.generators) + len(full.relations)
        first, last = (AffineWord.generator(g) for g in (full.generators[0], full.generators[-1]))
        _, lookups, calls_made = run(word_equal, full, first, last, bases=(full,))
        assert lookups == 1 and calls_made == 1


SPEC_TABLES = [finite_sets_spec(5), vect_spec(5), swindle_spec(5)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPEC_TABLES), st.data())
def test_truss_check_matches_the_relation_scan_on_spec_tables(s, data):
    """Spec product tables with entries dropped and a few sent to another generator: the whole report agrees."""
    p, table = k0_presentation(s), truss_table(s)
    entries, pairs = dict(table.entries), sorted(table.entries)
    for pair in data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs) // 3)):
        entries.pop(pair, None)
    for pair in data.draw(st.lists(st.sampled_from(pairs), max_size=2)):
        entries[pair] = AffineWord.generator(data.draw(st.sampled_from(p.generators)))
    perturbed = TrussTable(entries=entries, unit=table.unit)
    assert truss_from_table(p, perturbed) == truss_check_by_relation_scan(p, perturbed)


@st.composite
def projection_cases(draw):
    """A full presentation and a split one drawn from its relations, their lattice combinations and stray vectors.

    A prefix of the shuffled relations plus combinations spans the full lattice or a proper part of it, often
    with other relations than ``full`` has; a stray vector may leave the full lattice.
    """
    n = draw(st.integers(min_value=2, max_value=5))
    labels = tuple(f"g{i}" for i in range(n))
    row = st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1)
    vector = row.map(lambda r: RelationVector.from_coefficients({**dict(zip(labels, r)), labels[-1]: -sum(r)}))
    relations = draw(st.lists(vector, max_size=5))
    shuffled = draw(st.permutations(relations))
    kept = shuffled[:draw(st.integers(0, len(shuffled)))]
    combos = [
        RelationVector.from_coefficients(combine((c, r.as_dict()) for c, r in zip(cs, relations)))
        for cs in draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(relations), max_size=len(relations)),
                                max_size=2))
    ]
    strays = draw(st.lists(vector, max_size=1))
    full = AbelianHeapPresentation(generators=labels, relations=tuple(relations))
    return AbelianHeapPresentation(generators=labels, relations=tuple(kept + combos + strays)), full


@settings(max_examples=300, deadline=None)
@given(projection_cases())
def test_projection_matches_the_two_scans(case):
    split, full = case
    assert compare_projection(split, full) == projection_by_two_scans(split, full)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([vect_spec(6), swindle_spec(6), bounded_abelian_groups_file()]), st.data())
def test_projection_matches_the_two_scans_on_spec_tables(s, data):
    """Split presentations from the whole sums table or a truncated one, against the full presentation."""
    sums = dict(s.sums)
    for pair in data.draw(st.lists(st.sampled_from(sorted(sums)), max_size=4)):
        sums.pop(pair, None)
    truncated = CategorySpec(objects=s.objects, pushouts=s.pushouts, zero=s.zero, sums=sums)
    split, full = split_presentation(truncated), k0_presentation(s)
    assert compare_projection(split, full) == projection_by_two_scans(split, full)

"""Value semantics of every public class, pinned independently of how the classes are written.

Each case builds two equal values by keyword, as the README and the
benchmark do, plus one value that differs in a field.  Equal values compare
equal and, where the class is hashable, hash equal; values that hold a
read-only table (or a spec) stay unhashable.  No attribute can be assigned,
deleted or added.  Every value copies, deep-copies and pickles to an equal
value.
"""

import copy
import pickle
from types import MappingProxyType

import pytest

from k0heap.category import (
    CategorySpec,
    FunctorReport,
    FunctorSpec,
    ProjectionReport,
    PushoutEntry,
    SpecIssue,
)
from k0heap.dsl import Diagnostic, ParseResult, SpecSource
from k0heap.heaps import (
    FiniteHeapModel,
    FreeHeapWord,
    GroupModel,
    MorphismCheck,
    _IndexView,
    cyclic_group,
    heap_from_group,
    retract_group,
)
from k0heap.instances import CWComplexSpec, FiniteSetSpan, SetPushoutResult, finite_sets_spec
from k0heap.lattice import IntMatrix, InvariantFactors, SmithDecomposition, smith_decomposition
from k0heap.presentation import (
    AbelianHeapPresentation,
    AffineWord,
    GroupStructure,
    MorphismReport,
    PresentationMorphism,
    RelationVector,
    Truss,
    TrussCheck,
    TrussTable,
    TrussViolation,
    retract_group_structure,
)


def _word(**coeffs):
    return AffineWord.from_coefficients(coeffs)


def _rel():
    return RelationVector(terms=(("a", 1), ("b", -1)))


def _presentation(relations=None):
    return AbelianHeapPresentation(generators=("a", "b"), relations=(_rel(),) if relations is None else relations)


def _table(unit=None):
    return TrussTable(entries={("a", "a"): _word(a=1)}, unit=unit)


def _group():
    return GroupModel(
        carrier=("0", "1"),
        op={("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"},
        identity="0",
        inverse={"0": "0", "1": "1"},
    )


def _spec(unit=None):
    return CategorySpec(
        objects=("0", "A"),
        pushouts=(PushoutEntry(apex="0", left="A", right="A", result="A", left_mono=True, right_mono=True),),
        zero="0",
        sums={("0", "A"): "A"},
        products={("A", "A"): "A"},
        unit=unit,
    )


# name -> (builder of a fresh value, builder of a value that differs, hashable, a field to assign)
CASES = {
    "IntMatrix": (lambda: IntMatrix(rows=1, cols=2, entries=(1, 2)),
                  lambda: IntMatrix(rows=2, cols=1, entries=(1, 2)), True, "rows"),
    "InvariantFactors": (lambda: InvariantFactors(rank=1, torsion=(2, 4)),
                         lambda: InvariantFactors(rank=1, torsion=(2,)), True, "rank"),
    "SmithDecomposition": (lambda: smith_decomposition(IntMatrix(rows=1, cols=2, entries=(2, 4))),
                           lambda: smith_decomposition(IntMatrix(rows=1, cols=2, entries=(2, 6))), True, "right"),
    "AffineWord": (lambda: AffineWord(terms=(("a", 2), ("b", -1))),
                   lambda: AffineWord(terms=(("a", 1),)), True, "terms"),
    "RelationVector": (_rel, lambda: RelationVector(terms=()), True, "terms"),
    "AbelianHeapPresentation": (_presentation, lambda: _presentation(()), True, "relations"),
    # at "a", the first generator, every call returns the one cached membership kernel
    "GroupStructure": (lambda: retract_group_structure(_presentation(), "b"),
                       lambda: retract_group_structure(_presentation(), "a"), True, "base"),
    "PresentationMorphism": (
        lambda: PresentationMorphism(source=_presentation(), target=_presentation(), images={"a": _word(a=1)}),
        lambda: PresentationMorphism(source=_presentation(), target=_presentation(), images={"a": _word(b=1)}),
        False, "images"),
    "MorphismReport": (lambda: MorphismReport(ok=False, witness=_rel()),
                       lambda: MorphismReport(ok=False), True, "ok"),
    "TrussTable": (_table, lambda: _table("a"), False, "unit"),
    "TrussViolation": (lambda: TrussViolation(relation=_rel(), side="left", generator="a"),
                       lambda: TrussViolation(relation=_rel(), side="right", generator="a"), True, "side"),
    "Truss": (lambda: Truss(presentation=_presentation(), table=_table()),
              lambda: Truss(presentation=_presentation(), table=_table("a")), False, "table"),
    "TrussCheck": (lambda: TrussCheck(ok=True, violation=None, omitted=(), unit_law="ok", truss=None),
                   lambda: TrussCheck(ok=True, violation=None, omitted=(), unit_law="unchecked", truss=None),
                   True, "ok"),
    "SpecIssue": (lambda: SpecIssue(severity="error", message="m"),
                  lambda: SpecIssue(severity="warning", message="m"), True, "message"),
    "PushoutEntry": (lambda: PushoutEntry(apex="0", left="A", right="B", result="C", left_mono=True),
                     lambda: PushoutEntry(apex="0", left="A", right="B", result="C"), True, "apex"),
    "CategorySpec": (_spec, lambda: _spec("A"), False, "objects"),
    "FunctorSpec": (lambda: FunctorSpec(source=_spec(), target=_spec(), object_map={"0": "0", "A": "A"}),
                    lambda: FunctorSpec(source=_spec(), target=_spec(), object_map={"0": "0", "A": "0"}),
                    False, "object_map"),
    "ProjectionReport": (lambda: ProjectionReport(contained=True, equal=False, witness=_rel()),
                         lambda: ProjectionReport(contained=True, equal=True), True, "equal"),
    "FunctorReport": (lambda: FunctorReport(heap=MorphismReport(ok=True), truss_checked=False),
                      lambda: FunctorReport(heap=MorphismReport(ok=False), truss_checked=False), True, "heap"),
    "FreeHeapWord": (lambda: FreeHeapWord(letters=("a", "b", "c")),
                     lambda: FreeHeapWord(letters=("a",)), True, "letters"),
    "GroupModel": (_group, lambda: cyclic_group(3), False, "identity"),
    "FiniteHeapModel": (lambda: FiniteHeapModel(carrier=("0", "1"), ternary=heap_from_group(_group()).ternary),
                        lambda: heap_from_group(cyclic_group(1)), False, "carrier"),
    "MorphismCheck": (lambda: MorphismCheck(ok=False, witness=("a", "b", "c"), group_law_ok=False),
                      lambda: MorphismCheck(ok=True), True, "ok"),
    "SpecSource": (lambda: SpecSource(text="object A\n", name="a.cat"),
                   lambda: SpecSource(text="object A\n"), True, "text"),
    "Diagnostic": (lambda: Diagnostic(severity="error", line=1, column=2, message="m"),
                   lambda: Diagnostic(severity="error", line=1, column=3, message="m"), True, "line"),
    "ParseResult": (lambda: ParseResult(spec=None, diagnostics=(Diagnostic("error", 1, 1, "m"),)),
                    lambda: ParseResult(spec=None, diagnostics=()), True, "spec"),
    "FiniteSetSpan": (
        lambda: FiniteSetSpan(size_a=2, size_b=1, size_c=1, injection=(1,), attach=(0,)),
        lambda: FiniteSetSpan(size_a=2, size_b=1, size_c=1, injection=(0,), attach=(0,)), True, "size_a"),
    "SetPushoutResult": (lambda: SetPushoutResult(size=1, classes=(("a0", "c0"),)),
                         lambda: SetPushoutResult(size=2, classes=(("a0",), ("c0",))), True, "size"),
    "CWComplexSpec": (lambda: CWComplexSpec(cell_counts=(1, 2)),
                      lambda: CWComplexSpec(cell_counts=(1,)), True, "cell_counts"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_values_compare_and_hash_equal(name):
    make, other, hashable, _ = CASES[name]
    a, b, c = make(), make(), other()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert a != c and not a == c
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_attribute_can_be_assigned(name):
    make, _, _, field = CASES[name]
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_attribute_can_be_added(name):
    value = CASES[name][0]()
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_values_copy_and_pickle_to_equal_values(name):
    value = CASES[name][0]()
    assert copy.copy(value) == value
    for again in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert again == value
        for field in value._fields:  # a table comes back read-only, as a proxy or as a view
            if isinstance(getattr(value, field), (MappingProxyType, _IndexView)):
                assert type(getattr(again, field)) is type(getattr(value, field))


def test_affine_word_never_equals_a_relation_vector_with_the_same_terms():
    word = AffineWord(terms=(("a", 1),))
    relation = object.__new__(RelationVector)  # the same terms, past the sum check
    object.__setattr__(relation, "terms", word.terms)
    assert relation.terms == word.terms
    assert word != relation and relation != word
    assert not word == relation


def test_spec_equality_ignores_entry_order_and_specs_stay_unhashable():
    s = finite_sets_spec(2)
    shuffled = CategorySpec(
        objects=s.objects, pushouts=tuple(reversed(s.pushouts)), zero=s.zero,
        sums=dict(s.sums), products=dict(s.products), unit=s.unit,
    )
    assert s == shuffled
    assert s != CategorySpec(objects=s.objects, pushouts=s.pushouts[1:], sums=s.sums, products=s.products, unit="1")
    assert CategorySpec.__hash__ is None
    with pytest.raises(TypeError):
        hash(shuffled)


def test_tables_stay_read_only_and_ignore_later_changes_to_the_callers():
    """A spec's tables are copied into read-only proxies; every finite-model table is a read-only view."""
    op, ternary = dict(_group().op), dict(heap_from_group(_group()).ternary)
    g = GroupModel(carrier=("0", "1"), op=op, identity="0", inverse={"0": "0", "1": "1"})
    h = FiniteHeapModel(carrier=g.carrier, ternary=ternary)
    op[("1", "1")] = "1"
    ternary[("1", "1", "1")] = "0"
    spec = _spec()
    copied = [
        spec.sums, spec.products, FunctorSpec(source=spec, target=spec, object_map={"0": "0", "A": "A"}).object_map,
        _table().entries, CASES["PresentationMorphism"][0]().images,
    ]
    retract = retract_group(heap_from_group(g), "1")
    views = [g.op, g.inverse, h.ternary, heap_from_group(g).ternary, retract.op, retract.inverse]
    for table in copied + views:
        assert type(table) is (MappingProxyType if any(table is t for t in copied) else _IndexView)
        key, value = next(iter(table.items()))
        with pytest.raises(TypeError):
            table[key] = None
        with pytest.raises(TypeError):
            del table[key]
        assert table[key] == value
    assert g.op[("1", "1")] == "0" and h.ternary[("1", "1", "1")] == "1"
    assert g == _group() and h == heap_from_group(_group())


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


def test_a_heap_of_a_group_equals_the_model_validated_from_its_table():
    """Both are views, equal to each other and to the table in both directions, and so are their copies."""
    for g in (_group(), cyclic_group(5), retract_group(heap_from_group(cyclic_group(6)), "4")):
        view = heap_from_group(g)
        plain = dict(view.ternary)
        table = FiniteHeapModel(carrier=g.carrier, ternary=plain)
        assert type(view.ternary) is type(table.ternary) is _IndexView
        assert view == table and table == view and not view != table and not table != view
        for t in (view.ternary, table.ternary):
            assert t == plain and plain == t and not t != plain and not plain != t
        assert repr(view) == repr(table) and repr(table.ternary) == repr(MappingProxyType(plain))
        for again in (f(h) for h in (view, table) for f in (copy.copy, copy.deepcopy, _pickled)):
            assert again == view and again == table and table == again and again.ternary == plain
            assert type(again.ternary) is _IndexView
        assert view != heap_from_group(cyclic_group(7)) and table != heap_from_group(cyclic_group(7))
    z4, bits = cyclic_group(4), ("0", "1", "2", "3")
    v4 = GroupModel(bits, {(a, b): str(int(a) ^ int(b)) for a in bits for b in bits}, "0", {a: a for a in bits})
    for x, y in ((z4.op, v4.op), (z4.inverse, v4.inverse), (heap_from_group(z4).ternary, heap_from_group(v4).ternary)):
        assert type(x) is type(y) is _IndexView and list(x) == list(y)  # the same keys in the same order
        assert x != y and y != x and not x == y and x == dict(x) and y == dict(y)
    z5 = heap_from_group(cyclic_group(5))
    shuffled = FiniteHeapModel(carrier=("2", "0", "4", "1", "3"), ternary=dict(z5.ternary))
    assert shuffled != z5 and shuffled.ternary == z5.ternary  # another carrier order, so another value, same table


def test_every_heap_pickles_as_its_group():
    """n^2 + n entries, not n^3: at order 64 under 100 KB, whether it came from a group or from a caller's table."""
    g = cyclic_group(64)
    h = heap_from_group(g)
    validated = FiniteHeapModel(h.carrier, dict(h.ternary))
    for value in (g, h, validated):
        assert len(pickle.dumps(value)) < 100_000
    assert pickle.loads(pickle.dumps(h)) == h and pickle.loads(pickle.dumps(validated)) == validated == h
    empty = FiniteHeapModel((), {})  # no basepoint, so no group: it travels as its empty table
    for again in (copy.copy(empty), copy.deepcopy(empty), pickle.loads(pickle.dumps(empty))):
        assert again == empty and type(again.ternary) is _IndexView and len(again.ternary) == 0
        assert repr(again) == repr(empty) == "FiniteHeapModel(carrier=(), ternary=mappingproxy({}))"


def test_smith_left_transform_is_built_on_first_read():
    dec = smith_decomposition(IntMatrix(rows=2, cols=2, entries=(2, 4, 6, 8)))
    assert "left" not in vars(dec)
    left = dec.left
    assert "left" in vars(dec) and dec.left is left
    assert dec == smith_decomposition(IntMatrix(rows=2, cols=2, entries=(2, 4, 6, 8)))
    again = SmithDecomposition(diagonal=dec.diagonal, right=dec.right, _matrix=IntMatrix(2, 2, (2, 4, 6, 8)))
    assert again == dec and again.left == left


def test_positional_construction_follows_field_order():
    assert IntMatrix(1, 2, (1, 2)) == IntMatrix(rows=1, cols=2, entries=(1, 2))
    assert Diagnostic("error", 3, 9, "boom").column == 9
    assert SpecSource("object A\n").name == "<input>"
    assert CWComplexSpec((1, 0, 2)).dimension == 2
    assert FreeHeapWord(("a",)) == FreeHeapWord(letters=("a",))
    assert PushoutEntry("0", "A", "B", "C").qualifies is False
    g = _group()
    assert GroupModel(g.carrier, g.op, g.identity, g.inverse) == g


def _same_tables(tables, other):
    """Equal (index, table, inv), and generators that generate the group on each side.

    A copy is validated again, and Light's test may visit other generators
    than the images of its heap's ones that a retract keeps.
    """
    assert tables[:3] == other[:3]
    for _, table, inv, gens in (tables, other):
        reached = fresh = {table[0][inv[0]]}
        while fresh:
            fresh = {table[x][s] for x in fresh for s in gens} - reached
            reached = reached | fresh
        assert reached == set(range(len(table)))


def test_heap_models_keep_index_tables_outside_their_value():
    """Equality, hash, repr and pickle read the fields only; a rebuilt value makes its tables again."""
    h = heap_from_group(cyclic_group(3))
    for value in (cyclic_group(3), h, retract_group(h, "1"), FiniteHeapModel(h.carrier, dict(h.ternary))):
        assert list(vars(value)) == ["_tables"]
        twin = copy.deepcopy(value)
        _same_tables(vars(twin)["_tables"], vars(value)["_tables"])
        vars(twin)["_tables"] = None
        assert twin == value and repr(twin) == repr(value)
        assert twin._key(twin) == value._key(value) == tuple(getattr(value, f) for f in type(value)._fields)
        assert "_tables" not in type(value)._fields and "__dict__" not in type(value)._fields
        assert pickle.dumps(twin) == pickle.dumps(value)
        again = pickle.loads(pickle.dumps(twin))
        assert again == value
        _same_tables(vars(again)["_tables"], vars(value)["_tables"])


def test_group_structure_keeps_its_label_index_outside_its_value():
    """The cached kernel compares, hashes, prints and pickles by its fields; a rebuilt value indexes its images again."""
    kernel = retract_group_structure(_presentation(), "a")
    assert kernel is retract_group_structure(_presentation(), "a")
    assert list(vars(kernel)) == ["_index"] and "_index" not in repr(kernel)
    twin = copy.deepcopy(kernel)
    vars(twin)["_index"] = None
    assert twin == kernel and hash(twin) == hash(kernel) and pickle.dumps(twin) == pickle.dumps(kernel)
    again = pickle.loads(pickle.dumps(twin))
    assert again == kernel and vars(again) == vars(kernel)
    assert again.class_coordinates(_word(b=1)) == kernel.class_coordinates(_word(b=1))

import copy
import itertools
import pickle
import random
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k0heap.heaps import (
    FiniteHeapModel,
    GroupAxiomError,
    GroupModel,
    HeapAxiomError,
    _IndexView,
    check_heap_morphism,
    cyclic_group,
    heap_from_group,
    klein_four_group,
    retract_group,
)
from oracles import (
    find_isomorphism,
    group_axiom_failure,
    heap_axiom_failure,
    morphism_check_by_lookup,
    retract_by_lookup,
    triple_morphism_failure,
)


def mod_heap(n):
    """Heap of Z/n with [a,b,c] = a - b + c, built directly from arithmetic."""
    elems = tuple(str(i) for i in range(n))
    table = {
        (str(a), str(b), str(c)): str((a - b + c) % n)
        for a in range(n)
        for b in range(n)
        for c in range(n)
    }
    return FiniteHeapModel(carrier=elems, ternary=table)


def test_group_axioms_enforced():
    elems = ("0", "1")
    bad_op = {(a, b): "0" for a in elems for b in elems}  # not a group
    with pytest.raises(GroupAxiomError):
        GroupModel(carrier=elems, op=bad_op, identity="0", inverse={"0": "0", "1": "1"})


def test_heap_axioms_enforced_with_witness():
    elems = ("0", "1")
    table = {(a, b, c): "0" for a in elems for b in elems for c in elems}
    with pytest.raises(HeapAxiomError) as exc:
        FiniteHeapModel(carrier=elems, ternary=table)
    assert exc.value.witness


def test_a_repeated_heap_label_and_an_empty_cyclic_group_are_refused():
    with pytest.raises(HeapAxiomError) as exc:
        FiniteHeapModel(carrier=("0", "1", "0"), ternary={})
    assert str(exc.value) == "carrier labels must be distinct"
    with pytest.raises(ValueError) as exc:
        cyclic_group(0)
    assert str(exc.value) == "cyclic group order must be >= 1"


def test_empty_heap_allowed_but_has_no_retract():
    empty = FiniteHeapModel(carrier=(), ternary={})
    with pytest.raises(ValueError):
        retract_group(empty, "0")


def test_retract_of_mod3_heap_at_zero():
    got = retract_group(mod_heap(3), "0")
    assert got == cyclic_group(3)


def test_retract_of_mod3_heap_at_one_is_isomorphic():
    shifted = retract_group(mod_heap(3), "1")
    assert shifted.identity == "1"
    assert find_isomorphism(shifted, cyclic_group(3)) is not None


def test_retract_of_two_element_heap():
    got = retract_group(mod_heap(2), "0")
    assert got == cyclic_group(2)


def test_heap_from_group_mod2_is_sum():
    h = heap_from_group(cyclic_group(2))
    for a in "01":
        for b in "01":
            for c in "01":
                assert h.ternary[(a, b, c)] == str((int(a) + int(b) + int(c)) % 2)


def test_heap_from_trivial_group():
    h = heap_from_group(cyclic_group(1))
    assert h.carrier == ("0",)


def test_round_trip_all_small_groups():
    groups = [cyclic_group(n) for n in range(1, 13)] + [klein_four_group()]
    for g in groups:
        assert retract_group(heap_from_group(g), g.identity) == g


def test_mod4_heap_equals_derived_heap():
    assert heap_from_group(cyclic_group(4)) == mod_heap(4)


def test_identity_and_constant_morphisms():
    h = mod_heap(3)
    identity = {x: x for x in h.carrier}
    assert check_heap_morphism(identity, h, h).ok
    constant = {x: "1" for x in h.carrier}
    assert check_heap_morphism(constant, h, h).ok


def test_mod2_reduction_morphism():
    result = check_heap_morphism(
        {str(i): str(i % 2) for i in range(4)}, mod_heap(4), mod_heap(2), base="0"
    )
    assert result.ok
    assert result.group_law_ok


def test_non_morphism_reports_witness():
    h = mod_heap(3)
    swap = {"0": "0", "1": "2", "2": "1"}
    # x -> -x is actually a heap morphism of an abelian heap; break it with
    # a genuinely non-affine map instead
    scramble = {"0": "0", "1": "1", "2": "0"}
    result = check_heap_morphism(scramble, h, h)
    assert not result.ok
    assert result.witness is not None
    assert check_heap_morphism(swap, h, h).ok


def test_partial_map_rejected():
    h = mod_heap(2)
    with pytest.raises(ValueError):
        check_heap_morphism({"0": "0"}, h, h)


def test_map_outside_the_target_carrier_rejected():
    h = mod_heap(2)
    with pytest.raises(ValueError, match="sends '1' outside the target carrier"):
        check_heap_morphism({"0": "0", "1": "7"}, h, h)


def test_order_64_heap_validates():
    g = cyclic_group(64)
    h = heap_from_group(g)
    assert len(h.ternary) == 64**3
    assert retract_group(h, "0") == g


def test_models_keep_a_frozen_copy_of_their_tables():
    table = dict(mod_heap(3).ternary)
    h = FiniteHeapModel(carrier=("0", "1", "2"), ternary=table)
    table[("0", "0", "0")] = "1"
    assert h.ternary[("0", "0", "0")] == "0"
    with pytest.raises(TypeError):
        h.ternary[("0", "0", "0")] = "1"
    assert h == mod_heap(3)

    g = cyclic_group(3)
    op, inverse = dict(g.op), dict(g.inverse)
    frozen = GroupModel(carrier=g.carrier, op=op, identity="0", inverse=inverse)
    op[("1", "1")] = "0"
    inverse["1"] = "1"
    assert frozen == g
    with pytest.raises(TypeError):
        frozen.op[("1", "1")] = "0"
    with pytest.raises(TypeError):
        frozen.inverse["1"] = "1"


# ---------------------------------------------------------------- differential
#
# The validators against the exhaustive oracles.  Heaps: Z/n (n <= 6), Klein
# four and S3, single-entry perturbations of them, and random tables of order
# <= 3.  Groups: Z/n (n <= 8), Klein four, S3 and D4 with shuffled carriers,
# single-entry perturbations of them, and random order <= 5 tables with an
# identity and inverses, among them a non-associative loop of order 5.


def zmod(n):
    """Z/n as (carrier, multiplication, inverse), the identity first."""
    elems = tuple(str(i) for i in range(n))
    return elems, lambda x, y: str((int(x) + int(y)) % n), lambda x: str(-int(x) % n)


def klein():
    return (
        ("00", "01", "10", "11"),
        lambda x, y: f"{int(x[0]) ^ int(y[0])}{int(x[1]) ^ int(y[1])}",
        lambda x: x,
    )


def s3():
    """S3 as permutations of (0, 1, 2), labelled by their one-line images."""
    perms = list(itertools.permutations(range(3)))
    label = {p: "".join(map(str, p)) for p in perms}
    perm = {v: k for k, v in label.items()}

    def mul(x, y):  # x after y
        px, py = perm[x], perm[y]
        return label[tuple(px[py[i]] for i in range(3))]

    def inv(x):
        px = perm[x]
        out = [0, 0, 0]
        for i, j in enumerate(px):
            out[j] = i
        return label[tuple(out)]

    return tuple(label[p] for p in perms), mul, inv


def d4():
    """The dihedral group of order 8: r^k s^f labelled 'r0'..'r3', 's0'..'s3', with s r = r^-1 s."""
    elems = tuple(f"{f}{k}" for f in "rs" for k in range(4))

    def mul(x, y):  # r^j s^f * r^k s^g = r^(j +- k) s^(f + g)
        k = (int(x[1]) + (-1 if x[0] == "s" else 1) * int(y[1])) % 4
        return f"{'rs'[(x[0] == 's') != (y[0] == 's')]}{k}"

    def inv(x):
        return x if x[0] == "s" else f"r{-int(x[1]) % 4}"

    return elems, mul, inv


def zmod_product(*moduli):
    """Z/m1 x Z/m2 x ... as (carrier, multiplication, inverse), labels like '1.7', the identity first."""
    elems = tuple(".".join(map(str, x)) for x in itertools.product(*(range(m) for m in moduli)))

    def mul(x, y):
        return ".".join(str((int(a) + int(b)) % m) for a, b, m in zip(x.split("."), y.split("."), moduli))

    def inv(x):
        return ".".join(str(-int(a) % m) for a, m in zip(x.split("."), moduli))

    return elems, mul, inv


SMALL_GROUPS = [zmod(n) for n in range(1, 9)] + [klein(), s3(), d4()]


def group_heap_table(elems, mul, inv):
    """[a,b,c] = a * b^-1 * c from plain Python callables."""
    return {(a, b, c): mul(mul(a, inv(b)), c) for a, b, c in itertools.product(elems, repeat=3)}


def zmod_table(n):
    elems, mul, inv = zmod(n)
    return elems, group_heap_table(elems, mul, inv)


GROUP_HEAPS = [
    (elems, group_heap_table(elems, mul, inv)) for elems, mul, inv in SMALL_GROUPS if len(elems) <= 6
]


@st.composite
def group_heaps(draw):
    """A heap of a small group, with its carrier in a random order (so carrier[0] varies)."""
    elems, table = draw(st.sampled_from(GROUP_HEAPS))
    return tuple(draw(st.permutations(elems))), table


@st.composite
def perturbed_heaps(draw):
    elems, table = draw(group_heaps())
    key = draw(st.sampled_from(sorted(table)))
    changed = dict(table)
    changed[key] = draw(st.sampled_from(elems))
    return elems, changed


@st.composite
def random_tables(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    elems = tuple("xyz"[:n])
    keys = list(itertools.product(elems, repeat=3))
    values = draw(st.lists(st.sampled_from(elems), min_size=len(keys), max_size=len(keys)))
    return elems, dict(zip(keys, values))


def witness_is_genuine(table, e, exc):
    """The rejection's witness fails its law in the table's retract at e."""
    def mul(x, y):
        return table[(x, e, y)]

    def inv(x):
        return table[(e, x, e)]

    w = exc.witness
    message = str(exc)
    if "identity law" in message:
        (a,) = w
        return mul(e, a) != a or mul(a, e) != a
    if "inverse law" in message:
        (a,) = w
        return mul(a, inv(a)) != e
    if "associativity" in message:
        a, b, c = w
        return mul(mul(a, b), c) != mul(a, mul(b, c))
    a, b, c = w
    return table[(a, b, c)] != mul(mul(a, inv(b)), c)


@settings(max_examples=300, deadline=None)
@given(st.one_of(group_heaps(), perturbed_heaps(), random_tables()))
def test_heap_validation_agrees_with_exhaustive_search(case):
    elems, table = case
    expected_ok = heap_axiom_failure(elems, table) is None
    try:
        FiniteHeapModel(carrier=elems, ternary=table)
    except HeapAxiomError as exc:
        assert not expected_ok, f"valid heap rejected: {exc}"
        assert witness_is_genuine(table, elems[0], exc), exc
    else:
        assert expected_ok


def test_every_single_entry_perturbation_is_rejected():
    elems, table = zmod_table(3)
    for key in table:
        for wrong in elems:
            if wrong == table[key]:
                continue
            changed = dict(table)
            changed[key] = wrong
            with pytest.raises(HeapAxiomError) as exc:
                FiniteHeapModel(carrier=elems, ternary=changed)
            assert witness_is_genuine(changed, elems[0], exc.value)


# the map sources add D4 and Z/2 x Z/4, whose Light's tests visit two or more generators
MAP_SOURCES = GROUP_HEAPS + [
    (elems, group_heap_table(elems, mul, inv)) for elems, mul, inv in (d4(), zmod_product(2, 4))
]


@st.composite
def heap_maps(draw):
    """A map between two group heaps: random, constant, an affine morphism, or one with a value changed."""
    kind = draw(st.sampled_from(["random", "constant", "affine", "affine-changed"]))
    src_elems, src_table = draw(st.sampled_from(MAP_SOURCES))
    dst_elems, dst_table = (
        (src_elems, src_table) if kind.startswith("affine") else draw(st.sampled_from(GROUP_HEAPS))
    )
    if kind == "constant":
        c = draw(st.sampled_from(dst_elems))
        mapping = {x: c for x in src_elems}
    elif kind.startswith("affine"):
        # x -> [g, e, [x, e, h]] = g*x*h is a heap automorphism of any group heap
        e = src_elems[0]
        g, h = draw(st.sampled_from(src_elems)), draw(st.sampled_from(src_elems))
        mapping = {x: src_table[(g, e, src_table[(x, e, h)])] for x in src_elems}
        if kind == "affine-changed":  # a morphism everywhere but at one element, at any place in the carrier
            mapping[draw(st.sampled_from(src_elems))] = draw(st.sampled_from(dst_elems))
    else:
        mapping = {x: draw(st.sampled_from(dst_elems)) for x in src_elems}
    base = draw(st.none() | st.sampled_from(src_elems))
    source = FiniteHeapModel(carrier=tuple(draw(st.permutations(src_elems))), ternary=src_table)
    target = FiniteHeapModel(carrier=dst_elems, ternary=dst_table)
    # the same heaps, keeping the index tables of a retract whose identity need not be carrier[0]
    if draw(st.booleans()):
        source = heap_from_group(retract_group(source, draw(st.sampled_from(src_elems))))
    if draw(st.booleans()):
        target = heap_from_group(retract_group(target, draw(st.sampled_from(dst_elems))))
    # copy.copy rebuilds a heap of a group from its view, pickle validates its group again: both keep generators
    source = draw(st.sampled_from([source, copy.copy(source), pickle.loads(pickle.dumps(source))]))
    return mapping, source, target, base


@settings(max_examples=300, deadline=None)
@given(heap_maps())
def test_morphism_check_agrees_with_exhaustive_search(case):
    mapping, source, target, base = case
    expected_ok = triple_morphism_failure(mapping, source.carrier, source.ternary, target.ternary) is None
    result = check_heap_morphism(mapping, source, target, base=base)
    assert result.ok == expected_ok
    assert result.group_law_ok == (None if base is None else expected_ok)
    if result.ok:
        assert result.witness is None
    else:
        x, e, y = result.witness
        assert e == (source.carrier[0] if base is None else base)
        assert mapping[source.ternary[(x, e, y)]] != target.ternary[(mapping[x], mapping[e], mapping[y])]
    assert result == morphism_check_by_lookup(mapping, source, target, base)  # the first failing (x, e, y)


def _heap_calls(h):
    """Every retract of h, its heap, and morphism checks of a translation and a collapse at every basepoint."""
    out = []
    for e in h.carrier:
        g = retract_group(h, e)
        translate = {x: h.ternary[(x, e, h.carrier[-1])] for x in h.carrier}  # x -> x * e^-1 * last: affine
        collapse = {**translate, h.carrier[1]: translate[h.carrier[2]]}  # its image is no coset: no morphism
        checks = check_heap_morphism(translate, h, h, base=e), check_heap_morphism(collapse, h, h, base=e)
        out.append((g, vars(g)["_tables"], heap_from_group(g), *checks))
    return out


def test_heap_model_calls_from_four_threads_match_the_serial_results():
    """Shared models, their index tables and generator lists read from four threads give the serial results."""
    groups = [cyclic_group(12), *(GroupModel(*group_model_args(*g)) for g in (d4(), zmod_product(2, 4)))]
    groups.append(retract_group(heap_from_group(groups[1]), "s2"))
    shared = [heap_from_group(g) for g in groups] + [mod_heap(6)]
    expected = [_heap_calls(h) for h in shared]
    assert all(h2 == h and t.ok and not c.ok for h, calls in zip(shared, expected) for _, _, h2, t, c in calls)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that state shared by the calls is read mid-update
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_heap_calls, shared[k % len(shared)]) for k in range(4 * len(shared))]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected[k % len(shared)] for k in range(4 * len(shared))]


@st.composite
def heaps_three_ways(draw):
    """(heap, its bracket table from group_heap_table) for a small group heap.

    The heap is validated from its table or made by heap_from_group, and
    either one may be pickled or deep-copied.  The carrier is shuffled, so
    neither carrier[0] nor the identity's place in it is fixed.
    """
    elems, mul, inv = draw(st.sampled_from(SMALL_GROUPS))
    carrier = tuple(draw(st.permutations(elems)))
    table = group_heap_table(carrier, mul, inv)
    if draw(st.booleans()):
        h = FiniteHeapModel(carrier=carrier, ternary=table)
    else:
        op = {(a, b): mul(a, b) for a in carrier for b in carrier}
        h = heap_from_group(GroupModel(carrier=carrier, op=op, identity=elems[0], inverse={a: inv(a) for a in carrier}))
    return draw(st.sampled_from([h, pickle.loads(pickle.dumps(h)), copy.deepcopy(h)])), table


@settings(max_examples=200, deadline=None)
@given(heaps_three_ways())
def test_retract_tables_match_the_bracket_lookups_at_every_basepoint(case):
    h, _ = case
    for e in h.carrier:
        g = retract_group(h, e)
        op, inverse = retract_by_lookup(h.carrier, h.ternary, e)
        assert g.identity == e
        assert list(g.op.items()) == list(op.items()) and list(g.inverse.items()) == list(inverse.items())
        assert list(heap_from_group(g).ternary.items()) == list(h.ternary.items())


def _reads_as(view, oracle, strays):
    """``view`` answers every read as the dict ``oracle`` does: size, order, membership, lookups and equality."""
    assert len(view) == len(oracle)
    assert list(view) == list(oracle) and list(view.items()) == list(oracle.items())
    for key in [*oracle, *strays]:
        assert (key in view) is (key in oracle)
        assert view.get(key, "missing") == oracle.get(key, "missing")
        if key in oracle:
            assert view[key] == oracle[key]
        else:
            with pytest.raises(KeyError):
                view[key]
    for unhashable in ([next(iter(oracle))], (strays[0], []), {}):
        for read in (view.__getitem__, view.__contains__, view.get):
            with pytest.raises(TypeError):
                read(unhashable)
    for other in (oracle, MappingProxyType(oracle)):
        assert view == other and other == view and not view != other and not other != view
    key = next(iter(oracle))
    for changed in ({**oracle, key: "stray"}, {**oracle, "stray": oracle[key]}, dict(list(oracle.items())[1:])):
        assert view != changed and changed != view and not view == changed
    assert view != list(oracle.items()) and view != 0


@settings(max_examples=200, deadline=None)
@given(heaps_three_ways(), st.data())
def test_derived_tables_read_as_the_dicts_they_stand_for(case, data):
    """The bracket of a heap of a group and a retract's op and inverse, against group_heap_table and retract_by_lookup."""
    h, table = case
    e = data.draw(st.sampled_from(h.carrier))
    g = retract_group(h, e)
    op, inverse = retract_by_lookup(h.carrier, table, e)
    x = data.draw(st.sampled_from(h.carrier))
    # keys a view must not read: a label string that would unpack into a key, wrong lengths, an unknown label
    strays = ["".join(h.carrier[:3]), "".join(h.carrier[:2]), (x,), (x, x), (x, x, x), (x, x, x, x), "zz",
              ("zz", x), (x, "zz"), ("zz", x, x), (x, "zz", x), (x, x, "zz"), None, 0]
    for view, oracle in ((heap_from_group(g).ternary, table), (g.op, op), (g.inverse, inverse)):
        assert type(view) is not MappingProxyType
        _reads_as(view, oracle, strays)


def test_a_label_string_is_no_key_of_a_derived_table():
    """Over carrier a, b, c the string "abc" unpacks to a triple and "ab" to a pair; neither is a key."""
    g = GroupModel(carrier=("a", "b", "c"), identity="a", inverse={"a": "a", "b": "c", "c": "b"},
                   op={(x, y): "abc"[("abc".index(x) + "abc".index(y)) % 3] for x in "abc" for y in "abc"})
    h = heap_from_group(g)
    r = retract_group(h, "b")
    for table, key in ((h.ternary, "abc"), (r.op, "ab"), (r.inverse, ("a",))):
        assert key not in table and table.get(key) is None
        with pytest.raises(KeyError):
            table[key]
        with pytest.raises(TypeError):
            table[["a"]]
    assert h.ternary["a", "b", "c"] == "b" and r.op["a", "b"] == "a" and r.inverse["a"] == "c"


def test_morphism_rejects_unknown_base():
    h = mod_heap(2)
    with pytest.raises(ValueError):
        check_heap_morphism({"0": "0", "1": "1"}, h, h, base="7")


def _big_frame_locals(exc, n, own):
    """Names of frame locals with >= n^3 entries in the tracebacks of exc and its causes, except those in own."""
    found = []
    while exc is not None:
        tb = exc.__traceback__
        while tb is not None:
            for name, value in tb.tb_frame.f_locals.items():
                if hasattr(value, "__len__") and len(value) >= n**3 and not any(value is t for t in own):
                    found.append((tb.tb_frame.f_code.co_name, name))
            tb = tb.tb_next
        exc = exc.__cause__ or exc.__context__
    return found


def test_a_rejected_table_leaves_no_copy_of_it_in_the_traceback():
    elems, table = zmod_table(8)
    missing, stray, retract, bracket = (dict(table) for _ in range(4))
    del missing[("1", "2", "3")]
    stray[("1", "2", "9")] = "0"
    retract[("1", "0", "2")] = "0"  # breaks the retract at '0'
    bracket[("1", "2", "3")] = "0"  # read by no retract table at '0'
    messages = []
    for broken in (missing, stray, retract, bracket):
        with pytest.raises(HeapAxiomError) as info:
            FiniteHeapModel(carrier=elems, ternary=broken)
        assert _big_frame_locals(info.value, 8, (table, missing, stray, retract, bracket)) == []
        messages.append(str(info.value))
        assert isinstance(info.value.__cause__, GroupAxiomError) is (broken is retract)
    assert messages == [
        "ternary table not total at ('1', '2', '3')", "ternary table has a stray entry at ('1', '2', '9')",
        "retract at '0': associativity fails", "[a,b,c] != a*b^-1*c at base '0'",
    ]


def test_non_total_heap_table_is_rejected_before_any_law():
    elems, table = zmod_table(3)
    broken = dict(table)
    broken[("0", "0", "1")] = "2"  # the retract at '0' would then fail the identity law
    del broken[("2", "2", "1")]
    with pytest.raises(HeapAxiomError, match=r"ternary table not total at \('2', '2', '1'\)"):
        FiniteHeapModel(carrier=elems, ternary=broken)
    broken[("2", "2", "1")] = "7"
    with pytest.raises(HeapAxiomError, match=r"ternary table not total at \('2', '2', '1'\)"):
        FiniteHeapModel(carrier=elems, ternary=broken)


def test_entries_outside_the_carrier_are_rejected():
    h, g = heap_from_group(cyclic_group(2)), cyclic_group(2)
    stray_heap = {**h.ternary, ("x", "y", "z"): "junk", ("0",): "0"}
    assert heap_axiom_failure(h.carrier, stray_heap) == ("stray", ("x", "y", "z"))
    with pytest.raises(HeapAxiomError, match=r"^ternary table has a stray entry at \('x', 'y', 'z'\)$"):
        FiniteHeapModel(carrier=("0", "1"), ternary=stray_heap)
    with pytest.raises(HeapAxiomError, match=r"^ternary table has a stray entry at 'abc'$"):
        FiniteHeapModel(carrier=(), ternary={"abc": "a"})
    del stray_heap[("1", "1", "1")]  # not total and stray: totality is reported first
    with pytest.raises(HeapAxiomError, match="not total"):
        FiniteHeapModel(carrier=("0", "1"), ternary=stray_heap)

    cases = [
        ({**g.op, ("0", "2"): "0", "01": "1"}, g.inverse, "operation table has a stray entry at ('0', '2')"),
        (g.op, {**g.inverse, "2": "0"}, "inverse table has a stray entry at '2'"),
        ({**g.op, ("0", "2"): "0"}, {**g.inverse, "2": "0"}, "inverse table has a stray entry at '2'"),
    ]
    for op, inverse, message in cases:
        assert group_axiom_failure(g.carrier, op, "0", inverse) == (message, ())
        with pytest.raises(GroupAxiomError) as exc:
            GroupModel(carrier=g.carrier, op=op, identity="0", inverse=inverse)
        assert (str(exc.value), exc.value.witness) == (message, ())


def test_the_first_stray_key_of_an_order_16_table_is_named():
    """Strays at the front, middle and end of a caller's 4,096 brackets or 256 products, as the oracles name them."""
    elems, table = zmod_table(16)
    _, op, _, inverse = group_model_args(*zmod(16))
    heap_strays = [("3", "4", "99"), ("3", "4"), "345", ("3", "4", "5", "6"), ("16", "0", "0")]
    op_strays = [("3", "99"), ("3",), "34", ("3", "4", "5"), ("16", "0")]

    def inserted(items, at, *keys):
        return dict(items[:at] + [(key, "0") for key in keys] + items[at:])

    for items, strays in ((list(table.items()), heap_strays), (list(op.items()), op_strays)):
        for at, stray in itertools.product((0, len(items) // 2, len(items)), strays):
            broken = inserted(items, at, stray, strays[(strays.index(stray) + 1) % len(strays)])
            message = f"has a stray entry at {stray!r}"
            if strays is heap_strays:
                assert heap_axiom_failure(elems, broken) == ("stray", stray)
                with pytest.raises(HeapAxiomError, match=f"^ternary table {re.escape(message)}$"):
                    FiniteHeapModel(carrier=elems, ternary=broken)
            else:
                assert group_axiom_failure(elems, broken, "0", inverse) == (f"operation table {message}", ())
                with pytest.raises(GroupAxiomError, match=f"^operation table {re.escape(message)}$"):
                    GroupModel(carrier=elems, op=broken, identity="0", inverse=inverse)
    items = list(inverse.items())
    for at in (0, 8, 16):
        broken = inserted(items, at, "16", ("3",))
        assert group_axiom_failure(elems, op, "0", broken) == ("inverse table has a stray entry at '16'", ())
        with pytest.raises(GroupAxiomError, match="^inverse table has a stray entry at '16'$"):
            GroupModel(carrier=elems, op=op, identity="0", inverse=broken)


def test_an_inverse_gap_is_named_before_a_product_gap_in_its_row_and_after_one_in_an_earlier_row():
    elems, op, _, inverse = group_model_args(*zmod(16))
    for inverse_gap, op_gap, message in (("3", ("3", "5"), "inverse table not total at '3'"),
                                         ("3", ("3", "0"), "inverse table not total at '3'"),
                                         ("4", ("3", "15"), "operation table not total at ('3', '15')"),
                                         ("0", ("15", "15"), "inverse table not total at '0'")):
        broken_op, broken_inverse = dict(op), dict(inverse)
        del broken_op[op_gap], broken_inverse[inverse_gap]
        assert group_axiom_failure(elems, broken_op, "0", broken_inverse) == (message, ())
        with pytest.raises(GroupAxiomError, match=f"^{re.escape(message)}$"):
            GroupModel(carrier=elems, op=broken_op, identity="0", inverse=broken_inverse)


def test_a_model_validated_from_a_callers_table_keeps_no_copy_of_it():
    """At order 64 a model keeps its index tables only: well under 1 MiB beside the caller's 262,144 brackets."""
    h = heap_from_group(cyclic_group(64))
    table = dict(h.ternary)
    _, op, _, inverse = group_model_args(*zmod(64))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        heap, group = FiniteHeapModel(h.carrier, table), GroupModel(h.carrier, op, "0", inverse)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2**20, retained
    assert type(heap.ternary) is type(group.op) is type(group.inverse) is _IndexView
    assert heap == h and group == cyclic_group(64)


def group_model_args(elems, mul, inv):
    """(carrier, op, identity, inverse) of a group given by callables, identity first."""
    op = {(a, b): mul(a, b) for a in elems for b in elems}
    return elems, op, elems[0], {a: inv(a) for a in elems}


NONASSOCIATIVE_LOOP = (
    tuple("01234"),
    {
        (str(a), str(b)): row[b]
        for a, row in enumerate(["01234", "10342", "24013", "32401", "43120"])
        for b in range(5)
    },
    "0",
    {str(a): str(a) for a in range(5)},
)
GROUP_ARGS = [group_model_args(*g) for g in SMALL_GROUPS]


@st.composite
def shuffled_groups(draw):
    carrier, op, identity, inverse = draw(st.sampled_from(GROUP_ARGS))
    return tuple(draw(st.permutations(carrier))), op, identity, inverse


@st.composite
def perturbed_groups(draw):
    """One entry changed: a product, an inverse (to a label, an outsider or nothing), the identity (to a label
    or an outsider), or the carrier (a label repeated, or none left)."""
    carrier, op, identity, inverse = draw(shuffled_groups())
    op, inverse = dict(op), dict(inverse)
    kind = draw(st.sampled_from(["op", "inverse", "identity", "repeat", "empty"]))
    if kind == "identity":
        return carrier, op, draw(st.sampled_from(carrier + ("?",))), inverse
    if kind == "repeat":
        return carrier + (draw(st.sampled_from(carrier)),), op, identity, inverse
    if kind == "empty":
        return (), op, identity, inverse
    table = op if kind == "op" else inverse
    key = draw(st.sampled_from(sorted(table)))
    value = draw(st.sampled_from(carrier + ("?", None)))
    if value is None:
        del table[key]
    else:
        table[key] = value
    return carrier, op, identity, inverse


@st.composite
def unital_tables(draw):
    """Random tables of order <= 5 with identity 'a' and an inverse for each element."""
    elems = tuple("abcde"[: draw(st.integers(min_value=1, max_value=5))])
    inverse = {"a": "a", **{x: draw(st.sampled_from(elems[1:])) for x in elems[1:]}}
    op = {}
    for x, y in itertools.product(elems, repeat=2):
        if "a" in (x, y):
            op[(x, y)] = y if x == "a" else x
        else:
            op[(x, y)] = "a" if y == inverse[x] else draw(st.sampled_from(elems))
    return tuple(draw(st.permutations(elems))), op, "a", inverse


@st.composite
def shuffled_loop(draw):
    carrier, op, identity, inverse = NONASSOCIATIVE_LOOP
    return tuple(draw(st.permutations(carrier))), op, identity, inverse


def group_witness_fails(op, identity, inverse, exc):
    """The rejection's witness fails the law its message names."""
    w, message = exc.witness, str(exc)
    if message == "identity law fails":
        (a,) = w
        return op[(identity, a)] != a or op[(a, identity)] != a
    if message == "inverse law fails":
        (a,) = w
        return op[(a, inverse[a])] != identity
    if message == "associativity fails":
        a, b, c = w
        return op[(op[(a, b)], c)] != op[(a, op[(b, c)])]
    return w == ()


def check_group_against_oracle(carrier, op, identity, inverse):
    """GroupModel accepts exactly when the exhaustive search finds nothing.

    Rejections carry the oracle's message and witness, except that the
    associativity witness may be any failing triple.
    """
    failure = group_axiom_failure(carrier, op, identity, inverse)
    try:
        GroupModel(carrier=carrier, op=op, identity=identity, inverse=inverse)
    except GroupAxiomError as exc:
        assert failure is not None, f"valid group rejected: {exc}"
        assert group_witness_fails(op, identity, inverse, exc), exc
        if failure[0] == "associativity fails":
            assert str(exc) == failure[0]
        else:
            assert (str(exc), exc.witness) == failure
    else:
        assert failure is None, f"invalid group accepted: {failure}"


@settings(max_examples=500, deadline=None)
@given(st.one_of(shuffled_groups(), perturbed_groups(), unital_tables(), shuffled_loop()))
def test_group_validation_agrees_with_exhaustive_search(case):
    check_group_against_oracle(*case)


@settings(max_examples=100, deadline=None)
@given(shuffled_groups())
def test_heap_from_group_equals_the_validated_heap(case):
    # heap_from_group skips validation; the table built here from the group's
    # own op and inverse must pass FiniteHeapModel and give the same value
    carrier, op, identity, inverse = case
    h = heap_from_group(GroupModel(carrier=carrier, op=op, identity=identity, inverse=inverse))
    table = {(a, b, c): op[(op[(a, inverse[b])], c)] for a, b, c in itertools.product(carrier, repeat=3)}
    assert h == FiniteHeapModel(carrier=carrier, ternary=table)
    assert h.carrier == carrier
    key = (carrier[0],) * 3
    with pytest.raises(TypeError):
        h.ternary[key] = carrier[-1]
    assert h.ternary[key] == carrier[0]


@settings(max_examples=100, deadline=None)
@given(group_heaps())
def test_retracts_equal_the_validated_group_at_every_basepoint(case):
    # retract_group skips validation; GroupModel validates the same tables
    elems, table = case
    h = FiniteHeapModel(carrier=elems, ternary=table)
    for e in elems:
        op = {(a, b): table[(a, e, b)] for a, b in itertools.product(elems, repeat=2)}
        inverse = {a: table[(e, a, e)] for a in elems}
        g = retract_group(h, e)
        assert g == GroupModel(carrier=elems, op=op, identity=e, inverse=inverse)
        assert list(g.op) == list(op) and list(g.inverse) == list(inverse)
        with pytest.raises(TypeError):
            g.op[(e, e)] = e


def first_heap_failure(carrier, table):
    """(message, witness) of FiniteHeapModel's rejection by brute force: the retract
    at carrier[0] by exhaustive search, then [a,b,c] = a*b^-1*c in product order."""
    e = carrier[0]
    op = {(a, b): table[(a, e, b)] for a, b in itertools.product(carrier, repeat=2)}
    inverse = {a: table[(e, a, e)] for a in carrier}
    failure = group_axiom_failure(carrier, op, e, inverse)
    if failure is not None:
        return f"retract at {e!r}: {failure[0]}", failure[1]
    for a, b, c in itertools.product(carrier, repeat=3):
        if table[(a, b, c)] != op[(op[(a, inverse[b])], c)]:
            return f"[a,b,c] != a*b^-1*c at base {e!r}", (a, b, c)
    return None


@pytest.mark.parametrize("moduli", [(16,), (2, 8)])
def test_order_16_perturbations_fail_where_a_brute_force_scan_fails(moduli):
    elems, mul, inv = zmod_product(*moduli)
    rng = random.Random(16)
    for carrier in (elems, tuple(rng.sample(elems, len(elems)))):
        table = group_heap_table(carrier, mul, inv)
        e = carrier[0]
        keys = (
            [(a, e, b) for a, b in itertools.product(carrier, repeat=2)]  # retract products
            + [(e, a, e) for a in carrier]  # retract inverses
            + sorted(table)
        )
        kinds = set()
        for key in rng.sample(keys[: len(carrier) ** 2], 12) + rng.sample(keys[len(carrier) ** 2:], 28):
            changed = {**table, key: rng.choice([x for x in carrier if x != table[key]])}
            message, witness = first_heap_failure(carrier, changed)
            with pytest.raises(HeapAxiomError) as exc:
                FiniteHeapModel(carrier=carrier, ternary=changed)
            assert str(exc.value) == message
            if message.endswith("associativity fails"):  # Light's test may name another failing triple
                assert witness_is_genuine(changed, e, exc.value)
            else:
                assert exc.value.witness == witness
            kinds.add(message.split(": ")[-1].split(" at ")[0])
        assert {"identity law fails", "[a,b,c] != a*b^-1*c"} <= kinds


@pytest.mark.parametrize("group", [cyclic_group(16), cyclic_group(64)], ids=["order16", "order64"])
def test_heaps_rebuilt_from_their_tables_are_equal(group):
    h = heap_from_group(group)
    rebuilt = FiniteHeapModel(h.carrier, dict(h.ternary))
    assert rebuilt == h
    assert retract_group(rebuilt, "5") == retract_group(h, "5")


def test_small_groups_and_the_loop_are_classified():
    for carrier, op, identity, inverse in GROUP_ARGS:
        assert group_axiom_failure(carrier, op, identity, inverse) is None
        GroupModel(carrier=carrier, op=op, identity=identity, inverse=inverse)
    assert group_axiom_failure(*NONASSOCIATIVE_LOOP)[0] == "associativity fails"
    with pytest.raises(GroupAxiomError, match="associativity fails"):
        GroupModel(*NONASSOCIATIVE_LOOP)


def test_associativity_failure_outside_the_first_generated_subgroup():
    """{a, b} is a subgroup that passes Light's test; only the next generator, c, fails it."""
    rows = {"a": "abc", "b": "bac", "c": "cca"}
    op = {(x, y): rows[x]["abc".index(y)] for x in "abc" for y in "abc"}
    inverse = {x: x for x in "abc"}
    with pytest.raises(GroupAxiomError, match="associativity fails") as exc:
        GroupModel(carrier=("a", "b", "c"), op=op, identity="a", inverse=inverse)
    assert exc.value.witness[1] == "c"
    assert group_witness_fails(op, "a", inverse, exc.value)


def test_every_single_product_change_of_d4_and_s3_is_rejected():
    for elems, mul, inv in (d4(), s3()):
        carrier, op, identity, inverse = group_model_args(elems, mul, inv)
        for order in (carrier, carrier[::-1]):
            for key, right in op.items():
                for wrong in carrier:
                    if wrong != right:
                        changed = {**op, key: wrong}
                        assert group_axiom_failure(order, changed, identity, inverse) is not None
                        check_group_against_oracle(order, changed, identity, inverse)


def elementary_abelian_256():
    """(Z/2)^8 as 8-bit strings under xor: Light's test needs all eight generators."""
    elems = tuple(format(i, "08b") for i in range(256))
    op = {(a, b): format(int(a, 2) ^ int(b, 2), "08b") for a in elems for b in elems}
    return elems, op, elems[0], {a: a for a in elems}


@pytest.mark.parametrize("make", [lambda: group_model_args(*zmod(256)), elementary_abelian_256])
def test_order_256_groups_validate_and_reject_one_changed_product(make):
    carrier, op, identity, inverse = make()
    group = GroupModel(carrier=carrier, op=op, identity=identity, inverse=inverse)
    assert len(group.op) == 256**2
    key = (carrier[-1], carrier[-2])
    changed = {**op, key: identity}  # still unital with inverses: only associativity breaks
    with pytest.raises(GroupAxiomError, match="associativity fails") as exc:
        GroupModel(carrier=carrier, op=changed, identity=identity, inverse=inverse)
    assert group_witness_fails(changed, identity, inverse, exc.value)

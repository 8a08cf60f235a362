import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k0heap.heaps import (
    FiniteHeapModel,
    GroupAxiomError,
    GroupModel,
    HeapAxiomError,
    check_heap_morphism,
    cyclic_group,
    heap_from_group,
    klein_four_group,
    retract_group,
)
from oracles import find_isomorphism, heap_axiom_failure, triple_morphism_failure


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
# The retract-based validators against the exhaustive oracles: heaps of
# Z/n (n <= 6), Klein four and S3, single-entry perturbations of them, and
# random tables of order <= 3.


def group_heap_table(elems, mul, inv):
    """[a,b,c] = a * b^-1 * c from plain Python callables."""
    return {(a, b, c): mul(mul(a, inv(b)), c) for a, b, c in itertools.product(elems, repeat=3)}


def zmod_table(n):
    elems = tuple(str(i) for i in range(n))
    return elems, group_heap_table(
        elems, lambda x, y: str((int(x) + int(y)) % n), lambda x: str(-int(x) % n)
    )


def klein_table():
    elems = ("00", "01", "10", "11")
    return elems, group_heap_table(
        elems, lambda x, y: f"{int(x[0]) ^ int(y[0])}{int(x[1]) ^ int(y[1])}", lambda x: x
    )


def s3_table():
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

    return tuple(label[p] for p in perms), group_heap_table(tuple(label.values()), mul, inv)


GROUP_HEAPS = [zmod_table(n) for n in range(1, 7)] + [klein_table(), s3_table()]


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


@st.composite
def heap_maps(draw):
    """A map between two small group heaps: random, constant, or an affine morphism."""
    kind = draw(st.sampled_from(["random", "constant", "affine"]))
    src_elems, src_table = draw(st.sampled_from(GROUP_HEAPS))
    dst_elems, dst_table = (
        (src_elems, src_table) if kind == "affine" else draw(st.sampled_from(GROUP_HEAPS))
    )
    if kind == "constant":
        c = draw(st.sampled_from(dst_elems))
        mapping = {x: c for x in src_elems}
    elif kind == "affine":
        # x -> [g, e, [x, e, h]] = g*x*h is a heap automorphism of any group heap
        e = src_elems[0]
        g, h = draw(st.sampled_from(src_elems)), draw(st.sampled_from(src_elems))
        mapping = {x: src_table[(g, e, src_table[(x, e, h)])] for x in src_elems}
    else:
        mapping = {x: draw(st.sampled_from(dst_elems)) for x in src_elems}
    base = draw(st.none() | st.sampled_from(src_elems))
    source = FiniteHeapModel(carrier=tuple(draw(st.permutations(src_elems))), ternary=src_table)
    target = FiniteHeapModel(carrier=dst_elems, ternary=dst_table)
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


def test_morphism_rejects_unknown_base():
    h = mod_heap(2)
    with pytest.raises(ValueError):
        check_heap_morphism({"0": "0", "1": "1"}, h, h, base="7")

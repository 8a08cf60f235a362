"""Acceptance suite: one test per criterion, each printing a pass line.

Randomized criteria use fixed seeds so the suite is reproducible; stated
runtime budgets are asserted with a wall-clock check.
"""

import itertools
import random
import time

from k0heap.category import (
    compare_projection,
    k0_group,
    k0_presentation,
    split_presentation,
    truss_table,
)
from k0heap.cli import run_cli
from k0heap.dsl import SpecSource, parse_spec, print_spec
from k0heap.heaps import (
    FreeHeapWord,
    cyclic_group,
    heap_from_group,
    klein_four_group,
    reduce_word,
    retract_group,
    ternary,
)
from k0heap.instances import (
    CWComplexSpec,
    FiniteSetSpan,
    bounded_abelian_groups_file,
    cw_class,
    cw_word,
    finite_sets_spec,
    set_label,
    set_pushout,
    swindle_spec,
    vect_spec,
)
from k0heap.lattice import IntMatrix, hnf, snf
from k0heap.presentation import (
    AffineWord,
    normalize_affine,
    retract_group_structure,
    truss_from_table,
    word_equal,
)
from oracles import (
    det_cofactor,
    find_isomorphism,
    free_reduce_letters,
    matmul,
    random_odd_word,
    snf_oracle,
)

ALPHABET = ("a", "b", "c", "d", "e")


def _report(number, label):
    print(f"criterion {number:02d} PASS - {label}")


def test_criterion_01_heap_axiom_property_suite():
    start = time.monotonic()
    rng = random.Random(101)
    words = [FreeHeapWord(random_odd_word(rng, ALPHABET, 21)) for _ in range(1000)]
    for i, w in enumerate(words):
        a = words[i]
        b = words[(i + 1) % 1000]
        c = words[(i + 2) % 1000]
        d = words[(i + 3) % 1000]
        e = words[(i + 4) % 1000]
        assert ternary(a, b, ternary(c, d, e)) == ternary(ternary(a, b, c), d, e)
        assert ternary(w, w, b) == reduce_word(b)
        assert ternary(b, w, w) == reduce_word(b)
        r = reduce_word(w)
        assert reduce_word(r) == r
    for length in (1, 3, 5, 7):
        for letters in itertools.product("xyz", repeat=length):
            assert reduce_word(FreeHeapWord(letters)).letters == free_reduce_letters(letters)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    _report(1, "free-word axioms, reduction idempotence, free-group oracle")


def test_criterion_02_retract_round_trip():
    start = time.monotonic()
    groups = [cyclic_group(n) for n in range(1, 13)] + [klein_four_group()]
    for g in groups:
        h = heap_from_group(g)
        assert retract_group(h, g.identity) == g
        for e in g.carrier:
            other = retract_group(h, e)
            assert find_isomorphism(other, g) is not None
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s"
    _report(2, "heap/group round trip and isomorphic retracts at every basepoint")


def test_criterion_03_finite_sets_give_integers():
    start = time.monotonic()
    gs = k0_group(finite_sets_spec(8), "empty")
    assert gs.invariants.rank == 1
    assert gs.invariants.torsion == ()
    unit = gs.class_coordinates(AffineWord.generator("1"))[0]
    assert unit in (1, -1)
    for n in range(9):
        coords = gs.class_coordinates(AffineWord.generator(set_label(n)))
        assert coords[0] * unit == n
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f}s"
    _report(3, "K0 of bounded finite sets is Z with cardinality coordinates")


def test_criterion_04_truss_on_finite_sets():
    spec = finite_sets_spec(8)
    p = k0_presentation(spec)
    check = truss_from_table(p, truss_table(spec))
    assert check.ok
    assert check.unit_law == "ok"
    gs = retract_group_structure(p, "empty")
    unit = gs.class_coordinates(AffineWord.generator("1"))[0]
    for m in range(9):
        for n in range(9):
            if m * n > 8:
                continue
            product = check.truss.product(
                AffineWord.generator(set_label(m)), AffineWord.generator(set_label(n))
            )
            assert gs.class_coordinates(product)[0] * unit == m * n
    _report(4, "cartesian product passes the ideal check and multiplies cardinalities")


def test_criterion_05_vector_spaces():
    v = vect_spec(8)
    gs = k0_group(v, "0")
    assert gs.invariants.rank == 1 and gs.invariants.torsion == ()
    report = compare_projection(split_presentation(v), k0_presentation(v))
    assert report.contained and report.equal
    _report(5, "vector spaces: split and full lattices agree, group is Z")


def test_criterion_06_eilenberg_swindle():
    sw = swindle_spec(6)
    p = k0_presentation(sw)
    zero = AffineWord.generator("0")
    for n in range(7):
        assert word_equal(p, AffineWord.generator(str(n)), zero)
    gs = k0_group(sw, "0")
    assert gs.invariants.is_trivial
    for n in range(7):
        assert gs.class_coordinates(AffineWord.generator(str(n))) == ()
    _report(6, "absorbing object collapses every bounded class to the zero class")


def test_criterion_07_torsion_annihilation():
    z = bounded_abelian_groups_file()
    full = k0_presentation(z)
    split = split_presentation(z)
    gs_full = k0_group(z, "0")
    assert gs_full.invariants.rank == 1 and gs_full.invariants.torsion == ()
    report = compare_projection(split, full)
    assert report.contained and not report.equal
    torsion_class = AffineWord.generator("Z/2")
    assert not any(gs_full.class_coordinates(torsion_class))
    gs_split = retract_group_structure(split, "0")
    assert any(gs_split.class_coordinates(torsion_class))
    _report(7, "short exact sequences kill torsion that direct sums keep")


def test_criterion_08_cw_words_expand_to_classes():
    start = time.monotonic()
    checked = 0
    for n in range(5):
        for tail in itertools.product(range(4), repeat=n):
            for m0 in (1, 2, 3):
                spec = CWComplexSpec((m0,) + tail)
                for convention in ("same-index", "boundary"):
                    assert normalize_affine(cw_word(spec, convention)) == cw_class(
                        spec, convention
                    )
                    checked += 1
    assert checked == 2 * 3 * (1 + 4 + 16 + 64 + 256)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 8 took {elapsed:.2f}s"
    _report(8, "iterated cell brackets normalize to the expanded classes")


def test_criterion_09_snf_oracle_agreement():
    rng = random.Random(909)
    for _ in range(200):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        m = IntMatrix.from_rows(rows)
        h, u = hnf(m)
        assert matmul(u.to_rows(), m.to_rows()) == h.to_rows()
        assert abs(det_cofactor(u.to_rows())) == 1
        oracle_rank, oracle_torsion = snf_oracle(rows)
        factors = snf(m)
        assert factors.rank == 4 - oracle_rank
        assert factors.torsion == oracle_torsion
    _report(9, "SNF matches the determinant-divisor oracle, HNF transforms unimodular")


def test_criterion_10_pushout_size_formula():
    for a in range(5):
        for b in range(a + 1):
            for c in range(5):
                if b > 0 and c == 0:
                    continue
                for injection in itertools.permutations(range(a), b):
                    for attach in itertools.product(range(c), repeat=b):
                        span = FiniteSetSpan(
                            size_a=a, size_b=b, size_c=c,
                            injection=injection, attach=attach,
                        )
                        assert set_pushout(span).size == a - b + c
    _report(10, "union-find pushout sizes match |A| - |B| + |C| exhaustively")


def test_criterion_11_parser_and_golden_files(data_dir, capsys):
    valid = sorted((data_dir / "valid").glob("*.cat"))
    malformed = sorted((data_dir / "malformed").glob("*.cat"))
    assert len(valid) >= 10 and len(malformed) >= 10
    for path in valid:
        first = parse_spec(SpecSource(path.read_text(), path.name)).spec
        assert first is not None
        printed = print_spec(first)
        again = parse_spec(SpecSource(printed, path.name)).spec
        assert again == first
        assert print_spec(again) == printed
    for path in malformed:
        result = parse_spec(SpecSource(path.read_text(), path.name))
        assert result.spec is None
        assert all(d.line >= 1 and d.column >= 1 for d in result.diagnostics)
    golden = {
        "group_set3.txt": ["group", str(data_dir / "valid" / "set3.cat"),
                           "--base", "empty", "--format", "structured"],
        "project_zmod.txt": ["project", str(data_dir / "valid" / "zmod.cat"),
                             "--format", "structured"],
        "truss_set3.txt": ["truss-check", str(data_dir / "valid" / "set3.cat"),
                           "--format", "structured"],
    }
    for name, argv in golden.items():
        assert run_cli(argv) == 0
        once = capsys.readouterr().out
        assert run_cli(argv) == 0
        twice = capsys.readouterr().out
        assert once == twice
        assert once == (data_dir / "golden" / name).read_text()
    _report(11, "parser round trips, positioned diagnostics, byte-stable goldens")

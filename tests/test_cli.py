import contextlib
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import k0heap
from k0heap.cli import run_cli
from k0heap.dsl import SpecSource, parse_spec, print_spec
from k0heap.instances import finite_sets_spec

GOLDEN_CASES = {
    "group_set3.txt": ["group", "{valid}/set3.cat", "--base", "empty", "--format", "structured"],
    "present_torsion.txt": ["present", "{valid}/torsion.cat", "--format", "structured"],
    "project_zmod.txt": ["project", "{valid}/zmod.cat", "--format", "structured"],
    "truss_set3.txt": ["truss-check", "{valid}/set3.cat", "--format", "structured"],
    "equal_set3.txt": ["equal", "{valid}/set3.cat", "[2,1,2]", "3", "--format", "structured"],
    "reduce_word.txt": ["reduce", "[a,[b,c,d],e]", "--format", "structured"],
    "demo_cw.txt": ["demo", "cw", "{data}/cw_example.txt", "--format", "structured"],
    "demo_set2.txt": ["demo", "set", "2"],
    "present_set8.txt": ["present", "{valid}/set8.cat", "--format", "structured"],
    "project_vect8.txt": ["project", "{valid}/vect8.cat", "--format", "structured"],
    "truss_swindle8.txt": ["truss-check", "{valid}/swindle8.cat", "--format", "structured"],
}


def fill(argv, data_dir):
    return [
        a.replace("{valid}", str(data_dir / "valid")).replace("{data}", str(data_dir))
        for a in argv
    ]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_outputs_are_byte_stable(name, data_dir, capsys):
    argv = fill(GOLDEN_CASES[name], data_dir)
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert run_cli(argv) == 0
    second = capsys.readouterr().out
    assert first == second, "output is not stable across runs"
    expected = (data_dir / "golden" / name).read_text()
    assert first == expected, f"golden mismatch for {name}"


def test_snf_golden(data_dir, monkeypatch, capsys):
    for _ in range(2):
        monkeypatch.setattr(sys, "stdin", io.StringIO("2 4\n6 8\n"))
        assert run_cli(["snf", "--format", "structured"]) == 0
    out = capsys.readouterr().out
    half = len(out) // 2
    assert out[:half] == out[half:]
    assert out[:half] == (data_dir / "golden" / "snf_matrix.txt").read_text()


def test_snf_rejects_ragged_input(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n3\n"))
    assert run_cli(["snf"]) == 2
    assert capsys.readouterr().err == "error: stdin:2: expected 2 entries, got 1\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO("# two columns\n1 2\n\n3 4\n5 6 7\n8\n"))
    assert run_cli(["snf"]) == 2  # the first row whose length differs from the first row's, by its line
    assert capsys.readouterr().err == "error: stdin:5: expected 2 entries, got 3\n"


def test_snf_names_an_entry_past_the_integer_digit_limit(monkeypatch, capsys):
    limit = sys.get_int_max_str_digits()
    for line in ("1 " + "7" * (limit + 1), "-" + "9" * (limit + 1), "1_" + "0" * (limit + 1)):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n" + line + "\n"))
        assert run_cli(["snf"]) == 2
        assert capsys.readouterr().err == f"error: stdin:2: matrix entry longer than {limit} digits\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 " + "7" * limit + "\n"))  # at the limit it is an entry
    assert run_cli(["snf"]) == 0
    assert capsys.readouterr().out == "rank 1\ntorsion none\n"


def test_snf_refuses_more_than_100_rows_or_columns(monkeypatch, capsys):
    """The Smith elimination of a 120 x 120 matrix of small entries already takes seconds; 100 x 100 is the bound."""
    message = "error: stdin:{}: a matrix has at most 100 rows and 100 columns\n"
    for text, line in (("1\n" * 101, 101), ("# wide\n" + " ".join(["1"] * 101) + "\n", 2)):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run_cli(["snf"]) == 2
        assert capsys.readouterr().err == message.format(line)
    monkeypatch.setattr(sys, "stdin", io.StringIO(("1 " * 100 + "\n") * 100))  # at the bound it is a matrix
    assert run_cli(["snf"]) == 0
    assert capsys.readouterr().out == "rank 99\ntorsion none\n"  # the cokernel of a rank-1 matrix on 100 columns


def test_snf_lines_end_at_lf_crlf_or_cr_only(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("2 0\x0c\r\n0 3\x85\r\u2028\n"))
    assert run_cli(["snf"]) == 0
    assert capsys.readouterr().out == "rank 0\ntorsion 6\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO("2 0\x85\n0 3\x0c\n1 x\u2028 4\n"))
    assert run_cli(["snf"]) == 2
    assert capsys.readouterr().err == "error: stdin:3: matrix entries must be integers\n"


def test_reduce_human_output(capsys):
    assert run_cli(["reduce", "[x,x,y]"]) == 0
    assert capsys.readouterr().out == "y\n"


def test_reduce_rejects_even_bracket(capsys):
    assert run_cli(["reduce", "[x,y]"]) == 2
    assert "odd arity" in capsys.readouterr().err


DEEP = 5000


def test_reduce_deeply_nested_word(capsys):
    deep = "[" * DEEP + "a" + ",b,c]" * DEEP
    assert run_cli(["reduce", deep]) == 0
    assert capsys.readouterr().out == "[" + ",".join(["a"] + ["b", "c"] * DEEP) + "]\n"


def test_equal_deeply_nested_words(data_dir, capsys):
    path = str(data_dir / "valid" / "set3.cat")
    plus_n = "[" * DEEP + "empty" + ",1,2]" * DEEP
    also_plus_n = "[" * DEEP + "empty" + ",2,3]" * DEEP
    plus_2n = "[" * DEEP + "empty" + ",1,3]" * DEEP
    assert run_cli(["equal", path, plus_n, also_plus_n]) == 0
    assert "equal true" in capsys.readouterr().out
    assert run_cli(["equal", path, plus_n, plus_2n]) == 0
    assert "equal false" in capsys.readouterr().out


def test_deep_unclosed_bracket_reports_its_column(capsys):
    deep = "[a,b," + "[" * DEEP + "a" + ",b,c]" * (DEEP - 1)
    assert run_cli(["reduce", deep]) == 2
    assert "column 6: unclosed bracket" in capsys.readouterr().err


def test_group_human_output(data_dir, capsys):
    path = str(data_dir / "valid" / "set3.cat")
    assert run_cli(["group", path, "--base", "empty"]) == 0
    out = capsys.readouterr().out
    assert "rank 1" in out
    assert "torsion none" in out


def test_group_unknown_base_is_input_error(data_dir, capsys):
    path = str(data_dir / "valid" / "set3.cat")
    assert run_cli(["group", path, "--base", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


def test_parse_errors_exit_2_with_positions(data_dir, capsys):
    path = str(data_dir / "malformed" / "dup_object.cat")
    assert run_cli(["present", path]) == 2
    err = capsys.readouterr().err
    assert "dup_object.cat:2:8: error:" in err


def test_equal_false_still_succeeds(data_dir, capsys):
    path = str(data_dir / "valid" / "free2.cat")
    assert run_cli(["equal", path, "P", "Q"]) == 0
    assert "equal false" in capsys.readouterr().out


def test_equal_unknown_label_is_input_error(data_dir, capsys):
    path = str(data_dir / "valid" / "free2.cat")
    assert run_cli(["equal", path, "P", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


EQUAL_WITH_A_CANCELLED_LABEL = """
import sys
from k0heap.cli import run_cli
assert run_cli(["equal", sys.argv[1], sys.argv[2], sys.argv[3]]) == 2
assert "k0heap.heaps" not in sys.modules
"""


@pytest.mark.parametrize("words", [("[bogus,bogus,1]", "1"), ("1", "[2,[bogus,3,3],bogus]")])
def test_equal_checks_a_label_that_cancels_out_of_its_word(data_dir, words):
    path = str(data_dir / "valid" / "set3.cat")
    proc = run_module("-c", EQUAL_WITH_A_CANCELLED_LABEL, path, *words, module=None)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "error: unknown generator 'bogus'\n" and proc.stdout == ""


def test_a_spec_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    spec = tmp_path / "latin1.cat"
    spec.write_bytes(b"object caf\xe9\n")
    assert run_cli(["present", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9") and err.count("\n") == 1


def test_truss_violation_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cat"
    bad.write_text(
        "object x\nobject y\nobject z\n"
        "pushout y -> x [mono], y -> z [mono] => x\n"
        "product x * x = x\nproduct x * y = y\nproduct x * z = x\n"
        "product y * x = x\nproduct y * y = x\nproduct y * z = x\n"
        "product z * x = x\nproduct z * y = x\nproduct z * z = x\n"
    )
    code = run_cli(["truss-check", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "ideal violated" in out
    assert "witness" in out


def test_truss_check_without_products_is_input_error(data_dir, capsys):
    path = str(data_dir / "valid" / "free2.cat")
    assert run_cli(["truss-check", path]) == 2


def test_project_vect_reports_isomorphism(tmp_path, capsys):
    spec = tmp_path / "vect3.cat"
    assert run_cli(["demo", "vect", "3"]) == 0
    spec.write_text(capsys.readouterr().out)
    assert run_cli(["project", str(spec)]) == 0
    assert "classification isomorphism" in capsys.readouterr().out


def test_demo_outputs_reparse(data_dir, capsys):
    for argv in (["demo", "set", "3"], ["demo", "vect", "2"], ["demo", "swindle", "2"],
                 ["demo", "zmod"]):
        assert run_cli(argv) == 0
        text = capsys.readouterr().out
        result = parse_spec(SpecSource(text=text, name="demo"))
        assert result.spec is not None


def test_demo_set_matches_generator(capsys):
    assert run_cli(["demo", "set", "3"]) == 0
    text = capsys.readouterr().out
    assert parse_spec(SpecSource(text=text)).spec == finite_sets_spec(3)


def test_demo_requires_argument(capsys):
    assert run_cli(["demo", "set"]) == 2
    assert run_cli(["demo", "cw"]) == 2
    capsys.readouterr()


def test_demo_bound_beyond_the_maximum_is_input_error(capsys):
    for kind in ("set", "vect", "swindle"):
        assert run_cli(["demo", kind, str(10**9)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bound must be between 1 and" in captured.err


def test_demo_cw_names_the_line_where_the_cell_total_passes_the_limit(tmp_path, capsys):
    # a ten-byte count must not build a word of a billion cells: the total is capped, not the file size
    for text, lineno, total in (("1000000000\n3\n", 1, 10**9), ("# cells\n60000\n\n40000\n1\n0\n", 5, 100_001)):
        path = tmp_path / "cells.txt"
        path.write_text(text)
        assert run_cli(["demo", "cw", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: line {lineno}: at most 100000 cells in total, got {total} so far\n"


def test_demo_cw_boundary_convention(data_dir, capsys):
    path = str(data_dir / "cw_example.txt")
    assert run_cli(["demo", "cw", path, "--convention", "boundary"]) == 0
    out = capsys.readouterr().out
    assert "S0" in out


def test_morphism_command(tmp_path, capsys):
    src = tmp_path / "set3.cat"
    dst = tmp_path / "set5.cat"
    for path, n in ((src, 3), (dst, 5)):
        assert run_cli(["demo", "set", str(n)]) == 0
        path.write_text(capsys.readouterr().out)
    mapfile = tmp_path / "incl.map"
    mapfile.write_text("# inclusion\nempty => empty\n1 => 1\n2 => 2\n3 => 3\n")
    assert run_cli(["morphism", str(src), str(dst), str(mapfile)]) == 0
    out = capsys.readouterr().out
    assert "heap-morphism true" in out
    assert "truss-morphism true" in out


def test_morphism_failure_exits_1(tmp_path, capsys):
    src = tmp_path / "src.cat"
    src.write_text(
        "object X\nobject Y\nobject Z\nobject W\n"
        "pushout Y -> X [mono], Y -> Z => W\n"
    )
    dst = tmp_path / "dst.cat"
    dst.write_text("object X\nobject Y\nobject Z\nobject W\n")
    mapfile = tmp_path / "id.map"
    mapfile.write_text("X => X\nY => Y\nZ => Z\nW => W\n")
    assert run_cli(["morphism", str(src), str(dst), str(mapfile)]) == 1
    out = capsys.readouterr().out
    assert "heap-morphism false" in out
    assert "witness" in out


def test_bad_map_file_exits_2(tmp_path, capsys):
    src = tmp_path / "a.cat"
    src.write_text("object A\n")
    mapfile = tmp_path / "bad.map"
    mapfile.write_text("A -> A\n")
    assert run_cli(["morphism", str(src), str(src), str(mapfile)]) == 2
    capsys.readouterr()


def test_map_file_lines_end_at_lf_crlf_or_cr_only(tmp_path, capsys):
    src = tmp_path / "a.cat"
    src.write_text("object A\nobject B\nobject C\n")
    mapfile = tmp_path / "odd.map"
    mapfile.write_text("A => A\x0c\nB => B\x85\nC\u2028=> C D\n", encoding="utf-8")
    assert run_cli(["morphism", str(src), str(src), str(mapfile)]) == 2
    assert capsys.readouterr().err == f"error: {mapfile}:3: expected 'SRC => DST'\n"
    mapfile.write_text("A => A\x0c\nB => B\x85\nC\u2028=> C\n", encoding="utf-8")
    assert run_cli(["morphism", str(src), str(src), str(mapfile)]) == 0
    assert "heap-morphism true" in capsys.readouterr().out


def test_usage_error_exit_code():
    assert run_cli([]) == 2
    assert run_cli(["not-a-command"]) == 2


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    capsys.readouterr()


def source_env():
    """The environment with this checkout's sources first on ``PYTHONPATH``."""
    src = str(Path(k0heap.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def run_module(*argv, module="k0heap.cli"):
    """Run ``python -m MODULE`` (``python ARGS`` when ``module`` is None) on this checkout's sources."""
    return subprocess.run(
        [sys.executable, *(["-m", module] if module else []), *argv],
        capture_output=True, text=True, env=source_env(), timeout=120,
    )


def test_module_entry_point_runs_the_cli(data_dir):
    bad = data_dir / "malformed" / "dup_object.cat"
    proc = run_module("present", str(bad))
    assert proc.returncode == 2
    assert f"{bad}:2:8: error: duplicate object 'A'" in proc.stderr
    assert proc.stdout == ""
    good = run_module("present", str(data_dir / "valid" / "torsion.cat"), "--format", "structured")
    assert good.returncode == 0
    assert good.stdout == (data_dir / "golden" / "present_torsion.txt").read_text()


def test_package_entry_point_runs_the_cli(data_dir):
    bad = data_dir / "malformed" / "zero_violation_twice.cat"
    proc = run_module("present", str(bad), module="k0heap")
    assert proc.returncode == 2
    assert f"{bad}:9:1: error: sum 0 + A = B breaks the zero-object law" in proc.stderr
    assert f"{bad}:11:3: error: sum B + 0 = A breaks the zero-object law" in proc.stderr
    assert proc.stdout == ""


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # each output is far larger than a pipe buffer; demo writes its document in one call,
    # which an unbuffered stdout would cut short without a word
    (tmp_path / "set32.cat").write_text(print_spec(finite_sets_spec(32)))
    for argv, first in ((["present", "set32.cat"], b"generator empty\n"), (["demo", "set", "64"], b"# k0 category spec\n")):
        proc = subprocess.Popen(
            [sys.executable, "-m", "k0heap", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env={**source_env(), "PYTHONUNBUFFERED": "1"},
        )
        assert proc.stdout.readline() == first
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1, argv
        assert proc.stderr.read() == b""


def test_output_bytes_do_not_depend_on_python_buffering(tmp_path):
    (tmp_path / "set32.cat").write_text(print_spec(finite_sets_spec(32)))
    for argv in (["present", "set32.cat"], ["demo", "set", "32"]):
        env = {k: v for k, v in source_env().items() if k != "PYTHONUNBUFFERED"}
        plain, unbuffered = (
            subprocess.run([sys.executable, "-m", "k0heap", *argv], capture_output=True, cwd=tmp_path, env=e, timeout=120)
            for e in (env, {**env, "PYTHONUNBUFFERED": "1"})
        )
        assert plain.returncode == unbuffered.returncode == 0
        assert plain.stdout == unbuffered.stdout and plain.stdout.count(b"\n") > 5000


@pytest.mark.parametrize("text", ["", "# no objects\n\n   # at all\n"])
@pytest.mark.parametrize("argv", [["group", "--base", "a"], ["equal", "a", "a"], ["present"]])
def test_spec_with_no_objects_is_an_input_error(tmp_path, text, argv):
    spec = tmp_path / "empty.cat"
    spec.write_text(text)
    proc = run_module(argv[0], str(spec), *argv[1:])
    assert proc.returncode == 2
    assert proc.stderr == "error: a presentation needs at least one generator\n"
    assert proc.stdout == ""


FOOTPRINT = """
import sys
before = set(sys.modules)
import k0heap
after_package = set(sys.modules)
import k0heap.cli
k0heap.cli.build_parser()
after_cli = set(sys.modules)
assert k0heap.cli.run_cli(["reduce", "[a,b,b]"]) == 0
print(' '.join(sorted(after_package - before)))
print(' '.join(sorted(after_cli - before)))
print(' '.join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_needs_neither_dataclasses_nor_the_generators():
    """Start-up cost is guarded by what gets imported, not by a timing gate."""
    proc = run_module("-c", FOOTPRINT, module=None)
    assert proc.returncode == 0, proc.stderr
    package, cli, reduce = (line.split() for line in proc.stdout.splitlines()[-3:])
    assert [m for m in package if m.startswith("k0heap")] == ["k0heap"] and "dataclasses" not in package
    assert [m for m in cli if m.startswith("k0heap")] == ["k0heap", "k0heap._frozen", "k0heap.cli", "k0heap.dsl"]
    assert "dataclasses" not in cli and "k0heap.instances" not in cli
    # reduce runs the heap layer only: category, presentation and lattice stay unloaded
    assert [m for m in reduce if m.startswith("k0heap")] == [
        "k0heap", "k0heap._frozen", "k0heap.cli", "k0heap.dsl", "k0heap.heaps",
    ]


NAMESPACE = """
import importlib, sys
import k0heap
assert set(k0heap.__all__) <= set(dir(k0heap))
assert not [m for m in sys.modules if m.startswith("k0heap.")], "dir() loaded a layer"
star = {}
exec("from k0heap import *", star)
for name in k0heap.__all__:
    home = importlib.import_module(star[name].__module__)
    assert star[name] is getattr(home, name) is getattr(k0heap, name), name
"""


def test_package_names_load_their_layer_on_first_use():
    proc = run_module("-c", NAMESPACE, module=None)
    assert proc.returncode == 0, proc.stderr


def _cyclic_garbage(argv) -> int:
    """Objects the cycle collector frees after one ``run_cli`` call made with it off."""
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path):
    for n in (8, 32):
        (tmp_path / f"set{n}.cat").write_text(print_spec(finite_sets_spec(n)))
    for command, *options in (["present"], ["group", "--base", "empty"]):
        small, large = (_cyclic_garbage([command, str(tmp_path / f"set{n}.cat"), *options]) for n in (8, 32))
        assert small == large, command


@pytest.mark.parametrize("argv", [["reduce", "a"], ["present", "set8.cat"], ["demo", "set", "8"]])
def test_closed_descriptor_1_exits_1_without_a_traceback(tmp_path, argv):
    (tmp_path / "set8.cat").write_text(print_spec(finite_sets_spec(8)))
    proc = subprocess.run(
        [sys.executable, "-m", "k0heap", *argv], stderr=subprocess.PIPE, text=True, cwd=tmp_path,
        env=source_env(), preexec_fn=lambda: os.close(1), timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: standard output is closed\n"

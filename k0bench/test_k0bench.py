"""Smoke test of the benchmark itself, at the smallest sizes.

    python3 -m pytest k0bench
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from k0heap import heaps, presentation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "k0bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_lists_the_workloads_run_py_accepts():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared(section)


def test_trace_fails_when_a_predicted_span_records_no_calls(monkeypatch, capsys):
    predicted = tracer.PREDICTED["heap-models"] + ("lattice.hnf",)
    monkeypatch.setitem(tracer.PREDICTED, "heap-models", predicted)
    code = run.main(["--workload", "heap-models", "--seed", "1", "--seconds", "0.2", "--trace", "1", "--scale", "smoke"])
    out = capsys.readouterr()
    assert code == 1
    assert json.loads(out.out.strip().splitlines()[-1])["correct"] is False
    assert "predicted span lattice.hnf recorded no calls" in out.err


def run_fixed(workload, rounds=2):
    cfg = {"workload": workload, "seed": 5, "scale": "smoke", "mode": "fixed", "rounds": rounds}
    return workloads.run(cfg)


def test_oracle_catches_a_wrong_equality_verdict(monkeypatch):
    assert run_fixed("warm-queries")["failed"] == 0
    real = presentation.word_equal
    monkeypatch.setattr(presentation, "word_equal", lambda p, a, b: not real(p, a, b))
    result = run_fixed("warm-queries")
    assert result["failed"] > 0
    assert all(f.startswith("equal") for f in result["failures"])


def test_oracle_catches_an_accepted_non_morphism(monkeypatch):
    accept_all = heaps.MorphismCheck(ok=True, group_law_ok=True)
    monkeypatch.setattr(heaps, "check_heap_morphism", lambda *a, **k: accept_all)
    result = run_fixed("heap-models")
    assert result["failed"] > 0
    assert all(f.startswith("morphism-collapse") for f in result["failures"])


def test_cli_checks_reject_wrong_group_and_present_answers():
    values = {"empty": 0, "1": 1, "2": 2}
    good = ["base empty", "rank 1", "torsion none", "class empty 0", "class 1 -1", "class 2 -2"]
    assert workloads.check_group(good, values)
    assert not workloads.check_group(good[:3] + ["class empty 0", "class 1 -1", "class 2 2"], values)
    assert not workloads.check_group(["rank 1", "torsion 2"] + good[3:], values)
    assert workloads.check_present(["generator empty", "generator 1", "generator 2", "relation 1:2 2:-1 empty:-1"], values, 1)
    assert not workloads.check_present(["generator empty", "generator 1", "generator 2", "relation 1:1 2:-1"], values, 1)


def test_fails_without_the_sources():
    run.WORK_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "k0bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "warm-queries", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_latency_windows_keep_every_op():
    # 3 rounds of 30 ops, then 10 ops left over that join the last round
    stats = workloads.latency_stats([1.0] * 60 + [2.0] * 40, round_size=30)
    assert stats["rounds"] == 3 and stats["p50_s"] == (1.0 + 1.0 + 2.0) / 3
    assert stats["tail_windows"] == 1 and stats["tail_window_ops"] == 100
    assert stats["tail_s"] == 2.0

"""The k0heap benchmark: one command, three seeded workloads, every answer checked.

    python3 k0bench/run.py --workload warm-queries --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop: one client, one op in flight):

* ``warm-queries`` -- word equality and class coordinates on prebuilt
  presentations whose Hermite basis is built in set-up, so every timed op
  reuses the cache.  Query-side changes show in the timed metrics; a
  Hermite/Smith build change can move only ``setup_s`` and ``peak_rss_mib``.
* ``cold-cli`` -- one ``k0heap`` process per op (group, equal, truss-check,
  project, present, demo, reduce).  Every op pays interpreter start, spec
  parsing and a fresh Hermite/Smith build, so a change that speeds up
  queries by making builds slower shows here.
* ``heap-models`` -- finite heap and group tables validated, rejected,
  retracted and checked for morphisms.  The lattice does no work here, so
  lattice changes must show no change; heap validation shows only here.

With ``--trace 0`` the run prints the end-to-end metrics: ``setup_s`` (median
of several set-ups, each in a fresh process), ``ops_per_s`` (whole rounds of
ops over their wall time), ``latency_p50_ms`` and ``latency_tail_ms`` (the
highest percentile with at least 10 samples beyond it), taken over rounds
and windows of whole rounds as ``workloads.latency_stats`` describes, and
``peak_rss_mib`` (``ru_maxrss`` of the process that ran the workload; for
cold-cli the largest CLI child).  With
``--trace 1`` it runs a fixed number of rounds untraced and again traced,
each in a fresh process, and prints the per-layer metrics of
``tracer.PER_LAYER`` plus ``cli.startup_ms`` and ``trace.overhead_ratio``.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every answer matched the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

WORKLOADS = ("warm-queries", "cold-cli", "heap-models")
SETUP_REPS = 3
TRACE_ROUNDS = {"warm-queries": 40, "cold-cli": 1, "heap-models": 2}
RUN_BUDGET_S = 170  # every child is stopped once the whole run has taken this long
WORK_DIR = ROOT / ".k0bench-work"


class BenchError(RuntimeError):
    pass


def child(cfg: dict, deadline: float) -> dict:
    """Run one measurement in a fresh interpreter and return its JSON result.

    The child leads a process group of its own, so that on a timeout or an
    interrupt the CLI processes it started are stopped along with it.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{cfg['workload']} {cfg['mode']} run exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(cfg: dict, deadline: float) -> tuple[dict, dict]:
    setups = [child({**cfg, "mode": "setup"}, deadline)["setup_s"] for _ in range(SETUP_REPS - 1)]
    res = child({**cfg, "mode": "timed"}, deadline)
    setups.append(res["setup_s"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (res["attempted"] / res["elapsed_s"], "ops/s"),
        "latency_p50_ms": (res["p50_s"] * 1e3, "ms"),
        "latency_tail_ms": (res["tail_s"] * 1e3, "ms"),
        "peak_rss_mib": (res["maxrss_kib"] / 1024, "MiB"),
    }
    print(
        f"{res['attempted']} samples; p50 is the mean of {res['rounds']} round medians, tail the median "
        f"of the p{res['tail_percentile']:.2f} of {res['tail_windows']} windows of {res['tail_window_ops']} ops"
    )
    for kind, (count, p50) in res["kinds"].items():
        print(f"  {kind}: {count} ops, p50 {p50 * 1e3:.3f} ms")
    print(f"error_rate {res['failed'] / res['attempted']:.6f} ({res['failed']} of {res['attempted']})")
    return metrics, res


def per_layer(cfg: dict, deadline: float) -> tuple[dict, dict]:
    rounds = TRACE_ROUNDS[cfg["workload"]]
    plain = child({**cfg, "mode": "fixed", "rounds": rounds}, deadline)
    spans_path = str(WORK_DIR / f"trace-{cfg['workload']}.jsonl")
    traced = child({**cfg, "mode": "fixed", "rounds": rounds, "spans": spans_path}, deadline)
    stats = tracer.aggregate(tracer.load(spans_path))
    metrics = {name: (read(stats), unit) for name, unit, read in tracer.PER_LAYER}
    startup = 0.0
    if cfg["workload"] == "cold-cli":
        startup = plain["p50_s"] - tracer.median_duration(stats, "cli.run_cli")
    metrics["cli.startup_ms"] = (startup * 1e3, "ms")
    overhead = (traced["setup_s"] + traced["elapsed_s"]) / (plain["setup_s"] + plain["elapsed_s"])
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    silent = [name for name in tracer.PREDICTED[cfg["workload"]] if not stats.get(name, {}).get("calls")]
    for name in silent:
        print(f"predicted span {name} recorded no calls", file=sys.stderr)
    combined = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "failures": plain["failures"] + traced["failures"],
        "silent": silent,
    }
    return metrics, combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"),
                        help="input sizes; smoke is the smallest run that reaches every layer")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "k0heap" / "__init__.py").is_file():
        print(f"k0heap sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    cfg = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "workdir": workdir,
    }
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        metrics, res = (per_layer if args.trace else end_to_end)(cfg, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in res["failures"]:
        print(f"wrong answer: {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    correct = res["failed"] == 0 and not res.get("silent")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # let the cleanup in main() run when the caller terminates this process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())

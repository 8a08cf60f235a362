#!/usr/bin/env python3
"""Regenerate the golden structured-output files under tests/data/golden.

Run from the repository root after an intentional output-format change:

    python scripts/regen_goldens.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from k0heap.cli import run_cli  # noqa: E402

DATA = ROOT / "tests" / "data"
GOLDEN = DATA / "golden"

CASES = {
    "group_set3.txt": (["group", str(DATA / "valid" / "set3.cat"), "--base", "empty",
                        "--format", "structured"], None),
    "present_torsion.txt": (["present", str(DATA / "valid" / "torsion.cat"),
                             "--format", "structured"], None),
    "project_zmod.txt": (["project", str(DATA / "valid" / "zmod.cat"),
                          "--format", "structured"], None),
    "truss_set3.txt": (["truss-check", str(DATA / "valid" / "set3.cat"),
                        "--format", "structured"], None),
    "equal_set3.txt": (["equal", str(DATA / "valid" / "set3.cat"), "[2,1,2]", "3",
                        "--format", "structured"], None),
    "reduce_word.txt": (["reduce", "[a,[b,c,d],e]", "--format", "structured"], None),
    "snf_matrix.txt": (["snf", "--format", "structured"], "2 4\n6 8\n"),
    "demo_cw.txt": (["demo", "cw", str(DATA / "cw_example.txt"),
                     "--format", "structured"], None),
    "demo_set2.txt": (["demo", "set", "2"], None),
    "present_set8.txt": (["present", str(DATA / "valid" / "set8.cat"),
                          "--format", "structured"], None),
    "project_vect8.txt": (["project", str(DATA / "valid" / "vect8.cat"),
                           "--format", "structured"], None),
    "truss_swindle8.txt": (["truss-check", str(DATA / "valid" / "swindle8.cat"),
                            "--format", "structured"], None),
}


def capture(argv: list[str], stdin_text: str | None) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        if stdin_text is not None:
            old = sys.stdin
            sys.stdin = io.StringIO(stdin_text)
            try:
                code = run_cli(argv)
            finally:
                sys.stdin = old
        else:
            code = run_cli(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    return buffer.getvalue()


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, (argv, stdin_text) in sorted(CASES.items()):
        out = capture(argv, stdin_text)
        (GOLDEN / name).write_text(out, encoding="utf-8")
        print(f"wrote {name} ({len(out)} bytes)")


if __name__ == "__main__":
    main()

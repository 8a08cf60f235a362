"""Command-line surface tying the engine together.

Exit codes: 0 on success, 1 when a checked structure fails to verify
(ideal violation, broken morphism, missing containment) or the reader
closes stdout early, 2 on parse or usage errors.  ``--format structured``
switches every command to a stable key/value document starting with the
versioned header line ``k0-format 1``.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import Sequence

from ._frozen import MAX_BOUND, bracket_letters
from .dsl import (
    CW_CONVENTIONS,
    SpecSource,
    WordSyntaxError,
    bracket_text,
    data_lines,
    parse_bracket_word,
    parse_spec,
    print_spec,
)

# each command loads the layers it runs: ``reduce`` loads heaps, and none of category, presentation and lattice
FORMAT_HEADER = "k0-format 1"
_SNF_WORK = 2_000_000  # snf's budget: the column transform is columns x columns, its entries grow to the factors' size


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", 2)


def _load_spec(path: str):
    src = SpecSource(text=_read_file(path), name=path)
    result = parse_spec(src)
    for d in result.diagnostics:
        print(d.render(src.name), file=sys.stderr)
    if result.spec is None:
        raise CliError(f"{path}: parse failed", 2)
    return result.spec


def _parse_word(text: str, what: str):
    try:
        return parse_bracket_word(text)
    except (WordSyntaxError, ValueError) as exc:
        raise CliError(f"{what}: {exc}", 2)


def _load_presentation(path: str):
    from .category import k0_presentation
    return k0_presentation(_load_spec(path))


def _emit(args, command: str, lines: list[str]) -> None:
    write = sys.stdout.write
    if args.format == "structured":
        write(f"{FORMAT_HEADER}\ncommand {command}\n")
    for line in lines:
        write(line)
        write("\n")


def cmd_present(args) -> int:
    p = _load_presentation(args.file)
    lines = [f"generator {g}" for g in p.generators]
    lines += [f"relation {r}" for r in p.relations]
    _emit(args, "present", lines)
    return 0


def cmd_group(args) -> int:
    from .presentation import retract_group_structure
    gs = retract_group_structure(_load_presentation(args.file), args.base)
    _emit(args, "group", gs.report_lines())
    return 0


def cmd_equal(args) -> int:
    from .presentation import UnknownGeneratorError, normalize_affine, word_equal
    p = _load_presentation(args.file)
    trees = [_parse_word(args.word1, "word 1"), _parse_word(args.word2, "word 2")]
    for tree in trees:  # a label that cancels out of its word is still checked
        unknown = sorted(set(bracket_letters(tree)).difference(p.generators))
        if unknown:
            raise UnknownGeneratorError(f"unknown generator {unknown[0]!r}")
    w1, w2 = (normalize_affine(t) for t in trees)
    verdict = word_equal(p, w1, w2)
    _emit(args, "equal", [f"word1 {w1}", f"word2 {w2}", f"equal {'true' if verdict else 'false'}"])
    return 0


def cmd_truss_check(args) -> int:
    from .category import k0_presentation, truss_table
    from .presentation import truss_from_table
    spec = _load_spec(args.file)
    if spec.products is None:
        raise CliError(f"{args.file}: no product table to check", 2)
    p = k0_presentation(spec)
    check = truss_from_table(p, truss_table(spec))
    lines = [f"ideal {'ok' if check.ok else 'violated'}"]
    if check.violation is not None:
        v = check.violation
        lines.append(f"witness relation {v.relation}")
        lines.append(f"witness side {v.side}")
        lines.append(f"witness generator {v.generator}")
    else:
        lines.append(f"unit {check.unit_law}")
    lines += [f"omitted {a} {b}" for a, b in check.omitted]
    _emit(args, "truss-check", lines)
    return 0 if check.ok else 1


def cmd_project(args) -> int:
    from .category import compare_projection, k0_presentation, split_presentation
    spec = _load_spec(args.file)
    split = split_presentation(spec)
    full = k0_presentation(spec)
    report = compare_projection(split, full)
    lines = [
        f"containment {'true' if report.contained else 'false'}",
        f"equality {'true' if report.equal else 'false'}",
        f"classification {report.classification}",
    ]
    if report.witness is not None:
        lines.append(f"witness {report.witness}")
    _emit(args, "project", lines)
    return 0 if report.contained else 1


def _parse_map_file(path: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, line in data_lines(_read_file(path)):
        parts = line.split()
        if len(parts) != 3 or parts[1] != "=>":
            raise CliError(f"{path}:{lineno}: expected 'SRC => DST'", 2)
        src, _, dst = parts
        if src in mapping:
            raise CliError(f"{path}:{lineno}: duplicate mapping for {src!r}", 2)
        mapping[src] = dst
    return mapping


def cmd_morphism(args) -> int:
    from .category import FunctorSpec, functor_induced
    source = _load_spec(args.source)
    target = _load_spec(args.target)
    mapping = _parse_map_file(args.mapfile)
    report = functor_induced(FunctorSpec(source=source, target=target, object_map=mapping))
    lines = [f"heap-morphism {'true' if report.heap.ok else 'false'}"]
    if report.heap.witness is not None:
        lines.append(f"witness {report.heap.witness}")
    if report.truss_checked:
        lines.append(f"truss-morphism {'true' if report.truss_ok else 'false'}")
        if report.truss_witness is not None:
            lines.append("truss-witness " + " ".join(str(x) for x in report.truss_witness))
        lines += [f"omitted {a} {b}" for a, b in report.truss_omitted]
    else:
        lines.append("truss-morphism unchecked")
    _emit(args, "morphism", lines)
    ok = report.heap.ok and (not report.truss_checked or report.truss_ok)
    return 0 if ok else 1


def cmd_reduce(args) -> int:
    from . import heaps  # the heap layer loads only for the command that runs it

    reduced = heaps.reduce_word(heaps.word_from_tree(_parse_word(args.word, "word")))
    if args.format == "structured":
        _emit(args, "reduce", ["word " + " ".join(reduced.letters)])
    else:
        print(str(reduced))
    return 0


def cmd_snf(args) -> int:
    from .lattice import IntMatrix, snf
    rows, bits, limit = [], 0, sys.get_int_max_str_digits()  # the limit is 0 when there is none
    for lineno, line in data_lines(sys.stdin.read()):
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:  # an integer past Python's digit limit is refused too, with its own message
            too_long = str(exc).startswith("Exceeds the limit")
            problem = f"matrix entry longer than {limit} digits" if too_long else "matrix entries must be integers"
            raise CliError(f"stdin:{lineno}: {problem}", 2)
        if len(rows[-1]) != len(rows[0]):
            raise CliError(f"stdin:{lineno}: expected {len(rows[0])} entries, got {len(rows[-1])}", 2)
        if len(rows) > MAX_BOUND or len(rows[-1]) > MAX_BOUND:
            raise CliError(f"stdin:{lineno}: a matrix has at most {MAX_BOUND} rows and {MAX_BOUND} columns", 2)
        # Hadamard: every minor, so every invariant factor, is below the product of the rows' lengths
        bits += sum(x * x for x in rows[-1]).bit_length()
        digits = bits * math.log10(2) / 2  # of that product, so far
        if limit and digits > limit:
            raise CliError(f"stdin:{lineno}: invariant factors could have more than {limit} digits", 2)
        if len(rows[0]) ** 2 * digits > _SNF_WORK:
            raise CliError(f"stdin:{lineno}: too large to reduce: columns^2 x factor digits passes {_SNF_WORK}", 2)
    _emit(args, "snf", snf(IntMatrix.from_rows(rows)).report_lines())
    return 0


def cmd_demo(args) -> int:
    from . import instances  # the generators load only for the command that needs them

    kind = args.kind
    if kind in ("set", "vect", "swindle"):
        if args.arg is None:
            raise CliError(f"demo {kind} needs a bound N", 2)
        try:
            n = int(args.arg)
        except ValueError:
            raise CliError(f"demo {kind}: bound must be an integer, got {args.arg!r}", 2)
        spec = {
            "set": instances.finite_sets_spec,
            "vect": instances.vect_spec,
            "swindle": instances.swindle_spec,
        }[kind](n)
        sys.stdout.write(print_spec(spec))
        return 0
    if kind == "zmod":
        sys.stdout.write(print_spec(instances.bounded_abelian_groups_file()))
        return 0
    if args.arg is None:  # cw, the one kind left: argparse refuses any other
        raise CliError("demo cw needs a cell-count file", 2)
    try:
        cw = instances.parse_cell_counts(_read_file(args.arg))
    except ValueError as exc:
        raise CliError(f"{args.arg}: {exc}", 2)
    tree, cls = instances.cw_word(cw, args.convention), instances.cw_class(cw, args.convention)
    _emit(args, "demo-cw", [f"convention {args.convention}", f"word {bracket_text(tree)}", f"class {cls}"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k0heap",
        description="Heap presentations, retract groups and truss checks for finite category specs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("human", "structured"),
        default="human",
        help="structured emits a stable machine-readable key/value document",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("present", parents=[common], help="print the heap presentation of a spec")
    p.add_argument("file")
    p.set_defaults(func=cmd_present)

    p = sub.add_parser("group", parents=[common], help="rank, torsion and class coordinates")
    p.add_argument("file")
    p.add_argument("--base", required=True, help="basepoint object label")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("equal", parents=[common], help="decide equality of two bracket words")
    p.add_argument("file")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("truss-check", parents=[common], help="validate the product table (ideal property)")
    p.add_argument("file")
    p.set_defaults(func=cmd_truss_check)

    p = sub.add_parser("project", parents=[common], help="compare split and full presentations")
    p.add_argument("file")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("morphism", parents=[common], help="check a functor-induced morphism")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("mapfile", help="lines of the form 'SRC => DST'")
    p.set_defaults(func=cmd_morphism)

    p = sub.add_parser("reduce", parents=[common], help="normal form of a free heap word")
    p.add_argument("word")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("snf", parents=[common], help="Smith normal form of a matrix read from stdin")
    p.set_defaults(func=cmd_snf)

    p = sub.add_parser("demo", parents=[common], help="built-in instance generators")
    p.add_argument("kind", choices=("set", "vect", "swindle", "cw", "zmod"))
    p.add_argument("arg", nargs="?", help="bound N for set/vect/swindle, cell-count file for cw")
    p.add_argument(
        "--convention",
        choices=CW_CONVENTIONS,
        default="same-index",
        help="sphere index paired with each disk in CW words",
    )
    p.set_defaults(func=cmd_demo)
    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints usage to stderr already; normalize the exit code
        return 0 if exc.code == 0 else 2
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:  # a ValueError is bad input that the command did not prefix
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else 2


def main() -> None:
    # a short-lived process: collect cycles rarely (the parser and the values leave none), and
    # never walk what the imports built, which lives until exit; the final collection skips it too
    gc.set_threshold(200_000, 30, 30)
    gc.freeze()
    out = sys.stdout
    if out is None:  # started with descriptor 1 closed: a reader that is already gone
        print("error: standard output is closed", file=sys.stderr)
        sys.exit(1)
    # buffered even under PYTHONUNBUFFERED, so that a line is not a write(2) call of its own
    sys.stdout = open(out.fileno(), "w", encoding=out.encoding, errors=out.errors, closefd=False)
    try:
        code = run_cli()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): the flush at shutdown goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()

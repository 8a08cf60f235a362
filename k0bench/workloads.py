"""The benchmark's workloads: seeded inputs, a closed timed loop, an oracle check per op.

Every measurement runs in a fresh interpreter started by ``run.py``, so
set-up time, the Hermite cache and peak RSS belong to that measurement
alone::

    python3 k0bench/workloads.py '{"workload": "warm-queries", "seed": 1, "mode": "timed", ...}'

Modes: ``setup`` builds the inputs and stops; ``timed`` then runs whole
rounds of ops until ``seconds`` have passed; ``fixed`` runs exactly
``rounds`` rounds (the traced and untraced halves of a trace run).  A round
holds a fixed mix of ops in a seeded order.  One
client keeps one op in flight.  The library sees only generated spec text,
bracket-word strings and op tables.  The last line of stdout is a JSON
object with the raw results.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import tracer  # noqa: E402
from k0heap import category, dsl, heaps, instances, presentation  # noqa: E402

CLI_ENTRY = str(HERE / "cli_entry.py")
TAIL_WINDOW_OPS = 1000  # least ops in a window of the tail latency

# Input sizes per scale.  "smoke" is the smallest run that still reaches
# every layer; the benchmark itself always uses "full".
# Per round, each presentation gets its count of equal ops and one classify
# op: 16 to 4, the 80/20 mix.  zmod has 8 generators and 7 relations, so its
# queries are as cheap as a classify; giving it one equal op keeps the cheap
# ops at a quarter of the mix and the median inside the cluster of queries on
# the large presentations, not on its lower edge.
WARM = {
    "full": {"specs": (("set", 16, 5), ("vect", 12, 5), ("swindle", 12, 5), ("zmod", 0, 1)), "pool": 256},
    "smoke": {"specs": (("set", 3, 5), ("vect", 3, 5), ("swindle", 2, 5), ("zmod", 0, 1)), "pool": 4},
}
# Per round: group and equal on each queried spec and zmod, project on the
# pointed ones, truss-check, present, demo and reduce.  Most ops land in one
# cluster (a size-12 build plus start-up), so the median sits inside it and
# moves with the build, not on the edge between start-up-only and build ops.
COLD = {
    "full": {
        "queried": (("set", 12), ("vect", 12), ("swindle", 12)),
        "truss": (("set", 8), ("vect", 8), ("swindle", 8), ("set", 12)),
        "present": (("set", 32), ("vect", 24)),
        "demo": 32,
        "reduce": 2,
        "pool": 8,
    },
    "smoke": {
        "queried": (("set", 2), ("vect", 2), ("swindle", 2)),
        "truss": (("set", 2),),
        "present": (("set", 3),),
        "demo": 3,
        "reduce": 1,
        "pool": 2,
    },
}
# All full-scale groups have order 16, so that every op class has one cost
# and the median falls inside the cluster of cheap ops, not between sizes.
HEAP = {
    "full": {"groups": ((16,), (2, 8), (4, 4), (2, 2, 4)), "pool": 32},
    "smoke": {"groups": ((3,), (2, 2)), "pool": 2},
}


class SetupError(RuntimeError):
    pass


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    # check(result, exception) is True when the answer matches the oracle
    check: Callable[[object, BaseException | None], bool]


def _generate(kind: str, n: int):
    if kind == "zmod":
        return instances.bounded_abelian_groups_file()
    name = {"set": "finite_sets_spec", "vect": "vect_spec", "swindle": "swindle_spec"}[kind]
    return getattr(instances, name)(n)


def _values(kind: str, n: int, labels) -> dict[str, int] | None:
    """Additive invariant that decides equality, or None when all words are equal."""
    if kind == "set":
        return oracle.set_values(n)
    if kind == "vect":
        return oracle.vect_values(n)
    if kind == "zmod":
        return {label: oracle.zmod_value(label) for label in labels}
    return None


def _base(kind: str) -> str:
    return "empty" if kind == "set" else "0"


def _spec_name(kind: str, n: int) -> str:
    return "zmod" if kind == "zmod" else f"{kind}{n}"


def _pairs(rng, kind, n, values, count):
    """``count`` word pairs, half built equal, with the oracle's verdict."""
    if values is None:
        labels = oracle.swindle_labels(n)
        stand_in = dict.fromkeys(labels, 0)
        return [oracle.word_pair(rng, stand_in, i % 2 == 0)[:2] + (True,) for i in range(count)]
    return [oracle.word_pair(rng, values, i % 2 == 0) for i in range(count)]


# ---------------------------------------------------------------- warm-queries


def _equal_op(p, text1, text2, expected) -> Op:
    def call():
        w1 = presentation.normalize_affine(dsl.parse_bracket_word(text1))
        w2 = presentation.normalize_affine(dsl.parse_bracket_word(text2))
        return presentation.word_equal(p, w1, w2)

    return Op("equal", call, lambda got, exc: exc is None and got is expected)


def _classify_op(gs, text, expected) -> Op:
    def call():
        return gs.class_coordinates(presentation.normalize_affine(dsl.parse_bracket_word(text)))

    return Op("classify", call, lambda got, exc: exc is None and got == expected)


def setup_warm(cfg, rng):
    sizes = WARM[cfg["scale"]]
    lanes = []
    for kind, n, per_round in sizes["specs"]:
        text = dsl.print_spec(_generate(kind, n))
        parsed = dsl.parse_spec(dsl.SpecSource(text=text, name=_spec_name(kind, n)))
        if parsed.spec is None:
            raise SetupError(f"{_spec_name(kind, n)}: generated spec does not parse")
        p = category.k0_presentation(parsed.spec)
        base = _base(kind)
        gs = presentation.retract_group_structure(p, base)
        base_word = presentation.AffineWord.generator(base)
        presentation.word_equal(p, base_word, base_word)  # fills the Hermite cache
        values = _values(kind, n, parsed.spec.objects)
        if values is None:
            sign = None
        else:
            unit = next(label for label, v in sorted(values.items()) if v == 1)
            (sign,) = gs.class_coordinates(presentation.AffineWord.generator(unit))
            if sign not in (1, -1):
                raise SetupError(f"{_spec_name(kind, n)}: class of {unit!r} is {sign}, expected +-1")
        equal_ops = [_equal_op(p, *pair) for pair in _pairs(rng, kind, n, values, sizes["pool"])]
        classify_ops = []
        labels = sorted(values) if values is not None else oracle.swindle_labels(n)
        for _ in range(sizes["pool"]):
            tree = oracle.word_tree(rng, labels, 3, oracle.WORD_LEAVES)
            expected = () if values is None else (sign * oracle.tree_value(tree, values),)
            classify_ops.append(_classify_op(gs, oracle.tree_text(tree), expected))
        lanes.append((per_round, equal_ops, classify_ops))

    def round_ops(r):
        ops = []
        for per_round, equal_ops, classify_ops in lanes:
            for j in range(per_round):
                ops.append(equal_ops[(r * per_round + j) % len(equal_ops)])
            ops.append(classify_ops[r % len(classify_ops)])
        return ops

    return round_ops


# ---------------------------------------------------------------- cold-cli


def _run_cli(workdir, argv, spans):
    prefix = ["--spans", spans] if spans else []
    return subprocess.run(
        [sys.executable, CLI_ENTRY, *prefix, *argv],
        cwd=workdir,
        capture_output=True,
        text=True,
    )


def _field(lines, key):
    for line in lines:
        if line.startswith(key + " "):
            return line[len(key) + 1:]
    return None


def check_group(lines, values) -> bool:
    """Rank 1 without torsion and classes +-value, or the trivial group."""
    if _field(lines, "torsion") != "none":
        return False
    classes = {}
    for line in lines:
        if line.startswith("class "):
            label, *coords = line.split()[1:]
            classes[label] = tuple(int(c) for c in coords)
    if values is None:
        return _field(lines, "rank") == "0" and bool(classes) and all(c == () for c in classes.values())
    if _field(lines, "rank") != "1" or set(classes) != set(values):
        return False
    return any(all(classes[g] == (s * v,) for g, v in values.items()) for s in (1, -1))


def check_present(lines, values, relations) -> bool:
    """Every generator listed; the expected number of relations, each in the invariant's kernel."""
    gens = [line.split()[1] for line in lines if line.startswith("generator ")]
    rels = [line.split()[1:] for line in lines if line.startswith("relation ")]
    if sorted(gens) != sorted(values) or len(rels) != relations:
        return False
    for terms in rels:
        pairs = [term.rsplit(":", 1) for term in terms]
        if sum(int(c) for _, c in pairs) != 0 or sum(values[g] * int(c) for g, c in pairs) != 0:
            return False
    return True


def check_demo(text, counts) -> bool:
    lines = text.splitlines()
    got = {key: sum(1 for line in lines if line.startswith(key + " ")) for key in counts}
    return got == counts and "unit 1" in lines


def _cli_op(workdir, argv, check, spans_for) -> Op:
    def call():
        return _run_cli(workdir, argv, spans_for())

    def verdict(got, exc):
        return exc is None and got.returncode == 0 and check(got.stdout)

    return Op(argv[0], call, verdict)


def setup_cold(cfg, rng, spans_for):
    sizes = COLD[cfg["scale"]]
    workdir = cfg["workdir"]
    specs = {}  # file name -> (kind, n, values)
    for kind, n in dict.fromkeys(sizes["queried"] + sizes["truss"] + sizes["present"] + (("zmod", 0),)):
        spec = _generate(kind, n)
        name = _spec_name(kind, n) + ".cat"
        Path(workdir, name).write_text(dsl.print_spec(spec), encoding="utf-8")
        specs[name] = (kind, n, _values(kind, n, spec.objects))
    warm = _run_cli(workdir, ["reduce", "a"], None)  # byte-compiles the package once
    if warm.returncode != 0 or warm.stdout.strip() != "a":
        raise SetupError(f"CLI does not start: {warm.stderr.strip()}")

    pool = sizes["pool"]
    templates = []  # per round: one list of ops per command slot
    queried = [_spec_name(k, n) + ".cat" for k, n in sizes["queried"]] + ["zmod.cat"]
    for name in queried:
        kind, n, values = specs[name]
        templates.append(
            [_cli_op(workdir, ["group", name, "--base", _base(kind)],
                     lambda out, v=values: check_group(out.splitlines(), v), spans_for)]
        )
        ops = []
        for t1, t2, expected in _pairs(rng, kind, n, values, pool):
            answer = "equal " + ("true" if expected else "false")
            ops.append(_cli_op(workdir, ["equal", name, t1, t2],
                               lambda out, a=answer: a in out.splitlines(), spans_for))
        templates.append(ops)
        if kind in ("vect", "swindle", "zmod"):
            answer = "classification " + ("proper-projection" if kind == "zmod" else "isomorphism")
            templates.append(
                [_cli_op(workdir, ["project", name], lambda out, a=answer: a in out.splitlines(), spans_for)]
            )
    for kind, n in sizes["truss"]:
        templates.append(
            [_cli_op(workdir, ["truss-check", _spec_name(kind, n) + ".cat"],
                     lambda out: out.splitlines()[:1] == ["ideal ok"], spans_for)]
        )
    for kind, n in sizes["present"]:
        triples = oracle.set_triples(n) if kind == "set" else oracle.vect_triples(n)
        values = specs[_spec_name(kind, n) + ".cat"][2]
        relations = oracle.nonzero_relations(triples)
        templates.append(
            [_cli_op(workdir, ["present", _spec_name(kind, n) + ".cat"],
                     lambda out, v=values, r=relations: check_present(out.splitlines(), v, r), spans_for)]
        )
    counts = oracle.demo_set_counts(sizes["demo"])
    templates.append(
        [_cli_op(workdir, ["demo", "set", str(sizes["demo"])], lambda out: check_demo(out, counts), spans_for)]
    )
    for _ in range(sizes["reduce"]):
        ops = []
        for _ in range(pool):
            tree = oracle.word_tree(rng, list("abcd"), 4, (30, 150))
            ops.append(_cli_op(workdir, ["reduce", oracle.tree_text(tree)],
                               lambda out, e=oracle.reduced_text(tree): out.strip() == e, spans_for))
        templates.append(ops)

    def round_ops(r):
        return [ops[r % len(ops)] for ops in templates]

    return round_ops


# ---------------------------------------------------------------- heap-models


def setup_heaps(cfg, rng):
    sizes = HEAP[cfg["scale"]]
    lanes = []
    for moduli in sizes["groups"]:
        g = oracle.CyclicProduct(moduli)
        carrier = tuple(g.labels)
        op_table, inverse = g.op_table(), g.inverse_table()
        table = g.heap_table()
        heap = heaps.FiniteHeapModel(carrier=carrier, ternary=table)
        ident = g.label(g.zero)

        def validate(op_table=op_table, inverse=inverse, carrier=carrier, ident=ident):
            group = heaps.GroupModel(carrier=carrier, op=op_table, identity=ident, inverse=inverse)
            return heaps.heap_from_group(group)

        validate_ops = [Op("validate", validate, lambda got, exc, t=table: exc is None and got.ternary == t)]

        reject_ops = []
        perturbed = dict(table)  # one entry changed at a time, in place
        for _ in range(sizes["pool"]):
            while True:
                a, b, c = (rng.choice(g.labels) for _ in range(3))
                if a != b and b != c:
                    break
            wrong = rng.choice([x for x in g.labels if x != table[(a, b, c)]])

            def reject(key=(a, b, c), wrong=wrong, table=perturbed, carrier=carrier):
                right, table[key] = table[key], wrong
                try:
                    return heaps.FiniteHeapModel(carrier=carrier, ternary=table)
                finally:
                    table[key] = right

            reject_ops.append(Op("reject", reject, lambda got, exc: isinstance(exc, heaps.HeapAxiomError)))

        retract_ops = []
        for _ in range(sizes["pool"]):
            e = rng.choice(g.elements)
            expected = g.retract_table(e)
            retract_ops.append(
                Op("retract", lambda heap=heap, e=g.label(e): heaps.retract_group(heap, e),
                   lambda got, exc, e=g.label(e), t=expected: exc is None and got.identity == e and got.op == t)
            )

        morphism_ops = []
        for name, mapping, is_morphism in g.maps():
            base = rng.choice(g.labels)
            morphism_ops.append(
                Op(f"morphism-{name}",
                   lambda m=mapping, heap=heap, base=base: heaps.check_heap_morphism(m, heap, heap, base=base),
                   lambda got, exc, want=is_morphism: exc is None and got.ok is want
                   and (got.group_law_ok is True if want else got.witness is not None))
            )
        lanes.append((validate_ops, reject_ops, retract_ops, morphism_ops))

    def round_ops(r):
        ops = []
        for validate_ops, reject_ops, retract_ops, morphism_ops in lanes:
            ops += validate_ops * 2
            ops += [reject_ops[(2 * r + j) % len(reject_ops)] for j in range(2)]
            ops += [retract_ops[(2 * r + j) % len(retract_ops)] for j in range(2)]
            ops += morphism_ops
        return ops

    return round_ops


# ---------------------------------------------------------------- run loop


def _windows(latencies, size: int) -> list:
    """Consecutive windows of ``size`` ops, each sorted.

    The last window also takes the ops left over, so a run shorter than two
    windows is one window and no op is dropped.
    """
    count = max(1, len(latencies) // size)
    bounds = [i * size for i in range(count)] + [len(latencies)]
    return [sorted(latencies[a:b]) for a, b in zip(bounds, bounds[1:])]


def latency_stats(latencies, round_size: int) -> dict:
    """Median and tail latency, each taken over windows of whole rounds.

    Every round holds the same mix of ops, so a window of whole rounds puts
    its median and tail in the same cluster of op costs each time.  The host
    this runs on switches between a fast and a slow phase every few seconds;
    in the slow one every op takes up to 1.5 times as long.  ``p50_s`` is
    the mean over the rounds of each round's median.  A round lies mostly
    within one phase, so the mean moves in proportion to the time spent in
    each phase; a median pooled over the whole run instead jumps with
    whichever phase held the majority.  ``tail_s`` is the highest percentile
    with at least 10 samples beyond it, taken in each window of the fewest
    rounds that hold TAIL_WINDOW_OPS ops and reported as the median over the
    windows, so that the percentile does not depend on how many ops a run
    completes and a few stalls in one window do not set the value.
    """
    medians = _windows(latencies, round_size)
    tails = _windows(latencies, -(-TAIL_WINDOW_OPS // round_size) * round_size)
    size = len(tails[0])
    k = max(0, size - 11)
    return {
        "p50_s": statistics.mean(statistics.median(w) for w in medians),
        "tail_s": statistics.median(w[max(0, len(w) - 11)] for w in tails),
        "tail_percentile": 100.0 * k / (size - 1) if size > 1 else 100.0,
        "rounds": len(medians),
        "tail_windows": len(tails),
        "tail_window_ops": size,
    }


def _count_and_median(latencies, kind_ids, kind) -> list:
    mine = [x for x, k in zip(latencies, kind_ids) if k == kind]
    return [len(mine), statistics.median(mine)]


def run(cfg) -> dict:
    recorder = None
    if cfg.get("spans"):
        recorder = tracer.Tracer()
        missing = recorder.install()
        if missing:
            raise SetupError("traced functions missing from the package: " + ", ".join(missing))

    workload, seed = cfg["workload"], cfg["seed"]
    rng = random.Random(seed)
    # compact arrays, so that the harness's own memory barely grows with the op count
    latencies = array("d")
    kind_ids = array("H")
    kinds: dict[str, int] = {}
    cli_spans: list[tuple[str, int]] = []  # (span file, op id) of each traced CLI command

    def spans_for():
        if not cfg.get("spans"):
            return None
        path = os.path.join(cfg["workdir"], f"cli-spans-{len(cli_spans)}.jsonl")
        cli_spans.append((path, len(latencies)))
        return path

    start = time.perf_counter()
    if workload == "warm-queries":
        round_ops = setup_warm(cfg, rng)
    elif workload == "cold-cli":
        round_ops = setup_cold(cfg, rng, spans_for)
    elif workload == "heap-models":
        round_ops = setup_heaps(cfg, rng)
    else:
        raise SetupError(f"unknown workload {workload!r}")
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if cfg["mode"] == "setup":
        return result

    failures: list[str] = []
    clock = time.perf_counter
    timed = cfg["mode"] == "timed"
    begin = clock()
    r = 0
    while True:
        ops = round_ops(r)
        random.Random(seed * 1_000_003 + r).shuffle(ops)
        for op in ops:
            if recorder is not None:
                recorder.op = len(latencies)
            t0 = clock()
            try:
                got, exc = op.call(), None
            except Exception as e:  # a raised error is an answer the oracle judges
                got, exc = None, e
            latencies.append(clock() - t0)
            kind_ids.append(kinds.setdefault(op.kind, len(kinds)))
            try:
                right = op.check(got, exc)
            except Exception as e:  # an answer of the wrong shape
                right, exc = False, e
            if not right:
                failures.append(f"{op.kind}: got {got!r}, raised {exc!r}"[:300])
        r += 1
        # whole rounds only: a cut round would change the mix from run to run
        if (timed and clock() - begin >= cfg["seconds"]) or r == cfg.get("rounds"):
            break
    elapsed = clock() - begin

    usage = resource.RUSAGE_CHILDREN if workload == "cold-cli" else resource.RUSAGE_SELF
    result.update(
        latency_stats(latencies, len(round_ops(0))),
        elapsed_s=elapsed,
        attempted=len(latencies),
        failed=len(failures),
        failures=failures[:5],
        maxrss_kib=resource.getrusage(usage).ru_maxrss,
        kinds={k: _count_and_median(latencies, kind_ids, i) for k, i in sorted(kinds.items())},
    )
    if recorder is not None:
        spans = recorder.spans
        for path, op_id in cli_spans:
            if not os.path.exists(path):  # the command died; its op already failed
                continue
            offset = len(spans)
            for name, s, e, parent, _op, counters in tracer.load(path):
                spans.append([name, s, e, parent + offset if parent >= 0 else -1, op_id, counters])
            os.remove(path)
        recorder.dump(cfg["spans"])
    return result


def main() -> None:
    cfg = json.loads(sys.argv[1])
    try:
        result = run(cfg)
    except SetupError as exc:
        print(f"workload {cfg.get('workload')}: {exc}", file=sys.stderr)
        sys.exit(1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

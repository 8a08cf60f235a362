"""Expected answers for every benchmark op, computed without k0heap.

Nothing here imports the library.  Word equality and class coordinates
come from each instance's known invariant: cardinality for finite sets,
dimension for vector spaces, free rank for the bounded abelian groups,
and a trivial group for the Eilenberg swindle.  Heap answers come from
modular arithmetic on products of cyclic groups.  Spec and presentation
sizes come from counting the pushout triples directly.
"""

from __future__ import annotations

import itertools
import random

# ---------------------------------------------------------------- invariants


def set_values(n: int) -> dict[str, int]:
    """Cardinality of each object label of the finite-sets instance."""
    return {"empty": 0, **{str(k): k for k in range(1, n + 1)}}


def vect_values(n: int) -> dict[str, int]:
    """Dimension of each object label of the vector-space instance."""
    return {str(k): k for k in range(n + 1)}


def swindle_labels(n: int) -> list[str]:
    return [str(k) for k in range(n + 1)] + ["omega"]


def zmod_value(label: str) -> int:
    """Free rank of a label of the bounded abelian-groups slice."""
    if label == "0":
        return 0
    if label == "Z":
        return 1
    if label == "ZxZ":
        return 2
    if label.startswith("ZxZ/"):
        return 1
    if label.startswith("Z/"):
        return 0
    raise ValueError(f"no free rank known for {label!r}")


# ---------------------------------------------------------------- bracket words

WORD_LEAVES = (8, 32)  # leaf-count band of the query words


def word_tree(rng: random.Random, labels: list[str], depth: int, leaves: tuple[int, int]):
    """Random bracket word: at most ``depth`` levels, arity 3 or 5, a leaf count in ``leaves``.

    Bounding the leaf count keeps the cost of one op within a narrow band,
    so a run's median and tail do not hinge on a few outsized words.
    """
    while True:
        tree = _random_tree(rng, labels, depth)
        if leaves[0] <= _leaf_count(tree) <= leaves[1]:
            return tree


def _random_tree(rng, labels, depth, root=True):
    if depth == 0 or (not root and rng.random() < 0.5):
        return rng.choice(labels)
    return [_random_tree(rng, labels, depth - 1, False) for _ in range(rng.choice((3, 5)))]


def _leaf_count(tree) -> int:
    return 1 if isinstance(tree, str) else sum(_leaf_count(child) for child in tree)


def tree_text(tree) -> str:
    if isinstance(tree, str):
        return tree
    return "[" + ",".join(tree_text(child) for child in tree) + "]"


def tree_value(tree, values: dict[str, int], sign: int = 1) -> int:
    """Value of a word under an additive invariant: signs alternate inside brackets."""
    if isinstance(tree, str):
        return sign * values[tree]
    return sum(
        tree_value(child, values, sign if i % 2 == 0 else -sign) for i, child in enumerate(tree)
    )


def word_pair(rng: random.Random, values: dict[str, int], equal: bool) -> tuple[str, str, bool]:
    """Two word texts and whether they are equal under ``values``.

    An equal pair wraps a fresh random word w as [w, x1, y1, x2, y2] with
    labels chosen so that the values agree; an unequal-by-construction pair
    is two independent random words, whose verdict is still computed.
    """
    labels = sorted(values)
    by_value: dict[int, list[str]] = {}
    for label, v in values.items():
        by_value.setdefault(v, []).append(label)
    top = max(by_value)
    while True:
        w1 = word_tree(rng, labels, 3, WORD_LEAVES)
        v1 = tree_value(w1, values)
        if not equal:
            w2 = word_tree(rng, labels, 3, WORD_LEAVES)
            return tree_text(w1), tree_text(w2), tree_value(w2, values) == v1
        for _ in range(8):
            # four more leaves are added below
            w2 = word_tree(rng, labels, 2, (WORD_LEAVES[0] - 4, WORD_LEAVES[1] - 4))
            d = v1 - tree_value(w2, values)
            if abs(d) <= 2 * top:
                break
        if abs(d) <= 2 * top:
            break
    parts = [w2]
    for step in (d // 2, d - d // 2):
        # y - x = step with 0 <= x, y <= top
        x = rng.randint(max(0, -step), min(top, top - step))
        parts += [rng.choice(by_value[x]), rng.choice(by_value[x + step])]
    w2 = parts
    assert tree_value(w2, values) == v1
    return tree_text(w1), tree_text(w2), True


# ---------------------------------------------------------------- free heap words


def heap_letters(tree, reverse: bool = False) -> list[str]:
    """Letters of a bracket word in the free heap: even-position subtrees read backwards."""
    if isinstance(tree, str):
        return [tree]
    out: list[str] = []
    order = range(len(tree) - 1, -1, -1) if reverse else range(len(tree))
    for i in order:
        out += heap_letters(tree[i], reverse != (i % 2 == 1))
    return out


def reduced_text(tree) -> str:
    """Normal form as the CLI prints it: cancel adjacent equal letters until none remain."""
    letters = heap_letters(tree)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i] == letters[i + 1]:
                del letters[i:i + 2]
                changed = True
                break
    return letters[0] if len(letters) == 1 else "[" + ",".join(letters) + "]"


# ---------------------------------------------------------------- spec sizes


def set_triples(n: int) -> list[tuple[int, int, int]]:
    """Pushout squares (apex b, left a, right c) of finite sets up to size n."""
    return [
        (b, a, c)
        for b in range(n + 1)
        for a in range(b, n + 1)
        for c in range(b, n + 1)
        if a - b + c <= n
    ]


def vect_triples(n: int) -> list[tuple[int, int, int]]:
    """Pushout squares of vector spaces up to dimension n: left leg mono, right leg any."""
    return [
        (b, a, c)
        for b in range(n + 1)
        for a in range(b, n + 1)
        for c in range(n + 1)
        if a - b + c <= n
    ]


def nonzero_relations(triples) -> int:
    """Squares whose relation left - apex + right - result does not cancel."""
    return sum(1 for b, a, c in triples if a != b and c != b)


def demo_set_counts(n: int) -> dict[str, int]:
    """Line counts of the printed finite-sets spec."""
    pairs = [(a, b) for a in range(n + 1) for b in range(n + 1)]
    return {
        "object": n + 1,
        "pushout": len(set_triples(n)),
        "sum": sum(1 for a, b in pairs if a + b <= n),
        "product": sum(1 for a, b in pairs if a * b <= n),
    }


# ---------------------------------------------------------------- finite heaps


class CyclicProduct:
    """Z/m1 x Z/m2 x ... with elements labelled 'i' or 'i.j'."""

    def __init__(self, moduli: tuple[int, ...]):
        self.moduli = moduli
        self.elements = list(itertools.product(*(range(m) for m in moduli)))
        self.labels = [self.label(e) for e in self.elements]
        self.zero = self.elements[0]

    def label(self, e) -> str:
        return ".".join(str(x) for x in e)

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a):
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def op_table(self) -> dict[tuple[str, str], str]:
        return {
            (self.label(a), self.label(b)): self.label(self.add(a, b))
            for a in self.elements
            for b in self.elements
        }

    def inverse_table(self) -> dict[str, str]:
        return {self.label(a): self.label(self.neg(a)) for a in self.elements}

    def heap_table(self) -> dict[tuple[str, str, str], str]:
        """[a, b, c] = a - b + c."""
        return {
            (self.label(a), self.label(b), self.label(c)): self.label(
                self.add(self.add(a, self.neg(b)), c)
            )
            for a in self.elements
            for b in self.elements
            for c in self.elements
        }

    def retract_table(self, e) -> dict[tuple[str, str], str]:
        """a + b := [a, e, b] = a - e + b."""
        return {
            (self.label(a), self.label(b)): self.label(self.add(self.add(a, self.neg(e)), b))
            for a in self.elements
            for b in self.elements
        }

    def maps(self) -> list[tuple[str, dict[str, str], bool]]:
        """(name, map, is a heap morphism).

        Translation and doubling are affine, hence heap morphisms, and every
        heap morphism respects the retracts at e and its image.  Collapsing
        one element onto zero has an image of size n - 1, which for n >= 3
        is no coset, so it is not a heap morphism.
        """
        one = tuple(1 for _ in self.moduli)
        last = tuple(0 for _ in self.moduli[:-1]) + (1,)
        return [
            ("translate", {self.label(a): self.label(self.add(a, one)) for a in self.elements}, True),
            ("double", {self.label(a): self.label(self.add(a, a)) for a in self.elements}, True),
            (
                "collapse",
                {self.label(a): self.label(self.zero if a == last else a) for a in self.elements},
                False,
            ),
        ]

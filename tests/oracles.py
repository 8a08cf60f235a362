"""Independent oracles used by the test suite.

These deliberately avoid the library's own algorithms: free reduction is a
scan-until-fixpoint on explicit (letter, sign) pairs, matrix products are
schoolbook sums over row lists, determinants use cofactor expansion, Smith
factors come from gcds of minors, group isomorphy is decided by exhaustive
backtracking search over bijections, and group axioms, heap axioms and heap
morphisms are checked on every tuple of elements, and Hermite forms come
from extended-gcd row pairs over the whole matrix.  Six exceptions are
copies of library code as it was before a fast path or a merge replaced it:
``smith_with_transforms``, the Smith elimination with both transforms built
eagerly, which pins the lazily built row transform and the class
coordinates read off the column transform; ``dense_residue``, the dense
reduction against every pivot row of a Hermite form, which pins the sparse
``residue`` and lattice membership; ``parse_spec_by_columns``,
the spec parser that gave every token its column, which pins the parser's
specs and diagnostics; ``parse_bracket_word_by_chars``, the bracket-word
reader that scanned character by character before words were read as
regex tokens, which pins the tree or the message and column of any word;
``affine_by_signed_walk`` and ``word_by_reversal_walk``, the two walks
that flattened a bracket tree before ``bracket_letters`` served both,
which pin the abelian image, the heap word and the message of
an input with one fault; and ``morphism_check_by_lookup`` with
``retract_by_lookup``, the heap-morphism loop and the retract that looked
every bracket up in the ternary tables, which pin the whole morphism check,
witness included, and the retract tables in their key order.  The three
lattice checks as they were before they pushed relations through class
images are kept too: ``truss_check_by_relation_scan``,
``projection_by_two_scans`` and ``morphism_by_membership`` test each pushed
relation with one ``in_relation_lattice`` query, and pin the whole reports.
"""

from __future__ import annotations

import itertools
import re
from math import gcd

from k0heap.category import CategorySpec, ProjectionReport, PushoutEntry, zero_law_violations
from k0heap.dsl import Diagnostic, ParseResult, WordSyntaxError, split_lines
from k0heap.heaps import check_label
from k0heap.presentation import (
    AffineWord,
    MorphismReport,
    PresentationMorphism,
    Truss,
    TrussCheck,
    TrussViolation,
    UnknownGeneratorError,
    check_support,
    combine,
    in_relation_lattice,
)


def free_reduce_letters(letters):
    """Freely reduce the alternating word x1 * x2^-1 * x3 * ... and read it back."""
    pairs = [(x, 1 if i % 2 == 0 else -1) for i, x in enumerate(letters)]
    changed = True
    while changed:
        changed = False
        for i in range(len(pairs) - 1):
            if pairs[i][0] == pairs[i + 1][0] and pairs[i][1] == -pairs[i + 1][1]:
                del pairs[i:i + 2]
                changed = True
                break
    for i, (_, sign) in enumerate(pairs):
        assert sign == (1 if i % 2 == 0 else -1), "reduced word stopped alternating"
    return tuple(x for x, _ in pairs)


def affine_by_signed_walk(tree):
    """``normalize_affine`` as it was: each leaf's sign read off its node, labels checked in tree order."""
    acc = {}
    stack = [(tree, 1)]
    while stack:
        node, sign = stack.pop()
        if isinstance(node, str):
            label = check_label(node)
            acc[label] = acc.get(label, 0) + sign
            continue
        children = list(node)
        if not children or len(children) % 2 == 0:
            raise ValueError(f"bracket nodes need odd arity >= 1, got {len(children)}")
        stack.extend(zip(reversed(children), itertools.cycle((sign, -sign))))
    return AffineWord.from_coefficients(acc)


def word_by_reversal_walk(tree):
    """``word_from_tree``'s letters as they were: a subtree in an odd position reversed, labels checked last."""
    out = []
    stack = [(tree, False)]
    while stack:
        node, reverse = stack.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        children = list(node)
        if not children or len(children) % 2 == 0:
            raise ValueError(f"bracket nodes need odd arity >= 1, got {len(children)}")
        indices = range(len(children)) if reverse else range(len(children) - 1, -1, -1)
        for i in indices:
            stack.append((children[i], reverse != (i % 2 == 1)))
    for label in out:
        check_label(label)
    return tuple(out)


def matmul(a, b):
    """Product of two matrices given as lists of rows."""
    cols = len(b[0]) if b else 0
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(cols)] for row in a]


def det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def minor_gcd(rows, k):
    """gcd of all k x k minors (0 when every minor vanishes)."""
    m, n = len(rows), len(rows[0]) if rows else 0
    g = 0
    for rsel in itertools.combinations(range(m), k):
        for csel in itertools.combinations(range(n), k):
            minor = [[rows[i][j] for j in csel] for i in rsel]
            g = gcd(g, det_cofactor(minor))
    return g


def snf_oracle(rows):
    """(rank, invariant factors > 1) from the determinant-divisor formula."""
    m, n = len(rows), len(rows[0]) if rows else 0
    gs = [1]
    for k in range(1, min(m, n) + 1):
        g = minor_gcd(rows, k)
        if g == 0:
            break
        gs.append(g)
    rank = len(gs) - 1
    factors = [gs[k] // gs[k - 1] for k in range(1, len(gs))]
    return rank, tuple(d for d in factors if d > 1)


def element_order(group, x):
    n = 1
    acc = x
    while acc != group.identity:
        acc = group.op[(acc, x)]
        n += 1
    return n


def find_isomorphism(g1, g2):
    """Exhaustive backtracking search for a group isomorphism g1 -> g2.

    Returns a dict or None.  Partial assignments are closed under products
    as soon as both factors are assigned, which prunes the search hard
    enough for orders up to a few dozen.
    """
    if len(g1.carrier) != len(g2.carrier):
        return None
    orders1 = {x: element_order(g1, x) for x in g1.carrier}
    orders2 = {x: element_order(g2, x) for x in g2.carrier}
    if sorted(orders1.values()) != sorted(orders2.values()):
        return None

    def propagate(assign, used):
        queue = list(assign.items())
        while queue:
            queue = []
            items = list(assign.items())
            for a, fa in items:
                for b, fb in items:
                    c = g1.op[(a, b)]
                    fc = g2.op[(fa, fb)]
                    if c in assign:
                        if assign[c] != fc:
                            return False
                    else:
                        if fc in used:
                            return False
                        assign[c] = fc
                        used.add(fc)
                        queue.append((c, fc))
        return True

    elements = sorted(g1.carrier, key=lambda x: -orders1[x])

    def extend(assign, used):
        pending = [x for x in elements if x not in assign]
        if not pending:
            return dict(assign)
        x = pending[0]
        for y in g2.carrier:
            if y in used or orders2[y] != orders1[x]:
                continue
            trial = dict(assign)
            trial_used = set(used)
            trial[x] = y
            trial_used.add(y)
            if not propagate(trial, trial_used):
                continue
            found = extend(trial, trial_used)
            if found is not None:
                return found
        return None

    return extend({g1.identity: g2.identity}, {g2.identity})


def random_odd_word(rng, alphabet, max_len):
    length = rng.randrange(1, max_len + 1, 2)
    return tuple(rng.choice(alphabet) for _ in range(length))


def group_axiom_failure(carrier, op, identity, inverse):
    """First group-axiom failure as (message, witness), or None: the O(n^3) loops.

    Checks, in this order, distinct labels, the identity in the carrier,
    totality of both tables, that neither has an entry outside the carrier,
    the identity and inverse laws, and associativity on every triple; the
    messages and witnesses are those of ``GroupModel``.
    """
    members = set(carrier)
    if len(members) != len(carrier):
        return ("carrier labels must be distinct", ())
    if not carrier:
        return ("a group needs at least the identity element", ())
    if identity not in members:
        return (f"identity {identity!r} not in carrier", ())
    for a in carrier:
        if a not in inverse or inverse[a] not in members:
            return (f"inverse table not total at {a!r}", ())
        for b in carrier:
            if (a, b) not in op or op[(a, b)] not in members:
                return (f"operation table not total at ({a!r}, {b!r})", ())
    for a in inverse:
        if a not in members:
            return (f"inverse table has a stray entry at {a!r}", ())
    for key in op:
        if not (isinstance(key, tuple) and len(key) == 2 and members.issuperset(key)):
            return (f"operation table has a stray entry at {key!r}", ())
    for a in carrier:
        if op[(identity, a)] != a or op[(a, identity)] != a:
            return ("identity law fails", (a,))
        if op[(a, inverse[a])] != identity:
            return ("inverse law fails", (a,))
    for a, b, c in itertools.product(carrier, repeat=3):
        if op[(op[(a, b)], c)] != op[(a, op[(b, c)])]:
            return ("associativity fails", (a, b, c))
    return None


def heap_axiom_failure(carrier, table):
    """First heap-axiom failure of a ternary table by exhaustive search, or None.

    Checks totality, that no entry lies outside carrier^3, the cancellation
    laws [x,x,y] = y = [y,x,x] and para-associativity
    [[a,b,c],d,e] = [a,b,[c,d,e]] on every tuple, O(n^5).
    """
    members = set(carrier)
    for key in itertools.product(carrier, repeat=3):
        if table.get(key) not in members:
            return ("total", key)
    for key in table:
        if not (isinstance(key, tuple) and len(key) == 3 and members.issuperset(key)):
            return ("stray", key)
    for x, y in itertools.product(carrier, repeat=2):
        if table[(x, x, y)] != y or table[(y, x, x)] != y:
            return ("cancellation", (x, y))
    for a, b, c, d, e in itertools.product(carrier, repeat=5):
        if table[(table[(a, b, c)], d, e)] != table[(a, b, table[(c, d, e)])]:
            return ("para-associativity", (a, b, c, d, e))
    return None


def triple_morphism_failure(mapping, source_carrier, source_table, target_table):
    """First (x, y, z) with phi([x,y,z]) != [phi x, phi y, phi z], or None; O(n^3)."""
    for x, y, z in itertools.product(source_carrier, repeat=3):
        if mapping[source_table[(x, y, z)]] != target_table[(mapping[x], mapping[y], mapping[z])]:
            return (x, y, z)
    return None


def morphism_check_by_lookup(mapping, source, target, base=None):
    """(ok, witness, group_law_ok) of phi([x,e,y]) = [phi x, phi e, phi y], x and y in carrier order; O(n^2)."""
    e = source.carrier[0] if base is None and source.carrier else base
    for x in source.carrier:
        for y in source.carrier:
            if mapping[source.ternary[(x, e, y)]] != target.ternary[(mapping[x], mapping[e], mapping[y])]:
                return False, (x, e, y), None if base is None else False
    return True, None, None if base is None else True


def retract_by_lookup(carrier, ternary, e):
    """(op, inverse) of the retract at e: a + b = [a, e, b] and -a = [e, a, e], keys in carrier order."""
    op = {(a, b): ternary[(a, e, b)] for a in carrier for b in carrier}
    return op, {a: ternary[(e, a, e)] for a in carrier}


def smith_with_transforms(rows, cols):
    """(diagonal, left, right) of the Smith elimination, both transforms built as it runs.

    A copy of the library's elimination from before ``left`` was built on
    demand: every row operation is applied to ``left`` at once.
    """
    a = [list(r) for r in rows]
    m = len(a)
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_sub(target, source, q):
        for j in range(len(target)):
            target[j] -= q * source[j]

    def col_sub(mat, j, t, q):
        for row in mat:
            row[j] -= q * row[t]

    def col_swap(mat, j, t):
        for row in mat:
            row[j], row[t] = row[t], row[j]

    t = 0
    bound = min(m, cols)
    while t < bound:
        pos = [(i, j) for i in range(t, m) for j in range(t, cols) if a[i][j]]
        if not pos:
            break
        i0, j0 = min(pos, key=lambda ij: (abs(a[ij[0]][ij[1]]), ij))
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            col_swap(a, j0, t)
            col_swap(v, j0, t)
        while True:
            for i in range(m):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        row_sub(a[i], a[t], q)
                        row_sub(u[i], u[t], q)
            col_nz = [i for i in range(m) if i != t and a[i][t]]
            if col_nz:
                i = min(col_nz, key=lambda i: abs(a[i][t]))
                a[t], a[i] = a[i], a[t]
                u[t], u[i] = u[i], u[t]
                continue
            for j in range(cols):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        col_sub(a, j, t, q)
                        col_sub(v, j, t, q)
            row_nz = [j for j in range(cols) if j != t and a[t][j]]
            if row_nz:
                j = min(row_nz, key=lambda j: abs(a[t][j]))
                col_swap(a, j, t)
                col_swap(v, j, t)
                continue
            d = a[t][t]
            bad = next(
                ((i, j) for i in range(t + 1, m) for j in range(t + 1, cols) if a[i][j] % d),
                None,
            )
            if bad is None:
                break
            row_sub(a[t], a[bad[0]], -1)
            row_sub(u[t], u[bad[0]], -1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return tuple(a[i][i] for i in range(bound)), u, v


def hermite_rows(rows, cols):
    """Nonzero rows of the row Hermite normal form of the whole matrix.

    Each column is cleared below its pivot by unimodular 2x2 row operations
    built from the extended gcd of two entries; the pivot is then made
    positive and the entries above it reduced into [0, pivot).
    """
    a = [list(row) for row in rows]
    r = 0
    for c in range(cols):
        for i in range(r + 1, len(a)):
            if not a[i][c]:
                continue
            x0, y0, x1, y1, g, h = 1, 0, 0, 1, a[r][c], a[i][c]
            while h:
                q, g, h = g // h, h, g % h
                x0, x1, y0, y1 = x1, x0 - q * x1, y1, y0 - q * y1
            p, q = a[r][c] // g, a[i][c] // g  # x0*a[r][c] + y0*a[i][c] = g
            a[r], a[i] = ([x0 * u + y0 * v for u, v in zip(a[r], a[i])],
                          [p * v - q * u for u, v in zip(a[r], a[i])])
        if r < len(a) and a[r][c]:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            for j in range(r):
                q = a[j][c] // a[r][c]
                a[j] = [x - q * y for x, y in zip(a[j], a[r])]
            r += 1
    return a[:r]


def dense_residue(h, v):
    """``v`` reduced against the rows of ``h``, a row Hermite form given as a list of rows.

    Every pivot column is reduced into [0, pivot) by its row, in pivot order,
    so the result is the same for every vector of v + rowspan(h), and it is
    zero exactly when ``v`` lies in that span.
    """
    if any(len(v) != len(row) for row in h):
        raise ValueError(f"vector length {len(v)} does not match the rows")
    w = list(v)
    for row in h:
        c = next((j for j, x in enumerate(row) if x), None)
        if c is not None:
            q = w[c] // row[c]
            w = [x - q * y for x, y in zip(w, row)]
    return w


def axis_class_coordinates(p, base):
    """Each generator's class coordinates from the lattice alone.

    The relations of ``p`` are written in axis coordinates (every generator
    but ``base``), the whole matrix is brought to Hermite form, and the
    eager Smith elimination of its nonzero rows gives the coordinate map.
    """
    axis = [g for g in p.generators if g != base]
    h = hermite_rows([[r.as_dict().get(g, 0) for g in axis] for r in p.relations], len(axis))
    diagonal, _, right = smith_with_transforms(h, len(axis))
    rank = sum(1 for d in diagonal if d)
    coords = {}
    for g in p.generators:
        image = right[axis.index(g)] if g != base else [0] * len(axis)
        coords[g] = tuple(image[rank:]) + tuple(image[j] % d for j, d in enumerate(diagonal) if d > 1)
    return coords


# ------------------------------------------------------------- lattice checks
#
# The truss, projection and morphism checks as they were when each pushed
# relation was one membership query: the weighted sum of its words, tested by
# ``in_relation_lattice``.  The library now sums precomputed class images.

def _member(p, parts):
    return in_relation_lattice(p, combine((c, w.as_dict()) for c, w in parts))


def truss_check_by_relation_scan(p, table):
    known = frozenset(p.generators)
    for (g, h), w in table.entries.items():
        if g not in known or h not in known:
            raise UnknownGeneratorError(f"product entry ({g!r}, {h!r}) mentions unknown generators")
        check_support(known, w)
    if table.unit is not None and table.unit not in known:
        raise UnknownGeneratorError(f"unit {table.unit!r} is not a generator")
    omitted = set()
    for rel in p.relations:
        for x in p.generators:
            for side in ("left", "right"):
                parts = []
                for g, c in rel.terms:
                    pair = (x, g) if side == "left" else (g, x)
                    entry = table.entries.get(pair)
                    if entry is None:
                        omitted.add(pair)
                        break
                    parts.append((c, entry))
                else:
                    if not _member(p, parts):
                        return TrussCheck(ok=False, violation=TrussViolation(relation=rel, side=side, generator=x),
                                          omitted=tuple(sorted(omitted)), unit_law="unchecked", truss=None)
    unit_law = "unchecked"
    if table.unit is not None:
        unit_law = "ok"
        for g in p.generators:
            for pair in ((table.unit, g), (g, table.unit)):
                entry = table.entries.get(pair)
                if entry is None:
                    omitted.add(pair)
                elif not _member(p, ((1, entry), (-1, AffineWord.generator(g)))):
                    unit_law = "violated"
    return TrussCheck(ok=True, violation=None, omitted=tuple(sorted(omitted)), unit_law=unit_law,
                      truss=Truss(presentation=p, table=table))


def projection_by_two_scans(split, full):
    if split.generators != full.generators:
        raise ValueError("presentations must share the same generator tuple")
    for rel in split.relations:
        if not _member(full, ((1, rel),)):
            return ProjectionReport(contained=False, equal=False, witness=rel)
    for rel in full.relations:
        if not _member(split, ((1, rel),)):
            return ProjectionReport(contained=True, equal=False, witness=rel)
    return ProjectionReport(contained=True, equal=True)


def morphism_by_membership(src, dst, genmap):
    targets = frozenset(dst.generators)
    for g in src.generators:
        if g not in genmap:
            raise ValueError(f"generator map is not total: missing {g!r}")
        check_support(targets, genmap[g])
    for rel in src.relations:
        if not _member(dst, [(c, genmap[g]) for g, c in rel.terms]):
            return MorphismReport(ok=False, witness=rel)
    images = {g: genmap[g] for g in src.generators}
    return MorphismReport(ok=True, morphism=PresentationMorphism(source=src, target=dst, images=images))


# ---------------------------------------------------------------- spec parser
#
# The spec parser as it was when every token carried its column: each line is
# tokenized into (token, column) pairs, every label reference is recorded and
# resolved at the end, and the handler table is rebuilt per line.  The library
# now keeps plain tokens and works a column out only for a diagnostic.

_TOKEN = re.compile(r",|[^\s,]+")


class ColumnTokenParser:
    def __init__(self, src: SpecSource):
        self.src = src
        self.diagnostics: list[Diagnostic] = []
        self.objects: list[str] = []
        self.declared: set[str] = set()
        self.zero: tuple[str, int, int] | None = None
        self.unit: tuple[str, int, int] | None = None
        self.pushouts: list[PushoutEntry] = []
        self.sums: dict[tuple[str, str], str] = {}
        # (line, column) of each recorded sum entry, for late zero-law errors
        self.sum_positions: dict[tuple[str, str], tuple[int, int]] = {}
        self.products: dict[tuple[str, str], str] = {}
        # label references checked after all declarations are known
        self.references: list[tuple[str, int, int]] = []

    def error(self, line: int, col: int, message: str) -> None:
        self.diagnostics.append(Diagnostic("error", line, col, message))

    def warning(self, line: int, col: int, message: str) -> None:
        self.diagnostics.append(Diagnostic("warning", line, col, message))

    def run(self) -> ParseResult:
        for lineno, raw in enumerate(split_lines(self.src.text), start=1):
            code = raw.split("#", 1)[0]
            tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(code)]
            if not tokens:
                continue
            self.line(lineno, tokens)
        self.check_references()
        errors = any(d.severity == "error" for d in self.diagnostics)
        spec = None
        if not errors:
            spec = CategorySpec(
                objects=tuple(self.objects),
                pushouts=tuple(self.pushouts),
                zero=self.zero[0] if self.zero else None,
                sums=self.sums or None,
                products=self.products or None,
                unit=self.unit[0] if self.unit else None,
            )
        return ParseResult(spec=spec, diagnostics=tuple(self.diagnostics))

    def line(self, lineno: int, tokens: list[tuple[str, int]]) -> None:
        head, col = tokens[0]
        handler = {
            "object": self.parse_object,
            "zero": self.parse_zero,
            "unit": self.parse_unit,
            "pushout": self.parse_pushout,
            "sum": self.parse_sum,
            "product": self.parse_product,
        }.get(head)
        if handler is None:
            self.error(lineno, col, f"unknown directive {head!r}")
            return
        handler(lineno, tokens)

    def take_label(self, lineno: int, tokens, i: int, *, declare: bool = False) -> str | None:
        if i >= len(tokens):
            last_tok, last_col = tokens[-1]
            self.error(lineno, last_col + len(last_tok), "missing label")
            return None
        tok, col = tokens[i]
        if not declare and tok in self.declared:  # passed check_label when declared
            self.references.append((tok, lineno, col))
            return tok
        try:
            check_label(tok)
        except ValueError as exc:
            self.error(lineno, col, str(exc))
            return None
        if declare:
            if tok in self.declared:
                self.error(lineno, col, f"duplicate object {tok!r}")
                return None
            self.declared.add(tok)
        else:
            self.references.append((tok, lineno, col))
        return tok

    def expect(self, lineno: int, tokens, i: int, literal: str) -> bool:
        if i >= len(tokens):
            last_tok, last_col = tokens[-1]
            self.error(lineno, last_col + len(last_tok), f"expected {literal!r}")
            return False
        tok, col = tokens[i]
        if tok != literal:
            self.error(lineno, col, f"expected {literal!r}, got {tok!r}")
            return False
        return True

    def no_extra(self, lineno: int, tokens, i: int) -> bool:
        if i < len(tokens):
            tok, col = tokens[i]
            self.error(lineno, col, f"unexpected trailing token {tok!r}")
            return False
        return True

    def parse_object(self, lineno: int, tokens) -> None:
        name = self.take_label(lineno, tokens, 1, declare=True)
        if name is not None and self.no_extra(lineno, tokens, 2):
            self.objects.append(name)

    def parse_zero(self, lineno: int, tokens) -> None:
        if self.zero is not None:
            self.error(lineno, tokens[0][1], "duplicate zero declaration")
            return
        name = self.take_label(lineno, tokens, 1)
        if name is not None and self.no_extra(lineno, tokens, 2):
            self.zero = (name, lineno, tokens[1][1])

    def parse_unit(self, lineno: int, tokens) -> None:
        if self.unit is not None:
            self.error(lineno, tokens[0][1], "duplicate unit declaration")
            return
        name = self.take_label(lineno, tokens, 1)
        if name is not None and self.no_extra(lineno, tokens, 2):
            self.unit = (name, lineno, tokens[1][1])

    def parse_pushout(self, lineno: int, tokens) -> None:
        # pushout APEX -> LEFT [mono]?, APEX -> RIGHT [mono]? => RESULT
        i = 1
        apex = self.take_label(lineno, tokens, i)
        if apex is None or not self.expect(lineno, tokens, i + 1, "->"):
            return
        left = self.take_label(lineno, tokens, i + 2)
        if left is None:
            return
        i += 3
        left_mono = False
        if i < len(tokens) and tokens[i][0] == "[mono]":
            left_mono = True
            i += 1
        if not self.expect(lineno, tokens, i, ","):
            return
        i += 1
        apex2 = self.take_label(lineno, tokens, i)
        if apex2 is None or not self.expect(lineno, tokens, i + 1, "->"):
            return
        if apex2 != apex:
            self.error(lineno, tokens[i][1], f"apex mismatch: {apex2!r} does not repeat {apex!r}")
            return
        right = self.take_label(lineno, tokens, i + 2)
        if right is None:
            return
        i += 3
        right_mono = False
        if i < len(tokens) and tokens[i][0] == "[mono]":
            right_mono = True
            i += 1
        if not self.expect(lineno, tokens, i, "=>"):
            return
        result = self.take_label(lineno, tokens, i + 1)
        if result is None or not self.no_extra(lineno, tokens, i + 2):
            return
        if not (left_mono or right_mono):
            self.warning(
                lineno,
                tokens[0][1],
                "pushout has no [mono] leg: kept in the spec but it generates no relation",
            )
        self.pushouts.append(
            PushoutEntry(
                apex=apex,
                left=left,
                right=right,
                result=result,
                left_mono=left_mono,
                right_mono=right_mono,
            )
        )

    def parse_table_line(self, lineno: int, tokens, symbol: str):
        a = self.take_label(lineno, tokens, 1)
        if a is None or not self.expect(lineno, tokens, 2, symbol):
            return None
        b = self.take_label(lineno, tokens, 3)
        if b is None or not self.expect(lineno, tokens, 4, "="):
            return None
        c = self.take_label(lineno, tokens, 5)
        if c is None or not self.no_extra(lineno, tokens, 6):
            return None
        return a, b, c

    def parse_sum(self, lineno: int, tokens) -> None:
        parsed = self.parse_table_line(lineno, tokens, "+")
        if parsed is None:
            return
        a, b, c = parsed
        previous = self.sums.get((a, b))
        if previous is not None:
            if previous != c:
                self.error(lineno, tokens[0][1], f"conflicting sum for ({a}, {b}): {previous} vs {c}")
            else:
                self.warning(lineno, tokens[0][1], f"duplicate sum entry for ({a}, {b})")
            return
        self.sums[(a, b)] = c
        self.sum_positions[(a, b)] = (lineno, tokens[0][1])

    def parse_product(self, lineno: int, tokens) -> None:
        parsed = self.parse_table_line(lineno, tokens, "*")
        if parsed is None:
            return
        a, b, c = parsed
        previous = self.products.get((a, b))
        if previous is not None:
            if previous != c:
                self.error(
                    lineno, tokens[0][1], f"conflicting product for ({a}, {b}): {previous} vs {c}"
                )
            else:
                self.warning(lineno, tokens[0][1], f"duplicate product entry for ({a}, {b})")
            return
        self.products[(a, b)] = c

    def check_references(self) -> None:
        for label, lineno, col in self.references:
            if label not in self.declared:
                self.error(lineno, col, f"unknown object {label!r}")
        if self.zero is not None and self.zero[0] in self.declared:
            for a, b, c in zero_law_violations(self.zero[0], self.sums):
                line, col = self.sum_positions[(a, b)]
                self.error(line, col, f"sum {a} + {b} = {c} breaks the zero-object law")


def parse_spec_by_columns(src):
    """``ParseResult`` of the (token, column) parser for a ``SpecSource``."""
    return ColumnTokenParser(src).run()


# ---------------------------------------------------------------- bracket words
#
# The bracket-word reader as it was when it scanned the text one character at a
# time, skipping str.isspace() characters and working every column out from
# its position.  The library now reads '[', ']', ',' and labels as regex tokens.


def parse_bracket_word_by_chars(text: str):
    """Tree of ``text``, or a ``WordSyntaxError`` with the library's message and column."""
    n = len(text)
    pos = 0
    stack: list[tuple[list, int]] = []  # (children so far, column of the '[')
    node = None  # the node just completed, waiting for its parent
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if node is None:
            if pos >= n:
                raise WordSyntaxError("unexpected end of input", pos + 1)
            if text[pos] == "[":
                stack.append(([], pos + 1))
                pos += 1
                continue
            start = pos
            while pos < n and not text[pos].isspace() and text[pos] not in "[],":
                pos += 1
            node = text[start:pos]
            if not node:
                raise WordSyntaxError(f"expected a label, got {text[start]!r}", start + 1)
            try:
                check_label(node)
            except ValueError as exc:
                raise WordSyntaxError(str(exc), start + 1) from None
            continue
        if not stack:
            if pos != n:
                raise WordSyntaxError(f"unexpected trailing input {text[pos:]!r}", pos + 1)
            return node
        children, open_col = stack[-1]
        children.append(node)
        node = None
        if pos >= n:
            raise WordSyntaxError("unclosed bracket", open_col)
        if text[pos] == ",":
            pos += 1
            continue
        if text[pos] != "]":
            raise WordSyntaxError(f"expected ',' or ']', got {text[pos]!r}", pos + 1)
        pos += 1
        stack.pop()
        if len(children) % 2 == 0:
            raise WordSyntaxError(f"brackets need odd arity, got {len(children)} entries", open_col)
        node = children

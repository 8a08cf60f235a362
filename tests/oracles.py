"""Independent oracles used by the test suite.

These deliberately avoid the library's own algorithms: free reduction is a
scan-until-fixpoint on explicit (letter, sign) pairs, matrix products are
schoolbook sums over row lists, determinants use cofactor expansion, Smith
factors come from gcds of minors, group isomorphy is decided by exhaustive
backtracking search over bijections, and group axioms, heap axioms and heap
morphisms are checked on every tuple of elements.  The one exception is
``smith_with_transforms``: the library's Smith elimination as it was with
both transforms built eagerly, which pins the lazily built row transform
and the class coordinates read off the column transform.
"""

from __future__ import annotations

import itertools
from math import gcd


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
    totality of both tables, the identity and inverse laws, and associativity
    on every triple; the messages and witnesses are those of ``GroupModel``.
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

    Checks totality, the cancellation laws [x,x,y] = y = [y,x,x] and
    para-associativity [[a,b,c],d,e] = [a,b,[c,d,e]] on every tuple, O(n^5).
    """
    members = set(carrier)
    for key in itertools.product(carrier, repeat=3):
        if table.get(key) not in members:
            return ("total", key)
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

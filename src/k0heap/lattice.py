"""Exact integer matrix normal forms: Hermite and Smith.

All arithmetic is arbitrary-precision Python int.  A lattice is always the
integer span of the *rows* of a matrix: relations are row vectors over
generator coordinates, and a vector lies in the lattice exactly when its
``residue`` against the Hermite form is empty.

One Hermite algorithm: ``insert`` adds a sparse row to a reduced row
Hermite form kept as {pivot column: sparse row}.  A presentation's basis
inserts its relations (see ``presentation``), ``hnf`` the rows of [M | I],
whose Hermite form is [H | U].  ``residue``, its reduce step, touches only
the vector's own terms and the rows that clear them.  The Smith
elimination pivots on a least nonzero entry against entry growth and visits
every row from t on at step t; its row transform is built on first read.

Matrices are immutable values; every function returns fresh objects.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

from ._frozen import Frozen


class IntMatrix(Frozen):
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = [list(r) for r in rows]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
        else:
            width = 0 if cols is None else cols
        return cls(len(data), width, tuple(x for r in data for x in r))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]


class InvariantFactors(Frozen):
    """Canonical shape of a finitely generated abelian group.

    ``rank`` counts infinite cyclic factors; ``torsion`` lists the finite
    invariant factors d1 | d2 | ... with every di >= 2.
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...]):
        if rank < 0:
            raise ValueError("rank must be non-negative")
        for d in torsion:
            if d < 2:
                raise ValueError("torsion factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must form a divisibility chain: {a} does not divide {b}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", torsion)

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def report_lines(self) -> list[str]:
        return [f"rank {self.rank}", "torsion " + (" ".join(map(str, self.torsion)) or "none")]


class SmithDecomposition(Frozen):
    """``left @ matrix @ right`` is diagonal with the given diagonal entries.

    ``left`` is rows x rows and no library caller reads it, so it is built
    on first read, by rerunning the deterministic elimination on the stored
    matrix with the row transform kept; the instance ``__dict__`` holds it.
    """

    __slots__ = ("diagonal", "right", "_matrix", "__dict__")

    def __init__(self, diagonal: tuple[int, ...], right: IntMatrix, _matrix: IntMatrix):
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_matrix", _matrix)

    @cached_property
    def left(self) -> IntMatrix:
        m = self._matrix
        u = identity_matrix(m.rows).to_rows()
        _smith_inplace(m.to_rows(), u, identity_matrix(m.cols).to_rows())
        return IntMatrix.from_rows(u, cols=m.rows)

    @property
    def invariants(self) -> InvariantFactors:
        """Rank and torsion of the cokernel: a free factor per column past the nonzero diagonal, one per d > 1."""
        rank = self.right.cols - sum(1 for d in self.diagonal if d)
        return InvariantFactors(rank=rank, torsion=tuple(d for d in self.diagonal if d > 1))


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def _row_sub(target: list[int], source: list[int], q: int) -> None:
    target[:] = [x - q * y for x, y in zip(target, source)]


def residue(basis: Mapping[int, tuple], v: Mapping[int, int]) -> dict[int, int]:
    """Reduce the sparse vector ``v`` ({column: value}) against the rows of a row HNF.

    ``basis`` maps each row's pivot column to a tuple that starts (pivot,
    ((column, value), ...)), the row's other nonzero entries.  The least
    remaining column c is cleared by its pivot row, the only row with pivot
    >= c nonzero at c; the remainder is returned at the first c with no
    pivot row or one whose entry the pivot does not divide: empty exactly
    when ``v`` lies in the row span, and always ``v`` minus a vector of it.
    """
    w = {c: x for c, x in v.items() if x}
    while w:
        c = min(w)
        row = basis.get(c)
        if row is None or w[c] % row[0]:
            return w
        q = w.pop(c) // row[0]
        for j, x in row[1]:
            y = w.get(j, 0) - q * x
            if y:
                w[j] = y
            else:
                del w[j]
    return w


def insert(basis: dict[int, tuple], v: Mapping[int, int]) -> None:
    """Add the sparse vector ``v`` to ``basis``, a reduced row Hermite form, in place.

    A row is (pivot, its other entries as pairs for ``residue``, the same as
    a dict that an insert edits).  A remainder whose leading column c has no pivot row
    becomes one, made positive; otherwise one Euclid step leaves
    0 < v_c < pivot, v takes the pivot's place and the old row reduces on.
    Then each row a changed pivot left out of [0, pivot) is reduced again.
    """
    w, touched = residue(basis, v), []
    while w:
        c = min(w)
        old = basis.get(c)
        if old is None and w[c] < 0:
            w = {j: -x for j, x in w.items()}
        elif old is not None:
            _subtract(w, w[c] // old[0], c, old)
        basis[c] = (w.pop(c), tuple(w.items()), w)
        w = residue(basis, {c: old[0], **old[2]}) if old else {}
        touched.append(c)
    if not touched:
        return
    columns = sorted(basis)
    wide = {j for j in columns if basis[j][0] > 1}  # the only pivots a reduced row can be nonzero at
    for i in reversed(columns[:bisect_right(columns, max(touched))]):
        p, _, row = basis[i]
        bad = [j for j in (row if i in touched else touched) if j in basis and not 0 <= row.get(j, 0) < basis[j][0]]
        if not bad:
            continue
        for k in sorted(wide.union(bad)):  # row k, reduced, moves no other pivot entry
            if k > i:
                _subtract(row, row.get(k, 0) // basis[k][0], k, basis[k])
        basis[i] = (p, tuple(row.items()), row)


def _subtract(w: dict[int, int], q: int, c: int, row: tuple) -> None:
    """w -= q * (the basis row with pivot column c), in place, zeros dropped."""
    get = w.get
    for j, x in chain(((c, row[0]),), row[1]) if q else ():
        y = get(j, 0) - q * x
        if y:
            w[j] = y
        else:
            del w[j]


def basis_rows(basis: Mapping[int, tuple], cols: int) -> list[list[int]]:
    """The rows of a basis built by ``insert`` as dense lists of width ``cols``, in pivot order."""
    return [[p if j == c else d.get(j, 0) for j in range(cols)] for c, (p, _, d) in sorted(basis.items())]


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form: returns (H, U) with U unimodular and U*M = H, read off that of [M | I]."""
    n, basis = m.cols, {}
    for i in range(m.rows):
        insert(basis, {**dict(enumerate(m.row(i))), n + i: 1})
    rows = basis_rows(basis, n + m.rows)
    return IntMatrix.from_rows([r[:n] for r in rows], cols=n), IntMatrix.from_rows([r[n:] for r in rows], cols=m.rows)


def _smith_inplace(a: list[list[int]], u: list[list[int]], v: list[list[int]]) -> None:
    """Diagonalize ``a`` in place, mirroring row ops on ``u`` and column ops on ``v``.

    Every choice depends on ``a`` alone, so empty rows in ``u`` make each
    mirrored row operation free without changing ``a`` or ``v``.  The pivot
    is the first entry of least absolute value in (row, column) order.  At
    step t every row and column before t is zero off the diagonal, so step t
    visits the rows from t on, row operations on ``a`` touch the pivot row's
    support from t on, and column operations touch only row t of ``a`` once
    column t is clear; a zero row is never chosen or changed.
    """
    rows, cols = len(a), len(v)
    for t in range(min(rows, cols)):
        nonzero = ((abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j])
        least = next(nonzero, None)
        if least is None:
            break
        for entry in nonzero:  # nothing beats a 1, so stop at the first
            if least[0] == 1:
                break
            if entry[0] < least[0]:
                least = entry
        _, i0, j0 = least
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            for row in a[t:] + v:
                row[j0], row[t] = row[t], row[j0]
        while True:
            # clear column t with row operations
            pivot, p, col_nz = a[t], a[t][t], []
            support = [j for j in range(t, cols) if pivot[j]]
            for i in range(t + 1, rows):
                row = a[i]
                if row[t]:
                    q = row[t] // p
                    if q:
                        for j in support:
                            row[j] -= q * pivot[j]
                        _row_sub(u[i], u[t], q)
                    if row[t]:
                        col_nz.append(i)
            if col_nz:
                i = min(col_nz, key=lambda i: abs(a[i][t]))
                a[t], a[i] = a[i], a[t]
                u[t], u[i] = u[i], u[t]
                continue
            # clear row t with column operations; column t is zero off row t
            for j in range(t + 1, cols):
                q = pivot[j] // p
                if q:
                    pivot[j] -= q * p
                    for row in v:
                        row[j] -= q * row[t]
            row_nz = [j for j in range(t + 1, cols) if pivot[j]]
            if row_nz:
                j = min(row_nz, key=lambda j: abs(pivot[j]))
                for row in a[t:] + v:
                    row[j], row[t] = row[t], row[j]
                continue
            # pivot must divide the remaining submatrix for the chain property
            if abs(p) == 1:
                break
            bad = next((i for i in range(t + 1, rows) for j in range(t + 1, cols) if a[i][j] % p), None)
            if bad is None:
                break
            _row_sub(pivot, a[bad], -1)
            _row_sub(u[t], u[bad], -1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]


def smith_decomposition(m: IntMatrix) -> SmithDecomposition:
    """Diagonalize over the integers with unimodular transforms on both sides.

    The diagonal forms a divisibility chain d1 | d2 | ... followed by zeros.
    Only the column transform is built here; ``left`` waits until it is read.
    """
    a, v = m.to_rows(), identity_matrix(m.cols).to_rows()
    _smith_inplace(a, [[] for _ in range(m.rows)], v)
    return SmithDecomposition(
        diagonal=tuple(a[i][i] for i in range(min(m.rows, m.cols))),
        right=IntMatrix.from_rows(v, cols=m.cols),
        _matrix=m,
    )


def snf(m: IntMatrix) -> InvariantFactors:
    """Invariant factors of the cokernel Z^cols / rowspan(m)."""
    return smith_decomposition(m).invariants

"""Exact integer matrix normal forms: Hermite and Smith.

All arithmetic is arbitrary-precision Python int.  A lattice is always the
integer span of the *rows* of a matrix: relations are row vectors over
generator coordinates, and a vector lies in the lattice exactly when its
``residue`` against the Hermite form is empty.  ``residue`` works on sparse
vectors and sparse pivot rows, so reducing a relation touches only its own
terms and the rows that clear them; it serves the insertion of rows into a
Hermite basis (see ``presentation``, whose queries read the Smith
coordinates of the built lattice).  Entry growth during elimination is kept
in check by pivoting on a least nonzero entry.

Only the transforms a caller reads are built.  ``hnf`` returns its rows x
rows transform; a caller that needs none (a basis built one row at a time)
runs ``_hnf_inplace`` with empty transform rows, as ``smith_decomposition``
does for its row transform, which it builds on first read.

Matrices are immutable values; every function returns fresh objects.
"""

from __future__ import annotations

from functools import cached_property
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

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))


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
    def pivot_count(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def _row_sub(target: list[int], source: list[int], q: int) -> None:
    target[:] = [x - q * y for x, y in zip(target, source)]


def _hnf_inplace(a: list[list[int]], u: list[list[int]]) -> list[tuple[int, int]]:
    """Bring ``a`` to row Hermite normal form, mirroring row ops on ``u``.

    Returns the pivot positions (row, col) in order.  Pivots end positive,
    entries above a pivot reduced into [0, pivot), zero rows last.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    r = 0
    pivots: list[tuple[int, int]] = []
    for c in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if a[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
                u[r], u[i0] = u[i0], u[r]
            p = a[r][c]
            clean = True
            for i in range(r + 1, m):
                if a[i][c]:
                    q = a[i][c] // p
                    if q:
                        _row_sub(a[i], a[r], q)
                        _row_sub(u[i], u[r], q)
                    if a[i][c]:
                        clean = False
            if clean:
                break
        if r < m and a[r][c]:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            pivots.append((r, c))
            r += 1
    # normalize entries above each pivot into [0, pivot)
    for i, c in pivots:
        p = a[i][c]
        for j in range(i):
            q = a[j][c] // p
            if q:
                _row_sub(a[j], a[i], q)
                _row_sub(u[j], u[i], q)
    return pivots


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form: returns (H, U) with U unimodular and U*M = H."""
    a, u = m.to_rows(), identity_matrix(m.rows).to_rows()
    _hnf_inplace(a, u)
    return IntMatrix.from_rows(a, cols=m.cols), IntMatrix.from_rows(u, cols=m.rows)


def residue(pivots: Mapping[int, tuple[int, tuple[tuple[int, int], ...]]], v: Mapping[int, int]) -> dict[int, int]:
    """Reduce the sparse vector ``v`` ({column: value}) against the rows of a row HNF.

    ``pivots`` maps each row's pivot column to (pivot, ((column, value), ...))
    with the row's other nonzero entries.  The least remaining column c is
    cleared by its pivot row, the only row with pivot >= c that is nonzero at
    c; the remainder is returned at the first c with no pivot row or whose
    entry the pivot does not divide.  So it is empty exactly when ``v`` lies in
    the row span, and it always differs from ``v`` by a vector of that span.
    """
    w = {c: x for c, x in v.items() if x}
    while w:
        c = min(w)
        row = pivots.get(c)
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


def _smith_inplace(a: list[list[int]], u: list[list[int]], v: list[list[int]]) -> None:
    """Diagonalize ``a`` in place, mirroring row ops on ``u`` and column ops on ``v``.

    Every choice depends on ``a`` alone, so empty rows in ``u`` make each
    mirrored row operation free without changing ``a`` or ``v``.  The pivot
    is the first entry of least absolute value in (row, column) order.  At
    step t every row and column before t is zero off the diagonal, so row
    operations on ``a`` touch the pivot row's support from t on, column
    operations touch only row t of ``a`` once column t is clear, and step t
    visits only the ``live`` rows: t and the rows after it that were nonzero
    when the step began, in order.  A zero row is never chosen, subtracted
    from or divided into, so skipping it changes no choice.
    """
    rows, cols = len(a), len(v)
    live = [i for i in range(rows) if any(a[i])]
    for t in range(min(rows, cols)):
        nonzero = ((abs(a[i][j]), i, j) for i in live for j in range(t, cols) if a[i][j])
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
            if live[0] != t:  # row t was zero and now sits at i0
                live = [t] + [i for i in live if i != i0]
        if j0 != t:
            for row in [a[i] for i in live] + v:
                row[j0], row[t] = row[t], row[j0]
        while True:
            # clear column t with row operations
            pivot, p, col_nz = a[t], a[t][t], []
            support = [j for j in range(t, cols) if pivot[j]]
            for i in live:
                row = a[i]
                if row[t] and i != t:
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
                for row in [a[i] for i in live] + v:
                    row[j], row[t] = row[t], row[j]
                continue
            # pivot must divide the remaining submatrix for the chain property
            if abs(p) == 1:
                break
            bad = next((i for i in live[1:] for j in range(t + 1, cols) if a[i][j] % p), None)
            if bad is None:
                break
            _row_sub(pivot, a[bad], -1)
            _row_sub(u[t], u[bad], -1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        live = [i for i in live[1:] if any(a[i])]


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
    dec = smith_decomposition(m)
    r = dec.pivot_count
    return InvariantFactors(rank=m.cols - r, torsion=tuple(d for d in dec.diagonal if d > 1))

"""Exact dense linear algebra mod p, plus block helpers for the dual numbers.

Matrices are numpy int64 arrays with entries in [0, p).  Every reduction
step is followed by an explicit mod, and matmul splits its inner dimension so
that no int64 accumulation can overflow, so all arithmetic is exact for every
supported prime (p <= 2^31 - 1).

A matrix over A = F_p[e]/(e^2) is a pair (M0, M1) meaning M0 + e*M1.  Acting
on column vectors written as stacked pairs (x0; x1) it expands to the k-linear
block matrix [[M0, 0], [M1, M0]].  Multiplication by e sends (x0; x1) to
(0; x0).
"""

from __future__ import annotations

import numpy as np


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


INT64_MAX = 2**63 - 1


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for entries of absolute value below p."""
    inner = a.shape[1]
    if inner == 0 or b.shape[1] == 0 or a.shape[0] == 0:
        return zeros(a.shape[0], b.shape[1])
    # each product is at most (p-1)^2, so this many summands fit in int64
    chunk = INT64_MAX // (p - 1) ** 2
    if inner <= chunk:
        return (a @ b) % p
    out = zeros(a.shape[0], b.shape[1])
    for s in range(0, inner, chunk):
        out = (out + (a[:, s : s + chunk] @ b[s : s + chunk]) % p) % p
    return out


def rref(mat: np.ndarray, p: int):
    """Row-reduce a copy of mat mod p.  Returns (reduced, pivot_columns)."""
    m = mat % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            m[[r, i]] = m[[i, r]]
        # the pivot row is zero left of c, so only columns c: change
        inv = pow(int(m[r, c]), p - 2, p)
        m[r, c:] = (m[r, c:] * inv) % p
        hit = np.nonzero(m[:, c])[0]
        hit = hit[hit != r]
        if hit.size:
            m[hit, c:] = (m[hit, c:] - np.outer(m[hit, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank(mat: np.ndarray, p: int) -> int:
    """Rank mod p by forward elimination (no back substitution)."""
    if mat.size == 0:
        return 0
    m = mat % p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        below = np.nonzero(m[r + 1 :, c])[0]
        if below.size:
            idx = below + r + 1
            factors = (m[idx, c] * inv) % p
            m[idx, c:] = (m[idx, c:] - np.outer(factors, m[r, c:])) % p
        r += 1
    return r


class Span:
    """Incremental row space mod p with O(rank * width) membership.

    One echelon row per unit of rank, in insert order, each normalized to 1
    at its pivot (its first nonzero entry) and zero at the pivots of the
    rows before it.  Rows are not back-reduced, to keep memory down: that
    would rewrite old rows on every insert and hold more dense rows at
    once.  For the same reason rows are stored as int32, which holds every
    residue mod p <= 2^31 - 1.  Reduction walks the rows in order but jumps
    straight to the next row whose pivot entry is nonzero in the vector, so
    a sparse vector costs a few numpy steps instead of a Python step per
    row.
    """

    __slots__ = ("p", "width", "rows", "pivots")

    def __init__(self, width: int, p: int):
        self.p = p
        self.width = width
        self.rows = []  # echelon rows, pivot entry normalized to 1
        # pivot column per row, in insert order; the first len(rows) are live
        self.pivots = np.empty(width, dtype=np.intp)

    def _reduce(self, vec: np.ndarray):
        p = self.p
        v = np.asarray(vec, dtype=np.int64) % p
        rows = self.rows
        pivots = self.pivots[: len(rows)]
        i = 0
        while True:
            # row i is zero at the pivots of rows < i, so subtracting it
            # leaves the coefficients already cleared at zero
            nz = v[pivots[i:]].nonzero()[0]
            if not nz.size:
                return v
            i += int(nz[0])
            piv = pivots[i]
            c = np.multiply(rows[i][piv:], v[piv], dtype=np.int64)
            v[piv:] = (v[piv:] - c) % p
            i += 1

    def add(self, vec: np.ndarray) -> bool:
        """Insert if independent; returns True when the rank grew."""
        v = self._reduce(vec)
        nz = v.nonzero()[0]
        if not nz.size:
            return False
        piv = int(nz[0])
        inv = pow(int(v[piv]), self.p - 2, self.p)
        v = (v * inv) % self.p
        self.pivots[len(self.rows)] = piv
        self.rows.append(v.astype(np.int32))
        return True

    def add_many(self, mat: np.ndarray) -> list:
        """Insert the columns of mat in order; returns the indices of the
        columns that grew the rank."""
        return [j for j in range(mat.shape[1]) if self.add(mat[:, j])]


def kernel_basis(mat: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of the right kernel {x : mat x = 0}."""
    rows, cols = mat.shape
    if cols == 0:
        return zeros(0, 0)
    if rows == 0:
        return identity(cols)
    red, pivots = rref(mat, p)
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.nonzero(is_free)[0]
    out = zeros(cols, free.size)
    out[free, np.arange(free.size)] = 1
    for i, pc in enumerate(pivots):
        out[pc] = (-red[i, free]) % p
    return out


def solve(mat: np.ndarray, rhs: np.ndarray, p: int):
    """One solution of mat x = rhs (rhs may have several columns); None if none."""
    rows, cols = mat.shape
    rhs = rhs.reshape(rows, -1) % p
    aug = np.concatenate([mat % p, rhs], axis=1)
    red, pivots = rref(aug, p)
    ncols_rhs = rhs.shape[1]
    for i, c in enumerate(pivots):
        if c >= cols:
            return None
    out = zeros(cols, ncols_rhs)
    for i, c in enumerate(pivots):
        out[c] = red[i, cols:]
    return out % p


def column_basis(mat: np.ndarray, p: int) -> np.ndarray:
    """Reduced basis of the column space of mat, as columns: the rref of
    mat's transpose, transposed back."""
    return rref(mat.T, p)[0].T


def annihilator(mat: np.ndarray, p: int) -> np.ndarray:
    """Rows whose kernel is exactly the column space of mat."""
    if mat.shape[1] == 0:
        return identity(mat.shape[0])
    return kernel_basis(mat.T % p, p).T


# -- dual-number block form -------------------------------------------


def eps_times(x: np.ndarray) -> np.ndarray:
    """Multiplication by e on stacked coordinates: (x0; x1) -> (0; x0), for a
    vector or for each column of a matrix."""
    half = x.shape[0] // 2
    out = np.zeros_like(x)
    out[half:] = x[:half]
    return out


"""Exact sparse linear algebra mod p, plus block helpers for the dual numbers.

Matrices come in and go out as numpy int64 arrays with entries in [0, p).
There is one elimination, _eliminate, behind rref, rank, pivots and
cell_pivots.  It runs on sparse rows: each row is a {column: value} dict of
Python ints, taken from the nonzeros of a dense array or scattered straight
from a list of cells, and every step touches only the nonzeros of the rows
it changes.  Python ints never overflow, so elimination is exact for every
supported prime (p <= 2^31 - 1).  matmul stays dense and splits its inner
dimension so that no int64 accumulation can overflow.

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


def _sparse_rows(mat: np.ndarray, p: int) -> list:
    """The rows of mat mod p as {column: value} dicts of Python ints,
    nonzero values only."""
    r, c = np.nonzero(mat)
    vals = mat[r, c] % p
    if not vals.all():
        keep = vals.nonzero()[0]
        r, c, vals = r[keep], c[keep], vals[keep]
    return _cell_rows(r, c, vals, mat.shape[0])


def _cell_rows(r: np.ndarray, c: np.ndarray, vals: np.ndarray, nrows: int) -> list:
    """nrows {column: value} rows holding vals[k] at (r[k], c[k]): distinct
    cells, nonzero residues."""
    out = [{} for _ in range(nrows)]
    for i, j, v in zip(r.tolist(), c.tolist(), vals.tolist()):
        out[i][j] = v
    return out


def _eliminate(rows: list, ncols: int, p: int, full: bool) -> list:
    """Sparse Gaussian elimination mod p of {column: value} rows, which it
    consumes: [(pivot column, row)] in column order, each row 1 at its
    pivot.

    Columns are taken in order, and the pivot is the sparsest live row (one
    not yet a pivot) that hits the column; the pivot column is cleared from
    the other live rows, which is enough for the rank.  So the pivot columns
    are exactly the columns outside the span of the columns before them,
    whatever the pivot rows.  With full, each pivot row is then cleared at
    the later pivot columns, last row first, so the rows come out as the
    reduced row echelon form, which is unique whatever the pivot rows were.
    """
    hits = [set() for _ in range(ncols)]  # column -> live rows with a nonzero there
    for r, row in enumerate(rows):
        for c in row:
            hits[c].add(r)
    pivots = []
    live = sum(1 for row in rows if row)  # live rows that are not zero
    for c in range(ncols):
        if not live:
            break
        hit = hits[c]
        if not hit:
            continue
        r = min(hit, key=lambda r: len(rows[r]))
        row = rows[r]
        for k in row:
            hits[k].discard(r)
        inv = pow(row[c], -1, p)
        if inv != 1:
            row = {k: v * inv % p for k, v in row.items()}
        for t in list(hit):
            trow = rows[t]
            g = p - trow[c]
            # row is 1 at c, so this clears trow[c] as well
            for k, v in row.items():
                x = trow.get(k)
                if x is None:
                    trow[k] = g * v % p
                    hits[k].add(t)
                else:
                    x = (x + g * v) % p
                    if x:
                        trow[k] = x
                    else:
                        del trow[k]
                        hits[k].discard(t)
            if not trow:
                live -= 1
        pivots.append((c, row))
        live -= 1
    if full:
        # a reduced row is zero at every other pivot, so clearing one pivot
        # column cannot refill another
        done = {}
        for c, row in reversed(pivots):
            for k in [k for k in row if k in done]:
                g = p - row[k]
                for j, v in done[k].items():
                    x = (row.get(j, 0) + g * v) % p
                    if x:
                        row[j] = x
                    else:
                        del row[j]
            done[c] = row
    return pivots


def rref(mat: np.ndarray, p: int):
    """Row-reduce mat mod p.  Returns (reduced, pivot_columns)."""
    pivots = _eliminate(_sparse_rows(mat, p), mat.shape[1], p, True)
    out = zeros(len(pivots), mat.shape[1])
    ri, ci, vi = [], [], []
    for i, (_, row) in enumerate(pivots):
        ri += [i] * len(row)
        ci += row
        vi += row.values()
    out[ri, ci] = vi
    return out, [c for c, _ in pivots]


def pivots(mat: np.ndarray, p: int) -> list:
    """The pivot columns of mat mod p: in order, the columns outside the
    span of the columns before them.  One forward elimination (no back
    substitution)."""
    return [c for c, _ in _eliminate(_sparse_rows(mat, p), mat.shape[1], p, False)]


def rank(mat: np.ndarray, p: int) -> int:
    """Rank mod p: the number of pivot columns."""
    return len(pivots(mat, p))


def cell_pivots(r: np.ndarray, c: np.ndarray, vals: np.ndarray, shape, p: int) -> list:
    """pivots of the matrix of the given shape whose nonzero cells hold
    vals[k] at (r[k], c[k]) (distinct cells, nonzero residues), eliminated
    on rows scattered from the cells, with no dense matrix."""
    return [col for col, _ in _eliminate(_cell_rows(r, c, vals, shape[0]), shape[1], p, False)]


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
    out[pivots] = -red[:, free] % p
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


# -- dual-number block form -------------------------------------------


def eps_times(x: np.ndarray) -> np.ndarray:
    """Multiplication by e on stacked coordinates: (x0; x1) -> (0; x0), for a
    vector or for each column of a matrix."""
    half = x.shape[0] // 2
    out = np.zeros_like(x)
    out[half:] = x[:half]
    return out


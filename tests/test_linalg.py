import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from spacecurves import linalg
from spacecurves.gradedmod import FreeModule, GradedMap
from spacecurves.polyring import Poly, monomials
from spacecurves.scalars import BaseRing

P = 32003


def _rand(rng, rows, cols):
    return rng.integers(0, P, size=(rows, cols), dtype=np.int64)


@pytest.mark.parametrize("shape", [(4, 6), (6, 4), (5, 5), (1, 7), (7, 1)])
def test_rank_plus_nullity(shape):
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = _rand(rng, *shape)
        r = linalg.rank(m, P)
        ker = linalg.kernel_basis(m, P)
        assert r + ker.shape[1] == shape[1]
        if ker.size:
            assert not linalg.matmul(m, ker, P).any()


def test_solve_consistent_and_inconsistent():
    rng = np.random.default_rng(1)
    m = _rand(rng, 5, 3)
    x = _rand(rng, 3, 1)
    rhs = linalg.matmul(m, x, P)
    sol = linalg.solve(m, rhs, P)
    assert sol is not None
    assert (linalg.matmul(m, sol, P) == rhs).all()
    # a vector outside the column space of a rank-deficient map
    m2 = np.zeros((3, 2), dtype=np.int64)
    m2[0, 0] = 1
    bad = np.array([[0], [1], [0]], dtype=np.int64)
    assert linalg.solve(m2, bad, P) is None


def test_pivots_are_the_columns_that_raise_the_rank():
    rng = np.random.default_rng(2)
    m = _rand(rng, 6, 10)
    assert len(linalg.pivots(m, P)) == linalg.rank(m, P)
    # a second copy of m raises the rank nowhere
    assert linalg.pivots(np.concatenate([m, m], axis=1), P) == linalg.pivots(m, P)
    # pivots are exactly the columns that raise the rank of the prefix;
    # repeated, dependent and zero columns are skipped
    a = _rand(rng, 6, 3)
    cols = [a[:, 0], np.zeros(6, dtype=np.int64), a[:, 1], a[:, 0],
            (2 * a[:, 0] + 5 * a[:, 1]) % P, a[:, 2], a[:, 2]]
    for m, picks in ((np.array(cols).T, [0, 2, 5]), (_rand(rng, 4, 9), [0, 1, 2, 3])):
        grows = [
            j for j in range(m.shape[1])
            if linalg.rank(m[:, : j + 1], P) > linalg.rank(m[:, :j], P)
        ]
        assert grows == picks
        assert linalg.pivots(m, P) == picks


def _random_element(rng, F, degree):
    """A degree-`degree` element of F with a few random terms per summand."""
    base, p = F.base, F.base.p
    out = []
    for t in F.twists:
        mons = monomials(degree + t)
        terms = {}
        for k in rng.choice(len(mons), size=min(3, len(mons)), replace=False):
            b = int(rng.integers(0, p)) if base.dual else 0
            terms[mons[k]] = (int(rng.integers(1, p)), b)
        out.append(Poly(base, terms))
    return tuple(out)


def _prefix_cases(rng, p):
    """(prefix, candidates): monomial multiples of random elements, which are
    sparse, over F_p and the dual numbers; then dense seeded matrices."""
    cases = []
    for dual in (False, True):
        F = FreeModule(BaseRing(p, dual), [0, -1])
        gens = [_random_element(rng, F, 1) for _ in range(5)]
        # 50 multiples in a 30-dimensional fiber piece: many dependent ones
        mult = GradedMap.from_columns(F, gens, [1] * 5).matrix_at(3)
        half = mult.shape[1] // 2 if dual else mult.shape[1]
        # prefix: the first generator's multiples; candidates: everything,
        # so the prefix columns come round again
        cases.append((mult[:, : half // 5], mult[:, :half]))
        if dual:
            cases.append((linalg.eps_times(mult[:, :half]), mult[:, :half]))
    dense = rng.integers(0, p, size=(12, 5), dtype=np.int64)
    low = linalg.matmul(dense[:, :3], rng.integers(0, p, size=(3, 8), dtype=np.int64), p)
    cand = np.concatenate([low, dense, np.zeros((12, 2), dtype=np.int64), dense[:, :2]], axis=1)
    cases.append((dense[:, :2], cand))
    cases.append((np.zeros((12, 0), dtype=np.int64), rng.integers(0, p, size=(12, 20), dtype=np.int64)))
    return cases


@pytest.mark.parametrize("p", [2, 2**31 - 1])
def test_pivots_after_a_prefix_are_the_columns_that_raise_its_rank(p):
    rng = np.random.default_rng(7)
    for prefix, cand in _prefix_cases(rng, p):
        k = prefix.shape[1]
        joined = np.concatenate([prefix, cand], axis=1)
        picks = [c - k for c in linalg.pivots(joined, p) if c >= k]
        ranks = [
            linalg.rank(np.concatenate([prefix, cand[:, :j]], axis=1), p)
            for j in range(cand.shape[1] + 1)
        ]
        assert picks == [j for j in range(cand.shape[1]) if ranks[j + 1] > ranks[j]]
        # the forward rows, in pivot order: 1 at the own pivot, 0 left of it
        # and at the pivots of the rows before; a {column: value} row holds
        # only nonzero residues
        rows = linalg._eliminate(linalg._sparse_rows(joined, p), joined.shape[1], p, False)
        pivots = [piv for piv, _ in rows]
        assert len(pivots) == ranks[-1]
        for i, (piv, row) in enumerate(rows):
            assert all(0 < x < p for x in row.values())
            assert row[piv] == 1 and min(row) == piv
            assert not any(q in row for q in pivots[:i])


def test_eps_times_is_the_block_action():
    rng = np.random.default_rng(3)
    dim = 3
    block = np.zeros((2 * dim, 2 * dim), dtype=np.int64)
    block[dim:, :dim] = np.eye(dim, dtype=np.int64)  # [[0, 0], [I, 0]]
    for x in (_rand(rng, 2 * dim, 1)[:, 0], _rand(rng, 2 * dim, 4)):
        ex = linalg.eps_times(x)
        assert ex.shape == x.shape
        assert (ex == (block @ x) % P).all()
        assert not linalg.eps_times(ex).any()


def test_matmul_exact_at_largest_prime():
    p = 2**31 - 1
    rng = np.random.default_rng(4)
    a = rng.integers(0, p, size=(6, 40), dtype=np.int64)
    b = rng.integers(0, p, size=(40, 5), dtype=np.int64)
    want = [
        [sum(int(a[i, k]) * int(b[k, j]) for k in range(40)) % p for j in range(5)]
        for i in range(6)
    ]
    assert linalg.matmul(a, b, p).tolist() == want


# -- reference Gauss-Jordan over Python ints ---------------------------

REF_PRIMES = [2, 101, 32003, 2**31 - 1]


def _ref_rref(rows, p):
    """Reduced row echelon form and pivot columns, entry by entry."""
    m = [[x % p for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c]:
                f = m[k][c]
                m[k] = [(x - f * y) % p for x, y in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _ref_kernel(rows, ncols, p):
    """Kernel basis with one column per free variable (set to 1)."""
    red, pivots = _ref_rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        x = [0] * ncols
        x[fc] = 1
        for row, pc in zip(red, pivots):
            x[pc] = -row[fc] % p
        basis.append(x)
    return [[b[i] for b in basis] for i in range(ncols)]


def _reference_cases(rng, p):
    """Seeded matrices: square, tall, wide, rank-deficient, with zero,
    repeated and dependent columns."""
    def rand(r, c):
        return rng.integers(0, p, size=(r, c), dtype=np.int64)

    out = [rand(5, 5), rand(9, 4), rand(3, 8), rand(1, 6), rand(6, 1)]
    # rank 2 in a 6 x 7 matrix
    out.append(linalg.matmul(rand(6, 2), rand(2, 7), p))
    m = rand(5, 7)
    m[:, 1] = 0
    m[:, 3] = m[:, 0]
    m[:, 5] = (2 * m[:, 2] + (p - 1) * m[:, 4]) % p
    out.append(m)
    out.append(np.zeros((3, 4), dtype=np.int64))
    return out


@pytest.mark.parametrize("p", REF_PRIMES)
def test_elimination_matches_reference(p):
    rng = np.random.default_rng(5)
    for m in _reference_cases(rng, p):
        rows = m.tolist()
        ref_red, ref_piv = _ref_rref(rows, p)
        red, piv = linalg.rref(m, p)
        assert piv == ref_piv
        assert red.tolist() == ref_red
        assert linalg.rank(m, p) == len(ref_piv)
        assert linalg.kernel_basis(m, p).tolist() == _ref_kernel(rows, m.shape[1], p)
        # an already reduced matrix is its own reduced form
        again, again_piv = linalg.rref(red, p)
        assert again_piv == piv
        assert (again == red).all()


@st.composite
def _sparse_matrix(draw):
    """(p, matrix) at 0.5 % to 50 % nonzero, with zero, repeated and
    dependent rows and columns mixed in."""
    p = draw(st.sampled_from(REF_PRIMES))
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.005, 0.02, 0.1, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.integers(1, p, size=(rows, cols), dtype=np.int64)
    m[rng.random((rows, cols)) >= density] = 0
    for _ in range(draw(st.integers(0, 4))):
        axis = draw(st.integers(0, 1))
        n = m.shape[axis]
        a, b, c = (draw(st.integers(0, n - 1)) for _ in range(3))
        line = np.moveaxis(m, axis, 0)  # a view: rows of line are lines of m
        kind = draw(st.sampled_from(["zero", "repeat", "combine"]))
        if kind == "zero":
            line[a] = 0
        elif kind == "repeat":
            line[a] = line[b]
        else:
            x, y = (draw(st.integers(0, p - 1)) for _ in range(2))
            line[a] = (x * line[b] + y * line[c]) % p
    return p, m


@settings(max_examples=150, deadline=None, database=None)
@given(_sparse_matrix(), st.data())
@seed(13)
def test_sparse_elimination_matches_reference(case, data):
    p, m = case
    rows = m.tolist()
    ref_red, ref_piv = _ref_rref(rows, p)
    red, piv = linalg.rref(m, p)
    assert piv == ref_piv
    assert red.tolist() == ref_red
    assert linalg.rank(m, p) == len(ref_piv)
    assert linalg.kernel_basis(m, p).tolist() == _ref_kernel(rows, m.shape[1], p)
    # the sparsest-row pivot rule relies on the reduced form not depending
    # on the order of the rows
    perm = data.draw(st.permutations(range(m.shape[0])))
    again, again_piv = linalg.rref(m[perm], p)
    assert again_piv == piv
    assert again.tolist() == ref_red
    # the columns that raise the rank of the prefix are the pivot columns of
    # the reduced form; after a prefix of k columns, the later ones
    assert linalg.pivots(m, p) == ref_piv
    k = data.draw(st.integers(0, m.shape[1]))
    head = [c for c in ref_piv if c < k]
    assert linalg.pivots(m[:, :k], p) == head
    assert linalg.pivots(np.concatenate([m[:, :k], m], axis=1), p) == head + [k + c for c in ref_piv if c >= k]
    assert linalg.pivots(np.concatenate([m, m], axis=1), p) == ref_piv

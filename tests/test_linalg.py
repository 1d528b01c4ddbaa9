import numpy as np
import pytest

from spacecurves import linalg

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


def test_span_incremental_rank():
    rng = np.random.default_rng(2)
    m = _rand(rng, 6, 10)
    span = linalg.Span(6, P)
    span.add_many(m)
    assert span.rank == linalg.rank(m, P)
    for j in range(m.shape[1]):
        assert span.contains(m[:, j])
    # add_many picks exactly the columns that raise the rank of the prefix;
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
        assert linalg.Span(m.shape[0], P).add_many(m) == picks


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


def test_a_span_rank_counts_eps_directions():
    # over the dual numbers a free rank-1 piece contributes 2 to the
    # k-dimension; a pure-epsilon vector only 1
    dim = 2
    v_unit = np.array([[1], [0], [0], [0]], dtype=np.int64)
    v_eps = np.array([[0], [0], [1], [0]], dtype=np.int64)
    assert linalg.a_span_rank(v_unit, dim, P) == 2
    assert linalg.a_span_rank(v_eps, dim, P) == 1

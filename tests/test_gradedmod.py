import random
from functools import lru_cache
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from conftest import (
    FIBER_NAMES,
    RAO_K_NAMES,
    Span,
    annihilator_ref,
    ext_by_growing_cap,
    five_skew_lines_over_f2,
    general_lines,
    hilbert_function,
    hom_space_ref,
    ideal_module_by_cap,
    resolve_by_growing_cap_ref,
)

from spacecurves import gradedmod, linalg, raoclass
from spacecurves.gradedmod import (
    FreeModule,
    GradedMap,
    GradedModule,
    ModuleHom,
    PieceCalculus,
    _certify_resolution,
    _minimalize_map,
    _hom_matrix,
    _power_ideal_module,
    cohomology_table,
    cycles_cover,
    element_to_vector,
    ext_module,
    finite_data_to_module,
    finite_module_data,
    hom_space,
    image_min_gens,
    is_module_iso,
    kernel_min_gens,
    min_generators,
    random_hom,
    subquotient_module,
    torsion_module_data,
    vector_to_element,
)
from spacecurves.curve import validate_curve
from spacecurves.errors import CertificationError, MixedBase, NotLiftable, SpaceCurveError
from spacecurves.files import corpus_names, load_corpus
from spacecurves.groebner import (
    Ideal,
    _candidate_forms,
    _line_section,
    _nonzerodivisor,
    _saturation_certificate,
    _spans_binary_forms,
    ideal_intersect,
    ideal_sum,
)
from spacecurves.liaison import ideal_mod_surface, link
from spacecurves.polyring import Poly, graded_piece_dim, monomials, random_form
from spacecurves.raoclass import extravertize
from spacecurves.scalars import BaseRing


def I(base, *texts):
    return Ideal(base, [Poly.parse(t, base) for t in texts])


def _betti_twists(M):
    """Twists of the minimal fiber resolution, one tuple per step."""
    maps = M.tensor_residue_field().resolution()
    out = [tuple(sorted(maps[0].target.twists))]
    for m in maps:
        if m.source.rank:
            out.append(tuple(sorted(m.source.twists)))
    return out


def test_koszul_resolution_of_complete_intersection(K):
    RI = GradedModule.quotient_by_ideal(I(K, "X*Z", "Y*W"))
    assert _betti_twists(RI) == [(0,), (-2, -2), (-4,)]
    assert RI.regularity() == 2
    assert RI.projective_dimension()[0] == 2


def test_kpolynomial_reproduces_hilbert_function(K):
    RI = GradedModule.quotient_by_ideal(
        I(K, "X*Z - Y^2", "Y*W - Z^2", "X*W - Y*Z")
    )
    kp = RI.kpolynomial()
    for n in range(0, 8):
        expected = sum(c * comb(n + t + 3, 3) for t, c in kp.items() if n + t >= 0)
        assert RI.piece_dim(n) == expected


def test_ext_square_of_ci_22_is_shifted_self(K):
    RI = GradedModule.quotient_by_ideal(I(K, "X*Z", "Y*W"))
    E = ext_module(RI, 2)
    assert E.kpolynomial() == {t + 4: c for t, c in RI.kpolynomial().items()}
    for n in range(-4, 5):
        assert E.piece_dim(n) == RI.piece_dim(n + 4)
    assert is_module_iso(E, RI.shift(4)) == "yes"


def test_ext_vanishes_above_projective_dimension(K):
    RI = GradedModule.quotient_by_ideal(I(K, "X*Z", "Y*W"))
    assert ext_module(RI, 3).F0.rank == 0


def test_cohomology_euler_characteristic(K):
    IM = ideal_module_by_cap(I(K, "X*Z - Y^2", "Y*W - Z^2", "X*W - Y*Z"))
    table = cohomology_table(IM, "k", -2, 5)
    for n in range(-2, 6):
        chi = sum((-1) ** i * table[i].get(n, 0) for i in range(4))
        # ideal sheaf of a degree-3 genus-0 curve:
        # chi(O(n)) - chi(O_C(n)) as polynomial values
        expected = (n + 1) * (n + 2) * (n + 3) // 6 - (3 * n + 1)
        assert chi == expected


def test_module_iso_distinguishes_structures(K):
    A1 = GradedModule.quotient_by_ideal(I(K, "X", "Y", "Z", "W^2"))
    A2 = GradedModule.quotient_by_ideal(I(K, "X", "Y", "Z^2", "W"))
    B = GradedModule.quotient_by_ideal(I(K, "X", "Y", "Z", "W^2"))
    assert hilbert_function(A1, 0, 2) == hilbert_function(A2, 0, 2)
    assert is_module_iso(A1, B) == "yes"
    assert is_module_iso(A1, A2) == "no"


def test_strip_free_summands(K):
    # presentation [[X], [0]]: second generator is a split free summand
    X = Poly.parse("X", K)
    z = Poly.zero(K)
    pres = GradedMap(
        FreeModule(K, [-1]), FreeModule(K, [0, -5]), [[X], [z]]
    )
    M = GradedModule(pres)
    core, stripped = M.strip_free_summands()
    assert stripped == [-5]
    assert list(core.F0.twists) == [0]


def test_shift_semantics(K):
    M = ideal_module_by_cap(I(K, "X", "Y"))
    for h in (-2, 1, 3):
        S = M.shift(h)
        for n in range(0, 5):
            assert S.piece_dim(n) == M.piece_dim(n + h)


def test_finite_module_data_round_trip(K):
    M = GradedModule.quotient_by_ideal(I(K, "X", "Y", "Z", "W^2"))
    data = finite_module_data(M)
    assert data.dims == {0: 1, 1: 1}
    back = finite_data_to_module(data)
    assert is_module_iso(M, back) == "yes"
    dual = data.graded_dual()
    assert dual.dims == {-1: 1, 0: 1}


def test_projection_matches_pivot_loop(K, A):
    # reference: subtract the rref rows of the relations one pivot at a time
    def project_by_loop(pc, vec, n):
        p = pc.p
        red, piv = linalg.rref(pc.M.presentation.matrix_at(n).T, p)
        v = vec % p
        for r, c in enumerate(piv):
            if v[c]:
                v = (v - int(v[c]) * red[r]) % p
        return v[[c for c in range(len(v)) if c not in piv]]

    rng = np.random.default_rng(11)
    for M in (
        GradedModule.quotient_by_ideal(I(K, "X*Z - Y^2", "Y*W - Z^2", "X*W - Y*Z")),
        GradedModule.quotient_by_ideal(I(A, "X*Z", "Y*W + e*X^2")),
    ):
        pc = PieceCalculus(M)
        for n in range(5):
            full = pc.M.F0.piece_dim(n)
            vecs = rng.integers(-K.p, K.p, size=(4, full))
            for vec in vecs:
                assert (pc.project(vec, n) == project_by_loop(pc, vec, n)).all()
            # a matrix projects column by column
            want = np.array([project_by_loop(pc, vec, n) for vec in vecs]).T
            assert (pc.project(vecs.T, n) == want.reshape(pc.dim(n), 4)).all()
            # the non-pivot unit vectors are the quotient basis
            units = np.eye(full, dtype=np.int64)[:, pc._reducer(n)[2]]
            assert (pc.project(units, n) == np.eye(pc.dim(n), dtype=np.int64)).all()


def test_dual_base_free_piece_dims(A):
    F = GradedModule.free(A, [0])
    # k-dimension doubles over the dual numbers
    assert F.piece_dim(0) == 2
    assert F.piece_dim(1) == 8


def test_resolution_certifies_over_dual_base(A):
    RI = GradedModule.quotient_by_ideal(I(A, "X*Z", "Y*W"))
    assert _betti_twists(RI) == [(0,), (-2, -2), (-4,)]


def _minimalize_untracked(phi):
    # reference: the unit-pivot cancellation without generator tracking
    base = phi.base
    matrix = [list(row) for row in phi.matrix]
    tgt, src = list(phi.target.twists), list(phi.source.twists)
    while True:
        pivot = next(
            (
                (i, j)
                for i in range(len(tgt))
                for j in range(len(src))
                if not matrix[i][j].is_zero()
                and tgt[i] == src[j]
                and matrix[i][j].coefficient((0, 0, 0, 0))[0] % base.p
            ),
            None,
        )
        if pivot is None:
            break
        i, j = pivot
        c = matrix[i][j].coefficient((0, 0, 0, 0))
        inv = base.scalar(c[0], c[1]).invert()
        for jj in range(len(src)):
            if jj != j and not matrix[i][jj].is_zero():
                factor = matrix[i][jj].scale(inv)
                for ii in range(len(tgt)):
                    matrix[ii][jj] = matrix[ii][jj] - matrix[ii][j] * factor
        matrix = [[f for jj, f in enumerate(row) if jj != j] for ii, row in enumerate(matrix) if ii != i]
        del tgt[i], src[j]
    cols = [j for j in range(len(src)) if any(not row[j].is_zero() for row in matrix)]
    return GradedMap(
        FreeModule(base, [src[j] for j in cols]),
        FreeModule(base, tgt),
        [[row[j] for j in cols] for row in matrix],
    )


def _check_tracking(phi):
    phi_min, kept, exprs = _minimalize_map(phi)
    ref = _minimalize_untracked(phi)
    assert (phi_min.source, phi_min.target) == (ref.source, ref.target)
    assert phi_min.matrix == ref.matrix
    # kept indexes the surviving cover generators, each of which is itself
    assert kept == sorted(kept)
    assert phi_min.target.twists == tuple(phi.target.twists[k] for k in kept)
    one, zero = Poly.one(phi.base), Poly.zero(phi.base)
    for a, k in enumerate(kept):
        assert exprs[k] == tuple(one if b == a else zero for b in range(len(kept)))
    # e_r - sum_a exprs[r][a] * e_kept[a] lies in the image of phi
    p = phi.base.p
    for r in range(phi.target.rank):
        elem = [one if i == r else zero for i in range(phi.target.rank)]
        for a, k in enumerate(kept):
            elem[k] = elem[k] - exprs[r][a]
        deg = -phi.target.twists[r]
        vec = element_to_vector(phi.target, tuple(elem), deg)
        assert linalg.solve(phi.matrix_at(deg), vec, p) is not None, r
    return phi_min, kept


def test_minimalize_tracks_generators_of_extravert_pushouts(monkeypatch, corpus_curves):
    seen = []

    def record(phi):
        seen.append(phi)
        return _minimalize_map(phi)

    monkeypatch.setattr(raoclass, "_minimalize_map", record)
    for name in ("twisted-cubic", "skew-lines", "quartic-from-skew-bilink", "line-dual"):
        extravertize(corpus_curves(name).ideal_module())
    assert len(seen) == 4
    for pres_raw in seen:
        _check_tracking(pres_raw)


def test_minimalize_tracks_generators_through_unit_pivots(K, A):
    # cover R + R(-1)^2, relations R(-1) + R(-2)^2: the degree-0 unit 3 + 2e
    # cancels cover generator 1 against relation 0, and the other degree-0
    # entry e (0 over the field) is not a unit, so generator 2 survives
    rows = [
        ["X + e*Y", "X*Y", "Z^2"],
        ["3 + 2*e", "Z", "W"],
        ["e", "W + e*X", "X + Y"],
    ]
    for base in (K, A):
        def parse(t):
            f = Poly.parse(t, A)
            return f if base.dual else f.fiber()

        phi = GradedMap(
            FreeModule(base, [-1, -2, -2]),
            FreeModule(base, [0, -1, -1]),
            [[parse(t) for t in row] for row in rows],
        )
        phi_min, kept = _check_tracking(phi)
        assert kept == [0, 2]
        assert phi_min.source.twists == (-2, -2)


# -- monomial multiplication against the per-column loops -------------------


def _matrix_at_by_columns(phi, n):
    # reference: one monomial product -> element_to_vector per source monomial
    p = phi.base.p
    dual = phi.base.dual
    Dt = phi.target.fiber_dim(n)
    src_dims = phi.source.block_dims(n)
    Ds = sum(src_dims)
    width = 2 * Ds if dual else Ds
    height = 2 * Dt if dual else Dt
    out = np.zeros((height, width), dtype=np.int64)
    col = 0
    for j in range(phi.source.rank):
        d = n + phi.source.twists[j]
        column = phi.column(j)
        for m in monomials(d):
            elem = tuple(f * Poly(f.base, {m: (1, 0)}) for f in column)
            out[:, col] = element_to_vector(phi.target, elem, n)
            col += 1
    if dual:
        out[:, Ds:] = linalg.eps_times(out[:, :Ds])
    return out % p


PRIMES = (2, 3, 101, 32003, 2**31 - 1)


def _draw_entries(draw, base, tgt, src, with_eps):
    """A random Poly matrix of a map from twists src to twists tgt, with
    zero entries; with_eps draws e-coefficients too."""
    p = base.p
    matrix = []
    for t in tgt:
        row = []
        for u in src:
            mons = monomials(t - u)
            terms = {}
            if mons and draw(st.booleans()):
                for m in draw(st.lists(st.sampled_from(mons), min_size=1, max_size=4, unique=True)):
                    a = draw(st.integers(0, p - 1))
                    b = draw(st.integers(0, p - 1)) if with_eps else 0
                    terms[m] = (a, b) if (a, b) != (0, 0) else (1, 0)
            row.append(Poly(base, terms))
        matrix.append(row)
    return matrix


@st.composite
def _graded_map(draw, eps_over_field=False, base=None):
    """A random map between twisted free modules with zero entries and
    mixed twists, over base or a drawn one; eps_over_field puts
    e-coefficients into an F_p map."""
    if base is None:
        p = draw(st.sampled_from(PRIMES))
        base = BaseRing(p, draw(st.booleans()) and not eps_over_field)
    tgt = draw(st.lists(st.integers(-2, 1), min_size=1, max_size=3))
    src = draw(st.lists(st.integers(-4, 0), min_size=1, max_size=3))
    matrix = _draw_entries(draw, base, tgt, src, base.dual or eps_over_field)
    return GradedMap(FreeModule(base, src), FreeModule(base, tgt), matrix)


@st.composite
def _side_by_side_maps(draw):
    """Two or three random maps into one target, some of whose sources may
    be empty."""
    base = BaseRing(draw(st.sampled_from(PRIMES)), draw(st.booleans()))
    F = FreeModule(base, draw(st.lists(st.integers(-2, 1), min_size=1, max_size=3)))
    maps = []
    for _ in range(draw(st.integers(2, 3))):
        src = FreeModule(base, draw(st.lists(st.integers(-4, 0), max_size=3)))
        maps.append(GradedMap(src, F, _draw_entries(draw, base, F.twists, src.twists, base.dual)))
    return maps


@settings(max_examples=80, deadline=None, database=None)
@given(_side_by_side_maps())
@seed(31)
def test_hstack_ranks_the_dense_concatenation(maps):
    joined = GradedMap.hstack(*maps)
    p = joined.base.p
    assert joined.source.twists == sum((m.source.twists for m in maps), ())
    assert joined.target == maps[0].target
    for j, (m, k) in enumerate((m, k) for m in maps for k in range(m.source.rank)):
        assert joined.column(j) == m.column(k)
    for n in range(-2, 6):
        dense = np.concatenate([m.matrix_at(n) for m in maps], axis=1)
        assert joined.rank_at(n) == linalg.rank(dense, p), n


@st.composite
def _lift_problems(draw):
    """(phi, X, inside): X = phi o Y0 for a random Y0 (its columns zero at
    random), then one more column, a random target element that inside
    tells lies in the image of phi or not, read off the dense ranks."""
    base = BaseRing(draw(st.sampled_from((2, 101, 32003))), draw(st.booleans()))
    phi = draw(_graded_map(base=base))
    G = FreeModule(base, draw(st.lists(st.integers(-4, 1), min_size=1, max_size=3)))
    Y0 = GradedMap(G, phi.source, _draw_entries(draw, base, phi.source.twists, G.twists, base.dual))
    d = draw(st.integers(-1, 3))
    v = GradedMap(FreeModule(base, [-d]), phi.target, _draw_entries(draw, base, phi.target.twists, [-d], base.dual))
    joint = np.concatenate([phi.matrix_at(d), v.matrix_at(d)], axis=1)
    inside = linalg.rank(joint, base.p) == phi.rank_at(d)
    return phi, GradedMap.hstack(phi.compose(Y0), v), inside


@settings(max_examples=100, deadline=None, database=None)
@given(_lift_problems())
@seed(43)
def test_lift_solves_phi_y_equals_x_or_reports_a_missing_preimage(problem):
    phi, X, inside = problem
    Y = phi.lift(X)
    head = GradedMap.from_columns(X.target, [X.column(j) for j in range(X.source.rank - 1)], [-t for t in X.source.twists[:-1]])
    if not inside:
        assert Y is None
        Y = phi.lift(head)
        X = head
    assert Y is not None and Y.source == X.source and Y.target == phi.source
    assert phi.compose(Y).matrix == X.matrix
    for j in range(X.source.rank):
        if all(f.is_zero() for f in X.column(j)):
            assert all(f.is_zero() for f in Y.column(j))


def test_hstack_needs_one_target(K):
    F, G = FreeModule(K, [0]), FreeModule(K, [0, 1])
    with pytest.raises(ValueError):
        GradedMap.hstack(GradedMap.identity(F), GradedMap.identity(G))


@pytest.mark.parametrize("name", ["twisted-cubic", "skew-lines", "ci-2-2", "skew-lines-dual"])
def test_hom_space_counts_homs_modulo_the_trivial_ones(name):
    # Hom(R/I, R/I(d))_0 = (R/I)_d: f0 is a form of degree d, and a form in I
    # gives a trivial hom
    RI = GradedModule.quotient_by_ideal(load_corpus(name).to_ideal())
    for d in range(4):
        assert len(hom_space(RI, RI.shift(d))) == RI.piece_dim(d), d


def _is_surjective_by_dense_ranks(f, top):
    # reference: is_surjective_up_to as it was, ranking [f0 | target
    # relations] as one dense matrix per degree
    p = f.f0.base.p
    for n in range(f.target.min_degree(), top + 1):
        fm, psi = f.f0.matrix_at(n), f.target.presentation.matrix_at(n)
        joint = np.concatenate([fm, psi], axis=1) if psi.size else fm
        if linalg.rank(joint, p) != f.target.F0.piece_dim(n):
            return False
    return True


@settings(max_examples=80, deadline=None, database=None)
@given(_side_by_side_maps(), st.booleans(), st.integers(-1, 4))
@seed(37)
def test_is_surjective_up_to_matches_the_dense_test(maps, onto, top):
    # f0 is the first map, the target's relations the second; with onto, f0
    # also carries the identity of the target cover, so it is surjective
    f0, psi = maps[0], maps[1]
    if onto:
        f0 = GradedMap.hstack(f0, GradedMap.identity(f0.target))
    f = ModuleHom(GradedModule.free(f0.base, f0.source.twists), GradedModule(psi), f0)
    got = f.is_surjective_up_to(top)
    assert got == _is_surjective_by_dense_ranks(f, top)
    assert got or not onto


@pytest.mark.parametrize("name", RAO_K_NAMES + ["skew-lines-dual"])
def test_is_surjective_up_to_matches_the_dense_test_on_random_homs(name):
    # random combinations of a hom basis between Rao modules, as the
    # Monte-Carlo iso search draws them
    _, E3 = _rao_modules(name)
    M = E3.minimal_presentation()
    homs = hom_space(M, M)
    assert homs
    top = max(-t for t in M.F0.twists)
    rng = random.Random(3)
    seen = set()
    for _ in range(12):
        f = random_hom(homs, rng, M.base)
        got = f.is_surjective_up_to(top)
        assert got == _is_surjective_by_dense_ranks(f, top)
        seen.add(got)
    assert True in seen


@settings(max_examples=80, deadline=None, database=None)
@given(_graded_map())
@seed(7)
def test_matrix_at_matches_column_loop(phi):
    # from below every source block (all empty) to past the highest twist
    for n in range(-2, 6):
        assert (phi.matrix_at(n) == _matrix_at_by_columns(phi, n)).all(), n


@settings(max_examples=20, deadline=None, database=None)
@given(_graded_map(eps_over_field=True))
@seed(7)
def test_matrix_at_rejects_eps_over_a_prime_field(phi):
    for n in range(-2, 6):
        try:
            want = _matrix_at_by_columns(phi, n)
        except MixedBase:
            with pytest.raises(MixedBase):
                phi.matrix_at(n)
            with pytest.raises(MixedBase):
                phi.rank_at(n)
        else:
            assert (phi.matrix_at(n) == want).all(), n


@settings(max_examples=80, deadline=None, database=None)
@given(_graded_map())
@seed(19)
def test_rank_at_eliminates_the_nonzeros_of_matrix_at(phi):
    # the rows rank_at scatters from the cells are the dense matrix's
    # nonzeros, and its cache holds exactly the ranks it computed
    p = phi.base.p
    for n in range(-2, 6):
        r, c, v, shape = phi.cells_at(n)
        dense = phi.matrix_at(n)
        assert shape == dense.shape
        assert linalg._cell_rows(r, c, v, shape[0]) == linalg._sparse_rows(dense, p), n
        assert phi.rank_at(n) == linalg.rank(dense, p), n
    assert sorted(phi._cache) == list(range(-2, 6))
    assert all(type(rk) is int for rk in phi._cache.values())


def _min_generators_by_monomials(F, piece_fn, cap):
    # reference: span.add of one monomial product -> element_to_vector per multiple
    base = F.base
    p = base.p
    dual = base.dual
    gens = []
    degs = []
    for n in range(F.min_degree(), cap + 1):
        piece = piece_fn(n)
        if piece.shape[1] == 0:
            continue
        span = Span(p)
        for g, d in zip(gens, degs):
            for m in monomials(n - d):
                vec = element_to_vector(F, tuple(f * Poly(base, {m: (1, 0)}) for f in g), n)
                span.add({i: int(x) for i, x in enumerate(vec) if x})
        if dual:
            span.add_many(linalg.eps_times(piece))
        for j in span.add_many(piece):
            gens.append(vector_to_element(F, piece[:, j], n))
            degs.append(n)
    return gens, degs


def _generator_multiples(F, g, d, n):
    # reference: the vectors x^m * g for the degree-(n - d) monomials m, g a
    # degree-d element of F, as {index: value} dicts, one generator at a
    # time as the Span loop of min_generators took them
    out = []
    for m in monomials(n - d):
        vec = element_to_vector(F, tuple(f * Poly(F.base, {m: (1, 0)}) for f in g), n)
        out.append({i: int(x) % F.base.p for i, x in enumerate(vec) if x % F.base.p})
    return out


@settings(max_examples=60, deadline=None, database=None)
@given(_graded_map())
@seed(11)
def test_generator_multiples_match_a_one_column_map(phi):
    # the Span loops' multiples against the fiber columns of a one-column
    # GradedMap's matrix_at
    F = phi.target
    for j, u in enumerate(phi.source.twists):
        g, d = phi.column(j), -u
        for n in range(d - 1, d + 4):
            one = GradedMap.from_columns(F, [g], [d]).matrix_at(n)
            want = one[:, : graded_piece_dim(n - d)]
            got = _generator_multiples(F, g, d, n)
            assert len(got) == want.shape[1]
            for vec, col in zip(got, want.T):
                assert vec == {i: int(x) for i, x in enumerate(col) if x}


@pytest.mark.parametrize(
    "name", ["twisted-cubic", "skew-lines", "ci-2-2", "twisted-cubic-dual", "skew-lines-dual"]
)
def test_min_generators_matches_monomial_loop(name):
    # syzygies of the ideal's generators, then the syzygies of those
    ideal = load_corpus(name).to_ideal()
    base = ideal.base
    degs = [g.degree() for g in ideal.gens]
    phi = GradedMap(FreeModule(base, [-d for d in degs]), FreeModule(base, [0]), [list(ideal.gens)])
    cap = max(degs) * 2 + 4
    for step in range(2):
        def piece(n, phi=phi):
            return linalg.kernel_basis(phi.matrix_at(n), base.p)

        def dim(n, phi=phi):
            return phi.source.piece_dim(n) - phi.rank_at(n)

        phi = min_generators(phi.source, piece, dim, cap)
        assert _gens_and_degs(phi) == _min_generators_by_monomials(phi.target, piece, cap)
        assert phi.source.rank or step  # the ideal always has first syzygies


def _gens_and_degs(gmap):
    """(generators, degrees) of the map min_generators returns."""
    return [gmap.column(j) for j in range(gmap.source.rank)], [-t for t in gmap.source.twists]


def _min_generators_by_span(F, piece_fn, dim_fn, cap):
    # reference: min_generators as it was before it ranked the generator map,
    # pushing every monomial multiple of every generator through a Span and
    # building the piece only where they do not fill it
    base = F.base
    gens = []
    degs = []
    for n in range(F.min_degree(), cap + 1):
        dim = dim_fn(n)
        if dim == 0:
            continue
        span = Span(base.p)
        half = F.fiber_dim(n)
        for g, d in zip(gens, degs):
            for vec in _generator_multiples(F, g, d, n):
                if base.dual:  # before add consumes vec
                    span.add({i + half: v for i, v in vec.items() if i < half})
                span.add(vec)
        if len(span.rows) == dim:
            continue
        piece = piece_fn(n)
        if base.dual:
            span.add_many(linalg.eps_times(piece))
        for j in span.add_many(piece):
            gens.append(vector_to_element(F, piece[:, j], n))
            degs.append(n)
    return gens, degs


def _min_generators_unskipped(F, piece_fn, cap):
    # reference: min_generators as it was before it skipped the degrees that
    # the multiples fill, building every piece and adding every column
    base = F.base
    gens = []
    degs = []
    for n in range(F.min_degree(), cap + 1):
        piece = piece_fn(n)
        if piece.shape[1] == 0:
            continue
        span = Span(base.p)
        for g, d in zip(gens, degs):
            for vec in _generator_multiples(F, g, d, n):
                span.add(vec)
        if base.dual:
            span.add_many(linalg.eps_times(piece))
        for j in span.add_many(piece):
            gens.append(vector_to_element(F, piece[:, j], n))
            degs.append(n)
    return gens, degs


def _kernel_and_image_pieces(phi):
    """(module, piece_fn, dim_fn) for ker(phi) and for im(phi)."""
    p = phi.base.p
    return [
        (phi.source, lambda n: linalg.kernel_basis(phi.matrix_at(n), p),
         lambda n: phi.source.piece_dim(n) - phi.rank_at(n)),
        (phi.target, lambda n: linalg.column_basis(phi.matrix_at(n), p), phi.rank_at),
    ]


@settings(max_examples=60, deadline=None, database=None)
@given(_graded_map())
@seed(13)
def test_min_generators_skip_matches_the_unskipped_loop(phi):
    for F, piece, dim in _kernel_and_image_pieces(phi):
        assert _gens_and_degs(min_generators(F, piece, dim, 6)) == _min_generators_unskipped(F, piece, 6)


@settings(max_examples=80, deadline=None, database=None)
@given(_graded_map())
@seed(23)
def test_min_generators_matches_the_span_loop(phi):
    # the same generators as the Span loop, and every rank the returned map
    # caches is the rank of its own matrix
    p = phi.base.p
    for F, piece, dim in _kernel_and_image_pieces(phi):
        got = min_generators(F, piece, dim, 6)
        assert _gens_and_degs(got) == _min_generators_by_span(F, piece, dim, 6)
        for n, rk in got._cache.items():
            assert rk == linalg.rank(got.matrix_at(n), p), n


@pytest.mark.parametrize(
    "name", ["twisted-cubic", "skew-lines", "quartic-from-skew-bilink", "skew-lines-dual", "ci-2-2-dual"]
)
def test_min_generators_skip_matches_the_unskipped_loop_on_resolutions(name):
    RI = GradedModule.quotient_by_ideal(load_corpus(name).to_ideal())
    cap = RI.regularity() + 4
    for phi in (RI.presentation, *RI.resolution()):
        for F, piece, dim in _kernel_and_image_pieces(phi):
            got = min_generators(F, piece, dim, cap)
            assert _gens_and_degs(got) == _min_generators_unskipped(F, piece, cap)
            assert _gens_and_degs(got) == _min_generators_by_span(F, piece, dim, cap)


@pytest.mark.parametrize("p", [2, 3, 101, 32003, 2**31 - 1])
@pytest.mark.parametrize(
    "name", ["twisted-cubic", "skew-lines", "quartic-from-skew-bilink", "skew-lines-dual", "ci-2-2-dual"]
)
def test_resolution_ranks_are_the_ranks_of_the_maps_own_matrices(name, p):
    # every rank cached on a certified resolution, inherited from a smaller
    # generator map or not, is the rank of that map's matrix computed afresh
    dual = load_corpus(name).to_ideal().base.dual
    base = BaseRing(p, dual)
    RI = GradedModule.quotient_by_ideal(_curve_ideal(name, base))
    maps = RI.resolution()
    assert all(m._cache for m in maps)
    for m in maps:
        for n, rk in m._cache.items():
            assert type(rk) is int and rk == linalg.rank(m.matrix_at(n), p), (n, rk)


@pytest.mark.parametrize("p", [2, 3, 101, 32003, 2**31 - 1])
@pytest.mark.parametrize(
    "name", ["twisted-cubic", "skew-lines", "quartic-from-skew-bilink", "skew-lines-dual", "ci-2-2-dual"]
)
def test_min_generators_matches_the_span_loop_on_resolutions(name, p):
    dual = load_corpus(name).to_ideal().base.dual
    RI = GradedModule.quotient_by_ideal(_curve_ideal(name, BaseRing(p, dual)))
    cap = RI.regularity() + 4
    for phi in (RI.presentation, *RI.resolution()):
        for F, piece, dim in _kernel_and_image_pieces(phi):
            got = min_generators(F, piece, dim, cap)
            assert _gens_and_degs(got) == _min_generators_by_span(F, piece, dim, cap)


def _image_min_gens_to_cap(phi):
    # reference: image_min_gens as it was, scanning on a fresh copy of phi to
    # rel_top + 4, the first cap a resolution tries, past its top source degree
    phi = GradedMap(phi.source, phi.target, phi.matrix)
    p = phi.base.p
    cap = max(-t for t in phi.source.twists) + 4

    def piece(n):
        return linalg.column_basis(phi.matrix_at(n), p)

    return min_generators(phi.target, piece, phi.rank_at, cap), cap


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=16, deadline=None, database=None)
@given(data=st.data())
@seed(41)
def test_image_scan_ending_at_the_top_source_degree_matches_the_full_scan(p, dual, data):
    phi = data.draw(_graded_map(base=BaseRing(p, dual)))
    got = image_min_gens(phi)
    ref, cap = _image_min_gens_to_cap(phi)
    assert _gens_and_degs(got) == _gens_and_degs(ref)
    for n in range(phi.target.min_degree(), cap + 1):
        assert got.rank_at(n) == ref.rank_at(n), n


@pytest.mark.parametrize(
    "name", ["twisted-cubic", "skew-lines", "quartic-from-skew-bilink", "skew-lines-dual", "ci-2-2-dual"]
)
def test_resolving_ranks_the_presentation_only_up_to_its_top_degree(name, monkeypatch):
    # past the top degree of the presentation's relations their image has
    # no new generator, so the scan for them stops there; R/I ranks its
    # presentation in no degree at all, reading each rank off the ideal
    scanned = []
    built = []  # (map, degree) of each matrix built from a scanned map's cells
    eliminated = []  # (map, degree) of each rank of a scanned map not cached
    real_image, real_cells, real_rank = gradedmod.image_min_gens, GradedMap.cells_at, GradedMap.rank_at

    def image(phi):
        scanned.append(phi)
        return real_image(phi)

    def cells(self, n):
        built.extend((phi, n) for phi in scanned if phi is self)
        return real_cells(self, n)

    def rank(self, n):
        if n not in self._cache:
            eliminated.extend((phi, n) for phi in scanned if phi is self)
        return real_rank(self, n)

    monkeypatch.setattr(gradedmod, "image_min_gens", image)
    monkeypatch.setattr(GradedMap, "cells_at", cells)
    monkeypatch.setattr(GradedMap, "rank_at", rank)
    ideal = load_corpus(name).to_ideal()
    maps = GradedModule.quotient_by_ideal(ideal).resolution()
    # over A only the fiber is scanned: its resolution is lifted, not searched
    assert len(scanned) == 1 and not eliminated
    # the same presentation with no ideal kept, and the ideal module on its
    # first syzygies, are ranked up to the top degree only
    scanned.clear()
    GradedModule(ideal.generator_map()).resolution()
    GradedModule(maps[1]).resolution()
    assert scanned and eliminated
    for phi in scanned:
        top = max(-t for t in phi.source.twists)
        assert all(n <= top for m, n in built if m is phi), (top, [n for m, n in built if m is phi])


def _rank_off_by_one(degree, sign):
    """Ideal.piece_dim with sign added in one degree, for every ideal."""
    real = Ideal.piece_dim

    def piece_dim(self, n):
        return real(self, n) + (sign if n == degree else 0)

    return piece_dim


def _resolution_eliminating_every_rank(ideal):
    """Reference: R/I as the cokernel of a generator map with no ideal kept,
    so that each rank of each map of its resolution is eliminated."""
    M = GradedModule(ideal.generator_map())
    return M, M.resolution()


def _same_resolution(got, ref):
    assert len(got) == len(ref)
    for m, r in zip(got, ref):
        assert (m.source, m.target, m.matrix) == (r.source, r.target, r.matrix)


def _assert_lifted(M, maps, ref):
    """maps, M's resolution over A, is lifted from its fiber's: zero
    composites, each map's fiber the fiber resolution's map, each rank over
    A, eliminated afresh and cached, twice the fiber's, and the twists of
    ref, a resolution found by a search over A."""
    fib = M.fiber().resolution()
    p = M.base.p
    assert [m.source.twists for m in maps] == [r.source.twists for r in ref]
    assert maps[0].target == ref[0].target and len(fib) == len(maps)
    for a, b in zip(maps, maps[1:]):
        assert a.compose(b).is_zero()
    hi = gradedmod._twist_regularity(maps) + 4
    for m, m0 in zip(maps, fib):
        f = m.fiber()
        assert (f.source, f.target, f.matrix) == (m0.source, m0.target, m0.matrix)
        for n in range(m.target.min_degree(), hi + 1):
            assert linalg.rank(m.matrix_at(n), p) == 2 * linalg.rank(m0.matrix_at(n), p), n
        assert m._cache and all(rk == linalg.rank(m.matrix_at(n), p) for n, rk in m._cache.items())


@pytest.mark.parametrize("p", [2, 3, 101, 32003])
@pytest.mark.parametrize("kind", ["fixture", "lines"])
@settings(max_examples=6, deadline=None, database=None)
@given(data=st.data())
@seed(83)
def test_r_mod_i_resolves_as_the_reference_that_eliminates_every_rank(kind, p, data):
    # a fixture read at p over its own base, or 2-4 general lines over F_p
    # or 2 over A
    if kind == "fixture":
        cf = load_corpus(data.draw(st.sampled_from(corpus_names())))
        ideal = Ideal.parse(BaseRing(p, cf.base.dual), [str(g) for g in cf.gens])
    else:
        ideal = data.draw(general_lines(primes=(p,), field_lines=(2, 4), dual_lines=(2, 2))).ideal
    # the ranks read off the Hilbert numerator change no map of the
    # resolution, its regularity or its K-polynomial
    RI = GradedModule.quotient_by_ideal(ideal)
    try:
        M, ref = _resolution_eliminating_every_rank(ideal)
    except SpaceCurveError as e:  # a family that is not flat, on both sides
        with pytest.raises(type(e)):
            RI.resolution()
        return
    _same_resolution(RI.resolution(), ref)
    if ideal.base.dual:
        _same_resolution(RI.fiber().resolution(), M.fiber().resolution())
    assert RI.regularity() == M.regularity()
    assert RI.kpolynomial() == M.kpolynomial()
    assert all(RI.piece_dim(n) == M.piece_dim(n) for n in range(-1, RI.regularity() + 3))


@pytest.mark.parametrize("gens", [["1"], ["X", "1"], [], ["0"]])
def test_r_mod_i_of_the_unit_and_the_zero_ideal_resolves_as_the_reference(K, A, gens):
    # minimalizing cancels R itself against a unit: R/I = 0 takes no rank
    # off the ideal, whose degree-0 piece is all of R_0
    for base in (K, A):
        ideal = Ideal.parse(base, gens)
        RI = GradedModule.quotient_by_ideal(ideal)
        M, ref = _resolution_eliminating_every_rank(ideal)
        _same_resolution(RI.resolution(), ref)
        assert RI.kpolynomial() == M.kpolynomial() == ({} if "1" in gens else {0: 1})


def _certificate(ideal, top):
    # over A the certificate is the fiber's, once the family has handed the
    # fiber its nonzerodivisor, as resolution() does
    if ideal.base.dual:
        ideal.hand_down_nonzerodivisor()
        ideal = ideal.fiber()
    return ideal.regularity_certificate(top)


_OFF_BY_ONE_NAMES = ["line", "twisted-cubic", "skew-lines", "ci-2-2", "quartic-from-skew-bilink", "skew-lines-dual"]


def _off_by_one_cases():
    # kernels are taken, and exactness certified, up to m + 2, m the degree
    # of the ideal's regularity certificate
    for name in _OFF_BY_ONE_NAMES:
        ideal = load_corpus(name).to_ideal()
        cap = _certificate(ideal, max(g.degree() for g in ideal.gens)) + 2
        for degree in range(cap + 1):
            for sign in (1, -1):
                yield name, degree, sign


@pytest.mark.parametrize("name, degree, sign", list(_off_by_one_cases()))
def test_a_rank_off_by_one_up_to_the_cap_is_a_certification_error(name, degree, sign, monkeypatch):
    # every degree up to the cap at which the resolution is certified is
    # read, so a numerator-read rank one off there ends in
    # CertificationError, never in a resolution
    monkeypatch.setattr(Ideal, "piece_dim", _rank_off_by_one(degree, sign))
    with pytest.raises(CertificationError):
        GradedModule.quotient_by_ideal(load_corpus(name).to_ideal()).resolution()


# -- the regularity certificate --------------------------------------------


def _count_growing_caps(monkeypatch):
    calls = []
    real = gradedmod._resolve_by_growing_cap
    monkeypatch.setattr(gradedmod, "_resolve_by_growing_cap", lambda *args: calls.append(args) or real(*args))
    return calls


def _top_generator_degree(maps):
    return max(-t for t in maps[0].source.twists)


@pytest.mark.parametrize("name", corpus_names())
def test_the_regularity_certificate_is_the_regularity_of_each_fixture(name, monkeypatch):
    # m is reg(I) read off the resolution, through the fiber over A, and no
    # fixture is resolved on a growing cap
    calls = _count_growing_caps(monkeypatch)
    ideal = load_corpus(name).to_ideal()
    RI = GradedModule.quotient_by_ideal(ideal)
    top = _top_generator_degree(RI.resolution())
    m = _certificate(ideal, top)
    assert m == RI.tensor_residue_field().regularity() + 1
    fib = ideal.fiber()  # over A, with no nonzerodivisor handed down
    assert Ideal(fib.base, fib.gens).regularity_certificate(top) == m
    assert not calls


@pytest.mark.parametrize("n", [4, 5, 6])
def test_the_regularity_certificate_is_the_regularity_of_general_lines(n, monkeypatch):
    # n lines through random points over F_32003, as the README probes draw
    # them: the certified degree is reg(I), with no growing cap
    calls = _count_growing_caps(monkeypatch)
    base = BaseRing(32003, False)
    rng = random.Random(7)
    ideal = None
    for _ in range(n):
        forms = [Poly(base, {m: (rng.randrange(1, base.p), 0) for m in monomials(1)}) for _ in range(2)]
        ideal = Ideal(base, forms) if ideal is None else ideal_intersect(ideal, Ideal(base, forms))
    C = validate_curve(ideal)
    m = ideal.regularity_certificate(_top_generator_degree(C._ri().resolution()))
    assert m == C.regularity() + 1
    assert not calls


@pytest.mark.parametrize("name", corpus_names())
def test_a_certificate_one_degree_low_is_a_certification_error(name, monkeypatch):
    # at m - 1 a syzygy generator lies past the cap or past the certified
    # regularity: never a resolution
    ideal = load_corpus(name).to_ideal()
    m = _certificate(Ideal(ideal.base, ideal.gens), max(g.degree() for g in ideal.gens))
    monkeypatch.setattr(Ideal, "regularity_certificate", lambda self, top: m - 1)
    with pytest.raises(CertificationError):
        GradedModule.quotient_by_ideal(ideal).resolution()


@pytest.mark.parametrize("name", FIBER_NAMES)
def test_the_certificate_checks_are_hilbert_functions_of_i_plus_f_and_i_plus_f_plus_h(name):
    # with f the nonzerodivisor, HF(R/(I + f)) is the difference function of
    # HF(R/I); and the restrictions to the line {f = h = 0} span the binary
    # forms of degree m exactly when (I + f + h)_m = R_m.  Z and X + Y give
    # lines that meet the coordinate-aligned fixtures, where the check fails
    ideal = load_corpus(name).to_ideal()
    f = _saturation_certificate(ideal)
    f = Poly.variable(ideal.base, 3) if f == "W" else f
    hf = ideal.quotient_piece_dim
    with_f = ideal_sum(ideal, Ideal(ideal.base, [f]))
    assert all(with_f.quotient_piece_dim(n) == hf(n) - hf(n - 1) for n in range(8))
    linear = [h for h in _candidate_forms(ideal.base) if h.degree() == 1]
    failed = 0
    for h in [Poly.parse("Z", ideal.base), Poly.parse("X + Y", ideal.base)] + linear[1:4]:
        section = _line_section(ideal.gens, f, h, ideal.base.p)
        with_fh = ideal_sum(with_f, Ideal(ideal.base, [h]))
        for m in range(1, 6):
            spans = _spans_binary_forms(section, m, ideal.base.p)
            assert spans == (with_fh.quotient_piece_dim(m) == 0), (h, m)
            failed += not spans
    assert _line_section(ideal.gens, f, f, ideal.base.p) is None
    assert failed


def _line_section_ref(gens, f, h, p):
    # the restrictions expanded term by term and factor by factor
    forms = np.array([[g.coefficient(e)[0] for e in monomials(1)] for g in (f, h)], dtype=np.int64)
    ker = linalg.kernel_basis(forms, p)
    if ker.shape[1] != 2:
        return None
    out = []
    for g in gens:
        section = [0] * (g.degree() + 1)
        for e, (a, _) in g.terms.items():
            term = [a]
            for x, k in zip(ker.tolist(), e):
                for _ in range(k):
                    term = [(c * x[0] + d * x[1]) % p for c, d in zip(term + [0], [0] + term)]
            section = [(c + d) % p for c, d in zip(section, term)]
        out.append(section)
    return out


@pytest.mark.parametrize("p", [2, 3, 101, 32003, 2**31 - 1])
def test_line_sections_are_the_term_by_term_restrictions(p):
    # random lines and forms of degree 0 to 5, one of them zero (its section
    # is empty); at p = 2 some pairs of linear forms are dependent (None)
    base = BaseRing(p, False)
    rng = random.Random(p)
    for _ in range(30):
        f, h = random_form(base, 1, rng), random_form(base, 1, rng)
        gens = [random_form(base, rng.randrange(6), rng) for _ in range(3)] + [Poly(base, {})]
        rng.shuffle(gens)
        assert _line_section(gens, f, h, p) == _line_section_ref(gens, f, h, p)


@pytest.mark.parametrize("p", [2, 3, 101, 32003])
@settings(max_examples=8, deadline=None, database=None)
@given(data=st.data())
@seed(97)
def test_the_certified_cap_resolves_unions_of_lines_as_the_growing_cap(p, data):
    # whenever a certificate is found it bounds reg(I), and the resolution
    # on its cap is the growing cap's; at p >= 101 one is always found
    with mock.patch.object(gradedmod, "_resolve_by_growing_cap", side_effect=gradedmod._resolve_by_growing_cap) as grown:
        C = data.draw(general_lines(primes=(p,), field_lines=(2, 5), dual_lines=(2, 3)))
    ideal = C.ideal
    RI = C._ri()
    maps = RI.resolution()
    m = _certificate(ideal, _top_generator_degree(maps))
    if m is not None:
        assert m >= RI.tensor_residue_field().regularity() + 1
    if p >= 101:
        assert m is not None and not grown.called
    ref = resolve_by_growing_cap_ref(GradedModule.quotient_by_ideal(ideal))
    if ideal.base.dual:
        # over A the certified cap resolves the fiber, and its lift has the
        # growing cap's twists
        _same_resolution(RI.fiber().resolution(), resolve_by_growing_cap_ref(GradedModule.quotient_by_ideal(ideal.fiber())))
        _assert_lifted(RI, maps, ref)
    else:
        _same_resolution(maps, ref)


@pytest.mark.parametrize("dual", [False, True])
def test_the_five_f2_lines_are_resolved_on_the_growing_cap(dual, monkeypatch):
    # no linear form is a nonzerodivisor there, so no certificate: R/I, and
    # over A only its fiber, takes the growing cap once, and gets its
    # resolution; over A that is lifted
    calls = _count_growing_caps(monkeypatch)
    ideal = five_skew_lines_over_f2(dual)
    C = validate_curve(ideal)
    maps = C._ri().resolution()
    assert _certificate(ideal, _top_generator_degree(maps)) is None
    assert len(calls) == 1 and not calls[0][0].base.dual
    ref = resolve_by_growing_cap_ref(GradedModule.quotient_by_ideal(ideal))
    if dual:
        _assert_lifted(C._ri(), maps, ref)
    else:
        _same_resolution(maps, ref)


@pytest.mark.parametrize("p", [2, 101, 32003])
@settings(max_examples=6, deadline=None, database=None)
@given(data=st.data())
@seed(113)
def test_a_family_of_lines_resolves_as_the_lift_of_its_fiber(p, data):
    # general lines over A with random e-parts: the resolution is the fiber's,
    # lifted, with twice its ranks and the twists a search over A finds
    C = data.draw(general_lines(primes=(p,), dual_lines=(2, 3), dual=True))
    RI = C._ri()
    maps = RI.resolution()
    assert any(f.terms and any(b for _, b in f.terms.values()) for f in maps[0].matrix[0])
    _assert_lifted(RI, maps, resolve_by_growing_cap_ref(GradedModule.quotient_by_ideal(C.ideal)))
    M = GradedModule(C.ideal.generator_map())
    _assert_lifted(M, M.resolution(), resolve_by_growing_cap_ref(M))


@pytest.mark.parametrize(
    "gens, ideal",
    [
        (("X", "e*Y"), False),  # a relation outside the lifted fiber relations
        (("X", "e*Y"), True),
        (("X^2", "X*Y + e*Z^2"), False),  # a syzygy Y*e1 - X*e2 that does not lift
        (("X^2", "X*Y + e*Z^2"), True),
    ],
)
def test_a_presentation_that_is_not_flat_does_not_lift(A, gens, ideal):
    # the fiber resolves, but its lift fails: NotLiftable, whether or not
    # the module keeps its ideal
    M = GradedModule.quotient_by_ideal(I(A, *gens)) if ideal else GradedModule(I(A, *gens).generator_map())
    assert M.fiber().resolution()
    with pytest.raises(NotLiftable, match="not flat"):
        M.resolution()


def test_min_generators_rejects_a_piece_of_the_wrong_dimension(K, A):
    for base in (K, A):
        phi = I(base, "X*Z - Y^2", "Y*W - Z^2", "X*W - Y*Z").generator_map()

        def piece(n):
            return linalg.column_basis(phi.matrix_at(n), base.p)

        assert min_generators(phi.target, piece, phi.rank_at, 2).source.rank == 3
        with pytest.raises(CertificationError, match="degree-2 piece has dimension"):
            min_generators(phi.target, piece, lambda n: phi.rank_at(n) - (n == 2), 2)


@pytest.mark.parametrize(
    "image, ideal, check",
    [
        (("X", "Y"), ("X", "Y", "Z"), "piece has dimension"),
        (("X*Z - Y^2", "Y*W - Z^2"), ("X*Z - Y^2", "Y*W - Z^2", "X*W - Y*Z"), "piece has dimension"),
        (("X", "Y"), ("X", "Y", "Z^20"), "do not count its Hilbert numerator"),
        (("X", "Y", "Z^20"), ("X", "Y"), "outside its ideal"),
        (("X", "Y"), ("X", "Y", "e*Z^20"), "do not count its Hilbert numerator"),
    ],
)
def test_ranks_read_off_an_ideal_that_is_not_the_image_are_a_certification_error(A, image, ideal, check):
    # a presentation whose image is not the kept ideal gets that ideal's
    # ranks; the resolution ends in CertificationError, never in a resolution
    M = GradedModule(I(A, *image).generator_map())
    M._cache["ideal"] = I(A, *ideal)
    with pytest.raises(CertificationError, match=check):
        M.resolution()
    if "e*Z^20" not in ideal:
        M = GradedModule(I(A, *image).fiber().generator_map())
        M._cache["ideal"] = I(A, *ideal).fiber()
        with pytest.raises(CertificationError, match=check):
            M.resolution()


def test_certify_resolution_rejects_a_dropped_generator_and_a_nonzero_composition(K, A):
    for base in (K, A):
        RI = GradedModule.quotient_by_ideal(I(base, "X*Z - Y^2", "Y*W - Z^2", "X*W - Y*Z"))
        maps = RI.resolution()
        cap = RI.regularity() + 4
        _certify_resolution(maps, cap)
        syz = maps[1]
        keep = list(range(syz.source.rank - 1))
        dropped = GradedMap(
            FreeModule(base, [syz.source.twists[j] for j in keep]),
            syz.target,
            [[row[j] for j in keep] for row in syz.matrix],
        )
        with pytest.raises(CertificationError, match="exactness fails"):
            _certify_resolution([maps[0], dropped], cap)
        d = syz.target.twists[0] - syz.source.twists[0]
        bent = [list(row) for row in syz.matrix]
        bent[0][0] = bent[0][0] + Poly.parse(f"W^{d}", base)
        bent = GradedMap(syz.source, syz.target, bent)
        with pytest.raises(CertificationError, match="nonzero composition"):
            _certify_resolution([maps[0], bent], cap)


# -- quotient-coordinate multiplication against the per-column loops --------


def _unit_columns(pc, n):
    # reference basis of quotient coordinates: the non-pivot unit vectors
    full = pc.M.F0.piece_dim(n)
    out = []
    for j in pc._reducer(n)[2]:
        vec = np.zeros(full, dtype=np.int64)
        vec[j] = 1
        out.append(vec)
    return out


def _mult_matrix_by_columns(pc, g, n):
    # reference: one vector_to_element -> Poly * -> element_to_vector per column
    F0, d = pc.M.F0, g.degree()
    out = np.zeros((pc.dim(n + d), pc.dim(n)), dtype=np.int64)
    for c, vec in enumerate(_unit_columns(pc, n)):
        moved = tuple(g * f for f in vector_to_element(F0, vec, n))
        out[:, c] = pc.project(element_to_vector(F0, moved, n + d), n + d)
    return out


def _eps_matrix_by_columns(pc, n):
    out = np.zeros((pc.dim(n), pc.dim(n)), dtype=np.int64)
    for c, vec in enumerate(_unit_columns(pc, n)):
        out[:, c] = pc.project(linalg.eps_times(vec), n)
    return out


def _rao_modules(name):
    RI = GradedModule.quotient_by_ideal(load_corpus(name).to_ideal())
    return RI, ext_module(RI, 3).shift(-4)


@pytest.mark.parametrize("name", ["skew-lines", "twisted-cubic", "skew-lines-dual", "line-dual"])
def test_quotient_multiplication_matches_column_loops(name):
    RI, E3 = _rao_modules(name)
    for M in (RI, E3):
        if not M.F0.rank:
            continue
        pc = PieceCalculus(M)
        base = M.base
        lo = pc.M.min_degree()
        polys = [Poly.variable(base, v) for v in range(4)]
        polys.append(Poly.parse("X*Y + 3*Z^2 + e*W^2" if base.dual else "X*Y + 3*Z^2", base))
        for n in range(lo, lo + 4):
            for g in polys:
                assert (pc.mult_matrix(g, n) == _mult_matrix_by_columns(pc, g, n)).all(), (n, g)
            if base.dual:
                assert (pc.eps_matrix_q(n) == _eps_matrix_by_columns(pc, n)).all(), n


def _assert_same_finite_data(a, b):
    assert a.dims == b.dims
    for got, want in ((a.actions, b.actions), (a.eps, b.eps)):
        assert got.keys() == want.keys()
        for key in got:
            assert got[key].shape == want[key].shape, key
            assert (got[key] == want[key]).all(), key


@pytest.mark.parametrize("name", ["skew-lines", "quartic-from-skew-bilink", "skew-lines-dual"])
def test_finite_module_data_commutes_with_shift(name):
    # route (b) twists the Ext^3 that validation built by -4 after reading
    # it, in place of reading a second Ext^3 built with the twist
    E = ext_module(GradedModule.quotient_by_ideal(load_corpus(name).to_ideal()), 3)
    a = finite_module_data(E.shift(-4))
    assert a.dims
    _assert_same_finite_data(a, finite_module_data(E).shift(-4))


def _power_ideal_by_syzygies(base, t):
    # reference: the minimal syzygies of the monomials of degree t, computed;
    # all of them have degree t + 1, so that is the cap
    mons = monomials(t)
    row = GradedMap(FreeModule(base, [-t] * len(mons)), FreeModule(base, [0]),
                    [[Poly(base, {m: (1, 0)}) for m in mons]])
    return kernel_min_gens(row, t + 1)


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_power_ideal_presentation_matches_syzygy_computation(t, K, A, corpus_curves):
    for base in (K, A):
        ref = _power_ideal_by_syzygies(base, t)
        got = _power_ideal_module(base, t).presentation
        assert got.target == ref.target
        assert got.source.twists == ref.source.twists == (-(t + 1),) * (6, 20, 45, 84)[t - 1]
        a, b = got.matrix_at(t + 1), ref.matrix_at(t + 1)
        # independent, and spanning the same degree t + 1 syzygies
        assert linalg.rank(np.concatenate([a, b], axis=1), base.p) == linalg.rank(a, base.p) == a.shape[1]
    # the same hom dimensions under either presentation
    for name in ("skew-lines", "twisted-cubic", "quartic-from-skew-bilink", "skew-lines-dual"):
        C = corpus_curves(name)
        pc = PieceCalculus(C._ri())
        got = _power_ideal_module(C.base, t).presentation
        ref = _power_ideal_by_syzygies(C.base, t)
        for n in range(-2, 3):
            assert _hom_dim(pc, got, n) == _hom_dim(pc, ref, n), (name, n)


def _hom_dim(pc, phi, n):
    # dim Hom(coker phi, M)_n, M the module of pc
    mat, _ = _hom_matrix(pc, phi, n)
    return mat.shape[1] - linalg.rank(mat, pc.p)


def _torsion_dims_by_columns(M, n_lo, n_hi):
    # reference: v in M_n is torsion iff every degree-c monomial kills it, c
    # past the regularity; one cover column at a time through Poly products
    p = M.base.p
    Mm = M.minimal_presentation()
    reg = Mm.regularity()
    out = {}
    for n in range(n_lo, n_hi + 1):
        c = max(reg + 2 - n, 1)
        full = Mm.F0.piece_dim(n)
        rows = []
        proj = annihilator_ref(Mm.presentation.matrix_at(n + c), p)
        for m in monomials(c):
            mat = np.zeros((proj.shape[0], full), dtype=np.int64)
            for col in range(full):
                vec = np.zeros(full, dtype=np.int64)
                vec[col] = 1
                elem = vector_to_element(Mm.F0, vec, n)
                moved = tuple(f * Poly(Mm.base, {m: (1, 0)}) for f in elem)
                w = element_to_vector(Mm.F0, moved, n + c)
                mat[:, col] = linalg.matmul(proj, w.reshape(-1, 1), p).reshape(-1)
            rows.append(mat)
        ker = linalg.kernel_basis(np.vstack(rows), p)
        # the torsion piece is the kernel modulo the relations
        rel = Mm.presentation.matrix_at(n)
        joint = np.concatenate([ker, rel], axis=1) if rel.size else ker
        out[n] = linalg.rank(joint.T, p) - linalg.rank(rel.T, p)
    return out


def _curve_ideal(name, base):
    # a corpus curve, or three skew lines, whose Rao module {0: 2, 1: 2} is
    # not killed by m
    if name != "three-skew-lines":
        return Ideal.parse(base, [str(g) for g in load_corpus(name).to_ideal().gens])
    lines = [Ideal.parse(base, texts) for texts in (("X", "Y"), ("Z", "W"), ("X-Z", "Y-W"))]
    return ideal_intersect(ideal_intersect(lines[0], lines[1]), lines[2])


@pytest.mark.parametrize("p", [2, 101, 32003])
@pytest.mark.parametrize("name", RAO_K_NAMES + ["three-skew-lines"])
def test_torsion_reader_matches_column_reference(name, p):
    # R/(I + f^t) has m-torsion ker(f^t on M_C)(-t*deg f), nonzero for these
    # curves; it vanishes past reg(R/I) + t*deg f - 1
    for dual in (False, True):
        base = BaseRing(p, dual)
        ideal = _curve_ideal(name, base)
        f = _nonzerodivisor(ideal)
        reg = GradedModule.quotient_by_ideal(ideal).regularity()
        for t in (1, 2):
            Q = GradedModule.quotient_by_ideal(ideal_sum(ideal, Ideal(base, [f**t])))
            top = reg + t * f.degree() - 1
            data = torsion_module_data(Q, top)
            ref = _torsion_dims_by_columns(Q, 0, top + 1)
            assert data.dims == {n: d for n, d in ref.items() if d}, (dual, t)
            assert data.dims, (dual, t)


# -- finite length from the pieces ---------------------------------------------


def _is_finite_length_by_regularity(M):
    # reference: is_finite_length as it was, from the resolution alone
    reg = M.regularity()
    return not any(M.piece_dim(n) for n in range(reg + 1, reg + 4))


@st.composite
def _finite_length_module(draw, base=None):
    """A random finite-length module presented by finite_data_to_module:
    the data of R/J for J = (X^a, Y^b, Z^c, W^d) plus up to two quadrics,
    shifted, over base or a drawn one."""
    if base is None:
        base = BaseRing(draw(st.sampled_from((2, 3, 101))), draw(st.booleans()))
    p = base.p
    powers = draw(st.lists(st.integers(1, 3), min_size=4, max_size=4))
    gens = [Poly(base, {tuple(a if v == i else 0 for v in range(4)): (1, 0)}) for i, a in enumerate(powers)]
    for _ in range(draw(st.integers(0, 2))):
        support = draw(st.lists(st.sampled_from(monomials(2)), min_size=1, max_size=3, unique=True))
        terms = {}
        for m in support:
            a = draw(st.integers(0, p - 1))
            b = draw(st.integers(0, p - 1)) if base.dual else 0
            terms[m] = (a, b) if (a, b) != (0, 0) else (1, 0)
        gens.append(Poly(base, terms))
    RJ = GradedModule.quotient_by_ideal(Ideal(base, gens))
    data = torsion_module_data(RJ, sum(powers) - 4)
    return finite_data_to_module(data.shift(draw(st.integers(-3, 3))))


def _assert_scan_agrees(M):
    # fresh modules on the same presentation: one answers by the old test,
    # one gives the regularity from its resolution
    ref, fresh = GradedModule(M.presentation), GradedModule(M.presentation)
    got = M.is_finite_length()
    assert got == _is_finite_length_by_regularity(ref)
    assert M.regularity() == fresh.regularity()
    return got


@settings(max_examples=25, deadline=None, database=None)
@given(_finite_length_module())
@seed(29)
def test_finite_length_scan_agrees_with_the_resolution_test(M):
    assert _assert_scan_agrees(M)


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("name", ["twisted-cubic", "skew-lines", "skew-lines-dual"])
def test_finite_length_scan_agrees_on_ideal_modules(name, p):
    base = BaseRing(p, load_corpus(name).to_ideal().base.dual)
    RI = GradedModule.quotient_by_ideal(_curve_ideal(name, base))
    for M in (RI, RI.syzygy_module(1)):
        assert not _assert_scan_agrees(GradedModule(M.presentation))
    # finite length for a curve; these ideals reduced mod p need not be one
    _assert_scan_agrees(GradedModule(ext_module(RI, 3).presentation))


@pytest.mark.parametrize("dual", [False, True])
def test_iso_precheck_compares_pieces_of_finite_length_modules(dual, monkeypatch):
    # modules of finite length that differ in one degree are told apart by
    # their pieces, with no resolution and no hom search; over A so are
    # A = R_A/m and k + k = (R_A/(m, e))^2, whose pieces agree and whose
    # fibers do not (only the first is flat)
    base = BaseRing(32003, dual)
    M = GradedModule.quotient_by_ideal(I(base, "X", "Y", "Z", "W^3"))
    N = GradedModule.quotient_by_ideal(I(base, "X", "Y", "Z", "W^2"))
    assert hilbert_function(M, 0, 1) == hilbert_function(N, 0, 1)
    pairs = [(M, N)]
    if dual:
        m = I(base, "X", "Y", "Z", "W")
        k = GradedModule.quotient_by_ideal(Ideal(base, list(m.gens) + [Poly.constant(base, 0, 1)]))
        Am, kk = GradedModule.quotient_by_ideal(m), raoclass.direct_sum(k, k)
        assert hilbert_function(Am, -1, 1) == hilbert_function(kk, -1, 1)
        pairs.append((Am, kk))

    def forbidden(*args):
        raise AssertionError("the pre-check should decide")

    monkeypatch.setattr(GradedModule, "resolution", forbidden)
    assert is_module_iso(M, M) == "yes"
    monkeypatch.setattr("spacecurves.gradedmod.hom_space", forbidden)
    for X, Y in pairs:
        assert is_module_iso(X, Y) == is_module_iso(Y, X) == "no"


# -- infinite length from a witness point -----------------------------------------


def _scan_alone(M):
    # is_finite_length of a fresh module on M's presentation with the
    # witness switched off: the piece scan and the resolution decide
    with mock.patch.object(gradedmod, "_support_witness", return_value=False):
        return GradedModule(M.presentation).is_finite_length()


@st.composite
def _module_for_the_witness(draw):
    """(module, of finite length by construction): finite_data_to_module
    data, or the cokernel of a random map, over F_p or A for p = 2, 3, 101
    and 32003."""
    base = BaseRing(draw(st.sampled_from((2, 3, 101, 32003))), draw(st.booleans()))
    if draw(st.booleans()):
        return draw(_finite_length_module(base=base)), True
    return GradedModule(draw(_graded_map(base=base))), False


@settings(max_examples=120, deadline=None, database=None)
@given(_module_for_the_witness())
@seed(47)
def test_a_witness_point_proves_infinite_length_and_the_scan_agrees(case):
    M, finite = case
    witness = gradedmod._support_witness(M.presentation)
    if finite:
        assert not witness
    if witness:
        assert not M.is_finite_length()
        assert not _scan_alone(M)
    else:
        assert M.is_finite_length() == _scan_alone(M)


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("p", [2, 3, 101, 32003])
def test_the_scan_decides_a_line_that_misses_every_witness_point(p, dual):
    # the line X = Y, Z = W passes through none of the coordinate points
    # and not through (1, 2, 3, 5): X - Y = -1 there at every p
    base = BaseRing(p, dual)
    M = GradedModule.quotient_by_ideal(I(base, "X - Y", "Z - W"))
    assert not gradedmod._support_witness(M.presentation)
    assert not M.is_finite_length()
    # the line X = Y = 0 passes through (0, 0, 1, 0)
    assert gradedmod._support_witness(GradedModule.quotient_by_ideal(I(base, "X", "Y")).presentation)


def test_a_curve_and_its_link_decide_each_finite_length_once(corpus_curves):
    # validation, the Rao duality route, cycles_cover and link all ask
    # whether Ext^3(R/I) has finite length: each module is decided once
    calls = []
    real = gradedmod._finite_length
    with mock.patch.object(gradedmod, "_finite_length", lambda M: calls.append(M) or real(M)):
        C = validate_curve(load_corpus("skew-lines").to_ideal())
        C.rao_module()
        link(C, Poly.parse("X*Z", C.base), Poly.parse("Y*W", C.base))
    assert calls and len(calls) == len({id(M) for M in calls})


# -- K-polynomials carried, not resolved -------------------------------------------


def _assert_carried(M):
    # a carried K-polynomial equals the one a fresh module on the same
    # presentation resolves for
    assert "kpoly" in M._cache
    assert M.kpolynomial() == GradedModule(M.presentation).kpolynomial()


@pytest.mark.parametrize("name", corpus_names())
def test_carried_kpolynomials_equal_the_resolved_ones(name, corpus_curves):
    C = corpus_curves(name)
    IM = C.ideal_module()
    N = raoclass.n_type_resolution(C).N
    E = raoclass.e_type_resolution(C).E
    # read off a cached resolution, over A included
    for X in (IM, N, E):
        X.kpolynomial()
        _assert_carried(X)
        assert X.regularity() == GradedModule(X.presentation).regularity()
    for h in (-2, 1, 3):
        _assert_carried(IM.shift(h))
    S = raoclass.direct_sum(N, GradedModule.free(C.base, [-1, 0, 2]))
    _assert_carried(S)
    _assert_carried(S.shift(-1))
    for Q in C.ideal.gens:
        _assert_carried(ideal_mod_surface(C, Q))
        _assert_carried(ideal_mod_surface(C, Q).shift(2))


# -- the top Ext off the last dual map -------------------------------------------


def _top_ext_by_subquotient(M):
    # reference: Ext^pd as it was built, the subquotient of the identity on
    # F_pd^dual modulo the image of a fresh copy of the last dual map, on a
    # growing cap that stops once two degrees past it agree
    delta = M.resolution()[-1].dual()
    home = delta.target
    identity = GradedMap.identity(home)
    cap = home.min_degree() + 6
    for _ in range(4):
        E = subquotient_module(identity, delta, cap).minimal_presentation()
        if all(E.piece_dim(n) == home.piece_dim(n) - delta.rank_at(n) for n in (cap + 1, cap + 2)):
            return E
        cap += 4
    raise AssertionError("the subquotient cap did not stabilize")


def _assert_same_top_ext(M):
    # the same cover, the same piece dimensions and the same relation span
    # in each degree from below the generators to past the top relation
    # degree, above which each relation span is R_1 times the one below
    got = ext_module(M, len(M.resolution()))
    ref = _top_ext_by_subquotient(M)
    assert got.F0.twists == ref.F0.twists
    joint = GradedMap.hstack(got.presentation, ref.presentation)
    lo = got.min_degree()
    hi = max((-t for t in joint.source.twists), default=lo)
    for n in range(lo - 1, hi + 2):
        assert got.piece_dim(n) == ref.piece_dim(n), n
        assert got.presentation.rank_at(n) == ref.presentation.rank_at(n) == joint.rank_at(n), n
    return got, ref


@pytest.mark.parametrize("name", corpus_names())
def test_top_ext_is_the_cokernel_of_the_last_dual_map(name):
    RI = GradedModule.quotient_by_ideal(load_corpus(name).to_ideal())
    got, ref = _assert_same_top_ext(RI)
    _assert_same_top_ext(RI.syzygy_module(1))
    if len(RI.resolution()) == 3:
        assert got is ext_module(RI, 3)
        _assert_same_finite_data(finite_module_data(got), finite_module_data(ref))
    else:
        assert not ext_module(RI, 3).F0.rank


@settings(max_examples=12, deadline=None, database=None)
@given(_finite_length_module())
@seed(43)
def test_top_ext_of_a_finite_length_module_is_the_cokernel_of_the_last_dual_map(M):
    assert len(M.resolution()) == 4
    _assert_same_top_ext(M)


# -- Ext and its cycles on the proved cap --------------------------------------


def _ext_test_modules(C):
    """R/I, the ideal module, N, E and Hom(E, R) of a curve."""
    E = raoclass.e_type_resolution(C).E
    return [C._ri(), C.ideal_module(), raoclass.n_type_resolution(C).N, E, raoclass.dual_module(E)[0]]


def _assert_ext_is_the_growing_caps(M, i):
    got, ref = ext_module(M, i), ext_by_growing_cap(M, i)
    assert (got.F1, got.F0, got.presentation.matrix) == (ref.F1, ref.F0, ref.presentation.matrix), i


@pytest.mark.parametrize("name", corpus_names())
def test_ext_on_the_proved_cap_is_the_growing_caps(name, corpus_curves):
    # every Ext^i, i <= pd, of five modules of the curve, presentation for
    # presentation
    for M in _ext_test_modules(corpus_curves(name)):
        for i in range(len(M.resolution()) + 1):
            _assert_ext_is_the_growing_caps(M, i)


@settings(max_examples=2, deadline=None, database=None)
@given(general_lines(primes=(101,), field_lines=(2, 2), dual_lines=(2, 2)))
@seed(37)
def test_ext_on_the_proved_cap_is_the_growing_caps_on_two_lines(C):
    # over A the growing cap is slow: there only R_A/I's Ext^1, whose cap
    # reads the regularity of the infinite-length Ext^2 off its resolution
    if C.base.dual:
        RI = C._ri()
        _assert_ext_is_the_growing_caps(RI, 1)
        E2 = ext_module(RI, 2)
        assert not E2.is_finite_length() and "resolution" in E2._cache
        return
    for M in _ext_test_modules(C):
        for i in range(len(M.resolution()) + 1):
            _assert_ext_is_the_growing_caps(M, i)


@pytest.mark.parametrize("name", corpus_names())
def test_the_cycles_need_their_whole_cap(name, corpus_curves):
    # one degree below the proved cap misses a generator at every spot with
    # cycles: the cap is not one too high
    seen = 0
    for M in _ext_test_modules(corpus_curves(name)):
        deltas = gradedmod._dual_complex(M)
        for i in range(len(deltas)):
            K = cycles_cover(M, i)
            if K.source.rank:
                below = kernel_min_gens(deltas[i], gradedmod._cycles_cap(M, i) - 1)
                assert below.source.rank < K.source.rank, i
                seen += 1
    assert seen


# -- the one Hom construction against the slot reference ---------------------

@lru_cache(maxsize=None)
def _hom_module(name, base, kind):
    """A corpus curve's Rao module, Ext^2 or stable N read over base (the
    dual fixture over A), built once; None when the reduced ideal is not a
    curve there."""
    ideal = _curve_ideal(name + "-dual" if base.dual and name != "three-skew-lines" else name, base)
    try:
        if kind == "stable":
            return raoclass._stable_n(validate_curve(ideal))
        return ext_module(GradedModule.quotient_by_ideal(ideal), 3 if kind == "rao" else 2)
    except SpaceCurveError:
        return None


@st.composite
def _hom_pair(draw):
    """(M, N) over F_p or A, p = 2, 3, 101 or 32003: Rao and Ext^2 modules
    and stable N's of the corpus curves and three skew lines, and
    finite_data_to_module modules; N is M shifted by -1, 0 or 1 or a second
    draw."""
    base = BaseRing(draw(st.sampled_from((2, 3, 101, 32003))), draw(st.booleans()))

    def module():
        kind = draw(st.sampled_from(("rao", "ext2", "stable", "finite")))
        if kind == "finite":
            return draw(_finite_length_module(base=base))
        M = _hom_module(draw(st.sampled_from(RAO_K_NAMES + ["three-skew-lines", "twisted-cubic"])), base, kind)
        assume(M is not None and M.F0.rank)
        return M

    M = module()
    N = M.shift(draw(st.integers(-1, 1))) if draw(st.booleans()) else module()
    # the reference's time grows with its unknowns, one per monomial of each
    # entry of f0
    assume(sum(graded_piece_dim(t - u) for t in N.F0.twists for u in M.F0.twists) <= 400)
    return M, N


def _independent_modulo_trivial_homs(homs):
    # f0 = psi o g exactly when each f0(e_j) lies in im(psi) in degree d_j:
    # the homs stay independent of the block diagonal of those images
    T = homs[0].target
    degs = [-t for t in homs[0].source.F0.twists]
    cols = [np.concatenate([element_to_vector(T.F0, h.f0.column(j), d) for j, d in enumerate(degs)]) for h in homs]
    blocks = [T.presentation.matrix_at(d) for d in degs]
    trivial = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)), dtype=np.int64)
    r = c = 0
    for b in blocks:
        trivial[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    p = T.base.p
    joint = np.concatenate([trivial, np.array(cols).T], axis=1)
    return linalg.rank(joint, p) == linalg.rank(trivial, p) + len(homs)


@settings(max_examples=40, deadline=None, database=None)
@given(_hom_pair())
@seed(53)
def test_hom_space_matches_the_slot_reference(pair):
    M, N = pair
    homs = hom_space(M, N)
    assert len(homs) == len(hom_space_ref(M, N))
    for h in homs:
        assert h.source is M and h.target is N.minimal_presentation()
        assert h.target.presentation.lift(h.f0.compose(M.presentation)) is not None
    assert not homs or _independent_modulo_trivial_homs(homs)

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import (
    colon_ref,
    divide_exact_ref,
    dual_elim_key,
    dual_key,
    elim_key,
    five_skew_lines_over_f2,
    saturate_ref,
    to_packed,
    to_tuples,
    tuple_add_scaled,
    tuple_divides,
    tuple_lead,
    variable_last_key,
)

from spacecurves import groebner, linalg
from spacecurves.curve import is_flat_family
from spacecurves.errors import CertificationError, DegreeOverflow
from spacecurves.groebner import (
    _RING,
    Ideal,
    _candidate_forms,
    _divides,
    _kernel_form,
    _lcm,
    _order,
    _orders,
    _pack,
    _raw_add_scaled,
    _saturate_by_variables,
    _saturation_certificate,
    _unpack,
    _with_min_generators,
    ideal_intersect,
    ideal_saturate,
    ideal_sum,
    is_nonzerodivisor,
    poly_to_raw,
    raw_buchberger,
    raw_normal_form,
    raw_to_poly,
)
from spacecurves.polyring import (
    MAX_DEGREE,
    Poly,
    graded_piece_dim,
    grevlex_key,
    monomial_index,
    monomial_shift,
    monomials,
)
from spacecurves.scalars import BaseRing


def I(base, *texts):
    return Ideal(base, [Poly.parse(t, base) for t in texts])


def test_groebner_membership(K):
    tc = I(K, "X*Z - Y^2", "Y*W - Z^2", "X*W - Y*Z")
    assert tc.contains(Poly.parse("X*Z*W - Y^2*W", K))
    assert tc.contains(Poly.parse("X*Z^2 - Y^2*Z", K))
    assert not tc.contains(Poly.parse("X*W", K))
    assert not tc.is_unit_ideal()


def test_dual_membership(A):
    L = I(A, "X + e*Z", "Y")
    assert L.contains(Poly.parse("X + e*Z", A))
    # the fiber of X lies in the fiber of L, but e*Z does not lie in L
    assert L.fiber().contains(Poly.parse("X", A).fiber())
    assert not L.contains(Poly.parse("X", A))
    assert L.contains(Poly.parse("X + e*Z + 5*Y*W - e*Y^2 + W^2*(X + e*Z)", A))
    assert not L.contains(Poly.parse("X + e*Z + X*W", A))
    assert L.contains(Poly.zero(A))


def test_hilbert_function_twisted_cubic(K):
    tc = I(K, "X*Z - Y^2", "Y*W - Z^2", "X*W - Y*Z")
    # quotient dimensions 1, 4, 7, 10, ... (3n+1 for n >= 1)
    assert tc.hilbert_function(5) == [1, 4, 7, 10, 13, 16]


def test_krull_dimension(K):
    assert I(K, "X", "Y").krull_dimension() == 2
    assert I(K, "X").krull_dimension() == 3
    assert I(K, "X", "Y", "Z").krull_dimension() == 1
    assert I(K, "X", "Y", "Z", "W").krull_dimension() == 0


def test_ideal_equality_is_extensional(K):
    a = I(K, "X", "Y")
    b = I(K, "Y", "X + Y")
    assert a == b
    assert hash(a) == hash(b)
    assert a != I(K, "X", "Z")


def test_saturation_strips_irrelevant_power(K):
    # (X*W, Y*W, W^2) union an embedded piece at W: saturating by the
    # irrelevant ideal recovers (W) intersected data correctly
    raw = I(K, "X^2", "X*Y", "X*Z", "X*W")
    sat = ideal_saturate(raw)
    assert sat == I(K, "X")
    already = I(K, "X", "Y")
    assert ideal_saturate(already) == already


def test_colon_residual_of_skew_lines(K):
    ci = I(K, "X*Z", "Y*W")
    skew = I(K, "X*Z", "X*W", "Y*Z", "Y*W")
    res = colon_ref(ci, skew)
    assert res == I(K, "X*Y", "X*Z", "W*Y", "W*Z")
    # colon back returns the original curve
    assert colon_ref(ci, res) == skew


def test_intersect_of_two_lines(K):
    inter = ideal_intersect(I(K, "X", "Y"), I(K, "Z", "W"))
    assert inter == I(K, "X*Z", "X*W", "Y*Z", "Y*W")


def test_sum(K):
    s = ideal_sum(I(K, "X"), I(K, "Y"))
    assert s == I(K, "X", "Y")


def test_dual_number_ideal_flat_saturation(A, K):
    # a constant family saturates to itself
    skew = I(A, "X*Z", "X*W", "Y*Z", "Y*W")
    assert ideal_saturate(skew) == skew
    assert skew.fiber() == I(K, "X*Z", "X*W", "Y*Z", "Y*W")


def test_piece_dims(K):
    line = I(K, "X", "Y")
    assert [line.piece_dim(n) for n in range(4)] == [0, 2, 7, 16]
    assert [line.quotient_piece_dim(n) for n in range(4)] == [1, 2, 3, 4]


def test_dual_saturation_and_colon_strip_the_irrelevant_ideal(A):
    # L is a non-constant family (a line moving with e); J = L * (X,Y,Z,W)
    # agrees with L only after saturation, so both routes must reach c >= 2
    # with an e-part
    lin = ["X + e*Z", "Y + 3*e*W"]
    L = I(A, *lin)
    J = I(A, *[f"({f})*{v}" for f in lin for v in "XYZW"])
    assert len(J.gens) == 8
    assert J != L
    assert ideal_saturate(J) == L
    assert colon_ref(J, I(A, "X", "Y", "Z", "W")) == L


def _times_power_of_m(ideal, k):
    """ideal * (X,Y,Z,W)^k, on the products of generators and monomials."""
    return Ideal(ideal.base, [g * Poly(ideal.base, {m: (1, 0)}) for g in ideal.gens for m in monomials(k)])


def test_dual_saturation_of_ideals_times_a_power_of_m(A):
    # in degree 1 the pieces of X*m^3 : m^c are 0, 0, <X> for c = 1, 2, 3: a
    # per-degree stopping rule that sees the plateau at c = 2 loses X
    x = ideal_saturate(_times_power_of_m(I(A, "X"), 3))
    assert [str(g) for g in x.gens] == ["X"]
    xy = ideal_saturate(_times_power_of_m(I(A, "X", "Y"), 3))
    assert [str(g) for g in xy.gens] == ["X", "Y"]


def test_dual_colon_keeps_generators_far_above_the_fiber(A):
    # e*Y^10 lies in the colon, eight degrees above the fiber colon (X)
    got = colon_ref(I(A, "X", "e*Y^10"), I(A, "Z"))
    assert got == I(A, "X", "e*Y^10")
    assert got.contains(Poly.parse("e*Y^10", A))


def test_exact_division_rejects_a_non_factor():
    p = 101
    x, y = (1, 0, 0, 0), (0, 1, 0, 0)
    assert divide_exact_ref({(2, 0, 0, 0): 3, (1, 1, 0, 0): 3}, {x: 1, y: 1}, p) == {x: 3}
    with pytest.raises(CertificationError):
        divide_exact_ref({(2, 0, 0, 0): 1, (0, 2, 0, 0): 1}, {y: 1}, p)


# -- the packed engine against plain loops on exponent tuples ---------------
#
# Every reference below works on dicts keyed by exponent tuples, with the
# tuple key of each order, and calls nothing of the engine it checks; the
# engine's inputs are packed with _pack and its outputs unpacked with
# _unpack, whose round trip is itself a property below.


def _quot(e2, e1):
    return tuple(b - a for a, b in zip(e1, e2))


def _tuple_lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _tuple_normal_form(f, reducers, p, key):
    """Full normal form by the (lead, poly) pairs in reducers, taking the
    remainder's lead by a max over all of its terms at each step."""
    f = dict(f)
    out = {}
    while f:
        e = max(f, key=key)
        c = f[e]
        hit = next(((le, g) for le, g in reducers if tuple_divides(le, e)), None)
        if hit is None:
            out[e] = c
            del f[e]
            continue
        le, g = hit
        f = tuple_add_scaled(f, g, (-c * pow(g[le], p - 2, p)) % p, _quot(e, le), p)
    return out


def _tuple_spoly(f, g, p, key):
    ef, cf = tuple_lead(f, key)
    eg, cg = tuple_lead(g, key)
    l = _tuple_lcm(ef, eg)
    a = tuple_add_scaled({}, f, pow(cf, p - 2, p), _quot(l, ef), p)
    return tuple_add_scaled(a, g, (-pow(cg, p - 2, p)) % p, _quot(l, eg), p)


def _pairs(basis, key):
    """The (lead exponent, poly) reducers of a basis."""
    return [(max(g, key=key), g) for g in basis]


def _tuple_interreduce(basis, p, key):
    """The reduced monic basis from a Groebner basis, sorted by lead."""
    basis = [g for g in basis if g]
    leads = [max(g, key=key) for g in basis]
    keep = [i for i, e in enumerate(leads)
            if not any(j != i and tuple_divides(leads[j], e) and (leads[j] != e or j < i)
                       for j in range(len(basis)))]
    pairs = [(leads[i], basis[i]) for i in keep]
    out = []
    for i, (_, g) in enumerate(pairs):
        r = _tuple_normal_form(g, pairs[:i] + pairs[i + 1 :], p, key)
        if r:
            e, c = tuple_lead(r, key)
            inv = pow(c, p - 2, p)
            out.append((key(e), {m: a * inv % p for m, a in r.items()}))
    return [g for _, g in sorted(out, key=lambda t: t[0])]


def _lifo_buchberger(gens, p, key, max_size=40, max_degree=10):
    """Reference: every pair, last in first out, only the coprime-leads
    criterion.  This order blows up on a few inputs of every size tried
    (minutes on three cubics in 4 variables), so it gives up and returns
    None once the basis outgrows ``max_size`` elements or ``max_degree``."""
    basis = [dict(g) for g in gens if g]
    if not basis:
        return []
    lead = lambda f: max(f, key=key)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        ei, ej = lead(basis[i]), lead(basis[j])
        if all(min(a, b) == 0 for a, b in zip(ei, ej)):
            continue
        s = _tuple_normal_form(_tuple_spoly(basis[i], basis[j], p, key), _pairs(basis, key), p, key)
        if s:
            if len(basis) == max_size or max(map(sum, s)) > max_degree:
                return None
            basis.append(s)
            pairs.extend((t, len(basis) - 1) for t in range(len(basis) - 1))
    return _tuple_interreduce(basis, p, key)


def _assert_reduced_basis(gb, gens, p, key):
    """gb is a reduced monic Groebner basis of an ideal containing gens."""
    reducers = _pairs(gb, key)
    for f in gens:
        assert not _tuple_normal_form(f, reducers, p, key)
    # Buchberger's criterion: every S-polynomial reduces to zero
    for f, g in combinations(gb, 2):
        assert not _tuple_normal_form(_tuple_spoly(f, g, p, key), reducers, p, key)
    leads = [max(g, key=key) for g in gb]
    for g, e in zip(gb, leads):
        assert g[e] == 1
        for other in leads:
            if other != e:
                assert not any(tuple_divides(other, m) for m in g)


PRIMES = (2, 101, 32003, 2**31 - 1)


def _last(i):
    return tuple(j for j in range(4) if j != i) + (i,)


# every order the engine runs: (id, packing, tuple key); exponent tuples are
# (t, X, Y, Z, W, e), each entry present only when its variable is
ORDERS = [
    ("grevlex", _order(_RING, False), grevlex_key),
    ("elim", _order(_RING, False, True), elim_key),
    ("dual", _order(_RING, True), dual_key),
    ("dual-elim", _order(_RING, True, True), dual_elim_key),
] + [
    (f"{'dual-' * dual}x{i}-last", _order(_last(i), dual), variable_last_key(i, dual))
    for dual in (False, True) for i in range(4)
]
ORDER_IDS = [name for name, _, _ in ORDERS]


def _arity(order):
    return len(order.shifts)


def _packed(polys, order):
    return [to_packed(f, order) for f in polys]


def _unpacked(polys, order):
    return [to_tuples(f, order) for f in polys]


@st.composite
def _normal_form_case(draw):
    p = draw(st.sampled_from(PRIMES))
    _, order, key = draw(st.sampled_from(ORDERS))
    exps = st.tuples(*[st.integers(0, 2)] * _arity(order))

    def poly(min_size, max_size):
        support = draw(st.lists(exps, min_size=min_size, max_size=max_size, unique=True))
        return {e: draw(st.integers(1, p - 1)) for e in support}

    gs = [poly(1, 4) for _ in range(draw(st.integers(1, 4)))]
    return p, order, key, poly(0, 10), [(max(g, key=key), g) for g in gs]


@settings(max_examples=300, deadline=None, database=None)
@given(_normal_form_case())
@seed(17)
def test_normal_form_heap_matches_the_max_loop(case):
    p, order, key, f, reducers = case
    packed = [(_pack(le, order), to_packed(g, order)) for le, g in reducers]
    got = raw_normal_form(to_packed(f, order), packed, p, order)
    assert to_tuples(got, order) == _tuple_normal_form(f, reducers, p, key)


@st.composite
def _homogeneous(draw, p, max_degree=3, max_terms=4):
    support = draw(
        st.lists(st.sampled_from(monomials(draw(st.integers(1, max_degree)))),
                 min_size=1, max_size=max_terms, unique=True)
    )
    return {m: draw(st.integers(1, p - 1)) for m in support}


@st.composite
def _ring_input(draw, p, dual, max_degree=3, max_terms=4, count=3):
    """Forms in X, Y, Z, W; over A each term gets an e exponent 0 or 1, and
    e^2 joins the generators, as in Ideal._raw_gens."""
    gens = draw(st.lists(_homogeneous(p, max_degree, max_terms), min_size=1, max_size=count))
    if not dual:
        return gens
    gens = [{m + (draw(st.integers(0, 1)),): c for m, c in g.items()} for g in gens]
    return gens + [{(0, 0, 0, 0, 2): 1}]


@st.composite
def _buchberger_input(draw, name):
    """Ring-order generators for a ring or variable-last order; for an
    elimination order t*f for f in fs and (1 - t)*g, the input of
    _elim_intersection_raw."""
    p = draw(st.sampled_from(PRIMES))
    dual = "dual" in name
    if "elim" not in name:
        return p, draw(_ring_input(p, dual))
    fs = draw(_ring_input(p, dual, max_degree=2, max_terms=3, count=2))
    g = draw(_ring_input(p, False, max_degree=2, max_terms=3, count=1))[0]
    if dual:
        g = {m + (0,): c for m, c in g.items()}
    tagged = [{(1,) + e: c for e, c in f.items()} for f in fs]
    tagged.append({**{(0,) + e: c for e, c in g.items()},
                   **{(1,) + e: (-c) % p for e, c in g.items()}})
    return p, tagged


@pytest.mark.parametrize("name, order, key", ORDERS, ids=ORDER_IDS)
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
@seed(5)
def test_buchberger_matches_the_lifo_reference(name, order, key, data):
    p, gens = data.draw(_buchberger_input(name))
    gb = _unpacked(raw_buchberger(_packed(gens, order), p, order), order)
    ref = _lifo_buchberger(gens, p, key)
    assert ref is None or gb == ref
    _assert_reduced_basis(gb, gens, p, key)


def test_buchberger_degenerate_inputs():
    p, order = 101, _order(_RING, False)
    x, y, one = (_pack(e, order) for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)))
    assert raw_buchberger([], p, order) == []
    assert raw_buchberger([{}, {}], p, order) == []
    # repeated and scaled generators collapse to one monic element each
    assert raw_buchberger([{x: 3}, {x: 5}, {x: 7, y: 2}], p, order) == [{y: 1}, {x: 1}]
    assert raw_buchberger([{x: 1, y: 1}, {one: 4}], p, order) == [{one: 1}]


# -- the packing: order, divisibility, lcm, round trip and overflow ---------

PACK_PRIMES = (2, 3, 32003, 2**31 - 1)


@st.composite
def _xyzw(draw, max_degree=MAX_DEGREE):
    """Exponents of X, Y, Z, W of degree at most max_degree, the largest
    degree likely."""
    d = draw(st.one_of(st.just(max_degree), st.integers(0, max_degree)))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=3, max_size=3)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))


@st.composite
def _exponent_tuple(draw, name):
    """An exponent tuple for the order of that name: X, Y, Z, W of degree
    at most MAX_DEGREE, the tag and e each at most MAX_DEGREE."""
    single = st.one_of(st.sampled_from((0, 1, MAX_DEGREE)), st.integers(0, MAX_DEGREE))
    tag = (draw(single),) if "elim" in name else ()
    e = (draw(single),) if "dual" in name else ()
    return tag + draw(_xyzw()) + e


def _fits(e, name):
    """Whether the exponent tuple e packs: X, Y, Z, W of degree at most
    MAX_DEGREE, and the tag and e at most MAX_DEGREE."""
    tag = int("elim" in name)
    return sum(e[tag : tag + 4]) <= MAX_DEGREE and max(e) <= MAX_DEGREE


@pytest.mark.parametrize("p", PACK_PRIMES)
@pytest.mark.parametrize("name, order, key", ORDERS, ids=ORDER_IDS)
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
@seed(43)
def test_the_packing_agrees_with_the_tuple_order(name, order, key, p, data):
    a = data.draw(_exponent_tuple(name))
    b = data.draw(st.one_of(_exponent_tuple(name), st.just(a)))
    pa, pb = _pack(a, order), _pack(b, order)
    # the round trip, and guard bits clear
    assert _unpack(pa, order) == a and not pa & order.guard
    # the order is integer order on packed ^ mask
    assert ((pa ^ order.mask) < (pb ^ order.mask)) == (key(a) < key(b))
    assert (pa == pb) == (a == b)
    # divisibility, and the quotient of a divisor
    assert _divides(pa, pb, order.guard) == tuple_divides(a, b)
    if tuple_divides(a, b):
        assert _unpack(pb - pa, order) == _quot(b, a)
    # the lcm, which raises when its degree overflows
    l = _tuple_lcm(a, b)
    if _fits(l, name):
        assert _lcm(pa, pb, order) == _pack(l, order)
    else:
        with pytest.raises(DegreeOverflow):
            _lcm(pa, pb, order)
    # a product: the sum of the ints, or DegreeOverflow when a field overflows
    c = data.draw(st.integers(1, p - 1))
    ab = tuple(x + y for x, y in zip(a, b))
    if _fits(ab, name):
        assert _raw_add_scaled({}, {pa: c}, 1, pb, p, order.guard) == {_pack(ab, order): c}
    else:
        with pytest.raises(DegreeOverflow):
            _raw_add_scaled({}, {pa: c}, 1, pb, p, order.guard)


@pytest.mark.parametrize("dual", [False, True])
def test_a_reduction_past_the_degree_limit_raises(dual):
    # in an elimination order a tail term may have a larger degree than its
    # lead: t - X^100 reduces t*Y^50 to X^100*Y^50, of degree 150
    p, order = 101, _order(_RING, dual, True)
    pad = (0,) * dual
    lead, tail = _pack((1, 0, 0, 0, 0) + pad, order), _pack((0, 100, 0, 0, 0) + pad, order)
    f = {_pack((1, 0, 50, 0, 0) + pad, order): 1}
    with pytest.raises(DegreeOverflow, match=str(MAX_DEGREE)):
        raw_normal_form(f, [(lead, {lead: 1, tail: p - 1})], p, order)
    fits = {_pack((1, 0, 27, 0, 0) + pad, order): 1}
    assert to_tuples(raw_normal_form(fits, [(lead, {lead: 1, tail: p - 1})], p, order), order) == {
        (0, 100, 27, 0, 0) + pad: 1}


def test_only_a_formed_monomial_past_the_limit_raises(K, A):
    # the coprime leads X^100 and Y^100 have an lcm of degree 200, but their
    # pair is dropped unformed; X^100*Y and X*Y^100 form an S-polynomial of
    # degree 200
    for base in (K, A):
        assert I(base, "X^100", "Y^100").contains(Poly.parse("X^100*Z + Y^100*W", base))
        with pytest.raises(DegreeOverflow, match=str(MAX_DEGREE)):
            I(base, "X^100*Y", "X*Y^100").contains(Poly.parse("X*Y", base))


@pytest.mark.parametrize("p", PACK_PRIMES)
@pytest.mark.parametrize("dual", [False, True])
@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
@seed(47)
def test_polys_pack_and_unpack_to_themselves(p, dual, data):
    # terms of any degree up to the limit, over A with an e part or not
    base = BaseRing(p, dual)
    order = _orders(base)[0]
    coeff = st.integers(0, p - 1)
    terms = data.draw(st.dictionaries(_xyzw(), st.tuples(coeff, coeff if dual else st.just(0)), min_size=1, max_size=5))
    f = Poly(base, {m: c if c != (0, 0) else (1, 0) for m, c in terms.items()})
    raw = poly_to_raw(f)
    assert raw_to_poly(raw, base) == f
    assert to_tuples(raw, order) == {m + (k,) * dual: c for m, ab in f.terms.items()
                                     for k, c in enumerate(ab[: 1 + dual]) if c}
    too_high = f * Poly(base, {(0, 0, 0, MAX_DEGREE + 1 - f.degree()): (1, 0)})
    with pytest.raises(DegreeOverflow, match=str(MAX_DEGREE)):
        poly_to_raw(too_high)


# -- ideal pieces against the per-generator scatter they replaced ----------


def _poly_to_vector(f, n):
    # reference: stacked (fiber; eps) coordinates of a degree-n Poly
    dim = graded_piece_dim(n)
    idx = monomial_index(n)
    out = np.zeros(2 * dim, dtype=np.int64)
    for e, (a, b) in f.terms.items():
        out[idx[e]] = a
        out[dim + idx[e]] = b
    return out


def _mult_columns(g, n):
    # reference: the columns g*m for m in monomials(n), one scatter per term
    dim_m = graded_piece_dim(n + g.degree())
    cols = np.arange(graded_piece_dim(n))
    out = np.zeros((2 * dim_m, cols.size), dtype=np.int64)
    for e, (a, b) in g.terms.items():
        rows = monomial_shift(n, e)
        out[rows, cols] = a
        out[dim_m + rows, cols] = b
    return out


def _piece_matrix_ref(ideal, n):
    p = ideal.base.p
    dim = graded_piece_dim(n)
    blocks = [_mult_columns(g, n - g.degree()) for g in ideal.gens if g.degree() <= n]
    if not blocks:
        return np.zeros((2 * dim, 0), dtype=np.int64)
    mat = np.concatenate(blocks, axis=1) % p
    mat = np.concatenate([mat, linalg.eps_times(mat)], axis=1)
    red, pivots = linalg.rref(mat.T, p)
    return red.T[:, : len(pivots)] if pivots else np.zeros((2 * dim, 0), dtype=np.int64)


def _homogeneous_components(f):
    """[(degree, component)] with nonzero components, ascending degree."""
    buckets = {}
    for e, c in f.terms.items():
        buckets.setdefault(sum(e), {})[e] = c
    return [(d, Poly(f.base, t)) for d, t in sorted(buckets.items())]


def _contains_ref(ideal, f):
    return all(
        linalg.solve(_piece_matrix_ref(ideal, d), _poly_to_vector(comp, d), ideal.base.p)
        is not None
        for d, comp in _homogeneous_components(f)
    )


@st.composite
def _dual_poly(draw, base, degree, max_terms=4):
    p = base.p
    support = draw(st.lists(st.sampled_from(monomials(degree)), min_size=1,
                            max_size=max_terms, unique=True))
    terms = {}
    for m in support:
        a, b = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
        terms[m] = (a, b) if (a, b) != (0, 0) else (0, 1)
    return Poly(base, terms)


@st.composite
def _dual_piece_input(draw):
    """(ideal over A, degree n, a degree-n Poly): half the time the Poly is
    a combination of the generators, so both membership answers occur."""
    base = BaseRing(draw(st.sampled_from(PRIMES)), True)
    gens = [draw(_dual_poly(base, draw(st.integers(1, 2)))) for _ in range(draw(st.integers(1, 3)))]
    n = draw(st.integers(1, 3))
    f = draw(_dual_poly(base, n))
    if draw(st.booleans()):
        f = Poly.zero(base)
        for g in gens:
            if g.degree() <= n:
                f = f + g * draw(_dual_poly(base, n - g.degree()))
    return Ideal(base, gens), n, f


@settings(max_examples=80, deadline=None, database=None)
@given(_dual_piece_input())
@seed(17)
def test_dual_pieces_match_per_generator_scatter(case):
    ideal, n, f = case
    got = linalg.column_basis(ideal.generator_map().matrix_at(n), ideal.base.p)
    want = _piece_matrix_ref(ideal, n)
    assert got.shape == want.shape and (got == want).all()
    assert ideal.piece_dim(n) == want.shape[1]
    assert ideal.contains(f) == _contains_ref(ideal, f)


# -- dual ideal operations against the field ones and their containments ---


def _lift(ideal, base):
    return Ideal(base, [g.lift(base) for g in ideal.gens])


@st.composite
def _field_pair(draw):
    """Two small ideals over F_p and the dual numbers over the same p."""
    p = draw(st.sampled_from(PRIMES))
    K = BaseRing(p, False)

    def ideal():
        gens = draw(st.lists(_homogeneous(p, max_degree=2, max_terms=3), min_size=1, max_size=2))
        return Ideal(K, [Poly(K, {m: (c, 0) for m, c in g.items()}) for g in gens])

    # I * m is never saturated, so the saturation has work to do
    return _times_power_of_m(ideal(), draw(st.integers(0, 1))), ideal(), BaseRing(p, True)


@settings(max_examples=25, deadline=None, database=None)
@given(_field_pair())
@seed(19)
def test_dual_ops_on_constant_families_match_the_field_ops(case):
    I, J, A = case
    IA, JA = _lift(I, A), _lift(J, A)
    assert colon_ref(IA, JA) == _lift(colon_ref(I, J), A)
    assert ideal_intersect(IA, JA) == _lift(ideal_intersect(I, J), A)
    assert ideal_saturate(IA) == _lift(ideal_saturate(I), A)


@st.composite
def _dual_pair(draw):
    base = BaseRing(draw(st.sampled_from(PRIMES)), True)

    def ideal():
        count = draw(st.integers(1, 2))
        return Ideal(base, [draw(_dual_poly(base, draw(st.integers(1, 2)), 3)) for _ in range(count)])

    return _times_power_of_m(ideal(), draw(st.integers(0, 1))), ideal()


@settings(max_examples=25, deadline=None, database=None)
@given(_dual_pair())
@seed(23)
def test_dual_ops_satisfy_their_containments(case):
    I, J = case
    colon = colon_ref(I, J)
    assert all(I.contains(g * h) for g in J.gens for h in colon.gens)
    sat = ideal_saturate(I)
    assert all(sat.contains(g) for g in I.gens)
    assert any(
        all(I.contains(g * Poly(I.base, {m: (1, 0)})) for g in sat.gens for m in monomials(k))
        for k in range(10)
    )
    inter = ideal_intersect(I, J)
    assert all(I.contains(g) and J.contains(g) for g in inter.gens)


# -- the saturation certificate against the iterated colon -----------------


@st.composite
def _saturation_input(draw, base):
    """A small ideal over base: 1-3 generators of degree 1 or 2."""
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        f = draw(_dual_poly(base, draw(st.integers(1, 2)), 3))
        gens.append(f if base.dual else Poly(base, {m: (a or 1, 0) for m, (a, _) in f.terms.items()}))
    return Ideal(base, gens)


def _assert_saturates_as_the_iterated_colon(ideal):
    # generator for generator: the reduced basis over F_p, minimal generators
    # over A; a saturated input comes back as itself
    ref = saturate_ref(ideal)
    saturated = ref is ideal
    if ideal.base.dual:
        ref = _with_min_generators(ref, _kernel_form, ideal)
    sat = ideal_saturate(ideal)
    assert [str(g) for g in sat.gens] == [str(g) for g in ref.gens]
    if saturated:
        assert _saturate_by_variables(ideal) is ideal
        assert sat is ideal or ideal.base.dual


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("p", [2, 3, 101, 32003])
@settings(max_examples=6, deadline=None, database=None)
@given(data=st.data())
@seed(29)
def test_saturation_certificate_agrees_with_the_iterated_colon(p, dual, data):
    # the ideal and the same ideal times m^k, k = 1..3, which is never
    # saturated
    ideal = data.draw(_saturation_input(BaseRing(p, dual)))
    for case in (ideal, _times_power_of_m(ideal, data.draw(st.integers(1, 3)))):
        if _saturation_certificate(case):
            assert ideal_saturate(case) == case
        _assert_saturates_as_the_iterated_colon(case)


@pytest.mark.parametrize("dual", [False, True])
def test_the_five_f2_lines_times_a_form_saturate_as_the_iterated_colon(dual):
    # every linear form over F_2 vanishes on one of the lines, so neither W
    # nor a candidate form certifies these ideals
    lines = five_skew_lines_over_f2(dual)
    for factor in ("X", "(X+Y+Z+W)^2"):
        f = Poly.parse(factor, lines.base)
        _assert_saturates_as_the_iterated_colon(Ideal(lines.base, [g * f for g in lines.gens]))
    _assert_saturates_as_the_iterated_colon(lines)


@pytest.mark.parametrize("dual", [False, True])
def test_the_saturation_by_w_reads_the_basis_the_ideal_keeps(dual, monkeypatch):
    # with W last the order is the ring order: X, Y and Z each run one
    # Buchberger on the generators, W runs none
    lines = five_skew_lines_over_f2(dual)
    ideal = _times_power_of_m(lines, 1)
    gb = ideal._groebner()[0]
    runs = []
    real = groebner.raw_buchberger

    def spy(gens, p, order):
        runs.append((order, list(gens)))
        return real(gens, p, order)

    monkeypatch.setattr(groebner, "raw_buchberger", spy)
    assert _saturate_by_variables(ideal) == lines
    ring = _orders(ideal.base)[0]
    last = [run for run in runs if run[0] not in _orders(ideal.base)]
    assert [order for order, _ in last] == [_order(_last(i), dual) for i in range(3)]
    for order, gens in last:
        assert _unpacked(gens, order) == _unpacked(ideal._raw_gens(), ring)
    assert ideal._groebner()[0] is gb


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("i", range(4))
def test_a_point_at_each_coordinate_point_keeps_its_variable_saturation(i, dual):
    # the union of a line and the point where only x_i is nonzero: the
    # saturation by the other three variables alone would drop the point
    base = BaseRing(101, dual)
    point = Ideal(base, [Poly.variable(base, j) for j in range(4) if j != i])
    ideal = ideal_intersect(I(base, "X + Y + Z", "Y + 2*Z + 3*W"), point)
    _assert_saturates_as_the_iterated_colon(ideal)
    _assert_saturates_as_the_iterated_colon(_times_power_of_m(ideal, 1))


def test_skew_lines_are_certified_by_the_first_candidate_form(K, A):
    # W vanishes on the line (Z, W), so leads X*W and Y*W carry it; the first
    # candidate form vanishes on neither line
    for base in (K, A):
        skew = ideal_intersect(I(base, "X", "Y"), I(base, "Z", "W"))
        assert _saturation_certificate(skew) == _candidate_forms(base)[0]
        assert ideal_saturate(skew) == skew
    twisted_cubic = I(K, "X*Z - Y^2", "Y*W - Z^2", "X*W - Y*Z")
    assert _saturation_certificate(twisted_cubic) == "W"
    assert ideal_saturate(twisted_cubic) is twisted_cubic


# -- Hilbert numerators against the colon and the standard monomials -------


def _standard_monomial_count_ref(leads, n):
    return sum(1 for m in monomials(n) if not any(tuple_divides(e, m) for e in leads))


def _quotient_piece_dim_ref(ideal, n):
    """dim_k (R_A/I)_n by listing standard monomials: over A, x^a when no
    e-free lead divides it and x^a*e when no lead of e-exponent <= 1 does."""
    leads = [_unpack(m, _orders(ideal.base)[0]) for m in ideal._groebner()[1]]
    if not ideal.base.dual:
        return _standard_monomial_count_ref(leads, n)
    plain = [e[:4] for e in leads if e[4] == 0]
    linear = [e[:4] for e in leads if e[4] <= 1]
    return _standard_monomial_count_ref(plain, n) + _standard_monomial_count_ref(linear, n)


def _krull_dimension_ref(ideal):
    """The largest set of variables no lead of the fiber's basis lives in."""
    fib = ideal.fiber()
    if fib.is_unit_ideal():
        return -1
    supports = [{i for i, x in enumerate(_unpack(m, _orders(fib.base)[0])) if x} for m in fib._groebner()[1]]
    return max(
        bin(mask).count("1")
        for mask in range(16)
        if not any(sup <= {i for i in range(4) if mask >> i & 1} for sup in supports)
    )


def _is_flat_by_colon_ref(ideal):
    """(I : e) = I + (e)."""
    e = Ideal(ideal.base, [Poly.constant(ideal.base, 0, 1)])
    return colon_ref(ideal, e) == ideal_sum(ideal, e)


@st.composite
def _hilbert_input(draw, dual=None):
    """(ideal, form) at p = 2, 3, 101 or 32003 over F_p or A: 1-3 sparse
    generators of degree 1-2, half the time times a power of one variable,
    and a sparse form of degree 1-3."""
    base = BaseRing(draw(st.sampled_from((2, 3, 101, 32003))), draw(st.booleans()) if dual is None else dual)

    def poly(degree):
        f = draw(_dual_poly(base, degree, 3))
        return f if base.dual else Poly(base, {m: (a or 1, 0) for m, (a, _) in f.terms.items()})

    gens = [poly(draw(st.integers(1, 2))) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        power = tuple(draw(st.integers(1, 2)) * x for x in draw(st.sampled_from(monomials(1))))
        gens = [g * Poly(base, {power: (1, 0)}) for g in gens]
    return Ideal(base, gens), poly(draw(st.integers(1, 3)))


@settings(max_examples=80, deadline=None, database=None)
@given(_hilbert_input())
@seed(31)
def test_nonzerodivisor_test_agrees_with_the_colon(case):
    ideal, f = case
    assert is_nonzerodivisor(ideal, f) == (colon_ref(ideal, Ideal(ideal.base, [f])) == ideal)


@settings(max_examples=40, deadline=None, database=None)
@given(_hilbert_input(dual=True))
@seed(37)
def test_flatness_from_hilbert_series_agrees_with_the_colon_by_e(case):
    ideal, f = case
    for family in (ideal, ideal_sum(ideal, Ideal(ideal.base, [f]))):
        assert is_flat_family(family) == _is_flat_by_colon_ref(family)


@settings(max_examples=40, deadline=None, database=None)
@given(_hilbert_input())
@seed(41)
def test_piece_dims_and_krull_dimension_from_the_hilbert_numerator(case):
    ideal, f = case
    for J in (ideal, ideal_sum(ideal, Ideal(ideal.base, [f]))):
        assert [J.quotient_piece_dim(n) for n in range(16)] == [_quotient_piece_dim_ref(J, n) for n in range(16)]
        assert J.krull_dimension() == _krull_dimension_ref(J)


def test_hilbert_numerators_of_small_ideals(K):
    # (1 - t)^4 HS: the twisted cubic 1 - 3t^2 + 2t^3, a complete
    # intersection of degrees 1 and 2, the unit ideal and the zero ideal
    assert I(K, "X*Z - Y^2", "Y*W - Z^2", "X*W - Y*Z").hilbert_numerator() == (1, 0, -3, 2)
    assert I(K, "X", "Y^2").hilbert_numerator() == (1, -1, -1, 1)
    assert I(K, "X", "1").hilbert_numerator() == ()
    assert Ideal(K, []).hilbert_numerator() == (1,)
    assert I(K, "X*Y", "X*Z").krull_dimension() == 3
    assert I(K, "X^2", "X*Y", "X*Z", "X*W").krull_dimension() == 3


import pytest
from hypothesis import given, settings, strategies as st

from conftest import parse_by_multiplying
from spacecurves.errors import ParseError
from spacecurves.polyring import (
    Poly,
    exp_mul,
    graded_piece_dim,
    monomial_shift,
    monomials,
)
from spacecurves.scalars import BaseRing


def test_parse_print_round_trip(K):
    for text in ["X*Z - Y^2", "3*X^2 + 2*Y*W", "X + Y + Z + W", "0", "7"]:
        f = Poly.parse(text, K)
        assert Poly.parse(str(f), K) == f


def test_parse_print_round_trip_dual(A):
    for text in ["X + e*Y", "(2+3*e)*Z^2", "e*W^3"]:
        f = Poly.parse(text, A)
        assert Poly.parse(str(f), A) == f


def test_a_flat_sum_of_monomials_parses_with_at_most_one_add(K, monkeypatch):
    # the terms are summed into one coefficient dict, not added one Poly at
    # a time, which copied every term summed so far
    mons = monomials(4)
    text = " - ".join(f"{c + 1}*" + "*".join(f"{v}^{k}" for v, k in zip("XYZW", m) if k) for c, m in enumerate(mons))
    want = Poly(K, {m: ((c + 1) * (-1 if c else 1) % K.p, 0) for c, m in enumerate(mons)})
    calls = []
    add = Poly.__add__
    monkeypatch.setattr(Poly, "__add__", lambda f, g: calls.append(1) or add(f, g))
    assert Poly.parse(text, K) == want
    assert len(calls) <= 1


@st.composite
def dense_forms(draw):
    """A form with a random coefficient on every monomial of its degree,
    over F_p or A; zero coefficients included."""
    base = BaseRing(draw(st.sampled_from((2, 3, 101, 32003))), draw(st.booleans()))
    coef = st.integers(0, base.p - 1)
    zero = st.just(0)
    return Poly(base, {m: (draw(coef), draw(coef if base.dual else zero)) for m in monomials(draw(st.integers(0, 3)))})


@settings(max_examples=60, deadline=None, database=None)
@given(dense_forms())
def test_parse_inverts_print_on_dense_forms(f):
    assert Poly.parse(str(f), f.base) == f


_TOKENS = ["X", "Y", "Z", "W", "e", "0", "1", "2", "3", "7", "12", "+", "-", "*", "^", "(", ")"]


@st.composite
def _polynomial_texts(draw, depth=2):
    """A signed sum of products of integers, variables, e and parenthesized
    sums, each factor maybe raised to a power 0..3, juxtaposed or joined by
    '*'."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for _ in range(draw(st.integers(1, 4))):
            kinds = ["int", "var", "eps"] + (["paren"] if depth else [])
            kind = draw(st.sampled_from(kinds))
            if kind == "int":
                text = str(draw(st.integers(0, 40)))
            elif kind == "var":
                text = draw(st.sampled_from("XYZW"))
            elif kind == "eps":
                text = "e"
            else:
                text = "(" + draw(_polynomial_texts(depth - 1)) + ")"
            if draw(st.booleans()):
                text += "^" + str(draw(st.integers(0, 3)))
            factors.append(text)
        product = factors[0]
        for text in factors[1:]:
            product += draw(st.sampled_from(["*", " * ", " "])) + text
        terms.append(product)
    out = ("-" if draw(st.booleans()) else "") + terms[0]
    for text in terms[1:]:
        out += draw(st.sampled_from([" + ", " - ", "+", "-"])) + text
    return out


def _same_parse(text, base):
    try:
        want = parse_by_multiplying(text, base)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            Poly.parse(text, base)
        assert str(got.value) == str(e)
        return None
    got = Poly.parse(text, base)
    assert got == want
    return got


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from((2, 3, 101, 32003)), st.booleans(), _polynomial_texts())
def test_parse_gathers_monomials_as_the_multiplying_parser(p, dual, text):
    # a term's integer, variable and e factors make one Poly, with the same
    # value as the factor-by-factor product, and it prints and parses back
    base = BaseRing(p, dual)
    f = _same_parse(text, base)
    if f is not None:
        assert Poly.parse(str(f), base) == f


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from((2, 101)), st.booleans(), st.lists(st.sampled_from(_TOKENS), max_size=10), st.lists(st.booleans(), min_size=10, max_size=10))
def test_parse_of_any_token_run_agrees_with_the_multiplying_parser(p, dual, tokens, spaced):
    # garbage included: the same Poly or the same ParseError message
    text = "".join(t + (" " if s else "") for t, s in zip(tokens, spaced))
    _same_parse(text, BaseRing(p, dual))


def test_parse_rejects_garbage(K, A):
    for bad in ["X*", "X^", "Q", "X +* Y", "(X"]:
        with pytest.raises(ParseError):
            Poly.parse(bad, K)
    with pytest.raises(ParseError):
        Poly.parse("e*X", K)  # epsilon needs the dual numbers
    Poly.parse("e*X", A)


def test_degree_and_homogeneity(K):
    f = Poly.parse("X*Z - Y^2", K)
    assert f.degree() == 2 and f.is_homogeneous()
    g = Poly.parse("X + Y^2", K)
    assert not g.is_homogeneous()
    assert Poly.zero(K).degree() == -1


def test_ring_axioms_spot_checks(K):
    X, Y, Z, W = (Poly.variable(K, i) for i in range(4))
    assert (X + Y) * (X - Y) == X * X - Y * Y
    assert (X * Y) * Z == X * (Y * Z)
    assert X * (Y + Z) == X * Y + X * Z


def test_fiber_and_lift(A, K):
    f = Poly.parse("X*Z + e*Y^2", A)
    assert f.fiber() == Poly.parse("X*Z", K)
    g = Poly.parse("X*Z", K).lift(A)
    assert g.base.dual and g.fiber() == Poly.parse("X*Z", K)


def test_epsilon_squares_to_zero(A):
    e = Poly.parse("e", A)
    assert (e * e).is_zero()
    f = Poly.parse("X + e*Y", A)
    g = Poly.parse("X - e*Y", A)
    assert f * g == Poly.parse("X^2", A)


def test_monomial_counts():
    # dim of degree-n forms in 4 variables is C(n+3, 3)
    for n, want in [(0, 1), (1, 4), (2, 10), (3, 20), (4, 35)]:
        assert graded_piece_dim(n) == want
        assert len(monomials(n)) == want
    assert graded_piece_dim(-1) == 0


def test_monomial_shift_is_the_index_of_each_product():
    for d in range(6):
        for c in range(4):
            for e in monomials(c):
                shift = monomial_shift(d, e)
                assert shift.shape == (len(monomials(d)),)
                assert len(set(shift.tolist())) == shift.size
                target = monomials(d + c)
                for k, m in enumerate(monomials(d)):
                    assert target[shift[k]] == exp_mul(e, m)
    assert monomial_shift(-1, (1, 0, 0, 0)).size == 0
    # the cached array is shared, so it must not be writable
    with pytest.raises(ValueError):
        monomial_shift(2, (0, 1, 0, 0))[0] = 0

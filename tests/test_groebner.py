import pytest

from spacecurves.groebner import (
    Ideal,
    fiber_colon,
    fiber_intersect,
    fiber_saturate,
    ideal_colon,
    ideal_intersect,
    ideal_saturate,
    ideal_sum,
)
from spacecurves.polyring import Poly


def I(base, *texts):
    return Ideal(base, [Poly.parse(t, base) for t in texts])


def test_groebner_membership(K):
    tc = I(K, "X*Z - Y^2", "Y*W - Z^2", "X*W - Y*Z")
    assert tc.contains(Poly.parse("X*Z*W - Y^2*W", K))
    assert tc.contains(Poly.parse("X*Z^2 - Y^2*Z", K))
    assert not tc.contains(Poly.parse("X*W", K))
    assert not tc.is_unit_ideal()


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
    res = ideal_colon(ci, skew)
    assert res == I(K, "X*Y", "X*Z", "W*Y", "W*Z")
    # colon back returns the original curve
    assert ideal_colon(ci, res) == skew


def test_intersect_of_two_lines(K):
    inter = ideal_intersect(I(K, "X", "Y"), I(K, "Z", "W"))
    assert inter == I(K, "X*Z", "X*W", "Y*Z", "Y*W")


def test_sum(K):
    s = ideal_sum(I(K, "X"), I(K, "Y"))
    assert s == I(K, "X", "Y")


def test_fiber_operations_match_full_ones_over_field(K):
    ci = I(K, "X*Z", "Y*W")
    skew = I(K, "X*Z", "X*W", "Y*Z", "Y*W")
    assert fiber_colon(ci, skew) == ideal_colon(ci, skew)
    assert fiber_intersect(I(K, "X", "Y"), I(K, "Z", "W")) == ideal_intersect(
        I(K, "X", "Y"), I(K, "Z", "W")
    )
    assert fiber_saturate(I(K, "X^2", "X*Y", "X*Z", "X*W")) == I(K, "X")


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
    assert ideal_colon(J, I(A, "X", "Y", "Z", "W")) == L

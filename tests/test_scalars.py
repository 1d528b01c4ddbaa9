import pytest

from spacecurves.errors import MixedBase, NonUnit
from spacecurves.scalars import BaseRing, is_prime


def test_is_prime():
    assert is_prime(2) and is_prime(32003)
    assert not is_prime(1) and not is_prime(32001)


def test_field_arithmetic(K):
    a = K.scalar(5)
    b = K.scalar(32000)
    assert (a + b).a == 2
    assert (a * b).a == (5 * 32000) % 32003
    assert (a - a).is_zero()
    inv = a.invert()
    assert (a * inv).a == 1


def test_dual_number_arithmetic(A):
    e = A.scalar(0, 1)
    assert (e * e).is_zero()
    x = A.scalar(3, 7)
    y = A.scalar(2, 1)
    z = x * y
    assert (z.a, z.b) == (6, (3 * 1 + 7 * 2) % 32003)
    inv = x.invert()
    assert (x * inv) == A.one()


def test_units_and_maximal_ideal(A):
    with pytest.raises(NonUnit):
        A.scalar(0, 1).invert()
    with pytest.raises(NonUnit):
        A.zero().invert()


def test_mixed_base_rejected(K, A):
    with pytest.raises(MixedBase):
        K.scalar(1) + A.scalar(1)

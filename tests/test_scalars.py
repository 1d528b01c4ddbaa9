import pytest

from spacecurves.errors import MixedBase
from spacecurves.polyring import Poly
from spacecurves.scalars import BaseRing, is_prime


def test_is_prime():
    assert is_prime(2) and is_prime(32003)
    assert not is_prime(1) and not is_prime(32001)


def test_mixed_base_rejected(K, A):
    with pytest.raises(MixedBase):
        Poly.constant(K, 1) + Poly.constant(A, 1)
    with pytest.raises(MixedBase):
        Poly.constant(A, 3, 7) * Poly.variable(K, 0)


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_the_field_of_a_dual_ring_is_one_object_per_prime(p):
    A, K = BaseRing(p, True), BaseRing(p, False)
    assert A.field() is A.field() is BaseRing(p, True).field()
    assert A.field() == K and hash(A.field()) == hash(K)
    assert K.field() is K
    assert A != K and A.field().dual is False and A.field().p == p

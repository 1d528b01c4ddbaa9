import pytest

from spacecurves.errors import MixedBase
from spacecurves.polyring import Poly
from spacecurves.scalars import is_prime


def test_is_prime():
    assert is_prime(2) and is_prime(32003)
    assert not is_prime(1) and not is_prime(32001)


def test_mixed_base_rejected(K, A):
    with pytest.raises(MixedBase):
        Poly.constant(K, 1) + Poly.constant(A, 1)
    with pytest.raises(MixedBase):
        Poly.constant(A, 3, 7) * Poly.variable(K, 0)

"""The base ring: a prime field F_p or the dual numbers F_p[e]/(e^2).

A scalar is not an object of its own: it is a coefficient pair (a, b) of a
Poly, meaning a + b*e, with b identically zero over the prime field, and a
scalar of R_A is a degree-0 Poly (Poly.constant).  The dual numbers are the
smallest local Artinian ring: a + b*e is a unit iff its residue a is
nonzero, with inverse a^-1 - a^-2*b*e.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

DEFAULT_PRIME = 32003
# Largest supported prime: below it (p - 1)^2 < 2^62, so a product of two
# residues, or a residue minus such a product, fits in int64.
MAX_PRIME = 2**31 - 1


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial division, cached: every BaseRing checks its modulus when it is
    built."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class BaseRing:
    """F_p (dual=False) or F_p[e]/(e^2) (dual=True)."""

    p: int = DEFAULT_PRIME
    dual: bool = False

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def field(self) -> "BaseRing":
        """The residue field F_p (the closed fiber k(t)), one object per p."""
        return _field(self.p) if self.dual else self

    def __str__(self):
        return f"F_{self.p}[e]/(e^2)" if self.dual else f"F_{self.p}"


@lru_cache(maxsize=None)
def _field(p: int) -> BaseRing:
    """The field ring F_p that BaseRing.field returns.  A BaseRing holds only
    p and dual, so the cache forms no reference cycle."""
    return BaseRing(p, False)

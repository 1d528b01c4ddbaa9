"""Exact arithmetic in the base ring: a prime field F_p or the dual
numbers F_p[e]/(e^2).

Every scalar is stored as a pair (a, b) meaning a + b*e; over the prime
field b is identically zero.  The dual numbers are the smallest local
Artinian ring: a scalar is a unit iff its residue a is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import MixedBase, NonUnit

DEFAULT_PRIME = 32003
# Largest supported prime: below it (p - 1)^2 < 2^62, so a product of two
# residues, or a residue minus such a product, fits in int64.
MAX_PRIME = 2**31 - 1


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial division, cached: every BaseRing checks its modulus, and over
    A each fiber ring is built afresh (BaseRing.field)."""
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
        """The residue field F_p (the closed fiber k(t))."""
        return self if not self.dual else BaseRing(self.p, False)

    def scalar(self, a: int, b: int = 0) -> "Scalar":
        if b % self.p and not self.dual:
            raise ValueError("epsilon part over a prime field")
        return Scalar(self, a % self.p, b % self.p if self.dual else 0)

    def zero(self) -> "Scalar":
        return Scalar(self, 0, 0)

    def one(self) -> "Scalar":
        return Scalar(self, 1, 0)

    def __str__(self):
        return f"F_{self.p}[e]/(e^2)" if self.dual else f"F_{self.p}"


@dataclass(frozen=True)
class Scalar:
    """An element a + b*e of the base ring."""

    ring: BaseRing
    a: int
    b: int = 0

    def _check(self, other: "Scalar"):
        if self.ring != other.ring:
            raise MixedBase(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        p = self.ring.p
        return Scalar(self.ring, (self.a + other.a) % p, (self.b + other.b) % p)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        p = self.ring.p
        return Scalar(self.ring, (self.a - other.a) % p, (self.b - other.b) % p)

    def __neg__(self) -> "Scalar":
        p = self.ring.p
        return Scalar(self.ring, -self.a % p, -self.b % p)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        p = self.ring.p
        # (a1 + b1 e)(a2 + b2 e) = a1 a2 + (a1 b2 + b1 a2) e,   e^2 = 0
        return Scalar(
            self.ring,
            (self.a * other.a) % p,
            (self.a * other.b + self.b * other.a) % p,
        )

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def invert(self) -> "Scalar":
        """Inverse of a unit: (a + be)^-1 = a^-1 - a^-2 b e."""
        if self.a == 0:
            raise NonUnit(f"{self} has residue 0")
        p = self.ring.p
        inv = pow(self.a, p - 2, p)
        return Scalar(self.ring, inv, (-inv * inv * self.b) % p)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}e" if self.b != 1 else "e"
        return f"{self.a}+{self.b}e" if self.b != 1 else f"{self.a}+e"

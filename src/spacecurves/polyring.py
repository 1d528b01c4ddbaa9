"""The graded polynomial ring A[X, Y, Z, W] with four fixed variables.

Polynomials are sparse dicts mapping exponent 4-tuples to (a, b) coefficient
pairs a + b*e over the base ring.  Values are immutable by convention: no
operation mutates an existing Poly.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .errors import MixedBase, ParseError
from .scalars import BaseRing

VARS = ("X", "Y", "Z", "W")

Exp = tuple  # (eX, eY, eZ, eW)

ZERO_EXP = (0, 0, 0, 0)

# The input limit on the degree of a term: groebner packs each exponent, and
# the degree, into 7 bits and a guard bit.  The parser rejects a larger one.
MAX_DEGREE = 2**7 - 1


def exp_mul(e1: Exp, e2: Exp) -> Exp:
    return tuple(a + b for a, b in zip(e1, e2))


def exp_degree(e: Exp) -> int:
    return sum(e)


def grevlex_key(e: Exp):
    """Sort key: larger key = larger monomial in graded reverse lex."""
    return (sum(e), tuple(-x for x in reversed(e)))


@lru_cache(maxsize=None)
def monomials(n: int) -> tuple:
    """All degree-n monomials of the 4-variable ring, grevlex-descending."""
    if n < 0:
        return ()
    out = []
    for i in range(n + 1):
        for j in range(n - i + 1):
            for k in range(n - i - j + 1):
                out.append((i, j, k, n - i - j - k))
    out.sort(key=grevlex_key, reverse=True)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(n: int) -> dict:
    return {m: i for i, m in enumerate(monomials(n))}


@lru_cache(maxsize=None)
def monomial_shift(d: int, e: Exp) -> np.ndarray:
    """Multiplication by x^e as an index map: entry k is the index of
    e * monomials(d)[k] in monomials(d + |e|).  Read-only (shared by the
    cache)."""
    idx = monomial_index(d + exp_degree(e))
    out = np.array([idx[exp_mul(e, m)] for m in monomials(d)], dtype=np.intp)
    out.flags.writeable = False
    return out


def graded_piece_dim(n: int) -> int:
    """dim_k of the degree-n piece of k[X,Y,Z,W]: C(n+3,3) for n >= 0."""
    return comb(n + 3, 3) if n >= 0 else 0


class Poly:
    """Sparse polynomial with dual-number-capable coefficients."""

    __slots__ = ("base", "terms")

    def __init__(self, base: BaseRing, terms: dict):
        self.base = base
        self.terms = {e: c for e, c in terms.items() if c != (0, 0)}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(base: BaseRing) -> "Poly":
        return Poly(base, {})

    @staticmethod
    def constant(base: BaseRing, a: int, b: int = 0) -> "Poly":
        p = base.p
        return Poly(base, {ZERO_EXP: (a % p, b % p)})

    @staticmethod
    def one(base: BaseRing) -> "Poly":
        return Poly.constant(base, 1)

    @staticmethod
    def variable(base: BaseRing, i: int) -> "Poly":
        e = [0, 0, 0, 0]
        e[i] = 1
        return Poly(base, {tuple(e): (1, 0)})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((exp_degree(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {exp_degree(e) for e in self.terms}
        return len(degs) <= 1

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.base == other.base
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.base, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Poly"):
        if self.base != other.base:
            raise MixedBase(f"{self.base} vs {other.base}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        p = self.base.p
        out = dict(self.terms)
        for e, (a, b) in other.terms.items():
            ca, cb = out.get(e, (0, 0))
            out[e] = ((ca + a) % p, (cb + b) % p)
        return Poly(self.base, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        p = self.base.p
        return Poly(self.base, {e: (-a % p, -b % p) for e, (a, b) in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        p = self.base.p
        out = {}
        for e1, (a1, b1) in self.terms.items():
            for e2, (a2, b2) in other.terms.items():
                e = exp_mul(e1, e2)
                ca, cb = out.get(e, (0, 0))
                out[e] = ((ca + a1 * a2) % p, (cb + a1 * b2 + b1 * a2) % p)
        return Poly(self.base, out)

    def scale_int(self, c: int) -> "Poly":
        p = self.base.p
        c %= p
        return Poly(
            self.base, {e: ((c * a) % p, (c * b) % p) for e, (a, b) in self.terms.items()}
        )

    def __pow__(self, k: int) -> "Poly":
        out = Poly.one(self.base)
        for _ in range(k):
            out = out * self
        return out

    # -- structure ----------------------------------------------------

    def coefficient(self, e: Exp) -> tuple:
        return self.terms.get(tuple(e), (0, 0))

    def fiber(self) -> "Poly":
        """Reduce modulo epsilon into the prime-field ring."""
        k = self.base.field()
        return Poly(k, {e: (a, 0) for e, (a, _) in self.terms.items() if a != 0})

    def lift(self, base: BaseRing) -> "Poly":
        """Coerce a fiber polynomial into a (possibly dual) base ring."""
        if self.base == base:
            return self
        if self.base != base.field():
            raise MixedBase(f"cannot lift {self.base} into {base}")
        return Poly(base, dict(self.terms))

    # -- printing -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=grevlex_key, reverse=True):
            a, b = self.terms[e]
            factors = []
            for v, k in zip(VARS, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            mono = "*".join(factors)
            if b == 0:
                coeff = str(a)
            elif a == 0:
                coeff = "e" if b == 1 else f"{b}*e"
            else:
                coeff = f"({a}+{b}*e)" if b != 1 else f"({a}+e)"
            if mono:
                if coeff == "1":
                    parts.append(mono)
                else:
                    parts.append(f"{coeff}*{mono}")
            else:
                parts.append(coeff)
        return " + ".join(parts)

    __repr__ = __str__

    @staticmethod
    def parse(text: str, base: BaseRing) -> "Poly":
        return _parse(text, base)


# -- parser -----------------------------------------------------------


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "XYZW":
            tokens.append(("var", VARS.index(c)))
            i += 1
        elif c == "e":
            tokens.append(("eps", None))
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif c in "+-*^()":
            tokens.append((c, None))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r} in {text!r}")
    return tokens


class _Parser:
    def __init__(self, tokens, base):
        self.tokens = tokens
        self.pos = 0
        self.base = base

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> Poly:
        """A signed sum of terms, summed into one coefficient dict: linear
        in the number of terms."""
        p = self.base.p
        acc = {}
        kind = self.peek()[0]
        while True:
            sign = 1
            if kind in ("+", "-"):
                self.take()
                sign = -1 if kind == "-" else 1
            for e, (a, b) in self.term().terms.items():
                ca, cb = acc.get(e, (0, 0))
                acc[e] = ((ca + sign * a) % p, (cb + sign * b) % p)
            kind = self.peek()[0]
            if kind not in ("+", "-"):
                return Poly(self.base, acc)

    def term(self) -> Poly:
        """A product of factors, juxtaposed or joined by '*'.  Integer,
        variable and e factors, with their powers, multiply into one
        coefficient a + b*e and one exponent tuple, and make one Poly; only
        a parenthesized factor is multiplied as a Poly.  The exponent of a
        variable or a parenthesized factor, and the degree of the term, are
        at most MAX_DEGREE, or ParseError; a parenthesized power is checked
        before it is expanded."""
        p = self.base.p
        a, b, exp = 1, 0, [0, 0, 0, 0]
        parts = []
        while True:
            kind, val = self.take()
            if kind == "(":
                val = self.expr()
                close, _ = self.take()
                if close != ")":
                    raise ParseError("unbalanced parenthesis")
            elif kind == "eps" and not self.base.dual:
                raise ParseError("'e' only allowed over the dual numbers")
            elif kind not in ("int", "var", "eps"):
                raise ParseError(f"unexpected token {kind!r}")
            k = self.power()
            if kind in ("(", "var") and k > MAX_DEGREE:
                raise ParseError(f"exponent {k} exceeds the degree limit {MAX_DEGREE}")
            if kind == "(":
                _check_degree(k * val.degree())
                parts.append(val**k)
            elif kind == "int":
                c = pow(val, k, p)
                a, b = a * c % p, b * c % p
            elif kind == "var":
                exp[val] += k
            elif k:  # e^1 = e, and e^k = 0 for k >= 2
                a, b = (0, a) if k == 1 else (0, 0)
            kind = self.peek()[0]
            if kind == "*":
                self.take()
            elif kind not in ("var", "eps", "int", "("):
                break
        out = Poly(self.base, {tuple(exp): (a, b)})
        for part in parts:
            out = out * part
        _check_degree(out.degree())
        return out

    def power(self) -> int:
        """The exponent after '^', or 1 when none follows."""
        if self.peek()[0] != "^":
            return 1
        self.take()
        kind, k = self.take()
        if kind != "int":
            raise ParseError("exponent must be an integer literal")
        return k


def _check_degree(d: int):
    if d > MAX_DEGREE:
        raise ParseError(f"a term of degree {d} exceeds the degree limit {MAX_DEGREE}")


def _parse(text: str, base: BaseRing) -> Poly:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    parser = _Parser(tokens, base)
    out = parser.expr()
    if parser.pos != len(tokens):
        raise ParseError(f"trailing tokens in {text!r}")
    return out


def random_form(base: BaseRing, d: int, rng) -> Poly:
    """A degree-d form with coefficients rng.randrange(p), drawn over
    monomials(d) in order."""
    return Poly(base, {m: (rng.randrange(base.p), 0) for m in monomials(d)})

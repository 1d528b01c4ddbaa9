"""Groebner bases of homogeneous ideals over F_p and over the dual numbers
A = F_p[e]/(e^2), with one engine and one route for each ideal operation.

The raw engine works on dicts mapping packed monomials to nonzero ints mod
p.  An ideal over F_p is an ideal of k[X,Y,Z,W] in grevlex.  An ideal over
A is the ideal of k[X,Y,Z,W,e] generated by its generators and e^2, in the
block order that compares grevlex on X, Y, Z, W first and then the power of
e; generators stay homogeneous in X, Y, Z, W, so standard monomials count
the graded pieces.  Treating e as a variable avoids Groebner bases over a
coefficient ring (Adams & Loustaunau, An Introduction to Groebner Bases,
AMS GSM 3, 1994, ch. 4).  Intersection eliminates a tag variable, the one
elimination here; there is no colon.

A monomial is one int (Bachmann & Schoenemann, ISSAC 1998; Monagan &
Pearce, CASC 2007).  Each order is one packing (_Order), a row of 8-bit
fields, most significant first: the tag t of an elimination order, if any;
the degree in X, Y, Z, W; the four exponents of X, Y, Z, W, the variable
grevlex compares first (the last one) highest; and the power of e over A.
The mask complements the four exponent fields, which grevlex compares in
reverse, so the order is integer order on packed ^ mask.  A product is the
sum of the ints, a quotient by a divisor their difference, and b divides a
exactly when ((a | G) - b) & G == G, G the top (guard) bit of every field.
Tuples of exponents remain where exponents are read: poly_to_raw,
raw_to_poly and the Hilbert numerator.

No field carries silently.  Every field of a monomial holds at most
MAX_DEGREE = 127 with its guard bit clear: poly_to_raw rejects a term of
degree above it, and each exponent of X, Y, Z, W is at most the degree.
Two such fields sum to at most 254 < 256, so adding two monomials carries
across no field boundary, and a field overflowed exactly when its guard bit
is set: one AND per new product finds it and raises DegreeOverflow.  In
((a | G) - b) each field is a_i + 128 - b_i, between 1 and 255, so nothing
borrows across fields and the guard bit says a_i >= b_i; a quotient by a
divisor borrows nowhere.  The lcm takes the larger field where that test
says so, and sums its four exponent fields into its degree field by one
multiplication, whose partial sums are at most deg a + deg b <= 254; an lcm
past the limit raises too, unless its pair is coprime and never formed.

Whether a form f of degree d is a nonzerodivisor on R_A/I, (I : f) = I, is
read off Hilbert series instead of a colon: the exact sequence
0 -> ((I : f)/I)(-d) -> (R_A/I)(-d) -> R_A/I -> R_A/(I + f) -> 0 gives
HS(R_A/(I + f)) = (1 - t^d)*HS(R_A/I) + t^d*HS((I : f)/I) in k-dimensions,
so (I : f) = I exactly when the Hilbert numerators of the lead ideals
satisfy K(I + f) = (1 - t^d)*K(I) (Bayer & Stillman, J. Symbolic Comput.
14, 1992).  Saturation is first certified by a nonzerodivisor on R/I: W
when no lead of I's basis has a W exponent, else the first candidate form
by that test.  Only when neither is one is it the intersection of the
four saturations by one variable, each read off one basis with that
variable last.  Over A the result then gets minimal generators.  The same
nonzerodivisor, one more linear form and the same Hilbert numerator prove a
regularity bound (Ideal.regularity_certificate), which caps resolutions.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import comb
from operator import mul

import numpy as np

from . import linalg
from .errors import CertificationError, DegreeOverflow, MixedBase, Undecided
from .gradedmod import FreeModule, GradedMap, min_generators
from .polyring import MAX_DEGREE, Poly, graded_piece_dim, monomial_index, monomials, random_form
from .scalars import BaseRing

# -- packed monomials -----------------------------------------------------

_BITS = MAX_DEGREE.bit_length()  # value bits of a field; the guard bit is next
_WIDTH = _BITS + 1
_FIELD = (1 << _WIDTH) - 1
_ONES = sum(1 << _WIDTH * k for k in range(4))  # sums four fields into the top one


class _Order:
    """A monomial order as a packing (see the module docstring): grevlex on
    X, Y, Z, W with the variables perm[3], ..., perm[0] compared in that
    order after the degree, below a tag field when tag, above an e field
    when dual.  Exponent tuples are (t, X, Y, Z, W, e), each entry present
    only when its variable is."""

    __slots__ = ("units", "shifts", "mask", "guard", "heap", "low", "top", "e")

    def __init__(self, perm, dual: bool, tag: bool):
        low = _WIDTH if dual else 0  # the lowest exponent field, perm[0]'s
        top = low + 4 * _WIDTH  # the degree field
        var = [low + _WIDTH * perm.index(v) for v in range(4)]  # X, Y, Z, W
        self.shifts = tuple([top + _WIDTH] * tag + var + [0] * dual)
        # each variable packed alone: X, Y, Z and W raise the degree field too
        self.units = tuple([1 << top + _WIDTH] * tag + [(1 << s) + (1 << top) for s in var] + [1] * dual)
        self.mask = sum(_FIELD >> 1 << s for s in var)
        fields = 5 + dual + tag
        self.guard = sum(1 << _WIDTH * k + _BITS for k in range(fields))
        self.heap = self.mask ^ ((1 << _WIDTH * fields) - 1)  # m ^ heap: largest first
        self.low, self.top = low, top
        self.e = _FIELD if dual else 0  # the e field, the lowest


@lru_cache(maxsize=None)
def _order(perm: tuple, dual: bool, tag: bool = False) -> _Order:
    return _Order(perm, dual, tag)


_RING = (0, 1, 2, 3)  # grevlex compares W, Z, Y, X after the degree


def _orders(base: BaseRing):
    """(ring order, tag-eliminating order) of the raw ring of base."""
    return _order(_RING, base.dual), _order(_RING, base.dual, True)


def _pack(exps, order: _Order) -> int:
    """The exponent tuple exps as a packed monomial; unchecked."""
    return sum(map(mul, exps, order.units))


def _unpack(m: int, order: _Order) -> tuple:
    return tuple([m >> s & _FIELD for s in order.shifts])


def _repack(f: dict, src: _Order, dst: _Order) -> dict:
    """f, packed by src, packed by dst: the same exponents in other fields."""
    moves = tuple(zip(src.shifts, dst.units))
    return {sum((m >> s & _FIELD) * u for s, u in moves): c for m, c in f.items()}


def _degree(m: int, order: _Order) -> int:
    """The total degree of m: its degree field, the tag above it (0 when the
    order has none) and the e field."""
    return (m >> order.top & _FIELD) + (m >> order.top + _WIDTH) + (m & order.e)


def _lead(f, order: _Order):
    e = max(f, key=order.mask.__xor__)
    return e, f[e]


def _divides(a: int, b: int, guard: int) -> bool:
    """Whether the monomial a divides b; guard is the order's guard mask."""
    return ((b | guard) - a) & guard == guard


def _lcm(a: int, b: int, order: _Order) -> int:
    g = order.guard
    ge = ((a | g) - b) & g  # the guard bit of each field where a >= b
    take = ge - (ge >> _BITS)  # the value bits of those fields
    m = (a & take) | (b & ~take)
    deg = (m >> order.low) * _ONES >> 3 * _WIDTH & _FIELD
    if deg > MAX_DEGREE:
        raise DegreeOverflow(f"a monomial of degree {deg} exceeds the limit {MAX_DEGREE}")
    return m & ~(_FIELD << order.top) | deg << order.top


def _overflow():
    return DegreeOverflow(f"a product exceeds the degree limit {MAX_DEGREE} in a field")


def _raw_add_scaled(f, g, c, shift, p, guard):
    """f + c * shift * g for the packed monomial shift, on a copy of f."""
    out = dict(f)
    for e, a in g.items():
        em = e + shift
        if em & guard:
            raise _overflow()
        v = (out.get(em, 0) + c * a) % p
        if v:
            out[em] = v
        else:
            out.pop(em, None)
    return out


def raw_normal_form(f, reducers, p, order: _Order):
    """Full normal form of f by the (lead, poly) pairs in reducers, tried in
    order: no term of the result is divisible by a lead.

    The remainder's monomials wait in a heap, as m ^ order.heap, so that the
    largest pops first.  A reduction step adds only terms below the lead it
    cancels, so the largest monomial still in the remainder is its lead; a
    monomial that cancelled stays in the heap and is skipped when it comes
    up.
    """
    guard, flip = order.guard, order.heap
    f = dict(f)
    heap = [m ^ flip for m in f]
    heapify(heap)
    out = {}
    while heap:
        e = heappop(heap) ^ flip
        c = f.pop(e, None)
        if c is None:
            continue
        for le, g in reducers:
            if ((e | guard) - le) & guard == guard:  # _divides(le, e, guard), inlined
                break
        else:
            out[e] = c
            continue
        factor = (-c * pow(g[le], p - 2, p)) % p
        shift = e - le
        # the lead term of g cancels c, which is already popped
        for m, a in g.items():
            if m == le:
                continue
            em = m + shift
            if em & guard:
                raise _overflow()
            v = f.get(em)
            if v is None:
                v = factor * a % p
                if v:
                    f[em] = v
                    heappush(heap, em ^ flip)
            else:
                v = (v + factor * a) % p
                if v:
                    f[em] = v
                else:
                    del f[em]
    return out


def raw_spoly(f, g, p, order: _Order):
    ef, cf = _lead(f, order)
    eg, cg = _lead(g, order)
    l = _lcm(ef, eg, order)
    a = _raw_add_scaled({}, f, pow(cf, p - 2, p), l - ef, p, order.guard)
    return _raw_add_scaled(a, g, (-pow(cg, p - 2, p)) % p, l - eg, p, order.guard)


def raw_buchberger(gens, p, order: _Order):
    """Reduced monic Groebner basis of the ideal generated by gens.

    Critical pairs leave a priority queue lowest sugar first (the degree of
    their lcm when the input is homogeneous), and each new basis element
    goes through the Gebauer–Möller update (J. Symb. Comp. 6, 1988) before
    its pairs enter the queue.
    """
    polys, leads, excess = [], [], []  # excess: sugar minus the lead's degree
    active = []  # reducer set: elements whose lead no later lead divides
    pending = {}  # (i, j) -> lcm of the leads, for pairs still queued
    queue = []  # (sugar, lcm ^ mask, i, j)
    guard, mask = order.guard, order.mask

    def add(h, sugar):
        k, eh = len(polys), _lead(h, order)[0]
        over = sugar - _degree(eh, order)
        polys.append(h)
        leads.append(eh)
        excess.append(over)
        # B: drop a queued pair (i, j) whose lcm eh divides, unless
        # lcm(i, h) or lcm(j, h) equals it
        for (i, j), l in list(pending.items()):
            if (_divides(eh, l, guard) and _lcm(leads[i], eh, order) != l
                    and _lcm(leads[j], eh, order) != l):
                del pending[i, j]
        # M and F on the new pairs: keep one pair per lcm that no other new
        # lcm properly divides, and none where a pair with that lcm has
        # coprime leads (its S-polynomial reduces to 0)
        by_lcm = {}
        for g in active:
            try:
                l = _lcm(leads[g], eh, order)
            except DegreeOverflow:
                if not any(map(min, _unpack(leads[g], order), _unpack(eh, order))):
                    continue  # coprime, so dropped: its S-polynomial is never formed
                raise
            first, any_coprime = by_lcm.get(l, (g, False))
            by_lcm[l] = (first, any_coprime or l == leads[g] + eh)  # coprime: lcm = product
        for l, (g, coprime) in by_lcm.items():
            if coprime or any(m != l and _divides(m, l, guard) for m in by_lcm):
                continue
            s = max(excess[g], over) + _degree(l, order)
            pending[g, k] = l
            heappush(queue, (s, l ^ mask, g, k))
        active[:] = [g for g in active if not _divides(eh, leads[g], guard)] + [k]

    for g in sorted((dict(g) for g in gens if g), key=lambda g: _lead(g, order)[0] ^ mask):
        add(g, max(_degree(m, order) for m in g))
    while queue:
        s, _, i, j = heappop(queue)
        if pending.pop((i, j), None) is None:
            continue  # dropped by the B criterion after it was queued
        h = raw_normal_form(raw_spoly(polys[i], polys[j], p, order),
                            [(leads[k], polys[k]) for k in active], p, order)
        if h:
            add(h, s)
    return raw_interreduce([polys[k] for k in active], p, order)


def raw_interreduce(basis, p, order: _Order):
    # drop redundant lead terms, then tail-reduce and normalize
    guard = order.guard
    basis = [g for g in basis if g]
    leads = [_lead(g, order)[0] for g in basis]
    keep = []
    for i, e in enumerate(leads):
        if not any(
            j != i and _divides(leads[j], e, guard) and (leads[j] != e or j < i)
            for j in range(len(basis))
        ):
            keep.append(i)
    pairs = [(leads[i], basis[i]) for i in keep]
    out = []
    for i, (_, g) in enumerate(pairs):
        r = raw_normal_form(g, pairs[:i] + pairs[i + 1 :], p, order)
        if r:
            e, c = _lead(r, order)
            inv = pow(c, p - 2, p)
            out.append((e ^ order.mask, {m: (a * inv) % p for m, a in r.items()}))
    out.sort(key=lambda t: t[0])  # the leads are distinct
    return [g for _, g in out]


# -- conversion between Poly and raw form -------------------------------


def poly_to_raw(f: Poly) -> dict:
    """f as a raw dict in the ring order: in k[X,Y,Z,W] over F_p, in
    k[X,Y,Z,W,e] over A.  DegreeOverflow for a term of degree above
    MAX_DEGREE: the degree field is the top one, so the largest packed term
    holds the degree of f whole."""
    order = _orders(f.base)[0]
    if not f.base.dual:
        out = {_pack(e, order): a for e, (a, _) in f.terms.items()}
    else:
        out = {}
        for e, (a, b) in f.terms.items():
            m = _pack(e, order)
            if a:
                out[m] = a
            if b:
                out[m + 1] = b
    if out and max(out) >> order.top > MAX_DEGREE:
        raise DegreeOverflow(f"a form of degree {f.degree()} exceeds the limit {MAX_DEGREE}")
    return out


def raw_to_poly(raw: dict, base: BaseRing) -> Poly:
    """Inverse of poly_to_raw; over A, terms divisible by e^2 vanish."""
    order = _orders(base)[0]
    if not base.dual:
        return Poly(base, {_unpack(m, order): (c % base.p, 0) for m, c in raw.items()})
    terms = {}
    for m, c in raw.items():
        e = _unpack(m, order)
        if e[4] < 2:
            a, b = terms.get(e[:4], (0, 0))
            terms[e[:4]] = (c, b) if e[4] == 0 else (a, c)
    return Poly(base, terms)


# -- Ideal --------------------------------------------------------------


class Ideal:
    """Homogeneous ideal of R_A with a write-once reduced Groebner basis
    over its own base ring (see the module docstring for A)."""

    def __init__(self, base: BaseRing, gens):
        self.base = base
        gens = [g for g in gens if not g.is_zero()]
        for g in gens:
            if g.base != base:
                raise MixedBase("generator over a different base ring")
            if not g.is_homogeneous():
                raise ValueError(f"non-homogeneous generator {g}")
        self.gens = tuple(gens)
        self._gb = None  # (reduced basis, its lead exponents)
        self._hs = None  # Hilbert numerator of the quotient
        self._fiber = None
        # saturation certificate, written once: "W", the first candidate
        # form, or False when neither is a nonzerodivisor on R/I
        self._nzd = None
        # regularity certificate over F_p, written once: a degree m with I
        # m-regular, or False when none is found
        self._reg = None

    @staticmethod
    def parse(base: BaseRing, texts) -> "Ideal":
        return Ideal(base, [Poly.parse(t, base) for t in texts])

    def fiber(self) -> "Ideal":
        if not self.base.dual:
            return self
        if self._fiber is None:
            self._fiber = Ideal(self.base.field(), [g.fiber() for g in self.gens])
        return self._fiber

    def _raw_gens(self):
        gens = [poly_to_raw(g) for g in self.gens]
        return gens + [{2: 1}] if self.base.dual else gens  # e^2: the e field is the lowest

    def _groebner(self):
        """(reduced monic Groebner basis as raw dicts in the ring order, with
        e^2 in it over A; the tuple of its leads)."""
        if self._gb is None:
            order = _orders(self.base)[0]
            gb = raw_buchberger(self._raw_gens(), self.base.p, order)
            self._gb = gb, tuple(_lead(g, order)[0] for g in gb)
        return self._gb

    def contains(self, f: Poly) -> bool:
        """Exact membership over the base ring: f reduces to 0."""
        if f.base != self.base:
            raise MixedBase("membership across base rings")
        gb, leads = self._groebner()
        return not raw_normal_form(poly_to_raw(f), list(zip(leads, gb)), self.base.p, _orders(self.base)[0])

    def is_unit_ideal(self) -> bool:
        return self.contains(Poly.one(self.base))

    # -- degreewise pieces: the ideal as the rank-1 module ---------------

    def generator_map(self) -> GradedMap:
        """R(-d_1) + ... + R(-d_k) -> R sending e_i to the generator g_i.

        Built afresh on each call: its rank cache would otherwise live as
        long as the ideal.
        """
        F = FreeModule(self.base, [-g.degree() for g in self.gens])
        return GradedMap(F, FreeModule(self.base, [0]), [list(self.gens)])

    def hilbert_numerator(self) -> tuple:
        """K(t) with HS(R_A/I) = K(t)/(1 - t)^4 over k, read off the leads of
        the basis; () for the unit ideal.  Cached."""
        if self._hs is None:
            self._hs = _numerator(self._groebner()[1], self.base)
        return self._hs

    def quotient_piece_dim(self, n: int) -> int:
        """k-dimension of (R_A/I)_n."""
        return _standard_monomial_count(self.hilbert_numerator(), n)

    def piece_dim(self, n: int) -> int:
        """k-dimension of the degree-n piece of the ideal."""
        total = graded_piece_dim(n) * (2 if self.base.dual else 1)
        return total - self.quotient_piece_dim(n)

    def hilbert_function(self, n_max: int):
        """dim_k (R/I)_n for the fiber ideal, n = 0..n_max."""
        fib = self.fiber()
        return [fib.quotient_piece_dim(n) for n in range(n_max + 1)]

    def degree_genus(self):
        """(d, g) with dn + 1 - g the Hilbert polynomial of R/I_fiber, I of
        Krull dimension 2: HF(n) = sum of k_i * C(n - i + 3, 3) over the
        fiber's Hilbert numerator K is polynomial from n = len(K) on."""
        fib = self.fiber()
        n = len(fib.hilbert_numerator())
        hf = fib.quotient_piece_dim
        d = hf(n + 1) - hf(n)
        return d, 1 - hf(n) + d * n

    def regularity_certificate(self, top: int):
        """A degree m >= top at which Bayer & Stillman's criterion
        (Invent. Math. 87, 1987, Thm 1.10) proves I m-regular, top the top
        degree of I's minimal generators; None when none is found.  Written
        once.  I lies over F_p: over A, resolution() hands the fiber the
        family's nonzerodivisor (hand_down_nonzerodivisor), resolves only the
        fiber R/I_fiber, on the fiber's cap, and lifts it over e.

        For a saturated I of Krull dimension 2, take h_1 = f, the linear
        nonzerodivisor of _saturation_certificate, and h_2 = h, the first
        linear candidate form that passes.  In degree m the criterion asks
        (1) (I : f)_m = I_m, (2) ((J : h)/J)_m = 0 for J = I + f, and
        (3) (I + f + h)_m = R_m.  (1) holds as f is a nonzerodivisor.  (3)
        says that the restrictions of I's generators to the line
        L = {f = h = 0} span the binary forms of degree m, and then of
        degree m + 1 too.  So 0 -> ((J : h)/J)(-1) -> (R/J)(-1) -> R/J
        -> R/(J + h) -> 0 gives dim ((J : h)/J)_m = HF_{R/J}(m) -
        HF_{R/J}(m + 1), and HF_{R/J} is the difference function of
        HF_{R/I}, f being a nonzerodivisor: (2) reads Delta HF_{R/I}(m) =
        Delta HF_{R/I}(m + 1) off the Hilbert numerator, and no Groebner
        basis is built.  The search stops at Gotzmann's number
        C(d, 2) + 1 - g (Math. Z. 158, 1978), a regularity bound for a
        saturated ideal with Hilbert polynomial dn + 1 - g.
        """
        if self._reg is None:
            self._reg = _bayer_stillman_degree(self, top)
        return self._reg or None

    def hand_down_nonzerodivisor(self):
        """Over A, give the fiber of a flat family the family's saturation
        certificate (_saturation_certificate) when the fiber has none yet,
        so that the fiber's needs no nonzerodivisor test of its own.  A
        nonzerodivisor f on the flat R_A/I has a nonzerodivisor fiber on
        R/I_fiber = R_A/I tensor_A k: f*x = e*y gives f*e*x = 0, so e*x = 0
        and x lies in e*R_A/I, the annihilator of e in a flat family."""
        fib, f = self.fiber(), _saturation_certificate(self)
        if f and fib._nzd is None and is_flat_family(self):
            fib._nzd = f if f == "W" else f.fiber()

    def krull_dimension(self) -> int:
        """Krull dimension of R_k / (fiber ideal), which is that of R_A/I:
        4 minus the order of (1 - t) in the Hilbert numerator."""
        K = self.fiber().hilbert_numerator()
        if not K:
            return -1
        dim = 4
        while not sum(K):  # K(1) = 0: divide by 1 - t
            K = tuple(itertools.accumulate(K))[:-1]
            dim -= 1
        return dim

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.base == other.base
            and self._groebner()[0] == other._groebner()[0]
        )

    def __hash__(self):
        return hash((self.base, tuple(frozenset(g.items()) for g in self._groebner()[0])))

    def __repr__(self):
        return "Ideal(" + ", ".join(str(g) for g in self.gens) + ")"


@lru_cache(maxsize=None)
def _standard_monomial_count(numerator: tuple, n: int) -> int:
    """The coefficient of t^n in numerator(t)/(1 - t)^4: the number of
    standard monomials of degree n of a monomial ideal with that Hilbert
    numerator.  perfbench's tracer reports this cache's hits and misses."""
    return sum(k * graded_piece_dim(n - i) for i, k in enumerate(numerator))


def _plus_shifted(a, b, d: int, c: int = 1) -> tuple:
    """a(t) + c*t^d*b(t) on coefficient tuples, lowest degree first, with
    no trailing zero."""
    out = list(a) + [0] * max(0, len(b) + d - len(a))
    for i, x in enumerate(b):
        out[i + d] += c * x
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _hilbert_numerator(leads) -> tuple:
    """K(t) with HS(k[x_1..x_n]/(leads)) = K(t)/(1 - t)^n, n the arity of the
    exponents; () for the unit ideal.

    Pivot on a variable x that two minimal generators share:
    0 -> k[x]/(I : x)(-1) -> k[x]/I -> k[x]/(I + x) -> 0 gives
    K(I) = K(I + x) + t*K(I : x).  Pairwise coprime generators give
    K = prod(1 - t^|g|) (Bayer & Stillman, J. Symbolic Comput. 14, 1992).
    """
    gens = []
    for g in sorted(set(leads), key=sum):
        if not any(all(a <= b for a, b in zip(h, g)) for h in gens):
            gens.append(g)
    arity = len(gens[0]) if gens else 0
    shared = [sum(1 for g in gens if g[v]) for v in range(arity)]
    if max(shared, default=0) < 2:
        out = (1,)
        for g in gens:
            out = _plus_shifted(out, out, sum(g), -1)
        return out
    v = shared.index(max(shared))
    x = tuple(int(u == v) for u in range(arity))
    plus = [g for g in gens if not g[v]] + [x]
    colon = [g[:v] + (max(g[v] - 1, 0),) + g[v + 1 :] for g in gens]
    return _plus_shifted(_hilbert_numerator(plus), _hilbert_numerator(colon), 1)


def _numerator(leads, base: BaseRing) -> tuple:
    """The Hilbert numerator of R_A/I over k from the leads of I's basis in
    the ring order.  Over A the standard monomials are x^a (no e-free lead
    divides x^a) and x^a*e (no lead of e-exponent at most 1 divides x^a):
    two series."""
    order = _orders(base)[0]
    leads = [_unpack(m, order) for m in leads]
    if not base.dual:
        return _hilbert_numerator(leads)
    plain = _hilbert_numerator([e[:4] for e in leads if e[4] == 0])
    return _plus_shifted(plain, _hilbert_numerator([e[:4] for e in leads if e[4] <= 1]), 0)


# -- ideal operations: one route over both base rings ---------------------


def _elim_intersection_raw(gens_i, gens_j, p, base: BaseRing):
    """Raw generators of I cap J in the ring order of base: the tag-free
    part of a Groebner basis of t*I + (1 - t)*J in the order that puts the
    tag t in a field above the ring order's, which eliminates it."""
    elim = _orders(base)[1]
    t = elim.units[0]
    tagged = [{m + t: c for m, c in g.items()} for g in gens_i]
    for g in gens_j:
        tagged.append({**g, **{m + t: p - c for m, c in g.items()}})
    return [g for g in raw_buchberger(tagged, p, elim) if all(m < t for m in g)]


def _saturate_by_variables(I: Ideal) -> Ideal:
    """I : (X,Y,Z,W)^infinity as the intersection of the four I : x_i^infinity,
    since x_i^N*f in I for each i puts m^(4N)*f in I; I itself when it is
    saturated.  I : x_i^infinity is a basis of I in grevlex with x_i last,
    each element divided by its largest power of x_i (Bayer & Stillman,
    Invent. Math. 87, 1987).  That needs only that x_i divides the lead of a
    form exactly when it divides the form, which grevlex on X, Y, Z, W gives
    first in the block order over A too.  e^2 stays in every basis.  Each
    basis is packed in its own order and its quotients are repacked in the
    ring order for the intersections.  With W last that order is the ring
    order, so that basis is the one I keeps."""
    ring = _orders(I.base)[0]
    out = None
    for i in range(4):
        order = _order(tuple(j for j in range(4) if j != i) + (i,), I.base.dual)
        if order is ring:
            gb = I._groebner()[0]
        else:
            gb = raw_buchberger([_repack(g, ring, order) for g in I._raw_gens()], I.base.p, order)
        s, x = order.shifts[i], order.units[i]
        sat = []
        for g in gb:
            a = min(m >> s & _FIELD for m in g) * x  # the largest power of x_i dividing g
            sat.append(_repack({m - a: c for m, c in g.items()}, order, ring))
        out = sat if out is None else _elim_intersection_raw(out, sat, I.base.p, I.base)
    out = Ideal(I.base, [raw_to_poly(g, I.base) for g in out])
    return I if out == I else out


@lru_cache(maxsize=None)
def _candidate_forms(base: BaseRing) -> tuple:
    """The forms tried as nonzerodivisors, in one fixed order: 3X + 5Y - 7Z
    + 11W, then seeded random forms, eight of each degree 1, 2, 3.  Over a
    small field every linear form can vanish on a component.  Built once
    per base ring."""
    rng = random.Random(0)
    drawn = [random_form(base, d, rng) for d in (1, 2, 3) for _ in range(8)]
    return (Poly.parse("3*X + 5*Y - 7*Z + 11*W", base), *drawn)


def is_nonzerodivisor(I: Ideal, f: Poly) -> bool:
    """True iff the form f is a nonzerodivisor on R_A/I, that is (I : f) = I.

    With d = deg f, 0 -> ((I : f)/I)(-d) -> (R_A/I)(-d) -> R_A/I
    -> R_A/(I + f) -> 0 is exact, so HS(R_A/(I + f)) = (1 - t^d)*HS(R_A/I)
    + t^d*HS((I : f)/I) in k-dimensions, and (I : f) = I exactly when the
    Hilbert numerators satisfy K(I + f) = (1 - t^d)*K(I).  One Groebner
    basis of I + (f), seeded with the basis of I, in the order of I.
    """
    if f.base != I.base:
        raise MixedBase("nonzerodivisor test across base rings")
    K = I.hilbert_numerator()
    if f.is_zero():  # (I : 0) is the unit ideal
        return not K
    gb, leads = I._groebner()
    p = I.base.p
    order = _orders(I.base)[0]
    h = raw_normal_form(poly_to_raw(f), list(zip(leads, gb)), p, order)
    if h:
        leads = tuple(_lead(g, order)[0] for g in raw_buchberger(gb + [h], p, order))
    return _numerator(leads, I.base) == _plus_shifted(K, K, f.degree(), -1)


def is_flat_family(I: Ideal) -> bool:
    """True iff R_A/I is flat over A, that is each piece (R_A/I)_n is free.
    A finite A-module M is A^a + k^b, free exactly when dim_k M = 2*dim_k
    M/eM, and M/eM = (R/I_fiber)_n; so the family is flat exactly when
    HS(R_A/I) = 2*HS(R/I_fiber), which compares two Hilbert numerators."""
    if not I.base.dual:
        return True
    return I.hilbert_numerator() == tuple(2 * k for k in I.fiber().hilbert_numerator())


def _saturation_certificate(I: Ideal):
    """A nonzerodivisor on R/I, which proves I saturated: m^k*g in I gives
    f^k*g in I, hence g in I.  "W" when no lead of I's basis has a W
    exponent: if W*g lies in I for a nonzero normal form g, some lead divides
    W*lead(g) and so lead(g) (Bayer & Stillman, Invent. Math. 87, 1987).
    Else the first candidate form when is_nonzerodivisor certifies it, else
    False.  Over A the block order compares X, Y, Z, W first, and the same
    holds.  Cached; the fiber of a flat family may be handed the family's
    (Ideal.hand_down_nonzerodivisor)."""
    if I._nzd is None:
        w = _FIELD << _orders(I.base)[0].shifts[3]
        if not any(m & w for m in I._groebner()[1]):
            I._nzd = "W"
        else:
            f = _candidate_forms(I.base)[0]
            I._nzd = f if is_nonzerodivisor(I, f) else False
    return I._nzd


def _nonzerodivisor(I: Ideal) -> Poly:
    """The first candidate form that is a nonzerodivisor on R/I."""
    if isinstance(I._nzd, Poly):
        return I._nzd
    for f in _candidate_forms(I.base):
        if is_nonzerodivisor(I, f):
            return f
    raise Undecided("no candidate form is a nonzerodivisor on R/I")


def _bayer_stillman_degree(I: Ideal, top: int):
    """Ideal.regularity_certificate over F_p, uncached: the degree, or
    False."""
    f = _saturation_certificate(I)
    if not f or I.krull_dimension() != 2:
        return False
    if f == "W":
        f = Poly.variable(I.base, 3)
    p = I.base.p
    hf = I.quotient_piece_dim
    d, g = I.degree_genus()
    gotzmann = comb(d, 2) + 1 - g
    sections = {}
    for m in range(top, max(top, gotzmann) + 1):
        if hf(m) - hf(m - 1) != hf(m + 1) - hf(m):
            continue
        for h in _candidate_forms(I.base):
            if h.degree() != 1:
                break
            if h not in sections:
                sections[h] = _line_section(I.gens, f, h, p)
            if sections[h] is not None and _spans_binary_forms(sections[h], m, p):
                return m
    return False


_UNIT_EXPONENTS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _line_section(gens, f: Poly, h: Poly, p: int):
    """The restrictions g(s*u + t*v) of the forms gens to the line
    {f = h = 0}, u and v a basis of the kernel of the linear forms f and h:
    for g of degree d, the coefficients of s^(d-k)*t^k, k = 0..d, as the
    restriction matrix of degree d (_restriction) times g's coefficients,
    mod p; [] for g = 0.  None when f and h are dependent."""
    variables = _line_basis(tuple(tuple(g.coefficient(e)[0] for e in _UNIT_EXPONENTS) for g in (f, h)), p)
    if variables is None:
        return None
    out = []
    for g in gens:
        if g.is_zero():
            out.append([])
            continue
        d = g.degree()
        idx = monomial_index(d)
        coeffs = np.zeros((graded_piece_dim(d), 1), dtype=np.int64)
        for e, (a, _) in g.terms.items():
            coeffs[idx[e], 0] = a
        out.append(linalg.matmul(_restriction(variables, d, p), coeffs, p)[:, 0].tolist())
    return out


@lru_cache(maxsize=None)
def _line_basis(forms: tuple, p: int):
    """((u_i, v_i) for each variable x_i), u and v a basis of the kernel of
    the two linear forms with coefficient rows forms, so that x_i restricts
    to u_i*s + v_i*t on their line; None when the forms are dependent."""
    ker = linalg.kernel_basis(np.array(forms, dtype=np.int64), p)
    return tuple(map(tuple, ker.tolist())) if ker.shape[1] == 2 else None


@lru_cache(maxsize=None)
def _restriction(variables: tuple, d: int, p: int) -> np.ndarray:
    """The (d + 1) x dim R_d matrix whose column j holds the binary form
    monomials(d)[j] restricts to, x_i -> variables[i][0]*s +
    variables[i][1]*t, coefficients of s^(d-k)*t^k in row k, mod p.  Each
    column is one convolution: a column of degree d - 1 times the
    restriction of one variable.  Read-only (shared by the cache)."""
    out = np.zeros((d + 1, graded_piece_dim(d)), dtype=np.int64)
    if d == 0:
        out[0, 0] = 1
    else:
        lower, idx = _restriction(variables, d - 1, p), monomial_index(d - 1)
        for j, e in enumerate(monomials(d)):
            i = next(i for i, k in enumerate(e) if k)
            below = lower[:, idx[e[:i] + (e[i] - 1,) + e[i + 1 :]]]
            out[:, j] = np.convolve(below, variables[i]) % p
    out.flags.writeable = False
    return out


def _spans_binary_forms(section, m: int, p: int) -> bool:
    """Whether the binary forms of section, times the monomials of the
    degrees that bring them to m, span all m + 1 binary forms of degree m."""
    cols = [[0] * k + s + [0] * (m + 1 - len(s) - k) for s in section for k in range(m + 2 - len(s))]
    return bool(cols) and linalg.rank(np.array(cols, dtype=np.int64).T, p) == m + 1


def _kernel_form(mat: np.ndarray, p: int) -> np.ndarray:
    """The basis linalg.kernel_basis gives a subspace, from columns spanning
    it: reduced with the coordinates in reverse order, then reversed back."""
    return linalg.column_basis(mat[::-1], p)[::-1, ::-1]


def _with_min_generators(exact: Ideal, form, inside: Ideal = None) -> Ideal:
    """exact over A on minimal generators, which min_generators picks from
    the pieces of exact in the given basis form up to its top generator
    degree, with their dimensions read off exact's Hilbert numerator, not
    eliminated.  Certified by equal Groebner bases, and inside <= exact."""
    base = exact.base
    gmap = exact.generator_map()
    top = max((g.degree() for g in exact.gens), default=0)
    gens = min_generators(
        FreeModule(base, [0]), lambda n: form(gmap.matrix_at(n), base.p), exact.piece_dim, top
    )
    out = Ideal(base, list(gens.matrix[0]))
    if out != exact:
        raise CertificationError("the minimal generators span a different ideal")
    out._nzd = exact._nzd
    if inside is not None and not all(out.contains(g) for g in inside.gens):
        raise CertificationError("the result does not contain the input ideal")
    return out


def reduced_generators(I: Ideal) -> Ideal:
    """I on generators that depend only on the ideal, as ideal_saturate
    writes a saturation: its reduced basis over F_p, minimal generators in
    the kernel_basis form over A."""
    if I.base.dual:
        return _with_min_generators(I, _kernel_form)
    out = Ideal(I.base, [raw_to_poly(g, I.base) for g in I._groebner()[0]])
    out._gb = I._gb
    return out


def ideal_saturate(I: Ideal) -> Ideal:
    """I : (X,Y,Z,W)^infinity over the base ring of I: I itself once a
    nonzerodivisor certifies it."""
    out = I if _saturation_certificate(I) else _saturate_by_variables(I)
    return _with_min_generators(out, _kernel_form, I) if I.base.dual else out


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    if I.base != J.base:
        raise MixedBase("intersection across base rings")
    base = I.base
    raw = _elim_intersection_raw(I._raw_gens(), J._raw_gens(), base.p, base)
    out = Ideal(base, [raw_to_poly(g, base) for g in raw])
    return _with_min_generators(out, linalg.column_basis) if base.dual else out


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    if I.base != J.base:
        raise MixedBase("sum across base rings")
    return Ideal(I.base, list(I.gens) + list(J.gens))


def ideal_product_poly(H: Poly, I: Ideal) -> Ideal:
    """The ideal H * I (generators scaled)."""
    return Ideal(I.base, [H * g for g in I.gens])

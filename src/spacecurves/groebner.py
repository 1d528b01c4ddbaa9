"""Groebner engine over the prime-field fiber plus degreewise ideal
operations over the dual numbers.

The raw engine works on dicts mapping exponent tuples (any fixed arity) to
nonzero ints mod p, so the same code handles the 4-variable ring and the
5-variable ring with an elimination tag variable.  Ideal-level operations
(quotient, intersection, saturation) run on the fiber through tag-variable
tricks; over the dual numbers they are recomputed degreewise by exact linear
algebra, with the fiber result fixing the degree window.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import CertificationError, MixedBase
from .gradedmod import FreeModule, GradedMap, element_to_vector, min_generators
from .polyring import (
    NVARS,
    Poly,
    graded_piece_dim,
    grevlex_key,
    monomial_shift,
    monomials,
)
from .scalars import BaseRing

# -- raw engine on dict polynomials ------------------------------------


def _raw_elim_first(e):
    # product order: tag variable block (index 0) dominates, grevlex on rest
    return (e[0], grevlex_key(e[1:]))


def _lead(f, key):
    e = max(f, key=key)
    return e, f[e]


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _quot(e2, e1):
    return tuple(b - a for a, b in zip(e1, e2))


def _lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _raw_add_scaled(f, g, c, shift, p):
    """f + c * x^shift * g, in place on a dict copy of f."""
    out = dict(f)
    for e, a in g.items():
        em = tuple(x + y for x, y in zip(e, shift))
        v = (out.get(em, 0) + c * a) % p
        if v:
            out[em] = v
        else:
            out.pop(em, None)
    return out


def raw_normal_form(f, basis, p, key=grevlex_key):
    """Full normal form: no term of the result is divisible by a lead term."""
    f = dict(f)
    leads = [( _lead(g, key)[0], g) for g in basis if g]
    out = {}
    while f:
        e, c = _lead(f, key)
        hit = None
        for le, g in leads:
            if _divides(le, e):
                hit = (le, g)
                break
        if hit is None:
            out[e] = c
            del f[e]
            continue
        le, g = hit
        lc = g[le]
        factor = (-c * pow(lc, p - 2, p)) % p
        f = _raw_add_scaled(f, g, factor, _quot(e, le), p)
    return out


def raw_spoly(f, g, p, key=grevlex_key):
    ef, cf = _lead(f, key)
    eg, cg = _lead(g, key)
    l = _lcm(ef, eg)
    inv_cf = pow(cf, p - 2, p)
    a = _raw_add_scaled({}, f, inv_cf, _quot(l, ef), p)
    return _raw_add_scaled(a, g, (-pow(cg, p - 2, p)) % p, _quot(l, eg), p)


def raw_buchberger(gens, p, key=grevlex_key):
    """Reduced monic Groebner basis of the ideal generated by gens.

    Critical pairs leave a priority queue lowest sugar first (the degree of
    their lcm when the input is homogeneous), and each new basis element
    goes through the Gebauer–Möller update (J. Symb. Comp. 6, 1988) before
    its pairs enter the queue.
    """
    polys, leads, sugars = [], [], []
    active = []  # reducer set: elements whose lead no later lead divides
    pending = {}  # (i, j) -> lcm of the leads, for pairs still queued
    queue = []  # (sugar, key(lcm), i, j)

    def add(h, sugar):
        k, eh = len(polys), _lead(h, key)[0]
        polys.append(h)
        leads.append(eh)
        sugars.append(sugar)
        # B: drop a queued pair (i, j) whose lcm eh divides, unless
        # lcm(i, h) or lcm(j, h) equals it
        for (i, j), l in list(pending.items()):
            if (_divides(eh, l) and _lcm(leads[i], eh) != l
                    and _lcm(leads[j], eh) != l):
                del pending[i, j]
        # M and F on the new pairs: keep one pair per lcm that no other new
        # lcm properly divides, and none where a pair with that lcm has
        # coprime leads (its S-polynomial reduces to 0)
        by_lcm = {}
        for g in active:
            l = _lcm(leads[g], eh)
            coprime = sum(l) == sum(leads[g]) + sum(eh)
            first, any_coprime = by_lcm.get(l, (g, False))
            by_lcm[l] = (first, any_coprime or coprime)
        for l, (g, coprime) in by_lcm.items():
            if coprime or any(m != l and _divides(m, l) for m in by_lcm):
                continue
            s = max(sugars[g] - sum(leads[g]), sugar - sum(eh)) + sum(l)
            pending[g, k] = l
            heapq.heappush(queue, (s, key(l), g, k))
        active[:] = [g for g in active if not _divides(eh, leads[g])] + [k]

    for g in sorted((dict(g) for g in gens if g), key=lambda g: key(_lead(g, key)[0])):
        add(g, max(map(sum, g)))
    while queue:
        s, _, i, j = heapq.heappop(queue)
        if pending.pop((i, j), None) is None:
            continue  # dropped by the B criterion after it was queued
        h = raw_normal_form(raw_spoly(polys[i], polys[j], p, key),
                            [polys[k] for k in active], p, key)
        if h:
            add(h, s)
    return raw_interreduce([polys[k] for k in active], p, key)


def raw_interreduce(basis, p, key=grevlex_key):
    # drop redundant lead terms, then tail-reduce and normalize
    basis = [g for g in basis if g]
    leads = [_lead(g, key)[0] for g in basis]
    keep = []
    for i, e in enumerate(leads):
        if not any(
            j != i and _divides(leads[j], e) and (leads[j] != e or j < i)
            for j in range(len(basis))
        ):
            keep.append(i)
    basis = [basis[i] for i in keep]
    out = []
    for i, g in enumerate(basis):
        others = basis[:i] + basis[i + 1 :]
        r = raw_normal_form(g, others, p, key)
        if r:
            e, c = _lead(r, key)
            inv = pow(c, p - 2, p)
            out.append({m: (a * inv) % p for m, a in r.items()})
    out.sort(key=lambda g: key(_lead(g, key)[0]))
    return out


# -- conversion between Poly and raw form -------------------------------


def poly_to_raw(f: Poly) -> dict:
    """Fiber part of a 4-variable Poly as a raw dict."""
    return {e: a for e, (a, _) in f.terms.items() if a % f.base.p}


def raw_to_poly(raw: dict, base: BaseRing) -> Poly:
    return Poly(base, {e: (c % base.p, 0) for e, c in raw.items()})


def _pad_tag(raw: dict, tag_exp: int = 0) -> dict:
    return {(tag_exp,) + e: c for e, c in raw.items()}


def _strip_tag(raw: dict) -> dict:
    return {e[1:]: c for e, c in raw.items()}


# -- Ideal --------------------------------------------------------------


class Ideal:
    """Homogeneous ideal of R_A with a write-once fiber Groebner cache."""

    def __init__(self, base: BaseRing, gens):
        self.base = base
        gens = [g for g in gens if not g.is_zero()]
        for g in gens:
            if g.base != base:
                raise MixedBase("generator over a different base ring")
            if not g.is_homogeneous():
                raise ValueError(f"non-homogeneous generator {g}")
        self.gens = tuple(gens)
        self._gb = None

    @staticmethod
    def parse(base: BaseRing, texts) -> "Ideal":
        return Ideal(base, [Poly.parse(t, base) for t in texts])

    def fiber(self) -> "Ideal":
        if not self.base.dual:
            return self
        return Ideal(self.base.field(), [g.fiber() for g in self.gens])

    def groebner_basis(self):
        """Reduced fiber Groebner basis, as Polys over the fiber field."""
        if self._gb is None:
            p = self.base.p
            raw = raw_buchberger([poly_to_raw(g) for g in self.gens], p)
            k = self.base.field()
            self._gb = tuple(raw_to_poly(g, k) for g in raw)
        return self._gb

    def _gb_raw(self):
        return [poly_to_raw(g) for g in self.groebner_basis()]

    def normal_form(self, f: Poly) -> Poly:
        """Fiber normal form of the fiber of f."""
        raw = raw_normal_form(poly_to_raw(f), self._gb_raw(), self.base.p)
        return raw_to_poly(raw, self.base.field())

    def fiber_contains(self, f: Poly) -> bool:
        return not self.normal_form(f)

    def contains(self, f: Poly) -> bool:
        """Exact membership over the base ring (degreewise over A)."""
        if not self.base.dual:
            return self.fiber_contains(f)
        if f.is_zero():
            return True
        R = FreeModule(self.base, [0])
        for d, comp in f.homogeneous_components():
            vec = element_to_vector(R, (comp,), d)
            if linalg.solve(self.piece_matrix(d), vec, self.base.p) is None:
                return False
        return True

    def is_unit_ideal(self) -> bool:
        gb = self.groebner_basis()
        if not (len(gb) == 1 and gb[0].degree() == 0):
            return False
        if not self.base.dual:
            return True
        return self.contains(Poly.one(self.base))

    def lead_exponents(self):
        return [g.leading()[0] for g in self.groebner_basis()]

    # -- degreewise pieces: the ideal as the rank-1 module ---------------

    def generator_map(self) -> GradedMap:
        """R(-d_1) + ... + R(-d_k) -> R sending e_i to the generator g_i.

        Built afresh on each call: its matrix_at cache would otherwise live
        as long as the ideal.
        """
        F = FreeModule(self.base, [-g.degree() for g in self.gens])
        return GradedMap(F, FreeModule(self.base, [0]), [list(self.gens)])

    def piece_matrix(self, n: int) -> np.ndarray:
        """Reduced basis of the degree-n piece, as columns in the
        element_to_vector coordinates of R (stacked (fiber; epsilon) over A,
        where the columns span the piece as a k-space closed under epsilon).
        """
        return linalg.column_basis(self.generator_map().matrix_at(n), self.base.p)

    def piece_dim(self, n: int) -> int:
        """k-dimension of the degree-n piece of the ideal."""
        if not self.base.dual:
            return graded_piece_dim(n) - _standard_monomial_count(
                tuple(self.lead_exponents()), n
            )
        return self.piece_matrix(n).shape[1]

    def quotient_piece_dim(self, n: int) -> int:
        """k-dimension of (R_A/I)_n."""
        total = graded_piece_dim(n) * (2 if self.base.dual else 1)
        return total - self.piece_dim(n)

    def hilbert_function(self, n_max: int):
        """dim_k (R/I)_n for the fiber ideal, n = 0..n_max."""
        leads = tuple(self.lead_exponents())
        return [_standard_monomial_count(leads, n) for n in range(n_max + 1)]

    def krull_dimension(self) -> int:
        """Krull dimension of R_k / (fiber ideal)."""
        gb = self.groebner_basis()
        if len(gb) == 1 and gb[0].degree() == 0:
            return -1
        leads = self.lead_exponents()
        supports = [frozenset(i for i, x in enumerate(e) if x) for e in leads]
        best = 0
        for mask in range(16):
            s = frozenset(i for i in range(NVARS) if mask & (1 << i))
            if any(sup <= s for sup in supports):
                continue
            best = max(best, len(s))
        return best

    def __eq__(self, other):
        if not isinstance(other, Ideal) or self.base != other.base:
            return False
        if not self.base.dual:
            return self.groebner_basis() == other.groebner_basis()
        if self.fiber().groebner_basis() != other.fiber().groebner_basis():
            return False
        top = max(
            [g.degree() for g in self.gens] + [g.degree() for g in other.gens],
            default=0,
        )
        for n in range(top + 1):
            a, b = self.piece_matrix(n), other.piece_matrix(n)
            if a.shape[1] != b.shape[1]:
                return False
            joint = np.concatenate([a, b], axis=1)
            if linalg.rank(joint.T, self.base.p) != a.shape[1]:
                return False
        return True

    def __hash__(self):
        return hash((self.base, self.groebner_basis()))

    def __repr__(self):
        return "Ideal(" + ", ".join(str(g) for g in self.gens) + ")"


@lru_cache(maxsize=None)
def _standard_monomial_count(leads: tuple, n: int) -> int:
    return sum(
        1 for m in monomials(n) if not any(_divides(e, m) for e in leads)
    )


# -- fiber ideal operations via tag variable ----------------------------


def _elim_intersection_raw(gens_i, gens_j, p):
    """Raw generators of I cap J in 4 variables (fiber)."""
    tagged = [_pad_tag(g, 1) for g in gens_i]  # t * f
    for g in gens_j:
        tg = _pad_tag(g, 1)
        g0 = _pad_tag(g, 0)
        tagged.append(_raw_add_scaled(g0, tg, p - 1, (0, 0, 0, 0, 0), p))  # (1-t) g
    gb = raw_buchberger(tagged, p, key=_raw_elim_first)
    return [_strip_tag(g) for g in gb if all(e[0] == 0 for e in g)]


def fiber_intersect(I: Ideal, J: Ideal) -> Ideal:
    if I.base != J.base:
        raise MixedBase("intersection across base rings")
    base = I.base.field()
    p = base.p
    raw = _elim_intersection_raw(
        [poly_to_raw(g) for g in I.gens], [poly_to_raw(g) for g in J.gens], p
    )
    return Ideal(base, [raw_to_poly(g, base) for g in raw])


def _raw_divide_exact(f, g, p, key=grevlex_key):
    """Exact division f / g of raw polynomials; f must be a multiple."""
    q = {}
    f = dict(f)
    eg, cg = _lead(g, key)
    inv = pow(cg, p - 2, p)
    while f:
        e, c = _lead(f, key)
        assert _divides(eg, e), "inexact division"
        shift = _quot(e, eg)
        coeff = (c * inv) % p
        q[shift] = coeff
        f = _raw_add_scaled(f, g, (-coeff) % p, shift, p)
    return q


def fiber_colon_poly(I: Ideal, f: Poly) -> Ideal:
    """(I : f) over the fiber via I : f = (I cap (f)) / f."""
    base = I.base.field()
    p = base.p
    fr = poly_to_raw(f)
    if not fr:
        return Ideal(base, [Poly.one(base)])
    inter = _elim_intersection_raw([poly_to_raw(g) for g in I.gens], [fr], p)
    quots = [_raw_divide_exact(g, fr, p) for g in inter]
    return Ideal(base, [raw_to_poly(q, base) for q in quots])


def fiber_colon(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) over the fiber: intersection of colons by generators."""
    base = I.base.field()
    out = None
    for g in J.gens:
        c = fiber_colon_poly(I, g)
        out = c if out is None else fiber_intersect(out, c)
    if out is None:  # J = 0
        return Ideal(base, [Poly.one(base)])
    return out


def fiber_saturate(I: Ideal) -> Ideal:
    """I : (X,Y,Z,W)^infinity over the fiber, by iterating I : m."""
    base = I.base.field()
    irrelevant = Ideal(base, [Poly.variable(base, i) for i in range(NVARS)])
    cur = I if not I.base.dual else I.fiber()
    while True:
        nxt = fiber_colon(cur, irrelevant)
        if nxt == cur:
            return cur
        cur = nxt


# -- dual-number ideal operations (degreewise) ---------------------------


def _degreewise(base: BaseRing, guide: Ideal, piece_fn) -> Ideal:
    """The ideal over A whose degree-n piece piece_fn(n) spans.

    Its minimal generators are extracted up to two degrees past the top
    generator degree of guide, the same operation over the fiber, and the
    result is certified against piece_fn two degrees further.
    """
    piece_fn = lru_cache(maxsize=None)(piece_fn)  # extraction and certification share it
    top = max((g.degree() for g in guide.gens), default=0) + 2
    gens, _ = min_generators(FreeModule(base, [0]), piece_fn, top)
    out = Ideal(base, [g[0] for g in gens])
    p = base.p
    for n in range(top + 3):
        want = piece_fn(n)
        got = out.piece_matrix(n)
        if want.shape[1] != got.shape[1]:
            raise CertificationError(
                f"degree {n}: generated piece has k-dim {got.shape[1]}, "
                f"described piece {want.shape[1]}"
            )
        joint = np.concatenate([want, got], axis=1)
        if linalg.rank(joint.T, p) != got.shape[1]:
            raise CertificationError(f"degree {n}: piece mismatch")
    return out


def _solve_piece(constraint_rows, n: int, p: int) -> np.ndarray:
    """Solutions f in (R_A)_n of a stack of k-linear constraints, as a
    stacked-column matrix."""
    if not constraint_rows:
        return linalg.identity(2 * graded_piece_dim(n))
    return linalg.kernel_basis(np.vstack(constraint_rows) % p, p)


def _multiplication_rows(g: Poly, n: int, ann: np.ndarray, p: int):
    """k-linear constraints on f in degree n saying f*g lies in the target
    piece in degree n + deg g, given the annihilator rows ann of that piece.

    ann times the multiplication matrix of g is a sum of column gathers: a
    term (a + b*e)*x^e sends the fiber coordinate r of f to a*ann[:, s] +
    b*ann[:, D + s] and its epsilon coordinate r to a*ann[:, D + s], where
    s = monomial_shift(n, e)[r] and D = dim R_{n + deg g}.  Each product is
    reduced at once: it is below 2^62, but a sum of them need not fit.
    """
    dim_n, D = graded_piece_dim(n), graded_piece_dim(n + g.degree())
    out = linalg.zeros(ann.shape[0], 2 * dim_n)
    fib, eps = out[:, :dim_n], out[:, dim_n:]
    for e, (a, b) in g.terms.items():
        s = monomial_shift(n, e)
        at_fib, at_eps = ann[:, s], ann[:, D + s]
        fib += a * at_fib % p + b * at_eps % p
        eps += a * at_eps % p
        fib %= p
        eps %= p
    return out


def _piece_annihilators(I: Ideal):
    """Degree m -> annihilator rows of I's degree-m piece, each built once."""
    cache = {}

    def piece_ann(m):
        if m not in cache:
            cache[m] = linalg.annihilator(I.piece_matrix(m), I.base.p)
        return cache[m]

    return piece_ann


def ideal_colon(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) over the base ring of I."""
    if I.base != J.base:
        raise MixedBase("colon across base rings")
    if not I.base.dual:
        return fiber_colon(I, J)
    p = I.base.p
    piece_ann = _piece_annihilators(I)

    def colon_piece(n):
        rows = [_multiplication_rows(g, n, piece_ann(n + g.degree()), p) for g in J.gens]
        return _solve_piece(rows, n, p)

    return _degreewise(I.base, fiber_colon(I.fiber(), J.fiber()), colon_piece)


def ideal_saturate(I: Ideal) -> Ideal:
    """I : (X,Y,Z,W)^infinity over the base ring of I."""
    if not I.base.dual:
        return fiber_saturate(I)
    p = I.base.p
    # test bound: multiplying by all monomials of degree c must land in I
    piece_ann = _piece_annihilators(I)

    def sat_piece_at(n, c):
        target_ann = piece_ann(n + c)
        rows = [
            _multiplication_rows(Poly.monomial(I.base, mono), n, target_ann, p)
            for mono in monomials(c)
        ]
        return _solve_piece(rows, n, p)

    def sat_piece(n):
        c = 1
        prev = sat_piece_at(n, c)
        while True:
            c += 1
            nxt = sat_piece_at(n, c)
            if nxt.shape[1] == prev.shape[1]:
                return prev
            prev = nxt

    return _degreewise(I.base, fiber_saturate(I.fiber()), sat_piece)


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    if I.base != J.base:
        raise MixedBase("intersection across base rings")
    if not I.base.dual:
        return fiber_intersect(I, J)
    p = I.base.p

    def inter_piece(n):
        a, b = I.piece_matrix(n), J.piece_matrix(n)
        ker = linalg.kernel_basis(np.concatenate([a, -b % p], axis=1), p)
        return linalg.column_basis(linalg.matmul(a, ker[: a.shape[1]], p), p)

    return _degreewise(I.base, fiber_intersect(I.fiber(), J.fiber()), inter_piece)


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    if I.base != J.base:
        raise MixedBase("sum across base rings")
    return Ideal(I.base, list(I.gens) + list(J.gens))


def ideal_product_poly(H: Poly, I: Ideal) -> Ideal:
    """The ideal H * I (generators scaled)."""
    return Ideal(I.base, [H * g for g in I.gens])

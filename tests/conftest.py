from heapq import heapify, heappop, heappush

import numpy as np
import pytest
from hypothesis import assume, strategies as st

from spacecurves import gradedmod, linalg, raoclass
from spacecurves.curve import validate_curve
from spacecurves.errors import CertificationError, OracleMismatch, ParseError, SpaceCurveError
from spacecurves.files import load_corpus
from spacecurves.gradedmod import (
    FreeModule,
    GradedMap,
    GradedModule,
    ModuleHom,
    element_to_vector,
    ext_piece_dims,
    kernel_min_gens,
    subquotient_module,
)
from spacecurves.groebner import (
    Ideal,
    _elim_intersection_raw,
    _orders,
    _pack,
    _unpack,
    ideal_intersect,
    poly_to_raw,
    raw_to_poly,
)
from spacecurves.linalg import _sparse_rows
from spacecurves.polyring import Poly, _Parser, _tokenize, grevlex_key, monomials
from spacecurves.scalars import BaseRing

FIBER_NAMES = [
    "line",
    "conic",
    "twisted-cubic",
    "skew-lines",
    "coplanar-lines",
    "ci-2-2",
    "quartic-from-skew-bilink",
    "skew-pair-alt",
]

ACM_NAMES = ["line", "conic", "twisted-cubic", "coplanar-lines", "ci-2-2"]
RAO_K_NAMES = ["skew-lines", "quartic-from-skew-bilink", "skew-pair-alt"]


@pytest.fixture(scope="session")
def K():
    return BaseRing(32003, False)


@pytest.fixture(scope="session")
def A():
    return BaseRing(32003, True)


@pytest.fixture(scope="session")
def corpus_curves():
    """Session-wide cache of validated corpus curves (invariants memoize)."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = validate_curve(load_corpus(name).to_ideal())
        return cache[name]

    return get


def hilbert_function(M, lo, hi):
    """{n: dim_k M_n} for lo <= n <= hi."""
    return {n: M.piece_dim(n) for n in range(lo, hi + 1)}


def ideal_module_by_cap(ideal):
    """Reference builder: the ideal as a graded module on the generators it
    is given, redundant ones included, with their syzygies taken up to the
    fixed cap 2 * (largest generator degree) + 4."""
    cap = max((g.degree() for g in ideal.gens), default=0) * 2 + 4
    return GradedModule(kernel_min_gens(ideal.generator_map(), cap))


def surjection_hom(C, res):
    """The N-type surjection N -> I_C as a ModuleHom onto the curve's ideal
    module, lifted through the curve's cover."""
    f0 = C.ideal_cover().lift(res.surj)
    assert f0 is not None, "surjection does not land in the ideal"
    return ModuleHom(res.N, C.ideal_module(), f0)


class Span:
    """Reference: the incremental row space mod p that the package once used
    for its greedy column selections.  One echelon row per unit of rank, in
    insert order: a {column: value} dict, 1 at its pivot (its first nonzero
    column) and zero at the pivots of the rows before it.  A vector is
    reduced by walking, with a heap, only the rows whose pivot it hits."""

    def __init__(self, p):
        self.p = p
        self.rows = {}  # pivot column -> echelon row, in insert order

    def add(self, vec):
        """Insert a {column: residue} vector, consuming it, if it is
        independent; returns True when the rank grew."""
        p = self.p
        rows = self.rows
        heap = [c for c in vec if c in rows]
        heapify(heap)
        while heap:
            c = heappop(heap)
            # the entry may have cancelled, or the pivot come round twice
            f = vec.get(c)
            if f is None:
                continue
            g = p - f
            for k, v in rows[c].items():
                x = vec.get(k)
                if x is None:
                    vec[k] = g * v % p
                    if k in rows:
                        heappush(heap, k)
                else:
                    x = (x + g * v) % p
                    if x:
                        vec[k] = x
                    else:
                        del vec[k]
        if not vec:
            return False
        piv = min(vec)
        inv = pow(vec[piv], -1, p)
        rows[piv] = {k: v * inv % p for k, v in vec.items()}
        return True

    def add_many(self, mat):
        """Insert the columns of mat in order; returns the indices of the
        columns that grew the rank."""
        return [j for j, col in enumerate(_sparse_rows(mat.T, self.p)) if self.add(col)]


@st.composite
def general_lines(draw, primes=(2, 3, 101, 32003), field_lines=(2, 3), dual_lines=(2, 2), dual=None):
    """A validated union of lines with random coefficients, each line the
    zero set of two linear forms, over F_p or A (over A when dual is True,
    over F_p when False, drawn when None): field_lines and dual_lines bound
    the number of lines on each base."""
    p = draw(st.sampled_from(primes))
    dual = draw(st.booleans()) if dual is None else dual
    base = BaseRing(p, dual)
    coef = st.integers(0, p - 1)
    lo, hi = dual_lines if dual else field_lines
    I = None
    for _ in range(lo if lo == hi else draw(st.integers(lo, hi))):
        forms = []
        for _ in range(2):
            terms = {}
            for v in range(4):
                terms[tuple(int(i == v) for i in range(4))] = (draw(coef), draw(coef) if dual else 0)
            forms.append(Poly(base, terms))
        L = Ideal(base, forms)
        I = L if I is None else ideal_intersect(I, L)
    try:
        return validate_curve(I)
    except (CertificationError, OracleMismatch):
        raise  # a bug, never an input to filter out
    except SpaceCurveError:
        assume(False)


def five_skew_lines_over_f2(dual=False):
    """Five pairwise skew lines over F_2 (or the constant family over
    F_2[e]/(e^2)) whose linear forms partition the 15 nonzero forms of
    F_2^4: each linear form vanishes on one line."""
    base = BaseRing(2, dual)
    lines = [("X", "Y"), ("Z", "W"), ("X+Z", "Y+W"), ("X+W", "Y+Z+W"), ("X+Z+W", "Y+Z")]
    ideal = None
    for line in lines:
        L = Ideal.parse(base, line)
        ideal = L if ideal is None else ideal_intersect(ideal, L)
    return ideal

# -- exponent tuples: the engine's orders as the tuple keys they pack --------


def dual_key(e):
    # block order on k[X,Y,Z,W,e]: grevlex on X, Y, Z, W, then the power of e
    return (grevlex_key(e[:4]), e[4])


def elim_key(e):
    # the tag (index 0) first, then grevlex on X, Y, Z, W
    return (e[0], grevlex_key(e[1:]))


def dual_elim_key(e):
    return (e[0], dual_key(e[1:]))


def variable_last_key(i, dual):
    """Grevlex with x_i last (compared first after the degree), then e."""
    perm = [j for j in range(4) if j != i] + [i]

    def key(e):
        grevlex = grevlex_key([e[j] for j in perm])
        return (grevlex, e[4]) if dual else grevlex

    return key


def to_tuples(raw, order):
    """A packed raw polynomial as a dict on exponent tuples."""
    return {_unpack(m, order): c for m, c in raw.items()}


def to_packed(raw, order):
    return {_pack(e, order): c for e, c in raw.items()}


def tuple_lead(f, key):
    e = max(f, key=key)
    return e, f[e]


def tuple_divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def tuple_add_scaled(f, g, c, shift, p):
    """f + c * x^shift * g on exponent tuples, on a copy of f."""
    out = dict(f)
    for e, a in g.items():
        em = tuple(x + y for x, y in zip(e, shift))
        v = (out.get(em, 0) + c * a) % p
        if v:
            out[em] = v
        else:
            out.pop(em, None)
    return out


# -- the colon, kept as a reference oracle ------------------------------------


def divide_exact_ref(f, g, p, key=grevlex_key):
    """Exact division f / g of polynomials on exponent tuples;
    CertificationError when g does not divide f."""
    q = {}
    eg, cg = tuple_lead(g, key)
    inv = pow(cg, p - 2, p)
    while f:
        e, c = tuple_lead(f, key)
        if not tuple_divides(eg, e):
            raise CertificationError("inexact division")
        shift = tuple(b - a for a, b in zip(eg, e))
        q[shift] = c * inv % p
        f = tuple_add_scaled(f, g, -q[shift] % p, shift, p)
    return q


def colon_ref(I, J):
    """(I : J) as the intersection of the colons (I : g) = (I cap (g))/g over
    the generators g of J, one tag elimination and one exact division per
    generator: the route links and saturations took before they read the
    resolution and the variables.  Over F_p its generators are the reduced
    grevlex basis."""
    base = I.base
    ring = _orders(base)[0]
    key = dual_key if base.dual else grevlex_key
    out = None
    for g in J.gens:
        f = poly_to_raw(g)
        inter = _elim_intersection_raw(I._raw_gens(), [f], base.p, base)
        divisor = to_tuples(f, ring)
        quots = [to_packed(divide_exact_ref(to_tuples(h, ring), divisor, base.p, key), ring) for h in inter]
        out = quots if out is None else _elim_intersection_raw(out, quots, base.p, base)
    if out is None:  # J = 0
        return Ideal(base, [Poly.one(base)])
    return Ideal(base, [raw_to_poly(q, base) for q in out])


def saturate_ref(I):
    """I : (X,Y,Z,W)^infinity by iterating colon_ref by m until it stops
    growing: I itself when I is saturated."""
    m = Ideal(I.base, [Poly.variable(I.base, i) for i in range(4)])
    cur = I
    while True:
        nxt = colon_ref(cur, m)
        if nxt == cur:
            return cur
        cur = nxt


# -- Hom by monomial slots, kept as a reference oracle ---------------------------


def annihilator_ref(mat, p):
    """Rows whose kernel is exactly the column space of mat."""
    if mat.shape[1] == 0:
        return linalg.identity(mat.shape[0])
    return linalg.kernel_basis(mat.T % p, p).T


def hom_space_ref(M, N):
    """Basis of Hom(M, N)_0 as ModuleHoms M -> N, built the way hom_space
    built it before it solved in piece coordinates: one unknown per monomial
    coefficient (and e-coefficient over A) of each entry of f0, the
    conditions that each relation of M lands in the relations of N, and the
    solutions kept that are independent of the trivial homs f0 = psi o g."""
    base = M.base
    p = base.p
    phi, psi = M.presentation, N.presentation
    F0, G0 = M.F0, N.F0
    # unknown coordinates: monomial coefficients of each entry of f0
    slots = []  # (i, j, monomial, eps_flag)
    for i in range(G0.rank):
        for j in range(F0.rank):
            for m in monomials(G0.twists[i] - F0.twists[j]):
                slots.append((i, j, m, 0))
                if base.dual:
                    slots.append((i, j, m, 1))
    if not slots:
        return []

    def times(f, m, ef):
        return f * Poly(base, {m: (0, 1) if ef else (1, 0)})

    rows = []
    for a in range(phi.source.rank):
        col = phi.column(a)
        deg = -phi.source.twists[a]
        proj = annihilator_ref(psi.matrix_at(deg), p)
        block = np.zeros((proj.shape[0], len(slots)), dtype=np.int64)
        for s, (i, j, m, ef) in enumerate(slots):
            elem = [Poly.zero(base)] * G0.rank
            elem[i] = times(col[j], m, ef)
            vec = element_to_vector(G0, tuple(elem), deg)
            block[:, s] = linalg.matmul(proj, vec.reshape(-1, 1), p).reshape(-1)
        rows.append(block)
    mat = np.vstack(rows) if rows else np.zeros((0, len(slots)), dtype=np.int64)
    sols = linalg.kernel_basis(mat, p)
    # quotient by homs landing inside im(psi): f0 = psi o g
    trivial_cols = []
    for l in range(psi.source.rank):
        for j in range(F0.rank):
            for m in monomials(psi.source.twists[l] - F0.twists[j]):
                for ef in range(2 if base.dual else 1):
                    vec = np.zeros(len(slots), dtype=np.int64)
                    for s, (i, jj, mm, eff) in enumerate(slots):
                        if jj == j:
                            c = times(psi.matrix[i][l], m, ef).coefficient(mm)
                            vec[s] = c[1] if eff else c[0]
                    trivial_cols.append(vec)
    if trivial_cols:
        k = len(trivial_cols)
        pivots = linalg.pivots(np.concatenate([np.array(trivial_cols).T, sols], axis=1), p)
        sols = sols[:, [c - k for c in pivots if c >= k]]
    out = []
    for c in range(sols.shape[1]):
        entries = [[{} for _ in range(F0.rank)] for _ in range(G0.rank)]
        for s, (i, j, m, ef) in enumerate(slots):
            a, b = entries[i][j].get(m, (0, 0))
            entries[i][j][m] = (a, (b + sols[s, c]) % p) if ef else ((a + sols[s, c]) % p, b)
        matrix = [[Poly(base, {m: (int(a), int(b)) for m, (a, b) in entries[i][j].items() if a or b})
                   for j in range(F0.rank)] for i in range(G0.rank)]
        out.append(ModuleHom(M, N, GradedMap(F0, G0, matrix)))
    return out


# -- Ext and the psi roof on growing caps, kept as reference oracles -----------


def ext_by_growing_cap(M, i):
    """Reference: Ext^i(M, R) as ext_module built it before it read a proved
    cap.  At pd it is the cokernel of the last dual map.  Below pd the
    cycles of M's dual complex at spot i and the relations of their
    subquotient are taken to the cap min_degree + 6, grown by 4 until the
    piece dimensions two degrees past it match ext_piece_dims."""
    deltas = gradedmod._dual_complex(M)
    if i > len(deltas):
        return GradedModule.zero(M.base)
    outof = deltas[i - 1] if i else None
    if i == len(deltas):
        return GradedModule(outof).minimal_presentation()
    into = deltas[i]
    cap = into.source.min_degree() + 6
    for _ in range(4):
        K = kernel_min_gens(into, cap)
        E = subquotient_module(K, outof, cap).minimal_presentation()
        probe = ext_piece_dims(M, i, [cap + 1, cap + 2])
        if all(E.piece_dim(n) == d for n, d in probe.items()):
            return E
        cap += 4
    raise AssertionError(f"Ext^{i} cap failed to stabilize")


def psi_roof_by_growing_cap(N, Np, M, f, fp):
    """Reference: (roof, Kproj) of psi_roof's fiber product as it was built
    before it read a proved cap: the kernel of [f1 | -f2 | M's relations],
    projected onto the covers of the padded N1 + N2, and the roof's
    relations, both taken to a cap from top joint_src + 2, grown by 2 until
    the dimension count of the fiber product holds two degrees past it."""
    base = M.base
    top = max((-t for t in M.F0.twists), default=0)
    N1, f1 = raoclass._pad_surjective(N, M, f, top)
    N2, f2 = raoclass._pad_surjective(Np, M, fp, top)
    joint = GradedMap.hstack(f1.f0, GradedMap(f2.f0.source, M.F0, [[-g for g in row] for row in f2.f0.matrix]), M.presentation)
    head = FreeModule(base, N1.F0.twists + N2.F0.twists)
    z = Poly.zero(base)
    rel = GradedMap(
        FreeModule(base, N1.F1.twists + N2.F1.twists),
        head,
        [list(row) + [z] * N2.F1.rank for row in N1.presentation.matrix]
        + [[z] * N1.F1.rank + list(row) for row in N2.presentation.matrix],
    )
    cap = max((-t for t in joint.source.twists), default=0) + 2
    lo = min(N1.min_degree(), N2.min_degree())
    for _ in range(4):
        K = kernel_min_gens(joint, cap)
        cols, degs = [], []
        for j in range(K.source.rank):
            col = K.column(j)[: head.rank]
            if any(not g.is_zero() for g in col):
                cols.append(col)
                degs.append(-K.source.twists[j])
        Kproj = GradedMap.from_columns(head, cols, degs)
        roof = subquotient_module(Kproj, rel, cap)
        if all(
            roof.piece_dim(n) == N1.piece_dim(n) + N2.piece_dim(n) - M.piece_dim(n) for n in range(lo, cap + 3)
        ):
            return roof, Kproj
        cap += 2
    raise AssertionError("fiber product cap failed to stabilize")


# -- the resolution on a growing cap, kept as a reference oracle ---------------


def resolve_by_growing_cap_ref(M):
    """Reference: M.resolution()'s maps as _resolve took them before a
    regularity certificate proved its cap, R/I's first ranks read off its
    ideal: kernels up to 4 past the top relation degree, retried until the
    cap reaches the regularity + 4, and certified there."""
    ideal = M._cache.get("ideal")
    rank = None if ideal is None else ideal.piece_dim
    phi = gradedmod._minimalize_map(M.presentation)[0]
    if not phi.target.rank:
        rank = None
    gen_top = max((-t for t in phi.target.twists), default=0)
    rel_top = max((-t for t in phi.source.twists), default=gen_top)
    lo = phi.target.min_degree()
    if rank is not None:
        phi._cache.update((n, rank(n)) for n in range(lo, rel_top + 1))
    rel = gradedmod.image_min_gens(phi)
    cap = rel_top + 4
    for _ in range(5):
        if rank is not None:
            rel._cache.update((n, rank(n)) for n in range(lo, cap + 1))
        maps = gradedmod._resolve_at_cap(rel, cap)
        needed = gradedmod._twist_regularity(maps) + 4
        if cap >= needed:
            gradedmod._certify_resolution(maps, needed)
            return maps
        cap = needed + 2
    raise AssertionError("resolution cap failed to stabilize")


# -- the term parser that multiplies factor by factor, kept as a reference -----


class MultiplyingParser(_Parser):
    """Reference: the polynomial parser as it was before a term gathered its
    monomial factors, multiplying one Poly per factor."""

    def term(self) -> Poly:
        out = self.factor()
        while True:
            kind, _ = self.peek()
            if kind == "*":
                self.take()
                out = out * self.factor()
            elif kind in ("var", "eps", "int", "("):
                out = out * self.factor()
            else:
                return out

    def factor(self) -> Poly:
        kind, val = self.take()
        if kind == "int":
            base_poly = Poly.constant(self.base, val)
        elif kind == "var":
            base_poly = Poly.variable(self.base, val)
        elif kind == "eps":
            if not self.base.dual:
                raise ParseError("'e' only allowed over the dual numbers")
            base_poly = Poly.constant(self.base, 0, 1)
        elif kind == "(":
            base_poly = self.expr()
            close, _ = self.take()
            if close != ")":
                raise ParseError("unbalanced parenthesis")
        else:
            raise ParseError(f"unexpected token {kind!r}")
        if self.peek()[0] == "^":
            self.take()
            ekind, exp = self.take()
            if ekind != "int":
                raise ParseError("exponent must be an integer literal")
            base_poly = base_poly**exp
        return base_poly


def parse_by_multiplying(text, base):
    """Poly.parse(text, base) through MultiplyingParser."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    parser = MultiplyingParser(tokens, base)
    out = parser.expr()
    if parser.pos != len(tokens):
        raise ParseError(f"trailing tokens in {text!r}")
    return out

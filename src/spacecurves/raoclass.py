"""N-type and E-type resolutions, pseudo-isomorphisms, and the biliaison
classification decisions.

An N-type resolution of a curve is an exact sequence 0 -> P -> N -> I_C -> 0
with P a direct sum of twisted free modules and N locally free with
Ext^1(N, R) = 0; an E-type resolution is 0 -> E -> F -> I_C -> 0 with F free
and E locally free.  Extravertization kills Ext^1 by pushing out along a
free module dual to a minimal cover of Ext^1(M, R).  Two curves lie in the
same biliaison class exactly when their N-sides agree up to shift and free
summands; parity of linkage chains is decided by comparing the N-side of one
curve with the dualized E-side of the other.
"""

from __future__ import annotations

from collections import Counter

from .curve import CurveFamily
from .errors import (
    CertificationError,
    MixedBase,
    NoLift,
    NotPsi,
    OracleMismatch,
    Undecided,
)
from .gradedmod import (
    FreeModule,
    GradedMap,
    GradedModule,
    ModuleHom,
    _dual_complex,
    _ext_entry,
    _ext_slot,
    _ext_with_cover,
    _min_quotient_gens,
    _minimalize_map,
    _share_ext_table,
    _twist_regularity,
    cohomology_table,
    cycles_cover,
    ext_module,
    finite_data_to_module,
    is_module_iso,
    kernel_head,
    subquotient_module,
)
from .groebner import Ideal
from .liaison import Verdict, link
from .polyring import Poly


# -- generic map plumbing ----------------------------------------------------


def _lift_columns(phi: GradedMap, X: GradedMap, msg: str) -> GradedMap:
    """phi.lift(X), or CertificationError(msg) when a column has no preimage."""
    Y = phi.lift(X)
    if Y is None:
        raise CertificationError(msg)
    return Y


def _unbalanced_degree(lhs, rhs):
    """The lowest degree where the modules with K-polynomials (or free
    twists) lhs and rhs differ in total dimension; None when they agree in
    every degree.  K = {t: c} gives the Hilbert series sum of c*s^(-t) over
    (1 - s)^4, so they first differ at min(-t) over the twists t of the
    difference.  Over A the modules must be flat, with twice the
    k-dimensions their fibers' K counts."""
    diff = Counter()
    for k in lhs:
        diff.update(k)
    for k in rhs:
        diff.subtract(k)
    return min((-t for t, c in diff.items() if c), default=None)


def _ideal_k(ideal: Ideal) -> Counter:
    """K(I) = 1 - K(R/I), K(R/I) the fiber's Hilbert numerator."""
    k = Counter({-n: -c for n, c in enumerate(ideal.fiber().hilbert_numerator())})
    k[0] += 1
    return k


def direct_sum(M: GradedModule, N: GradedModule) -> GradedModule:
    """M + N; with N free it carries K(M) plus N's twists, and a known
    regularity of M raised to N's top generator: the minimal resolution of
    the sum is M's plus N."""
    base = M.base
    F0 = FreeModule(base, list(M.F0.twists) + list(N.F0.twists))
    F1 = FreeModule(base, list(M.F1.twists) + list(N.F1.twists))
    z = Poly.zero(base)
    matrix = []
    for i in range(M.F0.rank):
        matrix.append(list(M.presentation.matrix[i]) + [z] * N.F1.rank)
    for i in range(N.F0.rank):
        matrix.append([z] * M.F1.rank + list(N.presentation.matrix[i]))
    S = GradedModule(GradedMap(F1, F0, matrix))
    if not N.F1.rank:
        S.carry_kpolynomial(M, N.F0.twists)
        reg = M.known_regularity()
        if reg is not None:
            S._cache["reg"] = max([reg] + [-t for t in N.F0.twists])
    return S


def dual_module(M: GradedModule):
    """(Hom(M, R), K): Ext^0(M, R) with K embedding its cover into the
    dualized free cover of M; the returned module's cover equals K's source.
    A free M keeps F0's order: its dual is F0^dual and K the identity."""
    if not M.resolution()[0].source.rank:
        F0d = M.F0.dual()
        return GradedModule.free(M.base, F0d.twists), GradedMap.identity(F0d)
    E, K = _ext_with_cover(M, 0)
    if E.F0.twists != K.source.twists:
        raise CertificationError("dual module cover drifted")
    return E, K


# -- extravertization --------------------------------------------------------


class ExtravertData:
    """The pushout 0 -> P -> N -> M -> 0 killing Ext^1(M, R)."""

    def __init__(self, M, N, P, incl, proj):
        self.M = M  # GradedModule, minimal presentation
        self.N = N  # GradedModule, minimal presentation
        self.P = P  # FreeModule
        self.incl = incl  # GradedMap P -> N.F0
        self.proj = proj  # GradedMap N.F0 -> M.F0


def extravertize(M: GradedModule) -> ExtravertData:
    """Push M out along a free module so that Ext^1 of the result vanishes.

    N = coker([phi; -c]: F1 -> F0 + P), with phi the first map of M's
    minimal resolution and c: F1 -> P dual to minimal generators of
    Ext^1(M, R), cocycles read off K, the map onto the generators of
    ker(delta1) (cycles_cover, on a proved cap).  _certify_extravert shows
    that [phi; -c], d2, d3, ... resolves N, so when minimalizing [phi; -c]
    cancels nothing, N keeps that resolution and reads Ext^i(N) =
    Ext^i(M) for i >= 2 off M's Ext table.  When a unit pair cancels (N
    free, as on an ACM curve) N is resolved on its own.  Over A the kept
    resolution needs no fiber check: N is an extension of the flat M by the
    free P, so it is flat.  Ext^1(N) = 0 is cached once certified.
    """
    base = M.base
    Mm = M.minimal_presentation()
    maps = Mm.resolution()
    if not maps or maps[0].source.rank == 0:
        P = FreeModule(base, [])
        return ExtravertData(
            Mm, Mm, P, GradedMap.zero(P, Mm.F0), GradedMap.identity(Mm.F0)
        )
    deltas = _dual_complex(Mm)
    K = cycles_cover(Mm, 1)
    chosen = _min_quotient_gens(K, deltas[0])
    cocycles = GradedMap.from_columns(
        K.target, [K.column(j) for j in chosen], [-K.source.twists[j] for j in chosen]
    )
    _certify_extravert(deltas, K, cocycles)
    phi, c = maps[0], cocycles.dual()
    F0, F1, P = phi.target, phi.source, c.target
    big_target = FreeModule(base, list(F0.twists) + list(P.twists))
    rows = [list(row) for row in phi.matrix] + [[-f for f in row] for row in c.matrix]
    pres_min, kept, exprs = _minimalize_map(GradedMap(F1, big_target, rows))
    N = GradedModule(pres_min)
    if pres_min.source.rank == F1.rank and len(kept) == big_target.rank:
        N._cache["resolution"] = [pres_min] + maps[1:]
        N._cache["dualcx"] = [pres_min.dual()] + deltas[1:]
        _share_ext_table(N, Mm, 0, 2)
    store, key = _ext_entry(N, 1)
    store[key] = (GradedModule.zero(base), None)
    incl = GradedMap.from_columns(
        pres_min.target,
        [exprs[F0.rank + a] for a in range(P.rank)],
        [-t for t in P.twists],
    )
    proj_matrix = [
        [
            Poly.one(base) if kept[a] == i else Poly.zero(base)
            for a in range(len(kept))
        ]
        for i in range(F0.rank)
    ]
    proj = GradedMap(pres_min.target, F0, proj_matrix)
    # the composite P -> N -> M must be the zero module map
    _lift_columns(Mm.presentation, proj.compose(incl), "P maps onto M nontrivially")
    return ExtravertData(Mm, N, P, incl, proj)


def _certify_extravert(deltas, K: GradedMap, cocycles: GradedMap):
    """Certify the pushout N = coker([phi; -c]) of extravertize from the dual
    complex delta_0, delta_1, ... of M's resolution, K and the cocycles c^dual.

    One zero composite, delta1 o c^dual = 0 (the dual of c o d2 = 0), makes
    [phi; -c], d2, d3, ... a resolution of N: the kernel of [phi; -c] is
    ker(phi) cap ker(c) = im(d2), as ker(phi) = im(d2) lies in ker(c), and
    the rest is M's certified resolution.  It also makes 0 -> P -> N -> M -> 0 exact:
    (0, p) = (phi(x), -c(x)) forces x into im(d2), so p = -c(x) = 0.  On
    that resolution Ext^1(N) = ker(delta1) / im[delta0 | c^dual], a quotient
    of ker(delta1) (both composites with delta1 are zero), so it vanishes
    once each degree n of K's generators has dim ker(delta1)_n =
    rank [delta0 | c^dual]_n.  That rests on K generating ker(delta1), which
    cycles_cover proves for every module (_cycles_cap).
    """
    delta0 = deltas[0]
    if len(deltas) > 1 and not deltas[1].compose(cocycles).is_zero():
        raise CertificationError("a chosen class of Ext^1 is not a cocycle")
    killed = GradedMap.hstack(delta0, cocycles)
    for n in sorted({-t for t in K.source.twists}):
        cycles = delta0.target.piece_dim(n) - (deltas[1].rank_at(n) if len(deltas) > 1 else 0)
        if killed.rank_at(n) != cycles:
            raise CertificationError(f"Ext^1 of the pushout does not vanish in degree {n}")


# -- resolution packages -----------------------------------------------------


class NTypeResolution:
    """0 -> P -> N -> I_C -> 0 with P free and N extraverted locally free.

    Like ETypeResolution it keeps the ideal, not the curve, which caches
    it: a cached object that referred back to its owner would form a
    reference cycle.

    certify() checks the zero composites and that N is locally free and
    extraverted.  Exactness is the constructor's: from extravertize it is a
    theorem (see _certify_extravert), and link_transform_e_to_n checks the
    K-polynomials."""

    def __init__(self, ideal: Ideal, N, P, incl, surj):
        self.ideal = ideal
        self.N = N
        self.P = P
        self.incl = incl  # GradedMap P -> N.F0
        self.surj = surj  # GradedMap N.F0 -> R, image I_C
        self.certify()

    def certify(self):
        if not self.surj.compose(self.N.presentation).is_zero():
            raise CertificationError("N-type surjection keeps a relation")
        if not self.surj.compose(self.incl).is_zero():
            raise CertificationError("P does not map into the kernel")
        if self.N.projective_dimension()[1]:
            raise CertificationError("N is not locally free")
        if ext_module(self.N, 1).F0.rank:
            raise CertificationError("N is not extraverted")

    def twists(self):
        return (tuple(sorted(self.P.twists)), tuple(sorted(self.N.F0.twists)))


class ETypeResolution:
    """0 -> E -> F -> I_C -> 0 with F free and E locally free."""

    def __init__(self, ideal: Ideal, reg: int, E, F, incl, surj):
        self.ideal = ideal
        self.reg = reg
        self.E = E
        self.F = F  # FreeModule
        self.incl = incl  # GradedMap E.F0 -> F
        self.surj = surj  # GradedMap F -> R, image I_C
        self.certify()

    def certify(self):
        """Zero composites, E locally free, rank incl_n = dim F_n - dim I_n
        up to max(top F, reg(I) + 1), and K(E) = K(F) - K(I).  surj is onto
        I, and ker(F -> I) is generated up to that bound, as reg A <= max(reg
        B, reg C + 1) on 0 -> A -> B -> C -> 0 (Eisenbud, The Geometry of
        Syzygies, Cor. 4.18); so the ranks make E onto it, and a K difference
        shows where E is too big to inject.  The ranks are those
        _certify_resolution took for the second map of R/I's resolution."""
        if not self.surj.compose(self.incl).is_zero():
            raise CertificationError("E does not map into the kernel")
        if self.E.F1.rank and not self.incl.compose(
            self.E.presentation
        ).is_zero():
            raise CertificationError("E relations do not die in F")
        if self.E.projective_dimension()[1]:
            raise CertificationError("E is not locally free")
        for n in range(self.F.min_degree(), max(self.F.top_degree(), self.reg + 1) + 1):
            if self.incl.rank_at(n) != self.F.piece_dim(n) - self.ideal.piece_dim(n):
                raise CertificationError(f"E-type sequence not exact in degree {n}")
        n = _unbalanced_degree([self.E.kpolynomial(), _ideal_k(self.ideal)], [self.F.twists])
        if n is not None:
            raise CertificationError(f"E does not inject in degree {n}")

    def twists(self):
        return (tuple(sorted(self.E.F0.twists)), tuple(sorted(self.F.twists)))


def n_type_resolution(C: CurveFamily) -> NTypeResolution:
    if "ntype" in C._cache:
        return C._cache["ntype"]
    data = extravertize(C.ideal_module())
    surj = C.ideal_cover().compose(data.proj)
    res = NTypeResolution(C.ideal, data.N, data.P, data.incl, surj)
    C._cache["ntype"] = res
    return res


def e_type_resolution(C: CurveFamily) -> ETypeResolution:
    """The start F -> I_C of the minimal resolution of I_C, with E its
    syzygy module: E and the maps are read off the resolution of R/I."""
    if "etype" in C._cache:
        return C._cache["etype"]
    cover, IM = C.ideal_cover(), C.ideal_module()
    E = IM.syzygy_module(1)
    res = ETypeResolution(
        C.ideal, C.regularity() + 1, E, cover.source, IM.presentation, cover
    )
    C._cache["etype"] = res
    return res


def is_extraverted(N: GradedModule) -> bool:
    ok = ext_module(N, 1).F0.rank == 0
    if not N.base.dual:
        reg = N.regularity()
        lo = min(N.min_degree(), min(N.F0.twists, default=0)) - 5
        table = cohomology_table(N, "k", lo, reg + 3)
        h2_zero = all(v == 0 for v in table[2].values())
        if ok != h2_zero:
            raise OracleMismatch("Ext^1 vanishing and H^2 vanishing disagree")
    return ok


# -- pseudo-isomorphisms -----------------------------------------------------


def _minimal_hom(M: GradedModule, N: GradedModule, f0: GradedMap):
    """Transport a hom onto the minimal presentations of both sides, the
    modules M.minimal_presentation() and N.minimal_presentation(), so that
    their resolutions and Ext modules are built once."""
    keptM = _minimalize_map(M.presentation)[1]
    exprsN = _minimalize_map(N.presentation)[2]
    Mm = M.minimal_presentation()
    Nm = N.minimal_presentation()
    exprN = GradedMap.from_columns(Nm.F0, exprsN, [-t for t in N.F0.twists])
    unit = GradedMap.identity(M.F0)
    kept = GradedMap.from_columns(M.F0, [unit.column(r) for r in keptM], [-M.F0.twists[r] for r in keptM])
    return Mm, Nm, exprN.compose(f0).compose(kept)


def _lift_chain(f0: GradedMap, res_src, res_tgt):
    """Chain maps g_i over f0 between minimal free resolutions."""
    gs = [f0]
    for i in range(len(res_src)):
        prev = gs[-1]
        comp = prev.compose(res_src[i])
        if i >= len(res_tgt):
            if not comp.is_zero():
                raise CertificationError("chain map does not terminate")
            break
        gs.append(_lift_columns(res_tgt[i], comp, "chain map lift failed"))
    return gs


def _onto_ext(M, N, g, j) -> bool:
    """Whether the map Ext^j(N, R) -> Ext^j(M, R) induced by g^dual, g: F_j
    -> G_j a chain map's spot j between the resolutions of M and N (None:
    zero), is onto.  It is R-linear, so it is onto once it is onto in the
    degrees of Ext^j(M)'s generators (graded Nakayama).

    g^dual sends N's cycles into M's cycles and N's boundaries into M's
    boundaries.  N's cycles are the image of K = cycles_cover(N, j), and
    M's boundaries the image of B, so the image has dimension rank [g^dual o
    K | B]_n - rank B_n in degree n.  A zero g maps nothing.
    """
    EM = ext_module(M, j)
    degrees = sorted({-t for t in EM.F0.twists})
    if g is None:
        return not any(EM.piece_dim(n) for n in degrees)
    B = _ext_slot(M, j)[1]
    joint = GradedMap.hstack(g.dual().compose(cycles_cover(N, j)), B)
    return all(joint.rank_at(n) - B.rank_at(n) == EM.piece_dim(n) for n in degrees)


def _same_hilbert_function(X: GradedModule, Y: GradedModule) -> bool:
    """Whether dim X_n = dim Y_n in every degree: equal finite supports, or
    equal K-polynomials when neither has finite length, read off
    resolutions that over A certify both flat (or raise NotLiftable)."""
    finite = X.is_finite_length(), Y.is_finite_length()
    if any(finite):
        return all(finite) and _finite_support(X) == _finite_support(Y)
    X.resolution()
    Y.resolution()
    return X.kpolynomial() == Y.kpolynomial()


def is_psi(f: ModuleHom) -> bool:
    """Pseudo-isomorphism test over the supported test modules: the induced
    map is onto on Ext^1 and Ext^2, and Ext^2 of both has one Hilbert function."""
    variants = [(f.source, f.target, f.f0)]
    if f.source.base.dual:
        variants.append((f.source.tensor_residue_field(), f.target.tensor_residue_field(), f.f0.fiber()))
    for M0, N0, g0 in variants:
        M, N, f0 = _minimal_hom(M0, N0, g0)
        if max(M.projective_dimension()[1], N.projective_dimension()[1]) > 2:
            raise Undecided("sheaf projective dimension above 2")
        gs = _lift_chain(f0, M.resolution(), N.resolution())
        if not _same_hilbert_function(ext_module(M, 2), ext_module(N, 2)):
            return False
        for j in (2, 1):
            if not _onto_ext(M, N, gs[j] if j < len(gs) else None, j):
                return False
    return True


def psi_roof(
    N: GradedModule,
    Np: GradedModule,
    M: GradedModule,
    f: ModuleHom,
    fp: ModuleHom,
):
    """Fiber product roof over two psi maps into a common module."""
    for g in (f, fp):
        if not is_psi(g):
            raise NotPsi("an input map is not a pseudo-isomorphism")
    top = max((-t for t in M.F0.twists), default=0)
    N1, f1 = _pad_surjective(N, M, f, top)
    N2, f2 = _pad_surjective(Np, M, fp, top)
    minus_f2 = GradedMap(f2.f0.source, M.F0, [[-g for g in row] for row in f2.f0.matrix])
    big = GradedMap.hstack(f1.f0, minus_f2, M.presentation)
    rel = direct_sum(N1, N2).presentation
    head = rel.target
    # big maps onto M.F0, as f1 is onto M after padding: ker big is
    # generated by degree max(top big.source, top M.F0 + 1), since reg A <=
    # max(reg B, reg C + 1) on 0 -> A -> B -> C -> 0.  head -> M is onto
    # with kernel im Kproj, which [Kproj | rel] maps onto: its kernel, the
    # roof's relations, is generated by degree roof_cap
    cap = max(big.source.top_degree(), M.F0.top_degree() + 1)
    Kproj = kernel_head(big, head, cap)
    reg = _twist_regularity(M.minimal_presentation().resolution())
    roof_cap = max(cap, rel.source.top_degree(), head.top_degree() + 1, reg + 2)
    roof = subquotient_module(Kproj, rel, roof_cap)
    # 0 -> roof -> N1 + N2 -> M -> 0 balances K on minimal presentations;
    # over A, is_psi of the projections resolves the roof's, proving it flat
    K = [X.minimal_presentation().kpolynomial() for X in (roof, M, N1, N2)]
    n = _unbalanced_degree(K[:2], K[2:])
    if n is not None:
        raise CertificationError(f"the fiber product misses its dimension count in degree {n}")
    rows = Kproj.matrix
    p1 = ModuleHom(roof, N1, GradedMap(roof.F0, N1.F0, rows[: N1.F0.rank]))
    p2 = ModuleHom(roof, N2, GradedMap(roof.F0, N2.F0, rows[N1.F0.rank :]))
    for proj in (p1, p2):
        if not is_psi(proj):
            raise CertificationError("roof projection is not a psi")
    return roof, p1, p2


def _pad_surjective(N: GradedModule, M: GradedModule, f: ModuleHom, top: int):
    """Add a free cover of M so the map becomes surjective."""
    if f.is_surjective_up_to(top):
        return N, f
    Npad = direct_sum(N, GradedModule.free(N.base, M.F0.twists))
    return Npad, ModuleHom(Npad, M, GradedMap.hstack(f.f0, GradedMap.identity(M.F0)))


# -- stable classification ---------------------------------------------------


def minimal_extravert(M: GradedModule) -> GradedModule:
    """The extraverted representative with free summands stripped; its
    Ext^1 = 0 is proved by _certify_extravert."""
    N = extravertize(M).N
    N0, _ = N.strip_free_summands()
    return N0.minimal_presentation()


def _finite_support(E: GradedModule) -> dict:
    if E.F0.rank == 0:
        return {}
    out = {}
    for n in range(E.min_degree(), E.regularity() + 1):
        d = E.piece_dim(n)
        if d:
            out[n] = d
    return out


def _matching_shifts(a: dict, b: dict) -> list:
    """[h] when the finite support a is b moved up by h, {n + h: d for n,
    d in b.items()} == a, else []: the lowest degrees fix h."""
    h = min(a) - min(b)
    return [h] if {n + h: d for n, d in b.items()} == a else []


def _stable_compare(
    N0: GradedModule,
    N0p: GradedModule,
    allow_shift: bool,
    trials: int,
    seed: int,
) -> Verdict:
    """Stable isomorphism up to shift: free summands may be hidden in the
    presentations, so both sides are padded with explicit free modules until
    their K-polynomials agree before the isomorphism search."""
    if N0.F0.rank == 0 and N0p.F0.rank == 0:
        return Verdict("yes", h=0)
    if N0.F0.rank == 0 or N0p.F0.rank == 0:
        return Verdict("no", reason="exactly one side is stably free")
    k0 = N0.kpolynomial()
    k0p = N0p.kpolynomial()
    if allow_shift:
        sa = _finite_support(ext_module(N0, 2))
        sb = _finite_support(ext_module(N0p, 2))
        if sa and sb:
            # Ext^2(N'(h), R) = Ext^2(N', R)(-h) sits at degrees supp + h
            cands = _matching_shifts(sa, sb)
            if not cands:
                return Verdict(
                    "no", reason="no shift matches the Ext supports"
                )
        else:
            cands = sorted({t1 - t2 for t1 in k0 for t2 in k0p})
    else:
        cands = [0]
    base = N0.base

    def padded():
        for h in cands:
            diff = Counter(k0)
            diff.subtract({t + h: c for t, c in k0p.items()})
            pad_a, pad_b = sorted((-diff).elements()), sorted((+diff).elements())
            A = direct_sum(N0, GradedModule.free(base, pad_a)) if pad_a else N0
            B = N0p.shift(h)
            if pad_b:
                B = direct_sum(B, GradedModule.free(base, pad_b))
            yield h, A, B

    return _first_iso(
        padded(), trials, seed, "iso test inconclusive", "no candidate shift yields an isomorphism"
    )


def _first_iso(candidates, trials, seed, undecided: str, no: str) -> Verdict:
    """Yes at the shift h of the first (h, X, Y) with X isomorphic to Y;
    else undecided (reason undecided) when some iso test was inconclusive,
    and no (reason no) when every test said no."""
    saw_undecided = False
    for h, X, Y in candidates:
        r = is_module_iso(X, Y, trials=trials, seed=seed)
        if r == "yes":
            return Verdict("yes", h=h)
        saw_undecided |= r == "undecided"
    if saw_undecided:
        return Verdict("undecided", reason=undecided)
    return Verdict("no", reason=no)


def psi_equivalent(
    N: GradedModule,
    Np: GradedModule,
    allow_shift: bool = True,
    trials: int = 32,
    seed: int = 0,
) -> Verdict:
    """Stable psi equivalence via minimal extraverted representatives."""
    if N.base != Np.base:
        raise MixedBase("psi equivalence across base rings")
    return _stable_compare(
        minimal_extravert(N), minimal_extravert(Np), allow_shift, trials, seed
    )


# -- link transforms ---------------------------------------------------------


def _koszul_surjection(J: Ideal, A: GradedMap, B: GradedMap, F: Poly, G: Poly) -> GradedMap:
    """The surjection [pi | k1 k2]: A.target + B.target -> R onto J that
    kills the image of [A; B], with (k1, k2) = (+-G, +-F), tried +G before
    -G and +F before -F within each: pi solves pi o A = -(k1, k2) o B, lifted
    as A.dual().lift(rhs.dual()).  The first choice whose entries generate J
    is taken."""
    base = J.base
    R = FreeModule(base, [0])
    for k1 in (G, -G):
        for k2 in (F, -F):
            rhs = GradedMap(B.target, R, [[-k1, -k2]]).compose(B)
            pi = A.dual().lift(rhs.dual())
            if pi is None:
                continue
            row = pi.dual().matrix[0] + (k1, k2)
            if Ideal(base, [f for f in row if not f.is_zero()]) == J:
                return GradedMap(FreeModule(base, A.target.twists + B.target.twists), R, [row])
    raise CertificationError("could not assemble the transformed surjection")


def link_transform_n_to_e(C: CurveFamily, F: Poly, G: Poly) -> ETypeResolution:
    """E-type resolution of the link of C in (F, G), from the N-type
    resolution of C."""
    C2 = link(C, F, G)
    res = n_type_resolution(C)
    J = C2.ideal
    s, t = F.degree(), G.degree()
    st = s + t
    a1 = res.surj.preimage((F,), s)
    a2 = res.surj.preimage((G,), t)
    if a1 is None or a2 is None:
        raise CertificationError("complete intersection does not lift to N")
    alpha = GradedMap.from_columns(res.N.F0, [a1, a2], [s, t])
    Nd, K = dual_module(res.N)
    jK = res.incl.dual().compose(K).shift(-st)
    aK = alpha.dual().compose(K).shift(-st)
    surj = _koszul_surjection(J, jK, aK, F, G)
    delta = GradedMap(jK.source, surj.source, jK.matrix + aK.matrix)
    return ETypeResolution(J, C2.regularity() + 1, Nd.shift(-st), surj.source, delta, surj)


def link_transform_e_to_n(C: CurveFamily, F: Poly, G: Poly) -> NTypeResolution:
    """N-type resolution of the link of C in (F, G), from the E-type
    resolution of C."""
    C2 = link(C, F, G)
    res = e_type_resolution(C)
    J = C2.ideal
    s, t = F.degree(), G.degree()
    st = s + t
    g1 = res.surj.preimage((F,), s)
    g2 = res.surj.preimage((G,), t)
    if g1 is None or g2 is None:
        # H^1(E~(n)) is dual to Ext^2(E, R)_{-n-4} (local duality), which
        # has finite length as E is locally free
        support = _finite_support(ext_module(res.E.tensor_residue_field(), 2))
        raise NoLift(
            "the complete intersection does not lift through the cover",
            n0=-min(support) - 4 if support else None,
            degrees=[d for d, lift in ((s, g1), (t, g2)) if lift is None],
        )
    gamma = GradedMap.from_columns(res.F, [g1, g2], [s, t])
    Ed, KE = dual_module(res.E)
    cK = res.incl.dual().shift(-st)  # F^dual(-st) -> (E cover)^dual(-st)
    gK = gamma.dual().shift(-st)  # F^dual(-st) -> R(-t) + R(-s)
    P = res.F.dual().shift(-st)
    EdS = Ed.shift(-st)
    lift1 = _lift_columns(KE.shift(-st), cK, "dualized cover misses the E dual")
    surj = _koszul_surjection(J, lift1, gK, F, G)
    Ncover = surj.source
    zero = GradedMap.zero(EdS.F1, gK.target)
    N = GradedModule(GradedMap(EdS.F1, Ncover, EdS.presentation.matrix + zero.matrix))
    incl = GradedMap(P, Ncover, lift1.matrix + gK.matrix)
    out = NTypeResolution(J, N, P, incl, surj)
    # no theorem certifies this assembly: check K(N) = K(P) + K(J), on the
    # resolution of N that certify() took (over A it proves N flat)
    n = _unbalanced_degree([N.kpolynomial()], [P.twists, _ideal_k(J)])
    if n is not None:
        raise CertificationError(f"N-type sequence not exact in degree {n}")
    return out


# -- assembled comparison sequence -------------------------------------------


def epfn_sequence(nres: NTypeResolution, eres: ETypeResolution) -> bool:
    """Certify exactness of 0 -> E -> P + F -> N -> 0 for one curve."""
    if not (nres.ideal == eres.ideal):
        raise OracleMismatch("resolutions belong to different curves")
    # lift the E-type cover through the N-type surjection
    lam = _lift_columns(nres.surj, eres.surj, "cover does not lift through N")
    # the composite lambda o incl_E lands in ker(N -> I_C) = im(P)
    joint = GradedMap.hstack(nres.incl, nres.N.presentation)
    _lift_columns(joint, lam.compose(eres.incl), "E does not map into P through N")
    # K(E) + K(N) = K(P) + K(F) balances every degree, and P + F maps onto
    # N once it does in the degrees of N's generators (graded Nakayama)
    n = _unbalanced_degree([eres.E.kpolynomial(), nres.N.kpolynomial()], [nres.P.twists, eres.F.twists])
    if n is not None:
        raise CertificationError(f"assembled sequence unbalanced at {n}")
    stack = GradedMap.hstack(nres.incl, lam, nres.N.presentation)
    for n in sorted({-t for t in nres.N.F0.twists}):
        if stack.rank_at(n) != nres.N.F0.piece_dim(n):
            raise CertificationError(f"P + F misses N in degree {n}")
    return True


# -- top-level decisions -----------------------------------------------------


def _stable_n(C: CurveFamily) -> GradedModule:
    if "stableN" not in C._cache:
        N0, _ = n_type_resolution(C).N.strip_free_summands()
        C._cache["stableN"] = N0.minimal_presentation()
    return C._cache["stableN"]


def _fiber_cached(C: CurveFamily) -> CurveFamily:
    if not C.base.dual:
        return C
    if "fibercurve" not in C._cache:
        C._cache["fibercurve"] = C.fiber()
    return C._cache["fibercurve"]


def biliaison_equivalent(
    C: CurveFamily, Cp: CurveFamily, trials: int = 32, seed: int = 0
) -> Verdict:
    """Same biliaison class, decided by two independent routes."""
    if C.base != Cp.base:
        raise MixedBase("biliaison comparison across base rings")
    n_route = _stable_compare(_stable_n(C), _stable_n(Cp), True, trials, seed)
    rao_route = _rao_shift_verdict(C, Cp, trials, seed)
    if n_route.kind == "undecided":
        return n_route
    if rao_route.kind == "undecided":
        return rao_route
    if n_route.kind != rao_route.kind:
        raise OracleMismatch(
            f"biliaison routes disagree: N-side {n_route.kind}, Rao side "
            f"{rao_route.kind}"
        )
    if n_route.kind == "yes":
        if (
            rao_route.h is not None
            and n_route.h is not None
            and rao_route.h != n_route.h
        ):
            raise OracleMismatch(
                f"biliaison shifts disagree: N-side {n_route.h}, Rao side "
                f"{rao_route.h}"
            )
        return Verdict("yes", h=n_route.h)
    return Verdict("no", reason=n_route.reason or rao_route.reason)


def _rao_shift_verdict(C, Cp, trials, seed) -> Verdict:
    A = _fiber_cached(C).rao_module()
    B = _fiber_cached(Cp).rao_module()
    if A.is_zero() and B.is_zero():
        return Verdict("yes", h=None)
    if A.is_zero() or B.is_zero():
        return Verdict("no", reason="exactly one Rao module vanishes")
    # M_C = M_{C'}(h) when M_{C'} has the support of M_C moved up by h
    cands = _matching_shifts(B.dims(), A.dims())
    Am = A.to_module()
    return _first_iso(
        ((h, Am, finite_data_to_module(B.data.shift(h))) for h in cands),
        trials,
        seed,
        "Rao iso test inconclusive",
        "Rao modules differ at every shift",
    )


def liaison_parity(
    C: CurveFamily, Cp: CurveFamily, trials: int = 32, seed: int = 0
) -> str:
    """'even' / 'odd' / 'both' / 'neither' / 'undecided' for linkage chains."""
    if C.base != Cp.base:
        raise MixedBase("liaison parity across base rings")
    Cf = _fiber_cached(C)
    Cpf = _fiber_cached(Cp)
    even = biliaison_equivalent(Cf, Cpf, trials=trials, seed=seed)
    eres = e_type_resolution(Cpf)
    Ed, _ = dual_module(eres.E)
    odd = _stable_compare(
        _stable_n(Cf), minimal_extravert(Ed), True, trials, seed
    )
    if even.kind == "undecided" or odd.kind == "undecided":
        return "undecided"
    if even.is_yes and odd.is_yes:
        return "both"
    if even.is_yes:
        return "even"
    if odd.is_yes:
        return "odd"
    return "neither"

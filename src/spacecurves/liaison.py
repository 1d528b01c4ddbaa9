"""Linkage by complete intersections and biliaison moves.

A link replaces a curve C by the residual curve C' of a complete
intersection (F, G) containing it: I_{C'} = (F,G) : I_C, read off the
resolution of R/I_C with no colon.  A trivial biliaison replaces C by the
curve with ideal sat(H * I_C + (Q)) for a surface Q through C and a form H
coprime to Q.  An elementary biliaison of height h on Q is witnessed by a
graded isomorphism I_{C'}/(Q) = (I_C/(Q))(-h); chains of such moves are
searched for and replayed by connect_by_biliaisons.
"""

from __future__ import annotations

import random

from .curve import CurveFamily, validate_curve
from .errors import (
    CertificationError,
    MixedBase,
    NotContained,
    NotCoprime,
    NotEquivalent,
    NotRegularSequence,
    OracleMismatch,
    ResidualEmpty,
    SurfaceNotFlat,
    Undecided,
    WrongDegree,
)
from .gradedmod import FreeModule, GradedMap, GradedModule, cycles_cover, find_module_iso
from .groebner import (
    Ideal,
    ideal_intersect,
    ideal_product_poly,
    ideal_saturate,
    ideal_sum,
    is_nonzerodivisor,
    reduced_generators,
)
from .polyring import Poly, random_form


class Verdict:
    """Outcome of a decision procedure: yes / no / undecided."""

    __slots__ = ("kind", "h", "witness", "reason")

    def __init__(self, kind: str, h=None, witness=None, reason: str = ""):
        if kind not in ("yes", "no", "undecided"):
            raise ValueError(f"bad verdict kind {kind!r}")
        self.kind = kind
        self.h = h
        self.witness = witness
        self.reason = reason

    @property
    def is_yes(self) -> bool:
        return self.kind == "yes"

    def __repr__(self):
        extra = f"(h={self.h})" if self.kind == "yes" and self.h is not None else ""
        return f"Verdict[{self.kind}{extra}{' ' + self.reason if self.reason else ''}]"


# -- complete intersections -------------------------------------------------


class CompleteIntersection:
    """A regular sequence (F, G) of surfaces."""

    def __init__(self, F: Poly, G: Poly):
        base = F.base
        if base != G.base:
            raise NotRegularSequence("forms over different base rings")
        for f in (F, G):
            if f.fiber().is_zero():
                raise NotRegularSequence(f"fiber form of {f} vanishes")
            if not f.is_homogeneous() or f.degree() < 1:
                raise NotRegularSequence(f"{f} is not homogeneous of positive degree")
        if not is_nonzerodivisor(Ideal(base.field(), [F.fiber()]), G.fiber()):
            raise NotRegularSequence(f"{G} is a zero divisor modulo {F} in the fiber")
        self.F = F
        self.G = G
        self.s = F.degree()
        self.t = G.degree()
        self.base = base


# -- linkage ---------------------------------------------------------------


def link(C: CurveFamily, F: Poly, G: Poly) -> CurveFamily:
    """The residual curve of C in the complete intersection D = (F, G) of
    degrees s, t, read off the resolution L1 -> R, L2 -> L1, L3 -> L2 of R/I
    that validation certified (Peskine & Szpiro, Invent. Math. 26, 1974).

    Lift (F, G) to alpha1: R(-s) + R(-t) -> L1 and solve d2 o alpha2 =
    alpha1 o (G, -F)^T.  As (D : I)/D = Hom(R/I, R/D) = Ext^2(R/I, R)(-s-t),
    D : I is D plus alpha2^dual of the cycles ker(L2^dual -> L3^dual), which
    the ideal module's cycles_cover generates.

    Certificate: g*h lies in D for the generators g of I and h of the result
    J, on the generators reduced_generators gives it, but for h = F and
    h = G, which lie in D; so J <= D : I.  J passes validate_curve, and
    d + d' = st.  Over F_p, D : I and J are saturated and define locally
    Cohen-Macaulay curves of degree st - d, so the sheaf of (D : I)/J lives
    on points inside O_V(J), which has no such subsheaf: they agree.  Over
    A, R/J_0 = e*(R_A/J) by flatness, so J_0 is such a curve and
    J_0 = D_0 : I_0.  For f = g + e*h in D : I with g in J, e*h*I <= D and
    R_A/D is flat, so h_0*I_0 <= D_0, h_0 lies in J_0 and e*h in J.  D : I
    is saturated, as D is unmixed.
    """
    ci = CompleteIntersection(F, G)
    I = C.ideal
    for f in (F, G):
        if not I.contains(f):
            raise NotContained(f"{f} does not lie in the curve ideal")
    base, s, t = ci.base, ci.s, ci.t
    koszul = GradedMap(FreeModule(base, [-s - t]), FreeModule(base, [-s, -t]), [[G], [-F]])
    a1 = C.ideal_cover().lift(GradedMap(koszul.target, FreeModule(base, [0]), [[F, G]]))
    a2 = None if a1 is None else C.ideal_module().presentation.lift(a1.compose(koszul))
    if a2 is None:
        raise CertificationError("the Koszul relation does not lift to the resolution")
    residual = a2.dual().compose(cycles_cover(C.ideal_module(), 1)).matrix[0]
    J = reduced_generators(Ideal(base, [F, G, *residual]))
    D = Ideal(base, [F, G])
    if not all(D.contains(g * h) for h in J.gens if h not in (F, G) for g in I.gens):
        raise CertificationError("the residual does not multiply the curve into (F, G)")
    if J.is_unit_ideal():
        raise ResidualEmpty("the curve equals the complete intersection")
    Cp = validate_curve(J)
    d, dp = C.degree_genus()[0], Cp.degree_genus()[0]
    if d + dp != s * t:
        raise OracleMismatch(f"degree additivity fails: {d} + {dp} != {s} * {t}")
    return Cp


# -- quotient by a surface --------------------------------------------------


def ideal_mod_surface(C: CurveFamily, Q: Poly) -> GradedModule:
    """I_C/(Q) as a graded module, for a surface Q through C, on the cover
    of the curve's ideal module.  It carries K(I_C) - t^{-deg Q}: with q0
    the fiber of Q, 0 -> R(-deg Q) -q0-> I_C tensor_A k -> (I_C/(Q))
    tensor_A k -> 0 is exact."""
    IM = C.ideal_module()
    col = C.ideal_cover().preimage((Q,), Q.degree())
    if col is None:
        raise NotContained(f"{Q} does not lie in the ideal")
    cols = [IM.presentation.column(j) for j in range(IM.F1.rank)]
    degs = [-t for t in IM.F1.twists]
    cols.append(col)
    degs.append(Q.degree())
    pres = GradedMap.from_columns(IM.F0, cols, degs)
    M = GradedModule(pres).minimal_presentation()
    if not Q.fiber().is_zero():
        M.carry_kpolynomial(IM, [-Q.degree()], -1)
    return M


# -- biliaison moves --------------------------------------------------------


class BiliaisonStep:
    """One certified biliaison move from source ideal to target ideal.

    kind "trivial": target = sat(H * source + (Q)), height h = deg H.
    kind "elementary": witnessed by a graded isomorphism between the
    surface quotients; height h may be negative (descending move).
    """

    def __init__(self, kind, Q, h, source: Ideal, target: Ideal, H=None, witness=None):
        self.kind = kind
        self.Q = Q
        self.h = h
        self.source = source
        self.target = target
        self.H = H
        self.witness = witness

    def verify(self, trials: int = 32, seed: int = 0) -> bool:
        """Re-check this move independently of how it was found."""
        C = validate_curve(self.source)
        Cp = validate_curve(self.target)
        if self.kind == "trivial":
            _, step = trivial_biliaison(C, self.Q, self.H, self.h)
            if not (step.target == self.target):
                return False
        if self.h >= 0:
            v = check_elementary_biliaison(C, Cp, self.Q, self.h, trials, seed)
        else:
            v = check_elementary_biliaison(Cp, C, self.Q, -self.h, trials, seed)
        return v.is_yes

    def apply(self, I: Ideal) -> Ideal:
        """Replay the move on an input ideal; must match the recorded source."""
        if not (I == self.source):
            raise NotEquivalent("replay input differs from the recorded source")
        if self.kind == "trivial":
            out = ideal_saturate(
                ideal_sum(ideal_product_poly(self.H, I), Ideal(I.base, [self.Q]))
            )
            if not (out == self.target):
                raise OracleMismatch("trivial biliaison replay mismatch")
            return out
        if not self.verify():
            raise OracleMismatch("elementary biliaison step fails re-verification")
        return self.target

    def __repr__(self):
        return f"BiliaisonStep({self.kind}, Q={self.Q}, h={self.h})"


def trivial_biliaison(C: CurveFamily, Q: Poly, H: Poly, h: int):
    """(C', step) with I_{C'} = sat(H * I_C + (Q)); deg H = h >= 0."""
    base = C.base
    I = C.ideal
    if Q.fiber().is_zero():
        raise SurfaceNotFlat(f"fiber form of {Q} vanishes")
    if not Q.is_homogeneous():
        raise WrongDegree(f"{Q} is not homogeneous")
    if not I.contains(Q):
        raise NotContained(f"{Q} does not contain the curve")
    if h < 0 or not H.is_homogeneous() or H.degree() != h:
        raise WrongDegree(f"H must be homogeneous of degree h = {h}")
    if H.fiber().is_zero():
        raise NotCoprime("H has vanishing fiber form")
    if h > 0 and not is_nonzerodivisor(Ideal(base.field(), [Q.fiber()]), H.fiber()):
        raise NotCoprime(f"{H} shares a component with {Q}")
    J = ideal_saturate(ideal_sum(ideal_product_poly(H, I), Ideal(base, [Q])))
    Cp = validate_curve(J)
    d, _ = C.degree_genus()
    dp, _ = Cp.degree_genus()
    if dp != d + h * Q.degree():
        raise OracleMismatch(
            f"trivial biliaison degree check fails: {dp} != {d} + {h}*{Q.degree()}"
        )
    step = BiliaisonStep("trivial", Q, h, I, J, H=H)
    return Cp, step


def check_elementary_biliaison(
    C: CurveFamily, Cp: CurveFamily, Q: Poly, h: int, trials: int = 32, seed: int = 0
) -> Verdict:
    """Decide whether C' is an elementary biliaison of height h of C on Q."""
    if Q.fiber().is_zero():
        raise SurfaceNotFlat(f"fiber form of {Q} vanishes")
    for X in (C, Cp):
        if not X.ideal.contains(Q):
            raise NotContained(f"{Q} does not contain both curves")
    d, _ = C.degree_genus()
    dp, _ = Cp.degree_genus()
    if dp != d + h * Q.degree():
        return Verdict(
            "no", reason=f"degree obstruction: {dp} != {d} + {h}*{Q.degree()}"
        )
    M = ideal_mod_surface(C, Q)
    Mp = ideal_mod_surface(Cp, Q)
    kind, wit = find_module_iso(M.shift(-h), Mp, trials, seed)
    if kind == "yes":
        return Verdict("yes", h=h, witness=wit)
    if kind == "no":
        return Verdict("no", reason="surface quotients are not isomorphic")
    return Verdict("undecided", reason="no surjective hom found")


# -- chain search -----------------------------------------------------------


def _common_surfaces(C: CurveFamily, Cp: CurveFamily, max_degree: int):
    """Low-degree surfaces through both curves, smallest degrees first."""
    base = C.base
    If, Jf = C.ideal.fiber(), Cp.ideal.fiber()
    inter = ideal_intersect(If, Jf)
    out = []
    for g in sorted(inter.gens, key=lambda f: f.degree()):
        if g.degree() <= max_degree:
            out.append(g.lift(base) if base.dual else g)
    return out


def _single_step(C, Cp, surfaces, max_height, trials, seed):
    d, _ = C.degree_genus()
    dp, _ = Cp.degree_genus()
    delta = dp - d
    for Q in surfaces:
        q = Q.degree()
        if delta % q:
            continue
        h = delta // q
        if abs(h) > max_height:
            continue
        try:
            if h >= 0:
                v = check_elementary_biliaison(C, Cp, Q, h, trials, seed)
            else:
                v = check_elementary_biliaison(Cp, C, Q, -h, trials, seed)
        except (NotContained, SurfaceNotFlat):
            continue
        if v.is_yes:
            return BiliaisonStep(
                "elementary", Q, h, C.ideal, Cp.ideal, witness=v.witness
            )
    return None


# what a random H (or an ill-chosen Q) can make trivial_biliaison raise
_BAD_RANDOM_FORM = (NotCoprime, NotContained, SurfaceNotFlat)


def connect_by_biliaisons(
    C: CurveFamily,
    Cp: CurveFamily,
    max_height: int = 2,
    trials: int = 32,
    seed: int = 0,
):
    """A verified chain of biliaison steps from C to C'."""
    if C.base != Cp.base:
        raise MixedBase("biliaison chain across base rings")
    if C.ideal == Cp.ideal:
        return []
    from .raoclass import biliaison_equivalent

    eq = biliaison_equivalent(C, Cp, trials=trials, seed=seed)
    if eq.kind == "no":
        raise NotEquivalent("curves are not in the same biliaison class")
    reg = max(C.regularity(), Cp.regularity())
    surfaces = _common_surfaces(C, Cp, reg + 2)
    step = _single_step(C, Cp, surfaces, max_height, trials, seed)
    if step is not None:
        return [step]
    # two-step search: one trivial biliaison off C (or off C'), then a
    # single elementary move to close the gap
    rng = random.Random(seed)
    own = [
        g for g in sorted(C.ideal.fiber().gens, key=lambda f: f.degree())
    ][:4]
    own_p = [
        g for g in sorted(Cp.ideal.fiber().gens, key=lambda f: f.degree())
    ][:4]
    base = C.base
    for h1 in range(1, max_height + 1):
        for Q in own:
            Qa = Q.lift(base) if base.dual else Q
            for _ in range(4):
                H = random_form(base, h1, rng)
                try:
                    C1, step1 = trivial_biliaison(C, Qa, H, h1)
                except _BAD_RANDOM_FORM:
                    continue
                mid = _common_surfaces(C1, Cp, reg + h1 + 2)
                step2 = _single_step(C1, Cp, mid, max_height + h1, trials, seed)
                if step2 is not None:
                    return [step1, step2]
                break
        for Q in own_p:
            Qa = Q.lift(base) if base.dual else Q
            for _ in range(4):
                H = random_form(base, h1, rng)
                try:
                    C1p, step1 = trivial_biliaison(Cp, Qa, H, h1)
                except _BAD_RANDOM_FORM:
                    continue
                mid = _common_surfaces(C, C1p, reg + h1 + 2)
                stepA = _single_step(C, C1p, mid, max_height + h1, trials, seed)
                if stepA is not None:
                    stepB = BiliaisonStep(
                        "elementary",
                        step1.Q,
                        -h1,
                        C1p.ideal,
                        Cp.ideal,
                    )
                    if stepB.verify(trials, seed):
                        return [stepA, stepB]
                break
    raise Undecided("no biliaison chain found within the search bounds")


def replay_chain(I: Ideal, steps) -> Ideal:
    """Apply a chain of steps to an ideal, verifying each move."""
    cur = I
    for step in steps:
        cur = step.apply(cur)
    return cur

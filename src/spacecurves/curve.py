"""Validated curve families and their numerical invariants.

A curve family is a saturated homogeneous ideal whose quotient has
2-dimensional support (a cone over a curve), is locally Cohen-Macaulay with
no point components (finite-length Ext^3 criterion), and over the dual
numbers is flat, (I : e) = I + (e).  Validation rejects bad input instead of
repairing it.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import (
    NotFlat,
    NotPureDimensionOrNotLCM,
    NotSaturated,
    OracleMismatch,
    WrongDimension,
)
from .gradedmod import (
    FiniteModuleData,
    GradedModule,
    PieceCalculus,
    PowerHomCalculus,
    ext_module,
    finite_data_to_module,
    finite_module_data,
    is_module_iso,
)
from .groebner import Ideal, ideal_colon, ideal_saturate, ideal_sum
from .polyring import Poly
from .scalars import BaseRing


class RaoModule:
    """The finite-length invariant H^1_* of the curve's ideal sheaf."""

    def __init__(self, data: FiniteModuleData):
        self.data = data

    @property
    def base(self) -> BaseRing:
        return self.data.base

    def dims(self) -> dict:
        return dict(self.data.dims)

    def is_zero(self) -> bool:
        return not self.data.dims

    def total_dim(self) -> int:
        return self.data.total_dim()

    def shift(self, h: int) -> "RaoModule":
        return RaoModule(self.data.shift(h))

    def graded_dual(self) -> "RaoModule":
        return RaoModule(self.data.graded_dual())

    def to_module(self) -> GradedModule:
        return finite_data_to_module(self.data)

    def __repr__(self):
        return f"RaoModule(dims={self.data.dims})"


class CurveFamily:
    """A validated (family of) space curve(s), with cached invariants."""

    def __init__(self, ideal: Ideal, _token=None):
        if _token is not _VALIDATED:
            raise ValueError("use validate_curve to construct curves")
        self.ideal = ideal
        self._cache = {}

    @property
    def base(self) -> BaseRing:
        return self.ideal.base

    def _ri(self) -> GradedModule:
        if "ri" not in self._cache:
            self._cache["ri"] = GradedModule.quotient_by_ideal(self.ideal)
        return self._cache["ri"]

    def ideal_module(self) -> GradedModule:
        if "im" not in self._cache:
            self._cache["im"] = GradedModule.from_ideal(self.ideal)
        return self._cache["im"]

    def regularity(self) -> int:
        return self._ri().regularity()

    def degree_genus(self):
        if "dg" not in self._cache:
            reg = self.regularity()
            fib = self.ideal.fiber()
            hf = fib.hilbert_function(reg + 5)
            vals = hf[reg + 1 :]
            diffs = [b - a for a, b in zip(vals, vals[1:])]
            if len(set(diffs)) != 1:
                raise WrongDimension(
                    "Hilbert function does not stabilize to a linear polynomial"
                )
            d = diffs[0]
            n1 = reg + 1
            g = 1 - (vals[0] - d * n1)
            self._cache["dg"] = (d, g)
        return self._cache["dg"]

    def hilbert_function(self, n_max: int):
        return self.ideal.fiber().hilbert_function(n_max)

    def rao_module(self) -> RaoModule:
        if "rao" not in self._cache:
            a = _rao_route_saturation(self)
            b = _rao_route_duality(self)
            if a.dims != b.dims:
                raise OracleMismatch(
                    f"Rao module dims disagree: saturation route {a.dims}, "
                    f"duality route {b.dims}"
                )
            if a.dims:
                verdict = is_module_iso(
                    finite_data_to_module(a), finite_data_to_module(b)
                )
                if verdict != "yes":
                    raise OracleMismatch(
                        f"Rao module structures disagree ({verdict})"
                    )
            self._cache["rao"] = RaoModule(a)
        return self._cache["rao"]

    def fiber(self) -> "CurveFamily":
        if not self.base.dual:
            return self
        fib = ideal_saturate(self.ideal.fiber())
        return validate_curve(fib)

    def __eq__(self, other):
        return isinstance(other, CurveFamily) and self.ideal == other.ideal

    def __hash__(self):
        return hash(self.ideal)

    def __repr__(self):
        d, g = self.degree_genus()
        return f"CurveFamily(d={d}, g={g}, gens={[str(x) for x in self.ideal.gens]})"


_VALIDATED = object()


def is_flat_family(I: Ideal) -> bool:
    """True iff R_A/I is flat over A: multiplication by e has kernel e*R_A/I
    exactly, that is (I : e) = I + (e)."""
    if not I.base.dual:
        return True
    e = Ideal(I.base, [Poly.constant(I.base, 0, 1)])
    return ideal_colon(I, e) == ideal_sum(I, e)


def validate_curve(I: Ideal) -> CurveFamily:
    """Validate the curve conditions; reject rather than repair."""
    if not is_flat_family(I):
        raise NotFlat("a graded piece of R_A/I is not free over A")
    sat = ideal_saturate(I)
    if not (sat == I):
        raise NotSaturated(
            f"saturation adds generators {[str(g) for g in sat.gens]}"
        )
    dim = I.krull_dimension()
    if dim != 2:
        raise WrongDimension(f"cone dimension {dim}, expected 2")
    C = CurveFamily(I, _token=_VALIDATED)
    e3 = ext_module(C._ri(), 3, 0)
    if e3.F0.rank and not e3.is_finite_length():
        raise NotPureDimensionOrNotLCM(
            "Ext^3(R/I, R) has infinite length: point components or "
            "non-locally-CM locus"
        )
    d, _ = C.degree_genus()
    if d < 1:
        raise WrongDimension(f"degree {d} < 1")
    return C


# -- Rao module routes ------------------------------------------------------


def _rao_route_duality(C: CurveFamily) -> FiniteModuleData:
    """Graded dual of Ext^3(R/I, R(-4))."""
    e3 = ext_module(C._ri(), 3, -4)
    if not e3.F0.rank:
        return FiniteModuleData(C.base, {}, {}, {})
    return finite_module_data(e3).graded_dual()


def _rao_route_saturation(C: CurveFamily) -> FiniteModuleData:
    """coker(R -> Gamma_*(O_C)) computed from stabilized Hom(m^t, R/I)."""
    base = C.base
    p = base.p
    RI = C._ri()
    pc = PieceCalculus(RI)
    reg = C.regularity()
    lo, hi = -reg - 4, reg + 2
    degrees = list(range(lo, hi + 2))
    ph, bases = _stabilized_power_homs(pc, degrees)
    t = ph.t
    # image of R_n inside Hom(m^t, R/I)_n: multiplication homs
    img = {n: ph.multiplication_homs(n) for n in degrees}
    # quotient bases
    reps = {}
    for n in degrees:
        span = linalg.Span(p)
        span.add_many(img[n])
        reps[n] = bases[n][:, span.add_many(bases[n])]
    dims = {n: reps[n].shape[1] for n in degrees if reps[n].shape[1]}
    actions = {}
    eps_maps = {}
    for n in degrees[:-1]:
        if not reps[n].shape[1]:
            continue
        for v in range(4):
            q = pc.mult_matrix(Poly.variable(base, v), n + t)
            moved = ph.blockwise(q, reps[n])
            actions[(n, v)] = _coords_in_quotient(moved, img[n + 1], reps[n + 1], p)
        if base.dual:
            moved = ph.blockwise(pc.eps_matrix_q(n + t), reps[n])
            eps_maps[n] = _coords_in_quotient(moved, img[n], reps[n], p)
    return FiniteModuleData(base, dims, actions, eps_maps)


def _coords_in_quotient(vecs, img, reps, p):
    """Coefficients of each column of vecs on the chosen quotient
    representatives (the columns of reps)."""
    if not reps.shape[1]:
        return np.zeros((0, vecs.shape[1]), dtype=np.int64)
    full = np.concatenate([reps, img], axis=1)
    sol = linalg.solve(full, vecs, p)
    if sol is None:
        raise OracleMismatch("vector escapes the hom space")
    return sol[: reps.shape[1]]


def _stabilized_power_homs(pc: PieceCalculus, degrees):
    """(ph, hom bases by degree) at the first t whose hom dimensions over
    degrees repeat those at t - 1."""
    prev_dims = None
    for t in range(1, 12):
        ph = PowerHomCalculus(pc, t)
        bases = {n: ph.hom_basis(n) for n in degrees}
        dims = tuple(b.shape[1] for b in bases.values())
        if dims == prev_dims:
            return ph, bases
        prev_dims = dims
    raise OracleMismatch("Hom(m^t, -) failed to stabilize")

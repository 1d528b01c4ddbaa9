"""Validated curve families and their numerical invariants.

A curve family is a saturated homogeneous ideal whose quotient has
2-dimensional support (a cone over a curve), is locally Cohen-Macaulay with
no point components (finite-length Ext^3 criterion), and over the dual
numbers is flat: every graded piece of R_A/I is free over A.  Validation
rejects bad input instead of repairing it.
"""

from __future__ import annotations

import itertools

from .errors import (
    NotFlat,
    NotPureDimensionOrNotLCM,
    NotSaturated,
    OracleMismatch,
    Undecided,
    WrongDimension,
)
from .gradedmod import (
    FiniteModuleData,
    GradedMap,
    GradedModule,
    ext_module,
    finite_data_to_module,
    finite_module_data,
    is_module_iso,
    torsion_module_data,
)
from .groebner import Ideal, _nonzerodivisor, _saturation_certificate, ideal_saturate, ideal_sum, is_flat_family
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
        """I as a graded module: the first syzygy module of R/I, resolved by
        the rest of R/I's resolution."""
        return self._ri().syzygy_module(1)

    def ideal_cover(self) -> GradedMap:
        """The map onto the minimal generators of I: the first map of R/I's
        resolution, from the ideal module's cover."""
        return self._ri().resolution()[0]

    def regularity(self) -> int:
        return self._ri().regularity()

    def degree_genus(self):
        return self.ideal.degree_genus()

    def hilbert_function(self, n_max: int):
        return self.ideal.fiber().hilbert_function(n_max)

    def rao_module(self) -> RaoModule:
        if "rao" not in self._cache:
            a = _rao_route_torsion(self)
            b = _rao_route_duality(self)
            if a.dims != b.dims:
                raise OracleMismatch(
                    f"Rao module dims disagree: torsion route {a.dims}, "
                    f"duality route {b.dims}"
                )
            if a.dims:
                verdict = is_module_iso(
                    finite_data_to_module(a), finite_data_to_module(b)
                )
                if verdict == "undecided":
                    raise Undecided(
                        "the Rao module routes agree in dimensions, but the "
                        "isomorphism search was exhausted"
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


def validate_curve(I: Ideal) -> CurveFamily:
    """Validate the curve conditions; reject rather than repair."""
    if not is_flat_family(I):
        raise NotFlat("a graded piece of R_A/I is not free over A")
    if not _saturation_certificate(I):
        sat = ideal_saturate(I)
        if not (sat == I):
            raise NotSaturated(
                f"saturation adds generators {[str(g) for g in sat.gens]}"
            )
    dim = I.krull_dimension()
    if dim != 2:
        raise WrongDimension(f"cone dimension {dim}, expected 2")
    C = CurveFamily(I, _token=_VALIDATED)
    e3 = ext_module(C._ri(), 3)
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
    """Graded dual of Ext^3(R/I, R(-4)) = Ext^3(R/I, R)(-4), read off the
    Ext^3 module that validation built and resolved."""
    e3 = ext_module(C._ri(), 3)
    if not e3.F0.rank:
        return FiniteModuleData(C.base, {}, {})
    return finite_module_data(e3).shift(-4).graded_dual()


def _rao_route_torsion(C: CurveFamily) -> FiniteModuleData:
    """M_C from the m-torsion of R/(I + f^t), f a nonzerodivisor on R/I.

    0 -> R/I(-t*deg f) -> R/I -> R/(I + f^t) -> 0 gives H^0_m(R/(I + f^t))
    = ker(f^t on M_C)(-t*deg f), which vanishes past reg(R/I) + t*deg f - 1,
    the mapping-cone bound on reg(R/(I + f^t)).  The kernels of f^t on the
    finite-length M_C grow strictly until they are all of M_C, so the first t
    whose total dimension repeats that of t - 1 gives M_C.
    """
    f = _nonzerodivisor(C.ideal)
    reg = C.regularity()
    prev = 0
    for t in itertools.count(1):
        shift = t * f.degree()
        Q = GradedModule.quotient_by_ideal(ideal_sum(C.ideal, Ideal(C.base, [f**t])))
        data = torsion_module_data(Q, reg + shift - 1)
        if data.total_dim() == prev:
            return data.shift(shift)
        prev = data.total_dim()

"""Exception types shared across the package."""


class SpaceCurveError(Exception):
    """Base class for all domain errors."""


class ParseError(SpaceCurveError):
    pass


class MixedBase(SpaceCurveError):
    """Operands live over different base rings."""


class NonUnit(SpaceCurveError):
    """Inversion of a scalar whose residue is zero."""


class NotSaturated(SpaceCurveError):
    pass


class WrongDimension(SpaceCurveError):
    pass


class NotPureDimensionOrNotLCM(SpaceCurveError):
    """The scheme has a point component or is not locally Cohen-Macaulay."""


class NotFlat(SpaceCurveError):
    """A graded piece of the family is not free over the dual numbers."""


class NotLiftable(SpaceCurveError):
    """The fiber's resolution does not lift over e: the module is not flat
    over the dual numbers."""


class NotFiniteLength(SpaceCurveError):
    pass


class WrongDegree(SpaceCurveError):
    """A form is not homogeneous of the degree the operation needs."""


class NotRegularSequence(SpaceCurveError):
    pass


class NotContained(SpaceCurveError):
    pass


class ResidualEmpty(SpaceCurveError):
    """Linking a curve that equals the complete intersection itself."""


class SurfaceNotFlat(SpaceCurveError):
    """The fiber form of the chosen surface vanishes."""


class NotCoprime(SpaceCurveError):
    pass


class NotPsi(SpaceCurveError):
    pass


class NoLift(SpaceCurveError):
    """The Koszul inclusion does not lift through the free cover.

    Carries the first degree beyond which H^1 of the kernel sheaf vanishes,
    so callers can pick larger surface degrees.
    """

    def __init__(self, msg, n0=None, degrees=None):
        super().__init__(msg)
        self.n0 = n0
        self.degrees = degrees


class NotEquivalent(SpaceCurveError):
    pass


class OracleMismatch(SpaceCurveError):
    """Two independent computation routes disagree; always a bug."""


class CertificationError(SpaceCurveError):
    """An exactness or contract certificate failed; always a bug."""


class Undecided(SpaceCurveError):
    """A randomized search exhausted its trials without a verdict."""

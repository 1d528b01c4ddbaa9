"""Exact liaison and biliaison computations for space curves in P^3."""

from .curve import CurveFamily, RaoModule, is_flat_family, validate_curve
from .errors import (
    CertificationError,
    MixedBase,
    NoLift,
    NonUnit,
    NotContained,
    NotCoprime,
    NotEquivalent,
    NotFiniteLength,
    NotFlat,
    NotLiftable,
    NotPsi,
    NotPureDimensionOrNotLCM,
    NotRegularSequence,
    NotSaturated,
    OracleMismatch,
    ParseError,
    ResidualEmpty,
    SpaceCurveError,
    SurfaceNotFlat,
    Undecided,
    WrongDegree,
    WrongDimension,
)
from .files import CurveFile, corpus_names, load_corpus
from .gradedmod import (
    FreeModule,
    GradedMap,
    GradedModule,
    ModuleHom,
    cohomology_table,
    ext_module,
    is_module_iso,
)
from .groebner import Ideal, ideal_saturate
from .liaison import (
    BiliaisonStep,
    CompleteIntersection,
    Verdict,
    check_elementary_biliaison,
    connect_by_biliaisons,
    link,
    replay_chain,
    trivial_biliaison,
)
from .polyring import Poly
from .raoclass import (
    ETypeResolution,
    NTypeResolution,
    biliaison_equivalent,
    dual_module,
    e_type_resolution,
    epfn_sequence,
    extravertize,
    is_extraverted,
    is_psi,
    liaison_parity,
    link_transform_e_to_n,
    link_transform_n_to_e,
    minimal_extravert,
    n_type_resolution,
    psi_equivalent,
    psi_roof,
)
from .scalars import BaseRing

__version__ = "0.1.0"

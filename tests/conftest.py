import pytest

from spacecurves.curve import validate_curve
from spacecurves.files import load_corpus
from spacecurves.gradedmod import GradedModule, ModuleHom, kernel_min_gens
from spacecurves.raoclass import _lift_columns
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


def ideal_module_by_cap(ideal):
    """Reference builder: the ideal as a graded module on the generators it
    is given, redundant ones included, with their syzygies taken up to the
    fixed cap 2 * (largest generator degree) + 4."""
    cap = max((g.degree() for g in ideal.gens), default=0) * 2 + 4
    return GradedModule(kernel_min_gens(ideal.generator_map(), cap))


def surjection_hom(C, res):
    """The N-type surjection N -> I_C as a ModuleHom onto the curve's ideal
    module, lifted through the curve's cover."""
    f0 = _lift_columns(
        C.ideal_cover(), res.surj, "surjection does not land in the ideal"
    )
    return ModuleHom(res.N, C.ideal_module(), f0)

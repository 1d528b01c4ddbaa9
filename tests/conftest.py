from heapq import heapify, heappop, heappush

import pytest
from hypothesis import assume, strategies as st

from spacecurves.curve import validate_curve
from spacecurves.errors import SpaceCurveError
from spacecurves.files import load_corpus
from spacecurves.gradedmod import GradedModule, ModuleHom, kernel_min_gens
from spacecurves.groebner import Ideal, ideal_intersect
from spacecurves.linalg import _sparse_rows
from spacecurves.polyring import Poly
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
def general_lines(draw, primes=(2, 3, 101, 32003), field_lines=(2, 3), dual_lines=(2, 2)):
    """A validated union of lines with random coefficients, each line the
    zero set of two linear forms, over F_p or A: field_lines and dual_lines
    bound the number of lines on each base."""
    p = draw(st.sampled_from(primes))
    dual = draw(st.booleans())
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
    except SpaceCurveError:
        assume(False)

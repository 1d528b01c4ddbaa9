import random
import re

import numpy as np
import pytest

from conftest import five_skew_lines_over_f2
from spacecurves import curve, gradedmod, groebner, linalg
from spacecurves.cli import main
from spacecurves.curve import (
    _rao_route_duality,
    _rao_route_torsion,
    is_flat_family,
    validate_curve,
)
from spacecurves.errors import (
    NotFlat,
    NotPureDimensionOrNotLCM,
    NotSaturated,
    OracleMismatch,
    Undecided,
    WrongDimension,
)
from spacecurves.files import load_corpus
from spacecurves.groebner import (
    Ideal,
    _candidate_forms,
    _nonzerodivisor,
    _saturation_certificate,
    ideal_intersect,
)
from spacecurves.polyring import Poly
from spacecurves.scalars import BaseRing


def I(base, *texts):
    return Ideal(base, [Poly.parse(t, base) for t in texts])


EXPECTED = {
    "line": (1, 0, {}),
    "conic": (2, 0, {}),
    "twisted-cubic": (3, 0, {}),
    "skew-lines": (2, -1, {0: 1}),
    "coplanar-lines": (2, 0, {}),
    "ci-2-2": (4, 1, {}),
    "quartic-from-skew-bilink": (4, 0, {1: 1}),
    "skew-pair-alt": (2, -1, {0: 1}),
}


def test_corpus_invariants(corpus_curves):
    for name, (d, g, rao) in EXPECTED.items():
        C = corpus_curves(name)
        assert C.degree_genus() == (d, g), name
        assert C.rao_module().dims() == rao, name


def test_rejects_unsaturated(K, A):
    # an ideal times m over F_32003, A and F_2: no certificate holds, and the
    # message lists the generators of the saturation
    lines = ["X + e*Z", "Y + 3*e*W"]
    skew = ["X*Z", "X*W", "Y*Z", "Y*W"]
    cases = [
        (I(K, "X^2", "X*Y", "X*Z", "X*W"), "['X']"),
        (I(A, *[f"({f})*{v}" for f in lines for v in "XYZW"]), "['X + e*Z', '10668*Y + e*W']"),
        (I(BaseRing(2, False), *[f"({f})*{v}" for f in skew for v in "XYZW"]),
         "['Y*W', 'X*W', 'Y*Z', 'X*Z']"),
    ]
    for ideal, gens in cases:
        with pytest.raises(NotSaturated) as info:
            validate_curve(ideal)
        assert str(info.value) == f"saturation adds generators {gens}"
        assert _saturation_certificate(ideal) is False


def _count_saturations(monkeypatch):
    calls = []
    saturate = groebner._saturate_by_variables

    def counted(ideal):
        calls.append(ideal)
        return saturate(ideal)

    monkeypatch.setattr(groebner, "_saturate_by_variables", counted)
    return calls


def test_general_position_quartic_validates_without_saturating(K, monkeypatch):
    # the rational quartic after a dense change of coordinates: no lead of its
    # basis has a W exponent, so W certifies saturation
    rng = random.Random(3)
    forms = {v: "(" + " + ".join(f"{rng.randrange(1, K.p)}*{u}" for u in "XYZW") + ")" for v in "XYZW"}
    gens = ["X^2*Z", "X^2*W", "X*Y*Z", "X*Y*W", "X*Z + Y*W"]
    ideal = I(K, *[re.sub("[XYZW]", lambda m: forms[m.group()], g) for g in gens])
    calls = _count_saturations(monkeypatch)
    C = validate_curve(ideal)
    assert C.degree_genus() == (4, 0)
    assert not calls
    assert _saturation_certificate(ideal) == "W"


def test_rejects_wrong_dimension(K):
    with pytest.raises(WrongDimension):
        validate_curve(I(K, "X"))  # a surface
    with pytest.raises(WrongDimension):
        validate_curve(I(K, "X", "Y", "Z"))  # a point


def test_rejects_line_union_point(K):
    line = I(K, "X", "Y")
    point = I(K, "X", "Z", "W")
    bad = ideal_intersect(line, point)
    with pytest.raises(NotPureDimensionOrNotLCM):
        validate_curve(bad)


def test_rao_of_two_skew_lines_is_k(corpus_curves):
    C = corpus_curves("skew-lines")
    rao = C.rao_module()
    assert rao.dims() == {0: 1}
    assert rao.total_dim() == 1
    assert rao.graded_dual().dims() == {0: 1}


@pytest.mark.parametrize("name", ["skew-lines", "skew-lines-dual"])
def test_rao_duality_route_reuses_the_ext3_of_validation(name, monkeypatch):
    C = validate_curve(load_corpus(name).to_ideal())
    calls = []
    for fn in ("kernel_min_gens", "subquotient_module"):
        real = getattr(gradedmod, fn)
        monkeypatch.setattr(gradedmod, fn, lambda *a, _f=real, _n=fn: calls.append(_n) or _f(*a))
    data = _rao_route_duality(C)
    assert not calls
    monkeypatch.undo()
    assert data.dims and data.dims == _rao_route_torsion(C).dims


@pytest.mark.parametrize("name", ["skew-lines", "skew-lines-dual"])
def test_validation_reads_ext3_off_the_last_dual_map(name, monkeypatch):
    # Ext^3(R/I) of a curve that is not ACM is the cokernel of the last dual
    # map: the only kernels validation takes are those of the resolutions of
    # R/I and, over A, of its fiber
    calls = []
    for fn in ("kernel_min_gens", "subquotient_module"):
        real = getattr(gradedmod, fn)
        monkeypatch.setattr(gradedmod, fn, lambda *a, _f=real, _n=fn: calls.append((_n, a[0])) or _f(*a))
    C = validate_curve(load_corpus(name).to_ideal())
    monkeypatch.undo()
    RI = C._ri()
    assert len(RI.resolution()) == 3 and gradedmod.ext_module(RI, 3).F0.rank
    maps = RI.resolution() + (RI.fiber().resolution() if RI.base.dual else [])
    assert calls and all(fn == "kernel_min_gens" and any(a is m for m in maps) for fn, a in calls)


def test_rao_route_retries_past_a_zero_divisor(K):
    # curves with a component in the plane of the first candidate form: the
    # torsion route must pass to a later candidate
    first = _candidate_forms(K)[0]
    plane = str(first)
    cases = [
        (I(K, plane, "X^2 + Y^2 + Z^2 + W^2"), (2, 0), {}),
        (ideal_intersect(I(K, plane, "Z"), I(K, "X", "Y")), (2, -1), {0: 1}),
    ]
    for ideal, dg, rao in cases:
        C = validate_curve(ideal)
        f = _nonzerodivisor(C.ideal)
        assert f != first and f.degree() == 1
        assert C.degree_genus() == dg
        assert _rao_route_torsion(C).dims == rao
        assert C.rao_module().dims() == rao


def test_rao_route_over_f2_where_every_linear_form_is_a_zero_divisor(monkeypatch):
    ideal = five_skew_lines_over_f2()
    # neither W nor the first candidate form certifies saturation: validation
    # falls back to the saturation by variables
    calls = _count_saturations(monkeypatch)
    C = validate_curve(ideal)
    assert calls == [ideal]
    assert _saturation_certificate(ideal) is False
    assert C.degree_genus() == (5, -4)
    assert _nonzerodivisor(C.ideal).degree() == 2
    assert _rao_route_torsion(C).dims == {0: 4, 1: 6, 2: 5, 3: 2}


def test_validate_over_f2_decides_finite_length_without_resolving_ext(monkeypatch):
    # Ext^3 of the five F_2 lines has a zero piece three degrees past its
    # generators, so validation resolves R/I and nothing else
    ideal = five_skew_lines_over_f2()
    resolved = []
    real = gradedmod._resolve
    monkeypatch.setattr(gradedmod, "_resolve", lambda phi, ideal=None: resolved.append((phi, ideal)) or real(phi, ideal))
    C = validate_curve(ideal)
    assert len(resolved) == 1 and resolved[0][0].target.twists == (0,)
    # and that one resolution reads the first map's ranks off the ideal
    assert resolved[0][1] is ideal
    E3 = gradedmod.ext_module(C._ri(), 3)
    assert E3._cache["reg"] == -4
    monkeypatch.undo()
    assert E3.regularity() == gradedmod.GradedModule(E3.presentation).regularity()


@pytest.mark.parametrize(
    "verdict, error, code", [("undecided", Undecided, 4), ("no", OracleMismatch, 2)]
)
def test_rao_cross_check_reports_an_exhausted_search_as_undecided(monkeypatch, capsys, verdict, error, code):
    # an iso search that runs out of trials is Undecided; only a "no" on two
    # routes that agree in dimensions is a bug
    monkeypatch.setattr(curve, "is_module_iso", lambda M, N: verdict)
    C = validate_curve(load_corpus("skew-lines").to_ideal())
    with pytest.raises(error):
        C.rao_module()
    assert main(["invariants", "corpus:skew-lines", "--json"]) == code
    assert not capsys.readouterr().out


def test_rao_module_of_double_lines_reaches_negative_degrees(K, A):
    # the double line (X^2, XY, Y^2, X*W^a - Y*Z^a) has genus -a, and its Rao
    # module starts in degree 1 - a: below degree 0 the torsion route needs
    # f^t with t*deg f >= a, so t = 1 is not enough
    cases = {
        (K, 2): {-1: 1, 0: 2, 1: 1},
        (K, 3): {-2: 1, -1: 2, 0: 3, 1: 2, 2: 1},
        (A, 3): {-2: 2, -1: 4, 0: 6, 1: 4, 2: 2},
    }
    for (base, a), rao in cases.items():
        C = validate_curve(I(base, "X^2", "X*Y", "Y^2", f"X*W^{a} - Y*Z^{a}"))
        assert C.degree_genus() == (2, -a)
        assert C.rao_module().dims() == rao


def test_regularity_and_hilbert(corpus_curves):
    tc = corpus_curves("twisted-cubic")
    assert tc.regularity() == 1
    assert tc.hilbert_function(4) == [1, 4, 7, 10, 13]
    sk = corpus_curves("skew-lines")
    assert sk.regularity() == 1


def test_dual_constant_families_validate(corpus_curves):
    for name in ("line-dual", "skew-lines-dual", "twisted-cubic-dual"):
        C = corpus_curves(name)
        assert C.base.dual
        fib = C.fiber()
        assert not fib.base.dual
        assert fib.degree_genus() == C.degree_genus()


def test_flatness_check_over_dual_numbers(A):
    flat = I(A, "X", "Y")
    assert is_flat_family(flat)
    assert is_flat_family(I(A, "X + e*Z", "Y^2 + 3*e*X*W"))
    # Tor_1 of R_A/I over A in degree 10: e*Y^10 lies in I, Y^10 not in I + (e)
    assert not is_flat_family(I(A, "X", "e*Y^10"))
    # Y*(X*Y + e*Z^2) - X*Y^2 = e*Y*Z^2, and Y*Z^2 is not in the fiber ideal
    assert not is_flat_family(I(A, "X^2", "X*Y + e*Z^2", "Y^2"))
    # e*(Z) contributes a non-free piece: rejected
    with pytest.raises((NotFlat, NotSaturated)):
        validate_curve(I(A, "X", "Y", "e*Z"))


def test_perturbed_family_validates(A):
    # a coordinate change X -> X, Y -> Y + e*X applied to the twisted cubic
    C = validate_curve(
        I(
            A,
            "X*Z - Y^2 - 2*e*X*Y",
            "Y*W + e*X*W - Z^2",
            "X*W - Y*Z - e*X*Z",
        )
    )
    assert C.degree_genus() == (3, 0)
    assert C.fiber().rao_module().is_zero()


def test_curves_in_general_position(K):
    # one seeded dense invertible change of coordinates X_i -> sum_j M_ij X_j;
    # validation must not depend on the curve sitting on the coordinate axes
    rng = random.Random(5)
    while True:
        M = [[rng.randrange(1, K.p) for _ in range(4)] for _ in range(4)]
        if linalg.rank(np.array(M, dtype=np.int64), K.p) == 4:
            break
    xs = [Poly.variable(K, j) for j in range(4)]
    forms = [sum((Poly.constant(K, c) * x for c, x in zip(row, xs)), Poly.zero(K)) for row in M]

    def moved(*texts):
        gens = []
        for t in texts:
            g = Poly.zero(K)
            for e, (a, _) in Poly.parse(t, K).terms.items():
                term = Poly.constant(K, a)
                for form, k in zip(forms, e):
                    term = term * form**k
                g = g + term
            gens.append(g)
        return Ideal(K, gens)

    cases = [
        (("X", "Y"), (1, 0), {}),
        (("X*Z - Y^2", "Y*W - Z^2", "X*W - Y*Z"), (3, 0), {}),
        # the smooth rational quartic (s^4 : s^3 t : s t^3 : t^4)
        (("X*W - Y*Z", "Y^3 - X^2*Z", "Z^3 - Y*W^2", "X*Z^2 - Y^2*W"), (4, 0), {1: 1}),
    ]
    for texts, dg, rao in cases:
        C = validate_curve(moved(*texts))
        assert C.degree_genus() == dg
        assert C.rao_module().dims() == rao

from math import comb

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from conftest import general_lines
from spacecurves import gradedmod, groebner, liaison
from spacecurves.curve import validate_curve
from spacecurves.errors import (
    NotContained,
    NotCoprime,
    NotRegularSequence,
    OracleMismatch,
    ResidualEmpty,
    Undecided,
    WrongDegree,
)
from spacecurves.files import corpus_names, load_corpus
from spacecurves.gradedmod import GradedModule, is_module_iso
from spacecurves.groebner import Ideal, _colon, _saturation_certificate
from spacecurves.liaison import (
    CompleteIntersection,
    check_elementary_biliaison,
    connect_by_biliaisons,
    ideal_mod_surface,
    link,
    trivial_biliaison,
)
from spacecurves.polyring import Poly
from spacecurves.raoclass import biliaison_equivalent


def P(base, t):
    return Poly.parse(t, base)


def I(base, *texts):
    return Ideal(base, [Poly.parse(t, base) for t in texts])


def test_complete_intersection_validates(K):
    ci = CompleteIntersection(P(K, "X*Z"), P(K, "Y*W"))
    assert (ci.s, ci.t) == (2, 2)
    with pytest.raises(NotRegularSequence):
        CompleteIntersection(P(K, "X*Y"), P(K, "X*Z"))


def test_link_twisted_cubic_to_line(K, corpus_curves):
    tc = corpus_curves("twisted-cubic")
    Cp = link(tc, P(K, "X*Z - Y^2"), P(K, "Y*W - Z^2"))
    assert Cp.ideal == I(K, "Y", "Z")
    assert Cp.degree_genus() == (1, 0)
    # linking again returns the twisted cubic
    back = link(Cp, P(K, "X*Z - Y^2"), P(K, "Y*W - Z^2"))
    assert back.ideal == tc.ideal


def test_link_requires_containment(K, corpus_curves):
    tc = corpus_curves("twisted-cubic")
    with pytest.raises(NotContained):
        link(tc, P(K, "X^2"), P(K, "Y*W - Z^2"))


def test_link_self_residual_empty(K, corpus_curves):
    ci = corpus_curves("ci-2-2")
    with pytest.raises(ResidualEmpty):
        link(ci, P(K, "X*Z"), P(K, "Y*W"))


def test_link_degree_additivity(K, corpus_curves):
    sk = corpus_curves("skew-lines")
    Cp = link(sk, P(K, "X*Z"), P(K, "Y*W"))
    d, _ = sk.degree_genus()
    dp, _ = Cp.degree_genus()
    assert d + dp == 4


def test_trivial_biliaison_shifts_rao(K, corpus_curves):
    sk = corpus_curves("skew-lines")
    Q = P(K, "X*Z + Y*W")
    Cp, step = trivial_biliaison(sk, Q, P(K, "X"), 1)
    assert Cp.rao_module().dims() == {1: 1}
    assert step.h == 1
    assert step.verify()
    shifted = sk.rao_module().shift(-1)
    assert shifted.dims() == Cp.rao_module().dims()
    assert (
        is_module_iso(shifted.to_module(), Cp.rao_module().to_module()) == "yes"
    )


def test_trivial_biliaison_rejects_bad_input(K, corpus_curves):
    sk = corpus_curves("skew-lines")
    with pytest.raises(NotContained):
        trivial_biliaison(sk, P(K, "X^2"), P(K, "X"), 1)
    with pytest.raises(NotCoprime):
        # H = X*Z shares the component X*Z of... it divides Q exactly
        trivial_biliaison(sk, P(K, "X*Z"), P(K, "Z"), 1)
    with pytest.raises(WrongDegree):
        trivial_biliaison(sk, P(K, "X*Z + Y*W"), P(K, "X"), 2)


def test_ideal_mod_surface_needs_a_surface_through_the_curve(K, corpus_curves):
    sk = corpus_curves("skew-lines")
    M = ideal_mod_surface(sk, P(K, "X*Z + Y*W"))
    for n in range(0, 5):
        # (Q)_n is a copy of R_{n-2}
        assert M.piece_dim(n) == sk.ideal.piece_dim(n) - comb(n + 1, 3)
    with pytest.raises(NotContained):
        ideal_mod_surface(sk, P(K, "X^2 + Y*W"))


def test_elementary_biliaison_decision(K, corpus_curves):
    line = corpus_curves("line")
    tc = corpus_curves("twisted-cubic")
    Q = P(K, "X*Z - Y^2")
    v = check_elementary_biliaison(line, tc, Q, 1)
    assert v.is_yes and v.h == 1
    v0 = check_elementary_biliaison(line, line, Q, 0)
    assert v0.is_yes
    # degree obstruction
    bad = check_elementary_biliaison(line, tc, Q, 2)
    assert bad.kind == "no"


def test_connect_search_skips_only_bad_random_forms(corpus_curves, monkeypatch):
    # force the two-step search, where every trivial biliaison raises
    line = corpus_curves("line")
    tc = corpus_curves("twisted-cubic")
    monkeypatch.setattr(liaison, "_single_step", lambda *a, **k: None)

    def raising(exc):
        def fake(*a, **k):
            raise exc("injected")

        return fake

    # a random H sharing a component with Q is skipped; the search ends
    # undecided
    monkeypatch.setattr(liaison, "trivial_biliaison", raising(NotCoprime))
    with pytest.raises(Undecided):
        connect_by_biliaisons(line, tc)
    # a failed self-check is a bug and must surface
    monkeypatch.setattr(liaison, "trivial_biliaison", raising(OracleMismatch))
    with pytest.raises(OracleMismatch):
        connect_by_biliaisons(line, tc)


def test_certified_curves_take_no_colon(monkeypatch):
    # nonzerodivisors, regular sequences, coprimality and flatness are read
    # off Hilbert series: with the colon patched to fail, validation, the Rao
    # module, complete intersections and trivial biliaisons still decide
    # every fixture that W or the first candidate form certifies, and their
    # answers are the colon's
    cases = []
    for name in corpus_names():
        ideal = load_corpus(name).to_ideal()
        if not _saturation_certificate(Ideal(ideal.base, ideal.gens)):
            continue
        k = ideal.base.field()

        def regular(F, G):
            Ff = Ideal(k, [F.fiber()])
            return _colon(Ff, Ideal(k, [G.fiber()])) == Ff

        pairs = [(F, G, regular(F, G)) for F in ideal.gens for G in ideal.gens if F is not G]
        forms = [(H, regular(ideal.gens[0], H)) for H in (P(ideal.base, "X"), P(ideal.base, "Y + W"))]
        cases.append((name, ideal, pairs, forms))
    assert len(cases) == len(corpus_names())

    def fail(*args):
        raise AssertionError("colon taken")

    monkeypatch.setattr(groebner, "_colon", fail)
    for name, ideal, pairs, forms in cases:
        C = validate_curve(ideal)
        C.rao_module()
        for F, G, regular in pairs:
            if regular:
                CompleteIntersection(F, G)
            else:
                with pytest.raises(NotRegularSequence):
                    CompleteIntersection(F, G)
        for H, coprime in forms:
            if coprime:
                trivial_biliaison(C, ideal.gens[0], H, 1)
            else:
                with pytest.raises(NotCoprime):
                    trivial_biliaison(C, ideal.gens[0], H, 1)
        assert any(regular for _, _, regular in pairs), name
    assert not all(regular for _, _, pairs, _ in cases for _, _, regular in pairs)


# -- the biliaison comparison reads what is already proved ----------------------


def _skew_lines_and_a_height_one_biliaison(corpus_curves):
    C = corpus_curves("skew-lines")
    K = C.base
    Cp, _ = trivial_biliaison(C, P(K, "X*Z + Y*W"), P(K, "X"), 1)
    return C, Cp


def test_compare_ranks_no_piece_above_the_top_generator_plus_one(corpus_curves, monkeypatch):
    # the stable N is locally free: a witness point says "infinite length"
    # before the scan ranks its pieces g .. g + 7
    C, Cp = _skew_lines_and_a_height_one_biliaison(corpus_curves)
    seen = []
    piece_dim = GradedModule.piece_dim

    def spy(M, n):
        seen.append(n - max(-t for t in M.F0.twists))
        return piece_dim(M, n)

    monkeypatch.setattr(GradedModule, "piece_dim", spy)
    v = biliaison_equivalent(C, Cp)
    assert (v.kind, v.h) == ("yes", 1)
    assert seen and max(seen) <= 1


def test_padded_modules_and_surface_quotients_are_never_resolved(corpus_curves, monkeypatch):
    # once both curves are validated, the comparison and the elementary
    # biliaison check read every K-polynomial off a cached resolution or
    # carry it over from one
    C, Cp = _skew_lines_and_a_height_one_biliaison(corpus_curves)

    def fail(*args):
        raise AssertionError("a module was resolved")

    monkeypatch.setattr(gradedmod, "_resolve", fail)
    v = biliaison_equivalent(C, Cp)
    assert (v.kind, v.h) == ("yes", 1)
    assert biliaison_equivalent(Cp, C).h == -1
    assert check_elementary_biliaison(C, Cp, P(C.base, "X*Z + Y*W"), 1).is_yes


@st.composite
def _lines_and_a_height_one_biliaison(draw):
    """A union of 2 or 3 general lines over F_p or A, p = 101 or 32003, and
    its trivial biliaison of height 1 on the lowest-degree generator, by a
    random linear form."""
    C = draw(general_lines(primes=(101, 32003), field_lines=(2, 3), dual_lines=(2, 3)))
    base = C.base
    Q = min(C.ideal.gens, key=lambda f: f.degree())
    coef = st.integers(1, base.p - 1)
    H = Poly(base, {tuple(int(i == v) for i in range(4)): (draw(coef), 0) for v in range(4)})
    try:
        Cp, _ = trivial_biliaison(C, Q, H, 1)
    except NotCoprime:
        assume(False)
    return C, Cp


@settings(max_examples=8, deadline=None, database=None)
@given(_lines_and_a_height_one_biliaison())
@seed(53)
def test_generated_curves_are_biliaison_equivalent_to_their_height_one_biliaisons(case):
    # reflexive with shift 0, and symmetric with the shift changing sign; an
    # OracleMismatch between the N-side and the Rao side fails the test
    C, Cp = case
    for X, Y, h in ((C, C, 0), (C, Cp, 1), (Cp, C, -1)):
        v = biliaison_equivalent(X, Y)
        assert (v.kind, v.h) == ("yes", h)

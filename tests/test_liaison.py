from math import comb

import pytest

from spacecurves import groebner, liaison
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
from spacecurves.gradedmod import is_module_iso
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

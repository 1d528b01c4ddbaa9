import random
from math import comb

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from conftest import colon_ref, general_lines
from spacecurves import gradedmod, groebner, liaison, raoclass
from spacecurves.cli import main
from spacecurves.curve import validate_curve
from spacecurves.errors import (
    CertificationError,
    NotContained,
    NotCoprime,
    NotRegularSequence,
    OracleMismatch,
    ResidualEmpty,
    SpaceCurveError,
    Undecided,
    WrongDegree,
)
from spacecurves.files import corpus_names, load_corpus
from spacecurves.gradedmod import GradedMap, GradedModule, is_module_iso
from spacecurves.groebner import Ideal, _saturation_certificate
from spacecurves.liaison import (
    CompleteIntersection,
    check_elementary_biliaison,
    connect_by_biliaisons,
    ideal_mod_surface,
    link,
    trivial_biliaison,
)
from spacecurves.polyring import Poly, random_form
from spacecurves.raoclass import biliaison_equivalent
from spacecurves.scalars import BaseRing


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
    # off Hilbert series: with the saturation fallback patched to fail,
    # validation, the Rao module, complete intersections and trivial
    # biliaisons still decide every fixture that W or the first candidate
    # form certifies, and their answers are the colon oracle's
    cases = []
    for name in corpus_names():
        ideal = load_corpus(name).to_ideal()
        if not _saturation_certificate(Ideal(ideal.base, ideal.gens)):
            continue
        k = ideal.base.field()

        def regular(F, G):
            Ff = Ideal(k, [F.fiber()])
            return colon_ref(Ff, Ideal(k, [G.fiber()])) == Ff

        pairs = [(F, G, regular(F, G)) for F in ideal.gens for G in ideal.gens if F is not G]
        forms = [(H, regular(ideal.gens[0], H)) for H in (P(ideal.base, "X"), P(ideal.base, "Y + W"))]
        cases.append((name, ideal, pairs, forms))
    assert len(cases) == len(corpus_names())

    def fail(*args):
        raise AssertionError("saturation computed")

    monkeypatch.setattr(groebner, "_saturate_by_variables", fail)
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


def test_stable_compare_over_a_resolves_no_padded_or_shifted_module(corpus_curves, monkeypatch):
    # over A the shifted and padded stable N's carry their regularity, so
    # the iso search's piece window resolves none of their fibers
    C = corpus_curves("skew-lines-dual")
    Cp, _ = trivial_biliaison(C, P(C.base, "X*Z + Y*W"), P(C.base, "X"), 1)
    N, Np = raoclass._stable_n(C), raoclass._stable_n(Cp)

    def fail(*args):
        raise AssertionError("a module was resolved")

    monkeypatch.setattr(gradedmod, "_resolve", fail)
    for X, Y, h in ((N, N, 0), (N, Np, 1), (Np, N, -1)):
        v = raoclass._stable_compare(X, Y, True, 32, 0)
        assert (v.kind, v.h) == ("yes", h)


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


# -- the residual from one lift of the resolution ------------------------------


def _combination(C, d, rng):
    """A form of degree d in the curve's ideal: its generators of degree at
    most d times random forms of the complementary degrees."""
    out = Poly.zero(C.base)
    for g in C.ideal.gens:
        if g.degree() <= d:
            out = out + g * random_form(C.base, d - g.degree(), rng)
    return out


@st.composite
def _seeded_link(draw):
    """(C, F, G): a fixture read at p = 101 or 32003, or a union of 2-4
    general lines over F_p (2 over A) at those primes, and a complete
    intersection through it from random combinations of its generators, of
    degrees (s, s) with s the degree of its second generator by degree, or
    (s, s + 1) when the curve is itself a complete intersection."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(corpus_names()))
        cf = load_corpus(name)
        base = BaseRing(draw(st.sampled_from((101, 32003))), cf.base.dual)
        try:
            C = validate_curve(Ideal.parse(base, [str(g) for g in cf.to_ideal().gens]))
        except SpaceCurveError:
            assume(False)
    else:
        C = draw(general_lines(primes=(101, 32003), field_lines=(2, 4), dual_lines=(2, 2)))
    rng = random.Random(draw(st.integers(0, 2**16)))
    s = sorted(g.degree() for g in C.ideal.gens)[1]
    # a complete intersection curve lies in no other complete intersection
    # of degrees (s, s)
    t = s if len(C.ideal.gens) > 2 else s + 1
    F, G = _combination(C, s, rng), _combination(C, t, rng)
    try:
        CompleteIntersection(F, G)
    except NotRegularSequence:
        assume(False)
    return C, F, G


@settings(max_examples=10, deadline=None, database=None)
@given(_seeded_link())
@seed(61)
def test_link_is_the_colon_generator_for_generator_and_links_back(case):
    # the residual equals the colon oracle's, on its reduced basis over F_p
    # and its minimal generators over A, and linking it again in the same
    # complete intersection returns the curve's ideal; the link has genus
    # g' = g + (s + t - 4)(d' - d)/2 and Rao module M_C(s + t - 4 - n)^*
    C, F, G = case
    ref = colon_ref(Ideal(C.base, [F, G]), C.ideal)
    if ref.is_unit_ideal():
        with pytest.raises(ResidualEmpty):
            link(C, F, G)
        return
    if C.base.dual:
        ref = groebner._with_min_generators(ref, groebner._kernel_form)
    Cp = link(C, F, G)
    assert [str(g) for g in Cp.ideal.gens] == [str(g) for g in ref.gens]
    assert link(Cp, F, G).ideal == C.ideal
    (d, g), (dp, gp) = C.degree_genus(), Cp.degree_genus()
    e = F.degree() + G.degree() - 4
    assert 2 * (gp - g) == e * (dp - d)
    assert Cp.rao_module().dims() == {e - n: v for n, v in C.rao_module().dims().items()}


@pytest.mark.parametrize(
    "name, F, G",
    [
        ("twisted-cubic", "X*Z - Y^2", "Y*W - Z^2"),
        ("twisted-cubic-dual", "X*Z - Y^2", "Y*W - Z^2"),
        ("line", "X*Z", "Y*W"),
        ("line-dual", "X^3", "Y^3"),
        ("conic", "X*W", "Y^2 - Z*W"),
    ],
)
def test_a_residual_missing_a_cycle_is_a_typed_error(name, F, G, corpus_curves, monkeypatch):
    # on an ACM curve every cycle gives a minimal generator of the residual
    # modulo (F, G): without the last one the certificate fails
    C = corpus_curves(name)
    F, G = P(C.base, F), P(C.base, G)
    link(C, F, G)
    cover = gradedmod.cycles_cover

    def without_the_last(M, i):
        K = cover(M, i)
        n = K.source.rank - 1
        return GradedMap.from_columns(K.target, [K.column(j) for j in range(n)], [-t for t in K.source.twists[:n]])

    monkeypatch.setattr(liaison, "cycles_cover", without_the_last)
    with pytest.raises(SpaceCurveError):
        link(C, F, G)


@pytest.mark.parametrize(
    "name, F, G",
    [("twisted-cubic", "X*Z - Y^2", "Y*W - Z^2"), ("twisted-cubic-dual", "X*Z - Y^2", "Y*W - Z^2"), ("skew-lines", "X*Z", "Y*W")],
)
def test_the_residual_certificate_reads_the_reduced_generators_but_f_and_g(name, F, G, corpus_curves, monkeypatch):
    # a reduced generator outside D : I is caught by the products, and no
    # product with F or G is normal-formed
    C = corpus_curves(name)
    F, G = P(C.base, F), P(C.base, G)
    products = []
    contains = Ideal.contains

    def recording(ideal, f):
        if ideal.gens == (F, G):
            products.append(f)
        return contains(ideal, f)

    monkeypatch.setattr(Ideal, "contains", recording)
    Cp = link(C, F, G)
    assert products and not any(F * g in products or G * g in products for g in C.ideal.gens)
    J = groebner.reduced_generators(Ideal(C.base, [F, G, *Cp.ideal.gens]))
    assert len(products) == len(C.ideal.gens) * sum(h not in (F, G) for h in J.gens)
    reduced = groebner.reduced_generators
    monkeypatch.setattr(liaison, "reduced_generators", lambda J: Ideal(J.base, [*reduced(J).gens, P(J.base, "X + Y + Z + W")]))
    with pytest.raises(CertificationError, match="does not multiply the curve"):
        link(C, F, G)


def test_link_failures_keep_their_exit_codes(capsys, monkeypatch):
    cases = [
        (["link", "corpus:twisted-cubic", "X^2", "Y*W - Z^2"], "NotContained: X^2 does not lie in the curve ideal\n"),
        (["link", "corpus:ci-2-2", "X*Z", "Y*W"], "ResidualEmpty: the curve equals the complete intersection\n"),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        assert capsys.readouterr().err == message
    # a residual of the wrong degree is a self-check that fails
    conic = validate_curve(load_corpus("conic").to_ideal())
    monkeypatch.setattr(liaison, "validate_curve", lambda J: conic)
    assert main(["link", "corpus:twisted-cubic", "X*Z - Y^2", "Y*W - Z^2"]) == 2
    assert capsys.readouterr().err == "OracleMismatch: degree additivity fails: 3 + 2 != 2 * 2\n"

"""End-to-end acceptance checks for the liaison/biliaison toolkit.

Each test exercises one advertised guarantee of the library on the shipped
fixture corpus.
"""

import time

import pytest

from conftest import (
    ACM_NAMES,
    FIBER_NAMES,
    RAO_K_NAMES,
    ideal_module_by_cap,
    surjection_hom,
)
from spacecurves.curve import validate_curve
from spacecurves.gradedmod import (
    cohomology_table,
    is_module_iso,
    saturation_dims,
    torsion_module_data,
)
from spacecurves.groebner import Ideal
from spacecurves.liaison import (
    check_elementary_biliaison,
    connect_by_biliaisons,
    link,
    replay_chain,
    trivial_biliaison,
)
from spacecurves.polyring import Poly
from spacecurves.raoclass import (
    biliaison_equivalent,
    e_type_resolution,
    epfn_sequence,
    extravertize,
    is_extraverted,
    is_psi,
    link_transform_e_to_n,
    link_transform_n_to_e,
    n_type_resolution,
    psi_equivalent,
)

# (curve, F, G) with F, G a regular sequence inside the curve's ideal
LINK_PAIRS = [
    ("line", "X", "Y*W"),
    ("line", "X", "Y^2"),
    ("line", "X*W", "Y*Z"),
    ("conic", "X*W", "Y^2 - Z*W"),
    ("twisted-cubic", "X*Z - Y^2", "Y*W - Z^2"),
    ("twisted-cubic", "X*Z - Y^2", "X*W - Y*Z"),
    ("skew-lines", "X*Z", "Y*W"),
    ("skew-lines", "X*W", "Y*Z"),
    ("coplanar-lines", "X", "Y*Z*W"),
    ("ci-2-2", "X*Z", "Y*W^2"),
    ("quartic-from-skew-bilink", "X*Z + Y*W", "X^2*Z"),
    ("skew-pair-alt", "X*Y", "W*Z"),
]


def _pp(base, t):
    return Poly.parse(t, base)


_link_cache = {}


def _links(K, corpus_curves):
    if not _link_cache:
        for name, ftext, gtext in LINK_PAIRS:
            C = corpus_curves(name)
            F, G = _pp(K, ftext), _pp(K, gtext)
            t0 = time.monotonic()
            C2 = link(C, F, G)
            t1 = time.monotonic()
            C3 = link(C2, F, G)
            t2 = time.monotonic()
            _link_cache[(name, ftext, gtext)] = (
                C, C2, C3, F, G, t1 - t0, t2 - t1
            )
    return _link_cache


def test_link_involution(K, corpus_curves):
    # double linkage is the identity on saturated ideals, and each link
    # stays fast
    assert len(LINK_PAIRS) >= 10
    for key, (C, C2, C3, F, G, dt1, dt2) in _links(K, corpus_curves).items():
        assert dt1 < 5.0 and dt2 < 5.0, (key, dt1, dt2)
        assert C3.ideal == C.ideal, key


def test_link_degree_additivity(K, corpus_curves):
    for key, (C, C2, C3, F, G, _, _) in _links(K, corpus_curves).items():
        d, _g = C.degree_genus()
        d2, _g = C2.degree_genus()
        assert d + d2 == F.degree() * G.degree(), key


def _dual_up_to_shift(ra, rb, shifts=range(-8, 9)):
    """ra isomorphic to the graded dual of rb shifted by some h in shifts?"""
    dual = rb.graded_dual()
    da, dd = ra.dims(), dual.dims()
    if not da and not dd:
        return True
    for h in shifts:
        if {n - h: v for n, v in dd.items()} == da:
            if (
                is_module_iso(ra.to_module(), dual.shift(h).to_module())
                == "yes"
            ):
                return True
    return False


def test_rao_duality_under_one_liaison(K, corpus_curves):
    sk = corpus_curves("skew-lines")
    linked = link(sk, _pp(K, "X*Z"), _pp(K, "Y*W"))
    assert linked.ideal == corpus_curves("skew-pair-alt").ideal
    assert _dual_up_to_shift(linked.rao_module(), sk.rao_module())
    # and through a different complete intersection
    linked2 = link(sk, _pp(K, "X*W"), _pp(K, "Y*Z"))
    assert _dual_up_to_shift(linked2.rao_module(), sk.rao_module())


def _assert_dual_twice_is_the_identity(data):
    back = data.graded_dual().graded_dual()
    assert back.dims == data.dims
    assert back.actions.keys() == data.actions.keys()
    for key, mat in data.actions.items():
        assert back.actions[key].shape == mat.shape, key
        assert (back.actions[key] == mat).all(), key


@pytest.mark.parametrize("name", ["skew-lines-dual", "quartic-from-skew-bilink-dual"])
def test_graded_dual_twice_is_the_identity_on_rao_modules(name, corpus_curves):
    data = corpus_curves(name).rao_module().data
    assert 4 in {v for _, v in data.actions}
    _assert_dual_twice_is_the_identity(data)


def test_dual_link_of_degree_seven(A, corpus_curves):
    # a (3, 3) link of a first-order family of skew lines puts the dual
    # colon and saturation and both Rao routes on a curve past the fixtures
    sk = corpus_curves("skew-lines-dual")
    F, G = _pp(A, "X*Z*W + Y*Z^2"), _pp(A, "X*W^2 + Y^2*Z")
    linked = link(sk, F, G)
    assert linked.degree_genus() == (7, 4)
    rao = linked.rao_module()
    assert rao.dims() == {2: 2}
    # e acts on the Rao module as the action v = 4, and not as zero
    assert any(m.any() for (_, v), m in rao.data.actions.items() if v == 4)
    _assert_dual_twice_is_the_identity(rao.data)
    # M_C'(n) = M_C(s + t - 4 - n)^*
    assert _dual_up_to_shift(rao, sk.rao_module(), [4 - F.degree() - G.degree()])
    assert link(linked, F, G).ideal == sk.ideal


def test_trivial_biliaison_shifts_rao_module(K, corpus_curves):
    sk = corpus_curves("skew-lines")
    Q = _pp(K, "X*Z + Y*W")
    for h, htext in [(0, "1"), (1, "X"), (2, "X^2")]:
        Cp, _ = trivial_biliaison(sk, Q, _pp(K, htext), h)
        want = sk.rao_module().shift(-h)
        assert Cp.rao_module().dims() == want.dims(), h
        assert (
            is_module_iso(Cp.rao_module().to_module(), want.to_module())
            == "yes"
        ), h


def test_extravertization_contract(corpus_curves):
    for name in FIBER_NAMES:
        C = corpus_curves(name)
        res = n_type_resolution(C)  # certifies 0 -> P -> N -> I_C -> 0
        assert is_extraverted(res.N), name
        for n in range(0, C.regularity() + 4):
            assert res.N.piece_dim(n) == res.P.piece_dim(n) + C.ideal.piece_dim(n), name
        if name in ACM_NAMES:
            # for arithmetically Cohen-Macaulay curves the representative
            # is the free cover of the minimal resolution
            core, stripped = res.N.strip_free_summands()
            assert core.F0.rank == 0, name
            Im = C.ideal_module().minimal_presentation()
            assert sorted(stripped) == sorted(Im.F0.twists), name


def test_ntype_through_different_covers_psi_equivalent(K, corpus_curves):
    X = _pp(K, "X")
    for name in FIBER_NAMES:
        C = corpus_curves(name)
        N1 = n_type_resolution(C).N
        gens = list(C.ideal.gens)
        redundant = Ideal(K, list(reversed(gens)) + [X * gens[0]])
        N2 = extravertize(ideal_module_by_cap(redundant)).N
        v = psi_equivalent(N1, N2, allow_shift=False)
        assert v.kind == "yes" and (v.h in (0, None)), name


def test_link_transforms_match_linkage(K, corpus_curves):
    tc = corpus_curves("twisted-cubic")
    F, G = _pp(K, "X*Z - Y^2"), _pp(K, "Y*W - Z^2")
    target = link(tc, F, G).ideal
    eres = link_transform_n_to_e(tc, F, G)
    assert eres.ideal == target
    line = validate_curve(target)
    nres = link_transform_e_to_n(line, F, G)
    assert nres.ideal == tc.ideal


def test_epfn_sequence_on_corpus(corpus_curves):
    for name in FIBER_NAMES:
        C = corpus_curves(name)
        assert epfn_sequence(n_type_resolution(C), e_type_resolution(C)), name


def test_classification_agreement(corpus_curves):
    # biliaison_equivalent runs the stable-N route and the Rao-module route
    # and raises OracleMismatch if they ever disagree
    def cls(name):
        return 0 if name in ACM_NAMES else 1

    checked = 0
    for i, a in enumerate(FIBER_NAMES):
        for b in FIBER_NAMES[i + 1 :]:
            v = biliaison_equivalent(corpus_curves(a), corpus_curves(b))
            want = "yes" if cls(a) == cls(b) else "no"
            assert v.kind == want, (a, b, v.kind, v.reason)
            checked += 1
    assert checked == 28
    assert biliaison_equivalent(
        corpus_curves("line"), corpus_curves("twisted-cubic")
    ).h == 0
    v = biliaison_equivalent(
        corpus_curves("skew-lines"),
        corpus_curves("quartic-from-skew-bilink"),
    )
    assert v.kind == "yes" and v.h == 1


def test_linkage_commutes_with_fibers(A, K, corpus_curves):
    # constant family
    tcA = corpus_curves("twisted-cubic-dual")
    F, G = _pp(A, "X*Z - Y^2"), _pp(A, "Y*W - Z^2")
    linked = link(tcA, F, G)
    fib = link(corpus_curves("twisted-cubic"), F.fiber(), G.fiber())
    assert linked.fiber().ideal == fib.ideal
    # a flat family obtained by an infinitesimal coordinate change
    pert = validate_curve(
        Ideal(
            A,
            [
                _pp(A, "X*Z - Y^2 - 2*e*X*Y"),
                _pp(A, "Y*W + e*X*W - Z^2"),
                _pp(A, "X*W - Y*Z - e*X*Z"),
            ],
        )
    )
    Fp, Gp = pert.ideal.gens[0], pert.ideal.gens[1]
    linked_p = link(pert, Fp, Gp)
    fib_p = link(pert.fiber(), Fp.fiber(), Gp.fiber())
    assert linked_p.fiber().ideal == fib_p.ideal
    # the N-type surjection of a dual-number family is a pseudo-isomorphism
    # for both test modules (checked degreewise over A and over k)
    assert is_psi(surjection_hom(tcA, n_type_resolution(tcA)))


def test_constructive_chain_line_to_twisted_cubic(corpus_curves):
    line = corpus_curves("line")
    tc = corpus_curves("twisted-cubic")
    t0 = time.monotonic()
    chain = connect_by_biliaisons(line, tc)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, elapsed
    assert chain
    for step in chain:
        assert step.verify(), step
        if step.h >= 0:
            v = check_elementary_biliaison(
                validate_curve(step.source),
                validate_curve(step.target),
                step.Q,
                step.h,
            )
        else:
            v = check_elementary_biliaison(
                validate_curve(step.target),
                validate_curve(step.source),
                step.Q,
                -step.h,
            )
        assert v.is_yes, step
    assert replay_chain(line.ideal, chain) == tc.ideal


def test_cohomology_oracle_equivalence(corpus_curves):
    # the Ext/duality route must match degreewise saturation data:
    # h^0 against the saturated ideal's pieces, h^1 against the Rao module.
    # A third route computes h^0 as stabilized Hom(m^t, I)_n, and a
    # saturated ideal has no m-torsion
    for name in FIBER_NAMES:
        C = corpus_curves(name)
        reg = C.regularity()
        table = cohomology_table(C.ideal_module(), "k", -2, reg + 2)
        sat = saturation_dims(C.ideal_module(), -2, reg + 2)
        assert not torsion_module_data(C.ideal_module(), reg + 1).dims, name
        rao = C.rao_module().dims()
        for n in range(-2, reg + 3):
            assert table[0].get(n, 0) == C.ideal.piece_dim(n), (name, n)
            assert sat[n] == C.ideal.piece_dim(n), (name, n)
            assert table[1].get(n, 0) == rao.get(n, 0), (name, n)

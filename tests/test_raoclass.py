import pytest

from conftest import surjection_hom
from spacecurves.curve import validate_curve
from spacecurves.files import load_corpus
from spacecurves.gradedmod import (
    GradedMap,
    GradedModule,
    ModuleHom,
    ext_module,
    kernel_min_gens,
    subquotient_module,
)
from spacecurves.groebner import Ideal
from spacecurves.polyring import Poly
from spacecurves.raoclass import (
    biliaison_equivalent,
    direct_sum,
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


def test_ntype_twists(corpus_curves):
    cases = {
        "line": ((-2,), (-1, -1)),
        "twisted-cubic": ((-3, -3), (-2, -2, -2)),
        "skew-lines": ((-2, -2), (-2, -2, -2, -2, -2, -2)),
    }
    for name, want in cases.items():
        res = n_type_resolution(corpus_curves(name))
        assert res.twists() == want, name
        assert is_extraverted(res.N), name


def test_resolutions_reuse_the_validated_resolution_of_r_mod_i(monkeypatch):
    # after validation, both resolutions read the ideal module, its cover and
    # E off the resolution of R/I that validation certified: no R/I is built
    # again and no syzygies of the ideal's generators are taken
    names = ["twisted-cubic", "skew-lines", "line-dual", "quartic-from-skew-bilink"]
    resolves = (n_type_resolution, e_type_resolution)
    cases = [
        (resolve, validate_curve(load_corpus(name).to_ideal()))
        for name in names
        for resolve in resolves
    ]
    calls = []
    quotient, generator_map = GradedModule.quotient_by_ideal, Ideal.generator_map
    monkeypatch.setattr(
        GradedModule,
        "quotient_by_ideal",
        staticmethod(lambda I: calls.append("R/I") or quotient(I)),
    )
    monkeypatch.setattr(
        Ideal, "generator_map", lambda I: calls.append("gens") or generator_map(I)
    )
    for resolve, C in cases:
        resolve(C)
        assert not calls, (resolve.__name__, C)


@pytest.mark.parametrize(
    "name", ["twisted-cubic", "skew-lines", "skew-lines-dual", "quartic-from-skew-bilink"]
)
def test_ideal_module_is_the_tail_of_the_resolution_of_r_mod_i(name, corpus_curves):
    C = corpus_curves(name)
    res = C._ri().resolution()
    assert C.ideal_cover() is res[0]
    IM = C.ideal_module()
    assert IM is C.ideal_module()
    assert [id(m) for m in IM.resolution()] == [id(m) for m in res[1:]]
    E = e_type_resolution(C).E
    if len(res) > 2:
        assert [id(m) for m in E.resolution()] == [id(m) for m in res[2:]]
    else:
        # an ACM curve: past the projective dimension E is free
        assert not E.F1.rank and E.F0.twists == res[1].source.twists


def test_quartic_cover_drops_the_redundant_generator(corpus_curves):
    # X^2*Z = X*(X*Z + Y*W) - X*Y*W: five generators, four minimal ones
    C = corpus_curves("quartic-from-skew-bilink")
    assert len(C.ideal.gens) == 5
    assert sorted(C.ideal_cover().source.twists) == [-3, -3, -3, -2]
    assert n_type_resolution(C).twists() == (
        (-3, -3, -3),
        (-3, -3, -3, -3, -3, -3, -2),
    )
    assert e_type_resolution(C).twists() == ((-4, -4, -4, -4), (-3, -3, -3, -2))


def test_ntype_resolution_keeps_ext1_of_n(corpus_curves):
    # the extraverted check computes Ext^1(N, R) once and caches it on N, so
    # certification and later decisions reuse it
    res = n_type_resolution(corpus_curves("skew-lines"))
    assert ("ext", 1) in res.N._cache
    E = ext_module(res.N, 1)
    assert E is res.N._cache[("ext", 1)][0]
    assert ext_module(res.N, 1) is E
    assert E.F0.rank == 0


def test_etype_twists(corpus_curves):
    cases = {
        "line": ((-2,), (-1, -1)),
        "twisted-cubic": ((-3, -3), (-2, -2, -2)),
        "skew-lines": ((-3, -3, -3, -3), (-2, -2, -2, -2)),
    }
    for name, want in cases.items():
        res = e_type_resolution(corpus_curves(name))
        assert res.twists() == want, name


def test_dual_of_free_module(K, corpus_curves):
    F = GradedModule.free(K, [-2, 3])
    D, _ = dual_module(F)
    assert sorted(D.F0.twists) == [-3, 2]
    # a free N keeps F0's order and K is the identity; the kernel route
    # would sort the generators by degree
    N = n_type_resolution(corpus_curves("conic")).N
    assert N.F0.twists == (-1, -2)
    D, K0 = dual_module(N)
    assert D.F0.twists == K0.source.twists == K0.target.twists == (1, 2)
    assert K0.matrix == GradedMap.identity(K0.source).matrix


def _hom_to_r_by_cap(M):
    # reference: Hom(M, R) as the kernel of the dualized first syzygy map,
    # built at one cap past every twist of both free modules
    d0 = M.resolution()[0].dual()
    cap = max(-t for t in d0.source.twists + d0.target.twists) + 6
    K = kernel_min_gens(d0, cap)
    return subquotient_module(K, None, cap).minimal_presentation(), K


@pytest.mark.parametrize(
    "name", ["skew-lines", "skew-pair-alt", "quartic-from-skew-bilink", "skew-lines-dual"]
)
def test_dual_module_is_ext0_with_its_cover(name, corpus_curves):
    C = corpus_curves(name)
    for M in (n_type_resolution(C).N, e_type_resolution(C).E):
        assert M.resolution()[0].source.rank, "a free module takes the shortcut"
        D, K0 = dual_module(M)
        assert D is ext_module(M, 0)
        ref, refK = _hom_to_r_by_cap(M)
        assert (D.F1, D.F0, K0.source, K0.target) == (ref.F1, ref.F0, refK.source, refK.target)
        assert D.presentation.matrix == ref.presentation.matrix
        assert K0.matrix == refK.matrix


def test_extravertize_dimension_count(K, corpus_curves):
    C = corpus_curves("skew-lines")
    data = extravertize(C.ideal_module())
    for n in range(0, 6):
        assert data.N.piece_dim(n) == data.P.piece_dim(n) + data.M.piece_dim(n)
    assert is_extraverted(data.N)


def test_surjection_is_psi(corpus_curves):
    C = corpus_curves("twisted-cubic")
    assert is_psi(surjection_hom(C, n_type_resolution(C)))


def test_zero_map_is_not_psi(corpus_curves):
    C = corpus_curves("skew-lines")
    res = n_type_resolution(C)
    IM = C.ideal_module()
    zero = ModuleHom(res.N, IM, GradedMap.zero(res.N.F0, IM.F0))
    assert not is_psi(zero)


def test_epfn_assembly(corpus_curves):
    for name in ("line", "twisted-cubic", "skew-lines"):
        nres = n_type_resolution(corpus_curves(name))
        eres = e_type_resolution(corpus_curves(name))
        assert epfn_sequence(nres, eres), name


def test_link_transform_n_to_e(K, corpus_curves):
    tc = corpus_curves("twisted-cubic")
    res = n_type_resolution(tc)
    F = Poly.parse("X*Z - Y^2", K)
    G = Poly.parse("Y*W - Z^2", K)
    out = link_transform_n_to_e(res, F, G)
    assert out.ideal == Ideal(K, [Poly.parse("Y", K), Poly.parse("Z", K)])
    e_tw, f_tw = out.twists()
    assert f_tw == (-2, -2, -1, -1) or f_tw == (-1, -1, -2, -2) or sorted(f_tw) == [-2, -2, -1, -1]


def test_link_transform_e_to_n(K, corpus_curves):
    tc = corpus_curves("twisted-cubic")
    res = e_type_resolution(tc)
    F = Poly.parse("X*Z - Y^2", K)
    G = Poly.parse("Y*W - Z^2", K)
    out = link_transform_e_to_n(res, F, G)
    assert out.ideal == Ideal(K, [Poly.parse("Y", K), Poly.parse("Z", K)])


def test_psi_roof_certifies(corpus_curves):
    tc = corpus_curves("twisted-cubic")
    res = n_type_resolution(tc)
    f = surjection_hom(tc, res)
    roof, p1, p2 = psi_roof(res.N, res.N, f.target, f, f)
    assert roof.F0.rank >= res.N.F0.rank


def test_psi_equivalent_shift_detection(corpus_curves):
    sk = corpus_curves("skew-lines")
    IM = sk.ideal_module()
    v = psi_equivalent(IM, IM.shift(2))
    assert v.kind == "yes" and v.h == -2
    line_im = corpus_curves("line").ideal_module()
    assert psi_equivalent(IM, line_im).kind == "no"


def test_minimal_extravert_of_acm_is_free_cover(corpus_curves):
    tc = corpus_curves("twisted-cubic")
    N = extravertize(tc.ideal_module()).N
    core, stripped = N.strip_free_summands()
    assert core.F0.rank == 0
    assert sorted(stripped) == [-2, -2, -2]
    # the stripped representative is therefore the zero module
    assert minimal_extravert(tc.ideal_module()).F0.rank == 0


def test_biliaison_equivalent_decisions(corpus_curves):
    v = biliaison_equivalent(
        corpus_curves("line"), corpus_curves("twisted-cubic")
    )
    assert v.kind == "yes" and v.h == 0
    v = biliaison_equivalent(
        corpus_curves("skew-lines"), corpus_curves("twisted-cubic")
    )
    assert v.kind == "no"
    v = biliaison_equivalent(
        corpus_curves("skew-lines"), corpus_curves("skew-pair-alt")
    )
    assert v.kind == "yes"


def test_liaison_parity(corpus_curves):
    assert (
        liaison_parity(corpus_curves("skew-lines"), corpus_curves("skew-pair-alt"))
        == "both"
    )
    assert (
        liaison_parity(corpus_curves("line"), corpus_curves("skew-lines"))
        == "neither"
    )


def test_dual_base_ntype_and_psi(corpus_curves):
    C = corpus_curves("twisted-cubic-dual")
    res = n_type_resolution(C)
    assert res.twists() == ((-3, -3), (-2, -2, -2))
    assert is_psi(surjection_hom(C, res))


def test_direct_sum_dims(K, corpus_curves):
    A = corpus_curves("line").ideal_module()
    B = GradedModule.free(K, [-3])
    S = direct_sum(A, B)
    for n in range(0, 5):
        assert S.piece_dim(n) == A.piece_dim(n) + B.piece_dim(n)

from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import RAO_K_NAMES, Span, general_lines, psi_roof_by_growing_cap, surjection_hom
from spacecurves import gradedmod, liaison, linalg, raoclass
from spacecurves.curve import validate_curve
from spacecurves.errors import CertificationError, MixedBase, NoLift
from spacecurves.files import corpus_names, load_corpus
from spacecurves.gradedmod import (
    FreeModule,
    GradedMap,
    GradedModule,
    ModuleHom,
    _minimalize_map,
    cohomology_table,
    cycles_cover,
    element_to_vector,
    ext_module,
    kernel_min_gens,
    subquotient_module,
)
from spacecurves.groebner import Ideal
from spacecurves.liaison import connect_by_biliaisons
from spacecurves.polyring import Poly, monomial_shift, monomials
from spacecurves.scalars import BaseRing
from spacecurves.raoclass import (
    ETypeResolution,
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
    # extravertize certifies Ext^1(N, R) = 0 and caches it on N, so
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


def _times_variable(F, mat, n, v):
    # reference: x_v times each column of mat, a matrix on F's degree-n
    # stacked piece, by one row scatter into the degree-(n + 1) piece
    x = tuple(int(i == v) for i in range(4))
    offs = np.cumsum([0] + F.block_dims(n + 1))
    rows = np.concatenate([off + monomial_shift(n + t, x) for off, t in zip(offs, F.twists)])
    if F.base.dual:
        rows = np.concatenate([rows, offs[-1] + rows])
    out = np.zeros((F.piece_dim(n + 1), mat.shape[1]), dtype=np.int64)
    out[rows] = mat
    return out


def _min_quotient_gens_by_span(K, B):
    # reference: _min_quotient_gens as it was, spanning B, the variable
    # multiples of K's previous degree and e * K before the candidates
    base = K.base
    F = K.target
    chosen = []
    for d in sorted({-t for t in K.source.twists}):
        span = Span(base.p)
        span.add_many(B.matrix_at(d))
        prev = K.matrix_at(d - 1)
        for v in range(4):
            span.add_many(_times_variable(F, prev, d - 1, v))
        if base.dual:
            span.add_many(linalg.eps_times(K.matrix_at(d)))
        cands = [j for j in range(K.source.rank) if -K.source.twists[j] == d]
        cols = np.array([element_to_vector(F, K.column(j), d) for j in cands]).T
        chosen.extend(cands[i] for i in span.add_many(cols))
    return chosen


@st.composite
def _quotient_maps(draw):
    """(K, B) into one free module: random K columns, then columns that
    depend on them (a variable, e or a scalar times an earlier column), and
    B from random columns and some of K's."""
    p = draw(st.sampled_from([2, 3, 101, 32003, 2**31 - 1]))
    base = BaseRing(p, draw(st.booleans()))
    F = FreeModule(base, draw(st.lists(st.integers(-1, 1), min_size=1, max_size=3)))

    def element(d):
        out = []
        for t in F.twists:
            mons = monomials(d + t)
            terms = {}
            if mons and draw(st.booleans()):
                for m in draw(st.lists(st.sampled_from(mons), min_size=1, max_size=3, unique=True)):
                    a = draw(st.integers(0, p - 1))
                    b = draw(st.integers(0, p - 1)) if base.dual else 0
                    terms[m] = (a, b) if (a, b) != (0, 0) else (1, 0)
            out.append(Poly(base, terms))
        return tuple(out)

    kdegs = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    kcols = [element(d) for d in kdegs]
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, len(kcols) - 1))
        kind = draw(st.sampled_from(["variable", "e", "scalar"]))
        if kind == "variable":
            g, d = Poly.variable(base, draw(st.integers(0, 3))), kdegs[j] + 1
        else:
            a = draw(st.integers(1, p - 1))
            g, d = (Poly.constant(base, 0, a) if kind == "e" and base.dual else Poly.constant(base, a)), kdegs[j]
        kcols.append(tuple(g * f for f in kcols[j]))
        kdegs.append(d)
    bdegs = draw(st.lists(st.integers(0, 3), max_size=3))
    bcols = [element(d) for d in bdegs]
    for j in draw(st.lists(st.integers(0, len(kcols) - 1), max_size=2)):
        bcols.append(kcols[j])
        bdegs.append(kdegs[j])
    return GradedMap.from_columns(F, kcols, kdegs), GradedMap.from_columns(F, bcols, bdegs)


@settings(max_examples=100, deadline=None, database=None)
@given(_quotient_maps())
@seed(41)
def test_min_quotient_gens_matches_the_span_loop(maps):
    K, B = maps
    assert gradedmod._min_quotient_gens(K, B) == _min_quotient_gens_by_span(K, B)


@pytest.mark.parametrize("name", RAO_K_NAMES + ["skew-lines-dual"])
def test_extravertize_picks_the_span_loops_generators(name, corpus_curves, monkeypatch):
    # the cocycle generators extravertize picks on a curve's ideal module
    calls = []
    pick = raoclass._min_quotient_gens

    def checked(K, B):
        got = pick(K, B)
        calls.append(got)
        assert got == _min_quotient_gens_by_span(K, B)
        return got

    monkeypatch.setattr(raoclass, "_min_quotient_gens", checked)
    extravertize(GradedModule(corpus_curves(name).ideal_module().presentation))
    assert calls and calls[0]


def test_surjection_is_psi(corpus_curves):
    C = corpus_curves("twisted-cubic")
    assert is_psi(surjection_hom(C, n_type_resolution(C)))


def test_zero_map_is_not_psi(corpus_curves):
    C = corpus_curves("skew-lines")
    res = n_type_resolution(C)
    IM = C.ideal_module()
    zero = ModuleHom(res.N, IM, GradedMap.zero(res.N.F0, IM.F0))
    assert not is_psi(zero)


@pytest.mark.parametrize("name", RAO_K_NAMES + ["skew-lines-dual"])
def test_psi_on_ideal_modules_with_a_rao_module(name, corpus_curves):
    # the N-type surjection and the identity are psi; X times the ideal
    # module kills its Ext^2, the dual of the Rao module, so it is not.  The
    # identity meets the boundaries of the infinite-length Ext^1 in each
    # degree of the window: an induced rank that left them out would count
    # them as image
    C = corpus_curves(name)
    IM = C.ideal_module()
    F0 = IM.F0
    z = Poly.zero(C.base)
    x = Poly.variable(C.base, 0)
    times_x = GradedMap(F0.shift(-1), F0, [[x if i == j else z for j in range(F0.rank)] for i in range(F0.rank)])
    assert is_psi(surjection_hom(C, n_type_resolution(C)))
    assert is_psi(ModuleHom(IM, IM, GradedMap.identity(F0)))
    assert not is_psi(ModuleHom(IM.shift(-1), IM, times_x))
    # into IM + IM as the first summand: onto on Ext^1 and Ext^2, but Ext^2
    # of IM + IM is twice as big, so the map on it is not one-to-one
    first = GradedMap(F0, FreeModule(C.base, F0.twists * 2), GradedMap.identity(F0).matrix + GradedMap.zero(F0, F0).matrix)
    assert not is_psi(ModuleHom(IM, direct_sum(IM, IM), first))


def test_epfn_assembly(corpus_curves):
    for name in ("line", "twisted-cubic", "skew-lines"):
        nres = n_type_resolution(corpus_curves(name))
        eres = e_type_resolution(corpus_curves(name))
        assert epfn_sequence(nres, eres), name


@pytest.mark.parametrize("name", ["twisted-cubic", "twisted-cubic-dual"])
def test_link_transform_n_to_e(name, corpus_curves):
    tc = corpus_curves(name)
    K = tc.base
    F = Poly.parse("X*Z - Y^2", K)
    G = Poly.parse("Y*W - Z^2", K)
    out = link_transform_n_to_e(tc, F, G)
    assert out.ideal == Ideal(K, [Poly.parse("Y", K), Poly.parse("Z", K)])
    # the Koszul entries are tried (G, F), (G, -F), (-G, F), (-G, -F)
    assert out.surj.matrix[0][-2:] == (G, -F)
    e_tw, f_tw = out.twists()
    assert f_tw == (-2, -2, -1, -1) or f_tw == (-1, -1, -2, -2) or sorted(f_tw) == [-2, -2, -1, -1]


@pytest.mark.parametrize("name", ["twisted-cubic", "twisted-cubic-dual"])
def test_link_transform_e_to_n(name, corpus_curves):
    tc = corpus_curves(name)
    K = tc.base
    F = Poly.parse("X*Z - Y^2", K)
    G = Poly.parse("Y*W - Z^2", K)
    out = link_transform_e_to_n(tc, F, G)
    assert out.ideal == Ideal(K, [Poly.parse("Y", K), Poly.parse("Z", K)])
    assert out.surj.matrix[0][-2:] == (G, -F)


def test_psi_roof_certifies(corpus_curves):
    tc = corpus_curves("twisted-cubic")
    res = n_type_resolution(tc)
    f = surjection_hom(tc, res)
    roof, p1, p2 = psi_roof(res.N, res.N, f.target, f, f)
    assert roof.F0.rank >= res.N.F0.rank


@pytest.mark.parametrize("name", corpus_names())
def test_psi_roof_on_the_proved_cap_is_the_growing_caps(name, corpus_curves):
    # the roof over the N-type surjection twice, presentation and both
    # projections, equals the one built on a growing cap
    C = corpus_curves(name)
    res = n_type_resolution(C)
    f = surjection_hom(C, res)
    roof, p1, p2 = psi_roof(res.N, res.N, f.target, f, f)
    ref, Kproj = psi_roof_by_growing_cap(res.N, res.N, f.target, f, f)
    assert (roof.F1, roof.F0, roof.presentation.matrix) == (ref.F1, ref.F0, ref.presentation.matrix)
    assert p1.f0.matrix + p2.f0.matrix == Kproj.matrix


def test_is_psi_reads_the_modules_it_is_given(monkeypatch):
    # is_psi works on the minimal presentations of its modules, which here
    # are the modules themselves: nothing is resolved, and a second call
    # builds no Ext module or cycles again
    C = validate_curve(load_corpus("skew-lines").to_ideal())
    f = surjection_hom(C, n_type_resolution(C))
    calls = []
    for fn in ("_resolve", "kernel_min_gens"):
        real = getattr(gradedmod, fn)
        monkeypatch.setattr(gradedmod, fn, lambda *a, real=real, fn=fn: calls.append(fn) or real(*a))
    assert is_psi(f)
    assert "_resolve" not in calls
    calls.clear()
    assert is_psi(f)
    assert not calls


@pytest.mark.parametrize(
    "name, F, G",
    [
        (name + dual, F, G)
        for name, F, G in [
            ("skew-lines", "X*Z", "Y*W"),
            ("skew-pair-alt", "X*Y", "W*Z"),
            ("quartic-from-skew-bilink", "X*Z + Y*W", "X^2*W"),
        ]
        for dual in ("", "-dual")
    ],
)
def test_one_cycles_cover_serves_hom_of_e_ext1_extravertize_and_link(name, F, G, monkeypatch):
    # the cycles ker(delta1) of the ideal module are built once, in R/I's Ext
    # table: Hom(E, R), Ext^1 of the ideal module, the N-type pushout and a
    # link all read that one object
    C = validate_curve(load_corpus(name).to_ideal())
    IM = C.ideal_module()
    K = cycles_cover(IM, 1)
    assert dual_module(e_type_resolution(C).E)[1] is K
    assert gradedmod._ext_with_cover(IM, 1)[1] is K
    assert cycles_cover(C._ri(), 2) is K
    assert cycles_cover(n_type_resolution(C).N, 1) is K
    (_, seen, _), _ = _extravert_certificate(C, monkeypatch)
    assert seen is K
    read = []
    cover = liaison.cycles_cover
    monkeypatch.setattr(liaison, "cycles_cover", lambda M, i: read.append(cover(M, i)) or read[-1])
    liaison.link(C, Poly.parse(F, C.base), Poly.parse(G, C.base))
    assert read == [K] and read[0] is K


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


def test_decisions_reject_curves_over_different_base_rings(corpus_curves, monkeypatch):
    # before any work: neither side's N, fiber or Rao module is built
    for fn in ("_stable_n", "_fiber_cached", "minimal_extravert", "biliaison_equivalent"):
        monkeypatch.setattr(raoclass, fn, lambda *args, **kw: pytest.fail("a decision started work"))
    field, family = corpus_curves("skew-lines"), corpus_curves("skew-lines-dual")
    for decide in (biliaison_equivalent, liaison_parity, connect_by_biliaisons):
        with pytest.raises(MixedBase):
            decide(field, family)
    with pytest.raises(MixedBase):
        psi_equivalent(field.ideal_module(), family.ideal_module())


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


# -- the N- and E-type certificates ---------------------------------------------


@pytest.mark.parametrize("name", RAO_K_NAMES + [name + "-dual" for name in RAO_K_NAMES])
def test_ntype_and_etype_read_the_validated_resolution_and_its_ext(name, monkeypatch):
    # N keeps M's syzygies and, like E, reads Ext off the table of R/I that
    # validation filled: after validation nothing is resolved again and no
    # Ext is built through a subquotient, including the stable N's Ext^2
    C = validate_curve(load_corpus(name).to_ideal())
    calls = []
    for fn in ("_resolve", "subquotient_module"):
        real = getattr(gradedmod, fn)
        monkeypatch.setattr(gradedmod, fn, lambda *a, real=real, fn=fn: calls.append(fn) or real(*a))
    nres, eres = n_type_resolution(C), e_type_resolution(C)
    stable = raoclass._stable_n(C)
    ext3 = ext_module(C._ri(), 3)
    assert ext_module(stable, 2) is ext3
    assert not calls
    IM = C.ideal_module()
    assert [id(m) for m in nres.N.resolution()[1:]] == [id(m) for m in IM.resolution()[1:]]
    assert stable is nres.N
    assert ext3.F0.rank and ext_module(nres.N, 2) is ext_module(IM, 2) is ext_module(eres.E, 1) is ext3


def _extravert_certificate(C, monkeypatch):
    """(deltas, K, cocycles) as extravertize hands them to its certificate
    on C's ideal module, and the certificate itself."""
    certify, seen = raoclass._certify_extravert, []
    monkeypatch.setattr(raoclass, "_certify_extravert", lambda *args: seen.append(args) or certify(*args))
    extravertize(C.ideal_module())
    return seen[0], certify


def _not_a_cycle(delta1, degree):
    """A monomial element of delta1's source in the given degree off its kernel."""
    F = delta1.source
    for i, t in enumerate(F.twists):
        for m in monomials(degree + t):
            elem = [Poly.zero(F.base)] * F.rank
            elem[i] = Poly(F.base, {m: (1, 0)})
            if any(not f.is_zero() for f in delta1.apply(tuple(elem))):
                return tuple(elem)
    raise AssertionError("every element of that degree is a cycle")


@pytest.mark.parametrize("name", RAO_K_NAMES + ["skew-lines-dual"])
def test_extravert_certificate_rejects_mutants(name, corpus_curves, monkeypatch):
    (deltas, K, cocycles), certify = _extravert_certificate(corpus_curves(name), monkeypatch)
    certify(deltas, K, cocycles)
    F = cocycles.target
    cols = [cocycles.column(j) for j in range(cocycles.source.rank)]
    degs = [-t for t in cocycles.source.twists]

    def mutant(cols, degs):
        return GradedMap.from_columns(F, cols, degs)

    # a dropped generator of P
    for j in range(len(cols)):
        with pytest.raises(CertificationError, match="does not vanish"):
            certify(deltas, K, mutant(cols[:j] + cols[j + 1 :], degs[:j] + degs[j + 1 :]))
    # a wrong twist on P: the cocycle times X, one degree up
    x = Poly.variable(F.base, 0)
    with pytest.raises(CertificationError, match="does not vanish"):
        certify(deltas, K, mutant([tuple(x * f for f in cols[0])] + cols[1:], [degs[0] + 1] + degs[1:]))
    # a c that is not a cocycle
    bad = tuple(f + g for f, g in zip(cols[0], _not_a_cycle(deltas[1], degs[0])))
    with pytest.raises(CertificationError, match="not a cocycle"):
        certify(deltas, K, mutant([bad] + cols[1:], degs))


@pytest.mark.parametrize("name", ["twisted-cubic", "skew-lines", "skew-lines-dual", "quartic-from-skew-bilink"])
def test_etype_certificate_rejects_an_incl_that_is_not_injective(name, corpus_curves):
    # E + R(t) with the new generator sent to zero: every composite is zero
    # and E + R(t) is locally free, but incl kills a degree -t element
    res = e_type_resolution(corpus_curves(name))
    t = res.E.F0.twists[0]
    E2 = direct_sum(res.E, GradedModule.free(res.E.base, [t]))
    incl2 = GradedMap.hstack(res.incl, GradedMap.zero(FreeModule(res.E.base, [t]), res.F))
    with pytest.raises(CertificationError, match=f"does not inject in degree {-t}"):
        ETypeResolution(res.ideal, res.reg, E2, res.F, incl2, res.surj)


# -- counts read off K-polynomials and generator degrees ------------------------


def _free_summand_sent_to_zero(E, incl, t):
    """E + R(t), and incl extended by zero on the new generator."""
    E2 = direct_sum(E, GradedModule.free(E.base, [t]))
    return E2, GradedMap.hstack(incl, GradedMap.zero(FreeModule(E.base, [t]), incl.target))


@pytest.mark.parametrize("name", ["twisted-cubic", "skew-lines", "skew-lines-dual", "quartic-from-skew-bilink"])
def test_etype_certificate_rejects_a_generator_sent_to_zero_in_degree_reg_plus_4(name, corpus_curves):
    # E + R(-reg(I) - 4) with the new generator sent to zero: one degree past
    # the reg(I) + 3 that the certificate once ranked up to
    res = e_type_resolution(corpus_curves(name))
    E2, incl2 = _free_summand_sent_to_zero(res.E, res.incl, -res.reg - 4)
    with pytest.raises(CertificationError, match=f"does not inject in degree {res.reg + 4}$"):
        ETypeResolution(res.ideal, res.reg, E2, res.F, incl2, res.surj)


@pytest.mark.parametrize("name", ["twisted-cubic", "twisted-cubic-dual", "ci-2-2"])
def test_etype_certificate_rejects_an_incl_that_misses_the_kernel(name, corpus_curves):
    # a free E with one generator sent to zero: K(E) still balances, but
    # E no longer maps onto ker(F -> I) in that generator's degree
    res = e_type_resolution(corpus_curves(name))
    assert not res.E.F1.rank
    cols = [res.incl.column(j) for j in range(res.incl.source.rank)]
    cols[0] = res.F.zero_element()
    incl2 = GradedMap.from_columns(res.F, cols, [-t for t in res.E.F0.twists])
    with pytest.raises(CertificationError, match=f"not exact in degree {-res.E.F0.twists[0]}$"):
        ETypeResolution(res.ideal, res.reg, res.E, res.F, incl2, res.surj)


@pytest.mark.parametrize("name", corpus_names())
def test_etype_resolution_ranks_nothing_validation_did_not(name, monkeypatch):
    # incl is the second map of R/I's resolution, ranked by its certificate
    # up to m + 2 >= reg(I) + 2; the E-type certificate ranks up to
    # max(top F, reg(I) + 1) and reads the rest off K-polynomials, and a
    # free E (an ACM curve) is not resolved again
    C = validate_curve(load_corpus(name).to_ideal())
    misses, rank_at = [], GradedMap.rank_at

    def spy(phi, n):
        if n not in phi._cache:
            misses.append(n)
        return rank_at(phi, n)

    monkeypatch.setattr(GradedMap, "rank_at", spy)
    e_type_resolution(C)
    assert misses == []


@pytest.mark.parametrize("name", ["twisted-cubic", "twisted-cubic-dual"])
def test_link_transform_e_to_n_rejects_a_p_summand_sent_to_zero(name, corpus_curves, monkeypatch):
    # the E-type resolution of C handed over with F + R(a), the new generator
    # sent to zero by surj and missing from incl: P = F^dual(-st) gains a
    # summand that maps to zero in N, one degree past the old window
    # reg(J) + top(N) + 4
    C = corpus_curves(name)
    F, G = Poly.parse("X*Z - Y^2", C.base), Poly.parse("Y*W - Z^2", C.base)
    out = link_transform_e_to_n(C, F, G)
    D = liaison.link(C, F, G).regularity() + 1 + out.N.F0.top_degree() + 5
    res, a = e_type_resolution(C), D - 4
    extra = FreeModule(C.base, [a])
    F2 = FreeModule(C.base, res.F.twists + (a,))
    zero_row = [[Poly.zero(C.base)] * res.incl.source.rank]
    padded = SimpleNamespace(
        E=res.E,
        F=F2,
        incl=GradedMap(res.incl.source, F2, list(res.incl.matrix) + zero_row),
        surj=GradedMap.hstack(res.surj, GradedMap.zero(extra, res.surj.target)),
    )
    monkeypatch.setattr(raoclass, "e_type_resolution", lambda C: padded)
    with pytest.raises(CertificationError, match=f"N-type sequence not exact in degree {D}$"):
        link_transform_e_to_n(C, F, G)


def test_psi_roof_rejects_a_roof_generator_sent_to_zero(corpus_curves, monkeypatch):
    # one more roof generator, mapped to zero in N1 + N2 and two degrees past
    # roof_cap + 2, where the subquotient takes no relation for it: the roof
    # gains a free summand that both projections kill, so they stay psi
    tc = corpus_curves("twisted-cubic")
    res = n_type_resolution(tc)
    f = surjection_hom(tc, res)
    caps, subquotient = [], raoclass.subquotient_module
    monkeypatch.setattr(raoclass, "subquotient_module", lambda K, B, cap: caps.append(cap) or subquotient(K, B, cap))
    psi_roof(res.N, res.N, f.target, f, f)
    D = caps[0] + 3
    head = raoclass.kernel_head
    monkeypatch.setattr(
        raoclass,
        "kernel_head",
        lambda phi, F, cap: GradedMap.hstack(head(phi, F, cap), GradedMap.zero(FreeModule(F.base, [-D]), F)),
    )
    with pytest.raises(CertificationError, match=f"misses its dimension count in degree {D}$"):
        psi_roof(res.N, res.N, f.target, f, f)


@pytest.mark.parametrize("name", ["twisted-cubic", "skew-lines", "skew-lines-dual"])
def test_epfn_sequence_rejects_an_e_summand_past_the_old_window(name, corpus_curves):
    # E + R(-D) with the new generator sent to zero, D one degree past the
    # old window reg(I) + max(top F, top N) + 4: E still maps into P
    # through N, and P + F still maps onto N
    C = corpus_curves(name)
    nres, eres = n_type_resolution(C), e_type_resolution(C)
    D = eres.reg + max(eres.F.top_degree(), nres.N.F0.top_degree()) + 5
    E2, incl2 = _free_summand_sent_to_zero(eres.E, eres.incl, -D)
    padded = SimpleNamespace(ideal=eres.ideal, E=E2, F=eres.F, incl=incl2, surj=eres.surj)
    with pytest.raises(CertificationError, match=f"unbalanced at {D}$"):
        epfn_sequence(nres, padded)


@pytest.mark.parametrize("name", ["twisted-cubic", "twisted-cubic-dual"])
def test_epfn_sequence_rejects_an_n_generator_that_p_and_f_miss(name, corpus_curves):
    # N + R(-3) and P + R(-3) with the new generator of P sent to zero, and
    # the new one of N to X times a generator of I: the K-polynomials still
    # balance, but nothing in P + F maps onto the new generator of N
    C = corpus_curves(name)
    nres, eres = n_type_resolution(C), e_type_resolution(C)
    N2 = direct_sum(nres.N, GradedModule.free(C.base, [-3]))
    extra = FreeModule(C.base, [-3])
    g = Poly.variable(C.base, 0) * C.ideal_cover().matrix[0][0]
    incl = GradedMap(nres.P, N2.F0, list(nres.incl.matrix) + [[Poly.zero(C.base)] * nres.P.rank])
    padded = SimpleNamespace(
        ideal=nres.ideal,
        N=N2,
        P=FreeModule(C.base, nres.P.twists + (-3,)),
        incl=GradedMap.hstack(incl, GradedMap.zero(extra, N2.F0)),
        surj=GradedMap.hstack(nres.surj, GradedMap(extra, nres.surj.target, [[g]])),
    )
    with pytest.raises(CertificationError, match="P [+] F misses N in degree 3$"):
        epfn_sequence(padded, eres)


@pytest.mark.parametrize("name", ["skew-lines", "skew-lines-dual", "quartic-from-skew-bilink"])
def test_nolift_reads_n0_off_the_support_of_ext2(name, corpus_curves, monkeypatch):
    # n0 is the last degree n with H^1 of E~(n) nonzero, as a cohomology
    # table over a window finds it.  The E of a curve has none; the N of its
    # N-type resolution has Ext^2(N) = Ext^3(R/I), so it stands in for E
    # behind a cover that lifts nothing
    C = corpus_curves(name)
    F, G = Poly.parse("X*Z", C.base), Poly.parse("Y*W", C.base)
    if name.startswith("quartic"):
        F, G = Poly.parse("X*Z + Y*W", C.base), Poly.parse("X^2*W", C.base)
    for E in (e_type_resolution(C).E, n_type_resolution(C).N):
        Ef = E.fiber()
        reg = Ef.regularity()
        table = cohomology_table(Ef, "k", -reg - 8, reg + 8)[1]
        n0 = max((n for n, v in table.items() if v), default=None)
        stub = SimpleNamespace(E=E, surj=SimpleNamespace(preimage=lambda elem, n: None))
        monkeypatch.setattr(raoclass, "e_type_resolution", lambda C: stub)
        with pytest.raises(NoLift) as err:
            link_transform_e_to_n(C, F, G)
        assert (err.value.n0, err.value.degrees) == (n0, [F.degree(), G.degree()])
    assert n0 is not None


def _k_of_ideal(ideal):
    k = Counter({-n: -c for n, c in enumerate(ideal.fiber().hilbert_numerator())})
    k[0] += 1
    return k


def _plus(*ks):
    out = Counter()
    for k in ks:
        out.update(k)
    return {t: c for t, c in out.items() if c}


@settings(max_examples=8, deadline=None, database=None)
@given(general_lines(primes=(101, 32003), field_lines=(2, 4), dual_lines=(2, 2)))
@seed(71)
def test_the_resolutions_balance_k_and_every_piece_on_general_lines(C):
    # K(E) + K(I) = K(F), K(N) = K(P) + K(I) and K(E) + K(N) = K(P) + K(F),
    # with E and N resolved afresh, and the pieces in each degree of the
    # windows the certificates once ranked
    nres, eres = n_type_resolution(C), e_type_resolution(C)
    assert epfn_sequence(nres, eres)
    E, N, P, F, I = eres.E, nres.N, nres.P, eres.F, C.ideal
    kE, kN = GradedModule(E.presentation).kpolynomial(), GradedModule(N.presentation).kpolynomial()
    kP, kF, kI = Counter(P.twists), Counter(F.twists), _k_of_ideal(I)
    assert _plus(kE, kI) == _plus(kF)
    assert _plus(kN) == _plus(kP, kI)
    assert _plus(kE, kN) == _plus(kP, kF)
    reg = C.regularity() + 1
    for n in range(min(E.min_degree(), N.min_degree(), F.min_degree()), reg + max(F.top_degree(), N.F0.top_degree()) + 5):
        assert E.piece_dim(n) == F.piece_dim(n) - I.piece_dim(n), n
        assert N.piece_dim(n) == P.piece_dim(n) + I.piece_dim(n), n
    # the degree and genus read the Hilbert function from reg(R/I) + 1 on
    d, g = C.degree_genus()
    assert all(C.hilbert_function(reg + 4)[n] == d * n + 1 - g for n in range(reg, reg + 5))


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.dictionaries(st.integers(-4, 4), st.integers(1, 3), min_size=1, max_size=4),
    st.dictionaries(st.integers(-4, 4), st.integers(1, 3), min_size=1, max_size=4),
)
@seed(13)
def test_matching_shifts_is_the_search_over_every_difference(a, b):
    # reference: the shifts both comparisons searched before they shared one
    # helper, every difference of two support degrees
    ref = sorted({h for h in {x - y for x in a for y in b} if {n + h: d for n, d in b.items()} == a})
    assert raoclass._matching_shifts(a, b) == ref
    assert raoclass._matching_shifts(a, {n - 2: d for n, d in a.items()}) == [2]


def _pushout_by_resolving(M):
    # reference: extravertize's pushout as it was built before N kept M's
    # resolution: fresh dual maps and the cocycles of ker(delta1) to the
    # same cap; returns the minimal presentation of N and P's twists
    maps = M.minimal_presentation().resolution()
    phi = maps[0]
    if len(maps) > 1:
        delta1 = maps[1].dual()
        K = kernel_min_gens(delta1, max(-t for t in delta1.source.twists + delta1.target.twists) + 6)
    else:
        K = GradedMap.identity(phi.source.dual())
    chosen = raoclass._min_quotient_gens(K, phi.dual())
    F0, F1 = phi.target, phi.source
    P = FreeModule(M.base, [-K.source.twists[j] for j in chosen])
    rows = [list(phi.matrix[i]) for i in range(F0.rank)]
    rows += [[-K.matrix[i][j] for i in range(F1.rank)] for j in chosen]
    target = FreeModule(M.base, list(F0.twists) + list(P.twists))
    return _minimalize_map(GradedMap(F1, target, rows))[0], P.twists


def _ext1_dims_of_a_fresh_copy(N):
    # Ext^1 of a copy of N resolved afresh, in each degree of a generator of
    # the cycles of its own dual complex, where it is generated
    fresh = GradedModule(N.presentation)
    deltas = [m.dual() for m in fresh.resolution()]
    if len(deltas) > 1:
        d1 = deltas[1]
        K = kernel_min_gens(d1, max(-t for t in d1.source.twists + d1.target.twists) + 6)
        degrees = {-t for t in K.source.twists}
    else:
        degrees = {-t for t in deltas[0].target.twists}
    return gradedmod.ext_piece_dims(fresh, 1, sorted(degrees)), fresh


@settings(max_examples=8, deadline=None, database=None)
@given(general_lines())
@seed(28)
def test_inherited_ntype_resolution_passes_the_checks_it_replaces(C):
    # the same N, P and twists as the pushout built and resolved afresh, and
    # the deleted checks hold: Ext^1 = 0 on a fresh resolution of N, and the
    # N-type piece window
    res = n_type_resolution(C)
    pres, p_twists = _pushout_by_resolving(C.ideal_module())
    N = res.N
    assert (N.F1, N.F0, N.presentation.matrix) == (pres.source, pres.target, pres.matrix)
    assert res.P.twists == p_twists
    assert res.twists() == (tuple(sorted(p_twists)), tuple(sorted(pres.target.twists)))
    dims, fresh = _ext1_dims_of_a_fresh_copy(N)
    assert not any(dims.values())
    assert [sorted(m.source.twists) for m in fresh.resolution()] == [
        sorted(m.source.twists) for m in N.resolution()
    ]
    hi = C.regularity() + 1 + max((-t for t in N.F0.twists), default=0) + 4
    for n in range(N.min_degree(), hi + 1):
        assert N.piece_dim(n) == res.P.piece_dim(n) + res.ideal.piece_dim(n), n


# -- a proved cap on the generators of ker(delta1) ------------------------------


def _cycles_by_the_old_rule(delta1):
    # reference: ker(delta1) on a fresh copy of delta1, taken up to the rule
    # extravertize used before the bound, max twist + 6
    fresh = GradedMap(delta1.source, delta1.target, delta1.matrix)
    return kernel_min_gens(fresh, max(-t for t in delta1.source.twists + delta1.target.twists) + 6)


def _extravertize_spying_on_the_cycles(C):
    # (delta1, cap, K) of extravertize's kernel_min_gens call on the ideal
    # module, and the bound max(r + 2, top F1^dual, top F2^dual + 1), with r
    # the top degree of Ext^3(R/I), read off the Rao module by duality:
    # Ext^3(R/I)_n is dual to (M_C)_{-n-4}
    calls = []

    def spy(phi, cap):
        K = kernel_min_gens(phi, cap)
        calls.append((phi, cap, K))
        return K

    with mock.patch.object(gradedmod, "kernel_min_gens", spy):
        extravertize(C.ideal_module())
    (delta1, cap, K), = calls
    r = -min(C.rao_module().dims()) - 4
    bound = max(r + 2, max(-t for t in delta1.source.twists), max(-t for t in delta1.target.twists) + 1)
    return delta1, cap, K, bound


def _assert_cycles_match_the_old_rule(C):
    delta1, cap, K, bound = _extravertize_spying_on_the_cycles(C)
    assert cap <= bound
    ref = _cycles_by_the_old_rule(delta1)
    assert (K.source.twists, K.matrix) == (ref.source.twists, ref.matrix)
    return K, bound


@pytest.mark.parametrize("name", RAO_K_NAMES + [name + "-dual" for name in RAO_K_NAMES])
def test_extravertize_takes_the_cycles_to_the_proved_cap(name):
    # a fresh curve, so that extravertize runs; K is the old rule's, column
    # for column
    _assert_cycles_match_the_old_rule(validate_curve(load_corpus(name).to_ideal()))


@settings(max_examples=10, deadline=None, database=None)
@given(general_lines(field_lines=(2, 4), dual_lines=(2, 2)))
@seed(59)
def test_the_proved_cap_gives_the_old_rules_cycles_on_general_lines(C):
    if len(C.ideal_module().resolution()) == 2:
        _assert_cycles_match_the_old_rule(C)


@pytest.mark.parametrize(
    "names",
    [("quartic-from-skew-bilink", "skew-lines"), ("quartic-from-skew-bilink-dual", "skew-pair-alt-dual")],
)
def test_stable_compare_pads_with_carried_kpolynomials(names, corpus_curves, monkeypatch):
    # the padded and shifted modules _stable_compare hands to the iso
    # search carry K-polynomials equal to those of fresh modules on the same
    # presentations, which resolve for them
    seen = []
    first_iso = raoclass._first_iso

    def spy(candidates, trials, seed, undecided, no):
        candidates = list(candidates)
        if undecided == "iso test inconclusive":
            seen.extend(candidates)
        return first_iso(candidates, trials, seed, undecided, no)

    monkeypatch.setattr(raoclass, "_first_iso", spy)
    v = biliaison_equivalent(*map(corpus_curves, names))
    assert (v.kind, v.h) == ("yes", -1)
    padded = [Z for _, X, Y in seen for Z in (X, Y) if any(not any(row) for row in Z.presentation.matrix)]
    assert padded
    for _, X, Y in seen:
        for Z in (X, Y):
            assert "kpoly" in Z._cache
            assert Z.kpolynomial() == GradedModule(Z.presentation).kpolynomial()

"""Finitely presented graded modules over R_A and their homological algebra.

A module is the cokernel of a graded matrix between twisted free modules.
All structural computations (syzygies, minimal resolutions, Hom, Ext,
cohomology) reduce to exact linear algebra on graded pieces: each piece of a
twisted free module is a finite free module over the base ring A, coordinates
are stacked (fiber; epsilon) vectors, and generators are extracted by graded
Nakayama over the local ring.

Twist convention: a FreeModule with twists (t_1, ..., t_r) is R(t_1) + ... +
R(t_r); the generator of R(t) sits in degree -t; the (i, j) entry of a map
has degree target_twist_i - source_twist_j.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import inf, prod

import numpy as np

from . import linalg
from .errors import (
    CertificationError,
    MixedBase,
    NotFiniteLength,
    NotLiftable,
    OracleMismatch,
)
from .polyring import Poly, graded_piece_dim, monomial_index, monomial_shift, monomials
from .scalars import BaseRing


class FreeModule:
    """A direct sum of twisted copies of R_A."""

    __slots__ = ("base", "twists")

    def __init__(self, base: BaseRing, twists):
        self.base = base
        self.twists = tuple(int(t) for t in twists)

    @property
    def rank(self) -> int:
        return len(self.twists)

    def shift(self, h: int) -> "FreeModule":
        return FreeModule(self.base, [t + h for t in self.twists])

    def dual(self) -> "FreeModule":
        """Hom(F, R); Hom(F, R(s)) is dual().shift(s)."""
        return FreeModule(self.base, [-t for t in self.twists])

    def block_dims(self, n: int):
        return [graded_piece_dim(n + t) for t in self.twists]

    def fiber_dim(self, n: int) -> int:
        return sum(self.block_dims(n))

    def piece_dim(self, n: int) -> int:
        """k-dimension of the degree-n piece over the base ring."""
        return self.fiber_dim(n) * (2 if self.base.dual else 1)

    def min_degree(self) -> int:
        """Lowest degree with a nonzero piece; 0 when rank 0."""
        return min((-t for t in self.twists), default=0)

    def top_degree(self):
        """Highest degree of a generator, its regularity; -inf when rank 0,
        the regularity of the zero module in reg A <= max(reg B, reg C + 1)."""
        return max((-t for t in self.twists), default=-inf)

    def zero_element(self):
        return tuple(Poly.zero(self.base) for _ in range(self.rank))

    def __eq__(self, other):
        return (
            isinstance(other, FreeModule)
            and self.base == other.base
            and self.twists == other.twists
        )

    def __hash__(self):
        return hash((self.base, self.twists))

    def __repr__(self):
        return f"FreeModule{self.twists}"


def element_to_vector(F: FreeModule, elem, n: int) -> np.ndarray:
    """Stacked coordinates of a degree-n element (tuple of Polys)."""
    dims = F.block_dims(n)
    D = sum(dims)
    dual = F.base.dual
    out = np.zeros(2 * D if dual else D, dtype=np.int64)
    off = 0
    for i, f in enumerate(elem):
        d = n + F.twists[i]
        idx = monomial_index(d) if d >= 0 else {}
        for e, (a, b) in f.terms.items():
            j = off + idx[e]
            out[j] = a
            if dual:
                out[D + j] = b
            elif b:
                raise MixedBase("epsilon coefficient over a prime field")
        off += dims[i]
    return out


def vector_to_element(F: FreeModule, vec: np.ndarray, n: int):
    dims = F.block_dims(n)
    D = sum(dims)
    dual = F.base.dual
    p = F.base.p
    out = []
    off = 0
    for i in range(F.rank):
        d = n + F.twists[i]
        mons = monomials(d)
        terms = {}
        for j in range(dims[i]):
            a = int(vec[off + j]) % p
            b = int(vec[D + off + j]) % p if dual else 0
            if a or b:
                terms[mons[j]] = (a, b)
        out.append(Poly(F.base, terms))
        off += dims[i]
    return tuple(out)


class GradedMap:
    """A degree-0 map between twisted free modules, as a Poly matrix."""

    __slots__ = ("source", "target", "matrix", "_cache")

    def __init__(self, source: FreeModule, target: FreeModule, matrix):
        if source.base != target.base:
            raise MixedBase("map across base rings")
        self.source = source
        self.target = target
        self.matrix = tuple(tuple(row) for row in matrix)
        if len(self.matrix) != target.rank or any(
            len(r) != source.rank for r in self.matrix
        ):
            raise ValueError("matrix shape does not match ranks")
        for i, row in enumerate(self.matrix):
            for j, f in enumerate(row):
                want = target.twists[i] - source.twists[j]
                if any(sum(e) != want for e in f.terms):
                    raise ValueError(
                        f"entry ({i},{j}) = {f} must be homogeneous of degree {want}"
                    )
        self._cache = {}

    @property
    def base(self):
        return self.source.base

    @staticmethod
    def zero(source: FreeModule, target: FreeModule) -> "GradedMap":
        z = Poly.zero(source.base)
        return GradedMap(
            source, target, [[z] * source.rank for _ in range(target.rank)]
        )

    @staticmethod
    def identity(F: FreeModule) -> "GradedMap":
        one, z = Poly.one(F.base), Poly.zero(F.base)
        return GradedMap(F, F, [[one if i == j else z for j in range(F.rank)] for i in range(F.rank)])

    @staticmethod
    def from_columns(target: FreeModule, columns, degrees) -> "GradedMap":
        """Map whose source generators hit the given elements of target."""
        source = FreeModule(target.base, [-d for d in degrees])
        matrix = [
            [columns[j][i] for j in range(len(columns))]
            for i in range(target.rank)
        ]
        return GradedMap(source, target, matrix)

    @staticmethod
    def hstack(*maps) -> "GradedMap":
        """The maps side by side, [f | g | ...]: one map into their common
        target from the direct sum of their sources, in order."""
        target = maps[0].target
        if any(m.target != target for m in maps):
            raise ValueError("maps side by side need one target")
        source = FreeModule(target.base, [t for m in maps for t in m.source.twists])
        rows = [sum((m.matrix[i] for m in maps), ()) for i in range(target.rank)]
        return GradedMap(source, target, rows)

    def column(self, j: int):
        return tuple(self.matrix[i][j] for i in range(self.target.rank))

    def lift(self, X: "GradedMap"):
        """A map Y with self o Y = X, X a map into self's target, lifted one
        degree of X's columns at a time against one matrix of self: a zero
        column lifts to zero.  None when a column has no preimage."""
        if X.target != self.target:
            raise ValueError("a lift needs a map into the target")
        cols = [self.source.zero_element()] * X.source.rank
        by_degree = {}
        for j in range(X.source.rank):
            if any(not f.is_zero() for f in X.column(j)):
                by_degree.setdefault(-X.source.twists[j], []).append(j)
        for n, js in by_degree.items():
            rhs = np.array([element_to_vector(self.target, X.column(j), n) for j in js]).T
            sol = linalg.solve(self.matrix_at(n), rhs, self.base.p)
            if sol is None:
                return None
            for k, j in enumerate(js):
                cols[j] = vector_to_element(self.source, sol[:, k], n)
        return GradedMap.from_columns(self.source, cols, [-t for t in X.source.twists])

    def preimage(self, elem, n: int):
        """One element of the source that maps to elem, a degree-n element of
        the target; None when elem is not in the image."""
        Y = self.lift(GradedMap.from_columns(self.target, [elem], [n]))
        return None if Y is None else Y.column(0)

    def apply(self, elem):
        """Image of an element of the source (tuple of Polys)."""
        out = []
        for i in range(self.target.rank):
            acc = Poly.zero(self.base)
            for j in range(self.source.rank):
                acc = acc + self.matrix[i][j] * elem[j]
            out.append(acc)
        return tuple(out)

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self o other."""
        if other.target != self.source:
            raise ValueError("composition shape mismatch")
        cols = [self.apply(other.column(j)) for j in range(other.source.rank)]
        matrix = [
            [cols[j][i] for j in range(other.source.rank)]
            for i in range(self.target.rank)
        ]
        return GradedMap(other.source, self.target, matrix)

    def is_zero(self) -> bool:
        return all(f.is_zero() for row in self.matrix for f in row)

    def dual(self) -> "GradedMap":
        """Hom(-, R): transposed matrix between dualized modules."""
        src = self.target.dual()
        tgt = self.source.dual()
        matrix = [
            [self.matrix[i][j] for i in range(self.target.rank)]
            for j in range(self.source.rank)
        ]
        return GradedMap(src, tgt, matrix)

    def shift(self, h: int) -> "GradedMap":
        return GradedMap(self.source.shift(h), self.target.shift(h), self.matrix)

    def fiber(self) -> "GradedMap":
        k = self.base.field()
        return GradedMap(
            FreeModule(k, self.source.twists),
            FreeModule(k, self.target.twists),
            [[f.fiber() for f in row] for row in self.matrix],
        )

    def cells_at(self, n: int):
        """(rows, cols, values, shape): the nonzero cells of the k-linear
        matrix of the map on degree-n stacked pieces, as int arrays.

        Column block j holds the images of the monomials of source summand
        j.  Each term a*x^e (+ b*e*x^e over A) of entry (i, j) fills, in
        every column of the block, one cell of row block i: the rows
        monomial_shift(d, e), d the block's monomial degree, with a in the
        fiber half and b in the epsilon half.  Distinct terms hit distinct
        cells.  Over A the epsilon columns are e times the fiber columns:
        each fiber-half cell again, shifted into the epsilon half of both
        rows and columns.
        """
        p = self.base.p
        dual = self.base.dual
        roffs = np.cumsum([0] + self.target.block_dims(n)).tolist()
        Dt = roffs[-1]
        src_dims = self.source.block_dims(n)
        Ds = sum(src_dims)
        cells = []  # (rows, value, cols): value at (rows[k], cols[k]) for each k
        col = 0
        for j, dim in enumerate(src_dims):
            if dim:
                cols = np.arange(col, col + dim)
                d = n + self.source.twists[j]
                for i in range(self.target.rank):
                    for e, (a, b) in self.matrix[i][j].terms.items():
                        rows = roffs[i] + monomial_shift(d, e)
                        if a % p:
                            cells.append((rows, a % p, cols))
                        if b:
                            if not dual:
                                raise MixedBase("epsilon coefficient over a prime field")
                            if b % p:
                                cells.append((Dt + rows, b % p, cols))
            col += dim
        if cells:
            r = np.concatenate([x for x, _, _ in cells])
            c = np.concatenate([x for _, _, x in cells])
            values = np.array([x for _, x, _ in cells], dtype=np.int64)
            v = np.repeat(values, [len(x) for _, _, x in cells])
        else:
            r = c = np.zeros(0, dtype=np.intp)
            v = np.zeros(0, dtype=np.int64)
        if not dual:
            return r, c, v, (Dt, Ds)
        fib = r < Dt
        return (
            np.concatenate([r, r[fib] + Dt]),
            np.concatenate([c, c[fib] + Ds]),
            np.concatenate([v, v[fib]]),
            (2 * Dt, 2 * Ds),
        )

    def matrix_at(self, n: int) -> np.ndarray:
        """The k-linear matrix of the map on degree-n stacked pieces: the
        dense view of cells_at(n), built afresh on each call."""
        r, c, v, shape = self.cells_at(n)
        out = np.zeros(shape, dtype=np.int64)
        out[r, c] = v
        return out

    def rank_at(self, n: int) -> int:
        """The rank of matrix_at(n), eliminated on rows scattered straight
        from cells_at(n) and cached per degree; 0, with no cells and no
        elimination, when the degree-n piece of the source or the target is
        zero.  The cache holds ranks only."""
        if n not in self._cache:
            if self.source.fiber_dim(n) and self.target.fiber_dim(n):
                self._cache[n] = len(linalg.cell_pivots(*self.cells_at(n), self.base.p))
            else:
                self._cache[n] = 0
        return self._cache[n]

    def __repr__(self):
        rows = ["[" + ", ".join(str(f) for f in row) + "]" for row in self.matrix]
        return f"GradedMap {self.source.twists} -> {self.target.twists}\n" + "\n".join(rows)


# -- generator extraction ------------------------------------------------


def min_generators(F: FreeModule, piece_fn, dim_fn, cap: int) -> GradedMap:
    """Minimal generators of a graded submodule of F described degreewise,
    as the map onto them from a free module (source twist -n for a degree-n
    generator), in the order they are found.

    piece_fn(n) returns a matrix whose columns span the degree-n piece
    (closed under epsilon over A), in the coordinates of element_to_vector(F,
    ., n): the monomial blocks of F's summands, stacked (fiber; epsilon) over
    A.  dim_fn(n) is the k-dimension of that piece.  An ideal is the rank-1
    case F = R.

    known is the map onto the generators found so far.  When its degree-n
    rank fills the piece the degree has no new generator, and the piece is
    never built.  Otherwise one elimination of [known's degree-n columns |
    e * piece (over A) | piece] picks the new generators: the piece columns
    outside the span of the columns before them, the piece block last.  A
    grown map keeps known's cached ranks below n, where it has no new
    column; every other rank is eliminated on the grown map's own cells.

    dim_fn may read a dimension off a theorem instead of an elimination (see
    _resolve), so a piece that is built must have dim_fn(n) columns, or
    CertificationError.
    """
    p = F.base.p
    known = GradedMap.from_columns(F, [], [])
    for n in range(F.min_degree(), cap + 1):
        dim = dim_fn(n)
        if dim == 0 or known.rank_at(n) == dim:
            continue
        piece = piece_fn(n)
        if piece.shape[1] != dim:
            raise CertificationError(f"the degree-{n} piece has dimension {piece.shape[1]}, not {dim}")
        blocks = np.concatenate([linalg.eps_times(piece), piece], axis=1) if F.base.dual else piece
        blocks = blocks % p
        r, c, v, (height, width) = known.cells_at(n)
        br, bc = np.nonzero(blocks)
        start = width + blocks.shape[1] - piece.shape[1]
        pivots = linalg.cell_pivots(
            np.concatenate([r, br]),
            np.concatenate([c, bc + width]),
            np.concatenate([v, blocks[br, bc]]),
            (height, width + blocks.shape[1]),
            p,
        )
        new = [vector_to_element(F, piece[:, j - start], n) for j in pivots if j >= start]
        cols = [known.column(j) for j in range(known.source.rank)] + new
        degs = [-t for t in known.source.twists] + [n] * len(new)
        grown = GradedMap.from_columns(F, cols, degs)
        grown._cache.update((m, rk) for m, rk in known._cache.items() if m < n)
        known = grown
    return known


def _min_quotient_gens(K: GradedMap, B: GradedMap):
    """Indices of K columns minimally generating (im K + im B)/(im B).

    In degree d the candidates are the fiber columns of K's degree-d
    generators; K's other degree-d columns span m * im K + e * im K.  One
    elimination of [B | those columns | candidates] picks the candidates
    outside the span of the columns before them.
    """
    p = K.base.p
    chosen = []
    for d in sorted(set(-t for t in K.source.twists)):
        cands = [j for j, t in enumerate(K.source.twists) if -t == d]
        r, c, v, (height, width) = K.cells_at(d)
        br, bc, bv, (_, bwidth) = B.cells_at(d)
        # a degree-d generator spans a one-column block of the fiber half
        last = np.cumsum([0] + K.source.block_dims(d))[cands]
        is_cand = np.zeros(width, dtype=bool)
        is_cand[last] = True
        start = bwidth + width - len(cands)
        pos = np.empty(width, dtype=np.intp)
        pos[~is_cand] = np.arange(bwidth, start)
        pos[last] = np.arange(start, bwidth + width)
        pivots = linalg.cell_pivots(
            np.concatenate([br, r]),
            np.concatenate([bc, pos[c]]),
            np.concatenate([bv, v]),
            (height, bwidth + width),
            p,
        )
        chosen.extend(cands[j - start] for j in pivots if j >= start)
    return chosen


def kernel_min_gens(phi: GradedMap, cap: int) -> GradedMap:
    """Map onto ker(phi) from a free module on its minimal generators."""

    def piece(n):
        return linalg.kernel_basis(phi.matrix_at(n), phi.base.p)

    def dim(n):
        return phi.source.piece_dim(n) - phi.rank_at(n)

    return min_generators(phi.source, piece, dim, cap)


def image_min_gens(phi: GradedMap) -> GradedMap:
    """Map onto im(phi) from a free module on its minimal generators.

    The scan ends at t, the top degree of phi's source generators e_j of
    degrees d_j.  Past t no degree has a new generator: for n > t every
    d_j < n, so im(phi)_n = sum_j R_{n-d_j} * phi(e_j) = R_1 * im(phi)_{n-1},
    which the generators found below n already generate.

    The piece dimensions are phi's ranks, eliminated or, when phi's image is
    an ideal, read off its Hilbert numerator and cached on phi by _resolve;
    min_generators checks each piece it builds against them.
    """
    p = phi.base.p

    def piece(n):
        return linalg.column_basis(phi.matrix_at(n), p)

    top = max((-t for t in phi.source.twists), default=phi.target.min_degree())
    return min_generators(phi.target, piece, phi.rank_at, top)


# -- graded modules ------------------------------------------------------


class GradedModule:
    """Cokernel of a graded map between twisted free modules."""

    __slots__ = ("presentation", "_cache")

    def __init__(self, presentation: GradedMap):
        self.presentation = presentation
        self._cache = {}

    @property
    def base(self):
        return self.presentation.base

    @property
    def F0(self) -> FreeModule:
        return self.presentation.target

    @property
    def F1(self) -> FreeModule:
        return self.presentation.source

    @staticmethod
    def free(base: BaseRing, twists) -> "GradedModule":
        """The free module on twists; its presentation, from the zero module,
        is its minimal resolution, cached so that none is computed."""
        M = GradedModule(GradedMap.zero(FreeModule(base, []), FreeModule(base, twists)))
        M._cache["resolution"] = [M.presentation]
        return M

    @staticmethod
    def zero(base: BaseRing) -> "GradedModule":
        return GradedModule.free(base, [])

    @staticmethod
    def quotient_by_ideal(ideal) -> "GradedModule":
        """R_A / I as a graded module.  It keeps the ideal, so its pieces and
        the ranks of its resolution's first map are read off the ideal's
        Hilbert numerator (piece_dim, _resolve); the ideal refers to no
        module, so that forms no reference cycle."""
        M = GradedModule(ideal.generator_map())
        M._cache["ideal"] = ideal
        return M

    def shift(self, h: int) -> "GradedModule":
        """M(h), with a known K-polynomial and regularity carried: the
        minimal resolution of M(h) is M's shifted, so K(M(h)) = {t + h: c}
        and reg M(h) = reg M - h."""
        out = GradedModule(self.presentation.shift(h))
        if "kpoly" in self._cache:
            out._cache["kpoly"] = {t + h: c for t, c in self._cache["kpoly"].items()}
        reg = self.known_regularity()
        if reg is not None:
            out._cache["reg"] = reg - h
        return out

    def fiber(self) -> "GradedModule":
        """The fiber module, cached so that its resolution is computed once;
        the fiber of R_A/I is R/I_fiber, and keeps the fiber ideal."""
        if "fiber" not in self._cache:
            fib = GradedModule(self.presentation.fiber())
            if "ideal" in self._cache:
                fib._cache["ideal"] = self._cache["ideal"].fiber()
            self._cache["fiber"] = fib
        return self._cache["fiber"]

    def tensor_residue_field(self) -> "GradedModule":
        """M tensor_A k: over a field this is M itself."""
        return self.fiber() if self.base.dual else self

    def piece_dim(self, n: int) -> int:
        """k-dimension of M_n; for R/I, F0_n minus Ideal.piece_dim(n), with
        no elimination."""
        ideal = self._cache.get("ideal")
        return self.F0.piece_dim(n) - (self.presentation.rank_at(n) if ideal is None else ideal.piece_dim(n))

    def min_degree(self) -> int:
        return self.F0.min_degree()

    # -- minimal presentation -----------------------------------------

    def minimal_presentation(self) -> "GradedModule":
        """The module on a minimal presentation: the module itself when no
        unit pivot cancels and no relation column is zero, so that both
        share one resolution.  The cache then holds _MINIMAL, not self: a
        module that referred to itself would outlive its last user until a
        full garbage collection."""
        if "minpres" not in self._cache:
            phi, kept, _ = _minimalize_map(self.presentation)
            minimal = len(kept) == self.F0.rank and phi.source.rank == self.F1.rank
            self._cache["minpres"] = _MINIMAL if minimal else GradedModule(phi)
        mp = self._cache["minpres"]
        return self if mp is _MINIMAL else mp

    def strip_free_summands(self):
        """(M0, stripped twists) with M = M0 + free part.

        Free summands show up in a minimal presentation as generators whose
        relation row is identically zero: no relation touches them, and
        minimality guarantees the splitting is canonical.  With no free
        summand M0 is the minimal presentation itself, which keeps its
        resolution and Ext table.
        """
        minimal = self.minimal_presentation()
        mp = minimal.presentation
        free_rows = [
            i
            for i in range(mp.target.rank)
            if all(mp.matrix[i][j].is_zero() for j in range(mp.source.rank))
        ]
        if not free_rows:
            return minimal, []
        keep = [i for i in range(mp.target.rank) if i not in free_rows]
        stripped = [mp.target.twists[i] for i in free_rows]
        new_target = FreeModule(self.base, [mp.target.twists[i] for i in keep])
        matrix = [[mp.matrix[i][j] for j in range(mp.source.rank)] for i in keep]
        # relations may repeat after dropping rows; prune zero columns
        cols = [
            j
            for j in range(mp.source.rank)
            if any(not matrix[i][j].is_zero() for i in range(len(keep)))
        ]
        new_source = FreeModule(self.base, [mp.source.twists[j] for j in cols])
        matrix = [[matrix[i][j] for j in cols] for i in range(len(keep))]
        return GradedModule(GradedMap(new_source, new_target, matrix)), stripped

    # -- resolutions ----------------------------------------------------

    def resolution(self):
        """Minimal free resolution as a list of GradedMaps F1->F0, F2->F1, ...

        Over F_p exactness and zero composites are certified degreewise up
        to the cap (_certify_resolution).  R/I reads the first map's ranks
        off its ideal, and takes the cap m + 2 of the ideal's regularity
        certificate m when it has one (_resolve).

        Over A the fiber is resolved so, once, and its maps are lifted over
        e (_lift_resolution) to a minimal resolution of the flat coker d_1,
        or NotLiftable; R_A/I first hands its fiber the family's
        nonzerodivisor (Ideal.hand_down_nonzerodivisor).  coker d_1 is the
        module once im d_1, which lies in im phi for phi the minimal
        presentation, is all of it: for R_A/I once the twists count I's
        Hilbert numerator, as im phi lies in I; else once every column of
        phi lies in im d_1, one solve per generator degree, which holds when
        the module is flat, or NotLiftable.

        A kept ideal must hold the relations, and the twists must count the
        ideal's Hilbert numerator, the one the fiber's ranks were read from
        (twice over A, where R_A(t) has twice the k-dimensions of R(t)), or
        CertificationError.  Over A that error comes after the image check,
        so that a module that is not flat is NotLiftable.
        """
        key = "resolution"
        if key in self._cache:
            return self._cache[key]
        ideal = self._cache.get("ideal")
        # a relation outside the ideal would raise the rank in its degree past
        # the ideal's, where min_generators builds no piece to see it; a
        # generator of the ideal lies in it with no normal form
        if ideal is not None and not all(f in ideal.gens or ideal.contains(f) for f in self.presentation.matrix[0]):
            raise CertificationError("a relation of R/I lies outside its ideal")
        if self.base.dual:
            if ideal is not None:
                ideal.hand_down_nonzerodivisor()
            phi = _minimalize_map(self.presentation)[0]
            maps = _lift_resolution(phi, self.fiber().resolution())
        else:
            maps = _resolve(self.presentation, ideal)
        counted = ideal is not None and _twists_count(maps, ideal)
        if self.base.dual and not counted and maps[0].lift(phi) is None:
            raise NotLiftable("a relation lies outside the lifted fiber relations: the module is not flat")
        if ideal is not None and not counted:
            raise CertificationError("the twists of the resolution of R/I do not count its Hilbert numerator")
        self._cache[key] = maps
        return maps

    def syzygy_module(self, k: int) -> "GradedModule":
        """The k-th syzygy module (k >= 1): the cokernel of the k-th map of
        the minimal resolution, which the rest of that resolution resolves.
        Past the projective dimension it is the free module on the source of
        the last map.  Over A the tail is lifted from the fiber's with the
        rest of the resolution, so it needs no lift of its own.

        Its dual complex is the tail of this module's, and for i >= 1 it
        reads Ext^i = Ext^{i+k}(self) off this module's Ext table."""
        key = ("syz", k)
        if key not in self._cache:
            maps = self.resolution()
            if k < len(maps):
                S = GradedModule(maps[k])
                S._cache["resolution"] = maps[k:]
                S._cache["dualcx"] = _dual_complex(self)[k:]
                _share_ext_table(S, self, k, 1)
            else:
                S = GradedModule.free(self.base, maps[k - 1].source.twists)
            self._cache[key] = S
        return self._cache[key]

    def _betti_maps(self):
        """A minimal resolution with the fiber's twists: the cached one,
        which has them over A too (see kpolynomial), else the fiber's."""
        return self._cache.get("resolution") or self.tensor_residue_field().resolution()

    def regularity(self) -> int:
        key = "reg"
        if key not in self._cache:
            self._cache[key] = _twist_regularity(self._betti_maps())
        return self._cache[key]

    def known_regularity(self):
        """The regularity when no resolution is needed for it, else None; None
        too for the zero module, whose regularity 0 no shift or sum carries.
        A "reg" cached with no resolution beside it belongs to a nonzero
        module: is_finite_length, shift and direct_sum keep only those."""
        maps = self._cache.get("resolution") or self._cache.get("fiber", self)._cache.get("resolution")
        if maps is None:
            return self._cache.get("reg")
        return _twist_regularity(maps) if maps[0].target.rank else None

    def projective_dimension(self):
        """(module pd, sheaf dp): sheaf dp is the largest i > 0 with
        Ext^i(M, R) of infinite length (0 when none)."""
        key = "pd"
        if key in self._cache:
            return self._cache[key]
        maps = self.resolution()
        pd = sum(1 for m in maps if m.source.rank)
        dp = 0
        for i in range(1, pd + 1):
            E = ext_module(self, i)
            if E.F0.rank and not E.is_finite_length():
                dp = i
        self._cache[key] = (pd, dp)
        return (pd, dp)

    def is_finite_length(self) -> bool:
        """Whether the module has finite length, decided by a witness point
        or from its pieces where they show it.

        A witness point P (_support_witness) with M tensor k(P) = coker
        phi(P) nonzero lies in the support of M's sheaf, so M has infinite
        length.  That test only ever answers "infinite"; a module whose
        support misses every point tried falls through to the scan.

        Let g be the top generator degree.  A zero piece M_n with n >= g
        proves finite length, since then M_{n+1} = R_1 * M_n = 0, and the
        top nonzero degree is the regularity (Eisenbud, The Geometry of
        Syzygies, Cor. 4.18; over A the fiber has the same nonzero degrees,
        by Nakayama).  It is cached for a nonzero module only: regularity()
        of the zero module is 0.  The scan looks at the eight degrees g ..
        g + 7, which holds the first zero piece of the Ext^3 of five skew
        lines over F_2, three degrees past its generators.  With no zero
        piece there the resolution decides with one piece: the regularity
        reg is at least g, so M_{reg+1} = 0 forces every later piece to
        vanish, and a module of finite length has its top nonzero piece at
        reg, by the same corollary.  The answer is cached.
        """
        if "finite" not in self._cache:
            self._cache["finite"] = _finite_length(self)
        return self._cache["finite"]

    def kpolynomial(self) -> dict:
        """Signed twist counts of the fiber resolution: determines the
        Hilbert function in every degree.  Cached, and carried by shift,
        direct_sum and ideal_mod_surface.  A module with no relations counts
        its own twists, one with a cached resolution F reads them off F.
        Over A, F has the fiber's twists: resolution() lifts F from the
        fiber's, and a syzygy module or extravertize's N is flat, so F
        tensor_A k resolves M tensor_A k minimally (Tor_i^A(M, k) = 0 for
        i > 0).
        """
        if "kpoly" not in self._cache:
            self._cache["kpoly"] = _twist_kpolynomial(self._betti_maps() if self.F1.rank else [self.presentation])
        return self._cache["kpoly"]

    def carry_kpolynomial(self, src: "GradedModule", twists=(), sign: int = 1):
        """Set K(self) = K(src) + sign * sum of t^t over twists, proved by the
        caller, when K(src) needs no resolution of its own."""
        if "kpoly" in src._cache or "resolution" in src._cache or not src.F1.rank:
            k = dict(src.kpolynomial())
            for t in twists:
                k[t] = k.get(t, 0) + sign
            self._cache["kpoly"] = {t: c for t, c in k.items() if c}

    def __repr__(self):
        return (
            f"GradedModule(F1={self.F1.twists} -> F0={self.F0.twists})"
        )


_MINIMAL = object()

_WITNESS_POINTS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 2, 3, 5))


def _finite_length(M: GradedModule) -> bool:
    """GradedModule.is_finite_length, uncached."""
    g = max((-t for t in M.F0.twists), default=None)
    if g is None:
        return True
    if _support_witness(M.presentation):
        return False
    for n in range(g, g + 8):
        if not M.piece_dim(n):
            lo = M.min_degree()
            top = next((m for m in range(n - 1, lo - 1, -1) if M.piece_dim(m)), None)
            if top is not None:
                M._cache["reg"] = top
            return True
    return not M.piece_dim(M.regularity() + 1)


def _support_witness(phi: GradedMap) -> bool:
    """Whether the fiber of phi, evaluated at one of the coordinate points
    or (1, 2, 3, 5), has rank below rank F0.  At such a point P coker(phi)
    tensor k(P) is not zero, so by Nakayama P is in the support of its
    sheaf.  One elimination ranks the five evaluations as blocks of one
    block-diagonal matrix."""
    p = phi.base.p
    m, n = phi.target.rank, phi.source.rank
    rows, cols, vals = [], [], []
    for i, row in enumerate(phi.matrix):
        for j, f in enumerate(row):
            at = [0] * len(_WITNESS_POINTS)
            for e, (a, _) in f.terms.items():
                for k, P in enumerate(_WITNESS_POINTS):
                    at[k] += a * prod(pow(c, x, p) for c, x in zip(P, e))
            for k, v in enumerate(at):
                if v % p:
                    rows.append(k * m + i)
                    cols.append(k * n + j)
                    vals.append(v % p)
    shape = (len(_WITNESS_POINTS) * m, len(_WITNESS_POINTS) * n)
    cells = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(vals, dtype=np.int64))
    return len(linalg.cell_pivots(*cells, shape, p)) < shape[0]


def _minimalize_map(phi: GradedMap):
    """Cancel unit pivots: remove generator/relation pairs joined by a
    degree-0 unit entry, then drop zero relation columns.

    Returns (phi_min, kept, exprs): kept lists the original cover generators
    that survive, in order, and exprs[r] writes original generator r, modulo
    the image of phi, as a tuple of Polys over the kept generators.
    """
    base = phi.base
    matrix = [list(row) for row in phi.matrix]
    tgt = list(phi.target.twists)
    src = list(phi.source.twists)
    live = list(range(phi.target.rank))  # original index of each current row
    expr = [{r: Poly.one(base)} for r in live]
    while True:
        pivot = None
        for i in range(len(tgt)):
            for j in range(len(src)):
                f = matrix[i][j]
                if f.is_zero() or tgt[i] != src[j]:
                    continue
                c = f.coefficient((0, 0, 0, 0))
                if c[0] % base.p:
                    pivot = (i, j, c)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j, c = pivot
        inv = base.scalar(c[0], c[1]).invert()
        # column ops: clear row i using column j
        for jj in range(len(src)):
            if jj == j or matrix[i][jj].is_zero():
                continue
            factor = matrix[i][jj].scale(inv)
            for ii in range(len(tgt)):
                matrix[ii][jj] = matrix[ii][jj] - matrix[ii][j] * factor
        # relation column j rewrites generator live[i] over the other rows
        repl = {
            live[ii]: matrix[ii][j].scale(inv).scale_int(base.p - 1)
            for ii in range(len(tgt))
            if ii != i and not matrix[ii][j].is_zero()
        }
        for terms in expr:
            coef = terms.pop(live[i], None)
            if coef is not None:
                for g, val in repl.items():
                    terms[g] = terms.get(g, Poly.zero(base)) + coef * val
        # generator i is now expressed by relation j: drop both
        matrix = [
            [matrix[ii][jj] for jj in range(len(src)) if jj != j]
            for ii in range(len(tgt))
            if ii != i
        ]
        del tgt[i]
        del src[j]
        del live[i]
    cols = [
        j
        for j in range(len(src))
        if any(not matrix[i][j].is_zero() for i in range(len(tgt)))
    ]
    matrix = [[matrix[i][j] for j in cols] for i in range(len(tgt))]
    phi_min = GradedMap(
        FreeModule(base, [src[j] for j in cols]),
        FreeModule(base, tgt),
        matrix,
    )
    pos = {g: a for a, g in enumerate(live)}
    exprs = []
    for terms in expr:
        col = [Poly.zero(base)] * len(live)
        for g, val in terms.items():
            col[pos[g]] = col[pos[g]] + val
        exprs.append(tuple(col))
    return phi_min, live, exprs


def _resolve(phi: GradedMap, ideal=None):
    """Minimal free resolution of coker(phi) over F_p, complete by theorem
    when phi's image is an ideal with a regularity certificate.  Over A,
    resolution() lifts the fiber's instead (_lift_resolution).

    ideal, when given, is the ideal I of R that phi's image must be.  Its
    ranks Ideal.piece_dim(n) = dim_k im(phi)_n are read off the Hilbert
    numerator of I's Groebner basis, since the standard monomials of its
    lead ideal are a k-basis of R/I (Macaulay; Eisenbud, Commutative
    Algebra, Thm 15.3).  The relations
    rel that image_min_gens picks span im(phi) = I too, so phi and rel get
    those ranks, as ints in their rank caches, in every degree up to the
    cap, and neither is eliminated for a rank.  Two cross-checks stand in
    for the eliminations.  min_generators compares each piece it builds,
    of im(phi) or of ker(rel), with the given dimension.  And
    _certify_resolution makes the alternating sum of the free modules'
    pieces in each degree n <= cap equal dim_k R_n - rank(n), so
    resolution() compares the twists with the Hilbert numerator the ranks
    were read from.

    The cap is m + 2 for the degree m of Ideal.regularity_certificate, at
    or above the top degree of rel's generators.  I is m-regular, so
    beta_{j,d}(R/I) = 0 for d > m + j - 1; and pd(R/I) <= 3, since the
    certificate's nonzerodivisor gives depth R/I >= 1 (Auslander-Buchsbaum).
    So every syzygy generator lies in degree <= m + 2, and a resolution
    whose regularity exceeds the certified one is a CertificationError.
    With no ideal or no certificate, _resolve_by_growing_cap takes the cap.
    """
    phi = _minimalize_map(phi)[0]
    if not phi.target.rank:
        ideal = None  # a unit pivot cancelled R: R/I = 0
    gen_top = max((-t for t in phi.target.twists), default=0)
    rel_top = max((-t for t in phi.source.twists), default=gen_top)
    lo = phi.target.min_degree()
    rank = None if ideal is None else ideal.piece_dim
    if rank is not None:
        phi._cache.update((n, rank(n)) for n in range(lo, rel_top + 1))
    # relations must minimally generate the relation submodule, else the
    # next syzygy step would pick up unit entries
    rel = image_min_gens(phi)
    m = None
    if ideal is not None and rel.source.rank:
        m = ideal.regularity_certificate(max(-t for t in rel.source.twists))
    if m is None:
        return _resolve_by_growing_cap(rel, rank, lo, rel_top + 4)
    rel._cache.update((n, rank(n)) for n in range(lo, m + 3))
    maps = _resolve_at_cap(rel, m + 2)
    if _twist_regularity(maps) + 1 > m:
        raise CertificationError(f"the resolution has regularity past the certified {m}")
    _certify_resolution(maps, m + 2)
    return maps


def _resolve_by_growing_cap(rel: GradedMap, rank, lo: int, cap: int):
    """rel's resolution where no certificate proves a cap: taken to cap,
    whose regularity reg then asks for the cap reg + 4, retried up to five
    times until the cap reaches it; certified to reg + 4."""
    for _ in range(5):
        if rank is not None:
            rel._cache.update((n, rank(n)) for n in range(lo, cap + 1))
        maps = _resolve_at_cap(rel, cap)
        # syzygy generators at homological step j live in degrees <= reg + j
        needed = _twist_regularity(maps) + 4
        if cap >= needed:
            _certify_resolution(maps, needed)
            return maps
        cap = needed + 2
    raise CertificationError("resolution cap failed to stabilize")


def _twist_regularity(maps) -> int:
    """The regularity read off the twists of a minimal resolution F_1 -> F_0,
    F_2 -> F_1, ...: the largest -t - j over the twists t of F_j."""
    reg = max((-t for t in maps[0].target.twists), default=0)
    for j, m in enumerate(maps, start=1):
        reg = max([reg] + [-t - j for t in m.source.twists])
    return reg


def _twists_count(maps, ideal) -> bool:
    """Whether the twists of maps, a resolution of R/I, count the Hilbert
    numerator of I over k: each twist twice over A, where R_A(t) has twice
    the k-dimensions of R(t)."""
    scale = 2 if ideal.base.dual else 1
    twists = {-t: scale * c for t, c in _twist_kpolynomial(maps).items()}
    return twists == {n: k for n, k in enumerate(ideal.hilbert_numerator()) if k}


def _twist_kpolynomial(maps) -> dict:
    """{t: sum over j of (-1)^j times the number of twists t of F_j}, with no
    zero, for the free modules F_0, F_1, ... of maps F_1 -> F_0, ...."""
    steps = [maps[0].target.twists] + [m.source.twists for m in maps]
    out = {}
    for j, twists in enumerate(steps):
        for t in twists:
            out[t] = out.get(t, 0) + (-1) ** j
    return {t: c for t, c in out.items() if c}


def _resolve_at_cap(rel: GradedMap, cap: int):
    """rel followed by its syzygy maps, each up to cap."""
    maps = [rel]
    cur = rel
    for _ in range(4):
        if cur.source.rank == 0:
            break
        syz = kernel_min_gens(cur, cap)
        if syz.source.rank == 0:
            break
        maps.append(syz)
        cur = syz
    return maps


def _check_composites(maps):
    """Every composition d_k o d_{k+1} is zero, or CertificationError.  It
    is zero when its k-linear matrix is, in each degree n of a generator of
    d_{k+1}'s source: an R-linear map that kills every generator is zero,
    and a degree-n vector is zero exactly when its degree-n coordinates are
    (over A, matrix_at is the k-linear block matrix)."""
    for a, b in zip(maps, maps[1:]):
        for n in set(-t for t in b.source.twists):
            if linalg.matmul(a.matrix_at(n), b.matrix_at(n), a.base.p).any():
                raise CertificationError("nonzero composition in resolution")


def _certify_resolution(maps, cap: int):
    """Every composition is zero (_check_composites), and ker = im in every
    degree up to cap, read off the ranks of the maps' own matrices.  Each
    image rank is eliminated.  Each kernel dimension is eliminated too,
    except that of R/I's first map, whose cached ranks _resolve read off the
    ideal's Hilbert numerator (Macaulay's theorem); resolution()
    cross-checks them against the twists."""
    _check_composites(maps)
    lo = min(m.target.min_degree() for m in maps)
    for i, m in enumerate(maps):
        nxt = maps[i + 1] if i + 1 < len(maps) else None
        for n in range(lo, cap + 1):
            ker = m.source.piece_dim(n) - m.rank_at(n)
            im = nxt.rank_at(n) if nxt else 0
            if ker != im:
                raise CertificationError(
                    f"exactness fails at step {i+1}, degree {n}: "
                    f"kernel {ker}, image {im}"
                )


def _lift_resolution(phi: GradedMap, fiber_maps):
    """The minimal resolution F of the flat module coker d_1 over A, lifted
    from fiber_maps, the certified minimal resolution F^0 of the fiber of
    coker(phi), phi a minimal presentation: d_i = d_i^0 + e*X_i, X_i over k.

    d_1 sends the fiber's relations to their images under phi: d_1 = phi Y
    for the Y over k with phi^0 Y = d_1^0, one linalg.solve per generator
    degree (GradedMap.lift).  phi^0 has the target of the fiber's minimal
    presentation, since a unit over A is one exactly when its fiber is.
    For i >= 2, X_i solves d_{i-1}^0 X_i = -X_{i-1} d_i^0, one solve per
    generator degree of F_i: then d_{i-1} d_i = e*(d_{i-1}^0 X_i + X_{i-1}
    d_i^0) = 0.  Zero composites are still checked (_check_composites).

    Proof that F resolves coker d_1 minimally, and that it is flat (Artin,
    Lectures on Deformations of Singularities, 1976; Hartshorne,
    Deformation Theory, 2010).  F is a complex of free A-modules, and e*F =
    F/eF = F^0, so 0 -> F^0 -e-> F -> F^0 -> 0 is an exact sequence of
    complexes.  F^0 is exact past F_0, so its long exact sequence gives
    H_i(F) = 0 for i >= 1 and 0 -> H_0(F^0) -> H_0(F) -> H_0(F^0) -> 0:
    H_0(F) = coker d_1 is flat with fiber coker phi^0.  F is minimal as F^0
    is: its entries lie in (X, Y, Z, W, e).  As F is exact, the rank of d_i
    in degree n is the alternating sum of dim (F_j)_n over j >= i, twice
    F^0's, so each map's rank cache gets twice its fiber's ranks.

    Conversely, when coker(phi) is flat every lift exists, whatever the X_i
    before it, and im d_1 = im phi: the kernels K_i of F_i -> F_{i-1} are
    flat, so K_i tensor k = ker d_i^0 = im d_{i+1}^0, and by graded
    Nakayama any lifts of the fiber's generators of K_i tensor k generate
    K_i.  So a syzygy that does not lift proves coker(phi) not flat:
    NotLiftable.
    """
    base = phi.base
    Y = phi.fiber().lift(fiber_maps[0])
    if Y is None:
        raise CertificationError("the fiber's relations lie outside its presentation's image")
    Y = GradedMap(FreeModule(base, Y.source.twists), phi.source, [[f.lift(base) for f in row] for row in Y.matrix])
    maps = [phi.compose(Y)]
    for prev0, d0 in zip(fiber_maps, fiber_maps[1:]):
        X = prev0.lift(_eps_part(maps[-1]).compose(d0))
        if X is None:
            raise NotLiftable("a syzygy of the fiber does not lift over e: the module is not flat")
        maps.append(_plus_eps(base, d0, X, -1))
    for m, m0 in zip(maps, fiber_maps):
        m._cache.update((n, 2 * rk) for n, rk in m0._cache.items())
    _check_composites(maps)
    return maps


def _eps_part(m: GradedMap) -> GradedMap:
    """X over k with m = m^0 + e*X over A."""
    k = m.base.field()
    return GradedMap(
        FreeModule(k, m.source.twists),
        FreeModule(k, m.target.twists),
        [[Poly(k, {e: (b, 0) for e, (_, b) in f.terms.items()}) for f in row] for row in m.matrix],
    )


def _plus_eps(base: BaseRing, m0: GradedMap, X: GradedMap, sign: int = 1) -> GradedMap:
    """m0 + sign*e*X over A, for maps m0 and X over k."""
    p = base.p

    def entry(i, j):
        terms = {e: (a, 0) for e, (a, _) in m0.matrix[i][j].terms.items()}
        for e, (b, _) in X.matrix[i][j].terms.items():
            terms[e] = (terms.get(e, (0, 0))[0], sign * b % p)
        return Poly(base, terms)

    return GradedMap(
        FreeModule(base, m0.source.twists),
        FreeModule(base, m0.target.twists),
        [[entry(i, j) for j in range(m0.source.rank)] for i in range(m0.target.rank)],
    )


# -- Hom ------------------------------------------------------------------


class ModuleHom:
    """A module homomorphism M -> N, carried by a map on covers F0 -> G0."""

    __slots__ = ("source", "target", "f0")

    def __init__(self, source: GradedModule, target: GradedModule, f0: GradedMap):
        self.source = source
        self.target = target
        self.f0 = f0

    def is_surjective_up_to(self, top: int) -> bool:
        """Whether [f0 | target relations] fills the target cover in every
        degree up to top."""
        joint = GradedMap.hstack(self.f0, self.target.presentation)
        F0 = self.target.F0
        return all(joint.rank_at(n) == F0.piece_dim(n) for n in range(F0.min_degree(), top + 1))

    def compose(self, other: "ModuleHom") -> "ModuleHom":
        return ModuleHom(other.source, self.target, self.f0.compose(other.f0))


def hom_space(M: GradedModule, N: GradedModule):
    """Basis of Hom(M, N)_0 as ModuleHoms onto N's minimal presentation, the
    one PieceCalculus(N) works on (find_module_iso passes minimal ones).

    Hom is left exact, Hom(M, N) = ker(Hom(F0, N) -> Hom(F1, N)): generator
    e_j of degree d_j goes to any v_j in N_{d_j} that kills every relation of
    M.  Piece coordinates are N_n itself, so the kernel of _hom_matrix is
    Hom(M, N)_0 exactly, with nothing to quotient out; v_j sits on the
    non-pivot cover coordinates of f0(e_j).
    """
    pc = PieceCalculus(N)
    mat, offs = _hom_matrix(pc, M.presentation, 0)
    degs = [-t for t in M.F0.twists]
    G0 = pc.M.F0
    out = []
    for sol in linalg.kernel_basis(mat, pc.p).T:
        cols = []
        for j, d in enumerate(degs):
            vec = np.zeros(G0.piece_dim(d), dtype=np.int64)
            vec[pc._reducer(d)[2]] = sol[offs[j] : offs[j + 1]]
            cols.append(vector_to_element(G0, vec, d))
        out.append(ModuleHom(M, pc.M, GradedMap.from_columns(G0, cols, degs)))
    return out


def _hom_matrix(pc: PieceCalculus, phi: GradedMap, n: int):
    """(matrix, column offsets) whose kernel is Hom(coker phi, N)_n, N the
    module of pc: a column block for the image v_j in N_{d_j + n} of each
    generator of degree d_j, and a row block for each relation
    sum_j phi_ja e_j of degree e_a, which must vanish in N_{e_a + n}:
    sum_j mult_matrix(phi_ja, d_j + n) v_j = 0."""
    gens = [n - t for t in phi.target.twists]
    rels = [n - t for t in phi.source.twists]
    offs = np.cumsum([0] + [pc.dim(d) for d in gens])
    rows = np.cumsum([0] + [pc.dim(e) for e in rels])
    mat = np.zeros((rows[-1], offs[-1]), dtype=np.int64)
    for a in range(len(rels)):
        for j, d in enumerate(gens):
            f = phi.matrix[j][a]
            if not f.is_zero() and offs[j] < offs[j + 1] and rows[a] < rows[a + 1]:
                mat[rows[a] : rows[a + 1], offs[j] : offs[j + 1]] = pc.mult_matrix(f, d)
    return mat, offs


def random_hom(homs, rng, base) -> ModuleHom:
    """Random A-linear combination of a hom basis."""
    p = base.p
    M, N = homs[0].source, homs[0].target
    F0, G0 = homs[0].f0.source, homs[0].f0.target
    acc = [[Poly.zero(base) for _ in range(F0.rank)] for _ in range(G0.rank)]
    for h in homs:
        c = rng.randrange(p)
        for i in range(G0.rank):
            for j in range(F0.rank):
                acc[i][j] = acc[i][j] + h.f0.matrix[i][j].scale_int(c)
    return ModuleHom(M, N, GradedMap(F0, G0, acc))


# -- isomorphism testing ---------------------------------------------------


def find_module_iso(M: GradedModule, N: GradedModule, trials: int = 32, seed: int = 0):
    """(kind, witness): kind is 'yes' / 'no' / 'undecided'.

    'no' is certified by a Hilbert-function or K-polynomial mismatch, or by
    an empty hom space.  Two finite-length modules compare their pieces, and
    over A also the pieces of their fibers, in place of their K-polynomials:
    a finite-length fiber's Hilbert function and its K-polynomial determine
    each other, and the fiber has the nonzero degrees of the module (graded
    Nakayama).  Other modules compare K-polynomials, which are read, not
    resolved, where known (kpolynomial); a witness point shows infinite
    length with no piece ranked (is_finite_length); hom_space's basis of
    Hom(M, N)_0 is exact.  'yes' is certified by an exhibited degree-0 hom,
    the witness, onto N's minimal presentation, that is surjective
    degreewise up to the generation bound; combined with equal Hilbert
    functions in every degree this forces an isomorphism.  The witness is
    None unless a hom was exhibited.
    """
    if M.base != N.base:
        raise MixedBase("iso test across base rings")
    Mm = M.minimal_presentation()
    Nm = N.minimal_presentation()
    if Mm.F0.rank == 0 and Nm.F0.rank == 0:
        return "yes", None
    lo = min(Mm.min_degree(), Nm.min_degree())
    if Mm.is_finite_length() and Nm.is_finite_length():
        # equal pieces in every degree, with no resolution
        hi = max(Mm.regularity(), Nm.regularity())
        pairs = [(Mm, Nm)] + ([(Mm.fiber(), Nm.fiber())] if M.base.dual else [])
        if any(X.piece_dim(n) != Y.piece_dim(n) for X, Y in pairs for n in range(lo, hi + 1)):
            return "no", None
    elif Mm.kpolynomial() != Nm.kpolynomial():
        return "no", None
    elif M.base.dual:
        hi = max(Mm.regularity(), Nm.regularity()) + 2
        if any(Mm.piece_dim(n) != Nm.piece_dim(n) for n in range(lo, hi + 1)):
            return "no", None
    homs = hom_space(Mm, Nm)
    if not homs:
        return "no", None
    top = max(
        max((-t for t in Nm.F0.twists), default=0),
        max((-t for t in Mm.F0.twists), default=0),
    )
    rng = random.Random(seed)
    for _ in range(trials):
        f = random_hom(homs, rng, M.base)
        if f.is_surjective_up_to(top):
            return "yes", f
    return "undecided", None


def is_module_iso(M: GradedModule, N: GradedModule, trials: int = 32, seed: int = 0):
    """'yes' / 'no' / 'undecided', certified as in find_module_iso."""
    return find_module_iso(M, N, trials, seed)[0]


# -- Ext ------------------------------------------------------------------

def _dual_complex(M: GradedModule):
    """Maps delta_i: F_i^dual -> F_{i+1}^dual of the dualized resolution."""
    if "dualcx" not in M._cache:
        M._cache["dualcx"] = [m.dual() for m in M.resolution()]
    return M._cache["dualcx"]


def _ext_entry(M: GradedModule, i: int, kind: str = "ext"):
    """(dict, key) under which Ext^i(M, R) (kind "ext") or the cover of the
    cycles at spot i (kind "cycles", see cycles_cover) is kept.

    M's cache holds (table, offset, first): Ext^i for i >= first is kept in
    the dict table under (kind, i + offset), and Ext^i for i < first in M's
    own cache.  A module starts its own table.  A module whose dual complex
    agrees with X's from spot first - 1 on, up to a shift of the spots,
    reads X's table (see _share_ext_table), so each Ext module of one
    resolution is built once.  Ext^i reads delta_{i-1} and delta_i, the
    cycles at spot i only delta_i and the Ext^j with j > i, so the cycles
    are shared from spot first - 1 on.  The table holds only Ext modules and
    maps, so sharing it forms no reference cycle."""
    table, offset, first = M._cache.setdefault("exts", ({}, 0, 0))
    shared = i >= (first - 1 if kind == "cycles" else first)
    return (table, (kind, i + offset)) if shared else (M._cache, (kind, i))


def _share_ext_table(S: GradedModule, X: GradedModule, k: int, first: int):
    """Let S read Ext^i(S) = Ext^{i+k}(X) for i >= first off X's table: the
    k-th syzygy module for i >= 1, and the extraverted N (k = 0) for i >= 2.
    The caller guarantees that spots first - 1, first, ... of S's dual
    complex are the maps at spots first - 1 + k, ... of X's."""
    table, offset, _ = X._cache.setdefault("exts", ({}, 0, 0))
    S._cache["exts"] = (table, offset + k, first)


def _ext_slot(M: GradedModule, i: int):
    """(into, outof, home) pieces of the dualized complex at spot i."""
    deltas = _dual_complex(M)
    pd = len(deltas)
    if i > pd or i < 0:
        return None, None, None
    into = deltas[i] if i < pd else None  # F_i^dual -> F_{i+1}^dual
    outof = deltas[i - 1] if i >= 1 else None  # F_{i-1}^dual -> F_i^dual
    home = outof.target if outof is not None else into.source
    return into, outof, home


def ext_piece_dims(M: GradedModule, i: int, degrees) -> dict:
    """k-dimensions of Ext^i(M, R) in the given degrees.  Twists come
    afterwards: Ext^i(M, R(s))_n = Ext^i(M, R)_{n+s}."""
    into, outof, home = _ext_slot(M, i)
    if home is None:
        return {n: 0 for n in degrees}
    out = {}
    for n in degrees:
        ker = home.piece_dim(n) - (into.rank_at(n) if into is not None else 0)
        im = outof.rank_at(n) if outof is not None else 0
        out[n] = ker - im
    return out


def ext_module(M: GradedModule, i: int) -> GradedModule:
    """Ext^i_{R_A}(M, R_A) as a presented graded module; Ext^i(M, R(s)) is
    ext_module(M, i).shift(s)."""
    return _ext_with_cover(M, i)[0]


def _ext_with_cover(M: GradedModule, i: int):
    """(Ext^i(M, R), K), built once per module and kept in M's Ext table
    (see _ext_entry).

    K = cycles_cover(M, i) maps a free module onto minimal generators of the
    cycles Z_i in F_i^dual, and the Ext module is their subquotient modulo
    the boundaries, on the cover K.source before minimalization.  K is None
    past the projective dimension, where Ext^i is zero.

    At i = pd every element of F_pd^dual is a cycle, so Ext^pd is the
    cokernel of the last dual map F_{pd-1}^dual -> F_pd^dual, on the cover
    F_pd^dual with K the identity.  A minimal resolution has no unit entry,
    so minimalizing that presentation only drops zero columns and the cover
    stays K.source.  For i < pd the relations are the kernel of [K |
    delta_{i-1}], which maps onto Z_i, so by reg A <= max(reg B, reg C + 1)
    they are generated in degrees up to max(top F_{i-1}^dual, cap + 1), cap
    the bound _cycles_cap proves on reg Z_i.
    """
    if i < 0 or i > 4:
        raise ValueError("Ext index out of range")
    store, key = _ext_entry(M, i)
    if key in store:
        return store[key]
    deltas = _dual_complex(M)
    if i > len(deltas):
        return GradedModule.zero(M.base), None
    K = cycles_cover(M, i)
    outof = deltas[i - 1] if i else None
    if i == len(deltas):
        E = GradedModule(outof).minimal_presentation()
    else:
        cap = max(_cycles_cap(M, i) + 1, outof.source.top_degree() if outof else -inf)
        E = subquotient_module(K, outof, cap).minimal_presentation()
    store[key] = (E, K)
    return E, K


def cycles_cover(M: GradedModule, i: int) -> GradedMap:
    """K: the map onto minimal generators of the cycles Z_i = ker(delta_i:
    F_i^dual -> F_{i+1}^dual) of M's dualized minimal resolution, 0 <= i <=
    pd; the identity on F_pd^dual at i = pd.  It is kept in M's Ext table
    (see _ext_entry), so every module whose dual complex holds delta_i reads
    one object: the ideal module at spot 1 is R/I's at spot 2, the E-type E's
    at spot 0 and the extraverted N's at spot 1.  It covers Ext^i(M)
    (_ext_with_cover); extravertize reads Ext^1(M)'s cocycles off spot 1,
    and link a residual off the ideal module's.  Below pd, Z_i is taken up
    to the degree _cycles_cap proves."""
    store, key = _ext_entry(M, i, "cycles")
    if key not in store:
        deltas = _dual_complex(M)
        if i == len(deltas):
            store[key] = GradedMap.identity(deltas[-1].target)
        else:
            store[key] = kernel_min_gens(deltas[i], _cycles_cap(M, i))
    return store[key]


def _cycles_cap(M: GradedModule, i: int) -> int:
    """A bound on reg Z_i, so on the degrees of the generators of Z_i, the
    cycles at spot i < pd of M's dual complex, with B_j the boundaries.

    On 0 -> A -> B -> C -> 0, reg A <= max(reg B, reg C + 1) (Eisenbud, The
    Geometry of Syzygies, Thm 4.3 and Cor. 4.18).  Start at Z_pd = F_pd^dual
    and walk down: 0 -> B_j -> Z_j -> Ext^j -> 0 gives reg B_j <= max(reg
    Z_j, reg Ext^j + 1), and 0 -> Z_{j-1} -> F_{j-1}^dual -> B_j -> 0 gives
    reg Z_{j-1} <= max(top F_{j-1}^dual, reg B_j + 1).  Regularity is taken
    over k[X, Y, Z, W]: over A, R_A(t) = R(t)^2, and the minimal
    R_A-generators of a module lie in degrees that its minimal R-generators
    occupy.  For the ideal module this is max(r + 2, top F1^dual, top
    F2^dual + 1), r the top degree of the finite-length Ext^2."""
    deltas = _dual_complex(M)
    reg = deltas[-1].target.top_degree()
    for j in range(len(deltas), i, -1):
        boundaries = max(reg, _ext_regularity(ext_module(M, j)) + 1)
        reg = max(deltas[j - 1].source.top_degree(), boundaries + 1)
    # -inf only when F_i^dual is zero, with no cycles to take
    return max(reg, deltas[i].source.min_degree() - 1)


def _ext_regularity(E: GradedModule):
    """reg E over k[X, Y, Z, W], -inf for E = 0.  A finite-length E has it at
    its top nonzero degree, over A too (Nakayama); another E reads it off its
    resolution, which over A certifies that E is flat (or raises
    NotLiftable): then 0 -> eE -> E -> E/eE -> 0 with eE = E/eE the fiber,
    whose regularity is the resolution's."""
    if not E.F0.rank:
        return -inf
    if not E.is_finite_length():
        E.resolution()
    return E.regularity()


def subquotient_module(K: GradedMap, B: GradedMap | None, cap: int) -> GradedModule:
    """The module (im K + im B)/(im B) on the cover K.source.

    K: H -> F picks generators, B: G -> F (or None, for B = 0) spans the
    submodule to quotient by.  Relations are the minimal kernel elements of
    [K | B], taken up to cap, projected to H; the presentation is not
    minimalized, so the cover stays exactly H.
    """
    joint = GradedMap.hstack(K, B) if B is not None else K
    return GradedModule(kernel_head(joint, K.source, cap))


def kernel_head(phi: GradedMap, head: FreeModule, cap: int) -> GradedMap:
    """The minimal generators of ker(phi), taken up to cap, projected onto
    head, the first head.rank summands of phi's source: the map onto them
    from a free module, with the generators that project to zero dropped."""
    syz = kernel_min_gens(phi, cap)
    cols, degs = [], []
    for j in range(syz.source.rank):
        col = syz.column(j)[: head.rank]
        if any(not f.is_zero() for f in col):
            cols.append(col)
            degs.append(-syz.source.twists[j])
    return GradedMap.from_columns(head, cols, degs)


# -- piece-level calculus ---------------------------------------------------


class PieceCalculus:
    """Canonical coordinates on the graded pieces of a module.

    Works on the minimal presentation: each piece M_n is F0_n modulo the
    relation image; coordinates are the non-pivot cover coordinates after
    reduction by the relation rref.
    """

    def __init__(self, M: GradedModule):
        self.M = M.minimal_presentation()
        self.p = M.base.p
        self.dual = M.base.dual
        self._red = {}
        self._mult = {}

    def _reducer(self, n: int):
        """(rref of the relation image on its non-pivot columns, pivot
        columns, non-pivot columns) in degree n."""
        if n not in self._red:
            im = self.M.presentation.matrix_at(n)
            red, piv = linalg.rref(im.T, self.p)
            full = self.M.F0.piece_dim(n)
            nonpiv = [c for c in range(full) if c not in piv]
            self._red[n] = (red[:, nonpiv], piv, nonpiv)
        return self._red[n]

    def dim(self, n: int) -> int:
        return len(self._reducer(n)[2])

    def project(self, vec: np.ndarray, n: int) -> np.ndarray:
        """Quotient coordinates of a degree-n cover vector, or of each column
        of a matrix: V[nonpiv] - red^T V[piv] in one matmul.  The rref is
        fully reduced, so each pivot row subtracts once, with the vector's
        own entry at its pivot as the coefficient."""
        red, piv, nonpiv = self._reducer(n)
        p = self.p
        v = (vec if vec.ndim == 2 else vec[:, None]) % p
        out = (v[nonpiv] - linalg.matmul(red.T, v[piv], p)) % p
        return out if vec.ndim == 2 else out[:, 0]

    def mult_matrix(self, g: Poly, n: int) -> np.ndarray:
        """Multiplication by homogeneous g on quotient coordinates: the
        columns of g*Id at the non-pivot cover coordinates, projected."""
        key = (g, n)
        if key not in self._mult:
            F0 = self.M.F0
            d = g.degree()
            z = Poly.zero(self.M.base)
            times_g = GradedMap(
                F0.shift(-d),
                F0,
                [[g if i == j else z for j in range(F0.rank)] for i in range(F0.rank)],
            )
            cols = times_g.matrix_at(n + d)[:, self._reducer(n)[2]]
            self._mult[key] = self.project(cols, n + d)
        return self._mult[key]

    def eps_matrix_q(self, n: int) -> np.ndarray:
        """Multiplication by epsilon on quotient coordinates (dual base)."""
        unit = linalg.identity(self.M.F0.piece_dim(n))[:, self._reducer(n)[2]]
        return self.project(linalg.eps_times(unit), n)


# -- finite-length module data ---------------------------------------------


class FiniteModuleData:
    """A finite-length module as explicit pieces plus action matrices.

    dims maps degree -> k-dimension of the stacked piece; actions maps
    (degree, v) for v in 0..3 to the matrix of multiplication by the v-th
    variable from degree to degree+1; over A, eps maps degree to the matrix
    of multiplication by epsilon on the piece.
    """

    def __init__(self, base: BaseRing, dims: dict, actions: dict, eps: dict):
        self.base = base
        self.dims = {n: d for n, d in dims.items() if d}
        self.actions = actions
        self.eps = eps

    def degrees(self):
        return sorted(self.dims)

    def total_dim(self):
        return sum(self.dims.values())

    def graded_dual(self) -> "FiniteModuleData":
        """(M*)_n = dual of M_{-n}; actions transpose.

        The degree-n action X: (M*)_n -> (M*)_{n+1} is the transpose of
        X: M_{-n-1} -> M_{-n}.
        """
        dims = {-n: d for n, d in self.dims.items()}
        actions = {}
        for n in dims:
            if (n + 1) not in dims:
                continue
            for v in range(4):
                src = -n - 1
                mat = self.actions.get((src, v))
                if mat is None:
                    continue
                actions[(n, v)] = mat.T.copy()
        eps = {}
        for n in dims:
            m = self.eps.get(-n)
            if m is not None:
                eps[n] = m.T.copy()
        return FiniteModuleData(self.base, dims, actions, eps)

    def shift(self, h: int) -> "FiniteModuleData":
        """M(h): M(h)_n = M_{n+h}."""
        dims = {n - h: d for n, d in self.dims.items()}
        actions = {(n - h, v): m for (n, v), m in self.actions.items()}
        eps = {n - h: m for n, m in self.eps.items()}
        return FiniteModuleData(self.base, dims, actions, eps)


def torsion_module_data(M: GradedModule, top: int) -> FiniteModuleData:
    """H^0_m(M), the m-power torsion of M, as explicit piece/action data.

    top is a degree past which H^0_m(M) vanishes (reg(M) will do).  Then
    v in M_n is torsion iff x_i^c * v = 0 for i = 0..3 with c = top + 1 - n:
    (x_0^c, ..., x_3^c) is m-primary, and m^c * v lies in the torsion past
    top.  Each piece is the kernel of the four stacked mult_matrix(x_i^c, n),
    in PieceCalculus coordinates; x_v and e act by mult_matrix and
    eps_matrix_q restricted to those kernels.
    """
    base = M.base
    p = base.p
    pc = PieceCalculus(M)
    xs = [Poly.variable(base, v) for v in range(4)]
    kers = {}
    for n in range(pc.M.min_degree(), top + 1):
        if pc.dim(n):
            stack = np.vstack([pc.mult_matrix(x ** (top + 1 - n), n) for x in xs])
            kers[n] = linalg.kernel_basis(stack, p)
    actions = {}
    eps = {}
    for n, ker in kers.items():
        if not ker.shape[1]:
            continue
        for v in range(4):
            moved = linalg.matmul(pc.mult_matrix(xs[v], n), ker, p)
            actions[(n, v)] = _coords_on(kers.get(n + 1, linalg.zeros(0, 0)), moved, p)
        if base.dual:
            eps[n] = _coords_on(ker, linalg.matmul(pc.eps_matrix_q(n), ker, p), p)
    return FiniteModuleData(base, {n: k.shape[1] for n, k in kers.items()}, actions, eps)


def _coords_on(basis: np.ndarray, vecs: np.ndarray, p: int) -> np.ndarray:
    """Coefficients of the columns of vecs on the columns of basis."""
    if not basis.shape[1]:
        sol = None if vecs.any() else linalg.zeros(0, vecs.shape[1])
    else:
        sol = linalg.solve(basis, vecs, p)
    if sol is None:
        raise OracleMismatch("an action leaves the torsion submodule")
    return sol


def finite_module_data(M: GradedModule) -> FiniteModuleData:
    """Explicit piece/action data of a finite-length module: all of M is
    torsion, and each kernel is the identity."""
    if not M.is_finite_length():
        raise NotFiniteLength(f"{M} has nonzero pieces past its regularity")
    return torsion_module_data(M, M.regularity())


def finite_data_to_module(data: FiniteModuleData) -> GradedModule:
    """Present a finite-length module from its piece/action data."""
    base = data.base
    p = base.p
    degs = data.degrees()
    if not degs:
        return GradedModule.zero(base)
    # one generator per basis vector per degree; relations express each
    # variable action and kill everything past the top degree
    gens = []  # (degree, index)
    for n in degs:
        for i in range(data.dims[n]):
            gens.append((n, i))
    gidx = {g: a for a, g in enumerate(gens)}
    F0 = FreeModule(base, [-n for n, _ in gens])
    cols = []
    degsrc = []
    top = degs[-1]
    for n in degs:
        dn = data.dims[n]
        dn1 = data.dims.get(n + 1, 0)
        for v in range(4):
            mono = Poly.variable(base, v)
            mat = data.actions.get((n, v))
            for i in range(dn):
                col = [Poly.zero(base)] * len(gens)
                col[gidx[(n, i)]] = mono
                if mat is not None and dn1:
                    for jj in range(dn1):
                        c = int(mat[jj, i]) % p
                        if c:
                            col[gidx[(n + 1, jj)]] = col[gidx[(n + 1, jj)]] - Poly.constant(base, c)
                cols.append(tuple(col))
                degsrc.append(n + 1)
        if base.dual and n in data.eps:
            emat = data.eps[n]
            for i in range(dn):
                col = [Poly.zero(base)] * len(gens)
                col[gidx[(n, i)]] = Poly.constant(base, 0, 1)
                for jj in range(dn):
                    c = int(emat[jj, i]) % p
                    if c:
                        col[gidx[(n, jj)]] = col[gidx[(n, jj)]] - Poly.constant(base, c)
                cols.append(tuple(col))
                degsrc.append(n)
    rel = GradedMap.from_columns(F0, cols, degsrc)
    return GradedModule(rel).minimal_presentation()


# -- cohomology -------------------------------------------------------------


def cohomology_table(M: GradedModule, Q: str, n_lo: int, n_hi: int) -> dict:
    """dims of H^i of the sheaf of (M tensor_A Q)(n), i = 0..3.

    Routed through Ext and local duality: H^i(~M(n)) = H^{i+1}_m(M)_n for
    i >= 1, and H^{j}_m(M)_n is dual to Ext^{4-j}(M, R(-4))_{-n}, that is
    to Ext^{4-j}(M, R)_{-n-4}; H^0 comes from the four-term comparison with
    the module piece itself.
    """
    if Q == "k":
        M = M.tensor_residue_field()
    elif Q != "A":
        raise ValueError("test module must be 'A' or 'k'")
    degs = list(range(n_lo, n_hi + 1))
    e = {j: ext_piece_dims(M, j, [-n - 4 for n in degs]) for j in range(5)}
    table = {i: {} for i in range(4)}
    for n in degs:
        h0m = e[4][-n - 4]
        h1m = e[3][-n - 4]
        table[0][n] = M.piece_dim(n) - h0m + h1m
        table[1][n] = e[2][-n - 4]
        table[2][n] = e[1][-n - 4]
        table[3][n] = e[0][-n - 4]
    return table


@lru_cache(maxsize=None)
def _power_ideal_module(base: BaseRing, t: int) -> GradedModule:
    """(X,Y,Z,W)^t as a graded module, on the generators monomials(t).

    The relations are the minimal linear syzygies of Eliahou and Kervaire
    (J. Algebra 129, 1990): x_i*e(u/x_i) - x_j*e(u/x_j) for each degree
    t + 1 monomial u and each pair i < j of consecutive variables in its
    support.  They span every degree t + 1 syzygy, and m^t has a linear
    resolution, so they generate the syzygy module.
    """
    index = monomial_index(t)
    xs = [Poly.variable(base, v) for v in range(4)]
    cols = []
    for u in monomials(t + 1):
        support = [v for v in range(4) if u[v]]
        for i, j in zip(support, support[1:]):
            col = [Poly.zero(base)] * len(index)
            for v, x in ((i, xs[i]), (j, xs[j].scale_int(-1))):
                col[index[tuple(a - (w == v) for w, a in enumerate(u))]] = x
            cols.append(tuple(col))
    F0 = FreeModule(base, [-t] * len(index))
    return GradedModule(GradedMap.from_columns(F0, cols, [t + 1] * len(cols)))


def saturation_dims(M: GradedModule, n_lo: int, n_hi: int) -> dict:
    """Independent H^0 oracle: dim Hom(m^t, M)_n stabilized over t, with
    Hom(m^t, M)_n the kernel of _hom_matrix on m^t's linear syzygies.

    For the sheaf of M this is dim H^0(~M(n)) = dim Gamma(~M(n)); it checks
    cohomology_table's route through Ext, not hom_space.
    """
    pc = PieceCalculus(M)
    out = {}
    for n in range(n_lo, n_hi + 1):
        prev, t = None, 1
        while True:
            mat, _ = _hom_matrix(pc, _power_ideal_module(M.base, t).presentation, n)
            cur = mat.shape[1] - linalg.rank(mat, pc.p)
            if cur == prev:
                break
            prev, t = cur, t + 1
        out[n] = cur
    return out

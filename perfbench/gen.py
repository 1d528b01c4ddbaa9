"""Seeded inputs for the benchmark, with every expected answer derived from
how the input was built.

Nothing here imports ``spacecurves``: curves are kept as plain dicts
``{exponent tuple: (a, b)}`` meaning ``sum (a + b*e) * X^i Y^j Z^k W^l``
over ``F_p`` (``b == 0``) or ``F_p[e]/(e^2)``, and the expected values come
from the known invariants of a few classical curves together with three
facts that hold for any input built this way:

* a graded coordinate change ``g0 + e*g1`` (``g0`` invertible) is an
  automorphism of the coordinate ring, so every invariant the CLI reports
  is unchanged by it;
* a link in a complete intersection of type ``(s, t)`` gives
  ``d' = s*t - d``, ``g' - g = (s + t - 4)(d' - d)/2``,
  ``h^0(I_C'(n)) = h^0(I_X(n)) + h^1(O_C(s + t - 4 - n))`` and
  ``M_C'(n) = M_C(s + t - 4 - n)^*``;
* a trivial biliaison ``I' = H*I + (Q)`` of height ``h = deg H`` on a
  surface of degree ``s = deg Q`` gives ``d' = d + h*s``,
  ``g' = g + h*d + s*h*(h + s - 4)/2``, ``M_C'(n) = M_C(n - h)`` and
  ``h^0(I_C'(n)) = h^0(I_C(n - h)) + r(n - s) - r(n - h - s)``, with
  ``r(n) = dim k[X,Y,Z,W]_n``.

Run ``python3 perfbench/gen.py <workload> <seed> <dir>`` to write one
workload's files and print its op list.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from math import comb

P = 32003
VARS = "XYZW"

# -- polynomials over F_p or F_p[e]/(e^2) -------------------------------------


def _dmul(x, y):
    return (x[0] * y[0] % P, (x[0] * y[1] + x[1] * y[0]) % P)


def padd(f, g):
    out = dict(f)
    for m, c in g.items():
        a, b = out.get(m, (0, 0))
        s = ((a + c[0]) % P, (b + c[1]) % P)
        if s == (0, 0):
            out.pop(m, None)
        else:
            out[m] = s
    return out


def pmul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(i + j for i, j in zip(m1, m2))
            a, b = out.get(m, (0, 0))
            c = _dmul(c1, c2)
            out[m] = ((a + c[0]) % P, (b + c[1]) % P)
    return {m: c for m, c in out.items() if c != (0, 0)}


def pscale(f, c):
    return {m: v for m, v in ((m, _dmul(c, x)) for m, x in f.items()) if v != (0, 0)}


def parse(text):
    """Sum of ``c*X^i*...`` terms with integer coefficients (no ``e``)."""
    out = {}
    for sign, body in re.findall(r"([+-]?)\s*([^+-]+)", text.replace(" ", "")):
        coeff, exp = 1, [0, 0, 0, 0]
        for factor in body.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            else:
                v, _, k = factor.partition("^")
                exp[VARS.index(v)] += int(k or 1)
        out = padd(out, {tuple(exp): ((-coeff if sign == "-" else coeff) % P, 0)})
    return out


def _grevlex(m):
    return (sum(m), tuple(-x for x in reversed(m)))


def fmt(f):
    """Curve-file text of a polynomial, terms in grevlex order."""
    parts = []
    for m in sorted(f, key=_grevlex, reverse=True):
        a, b = f[m]
        mono = "*".join(
            v if k == 1 else f"{v}^{k}" for v, k in zip(VARS, m) if k
        )
        coeff = str(a) if not b else f"({a}+{b}*e)"
        parts.append(f"{coeff}*{mono}" if mono else coeff)
    return " + ".join(parts) if parts else "0"


def curve_text(gens, dual):
    head = f"ring p={P} base={'dual' if dual else 'field'}\ngens:\n"
    return head + "".join(fmt(g) + "\n" for g in gens)


# -- coordinate changes ------------------------------------------------------


def _unit(rng):
    return rng.randrange(1, P)


def aligned(rng):
    """Permutation times nonzero scaling: sends variables to variables."""
    perm = list(range(4))
    rng.shuffle(perm)
    return [[(_unit(rng), 0) if j == perm[i] else (0, 0) for j in range(4)] for i in range(4)]


def transvect(M, rng, count):
    """Compose M with ``count`` elementary moves ``X_i -> X_i + c*X_j``."""
    M = [row[:] for row in M]
    for _ in range(count):
        i, j = rng.sample(range(4), 2)
        c = (_unit(rng), 0)
        M[i] = [((x[0] + c[0] * y[0]) % P, 0) for x, y in zip(M[i], M[j])]
    return M


def first_order(M, rng, entries):
    """``M + e*g1`` with ``g1`` supported on ``entries`` random cells."""
    M = [row[:] for row in M]
    for _ in range(entries):
        i, j = rng.randrange(4), rng.randrange(4)
        M[i][j] = (M[i][j][0], (M[i][j][1] + _unit(rng)) % P)
    return M


def dense(rng):
    """A random invertible 4x4 matrix over F_p with no zero entry."""
    while True:
        M = [[(_unit(rng), 0) for _ in range(4)] for _ in range(4)]
        if _det([[x[0] for x in row] for row in M]):
            return M


def _det(rows):
    rows = [r[:] for r in rows]
    det = 1
    for c in range(4):
        piv = next((r for r in range(c, 4) if rows[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = det * rows[c][c] % P
        inv = pow(rows[c][c], P - 2, P)
        for r in range(c + 1, 4):
            f = rows[r][c] * inv % P
            rows[r] = [(x - f * y) % P for x, y in zip(rows[r], rows[c])]
    return det % P


def substitute(f, M):
    """``f(M x)``: each variable X_i becomes the linear form ``sum_j M[i][j] X_j``."""
    forms = [
        {tuple(int(k == j) for k in range(4)): M[i][j] for j in range(4) if M[i][j] != (0, 0)}
        for i in range(4)
    ]
    out = {}
    for m, c in f.items():
        term = {(0, 0, 0, 0): c}
        for i, k in enumerate(m):
            for _ in range(k):
                term = pmul(term, forms[i])
        out = padd(out, term)
    return out


# -- expected invariants -----------------------------------------------------


def r(n):
    return comb(n + 3, 3) if n >= 0 else 0


class Model:
    """What the CLI must report for a curve: degree, genus, Hilbert function,
    Rao module dimensions, and (when known) N/E-type twists.

    ``hf`` lists ``h_C(0..)`` up to the point where it equals ``d*n + 1 - g``
    from then on; ``rao`` maps degree to ``dim_k M_C`` in that degree.
    """

    def __init__(self, d, g, hf, rao, ntype=None, etype=None):
        self.d, self.g, self.hf, self.rao = d, g, list(hf), dict(rao)
        self.ntype, self.etype = ntype, etype

    def h(self, n):
        if n < 0:
            return 0
        return self.hf[n] if n < len(self.hf) else self.d * n + 1 - self.g

    def h1_oc(self, n):
        """h^1(O_C(n)) = h^0(O_C(n)) - chi(O_C(n)), h^0(O_C(n)) = h_C(n) + M_C(n)."""
        return self.h(n) + self.rao.get(n, 0) - (self.d * n + 1 - self.g)

    def regularity(self):
        """reg(R/I_C) = reg(I_C) - 1, the least m with M_C zero from m on and
        h^1(O_C) zero from m - 1 on."""
        top = max([len(self.hf)] + [n + 1 for n in self.rao])
        m = top
        while m > -1 and self.rao.get(m - 1, 0) == 0 and self.h1_oc(m - 2) == 0:
            m -= 1
        return m

    def invariants(self, dual=False):
        reg = self.regularity()
        k = 2 if dual else 1
        rao = {str(n): k * v for n, v in sorted(self.rao.items()) if v}
        return {
            "degree": self.d,
            "genus": self.g,
            "regularity": reg,
            "hilbert_function": [self.h(n) for n in range(reg + 3)],
            "rao_dims": rao,
            "rao_total": sum(rao.values()),
        }

    def link(self, s, t):
        """The residual in a complete intersection of type (s, t)."""
        d2 = s * t - self.d
        g2 = self.g + (s + t - 4) * (d2 - self.d) // 2
        w = s + t - 4

        def h2(n):
            ideal = r(n - s) + r(n - t) - r(n - s - t) + self.h1_oc(w - n)
            return r(n) - ideal

        return Model._from(d2, g2, h2, {w - n: v for n, v in self.rao.items()})

    def bilink(self, s, h):
        """The trivial biliaison of height h on a surface of degree s."""
        d2 = self.d + h * s
        g2 = self.g + h * self.d + s * h * (h + s - 4) // 2

        def h2(n):
            ideal = (r(n - h) - self.h(n - h)) + r(n - s) - r(n - h - s)
            return r(n) - ideal

        return Model._from(d2, g2, h2, {n + h: v for n, v in self.rao.items()})

    @staticmethod
    def _from(d, g, hfun, rao):
        n = 0
        hf = []
        # record h until it has matched the Hilbert polynomial for good: past
        # every Rao degree and past the degrees where h^1(O_C) can be nonzero
        while n <= max([0] + [k + 2 for k in rao]) + d + 2 or hfun(n) != d * n + 1 - g:
            hf.append(hfun(n))
            n += 1
        return Model(d, g, hf, rao)


# The base curves, in the coordinates of the shipped corpus.  Degree, genus,
# Hilbert function and Rao module are classical; the twists are those of the
# minimal free resolution for the ACM curves (0 -> R(-3)^2 -> R(-2)^3 -> I for
# the twisted cubic, and so on), and for the curves with Rao module k they are
# the program's certified answers on the corpus fixture.
BASE = {
    "line": (["X", "Y"], Model(1, 0, [1], {}, ([-2], [-1, -1]), ([-2], [-1, -1]))),
    "conic": (["X", "Y^2 - Z*W"], Model(2, 0, [1], {}, ([-3], [-2, -1]), ([-3], [-2, -1]))),
    "twisted-cubic": (
        ["X*Z - Y^2", "Y*W - Z^2", "X*W - Y*Z"],
        Model(3, 0, [1], {}, ([-3, -3], [-2, -2, -2]), ([-3, -3], [-2, -2, -2])),
    ),
    "skew-lines": (
        ["X*Z", "X*W", "Y*Z", "Y*W"],
        Model(2, -1, [1, 4], {0: 1}, ([-2] * 2, [-2] * 6), ([-3] * 4, [-2] * 4)),
    ),
    "ci-2-2": (["X*Z", "Y*W"], Model(4, 1, [1, 4], {}, ([-4], [-2, -2]), ([-4], [-2, -2]))),
    "quartic": (
        ["X^2*Z", "X^2*W", "X*Y*Z", "X*Y*W", "X*Z + Y*W"],
        Model(4, 0, [1, 4, 9], {1: 1}, ([-3] * 3, [-3] * 6 + [-2]), ([-4] * 4, [-3] * 3 + [-2])),
    ),
}


def base_gens(name):
    return [parse(t) for t in BASE[name][0]]


def base_model(name):
    return BASE[name][1]


# -- workloads ---------------------------------------------------------------

# Per-op deadline of the general-position workload, in seconds.  A miss is
# recorded as a failed op with the time it ran, never dropped.
DEADLINE_S = 5.0


def _validate(path, model):
    return {"argv": ["validate", path], "rc": 0,
            "results": {"valid": True, "degree": model.d, "genus": model.g}}


def _invariants(path, model, dual=False):
    return {"argv": ["invariants", path], "rc": 0, "results": model.invariants(dual)}


def _twists(cmd, path, model):
    a, b = model.ntype if cmd == "ntype" else model.etype
    keys = ("P_twists", "N_twists") if cmd == "ntype" else ("E_twists", "F_twists")
    return {"argv": [cmd, path], "rc": 0,
            "results": {keys[0]: sorted(a), keys[1]: sorted(b), "certified": True}}


class _Round:
    """One round's files (under ``in/``) and ops; outputs go under ``out/``."""

    def __init__(self, workload, seed, k):
        self.rng = random.Random(f"{workload}:{seed}:{k}")
        self.tag = f"r{k}"
        self.files = {}
        self.ops = []

    def curve(self, name, gens, dual=False):
        path = f"in/{self.tag}-{name}.curve"
        self.files[path] = curve_text(gens, dual)
        return path

    def out(self, name):
        return f"out/{self.tag}-{name}.curve"


def _dual_invariants(rd):
    """First-order coordinate changes ``g0 + e*g1`` of corpus curves; ``g0``
    is a permutation and scaling with one or two transvections."""
    rng = rd.rng
    for name, moves, cmds in (
        ("line", 2, ("validate", "invariants", "ntype")),
        ("conic", 1, ("validate",)),
    ):
        M = first_order(transvect(aligned(rng), rng, moves), rng, 2)
        path = rd.curve(name, [substitute(g, M) for g in base_gens(name)], dual=True)
        model = base_model(name)
        for cmd in cmds:
            if cmd == "validate":
                rd.ops.append(_validate(path, model))
            elif cmd == "invariants":
                rd.ops.append(_invariants(path, model, dual=True))
            else:
                rd.ops.append(_twists(cmd, path, model))


def _field_liaison(rd):
    """Links and trivial biliaisons of coordinate-aligned corpus curves, then
    decisions on the results against the link/biliaison formulas.

    Every op here costs about the same under all 24 variable permutations.
    Some constructions do not: a height-2 biliaison of the twisted cubic or
    of the skew lines, or a (3,3) link of the skew lines, ran under a second
    for some permutations and past 8 s for others, so they would make the
    spread depend on the seed.  The Groebner engine's sensitivity to the
    coordinates is measured by the general-position workload instead.
    """
    m_tc, m_line, m_skew = base_model("twisted-cubic"), base_model("line"), base_model("skew-lines")
    # the constructions run in two coordinate systems per pass, so that the
    # per-op median rests on more than one variable permutation
    paths = [_constructions(rd, c, m_tc, m_line, m_skew) for c in range(2)]
    tc, line, skew, to_line, to_skew, to_q = paths[0]

    def decide(argv, rc, **expect):
        rd.ops.append(dict({"argv": argv, "rc": rc, "decision": True}, **expect))

    # decisions on the results: E and N types of the line the first link
    # returned, the Rao module after a link, Yes with shift 1 (the height of
    # the biliaison), a certified No (one Rao module vanishes), the parity
    # of two ACM curves, and a chain of biliaisons from the line to the cubic
    rd.ops.append(_twists("etype", to_line, m_line))
    rd.ops.append(_twists("ntype", to_line, m_line))
    rd.ops.append(_invariants(to_skew, m_skew.link(2, 2)))
    decide(["compare", skew, to_q], 0, results={"verdict": "yes", "shift": 1})
    decide(["compare", skew, to_line], 1, results={"verdict": "no"})
    decide(["parity", tc, to_line], 0, results={"parity": "both"})
    decide(["connect", line, tc], 0, chain_degree=m_tc.d - m_line.d)


def _constructions(rd, c, m_tc, m_line, m_skew):
    """Links and biliaisons under one permutation-and-scaling ``T``."""
    rng = rd.rng
    T = aligned(rng)
    u = lambda: _unit(rng)  # noqa: E731

    def put(name):
        return rd.curve(f"{name}-c{c}", [substitute(g, T) for g in base_gens(name)])

    def form(text, scale=1):
        return fmt(substitute(pscale(parse(text), (scale, 0)), T))

    def construct(argv, model, **extra):
        rd.ops.append({"argv": argv, "rc": 0, "results": dict(_dg(model), **extra)})

    tc, line, skew = put("twisted-cubic"), put("line"), put("skew-lines")
    to_line, to_skew, to_q = (rd.out(f"{n}-c{c}") for n in ("link22-tc", "link22-skew", "bilink1-skew"))
    # (2,2) links: the twisted cubic to a line, and the skew lines to a curve
    # whose Rao module is again k in degree 0 (M_C'(n) = M_C(-n))
    construct(["link", tc, form("X*Z - Y^2", u()), form("Y*W - Z^2", u()),
               "--output", to_line], m_tc.link(2, 2))
    a, b = u(), u()
    construct(["link", skew, form(f"X*Z + {a}*Y*W"), form(f"X*W + {b}*Y*Z"), "--output", to_skew],
              m_skew.link(2, 2))
    # (3,3) links of the twisted cubic and of the line
    construct(["link", tc, form("X^2*Z - X*Y^2", u()), form("Y*W^2 - Z^2*W", u()),
               "--output", rd.out(f"link33-tc-c{c}")], m_tc.link(3, 3))
    construct(["link", line, form(f"{u()}*X*Z^2 + {u()}*Y*W^2"), form(f"{u()}*X*W^2 + {u()}*Y*Z^2"),
               "--output", rd.out(f"link33-line-c{c}")], m_line.link(3, 3))
    # trivial biliaisons on a quadric: height 1 takes the skew lines to the
    # rational quartic (Rao module k in degree 1), height 2 takes the line to
    # a curve of degree 5 and genus 2
    construct(["bilink", skew, form(f"X*Z + {u()}*Y*W"), form(f"{u()}*X"), "1", "--output", to_q],
              m_skew.bilink(2, 1), height=1)
    construct(["bilink", line, form(f"X*Z + {u()}*Y*W"), form(f"Z^2 + {u()}*W^2"), "2",
               "--output", rd.out(f"bilink2-line-c{c}")], m_line.bilink(2, 2), height=2)
    return tc, line, skew, to_line, to_skew, to_q


def _dg(model):
    return {"degree": model.d, "genus": model.g}


def _general_position(rd):
    """Field curves moved off the coordinate axes.  Skew lines and ci(2,2)
    after two transvections, the conic after one, and the line after a dense
    change finish within the deadline; the twisted cubic and the quartic
    after a dense change missed it when this workload was defined."""
    rng = rd.rng
    for name, how, cmds in (
        ("skew-lines", 2, ("validate", "invariants")),
        ("ci-2-2", 2, ("invariants",)),
        ("conic", 1, ("invariants",)),
        ("line", "dense", ("validate",)),
        ("twisted-cubic", "dense", ("validate",)),
        ("quartic", "dense", ("validate",)),
    ):
        M = dense(rng) if how == "dense" else transvect(aligned(rng), rng, how)
        path = rd.curve(name, [substitute(g, M) for g in base_gens(name)])
        for cmd in cmds:
            op = (_validate if cmd == "validate" else _invariants)(path, base_model(name))
            op["deadline"] = DEADLINE_S
            rd.ops.append(op)


WORKLOADS = {
    "dual-invariants": _dual_invariants,
    "field-liaison": _field_liaison,
    "general-position": _general_position,
}


def build(workload, seed, rounds):
    """``(files, passes)``: every input file's text by relative path, and one
    op list per round.  The same arguments give byte-identical files."""
    files, passes = {}, []
    for k in range(rounds):
        rd = _Round(workload, seed, k)
        WORKLOADS[workload](rd)
        files.update(rd.files)
        passes.append(rd.ops)
    return files, passes


def write(files, root):
    for rel, text in sorted(files.items()):
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(text)


if __name__ == "__main__":
    files, passes = build(sys.argv[1], int(sys.argv[2]), 1)
    write(files, sys.argv[3])
    print(json.dumps(passes[0], indent=1))

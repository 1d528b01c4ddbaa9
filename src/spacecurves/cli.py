"""Command-line interface, JSON reports, and chain files.

Exit codes: 0 success/Yes, 1 No, 2 domain error, 3 parse error, 4 Undecided.

JSON reports follow the ``spacecurves-report/1`` schema: ``command`` (argv
echo), ``inputs`` (sha256 digests of the normalized input files), ``seed``,
``results`` (command-specific), and ``timings``.  Reports are byte-identical
across runs with the same inputs and seed; wall-clock times are therefore
only included when ``--timings`` is passed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from .curve import validate_curve
from .errors import ParseError, SpaceCurveError, Undecided
from .files import CurveFile, check_prime, corpus_names, load_corpus, parse_form, read_text, write_text
from .groebner import Ideal, ideal_saturate
from .liaison import (
    BiliaisonStep,
    connect_by_biliaisons,
    link,
    replay_chain,
    trivial_biliaison,
)
from .polyring import Poly
from .raoclass import (
    biliaison_equivalent,
    e_type_resolution,
    liaison_parity,
    n_type_resolution,
)
from .scalars import BaseRing

SCHEMA = "spacecurves-report/1"
EXIT_YES = 0
EXIT_NO = 1
EXIT_DOMAIN = 2
EXIT_PARSE = 3
EXIT_UNDECIDED = 4


def _read_curve(source: str, args) -> CurveFile:
    if source.startswith("corpus:"):
        cf = load_corpus(source[len("corpus:") :])
    else:
        cf = CurveFile.load(source)
    if getattr(args, "dual_numbers", False) and not cf.base.dual:
        dual = BaseRing(cf.base.p, True)
        cf = CurveFile(dual, [g.lift(dual) for g in cf.gens])
    return cf


def _digest(cf: CurveFile) -> str:
    return hashlib.sha256(cf.text().encode()).hexdigest()[:16]


def _curve(cf: CurveFile):
    return validate_curve(cf.to_ideal())


class _Report:
    def __init__(self, args, inputs):
        self.args = args
        self.data = {
            "schema": SCHEMA,
            "command": list(getattr(args, "_echo", [args.command])),
            "inputs": inputs,
            "seed": args.seed,
            "results": {},
            "timings": {},
        }
        self._t0 = time.monotonic()

    def done(self):
        if self.args.timings:
            self.data["timings"]["wall_s"] = round(time.monotonic() - self._t0, 3)
        return self.data

    def emit(self, exit_code: int) -> int:
        self.done()
        if self.args.json:
            print(json.dumps(self.data, sort_keys=True, indent=2))
        else:
            for key, val in self.data["results"].items():
                print(f"{key}: {val}")
        return exit_code


def _rao_dims(C):
    return {str(n): d for n, d in sorted(C.rao_module().dims().items())}


# -- subcommands ------------------------------------------------------------


def cmd_validate(args) -> int:
    cf = _read_curve(args.file, args)
    rep = _Report(args, {"curve": _digest(cf)})
    C = _curve(cf)
    d, g = C.degree_genus()
    rep.data["results"] = {"valid": True, "degree": d, "genus": g}
    return rep.emit(EXIT_YES)


def cmd_invariants(args) -> int:
    cf = _read_curve(args.file, args)
    rep = _Report(args, {"curve": _digest(cf)})
    C = _curve(cf)
    d, g = C.degree_genus()
    reg = C.regularity()
    rep.data["results"] = {
        "degree": d,
        "genus": g,
        "regularity": reg,
        "hilbert_function": C.hilbert_function(reg + 2),
        "rao_dims": _rao_dims(C),
        "rao_total": C.rao_module().total_dim(),
    }
    return rep.emit(EXIT_YES)


def cmd_saturate(args) -> int:
    cf = _read_curve(args.file, args)
    rep = _Report(args, {"curve": _digest(cf)})
    sat = ideal_saturate(cf.to_ideal())
    out = CurveFile.from_ideal(sat)
    rep.data["results"] = {
        "already_saturated": sat == cf.to_ideal(),
        "gens": [str(g) for g in sat.gens],
    }
    if args.output:
        out.save(args.output)
    return rep.emit(EXIT_YES)


def cmd_link(args) -> int:
    cf = _read_curve(args.file, args)
    rep = _Report(args, {"curve": _digest(cf)})
    C = _curve(cf)
    F = Poly.parse(args.F, cf.base)
    G = Poly.parse(args.G, cf.base)
    Cp = link(C, F, G)
    out = CurveFile.from_ideal(Cp.ideal)
    d, g = Cp.degree_genus()
    rep.data["results"] = {
        "degree": d,
        "genus": g,
        "gens": [str(x) for x in Cp.ideal.gens],
    }
    if args.output:
        out.save(args.output)
    return rep.emit(EXIT_YES)


def cmd_bilink(args) -> int:
    cf = _read_curve(args.file, args)
    rep = _Report(args, {"curve": _digest(cf)})
    C = _curve(cf)
    Q = Poly.parse(args.Q, cf.base)
    H = Poly.parse(args.H, cf.base)
    Cp, step = trivial_biliaison(C, Q, H, args.height)
    out = CurveFile.from_ideal(Cp.ideal)
    d, g = Cp.degree_genus()
    rep.data["results"] = {
        "degree": d,
        "genus": g,
        "height": step.h,
        "gens": [str(x) for x in Cp.ideal.gens],
    }
    if args.output:
        out.save(args.output)
    return rep.emit(EXIT_YES)


def cmd_ntype(args) -> int:
    cf = _read_curve(args.file, args)
    rep = _Report(args, {"curve": _digest(cf)})
    res = n_type_resolution(_curve(cf))
    p_twists, n_twists = res.twists()
    rep.data["results"] = {
        "P_twists": list(p_twists),
        "N_twists": list(n_twists),
        "certified": True,
    }
    return rep.emit(EXIT_YES)


def cmd_etype(args) -> int:
    cf = _read_curve(args.file, args)
    rep = _Report(args, {"curve": _digest(cf)})
    res = e_type_resolution(_curve(cf))
    e_twists, f_twists = res.twists()
    rep.data["results"] = {
        "E_twists": list(e_twists),
        "F_twists": list(f_twists),
        "certified": True,
    }
    return rep.emit(EXIT_YES)


def _read_pair(args):
    """(curve file A, curve file B, report) of a two-curve command, once its
    search bounds are checked: a search needs at least one trial and a
    height of at least 0."""
    if args.trials < 1:
        raise ParseError(f"--trials must be at least 1, got {args.trials}")
    if getattr(args, "max_height", 0) < 0:
        raise ParseError(f"--max-height must be at least 0, got {args.max_height}")
    ca = _read_curve(args.fileA, args)
    cb = _read_curve(args.fileB, args)
    return ca, cb, _Report(args, {"curveA": _digest(ca), "curveB": _digest(cb)})


def cmd_compare(args) -> int:
    ca, cb, rep = _read_pair(args)
    v = biliaison_equivalent(
        _curve(ca), _curve(cb), trials=args.trials, seed=args.seed
    )
    rep.data["results"] = {"verdict": v.kind, "shift": v.h, "reason": v.reason}
    code = {"yes": EXIT_YES, "no": EXIT_NO}.get(v.kind, EXIT_UNDECIDED)
    return rep.emit(code)


def cmd_parity(args) -> int:
    ca, cb, rep = _read_pair(args)
    par = liaison_parity(
        _curve(ca), _curve(cb), trials=args.trials, seed=args.seed
    )
    rep.data["results"] = {"parity": par}
    code = {
        "even": EXIT_YES,
        "odd": EXIT_YES,
        "both": EXIT_YES,
        "neither": EXIT_NO,
    }.get(par, EXIT_UNDECIDED)
    return rep.emit(code)


def cmd_connect(args) -> int:
    ca, cb, rep = _read_pair(args)
    A, B = _curve(ca), _curve(cb)
    chain = connect_by_biliaisons(
        A, B, max_height=args.max_height, trials=args.trials, seed=args.seed
    )
    end = replay_chain(A.ideal, chain)
    if not (end == B.ideal):
        raise SpaceCurveError("chain replay does not reach the target")
    rep.data["results"] = {
        "steps": [
            {
                "kind": s.kind,
                "Q": str(s.Q),
                "H": None if s.H is None else str(s.H),
                "height": s.h,
                "source_gens": [str(g) for g in s.source.gens],
                "target_gens": [str(g) for g in s.target.gens],
            }
            for s in chain
        ],
        "length": len(chain),
    }
    if args.output:
        chain = {
            "schema": "spacecurves-chain/1",
            "p": ca.base.p,
            "dual": ca.base.dual,
            "steps": rep.data["results"]["steps"],
        }
        write_text(args.output, json.dumps(chain, sort_keys=True, indent=2) + "\n")
    return rep.emit(EXIT_YES)


def load_chain(path) -> list:
    """Reconstruct the steps recorded by ``connect --output``; ParseError
    when the file is not JSON, lacks a key of the format, or holds a value
    of the wrong type."""
    try:
        data = json.loads(read_text(path))
    except ValueError as e:
        raise ParseError(f"{path} is not JSON: {e}") from e
    if not isinstance(data, dict) or data.get("schema") != "spacecurves-chain/1":
        raise ParseError("not a spacecurves chain file")
    try:
        base = BaseRing(check_prime(data["p"]), _typed(data["dual"], bool, "dual"))
        return [_chain_step(_typed(s, dict, "step"), base) for s in _typed(data["steps"], list, "steps")]
    except KeyError as e:
        raise ParseError(f"chain file has no key {e}") from e


def _typed(value, kind: type, what: str):
    """value when its type is exactly kind, so that true is no int;
    ParseError naming what otherwise."""
    if type(value) is not kind:
        raise ParseError(f"chain file {what} {value!r} is not of type {kind.__name__}")
    return value


def _chain_step(s: dict, base: BaseRing) -> BiliaisonStep:
    if s["kind"] not in ("trivial", "elementary"):
        raise ParseError(f"chain file kind {s['kind']!r} is neither trivial nor elementary")
    ideals = [
        Ideal(base, [parse_form(_typed(g, str, key), base, key) for g in _typed(s[key], list, key)])
        for key in ("source_gens", "target_gens")
    ]
    return BiliaisonStep(
        s["kind"],
        parse_form(_typed(s["Q"], str, "Q"), base, "Q"),
        _typed(s["height"], int, "height"),
        *ideals,
        H=None if s["H"] is None else parse_form(_typed(s["H"], str, "H"), base, "H"),
    )


def _corpus_one(name: str, seed: int):
    cf = load_corpus(name)
    C = validate_curve(cf.to_ideal())
    d, g = C.degree_genus()
    return name, {
        "valid": True,
        "degree": d,
        "genus": g,
        "rao_dims": {str(n): v for n, v in sorted(C.rao_module().dims().items())},
        "seed": seed,
    }


def cmd_corpus(args) -> int:
    """corpus list / run.  run --jobs 1 validates in this process, so a
    script that calls main needs no __main__ guard; more jobs spawn a pool."""
    names = corpus_names()
    if args.action == "list":
        rep = _Report(args, {})
        rep.data["results"] = {"fixtures": names}
        return rep.emit(EXIT_YES)
    if args.jobs < 1:
        raise ParseError(f"--jobs must be at least 1, got {args.jobs}")
    rep = _Report(args, {})
    if args.jobs == 1:
        results = dict(_corpus_one(name, args.seed + i) for i, name in enumerate(names))
    else:
        # imported here so that the other commands do not load multiprocessing
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=args.jobs, mp_context=spawn) as pool:
            futs = [
                pool.submit(_corpus_one, name, args.seed + i)
                for i, name in enumerate(names)
            ]
            results = dict(f.result() for f in futs)
    rep.data["results"] = {name: results[name] for name in names}
    return rep.emit(EXIT_YES)


# -- argument parsing -------------------------------------------------------


@functools.cache
def _build_parser():
    """The parser, built on the first call and reused for the life of the
    process: parsing leaves it unchanged, and each call returns a new
    namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--trials", type=int, default=32)
    common.add_argument("--json", action="store_true")
    common.add_argument("--timings", action="store_true")
    common.add_argument("--dual-numbers", action="store_true")
    ap = argparse.ArgumentParser(
        prog="spacecurves",
        description="Exact liaison and biliaison computations for space curves",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def one_file(name, fn, **extra):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("file")
        for k, v in extra.items():
            sp.add_argument(k, **v)
        sp.set_defaults(fn=fn)
        return sp

    one_file("validate", cmd_validate)
    one_file("invariants", cmd_invariants)
    one_file("saturate", cmd_saturate, **{"--output": {"default": None}})
    sp = one_file("link", cmd_link, **{"--output": {"default": None}})
    sp.add_argument("F")
    sp.add_argument("G")
    sp = one_file("bilink", cmd_bilink, **{"--output": {"default": None}})
    sp.add_argument("Q")
    sp.add_argument("H")
    sp.add_argument("height", type=int)
    one_file("ntype", cmd_ntype)
    one_file("etype", cmd_etype)
    for name, fn in (
        ("compare", cmd_compare),
        ("parity", cmd_parity),
        ("connect", cmd_connect),
    ):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("fileA")
        sp.add_argument("fileB")
        if name == "connect":
            sp.add_argument("--output", default=None)
            sp.add_argument("--max-height", type=int, default=2)
        sp.set_defaults(fn=fn)
    sp = sub.add_parser("corpus", parents=[common])
    sp.add_argument("action", choices=["list", "run"])
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(fn=cmd_corpus)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = _build_parser()
    args = ap.parse_args(argv)
    args._echo = argv
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except Undecided as e:
        print(f"undecided: {e}", file=sys.stderr)
        return EXIT_UNDECIDED
    except SpaceCurveError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

"""The --json reports of validate, invariants, ntype, etype and compare (a
family with itself) on three first-order families whose e-parts do not
vanish, pinned byte for byte in data/family_reports.json.

Each family, in data/families/, is a coordinate change g0 + e*g1 of the
line, the conic or the skew lines over F_32003[e]/(e^2), built as
perfbench/gen.py builds the dual-invariants inputs: g0 a permutation and
scaling with two transvections (one for the conic), g1 two random entries,
drawn from random.Random("family:<name>").  The corpus -dual fixtures have
no e-part, so their resolutions over A are their fibers' and cannot show a
change in how a resolution over A is built; these can.

Regenerate the reports with ``PYTHONPATH=src python tests/test_family_reports.py``
only when a change is meant to alter an answer, and say so in CHANGES.md.
``--curves`` rebuilds the curve files from perfbench/gen.py first.
"""

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest

from spacecurves import gradedmod
from spacecurves.cli import main

DATA = Path(__file__).resolve().parent / "data"
PINNED = DATA / "family_reports.json"
FAMILIES = {"line": 2, "conic": 1, "skew-lines": 2}  # name -> transvections
COMMANDS = ("validate", "invariants", "ntype", "etype", "compare")


def _argv(cmd: str, name: str) -> list:
    path = f"families/{name}.curve"
    return [cmd, path] + ([path] if cmd == "compare" else []) + ["--json"]


def _report(cmd: str, name: str) -> dict:
    """{"exit": code, "stdout": text} of one command, run from data/ so that
    the echoed paths are the same on every machine."""
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(out):
            code = main(_argv(cmd, name))
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("cmd", COMMANDS)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_reports_match_the_pinned_file_byte_for_byte(name, cmd):
    pinned = json.loads(PINNED.read_text())
    assert sorted(pinned) == sorted(f"{c} {n}" for c in COMMANDS for n in FAMILIES)
    assert _report(cmd, name) == pinned[f"{cmd} {name}"]


def test_no_module_over_a_is_resolved_by_a_search(monkeypatch):
    # every resolution over A the commands take is lifted from its fiber's:
    # the search runs on fibers only
    seen = []
    real = gradedmod._resolve
    monkeypatch.setattr(gradedmod, "_resolve", lambda phi, ideal=None: seen.append(phi.base.dual) or real(phi, ideal))
    for name in FAMILIES:
        for cmd in COMMANDS:
            assert _report(cmd, name)["exit"] == 0
    assert seen and not any(seen)


def _build_curves():
    root = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(root))
    import gen

    for name, moves in FAMILIES.items():
        rng = random.Random(f"family:{name}")
        M = gen.first_order(gen.transvect(gen.aligned(rng), rng, moves), rng, 2)
        text = gen.curve_text([gen.substitute(g, M) for g in gen.base_gens(name)], True)
        (DATA / "families").mkdir(exist_ok=True)
        (DATA / "families" / f"{name}.curve").write_text(text)


if __name__ == "__main__":
    if "--curves" in sys.argv:
        _build_curves()
    reports = {f"{cmd} {name}": _report(cmd, name) for cmd in COMMANDS for name in FAMILIES}
    PINNED.write_text(json.dumps(reports, sort_keys=True, indent=1) + "\n")

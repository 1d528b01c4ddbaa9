"""Tests of the benchmark's own parts: the seeded generator, the expected
values it derives, the answer checker, and the span tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import importlib
import io
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.append(SRC)

import gen  # noqa: E402
import run  # noqa: E402
from spans import METRICS, Tracer  # noqa: E402


def _write(tmp_path, workload, seed, sub):
    files, passes = gen.build(workload, seed, 2)
    gen.write(files, str(tmp_path / sub))
    return {
        os.path.relpath(os.path.join(d, n), tmp_path / sub): open(os.path.join(d, n), "rb").read()
        for d, _, names in os.walk(tmp_path / sub)
        for n in names
    }, passes


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_writes_identical_files(tmp_path, workload):
    a, ops_a = _write(tmp_path, workload, 7, "a")
    b, ops_b = _write(tmp_path, workload, 7, "b")
    c, _ = _write(tmp_path, workload, 8, "c")
    assert a and a == b and ops_a == ops_b
    assert a != c


def test_link_and_biliaison_formulas_reach_known_curves():
    line, tc, skew, quartic = (gen.base_model(n) for n in ("line", "twisted-cubic", "skew-lines", "quartic"))
    assert tc.link(2, 2).invariants() == line.invariants()
    assert line.link(2, 2).invariants() == tc.invariants()
    assert skew.bilink(2, 1).invariants() == quartic.invariants()
    # linking twice in the same type of complete intersection returns the class
    assert skew.link(3, 3).link(3, 3).invariants() == skew.invariants()
    assert skew.link(3, 3).invariants()["rao_dims"] == {"2": 1}


def test_dual_rao_dims_count_k_dimensions():
    inv = gen.base_model("skew-lines").invariants(dual=True)
    assert inv["rao_dims"] == {"0": 2} and inv["rao_total"] == 2


def test_coordinate_change_is_invertible_and_keeps_degrees():
    import random

    rng = random.Random(1)
    M = gen.first_order(gen.transvect(gen.aligned(rng), rng, 2), rng, 2)
    assert gen._det([[x[0] for x in row] for row in M])
    for g in gen.base_gens("twisted-cubic"):
        out = gen.substitute(g, M)
        assert {sum(m) for m in out} == {2}


def _row(results, rc=0):
    return {"status": "ok", "rc": rc, "out": json.dumps({"results": results})}


def test_checker_marks_wrong_answers():
    op = gen._invariants("x.curve", gen.base_model("skew-lines"))
    assert run.check(op, _row(op["results"])) == "ok"
    assert run.check(op, _row(dict(op["results"], genus=0))) == "wrong"
    assert run.check(op, _row(op["results"], rc=2)) == "wrong"
    twists = gen._twists("ntype", "x.curve", gen.base_model("quartic"))
    shuffled = dict(twists["results"], N_twists=list(reversed(twists["results"]["N_twists"])))
    assert run.check(twists, _row(shuffled)) == "ok"
    chain = {"argv": ["connect"], "rc": 0, "chain_degree": 2, "decision": True}
    step = {"height": 1, "Q": "Y^2 + 32002*X*Z"}
    assert run.check(chain, _row({"steps": [step]})) == "ok"
    assert run.check(chain, _row({"steps": [dict(step, height=2)]})) == "wrong"
    assert run.check(chain, _row({}, rc=4)) == "undecided"
    assert run.check(op, {"status": "deadline"}) == "deadline"


def test_self_time_is_duration_minus_child_spans():
    tr = Tracer()

    def leaf():
        time.sleep(0.02)

    inner = tr._wrap("groebner.inner", leaf)

    def body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tr._wrap("linalg.outer", body)
    outer()
    edges = {(e["parent"], e["name"]): e for e in tr.edge_table()}
    o, i = edges[(None, "linalg.outer")], edges[("linalg.outer", "groebner.inner")]
    assert i["calls"] == 2
    assert o["self_s"] == pytest.approx(o["total_s"] - i["total_s"], abs=1e-5)
    assert i["self_s"] == pytest.approx(i["total_s"], abs=1e-5)
    assert tr.layer_self["linalg"] == pytest.approx(o["self_s"], abs=1e-5)
    assert tr.layer_self["groebner"] == pytest.approx(i["total_s"], abs=1e-5)
    assert 0.005 < o["self_s"] < i["total_s"]


def _cli_outputs(cli, ops, where):
    cwd = os.getcwd()
    os.chdir(where)
    try:
        outs = []
        for argv in ops:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv + ["--json", "--seed", "0"])
            outs.append((rc, buf.getvalue()))
        return outs
    finally:
        os.chdir(cwd)


def test_reports_identical_with_tracing_and_originals_restored(tmp_path):
    cli = importlib.import_module("spacecurves.cli")
    curve = importlib.import_module("spacecurves.curve")
    groebner = importlib.import_module("spacecurves.groebner")
    polyring = importlib.import_module("spacecurves.polyring")
    files = {
        "in/line.curve": gen.curve_text(gen.base_gens("line"), False),
        "in/tc.curve": gen.curve_text(gen.base_gens("twisted-cubic"), False),
    }
    # one call of every subcommand the workloads use
    ops = [
        ["validate", "in/tc.curve"],
        ["invariants", "in/line.curve"],
        ["link", "in/tc.curve", "X*Z - Y^2", "Y*W - Z^2", "--output", "out/l.curve"],
        ["bilink", "in/line.curve", "X", "Z", "1", "--output", "out/b.curve"],
        ["etype", "out/l.curve"],
        ["ntype", "out/b.curve"],
        ["compare", "in/line.curve", "in/tc.curve"],
        ["parity", "in/line.curve", "out/b.curve"],
        ["connect", "in/line.curve", "in/tc.curve"],
    ]
    for sub in ("plain", "traced"):
        gen.write(files, str(tmp_path / sub))
        os.makedirs(tmp_path / sub / "out")
    original = (groebner.ideal_saturate, curve.ideal_saturate, polyring.Poly.__mul__)
    plain = _cli_outputs(cli, ops, tmp_path / "plain")
    tr = Tracer().install()
    try:
        assert curve.ideal_saturate is groebner.ideal_saturate is not original[0]
        traced = _cli_outputs(cli, ops, tmp_path / "traced")
    finally:
        tr.uninstall()
    assert (groebner.ideal_saturate, curve.ideal_saturate, polyring.Poly.__mul__) == original
    assert [rc for rc, _ in plain] == [0] * len(ops)
    assert traced == plain
    for name in ("l.curve", "b.curve"):
        assert (tmp_path / "plain/out" / name).read_bytes() == (tmp_path / "traced/out" / name).read_bytes()
    metrics = tr.metrics()
    assert tuple(metrics) == METRICS
    assert metrics["curve.validate_s"] > 0 and metrics["liaison.link_s"] > 0
    assert metrics["linalg.calls"] > 0 and metrics["groebner.buchberger_calls"] > 0

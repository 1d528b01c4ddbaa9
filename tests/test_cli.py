import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spacecurves import cli
from spacecurves.cli import load_chain, main
from spacecurves.curve import validate_curve
from spacecurves.errors import ParseError
from spacecurves.files import CurveFile
from spacecurves.liaison import replay_chain
from spacecurves.polyring import MAX_DEGREE, Poly
from spacecurves.scalars import BaseRing


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_corpus(capsys):
    code, out = run(capsys, "validate", "corpus:twisted-cubic", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"] == {"valid": True, "degree": 3, "genus": 0}
    assert rep["schema"] == "spacecurves-report/1"


def test_invariants_skew_lines(capsys):
    code, out = run(capsys, "invariants", "corpus:skew-lines", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["rao_dims"] == {"0": 1}
    assert rep["results"]["degree"] == 2


def test_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.curve"
    bad.write_text("ring p=32003 base=field\ngens:\nX*\n")
    assert main(["validate", str(bad)]) == 3
    composite = tmp_path / "composite.curve"
    composite.write_text("ring p=1022117 base=field\ngens:\nX\nY\n")
    assert main(["validate", str(composite)]) == 3
    point = tmp_path / "pt.curve"
    point.write_text("ring p=32003 base=field\ngens:\nX\nY\nZ\n")
    assert main(["validate", str(point)]) == 2
    missing = tmp_path / "nope.curve"
    assert main(["validate", str(missing)]) == 3


def test_a_degree_past_the_limit_is_a_parse_error_naming_it(capsys, tmp_path):
    # the engine packs each degree into 7 bits and a guard bit, so a file or
    # CLI form whose term passes MAX_DEGREE is exit 3, before any power of it
    # is expanded; a coefficient power is no degree
    assert MAX_DEGREE == 127
    for gens in (f"X^{MAX_DEGREE + 1}\nY", "X^40000\nY", "(X*Y)^64\nZ"):
        big = tmp_path / "big.curve"
        big.write_text(f"ring p=32003 base=field\ngens:\n{gens}\n")
        assert main(["validate", str(big)]) == 3
        assert f"limit {MAX_DEGREE}" in capsys.readouterr().err
    for form in ("X^100*Y^28", "(X+Y)^64*(Z+W)^64", "(2)^200*X", "W^99999999999999999999"):
        assert main(["link", "corpus:twisted-cubic", form, "Y*W - Z^2"]) == 3, form
        assert f"limit {MAX_DEGREE}" in capsys.readouterr().err
    K = BaseRing(32003, False)
    assert Poly.parse("X^100*Y^27 + (Z*W)^63*W", K).degree() == MAX_DEGREE
    assert Poly.parse("2^200*X", K) == Poly.parse(f"{pow(2, 200, 32003)}*X", K)
    with pytest.raises(ParseError, match="degree 128 exceeds the degree limit 127"):
        Poly.parse("X^64*(Y + e*Z)^64", BaseRing(32003, True))


def test_compare_exit_codes(capsys):
    assert main(["compare", "corpus:line", "corpus:twisted-cubic"]) == 0
    assert main(["compare", "corpus:skew-lines", "corpus:twisted-cubic"]) == 1


def test_json_determinism(capsys):
    _, out1 = run(capsys, "invariants", "corpus:line", "--json", "--seed", "5")
    _, out2 = run(capsys, "invariants", "corpus:line", "--json", "--seed", "5")
    assert out1 == out2


def test_link_emits_revalidating_file(capsys, tmp_path):
    out_path = tmp_path / "out.curve"
    code, _ = run(
        capsys,
        "link",
        "corpus:twisted-cubic",
        "X*Z - Y^2",
        "Y*W - Z^2",
        "--output",
        str(out_path),
    )
    assert code == 0
    C = validate_curve(CurveFile.load(out_path).to_ideal())
    assert C.degree_genus() == (1, 0)


def test_bilink_emits_quartic(capsys, tmp_path):
    out_path = tmp_path / "q.curve"
    code, out = run(
        capsys,
        "bilink",
        "corpus:skew-lines",
        "X*Z + Y*W",
        "X",
        "1",
        "--output",
        str(out_path),
        "--json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["degree"] == 4
    C = validate_curve(CurveFile.load(out_path).to_ideal())
    assert C.rao_module().dims() == {1: 1}


def test_ntype_report(capsys):
    code, out = run(capsys, "ntype", "corpus:twisted-cubic", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["N_twists"] == [-2, -2, -2]
    assert rep["results"]["P_twists"] == [-3, -3]


def test_connect_chain_file_replays(capsys, tmp_path):
    chain_path = tmp_path / "chain.json"
    code, _ = run(
        capsys,
        "connect",
        "corpus:line",
        "corpus:twisted-cubic",
        "--output",
        str(chain_path),
    )
    assert code == 0
    steps = load_chain(chain_path)
    assert steps
    from spacecurves.files import load_corpus

    line = load_corpus("line").to_ideal()
    tc = load_corpus("twisted-cubic").to_ideal()
    end = replay_chain(line, steps)
    assert end == tc


@pytest.mark.parametrize("p", [1022117, 2**31 + 11, "32003"])
def test_chain_file_rejects_unsupported_prime(tmp_path, p):
    # 1022117 = 1009 * 1013; 2^31 + 11 is prime but above the largest
    # supported p; a quoted p is not a number
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(
        {"schema": "spacecurves-chain/1", "p": p, "dual": False, "steps": []}
    ))
    with pytest.raises(ParseError, match=f"p={p!r}"):
        load_chain(chain_path)


def test_corpus_list(capsys):
    code, out = run(capsys, "corpus", "list", "--json")
    assert code == 0
    rep = json.loads(out)
    assert "twisted-cubic" in rep["results"]["fixtures"]


def test_corpus_jobs_give_the_same_results(capsys, monkeypatch):
    import spacecurves.cli as cli

    monkeypatch.setattr(cli, "corpus_names", lambda: ["conic", "line"])
    reports = []
    for jobs in ("1", "2"):
        code, out = run(capsys, "corpus", "run", "--json", "--jobs", jobs)
        assert code == 0
        reports.append(json.loads(out)["results"])
    assert list(reports[0]) == ["conic", "line"]
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "Q, H, height",
    [
        ("X", "Y", "2"),  # deg H = 1, not the height 2
        ("X", "Y", "0"),  # height 0 needs a constant H
        ("X+Y^2", "Z", "1"),  # Q is not homogeneous
        ("X", "Y+Z^2", "2"),  # H is not homogeneous
    ],
)
def test_bilink_rejects_a_bad_form_as_a_domain_error(capsys, Q, H, height):
    assert main(["bilink", "corpus:line", Q, H, height]) == 2
    assert capsys.readouterr().err.startswith("WrongDegree: ")


def test_corpus_run_rejects_jobs_below_one(capsys):
    assert main(["corpus", "run", "--jobs", "0"]) == 3
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "corpus:skew-lines", "corpus:skew-lines-dual"],
        ["compare", "corpus:twisted-cubic", "corpus:line-dual"],
        ["parity", "corpus:skew-lines", "corpus:skew-lines-dual"],
        ["parity", "corpus:twisted-cubic", "corpus:line-dual"],
        ["connect", "corpus:line", "corpus:line-dual"],
    ],
)
def test_two_curve_commands_reject_curves_over_different_base_rings(capsys, argv):
    # a field curve and a family over the dual numbers are compared only
    # with --dual-numbers, which lifts the field curve
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("MixedBase: ")
    assert main(argv + ["--dual-numbers"]) in (0, 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "corpus:skew-lines", "corpus:skew-pair-alt", "--trials", "0"],
        ["parity", "corpus:skew-lines", "corpus:skew-pair-alt", "--trials", "-3"],
        ["connect", "corpus:line", "corpus:twisted-cubic", "--trials", "0"],
        ["connect", "corpus:line", "corpus:twisted-cubic", "--max-height", "-1"],
    ],
)
def test_search_bounds_below_their_minimum_are_parse_errors(capsys, argv):
    # Undecided is kept for a seeded search that ran and found nothing
    assert main(argv) == 3
    assert argv[-2] in capsys.readouterr().err


def test_dual_numbers_flag(capsys):
    code, out = run(
        capsys, "validate", "corpus:line", "--dual-numbers", "--json"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"] == {"valid": True, "degree": 1, "genus": 0}


def test_saturate_dual_family_times_a_power_of_m(capsys, tmp_path):
    # (X, Y) * (X, Y, Z, W)^3, constant over the dual numbers
    monos = [f"X^{a}*Y^{b}*Z^{c}*W^{3 - a - b - c}"
             for a in range(4) for b in range(4 - a) for c in range(4 - a - b)]
    path = tmp_path / "xy-m3.curve"
    path.write_text("ring p=32003 base=dual\ngens:\n" + "".join(f"{v}*{m}\n" for v in "XY" for m in monos))
    code, out = run(capsys, "saturate", str(path), "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results == {"already_saturated": False, "gens": ["X", "Y"]}


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr()


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; a usage error after a successful
    # call, and a successful call after it, read as on a fresh parser
    code, first = run(capsys, "validate", "corpus:line", "--json")
    assert code == 0
    parser = cli._build_parser()
    err = _usage_error(capsys, ["validate", "--bogus", "corpus:line"])
    assert cli._build_parser() is parser
    fresh = cli._build_parser.__wrapped__()
    with pytest.raises(SystemExit) as exc:
        fresh.parse_args(["validate", "--bogus", "corpus:line"])
    assert err == (exc.value.code, capsys.readouterr()) and err[0] == 2
    assert run(capsys, "validate", "corpus:line", "--json") == (code, first)
    assert _usage_error(capsys, ["validate", "--bogus", "corpus:line"]) == err


def test_python_dash_m_runs_the_tool():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "spacecurves", "corpus", "list"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "twisted-cubic" in done.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["link", "corpus:line", "X*Y", "X*Z"],
         "NotRegularSequence: X*Z is a zero divisor modulo X*Y in the fiber\n"),
        (["link", "corpus:skew-lines", "X*Z", "X*Z*W"],
         "NotRegularSequence: X*Z*W is a zero divisor modulo X*Z in the fiber\n"),
        (["link", "corpus:line-dual", "X*Y", "X*Z"],
         "NotRegularSequence: X*Z is a zero divisor modulo X*Y in the fiber\n"),
        (["bilink", "corpus:line", "X*Y", "Y^2", "2"], "NotCoprime: Y^2 shares a component with X*Y\n"),
        (["bilink", "corpus:line", "X", "X", "1"], "NotCoprime: X shares a component with X\n"),
        (["bilink", "corpus:skew-lines-dual", "X*Z", "X", "1"], "NotCoprime: X shares a component with X*Z\n"),
    ],
)
def test_zero_divisors_in_links_and_bilinks_are_domain_errors(capsys, argv, message):
    # the regular-sequence and coprimality checks read Hilbert series; the
    # exit code and the message are those of the colon test they replace
    assert main(argv) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "gens",
    [["X", "e*Y^10"], ["X^2", "X*Y + e*Z^2", "Y^2"], ["X*Z - Y^2", "Y*W - Z^2", "X*W - Y*Z", "(0+5*e)*X*Z"]],
)
def test_a_family_that_is_not_flat_is_a_domain_error(capsys, tmp_path, gens):
    path = tmp_path / "family.curve"
    path.write_text("ring p=32003 base=dual\ngens:\n" + "\n".join(gens) + "\n")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "NotFlat: a graded piece of R_A/I is not free over A\n"


@pytest.mark.parametrize("extra", ["(0+5*e)*X*Z", "0"])
def test_a_generator_whose_fiber_is_zero_changes_no_report(capsys, tmp_path, extra):
    # a pure e-multiple that lies in the ideal, or 0: the fiber of the family
    # gains a zero generator, and every answer is the family's without it
    path = tmp_path / "family.curve"
    for cmd in ("validate", "invariants", "ntype", "etype"):
        answers = []
        for gens in (["X", "Y + (0+3*e)*Z"], ["X", "Y + (0+3*e)*Z", extra]):
            path.write_text("ring p=32003 base=dual\ngens:\n" + "\n".join(gens) + "\n")
            code, out = run(capsys, cmd, str(path), "--json")
            answers.append((code, json.loads(out)["results"]))
        assert answers[0][0] == 0 and answers[1] == answers[0]


def test_unreadable_inputs_and_outputs_are_parse_errors(capsys, tmp_path):
    # a file that cannot be read or written ends in exit 3, not in a
    # traceback (whose exit 1 would read as a "No")
    binary = tmp_path / "binary.curve"
    binary.write_bytes(b"ring p=32003 base=field\ngens:\n\xff\xfe\n")
    for argv in (
        ["validate", str(tmp_path)],
        ["validate", str(binary)],
        ["link", "corpus:twisted-cubic", "X*Z - Y^2", "Y*W - Z^2", "--output", str(tmp_path)],
        ["connect", "corpus:line", "corpus:twisted-cubic", "--output", str(tmp_path / "no" / "chain.json")],
    ):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err.startswith("parse error: "), argv
    with pytest.raises(ParseError, match="not UTF-8"):
        CurveFile.load(binary)
    with pytest.raises(ParseError, match="Is a directory"):
        CurveFile.load(tmp_path)


def _chain_text(drop=None, **change):
    """A one-step chain file with the given top-level or step values in
    place of well-formed ones, and the step key drop left out."""
    step = {"kind": "trivial", "Q": "X", "H": "Z", "height": 1, "source_gens": ["X", "Y"], "target_gens": ["X", "Z"]}
    data = {"schema": "spacecurves-chain/1", "p": 101, "dual": False, "steps": [step]}
    for key, value in change.items():
        (data if key in data else step)[key] = value
    step.pop(drop, None)
    return json.dumps(data)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"schema": "spacecurves-chain/1", "dual": false, "steps": []}', "no key 'p'"),
        ('{"schema": "spacecurves-chain/1", "p": 101, "dual": false}', "no key 'steps'"),
        ("ring p=101 base=field\n", "is not JSON"),
        ('["spacecurves-chain/1"]', "not a spacecurves chain file"),
    ]
    + [
        (_chain_text(**change), message)
        for change, message in [
            ({"steps": 3}, "steps 3 is not of type list"),
            ({"steps": ["X"]}, "step 'X' is not of type dict"),
            ({"dual": 0}, "dual 0 is not of type bool"),
            ({"Q": 5}, "Q 5 is not of type str"),
            ({"H": ["Z"]}, r"H \['Z'\] is not of type str"),
            ({"height": True}, "height True is not of type int"),
            ({"height": "1"}, "height '1' is not of type int"),
            ({"kind": "linkage"}, "kind 'linkage' is neither trivial nor elementary"),
            ({"kind": ["trivial"]}, "is neither trivial nor elementary"),
            ({"source_gens": "X"}, "source_gens 'X' is not of type list"),
            ({"target_gens": ["X", 2]}, "target_gens 2 is not of type str"),
            ({"drop": "height"}, "no key 'height'"),
            ({"source_gens": ["X + 1"]}, r"source_gens 'X \+ 1' is not homogeneous"),
            ({"target_gens": ["X*Y + Z"]}, r"target_gens 'X\*Y \+ Z' is not homogeneous"),
            ({"Q": "X^2 + Y"}, r"Q 'X\^2 \+ Y' is not homogeneous"),
            ({"H": "W + 1"}, r"H 'W \+ 1' is not homogeneous"),
        ]
    ],
)
def test_a_malformed_chain_file_is_a_parse_error(tmp_path, text, message):
    path = tmp_path / "chain.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        load_chain(path)
    with pytest.raises(ParseError):
        load_chain(tmp_path)


def test_corpus_run_with_one_job_starts_no_process(capsys, monkeypatch):
    # --jobs 1 validates in-process, so a script without a __main__ guard
    # can call it; more jobs still use the pool
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(cli, "corpus_names", lambda: ["line"])
    code, out = run(capsys, "corpus", "run", "--json")
    assert code == 0
    assert json.loads(out)["results"]["line"]["degree"] == 1
    with pytest.raises(AssertionError, match="process pool"):
        main(["corpus", "run", "--jobs", "2"])

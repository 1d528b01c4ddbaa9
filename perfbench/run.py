"""Benchmark entry point: one workload, one seed, fresh worker processes.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout (the directory holding ``src/spacecurves``).
Inputs are generated from the seed and written under ``.perfbench-work/``
before any timing starts; the program sees only those files and argv.  The
worker is a closed loop with one client: it calls ``spacecurves.cli.main``
for one op after another, repeating the workload's op list for ``--seconds``
(at least once).  Every answer is checked against the value the generator
derived from how the input was built.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it has the per-layer metrics of a
traced pass, the tracing overhead, and ``correct`` also requires the traced
pass's reports and output files to be byte-identical to the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

SETUPS = 2  # set-up samples per untraced run; setup_s is their median
ROUNDS = 3  # distinct input rounds written per run; passes cycle through them
LIMIT_S = 170  # the whole run, including set-up, must end before this


class BenchError(Exception):
    pass


def host_probe():
    """Seconds for a fixed pure-Python loop plus a fixed numpy int64 loop,
    timed after one untimed round so that first-touch costs stay out."""
    import numpy as np

    def work():
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) % 32003
        a = (np.arange(200 * 200, dtype=np.int64).reshape(200, 200) * 7919) % 32003
        for _ in range(5):
            a = (a @ a) % 32003
        return acc, a

    work()
    t0 = perf_counter()
    work()
    return perf_counter() - t0


class Worker:
    """A worker process; ``ready_s`` is its time from start to set up."""

    def __init__(self, cmd, cwd, env, deadline):
        self.deadline = deadline
        t0 = perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        try:
            line = self._readline()
            if line.strip() != "ready":
                raise BenchError(f"worker did not get ready: {line!r} {self._stderr()}")
            self.ready_s = perf_counter() - t0
        except BaseException:
            self.stop()
            raise

    def _readline(self):
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(self.deadline - perf_counter(), 0)):
                raise BenchError("worker timed out")
        return self.proc.stdout.readline()

    def _stderr(self):
        if self.proc.poll() is None:
            self.proc.kill()
        return self.proc.stderr.read()[-2000:]

    def result(self):
        line = self._readline()
        if not line:
            raise BenchError(f"worker ended without a result: {self._stderr()}")
        return json.loads(line)

    def stop(self, grace=0.0):
        """Give the worker ``grace`` seconds to end, then kill it; wait for
        it and close its pipes."""
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc.stderr.close()


def run_workers(cmd, cwd, env, deadline, n):
    """Start ``n`` workers one after the other; all but the last stop once
    set up.  Returns their set-up times and the last one's result."""
    setups = []
    for i in range(n):
        last = i == n - 1
        w = Worker(cmd + ([] if last else ["--setup-only"]), cwd, env, deadline)
        try:
            setups.append(w.ready_s)
            if last:
                return setups, w.result()
        finally:
            w.stop(grace=10)


def check(op, row):
    """'ok', 'wrong', 'undecided', 'error' or 'deadline' for one op's outcome."""
    if row["status"] != "ok":
        return row["status"]
    if op.get("decision") and row["rc"] == 4:
        return "undecided"
    if row["rc"] != op["rc"]:
        return "wrong"
    try:
        results = json.loads(row["out"])["results"]
    except (ValueError, KeyError):
        return "wrong"
    for key, want in op.get("results", {}).items():
        got = results.get(key)
        if key.endswith("_twists") and isinstance(got, list):
            got = sorted(got)
        if got != want:
            return "wrong"
    if "chain_degree" in op:
        steps = results.get("steps", [])
        moved = sum(s["height"] * max(map(sum, gen.parse(s["Q"]))) for s in steps)
        if not steps or moved != op["chain_degree"]:
            return "wrong"
    return "ok"


def _tree_bytes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = perf_counter()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spacecurves", "cli.py")):
        print(f"no spacecurves sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2

    # inputs, written before any timing
    work = os.path.join(root, ".perfbench-work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    files, passes = gen.build(args.workload, args.seed, 1 if args.trace else ROUNDS)
    dual = args.workload == "dual-invariants"
    files["in/warmup.curve"] = gen.curve_text(gen.base_gens("line"), dual)
    for sub in ("plain", "traced") if args.trace else ("plain",):
        gen.write(files, os.path.join(work, sub))
        os.makedirs(os.path.join(work, sub, "out"))
    with open(os.path.join(work, "plan.json"), "w") as f:
        json.dump({"warmup": ["invariants", "in/warmup.curve"], "passes": passes}, f)

    probe_start = host_probe()
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--work", work,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups, res = run_workers(cmd, os.path.join(work, "plain"), env, start + LIMIT_S,
                              1 if args.trace else SETUPS)
    probe_end = host_probe()

    # check every op of every pass against the generator's expectations
    outcomes = []
    op_s = []
    for ps in res["passes"]:
        for op, row in zip(passes[ps["round"]], ps["ops"]):
            outcomes.append((op, check(op, row)))
            op_s.append(row["s"])
    counts = {k: sum(1 for _, o in outcomes if o == k)
              for k in ("ok", "wrong", "undecided", "error", "deadline")}
    attempted = len(outcomes)
    decisions = sum(1 for op, _ in outcomes if op.get("decision"))
    failed = counts["wrong"] + counts["error"] + counts["undecided"]
    summary = {
        "ops": attempted,
        "passes": len(res["passes"]),
        "deadline_misses": counts["deadline"],
        "failed_ratio": (attempted - counts["ok"]) / attempted,
        "undecided_ratio": counts["undecided"] / decisions if decisions else 0.0,
        "host_probe_start_s": probe_start,
        "host_probe_end_s": probe_end,
        "warmup_s": res["warmup_s"],
    }
    for (op, outcome), sec in zip(outcomes, op_s):
        print(f"# {outcome:9} {sec:8.3f} s  {' '.join(op['argv'])[:100]}")

    if args.trace:
        plain = res["passes"][0]
        traced = res["traced"]
        # an op that ran into its deadline on either side has no report to compare
        same = [(a["status"], a["rc"], a["out"]) == (b["status"], b["rc"], b["out"])
                for a, b in zip(plain["ops"], traced["ops"]) if "deadline" not in (a["status"], b["status"])]
        same_files = _tree_bytes(os.path.join(work, "plain", "out")) == _tree_bytes(os.path.join(work, "traced", "out"))
        identical = all(same) and same_files
        metrics = dict(traced["metrics"])
        metrics["trace.overhead_s"] = traced["s"] - plain["s"]
        metrics["host.probe_s"] = (probe_start + probe_end) / 2
        summary.update(untraced_solve_s=plain["s"], traced_solve_s=traced["s"],
                       reports_identical=identical, caches=traced["caches"])
        with open(os.path.join(work, "spans.json"), "w") as f:
            json.dump(traced["spans"], f, indent=1)
        units = {k: ("s" if k.endswith("_s") else "ratio" if "ratio" in k or "per_trial" in k else "count")
                 for k in metrics}
    else:
        identical = True
        # op_max_s: slowest op of each pass, median over passes
        per_pass_max = [max(r["s"] for r in ps["ops"]) for ps in res["passes"]]
        metrics = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(ps["s"] for ps in res["passes"]),
            "op_p50_s": statistics.median(op_s),
            "op_max_s": statistics.median(per_pass_max),
            "solved_ratio": counts["ok"] / attempted,
            "decided_ratio": 1 - summary["undecided_ratio"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = {k: "s" for k in metrics}
        units.update(solved_ratio="ratio", decided_ratio="ratio", peak_rss_mb="MB")
        summary["setup_samples_s"] = setups
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"summary": summary, "metrics": metrics}, f, indent=1)
    for key, val in summary.items():
        if key != "caches":
            print(f"# {key}: {val}")
    for key, val in metrics.items():
        print(f"{key}: {val:.6g} {units[key]}")
    correct = identical and counts["wrong"] == counts["error"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # a terminated run still stops its worker (the finally blocks run)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(3)

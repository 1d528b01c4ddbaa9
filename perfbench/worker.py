"""One benchmark process: import ``spacecurves``, run a warm-up op, then the
timed op list through ``spacecurves.cli.main(argv)``.

Started by ``run.py`` in a fresh interpreter with the checkout's ``src`` on
``sys.path`` and a work directory holding ``plan.json`` and the generated
inputs.  It writes ``ready`` to stdout once set up; with ``--setup-only`` it
stops there, otherwise it runs the passes and writes one JSON line with
every op's time, exit code and report.  With ``--trace 1`` it runs pass 0
untraced and then traced, each in its own copy of the inputs, so that the
tracing overhead and the byte-identity of the reports can be checked.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
from time import perf_counter


class DeadlineMiss(BaseException):
    """Raised by the per-op timer; not an Exception, so no handler in the
    program swallows it."""


def _on_alarm(signum, frame):
    raise DeadlineMiss()


def run_op(cli, argv, deadline):
    """(seconds, status, exit code, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    rc, status = None, "ok"
    if deadline:
        signal.setitimer(signal.ITIMER_REAL, deadline)
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--json", "--seed", "0"])
    except DeadlineMiss:
        status = "deadline"
    except Exception as exc:  # an op that crashes is a failed op, not a crashed run
        status = "error"
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        dt = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return dt, status, rc, out.getvalue(), err.getvalue()


def run_pass(cli, ops, where, tracer=None):
    os.chdir(where)
    t0 = perf_counter()
    rows = []
    for op in ops:
        dt, status, rc, out, err = run_op(cli, op["argv"], op.get("deadline"))
        if status == "deadline" and tracer is not None:
            tracer.abandon_open_spans()
        rows.append({"s": dt, "status": status, "rc": rc, "out": out, "err": err[-2000:]})
    return perf_counter() - t0, rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(args.work, "plan.json")) as f:
        plan = json.load(f)
    signal.signal(signal.SIGALRM, _on_alarm)

    from spacecurves import cli

    dt, status, rc, _, err = run_op(cli, plan["warmup"], None)
    if status != "ok" or rc != 0:
        sys.stderr.write(f"warm-up op failed ({status}, exit {rc}): {err}\n")
        return 2
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {"warmup_s": dt, "passes": []}
    passes = plan["passes"]
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer

        plain_s, rows = run_pass(cli, passes[0], os.path.join(args.work, "plain"))
        result["passes"].append({"round": 0, "s": plain_s, "ops": rows})
        tracer = Tracer().install()
        try:
            traced_s, rows = run_pass(cli, passes[0], os.path.join(args.work, "traced"), tracer)
        finally:
            tracer.uninstall()
        result["traced"] = {"s": traced_s, "ops": rows, "metrics": tracer.metrics(),
                            "caches": tracer.cache_delta, "spans": tracer.edge_table()[:40]}
    else:
        t0 = perf_counter()
        k = 0
        while k == 0 or perf_counter() - t0 < args.seconds:
            s, rows = run_pass(cli, passes[k % len(passes)], os.path.join(args.work, "plain"))
            result["passes"].append({"round": k % len(passes), "s": s, "ops": rows})
            k += 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

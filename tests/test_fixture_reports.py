"""The --json reports of validate, invariants, ntype and etype on every
corpus fixture, pinned in data/fixture_reports.json.

Regenerate the file with ``PYTHONPATH=src python tests/test_fixture_reports.py``
only when a change is meant to alter an answer, and say so in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

from spacecurves.cli import main
from spacecurves.files import corpus_names

PINNED = Path(__file__).resolve().parent / "data" / "fixture_reports.json"
COMMANDS = ("validate", "invariants", "ntype", "etype")


def fixture_reports() -> dict:
    """{"<command> <fixture>": {"exit": code, "report": parsed --json}}."""
    out = {}
    for name in corpus_names():
        for cmd in COMMANDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main([cmd, f"corpus:{name}", "--json"])
            out[f"{cmd} {name}"] = {"exit": code, "report": json.loads(buf.getvalue())}
    return out


def test_fixture_reports_match_the_pinned_file():
    pinned = json.loads(PINNED.read_text())
    fresh = fixture_reports()
    assert sorted(fresh) == sorted(pinned)
    for key in pinned:
        assert fresh[key] == pinned[key], key


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(fixture_reports(), sort_keys=True, indent=1) + "\n")

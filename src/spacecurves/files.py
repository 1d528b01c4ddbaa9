"""Text file format for curves and the named fixture corpus.

Format::

    ring p=<prime> base=<field|dual>
    gens:
    <one polynomial per line>

Blank lines and lines starting with ``#`` are ignored.  Printing a parsed
file and parsing it again reproduces the same normalized content.
"""

from __future__ import annotations

import re
from importlib import resources

from .errors import ParseError
from .groebner import Ideal
from .polyring import Poly
from .scalars import MAX_PRIME, BaseRing, is_prime

_HEADER = re.compile(r"^ring\s+p=(\d+)\s+base=(field|dual)\s*$")


def check_prime(p) -> int:
    """p itself if it is a supported prime; ParseError otherwise."""
    if type(p) is not int:
        raise ParseError(f"p={p!r} is not an integer")
    if p > MAX_PRIME:
        raise ParseError(f"p={p} exceeds the largest supported prime {MAX_PRIME}")
    if not is_prime(p):
        raise ParseError(f"p={p} is not prime")
    return p


def read_text(path) -> str:
    """The UTF-8 text of the file at path; ParseError when it cannot be
    read (missing, a directory, unreadable) or is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise ParseError(str(e)) from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: {e}") from e


def write_text(path, text: str) -> None:
    """Write text to the file at path; ParseError when it cannot be written
    (its directory is missing, or path is a directory)."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise ParseError(str(e)) from e


def parse_form(text: str, base: BaseRing, what: str) -> Poly:
    """The homogeneous polynomial text over base; ParseError naming what
    when it does not parse or is not homogeneous."""
    g = Poly.parse(text, base)
    if not g.is_homogeneous():
        raise ParseError(f"{what} {text!r} is not homogeneous")
    return g


class CurveFile:
    """A parsed curve file: a base ring and a list of generators."""

    def __init__(self, base: BaseRing, gens):
        self.base = base
        self.gens = list(gens)

    @classmethod
    def parse(cls, text: str) -> "CurveFile":
        lines = [
            ln.strip()
            for ln in text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")
        ]
        if not lines:
            raise ParseError("empty curve file")
        m = _HEADER.match(lines[0])
        if not m:
            raise ParseError(f"bad header line {lines[0]!r}")
        base = BaseRing(check_prime(int(m.group(1))), m.group(2) == "dual")
        if len(lines) < 2 or lines[1] != "gens:":
            raise ParseError("expected 'gens:' on the second line")
        gens = [parse_form(ln, base, "generator") for ln in lines[2:]]
        if not gens:
            raise ParseError("curve file lists no generators")
        return cls(base, gens)

    @classmethod
    def load(cls, path) -> "CurveFile":
        return cls.parse(read_text(path))

    @classmethod
    def from_ideal(cls, I: Ideal) -> "CurveFile":
        return cls(I.base, I.gens)

    def to_ideal(self) -> Ideal:
        return Ideal(self.base, self.gens)

    def text(self) -> str:
        kind = "dual" if self.base.dual else "field"
        out = [f"ring p={self.base.p} base={kind}", "gens:"]
        out.extend(str(g) for g in self.gens)
        return "\n".join(out) + "\n"

    def save(self, path) -> None:
        write_text(path, self.text())

    def __eq__(self, other):
        return (
            isinstance(other, CurveFile)
            and self.base == other.base
            and self.gens == other.gens
        )

    def __repr__(self):
        return f"CurveFile(p={self.base.p}, dual={self.base.dual}, gens={len(self.gens)})"


# -- fixture corpus ---------------------------------------------------------


def corpus_names():
    """Names of the shipped fixtures, sorted."""
    root = resources.files("spacecurves") / "corpus"
    return sorted(
        entry.name[: -len(".curve")]
        for entry in root.iterdir()
        if entry.name.endswith(".curve")
    )


def load_corpus(name: str) -> CurveFile:
    """Load a shipped fixture by name (without the .curve suffix)."""
    entry = resources.files("spacecurves") / "corpus" / f"{name}.curve"
    try:
        text = entry.read_text()
    except FileNotFoundError:
        raise ParseError(
            f"no corpus fixture {name!r}; available: {', '.join(corpus_names())}"
        )
    return CurveFile.parse(text)

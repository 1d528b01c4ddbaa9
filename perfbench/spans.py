"""Span and counter tracing of ``spacecurves`` from outside the package.

``Tracer.install()`` replaces the public functions and methods of each layer
module with wrappers, in every module namespace that holds the same object
(``curve.ideal_saturate`` as well as ``groebner.ideal_saturate``), and
``uninstall()`` puts the originals back.  Each call is a span whose parent is
the innermost open span; a span's self time is its duration minus the time
its child spans cover.  Spans are aggregated in memory per (parent, name)
edge and per layer, and the counters below are taken at the same boundaries.
Nothing under ``src/`` changes, and a wrapper returns exactly what the
wrapped call returns, so the CLI's reports are the same with tracing on.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import weakref
from time import perf_counter

PACKAGE = "spacecurves"
# Layer modules, bottom to top.  ``scalars`` and ``errors`` are not wrapped:
# Scalar arithmetic is the innermost loop of Poly arithmetic, and its time
# is counted in the layer that called it.
LAYERS = ("linalg", "polyring", "groebner", "gradedmod", "curve", "liaison", "raoclass", "files", "cli")

# Hot leaf helpers, called millions of times as sort keys or exponent
# arithmetic; their time stays with the caller.
SKIP = {
    "polyring.exp_mul", "polyring.exp_degree", "polyring.grevlex_key", "polyring.lex_key",
    "polyring.graded_piece_dim", "polyring.Poly.is_zero", "polyring.Poly.degree",
}
# Dunder methods wrapped as well: Poly products are counted, and an ideal
# comparison runs Groebner bases, whose time belongs to ``groebner``.
EXTRA = {"polyring.Poly.__mul__", "groebner.Ideal.__eq__"}

# Inclusive-time groups: a group's time counts once however its members nest.
GROUPS = {
    "groebner.saturate_s": ("groebner.ideal_saturate", "groebner.fiber_saturate"),
    "groebner.colon_s": ("groebner.ideal_colon", "groebner.fiber_colon", "groebner.fiber_colon_poly"),
    "gradedmod.resolution_s": ("gradedmod.GradedModule.resolution",),
    "gradedmod.hom_space_s": ("gradedmod.hom_space",),
    "gradedmod.ext_s": ("gradedmod.ext_module", "gradedmod.ext_piece_dims"),
    "curve.validate_s": ("curve.validate_curve",),
    "curve.rao_s": ("curve.CurveFamily.rao_module",),
    "liaison.link_s": ("liaison.link",),
    "liaison.bilink_s": ("liaison.trivial_biliaison",),
    "liaison.connect_s": ("liaison.connect_by_biliaisons",),
    "raoclass.ntype_s": ("raoclass.n_type_resolution",),
    "raoclass.etype_s": ("raoclass.e_type_resolution",),
    "raoclass.decide_s": ("raoclass.biliaison_equivalent", "raoclass.liaison_parity"),
    "files.parse_s": ("files.CurveFile.parse",),
}
# Module-level lru_caches whose hits and misses are reported.
CACHES = {
    "gradedmod.power_ideal": ("gradedmod", "_power_ideal_module"),
    "polyring.monomials": ("polyring", "monomials"),
    "polyring.monomial_index": ("polyring", "monomial_index"),
    "groebner.standard_monomial_count": ("groebner", "_standard_monomial_count"),
}
ELIMINATIONS = {"linalg.rref", "linalg.rank"}
ISO_SEARCHES = {"gradedmod.is_module_iso", "liaison.find_module_iso"}

# Per-layer metrics reported by a traced run, in a fixed order.
METRICS = (
    "linalg.self_s", "linalg.calls", "linalg.elim_cells", "linalg.matmul_madds",
    "linalg.eps_matmul_madds", "linalg.eps_action_calls", "linalg.span_adds", "linalg.max_cols",
    "groebner.self_s", "groebner.buchberger_calls", "groebner.spolys",
    "groebner.useful_spoly_ratio", "groebner.saturate_s", "groebner.colon_s",
    "polyring.self_s", "polyring.mul_calls", "polyring.monomials_cache_misses",
    "gradedmod.self_s", "gradedmod.min_generators_calls", "gradedmod.resolution_s",
    "gradedmod.hom_space_s", "gradedmod.ext_s", "gradedmod.power_ideal_cache_misses",
    "gradedmod.mc_trials", "gradedmod.mc_yes_per_trial",
    "curve.self_s", "curve.validate_s", "curve.rao_s",
    "liaison.self_s", "liaison.link_s", "liaison.bilink_s", "liaison.elementary_checks",
    "liaison.connect_s",
    "raoclass.self_s", "raoclass.ntype_s", "raoclass.etype_s", "raoclass.decide_s",
    "files.parse_s", "cli.self_s",
)


class Tracer:
    """Aggregated spans and counters for one traced stretch of calls."""

    def __init__(self):
        self.stack = []  # open spans: [name, child seconds]
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.edges = {}  # (parent, name) -> [calls, total s, self s]
        self.group_s = dict.fromkeys(GROUPS, 0.0)
        self._group_of = {m: g for g, ms in GROUPS.items() for m in ms}
        self._group_depth = dict.fromkeys(GROUPS, 0)
        self.counts = dict.fromkeys(
            ("linalg.calls", "linalg.elim_cells", "linalg.matmul_madds", "linalg.eps_matmul_madds",
             "linalg.eps_action_calls", "linalg.span_adds", "linalg.max_cols",
             "groebner.buchberger_calls", "groebner.spolys", "groebner.useful_spolys",
             "polyring.mul_calls", "gradedmod.min_generators_calls", "gradedmod.mc_trials",
             "gradedmod.mc_yes", "liaison.elementary_checks"), 0)
        self._eps = weakref.WeakValueDictionary()  # id -> live eps_action result
        self._patched = []  # (owner, attribute, original)
        self._cache_start = {}

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        group = self._group_of.get(name)
        before, after = self._hooks(name)

        def span(*args, **kwargs):
            if before is not None:
                before(args)
            if group is not None:
                self._group_depth[group] += 1
            parent = self.stack[-1][0] if self.stack else None
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.stack.pop()
                own = dt - frame[1]
                if self.stack:
                    self.stack[-1][1] += dt
                self.layer_self[layer] += own
                edge = self.edges.setdefault((parent, name), [0, 0.0, 0.0])
                edge[0] += 1
                edge[1] += dt
                edge[2] += own
                if group is not None:
                    self._group_depth[group] -= 1
                    if not self._group_depth[group]:
                        self.group_s[group] += dt
            if after is not None:
                after(args, out, parent)
            return out

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def abandon_open_spans(self):
        """Forget spans left open by a call interrupted inside a wrapper."""
        self.stack.clear()
        self._group_depth = dict.fromkeys(GROUPS, 0)

    # -- counters ------------------------------------------------------------

    def _hooks(self, name):
        c = self.counts
        before = after = None
        if name.startswith("linalg."):
            def before(args):
                c["linalg.calls"] += 1
        if name in ELIMINATIONS:
            def before(args):
                c["linalg.calls"] += 1
                rows, cols = args[0].shape
                c["linalg.elim_cells"] += rows * cols
                c["linalg.max_cols"] = max(c["linalg.max_cols"], cols)
        elif name == "linalg.matmul":
            def before(args):
                a, b = args[0], args[1]
                c["linalg.calls"] += 1
                madds = a.shape[0] * a.shape[1] * b.shape[1]
                c["linalg.matmul_madds"] += madds
                if self._eps.get(id(a)) is a or self._eps.get(id(b)) is b:
                    c["linalg.eps_matmul_madds"] += madds
        elif name == "linalg.eps_action":
            def after(args, out, parent):
                c["linalg.eps_action_calls"] += 1
                self._eps[id(out)] = out
        elif name == "linalg.Span.add":
            def before(args):
                c["linalg.calls"] += 1
                c["linalg.span_adds"] += 1
        simple = {
            "groebner.raw_buchberger": "groebner.buchberger_calls",
            "polyring.Poly.__mul__": "polyring.mul_calls",
            "gradedmod.min_generators": "gradedmod.min_generators_calls",
            "gradedmod.random_hom": "gradedmod.mc_trials",
            "liaison.check_elementary_biliaison": "liaison.elementary_checks",
        }
        if name in simple:
            key = simple[name]

            def before(args):
                c[key] += 1
        elif name == "groebner.raw_spoly":
            def after(args, out, parent):
                if parent == "groebner.raw_buchberger":
                    c["groebner.spolys"] += 1
        elif name == "groebner.raw_normal_form":
            def after(args, out, parent):
                if parent == "groebner.raw_buchberger" and out:
                    c["groebner.useful_spolys"] += 1
        elif name in ISO_SEARCHES:
            starts = []

            def before(args):
                starts.append(c["gradedmod.mc_trials"])

            def after(args, out, parent):
                kind = out[0] if isinstance(out, tuple) else out
                if c["gradedmod.mc_trials"] > starts.pop() and kind == "yes":
                    c["gradedmod.mc_yes"] += 1
        return before, after

    # -- install / uninstall ---------------------------------------------------

    def _targets(self):
        """(qualified name, owner, attribute, original) for everything to wrap."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if issubclass(obj, BaseException):
                        continue
                    for meth, raw in sorted(vars(obj).items()):
                        qual = f"{layer}.{attr}.{meth}"
                        if (meth.startswith("_") and qual not in EXTRA) or qual in SKIP:
                            continue
                        if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                            out.append((qual, obj, meth, raw))
                elif callable(obj):
                    qual = f"{layer}.{attr}"
                    if (attr.startswith("_") and qual not in EXTRA) or qual in SKIP:
                        continue
                    out.append((qual, mod, attr, obj))
        return out

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for qual, owner, attr, raw in self._targets():
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(qual, raw.__func__))
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapped = self._wrap(qual, raw)
            if inspect.isclass(owner):
                self._patch(owner, attr, raw, wrapped)
                continue
            # every module namespace that holds the same object, under any name
            for mod in modules:
                for name in [n for n, v in vars(mod).items() if v is raw]:
                    self._patch(mod, name, raw, wrapped)
        for key, (layer, attr) in CACHES.items():
            self._cache_start[key] = self._cache_fn(layer, attr).cache_info()
        return self

    def _cache_fn(self, layer, attr):
        fn = vars(sys.modules[f"{PACKAGE}.{layer}"])[attr]
        while not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        return fn

    def _patch(self, owner, attr, raw, wrapped):
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        self.cache_delta = {}
        for key, (layer, attr) in CACHES.items():
            now = self._cache_fn(layer, attr).cache_info()
            start = self._cache_start[key]
            self.cache_delta[key] = {"hits": now.hits - start.hits, "misses": now.misses - start.misses}
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- report --------------------------------------------------------------

    def metrics(self):
        c = self.counts
        out = {f"{layer}.self_s": self.layer_self[layer] for layer in LAYERS}
        out.update(self.group_s)
        out.update({k: v for k, v in c.items() if k not in ("groebner.useful_spolys", "gradedmod.mc_yes")})
        out["groebner.useful_spoly_ratio"] = c["groebner.useful_spolys"] / c["groebner.spolys"] if c["groebner.spolys"] else 0.0
        out["gradedmod.mc_yes_per_trial"] = c["gradedmod.mc_yes"] / c["gradedmod.mc_trials"] if c["gradedmod.mc_trials"] else 0.0
        out["polyring.monomials_cache_misses"] = self.cache_delta["polyring.monomials"]["misses"]
        out["gradedmod.power_ideal_cache_misses"] = self.cache_delta["gradedmod.power_ideal"]["misses"]
        return {k: out[k] for k in METRICS}

    def edge_table(self):
        """Aggregated spans, heaviest self time first."""
        rows = [
            {"parent": parent, "name": name, "calls": n, "total_s": round(tot, 6), "self_s": round(own, 6)}
            for (parent, name), (n, tot, own) in self.edges.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])

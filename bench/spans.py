"""Per-layer tracing from outside the program.

The tracer rebinds the public functions of each ``alphaineq`` module to
wrappers, in every module namespace that holds them (``from .series import
lf_derivative`` binds a second name in ``inequalities``), and methods on
their class.  ``uninstall`` puts every original back and ``not_restored``
confirms it.

Three kinds of wrapper keep the overhead down on the hottest leaves:

* ``span``: a span record (name, start, end, parent, row) plus calls and
  self time.  Self time is the span's duration minus its child spans.
* ``leaf``: calls and self time, no record (``AlphaSeries.evaluate``).
* ``count``: calls only (``gamma``, ``AlphaSeries.__init__``); their time
  stays in the caller's self time.

A *row* is the span tree under one root: ``harness.evaluate_single`` for
sweep rows, each ``eval_thm*`` call for certify rows, ``harness.falsify``
for falsify jobs.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOTS = frozenset(
    {
        "harness.evaluate_single",
        "harness.falsify",
        "inequalities.eval_thm1",
        "inequalities.eval_thm2",
        "inequalities.eval_thm3",
    }
)

# (metric prefix, module, class or None, attribute, kind, distinct-input key)
TARGETS = (
    ("alphanum.gamma", "alphanum", None, "gamma", "count", None),
    ("series.AlphaSeries.init", "series", "AlphaSeries", "__init__", "count", None),
    ("series.AlphaSeries.evaluate", "series", "AlphaSeries", "evaluate", "leaf", None),
    ("series.lf_derivative", "series", None, "lf_derivative", "span", "first"),
    ("series.lf_derivative_n", "series", None, "lf_derivative_n", "span", None),
    ("series.lf_integral", "series", None, "lf_integral", "span", None),
    ("quadrature.MomentFunctional.init", "quadrature", "MomentFunctional", "__init__", "span", None),
    ("quadrature.MomentFunctional.fit", "quadrature", "MomentFunctional", "fit", "span", None),
    ("quadrature.fractal_integral_numeric", "quadrature", None, "fractal_integral_numeric", "span", None),
    ("quadrature.composed_moment", "quadrature", None, "composed_moment", "span", None),
    ("convexity.check_s_convex_second", "convexity", None, "check_s_convex_second", "span", "all"),
    ("inequalities.sup_abs", "inequalities", None, "sup_abs", "span", "all"),
    ("inequalities.ostrowski_constants", "inequalities", None, "ostrowski_constants", "count", None),
    ("inequalities.eval_ghh", "inequalities", None, "eval_ghh", "span", None),
    ("inequalities.eval_shh", "inequalities", None, "eval_shh", "span", None),
    ("inequalities.eval_holder", "inequalities", None, "eval_holder", "span", None),
    ("inequalities.eval_ostrowski_classic", "inequalities", None, "eval_ostrowski_classic", "span", None),
    ("inequalities.identity_residual", "inequalities", None, "identity_residual", "span", None),
    ("inequalities.eval_thm1", "inequalities", None, "eval_thm1", "span", None),
    ("inequalities.eval_thm2", "inequalities", None, "eval_thm2", "span", None),
    ("inequalities.eval_thm3", "inequalities", None, "eval_thm3", "span", None),
    ("inequalities.eval_corollary", "inequalities", None, "eval_corollary", "span", None),
    ("harness.evaluate_single", "harness", None, "evaluate_single", "span", None),
    ("harness.run_sweep", "harness", None, "run_sweep", "span", None),
    ("harness.render_report", "harness", None, "render_report", "span", None),
    ("harness.falsify", "harness", None, "falsify", "span", None),
    ("cli.main", "cli", None, "main", "span", None),
)

_MARK = "_bench_wrapped"


class Stat:
    __slots__ = ("calls", "self_s", "keys", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.keys: set | None = None
        self.extra = 0


def _freeze(obj):
    """A hashable stand-in for a callable argument: its code and closure."""
    closure = getattr(obj, "__closure__", None)
    if closure:
        return (obj.__code__, tuple(_freeze(c.cell_contents) for c in closure))
    return obj


def _key_first(args, kwargs):
    return args[0]


def _key_all(args, kwargs):
    return tuple(_freeze(a) for a in args) + tuple(sorted(kwargs.items()))


def _alphaineq_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "alphaineq" or n.startswith("alphaineq.")]


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.distinct: dict[str, int] = defaultdict(int)  # summed over passes
        self.spans: list = []
        self.names: list[str] = []
        self.eval_s = 0.0  # summed duration of root spans
        self.layer_s: dict[str, float] = defaultdict(float)  # outermost spans inside rows
        self._stack: list = []  # frames: [span index, child seconds]
        self._row = -1
        self._rows = 0
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list = []
        self._origin = time.perf_counter()
        self.falsify_evals = 0

    # -- installation -------------------------------------------------
    def install(self) -> None:
        mods = {m.__name__.rpartition(".")[2]: m for m in _alphaineq_modules()}
        for name, mod, cls, attr, kind, key in TARGETS:
            if cls is not None:
                holder = getattr(mods[mod], cls)
                orig = holder.__dict__[attr]
                self._patch(holder, attr, orig, self._wrapper(name, orig, kind, key))
                continue
            orig = getattr(mods[mod], attr)
            wrapper = self._wrapper(name, orig, kind, key)
            for m in _alphaineq_modules():
                for binding, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, binding, orig, wrapper)

    def _patch(self, holder, attr, orig, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._patches.append((holder, attr, orig))

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._patches):
            setattr(holder, attr, orig)

    def not_restored(self) -> list[str]:
        """Names still bound to a wrapper, or not bound to their original."""
        bad = [
            f"{getattr(h, '__name__', h)}.{a}"
            for h, a, o in self._patches
            if vars(h).get(a) is not o
        ]
        for m in _alphaineq_modules():
            holders = [m] + [v for v in vars(m).values() if isinstance(v, type)]
            for h in holders:
                for a, v in vars(h).items():
                    if getattr(v, _MARK, False):
                        bad.append(f"{getattr(h, '__name__', h)}.{a}")
        return bad

    def end_pass(self) -> None:
        """Close a pass: distinct inputs are counted within each pass."""
        for name, s in self.stats.items():
            if s.keys is not None:
                self.distinct[name] += len(s.keys)
                s.keys.clear()

    # -- wrappers -----------------------------------------------------
    def _wrapper(self, name: str, fn, kind: str, key):
        stat = self.stats[name]
        if kind == "count":

            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

            setattr(counted, _MARK, True)
            return counted

        stack = self._stack
        clock = time.perf_counter
        if kind == "leaf":
            ndim = np.ndim

            def leaf(self_, x, *args, **kwargs):
                if ndim(x) == 0:
                    stat.extra += 1  # scalar calls
                t0 = clock()
                try:
                    return fn(self_, x, *args, **kwargs)
                finally:
                    dur = clock() - t0
                    stat.calls += 1
                    stat.self_s += dur
                    if stack:
                        stack[-1][1] += dur

            setattr(leaf, _MARK, True)
            return leaf

        keyfn = {"first": _key_first, "all": _key_all, None: None}[key]
        if keyfn is not None:
            stat.keys = set()
        pre, post = self._hooks(name)
        spans = self.spans
        name_id = len(self.names)
        self.names.append(name)
        layer = name.partition(".")[0]
        is_root = name in ROOTS
        depth = self._depth
        tracer = self

        def span(*args, **kwargs):
            if keyfn is not None:
                stat.keys.add(keyfn(args, kwargs))
            token = pre(args, kwargs) if pre is not None else None
            parent = stack[-1][0] if stack else -1
            opened_row = is_root and tracer._row < 0
            if opened_row:
                tracer._row = tracer._rows
                tracer._rows += 1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            d = depth[layer]
            depth[layer] = d + 1
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                depth[layer] = d
                dur = t1 - t0
                stat.calls += 1
                stat.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans[index] = (name_id, t0, t1, parent, tracer._row)
                if d == 0 and tracer._row >= 0:
                    tracer.layer_s[layer] += dur
                if opened_row:
                    tracer._row = -1
                    tracer.eval_s += dur
                if post is not None:
                    post(token, result)

        setattr(span, _MARK, True)
        return span

    def _hooks(self, name: str):
        stats = self.stats
        if name == "quadrature.composed_moment":
            fit = stats["quadrature.MomentFunctional.fit"]
            me = stats[name]

            def post(before, result):
                if fit.calls == before:
                    me.extra += 1  # answered exactly, without a fit

            return (lambda args, kwargs: fit.calls), post
        if name == "convexity.check_s_convex_second":
            me = stats[name]

            def pre(args, kwargs):
                grid = kwargs["grid"] if "grid" in kwargs else args[4]
                me.extra += grid**3

            return pre, None
        if name == "harness.falsify":
            evals = stats["harness.evaluate_single"]
            me = stats[name]

            def post(before, result):
                self.falsify_evals += evals.calls - before
                if result is not None:
                    me.extra += 1  # jobs that returned a witness

            return (lambda args, kwargs: evals.calls), post
        return None, None

    # -- results ------------------------------------------------------
    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass layer metrics, keyed by metric name, as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        st = self.stats

        def per_pass(v):
            return v / passes

        def frac(num, den):
            return num / den if den else 0.0

        for name, _mod, _cls, _attr, kind, key in TARGETS:
            s = st[name]
            out[f"{name}.calls"] = (per_pass(s.calls), "count")
            if kind != "count":
                out[f"{name}.self_s"] = (per_pass(s.self_s), "s")
            if key is not None:
                out[f"{name}.distinct_frac"] = (frac(self.distinct[name], s.calls), "ratio")
        out["series.AlphaSeries.evaluate.scalar_frac"] = (
            frac(st["series.AlphaSeries.evaluate"].extra, st["series.AlphaSeries.evaluate"].calls),
            "ratio",
        )
        cm = st["quadrature.composed_moment"]
        out["quadrature.composed_moment.exact_frac"] = (frac(cm.extra, cm.calls), "ratio")
        out["convexity.lattice_points"] = (per_pass(st["convexity.check_s_convex_second"].extra), "count")
        fz = st["harness.falsify"]
        out["harness.falsify.evals_per_job"] = (frac(self.falsify_evals, fz.calls), "count")
        out["harness.falsify.witness_frac"] = (frac(fz.extra, fz.calls), "ratio")
        out["quadrature.eval_frac"] = (frac(self.layer_s["quadrature"], self.eval_s), "ratio")
        out["convexity.eval_frac"] = (frac(self.layer_s["convexity"], self.eval_s), "ratio")
        return out

    def write(self, path: Path) -> int:
        """Write every span as gzipped CSV (times in microseconds); return the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self._origin
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start_us,end_us,parent,row\n")
            for i, (name_id, t0, t1, parent, row) in enumerate(self.spans):
                fh.write(
                    f"{i},{self.names[name_id]},{(t0 - origin) * 1e6:.3f},"
                    f"{(t1 - origin) * 1e6:.3f},{parent},{row}\n"
                )
        return len(self.spans)

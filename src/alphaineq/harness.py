"""Sweep configuration, falsification, and report emission.

The harness owns all I/O: parsing the textual function mini-language,
expanding sweep configurations into Cartesian products of parameter points,
randomized falsification with shrinking, and CSV/JSON report files.  It
holds no per-inequality logic: ids, their axes and their evaluators all come
from the :data:`alphaineq.inequalities.INEQUALITIES` registry, so sweep
points are independent; rows are sorted before emission, which makes the
output independent of the evaluation order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .alphanum import AlphaContext, gamma
from .inequalities import INEQUALITIES, IneqReport
from .quadrature import MomentFunctional
from .series import AlphaSeries

__all__ = [
    "ID_ALIASES",
    "INEQUALITY_IDS",
    "FunctionSpec",
    "SpecSyntaxError",
    "SweepConfig",
    "Tolerances",
    "applicable_axes",
    "emit_report",
    "evaluate_single",
    "expected_row_count",
    "falsify",
    "load_report",
    "parse_function_spec",
    "run_sweep",
]

#: Every inequality id, in the order of the :data:`INEQUALITIES` registry.
INEQUALITY_IDS = tuple(INEQUALITIES)

#: Accepted aliases for inequality ids (falsification targets).
ID_ALIASES = {"identity-residual-zero": "identity"}

CSV_COLUMNS = ("ineq", "alpha", "s", "p", "q", "a", "b", "x", "fn", "lhs", "rhs", "slack", "holds", "notes")


class SpecSyntaxError(ValueError):
    """A function spec failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class FunctionSpec:
    """A parsed test function: either an explicit series or a named family.

    ``kind`` is one of ``mono``, ``poly``, ``series``, ``ml``; ``payload``
    holds grades/coefficients (or the term count for ``ml``).  The series
    realization depends on the ambient alpha, so it happens in
    :meth:`realize`.
    """

    kind: str
    payload: tuple

    def canonical(self) -> str:
        if self.kind == "mono":
            return f"mono:{_fmt(self.payload[0])}"
        if self.kind == "poly":
            return "poly:" + ",".join(_fmt(c) for c in self.payload)
        if self.kind == "series":
            return "series:" + ";".join(f"({_fmt(k)},{_fmt(c)})" for k, c in self.payload)
        return f"ml:{self.payload[0]}"

    def realize(self, ctx: AlphaContext) -> AlphaSeries:
        if self.kind == "mono":
            return AlphaSeries.monomial(self.payload[0], ctx)
        if self.kind == "poly":
            return AlphaSeries(tuple((float(j), c) for j, c in enumerate(self.payload)), ctx)
        if self.kind == "series":
            return AlphaSeries(self.payload, ctx)
        terms = tuple((float(k), 1.0 / gamma(1.0 + k * ctx.alpha)) for k in range(self.payload[0]))
        return AlphaSeries(terms, ctx)

    def __str__(self) -> str:
        return self.canonical()


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _parse_number(text: str, offset: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SpecSyntaxError(f"expected a number for {what}, got {text!r}", offset) from None
    if not math.isfinite(value):
        raise SpecSyntaxError(f"{what} must be finite, got {text!r}", offset)
    return value


def parse_function_spec(text: str) -> FunctionSpec:
    """Parse the function mini-language.

    Grammar: ``mono:<k>`` | ``poly:<c0>,<c1>,...`` |
    ``series:(<k>,<c>);(<k>,<c>);...`` | ``ml:<terms>``.
    """
    if not text:
        raise SpecSyntaxError("empty function spec; expected mono:/poly:/series:/ml:", 0)
    head, sep, rest = text.partition(":")
    if not sep:
        raise SpecSyntaxError("expected ':' after the family name", len(text))
    body_at = len(head) + 1
    if head == "mono":
        k = _parse_number(rest, body_at, "grade")
        if k < 0:
            raise SpecSyntaxError(f"grade must be nonnegative, got {k}", body_at)
        return FunctionSpec("mono", (k,))
    if head == "poly":
        coeffs = []
        pos = body_at
        for piece in rest.split(","):
            coeffs.append(_parse_number(piece.strip(), pos, "coefficient"))
            pos += len(piece) + 1
        return FunctionSpec("poly", tuple(coeffs))
    if head == "series":
        terms = []
        pos = body_at
        for piece in rest.split(";"):
            raw = piece.strip()
            if not (raw.startswith("(") and raw.endswith(")")):
                raise SpecSyntaxError(f"expected '(<grade>,<coeff>)', got {raw!r}", pos)
            inner = raw[1:-1].split(",")
            if len(inner) != 2:
                raise SpecSyntaxError(f"expected two fields in {raw!r}", pos)
            k = _parse_number(inner[0].strip(), pos, "grade")
            c = _parse_number(inner[1].strip(), pos, "coefficient")
            if k < 0:
                raise SpecSyntaxError(f"grade must be nonnegative, got {k}", pos)
            terms.append((k, c))
            pos += len(piece) + 1
        return FunctionSpec("series", tuple(terms))
    if head == "ml":
        try:
            n = int(rest)
        except ValueError:
            raise SpecSyntaxError(f"expected an integer term count, got {rest!r}", body_at) from None
        if n < 1:
            raise SpecSyntaxError(f"term count must be >= 1, got {n}", body_at)
        return FunctionSpec("ml", (n,))
    raise SpecSyntaxError(
        f"unknown family {head!r}; expected one of mono, poly, series, ml", 0
    )


@dataclass(frozen=True)
class Tolerances:
    slack_tol: float = 1e-9
    fp_tol: float = 1e-12


@dataclass(frozen=True)
class SweepConfig:
    """Axes of a verification sweep; the JSON config mirrors these fields."""

    alphas: tuple[float, ...]
    functions: tuple[FunctionSpec, ...]
    inequalities: tuple[str, ...]
    intervals: tuple[tuple[float, float], ...] = ((0.0, 1.0),)
    x_fractions: tuple[float, ...] = (0.5,)
    s_values: tuple[float, ...] = (0.5,)
    pq_pairs: tuple[tuple[float, float], ...] = ((2.0, 2.0),)
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self) -> None:
        for a in self.alphas:
            if not (0.0 < a <= 1.0):
                raise ValueError(f"alpha must lie in (0, 1], got {a}")
        for lo, hi in self.intervals:
            if not (0.0 <= lo < hi):
                raise ValueError(f"need 0 <= a < b in intervals, got ({lo}, {hi})")
        for fr in self.x_fractions:
            if not (0.0 <= fr <= 1.0):
                raise ValueError(f"x fractions must lie in [0, 1], got {fr}")
        for s in self.s_values:
            if not (0.0 < s <= 1.0):
                raise ValueError(f"s must lie in (0, 1], got {s}")
        for p, q in self.pq_pairs:
            if abs(1.0 / p + 1.0 / q - 1.0) > 1e-12:
                raise ValueError(f"(p, q) = ({p}, {q}) are not conjugate")
        for ineq in self.inequalities:
            if canonical_id(ineq) not in INEQUALITIES:
                raise ValueError(f"unknown inequality id {ineq!r}")

    def context(self, alpha: float) -> AlphaContext:
        return AlphaContext(alpha, self.tolerances.slack_tol, self.tolerances.fp_tol)

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        tol = Tolerances(**raw.get("tolerances", {}))
        return cls(
            alphas=tuple(raw["alphas"]),
            functions=tuple(parse_function_spec(t) for t in raw["functions"]),
            inequalities=tuple(raw["inequalities"]),
            intervals=tuple((float(a), float(b)) for a, b in raw.get("intervals", [(0.0, 1.0)])),
            x_fractions=tuple(raw.get("x_fractions", [0.5])),
            s_values=tuple(raw.get("s_values", [0.5])),
            pq_pairs=tuple((float(p), float(q)) for p, q in raw.get("pq_pairs", [(2.0, 2.0)])),
            tolerances=tol,
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "SweepConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def canonical_id(ineq: str) -> str:
    return ID_ALIASES.get(ineq, ineq)


def applicable_axes(ineq: str) -> frozenset[str]:
    """Extra axes (beyond alpha, interval, fn) the inequality consumes."""
    return INEQUALITIES[canonical_id(ineq)][0]


def expected_row_count(cfg: SweepConfig) -> int:
    """Row count of :func:`run_sweep`: the product of applicable axes only."""
    base = len(cfg.alphas) * len(cfg.intervals) * len(cfg.functions)
    total = 0
    for ineq in cfg.inequalities:
        axes = applicable_axes(ineq)
        n = base
        if "s" in axes:
            n *= len(cfg.s_values)
        if "pq" in axes:
            n *= len(cfg.pq_pairs)
        if "x" in axes:
            n *= len(cfg.x_fractions)
        total += n
    return total


def evaluate_single(
    ineq: str,
    series: AlphaSeries,
    functional: MomentFunctional,
    a: float,
    b: float,
    x: Optional[float],
    s: Optional[float],
    p: Optional[float],
    q: Optional[float],
) -> IneqReport:
    """Evaluate one registered inequality at one parameter point."""
    axes, evaluator = INEQUALITIES[canonical_id(ineq)]
    if "s" in axes and s is None:
        raise ValueError(f"{ineq} needs the convexity order s")
    if "pq" in axes and q is None:
        raise ValueError(f"{ineq} needs q" + ("" if ineq.endswith("thm3") else " and p"))
    if "pq" in axes and p is None and not ineq.endswith("thm3"):
        raise ValueError(f"{ineq} needs conjugate (p, q)")
    if "x" in axes and x is None:
        raise ValueError(f"{ineq} needs the evaluation point x")
    return evaluator(series, functional, a, b, x, s, p, q)


def _error_report(ineq: str, alpha: float, exc: Exception, **params) -> IneqReport:
    return IneqReport(
        ineq=ineq,
        alpha=alpha,
        lhs=float("nan"),
        rhs=float("nan"),
        slack=float("nan"),
        holds=False,
        notes=f"error: {exc}",
        **params,
    )


def _sort_key(r: IneqReport):
    none = -1.0
    return (
        r.ineq,
        r.alpha,
        r.s if r.s is not None else none,
        r.a if r.a is not None else none,
        r.b if r.b is not None else none,
        r.x if r.x is not None else none,
        r.fn,
        r.p if r.p is not None else none,
        r.q if r.q is not None else none,
    )


def run_sweep(cfg: SweepConfig) -> list[IneqReport]:
    """Evaluate the Cartesian product of the config axes, one report per point.

    Per-point failures become rows with the error in the notes and
    ``holds=False``; they never abort the sweep.  Output order is imposed by
    a deterministic sort, so the evaluation order is unobservable.  Each
    (alpha, function) pair is realized once, so the values cached on its
    series are shared by all of its rows.
    """
    rows: list[IneqReport] = []
    for alpha in cfg.alphas:
        ctx = cfg.context(alpha)
        functional = MomentFunctional(ctx)
        for spec in cfg.functions:
            fn_text = spec.canonical()
            series = spec.realize(ctx)
            for ineq in cfg.inequalities:
                ineq = canonical_id(ineq)
                axes = applicable_axes(ineq)
                s_axis = cfg.s_values if "s" in axes else (None,)
                pq_axis = cfg.pq_pairs if "pq" in axes else ((None, None),)
                x_axis = cfg.x_fractions if "x" in axes else (None,)
                for (a, b) in cfg.intervals:
                    for s in s_axis:
                        for (p, q) in pq_axis:
                            for frac in x_axis:
                                x = None if frac is None else a + frac * (b - a)
                                try:
                                    rep = evaluate_single(ineq, series, functional, a, b, x, s, p, q)
                                except Exception as exc:  # per-point errors recorded, never raised
                                    rep = _error_report(ineq, alpha, exc, a=a, b=b, x=x, s=s, p=p, q=q)
                                rows.append(rep.with_fn(fn_text))
    rows.sort(key=_sort_key)
    return rows


@dataclass(frozen=True)
class _Point:
    alpha: float
    terms: tuple[tuple[float, float], ...]
    a: float
    b: float
    frac: float
    s: float
    p: float
    q: float

    def x(self) -> float:
        return self.a + self.frac * (self.b - self.a)


def _eval_point(ineq: str, pt: _Point, cfg: SweepConfig,
                functionals: dict[float, MomentFunctional]) -> Optional[IneqReport]:
    ctx = cfg.context(pt.alpha)
    if pt.alpha not in functionals:
        functionals[pt.alpha] = MomentFunctional(ctx)
    series = AlphaSeries(pt.terms, ctx)
    if series.is_zero:
        return None
    fn_text = FunctionSpec("series", pt.terms).canonical()
    try:
        rep = evaluate_single(
            canonical_id(ineq), series, functionals[pt.alpha],
            pt.a, pt.b, pt.x(), pt.s, pt.p, pt.q,
        )
    except Exception:
        return None
    return rep.with_fn(fn_text)


def falsify(
    ineq_id: str,
    family: FunctionSpec,
    cfg: SweepConfig,
    trials: int,
    seed: int,
    adversarial: bool = False,
) -> Optional[IneqReport]:
    """Search for a violating parameter point; shrink and return it, or None.

    The search first evaluates a deterministic set of canonical probes (the
    family as given, on the unit interval, with endpoint and midpoint
    evaluation points), then ``trials`` seeded random points whose
    coefficients carry nonnegative jitter; adversarial mode re-draws signs
    as well.

    Shrinking is slack-preserving: a step (halving coefficients toward
    zero, moving x toward the midpoint, moving the interval length toward
    one) is accepted only while the candidate still violates and the
    violation has not weakened, so the returned witness is the simplest
    configuration with the original slack.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if canonical_id(ineq_id) not in INEQUALITIES:
        raise ValueError(f"unknown inequality id {ineq_id!r}")
    rng = np.random.default_rng(seed)
    functionals: dict[float, MomentFunctional] = {}

    def terms_for(alpha: float) -> tuple[tuple[float, float], ...]:
        # nonnegative coefficient jitter keeps the candidates convexity
        # friendly; adversarial mode re-draws signs as well
        base = family.realize(cfg.context(alpha)).terms
        lo = -2.0 if adversarial else 0.0
        scales = rng.uniform(lo, 2.0, size=len(base))
        return tuple((k, c * sc) for (k, c), sc in zip(base, scales))

    # canonical probes first: scan them all and keep the worst violation,
    # which makes the witness for fixed families deterministic
    best: Optional[tuple[_Point, IneqReport]] = None
    for alpha in cfg.alphas:
        base_terms = family.realize(cfg.context(alpha)).terms
        for frac in (0.0, 0.5, 1.0):
            pt = _Point(alpha, base_terms, 0.0, 1.0, frac, 0.5, 2.0, 2.0)
            rep = _eval_point(ineq_id, pt, cfg, functionals)
            if rep is None or rep.holds or not math.isfinite(rep.slack):
                continue
            if best is None or rep.slack < best[1].slack:
                best = (pt, rep)
    if best is not None:
        return _shrink(ineq_id, best[0], best[1], cfg, functionals)

    for _ in range(trials):
        alpha = float(rng.choice(np.asarray(cfg.alphas)))
        a = float(rng.uniform(0.0, 2.0))
        b = a + float(rng.uniform(0.25, 2.75))
        frac = float(rng.uniform(0.0, 1.0))
        s = float(rng.uniform(0.05, 1.0))
        p = float(rng.uniform(1.2, 4.0))
        pt = _Point(alpha, terms_for(alpha), a, b, frac, s, p, p / (p - 1.0))
        rep = _eval_point(ineq_id, pt, cfg, functionals)
        if rep is None or rep.holds or not math.isfinite(rep.slack):
            continue
        return _shrink(ineq_id, pt, rep, cfg, functionals)
    return None


def _shrink(
    ineq_id: str,
    pt: _Point,
    rep: IneqReport,
    cfg: SweepConfig,
    functionals: dict[float, MomentFunctional],
) -> IneqReport:
    fp_tol = cfg.tolerances.fp_tol

    def candidates(cur: _Point) -> Iterable[_Point]:
        for i in range(len(cur.terms)):
            halved = tuple(
                (k, c / 2.0 if j == i else c) for j, (k, c) in enumerate(cur.terms)
            )
            yield replace(cur, terms=halved)
        if cur.frac != 0.5:
            yield replace(cur, frac=(cur.frac + 0.5) / 2.0)
        length = cur.b - cur.a
        if length != 1.0:
            yield replace(cur, b=cur.a + (length + 1.0) / 2.0)

    for _ in range(64):
        improved = False
        for cand in candidates(pt):
            cand_rep = _eval_point(ineq_id, cand, cfg, functionals)
            if cand_rep is None or cand_rep.holds:
                continue
            if cand_rep.slack <= rep.slack + fp_tol:  # violation not weakened
                pt, rep, improved = cand, cand_rep, True
                break
        if not improved:
            break
    return rep


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def emit_report(rows: Sequence[IneqReport], format: str, path: str | Path) -> None:
    """Write reports as CSV (17 significant digits) or JSON."""
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    text = render_report(rows, format)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def render_report(rows: Sequence[IneqReport], format: str) -> str:
    if format == "json":
        return json.dumps([{c: getattr(r, c) for c in CSV_COLUMNS} for r in rows], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([_csv_cell(getattr(r, c)) for c in CSV_COLUMNS])
    return buf.getvalue()


def load_report(path: str | Path, format: str) -> list[IneqReport]:
    """Read back an emitted report; inverse of :func:`emit_report`."""
    if format == "json":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return [IneqReport(**row) for row in raw]
    if format != "csv":
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(
                IneqReport(
                    ineq=row["ineq"],
                    alpha=float(row["alpha"]),
                    s=float(row["s"]) if row["s"] else None,
                    p=float(row["p"]) if row["p"] else None,
                    q=float(row["q"]) if row["q"] else None,
                    a=float(row["a"]) if row["a"] else None,
                    b=float(row["b"]) if row["b"] else None,
                    x=float(row["x"]) if row["x"] else None,
                    fn=row["fn"],
                    lhs=float(row["lhs"]),
                    rhs=float(row["rhs"]),
                    slack=float(row["slack"]),
                    holds=row["holds"] == "true",
                    notes=row["notes"],
                )
            )
    return out

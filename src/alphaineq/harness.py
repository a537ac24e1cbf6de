"""Sweep configuration, falsification, and report emission.

The harness owns all I/O: parsing the textual function mini-language,
expanding sweep configurations into Cartesian products of parameter points,
randomized falsification with shrinking, and CSV/JSON report files.  It
holds no per-inequality logic: ids, the parameters each reads (which fix
the axes it sweeps) and their evaluators all come from the
:data:`alphaineq.inequalities.INEQUALITIES` registry, and each evaluator
checks the parameters its record says it reads, so :func:`evaluate_single`
only dispatches, and :func:`run_sweep` only hands each block, of every id,
to its block evaluator and the values it returns to the one builder that
makes and decides every row, error rows included.
Sweep points are independent; rows are
sorted before emission, which makes the output independent of the
evaluation order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .alphanum import AlphaContext, gamma
from .inequalities import INEQUALITIES, IneqReport, _build, _check_conjugate, _check_interval, _check_s
from .quadrature import MomentFunctional
from .series import AlphaSeries

__all__ = [
    "ID_ALIASES",
    "INEQUALITY_IDS",
    "FunctionSpec",
    "SpecSyntaxError",
    "SweepConfig",
    "Tolerances",
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

#: The report columns holding text; ``holds`` is a bool and every other column a float or None.
_TEXT_COLUMNS = ("ineq", "fn", "notes")


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
        terms = []
        for k in range(self.payload[0]):
            try:
                terms.append((float(k), 1.0 / gamma(1.0 + k * ctx.alpha)))
            except OverflowError:
                raise ValueError(f"{self.canonical()}: Gamma(1 + k*alpha) overflows a double at "
                                 f"alpha={ctx.alpha}; at most {k} terms fit") from None
        return AlphaSeries(tuple(terms), ctx)


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

    def __post_init__(self) -> None:
        # each test is written so that NaN fails it
        if not (0.0 < self.slack_tol < math.inf):
            raise ValueError(f"slack_tol must be positive and finite, got {self.slack_tol}")
        if not (0.0 <= self.fp_tol < math.inf):
            raise ValueError(f"fp_tol must be nonnegative and finite, got {self.fp_tol}")


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
        # every number as a float, checked as in a JSON document, so a config
        # built in Python gives the report of that document and never sorts
        # None or a str against a float
        for name in ("alphas", "x_fractions", "s_values"):
            object.__setattr__(self, name, tuple(_number(name, v) for v in getattr(self, name)))
        for name in ("intervals", "pq_pairs"):
            object.__setattr__(self, name, _pairs(name, getattr(self, name)))
        # the checks the evaluators and the context apply, so a config they
        # would reject fails here instead of as error rows
        for a in self.alphas:
            self.context(a)
        for lo, hi in self.intervals:
            _check_interval(lo, hi)
        for fr in self.x_fractions:
            if not (0.0 <= fr <= 1.0):
                raise ValueError(f"x fractions must lie in [0, 1], got {fr}")
        for s in self.s_values:
            _check_s(s)
        for p, q in self.pq_pairs:
            _check_conjugate(p, q)
        for ineq in self.inequalities:
            if canonical_id(ineq) not in INEQUALITIES:
                raise ValueError(f"unknown inequality id {ineq!r}")

    def context(self, alpha: float) -> AlphaContext:
        return AlphaContext(alpha, self.tolerances.slack_tol)

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        """The config of a JSON document; a malformed field raises ValueError naming it."""
        if not isinstance(raw, dict):
            raise ValueError(f"a sweep config must be a JSON object, got {type(raw).__name__}")
        tolerances = raw.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise ValueError(f"tolerances must be an object, got {tolerances!r}")
        for name in tolerances:
            if name not in Tolerances.__dataclass_fields__:
                raise ValueError(
                    f"unknown tolerance {name!r}; expected {', '.join(Tolerances.__dataclass_fields__)}"
                )
        return cls(
            alphas=_items(raw, "alphas"),
            functions=tuple(parse_function_spec(_text("functions", t)) for t in _items(raw, "functions")),
            inequalities=tuple(_text("inequalities", t) for t in _items(raw, "inequalities")),
            intervals=_items(raw, "intervals", [(0.0, 1.0)]),
            x_fractions=_items(raw, "x_fractions", [0.5]),
            s_values=_items(raw, "s_values", [0.5]),
            pq_pairs=_items(raw, "pq_pairs", [(2.0, 2.0)]),
            tolerances=Tolerances(**{name: _number(f"tolerances.{name}", v) for name, v in tolerances.items()}),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "SweepConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _items(raw: dict, name: str, default: Optional[list] = None) -> list:
    """The list field ``name`` of a config document; required when there is no default."""
    if default is None and name not in raw:
        raise ValueError(f"missing required field {name!r}")
    value = raw.get(name, default)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _number(name: str, value) -> float:
    """``value`` as a float, so a config written with ints gives the report of the same config with floats."""
    # JSON true and false read as bools, which are ints to Python
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must hold numbers, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int too large for a float
        raise ValueError(f"{name} must hold numbers a float can hold, got {value!r}") from None


def _text(name: str, value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must hold strings, got {value!r}")
    return value


def _pairs(name: str, items) -> tuple[tuple[float, float], ...]:
    pairs = []
    for item in items:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ValueError(f"{name} must hold pairs of numbers, got {item!r}")
        pairs.append(tuple(_number(name, v) for v in item))
    return tuple(pairs)


def canonical_id(ineq: str) -> str:
    return ID_ALIASES.get(ineq, ineq)


def _axes(cfg: SweepConfig, ineq: str) -> tuple[tuple, tuple, tuple]:
    """The s, (p, q) and x-fraction values ``ineq`` sweeps; ``None`` for an axis it does not read.

    An id that reads q sweeps the (p, q) pairs, whether or not it reads p.
    """
    reads = INEQUALITIES[canonical_id(ineq)].reads
    return (
        cfg.s_values if "s" in reads else (None,),
        cfg.pq_pairs if "q" in reads else ((None, None),),
        cfg.x_fractions if "x" in reads else (None,),
    )


def expected_row_count(cfg: SweepConfig) -> int:
    """Row count of :func:`run_sweep`: per id, the product of the axes it sweeps."""
    base = len(cfg.alphas) * len(cfg.intervals) * len(cfg.functions)
    return sum(base * math.prod(map(len, _axes(cfg, ineq))) for ineq in cfg.inequalities)


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
    fn: str = "",
) -> IneqReport:
    """Evaluate one registered inequality at one point, which its evaluator checks.

    The evaluator builds a fresh row with an empty ``fn``; setting ``fn`` here,
    and on ``falsify``'s witness, are the only changes made to a row after its build.
    An ``OverflowError`` that does not name its id is raised again naming the
    id and ``[a, b]``: on a large interval the integral of f
    (``b**((k+1)alpha)``), or another power of an endpoint or a length,
    overflows.  A theorem-family point names its p and q itself.
    """
    ineq = canonical_id(ineq)
    try:
        rep = INEQUALITIES[ineq].evaluate(series, functional, a, b, x, s, p, q)
    except OverflowError as exc:
        if str(exc).startswith(f"{ineq} overflows"):
            raise
        raise OverflowError(f"{ineq} overflows on [{a!r}, {b!r}]: {exc}") from exc
    rep.fn = fn
    return rep


def _error_report(
    ineq: str, ctx: AlphaContext, exc: Exception, s: Optional[float], p: Optional[float], q: Optional[float],
    a: float, b: float, x: Optional[float], fn: str,
) -> IneqReport:
    """The row of NaN values at the point, made by the builder, whose note names the exception."""
    nan = float("nan")
    return _build(ineq, ctx, a, b, (x,), (s,), ((p, q),), [(nan, nan, f"error: {type(exc).__name__}: {exc}")], fn)[0]


def _sort_key(r: IneqReport) -> tuple:
    """The order of a sweep's rows (:func:`run_sweep`), in which None meets only None.

    A function: on a slotted record its attribute loads cost less than an
    ``operator.attrgetter`` of the nine names.
    """
    return (r.ineq, r.alpha, r.s, r.a, r.b, r.x, r.fn, r.p, r.q)


@np.errstate(over="ignore", invalid="ignore")
def run_sweep(cfg: SweepConfig) -> list[IneqReport]:
    """Evaluate the Cartesian product of the config axes, one report per point.

    Per-point failures become rows whose notes name the exception and its
    message, with ``holds=False``; they never abort the sweep.  Output order
    is imposed by a deterministic sort, so the evaluation order is
    unobservable: rows are ordered by (ineq, alpha, s, a, b, x, fn, p, q)
    (``_sort_key``).  The builder makes every row, error rows included, and
    sets an axis an id does not read to None on each of its rows, so an
    axis is None on every row of an id or on none, and None is only ever
    compared with None; the config's numbers are all floats
    (:class:`SweepConfig`).  So the order is the one that reads an empty s,
    x, p or q as -1.0.  Each (alpha, function) pair is realized once, so the
    values cached on its series are shared by all of its rows.  Every id
    gets one ``block`` call per (alpha, function, id, interval), which
    computes what the block's points share once, and the builder makes each
    row from its point's values, with the function's canonical spec as its
    ``fn``.  The points of a block whose call raises are evaluated one at a
    time by :func:`evaluate_single`, which sets that ``fn``, or become error
    rows; either way each row is built once.  No ``prepare`` step runs
    here.  An overflow or an invalid value (``inf - inf``) shows in its row
    as inf or NaN, so numpy does not warn of it.
    """
    rows: list[IneqReport] = []
    for alpha in cfg.alphas:
        ctx = cfg.context(alpha)
        functional = MomentFunctional(ctx)
        for spec in cfg.functions:
            fn_text = spec.canonical()
            series = spec.realize(ctx)
            for ineq in map(canonical_id, cfg.inequalities):
                block = INEQUALITIES[ineq].block
                s_axis, pq_axis, x_axis = _axes(cfg, ineq)
                for a, b in cfg.intervals:
                    xs = [None if frac is None else a + frac * (b - a) for frac in x_axis]
                    try:
                        values = block(series, functional, a, b, xs, s_axis, pq_axis)
                    except Exception:  # some point raises: evaluate them one at a time
                        for s, (p, q), x in product(s_axis, pq_axis, xs):
                            try:
                                rep = evaluate_single(ineq, series, functional, a, b, x, s, p, q, fn_text)
                            except Exception as exc:  # per-point errors recorded, never raised
                                rep = _error_report(ineq, ctx, exc, s, p, q, a, b, x, fn_text)
                            rows.append(rep)
                    else:
                        rows += _build(ineq, ctx, a, b, xs, s_axis, pq_axis, values, fn_text)
    rows.sort(key=_sort_key)
    return rows


class _Point(NamedTuple):
    """A point a ``falsify`` job evaluates; a tuple, which builds faster than a frozen dataclass."""

    alpha: float
    terms: tuple[tuple[float, float], ...]
    a: float
    b: float
    frac: float
    s: float
    p: float  # q is its conjugate

    @property
    def x(self) -> float:
        return self.a + self.frac * (self.b - self.a)


#: The most random trials a ``falsify`` job draws, and prepares where its id has a step, ahead of evaluating them.
_TRIAL_CHUNK = 16


@np.errstate(over="ignore", invalid="ignore")
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
    evaluation points, or for an id that reads no x the first of them
    alone, which gives the same row), then ``trials`` seeded random points whose
    coefficients carry nonnegative jitter; adversarial mode re-draws signs
    as well.  Only a violation with a finite slack is a witness.

    Shrinking (:func:`_shrink`) is slack-preserving and tries the simplest
    point first: dropping a term, then setting x to the midpoint (only for
    an id that reads x), then setting the interval length to one, each with
    a halfway step after the outright one, and last halving a coefficient.
    A step is accepted only while the candidate still violates and its
    slack has weakened by at most ``fp_tol``; a step that would not change
    the point is never evaluated, and a point that a later round proposes
    again reuses its report.  So the returned witness, whose
    ``fn`` is its series, is the simplest configuration found with the
    original slack: unless the shrink stopped at its 64-step cap, dropping
    any one of its terms loses the violation.

    Points that share their terms share one series, so the values cached
    on it (f', f'', I(f), theta) are computed once: the canonical probes
    use their family's series, and a shrink step that moves only x or b,
    or returns to terms it tried before, re-uses the series of those terms.
    The random trials of every id are drawn ahead, in chunks of 1, 2, 4, 8
    and then 16 (``_TRIAL_CHUNK``) trials, which draws the same values in
    the same order as drawing them one at a time: with one alpha, a
    chunk's uniforms come from one array call, and with several, each
    trial's alpha index is drawn before its uniforms, trial by trial.
    Either way a chunk's points come from one array map of the uniforms
    and one product with the family's coefficients per alpha.  Where the
    id has a ``prepare`` step (the theta forms, ``ostrowski``, ``holder``
    and ``identity``), the step runs on the rows ``(series, functional,
    a, b, x, p, q)`` of the chunk's trials and fills what they read
    (theta, the Hoelder integrals, the moments of f'') for all of them in
    one array kernel per grade plan; each trial's x and q = p/(p - 1) are
    computed once, for its row and its evaluation.  The chunk's trials
    are then evaluated in order, each as before, so neither the witness
    nor the number of evaluations depends on the chunk size or the step.
    The trials of a chunk that come after its witness are drawn, and
    prepared, but never evaluated.  Only the series of the latest chunk
    are kept while the search runs; the shrink keeps every series it
    makes, which are freed when the job returns.

    An evaluator error, such as the Gamma pole of a family without a second
    derivative, propagates as it does from :func:`evaluate_single`.  As in
    :func:`run_sweep`, numpy does not warn of an overflow or an invalid value:
    a NaN slack is never a witness.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ineq = canonical_id(ineq_id)
    if ineq not in INEQUALITIES:
        raise ValueError(f"unknown inequality id {ineq_id!r}")
    rng = np.random.default_rng(seed)
    # the moment functional (with its context) and the family series of each alpha, built once
    functionals = {alpha: MomentFunctional(cfg.context(alpha)) for alpha in cfg.alphas}
    families = {alpha: family.realize(fl.ctx) for alpha, fl in functionals.items()}
    family_terms = {alpha: f.terms for alpha, f in families.items()}
    # the series of the points the search may evaluate again, keyed by (alpha, terms)
    kept = {(alpha, f.terms): f for alpha, f in families.items()}

    def evaluate(pt: _Point, prepared: Optional[tuple] = None) -> Optional[IneqReport]:
        """The row of ``pt``, whose series, functional, a, b, x, p and q are those of its prepare row, if it has one."""
        if prepared is None:
            functional = functionals[pt.alpha]
            key = (pt.alpha, pt.terms)
            series = kept.get(key)
            if series is None:
                series = kept[key] = AlphaSeries(pt.terms, functional.ctx)
            a, b, x, p = pt.a, pt.b, pt.x, pt.p
            q = p / (p - 1.0)
        else:
            series, functional, a, b, x, p, q = prepared
        if series.is_zero:
            return None
        return evaluate_single(ineq, series, functional, a, b, x, pt.s, p, q)

    def violates(rep: Optional[IneqReport]) -> bool:
        return rep is not None and not rep.holds and math.isfinite(rep.slack)

    # canonical probes first: scan them all and keep the worst violation,
    # which makes the witness for fixed families deterministic
    found: Optional[tuple[_Point, IneqReport]] = None
    for alpha in cfg.alphas:
        for frac in (0.0, 0.5, 1.0) if INEQUALITIES[ineq].read_x else (0.0,):
            pt = _Point(alpha, family_terms[alpha], 0.0, 1.0, frac, 0.5, 2.0)
            rep = evaluate(pt)
            if violates(rep) and (found is None or rep.slack < found[1].slack):
                found = (pt, rep)

    if found is None:
        # A trial draws a, the length of [a, b], the x fraction, s, p and one
        # scale per coefficient from [low, high): nonnegative coefficient
        # jitter keeps the candidates convexity friendly; adversarial mode
        # re-draws signs as well.  The map ``low + (high - low) * u`` of
        # ``random`` draws gives the values of separate ``uniform(low, high)``
        # calls bit for bit, without their overhead, and numpy's elementwise
        # arithmetic gives the bits of the same arithmetic on Python floats.
        jitter = -2.0 if adversarial else 0.0
        maps = {}  # per alpha: the lows and spans of a trial's draws, the family's coefficients and grades
        for alpha, base in family_terms.items():
            lows = np.array((0.0, 0.25, 0.0, 0.05, 1.2) + (jitter,) * len(base))
            spans = np.array((2.0, 2.75, 1.0, 1.0, 4.0) + (2.0,) * len(base)) - lows
            maps[alpha] = (lows, spans, np.array([c for _, c in base]), [k for k, _ in base])
        alphas = cfg.alphas

        def draw(n: int) -> list[_Point]:
            if len(alphas) == 1:
                # one ``random((n, width))`` call draws the stream of n ``random(width)`` calls
                alpha = float(alphas[0])
                order, uniforms = [alpha] * n, {alpha: rng.random((n, len(maps[alpha][0])))}
            else:
                # each trial's alpha is drawn before its uniforms, so they are drawn trial by trial
                order, uniforms = [], {}
                for _ in range(n):
                    # the index draw of ``rng.choice(alphas)``
                    alpha = float(alphas[rng.integers(0, len(alphas), dtype=np.int64)])
                    order.append(alpha)
                    uniforms.setdefault(alpha, []).append(rng.random(len(maps[alpha][0])))
            pts = {}
            for alpha, u in uniforms.items():
                lows, spans, coeffs, grades = maps[alpha]
                v = lows + spans * np.asarray(u)
                # Python floats, so the witness's values and ``holds`` are not numpy scalars
                pts[alpha] = iter([
                    _Point(alpha, tuple(zip(grades, scaled)), a, a + length, frac, s, p)
                    for (a, length, frac, s, p), scaled in zip(v[:, :5].tolist(), (v[:, 5:] * coeffs).tolist())
                ])
            return [next(pts[alpha]) for alpha in order]

        # the trials are drawn ahead, in chunks of 1, 2, 4, ... up to _TRIAL_CHUNK
        # trials, which draws the same values in the same order, so that a
        # chunk is drawn by a few array calls and an id's prepare step fills
        # what a whole chunk reads at once
        prepare = INEQUALITIES[ineq].prepare
        drawn, size = 0, 1
        while found is None and drawn < trials:
            chunk = draw(min(size, trials - drawn))
            drawn, size = drawn + len(chunk), min(2 * size, _TRIAL_CHUNK)
            kept.clear()  # a random trial's terms never recur, unless a shrink starts from them
            rows = []  # the prepare rows, whose x and q each trial's evaluation reads too
            if prepare is not None:
                for pt in chunk:
                    functional = functionals[pt.alpha]
                    series = kept[pt.alpha, pt.terms] = AlphaSeries(pt.terms, functional.ctx)
                    rows.append((series, functional, pt.a, pt.b, pt.x, pt.p, pt.p / (pt.p - 1.0)))
                try:
                    prepare(rows)
                except Exception:  # it only fills caches: the trials compute, or raise, on their own
                    pass
            for i, pt in enumerate(chunk):  # indexed, so no name holds a trial's series past its chunk
                rep = evaluate(pt, rows[i] if rows else None)
                if violates(rep):
                    found = (pt, rep)
                    break

    if found is None:
        return None
    pt, rep = _shrink(evaluate, *found, cfg.tolerances.fp_tol, INEQUALITIES[ineq].reads)
    rep.fn = FunctionSpec("series", pt.terms).canonical()
    return rep


def _shrink(
    evaluate: Callable[[_Point], Optional[IneqReport]],
    pt: _Point,
    rep: IneqReport,
    fp_tol: float,
    reads: frozenset[str],
) -> tuple[_Point, IneqReport]:
    """Shrink a violating point, simplest candidate first; at most 64 steps.

    Each round tries, in order: dropping each term (while more than one is
    left); the x fraction set to 0.5, then moved halfway there, if the id
    reads x; b set to ``a + 1.0``, then moved halfway there; halving each
    coefficient.  The first candidate that still violates, with a slack
    weakened by at most ``fp_tol``, becomes the point of the next round; a
    round that keeps none ends the shrink.  A candidate equal to the current
    point is never evaluated; every other candidate is evaluated once per
    shrink, and its report is judged again, against the current slack,
    each later time a round proposes it.
    """
    moves_x = "x" in reads
    reports = {pt: rep}  # the report of every point this shrink has evaluated

    def candidates(cur: _Point) -> Iterable[_Point]:
        # built positionally: ``_replace`` costs about twice as much per point
        alpha, terms, a, b, frac, s, p = cur
        if len(terms) > 1:
            for i in range(len(terms)):
                yield _Point(alpha, terms[:i] + terms[i + 1:], a, b, frac, s, p)
        if moves_x:
            yield _Point(alpha, terms, a, b, 0.5, s, p)
            half = (frac + 0.5) / 2.0
            if half != 0.5:  # else the same candidate twice
                yield _Point(alpha, terms, a, b, half, s, p)
        unit = a + 1.0
        yield _Point(alpha, terms, a, unit, frac, s, p)
        half = a + (b - a + 1.0) / 2.0
        if half != unit:
            yield _Point(alpha, terms, a, half, frac, s, p)
        for i in range(len(terms)):
            halved = tuple(
                (k, c / 2.0 if j == i else c) for j, (k, c) in enumerate(terms)
            )
            yield _Point(alpha, halved, a, b, frac, s, p)

    for _ in range(64):
        for cand in candidates(pt):
            # a no-op step, such as b = a + 1.0 when b already is: b - a may
            # then be 0.9999999999999998, so no test of the length catches it
            if cand == pt:
                continue
            if cand in reports:
                cand_rep = reports[cand]
            else:
                cand_rep = reports[cand] = evaluate(cand)
            if cand_rep is None or cand_rep.holds:
                continue
            if cand_rep.slack <= rep.slack + fp_tol:  # violation not weakened
                pt, rep = cand, cand_rep
                break
        else:  # no candidate kept the violation
            break
    return pt, rep


def emit_report(rows: Sequence[IneqReport], format: str, path: str | Path) -> None:
    """Write reports as CSV (17 significant digits) or JSON."""
    text = render_report(rows, format)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


#: The JSON cells of the non-finite doubles, keyed by their ``repr``: strict JSON has no NaN or
#: Infinity, so each is written as the string of its CSV cell.
_NON_FINITE = {text: json.dumps(text) for text in ("inf", "-inf", "nan")}


def _json_number(v) -> str:
    """A number cell as its double in JSON, a non-finite one as the string of its CSV cell."""
    text = "%r" % float(v)
    return _NON_FINITE.get(text, text)


def _check_format(format: str) -> None:
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")


#: The largest float16.  A float below it in magnitude converts to every numpy float without overflow.
_FLOAT16_MAX = 65504.0


class _Cells(dict):
    """Cells rendered once per distinct value by ``render``, in a dict keyed by the value.

    A text is stored as it is.  Of the numbers, only a Python float with
    ``0 < |v| < 65504`` is stored: a lookup
    compares its value with each stored key of the same hash, and a numpy
    float32 or float16 compares with a float or an int in its own
    precision.  An int key could then find the cell of another number
    (``2**90 + 2**61 - 1`` and ``float32(2**90)`` share a hash), and a key
    beyond ``_FLOAT16_MAX`` could overflow in the cast, or find a float16
    infinity.  A float key of that size casts exactly or rounds, and a key
    that rounds to the value it is compared with differs from it by fewer
    than ``2**61 - 1`` units of the key's last place, so Python's numeric
    hash, the value modulo ``2**61 - 1``, tells the two apart: every hit is
    the cell of the lookup's own double.  NaN, which equals nothing, is
    not stored.  Zeros are not stored either, as 0.0 == -0.0: a zero of
    any number type gets the text of its sign, which ``render`` renders
    once, from 0.0 and -0.0, when the cells are made.  The ``rhs`` and
    ``slack`` cells of :func:`render_report` never come here: distinct on
    almost every row, they are formatted inline.
    """

    def __init__(self, render: Callable[[object], str]) -> None:
        self.render = render
        self.zeros = (render(0.0), render(-0.0))

    def __missing__(self, value) -> str:
        if value == 0:  # no text equals 0
            return self.zeros[math.copysign(1.0, value) < 0.0]
        text = self.render(value)
        if type(value) is str or (type(value) is float and abs(value) < _FLOAT16_MAX):
            self[value] = text
        return text


def render_report(rows: Sequence[IneqReport], format: str) -> str:
    """The report text in ``format``, ``csv`` or ``json``.

    Every row is one formatted string of its cells, whose types are those
    :class:`IneqReport` declares.  A number cell holds ``None`` or any real
    that converts to a double (a float, an int, a bool or a numpy scalar),
    and is written as that double: in CSV by ``format(v, ".17g")``, ``None``
    as an empty cell; in JSON by ``float.__repr__``, a non-finite value as
    the string of its CSV cell and ``None`` as ``null``.  ``holds`` is
    ``true`` or ``false`` by its truth value.  A text cell is quoted by the
    ``csv`` module, or by ``json.dumps``.  Cells are rendered once per
    distinct value in this call (:class:`_Cells`, which caches texts, floats
    below 65504 in magnitude and one text per sign of zero), except
    ``rhs`` and ``slack``, distinct on almost every row, which are
    formatted inline by the ``%`` operator with no Python function call:
    ``"%.17g" % v``, which converts v to a double as ``format(float(v),
    ".17g")`` does, and in JSON ``"%r" % float(v)`` with a non-finite text
    looked up in ``_NON_FINITE``.  A row's cells are read as attributes,
    which on a slotted record cost less than an ``operator.attrgetter``.
    The text is that of the ``csv`` writer, or of ``json.dumps(records,
    indent=2, allow_nan=False)`` with a newline, for the rows with each
    number cell converted to a float and ``holds`` to a bool.
    """
    _check_format(format)
    if format == "json":
        num, txt = _Cells(_json_number), _Cells(json.dumps)
        num[None] = "null"
        out = []
        for r in rows:
            rhs = "null" if r.rhs is None else "%r" % float(r.rhs)
            slack = "null" if r.slack is None else "%r" % float(r.slack)
            out.append(
                f'  {{\n    "ineq": {txt[r.ineq]},\n    "alpha": {num[r.alpha]},\n    "s": {num[r.s]},\n'
                f'    "p": {num[r.p]},\n    "q": {num[r.q]},\n    "a": {num[r.a]},\n    "b": {num[r.b]},\n'
                f'    "x": {num[r.x]},\n    "fn": {txt[r.fn]},\n    "lhs": {num[r.lhs]},\n'
                f'    "rhs": {_NON_FINITE.get(rhs, rhs)},\n    "slack": {_NON_FINITE.get(slack, slack)},\n'
                f'    "holds": {"true" if r.holds else "false"},\n    "notes": {txt[r.notes]}\n  }}'
            )
        return "[\n" + ",\n".join(out) + "\n]\n" if out else "[]\n"
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")

    def quote(text: str) -> str:
        line = io.StringIO()
        # two fields, as a lone empty field would be written as ""
        csv.writer(line, lineterminator="\n").writerow(("", text))
        return line.getvalue()[1:-1]

    num, txt = _Cells(_fmt), _Cells(quote)
    num[None] = ""  # an empty number cell
    for r in rows:
        buf.write(
            f"{txt[r.ineq]},{num[r.alpha]},{num[r.s]},{num[r.p]},{num[r.q]},{num[r.a]},{num[r.b]},{num[r.x]},"
            f"{txt[r.fn]},{num[r.lhs]},{'' if r.rhs is None else '%.17g' % r.rhs},"
            f"{'' if r.slack is None else '%.17g' % r.slack},{'true' if r.holds else 'false'},{txt[r.notes]}\n"
        )
    return buf.getvalue()


def _parse_cell(column: str, cell):
    """A report value from its CSV cell or its JSON value; non-finite floats are strings in both."""
    if column in _TEXT_COLUMNS or not isinstance(cell, str):
        return cell
    if column == "holds":
        return cell == "true"
    return float(cell) if cell else None


def load_report(path: str | Path, format: str) -> list[IneqReport]:
    """Read back an emitted report; inverse of :func:`emit_report`."""
    _check_format(format)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        records = json.load(fh) if format == "json" else csv.DictReader(fh)
        return [IneqReport(**{c: _parse_cell(c, row[c]) for c in CSV_COLUMNS}) for row in records]

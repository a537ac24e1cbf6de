"""Sweep configuration, falsification, and report emission.

The harness owns all I/O: parsing the textual function mini-language,
expanding sweep configurations into Cartesian products of parameter points,
randomized falsification with shrinking, and CSV/JSON report files.  It
holds no per-inequality logic: ids, the parameters each reads (which fix
the axes it sweeps) and their evaluators all come from the
:data:`alphaineq.inequalities.INEQUALITIES` registry, and each evaluator
checks the parameters its record says it reads, so :func:`evaluate_single`
only dispatches, and :func:`run_sweep` only hands the blocks of
``holder``, ``identity`` and the theorem family to their block evaluator.
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
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .alphanum import AlphaContext, gamma
from .inequalities import INEQUALITIES, IneqReport, _check_conjugate, _check_interval, _check_s, _read
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
            alphas=tuple(_number("alphas", v) for v in _items(raw, "alphas")),
            functions=tuple(parse_function_spec(_text("functions", t)) for t in _items(raw, "functions")),
            inequalities=tuple(_text("inequalities", t) for t in _items(raw, "inequalities")),
            intervals=_pairs(raw, "intervals", [(0.0, 1.0)]),
            x_fractions=tuple(_number("x_fractions", v) for v in _items(raw, "x_fractions", [0.5])),
            s_values=tuple(_number("s_values", v) for v in _items(raw, "s_values", [0.5])),
            pq_pairs=_pairs(raw, "pq_pairs", [(2.0, 2.0)]),
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


def _pairs(raw: dict, name: str, default: list) -> tuple[tuple[float, float], ...]:
    pairs = []
    for item in _items(raw, name, default):
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

    The evaluator builds a fresh row with an empty ``fn``; setting ``fn`` here is
    the one change made to a row after its build.
    """
    rep = INEQUALITIES[canonical_id(ineq)].evaluate(series, functional, a, b, x, s, p, q)
    rep.fn = fn
    return rep


def _error_report(
    ineq: str, alpha: float, exc: Exception, s: Optional[float], p: Optional[float], q: Optional[float],
    a: float, b: float, x: Optional[float], fn: str,
) -> IneqReport:
    """An error row with the parameters that a successful row of ``ineq`` reports, naming the exception."""
    x, s, p, q = _read(ineq, x, s, p, q)
    nan = float("nan")
    notes = f"error: {type(exc).__name__}: {exc}"
    return IneqReport(ineq, alpha, nan, nan, nan, False, s, p, q, a, b, x, fn, notes)


def _sort_key(r: IneqReport):
    # an empty s, x, p or q sorts as -1.0, below every value it can take; a sweep row always has a and b
    none = -1.0
    return (r.ineq, r.alpha, none if r.s is None else r.s, r.a, r.b, none if r.x is None else r.x, r.fn,
            none if r.p is None else r.p, none if r.q is None else r.q)


@np.errstate(over="ignore", invalid="ignore")
def run_sweep(cfg: SweepConfig) -> list[IneqReport]:
    """Evaluate the Cartesian product of the config axes, one report per point.

    Per-point failures become rows whose notes name the exception and its
    message, with ``holds=False``; they never abort the sweep.  Output order
    is imposed by a deterministic sort, so the evaluation order is
    unobservable.  Each (alpha, function) pair is realized once, so the
    values cached on its series are shared by all of its rows.  An id whose
    registry record has a ``block`` evaluator (``holder``, ``identity`` and
    the theorem family) gets one ``block`` call per (alpha, function, id,
    interval), which computes what the block's rows share once and builds
    each row with the function's canonical spec as its ``fn``.  Every other
    id's points, and those of a block whose call raises, are evaluated one at a
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
                    if block is not None:
                        try:
                            rows += block(series, functional, a, b, xs, s_axis, pq_axis, fn_text)
                            continue
                        except Exception:  # some point raises: evaluate them one at a time, as below
                            pass
                    for s, (p, q), x in product(s_axis, pq_axis, xs):
                        try:
                            rep = evaluate_single(ineq, series, functional, a, b, x, s, p, q, fn_text)
                        except Exception as exc:  # per-point errors recorded, never raised
                            rep = _error_report(ineq, alpha, exc, s, p, q, a, b, x, fn_text)
                        rows.append(rep)
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


#: The most random trials a ``falsify`` job draws, and prepares, ahead of evaluating them.
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
    evaluation points), then ``trials`` seeded random points whose
    coefficients carry nonnegative jitter; adversarial mode re-draws signs
    as well.  Only a violation with a finite slack is a witness.

    Shrinking (:func:`_shrink`) is slack-preserving and tries the simplest
    point first: dropping a term, then setting x to the midpoint (only for
    an id that reads x), then setting the interval length to one, each with
    a halfway step after the outright one, and last halving a coefficient.
    A step is accepted only while the candidate still violates and its
    slack has weakened by at most ``fp_tol``; a step that would not change
    the point is never evaluated.  So the returned witness, whose
    ``fn`` is its series, is the simplest configuration found with the
    original slack: unless the shrink stopped at its 64-step cap, dropping
    any one of its terms loses the violation.

    Points that share their terms share one series, so the values cached
    on it (f', f'', I(f), theta) are computed once: the canonical probes
    use their family's series, and a shrink step that moves only x or b,
    or returns to terms it tried before, re-uses the series of those terms.
    The random trials are drawn ahead, in chunks of 1, 2, 4, 8 and then 16
    (``_TRIAL_CHUNK``) trials, which draws the same values in the same
    order as drawing them one at a time, when the id has a ``prepare``
    step (the theta forms and ``ostrowski``).  That step fills theta of
    every trial of a chunk in one array kernel, and the chunk's trials are
    then evaluated in order, each as before, so neither the witness nor
    the number of evaluations depends on the step.  Every other id draws
    one trial at a time.  Only the series of the latest chunk are kept
    while the search runs; the shrink keeps every series it makes, which
    are freed when the job returns.

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

    def evaluate(pt: _Point) -> Optional[IneqReport]:
        functional = functionals[pt.alpha]
        key = (pt.alpha, pt.terms)
        series = kept.get(key)
        if series is None:
            series = kept[key] = AlphaSeries(pt.terms, functional.ctx)
        if series.is_zero:
            return None
        q = pt.p / (pt.p - 1.0)
        return evaluate_single(ineq, series, functional, pt.a, pt.b, pt.x, pt.s, pt.p, q)

    def violates(rep: Optional[IneqReport]) -> bool:
        return rep is not None and not rep.holds and math.isfinite(rep.slack)

    # canonical probes first: scan them all and keep the worst violation,
    # which makes the witness for fixed families deterministic
    found: Optional[tuple[_Point, IneqReport]] = None
    for alpha in cfg.alphas:
        for frac in (0.0, 0.5, 1.0):
            pt = _Point(alpha, family_terms[alpha], 0.0, 1.0, frac, 0.5, 2.0)
            rep = evaluate(pt)
            if violates(rep) and (found is None or rep.slack < found[1].slack):
                found = (pt, rep)

    if found is None:
        # A trial draws a, the length of [a, b], the x fraction, s, p and one
        # scale per coefficient from [low, high): nonnegative coefficient
        # jitter keeps the candidates convexity friendly; adversarial mode
        # re-draws signs as well.  One ``random(n)`` call and the map
        # ``low + (high - low) * u`` give the values of separate
        # ``uniform(low, high)`` calls bit for bit, without their overhead.
        jitter = -2.0 if adversarial else 0.0
        bounds = {}
        for alpha, base in family_terms.items():
            lows = (0.0, 0.25, 0.0, 0.05, 1.2) + (jitter,) * len(base)
            highs = (2.0, 2.75, 1.0, 1.0, 4.0) + (2.0,) * len(base)
            bounds[alpha] = tuple((lo, hi - lo) for lo, hi in zip(lows, highs))
        def draw(n: int) -> list[_Point]:
            pts = []
            for _ in range(n):
                # the index draw of ``rng.choice(cfg.alphas)``, which draws nothing from one alpha
                i = rng.integers(0, len(cfg.alphas), dtype=np.int64) if len(cfg.alphas) > 1 else 0
                alpha = float(cfg.alphas[i])
                draws = rng.random(len(bounds[alpha])).tolist()
                # Python floats, so the witness's values and ``holds`` are not numpy scalars
                a, length, frac, s, p, *scales = [lo + span * u for (lo, span), u in zip(bounds[alpha], draws)]
                terms = tuple((k, c * sc) for (k, c), sc in zip(family_terms[alpha], scales))
                pts.append(_Point(alpha, terms, a, a + length, frac, s, p))
            return pts

        # the trials are drawn ahead, in chunks of 1, 2, 4, ... up to _TRIAL_CHUNK
        # trials, which draws the same values in the same order, so that the
        # id's prepare step fills what a whole chunk reads at once; an id
        # without one draws one trial at a time
        prepare = INEQUALITIES[ineq].prepare
        cap = 1 if prepare is None else _TRIAL_CHUNK
        drawn, size = 0, 1
        while found is None and drawn < trials:
            chunk = draw(min(size, trials - drawn))
            drawn, size = drawn + len(chunk), min(2 * size, cap)
            kept.clear()  # a random trial's terms never recur, unless a shrink starts from them
            if prepare is not None:
                rows = []
                for pt in chunk:
                    series = kept[pt.alpha, pt.terms] = AlphaSeries(pt.terms, functionals[pt.alpha].ctx)
                    rows.append((series, pt.a, pt.b))
                try:
                    prepare(rows)
                except Exception:  # it only fills caches: the trials compute, or raise, on their own
                    pass
            for pt in chunk:
                rep = evaluate(pt)
                if violates(rep):
                    found = (pt, rep)
                    break

    if found is None:
        return None
    pt, rep = _shrink(evaluate, *found, cfg.tolerances.fp_tol, INEQUALITIES[ineq].reads)
    return rep.with_fn(FunctionSpec("series", pt.terms).canonical())


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
    point is never evaluated; every other candidate is.
    """
    moves_x = "x" in reads

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
            cand_rep = evaluate(cand)
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


def _json_number(v) -> str:
    """A number cell as its double in JSON.

    Strict JSON has no NaN or Infinity, so a non-finite value is written as
    the string of its CSV cell.
    """
    v = float(v)
    return float.__repr__(v) if math.isfinite(v) else json.dumps(_fmt(v))


def _check_format(format: str) -> None:
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")


class _Cells(dict):
    """Cells rendered once per distinct value by ``render``; zeros are not stored, as 0.0 == -0.0."""

    def __init__(self, render: Callable[[object], str]) -> None:
        self.render = render

    def __missing__(self, value) -> str:
        text = self.render(value)
        if value != 0:
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
    distinct value in this call, except CSV ``rhs`` and ``slack``, distinct
    on almost every row, which are rendered inline.  The text is that of
    the ``csv`` writer, or of ``json.dumps(records, indent=2,
    allow_nan=False)`` with a newline, for the rows with each number cell
    converted to a float and ``holds`` to a bool.
    """
    _check_format(format)
    values = attrgetter(*CSV_COLUMNS)
    if format == "json":
        num, txt = _Cells(_json_number), _Cells(json.dumps)
        num[None] = "null"
        out = []
        for r in rows:
            ineq, alpha, s, p, q, a, b, x, fn, lhs, rhs, slack, holds, notes = values(r)
            out.append(
                f'  {{\n    "ineq": {txt[ineq]},\n    "alpha": {num[alpha]},\n    "s": {num[s]},\n'
                f'    "p": {num[p]},\n    "q": {num[q]},\n    "a": {num[a]},\n    "b": {num[b]},\n'
                f'    "x": {num[x]},\n    "fn": {txt[fn]},\n    "lhs": {num[lhs]},\n    "rhs": {num[rhs]},\n'
                f'    "slack": {num[slack]},\n    "holds": {"true" if holds else "false"},\n'
                f'    "notes": {txt[notes]}\n  }}'
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
        ineq, alpha, s, p, q, a, b, x, fn, lhs, rhs, slack, holds, notes = values(r)
        rhs = "" if rhs is None else _fmt(rhs)
        slack = "" if slack is None else _fmt(slack)
        buf.write(
            f"{txt[ineq]},{num[alpha]},{num[s]},{num[p]},{num[q]},{num[a]},{num[b]},{num[x]},"
            f"{txt[fn]},{num[lhs]},{rhs},{slack},{'true' if holds else 'false'},{txt[notes]}\n"
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

"""Reference code that the tests check and no program path runs.

These are the fractal-field scalars with their field operations, the
Mittag-Leffler sum, the constant and zero series, the series ring
operations with the range-checked point evaluation, the
integration-by-parts residual, the alpha-binomial expansion, the
cell-by-cell report renderings and the one-series loop of the sup norm.  The tests hold them to the field axioms,
to spot values, to the README's ``alpha < 1`` findings (the by-parts
residual of ``x**alpha`` and the binomial-expansion gap of the mixed
moment) and to the text of the report writer.  The package never calls
them, so they live beside the tests that do.

Import it as ``from reference import ...``: pytest puts this directory on
``sys.path`` for the test modules beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from alphaineq.alphanum import AlphaContext, alpha_pow_signed
from alphaineq.series import AlphaSeries, lf_derivative, lf_integral

__all__ = [
    "ML_TERM_CAP",
    "AlphaReal",
    "MittagLefflerError",
    "alpha_add",
    "alpha_binomial_series",
    "alpha_mul",
    "byparts_residual",
    "csv_cell",
    "json_value",
    "mittag_leffler",
    "series_add",
    "series_constant",
    "series_eval",
    "series_mul",
    "series_scale",
    "series_zero",
    "sup_abs_loop",
]

#: Hard cap on series terms accepted while summing the Mittag-Leffler series.
ML_TERM_CAP = 10_000


class MittagLefflerError(ArithmeticError):
    """The Mittag-Leffler series failed to reach the truncation tolerance."""


@dataclass(frozen=True, order=True)
class AlphaReal:
    """An element of the fractal line, stored by its real base.

    The value represented is ``base**alpha`` with the sign carried by the
    base.  Ordering of two elements is the ordering of their bases, which
    matches the order on the fractal line.
    """

    base: float

    def __post_init__(self) -> None:
        if math.isinf(self.base):
            raise OverflowError("base overflowed the finite range")
        if math.isnan(self.base):
            raise ValueError("base must be a number")

    def __neg__(self) -> "AlphaReal":
        return AlphaReal(-self.base)

    def value(self, ctx: AlphaContext) -> float:
        """Numeric embedding of this element: ``sgn(base)*|base|**alpha``."""
        return alpha_pow_signed(self.base, ctx)


def alpha_add(x: AlphaReal, y: AlphaReal) -> AlphaReal:
    """Fractal addition: bases add."""
    return AlphaReal(x.base + y.base)


def alpha_mul(x: AlphaReal, y: AlphaReal) -> AlphaReal:
    """Fractal multiplication: bases multiply."""
    return AlphaReal(x.base * y.base)


def mittag_leffler(x: float, ctx: AlphaContext, tol: float = 1e-12) -> float:
    """Sum the series ``sum_k x**(alpha*k) / Gamma(1 + k*alpha)``.

    Terms are added until the first omitted term is below ``tol``; because
    the terms are positive and eventually decay faster than geometrically,
    the first omitted term bounds the tail up to a modest constant.  The
    decay test is only applied once terms have started shrinking, so the
    initial hump at ``x >= 1`` is summed in full.
    """
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if x == 0.0:
        return 1.0
    total = 0.0
    prev = math.inf
    for k in range(ML_TERM_CAP):
        term = x ** (ctx.alpha * k) / math.gamma(1.0 + k * ctx.alpha)
        if term < tol and term <= prev:
            return total
        total += term
        prev = term
    raise MittagLefflerError(
        f"series did not reach tol={tol} within {ML_TERM_CAP} terms (x={x}, "
        f"alpha={ctx.alpha})"
    )


def series_constant(value: float, ctx: AlphaContext) -> AlphaSeries:
    return AlphaSeries(((0.0, value),), ctx)


def series_zero(ctx: AlphaContext) -> AlphaSeries:
    return AlphaSeries((), ctx)


def _require_same_ctx(f: AlphaSeries, g: AlphaSeries) -> None:
    if f.ctx != g.ctx:
        raise ValueError("series have different contexts")


def series_add(f: AlphaSeries, g: AlphaSeries) -> AlphaSeries:
    _require_same_ctx(f, g)
    return AlphaSeries(f.terms + g.terms, f.ctx)


def series_scale(f: AlphaSeries, c: float) -> AlphaSeries:
    return AlphaSeries(tuple((k, c * coeff) for k, coeff in f.terms), f.ctx)


def series_mul(f: AlphaSeries, g: AlphaSeries) -> AlphaSeries:
    _require_same_ctx(f, g)
    prod = [(kf + kg, cf * cg) for kf, cf in f.terms for kg, cg in g.terms]
    return AlphaSeries(tuple(prod), f.ctx)


def series_eval(f: AlphaSeries, x: float) -> float:
    """Evaluate at a single point ``x >= 0``."""
    if x < 0.0:
        raise ValueError(f"series are defined on x >= 0, got x={x}")
    if x == 0.0 and f.terms and f.terms[0][0] < 0.0:
        raise ValueError("series with negative grades are singular at x = 0")
    return float(f.evaluate(float(x)))


def byparts_residual(f: AlphaSeries, g: AlphaSeries, a: float, b: float) -> float:
    """Absolute residual of the integration-by-parts identity on ``[a, b]``.

    Returns ``| I(f * g') - [f g]_a^b + I(f' * g) |`` where ``I`` is
    :func:`lf_integral` and primes are term-wise derivatives.  Zero means
    the identity holds for this input; under term-wise semantics it fails
    for generic inputs when alpha < 1, and the residual is the measurement
    of that failure.
    """
    _require_same_ctx(f, g)
    left = lf_integral(series_mul(f, lf_derivative(g)), a, b)
    boundary = f.evaluate(b) * g.evaluate(b) - f.evaluate(a) * g.evaluate(a)
    right = lf_integral(series_mul(lf_derivative(f), g), a, b)
    return abs(left - boundary + right)


def alpha_binomial_series(n: int, ctx: AlphaContext) -> AlphaSeries:
    """The fractal-field expansion of ``(1 - x)**(n*alpha)`` for integer ``n``.

    In the fractal field, ``(1-x)**(n*alpha)`` equals the alpha-binomial sum
    ``sum_j (-1)**j * C(n,j)**alpha * x**(j*alpha)``; this returns that sum
    as a series.  Note the series does *not* equal ``(1-x)**(n*alpha)``
    pointwise under ordinary arithmetic unless alpha = 1 -- the gap between
    the two is one of the consistency residuals the engine reports.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    terms = tuple(
        (float(j), (-1.0) ** j * math.comb(n, j) ** ctx.alpha) for j in range(n + 1)
    )
    return AlphaSeries(terms, ctx)


def csv_cell(value) -> str:
    """One report cell as the ``csv`` writer's field: a float at 17 significant digits, None empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def json_value(value):
    """One report cell as ``json.dumps`` takes it; a non-finite float as the string of its CSV cell."""
    # strict JSON has no NaN or Infinity
    if isinstance(value, float) and not math.isfinite(value):
        return format(value, ".17g")
    return value


def sup_abs_loop(f: AlphaSeries, a: float, b: float, grid: int = 1025) -> float:
    """The sup norm of ``|f|`` on ``[a, b]`` one series at a time, as ``sup_abs`` computed it before its row kernel.

    Four rounds: ``np.linspace(lo, hi, grid)``, then 33 points on the cell
    around the previous maximizer; ``f`` is summed term by term from +0.0,
    ``c * x**(k*alpha)``, and the first argmax of ``|f|`` is taken, whose
    NaN ends the loop with NaN.  Division by zero is ignored for a negative
    grade, as ``AlphaSeries.evaluate`` does; the caller sets the rest of
    numpy's error state.
    """
    exps = [k * f.ctx.alpha for k, _ in f.terms]
    lo, hi = a, b
    best = 0.0
    for _ in range(4):
        xs = np.linspace(lo, hi, grid)
        vals = np.zeros(xs.shape)
        with np.errstate(divide="ignore" if f.terms and f.terms[0][0] < 0.0 else "warn"):
            for e, (_, c) in zip(exps, f.terms):
                term = xs ** e
                term *= c
                vals += term
        vals = np.abs(vals)
        i = int(vals.argmax())  # the first NaN, if there is one
        v = vals.item(i)
        if v != v:  # NaN
            return math.nan
        if v > best:
            best = v
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, grid - 1)]
        grid = 33
    return best

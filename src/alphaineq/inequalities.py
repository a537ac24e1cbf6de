"""Evaluators for every inequality and identity the engine verifies.

Each evaluator computes the left side, the right side and the slack
``rhs - lhs`` of one displayed inequality and packages them into an
:class:`IneqReport`; ``holds`` means ``slack >= -slack_tol``.  The
evaluators never assert: for alpha = 1 the framework collapses to classical
calculus and everything here is an established theorem, while for alpha < 1
the reported slacks and residuals constitute a consistency study of the
term-wise calculus itself.

:data:`INEQUALITIES` is the one registry of inequality ids: each id maps to
an :class:`Ineq` record of the parameters it reads (of x, s, p and q), the
evaluator that computes its row and, for ``identity`` only, a ``prepare``
step that a sweep runs once per x axis to fill the caches its rows read.
The harness, the sweep validation and
the CLI read their ids from it, and a sweep's axes follow ``reads``.  The
record is also the id's parameter contract, which every evaluator checks
through :func:`_params`: a missing or bad parameter raises ``ValueError``
naming the id, and an unread one is None in the report.

The three theorems share one signed left side (the second-derivative
identity, which :func:`identity_residual` checks directly).  The
midpoint/sup-norm corollary bounds are implemented in the form obtained by
specializing their parent bound at ``x = (a+b)/2`` and applying the
s-convexity and subadditivity steps in ordinary real arithmetic.  Each
theorem is defined in one place, :func:`_theorem`, whose record holds its
Gamma-ratio prefactor, its per-endpoint side and its factors in the three
corollary forms; the theorem's rows and its corollaries' rows all read it.
Care is needed here: dividing the midpoint chain by ``2**(s*alpha)``
twice, or dropping the ``2**(1/q)`` factor that the conjugate-exponent
route produces, yields tighter-looking expressions that are simply false
for convex inputs at alpha = 1, so only the honestly derived forms are
used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .alphanum import AlphaContext, alpha_pow_signed, gamma, memoized
from .convexity import check_s_convex_second
from .quadrature import MomentFunctional, _sample, composed_moments
from .series import AlphaSeries, lf_derivative, lf_derivative_n, lf_integral

__all__ = [
    "COROLLARY_VARIANTS",
    "INEQUALITIES",
    "Ineq",
    "IneqReport",
    "OstrowskiConstants",
    "eval_corollary",
    "eval_ghh",
    "eval_holder",
    "eval_ostrowski_classic",
    "eval_shh",
    "eval_thm1",
    "eval_thm2",
    "eval_thm3",
    "identity_residual",
    "ostrowski_constants",
    "sup_abs",
]

@dataclass(frozen=True)
class OstrowskiConstants:
    """The Gamma-ratio constants of the s-convex Ostrowski bounds.

    ``M`` is the moment of ``t**((s+2)*alpha)`` and ``N`` the moment of the
    expanded ``t**(2*alpha) * (1-t)**(s*alpha)`` integrand, both on [0, 1].
    """

    M: float
    N: float


@dataclass(slots=True)
class IneqReport:
    """One verification record: an inequality, its parameters, and the slack.

    A plain slotted record, so it is unhashable.  Its evaluator builds it
    once; the one field set afterwards is ``fn``, by
    :func:`alphaineq.harness.evaluate_single` on the row it was just handed.
    """

    ineq: str
    alpha: float
    lhs: float
    rhs: float
    slack: float
    holds: bool
    s: Optional[float] = None
    p: Optional[float] = None
    q: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    x: Optional[float] = None
    fn: str = ""
    notes: str = ""

    def with_fn(self, fn: str) -> "IneqReport":
        """This record with ``fn`` set: ``replace(self, fn=fn)``, built positionally, which costs less."""
        return IneqReport(
            self.ineq, self.alpha, self.lhs, self.rhs, self.slack, self.holds,
            self.s, self.p, self.q, self.a, self.b, self.x, fn, self.notes,
        )


def _report(ineq: str, ctx: AlphaContext, lhs: float, rhs: float, notes: str = "", s: Optional[float] = None,
            p: Optional[float] = None, q: Optional[float] = None, a: Optional[float] = None,
            b: Optional[float] = None, x: Optional[float] = None) -> IneqReport:
    """The row's report, built positionally with an empty ``fn``; ``holds`` is ``slack >= -slack_tol``."""
    slack = rhs - lhs
    return IneqReport(ineq, ctx.alpha, lhs, rhs, slack, slack >= -ctx.slack_tol, s, p, q, a, b, x, "", notes)


def _check_interval(a: float, b: float) -> None:
    if not (0.0 <= a < b < math.inf):
        raise ValueError(f"need 0 <= a < b with b finite, got ({a}, {b})")


def _check_point(x: float, a: float, b: float) -> None:
    if not (a <= x <= b):
        raise ValueError(f"need a <= x <= b, got x={x} for [{a}, {b}]")


def _check_s(s: float) -> None:
    if not (0.0 < s <= 1.0):
        raise ValueError(f"s must lie in (0, 1], got {s}")


def _check_conjugate(p: float, q: float, tol: float = 1e-12) -> None:
    # written so that a NaN fails each test
    if not (p > 1.0 and q > 1.0):
        raise ValueError(f"need p, q > 1, got ({p}, {q})")
    if not abs(1.0 / p + 1.0 / q - 1.0) <= tol:
        raise ValueError(f"(p, q) = ({p}, {q}) are not conjugate")


def _params(ineq: str, a: float, b: float, x: Optional[float] = None, s: Optional[float] = None,
            p: Optional[float] = None, q: Optional[float] = None) -> tuple:
    """:func:`_read` of ``(x, s, p, q)``, after checking ``[a, b]`` and each parameter ``ineq`` reads.

    A missing or bad one raises ``ValueError`` naming ``ineq``.
    """
    reads = INEQUALITIES[ineq].reads
    if "s" in reads and s is None:
        raise ValueError(f"{ineq} needs the convexity order s")
    if "p" in reads and (p is None or q is None):
        raise ValueError(f"{ineq} needs conjugate (p, q)")
    if "x" in reads and x is None:
        raise ValueError(f"{ineq} needs the evaluation point x")
    try:
        _check_interval(a, b)
        if "s" in reads:
            _check_s(s)
        if "p" in reads:
            _check_conjugate(p, q)
        elif "q" in reads and not (q is not None and q >= 1.0):  # a NaN q fails too
            raise ValueError(f"need q >= 1, got {q}")
        if "x" in reads:
            _check_point(x, a, b)
    except ValueError as exc:
        raise ValueError(f"{ineq}: {exc}") from None
    return _read(ineq, x, s, p, q)


def _read(ineq: str, x: Optional[float], s: Optional[float], p: Optional[float], q: Optional[float]) -> tuple:
    """``(x, s, p, q)``, unchecked, with the ones ``ineq``'s registry row does not read set to None."""
    reads = INEQUALITIES[ineq].reads
    return (x if "x" in reads else None, s if "s" in reads else None,
            p if "p" in reads else None, q if "q" in reads else None)


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.linspace(lo, hi, n)`` bit for bit, without its per-call overhead.

    The same arithmetic as linspace: ``arange(n) * step + lo`` with the
    last point set to ``hi``, and linspace's fallback for a step that
    underflows to zero.
    """
    xs = np.arange(n, dtype=float)
    delta = hi - lo
    step = delta / (n - 1)
    if step == 0.0:
        xs /= n - 1
        xs *= delta
    else:
        xs *= step
    xs += lo
    xs[-1] = hi
    return xs


def sup_abs(f: AlphaSeries, a: float, b: float, grid: int = 1025) -> float:
    """Sup norm of ``|f|`` on ``[a, b]``: dense grid plus local refinement.

    After the grid scan, the cell around the maximizer is re-gridded three
    times, which is enough for the smooth series handled here.  The grids
    are those of ``np.linspace``, built by :func:`_grid`.  A NaN sample
    (``inf - inf`` at a pole) makes the value NaN.  The value is cached on
    ``f`` per ``(a, b, grid)``, so a caller that keeps the series computes
    it once per interval.
    """
    if grid < 3:
        raise ValueError(f"grid must be >= 3, got {grid}")
    return _sup_abs(f, a, b, grid)


@memoized("sup")
def _sup_abs(f: AlphaSeries, a: float, b: float, grid: int) -> float:
    lo, hi = a, b
    best = 0.0
    for _ in range(4):
        xs = _grid(lo, hi, grid)
        vals = np.abs(f.evaluate(xs))
        i = int(vals.argmax())  # the first NaN, if there is one
        v = vals.item(i)
        if v != v:  # NaN
            return math.nan
        if v > best:
            best = v
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, grid - 1)]
        grid = 33
    return best


def ostrowski_constants(s: float, ctx: AlphaContext) -> OstrowskiConstants:
    """The moment constants of the s-convex Ostrowski bounds."""
    _check_s(s)
    a = ctx.alpha
    M = gamma(1.0 + (s + 2.0) * a) / gamma(1.0 + (s + 3.0) * a)
    N = (
        gamma(1.0 + s * a) / gamma(1.0 + (s + 1.0) * a)
        - 2.0**a * gamma(1.0 + (s + 1.0) * a) / gamma(1.0 + (s + 2.0) * a)
        + M
    )
    return OstrowskiConstants(M=M, N=N)


def eval_ghh(f: AlphaSeries, a: float, b: float) -> IneqReport:
    """Two-sided Hermite-Hadamard check for a generalized convex candidate.

    The report's lhs/rhs carry the binding pair of the chain
    ``f(mid) <= normalized mean <= endpoint average``; the full chain is
    recorded in the notes.
    """
    _params("ghh", a, b)
    ctx = f.ctx
    al = ctx.alpha
    left = f.evaluate((a + b) / 2.0)
    mid = ctx.gamma_grade(1) * lf_integral(f, a, b) / (b - a) ** al
    right = (f.evaluate(a) + f.evaluate(b)) / 2.0**al
    return _binding_report("ghh", ctx, left, mid, right, a=a, b=b)


def eval_shh(f: AlphaSeries, s: float, a: float, b: float) -> IneqReport:
    """Two-sided s-convex Hermite-Hadamard check."""
    _params("shh", a, b, s=s)
    ctx = f.ctx
    al = ctx.alpha
    left = 2.0 ** ((s - 1.0) * al) / ctx.gamma_grade(1) * f.evaluate((a + b) / 2.0)
    mid = lf_integral(f, a, b) / (b - a) ** al
    right = gamma(1.0 + s * al) / gamma(1.0 + (s + 1.0) * al) * (f.evaluate(a) + f.evaluate(b))
    return _binding_report("shh", ctx, left, mid, right, s=s, a=a, b=b)


def _binding_report(ineq: str, ctx: AlphaContext, left: float, mid: float, right: float,
                    s: Optional[float] = None, a: Optional[float] = None, b: Optional[float] = None) -> IneqReport:
    slack_left = mid - left
    slack_right = right - mid
    # the smaller slack binds, and a NaN one always does, so ``holds`` covers both sides
    if slack_left <= slack_right or np.isnan(slack_left):
        lhs, rhs, binding = left, mid, "left"
    else:
        lhs, rhs, binding = mid, right, "right"
    notes = f"left={left:.17g} mid={mid:.17g} right={right:.17g} binding={binding}"
    return _report(ineq, ctx, lhs, rhs, notes, s=s, a=a, b=b)


def eval_holder(
    f: Callable | AlphaSeries,
    g: Callable | AlphaSeries,
    p: float,
    q: float,
    a: float,
    b: float,
    functional: MomentFunctional,
) -> IneqReport:
    """Generalized Hoelder inequality via the numeric moment functional.

    Integrals over ``[a, b]`` are pulled back to ``[0, 1]`` through the
    affine map with the factor ``(b-a)**alpha``.  ``|f|`` and ``|g|`` are
    sampled once on the pulled-back grid (each must map an array to an
    array of the same shape) and the three integrands are built from those
    samples, which the functional integrates directly.  ``f`` and ``g`` may
    also be one series, passed as both, as the registry's ``holder`` row
    does: its samples and ``J[|f|*|f|]`` do not depend on ``(p, q)``, so
    they are read from :func:`_holder_samples`, cached on the series per
    ``(functional, a, b)``, and each row computes only ``|f|**p``,
    ``|f|**q`` and their integrals.  Either way every value is computed in
    the same order, so both give the same row bit for bit.
    """
    _params("holder", a, b, p=p, q=q)
    ctx = functional.ctx
    al = ctx.alpha
    scale = (b - a) ** al
    if f is g and isinstance(f, AlphaSeries):
        abs_f, prod = _holder_samples(f, functional, a, b)
        abs_g = abs_f
    else:
        u = a + functional.grid * (b - a)
        abs_f = np.abs(_sample(f, u))
        abs_g = np.abs(_sample(g, u))
        prod = functional.integrate(abs_f * abs_g)
    lhs = scale * prod
    intf = scale * functional.integrate(abs_f**p)
    intg = scale * functional.integrate(abs_g**q)
    rhs = max(intf, 0.0) ** (1.0 / p) * max(intg, 0.0) ** (1.0 / q)
    return _report("holder", ctx, lhs, rhs, p=p, q=q, a=a, b=b)


@memoized("holder")
def _holder_samples(f: AlphaSeries, functional: MomentFunctional, a: float, b: float) -> tuple:
    """``(|f|, J[|f|*|f|])`` on ``functional``'s grid pulled back to ``[a, b]``, cached on ``f``.

    The samples are read-only, since every holder row of the key shares
    them.  A non-finite sample makes the integral raise
    :class:`QuadratureError`, so nothing is cached and every row raises.
    """
    abs_f = np.abs(f.evaluate(a + functional.grid * (b - a)))
    prod = functional.integrate(abs_f * abs_f)
    abs_f.flags.writeable = False
    return abs_f, prod


def eval_ostrowski_classic(f: AlphaSeries, x: float, a: float, b: float) -> IneqReport:
    """The first-derivative Ostrowski bound with a grid sup norm."""
    _params("ostrowski", a, b, x=x)
    ctx = f.ctx
    al = ctx.alpha
    g1 = ctx.gamma_grade(1)
    mean = g1 * lf_integral(f, a, b) / (b - a) ** al
    lhs = abs(f.evaluate(x) - mean)
    theta1 = sup_abs(lf_derivative(f), a, b)
    bracket = 1.0 / 4.0**al + (alpha_pow_signed(x - (a + b) / 2.0, ctx) / (b - a) ** al) ** 2
    rhs = 2.0**al * g1 / ctx.gamma_grade(2) * bracket * (b - a) ** al * theta1
    return _report("ostrowski", ctx, lhs, rhs, a=a, b=b, x=x)


@memoized("lhs")
def _ostrowski_signed(f: AlphaSeries, x: float, a: float, b: float) -> float:
    """Signed left side of the second-derivative identity at ``x``.

    thm1-3, the theta corollaries and the identity all read it, so it is
    cached on ``f`` per ``(x, a, b)``.
    """
    ctx = f.ctx
    al = ctx.alpha
    return (
        lf_integral(f, a, b) / (b - a) ** al
        - f.evaluate(x) / ctx.gamma_grade(1)
        + alpha_pow_signed(2.0 * x - a - b, ctx) * lf_derivative(f).evaluate(x) / ctx.gamma_grade(2)
    )


def _ostrowski_lhs(f: AlphaSeries, x: float, a: float, b: float) -> float:
    return abs(_ostrowski_signed(f, x, a, b))


def identity_residual(
    f: AlphaSeries, x: float, a: float, b: float, functional: MomentFunctional
) -> float:
    """Absolute residual of the second-derivative integral identity.

    The right side carries the two weighted moments of ``f^(2a)`` composed
    with the affine maps onto ``[a, x]`` and ``[x, b]``; the moments are the
    normalized integrals, so the prefactor is ``1/(G(1+2a) (b-a)**a)``.
    Both moments come from one :func:`composed_moments` call, which samples
    ``f^(2a)`` once for the two segments and caches each moment on it per
    ``(x, e)``; a sweep fills that cache, and the caches of ``f`` and ``f'``
    at ``x``, ahead of its rows (:func:`_prepare_identity`).
    Zero residual means the identity holds for this input; for alpha < 1 it
    generally does not, and the residual is the reported inconsistency.
    """
    _params("identity", a, b, x=x)
    ctx = f.ctx
    al = ctx.alpha
    f2 = lf_derivative_n(f, 2)
    lhs = _ostrowski_signed(f, x, a, b)
    sides = _identity_sides(x, a, b)
    moments = composed_moments(f2, 2.0, [(x, e) for _, e in sides], functional)
    rhs = 0.0
    for (length, _), moment in zip(sides, moments):
        rhs += alpha_pow_signed(length, ctx) ** 3 * moment
    rhs /= ctx.gamma_grade(2) * (b - a) ** al
    return abs(lhs - rhs)


def _identity_sides(x: float, a: float, b: float) -> list[tuple[float, float]]:
    """``(|x - e|, e)`` for each endpoint ``e`` whose side of the identity has nonzero length.

    A side's moment only enters with a nonzero prefactor; skipping the
    degenerate side also avoids 0 * inf when f2 is singular at an endpoint.
    """
    sides = []
    if x > a:
        sides.append((x - a, a))
    if x < b:
        sides.append((b - x, b))
    return sides


def _prepare_identity(f: AlphaSeries, functional: MomentFunctional, a: float, b: float, xs: list) -> None:
    """Fill the caches that the identity rows at the points ``xs`` of ``[a, b]`` read.

    The moments of every side come from one :func:`composed_moments` call,
    so ``f^(2a)`` is sampled once for the whole x axis, and the values of
    ``f`` and ``f'`` at all of ``xs`` from one ``np.power`` call each
    (:meth:`AlphaSeries.cache_points`).  Each cached value is bit-identical
    to the one the row would compute.  If this raises, the values it
    cached stay valid and every row computes the rest, or raises, on its own.
    """
    f2 = lf_derivative_n(f, 2)
    f.cache_points(xs)
    lf_derivative(f).cache_points(xs)
    composed_moments(f2, 2.0, [(x, e) for x in xs for _, e in _identity_sides(x, a, b)], functional)


def _hypothesis_note(
    f: AlphaSeries, s: float, a: float, b: float, grid: int, power: float = 1.0
) -> str:
    """Grid-check the s-convexity hypothesis on |f^(2a)|**power; empty when grid <= 0.

    The hypothesis does not depend on the evaluation point, so the note is
    cached on ``f`` per ``(s, a, b, grid, power)``.
    """
    return _hypothesis_verdict(f, s, a, b, grid, power) if grid > 0 else ""


@memoized("hyp")
def _hypothesis_verdict(f: AlphaSeries, s: float, a: float, b: float, grid: int, power: float) -> str:
    f2 = lf_derivative_n(f, 2)

    def cand(u: np.ndarray) -> np.ndarray:
        v = np.abs(f2.evaluate(u))
        return v**power if power != 1.0 else v

    verdict = check_s_convex_second(cand, s, a, b, grid, f.ctx)
    if verdict.holds_on_grid:
        return "hypothesis=verified"
    return f"hypothesis=failed(gap={verdict.witness[3]:.3g})"


@memoized("const")
def _constants(f: AlphaSeries, s: float) -> OstrowskiConstants:
    """:func:`ostrowski_constants` at ``f``'s alpha, cached on ``f`` per ``s``."""
    return ostrowski_constants(s, f.ctx)


@memoized("thm")
def _theorem(f: AlphaSeries, thm: str, s: float, p: Optional[float], q: Optional[float]) -> tuple:
    """The record of ``thm``: what its and its corollaries' rows read that is free of (x, a, b).

    That is ``(f'', G(1+2a), front, side, lead, sup, div, mid)`` at ``f``'s
    alpha, cached on ``f`` per ``(thm, s, p, q)``.  Callers pass p for thm2
    only and q for thm2 and thm3 only, so rows that differ in a parameter
    their theorem ignores share one record; thm2 reads no M or N, so its
    record computes none.  ``front`` is the Hoelder (thm2) or power-mean
    (thm3) prefactor, 1 for thm1, and ``side(|f''(x)|, |f''(e)|)`` is
    weighted per endpoint ``e``.  The theta forms multiply ``lead`` before
    and ``sup`` after ``3**alpha * theta``; the midpoint form divides by
    ``div`` and multiplies by its bracket ``mid``.  A slot a theorem does not
    use holds 1.0, which multiplies exactly, so every theorem keeps its own
    floating-point operation order.
    """
    al = f.ctx.alpha
    f2 = lf_derivative_n(f, 2)
    g2 = f.ctx.gamma_grade(2)
    sa = 2.0 ** (s * al)
    if thm == "thm2":
        front = (gamma(1.0 + 2.0 * p * al) / gamma(1.0 + (2.0 * p + 1.0) * al)) ** (1.0 / p) * (
            gamma(1.0 + s * al) / gamma(1.0 + (s + 1.0) * al)
        ) ** (1.0 / q)
        side = lambda dx, de: (dx**q + de**q) ** (1.0 / q)
        div, mid = 2.0 ** ((3.0 + s / q) * al), 1.0 + (1.0 + sa) ** (1.0 / q)
        return f2, g2, front, side, 2.0 ** (1.0 / q), 1.0, div, mid
    c = _constants(f, s)
    M, N = c.M, c.N
    if thm == "thm1":
        return f2, g2, 1.0, lambda dx, de: M * dx + N * de, 1.0, M + N, 8.0**al, 2.0 * M / sa + N
    front = (g2 / f.ctx.gamma_grade(3)) ** (1.0 - 1.0 / q)
    side = lambda dx, de: (M * dx**q + N * de**q) ** (1.0 / q)
    div, mid = 2.0 ** ((3.0 + s / q) * al), (M + sa * N) ** (1.0 / q) + M ** (1.0 / q)
    return f2, g2, front, side, 1.0, (M + N) ** (1.0 / q), div, mid


def _theorem_report(thm: str, f: AlphaSeries, s: float, p: Optional[float], q: Optional[float],
                    x: float, a: float, b: float, grid: int) -> IneqReport:
    """The shared body of thm1-3: the theorem's record (:func:`_theorem`) at one point."""
    ctx = f.ctx
    f2, g2, front, side = _theorem(f, thm, s, p, q)[:4]
    dx, da, db = abs(f2.evaluate(x)), abs(f2.evaluate(a)), abs(f2.evaluate(b))
    rhs = (
        front
        * (alpha_pow_signed(x - a, ctx) ** 3 * side(dx, da)
           + alpha_pow_signed(b - x, ctx) ** 3 * side(dx, db))
        / (g2 * (b - a) ** ctx.alpha)
    )
    notes = _hypothesis_note(f, s, a, b, grid, power=1.0 if q is None else q)
    lhs = _ostrowski_lhs(f, x, a, b)
    return _report(thm, ctx, lhs, rhs, notes, s=s, p=p, q=q, a=a, b=b, x=x)


def eval_thm1(
    f: AlphaSeries,
    s: float,
    x: float,
    a: float,
    b: float,
    hypothesis_grid: int = 0,
) -> IneqReport:
    """Ostrowski-type bound for |f^(2a)| generalized s-convex (second sense).

    With ``hypothesis_grid > 0`` the s-convexity hypothesis is grid-checked
    and the outcome recorded in the notes; the bound is evaluated either
    way, since a failed hypothesis is itself a reportable finding.
    """
    _params("thm1", a, b, x, s)
    return _theorem_report("thm1", f, s, None, None, x, a, b, hypothesis_grid)


def eval_thm2(
    f: AlphaSeries,
    s: float,
    p: float,
    q: float,
    x: float,
    a: float,
    b: float,
    hypothesis_grid: int = 0,
) -> IneqReport:
    """Hoelder-route Ostrowski-type bound for |f^(2a)|**q s-convex."""
    _params("thm2", a, b, x, s, p, q)
    return _theorem_report("thm2", f, s, p, q, x, a, b, hypothesis_grid)


def eval_thm3(
    f: AlphaSeries,
    s: float,
    q: float,
    x: float,
    a: float,
    b: float,
    hypothesis_grid: int = 0,
) -> IneqReport:
    """Power-mean-route Ostrowski-type bound; collapses to thm1 at q = 1."""
    _params("thm3", a, b, x, s, q=q)
    return _theorem_report("thm3", f, s, None, q, x, a, b, hypothesis_grid)


@memoized("mid")
def _midpoint_lhs(f: AlphaSeries, a: float, b: float) -> float:
    """The left side of the midpoint corollaries, cached on ``f`` per ``(a, b)``."""
    ctx = f.ctx
    return abs(
        lf_integral(f, a, b) / (b - a) ** ctx.alpha
        - f.evaluate((a + b) / 2.0) / ctx.gamma_grade(1)
    )


def eval_corollary(
    variant: str,
    f: AlphaSeries,
    a: float,
    b: float,
    s: float,
    p: Optional[float] = None,
    q: Optional[float] = None,
    x: Optional[float] = None,
) -> IneqReport:
    """Evaluate one of the nine corollary bounds derived from the theorems.

    ``variant`` selects the midpoint form, the sup-norm (theta) form, or
    the combined form, for each of the three theorems.  Theta is the grid
    supremum of ``|f^(2a)|`` over ``[a, b]`` (:func:`sup_abs`); only the
    theta and midpoint-theta forms compute it, and only the midpoint forms
    evaluate ``|f^(2a)|`` at the endpoints.  Of ``x``, ``p`` and ``q``,
    :func:`_params` keeps those the variant's registry row reads.  All else a
    row reads comes from the record of its theorem (:func:`_theorem`), which
    the theorem's own rows share.
    """
    if variant not in COROLLARY_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose one of {COROLLARY_VARIANTS}")
    # unread parameters are None in the record's key, so these rows share their theorem's record
    x, s, p, q = _params(variant, a, b, x, s, p, q)
    form, thm = variant.rsplit("-", 1)
    ctx = f.ctx
    al = ctx.alpha
    f2, g2, front, _, lead, sup, div, mid = _theorem(f, thm, s, p, q)

    # each form computes only what it reads: theta, or |f''| at the endpoints
    if form == "theta":
        lhs = _ostrowski_lhs(f, x, a, b)
        theta = sup_abs(f2, a, b)
        bracket = (b - a) ** (2.0 * al) / 12.0**al + alpha_pow_signed(x - (a + b) / 2.0, ctx) ** 2
        rhs = front * lead * 3.0**al * theta * sup / g2 * bracket
    else:
        lhs = _midpoint_lhs(f, a, b)
        if form == "midpoint":
            da, db = abs(f2.evaluate(a)), abs(f2.evaluate(b))
            rhs = front * ((b - a) ** (2.0 * al) / g2) / div * mid * (da + db)
        else:  # midpoint-theta
            theta = sup_abs(f2, a, b)
            rhs = front * lead * sup * (theta * (b - a) ** (2.0 * al) / (4.0**al * g2))
    return _report(variant, ctx, lhs, rhs, s=s, p=p, q=q, a=a, b=b, x=x)


def _identity_report(f: AlphaSeries, functional: MomentFunctional, a: float, b: float, x: float) -> IneqReport:
    # built here rather than by _report: slack is -residual, which keeps the
    # sign of a zero residual (0.0 - residual would not)
    residual = identity_residual(f, x, a, b, functional)
    ctx = f.ctx
    return IneqReport(
        "identity", ctx.alpha, residual, 0.0, -residual, residual <= ctx.slack_tol,
        None, None, None, a, b, x, "", "identity-residual",
    )


Evaluator = Callable[..., IneqReport]


@dataclass(frozen=True, slots=True)
class Ineq:
    """One registry row: the parameters an id reads, of x, s, p and q, and its evaluator.

    The evaluator is called as ``evaluate(series, functional, a, b, x, s, p, q)``
    and returns a row with an empty ``fn``.  ``prepare``, when set, is
    called as ``prepare(series, functional, a, b, xs)`` before the rows of
    one (series, interval) with the x values ``xs`` of those rows; it only
    fills caches the rows read, so a row's value does not depend on it.
    """

    reads: frozenset[str]
    evaluate: Evaluator
    prepare: Optional[Callable[..., None]] = None


def _corollary(variant: str) -> Evaluator:
    return lambda f, fl, a, b, x, s, p, q: eval_corollary(variant, f, a, b, s, p, q, x)


#: Every inequality id, in report order, and its :class:`Ineq` record, whose
#: ``reads`` is spelled as the letters it holds.  A sweep is the product of
#: (alpha, interval, fn) and the axes of what the id reads: s, x, and the
#: (p, q) pairs for an id that reads q (the thm3 family reads q but not p).
#: Evaluators look the ``eval_*`` functions up by module name when called,
#: so whatever rebinds those names sees every call.
INEQUALITIES: dict[str, Ineq] = {
    "ghh": Ineq(frozenset(), lambda f, fl, a, b, x, s, p, q: eval_ghh(f, a, b)),
    "shh": Ineq(frozenset("s"), lambda f, fl, a, b, x, s, p, q: eval_shh(f, s, a, b)),
    "holder": Ineq(frozenset("pq"), lambda f, fl, a, b, x, s, p, q: eval_holder(f, f, p, q, a, b, fl)),
    "ostrowski": Ineq(frozenset("x"), lambda f, fl, a, b, x, s, p, q: eval_ostrowski_classic(f, x, a, b)),
    "identity": Ineq(
        frozenset("x"), lambda f, fl, a, b, x, s, p, q: _identity_report(f, fl, a, b, x), _prepare_identity
    ),
    "thm1": Ineq(frozenset("sx"), lambda f, fl, a, b, x, s, p, q: eval_thm1(f, s, x, a, b)),
    "thm2": Ineq(frozenset("sxpq"), lambda f, fl, a, b, x, s, p, q: eval_thm2(f, s, p, q, x, a, b)),
    "thm3": Ineq(frozenset("sxq"), lambda f, fl, a, b, x, s, p, q: eval_thm3(f, s, q, x, a, b)),
    # every corollary reads s; the theta forms also x, and each reads what its theorem reads of p and q
    **{
        f"{form}-thm{i}": Ineq(
            frozenset("s" + ("x" if form == "theta" else "") + {1: "", 2: "pq", 3: "q"}[i]),
            _corollary(f"{form}-thm{i}"),
        )
        for i in (1, 2, 3)
        for form in ("midpoint", "theta", "midpoint-theta")
    },
}

COROLLARY_VARIANTS = tuple(i for i in INEQUALITIES if "-thm" in i)

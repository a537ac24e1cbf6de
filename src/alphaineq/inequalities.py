"""Evaluators for every inequality and identity the engine verifies.

Each evaluator computes the left side, the right side and the slack
``rhs - lhs`` of one displayed inequality and packages them into an
:class:`IneqReport`; ``holds`` means ``slack >= -slack_tol``, which one
function, :func:`_holds`, decides for every row.  The
evaluators never assert: for alpha = 1 the framework collapses to classical
calculus and everything here is an established theorem, while for alpha < 1
the reported slacks and residuals constitute a consistency study of the
term-wise calculus itself.

:data:`INEQUALITIES` is the one registry of inequality ids: each id maps to
an :class:`Ineq` record of the parameters it reads (of x, s, p and q), the
evaluator that computes its row at one point and, for ``holder``,
``identity`` and the theorem family, the ``block`` evaluator that a sweep
calls for all the rows of an interval at once (:func:`_holder_rows`,
:func:`_identity_rows`, :func:`_theorem_rows`).  Each computes what its rows
share once, in arrays where it can, and builds every row from those values;
the id's one-point row is its one-point block.
``ostrowski`` and the six theta forms have a ``prepare`` step, which a
``falsify`` job runs ahead of a chunk of trials to fill theta for all of
them in one array kernel (:func:`_prepare_theta`).
The harness, the sweep validation and
the CLI read their ids from it, and a sweep's axes follow ``reads``.  The
record is also the id's parameter contract, which every evaluator checks
through :func:`_params`, or for a block :func:`_check_axes`: a missing or
bad parameter raises ``ValueError`` naming the id, and an unread one is
None in the report.

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
from typing import Callable, Optional, Sequence

import numpy as np

from .alphanum import AlphaContext, alpha_pow_signed, gamma, memoized
from .convexity import check_s_convex_second
from .quadrature import MomentFunctional, QuadratureError, _sample, composed_moments
from .series import AlphaSeries, GammaPoleError, _plan_of, _sum_terms, lf_derivative, lf_derivative_n, lf_integral

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
    A block evaluator (:func:`_holder_rows`, :func:`_identity_rows`,
    :func:`_theorem_rows`) builds its rows with their ``fn``.
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


def _holds(slack: float, ctx: AlphaContext) -> bool:
    """A row's verdict: ``slack >= -slack_tol``, which a NaN slack fails."""
    return slack >= -ctx.slack_tol


def _report(ineq: str, ctx: AlphaContext, lhs: float, rhs: float, notes: str = "", s: Optional[float] = None,
            p: Optional[float] = None, q: Optional[float] = None, a: Optional[float] = None,
            b: Optional[float] = None, x: Optional[float] = None) -> IneqReport:
    """The row's report, built positionally with an empty ``fn``; ``holds`` is :func:`_holds` of its slack."""
    slack = rhs - lhs
    return IneqReport(ineq, ctx.alpha, lhs, rhs, slack, _holds(slack, ctx), s, p, q, a, b, x, "", notes)


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

    A missing or bad one raises ``ValueError`` naming ``ineq``.  This is
    the one-point case of :func:`_check_axes`.
    """
    _check_axes(ineq, a, b, (x,), (s,), ((p, q),))
    return _read(ineq, x, s, p, q)


def _check_axes(ineq: str, a: float, b: float, xs: Sequence, s_axis: Sequence, pq_axis: Sequence) -> None:
    """Check ``[a, b]`` and each value of the axes ``ineq`` reads, each once, in the order of :func:`_params`.

    First that no read value is missing, then the interval, s, (p, q) or q,
    and x, so a one-point call raises the one error :func:`_params` raises.
    """
    reads = INEQUALITIES[ineq].reads
    read_s, read_p, read_x = "s" in reads, "p" in reads, "x" in reads
    if read_s:
        for s in s_axis:
            if s is None:
                raise ValueError(f"{ineq} needs the convexity order s")
    if read_p:
        for p, q in pq_axis:
            if p is None or q is None:
                raise ValueError(f"{ineq} needs conjugate (p, q)")
    if read_x:
        for x in xs:
            if x is None:
                raise ValueError(f"{ineq} needs the evaluation point x")
    try:
        _check_interval(a, b)
        if read_s:
            for s in s_axis:
                _check_s(s)
        if read_p:
            for p, q in pq_axis:
                _check_conjugate(p, q)
        elif "q" in reads:
            for _, q in pq_axis:
                if not (q is not None and q >= 1.0):  # a NaN q fails too
                    raise ValueError(f"need q >= 1, got {q}")
        if read_x:
            for x in xs:
                _check_point(x, a, b)
    except ValueError as exc:
        raise ValueError(f"{ineq}: {exc}") from None


def _read(ineq: str, x: Optional[float], s: Optional[float], p: Optional[float], q: Optional[float]) -> tuple:
    """``(x, s, p, q)``, unchecked, with the ones ``ineq``'s registry row does not read set to None."""
    reads = INEQUALITIES[ineq].reads
    return (x if "x" in reads else None, s if "s" in reads else None,
            p if "p" in reads else None, q if "q" in reads else None)


def _grid(lo: list, hi: list, n: int) -> np.ndarray:
    """The rows ``np.linspace(lo[r], hi[r], n)`` as one array, bit for bit, without linspace's per-call overhead.

    The same arithmetic as linspace, per row: ``arange(n) * step + lo`` with
    the last point set to ``hi``, and linspace's fallback for a step that
    underflows to zero.
    """
    base = np.arange(n, dtype=float)
    steps = [(h - l) / (n - 1) for l, h in zip(lo, hi)]
    if len(steps) == 1:  # floats, with which numpy computes the same values faster than with (1, 1) columns
        step, start = steps[0], lo[0]
    else:
        step, start = np.array(steps)[:, None], np.array(lo)[:, None]
    xs = base[None, :] * step
    if 0.0 in steps:
        for r, s in enumerate(steps):
            if s == 0.0:
                xs[r] = base / (n - 1) * (hi[r] - lo[r])
    xs += start
    for r, h in enumerate(hi):
        xs[r, -1] = h
    return xs


#: The points of :func:`sup_abs`'s first grid; the refinements use 33.
_SUP_GRID = 1025

#: The most rows a prepare step hands one :func:`_sup_abs` call: its
#: temporaries are (rows x 1025) arrays, so this bounds their memory.
_SUP_ROWS = 16


def sup_abs(f: AlphaSeries, a: float, b: float, grid: int = _SUP_GRID) -> float:
    """Sup norm of ``|f|`` on ``[a, b]``: dense grid plus local refinement.

    After the grid scan, the cell around the maximizer is re-gridded three
    times, which is enough for the smooth series handled here.  The grids
    are those of ``np.linspace``, built by :func:`_grid`.  A NaN sample
    (``inf - inf`` at a pole) makes the value NaN.  The value is cached on
    ``f`` per ``(a, b, grid)``, so a caller that keeps the series computes
    it once per interval.  This is the one-row call of :func:`_sup_abs`,
    which the prepare step of the theta forms and of ``ostrowski``
    (:func:`_prepare_theta`) calls on many rows at once; a value it
    prefilled is a cache hit here.
    """
    if grid < 3:
        raise ValueError(f"grid must be >= 3, got {grid}")
    value = f._memo.get(("sup", a, b, grid))
    return _sup_abs([(f, a, b)], grid)[0] if value is None else value


def _sup_abs(rows: list, grid: int) -> list:
    """:func:`sup_abs` of each row ``(f, a, b)``, for series ``f`` that share a grade plan; each is cached on its ``f``.

    The rows run the same four rounds together, on (rows x points) arrays:
    each row's grid (:func:`_grid`); ``|f|`` on it, summed term by term as
    ``f.evaluate`` sums it (:func:`alphaineq.series._sum_terms`); the first
    argmax per row, which is the first NaN if there is one; and the cell
    around it as the row's next interval.  So each row's value is, bit for
    bit, the one it gets alone.  A row that has read a NaN stays NaN, and
    its later rounds only cost time.
    """
    plan = _plan_of(rows[0][0])
    coeffs = [[c for _, c in f.terms] for f, _, _ in rows]
    # per term, the rows' coefficients as a (rows, 1) column, or for one row as floats, as in _grid
    columns = coeffs[0] if len(rows) == 1 else list(np.array(coeffs).T[:, :, None])
    lo, hi = [a for _, a, _ in rows], [b for _, _, b in rows]
    best = [0.0] * len(rows)
    n = grid
    for _ in range(4):
        xs = _grid(lo, hi, n)
        vals = _sum_terms(plan, columns, xs)
        np.abs(vals, out=vals)
        item, last = xs.item, n - 1
        lo, hi = [], []
        for r, i in enumerate(vals.argmax(axis=1).tolist()):
            v = vals.item(r, i)
            if v > best[r] or v != v:  # NaN compares false, and is kept
                best[r] = v
            lo.append(item(r, i - 1 if i else 0))
            hi.append(item(r, i + 1 if i < last else last))
        n = 33
    for (f, a, b), value in zip(rows, best):
        f._memo["sup", a, b, grid] = value
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
    does: the row is then the one-point block of :func:`_holder_rows`,
    which computes the same values in the same order, so both give the
    same row bit for bit.
    """
    if f is g and isinstance(f, AlphaSeries):
        return _holder_rows(f, functional, a, b, ((p, q),))[0]
    _params("holder", a, b, p=p, q=q)
    ctx = functional.ctx
    al = ctx.alpha
    scale = (b - a) ** al
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


def _holder_rows(f: AlphaSeries, functional: MomentFunctional, a: float, b: float, pq_axis: Sequence,
                 fn: str = "") -> list[IneqReport]:
    """The holder rows of one block, one per pair of ``pq_axis``, each with ``fn``.

    The axis is checked once (:func:`_check_axes`), and ``|f|`` and
    ``J[|f|*|f|]`` are read once from :func:`_holder_samples`.  ``|f|`` is
    raised to every distinct exponent of the axis in one ``np.power`` call,
    and the powers are integrated in one
    :meth:`MomentFunctional.integrate_rows` call.  Each power is the
    ``|f|**e`` that the two-callable :func:`eval_holder` computes, except at
    ``e = 2.0``: numpy computes ``|f|**2.0`` as the square ``|f|*|f|``, not
    by ``pow``, so its integral is ``J[|f|*|f|]``.  Each row then runs
    :func:`eval_holder`'s arithmetic in its order, so it is that row bit for
    bit.  A non-finite integral raises its :class:`QuadratureError`, the
    first exponent's in axis order, so a one-point block raises the error of
    ``|f|**p`` before that of ``|f|**q``, as :func:`eval_holder` does.
    """
    _check_axes("holder", a, b, (), (), pq_axis)
    ctx = functional.ctx
    al = ctx.alpha
    scale = (b - a) ** al
    abs_f, prod = _holder_samples(f, functional, a, b)
    integrals = {2.0: prod}
    exps = []  # the distinct exponents, in axis order, other than 2.0
    for pair in pq_axis:
        for e in pair:
            if e != 2.0 and e not in exps:
                exps.append(e)
    if exps:
        for e, value in zip(exps, functional.integrate_rows(np.power(abs_f, np.array(exps)[:, None]))):
            if isinstance(value, QuadratureError):
                raise value
            integrals[e] = value
    lhs = scale * prod
    rows = []
    for p, q in pq_axis:
        intf = scale * integrals[p]
        intg = scale * integrals[q]
        rhs = max(intf, 0.0) ** (1.0 / p) * max(intg, 0.0) ** (1.0 / q)
        slack = rhs - lhs
        rows.append(IneqReport("holder", al, lhs, rhs, slack, _holds(slack, ctx), None, p, q, a, b, None, fn, ""))
    return rows


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
    Zero residual means the identity holds for this input; for alpha < 1 it
    generally does not, and the residual is the reported inconsistency.
    The residual is that of the one-point block (:func:`_identity_residuals`),
    so it samples ``f^(2a)`` once for the two sides.
    """
    return _identity_residuals(f, functional, a, b, (x,))[0]


def _identity_residuals(f: AlphaSeries, functional: MomentFunctional, a: float, b: float,
                        xs: Sequence) -> list[float]:
    """:func:`identity_residual` at each point of ``xs``, from values computed for the whole axis at once.

    The axis is checked once (:func:`_check_axes`).  The values of ``f``
    and ``f'`` at every x come from one ``np.power`` call each
    (:meth:`AlphaSeries.cache_points`; a single x reads them on the scalar
    path, which gives the same values), and the moments of ``f^(2a)`` on
    both sides of every x from one :func:`composed_moments` call, which
    samples ``f^(2a)`` once and caches each moment on it per ``(x, e)``.
    Each residual is then computed from its point's values by the
    floating-point operations of that point alone.  Every left side is
    computed before any moment, so a one-point call whose left side and
    moment both raise raises the left side's error.
    """
    _check_axes("identity", a, b, xs, (), ())
    ctx = f.ctx
    f2 = lf_derivative_n(f, 2)
    if len(xs) > 1:
        f.cache_points(xs)
        lf_derivative(f).cache_points(xs)
    lhs = [_ostrowski_signed(f, x, a, b) for x in xs]
    sides = [_identity_sides(x, a, b) for x in xs]
    moments = iter(composed_moments(f2, 2.0, [(x, e) for x, x_sides in zip(xs, sides) for _, e in x_sides], functional))
    den = ctx.gamma_grade(2) * (b - a) ** ctx.alpha
    residuals = []
    for left, x_sides in zip(lhs, sides):
        rhs = 0.0
        for length, _ in x_sides:
            rhs += alpha_pow_signed(length, ctx) ** 3 * next(moments)
        rhs /= den
        residuals.append(abs(left - rhs))
    return residuals


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


def _prepare_theta(order: int) -> Callable[[list], None]:
    """The prepare step of the ids that read theta, ``sup_abs`` of the ``order``-th derivative on ``[a, b]``.

    It fills theta for every row ``(f, a, b)`` whose derivative does not
    hold it yet, with one :func:`_sup_abs` call per grade plan, which
    belongs to one alpha, and ``_SUP_ROWS`` rows, so the evaluators'
    :func:`sup_abs` calls are cache hits.  A row whose derivative hits a
    Gamma pole is skipped: its evaluation raises on its own.  If this
    raises, the values it cached stay valid and every evaluation computes
    the rest, or raises, on its own.
    """

    def prepare(rows: list) -> None:
        groups: dict = {}
        for f, a, b in rows:
            try:
                g = lf_derivative_n(f, order)
            except GammaPoleError:
                continue
            if ("sup", a, b, _SUP_GRID) not in g._memo:
                groups.setdefault(_plan_of(g), []).append((g, a, b))
        for group in groups.values():
            for i in range(0, len(group), _SUP_ROWS):
                _sup_abs(group[i:i + _SUP_ROWS], _SUP_GRID)

    return prepare


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


@memoized("at")
def _theorem_at(f: AlphaSeries, x: float, a: float, b: float) -> tuple:
    """What a thm1-3 row reads at ``x`` of ``[a, b]``, cached on ``f`` per ``(x, a, b)``.

    That is ``(|f''(x)|, |f''(a)|, |f''(b)|, alpha_pow_signed(x-a)**3,
    alpha_pow_signed(b-x)**3, G(1+2a) * (b-a)**alpha, lhs)``, the same at
    every (s, p, q) of the three theorems.
    """
    ctx = f.ctx
    f2 = lf_derivative_n(f, 2)
    return (
        abs(f2.evaluate(x)), abs(f2.evaluate(a)), abs(f2.evaluate(b)),
        alpha_pow_signed(x - a, ctx) ** 3, alpha_pow_signed(b - x, ctx) ** 3,
        ctx.gamma_grade(2) * (b - a) ** ctx.alpha, _ostrowski_lhs(f, x, a, b),
    )


def _theorem_rows(ineq: str, f: AlphaSeries, a: float, b: float, xs: Sequence, s_axis: Sequence,
                  pq_axis: Sequence, grid: int = 0, fn: str = "") -> list[IneqReport]:
    """Every row of one block of a theorem-family id (thm1-3 or a corollary), in ``product(s_axis, pq_axis, xs)`` order.

    A block is one series and interval and the product of its axes.  Each
    axis value is checked once (:func:`_check_axes`), a value the id does
    not read is None in its rows (as in :func:`_read`), the theorem's record
    is read once per (s, p, q) and each value that depends on x alone once
    per x (:func:`_theorem_at`, theta's bracket).  Each row is built once,
    with ``fn``, by the floating-point operations of its point alone, so it
    is bit for bit the row of its one-point block, which ``eval_thm1``-``3``
    and :func:`eval_corollary` return.  The records come first, so a point
    whose record raises (a Gamma pole, or Gamma overflowing at a large p)
    raises that error.  The thm rows grid-check the s-convexity hypothesis
    when ``grid > 0`` (:func:`_hypothesis_note`), next to the record and
    before any value at x, so a point whose note and x values both raise
    raises the note's error.
    """
    _check_axes(ineq, a, b, xs, s_axis, pq_axis)
    reads = INEQUALITIES[ineq].reads
    form, _, thm = ineq.rpartition("-")
    ctx = f.ctx
    al = ctx.alpha
    if "x" not in reads:
        xs = (None,) * len(xs)
    read_p, read_q = "p" in reads, "q" in reads
    records = []  # (s, p, q) as its rows report them, the theorem's record and a thm row's notes
    for s in s_axis:
        for p, q in pq_axis:
            p, q = p if read_p else None, q if read_q else None
            record = _theorem(f, thm, s, p, q)
            note = "" if form else _hypothesis_note(f, s, a, b, grid, 1.0 if q is None else q)
            records.append((s, p, q, record, note))
    rows = []
    if not (records and xs):
        return rows
    f2, g2 = records[0][3][:2]  # the same in every record
    if not form:  # thm1-3
        at_x = []
        for x in xs:
            at_x.append((x, _theorem_at(f, x, a, b)))
        for s, p, q, (_, _, front, side, _, _, _, _), note in records:
            for x, (dx, da, db, wa, wb, den, left) in at_x:
                right = front * (wa * side(dx, da) + wb * side(dx, db)) / den
                slack = right - left
                rows.append(IneqReport(ineq, al, left, right, slack, _holds(slack, ctx), s, p, q, a, b, x, fn, note))
    elif form == "theta":
        theta = sup_abs(f2, a, b)
        at_x = []
        for x in xs:
            left = _ostrowski_lhs(f, x, a, b)
            at_x.append((x, left, (b - a) ** (2.0 * al) / 12.0**al + alpha_pow_signed(x - (a + b) / 2.0, ctx) ** 2))
        for s, p, q, (_, _, front, _, lead, sup, _, _), _ in records:
            c = front * lead * 3.0**al * theta * sup / g2
            for x, left, bracket in at_x:
                right = c * bracket
                slack = right - left
                rows.append(IneqReport(ineq, al, left, right, slack, _holds(slack, ctx), s, p, q, a, b, x, fn, ""))
    else:  # the midpoint forms, whose rows read no x
        left = _midpoint_lhs(f, a, b)
        if form == "midpoint":
            da, db = abs(f2.evaluate(a)), abs(f2.evaluate(b))
        else:
            theta = sup_abs(f2, a, b)
        for s, p, q, (_, _, front, _, lead, sup, div, mid), _ in records:
            if form == "midpoint":
                right = front * ((b - a) ** (2.0 * al) / g2) / div * mid * (da + db)
            else:
                right = front * lead * sup * (theta * (b - a) ** (2.0 * al) / (4.0**al * g2))
            slack = right - left
            for x in xs:
                rows.append(IneqReport(ineq, al, left, right, slack, _holds(slack, ctx), s, p, q, a, b, x, fn, ""))
    return rows


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
    way, since a failed hypothesis is itself a reportable finding.  Like
    thm2 and thm3, the row is the one-point block of :func:`_theorem_rows`.
    """
    return _theorem_rows("thm1", f, a, b, (x,), (s,), ((None, None),), hypothesis_grid)[0]


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
    return _theorem_rows("thm2", f, a, b, (x,), (s,), ((p, q),), hypothesis_grid)[0]


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
    return _theorem_rows("thm3", f, a, b, (x,), (s,), ((None, q),), hypothesis_grid)[0]


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
    evaluate ``|f^(2a)|`` at the endpoints.  Of ``x``, ``p`` and ``q``, the
    row keeps those the variant's registry row reads.  All else it reads
    comes from the record of its theorem (:func:`_theorem`), which the
    theorem's own rows share.  The row is the one-point block of
    :func:`_theorem_rows`.
    """
    if variant not in COROLLARY_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose one of {COROLLARY_VARIANTS}")
    return _theorem_rows(variant, f, a, b, (x,), (s,), ((p, q),))[0]


def _identity_report(ctx: AlphaContext, residual: float, a: float, b: float, x: float, fn: str = "") -> IneqReport:
    """The identity row of ``residual`` at ``x``: lhs is the residual, rhs 0 and the note ``identity-residual``."""
    # built here rather than by _report: slack is -residual, which keeps the
    # sign of a zero residual (0.0 - residual would not)
    slack = -residual
    return IneqReport(
        "identity", ctx.alpha, residual, 0.0, slack, _holds(slack, ctx),
        None, None, None, a, b, x, fn, "identity-residual",
    )


def _identity_rows(f: AlphaSeries, functional: MomentFunctional, a: float, b: float, xs: Sequence,
                   fn: str) -> list[IneqReport]:
    """The identity rows of one block, at the points ``xs`` of ``[a, b]``, each with ``fn``.

    Each row is built from its residual of one :func:`_identity_residuals`
    call for the whole x axis, which samples ``f^(2a)`` once; no row makes a
    call of its own.  The registry's one-point row is built by
    :func:`_identity_report` from :func:`identity_residual`, the residual of
    the one-point block, so each row here is that row bit for bit.  If this
    raises, the values cached so far stay valid for the points a caller then
    evaluates one at a time.
    """
    ctx = f.ctx
    return [_identity_report(ctx, r, a, b, x, fn) for x, r in zip(xs, _identity_residuals(f, functional, a, b, xs))]


Evaluator = Callable[..., IneqReport]


@dataclass(frozen=True, slots=True)
class Ineq:
    """One registry row: the parameters an id reads, of x, s, p and q, and its evaluators.

    The evaluator is called as ``evaluate(series, functional, a, b, x, s, p, q)``
    and returns a row with an empty ``fn``.  ``block``, set for ``holder``,
    ``identity`` and the theorem family, is called as ``block(series,
    functional, a, b, xs, s_axis, pq_axis, fn)`` and returns the rows, each
    with ``fn``, of one interval's product of the axes
    (:func:`_holder_rows`, :func:`_identity_rows`, :func:`_theorem_rows`),
    each the row ``evaluate`` gives at its point; if it raises, a caller
    evaluates the points one at a time.  ``prepare``,
    set for the six theta forms (theta of f'') and ``ostrowski`` (theta of
    f'), is called as ``prepare(rows)`` with rows ``(series, a, b)`` ahead
    of evaluating them (:func:`_prepare_theta`).  It only fills caches the
    evaluations read, so a row's value does not depend on it, and a caller
    ignores its errors.
    """

    reads: frozenset[str]
    evaluate: Evaluator
    prepare: Optional[Callable[[list], None]] = None
    block: Optional[Callable[..., list[IneqReport]]] = None


def _corollary(variant: str) -> Evaluator:
    return lambda f, fl, a, b, x, s, p, q: eval_corollary(variant, f, a, b, s, p, q, x)


def _block(ineq: str) -> Callable[..., list[IneqReport]]:
    return lambda f, fl, a, b, xs, s_axis, pq_axis, fn: _theorem_rows(ineq, f, a, b, xs, s_axis, pq_axis, 0, fn)


#: Every inequality id, in report order, and its :class:`Ineq` record, whose
#: ``reads`` is spelled as the letters it holds.  A sweep is the product of
#: (alpha, interval, fn) and the axes of what the id reads: s, x, and the
#: (p, q) pairs for an id that reads q (the thm3 family reads q but not p).
#: The lambdas look the functions they call up by module name when called,
#: so whatever rebinds a name sees each call made through it.  A sweep
#: evaluates the rows of ``holder``, ``identity`` and the theorem family
#: through ``block``, once per block, and every other id's through
#: ``evaluate``; only single points (``evaluate_single``, ``falsify``,
#: ``alphaineq eval``, and the points of a block whose call raised) reach
#: :func:`eval_holder`, :func:`identity_residual`, ``eval_thm1``-``3`` and
#: :func:`eval_corollary`, each of which runs its id's one-point block.
INEQUALITIES: dict[str, Ineq] = {
    "ghh": Ineq(frozenset(), lambda f, fl, a, b, x, s, p, q: eval_ghh(f, a, b)),
    "shh": Ineq(frozenset("s"), lambda f, fl, a, b, x, s, p, q: eval_shh(f, s, a, b)),
    "holder": Ineq(
        frozenset("pq"),
        lambda f, fl, a, b, x, s, p, q: eval_holder(f, f, p, q, a, b, fl),
        block=lambda f, fl, a, b, xs, s_axis, pq_axis, fn: _holder_rows(f, fl, a, b, pq_axis, fn),
    ),
    "ostrowski": Ineq(
        frozenset("x"), lambda f, fl, a, b, x, s, p, q: eval_ostrowski_classic(f, x, a, b), _prepare_theta(1)
    ),
    "identity": Ineq(
        frozenset("x"),
        lambda f, fl, a, b, x, s, p, q: _identity_report(f.ctx, identity_residual(f, x, a, b, fl), a, b, x),
        block=lambda f, fl, a, b, xs, s_axis, pq_axis, fn: _identity_rows(f, fl, a, b, xs, fn),
    ),
    "thm1": Ineq(frozenset("sx"), lambda f, fl, a, b, x, s, p, q: eval_thm1(f, s, x, a, b), block=_block("thm1")),
    "thm2": Ineq(
        frozenset("sxpq"), lambda f, fl, a, b, x, s, p, q: eval_thm2(f, s, p, q, x, a, b), block=_block("thm2")
    ),
    "thm3": Ineq(frozenset("sxq"), lambda f, fl, a, b, x, s, p, q: eval_thm3(f, s, q, x, a, b), block=_block("thm3")),
    # every corollary reads s; the theta forms also x, and each reads what its theorem reads of p and q
    **{
        f"{form}-thm{i}": Ineq(
            frozenset("s" + ("x" if form == "theta" else "") + {1: "", 2: "pq", 3: "q"}[i]),
            _corollary(f"{form}-thm{i}"),
            _prepare_theta(2) if "theta" in form else None,
            _block(f"{form}-thm{i}"),
        )
        for i in (1, 2, 3)
        for form in ("midpoint", "theta", "midpoint-theta")
    },
}

COROLLARY_VARIANTS = tuple(i for i in INEQUALITIES if "-thm" in i)

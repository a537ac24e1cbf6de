"""Evaluators for every inequality and identity the engine verifies.

Each id's evaluator is a *block*: it computes the left side, the right side
and the note of one displayed inequality at every point of a product of
parameter axes, and returns those values only.  One builder,
:func:`_build`, makes every row from them: it fills the parameters the id
reads, computes the slack ``rhs - lhs`` and decides ``holds``, which means
``slack >= -slack_tol`` (:func:`decide`); error rows are made by it too.
The evaluators never assert: for alpha = 1 the framework collapses to
classical calculus and everything here is an established theorem, while for
alpha < 1 the reported slacks and residuals constitute a consistency study
of the term-wise calculus itself.

:data:`INEQUALITIES` is the one registry of inequality ids: each id maps to
an :class:`Ineq` record of the parameters it reads (of x, s, p and q), the
evaluator that computes its row at one point, and its ``block``, which a
sweep calls for all the rows of an interval at once.  Each block computes
what its points share once, in arrays where it can, and each public
evaluator is its id's one-point block and the builder, so a point's row is
the same whichever way it is computed.
``ostrowski`` and the six theta forms have a ``prepare`` step, which a
``falsify`` job runs ahead of a chunk of trials to fill theta for all of
them in one array kernel (:func:`_prepare_theta`).
The harness, the sweep validation and
the CLI read their ids from it, and a sweep's axes follow ``reads``.  The
record is also the id's parameter contract, which every block checks
through :func:`_check_axes`: a missing or bad parameter raises
``ValueError`` naming the id, and an unread one is None in the report.

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
from .quadrature import MomentFunctional, QuadratureError, composed_moments
from .series import AlphaSeries, GammaPoleError, _plan_of, _sum_terms, lf_derivative, lf_derivative_n, lf_integral

__all__ = [
    "COROLLARY_VARIANTS",
    "INEQUALITIES",
    "Ineq",
    "IneqReport",
    "OstrowskiConstants",
    "decide",
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

    A plain slotted record, so it is unhashable.  :func:`_build` makes
    every row once; the one field set afterwards is ``fn``, by
    :func:`alphaineq.harness.evaluate_single` on the row it was just handed
    and by ``falsify`` on its witness.
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
        """This record with ``fn`` set: ``replace(self, fn=fn)``, built positionally, which costs less.

        Its one caller is the certify-gated workload of ``bench/workloads.py``.
        """
        return IneqReport(
            self.ineq, self.alpha, self.lhs, self.rhs, self.slack, self.holds,
            self.s, self.p, self.q, self.a, self.b, self.x, fn, self.notes,
        )


def decide(slack: float, slack_tol: float) -> bool:
    """A row's verdict: ``slack >= -slack_tol``, which a NaN slack fails."""
    return slack >= -slack_tol


def _build(ineq: str, ctx: AlphaContext, a: float, b: float, xs: Sequence, s_axis: Sequence, pq_axis: Sequence,
           values: Sequence, fn: str = "") -> list[IneqReport]:
    """The rows of ``ineq`` at the points ``product(s_axis, pq_axis, xs)``, from each point's ``(lhs, rhs, note)``.

    This is the one place that makes and decides a row.  A parameter the id
    does not read (its :class:`Ineq` ``reads``) is None in its rows.  The
    slack is ``rhs - lhs``, except for ``identity``, whose slack is minus
    its residual ``lhs``, which keeps the sign of a zero residual (``0.0 -
    lhs`` would not); ``holds`` is :func:`decide` of it and ``slack_tol``.
    An error row is the row of NaN values with the error as its note.
    """
    reads = INEQUALITIES[ineq].reads
    read_p, read_q = "p" in reads, "q" in reads
    if "s" not in reads:
        s_axis = (None,) * len(s_axis)
    if "x" not in reads:
        xs = (None,) * len(xs)
    alpha, tol, identity = ctx.alpha, ctx.slack_tol, ineq == "identity"
    rows, value = [], iter(values)
    # nested loops, the order of ``product``, cost less than ``product`` itself on a one-point block
    for s in s_axis:
        for p, q in pq_axis:
            p, q = p if read_p else None, q if read_q else None
            for x in xs:
                lhs, rhs, note = next(value)
                slack = -lhs if identity else rhs - lhs
                rows.append(IneqReport(ineq, alpha, lhs, rhs, slack, decide(slack, tol), s, p, q, a, b, x, fn, note))
    return rows


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


def _check_axes(ineq: str, a: float, b: float, xs: Sequence, s_axis: Sequence, pq_axis: Sequence) -> None:
    """Check ``[a, b]`` and each value of the axes ``ineq`` reads, each once.

    A missing or bad value raises ``ValueError`` naming ``ineq``.  First
    comes the check that no read value is missing, then the interval, s,
    (p, q) or q, and x.
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
    """Sup norm of ``|f|`` on ``[a, b]``: the end value where ``|f|`` is monotone by sign, else a dense grid plus local refinement.

    Where the coefficients share a sign and so do the exponents, ``|f|`` is
    monotone, and the value is ``|f|`` at the end it rises to, bit for bit
    what the grid scan finds.  After the scan, the cell around the
    maximizer is re-gridded three times, which is enough for the smooth
    series handled here.  The grids are those of ``np.linspace``, built by
    :func:`_grid`.  A NaN sample (``inf - inf`` at a pole) makes the value
    NaN.  The value is cached on ``f`` per ``(a, b, grid)``, so a caller
    that keeps the series computes it once per interval.  This is the
    one-row call of :func:`_sup_abs`, which the prepare step of the theta
    forms and of ``ostrowski`` (:func:`_prepare_theta`) calls on many rows
    at once; a value it prefilled is a cache hit here.
    """
    if grid < 3:
        raise ValueError(f"grid must be >= 3, got {grid}")
    value = f._memo.get(("sup", a, b, grid))
    return _sup_abs([(f, a, b)], grid)[0] if value is None else value


def _sup_abs(rows: list, grid: int) -> list:
    """:func:`sup_abs` of each row ``(f, a, b)``, for series ``f`` that share a grade plan; each is cached on its ``f``.

    A row with ``0 <= a <= b < inf`` and coefficients of one sign takes
    ``|f(b)|`` if every exponent is ``>= 0``, and ``|f(a)|`` if every one is
    ``<= 0`` and ``a > 0``: each computed term is then monotone in x, and so
    is their rounded sum, so the scan's first argmax lands on that end,
    which the grid holds exactly.  The other rows run the same four rounds
    together, on (rows x points) arrays: each row's grid (:func:`_grid`);
    ``|f|`` on it, summed term by term as ``f.evaluate`` sums it
    (:func:`alphaineq.series._sum_terms`); the first argmax per row, which
    is the first NaN if there is one; and the cell around it as the row's
    next interval.  So each row's value is, bit for bit, the one it gets
    alone.  A row that has read a NaN stays NaN, and its later rounds only
    cost time.
    """
    plan = _plan_of(rows[0][0])
    exps = plan.exps  # sorted, as the grades are and alpha > 0
    rises, falls = not exps or exps[0] >= 0.0, not exps or exps[-1] <= 0.0
    values, scan, coeffs = [], [], []
    for f, a, b in rows:
        cs = [c for _, c in f.terms]
        end = None
        if 0.0 <= a <= b < math.inf and (not cs or min(cs) > 0.0 or max(cs) < 0.0):
            end = b if rises else a if falls and a > 0.0 else None
        if end is None:
            scan.append((f, a, b))
            coeffs.append(cs)
            values.append(None)
        else:
            values.append(abs(f.evaluate(float(end))))
            f._memo["sup", a, b, grid] = values[-1]
    if not scan:
        return values
    # per term, the rows' coefficients as a (rows, 1) column, or for one row as floats, as in _grid
    columns = coeffs[0] if len(scan) == 1 else list(np.array(coeffs).T[:, :, None])
    lo, hi = [a for _, a, _ in scan], [b for _, _, b in scan]
    best = [0.0] * len(scan)
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
    for (f, a, b), value in zip(scan, best):
        f._memo["sup", a, b, grid] = value
    scanned = iter(best)
    return [next(scanned) if v is None else v for v in values]


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
    xs, s_axis, pq_axis = (None,), (None,), ((None, None),)
    return _build("ghh", f.ctx, a, b, xs, s_axis, pq_axis, _ghh_block(f, None, a, b, xs, s_axis, pq_axis))[0]


def _ghh_block(f: AlphaSeries, functional: Optional[MomentFunctional], a: float, b: float, xs: Sequence,
               s_axis: Sequence, pq_axis: Sequence) -> list[tuple]:
    """The ghh values of one block: every point has the one value of ``[a, b]``, since ghh reads no parameter."""
    _check_axes("ghh", a, b, xs, s_axis, pq_axis)
    ctx = f.ctx
    al = ctx.alpha
    left = f.evaluate((a + b) / 2.0)
    mid = ctx.gamma_grade(1) * lf_integral(f, a, b) / (b - a) ** al
    right = (f.evaluate(a) + f.evaluate(b)) / 2.0**al
    return [_binding(left, mid, right)] * (len(s_axis) * len(pq_axis) * len(xs))


def eval_shh(f: AlphaSeries, s: float, a: float, b: float) -> IneqReport:
    """Two-sided s-convex Hermite-Hadamard check."""
    xs, s_axis, pq_axis = (None,), (s,), ((None, None),)
    return _build("shh", f.ctx, a, b, xs, s_axis, pq_axis, _shh_block(f, None, a, b, xs, s_axis, pq_axis))[0]


def _shh_block(f: AlphaSeries, functional: Optional[MomentFunctional], a: float, b: float, xs: Sequence,
               s_axis: Sequence, pq_axis: Sequence) -> list[tuple]:
    """The shh values of one block: f at the midpoint and the endpoints, and the mean, are read once for every s."""
    _check_axes("shh", a, b, xs, s_axis, pq_axis)
    ctx = f.ctx
    al = ctx.alpha
    at_mid = f.evaluate((a + b) / 2.0)
    mid = lf_integral(f, a, b) / (b - a) ** al
    ends = f.evaluate(a) + f.evaluate(b)
    values = []
    for s in s_axis:
        left = 2.0 ** ((s - 1.0) * al) / ctx.gamma_grade(1) * at_mid
        right = gamma(1.0 + s * al) / gamma(1.0 + (s + 1.0) * al) * ends
        values += [_binding(left, mid, right)] * (len(pq_axis) * len(xs))
    return values


def _binding(left: float, mid: float, right: float) -> tuple:
    """``(lhs, rhs, note)`` of the chain ``left <= mid <= right``: its binding side, and the full chain as the note."""
    slack_left = mid - left
    slack_right = right - mid
    # the smaller slack binds, and a NaN one always does, so ``holds`` covers both sides
    if slack_left <= slack_right or np.isnan(slack_left):
        lhs, rhs, binding = left, mid, "left"
    else:
        lhs, rhs, binding = mid, right, "right"
    return lhs, rhs, f"left={left:.17g} mid={mid:.17g} right={right:.17g} binding={binding}"


def eval_holder(f: AlphaSeries, p: float, q: float, a: float, b: float, functional: MomentFunctional) -> IneqReport:
    """Generalized Hoelder inequality of ``|f|`` with itself, via the numeric moment functional.

    Integrals over ``[a, b]`` are pulled back to ``[0, 1]`` through the
    affine map with the factor ``(b-a)**alpha``; the row is the one-point
    block of :func:`_holder_block`.
    """
    xs, s_axis, pq_axis = (None,), (None,), ((p, q),)
    return _build("holder", functional.ctx, a, b, xs, s_axis, pq_axis,
                  _holder_block(f, functional, a, b, xs, s_axis, pq_axis))[0]


def _holder_block(f: AlphaSeries, functional: MomentFunctional, a: float, b: float, xs: Sequence,
                  s_axis: Sequence, pq_axis: Sequence) -> list[tuple]:
    """The holder values of one block, one per pair of ``pq_axis``.

    ``|f|`` is sampled once, on ``functional``'s grid pulled back to
    ``[a, b]``, and ``J[|f|*|f|]`` is integrated once; a non-finite sample
    makes that integral raise :class:`QuadratureError`.  ``|f|`` is raised
    to every distinct exponent of the axis in one ``np.power`` call, and
    the powers are integrated in one
    :meth:`MomentFunctional.integrate_rows` call.  Each power is, bit for
    bit, ``|f|**e`` computed alone, except at ``e = 2.0``: numpy computes
    ``|f|**2.0`` as the square ``|f|*|f|``, not by ``pow``, so its integral
    is ``J[|f|*|f|]``.  Each value is then computed by its pair's
    arithmetic alone, so it is the value of its one-point block bit for
    bit.  A non-finite integral raises its :class:`QuadratureError`, the
    first exponent's in axis order, so a one-point block raises the error
    of ``|f|**p`` before that of ``|f|**q``.
    """
    _check_axes("holder", a, b, xs, s_axis, pq_axis)
    scale = (b - a) ** functional.ctx.alpha
    abs_f = np.abs(f.evaluate(a + functional.grid * (b - a)))
    prod = functional.integrate(abs_f * abs_f)
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
    values = []
    for p, q in pq_axis:
        intf = scale * integrals[p]
        intg = scale * integrals[q]
        rhs = max(intf, 0.0) ** (1.0 / p) * max(intg, 0.0) ** (1.0 / q)
        values += [(lhs, rhs, "")] * len(xs)
    return values * len(s_axis)


def eval_ostrowski_classic(f: AlphaSeries, x: float, a: float, b: float) -> IneqReport:
    """The first-derivative Ostrowski bound with a grid sup norm."""
    xs, s_axis, pq_axis = (x,), (None,), ((None, None),)
    return _build("ostrowski", f.ctx, a, b, xs, s_axis, pq_axis,
                  _ostrowski_block(f, None, a, b, xs, s_axis, pq_axis))[0]


def _ostrowski_block(f: AlphaSeries, functional: Optional[MomentFunctional], a: float, b: float, xs: Sequence,
                     s_axis: Sequence, pq_axis: Sequence) -> list[tuple]:
    """The ostrowski values of one block: the mean, theta of f' and the constant factor are read once for every x.

    Every left side is computed before theta, so a one-point block computes
    its values in the order of the formula.
    """
    _check_axes("ostrowski", a, b, xs, s_axis, pq_axis)
    ctx = f.ctx
    al = ctx.alpha
    g1 = ctx.gamma_grade(1)
    scale = (b - a) ** al
    mean = g1 * lf_integral(f, a, b) / scale
    lhs = [abs(f.evaluate(x) - mean) for x in xs]
    theta1 = sup_abs(lf_derivative(f), a, b)
    c = 2.0**al * g1 / ctx.gamma_grade(2)
    values = []
    for x, left in zip(xs, lhs):
        bracket = 1.0 / 4.0**al + (alpha_pow_signed(x - (a + b) / 2.0, ctx) / scale) ** 2
        values.append((left, c * bracket * scale * theta1, ""))
    return values * (len(s_axis) * len(pq_axis))


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
    The residual is that of the one-point block (:func:`_identity_block`),
    so it samples ``f^(2a)`` once for the two sides.
    """
    return _identity_block(f, functional, a, b, (x,), (None,), ((None, None),))[0][0]


def _identity_block(f: AlphaSeries, functional: MomentFunctional, a: float, b: float, xs: Sequence,
                    s_axis: Sequence, pq_axis: Sequence) -> list[tuple]:
    """The identity values of one block: at each x, its residual as lhs, 0 as rhs and the note ``identity-residual``.

    The values of ``f`` and ``f'`` at every x come from one ``np.power``
    call each (:meth:`AlphaSeries.cache_points`; a single x reads them on
    the scalar path, which gives the same values), and the moments of
    ``f^(2a)`` on both sides of every x from one :func:`composed_moments`
    call, which samples ``f^(2a)`` once.  Each residual is then computed
    from its point's values by the floating-point operations of that point
    alone.  Every left side is computed before any moment, so a one-point
    block whose left side and moment both raise raises the left side's
    error.
    """
    _check_axes("identity", a, b, xs, s_axis, pq_axis)
    ctx = f.ctx
    f2 = lf_derivative_n(f, 2)
    if len(xs) > 1:
        f.cache_points(xs)
        lf_derivative(f).cache_points(xs)
    lhs = [_ostrowski_signed(f, x, a, b) for x in xs]
    sides = [_identity_sides(x, a, b) for x in xs]
    moments = iter(composed_moments(f2, 2.0, [(x, e) for x, x_sides in zip(xs, sides) for _, e in x_sides], functional))
    den = ctx.gamma_grade(2) * (b - a) ** ctx.alpha
    values = []
    for left, x_sides in zip(lhs, sides):
        rhs = 0.0
        for length, _ in x_sides:
            rhs += alpha_pow_signed(length, ctx) ** 3 * next(moments)
        rhs /= den
        values.append((abs(left - rhs), 0.0, "identity-residual"))
    return values * (len(s_axis) * len(pq_axis))


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


def _theorem_block(ineq: str, f: AlphaSeries, a: float, b: float, xs: Sequence, s_axis: Sequence,
                   pq_axis: Sequence, grid: int = 0) -> list[tuple]:
    """The values of one block of a theorem-family id (thm1-3 or a corollary), in the order of the points.

    A block is one series and interval and the product of its axes.  Each
    axis value is checked once (:func:`_check_axes`), the theorem's record
    is read once per (s, p, q) and each value that depends on x alone once
    per x (:func:`_theorem_at`, theta's bracket).  Each value is computed
    by the floating-point operations of its point alone, so it is bit for
    bit the value of its one-point block, which ``eval_thm1``-``3`` and
    :func:`eval_corollary` read.  The records come first, so a point whose
    record raises (a Gamma pole, or Gamma overflowing at a large p) raises
    that error.  The thm values carry the s-convexity hypothesis, grid-checked
    when ``grid > 0`` (:func:`_hypothesis_note`), as their note; the check
    runs next to the record and before any value at x, so a point whose
    note and x values both raise raises the note's error.
    """
    _check_axes(ineq, a, b, xs, s_axis, pq_axis)
    reads = INEQUALITIES[ineq].reads
    form, _, thm = ineq.rpartition("-")
    ctx = f.ctx
    al = ctx.alpha
    read_p, read_q = "p" in reads, "q" in reads
    records = []  # per (s, p, q), the theorem's record and a thm value's note
    for s in s_axis:
        for p, q in pq_axis:
            # a parameter the theorem ignores is None, so rows that differ only in it share a record
            p, q = p if read_p else None, q if read_q else None
            record = _theorem(f, thm, s, p, q)
            records.append((record, "" if form else _hypothesis_note(f, s, a, b, grid, 1.0 if q is None else q)))
    values = []
    if not (records and xs):
        return values
    f2, g2 = records[0][0][:2]  # the same in every record
    if not form:  # thm1-3
        at_x = [_theorem_at(f, x, a, b) for x in xs]
        for (_, _, front, side, _, _, _, _), note in records:
            for dx, da, db, wa, wb, den, left in at_x:
                values.append((left, front * (wa * side(dx, da) + wb * side(dx, db)) / den, note))
    elif form == "theta":
        theta = sup_abs(f2, a, b)
        at_x = []
        for x in xs:
            left = _ostrowski_lhs(f, x, a, b)
            at_x.append((left, (b - a) ** (2.0 * al) / 12.0**al + alpha_pow_signed(x - (a + b) / 2.0, ctx) ** 2))
        for (_, _, front, _, lead, sup, _, _), _ in records:
            c = front * lead * 3.0**al * theta * sup / g2
            for left, bracket in at_x:
                values.append((left, c * bracket, ""))
    else:  # the midpoint forms, whose values do not depend on x
        left = _midpoint_lhs(f, a, b)
        if form == "midpoint":
            da, db = abs(f2.evaluate(a)), abs(f2.evaluate(b))
        else:
            theta = sup_abs(f2, a, b)
        for (_, _, front, _, lead, sup, div, mid), _ in records:
            if form == "midpoint":
                right = front * ((b - a) ** (2.0 * al) / g2) / div * mid * (da + db)
            else:
                right = front * lead * sup * (theta * (b - a) ** (2.0 * al) / (4.0**al * g2))
            values += [(left, right, "")] * len(xs)
    return values


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
    thm2 and thm3, the row is that of the one-point block of :func:`_theorem_block`.
    """
    xs, s_axis, pq_axis = (x,), (s,), ((None, None),)
    return _build("thm1", f.ctx, a, b, xs, s_axis, pq_axis,
                  _theorem_block("thm1", f, a, b, xs, s_axis, pq_axis, hypothesis_grid))[0]


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
    xs, s_axis, pq_axis = (x,), (s,), ((p, q),)
    return _build("thm2", f.ctx, a, b, xs, s_axis, pq_axis,
                  _theorem_block("thm2", f, a, b, xs, s_axis, pq_axis, hypothesis_grid))[0]


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
    xs, s_axis, pq_axis = (x,), (s,), ((None, q),)
    return _build("thm3", f.ctx, a, b, xs, s_axis, pq_axis,
                  _theorem_block("thm3", f, a, b, xs, s_axis, pq_axis, hypothesis_grid))[0]


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
    theorem's own rows share.  The row is that of the one-point block of
    :func:`_theorem_block`.
    """
    if variant not in COROLLARY_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose one of {COROLLARY_VARIANTS}")
    xs, s_axis, pq_axis = (x,), (s,), ((p, q),)
    return _build(variant, f.ctx, a, b, xs, s_axis, pq_axis, _theorem_block(variant, f, a, b, xs, s_axis, pq_axis))[0]


Evaluator = Callable[..., IneqReport]


@dataclass(frozen=True, slots=True)
class Ineq:
    """One registry row: the parameters an id reads, of x, s, p and q, and its evaluators.

    Every id is a block.  ``block``, called as ``block(series, functional,
    a, b, xs, s_axis, pq_axis)``, returns the ``(lhs, rhs, note)`` of every
    point of one interval's product of the axes, in
    ``product(s_axis, pq_axis, xs)`` order, and :func:`_build` makes and
    decides their rows.  ``evaluate``, called as ``evaluate(series,
    functional, a, b, x, s, p, q)``, returns the row of one point with an
    empty ``fn``: it calls the id's public evaluator, which is the
    one-point block and the builder, so it is the row ``block`` gives at
    that point.  ``prepare``, set for the six theta forms (theta of f'')
    and ``ostrowski`` (theta of f'), is called as ``prepare(rows)`` with
    rows ``(series, a, b)`` ahead of evaluating them
    (:func:`_prepare_theta`).  It only fills caches the evaluations read,
    so a row's value does not depend on it, and a caller ignores its
    errors.
    """

    reads: frozenset[str]
    evaluate: Evaluator
    block: Callable[..., list[tuple]]
    prepare: Optional[Callable[[list], None]] = None


def _corollary(variant: str) -> Evaluator:
    return lambda f, fl, a, b, x, s, p, q: eval_corollary(variant, f, a, b, s, p, q, x)


def _block(ineq: str) -> Callable[..., list[tuple]]:
    return lambda f, fl, a, b, xs, s_axis, pq_axis: _theorem_block(ineq, f, a, b, xs, s_axis, pq_axis)


#: Every inequality id, in report order, and its :class:`Ineq` record, whose
#: ``reads`` is spelled as the letters it holds.  A sweep is the product of
#: (alpha, interval, fn) and the axes of what the id reads: s, x, and the
#: (p, q) pairs for an id that reads q (the thm3 family reads q but not p).
#: The lambdas look the functions they call up by module name when called,
#: so whatever rebinds a name sees each call made through it.  A sweep
#: evaluates every id through ``block``, once per block; only single points
#: (``evaluate_single``, ``falsify``, ``alphaineq eval``, and the points of
#: a block whose call raised) go through ``evaluate``.
INEQUALITIES: dict[str, Ineq] = {
    "ghh": Ineq(frozenset(), lambda f, fl, a, b, x, s, p, q: eval_ghh(f, a, b), lambda *args: _ghh_block(*args)),
    "shh": Ineq(frozenset("s"), lambda f, fl, a, b, x, s, p, q: eval_shh(f, s, a, b), lambda *args: _shh_block(*args)),
    "holder": Ineq(
        frozenset("pq"),
        lambda f, fl, a, b, x, s, p, q: eval_holder(f, p, q, a, b, fl),
        lambda *args: _holder_block(*args),
    ),
    "ostrowski": Ineq(
        frozenset("x"),
        lambda f, fl, a, b, x, s, p, q: eval_ostrowski_classic(f, x, a, b),
        lambda *args: _ostrowski_block(*args),
        _prepare_theta(1),
    ),
    "identity": Ineq(
        frozenset("x"),
        lambda f, fl, a, b, x, s, p, q: _build(
            "identity", f.ctx, a, b, (x,), (s,), ((p, q),),
            [(identity_residual(f, x, a, b, fl), 0.0, "identity-residual")],
        )[0],
        lambda *args: _identity_block(*args),
    ),
    "thm1": Ineq(frozenset("sx"), lambda f, fl, a, b, x, s, p, q: eval_thm1(f, s, x, a, b), _block("thm1")),
    "thm2": Ineq(frozenset("sxpq"), lambda f, fl, a, b, x, s, p, q: eval_thm2(f, s, p, q, x, a, b), _block("thm2")),
    "thm3": Ineq(frozenset("sxq"), lambda f, fl, a, b, x, s, p, q: eval_thm3(f, s, q, x, a, b), _block("thm3")),
    # every corollary reads s; the theta forms also x, and each reads what its theorem reads of p and q
    **{
        f"{form}-thm{i}": Ineq(
            frozenset("s" + ("x" if form == "theta" else "") + {1: "", 2: "pq", 3: "q"}[i]),
            _corollary(f"{form}-thm{i}"),
            _block(f"{form}-thm{i}"),
            _prepare_theta(2) if "theta" in form else None,
        )
        for i in (1, 2, 3)
        for form in ("midpoint", "theta", "midpoint-theta")
    },
}

COROLLARY_VARIANTS = tuple(i for i in INEQUALITIES if "-thm" in i)

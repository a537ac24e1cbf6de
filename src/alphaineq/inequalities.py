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
``ostrowski``, the six theta forms, ``holder`` and ``identity`` have a
``prepare`` step, which a ``falsify`` job runs ahead of a chunk of trials
to fill what they read for all of them in one array kernel: theta
(:func:`_prepare_theta`), the Hoelder integrals (:func:`_prepare_holder`)
or the composed moments of f'' (:func:`_prepare_identity`).
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
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .alphanum import AlphaContext, alpha_pow_signed, gamma, memoized
from .convexity import check_s_convex_second
from .quadrature import MomentFunctional, QuadratureError, _prepare_moments, composed_moments
from .series import (
    AlphaSeries, GammaPoleError, _plan_of, _sum_terms, _term_columns, lf_derivative, lf_derivative_n, lf_integral,
)

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
    does not read (its :class:`Ineq` read flags) is None in its rows; the
    nested loops, in the order of ``product``, apply the flags per value.
    The slack is ``rhs - lhs``, except for ``identity``, whose slack is
    minus its residual ``lhs``, which keeps the sign of a zero residual
    (``0.0 - lhs`` would not); ``holds`` is :func:`decide` of it and
    ``slack_tol``.  An error row is the row of NaN values with the error as
    its note.
    """
    rec = INEQUALITIES[ineq]
    read_s, read_p, read_q, read_x = rec.read_s, rec.read_p, rec.read_q, rec.read_x
    alpha, tol, identity = ctx.alpha, ctx.slack_tol, ineq == "identity"
    rows, k = [], 0
    for s in s_axis:
        if not read_s:
            s = None
        for p, q in pq_axis:
            if not read_p:
                p = None
            if not read_q:
                q = None
            for x in xs:
                lhs, rhs, note = values[k]
                k += 1
                slack = -lhs if identity else rhs - lhs
                rows.append(IneqReport(ineq, alpha, lhs, rhs, slack, decide(slack, tol), s, p, q, a, b,
                                       x if read_x else None, fn, note))
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


#: How far ``1/p + 1/q`` may lie from 1 for ``(p, q)`` to count as conjugate.
_CONJUGATE_TOL = 1e-12


def _check_conjugate(p: float, q: float) -> None:
    """Raise ``ValueError`` unless ``p, q > 1`` are finite and ``1/p + 1/q = 1`` within ``_CONJUGATE_TOL``.

    An infinite exponent is rejected even in a pair that is conjugate
    within the tolerance, such as ``(1.0000000000001, inf)``: the paper's
    exponents are finite, and ``v ** (1/inf)`` is 1 for every ``v > 0``,
    so the bounds no longer follow from the theorems.
    """
    # written so that a NaN fails each test
    if not (p > 1.0 and q > 1.0):
        raise ValueError(f"need p, q > 1, got ({p}, {q})")
    if not (p < math.inf and q < math.inf):
        raise ValueError(f"need finite p and q, got ({p}, {q})")
    if not abs(1.0 / p + 1.0 / q - 1.0) <= _CONJUGATE_TOL:
        raise ValueError(f"(p, q) = ({p}, {q}) are not conjugate")


def _check_q(q: Optional[float]) -> None:
    """Raise ``ValueError`` unless ``1 <= q < inf``, the exponent of the power-mean route (thm3 and its corollaries)."""
    if not (q is not None and q >= 1.0):  # a NaN q fails too
        raise ValueError(f"need q >= 1, got {q}")
    if not q < math.inf:
        raise ValueError(f"need a finite q, got {q}")


def _check_axes(ineq: str, a: float, b: float, xs: Sequence, s_axis: Sequence, pq_axis: Sequence) -> Ineq:
    """Check ``[a, b]`` and each value of the axes ``ineq`` reads, each once, and return the id's :class:`Ineq`.

    A missing or bad value raises ``ValueError`` naming ``ineq``.  First
    comes the check that no read value is missing (s, then (p, q) for an id
    that reads p, then x), then the interval, s, (p, q) or q, and x.  The
    read flags come from the id's record, and each value is tested inline;
    the helper that raises (:func:`_check_interval`, :func:`_check_s`,
    :func:`_check_conjugate`, :func:`_check_q`, :func:`_check_point`) is
    called only on a value that fails, so a good point pays for no call.
    """
    rec = INEQUALITIES[ineq]
    read_s, read_p, read_q, read_x = rec.read_s, rec.read_p, rec.read_q, rec.read_x
    if read_s and None in s_axis:
        raise ValueError(f"{ineq} needs the convexity order s")
    if read_p:
        for p, q in pq_axis:
            if p is None or q is None:
                raise ValueError(f"{ineq} needs conjugate (p, q)")
    if read_x and None in xs:
        raise ValueError(f"{ineq} needs the evaluation point x")
    try:
        # each test is written so that a NaN fails it
        if not (0.0 <= a < b < math.inf):
            _check_interval(a, b)
        if read_s:
            for s in s_axis:
                if not (0.0 < s <= 1.0):
                    _check_s(s)
        if read_p:
            for p, q in pq_axis:
                if not (1.0 < p < math.inf and 1.0 < q < math.inf and abs(1.0 / p + 1.0 / q - 1.0) <= _CONJUGATE_TOL):
                    _check_conjugate(p, q)
        elif read_q:
            for _, q in pq_axis:
                if not (q is not None and 1.0 <= q < math.inf):
                    _check_q(q)
        if read_x:
            for x in xs:
                if not (a <= x <= b):
                    _check_point(x, a, b)
    except ValueError as exc:
        raise ValueError(f"{ineq}: {exc}") from None
    return rec


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
    values, scan = [], []
    for f, a, b in rows:
        cs = [c for _, c in f.terms]
        end = None
        if 0.0 <= a <= b < math.inf and (not cs or min(cs) > 0.0 or max(cs) < 0.0):
            end = b if rises else a if falls and a > 0.0 else None
        if end is None:
            scan.append((f, a, b))
            values.append(None)
        else:
            values.append(abs(f.evaluate(float(end))))
            f._memo["sup", a, b, grid] = values[-1]
    if not scan:
        return values
    columns = _term_columns([f for f, _, _ in scan])
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
    # each Gamma value once: G(1+(s+1)a) and G(1+(s+2)a) appear in both constants
    g0, g1 = gamma(1.0 + s * a), gamma(1.0 + (s + 1.0) * a)
    g2, g3 = gamma(1.0 + (s + 2.0) * a), gamma(1.0 + (s + 3.0) * a)
    M = g2 / g3
    N = g0 / g1 - 2.0**a * g1 / g2 + M
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

    The integrals ``J[|f|**e]`` on ``[a, b]``, of ``J[|f|*|f|]`` and of every
    distinct exponent of the axis, are read from what the prepare step
    (:func:`_prepare_holder`) cached on ``f`` for this same ``functional``
    object, or else come from the one-row call of :func:`_holder_integrals`,
    which samples ``|f|`` once and caches nothing.  A non-finite integral
    raises its :class:`QuadratureError`: that of ``J[|f|*|f|]`` first, then the first
    exponent's in axis order, so a one-point block raises the error of
    ``|f|**p`` before that of ``|f|**q``.  Each value is then computed by
    its pair's arithmetic alone, so it is the value of its one-point block
    bit for bit.
    """
    _check_axes("holder", a, b, xs, s_axis, pq_axis)
    scale = (b - a) ** functional.ctx.alpha
    exps = _exponents(pq_axis)
    held = f._memo.get(("holder", a, b))  # (functional, integrals), as the prepare step holds them
    if held is not None and held[0] is functional and all(map(held[1].__contains__, exps)):
        integrals = held[1]
    else:
        integrals = _holder_integrals([(f, a, b, exps)], functional)[0]
        if isinstance(integrals, QuadratureError):
            raise integrals
    lhs = scale * integrals[2.0]
    values = []
    for p, q in pq_axis:
        intf = scale * integrals[p]
        intg = scale * integrals[q]
        rhs = max(intf, 0.0) ** (1.0 / p) * max(intg, 0.0) ** (1.0 / q)
        values += [(lhs, rhs, "")] * len(xs)
    return values * len(s_axis)


def _exponents(pq_axis: Sequence) -> list:
    """The distinct exponents of the (p, q) pairs, in axis order, other than 2.0, whose integral is ``J[|f|*|f|]``."""
    exps = []
    for pair in pq_axis:
        for e in pair:
            if e != 2.0 and e not in exps:
                exps.append(e)
    return exps


def _holder_integrals(rows: list, functional: MomentFunctional) -> list:
    """The Hoelder integrals of each row ``(f, a, b, exps)``, for series ``f`` that share a grade plan.

    A row's integrals are ``J[|f|**e]`` over ``[a, b]`` pulled back to
    ``[0, 1]``: a dict from 2.0 and each exponent of ``exps`` (distinct,
    none 2.0) to its integral, or, if one is not finite, the
    :class:`QuadratureError` of the first, 2.0's before the others in the
    order of ``exps``.  ``|f|`` is sampled on ``functional``'s grid mapped
    to each row's interval, one (rows x nodes) array for all rows, with
    each row summed as ``f.evaluate`` sums it
    (:func:`alphaineq.series._sum_terms`).  The squares ``|f|*|f|`` of all
    rows, which numpy computes for ``|f|**2.0`` in place of ``pow``, and
    the other powers of every row, from one ``np.power`` call, are
    integrated by one :meth:`MomentFunctional.integrate_rows` call.  So
    each power and each integral is, bit for bit, the one the row computes
    alone, and a block's one row computes what a prepare step's many rows
    compute for it.
    """
    n = len(rows)
    # for one row, its a, length and exponents as they are, as _term_columns gives its coefficients as floats,
    # so |f| is its (nodes,) samples and broadcasts against the exponent column; else (rows, 1) columns
    if n == 1:
        f, start, b, flat = rows[0]
        series, step = [f], b - start
    else:
        series, flat = [f for f, _, _, _ in rows], [e for _, _, _, exps in rows for e in exps]
        ends = np.array([(a, b - a) for _, a, b, _ in rows])
        start, step = ends[:, :1], ends[:, 1:]
    abs_f = np.abs(_sum_terms(_plan_of(series[0]), _term_columns(series), start + functional.grid * step))
    # the squares of the rows, then the powers of each row, integrated together
    y = (abs_f * abs_f).reshape(n, functional.nodes)
    if flat:
        base = abs_f if n == 1 else np.repeat(abs_f, [len(exps) for _, _, _, exps in rows], axis=0)
        y = np.concatenate((y, np.power(base, np.array(flat)[:, None])))
    integrated = functional.integrate_rows(y)
    powers = iter(integrated[n:])
    out = []
    for (_, _, _, exps), square in zip(rows, integrated):
        integrals = {2.0: square}
        integrals.update(zip(exps, powers))  # exps first, so zip takes exactly len(exps) powers
        for value in integrals.values():  # the first error, 2.0's before the others
            if type(value) is not float:
                out.append(value)
                break
        else:
            out.append(integrals)
    return out


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
    call, which reads those the prepare step (:func:`_prepare_identity`)
    cached and samples the others of ``f^(2a)`` at once.  Each residual is
    then computed from its point's values by the floating-point operations
    of that point alone.  Every left side is computed before any moment,
    so a one-point block whose left side and moment both raise raises the
    left side's error.
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

    It fills theta for every row ``(f, functional, a, b, x, p, q)`` whose
    derivative does not hold it yet, with one :func:`_sup_abs` call per grade plan, which
    belongs to one alpha, and ``_SUP_ROWS`` rows, so the evaluators'
    :func:`sup_abs` calls are cache hits.  A row whose derivative hits a
    Gamma pole is skipped: its evaluation raises on its own.  If this
    raises, the values it cached stay valid and every evaluation computes
    the rest, or raises, on its own.
    """

    def prepare(rows: list) -> None:
        groups: dict = {}
        for f, _, a, b, _, _, _ in rows:
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


def _prepare_holder(rows: list) -> None:
    """The prepare step of ``holder``: the integrals of every row ``(f, functional, a, b, x, p, q)`` at 2.0, p and q.

    The rows are grouped by grade plan and functional, and each group is
    sampled by one :func:`_holder_integrals` call, whose rows hold 40
    nodes each, so no group needs a cap.  A row's integrals are stored in
    ``f._memo`` under ``("holder", a, b)`` as ``(functional, integrals)``,
    and :func:`_holder_block` reads them only with that same functional
    object, which costs no hash of it; a row with a non-finite integral,
    or a zero series, stores nothing, so its evaluation computes, or
    raises, on its own.
    """
    groups: dict = {}  # per (plan, functional), keyed by the functional's id, which hashes faster
    for f, functional, a, b, _, p, q in rows:
        if not f.is_zero:
            group = groups.setdefault((_plan_of(f), id(functional)), (functional, []))[1]
            group.append((f, a, b, _exponents(((p, q),))))
    for functional, group in groups.values():
        for (f, a, b, _), integrals in zip(group, _holder_integrals(group, functional)):
            if not isinstance(integrals, QuadratureError):
                f._memo["holder", a, b] = (functional, integrals)


def _prepare_identity(rows: list) -> None:
    """The prepare step of ``identity``: for each row ``(f, functional, a, b, x, p, q)``, the moments of f'' beside x.

    The sides are those :func:`_identity_block` reads
    (:func:`_identity_sides`); :func:`alphaineq.quadrature._prepare_moments`
    samples those without an exact moment, one call per functional, and
    caches each finite moment on f'' where :func:`composed_moments` reads
    it.  A row whose f'' hits a Gamma pole is skipped: its evaluation
    raises on its own.
    """
    segments: dict = {}  # per functional, keyed by its id, the (f'', x, e) of every side
    for f, functional, a, b, x, _, _ in rows:
        try:
            f2 = lf_derivative_n(f, 2)
        except GammaPoleError:
            continue
        group = segments.setdefault(id(functional), (functional, []))[1]
        for _, e in _identity_sides(x, a, b):
            group.append((f2, x, e))
    for functional, group in segments.values():
        _prepare_moments(group, 2.0, functional)


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
    note and x values both raise raises the note's error.  An overflow of
    the record, its note or a thm value's power mean is raised again as an
    ``OverflowError`` that names the id and the p and q it reads.
    """
    rec = _check_axes(ineq, a, b, xs, s_axis, pq_axis)
    form, thm, read_p, read_q = rec.form, rec.thm, rec.read_p, rec.read_q
    ctx = f.ctx
    al = ctx.alpha
    records = []  # per (s, p, q), the theorem's record and a thm value's note
    try:
        for s in s_axis:
            for p, q in pq_axis:
                # a parameter the theorem ignores is None, so rows that differ only in it share a record
                if not read_p:
                    p = None
                if not read_q:
                    q = None
                record = _theorem(f, thm, s, p, q)
                records.append((record, "" if form else _hypothesis_note(f, s, a, b, grid, 1.0 if q is None else q)))
    except OverflowError as exc:  # Gamma(1 + 2p alpha) at a large p
        raise _exponent_overflow(ineq, p, q, exc) from exc
    values = []
    if not (records and xs):
        return values
    if not form:  # thm1-3
        at_x = []
        for x in xs:
            at_x.append(_theorem_at(f, x, a, b))
        try:
            for (_, _, front, side, _, _, _, _), note in records:
                for dx, da, db, wa, wb, den, left in at_x:
                    values.append((left, front * (wa * side(dx, da) + wb * side(dx, db)) / den, note))
        except OverflowError as exc:  # |f''|**q at a large q
            # each record adds len(xs) values, and the records follow product(s_axis, pq_axis)
            p, q = pq_axis[len(values) // len(xs) % len(pq_axis)]
            raise _exponent_overflow(ineq, p if read_p else None, q if read_q else None, exc) from exc
        return values
    f2, g2 = records[0][0][:2]  # the same in every record
    if form == "theta":
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


def _exponent_overflow(ineq: str, p: Optional[float], q: Optional[float], exc: OverflowError) -> OverflowError:
    """The ``OverflowError`` of a theorem-family point at exponents p and q, naming both, or q alone where p is None."""
    at = ", ".join(f"{name}={value!r}" for name, value in (("p", p), ("q", q)) if value is not None)
    return OverflowError(f"{ineq} overflows at {at}: {exc}")


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
    that point.  ``prepare``, set for the six theta forms (theta of f''),
    ``ostrowski`` (theta of f', :func:`_prepare_theta`), ``holder``
    (:func:`_prepare_holder`) and ``identity`` (:func:`_prepare_identity`),
    is called as ``prepare(rows)`` ahead of evaluating the rows, each
    ``(series, functional, a, b, x, p, q)``, the arguments of its
    ``evaluate`` call but s, which no step reads.  It fills, for all rows
    at once, caches the evaluations read, so a row's value does not depend
    on it, and a caller ignores its errors.  A theorem-family id (thm1-3 and the nine corollaries) has its
    theorem ``thm`` and its corollary ``form``, empty for the theorem
    itself; every other id has both empty.

    The read flags ``read_s``, ``read_p``, ``read_q`` and ``read_x`` are
    derived from ``reads`` when the record is made, so the registry is the
    one place an id's contract lives, and :func:`_check_axes` and
    :func:`_build` read a flag instead of testing the set on every call.
    """

    reads: frozenset[str]
    evaluate: Evaluator
    block: Callable[..., list[tuple]]
    prepare: Optional[Callable[[list], None]] = None
    form: str = ""
    thm: str = ""
    read_s: bool = field(init=False)
    read_p: bool = field(init=False)
    read_q: bool = field(init=False)
    read_x: bool = field(init=False)

    def __post_init__(self) -> None:
        for name in "spqx":
            object.__setattr__(self, f"read_{name}", name in self.reads)


def _corollary(variant: str) -> Evaluator:
    return lambda f, fl, a, b, x, s, p, q: eval_corollary(variant, f, a, b, s, p, q, x)


def _theorem_ineq(ineq: str, reads: str, evaluate: Evaluator) -> Ineq:
    """A theorem-family record: its block is :func:`_theorem_block`, and its form and thm split ``ineq``."""
    form, _, thm = ineq.rpartition("-")
    return Ineq(
        frozenset(reads), evaluate,
        lambda f, fl, a, b, xs, s_axis, pq_axis: _theorem_block(ineq, f, a, b, xs, s_axis, pq_axis),
        _prepare_theta(2) if "theta" in form else None, form, thm,
    )


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
        _prepare_holder,
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
        _prepare_identity,
    ),
    "thm1": _theorem_ineq("thm1", "sx", lambda f, fl, a, b, x, s, p, q: eval_thm1(f, s, x, a, b)),
    "thm2": _theorem_ineq("thm2", "sxpq", lambda f, fl, a, b, x, s, p, q: eval_thm2(f, s, p, q, x, a, b)),
    "thm3": _theorem_ineq("thm3", "sxq", lambda f, fl, a, b, x, s, p, q: eval_thm3(f, s, q, x, a, b)),
    # every corollary reads s; the theta forms also x, and each reads what its theorem reads of p and q
    **{
        f"{form}-thm{i}": _theorem_ineq(
            f"{form}-thm{i}", "s" + ("x" if form == "theta" else "") + {1: "", 2: "pq", 3: "q"}[i],
            _corollary(f"{form}-thm{i}"),
        )
        for i in (1, 2, 3)
        for form in ("midpoint", "theta", "midpoint-theta")
    },
}

COROLLARY_VARIANTS = tuple(i for i in INEQUALITIES if "-thm" in i)

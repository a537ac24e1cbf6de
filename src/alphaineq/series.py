"""Finite power series in ``x**(k*alpha)`` and their term-wise calculus.

This is the function algebra the whole engine operates on: sums
``sum_k c_k * x**(k*alpha)`` with real grades ``k >= 0``.  The derivative
and integral are defined term by term through the monomial rules

    d^alpha/dx^alpha x**(k a) = [G(1+k a)/G(1+(k-1) a)] x**((k-1) a)
    integral of x**(k a)      = [G(1+k a)/G(1+(k+1) a)] (b**((k+1)a) - a**((k+1)a))

taken as the *definitions* on this algebra.  The limit-based forms of both
operators diverge under ordinary arithmetic for alpha < 1, so the term-wise
rules are the semantics that can actually be computed.  How far integration
by parts fails under them is measured by reference code in
``tests/reference.py``, which also holds the series ring operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .alphanum import AlphaContext, alpha_pow_signed, gamma, memoized

__all__ = [
    "AlphaSeries",
    "GammaPoleError",
    "lf_derivative",
    "lf_derivative_n",
    "lf_integral",
]

# Grades closer than this are considered the same term during normalization.
_GRADE_MERGE_TOL = 1e-12

# Grades must stay above -1 so every term keeps a convergent integral; the
# open interval (-1, 0) is needed because differentiating a grade in (0, 1)
# lands there.
_GRADE_FLOOR = -1.0


class GammaPoleError(ArithmeticError):
    """A term-wise derivative hit a Gamma pole at some grade."""


def _normalize(terms: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Terms sorted by grade, equal grades merged and zero coefficients dropped.

    A tuple already in that form, such as a derivative's terms, is returned
    as it is.
    """
    if type(terms) is tuple and _in_normal_form(terms):
        return terms
    merged: list[list[float]] = []
    for k, c in sorted(terms):
        if not (math.isfinite(k) and math.isfinite(c)):
            raise ValueError(f"non-finite term (grade={k}, coeff={c})")
        if k <= _GRADE_FLOOR:
            raise ValueError(f"grades must stay above {_GRADE_FLOOR}, got {k}")
        if merged and abs(k - merged[-1][0]) <= _GRADE_MERGE_TOL * max(1.0, abs(k)):
            merged[-1][1] += c
        else:
            merged.append([k, c])
    return tuple((k, c) for k, c in merged if c != 0.0)


def _in_normal_form(terms: tuple) -> bool:
    """Whether the slow path of :func:`_normalize` would return ``terms`` unchanged.

    True when every term is a pair tuple with a finite nonzero coefficient
    and the grades rise from above the floor by more than the merge
    tolerance each; a NaN or infinite grade fails the rise test.
    """
    prev = _GRADE_FLOOR
    for term in terms:
        k, c = term
        if not (
            type(term) is tuple
            and k - prev > (_GRADE_MERGE_TOL * k if k > 1.0 else _GRADE_MERGE_TOL)
            and c != 0.0
            and c - c == 0.0
        ):
            return False
        prev = k
    return True


class _GradePlan:
    """What a series reads that depends only on its grades and alpha.

    ``exps`` are the exponents ``k*alpha`` (and ``exp_array`` the same as an
    array); ``squares`` and ``roots`` index the exponents 2.0 and 0.5, which
    numpy computes by square and sqrt, not pow, so the scalar path must do
    the same.  The derivative's Gamma pairs ``(G(1+k a), G(1+(k-1) a))`` per
    differentiated term, or the message of the pole it hits, and the
    integral's ratios ``G(1+k a)/G(1+(k+1) a)`` are computed on first use.
    """

    __slots__ = ("grades", "alpha", "exps", "exp_array", "squares", "roots", "_pairs", "_ratios")

    def __init__(self, grades: tuple, alpha: float) -> None:
        self.grades, self.alpha = grades, alpha
        self.exps = [k * alpha for k in grades]
        self.exp_array = np.array(self.exps, dtype=float)
        self.squares = [i for i, e in enumerate(self.exps) if e == 2.0]
        self.roots = [i for i, e in enumerate(self.exps) if e == 0.5]
        self._pairs: Optional[tuple | str] = None
        self._ratios: Optional[list] = None

    def derivative_pairs(self) -> tuple[int, list]:
        """``(skip, pairs)``: the number of leading constant terms and the Gamma pairs of the rest.

        Raises :class:`GammaPoleError` on every call when a grade cannot be
        differentiated.
        """
        pairs = self._pairs
        if pairs is None:
            pairs = self._pairs = self._derivative_pairs()
        if type(pairs) is str:
            raise GammaPoleError(pairs)
        return pairs

    def _derivative_pairs(self) -> tuple | str:
        a = self.alpha
        out = []
        # normalized grades are sorted, so a constant term comes before every
        # grade that can be differentiated
        skip = 0
        for k in self.grades:
            if k == 0.0:
                skip += 1
                continue
            if k < 0.0:
                return f"cannot differentiate grade {k}: the result would leave the integrable range"
            lower = 1.0 + (k - 1.0) * a
            if lower <= 0.0:
                return f"derivative of grade {k} hits a Gamma pole (argument {lower})"
            out.append((gamma(1.0 + k * a), gamma(lower)))
        return skip, out

    def integral_ratios(self) -> list:
        ratios = self._ratios
        if ratios is None:
            a = self.alpha
            ratios = self._ratios = [gamma(1.0 + k * a) / gamma(1.0 + (k + 1.0) * a) for k in self.grades]
        return ratios


@memoized("plan")
def _grade_plan(ctx: AlphaContext, grades: tuple) -> _GradePlan:
    """The plan of ``grades`` at ``ctx``'s alpha, shared through ``ctx._memo`` by every series with those grades."""
    return _GradePlan(grades, ctx.alpha)


def _plan_of(f: "AlphaSeries") -> _GradePlan:
    """``f``'s grade plan, looked up once per series and then held by it."""
    plan = f._plan
    if plan is None:
        plan = _grade_plan(f.ctx, tuple([k for k, _ in f.terms]))
        object.__setattr__(f, "_plan", plan)
    return plan


def _sum_terms(plan: _GradePlan, coeffs: list, xs: np.ndarray) -> np.ndarray:
    """``sum c * xs**e`` over the plan's exponents ``e`` and ``coeffs``, in term order from +0.0.

    The array path of :meth:`AlphaSeries.evaluate` passes its coefficients
    as floats.  :func:`alphaineq.inequalities.sup_abs` passes one (rows, 1)
    column per term, for a (rows x points) array of series that share the
    plan, so each row is summed as its series alone would be.  A leading
    constant term fills the sum with its coefficient, which is that sum:
    numpy computes ``xs ** 0.0`` as 1.0 at every point, NaN included, and
    ``0.0 + c * 1.0`` is ``c`` for a nonzero ``c``.  Numpy's error state is
    set only when a negative grade can divide by zero.
    """
    if plan.grades and plan.grades[0] < 0.0:
        with np.errstate(divide="ignore"):
            return _sum_in_term_order(plan.exps, coeffs, xs)
    return _sum_in_term_order(plan.exps, coeffs, xs)


def _sum_in_term_order(exps: list, coeffs: list, xs: np.ndarray) -> np.ndarray:
    terms = zip(exps, coeffs)
    if exps and exps[0] == 0.0:
        out = np.empty(xs.shape)
        out[...] = next(terms)[1]
    else:
        out = np.zeros(xs.shape)
    for e, c in terms:
        term = xs ** e
        term *= c
        out += term
    return out


@dataclass(frozen=True)
class AlphaSeries:
    """A finite sum ``sum_k c_k * x**(k*alpha)`` over grades ``k > -1``.

    Candidate functions use grades ``k >= 0``; grades in ``(-1, 0)`` arise
    only as derivatives of grades in ``(0, 1)`` and keep convergent
    integrals.  Terms are kept sorted by grade with equal grades merged and
    zero coefficients dropped.  Evaluation uses ordinary real powers on
    ``x >= 0`` (``x > 0`` when a negative grade is present).

    Values derived from the series alone (its derivative, integrals, sup
    norms, values at single points, hypothesis verdicts) are cached in
    ``_memo`` for the lifetime of the instance, and so are the evaluators'
    per-point left sides and their per-s constants; the cache takes no part
    in equality, hashing or repr.  Neither does ``_plan``, a reference to
    the grade plan (:class:`_GradePlan`) that this series shares, through
    its context, with every series of the same grades.
    """

    terms: tuple[tuple[float, float], ...]
    ctx: AlphaContext
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False, hash=False)
    _plan: Optional[_GradePlan] = field(default=None, init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _normalize(self.terms))

    @classmethod
    def monomial(cls, grade: float, ctx: AlphaContext, coeff: float = 1.0) -> "AlphaSeries":
        return cls(((grade, coeff),), ctx)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, x: np.ndarray | float) -> np.ndarray | float:
        """Vectorized evaluation at nonnegative points (not range-checked).

        Negative-grade terms evaluate to inf at 0, silently; the
        range-checked scalar path, ``series_eval``, is reference code in
        ``tests/reference.py``.  A Python
        float ``x >= 0`` takes a scalar path whose result is bit-identical
        to evaluating the one-element array ``[x]``, and is cached on the
        series per ``x``; ``-0.0`` and ``0.0`` share one entry, as they give
        the same value.  The array path sums ``c * x**(k*alpha)`` in term
        order from +0.0, in place, and sets numpy's error state only when a
        negative grade can divide by zero.
        """
        if type(x) is float and x >= 0.0:
            # the hottest call in the program: a hit stays inline, since routing
            # it through ``memoized`` adds a frame per hit and slows sweeps measurably
            key = ("ev", x)
            value = self._memo.get(key)
            if value is None:
                value = self._memo[key] = self._evaluate_scalar(x)
            return value
        xs = np.asarray(x, dtype=float)
        out = _sum_terms(_plan_of(self), [c for _, c in self.terms], xs)
        return float(out) if xs.ndim == 0 else out

    def cache_points(self, xs: Iterable[float]) -> None:
        """Cache the scalar path's value at each Python float ``x >= 0`` of ``xs``.

        The powers of all the points come from one ``np.power`` call on a
        (points x terms) array, whose row for ``x`` holds the same
        elementwise powers as the scalar path's call on ``x`` alone; the
        rest of the scalar path then runs per point.  So a later
        ``evaluate(x)`` returns, from the cache, the value it would have
        computed.  A point already cached, and one the scalar path does not
        take (a negative or non-float ``x``), is skipped.
        """
        memo = self._memo
        points = [x for x in xs if type(x) is float and x >= 0.0 and ("ev", x) not in memo]
        if not points:
            return
        plan = _plan_of(self)
        base = np.array(points)[:, None]
        if 0.0 in points and self.terms and self.terms[0][0] < 0.0:
            with np.errstate(divide="ignore"):
                rows = np.power(base, plan.exp_array).tolist()
        else:
            rows = np.power(base, plan.exp_array).tolist()
        for x, powers in zip(points, rows):
            memo["ev", x] = self._sum_powers(plan, x, powers)

    def _evaluate_scalar(self, x: float) -> float:
        plan = _plan_of(self)
        if x == 0.0 and self.terms and self.terms[0][0] < 0.0:
            with np.errstate(divide="ignore"):
                powers = np.power(x, plan.exp_array).tolist()
        else:
            powers = np.power(x, plan.exp_array).tolist()
        return self._sum_powers(plan, x, powers)

    def _sum_powers(self, plan: _GradePlan, x: float, powers: list) -> float:
        """The scalar path's value at ``x`` from ``np.power(x, plan.exp_array)`` as a list."""
        for i in plan.squares:
            powers[i] = x * x
        for i in plan.roots:
            powers[i] = math.sqrt(x)
        # same summation order as the array path, starting from +0.0
        out = 0.0
        for (_, c), v in zip(self.terms, powers):
            out = out + c * v
        return out


@memoized("d1")
def lf_derivative(f: AlphaSeries) -> AlphaSeries:
    """Term-wise derivative of order alpha; constants are annihilated.

    The grade-0 case is excluded from the monomial rule (the difference
    quotient of a constant vanishes identically, and at alpha=1 the rule
    would hit the Gamma pole at 0), so constants simply map to the zero
    series.  The Gamma pairs come from the grade plan, so series that share
    their grades share them; the result is cached on ``f``, and a pole is
    raised on every call.
    """
    skip, pairs = _plan_of(f).derivative_pairs()
    out = tuple([(k - 1.0, c * hi / lo) for (k, c), (hi, lo) in zip(f.terms[skip:], pairs)])
    return AlphaSeries(out, f.ctx)


def lf_derivative_n(f: AlphaSeries, n: int) -> AlphaSeries:
    """n-fold application of :func:`lf_derivative`."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    for _ in range(n):
        f = lf_derivative(f)
    return f


@memoized("int")
def lf_integral(f: AlphaSeries, a: float, b: float) -> float:
    """The normalized definite integral of order alpha over ``[a, b]``.

    Equals ``sum_k c_k [G(1+k a)/G(1+(k+1) a)] (b**((k+1)a) - a**((k+1)a))``
    with signed powers, is zero when ``a == b`` and antisymmetric in
    ``(a, b)`` by construction.  The Gamma ratios come from the grade plan;
    the value is cached on ``f`` per ``(a, b)``.
    """
    if a < 0.0 or b < 0.0:
        raise ValueError(f"integration endpoints must be nonnegative, got ({a}, {b})")
    if a == b or not f.terms:
        return 0.0
    ratios = _plan_of(f).integral_ratios()
    pb, pa = alpha_pow_signed(b, f.ctx), alpha_pow_signed(a, f.ctx)
    total = 0.0
    for (k, c), ratio in zip(f.terms, ratios):
        total += c * ratio * (pb ** (k + 1.0) - pa ** (k + 1.0))
    return total

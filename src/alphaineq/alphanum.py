"""Scalar arithmetic on the fractal line and the special functions it needs.

The fractal line of order ``alpha`` consists of values ``a**alpha`` indexed
by an ordinary real base ``a``.  Addition and multiplication act on bases
(``a**alpha + b**alpha = (a+b)**alpha`` and likewise for products), which
makes the base map a field isomorphism.  All arithmetic here is therefore
done exactly on bases; raising to the power ``alpha`` happens only at the
numeric embedding :func:`alpha_pow_signed`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "AlphaContext",
    "AlphaReal",
    "GammaDomainError",
    "MittagLefflerError",
    "alpha_add",
    "alpha_mul",
    "alpha_pow_signed",
    "gamma",
    "mittag_leffler",
]

#: Hard cap on series terms accepted while summing the Mittag-Leffler series.
ML_TERM_CAP = 10_000


class GammaDomainError(ValueError):
    """Gamma evaluated at a nonpositive argument (a pole or off-domain)."""


class MittagLefflerError(ArithmeticError):
    """The Mittag-Leffler series failed to reach the truncation tolerance."""


def memoized(tag: str) -> Callable[[Callable], Callable]:
    """Cache ``fn(obj, *args)`` in ``obj._memo`` under ``(tag, *args)``.

    Arguments are positional only, so one value never sits under two keys;
    ``None`` counts as a miss, and a call that raises stores nothing.
    """

    head = (tag,)

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def cached(obj, *args):
            key = head + args
            value = obj._memo.get(key)
            if value is None:
                value = obj._memo[key] = fn(obj, *args)
            return value

        return cached

    return decorate


@dataclass(frozen=True)
class AlphaContext:
    """Ambient parameters: the order ``alpha`` and the slack tolerance.

    ``slack_tol`` is the signed tolerance used when deciding whether an
    inequality holds (slack >= -slack_tol).

    Values that depend on alpha alone are cached in ``_memo`` for the
    lifetime of the context: the Gamma factors of :meth:`gamma_grade` and
    one grade plan per grade tuple (:func:`alphaineq.series._grade_plan`).
    Nothing keyed by an inequality's parameters is stored here, so the cache
    stays as small as the set of grades in use; it takes no part in
    equality, hashing or repr.
    """

    alpha: float
    slack_tol: float = 1e-9
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (0.0 < self.slack_tol < math.inf):  # NaN fails too
            raise ValueError(f"slack_tol must be positive and finite, got {self.slack_tol}")

    @memoized("G")
    def gamma_grade(self, k: int) -> float:
        """``G(1 + k*alpha)``, cached per ``k``; callers ask for the fixed grades 1, 2 and 3 only."""
        return gamma(1.0 + k * self.alpha)


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


def alpha_pow_signed(u: float, ctx: AlphaContext) -> float:
    """Signed power ``sgn(u) * |u|**alpha``, the numeric embedding of ``u**alpha``.

    The signed (odd) extension is the one consistent with the +/- structure
    of the fractal integers, and is what every formula here uses when a real
    base, possibly negative, is raised to the power ``alpha``.
    """
    if not math.isfinite(u):
        raise ValueError(f"argument must be finite, got {u}")
    if u == 0.0:
        return 0.0
    return math.copysign(abs(u) ** ctx.alpha, u)


def gamma(x: float) -> float:
    """The Gamma function on the positive half line.

    Raises :class:`GammaDomainError` for ``x <= 0`` so that callers see
    poles instead of silently wrong values.
    """
    if x <= 0.0:
        raise GammaDomainError(f"gamma requires a positive argument, got {x}")
    return math.gamma(x)


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

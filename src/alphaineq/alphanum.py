"""The context of order ``alpha`` and the scalar functions the series need.

The fractal line of order ``alpha`` consists of values ``a**alpha`` indexed
by an ordinary real base ``a``.  Addition and multiplication act on bases
(``a**alpha + b**alpha = (a+b)**alpha`` and likewise for products), which
makes the base map a field isomorphism.  The scalars with those field
operations, and the Mittag-Leffler sum, are reference code in
``tests/reference.py``, where the tests check the field axioms; the program
works on real bases and raises them to the power ``alpha`` only at the
numeric embedding :func:`alpha_pow_signed`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "AlphaContext",
    "GammaDomainError",
    "alpha_pow_signed",
    "gamma",
]


class GammaDomainError(ValueError):
    """Gamma evaluated at a nonpositive argument (a pole or off-domain)."""


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

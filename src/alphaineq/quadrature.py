"""Numeric evaluation of the fractal moment functional on ``[0, 1]``.

The term-wise integral assigns to each monomial ``t**(k*alpha)`` the moment
``G(1+k*alpha)/G(1+(k+1)*alpha)``.  That moment sequence is realized exactly
by the positive kernel ``(1-t)**(alpha-1) / G(alpha)`` for *every* real grade
``k >= 0``, which has two consequences this module leans on:

* the functional extends continuously (and monotonically: ``g >= 0`` implies
  ``J[g] >= 0``) to all continuous integrands, and
* Gauss-Jacobi nodes for that kernel make a discrete least-squares fit whose
  residual is orthogonal to the constants, so the returned value converges
  far faster than the fit itself (the fit error only enters through the
  quadrature error on the residual).

Integrands outside the monomial span are projected onto the basis
``{t**(k*alpha) : k = 0..n}`` by weighted least squares and integrated via
the exact moments.  The basis is severely ill-conditioned, so the solve runs
through an orthogonalizing SVD with a relative spectral cutoff; an explicit
Tikhonov ridge at any useful strength would bias the moments past their
exactness requirement, so truncation is used instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import roots_jacobi

from .alphanum import AlphaContext
from .series import AlphaSeries

__all__ = [
    "MomentFunctional",
    "QuadratureError",
    "alpha_binomial_series",
    "composed_moment",
    "fractal_integral_numeric",
]

#: Relative singular-value cutoff used by the least-squares solve.
CUTOFF_REL = 1e-12

#: Largest max_grade accepted; beyond this the basis is numerically rank
#: deficient in double precision and results stop improving.
GRADE_CAP = 12


class QuadratureError(RuntimeError):
    """The Muntz-basis fit could not produce a usable projection."""


@dataclass(frozen=True)
class MomentFunctional:
    """The normalized fractal integral on ``[0, 1]`` with its fitting grid.

    ``max_grade`` is the largest integer grade in the projection basis and
    ``nodes`` the number of Gauss-Jacobi points (defaults to four per basis
    function).  Construction precomputes nodes, weights and the whitened
    design matrix; evaluation is pure, so instances are safe to share.
    """

    ctx: AlphaContext
    max_grade: int = 10
    nodes: int = 0
    _grid: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_grade < 1:
            raise ValueError(f"max_grade must be >= 1, got {self.max_grade}")
        if self.max_grade > GRADE_CAP:
            raise QuadratureError(
                f"max_grade {self.max_grade} exceeds the double-precision cap "
                f"{GRADE_CAP}; use a smaller basis"
            )
        if self.nodes == 0:
            object.__setattr__(self, "nodes", 4 * self.max_grade)
        if self.nodes < 2 * self.max_grade:
            raise ValueError(
                f"nodes must be at least 2*max_grade, got {self.nodes} for "
                f"max_grade {self.max_grade}"
            )
        a = self.ctx.alpha
        x, w = roots_jacobi(self.nodes, a - 1.0, 0.0)
        t = (x + 1.0) / 2.0
        w = w / (2.0**a * math.gamma(a))
        design = np.stack([t ** (k * a) for k in range(self.max_grade + 1)], axis=1)
        sqrt_w = np.sqrt(w)
        mus = np.array([self.moment(k) for k in range(self.max_grade + 1)])
        object.__setattr__(self, "_grid", (t, sqrt_w, design, mus))

    def moment(self, k: float) -> float:
        """Exact moment ``J[t**(k*alpha)]`` for a real grade ``k >= 0``."""
        if k < 0.0:
            raise ValueError(f"moments need grade >= 0, got {k}")
        a = self.ctx.alpha
        return math.gamma(1.0 + k * a) / math.gamma(1.0 + (k + 1.0) * a)

    @property
    def grid(self) -> np.ndarray:
        return self._grid[0]

    def fit(self, values: np.ndarray) -> tuple[np.ndarray, float]:
        """Least-squares coefficients for samples on the grid, plus max residual."""
        t, sqrt_w, design, _ = self._grid
        y = np.asarray(values, dtype=float)
        if y.shape != t.shape:
            raise ValueError(f"expected {t.shape[0]} samples, got {y.shape}")
        if not np.all(np.isfinite(y)):
            raise QuadratureError("integrand produced non-finite values on the grid")
        coeffs, *_ = np.linalg.lstsq(design * sqrt_w[:, None], y * sqrt_w, rcond=CUTOFF_REL)
        if not np.all(np.isfinite(coeffs)):
            raise QuadratureError(
                "fit did not converge; the basis is too ill-conditioned, use a "
                "smaller max_grade"
            )
        residual = float(np.max(np.abs(design @ coeffs - y)))
        return coeffs, residual


def _sample(g: Callable[[np.ndarray], np.ndarray], t: np.ndarray) -> np.ndarray:
    try:
        y = np.asarray(g(t), dtype=float)
        if y.shape == t.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.array([float(g(ti)) for ti in t])


def fractal_integral_numeric(
    g: Callable[[np.ndarray], np.ndarray], functional: MomentFunctional
) -> tuple[float, float]:
    """Fractal integral of a pointwise integrand, with its fit residual.

    Fits ``g`` on the Gauss-Jacobi grid by weighted least squares in the
    basis ``{t**(k*alpha)}`` and returns ``sum_k c_k * moment(k)`` together
    with the max-norm fit residual as the error indicator.
    """
    t = functional.grid
    coeffs, residual = functional.fit(_sample(g, t))
    value = float(coeffs @ functional._grid[3])
    return value, residual


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


def _sign_constant(series: AlphaSeries) -> float | None:
    """Return +/-1 when the series provably keeps one sign on x >= 0, else None."""
    signs = {math.copysign(1.0, c) for _, c in series.terms}
    if len(signs) == 1:
        return signs.pop()
    return None


def composed_moment(
    f2: AlphaSeries,
    weight_grade: float,
    x: float,
    e: float,
    functional: MomentFunctional,
    absolute: bool = False,
) -> float:
    """Moment of ``t**(w*alpha) * phi(f2(t*x + (1-t)*e))`` over ``[0, 1]``.

    ``phi`` is the identity, or the absolute value when ``absolute`` is set.
    The known weight ``t**(w*alpha)`` is folded into the moments rather than
    the fit (real-grade moments are exact), which keeps the fit target
    smooth.  Three argument shapes admit exact evaluation and bypass the fit
    entirely: a constant argument (``x == e``), a pure scaling (``e == 0``),
    and a reflected scaling (``x == 0``, via Beta moments of ``(1-t)``
    powers).
    """
    if weight_grade < 0.0:
        raise ValueError(f"weight_grade must be nonnegative, got {weight_grade}")
    if x < 0.0 or e < 0.0:
        raise ValueError(f"segment endpoints must be nonnegative, got ({x}, {e})")
    if f2.is_zero:
        return 0.0
    a = f2.ctx.alpha

    def phi(v: float) -> float:
        return abs(v) if absolute else v

    if x == e:
        return phi(f2.evaluate(x)) * functional.moment(weight_grade)

    # a term-wise sum is exact unless |.| must act on a sum of mixed signs
    termwise = not absolute or _sign_constant(f2) is not None
    if e == 0.0:
        # argument t*x: each term is an exact real-grade moment
        if len(f2.terms) == 1:
            k, c = f2.terms[0]
            return phi(c * x ** (k * a)) * functional.moment(weight_grade + k)
        if termwise:
            total = sum(c * x ** (k * a) * functional.moment(weight_grade + k) for k, c in f2.terms)
            return phi(total)
    if x == 0.0:
        # argument e*(1-t): Beta moments of t**(w*a) * (1-t)**(k*a)
        ga = math.gamma(a)

        def beta_moment(k: float) -> float:
            p = weight_grade * a + 1.0
            q = (k + 1.0) * a
            return math.gamma(p) * math.gamma(q) / math.gamma(p + q) / ga

        if len(f2.terms) == 1:
            k, c = f2.terms[0]
            return phi(c * e ** (k * a)) * beta_moment(k)
        if termwise:
            total = sum(c * e ** (k * a) * beta_moment(k) for k, c in f2.terms)
            return phi(total)

    t = functional.grid
    y = f2.evaluate(e + t * (x - e))
    coeffs, _ = functional.fit(np.abs(y) if absolute else y)
    moments = np.array(
        [functional.moment(k + weight_grade) for k in range(functional.max_grade + 1)]
    )
    return float(coeffs @ moments)

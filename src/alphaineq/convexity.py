"""Grid-based certification and falsification of generalized convexity.

Certification here means "no violation found on a deterministic lattice",
which is the honest strength a numerical harness can offer; falsification
returns a concrete witness whose gap can be re-checked independently.
A candidate must map an array to an array of the same shape.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .alphanum import AlphaContext
from .quadrature import _sample

__all__ = [
    "ConvexityVerdict",
    "NegativeValuesWarning",
    "check_generalized_convex",
    "check_s_convex_second",
]


class NegativeValuesWarning(UserWarning):
    """The candidate takes negative values; the s-convex class may require f >= 0."""


@dataclass(frozen=True)
class ConvexityVerdict:
    """Outcome of a lattice check.

    ``witness`` is present exactly when ``holds_on_grid`` is false and holds
    the maximal violation found as ``(x1, x2, lam, gap)`` with
    ``gap > slack_tol``, or the first point whose gap is not finite: a
    NaN or infinite gap can never certify the inequality.
    """

    holds_on_grid: bool
    witness: Optional[tuple[float, float, float, float]] = None

    def __post_init__(self) -> None:
        if self.holds_on_grid != (self.witness is None):
            raise ValueError("witness must be present iff the check failed")


def _lattice_check(
    f: Callable,
    e: float,
    lo: float,
    hi: float,
    grid: int,
    ctx: AlphaContext,
) -> ConvexityVerdict:
    """Check ``f(l*x1 + (1-l)*x2) <= l**e f(x1) + (1-l)**e f(x2)`` on a lattice."""
    if not (0.0 <= lo < hi):
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    if grid < 3:
        raise ValueError(f"grid must be >= 3, got {grid}")
    xs = np.linspace(lo, hi, grid)
    lams = np.linspace(0.0, 1.0, grid)
    fx = _sample(f, xs)
    x1, x2, lam = np.meshgrid(xs, xs, lams, indexing="ij")
    mix = lam * x1 + (1.0 - lam) * x2
    gap = _sample(f, mix) - (lam**e * fx[:, None, None] + (1.0 - lam) ** e * fx[None, :, None])
    # a non-finite gap never certifies: the witness is the first one, else the largest gap
    nonfinite = ~np.isfinite(gap)
    i = np.unravel_index(int(np.argmax(nonfinite if nonfinite.any() else gap)), gap.shape)
    witness = (float(x1[i]), float(x2[i]), float(lam[i]), float(gap[i]))
    if nonfinite.any() or witness[3] > ctx.slack_tol:
        return ConvexityVerdict(holds_on_grid=False, witness=witness)
    return ConvexityVerdict(holds_on_grid=True)


def check_generalized_convex(
    f: Callable,
    lo: float,
    hi: float,
    grid: int,
    ctx: AlphaContext,
) -> ConvexityVerdict:
    """Check ``f(l*x1 + (1-l)*x2) <= l**a f(x1) + (1-l)**a f(x2)`` on a lattice."""
    return _lattice_check(f, ctx.alpha, lo, hi, grid, ctx)


def check_s_convex_second(
    f: Callable,
    s: float,
    lo: float,
    hi: float,
    grid: int,
    ctx: AlphaContext,
) -> ConvexityVerdict:
    """Check second-sense s-convexity with weights ``t**(s*a)``, ``(1-t)**(s*a)``.

    Whether the class requires ``f >= 0`` is unsettled; the check warns when
    negative values show up rather than rejecting the candidate.
    """
    if not (0.0 < s <= 1.0):
        raise ValueError(f"s must lie in (0, 1], got {s}")
    probe = _sample(f, np.linspace(lo, hi, min(grid, 65)))
    if np.any(probe < 0.0):
        warnings.warn(
            "candidate takes negative values on the grid; the s-convex class "
            "may assume nonnegativity",
            NegativeValuesWarning,
            stacklevel=2,
        )
    return _lattice_check(f, s * ctx.alpha, lo, hi, grid, ctx)

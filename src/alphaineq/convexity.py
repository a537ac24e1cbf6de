"""Grid-based certification and falsification of generalized convexity.

Certification here means "no violation found on a deterministic lattice",
which is the honest strength a numerical harness can offer; falsification
returns a concrete witness whose gap can be re-checked independently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .alphanum import AlphaContext

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


def _as_array_fn(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    def wrapped(x: np.ndarray) -> np.ndarray:
        try:
            y = np.asarray(f(x), dtype=float)
            if y.shape == x.shape:
                return y
        except (TypeError, ValueError):
            pass
        return np.array([float(f(v)) for v in x.ravel()]).reshape(x.shape)

    return wrapped


def _first_nonfinite(
    gap: np.ndarray, x1: np.ndarray, x2: np.ndarray, lam: np.ndarray
) -> Optional[ConvexityVerdict]:
    """A failed verdict at the first non-finite gap, or None if all are finite."""
    nonfinite = ~np.isfinite(gap)
    if not nonfinite.any():
        return None
    i = np.unravel_index(int(np.argmax(nonfinite)), gap.shape)
    return ConvexityVerdict(
        holds_on_grid=False,
        witness=(float(x1[i]), float(x2[i]), float(lam[i]), float(gap[i])),
    )


def _lattice_check(
    f: Callable,
    e: float,
    lo: float,
    hi: float,
    grid: int,
    ctx: AlphaContext,
    refine: int,
    seed: int,
) -> ConvexityVerdict:
    """Check ``f(l*x1 + (1-l)*x2) <= l**e f(x1) + (1-l)**e f(x2)`` on a lattice."""
    if not (0.0 <= lo < hi):
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    if grid < 3:
        raise ValueError(f"grid must be >= 3, got {grid}")
    fn = _as_array_fn(f)
    xs = np.linspace(lo, hi, grid)
    lams = np.linspace(0.0, 1.0, grid)
    fx = fn(xs)
    x1, x2, lam = np.meshgrid(xs, xs, lams, indexing="ij")
    mix = lam * x1 + (1.0 - lam) * x2
    gap = fn(mix) - (lam**e * fx[:, None, None] + (1.0 - lam) ** e * fx[None, :, None])
    bad = _first_nonfinite(gap, x1, x2, lam)
    if bad is not None:
        return bad

    worst = np.unravel_index(int(np.argmax(gap)), gap.shape)
    best = (float(x1[worst]), float(x2[worst]), float(lam[worst]), float(gap[worst]))

    if refine > 0:
        # seeded random probes in the lattice cell around the worst point
        rng = np.random.default_rng(seed)
        dx = (hi - lo) / (grid - 1)
        dl = 1.0 / (grid - 1)
        rx1 = np.clip(best[0] + dx * rng.uniform(-1, 1, refine), lo, hi)
        rx2 = np.clip(best[1] + dx * rng.uniform(-1, 1, refine), lo, hi)
        rl = np.clip(best[2] + dl * rng.uniform(-1, 1, refine), 0.0, 1.0)
        rgap = fn(rl * rx1 + (1 - rl) * rx2) - (rl**e * fn(rx1) + (1.0 - rl) ** e * fn(rx2))
        bad = _first_nonfinite(rgap, rx1, rx2, rl)
        if bad is not None:
            return bad
        j = int(np.argmax(rgap))
        if rgap[j] > best[3]:
            best = (float(rx1[j]), float(rx2[j]), float(rl[j]), float(rgap[j]))

    if best[3] > ctx.slack_tol:
        return ConvexityVerdict(holds_on_grid=False, witness=best)
    return ConvexityVerdict(holds_on_grid=True)


def check_generalized_convex(
    f: Callable,
    lo: float,
    hi: float,
    grid: int,
    ctx: AlphaContext,
    refine: int = 0,
    seed: int = 0,
) -> ConvexityVerdict:
    """Check ``f(l*x1 + (1-l)*x2) <= l**a f(x1) + (1-l)**a f(x2)`` on a lattice."""
    return _lattice_check(f, ctx.alpha, lo, hi, grid, ctx, refine, seed)


def check_s_convex_second(
    f: Callable,
    s: float,
    lo: float,
    hi: float,
    grid: int,
    ctx: AlphaContext,
    refine: int = 0,
    seed: int = 0,
) -> ConvexityVerdict:
    """Check second-sense s-convexity with weights ``t**(s*a)``, ``(1-t)**(s*a)``.

    Whether the class requires ``f >= 0`` is unsettled; the check warns when
    negative values show up rather than rejecting the candidate.
    """
    if not (0.0 < s <= 1.0):
        raise ValueError(f"s must lie in (0, 1], got {s}")
    fn = _as_array_fn(f)
    probe = fn(np.linspace(lo, hi, min(grid, 65)))
    if np.any(probe < 0.0):
        warnings.warn(
            "candidate takes negative values on the grid; the s-convex class "
            "may assume nonnegativity",
            NegativeValuesWarning,
            stacklevel=2,
        )
    return _lattice_check(f, s * ctx.alpha, lo, hi, grid, ctx, refine, seed)

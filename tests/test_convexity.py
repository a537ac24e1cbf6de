import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from alphaineq.alphanum import AlphaContext
from alphaineq.convexity import (
    ConvexityVerdict,
    NegativeValuesWarning,
    check_generalized_convex,
    check_s_convex_second,
)
from alphaineq.harness import parse_function_spec
from reference import mittag_leffler


def test_verdict_invariant():
    ConvexityVerdict(True)
    ConvexityVerdict(False, witness=(0.0, 1.0, 0.5, 0.25))
    with pytest.raises(ValueError):
        ConvexityVerdict(True, witness=(0.0, 1.0, 0.5, 0.25))
    with pytest.raises(ValueError):
        ConvexityVerdict(False)


def test_alpha_power_monomial_is_generalized_convex():
    # f(x) = x^{a p} with p = 2
    ctx = AlphaContext(0.5)
    f = lambda x: x ** (ctx.alpha * 2)
    assert check_generalized_convex(f, 0.0, 2.0, 24, ctx).holds_on_grid


def test_truncated_mittag_leffler_is_generalized_convex():
    ctx = AlphaContext(0.5)
    f = parse_function_spec("ml:40").realize(ctx)
    assert check_generalized_convex(f.evaluate, 0.0, 2.0, 24, ctx).holds_on_grid


def test_concave_candidate_yields_genuine_witness():
    ctx = AlphaContext(1.0)
    f = lambda x: -(x**2)
    verdict = check_generalized_convex(f, 0.0, 1.0, 17, ctx)
    assert not verdict.holds_on_grid
    x1, x2, lam, gap = verdict.witness
    assert gap == pytest.approx(0.25, abs=0.02)  # midpoint violation of -x^2
    # the witness reproduces its gap when re-evaluated directly
    direct = f(lam * x1 + (1 - lam) * x2) - (lam**ctx.alpha * f(x1) + (1 - lam) ** ctx.alpha * f(x2))
    assert direct == pytest.approx(gap, rel=1e-12)
    assert direct > ctx.slack_tol


@pytest.mark.filterwarnings("ignore::alphaineq.convexity.NegativeValuesWarning")
@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (lambda x: x**2, 0.0, 2.0),
        (lambda x: -(x**2), 0.0, 1.0),
        (lambda x: np.abs(x - 0.7), 0.0, 2.0),
    ],
)
def test_s_equal_one_matches_generalized(f, lo, hi):
    ctx = AlphaContext(0.7)
    with np.errstate(all="ignore"):
        a = check_s_convex_second(f, 1.0, lo, hi, 16, ctx)
        b = check_generalized_convex(f, lo, hi, 16, ctx)
    assert a.holds_on_grid == b.holds_on_grid


def test_nonnegative_scaling_preserves_verdict():
    ctx = AlphaContext(0.5)
    f = lambda x: x ** (ctx.alpha * 3)
    assert check_s_convex_second(f, 0.5, 0.0, 1.0, 16, ctx).holds_on_grid
    assert check_s_convex_second(lambda x: 7.5 * f(x), 0.5, 0.0, 1.0, 16, ctx).holds_on_grid


def test_fractional_monomial_s_convex():
    ctx = AlphaContext(0.5)
    f = lambda x: x ** (0.5 * ctx.alpha)
    assert check_s_convex_second(f, 0.5, 0.0, 1.0, 64, ctx).holds_on_grid


def test_constant_one_is_s_convex():
    # oracle: min over t of t^{s a} + (1-t)^{s a} is >= 1 for s <= 1
    ctx = AlphaContext(0.5)
    s = 0.5
    sa = s * ctx.alpha
    res = minimize_scalar(lambda t: t**sa + (1 - t) ** sa, bounds=(0.0, 1.0), method="bounded")
    assert res.fun >= 1.0 - 1e-9
    assert check_s_convex_second(lambda x: np.ones_like(np.asarray(x, dtype=float)), s, 0.0, 1.0, 16, ctx).holds_on_grid


def test_negative_values_warn():
    ctx = AlphaContext(0.5)
    with pytest.warns(NegativeValuesWarning):
        check_s_convex_second(lambda x: x - 0.5, 0.5, 0.0, 1.0, 8, ctx)


def test_nan_candidate_never_certifies():
    ctx = AlphaContext(0.5)
    verdict = check_s_convex_second(lambda u: u * np.nan, 0.5, 0.0, 1.0, 8, ctx)
    assert not verdict.holds_on_grid
    assert np.isnan(verdict.witness[3])


def test_single_nan_lattice_point_fails_at_the_first_nan():
    ctx = AlphaContext(1.0)

    def f(u):
        u = np.asarray(u, dtype=float)
        return np.where(u == 0.375, np.nan, u**2)

    verdict = check_s_convex_second(f, 1.0, 0.0, 1.0, 9, ctx)
    assert not verdict.holds_on_grid
    x1, x2, lam, gap = verdict.witness
    assert (x1, x2, lam) == (0.0, 0.375, 0.0)
    assert np.isnan(gap)


def test_validation():
    ctx = AlphaContext(0.5)
    with pytest.raises(ValueError):
        check_generalized_convex(lambda x: x, 1.0, 0.5, 8, ctx)
    with pytest.raises(ValueError):
        check_generalized_convex(lambda x: x, 0.0, 1.0, 2, ctx)
    with pytest.raises(ValueError):
        check_s_convex_second(lambda x: x, 1.5, 0.0, 1.0, 8, ctx)
    # a candidate must map an array to an array of the same shape
    with pytest.raises(ValueError):
        check_generalized_convex(lambda x: 1.0, 0.0, 1.0, 8, ctx)
    with pytest.raises(ValueError):
        check_s_convex_second(lambda x: float(x) ** 2, 0.5, 0.0, 1.0, 8, ctx)


def test_mittag_leffler_series_tracks_function():
    # the ml: family realization agrees with the scalar series summation
    ctx = AlphaContext(0.5)
    f = parse_function_spec("ml:60").realize(ctx)
    for x in (0.0, 0.5, 1.0, 2.0):
        assert f.evaluate(x) == pytest.approx(mittag_leffler(x, ctx, 1e-15), rel=1e-10)

import math

import numpy as np
import pytest
from scipy.integrate import quad

from alphaineq.alphanum import AlphaContext
from alphaineq.quadrature import (
    MomentFunctional,
    QuadratureError,
    alpha_binomial_series,
    composed_moment,
    fractal_integral_numeric,
)
from alphaineq.series import AlphaSeries, series_mul

ALPHAS = (0.3, 0.5, 0.8, 1.0)
S_VALUES = (0.25, 0.5, 0.75)


def moment_closed(k, a):
    return math.gamma(1 + k * a) / math.gamma(1 + (k + 1) * a)


def kernel_integral(g, a):
    """Independent oracle: the kernel (1-t)^(a-1)/Gamma(a) realizes the moments."""
    val, _ = quad(lambda t: g(t) * (1 - t) ** (a - 1), 0, 1, points=[1.0])
    return val / math.gamma(a)


def n_closed(s, a):
    return (
        math.gamma(1 + s * a) / math.gamma(1 + (s + 1) * a)
        - 2**a * math.gamma(1 + (s + 1) * a) / math.gamma(1 + (s + 2) * a)
        + math.gamma(1 + (s + 2) * a) / math.gamma(1 + (s + 3) * a)
    )


class TestMoments:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_basis_exactness(self, alpha):
        functional = MomentFunctional(AlphaContext(alpha))
        for k in range(functional.max_grade + 1):
            value, resid = fractal_integral_numeric(lambda t, k=k: t ** (k * alpha), functional)
            closed = functional.moment(k)
            assert abs(value - closed) / closed <= 1e-10
            assert resid <= 1e-10

    def test_constant_at_alpha_one(self):
        functional = MomentFunctional(AlphaContext(1.0))
        value, _ = fractal_integral_numeric(lambda t: np.ones_like(t), functional)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_real_grade_moment_matches_kernel(self):
        functional = MomentFunctional(AlphaContext(0.5))
        assert functional.moment(2.5) == pytest.approx(
            kernel_integral(lambda t: t**1.25, 0.5), rel=1e-9
        )

    def test_moment_rejects_negative_grade(self):
        functional = MomentFunctional(AlphaContext(0.5))
        with pytest.raises(ValueError):
            functional.moment(-0.5)


class TestConstruction:
    def test_grade_cap(self):
        with pytest.raises(QuadratureError, match="smaller"):
            MomentFunctional(AlphaContext(0.5), max_grade=13)

    def test_node_floor(self):
        with pytest.raises(ValueError):
            MomentFunctional(AlphaContext(0.5), max_grade=10, nodes=19)

    def test_default_nodes(self):
        assert MomentFunctional(AlphaContext(0.5), max_grade=8).nodes == 32

    def test_non_finite_integrand(self):
        functional = MomentFunctional(AlphaContext(0.5))
        with pytest.raises(QuadratureError, match="non-finite"):
            fractal_integral_numeric(lambda t: np.where(t > 0.5, np.inf, 1.0), functional)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("s", S_VALUES)
def test_pure_power_weight_moment(alpha, s):
    """t^{2a} * t^{s a} is the single monomial of grade s+2."""
    functional = MomentFunctional(AlphaContext(alpha))
    value, _ = fractal_integral_numeric(lambda t: t ** ((s + 2) * alpha), functional)
    closed = moment_closed(s + 2, alpha)
    assert abs(value - closed) / closed <= 1e-8


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("s", S_VALUES)
def test_mixed_weight_moment_in_normal_form(alpha, s):
    """The t^{2a}(1-t)^{s a} moment, integrated through its algebra normal form.

    The closed form for that moment is derived by reflecting the integrand
    and expanding (1-t)^{2a} inside the fractal field, so the function the
    calculus actually integrates is the three-term series below; the numeric
    functional must recover the closed form from pointwise samples of it.
    """
    ctx = AlphaContext(alpha)
    h = series_mul(AlphaSeries.monomial(s, ctx), alpha_binomial_series(2, ctx))
    functional = MomentFunctional(ctx, max_grade=12, nodes=384)
    value, _ = fractal_integral_numeric(h.evaluate, functional)
    assert value == pytest.approx(n_closed(s, alpha), abs=1e-6)


def test_mixed_weight_moment_pointwise_reading_disagrees_below_alpha_one():
    """Pointwise t^{2a}(1-t)^{s a} integrates to the kernel value, not the
    closed form: the reflection step is not an invariance of the term-wise
    functional.  The gap is a consistency finding, frozen here so it stays
    visible."""
    s, alpha = 0.5, 0.5
    g = lambda t: t ** (2 * alpha) * (1 - t) ** (s * alpha)
    functional = MomentFunctional(AlphaContext(alpha), max_grade=12, nodes=384)
    value, _ = fractal_integral_numeric(g, functional)
    assert value == pytest.approx(kernel_integral(g, alpha), abs=1e-3)
    assert abs(value - n_closed(s, alpha)) > 0.01


def test_mixed_weight_moment_readings_agree_at_alpha_one():
    s, alpha = 0.5, 1.0
    g = lambda t: t**2 * (1 - t) ** (s * alpha)
    functional = MomentFunctional(AlphaContext(alpha), max_grade=12, nodes=384)
    value, _ = fractal_integral_numeric(g, functional)
    assert value == pytest.approx(n_closed(s, alpha), abs=1e-6)


@pytest.mark.parametrize(
    "g, name",
    [(np.exp, "exp"), (lambda t: 1.0 / (1.0 + t * t), "rational"), (np.cos, "cos")],
)
def test_classical_reduction_at_alpha_one(g, name):
    functional = MomentFunctional(AlphaContext(1.0))
    value, _ = fractal_integral_numeric(g, functional)
    oracle, _ = quad(g, 0, 1)
    assert value == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("alpha", (0.3, 0.5, 0.8))
@pytest.mark.parametrize("s", S_VALUES)
def test_fit_residual_non_increasing_in_basis_size(alpha, s):
    ctx = AlphaContext(alpha)
    g = lambda t: (1 - t) ** (s * alpha)
    residuals = []
    for n in range(4, 11):
        functional = MomentFunctional(ctx, max_grade=n, nodes=40)
        _, resid = fractal_integral_numeric(g, functional)
        residuals.append(resid)
    assert all(b <= a + 1e-15 for a, b in zip(residuals, residuals[1:]))


def test_monotone_on_nonnegative_integrands():
    """Empirical positivity: nonnegative fits have nonnegative integrals."""
    rng = np.random.default_rng(99)
    checked = 0
    for alpha in ALPHAS:
        functional = MomentFunctional(AlphaContext(alpha))
        for _ in range(25):
            grades = rng.uniform(0.0, 6.0, size=4)
            coeffs = rng.uniform(0.0, 3.0, size=4)
            g = lambda t: sum(c * t ** (k * alpha) for k, c in zip(grades, coeffs))
            value, _ = fractal_integral_numeric(g, functional)
            assert value >= -1e-12
            checked += 1
    print(f"positivity checked on {checked} nonnegative integrands")


class TestComposedMoment:
    def test_constant_series_reduces_to_weight_moment(self):
        ctx = AlphaContext(0.5)
        functional = MomentFunctional(ctx)
        c = 1.7
        f2 = AlphaSeries.constant(c, ctx)
        got = composed_moment(f2, 2.0, 0.8, 0.2, functional, absolute=True)
        assert got == pytest.approx(c * moment_closed(2, 0.5), rel=1e-12)

    def test_zero_series(self):
        ctx = AlphaContext(0.5)
        functional = MomentFunctional(ctx)
        assert composed_moment(AlphaSeries.zero(ctx), 2.0, 1.0, 0.0, functional) == 0.0

    def test_classical_scaling_case(self):
        # integrand t^2 * 6 * (t/2): elementary integral 3/4
        ctx = AlphaContext(1.0)
        functional = MomentFunctional(ctx)
        f2 = AlphaSeries.monomial(1.0, ctx, 6.0)
        got = composed_moment(f2, 2.0, 0.5, 0.0, functional, absolute=True)
        assert got == pytest.approx(0.75, rel=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_generic_segment_matches_kernel_oracle(self, alpha):
        ctx = AlphaContext(alpha)
        functional = MomentFunctional(ctx)
        f2 = AlphaSeries(((0.5, 1.0), (2.0, -0.4)), ctx)
        x, e = 0.3, 1.6
        got = composed_moment(f2, 2.0, x, e, functional)
        oracle = kernel_integral(
            lambda t: t ** (2 * alpha) * f2.evaluate(e + t * (x - e)), alpha
        )
        assert got == pytest.approx(oracle, abs=5e-9)

    def test_reflected_scaling_case(self):
        # x == 0 goes through exact Beta moments
        ctx = AlphaContext(0.5)
        functional = MomentFunctional(ctx)
        f2 = AlphaSeries(((1.0, 2.0), (3.0, 0.5)), ctx)
        got = composed_moment(f2, 2.0, 0.0, 1.0, functional)
        oracle = kernel_integral(lambda t: t * f2.evaluate(1.0 - t), 0.5)
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_validation(self):
        ctx = AlphaContext(0.5)
        functional = MomentFunctional(ctx)
        f2 = AlphaSeries.monomial(1.0, ctx)
        with pytest.raises(ValueError):
            composed_moment(f2, -1.0, 1.0, 0.0, functional)
        with pytest.raises(ValueError):
            composed_moment(f2, 2.0, -1.0, 0.0, functional)


def test_binomial_series_values():
    ctx = AlphaContext(0.5)
    h = alpha_binomial_series(2, ctx)
    assert h.terms == ((0.0, 1.0), (1.0, pytest.approx(-(2**0.5))), (2.0, 1.0))
    with pytest.raises(ValueError):
        alpha_binomial_series(-1, ctx)
    # at alpha = 1 the expansion is the ordinary binomial, pointwise exact
    h1 = alpha_binomial_series(2, AlphaContext(1.0))
    for t in np.linspace(0, 1, 7):
        assert h1.evaluate(float(t)) == pytest.approx((1 - t) ** 2, abs=1e-14)

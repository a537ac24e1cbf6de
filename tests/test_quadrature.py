import math
import struct

import numpy as np
import pytest
from scipy.integrate import quad

from alphaineq import quadrature
from alphaineq.alphanum import AlphaContext
from alphaineq.quadrature import (
    CUTOFF_REL,
    MomentFunctional,
    QuadratureError,
    _gauss_jacobi,
    composed_moment,
    fractal_integral_numeric,
)
from alphaineq.series import AlphaSeries
from reference import alpha_binomial_series, series_constant, series_mul, series_zero

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
            g = lambda t, k=k: t ** (k * alpha)
            value = fractal_integral_numeric(g, functional)
            _, resid = functional.fit(g(functional.grid))
            closed = functional.moment(k)
            assert abs(value - closed) / closed <= 1e-10
            assert resid <= 1e-10

    def test_constant_at_alpha_one(self):
        functional = MomentFunctional(AlphaContext(1.0))
        value = fractal_integral_numeric(lambda t: np.ones_like(t), functional)
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

    @pytest.mark.parametrize(
        "g", [lambda t: 1.0, lambda t: math.exp(t), lambda t: t[:-1]], ids=["scalar", "math", "shape"]
    )
    def test_integrand_must_map_an_array_to_the_same_shape(self, g):
        with pytest.raises(ValueError, match="same shape|an array"):
            fractal_integral_numeric(g, MomentFunctional(AlphaContext(0.5)))


def _bits(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


class TestSharedRules:
    """Every functional of one (alpha, nodes, max_grade) reads one rule and one set of weights."""

    WEIGHT_GRADES = (0.0, 2.0, 0.75)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_equal_keys_share_the_rule_and_the_weights(self, alpha):
        one = MomentFunctional(AlphaContext(alpha))
        other = MomentFunctional(AlphaContext(alpha, slack_tol=1e-6), max_grade=10, nodes=40)
        assert one is not other and one._memo is other._memo
        assert one._rule() is other._rule() and one.grid is other.grid
        for w in self.WEIGHT_GRADES:
            assert one.weights(w) is other.weights(w)

    def test_other_keys_get_their_own_rule(self):
        base = MomentFunctional(AlphaContext(0.5))
        others = [
            MomentFunctional(AlphaContext(0.5), nodes=44),
            MomentFunctional(AlphaContext(0.5), max_grade=9, nodes=40),
            MomentFunctional(AlphaContext(0.5), max_grade=9),
            MomentFunctional(AlphaContext(0.3)),
        ]
        rules = [base._rule()] + [f._rule() for f in others]
        assert len({id(r) for r in rules}) == len(rules)
        assert len({id(f._memo) for f in [base] + others}) == len(rules)
        assert [f.grid.size for f in others] == [44, 40, 36, 40]
        assert not np.array_equal(base.weights(0.0), others[1].weights(0.0))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_every_shared_array_is_read_only(self, alpha):
        functional = MomentFunctional(AlphaContext(alpha))
        arrays = list(functional._rule()) + [functional.weights(w) for w in self.WEIGHT_GRADES]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            functional.grid += 1.0

    @pytest.mark.parametrize("alpha", ALPHAS + (0.05,))
    @pytest.mark.parametrize("max_grade, nodes", [(10, 0), (6, 30), (12, 0)])
    def test_shared_values_are_those_of_a_rule_built_alone(self, monkeypatch, alpha, max_grade, nodes):
        shared = MomentFunctional(AlphaContext(alpha), max_grade, nodes)
        shared_values = _bits(shared._rule()) + _bits(shared.weights(w) for w in self.WEIGHT_GRADES)
        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "_RULES", {})
            alone = MomentFunctional(AlphaContext(alpha), max_grade, nodes)
            assert alone._memo is not shared._memo
            alone_values = _bits(alone._rule()) + _bits(alone.weights(w) for w in self.WEIGHT_GRADES)
        assert shared_values == alone_values

    def test_an_int_alpha_shares_the_bits_of_its_float(self, monkeypatch):
        # 1 and 1.0 are one key, so whichever builds the rule first, it must build the same bits
        monkeypatch.setattr(quadrature, "_RULES", {})
        by_int = MomentFunctional(AlphaContext(1))
        int_values = _bits(by_int._rule()) + _bits(by_int.weights(w) for w in self.WEIGHT_GRADES)
        monkeypatch.setattr(quadrature, "_RULES", {})
        by_float = MomentFunctional(AlphaContext(1.0))
        assert int_values == _bits(by_float._rule()) + _bits(by_float.weights(w) for w in self.WEIGHT_GRADES)

    def test_a_failed_build_stores_nothing_and_a_later_one_succeeds(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_RULES", {})
        functional = MomentFunctional(AlphaContext(0.5))
        with monkeypatch.context() as patch:
            patch.setattr(MomentFunctional, "moment", lambda self, k: math.inf)
            with pytest.raises(QuadratureError, match="not finite"):
                MomentFunctional(AlphaContext(0.5)).weights(0.0)
        assert ("weights", 0.0) not in functional._memo
        assert np.all(np.isfinite(functional.weights(0.0)))


def fit_reference(functional, y, weight_grade=0.0):
    """The per-call least-squares value that the cached weights replace."""
    coeffs, _ = functional.fit(y)
    grades = np.arange(functional.max_grade + 1) + weight_grade
    return float(coeffs @ np.array([functional.moment(k) for k in grades]))


#: Unit roundoff of IEEE double precision.
UNIT_ROUNDOFF = 2.0**-53


def projection_oracle(functional, y, weight_grade=0.0):
    """The least-squares projection that both paths compute, in 60 digits, and their rounding bound.

    The projection is ``v = mu @ c`` for the coefficients ``c`` that
    minimize ``|D (A c - y)|``, with ``D`` the square roots of the
    Gauss-Jacobi weights, ``A`` the design matrix and ``mu`` the moments of
    grade ``k + w``.  ``D``, ``A`` and ``y`` are taken as the doubles the
    program holds; ``mu`` is recomputed in 60 digits.  No singular value of
    ``D A`` falls below the SVD cutoff, so the truncated solve is this full
    rank one.

    The bound is the first-order perturbation of ``v`` under the backward
    error of a least-squares solve, ``|E| <= g u |D A|`` (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., ch. 20).  With ``z``
    the minimum-norm solution of ``(D A)^T z = mu`` and ``r = D y - D A c``,
    ``dv = z^T E c - ((D A)^+ z)^T E^T r``, so ``|dv| <= g u (s_max |z| |c|
    + kappa |z| |r|)``, where ``kappa`` is the condition number of ``D A``.
    The rounding of the moments and of the two final dot products (the
    moments against ``c``, the weights ``q = D z`` against ``y``) adds
    ``g u`` times their absolute sums.  ``g = sqrt(nodes * basis)`` is the
    square root of the worst-case constant of the backward error, the usual
    size of accumulated rounding (Higham, section 2.8).
    """
    mp = pytest.importorskip("mpmath")
    _, sqrt_w, design = functional._rule()
    m, n = design.shape
    with mp.workdps(60):
        da = mp.matrix((design * sqrt_w[:, None]).tolist())  # each product rounded as the program rounds it
        dy = mp.matrix([mp.mpf(v) for v in (y * sqrt_w).tolist()])
        a = mp.mpf(functional.ctx.alpha)
        mu = mp.matrix([mp.gamma(1 + (k + weight_grade) * a) / mp.gamma(1 + (k + weight_grade + 1) * a)
                        for k in range(n)])
        normal = da.T * da
        c = mp.lu_solve(normal, da.T * dy)
        z = da * mp.lu_solve(normal, mu)
        r = dy - da * c
        sv = mp.svd_r(da, compute_uv=False)
        s_max, s_min = max(sv), min(sv)
        assert s_min > CUTOFF_REL * s_max
        kappa = s_max / s_min
        value = sum(mu[k] * c[k] for k in range(n))
        dots = sum(abs(mu[k] * c[k]) for k in range(n)) + sum(abs(z[i] * dy[i]) for i in range(m))
        solve = (s_max * mp.norm(c) + kappa * mp.norm(r)) * mp.norm(z)
        return float(value), float(math.sqrt(m * n) * UNIT_ROUNDOFF * (solve + dots))


#: A series that changes sign at u = 1, inside both segments below.
MIXED = ((0.5, 1.0), (2.0, -1.0))
SEGMENTS = ((0.3, 1.6), (1.2, 0.4))


class TestWeights:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("weight_grade", (0.0, 2.0))
    def test_exact_on_the_basis(self, alpha, weight_grade):
        functional = MomentFunctional(AlphaContext(alpha))
        q = functional.weights(weight_grade)
        for k in range(functional.max_grade + 1):
            closed = functional.moment(k + weight_grade)
            assert abs(q @ functional.grid ** (k * alpha) - closed) <= 1e-13 * closed

    def test_computed_once_per_weight_grade(self):
        functional = MomentFunctional(AlphaContext(0.5))
        assert functional.weights(2.0) is functional.weights(2.0)
        assert functional.weights(0.0) is not functional.weights(2.0)
        assert not functional.weights(2.0).flags.writeable
        assert functional == MomentFunctional(AlphaContext(0.5))
        assert hash(functional) == hash(MomentFunctional(AlphaContext(0.5)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("weight_grade", (0.0, 2.0))
    def test_one_non_finite_sample_anywhere_raises(self, bad, weight_grade):
        functional = MomentFunctional(AlphaContext(0.3))
        for i in range(functional.nodes):
            y = np.ones(functional.nodes)
            y[i] = bad
            with pytest.raises(QuadratureError, match="non-finite"):
                functional.integrate(y, weight_grade)

    def test_overflowing_integral_raises(self):
        functional = MomentFunctional(AlphaContext(0.5))
        with np.errstate(over="ignore"), pytest.raises(QuadratureError, match="overflowed"):
            functional.integrate(np.full(functional.nodes, 1.7e308))

    @pytest.mark.parametrize(
        "values", [np.ones(39), np.ones(41), np.ones((1, 40)), 1.0], ids=["short", "long", "row", "scalar"]
    )
    def test_wrong_sample_count_raises(self, values):
        functional = MomentFunctional(AlphaContext(0.5))
        assert functional.nodes == 40
        with pytest.raises(ValueError, match="expected 40 samples"):
            functional.integrate(values)
        with pytest.raises(ValueError, match="expected 40 samples"):
            functional.fit(values)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("weight_grade", (0.0, 2.0))
    def test_integrate_rows_is_integrate_of_each_row(self, alpha, weight_grade):
        # bit for bit, and with integrate's error in place of a row that it raises on
        functional = MomentFunctional(AlphaContext(alpha))
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((60, functional.nodes)) * 10.0 ** rng.uniform(-8, 8, (60, 1))
        rows[3, 5], rows[8, 0], rows[9, -1] = math.nan, math.inf, -math.inf
        rows[12] = 1.7e308  # finite samples whose integral overflows
        with np.errstate(over="ignore"):
            got = functional.integrate_rows(rows, weight_grade)
        assert len(got) == len(rows)
        for row, value in zip(rows, got):
            try:
                with np.errstate(over="ignore"):
                    want = functional.integrate(row, weight_grade)
            except QuadratureError as exc:
                assert isinstance(value, QuadratureError) and str(value) == str(exc)
            else:
                assert type(value) is float and struct.pack("<d", value) == struct.pack("<d", want)
        with pytest.raises(ValueError, match="rows of"):
            functional.integrate_rows(rows[0], weight_grade)

    def test_non_finite_weights_raise_when_built(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_RULES", {})  # an empty store, so the weights are built under the patch
        functional = MomentFunctional(AlphaContext(0.5))
        monkeypatch.setattr(MomentFunctional, "moment", lambda self, k: math.inf)
        with pytest.raises(QuadratureError, match="not finite"):
            functional.weights(0.0)

    # The agreement below is measured against the integral of |g|, the scale
    # at which rounding enters; for a one-signed integrand it is the plain
    # relative error.  Smooth integrands only: on a kinked sample vector the
    # truncated-SVD components amplify rounding differently in the two
    # solves (up to about 1e-9 apart), far below either one's error against
    # the true integral, which test_no_less_accurate_than_the_fit_reference
    # checks.
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize(
        "g", [np.exp, np.cos, lambda t: 1.0 / (1.0 + t * t)], ids=["exp", "cos", "rational"]
    )
    def test_integral_matches_fit_reference(self, alpha, g):
        functional = MomentFunctional(AlphaContext(alpha))
        ref = fit_reference(functional, g(functional.grid))
        assert abs(fractal_integral_numeric(g, functional) - ref) <= 1e-12 * abs(ref)

    # Both paths solve one ill-conditioned least-squares problem (condition
    # number up to about 7e8 at alpha = 0.3), so they differ by the rounding
    # of the solve: each is held to the 60-digit solution of that problem
    # within the bound derived from its condition number, not to the other.
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("weight_grade", (0.0, 2.0))
    @pytest.mark.parametrize("x, e", SEGMENTS)
    def test_composed_moment_matches_fit_reference(self, alpha, weight_grade, x, e):
        ctx = AlphaContext(alpha)
        functional = MomentFunctional(ctx)
        f2 = AlphaSeries(MIXED, ctx)
        y = f2.evaluate(e + functional.grid * (x - e))
        exact, bound = projection_oracle(functional, y, weight_grade)
        assert abs(composed_moment(f2, weight_grade, x, e, functional) - exact) <= bound
        assert abs(fit_reference(functional, y, weight_grade) - exact) <= bound


class TestGaussJacobiRule:
    """The numpy Golub-Welsch rule against mpmath's in 40-digit arithmetic."""

    @pytest.mark.parametrize("alpha", (0.05, 0.1, 0.3, 0.7, 1.0))
    @pytest.mark.parametrize("n", (2, 8, 40, 48))
    def test_nodes_and_weights_match_the_oracle(self, alpha, n):
        mp = pytest.importorskip("mpmath")
        x, w = _gauss_jacobi(n, alpha)
        with mp.workdps(40):
            nodes, weights = mp.gauss_quadrature(n, "jacobi", mp.mpf(alpha) - 1, 0)
            exact = sorted(zip(nodes, weights))
            node_err = max(abs(mp.mpf(xi) - xe) for xi, (xe, _) in zip(x, exact))
            weight_err = max(abs(mp.mpf(wi) / we - 1) for wi, (_, we) in zip(w, exact))
        assert np.all(np.diff(x) > 0.0)
        assert node_err <= 1e-15
        assert weight_err <= 1e-12

    @pytest.mark.parametrize("alpha", (0.05, 0.5, 1.0))
    def test_exact_for_polynomials_up_to_degree_2n_minus_1(self, alpha):
        # with t = (1 + x) / 2 the moments of t**k are Beta integrals
        n = 8
        x, w = _gauss_jacobi(n, alpha)
        t = (1.0 + x) / 2.0
        for k in range(2 * n):
            exact = 2.0**alpha * math.gamma(k + 1) * math.gamma(alpha) / math.gamma(k + 1 + alpha)
            assert abs(w @ t**k - exact) <= 1e-13 * exact


class TestMpmathOracle:
    """The kernel integral in 30-digit arithmetic as the true value.

    The cached weights and the fit solve the same least-squares projection,
    so neither can be more accurate than the other beyond the rounding of
    that solve: each path is within the bound of :func:`projection_oracle`
    of the 60-digit projection, and so no further from the true value than
    the fit is, plus both bounds.
    """

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("case", ["exp", "rational", "kink", "reflected", "composed-abs"])
    def test_no_less_accurate_than_the_fit_reference(self, alpha, case):
        mp = pytest.importorskip("mpmath")
        ctx = AlphaContext(alpha)
        functional = MomentFunctional(ctx)
        t = functional.grid
        a = mp.mpf(alpha)
        w = 0.0
        if case == "exp":
            y, g, points = np.exp(t), mp.exp, [0, 1]
        elif case == "rational":
            y, g, points = 1.0 / (1.0 + t * t), lambda u: 1 / (1 + u * u), [0, 1]
        elif case == "kink":
            kink = mp.mpf("0.37")
            y, g, points = np.abs(t - 0.37), lambda u: abs(u - kink), [0, kink, 1]
        elif case == "reflected":
            y, g, points = (1.0 - t) ** 0.375, lambda u: (1 - u) ** mp.mpf(0.375), [0, 1]
        else:  # t**(2a) * |f2| on a segment through the sign change of f2
            f2 = AlphaSeries(MIXED, ctx)
            x, e = SEGMENTS[0]
            w, y = 2.0, np.abs(f2.evaluate(e + t * (x - e)))

            def g(u):
                v = mp.mpf(e) + u * (mp.mpf(x) - mp.mpf(e))
                return u ** (2 * a) * abs(sum(mp.mpf(c) * v ** (mp.mpf(k) * a) for k, c in MIXED))

            points = [0, mp.mpf(e - 1.0) / (e - x), 1]
        with mp.workdps(30):
            true = mp.quad(lambda u: g(u) * (1 - u) ** (a - 1), points) / mp.gamma(a)
        exact, bound = projection_oracle(functional, y, w)
        weights, fit = functional.integrate(y, w), fit_reference(functional, y, w)
        assert abs(weights - exact) <= bound
        assert abs(fit - exact) <= bound
        assert float(abs(weights - true)) <= float(abs(fit - true)) + 2.0 * bound


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("s", S_VALUES)
def test_pure_power_weight_moment(alpha, s):
    """t^{2a} * t^{s a} is the single monomial of grade s+2."""
    functional = MomentFunctional(AlphaContext(alpha))
    value = fractal_integral_numeric(lambda t: t ** ((s + 2) * alpha), functional)
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
    value = fractal_integral_numeric(h.evaluate, functional)
    assert value == pytest.approx(n_closed(s, alpha), abs=1e-6)


def test_mixed_weight_moment_pointwise_reading_disagrees_below_alpha_one():
    """Pointwise t^{2a}(1-t)^{s a} integrates to the kernel value, not the
    closed form: the reflection step is not an invariance of the term-wise
    functional.  The gap is a consistency finding, frozen here so it stays
    visible."""
    s, alpha = 0.5, 0.5
    g = lambda t: t ** (2 * alpha) * (1 - t) ** (s * alpha)
    functional = MomentFunctional(AlphaContext(alpha), max_grade=12, nodes=384)
    value = fractal_integral_numeric(g, functional)
    assert value == pytest.approx(kernel_integral(g, alpha), abs=1e-3)
    assert abs(value - n_closed(s, alpha)) > 0.01


def test_mixed_weight_moment_readings_agree_at_alpha_one():
    s, alpha = 0.5, 1.0
    g = lambda t: t**2 * (1 - t) ** (s * alpha)
    functional = MomentFunctional(AlphaContext(alpha), max_grade=12, nodes=384)
    value = fractal_integral_numeric(g, functional)
    assert value == pytest.approx(n_closed(s, alpha), abs=1e-6)


@pytest.mark.parametrize(
    "g, name",
    [(np.exp, "exp"), (lambda t: 1.0 / (1.0 + t * t), "rational"), (np.cos, "cos")],
)
def test_classical_reduction_at_alpha_one(g, name):
    functional = MomentFunctional(AlphaContext(1.0))
    value = fractal_integral_numeric(g, functional)
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
        _, resid = functional.fit(g(functional.grid))
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
            value = fractal_integral_numeric(g, functional)
            assert value >= -1e-12
            checked += 1
    print(f"positivity checked on {checked} nonnegative integrands")


class TestComposedMoment:
    def test_constant_series_reduces_to_weight_moment(self):
        ctx = AlphaContext(0.5)
        functional = MomentFunctional(ctx)
        c = 1.7
        f2 = series_constant(c, ctx)
        got = composed_moment(f2, 2.0, 0.8, 0.2, functional, absolute=True)
        assert got == pytest.approx(c * moment_closed(2, 0.5), rel=1e-12)

    def test_zero_series(self):
        ctx = AlphaContext(0.5)
        functional = MomentFunctional(ctx)
        assert composed_moment(series_zero(ctx), 2.0, 1.0, 0.0, functional) == 0.0

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

    def test_non_finite_sample_on_the_quadrature_path(self):
        ctx = AlphaContext(0.5)
        functional = MomentFunctional(ctx)
        # finite terms whose sum overflows everywhere on the segment
        f2 = AlphaSeries(((0.0, 1e308), (1.0, 1e308)), ctx)
        with np.errstate(over="ignore"), pytest.raises(QuadratureError, match="non-finite"):
            composed_moment(f2, 2.0, 0.4, 1.5, functional)

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

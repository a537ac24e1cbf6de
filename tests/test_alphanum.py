import math

import numpy as np
import pytest

from alphaineq.alphanum import AlphaContext, GammaDomainError, alpha_pow_signed, gamma
from reference import AlphaReal, MittagLefflerError, alpha_add, alpha_mul, mittag_leffler


def test_context_validation():
    AlphaContext(1.0)
    AlphaContext(0.3, slack_tol=1e-6)
    with pytest.raises(ValueError):
        AlphaContext(0.0)
    with pytest.raises(ValueError):
        AlphaContext(1.5)
    with pytest.raises(ValueError):
        AlphaContext(0.5, slack_tol=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-9])
def test_context_rejects_a_slack_tol_that_is_not_positive_and_finite(bad):
    with pytest.raises(ValueError, match="slack_tol"):
        AlphaContext(0.5, slack_tol=bad)


class TestBaseArithmetic:
    def test_addition_adds_bases(self):
        assert alpha_add(AlphaReal(2.0), AlphaReal(3.0)).base == 5.0

    def test_additive_identity_and_inverse(self):
        a = AlphaReal(0.73)
        assert alpha_add(a, AlphaReal(0.0)) == a
        assert alpha_add(a, -a).base == 0.0

    def test_multiplication_multiplies_bases(self):
        assert alpha_mul(AlphaReal(2.0), AlphaReal(3.0)).base == 6.0

    def test_multiplicative_identity_and_inverse(self):
        a = AlphaReal(1.375)
        assert alpha_mul(a, AlphaReal(1.0)) == a
        inv = AlphaReal(1.0 / a.base)
        assert abs(alpha_mul(a, inv).base - 1.0) <= 1e-12

    def test_non_finite_base_rejected(self):
        with pytest.raises(ValueError):
            AlphaReal(float("nan"))

    def test_overflow_is_an_arithmetic_error(self):
        big = AlphaReal(1e308)
        with pytest.raises(ArithmeticError):
            alpha_add(big, big)

    def test_numeric_embedding(self):
        assert AlphaReal(-4.0).value(AlphaContext(0.5)) == pytest.approx(-2.0, rel=1e-14)


def _dyadic_triples(n, rng):
    # numerators bounded so that triple products stay exactly representable
    nums = rng.integers(-2000, 2001, size=(n, 3))
    return nums.astype(float) / 16.0


def test_field_axioms_on_seeded_triples():
    rng = np.random.default_rng(20240817)
    triples = _dyadic_triples(10_000, rng)
    for a, b, c in triples:
        x, y, z = AlphaReal(a), AlphaReal(b), AlphaReal(c)
        assert alpha_add(alpha_add(x, y), z).base - alpha_add(x, alpha_add(y, z)).base == 0.0
        assert alpha_add(x, y) == alpha_add(y, x)
        assert alpha_mul(x, y) == alpha_mul(y, x)
        assert alpha_mul(alpha_mul(x, y), z).base - alpha_mul(x, alpha_mul(y, z)).base == 0.0
        lhs = alpha_mul(x, alpha_add(y, z)).base
        rhs = alpha_add(alpha_mul(x, y), alpha_mul(x, z)).base
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_order_isomorphism():
    rng = np.random.default_rng(7)
    pairs = rng.uniform(-50, 50, size=(10_000, 2))
    for a, b in pairs:
        assert (AlphaReal(a) < AlphaReal(b)) == (a < b)


@pytest.mark.parametrize(
    "u, alpha, expected",
    [
        (1.0, 0.37, 1.0),
        (-4.0, 0.5, -2.0),
        (0.0, 0.5, 0.0),
        (9.0, 0.5, 3.0),
        (-8.0, 1.0 / 3.0, -2.0),
    ],
)
def test_signed_power(u, alpha, expected):
    assert alpha_pow_signed(u, AlphaContext(alpha)) == pytest.approx(expected, rel=1e-12)


class TestGamma:
    def test_known_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-10)
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-10)
        assert gamma(4.0) == pytest.approx(6.0, rel=1e-10)

    def test_recurrence_on_grid(self):
        for x in np.arange(0.1, 10.0001, 0.1):
            lhs = gamma(x + 1.0)
            assert abs(lhs - x * gamma(x)) / lhs <= 1e-10

    def test_upper_domain(self):
        assert gamma(50.0) == pytest.approx(math.factorial(49), rel=1e-10)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        with pytest.raises(GammaDomainError):
            gamma(x)


class TestMittagLeffler:
    def test_at_zero(self):
        assert mittag_leffler(0.0, AlphaContext(0.5)) == 1.0

    def test_alpha_one_is_exponential(self):
        ctx = AlphaContext(1.0)
        assert mittag_leffler(1.0, ctx, 1e-14) == pytest.approx(math.e, rel=1e-10)
        for x in np.linspace(0.0, 5.0, 21):
            assert mittag_leffler(float(x), ctx, 1e-14) == pytest.approx(math.exp(x), rel=1e-10)

    def test_half_order_against_partial_sums(self):
        # independent oracle: brute-force 200-term partial sum
        brute = sum(1.0 / math.gamma(1.0 + 0.5 * k) for k in range(200))
        assert mittag_leffler(1.0, AlphaContext(0.5), 1e-12) == pytest.approx(brute, abs=1e-8)

    def test_monotone_in_x(self):
        ctx = AlphaContext(0.5)
        vals = [mittag_leffler(x, ctx, 1e-12) for x in np.linspace(0.0, 4.0, 33)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_term_cap_error(self):
        # slowly decaying terms at tiny alpha never reach the tolerance
        with pytest.raises(MittagLefflerError):
            mittag_leffler(2.0, AlphaContext(0.001), 1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            mittag_leffler(-1.0, AlphaContext(0.5))
        with pytest.raises(ValueError):
            mittag_leffler(1.0, AlphaContext(0.5), tol=0.0)

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphaineq import series
from alphaineq.alphanum import AlphaContext, alpha_pow_signed
from alphaineq.series import (
    AlphaSeries,
    GammaPoleError,
    lf_derivative,
    lf_derivative_n,
    lf_integral,
    memoized,
)
from reference import byparts_residual, series_add, series_constant, series_eval, series_mul, series_scale

CTX_HALF = AlphaContext(0.5)
CTX_ONE = AlphaContext(1.0)


def mono(k, ctx, c=1.0):
    return AlphaSeries.monomial(k, ctx, c)


class TestAlgebra:
    def test_add_merges_equal_grades(self):
        f = mono(1.0, CTX_HALF)
        assert series_add(f, f).terms == ((1.0, 2.0),)

    def test_scale_by_zero_gives_zero_series(self):
        assert series_scale(mono(2.0, CTX_HALF), 0.0).is_zero

    def test_mul_adds_grades(self):
        assert series_mul(mono(1.0, CTX_HALF), mono(2.0, CTX_HALF)).terms == ((3.0, 1.0),)

    def test_normalization_drops_cancelled_terms(self):
        f = AlphaSeries(((2.0, 1.0), (2.0, -1.0), (0.0, 3.0)), CTX_HALF)
        assert f.terms == ((0.0, 3.0),)

    def test_grade_floor(self):
        # grades in (-1, 0) are legal (they arise from derivatives) but the
        # floor at -1 is enforced
        AlphaSeries(((-0.5, 1.0),), CTX_HALF)
        with pytest.raises(ValueError):
            AlphaSeries(((-1.0, 1.0),), CTX_HALF)
        with pytest.raises(ValueError):
            AlphaSeries(((-1.5, 1.0),), CTX_HALF)

    def test_singular_series_cannot_be_evaluated_at_zero(self):
        f = AlphaSeries(((-0.5, 1.0),), CTX_HALF)
        with pytest.raises(ValueError):
            series_eval(f, 0.0)
        assert series_eval(f, 4.0) == pytest.approx(4.0**-0.25, rel=1e-14)

    def test_mixed_contexts_rejected(self):
        with pytest.raises(ValueError):
            series_add(mono(1.0, CTX_HALF), mono(1.0, CTX_ONE))


class TestEval:
    def test_square_grade_at_half_alpha(self):
        # x^{2a} with a = 1/2 is just x
        assert series_eval(mono(2.0, CTX_HALF), 4.0) == pytest.approx(4.0, rel=1e-14)

    def test_affine_at_alpha_one(self):
        f = AlphaSeries(((0.0, 1.0), (1.0, 1.0)), CTX_ONE)
        assert series_eval(f, 2.0) == pytest.approx(3.0, rel=1e-14)

    def test_fractional_grade(self):
        # x^{s a} with s = a = 1/2 at x = 1/2: direct power oracle
        assert series_eval(mono(0.5, CTX_HALF), 0.5) == pytest.approx(0.5**0.25, rel=1e-14)

    def test_negative_point_rejected(self):
        with pytest.raises(ValueError):
            series_eval(mono(1.0, CTX_HALF), -0.1)

    def test_scalar_pole_at_zero_is_silent_inf(self):
        f = AlphaSeries(((-0.5, 1.0), (1.0, 2.0)), CTX_HALF)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = f.evaluate(0.0)
        assert type(value) is float and value == math.inf


def _bits(v):
    return struct.pack("<d", float(v))


@st.composite
def _series_and_point(draw):
    # alphas 0.25, 0.5 and 1 make the exponents 0.5, 1 and 2 exact, the ones
    # numpy's array power treats specially
    alpha = draw(st.sampled_from([0.25, 0.5, 1.0, 0.3, 0.8]))
    special = st.sampled_from([e / alpha for e in (0.5, 1.0, 2.0)])
    grade = st.one_of(special, st.floats(-0.99, 8.0), st.sampled_from([-0.5, 0.0]))
    grades = draw(st.lists(grade, min_size=0, max_size=5))
    coeffs = draw(
        st.lists(st.floats(-8.0, 8.0), min_size=len(grades), max_size=len(grades))
    )
    x = draw(
        st.one_of(
            st.sampled_from([0.0, -0.0, math.inf, math.nan, 0.5, 1.0, 4.0]),
            st.floats(0.0, 1e3),
            st.floats(-4.0, 0.0),
        )
    )
    return AlphaSeries(tuple(zip(grades, coeffs)), AlphaContext(alpha)), x


@pytest.mark.parametrize("alpha, grade", [(0.5, 1.0), (1.0, 0.5), (0.25, 8.0), (1.0, 2.0), (0.3, 2.5)])
def test_scalar_evaluate_matches_array_on_many_points(alpha, grade):
    # numpy's array power uses sqrt for exponent 0.5 and square for 2; pow
    # differs from both in a few percent of points, so sample many
    f = AlphaSeries(((grade, 1.0),), AlphaContext(alpha))
    xs = np.random.default_rng(0).uniform(0.0, 3.0, 2000)
    assert [_bits(f.evaluate(float(x))) for x in xs] == [_bits(v) for v in f.evaluate(xs)]


@settings(max_examples=300, deadline=None)
@given(_series_and_point())
@example((AlphaSeries(((1.0, 1.5), (2.0, -2.0), (4.0, 0.25)), CTX_HALF), -0.0))
@example((AlphaSeries(((-0.5, 3.0), (2.0, 1.0)), CTX_HALF), 0.0))
def test_scalar_evaluate_is_bit_identical_to_array(case):
    f, x = case
    with np.errstate(all="ignore"):
        scalar = f.evaluate(x)
        vector = f.evaluate(np.array([x]))[0]
    assert type(scalar) is float
    assert _bits(scalar) == _bits(vector)


@pytest.mark.parametrize(
    "terms",
    [
        ((1.0, 1.5),),  # exponent 0.5 at alpha = 0.5
        ((2.0, -2.0),),  # exponent 1
        ((4.0, 0.25),),  # exponent 2
        ((6.0, 3.0),),  # exponent 3
        ((-0.5, 2.0), (2.0, 1.0)),  # a negative grade: inf at zero
        ((0.0, 1.0), (1.0, -1.0), (2.0, 1.0), (4.0, -1.0), (6.0, 1.0)),
    ],
)
def test_negative_zero_evaluates_like_zero(terms):
    # the scalar cache gives -0.0 and 0.0 one key, so their values must agree bit for bit
    values = []  # a fresh series per order, evaluated first at 0.0, then first at -0.0
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        f = AlphaSeries(terms, CTX_HALF)
        values.append(f.evaluate(first))
        assert _bits(f.evaluate(second)) == _bits(values[-1])
    assert _bits(values[0]) == _bits(values[1])
    with np.errstate(divide="ignore"):
        assert _bits(values[0]) == _bits(AlphaSeries(terms, CTX_HALF).evaluate(np.array([-0.0]))[0])


@settings(max_examples=200, deadline=None)
@given(_series_and_point(), st.lists(st.one_of(st.floats(0.0, 50.0), st.sampled_from([0.0, -0.0, 1.0, 4.0, -1.0])),
                                     max_size=6))
@example((AlphaSeries(((-0.5, 3.0), (2.0, 1.0)), CTX_HALF), 0.0), [0.0, 0.25, 1.0])
@example((AlphaSeries(((1.0, 1.5), (2.0, -2.0), (4.0, 0.25)), CTX_HALF), 2.0), [0.5, -0.0, 2.0, 2.0])
def test_cached_points_hold_the_scalar_values(case, points):
    # cache_points fills the scalar path's cache with the values it computes, bit for bit
    f, x = case
    points = [x, *points]
    cached = AlphaSeries(f.terms, f.ctx)
    with np.errstate(all="ignore"):
        cached.cache_points(points)
        taken = [p for p in points if type(p) is float and p >= 0.0]
        assert all(("ev", p) in cached._memo for p in taken)
        assert len([k for k in cached._memo if k[0] == "ev"]) == len(set(taken))
        fresh = AlphaSeries(f.terms, f.ctx)
        assert [_bits(cached.evaluate(p)) for p in taken] == [_bits(fresh.evaluate(p)) for p in taken]


def test_cache_points_keeps_a_cached_value():
    f = mono(1.0, CTX_HALF)
    f._memo["ev", 4.0] = 7.0  # a planted value, to see that it is kept
    f.cache_points([4.0, 9.0])
    assert f.evaluate(4.0) == 7.0 and f.evaluate(9.0) == 3.0


class TestDerivative:
    def test_monomial_rule(self):
        a = 0.5
        f = lf_derivative(mono(2.0, CTX_HALF))
        ratio = math.gamma(1 + 2 * a) / math.gamma(1 + a)
        assert f.terms == ((1.0, pytest.approx(ratio, rel=1e-14)),)

    def test_constants_annihilated(self):
        assert lf_derivative(series_constant(5.0, CTX_HALF)).is_zero

    def test_classical_reduction(self):
        f = lf_derivative(mono(3.0, CTX_ONE))
        assert f.terms == ((2.0, pytest.approx(3.0, rel=1e-14)),)

    def test_iterated(self):
        assert lf_derivative_n(mono(3.0, CTX_HALF), 0) == mono(3.0, CTX_HALF)
        # chaining the rule twice: G(1+3a)/G(1+2a) then G(1+2a)/G(1+a)
        a = 0.5
        f2 = lf_derivative_n(mono(3.0, CTX_HALF), 2)
        expected = math.gamma(1 + 3 * a) / math.gamma(1 + a)
        (grade, coeff), = f2.terms
        assert grade == 1.0
        assert coeff == pytest.approx(expected, rel=1e-13)

    def test_iterated_classical(self):
        f2 = lf_derivative_n(mono(3.0, CTX_ONE), 2)
        assert f2.terms == ((1.0, pytest.approx(6.0, rel=1e-14)),)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            lf_derivative_n(mono(1.0, CTX_ONE), -1)

    def test_derivative_is_cached_on_the_series(self):
        f = mono(3.0, CTX_HALF)
        assert lf_derivative(f) is lf_derivative(f)
        assert lf_derivative_n(f, 2) is lf_derivative(lf_derivative(f))

    def test_pole_raises_on_every_call(self):
        # f' = c x^{-1/2} cannot be differentiated again
        f = mono(0.5, CTX_ONE)
        d1 = lf_derivative(f)
        for _ in range(2):
            with pytest.raises(GammaPoleError):
                lf_derivative(d1)
            with pytest.raises(GammaPoleError):
                lf_derivative_n(f, 2)
        assert d1._memo == {}


def test_memoized_keys_on_tag_and_every_argument():
    class Owner:
        def __init__(self):
            self._memo = {}

    calls = []

    @memoized("t")
    def fn(obj, a, b):
        calls.append((a, b))
        if a < 0:
            raise ValueError(a)
        return [a, b] if a else None

    @memoized("u")
    def other(obj, a, b):
        return ["u", a, b]

    obj = Owner()
    first = fn(obj, 1, 2)
    assert fn(obj, 1, 2) is first
    assert fn(obj, 3, 2) == [3, 2] and fn(obj, 1, 3) == [1, 3]
    assert other(obj, 1, 2) == ["u", 1, 2]
    assert fn(obj, 1, 2) is first
    assert calls == [(1, 2), (3, 2), (1, 3)]
    for _ in range(2):
        with pytest.raises(ValueError):
            fn(obj, -1, 2)
        assert fn(obj, 0, 2) is None  # None is a miss
    assert calls[3:] == [(-1, 2), (0, 2)] * 2
    assert ("t", -1, 2) not in obj._memo
    assert obj._memo[("u", 1, 2)] == ["u", 1, 2] and obj._memo[("t", 1, 2)] is first


class TestIntegral:
    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
    def test_monomial_rule(self, k, alpha):
        ctx = AlphaContext(alpha)
        a, b = 0.25, 1.75
        got = lf_integral(mono(k, ctx), a, b)
        expected = (
            math.gamma(1 + k * alpha)
            / math.gamma(1 + (k + 1) * alpha)
            * (b ** ((k + 1) * alpha) - a ** ((k + 1) * alpha))
        )
        assert got == pytest.approx(expected, rel=1e-13)

    def test_equal_endpoints(self):
        assert lf_integral(mono(2.0, CTX_HALF), 0.7, 0.7) == 0.0

    def test_classical_value(self):
        assert lf_integral(mono(2.0, CTX_ONE), 0.0, 1.0) == pytest.approx(1 / 3, rel=1e-14)

    def test_antisymmetry(self):
        f = AlphaSeries(((0.0, 2.0), (1.5, -0.75), (3.0, 1.0)), CTX_HALF)
        assert lf_integral(f, 0.2, 1.9) == -lf_integral(f, 1.9, 0.2)

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError):
            lf_integral(mono(1.0, CTX_HALF), -0.5, 1.0)


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.5])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("ab", [(0.0, 1.0), (0.5, 2.0)])
def test_antidifferentiation(k, alpha, ab):
    """Integrating the derivative of x^{k a} recovers the increment exactly."""
    ctx = AlphaContext(alpha)
    a, b = ab
    got = lf_integral(lf_derivative(mono(k, ctx)), a, b)
    expected = b ** (k * alpha) - a ** (k * alpha)
    assert got == pytest.approx(expected, rel=1e-10)


def test_linearity_of_operators():
    f = AlphaSeries(((1.0, 2.0), (2.5, -1.0)), CTX_HALF)
    g = AlphaSeries(((0.0, 1.0), (1.0, 0.5)), CTX_HALF)
    combo = series_add(series_scale(f, 3.0), g)
    lhs = lf_integral(combo, 0.1, 1.3)
    rhs = 3.0 * lf_integral(f, 0.1, 1.3) + lf_integral(g, 0.1, 1.3)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    d_combo = lf_derivative(combo)
    d_split = series_add(series_scale(lf_derivative(f), 3.0), lf_derivative(g))
    for (k1, c1), (k2, c2) in zip(d_combo.terms, d_split.terms):
        assert k1 == k2 and c1 == pytest.approx(c2, rel=1e-12)


def test_classical_oracle_at_alpha_one():
    """Independent oracle: numpy.polynomial for integer-grade series."""
    coeffs = [1.0, -2.0, 0.5, 3.0]
    f = AlphaSeries(tuple((float(j), c) for j, c in enumerate(coeffs)), CTX_ONE)
    poly = np.polynomial.Polynomial(coeffs)
    d = lf_derivative(f)
    dpoly = poly.deriv()
    for x in np.linspace(0.0, 2.0, 9):
        assert d.evaluate(float(x)) == pytest.approx(dpoly(x), rel=1e-10, abs=1e-12)
    integ = poly.integ()
    assert lf_integral(f, 0.25, 1.5) == pytest.approx(integ(1.5) - integ(0.25), rel=1e-10)


class TestByParts:
    def test_classical_identity_holds(self):
        f = mono(1.0, CTX_ONE)
        assert byparts_residual(f, f, 0.0, 1.0) <= 1e-12

    def test_half_alpha_gap(self):
        # closed form on both sides leaves the residual pi/2 - 1
        f = mono(1.0, CTX_HALF)
        assert byparts_residual(f, f, 0.0, 1.0) == pytest.approx(math.pi / 2 - 1, abs=1e-12)

    def test_constant_partner_vanishes(self):
        f = AlphaSeries(((1.0, 2.0), (3.0, -1.0)), CTX_HALF)
        g = series_constant(4.0, CTX_HALF)
        assert byparts_residual(f, g, 0.0, 1.5) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    grades=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4, unique=True),
    coeffs=st.lists(st.integers(min_value=-8, max_value=8), min_size=4, max_size=4),
)
def test_series_addition_commutes(grades, coeffs):
    terms_f = tuple((float(k), float(c)) for k, c in zip(grades, coeffs))
    terms_g = tuple((float(k), float(c)) for k, c in zip(reversed(grades), coeffs))
    f, g = AlphaSeries(terms_f, CTX_HALF), AlphaSeries(terms_g, CTX_HALF)
    assert series_add(f, g) == series_add(g, f)
    # normalization invariants
    out = series_add(f, g)
    ks = [k for k, _ in out.terms]
    assert ks == sorted(set(ks))
    assert all(c != 0.0 for _, c in out.terms)


def _term_loop(f, x):
    """The array path as a plain loop over the terms: the reference for ``evaluate``."""
    xs = np.asarray(x, dtype=float)
    out = np.zeros_like(xs)
    with np.errstate(divide="ignore"):
        for k, c in f.terms:
            out = out + c * xs ** (k * f.ctx.alpha)
    return out


@settings(max_examples=300, deadline=None)
@given(_series_and_point())
@example((AlphaSeries(((1.0, -1.0), (2.0, -3.0)), CTX_HALF), 0.0))  # -0.0 terms, +0.0 sum
@example((AlphaSeries(((0.5, -2.0), (2.0, -1.0)), CTX_HALF), -0.0))
@example((AlphaSeries(((-0.5, 3.0), (2.0, 1.0)), CTX_HALF), 0.0))
def test_array_evaluate_matches_the_term_loop(case):
    f, x = case
    xs = np.array([x, 0.0, -0.0, 0.25, 1.0, 3.5])
    with np.errstate(all="ignore"):
        got = f.evaluate(xs)
        want = _term_loop(f, xs)
    assert [_bits(v) for v in got] == [_bits(v) for v in want]


def test_array_pole_at_zero_is_silent_inf():
    f = AlphaSeries(((-0.5, 1.0), (1.0, 2.0)), CTX_HALF)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = f.evaluate(np.array([0.0, 1.0]))
    assert values[0] == math.inf
    assert _bits(values[1]) == _bits(_term_loop(f, np.array([1.0]))[0])


# The grade plan: one per grade tuple on the context, read by the derivative,
# the integral and both evaluate paths.  The references below are the
# per-term formulas the plan replaced; a list of terms always takes the
# sort-and-merge path of normalization.


def _parent_derivative(f):
    a = f.ctx.alpha
    out = []
    for k, c in f.terms:
        if k == 0.0:
            continue
        lower = 1.0 + (k - 1.0) * a
        if k < 0.0 or lower <= 0.0:
            raise GammaPoleError(k)
        out.append((k - 1.0, c * math.gamma(1.0 + k * a) / math.gamma(lower)))
    return AlphaSeries(out, f.ctx)


def _parent_integral(f, a, b):
    al = f.ctx.alpha
    total = 0.0
    for k, c in f.terms:
        ratio = math.gamma(1.0 + k * al) / math.gamma(1.0 + (k + 1.0) * al)
        hi = alpha_pow_signed(b, f.ctx) ** (k + 1.0)
        lo = alpha_pow_signed(a, f.ctx) ** (k + 1.0)
        total += c * ratio * (hi - lo)
    return total


def _parent_scalar(f, x):
    exps = [k * f.ctx.alpha for k, _ in f.terms]
    powers = np.power(x, np.array(exps, dtype=float)).tolist()
    for i, e in enumerate(exps):
        if e == 2.0:
            powers[i] = x * x
        elif e == 0.5:
            powers[i] = math.sqrt(x)
    out = 0.0
    for (_, c), v in zip(f.terms, powers):
        out = out + c * v
    return out


def _term_bits(f):
    return [(_bits(k), _bits(c)) for k, c in f.terms]


def _outcome(fn, *args):
    """``fn(*args)`` as comparable bits, or the class of the error it raised."""
    try:
        value = fn(*args)
    except (GammaPoleError, ValueError) as exc:
        return type(exc)
    return _term_bits(value) if isinstance(value, AlphaSeries) else _bits(value)


@st.composite
def _series_sharing_grades(draw):
    """Two series with the same grades on one context, an interval and a point."""
    alpha = draw(st.sampled_from([0.25, 0.5, 1.0, 0.3, 0.8]))
    # exponents 0.5 and 2 (numpy's sqrt and square), constants, and grades
    # just outside the merge tolerance of 1
    special = st.sampled_from([e / alpha for e in (0.5, 1.0, 2.0)] + [0.0, 1.0, 1.0 + 1.5e-12])
    grades = draw(st.lists(st.one_of(special, st.floats(0.0, 8.0)), max_size=5))
    coeffs = st.lists(st.floats(-8.0, 8.0), min_size=len(grades), max_size=len(grades))
    ctx = AlphaContext(alpha)
    pair = [AlphaSeries(tuple(zip(grades, draw(coeffs))), ctx) for _ in range(2)]
    point = st.floats(0.0, 4.0)
    return pair, (draw(point), draw(point)), draw(point)


@settings(max_examples=200, deadline=None)
@given(_series_sharing_grades())
@example(([AlphaSeries(((2.0, 1.5), (4.0, -0.5)), CTX_HALF)] * 2, (0.0, 2.0), 3.0))
@example(([AlphaSeries(((0.5, 2.0), (2.0, 1.0)), CTX_ONE)] * 2, (0.5, 1.5), 0.25))
@example(([AlphaSeries(((6.5e-264, 1.0),), CTX_ONE)] * 2, (0.0, 0.0), 0.0))  # k - 1 rounds to -1: a pole
def test_plan_built_values_match_the_per_term_formulas(case):
    pair, (a, b), x = case
    for f in pair:
        assert _outcome(lf_derivative, f) == _outcome(_parent_derivative, f)
        twice = lambda g: _parent_derivative(_parent_derivative(g))
        assert _outcome(lf_derivative_n, f, 2) == _outcome(twice, f)
        assert _outcome(lf_integral, f, a, b) == _outcome(_parent_integral, f, a, b)
        assert _bits(f.evaluate(x)) == _bits(_parent_scalar(f, x))
        xs = np.array([x, a, b, 0.5])
        assert [_bits(v) for v in f.evaluate(xs)] == [_bits(v) for v in _term_loop(f, xs)]


class TestGradePlan:
    def test_lists_unsorted_tuples_and_inner_lists_are_normalized(self):
        want = ((1.0, 3.0), (2.0, 1.0))
        for terms in ([(2.0, 1.0), (1.0, 3.0)], ((2.0, 1.0), (1.0, 3.0)), ([1.0, 3.0], [2.0, 1.0])):
            f = AlphaSeries(terms, CTX_HALF)
            assert f.terms == want and type(f.terms) is tuple
            assert all(type(t) is tuple for t in f.terms)

    def test_a_normal_tuple_is_kept_as_it_is(self):
        terms = ((0.0, 1.0), (1.0, -2.0), (2.5, 0.5))
        assert AlphaSeries(terms, CTX_HALF).terms is terms

    def test_grades_within_the_merge_tolerance(self):
        assert AlphaSeries(((1.0, 1.0), (1.0 + 0.5e-12, 2.0)), CTX_HALF).terms == ((1.0, 3.0),)
        apart = AlphaSeries(((1.0, 1.0), (1.0 + 1.5e-12, 2.0)), CTX_HALF)
        assert len(apart.terms) == 2
        assert _term_bits(lf_derivative(apart)) == _term_bits(_parent_derivative(apart))

    def test_a_coefficient_that_underflows_is_dropped(self):
        # G(1.25) / G(0.25) is about 1/4, which takes 5e-324 to 0
        f = AlphaSeries(((0.25, 5e-324), (2.0, 1.0)), CTX_ONE)
        assert lf_derivative(f).terms == ((1.0, 2.0),)

    def test_an_overflowing_coefficient_raises_on_every_call(self):
        f = AlphaSeries(((3.0, 1e308),), CTX_ONE)
        for _ in range(2):
            with pytest.raises(ValueError, match="non-finite"):
                lf_derivative(f)
        assert f._memo == {}

    def test_a_grade_below_one_lands_in_minus_one_to_zero(self):
        f = AlphaSeries(((0.5, 2.0), (1.5, 1.0)), CTX_HALF)
        d = lf_derivative(f)
        assert d.terms[0][0] == -0.5
        assert _term_bits(d) == _term_bits(_parent_derivative(f))

    def test_a_derivative_inherits_the_plan_of_its_grades(self):
        ctx = AlphaContext(0.5)
        f = AlphaSeries(((0.0, 2.0), (1.0, 1.0), (2.5, -2.0), (4.0, 0.5)), ctx)
        d = lf_derivative(f)
        assert d._plan is not None  # set by lf_derivative, before anything reads it
        assert series._plan_of(d) is series._grade_plan(ctx, tuple(k for k, _ in d.terms))
        assert series._plan_of(d).grades == (0.0, 1.5, 3.0)
        assert lf_derivative(d)._plan is series._grade_plan(ctx, (0.5, 2.0))
        # series that share their grades share their derivatives' plan
        other = AlphaSeries(((1.0, 3.0), (2.5, 0.25), (4.0, -1.0)), ctx)
        assert series._plan_of(lf_derivative(other)) is series._plan_of(d)

    def test_a_derivative_whose_terms_normalize_looks_its_own_plan_up(self):
        # the underflowing coefficient is dropped, so the grades are not those of f's plan minus one
        f = AlphaSeries(((0.25, 5e-324), (2.0, 1.0)), CTX_ONE)
        d = lf_derivative(f)
        assert d.terms == ((1.0, 2.0),) and d._plan is None
        assert series._plan_of(d) is series._grade_plan(CTX_ONE, (1.0,))
        assert _term_bits(lf_derivative(d)) == _term_bits(_parent_derivative(d))

    def test_a_derivative_grade_at_the_floor_raises_as_before(self):
        # 2e-33 - 1.0 rounds to -1.0, the floor: the derivative raises on every call, and no plan is made for it
        ctx = AlphaContext(0.25)
        f = AlphaSeries(((2e-33, 1.0),), ctx)
        for _ in range(2):
            with pytest.raises(ValueError, match="grades must stay above -1.0, got -1.0"):
                lf_derivative(f)
        assert ("plan", (-1.0,)) not in ctx._memo
        assert f._memo == {}

    def test_plans_belong_to_their_context(self):
        # the same grades at different alphas need their own Gamma factors
        for alpha in (0.5, 1.0, 0.3):
            f = AlphaSeries(((1.5, 1.0), (3.0, 2.0)), AlphaContext(alpha))
            assert _term_bits(lf_derivative(f)) == _term_bits(_parent_derivative(f))
            assert _bits(lf_integral(f, 0.5, 2.0)) == _bits(_parent_integral(f, 0.5, 2.0))
            assert _bits(f.evaluate(0.7)) == _bits(_parent_scalar(f, 0.7))

    def test_series_with_the_same_grades_compute_no_gamma(self, monkeypatch):
        ctx = AlphaContext(0.5)
        first = AlphaSeries(((1.0, 1.0), (2.5, -2.0), (4.0, 0.5)), ctx)
        lf_derivative(first)
        lf_integral(first, 0.0, 1.0)
        calls = []
        real = series.gamma
        monkeypatch.setattr(series, "gamma", lambda v: calls.append(v) or real(v))
        second = AlphaSeries(((1.0, 3.0), (2.5, 0.25), (4.0, -1.0)), ctx)
        d = lf_derivative(second)
        value = lf_integral(second, 0.5, 2.0)
        assert calls == []
        assert _term_bits(d) == _term_bits(_parent_derivative(second))
        assert _bits(value) == _bits(_parent_integral(second, 0.5, 2.0))

    def test_context_memo_takes_no_part_in_equality(self):
        warm, cold = AlphaContext(0.5), AlphaContext(0.5)
        lf_derivative(AlphaSeries(((1.0, 1.0), (3.0, 2.0)), warm))
        warm.gamma_grade(2)
        assert warm._memo and not cold._memo
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from alphaineq import inequalities
from alphaineq.alphanum import AlphaContext
from alphaineq.harness import SweepConfig, parse_function_spec, run_sweep
from alphaineq.inequalities import (
    COROLLARY_VARIANTS,
    _grid,
    eval_corollary,
    eval_ghh,
    eval_holder,
    eval_ostrowski_classic,
    eval_shh,
    eval_thm1,
    eval_thm2,
    eval_thm3,
    _binding,
    _build,
    _hypothesis_note,
    identity_residual,
    ostrowski_constants,
    sup_abs,
)
from alphaineq.quadrature import MomentFunctional, QuadratureError, fractal_integral_numeric
from alphaineq.series import AlphaSeries, lf_derivative, lf_derivative_n, lf_integral
from reference import alpha_binomial_series, eval_holder_callables, series_constant, series_mul, series_zero

G = math.gamma
CTX1 = AlphaContext(1.0)
CTX_HALF = AlphaContext(0.5)


def mono(k, ctx, c=1.0):
    return AlphaSeries.monomial(k, ctx, c)


def _binding_row(left, mid, right):
    """The ghh row of the chain ``left <= mid <= right``, made by the builder."""
    return _build("ghh", CTX1, 0.0, 1.0, (None,), (None,), ((None, None),), [_binding(left, mid, right)])[0]


class TestConstants:
    def test_classical_point(self):
        c = ostrowski_constants(1.0, CTX1)
        assert c.M == pytest.approx(0.25, rel=1e-12)
        assert c.N == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_beta_oracle_at_alpha_one(self):
        # independent oracle: N(s, 1) is the Beta integral of t^2 (1-t)^s
        c = ostrowski_constants(0.5, CTX1)
        assert c.M == pytest.approx(2.0 / 7.0, rel=1e-12)
        beta = G(3) * G(1.5) / G(4.5)
        assert c.N == pytest.approx(beta, rel=1e-10)
        oracle, _ = quad(lambda t: t**2 * math.sqrt(1 - t), 0, 1)
        assert c.N == pytest.approx(oracle, abs=1e-8)

    def test_M_recomputable_and_positive(self):
        for alpha in (0.3, 0.5, 0.8, 1.0):
            ctx = AlphaContext(alpha)
            for s in (0.25, 0.5, 0.75, 1.0):
                c = ostrowski_constants(s, ctx)
                direct = G(1 + (s + 2) * alpha) / G(1 + (s + 3) * alpha)
                assert c.M == pytest.approx(direct, rel=1e-10)
                assert c.M > 0

    @pytest.mark.parametrize("alpha", (0.3, 0.5, 0.8, 1.0))
    @pytest.mark.parametrize("s", (0.25, 0.5, 0.75))
    def test_N_cross_checked_against_quadrature(self, alpha, s):
        ctx = AlphaContext(alpha)
        c = ostrowski_constants(s, ctx)
        h = series_mul(mono(s, ctx), alpha_binomial_series(2, ctx))
        functional = MomentFunctional(ctx, max_grade=12, nodes=384)
        numeric = fractal_integral_numeric(h.evaluate, functional)
        assert numeric == pytest.approx(c.N, abs=1e-6)

    def test_s_validation(self):
        with pytest.raises(ValueError):
            ostrowski_constants(0.0, CTX1)
        with pytest.raises(ValueError):
            ostrowski_constants(1.2, CTX1)


class TestHermiteHadamard:
    def test_classical_square(self):
        rep = eval_ghh(mono(2.0, CTX1), 0.0, 1.0)
        assert rep.holds
        assert "left=0.25" in rep.notes
        assert "right=0.5" in rep.notes
        assert "mid=0.333333" in rep.notes

    def test_half_alpha_example(self):
        rep = eval_ghh(mono(2.0, CTX_HALF), 0.0, 1.0)
        # closed forms: mid = G(1.5) G(2)/G(2.5), right = 2 / 2^0.5 / 2
        mid = G(1.5) * G(2.0) / G(2.5)
        assert rep.holds
        assert f"mid={mid:.6g}"[:10] in rep.notes
        assert "left=0.5 " in rep.notes
        assert abs(mid - 2.0 / 3.0) < 1e-12

    def test_constant_equality_at_alpha_one(self):
        rep = eval_ghh(series_constant(3.3, CTX1), 0.0, 1.0)
        assert rep.holds
        assert abs(rep.slack) <= 1e-12

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            eval_ghh(mono(2.0, CTX1), 1.0, 0.5)

    def test_overflowing_mean_does_not_hold(self):
        # f(b) and the mean overflow to inf while f(mid) stays finite, so the
        # right slack is inf - inf = nan: a NaN must never certify the chain
        rep = eval_ghh(AlphaSeries(((150.0, 1e300),), CTX1), 0.0, 2.0)
        assert math.isnan(rep.slack)
        assert not rep.holds

    @pytest.mark.parametrize(
        "left, mid, right",
        [
            (math.nan, 1.0, 2.0),
            (0.0, 1.0, math.nan),
            (0.0, math.inf, math.inf),
            (math.nan, 0.0, math.nan),
        ],
    )
    def test_nan_slack_binds(self, left, mid, right):
        rep = _binding_row(left, mid, right)
        assert math.isnan(rep.slack)
        assert not rep.holds

    @pytest.mark.parametrize(
        "left, mid, right", [(0.0, 1.0, 3.0), (0.0, 2.0, 3.0), (0.0, 2.0, 1.0), (1.0, 0.0, 3.0)]
    )
    def test_binding_side_has_the_smaller_slack(self, left, mid, right):
        rep = _binding_row(left, mid, right)
        assert rep.slack == min(mid - left, right - mid)
        assert rep.holds == (rep.slack >= -CTX1.slack_tol)


class TestSHH:
    def test_equality_on_right(self):
        # f = x^{s a}, s = a = 1/2: mid and right coincide
        rep = eval_shh(mono(0.5, CTX_HALF), 0.5, 0.0, 1.0)
        assert rep.holds
        left = 2.0 ** (-0.25) * 0.5**0.25 / G(1.5)
        mid = G(1.25) / G(1.75)
        assert f"left={left:.6g}"[:10] in rep.notes
        assert rep.notes.endswith("binding=right")
        assert abs(mid - G(1.25) / G(1.75)) < 1e-15
        assert left == pytest.approx(0.7979, abs=1e-4)
        assert mid == pytest.approx(0.9862, abs=1e-4)

    def test_affine_chain_collapses(self):
        rep = eval_shh(mono(1.0, CTX1), 1.0, 0.0, 2.0)
        assert rep.holds
        assert abs(rep.slack) <= 1e-9

    def test_zero_function(self):
        rep = eval_shh(series_zero(CTX1), 0.5, 0.0, 1.0)
        assert rep.holds
        assert rep.lhs == rep.rhs == 0.0


class TestHoelder:
    def test_equality_for_constants(self):
        ctx = AlphaContext(0.5)
        functional = MomentFunctional(ctx)
        rep = eval_holder(series_constant(1.0, ctx), 2.0, 2.0, 0.0, 1.75, functional)
        expected = 1.75**0.5 / G(1.5)
        assert rep.lhs == pytest.approx(expected, rel=1e-10)
        assert rep.rhs == pytest.approx(expected, rel=1e-10)
        assert rep.holds

    def test_classical_linear_case(self):
        functional = MomentFunctional(CTX1)
        rep = eval_holder_callables(
            lambda t: np.asarray(t, dtype=float),
            lambda t: np.ones_like(np.asarray(t, dtype=float)),
            2.0,
            2.0,
            0.0,
            1.0,
            functional,
        )
        assert rep.lhs == pytest.approx(0.5, abs=1e-10)
        assert rep.rhs == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-10)
        assert rep.holds

    def test_self_pairing_is_equality_for_p_q_two(self):
        ctx = AlphaContext(0.5)
        functional = MomentFunctional(ctx)
        f = mono(1.0, ctx)
        rep = eval_holder(f, 2.0, 2.0, 0.0, 1.0, functional)
        assert abs(rep.slack) <= 1e-8

    def test_conjugacy_enforced(self):
        functional = MomentFunctional(CTX1)
        with pytest.raises(ValueError, match="not conjugate"):
            eval_holder(mono(1.0, CTX1), 2.0, 3.0, 0.0, 1.0, functional)


def _report_bits(rep):
    return tuple(float(v).hex() for v in (rep.lhs, rep.rhs, rep.slack))


def _holder_row(f, functional, a, b, p, q):
    """The registry's holder row of ``f`` at one point."""
    return inequalities.INEQUALITIES["holder"].evaluate(f, functional, a, b, None, None, p, q)


class TestHolderSharing:
    """The registry's holder row is the two-callable reference's row, and a sweep samples |f| once per block."""

    def test_registry_rows_match_the_callable_path_bit_for_bit(self):
        rng = np.random.default_rng(20261019)
        specs = ("mono:2", "ml:7", "poly:1,0,0.5", "series:(0.5,1);(2,-1)")  # the last changes sign at 1
        checked = 0
        for alpha in (0.3, 0.5, 0.8, 1.0):
            ctx = AlphaContext(alpha)
            # two functionals, so a key without the functional would hand one the other's samples
            functionals = (MomentFunctional(ctx), MomentFunctional(ctx, max_grade=8, nodes=40))
            for spec in specs:
                f = parse_function_spec(spec).realize(ctx)
                a = 0.0 if spec.startswith("series") else float(rng.uniform(0.0, 1.0))
                # intervals sharing a, so a key without b would mix them up
                intervals = [(0.0, 1.0), (a, a + 0.75), (a, a + float(rng.uniform(1.0, 2.5)))]
                for functional in functionals:
                    for lo, hi in intervals:
                        for p in (2.0, *rng.uniform(1.2, 4.0, size=2)):
                            p = float(p)
                            q = p / (p - 1.0)
                            fresh = parse_function_spec(spec).realize(ctx)
                            want = eval_holder_callables(fresh.evaluate, fresh.evaluate, p, q, lo, hi, functional)
                            got = _holder_row(f, functional, lo, hi, p, q)
                            assert _report_bits(got) == _report_bits(want), (alpha, spec, functional.nodes, lo, hi, p)
                            assert got == want
                            checked += 1
        assert checked == 4 * 4 * 2 * 3 * 3

    @pytest.mark.parametrize("k", (1, 4))
    def test_one_array_evaluation_per_series_and_interval(self, k, monkeypatch):
        calls = []
        evaluate = AlphaSeries.evaluate

        def counted(self, x):
            if not isinstance(x, float):
                calls.append(self.terms)
            return evaluate(self, x)

        monkeypatch.setattr(AlphaSeries, "evaluate", counted)
        pairs = [[p, p / (p - 1.0)] for p in (2.0, 3.0, 1.5, 4.0)[:k]]
        cfg = SweepConfig.from_dict({
            "alphas": [0.5, 1.0],
            "functions": ["mono:2", "series:(0.5,1);(2,-1)"],
            "inequalities": ["holder"],
            "intervals": [[0.0, 1.0], [0.5, 2.0], [0.5, 1.25]],
            "pq_pairs": pairs,
        })
        rows = run_sweep(cfg)
        assert len(rows) == 2 * 2 * 3 * k
        assert not any(r.notes for r in rows)
        assert len(calls) == 2 * 2 * 3  # per (alpha, function, interval), whatever k is

    def test_a_non_finite_sample_raises_on_every_row_and_caches_nothing(self):
        ctx = AlphaContext(0.5)
        functional = MomentFunctional(ctx)
        # finite terms whose sum overflows everywhere on the grid
        f = AlphaSeries(((0.0, 1e308), (1.0, 1e308)), ctx)
        with np.errstate(over="ignore"):
            for p in (2.0, 3.0, 1.5):
                with pytest.raises(QuadratureError, match="non-finite"):
                    _holder_row(f, functional, 0.5, 2.0, p, p / (p - 1.0))
                assert not [key for key in f._memo if key[0] == "holder"]

    def test_two_different_callables_are_each_sampled_once(self):
        ctx = AlphaContext(0.5)
        functional = MomentFunctional(ctx)
        f = mono(2.0, ctx)
        seen = {"f": 0, "g": 0}

        def counting(name, fn):
            def sample(t):
                seen[name] += 1
                return fn(t)
            return sample

        cf, cg = counting("f", f.evaluate), counting("g", f.evaluate)
        reps = [eval_holder_callables(cf, cg, p, p / (p - 1.0), 0.5, 2.0, functional) for p in (2.0, 3.0)]
        assert seen == {"f": 2, "g": 2}
        assert not [key for key in f._memo if key[0] == "holder"]
        for rep, p in zip(reps, (2.0, 3.0)):
            assert _report_bits(rep) == _report_bits(eval_holder(f, p, p / (p - 1.0), 0.5, 2.0, functional))

    def test_a_series_with_another_argument_is_rejected(self):
        # the two-callable reference takes callables only: a series is not one
        ctx = AlphaContext(0.5)
        functional = MomentFunctional(ctx)
        f = mono(2.0, ctx)
        for g in (f.evaluate, mono(2.0, ctx)):
            with pytest.raises(ValueError, match="an array"):
                eval_holder_callables(f, g, 2.0, 2.0, 0.5, 2.0, functional)


class TestOstrowskiClassic:
    def test_square_at_midpoint(self):
        rep = eval_ostrowski_classic(mono(2.0, CTX1), 0.5, 0.0, 1.0)
        assert rep.lhs == pytest.approx(1.0 / 12.0, rel=1e-10)
        assert rep.rhs == pytest.approx(0.5, rel=1e-10)
        assert rep.holds

    def test_midpoint_reduces_to_classical_constant(self):
        # at x = (a+b)/2 and alpha = 1 the bound is (b-a) ||f'|| / 4
        f = AlphaSeries(((0.0, 1.0), (3.0, 2.0)), CTX1)
        a, b = 0.5, 2.0
        rep = eval_ostrowski_classic(f, (a + b) / 2, a, b)
        theta = sup_abs(AlphaSeries(((2.0, 6.0),), CTX1), a, b)
        assert rep.rhs == pytest.approx((b - a) * theta / 4.0, rel=1e-9)

    def test_constant_function(self):
        rep = eval_ostrowski_classic(series_constant(2.0, CTX_HALF), 0.3, 0.0, 1.0)
        assert rep.lhs <= 1e-14
        assert rep.holds

    def test_x_outside_interval(self):
        with pytest.raises(ValueError):
            eval_ostrowski_classic(mono(2.0, CTX1), 1.5, 0.0, 1.0)


class TestIdentityResidual:
    def test_classical_cubic(self):
        functional = MomentFunctional(CTX1)
        assert identity_residual(mono(3.0, CTX1), 0.5, 0.0, 1.0, functional) <= 1e-9

    def test_half_alpha_consistency_gap(self):
        functional = MomentFunctional(CTX_HALF)
        got = identity_residual(mono(1.0, CTX_HALF), 1.0, 0.0, 1.0, functional)
        oracle = 2.0 * G(1.5) / G(2.0) - 1.0 / G(1.5)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.6441, abs=1e-4)

    def test_constant_function(self):
        functional = MomentFunctional(CTX1)
        f = series_constant(4.2, CTX1)
        for x in (0.0, 0.3, 1.0):
            assert identity_residual(f, x, 0.0, 1.0, functional) <= 1e-12

    def test_endpoint_with_singular_second_derivative(self):
        # f'' of x^{1.5} blows up at 0; the x = a term must drop cleanly
        ctx = AlphaContext(0.7)
        f = mono(1.5, ctx)
        functional = MomentFunctional(ctx)
        for x in (0.0, 0.5, 1.0):
            assert math.isfinite(identity_residual(f, x, 0.0, 1.0, functional))

    def test_generic_segment_against_full_classical_oracle(self):
        # alpha = 1, f = x^{2.5} on [0.5, 2]: both sides rebuilt with scipy
        f = mono(2.5, CTX1)
        a, b, x = 0.5, 2.0, 0.875
        functional = MomentFunctional(CTX1)
        got = identity_residual(f, x, a, b, functional)
        intf, _ = quad(lambda u: u**2.5, a, b)
        lhs = intf / (b - a) - x**2.5 + (2 * x - a - b) * 2.5 * x**1.5 / 2.0
        f2 = lambda u: 3.75 * u**0.5
        ia, _ = quad(lambda t: t**2 * f2(t * x + (1 - t) * a), 0, 1)
        ib, _ = quad(lambda t: t**2 * f2(t * x + (1 - t) * b), 0, 1)
        rhs = ((x - a) ** 3 * ia + (b - x) ** 3 * ib) / (2.0 * (b - a))
        assert got == pytest.approx(abs(lhs - rhs), abs=1e-10)
        assert got <= 1e-9


class TestTheorem1:
    def test_equality_point(self):
        rep = eval_thm1(mono(3.0, CTX1), 1.0, 0.5, 0.0, 1.0)
        assert rep.lhs == pytest.approx(0.125, abs=1e-12)
        assert rep.rhs == pytest.approx(0.125, abs=1e-12)
        assert rep.holds

    def test_degenerate_second_derivative(self):
        f = AlphaSeries(((0.0, 2.0), (1.0, -0.5)), CTX1)
        rep = eval_thm1(f, 0.5, 0.25, 0.0, 1.0)
        assert rep.rhs == 0.0
        assert rep.lhs <= 1e-12

    def test_fractional_power_against_classical_oracle(self):
        # f = x^{2.5}, s = 1/2: lhs and rhs recomputed classically
        rep = eval_thm1(mono(2.5, CTX1), 0.5, 0.5, 0.0, 1.0)
        intf = 1.0 / 3.5  # antiderivative u^3.5 / 3.5 on [0, 1]
        lhs = abs(intf - 0.5**2.5)
        M = G(3.5) / G(4.5)
        N, _ = quad(lambda t: t**2 * math.sqrt(1 - t), 0, 1)
        d = lambda u: 3.75 * math.sqrt(u)
        rhs = ((0.5**3) * (M * d(0.5) + N * d(0.0)) + (0.5**3) * (M * d(0.5) + N * d(1.0))) / 2.0
        assert rep.lhs == pytest.approx(lhs, rel=1e-10)
        assert rep.rhs == pytest.approx(rhs, rel=1e-7)
        assert rep.holds
        # frozen oracle values
        assert rep.lhs == pytest.approx(0.1089375904, abs=1e-9)
        assert rep.rhs == pytest.approx(0.1304160868, abs=1e-9)

    def test_hypothesis_note(self):
        ok = eval_thm1(mono(2.5, CTX1), 0.5, 0.5, 0.0, 1.0, hypothesis_grid=24)
        assert "hypothesis=verified" in ok.notes
        bad = eval_thm1(mono(2.5, CTX1), 1.0, 0.5, 0.0, 1.0, hypothesis_grid=24)
        assert "hypothesis=failed" in bad.notes


class TestPerSeriesCache:
    @staticmethod
    def derived(f):
        f2 = lf_derivative_n(f, 2)
        return (
            lf_derivative(f),
            f2,
            lf_integral(f, 0.2, 1.7),
            sup_abs(f2, 0.0, 2.0),
            sup_abs(f2, 0.5, 2.0, 257),
            _hypothesis_note(f, 0.5, 0.0, 1.0, 12),
            _hypothesis_note(f, 1.0, 0.0, 1.0, 12, power=2.0),
        )

    def test_cached_values_match_a_fresh_copy(self):
        f = AlphaSeries(((2.0, 1.0), (2.5, 1.0), (4.0, 0.25)), CTX1)
        first = self.derived(f)
        assert self.derived(f) == first  # served from the cache
        assert self.derived(AlphaSeries(f.terms, f.ctx)) == first
        assert first[5:] == ("hypothesis=verified", "hypothesis=failed(gap=1.65)")

    def test_filled_cache_is_invisible(self):
        f = parse_function_spec("ml:7").realize(CTX_HALF)
        fresh = AlphaSeries(f.terms, f.ctx)
        self.derived(f)
        assert f._memo and not fresh._memo
        assert f == fresh
        assert hash(f) == hash(fresh)
        assert repr(f) == repr(fresh)

    def test_hypothesis_note_is_shared_across_points(self):
        f = mono(2.5, CTX1)
        reps = [eval_thm1(f, 1.0, x, 0.0, 1.0, hypothesis_grid=24) for x in (0.25, 0.5)]
        assert reps[0].notes == reps[1].notes
        assert reps[0].notes.startswith("hypothesis=failed")
        assert eval_thm1(mono(2.5, CTX1), 1.0, 0.5, 0.0, 1.0, hypothesis_grid=24) == reps[1]


class TestTheorem2:
    def test_cubic_point(self):
        rep = eval_thm2(mono(3.0, CTX1), 1.0, 2.0, 2.0, 0.5, 0.0, 1.0)
        assert rep.lhs == pytest.approx(0.125, abs=1e-12)
        # classical oracle: sqrt(1/10) (3/8 + sqrt(45)/8) / 2
        oracle = math.sqrt(0.1) * (3.0 / 8.0 + math.sqrt(45.0) / 8.0) / 2.0
        assert rep.rhs == pytest.approx(oracle, rel=1e-12)
        assert rep.rhs == pytest.approx(0.19188, abs=1e-4)

    def test_degenerate_second_derivative(self):
        f = mono(1.0, CTX1, 4.0)
        rep = eval_thm2(f, 0.5, 2.0, 2.0, 0.3, 0.0, 1.0)
        assert rep.rhs == 0.0
        assert rep.lhs <= 1e-12

    def test_large_q_approaches_max_form(self):
        f = mono(3.0, CTX1)
        d = lambda u: 6.0 * u
        # q -> inf limit: p -> 1, the s factor -> 1, brackets -> max terms
        limit = (G(3) / G(4)) * ((0.5**3) * max(d(0.5), d(0.0)) + (0.5**3) * max(d(0.5), d(1.0))) / 2.0
        dist = []
        for q in (2.0, 64.0):
            p = q / (q - 1.0)
            rep = eval_thm2(f, 1.0, p, q, 0.5, 0.0, 1.0)
            dist.append(abs(rep.rhs - limit))
        assert dist[1] < dist[0]
        assert dist[1] < 5e-3


class TestTheorem3:
    def test_q_one_collapses_to_theorem_one(self):
        for f, s, x, a, b in (
            (mono(3.0, CTX1), 0.5, 0.3, 0.0, 1.0),
            (mono(4.0, CTX1), 0.25, 1.7, 0.5, 2.0),
            (mono(3.0, CTX_HALF), 0.75, 0.9, 0.0, 1.0),
        ):
            r3 = eval_thm3(f, s, 1.0, x, a, b)
            r1 = eval_thm1(f, s, x, a, b)
            assert r3.rhs == pytest.approx(r1.rhs, abs=1e-12)
            assert r3.lhs == r1.lhs

    def test_cubic_point(self):
        rep = eval_thm3(mono(3.0, CTX1), 1.0, 2.0, 0.5, 0.0, 1.0)
        oracle = (1.0 / 3.0) ** 0.5 * ((1 / 8) * (9.0 / 4.0) ** 0.5 + (1 / 8) * (9.0 / 4.0 + 3.0) ** 0.5) / 2.0
        assert rep.rhs == pytest.approx(oracle, rel=1e-12)
        assert rep.rhs == pytest.approx(0.1368, abs=1e-4)
        assert rep.holds

    def test_q_below_one_rejected(self):
        with pytest.raises(ValueError):
            eval_thm3(mono(3.0, CTX1), 0.5, 0.5, 0.5, 0.0, 1.0)

    def test_degenerate_second_derivative(self):
        f = AlphaSeries(((0.0, 1.0), (1.0, 2.0)), CTX1)
        rep = eval_thm3(f, 0.5, 2.0, 0.4, 0.0, 1.0)
        assert rep.rhs == 0.0
        assert rep.lhs <= 1e-12


class TestCorollaries:
    def test_midpoint_dominates_parent_theorem(self):
        f = mono(3.0, CTX1)
        rep = eval_corollary("midpoint-thm1", f, 0.0, 1.0, 1.0)
        parent = eval_thm1(f, 1.0, 0.5, 0.0, 1.0)
        assert rep.rhs >= parent.rhs - 1e-12
        assert rep.holds and parent.holds

    @pytest.mark.parametrize("f_terms", [((3.0, 1.0),), ((4.0, 0.5), (2.0, 1.0))])
    @pytest.mark.parametrize("s", (0.25, 0.5, 1.0))
    def test_midpoint_chain_dominance_all_theorems(self, f_terms, s):
        # the corollary chains only weaken the parent bound at the midpoint
        f = AlphaSeries(f_terms, CTX1)
        a, b = 0.5, 2.0
        xm = (a + b) / 2.0
        assert eval_corollary("midpoint-thm1", f, a, b, s).rhs >= eval_thm1(f, s, xm, a, b).rhs - 1e-12
        assert (
            eval_corollary("midpoint-thm2", f, a, b, s, p=2.0, q=2.0).rhs
            >= eval_thm2(f, s, 2.0, 2.0, xm, a, b).rhs - 1e-12
        )
        assert (
            eval_corollary("midpoint-thm3", f, a, b, s, q=2.0).rhs
            >= eval_thm3(f, s, 2.0, xm, a, b).rhs - 1e-12
        )

    def test_theta_form_value(self):
        # 3 Theta (M+N) [(b-a)^2/12 + 0] / Gamma(3) with Theta = 6
        rep = eval_corollary("theta-thm1", mono(3.0, CTX1), 0.0, 1.0, 1.0, x=0.5)
        assert rep.rhs == pytest.approx(0.25, rel=1e-10)
        assert rep.lhs == pytest.approx(0.125, abs=1e-12)
        assert rep.holds

    def test_midpoint_theta_collapse_at_q_one(self):
        f = mono(4.0, CTX_HALF)
        r3 = eval_corollary("midpoint-theta-thm3", f, 0.0, 1.0, 0.5, q=1.0)
        r1 = eval_corollary("midpoint-theta-thm1", f, 0.0, 1.0, 0.5)
        assert r3.rhs == pytest.approx(r1.rhs, abs=1e-12)
        r3m = eval_corollary("midpoint-thm3", f, 0.0, 1.0, 0.5, q=1.0)
        r1m = eval_corollary("midpoint-thm1", f, 0.0, 1.0, 0.5)
        assert r3m.rhs == pytest.approx(r1m.rhs, abs=1e-12)

    @pytest.mark.parametrize("variant", COROLLARY_VARIANTS)
    def test_all_variants_hold_for_classical_cubic(self, variant):
        kwargs = {}
        if variant.endswith("thm2"):
            kwargs = {"p": 2.0, "q": 2.0}
        elif variant.endswith("thm3"):
            kwargs = {"q": 2.0}
        if "theta" in variant and "midpoint" not in variant:
            kwargs["x"] = 0.25
        rep = eval_corollary(variant, mono(3.0, CTX1), 0.0, 1.0, 0.75, **kwargs)
        assert rep.holds
        assert rep.ineq == variant

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            eval_corollary("median-thm1", mono(3.0, CTX1), 0.0, 1.0, 0.5)

    def test_theta_needs_x(self):
        with pytest.raises(ValueError, match="needs the evaluation point"):
            eval_corollary("theta-thm1", mono(3.0, CTX1), 0.0, 1.0, 0.5)

    def test_thm2_needs_conjugates(self):
        with pytest.raises(ValueError):
            eval_corollary("midpoint-thm2", mono(3.0, CTX1), 0.0, 1.0, 0.5)


@pytest.mark.parametrize("alpha", (0.3, 0.5, 0.8, 1.0))
def test_bound_chain_through_absolute_moments(alpha):
    """The modulus and s-convexity steps of the bound derivation stay valid.

    With the moment functional realized by a positive kernel, |J[g]| <= J[|g|]
    and the integrated pointwise s-convexity bound hold at *every* alpha:
    |signed moments| <= absolute moments <= theorem rhs.  The only step that
    breaks below alpha = 1 is the integral identity itself, so the chain
    reaches the Ostrowski left side exactly in the classical limit.
    """
    from alphaineq.convexity import check_s_convex_second
    from alphaineq.inequalities import _ostrowski_lhs
    from alphaineq.quadrature import composed_moment
    from alphaineq.series import lf_derivative_n

    ctx = AlphaContext(alpha)
    functional = MomentFunctional(ctx)
    a, b = 0.25, 1.5

    def weighted(f2, x, absolute):
        out = 0.0
        for e, w in ((a, abs(x - a) ** alpha), (b, abs(b - x) ** alpha)):
            if x != e:
                out += w**3 * composed_moment(f2, 2.0, x, e, functional, absolute=absolute)
        return out / (G(1.0 + 2.0 * alpha) * (b - a) ** alpha)

    for grade in (3.0, 4.0):
        f = mono(grade, ctx)
        f2 = lf_derivative_n(f, 2)
        for s in (0.25, 0.5, 0.75):
            cert = check_s_convex_second(
                lambda u: np.abs(f2.evaluate(u)), s, a, b, 24, ctx
            )
            if not cert.holds_on_grid:
                continue
            for x in np.linspace(a, b, 5):
                x = float(x)
                signed = abs(weighted(f2, x, absolute=False))
                middle = weighted(f2, x, absolute=True)
                rhs = eval_thm1(f, s, x, a, b).rhs
                assert signed <= middle + 1e-7
                assert middle <= rhs + 1e-7
                if alpha == 1.0:
                    assert _ostrowski_lhs(f, x, a, b) <= middle + 1e-7


def test_report_integrity_across_evaluators():
    functional = MomentFunctional(CTX1)
    f = parse_function_spec("poly:0,0,1,0.5").realize(CTX1)
    reports = [
        eval_ghh(f, 0.25, 1.5),
        eval_shh(f, 0.5, 0.25, 1.5),
        eval_holder(f, 3.0, 1.5, 0.25, 1.5, functional),
        eval_ostrowski_classic(f, 0.8, 0.25, 1.5),
        eval_thm1(f, 0.5, 0.8, 0.25, 1.5),
        eval_thm2(f, 0.5, 2.0, 2.0, 0.8, 0.25, 1.5),
        eval_thm3(f, 0.5, 2.0, 0.8, 0.25, 1.5),
        eval_corollary("theta-thm3", f, 0.25, 1.5, 0.5, q=2.0, x=0.8),
    ]
    for rep in reports:
        assert rep.slack == rep.rhs - rep.lhs
        assert rep.holds == (rep.slack >= -1e-9)
        assert rep.a == 0.25 and rep.b == 1.5
    # parameters echo the inputs bit-for-bit
    rep = eval_thm2(f, 0.5, 3.0, 1.5, 0.8, 0.25, 1.5)
    assert (rep.s, rep.p, rep.q, rep.x, rep.alpha) == (0.5, 3.0, 1.5, 0.8, 1.0)
    # with_fn builds positionally what replace builds by name
    for rep in reports + [rep]:
        assert rep.with_fn("poly:0,0,1,0.5") == replace(rep, fn="poly:0,0,1,0.5")


def test_sup_abs_refinement():
    # interior maximum away from grid points
    f = AlphaSeries(((1.0, 1.0), (2.0, -0.5031)), CTX1)
    got = sup_abs(f, 0.0, 1.5, grid=33)
    xs = np.linspace(0.0, 1.5, 400001)
    brute = float(np.max(np.abs(f.evaluate(xs))))
    assert got == pytest.approx(brute, rel=1e-6)


def test_sup_abs_is_nan_where_a_sample_is_nan():
    # f'' = 0.75 x**-0.5 - 0.96 x**-0.4 is inf - inf = NaN at x = 0; the NaN once read as 0
    f = parse_function_spec("series:(1.5,1);(1.6,-1)").realize(CTX1)
    f2 = lf_derivative_n(f, 2)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert math.isnan(sup_abs(f2, 0.0, 1.0))
        # theta is NaN, so the theta form's slack is NaN, not the violation -0.1846 that theta = 0 gave
        rep = eval_corollary("theta-thm1", f, 0.0, 1.0, 0.5, x=0.5)
    assert math.isnan(rep.rhs) and math.isnan(rep.slack) and not rep.holds
    assert sup_abs(f2, 1e-9, 1.0) == pytest.approx(1.99e4, rel=1e-3)


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


@pytest.mark.parametrize("n", (3, 33, 1025))
@pytest.mark.parametrize(
    "lo, hi",
    [
        (0.0, 1.0),
        (0.1, 0.7),
        (0.25, 2.75),
        (1.0, 1.0 + 2e-16),  # tiny: a few ulps wide
        (0.3, np.nextafter(0.3, 1.0)),
        (1e-300, 3e-300),
        (0.0, 5e-324),  # the step underflows to zero
        (0.0, 1e300),  # wide
        # across zero, where lo + (hi - lo) != hi and the last point needs setting
        (-0.028459483414117318, 0.21166322448628785),
        (-136.04936684419548, 0.0020155649322356464),
        (2.0, 2.0),
        (np.float64(0.47), np.float64(0.53)),
    ],
)
def test_sup_grid_is_linspace_bit_for_bit(n, lo, hi):
    assert (_bits(_grid([lo], [hi], n)[0]) == _bits(np.linspace(lo, hi, n))).all()


def test_sup_grid_matches_linspace_on_seeded_intervals():
    # all 300 intervals as the rows of one grid, each row its own linspace
    rng = np.random.default_rng(8)
    los = rng.uniform(-3.0, 3.0, 300).tolist()
    his = [lo + width for lo, width in zip(los, 10.0 ** rng.uniform(-15.0, 2.0, 300))]
    los[7], his[7] = 0.0, 5e-324  # a row whose step underflows, among rows whose step does not
    for n in (3, 33, 1025):
        xs = _grid(los, his, n)
        for row, lo, hi in zip(xs, los, his):
            assert (_bits(row) == _bits(np.linspace(lo, hi, n))).all()


class TestThetaOnlyWhereRead:
    # rows of ml:6 at alpha = 0.5 on [0.25, 1.75], s = 0.5, recorded before
    # the midpoint forms stopped computing theta
    ARGS = {"midpoint-thm1": {}, "midpoint-thm2": {"p": 3.0, "q": 1.5}, "midpoint-thm3": {"q": 1.5}}
    RHS = {
        "midpoint-thm1": 7.233660545491792,
        "midpoint-thm2": 7.958730575101799,
        "midpoint-thm3": 6.829044730545626,
    }

    @staticmethod
    def counting_sup(monkeypatch):
        calls = []
        real = inequalities.sup_abs

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(inequalities, "sup_abs", counted)
        return calls

    @pytest.mark.parametrize("variant", ["midpoint-thm1", "midpoint-thm2", "midpoint-thm3"])
    def test_midpoint_forms_make_no_sup_call(self, monkeypatch, variant):
        calls = self.counting_sup(monkeypatch)
        f = parse_function_spec("ml:6").realize(CTX_HALF)
        rep = eval_corollary(variant, f, 0.25, 1.75, 0.5, **self.ARGS[variant])
        assert calls == []
        assert rep.lhs == 0.9850778969632596 and rep.rhs == self.RHS[variant]
        assert not any(key[0] == "sup" for key in lf_derivative_n(f, 2)._memo)

    @pytest.mark.parametrize("variant", [v for v in COROLLARY_VARIANTS if "theta" in v])
    def test_theta_forms_still_compute_theta(self, monkeypatch, variant):
        calls = self.counting_sup(monkeypatch)
        q = None if variant.endswith("thm1") else 1.5
        p = 3.0 if variant.endswith("thm2") else None
        f = parse_function_spec("ml:6").realize(CTX_HALF)
        eval_corollary(variant, f, 0.25, 1.75, 0.5, p=p, q=q, x=0.6)
        assert len(calls) == 1

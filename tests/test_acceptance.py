"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and nowhere else; every expected value is either
a frozen literal from an independent derivation or recomputed inline by an
oracle that does not share code with the path under test.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from alphaineq.alphanum import AlphaContext, gamma
from alphaineq.cli import main
from alphaineq.convexity import check_generalized_convex, check_s_convex_second
from alphaineq.harness import (
    SweepConfig,
    falsify,
    parse_function_spec,
    render_report,
    run_sweep,
)
from alphaineq.inequalities import (
    eval_corollary,
    eval_ghh,
    eval_holder,
    eval_ostrowski_classic,
    eval_shh,
    eval_thm1,
    eval_thm2,
    eval_thm3,
    identity_residual,
    ostrowski_constants,
)
from alphaineq.quadrature import MomentFunctional, fractal_integral_numeric
from alphaineq.series import AlphaSeries, lf_derivative, lf_derivative_n, lf_integral
from reference import (
    AlphaReal,
    alpha_add,
    alpha_binomial_series,
    alpha_mul,
    byparts_residual,
    mittag_leffler,
    series_mul,
)

G = math.gamma
_SUITE_START = time.perf_counter()


@contextmanager
def criterion(number, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"ACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_field_axioms_and_order():
    with criterion(1, "alpha-field axioms"):
        # CPU time, not wall time, so a loaded machine cannot fail the bound
        start = time.process_time()
        rng = np.random.default_rng(101)
        nums = rng.integers(-2000, 2001, size=(10_000, 3)).astype(float) / 16.0
        for a, b, c in nums:
            x, y, z = AlphaReal(a), AlphaReal(b), AlphaReal(c)
            assert alpha_add(alpha_add(x, y), z).base - alpha_add(x, alpha_add(y, z)).base == 0.0
            assert alpha_add(x, y).base == alpha_add(y, x).base
            assert alpha_mul(x, y).base == alpha_mul(y, x).base
            assert alpha_mul(alpha_mul(x, y), z).base - alpha_mul(x, alpha_mul(y, z)).base == 0.0
            dist = alpha_mul(x, alpha_add(y, z)).base
            split = alpha_add(alpha_mul(x, y), alpha_mul(x, z)).base
            assert abs(dist - split) <= 1e-12 * max(1.0, abs(dist))
            assert alpha_add(x, AlphaReal(0.0)).base == a
            assert alpha_add(x, AlphaReal(-a)).base == 0.0
            assert alpha_mul(x, AlphaReal(1.0)).base == a
            if a != 0.0:
                assert abs(alpha_mul(x, AlphaReal(1.0 / a)).base - 1.0) <= 1e-12
        pairs = rng.uniform(-100.0, 100.0, size=(10_000, 2))
        for a, b in pairs:
            assert (AlphaReal(a) < AlphaReal(b)) == (a < b)
        elapsed = time.process_time() - start
        assert elapsed < 1.0, f"field-axiom checks took {elapsed:.2f} s of CPU time"


def test_criterion_2_gamma_accuracy():
    with criterion(2, "Gamma spot values"):
        known = {
            0.5: math.sqrt(math.pi),
            1.0: 1.0,
            1.5: math.sqrt(math.pi) / 2.0,
            2.0: 1.0,
            3.0: 2.0,
            4.0: 6.0,
            4.5: 11.631728396567448,
        }
        for x, ref in known.items():
            assert abs(gamma(x) - ref) / ref <= 1e-10


def test_criterion_3_antidifferentiation():
    with criterion(3, "term-wise anti-differentiation"):
        for k, alpha, (a, b) in itertools.product(
            (0.5, 1.0, 2.0, 3.5), (0.3, 0.5, 0.8, 1.0), ((0.0, 1.0), (0.5, 2.0))
        ):
            ctx = AlphaContext(alpha)
            got = lf_integral(lf_derivative(AlphaSeries.monomial(k, ctx)), a, b)
            expected = b ** (k * alpha) - a ** (k * alpha)
            assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))


def test_criterion_4_moment_and_constant_cross_checks():
    with criterion(4, "moment/constant cross-checks"):
        for alpha in (0.3, 0.5, 0.8, 1.0):
            ctx = AlphaContext(alpha)
            small = MomentFunctional(ctx)
            wide = MomentFunctional(ctx, max_grade=12, nodes=384)
            for s in (0.25, 0.5, 0.75):
                # t^{2a} t^{s a}: single monomial of grade s+2
                closed = G(1 + (s + 2) * alpha) / G(1 + (s + 3) * alpha)
                numeric = fractal_integral_numeric(
                    lambda t: t ** ((s + 2) * alpha), small
                )
                assert abs(numeric - closed) <= 1e-6
                # t^{2a} (1-t)^{s a} in its reflected fractal normal form
                h = series_mul(AlphaSeries.monomial(s, ctx), alpha_binomial_series(2, ctx))
                closed_n = ostrowski_constants(s, ctx).N
                numeric_n = fractal_integral_numeric(h.evaluate, wide)
                assert abs(numeric_n - closed_n) <= 1e-6
        c = ostrowski_constants(1.0, AlphaContext(1.0))
        assert abs(c.M - 0.25) <= 1e-10
        assert abs(c.N - 1.0 / 12.0) <= 1e-10


def _suite_functions(ctx):
    return [parse_function_spec(t).realize(ctx) for t in
            ("mono:2", "mono:3", "mono:4", "mono:2.5", "ml:9")]


def test_criterion_5_classical_soundness_suite():
    with criterion(5, "alpha=1 classical soundness"):
        start = time.perf_counter()
        ctx = AlphaContext(1.0)
        functional = MomentFunctional(ctx)
        s_values = (0.25, 0.5, 0.75, 1.0)
        pq_pairs = ((2.0, 2.0), (3.0, 1.5), (4.0, 4.0 / 3.0))
        intervals = ((0.0, 1.0), (0.5, 2.0))
        checked = 0
        for f in _suite_functions(ctx):
            f2 = lf_derivative_n(f, 2)
            for (a, b) in intervals:
                xs = np.linspace(a, b, 9)
                # unconditional classical facts for convex nonnegative f
                for rep in (eval_ghh(f, a, b),):
                    assert rep.holds and rep.slack >= -1e-9, rep
                    checked += 1
                gate_plain = {}
                gate_power = {}
                for s in s_values:
                    gate_plain[s] = check_s_convex_second(
                        lambda u: np.abs(f2.evaluate(u)), s, a, b, 24, ctx
                    ).holds_on_grid
                    for (_, q) in pq_pairs:
                        gate_power[(s, q)] = check_s_convex_second(
                            lambda u: np.abs(f2.evaluate(u)) ** q, s, a, b, 24, ctx
                        ).holds_on_grid
                for s in s_values:
                    rep = eval_shh(f, s, a, b)
                    assert rep.holds and rep.slack >= -1e-9, rep
                    checked += 1
                for (p, q) in pq_pairs:
                    rep = eval_holder(f, p, q, a, b, functional)
                    assert rep.holds and rep.slack >= -1e-9, rep
                    checked += 1
                for x in xs:
                    rep = eval_ostrowski_classic(f, float(x), a, b)
                    assert rep.holds and rep.slack >= -1e-9, rep
                    assert identity_residual(f, float(x), a, b, functional) <= 1e-9
                    checked += 2
                for s in s_values:
                    if gate_plain[s]:
                        for x in xs:
                            rep = eval_thm1(f, s, float(x), a, b)
                            assert rep.holds and rep.slack >= -1e-9, rep
                            checked += 1
                            rep = eval_corollary("theta-thm1", f, a, b, s, x=float(x))
                            assert rep.holds and rep.slack >= -1e-9, rep
                            checked += 1
                        for variant in ("midpoint-thm1", "midpoint-theta-thm1"):
                            rep = eval_corollary(variant, f, a, b, s)
                            assert rep.holds and rep.slack >= -1e-9, rep
                            checked += 1
                    for (p, q) in pq_pairs:
                        if not gate_power[(s, q)]:
                            continue
                        for x in xs:
                            rep = eval_thm2(f, s, p, q, float(x), a, b)
                            assert rep.holds and rep.slack >= -1e-9, rep
                            rep = eval_thm3(f, s, q, float(x), a, b)
                            assert rep.holds and rep.slack >= -1e-9, rep
                            rep = eval_corollary("theta-thm2", f, a, b, s, p=p, q=q, x=float(x))
                            assert rep.holds and rep.slack >= -1e-9, rep
                            rep = eval_corollary("theta-thm3", f, a, b, s, q=q, x=float(x))
                            assert rep.holds and rep.slack >= -1e-9, rep
                            checked += 4
                        for variant in ("midpoint-thm2", "midpoint-theta-thm2"):
                            rep = eval_corollary(variant, f, a, b, s, p=p, q=q)
                            assert rep.holds and rep.slack >= -1e-9, rep
                            checked += 1
                        for variant in ("midpoint-thm3", "midpoint-theta-thm3"):
                            rep = eval_corollary(variant, f, a, b, s, q=q)
                            assert rep.holds and rep.slack >= -1e-9, rep
                            checked += 1
        elapsed = time.perf_counter() - start
        assert checked >= 1000, f"only {checked} parameter points"
        assert elapsed < 30.0, f"soundness suite took {elapsed:.1f} s"
        print(f"criterion 5: {checked} parameter points in {elapsed:.1f} s")


def test_criterion_6_equality_spot_values():
    with criterion(6, "equality spot values"):
        ctx = AlphaContext(1.0)
        cubic = AlphaSeries.monomial(3.0, ctx)
        rep = eval_thm1(cubic, 1.0, 0.5, 0.0, 1.0)
        assert abs(rep.lhs - 0.125) <= 1e-12
        assert abs(rep.rhs - 0.125) <= 1e-12
        rep2 = eval_thm2(cubic, 1.0, 2.0, 2.0, 0.5, 0.0, 1.0)
        oracle = math.sqrt(0.1) * (3.0 / 8.0 + math.sqrt(45.0) / 8.0) / 2.0
        assert abs(rep2.rhs - oracle) <= 1e-12
        assert abs(rep2.rhs - 0.19188) <= 1e-4
        for f_text, alpha in (("mono:3", 1.0), ("mono:4", 1.0), ("mono:3", 0.5), ("ml:9", 0.8)):
            actx = AlphaContext(alpha)
            f = parse_function_spec(f_text).realize(actx)
            for s in (0.25, 0.5, 0.75, 1.0):
                for (a, b) in ((0.0, 1.0), (0.5, 2.0)):
                    for x in np.linspace(a, b, 5):
                        r3 = eval_thm3(f, s, 1.0, float(x), a, b)
                        r1 = eval_thm1(f, s, float(x), a, b)
                        assert abs(r3.rhs - r1.rhs) <= 1e-12


def test_criterion_7_consistency_study():
    with criterion(7, "alpha<1 consistency study"):
        ctx = AlphaContext(0.5)
        f = AlphaSeries.monomial(1.0, ctx)
        assert byparts_residual(f, f, 0.0, 1.0) == pytest.approx(math.pi / 2 - 1.0, abs=1e-6)
        oracle = 2.0 * G(1.5) / G(2.0) - 1.0 / G(1.5)
        got = identity_residual(f, 1.0, 0.0, 1.0, MomentFunctional(ctx))
        assert got == pytest.approx(oracle, abs=1e-6)
        assert round(got, 4) == 0.6441
        cfg = SweepConfig(
            alphas=(0.5,),
            functions=(parse_function_spec("mono:1"), parse_function_spec("mono:3")),
            inequalities=("identity", "ghh", "thm1"),
            intervals=((0.0, 1.0),),
            x_fractions=(0.0, 0.5, 1.0),
            s_values=(0.5,),
        )
        rows = run_sweep(cfg)
        assert len(rows) > 0
        flagged = [r for r in rows if not r.holds]
        assert flagged, "consistency sweep must flag the identity gap"
        assert all(math.isfinite(r.lhs) for r in rows), "sweep must not crash"
        render_report(rows, "csv")


def test_criterion_8_mittag_leffler():
    with criterion(8, "Mittag-Leffler values and convexity"):
        assert mittag_leffler(1.0, AlphaContext(1.0), 1e-14) == pytest.approx(math.e, abs=1e-10)
        brute = sum(1.0 / G(1.0 + 0.5 * k) for k in range(200))
        assert mittag_leffler(1.0, AlphaContext(0.5), 1e-13) == pytest.approx(brute, abs=1e-8)
        ctx = AlphaContext(0.5)
        ml = parse_function_spec("ml:40").realize(ctx)
        verdict = check_generalized_convex(ml.evaluate, 0.0, 2.0, 64, ctx)
        assert verdict.holds_on_grid, verdict.witness


def test_criterion_9_determinism_and_exit_codes(tmp_path, capsys):
    with criterion(9, "determinism and exit codes"):
        cfg = SweepConfig(
            alphas=(0.5, 1.0),
            functions=(parse_function_spec("mono:2"), parse_function_spec("ml:9")),
            inequalities=("ghh", "thm1", "identity", "theta-thm3"),
            intervals=((0.0, 1.0), (0.5, 2.0)),
            x_fractions=(0.0, 0.5, 1.0),
            s_values=(0.5, 1.0),
            pq_pairs=((2.0, 2.0),),
        )
        assert render_report(run_sweep(cfg), "csv") == render_report(run_sweep(cfg), "csv")
        family = parse_function_spec("mono:1")
        fcfg = SweepConfig(alphas=(0.5,), functions=(family,), inequalities=("identity",))
        w1 = falsify("identity", family, fcfg, trials=3, seed=5)
        w2 = falsify("identity", family, fcfg, trials=3, seed=5)
        assert render_report([w1], "csv") == render_report([w2], "csv")

        # exit code contract: 0 all-hold, 1 violation, 2 config error
        ok_cfg = tmp_path / "ok.json"
        ok_cfg.write_text(json.dumps({
            "alphas": [1.0], "functions": ["mono:3"], "inequalities": ["thm1"],
            "s_values": [1.0], "x_fractions": [0.5],
        }))
        assert main(["sweep", "--config", str(ok_cfg), "--out", str(tmp_path / "ok.csv")]) == 0
        viol_cfg = tmp_path / "viol.json"
        viol_cfg.write_text(json.dumps({
            "alphas": [0.5], "functions": ["mono:1"], "inequalities": ["identity"],
            "x_fractions": [1.0],
        }))
        assert main(["sweep", "--config", str(viol_cfg), "--out", str(tmp_path / "viol.csv")]) == 1
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text("{broken")
        assert main(["sweep", "--config", str(bad_cfg)]) == 2
        capsys.readouterr()

        elapsed = time.perf_counter() - _SUITE_START
        assert elapsed < 60.0, f"acceptance suite took {elapsed:.1f} s"
        print(f"acceptance total: {elapsed:.1f} s")

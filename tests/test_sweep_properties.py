"""Randomized whole-sweep properties: integrity of every emitted row."""

import math
import time

import numpy as np
import pytest

from alphaineq.harness import (
    INEQUALITY_IDS,
    FunctionSpec,
    SweepConfig,
    expected_row_count,
    parse_function_spec,
    run_sweep,
)

FN_POOL = ("mono:2", "mono:3", "mono:2.5", "poly:1,0,0.5", "series:(1.5,2);(4,0.25)", "ml:7")


def _random_config(rng):
    n_fn = int(rng.integers(1, 4))
    fns = tuple(parse_function_spec(t) for t in rng.choice(FN_POOL, size=n_fn, replace=False))
    alphas = tuple(float(a) for a in rng.choice([0.3, 0.5, 0.8, 1.0], size=int(rng.integers(1, 3)), replace=False))
    ineqs = tuple(str(i) for i in rng.choice(INEQUALITY_IDS, size=int(rng.integers(1, 6)), replace=False))
    a0 = float(rng.uniform(0.0, 1.0))
    b0 = a0 + float(rng.uniform(0.5, 2.0))
    p = float(rng.uniform(1.5, 3.0))
    x_mid = float(rng.uniform(0.1, 0.9))
    s = float(rng.uniform(0.05, 1.0))
    # this draw once seeded the config; it stays so that the RNG stream, and
    # with it every later random config, is unchanged
    rng.integers(0, 1000)
    return SweepConfig(
        alphas=alphas,
        functions=fns,
        inequalities=ineqs,
        intervals=((a0, b0),),
        x_fractions=(0.0, x_mid, 1.0),
        s_values=(s,),
        pq_pairs=((p, p / (p - 1.0)),),
    )


def test_random_sweeps_preserve_row_integrity():
    rng = np.random.default_rng(20250810)
    rows_seen = 0
    for _ in range(12):
        cfg = _random_config(rng)
        rows = run_sweep(cfg)
        assert len(rows) == expected_row_count(cfg)
        for r in rows:
            if r.notes.startswith("error:"):
                assert not r.holds
                continue
            rows_seen += 1
            assert r.slack == r.rhs - r.lhs or (math.isinf(r.rhs) and math.isinf(r.slack))
            assert r.holds == (r.slack >= -cfg.tolerances.slack_tol)
            assert r.ineq in INEQUALITY_IDS
            assert r.alpha in cfg.alphas
    assert rows_seen > 100


def test_alpha_one_random_sweep_is_clean_of_errors():
    # at alpha = 1 every evaluator must at least evaluate; no error rows
    cfg = SweepConfig(
        alphas=(1.0,),
        functions=tuple(parse_function_spec(t) for t in ("mono:3", "ml:7", "poly:1,0,0.5")),
        inequalities=INEQUALITY_IDS,
        intervals=((0.25, 1.75),),
        x_fractions=(0.0, 0.5, 1.0),
        s_values=(0.5,),
        pq_pairs=((2.0, 2.0),),
    )
    rows = run_sweep(cfg)
    assert len(rows) == expected_row_count(cfg)
    assert not [r for r in rows if r.notes.startswith("error:")]


def test_wide_sweep_finishes_quickly():
    cfg = SweepConfig(
        alphas=(0.5, 1.0),
        functions=tuple(parse_function_spec(t) for t in FN_POOL[:4]),
        inequalities=INEQUALITY_IDS,
        intervals=((0.0, 1.0), (0.5, 2.0)),
        x_fractions=(0.1, 0.5, 0.9),
        s_values=(0.25, 0.75),
        pq_pairs=((2.0, 2.0), (3.0, 1.5)),
    )
    start = time.perf_counter()
    rows = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    assert len(rows) == expected_row_count(cfg) == 1456
    assert elapsed < 30.0, f"large sweep took {elapsed:.1f} s"

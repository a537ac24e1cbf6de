"""A sweep evaluates every id block by block, and each row is the row of its point.

Every id has a block evaluator (``inequalities._theorem_block`` for thm1-3
and their nine corollaries, ``_ghh_block``, ``_shh_block``,
``_holder_block``, ``_ostrowski_block`` and ``_identity_block``), which
returns the values of every point of a product of s, (p, q) and x axes;
one builder (``inequalities._build``) makes the rows from them.
``run_sweep`` calls a block once per (alpha, function, id, interval) and
evaluates it one point at a time only when the call raises.  These tests
check, under any numpy version, that every sweep row equals, cell for cell
as ``render_report`` writes it, the ``evaluate_single`` row of its point or
that point's error row; that every block's value at a point is, bit for
bit, that of its one-point block; that a sweep makes one block call per
block and reads each theorem record once per (block, s, p, q); that one
function decides every row's ``holds``; that a field added to the row
record reaches every row a caller gets, since the builder alone makes them;
and that a thm1-3 point whose hypothesis check and left side both raise
raises the check's error.
"""

import math
import random
import struct
import sys
from collections import Counter
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from alphaineq import harness, inequalities
from alphaineq.alphanum import AlphaContext
from alphaineq.harness import (
    INEQUALITY_IDS,
    SweepConfig,
    _axes,
    _error_report,
    _sort_key,
    canonical_id,
    evaluate_single,
    falsify,
    parse_function_spec,
    render_report,
    run_sweep,
)
from alphaineq.inequalities import (
    COROLLARY_VARIANTS,
    INEQUALITIES,
    decide,
    eval_corollary,
    eval_ghh,
    eval_holder,
    eval_ostrowski_classic,
    eval_shh,
    eval_thm1,
    eval_thm2,
    eval_thm3,
)
from alphaineq.quadrature import MomentFunctional

CONFIG = Path(__file__).resolve().parents[1] / "bench" / "reference_sweep.json"

#: The theorem family: thm1-3 and their corollaries.
FAMILY = tuple(i for i in INEQUALITY_IDS if "thm" in i)

#: The ids a sweep evaluates block by block.
BLOCKED = tuple(i for i, rec in INEQUALITIES.items() if rec.block is not None)

#: The block evaluator of each id that is not in the theorem family, by its name in ``inequalities``.
OTHER_BLOCKS = {
    "ghh": "_ghh_block",
    "shh": "_shh_block",
    "holder": "_holder_block",
    "ostrowski": "_ostrowski_block",
    "identity": "_identity_block",
}


def test_every_id_is_a_block():
    assert len(FAMILY) == 12
    assert BLOCKED == INEQUALITY_IDS
    assert set(OTHER_BLOCKS) == set(INEQUALITY_IDS) - set(FAMILY)


@np.errstate(over="ignore", invalid="ignore")
def _pointwise(cfg):
    """The rows of ``cfg`` one point at a time, sorted as ``run_sweep`` sorts them.

    Each point's row is its ``evaluate_single`` row, or the error row of
    what that raises, on one series per (alpha, function), under the numpy
    error state of ``run_sweep``.
    """
    rows = []
    for alpha in cfg.alphas:
        functional = MomentFunctional(cfg.context(alpha))
        for spec in cfg.functions:
            series, fn = spec.realize(functional.ctx), spec.canonical()
            for ineq in map(canonical_id, cfg.inequalities):
                s_axis, pq_axis, x_axis = _axes(cfg, ineq)
                for a, b in cfg.intervals:
                    for s, (p, q), frac in product(s_axis, pq_axis, x_axis):
                        x = None if frac is None else a + frac * (b - a)
                        try:
                            rep = evaluate_single(ineq, series, functional, a, b, x, s, p, q, fn)
                        except Exception as exc:
                            rep = _error_report(ineq, functional.ctx, exc, s, p, q, a, b, x, fn)
                        rows.append(rep)
    return sorted(rows, key=_sort_key)


def _assert_same_cells(got, want):
    assert len(got) == len(want)
    for fmt in ("csv", "json"):
        got_lines = render_report(got, fmt).splitlines()
        want_lines = render_report(want, fmt).splitlines()
        diff = next((i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w), None)
        assert diff is None, (fmt, got_lines[diff], want_lines[diff])
        assert len(got_lines) == len(want_lines)


def test_reference_sweep_rows_are_the_rows_of_their_points():
    cfg = SweepConfig.from_json(CONFIG)
    _assert_same_cells(run_sweep(cfg), _pointwise(cfg))


def _mixed(seed):
    """A seeded config whose blocks meet every way a row can fail or go non-finite.

    One block holds a fine (p, q) pair beside p = 200, whose Hoelder factor
    overflows Gamma at alpha 0.5 and 1 but not at 0.3, and beside q = 200,
    whose power of |f''| overflows a double for mono:4 on [0.5, 2.5];
    mono:0.5 has no second derivative; (1.5, 1);(1.6, -1) has a NaN theta
    and NaN rows at x = 0; and the x axis holds both endpoints.
    """
    rng = random.Random(seed)
    p = round(rng.uniform(1.2, 4.0), 6)
    a = round(rng.uniform(0.05, 1.0), 4)
    extra = rng.choice(("mono:2.5", "poly:1,0,0.5", "ml:6", "series:(1.5,2);(4,0.25)"))
    return SweepConfig(
        alphas=(0.3, 0.5, 1.0),
        functions=tuple(parse_function_spec(t) for t in ("mono:0.5", "series:(1.5,1);(1.6,-1)", "mono:4", extra)),
        inequalities=INEQUALITY_IDS,
        intervals=((0.0, 1.0), (0.5, 2.5), (a, a + round(rng.uniform(0.5, 2.0), 4))),
        x_fractions=(0.0, round(rng.uniform(0.05, 0.95), 6), 1.0),
        s_values=(round(rng.uniform(0.05, 0.95), 6), 1.0),
        pq_pairs=((p, p / (p - 1.0)), (200.0, 200.0 / 199.0), (200.0 / 199.0, 200.0)),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mixed_blocks_rows_are_the_rows_of_their_points(seed):
    cfg = _mixed(seed)
    got = run_sweep(cfg)
    _assert_same_cells(got, _pointwise(cfg))
    family = [r for r in got if r.ineq in FAMILY]
    errors = Counter(r.notes.split(":")[1].strip() for r in family if r.notes.startswith("error:"))
    assert errors["GammaPoleError"] and errors["OverflowError"], errors
    messages = {r.notes for r in family if "OverflowError" in r.notes}
    assert "error: OverflowError: math range error" in messages  # Gamma at p = 200
    assert "error: OverflowError: (34, 'Numerical result out of range')" in messages  # |f''|**q at q = 200
    assert any(math.isnan(r.slack) for r in family if not r.notes.startswith("error:"))
    assert {r.x for r in family if r.ineq == "thm1" and r.a == 0.5} >= {0.5, 2.5}


def _cfg(functions):
    return SweepConfig(
        alphas=(0.5, 1.0),
        functions=tuple(parse_function_spec(t) for t in functions),
        inequalities=INEQUALITY_IDS,
        intervals=((0.0, 1.0), (0.5, 2.0)),
        x_fractions=(0.0, 0.5, 1.0),
        s_values=(0.5, 1.0),
        pq_pairs=((2.0, 2.0), (3.0, 1.5)),
    )


def _count(monkeypatch):
    """Count the block calls of every id, one-point ones included, the theorem record reads and the
    ``evaluate_single`` calls of a sweep."""
    blocks, records, singles = Counter(), Counter(), Counter()
    theorem_block, theorem, single = inequalities._theorem_block, inequalities._theorem, harness.evaluate_single

    def counted_theorem_block(ineq, f, a, b, *rest):
        blocks[ineq, f.ctx.alpha, f.terms, a, b] += 1
        return theorem_block(ineq, f, a, b, *rest)

    def counted_block(ineq, block):
        def counted(f, functional, a, b, *axes):
            blocks[ineq, f.ctx.alpha, f.terms, a, b] += 1
            return block(f, functional, a, b, *axes)
        return counted

    def counted_theorem(f, thm, s, p, q):
        records[thm] += 1
        return theorem(f, thm, s, p, q)

    def counted_single(ineq, *args, **kwargs):
        singles[ineq] += 1
        return single(ineq, *args, **kwargs)

    monkeypatch.setattr(inequalities, "_theorem_block", counted_theorem_block)
    for ineq, name in OTHER_BLOCKS.items():
        monkeypatch.setattr(inequalities, name, counted_block(ineq, getattr(inequalities, name)))
    monkeypatch.setattr(inequalities, "_theorem", counted_theorem)
    monkeypatch.setattr(harness, "evaluate_single", counted_single)
    return blocks, records, singles


def test_one_block_call_per_block_and_one_record_read_per_block_s_p_q(monkeypatch):
    cfg = _cfg(("mono:3", "ml:4"))
    blocks, records, singles = _count(monkeypatch)
    rows = run_sweep(cfg)
    assert not any(r.notes.startswith("error:") for r in rows)
    n_s, n_pq = len(cfg.s_values), len(cfg.pq_pairs)
    per_block = {i: n_s * (n_pq if "q" in INEQUALITIES[i].reads else 1) for i in FAMILY}
    expected = Counter()
    for alpha, spec, ineq, (a, b) in product(cfg.alphas, cfg.functions, BLOCKED, cfg.intervals):
        expected[ineq, alpha, spec.realize(AlphaContext(alpha)).terms, a, b] = 1
    assert blocks == expected
    n_blocks = len(cfg.alphas) * len(cfg.functions) * len(cfg.intervals)
    assert sum(records.values()) == n_blocks * sum(per_block.values())
    # no block raised, so no row passed through evaluate_single
    assert not singles


def test_a_raising_block_is_evaluated_one_point_at_a_time(monkeypatch):
    # mono:0.5 has no second derivative, so each of its blocks that reads one
    # raises; |f|*|f| of the constant 1e200 overflows, so only its holder
    # blocks raise
    cfg = _cfg(("mono:3", "mono:0.5", "poly:1e200"))
    big = parse_function_spec("poly:1e200").canonical()
    blocks, _, singles = _count(monkeypatch)
    rows = run_sweep(cfg)
    raising = {(i, "mono:0.5") for i in ("identity",) + FAMILY} | {("holder", big)}
    failed = [r for r in rows if r.notes.startswith("error:")]
    assert {(r.ineq, r.fn) for r in failed} == raising
    assert len(failed) == sum(1 for r in rows if (r.ineq, r.fn) in raising)
    # only the points of a raising block pass through evaluate_single, one call
    # each, and each of those runs its one-point block
    assert set(singles) == {i for i, _ in raising}
    assert sum(singles.values()) == len(failed)
    n_blocks = len(cfg.alphas) * len(cfg.functions) * len(BLOCKED) * len(cfg.intervals)
    assert sum(blocks.values()) == n_blocks + len(failed)


def _value_bits(value):
    lhs, rhs, note = value
    return struct.pack("<dd", lhs, rhs), note


@pytest.mark.parametrize("spec", ["mono:3", "ml:5", "series:(1.5,1);(1.6,-1)"])
@pytest.mark.parametrize("ineq", INEQUALITY_IDS)
@np.errstate(over="ignore", invalid="ignore")
def test_each_value_of_a_block_is_that_of_its_one_point_block(ineq, spec):
    # axes of two values each, read by the id or not, so ghh's and holder's blocks have several points too
    ctx = AlphaContext(0.5)
    functional = MomentFunctional(ctx)
    a, b = 0.25, 1.75
    xs, s_axis, pq_axis = (0.25, 1.0), (0.5, 1.0), ((2.0, 2.0), (3.0, 1.5))
    block = INEQUALITIES[ineq].block
    values = block(parse_function_spec(spec).realize(ctx), functional, a, b, xs, s_axis, pq_axis)
    points = list(product(s_axis, pq_axis, xs))
    assert len(values) == len(points)
    for value, (s, pq, x) in zip(values, points):
        fresh = parse_function_spec(spec).realize(ctx)
        (want,) = block(fresh, functional, a, b, (x,), (s,), (pq,))
        assert _value_bits(value) == _value_bits(want), (s, pq, x)


def test_every_verdict_comes_from_one_helper(monkeypatch):
    # the series has NaN rows at x = 0, which the helper decides as well
    cfg = _cfg(("mono:3", "series:(1.5,1);(1.6,-1)"))
    slacks = []

    def recorded(slack, slack_tol):
        slacks.append(slack)
        return decide(slack, slack_tol)

    monkeypatch.setattr(inequalities, "decide", recorded)
    rows = run_sweep(cfg)
    assert not any(r.notes.startswith("error:") for r in rows)
    assert {r.ineq for r in rows} == set(INEQUALITY_IDS)
    assert len(slacks) == len(rows)
    assert any(math.isnan(s) for s in slacks)


def test_a_throwaway_column_reaches_every_row_through_the_builder_alone(monkeypatch):
    # a new column is one defaulted field on the record: every row a caller gets is made by _build
    makers = []

    @dataclass(slots=True)
    class Widened(inequalities.IneqReport):
        extra: str = "throwaway"

        def __post_init__(self):
            makers.append(sys._getframe(2).f_code.co_name)  # the caller of the generated __init__

    monkeypatch.setattr(inequalities, "IneqReport", Widened)
    # rows from blocks; mono:0.5 has no f'', so its rows that read one are error rows
    cfg = _cfg(("mono:3", "mono:0.5"))
    rows = run_sweep(cfg)
    assert any(r.notes.startswith("error:") for r in rows)

    def broken(*args):
        raise RuntimeError("block failed")

    with monkeypatch.context() as patch:  # the one-point rows, and error rows, of a raising block
        patch.setitem(INEQUALITIES, "identity", replace(INEQUALITIES["identity"], block=broken))
        rows += run_sweep(replace(cfg, inequalities=("identity",)))
    ctx = AlphaContext(0.5)
    functional = MomentFunctional(ctx)
    f = parse_function_spec("ml:5").realize(ctx)
    a, b, x, s, p, q = 0.25, 1.75, 1.0, 0.5, 3.0, 1.5
    rows += [evaluate_single(ineq, f, functional, a, b, x, s, p, q) for ineq in INEQUALITY_IDS]
    rows += [
        eval_ghh(f, a, b), eval_shh(f, s, a, b), eval_holder(f, p, q, a, b, functional),
        eval_ostrowski_classic(f, x, a, b), eval_thm1(f, s, x, a, b, hypothesis_grid=24),
        eval_thm2(f, s, p, q, x, a, b, hypothesis_grid=24), eval_thm3(f, s, q, x, a, b, hypothesis_grid=24),
    ]
    rows += [eval_corollary(variant, f, a, b, s, p, q, x) for variant in COROLLARY_VARIANTS]
    family = parse_function_spec("poly:1,0.5,0.25,0.1")
    witness = falsify("thm1", family, SweepConfig(alphas=(0.5,), functions=(family,), inequalities=("thm1",)), 1, 1)
    assert witness is not None
    rows.append(witness)
    assert all(type(r) is Widened and r.extra == "throwaway" for r in rows)
    assert set(makers) == {"_build"}


@pytest.mark.parametrize(
    "residual",
    [0.0, -0.0, 5e-324, 1e-9, math.nextafter(1e-9, math.inf), 1.0, -1.0, math.inf, -math.inf, math.nan],
)
def test_the_identity_verdict_is_the_slack_rule(residual):
    # the identity row's slack is -residual, and its verdict was residual <= slack_tol
    ctx = AlphaContext(0.5, 1e-9)
    assert decide(-residual, ctx.slack_tol) == (residual <= ctx.slack_tol)


def test_a_raising_hypothesis_check_comes_before_the_values_at_x():
    # on [0, 1e50] at x = 1e50 the left side's integral overflows; a hypothesis grid of 2 is rejected first
    f = parse_function_spec("ml:7").realize(AlphaContext(1.0))
    with pytest.raises(OverflowError):
        eval_thm1(f, 0.5, 1e50, 0.0, 1e50)
    f = parse_function_spec("ml:7").realize(AlphaContext(1.0))
    with pytest.raises(ValueError, match="grid must be >= 3, got 2"):
        eval_thm1(f, 0.5, 1e50, 0.0, 1e50, hypothesis_grid=2)

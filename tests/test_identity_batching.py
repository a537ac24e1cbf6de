"""Identity rows share one sampling of f'' per sweep x axis.

A sweep evaluates the identity rows of each (alpha, function, interval)
through the registry row's ``block`` evaluator: it caches f and f' at
every x of the axis, computes the composed moments of f'' on both sides
of every x from one sampling of f'', and then builds each row from those
values.  These tests pin that every swept row is, bit for bit, the row
that a single evaluation computes on a fresh series; that a failure stays
with the rows it belongs to; that the sampling is batched, with one
``composed_moments`` call per block and no one-point call per row; and
that neither the composed moments nor the holder samples are kept on a
series.
"""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphaineq import inequalities
from alphaineq.alphanum import AlphaContext
from alphaineq.harness import (
    CSV_COLUMNS,
    FunctionSpec,
    SweepConfig,
    _error_report,
    _sort_key,
    evaluate_single,
    falsify,
    parse_function_spec,
    render_report,
    run_sweep,
)
from alphaineq.inequalities import INEQUALITIES, identity_residual
from alphaineq.quadrature import MomentFunctional, QuadratureError, composed_moment, composed_moments
from alphaineq.series import AlphaSeries, lf_derivative_n


def _bits(v):
    return struct.pack("<d", v) if isinstance(v, float) else v


def _row_bits(rep):
    """Every report column, with floats as their bits, so -0.0 differs from 0.0."""
    return tuple(_bits(getattr(rep, c)) for c in CSV_COLUMNS)


def _outcome(call):
    """``call()`` as comparable bits, or the class and message of the error it raised."""
    try:
        value = call()
    except Exception as exc:  # the error is the outcome being compared
        return type(exc), str(exc)
    return [_bits(v) for v in value] if isinstance(value, list) else _bits(value)


@np.errstate(over="ignore", invalid="ignore")  # as in a sweep
def _single_rows(cfg):
    """The sweep's identity rows, each computed alone on a fresh series and a fresh functional."""
    rows = []
    for alpha in cfg.alphas:
        functional = MomentFunctional(cfg.context(alpha))
        for spec in cfg.functions:
            for a, b in cfg.intervals:
                for frac in cfg.x_fractions:
                    x = a + frac * (b - a)
                    fn = spec.canonical()
                    try:
                        series = spec.realize(functional.ctx)
                        rep = evaluate_single("identity", series, functional, a, b, x, None, None, None, fn)
                    except Exception as exc:
                        rep = _error_report("identity", functional.ctx, exc, None, None, None, a, b, x, fn)
                    rows.append(rep)
    rows.sort(key=_sort_key)
    return rows


_COEFF = st.floats(-3.0, 3.0).filter(lambda c: abs(c) >= 1e-3)
#: Grades of f: whole ones, any in [0, 6], and 1.5, whose f'' has the negative grade -0.5.
_GRADE = st.one_of(st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, 4.0]), st.floats(0.0, 6.0))


@st.composite
def _identity_sweeps(draw):
    n_fn = draw(st.integers(1, 2))
    functions = tuple(
        FunctionSpec("series", tuple(draw(st.lists(st.tuples(_GRADE, _COEFF), min_size=1, max_size=4))))
        for _ in range(n_fn)
    )
    alphas = tuple(draw(st.lists(st.sampled_from([0.3, 0.5, 0.8, 1.0]), min_size=1, max_size=2, unique=True)))
    lengths = draw(st.lists(st.floats(0.25, 2.0), min_size=2, max_size=2))
    a = draw(st.floats(0.1, 1.5))
    inner = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3))
    return SweepConfig(
        alphas=alphas,
        functions=functions,
        inequalities=("identity",),
        intervals=((0.0, lengths[0]), (a, a + lengths[1])),
        x_fractions=(0.0, 1.0, *inner),  # x = a and x = b on every interval
    )


@settings(max_examples=40, deadline=None)
@given(_identity_sweeps())
@example(
    SweepConfig(
        alphas=(0.5, 1.0),
        # mixed signs; f'' of grade 1.5 has the grade -0.5; mono:0.5 has no f''
        functions=(
            parse_function_spec("series:(1.5,2);(4,-0.25)"),
            parse_function_spec("mono:0.5"),
            parse_function_spec("mono:2"),
        ),
        inequalities=("identity",),
        intervals=((0.0, 1.0), (0.25, 1.5)),
        x_fractions=(0.0, 0.125, 0.5, 1.0),
    )
)
def test_swept_identity_rows_equal_single_rows(cfg):
    swept = run_sweep(cfg)
    assert [_row_bits(r) for r in swept] == [_row_bits(r) for r in _single_rows(cfg)]


def test_a_zero_residual_keeps_its_negative_slack_in_a_sweep():
    # mono:2 at alpha = 0.5 has the constant f'' = 2: at x = b the residual is an exact zero
    cfg = SweepConfig(
        alphas=(0.5,), functions=(parse_function_spec("mono:2"),), inequalities=("identity",),
        intervals=((0.0, 1.0),), x_fractions=(1.0,),
    )
    (row,) = run_sweep(cfg)
    assert row.lhs == 0.0 and _bits(row.slack) == _bits(-0.0)
    assert _row_bits(row) == _row_bits(_single_rows(cfg)[0])


_ENDPOINT = st.one_of(st.sampled_from([0.0, 0.3, 1.0]), st.floats(0.0, 3.0))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([0.3, 0.5, 1.0]),
    st.lists(st.tuples(st.one_of(st.sampled_from([-0.5, 0.0, 1.0]), st.floats(-0.9, 5.0)), _COEFF),
             min_size=1, max_size=4),
    st.sampled_from([0.0, 2.0, 3.5]),
    st.lists(st.tuples(_ENDPOINT, _ENDPOINT), min_size=1, max_size=6),
)
@example(0.5, [(-0.5, 1.0), (2.0, -1.0)], 2.0, [(0.3, 0.3), (1.0, 0.0), (0.0, 1.0), (0.3, 1.0), (2.0, 0.3)])
def test_composed_moments_equal_one_segment_calls(alpha, terms, weight_grade, segments):
    functional = MomentFunctional(AlphaContext(alpha))
    shared = AlphaSeries(terms, functional.ctx)  # one series for every combination below
    for absolute in (False, True):
        for w in (weight_grade, weight_grade + 1.0):
            with np.errstate(all="ignore"):
                singles = [
                    _outcome(lambda x=x, e=e: composed_moment(AlphaSeries(terms, functional.ctx), w, x, e,
                                                              functional, absolute))
                    for x, e in segments
                ]
                batched = _outcome(
                    lambda: composed_moments(AlphaSeries(terms, functional.ctx), w, segments, functional, absolute)
                )
                reused = _outcome(lambda: composed_moments(shared, w, segments, functional, absolute))
            errors = [s for s in singles if isinstance(s, tuple)]
            # every value, or the error of the first segment that raises
            assert batched == reused == (errors[0] if errors else singles)


def _poison(monkeypatch, points):
    """Make every 2-D evaluation, which only f'' sampling makes, NaN at the given points."""
    evaluate = AlphaSeries.evaluate

    def poisoned(self, x):
        out = evaluate(self, x)
        if isinstance(x, np.ndarray) and x.ndim == 2:
            out = np.where(np.isin(x, points), math.nan, out)
        return out

    monkeypatch.setattr(AlphaSeries, "evaluate", poisoned)


def test_non_finite_samples_fail_only_their_own_x(monkeypatch):
    a, b = 0.5, 2.0
    cfg = SweepConfig(
        alphas=(0.5, 1.0), functions=(parse_function_spec("ml:5"), parse_function_spec("mono:3")),
        inequalities=("identity",), intervals=((a, b),), x_fractions=(0.0, 0.25, 0.5, 0.75, 1.0),
    )
    clean = run_sweep(cfg)
    bad_x = a + 0.5 * (b - a)
    # the sample points of bad_x's two sides at alpha = 0.5, computed as the sides compute them
    grid = MomentFunctional(cfg.context(0.5)).grid
    _poison(monkeypatch, np.concatenate([e + grid * (bad_x - e) for e in (a, b)]))
    rows = run_sweep(cfg)
    note = "error: QuadratureError: integrand produced non-finite values on the grid"
    assert [(r.alpha, r.x, r.notes) for r in rows if r.notes.startswith("error:")] == [(0.5, bad_x, note)] * 2
    assert [_row_bits(r) for r in rows if not r.notes.startswith("error:")] == [
        _row_bits(r) for r in clean if (r.alpha, r.x) != (0.5, bad_x)
    ]
    # the row a single evaluation computes fails with the same error
    ctx = cfg.context(0.5)
    with pytest.raises(QuadratureError, match="non-finite values on the grid"):
        identity_residual(parse_function_spec("ml:5").realize(ctx), bad_x, a, b, MomentFunctional(ctx))


def test_a_failing_segment_raises_and_leaves_the_series_as_fresh(monkeypatch):
    ctx = AlphaContext(0.5)
    functional = MomentFunctional(ctx)
    f2 = AlphaSeries(((0.5, 1.0), (2.0, -0.4)), ctx)
    segments = [(0.9, 0.25), (0.9, 1.5), (1.2, 0.25), (1.2, 1.5)]
    want = [composed_moment(AlphaSeries(f2.terms, ctx), 2.0, x, e, functional) for x, e in segments]
    _poison(monkeypatch, 1.5 + functional.grid * (0.9 - 1.5))
    with pytest.raises(QuadratureError, match="non-finite values on the grid"):
        composed_moments(f2, 2.0, segments, functional)
    monkeypatch.undo()
    got = [composed_moment(f2, 2.0, x, e, functional) for x, e in segments]
    assert [_bits(v) for v in got] == [_bits(v) for v in want]


def test_rows_do_not_depend_on_the_block(monkeypatch):
    # f' of mono:0.5 has the grade -0.5, which cannot be differentiated: its
    # block raises, and its rows raise one point at a time as they do alone
    cfg = SweepConfig(
        alphas=(0.5, 1.0),
        functions=(parse_function_spec("mono:0.5"), parse_function_spec("mono:3"), parse_function_spec("ml:4")),
        inequalities=("identity", "thm1"), intervals=((0.0, 1.0), (0.5, 2.0)), x_fractions=(0.0, 0.3, 1.0),
    )
    blocked = render_report(run_sweep(cfg), "csv")
    assert "error: GammaPoleError: cannot differentiate grade -0.5" in blocked

    calls = []

    def broken(*args):
        calls.append(args[2:4])
        raise RuntimeError("block failed")

    with monkeypatch.context() as patch:  # a block that raises for every (alpha, function, interval)
        patch.setitem(INEQUALITIES, "identity", replace(INEQUALITIES["identity"], block=broken))
        assert render_report(run_sweep(cfg), "csv") == blocked
    assert len(calls) == 2 * 3 * 2


def _count_2d_evaluations(monkeypatch):
    """The series of every 2-D ``AlphaSeries.evaluate`` call from now on."""
    calls = []
    evaluate = AlphaSeries.evaluate

    def counted(self, x):
        if np.ndim(x) == 2:
            calls.append(self)
        return evaluate(self, x)

    monkeypatch.setattr(AlphaSeries, "evaluate", counted)
    return calls


def test_one_f2_sampling_per_axis_and_per_single_call(monkeypatch):
    cfg = SweepConfig(
        alphas=(0.5, 1.0),
        functions=tuple(parse_function_spec(t) for t in ("mono:3", "ml:5", "series:(1.5,2);(4,0.25)")),
        inequalities=("identity", "holder"),
        intervals=((0.25, 1.5), (0.5, 2.0)),
        x_fractions=(0.125, 0.5, 0.8),
    )
    calls = _count_2d_evaluations(monkeypatch)
    run_sweep(cfg)
    # one per (alpha, function, interval), of f'': the holder rows sample |f| in 1-D
    assert len(calls) == 2 * 3 * 2
    ctx = AlphaContext(0.5)
    f = parse_function_spec("ml:5").realize(ctx)
    functional = MomentFunctional(ctx)
    calls.clear()
    identity_residual(f, 0.9, 0.25, 1.5, functional)
    assert calls == [lf_derivative_n(f, 2)]
    identity_residual(f, 0.9, 0.25, 1.5, functional)
    assert len(calls) == 2  # each call samples f'' once for both moments


def test_one_composed_moments_call_per_block_and_no_one_point_residual(monkeypatch):
    cfg = SweepConfig(
        alphas=(0.5, 1.0),
        functions=tuple(parse_function_spec(t) for t in ("mono:3", "ml:5", "series:(1.5,2);(4,0.25)")),
        inequalities=("identity",),
        intervals=((0.25, 1.5), (0.5, 2.0)),
        x_fractions=(0.0, 0.125, 0.5, 0.8, 1.0),
    )
    want = [_row_bits(r) for r in run_sweep(cfg)]
    moments, residuals = [], []
    composed, residual = inequalities.composed_moments, inequalities.identity_residual

    def counted_moments(f2, weight_grade, segments, *rest):
        moments.append(len(segments))
        return composed(f2, weight_grade, segments, *rest)

    def counted_residual(*args):
        residuals.append(args)
        return residual(*args)

    monkeypatch.setattr(inequalities, "composed_moments", counted_moments)
    monkeypatch.setattr(inequalities, "identity_residual", counted_residual)
    assert [_row_bits(r) for r in run_sweep(cfg)] == want
    # per block, both sides of the three inner points and one side of each endpoint
    assert moments == [2 * 3 + 2] * (2 * 3 * 2)
    assert residuals == []
    # a one-point row is built from identity_residual, which makes one call for both sides
    moments.clear()
    ctx = AlphaContext(0.5)
    f = parse_function_spec("ml:5").realize(ctx)
    functional = MomentFunctional(ctx)
    calls = _count_2d_evaluations(monkeypatch)
    rep = evaluate_single("identity", f, functional, 0.25, 1.5, 0.9, None, None, None)
    assert len(residuals) == 1 and moments == [2]
    assert calls == [lf_derivative_n(f, 2)]  # f'' sampled once
    assert rep.lhs == -rep.slack == residual(parse_function_spec("ml:5").realize(ctx), 0.9, 0.25, 1.5, functional)


def test_no_series_keeps_composed_moments_or_holder_samples(monkeypatch):
    series = []
    evaluate = AlphaSeries.evaluate

    def recorded(self, x):
        series.append(self)
        return evaluate(self, x)

    monkeypatch.setattr(AlphaSeries, "evaluate", recorded)
    cfg = SweepConfig(
        alphas=(0.5, 1.0),
        functions=tuple(parse_function_spec(t) for t in ("mono:3", "ml:5", "series:(1.5,2);(4,0.25)")),
        inequalities=("identity", "holder"),
        intervals=((0.25, 1.5), (0.0, 2.0)),
        x_fractions=(0.0, 0.5, 1.0),
    )
    assert not any(r.notes.startswith("error:") for r in run_sweep(cfg))
    spec = parse_function_spec("poly:1,0.5,0.25,0.1")
    for ineq in ("identity", "holder"):
        falsify(ineq, spec, replace(cfg, functions=(spec,), inequalities=(ineq,)), 8, 7)
    # the sweep samples f'' of each identity block and |f| of each holder block
    assert {f.ctx.alpha for f in series} == {0.5, 1.0}
    assert not [key for f in series for key in f._memo if key[0] in ("moments", "holder")]

"""A sweep evaluates the holder rows of a block from arrays it builds once.

``inequalities._holder_rows`` is the ``holder`` block: per (alpha,
function, interval) it reads ``|f|`` and ``J[|f|*|f|]`` once, raises ``|f|``
to every distinct exponent of the (p, q) axis in one ``np.power`` call and
integrates the powers in one ``MomentFunctional.integrate_rows`` call.
These tests pin that every swept row is, bit for bit, the row of the
two-callable ``eval_holder``, which samples ``f`` and ``g`` itself and
integrates each power on its own; that the integrals take one call per
block; and that a pair whose power overflows fails only its own rows, with
the error its one-point row raises.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphaineq.harness import CSV_COLUMNS, SweepConfig, parse_function_spec, run_sweep
from alphaineq.inequalities import eval_holder
from alphaineq.quadrature import MomentFunctional, QuadratureError


def _bits(v):
    return struct.pack("<d", v) if isinstance(v, float) else v


def _row_bits(rep):
    """Every report column, with floats as their bits, so -0.0 differs from 0.0."""
    return tuple(_bits(getattr(rep, c)) for c in CSV_COLUMNS)


@np.errstate(over="ignore", invalid="ignore")  # as in a sweep
def _callable_rows(cfg):
    """The sweep's holder rows, each from the two-callable ``eval_holder`` on a fresh series; a raising one is left out."""
    rows = {}
    for alpha in cfg.alphas:
        functional = MomentFunctional(cfg.context(alpha))
        for spec in cfg.functions:
            for a, b in cfg.intervals:
                for p, q in cfg.pq_pairs:
                    f = spec.realize(functional.ctx)
                    try:
                        rep = eval_holder(f.evaluate, f.evaluate, p, q, a, b, functional)
                    except QuadratureError:
                        continue
                    rep.fn = spec.canonical()
                    rows[alpha, rep.fn, a, b, p, q] = rep
    return rows


_SPECS = ("mono:2", "mono:0.5", "ml:7", "poly:1,0,0.5", "series:(0.5,1);(2,-1)", "series:(1.5,2);(4,-0.25)")


@st.composite
def _holder_sweeps(draw):
    ps = draw(st.lists(st.floats(1.05, 8.0), min_size=1, max_size=4))
    pairs = [(2.0, 2.0)] + [(p, p / (p - 1.0)) for p in ps]
    pairs.append(pairs[draw(st.integers(0, len(pairs) - 1))])  # one pair twice
    if draw(st.booleans()):  # a pair whose p is another pair's q, so the two share both exponents
        pairs.append(pairs[1][::-1])
    a = draw(st.floats(0.0, 1.5))
    return SweepConfig(
        alphas=tuple(draw(st.lists(st.sampled_from([0.3, 0.5, 0.8, 1.0]), min_size=1, max_size=2, unique=True))),
        functions=tuple(
            parse_function_spec(t) for t in draw(st.lists(st.sampled_from(_SPECS), min_size=1, max_size=3, unique=True))
        ),
        inequalities=("holder",),
        intervals=((0.0, 1.0), (a, a + draw(st.floats(0.25, 2.5)))),
        pq_pairs=tuple(pairs),
    )


@settings(max_examples=40, deadline=None)
@given(_holder_sweeps())
@example(
    SweepConfig(
        alphas=(0.3, 0.5, 1.0),
        functions=tuple(parse_function_spec(t) for t in _SPECS),
        inequalities=("holder",),
        intervals=((0.0, 1.0), (0.5, 2.0)),
        pq_pairs=((2.0, 2.0), (3.0, 1.5), (1.5, 3.0), (4.0, 4.0 / 3.0), (2.0, 2.0)),
    )
)
def test_swept_holder_rows_equal_the_two_callable_rows(cfg):
    want = _callable_rows(cfg)
    swept = run_sweep(cfg)
    assert len(swept) == len(cfg.alphas) * len(cfg.functions) * len(cfg.intervals) * len(cfg.pq_pairs)
    for rep in swept:
        assert not rep.notes
        assert _row_bits(rep) == _row_bits(want[rep.alpha, rep.fn, rep.a, rep.b, rep.p, rep.q])


def _count_integrate_rows(monkeypatch):
    calls = []
    integrate_rows = MomentFunctional.integrate_rows

    def counted(self, values, weight_grade=0.0):
        calls.append(np.shape(values))
        return integrate_rows(self, values, weight_grade)

    monkeypatch.setattr(MomentFunctional, "integrate_rows", counted)
    return calls


def test_one_integrate_rows_call_per_block(monkeypatch):
    pairs = ((2.0, 2.0), (3.0, 1.5), (1.5, 3.0), (4.0, 4.0 / 3.0), (3.0, 1.5))
    cfg = SweepConfig(
        alphas=(0.5, 1.0),
        functions=tuple(parse_function_spec(t) for t in ("mono:3", "ml:5", "series:(0.5,1);(2,-1)")),
        inequalities=("holder",),
        intervals=((0.0, 1.0), (0.25, 1.5), (0.5, 2.0)),
        pq_pairs=pairs,
    )
    calls = _count_integrate_rows(monkeypatch)
    rows = run_sweep(cfg)
    assert len(rows) == 2 * 3 * 3 * len(pairs)
    # one call per (alpha, function, interval), of the four distinct exponents
    # other than 2.0, whose integral is J[|f|*|f|]
    nodes = MomentFunctional(cfg.context(0.5)).nodes
    assert calls == [(4, nodes)] * (2 * 3 * 3)
    calls.clear()
    run_sweep(SweepConfig(alphas=cfg.alphas, functions=cfg.functions, inequalities=("holder",),
                          intervals=cfg.intervals, pq_pairs=((2.0, 2.0),)))
    assert calls == []


def test_an_overflowing_power_fails_only_its_own_pairs():
    # |f| is about 1e100 on the grid: |f|**2 and |f|**3 are finite, |f|**4 is not
    spec = parse_function_spec("series:(0,1e100);(1,1e99)")
    cfg = SweepConfig(
        alphas=(0.5, 1.0),
        functions=(spec, parse_function_spec("mono:3")),
        inequalities=("holder",),
        intervals=((0.5, 2.0), (0.25, 1.0)),
        pq_pairs=((2.0, 2.0), (3.0, 1.5), (4.0, 4.0 / 3.0), (1.5, 3.0), (4.0 / 3.0, 4.0)),
    )
    rows = run_sweep(cfg)
    note = "error: QuadratureError: integrand produced non-finite values on the grid"
    failed = [r for r in rows if r.notes]
    assert {(r.fn, r.p, r.notes) for r in failed} == {(spec.canonical(), p, note) for p in (4.0, 4.0 / 3.0)}
    assert len(failed) == 2 * 2 * 2
    want = _callable_rows(cfg)
    assert [_row_bits(r) for r in rows if not r.notes] == [
        _row_bits(want[r.alpha, r.fn, r.a, r.b, r.p, r.q]) for r in rows if not r.notes
    ]
    # the one-point rows of a failing pair raise the same error, through the block and the callables
    functional = MomentFunctional(cfg.context(0.5))
    f = spec.realize(functional.ctx)
    with np.errstate(over="ignore"):
        for p, q in ((4.0, 4.0 / 3.0), (4.0 / 3.0, 4.0)):
            for g in (f, f.evaluate):
                with pytest.raises(QuadratureError, match="non-finite values on the grid"):
                    eval_holder(g, g, p, q, 0.5, 2.0, functional)

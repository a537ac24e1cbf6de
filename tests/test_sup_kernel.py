"""``sup_abs`` computes many rows in one kernel, each bit for bit as the one-series loop did.

The reference is :func:`reference.sup_abs_loop`, the loop that computed
``sup_abs`` one series at a time before the kernel took rows.  Batches mix
grade plans, which are grouped as the theta forms' prepare step groups
them, and coefficient signs; they hold intervals at 0 with a negative grade,
whose rows are inf, or NaN where two poles of opposite sign meet, and
intervals whose grid step underflows.  Every value, and the value cached on
its series, must equal the reference's, NaN matching NaN.  A row whose
``|f|`` is monotone by sign takes its end value without the scan, and a
count of the rows on each scan grid shows which rows were scanned.  Numpy's
error state is the one a sweep sets, and the suite's
``error::RuntimeWarning`` filter turns any other warning into a failure.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphaineq import inequalities
from alphaineq.alphanum import AlphaContext
from alphaineq.harness import parse_function_spec
from alphaineq.inequalities import INEQUALITIES, _sup_abs, sup_abs
from alphaineq.series import AlphaSeries, _plan_of, lf_derivative, lf_derivative_n
from reference import sup_abs_loop

CTX = {alpha: AlphaContext(alpha) for alpha in (0.3, 0.5, 1.0)}

#: Grade tuples: a constant term first, none, a negative grade alone (inf at 0), two negative ones
#: (NaN at 0 when their signs differ), one grade and the zero series.
GRADES = [(0.0, 1.0, 2.0, 3.0), (0.5, 1.5, 4.0), (-0.5, 0.25), (-0.5, -0.25, 2.0), (0.5,), ()]

INTERVALS = [
    (0.0, 1.0),
    (0.0, 5e-324),  # the step underflows to zero
    (0.0, 1e-3),
    (1e-300, 3e-300),
    (0.3, float(np.nextafter(0.3, 1.0))),  # one ulp wide: the refinements' steps underflow
    (0.25, 1.75),
    (2.0, 2.0),
]

_COEFF = st.floats(-3.0, 3.0).filter(lambda c: abs(c) >= 1e-3)


@st.composite
def _rows(draw):
    alpha = draw(st.sampled_from(sorted(CTX)))
    grades = draw(st.sampled_from(GRADES))
    terms = tuple((k, draw(_COEFF)) for k in grades)
    a, b = draw(
        st.one_of(
            st.sampled_from(INTERVALS),
            st.tuples(st.floats(0.0, 3.0), st.floats(1e-12, 3.0)).map(lambda t: (t[0], t[0] + t[1])),
        )
    )
    return alpha, terms, a, b


def _same(got, want):
    return type(got) is float and (got == want or (math.isnan(got) and math.isnan(want)))


def _check(batch, grid):
    """Check each row of ``batch`` against the reference; return the row count of each scan grid of the kernel calls."""
    rows = [(AlphaSeries(terms, CTX[alpha]), a, b) for alpha, terms, a, b in batch]
    groups: dict = {}
    for row in rows:
        groups.setdefault(_plan_of(row[0]), []).append(row)
    sizes = []
    grid_rows = inequalities._grid

    def counted(lo, hi, n):
        sizes.append(len(lo))
        return grid_rows(lo, hi, n)

    with np.errstate(over="ignore", invalid="ignore"):  # as in a sweep
        got = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inequalities, "_grid", counted)
            for group in groups.values():
                got.update(zip(map(id, group), _sup_abs(group, grid)))
        for row in rows:
            f, a, b = row
            want = sup_abs_loop(AlphaSeries(f.terms, f.ctx), a, b, grid)
            assert _same(got[id(row)], want), (f.terms, a, b, grid, got[id(row)], want)
            assert _same(f._memo["sup", a, b, grid], want)
            # the one-row call on a fresh series
            assert _same(sup_abs(AlphaSeries(f.terms, f.ctx), a, b, grid), want)
    return sizes


@settings(max_examples=150, deadline=None)
@given(st.lists(_rows(), min_size=1, max_size=20), st.sampled_from([3, 33, 257, 1025]))
@example(  # an inf row, then a NaN, an underflowing step and a finite row of one plan
    [
        (1.0, ((-0.5, 1.0), (0.25, 2.0)), 0.0, 1.0),
        (1.0, ((-0.5, 1.0), (-0.25, -1.0), (2.0, 0.5)), 0.0, 1.0),
        (1.0, ((-0.5, 1.0), (-0.25, 1.0), (2.0, 0.5)), 0.0, 5e-324),
        (1.0, ((-0.5, -2.0), (-0.25, 1.0), (2.0, 0.5)), 0.25, 1.75),
    ],
    1025,
)
@example([(0.5, ((0.0, 1.0), (1.0, -2.0), (2.0, 1.0), (3.0, -0.25)), 0.0, 5e-324)], 3)
@example([(0.3, ((0.5, -1.5),), 1e-300, 3e-300), (0.3, ((0.5, 1.5),), 0.3, float(np.nextafter(0.3, 1.0)))], 33)
@example([(0.5, (), 0.0, 1.0), (0.5, ((0.5, 1.0), (1.5, -1.0), (4.0, 0.1)), 0.5, 2.0)], 257)
def test_kernel_rows_are_the_loop_bit_for_bit(batch, grid):
    _check(batch, grid)


FUNCTIONS = ("ml:6", "poly:1,0.5,0.25,0.1", "mono:2.5", "mono:1.5", "series:(1.5,1);(1.6,-1)", "mono:3", "mono:0.5")


def test_prepare_fills_theta_of_every_row_as_sup_abs_computes_it():
    # one prepare call over rows of many plans and both alphas: f'' of mono:1.5 is inf at 0 and f'' of
    # (1.5, 1);(1.6, -1) NaN at 0 (at alpha = 1); mono:0.5 has no f'', so its rows are skipped
    intervals = [(0.0, 1.0), (0.5, 2.0), (0.0, 5e-324), (0.25, 0.75)]
    for ineq, order in (("theta-thm1", 2), ("midpoint-theta-thm2", 2), ("ostrowski", 1)):
        rows = [
            (parse_function_spec(spec).realize(CTX[alpha]), a, b)
            for alpha in (0.5, 1.0)
            for spec in FUNCTIONS
            for a, b in intervals
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            INEQUALITIES[ineq].prepare(rows)
            for f, a, b in rows:
                try:
                    g = lf_derivative_n(f, order)
                except ArithmeticError:
                    continue
                want = sup_abs_loop(AlphaSeries(g.terms, f.ctx), a, b)
                assert _same(g._memo["sup", a, b, 1025], want), (ineq, f.ctx.alpha, f.terms, a, b)
    # theta of f' for ostrowski, of f'' for the theta forms
    f = parse_function_spec("ml:6").realize(AlphaContext(0.5))
    INEQUALITIES["ostrowski"].prepare([(f, 0.25, 1.75)])
    assert ("sup", 0.25, 1.75, 1025) in lf_derivative(f)._memo
    assert ("sup", 0.25, 1.75, 1025) not in lf_derivative_n(f, 2)._memo


def test_prepare_hands_the_kernel_at_most_16_rows_of_one_plan(monkeypatch):
    # 40 intervals of one series at each of two alphas: the kernel's (rows x 1025) temporaries
    # stay at 16 rows of one plan, and so of one alpha, and every row is filled
    sizes = []

    def recorded(rows, grid):
        sizes.append((len(rows), {f.ctx.alpha for f, _, _ in rows}))
        return _sup_abs(rows, grid)

    monkeypatch.setattr(inequalities, "_sup_abs", recorded)
    series = [parse_function_spec("ml:6").realize(CTX[alpha]) for alpha in (0.5, 1.0)]
    rows = [(f, 0.05 * i, 0.05 * i + 1.0) for i in range(40) for f in series]
    INEQUALITIES["theta-thm1"].prepare(rows)
    assert sizes == [(16, {0.5}), (16, {0.5}), (8, {0.5}), (16, {1.0}), (16, {1.0}), (8, {1.0})]
    for f, a, b in rows:
        g = lf_derivative_n(f, 2)
        assert g._memo["sup", a, b, 1025] == sup_abs_loop(AlphaSeries(g.terms, f.ctx), a, b)


# |f| is monotone by sign when the coefficients share a sign and so do the exponents: it rises on
# [a, b] when every exponent is >= 0, and falls when every one is <= 0 and a > 0.  Such a row takes
# |f| at that end and never reaches the scan, whose _grid calls count the rows they hold.
RISING = [(0.0, 1.0, 2.0, 3.0), (0.5, 1.5, 4.0), (0.5,), ()]
FALLING = [(-0.5,), (-0.75, -0.25)]
MIXED = [(-0.5, 0.25), (-0.5, -0.25, 2.0)]

_MAGNITUDE = st.one_of(st.floats(1e-3, 3.0), st.floats(1e-12, 1e12))


def _interval(draw, falling):
    fixed = [(a, b) for a, b in INTERVALS if a > 0.0 or not falling]
    low = st.floats(0.0, 3.0, exclude_min=falling)
    return draw(
        st.one_of(
            st.sampled_from(fixed),
            st.tuples(low, st.floats(1e-12, 3.0)).map(lambda t: (t[0], t[0] + t[1])),
        )
    )


@st.composite
def _monotone_rows(draw):
    alpha = draw(st.sampled_from(sorted(CTX)))
    grades = draw(st.sampled_from(RISING + FALLING))
    sign = draw(st.sampled_from((1.0, -1.0)))
    terms = tuple((k, sign * draw(_MAGNITUDE)) for k in grades)
    a, b = _interval(draw, grades in FALLING)
    return alpha, terms, a, b


@settings(max_examples=150, deadline=None)
@given(st.lists(_monotone_rows(), min_size=1, max_size=20), st.sampled_from([3, 33, 257, 1025]))
@example(  # rising and falling rows on the one-ulp, underflowing, tiny and zero-width intervals
    [
        (0.3, ((0.5, 1.5),), 0.3, float(np.nextafter(0.3, 1.0))),
        (1.0, ((0.0, -1.0), (1.0, -2.0), (2.0, -0.5), (3.0, -0.25)), 0.0, 5e-324),
        (0.5, ((-0.75, 2.0), (-0.25, 1e12)), 1e-300, 3e-300),
        (0.5, ((-0.5, -1e-12),), 2.0, 2.0),
        (1.0, (), 0.0, 1.0),
    ],
    1025,
)
def test_monotone_rows_take_their_end_value_bit_for_bit_and_never_scan(batch, grid):
    assert _check(batch, grid) == []


NOT_MONOTONE = [
    (0.5, ((0.0, 1.0), (1.0, -2.0), (2.0, 1.0)), 0.0, 1.0),  # coefficients of both signs
    (1.0, ((-0.5, -1.0), (-0.25, 2.0)), 0.25, 1.75),
    (0.3, ((-0.5, 1.0), (0.25, 2.0)), 0.25, 1.75),  # exponents of both signs
    (1.0, ((-0.5, 1.0), (-0.25, 1.0), (2.0, 0.5)), 0.5, 2.0),
    (0.5, ((-0.75, 1.0), (-0.25, 2.0)), 0.0, 1.0),  # falls, but from inf at a = 0
]


@pytest.mark.parametrize("row", NOT_MONOTONE)
def test_rows_not_monotone_by_sign_still_scan(row):
    assert _check([row], 1025) == [1] * 4


@st.composite
def _plan_batches(draw):
    # rows of one plan with coefficient signs drawn per term, so eligible and scanned rows interleave
    alpha = draw(st.sampled_from(sorted(CTX)))
    grades = draw(st.sampled_from(RISING + FALLING + MIXED))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        terms = tuple((k, draw(st.sampled_from((1.0, -1.0))) * draw(_MAGNITUDE)) for k in grades)
        rows.append((alpha, terms, *_interval(draw, False)))
    return rows


def _monotone(alpha, terms, a, b):
    signs = {c > 0.0 for _, c in terms}
    exps = [k * alpha for k, _ in terms]
    return len(signs) <= 1 and (all(e >= 0.0 for e in exps) or (all(e <= 0.0 for e in exps) and a > 0.0))


@settings(max_examples=100, deadline=None)
@given(_plan_batches())
def test_a_mixed_batch_returns_its_values_in_row_order(batch):
    # one _sup_abs call: _check compares each row's value, in order, with its own reference
    scanned = sum(not _monotone(*row) for row in batch)
    assert _check(batch, 1025) == ([scanned] * 4 if scanned else [])

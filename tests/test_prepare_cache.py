"""Every registry ``prepare`` step is only a cache, and only ``falsify`` runs one.

An id's prepare step fills theta of f'' for the six theta forms, theta of
f' for ``ostrowski``, the Hoelder integrals of ``|f|`` for ``holder`` and
the composed moments of f'' for ``identity``, for rows ``(series,
functional, a, b, x, p, q)``.  A holder or identity row evaluated after
its step is, bit for bit, the row of a fresh series, without sampling
again, and a row whose samples are not finite is left uncached and raises
as it does alone.  ``run_sweep`` never
calls it: a sweep computes what its blocks share through the registry's
``block`` evaluators.  ``falsify`` draws the random trials of every id a
chunk ahead, in chunks of 1, 2, 4, 8 and then 16 trials, whatever alphas
they have, prepares each chunk where the id has a step, and never holds
more than 16 prepared trial series at once.  A job's witness and its
number of ``evaluate_single`` calls are the same when the step is removed
and when it raises, and a job draws and evaluates the same points when its
trials are drawn one at a time.
"""

import gc
import struct
import weakref
from dataclasses import replace

import numpy as np
import pytest

from alphaineq import harness, inequalities, quadrature
from alphaineq.alphanum import AlphaContext
from alphaineq.harness import (
    CSV_COLUMNS, SweepConfig, Tolerances, falsify, parse_function_spec, render_report, run_sweep,
)
from alphaineq.inequalities import INEQUALITIES, _identity_sides
from alphaineq.quadrature import MomentFunctional, QuadratureError
from alphaineq.series import AlphaSeries, lf_derivative_n

#: The ids with a prepare step, in registry order.
PREPARED = [
    "holder",
    "ostrowski",
    "identity",
    "theta-thm1", "midpoint-theta-thm1", "theta-thm2", "midpoint-theta-thm2", "theta-thm3", "midpoint-theta-thm3",
]


def test_prepared_ids():
    assert [i for i, rec in INEQUALITIES.items() if rec.prepare is not None] == PREPARED


def _broken(rows):
    raise RuntimeError("prepare failed")


def _variants(ineq):
    """The registry row of ``ineq`` with its prepare step, without one and with one that raises.

    With the raising step, ``falsify`` calls the step on every chunk of
    trials, of every id.
    """
    rec = INEQUALITIES[ineq]
    return {"as is": rec, "removed": replace(rec, prepare=None), "raising": replace(rec, prepare=_broken)}


# mono:1.5's f'' is inf at 0 and (1.5, 1);(1.6, -1)'s NaN there (at alpha = 1); mono:0.5 has no f''
SWEEP = dict(
    alphas=(0.5, 1.0),
    functions=tuple(
        parse_function_spec(t)
        for t in ("ml:5", "poly:1,0.5,0.25,0.1", "mono:1.5", "series:(1.5,1);(1.6,-1)", "mono:0.5")
    ),
    intervals=((0.0, 1.0), (0.5, 2.0), (0.25, 0.75)),
    x_fractions=(0.0, 0.3, 1.0),
    s_values=(0.5, 1.0),
    pq_pairs=((2.0, 2.0), (3.0, 1.5)),
)


@pytest.mark.parametrize("ineqs", [(i,) for i in INEQUALITIES] + [tuple(INEQUALITIES)],
                         ids=list(INEQUALITIES) + ["every-id"])
def test_sweep_never_calls_prepare(ineqs, monkeypatch):
    # every id gains a step that records its call; a sweep makes none, and its report is the same
    cfg = SweepConfig(inequalities=ineqs, **SWEEP)
    report = render_report(run_sweep(cfg), "csv")
    calls = []
    for ineq, rec in INEQUALITIES.items():
        monkeypatch.setitem(INEQUALITIES, ineq, replace(rec, prepare=lambda rows, ineq=ineq: calls.append(ineq)))
    assert render_report(run_sweep(cfg), "csv") == report
    assert calls == []


TRIALS = 60

JOBS = [
    (family, alphas, adversarial, seed)
    for family, seed in (("ml:6", 3), ("poly:1,0.5,0.25,0.1", 8))
    for alphas in ((0.5,), (0.5, 0.8, 1.0))
    for adversarial in (False, True)
]


def _job(ineq, family, alphas, adversarial, seed, monkeypatch, tolerances=Tolerances()):
    """The rendered result of a seeded falsify job and its number of ``evaluate_single`` calls."""
    calls = [0]
    real = harness.evaluate_single

    def counted(*args):
        calls[0] += 1
        return real(*args)

    spec = parse_function_spec(family)
    cfg = SweepConfig(alphas=alphas, functions=(spec,), inequalities=(ineq,), tolerances=tolerances)
    with monkeypatch.context() as patch:
        patch.setattr(harness, "evaluate_single", counted)
        try:
            w = falsify(ineq, spec, cfg, TRIALS, seed, adversarial=adversarial)
        except Exception as exc:  # the error is the outcome being compared
            return f"{type(exc).__name__}: {exc}", calls[0]
    return ("none\n" if w is None else render_report([w], "csv")), calls[0]


@pytest.mark.parametrize("ineq", list(INEQUALITIES))
def test_falsify_does_not_depend_on_prepare(ineq, monkeypatch):
    # every id gains a chunked prepare step that raises, which falsify ignores
    for job in JOBS:
        results = {}
        for name, rec in _variants(ineq).items():
            monkeypatch.setitem(INEQUALITIES, ineq, rec)
            results[name] = _job(ineq, *job, monkeypatch)
        assert results["removed"] == results["as is"], job
        assert results["raising"] == results["as is"], job


@pytest.mark.parametrize("alphas", [(1.0,), (0.5, 0.8, 1.0)], ids=["one-alpha", "three-alphas"])
@pytest.mark.parametrize("ineq", PREPARED)
def test_falsify_prepares_chunks_of_at_most_16_trials(ineq, alphas, monkeypatch):
    # a tolerance no slack reaches: every trial is drawn, prepared and evaluated
    real = INEQUALITIES[ineq].prepare
    held = []  # a weak reference to each prepared series
    calls = []

    def recorded(rows):
        gc.collect()
        held.extend(weakref.ref(f) for f, *_ in rows)
        calls.append((len(rows), sum(ref() is not None for ref in held)))
        real(rows)

    monkeypatch.setitem(INEQUALITIES, ineq, replace(INEQUALITIES[ineq], prepare=recorded))
    result = _job(ineq, "ml:6", alphas, False, 5, monkeypatch, Tolerances(slack_tol=1e300))
    # the canonical probes, three per alpha for an id that reads x and else one, then every trial
    assert result == ("none\n", (3 if "x" in INEQUALITIES[ineq].reads else 1) * len(alphas) + TRIALS)
    # one call per chunk, whatever alphas its trials have
    assert [n for n, _ in calls] == [1, 2, 4, 8, 16, 16, 13]
    assert all(live <= 16 for _, live in calls), calls


def _drawn(ineq, job, chunk, monkeypatch, tolerances=Tolerances()):
    """``_job`` with trials drawn in chunks of at most ``chunk``, the points it builds and those it evaluates."""
    built, evaluated = [], []
    point, single = harness._Point, harness.evaluate_single

    def building(*args):
        built.append(point(*args))
        return built[-1]

    def evaluating(*args):
        series = args[1]
        evaluated.append((series.ctx.alpha, series.terms, *args[3:]))
        return single(*args)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_TRIAL_CHUNK", chunk)
        patch.setattr(harness, "_Point", building)
        patch.setattr(harness, "evaluate_single", evaluating)
        result = _job(ineq, *job, monkeypatch, tolerances)
    return result, evaluated, built


@pytest.mark.parametrize("alphas", [(0.5,), (0.5, 0.8, 1.0)], ids=["one-alpha", "three-alphas"])
@pytest.mark.parametrize("ineq", list(INEQUALITIES))
def test_falsify_draws_the_same_trials_in_chunks_as_one_at_a_time(ineq, alphas, monkeypatch):
    # a chunk's uniforms come from one array call with one alpha, and trial by trial with several
    chunk = harness._TRIAL_CHUNK
    for family, seed in (("ml:6", 3), ("poly:1,0.5,0.25,0.1", 8)):
        for adversarial in (False, True):
            job = (family, alphas, adversarial, seed)
            one, evaluated_one, _ = _drawn(ineq, job, 1, monkeypatch)
            chunked, evaluated_chunked, _ = _drawn(ineq, job, chunk, monkeypatch)
            # the witness (or error) and the evaluate_single count, then every evaluated point in order
            assert one == chunked, job
            assert evaluated_one == evaluated_chunked, job
    # with a tolerance no slack reaches, every trial is drawn and evaluated, in order, and no point
    # is shrunk: the drawn points are equal, bit for bit (a chunk with several alphas builds its
    # points one alpha at a time), and their values are Python floats
    never = Tolerances(slack_tol=1e300)
    one = _drawn(ineq, ("ml:6", alphas, True, 5), 1, monkeypatch, never)
    chunked = _drawn(ineq, ("ml:6", alphas, True, 5), chunk, monkeypatch, never)
    assert one[0] == ("none\n", len(one[1]))
    assert one[:2] == chunked[:2]
    assert sorted(one[2]) == sorted(chunked[2])
    assert {type(v) for pt in chunked[2] for v in (pt.alpha, pt.a, pt.b, pt.frac, pt.s, pt.p)} == {float}
    assert {type(v) for pt in chunked[2] for term in pt.terms for v in term} == {float}


FUNCTIONALS = {alpha: MomentFunctional(AlphaContext(alpha)) for alpha in (0.5, 1.0)}


def _chunk(family, alpha, adversarial, seed):
    """16 trial rows ``(series, functional, a, b, x, p, q)`` drawn as ``falsify`` draws them, over its ranges.

    Every fourth trial starts at a = 0, and two in four put x at an end;
    the last has p = q = 2, whose only integral is that of ``|f|*|f|``.
    """
    rng = np.random.default_rng(seed)
    functional = FUNCTIONALS[alpha]
    base = parse_function_spec(family).realize(functional.ctx).terms
    rows = []
    for i in range(16):
        a, length, frac, p = rng.uniform(0.0, 2.0), rng.uniform(0.25, 3.0), rng.random(), rng.uniform(1.2, 5.2)
        scales = rng.uniform(-2.0 if adversarial else 0.0, 2.0, len(base)).tolist()
        a = 0.0 if i % 4 == 0 else a
        frac = {1: 0.0, 2: 1.0}.get(i % 4, frac)
        p = 2.0 if i == 15 else p
        f = AlphaSeries(tuple((k, c * u) for (k, c), u in zip(base, scales)), functional.ctx)
        rows.append((f, functional, a, a + length, a + frac * length, p, p / (p - 1.0)))
    return rows


def _row_bits(rep):
    """Every report column, with floats as their bits, so -0.0 differs from 0.0."""
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in map(rep.__getattribute__, CSV_COLUMNS))


def _evaluated(ineq, f, functional, a, b, x, p, q):
    """The row of the point, or the type and text of its error."""
    try:
        return _row_bits(INEQUALITIES[ineq].evaluate(f, functional, a, b, x, None, p, q))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _sampled_again(*args):
    raise AssertionError("a prepared row was sampled again")


def _cached(ineq, f, functional, a, b, x):
    """Whether every integral the row of ``ineq`` samples is cached on ``f`` (on f'' for identity)."""
    if ineq == "holder":
        held = f._memo.get(("holder", a, b))
        return held is not None and held[0] is functional
    held = lf_derivative_n(f, 2)._memo.get(("moments", False))
    moments = held[1] if held is not None and held[0] is functional else {}
    return all((2.0, x, e) in moments for _, e in _identity_sides(x, a, b) if e != 0.0 and x != 0.0)


@pytest.mark.parametrize("ineq", ["holder", "identity"])
@pytest.mark.parametrize("adversarial", [False, True], ids=["plain", "adversarial"])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("family", ["poly:1,0.5,0.25,0.1", "ml:6", "mono:2.5"])
def test_prepared_rows_are_the_rows_of_fresh_series(family, alpha, adversarial, ineq, monkeypatch):
    rows = _chunk(family, alpha, adversarial, seed=len(family) + int(10 * alpha) + adversarial)
    with np.errstate(over="ignore", invalid="ignore"):  # as in falsify
        want = [_evaluated(ineq, AlphaSeries(f.terms, f.ctx), fl, a, b, x, p, q) for f, fl, a, b, x, p, q in rows]
        INEQUALITIES[ineq].prepare(rows)
        assert all(_cached(ineq, f, fl, a, b, x) for f, fl, a, b, x, _, _ in rows)
        # a prepared row reads what its step cached, and samples nothing
        monkeypatch.setattr(inequalities, "_holder_integrals", _sampled_again)
        monkeypatch.setattr(quadrature, "_sampled_moments", _sampled_again)
        got = [_evaluated(ineq, f, fl, a, b, x, p, q) for f, fl, a, b, x, p, q in rows]
    assert got == want
    assert not any(isinstance(row[0], str) and row[0].endswith("Error") for row in want)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_a_row_with_non_finite_samples_is_left_uncached_and_raises_as_before(alpha):
    # one chunk of ml:6 trials: the second trial's |f|**p overflows on the grid (|f| is about 1e100
    # and p = 4), and the third's |f| and f'' are inf on the far side of x; the others are finite
    rows = _chunk("ml:6", alpha, False, seed=2)[:4]
    f, fl, a, b, x, _, _ = rows[1]
    rows[1] = (AlphaSeries(tuple((k, c * 1e100) for k, c in f.terms), f.ctx), fl, a, b, x, 4.0, 4.0 / 3.0)
    f, fl, a, b, x, p, q = rows[2]
    rows[2] = (AlphaSeries(tuple((k, c * 1e300) for k, c in f.terms), f.ctx), fl, a, 1e9, 5e8, p, q)
    for ineq, bad in (("holder", {1, 2}), ("identity", {2})):
        prepared = [(AlphaSeries(f.terms, f.ctx), *rest) for f, *rest in rows]
        with np.errstate(over="ignore", invalid="ignore"):
            want = [_evaluated(ineq, AlphaSeries(f.terms, f.ctx), *rest) for f, *rest in rows]
            INEQUALITIES[ineq].prepare(prepared)
            got = [_evaluated(ineq, *row) for row in prepared]
        assert got == want
        assert [want[i][0] for i in sorted(bad)] == ["QuadratureError"] * len(bad)
        assert [_cached(ineq, *row[:5]) for row in prepared] == [i not in bad for i in range(4)]


def test_a_chunk_of_p_2_trials_reads_only_the_square():
    # with p = q = 2 no trial has another exponent, so the kernel makes no power call
    rows = [(f, fl, a, b, x, 2.0, 2.0) for f, fl, a, b, x, _, _ in _chunk("ml:6", 1.0, True, seed=6)]
    with np.errstate(over="ignore", invalid="ignore"):
        want = [_evaluated("holder", AlphaSeries(f.terms, f.ctx), *rest) for f, *rest in rows]
        INEQUALITIES["holder"].prepare(rows)
        assert [list(f._memo["holder", a, b][1]) for f, _, a, b, *_ in rows] == [[2.0]] * len(rows)
        assert [_evaluated("holder", *row) for row in rows] == want


@pytest.mark.parametrize("ineq", ["holder", "identity"])
def test_a_prepared_value_is_read_only_with_its_functional(ineq):
    # prepared with one functional, evaluated with an equal one and with one of another basis
    rows = _chunk("ml:6", 0.5, True, seed=4)
    ctx = rows[0][0].ctx
    with np.errstate(over="ignore", invalid="ignore"):
        INEQUALITIES[ineq].prepare(rows)
        for other in (MomentFunctional(ctx), MomentFunctional(ctx, max_grade=8)):
            got = [_evaluated(ineq, f, other, a, b, x, p, q) for f, _, a, b, x, p, q in rows]
            want = [_evaluated(ineq, AlphaSeries(f.terms, ctx), other, a, b, x, p, q) for f, _, a, b, x, p, q in rows]
            assert got == want


@pytest.mark.parametrize("ineq", ["holder", "identity"])
def test_falsify_samples_a_prepared_trial_only_in_its_chunk_kernel_call(ineq, monkeypatch):
    # a tolerance no slack reaches: every trial is drawn, prepared and evaluated; the kernel's calls
    # are the canonical probe's one-row call, then one per chunk of the job's one plan
    sizes = []
    if ineq == "holder":
        kernel = inequalities._holder_integrals

        def recorded(rows, functional):
            sizes.append(len(rows))
            return kernel(rows, functional)

        monkeypatch.setattr(inequalities, "_holder_integrals", recorded)
        per_trial = 1
    else:
        kernel = quadrature._sampled_moments

        def recorded(f2, xs, *rest):
            sizes.append(len(xs))
            return kernel(f2, xs, *rest)

        monkeypatch.setattr(quadrature, "_sampled_moments", recorded)
        per_trial = 2  # both sides of x, as a > 0 and x is inside [a, b]
    result = _job(ineq, "ml:6", (0.5,), True, 5, monkeypatch, Tolerances(slack_tol=1e300))
    assert result[0] == "none\n"
    assert sizes == [1] + [per_trial * n for n in (1, 2, 4, 8, 16, 16, 13)]

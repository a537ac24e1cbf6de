"""Every registry ``prepare`` step is only a cache, and only ``falsify`` runs one.

An id's prepare step fills theta of f'' for the six theta forms and theta
of f' for ``ostrowski``, for rows ``(series, a, b)``.  ``run_sweep`` never
calls it: a sweep computes what its blocks share through the registry's
``block`` evaluators.  ``falsify`` prepares its random trials a chunk
ahead, in chunks of 1, 2, 4, 8 and then 16 trials, whatever alphas they
have, and never holds more than 16 prepared trial series at once.  A job's
witness and its number of ``evaluate_single`` calls are the same when the
step is removed and when it raises.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from alphaineq import harness
from alphaineq.harness import SweepConfig, Tolerances, falsify, parse_function_spec, render_report, run_sweep
from alphaineq.inequalities import INEQUALITIES

#: The ids with a prepare step, in registry order.
PREPARED = [
    "ostrowski",
    "theta-thm1", "midpoint-theta-thm1", "theta-thm2", "midpoint-theta-thm2", "theta-thm3", "midpoint-theta-thm3",
]


def test_prepared_ids():
    assert [i for i, rec in INEQUALITIES.items() if rec.prepare is not None] == PREPARED


def _broken(rows):
    raise RuntimeError("prepare failed")


def _variants(ineq):
    """The registry row of ``ineq`` with its prepare step, without one and with one that raises.

    With the raising step, ``falsify`` draws the trials of every id in
    chunks, and calls the step on each.
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
        held.extend(weakref.ref(f) for f, _, _ in rows)
        calls.append((len(rows), sum(ref() is not None for ref in held)))
        real(rows)

    monkeypatch.setitem(INEQUALITIES, ineq, replace(INEQUALITIES[ineq], prepare=recorded))
    result = _job(ineq, "ml:6", alphas, False, 5, monkeypatch, Tolerances(slack_tol=1e300))
    assert result == ("none\n", 3 * len(alphas) + TRIALS)  # three canonical probes per alpha, then every trial
    # one call per chunk, whatever alphas its trials have
    assert [n for n, _ in calls] == [1, 2, 4, 8, 16, 16, 13]
    assert all(live <= 16 for _, live in calls), calls

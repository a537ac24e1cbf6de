"""The benchmark must still run against the program.

``bench/spans.py`` rebinds program functions by module and attribute name,
and ``bench/workloads.py`` reads program names and options (such as
``AlphaContext.slack_tol``, the ``hypothesis_grid`` option of
``eval_thm1``-``3``, and the module-level ``harness.evaluate_single``,
which it rebinds to count a falsify job's evaluations).  A change in the
program would otherwise surface only when the benchmark runs.  These tests
check the tracer's targets, and run one untraced pass of each workload
through its own checks.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH_DIR))


@pytest.fixture(scope="module")
def spans():
    module = _bench_module("spans")
    import alphaineq.cli  # noqa: F401  (the tracer wraps cli.main too)

    return module


@pytest.fixture(scope="module")
def workloads():
    return _bench_module("workloads")


WORKLOADS = ("sweep-reference", "sweep-quadrature", "certify-gated", "falsify-search")


def test_every_workload_is_smoke_tested(workloads):
    assert tuple(workloads.WORKLOADS) == WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_pass_of_each_workload_passes_its_checks(name, workloads, tmp_path):
    from alphaineq import harness

    evaluate_single = harness.evaluate_single
    wl = workloads.make(name, 1, tmp_path)
    wl.generate()
    wl.setup()
    result = wl.run_pass(None)
    assert harness.evaluate_single is evaluate_single  # falsify-search restores what it rebinds
    verdict = wl.check(result.output)
    assert verdict.problems == []
    # a workload records a raising row (or job) instead of failing, so a call the program no
    # longer accepts, such as eval_thm1(..., hypothesis_grid=24), shows only as an error count
    assert verdict.errors == 0
    # falsify-search counts the evaluate_single calls its jobs make through the rebound name
    assert result.rows > 0 and verdict.rows > 0


@pytest.mark.parametrize("name", ("sweep-reference", "sweep-quadrature"))
def test_a_bench_sweep_evaluates_no_point_on_its_own(name, workloads, tmp_path, monkeypatch):
    # run_sweep evaluates a block's points one at a time only when the block raises, and the rows
    # are the same either way: a block broken for every input would show in no output, only here
    from alphaineq import harness

    wl = workloads.make(name, 1, tmp_path)
    wl.generate()
    wl.setup()
    calls = []
    single = harness.evaluate_single

    def counted(ineq, *args, **kwargs):
        calls.append(ineq)
        return single(ineq, *args, **kwargs)

    monkeypatch.setattr(harness, "evaluate_single", counted)
    assert len(harness.run_sweep(wl.cfg)) == wl.expected_rows
    assert calls == []


def test_every_target_resolves(spans):
    import alphaineq

    missing = []
    for name, mod, cls, attr, _kind, _key in spans.TARGETS:
        holder = getattr(alphaineq, mod, None)
        if cls is not None:
            holder = getattr(holder, cls, None)
        if holder is None or not callable(vars(holder).get(attr)):
            missing.append(name)
    assert not missing, f"bench/spans.py targets missing from the program: {missing}"


def test_traced_registry_reaches_every_evaluator_and_restores(spans):
    from alphaineq import harness, inequalities
    from alphaineq.alphanum import AlphaContext
    from alphaineq.quadrature import MomentFunctional

    ctx = AlphaContext(1.0)
    series = harness.parse_function_spec("mono:3").realize(ctx)
    functional = MomentFunctional(ctx)
    before = dict(vars(inequalities)), dict(vars(harness))
    tracer = spans.Tracer()
    tracer.install()
    try:
        for ineq in harness.INEQUALITY_IDS:
            harness.evaluate_single(ineq, series, functional, 0.5, 1.5, 0.9, 0.5, 2.0, 2.0)
    finally:
        tracer.uninstall()
    assert tracer.not_restored() == []
    assert (dict(vars(inequalities)), dict(vars(harness))) == before
    # the registry looks evaluators up by name, so every one was traced
    evaluators = [t[0] for t in spans.TARGETS if t[0].startswith("inequalities.eval_")]
    evaluators.append("inequalities.identity_residual")
    assert [n for n in evaluators if tracer.stats[n].calls == 0] == []
    # the cached records call these by their module-global names, which the tracer rebinds
    assert tracer.stats["inequalities.ostrowski_constants"].calls > 0
    assert tracer.stats["alphanum.gamma"].calls > 0


def test_lattice_points_hook_reads_the_grid_argument(spans):
    # the convexity.lattice_points hook reads ``grid`` as the fifth positional argument
    import inspect

    from alphaineq import convexity
    from alphaineq.alphanum import AlphaContext

    signature = inspect.signature(convexity.check_s_convex_second)
    assert list(signature.parameters).index("grid") == 4
    named = dict(f=lambda u: u * u, s=0.5, lo=0.0, hi=1.0, grid=7, ctx=AlphaContext(1.0))
    tracer = spans.Tracer()
    tracer.install()
    try:
        convexity.check_s_convex_second(*signature.bind(**named).args)
    finally:
        tracer.uninstall()
    assert tracer.stats["convexity.check_s_convex_second"].extra == 7**3

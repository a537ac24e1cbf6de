"""The benchmark's tracer must still find every function it wraps.

``bench/spans.py`` rebinds program functions by module and attribute name;
a rename in the program would otherwise surface only when the benchmark
runs.  These tests import the tracer and check its targets without running
any workload.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import spans as module
    finally:
        sys.path.remove(str(BENCH_DIR))
    import alphaineq.cli  # noqa: F401  (the tracer wraps cli.main too)

    return module


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

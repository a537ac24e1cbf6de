"""The "same behaviour" gate: the reference sweep's output, digit for digit.

``bench/reference_sweep.json`` is the fixed 6480-row sweep (4 alphas, 6
functions, all 17 ids).  Its CSV and JSON reports must keep the SHA-256
digests below.  A change that moves digits on purpose updates the constants
and names the cause in CHANGES.md.  The digests depend on the numeric
library, so the test skips, naming the reason, under any other numpy
version than the one they were recorded with.
"""

import hashlib
import json
from pathlib import Path

import numpy
import pytest

from alphaineq import quadrature
from alphaineq.cli import main
from alphaineq.harness import CSV_COLUMNS, SweepConfig, render_report, run_sweep
from alphaineq.quadrature import MomentFunctional, composed_moment
from alphaineq.series import lf_derivative_n
from reference import json_value

CONFIG = Path(__file__).resolve().parents[1] / "bench" / "reference_sweep.json"

#: The numpy version the digests were recorded with.
RECORDED_WITH = "2.4.6"

DIGESTS = {
    "csv": "bbd4ea475f0e431f06d8337ec5d69460368a0fbf353257a2838ebb13ddd965fd",
    "json": "4483bde8dae6918639e668e49f7201af0ef98907277bf6d5af0f4075a1cd9f8f",
}


@pytest.mark.parametrize("fmt", sorted(DIGESTS))
def test_reference_sweep_digest(fmt, tmp_path):
    if numpy.__version__ != RECORDED_WITH:
        pytest.skip(
            f"reference digests are tied to their numpy version: numpy {numpy.__version__} "
            f"(digests recorded with {RECORDED_WITH})"
        )
    out = tmp_path / f"reference.{fmt}"
    # 480 rows have non-finite slack and count as violations, so the exit code is 1
    assert main(["sweep", "--config", str(CONFIG), "--out", str(out), "--format", fmt]) == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[fmt]


def test_json_rows_match_json_dumps():
    # the per-row JSON writer against one json.dumps of every record, whatever the numpy version
    rows = run_sweep(SweepConfig.from_json(CONFIG))
    records = [{c: json_value(getattr(r, c)) for c in CSV_COLUMNS} for r in rows]
    assert render_report(rows, "json") == json.dumps(records, indent=2, allow_nan=False) + "\n"


def _reference_integrals(cfg):
    """Every integral of the reference sweep that goes through the quadrature.

    Holder rows integrate ``|f|**r`` over ``[a, b]`` for ``r`` = 2, p and q;
    identity rows take the weighted moment of ``f''`` on ``[x, e]`` for the
    interior points ``x`` and each endpoint ``e`` off the origin (segments
    from the origin have exact moments).
    """
    powers = sorted({2.0} | {r for pq in cfg.pq_pairs for r in pq})
    for alpha in cfg.alphas:
        ctx = cfg.context(alpha)
        for spec in cfg.functions:
            f = spec.realize(ctx)
            f2 = lf_derivative_n(f, 2)
            for a, b in cfg.intervals:
                for r in powers:
                    yield alpha, "holder", f, (a, b, r)
                for fr in cfg.x_fractions:
                    x = a + fr * (b - a)
                    for e in (a, b):
                        if 0.0 not in (x, e) and x != e:
                            yield alpha, "identity", f2, (x, e)


def _numeric(kind, series, args, functional):
    if kind == "holder":
        a, b, r = args
        return functional.integrate(numpy.abs(series.evaluate(a + functional.grid * (b - a))) ** r)
    x, e = args
    return composed_moment(series, 2.0, x, e, functional)


def _kernel_integral(mp, kind, series, args):
    al = mp.mpf(series.ctx.alpha)

    def at(u):
        return sum(mp.mpf(c) * u ** (mp.mpf(k) * al) for k, c in series.terms)

    if kind == "holder":
        a, b, r = (mp.mpf(v) for v in args)
        g = lambda t: abs(at(a + t * (b - a))) ** r
    else:
        x, e = (mp.mpf(v) for v in args)
        g = lambda t: t ** (2 * al) * at(e + t * (x - e))
    return mp.quad(lambda t: g(t) * (1 - t) ** (al - 1), [0, 1]) / mp.gamma(al)


def test_moved_integrals_are_no_less_accurate(monkeypatch):
    """The reference integrals that the numpy Gauss-Jacobi rule moved.

    A seeded sample of them, each against the kernel integral in 30-digit
    arithmetic: no value is further from it than the value on the grid
    from ``scipy.special.roots_jacobi`` by more than 1e-14 relative.
    """
    mp = pytest.importorskip("mpmath")
    special = pytest.importorskip("scipy.special")
    cfg = SweepConfig.from_json(CONFIG)
    new = {alpha: MomentFunctional(cfg.context(alpha)) for alpha in cfg.alphas}
    with monkeypatch.context() as patch:
        # an empty store, so the old functionals do not share the new ones' rules
        patch.setattr(quadrature, "_RULES", {})
        patch.setattr(quadrature, "_gauss_jacobi", lambda n, alpha: special.roots_jacobi(n, alpha - 1.0, 0.0))
        old = {alpha: MomentFunctional(cfg.context(alpha)) for alpha in cfg.alphas}
        for functional in old.values():
            functional.grid  # the rule is built on first use: build it under the patch
    moved = []
    for alpha, kind, series, args in _reference_integrals(cfg):
        got, was = _numeric(kind, series, args, new[alpha]), _numeric(kind, series, args, old[alpha])
        if got != was:
            moved.append((kind, series, args, got, was))
    rng = numpy.random.default_rng(20261018)
    sample = [moved[i] for i in sorted(rng.choice(len(moved), size=36, replace=False))]
    with mp.workdps(30):
        for kind, series, args, got, was in sample:
            true = _kernel_integral(mp, kind, series, args)
            err_new = float(abs((got - true) / true))
            err_old = float(abs((was - true) / true))
            assert err_new <= err_old + 1e-14, (kind, series.ctx.alpha, args, err_new, err_old)

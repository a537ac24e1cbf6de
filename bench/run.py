"""alphaineq benchmark: one workload, end to end or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-reference --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped (apart
from a call counter on ``evaluate_single`` in falsify-search).  ``--trace 1``
runs the workload untraced for half of ``--seconds`` and traced for the
other half, and reports the per-layer metrics of :mod:`spans`, per pass.
Either way the outputs are checked, the checks are shown to reject
corrupted copies of the outputs, and the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every check passed.

End-to-end metrics:

* ``setup_s``: median over seven fresh interpreters of the wall-clock time
  of ``import alphaineq.cli`` plus the workload's set-up (config,
  ``MomentFunctional`` per alpha).  Not scaled: import time is file and
  loader work that the calibration kernel does not track.
* ``rows_per_s``: rows evaluated and emitted per second (falsify-search:
  ``evaluate_single`` calls per second).
* ``jobs_per_s``, ``job_ms_p50``, ``job_ms_p90``: a job is one sweep (sweep
  workloads), one suite pass (certify-gated) or one ``falsify`` call
  (falsify-search, 204 per pass, the only workload with several jobs per
  pass); the percentiles are over the distinct jobs of a pass.

Every pass repeats the same jobs.  A job's time is its median over the
run's passes, each repetition scaled by the calibration kernel timed around
it (:mod:`calibration`).  The wall-clock rate is printed alongside.
* ``failed_frac``: share of one pass's rows that raised or have a
  non-finite slack (falsify-search: share of jobs that raised), reported as
  its one-sided 95% Wilson upper bound so that zero failures in n rows
  still reads as a non-zero rate of at most about 2.7/n.
* ``peak_rss_mb``: ``ru_maxrss`` of the measuring process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "bench"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
WILSON_Z = 1.6449  # one-sided 95%
MAX_PROBLEMS_SHOWN = 20


def wilson_upper(k: int, n: int) -> float:
    p = k / n
    z2 = WILSON_Z * WILSON_Z
    centre = p + z2 / (2 * n)
    margin = WILSON_Z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return (centre + margin) / (1 + z2 / n)


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def probe_setup(name: str, seed: int) -> list[dict]:
    """Run the set-up probe in fresh interpreters, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def timed_passes(wl, seconds: float, cal, end_pass=None) -> list:
    """Closed loop: whole passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    cal.sample()
    while True:
        p = wl.run_pass(cal)
        cal.sample()
        if passes:
            p.output = None  # only the first pass's output is checked in full
        passes.append(p)
        if end_pass is not None:
            end_pass()
        if time.perf_counter() - start >= seconds:
            return passes


def job_times(passes, cal=None) -> list[float]:
    """Each job's time: the median over the run's passes, which all repeat it.

    With ``cal`` the times are scaled by the calibration samples around each
    job; without, they are wall-clock seconds.
    """
    def one(t0, t1):
        return cal.scaled(t0, t1) if cal is not None else t1 - t0

    per_pass = [[one(t0, t1) for t0, t1 in p.jobs] for p in passes]
    return [statistics.median(times) for times in zip(*per_pass)]


def rows_rate(passes, cal=None) -> float:
    return passes[0].rows / sum(job_times(passes, cal))


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(load_at_start: tuple[float, float, float]) -> dict:
    import numpy
    import scipy

    src = ROOT / "src" / "alphaineq"
    loc, digest = {}, hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        loc[path.stem] = sum(1 for line in text.splitlines() if line.strip())
        digest.update(path.name.encode() + b"\0" + text.encode())
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_loc": loc,
        "src_loc_total": sum(loc.values()),
    }


def check_outputs(wl, passes) -> tuple[object, list[str]]:
    """Check the first pass, determinism across passes, and the checks themselves."""
    verdict = wl.check(passes[0].output)
    problems = list(verdict.problems)
    for i, p in enumerate(passes[1:], start=1):
        if (p.digest, p.rows) != (passes[0].digest, passes[0].rows):
            problems.append(f"pass {i} output differs from pass 0")
    for label, corrupted in wl.corruptions(passes[0].output):
        if not wl.check(corrupted).problems:
            problems.append(f"self-test: checks accepted a corrupted output ({label})")
    return verdict, problems


def recorded_digest(name: str, seed: int) -> str | None:
    path = BENCH_DIR / "digests.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    by_seed = table.get(name, {})
    return by_seed.get(str(seed), by_seed.get("any"))


def end_to_end(passes, cal, verdict, probes, wl) -> dict:
    jobs = job_times(passes, cal)
    if wl.name == "falsify-search":
        k, n = verdict.errors, len(wl.jobs)
    else:
        k, n = verdict.errors + verdict.nonfinite, verdict.rows
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "rows_per_s": (rows_rate(passes, cal), "1/s"),
        "jobs_per_s": (len(jobs) / sum(jobs), "1/s"),
        "job_ms_p50": (1e3 * statistics.median(jobs), "ms"),
        "job_ms_p90": (1e3 * percentile(jobs, 90), "ms"),
        "failed_frac": (wilson_upper(k, n), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "alphaineq" / "__init__.py").is_file():
        print(f"error: no alphaineq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, OUT_DIR)
    wl.generate()
    probes = probe_setup(args.workload, args.seed)
    wl.setup()
    wl.warmup()

    problems: list[str] = []
    cal = calibration.Calibration()
    if args.trace:
        untraced = timed_passes(wl, args.seconds / 2, cal)
        tracer = spans.Tracer()
        tracer.install()
        try:
            passes = timed_passes(wl, args.seconds / 2, cal, tracer.end_pass)
        finally:
            tracer.uninstall()
        problems += [f"not restored after tracing: {n}" for n in tracer.not_restored()]
        metrics = tracer.metrics(len(passes))
        metrics["setup.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
        overhead = rows_rate(untraced, cal) / rows_rate(passes, cal) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        n_spans = tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        print(f"spans: {n_spans} written to .bench_out/spans-{args.workload}-seed{args.seed}.csv.gz")
        passes = untraced + passes
    else:
        passes = untraced = timed_passes(wl, args.seconds, cal)

    verdict, more = check_outputs(wl, passes)
    problems += more
    if not args.trace:
        metrics = end_to_end(passes, cal, verdict, probes, wl)

    expected = recorded_digest(args.workload, args.seed)
    outputs = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "rows_per_pass": verdict.rows,
        "error_rows": verdict.errors,
        "nonfinite_rows": verdict.nonfinite,
        "violated_rows": verdict.violated,
        **verdict.info,
        "digest": passes[0].digest,
        "digest_recorded": expected,
        "digest_match": None if expected is None else expected == passes[0].digest,
        "wall_rows_per_s": rows_rate(untraced),
        "kernel_ms_median": 1e3 * statistics.median(cal.kernel),
    }
    print("provenance: " + json.dumps(provenance(load_at_start)))
    print("outputs: " + json.dumps(outputs))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"CHECK FAILED: ... {len(problems) - MAX_PROBLEMS_SHOWN} more", file=sys.stderr)

    attempted = sum(p.rows for p in passes) if args.workload != "falsify-search" else sum(
        len(p.jobs) for p in passes
    )
    failed = verdict.errors * len(passes)  # every pass is checked identical to the first
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

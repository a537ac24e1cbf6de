"""The four benchmark workloads: inputs from a seed, one pass, output checks.

Each workload is driven as a closed loop by one thread: the next pass (or
job) starts only when the previous one has returned.  Inputs are generated
here from the workload seed; the program only ever sees the generated
inputs, through its public API.

A *pass* is the unit the timed loop repeats:

* ``sweep-reference`` / ``sweep-quadrature``: one ``alphaineq sweep`` run
  (``cli.main``: config file -> ``run_sweep`` -> CSV file).  One job.
* ``certify-gated``: the alpha = 1 soundness suite, thm1-3 with the
  s-convexity hypothesis grid-checked inside every row.  One job.
* ``falsify-search``: all 204 ``harness.falsify`` jobs, each one a job.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import alphaineq.cli as cli
from alphaineq import harness, inequalities
from alphaineq.alphanum import AlphaContext
from alphaineq.harness import (
    INEQUALITY_IDS,
    SweepConfig,
    evaluate_single,
    expected_row_count,
    load_report,
    parse_function_spec,
    render_report,
)
from alphaineq.inequalities import IneqReport
from alphaineq.quadrature import MomentFunctional

BENCH_DIR = Path(__file__).resolve().parent

#: The six candidate functions of the randomized sweep property tests.
FN_POOL = ("mono:2", "mono:3", "mono:2.5", "poly:1,0,0.5", "series:(1.5,2);(4,0.25)", "ml:7")

#: Slack a row that claims to hold must reach (acceptance criterion 5).
SOUND_SLACK = -1e-9

#: Lattice size of the s-convexity hypothesis check in certify-gated.
HYPOTHESIS_GRID = 24

#: Trials per falsify job.
FALSIFY_TRIALS = 200

clock = time.perf_counter


@dataclass
class PassResult:
    """What one pass produced.

    ``jobs`` holds the (start, end) clock readings of each job; ``rows``
    counts evaluated rows (for falsify: ``evaluate_single`` calls);
    ``output`` is what the checks read; ``digest`` is the SHA-256 of the
    emitted CSV (falsify: witness rows).
    """

    jobs: list[tuple[float, float]]
    rows: int
    output: object
    digest: str


@dataclass
class Verdict:
    """Outcome of checking one pass's output."""

    problems: list[str] = field(default_factory=list)
    rows: int = 0
    errors: int = 0
    nonfinite: int = 0
    violated: int = 0
    info: dict = field(default_factory=dict)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _verdict_counts(v: Verdict, reports, slack_tol: float) -> None:
    """Count rows and check ``holds`` against the slack of each report."""
    for i, r in enumerate(reports):
        v.rows += 1
        if r.notes.startswith("error:"):
            v.errors += 1
            if r.holds:
                v.problems.append(f"row {i}: error row marked as holding")
            continue
        if not math.isfinite(r.slack):
            v.nonfinite += 1
        if r.holds != (r.slack >= -slack_tol):
            v.problems.append(f"row {i}: holds={r.holds} contradicts slack={r.slack!r}")
        if not r.holds:
            v.violated += 1


class SweepWorkload:
    """``alphaineq sweep`` on one config, through the CLI entry point."""

    def __init__(self, name: str, seed: int, out_dir: Path) -> None:
        self.name = name
        self.seed = seed
        self.config_path = out_dir / f"{name}-seed{seed}.json"
        self.csv_path = out_dir / f"{name}-seed{seed}.csv"
        self.check_path = out_dir / f"{name}-seed{seed}-check.csv"

    def generate(self) -> None:
        """Write the sweep config the program will read (parent process only)."""
        self.config_path.write_text(self.config_text(), encoding="utf-8")

    def config_text(self) -> str:
        raise NotImplementedError

    def setup(self) -> None:
        self.cfg = SweepConfig.from_json(self.config_path)
        self.expected_rows = expected_row_count(self.cfg)
        # what every `alphaineq eval` builds before evaluating
        self.functionals = [MomentFunctional(self.cfg.context(a)) for a in self.cfg.alphas]

    def warmup(self) -> None:
        self.run_pass(None)

    def run_pass(self, calibration) -> PassResult:
        argv = ["sweep", "--config", str(self.config_path), "--out", str(self.csv_path)]
        t0 = clock()
        code = cli.main(argv)
        t1 = clock()
        if code not in (0, 1):
            raise RuntimeError(f"alphaineq sweep exited with {code}")
        text = self.csv_path.read_text(encoding="utf-8")
        return PassResult([(t0, t1)], text.count("\n") - 1, text, _sha(text))

    def check(self, text: str) -> Verdict:
        v = Verdict()
        n_lines = text.count("\n") - 1
        if n_lines != self.expected_rows:
            v.problems.append(f"{n_lines} rows, expected_row_count says {self.expected_rows}")
        self.check_path.write_text(text, encoding="utf-8")
        rows = load_report(self.check_path, "csv")
        if render_report(rows, "csv") != text:
            v.problems.append("CSV does not round-trip through load_report")
        ids = set(INEQUALITY_IDS)
        alphas = set(self.cfg.alphas)
        for i, r in enumerate(rows):
            if r.ineq not in ids or r.alpha not in alphas:
                v.problems.append(f"row {i}: unknown ineq/alpha ({r.ineq}, {r.alpha})")
        _verdict_counts(v, rows, self.cfg.context(self.cfg.alphas[0]).slack_tol)
        return v

    def corruptions(self, text: str):
        lines = text.splitlines(keepends=True)
        table = list(csv.reader(io.StringIO(text)))
        col = table[0].index("holds")
        i = next(j for j, row in enumerate(table) if j and row[col] == "true")
        table[i][col] = "false"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        yield "flipped holds", buf.getvalue()
        yield "dropped row", "".join(lines[:-1])


class SweepReference(SweepWorkload):
    """The fixed reference sweep: 6480 rows, independent of the seed."""

    def config_text(self) -> str:
        return (BENCH_DIR / "reference_sweep.json").read_text(encoding="utf-8")


class SweepQuadrature(SweepWorkload):
    """Holder and identity rows only, on seeded interior points.

    Intervals start at a > 0 and x-fractions are interior, so every row
    bypasses the exact shortcuts of ``composed_moment`` and goes through
    the least-squares fit.
    """

    def config_text(self) -> str:
        rng = random.Random(f"sweep-quadrature:{self.seed}")
        intervals = []
        for _ in range(3):
            a = round(rng.uniform(0.05, 1.5), 4)
            intervals.append([a, round(a + rng.uniform(0.5, 2.0), 4)])
        fracs = sorted(k / 1e4 for k in rng.sample(range(500, 9501), 5))
        pq = []
        for _ in range(4):
            p = round(rng.uniform(1.2, 4.0), 4)
            pq.append([p, p / (p - 1.0)])
        cfg = {
            "alphas": [0.3, 0.5, 0.7, 0.9, 1.0],
            "functions": list(FN_POOL),
            "inequalities": ["holder", "identity"],
            "intervals": intervals,
            "x_fractions": fracs,
            "pq_pairs": pq,
        }
        return json.dumps(cfg, indent=1) + "\n"


class CertifyGated:
    """The alpha = 1 soundness suite with the hypothesis check in every row.

    Five functions, the intervals [0, 1] and [0.5, 2], s in {.25, .5, .75, 1},
    nine seeded x per interval and three (p, q) pairs: 36 thm1, 108 thm2 and
    108 thm3 rows per (function, interval), 2520 rows per pass.
    """

    FUNCTIONS = ("mono:2", "mono:3", "mono:4", "mono:2.5", "ml:9")
    INTERVALS = ((0.0, 1.0), (0.5, 2.0))
    S_VALUES = (0.25, 0.5, 0.75, 1.0)
    PQ_PAIRS = ((2.0, 2.0), (3.0, 1.5), (4.0, 4.0 / 3.0))

    def __init__(self, name: str, seed: int, out_dir: Path) -> None:
        self.name = name
        self.seed = seed
        rng = random.Random(f"certify-gated:{seed}")
        self.points = {iv: sorted(rng.uniform(*iv) for _ in range(9)) for iv in self.INTERVALS}

    def generate(self) -> None:
        pass

    def setup(self) -> None:
        self.ctx = AlphaContext(1.0)
        self.functionals = [MomentFunctional(self.ctx)]
        self.blocks = []  # 252 rows per (function, interval)
        for spec in self.FUNCTIONS:
            f = parse_function_spec(spec).realize(self.ctx)
            for (a, b) in self.INTERVALS:
                calls = []
                self.blocks.append(calls)
                for s in self.S_VALUES:
                    for x in self.points[(a, b)]:
                        calls.append(("eval_thm1", (f, s, x, a, b), spec))
                    for (p, q) in self.PQ_PAIRS:
                        for x in self.points[(a, b)]:
                            calls.append(("eval_thm2", (f, s, p, q, x, a, b), spec))
                            calls.append(("eval_thm3", (f, s, q, x, a, b), spec))
        self.n_rows = sum(len(calls) for calls in self.blocks)

    def warmup(self) -> None:
        for calls in self.blocks:
            for name, args, spec in calls[::50]:
                getattr(inequalities, name)(*args, hypothesis_grid=HYPOTHESIS_GRID)

    def run_pass(self, calibration) -> PassResult:
        # looked up per pass, so that a traced pass calls the traced functions
        evaluators = {name: getattr(inequalities, name) for name in ("eval_thm1", "eval_thm2", "eval_thm3")}
        reports = []
        t0 = clock()
        for calls in self.blocks:
            if calibration is not None:
                calibration.maybe_sample()
            for name, args, spec in calls:
                try:
                    rep = evaluators[name](*args, hypothesis_grid=HYPOTHESIS_GRID).with_fn(spec)
                except Exception as exc:  # a raising row is recorded, never fatal
                    rep = IneqReport(
                        name, 1.0, math.nan, math.nan, math.nan, False, fn=spec,
                        notes=f"error: {exc}",
                    )
                reports.append(rep)
        text = harness.render_report(reports, "csv")
        t1 = clock()
        return PassResult([(t0, t1)], len(reports), reports, _sha(text))

    def check(self, reports) -> Verdict:
        v = Verdict()
        if len(reports) != self.n_rows:
            v.problems.append(f"{len(reports)} rows, expected {self.n_rows}")
        verified = 0
        for i, r in enumerate(reports):
            if r.notes == "hypothesis=verified":
                verified += 1
                if not (r.holds and r.slack >= SOUND_SLACK):
                    v.problems.append(f"row {i}: verified hypothesis but slack={r.slack!r}")
        _verdict_counts(v, reports, self.ctx.slack_tol)
        v.info = {"verified_rows": verified, "unverified_rows": len(reports) - verified}
        return v

    def corruptions(self, reports):
        i = next(j for j, r in enumerate(reports) if r.notes == "hypothesis=verified")
        flipped = list(reports)
        flipped[i] = replace(reports[i], holds=not reports[i].holds)
        yield "flipped holds", flipped
        yield "dropped row", reports[:-1]


class FalsifySearch:
    """``harness.falsify`` over 17 ids x 3 families x 2 alphas x 2 modes.

    Each job gets its own seed drawn from the workload seed.  Every trial
    builds a fresh series on a fresh interval, so per-input caches mostly
    miss here.
    """

    FAMILIES = ("poly:1,0.5,0.25,0.1", "ml:6", "mono:2.5")
    ALPHAS = (0.5, 1.0)

    def __init__(self, name: str, seed: int, out_dir: Path) -> None:
        self.name = name
        self.seed = seed
        rng = random.Random(f"falsify-search:{seed}")
        self.jobs = [
            (ineq, family, alpha, adversarial, rng.randrange(2**31))
            for ineq in INEQUALITY_IDS
            for family in self.FAMILIES
            for alpha in self.ALPHAS
            for adversarial in (False, True)
        ]

    def generate(self) -> None:
        pass

    def setup(self) -> None:
        self.configs = []
        for ineq, family, alpha, adversarial, job_seed in self.jobs:
            spec = parse_function_spec(family)
            cfg = SweepConfig(alphas=(alpha,), functions=(spec,), inequalities=(ineq,))
            self.configs.append((ineq, spec, cfg, adversarial, job_seed))
        self.functionals = {a: MomentFunctional(AlphaContext(a)) for a in self.ALPHAS}

    def warmup(self) -> None:
        for ineq, spec, cfg, adversarial, job_seed in self.configs[:: len(self.configs) // 12]:
            harness.falsify(ineq, spec, cfg, FALSIFY_TRIALS, job_seed, adversarial=adversarial)

    def run_pass(self, calibration) -> PassResult:
        # count evaluate_single calls: the rows a falsify job evaluates
        evals = [0]
        original = harness.evaluate_single

        def counted(*args, **kwargs):
            evals[0] += 1
            return original(*args, **kwargs)

        results, jobs = [], []
        harness.evaluate_single = counted
        try:
            for ineq, spec, cfg, adversarial, job_seed in self.configs:
                if calibration is not None:
                    calibration.maybe_sample()
                t0 = clock()
                try:
                    w = harness.falsify(ineq, spec, cfg, FALSIFY_TRIALS, job_seed, adversarial=adversarial)
                except Exception:  # a raising job is counted, never fatal
                    w = "raised"
                jobs.append((t0, clock()))
                results.append(w)
        finally:
            harness.evaluate_single = original
        return PassResult(jobs, evals[0], results, self.digest(results))

    @staticmethod
    def digest(results) -> str:
        return _sha(render_report([w for w in results if w not in (None, "raised")], "csv"))

    def check(self, results) -> Verdict:
        v = Verdict()
        if len(results) != len(self.jobs):
            v.problems.append(f"{len(results)} job results, expected {len(self.jobs)}")
        witnesses = 0
        for i, w in enumerate(results):
            v.rows += 1
            if w == "raised":
                v.errors += 1
                continue
            if w is None:
                continue
            witnesses += 1
            if w.holds:
                v.problems.append(f"job {i}: witness holds (slack={w.slack!r})")
                continue
            ctx = AlphaContext(w.alpha)
            series = parse_function_spec(w.fn).realize(ctx)
            again = evaluate_single(
                w.ineq, series, self.functionals[w.alpha], w.a, w.b, w.x, w.s, w.p, w.q
            )
            if again.holds or again.slack != w.slack:
                v.problems.append(
                    f"job {i}: witness re-evaluates to holds={again.holds} "
                    f"slack={again.slack!r}, reported {w.slack!r}"
                )
        v.violated = witnesses
        v.info = {"witnesses": witnesses}
        return v

    def corruptions(self, results):
        i = next(j for j, w in enumerate(results) if w not in (None, "raised"))
        holding = list(results)
        holding[i] = replace(results[i], holds=True, slack=-results[i].slack)
        yield "witness that holds", holding
        yield "dropped job", results[:-1]


WORKLOADS = {
    "sweep-reference": SweepReference,
    "sweep-quadrature": SweepQuadrature,
    "certify-gated": CertifyGated,
    "falsify-search": FalsifySearch,
}


def make(name: str, seed: int, out_dir: Path):
    return WORKLOADS[name](name, seed, out_dir)

"""The witnesses of seeded ``falsify`` jobs, digit for digit, and the shrinker's rules.

Each job's result is rendered as report CSV (or ``none`` when no
counterexample was found) and compared by SHA-256 with a constant, next to
the exact number of ``evaluate_single`` calls the job makes, so a change
that adds shrink work fails here too.  The jobs cover canonical-probe and
random-trial witnesses, shrinking, every family kind (``ml``, ``mono`` and
a poly), alpha in {0.5, 1}, plain and adversarial jitter, and configs with
three alphas, whose random trials draw alpha as well.  A change that moves
a witness on purpose updates the constant and names the cause in
CHANGES.md.  Like the reference digests, the constants depend on the
numeric library, so the test skips under any other numpy version than the
one they were recorded with.

The shrinker tests check rules that hold under any numpy version: no
candidate equal to the current point and no move of an x the id does not
read is evaluated, each witness re-evaluates bit for bit from its ``fn``,
keeps no vanishing coefficient, and loses its violation when any one term
is dropped.
"""

import functools
import hashlib

import numpy
import pytest

from alphaineq import harness
from alphaineq.alphanum import AlphaContext
from alphaineq.harness import SweepConfig, Tolerances, evaluate_single, falsify, parse_function_spec, render_report
from alphaineq.inequalities import INEQUALITIES, IneqReport
from alphaineq.quadrature import MomentFunctional
from alphaineq.series import AlphaSeries

#: The numpy version the digests were recorded with.
RECORDED_WITH = "2.4.6"

TRIALS = 60

POLY = "poly:1,0.5,0.25,0.1"

#: (ineq, family, alphas, adversarial, seed) -> (SHA-256 of the rendered result,
#: number of ``evaluate_single`` calls the job makes).
JOBS = {
    ("thm1", "ml:6", (0.5,), False, 7):
        ("d1af4219257717afa9ea0f9fb9e0cbb2a9aea6c479fc1d2a834ebd254b19d33e", 26),
    ("thm2", "ml:6", (0.5, 0.8, 1.0), True, 7):
        ("f9e89fefccfc7cd702a81fa738e23d29ee6e629288073ed99a2413e28e32b8a3", 41),
    ("thm3", "mono:2.5", (1.0,), False, 7):
        ("7257ea8925c8d9593f8d9aba24ec9ff2431935e5e69acdd2b5517022aadf85d7", 66),
    ("midpoint-thm1", POLY, (0.5,), True, 5):
        ("22a01c3cd66ede91855fbbd0348022932bb6b7c2e47118bf3330c56867070a54", 18),
    ("midpoint-theta-thm3", "mono:2.5", (0.5, 0.8, 1.0), False, 7):
        ("cdcfbd01d3fb7579083c4b1eb073aafef82dc169dbbd77dd74c874024c891030", 32),
    ("theta-thm2", "ml:6", (0.5,), False, 11):
        ("2317fc5c065792f23e4c2f521226323848242575cf7eee8d203bcd2baa61958f", 33),
    ("ostrowski", POLY, (0.5,), False, 7):
        ("24f9a9b0d50ac23aa5e2cd4805713eca0d5a8dc51a02c02b4918e8eefba7f1e8", 23),
    ("ghh", "ml:6", (1.0,), True, 13):
        ("327af364f4b190685b1ff5ea05f702c44704e7f33bd7904f40ed0e6501aeb8c7", 20),
    ("identity", POLY, (0.5,), False, 7):
        ("17485e3098238000040bb13fc6e7f08561253f688f3da443b4c5acd79dad7e09", 11),
    ("shh", POLY, (1.0,), True, 7):
        ("074afcd7519846957a071b6cb16af8d9fd8fbebd29e4dc35fdde9ce69984680d", 17),
    ("midpoint-thm2", "mono:2.5", (1.0,), False, 7):
        ("fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345", 63),
    ("theta-thm1", POLY, (0.5, 0.8, 1.0), True, 2):
        ("bbe597f0720814bf398d3f564224e058738f0aa1643d30e9efab87d8cb216d82", 25),
}


def witness(ineq, family, alphas, adversarial, seed):
    spec = parse_function_spec(family)
    cfg = SweepConfig(alphas=alphas, functions=(spec,), inequalities=(ineq,))
    return falsify(ineq, spec, cfg, TRIALS, seed, adversarial=adversarial)


def rendered(w):
    return "none\n" if w is None else render_report([w], "csv")


def _job_id(job):
    ineq, family, alphas, adversarial, seed = job
    mode = "adversarial" if adversarial else "plain"
    return f"{ineq}-{family}-alpha{'+'.join(map(str, alphas))}-{mode}-seed{seed}"


@pytest.mark.parametrize("job", list(JOBS), ids=_job_id)
def test_witness_digest(job, monkeypatch):
    if numpy.__version__ != RECORDED_WITH:
        pytest.skip(
            f"witness digests are tied to their numpy version: numpy {numpy.__version__} "
            f"(digests recorded with {RECORDED_WITH})"
        )
    calls = [0]
    real = harness.evaluate_single

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(harness, "evaluate_single", counted)
    text = rendered(witness(*job))
    assert (hashlib.sha256(text.encode("utf-8")).hexdigest(), calls[0]) == JOBS[job], text


# The shrinker.  These properties do not depend on the numpy version.

FP_TOL = Tolerances().fp_tol

#: The jobs that find a witness: all but the one whose digest is that of ``none``.
WITNESS_JOBS = [job for job, (digest, _) in JOBS.items() if digest != hashlib.sha256(b"none\n").hexdigest()]


class Recorder:
    """An ``evaluate`` for ``_shrink`` that logs each candidate next to the point being shrunk.

    The current point follows ``_shrink``'s accept rule: a candidate that
    still violates, with its slack weakened by at most ``fp_tol``, becomes
    current, and counts as a step.
    """

    def __init__(self, evaluate, pt, rep, fp_tol):
        self.evaluate, self.current, self.rep, self.fp_tol = evaluate, pt, rep, fp_tol
        self.pairs, self.steps = [], 0

    def __call__(self, cand):
        rep = self.evaluate(cand)
        self.pairs.append((self.current, cand))
        if rep is not None and not rep.holds and rep.slack <= self.rep.slack + self.fp_tol:
            self.current, self.rep = cand, rep
            self.steps += 1
        return rep


@functools.lru_cache(maxsize=None)
def shrunk(job):
    """A witness job's result and the :class:`Recorder` of its shrink."""
    recorders = []
    real = harness._shrink

    def recorded(evaluate, pt, rep, fp_tol, reads):
        recorders.append(Recorder(evaluate, pt, rep, fp_tol))
        return real(recorders[-1], pt, rep, fp_tol, reads)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_shrink", recorded)
        w = witness(*job)
    assert w is not None and len(recorders) == 1
    return w, recorders[0]


def fresh(w, terms=None):
    """``w``'s row evaluated again on a fresh series of ``terms``, by default those of ``w.fn``."""
    ctx = AlphaContext(w.alpha)
    series = parse_function_spec(w.fn).realize(ctx) if terms is None else AlphaSeries(terms, ctx)
    return evaluate_single(w.ineq, series, MomentFunctional(ctx), w.a, w.b, w.x, w.s, w.p, w.q, w.fn)


def terms_of(w):
    return parse_function_spec(w.fn).payload


@pytest.mark.parametrize("reads", [frozenset(), frozenset({"x"})], ids=["no-x", "x"])
@pytest.mark.parametrize("frac", [0.5, 0.2])
def test_shrink_never_evaluates_a_no_op_or_an_unread_x_move(reads, frac):
    # b == a + 1.0 while b - a == 0.9999999999999998: the length move has nothing left to do
    a = 1.3
    start = harness._Point(1.0, ((0.0, 1.0), (1.0, 2.0)), a, a + 1.0, frac, 0.5, 2.0)
    assert start.b - start.a != 1.0

    def evaluate(pt):
        # the same violation at every point with the start's terms, so each such move is kept
        return IneqReport("thm1", 1.0, 1.0, 0.0, -1.0, pt.terms != start.terms)

    rec = Recorder(evaluate, start, evaluate(start), FP_TOL)
    pt, _ = harness._shrink(rec, start, evaluate(start), FP_TOL, reads)
    assert all(cand != cur for cur, cand in rec.pairs)
    moves_x = "x" in reads and frac != 0.5
    assert [cand.frac for cur, cand in rec.pairs if cand.frac != cur.frac] == ([0.5] if moves_x else [])
    assert (pt.frac, pt.b) == (0.5 if moves_x else frac, start.b)
    # every round rejects two drops and two halvings; with an x move, a first round ends at it
    assert len(rec.pairs) == (7 if moves_x else 4) and rec.steps == moves_x


def test_shrink_accepts_a_point_it_rejected_before_through_falsify(monkeypatch):
    # ghh reads no x, and b = a + 1.0 is a no-op on [0, 1], so each round tries the drops, then the halvings.
    # Round 1 rejects dropping the constant term (its slack weakens by more than fp_tol) and keeps halving
    # it (weakened by less); round 2 proposes the same drop again, now within fp_tol of the halved point's
    # slack, and keeps it, evaluated on the series that falsify made for it in round 1.
    terms = ((0.0, 1.0), (1.0, 2.0))
    slack = {
        terms: -1.0,
        ((1.0, 2.0),): -1.0 + 1.5 * FP_TOL,
        ((0.0, 1.0),): 1.0,
        ((0.0, 0.5), (1.0, 2.0)): -1.0 + 0.9 * FP_TOL,
        ((1.0, 1.0),): 1.0,
    }
    evaluated = []

    def scripted(ineq, series, functional, a, b, x, s, p, q, fn=""):
        evaluated.append(series.terms)
        value = slack[series.terms]
        return IneqReport(ineq, functional.ctx.alpha, 0.0, value, value, value >= 0.0, a=a, b=b)

    monkeypatch.setattr(harness, "evaluate_single", scripted)
    spec = harness.FunctionSpec("series", terms)
    cfg = SweepConfig(alphas=(1.0,), functions=(spec,), inequalities=("ghh",))
    w = falsify("ghh", spec, cfg, 1, 0)
    assert (w.fn, w.slack) == (harness.FunctionSpec("series", ((1.0, 2.0),)).canonical(), -1.0 + 1.5 * FP_TOL)
    # three canonical probes; drop, drop, halve; the drop again; the last term's halving
    assert evaluated == [terms] * 3 + [((1.0, 2.0),), ((0.0, 1.0),), ((0.0, 0.5), (1.0, 2.0)), ((1.0, 2.0),),
                                       ((1.0, 1.0),)]


@pytest.mark.parametrize("job", WITNESS_JOBS, ids=_job_id)
def test_shrink_of_a_job_makes_no_no_op_and_no_unread_x_move(job):
    _, rec = shrunk(job)
    assert all(cand != cur for cur, cand in rec.pairs)
    if "x" not in INEQUALITIES[job[0]].reads:
        assert all(cand.frac == cur.frac for cur, cand in rec.pairs)


@pytest.mark.parametrize("job", WITNESS_JOBS, ids=_job_id)
def test_witness_re_evaluates_bit_for_bit_from_its_fn(job):
    w, _ = shrunk(job)
    again = fresh(w)
    assert not again.holds
    assert render_report([again], "csv") == render_report([w], "csv")


@pytest.mark.parametrize("job", WITNESS_JOBS, ids=_job_id)
def test_witness_has_no_vanishing_coefficient(job):
    w, _ = shrunk(job)
    assert all(abs(c) >= 1e-15 for _, c in terms_of(w)), w.fn


@pytest.mark.parametrize("job", WITNESS_JOBS, ids=_job_id)
def test_no_single_term_drop_of_a_witness_still_violates(job):
    w, rec = shrunk(job)
    if rec.steps == 64:
        pytest.skip("the shrink stopped at its 64-step cap, before trying every drop")
    terms = terms_of(w)
    if len(terms) == 1:
        return
    for i in range(len(terms)):
        rep = fresh(w, terms[:i] + terms[i + 1:])
        assert rep.holds or not rep.slack <= w.slack + FP_TOL, (w.fn, i, rep.slack)


def test_vanishing_constant_term_is_dropped():
    # the canonical probe at x = 1 violates thm1 whatever the constant term;
    # halving it 64 times left 2**-64 in the witness instead of dropping it
    spec = parse_function_spec(POLY)
    cfg = SweepConfig(alphas=(0.5,), functions=(spec,), inequalities=("thm1",))
    w = falsify("thm1", spec, cfg, trials=1, seed=1)
    terms = terms_of(w)
    assert all(abs(c) >= 1e-15 for _, c in terms), w.fn
    assert len(terms) < len(spec.payload)

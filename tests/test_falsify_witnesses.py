"""The witnesses of seeded ``falsify`` jobs, digit for digit.

Each job's result is rendered as report CSV (or ``none`` when no
counterexample was found) and compared by SHA-256 with a constant.  The
jobs cover canonical-probe and random-trial witnesses, shrinking, every
family kind (``ml``, ``mono`` and a poly), alpha in {0.5, 1}, plain and
adversarial jitter, and configs with three alphas, whose random trials draw
alpha as well.  A change that moves a witness on purpose updates the
constant and names the cause in CHANGES.md.  Like the reference digests,
the constants depend on the numeric library, so the test skips under any
other numpy version than the one they were recorded with.
"""

import hashlib

import numpy
import pytest

from alphaineq.harness import SweepConfig, falsify, parse_function_spec, render_report

#: The numpy version the digests were recorded with.
RECORDED_WITH = "2.4.6"

TRIALS = 60

POLY = "poly:1,0.5,0.25,0.1"

#: (ineq, family, alphas, adversarial, seed) -> SHA-256 of the rendered result.
JOBS = {
    ("thm1", "ml:6", (0.5,), False, 7):
        "f1e47970a99f10d3269dd6fbe12eae5df67be0c0a51088b2fa838c96bf571563",
    ("thm2", "ml:6", (0.5, 0.8, 1.0), True, 7):
        "2f031be7ac368605ecc5afa012eab3d3e58fce16660604370a1508c2005ac5f8",
    ("thm3", "mono:2.5", (1.0,), False, 7):
        "7257ea8925c8d9593f8d9aba24ec9ff2431935e5e69acdd2b5517022aadf85d7",
    ("midpoint-thm1", POLY, (0.5,), True, 5):
        "47041657bba97050b30e2f9e64e69b2c5c0c897dbfcc62e1d8d2228c141fcefb",
    ("midpoint-theta-thm3", "mono:2.5", (0.5, 0.8, 1.0), False, 7):
        "cdcfbd01d3fb7579083c4b1eb073aafef82dc169dbbd77dd74c874024c891030",
    ("theta-thm2", "ml:6", (0.5,), False, 11):
        "2f995db0025d5d6f6a65bbae473fc61ed91f809d0e438ef31b3b1231408ce5dc",
    ("ostrowski", POLY, (0.5,), False, 7):
        "39045fce4e475237d3d05bf4e3c5221878e10e838bd8962dd2eb7ebc406dad67",
    ("ghh", "ml:6", (1.0,), True, 13):
        "ea4274c93dbaae72c8f353b693e70e72f9c133c9d372c4499e75c0947f8704e7",
    ("identity", POLY, (0.5,), False, 7):
        "d92a3c8692e0a32ee269bf474125c04adc351533f5c6224078dc26cf04eb436f",
    ("shh", POLY, (1.0,), True, 7):
        "28c3281223ea1913f9d7e4cfd35fd00e9d7a3a993bb4d65ca241cca352ac23f2",
    ("midpoint-thm2", "mono:2.5", (1.0,), False, 7):
        "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345",
    ("theta-thm1", POLY, (0.5, 0.8, 1.0), True, 2):
        "acb1400b38bea9b2d7b95e1d902dcd9932685b10153b4963b5161461bbeedb3d",
}


def rendered(ineq, family, alphas, adversarial, seed):
    spec = parse_function_spec(family)
    cfg = SweepConfig(alphas=alphas, functions=(spec,), inequalities=(ineq,))
    witness = falsify(ineq, spec, cfg, TRIALS, seed, adversarial=adversarial)
    return "none\n" if witness is None else render_report([witness], "csv")


def _job_id(job):
    ineq, family, alphas, adversarial, seed = job
    mode = "adversarial" if adversarial else "plain"
    return f"{ineq}-{family}-alpha{'+'.join(map(str, alphas))}-{mode}-seed{seed}"


@pytest.mark.parametrize("job", list(JOBS), ids=_job_id)
def test_witness_digest(job):
    if numpy.__version__ != RECORDED_WITH:
        pytest.skip(
            f"witness digests are tied to their numpy version: numpy {numpy.__version__} "
            f"(digests recorded with {RECORDED_WITH})"
        )
    text = rendered(*job)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == JOBS[job], text

"""Every id's parameter contract, value by value: the exact error text and the order of the checks.

An evaluator checks the interval and each parameter its registry row reads
(:func:`alphaineq.inequalities._check_axes`).  Each case below sets one
parameter of a good point to a missing, NaN, out-of-range or infinite value
and pins the full ``ValueError`` text, through ``evaluate_single`` and
through a block whose read axes hold a good value and then the bad one.
The precedence test pins the order of the checks: every missing value
first (s, then (p, q), then x), then the interval, s, (p, q) or q, and x.
The check reads the read flags that each registry record derives from its
``reads``; the last test checks them, and each theorem-family record's
split of its id into form and theorem.
"""

import math
import re

import pytest

from alphaineq.alphanum import AlphaContext
from alphaineq.harness import INEQUALITY_IDS, evaluate_single, parse_function_spec
from alphaineq.inequalities import INEQUALITIES
from alphaineq.quadrature import MomentFunctional

NAN, INF = math.nan, math.inf
CTX = AlphaContext(1.0)
SERIES = parse_function_spec("mono:3").realize(CTX)
FUNCTIONAL = MomentFunctional(CTX)

#: A point every id accepts, and the good value a block's axis holds ahead of the bad one.
GOOD = {"a": 0.5, "b": 1.5, "x": 1.0, "s": 0.5, "p": 2.0, "q": 2.0}

#: The order of the checks; a point bad at several stages raises the first one's error.
STAGES = ("missing s", "missing pq", "missing x", "interval", "s", "pq", "x")

INTERVAL_ERROR = "{ineq}: need 0 <= a < b with b finite, got ({a}, {b})"


def _cases(ineq: str) -> dict:
    """``(parameter, kind) -> (stage, overrides of GOOD, error text)`` for every bad value ``ineq`` checks."""
    reads = INEQUALITIES[ineq].reads
    cases = {}
    intervals = (("nan", NAN, 1.5), ("out of range", 1.5, 0.5), ("negative a", -0.5, 1.5), ("infinite", 0.5, INF))
    for kind, a, b in intervals:
        cases["interval", kind] = ("interval", {"a": a, "b": b}, INTERVAL_ERROR.format(ineq=ineq, a=a, b=b))
    if "s" in reads:
        cases["s", "missing"] = ("missing s", {"s": None}, f"{ineq} needs the convexity order s")
        for kind, s in (("nan", NAN), ("zero", 0.0), ("out of range", 1.5), ("infinite", INF)):
            cases["s", kind] = ("s", {"s": s}, f"{ineq}: s must lie in (0, 1], got {s}")
    if "p" in reads:
        for name in ("p", "q"):
            cases[name, "missing"] = ("missing pq", {name: None}, f"{ineq} needs conjugate (p, q)")
        bad = {
            ("p", "nan"): (NAN, 2.0), ("q", "nan"): (2.0, NAN),
            ("p", "out of range"): (0.5, 2.0), ("q", "out of range"): (2.0, 0.5),
            ("p", "one"): (1.0, 2.0), ("q", "one"): (2.0, 1.0),
        }
        for key, (p, q) in bad.items():
            cases[key] = ("pq", {"p": p, "q": q}, f"{ineq}: need p, q > 1, got ({p}, {q})")
        cases["pq", "not conjugate"] = ("pq", {"p": 3.0}, f"{ineq}: (p, q) = (3.0, 2.0) are not conjugate")
        # conjugate within the 1e-12 tolerance, but an infinite exponent is no Hoelder pair
        for key, (p, q) in {("p", "infinite"): (INF, 1.0000000000001), ("q", "infinite"): (1.0000000000001, INF),
                            ("pq", "both infinite"): (INF, INF)}.items():
            cases[key] = ("pq", {"p": p, "q": q}, f"{ineq}: need finite p and q, got ({p}, {q})")
    elif "q" in reads:
        for kind, q in (("missing", None), ("nan", NAN), ("out of range", 0.5), ("minus infinity", -INF)):
            cases["q", kind] = ("pq", {"q": q}, f"{ineq}: need q >= 1, got {q}")
        cases["q", "infinite"] = ("pq", {"q": INF}, f"{ineq}: need a finite q, got inf")
    if "x" in reads:
        cases["x", "missing"] = ("missing x", {"x": None}, f"{ineq} needs the evaluation point x")
        for kind, x in (("nan", NAN), ("out of range", 2.0), ("below a", 0.25), ("infinite", INF)):
            cases["x", kind] = ("x", {"x": x}, f"{ineq}: need a <= x <= b, got x={x} for [0.5, 1.5]")
    return cases


CASES = [(ineq, *key) for ineq in INEQUALITY_IDS for key in _cases(ineq)]


def _raises(ineq: str, point: dict, message: str) -> None:
    """``ineq`` at ``point`` raises ``message`` as a single point and as the second point of each read axis."""
    reads = INEQUALITIES[ineq].reads
    a, b, x, s, p, q = (point[k] for k in ("a", "b", "x", "s", "p", "q"))
    exact = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=exact):
        evaluate_single(ineq, SERIES, FUNCTIONAL, a, b, x, s, p, q)
    # the axes a sweep passes: None for an axis the id does not read
    s_axis = (GOOD["s"], s) if "s" in reads else (None,)
    pq_axis = ((GOOD["p"], GOOD["q"]), (p, q)) if "q" in reads else ((None, None),)
    xs = (GOOD["x"], x) if "x" in reads else (None,)
    with pytest.raises(ValueError, match=exact):
        INEQUALITIES[ineq].block(SERIES, FUNCTIONAL, a, b, xs, s_axis, pq_axis)


@pytest.mark.parametrize("ineq, parameter, kind", CASES, ids=["-".join(c) for c in CASES])
def test_a_bad_value_raises_its_full_error(ineq, parameter, kind):
    _, overrides, message = _cases(ineq)[parameter, kind]
    _raises(ineq, {**GOOD, **overrides}, message)


@pytest.mark.parametrize("ineq", INEQUALITY_IDS)
def test_the_first_failing_check_names_the_error(ineq):
    # for each stage the id has, a point bad at that stage and at every later one raises that stage's error
    cases = _cases(ineq)
    first = {}  # stage -> (overrides, message) of the case chosen for it
    for (parameter, kind), (stage, overrides, message) in cases.items():
        if kind in ("missing", "out of range") and stage not in first:
            first[stage] = (overrides, message)
    stages = [stage for stage in STAGES if stage in first]
    assert stages == [stage for stage in STAGES if any(c[0] == stage for c in cases.values())]
    for i, stage in enumerate(stages):
        point = dict(GOOD)
        # later stages first, so that a missing value overrides a bad value of the same parameter
        for later in reversed(stages[i:]):
            point.update(first[later][0])
        _raises(ineq, point, first[stage][1])


@pytest.mark.parametrize("ineq", INEQUALITY_IDS)
def test_an_unread_parameter_is_not_checked(ineq):
    reads = INEQUALITIES[ineq].reads
    params = ("x", "s", "p", "q")
    point = {**GOOD, **{k: NAN for k in params if k not in reads}}
    rep = evaluate_single(ineq, SERIES, FUNCTIONAL, *(point[k] for k in ("a", "b", *params)))
    assert [getattr(rep, k) for k in params] == [GOOD[k] if k in reads else None for k in params]


@pytest.mark.parametrize("ineq", INEQUALITY_IDS)
def test_the_read_flags_and_the_theorem_split_follow_the_id(ineq):
    rec = INEQUALITIES[ineq]
    assert [rec.read_s, rec.read_p, rec.read_q, rec.read_x] == [k in rec.reads for k in "spqx"]
    form, _, thm = ineq.rpartition("-") if "thm" in ineq else ("", "", "")
    assert (rec.form, rec.thm) == (form, thm)

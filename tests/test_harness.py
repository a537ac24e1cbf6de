import csv
import io
import json
import math
import random
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphaineq import harness, inequalities
from alphaineq.alphanum import AlphaContext
from alphaineq.cli import main
from alphaineq.harness import (
    CSV_COLUMNS,
    INEQUALITY_IDS,
    FunctionSpec,
    SpecSyntaxError,
    SweepConfig,
    Tolerances,
    emit_report,
    evaluate_single,
    expected_row_count,
    falsify,
    load_report,
    parse_function_spec,
    render_report,
    run_sweep,
)
from alphaineq.inequalities import (
    COROLLARY_VARIANTS,
    INEQUALITIES,
    IneqReport,
    eval_corollary,
    eval_ghh,
    eval_holder,
    eval_ostrowski_classic,
    eval_shh,
    eval_thm1,
    eval_thm2,
    eval_thm3,
    identity_residual,
)
from alphaineq.quadrature import MomentFunctional
from alphaineq.series import AlphaSeries, GammaPoleError
from reference import csv_cell, json_value


class TestFunctionSpec:
    def test_mono(self):
        spec = parse_function_spec("mono:2")
        assert spec.realize(AlphaContext(0.5)).terms == ((2.0, 1.0),)

    def test_poly_sparse(self):
        spec = parse_function_spec("poly:0,0,0,1")
        assert spec.realize(AlphaContext(1.0)).terms == ((3.0, 1.0),)

    def test_series_form(self):
        spec = parse_function_spec("series:(0.5, 2); (3, -1)")
        assert spec.realize(AlphaContext(0.5)).terms == ((0.5, 2.0), (3.0, -1.0))

    def test_mittag_leffler_family(self):
        spec = parse_function_spec("ml:50")
        f = spec.realize(AlphaContext(0.5))
        assert len(f.terms) == 50
        assert f.terms[0] == (0.0, 1.0)
        k = 7
        assert f.terms[k][1] == pytest.approx(1.0 / math.gamma(1.0 + 0.5 * k), rel=1e-14)

    @pytest.mark.parametrize("alpha, fits", [(1.0, 171), (0.5, 342), (0.3, 569)])
    def test_mittag_leffler_family_too_long_for_doubles(self, alpha, fits):
        # G(1 + k*alpha) overflows a double at k = fits; this once escaped as "math range error"
        ctx = AlphaContext(alpha)
        assert len(parse_function_spec(f"ml:{fits}").realize(ctx).terms) == fits
        with pytest.raises(ValueError) as err:
            parse_function_spec(f"ml:{fits + 1}").realize(ctx)
        assert str(err.value).startswith(f"ml:{fits + 1}: ")
        assert f"alpha={alpha}" in str(err.value) and str(err.value).endswith(f"at most {fits} terms fit")

    @pytest.mark.parametrize(
        "text",
        ["", "mono", "mono:x", "mono:-1", "poly:1,inf", "series:(1;2)", "series:1,2", "ml:0", "ml:2.5", "spline:3"],
    )
    def test_rejects_bad_specs(self, text):
        with pytest.raises(SpecSyntaxError) as err:
            parse_function_spec(text)
        assert err.value.position >= 0

    def test_error_carries_position(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse_function_spec("poly:1,bad,3")
        assert err.value.position == 7

    @settings(max_examples=50, deadline=None)
    @given(
        kind=st.sampled_from(["mono", "poly", "series", "ml"]),
        grades=st.lists(st.floats(0.0, 8.0, allow_nan=False), min_size=1, max_size=4, unique=True),
        coeffs=st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=4, max_size=4),
        nterms=st.integers(1, 60),
    )
    def test_round_trip(self, kind, grades, coeffs, nterms):
        if kind == "mono":
            spec = FunctionSpec("mono", (grades[0],))
        elif kind == "poly":
            spec = FunctionSpec("poly", tuple(coeffs))
        elif kind == "series":
            spec = FunctionSpec("series", tuple(sorted((g, c) for g, c in zip(grades, coeffs))))
        else:
            spec = FunctionSpec("ml", (nterms,))
        assert parse_function_spec(spec.canonical()) == spec


class TestSweepConfig:
    def test_from_dict_round_trip(self):
        raw = {
            "alphas": [0.5, 1.0],
            "functions": ["mono:2", "poly:0,1"],
            "inequalities": ["ghh", "thm1"],
            "intervals": [[0.0, 1.0], [0.5, 2.0]],
            "x_fractions": [0.25, 0.75],
            "s_values": [0.5],
            "pq_pairs": [[2.0, 2.0]],
            "tolerances": {"slack_tol": 1e-8, "fp_tol": 1e-12},
            "seed": 42,
        }
        cfg = SweepConfig.from_dict(raw)
        assert cfg.alphas == (0.5, 1.0)
        assert cfg.tolerances.slack_tol == 1e-8
        assert cfg.context(0.5).alpha == 0.5

    @pytest.mark.parametrize(
        "patch",
        [
            {"alphas": [1.5]},
            {"intervals": [[1.0, 0.5]]},
            {"intervals": [[-0.5, 1.0]]},
            {"intervals": [[0.0, math.inf]]},
            {"x_fractions": [1.5]},
            {"s_values": [0.0]},
            {"pq_pairs": [[2.0, 3.0]]},
            {"pq_pairs": [[math.nan, 2.0]]},
            {"pq_pairs": [[2.0, math.nan]]},
            {"inequalities": ["thm9"]},
            {"pq_pairs": [[0.5, -1.0]]},  # conjugate, but not p, q > 1
        ],
    )
    def test_validation(self, patch):
        raw = {
            "alphas": [1.0],
            "functions": ["mono:2"],
            "inequalities": ["ghh"],
        }
        raw.update(patch)
        with pytest.raises(ValueError):
            SweepConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "tolerances",
        [
            {"slack_tol": math.nan},
            {"slack_tol": math.inf},
            {"slack_tol": 0.0},
            {"fp_tol": math.nan},
            {"fp_tol": math.inf},
            {"fp_tol": -1.0},
        ],
    )
    def test_tolerances_must_be_finite_and_signed_right(self, tolerances):
        raw = {"alphas": [1.0], "functions": ["mono:2"], "inequalities": ["ghh"], "tolerances": tolerances}
        with pytest.raises(ValueError, match=next(iter(tolerances))):
            SweepConfig.from_dict(raw)
        with pytest.raises(ValueError):
            Tolerances(**tolerances)

    @pytest.mark.parametrize(
        "patch, field",
        [
            ({"tolerances": {"slack": 1e-9}}, "unknown tolerance 'slack'"),
            ({"tolerances": {"slack_tol": "1e-9"}}, "tolerances.slack_tol"),
            ({"tolerances": {"fp_tol": True}}, "tolerances.fp_tol"),
            ({"tolerances": [1e-9]}, "tolerances"),
            ({"alphas": ["1"]}, "alphas"),
            ({"alphas": [True]}, "alphas"),
            ({"alphas": [10**400]}, "alphas"),  # an int too large for a float
            ({"alphas": 1.0}, "alphas"),
            ({"functions": [2]}, "functions"),
            ({"inequalities": [["ghh"]]}, "inequalities"),
            ({"intervals": [["0", "1"]]}, "intervals"),
            ({"intervals": [[0.0, 1.0, 2.0]]}, "intervals"),
            ({"x_fractions": [None]}, "x_fractions"),
            ({"s_values": ["0.5"]}, "s_values"),
            ({"pq_pairs": [[2.0, False]]}, "pq_pairs"),
        ],
    )
    def test_malformed_fields_are_named(self, patch, field):
        raw = {"alphas": [1.0], "functions": ["mono:2"], "inequalities": ["ghh"], **patch}
        with pytest.raises(ValueError, match=re.escape(field)):
            SweepConfig.from_dict(raw)

    def test_document_must_be_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            SweepConfig.from_dict([1])

    def test_integer_numbers_are_accepted(self):
        raw = {"alphas": [1], "functions": ["mono:2"], "inequalities": ["ghh"], "tolerances": {"fp_tol": 0}}
        assert SweepConfig.from_dict(raw).tolerances.fp_tol == 0
        # every number is read as a float, so ints give the report of the same config written with floats
        ints = {"alphas": [1], "functions": ["mono:3"], "inequalities": list(INEQUALITY_IDS),
                "intervals": [[0, 2]], "x_fractions": [0, 1], "s_values": [1], "pq_pairs": [[2, 2]],
                "tolerances": {"slack_tol": 1, "fp_tol": 0}}
        floats = {**ints, "alphas": [1.0], "intervals": [[0.0, 2.0]], "x_fractions": [0.0, 1.0], "s_values": [1.0],
                  "pq_pairs": [[2.0, 2.0]], "tolerances": {"slack_tol": 1.0, "fp_tol": 0.0}}
        for format in ("csv", "json"):
            got, want = (render_report(run_sweep(SweepConfig.from_dict(raw)), format) for raw in (ints, floats))
            assert got == want
        assert '"alpha": 1.0,' in got and '"s": 1.0,' in got

    def test_zero_fp_tol_is_accepted(self):
        assert Tolerances(fp_tol=0.0).fp_tol == 0.0


def _cfg(**overrides):
    base = dict(
        alphas=(1.0,),
        functions=(parse_function_spec("poly:0,0,0,1"),),
        inequalities=("thm1",),
        intervals=((0.0, 1.0),),
        x_fractions=(0.5,),
        s_values=(1.0,),
        pq_pairs=((2.0, 2.0),),
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestRunSweep:
    def test_single_point(self):
        rows = run_sweep(_cfg())
        assert len(rows) == 1
        assert rows[0].lhs == pytest.approx(0.125, abs=1e-12)
        assert rows[0].rhs == pytest.approx(0.125, abs=1e-12)
        assert rows[0].holds
        assert rows[0].fn == "poly:0,0,0,1"

    def test_empty_function_list(self):
        assert run_sweep(_cfg(functions=())) == []

    def test_product_cardinality(self):
        rows = run_sweep(_cfg(alphas=(0.5, 1.0), functions=(
            parse_function_spec("mono:2"), parse_function_spec("mono:3"))))
        assert len(rows) == 4

    def test_axis_applicability_rule(self):
        cfg = _cfg(
            inequalities=("ghh", "shh", "holder", "ostrowski", "identity", "thm1", "thm2", "thm3",
                          "midpoint-thm1", "theta-thm2", "midpoint-theta-thm3"),
            s_values=(0.25, 0.75),
            x_fractions=(0.1, 0.5, 0.9),
            pq_pairs=((2.0, 2.0), (3.0, 1.5)),
        )
        rows = run_sweep(cfg)
        assert len(rows) == expected_row_count(cfg)
        # spot-check two entries of the documented table
        assert harness._axes(cfg, "ghh") == ((None,), ((None, None),), (None,))
        assert harness._axes(cfg, "thm2") == (cfg.s_values, cfg.pq_pairs, cfg.x_fractions)

    def test_rows_are_sorted_and_deterministic(self):
        cfg = _cfg(
            alphas=(0.5, 1.0),
            inequalities=("thm1", "ghh"),
            x_fractions=(0.9, 0.1),
            s_values=(0.75, 0.25),
        )
        rows1 = run_sweep(cfg)
        rows2 = run_sweep(cfg)
        assert rows1 == rows2
        keys = [(r.ineq, r.alpha, r.s or -1, r.x or -1) for r in rows1]
        assert keys == sorted(keys)

    def test_per_point_errors_become_rows(self):
        # grade 0.5 cannot be differentiated twice: the row records the error
        cfg = _cfg(functions=(parse_function_spec("mono:0.5"),))
        rows = run_sweep(cfg)
        assert len(rows) == 1
        assert not rows[0].holds
        assert rows[0].notes.startswith("error:")

    def test_error_rows_report_the_parameters_of_their_id(self):
        # mono:0.5 has no second derivative; its rows are errors, the mono:3 rows are not
        cfg = _cfg(
            functions=(parse_function_spec("mono:0.5"), parse_function_spec("mono:3")),
            inequalities=("thm3", "midpoint-thm3"),
        )
        filled = {}
        for row in run_sweep(cfg):
            cells = tuple(getattr(row, c) is not None for c in ("s", "p", "q", "a", "b", "x"))
            filled.setdefault(row.ineq, {})[row.notes.startswith("error:")] = cells
        assert filled["thm3"][True] == filled["thm3"][False] == (True, False, True, True, True, True)
        assert filled["midpoint-thm3"][True] == filled["midpoint-thm3"][False]

    def test_constants_computed_once_per_alpha_fn_s(self, monkeypatch):
        calls = []
        real = inequalities.ostrowski_constants

        def counted(s, ctx):
            calls.append((ctx.alpha, s))
            return real(s, ctx)

        monkeypatch.setattr(inequalities, "ostrowski_constants", counted)
        cfg = _cfg(
            alphas=(0.5, 1.0),
            functions=(parse_function_spec("mono:3"), parse_function_spec("ml:4")),
            inequalities=("thm1", "thm3", "midpoint-thm1", "theta-thm2", "midpoint-theta-thm3"),
            intervals=((0.0, 1.0), (0.5, 2.0)),
            x_fractions=(0.0, 0.5, 1.0),
            s_values=(0.5, 1.0),
            pq_pairs=((2.0, 2.0), (3.0, 1.5)),
        )
        rows = run_sweep(cfg)
        assert not any(r.notes.startswith("error:") for r in rows)
        # one call per (alpha, fn, s): each (alpha, s) once for each of the two functions
        assert sorted(calls) == sorted([(a, s) for a in cfg.alphas for s in cfg.s_values] * 2)

    def test_each_row_is_built_once(self, monkeypatch, capsys):
        # every evaluator builds its report once, and evaluate_single sets fn on it, so nothing calls with_fn
        def rebuilt(self, fn):
            raise AssertionError(f"{self.ineq} row built a second time")

        monkeypatch.setattr(IneqReport, "with_fn", rebuilt)
        # mono:0.5 has no second derivative, so the rows that read f'' are error rows
        cfg = _cfg(
            alphas=(0.5,),
            functions=(parse_function_spec("mono:3"), parse_function_spec("mono:0.5")),
            inequalities=INEQUALITY_IDS,
        )
        rows = run_sweep(cfg)
        assert len(rows) == expected_row_count(cfg)
        assert {r.fn for r in rows} == {"mono:3", "mono:0.5"}
        assert {r.fn for r in rows if r.notes.startswith("error:")} == {"mono:0.5"}
        assert {r.ineq for r in rows if r.fn == "mono:3"} == set(INEQUALITY_IDS)
        ctx = AlphaContext(0.5)
        series, functional = parse_function_spec("mono:3").realize(ctx), MomentFunctional(ctx)
        for ineq in INEQUALITY_IDS:
            rep = evaluate_single(ineq, series, functional, 0.5, 1.5, 0.9, 0.5, 2.0, 2.0, fn="mono:3")
            assert rep.fn == "mono:3"
        assert main(["eval", "--ineq", "thm1", "--alpha", "1", "--s", "1", "--a", "0", "--b", "1",
                     "--x", "0.5", "--fn", "poly:0,0,0,1"]) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        assert row[header.index("fn")] == "poly:0,0,0,1"

    def test_consistency_study_flags_but_does_not_crash(self):
        cfg = _cfg(alphas=(0.5,), functions=(parse_function_spec("mono:1"),),
                   inequalities=("identity",), x_fractions=(1.0,))
        rows = run_sweep(cfg)
        assert len(rows) == 1
        assert not rows[0].holds
        assert rows[0].lhs == pytest.approx(0.6440746838, abs=1e-9)


def _row_bits(rep):
    """Every field of a report, floats as their bit patterns (NaN and -0.0 included)."""
    return tuple(
        struct.pack("<d", v) if type(v) is float else v
        for v in (getattr(rep, c) for c in CSV_COLUMNS)
    )


class TestWarmCache:
    """A row on a series whose cache a sweep filled equals the row on a fresh series."""

    ALPHAS = (0.5, 1.0)
    # mono:0.5 has no second derivative, so its rows raise; the series form
    # has an f'' singular at 0, which gives the NaN and infinite rows
    FUNCTIONS = ("mono:2.5", "poly:1,0,0.5", "series:(1.5,2);(4,0.25)", "ml:5", "mono:0.5")
    # [0, 1] and [0.5, 1] share b and the point x = b, so a cache key without a collides
    INTERVALS = ((0.0, 1.0), (0.5, 1.0), (0.25, 2.0))

    @staticmethod
    def points(seed):
        rng = random.Random(seed)
        fracs = (0.0, 1.0, 0.5, round(rng.uniform(0.05, 0.95), 6))
        p = round(rng.uniform(1.2, 4.0), 6)
        return fracs, (1.0, round(rng.uniform(0.05, 0.95), 6)), ((2.0, 2.0), (p, p / (p - 1.0)))

    @staticmethod
    def row(ineq, series, functional, a, b, x, s, p, q):
        try:
            return _row_bits(evaluate_single(ineq, series, functional, a, b, x, s, p, q))
        except (ValueError, ArithmeticError) as exc:
            return ("error", type(exc), str(exc))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_warm_rows_equal_fresh_rows(self, seed):
        fracs, s_values, pq_pairs = self.points(seed)
        order = random.Random(seed)
        seen = {"nan": 0, "-0": 0, "error": 0, "x=a": 0, "x=b": 0}
        for alpha in self.ALPHAS:
            functional = MomentFunctional(AlphaContext(alpha))
            for text in self.FUNCTIONS:
                spec = parse_function_spec(text)
                points = []
                for ineq in INEQUALITY_IDS:
                    reads = INEQUALITIES[ineq].reads
                    for a, b in self.INTERVALS:
                        for s in s_values if "s" in reads else (None,):
                            for p, q in pq_pairs if "q" in reads else ((None, None),):
                                for fr in fracs if "x" in reads else (None,):
                                    x = None if fr is None else a + fr * (b - a)
                                    points.append((ineq, a, b, x, s, p, q))
                warm = spec.realize(functional.ctx)
                order.shuffle(points)
                for pt in points:  # the earlier sweep that fills the cache
                    self.row(pt[0], warm, functional, *pt[1:])
                order.shuffle(points)
                for pt in points:
                    ineq, a, b, x, *_ = pt
                    got = self.row(ineq, warm, functional, *pt[1:])
                    fresh = self.row(ineq, spec.realize(functional.ctx), functional, *pt[1:])
                    assert got == fresh, (alpha, text, pt)
                    if got[0] == "error":
                        seen["error"] += 1
                        continue
                    slack = struct.unpack("<d", got[CSV_COLUMNS.index("slack")])[0]
                    seen["nan"] += math.isnan(slack)
                    seen["-0"] += slack == 0.0 and math.copysign(1.0, slack) < 0.0
                    seen["x=a"] += x == a
                    seen["x=b"] += x == b
        assert all(seen.values()), seen


class TestTheoremRecord:
    """thm1-3 and their corollaries read every point-invariant value from one cached record per theorem."""

    SPEC = parse_function_spec("ml:5")
    INTERVALS = ((0.0, 1.0), (0.5, 2.0))
    S_VALUES = (0.5, 1.0)
    # the last pair is conjugate within the 1e-12 tolerance and shares q with
    # the first, so only p tells their thm2 rows apart
    PQ_PAIRS = ((2.0, 2.0), (3.0, 1.5), (2.000000000001, 2.0))
    FRACS = (0.0, 0.5, 1.0)

    @classmethod
    def points(cls, ineq, pq_pairs=PQ_PAIRS):
        reads = INEQUALITIES[ineq].reads
        return [
            (ineq, a, b, None if fr is None else a + fr * (b - a), s, p, q)
            for a, b in cls.INTERVALS
            for s in cls.S_VALUES
            for p, q in (pq_pairs if "q" in reads else ((None, None),))
            for fr in (cls.FRACS if "x" in reads else (None,))
        ]

    @classmethod
    def rows(cls, points, functional, series=None):
        """The rows of ``points`` on ``series``, or each on a fresh series when it is None."""
        fresh = series is None
        rows = [
            TestWarmCache.row(pt[0], cls.SPEC.realize(functional.ctx) if fresh else series, functional, *pt[1:])
            for pt in points
        ]
        assert not any(r[0] == "error" for r in rows)
        return rows

    @staticmethod
    def refuse_gamma(monkeypatch):
        def gamma(z):
            raise AssertionError(f"gamma({z}) called on a warm series")

        monkeypatch.setattr("alphaineq.inequalities.gamma", gamma)
        monkeypatch.setattr("alphaineq.series.gamma", gamma)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_warm_rows_make_no_gamma_call(self, alpha, monkeypatch):
        functional = MomentFunctional(AlphaContext(alpha))
        warm = self.SPEC.realize(functional.ctx)
        points = [pt for ineq in INEQUALITY_IDS if "thm" in ineq for pt in self.points(ineq)]
        fresh = self.rows(points, functional)
        assert self.rows(points, functional, warm) == fresh
        self.refuse_gamma(monkeypatch)
        assert self.rows(points, functional, warm) == fresh

    def test_thm3_corollaries_share_the_record_of_thm3(self, monkeypatch):
        functional = MomentFunctional(AlphaContext(0.5))
        warm = self.SPEC.realize(functional.ctx)
        self.rows(self.points("thm3"), functional, warm)
        for a, b in self.INTERVALS:  # the midpoint left side is cached per (a, b), outside the record
            inequalities._midpoint_lhs(warm, a, b)
        # the thm3 forms take only q from the pair, so any p shares the record of thm3
        pairs = [(p, q) for q in (2.0, 1.5) for p in (None, 1.25, q / (q - 1.0), 7.0)]
        points = [pt for ineq in INEQUALITY_IDS if ineq.endswith("-thm3") for pt in self.points(ineq, pairs)]
        fresh = self.rows(points, functional)
        self.refuse_gamma(monkeypatch)
        assert self.rows(points, functional, warm) == fresh


class TestRegistry:
    """Every id behaves as its :data:`INEQUALITIES` row declares."""

    @pytest.mark.parametrize("ineq", INEQUALITY_IDS)
    def test_reported_parameters_follow_the_axes(self, ineq):
        ctx = AlphaContext(0.5)
        series = parse_function_spec("mono:3").realize(ctx)
        rep = evaluate_single(ineq, series, MomentFunctional(ctx), 0.5, 1.5, 0.9, 0.5, 2.0, 2.0)
        reads = INEQUALITIES[ineq].reads
        assert rep.ineq == ineq
        assert (rep.a, rep.b) == (0.5, 1.5)
        assert (rep.s is not None) == ("s" in reads)
        assert (rep.x is not None) == ("x" in reads)
        assert (rep.q is not None) == ("q" in reads)
        assert (rep.p is not None) == ("p" in reads)
        assert math.isfinite(rep.slack)

    @pytest.mark.parametrize("ineq", INEQUALITY_IDS)
    def test_each_id_reads_what_the_paper_says(self, ineq):
        assert INEQUALITIES[ineq].reads == frozenset(_reads(ineq))

    def test_ids_and_axes_come_from_the_registry(self):
        assert INEQUALITY_IDS == tuple(INEQUALITIES)
        assert len(INEQUALITY_IDS) == 17
        cfg = _cfg()
        for ineq in INEQUALITY_IDS:
            reads = INEQUALITIES[ineq].reads
            s_values, pq_pairs, fracs = harness._axes(cfg, ineq)
            assert (s_values == cfg.s_values) == ("s" in reads)
            assert (pq_pairs == cfg.pq_pairs) == ("q" in reads)
            assert (fracs == cfg.x_fractions) == ("x" in reads)

    def test_readme_axes_table_matches_the_sweep(self):
        """Each id of the README's "inequality | extra axes" table lists exactly the axes it sweeps."""
        lines = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| inequality | extra axes |") + 2  # past the header and its rule
        table = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            ids, axes = (re.findall(r"`([^`]+)`", cell) for cell in line.strip("|").split("|"))
            for ineq in ids:
                assert ineq not in table, ineq
                table[ineq] = set(axes)
        cfg = _cfg()
        unswept = ((None,), ((None, None),), (None,))
        swept = {
            ineq: {name for name, values, none in zip(("s", "pq", "x"), harness._axes(cfg, ineq), unswept)
                   if values != none}
            for ineq in INEQUALITY_IDS
        }
        assert table == swept

    def test_unknown_id_raises(self):
        ctx = AlphaContext(1.0)
        series = parse_function_spec("mono:2").realize(ctx)
        with pytest.raises(KeyError):
            evaluate_single("thm9", series, MomentFunctional(ctx), 0.0, 1.0, 0.5, 0.5, 2.0, 2.0)

    def test_zero_identity_residual_keeps_its_negative_sign(self):
        # slack is -residual, so an exact zero residual reports slack -0.0
        ctx = AlphaContext(0.5)
        series = parse_function_spec("mono:2").realize(ctx)
        rep = evaluate_single("identity", series, MomentFunctional(ctx), 0.0, 1.0, 1.0, None, None, None)
        assert rep.lhs == 0.0 and rep.holds
        assert rep.slack == 0.0 and math.copysign(1.0, rep.slack) == -1.0
        row = render_report([rep], "csv").splitlines()[1].split(",")
        assert row[CSV_COLUMNS.index("slack")] == "-0"


def _reads(ineq):
    """The parameters ``ineq`` reads, as letters of "spqx", taken from the paper and not the registry.

    thm1 reads s and x, the Hoelder route (thm2) a conjugate pair (p, q),
    the power-mean route (thm3) only q; the midpoint forms read no x.
    """
    plain = {"ghh": "", "shh": "s", "holder": "pq", "ostrowski": "x", "identity": "x"}
    if ineq in plain:
        return plain[ineq]
    form, _, thm = ineq.rpartition("-")
    return "s" + {"thm1": "", "thm2": "pq", "thm3": "q"}[thm] + ("" if form.startswith("midpoint") else "x")


#: Each id's public evaluator, called with the arguments of its registry evaluator.
PUBLIC = {
    "ghh": lambda f, fl, a, b, x, s, p, q: eval_ghh(f, a, b),
    "shh": lambda f, fl, a, b, x, s, p, q: eval_shh(f, s, a, b),
    "holder": lambda f, fl, a, b, x, s, p, q: eval_holder(f.evaluate, f.evaluate, p, q, a, b, fl),
    "ostrowski": lambda f, fl, a, b, x, s, p, q: eval_ostrowski_classic(f, x, a, b),
    "identity": lambda f, fl, a, b, x, s, p, q: identity_residual(f, x, a, b, fl),
    "thm1": lambda f, fl, a, b, x, s, p, q: eval_thm1(f, s, x, a, b),
    "thm2": lambda f, fl, a, b, x, s, p, q: eval_thm2(f, s, p, q, x, a, b),
    "thm3": lambda f, fl, a, b, x, s, p, q: eval_thm3(f, s, q, x, a, b),
    **{
        v: lambda f, fl, a, b, x, s, p, q, v=v: eval_corollary(v, f, a, b, s, p, q, x)
        for v in COROLLARY_VARIANTS
    },
}


class TestParameterContract:
    """Each id checks exactly the parameters it reads, and reports only those."""

    GOOD = {"s": 0.5, "p": 2.0, "q": 2.0, "x": 0.25}
    BAD = {"s": 1.5, "p": 0.5, "q": 0.5, "x": 2.0}

    @staticmethod
    def call(route, ineq, a=0.0, b=1.0, **params):
        ctx = AlphaContext(1.0)
        f = parse_function_spec("poly:0,0,0,1").realize(ctx)
        fl = MomentFunctional(ctx)
        x, s, p, q = (params[n] for n in "xspq")
        if route == "evaluate_single":
            return evaluate_single(ineq, f, fl, a, b, x, s, p, q)
        return PUBLIC[ineq](f, fl, a, b, x, s, p, q)

    def test_every_id_has_a_public_evaluator(self):
        assert set(PUBLIC) == set(INEQUALITY_IDS)

    @pytest.mark.parametrize("route", ("evaluate_single", "public"))
    @pytest.mark.parametrize("value", ("missing", "out of range"))
    @pytest.mark.parametrize("ineq, name", [(i, n) for i in INEQUALITY_IDS for n in _reads(i)])
    def test_missing_or_bad_parameter_names_the_id(self, ineq, name, value, route):
        params = {**self.GOOD, name: None if value == "missing" else self.BAD[name]}
        with pytest.raises(ValueError, match=rf"^{re.escape(ineq)}[ :]"):
            self.call(route, ineq, **params)

    @pytest.mark.parametrize("route", ("evaluate_single", "public"))
    @pytest.mark.parametrize("ineq", INEQUALITY_IDS)
    def test_bad_interval_names_the_id(self, ineq, route):
        with pytest.raises(ValueError, match=rf"^{re.escape(ineq)}: need 0 <= a < b"):
            self.call(route, ineq, a=1.0, b=0.5, **self.GOOD)

    def error_row(self, ineq):
        # mono:0.5 has no second derivative at alpha = 0.5, so every row that reads f'' raises
        g = self.GOOD
        cfg = _cfg(alphas=(0.5,), functions=(parse_function_spec("mono:0.5"),), inequalities=INEQUALITY_IDS,
                   x_fractions=(g["x"],), s_values=(g["s"],), pq_pairs=((g["p"], g["q"]),))
        (rep,) = [r for r in run_sweep(cfg) if r.ineq == ineq]
        assert rep.notes.startswith("error:") == (ineq not in ("ghh", "shh", "holder", "ostrowski"))
        return rep

    @pytest.mark.parametrize("route", ("evaluate_single", "public", "error row"))
    @pytest.mark.parametrize("ineq", INEQUALITY_IDS)
    def test_unread_parameters_are_none(self, ineq, route):
        rep = self.error_row(ineq) if route == "error row" else self.call(route, ineq, **self.GOOD)
        if not isinstance(rep, IneqReport):  # identity_residual returns the residual alone
            assert ineq == "identity" and math.isfinite(rep)
            return
        reads = _reads(ineq)
        assert (rep.s, rep.p, rep.q, rep.x) == tuple(self.GOOD[n] if n in reads else None for n in "spqx")


    @pytest.mark.parametrize("ineq", INEQUALITY_IDS)
    def test_setting_fn_leaves_earlier_rows_alone(self, ineq):
        ctx = AlphaContext(1.0)
        f = parse_function_spec("poly:0,0,0,1").realize(ctx)
        fl = MomentFunctional(ctx)
        point = (0.0, 1.0, 0.25, 0.5, 2.0, 2.0)
        first = evaluate_single(ineq, f, fl, *point, fn="A")
        # the same point again, with every value cached on f warm
        second = evaluate_single(ineq, f, fl, *point, fn="B")
        assert (first.fn, second.fn) == ("A", "B")
        assert first is not second
        public = PUBLIC[ineq](f, fl, *point)
        if ineq == "identity":  # identity_residual returns the residual alone
            assert first.lhs == second.lhs == public
            return
        assert public.fn == ""
        assert (first, second) == (replace(public, fn="A"), replace(public, fn="B"))


class TestFalsify:
    def test_convex_family_on_classical_line_has_no_counterexample(self):
        cfg = _cfg(inequalities=("ghh",))
        family = parse_function_spec("mono:2")
        assert falsify("ghh", family, cfg, trials=1000, seed=13) is None

    def test_identity_gap_is_found_and_kept_at_full_strength(self):
        cfg = _cfg(alphas=(0.5,), inequalities=("identity",))
        family = parse_function_spec("mono:1")
        witness = falsify("identity-residual-zero", family, cfg, trials=10, seed=2)
        assert witness is not None
        assert (witness.a, witness.b, witness.x) == (0.0, 1.0, 1.0)
        assert witness.lhs == pytest.approx(0.6440746838, abs=1e-6)

    def test_witness_still_violates_in_isolation(self):
        cfg = _cfg(alphas=(0.5,), inequalities=("identity",))
        witness = falsify("identity", parse_function_spec("mono:1"), cfg, trials=10, seed=2)
        ctx = AlphaContext(0.5)
        f = AlphaSeries(((1.0, 1.0),), ctx)
        residual = identity_residual(f, witness.x, witness.a, witness.b, MomentFunctional(ctx))
        assert residual > ctx.slack_tol
        assert residual == pytest.approx(witness.lhs, rel=1e-12)

    def test_deterministic_rerun(self):
        cfg = _cfg(alphas=(0.5,), inequalities=("identity",))
        family = parse_function_spec("mono:1")
        w1 = falsify("identity", family, cfg, trials=1, seed=9)
        w2 = falsify("identity", family, cfg, trials=1, seed=9)
        assert render_report([w1], "csv") == render_report([w2], "csv")

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            falsify("ghh", parse_function_spec("mono:2"), _cfg(), trials=0, seed=1)
        with pytest.raises(ValueError):
            falsify("nosuch", parse_function_spec("mono:2"), _cfg(), trials=1, seed=1)

    def test_evaluator_error_propagates(self):
        # f'' of mono:0.5 has grade -0.5: every trial raises, which is not
        # "no counterexample"
        cfg = _cfg(alphas=(0.5,), inequalities=("thm1",))
        with pytest.raises(GammaPoleError, match="cannot differentiate grade -0.5"):
            falsify("thm1", parse_function_spec("mono:0.5"), cfg, trials=5, seed=1)

    def test_random_trial_witness_round_trips_through_its_fn(self):
        cfg = _cfg(alphas=(1.0,), inequalities=("thm1",))
        family = parse_function_spec("mono:2.5")
        w = falsify("thm1", family, cfg, trials=50, seed=11, adversarial=True)
        assert w is not None
        # a random trial's interval, not a canonical probe's [0, 1]
        assert (w.a, w.b) == pytest.approx((0.43442260704298064, 1.4723794749015597))
        ctx = AlphaContext(w.alpha)
        series = parse_function_spec(w.fn).realize(ctx)
        again = evaluate_single(w.ineq, series, MomentFunctional(ctx), w.a, w.b, w.x, w.s, w.p, w.q)
        assert not w.holds and not again.holds
        assert again.slack == w.slack

    def test_random_trial_witness_has_python_values(self):
        cfg = _cfg(alphas=(1.0,), inequalities=("thm1",))
        family = parse_function_spec("mono:2.5")
        w = falsify("thm1", family, cfg, trials=50, seed=11, adversarial=True)
        assert all(type(getattr(w, c)) is float for c in ("lhs", "rhs", "slack", "a", "b", "x"))
        assert type(w.holds) is bool
        assert json.loads(render_report([w], "json"))[0]["holds"] is False
        (row,) = csv.DictReader(io.StringIO(render_report([w], "csv")))
        assert row["holds"] == "false"


class TestFalsifySeriesReuse:
    """Points of one ``falsify`` call that share their terms share one series."""

    @staticmethod
    def record(monkeypatch):
        """Record each series the harness builds and each evaluated point."""
        built, points = [], []

        class Recorded(AlphaSeries):
            def __post_init__(self):
                super().__post_init__()
                built.append((self.ctx.alpha, self.terms))

        real = harness.evaluate_single

        def recorded(ineq, series, functional, a, b, x, *rest):
            points.append((series, functional.ctx.alpha, a, b, x))
            return real(ineq, series, functional, a, b, x, *rest)

        monkeypatch.setattr(harness, "AlphaSeries", Recorded)
        monkeypatch.setattr(harness, "evaluate_single", recorded)
        return built, points

    def test_canonical_probes_build_one_series_per_alpha(self, monkeypatch):
        # a poly has the same terms at every alpha, so only the key's alpha tells them apart
        family = parse_function_spec("poly:1,0.5,0.25,0.1")
        terms = family.realize(AlphaContext(1.0)).terms
        built, points = self.record(monkeypatch)
        falsify("ghh", family, _cfg(alphas=(1.0, 0.5), inequalities=("ghh",)), trials=1, seed=3)
        assert sorted(alpha for alpha, t in built if t == terms) == [0.5, 1.0]
        assert len(points) >= 6
        assert all(series.ctx.alpha == alpha for series, alpha, *_ in points)

    def test_shrink_steps_that_move_x_or_b_build_no_series(self, monkeypatch):
        built, points = self.record(monkeypatch)
        cfg = _cfg(alphas=(0.5,), inequalities=("ostrowski",))
        w = falsify("ostrowski", parse_function_spec("mono:2.5"), cfg, trials=60, seed=7)
        assert (w.a, w.b) != (0.0, 1.0)  # a random trial's witness, shrunk
        assert len(built) == len(set(built))  # no (alpha, terms) is built twice
        assert all(series.ctx.alpha == alpha for series, alpha, *_ in points)
        # past the canonical probes on [0, 1], a series that served several
        # points served the x and b moves of the shrink
        served = {}
        for series, _, a, b, x in points:
            if (a, b) != (0.0, 1.0):
                served.setdefault(id(series), set()).add((a, b, x))
        assert max(len(moves) for moves in served.values()) > 1

    @pytest.mark.parametrize("ineq, family", [("thm1", "mono:3"), ("theta-thm1", "poly:1,0.5,0.25,0.1")])
    def test_grade_plans_do_not_grow_with_trials(self, monkeypatch, ineq, family):
        # no witness here, so every trial is a fresh series on the family's grades
        cfg = _cfg(alphas=(1.0,), inequalities=(ineq,))
        contexts = []
        real = SweepConfig.context

        def recorded(self, alpha):
            contexts.append(real(self, alpha))
            return contexts[-1]

        monkeypatch.setattr(SweepConfig, "context", recorded)

        def plans(trials):
            contexts.clear()
            assert falsify(ineq, parse_function_spec(family), cfg, trials=trials, seed=5) is None
            return sum(1 for ctx in contexts for key in ctx._memo if key[0] == "plan")

        few = plans(10)
        assert 0 < plans(1000) <= few


def _scalar_draw_trials(family, alphas, trials, seed, adversarial):
    """The random trials as separate ``choice`` and ``uniform`` calls: the reference stream."""
    rng = np.random.default_rng(seed)
    base = {alpha: family.realize(AlphaContext(alpha)).terms for alpha in alphas}
    for _ in range(trials):
        alpha = float(rng.choice(np.asarray(alphas)))
        a = float(rng.uniform(0.0, 2.0))
        b = a + float(rng.uniform(0.25, 2.75))
        frac = float(rng.uniform(0.0, 1.0))
        s = float(rng.uniform(0.05, 1.0))
        p = float(rng.uniform(1.2, 4.0))
        scales = rng.uniform(-2.0 if adversarial else 0.0, 2.0, size=len(base[alpha]))
        terms = tuple((k, float(c * sc)) for (k, c), sc in zip(base[alpha], scales))
        yield alpha, a, b, a + frac * (b - a), s, p, AlphaSeries(terms, AlphaContext(alpha)).terms


@pytest.mark.parametrize("alphas", [(1.0,), (0.5, 1.0), (0.5, 0.8, 1.0), (0.3, 0.5, 0.7, 0.9, 1.0)])
@pytest.mark.parametrize("adversarial", [False, True])
def test_random_trials_draw_the_scalar_stream(monkeypatch, alphas, adversarial):
    # holder finds no counterexample here, so every point past the probes is a trial
    family = parse_function_spec("ml:6")
    points = []
    real = harness.evaluate_single

    def recorded(ineq, series, functional, a, b, x, s, p, q):
        points.append((functional.ctx.alpha, a, b, x, s, p, series.terms))
        return real(ineq, series, functional, a, b, x, s, p, q)

    monkeypatch.setattr(harness, "evaluate_single", recorded)
    cfg = _cfg(alphas=alphas, inequalities=("holder",))
    assert falsify("holder", family, cfg, trials=40, seed=17, adversarial=adversarial) is None
    trials = points[3 * len(alphas):]
    assert trials == list(_scalar_draw_trials(family, alphas, 40, 17, adversarial))


_SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1e17])
_FLOATS = st.one_of(_SPECIAL_FLOATS, st.floats())
# quotes, backslashes, control and non-ASCII characters
_TEXTS = st.text(alphabet=',"\\\n\r\t\x00\x1f ab1.:-\u00e9\u20ac\U0001f600', max_size=6)
# the cell types of every row the program builds: one-line rendering
_PLAIN_ROWS = st.builds(
    IneqReport, _TEXTS, _FLOATS, _FLOATS, _FLOATS, _FLOATS, st.booleans(),
    *[st.one_of(st.none(), _FLOATS)] * 6, _TEXTS, _TEXTS,
)


# any number cell: None or a real that converts to a double (ints bounded to the double range);
# holds may be any of them, by its truth value
_NUMBERS = st.one_of(
    st.none(), _FLOATS, st.sampled_from([10**17, 0, -3]), st.integers(min_value=-(2**1023), max_value=2**1023),
    st.booleans(), st.booleans().map(np.bool_), _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
)
_ODD_ROWS = st.builds(IneqReport, _TEXTS, *[_NUMBERS] * 11, _TEXTS, _TEXTS)


def _coerced(rows):
    """The rows with each number cell converted to a float and ``holds`` to a bool."""
    def cell(column, value):
        if column in ("ineq", "fn", "notes"):
            return value
        if column == "holds":
            return bool(value)
        return None if value is None else float(value)

    return [IneqReport(**{c: cell(c, getattr(r, c)) for c in CSV_COLUMNS}) for r in rows]


class TestEmission:
    def test_csv_single_row(self, tmp_path):
        rows = run_sweep(_cfg())
        path = tmp_path / "out.csv"
        emit_report(rows, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "ineq,alpha,s,p,q,a,b,x,fn,lhs,rhs,slack,holds,notes"
        assert len(lines) == 2
        assert ",true," in lines[1]

    def test_empty_rows(self, tmp_path):
        emit_report([], "csv", tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_text() == "ineq,alpha,s,p,q,a,b,x,fn,lhs,rhs,slack,holds,notes\n"
        emit_report([], "json", tmp_path / "e.json")
        assert json.loads((tmp_path / "e.json").read_text()) == []

    def test_json_round_trip(self, tmp_path):
        cfg = _cfg(inequalities=("thm1", "ghh", "identity"), alphas=(0.5, 1.0))
        rows = run_sweep(cfg)
        path = tmp_path / "out.json"
        emit_report(rows, "json", path)
        assert load_report(path, "json") == rows

    def test_json_is_strict_and_keeps_non_finite_values(self, tmp_path):
        # f'' of this series has a grade -0.5 term, infinite at a = 0, so
        # rhs = slack = inf
        ctx = AlphaContext(0.5)
        series = parse_function_spec("series:(1.5,2);(4,0.25)").realize(ctx)
        rep = evaluate_single("thm1", series, MomentFunctional(ctx), 0.0, 1.0, 0.5, 0.5, None, None)
        assert math.isinf(rep.slack)
        text = render_report([rep], "json")

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        record = json.loads(text, parse_constant=reject)[0]
        assert (record["rhs"], record["slack"]) == ("inf", "inf")
        path = tmp_path / "inf.json"
        path.write_text(text)
        (back,) = load_report(path, "json")
        assert math.isinf(back.slack) and back.slack > 0
        assert back == rep
        nan_row = IneqReport("ghh", 1.0, float("nan"), float("-inf"), float("nan"), False)
        path.write_text(render_report([nan_row], "json"))
        (back,) = load_report(path, "json")
        assert math.isnan(back.lhs) and math.isnan(back.slack) and back.rhs == float("-inf")

    def test_csv_round_trip(self, tmp_path):
        rows = run_sweep(_cfg(alphas=(0.3, 1.0), inequalities=("thm2", "holder")))
        path = tmp_path / "out.csv"
        emit_report(rows, "csv", path)
        assert load_report(path, "csv") == rows

    @staticmethod
    def per_cell_csv(rows):
        """The CSV rendering that formats every cell on its own, kept as the reference."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow([csv_cell(getattr(r, c)) for c in CSV_COLUMNS])
        return buf.getvalue()

    def test_csv_matches_per_cell_rendering_on_edge_rows(self):
        nan, inf = float("nan"), float("inf")
        edge = [
            # 0.0 and -0.0 in one column, in both orders
            IneqReport("ghh", 1.0, 0.0, -0.0, -0.0, True, a=0.0, b=-0.0),
            IneqReport("ghh", 1.0, -0.0, 0.0, 0.0, True, a=-0.0, b=0.0),
            IneqReport("ghh", 0.5, nan, inf, -inf, False, x=nan, s=inf),
            IneqReport("ghh", 0.5, -inf, nan, nan, False, x=-inf),
            # a float and an int of one value, both written as the double, and
            # a bool next to the equal float 1.0
            IneqReport("ghh", 1.0, 1e17, 10**17, 1.0, True, s=1, p=1.0),
            IneqReport("thm1", 0.5, np.float64(0.25), 0.25, np.float64(-0.0), np.bool_(False)),
            IneqReport(
                "thm1", 0.5, 0.1, 0.2, 0.1, True,
                fn="series:(1.5,2);(4,0.25)", notes='say "hi",\nthen stop',
            ),
        ]
        # a config with "s_values": [1] puts the float 1.0 in the s column, as [1.0] does;
        # the int cells are those of the edge rows above
        raw = {"alphas": [0.5, 1], "functions": ["poly:1,0,0.5", "series:(1.5,2);(4,0.25)"],
               "inequalities": ["thm1", "identity", "midpoint-thm2"], "s_values": [1, 0.5],
               "x_fractions": [0, 0.5, 1]}
        swept = run_sweep(SweepConfig.from_dict(raw))
        assert {type(r.s) for r in swept} == {float, type(None)} and {type(r.alpha) for r in swept} == {float}
        rows = edge + swept
        text = render_report(rows, "csv")
        assert text == self.per_cell_csv(_coerced(rows))
        table = list(csv.reader(io.StringIO(text)))
        assert table[1][CSV_COLUMNS.index("lhs")] == "0" and table[1][CSV_COLUMNS.index("rhs")] == "-0"
        # the int cell is written as its double, which loads back as the float cell beside it
        assert table[5][CSV_COLUMNS.index("lhs")] == table[5][CSV_COLUMNS.index("rhs")] == "1e+17"
        assert table[7][CSV_COLUMNS.index("notes")] == 'say "hi",\nthen stop'

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_PLAIN_ROWS, max_size=8))
    @example([
        IneqReport("ghh", 0.0, -0.0, 0.0, -0.0, True, a=-0.0, b=0.0),
        IneqReport("ghh", -0.0, 0.0, -0.0, 0.0, False, 0.0, -0.0),
        IneqReport("thm1", 1e17, 5e-324, -2.5e-310, -0.0, True),
        IneqReport(",", math.nan, math.inf, -math.inf, math.nan, False, fn='"', notes="\r\n"),
    ])
    def test_csv_matches_per_cell_rendering_on_generated_rows(self, rows):
        assert render_report(rows, "csv") == self.per_cell_csv(rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.one_of(_PLAIN_ROWS, _ODD_ROWS), max_size=8))
    @example(rows=[
        IneqReport("thm1", 1e17, 10**17, 5e-324, -2.5e-310, np.bool_(True), np.float64(-0.0)),
        IneqReport("thm1", 1.0, 1e17, 0.0, 0.0, True, s=10**17),
        IneqReport("ghh", 1.0, 1.0, 1.0, 0.0, 1),
        IneqReport("ghh", np.float32(0.1), 0.1, None, None, np.bool_(False), np.int64(-3), True),
    ])
    def test_rows_render_as_their_coerced_rows(self, fmt, rows):
        assert render_report(rows, fmt) == render_report(_coerced(rows), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_numpy_and_int_cells_read_back_as_floats_and_bools(self, fmt, tmp_path):
        rows = [
            IneqReport("thm1", np.float32(0.1), np.int64(3), 10**17, np.float64(-0.5), np.bool_(True), s=1,
                       p=np.float32(2.5), q=np.int64(2), a=0, b=True, x=np.float32(0.3), fn="mono:2"),
            IneqReport("ghh", 0.5, np.float32(-0.0), None, None, np.bool_(False), notes="n"),
            IneqReport("ghh", 1.0, np.float32("inf"), np.float32("-inf"), np.int64(0), 1),
        ]
        path = tmp_path / f"rows.{fmt}"
        emit_report(rows, fmt, path)
        back = load_report(path, fmt)
        assert back == _coerced(rows)
        assert [type(r.holds) for r in back] == [bool] * 3 and back[0].alpha == float(np.float32(0.1))

    @staticmethod
    def dumped_json(rows):
        """``json.dumps`` of all records at once, kept as the JSON reference."""
        records = [{c: json_value(getattr(r, c)) for c in CSV_COLUMNS} for r in rows]
        return json.dumps(records, indent=2, allow_nan=False) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_PLAIN_ROWS, max_size=8))
    @example([])
    @example([
        IneqReport("ghh", 1.0, 0.0, -0.0, -0.0, True, a=0.0, b=-0.0),
        IneqReport("ghh", -0.0, 0.0, -0.0, 0.0, False, 0.0, -0.0),
        IneqReport("thm1", 0.5, math.nan, math.inf, -math.inf, False, x=math.nan, fn='say "hi"', notes="a\\b"),
        IneqReport("thm1", 1e17, 5e-324, -2.5e-310, 0.0, True, notes="\u00e9\u20ac\U0001f600\x00"),
    ])
    def test_json_of_built_rows_matches_json_dumps_and_reads_back(self, tmp_path_factory, rows):
        text = render_report(rows, "json")
        assert text == self.dumped_json(rows)
        path = tmp_path_factory.getbasetemp() / "rows.json"
        path.write_text(text)
        assert render_report(load_report(path, "json"), "json") == text

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "xml", tmp_path / "x.xml")
        assert not (tmp_path / "x.xml").exists()
        with pytest.raises(ValueError, match="format"):
            render_report([], "xml")
        emit_report([], "csv", tmp_path / "e.csv")
        with pytest.raises(ValueError, match="format"):
            load_report(tmp_path / "e.csv", "xml")


class TestCli:
    def test_constants(self, capsys):
        assert main(["constants", "--alpha", "1", "--s", "1"]) == 0
        out = capsys.readouterr().out
        assert "M(1, 1) = 0.25" in out
        assert "N(1, 1) = 0.083333333" in out

    def test_eval_exit_codes(self, capsys):
        ok = main(["eval", "--ineq", "thm1", "--alpha", "1", "--s", "1",
                   "--a", "0", "--b", "1", "--x", "0.5", "--fn", "poly:0,0,0,1"])
        assert ok == 0
        bad = main(["eval", "--ineq", "identity", "--alpha", "0.5",
                    "--a", "0", "--b", "1", "--x", "1", "--fn", "mono:1"])
        assert bad == 1
        capsys.readouterr()

    def test_eval_rejects_malformed_function(self, capsys):
        code = main(["eval", "--ineq", "ghh", "--alpha", "1",
                     "--a", "0", "--b", "1", "--fn", "mono:oops"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_eval_reports_missing_parameters(self, capsys):
        code = main(["eval", "--ineq", "midpoint-thm1", "--alpha", "1",
                     "--a", "0", "--b", "1", "--fn", "mono:3"])
        assert code == 2
        assert "needs the convexity order" in capsys.readouterr().err
        code = main(["eval", "--ineq", "thm2", "--alpha", "1", "--s", "0.5",
                     "--a", "0", "--b", "1", "--x", "0.5", "--fn", "mono:3"])
        assert code == 2
        capsys.readouterr()
        code = main(["eval", "--ineq", "thm2", "--alpha", "1", "--s", "0.5", "--q", "2",
                     "--a", "0", "--b", "1", "--x", "0.5", "--fn", "mono:3"])
        assert code == 2
        assert "needs conjugate (p, q)" in capsys.readouterr().err
        code = main(["eval", "--ineq", "thm1", "--alpha", "1", "--s", "1",
                     "--a", "0", "--b", "1", "--fn", "mono:3"])
        assert code == 2
        assert "needs the evaluation point x" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ineq, p, q",
        [("thm2", "nan", "2"), ("thm2", "2", "nan"), ("holder", "nan", "2"),
         ("theta-thm2", "nan", "2"), ("thm3", "2", "nan"), ("midpoint-thm3", "2", "nan")],
    )
    def test_eval_rejects_nan_p_or_q(self, ineq, p, q, capsys):
        code = main(["eval", "--ineq", ineq, "--alpha", "1", "--s", "1", "--p", p, "--q", q,
                     "--a", "0", "--b", "1", "--x", "0.5", "--fn", "mono:3"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_roundtrip(self, tmp_path, capsys):
        cfg = {
            "alphas": [1.0],
            "functions": ["poly:0,0,0,1"],
            "inequalities": ["thm1", "ghh"],
            "x_fractions": [0.5],
            "s_values": [1.0],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "rows.csv"
        code = main(["sweep", "--config", str(cfg_path), "--out", str(out_path)])
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 3
        code = main(["sweep", "--config", str(cfg_path), "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)[0]["ineq"] == "ghh"

    def test_sweep_flags_consistency_violations(self, tmp_path):
        cfg = {
            "alphas": [0.5],
            "functions": ["mono:1"],
            "inequalities": ["identity"],
            "x_fractions": [1.0],
        }
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 1

    def test_sweep_bad_config_is_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["sweep", "--config", str(path)]) == 2
        path.write_text(json.dumps({"alphas": [2.0], "functions": ["mono:1"], "inequalities": ["ghh"]}))
        assert main(["sweep", "--config", str(path)]) == 2
        path.write_text(json.dumps({"alphas": [1.0], "functions": ["mono:3"], "inequalities": ["thm2"],
                                    "pq_pairs": [[0.5, -1.0]]}))
        assert main(["sweep", "--config", str(path)]) == 2
        assert "need p, q > 1" in capsys.readouterr().err
        path.write_text(json.dumps({"alphas": [1.0], "functions": ["mono:2"], "inequalities": ["ghh"],
                                    "intervals": [[0.0, math.inf]]}))
        assert main(["sweep", "--config", str(path)]) == 2
        assert "need 0 <= a < b" in capsys.readouterr().err
        assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()
        # malformed documents: each once died with a TypeError or AttributeError (exit 1)
        base = {"alphas": [1.0], "functions": ["mono:2"], "inequalities": ["ghh"]}
        for doc, field in (
            ({**base, "tolerances": {"slack": 1e-9}}, "slack"),
            ({**base, "tolerances": {"slack_tol": "1e-9"}}, "slack_tol"),
            ({**base, "alphas": ["1"]}, "alphas"),
            ([1], "JSON object"),
            # a missing required field once exited 2 with only its name: error: 'alphas'
            *(({k: v for k, v in base.items() if k != name}, f"missing required field {name!r}")
              for name in base),
        ):
            path.write_text(json.dumps(doc))
            assert main(["sweep", "--config", str(path)]) == 2
            assert field in capsys.readouterr().err
        # a listed id that would get no row: each once wrote what rows the other ids got and exited 0
        for doc, error in (
            ({**base, "alphas": []}, "ghh would get no row: alphas is empty"),
            ({**base, "functions": []}, "ghh would get no row: functions is empty"),
            ({**base, "intervals": []}, "ghh would get no row: intervals is empty"),
            ({**base, "inequalities": []}, "inequalities is empty: the sweep would verify nothing"),
            ({**base, "inequalities": ["thm1", "ghh"], "s_values": []},
             "thm1 would get no row: s_values is empty"),
            ({**base, "inequalities": ["ghh", "theta-thm2"], "pq_pairs": []},
             "theta-thm2 would get no row: pq_pairs is empty"),
            ({**base, "inequalities": ["ghh", "identity"], "x_fractions": []},
             "identity would get no row: x_fractions is empty"),
        ):
            path.write_text(json.dumps(doc))
            assert main(["sweep", "--config", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {error}\n"

    def test_ml_family_too_long_for_doubles_is_named(self, tmp_path, capsys):
        # both once printed only "error: math range error"
        path = tmp_path / "ml.json"
        path.write_text(json.dumps({"alphas": [1.0], "functions": ["mono:2", "ml:200"], "inequalities": ["ghh"]}))
        assert main(["sweep", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ml:200: ") and "at most 171 terms fit" in err
        assert main(["eval", "--ineq", "ghh", "--alpha", "1", "--a", "0", "--b", "1", "--fn", "ml:172"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ml:172: ") and "at most 171 terms fit" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sweep_with_only_error_rows_is_exit_two(self, tmp_path, capsys):
        # eval and falsify exit 2 on these inputs; a sweep exits 1 only while some row did not raise
        path = tmp_path / "errors.json"
        # and each error row names its exception
        for doc, code, error in (
            ({"alphas": [0.5], "functions": ["mono:0.5"], "inequalities": ["thm1"]}, 2, "GammaPoleError"),
            ({"alphas": [1.0], "functions": ["mono:2"], "inequalities": ["ghh"],
              "intervals": [[0.0, 1e308]]}, 2, "OverflowError"),
            ({"alphas": [0.5], "functions": ["mono:0.5", "mono:3"], "inequalities": ["thm1"]}, 1, "GammaPoleError"),
        ):
            path.write_text(json.dumps(doc))
            out = tmp_path / "rows.csv"
            assert main(["sweep", "--config", str(path), "--out", str(out)]) == code
            rows = load_report(out, "csv")
            notes = [r.notes.startswith("error:") for r in rows]
            assert notes and all(notes) == (code == 2)
            assert all(r.notes.startswith(f"error: {error}: ") for r in rows if r.notes.startswith("error:"))
            assert ("rows raised" in capsys.readouterr().err) == (code == 2)

    def test_sweep_nan_slack_tol_is_exit_two(self, tmp_path, capsys):
        # with a NaN slack_tol this row (slack +0.039) would read holds=false
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"alphas": [1.0], "functions": ["poly:0,0,0,1"], "inequalities": ["thm1"],
                                    "tolerances": {"slack_tol": math.nan}}))
        assert "NaN" in path.read_text()
        assert main(["sweep", "--config", str(path)]) == 2
        assert "slack_tol must be positive and finite, got nan" in capsys.readouterr().err

    def test_falsify_evaluator_error_is_exit_two(self, capsys):
        code = main(["falsify", "--ineq", "thm1", "--family", "mono:0.5",
                     "--trials", "5", "--seed", "1", "--alpha", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert "cannot differentiate grade -0.5" in captured.err
        assert "no counterexample" not in captured.out

    def test_falsify_finds_no_witness_in_a_nan_theta(self, capsys):
        # theta of this family's f'' is NaN (inf - inf at 0), once read as 0 and reported as a witness;
        # numpy once warned of the inf - inf, which the RuntimeWarning filter now turns into an error
        code = main(["falsify", "--ineq", "theta-thm1", "--family", "series:(1.5,1);(1.6,-1)",
                     "--trials", "5", "--seed", "1", "--alpha", "1"])
        assert code == 0
        assert "no counterexample" in capsys.readouterr().out

    def test_eval_of_a_nan_theta_does_not_warn(self, capsys):
        code = main(["eval", "--ineq", "theta-thm1", "--alpha", "1", "--s", "0.5", "--a", "0", "--b", "1",
                     "--x", "0.5", "--fn", "series:(1.5,1);(1.6,-1)"])
        assert code == 1
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        assert row[header.index("slack")] == "nan" and row[header.index("notes")] == ""

    def test_sweep_of_a_nan_theta_does_not_warn(self, tmp_path, capsys):
        # once each row that read theta warned; with warnings as errors, each became an error row
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"alphas": [1.0], "functions": ["series:(1.5,1);(1.6,-1)"],
                                    "inequalities": ["theta-thm1", "midpoint-theta-thm2"]}))
        assert main(["sweep", "--config", str(path)]) == 1
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [(r["ineq"], r["slack"], r["notes"]) for r in rows] == [
            ("midpoint-theta-thm2", "nan", ""), ("theta-thm1", "nan", "")]

    def test_falsify_exit_codes(self, capsys):
        found = main(["falsify", "--ineq", "identity-residual-zero", "--family", "mono:1",
                      "--trials", "5", "--seed", "3", "--alpha", "0.5"])
        assert found == 1
        none = main(["falsify", "--ineq", "ghh", "--family", "mono:2",
                     "--trials", "25", "--seed", "3", "--alpha", "1.0"])
        assert none == 0
        assert "no counterexample" in capsys.readouterr().out

    def test_quad_test(self, capsys):
        assert main(["quad-test", "--alpha", "0.5", "--max-grade", "8"]) == 0
        assert "worst relative error" in capsys.readouterr().out

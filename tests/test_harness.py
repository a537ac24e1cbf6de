import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaineq.alphanum import AlphaContext
from alphaineq.cli import main
from alphaineq.harness import (
    CSV_COLUMNS,
    INEQUALITY_IDS,
    FunctionSpec,
    SpecSyntaxError,
    SweepConfig,
    Tolerances,
    applicable_axes,
    emit_report,
    evaluate_single,
    expected_row_count,
    falsify,
    load_report,
    parse_function_spec,
    render_report,
    run_sweep,
)
from alphaineq.inequalities import INEQUALITIES, identity_residual
from alphaineq.quadrature import MomentFunctional
from alphaineq.series import AlphaSeries


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
            {"x_fractions": [1.5]},
            {"s_values": [0.0]},
            {"pq_pairs": [[2.0, 3.0]]},
            {"inequalities": ["thm9"]},
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
        assert applicable_axes("ghh") == frozenset()
        assert applicable_axes("thm2") == frozenset({"s", "x", "pq"})

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

    def test_consistency_study_flags_but_does_not_crash(self):
        cfg = _cfg(alphas=(0.5,), functions=(parse_function_spec("mono:1"),),
                   inequalities=("identity",), x_fractions=(1.0,))
        rows = run_sweep(cfg)
        assert len(rows) == 1
        assert not rows[0].holds
        assert rows[0].lhs == pytest.approx(0.6440746838, abs=1e-9)


class TestRegistry:
    """Every id behaves as its :data:`INEQUALITIES` row declares."""

    @pytest.mark.parametrize("ineq", INEQUALITY_IDS)
    def test_reported_parameters_follow_the_axes(self, ineq):
        ctx = AlphaContext(0.5)
        series = parse_function_spec("mono:3").realize(ctx)
        rep = evaluate_single(ineq, series, MomentFunctional(ctx), 0.5, 1.5, 0.9, 0.5, 2.0, 2.0)
        axes = INEQUALITIES[ineq][0]
        assert rep.ineq == ineq
        assert (rep.a, rep.b) == (0.5, 1.5)
        assert (rep.s is not None) == ("s" in axes)
        assert (rep.x is not None) == ("x" in axes)
        assert (rep.q is not None) == ("pq" in axes)
        assert (rep.p is not None) == (ineq == "holder" or ineq.endswith("thm2"))
        assert math.isfinite(rep.slack)

    def test_ids_and_axes_come_from_the_registry(self):
        assert INEQUALITY_IDS == tuple(INEQUALITIES)
        assert len(INEQUALITY_IDS) == 17
        for ineq in INEQUALITY_IDS:
            assert applicable_axes(ineq) == INEQUALITIES[ineq][0]

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

    def test_csv_round_trip(self, tmp_path):
        rows = run_sweep(_cfg(alphas=(0.3, 1.0), inequalities=("thm2", "holder")))
        path = tmp_path / "out.csv"
        emit_report(rows, "csv", path)
        assert load_report(path, "csv") == rows

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "xml", tmp_path / "x.xml")


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
        assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()

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

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hemiflow.cli import main

from _fixtures import N


def write_config(tmp_path, field_terms=None, extra=None, kappa0=1.0):
    terms = field_terms if field_terms is not None else [
        {"monomial": "x1^2", "coeff": 0.05},
        {"monomial": "x2^2", "coeff": 0.01},
        {"monomial": "x3^2", "coeff": 0.015},
        {"monomial": "x4^2", "coeff": 0.02},
        {"monomial": "x5^2", "coeff": 0.025},
        {"monomial": "x6^2", "coeff": 0.06},
    ]
    doc = {
        "dimension": N,
        "field": {"kappa0": kappa0, "terms": terms},
        "seed": 11,
        "output_dir": str(tmp_path / "out"),
    }
    if extra:
        doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestSubcommands:
    def test_constants(self, tmp_path, capsys):
        cfgp = write_config(tmp_path)
        assert main(["--config", str(cfgp), "constants"]) == 0
        report = json.loads((tmp_path / "out" / "constants.json").read_text())
        assert report["n"] == N
        assert "c9" in report["derived"]
        assert (tmp_path / "out" / "constants.txt").exists()

    def test_critical_points(self, tmp_path, capsys):
        cfgp = write_config(tmp_path)
        assert main(["--config", str(cfgp), "critical-points"]) == 0
        doc = json.loads((tmp_path / "out" / "landscape.json").read_text())
        assert doc["config"]["seed"] == 11
        assert doc["constants_version"].startswith("constants-v1")
        assert len(doc["records"]) == 11
        assert doc["assumptions"]["H1"] is True
        assert doc["boundary_index_sum"] == 1 + (-1) ** (N - 1)

    def test_census_and_existence(self, tmp_path, capsys):
        cfgp = write_config(tmp_path)
        assert main(["--config", str(cfgp), "census"]) == 0
        census = json.loads((tmp_path / "out" / "census.json").read_text())
        assert len(census["census"]) == 7
        assert main(["--config", str(cfgp), "existence"]) == 0
        doc = json.loads((tmp_path / "out" / "existence.json").read_text())
        assert doc["verdict"]["conclusion"] == "solution_exists"
        out = capsys.readouterr().out
        assert "solution_exists" in out

    def test_counting_without_config(self, tmp_path, capsys):
        assert main(["counting", "--indices", "4,4,3", "--A"]) == 0
        out = capsys.readouterr().out
        assert "A1..A4 = (1, -1, -1, 0)" in out

    def test_flow(self, tmp_path, capsys):
        cfgp = write_config(tmp_path)
        state = {
            "q": 1, "p": 0, "eps": 0.1,
            "bubbles": [{"alpha": 0.05, "point": [1, 0, 0, 0, 0, 0], "lambda": 80.0}],
        }
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(state))
        assert main(["--config", str(cfgp), "flow", "--state", str(state_path),
                     "--t-max", "0.5", "--certificates"]) == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert rows[0].startswith("t,region,J_center")
        assert len(rows) >= 3
        certs = json.loads((tmp_path / "out" / "certificates.json").read_text())
        assert all(c["satisfied"] for c in certs["certificates"])

    def test_flow_runs_no_assumption_report(self, tmp_path, monkeypatch, capsys):
        # flow writes no assumption report, so it must not pay for one
        # the CLI imports the landscape functions when a subcommand runs
        import hemiflow.landscape as landscape
        calls = []
        monkeypatch.setattr(landscape, "check_assumptions", lambda *args: calls.append(args))
        cfgp = write_config(tmp_path)
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps({
            "q": 1, "p": 0, "eps": 0.1,
            "bubbles": [{"alpha": 0.05, "point": [1, 0, 0, 0, 0, 0], "lambda": 80.0}]}))
        assert main(["--config", str(cfgp), "flow", "--state", str(state_path),
                     "--t-max", "0.2"]) == 0
        assert calls == []

    def test_flow_neighborhood_exit_reason_on_stderr(self, tmp_path, capsys):
        import numpy as np
        from hemiflow.model import ReducedModel
        from _fixtures import E, field_boundary_max, sample_cluster
        K = field_boundary_max()
        cfgp = write_config(tmp_path, field_terms=K.to_config()["terms"])
        state = sample_cluster(ReducedModel(K), E[0], np.random.default_rng(31), count=2,
                               lam_lo=150.0, lam_hi=170.0, spread=0.03)
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(state.to_json()))
        assert main(["--config", str(cfgp), "flow", "--state", str(state_path),
                     "--t-max", "400"]) == 0
        captured = capsys.readouterr()
        assert "stop reason: neighborhood_exit" in captured.out
        assert "stop detail: eps[0][1] = " in captured.err
        meta = json.loads((tmp_path / "out" / "trajectory_meta.json").read_text())
        assert meta["stop_reason"] == "neighborhood_exit"
        assert "detail" not in json.dumps(meta)

    def test_flow_in_dimension_six_with_default_constants(self, tmp_path, capsys):
        # no flow section: M0, M2, M4 come from FlowParams.for_mass(2, 6)
        coeffs = [0.05, 0.01, 0.015, 0.02, 0.025, 0.028, 0.06]
        cfgp = tmp_path / "config.json"
        cfgp.write_text(json.dumps({
            "dimension": 6, "seed": 11, "output_dir": str(tmp_path / "out"),
            "field": {"kappa0": 1.0, "terms": [{"monomial": f"x{i+1}^2", "coeff": c}
                                               for i, c in enumerate(coeffs)]}}))
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps({
            "q": 1, "p": 0, "eps": 0.1,
            "bubbles": [{"alpha": 0.05, "point": [1, 0, 0, 0, 0, 0, 0], "lambda": 80.0}]}))
        assert main(["--config", str(cfgp), "flow", "--state", str(state_path),
                     "--t-max", "5", "--certificates"]) == 0
        assert "stop reason: t_max" in capsys.readouterr().out
        certs = json.loads((tmp_path / "out" / "certificates.json").read_text())["certificates"]
        assert len(certs) >= 3 and all(c["satisfied"] for c in certs)

    def test_verify_counting_suite(self, tmp_path, capsys):
        cfgp = write_config(tmp_path)
        assert main(["--config", str(cfgp), "verify", "--suite", "counting"]) == 0
        doc = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert doc["counting"]["passed"] is True


class TestExitCodes:
    def test_missing_config(self, capsys):
        assert main(["census"]) == 2

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--config", str(path), "census"]) == 2

    @pytest.mark.parametrize("doc", ['"a string"', "[]", "3", "null"],
                             ids=["string", "list", "number", "null"])
    def test_config_not_an_object(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        assert main(["--config", str(path), "census"]) == 2
        assert "configuration must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("monomial", [3, [0, 9]], ids=["number", "index_list"])
    def test_monomial_not_a_string(self, tmp_path, capsys, monomial):
        cfgp = write_config(tmp_path, field_terms=[{"monomial": monomial, "coeff": 0.05}])
        assert main(["--config", str(cfgp), "critical-points"]) == 2
        assert ("invalid field specification: terms[0].monomial: expected a string"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("mass_max", [0, -1])
    def test_mass_max_below_one(self, tmp_path, capsys, mass_max):
        cfgp = write_config(tmp_path, extra={"mass_max": mass_max})
        assert main(["--config", str(cfgp), "census"]) == 2
        assert "mass_max must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("t_max", ["nan", "-1", "inf"])
    def test_flow_t_max_finite_and_not_negative(self, tmp_path, capsys, monkeypatch, t_max):
        # rejected before the landscape is built, so no integration starts
        import hemiflow.cli as cli

        def never(cfg):
            raise AssertionError("the landscape was built")

        monkeypatch.setattr(cli, "_landscape", never)
        cfgp = write_config(tmp_path)
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(_one_bubble()))
        assert main(["--config", str(cfgp), "flow", "--state", str(state_path),
                     "--t-max", t_max]) == 2
        assert "--t-max must be finite and not negative" in capsys.readouterr().err

    def test_invalid_field_dimension(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 3, "field": {"kappa0": 1.0, "terms": []}}))
        assert main(["--config", str(path), "census"]) == 2

    def test_domain_error_exit_code(self, tmp_path, capsys):
        # a constant candidate has no isolated critical points
        cfgp = write_config(tmp_path, field_terms=[])
        assert main(["--config", str(cfgp), "critical-points"]) == 1

    def test_field_negative_on_the_hemisphere(self, tmp_path, capsys):
        # K(-u) = -1e-3 at x6 ≈ 0.5: rejected when the field is built, so
        # critical-points fails too although it never asks for the extrema
        u = np.array([0.4, -0.3, 0.5, 0.2, -0.45, -0.5])
        u /= np.linalg.norm(u)
        terms = [{"monomial": f"x{i+1}", "coeff": float(c)} for i, c in enumerate(1.001 * u)]
        cfgp = write_config(tmp_path, field_terms=terms)
        assert main(["--config", str(cfgp), "critical-points"]) == 1
        assert "NonPositiveField: field takes values <= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["critical-points", "census", "flow"])
    def test_grid_density_below_ten(self, tmp_path, capsys, command):
        # rejected at load, by every subcommand that reads the configuration
        cfgp = write_config(tmp_path, extra={"grid_density": 5})
        args = ["--state", str(tmp_path / "state.json")] if command == "flow" else []
        assert main(["--config", str(cfgp), command] + args) == 2
        assert "grid_density must be at least 10" in capsys.readouterr().err

    @pytest.mark.parametrize("kappa0, terms", [
        (1.0, [{"monomial": "x1", "coeff": float("nan")}]),
        (1.0, [{"monomial": "x1*x2", "coeff": float("inf")}]),
        (float("nan"), [{"monomial": "x1", "coeff": 0.05}]),
    ], ids=["nan_coeff", "inf_coeff", "nan_kappa0"])
    @pytest.mark.parametrize("command", ["critical-points", "census"])
    def test_non_finite_field(self, tmp_path, capsys, kappa0, terms, command):
        cfgp = write_config(tmp_path, field_terms=terms, kappa0=kappa0)
        assert main(["--config", str(cfgp), command]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flow", [{"eta": float("nan")}, {"eps": float("nan")},
                                      {"M0": float("nan")}, {"M4": float("inf")}],
                             ids=["nan_eta", "nan_eps", "nan_M0", "inf_M4"])
    def test_non_finite_flow_constant(self, tmp_path, capsys, flow):
        cfgp = write_config(tmp_path, extra={"flow": flow})
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(_one_bubble()))
        assert main(["--config", str(cfgp), "flow", "--state", str(state_path),
                     "--t-max", "0.2"]) == 2
        assert f"flow constant {next(iter(flow))} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flow, message", [
        ({"M0": -1}, "M0 must be positive"), ({"M2": -10}, "M2 must be positive"),
        ({"M0": 0}, "M0 must be positive"), ({"M2": 0}, "M2 must be positive"),
        ({"M4": 0}, "M4 must be positive"), ({"M4": -1000}, "M4 must be positive"),
        ({"eta": -0.1}, "eta must be positive"), ({"eps": 0}, "eps must be positive"),
        ({"max_qp": 0}, "max_qp must be at least 1"),
    ], ids=["negative_M0", "negative_M2", "zero_M0", "zero_M2", "zero_M4", "negative_M4",
            "negative_eta", "zero_eps", "zero_max_qp"])
    def test_flow_constant_out_of_range(self, tmp_path, capsys, flow, message):
        # the smallness checks divide by and take roots of M0, M2 and M4
        cfgp = write_config(tmp_path, extra={"flow": flow})
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(_one_bubble()))
        assert main(["--config", str(cfgp), "flow", "--state", str(state_path),
                     "--t-max", "0.2"]) == 2
        assert f"configuration error: flow constant {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["critical-points", "census", "existence"])
    def test_non_finite_flow_constant_rejected_at_load(self, tmp_path, capsys, command):
        # the subcommands that never run the flow still read the configuration
        cfgp = write_config(tmp_path, extra={"flow": {"eta": float("nan")}})
        assert main(["--config", str(cfgp), command]) == 2
        assert "flow constant eta must be finite" in capsys.readouterr().err

    def test_counting_indices_not_integers(self, capsys):
        assert main(["counting", "--indices", "1,x"]) == 2
        assert "configuration error: --indices must be comma-separated integers" \
            in capsys.readouterr().err

    def test_unknown_flow_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "dimension": N, "field": {"kappa0": 1.0, "terms": []},
            "flow": {"M9": 1.0}}))
        assert main(["--config", str(path), "census"]) == 2

    @pytest.mark.parametrize("flow", [{"M0": "abc"}, {"strict_lambda_sign": "no"}, 5,
                                      {"max_qp": 200}],
                             ids=["M0_string", "flag_string", "not_an_object", "max_qp_overflow"])
    def test_mistyped_flow_section(self, tmp_path, capsys, flow):
        cfgp = write_config(tmp_path, extra={"flow": flow})
        assert main(["--config", str(cfgp), "census"]) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_set_flow_constants_need_no_defaults(self, tmp_path, capsys):
        # with M0, M2 and M4 set, their defaults for 200 bubbles (beyond the
        # float range) are not computed; the flow's smallness check, whose
        # M4**2 used to overflow, refuses the set values
        flow = {"max_qp": 200, "M0": 1e300, "M2": 10, "M4": 1e160}
        cfgp = write_config(tmp_path, extra={"flow": flow})
        assert main(["--config", str(cfgp), "census"]) == 0
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(_one_bubble()))
        capsys.readouterr()
        assert main(["--config", str(cfgp), "flow", "--state", str(state_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: M2 too large against M0^{1/(q+p-1)}" in err


    @pytest.mark.parametrize("extra, key", [
        ({"dimension": 5.5}, "dimension"),
        ({"dimension": 5.0}, "dimension"),
        ({"dimension": "5"}, "dimension"),
        ({"dimension": True}, "dimension"),
        ({"mass_max": "4"}, "mass_max"),
        ({"mass_max": 4.0}, "mass_max"),
        ({"seed": 11.5}, "seed"),
        ({"seeds_per_dim": False}, "seeds_per_dim"),
        ({"grid_density": "12"}, "grid_density"),
        ({"output_dir": 5}, "output_dir"),
        ({"output_dir": ["out"]}, "output_dir"),
        ({"quadrature_tol": "1e-8"}, "quadrature_tol"),
        ({"quadrature_tol": True}, "quadrature_tol"),
        ({"flow": {"max_qp": 2.5}}, "flow constant max_qp"),
        ({"flow": {"max_qp": True}}, "flow constant max_qp"),
        ({"flow": {"M2": True}}, "flow constant M2"),
        ({"flow": {"strict_lambda_sign": False}}, "flow constant strict_lambda_sign"),
        ({"field": {"kappa0": "1.0"}}, "invalid field specification: kappa0"),
        ({"field": {"kappa0": True}}, "invalid field specification: kappa0"),
        ({"field": {"kappa0": 1.0, "terms": [{"monomial": "x1", "coeff": 0.01},
                                             {"monomial": "x1^2", "coeff": "0.05"}]}},
         "invalid field specification: terms[1].coeff"),
        ({"field": {"kappa0": 1.0, "terms": [{"monomial": "x1", "coeff": False}]}},
         "invalid field specification: terms[0].coeff"),
        ({"field": {"kappa0": 1.0, "dimension": 6}}, "field.dimension"),
        ({"field": {"kappa0": 1.0, "dimension": "6"}}, "field.dimension"),
        ({"field": {"kappa0": 1.0, "dimension": 6.0}}, "field.dimension"),
        ({"field": {"kappa0": 1.0, "dimension": True}}, "field.dimension"),
    ], ids=["dimension_fraction", "dimension_float", "dimension_string", "dimension_bool",
            "mass_max_string", "mass_max_float", "seed_fraction", "seeds_per_dim_bool",
            "grid_density_string", "output_dir_number", "output_dir_list",
            "quadrature_tol_string", "quadrature_tol_bool", "max_qp_fraction", "max_qp_bool",
            "M2_bool", "strict_lambda_sign_false", "kappa0_string", "kappa0_bool",
            "coeff_string", "coeff_bool", "field_dimension_mismatch", "field_dimension_string",
            "field_dimension_float", "field_dimension_bool"])
    def test_no_silent_coercion(self, tmp_path, capsys, extra, key):
        # a value of the wrong JSON type is refused, not truncated or parsed
        cfgp = write_config(tmp_path, extra=extra)
        assert main(["--config", str(cfgp), "census"]) == 2
        assert f"configuration error: {key}: expected" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kappa0, coeff, key", [(10 ** 400, 0.05, "kappa0"),
                                                    (1.0, 10 ** 400, "terms[0].coeff")],
                             ids=["kappa0_beyond_float", "coeff_beyond_float"])
    def test_field_numbers_beyond_float_range(self, tmp_path, capsys, kappa0, coeff, key):
        # float() overflows on these; the refusal used to escape as OverflowError
        cfgp = write_config(tmp_path, kappa0=kappa0,
                            field_terms=[{"monomial": "x1", "coeff": coeff}])
        assert main(["--config", str(cfgp), "critical-points"]) == 2
        assert (f"invalid field specification: {key}: expected a number, got an integer "
                "beyond the float range") in capsys.readouterr().err

    @pytest.mark.parametrize("dimension", [120, 160])
    @pytest.mark.parametrize("command", ["constants", "critical-points"])
    def test_constants_beyond_the_float_range(self, tmp_path, capsys, command, dimension):
        # NaN constants from n = 93 and an overflowing cp from n = 144 end in
        # a domain error, not in NaN artifacts or a traceback
        cfgp = write_config(tmp_path, extra={"dimension": dimension})
        assert main(["--config", str(cfgp), command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ToleranceNotMet: ") and "Traceback" not in err
        assert not (tmp_path / "out" / "constants.json").exists()

    def test_field_dimension_mismatch_names_both(self, tmp_path, capsys):
        # the field section used to override the top-level dimension
        cfgp = write_config(tmp_path, extra={"field": {"kappa0": 1.0, "dimension": 6}})
        assert main(["--config", str(cfgp), "critical-points"]) == 2
        assert ("configuration error: field.dimension: expected the top-level dimension 5, "
                "got 6") in capsys.readouterr().err

    def test_field_dimension_restating_the_top_level_runs(self, tmp_path):
        field = {"kappa0": 1.0, "dimension": N, "terms": [{"monomial": "x1", "coeff": 0.05}]}
        cfgp = write_config(tmp_path, extra={"field": field})
        assert main(["--config", str(cfgp), "critical-points"]) == 0

    @pytest.mark.parametrize("command", ["critical-points", "census", "existence", "flow"])
    def test_dimension_beyond_memory(self, tmp_path, capsys, command):
        # the field's (n+1)-sized arrays used to be allocated first, and the
        # refused allocation ended in a traceback; the constants refuse first
        cfgp = write_config(tmp_path, extra={"dimension": 10 ** 12})
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(_one_bubble()))
        extra = ["--state", str(state_path)] if command == "flow" else []
        assert main(["--config", str(cfgp), command, *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ToleranceNotMet: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_old_configuration_keys_change_nothing(self, tmp_path):
        # seeds_per_dim, grid_density and strict_lambda_sign = true still
        # load, and the artifacts are those of a configuration without them
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(_one_bubble()))
        outputs = []
        for extra in ({}, {"seeds_per_dim": 10, "grid_density": 12,
                           "flow": {"strict_lambda_sign": True}}):
            out = tmp_path / f"out{len(outputs)}"
            cfgp = write_config(tmp_path, extra=extra)
            assert main(["--config", str(cfgp), "--output-dir", str(out), "census"]) == 0
            assert main(["--config", str(cfgp), "--output-dir", str(out), "flow", "--state",
                         str(state_path), "--t-max", "0.5"]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("census.json", "trajectory.csv")])
        assert outputs[0] == outputs[1]

    def test_integral_numbers_keep_their_artifacts(self, tmp_path):
        # JSON integers where floats are read give the float's artifacts
        as_float = write_config(tmp_path, extra={"quadrature_tol": 1.0e-8,
                                                 "flow": {"M2": 10.0}})
        first = tmp_path / "a"
        assert main(["--config", str(as_float), "--output-dir", str(first), "census"]) == 0
        as_int = write_config(tmp_path, extra={"quadrature_tol": 1.0e-8, "flow": {"M2": 10}})
        second = tmp_path / "b"
        assert main(["--config", str(as_int), "--output-dir", str(second), "census"]) == 0
        assert (first / "census.json").read_bytes() == (second / "census.json").read_bytes()


    @pytest.mark.parametrize("mass_max, code", [(6 * N + 4, 0), (6 * N + 5, 2), (10 ** 9, 2)],
                             ids=["at_the_limit", "above_the_limit", "billion"])
    def test_mass_max_bounded_by_the_census(self, tmp_path, capsys, monkeypatch, mass_max,
                                            code):
        # bands above 6n + 4 hold no entry; a larger mass_max used to grow the
        # band list until memory ran out, and is refused before any band
        import hemiflow.census as census
        built = []
        bands = census.level_bands
        monkeypatch.setattr(census, "level_bands", lambda *a: built.append(a) or bands(*a))
        cfgp = write_config(tmp_path, extra={"mass_max": mass_max})
        assert main(["--config", str(cfgp), "census"]) == code
        if code == 0:
            doc = json.loads((tmp_path / "out" / "census.json").read_text())
            assert len(doc["bands"]) == 6 * N + 4
        else:
            assert built == []
            assert (f"configuration error: mass_max must be at most {6 * N + 4} in dimension "
                    f"{N}, got {mass_max}") in capsys.readouterr().err


def _edited(doc, change):
    doc = json.loads(json.dumps(doc))
    return change(doc) or doc


_S, _F = "invalid state file {state}: ", "invalid field specification: "
# (document edited, edit of the valid document, refusal; {state} is the state file)
REFUSALS = {
    "state_missing_alpha": ("state", lambda d: d["bubbles"][0].pop("alpha") and None,
                            _S + "bubbles[0].alpha: missing"),
    "state_missing_q": ("state", lambda d: d.pop("q") and None, _S + "q: missing"),
    "bubble_not_an_object": ("state", lambda d: d["bubbles"].__setitem__(0, 5),
                             _S + "bubbles[0]: expected an object, got 5"),
    "bubbles_not_a_list": ("state", lambda d: d.__setitem__("bubbles", 5),
                           _S + "bubbles: expected a list, got 5"),
    "state_not_an_object": ("state", lambda d: [1], "state file {state} must be a JSON object"),
    "state_misspelt_eps": ("state", lambda d: d.__setitem__("epsilon", 0.5),
                           _S + "epsilon: unknown key"),
    "bubble_misspelt_lambda": ("state", lambda d: d["bubbles"][0].__setitem__("lamda", 5000.0),
                               _S + "bubbles[0].lamda: unknown key"),
    "point_of_another_dimension": ("state", lambda d: d["bubbles"][0]["point"].pop() and None,
                                   _S + "bubbles[0].point: expected 6 coordinates, got 5"),
    "point_off_the_sphere": ("state", lambda d: d["bubbles"][0].__setitem__("point",
                                                                           [2, 0, 0, 0, 0, 0]),
                             _S + "bubbles[0].point: |coords| = 2.0 is not 1"),
    "field_missing_kappa0": ("config", lambda d: d["field"].pop("kappa0") and None,
                             _F + "kappa0: missing"),
    "terms_not_a_list": ("config", lambda d: d["field"].__setitem__("terms", 5),
                         _F + "terms: expected a list, got 5"),
    "term_not_an_object": ("config", lambda d: d["field"]["terms"].__setitem__(0, 3),
                           _F + "terms[0]: expected an object, got 3"),
    "term_missing_coeff": ("config", lambda d: d["field"]["terms"][0].pop("coeff") and None,
                           _F + "terms[0].coeff: missing"),
    "field_misspelt_kappa0": ("config", lambda d: d["field"].__setitem__("kapa0", 2.0),
                              _F + "kapa0: unknown key"),
    "term_misspelt_coeff": ("config", lambda d: d["field"]["terms"][0].__setitem__("coef", 1.0),
                            _F + "terms[0].coef: unknown key"),
    "monomial_out_of_range": ("config",
                              lambda d: d["field"]["terms"][0].__setitem__("monomial", "x9"),
                              _F + "terms[0].monomial: variable x9 out of range in 'x9'"),
    "misspelt_dimension": ("config", lambda d: d.__setitem__("dimensoin", 6),
                           "dimensoin: unknown key"),
    "misspelt_mass_max": ("config", lambda d: d.update({"mass-max": 9, "mass_max": 2}),
                          "mass-max: unknown key"),
    "unknown_flow_constant": ("config", lambda d: d.__setitem__("flow", {"M9": 1.0}),
                              "flow constant M9: unknown key"),
    "tolerance_out_of_range": ("config", lambda d: d.__setitem__("quadrature_tol", 1e-3),
                               "quadrature_tol must be between 1e-12 and 1e-4, got 0.001"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_names_the_key_path(tmp_path, capsys, case):
    # each of these used to print a Python exception or run to exit 0
    document, change, message = REFUSALS[case]
    cfgp, state = write_config(tmp_path), tmp_path / "state.json"
    state_doc = _one_bubble()
    if document == "state":
        state_doc = _edited(state_doc, change)
    else:
        cfgp.write_text(json.dumps(_edited(json.loads(cfgp.read_text()), change)))
    state.write_text(json.dumps(state_doc))
    assert main(["--config", str(cfgp), "flow", "--state", str(state), "--t-max", "0.2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message.format(state=state)}")
    assert "Error(" not in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, problem", [
    ('{"q": 1' + "0" * 5000 + "}", "Exceeds the limit (4300 digits)"),
    (b"\xff", "can't decode byte 0xff"),
], ids=["integer_beyond_the_digit_limit", "not_utf8"])
@pytest.mark.parametrize("document", ["configuration", "state file"], ids=["config", "state"])
def test_unreadable_document(tmp_path, capsys, text, problem, document):
    # a ValueError that is no JSONDecodeError used to end in a traceback
    cfgp, state = write_config(tmp_path), tmp_path / "state.json"
    state.write_text(json.dumps(_one_bubble()))
    path = cfgp if document == "configuration" else state
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert main(["--config", str(cfgp), "flow", "--state", str(state)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read {document} {path}: ")
    assert problem in err


def test_readme_lists_every_key():
    # the README's key tables are the schema's, row for row and in its order
    from hemiflow.config import CONFIG_KEYS, KINDS, REQUIRED, STATE_KEYS
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for keys in (CONFIG_KEYS, STATE_KEYS):
        rows = []
        for key in keys:
            default = ("" if key.path.endswith("[]") else "retired" if key.retired
                       else "required" if key.default is REQUIRED
                       else "derived" if key.default is None else json.dumps(key.default))
            rows.append(f"| `{key.path}` | {KINDS[key.kind]} | "
                        f"{key.bound.name if key.bound else ''} | {default} |")
        assert "\n".join(rows) in readme


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfgp = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["--config", str(cfgp), "--output-dir", str(out), "census"]) == 0
            assert main(["--config", str(cfgp), "--output-dir", str(out), "critical-points"]) == 0
        assert (out_a / "census.json").read_bytes() == (out_b / "census.json").read_bytes()
        assert (out_a / "landscape.json").read_bytes() == (out_b / "landscape.json").read_bytes()

    def test_console_entry_point(self):
        res = subprocess.run([sys.executable, "-m", "hemiflow.cli", "counting",
                              "--indices", "1,2", "--B"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert "B1, B2 = (0, -1)" in res.stdout


def test_cli_import_loads_no_scipy():
    # the CLI and the verify suites run without scipy; only oracles that
    # call scipy's quadrature load it, on first use
    code = ("import sys, hemiflow, hemiflow.cli, hemiflow.verify; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_each_subcommand_loads_only_its_layers(tmp_path):
    # a bare package import loads no submodule; the CLI module loads neither
    # the flow layers nor the census; the landscape subcommands never load
    # numpy.random
    cfgp = write_config(tmp_path)
    code = f"""
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("hemiflow."))
import hemiflow
bare = loaded()
import hemiflow.cli
heavy = sorted(set(loaded()) & {{"hemiflow.flow", "hemiflow.model", "hemiflow.bubbles",
                                 "hemiflow.census"}})
codes = [hemiflow.cli.main(["--config", {str(cfgp)!r}, c])
         for c in ("critical-points", "census", "existence")]
print(json.dumps([bare, heavy, codes, "numpy.random" in sys.modules]))
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    bare, heavy, codes, random_loaded = json.loads(res.stdout.strip().splitlines()[-1])
    assert bare == []
    assert heavy == []
    assert codes == [0, 0, 0]
    assert not random_loaded


def test_counting_loads_no_numpy(tmp_path):
    # counting is pure integer arithmetic: without --config it loads neither
    # the field layers nor numpy
    out = tmp_path / "counting.json"
    code = f"""
import json, sys
from hemiflow.cli import main
code = main(["counting", "--indices", "4,4,3", "--A", "--B", "--out", {str(out)!r}])
print(json.dumps([code, "numpy" in sys.modules]))
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    code, numpy_loaded = json.loads(res.stdout.strip().splitlines()[-1])
    assert code == 0
    assert not numpy_loaded
    assert set(json.loads(out.read_text())) == {"A", "B"}


def test_every_exported_name_resolves():
    import hemiflow
    import hemiflow.config
    import hemiflow.flow
    namespace = {}
    exec("from hemiflow import *", namespace)
    for name in hemiflow.__all__:
        assert namespace[name] is getattr(hemiflow, name)
    assert hemiflow.FlowParams is hemiflow.flow.FlowParams is hemiflow.config.FlowParams
    with pytest.raises(AttributeError):
        hemiflow.no_such_name


def _one_bubble(alpha=0.05, point=(1, 0, 0, 0, 0, 0), lam=80.0, eps=0.1):
    return {"q": 1, "p": 0, "eps": eps,
            "bubbles": [{"alpha": alpha, "point": list(point), "lambda": lam}]}


class TestFlowStateErrors:
    def test_missing_state_file(self, tmp_path):
        cfgp = write_config(tmp_path)
        assert main(["--config", str(cfgp), "flow", "--state",
                     str(tmp_path / "nope.json")]) == 2

    def test_malformed_state_refused_before_the_landscape(self, tmp_path, capsys,
                                                          monkeypatch):
        from hemiflow import landscape

        def never(*args):
            raise AssertionError("the landscape was built")

        monkeypatch.setattr(landscape, "find_critical_points", never)
        cfgp = write_config(tmp_path)
        state = _one_bubble()
        del state["p"]
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        assert main(["--config", str(cfgp), "flow", "--state", str(path)]) == 2
        assert "p: missing" in capsys.readouterr().err

    def test_invalid_state_configuration(self, tmp_path):
        cfgp = write_config(tmp_path)
        state = tmp_path / "state.json"
        # rate below the neighborhood floor
        state.write_text(json.dumps({
            "q": 1, "p": 0, "eps": 0.1,
            "bubbles": [{"alpha": 0.05, "point": [1, 0, 0, 0, 0, 0], "lambda": 2.0}]}))
        assert main(["--config", str(cfgp), "flow", "--state", str(state)]) == 1

    @pytest.mark.parametrize("state", [
        {"p": 0, "eps": 0.1,
         "bubbles": [{"alpha": 0.05, "point": [1, 0, 0, 0, 0, 0], "lambda": 80.0}]},
        {"q": 1, "p": 0, "eps": 0.1,
         "bubbles": [{"alpha": 0.05, "point": [2, 0, 0, 0, 0, 0], "lambda": 80.0}]},
        {"q": 1, "p": 0, "eps": 0.1,
         "bubbles": [{"alpha": 0.05, "point": [1, 0, 0, 0, 0], "lambda": 80.0}]},
        _one_bubble(lam=float("nan")),
        _one_bubble(alpha=float("nan")),
        _one_bubble(alpha=float("inf")),
        _one_bubble(point=[1, float("nan"), 0, 0, 0, 0]),
        _one_bubble(eps=float("nan")),
        _one_bubble(eps=0.0),
        _one_bubble(eps=-0.1),
    ], ids=["missing_q", "non_unit_point", "wrong_dimension", "nan_lambda", "nan_alpha",
            "inf_alpha", "nan_point", "nan_eps", "zero_eps", "negative_eps"])
    def test_malformed_state(self, tmp_path, capsys, state):
        cfgp = write_config(tmp_path)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        assert main(["--config", str(cfgp), "flow", "--state", str(path)]) == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("q, p, message", [
        (1.5, 0, "q: expected an integer, got 1.5"), (1.0, 0, "q: expected an integer, got 1.0"),
        ("1", 0, "q: expected an integer, got '1'"), (True, 0, "q: expected an integer, got True"),
        (1, 0.0, "p: expected an integer, got 0.0"),
        (2, 0, "add up to the number of bubbles, 1"), (1, 1, "add up to the number of bubbles, 1"),
        (0, 0, "add up to the number of bubbles, 1"), (-1, 2, "q must be at least 0, got -1"),
    ], ids=["q_fraction", "q_float", "q_string", "q_bool", "p_float", "q_exceeds_bubbles",
            "q_plus_p_exceeds_bubbles", "fewer_than_bubbles", "negative_q"])
    def test_state_counts_are_integers_matching_the_bubbles(self, tmp_path, capsys, q, p,
                                                            message):
        cfgp = write_config(tmp_path)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(dict(_one_bubble(), q=q, p=p)))
        assert main(["--config", str(cfgp), "flow", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: invalid state file {path}: " in err
        assert message in err

    @pytest.mark.parametrize("state, key", [
        (_one_bubble(lam="80"), "bubbles[0].lambda"),
        (_one_bubble(eps="0.1"), "eps"),
        (_one_bubble(alpha=True), "bubbles[0].alpha"),
        (_one_bubble(point=["1", 0, 0, 0, 0, 0]), "bubbles[0].point[0]"),
        (_one_bubble(lam=10 ** 400), "bubbles[0].lambda"),
        (dict(_one_bubble(), bubbles=[{"alpha": 0.05, "point": "1,0,0,0,0,0", "lambda": 80.0}]),
         "bubbles[0].point"),
    ], ids=["string_lambda", "string_eps", "bool_alpha", "string_coordinate",
            "lambda_beyond_float", "point_not_a_list"])
    def test_state_numbers_are_json_numbers(self, tmp_path, capsys, state, key):
        # each of these used to be parsed, and the flow ran to exit 0
        cfgp = write_config(tmp_path)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        assert main(["--config", str(cfgp), "flow", "--state", str(path), "--t-max", "0.2"]) == 2
        err = capsys.readouterr().err
        assert "configuration error: invalid state file" in err
        assert f"{key}: " in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("state", [_one_bubble(lam=1e160), _one_bubble(alpha=1e300),
                                       _one_bubble(alpha=1e-300)],
                             ids=["huge_lambda", "huge_alpha", "tiny_alpha"])
    def test_state_out_of_float_range(self, tmp_path, capsys, state):
        # the energy's powers overflow or its denominator underflows to zero
        cfgp = write_config(tmp_path)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        assert main(["--config", str(cfgp), "flow", "--state", str(path)]) == 1
        assert "error: NonFiniteBar: energy out of float range" in capsys.readouterr().err

    def test_negative_energy_denominator(self, tmp_path, capsys):
        # a slow bubble where K falls steeply inward: the denominator's float
        # power was complex, and float() of it ended in a TypeError traceback
        terms = [{"monomial": "x6", "coeff": -0.99}, {"monomial": "x1", "coeff": 0.01}]
        terms += [{"monomial": f"x{i}^2", "coeff": c} for i, c in zip(range(1, 5),
                                                                      (0.5, 0.3, 0.2, 0.1))]
        cfgp = write_config(tmp_path, field_terms=terms)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(_one_bubble(lam=1.0, eps=2.0)))
        assert main(["--config", str(cfgp), "flow", "--state", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: NonFiniteBar: energy denominator -") and "is negative" in err

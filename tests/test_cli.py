import json
import subprocess
import sys

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

    def test_invalid_field_dimension(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 3, "field": {"kappa0": 1.0, "terms": []}}))
        assert main(["--config", str(path), "census"]) == 2

    def test_domain_error_exit_code(self, tmp_path, capsys):
        # a constant candidate has no isolated critical points
        cfgp = write_config(tmp_path, field_terms=[])
        assert main(["--config", str(cfgp), "critical-points"]) == 1

    def test_unknown_flow_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "dimension": N, "field": {"kappa0": 1.0, "terms": []},
            "flow": {"M9": 1.0}}))
        assert main(["--config", str(path), "census"]) == 2

    @pytest.mark.parametrize("flow", [{"M0": "abc"}, {"strict_lambda_sign": "no"}, 5],
                             ids=["M0_string", "flag_string", "not_an_object"])
    def test_mistyped_flow_section(self, tmp_path, capsys, flow):
        cfgp = write_config(tmp_path, extra={"flow": flow})
        assert main(["--config", str(cfgp), "census"]) == 2
        assert "configuration error:" in capsys.readouterr().err


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


class TestFlowStateErrors:
    def test_missing_state_file(self, tmp_path):
        cfgp = write_config(tmp_path)
        assert main(["--config", str(cfgp), "flow", "--state",
                     str(tmp_path / "nope.json")]) == 2

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
    ], ids=["missing_q", "non_unit_point", "wrong_dimension"])
    def test_malformed_state(self, tmp_path, capsys, state):
        cfgp = write_config(tmp_path)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        assert main(["--config", str(cfgp), "flow", "--state", str(path)]) == 2
        assert "configuration error:" in capsys.readouterr().err

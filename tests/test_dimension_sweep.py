"""The CLI at every dimension from 5 to 10: on a nondegenerate random field
of each dimension every subcommand that reads a configuration exits 0, and
``verify --suite all`` passes."""

import json

import numpy as np
import pytest

from _fixtures import random_field
from hemiflow.cli import main


@pytest.mark.parametrize("n", range(5, 11))
def test_every_subcommand_runs_and_verify_passes(n, tmp_path, capsys):
    field = random_field(np.random.default_rng([21, n]), n)
    config = tmp_path / "config.json"
    # flow constants unset: they come from FlowParams.for_mass(2, n)
    config.write_text(json.dumps({"dimension": n, "field": field.to_config(),
                                  "output_dir": str(tmp_path / "out")}))
    for command in ("constants", "critical-points", "census", "existence"):
        assert main(["--config", str(config), command]) == 0, command
    capsys.readouterr()
    assert main(["--config", str(config), "verify", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count(": PASS (") == 3 and "FAIL" not in out

    state = tmp_path / "state.json"
    point = [1.0] + [0.0] * n
    state.write_text(json.dumps({"q": 1, "p": 0, "eps": 0.1, "bubbles": [
        {"alpha": 0.05, "point": point, "lambda": 80.0}]}))
    assert main(["--config", str(config), "flow", "--state", str(state), "--t-max", "0.5",
                 "--certificates"]) == 0
    assert capsys.readouterr().out.startswith("trajectory: ")
    meta = json.loads((tmp_path / "out" / "trajectory_meta.json").read_text())
    assert meta["states"] >= 2 and meta["config"]["dimension"] == n

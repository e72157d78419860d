"""Fuzzed configuration and state documents: whatever a document holds
(wrong types, numbers as strings, missing keys, NaN and inf, non-unit
points, wrong dimensions), ``cli.main`` answers with exit code 0, 1 or 2
and never raises.

No drawn value asks the program for much memory or time: the configuration
fuzz runs subcommands that do not enumerate the census, whose size grows
with ``mass_max``, and the flow runs to ``--t-max 0.05``."""

import copy
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from hemiflow.cli import main

BASE_CONFIG = {
    "dimension": 5,
    "field": {"kappa0": 1.0, "terms": [
        {"monomial": "x1", "coeff": 0.05}, {"monomial": "x1^2", "coeff": 0.02},
        {"monomial": "x2^2", "coeff": 0.01}, {"monomial": "x6^2", "coeff": 0.03}]},
    "seed": 11,
    "mass_max": 4,
    "flow": {"eta": 0.1, "max_qp": 2},
}
BASE_STATE = {"q": 1, "p": 0, "eps": 0.1,
              "bubbles": [{"alpha": 0.05, "point": [1, 0, 0, 0, 0, 0], "lambda": 80.0}]}

ODD = [None, True, False, "5", "0.1", "", "x1", [], [1], {}, {"a": 1}, math.nan, math.inf,
       -math.inf, -1, 0, 1, 1.5, 5.0, 1e-300, 1e308, 10 ** 400]

CONFIG_PATHS = [(), ("dimension",), ("field",), ("field", "kappa0"), ("field", "terms"),
                ("field", "terms", 0), ("field", "terms", 0, "monomial"),
                ("field", "terms", 1, "coeff"), ("quadrature_tol",), ("seeds_per_dim",),
                ("seed",), ("grid_density",), ("mass_max",), ("flow",), ("flow", "eta"),
                ("flow", "max_qp"), ("flow", "M0"), ("flow", "strict_lambda_sign"),
                ("output_dir",)]
STATE_PATHS = [(), ("q",), ("p",), ("eps",), ("bubbles",), ("bubbles", 0),
               ("bubbles", 0, "alpha"), ("bubbles", 0, "lambda"), ("bubbles", 0, "point"),
               *(("bubbles", 0, "point", k) for k in range(6))]

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=150)


def edit(doc, path, action):
    """``doc`` with the value at ``path`` deleted (action None) or replaced
    by action[0]; a path that no longer exists leaves the document as is."""
    if not path:
        return doc if action is None else action[0]
    parent = doc
    for step in path[:-1]:
        try:
            parent = parent[step]
        except (KeyError, IndexError, TypeError):
            return doc
    try:
        if action is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = action[0]
    except (KeyError, IndexError, TypeError):
        pass
    return doc


def edits(paths):
    action = st.one_of(st.none(), st.tuples(st.sampled_from(ODD)))
    return st.lists(st.tuples(st.sampled_from(paths), action), max_size=3)


def point_change():
    """Scale the point off the sphere, or drop or add a coordinate."""
    return st.sampled_from([None, ("scale", 2.0), ("scale", 1.0 + 1e-9), ("scale", 0.5),
                            ("drop", None), ("add", 0.0)])


def run(tmp, config, command, state=None):
    config_path, state_path = tmp / "config.json", tmp / "state.json"
    config_path.write_text(json.dumps(config))
    argv = ["--config", str(config_path), "--output-dir", str(tmp / "out"), command]
    if command == "flow":
        state_path.write_text(json.dumps(state))
        argv += ["--state", str(state_path), "--t-max", "0.05"]
    code = main(argv)
    assert code in (0, 1, 2)


@FUZZ
@given(changes=edits(CONFIG_PATHS),
       command=st.sampled_from(["critical-points", "existence", "constants"]))
def test_configuration_documents(tmp_path_factory, changes, command):
    doc = copy.deepcopy(BASE_CONFIG)
    for path, action in changes:
        doc = edit(doc, path, action)
    run(tmp_path_factory.mktemp("config"), doc, command)


@FUZZ
@given(changes=edits(STATE_PATHS), point=point_change())
def test_state_documents(tmp_path_factory, changes, point):
    doc = copy.deepcopy(BASE_STATE)
    if point is not None:
        coords = doc["bubbles"][0]["point"]
        kind, value = point
        if kind == "scale":
            coords[:] = [c * value for c in coords]
        elif kind == "drop":
            coords.pop()
        else:
            coords.append(value)
    for path, action in changes:
        doc = edit(doc, path, action)
    run(tmp_path_factory.mktemp("state"), copy.deepcopy(BASE_CONFIG), "flow", doc)

"""Fuzzed configuration and state documents: whatever a document holds
(wrong types, numbers as strings, missing or misspelt keys, NaN and inf,
non-unit points, wrong dimensions), ``cli.main`` answers with exit code 0,
1 or 2 and never raises.  The edited paths are drawn from the documents'
key tables, so a new key is fuzzed as soon as the table holds it.

No drawn value asks the program for much memory or time: ``mass_max`` is
bounded at load, and the flow runs to ``--t-max 0.05``."""

import contextlib
import copy
import io
import json
import math
import re

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hemiflow.cli import main
from hemiflow.config import CONFIG_KEYS, STATE_KEYS

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


def key_paths(keys):
    """Each key's path as a tuple of steps, ``"[]"`` standing for a list index."""
    return [tuple(re.findall(r"\[\]|[^.\[\]]+", key.path)) for key in keys]


CONFIG_PATHS = [()] + key_paths(CONFIG_KEYS)
STATE_PATHS = [()] + key_paths(STATE_KEYS)

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=150)


def edit(doc, path, action):
    """``doc`` with the value at ``path`` deleted (action None), replaced by
    action[0], or moved to a misspelt key (action ``("misspell", k)``); a
    path that no longer exists leaves the document as is."""
    if not path:
        return doc if action is None or len(action) == 2 else action[0]
    parent = doc
    for step in path[:-1]:
        try:
            parent = parent[step]
        except (KeyError, IndexError, TypeError):
            return doc
    try:
        if action is None:
            del parent[path[-1]]
        elif len(action) == 2:
            if isinstance(parent, dict) and path[-1] in parent:
                parent[misspell(path[-1], action[1])] = parent.pop(path[-1])
        else:
            parent[path[-1]] = action[0]
    except (KeyError, IndexError, TypeError):
        pass
    return doc


def misspell(key, k):
    """``key`` with one character dropped, doubled or swapped with the
    next, chosen by ``k``."""
    i = k // 3 % len(key)
    return [key[:i] + key[i + 1:], key[:i] + key[i] + key[i:],
            key[:i] + key[i + 1:i + 2] + key[i] + key[i + 2:]][k % 3]


def concrete(paths):
    """A drawn path, each ``"[]"`` replaced by an index into the list."""
    return st.sampled_from(paths).flatmap(lambda path: st.tuples(
        *(st.integers(0, 5) if step == "[]" else st.just(step) for step in path)))


def keyed(paths):
    """A drawn path that ends in a key, not in a list index."""
    return concrete([path for path in paths if path and path[-1] != "[]"])


def edits(paths):
    action = st.one_of(st.none(), st.tuples(st.sampled_from(ODD)),
                       st.tuples(st.just("misspell"), st.integers(0, 40)))
    return st.lists(st.tuples(concrete(paths), action), max_size=3)


def point_change():
    """Scale the point off the sphere, or drop or add a coordinate."""
    return st.sampled_from([None, ("scale", 2.0), ("scale", 1.0 + 1e-9), ("scale", 0.5),
                            ("drop", None), ("add", 0.0)])


def run(tmp, config, command, state=None, code=None):
    config_path, state_path = tmp / "config.json", tmp / "state.json"
    config_path.write_text(json.dumps(config))
    argv = ["--config", str(config_path), "--output-dir", str(tmp / "out"), command]
    if command == "flow":
        state_path.write_text(json.dumps(state))
        argv += ["--state", str(state_path), "--t-max", "0.05"]
    assert main(argv) in ((0, 1, 2) if code is None else (code,))


@FUZZ
@given(changes=edits(CONFIG_PATHS),
       command=st.sampled_from(["critical-points", "existence", "constants", "census"]))
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


@FUZZ
@given(path=st.one_of(st.tuples(st.just("config"), keyed(CONFIG_PATHS)),
                      st.tuples(st.just("state"), keyed(STATE_PATHS))),
       k=st.integers(0, 40))
def test_a_misspelt_key_is_refused_by_name(tmp_path_factory, path, k):
    # a key of the valid documents, misspelt, exits 2 naming the misspelling
    document, path = path
    docs = {"config": copy.deepcopy(BASE_CONFIG), "state": copy.deepcopy(BASE_STATE)}
    before, wrong = json.dumps(docs[document]), misspell(path[-1], k)
    edit(docs[document], path, ("misspell", k))
    assume(wrong != path[-1] and json.dumps(docs[document]) != before)  # the key was there
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        run(tmp_path_factory.mktemp("misspelt"), docs["config"], "flow", docs["state"], code=2)
    assert f"{wrong}: unknown key" in err.getvalue()

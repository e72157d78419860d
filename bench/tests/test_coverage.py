"""The tracer sees every traced function on a workload that reaches it, and
the traced counts match what the code implies."""

import json
from pathlib import Path

import pytest

import run
import tracer as tr
import workloads
from environment import child_env
from worker import offset_spans

BENCH = Path(__file__).resolve().parent.parent

# traced functions each workload's ops must call at least once
REACHES = {
    "landscape_sweep": {
        "geometry.tangent_basis", "fields.tangent_hessian", "fields.boundary_hessian",
        "fields.tangent_gradient", "fields.min_max", "constants.compute_constants",
        "landscape.find_critical_points", "landscape.check_assumptions",
        "census.census_report", "census.existence_check",
    },
    "region_audit": {
        "geometry.geodesic_distance", "geometry.tangent_basis", "fields.chart_data",
        "fields.tangent_gradient", "bubbles.epsilon", "bubbles.epsilon_dlambda",
        "bubbles.epsilon_da", "bubbles.build", "model.frames", "model.assemble",
        "model.vbar_budget", "model.remainder_budgets", "model.gradient_components",
        "model.grad_a", "model.normalize_alphas", "model.imbalances",
        "flow.classify_region", "flow.pseudogradient", "flow.decrease_certificate",
        "flow.gamma_quantities",
    },
    "descent_trajectories": {
        "geometry.geodesic_step", "fields.chart_data", "model.assemble",
        "flow.integrate", "flow.pseudogradient", "flow.decrease_certificate",
    },
}
REACHES["cli_session"] = (REACHES["landscape_sweep"] | REACHES["descent_trajectories"]) - {
    "model.normalize_alphas"}


@pytest.fixture(scope="module")
def installed():
    tracer = tr.Tracer()
    return tracer, tr.install(tracer)


@pytest.fixture(scope="module")
def flow_setup():
    wl = workloads.RegionAudit(0, None)
    wl.setup()
    return wl.landscapes, wl.flows


def traced_ops(tracer, wl, count):
    start = len(tracer.spans)
    for i in range(count):
        inp, _ = wl.next_input(i)
        with tracer.op(wl.pairs(inp)):
            out = wl.run_op(inp)
        assert wl.check(inp, out, None) == []
    return offset_spans(tracer.spans[start:], -start)


def calls(spans):
    out = {}
    for name, *_ in spans:
        out[name] = out.get(name, 0) + 1
    return out


def test_every_traced_name_is_expected_somewhere():
    assert set().union(*REACHES.values()) == set(tr.TRACED_NAMES)


def test_wrappers_cover_reexported_bindings(installed):
    import hemiflow
    import hemiflow.bubbles
    import hemiflow.cli
    import hemiflow.flow
    import hemiflow.model
    _, bindings = installed
    assert all(bindings[name] for name in tr.TRACED_NAMES)
    for fn in (hemiflow.model.epsilon, hemiflow.bubbles.epsilon, hemiflow.epsilon,
               hemiflow.flow.geodesic_distance, hemiflow.model.geodesic_distance,
               hemiflow.cli.find_critical_points, hemiflow.find_critical_points,
               hemiflow.model.ReducedModel.assemble, hemiflow.bubbles.ChartedBubble.build):
        assert hasattr(fn, "__wrapped_by_bench__"), fn


@pytest.mark.parametrize("name", ["landscape_sweep", "region_audit", "descent_trajectories"])
def test_in_process_workload_reaches_its_functions(name, installed, flow_setup):
    tracer, _ = installed
    wl = workloads.make(name, 0, None, None, None)
    if name == "landscape_sweep":
        wl.setup()
    else:
        wl.landscapes, wl.flows = flow_setup
    spans = traced_ops(tracer, wl, 1 if name == "landscape_sweep" else wl.cycle)
    got = calls(spans)
    missing = sorted(n for n in REACHES[name] if got.get(n, 0) < 1)
    assert not missing


def test_cli_session_reaches_its_functions(tmp_path):
    wl = workloads.CliSession(0, None, tmp_path / "cli", child_env(), traced_spans=tmp_path)
    wl.setup()
    spans = []
    for i in range(wl.cycle):
        inp, _ = wl.next_input(i)
        out = wl.run_op(inp)
        assert wl.check(inp, out, None) == []
        spans.extend(json.loads((tmp_path / f"op{i}.json").read_text()))
    got = calls(spans)
    assert got[tr.OP] == wl.cycle
    missing = sorted(n for n in REACHES["cli_session"] if got.get(n, 0) < 1)
    assert not missing


def per_op_calls(spans, name):
    """Calls of ``name`` under each op span, in op order."""
    counts = []
    owner = {}
    for i, (n, parent, *_rest) in enumerate(spans):
        if n == tr.OP:
            counts.append(0)
            owner[i] = len(counts) - 1
            continue
        owner[i] = owner[parent]
        if n == name:
            counts[owner[i]] += 1
    return counts


def test_counts_derived_from_the_code(installed, flow_setup):
    tracer, _ = installed
    wl = workloads.RegionAudit(0, None)
    wl.landscapes, wl.flows = flow_setup
    spans = traced_ops(tracer, wl, 2 * wl.cycle)
    kinds = [wl.next_input(i)[0] for i in range(2 * wl.cycle)]
    # chart_data: the centre plus two finite-difference points per chart axis
    assert tr.layer_metrics(spans)["fields.chart_data.per_frame"] == 1 + 2 * 5
    assembles = per_op_calls(spans, "model.assemble")
    for inp, count in zip(kinds, assembles):
        if inp.kind == "V4":
            # the tower sub-flow assembles twice more
            assert count == 4
        elif inp.cfg.size == 1:
            assert count == 2


def test_benchmark_json_lists_the_metrics_the_code_reports():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {f"cli.{sub}_ms" for sub in workloads.SUBCOMMANDS} <= set(run.per_layer_units())

"""Span arithmetic and parsing, on synthetic data."""

import pytest

import tracer as tr
from run import tail
from worker import parse_importtime


def span(name, parent, t0, t1, count=None):
    return (name, parent, t0, t1, count)


def test_self_time_subtracts_union_of_children():
    spans = [
        span(tr.OP, -1, 0, 100, 1),
        span("model.assemble", 0, 10, 90),
        span("model.frames", 1, 20, 50, 2),
        span("fields.chart_data", 2, 25, 30),
        span("fields.chart_data", 2, 30, 45),
        span("bubbles.epsilon", 1, 60, 70),
    ]
    assert tr.self_times(spans) == [20, 40, 10, 5, 15, 10]


def test_self_time_merges_overlapping_children():
    spans = [
        span("model.assemble", -1, 0, 100),
        span("bubbles.epsilon", 0, 10, 40),
        span("bubbles.epsilon", 0, 30, 60),
        span("bubbles.epsilon", 0, 90, 120),
    ]
    assert tr.self_times(spans)[0] == 100 - 50 - 10


def test_layer_metrics_per_op_and_derived():
    spans = [
        span(tr.OP, -1, 0, 1_000_000, 1),
        span("model.assemble", 0, 0, 800_000),
        span("model.frames", 1, 0, 500_000, 2),
    ] + [span("fields.chart_data", 2, 10 * k, 10 * k + 10) for k in range(22)] + [
        span(tr.OP, -1, 2_000_000, 3_000_000, 0),
        span("flow.integrate", 25, 2_000_000, 2_900_000, 3),
    ] + [span("model.assemble", 26, 2_000_000 + 100_000 * k, 2_000_000 + 100_000 * k + 50_000)
         for k in range(5)]
    m = tr.layer_metrics(spans)
    assert m["model.assemble.calls_per_op"] == 3.0
    assert m["fields.chart_data.calls_per_op"] == 11.0
    assert m["fields.chart_data.per_frame"] == 11.0
    assert m["model.frames.self_ms_per_op"] == pytest.approx((500_000 - 220) / 1e6 / 2)
    assert m["model.assemble.self_ms_per_op"] == pytest.approx((300_000 + 250_000) / 1e6 / 2)
    assert m["flow.integrate.steps_per_op"] == 1.5
    # 5 direct assembles, one of them the initial evaluation: 3 accepted of 4 tried
    assert m["flow.integrate.accept_ratio"] == 0.75
    assert m["flow.integrate.assemble_per_step"] == pytest.approx(5 / 3)
    assert m["bubbles.pair_evals_per_pair"] == 0.0
    assert m["geometry.geodesic_step.calls_per_op"] == 0.0


def test_tail_keeps_ten_samples_beyond():
    lat = list(range(1, 101))
    value, pct, beyond = tail(lat)
    assert (value, pct, beyond) == (90, 90.0, 10)
    assert sum(1 for x in lat if x > value) == 10
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)


def test_parse_importtime_outermost_only():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |         50 |       scipy.special._x",
        "import time:       150 |        200 |     scipy.special",
        "import time:       500 |       1000 |   hemiflow.constants",
        "import time:        10 |         10 |   hemiflow.errors",
        "import time:       100 |       1110 | hemiflow",
        "import time:        40 |         40 | hemiflow.cli",
    ])
    assert parse_importtime(text) == (1.15, 0.5)

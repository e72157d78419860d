"""Benchmark entry point.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads: landscape_sweep, region_audit, descent_trajectories, cli_session
(see BENCHMARK.json for why each was chosen).  Each is a closed loop with
one client in one process.  With ``--trace 0`` the run samples set-up in
three fresh workers, each timing its set-up and then a third of the ops,
and reports the end-to-end metrics; with ``--trace 1`` one worker runs
half the time untraced, replays the same ops traced, and reports the
per-layer metrics.  The last line of standard output is one JSON object;
the full result goes to ``.bench_out/``.  Exits 2 when the checkout has no
``src/hemiflow`` to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import environment

BENCH = Path(__file__).resolve().parent
OUT = environment.ROOT / ".bench_out"
WORKLOADS = ("landscape_sweep", "region_audit", "descent_trajectories", "cli_session")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in BENCHMARK.json order."""
    import tracer
    units = {}
    for name in tracer.TRACED_NAMES:
        units[f"{name}.calls_per_op"] = "count"
        units[f"{name}.self_ms_per_op"] = "ms"
    units.update({
        "fields.chart_data.per_frame": "count",
        "bubbles.pair_evals_per_pair": "count",
        "flow.integrate.steps_per_op": "count",
        "flow.integrate.accept_ratio": "ratio",
        "flow.integrate.assemble_per_step": "count",
        "landscape.records_per_op": "count",
        "cli.import_ms": "ms",
        "cli.import_scipy_ms": "ms",
    })
    for sub in ("constants", "critical-points", "census", "existence", "flow", "verify", "counting"):
        units[f"cli.{sub}_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


class WorkerFailed(RuntimeError):
    pass


def worker(workload, seed, mode, start, busy, align, env, deadline) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--start", str(start), "--busy", repr(busy)] + (["--align"] if align else [])
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} {mode} worker passed the deadline") from exc
    sys.stderr.write(proc.stderr[-4000:])
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} {mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies_ms):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it; the median when there are fewer than 20."""
    ordered = sorted(latencies_ms)
    count = len(ordered)
    if count < 20:
        return statistics.median(ordered), 50.0, count // 2
    return ordered[count - 11], 100.0 * (count - 10) / count, 10


def merge_checks(parts) -> dict:
    out = {}
    for part in parts:
        for name, count in part["failed_checks"].items():
            out[name] = out.get(name, 0) + count
    return out


def run_untraced(workload, seed, seconds, env, deadline):
    """Three fresh workers, each timing its set-up and then a third of the
    ops, so that the timed ops spread over the whole run."""
    parts = []
    start = 0
    busy_left = seconds
    for k in range(SETUP_SAMPLES):
        last = k == SETUP_SAMPLES - 1
        share = busy_left if last else seconds / SETUP_SAMPLES
        res = worker(workload, seed, "run", start, share, last, env, deadline)
        parts.append(res)
        start = res["next"]
        busy_left = max(busy_left - res["busy_s"], 0.0)
    latencies = [ms for p in parts for ms in p["scaled_ms"]]
    raw = [ms for p in parts for ms in p["latencies_ms"]]
    busy = sum(p["busy_s"] for p in parts)
    raw_busy = sum(p["raw_busy_s"] for p in parts)
    value, pct, beyond = tail(latencies)
    values = {
        "ops_per_s": len(latencies) / busy,
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": value,
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }
    checks = merge_checks(parts)
    failed = sum(p["failed"] for p in parts)
    if workload == "cli_session":
        mismatched = cross_run_digests(parts, environment.stamp(seed, parts[-1]))
        failed += mismatched
        if mismatched:
            checks["artifacts_identical"] = checks.get("artifacts_identical", 0) + mismatched
    detail = {"ops": len(latencies), "busy_s": busy, "tail_percentile": pct,
              "tail_samples_beyond": beyond, "ops_per_worker": [len(p["latencies_ms"]) for p in parts],
              "setup_samples_s": [p["setup_s"] for p in parts],
              "raw": {"ops_per_s": len(raw) / raw_busy, "op_p50_ms": statistics.median(raw),
                      "op_tail_ms": tail(raw)[0],
                      "setup_s": statistics.median(p["setup_raw_s"] for p in parts)}}
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return parts[-1], metrics, len(latencies), failed, checks, detail


def cross_run_digests(parts, stamp) -> int:
    """Subcommands whose artifacts differ between the workers of this run or
    from earlier runs in this checkout of the same sources and versions."""
    store = OUT / "cli_digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    key = json.dumps([stamp[k] for k in ("src_sha256", "python", "numpy", "scipy")])
    seen = known.setdefault(key, {})
    mismatched = 0
    for part in parts:
        for sub, digest in part["digests"].items():
            if seen.setdefault(sub, digest) != digest:
                mismatched += 1
    store.write_text(json.dumps(known, indent=1))
    return mismatched


def run_traced(workload, seed, seconds, env, deadline):
    res = worker(workload, seed, "trace", 0, seconds / 2.0, True, env, deadline)
    metrics = {k: {"value": res["per_layer"][k], "unit": u} for k, u in per_layer_units().items()}
    parts = (res["untraced"], res["traced"])
    ops = sum(len(p["latencies_ms"]) for p in parts)
    failed = sum(p["failed"] for p in parts)
    detail = {part: {"ops": len(res[part]["latencies_ms"]), "busy_s": res[part]["busy_s"]}
              for part in ("untraced", "traced")}
    return res, metrics, ops, failed, merge_checks(parts), detail


def measure(workload, seed, seconds, trace, env, deadline) -> dict:
    run = run_traced if trace else run_untraced
    res, metrics, ops, failed, checks, detail = run(workload, seed, seconds, env, deadline)
    return {
        "workload": workload,
        "environment": environment.stamp(seed, res),
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "fail_ratio": failed / ops,
        "failed_checks": checks,
        "detail": detail,
        "metrics": metrics,
    }


def report(result) -> None:
    print(f"== {result['workload']}")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    detail = result["detail"]
    if "tail_percentile" in detail:
        print(f"  op_tail_ms is p{detail['tail_percentile']:.2f} with "
              f"{detail['tail_samples_beyond']} samples beyond it, of {detail['ops']}")
    checks = ", ".join(f"{k}={v}" for k, v in sorted(result["failed_checks"].items())) or "none"
    print(f"  output checks: {result['attempted'] - result['failed']}/{result['attempted']} ops passed "
          f"(fail_ratio {result['fail_ratio']:.4g}); failed checks: {checks}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (environment.SRC / "hemiflow" / "__init__.py").is_file():
        print(f"no hemiflow sources under {environment.SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)
    compileall.compile_dir(str(environment.SRC), quiet=1)
    env = environment.child_env()
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(measure(name, args.seed, args.seconds, bool(args.trace), env, deadline))
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for res in results:
        report(res)
        with open(OUT / f"result-{res['workload']}-{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(res, fh, indent=1)
    if len(results) == 1:
        res = results[0]
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {r["workload"]: r["metrics"] for r in results}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

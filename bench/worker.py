"""One benchmark worker process: set-up, then a share of the ops.

Run by ``run.py``; prints one JSON object as its last line.  Modes:
  run    set-up, then ops from index --start until they took --busy seconds
         (with --align, also until the next op starts a new cycle)
  trace  set-up, whole cycles until they took --busy seconds untraced, then
         the same ops again traced; adds the per-layer metrics
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
PROBE_EVERY_S = 0.2
RAW_CAP = 1.2
REFERENCES = {"landscape_sweep": "landscape.json", "region_audit": "region.json",
              "descent_trajectories": "descent.json", "cli_session": "cli.json"}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Phase:
    """Runs ops and collects latencies (raw, and scaled to the reference
    machine speed by the probes run between ops) and failed checks."""

    def __init__(self, wl):
        self.wl = wl
        self.latencies = []
        self.scaled = []
        self.failed_checks = Counter()
        self.failed = 0
        self.busy = 0.0
        self._pending = []
        self._last_probe = None
        self._reported = False

    def probe(self):
        import calibrate  # imports numpy: never before the set-up clock starts
        now = calibrate.probe_ms()
        if self._pending:
            slowdown = 0.5 * (self._last_probe + now) / calibrate.REFERENCE_MS
            self.scaled.extend(ms / slowdown for ms in self._pending)
            self._pending = []
        self._last_probe = now

    def finish(self):
        if self._pending:
            self.probe()

    @property
    def scaled_busy(self) -> float:
        """Op time so far at the reference speed, in s; ops after the last
        probe are scaled by that probe alone."""
        pending = 0.0
        if self._pending:
            import calibrate
            pending = sum(self._pending) * calibrate.REFERENCE_MS / self._last_probe
        return (sum(self.scaled) + pending) / 1e3

    def op(self, inp, ref, tracer=None):
        from hemiflow.errors import DomainError
        if self._last_probe is None:
            self.probe()
        err = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self.wl.run_op(inp)
            else:
                with tracer.op(self.wl.pairs(inp)):
                    out = self.wl.run_op(inp)
        except DomainError as exc:
            err = f"domain_error:{type(exc).__name__}"
        except Exception as exc:  # a program defect still counts as one failed op
            err = f"exception:{type(exc).__name__}"
            if not self._reported:
                traceback.print_exc()
                self._reported = True
        dt = time.perf_counter() - t0
        self.busy += dt
        self.latencies.append(dt * 1e3)
        self._pending.append(dt * 1e3)
        failed = [err] if err else self.wl.check(inp, out, ref)
        if failed:
            self.failed += 1
            self.failed_checks.update(failed)
        if sum(self._pending) >= PROBE_EVERY_S * 1e3:
            self.probe()

    def result(self) -> dict:
        self.finish()
        return {"latencies_ms": self.latencies, "scaled_ms": self.scaled,
                "busy_s": self.scaled_busy, "raw_busy_s": self.busy,
                "failed": self.failed, "failed_checks": dict(self.failed_checks)}


def run_ops(phase, wl, start, busy, align, first, collect=None, min_cycles=1) -> int:
    """Ops from index ``start`` until they took ``busy`` seconds at the
    reference speed (or RAW_CAP times that on the clock, which bounds the
    run time on a slow machine); with ``align``, on until the next op would
    start a new cycle, and at least ``min_cycles`` cycles from index 0.
    Returns the index of the next op."""
    i = start
    while (phase.scaled_busy < busy and phase.busy < RAW_CAP * busy) or (
            align and (i % wl.cycle or i < min_cycles * wl.cycle)):
        inp, ref = first if i == start else wl.next_input(i)
        phase.op(inp, ref)
        if collect is not None:
            collect.append((inp, ref))
        i += 1
    return i


def import_times(env) -> tuple:
    """Median over three fresh interpreters of ``-X importtime`` for
    ``import hemiflow.cli``: (hemiflow total ms, scipy total ms)."""
    samples = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hemiflow.cli"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        samples.append(parse_importtime(proc.stderr))
    return (statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples))


def parse_importtime(text: str) -> tuple:
    """Sum the cumulative time of the outermost hemiflow and scipy imports."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    totals = {"hemiflow": 0, "scipy": 0}
    stack = []
    # importtime prints children before parents: walk backwards so that each
    # entry's ancestors are on the stack
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and all(n.split(".")[0] != top for _, n in stack):
            totals[top] += cumulative
        stack.append((depth, name))
    return totals["hemiflow"] / 1e3, totals["scipy"] / 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=tuple(REFERENCES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "trace"), required=True)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--busy", type=float, required=True)
    ap.add_argument("--align", action="store_true")
    args = ap.parse_args(argv)
    with open(Path(__file__).resolve().parent / "reference" / REFERENCES[args.workload]) as fh:
        reference = json.load(fh)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(args, reference, dict(os.environ), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def timed_setup(args, reference, env, workdir):
    """(workload, first input, raw set-up s, scaled set-up s).  The clock
    covers the imports and each set-up step; the speed probes between the
    steps are left out, and each step is scaled by the probes around it."""
    t0 = time.perf_counter()
    import hemiflow  # noqa: F401  -- the set-up clock starts here
    import workloads
    wl = workloads.make(args.workload, args.seed, reference, workdir / "cli", env)
    segments = [time.perf_counter() - t0]
    import calibrate
    probes = [calibrate.probe_ms()] * 2
    for step in wl.setup_steps() + [lambda: wl.next_input(args.start)]:
        t0 = time.perf_counter()
        out = step()
        segments.append(time.perf_counter() - t0)
        probes.append(calibrate.probe_ms())
    scaled = sum(dt * 2.0 * calibrate.REFERENCE_MS / (p0 + p1)
                 for dt, p0, p1 in zip(segments, probes, probes[1:]))
    return wl, out, sum(segments), scaled


def measure(args, reference, env, workdir) -> dict:
    wl, first, setup_raw, setup_scaled = timed_setup(args, reference, env, workdir)
    import numpy
    import scipy
    result = {"setup_raw_s": setup_raw, "setup_s": setup_scaled,
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    is_cli = args.workload == "cli_session"
    if args.mode == "run":
        phase = Phase(wl)
        result["next"] = run_ops(phase, wl, args.start, args.busy, args.align, first,
                                 min_cycles=wl.min_cycles)
        result.update(phase.result())
        result["peak_rss_mb"] = peak_rss_mb(is_cli)
        if is_cli:
            result["digests"] = wl.digests
        return result

    import tracer as tr
    import workloads
    plain = Phase(wl)
    replay = []
    run_ops(plain, wl, args.start, args.busy, True, first, collect=replay)
    traced = Phase(wl)
    if is_cli:
        spans_dir = workdir / "spans"
        spans_dir.mkdir(parents=True)
        wl.traced_spans = spans_dir
        for inp, ref in replay:
            traced.op(inp, ref)
        spans = []
        for path in sorted(spans_dir.iterdir()):
            with open(path) as fh:
                spans.extend(offset_spans(json.load(fh), len(spans)))
    else:
        tracer = tr.Tracer()
        tr.install(tracer)
        for inp, ref in replay:
            traced.op(inp, ref, tracer)
        spans = tracer.spans
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
        json.dump(spans, fh, separators=(",", ":"))
    plain_res, traced_res = plain.result(), traced.result()
    # per-layer times at the reference speed of the traced phase
    scale = sum(traced_res["scaled_ms"]) / sum(traced_res["latencies_ms"])
    layers = {k: v * scale if k.endswith("_ms_per_op") else v
              for k, v in tr.layer_metrics(spans).items()}
    layers["trace.overhead_ratio"] = traced_res["busy_s"] / plain_res["busy_s"]
    layers["cli.import_ms"], layers["cli.import_scipy_ms"] = import_times(env)
    for sub in workloads.SUBCOMMANDS:
        mine = [ms for (inp, _), ms in zip(replay, plain_res["scaled_ms"]) if is_cli and inp[1] == sub]
        layers[f"cli.{sub}_ms"] = statistics.median(mine) if mine else 0.0
    result["untraced"] = plain_res
    result["traced"] = traced_res
    result["per_layer"] = layers
    return result


def offset_spans(spans, base: int) -> list:
    """Re-index one process's spans to follow ``base`` earlier spans."""
    return [(name, parent + base if parent >= 0 else -1, t0, t1, count)
            for name, parent, t0, t1, count in spans]


if __name__ == "__main__":
    sys.exit(main())

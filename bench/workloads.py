"""The four workloads: set-up, one op, and the output checks of each op.

An op is one unit of a workload's work.  ``run_op`` is the only timed call;
input generation and checks happen outside the clock.  ``check`` returns
the names of the failed checks (empty when the op is correct).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
# call module-level functions through their modules, so that the tracer's
# wrappers installed on those modules see the calls
from hemiflow import census, constants, landscape
from hemiflow.flow import FlowParams, PseudogradientFlow
from hemiflow.model import ReducedModel

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"

SEEDS_PER_DIM = 10        # the CLI default
LANDSCAPE_SEED = 20240    # the CLI default configuration seed
GRID_DENSITY = 12         # the CLI default
MASS_MAX = 4
QUAD_TOL = 1e-8
DESCENT_T_MAX = 2.0
REF_REL, REF_ABS = 1e-9, 1e-12


def close(a: float, b: float, rel: float = REF_REL, abs_: float = REF_ABS) -> bool:
    return abs(a - b) <= abs_ + rel * abs(b)


def bar_ok(bar) -> bool:
    return math.isfinite(bar.center) and math.isfinite(bar.halfwidth) and bar.halfwidth >= 0.0


class Workload:
    name = ""
    kinds: tuple = ()
    pool_size = 0
    key_base = 0
    min_cycles = 1     # timed runs cover at least this many whole cycles

    def __init__(self, seed: int, reference):
        self.seed = seed
        self.reference = reference

    @property
    def cycle(self) -> int:
        return len(self.kinds)

    def setup(self) -> None:
        for step in self.setup_steps():
            step()

    def setup_steps(self) -> list:
        """The set-up as a list of calls, so that the worker can probe the
        machine speed between them."""
        raise NotImplementedError

    def next_input(self, i: int):
        """(input, reference summary or None) of op i.  Kinds go round-robin,
        so op i is the (i // cycle)-th draw of kind i % cycle."""
        k = i % self.cycle
        stream, index = inputs.draw_key(self.seed, self.kind_key(k), i // self.cycle, self.pool_size)
        ref = None
        if stream == inputs.POOL_STREAM and self.reference is not None:
            ref = self.reference[k][index]
        return self.make_input(k, stream, index), ref

    def kind_key(self, k: int) -> int:
        """Seeds the generator of kind k; distinct across workloads."""
        return self.key_base + k

    def make_input(self, k: int, stream: int, index: int):
        raise NotImplementedError

    def pairs(self, inp) -> int:
        return 0

    def run_op(self, inp):
        raise NotImplementedError

    def summary(self, inp, out) -> dict:
        """The part of the output pinned by the reference."""
        raise NotImplementedError

    def check(self, inp, out, ref) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# landscape_sweep
# ---------------------------------------------------------------------------

class LandscapeSweep(Workload):
    """One random degree-2 field per op, n cycling over 5, 6, 7, through the
    landscape search, the assumption report, the extrema, census and verdicts."""

    name = "landscape_sweep"
    kinds = (5, 6, 7)
    pool_size = 12
    min_cycles = 2     # two ops of each n, so that the median is an n = 6 op

    def setup_steps(self):
        return [lambda n=n: constants.compute_constants(n, QUAD_TOL) for n in self.kinds]

    def make_input(self, k, stream, index):
        n = self.kinds[k]
        return n, inputs.random_field(inputs.rng_for(stream, self.kind_key(k), index), n)

    def run_op(self, inp):
        n, K = inp
        records = landscape.find_critical_points(K, SEEDS_PER_DIM, seed=LANDSCAPE_SEED)
        report = landscape.check_assumptions(records, K)
        kmin, kmax = K.min_max(GRID_DENSITY)
        table = constants.compute_constants(n, QUAD_TOL)
        doc = census.census_report(records, report, kmin, kmax, table.s_n, n, mass_max=MASS_MAX)
        verdict, _ = census.existence_check(records, report, kmin, kmax, n)
        return records, doc, verdict

    def summary(self, inp, out):
        records, doc, verdict = out
        return {
            "records": [[r.kind, r.morse_index, r.classification,
                         [float(c) for c in r.location.coords], r.value] for r in records],
            "census_entries": len(doc["census"]),
            "verdict": [verdict.theorem, verdict.conclusion],
        }

    def check(self, inp, out, ref):
        n, _ = inp
        records = out[0]
        failed = []
        if landscape.poincare_hopf_boundary(records, n) != 1 + (-1) ** (n - 1):
            failed.append("poincare_hopf")
        if ref is not None and not self.matches(self.summary(inp, out), ref):
            failed.append("reference")
        return failed

    @staticmethod
    def matches(got, ref) -> bool:
        if (got["census_entries"], got["verdict"]) != (ref["census_entries"], ref["verdict"]):
            return False
        if len(got["records"]) != len(ref["records"]):
            return False
        for g, r in zip(got["records"], ref["records"]):
            if g[:3] != r[:3] or not close(g[4], r[4], 1e-9, 1e-9):
                return False
            if max(abs(a - b) for a, b in zip(g[3], r[3])) > 1e-7:
                return False
        return True


# ---------------------------------------------------------------------------
# region_audit and descent_trajectories
# ---------------------------------------------------------------------------

class FlowWorkload(Workload):
    """Shared set-up: the four fixed n = 5 fields, their models and landscapes."""

    def setup_steps(self):
        self.landscapes = {}
        self.flows = {}
        steps = [lambda key=key, K=K: self.add_flow(key, K) for key, K in inputs.fixed_fields().items()]
        return steps + [self.add_mass3_flow]

    def add_flow(self, key, K):
        model = ReducedModel(K, constants.compute_constants(K.n, QUAD_TOL))
        records = landscape.find_critical_points(K, SEEDS_PER_DIM, seed=LANDSCAPE_SEED)
        self.landscapes[key] = records
        self.flows[key] = PseudogradientFlow(model, records, FlowParams())

    def add_mass3_flow(self):
        diag = self.flows["diag"]
        self.flows["diag_mass3"] = PseudogradientFlow(diag.model, diag.records, FlowParams.for_mass(3))

    def make_input(self, k, stream, index):
        return self.kinds[k](inputs.rng_for(stream, self.kind_key(k), index), self.landscapes)

    def pairs(self, inp):
        m = inp.cfg.size
        return m * (m - 1) // 2

    def start(self, inp):
        flow = self.flows[inp.setup]
        cfg = flow.model.normalize_alphas(inp.cfg)
        if inp.alpha_factor != 1.0:
            cfg = cfg.replace(alphas=(cfg.alphas[0] * inp.alpha_factor,) + tuple(cfg.alphas[1:]))
        return flow, cfg


class RegionAudit(FlowWorkload):
    """Independent states drawn round-robin from the region generators; each
    is assembled, classified, given its descent field, gradients and
    decrease certificate."""

    name = "region_audit"
    kinds = inputs.REGION_KINDS
    # about one run's worth of ops per kind, as for descent_trajectories:
    # the slow tail is a handful of tower states, and a fixed pool keeps it
    # from depending on which of them a seed draws
    pool_size = 128
    key_base = 100

    def run_op(self, inp):
        flow, cfg = self.start(inp)
        asm = flow.model.assemble(cfg)
        label = flow.classify_region(cfg, asm)
        vel = flow.pseudogradient(cfg, label, asm)
        grads = flow.model.gradient_components(cfg, asm)
        cert = flow.decrease_certificate(cfg, vel)
        return asm, label, vel, grads, cert

    def summary(self, inp, out):
        asm, label = out[0], out[1]
        return {"tag": label.tag, "j": asm.j_center}

    def check(self, inp, out, ref):
        asm, label, vel, grads, cert = out
        failed = []
        if "W" not in label.weights and not np.all(vel.loglam_dot <= 1e-15):
            failed.append("rate_sign")
        bars = [asm.j_bar, cert["lhs"], *grads.alpha_pairings, *grads.lam_pairings]
        if not all(bar_ok(b) for b in bars) or not all(
                np.all(np.isfinite(v)) and math.isfinite(w) and w >= 0.0 for v, w in grads.a_pairings):
            failed.append("bar_finite")
        if ref is not None and (ref["tag"] != label.tag or not close(asm.j_center, ref["j"])):
            failed.append("reference")
        return failed


class DescentTrajectories(FlowWorkload):
    """One descent integration per op, with a decrease certificate at every
    recorded point (as ``flow --certificates``)."""

    name = "descent_trajectories"
    kinds = inputs.DESCENT_KINDS
    # about one run's worth of ops: every run evaluates nearly the same
    # states, so the median of this strongly mixed workload stays put
    pool_size = 24
    key_base = 200
    reasons = ("t_max", "stagnation", "neighborhood_exit")

    def run_op(self, inp):
        flow, cfg = self.start(inp)
        traj = flow.integrate(cfg, DESCENT_T_MAX)
        certs = [flow.decrease_certificate(pt.cfg) for pt in traj.points]
        return traj, certs

    def summary(self, inp, out):
        traj = out[0]
        return {"reason": traj.reason, "points": len(traj.points),
                "j0": traj.points[0].j_value.center, "j_end": traj.points[-1].j_value.center}

    def check(self, inp, out, ref):
        traj, certs = out
        pts = traj.points
        failed = []
        if any(b.t <= a.t for a, b in zip(pts, pts[1:])):
            failed.append("time_increasing")
        for a, b in zip(pts, pts[1:]):
            # the integrator's own acceptance slack
            slack = max(1e-10, 0.5 * (a.j_value.halfwidth + b.j_value.halfwidth) * 1e-3)
            if b.j_value.center > a.j_value.center + slack:
                failed.append("descent")
                break
        if traj.reason not in self.reasons:
            failed.append("stop_reason")
        if not all(bar_ok(p.j_value) for p in pts) or not all(bar_ok(c["lhs"]) for c in certs):
            failed.append("bar_finite")
        if ref is not None:
            got = self.summary(inp, out)
            if (got["reason"], got["points"]) != (ref["reason"], ref["points"]) \
                    or not close(got["j0"], ref["j0"]) or not close(got["j_end"], ref["j_end"]):
                failed.append("reference")
        return failed


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

README_CONFIG = {
    "dimension": 5,
    "field": {"kappa0": 1.0, "terms": [
        {"monomial": "x1^2", "coeff": 0.05},
        {"monomial": "x2^2", "coeff": 0.01},
        {"monomial": "x3^2", "coeff": 0.015},
        {"monomial": "x4^2", "coeff": 0.02},
        {"monomial": "x5^2", "coeff": 0.025},
        {"monomial": "x6^2", "coeff": 0.06},
    ]},
    "quadrature_tol": 1e-8,
    "seeds_per_dim": 10,
    "seed": 20240,
    "mass_max": 4,
    "flow": {"M0": 1e4, "M2": 10, "M4": 1e3, "eta": 0.1, "eps": 0.1},
    "output_dir": "out",
}
README_STATE = {"q": 1, "p": 0, "eps": 0.1,
                "bubbles": [{"alpha": 0.05, "point": [1, 0, 0, 0, 0, 0], "lambda": 80.0}]}

SUBCOMMANDS = {
    "constants": ["--config", "{cfg}", "constants"],
    "critical-points": ["--config", "{cfg}", "critical-points"],
    "census": ["--config", "{cfg}", "census"],
    "existence": ["--config", "{cfg}", "existence"],
    "flow": ["--config", "{cfg}", "flow", "--state", "{state}", "--t-max", "5", "--certificates"],
    "verify": ["--config", "{cfg}", "verify", "--suite", "all"],
    "counting": ["counting", "--indices", "4,4,3", "--A", "--out", "{out}/counting.json"],
}
# artifact fields left unpinned: bar halfwidths may legitimately tighten
UNPINNED = re.compile(r"halfwidth|satisfied")
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf")


class CliSession(Workload):
    """One fresh ``python -m hemiflow.cli`` process per op, cycling through
    the subcommands on the README configuration and state."""

    name = "cli_session"
    kinds = tuple(SUBCOMMANDS)
    min_cycles = 2     # the median is then the mean of two CLI ops, not one
    child_timeout = 120.0

    def __init__(self, seed, reference, workdir: Path, env: dict, traced_spans: Path | None = None):
        super().__init__(seed, reference)
        self.workdir = workdir
        self.env = env
        self.traced_spans = traced_spans
        self.digests = {}
        self.offset = seed % len(self.kinds)

    def setup_steps(self):
        return [lambda: constants.compute_constants(README_CONFIG["dimension"], README_CONFIG["quadrature_tol"]),
                self.write_inputs]
    def write_inputs(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.cfg_path = self.workdir / "config.json"
        self.state_path = self.workdir / "state.json"
        self.cfg_path.write_text(json.dumps(README_CONFIG))
        self.state_path.write_text(json.dumps(README_STATE))

    def next_input(self, i):
        sub = self.kinds[(self.offset + i) % len(self.kinds)]
        out = self.workdir / f"op{i}"
        args = [a.format(cfg=self.cfg_path, state=self.state_path, out=out) for a in SUBCOMMANDS[sub]]
        if sub != "counting":
            args = ["--output-dir", str(out)] + args
        ref = self.reference[sub] if self.reference is not None else None
        return (i, sub, out, args), ref

    def command(self, i, args):
        if self.traced_spans is None:
            return [sys.executable, "-m", "hemiflow.cli", *args]
        return [sys.executable, str(BENCH / "cli_child.py"), str(self.traced_spans / f"op{i}.json"), *args]

    def run_op(self, inp):
        i, sub, out, args = inp
        out.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(self.command(i, args), cwd=self.workdir, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=self.child_timeout)
        return proc.returncode, proc.stderr

    def artifacts(self, out: Path) -> dict:
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def summary(self, inp, out):
        return {name: parse_artifact(name, data) for name, data in self.artifacts(inp[2]).items()}

    def check(self, inp, out, ref):
        _, sub, path, _ = inp
        rc, stderr = out
        failed = []
        if rc != 0:
            failed.append("exit_code")
            sys.stderr.write(stderr.decode(errors="replace")[-2000:])
        else:
            files = self.artifacts(path)
            digest = hashlib.sha256(b"".join(
                name.encode() + b"\0" + data for name, data in files.items())).hexdigest()
            if self.digests.setdefault(sub, digest) != digest:
                failed.append("artifacts_identical")
            if ref is not None and not same_doc(self.summary(inp, out), ref):
                failed.append("reference")
        shutil.rmtree(path, ignore_errors=True)
        return failed


def parse_artifact(name: str, data: bytes):
    text = data.decode()
    if name.endswith(".json"):
        return json.loads(text)
    if name.endswith(".csv"):
        lines = text.splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, row.split(","))) for row in lines[1:]]
    return text


def same_doc(got, ref, key: str = "") -> bool:
    """Structural equality with numbers compared to 1e-9; fields named by
    UNPINNED are skipped; numbers inside strings are compared as numbers."""
    if UNPINNED.search(key):
        return True
    if isinstance(ref, dict):
        return isinstance(got, dict) and got.keys() == ref.keys() and all(
            same_doc(got[k], ref[k], k) for k in ref)
    if isinstance(ref, list):
        return isinstance(got, list) and len(got) == len(ref) and all(
            same_doc(g, r, key) for g, r in zip(got, ref))
    if isinstance(ref, bool) or ref is None:
        return got == ref
    if isinstance(ref, (int, float)):
        return isinstance(got, (int, float)) and not isinstance(got, bool) and close(got, ref, 1e-9, 1e-9)
    if isinstance(ref, str):
        g_num, r_num = NUMBER.findall(got), NUMBER.findall(ref)
        return (NUMBER.sub("#", got) == NUMBER.sub("#", ref) and len(g_num) == len(r_num)
                and all(close(float(a), float(b), 1e-9, 1e-9) for a, b in zip(g_num, r_num)))
    return got == ref


def make(name: str, seed: int, reference, workdir: Path, env: dict, traced_spans=None) -> Workload:
    if name == CliSession.name:
        return CliSession(seed, reference, workdir, env, traced_spans)
    return {w.name: w for w in (LandscapeSweep, RegionAudit, DescentTrajectories)}[name](seed, reference)


WORKLOADS = (LandscapeSweep.name, RegionAudit.name, DescentTrajectories.name, CliSession.name)

"""Command-line front end.

Subcommands: constants, critical-points, census, counting, existence, flow,
verify.  All outputs are deterministic given the configuration file and its
seed; machine-readable JSON/CSV artifacts embed the constants-table version
and the reproducibility stamp.

Exit codes: 0 success, 1 domain error, 2 configuration error.

Each subcommand imports the layers it runs when it runs, so a process loads
only those: the census for census, existence and counting, the model and
the flow for flow.  ``counting`` without ``--config``, ``constants`` and a
configuration refused with exit code 2 load neither numpy nor ``inspect``.
No hemiflow module imports ``dataclasses`` (see ``hemiflow.record``), so
no subcommand compiles generated methods at import.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, DomainError

if TYPE_CHECKING:
    from .config import RunConfig

# the layer names this module runs stay reachable as its attributes
# (``hemiflow.cli.find_critical_points``), imported on first access (PEP 562)
_LAYER_OF = {"RunConfig": "config", "check_assumptions": "landscape", "classify": "landscape",
             "find_critical_points": "landscape", "hemisphere_index_tally": "landscape",
             "poincare_hopf_boundary": "landscape", "save_records": "landscape"}


def __getattr__(name):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAYER_OF[name]}", __package__), name)


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _stamped(cfg: RunConfig, table, payload: dict) -> dict:
    doc = {"config": cfg.stamp(), "constants_version": table.version}
    doc.update(payload)
    return doc


def _constants(cfg: RunConfig):
    from . import constants as constants_mod
    return constants_mod.compute_constants(cfg.n, cfg.quadrature_tol)


def _landscape(cfg: RunConfig):
    """The field and its critical points.  Callers compute the constants
    first: they refuse a dimension beyond their range before the field
    allocates its (n+1)-sized coefficients."""
    from .landscape import find_critical_points
    K = cfg.build_field()
    return K, find_critical_points(K)


def _pipeline(cfg: RunConfig):
    """The constants, the landscape and its assumption report."""
    from .landscape import check_assumptions
    table = _constants(cfg)
    K, records = _landscape(cfg)
    return K, table, records, check_assumptions(records, K)


def cmd_constants(cfg: RunConfig, args) -> int:
    from . import constants as constants_mod
    table = _constants(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    constants_mod.save_report(table, out / "constants.json", out / "constants.txt")
    print(table.report_text())
    return 0


def cmd_critical_points(cfg: RunConfig, args) -> int:
    from .landscape import (classify, hemisphere_index_tally, poincare_hopf_boundary,
                            save_records)
    K, table, records, report = _pipeline(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_records(records, out / "critical_points.json")
    families = classify(records)
    doc = _stamped(cfg, table, {
        "records": [r.to_json() for r in records],
        "families": {k: len(v) for k, v in families.items()},
        "assumptions": report.to_json(),
        "boundary_index_sum": poincare_hopf_boundary(records, cfg.n),
        "interior_index_tally": hemisphere_index_tally(records),
    })
    _write_json(out / "landscape.json", doc)
    print(f"{len(records)} critical points; families: "
          f"{ {k: len(v) for k, v in families.items()} }")
    print(f"assumptions: H1={report.h1} H2={report.h2} H3={report.h3}")
    return 0


def cmd_census(cfg: RunConfig, args) -> int:
    from . import census as census_mod
    K, table, records, report = _pipeline(cfg)
    kmin, kmax = K.min_max()
    doc = census_mod.census_report(records, report, kmin, kmax, table.s_n, cfg.n,
                                   mass_max=cfg.mass_max)
    out = Path(cfg.output_dir)
    _write_json(out / "census.json", _stamped(cfg, table, doc))
    print(f"census entries: {len(doc['census'])}; "
          f"A = {doc['A']}, B = {doc['B']}; verdict: {doc['verdict']['conclusion']}")
    return 0


def cmd_counting(cfg_or_none, args) -> int:
    from . import census as census_mod
    try:
        indices = [int(t) for t in args.indices.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--indices must be comma-separated integers: {exc}") from exc
    doc = {}
    if args.A:
        a = census_mod.counting_A(indices)
        doc["A"] = list(a)
        print(f"A1..A4 = {a}")
    if args.B or not args.A:
        b = census_mod.counting_B(indices)
        doc["B"] = list(b)
        print(f"B1, B2 = {b}")
    if args.out:
        _write_json(Path(args.out), doc)
    return 0


def cmd_existence(cfg: RunConfig, args) -> int:
    from . import census as census_mod
    K, table, records, report = _pipeline(cfg)
    kmin, kmax = K.min_max()
    verdict, table_v = census_mod.existence_check(records, report, kmin, kmax, cfg.n)
    doc = _stamped(cfg, table, {
        "pinch": kmax / kmin,
        "K_min": kmin, "K_max": kmax,
        "verdict": verdict.to_json(),
        "theorems": {k: v.to_json() for k, v in table_v.items()},
        "assumptions": report.to_json(),
    })
    out = Path(cfg.output_dir)
    _write_json(out / "existence.json", doc)
    print(f"pinch = {kmax / kmin:.6f}; verdict: {verdict.theorem}: {verdict.conclusion}")
    return 0


def cmd_flow(cfg: RunConfig, args) -> int:
    if not (math.isfinite(args.t_max) and args.t_max >= 0.0):
        raise ConfigError(f"--t-max must be finite and not negative, got {args.t_max}")
    from .config import read_state
    table = _constants(cfg)
    # the state before the landscape, so that a malformed one is refused at once
    try:
        state_doc = json.loads(Path(args.state).read_text())
    except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read state file {args.state}: {exc}") from exc
    state = read_state(state_doc, f"state file {args.state}", cfg.n)
    from .flow import PseudogradientFlow
    from .model import ReducedModel
    K, records = _landscape(cfg)
    flow = PseudogradientFlow(ReducedModel(K, table), records, cfg.flow)
    traj = flow.integrate(state, args.t_max)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = traj.csv_rows()
    csv_path = out / "trajectory.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    _write_json(out / "trajectory_meta.json", _stamped(cfg, table, {
        "states": len(traj.points), "stop_reason": traj.reason}))
    if args.certificates:
        certs = []
        for pt in traj.points:
            c = flow.decrease_certificate(pt.cfg)
            certs.append({"t": pt.t, "satisfied": c["satisfied"],
                          "lhs_center": c["lhs"].center, "lhs_halfwidth": c["lhs"].halfwidth,
                          "rhs_lower_bound": c["rhs_lower_bound"]})
        _write_json(out / "certificates.json", _stamped(cfg, table, {"certificates": certs}))
    print(f"trajectory: {len(traj.points)} states, stop reason: {traj.reason}; "
          f"J: {traj.points[0].j_value.center:.6f} -> {traj.points[-1].j_value.center:.6f}")
    if traj.detail:
        print(f"stop detail: {traj.detail}", file=sys.stderr)
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    from . import verify as verify_mod
    table = _constants(cfg)   # first: a dimension beyond range prints no suite line
    suites = verify_mod.available_suites()
    chosen = args.suite if args.suite != "all" else list(suites)
    if isinstance(chosen, str):
        chosen = [chosen]
    ok = True
    results = {}
    for name in chosen:
        if name not in suites:
            raise ConfigError(f"unknown suite {name!r}; available: {sorted(suites)}")
        passed, detail = suites[name](cfg)
        results[name] = {"passed": passed, "detail": detail}
        print(f"suite {name}: {'PASS' if passed else 'FAIL'} ({detail})")
        ok = ok and passed
    _write_json(Path(cfg.output_dir) / "verify.json", _stamped(cfg, table, results))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hemiflow",
        description="bubble calculus, landscape census and descent flow on the half-sphere")
    parser.add_argument("--config", help="JSON run configuration", default=None)
    parser.add_argument("--output-dir", help="override the output directory", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("constants", help="compute and report the expansion constants")
    sub.add_parser("critical-points", help="locate and classify the landscape")
    sub.add_parser("census", help="enumerate admissible collections with levels and indices")
    sub.add_parser("existence", help="evaluate the combinatorial existence tests")

    pc = sub.add_parser("counting", help="alternating subset sums for raw index lists")
    pc.add_argument("--indices", required=True, help="comma-separated integers")
    pc.add_argument("--A", action="store_true", help="report the size-1..4 sums")
    pc.add_argument("--B", action="store_true", help="report the size-1..2 sums")
    pc.add_argument("--out", default=None)

    pf = sub.add_parser("flow", help="integrate the descent field from a state file")
    pf.add_argument("--state", required=True, help="JSON configuration-state file")
    pf.add_argument("--t-max", type=float, default=5.0, help="finite, not negative")
    pf.add_argument("--certificates", action="store_true")

    pv = sub.add_parser("verify", help="run the oracle suites")
    pv.add_argument("--suite", default="all")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    needs_config = args.command not in ("counting",)
    cfg = None
    try:
        if args.config is not None:
            from .config import RunConfig
            cfg = RunConfig.load(args.config)
        elif needs_config:
            raise ConfigError("--config is required for this subcommand")
        if cfg is not None and args.output_dir:
            cfg.output_dir = args.output_dir
        handler = {
            "constants": cmd_constants,
            "critical-points": cmd_critical_points,
            "census": cmd_census,
            "counting": cmd_counting,
            "existence": cmd_existence,
            "flow": cmd_flow,
            "verify": cmd_verify,
        }[args.command]
        return handler(cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

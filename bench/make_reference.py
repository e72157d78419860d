"""Regenerate the reference outputs in ``reference/``.

    PYTHONPATH=src python3 bench/make_reference.py [workload ...]

Runs every pool input of each workload once through the same op and
checks as the timed runs, and writes the pinned part of each output.
Refuses to write a file when any op fails a check.  Regenerate only in a
change that alters the program's outputs on purpose, and say so there.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import inputs
import workloads
from environment import child_env
from worker import REFERENCES


def pool_summaries(wl) -> list:
    out = []
    for k in range(wl.cycle):
        rows = []
        for index in range(wl.pool_size):
            inp = wl.make_input(k, inputs.POOL_STREAM, index)
            res = wl.run_op(inp)
            failed = wl.check(inp, res, None)
            if failed:
                raise SystemExit(f"{wl.name} kind {k} input {index}: failed {failed}")
            rows.append(wl.summary(inp, res))
        out.append(rows)
    return out


def cli_summaries(wl) -> dict:
    out = {}
    for i in range(wl.cycle):
        inp, _ = wl.next_input(i)
        res = wl.run_op(inp)
        out[inp[1]] = wl.summary(inp, res)
        failed = wl.check(inp, res, None)
        if failed:
            raise SystemExit(f"cli_session {inp[1]}: failed {failed}")
    return out


def main(names) -> int:
    root = Path(__file__).resolve().parent.parent
    for name in names or workloads.WORKLOADS:
        wl = workloads.make(name, 0, None, root / ".bench_out" / "reference-cli", child_env())
        wl.setup()
        doc = cli_summaries(wl) if name == "cli_session" else pool_summaries(wl)
        with open(workloads.REFERENCE / REFERENCES[name], "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: wrote {REFERENCES[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Traced CLI process: ``cli_child.py SPANS_PATH ARGS...``.

Installs the tracer, runs ``hemiflow.cli.main(ARGS)`` as one op, writes the
spans to SPANS_PATH and exits with the CLI's exit code.
"""

import sys

import tracer as tr


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import hemiflow.cli
    tracer = tr.Tracer()
    tr.install(tracer)
    with tracer.op(0):
        code = hemiflow.cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())

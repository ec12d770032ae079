"""Run the xdeficit CLI with the layer tracer installed and write its spans.

    python perfbench/cli_shim.py SPANS_PATH OP_ID <xdeficit command and arguments>

The spans of this one process go to SPANS_PATH (see ``Tracer.dump``), tagged
with the benchmark operation OP_ID; the exit code is the CLI's.
"""

import sys

import tracing


def main() -> int:
    spans, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.current_op = op
    import xdeficit.cli

    try:
        return xdeficit.cli.main(argv)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main())

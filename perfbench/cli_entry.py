"""Runs the ``mtunmix`` command with its layers traced.

    python3 perfbench/cli_entry.py SPANS_OUT FIRST_SPAN_ID <mtunmix arguments>

The wrappers go in before ``mtunmix.cli.main`` runs and the spans are written
to SPANS_OUT when it returns. The exit code is the command's.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    spans_path, first_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import mtunmix.cli

    from perfbench import tracing

    tracer = tracing.Tracer(default_op=argv[0], first_id=first_id)
    inst = tracing.install(tracer, tracing.LIBRARY_TARGETS + tracing.CLI_TARGETS)
    try:
        return tracer.call("cli.main", mtunmix.cli.main, (argv,), {})
    finally:
        inst.remove()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

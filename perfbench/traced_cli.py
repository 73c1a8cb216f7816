"""Run one ballbound CLI command with layer tracing, then write its spans.

Usage: python perfbench/traced_cli.py OP_ID SPANS_JSON ARG...

ARG... are the arguments of ``python -m ballbound.cli``.  The exit code is
the CLI's.  SIGTERM (sent when the op's time is up) unwinds the command
through the tracing wrappers, the spans are still written, and the exit code
is 124.
"""
import json
import signal
import sys
import time

from tracing import OpTimeout, Tracer, scipy_module_count

TIMEOUT_EXIT = 124


def _expire(signum, frame):
    raise OpTimeout()


def main() -> int:
    op, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(op)
    signal.signal(signal.SIGTERM, _expire)
    code = TIMEOUT_EXIT
    try:
        start = time.perf_counter()
        import ballbound.cli

        tracer.add_span("import", start, time.perf_counter())
        tracer.counts["import.scipy_modules"] = scipy_module_count()
        tracer.install()
        code = ballbound.cli.main(argv)
    except OpTimeout:
        pass
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.record(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

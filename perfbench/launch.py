"""Start ``repro serve`` for the benchmark, optionally with layer spans.

    python3 perfbench/launch.py [--trace-out FILE] serve MajorityVote DS1 ...

Everything after the optional ``--trace-out FILE`` is passed to
``repro.cli.main``.  With ``--trace-out``, the wrappers of
``layers.py`` are installed before the server starts, and when it exits
(SIGTERM drains it) the spans, counters and per-ticket timeline are
written to FILE as JSON, together with the moment ``repro.cli`` finished
importing.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    import repro.cli

    imported_at = time.perf_counter()
    tracer = None
    if trace_out is not None:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    try:
        return repro.cli.main(argv)
    finally:
        if tracer is not None:
            payload = {
                "imported_at": imported_at,
                "spans": tracer.spans,
                "counts": tracer.counts,
                "tickets": {str(k): v for k, v in tracer.tickets.items()},
            }
            partial = f"{trace_out}.partial"
            with open(partial, "w") as handle:
                json.dump(payload, handle)
            os.replace(partial, trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""``tlp-aserve`` with the tlpbench layer wrappers installed.

Usage::

    PYTHONPATH=src python3 benchmarks/tlpbench/serve_traced.py TRACE.json [tlp-aserve args...]

Installs the same wrappers as a traced worker, runs
``repro.service.aserver.server.main`` on the remaining arguments, and when
the server has drained writes the spans to ``TRACE.json``.  Each request's
spans belong to the op named by its ``"id"``.
"""

from __future__ import annotations

import sys

import spans
from worker import process_gauges


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    from repro.service.aserver import server

    status = server.main(argv)
    tracer.dump(trace_out, {"process_gauges": process_gauges()})
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Launch ``repro serve`` for the ``stream`` workload, optionally traced.

Usage: ``python3 e2ebench/serve_child.py [--trace-out FILE] serve ...``

With ``--trace-out`` the benchmark's layer wrappers are installed in
this process before the service starts, and the recorded spans are
written to FILE when the service shuts down.  The last stdout line is
``peak_rss_kb <n>``, this process's peak resident set size.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    from repro.cli import main as repro_main

    tracer = None
    if trace_out is not None:
        from tracing import Tracer

        tracer = Tracer().install()
    try:
        rc = repro_main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(trace_out)
    print(f"peak_rss_kb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}",
          flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

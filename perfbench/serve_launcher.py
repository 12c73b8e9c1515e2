"""Start the serve daemon with the benchmark's timing shims installed.

    PYTHONPATH=src python3 perfbench/serve_launcher.py TRACE_OUT -- ARGS

installs the shims from ``spans.py`` and then calls the daemon's own
``main(ARGS)``, exactly as ``python -m repro.serve ARGS`` would.  On
SIGINT the daemon shuts down and the spans are written to TRACE_OUT.
"""

from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    trace_out, separator, *daemon_args = argv
    if separator != "--":
        print(__doc__, file=sys.stderr)
        return 2
    recorder = spans.Recorder()
    spans.install(recorder, serve=True)
    from repro.serve.__main__ import main as serve_main
    try:
        return serve_main(daemon_args)
    finally:
        recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run the bivarseq command line with per-layer tracing.

    python3 perfbench/cli_entry.py SPANS_FILE [bivarseq arguments ...]

Installs the benchmark's span wrappers, runs ``bivarseq.cli_monitor.main``
with the remaining arguments and writes the spans to SPANS_FILE on exit.
The exit code is the one ``main`` returns.
"""

import sys

from tracing import Tracer

if __name__ == "__main__":
    spans_file, argv = sys.argv[1], sys.argv[2:]
    from bivarseq import cli_monitor
    tracer = Tracer()
    tracer.install()
    try:
        code = cli_monitor.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file)
    sys.exit(code)

"""Run one bipsand CLI command with tracing on; used by the traced run.

    python3 bench/cli_traced.py REPORT.json <bipsand arguments...>

Times `import bipsand.cli`, installs the tracer plus parse and format
spans, runs the command with its normal stdout and exit code, and writes
the per-phase times to REPORT.json.
"""
import json
import os
import sys
import time

t0 = time.perf_counter()
import bipsand.cli as cli  # noqa: E402

t1 = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracing import Tracer  # noqa: E402


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.install_cli_parse_format()
    try:
        rc = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    with open(report, "w") as fh:
        json.dump({
            "import_ms": (t1 - t0) * 1000.0,
            "parse_ms": tracer.outermost({"cli.parse"})[1] * 1000.0,
            "format_ms": tracer.outermost({"cli.format"})[1] * 1000.0,
        }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

"""Traced run of one CLI command in a fresh interpreter.

    python3 perfbench/cli_child.py RAW_OUT SPANS_OUT -- ARGV...

Wraps the package layers (tracer.py), runs ``sys.exit(run(argv))`` as the
untraced jobs do, and writes the raw counters and spans to the two files.
Stdout is the command's own output.
"""

from __future__ import annotations

import json
import sys

import tracer as tracing


def main() -> int:
    raw_out, spans_out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py RAW_OUT SPANS_OUT -- ARGV...")
    tracer = tracing.install()
    cli = sys.modules["e8theta.cli"]
    try:
        rc = cli.run(argv)
    finally:
        sys.stdout.flush()
        tracing.uninstall(tracer)
        with open(raw_out, "w", encoding="utf-8") as f:
            json.dump(tracer.raw(), f)
        tracer.write_spans(spans_out, {"argv": argv})
    return rc


if __name__ == "__main__":
    sys.exit(main())

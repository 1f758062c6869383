"""Run Python code in this fresh interpreter with the host's speed sampled.

    python3 perfbench/sampled.py SPEED_OUT CODE [ARG...]

Runs CODE as ``python3 -c CODE ARG...`` would (same ``sys.argv``, same
``__main__``), inside `hostspeed.measure()`, and writes what that measured,
``{"seconds", "handler_s", "refs"}``, to SPEED_OUT as JSON.  The runner times
the whole process and subtracts ``handler_s``, the time spent sampling.
"""

from __future__ import annotations

import json
import sys

import hostspeed


def main() -> None:
    speed_out, code, *args = sys.argv[1:]
    sys.argv = ["-c", *args]
    hostspeed.start_sampling()
    try:
        with hostspeed.measure() as timed:
            exec(compile(code, "<string>", "exec"), {"__name__": "__main__"})
    finally:
        hostspeed.stop_sampling()
        timed["handler_s"] = hostspeed.handler_s
        with open(speed_out, "w", encoding="utf-8") as f:
            json.dump(timed, f)


if __name__ == "__main__":
    main()

"""Run one `hqw` CLI invocation in this fresh process and report its timings.

Usage: child.py ROOT T_SPAWN TRACE RESULT_JSON -- HQW_ARGV...

ROOT is the checkout whose `src/hqw` is imported, T_SPAWN the launcher's
CLOCK_MONOTONIC reading just before it started this process, TRACE 0 or 1.
The result file gets setup_s (T_SPAWN until `hqw.cli` is imported), op_s
(the `hqw.cli.main(argv)` call, which writes the artifact before returning),
the exit code and, when traced, the spans and computed counters.
"""

import json
import os
import sys
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    root, t_spawn, trace, result_path = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    argv = sys.argv[sys.argv.index("--") + 1:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import hqw.cli

    t_import = _clock()
    if not os.path.abspath(hqw.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"imported hqw from {hqw.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = _clock()
    try:
        rc = hqw.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    t1 = _clock()
    result = {"rc": rc, "setup_s": t_import - t_spawn, "op_s": t1 - t0}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())

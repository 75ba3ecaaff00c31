"""Spawn benchmark invocations on request and report their rusage.

Reads one JSON request per line on stdin: {"argv", "cwd", "stderr",
"timeout"}. An argv item "{t_spawn}" becomes this process's CLOCK_MONOTONIC
reading just before the spawn. Answers each request with one JSON line: the
exit code, peak RSS in MB, and user and system CPU seconds of the child, from
wait4. A child still running after "timeout" seconds is killed. Exits at the
end of its input.

Linux counts the memory of the process a child was forked from in the
child's peak RSS. Children forked straight from the harness, which holds
numpy, hqw and the check references, would report the harness's peak
whenever their own is lower; forked from this small process they do not.
"""

import json
import os
import subprocess
import sys
import threading
import time


def spawn(req: dict) -> dict:
    with open(os.devnull, "wb") as out, open(req["stderr"], "wb") as err:
        t_spawn = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
        argv = [t_spawn if a == "{t_spawn}" else a for a in req["argv"]]
        proc = subprocess.Popen(argv, cwd=req["cwd"], stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
            "user_s": usage.ru_utime, "sys_s": usage.ru_stime}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(spawn(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

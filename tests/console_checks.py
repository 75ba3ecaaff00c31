"""Process-level checks of the hqw console script: exit codes, one-line errors,
artifact line counts, stdout lines and each run's own peak RSS.

Run from the repository root, with the command that starts hqw as arguments:

    PYTHONPATH=src python tests/console_checks.py    # default: python -m hqw.cli
    python tests/console_checks.py hqw               # the entry point of `pip install -e .`

Each case is one process. The script prints one line per case (name, exit code,
peak RSS in MB, wall seconds) and exits 1 naming every failed case. It needs the
standard library and numpy only; pytest does not collect it. Peak RSS is the
child's own `ru_maxrss` from `os.wait4` (KiB on Linux), not the maximum over
every child reaped so far that `RUSAGE_CHILDREN` gives. Linux starts that
reading at this process's own peak, which the script keeps at its imports and
prints at the end, beside the BLAS thread variables that every run inherits
(the bytes of a dense sector's rows can depend on them).
"""

import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from typing import Callable, NamedTuple, Optional

import numpy as np


class Result(NamedTuple):
    code: Optional[int]  # None: killed at the timeout
    stdout: str
    stderr: str
    rss_mb: float
    seconds: float


def run(cmd, argv, timeout: float) -> Result:
    """Run `cmd + argv` to its end or its timeout, and read its own peak RSS."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([*cmd, *argv], stdout=out, stderr=err)
        code = None
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                code = os.waitstatus_to_exitcode(status)
                break
            if time.perf_counter() - start > timeout:
                proc.kill()
                _, _, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
        seconds = time.perf_counter() - start
        proc.returncode = -9 if code is None else code  # reaped here, so Popen must not wait for it
        out.seek(0)
        err.seek(0)
        return Result(code, out.read().decode(errors="replace"), err.read().decode(errors="replace"),
                      usage.ru_maxrss / 1024, seconds)


class Case(NamedTuple):
    name: str
    argv: list  # hqw arguments; "{d}" is the scratch directory, and `--out {d}/<out>` is appended
    out: str
    timeout: float
    code: int = 0  # 0 needs an empty stderr; a nonzero code exactly one stderr line and no artifact
    rss_mb: Optional[float] = None  # the run's peak RSS must be below this
    lines: Optional[int] = None  # the artifact's exact line count
    check: Optional[Callable[[str, Result], Optional[str]]] = None  # (scratch directory, result) -> failure text


def _write_graph(path, n, labels, edges):
    # edge by edge: Linux starts a child's ru_maxrss at this process's own peak
    # (the memory it had before exec), so this process must stay at its imports
    with open(path, "w") as f:
        f.write(f'{{"n": {n}, "labels": {json.dumps(labels)}, "edges": [')
        for k, (u, v, c) in enumerate(edges):
            f.write(f'{", " if k else ""}[{u}, {v}, "{c}"]')
        f.write("]}")


def write_inputs(d):
    """The JSON graphs the cases read: circulants C_4096(1,2,3,4), C_512(1,2,5,11) and Q12, Q14, Q16."""
    for n, shifts in ((4096, (1, 2, 3, 4)), (512, (1, 2, 5, 11))):
        _write_graph(os.path.join(d, f"c{n}.json"), n, ["0"],
                     ((v, (v + s) % n, 0) for v in range(n) for s in shifts))
    for dim in (12, 14, 16):
        n = 1 << dim
        _write_graph(os.path.join(d, f"q{dim}.json"), n, [str(b) for b in range(dim)],
                     ((v, v ^ (1 << b), b) for v in range(n) for b in range(dim) if v < v ^ (1 << b)))


def _read(d, name):
    with open(os.path.join(d, name)) as f:
        return f.read()


def _entropies_in_range(d, res):
    rows = [line.split(",") for line in _read(d, "q_mix2.csv").splitlines()]
    col = rows[0].index("entropy")
    if not all(math.isfinite(e) and 0 <= e <= math.log2(3) for e in (float(row[col]) for row in rows[1:])):
        return "an entropy is not finite or not in [0, log2 3]"


def _json_table(d, res):
    doc = json.loads(_read(d, "star.json"))
    if not (len(doc["columns"]) == 13 and len(doc["rows"]) == 5 and all(len(row) == 13 for row in doc["rows"])):
        return "the JSON table is not 13 columns by 5 rows"


def _row_t50_matches(d, res):
    if _read(d, "cycle300.csv").splitlines()[51] != _read(d, "cycle300-one.csv").splitlines()[1]:
        return "the grid's row at t_50 differs from the single-t run"


def _entry_matches_matrix(d, res):
    value = json.loads(_read(d, "c512.entry.json"))["value"]
    with open(os.path.join(d, "c512.csv")) as f:
        rows = [line for line in f if line.startswith("3,14,")]
    if rows != ["3,14,%.12g\n" % value]:
        return f"--matrix rows {rows} differ from the --entry value {value!r}"


def _stdout_line(prefix, whole=True):
    def check(d, res):
        if not any(line == prefix or not whole and line.startswith(prefix) for line in res.stdout.splitlines()):
            return f"no stdout line {'is' if whole else 'starts with'} {prefix!r}: {res.stdout.strip()[-300:]!r}"
    return check


def _pst(dim, timeout, rss_mb):
    argv = ["pst", "--graph", f"{{d}}/q{dim}.json", "--source", "0", "--target", str((1 << dim) - 1)]
    return Case(f"pst-q{dim}", argv, f"q{dim}.pst.json", timeout, rss_mb=rss_mb, check=_stdout_line("fidelity 1"))


HALF_PI = "1.5707963267948966"
CASES = [
    Case("readme-line3", ["dynamics", "--graph", "line3:108", "--steps", "100", "--t", HALF_PI], "line3.csv", 300,
         lines=102),
    Case("line3-2000", ["dynamics", "--graph", "line3:2000", "--steps", "1000", "--t", HALF_PI], "line3-2000.csv",
         300, rss_mb=120, lines=1002),
    Case("star120-grid", ["dynamics", "--graph", "star:120", "--t", "0:6.3:300"], "star120.csv", 300, rss_mb=60,
         lines=301),
    Case("doomed-line3", ["dynamics", "--graph", "line3:5", "--steps", "1000000", "--t", "0.8"], "doomed.csv", 20,
         code=2),
    Case("doomed-q_mix2", ["sweep", "--sweep", "q_mix2:0:1:5", "--graph", "line3:5", "--steps", "1000000"],
         "doomed-sweep.csv", 20, code=2),
    Case("doomed-line-grid", ["dynamics", "--graph", "line3:5", "--t", "0:1:3", "--init-pos", "0"],
         "doomed-grid.csv", 20, code=2),
    Case("refused-before-walk", ["dynamics", "--graph", "complete:2000", "--steps", "-1", "--t", "1"], "refused.csv",
         60, code=1, rss_mb=250),
    Case("huge-star", ["dynamics", "--graph", "star:99999999999999999999", "--t", "1"], "huge.csv", 10, code=1),
    Case("readme-q_mix2", ["sweep", "--sweep", "q_mix2:0:1:41"], "q_mix2.csv", 300, lines=42,
         check=_entropies_in_range),
    Case("pst-tree-demo", ["pst", "--tree-demo"], "tree.json", 300, check=_stdout_line("fidelity 1")),
    Case("c4096-trace", ["matmul"] + ["--graph", "{d}/c4096.json"] * 3 + ["--trace"], "c4096.trace.json", 120,
         check=_stdout_line("trace = 147456")),
    Case("cycle300-grid", ["dynamics", "--graph", "cycle:300", "--t", "0:6:120"], "cycle300.csv", 300),
    Case("cycle300-t50", ["dynamics", "--graph", "cycle:300", "--t", repr(float(np.linspace(0, 6, 120)[50]))],
         "cycle300-one.csv", 300, check=_row_t50_matches),
    Case("json-table", ["dynamics", "--graph", "star:10", "--t", "0:1:5", "--format", "json"], "star.json", 300,
         check=_json_table),
    Case("c512-matrix", ["matmul"] + ["--graph", "{d}/c512.json"] * 3 + ["--matrix"], "c512.csv", 300,
         lines=262145),
    Case("c512-entry", ["matmul"] + ["--graph", "{d}/c512.json"] * 3 + ["--entry", "3,14"], "c512.entry.json", 300,
         check=_entry_matches_matrix),
    Case("shots-cycle1000", ["matmul"] + ["--graph", "cycle:1000"] * 3 + ["--matrix", "--mode", "shots", "--seed", "1"],
         "shots.csv", 10, rss_mb=120, lines=1000001),
    Case("cycle2000-matrix", ["matmul"] + ["--graph", "cycle:2000"] * 3 + ["--matrix"], "c2000.csv", 300, rss_mb=90,
         lines=4000001),
    Case("k162-entry", ["matmul"] + ["--graph", "complete:162"] * 3 + ["--entry", "0,0"], "k162.entry.json", 120,
         rss_mb=300, check=_stdout_line("C[0,0] = 25760 ", whole=False)),
    _pst(12, 120, 120),
    _pst(14, 120, 200),
    _pst(16, 300, 250),
]


def failures(case: Case, d: str, res: Result) -> list:
    """What the run `res` of `case` got wrong, as short texts; empty when it passed."""
    if res.code is None:
        return [f"killed at its {case.timeout:g} s timeout"]
    if res.code != case.code:
        return [f"exit {res.code}, expected {case.code}: {res.stderr.strip()[-300:]!r}"]
    out = os.path.join(d, case.out)
    bad = []
    stderr_lines = 1 if case.code else 0  # a run that succeeds prints nothing on stderr
    if len(res.stderr.splitlines()) != stderr_lines:
        bad.append(f"{len(res.stderr.splitlines())} stderr lines, expected {stderr_lines}: "
                   f"{res.stderr.strip()[-300:]!r}")
    if case.code and os.path.exists(out):
        bad.append("left an artifact")
    if case.rss_mb is not None and not res.rss_mb < case.rss_mb:
        bad.append(f"peak RSS {res.rss_mb:.1f} MB, limit {case.rss_mb:g} MB")
    try:
        if case.lines is not None:
            with open(out, "rb") as f:
                lines = sum(1 for _ in f)
            if lines != case.lines:
                bad.append(f"{lines} artifact lines, expected {case.lines}")
        if case.check is not None:
            bad.append(case.check(d, res))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        bad.append(f"artifact unreadable: {type(exc).__name__}: {exc}")
    return [b for b in bad if b]


def blas_threads() -> str:
    """The BLAS thread variables that every run inherits: a dense sector's bytes can depend on them."""
    return ", ".join(f"{k}={os.environ.get(k, 'unset')}" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                                   "MKL_NUM_THREADS"))


def main(cmd) -> int:
    failed = []
    with tempfile.TemporaryDirectory() as d:
        write_inputs(d)
        for case in CASES:
            argv = [a.replace("{d}", d) for a in case.argv] + ["--out", os.path.join(d, case.out)]
            res = run(cmd, argv, case.timeout)
            bad = failures(case, d, res)
            print(f"{case.name:<19} exit {res.code!s:>4} {res.rss_mb:7.1f} MB {res.seconds:6.2f} s  "
                  + ("FAIL: " + "; ".join(bad) if bad else "ok"), flush=True)
            if bad:
                failed.append(case.name)
    floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"this process's own peak RSS, the floor of each reading: {floor:.1f} MB")
    print(f"BLAS thread variables of every run: {blas_threads()}")
    if failed:
        print(f"{len(failed)} of {len(CASES)} cases failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(CASES)} cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or [sys.executable, "-m", "hqw.cli"]))

"""hqw benchmark: seeded `hqw` CLI workloads, one fresh process per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S    # every workload in turn

The load is one closed-loop client: the next invocation starts only after
the previous one has exited and its artifact has been checked. Every
invocation runs in a fresh child process, as a CLI user pays a new process
per run and the walk's propagator cache lives only as long as one process.
One checked but untimed warm-up invocation precedes the timed window.

Untraced (--trace 0) the run reports, per workload:
  op_s         median wall time of `hqw.cli.main(argv)`, artifact written
  throughput   work units per second of summed op time
  peak_rss_mb  median peak resident memory of the child (wait4 rusage)
  setup_s      median time from spawning the child until `hqw.cli` is imported
and prints fail_frac = failed / attempted; an invocation fails on a nonzero
exit, a traceback or a failed artifact check.

Traced (--trace 1) invocations alternate between untraced and traced. The
traced ones wrap hqw's public functions (see tracer.py) and give per-function
self time and call counts per invocation, the computed counters, and the
tracing overhead as traced minus untraced median op_s.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. A record with the
environment, every sample and (traced) every span goes to
.bench_out/<workload>-seed<seed>-trace<t>.json in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import inputs
import tracer

NPROC = len(os.sched_getaffinity(0))
# pinned for every child; set here too, before numpy loads, so the checks run
# between invocations leave no BLAS threads spinning on the cores
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "HQW_THREADS": str(min(2, NPROC)),
}
os.environ.update(THREAD_ENV)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
LAUNCHER = os.path.join(BENCH_DIR, "launcher.py")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_OPS = 4  # per run, so every median has a few samples even when ops are slow
WARMUP_OPS = 1  # untimed invocations before the measured window
OP_TIMEOUT_S = 60.0

# functions whose self time and call count the traced run reports
LAYER_FUNCTIONS = (
    "walk.HybridWalk.step",
    "walk.HybridWalk.__init__",
    "walk.HybridWalk.run",
    "walk.make_coin",
    "walk.position_distribution",
    "walk.std_dev",
    "walk.entanglement_entropy",
    "graphs.subgraph_adjacency",
    "graphs.load_json_file",
    "graphs.validate_proper_coloring",
    "graphs.bfs_path",
    "linalg.hermitian_eig",
    "matmul.run_sequence",
    "matmul.stage_walk",
    "matmul.generalized_cnot",
    "matmul.projection_probability",
    "matmul.regular_sequence",
    "pst.make_plan",
    "pst.build_operators",
    "pst.run_pst",
    "pst.verify_pst",
    "pst.PstTranscript.to_json_dict",
    "cli.parse_graph_spec",
    "cli.main",
)
# no workload has a dense sector, so hermitian_eig never runs: its self time
# would read 0 on every run and only its call count is reported
COUNT_ONLY = ("linalg.hermitian_eig",)


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest() -> str:
    """sha256 over src/hqw/*.py, naming the code measured where .git is absent."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "hqw")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": workload, "seed": seed, "git_commit": _git_commit(),
            "src_sha256": _src_digest(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "nproc": NPROC,
            "machine": platform.machine(), "child_thread_env": THREAD_ENV}


class Op:
    """One invocation: its timings, memory, residual and failure reason."""

    def __init__(self, index: int, traced: bool):
        self.index, self.traced = index, traced
        self.warmup = False
        self.op_s = self.setup_s = self.rss_mb = self.user_s = self.sys_s = None
        self.err = 0.0
        self.failure = None
        self.spans, self.counters = [], {}

    @property
    def measured(self) -> bool:
        return self.op_s is not None


class Launcher:
    """The small process that spawns every invocation (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, LAUNCHER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: str, stderr_path: str) -> dict:
        req = {"argv": argv, "cwd": cwd, "stderr": stderr_path, "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_op(launcher: Launcher, inp, ref, workdir: str, index: int, traced: bool) -> Op:
    import checks

    op = Op(index, traced)
    artifact = os.path.join(workdir, f"op{index}.{inp.artifact_ext}")
    result = os.path.join(workdir, f"op{index}.result.json")
    stderr_path = os.path.join(workdir, f"op{index}.stderr")
    child = launcher.run([sys.executable, CHILD, ROOT, "{t_spawn}", "1" if traced else "0", result,
                          "--", *inp.argv, "--out", os.path.basename(artifact)], workdir, stderr_path)
    op.rss_mb, op.user_s, op.sys_s = child["rss_mb"], child["user_s"], child["sys_s"]
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    if os.path.exists(result):
        with open(result, encoding="utf-8") as fh:
            rec = json.load(fh)
        op.op_s, op.setup_s = rec["op_s"], rec["setup_s"]
        op.spans, op.counters = rec.get("spans", []), rec.get("counters", {})
    if child["returncode"] != 0:
        op.failure = f"exit code {child['returncode']}: {stderr.strip()[-300:]}"
    elif "Traceback" in stderr:
        op.failure = "traceback on stderr"
    elif not op.measured:
        op.failure = "no timing result"
    else:
        try:
            op.err = checks.check_artifact(ref, artifact)
        except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            op.failure = f"artifact check: {exc}"
    for path in (artifact, result, stderr_path):
        if os.path.exists(path):
            os.remove(path)
    return op


def layer_values(op: Op) -> dict[str, float]:
    """Per-layer figures of one traced invocation."""
    st = tracer.self_times(op.spans)
    vals = {}
    for name in LAYER_FUNCTIONS:
        self_s, calls, _ = st.get(name, (0.0, 0, 0.0))
        if name not in COUNT_ONLY:
            vals[f"{name}.self_s"] = self_s
        vals[f"{name}.calls"] = calls
    c = op.counters
    step_calls, step_incl = st.get("walk.HybridWalk.step", (0.0, 0, 0.0))[1:]
    step_bytes = c.get("walk.step.bytes_computed", 0.0)
    vals["walk.step.distinct_t_frac"] = c.get("walk.step.distinct_t", 0.0) / step_calls if step_calls else 0.0
    vals["walk.step.bytes_computed"] = step_bytes
    vals["walk.step.gb_per_s"] = step_bytes / step_incl / 1e9 if step_incl else 0.0
    vals["matmul.amps_scanned"] = c.get("matmul.amps_scanned", 0.0)
    vals["matmul.entries"] = c.get("matmul.entries", 0.0)
    vals["trace.self_sum_frac"] = sum(v[0] for v in st.values()) / op.op_s
    return vals


LAYER_UNITS = {"self_s": "s", "calls": "count", "distinct_t_frac": "ratio",
               "bytes_computed": "bytes", "gb_per_s": "GB/s", "amps_scanned": "count",
               "entries": "count", "self_sum_frac": "ratio", "overhead_s": "s",
               "max_abs_err": "abs"}


def _unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def measure(launcher: Launcher, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks

    inp = inputs.make_inputs(workload, seed)
    workdir = os.path.join(WORK_DIR, f"{workload}-seed{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inp.write_files(workdir)
        ref = checks.Reference(inp, workdir)
        # the first child compiles and pages in hqw and its inputs; warm-up
        # invocations are checked and counted in attempted/failed, not timed
        ops: list[Op] = []
        for _ in range(WARMUP_OPS):
            ops.append(run_op(launcher, inp, ref, workdir, len(ops), False))
            ops[-1].warmup = True
        deadline = _clock() + seconds
        while len(ops) < WARMUP_OPS + MIN_OPS or _clock() < deadline:
            n = len(ops) - WARMUP_OPS
            ops.append(run_op(launcher, inp, ref, workdir, len(ops), trace and n % 2 == 1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:  # another run still uses it
            pass

    failed = sum(op.failure is not None for op in ops)
    timed = [op for op in ops if not op.warmup]
    plain = [op for op in timed if op.measured and not op.traced]
    if not plain:
        raise RuntimeError(f"{workload}: no invocation produced timings; first failure: {ops[0].failure}")
    op_s = [op.op_s for op in plain]
    e2e = {
        "op_s": (statistics.median(op_s), "s"),
        "throughput": (inp.work_units * len(op_s) / sum(op_s), "units/s"),
        "peak_rss_mb": (statistics.median(op.rss_mb for op in plain), "MB"),
        "setup_s": (statistics.median(op.setup_s for op in plain), "s"),
    }
    rec = {"env": environment(workload, seed), "argv": list(inp.argv),
           "work_unit": inp.work_unit, "work_units_per_op": inp.work_units,
           "attempted": len(ops), "failed": failed, "fail_frac": failed / len(ops),
           "failures": [op.failure for op in ops if op.failure],
           "check.max_abs_err": max(op.err for op in ops),
           "samples": [{"op": op.index, "warmup": op.warmup, "traced": op.traced, "op_s": op.op_s, "setup_s": op.setup_s,
                        "peak_rss_mb": op.rss_mb, "cpu_user_s": op.user_s, "cpu_sys_s": op.sys_s,
                        "err": op.err, "failure": op.failure} for op in ops],
           "end_to_end": {k: {"value": v, "unit": u, "samples": len(plain)} for k, (v, u) in e2e.items()}}
    if trace:
        traced = [op for op in timed if op.measured and op.traced and op.failure is None]
        if not traced:
            raise RuntimeError(f"{workload}: no traced invocation succeeded")
        per_op = [layer_values(op) for op in traced]
        layers = {k: statistics.median(v[k] for v in per_op) for k in per_op[0]}
        layers["trace.overhead_s"] = statistics.median(op.op_s for op in traced) - e2e["op_s"][0]
        layers["check.max_abs_err"] = rec["check.max_abs_err"]
        rec["per_layer"] = {k: {"value": v, "unit": _unit(k), "samples": len(traced)}
                            for k, v in layers.items()}
        all_self = {}
        for op in traced:
            for name, (s, _, _) in tracer.self_times(op.spans).items():
                all_self.setdefault(name, []).append(s)
        ranked = sorted(((statistics.median(v), k) for k, v in all_self.items()), reverse=True)
        rec["self_s_ranking"] = [[k, s] for s, k in ranked]
        rec["top_self"] = {"observed": ranked[0][1], "predicted": inputs.PREDICTED_TOP[workload],
                           "match": ranked[0][1] == inputs.PREDICTED_TOP[workload]}
        rec["spans"] = [{"op": op.index, "spans": op.spans} for op in traced]
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(rec, fh)
    return rec


def report(rec: dict, trace: bool) -> None:
    env = rec["env"]
    print(f"== {env['workload']} seed {env['seed']}: {rec['attempted']} ops, {rec['failed']} failed, "
          f"fail_frac {rec['fail_frac']:.4g}, check.max_abs_err {rec['check.max_abs_err']:.3e}")
    print("   " + " ".join(rec["argv"]))
    for name, m in rec["end_to_end"].items():
        unit = f"{rec['work_unit']}/s" if name == "throughput" else m["unit"]
        print(f"   {name:<12} {m['value']:.6g} {unit}  (n={m['samples']})")
    for f in rec["failures"][:3]:
        print(f"   FAILED: {f}")
    if trace:
        for name, m in rec["per_layer"].items():
            print(f"   {name:<46} {m['value']:.6g} {m['unit']}")
        top = rec["top_self"]
        verdict = "as predicted" if top["match"] else f"MISMATCH, predicted {top['predicted']}"
        print(f"   largest self time: {top['observed']} ({verdict})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hqw", "cli.py")):
        print(f"error: no hqw sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(w not in inputs.WORKLOADS for w in names):
        print(f"error: unknown workload {args.workload!r}; choices: all, {', '.join(inputs.WORKLOADS)}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    launcher = Launcher()
    try:
        recs = [measure(launcher, w, args.seed, args.seconds, trace) for w in names]
    finally:
        launcher.close()
    print("env: " + json.dumps({k: v for k, v in recs[0]["env"].items() if k != "workload"}))
    for rec in recs:
        report(rec, trace)
    key = "per_layer" if trace else "end_to_end"
    metrics = {}
    for rec in recs:
        prefix = "" if len(recs) == 1 else rec["env"]["workload"] + "."
        for name, m in rec[key].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Checks that the same seed gives identical inputs, that corrupted or wrong
artifacts count as failures, that traced self times sum to no more than the
op time, and that BENCHMARK.json names exactly the metrics the harness
prints. Scratch files go under .bench_work/ in the checkout. Takes some ten
seconds, as it runs every workload once.
"""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run  # pins the thread variables before numpy loads

sys.path.insert(0, run.SRC)

import checks  # noqa: E402
import numpy as np  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
from hqw import cli  # noqa: E402


def _scratch() -> str:
    os.makedirs(run.WORK_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR)


class InputsTest(unittest.TestCase):
    def test_same_seed_same_argv_and_files(self):
        for w in inputs.WORKLOADS:
            a, b = inputs.make_inputs(w, 11), inputs.make_inputs(w, 11)
            self.assertEqual(a, b, w)

    def test_seed_changes_values_not_work(self):
        for w in inputs.WORKLOADS:
            a, b = inputs.make_inputs(w, 1), inputs.make_inputs(w, 2)
            self.assertNotEqual((a.argv, a.files), (b.argv, b.files), w)
            self.assertEqual(a.work_units, b.work_units, w)
            self.assertEqual(len(a.argv), len(b.argv), w)
            self.assertEqual({k: len(json.loads(v)["edges"]) for k, v in a.files.items()},
                             {k: len(json.loads(v)["edges"]) for k, v in b.files.items()}, w)


class ChecksTest(unittest.TestCase):
    """Each workload's artifact passes as written and fails once corrupted."""

    def setUp(self):
        self.dir = _scratch()
        self.cwd = os.getcwd()
        os.chdir(self.dir)

    def tearDown(self):
        os.chdir(self.cwd)
        shutil.rmtree(self.dir, ignore_errors=True)

    def _artifact(self, workload):
        inp = inputs.make_inputs(workload, 5)
        inp.write_files(self.dir)
        path = os.path.join(self.dir, f"a.{inp.artifact_ext}")
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(cli.main([*inp.argv, "--out", path]), 0)
        ref = checks.Reference(inp, self.dir)
        self.assertLessEqual(checks.check_artifact(ref, path), checks.TOL)
        with open(path, encoding="utf-8") as fh:
            return inp, ref, path, fh.read()

    def _assert_rejected(self, ref, path, text):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with self.assertRaises(checks.CheckFailed):
            checks.check_artifact(ref, path)

    def test_dynamics(self):
        for w in ("star-tgrid", "line3-traj"):
            inp, ref, path, text = self._artifact(w)
            lines = text.splitlines()
            row = inp.params["rows"][0] + 1
            cells = lines[row].split(",")
            cells[-1] = repr(float(cells[-1]) + 1e-6)  # entropy of a sampled row
            self._assert_rejected(ref, path, "\n".join(lines[:row] + [",".join(cells)] + lines[row + 1:]))
            self._assert_rejected(ref, path, "\n".join(lines[:-1]))  # a row missing

    def test_matmul(self):
        _, ref, path, text = self._artifact("matmul-circulant")
        lines = text.splitlines()
        i, j, v = lines[1].split(",")
        self._assert_rejected(ref, path, "\n".join([lines[0], f"{i},{j},{float(v) + 1:g}"] + lines[2:]))

    def test_pst(self):
        _, ref, path, text = self._artifact("pst-hypercube")
        doc = json.loads(text)
        doc["phase_checks"][3]["measured"][0] *= -1
        self._assert_rejected(ref, path, json.dumps(doc))
        doc = json.loads(text)
        doc["stages"][-1]["state"] = doc["stages"][0]["state"]
        self._assert_rejected(ref, path, json.dumps(doc))


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.dir = _scratch()
        self.launcher = run.Launcher()

    def tearDown(self):
        self.launcher.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def test_wrong_artifact_counts_as_failed_op(self):
        inp = inputs.make_inputs("star-tgrid", 3)
        ref = checks.Reference(inp, self.dir)
        argv = list(inp.argv)
        grid = argv.index("--t") + 1
        argv[grid] = f"{inp.params['t_start']}:{inp.params['t_stop'] + 0.01}:{inputs.STAR_POINTS}"
        wrong = dataclasses.replace(inp, argv=tuple(argv))
        op = run.run_op(self.launcher, wrong, ref, self.dir, 0, traced=False)
        self.assertIsNotNone(op.failure)
        self.assertIn("artifact check", op.failure)
        ok = run.run_op(self.launcher, inp, ref, self.dir, 1, traced=False)
        self.assertIsNone(ok.failure)

    def test_traced_self_times_within_op_time(self):
        inp = inputs.make_inputs("pst-hypercube", 3)
        inp.write_files(self.dir)
        ref = checks.Reference(inp, self.dir)
        op = run.run_op(self.launcher, inp, ref, self.dir, 0, traced=True)
        self.assertIsNone(op.failure)
        st = tracer.self_times(op.spans)
        self.assertLessEqual(sum(s for s, _, _ in st.values()), op.op_s)
        self.assertEqual(st["cli.main"][1], 1)
        self.assertLessEqual(st["cli.main"][2], op.op_s)
        self.assertGreater(st["walk.HybridWalk.step"][1], 0)

    def test_peak_rss_excludes_the_harness(self):
        inp = inputs.make_inputs("pst-hypercube", 3)
        inp.write_files(self.dir)
        ref = checks.Reference(inp, self.dir)
        ballast = np.ones(40_000_000)  # 320 MB in this process, not in the child
        op = run.run_op(self.launcher, inp, ref, self.dir, 0, traced=False)
        del ballast
        self.assertIsNone(op.failure)
        self.assertLess(op.rss_mb, 250)

    def test_self_times_subtract_children(self):
        spans = [[0, "a", -1, 0.0, 10.0], [1, "b", 0, 1.0, 4.0], [2, "c", 0, 3.0, 6.0],
                 [3, "b", 2, 3.5, 5.0]]
        st = tracer.self_times(spans)
        self.assertAlmostEqual(st["a"][0], 5.0)  # children cover [1, 6]
        self.assertAlmostEqual(st["b"][0], 4.5)
        self.assertEqual(st["b"][1], 2)
        self.assertAlmostEqual(st["c"][0], 1.5)

    def test_benchmark_json_names_match_output(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        op = run.Op(0, traced=True)
        op.op_s = 1.0
        per_layer = set(run.layer_values(op)) | {"trace.overhead_s", "check.max_abs_err"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, per_layer)
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         {"op_s", "throughput", "peak_rss_mb", "setup_s"})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(inputs.WORKLOADS))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run._unit(m["name"]), m["name"])

    def test_refuses_to_run_without_sources(self):
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), self.dir)
        shutil.copytree(run.BENCH_DIR, os.path.join(self.dir, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "star-tgrid", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=self.dir, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

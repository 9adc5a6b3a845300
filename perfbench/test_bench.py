"""The benchmark's own checks: output checking, the user-db generator and
the tracer.  Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
import tempfile
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


class BenchTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="test-", dir=run.WORK)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(run.WORK)
        except OSError:
            pass

    def limit(self):
        return time.perf_counter() + 60

    def job(self, job_id):
        workload = next(w for w, jobs in workloads.WORKLOADS.items()
                        if job_id in dict(jobs))
        return next(j for j in workloads.jobs_for(workload, 1, self.dir) if j.id == job_id)

    def test_wrong_output_is_a_failure(self):
        job = self.job("constants-2II-24-g1")
        self.assertTrue(run.run_job(job, self.dir, self.limit()).ok)
        wrong = dataclasses.replace(job, expect_sha256=workloads.sha256(b"other\n"))
        res = run.run_job(wrong, self.dir, self.limit())
        self.assertFalse(res.ok)
        self.assertIn("sha256", res.reason)

    def test_nonzero_exit_is_a_failure(self):
        job = dataclasses.replace(self.job("constants-2II-24-g1"),
                                  args=("constants", "--type", "2II"))
        res = run.run_job(job, self.dir, self.limit())
        self.assertFalse(res.ok)
        self.assertEqual(res.reason, "exit code 2")

    def test_setup_takes_exactly_the_set_number_of_starts(self):
        jobs = [self.job("constants-2II-24-g1")] * 5
        setup, passes = run.measure(jobs, 0, False, self.dir)
        self.assertEqual(len(setup), run.SETUP_SAMPLES)
        self.assertEqual(len(passes), 1)
        self.assertEqual(run.measure(jobs, 0, True, self.dir)[0], [])

    def test_user_dbs_are_deterministic_per_seed(self):
        def contents(seed):
            sub = tempfile.mkdtemp(dir=self.dir)
            paths = workloads.write_user_dbs(seed, sub)
            out = {}
            for name, path in paths.items():
                with open(path, "rb") as fh:
                    out[name] = fh.read()
            return out

        first, again, other = contents(7), contents(7), contents(8)
        self.assertEqual(first, again)
        for name in first:
            self.assertNotEqual(first[name], other[name])
            # only the gen rows move: names, aut orders and the rest are kept
            kept = [ln for ln in first[name].splitlines()
                    if not ln.startswith((b"gen ", b"#"))]
            self.assertEqual(kept, [ln for ln in other[name].splitlines()
                                    if not ln.startswith((b"gen ", b"#"))])

    def test_traced_job_gives_spans_and_layer_metrics(self):
        job = self.job("group-Q1-g1-p3")
        plain = run.run_job(job, self.dir, self.limit())
        traced = run.run_job(job, self.dir, self.limit(), "0/group-Q1-g1-p3")
        self.assertTrue(plain.ok and traced.ok, traced.reason)
        main = [s for s in traced.spans if s["name"] == "cli.main"]
        self.assertEqual(len(main), 1)
        self.assertEqual(main[0]["job"], "0/group-Q1-g1-p3")
        closures = [s for s in traced.spans if s["name"] in run.CLOSURES]
        self.assertEqual(len(closures), 2)
        self.assertTrue(all(s["parent"] == main[0]["id"] for s in closures))
        m = run.layers_of_pass([(plain, traced)])
        self.assertEqual(set(m), set(run.PER_LAYER))
        self.assertEqual(m["cliffordweil.closure_elements"],
                         sum(s["order"] for s in closures))
        self.assertEqual(m["database.loads"], 0)
        self.assertGreater(m["cli.process_overhead_s"], 0)


if __name__ == "__main__":
    unittest.main()

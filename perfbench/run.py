"""Benchmark of the cweil command line, one workload per run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is run from its source tree
(`src/`), with nothing installed.  A workload is a fixed list of
`python -m cweil.cli ...` jobs (see workloads.py).  The harness is a closed
loop with one client: each job runs in a fresh interpreter, with a fresh
temporary cwd, HOME, XDG_CACHE_HOME and TMPDIR, and the next job starts only
after it has exited, so one core is busy at a time.  The job list is run
whole, again and again, while another pass still fits in `--seconds`; it is
always run at least once.  Every job's stdout and exit code are checked.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each job twice,
once plain and once under tracer.py, and reports the per-layer metrics from
the spans; the spans are kept in perfbench/traces/.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from workloads import WORKLOADS, Job, jobs_for, sha256

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
TRACES = os.path.join(HERE, "traces")
TRACER = os.path.join(HERE, "tracer.py")

# A run must end within 180 s: a job still running at RUN_LIMIT_S is killed
# and counted as failed, as is any job that exceeds JOB_TIMEOUT_S.
RUN_LIMIT_S = 150.0
JOB_TIMEOUT_S = 90.0
# Interpreter starts for setup_s.  Single starts are bimodal, so take many,
# spread over the first pass rather than in one burst.
SETUP_SAMPLES = 12

END_TO_END = {
    "wall_s": "s",        # the whole job list, summed job wall times
    "job_p50_s": "s",     # median job wall time
    "job_max_s": "s",     # slowest job wall time
    "setup_s": "s",       # fresh interpreter + `import cweil.cli`
    "peak_rss_mb": "MB",  # largest per-child peak RSS, from os.wait4
}

# Per-layer metrics, read off the spans of the traced run.  The tables say
# which span (or tracer counter) each metric sums over one job list.
DB_LOADS = ("database.load_bundled", "database.parse_db")
CLOSURES = ("cliffordweil.group_closure", "cliffordweil.parabolic_closure")
TOTAL_S = {
    "autgroup.aut_order_s": "autgroup.aut_order",
    "cliffordweil.closure_s": "cliffordweil.group_closure",
    "cliffordweil.parabolic_s": "cliffordweil.parabolic_closure",
    "cliffordweil.coset_labels_s": "cliffordweil.coset_labels",
    "weightenum.cwe_s": "weightenum.cwe",
    "siegelphi.cusp_basis_s": "siegelphi.cusp_basis",
    "doubling.pairing_s": "doubling.doubling_pairing_sw",
    "doubling.eisenstein_sw_s": "doubling.eisenstein_sw",
}
SELF_S = {
    "cliffordweil.coset_avg_self_s": "cliffordweil.eisenstein_coset",
    "doubling.verify_self_s": "doubling.verify_doubling",
}
CALLS = {"autgroup.calls": "autgroup.aut_order", "weightenum.calls": "weightenum.cwe"}
HITS = {"autgroup.cache_hits": "autgroup.aut_order",
        "weightenum.cache_hits": "weightenum.cwe"}
COUNTERS = ("cliffordweil.apply_calls", "poly.mul_calls", "cyclo.mul_calls")
PER_LAYER = (
    ["cli.process_overhead_s", "cli.cpu_s",
     "database.load_s", "database.loads", "database.records",
     "cliffordweil.closure_elements", "cliffordweil.cosets",
     "trace.overhead_ratio"]
    + list(TOTAL_S) + list(SELF_S) + list(CALLS) + list(HITS) + list(COUNTERS)
)


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ratio"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


@dataclass
class JobResult:
    job: Job
    wall: float
    ok: bool
    reason: str
    maxrss_kb: int = 0
    cpu_s: float = 0.0
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def hermetic_env(home: str) -> dict:
    """The caller's environment without Python or cweil settings, with a
    private HOME, cache and temp dir, and the source tree on the path.

    OpenBLAS is held to one thread.  By default `import numpy` starts a
    worker thread on every other core and joins it at exit, so a start's
    wall time followed the load on the core the job was not using (0.15 s
    to 0.27 s on a 2-core VM); with one thread a job uses one core, as the
    closed loop intends.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "CWEIL_"))}
    env.update(PYTHONPATH=SRC, HOME=home, TMPDIR=os.path.join(home, "tmp"),
               XDG_CACHE_HOME=os.path.join(home, ".cache"),
               OPENBLAS_NUM_THREADS="1")
    return env


def timed_run(argv: list, job_dir: str, timeout: float):
    """Run argv in job_dir/home; (wall s, exit code, timed out, rusage).

    stdout and stderr go to files in job_dir.  The child is reaped with
    os.wait4, which gives its own rusage (RUSAGE_CHILDREN would be a running
    maximum over all children).
    """
    home = os.path.join(job_dir, "home")
    os.makedirs(os.path.join(home, "tmp"))
    with open(os.path.join(job_dir, "stdout"), "wb") as out, \
            open(os.path.join(job_dir, "stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=home, env=hermetic_env(home),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    killer = threading.Timer(timeout, kill)
    killer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, timed_out.is_set(), ru


def run_job(job: Job, run_dir: str, limit: float,
            trace_id: str | None = None) -> JobResult:
    """Run one job and check its output; under the tracer if trace_id is
    given, which then names the job in its spans."""
    timeout = min(JOB_TIMEOUT_S, limit - time.perf_counter())
    if timeout <= 0:
        return JobResult(job, 0.0, False, "not started: run time limit")
    job_dir = tempfile.mkdtemp(prefix=job.id + "-", dir=run_dir)
    try:
        spans_path = os.path.join(job_dir, "spans.jsonl")
        if trace_id is not None:
            argv = [sys.executable, TRACER, spans_path, trace_id, "--"]
        else:
            argv = [sys.executable, "-m", "cweil.cli"]
        wall, rc, timed_out, ru = timed_run(argv + list(job.args), job_dir, timeout)
        with open(os.path.join(job_dir, "stdout"), "rb") as fh:
            out = fh.read()
        if timed_out:
            reason = f"timed out after {timeout:.0f} s"
        elif rc != 0:
            reason = f"exit code {rc}"
        elif sha256(out) != job.expect_sha256:
            reason = f"stdout sha256 {sha256(out)[:12]}, expected {job.expect_sha256[:12]}"
        else:
            reason = ""
        res = JobResult(job, wall, not reason, reason, ru.ru_maxrss,
                        ru.ru_utime + ru.ru_stime)
        if os.path.exists(spans_path):
            with open(spans_path) as fh:
                for line in fh:
                    rec = json.loads(line)
                    if rec["name"] == "counters":
                        res.counts = rec["counts"]
                    else:
                        res.spans.append(rec)
        return res
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)


def setup_sample(run_dir: str, limit: float) -> float:
    """Wall time of a fresh interpreter that imports the CLI."""
    job_dir = tempfile.mkdtemp(prefix="setup-", dir=run_dir)
    try:
        timeout = max(1.0, min(JOB_TIMEOUT_S, limit - time.perf_counter()))
        return timed_run([sys.executable, "-c", "import cweil.cli"], job_dir, timeout)[0]
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)


def measure(jobs: list, seconds: float, trace: bool, run_dir: str):
    """Run whole passes of the job list while another one fits in `seconds`.

    Unless `trace`, the first pass also takes the SETUP_SAMPLES interpreter
    starts, spread evenly over its jobs; their time does not count in the
    length of the pass.  Returns the setup samples and, per pass, a (plain,
    traced) result pair per job; traced is None unless `trace`.
    """
    start = time.perf_counter()
    limit = start + RUN_LIMIT_S
    setup_sample(run_dir, limit)  # untimed: compiles the .pyc files
    n = len(jobs)
    starts = [0 if trace else SETUP_SAMPLES // n + (i < SETUP_SAMPLES % n)
              for i in range(n)]
    setup, passes, longest = [], [], 0.0
    while True:
        results, pass_s = [], 0.0
        for job, n_setup in zip(jobs, starts):
            if not passes:
                setup += [setup_sample(run_dir, limit) for _ in range(n_setup)]
            t_job = time.perf_counter()
            plain = run_job(job, run_dir, limit)
            traced = (run_job(job, run_dir, limit, f"{len(passes)}/{job.id}")
                      if trace else None)
            pass_s += time.perf_counter() - t_job
            results.append((plain, traced))
        passes.append(results)
        longest = max(longest, pass_s)
        if time.perf_counter() - start + longest > seconds:
            return setup, passes


def end_to_end(setup: list, passes: list) -> dict:
    per_job = [statistics.median(res[i][0].wall for res in passes)
               for i in range(len(passes[0]))]
    return {
        "wall_s": statistics.median(sum(p.wall for p, _ in res) for res in passes),
        "job_p50_s": statistics.median(per_job),
        "job_max_s": max(per_job),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(p.maxrss_kb for res in passes for p, _ in res) / 1024,
    }


def layers_of_pass(results: list) -> dict:
    """Per-layer totals over one pass of the job list."""
    m = dict.fromkeys(PER_LAYER, 0)
    for plain, traced in results:
        spans = traced.spans
        by_id = {s["id"]: s for s in spans}
        inner = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                inner[s["parent"]] += s["end"] - s["start"]

        def named(name):
            return [s for s in spans if s["name"] == name]

        def total(name):
            return sum(s["end"] - s["start"] for s in named(name))

        loads = [s for s in spans if s["name"] in DB_LOADS
                 and (s["parent"] is None or by_id[s["parent"]]["name"] not in DB_LOADS)]
        m["cli.process_overhead_s"] += traced.wall - total("cli.main")
        m["cli.cpu_s"] += plain.cpu_s
        m["database.load_s"] += sum(s["end"] - s["start"] for s in loads)
        m["database.loads"] += len(loads)
        m["database.records"] += sum(s.get("records", 0) for s in loads)
        m["cliffordweil.closure_elements"] += sum(
            s.get("order", 0) for s in spans if s["name"] in CLOSURES and not s.get("cache_hit"))
        m["cliffordweil.cosets"] += sum(s.get("cosets", 0)
                                        for s in named("cliffordweil.coset_labels"))
        for metric, name in TOTAL_S.items():
            m[metric] += total(name)
        for metric, name in SELF_S.items():
            m[metric] += sum(s["end"] - s["start"] - inner[s["id"]] for s in named(name))
        for metric, name in CALLS.items():
            m[metric] += len(named(name))
        for metric, name in HITS.items():
            m[metric] += sum(s.get("cache_hit", 0) for s in named(name))
        for metric in COUNTERS:
            m[metric] += traced.counts.get(metric, 0)
    plain_wall = sum(p.wall for p, _ in results)
    m["trace.overhead_ratio"] = sum(t.wall for _, t in results) / plain_wall - 1
    return m


def per_layer(passes: list) -> dict:
    by_pass = [layers_of_pass(res) for res in passes]
    return {k: statistics.median(m[k] for m in by_pass) for k in PER_LAYER}


def write_spans(path: str, passes: list) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for res in passes:
            for _, traced in res:
                for s in traced.spans:
                    fh.write(json.dumps(s) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cweil", "cli.py")):
        print(f"error: no cweil source tree at {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        jobs = jobs_for(args.workload, args.seed, run_dir)
        setup, passes = measure(jobs, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is using it

    results = [r for res in passes for pair in res for r in pair if r is not None]
    failed = [r for r in results if not r.ok]
    for r in results:
        print(f"job {r.job.id:<22} {r.wall:8.3f} s  rss {r.maxrss_kb / 1024:7.1f} MB"
              f"  {'ok' if r.ok else 'FAIL: ' + r.reason}")
    if args.trace:
        metrics = per_layer(passes)
        spans_path = os.path.join(TRACES, f"{args.workload}-seed{args.seed}.jsonl")
        write_spans(spans_path, passes)
        print(f"spans: {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics = end_to_end(setup, passes)
    print(f"passes: {len(passes)}  setup samples: {len(setup)}")
    for name, value in metrics.items():
        print(f"{name:<32} {value:14.6f} {unit(name)}")
    print(f"{'fail_ratio':<32} {len(failed) / len(results):14.6f} "
          f"({len(failed)} of {len(results)} jobs)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

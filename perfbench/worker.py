"""The benchmark's worker process: one per run of one workload.

It imports ``pgm.cli`` first (timed, so the figure includes numpy and
scipy), generates the workload's inputs from the seed, and then runs the
jobs in a closed loop with one client: each job is a call of
``pgm.cli.main(argv)`` in this process, and the next job starts only
when the previous one has returned and its output has been checked.
Checking and garbage collection happen between jobs, outside the timed
calls.

Untraced runs (``--trace 0``) make ``ceil(seconds / round_s)`` passes
over the job mix (at least enough for 12 jobs), where ``round_s`` is the
time one pass took on the seed commit; so the number of jobs, and with
it the tail percentile, is the same on every commit for a given
``--seconds``.  Each pass runs a fresh draw of inputs (same classes and
sizes), generated between passes.  Traced runs (``--trace 1``) make one
untraced pass and then three traced passes, all on the same draw, so
that their counts must agree.  A draw of its own warms up each
subcommand first.

With ``--probe`` the worker only times ``import pgm.cli`` and exits.

Results go to the JSON file named by ``--result``; run.py reads it.
"""

from __future__ import annotations

import argparse
import time

if __name__ == "__main__":
    _t0 = time.perf_counter()
    import pgm.cli

    IMPORT_S = time.perf_counter() - _t0

import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

TRACED_PASSES = 3
MIN_JOBS = 12
TAIL_BEYOND = 10
#: Reference speed: the time of one :class:`Reference` loop that the
#: scaled figures are expressed at.
REF_S = 2.5e-3


class Reference:
    """A fixed loop of small LAPACK calls and Python work, independent of pgm.

    Timed next to every job, it measures how fast the host runs at that
    moment.  A shared 2-CPU x86 VM was seen to switch between two speeds
    in spells of one second to minutes (a fixed 8x8 ``eigh`` took 11 us
    or 17 us), which moved 15 s runs of the same jobs by up to 40%.
    Scaling a job's time by ``REF_S / reference time`` removes most of
    that while keeping every change in pgm's own cost.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a8 = rng.standard_normal((8, 8))
        a30 = rng.standard_normal((30, 30))
        self.a8 = a8 @ a8.T + 8 * np.eye(8)
        self.a30 = a30 @ a30.T + 30 * np.eye(30)
        self.b30 = np.ones(30)
        self.np = np

    def seconds(self):
        """The least of two timings of the loop."""
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            for _ in range(40):
                self.np.linalg.eigh(self.a8)
                self.np.linalg.solve(self.a30, self.b30)
                _ = ",".join(f"{x:.17g}" for x in range(50))
                _ = {i: i * i for i in range(100)}
            best = min(best, time.perf_counter() - t0)
        return best


def run_job(main, job, reference=None):
    """Run one job; return its record, checked against its oracle.

    With a ``reference``, the record also holds the job's time scaled to
    the reference speed, timed just before and just after the job.
    """
    from oracles import CHECKS, Verdict

    if job.out:
        Path(job.out).unlink(missing_ok=True)
    gc.collect()
    ref_before = reference.seconds() if reference else None
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(job.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an exception escaping the CLI is a failed job
            rc = None
            crash = traceback.format_exc()
        t1 = time.perf_counter()
    ref = 0.5 * (ref_before + reference.seconds()) if reference else None
    stdout = out.getvalue()
    out_text = ""
    if job.out and os.path.exists(job.out):
        out_text = Path(job.out).read_text(encoding="utf-8")
    if crash is not None:
        verdict = Verdict("wrong", "exception: " + crash.strip().splitlines()[-1])
    else:
        verdict = CHECKS[job.command](job.expect, rc, stdout, out_text)
        if not verdict.ok and err.getvalue():
            verdict.reason += " | stderr: " + err.getvalue().strip()[:200]
    bytes_out = len(stdout.encode()) + len(err.getvalue().encode()) + len(out_text.encode())
    return {
        "command": job.command, "kind": job.kind, "n": job.n, "seconds": t1 - t0,
        "scaled": (t1 - t0) * REF_S / ref if reference else None,
        "status": verdict.status, "reason": verdict.reason, "stats": verdict.stats,
        "bytes_out": bytes_out,
    }


def end_to_end(records, jobs_per_pass, key):
    """End-to-end metrics of the untraced passes, from ``record[key]``.

    A job's latency is the median of its runs, one per pass.  Throughput
    is the mix's job count over the sum of these latencies, and the
    latency distribution counts each job once per pass.
    """
    runs = {}
    for k, r in enumerate(records):
        runs.setdefault(k % jobs_per_pass, []).append(r[key])
    typical = [statistics.median(v) for v in runs.values()]
    passes = len(records) // jobs_per_pass
    lat = sorted(t for t in typical for _ in range(passes))
    tail_index = max(0, len(lat) - TAIL_BEYOND - 1)
    ok = sum(r["status"] == "ok" for r in records)
    return {
        "jobs_per_s": len(typical) / sum(typical),
        "job_p50_ms": 1e3 * statistics.median(lat),
        "job_tail_ms": 1e3 * lat[tail_index],
        "ok_frac": ok / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {
        "jobs": len(lat),
        "tail_percentile": 100.0 * (tail_index + 1) / len(lat),
        "per_job_ms": [{"command": r["command"], "kind": r["kind"], "n": r["n"], key: 1e3 * t}
                       for r, t in zip(records, typical)],
    }


def latency_table(records):
    """Median latency per (subcommand, n): the growth with n."""
    groups = {}
    for r in records:
        groups.setdefault((r["command"], r["n"]), []).append(r["seconds"])
    return [
        {"command": c, "n": n, "jobs": len(v), "median_ms": 1e3 * statistics.median(v)}
        for (c, n), v in sorted(groups.items())
    ]


def pass_counts(records):
    """Counts read from the CLI outputs of one pass."""
    return {
        "completion.cycles": sum(r["stats"].get("cycles", 0) for r in records),
        "completion.refused": sum(r["status"] == "refused" for r in records
                                  if r["command"] == "complete"),
        "means.karcher_steps": sum(r["stats"].get("steps", 0) for r in records),
        "cli.bytes_out": sum(r["bytes_out"] for r in records),
    }


def traced(main, jobs):
    from tracing import Tracer

    untraced = [run_job(main, job) for job in jobs]
    tracer = Tracer()
    tracer.install()
    passes = []
    try:
        for _ in range(TRACED_PASSES):
            first = tracer.job + 1
            before = tracer.snapshot()
            records = [run_job(lambda argv: tracer.run_job(main, argv), job) for job in jobs]
            after = tracer.snapshot()
            kernels = {k: after[k] - before.get(k, 0) for k in after}
            passes.append((list(range(first, tracer.job + 1)), records, kernels))
    finally:
        tracer.uninstall()

    summaries = []
    for job_ids, records, kernels in passes:
        s = tracer.pass_summary(job_ids)
        s.update(pass_counts(records))
        s["linalg.eigh_calls"] = kernels["eigh_calls"]
        s["linalg.eigh_n3"] = kernels["eigh_n3"]
        s["linalg.solve_calls"] = kernels.get("numpy.linalg.solve", 0)
        s["kernels"] = kernels
        summaries.append(s)
    counts = [{k: v for k, v in s.items() if not k.endswith("_s")} for s in summaries]
    first = summaries[0]
    metrics = {k: v for k, v in first.items() if not k.endswith("_s") and k != "kernels"}
    for key in first:
        if key.endswith("_s"):
            metrics[key] = statistics.median(s[key] for s in summaries)
    geo = first["means.geomean_calls"]
    metrics["means.eigh_per_geomean"] = first["means.geomean_eigh"] / geo if geo else 0.0
    untraced_s = sum(r["seconds"] for r in untraced)
    traced_s = statistics.median(sum(r["seconds"] for r in p[1]) for p in passes)
    metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    all_records = untraced + [r for p in passes for r in p[1]]
    detail = {
        "counts_repeat": all(c == counts[0] for c in counts),
        "kernels": first["kernels"],
        "latency": latency_table(untraced),
        "traced_latency": latency_table([r for p in passes for r in p[1]]),
        "spans": len(tracer.span_start),
    }
    return metrics, all_records, detail, tracer


def blas_info():
    import ctypes
    import glob

    import numpy as np

    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            getter = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        threads = getter()
    return {"name": config.get("name"), "version": config.get("version"),
            "threads": threads, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--workdir")
    parser.add_argument("--result")
    args = parser.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(pgm.cli.__file__).resolve().parent.parent != src:
        print(f"error: imported pgm from {pgm.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.probe:
        ref_s = min(Reference().seconds() for _ in range(3))
        print(json.dumps({"import_s": IMPORT_S, "ref_s": ref_s}))
        return 0

    import numpy as np
    import scipy

    import workloads

    workload = workloads.BY_NAME[args.workload]
    workdir = Path(args.workdir)

    def draw(k):
        shutil.rmtree(workdir / f"d{k - 1}", ignore_errors=True)
        return workload.jobs(args.seed, workdir / f"d{k}", k)

    warm = {}
    for job in sorted(draw(0), key=lambda j: j.n):
        warm.setdefault(job.command, job)
    for job in warm.values():
        run_job(pgm.cli.main, job)
    t0 = time.perf_counter()
    jobs = draw(1)
    generate_s = time.perf_counter() - t0

    result = {
        "env": {
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info(),
        },
        "workload": {"name": workload.name, "why": workload.why, "jobs_per_pass": len(jobs)},
        "import_s": IMPORT_S,
        "generate_s": generate_s,
    }
    if args.trace:
        metrics, records, detail, tracer = traced(pgm.cli.main, jobs)
        result.update(detail)
        tracer.save(Path(args.result).with_suffix(".spans.npz"))
    else:
        rounds = max(math.ceil(args.seconds / workload.round_s), math.ceil(MIN_JOBS / len(jobs)))
        reference = Reference()
        records = []
        for k in range(1, rounds + 1):
            records += [run_job(pgm.cli.main, job, reference) for job in (jobs if k == 1 else draw(k))]
        metrics, shape = end_to_end(records, len(jobs), "scaled")
        raw, raw_shape = end_to_end(records, len(jobs), "seconds")
        result.update(shape, rounds=rounds, latency=latency_table(records), raw_metrics=raw,
                      raw_per_job_ms=raw_shape["per_job_ms"])
    result["metrics"] = metrics
    result["attempted"] = len(records)
    result["failures"] = [r for r in records if r["status"] != "ok"]
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

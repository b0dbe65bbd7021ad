"""pgm benchmark: CLI jobs in a closed loop, end-to-end and per-layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are listed in BENCHMARK.json; the job mixes are
built in workloads.py.  The program under test is ``src/pgm`` of the
checkout, imported from source; nothing is installed.

A run

1. times ``import pgm.cli`` in five fresh processes (``setup_s`` is
   their median; untraced runs only);
2. starts one worker process with BLAS fixed to one thread, which
   generates the seeded inputs under ``.perfbench_work/`` and runs the
   jobs (see worker.py);
3. prints environment metadata, the unscaled end-to-end figures and the
   latency of each (subcommand, n) as ``#`` lines, then one JSON line:
   ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
   ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, the
   ``per_layer`` ones with ``--trace 1``).

The end-to-end times (``jobs_per_s``, ``job_p50_ms``, ``job_tail_ms``,
``setup_s``) are scaled to a reference speed of the host: each job, and
each import, is timed together with a fixed numpy and Python loop
(``worker.Reference``), and its time is multiplied by ``REF_S`` over the
loop's time.  On a shared VM whose speed changes by 40% over minutes
this keeps runs comparable; the unscaled figures are printed beside.

A job fails when it raises, exits with an unexpected code, is refused
(exit 1 on an input that has an answer) or prints an output that fails
its check.  ``correct`` is false when some job gave a wrong answer or
crashed; a refusal counts as failed but is not a wrong answer.  The full
result, with the failures, is kept in ``.perfbench_work/results/``.

The run exits 2, without a result, when the checkout holds no
``src/pgm``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from worker import REF_S  # noqa: E402
PROBES = 5
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    env.pop("PGM_TOL", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def worker(args, timeout):
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=timeout)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 1


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pgm" / "cli.py").is_file():
        print(f"error: no src/pgm in {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    started = time.monotonic()

    work = ROOT / ".perfbench_work"
    results = work / "results"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    inputs = work / tag
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{tag}.json"
    result_path.unlink(missing_ok=True)

    setup = []
    if not args.trace:
        for _ in range(PROBES):
            probe = worker(["--probe"], timeout=60)
            if probe.returncode != 0:
                return fail(f"import probe failed:\n{probe.stderr}")
            sample = json.loads(probe.stdout)
            setup.append({"import_s": sample["import_s"],
                          "scaled_s": sample["import_s"] * REF_S / sample["ref_s"]})

    try:
        run = worker(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--workdir", str(inputs), "--result", str(result_path)],
                     timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        return fail("worker did not finish in time")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if run.returncode != 0:
        return fail(f"worker exited {run.returncode}:\n{run.stderr}")
    result = json.loads(result_path.read_text())

    metrics = dict(result["metrics"])
    if setup:
        metrics["setup_s"] = statistics.median(s["scaled_s"] for s in setup)
        result["raw_metrics"]["setup_s"] = statistics.median(s["import_s"] for s in setup)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not produced: {missing}")

    result["env"].update(nproc=os.cpu_count(), cpu=cpu_model(), commit=git_commit(),
                         setup_samples=setup)
    result["metrics"] = metrics
    result_path.write_text(json.dumps(result, indent=1))

    failures = result["failures"]
    print("# env " + json.dumps(result["env"], sort_keys=True))
    print("# workload " + json.dumps(result["workload"]))
    if "tail_percentile" in result:
        print(f"# job_tail_ms is p{result['tail_percentile']:.1f} of {result['jobs']} jobs "
              f"({result['rounds']} passes)")
    if "raw_metrics" in result:
        print("# unscaled " + json.dumps(result["raw_metrics"]))
    for row in result["latency"]:
        print(f"# latency {row['command']:<8} n={row['n']:<4} jobs={row['jobs']:<3} "
              f"median_ms={row['median_ms']:.3f}")
    kinds = Counter(f"{f['command']} {f['kind']} n={f['n']}: {f['status']} {f['reason']}"
                    for f in failures)
    for line, count in kinds.items():
        print(f"# failed x{count} {line}")
    print(json.dumps({
        "correct": all(f["status"] == "refused" for f in failures),
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

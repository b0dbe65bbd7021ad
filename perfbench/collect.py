"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

For every workload it runs ``perfbench/run.py`` once per seed, one run
at a time, and reports for each metric the median and the spread
``(Q3 - Q1) / median`` of the values, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  A spread is flagged
when it exceeds a third of the metric's bound in BENCHMARK.json.  With
``--out`` the per-run results, the summary and the environment of the
first run are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0][len("# env "):]) if lines[0].startswith("# env ") else {}
    return json.loads(lines[-1]), env


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / med if med else 0.0


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, env = run_once(workload, seed, args.seconds, args.trace)
            report.setdefault("env", env)
            runs.append(result)
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, rel = spread(values) if len(values) > 1 else (values[0], 0.0)
            summary[m["name"]] = {"median": med, "spread": rel, "unit": m["unit"]}
            bound = m.get("bound")
            flag = "" if bound is None or rel <= bound / 3 else f"  > bound/3 = {bound / 3:.3f}"
            print(f"  {m['name']:<24} median {med:<12.6g} spread {rel:.4f}{flag}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself (not part of the library's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench

Each check must accept the program's real output and reject a corrupted
one; the traced run must give the same counts twice.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pgm.cli  # noqa: E402

import oracles  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def smallest_jobs(name, tmp):
    """The smallest job of every (command, kind) of a workload."""
    picked = {}
    for job in sorted(workloads.BY_NAME[name].jobs(7, tmp, 1), key=lambda j: j.n):
        picked.setdefault((job.command, job.kind), job)
    return list(picked.values())


def run(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = pgm.cli.main(job.argv)
    text = Path(job.out).read_text() if job.out and Path(job.out).exists() else ""
    return rc, out.getvalue(), text


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real outputs of one job of every (command, kind) in all workloads."""
    found = {}
    for name in workloads.WORKLOAD_NAMES:
        tmp = tmp_path_factory.mktemp(name)
        for job in smallest_jobs(name, tmp):
            found[(job.command, job.kind)] = (job, *run(job))
    return found


def verdict(job, rc, stdout, text):
    return oracles.CHECKS[job.command](job.expect, rc, stdout, text)


def perturb_number(text, index, factor=1.001):
    """Scale the index-th decimal number in ``text``."""
    numbers = list(re.finditer(r"-?\d+\.\d+(?:e[-+]?\d+)?", text))
    hit = numbers[index]
    value = float(hit.group()) * factor + (1e-3 if float(hit.group()) == 0 else 0)
    return text[: hit.start()] + repr(value) + text[hit.end():]


def test_real_outputs_pass(outputs):
    for (command, kind), (job, rc, stdout, text) in outputs.items():
        v = verdict(job, rc, stdout, text)
        if kind == "ring0.8":
            assert v.status == "refused", v.reason
        else:
            assert v.ok, (command, kind, v.reason)


def test_every_check_rejects_a_wrong_exit_code(outputs):
    for (command, kind), (job, rc, stdout, text) in outputs.items():
        for bad in {0, 1, 2} - {rc}:
            v = verdict(job, bad, stdout, text)
            assert not v.ok, (command, kind, bad)
            assert v.status == ("refused" if bad == 1 and job.expect.get("exists", True)
                                and command != "check" else "wrong")


def write_matrix(m):
    return f"n {len(m)}\n" + "\n".join(" ".join(repr(float(x)) for x in row) for row in m) + "\n"


@pytest.mark.parametrize("kind", ["band2", "2tree", "ar1", "ring0.3", "grid"])
def test_complete_rejects_a_perturbed_entry(outputs, kind):
    job, rc, stdout, text = outputs[("complete", kind)]
    mask = job.expect["mask"]
    for specified in (True, False):
        i, j = np.argwhere((mask == specified) & ~np.eye(len(mask), dtype=bool))[0]
        m = oracles.read_matrix(text)
        m[i, j] = m[j, i] = m[i, j] * 1.001 + 1e-3
        assert not verdict(job, rc, stdout, write_matrix(m)).ok, (i, j)


def test_complete_rejects_an_asymmetric_or_missing_output(outputs):
    job, rc, stdout, text = outputs[("complete", "band2")]
    m = oracles.read_matrix(text)
    m[0, -1] += 1e-3
    assert not verdict(job, rc, stdout, write_matrix(m)).ok
    assert not verdict(job, rc, stdout, "").ok
    assert not verdict(job, rc, stdout.replace("converged: yes", "converged: no"), text).ok


def test_frustrated_ring_must_be_refused(outputs):
    job, rc, stdout, text = outputs[("complete", "frustrated")]
    assert rc == 1 and verdict(job, rc, stdout, text).ok
    assert verdict(job, 0, stdout, text).status == "wrong"


@pytest.mark.parametrize("kind", ["band2", "2tree", "band1-notpd", "ring", "grid"])
def test_check_rejects_a_flipped_verdict(outputs, kind):
    job, rc, stdout, text = outputs[("check", kind)]
    for line in ("chordal", "partial positive definite", "completable"):
        value = oracles.field_value(stdout, line)
        flipped = {"yes": "no", "no": "yes"}[value]
        bad = re.sub(rf"^{line}: {value}", f"{line}: {flipped}", stdout, flags=re.MULTILINE)
        assert not verdict(job, rc, bad, text).ok, line


def test_check_rejects_a_bad_witness(outputs):
    job, rc, stdout, text = outputs[("check", "ring")]
    cycle = re.search(r"chordless cycle: ([\d ]+)\)", stdout).group(1).split()
    bad = stdout.replace(" ".join(cycle), " ".join(cycle[:-1]))
    assert not verdict(job, rc, bad, text).ok


def test_karcher_rejects_a_perturbed_entry(outputs):
    job, rc, stdout, text = outputs[("karcher", "k3")]
    assert not verdict(job, rc, perturb_number(stdout, 0, 1.001), text).ok
    assert not verdict(job, rc, stdout.replace("converged: yes", "converged: no"), text).ok


def test_geomean_rejects_a_perturbed_entry(outputs):
    job, rc, stdout, text = outputs[("geomean", "pair")]
    head, body = text.split("\n", 1)
    assert not verdict(job, rc, stdout, head + "\n" + perturb_number(body, 3, 1.0001)).ok


def test_entropy_rejects_a_gap_or_a_wrong_entropy(outputs):
    job, rc, stdout, text = outputs[("entropy", "pair")]
    lines = stdout.splitlines()
    wide_gap = re.sub(r"\|diff\| = \S+", "|diff| = 1e-05", lines[1])
    assert not verdict(job, rc, "\n".join([lines[0], wide_gap, lines[2]]), text).ok
    shifted = "\n".join([lines[0], perturb_number(lines[1], 0, 1.01),
                         perturb_number(lines[2], 0, 1.01)])
    assert not verdict(job, rc, shifted, text).ok


@pytest.mark.parametrize("kind", ["pair3", "both3"])
def test_sweep_rejects_corrupted_tables(outputs, kind):
    job, rc, stdout, text = outputs[("sweep", kind)]
    rows = text.splitlines()
    finite = len(rows) // 2  # the centre cell, PD in every sweep input
    fields = rows[finite].split(",")
    fields[2] = repr(float(fields[2]) * 1.0001)
    bad_det = rows[:finite] + [",".join(fields)] + rows[finite + 1:]
    assert not verdict(job, rc, stdout, "\n".join(bad_det) + "\n").ok
    assert not verdict(job, rc, stdout, "\n".join(rows[:-1]) + "\n").ok
    nan_row = ",".join(fields[:2] + ["nan"] * (len(fields) - 2))
    bad_nan = rows[:finite] + [nan_row] + rows[finite + 1:]
    assert not verdict(job, rc, stdout, "\n".join(bad_nan) + "\n").ok


def test_sweep_both3_rejects_a_filled_infeasible_cell(outputs):
    job, rc, stdout, text = outputs[("sweep", "both3")]
    rows = text.splitlines()
    k = next(k for k, r in enumerate(rows[1:], 1) if "nan" in r)
    fields = rows[k].split(",")
    rows[k] = ",".join(fields[:2] + ["1.0"] * (len(fields) - 2))
    assert not verdict(job, rc, stdout, "\n".join(rows) + "\n").ok


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS]
    assert all(len(w.why) <= 200 for w in workloads.WORKLOADS)


def test_inputs_repeat_for_a_seed(tmp_path):
    for name in workloads.WORKLOAD_NAMES:
        a = workloads.BY_NAME[name].jobs(3, tmp_path / name / "a", 1)
        b = workloads.BY_NAME[name].jobs(3, tmp_path / name / "b", 1)
        c = workloads.BY_NAME[name].jobs(4, tmp_path / name / "c", 1)
        d = workloads.BY_NAME[name].jobs(3, tmp_path / name / "d", 2)
        files = lambda jobs: [Path(p).read_text() for j in jobs for p in j.argv if p.endswith(".txt")]  # noqa: E731
        assert files(a) == files(b)
        assert files(a) != files(c) and files(a) != files(d)
        shape = lambda jobs: [(j.command, j.kind, j.n) for j in jobs]  # noqa: E731
        assert shape(a) == shape(c) == shape(d)


def test_traced_counts_repeat(tmp_path):
    jobs = []
    for name in workloads.WORKLOAD_NAMES:
        if name != "sweep":
            jobs += smallest_jobs(name, tmp_path / name)
    first = worker.traced(pgm.cli.main, jobs)
    second = worker.traced(pgm.cli.main, jobs)
    assert first[2]["counts_repeat"] and second[2]["counts_repeat"]
    counts = [{k: v for k, v in r[0].items() if not k.endswith("_s") and k != "trace.overhead"}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["completion.refused"] == 1
    assert counts[0]["linalg.eigh_calls"] > 0 and counts[0]["cli.bytes_out"] > 0
    assert first[2]["kernels"] == second[2]["kernels"]


def test_tracer_self_time_excludes_children():
    from tracing import Tracer

    tracer = Tracer()
    inner = tracer._spanned(lambda: None, "linalg.inner")
    outer = tracer._spanned(lambda: inner(), "cli.outer")
    tracer.run_job(lambda argv: outer(), [])
    for sid, (start, end) in enumerate([(0.0, 10.0), (1.0, 9.0), (2.0, 5.0)]):
        tracer.span_start[sid], tracer.span_end[sid] = start, end
    s = tracer.pass_summary([0])
    assert s["cli.self_s"] == pytest.approx(5.0)
    assert s["linalg.self_s"] == pytest.approx(3.0)
    assert s["job.uncovered_s"] == pytest.approx(2.0)
    assert s["job.traced_s"] == pytest.approx(10.0)
    assert s["cli.calls"] == s["linalg.calls"] == 1

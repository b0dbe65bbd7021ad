"""Golden snapshot of the iterative solvers, bit for bit.

Each case runs ``max_det_completion`` on a seeded non-chordal input (rings, grids, random
patterns with chords, near-complete patterns) at every budget of ``BUDGETS``,
``karcher_mean`` on a seeded set at every budget of ``STEPS``, or ``agm_iteration`` on a
seeded pair, and compares its step count, its verdict, the exact bits of its scalar fields
and a SHA-256 of every result array (each AGM iterate included) with
``tests/golden/solvers.json``.  A refactor of the solver loops that moves one bit, or one
step, fails here.

Re-record the snapshot, after a deliberate change of the iterates only, with::

    PYTHONPATH=src python tests/test_solver_golden.py
"""

import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pgm import Pattern, agm_iteration, karcher_mean, max_det_completion, project
from pgm.errors import PgmError

GOLDEN = Path(__file__).resolve().parent / "golden" / "solvers.json"
BUDGETS = (1, 2, 3, 5, 500)
STEPS = (0, 1, 3, 200)


# The inputs are drawn here, not by the helpers of ``conftest``, so that a change to those
# helpers cannot move the snapshot.
def _spd(rng, n, spread=1.0):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    m = (q * np.exp(rng.uniform(-spread, spread, n))) @ q.T
    return 0.5 * (m + m.T)


def _ring(n):
    return [(i, i % n + 1) for i in range(1, n + 1)]


def _grid(r, c):
    at = lambda i, j: i * c + j + 1  # noqa: E731
    return ([(at(i, j), at(i, j + 1)) for i in range(r) for j in range(c - 1)]
            + [(at(i, j), at(i + 1, j)) for i in range(r - 1) for j in range(c)])


def _completion_input(kind, seed):
    """The partial matrix of one completion case."""
    rng = np.random.default_rng([seed, len(kind)])
    if kind == "circulant":  # rho^|i-j| around the ring, diagonally rescaled
        n, rho = int(rng.integers(6, 25)), float(rng.choice([0.3, 0.5, 0.8]))
        d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        s = np.exp(rng.uniform(-1.0, 1.0, n))
        full = s[:, None] * rho ** np.minimum(d, n - d) * s
        return project(full, Pattern.from_pairs(n, _ring(n)))
    if kind == "angles":  # unit diagonal, cos theta on the edges: some have no PD completion
        theta = rng.uniform(0.0, math.pi, int(rng.integers(4, 24)))
        n = len(theta)
        full = np.eye(n)
        for k, t in enumerate(theta):
            full[k, (k + 1) % n] = full[(k + 1) % n, k] = math.cos(t)
        return project(full, Pattern.from_pairs(n, _ring(n)))
    if kind == "frustrated":  # 0.99 on every edge but -0.99 on (1, n)
        n = (6, 15, 23, 24, 30)[seed]
        full = np.eye(n) + 0.99 * (np.eye(n, k=1) + np.eye(n, k=-1))
        full[0, n - 1] = full[n - 1, 0] = -0.99
        return project(full, Pattern.from_pairs(n, _ring(n)))
    if kind == "grid":
        r, c = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        return project(_spd(rng, r * c, 1.5), Pattern.from_pairs(r * c, _grid(r, c)))
    if kind == "chords":  # a ring with random chords, mostly not chordal
        n = int(rng.integers(6, 16))
        pairs = _ring(n) + [(i, j) for i in range(1, n) for j in range(i + 2, n + 1)
                            if (i, j) != (1, n) and rng.random() < 0.15]
        return project(_spd(rng, n, 2.0), Pattern.from_pairs(n, pairs))
    # near-complete: a few pairs missing, where the sweeps run without Newton
    n = int(rng.integers(8, 21))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    drop = {pairs[k] for k in rng.choice(len(pairs), size=4, replace=False)}
    return project(_spd(rng, n, 2.0), Pattern.from_pairs(n, [p for p in pairs if p not in drop]))


COMPLETIONS = {"circulant": 8, "angles": 10, "frustrated": 5, "grid": 6, "chords": 8, "near": 4}
KARCHER = [(2, 2, 0.5), (3, 3, 1.0), (5, 3, 2.0), (8, 4, 1.0), (10, 4, 3.0), (15, 6, 1.0)]


def _hash(a):
    a = np.ascontiguousarray(a, dtype=float)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _hex(x):
    return float(x).hex()


def _completion(kind, seed, budget):
    try:
        rep = max_det_completion(_completion_input(kind, seed), max_cycles=budget)
    except PgmError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"iterations": rep.iterations, "converged": rep.converged, "matrix": _hash(rep.matrix),
            "log_determinant": _hex(rep.log_determinant), "residual": _hex(rep.residual)}


def _karcher(case, budget):
    n, k, spread = KARCHER[case]
    rng = np.random.default_rng([case, 7])
    mats = [_spd(rng, n, spread) for _ in range(k)]
    weights = rng.uniform(0.5, 2.0, k)
    res = karcher_mean(weights / weights.sum(), mats, max_steps=budget)
    return {"steps": res.steps, "converged": res.converged, "matrix": _hash(res.matrix),
            "gradient_norm": _hex(res.gradient_norm)}


def _agm(seed):
    rng = np.random.default_rng([seed, 11])
    n = int(rng.integers(2, 9))
    res = agm_iteration(_spd(rng, n, 0.5 + seed), _spd(rng, n, 0.5 + seed))
    return {"iterations": res.iterations, "converged": res.converged, "matrix": _hash(res.matrix),
            "lower_iterates": [_hash(x) for x in res.lower_iterates],
            "upper_iterates": [_hash(x) for x in res.upper_iterates]}


def cases():
    """``{name: thunk}`` of every case, the thunk returning its snapshot record."""
    table = {}
    for kind, count in COMPLETIONS.items():
        for seed in range(count):
            for budget in BUDGETS:
                table[f"complete-{kind}-{seed}-{budget}"] = (_completion, kind, seed, budget)
    for case in range(len(KARCHER)):
        for budget in STEPS:
            table[f"karcher-{case}-{budget}"] = (_karcher, case, budget)
    for seed in range(8):
        table[f"agm-{seed}"] = (_agm, seed)
    return table


CASES = cases()


@functools.cache
def _snapshot():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_has_a_snapshot():
    assert sorted(_snapshot()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_snapshot(name):
    func, *args = CASES[name]
    assert func(*args) == _snapshot()[name]


def _record():
    """Write the snapshot from the code in this checkout."""
    snapshot = {name: func(*args) for name, (func, *args) in CASES.items()}
    GOLDEN.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _record()

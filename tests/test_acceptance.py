"""Acceptance criteria.

Each test pins one end-to-end criterion at its stated tolerance and
prints a PASS line (run with ``pytest -s`` or ``-rA`` to see them).
Two numeric literals below correct transcription slips in the source
values they reproduce: the 5x5 interval radius is sqrt(1036)/13 (the
center 10/13 and det C = 13 force the denominator), and the three-by-
three feasibility region boundary is 6 + 2xy - 2x^2 - 2y^2 (the direct
determinant expansion).
"""

import bisect
import math
import time

import numpy as np
import pytest
from numpy.linalg import det

from pgm import (
    DEFAULT_TOL,
    NotCompletable,
    WeightVector,
    agm_iteration,
    det_integral_identity,
    entropy_identities,
    feasibility_range,
    fro_norm,
    geomean,
    geomean_properties_check,
    is_chordal,
    is_partial_pd,
    karcher_mean,
    max_det_completion,
    missing_positions,
    op_norm,
    partial_entry_bounds,
    riemannian_dist,
    sym,
)
from pgm.cli import sweep_csv
from pgm import Pattern, PartialMatrix
from conftest import (
    GOLDEN_MEAN_DISPLAYED,
    ex1_partial_a,
    ex1_partial_b,
    ex2_partial_a,
    ex2_partial_b,
    frustrated_four_cycle,
    golden_pair_completions,
    identity_ring_partial,
    rand_chordal_pattern,
    rand_invertible,
    rand_partial_pd,
    rand_spd,
    spectral_fn,
)


def _report(num, text, started):
    print(f"PASS criterion {num}: {text} ({time.perf_counter() - started:.2f}s)")


def test_criterion_01_non_completability():
    started = time.perf_counter()
    pm = frustrated_four_cycle()
    assert is_partial_pd(pm)
    assert not is_chordal(pm.pattern).chordal
    with pytest.raises(NotCompletable):
        max_det_completion(pm)
    assert time.perf_counter() - started < 1.0
    _report(1, "partial PD but non-chordal pattern has no PSD completion", started)


def test_criterion_02_feasibility_intervals_3x3():
    started = time.perf_counter()
    iva = feasibility_range(ex1_partial_a())
    assert abs(iva.lower - (-10.0 / 3.0)) <= 1e-10
    assert abs(iva.upper - 2.0) <= 1e-10
    ivb = feasibility_range(ex1_partial_b())
    assert abs(ivb.lower - (-3.0 - 3.0 * math.sqrt(11.0)) / 5.0) <= 1e-10
    assert abs(ivb.upper - (3.0 * math.sqrt(11.0) - 3.0) / 5.0) <= 1e-10
    entry_a = max_det_completion(ex1_partial_a()).matrix[0, 2]
    entry_b = max_det_completion(ex1_partial_b()).matrix[0, 2]
    assert abs(entry_a - (-2.0 / 3.0)) <= 1e-10
    assert abs(entry_b - (-3.0 / 5.0)) <= 1e-10
    assert time.perf_counter() - started < 1.0
    _report(2, "3x3 feasibility intervals and max-det entries", started)


def test_criterion_03_feasibility_intervals_5x5():
    started = time.perf_counter()
    iva = feasibility_range(ex2_partial_a())
    # radius sqrt(det A * det B)/det C = sqrt(28 * 37)/13 = sqrt(1036)/13
    assert abs(iva.lower - (10.0 - math.sqrt(1036.0)) / 13.0) <= 1e-9
    assert abs(iva.upper - (10.0 + math.sqrt(1036.0)) / 13.0) <= 1e-9
    ivb = feasibility_range(ex2_partial_b())
    assert abs(ivb.lower - (4.0 - math.sqrt(34.0)) / 9.0) <= 1e-9
    assert abs(ivb.upper - (4.0 + math.sqrt(34.0)) / 9.0) <= 1e-9
    entry_a = max_det_completion(ex2_partial_a()).matrix[0, 4]
    entry_b = max_det_completion(ex2_partial_b()).matrix[0, 4]
    assert abs(entry_a - 10.0 / 13.0) <= 1e-9
    assert abs(entry_b - 4.0 / 9.0) <= 1e-9
    assert time.perf_counter() - started < 1.0
    _report(3, "5x5 feasibility intervals and optima 10/13, 4/9", started)


def test_criterion_04_geometric_mean_golden_value():
    started = time.perf_counter()
    a1, a2 = golden_pair_completions()
    mean = geomean(a1, a2, 0.5)
    assert np.abs(mean - GOLDEN_MEAN_DISPLAYED).max() <= 5e-4
    assert time.perf_counter() - started < 1.0
    _report(4, "4x4 golden geometric mean reproduced to 5e-4", started)


def test_criterion_05_property_suite():
    started = time.perf_counter()
    failures = []
    for n in (2, 3, 5, 8):
        rng = np.random.default_rng(1000 + n)
        for trial in range(200):
            a, b, c, d = (rand_spd(rng, n) for _ in range(4))
            report = geomean_properties_check(
                a, b, c, d,
                t=float(rng.uniform(0, 1)),
                lam=float(rng.uniform(0, 1)),
                s=rand_invertible(rng, n),
                rtol=1e-8,
            )
            if not report.all_hold:
                failures.append((n, trial, report))
    assert not failures, failures[:3]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(5, "property suite on 200 random tuples per dimension", started)


def _random_low_missing_instance(rng, n):
    """Chordal pattern with 1 or 2 missing entries (2 share a vertex)."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if rng.random() < 0.5:
        drop = [pairs[int(rng.integers(len(pairs)))]]
    else:
        i = int(rng.integers(1, n + 1))
        others = rng.choice([v for v in range(1, n + 1) if v != i], size=2, replace=False)
        drop = [tuple(sorted((i, int(v)))) for v in others]
    pattern = Pattern.from_pairs(n, [p for p in pairs if p not in drop])
    return rand_partial_pd(rng, pattern)


def test_criterion_06_max_det_certificate_and_grid():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    instances = []
    while len(instances) < 50:
        g = rand_chordal_pattern(rng, int(rng.integers(3, 11)))
        if missing_positions(g):
            instances.append(rand_partial_pd(rng, g))
    while len(instances) < 100:
        instances.append(_random_low_missing_instance(rng, int(rng.integers(3, 11))))
    for pm in instances:
        rep = max_det_completion(pm)
        assert rep.converged
        inv = np.linalg.inv(rep.matrix)
        bound = 1e-8 * op_norm(inv)
        for i, j in missing_positions(pm.pattern):
            assert abs(inv[i - 1, j - 1]) <= bound
        missing = missing_positions(pm.pattern)
        if len(missing) <= 2:
            bounds = [partial_entry_bounds(pm, pos) for pos in missing]
            grids = [np.linspace(lo, hi, 41) for lo, hi in bounds]
            m = pm.to_dense()
            best = -np.inf
            for values in np.stack(np.meshgrid(*grids), axis=-1).reshape(-1, len(missing)):
                for (i, j), v in zip(missing, values):
                    m[i - 1, j - 1] = m[j - 1, i - 1] = v
                if np.linalg.eigvalsh(m)[0] > 0:
                    best = max(best, det(m))
            assert rep.determinant >= best - 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(6, "inverse-zero certificate and grid optimality on 100 instances", started)


def test_criterion_07_integral_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a0, a1 = rand_spd(rng, n, spread=0.8), rand_spd(rng, n, spread=0.8)
        lhs, rhs = det_integral_identity(a0, a1)
        assert abs(lhs - rhs) <= 1e-8
        ids = entropy_identities(a0, a1, t=float(rng.uniform(0, 1)))
        assert abs(ids.entropy_diff - ids.entropy_diff_integral) <= 1e-8
        assert abs(ids.entropy_geomean - ids.entropy_interpolated) <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(7, "determinant and entropy integral identities on 50 pairs", started)


def test_criterion_08_karcher_mean():
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a, b = rand_spd(rng, n), rand_spd(rng, n)
        res = karcher_mean(WeightVector.uniform(2), [a, b])
        assert riemannian_dist(res.matrix, geomean(a, b, 0.5)) <= 1e-7
    for _ in range(10):
        n = int(rng.integers(2, 6))
        mats = [np.diag(rng.uniform(0.5, 2.0, n)) for _ in range(3)]
        res = karcher_mean(WeightVector.uniform(3), mats)
        expected = np.diag(np.exp(np.mean([np.log(np.diag(m)) for m in mats], axis=0)))
        assert fro_norm(res.matrix - expected) <= 1e-8
    for _ in range(20):
        n = int(rng.integers(2, 6))
        mats = [rand_spd(rng, n) for _ in range(3)]
        raw = rng.uniform(0.5, 1.5, 3)
        weights = WeightVector(tuple(raw / raw.sum()))
        res = karcher_mean(weights, mats)
        assert res.gradient_norm <= 1e-6
        ris = spectral_fn(res.matrix, lambda v: 1 / np.sqrt(v))
        grad = sum(w * spectral_fn(sym(ris @ m @ ris), np.log) for w, m in zip(weights, mats))
        assert fro_norm(grad) <= 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(8, "Karcher midpoint, commuting oracle, gradient certificate", started)


def test_criterion_09_agm_iteration():
    started = time.perf_counter()
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        a, b = rand_spd(rng, n), rand_spd(rng, n)
        res = agm_iteration(a, b)
        g = geomean(a, b, 0.5)
        assert riemannian_dist(res.matrix, g) <= 1e-8
        scale = max(op_norm(a), op_norm(b))
        for lower, upper in zip(res.lower_iterates, res.upper_iterates):
            assert np.linalg.eigvalsh(sym(g - lower))[0] >= -1e-9 * scale
            assert np.linalg.eigvalsh(sym(upper - g))[0] >= -1e-9 * scale
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(9, "AGM iteration matches the geometric mean with sandwich", started)


def _csv_rows(text):
    return [
        [float(tok) for tok in line.split(",")]
        for line in text.strip().split("\n")[1:]
    ]


def _assert_argmax_within_cell(rows, x_opt, y_opt):
    finite = [r for r in rows if not math.isnan(r[2])]
    best = max(finite, key=lambda r: r[2])
    xs = sorted({r[0] for r in rows})
    ys = sorted({r[1] for r in rows})
    x_cell = xs[1] - xs[0]
    y_cell = ys[1] - ys[0]
    assert abs(best[0] - x_opt) <= x_cell * (1 + 1e-9)
    assert abs(best[1] - y_opt) <= y_cell * (1 + 1e-9)


def test_criterion_10_sweep_surfaces():
    started = time.perf_counter()
    tol = DEFAULT_TOL

    rows = _csv_rows(sweep_csv(ex1_partial_a(), ex1_partial_b(), grid=101, t=0.5, tol=tol))
    _assert_argmax_within_cell(rows, -2.0 / 3.0, -3.0 / 5.0)

    rows = _csv_rows(sweep_csv(ex2_partial_a(), ex2_partial_b(), grid=101, t=0.5, tol=tol))
    _assert_argmax_within_cell(rows, 10.0 / 13.0, 4.0 / 9.0)

    rows = _csv_rows(
        sweep_csv(identity_ring_partial(10), identity_ring_partial(10), grid=101, t=0.5, tol=tol)
    )
    _assert_argmax_within_cell(rows, 0.0, 0.0)
    table = {(r[0], r[1]): r[2] for r in rows}
    for (x, y), d in table.items():
        assert abs(d - table[(y, x)]) <= 1e-9
    xs = sorted({r[0] for r in rows})

    def mirror(v):
        # the grid point nearest -v: only the two neighbours of -v compete
        k = bisect.bisect_left(xs, -v)
        return min(xs[max(k - 1, 0) : k + 1], key=lambda u: abs(u + v))

    for (x, y), d in table.items():
        # the grid is symmetric under negation up to float spacing error
        assert abs(d - table[(mirror(x), mirror(y))]) <= 1e-9

    swept = PartialMatrix(
        pattern=Pattern.from_pairs(3, [(1, 2)]),
        values={(1, 1): 2.0, (2, 2): 2.0, (3, 3): 2.0, (1, 2): 1.0},
    )
    fixed_vals = np.array([[4.0, 3.0, 0.0], [3.0, 5.0, -1.0], [0.0, -1.0, 2.0]])
    fixed = PartialMatrix(
        pattern=Pattern.complete(3),
        values={(i, j): fixed_vals[i - 1, j - 1] for i in range(1, 4) for j in range(i, 4)},
    )
    rows = _csv_rows(sweep_csv(swept, fixed, grid=101, t=0.5, tol=tol))
    _assert_argmax_within_cell(rows, 0.0, 0.0)
    for x, y, d, *_ in rows:
        # det expansion of [[2,1,x],[1,2,y],[x,y,2]]
        boundary = 6.0 + 2.0 * x * y - 2.0 * x * x - 2.0 * y * y
        assert (not math.isnan(d)) == (boundary > 0.0), (x, y, d, boundary)

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(10, "sweeps reproduce optima, symmetry, and exact feasible region", started)


def test_criterion_11_fischer_block_bound():
    started = time.perf_counter()
    pa, pb = ex1_partial_a(), ex1_partial_b()
    n = pa.n
    pairs = [(i, j) for i, j in pa.pattern.edges if i != j]
    pairs += [(i + n, j + n) for i, j in pb.pattern.edges if i != j]
    pattern = Pattern.from_pairs(2 * n, pairs)
    values = dict(pa.values)
    values.update({(i + n, j + n): v for (i, j), v in pb.values.items()})
    joint = PartialMatrix(pattern=pattern, values=values)

    rep = max_det_completion(joint)
    da = max_det_completion(pa).determinant
    db = max_det_completion(pb).determinant
    assert rep.converged
    assert abs(rep.determinant - da * db) <= 1e-10 * rep.determinant
    off = rep.matrix[:n, n:]
    assert np.abs(off).max() <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(11, "block-diagonal completion attains the Fischer bound at X=0", started)

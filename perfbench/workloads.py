"""Seeded inputs and job mixes of the four benchmark workloads.

A workload is a fixed list of jobs: a ``pgm`` subcommand, its argument
list and the input files it reads.  The sizes and input classes of a
workload never change with the seed; the seed draws the numbers inside
the files (random SPD matrices, diagonal scalings, random chordal
patterns, weights), so every seed costs about the same and the program
sees nothing but the generated files.

Each job carries an ``expect`` record for its check in :mod:`oracles`,
computed here with numpy only, before any job is timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from oracles import band_mask, grid_mask, ring_mask


@dataclass
class Job:
    command: str
    kind: str
    n: int
    argv: list
    expect: dict
    out: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    round_s: float
    build: object

    def jobs(self, seed, workdir, draw=0):
        """The workload's jobs, with inputs from draw ``draw`` of ``seed``.

        Every draw has the same job classes and sizes in the same order;
        the worker takes a fresh draw for every pass, so no input is run
        twice and a job slot's median spans several random inputs.
        """
        rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name), draw])
        Path(workdir).mkdir(parents=True, exist_ok=True)
        return self.build(_Inputs(rng, Path(workdir)))


class _Inputs:
    """Draws inputs from one generator and writes them as pgm text files."""

    def __init__(self, rng, workdir):
        self.rng = rng
        self.workdir = workdir
        self.count = 0

    def path(self, stem):
        self.count += 1
        return str(self.workdir / f"{self.count:03d}-{stem}.txt")

    def write(self, stem, full, mask):
        path = self.path(stem)
        n = full.shape[0]
        rows = [f"n {n}"]
        for i in range(n):
            tokens = ["?"] * n
            for j in np.flatnonzero(mask[i]):
                tokens[j] = repr(float(full[i, j]))
            rows.append(" ".join(tokens))
        Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
        return path

    def spd(self, n, lo=0.5, hi=2.0):
        """Random SPD matrix with eigenvalues log-uniform in [lo, hi]."""
        q, _ = np.linalg.qr(self.rng.standard_normal((n, n)))
        w = np.exp(self.rng.uniform(np.log(lo), np.log(hi), n))
        s = (q * w) @ q.T
        return 0.5 * (s + s.T)

    def scaled(self, s):
        """``D S D`` for a random diagonal D with entries in [0.5, 2]."""
        d = np.exp(self.rng.uniform(np.log(0.5), np.log(2.0), s.shape[0]))
        return np.outer(d, d) * s

    def chordal_mask(self, n):
        """Random 2-tree: each new vertex joins both ends of a random
        earlier edge.  Chordal by construction, with 2n - 3 edges and
        triangles for maximal cliques, so only the shape is random."""
        mask = np.eye(n, dtype=bool)
        mask[0, 1] = mask[1, 0] = True
        edges = [(0, 1)]
        for v in range(2, n):
            a, b = edges[self.rng.integers(len(edges))]
            mask[a, v] = mask[v, a] = mask[b, v] = mask[v, b] = True
            edges += [(a, v), (b, v)]
        return mask

    # ---- jobs

    def complete(self, kind, full, mask, exists=True):
        n = full.shape[0]
        path = self.write(f"{kind}-n{n}", full, mask)
        out = path[:-4] + ".out"
        expect = {"full": full, "mask": mask, "exists": exists, "closed_form": None}
        if exists and oracles.perfect_elimination_order(mask) is not None:
            expect["closed_form"] = oracles.maxdet_chordal(full, mask)
        return Job("complete", kind, n, ["complete", path, "--out", out], expect, out)

    def check(self, kind, full, mask, chordal, bad_cliques=0):
        n = full.shape[0]
        path = self.write(f"check-{kind}-n{n}", full, mask)
        expect = {"mask": mask, "chordal": chordal, "partial_pd": bad_cliques == 0,
                  "bad_cliques": bad_cliques}
        return Job("check", kind, n, ["check", path], expect)

    def few_missing(self, n):
        """An SPD matrix with entries (1, n-1) and (1, n) missing: chordal,
        because vertex 1 stays simplicial."""
        mask = np.ones((n, n), dtype=bool)
        mask[0, n - 2:] = mask[n - 2:, 0] = False
        return self.spd(n), mask

    def karcher(self, n, k):
        paths, mats = [], []
        for idx in range(k):
            full, mask = self.few_missing(n) if idx == 0 else (self.spd(n), np.ones((n, n), bool))
            paths.append(self.write(f"karcher-n{n}k{k}-{idx}", full, mask))
            mats.append(oracles.completed(full, mask))
        w = self.rng.uniform(0.5, 1.5, k)
        w = w / w.sum()
        expect = {"mean": oracles.karcher_mean(mats, w)}
        argv = ["karcher", "--weights", ",".join(repr(float(x)) for x in w), *paths]
        return Job("karcher", f"k{k}", n, argv, expect)

    def pair(self, command, n):
        fa, ma = self.few_missing(n)
        fb = self.spd(n)
        pa = self.write(f"{command}-n{n}-a", fa, ma)
        pb = self.write(f"{command}-n{n}-b", fb, np.ones((n, n), bool))
        a, b = oracles.completed(fa, ma), fb
        if command == "geomean":
            out = pa[:-6] + ".out"
            return Job("geomean", "pair", n, ["geomean", pa, pb, "--out", out],
                       {"a": a, "b": b}, out)
        ha, hb = oracles.gaussian_entropy(a), oracles.gaussian_entropy(b)
        return Job("entropy", "pair", n, ["entropy", pa, pb],
                   {"diff": hb - ha, "interp": 0.5 * (ha + hb)})

    def sweep(self, kind, n, a_missing, b_missing):
        """``sweep --grid 101``; x runs over the first missing position in
        row-major order (in A when each input has one), y over the second."""
        fa, fb = self.spd(n), self.spd(n)
        ma, mb = np.ones((n, n), bool), np.ones((n, n), bool)
        for mask, positions in ((ma, a_missing), (mb, b_missing)):
            for i, j in positions:
                mask[i, j] = mask[j, i] = False
        pa = self.write(f"sweep-{kind}-n{n}-a", fa, ma)
        pb = self.write(f"sweep-{kind}-n{n}-b", fb, mb)
        out = pa[:-6] + ".csv"
        if len(a_missing) == 2:
            swept = {"a_x": a_missing[0], "a_y": a_missing[1], "b_x": None, "b_y": None}
            boxes = [_box(fa, ma, p) for p in a_missing]
        else:
            swept = {"a_x": a_missing[0], "a_y": None, "b_x": None, "b_y": b_missing[0]}
            boxes = [_box(fa, ma, a_missing[0]), _box(fb, mb, b_missing[0])]
        expect = {"grid": 101, "n": n, "t": 0.5, "a": fa * ma, "b": fb * mb,
                  "x_box": boxes[0], "y_box": boxes[1], **swept}
        return Job("sweep", kind, n, ["sweep", pa, pb, "--grid", "101", "--out", out], expect, out)


def _box(full, mask, pos):
    """Values at ``pos`` keeping every clique containing it PD.

    With one missing entry this is the feasibility interval of the full
    matrix, ``|x - v^T C^-1 w| < sqrt(det A det B) / det C``.  With two
    missing entries in a 3x3 (the only such input here) the new entry's
    only clique is the pair itself: ``|x| < sqrt(a_ii a_jj)``.
    """
    i, j = pos
    n = full.shape[0]
    if (~mask).sum() == 4:
        half = float(np.sqrt(full[i, i] * full[j, j]))
        return -half, half
    rest = [k for k in range(n) if k not in (i, j)]
    c = full[np.ix_(rest, rest)]
    v, w = full[rest, i], full[rest, j]
    center = float(v @ np.linalg.solve(c, w))
    a = full[np.ix_([i] + rest, [i] + rest)]
    b = full[np.ix_([j] + rest, [j] + rest)]
    half = float(np.sqrt(np.linalg.det(a) * np.linalg.det(b)) / np.linalg.det(c))
    return center - half, center + half


# ------------------------------------------------------------- workloads


def _complete_chordal(g):
    """``complete`` on band-2 (n 10-40) and random 2-tree (n 20-40) inputs
    with a PD zero fill, and on AR(1) with rho = 0.95 on a band-1 pattern
    (n 20, 30), whose zero fill is not PD so the feasible fill runs;
    ``check`` on band-2 and 2-tree patterns at n 100-400 and on one band-1
    input at n = 300 with one clique that is not PD."""
    jobs = [g.complete("band2", g.spd(n), band_mask(n, 2)) for n in (10, 20, 30, 40)]
    jobs += [g.complete("2tree", g.spd(n), g.chordal_mask(n)) for n in (20, 30, 40)]
    for n in (20, 30):
        i = np.arange(n)
        ar1 = g.scaled(0.95 ** np.abs(i[:, None] - i[None, :]))
        jobs.append(g.complete("ar1", ar1, band_mask(n, 1)))
    jobs += [g.check("band2", g.spd(n), band_mask(n, 2), True) for n in (100, 400)]
    jobs += [g.check("2tree", g.spd(n), g.chordal_mask(n), True) for n in (200, 400)]
    broken = g.spd(300)
    broken[150, 151] = broken[151, 150] = 1.5 * np.sqrt(broken[150, 150] * broken[151, 151])
    jobs.append(g.check("band1-notpd", broken, band_mask(300, 1), True, bad_cliques=1))
    return jobs


def _circulant(n, rho):
    i = np.arange(n)
    d = np.abs(i[:, None] - i[None, :])
    return rho ** np.minimum(d, n - d)


def _frustrated(n):
    full = np.eye(n) + 0.99 * (np.eye(n, k=1) + np.eye(n, k=-1))
    full[0, n - 1] = full[n - 1, 0] = -0.99
    return full


def _complete_cycle(g):
    """``complete`` on rings projected from circulant rho^|i-j| matrices
    (rho 0.3, 0.5, 0.8; n 8-24), on 2-D grids projected from random SPD
    matrices (n 12-30), and on frustrated rings (0.99 on every edge but
    one at -0.99, n < 22), which have no PD completion and must exit 1;
    ``check`` on rings and grids at n 100-400.

    Every ring is completable by construction.  The rho = 0.8 rings have
    no PD zero fill, which the non-chordal path needs, so the seed
    refuses them: they count as failed jobs."""
    jobs = []
    for rho in (0.3, 0.5, 0.8):
        jobs += [g.complete(f"ring{rho}", g.scaled(_circulant(n, rho)), ring_mask(n))
                 for n in (8, 16, 24)]
    jobs += [g.complete("grid", g.spd(r * c), grid_mask(r, c)) for r, c in ((3, 4), (4, 5), (5, 6))]
    jobs += [g.complete("frustrated", g.scaled(_frustrated(n)), ring_mask(n), exists=False)
             for n in (6, 12, 18)]
    jobs += [g.check("ring", g.spd(n), ring_mask(n), False) for n in (100, 400)]
    jobs += [g.check("grid", g.spd(r * r), grid_mask(r, r), False) for r in (10, 20)]
    return jobs


def _means(g):
    """``karcher`` at (n, k) = (5, 3), (10, 4), (15, 6) and ``geomean`` and
    ``entropy`` on pairs at n = 10, 30, 60; the first input of each set
    misses two entries on a chordal pattern."""
    jobs = [g.karcher(n, k) for n, k in ((5, 3), (10, 4), (15, 6))]
    jobs += [g.pair("geomean", n) for n in (10, 30, 60)]
    jobs += [g.pair("entropy", n) for n in (10, 30, 60)]
    return jobs


def _sweep(g):
    """``sweep --grid 101`` on two 3x3 pairs with one missing entry each,
    one 3x3 missing both entries beside a complete companion (its box
    has infeasible, NaN cells), and one n = 8 pair."""
    return [
        g.sweep("pair3", 3, [(0, 2)], [(0, 2)]),
        g.sweep("pair3", 3, [(0, 1)], [(1, 2)]),
        g.sweep("both3", 3, [(0, 2), (1, 2)], []),
        g.sweep("pair8", 8, [(0, 7)], [(2, 5)]),
    ]


WORKLOADS = [
    Workload(
        "complete-chordal",
        "complete on band-2, random 2-tree and AR(1) inputs, n 10-40, and check at n 100-400: "
        "completion and pattern layers do the work; a closed form shows here, linalg or means "
        "changes do not",
        round_s=1.7,
        build=_complete_chordal,
    ),
    Workload(
        "complete-cycle",
        "complete on rings (rho 0.3/0.5/0.8), grids and frustrated rings, n 6-30, and check at "
        "n 100-400: the non-chordal cyclic sweep and cycle search; chordal-only changes show nothing",
        round_s=2.0,
        build=_complete_cycle,
    ),
    Workload(
        "means",
        "karcher at (n, k) = (5,3) (10,4) (15,6), geomean and entropy pairs at n 10-60: "
        "mid-size decompositions in linalg and the means layer do the work, completion little",
        round_s=2.2,
        build=_means,
    ),
    Workload(
        "sweep",
        "sweep --grid 101 on 3x3 pairs, a 3x3 with both entries missing and an n=8 pair: ~1e4 "
        "tiny geomeans per job and the largest CLI output, dispatch-bound linalg and cli formatting",
        round_s=4.5,
        build=_sweep,
    ),
]

WORKLOAD_NAMES = [w.name for w in WORKLOADS]
BY_NAME = {w.name: w for w in WORKLOADS}

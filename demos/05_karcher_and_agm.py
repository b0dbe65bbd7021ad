#!/usr/bin/env python3
"""Multi-matrix means: Karcher mean and the arithmetic-harmonic squeeze.

The Karcher mean minimizes the weighted sum of squared Riemannian
distances.  One pass of the weighted inductive mean (walking the
geodesic toward each matrix in turn with shrinking steps) gives the
start point; a fixed-point iteration with the Bini-Iannazzo step size
then drives the Riemannian gradient to zero, and its norm certifies the
result.  For two matrices the arithmetic-harmonic iteration squeezes
both sequences onto A # B.
"""

import numpy as np

from pgm import (
    agm_iteration,
    fro_norm,
    geomean,
    karcher_mean,
    riemannian_dist,
)

rng = np.random.default_rng(1)


def rand_spd(n):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q @ np.diag(np.exp(rng.uniform(-1, 1, n))) @ q.T


mats = [rand_spd(4) for _ in range(3)]
weights = (0.5, 0.3, 0.2)
res = karcher_mean(weights, mats)
print("karcher mean of 3 matrices, weights", weights)
print(np.array_str(res.matrix, precision=6))
print(f"steps: {res.steps}, gradient norm: {res.gradient_norm:.3e}, converged: {res.converged}")

# Two matrices with equal weights: the Karcher mean is the geodesic
# midpoint, recovered exactly.
a, b = rand_spd(4), rand_spd(4)
two = karcher_mean((0.5, 0.5), [a, b])
print("\ntwo-matrix mean vs geodesic midpoint:",
      f"delta = {riemannian_dist(two.matrix, geomean(a, b, 0.5)):.3e}",
      f"({two.steps} steps)")

# Commuting matrices reduce to entrywise geometric means.
diags = [np.diag(rng.uniform(0.5, 2.0, 4)) for _ in range(3)]
com = karcher_mean((1 / 3,) * 3, diags)
expected = np.diag(np.exp(np.mean([np.log(np.diag(d)) for d in diags], axis=0)))
print("commuting case error:", f"{fro_norm(com.matrix - expected):.3e}")

# Arithmetic-harmonic iteration: quadratic squeeze onto A # B.
agm = agm_iteration(a, b)
print(f"\nAGM iteration: {agm.iterations} steps,"
      f" delta to A#B = {riemannian_dist(agm.matrix, geomean(a, b, 0.5)):.3e}")
widths = [fro_norm(u - l) for l, u in zip(agm.lower_iterates, agm.upper_iterates)]
print("gap per step:", ", ".join(f"{w:.2e}" for w in widths))

#!/usr/bin/env python3
"""The weighted geometric mean A #_t B, of full and of partial matrices.

A #_t B traces the unique geodesic from A to B for the Riemannian trace
metric on the SPD cone.  The mean of two PARTIAL matrices is a set (all
pairwise means of completions); its maximum-determinant representative is
the mean of the two max-det completions.
"""

import numpy as np

from pgm import (
    Pattern,
    PartialMatrix,
    geomean,
    partial_geomean_maxdet,
    riemannian_dist,
    set_geomean,
)

rng = np.random.default_rng(0)


def rand_spd(n):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q @ np.diag(np.exp(rng.uniform(-1, 1, n))) @ q.T


a, b = rand_spd(3), rand_spd(3)
print("distance delta(A, B) =", f"{riemannian_dist(a, b):.6g}")
for t in (0.0, 0.25, 0.5, 1.0):
    g = geomean(a, b, t)
    print(f"  t={t:4.2f}: delta(A, A#tB) = {riemannian_dist(a, g):.6g}"
          f"  (= t * delta exactly on a geodesic)")

# Means of sample sets: cardinality is at most the product of the sizes.
s = (rand_spd(3), rand_spd(3))
t_set = (rand_spd(3), rand_spd(3), rand_spd(3))
print("\n|S| = 2, |T| = 3, |S # T| =", len(set_geomean(s, t_set, 0.5)))

# Means of partial matrices via their max-det completions.
pa = PartialMatrix(
    pattern=Pattern.from_pairs(3, [(1, 2), (2, 3)]),
    values={(1, 1): 3.0, (2, 2): 3.0, (3, 3): 4.0, (1, 2): -1.0, (2, 3): 2.0},
)
pb = PartialMatrix(
    pattern=Pattern.from_pairs(3, [(1, 2), (2, 3)]),
    values={(1, 1): 4.0, (2, 2): 5.0, (3, 3): 2.0, (1, 2): 3.0, (2, 3): -1.0},
)
res = partial_geomean_maxdet(pa, pb, t=0.5)
print("\nmax-det representative of the partial mean (t = 1/2):")
print(np.array_str(res.matrix, precision=6))
print("det =", f"{res.determinant:.6g}",
      "= sqrt(det Ahat * det Bhat) =",
      f"{np.sqrt(res.completion_a.determinant * res.completion_b.determinant):.6g}")

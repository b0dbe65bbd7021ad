#!/usr/bin/env python3
"""Gaussian entropy identities and determinant surfaces.

The max-det completion of a partial covariance is its maximum-entropy
completion.  Entropy differences reduce to a trace integral along the
segment between covariances, and the entropy of a geodesic point
interpolates the endpoint entropies.  Sweeping the free entries maps the
determinant surface of the mean; `pgm sweep` writes the same table as CSV.
"""

import numpy as np

from pgm import (
    DEFAULT_TOL,
    Pattern,
    PartialMatrix,
    entropy_identities,
    gaussian_entropy,
    max_det_completion,
    partial_geomean_sweep,
)

pa = PartialMatrix(
    pattern=Pattern.from_pairs(3, [(1, 2), (2, 3)]),
    values={(1, 1): 3.0, (2, 2): 3.0, (3, 3): 4.0, (1, 2): -1.0, (2, 3): 2.0},
)
pb = PartialMatrix(
    pattern=Pattern.from_pairs(3, [(1, 2), (2, 3)]),
    values={(1, 1): 4.0, (2, 2): 5.0, (3, 3): 2.0, (1, 2): 3.0, (2, 3): -1.0},
)

s0 = max_det_completion(pa).matrix
s1 = max_det_completion(pb).matrix
print(f"entropies of the max-entropy completions: H0 = {gaussian_entropy(s0):.6g},"
      f" H1 = {gaussian_entropy(s1):.6g}")

ids = entropy_identities(s0, s1, t=0.5)
print(f"H1 - H0 = {ids.entropy_diff:.6g} vs trace integral {ids.entropy_diff_integral:.6g}")
print(f"H(geodesic midpoint) = {ids.entropy_geomean:.6g}"
      f" vs averaged entropies {ids.entropy_interpolated:.6g}")

# Sweep the two free entries: the determinant surface of A(x) # B(y)
# peaks at the pair of max-det values.
table = partial_geomean_sweep(pa, pb, 41, 0.5, DEFAULT_TOL)  # rows (x, y, det, eig_1..eig_n)
best = table[np.nanargmax(table[:, 2])]
print(f"\n41x41 sweep: det surface peaks at x = {best[0]:.4g}, y = {best[1]:.4g}"
      f" (det = {best[2]:.6g})")
print("write the full CSV with: pgm sweep demos/data/chain3_a.txt"
      " demos/data/chain3_b.txt --out surface.csv")

# Non-rectangular feasibility: two entries missing in one matrix give a
# curved region; infeasible cells are NaN.
swept = PartialMatrix(
    pattern=Pattern.from_pairs(3, [(1, 2)]),
    values={(1, 1): 2.0, (2, 2): 2.0, (3, 3): 2.0, (1, 2): 1.0},
)
fixed = PartialMatrix(
    pattern=Pattern.complete(3),
    values={(1, 1): 4.0, (1, 2): 3.0, (1, 3): 0.0, (2, 2): 5.0, (2, 3): -1.0, (3, 3): 2.0},
)
table = partial_geomean_sweep(swept, fixed, 41, 0.5, DEFAULT_TOL)
feasible = np.count_nonzero(~np.isnan(table[:, 2]))
print(f"\nregion sweep: {feasible} of {len(table)} cells admit a PD pair")

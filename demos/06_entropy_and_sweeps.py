#!/usr/bin/env python3
"""Gaussian entropy identities and determinant surfaces.

The max-det completion of a partial covariance is its maximum-entropy
completion.  Entropy differences reduce to a trace integral along the
segment between covariances, and the entropy of a geodesic point
interpolates the endpoint entropies.  Sweeping the free entries maps the
determinant surface of the mean; the CSV matches the `pgm sweep`
subcommand output.
"""

from pgm import (
    Pattern,
    PartialMatrix,
    det_integral_identity,
    entropy_identities,
    gaussian_entropy,
    max_det_completion,
)
from pgm.cli import default_tol, sweep_csv

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

lhs, rhs = det_integral_identity(s0, s1)
print(f"det identity: log det S1 - log det S0 = {lhs:.6g}, integral form = {rhs:.6g}")

ids = entropy_identities(s0, s1, t=0.5)
print(f"H1 - H0 = {ids.entropy_diff:.6g} vs trace integral {ids.entropy_diff_integral:.6g}")
print(f"H(geodesic midpoint) = {ids.entropy_geomean:.6g}"
      f" vs averaged entropies {ids.entropy_interpolated:.6g}")

# Sweep the two free entries: the determinant surface of A(x) # B(y)
# peaks at the pair of max-det values.
text = sweep_csv(pa, pb, grid=41, t=0.5, tol=default_tol())
rows = [[float(v) for v in line.split(",")] for line in text.strip().split("\n")[1:]]
best = max(rows, key=lambda r: r[2])
print(f"\n41x41 sweep: det surface peaks at x = {best[0]:.4g}, y = {best[1]:.4g}"
      f" (det = {best[2]:.6g})")
print("write the full CSV with: pgm sweep demos/data/chain3_a.txt"
      " demos/data/chain3_b.txt --out surface.csv")

# Non-rectangular feasibility: two entries missing in one matrix give a
# curved region; infeasible cells are NaN in the CSV.
swept = PartialMatrix(
    pattern=Pattern.from_pairs(3, [(1, 2)]),
    values={(1, 1): 2.0, (2, 2): 2.0, (3, 3): 2.0, (1, 2): 1.0},
)
fixed = PartialMatrix(
    pattern=Pattern.complete(3),
    values={(1, 1): 4.0, (1, 2): 3.0, (1, 3): 0.0, (2, 2): 5.0, (2, 3): -1.0, (3, 3): 2.0},
)
text = sweep_csv(swept, fixed, grid=41, t=0.5, tol=default_tol())
rows = [line.split(",") for line in text.strip().split("\n")[1:]]
feasible = sum(1 for r in rows if r[2] != "nan")
print(f"\nregion sweep: {feasible} of {len(rows)} cells admit a PD pair")

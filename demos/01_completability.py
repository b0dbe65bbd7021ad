#!/usr/bin/env python3
"""Which partial positive definite matrices admit PD completions?

A partial matrix specifies entries only on the edges of a pattern graph.
Partial positive definiteness (every fully specified principal block PD)
is necessary for a PD completion to exist, but it is sufficient for every
partial PD matrix exactly when the pattern is chordal.  On a non-chordal
pattern the values decide: some partial PD matrices complete, others
provably do not.
"""

import numpy as np

from pgm import (
    NotCompletable,
    Pattern,
    PartialMatrix,
    is_chordal,
    is_partial_pd,
    is_pd,
    max_det_completion,
    maximal_cliques,
    missing_positions,
)

# A 4-cycle pattern: 1-2-3-4-1 with the two diagonals missing.
ring = Pattern.from_pairs(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
print("pattern edges:", sorted(p for p in ring.edges if p[0] != p[1]))
print("missing positions:", missing_positions(ring))

verdict = is_chordal(ring)
print("chordal:", verdict.chordal, "| chordless cycle witness:", verdict.chordless_cycle)
print("clique blocks:", maximal_cliques(ring))

# Matrix N: every specified 2x2 block is PD and the zero fill is not,
# yet a PD completion exists; the clique-wise ascent finds the
# maximum-determinant one.
matrix_n = PartialMatrix(
    pattern=ring,
    values={
        (1, 1): 1.0, (2, 2): 2.0, (3, 3): 3.0, (4, 4): 1.0,
        (1, 2): -1.0, (2, 3): 2.0, (3, 4): 1.0, (1, 4): 0.0,
    },
)
print("\nMatrix N partial positive definite:", is_partial_pd(matrix_n))
print("zero fill positive definite:", is_pd(matrix_n.to_dense()))
report = max_det_completion(matrix_n)
print("completion of Matrix N found, determinant %.6g after %d sweeps over the cliques:"
      % (report.determinant, report.iterations))
print(np.array_str(report.matrix, precision=6))

# A frustrated cycle: strong positive correlation along three edges and
# strong negative correlation on the fourth.  Still partial PD, but no
# PD completion exists, and the iteration stops with a certificate.
frustrated = PartialMatrix(
    pattern=ring,
    values={
        (1, 1): 1.0, (2, 2): 1.0, (3, 3): 1.0, (4, 4): 1.0,
        (1, 2): 0.99, (2, 3): 0.99, (3, 4): 0.99, (1, 4): -0.99,
    },
)
print("\nfrustrated cycle partial positive definite:", is_partial_pd(frustrated))
try:
    max_det_completion(frustrated)
except NotCompletable as exc:
    print("completion attempt:", exc)

# Adding one chord makes the pattern chordal, and the same machinery
# certifies it with a perfect elimination ordering.
chordal = Pattern.from_pairs(4, [(1, 3), (1, 4), (2, 3), (3, 4)])
verdict = is_chordal(chordal)
print("\nchordal pattern:", verdict.chordal, "| elimination order:", verdict.elimination_order)

chordal_values = PartialMatrix(
    pattern=chordal,
    values={
        (1, 1): 1.0, (2, 2): 5.0, (3, 3): 3.0, (4, 4): 2.0,
        (1, 3): 1.0, (1, 4): 1.0, (2, 3): 1.0, (3, 4): 1.0,
    },
)
report = max_det_completion(chordal_values)
print("completion found, determinant %.6g after %d sweep (closed form):"
      % (report.determinant, report.iterations))
print(np.array_str(report.matrix, precision=6))

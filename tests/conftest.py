"""Shared test helpers: random instances and independent oracles.

The oracles here deliberately avoid the library's own code paths: the
chordality oracle enumerates induced cycles, the clique oracle enumerates
subsets, and the max-det oracle uses the closed-form clique/separator
inverse formula with a scipy spanning tree.  The sweep reference
computes the table one cell at a time, against the row-batched sweep,
and the reference parser checks every cell of a file, against the
parser that looks at the given entries only.  The partial-order
reference runs four clique passes, one full spectrum per clique, over
the difference and its negated copy, against the one-pass order.  The
trace-quadrature reference solves at every Simpson node and integrates
with ``scipy.integrate``, against the closed form read off one
spectrum.  The storage and text references build a dense view one
specified entry at a time and print one float at a time, against the
array-backed partial matrix and the one-``%`` formatters.  The cycle
margin decides ring completability from the edge angles alone, against
the completion's own verdict.  The spectral oracle applies a scalar
function to ``np.linalg.eigh``'s spectrum, against the library's own
matrix functions.  The agreement oracle compares a completion with its
partial matrix one specified entry at a time, against the array-backed
storage.

Property tests run under the ``pgm`` hypothesis profile: derandomized,
so every run draws the same examples, with no deadline and a bounded
example count.
"""

import math
from itertools import combinations

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import solve_triangular
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it
    pass
else:
    settings.register_profile("pgm", derandomize=True, deadline=None, max_examples=60)
    settings.load_profile("pgm")

from pgm import (
    Comparison,
    Pattern,
    PartialMatrix,
    geomean,
    is_pd,
    is_psd,
    log_det,
    max_det_completion,
    missing_positions,
    op_norm,
    partial_entry_bounds,
    project,
    riemannian_dist,
    scale,
    sub,
    sym,
)
from pgm.means import _shrunk_axis
from pgm.errors import AsymmetricPattern, MissingDiagonal, ParseError, PgmError


def agrees(m, pm, tol=1e-8):
    """True iff ``m`` is an exactly symmetric ``n x n`` matrix that matches the partial
    matrix ``pm`` within ``tol`` at every specified position."""
    m = np.asarray(m, dtype=float)
    if m.shape != (pm.n, pm.n) or not np.array_equal(m, m.T):
        return False
    return all(abs(float(m[i - 1, j - 1]) - v) <= tol for (i, j), v in pm.values.items())


def rand_spd(rng, n, spread=1.0):
    """Random SPD matrix with eigenvalues in exp(+-spread)."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    w = np.exp(rng.uniform(-spread, spread, n))
    m = q @ np.diag(w) @ q.T
    return 0.5 * (m + m.T)


def stretched_spd(seed, n):
    """``(A, A + 1e9 q q^T)``, ``A = rand_spd(default_rng(seed), n)`` and ``q`` the eigenvector
    of its smallest eigenvalue: a matrix spread in one direction, where an eigenvalue
    log-sum loses digits."""
    a = rand_spd(np.random.default_rng(seed), n)
    q = np.linalg.eigh(a)[1][:, 0]
    return a, a + 1e9 * np.outer(q, q)


def spread_pairs():
    """ROADMAP item 21's recipe over its full condition range, up to 1e8: the 47 pairs of
    two ``Q diag(w) Q^T``, ``w = exp(uniform(0, log 1e8, n))``, ``n`` in [2, 8]."""
    pairs = []
    for seed in [*range(0, 295, 7), 280, 225, 242, 122]:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        pair = []
        for _ in range(2):  # each Q is drawn before its w
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            pair.append(sym((q * np.exp(rng.uniform(0.0, math.log(1e8), n))) @ q.T))
        pairs.append(pair)
    return pairs


def mp_log_det(m):
    """The log-determinant of the double matrix ``m`` in 50-digit ``mpmath``."""
    import mpmath

    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.det(mpmath.matrix(m.tolist()))))


def mp_riemannian_dist(a, b):
    """``riemannian_dist`` of the double matrices ``a`` and ``b`` in 60-digit ``mpmath``: the
    Cholesky factor ``L`` of ``a``, the spectrum of ``L^-1 b L^-T``, and the root of its sum of
    squared logarithms."""
    import mpmath

    with mpmath.workdps(60):
        li = mpmath.inverse(mpmath.cholesky(mpmath.matrix(a.tolist())))
        w = mpmath.eigsy(li * mpmath.matrix(b.tolist()) * li.T, eigvals_only=True)
        return float(mpmath.sqrt(mpmath.fsum(mpmath.log(x) ** 2 for x in w)))


def mp_midpoint_eigenvalues(a, b):
    """Descending eigenvalues of ``A # B = A^1/2 (A^-1/2 B A^-1/2)^1/2 A^1/2`` of the double
    matrices ``a`` and ``b`` in 60-digit ``mpmath``, each root through ``eigsy``."""
    import mpmath

    def root(m, f):
        w, q = mpmath.eigsy(m)
        return q * mpmath.diag([f(x) for x in w]) * q.T

    with mpmath.workdps(60):
        ma = mpmath.matrix(a.tolist())
        half, inv_half = root(ma, mpmath.sqrt), root(ma, lambda x: 1 / mpmath.sqrt(x))
        inner = root(inv_half * mpmath.matrix(b.tolist()) * inv_half, mpmath.sqrt)
        w = mpmath.eigsy(half * inner * half, eigvals_only=True)
        return np.array(sorted((float(x) for x in w), reverse=True))


def spectral_fn(a, f):
    """``Q f(w) Q^T`` of the symmetric ``a = Q diag(w) Q^T``, on numpy alone: roots, logarithms
    and inverses that run none of the library's spectral code."""
    w, q = np.linalg.eigh(a)
    return (q * f(w)) @ q.T


def rand_invertible(rng, n):
    while True:
        s = rng.standard_normal((n, n))
        if abs(np.linalg.det(s)) > 1e-3:
            return s


# --- the classical properties of A #_t B --------------------------------

#: The ten classical properties of the weighted geometric mean, in the order of
#: :func:`geomean_properties` (Bhatia, *Positive Definite Matrices*, ch. 4 and 6).
GEOMEAN_PROPERTIES = (
    "commuting_power_law", "scalar_homogeneity", "reversal", "monotonicity",
    "continuity_lipschitz", "congruence_invariance", "joint_concavity", "inversion",
    "determinant_identity", "agm_sandwich",
)


def close(x, y, rtol):
    """``x == y`` up to ``rtol`` times the larger Frobenius norm."""
    return bool(np.linalg.norm(x - y) <= rtol * max(np.linalg.norm(x), np.linalg.norm(y)))


def psd_geq(x, y, rtol):
    """``x >= y`` in the Loewner order, up to an eigenvalue slack of ``rtol`` times the
    larger spectral norm."""
    unit = np.abs(np.linalg.eigvalsh(np.stack((x, y)))).max()
    return bool(np.linalg.eigvalsh(sym(x - y))[0] >= -rtol * unit)


def factor_inverse(a):
    """``A^-1 = L^-T L^-1`` of the Cholesky factor ``L`` of ``a``, symmetrized."""
    li = solve_triangular(np.linalg.cholesky(a), np.eye(len(a)), lower=True)
    return sym(li.T @ li)


def harmonic_mean(a, b, t):
    """``((1-t) A^-1 + t B^-1)^-1 = M - t(1-t) Z^T Z``, ``M = (1-t) A + t B``, ``Z = L^-1 (A - B)``,
    ``L L^T = tA + (1-t)B``: no inverse of an operand, and exactly ``M`` if ``A == B``."""
    z = solve_triangular(np.linalg.cholesky(t * a + (1.0 - t) * b), a - b, lower=True)
    return sym((1.0 - t) * a + t * b - t * (1.0 - t) * (z.T @ z))


def geomean_properties(a, b, c, d, t, lam, s, rtol=1e-8):
    """Each of :data:`GEOMEAN_PROPERTIES` on PD ``a, b, c, d``, ``t`` and ``lam`` in [0, 1] and an
    invertible ``s``, as a bool by name, through the public ``geomean``, ``log_det`` and
    ``riemannian_dist``.  Matrices compare at ``rtol`` by :func:`close` and :func:`psd_geq`, the
    Lipschitz bound and the log-determinants at ``rtol`` absolute.  ``lam`` is the second
    geodesic parameter of the Lipschitz bound and the convex weight of joint concavity.  The
    commuting partner of A is ``A^2 / w_max + w_min I``, ``w`` A's spectrum: it scales with A, and
    whitens by A to ``w / w_max + w_min / w``, of condition number near ``sqrt(cond A)``."""
    w, q = np.linalg.eigh(a)
    partner = sym(a @ a) / w[-1] + w[0] * np.eye(len(a))
    power_law = sym((q * (w ** (1.0 - t) * (w * w / w[-1] + w[0]) ** t)) @ q.T)
    alpha, beta = 1.0 + lam, 2.0 - lam
    inv_a, inv_b = factor_inverse(a), factor_inverse(b)
    pairs = [(a, b), (a, partner), (alpha * a, beta * b), (a + c, b + d), (c, d),
             (sym(s.T @ a @ s), sym(s.T @ b @ s)),
             ((1.0 - lam) * a + lam * b, (1.0 - lam) * c + lam * d), (a, c), (b, d), (inv_a, inv_b)]
    # every mean at t in one broadcast geomean, bit for bit the means of one call each
    g, power, scaled, shifted, mean_cd, congruent, concave, mean_ac, mean_bd, mean_inv = geomean(
        np.stack([x for x, _ in pairs]), np.stack([y for _, y in pairs]), t)
    bound = (abs(lam - t) * riemannian_dist(a, b) + (1.0 - t) * riemannian_dist(a, c)
             + t * riemannian_dist(b, d))
    log_dets = (1.0 - t) * log_det(a) + t * log_det(b)
    return dict(zip(GEOMEAN_PROPERTIES, (
        close(power, power_law, rtol),
        close(scaled, alpha ** (1.0 - t) * beta**t * g, rtol),
        close(g, geomean(b, a, 1.0 - t), rtol),
        psd_geq(shifted, g, rtol),
        riemannian_dist(geomean(a, b, lam), mean_cd) <= bound + rtol * max(1.0, bound),
        close(sym(s.T @ g @ s), congruent, rtol),
        psd_geq(concave, (1.0 - lam) * mean_ac + lam * mean_bd, rtol),
        close(factor_inverse(g), mean_inv, rtol),
        abs(log_det(g) - log_dets) <= rtol,
        psd_geq(g, harmonic_mean(a, b, t), rtol) and psd_geq((1.0 - t) * a + t * b, g, rtol),
    )))


def ando_block_max(a, b):
    """Ando's characterization of ``A # B``: the largest symmetric ``X`` that completes
    ``[[A, X], [X, B]]`` to a PSD matrix.  True iff the block is PSD at ``X = A # B`` (relative
    tolerance 1e-8) and stops being PSD once ``X`` is pushed by ``1e-6 ||X||_2`` along the
    identity."""
    x = geomean(a, b)
    bumped = x + 1e-6 * op_norm(x) * np.eye(len(a))
    return is_psd(sym(np.block([[a, x], [x, b]])), 1e-8) and not is_psd(
        sym(np.block([[a, bumped], [bumped, b]])), 1e-8
    )


def near_complete(rng, n, k):
    """The complete pattern on ``n`` vertices less ``k`` distinct random pairs."""
    pairs = list(combinations(range(1, n + 1), 2))
    drop = {pairs[i] for i in rng.choice(len(pairs), size=min(k, len(pairs)), replace=False)}
    return Pattern.from_pairs(n, [p for p in pairs if p not in drop])


def rand_chordal_pattern(rng, n, fill=0.5):
    """Random chordal pattern built vertex by vertex.

    Each new vertex attaches to a vertex u plus a random subset of u's
    later neighbors, which form a clique by induction, so the insertion
    order is a perfect elimination ordering.  Vertices are relabeled at
    the end to hide that ordering.
    """
    adj = [set() for _ in range(n)]
    for v in range(n - 2, -1, -1):
        later = list(range(v + 1, n))
        if not later or rng.random() > 0.9:
            continue
        u = int(rng.choice(later))
        chosen = {u} | {w for w in adj[u] if w > u and rng.random() < fill}
        for w in chosen:
            adj[v].add(w)
            adj[w].add(v)
    relabel = rng.permutation(n)
    pairs = [
        (int(relabel[i]) + 1, int(relabel[j]) + 1)
        for i in range(n)
        for j in adj[i]
        if i < j
    ]
    return Pattern.from_pairs(n, pairs)


def rand_partial_pd(rng, pattern, spread=1.0):
    """Project a random SPD matrix onto a pattern (always partial PD)."""
    return project(rand_spd(rng, pattern.n, spread), pattern)


# --- chordality oracle -------------------------------------------------

def _induced_degree_two_and_connected(pattern, verts):
    for v in verts:
        deg = sum(1 for u in verts if u != v and pattern.has_edge(u, v))
        if deg != 2:
            return False
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for u in verts:
            if u not in seen and pattern.has_edge(u, v) and u != v:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(verts)


def brute_force_has_hole(pattern):
    """A chordless cycle of length >= 4 exists iff some vertex subset
    induces a connected 2-regular subgraph."""
    n = pattern.n
    for k in range(4, n + 1):
        for verts in combinations(range(1, n + 1), k):
            if _induced_degree_two_and_connected(pattern, verts):
                return True
    return False


def brute_force_maximal_cliques(pattern):
    n = pattern.n
    cliques = []
    for k in range(1, n + 1):
        for verts in combinations(range(1, n + 1), k):
            if all(pattern.has_edge(i, j) for i, j in combinations(verts, 2)):
                cliques.append(set(verts))
    maximal = [c for c in cliques if not any(c < other for other in cliques)]
    return sorted(tuple(sorted(c)) for c in maximal)


def reference_bron_kerbosch(pattern):
    """Maximal cliques by Bron-Kerbosch with pivoting in its set-copying form: every step
    builds fresh ``p - {v}`` and ``x | {v}``, and a clique is recorded by a call with
    nothing left to expand.  0-based sorted tuples, in discovery order."""
    adj = [{j - 1 for j in range(1, pattern.n + 1) if j != i and pattern.has_edge(i, j)}
           for i in range(1, pattern.n + 1)]
    cliques = []

    def expand(r, p, x):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: (len(adj[u] & p), -u))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(pattern.n)), set())
    return cliques


def reference_mcs_order(pattern):
    """Maximum-cardinality search as a plain loop: visit the unvisited
    vertex with the most visited neighbors, the smallest on ties, and
    return the reversed visit order."""
    weight = {v: 0 for v in range(1, pattern.n + 1)}
    visited = []
    while weight:
        v = max(weight, key=lambda u: (weight[u], -u))
        del weight[v]
        visited.append(v)
        for u in weight:
            if pattern.has_edge(u, v):
                weight[u] += 1
    return tuple(reversed(visited))


def is_valid_chordless_cycle(pattern, cycle):
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    for idx in range(k):
        if not pattern.has_edge(cycle[idx], cycle[(idx + 1) % k]):
            return False
    for a in range(k):
        for b in range(a + 2, k):
            if a == 0 and b == k - 1:
                continue
            if pattern.has_edge(cycle[a], cycle[b]):
                return False
    return True


# --- max-det completion oracle ----------------------------------------

def maxdet_oracle(pm):
    """Closed-form max-det completion of a chordal partial PD matrix.

    The inverse of the completion is the sum of padded clique-block
    inverses minus padded separator-block inverses, with separators read
    off a maximum-weight spanning tree of the clique intersection graph.
    """
    cliques = brute_force_maximal_cliques(pm.pattern)
    k = len(cliques)
    dense = pm.to_dense(0.0)
    n = pm.n
    kmat = np.zeros((n, n))
    for c in cliques:
        idx = [v - 1 for v in c]
        kmat[np.ix_(idx, idx)] += np.linalg.inv(dense[np.ix_(idx, idx)])
    if k > 1:
        # shift weights so every pair is present; minimizing (n+1 - |inter|)
        # maximizes the intersection size
        w = np.zeros((k, k))
        for a in range(k):
            for b in range(a + 1, k):
                w[a, b] = n + 1 - len(set(cliques[a]) & set(cliques[b]))
        tree = minimum_spanning_tree(csr_matrix(w)).tocoo()
        for a, b in zip(tree.row, tree.col):
            sep = sorted(set(cliques[a]) & set(cliques[b]))
            if sep:
                idx = [v - 1 for v in sep]
                kmat[np.ix_(idx, idx)] -= np.linalg.inv(dense[np.ix_(idx, idx)])
    out = np.linalg.inv(kmat)
    return 0.5 * (out + out.T)


def _completion_outcome(pm, max_cycles):
    try:
        return max_det_completion(pm, max_cycles=max_cycles)
    except PgmError as exc:
        return type(exc)


def assert_completion_scales(pm, c, max_cycles=500):
    """``max_det_completion`` of ``scale(c, pm)``, ``c`` a power of two, raises the error
    ``pm`` raises, or returns ``c`` times its matrix bit for bit, in the same iterations,
    with the same verdict and the residual over ``c``."""
    expected = _completion_outcome(pm, max_cycles)
    got = _completion_outcome(scale(c, pm), max_cycles)
    if isinstance(expected, type):
        assert got is expected
        return
    assert (got.iterations, got.converged) == (expected.iterations, expected.converged)
    np.testing.assert_array_equal(got.matrix, c * expected.matrix)
    assert got.residual == expected.residual / c


# --- partial Loewner order reference ----------------------------------

def _reference_clique_test(pm, scales, tol, semi):
    """Every maximal-clique block has ``lambda_min > tol * scale`` (or, if ``semi``,
    ``>= -tol * scale``), ``scale`` the clique's entry of ``scales``, one full
    ``eigvalsh`` per clique."""
    dense = pm.to_dense()
    for clique in brute_force_maximal_cliques(pm.pattern):
        idx = [v - 1 for v in clique]
        w = np.linalg.eigvalsh(dense[np.ix_(idx, idx)])
        bound = tol * scales[clique]
        if not (w[0] >= -bound if semi else w[0] > bound):
            return False
    return True


def reference_partial_order(a, b, tol=1e-10):
    """The partial Loewner order in four clique passes, over ``a - b`` and
    over its negated copy (the earlier implementation, kept as the
    reference for the one-pass ``partial_order``), each clique judged against
    the largest ``|entry|`` of its blocks in ``a`` and ``b``, read one entry at a time."""
    diff = sub(a, b)
    if all(v == 0.0 for v in diff.values.values()):
        return Comparison.EQ
    neg = scale(-1.0, diff)
    scales = {
        clique: max(abs(m.entry(i, j)) for m in (a, b) for i in clique for j in clique)
        for clique in brute_force_maximal_cliques(a.pattern)
    }
    if _reference_clique_test(diff, scales, tol, semi=False):
        return Comparison.GT
    if _reference_clique_test(neg, scales, tol, semi=False):
        return Comparison.LT
    if _reference_clique_test(diff, scales, tol, semi=True):
        return Comparison.GE
    if _reference_clique_test(neg, scales, tol, semi=True):
        return Comparison.LE
    return Comparison.INCOMPARABLE


# --- trace-quadrature reference -----------------------------------------

def reference_trace_quadrature(a0, a1, quad_points):
    """Simpson quadrature of lambda -> tr(A(lambda)^{-1} (A1 - A0)) with one
    dense solve per node: an oracle for the closed-form trace integral that
    shares none of its algebra."""
    lam = np.linspace(0.0, 1.0, quad_points)
    diff = a1 - a0
    vals = np.empty(quad_points)
    for idx, t in enumerate(lam):
        m = (1.0 - t) * a0 + t * a1
        vals[idx] = float(np.trace(np.linalg.solve(m, diff)))
    return float(simpson(vals, x=lam))


# --- paper example instances -------------------------------------------

def four_cycle_pattern():
    return Pattern.from_pairs(4, [(1, 2), (1, 4), (2, 3), (3, 4)])


def chordal_example_pattern():
    return Pattern.from_pairs(4, [(1, 3), (1, 4), (2, 3), (3, 4)])


def matrix_n_four_cycle():
    """Matrix N: partial PD on the 4-cycle with a zero fill that is not PD.

    It is completable, for instance with (1, 3) = -0.8 and (2, 4) = 0.5:
    its edge angles 135, 35.3, 54.7 and 90 degrees meet the cycle
    condition of Barrett, Johnson and Loewy.
    """
    return PartialMatrix(
        pattern=four_cycle_pattern(),
        values={
            (1, 1): 1.0, (2, 2): 2.0, (3, 3): 3.0, (4, 4): 1.0,
            (1, 2): -1.0, (1, 4): 0.0, (2, 3): 2.0, (3, 4): 1.0,
        },
    )


def frustrated_four_cycle():
    """Partial PD 4-cycle with no PD completion.

    Unit diagonal, 0.99 on (1, 2), (2, 3), (3, 4) and -0.99 on (1, 4):
    the edge angles (8.1 degrees three times, 171.9 once) violate the
    cycle condition by 147.6 degrees.
    """
    return PartialMatrix(
        pattern=four_cycle_pattern(),
        values={
            (1, 1): 1.0, (2, 2): 1.0, (3, 3): 1.0, (4, 4): 1.0,
            (1, 2): 0.99, (2, 3): 0.99, (3, 4): 0.99, (1, 4): -0.99,
        },
    )


def cycle_margin(theta):
    """The cycle condition on a ring with unit diagonal and edge entries ``cos theta_k``,
    ``theta_k`` in [0, pi]: the largest ``sum_S theta - sum_{k not in S} theta_k -
    (|S| - 1) pi`` over odd-sized edge sets ``S``.  A PD completion exists when it is
    negative, none when it is positive (Barrett, Johnson and Tarazaga, LAA 192, 1993).
    Greedy, O(n): ``S`` takes every edge with ``theta_k > pi / 2``, and an even count
    is fixed at the edge with the smallest ``|2 theta_k - pi|``."""
    theta = np.asarray(theta, dtype=float)
    gain = 2.0 * theta - math.pi  # what an edge adds when it joins S
    margin = math.pi - theta.sum() + gain[gain > 0].sum()
    if np.count_nonzero(gain > 0) % 2 == 0:
        margin -= np.abs(gain).min()
    return float(margin)


def cosine_ring(theta):
    """The ring with unit diagonal and ``cos theta_k`` on the edge ``(k, k + 1)``, the last
    edge closing the cycle: the input of :func:`cycle_margin`."""
    n = len(theta)
    full = np.eye(n)
    for k, t in enumerate(theta):
        full[k, (k + 1) % n] = full[(k + 1) % n, k] = math.cos(t)
    return project(full, Pattern.from_pairs(n, [(k, k % n + 1) for k in range(1, n + 1)]))


def frustrated_ring(n):
    """The ``n``-cycle with unit diagonal, 0.99 on every edge but -0.99 on
    ``(1, n)``.  It has a PD completion exactly when ``n arccos 0.99 > pi``,
    that is ``n >= 23``; one sweep from ``diag(A)`` at ``n = 24`` leaves an
    iterate that is not PD."""
    full = np.eye(n) + 0.99 * (np.eye(n, k=1) + np.eye(n, k=-1))
    full[0, n - 1] = full[n - 1, 0] = -0.99
    return project(full, Pattern.from_pairs(n, [(i, i % n + 1) for i in range(1, n + 1)]))


def precision_ring(n, c):
    """``(K, A)``: the ring precision ``K``, unit diagonal and ``-c`` on each ring edge
    (PD for ``0 <= c < 1/2``), and ``A``, its inverse on the ring pattern.  ``K^-1``
    completes ``A`` and its inverse vanishes off the pattern, so it is the max-det
    completion, with ``log det = -log det K``."""
    k = np.eye(n) - c * (np.eye(n, k=1) + np.eye(n, k=-1))
    k[0, n - 1] = k[n - 1, 0] = -c
    ring = Pattern.from_pairs(n, [(i, i % n + 1) for i in range(1, n + 1)])
    return k, project(np.linalg.inv(k), ring)


def matrix_a_chordal_example():
    return PartialMatrix(
        pattern=chordal_example_pattern(),
        values={
            (1, 1): 1.0, (2, 2): 5.0, (3, 3): 3.0, (4, 4): 2.0,
            (1, 3): 1.0, (1, 4): 1.0, (2, 3): 1.0, (3, 4): 1.0,
        },
    )


def matrix_b_chordal_example():
    return PartialMatrix(
        pattern=chordal_example_pattern(),
        values={
            (1, 1): 4.0, (2, 2): 3.0, (3, 3): 6.0, (4, 4): 3.0,
            (1, 3): 2.0, (1, 4): -1.0, (2, 3): 1.0, (3, 4): 1.0,
        },
    )


def order_example_a():
    return PartialMatrix(
        pattern=chordal_example_pattern(),
        values={
            (1, 1): 3.0, (2, 2): 6.0, (3, 3): 4.0, (4, 4): 5.0,
            (1, 3): 2.0, (1, 4): 1.0, (2, 3): 1.0, (3, 4): 1.0,
        },
    )


def ex1_partial_a():
    """3x3, one missing entry at (1, 3)."""
    return PartialMatrix(
        pattern=Pattern.from_pairs(3, [(1, 2), (2, 3)]),
        values={(1, 1): 3.0, (2, 2): 3.0, (3, 3): 4.0, (1, 2): -1.0, (2, 3): 2.0},
    )


def ex1_partial_b():
    return PartialMatrix(
        pattern=Pattern.from_pairs(3, [(1, 2), (2, 3)]),
        values={(1, 1): 4.0, (2, 2): 5.0, (3, 3): 2.0, (1, 2): 3.0, (2, 3): -1.0},
    )


def ex2_partial_a():
    """5x5, one missing entry at (1, 5)."""
    rows = np.array(
        [
            [3, -1, 1, 1, 0],
            [-1, 3, -1, 1, 0],
            [1, -1, 3, 2, 1],
            [1, 1, 2, 4, 2],
            [0, 0, 1, 2, 4],
        ],
        dtype=float,
    )
    pattern = Pattern.from_pairs(
        5, [(i, j) for i in range(1, 6) for j in range(i + 1, 6) if (i, j) != (1, 5)]
    )
    values = {(i, j): rows[i - 1, j - 1] for i, j in pattern.edges}
    return PartialMatrix(pattern=pattern, values=values)


def ex2_partial_b():
    rows = np.array(
        [
            [3, 0, 1, 2, 0],
            [0, 1, 0, -1, 0],
            [1, 0, 5, -1, 1],
            [2, -1, -1, 3, 0],
            [0, 0, 1, 0, 4],
        ],
        dtype=float,
    )
    pattern = Pattern.from_pairs(
        5, [(i, j) for i in range(1, 6) for j in range(i + 1, 6) if (i, j) != (1, 5)]
    )
    values = {(i, j): rows[i - 1, j - 1] for i, j in pattern.edges}
    return PartialMatrix(pattern=pattern, values=values)


def identity_ring_partial(n):
    """Identity values with the single corner entry (1, n) missing."""
    pattern = Pattern.from_pairs(
        n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) != (1, n)]
    )
    values = {(i, j): 1.0 if i == j else 0.0 for i, j in pattern.edges}
    return PartialMatrix(pattern=pattern, values=values)


def golden_pair_completions():
    """Two PD completions of the chordal 4x4 example."""
    a1 = np.array(
        [[1, 1, 1, 1], [1, 5, 1, 1], [1, 1, 3, 1], [1, 1, 1, 2]], dtype=float
    )
    a2 = np.array(
        [[1, -1, 1, 1], [-1, 5, 1, -1], [1, 1, 3, 1], [1, -1, 1, 2]], dtype=float
    )
    return a1, a2


GOLDEN_MEAN_DISPLAYED = np.array(
    [
        [0.8750, -0.0769, 1.0, 0.8750],
        [-0.0769, 4.1251, 1.0, -0.0769],
        [1.0, 1.0, 3.0, 1.0],
        [0.8750, -0.0769, 1.0, 1.8750],
    ]
)


def sweep_region_pair():
    """A 3x3 with both (1, 3) and (2, 3) missing, and a complete 3x3.

    The swept matrix ``[[2, 1, x], [1, 2, y], [x, y, 2]]`` is PD exactly
    where ``6 + 2xy - 2x^2 - 2y^2 > 0``, so part of the box is NaN.
    """
    swept = PartialMatrix(
        pattern=Pattern.from_pairs(3, [(1, 2)]),
        values={(1, 1): 2.0, (2, 2): 2.0, (3, 3): 2.0, (1, 2): 1.0},
    )
    fixed_vals = np.array([[4.0, 3.0, 0.0], [3.0, 5.0, -1.0], [0.0, -1.0, 2.0]])
    fixed = PartialMatrix(
        pattern=Pattern.complete(3),
        values={(i, j): fixed_vals[i - 1, j - 1] for i in range(1, 4) for j in range(i, 4)},
    )
    return swept, fixed


def sweep_n8_pair(seed=8):
    """Two random 8x8 partial matrices, missing (2, 7) and (1, 5)."""
    rng = np.random.default_rng(seed)
    out = []
    for hole in ((2, 7), (1, 5)):
        pattern = Pattern.from_pairs(
            8, [(i, j) for i in range(1, 9) for j in range(i + 1, 9) if (i, j) != hole]
        )
        out.append(project(rand_spd(rng, 8), pattern))
    return tuple(out)


def reference_sweep_rows(pa, pb, grid, t, tol):
    """The sweep table computed cell by cell: fill the missing entries,
    test both matrices with ``is_pd`` (NaN row if either fails), then
    ``geomean`` and ``eigvalsh`` on the one pair; ``det`` is the product of
    the descending eigenvalues, in that order.  When A carries both entries
    the mean is taken as ``geomean(B, A, 1 - t)``, the same ``A #_t B``."""
    pms = (pa, pb)
    slots = [(k, pos) for k, pm in enumerate(pms) for pos in missing_positions(pm.pattern)]
    (kx, pos_x), (ky, pos_y) = slots
    xs = np.linspace(*_shrunk_axis(partial_entry_bounds(pms[kx], pos_x, tol)), grid)
    ys = np.linspace(*_shrunk_axis(partial_entry_bounds(pms[ky], pos_y, tol)), grid)
    rows = []
    for x in xs:
        for y in ys:
            pair = [pa.to_dense(0.0), pb.to_dense(0.0)]
            for k, (i, j), value in ((kx, pos_x, x), (ky, pos_y, y)):
                pair[k][i - 1, j - 1] = pair[k][j - 1, i - 1] = value
            if not (is_pd(pair[0], tol) and is_pd(pair[1], tol)):
                rows.append((float(x), float(y)) + (math.nan,) * (pa.n + 1))
                continue
            m = geomean(pair[1], pair[0], 1 - t, tol) if ky == 0 else geomean(*pair, t, tol)
            eigs = np.linalg.eigvalsh(m)[::-1]
            rows.append((float(x), float(y), float(eigs.prod())) + tuple(float(e) for e in eigs))
    return rows


# --- reference parser ----------------------------------------------------

def reference_parse(path):
    """Parse a partial-matrix file one cell at a time.

    Each token is converted and checked in row order (the leftmost bad
    or non-finite token of the first faulty row raises), then every
    upper position ``(i, j)``, ``i <= j``, is compared with its mirror
    in row-major order.  Raises the same errors, with the same messages,
    lines and columns, as :func:`pgm.cli.parse_partial`.
    """
    rows = []
    dim = None
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split()
            if dim is None:
                if len(tokens) != 2 or tokens[0] != "n":
                    raise ParseError("expected header line 'n <dim>'", line=lineno)
                try:
                    dim = int(tokens[1])
                except ValueError:
                    message = f"bad dimension {tokens[1]!r}"
                    raise ParseError(message, line=lineno, column=2) from None
                if dim < 1:
                    raise ParseError(f"dimension must be >= 1, got {dim}", line=lineno)
                continue
            if len(rows) == dim:
                raise ParseError(f"more than {dim} matrix rows", line=lineno)
            if len(tokens) != dim:
                raise ParseError(
                    f"expected {dim} entries in row {len(rows) + 1}, got {len(tokens)}",
                    line=lineno,
                )
            row = []
            for col, tok in enumerate(tokens, start=1):
                if tok == "?":
                    row.append(None)
                    continue
                try:
                    value = float(tok)
                except ValueError:
                    raise ParseError(f"bad entry {tok!r}", line=lineno, column=col) from None
                if not math.isfinite(value):
                    raise ParseError(f"non-finite entry {tok!r}", line=lineno, column=col)
                row.append(value)
            rows.append((lineno, row))
    if dim is None:
        raise ParseError("empty input: missing 'n <dim>' header")
    if len(rows) != dim:
        raise ParseError(f"expected {dim} matrix rows, found {len(rows)}")
    values = {}
    for i in range(dim):
        lineno, row = rows[i]
        for j in range(i, dim):
            here, mirror = row[j], rows[j][1][i]
            where = {"line": lineno, "column": j + 1}
            if (here is None) != (mirror is None):
                raise AsymmetricPattern(
                    f"entry ({i + 1}, {j + 1}) is specified on one side of the diagonal only",
                    **where,
                )
            if here is None:
                if i == j:
                    raise MissingDiagonal(f"diagonal entry ({i + 1}, {i + 1}) is missing", **where)
                continue
            if here != mirror:
                raise AsymmetricPattern(
                    f"entries ({i + 1}, {j + 1}) and ({j + 1}, {i + 1}) disagree", **where
                )
            values[(i + 1, j + 1)] = here
    pairs = [(i, j) for i, j in values if i != j]
    return PartialMatrix(pattern=Pattern.from_pairs(dim, pairs), values=values)


# --- per-entry storage and text references --------------------------------

def reference_to_dense(pm, fill=0.0):
    """``PartialMatrix.to_dense`` written one specified entry (and its mirror) at a time."""
    m = np.full((pm.n, pm.n), float(fill))
    for (i, j), v in pm.values.items():
        m[i - 1, j - 1] = v
        m[j - 1, i - 1] = v
    return m


def reference_format_partial(pm):
    """``cli.format_partial`` one f-string per entry, ``?`` where unspecified."""
    lines = [f"n {pm.n}"]
    for i in range(1, pm.n + 1):
        row = (pm.values.get((min(i, j), max(i, j))) for j in range(1, pm.n + 1))
        lines.append(" ".join("?" if v is None else f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def reference_format_matrix(m):
    """``cli.format_matrix`` one f-string per entry."""
    m = np.asarray(m, dtype=float)
    lines = [f"n {m.shape[0]}"]
    for row in m:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def reference_human_matrix(m):
    """``cli._human_matrix`` one f-string per entry, right-justified to the widest."""
    m = np.asarray(m, dtype=float)
    cells = [[f"{x:.6g}" for x in row] for row in m]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)

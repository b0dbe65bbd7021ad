"""Independent numpy-only oracles and the output checks of every job.

Nothing here imports ``pgm``: each check recomputes what the answer must
be from the generated input (closed forms, identities, verdicts known by
construction) and compares the program's printed output against it.
The checks run outside the timed region.

A check returns a :class:`Verdict` whose ``status`` is

* ``"ok"``: the job did what it should;
* ``"refused"``: the program exited 1 on an input that has an answer
  (a completable partial matrix it would not complete);
* ``"wrong"``: anything else, such as a wrong number, a wrong verdict, a
  wrong exit code or an exception escaping the CLI.

Both ``refused`` and ``wrong`` jobs count as failed.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Verdict:
    status: str
    reason: str = ""
    stats: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.status == "ok"


def wrong(reason):
    return Verdict("wrong", reason)


# --------------------------------------------------------------- patterns


def band_mask(n, k):
    i = np.arange(n)
    return np.abs(i[:, None] - i[None, :]) <= k


def ring_mask(n):
    mask = band_mask(n, 1)
    mask[0, n - 1] = mask[n - 1, 0] = True
    return mask


def grid_mask(rows, cols):
    n = rows * cols
    mask = np.eye(n, dtype=bool)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                mask[v, v + 1] = mask[v + 1, v] = True
            if r + 1 < rows:
                mask[v, v + cols] = mask[v + cols, v] = True
    return mask


def neighbours(mask):
    n = mask.shape[0]
    return [set(np.flatnonzero(mask[v])) - {v} for v in range(n)]


def perfect_elimination_order(mask):
    """A perfect elimination order (0-based) of a chordal pattern, else None.

    The reverse of a maximum-cardinality search visiting order, kept
    only if it passes the perfect-elimination check.
    """
    adj = neighbours(mask)
    n = len(adj)
    weight = np.zeros(n, dtype=int)
    seen = np.zeros(n, dtype=bool)
    visit = []
    for _ in range(n):
        cand = np.where(seen, -1, weight)
        v = int(np.argmax(cand))
        seen[v] = True
        visit.append(v)
        for u in adj[v]:
            if not seen[u]:
                weight[u] += 1
    order = visit[::-1]
    return order if is_peo(adj, order) else None


def is_peo(adj, order):
    pos = {v: k for k, v in enumerate(order)}
    if sorted(pos) != list(range(len(adj))):
        return False
    for v in order:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        if later:
            u = min(later, key=pos.__getitem__)
            if not set(later) - {u} <= adj[u]:
                return False
    return True


def is_chordless_cycle(adj, cycle):
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    for a in range(k):
        for b in range(a + 1, k):
            consecutive = b == a + 1 or (a == 0 and b == k - 1)
            if (cycle[b] in adj[cycle[a]]) != consecutive:
                return False
    return True


# -------------------------------------------------------------- matrices


def is_pd(m, tol=1e-12):
    w = np.linalg.eigvalsh(m)
    return bool(w[0] > tol * max(1.0, abs(w).max()))


def maxdet_chordal(full, mask):
    """Closed-form maximum-determinant completion on a chordal pattern.

    ``M^{-1} = sum_C pad(A_C^{-1}) - sum_S pad(A_S^{-1})`` over the
    cliques and separators of a clique tree, written per vertex of a
    perfect elimination order: vertex v contributes its clique
    ``{v} + later(v)`` and the separator ``later(v)``; the non-maximal
    cliques cancel against their separators.
    """
    order = perfect_elimination_order(mask)
    if order is None:
        raise ValueError("pattern is not chordal")
    adj = neighbours(mask)
    pos = {v: k for k, v in enumerate(order)}
    n = full.shape[0]
    k = np.zeros((n, n))
    for v in order:
        sep = sorted(u for u in adj[v] if pos[u] > pos[v])
        clique = [v] + sep
        k[np.ix_(clique, clique)] += np.linalg.inv(full[np.ix_(clique, clique)])
        if sep:
            k[np.ix_(sep, sep)] -= np.linalg.inv(full[np.ix_(sep, sep)])
    m = np.linalg.inv(k)
    return 0.5 * (m + m.T)


def _spectral(m, f):
    w, q = np.linalg.eigh(m)
    out = (q * f(w)) @ q.T
    return 0.5 * (out + out.T)


def karcher_mean(mats, weights, tol=1e-13, max_steps=500):
    """Weighted Karcher mean by the fixed-point iteration.

    ``X <- X^{1/2} exp(theta sum_i w_i log(X^{-1/2} A_i X^{-1/2})) X^{1/2}``
    from the arithmetic mean, halving ``theta`` whenever the gradient
    norm grows.
    """
    x = sum(w * a for w, a in zip(weights, mats))
    theta = 1.0
    gnorm = math.inf
    for _ in range(max_steps):
        ris = _spectral(x, lambda w: 1.0 / np.sqrt(w))
        grad = sum(w * _spectral(ris @ a @ ris, np.log) for w, a in zip(weights, mats))
        new = float(np.linalg.norm(grad))
        if new > gnorm:
            theta *= 0.5
        gnorm = new
        if gnorm <= tol * max(1.0, float(np.linalg.norm(x))):
            return x
        rs = _spectral(x, np.sqrt)
        x = rs @ _spectral(theta * grad, np.exp) @ rs
        x = 0.5 * (x + x.T)
    raise ArithmeticError("reference Karcher iteration did not converge")


def gaussian_entropy(sigma):
    sign, logdet = np.linalg.slogdet(sigma)
    n = sigma.shape[0]
    return 0.5 * logdet + 0.5 * n * (1.0 + math.log(2.0 * math.pi))


def completed(full, mask):
    """The max-det completion of a generated partial input (full if complete)."""
    if mask.all():
        return full.copy()
    return maxdet_chordal(full, mask)


# ------------------------------------------------------------ output text


_NUMBER = r"([-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan))"


def read_matrix(text):
    """Parse the full-matrix text format written by ``--out``."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise ValueError("missing 'n <dim>' header")
    n = int(head[1])
    m = np.array([[float(x) for x in ln.split()] for ln in lines[1:]])
    if m.shape != (n, n):
        raise ValueError(f"expected {n}x{n} entries, got {m.shape}")
    return m


def read_report_matrix(stdout, n):
    """The six-digit matrix block printed after the first report line."""
    lines = stdout.splitlines()[1 : 1 + n]
    m = np.array([[float(x) for x in ln.split()] for ln in lines])
    if m.shape != (n, n):
        raise ValueError(f"expected a printed {n}x{n} matrix, got {m.shape}")
    return m


def field_value(stdout, label):
    found = re.search(rf"^{re.escape(label)}:\s*(\S+)", stdout, re.MULTILINE)
    if found is None:
        raise ValueError(f"no '{label}:' line")
    return found.group(1)


def _close(a, b, rtol):
    scale = max(1.0, float(np.abs(b).max()))
    return float(np.abs(np.asarray(a) - b).max()) <= rtol * scale


# ----------------------------------------------------------------- checks


def check_complete(expect, rc, stdout, out_text):
    """Completion: pattern agreement, PD, inverse zero off the pattern,
    and on chordal inputs the closed form.  Inputs with no completion
    must exit 1; a completable input that exits 1 is refused."""
    if not expect["exists"]:
        return Verdict("ok") if rc == 1 else wrong(f"exit {rc} on an input with no PD completion")
    if rc == 1:
        return Verdict("refused", "completable input refused")
    if rc != 0:
        return wrong(f"exit {rc}")
    try:
        m = read_matrix(out_text)
        cycles = int(field_value(stdout, "iterations"))
        converged = field_value(stdout, "converged")
    except (ValueError, IndexError) as exc:
        return wrong(f"unreadable output: {exc}")
    full, mask = expect["full"], expect["mask"]
    if m.shape != full.shape:
        return wrong("completion has the wrong size")
    if converged != "yes":
        return wrong("completion did not converge")
    if not _close(m[mask], full[mask], 1e-12):
        return wrong("completion disagrees with the input on the pattern")
    if not np.array_equal(m, m.T) or not is_pd(m):
        return wrong("completion is not symmetric positive definite")
    inv = np.linalg.inv(m)
    residual = float(np.abs(inv[~mask]).max())
    if residual > 1e-8 * float(np.abs(np.linalg.eigvalsh(inv)).max()):
        return wrong(f"inverse-zero residual {residual:.3g} off the pattern")
    closed = expect.get("closed_form")
    if closed is not None and not _close(m, closed, 1e-6):
        return wrong("completion differs from the chordal closed form")
    return Verdict("ok", stats={"cycles": cycles})


def check_check(expect, rc, stdout, out_text):
    """Report: verdicts as constructed, missing count, a valid witness."""
    if rc != 0:
        return wrong(f"exit {rc}")
    try:
        missing = int(re.search(r"vertices, (\d+) missing entries", stdout).group(1))
        chordal = field_value(stdout, "chordal")
        ppd = field_value(stdout, "partial positive definite")
        completable = field_value(stdout, "completable")
        witness = re.search(r"^chordal: \w+ \((?:elimination order|chordless cycle): ([\d ]+)\)",
                            stdout, re.MULTILINE).group(1)
    except (ValueError, AttributeError) as exc:
        return wrong(f"unreadable report: {exc}")
    mask = expect["mask"]
    yes = {True: "yes", False: "no"}
    if missing != int((~mask).sum()) // 2:
        return wrong(f"reports {missing} missing entries")
    if chordal != yes[expect["chordal"]] or completable != yes[expect["chordal"]]:
        return wrong("wrong chordality verdict")
    if ppd != yes[expect["partial_pd"]]:
        return wrong("wrong partial positive definiteness verdict")
    bad = stdout.count(": not positive definite")
    if bad != expect["bad_cliques"]:
        return wrong(f"{bad} cliques reported not positive definite")
    verts = [int(v) - 1 for v in witness.split()]
    adj = neighbours(mask)
    valid = is_peo(adj, verts) if expect["chordal"] else is_chordless_cycle(adj, verts)
    if not valid:
        return wrong("the chordality witness is invalid")
    return Verdict("ok")


def _domain_exit(rc):
    if rc == 1:
        return Verdict("refused", "input with an answer refused")
    return wrong(f"exit {rc}")


def check_karcher(expect, rc, stdout, out_text):
    """Karcher: the printed mean matches the reference to 1e-5, converged."""
    if rc != 0:
        return _domain_exit(rc)
    mean = expect["mean"]
    try:
        m = read_report_matrix(stdout, mean.shape[0])
        steps = int(field_value(stdout, "steps"))
        converged = field_value(stdout, "converged")
    except (ValueError, IndexError) as exc:
        return wrong(f"unreadable output: {exc}")
    if converged != "yes":
        return wrong("Karcher mean did not converge")
    if not _close(m, mean, 1e-5):
        return wrong("Karcher mean differs from the reference fixed point")
    return Verdict("ok", stats={"steps": steps})


def check_geomean(expect, rc, stdout, out_text):
    """Geometric mean at t = 1/2: the Riccati identity ``G A^-1 G = B``."""
    if rc != 0:
        return _domain_exit(rc)
    try:
        g = read_matrix(out_text)
    except (ValueError, IndexError) as exc:
        return wrong(f"unreadable output: {exc}")
    a, b = expect["a"], expect["b"]
    if g.shape != a.shape or not is_pd(g):
        return wrong("mean is not positive definite of the right size")
    if not _close(g @ np.linalg.solve(a, g), b, 1e-8):
        return wrong("Riccati identity G A^-1 G = B fails")
    return Verdict("ok")


def check_entropy(expect, rc, stdout, out_text):
    """Entropy: both identity gaps within 1e-6 and the entropies right."""
    if rc != 0:
        return _domain_exit(rc)
    body = "\n".join(stdout.splitlines()[1:])
    nums = re.findall(r"= " + _NUMBER, body)
    if len(nums) != 6:
        return wrong("unreadable entropy report")
    diff, integral, gap1, h_mean, h_interp, gap2 = (float(x) for x in nums)
    if not (gap1 <= 1e-6 and gap2 <= 1e-6):
        return wrong(f"identity gaps {gap1:.3g}, {gap2:.3g} exceed 1e-6")
    if abs(diff - integral) > 1e-5 * max(1.0, abs(diff)):
        return wrong("entropy difference and trace integral disagree")
    want_diff, want_interp = expect["diff"], expect["interp"]
    if abs(diff - want_diff) > 1e-5 * max(1.0, abs(want_diff)):
        return wrong("wrong entropy difference")
    if abs(h_interp - want_interp) > 1e-5 * max(1.0, abs(want_interp)):
        return wrong("wrong interpolated entropy")
    if abs(h_mean - want_interp) > 1e-5 * max(1.0, abs(want_interp)):
        return wrong("wrong entropy of the geometric mean")
    return Verdict("ok")


def check_sweep(expect, rc, stdout, out_text):
    """Sweep: row count, NaN exactly at non-PD cells, and
    ``det = det(A)^(1-t) det(B)^t`` with the eigenvalues behind it."""
    if rc != 0:
        return _domain_exit(rc)
    grid, n, t = expect["grid"], expect["n"], expect["t"]
    try:
        table = np.loadtxt(io.StringIO(out_text), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return wrong(f"unreadable CSV: {exc}")
    if table.shape != (grid * grid, 3 + n):
        return wrong(f"CSV has shape {table.shape}, expected {(grid * grid, 3 + n)}")
    x, y = table[:, 0], table[:, 1]
    (xlo, xhi), (ylo, yhi) = expect["x_box"], expect["y_box"]
    slack = 1e-9
    if not (np.all((xlo - slack <= x) & (x <= xhi + slack))
            and np.all((ylo - slack <= y) & (y <= yhi + slack))):
        return wrong("grid points leave the feasibility box")
    if len(np.unique(x)) != grid or len(np.unique(y)) != grid or np.any(np.diff(x) < 0):
        return wrong("grid is not x-major over grid x grid points")
    a = np.repeat(expect["a"][None], len(x), axis=0)
    b = np.repeat(expect["b"][None], len(x), axis=0)
    for stack, pos, coord in ((a, expect["a_x"], x), (a, expect["a_y"], y),
                              (b, expect["b_x"], x), (b, expect["b_y"], y)):
        if pos is not None:
            i, j = pos
            stack[:, i, j] = stack[:, j, i] = coord
    wa, wb = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
    lam = np.minimum(wa[:, 0], wb[:, 0])
    scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
    nan = np.isnan(table[:, 2])
    clearly_pd = lam > 1e-8 * scale
    clearly_not = lam < -1e-8 * scale
    if np.any(nan & clearly_pd) or np.any(~nan & clearly_not):
        return wrong("NaN cells do not match the non-PD cells")
    if np.any(np.isnan(table[~nan])) or not np.all(np.isnan(table[nan, 2:])):
        return wrong("a cell is partly NaN")
    fin = ~nan
    want = np.linalg.det(a[fin]) ** (1.0 - t) * np.linalg.det(b[fin]) ** t
    got = table[fin, 2]
    # Forming A^-1/2 B A^-1/2 costs relative accuracy of order
    # eps cond(A) cond(B) in its small eigenvalues, which the cells next
    # to the edges of the box reach.
    cond = (wa[fin, -1] / wa[fin, 0]) * (wb[fin, -1] / wb[fin, 0])
    rtol = 1e-8 + 10.0 * np.finfo(float).eps * cond
    if not np.all(np.abs(got - want) <= rtol * np.abs(want)):
        return wrong("det differs from det(A)^(1-t) det(B)^t")
    eigs = table[fin, 3:]
    if np.any(eigs <= 0) or np.any(np.diff(eigs, axis=1) > 0):
        return wrong("eigenvalue columns are not positive and descending")
    if not np.all(np.abs(np.prod(eigs, axis=1) - got) <= rtol * np.abs(got)):
        return wrong("eigenvalues do not multiply to det")
    return Verdict("ok", stats={"nan_cells": int(nan.sum())})


CHECKS = {
    "complete": check_complete,
    "check": check_check,
    "karcher": check_karcher,
    "geomean": check_geomean,
    "entropy": check_entropy,
    "sweep": check_sweep,
}

"""Command-line interface.

Partial matrices travel in a small text format: a first line ``n <dim>``
followed by ``<dim>`` rows of whitespace-separated tokens, each a finite
decimal number or ``?`` for a missing entry; ``#`` starts a comment
line.  Files written by the tool carry 17 significant digits so that
parsing them back is exact; human-readable reports use 6.

Subcommands: ``check``, ``complete``, ``geomean``, ``karcher``,
``entropy``, ``sweep``.  Exit status is 0 on success, 1 on domain errors
(not positive definite, not completable, ...), 2 on usage or parse
errors.  The environment variable ``PGM_TOL`` overrides the default
tolerance.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .completion import max_det_completion, partial_entry_bounds
from .errors import (
    AsymmetricPattern,
    DimensionMismatch,
    MissingDiagonal,
    ParseError,
    PgmError,
    TooManyMissing,
)
from .linalg import det, is_pd
from .means import (
    WeightVector,
    entropy_identities,
    gaussian_entropy,
    geomean,
    karcher_mean,
    partial_geomean_maxdet,
)
from .partial import PartialMatrix, is_partial_pd, offending_cliques
from .pattern import Pattern, is_chordal, maximal_cliques, missing_positions

#: File precision: enough digits to round-trip any float64 exactly.
FILE_DIGITS = 17
REPORT_DIGITS = 6


def default_tol():
    """Default tolerance, overridable through the PGM_TOL variable."""
    raw = os.environ.get("PGM_TOL")
    if raw is None or raw == "":
        return 1e-10
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"PGM_TOL must be a number, got {raw!r}") from None


def _parse_lines(lines):
    rows = []
    dim = None
    header_seen = False
    for lineno, raw in lines:
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if not header_seen:
            if len(tokens) != 2 or tokens[0] != "n":
                raise ParseError("expected header line 'n <dim>'", line=lineno)
            try:
                dim = int(tokens[1])
            except ValueError:
                raise ParseError(f"bad dimension {tokens[1]!r}", line=lineno, column=2) from None
            if dim < 1:
                raise ParseError(f"dimension must be >= 1, got {dim}", line=lineno)
            header_seen = True
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
            else:
                try:
                    value = float(tok)
                except ValueError:
                    raise ParseError(f"bad entry {tok!r}", line=lineno, column=col) from None
                if not math.isfinite(value):
                    raise ParseError(f"non-finite entry {tok!r}", line=lineno, column=col)
                row.append(value)
        rows.append((lineno, row))
    if not header_seen:
        raise ParseError("empty input: missing 'n <dim>' header")
    if len(rows) != dim:
        raise ParseError(f"expected {dim} matrix rows, found {len(rows)}")
    return dim, rows


def parse_partial(path):
    """Parse a partial-matrix file into a :class:`PartialMatrix`.

    Rejects asymmetric specification (an entry given on one side of the
    diagonal but missing or different on the other) and missing diagonal
    entries.
    """
    with open(path, encoding="utf-8") as handle:
        dim, rows = _parse_lines(enumerate(handle, start=1))
    values = {}
    pairs = []
    for i in range(dim):
        lineno, row = rows[i]
        for j in range(i, dim):
            here = row[j]
            mirror = rows[j][1][i]
            if (here is None) != (mirror is None):
                raise AsymmetricPattern(
                    f"entry ({i + 1}, {j + 1}) is specified on one side of the "
                    "diagonal only",
                    line=lineno,
                    column=j + 1,
                )
            if here is None:
                if i == j:
                    raise MissingDiagonal(
                        f"diagonal entry ({i + 1}, {i + 1}) is missing",
                        line=lineno,
                        column=j + 1,
                    )
                continue
            if here != mirror:
                raise AsymmetricPattern(
                    f"entries ({i + 1}, {j + 1}) and ({j + 1}, {i + 1}) disagree",
                    line=lineno,
                    column=j + 1,
                )
            values[(i + 1, j + 1)] = here
            if i != j:
                pairs.append((i + 1, j + 1))
    pattern = Pattern.from_pairs(dim, pairs)
    return PartialMatrix(pattern=pattern, values=values)


def format_partial(pm, digits=FILE_DIGITS):
    """Render a partial matrix in the text format (``?`` for missing)."""
    lines = [f"n {pm.n}"]
    for i in range(1, pm.n + 1):
        tokens = []
        for j in range(1, pm.n + 1):
            if pm.pattern.has_edge(i, j):
                tokens.append(f"{pm.entry(i, j):.{digits}g}")
            else:
                tokens.append("?")
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def format_matrix(m, digits=FILE_DIGITS):
    """Render a full matrix in the text format."""
    m = np.asarray(m, dtype=float)
    lines = [f"n {m.shape[0]}"]
    for row in m:
        lines.append(" ".join(f"{x:.{digits}g}" for x in row))
    return "\n".join(lines) + "\n"


def _human_matrix(m):
    m = np.asarray(m, dtype=float)
    cells = [[f"{x:.{REPORT_DIGITS}g}" for x in row] for row in m]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


def _write_out(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def cmd_check(args):
    pm = parse_partial(args.file)
    tol = args.tol
    chord = is_chordal(pm.pattern)
    missing = missing_positions(pm.pattern)
    print(f"pattern: {pm.n} vertices, {len(missing)} missing entries")
    if chord.chordal:
        order = " ".join(str(v) for v in chord.elimination_order)
        print(f"chordal: yes (elimination order: {order})")
    else:
        cycle = " ".join(str(v) for v in chord.chordless_cycle)
        print(f"chordal: no (chordless cycle: {cycle})")
    bad = set(offending_cliques(pm, tol))
    for clique in maximal_cliques(pm.pattern):
        verdict = "not positive definite" if clique in bad else "positive definite"
        print(f"clique {{{', '.join(str(v) for v in clique)}}}: {verdict}")
    print(f"partial positive definite: {'yes' if not bad else 'no'}")
    print(f"completable: {'yes' if chord.chordal else 'no'}")
    return 0


def cmd_complete(args):
    pm = parse_partial(args.file)
    report = max_det_completion(pm, tol=args.tol, max_cycles=args.max_cycles)
    print("maximum-determinant completion:")
    print(_human_matrix(report.matrix))
    print(f"determinant: {report.determinant:.{REPORT_DIGITS}g}")
    print(f"iterations: {report.iterations}")
    print(f"residual (max off-pattern inverse entry): {report.residual:.{REPORT_DIGITS}g}")
    print(f"converged: {'yes' if report.converged else 'no'}")
    if args.out:
        _write_out(args.out, format_matrix(report.matrix))
    return 0


def cmd_geomean(args):
    pa = parse_partial(args.file_a)
    pb = parse_partial(args.file_b)
    res = partial_geomean_maxdet(pa, pb, t=args.t)
    print(f"geometric mean of max-det completions (t = {args.t:g}):")
    print(_human_matrix(res.matrix))
    print(f"determinant: {res.determinant:.{REPORT_DIGITS}g}")
    expected = (
        res.completion_a.determinant ** (1.0 - args.t)
        * res.completion_b.determinant ** args.t
    )
    print(
        f"determinant identity: det = {res.determinant:.{REPORT_DIGITS}g}, "
        f"det(Ahat)^(1-t) det(Bhat)^t = {expected:.{REPORT_DIGITS}g}, "
        f"|diff| = {abs(res.determinant - expected):.3g}"
    )
    if args.out:
        _write_out(args.out, format_matrix(res.matrix))
    return 0


def cmd_karcher(args):
    raw = [float(x) for x in args.weights.split(",") if x.strip() != ""]
    if len(raw) != len(args.files):
        raise PgmError(f"{len(raw)} weights given for {len(args.files)} files")
    total = sum(raw)
    if total <= 0:
        raise PgmError("weights must be positive")
    weights = WeightVector(weights=tuple(x / total for x in raw))
    mats = []
    for path in args.files:
        pm = parse_partial(path)
        mats.append(max_det_completion(pm).matrix)
    result = karcher_mean(weights, mats)
    print(f"karcher mean of {len(mats)} matrices:")
    print(_human_matrix(result.matrix))
    print(f"steps: {result.steps}")
    print(f"gradient norm: {result.gradient_norm:.3g}")
    print(f"converged: {'yes' if result.converged else 'no'}")
    return 0


def cmd_entropy(args):
    if len(args.files) > 2:
        print("error: entropy takes one or two files", file=sys.stderr)
        return 2
    if len(args.files) == 1:
        pm = parse_partial(args.files[0])
        report = max_det_completion(pm)
        print(f"entropy of max-det completion: {gaussian_entropy(report.matrix):.{REPORT_DIGITS}g}")
        print(f"determinant: {report.determinant:.{REPORT_DIGITS}g}")
        return 0
    pa = parse_partial(args.files[0])
    pb = parse_partial(args.files[1])
    s0 = max_det_completion(pa).matrix
    s1 = max_det_completion(pb).matrix
    ids = entropy_identities(s0, s1, t=args.t)
    print(f"entropy identities for max-det completions (t = {args.t:g}):")
    print(
        f"H(f1) - H(f0) = {ids.entropy_diff:.{REPORT_DIGITS}g}, "
        f"trace integral form = {ids.entropy_diff_integral:.{REPORT_DIGITS}g}, "
        f"|diff| = {abs(ids.entropy_diff - ids.entropy_diff_integral):.3g}"
    )
    print(
        f"H(f0 #_t f1) = {ids.entropy_geomean:.{REPORT_DIGITS}g}, "
        f"(1-t) H0 + t H1 = {ids.entropy_interpolated:.{REPORT_DIGITS}g}, "
        f"|diff| = {abs(ids.entropy_geomean - ids.entropy_interpolated):.3g}"
    )
    return 0


def _shrunk_axis(bounds, margin=1e-6):
    lo, hi = bounds
    width = hi - lo
    return lo + margin * width, hi - margin * width


def _sweep_table(pa, pb, grid, t, tol):
    """Rows ``(x, y, det, eig_1..eig_n)`` over the feasibility box.

    Either each input carries one missing entry (x sweeps the first, y
    the second), or one input carries both and the other is complete.
    Cells are laid out x-major; infeasible cells hold NaNs.
    """
    if grid < 2:
        raise PgmError(f"grid must be at least 2, got {grid}")
    if pa.n != pb.n:
        raise DimensionMismatch(f"dimension mismatch: {pa.n} vs {pb.n}")
    miss_a = missing_positions(pa.pattern)
    miss_b = missing_positions(pb.pattern)
    total = len(miss_a) + len(miss_b)
    if total > 2:
        raise TooManyMissing(f"sweep supports at most 2 missing entries, found {total}")
    if total < 2:
        raise PgmError("sweep needs exactly two missing entries across the inputs")
    for pm in (pa, pb):
        if not is_partial_pd(pm, tol):
            raise PgmError("sweep inputs must be partial positive definite")

    dense_a = pa.to_dense(0.0)
    dense_b = pb.to_dense(0.0)

    def filled(dense, assignments):
        m = dense.copy()
        for (i, j), val in assignments:
            m[i - 1, j - 1] = m[j - 1, i - 1] = val
        return m

    if len(miss_a) == 1 and len(miss_b) == 1:
        pos_x, pos_y = miss_a[0], miss_b[0]
        x_bounds = partial_entry_bounds(pa, pos_x, tol)
        y_bounds = partial_entry_bounds(pb, pos_y, tol)

        def cell(x, y):
            return filled(dense_a, [(pos_x, x)]), filled(dense_b, [(pos_y, y)])

    else:
        swept, fixed, swap = (pa, pb, False) if len(miss_a) == 2 else (pb, pa, True)
        pos_x, pos_y = missing_positions(swept.pattern)
        x_bounds = partial_entry_bounds(swept, pos_x, tol)
        y_bounds = partial_entry_bounds(swept, pos_y, tol)
        dense_swept = swept.to_dense(0.0)
        dense_fixed = fixed.to_dense(0.0)

        def cell(x, y):
            m = filled(dense_swept, [(pos_x, x), (pos_y, y)])
            if not is_pd(m, tol):
                return None
            return (dense_fixed, m) if swap else (m, dense_fixed)

    xs = np.linspace(*_shrunk_axis(x_bounds), grid)
    ys = np.linspace(*_shrunk_axis(y_bounds), grid)
    n = pa.n
    rows = []
    for x in xs:
        for y in ys:
            pair = cell(float(x), float(y))
            if pair is None:
                rows.append((float(x), float(y)) + (float("nan"),) * (n + 1))
                continue
            m = geomean(pair[0], pair[1], t)
            eigs = np.linalg.eigvalsh(m)[::-1]
            rows.append((float(x), float(y), det(m)) + tuple(float(e) for e in eigs))
    return rows


def sweep_csv(pa, pb, grid, t, tol):
    """Deterministic CSV text for a determinant/eigenvalue sweep."""
    rows = _sweep_table(pa, pb, grid, t, tol)
    n = pa.n
    header = "x,y,det," + ",".join(f"eig_{k}" for k in range(1, n + 1))
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{v:.{FILE_DIGITS}g}" for v in row))
    return "\n".join(lines) + "\n"


def cmd_sweep(args):
    pa = parse_partial(args.file_a)
    pb = parse_partial(args.file_b)
    text = sweep_csv(pa, pb, grid=args.grid, t=args.t, tol=args.tol)
    _write_out(args.out, text)
    print(f"wrote {args.grid * args.grid} cells to {args.out}")
    return 0


def build_parser():
    tol = default_tol()
    parser = argparse.ArgumentParser(
        prog="pgm",
        description="Partial positive definite matrices: completability, "
        "maximum-determinant completion, and geometric means.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="chordality, partial PD, and completability report")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=tol, help="PD tolerance")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("complete", help="maximum-determinant completion")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=tol, help="convergence tolerance")
    p.add_argument("--max-cycles", type=int, default=500)
    p.add_argument("--out", help="write the completion to a file")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("geomean", help="weighted geometric mean of max-det completions")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--out", help="write the mean to a file")
    p.set_defaults(func=cmd_geomean)

    p = sub.add_parser("karcher", help="weighted Karcher mean of completions")
    p.add_argument("--weights", required=True, help="comma-separated, normalized to sum 1")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_karcher)

    p = sub.add_parser("entropy", help="Gaussian entropy of completions")
    p.add_argument("files", nargs="+")
    p.add_argument("--t", type=float, default=0.5)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("sweep", help="determinant/eigenvalue sweep over missing entries")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--grid", type=int, default=101, help="points per axis")
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=tol, help="PD tolerance")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    try:
        parser = build_parser()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PgmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()

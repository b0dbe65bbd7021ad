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
from .linalg import _eigh, is_pd
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
        return _tolerance(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"PGM_TOL: {exc}") from None


def _finite(text, least=-math.inf, strict=False):
    """``text`` as a finite float ``>= least`` (``> least`` if ``strict``): the
    ``type`` of the numeric options, so argparse names the option on failure."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > least if strict else value >= least)):
        bound = f" {'>' if strict else '>='} {least:g}" if least > -math.inf else ""
        raise argparse.ArgumentTypeError(f"expected a finite number{bound}, got {text!r}")
    return value


def _tolerance(text):
    return _finite(text, 0.0)


def _weights(text):
    return [_finite(x, 0.0, strict=True) for x in text.split(",") if x.strip()]


def _scan_row(tokens, lineno):
    """Raise the ParseError of a row's leftmost bad or non-finite token."""
    for col, tok in enumerate(tokens, start=1):
        if tok == "?":
            continue
        try:
            value = float(tok)
        except ValueError:
            raise ParseError(f"bad entry {tok!r}", line=lineno, column=col) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite entry {tok!r}", line=lineno, column=col)


def _parse_lines(lines):
    rows, linenos = [], []
    dim = None
    for lineno, raw in lines:
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if dim is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise ParseError("expected header line 'n <dim>'", line=lineno)
            try:
                dim = int(tokens[1])
            except ValueError:
                raise ParseError(f"bad dimension {tokens[1]!r}", line=lineno, column=2) from None
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
        # {column: value}, 0-based; only a row whose sum is not finite is scanned
        try:
            if "?" in tokens:
                row = {col: float(tok) for col, tok in enumerate(tokens) if tok != "?"}
            else:
                row = dict(enumerate(map(float, tokens)))
            finite = math.isfinite(sum(row.values()))
        except ValueError:
            finite = False
        if not finite:
            _scan_row(tokens, lineno)
        rows.append(row)
        linenos.append(lineno)
    if dim is None:
        raise ParseError("empty input: missing 'n <dim>' header")
    if len(rows) != dim:
        raise ParseError(f"expected {dim} matrix rows, found {len(rows)}")
    return dim, rows, linenos


def _raise_first_fault(rows, linenos):
    """Raise the error of the first position ``(i, j)``, ``i <= j``, row-major,
    given on one side only, a missing diagonal, or unequal to its mirror."""
    for i, (line, row) in enumerate(zip(linenos, rows), start=1):
        for j in range(i, len(rows) + 1):
            here, mirror = row.get(j - 1), rows[j - 1].get(i - 1)
            if (here is None) != (mirror is None):
                message = f"entry ({i}, {j}) is specified on one side of the diagonal only"
                raise AsymmetricPattern(message, line=line, column=j)
            if here is None and i == j:
                raise MissingDiagonal(f"diagonal entry ({i}, {i}) is missing", line=line, column=j)
            if here != mirror:
                message = f"entries ({i}, {j}) and ({j}, {i}) disagree"
                raise AsymmetricPattern(message, line=line, column=j)


def parse_partial(path):
    """Parse a partial-matrix file into a :class:`PartialMatrix`.

    Rejects asymmetric specification (an entry given on one side of the
    diagonal but missing or different on the other) and missing diagonal
    entries, with a count and a mirror lookup per given entry; only a file
    that fails them is scanned position by position for its first fault.
    """
    with open(path, encoding="utf-8") as handle:
        dim, rows, linenos = _parse_lines(enumerate(handle, start=1))
    values = {(i + 1, j + 1): v for i, row in enumerate(rows) for j, v in row.items() if j >= i}
    if sum(map(len, rows)) != 2 * len(values) - dim or any(
        rows[j - 1].get(i - 1) != v for (i, j), v in values.items()
    ):
        _raise_first_fault(rows, linenos)
    return PartialMatrix(pattern=Pattern(n=dim, edges=frozenset(values)), values=values)


def format_partial(pm, digits=FILE_DIGITS):
    """Render a partial matrix in the text format (``?`` for missing)."""
    lines = [f"n {pm.n}"]
    for i in range(1, pm.n + 1):
        row = (pm.values.get((min(i, j), max(i, j))) for j in range(1, pm.n + 1))
        lines.append(" ".join("?" if v is None else f"{v:.{digits}g}" for v in row))
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
    missing = pm.n * (pm.n + 1) // 2 - len(pm.pattern.edges)
    print(f"pattern: {pm.n} vertices, {missing} missing entries")
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
    note = "" if chord.chordal else "; these values may still complete, run 'pgm complete'"
    print(f"completable: {'yes' if chord.chordal else 'no'} (verdict on the pattern{note})")
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
    if len(args.weights) != len(args.files):
        raise PgmError(f"{len(args.weights)} weights given for {len(args.files)} files")
    total = sum(args.weights)
    weights = WeightVector(weights=tuple(x / total for x in args.weights))
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
    """Rows ``(x, y, det, eig_1..eig_n)`` over the feasibility box, x-major,
    as one ``(grid**2, n + 3)`` array; a cell whose pair is not PD holds NaNs.

    Either each input carries one missing entry (x sweeps the first, y
    the second), or one input carries both and the other is complete.
    Each distinct filled matrix is PD-tested once: the input without x
    once for the grid, the input with x once per x-row, each held as a
    stack along y if it holds y.  An x-row then costs one geomean (a
    stack of one broadcasts), one det and one eigvalsh.
    """
    if grid < 2:
        raise PgmError(f"grid must be at least 2, got {grid}")
    if pa.n != pb.n:
        raise DimensionMismatch(f"dimension mismatch: {pa.n} vs {pb.n}")
    pms = (pa, pb)
    slots = [(k, pos) for k, pm in enumerate(pms) for pos in missing_positions(pm.pattern)]
    if len(slots) > 2:
        raise TooManyMissing(f"sweep supports at most 2 missing entries, found {len(slots)}")
    if len(slots) < 2:
        raise PgmError("sweep needs exactly two missing entries across the inputs")
    for pm in pms:
        if not is_partial_pd(pm, tol):
            raise PgmError("sweep inputs must be partial positive definite")

    (kx, pos_x), (ky, pos_y) = slots
    xs = np.linspace(*_shrunk_axis(partial_entry_bounds(pms[kx], pos_x, tol)), grid)
    ys = np.linspace(*_shrunk_axis(partial_entry_bounds(pms[ky], pos_y, tol)), grid)
    # ops[k] is input k on the current x-row: a stack along y if it holds y, else a stack of one
    ops = [np.tile(pm.to_dense(0.0), (grid if ky == k else 1, 1, 1)) for k, pm in enumerate(pms)]
    (i, j), (p, q) = pos_x, pos_y
    ops[ky][:, p - 1, q - 1] = ops[ky][:, q - 1, p - 1] = ys
    ok = [is_pd(ops[1 - kx], tol)] * 2  # the input without x is the same on every row
    table = np.full((grid, grid, pa.n + 3), np.nan)
    table[..., 0] = xs[:, None]
    table[..., 1] = ys
    for r, x in enumerate(xs):
        ops[kx][:, i - 1, j - 1] = ops[kx][:, j - 1, i - 1] = x
        ok[kx] = is_pd(ops[kx], tol)
        keep = ok[0] & ok[1]
        if keep.any():
            m = geomean(*(op[0] if len(op) == 1 else op[keep] for op in ops), t, tol)
            table[r, keep, 2] = np.linalg.det(m)
            table[r, keep, 3:] = _eigh(m, vectors=False)[:, ::-1]
    return table.reshape(grid * grid, -1)


def sweep_csv(pa, pb, grid, t, tol):
    """Deterministic CSV text for a determinant/eigenvalue sweep, written by
    one ``%`` call (``%.17g`` prints nan, inf and -0 as ``f"{v:.17g}"`` does)."""
    table = _sweep_table(pa, pb, grid, t, tol)
    header = "x,y,det," + ",".join(f"eig_{k}" for k in range(1, pa.n + 1)) + "\n"
    row = ",".join([f"%.{FILE_DIGITS}g"] * table.shape[1]) + "\n"
    return header + (row * len(table)) % tuple(table.ravel().tolist())


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
    p.add_argument("--tol", type=_tolerance, default=tol, help="PD tolerance")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("complete", help="maximum-determinant completion")
    p.add_argument("file")
    p.add_argument("--tol", type=_tolerance, default=tol, help="convergence tolerance")
    p.add_argument("--max-cycles", type=int, default=500)
    p.add_argument("--out", help="write the completion to a file")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("geomean", help="weighted geometric mean of max-det completions")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--t", type=_finite, default=0.5)
    p.add_argument("--out", help="write the mean to a file")
    p.set_defaults(func=cmd_geomean)

    p = sub.add_parser("karcher", help="weighted Karcher mean of completions")
    p.add_argument(
        "--weights", type=_weights, required=True, help="comma-separated, normalized to sum 1"
    )
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_karcher)

    p = sub.add_parser("entropy", help="Gaussian entropy of completions")
    p.add_argument("files", nargs="+")
    p.add_argument("--t", type=_finite, default=0.5)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("sweep", help="determinant/eigenvalue sweep over missing entries")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--grid", type=int, default=101, help="points per axis")
    p.add_argument("--t", type=_finite, default=0.5)
    p.add_argument("--tol", type=_tolerance, default=tol, help="PD tolerance")
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
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PgmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()

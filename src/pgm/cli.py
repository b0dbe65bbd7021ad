"""Command-line interface.

Partial matrices travel in a small text format: a first line ``n <dim>``
followed by ``<dim>`` rows of tokens, each a finite number (a ``float()``
spelling) or ``?`` for a missing entry, cut as ``str.split`` cuts them;
``#`` starts a comment line.  Files are UTF-8, with an optional byte-order
mark.  Files written by the tool carry 17 significant digits so that
parsing them back is exact; human-readable reports use 6.  A file is
read as bytes, once, and parsed straight into the array of a
:class:`PartialMatrix`: one count of ``?`` on the bytes sends a
``?``-heavy file to one tokenize of all its bytes, and any other file,
or one that reader refuses (a non-ASCII row, a fault), is split row by
row.  A token below the diagonal that spells its mirror takes the
mirror's value, and a printed cell with its mirror's bits the mirror's
text; one ``%`` formats the other cells.

The module parses, dispatches to the library and formats.  Subcommands:
``check``, ``complete``, ``geomean``, ``karcher``, ``entropy``, ``sweep``.
Exit status is 0 on success, 1 on domain errors (not positive definite,
not completable, not converged, ...), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings

import numpy as np

from .completion import max_det_completion
from .errors import AsymmetricPattern, MissingDiagonal, ParseError, PgmError
from .linalg import DEFAULT_TOL
from .means import (
    entropy_identities,
    gaussian_entropy,
    karcher_mean,
    partial_geomean_maxdet,
    partial_geomean_sweep,
)
from .partial import PartialMatrix, offending_cliques
from .pattern import Pattern, is_chordal, maximal_cliques

#: File precision: enough digits to round-trip any float64 exactly.
FILE_DIGITS = 17
REPORT_DIGITS = 6


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


def _count(text, least):
    """``text`` as an integer ``>= least``: the ``type`` of ``--max-cycles`` and ``--grid``."""
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
    return value


def _weights(text):
    """One positive weight per comma-separated item, an empty item refused, normalized
    to sum 1.  They are first scaled by the power of two at the largest, which is
    exact and keeps the sum finite."""
    items = text.split(",")
    if not any(x.strip() for x in items):
        raise argparse.ArgumentTypeError(f"expected comma-separated weights, got {text!r}")
    raw = [_finite(x, 0.0, strict=True) for x in items]
    top = math.frexp(max(raw))[1]
    scaled = [math.ldexp(x, -top) for x in raw]
    total = sum(scaled)
    weights = [x / total for x in scaled]
    if not all(weights):
        raise argparse.ArgumentTypeError(f"a weight underflows to 0 beside the largest: {text!r}")
    return weights


#: A file with at least this many ``?`` is tokenized as one byte array.  Below about
#: 500 ``?`` its array calls cost 5-20 us more than one ``str.split`` per row and one
#: ``!= "?"``, from 700 to 1000 the two readers are within 10 us, and from 1100 on the
#: array wins by 10 us or more (band-2, ring and grid files, n 8-80, tokenized in
#: their own bytes).
_BULK_MISSING = 1024


def _row(tokens, dim, number, lineno):
    """Raise the ParseError of row ``number``'s wrong count, else of its leftmost bad or
    non-finite token: the row-by-row read of a file that a reader refused."""
    if len(tokens) != dim:
        raise ParseError(f"expected {dim} entries in row {number}, got {len(tokens)}", line=lineno)
    for col, tok in enumerate(tokens, start=1):
        if tok == "?":
            continue
        try:
            value = float(tok)
        except ValueError:
            raise ParseError(f"bad entry {tok!r}", line=lineno, column=col) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite entry {tok!r}", line=lineno, column=col)


def _values(dim, given, texts):
    """The value of each given token (ascending flat positions ``given``, object array
    ``texts``), or None if one is bad or non-finite.  A token below the diagonal whose mirror
    is given with its text takes the mirror's value, as ``float`` of one text is one value;
    any other is converted, so every distinct text is.  A ``?``-free file indexes itself."""
    r, c = np.divmod(given, dim)
    flip = c * dim + r
    low = (flip < given).nonzero()[0]
    mirror = flip[low] if len(given) == dim * dim else given.searchsorted(flip[low])
    same = (given[mirror] == flip[low]) & (texts[low] == texts[mirror])
    low, mirror = low[same], mirror[same]
    own = np.ones(len(given), dtype=bool)
    own[low] = False
    vals = np.empty(len(given))
    try:
        vals[own] = list(map(float, texts[own].tolist()))
    except ValueError:
        return None
    vals[low] = vals[mirror]
    return vals if np.isfinite(vals).all() else None


def _tokenize(blob):
    """The tokens of the bytes ``blob`` as ``str.split`` cuts them at ASCII whitespace (a
    non-ASCII byte is no separator), from one pass over them: each line's token count, and
    the line, 0-based column and bytes of each given token (any but a lone ``?``).  A line
    starts after a ``\\n`` byte and ends at the next, so ``blob`` starts and ends with one.
    One ``np.add.reduceat`` of the token starts, cut at the line bounds and at the given
    tokens, counts the tokens before each cut, so only given tokens become Python objects."""
    b = np.frombuffer(blob, dtype=np.uint8)
    sep = ((b - 9) < 5) | ((b - 28) < 5)  # str.split's ASCII whitespace: \t-\r, \x1c-" "
    start, end = np.zeros(b.size, dtype=bool), np.zeros(b.size, dtype=bool)
    np.greater(sep[:-1], sep[1:], out=start[1:])
    np.less(sep[:-1], sep[1:], out=end[:-1])
    lone = start & end & (b == ord("?"))
    first, last = (start ^ lone).nonzero()[0], (end ^ lone).nonzero()[0]
    bounds = (b == ord("\n")).nonzero()[0]
    cuts = np.sort(np.concatenate([bounds, first]))  # disjoint: bounds are separators
    seg = np.add.reduceat(start, cuts, dtype=np.uint32)  # a cut spans < 2**33 bytes
    before = seg.cumsum(dtype=np.intp) - seg  # token starts before each cut
    at_bound = before[cuts.searchsorted(bounds)]
    line = bounds.searchsorted(first) - 1
    column = before[cuts.searchsorted(first)] - at_bound[line]
    texts = [blob[s : e + 1] for s, e in zip(first.tolist(), last.tolist())]
    return at_bound[1:] - at_bound[:-1], line, column, texts


def _parse_lines(data, text):
    """``dim``, the flat indices and values of the given entries, and each row's line, from
    a file's bytes ``data`` and their ``text``, both with ``\\n`` newlines.  A file with
    ``_BULK_MISSING`` ``?`` or more is tokenized once, as one byte array: the lines that hold
    a token, less those whose first token starts with ``#``, are the header and then the
    rows, and the header must read ``n <rows>`` byte for byte.  Any other file, and one that
    reader refused (a non-ASCII row, a header spelled otherwise, a fault), is split per row,
    so no file is tokenized twice.  A file whose row count, entry counts or values are off is
    read again by :func:`_row`, so the first faulty row raises."""
    missing = np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord("?"))
    if missing >= _BULK_MISSING:
        counts, line, column, texts = _tokenize(b"\n" + data + b"\n")
        texts = np.array(texts, dtype=object)
        if b"#" in data:  # drop the tokens of each line whose first token starts with "#"
            lead = (column == 0).nonzero()[0].tolist()
            comment = np.isin(line, [line[k] for k in lead if texts[k].startswith(b"#")])
            counts[line[comment]] = 0
            line, column, texts = line[~comment], column[~comment], texts[~comment]
        keep = counts.nonzero()[0]  # the header, then the rows; blob line k is file line k + 1
        row_lines, dim = keep[1:], len(keep) - 1
        if (dim > 0 and counts[keep[0]] == 2 and texts[:2].tolist() == [b"n", b"%d" % dim]
                and line[1] == keep[0] and (counts[row_lines] == dim).all()):
            given = row_lines.searchsorted(line[2:]) * dim + column[2:]  # row by line, then column
            vals = _values(dim, given, texts[2:])
            if vals is not None:
                return dim, given, vals, (row_lines + 1).tolist()
    lines = text.split("\n")
    dim, linenos = None, []  # the line of each matrix row, up to one past dim
    for lineno, raw in enumerate(lines, start=1):
        head = raw.lstrip()  # str.lstrip strips the whitespace that str.split cuts at
        if not head or head.startswith("#"):
            continue
        if dim is None:
            tokens = raw.split()
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
        linenos.append(lineno)
        if len(linenos) > dim:
            break
    if dim is None:
        raise ParseError("empty input: missing 'n <dim>' header")
    body = [lines[k - 1] for k in linenos[:dim]]
    if len(linenos) == dim and set(map(len, rows := [raw.split() for raw in body])) == {dim}:
        given, texts = np.arange(dim * dim), np.array(rows, dtype=object).ravel()
        if missing:
            given = np.flatnonzero(texts != "?")
            texts = texts[given]
        vals = _values(dim, given, texts)
        if vals is not None:
            return dim, given, vals, linenos
    for i, raw in enumerate(body):
        _row(raw.split(), dim, i + 1, linenos[i])
    if len(linenos) > dim:
        raise ParseError(f"more than {dim} matrix rows", line=linenos[dim])
    raise ParseError(f"expected {dim} matrix rows, found {len(linenos)}")


def _raise_first_fault(a, mask, linenos):
    """Raise the error of the first position ``(i, j)``, ``i <= j``, row-major,
    given on one side only, a missing diagonal, or unequal to its mirror."""
    one_sided = mask != mask.T
    fault = np.triu(one_sided | (a != a.T)) | np.diag(~mask.diagonal())
    row, col = divmod(int(fault.argmax()), len(mask))
    i, j = row + 1, col + 1
    where = {"line": linenos[row], "column": j}
    if one_sided[row, col]:
        message = f"entry ({i}, {j}) is specified on one side of the diagonal only"
        raise AsymmetricPattern(message, **where)
    if i == j:
        raise MissingDiagonal(f"diagonal entry ({i}, {i}) is missing", **where)
    raise AsymmetricPattern(f"entries ({i}, {j}) and ({j}, {i}) disagree", **where)


def parse_partial(path):
    """Parse a partial-matrix file into a :class:`PartialMatrix`.

    The given entries fill one value array and its mask in one flat assignment, a
    token below the diagonal spelled as its mirror read once (:func:`_values`).
    Asymmetric specification (an entry given on one side of the diagonal but missing
    or different on the other) and missing diagonal entries are rejected with a mirror
    lookup per given entry; only a file that fails it is searched for its first fault,
    row-major.  Each pair keeps its upper entry, a ``-0.0`` included.
    """
    with open(path, "rb") as handle:
        data = handle.read().removeprefix(b"\xef\xbb\xbf")  # one byte-order mark, as utf-8-sig
    if b"\r" in data:  # the universal newlines of a text-mode read
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode()
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text") from None
    dim, given, vals, linenos = _parse_lines(data, text)
    r, c = np.divmod(given, dim)
    mirror = c * dim + r
    a, mask = np.zeros(dim * dim), np.zeros(dim * dim, dtype=bool)
    a[given], mask[given] = vals, True
    if not (mask[:: dim + 1].all() and mask[mirror].all() and np.array_equal(a[mirror], a[given])):
        _raise_first_fault(a.reshape(dim, dim), mask.reshape(dim, dim), linenos)
    a[given[r > c]] = a[mirror[r > c]]
    pattern = Pattern._from_mask(mask.reshape(dim, dim))
    return PartialMatrix._from_array(pattern, a.reshape(dim, dim))


def _cells(m, spec, given=True):
    """The text ``spec % v`` of each entry ``v`` of the square float array ``m``, ``?`` where
    not ``given``, as an object array from one ``%`` call: an entry below the diagonal whose
    bits equal its mirror's (so not a one-ulp pair, ``-0.0`` beside ``0.0``) copies its text."""
    bits, k = m.view(np.uint64), np.arange(len(m))
    copy = (bits == bits.T) & np.greater.outer(k, k) & given
    own = ~copy & given
    cells = np.full(m.shape, "?", dtype=object)
    cells[own] = (f"{spec} " * np.count_nonzero(own) % tuple(m[own].tolist())).split()
    cells[copy] = cells.T[copy]
    return cells


def format_partial(pm):
    """Render a partial matrix in the text format (``?`` for missing) from :func:`_cells`."""
    rows = _cells(pm._a, f"%.{FILE_DIGITS}g", pm.pattern._mask).tolist()
    return f"n {pm.n}\n" + "\n".join(map(" ".join, rows)) + "\n"


def format_matrix(m):
    """Render a full matrix in the text format from :func:`_cells`."""
    rows = _cells(np.asarray(m, dtype=float), f"%.{FILE_DIGITS}g").tolist()
    return f"n {len(rows)}\n" + "\n".join(map(" ".join, rows)) + "\n"


def _human_matrix(m):
    """Report cells from :func:`_cells`, right-aligned to the widest by one ``%`` call."""
    m = np.asarray(m, dtype=float)
    cells = _cells(m, f"%.{REPORT_DIGITS}g").ravel().tolist()
    line = "  ".join([f"%{max(map(len, cells))}s"] * m.shape[1])
    return "\n".join([line] * m.shape[0]) % tuple(cells)


def _determinant_text(log_det):
    """Text of ``exp(log_det)``: from ``log10`` where ``700 <= |log_det| < inf``, else ``%.6g``."""
    if not 700.0 <= abs(log_det) < math.inf:  # NaN fails every comparison
        return f"{math.exp(log_det):.{REPORT_DIGITS}g}"
    exponent, frac = divmod(log_det / math.log(10.0), 1.0)
    digits = f"{10.0**frac:.{REPORT_DIGITS}g}"  # a mantissa of "10" carries into the exponent
    return f"1e{exponent + 1:+.0f}" if digits == "10" else f"{digits}e{exponent:+.0f}"


def _write_out(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def cmd_check(args):
    pm = parse_partial(args.file)
    chord = is_chordal(pm.pattern)
    missing = (pm.n**2 - np.count_nonzero(pm.pattern._mask)) // 2
    if chord.chordal:
        witness = f"yes (elimination order: {' '.join(map(str, chord.elimination_order))})"
    else:
        witness = f"no (chordless cycle: {' '.join(map(str, chord.chordless_cycle))})"
    bad = set(offending_cliques(pm, args.tol))
    cliques = [f"clique {{{', '.join(map(str, c))}}}: {'not ' * (c in bad)}positive definite\n"
               for c in maximal_cliques(pm.pattern)]
    note = "" if chord.chordal else "; these values may still complete, run 'pgm complete'"
    print(f"pattern: {pm.n} vertices, {missing} missing entries\nchordal: {witness}\n"
          f"{''.join(cliques)}partial positive definite: {'no' if bad else 'yes'}\n"
          f"completable: {'yes' if chord.chordal else 'no'} (verdict on the pattern{note})")
    return 0


def cmd_complete(args):
    pm = parse_partial(args.file)
    report = max_det_completion(pm, tol=args.tol, max_cycles=args.max_cycles)
    print("maximum-determinant completion:")
    print(_human_matrix(report.matrix))
    print(f"determinant: {_determinant_text(report.log_determinant)}")
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
    print(f"determinant: {_determinant_text(res.log_determinant)}")
    expected = (
        (1.0 - args.t) * res.completion_a.log_determinant
        + args.t * res.completion_b.log_determinant
    )
    print(
        f"log-determinant identity: log det = {res.log_determinant:.{REPORT_DIGITS}g}, "
        f"(1-t) log det(Ahat) + t log det(Bhat) = {expected:.{REPORT_DIGITS}g}, "
        f"|diff| = {abs(res.log_determinant - expected):.3g}"
    )
    if args.out:
        _write_out(args.out, format_matrix(res.matrix))
    return 0


def cmd_karcher(args):
    if len(args.weights) != len(args.files):
        counts = f"{len(args.weights)} weights given for {len(args.files)} files"
        print(f"error: {counts}", file=sys.stderr)
        return 2
    mats = []
    for path in args.files:
        pm = parse_partial(path)
        mats.append(max_det_completion(pm).require_converged().matrix)
    result = karcher_mean(args.weights, mats)
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
        report = max_det_completion(pm).require_converged()
        print(f"entropy of max-det completion: {gaussian_entropy(report.matrix):.{REPORT_DIGITS}g}")
        print(f"determinant: {_determinant_text(report.log_determinant)}")
        return 0
    pa = parse_partial(args.files[0])
    pb = parse_partial(args.files[1])
    s0 = max_det_completion(pa).require_converged().matrix
    s1 = max_det_completion(pb).require_converged().matrix
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


def sweep_csv(pa, pb, grid, t, tol):
    """Deterministic CSV text for a determinant/eigenvalue sweep.  Each x and y
    value is formatted once and spliced into the row template, so the one
    ``%`` call converts only the det and eigenvalue columns (``%.17g`` prints
    nan, inf and -0 as ``f"{v:.17g}"`` does)."""
    table = partial_geomean_sweep(pa, pb, grid, t, tol).reshape(grid, grid, -1)
    header = "x,y,det," + ",".join(f"eig_{k}" for k in range(1, pa.n + 1)) + "\n"
    xs = [f"{v:.{FILE_DIGITS}g}" for v in table[:, 0, 0].tolist()]
    ys = [f"{v:.{FILE_DIGITS}g}" for v in table[0, :, 1].tolist()]
    tail = ",".join([f"%.{FILE_DIGITS}g"] * (pa.n + 1)) + "\n"
    # x-row "x,y_1,<tail>x,y_2,<tail>...": one join over the formatted y per x
    rows = "".join(f"{x}," + f",{tail}{x},".join(ys) + f",{tail}" for x in xs)
    return header + rows % tuple(table[..., 2:].ravel().tolist())


def cmd_sweep(args):
    pa = parse_partial(args.file_a)
    pb = parse_partial(args.file_b)
    text = sweep_csv(pa, pb, grid=args.grid, t=args.t, tol=args.tol)
    _write_out(args.out, text)
    print(f"wrote {args.grid * args.grid} cells to {args.out}")
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once for every ``main`` call in the process."""
    parser = argparse.ArgumentParser(
        prog="pgm",
        description="Partial positive definite matrices: completability, "
        "maximum-determinant completion, and geometric means.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="chordality, partial PD, and completability report")
    p.add_argument("file")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="PD tolerance")

    p = sub.add_parser("complete", help="maximum-determinant completion")
    p.add_argument("file")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="convergence tolerance")
    p.add_argument("--max-cycles", type=functools.partial(_count, least=1), default=500,
                   help="budget of IPS sweeps and Newton steps on a non-chordal pattern")
    p.add_argument("--out", help="write the completion to a file")

    p = sub.add_parser("geomean", help="weighted geometric mean of max-det completions")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--t", type=_finite, default=0.5)
    p.add_argument("--out", help="write the mean to a file")

    p = sub.add_parser("karcher", help="weighted Karcher mean of completions")
    p.add_argument(
        "--weights", type=_weights, required=True,
        help="comma-separated, one per file, normalized to sum 1",
    )
    p.add_argument("files", nargs="+")

    p = sub.add_parser("entropy", help="Gaussian entropy of completions")
    p.add_argument("files", nargs="+")
    p.add_argument("--t", type=_finite, default=0.5)

    p = sub.add_parser("sweep", help="determinant/eigenvalue sweep over missing entries")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument(
        "--grid", type=functools.partial(_count, least=2), default=101,
        help="points per axis, at least 2",
    )
    p.add_argument("--t", type=_finite, default=0.5)
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="PD tolerance")
    p.add_argument("--out", required=True, help="CSV output path")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # a library warning shown is one line, as errors are
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            # looked up per call, not bound into the cached parser, so a replaced cmd_* runs
            return globals()[f"cmd_{args.command}"](args)
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

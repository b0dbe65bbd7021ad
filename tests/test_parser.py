"""The partial-matrix file parser against a cell-by-cell reference.

``parse_partial`` converts each row in one pass and checks symmetry on
the given entries only; ``conftest.reference_parse`` converts and checks
every cell.  On valid files both must give the same pattern and the same
values (bit for bit, signed zeros included); on corrupted files both
must raise the same error class, message, line and column.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgm import Pattern, PartialMatrix
from pgm.cli import format_partial, parse_partial
from pgm.errors import ParseError
from conftest import rand_chordal_pattern, reference_parse

BAD_TOKENS = ["x1", "?1", "nan", "-inf", "Infinity", "1e999", "1.5.2", "??", "1?"]
#: Fault kinds and how often :func:`corrupt` applies each.
FAULTS = {
    "bad": 0.12, "row_of_bad": 0.1, "one_sided": 0.16, "disagree": 0.14, "signed_zero": 0.12,
    "diagonal": 0.12, "short": 0.05, "long": 0.05, "extra_row": 0.04, "drop_row": 0.04,
    "header": 0.06,
}


def outcome(parse, path):
    """``("ok", pattern, values)`` or ``("error", class, message, line, column)``."""
    try:
        pm = parse(path)
    except ParseError as exc:
        return ("error", type(exc), str(exc), exc.line, exc.column)
    return ("ok", pm.pattern, {k: repr(v) for k, v in pm.values.items()})


def random_pattern(rng, n):
    if rng.random() < 0.5:
        return rand_chordal_pattern(rng, n, fill=float(rng.uniform(0.2, 0.9)))
    density = rng.uniform(0.02, 1.0)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < density]
    return Pattern.from_pairs(n, pairs)


def token_grid(rng, pattern):
    """Row-major token lists of a symmetric partial matrix on ``pattern``,
    with values printed in several valid spellings."""
    n = pattern.n
    grid = [["?"] * n for _ in range(n)]
    spell = [repr, lambda v: f"{v:.17g}", lambda v: f"{v:.3e}", lambda v: str(int(v * 4))]
    for i, j in pattern.edges:
        v = float(rng.standard_normal()) * 10.0 ** int(rng.integers(-3, 4))
        grid[i - 1][j - 1] = grid[j - 1][i - 1] = spell[int(rng.integers(len(spell)))](v)
    return grid


def render(rng, grid, header=None):
    """File text for a token grid, with comments, blank lines and mixed
    separators sprinkled in."""
    lines = [header if header is not None else f"n {len(grid)}"]
    for row in grid:
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "# comment", "   ", "\t# indented comment"]))
        sep = " " if rng.random() < 0.8 else rng.choice(["  ", "\t", " \t "])
        lines.append(sep.join(row))
    return "\n".join(lines) + ("\n" if rng.random() < 0.9 else "")


def corrupt(rng, grid):
    """Apply one to three faults to a token grid (some of them harmless,
    such as ``-0.0`` against ``0``); returns the header line to use."""

    def put(r, c, tok):
        if r < len(grid) and c < len(grid[r]):
            grid[r][c] = tok

    header = None
    for _ in range(int(rng.integers(1, 4))):
        n = len(grid)
        i, j = (int(x) for x in rng.integers(n, size=2))
        kind = rng.choice(list(FAULTS), p=list(FAULTS.values()))
        if kind == "bad":
            put(i, j, str(rng.choice(BAD_TOKENS)))
        elif kind == "row_of_bad":  # several faults in one row, of mixed kinds
            for col in rng.choice(n, size=min(n, 3), replace=False):
                put(i, int(col), str(rng.choice(BAD_TOKENS + ["?", "-0"])))
        elif kind == "one_sided":
            put(i, j, "?" if j < len(grid[i]) and grid[i][j] != "?" else "1.5")
        elif kind == "disagree" and j < len(grid[i]):
            try:
                value = float(grid[i][j])
            except ValueError:
                continue
            if math.isfinite(value):
                put(i, j, repr(2.0 * value + 1.0))
        elif kind == "signed_zero":
            put(i, j, "-0.0")
            put(j, i, "0")
        elif kind == "diagonal":
            put(i, i, "?")
        elif kind == "short" and len(grid[i]) > 1:
            del grid[i][min(j, len(grid[i]) - 1)]
        elif kind == "long":
            grid[i].insert(j, "1")
        elif kind == "extra_row":
            grid.append(list(grid[i]))
        elif kind == "drop_row" and n > 1:
            del grid[i]
        elif kind == "header":
            header = str(rng.choice(["n", f"n {n} x", f"m {n}", "n two", "n 0", f"n {n + 1}"]))
    return header


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("seed", range(6))
def test_valid_files_match_reference(tmp_path, seed):
    rng = np.random.default_rng([31, seed])
    for k, n in enumerate([1, 2, 5, 17, 60, 200]):
        pattern = random_pattern(rng, n)
        path = write(tmp_path, f"v{k}.txt", render(rng, token_grid(rng, pattern)))
        got = outcome(parse_partial, path)
        assert got[0] == "ok"
        assert got == outcome(reference_parse, path)


def test_dense_and_empty_patterns_match_reference(tmp_path):
    rng = np.random.default_rng(7)
    for n in (1, 3, 40):
        for pattern in (Pattern.complete(n), Pattern.from_pairs(n)):
            path = write(tmp_path, "d.txt", render(rng, token_grid(rng, pattern)))
            assert outcome(parse_partial, path) == outcome(reference_parse, path)


@pytest.mark.parametrize("seed", range(8))
def test_corrupted_files_match_reference(tmp_path, seed):
    rng = np.random.default_rng([53, seed])
    kinds = set()
    for k in range(50):
        n = int(rng.choice([1, 2, 3, 4, 6, 9, 13, 30]))
        grid = token_grid(rng, random_pattern(rng, n))
        header = corrupt(rng, grid)
        path = write(tmp_path, f"c{k}.txt", render(rng, grid, header))
        want = outcome(reference_parse, path)
        assert outcome(parse_partial, path) == want, path
        kinds.add(want[1].__name__ if want[0] == "error" else "ok")
    assert {"ParseError", "AsymmetricPattern"} <= kinds


@pytest.mark.parametrize(
    "row, column, message",
    [
        ("1 x1 nan", 2, "bad entry 'x1'"),
        ("1 nan x1", 2, "non-finite entry 'nan'"),
        ("1e999 ?1 3", 1, "non-finite entry '1e999'"),
        ("? ?1 -inf", 2, "bad entry '?1'"),
    ],
)
def test_leftmost_fault_in_a_row_wins(tmp_path, row, column, message):
    path = write(tmp_path, "r.txt", f"n 3\n1 0 0\n{row}\n0 0 1\n")
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse_partial(path)
    assert (err.value.line, err.value.column) == (3, column)
    assert outcome(parse_partial, path) == outcome(reference_parse, path)


def test_finite_values_whose_sum_overflows(tmp_path):
    big = "1.7976931348623157e308"
    path = write(tmp_path, "o.txt", f"n 2\n{big} {big}\n{big} {big}\n")
    pm = parse_partial(path)
    assert pm.entry(1, 2) == float(big)
    assert outcome(parse_partial, path) == outcome(reference_parse, path)


def test_signed_zero_keeps_the_upper_value(tmp_path):
    path = write(tmp_path, "z.txt", "n 2\n1 -0.0\n0 1\n")
    assert math.copysign(1.0, parse_partial(path).entry(1, 2)) == -1.0
    path = write(tmp_path, "z2.txt", "n 2\n1 0\n-0.0 1\n")
    assert math.copysign(1.0, parse_partial(path).entry(1, 2)) == 1.0


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
           1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def partial_matrices(draw):
    n = draw(st.integers(1, 8))
    upper = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pairs = [p for p in upper if draw(st.booleans())]
    pattern = Pattern.from_pairs(n, pairs)
    value = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
    return PartialMatrix(pattern=pattern, values={e: draw(value) for e in sorted(pattern.edges)})


@given(pm=partial_matrices())
def test_format_parse_roundtrip(tmp_path_factory, pm):
    path = tmp_path_factory.getbasetemp() / "roundtrip.txt"
    path.write_text(format_partial(pm), encoding="utf-8")
    back = parse_partial(str(path))
    assert back.pattern == pm.pattern
    assert {k: repr(v) for k, v in back.values.items()} == {
        k: repr(v) for k, v in pm.values.items()
    }

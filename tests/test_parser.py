"""The partial-matrix file parser against a cell-by-cell reference.

``parse_partial`` converts the tokens on or above the diagonal, and one
below it only where its text differs from its mirror's, and checks
symmetry on the given entries only; ``conftest.reference_parse`` converts and checks
every cell.  On valid files both must give the same pattern and the same
values (bit for bit, signed zeros included); on corrupted files both
must raise the same error class, message, line and column.  A file with
at least ``cli._BULK_MISSING`` ``?`` is tokenized by one ``cli._tokenize``
call on its bytes, and any other, or one that reader refuses, is split
row by row; the tests of that path count the tokenize calls and name the
reader whose tokens reach ``cli._values``, and the random corpora run
once more under each reader alone.
"""

import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgm import Pattern, PartialMatrix, cli
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


def valid_files(tmp_path, seed):
    rng = np.random.default_rng([31, seed])
    for k, n in enumerate([1, 2, 5, 17, 60, 200]):
        pattern = random_pattern(rng, n)
        yield write(tmp_path, f"v{k}.txt", render(rng, token_grid(rng, pattern)))


def corrupted_files(tmp_path, seed):
    rng = np.random.default_rng([53, seed])
    for k in range(50):
        n = int(rng.choice([1, 2, 3, 4, 6, 9, 13, 30]))
        grid = token_grid(rng, random_pattern(rng, n))
        header = corrupt(rng, grid)
        yield write(tmp_path, f"c{k}.txt", render(rng, grid, header))


def large_files(tmp_path, n, files):
    """``files`` files of ``n`` rows, every other one corrupted."""
    rng = np.random.default_rng([71, n])
    for k in range(files):
        grid = token_grid(rng, random_pattern(rng, n))
        header = corrupt(rng, grid) if k % 2 else None
        yield write(tmp_path, f"b{k}.txt", render(rng, grid, header))


@pytest.mark.parametrize("seed", range(6))
def test_valid_files_match_reference(tmp_path, seed):
    for path in valid_files(tmp_path, seed):
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
    kinds = set()
    for path in corrupted_files(tmp_path, seed):
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


# --- the byte-array path: files with at least cli._BULK_MISSING "?" ----


@pytest.fixture
def tokenized(monkeypatch):
    """The number of lines that hold a token in each ``cli._tokenize`` call (the header, the
    rows and any comment line), so a test names the path."""
    calls = []

    def counting(blob):
        tokens = tokenize(blob)
        calls.append(np.count_nonzero(tokens[0]))  # one token count per line
        return tokens

    tokenize = cli._tokenize
    monkeypatch.setattr(cli, "_tokenize", counting)
    return calls


@pytest.fixture
def readers(monkeypatch):
    """The type of the tokens of each ``cli._values`` call: ``bytes`` from the array reader,
    ``str`` from the split per row."""
    calls = []

    def naming(dim, given, texts):
        calls.append(type(texts[0]) if len(texts) else None)
        return values(dim, given, texts)

    values = cli._values
    monkeypatch.setattr(cli, "_values", naming)
    return calls


def identity_grid(n):
    """Tokens of the ``n``-vertex identity with every off-diagonal entry missing."""
    return [["1" if i == j else "?" for j in range(n)] for i in range(n)]


def text_of(grid, newline="\n"):
    lines = [f"n {len(grid)}", *map(" ".join, grid)]
    return newline.join(lines) + newline


@pytest.mark.parametrize("n, runs", [(2, []), (40, [41, 41])])
def test_byte_order_mark_parses_like_none(tmp_path, tokenized, n, runs):
    text = text_of(identity_grid(n))  # n = 2: "n 2\n1 ?\n? 1\n"
    marked = write(tmp_path, "m.txt", "\ufeff" + text)
    got = outcome(parse_partial, marked)
    assert got[0] == "ok"
    assert got == outcome(parse_partial, write(tmp_path, "p.txt", text))
    assert tokenized == runs
    assert got == outcome(reference_parse, marked)


def test_byte_order_mark_elsewhere_is_a_bad_entry(tmp_path, tokenized):
    path = write(tmp_path, "m.txt", "n 2\n\ufeff1 ?\n? 1\n")
    want = ("error", ParseError, "bad entry '\\ufeff1' (line 2, column 1)", 2, 1)
    assert outcome(parse_partial, path) == outcome(reference_parse, path) == want
    assert tokenized == []


LARGE = [(60, 8), (200, 4), (400, 2)]


@pytest.mark.parametrize("n, files", LARGE)
def test_large_files_match_reference(tmp_path, tokenized, n, files):
    ran = 0
    for k, path in enumerate(large_files(tmp_path, n, files)):
        tokenized.clear()
        got = outcome(parse_partial, path)
        assert got == outcome(reference_parse, path), path
        bulk = Path(path).read_text(encoding="utf-8").count("?") >= cli._BULK_MISSING
        assert len(tokenized) == bulk
        ran += len(tokenized)
    assert ran >= files // 2


CORPORA = {
    "valid": [(valid_files, seed) for seed in range(6)],
    "corrupted": [(corrupted_files, seed) for seed in range(8)],
    "large": [(large_files, *sizes) for sizes in LARGE],
}


@pytest.mark.parametrize("corpus", CORPORA)
@pytest.mark.parametrize("threshold", [0, sys.maxsize], ids=["tokenized", "row_by_row"])
def test_each_reader_alone_matches_reference(tmp_path, monkeypatch, tokenized, corpus, threshold):
    # 0 tokenizes every file, "?"-free ones too; sys.maxsize none
    monkeypatch.setattr(cli, "_BULK_MISSING", threshold)
    for files, *args in CORPORA[corpus]:
        for path in files(tmp_path, *args):
            tokenized.clear()
            got = outcome(parse_partial, path)
            assert got == outcome(reference_parse, path), path
            assert len(tokenized) == (threshold == 0)


@pytest.mark.parametrize(
    "upper, lower",
    [
        ("1.5", "1.50"), ("1.5", "15e-1"), ("1.5", "+1.5"), ("0", "-0.0"), ("-0.0", "0"),
        ("1", "\u0661"),  # respelled below: each pair keeps its upper entry
        ("1.5", "1.5x"), ("0.25", "?1"),  # a bad token below a valid mirror
        ("1e308", "1e999"),  # non-finite below only
        ("?", "0.5"),  # a given token below whose mirror is missing
        ("1.5", "2.5"),  # a pair that disagrees
    ],
)
@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("threshold", [0, sys.maxsize], ids=["tokenized", "row_by_row"])
def test_mirrored_spellings_match_reference(tmp_path, monkeypatch, tokenized, upper, lower,
                                            dense, threshold):
    # a token below the diagonal takes its mirror's value only where both texts agree;
    # any other is converted and checked itself, on both readers
    monkeypatch.setattr(cli, "_BULK_MISSING", threshold)
    grid = [["4", "0.5", "?", "0.25"], ["0.5", "4", "1", "?"],
            ["?", "1", "4", "0.125"], ["0.25", "?", "0.125", "4"]]
    if dense:
        grid = [[tok if tok != "?" else "0" for tok in row] for row in grid]
    grid[1][3], grid[3][1] = upper, lower  # (2, 4) and (4, 2)
    text = text_of(grid)
    path = write(tmp_path, "m.txt", text)
    got = outcome(parse_partial, path)
    assert got == outcome(reference_parse, path)
    assert tokenized == ([5] if threshold == 0 else [])  # a non-ASCII row: refused, then split
    if got[0] == "ok":
        assert got[2][2, 4] == repr(float(upper))


@pytest.mark.parametrize(
    "sep",
    ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003", "\u2028", "\u3000"],
)
def test_separators_in_rows_with_a_question_mark(tmp_path, tokenized, sep):
    text = text_of(identity_grid(40)).replace("? ? 1 ? ?", f"?{sep}?{sep}1 ?{sep}?", 1)
    assert sep in text
    path = write(tmp_path, "s.txt", text)
    got = outcome(parse_partial, path)
    assert tokenized == [41]  # a non-ASCII row: refused, then split per row
    assert got == outcome(reference_parse, path)
    assert got[2] == {(i, i): "1.0" for i in range(1, 41)}


def test_non_ascii_digit_is_converted_from_its_str(tmp_path, tokenized):
    # float("\u0661") == 1.0 (ARABIC-INDIC DIGIT ONE), while float(b"\xd9\xa1") raises
    small = outcome(parse_partial, write(tmp_path, "small.txt", "n 2\n\u0661 ?\n? 1\n"))
    assert small[2] == {(1, 1): "1.0", (2, 2): "1.0"}
    grid = identity_grid(40)
    grid[7][7] = "\u0661"
    path = write(tmp_path, "d.txt", text_of(grid))
    got = outcome(parse_partial, path)
    assert tokenized == [41]  # refused, then split per row
    assert got == outcome(reference_parse, path)
    assert got[2][8, 8] == "1.0"


def test_nul_byte_inside_a_token(tmp_path, tokenized):
    grid = identity_grid(40)
    grid[4][4] = "1\x00"
    path = write(tmp_path, "z.txt", text_of(grid))
    got = outcome(parse_partial, path)
    assert tokenized == [41]
    assert got == outcome(reference_parse, path)
    assert got == ("error", ParseError, "bad entry '1\\x00' (line 6, column 5)", 6, 5)


@pytest.mark.parametrize("token", ["??", "?1", "1?"])
@pytest.mark.parametrize("column", [1, 40])
def test_question_mark_spellings_beside_a_lone_one(tmp_path, tokenized, token, column):
    grid = identity_grid(40)
    row = 9 if column == 1 else 30  # "?" beside the token, the diagonal away from it
    grid[row][column - 1] = token
    path = write(tmp_path, "q.txt", text_of(grid))
    got = outcome(parse_partial, path)
    assert tokenized == [41]
    assert got == outcome(reference_parse, path)
    line = row + 2
    assert got == ("error", ParseError, f"bad entry {token!r} (line {line}, column {column})",
                   line, column)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
@pytest.mark.parametrize("last", ["", "newline"])
def test_line_endings_and_an_unterminated_last_row(tmp_path, tokenized, newline, last):
    text = text_of(identity_grid(40), newline=newline)
    path = write(tmp_path, "e.txt", text if last else text.removesuffix(newline))
    got = outcome(parse_partial, path)
    assert tokenized == [41]
    assert got == outcome(reference_parse, path)
    assert got[0] == "ok"


def test_comments_blank_lines_and_signed_zero(tmp_path, tokenized, readers):
    grid = identity_grid(40)
    grid[0][1], grid[1][0] = "-0.0", "0"
    lines = text_of(grid).splitlines()
    for k in (3, 9, 20):
        lines.insert(k, ["# ? a comment ?", "", "  \t# ?"][k % 3])
    path = write(tmp_path, "c.txt", "\n".join(lines) + "\n")
    got = outcome(parse_partial, path)
    assert tokenized == [44] and readers == [bytes]  # the three comment lines hold tokens
    assert got == outcome(reference_parse, path)
    assert got[2][1, 2] == "-0.0"


@pytest.mark.parametrize(
    "short, bad, want, runs",
    [
        (2, 4, ("expected 40 entries in row 3, got 39 (line 4)", 4, None), [41]),  # ? row first
        (4, 2, ("bad entry 'x' (line 4, column 40)", 4, 40), [41]),  # the dense row first
    ],
)
def test_first_faulty_row_wins_across_paths(tmp_path, tokenized, short, bad, want, runs):
    grid = identity_grid(40)
    del grid[short][-1]  # a short row that holds a "?"
    grid[bad] = ["1"] * 39 + ["x"]  # a bad token in a row without "?"
    path = write(tmp_path, "f.txt", text_of(grid))
    got = outcome(parse_partial, path)
    assert tokenized == runs  # the header and 40 rows, then read again by _row
    assert got == outcome(reference_parse, path)
    assert got == ("error", ParseError, *want)


def test_a_row_without_a_question_mark_is_tokenized(tmp_path, tokenized):
    grid = identity_grid(40)
    for j in range(40):
        if j != 4:
            grid[4][j] = grid[j][4] = "0.25"
    path = write(tmp_path, "g.txt", text_of(grid))
    got = outcome(parse_partial, path)
    assert tokenized == [41]
    assert got == outcome(reference_parse, path)
    assert got[0] == "ok" and got[2][1, 5] == got[2][5, 40] == "0.25"


# --- one tokenize: which reader takes a "?"-heavy file ----


def heavy_text(variant, fault):
    """The 40-vertex identity file (1560 ``?``), with one ``fault`` in its grid and
    written in one ``variant`` of the text format."""
    grid = identity_grid(40)
    if fault == "bad":
        grid[6][3] = "x"
    elif fault == "short":
        del grid[9][-1]
    elif fault == "disagree":
        grid[2][5], grid[5][2] = "0.5", "0.25"
    lines = [f"n {len(grid)}", *map(" ".join, grid)]
    between = {"comment": "# ? a comment between rows ?", "gap": "", "tab_comment": "\t# c",
               "non_ascii_comment": "# é ? ü"}
    if variant in between:
        lines.insert(5, between[variant])
    elif variant == "comment_first":
        lines[:0] = ["# ? a comment before the header", ""]
    elif variant in ("tab", "x1c"):
        lines[3] = lines[3].replace(" ", "\t" if variant == "tab" else "\x1c")
    elif variant == "nul":
        lines[5] = lines[5].replace("1", "1\x00", 1)
    elif variant == "hash_token":
        lines[5] = lines[5].replace("? ", "? # ", 1)
    elif variant == "header_q_dim":  # the header's second token is "?", the next given one 40
        lines[:2] = ["n ?", lines[1].replace("1", "40", 1)]
    elif variant.startswith("header"):
        lines[0] = {"header_q": "n 40 ?", "header_x": "n 40 x", "header_040": "n 040"}[variant]
    text = "\n".join(lines) + "\n"
    if variant in ("crlf", "cr"):
        text = text.replace("\n", "\r\n" if variant == "crlf" else "\r")
    return {"bom": "\ufeff" + text, "unterminated": text.removesuffix("\n"),
            "blank": text + "\n", "spaces": text + " \t\n"}.get(variant, text)


#: Each variant and the type of the tokens that a valid file of it gives ``cli._values``:
#: ``bytes`` from the array reader, ``str`` where the header compare refuses ``040`` and the
#: file is split per row, None where the variant is itself a fault.
VARIANTS = {
    "canonical": bytes, "bom": bytes, "tab": bytes, "x1c": bytes, "crlf": bytes, "cr": bytes,
    "unterminated": bytes, "blank": bytes, "spaces": bytes, "gap": bytes, "comment": bytes,
    "non_ascii_comment": bytes, "comment_first": bytes, "tab_comment": bytes,
    "header_040": str, "nul": None, "hash_token": None, "header_q": None, "header_x": None,
    "header_q_dim": None,
}


@pytest.mark.parametrize("fault", ["none", "bad", "short", "disagree"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_question_heavy_variants_match_reference_in_one_tokenize(tmp_path, tokenized, readers,
                                                                 variant, fault):
    path = write(tmp_path, "h.txt", heavy_text(variant, fault))
    got = outcome(parse_partial, path)
    assert got == outcome(reference_parse, path)
    assert len(tokenized) == 1  # a refused file is split per row, not tokenized again
    if fault == "none":
        assert got[0] == ("ok" if VARIANTS[variant] else "error")
        if VARIANTS[variant]:
            assert readers == [VARIANTS[variant]]


@pytest.mark.parametrize("rows", [40, 2])
def test_a_header_dimension_of_5000_digits_is_a_bad_dimension(tmp_path, capsys, rows):
    # the array reader compares the header's bytes with the row count, so no int() of them
    grid = identity_grid(rows)
    path = write(tmp_path, "d.txt", text_of(grid).replace(f"n {rows}", "n " + "1" * 5000, 1))
    got = outcome(parse_partial, path)
    assert got == outcome(reference_parse, path)
    assert got[:3] == ("error", ParseError, f"bad dimension {'1' * 5000!r} (line 1, column 2)")
    assert cli.main(["check", path]) == 2
    assert "bad dimension" in capsys.readouterr().err


def test_a_harness_shaped_file_is_tokenized_in_its_own_bytes(tmp_path, tokenized, readers):
    # "n <dim>", then one row per line of values and "?" cut by single spaces, each ended
    n, rng = 60, np.random.default_rng(7)
    pattern = rand_chordal_pattern(rng, n, fill=0.3)
    grid = token_grid(rng, pattern)
    for i in range(n):
        grid[i][i] = repr(float(n))
    text = text_of(grid)
    assert text.count("?") >= cli._BULK_MISSING
    path = write(tmp_path, "harness.txt", text)
    got = outcome(parse_partial, path)
    assert tokenized == [n + 1] and readers == [bytes]
    assert got == outcome(reference_parse, path) and got[0] == "ok"

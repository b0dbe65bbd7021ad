"""CLI: file format, subcommands, exit codes, CSV determinism."""

import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pgm
from pgm import (
    DEFAULT_TOL,
    Pattern,
    PartialMatrix,
    linalg,
    maximal_cliques,
    means,
    missing_positions,
    partial_geomean_sweep,
    pattern,
    project,
)
from pgm.cli import (
    build_parser,
    format_matrix,
    format_partial,
    main,
    parse_partial,
    sweep_csv,
)
from pgm.errors import (
    AsymmetricPattern,
    DimensionMismatch,
    InternalNumerics,
    MissingDiagonal,
    NotPartialPD,
    ParseError,
    PgmError,
)
from conftest import (
    ex1_partial_a,
    ex1_partial_b,
    frustrated_four_cycle,
    frustrated_ring,
    mp_midpoint_eigenvalues,
    rand_chordal_pattern,
    rand_partial_pd,
    rand_spd,
    reference_format_matrix,
    reference_human_matrix,
    reference_sweep_rows,
    sweep_n8_pair,
    sweep_region_pair,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


EX1_A_TEXT = "n 3\n3 -1 ?\n-1 3 2\n? 2 4\n"
EX1_B_TEXT = "n 3\n4 3 ?\n3 5 -1\n? -1 2\n"
NOT_PD = "not partial PD: clique {} has lambda_min = -1.000e+00"


class TestParsing:
    def test_example_file(self, tmp_path):
        text = "# chordal example\nn 4\n1 ? 1 1\n? 5 1 ?\n1 1 3 1\n1 ? 1 2\n"
        pm = parse_partial(write(tmp_path, "a.txt", text))
        assert missing_positions(pm.pattern) == [(1, 2), (2, 4)]
        assert pm.entry(2, 2) == 5.0

    def test_one_by_one(self, tmp_path):
        pm = parse_partial(write(tmp_path, "s.txt", "n 1\n2\n"))
        assert pm.n == 1 and pm.entry(1, 1) == 2.0

    def test_missing_diagonal(self, tmp_path):
        with pytest.raises(MissingDiagonal):
            parse_partial(write(tmp_path, "d.txt", "n 2\n? 1\n1 1\n"))

    def test_asymmetric_specification(self, tmp_path):
        with pytest.raises(AsymmetricPattern):
            parse_partial(write(tmp_path, "a.txt", "n 2\n1 2\n? 1\n"))

    def test_conflicting_values(self, tmp_path):
        with pytest.raises(AsymmetricPattern):
            parse_partial(write(tmp_path, "c.txt", "n 2\n1 2\n3 1\n"))

    def test_bad_token_position(self, tmp_path):
        with pytest.raises(ParseError) as err:
            parse_partial(write(tmp_path, "b.txt", "n 2\n1 x\n0 1\n"))
        assert err.value.line == 2
        assert err.value.column == 2

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "Infinity"])
    def test_non_finite_token(self, tmp_path, token):
        with pytest.raises(ParseError, match=f"non-finite entry '{token}'") as err:
            parse_partial(write(tmp_path, "f.txt", f"n 2\n1 {token}\n{token} 1\n"))
        assert err.value.line == 2
        assert err.value.column == 2

    def test_missing_header(self, tmp_path):
        with pytest.raises(ParseError):
            parse_partial(write(tmp_path, "h.txt", "1 0\n0 1\n"))

    def test_wrong_row_count(self, tmp_path):
        with pytest.raises(ParseError):
            parse_partial(write(tmp_path, "r.txt", "n 3\n1 0 0\n0 1 0\n"))

    @pytest.mark.parametrize("seed", range(8))
    def test_roundtrip_exact(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        g = rand_chordal_pattern(rng, int(rng.integers(1, 8)))
        pm = rand_partial_pd(rng, g)
        path = write(tmp_path, "rt.txt", format_partial(pm))
        back = parse_partial(path)
        assert back.pattern == pm.pattern
        assert back.values == pm.values

    def test_full_matrix_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4))
        m = m + m.T
        path = write(tmp_path, "f.txt", format_matrix(m))
        back = parse_partial(path)
        np.testing.assert_array_equal(back.to_dense(), m)

    def test_printers_format_each_cell_from_its_own_bits(self):
        # a mirrored pair is formatted once only where its bits agree: a one-ulp pair and
        # -0.0 beside 0.0 are formatted cell by cell, and a NaN prints as nan
        m = np.array([[2.0, 0.1, -0.0, 0.5], [0.1, 3.0, 0.25, np.nan],
                      [0.0, 0.25, 1e-300, -7.5], [0.5, np.nan, -7.5, np.nan]])
        m[1, 0] = np.nextafter(0.1, 1.0)
        text, human = format_matrix(m), pgm.cli._human_matrix(m)
        cells = [line.split() for line in text.splitlines()[1:]]
        assert cells == [[f"{v:.17g}" for v in row] for row in m.tolist()]
        assert cells[0][1] != cells[1][0] and (cells[0][2], cells[2][0]) == ("-0", "0")
        width = max(len(f"{v:.6g}") for v in m.ravel().tolist())
        assert human.splitlines() == ["  ".join(f"{v:.6g}".rjust(width) for v in row)
                                      for row in m.tolist()]
        assert text == reference_format_matrix(m) and human == reference_human_matrix(m)


class TestExitCodes:
    def test_check_ok(self, tmp_path, capsys):
        rc = main(["check", write(tmp_path, "a.txt", EX1_A_TEXT)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chordal: yes" in out
        assert "partial positive definite: yes" in out
        assert "completable: yes" in out

    def test_check_non_chordal(self, tmp_path, capsys):
        rc = main(["check", write(tmp_path, "n.txt", format_partial(frustrated_four_cycle()))])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chordal: no (chordless cycle:" in out
        assert "completable: no (verdict on the pattern;" in out
        assert "these values may still complete, run 'pgm complete'" in out

    def test_complete_domain_error(self, tmp_path, capsys):
        rc = main(["complete", write(tmp_path, "n.txt", format_partial(frustrated_four_cycle()))])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error" in err

    def test_parse_error_exit_two(self, tmp_path, capsys):
        rc = main(["check", write(tmp_path, "bad.txt", "nonsense\n")])
        assert rc == 2

    def test_non_utf8_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"n 2\n1 0\n0 \xff1\n")
        with pytest.raises(ParseError, match="not UTF-8 text"):
            parse_partial(str(path))
        assert main(["check", str(path)]) == 2
        assert "is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_line_endings(self, tmp_path, newline):
        path = tmp_path / "ends.txt"
        path.write_bytes(EX1_A_TEXT.replace("\n", newline).encode())
        assert parse_partial(str(path)) == parse_partial(write(tmp_path, "lf.txt", EX1_A_TEXT))

    def test_missing_file_exit_two(self, capsys):
        rc = main(["check", "/nonexistent/path.txt"])
        assert rc == 2

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as err:
            main(["complete"])
        assert err.value.code == 2

    def test_check_more_rows_than_n(self, tmp_path, capsys):
        rc = main(["check", write(tmp_path, "m.txt", "n 2\n1 0\n0 1\n1 1\n")])
        assert rc == 2
        assert "more than 2 matrix rows (line 4)" in capsys.readouterr().err

    def test_check_comments_only(self, tmp_path, capsys):
        rc = main(["check", write(tmp_path, "c.txt", "# one\n# two\n")])
        assert rc == 2
        assert "empty input" in capsys.readouterr().err

    def test_entropy_three_files(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", EX1_A_TEXT)
        assert main(["entropy", path, path, path]) == 2
        assert "error: entropy takes one or two files" in capsys.readouterr().err

    def test_sweep_too_many_missing(self, tmp_path, capsys):
        text = "n 3\n1 ? ?\n? 1 0\n? 0 1\n"
        rc = main(
            [
                "sweep",
                write(tmp_path, "m.txt", text),
                write(tmp_path, "b.txt", EX1_B_TEXT),
                "--out",
                str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize("command", ["complete", "sweep"])
    def test_non_pd_clique_named_on_stderr(self, tmp_path, capsys, command):
        # the clique {2, 3} holds [[1, 2], [2, 1]]; the clique {1, 2} is PD
        bad = write(tmp_path, "bad.txt", "n 3\n3 -1 ?\n-1 1 2\n? 2 1\n")
        other = [write(tmp_path, "b.txt", EX1_B_TEXT), "--out", str(tmp_path / "o.csv")]
        assert main([command, bad, *(other if command == "sweep" else [])]) == 1
        err = capsys.readouterr().err
        assert err == "error: not partial PD: clique {2, 3} has lambda_min = -1.000e+00\n"

    SWEEP_INPUTS = {
        "both_bad": "n 3\n2 ? ?\n? 1 2\n? 2 1\n",
        "both_ok": "n 3\n2 ? ?\n? 2 1\n? 1 2\n",
        "bad_full": "n 3\n1 2 0\n2 1 0\n0 0 1\n",
        # a 4-cycle, partial PD, whose cliques at (1, 2) ask for x > 0.62 and x < -0.62
        "empty_box": "n 4\n1 ? 0.9 0.9\n? 1 0.9 -0.9\n0.9 0.9 1 ?\n0.9 -0.9 ? 1\n",
        "bad_full4": "n 4\n1 2 0 0\n2 1 0 0\n0 0 1 0\n0 0 0 1\n",
        "eye4": "n 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n",
    }

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ("both_bad", "bad_full", NOT_PD.format("{2, 3}")),
            ("bad_full", "both_bad", NOT_PD.format("{1, 2, 3}")),
            ("both_ok", "bad_full", NOT_PD.format("{1, 2, 3}")),
            # B is proved before the box of A is read, though A holds both entries
            ("empty_box", "bad_full4", NOT_PD.format("{1, 2, 3, 4}")),
            ("empty_box", "eye4", "no value at (1, 2) keeps the matrix partial PD"),
        ],
    )
    def test_sweep_input_errors_in_order(self, tmp_path, capsys, a, b, message):
        files = [write(tmp_path, f"{name}.txt", self.SWEEP_INPUTS[name]) for name in (a, b)]
        assert main(["sweep", *files, "--grid", "3", "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCommands:
    def test_complete_writes_parseable_output(self, tmp_path, capsys):
        out_path = tmp_path / "completed.txt"
        rc = main(
            [
                "complete",
                write(tmp_path, "a.txt", EX1_A_TEXT),
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        assert "determinant:" in capsys.readouterr().out
        completed = parse_partial(str(out_path))
        assert completed.entry(1, 3) == pytest.approx(-2.0 / 3.0, abs=1e-12)

    def test_complete_at_a_small_scale(self, tmp_path, capsys):
        # ring4.txt times 1e-11: a floor of max(1, ||A||) would refuse clique {1, 2} as not PD
        text = "n 4\n1e-11 -1e-11 ? 0\n-1e-11 2e-11 2e-11 ?\n? 2e-11 3e-11 1e-11\n0 ? 1e-11 1e-11\n"
        assert main(["complete", write(tmp_path, "ring4_small.txt", text)]) == 0
        out = capsys.readouterr().out
        assert "determinant: 5.3576e-45\n" in out
        assert "converged: yes\n" in out

    def test_geomean_reports_identity(self, tmp_path, capsys):
        rc = main(
            [
                "geomean",
                write(tmp_path, "a.txt", EX1_A_TEXT),
                write(tmp_path, "b.txt", EX1_B_TEXT),
                "--t",
                "0.5",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "determinant identity" in out

    def test_geomean_identity_in_the_log_domain(self, tmp_path, capsys):
        # det(10 I) and det(12 I) on a 400-vertex path overflow; their logs do not
        g = Pattern.from_pairs(400, [(i, i + 1) for i in range(1, 400)])
        files = [
            write(tmp_path, f"{s}.txt", format_partial(project(s * np.eye(400), g)))
            for s in (10, 12)
        ]
        with np.errstate(over="ignore"):
            rc = main(["geomean", *files, "--t", "0.25"])
        line = capsys.readouterr().out.splitlines()[-1]
        assert rc == 0
        assert line.startswith("log-determinant identity: log det = ")
        log_det, expected, diff = (
            float(part.rsplit("=", 1)[1]) for part in line.split(": ", 1)[1].split(", ")
        )
        assert math.isfinite(log_det) and math.isfinite(expected)
        assert log_det == pytest.approx(400 * (0.75 * math.log(10) + 0.25 * math.log(12)), rel=1e-6)
        assert expected == pytest.approx(log_det, rel=1e-6)
        assert diff <= 1e-9 * abs(log_det)

    def test_karcher(self, tmp_path, capsys):
        rc = main(
            [
                "karcher",
                "--weights",
                "1,1",
                write(tmp_path, "a.txt", EX1_A_TEXT),
                write(tmp_path, "b.txt", EX1_B_TEXT),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "gradient norm" in out
        assert "converged: yes" in out

    def test_karcher_skewed_weights_on_a_spread_pair(self, tmp_path, capsys):
        # draw 6 of test_means' skewed-weight pairs: whitened by the heavy input's mean, the
        # light input's spectrum spreads past the PD margin, yet both inputs are proved PD
        rng = np.random.default_rng(1)
        for _ in range(7):
            pair = [rand_spd(rng, 4, spread=math.log(1e4)) for _ in range(2)]
        files = [write(tmp_path, f"{k}.txt", format_matrix(m)) for k, m in enumerate(pair)]
        assert main(["karcher", "--weights", "0.95,0.05", *files]) == 0
        assert "steps: " in capsys.readouterr().out

    def test_karcher_weights_sum_overflow(self, tmp_path, capsys):
        # 1e308 + 1e308 overflows; normalized, the weights are one half each
        files = [write(tmp_path, "a.txt", EX1_A_TEXT), write(tmp_path, "b.txt", EX1_B_TEXT)]
        assert main(["karcher", "--weights", "1,1", *files]) == 0
        expected = capsys.readouterr().out
        assert main(["karcher", "--weights", "1e308,1e308", *files]) == 0
        assert capsys.readouterr().out == expected

    def test_karcher_weights_with_spaces_around_items(self, tmp_path, capsys):
        files = [write(tmp_path, "a.txt", EX1_A_TEXT), write(tmp_path, "b.txt", EX1_B_TEXT)]
        assert main(["karcher", "--weights", "1,1", *files]) == 0
        expected = capsys.readouterr().out
        assert main(["karcher", "--weights", " 1 , 1 ", *files]) == 0
        assert capsys.readouterr().out == expected

    def test_karcher_weight_underflow_exit_two(self, tmp_path, capsys):
        files = [write(tmp_path, "a.txt", EX1_A_TEXT), write(tmp_path, "b.txt", EX1_B_TEXT)]
        with pytest.raises(SystemExit) as err:
            main(["karcher", "--weights", "1e-320,1e10", *files])
        assert err.value.code == 2
        assert "argument --weights: a weight underflows to 0" in capsys.readouterr().err

    def test_karcher_weight_count_mismatch(self, tmp_path, capsys):
        rc = main(
            ["karcher", "--weights", "1,1,1", write(tmp_path, "a.txt", EX1_A_TEXT)]
        )
        assert rc == 2
        assert "error: 3 weights given for 1 files" in capsys.readouterr().err

    def test_entropy_single(self, tmp_path, capsys):
        rc = main(["entropy", write(tmp_path, "a.txt", EX1_A_TEXT)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "entropy of max-det completion" in out

    def test_entropy_pair(self, tmp_path, capsys):
        rc = main(
            [
                "entropy",
                write(tmp_path, "a.txt", EX1_A_TEXT),
                write(tmp_path, "b.txt", EX1_B_TEXT),
                "--t",
                "0.25",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "entropy identities" in out

    def test_entropy_pair_dimension_mismatch(self, tmp_path, capsys):
        four = "n 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
        files = [write(tmp_path, "a.txt", EX1_A_TEXT), write(tmp_path, "c.txt", four)]
        rc = main(["entropy", *files])
        assert rc == 1
        assert "error: shape mismatch: (3, 3) vs (4, 4)" in capsys.readouterr().err

    @pytest.mark.parametrize("command, solves", [("geomean", 3), ("entropy", 4)])
    def test_near_complete_and_complete_pair_eigensolves(
        self, tmp_path, monkeypatch, capsys, command, solves
    ):
        # A misses (1, 9) and (1, 10): its proof is one stacked Cholesky per clique size
        # (8 and 9), no eigensolve, and its certificate takes one; so does complete B's.
        # geomean then factors Ahat and takes the core's; entropy takes H0, H1 and H of the
        # mean off Cholesky factors, so only the core's and the trace integral's one
        rng = np.random.default_rng(7)
        pairs = [(i, j) for i in range(1, 11) for j in range(i + 1, 11)
                 if (i, j) not in ((1, 9), (1, 10))]
        inputs = {"a": Pattern.from_pairs(10, pairs), "b": Pattern.complete(10)}
        files = [write(tmp_path, f"{name}.txt", format_partial(project(rand_spd(rng, 10), g)))
                 for name, g in inputs.items()]
        calls = {"eig": 0}
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _real=getattr(np.linalg, name), **kwargs):
                calls["eig"] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert main([command, *files]) == 0
        assert calls["eig"] == solves


SWEEP_PAIRS = {
    "ex1": lambda: (ex1_partial_a(), ex1_partial_b()),
    "region": sweep_region_pair,
    "region_swapped": lambda: sweep_region_pair()[::-1],
    "n8": sweep_n8_pair,
}


def both_entries_pair(seed, n):
    """A random partial PD ``n x n`` missing two entries drawn at random, and a complete PD."""
    rng = np.random.default_rng(seed)
    upper = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    holes = {upper[k] for k in rng.choice(len(upper), 2, replace=False)}
    swept = project(rand_spd(rng, n), Pattern.from_pairs(n, [p for p in upper if p not in holes]))
    return swept, project(rand_spd(rng, n), Pattern.complete(n))


#: Pairs whose first input carries both missing entries.
BOTH_ENTRIES_IN_A = {
    "region": sweep_region_pair,
    **{f"rand{n}-{seed}": functools.partial(both_entries_pair, seed, n)
       for n in (3, 4) for seed in (1, 2)},
}


def path_file(tmp_path, name, diagonal):
    """``diag(diagonal)`` on a path pattern, written in the text format."""
    n = len(diagonal)
    g = Pattern.from_pairs(n, [(i, i + 1) for i in range(1, n)])
    return write(tmp_path, name, format_partial(project(np.diag(diagonal), g)))


@pytest.mark.filterwarnings("error")
class TestDeterminantLines:
    """``determinant:`` lines are printed from ``log_determinant``: ``%.6g`` of
    its exp in range, a mantissa and exponent from ``log10`` beyond it."""

    def determinant_line(self, capsys, argv):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        (line,) = [x for x in out.splitlines() if x.startswith("determinant:")]
        return line

    @pytest.mark.parametrize("command", ["complete", "entropy"])
    @pytest.mark.parametrize("scale, text", [(10.0, "1e+400"), (0.1, "1e-400")])
    def test_beyond_a_double(self, tmp_path, capsys, command, scale, text):
        path = path_file(tmp_path, "p.txt", np.full(400, scale))
        assert self.determinant_line(capsys, [command, path]) == f"determinant: {text}"

    def test_geomean_beyond_a_double(self, tmp_path, capsys):
        files = [path_file(tmp_path, f"{s}.txt", np.full(400, s)) for s in (10.0, 12.0)]
        line = self.determinant_line(capsys, ["geomean", *files])
        assert line == "determinant: 6.85882e+415"

    @pytest.mark.parametrize("first, text", [(9.999996, "1e+400"), (9.99999, "9.99999e+399")])
    def test_mantissa_rounding_to_ten_carries(self, tmp_path, capsys, first, text):
        path = path_file(tmp_path, "p.txt", np.array([first] + [10.0] * 399))
        assert self.determinant_line(capsys, ["complete", path]) == f"determinant: {text}"

    def test_not_pd_iterate_prints_nan(self, tmp_path, capsys):
        path = write(tmp_path, "ring.txt", format_partial(frustrated_ring(24)))
        line = self.determinant_line(capsys, ["complete", path, "--max-cycles", "1"])
        assert line == "determinant: nan"

    BIG_BAND = "n 3\n1e308 5e307 ?\n5e307 1e308 5e307\n? 5e307 1e308\n"
    BIG_FULL = "n 3\n1e308 5e307 2.5e307\n5e307 1e308 5e307\n2.5e307 5e307 1e308\n"

    def test_overflowing_spectrum_is_certified(self, tmp_path, capsys):
        # the fill is exact; lambda_max = 1.843e308 overflows eigvalsh, so the certificate
        # takes the spectrum of the matrix scaled by 2**-1023 and reports in its units
        path = write(tmp_path, "big.txt", self.BIG_BAND)
        assert self.determinant_line(capsys, ["complete", path]) == "determinant: 5.625e+923"
        full = write(tmp_path, "full.txt", self.BIG_FULL)
        assert main(["complete", full]) == 0
        out = capsys.readouterr().out
        assert "determinant: 5.625e+923\niterations: 1\n" in out
        assert out.endswith("residual (max off-pattern inverse entry): 0\nconverged: yes\n")

    def test_overflowing_spectrum_entropy(self, tmp_path, capsys):
        path = write(tmp_path, "big.txt", self.BIG_BAND)
        assert self.determinant_line(capsys, ["entropy", path]) == "determinant: 5.625e+923"
        assert main(["entropy", path]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        # log det / 2 + 3 (1 + log 2 pi) / 2, log det = 3 log(1e308) + log(0.5625)
        assert first == "entropy of max-det completion: 1067.76"

    def test_overflowing_spectrum_check(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, "full.txt", self.BIG_FULL)]) == 0
        out = capsys.readouterr().out
        assert "clique {1, 2, 3}: positive definite\npartial positive definite: yes\n" in out

    @pytest.mark.parametrize("command", ["geomean", "entropy"])
    def test_overflowing_spectrum_of_a_mean_exit_1(self, tmp_path, capsys, command):
        # both complete and are PD, but the mean's spectrum, taken unscaled, overflows
        band = write(tmp_path, "band.txt", self.BIG_BAND)
        assert main([command, band, write(tmp_path, "full.txt", self.BIG_FULL)]) == 1
        assert capsys.readouterr() == ("", "error: eigenvalues past the largest double\n")

    @pytest.mark.parametrize("command", ["geomean", "entropy"])
    @pytest.mark.parametrize("big", ["BIG_BAND", "BIG_FULL"])
    def test_overflowing_second_operand_exit_1(self, tmp_path, capsys, command, big):
        # the second completion is not eigensolved again for the mean: the core refuses the
        # overflowing product L^-1 Bhat L^-T (A = L L^T) instead, with no numpy warning
        half = write(tmp_path, "half.txt", "n 3\n0.5 0.1 0\n0.1 0.5 0.1\n0 0.1 0.5\n")
        assert main([command, half, write(tmp_path, "big.txt", getattr(self, big))]) == 1
        assert capsys.readouterr() == ("", "error: eigenvalues past the largest double\n")

    @pytest.mark.parametrize(
        "log_det, text", [(math.inf, "inf"), (-math.inf, "0"), (math.nan, "nan")]
    )
    def test_non_finite_log_goes_through_exp(self, log_det, text):
        from pgm.cli import _determinant_text

        assert _determinant_text(log_det) == text

    @pytest.mark.parametrize("log_det", [-709.0, -700.5, -700.0, 700.0, 700.5, 709.0])
    def test_both_forms_agree_near_the_switch(self, log_det):
        from pgm.cli import _determinant_text

        assert _determinant_text(log_det) == f"{math.exp(log_det):.6g}"

    def test_in_range_is_the_plain_format(self, tmp_path, capsys):
        path = path_file(tmp_path, "p.txt", np.full(300, 2.0))
        assert self.determinant_line(capsys, ["complete", path]) == f"determinant: {2.0**300:.6g}"


class TestUnconvergedCompletionRefused:
    """``karcher``, ``geomean`` and both forms of ``entropy`` exit 1 on a
    completion that did not converge; ``complete`` prints it with
    ``converged: no``.  The consumers' ``max_det_completion`` is limited to one
    sweep, which leaves the 24-vertex frustrated ring unconverged."""

    @pytest.mark.parametrize(
        "argv",
        [["karcher", "--weights", "1,1", "R", "R"], ["geomean", "R", "R"], ["entropy", "R"],
         ["entropy", "R", "R"]],
        ids=["karcher", "geomean", "entropy-1", "entropy-2"],
    )
    def test_consumers_exit_1(self, tmp_path, capsys, monkeypatch, argv):
        limited = functools.partial(pgm.max_det_completion, max_cycles=1)
        monkeypatch.setattr(pgm.cli, "max_det_completion", limited)
        monkeypatch.setattr(means, "max_det_completion", limited)
        report = limited(frustrated_ring(24))
        path = write(tmp_path, "ring.txt", format_partial(frustrated_ring(24)))
        assert main([path if arg == "R" else arg for arg in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: max-det completion did not converge: residual {report.residual:.6g} "
            "after 1 iterations\n"
        )

    def test_complete_prints_the_iterate(self, tmp_path, capsys):
        path = write(tmp_path, "ring.txt", format_partial(frustrated_ring(24)))
        assert main(["complete", path, "--max-cycles", "1"]) == 0
        assert capsys.readouterr().out.endswith("converged: no\n")

    @staticmethod
    def band_at_the_margin():
        """Band-1, ``n = 30``, unit diagonal, ``1 - 3e-10`` at (1, 2) and 0.1 on every other band
        entry: its completion has lambda_min 3.0e-10, over ``tol lambda_max`` = 2.0e-10 and under
        ``tol ||X||_F`` = 5.7e-10, so only one PD rule gives it one verdict."""
        n = 30
        rows = [["1" if i == j else "0.1" if abs(i - j) == 1 else "?" for j in range(n)]
                for i in range(n)]
        rows[0][1] = rows[1][0] = "0.9999999997"
        return f"n {n}\n" + "".join(" ".join(row) + "\n" for row in rows)

    def test_one_verdict_at_the_pd_margin(self, tmp_path, capsys):
        path = write(tmp_path, "band.txt", self.band_at_the_margin())
        x = pgm.max_det_completion(parse_partial(path)).matrix
        w = np.linalg.eigvalsh(x)
        assert DEFAULT_TOL * w[-1] < w[0] < DEFAULT_TOL * np.linalg.norm(x)
        assert main(["complete", path]) == 0
        assert capsys.readouterr().out.endswith("converged: no\n")
        for argv in (["entropy", path], ["karcher", "--weights", "1", path],
                     ["geomean", path, path]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: max-det completion did not converge: residual")
            assert "not positive definite" not in err


class TestSweep:
    @pytest.mark.parametrize("case", sorted(SWEEP_PAIRS))
    def test_matches_per_cell_reference(self, case):
        pa, pb = SWEEP_PAIRS[case]()
        tol = DEFAULT_TOL
        table = np.array(partial_geomean_sweep(pa, pb, 31, 0.5, tol))
        np.testing.assert_array_equal(table, np.array(reference_sweep_rows(pa, pb, 31, 0.5, tol)))
        assert np.isnan(table).any() == case.startswith("region")

    @pytest.mark.parametrize("case", sorted(SWEEP_PAIRS))
    def test_det_is_the_product_of_the_printed_eigenvalues(self, case):
        table = partial_geomean_sweep(*SWEEP_PAIRS[case](), 31, 0.5, DEFAULT_TOL)
        rows = ~np.isnan(table).any(axis=1)
        assert rows.any()
        np.testing.assert_array_equal(table[rows, 2], table[rows, 3:].prod(axis=1))

    def test_rows_without_a_pd_cell(self):
        # at tol = 1e-3 the first input fails the PD test on whole x-rows
        pa, pb = ex1_partial_a(), ex1_partial_b()
        table = partial_geomean_sweep(pa, pb, 31, 0.5, 1e-3)
        np.testing.assert_array_equal(table, np.array(reference_sweep_rows(pa, pb, 31, 0.5, 1e-3)))
        assert np.isnan(table[:, 2]).reshape(31, 31).all(axis=1).any()

    @staticmethod
    def refuse_one_x_row(monkeypatch, row):
        """The ex1 sweep at grid 31 and tol 0 while the sweep's PD factorization refuses A(x) of
        x-row ``row``, and the sweep without the refusal with that row's NaNs."""
        pa, pb = ex1_partial_a(), ex1_partial_b()
        want = partial_geomean_sweep(pa, pb, 31, 0.5, 0.0)
        ((i, j),) = missing_positions(pa.pattern)  # x sweeps A's entry
        refused_x = want[row * 31, 0]
        pd_factor = means._pd_factor

        def refusing(a, tol):
            l = pd_factor(a, tol)
            l[a[..., i - 1, j - 1] == refused_x] = np.nan
            return l

        monkeypatch.setattr(means, "_pd_factor", refusing)
        got = partial_geomean_sweep(pa, pb, 31, 0.5, 0.0)
        want[row * 31 : (row + 1) * 31, 2:] = np.nan
        return got, want

    def test_a_member_cholesky_refuses_is_a_nan_cell(self, monkeypatch):
        # a member whose factorization refuses it holds NaNs; every other cell is as without
        # the refusal
        np.testing.assert_array_equal(*self.refuse_one_x_row(monkeypatch, 7))

    @pytest.mark.parametrize("rows", [1, 7])
    def test_a_refused_member_inside_a_block_is_one_nan_row(self, monkeypatch, rows):
        # as above with blocks of one x-row and of 7 (at grid 31 the default block is the whole
        # grid): x-row 10 lies inside the second block of 7, and only that row's cells become NaN
        monkeypatch.setattr(means, "_SWEEP_BLOCK", rows * 31 * 3**2)
        np.testing.assert_array_equal(*self.refuse_one_x_row(monkeypatch, 10))

    @pytest.mark.parametrize("rows", [1, 7, 31])
    @pytest.mark.parametrize("case", sorted(SWEEP_PAIRS))
    def test_blocks_match_the_per_cell_reference(self, monkeypatch, case, rows):
        # blocks of one x-row (the row loop), of 7 (a short last block at grid 31) and of the
        # whole grid give the per-cell reference bit for bit, with one mean call per block
        # that holds a PD cell
        pa, pb = SWEEP_PAIRS[case]()
        grid = 31
        want = np.array(reference_sweep_rows(pa, pb, grid, 0.5, DEFAULT_TOL))
        filled = np.isfinite(want[:, 2]).reshape(grid, grid).any(axis=1)
        calls = []
        real = means._geomean_cells

        def counting(l, b, t):
            calls.append(t)
            return real(l, b, t)

        monkeypatch.setattr(means, "_SWEEP_BLOCK", rows * grid * pa.n**2)
        monkeypatch.setattr(means, "_geomean_cells", counting)
        table = partial_geomean_sweep(pa, pb, grid, 0.5, DEFAULT_TOL)
        np.testing.assert_array_equal(table, want)
        assert len(calls) == len(set(np.flatnonzero(filled) // rows))

    @pytest.mark.parametrize("case", ["n8", "region", "region_swapped"])
    def test_working_memory_grows_as_grid_not_grid_squared(self, case):
        # the traced peak over the returned table stays under a fixed bound (a sweep block is
        # a stack of about 2^16 entries, 512 KB, with a few temporaries of its size) and grows
        # from grid 51 to grid 201 at most like grid (3.9-fold), not like grid^2 (15.5-fold).
        # Filling the x input for the whole grid up front, and not per block, fails both
        pa, pb = SWEEP_PAIRS[case]()
        excess = []
        for grid in (51, 201):
            tracemalloc.start()
            try:
                table = partial_geomean_sweep(pa, pb, grid, 0.5, DEFAULT_TOL)
                excess.append(tracemalloc.get_traced_memory()[1] - table.nbytes)
            finally:
                tracemalloc.stop()
        assert max(excess) < 5 * 2**20
        assert excess[1] < 1.1 * (201 / 51) * excess[0]

    def test_a_near_singular_clique_at_tol_zero_is_not_partial_pd(self, tmp_path, capsys):
        # the clique {1, 2} has eigenvalues 1 and ~7e-18: eigvalsh passes it at tol = 0, while
        # Cholesky refuses it, so the proof that is also the factor refuses A, in the library
        # and in the CLI
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        block = (q * [1.0, 10.0 ** rng.uniform(-18, -14)]) @ q.T
        a = np.eye(3)
        a[:2, :2] = 0.5 * (block + block.T)
        a[1, 2] = a[2, 1] = rng.uniform(-0.5, 0.5)
        b = rng.standard_normal((3, 3))
        b = b @ b.T + 3.0 * np.eye(3)
        path = Pattern.from_pairs(3, [(1, 2), (2, 3)])
        pa, pb = project(a, path), project(b, path)
        assert linalg._definite(np.linalg.eigvalsh(a[:2, :2]), 0.0)
        assert not linalg.is_pd(a[:2, :2], 0.0)
        with pytest.raises(NotPartialPD, match=r"^not partial PD: clique \{1, 2\} has lambda_min"):
            partial_geomean_sweep(pa, pb, 11, 0.5, 0.0)
        files = [write(tmp_path, f"{k}.txt", format_partial(m)) for k, m in (("a", pa), ("b", pb))]
        out = ["--out", str(tmp_path / "o.csv")]
        assert main(["sweep", *files, "--grid", "11", "--tol", "0", *out]) == 1
        assert "error: not partial PD: clique {1, 2} has lambda_min" in capsys.readouterr().err

    @staticmethod
    def near_singular_pair(seed):
        """A's clique {1, 2} is ``Q diag(1, 10^u) Q^T``, u in [-18, -14], with ``a33 = 1`` and
        ``a23`` up to ``sqrt(a22) / 2``; B is ``X X^T + I``; both on the path (1, 2), (2, 3)."""
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        u = rng.uniform(-18, -14)
        a = np.eye(3)
        a[:2, :2] = q @ np.diag([1.0, 10.0**u]) @ q.T
        a[:2, :2] = 0.5 * (a[:2, :2] + a[:2, :2].T)
        a[1, 2] = a[2, 1] = rng.uniform(-0.5, 0.5) * math.sqrt(a[1, 1])
        x = rng.standard_normal((3, 3))
        path = Pattern.from_pairs(3, [(1, 2), (2, 3)])
        return project(a, path), project(x @ x.T + np.eye(3), path)

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_round_off_inner_spectra_are_nan_cells(self, t):
        # under tol = 0, L^-1 B(y) L^-T (A(x) = L L^T) takes an eigenvalue <= 0 from round-off
        # in many cells: each is NaN, at every t, where it once ended the sweep ("eigenvalues
        # past the largest double" on most of these 300 seeds at t = 0.5); every other cell
        # has det = prod(eig) up to a shift of lambda_min by eps lambda_max (at t = 0 the mean
        # is A(x), singular to round-off).  A seed is refused only as not partial PD (about a
        # quarter are: A's 2x2 clique is singular to round-off)
        refused = 0
        for seed in range(300):
            try:
                table = partial_geomean_sweep(*self.near_singular_pair(seed), 11, t, 0.0)
            except NotPartialPD:
                refused += 1
                continue
            filled = np.isfinite(table[:, 2])
            assert (np.isnan(table[~filled, 2:]).all() and np.isfinite(table[filled]).all())
            eig = table[filled, 3:]  # descending
            gap = np.abs(table[filled, 2] - eig.prod(axis=1))
            shift = np.finfo(float).eps * eig[:, 0] * np.abs(eig[:, :-1]).prod(axis=1)
            assert (gap <= 10.0 * shift).all()
        assert refused < 300

    def round_off_cell(self):
        """The first NaN cell, over the seeds of :meth:`near_singular_pair` and a sweep at
        tol = 0, whose pair is PD at tol = 0 and whose A passes Cholesky: ``(A, B)``."""
        for seed in range(300):
            pa, pb = self.near_singular_pair(seed)
            try:
                table = partial_geomean_sweep(pa, pb, 11, 0.5, 0.0)
            except NotPartialPD:
                continue
            for x, y, det in table[np.isnan(table[:, 2]), :3]:
                a, b = pa.to_dense(), pb.to_dense()
                a[0, 2] = a[2, 0] = x
                b[0, 2] = b[2, 0] = y
                if linalg.is_pd(np.stack([a, b]), 0.0).all():
                    try:
                        np.linalg.cholesky(a)
                    except np.linalg.LinAlgError:
                        continue
                    return a, b
        pytest.fail("no NaN cell of a PD pair: the recipe no longer reaches round-off")

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_round_off_inner_spectrum_named_by_geomean(self, t):
        # only the inner spectrum of this cell's pair fails, and geomean names it at every t
        a, b = self.round_off_cell()
        with pytest.raises(InternalNumerics, match="has an eigenvalue <= 0: round-off at the PD"):
            means.geomean(a, b, t, tol=0.0)

    def test_grid_of_one_rejected(self):
        with pytest.raises(PgmError, match="grid must be at least 2, got 1"):
            partial_geomean_sweep(ex1_partial_a(), ex1_partial_b(), 1, 0.5, DEFAULT_TOL)

    def test_non_integer_grid_named(self):
        # np.linspace would raise its own TypeError
        with pytest.raises(ValueError, match="grid must be an integer, got 3.5"):
            partial_geomean_sweep(ex1_partial_a(), ex1_partial_b(), 3.5, 0.5, DEFAULT_TOL)

    def test_unequal_dimensions_rejected(self):
        pb = project(np.eye(4), Pattern.complete(4))
        with pytest.raises(DimensionMismatch, match="dimension mismatch: 3 vs 4"):
            partial_geomean_sweep(ex1_partial_a(), pb, 11, 0.5, DEFAULT_TOL)

    @pytest.mark.parametrize(
        "case, grid",
        [
            pytest.param(case, grid, id=case if grid == 31 else f"{case}-grid{grid}")
            for case in sorted(SWEEP_PAIRS)
            for grid in (31, 2)
        ],
    )
    def test_csv_bytes_match_reference(self, case, grid):
        pa, pb = SWEEP_PAIRS[case]()
        tol = DEFAULT_TOL
        header = "x,y,det," + ",".join(f"eig_{k}" for k in range(1, pa.n + 1))
        rows = reference_sweep_rows(pa, pb, grid, 0.5, tol)
        lines = [",".join(f"{v:.17g}" for v in row) for row in rows]
        text = sweep_csv(pa, pb, grid, 0.5, tol)
        assert text == "\n".join([header] + lines) + "\n"
        if grid == 31:
            assert ("nan" in text) == case.startswith("region")

    @pytest.mark.parametrize("case", ["ex1", "region", "region_swapped"])
    def test_eigensolve_work(self, monkeypatch, case):
        # matrices eigensolved per cell: the inner power of the mean and the output spectrum,
        # whichever input holds the entries, plus a few per row (the entry bounds).  The PD
        # checks are Cholesky verdicts and factors, no eigensolve
        seen = []
        real = linalg._eigh

        def counting(a, vectors=True):
            m = np.asarray(a)
            seen.append(m.size // m.shape[-1] ** 2)
            return real(a, vectors)

        monkeypatch.setattr(linalg, "_eigh", counting)
        monkeypatch.setattr(means, "_eigh", counting)
        grid = 31
        partial_geomean_sweep(*SWEEP_PAIRS[case](), grid, 0.5, DEFAULT_TOL)
        assert sum(seen) <= 2 * grid**2 + 4 * grid

    @pytest.mark.parametrize("rows", [1, 7, 31])
    def test_both_entries_in_a_factor_only_b(self, monkeypatch, rows):
        # with both entries in A the congruence base is the complete B: Cholesky factors B once
        # and no filled A(x, y), whose members get a verdict of the scaled, shifted matrix
        # only, and the sweep inverts at most one factor per block
        pa, pb = sweep_region_pair()
        grid, a, b = 31, pa.to_dense(), pb.to_dense()
        factored, inverted = [], []
        real_cholesky, real_inv = linalg._cholesky, linalg._inv

        def cholesky(m):
            factored.extend(np.reshape(m, (-1, *m.shape[-2:])))
            return real_cholesky(m)

        def inv(m):
            inverted.append(m.size // m.shape[-1] ** 2)
            return real_inv(m)

        monkeypatch.setattr(means, "_SWEEP_BLOCK", rows * grid * 3**2)
        monkeypatch.setattr(linalg, "_cholesky", cholesky)
        monkeypatch.setattr(linalg, "_inv", inv)
        partial_geomean_sweep(pa, pb, grid, 0.5, DEFAULT_TOL)
        cells = [m for m in factored if m.shape == (3, 3)]
        assert not any(np.array_equal(m[:2, :2], a[:2, :2]) for m in cells)
        assert sum(np.array_equal(m, b) for m in cells) == 1
        assert 0 < sum(inverted) <= -(-grid // rows)

    @pytest.mark.parametrize("t", [0.25, 0.5])
    @pytest.mark.parametrize("case", sorted(BOTH_ENTRIES_IN_A))
    def test_reversal_bit_for_bit(self, case, t):
        # A #_t B = B #_{1-t} A: with both entries in one input, the sweep of (A, B) at t is the
        # sweep of (B, A) at 1 - t, bit for bit, NaN cells included
        pa, pb = BOTH_ENTRIES_IN_A[case]()
        forward = partial_geomean_sweep(pa, pb, 31, t, DEFAULT_TOL)
        reversed_ = partial_geomean_sweep(pb, pa, 31, 1 - t, DEFAULT_TOL)
        assert np.isfinite(forward[:, 2]).any()
        assert forward.tobytes() == reversed_.tobytes()

    @pytest.mark.parametrize("case", ["region", "rand3-4"])
    def test_both_entries_in_a_match_a_60_digit_reference(self, case):
        # the cells of A(x, y) # B against the 60-digit eigenvalues of A^1/2 (A^-1/2 B
        # A^-1/2)^1/2 A^1/2: the 30 PD cells of the smallest printed eigenvalue, nearest the PD
        # boundary, and 30 drawn at random, each eigenvalue to 1e-9 of itself
        pa, pb = sweep_region_pair() if case == "region" else both_entries_pair(4, 3)
        table = partial_geomean_sweep(pa, pb, 101, 0.5, DEFAULT_TOL)
        pd = np.flatnonzero(np.isfinite(table[:, 2]))
        drawn = np.random.default_rng(0).choice(pd, 30, replace=False)
        (i, j), (p, q) = missing_positions(pa.pattern)
        worst = 0.0
        for cell in np.concatenate([pd[np.argsort(table[pd, -1])[:30]], drawn]):
            a = pa.to_dense()
            a[i - 1, j - 1] = a[j - 1, i - 1] = table[cell, 0]
            a[p - 1, q - 1] = a[q - 1, p - 1] = table[cell, 1]
            want = mp_midpoint_eigenvalues(a, pb.to_dense())
            worst = max(worst, float(np.max(np.abs(table[cell, 3:] - want) / want)))
        assert worst <= 1e-9

    @pytest.mark.parametrize("case", sorted(SWEEP_PAIRS))
    def test_each_input_proved_partial_pd_once(self, monkeypatch, case):
        # one partial-PD proof per input, whichever input holds the entries
        seen = []
        real = pgm.partial.offending_cliques

        def counting(pm, tol):
            seen.append(pm)
            return real(pm, tol)

        monkeypatch.setattr(pgm.partial, "offending_cliques", counting)
        partial_geomean_sweep(*SWEEP_PAIRS[case](), 3, 0.5, DEFAULT_TOL)
        assert len(seen) == 2

    def test_parameter_off_the_geodesic_warns(self):
        with pytest.warns(UserWarning, match=r"t = 1.5 lies outside \[0, 1\]"):
            table = partial_geomean_sweep(ex1_partial_a(), ex1_partial_b(), 3, 1.5, DEFAULT_TOL)
        assert np.isfinite(table).all()

    def test_csv_deterministic(self):
        a, b = ex1_partial_a(), ex1_partial_b()
        first = sweep_csv(a, b, grid=11, t=0.5, tol=DEFAULT_TOL)
        second = sweep_csv(a, b, grid=11, t=0.5, tol=DEFAULT_TOL)
        assert first == second

    def test_header_and_row_count(self):
        a, b = ex1_partial_a(), ex1_partial_b()
        text = sweep_csv(a, b, grid=5, t=0.5, tol=DEFAULT_TOL)
        lines = text.strip().split("\n")
        assert lines[0] == "x,y,det,eig_1,eig_2,eig_3"
        assert len(lines) == 1 + 25

    def test_argmax_near_known_optimum(self):
        a, b = ex1_partial_a(), ex1_partial_b()
        text = sweep_csv(a, b, grid=41, t=0.5, tol=DEFAULT_TOL)
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        best = max(rows, key=lambda r: float(r[2]))
        xs = sorted({float(r[0]) for r in rows})
        cell = xs[1] - xs[0]
        assert abs(float(best[0]) - (-2.0 / 3.0)) <= cell
        assert abs(float(best[1]) - (-3.0 / 5.0)) <= cell

    def test_x_major_order(self):
        a, b = ex1_partial_a(), ex1_partial_b()
        text = sweep_csv(a, b, grid=3, t=0.5, tol=DEFAULT_TOL)
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        xs = [float(r[0]) for r in rows]
        assert xs == sorted(xs)

    def test_two_missing_in_one_matrix(self):
        swept = PartialMatrix(
            pattern=Pattern.from_pairs(3, [(1, 2)]),
            values={(1, 1): 2.0, (2, 2): 2.0, (3, 3): 2.0, (1, 2): 1.0},
        )
        fixed_vals = np.array([[4.0, 3.0, 0.0], [3.0, 5.0, -1.0], [0.0, -1.0, 2.0]])
        fixed = PartialMatrix(
            pattern=Pattern.complete(3),
            values={
                (i, j): fixed_vals[i - 1, j - 1]
                for i in range(1, 4)
                for j in range(i, 4)
            },
        )
        text = sweep_csv(swept, fixed, grid=21, t=0.5, tol=DEFAULT_TOL)
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        assert len(rows) == 441
        feasible = [r for r in rows if r[2] != "nan"]
        infeasible = [r for r in rows if r[2] == "nan"]
        assert feasible and infeasible
        for r in feasible:
            x, y = float(r[0]), float(r[1])
            assert 6 + 2 * x * y - 2 * x * x - 2 * y * y > 0

    def test_cmd_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep",
                write(tmp_path, "a.txt", EX1_A_TEXT),
                write(tmp_path, "b.txt", EX1_B_TEXT),
                "--grid",
                "5",
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        assert out_path.read_text().startswith("x,y,det,")


class TestTolOption:
    def test_two_calls_build_one_parser(self, tmp_path, capsys):
        build_parser.cache_clear()
        path = write(tmp_path, "a.txt", EX1_A_TEXT)
        assert main(["check", path]) == main(["check", path]) == 0
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_changed_tol_changes_verdict(self, tmp_path, capsys):
        # clique {1, 2} has lambda_min = 1e-5: PD under 1e-10, not under 1e-3
        path = write(tmp_path, "near.txt", "n 3\n1 0.99999 ?\n0.99999 1 0\n? 0 1\n")
        verdicts = []
        for tol in ("1e-10", "1e-3", "1e-10"):
            assert main(["check", path, "--tol", tol]) == 0
            verdicts.append("clique {1, 2}: positive definite" in capsys.readouterr().out)
        assert verdicts == [True, False, True]


def _option_argv(tmp_path, command, option, token):
    """``command`` on the ex1 pair (or its first file) with ``option token``."""
    a = write(tmp_path, "a.txt", EX1_A_TEXT)
    b = write(tmp_path, "b.txt", EX1_B_TEXT)
    return {
        "karcher": ["karcher", option, token, a, b],
        "geomean": ["geomean", a, b, option, token],
        "sweep": ["sweep", a, b, option, token, "--out", str(tmp_path / "o.csv")],
        "check": ["check", a, option, token],
        "complete": ["complete", a, option, token],
    }[command]


class TestOptionValidation:
    """Malformed numeric options exit 2 with the option and the token named."""

    @pytest.mark.parametrize(
        "command, option, token, bad",
        [
            ("karcher", "--weights", "0.5,abc", "abc"),
            ("karcher", "--weights", "0.7,-0.2", "-0.2"),
            ("karcher", "--weights", "nan,0.5", "nan"),
            ("karcher", "--weights", "1,,1", ""),
            ("karcher", "--weights", "1,1,", ""),
            ("geomean", "--t", "nan", "nan"),
            ("sweep", "--t", "nan", "nan"),
            ("check", "--tol", "nan", "nan"),
        ],
    )
    def test_rejected_with_exit_two(self, tmp_path, capsys, command, option, token, bad):
        with pytest.raises(SystemExit) as err:
            main(_option_argv(tmp_path, command, option, token))
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert f"argument {option}: expected a finite number" in message
        assert f"got {bad!r}" in message
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "command, option, token, expected",
        [
            ("complete", "--max-cycles", "-3", "an integer >= 1, got '-3'"),
            ("complete", "--max-cycles", "abc", "an integer >= 1, got 'abc'"),
            ("sweep", "--grid", "1", "an integer >= 2, got '1'"),
            ("karcher", "--weights", ",", "comma-separated weights, got ','"),
        ],
    )
    def test_usage_rejected_with_exit_two(self, tmp_path, capsys, command, option, token, expected):
        with pytest.raises(SystemExit) as err:
            main(_option_argv(tmp_path, command, option, token))
        assert err.value.code == 2
        assert f"argument {option}: expected {expected}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("option, token", [("--tol", "0"), ("--tol", "1e-3"), ("--t", "0.25")])
    def test_accepted(self, tmp_path, capsys, option, token):
        a = write(tmp_path, "a.txt", EX1_A_TEXT)
        b = write(tmp_path, "b.txt", EX1_B_TEXT)
        argv = ["check", a] if option == "--tol" else ["geomean", a, b]
        assert main(argv + [option, token]) == 0

    def test_sweep_eigensolver_failure_wrapped(self, monkeypatch):
        # finite inputs and a finite t pass every check, so the solver failure is staged
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(InternalNumerics, match="symmetric eigensolver failed"):
            partial_geomean_sweep(ex1_partial_a(), ex1_partial_b(), 5, 0.5, DEFAULT_TOL)


class TestOffGeodesicWarning:
    """A ``t`` outside [0, 1] prints one ``warning:`` line, like the ``error:`` lines,
    not a Python warning with its source line, and the command still succeeds."""

    @pytest.mark.filterwarnings("default::UserWarning")  # the filter a plain run has
    @pytest.mark.parametrize("command", ["geomean", "entropy", "sweep"])
    def test_one_line_on_stderr(self, tmp_path, capsys, command):
        files = [write(tmp_path, "a.txt", EX1_A_TEXT), write(tmp_path, "b.txt", EX1_B_TEXT)]
        out = ["--out", str(tmp_path / "s.csv")] if command == "sweep" else []
        assert main([command, *files, "--t", "1.5", *out]) == 0
        assert capsys.readouterr().err == (
            "warning: geomean parameter t = 1.5 lies outside [0, 1]; extending the geodesic\n"
        )


def _banded(n, width):
    return Pattern.from_pairs(
        n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, min(n, i + width) + 1)]
    )


def _grid(side):
    pairs = []
    for r in range(side):
        for c in range(side):
            v = r * side + c + 1
            if c + 1 < side:
                pairs.append((v, v + 1))
            if r + 1 < side:
                pairs.append((v, v + side))
    return Pattern.from_pairs(side * side, pairs)


class TestCheckWork:
    """``check`` runs one clique analysis and one PD test per clique size."""

    @pytest.mark.parametrize("case", ["band2", "grid"])
    def test_one_search_and_one_eigensolve_per_size(self, tmp_path, monkeypatch, capsys, case):
        g = _banded(400, 2) if case == "band2" else _grid(20)
        rng = np.random.default_rng(5)
        values = {
            (i, j): 4.0 if i == j else float(rng.uniform(-0.5, 0.5)) for i, j in g.edges
        }
        path = write(tmp_path, "w.txt", format_partial(PartialMatrix(pattern=g, values=values)))
        sizes = {len(c) for c in maximal_cliques(g)}
        calls = {"mcs": 0, "eigh": 0, "factor": 0}
        real_mcs, real_eigh, real_factor = pattern._mcs_visit, linalg._eigh, linalg._pd_test

        def mcs(*args):
            calls["mcs"] += 1
            return real_mcs(*args)

        def eigh(*args, **kwargs):
            calls["eigh"] += 1
            return real_eigh(*args, **kwargs)

        def factor(*args):
            calls["factor"] += 1
            return real_factor(*args)

        monkeypatch.setattr(pattern, "_mcs_visit", mcs)
        monkeypatch.setattr(linalg, "_eigh", eigh)
        monkeypatch.setattr(linalg, "_pd_test", factor)
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "partial positive definite: yes" in out
        assert calls["mcs"] <= 1
        assert (calls["eigh"], calls["factor"]) == (0, len(sizes))


def _fresh_process(code, cwd=None):
    """The stdout lines of ``code`` run in a new interpreter that imports ``pgm`` from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(Path(pgm.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True, check=True
    )
    return run.stdout.splitlines()


def test_import_leaves_scipy_integrate_out():
    assert _fresh_process("import sys, pgm.cli; print('scipy.integrate' in sys.modules)") == [
        "False"
    ]


def test_import_defers_scipy_linalg_to_the_first_distance():
    """``import pgm.cli`` registers ``scipy.linalg`` without running it, and so without the
    modules it pulls in; the first ``riemannian_dist`` runs it and gives the eager value."""
    code = """
import sys
import numpy as np
import pgm.cli
heavy = ("scipy.linalg._decomp", "scipy._lib._array_api", "numpy.testing")
print([name for name in heavy if name in sys.modules])
print(repr(pgm.riemannian_dist(np.diag([1., 2., 3.]), np.eye(3))))
print("scipy.linalg._decomp" in sys.modules)
"""
    assert _fresh_process(code) == ["[]", "1.2990003751850048", "True"]


def test_no_subcommand_loads_scipy_linalg(tmp_path):
    """Every subcommand runs on the demo data without running ``scipy.linalg``: a CLI path that
    reaches it gives back the import time that the lazy registration saves."""
    data = Path(pgm.__file__).resolve().parents[2] / "demos" / "data"
    chain_a, chain_b = str(data / "chain3_a.txt"), str(data / "chain3_b.txt")
    runs = [[command, str(path)] for command in ("check", "complete", "entropy")
            for path in sorted(data.glob("*.txt"))]
    runs += [["geomean", chain_a, chain_b], ["entropy", chain_a, chain_b],
             ["karcher", "--weights", "1,2", chain_a, chain_b],
             ["sweep", chain_a, chain_b, "--grid", "5", "--out", "out.csv"]]
    code = f"""
import contextlib, io, sys
from pgm.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in {runs!r}]
print(codes)
print(sorted(name for name in sys.modules if name.startswith("scipy.linalg.")))
"""
    assert _fresh_process(code, cwd=tmp_path) == [str([0] * len(runs)), "[]"]


def test_scipy_linalg_imported_first_is_kept():
    code = """
import sys
import numpy as np
import scipy.linalg
user = sys.modules["scipy.linalg"]
import pgm
print(sys.modules["scipy.linalg"] is user)
print(repr(pgm.riemannian_dist(np.diag([1., 2., 3.]), np.eye(3))))
"""
    assert _fresh_process(code) == ["True", "1.2990003751850048"]


@pytest.mark.parametrize("spelling", ["from scipy import linalg",
                                      "import scipy.linalg\nlinalg = scipy.linalg"])
def test_scipy_linalg_imported_after_pgm_works(spelling):
    code = f"""
import numpy as np
import pgm
{spelling}
a = [[4., 2.], [2., 3.]]
print(np.array_equal(linalg.cholesky(a), np.linalg.cholesky(np.array(a)).T))
"""
    assert _fresh_process(code) == ["True"]

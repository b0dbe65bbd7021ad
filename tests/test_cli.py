"""CLI: file format, subcommands, exit codes, CSV determinism."""

import functools
import math
import os
import subprocess
import sys
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
    ParseError,
    PgmError,
)
from conftest import (
    ex1_partial_a,
    ex1_partial_b,
    frustrated_four_cycle,
    frustrated_ring,
    rand_chordal_pattern,
    rand_partial_pd,
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


SWEEP_PAIRS = {
    "ex1": lambda: (ex1_partial_a(), ex1_partial_b()),
    "region": sweep_region_pair,
    "region_swapped": lambda: sweep_region_pair()[::-1],
    "n8": sweep_n8_pair,
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


class TestSweep:
    @pytest.mark.parametrize("case", sorted(SWEEP_PAIRS))
    def test_matches_per_cell_reference(self, case):
        pa, pb = SWEEP_PAIRS[case]()
        tol = DEFAULT_TOL
        table = np.array(partial_geomean_sweep(pa, pb, 31, 0.5, tol))
        np.testing.assert_array_equal(table, np.array(reference_sweep_rows(pa, pb, 31, 0.5, tol)))
        assert np.isnan(table).any() == case.startswith("region")

    def test_rows_without_a_pd_cell(self):
        # at tol = 1e-3 the first input fails the PD test on whole x-rows
        pa, pb = ex1_partial_a(), ex1_partial_b()
        table = partial_geomean_sweep(pa, pb, 31, 0.5, 1e-3)
        np.testing.assert_array_equal(table, np.array(reference_sweep_rows(pa, pb, 31, 0.5, 1e-3)))
        assert np.isnan(table[:, 2]).reshape(31, 31).all(axis=1).any()

    def test_grid_of_one_rejected(self):
        with pytest.raises(PgmError, match="grid must be at least 2, got 1"):
            partial_geomean_sweep(ex1_partial_a(), ex1_partial_b(), 1, 0.5, DEFAULT_TOL)

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

    @pytest.mark.parametrize(
        "case, per_cell",
        [pytest.param(case, k, id=case) for case, k in (("ex1", 2), ("region", 3), ("region_swapped", 3))],
    )
    def test_eigensolve_work(self, monkeypatch, case, per_cell):
        # matrices decomposed per cell: the inner power of the mean and the
        # output spectrum, plus the one check of A when A holds both x and y
        # or of B when B does; a few more per row.  The per-cell reference,
        # which checks both inputs and geomean checks them again, needs 6
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
        assert sum(seen) <= per_cell * grid**2 + 4 * grid

    @pytest.mark.parametrize("case", sorted(SWEEP_PAIRS))
    def test_each_input_proved_partial_pd_once(self, monkeypatch, case):
        # one stacked clique eigensolve per input, whichever input holds the entries
        seen = []
        real = pgm.partial.clique_extremes

        def counting(a, cliques):
            seen.append(len(cliques))
            return real(a, cliques)

        monkeypatch.setattr(pgm.partial, "clique_extremes", counting)
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
        calls = {"mcs": 0, "eigh": 0}
        real_mcs, real_eigh = pattern._mcs_visit, linalg._eigh

        def mcs(*args):
            calls["mcs"] += 1
            return real_mcs(*args)

        def eigh(*args, **kwargs):
            calls["eigh"] += 1
            return real_eigh(*args, **kwargs)

        monkeypatch.setattr(pattern, "_mcs_visit", mcs)
        monkeypatch.setattr(linalg, "_eigh", eigh)
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "partial positive definite: yes" in out
        assert calls["mcs"] <= 1
        assert 0 < calls["eigh"] <= len(sizes)


def test_import_leaves_scipy_integrate_out():
    code = "import sys, pgm.cli; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(pgm.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "False"

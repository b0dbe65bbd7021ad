"""CLI: file format, subcommands, exit codes, CSV determinism."""

import numpy as np
import pytest

from pgm import Pattern, PartialMatrix, missing_positions
from pgm.cli import (
    default_tol,
    format_matrix,
    format_partial,
    main,
    parse_partial,
    sweep_csv,
)
from pgm.errors import AsymmetricPattern, MissingDiagonal, ParseError
from conftest import (
    ex1_partial_a,
    ex1_partial_b,
    frustrated_four_cycle,
    rand_chordal_pattern,
    rand_partial_pd,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


EX1_A_TEXT = "n 3\n3 -1 ?\n-1 3 2\n? 2 4\n"
EX1_B_TEXT = "n 3\n4 3 ?\n3 5 -1\n? -1 2\n"


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
        assert "completable: no" in out

    def test_complete_domain_error(self, tmp_path, capsys):
        rc = main(["complete", write(tmp_path, "n.txt", format_partial(frustrated_four_cycle()))])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error" in err

    def test_parse_error_exit_two(self, tmp_path, capsys):
        rc = main(["check", write(tmp_path, "bad.txt", "nonsense\n")])
        assert rc == 2

    def test_missing_file_exit_two(self, capsys):
        rc = main(["check", "/nonexistent/path.txt"])
        assert rc == 2

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as err:
            main(["complete"])
        assert err.value.code == 2

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

    def test_karcher_weight_count_mismatch(self, tmp_path, capsys):
        rc = main(
            ["karcher", "--weights", "1,1,1", write(tmp_path, "a.txt", EX1_A_TEXT)]
        )
        assert rc == 1

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


class TestSweep:
    def test_csv_deterministic(self):
        a, b = ex1_partial_a(), ex1_partial_b()
        first = sweep_csv(a, b, grid=11, t=0.5, tol=default_tol())
        second = sweep_csv(a, b, grid=11, t=0.5, tol=default_tol())
        assert first == second

    def test_header_and_row_count(self):
        a, b = ex1_partial_a(), ex1_partial_b()
        text = sweep_csv(a, b, grid=5, t=0.5, tol=default_tol())
        lines = text.strip().split("\n")
        assert lines[0] == "x,y,det,eig_1,eig_2,eig_3"
        assert len(lines) == 1 + 25

    def test_argmax_near_known_optimum(self):
        a, b = ex1_partial_a(), ex1_partial_b()
        text = sweep_csv(a, b, grid=41, t=0.5, tol=default_tol())
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        best = max(rows, key=lambda r: float(r[2]))
        xs = sorted({float(r[0]) for r in rows})
        cell = xs[1] - xs[0]
        assert abs(float(best[0]) - (-2.0 / 3.0)) <= cell
        assert abs(float(best[1]) - (-3.0 / 5.0)) <= cell

    def test_x_major_order(self):
        a, b = ex1_partial_a(), ex1_partial_b()
        text = sweep_csv(a, b, grid=3, t=0.5, tol=default_tol())
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
        text = sweep_csv(swept, fixed, grid=21, t=0.5, tol=default_tol())
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


class TestTolEnv:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("PGM_TOL", raising=False)
        assert default_tol() == 1e-10

    def test_override(self, monkeypatch):
        monkeypatch.setenv("PGM_TOL", "1e-8")
        assert default_tol() == 1e-8

    def test_invalid(self, monkeypatch):
        monkeypatch.setenv("PGM_TOL", "abc")
        with pytest.raises(ValueError):
            default_tol()

    def test_invalid_env_exits_two(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("PGM_TOL", "abc")
        rc = main(["check", write(tmp_path, "a.txt", EX1_A_TEXT)])
        assert rc == 2

"""CLI: file format, subcommands, exit codes, CSV determinism."""

import math

import numpy as np
import pytest

from pgm import Pattern, PartialMatrix, linalg, maximal_cliques, means, missing_positions, pattern
from pgm.cli import (
    default_tol,
    format_matrix,
    format_partial,
    main,
    parse_partial,
    _sweep_table,
    sweep_csv,
)
from pgm.errors import AsymmetricPattern, InternalNumerics, MissingDiagonal, ParseError
from conftest import (
    ex1_partial_a,
    ex1_partial_b,
    frustrated_four_cycle,
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


SWEEP_PAIRS = {
    "ex1": lambda: (ex1_partial_a(), ex1_partial_b()),
    "region": sweep_region_pair,
    "region_swapped": lambda: sweep_region_pair()[::-1],
    "n8": sweep_n8_pair,
}


class TestSweep:
    @pytest.mark.parametrize("case", sorted(SWEEP_PAIRS))
    def test_matches_per_cell_reference(self, case):
        pa, pb = SWEEP_PAIRS[case]()
        tol = default_tol()
        table = np.array(_sweep_table(pa, pb, 31, 0.5, tol))
        np.testing.assert_array_equal(table, np.array(reference_sweep_rows(pa, pb, 31, 0.5, tol)))
        assert np.isnan(table).any() == case.startswith("region")

    def test_rows_without_a_pd_cell(self):
        # at tol = 1e-3 the first input fails the PD test on whole x-rows
        pa, pb = ex1_partial_a(), ex1_partial_b()
        table = _sweep_table(pa, pb, 31, 0.5, 1e-3)
        np.testing.assert_array_equal(table, np.array(reference_sweep_rows(pa, pb, 31, 0.5, 1e-3)))
        assert np.isnan(table[:, 2]).reshape(31, 31).all(axis=1).any()

    @pytest.mark.parametrize("case", ["region", "n8"])
    def test_csv_bytes_match_reference(self, case):
        pa, pb = SWEEP_PAIRS[case]()
        tol = default_tol()
        header = "x,y,det," + ",".join(f"eig_{k}" for k in range(1, pa.n + 1))
        rows = reference_sweep_rows(pa, pb, 31, 0.5, tol)
        lines = [",".join(f"{v:.17g}" for v in row) for row in rows]
        text = sweep_csv(pa, pb, 31, 0.5, tol)
        assert text == "\n".join([header] + lines) + "\n"
        assert ("nan" in text) == (case == "region")

    def test_eigensolve_work(self, monkeypatch):
        # matrices decomposed: ~2 per cell (B's check and the inner power in
        # geomean) plus a few per row; a per-cell fill of both inputs needs ~5
        seen = []
        real = linalg._eigh

        def counting(a, vectors=True):
            m = np.asarray(a)
            seen.append(m.size // m.shape[-1] ** 2)
            return real(a, vectors)

        monkeypatch.setattr(linalg, "_eigh", counting)
        monkeypatch.setattr(means, "_eigh", counting)
        grid = 31
        _sweep_table(ex1_partial_a(), ex1_partial_b(), grid, 0.5, default_tol())
        assert sum(seen) <= 3 * grid**2 + 4 * grid

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


class TestOptionValidation:
    """Malformed numeric options exit 2 with the option and the token named."""

    @pytest.mark.parametrize(
        "command, option, token, bad",
        [
            ("karcher", "--weights", "0.5,abc", "abc"),
            ("karcher", "--weights", "0.7,-0.2", "-0.2"),
            ("karcher", "--weights", "nan,0.5", "nan"),
            ("geomean", "--t", "nan", "nan"),
            ("sweep", "--t", "nan", "nan"),
            ("check", "--tol", "nan", "nan"),
        ],
    )
    def test_rejected_with_exit_two(self, tmp_path, capsys, command, option, token, bad):
        a = write(tmp_path, "a.txt", EX1_A_TEXT)
        b = write(tmp_path, "b.txt", EX1_B_TEXT)
        argv = {
            "karcher": ["karcher", option, token, a, b],
            "geomean": ["geomean", a, b, option, token],
            "sweep": ["sweep", a, b, option, token, "--out", str(tmp_path / "o.csv")],
            "check": ["check", a, option, token],
        }[command]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert f"argument {option}: expected a finite number" in message
        assert f"got {bad!r}" in message
        assert not (tmp_path / "o.csv").exists()

    def test_tol_env_nan_exits_two(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("PGM_TOL", "nan")
        rc = main(["check", write(tmp_path, "a.txt", EX1_A_TEXT)])
        assert rc == 2
        assert "PGM_TOL: expected a finite number >= 0, got 'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize("option, token", [("--tol", "0"), ("--tol", "1e-3"), ("--t", "0.25")])
    def test_accepted(self, tmp_path, capsys, option, token):
        a = write(tmp_path, "a.txt", EX1_A_TEXT)
        b = write(tmp_path, "b.txt", EX1_B_TEXT)
        argv = ["check", a] if option == "--tol" else ["geomean", a, b]
        assert main(argv + [option, token]) == 0

    @pytest.mark.filterwarnings("ignore")
    def test_sweep_eigensolver_failure_wrapped(self):
        # a NaN geodesic parameter makes the eigensolver fail on the means
        with pytest.raises(InternalNumerics, match="symmetric eigensolver failed"):
            _sweep_table(ex1_partial_a(), ex1_partial_b(), 5, math.nan, default_tol())


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
        real_mcs, real_eigh = pattern._mcs_order, linalg._eigh

        def mcs(*args):
            calls["mcs"] += 1
            return real_mcs(*args)

        def eigh(*args, **kwargs):
            calls["eigh"] += 1
            return real_eigh(*args, **kwargs)

        monkeypatch.setattr(pattern, "_mcs_order", mcs)
        monkeypatch.setattr(linalg, "_eigh", eigh)
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "partial positive definite: yes" in out
        assert calls["mcs"] <= 1
        assert calls["eigh"] <= len(sizes)

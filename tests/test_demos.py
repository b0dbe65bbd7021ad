"""Demo scripts: each runs in-process and prints its key lines."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

KEY_LINES = {
    "01_completability.py": [
        "chordal: False | chordless cycle witness: (1, 2, 3, 4)",
        "Matrix N partial positive definite: True",
        "zero fill positive definite: False",
        "completion of Matrix N found, determinant 0.53576",
        "frustrated cycle partial positive definite: True",
        "completion attempt: no positive definite completion exists",
        "completion found, determinant 9.33333 after 1 sweep (closed form):",
    ],
    "02_max_det_completion.py": [
        "free entry (1,3): PD completions exist for x in (-3.33333, 2)",
        "max-det value: x = -0.666667",
        "completed matrix (det 21.3333):",
        "a completion with det = 10.6667 (target 10.6667):",
        "entry (1,3) alone keeps partial PD for x in (-2, 1)",
        "max determinant 6.75 after 1 pass over the cliques",
    ],
    "03_geometric_means.py": [
        "distance delta(A, B) = 1.36429",
        "|S| = 2, |T| = 3, |S # T| = 6",
        "det = 20.5524 = sqrt(det Ahat * det Bhat) = 20.5524",
    ],
    "04_partial_order.py": [
        "difference partial PD: True",
        "verdict A vs B: GT",
        "verdict A vs 3B: INCOMPARABLE",
        "det(Ahat) = 212.75 >= det(Bhat) = 9.33333: True",
    ],
    "05_karcher_and_agm.py": [
        "karcher mean of 3 matrices, weights (0.5, 0.3, 0.2)",
        "converged: True",
        "AGM iteration: 5 steps",
    ],
    "06_entropy_and_sweeps.py": [
        "H1 - H0 = -0.0372944 vs trace integral -0.0372944",
        "41x41 sweep: det surface peaks at x = -0.6667, y = -0.6 (det = 20.5524)",
        "region sweep: 1075 of 1681 cells admit a PD pair",
    ],
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("0*.py")) == sorted(KEY_LINES)


@pytest.mark.parametrize("name", sorted(KEY_LINES))
def test_demo_prints_key_lines(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    for line in KEY_LINES[name]:
        assert line in out, line

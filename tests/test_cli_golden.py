"""Golden CLI snapshots on ``demos/data``.

Each case runs ``pgm.cli.main`` in-process from an empty working
directory and compares stdout, stderr, the exit code and the bytes of
the ``--out`` file with the snapshot in ``tests/golden/<command>.json``.
The snapshots pin the CLI's output byte for byte, so a change to the
storage, the parser or the formatters that moves one digit fails here.

Re-record the snapshots, after a deliberate output change only, with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import tempfile
from itertools import permutations
from pathlib import Path

import pytest

from pgm.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FILES = sorted(f"demos/data/{p.name}" for p in (ROOT / "demos" / "data").glob("*.txt"))
PAIRS = list(permutations(FILES, 2))
SWEEP_PAIRS = [
    ("chain3_a", "chain3_b"),
    ("chain3_b", "chain3_a"),
    ("square3_ab", "full3_b"),
    ("full3_b", "square3_ab"),
    ("chain3_a", "full3_b"),
]
KARCHER = [
    ("1,2", ["chain3_a", "chain3_b"]),
    ("1,1,1", ["chain3_a", "chain3_b", "full3_b"]),
    ("1,3", ["chordal4", "ring4"]),
]


def _data(name):
    return f"demos/data/{name}.txt"


def _stem(path):
    return Path(path).stem


def cases():
    """``{command: {case: (argv, out_name or None)}}``; input paths are relative
    to the repository root, output paths to the working directory."""
    return {
        "check": {_stem(f): (["check", f], None) for f in FILES},
        "complete": {_stem(f): (["complete", f, "--out", "out.txt"], "out.txt") for f in FILES},
        "entropy": {
            **{_stem(f): (["entropy", f], None) for f in FILES},
            **{f"{_stem(a)}+{_stem(b)}": (["entropy", a, b], None) for a, b in PAIRS},
        },
        "geomean": {
            f"{_stem(a)}+{_stem(b)}": (["geomean", a, b, "--out", "out.txt"], "out.txt")
            for a, b in PAIRS
        },
        "karcher": {
            "+".join(names): (["karcher", "--weights", w, *map(_data, names)], None)
            for w, names in KARCHER
        },
        "sweep": {
            f"{a}+{b}": (
                ["sweep", _data(a), _data(b), "--grid", "11", "--out", "out.csv"],
                "out.csv",
            )
            for a, b in SWEEP_PAIRS
        },
    }


def run_case(argv, out_name, workdir):
    """Run one command from ``workdir`` and return its snapshot record."""
    argv = [str(ROOT / a) if a.startswith("demos/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out_path = workdir / out_name if out_name else None
    written = None
    if out_path and out_path.exists():
        written = out_path.read_bytes().decode("utf-8")
        out_path.unlink()
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "out": written}


def _load(command):
    return json.loads((GOLDEN / f"{command}.json").read_text(encoding="utf-8"))


PARAMS = [
    pytest.param(command, name, argv, out_name, id=f"{command}-{name}")
    for command, table in cases().items()
    for name, (argv, out_name) in table.items()
]


@pytest.mark.parametrize("command, name, argv, out_name", PARAMS)
def test_matches_snapshot(command, name, argv, out_name, tmp_path, monkeypatch):
    monkeypatch.delenv("PGM_TOL", raising=False)
    monkeypatch.chdir(tmp_path)
    snapshot = _load(command)[name]
    assert snapshot["argv"] == argv
    record = run_case(argv, out_name, tmp_path)
    for key in ("exit", "stdout", "stderr", "out"):
        assert record[key] == snapshot[key], key


def test_sweep_with_both_entries_in_a_is_its_reversal():
    # A #_t B = B #_{1-t} A, and the sweep of a pair with both entries in A takes the mean
    # from B's factor: at t = 0.5 both orders write the same bytes
    sweep = _load("sweep")
    assert sweep["square3_ab+full3_b"]["out"] == sweep["full3_b+square3_ab"]["out"]


def test_every_snapshot_has_a_case():
    for command, table in cases().items():
        assert sorted(_load(command)) == sorted(table)


def _record():
    """Write the snapshots from the code in this checkout."""
    os.environ.pop("PGM_TOL", None)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for command, table in cases().items():
            snapshot = {
                name: {"argv": argv, **run_case(argv, out_name, Path(tmp))}
                for name, (argv, out_name) in table.items()
            }
            text = json.dumps(snapshot, indent=1, ensure_ascii=False) + "\n"
            (GOLDEN / f"{command}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    _record()

"""Frozen CLI output: byte-for-byte stdout of a six-method evaluate and topn run.

The fixtures under ``tests/golden/`` were recorded from the CLI before the
similarity and split layers were reworked; any change to a similarity
formula, neighborhood rule, split, metric or renderer shows up here as a
byte difference.
"""

from pathlib import Path

import pytest

import _synth
from cflevels.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMON = ["--methods", "pcc,wpcc,spcc,plus,static,dynamic", "--folds", "5",
          "--k", "20", "--seed", "42", "--jobs", "1"]
RUNS = {
    "evaluate.csv": ["evaluate"],
    "topn_r10.csv": ["topn", "--r", "10"],
}


@pytest.fixture(scope="module")
def planted_file(tmp_path_factory):
    records = _synth.planted_records(n_users=120, n_items=90)
    assert len(records) == 690
    path = tmp_path_factory.mktemp("golden") / "planted.txt"
    path.write_text("".join(f"{u} {i} {v:g}\n" for u, i, v in records),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("fixture", sorted(RUNS))
def test_stdout_matches_golden(fixture, planted_file, capsys):
    argv = RUNS[fixture][:1] + ["--ratings", planted_file] + RUNS[fixture][1:] + COMMON
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (GOLDEN / fixture).read_bytes()

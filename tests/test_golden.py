"""Frozen CLI output: byte-for-byte stdout of evaluate and topn runs.

The fixtures under ``tests/golden/`` were recorded from the CLI before the
similarity, split and neighborhood layers were reworked; any change to a
similarity formula, neighborhood rule, split, combiner, metric or renderer
shows up here as a byte difference. Besides the six-method runs, the
fixtures cover the dynamic method's ``eq8`` form (the one adjuster that
turns a negative Pearson into a positive score), the ``weighted_mean``
combiner, and a six-method ``eq8`` k sweep, where every method of a fold
and every k reads rows built from one shared set of Pearson bases.
"""

from pathlib import Path

import pytest

import _synth
from cflevels.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMON = ["--folds", "5", "--k", "20", "--seed", "42"]
SIX = ["--methods", "pcc,wpcc,spcc,plus,static,dynamic"]
EQ8 = ["--method", "dynamic", "--negative-form", "eq8"]
WEIGHTED = SIX + ["--prediction", "weighted_mean"]
SIX_EQ8_KSWEEP = SIX + ["--negative-form", "eq8", "--k-sweep", "10:30:10"]
RUNS = {
    "evaluate.csv": ["evaluate"] + SIX,
    "topn_r10.csv": ["topn", "--r", "10"] + SIX,
    "evaluate_dynamic_eq8.csv": ["evaluate"] + EQ8,
    "topn_r10_dynamic_eq8.csv": ["topn", "--r", "10"] + EQ8,
    "evaluate_weighted_mean.csv": ["evaluate"] + WEIGHTED,
    "topn_r10_weighted_mean.csv": ["topn", "--r", "10"] + WEIGHTED,
    "evaluate_six_eq8_ksweep.csv": ["evaluate"] + SIX_EQ8_KSWEEP,
    "topn_r10_six_eq8_ksweep.csv": ["topn", "--r", "10"] + SIX_EQ8_KSWEEP,
}


@pytest.fixture(scope="module")
def planted_file(tmp_path_factory):
    records = _synth.planted_records(n_users=120, n_items=90)
    assert len(records) == 690
    path = tmp_path_factory.mktemp("golden") / "planted.txt"
    path.write_text("".join(f"{u} {i} {v:g}\n" for u, i, v in records),
                    encoding="utf-8")
    return str(path)


def golden_argv(fixture: str, ratings: str, jobs: int = 1) -> list[str]:
    return (RUNS[fixture][:1] + ["--ratings", ratings] + RUNS[fixture][1:] + COMMON
            + ["--jobs", str(jobs)])


@pytest.mark.parametrize("fixture", sorted(RUNS))
def test_stdout_matches_golden(fixture, planted_file, capsys):
    assert main(golden_argv(fixture, planted_file)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (GOLDEN / fixture).read_bytes()


@pytest.mark.parametrize("fixture", sorted(RUNS))
def test_threaded_stdout_matches_golden(fixture, planted_file, capsys):
    # --jobs starts no thread: the folds run in order, whatever it is, and a
    # fold's rows serve all its methods and k values
    assert main(golden_argv(fixture, planted_file, jobs=8)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (GOLDEN / fixture).read_bytes()

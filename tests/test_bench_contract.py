"""What the benchmark in ``perfbench/`` binds from the package.

The traced benchmark wraps the functions named in the ``COARSE`` and ``HOT``
tables of ``perfbench/tracer.py``, patches ``SimilarityMethod.score``, binds
``predict`` and ``recommend_top_n`` arguments by name for its oracle check,
and builds a matrix through top-level names in its set-up probe. A rename of
any of these fails here instead of as a crashed benchmark run. Its recorded
stdout digests are keyed by the sha256 of the ratings file it writes from
``tests/_synth.planted_records``, so that data must not change by a byte,
and the CLI, run in-process on each recorded (workload, seed), must still
print the recorded bytes.
"""

import importlib
import inspect
import json
import sys
import types
from pathlib import Path
from unittest import mock

import pytest

import _synth
import cflevels

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_bench(name, **imports):
    # exec'd from source so that reading it leaves no bytecode cache behind
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"_perfbench_{name}")
    module.__file__ = str(path)
    with mock.patch.dict(sys.modules, {module.__name__: module, **imports}):
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


_tracer = load_bench("tracer")
_run = load_bench("run", tracer=_tracer)
_reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("home,attr,name", _tracer.COARSE + _tracer.HOT,
                         ids=[name for _, _, name in _tracer.COARSE + _tracer.HOT])
def test_traced_boundary_resolves(home, attr, name):
    assert callable(getattr(importlib.import_module(home), attr))


def test_score_is_patchable_on_the_class():
    cls = importlib.import_module("cflevels.similarity").SimilarityMethod
    assert "score" in vars(cls)
    sim = cflevels.make_method("dynamic")
    assert sim.name == "dynamic"
    assert sim.params["negative_form"] == "eq4"


@pytest.mark.parametrize("fn,names", [
    (cflevels.predict, ("a", "item", "k", "sim", "m", "cache", "mode")),
    (cflevels.recommend_top_n, ("a", "r", "k", "sim", "m", "candidates", "cache", "mode")),
], ids=["predict", "recommend_top_n"])
def test_oracle_bound_parameter_names(fn, names):
    assert tuple(inspect.signature(fn).parameters) == names


def test_cache_first_argument_and_length(sample_matrix):
    sim = cflevels.make_method("pcc")
    cache = cflevels.SimilarityCache(sim, sample_matrix)
    assert next(iter(inspect.signature(cflevels.get_or_compute).parameters)) == "cache"
    cflevels.get_or_compute(cache, "u1", "u2", sim, sample_matrix)
    assert len(cache) == 1


def test_setup_probe_names():
    for name in ("DatasetFormat", "RatingScale", "parse_ratings", "build_matrix"):
        assert hasattr(cflevels, name)


@pytest.mark.parametrize("seed", [0, 3, 24])
def test_planted_data_is_what_the_references_were_recorded_on(seed, tmp_path):
    for name, w in sorted(_run.WORKLOADS.items()):
        records = _synth.planted_records(seed=seed, n_users=w.users, n_items=w.items)
        data_sha = _run.write_ratings(records, tmp_path / f"{name}.tsv")
        assert _reference[name][data_sha]["seed"] == seed, name


@pytest.mark.parametrize("name,seed", sorted(
    (name, entry["seed"]) for name, table in _reference.items() for entry in table.values()),
    ids=str)
def test_cli_prints_the_recorded_bytes(name, seed, tmp_path):
    # every recorded digest, where a benchmark run checks one seed: a change
    # that moves a last bit of any reported figure fails here
    w = _run.WORKLOADS[name]
    records = _synth.planted_records(seed=seed, n_users=w.users, n_items=w.items)
    path = tmp_path / f"{name}.tsv"
    want = _reference[name][_run.write_ratings(records, path)]["stdout_sha256"]
    code, out, err, _ = _run.call_cli(w.argv(str(path), 1))
    assert (code, err.decode()) == (0, "")
    assert _run.sha256_bytes(out) == want

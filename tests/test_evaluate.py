"""Splits, metrics, experiment runs, and report serialization."""

import csv
import io
import json
import math
import pickle
import random

import pytest

import _synth
import cflevels.evaluate
import oracles
from cflevels import (ConfigError, EmptyInputError, EvalReport, PredictionPair, RatingRecord,
                      RatingScale, SimilarityCache, average_report, build_matrix,
                      default_relevance_threshold, evaluate_split, hit_rate, kfold_split,
                      mae, make_method, nmae, predict, precision_recall_f1,
                      render_csv, render_json, rmse, run_experiment, split_holdout)


class TestHoldoutSplit:
    def test_matches_oracle_contract(self, scale):
        rng = random.Random(55)
        ratings = oracles.random_ratings(rng, n_users=20, n_items=15, density=0.5)
        records = oracles.ratings_to_records(ratings)
        m = build_matrix(records, scale)
        for seed in (0, 7, 42):
            want_train, want_test = oracles.holdout_split(records, 0.8, seed)
            train, test = split_holdout(m, 0.8, seed)
            assert [(r.user, r.item, r.value) for r in train.records()] == sorted(want_train)
            assert [(r.user, r.item, r.value) for r in test] == want_test

    def test_sizes_round(self, scale):
        records = [(f"u{n:02d}", "i1", 3.0) for n in range(10)]
        m = build_matrix(records, scale)
        train, test = split_holdout(m, 0.8, 1)
        assert len(train.records()) == 8 and len(test) == 2
        train, test = split_holdout(m, 0.65, 1)
        assert len(train.records()) == 6 and len(test) == 4  # round(6.5) -> 6

    def test_deterministic(self, scale):
        m = build_matrix(oracles.SAMPLE_RECORDS, scale)
        a = split_holdout(m, 0.8, 7)
        b = split_holdout(m, 0.8, 7)
        assert a[0].records() == b[0].records()
        assert a[1] == b[1]
        c = split_holdout(m, 0.8, 8)
        assert a[1] != c[1]

    def test_partition(self, sample_matrix):
        train, test = split_holdout(sample_matrix, 0.8, 3)
        got = sorted(train.records() + test)
        assert got == sample_matrix.records()

    def test_ratio_validated(self, sample_matrix):
        for ratio in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                split_holdout(sample_matrix, ratio, 1)

    def test_empty_part_refused(self, scale):
        # of 10 ratings, round(0.5) -> 0 trains on none and round(9.5) -> 10 tests none
        m = build_matrix([(f"u{n:02d}", "i1", 3.0) for n in range(10)], scale)
        for ratio, counts in ((0.05, "trains on 0 and tests 10"),
                              (0.95, "trains on 10 and tests 0")):
            with pytest.raises(ConfigError, match=f"of 10 ratings {counts}"):
                split_holdout(m, ratio, 1)
        for ratio, n_test in ((0.06, 9), (0.94, 1)):
            assert len(split_holdout(m, ratio, 1)[1]) == n_test


class TestKfoldSplit:
    def test_partition_properties(self, scale):
        rng = random.Random(66)
        ratings = oracles.random_ratings(rng, n_users=15, n_items=12, density=0.5)
        m = build_matrix(oracles.ratings_to_records(ratings), scale)
        n = len(m.records())
        pairs = list(kfold_split(m, 4, seed=9))
        assert len(pairs) == 4
        all_test = [rec for _, test in pairs for rec in test]
        assert sorted(all_test) == m.records()          # each record tests once
        sizes = [len(test) for _, test in pairs]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)     # larger parts first
        assert sum(sizes) == n
        for train, test in pairs:
            assert sorted(train.records() + test) == m.records()

    def test_two_folds_are_complementary_holdouts(self, sample_matrix):
        (t1, s1), (t2, s2) = kfold_split(sample_matrix, 2, seed=4)
        assert sorted(t1.records()) == sorted(s2)
        assert sorted(t2.records()) == sorted(s1)

    def test_deterministic(self, sample_matrix):
        a = kfold_split(sample_matrix, 5, seed=12)
        b = kfold_split(sample_matrix, 5, seed=12)
        assert [test for _, test in a] == [test for _, test in b]

    def test_folds_validated(self, sample_matrix):
        with pytest.raises(ValueError):
            kfold_split(sample_matrix, 1, seed=0)

    def test_more_folds_than_ratings_refused(self, sample_matrix):
        with pytest.raises(ConfigError, match="14 folds of 13 ratings"):
            kfold_split(sample_matrix, 14, seed=0)
        assert [len(test) for _, test in kfold_split(sample_matrix, 13, seed=0)] == [1] * 13


class TestErrorMetrics:
    def test_mae_frozen(self):
        assert mae([PredictionPair(3, 4), PredictionPair(4, 2)]) == pytest.approx(1.5)
        assert mae([PredictionPair(2.5, 2.5)]) == 0.0
        assert mae([PredictionPair(1.0, 5.0)]) == pytest.approx(4.0)

    def test_rmse_frozen(self):
        pairs = [PredictionPair(3, 4), PredictionPair(4, 2)]
        assert rmse(pairs) == pytest.approx(math.sqrt(2.5))
        assert rmse(pairs) == pytest.approx(1.5811388300841898, abs=1e-12)
        assert rmse([PredictionPair(4.0, 4.0)]) == 0.0

    def test_rmse_square_past_the_float_range_raises(self):
        with pytest.raises(OverflowError):
            rmse([PredictionPair(1e200, 0.0), PredictionPair(1.0, 1.0)])

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            mae([])
        with pytest.raises(EmptyInputError):
            rmse([])

    def test_rmse_dominates_mae(self):
        rng = random.Random(1001)
        for _ in range(200):
            pairs = [PredictionPair(rng.uniform(1, 5), rng.uniform(1, 5))
                     for _ in range(rng.randint(1, 30))]
            assert rmse(pairs) >= mae(pairs) - 1e-12

    def test_nmae_round_trips(self):
        assert nmae(0.802, RatingScale(1, 5)) == pytest.approx(0.2005, abs=5e-5)
        assert nmae(1.296, RatingScale(0, 10)) == pytest.approx(0.1296, abs=5e-5)
        assert nmae(0.0, RatingScale(1, 5)) == 0.0
        with pytest.raises(ValueError):
            nmae(-0.1, RatingScale(1, 5))


class TestTopNMetrics:
    def test_precision_recall_f1_frozen(self):
        recommended = [f"i{n}" for n in range(20)]
        relevant = {f"i{n}" for n in range(5)} | {f"x{n}" for n in range(5)}
        p, r, f1 = precision_recall_f1(recommended, relevant)
        assert p == pytest.approx(0.25)
        assert r == pytest.approx(0.5)
        assert f1 == pytest.approx(1.0 / 3.0)

    def test_disjoint_and_equal_cases(self):
        assert precision_recall_f1(["a"], {"b"}) == (0.0, 0.0, 0.0)
        assert precision_recall_f1(["a", "b"], {"a", "b"}) == (1.0, 1.0, 1.0)

    def test_empty_conventions(self):
        p, r, f1 = precision_recall_f1([], {"a"})
        assert (p, r, f1) == (0.0, 0.0, 0.0)
        p, r, f1 = precision_recall_f1(["a"], set())
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_counts_are_integers(self):
        rng = random.Random(2002)
        for _ in range(300):
            recommended = [f"i{n}" for n in rng.sample(range(40), rng.randint(0, 12))]
            relevant = {f"i{n}" for n in rng.sample(range(40), rng.randint(0, 12))}
            p, r, _ = precision_recall_f1(recommended, relevant)
            if recommended:
                assert (p * len(recommended)) == pytest.approx(round(p * len(recommended)))
            if relevant:
                assert (r * len(relevant)) == pytest.approx(round(r * len(relevant)))

    def test_hit_rate(self):
        assert hit_rate([1, 0, 2, 0]) == pytest.approx(50.0)
        assert hit_rate([1, 1, 1]) == 100.0
        assert hit_rate([0, 0]) == 0.0
        assert hit_rate([]) == 0.0
        counts = [1] * 570 + [0] * 430
        assert hit_rate(counts) == pytest.approx(57.0)

    def test_default_relevance_threshold(self):
        assert default_relevance_threshold(RatingScale(1, 5)) == 4.0
        assert default_relevance_threshold(RatingScale(0, 10)) == 8.0


class TestRunExperiment:
    def test_sample_holdout_seed7_frozen(self, sample_matrix):
        # the 4x4 sample is too sparse to predict anything once split
        (rep,) = run_experiment(*split_holdout(sample_matrix, 0.8, 7), make_method("pcc"),
                                ks=(2,), r=2, relevance=4.0)
        assert rep.mae is None and rep.nmae is None and rep.rmse is None
        assert rep.coverage == 3
        assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0
        assert rep.hit_rate_pct == 0.0

    def test_random_matrix_matches_oracle_end_to_end(self, scale):
        rng = random.Random(123)
        ratings = oracles.random_ratings(rng, n_users=30, n_items=20, density=0.45)
        records = oracles.ratings_to_records(ratings)
        want = oracles.run_holdout_experiment(records, 0.8, 11, k=5, r=5,
                                              relevance=4.0, scale=(1, 5))
        m = build_matrix(records, scale)
        (rep,) = run_experiment(*split_holdout(m, 0.8, 11), make_method("pcc"),
                                ks=(5,), r=5, relevance=4.0)
        assert rep.mae == pytest.approx(want["mae"], abs=1e-9)
        assert rep.nmae == pytest.approx(want["nmae"], abs=1e-9)
        assert rep.rmse == pytest.approx(want["rmse"], abs=1e-9)
        assert rep.precision == pytest.approx(want["precision"], abs=1e-9)
        assert rep.recall == pytest.approx(want["recall"], abs=1e-9)
        assert rep.f1 == pytest.approx(want["f1"], abs=1e-9)
        assert rep.hit_rate_pct == pytest.approx(want["hit_rate_pct"], abs=1e-9)
        assert rep.coverage == want["coverage_misses"]

    def test_identical_config_identical_report(self, scale):
        rng = random.Random(321)
        ratings = oracles.random_ratings(rng, n_users=25, n_items=18, density=0.4)
        m = build_matrix(oracles.ratings_to_records(ratings), scale)
        (a,) = run_experiment(*split_holdout(m, 0.75, 5), make_method("dynamic"), ks=(6,), r=4)
        (b,) = run_experiment(*split_holdout(m, 0.75, 5), make_method("dynamic"), ks=(6,), r=4)
        for field in ("method", "k", "params", "mae", "nmae", "rmse", "precision",
                      "recall", "f1", "hit_rate_pct", "coverage"):
            assert getattr(a, field) == getattr(b, field)

    @pytest.mark.parametrize("relevance", [math.nan, math.inf, -math.inf])
    def test_non_finite_relevance_rejected(self, scale, relevance):
        # NaN or inf would make no item relevant, -inf every one
        rng = random.Random(88)
        ratings = oracles.random_ratings(rng, n_users=20, n_items=15, density=0.5)
        m = build_matrix(oracles.ratings_to_records(ratings), scale)
        with pytest.raises(ValueError, match="relevance must be finite"):
            run_experiment(*split_holdout(m, 0.8, 2), make_method("pcc"), ks=(5,), r=5,
                           relevance=relevance)

    def test_metric_groups(self, scale):
        rng = random.Random(88)
        ratings = oracles.random_ratings(rng, n_users=20, n_items=15, density=0.5)
        m = build_matrix(oracles.ratings_to_records(ratings), scale)
        split = split_holdout(m, 0.8, 2)
        (accuracy,) = run_experiment(*split, make_method("pcc"), ks=(5,), metrics="accuracy")
        assert accuracy.precision is None and accuracy.hit_rate_pct is None
        assert accuracy.mae is not None
        (topn,) = run_experiment(*split, make_method("pcc"), ks=(5,), r=5, metrics="topn")
        assert topn.mae is None and topn.rmse is None
        assert topn.precision is not None
        assert topn.params.get("r") == 5

    def test_kfold_runs_one_fold_per_call(self, scale):
        rng = random.Random(99)
        ratings = oracles.random_ratings(rng, n_users=20, n_items=15, density=0.55)
        m = build_matrix(oracles.ratings_to_records(ratings), scale)
        folds = list(kfold_split(m, 3, seed=1))
        reports = [rep for f, (train, test) in enumerate(folds)
                   for rep in run_experiment(train, test, make_method("pcc"), fold=f,
                                             ks=(5,), metrics="accuracy")]
        assert [rep.params["fold"] for rep in reports] == [0, 1, 2]
        total_test = sum(len(test) for _, test in folds)
        total_misses = sum(rep.coverage for rep in reports)
        assert total_misses <= total_test

    def test_report_fields_defaults_and_fresh_params(self):
        one, two = EvalReport("pcc", 5), EvalReport(method="pcc", k=5)
        assert EvalReport._fields == ("method", "k", "params", "mae", "nmae", "rmse",
                                      "precision", "recall", "f1", "hit_rate_pct",
                                      "coverage", "seconds")
        assert one == two == ("pcc", 5, {}, *[None] * 7, 0, 0.0)
        assert one.params is not two.params  # no shared default to leak through
        one.params["fold"] = 0
        assert EvalReport("pcc", 5).params == {}
        assert "counts the test records that got no prediction" in EvalReport.__doc__
        full = EvalReport("dynamic", 9, {"fold": 1}, mae=0.5, coverage=3, seconds=1.5)
        assert pickle.loads(pickle.dumps(full)) == full
        assert full._replace(mae=None).mae is None and full.mae == 0.5

    def test_average_report(self):
        reports = [
            EvalReport("pcc", 5, {"fold": 0}, mae=1.0, nmae=0.25, rmse=1.5,
                       coverage=3, seconds=0.5),
            EvalReport("pcc", 5, {"fold": 1}, mae=2.0, nmae=0.50, rmse=2.5,
                       coverage=4, seconds=0.25),
        ]
        avg = average_report(reports)
        assert avg.params["fold"] == "avg"
        assert avg.mae == pytest.approx(1.5)
        assert avg.rmse == pytest.approx(2.0)
        assert avg.precision is None
        assert avg.coverage == 7
        with pytest.raises(EmptyInputError):
            average_report([])
        # the averaged row is labelled with one cell, so every report must be of it
        for other in (EvalReport("dynamic", 5, {"fold": 2}), EvalReport("pcc", 4, {"fold": 2}),
                      EvalReport("pcc", 5, {"fold": 2, "r": 10})):
            with pytest.raises(ValueError, match="differ in method, k or a param"):
                average_report([*reports, other])
        with pytest.raises(ValueError):
            average_report([EvalReport("pcc", 2), EvalReport("dynamic", 4)])


# every method, the dynamic method's eq8 form, under both combiners
SWEEP_CONFIGS = [(name, {}, mode) for name in ("pcc", "wpcc", "spcc", "plus", "static", "dynamic")
                 for mode in ("resnick", "weighted_mean")] + [
    ("dynamic", {"negative_form": "eq8"}, mode) for mode in ("resnick", "weighted_mean")]
SWEEP_IDS = [name + "".join(f"-{v}" for v in kw.values()) + f"-{mode}"
             for name, kw, mode in SWEEP_CONFIGS]


@pytest.fixture(scope="module")
def planted_split():
    records = _synth.planted_records(seed=13, n_users=120, n_items=90)
    return split_holdout(build_matrix(records, RatingScale(*_synth.SCALE)), 0.8, 42)


class TestKSweep:
    @pytest.mark.parametrize("ks", [(), (0,), (5, -1), (5, 10, 5)],
                             ids=["empty", "zero", "negative", "repeated"])
    def test_ks_checked_before_any_row(self, planted_split, ks):
        train, test = planted_split
        sim = make_method("pcc")
        cache = SimilarityCache(sim, train)
        with pytest.raises(ValueError, match="ks must"):
            evaluate_split(train, test, sim, ks=ks, r=5, relevance=4.0, cache=cache)
        with pytest.raises(ValueError, match="ks must"):
            run_experiment(train, test, sim, ks=ks, cache=cache)
        assert cache.rows == {}

    @pytest.mark.parametrize("name, kw, mode", SWEEP_CONFIGS, ids=SWEEP_IDS)
    def test_sweep_equals_its_single_k_runs(self, planted_split, name, kw, mode):
        # k 1 and 3 fall below many supports, so they predict records again
        ks = (1, 3, 10, 40)
        sim = make_method(name, **kw)
        sweep = run_experiment(*planted_split, sim, ks=ks, r=5, prediction=mode)
        assert [rep.k for rep in sweep] == list(ks)
        assert len({rep.seconds for rep in sweep}) == 1
        for rep in sweep:
            (single,) = run_experiment(*planted_split, sim, ks=(rep.k,), r=5, prediction=mode)
            assert rep._replace(seconds=0.0) == single._replace(seconds=0.0)
        assert sweep[0].mae != sweep[-1].mae

    def test_reports_follow_ks_order(self, planted_split):
        sim = make_method("pcc")
        forward = run_experiment(*planted_split, sim, ks=(3, 40, 10), metrics="accuracy")
        assert [rep.k for rep in forward] == [3, 40, 10]
        backward = run_experiment(*planted_split, sim, ks=(10, 40, 3), metrics="accuracy")
        assert [rep.mae for rep in backward] == [rep.mae for rep in reversed(forward)]

    @pytest.mark.parametrize("name", ["pcc", "dynamic"])
    def test_each_k_matches_oracle(self, planted_split, name):
        train, test = planted_split
        ratings = oracles.records_to_dict((r.user, r.item, r.value) for r in train.records())
        score = {
            "pcc": lambda a, b: oracles.pearson(ratings, a, b),
            "dynamic": lambda a, b: oracles.dynamic_adjusted(
                ratings, a, b, train.user_count, train.item_count),
        }[name]
        memo: dict = {}

        def sim(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in memo:
                memo[key] = score(*key)
            return memo[key]

        ks = (1, 3, 10, 40)
        reports = run_experiment(train, test, make_method(name), ks=ks, metrics="accuracy")
        for k, rep in zip(ks, reports):
            pairs, misses = [], 0
            for user, item, actual in sorted(test, key=lambda t: (t.user, t.item)):
                p = oracles.predict(ratings, user, item, k, sim, _synth.SCALE) \
                    if user in ratings else None
                if p is None:
                    misses += 1
                else:
                    pairs.append((p, actual))
            assert rep.coverage == misses
            assert rep.mae == pytest.approx(oracles.mae(pairs), abs=1e-9)
            assert rep.rmse == pytest.approx(oracles.rmse(pairs), abs=1e-9)

    @pytest.mark.parametrize("ks", [(20, 40), (2, 5, 40)], ids=["20,40", "2,5,40"])
    def test_one_predict_per_record_plus_one_per_k_below_its_support(self, monkeypatch, ks):
        records = _synth.planted_records(seed=3, n_users=220, n_items=150)
        train, test = split_holdout(build_matrix(records, RatingScale(*_synth.SCALE)), 0.8, 42)
        sim = make_method("pcc")
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return predict(*args, **kwargs)

        monkeypatch.setattr(cflevels.evaluate, "predict", counted)
        evaluate_split(train, test, sim, ks=ks, r=5, relevance=4.0, metrics="accuracy")
        monkeypatch.undo()
        # predict is asked about every record of a user known to train, at the
        # largest k; it answers None (support 0) when no rater of the item is
        # positively similar. Every smaller k below a support asks again.
        cache = SimilarityCache(sim, train)
        supports = [p.support if (p := predict(rec.user, rec.item, max(ks), sim, train, cache))
                    else 0 for rec in test if rec.user in train.users()]
        again = {k: sum(1 for s in supports if s > k) for k in ks[:-1]}
        assert calls.count(max(ks)) == len(supports)
        assert {k: calls.count(k) for k in ks[:-1]} == again
        assert len(calls) == len(supports) + sum(again.values())
        if ks == (2, 5, 40):
            assert again[2] > again[5] > 0


class TestPassChecks:
    """A pass checks its arguments up front, even when no test record reaches predict."""

    @pytest.mark.parametrize("test_kind", ["unknown-users", "empty"])
    @pytest.mark.parametrize("run, kwargs, match", [
        (evaluate_split, {"prediction": "bogus"}, "unknown prediction mode 'bogus'"),
        (evaluate_split, {"r": 0, "metrics": "topn"}, "r must be >= 1, got 0"),
        (evaluate_split, {"hit_def": "bogus"}, "unknown hit_def 'bogus'"),
        (evaluate_split, {"metrics": "bogus"}, "unknown metrics group 'bogus'"),
        (run_experiment, {"prediction": "bogus"}, "unknown prediction mode 'bogus'"),
        (run_experiment, {"method": make_method("pcc")}, "serves only"),
    ], ids=["split-prediction", "split-r", "split-hit-def", "split-metrics",
            "experiment-prediction", "experiment-foreign-cache"])
    def test_bad_value_raises_before_any_row(self, planted_split, test_kind, run, kwargs, match):
        train, test = planted_split
        if test_kind == "unknown-users":
            test = [RatingRecord(f"nobody{n}", rec.item, rec.value) for n, rec in enumerate(test[:5])]
        else:
            test = []
        sim = make_method("pcc")
        cache = SimilarityCache(sim, train)
        required = {"r": 5, "relevance": 4.0} if run is evaluate_split else {}
        with pytest.raises(ValueError, match=match):
            run(train, test, **{"method": sim, "ks": (5,), "cache": cache, **required, **kwargs})
        assert len(cache) == 0


class TestRenderers:
    REPORTS = [
        EvalReport("pcc", 40, {}, mae=0.75, nmae=0.1875, rmse=1.0, coverage=2,
                   seconds=1.25),
        EvalReport("dynamic", 40, {"negative_form": "eq4", "fold": 0},
                   precision=0.5, recall=0.25, f1=1 / 3, hit_rate_pct=50.0,
                   coverage=0, seconds=2.5),
    ]

    def test_csv_shape_and_blanks(self):
        text = render_csv(self.REPORTS)
        lines = text.splitlines()
        assert lines[0] == ("method,k,params,mae,nmae,rmse,precision,recall,"
                            "f1,hit_rate_pct,coverage,seconds")
        assert lines[1] == "pcc,40,,0.75,0.1875,1.0,,,,,2,"
        assert lines[2].startswith("dynamic,40,fold=0;negative_form=eq4,,,,0.5,0.25,")
        assert text.endswith("\n")

    def test_csv_quotes_fields_holding_delimiters(self):
        report = EvalReport('a,"b"', 40, {"note": "x,y"}, mae=0.5, coverage=1)
        header, row = csv.reader(io.StringIO(render_csv([report])))
        assert len(row) == len(header) == 12
        assert row == ['a,"b"', "40", "note=x,y", "0.5", "", "", "", "", "", "", "1", ""]

    def test_csv_timing_gate(self):
        silent = render_csv(self.REPORTS)
        timed = render_csv(self.REPORTS, include_timing=True)
        assert ",1.25" in timed and ",1.25" not in silent

    def test_json_round_trip(self):
        rows = json.loads(render_json(self.REPORTS))
        assert rows[0]["method"] == "pcc"
        assert rows[0]["precision"] is None
        assert rows[0]["seconds"] is None  # timing hidden by default
        assert rows[1]["params"] == {"negative_form": "eq4", "fold": 0}
        timed = json.loads(render_json(self.REPORTS, include_timing=True))
        assert timed[0]["seconds"] == 1.25

"""Command-line behavior: exit codes, config precedence, output stability."""

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import weakref

import pytest

import oracles
from cflevels import RatingsMatrix, build_level_table
from cflevels.cli import build_parser, main, parse_k_sweep

SAMPLE_LINES = "\n".join(f"{u} {i} {v:g}" for u, i, v in oracles.SAMPLE_RECORDS) + "\n"


@pytest.fixture()
def sample_file(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text(SAMPLE_LINES, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def bench_file(tmp_path_factory):
    rng = random.Random(5)
    ratings = oracles.random_ratings(rng, n_users=30, n_items=20, density=0.5)
    lines = [f"{u} {i} {v:g}" for u, i, v in oracles.ratings_to_records(ratings)]
    path = tmp_path_factory.mktemp("data") / "bench.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def rows_of(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, list(reader)


class TestExitCodes:
    def test_levels_needs_enough_users(self, sample_file, capsys):
        assert main(["levels", "--ratings", sample_file]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "u1 i1\nu2 i2 many\n"], ids=["empty", "all-bad"])
    @pytest.mark.parametrize("command", [["levels"], ["evaluate"], ["topn", "--r", "3"]],
                             ids=["levels", "evaluate", "topn"])
    def test_no_ratings(self, text, command, tmp_path, capsys):
        path = tmp_path / "ratings.txt"
        path.write_text(text, encoding="utf-8")
        assert main(command + ["--ratings", str(path), "--skip-bad-lines"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: {path}: no ratings" in err

    @pytest.mark.parametrize("command", [
        *(["evaluate", "--seed", str(seed)] for seed in range(1, 7)),
        *(["topn", "--r", "2", "--seed", str(seed)] for seed in range(1, 7)),
        *(["recommend", "--r", "2", "--user", user] for user in ("u1", "u2", "u3")),
    ], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
    def test_dynamic_needs_enough_users_whatever_the_pairs(self, command, tmp_path, capsys):
        # whether a pair ever reaches the adjuster depends on the seed or the
        # user; the 10-user floor of the dynamic bands must not, and the error
        # counts the file's users, not a train split's (which may hold 2 or 3)
        path = tmp_path / "three.txt"
        path.write_text("u1 i1 5\nu1 i2 3\nu2 i1 4\nu2 i2 2\nu3 i1 1\n", encoding="utf-8")
        assert main(command + ["--ratings", str(path), "--method", "dynamic"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: level derivation needs at least 10 users, got 3\n")

    def test_unknown_user(self, sample_file, capsys):
        rc = main(["recommend", "--ratings", sample_file,
                   "--user", "nobody", "--r", "3"])
        assert rc == 2
        assert "nobody" in capsys.readouterr().err

    def test_topn_requires_r(self, bench_file):
        assert main(["topn", "--ratings", bench_file]) == 2

    def test_recommend_requires_user_and_r(self, sample_file):
        assert main(["recommend", "--ratings", sample_file, "--r", "3"]) == 2
        assert main(["recommend", "--ratings", sample_file, "--user", "u1"]) == 2

    def test_ratings_flag_required(self, capsys):
        assert main(["evaluate"]) == 2
        assert "--ratings" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, missing", [
        (["topn"], "--ratings"),
        (["recommend", "--ratings", "no-such-file"], "--user"),
        (["recommend", "--ratings", "no-such-file", "--user", "u1"], "--r"),
        (["topn", "--ratings", "no-such-file"], "--r"),
    ])
    def test_required_flags_checked_before_any_file(self, capsys, argv, missing):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {missing} is required\n"

    def test_argparse_failures(self, sample_file):
        assert main([]) == 2
        assert main(["nosuchcommand"]) == 2
        assert main(["evaluate", "--ratings", sample_file, "--nosuchflag"]) == 2
        assert main(["evaluate", "--ratings", sample_file, "--method", "xyz"]) == 2
        assert main(["evaluate", "--ratings", sample_file, "--format", "xyz"]) == 2

    def test_malformed_line_fails_without_skip(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("a i1 4\nbroken\n", encoding="utf-8")
        assert main(["levels", "--ratings", str(path)]) == 1
        assert "bad.txt:2" in capsys.readouterr().err

    def test_out_of_scale_rating(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a i1 9\n", encoding="utf-8")
        assert main(["levels", "--ratings", str(path)]) == 1

    def test_missing_ratings_file(self, tmp_path):
        assert main(["levels", "--ratings", str(tmp_path / "nope.txt")]) == 1

    @pytest.mark.parametrize("command", [
        ["evaluate"], ["topn", "--r", "3"], ["levels"], ["recommend", "--user", "u000", "--r", "3"],
    ], ids=["evaluate", "topn", "levels", "recommend"])
    def test_closed_stdout_exits_quietly(self, bench_file, command, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(command + ["--ratings", bench_file]) == 0
        assert capsys.readouterr().err == ""

    def test_closed_pipe_in_child_process(self, bench_file):
        # block-buffered stdout, so the write only fails at the final flush
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-c", "from cflevels.cli import entry; entry()",
             "evaluate", "--ratings", bench_file],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert err == b""

    def test_python_m_runs_the_command_line(self, bench_file, capsys):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        argv = ["levels", "--ratings", bench_file]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0 and out.startswith("users: 30\n")
        proc = subprocess.run([sys.executable, "-m", "cflevels", *argv],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
        proc = subprocess.run([sys.executable, "-m", "cflevels.cli", "evaluate"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "--ratings" in proc.stderr

    def test_range_checks(self, bench_file):
        base = ["evaluate", "--ratings", bench_file]
        assert main(base + ["--k", "0"]) == 2
        assert main(base + ["--train", "1.5"]) == 2
        assert main(base + ["--folds", "1"]) == 2
        assert main(base + ["--jobs", "0"]) == 2
        assert main(base + ["--k-sweep", "5-15"]) == 2
        assert main(base + ["--k-sweep", "15:5:1"]) == 2
        assert main(base + ["--methods", "pcc,xyz"]) == 2
        assert main(base + ["--scale-min", "5", "--scale-max", "5"]) == 2
        assert main(["topn", "--ratings", bench_file, "--r", "0"]) == 2
        assert main(base + ["--method", "wpcc", "--T", "0"]) == 2
        assert main(base + ["--method", "static", "--t", "0"]) == 2
        assert main(base + ["--method", "plus", "--alpha", "0"]) == 2
        assert main(base + ["--method", "plus", "--beta", "-1"]) == 2
        assert main(base + ["--method", "plus", "--beta", "inf"]) == 2
        assert main(base + ["--method", "plus", "--alpha", "nan"]) == 2
        assert main(base + ["--method", "static", "--y", "nan"]) == 2
        assert main(base + ["--method", "static", "--y", "-inf"]) == 2
        assert main(base + ["--scale-min", "nan"]) == 2
        assert main(base + ["--scale-max", "inf"]) == 2
        assert main(["topn", "--ratings", bench_file, "--r", "5", "--scale-max", "inf"]) == 2
        topn = ["topn", "--ratings", bench_file, "--r", "5"]
        assert main(topn + ["--relevance", "nan"]) == 2
        assert main(topn + ["--relevance", "inf"]) == 2
        assert main(topn + ["--relevance", "-inf"]) == 2
        assert main(base + ["--delimiter", ""]) == 2
        assert main(topn + ["--delimiter", ""]) == 2

    def test_overflowing_neighborhood_sums_evaluate(self, bench_file, tmp_path, capsys):
        # finite but huge similarity weights overflow the neighborhood sums;
        # the closing pass then takes them scaled by powers of two, so the run
        # reports what alpha=1 does, within rounding. On the four-user file
        # the sums fail in every order, on bench_file in some
        tiny = tmp_path / "tiny.txt"
        tiny.write_text("a i1 1\na i2 2\na i3 3\nb i1 1\nb i2 2\nb i3 3\nb i4 5\n"
                        "c i1 1\nc i2 2\nc i3 3\nc i4 4\nd i1 1\nd i2 2.5\nd i3 3\nd i4 1\n",
                        encoding="utf-8")
        for path, split in ((bench_file, []), (str(tiny), ["--folds", "5"])):
            reports = []
            for alpha in ("1e308", "1"):
                assert main(["evaluate", "--ratings", path, "--method", "plus",
                             "--alpha", alpha, "--k", "40", *split]) == 0
                out, err = capsys.readouterr()
                assert err == ""
                reports.append(rows_of(out)[1])
            for huge, unit in zip(*reports):
                assert len(huge) == len(unit)
                for got, want in zip(huge[3:6], unit[3:6]):  # mae, nmae, rmse
                    assert float(got) == pytest.approx(float(want), abs=1e-12)

    def test_covariance_past_the_float_range_gives_the_librarys_message(self, tmp_path, capsys):
        # deviation products of opposite signs overflow to inf and -inf, whose
        # sum math.fsum refuses before any square is checked
        rng = random.Random(1)
        path = tmp_path / "huge.txt"
        path.write_text("".join(f"u{u:02d} i{i} {rng.uniform(0, 10) * 6.25e298!r}\n"
                                for u in range(12) for i in range(8)), encoding="utf-8")
        assert main(["evaluate", "--ratings", str(path), "--method", "pcc", "--k", "5",
                     "--scale-min", "0", "--scale-max", "1e300"]) == 1
        err = capsys.readouterr().err
        assert err == "error: a sum of rating deviation products is past the float range\n"
        assert "fsum" not in err

    def test_rating_sum_past_the_float_range_evaluates(self, tmp_path, capsys):
        # one user rates every item 1.7e308, in scale: its rating sums leave the
        # float range, but its means and Pearson bases (0, no variance) do not
        rng = random.Random(5)
        path = tmp_path / "big.txt"
        path.write_text("".join(f"u{u:02d} i{i} {rng.randint(1, 5)}\n"
                                for u in range(10) for i in range(6))
                        + "".join(f"big i{i} 1.7e308\n" for i in range(6)), encoding="utf-8")
        for method in ("pcc", "dynamic"):
            assert main(["evaluate", "--ratings", str(path), "--method", method, "--k", "5",
                         "--scale-min", "0", "--scale-max", "1.7e308"]) == 0
            out, err = capsys.readouterr()
            assert err == "" and out.startswith("method,")

    def test_method_knobs_checked_before_the_file_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.txt")
        assert main(["evaluate", "--ratings", missing, "--method", "static", "--t", "0"]) == 2
        assert "--t" in capsys.readouterr().err
        assert main(["topn", "--ratings", missing, "--r", "5", "--relevance", "nan"]) == 2
        assert "--relevance" in capsys.readouterr().err
        assert main(["evaluate", "--ratings", missing, "--delimiter", ""]) == 2
        assert "--delimiter" in capsys.readouterr().err
        assert main(["evaluate", "--ratings", missing, "--methods", "nope"]) == 2
        assert "argument --methods: expects a comma-separated list" in capsys.readouterr().err
        assert main(["evaluate", "--ratings", missing, "--k-sweep", "5:1:1"]) == 2
        assert "argument --k-sweep: needs 1 <= start <= stop" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["topn", "--r", "5", "--train", "0.9999"],
                                      ["evaluate", "--train", "0.0001"],
                                      ["evaluate", "--folds", "3000"]],
                             ids=["nothing-tested", "nothing-trained", "empty-folds"])
    def test_split_that_leaves_a_part_empty(self, argv, bench_file, capsys):
        assert main(argv + ["--ratings", bench_file]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and " ratings " in err


class TestKSweepParsing:
    def test_inclusive_range(self):
        assert parse_k_sweep("5:15:5") == [5, 10, 15]
        assert parse_k_sweep("20:100:20") == [20, 40, 60, 80, 100]
        assert parse_k_sweep("7:7:1") == [7]

    def test_stop_not_forced_in(self):
        assert parse_k_sweep("5:14:5") == [5, 10]


class TestLevelsCommand:
    def test_output_lines(self, bench_file, capsys):
        assert main(["levels", "--ratings", bench_file]) == 0
        out = capsys.readouterr().out.splitlines()
        table = build_level_table(30, 20)
        assert out[0] == "users: 30"
        assert out[1] == "items: 20"
        assert out[2] == f"DvU: {table.dvu}"
        assert out[3] == f"DvI: {table.dvi}"
        assert out[4] == f"step: {table.step}"
        assert out[5] == "level 1: co-rated >= 5 -> s + s/1"
        assert out[-1] == "below 5 co-rated: negative adjustment"


class TestRecommendCommand:
    @pytest.fixture()
    def twin_file(self, tmp_path):
        # b mirrors a exactly on the shared items, then rates two more
        lines = ["a i1 5", "a i2 4", "a i3 1",
                 "b i1 5", "b i2 4", "b i3 1", "b i4 5", "b i5 2"]
        path = tmp_path / "twin.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_prints_item_and_value(self, twin_file, capsys):
        assert main(["recommend", "--ratings", twin_file,
                     "--user", "a", "--r", "5"]) == 0
        out = capsys.readouterr().out.splitlines()
        # mean(a) + (rating(b) - mean(b)) with similarity 1 and one neighbor
        assert out == ["i4\t4.933333", "i5\t1.933333"]

    def test_r_truncates(self, twin_file, capsys):
        assert main(["recommend", "--ratings", twin_file,
                     "--user", "a", "--r", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == ["i4\t4.933333"]

    def test_tiny_in_scale_ratings_score_their_pair(self, tmp_path, capsys):
        # the squared deviations of 1e-160 steps multiply out of float range
        path = tmp_path / "tiny.dat"
        path.write_text("".join(f"{u}::i{n}::{v}\n" for u in "ab"
                                for n, v in enumerate(("0", "1e-160", "2e-160")))
                        + "b::i3::7\n", encoding="utf-8")
        assert main(["recommend", "--ratings", str(path), "--format", "movietweetings",
                     "--user", "a", "--r", "2"]) == 0
        assert capsys.readouterr() == ("i3\t5.250000\n", "")

    def test_no_positive_neighbors_prints_nothing(self, sample_file, capsys):
        assert main(["recommend", "--ratings", sample_file,
                     "--user", "u3", "--r", "2"]) == 0
        assert capsys.readouterr().out == ""


class TestConfigFile:
    def test_precedence_defaults_config_flags(self, bench_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# benchmark knobs\n\nmethod = spcc\nk = 7\ntiming = true\n",
                       encoding="utf-8")
        rc = main(["evaluate", "--ratings", bench_file,
                   "--config", str(cfg), "--k", "9"])
        assert rc == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0][0] == "spcc"      # config beats the pcc default
        assert rows[0][1] == "9"         # flag beats the config value
        assert rows[0][11] != ""         # timing=true via config boolean

    @pytest.mark.parametrize("value", ["false", "no", "off", "0"])
    def test_false_timing_entry_leaves_seconds_empty(self, bench_file, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"timing = {value}\n", encoding="utf-8")
        assert main(["evaluate", "--ratings", bench_file, "--config", str(cfg)]) == 0
        header, rows = rows_of(capsys.readouterr().out)
        assert header[11] == "seconds"
        assert rows and all(row[11] == "" for row in rows)

    @pytest.mark.parametrize("flags, want", [
        (["--k", "10", "--method", "static"], [("static", "10")]),
        (["--k", "10"], [("pcc", "10"), ("dynamic", "10")]),
        (["--method", "static"], [("static", "20"), ("static", "40")]),
        # both flags on the command line: --k-sweep and --methods still win
        (["--k", "10", "--k-sweep", "5:10:5", "--method", "static", "--methods", "spcc"],
         [("spcc", "5"), ("spcc", "10")]),
    ], ids=["k-and-method", "k", "method", "both-flags"])
    def test_narrow_flags_beat_sweep_entries(self, bench_file, tmp_path, capsys, flags, want):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k-sweep = 20:40:20\nmethods = pcc,dynamic\n", encoding="utf-8")
        assert main(["evaluate", "--ratings", bench_file, "--config", str(cfg), *flags]) == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert [(r[0], r[1]) for r in rows] == want

    def test_flag_equal_to_its_default_beats_entry(self, bench_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 7\n", encoding="utf-8")
        assert main(["evaluate", "--ratings", bench_file, "--config", str(cfg),
                     "--k", "40"]) == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert [(r[0], r[1]) for r in rows] == [("pcc", "40")]

    def test_narrowed_away_entry_still_checked(self, bench_file, tmp_path, capsys):
        # --k overrides the file's k-sweep, but a bad k-sweep is still an error
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k-sweep = 5:1:1\n", encoding="utf-8")
        assert main(["evaluate", "--ratings", bench_file, "--config", str(cfg),
                     "--k", "10"]) == 2
        assert str(cfg) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["levels", "evaluate", "topn", "recommend"])
    def test_parse_holds_only_what_argv_gave(self, command):
        # a flag default would beat the config entry below it, so none has one
        parser, _ = build_parser()
        assert set(vars(parser.parse_args([command]))) == {"command", "handler"}

    def test_sweep_flags_beat_narrow_entries(self, bench_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 10\nmethod = static\n", encoding="utf-8")
        assert main(["evaluate", "--ratings", bench_file, "--config", str(cfg),
                     "--k-sweep", "20:40:20", "--methods", "pcc,dynamic"]) == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert [(r[0], r[1]) for r in rows] == [
            ("pcc", "20"), ("pcc", "40"), ("dynamic", "20"), ("dynamic", "40")]

    def test_dashed_keys_accepted(self, bench_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out-format = json\n", encoding="utf-8")
        assert main(["evaluate", "--ratings", bench_file, "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)[0]["method"] == "pcc"

    def test_unknown_key(self, bench_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n", encoding="utf-8")
        assert main(["evaluate", "--ratings", bench_file, "--config", str(cfg)]) == 2

    def test_bad_boolean(self, bench_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("timing = maybe\n", encoding="utf-8")
        assert main(["evaluate", "--ratings", bench_file, "--config", str(cfg)]) == 2

    def test_bad_int(self, bench_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = many\n", encoding="utf-8")
        assert main(["evaluate", "--ratings", bench_file, "--config", str(cfg)]) == 2

    def test_bad_choice(self, bench_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = xyz\n", encoding="utf-8")
        assert main(["evaluate", "--ratings", bench_file, "--config", str(cfg)]) == 2

    def test_byte_order_mark_ignored(self, bench_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = spcc\n", encoding="utf-8-sig")
        assert main(["evaluate", "--ratings", bench_file, "--config", str(cfg)]) == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert rows[0][0] == "spcc"

    def test_non_utf8_bytes_name_file_and_line(self, bench_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"k = 7\nmethod = sp\xffcc\n")
        assert main(["evaluate", "--ratings", bench_file, "--config", str(cfg)]) == 2
        assert f"{cfg}:2: not UTF-8" in capsys.readouterr().err

    def test_missing_equals(self, bench_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n", encoding="utf-8")
        assert main(["evaluate", "--ratings", bench_file, "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("line", ["k = 0", "folds = 1", "train = 1.5", "alpha = nan",
                                      "scale-max = inf", "delimiter =", "k-sweep = 5:1:1",
                                      "methods = pcc,nope"],
                             ids=lambda line: line.partition(" ")[0])
    def test_out_of_range_entry_names_the_file(self, line, bench_file, tmp_path, capsys):
        # entries pass the same range checks as the flags they stand for
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert main(["evaluate", "--ratings", bench_file, "--config", str(cfg)]) == 2
        assert str(cfg) in capsys.readouterr().err


class TestHelp:
    @pytest.mark.parametrize("command,defaults", [
        ("levels", ["default: custom"]),
        ("evaluate", ["default: pcc", "default: 40", "default: 0.8", "default: 42",
                      "default: all"]),
        ("topn", ["default: 40", "default: 0.8", "default: 100.0", "default: correct"]),
        ("recommend", ["default: 40", "default: resnick", "default: eq4"]),
    ], ids=["levels", "evaluate", "topn", "recommend"])
    def test_help_prints_declared_defaults(self, command, defaults, capsys):
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
        for default in defaults:
            assert default in text
        assert "default: None" not in text


class TestSweepShape:
    def test_method_major_then_k(self, bench_file, capsys):
        rc = main(["evaluate", "--ratings", bench_file,
                   "--methods", "spcc,pcc", "--k-sweep", "5:15:5"])
        assert rc == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert [(r[0], r[1]) for r in rows] == [
            ("spcc", "5"), ("spcc", "10"), ("spcc", "15"),
            ("pcc", "5"), ("pcc", "10"), ("pcc", "15")]

    def test_fold_rows_then_average(self, bench_file, capsys):
        rc = main(["evaluate", "--ratings", bench_file, "--folds", "3", "--k", "5"])
        assert rc == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert [r[2] for r in rows] == ["fold=0", "fold=1", "fold=2", "fold=avg"]

    def test_one_fold_alive_at_a_time(self, bench_file, monkeypatch):
        # every train matrix the sweep was handed is gone before the next is cut
        built, alive = [], []
        cut = RatingsMatrix._cut

        def tracked(m, cells):
            alive.append(sum(ref() is not None for ref in built))
            train, test = cut(m, cells)
            built.append(weakref.ref(train))
            return train, test

        monkeypatch.setattr(RatingsMatrix, "_cut", tracked)
        assert main(["evaluate", "--ratings", bench_file, "--methods", "pcc,dynamic",
                     "--folds", "4", "--k", "5", "--output", os.devnull]) == 0
        assert alive == [0, 0, 0, 0]

    def test_duplicate_methods_collapse(self, bench_file, capsys):
        rc = main(["evaluate", "--ratings", bench_file, "--methods", "pcc,pcc"])
        assert rc == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert len(rows) == 1


class TestPresets:
    def test_epinions_wpcc_cutoff(self, bench_file, capsys):
        rc = main(["evaluate", "--ratings", bench_file,
                   "--format", "epinions", "--method", "wpcc"])
        assert rc == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert rows[0][2] == "T=5"

    def test_epinions_static_thresholds(self, bench_file, capsys):
        rc = main(["evaluate", "--ratings", bench_file,
                   "--format", "epinions", "--method", "static"])
        assert rc == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert rows[0][2] == "t=5;y=0.15"

    def test_flag_overrides_preset(self, bench_file, capsys):
        rc = main(["evaluate", "--ratings", bench_file,
                   "--format", "epinions", "--method", "wpcc", "--T", "30"])
        assert rc == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert rows[0][2] == "T=30"

    @pytest.mark.parametrize("entry, flags, want", [
        ("format = epinions", [], "T=5"),  # the file's format picks the preset
        ("T = 7", ["--format", "epinions"], "T=7"),  # the file's entry beats the preset
    ], ids=["config-format", "config-over-preset"])
    def test_config_layers_over_preset(self, entry, flags, want, bench_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(entry + "\n", encoding="utf-8")
        rc = main(["evaluate", "--ratings", bench_file, "--config", str(cfg),
                   "--method", "wpcc", *flags])
        assert rc == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert rows[0][2] == want

    def test_custom_default_wpcc_cutoff(self, bench_file, capsys):
        rc = main(["evaluate", "--ratings", bench_file, "--method", "wpcc"])
        assert rc == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert rows[0][2] == "T=50"


class TestOutputForms:
    def test_metric_filter(self, bench_file, capsys):
        rc = main(["evaluate", "--ratings", bench_file, "--metric", "rmse"])
        assert rc == 0
        header, rows = rows_of(capsys.readouterr().out)
        row = dict(zip(header, rows[0]))
        assert row["mae"] == "" and row["nmae"] == ""
        assert float(row["rmse"]) > 0

    def test_timing_column_gated(self, bench_file, capsys):
        assert main(["evaluate", "--ratings", bench_file]) == 0
        bare = capsys.readouterr().out
        header, rows = rows_of(bare)
        assert rows[0][header.index("seconds")] == ""
        assert main(["evaluate", "--ratings", bench_file, "--timing"]) == 0
        header, rows = rows_of(capsys.readouterr().out)
        assert float(rows[0][header.index("seconds")]) >= 0.0

    def test_rows_of_one_pass_share_its_seconds(self, bench_file, capsys):
        # one pass per (method, fold) serves every k; fold=avg sums the folds
        assert main(["evaluate", "--ratings", bench_file, "--methods", "pcc,dynamic",
                     "--k-sweep", "5:15:5", "--folds", "2", "--timing"]) == 0
        header, rows = rows_of(capsys.readouterr().out)
        col = header.index("seconds")
        passes: dict = {}
        for row in rows:
            fold = dict(kv.split("=") for kv in row[2].split(";"))["fold"]
            passes.setdefault((row[0], fold), set()).add(row[col])
        assert len(passes) == 2 * 3
        assert all(len(seconds) == 1 for seconds in passes.values())
        for method in ("pcc", "dynamic"):
            (avg,) = passes[method, "avg"]
            folds = [float(next(iter(passes[method, fold]))) for fold in ("0", "1")]
            assert float(avg) == math.fsum(folds)

    def test_repeat_runs_byte_identical(self, bench_file, capsys):
        argv = ["topn", "--ratings", bench_file, "--r", "5", "--method", "dynamic"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_json_output(self, bench_file, capsys):
        rc = main(["evaluate", "--ratings", bench_file, "--out-format", "json",
                   "--method", "wpcc"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["method"] == "wpcc"
        assert rows[0]["params"] == {"T": 50}
        assert rows[0]["seconds"] is None
        assert rows[0]["mae"] is not None

    def test_output_file(self, bench_file, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(["evaluate", "--ratings", bench_file, "--output", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        text = out.read_text(encoding="utf-8")
        assert text.startswith("method,k,params,")

    def test_jobs_do_not_change_bytes(self, bench_file, tmp_path):
        argv = ["evaluate", "--ratings", bench_file, "--methods", "pcc,dynamic",
                "--k-sweep", "5:15:5", "--folds", "2", "--seed", "42"]
        serial = tmp_path / "serial.csv"
        threaded = tmp_path / "threaded.csv"
        assert main(argv + ["--jobs", "1", "--output", str(serial)]) == 0
        assert main(argv + ["--jobs", "8", "--output", str(threaded)]) == 0
        assert serial.read_bytes() == threaded.read_bytes()

"""Delimited rating-file parsing."""

import logging
import os
import pickle
import subprocess
import sys

import pytest

from cflevels import (DatasetFormat, FORMATS, MalformedLineError,
                      OutOfScaleRatingError, RatingScale, parse_ratings)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestFormats:
    def test_presets(self):
        ml = FORMATS["movielens-1m"]
        assert ml.delimiter == "::" and ml.scale == RatingScale(1.0, 5.0)
        assert ml.columns == ("user", "item", "rating", "ignored")
        mt = FORMATS["movietweetings"]
        assert mt.delimiter == "::" and mt.scale == RatingScale(0.0, 10.0)
        ep = FORMATS["epinions"]
        assert ep.delimiter is None and ep.scale == RatingScale(1.0, 5.0)
        # the CLI's default layout
        assert FORMATS["custom"] == DatasetFormat(None, ("user", "item", "rating"),
                                                  RatingScale(1.0, 5.0))

    def test_roles_validated(self):
        with pytest.raises(ValueError):
            DatasetFormat(None, ("user", "item"), RatingScale(1, 5))
        with pytest.raises(ValueError):
            DatasetFormat(None, ("user", "item", "rating", "rating"), RatingScale(1, 5))
        with pytest.raises(ValueError):
            DatasetFormat(None, ("user", "item", "score"), RatingScale(1, 5))

    def test_empty_delimiter_refused(self):
        # str.split("") would fail later with a bare "empty separator"
        with pytest.raises(ValueError, match="delimiter"):
            DatasetFormat("", ("user", "item", "rating"), RatingScale(1, 5))

    def test_every_way_to_make_one_checks_the_layout(self):
        good = FORMATS["custom"]
        for make, match in [
                (lambda: good._replace(delimiter=""), "delimiter"),
                (lambda: good._replace(columns=("user", "item")), "'rating' exactly once"),
                (lambda: DatasetFormat._make((None, ("user", "item", "score"), good.scale)),
                 "unknown column role 'score'"),
                (lambda: DatasetFormat(delimiter=None, columns=("user", "user", "item", "rating"),
                                       scale=good.scale), "'user' exactly once")]:
            with pytest.raises(ValueError, match=match):
                make()
        assert good._replace(delimiter=",").delimiter == ","
        assert pickle.loads(pickle.dumps(good)) == good


class TestParseRatings:
    def test_double_colon_with_timestamp(self, tmp_path):
        path = write(tmp_path, "ml.dat", "1::1193::5::978300760\n2::661::3::978302109\n")
        records = parse_ratings(path, FORMATS["movielens-1m"])
        assert [(r.user, r.item, r.value) for r in records] == [
            ("1", "1193", 5.0), ("2", "661", 3.0)]

    def test_whitespace_delimited(self, tmp_path):
        path = write(tmp_path, "ep.txt", "alice  item1 4\nbob\titem2\t2\n")
        records = parse_ratings(path, FORMATS["epinions"])
        assert [(r.user, r.item, r.value) for r in records] == [
            ("alice", "item1", 4.0), ("bob", "item2", 2.0)]

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "empty.txt", "")
        assert parse_ratings(path, FORMATS["epinions"]) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "gaps.txt", "a i1 3\n\n   \nb i1 4\n")
        assert len(parse_ratings(path, FORMATS["epinions"])) == 2

    def test_extra_columns_ignored(self, tmp_path):
        path = write(tmp_path, "extra.txt", "a i1 3 1999 junk\n")
        records = parse_ratings(path, FORMATS["epinions"])
        assert records[0].value == 3.0

    def test_out_of_scale_names_line(self, tmp_path):
        fmt = DatasetFormat(None, ("user", "item", "rating"), RatingScale(0, 10))
        path = write(tmp_path, "bad.txt", "a i1 3\nb i2 11\n")
        with pytest.raises(OutOfScaleRatingError) as err:
            parse_ratings(path, fmt)
        assert ":2:" in str(err.value)

    def test_short_line_names_line(self, tmp_path):
        path = write(tmp_path, "short.txt", "a i1 3\nb i2\n")
        with pytest.raises(MalformedLineError) as err:
            parse_ratings(path, FORMATS["epinions"])
        assert ":2:" in str(err.value)

    def test_unparsable_rating_names_line(self, tmp_path):
        path = write(tmp_path, "nan.txt", "a i1 lots\n")
        with pytest.raises(MalformedLineError) as err:
            parse_ratings(path, FORMATS["epinions"])
        assert ":1:" in str(err.value)

    def test_utf8_bom_not_part_of_first_user(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes("u1 i1 3\nu1 i2 4\n".encode("utf-8-sig"))
        records = parse_ratings(str(path), FORMATS["epinions"])
        assert [r.user for r in records] == ["u1", "u1"]

    @pytest.mark.parametrize("line", ["::i1::4", "u2::::3"])
    def test_empty_id_names_line(self, tmp_path, line):
        path = write(tmp_path, "empty.dat", f"u1::i1::5\n{line}\n")
        with pytest.raises(MalformedLineError) as err:
            parse_ratings(path, FORMATS["movietweetings"])
        assert ":2:" in str(err.value)
        records = parse_ratings(path, FORMATS["movietweetings"], skip_bad_lines=True)
        assert [(r.user, r.item) for r in records] == [("u1", "i1")]

    def test_non_utf8_bytes_name_line(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"u1 i1 5\nb\xe9 i1 3\nu2 i\xc3\xa9 4\n")  # Latin-1 on line 2
        with pytest.raises(MalformedLineError) as err:
            parse_ratings(str(path), FORMATS["epinions"])
        assert ":2:" in str(err.value)
        records = parse_ratings(str(path), FORMATS["epinions"], skip_bad_lines=True)
        assert [(r.user, r.item) for r in records] == [("u1", "i1"), ("u2", "ié")]

    def test_skip_bad_lines_logs_and_continues(self, tmp_path, caplog):
        path = write(tmp_path, "mixed.txt", "a i1 3\nbroken\nb i2 9\nc i3 4\n")
        with caplog.at_level(logging.WARNING, logger="cflevels.ingest"):
            records = parse_ratings(path, FORMATS["epinions"], skip_bad_lines=True)
        assert len(records) == 2
        assert "rejected 2 bad line(s)" in caplog.text

    def test_skipped_lines_are_reported_on_stderr(self, tmp_path):
        # the command line's own stderr: no handler is configured, so each
        # warning prints as its bare message
        path = write(tmp_path, "mixed.txt", "a i1 3\nbroken\nb i2 9\nc i3 4\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-m", "cflevels", "recommend", "--ratings", path,
                               "--user", "a", "--r", "1", "--skip-bad-lines"],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (0, "")
        assert proc.stderr == (f"skipping bad line: {path}:2: expected 3 fields, got 1\n"
                               f"skipping bad line: {path}:3: rating 9.0 outside scale "
                               "[1.0, 5.0]\n"
                               f"{path}: rejected 2 bad line(s)\n")

    def test_crlf_endings(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"a i1 3\r\nb i2 4\r\n")
        records = parse_ratings(str(path), FORMATS["epinions"])
        assert [(r.user, r.item, r.value) for r in records] == [
            ("a", "i1", 3.0), ("b", "i2", 4.0)]

    def test_ratings_parsed_as_reals(self, tmp_path):
        path = write(tmp_path, "real.txt", "a i1 3.5\n")
        assert parse_ratings(path, FORMATS["epinions"])[0].value == 3.5

    def test_reparse_is_deterministic(self, tmp_path):
        text = "".join(f"u{n} i{n % 3} {1 + n % 5}\n" for n in range(30))
        path = write(tmp_path, "det.txt", text)
        first = parse_ratings(path, FORMATS["epinions"])
        second = parse_ratings(path, FORMATS["epinions"])
        assert first == second

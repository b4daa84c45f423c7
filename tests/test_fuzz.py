"""Random ratings-file bytes: only typed errors escape, the CLI never crashes.

The bytes mix well-formed lines with the inputs that have broken parsers
before: a UTF-8 byte-order mark, empty ids, NaN and infinite ratings,
truncated lines, stray carriage returns and bytes that are not UTF-8.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cflevels import FORMATS, CfLevelsError, parse_ratings
from cflevels.cli import main

FUZZ = settings(max_examples=120, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# valid choices are repeated so that many files parse and reach evaluation
ids = st.sampled_from(["u1", "u2", "u3", "u4", "i1", "i2", "i3", "é", "\x00", "", " ",
                       "u1::i1"])
values = st.sampled_from(["1", "2", "3", "4", "5", "4.5", "0", "6", "-1", "nan", "NaN",
                          "inf", "-inf", "1e309", "", "x", "3,5", "٣"])
seps = st.sampled_from([" ", " ", "\t", "::", ",", "  "])
ends = st.sampled_from([b"\n", b"\n", b"\r\n", b"\r", b""])
junk = st.sampled_from([b""] * 12 + [b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xed\xa0\x80",
                                     b"\x00"])


@st.composite
def ratings_bytes(draw):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        fields = [draw(ids), draw(ids), draw(values)]
        if draw(st.booleans()):
            fields.append(draw(st.sampled_from(["978300760", "", "x"])))
        line = draw(seps).join(fields).encode("utf-8", "surrogatepass")
        lines.append(draw(junk) + line + draw(ends))
    body = b"".join(lines)
    if body and draw(st.booleans()):
        body = body[:draw(st.integers(0, len(body)))]  # truncated mid-line
    return draw(junk) + body


file_bytes = st.one_of(ratings_bytes(), st.binary(max_size=120))


@pytest.fixture(scope="module")
def ratings_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "ratings.txt"


@FUZZ
@given(data=file_bytes, fmt=st.sampled_from([FORMATS["epinions"], FORMATS["movielens-1m"]]),
       skip=st.booleans())
def test_parse_ratings_raises_only_typed_errors(ratings_path, data, fmt, skip):
    ratings_path.write_bytes(data)
    try:
        records = parse_ratings(str(ratings_path), fmt, skip_bad_lines=skip)
    except CfLevelsError:
        return
    for user, item, value in records:
        assert user and item
        assert fmt.scale.contains(value)


@FUZZ
@given(data=file_bytes,
       extra=st.sampled_from([[], ["--skip-bad-lines"], ["--folds", "2"],
                              ["--method", "dynamic"], ["--format", "movielens-1m"]]))
def test_evaluate_exits_with_a_documented_code(ratings_path, data, extra):
    ratings_path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["evaluate", "--ratings", str(ratings_path), "--k", "2"] + extra)
    assert code in (0, 1, 2)
    if code != 0:
        assert "error: " in err.getvalue()

"""Random ratings-file bytes: only typed errors escape, the CLI never crashes.

The bytes mix well-formed lines with the inputs that have broken parsers
before: a UTF-8 byte-order mark, empty ids, NaN and infinite ratings,
truncated lines, stray carriage returns and bytes that are not UTF-8.
Well-formed small matrices on scales from 1e-300 to 1e300 reach the float
range's edges, where a run may fail only with the library's own message.
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
        assert fmt.scale.rmin <= value <= fmt.scale.rmax


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


@st.composite
def scaled_ratings(draw):
    """A small matrix's lines and its scale, the ratings ``unit * [lo, 10]`` for a unit of 1e-300 to 1e300."""
    unit = draw(st.sampled_from([1e-300, 2.0 ** -600, 1e-160, 1.0, 1e160, 1e300]))
    lo = draw(st.sampled_from([0.0, -10.0]))
    n_users, n_items = draw(st.integers(3, 15)), draw(st.integers(3, 12))
    lines = [f"u{u} i{i} {unit * draw(st.floats(lo, 10.0))!r}\n"
             for u in range(n_users) for i in range(n_items) if draw(st.integers(0, 2))]
    return "".join(lines), repr(unit * lo), repr(unit * 10.0)


@FUZZ
@given(data=scaled_ratings(), method=st.sampled_from(["pcc", "dynamic"]),
       split=st.sampled_from([[], ["--folds", "2"]]))
def test_scale_edges_give_only_the_librarys_messages(ratings_path, data, method, split):
    # ratings near 1e-300 square below the float range, near 1e300 above it:
    # a run may fail there, but only with one line of the library's own
    text, rmin, rmax = data
    ratings_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["evaluate", "--ratings", str(ratings_path), "--method", method, "--k", "5",
                     f"--scale-min={rmin}", f"--scale-max={rmax}"] + split)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "fsum" not in lines[0] and "math" not in lines[0]

import csv
import io
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synth
from mfed import ema, traceio
from mfed.errors import ConfigError, NonMonotonicTimestamp, ParseError
from mfed.traceio import load_annotations, load_trace


class TestLoadTrace:
    def test_well_formed_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t_ms,ax,ay,az\n0,0.1,0.2,9.8\n40,0.2,0.3,9.7\n80,0.1,0.2,9.8\n120,0.0,0.1,9.9\n")
        series = load_trace(str(path), 25.0)
        assert len(series) == 4
        assert series.t[1] == pytest.approx(0.04)

    def test_decreasing_timestamp_carries_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t_ms,ax,ay,az\n0,0,0,0\n40,0,0,0\n30,0,0,0\n")
        with pytest.raises(NonMonotonicTimestamp) as err:
            load_trace(str(path), 25.0)
        assert err.value.line == 4

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,ax,ay,az\n0,0,0,0\n")
        with pytest.raises(ParseError) as err:
            load_trace(str(path), 25.0)
        assert err.value.line == 1

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t_ms,ax,ay,az\n0,0,0,0\nforty,0,0,0\n")
        with pytest.raises(ParseError) as err:
            load_trace(str(path), 25.0)
        assert err.value.line == 3

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t_ms,ax,ay,az\n0,0,0\n")
        with pytest.raises(ParseError):
            load_trace(str(path), 25.0)

    def test_rate_mismatch_names_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t_ms,ax,ay,az\n" + "".join(f"{i * 100},0,0,0\n" for i in range(5)))  # 10 Hz data
        with pytest.raises(ConfigError) as err:
            load_trace(str(path), 25.0)
        assert str(err.value) == f"declared rate 25.0 Hz does not match median spacing 0.1000 s (in {path})"

    def test_rate_mismatch(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = "\n".join(f"{i * 100},0,0,0" for i in range(50))  # 10 Hz data
        path.write_text("t_ms,ax,ay,az\n" + rows + "\n")
        with pytest.raises(ConfigError):
            load_trace(str(path), 25.0)
        assert len(load_trace(str(path), 10.0)) == 50

    def test_round_trip_with_synth_writer(self, tmp_path):
        rng = np.random.default_rng(0)
        series = synth.gesture_trace(rng, [10.0], duration=20.0)
        path = tmp_path / "t.csv"
        synth.write_trace_csv(str(path), series)
        loaded = load_trace(str(path), 25.0)
        assert len(loaded) == len(series)
        assert np.allclose(loaded.xyz, series.xyz, atol=1e-6)

    def test_non_finite_sample_carries_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t_ms,ax,ay,az\n0,0,0,9.8\n40,0,0,9.8\n80,nan,0,9.8\n120,0,inf,9.8\n")
        with pytest.raises(ParseError) as err:
            load_trace(str(path), 25.0)
        assert err.value.line == 4
        assert "finite" in str(err.value)

    def test_clean_file_takes_bulk_path(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t_ms,ax,ay,az\r\n0,0.1,-2e-3,9.8\r\n\r\n40,+.5,3.,9.7\r\n")
        with mock.patch.object(traceio, "_parse_lines", side_effect=AssertionError("fell back")):
            series = load_trace(str(path), 25.0)
        assert series.t.tolist() == [0.0, 0.04]
        assert series.xyz.tolist() == [[0.1, -2e-3, 9.8], [0.5, 3.0, 9.7]]


    @pytest.mark.parametrize(
        "row",
        [b"40,0,\xff,9.8", b"40," + b"0" * 140_000 + b",0,9.8", b"1" + b"0" * 400 + b",0,0,9.8"],
        ids=["not-utf8", "past-csv-field-limit", "t-ms-overflows-float"],
    )
    def test_bad_row_carries_line(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_bytes(b"t_ms,ax,ay,az\n0,0,0,9.8\n" + row + b"\n80,0,0,9.8\n")
        with pytest.raises(ParseError) as err:
            load_trace(str(path), 25.0)
        assert err.value.line == 3


CHECK_BYTES = traceio._CHECK_BYTES


def _trace_with_stray_byte(pos: int, stray: bytes):
    """Trace CSV bytes of about 2.5 check slices whose only byte outside
    plain numbers is ``stray``, at offset ``pos``, first byte of a row's ax
    field; and the line of that row."""
    head = b"t_ms,ax,ay,az\n"
    width, ax = 20, 9  # b"%08d,0.5,-1,9.8\n": the row's width and its ax field's column
    row, pad = divmod(pos - len(head) - ax, width)
    rows = [b"%08d,0.5,-1,9.8%s\n" % (40 * i, b"0" * pad * (i == 0)) for i in range(5 * CHECK_BYTES // 2 // width)]
    rows[row] = b"%08d,%s.5,-1,9.8\n" % (40 * row, stray)
    data = head + b"".join(rows)
    assert data[pos : pos + 1] == stray
    return data, row + 2


@pytest.mark.parametrize("stray", [b"\xff", b"x"])
@pytest.mark.parametrize(
    "slice_byte", [CHECK_BYTES - 1, CHECK_BYTES, 2 * CHECK_BYTES - 1], ids=["last-of-first", "first", "last"]
)
def test_stray_byte_at_a_check_slice_edge_goes_to_the_line_parser(tmp_path, stray, slice_byte):
    # the slices start after the header's line
    data, line = _trace_with_stray_byte(len(b"t_ms,ax,ay,az\n") + slice_byte, stray)
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        with pytest.raises(ParseError) as err:
            load_trace(str(path), 25.0)
    assert err.value.line == line
    assert not loadtxt.called  # the byte check, not numpy, sent the file to the line parser


class TestLoadAnnotations:
    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("t_ms\n")
        assert load_annotations(str(path)) == []

    def test_reads_instants(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("t_ms\n1000\n2500\n")
        assert load_annotations(str(path)) == [1.0, 2.5]

    def test_unsorted_rejected_with_line(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("t_ms\n2000\n1000\n")
        with pytest.raises(NonMonotonicTimestamp) as err:
            load_annotations(str(path))
        assert err.value.line == 3

    def test_negative_instant_rejected_with_line(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("t_ms\n-5\n10\n")
        with pytest.raises(ParseError) as err:
            load_annotations(str(path))
        assert err.value.line == 2


# ---------------------------------------------------------------------------
# The bulk reader against the line parser, on generated CSV text


def _float_token(x: float, style: int) -> str:
    return [repr(x), f"{x:.6f}", f"{x:e}", f"{x:+.3g}", f" {x:g} "][style]


_GLITCHES = [  # odd tokens by kind; a kind is drawn first, then a token
    ["", "   ", "\t", "1\x0c"],  # blank fields, blanks Python strips
    ["+12", "1_0", "1_0.5", '"40"', '"1,5"'],  # Python reads these, numpy does not
    ["\x1c1", "\x1f-1"],  # numpy reads these, Python does not
    ["1e400", "-2e308"],  # overflow to infinity
    ["nan", "inf", "-inf", "Infinity"],
    ["1e3", "0x1", "\u0661", "- 1", "--1", "1.2.3", ".", "e5", "99999999999999999999", "# note"],
]
_glitch = st.sampled_from(_GLITCHES).flatmap(st.sampled_from)


@st.composite
def _csv_text(draw, width: int) -> str:
    """A header and rows of ``width`` fields with glitches: odd tokens,
    whitespace-only and blank lines, extra or missing fields, timestamps
    that stall or step back. Some files carry exactly one odd token, the
    rest glitches at a drawn rate. Line ends are mixed."""
    header = ["t_ms", "ax", "ay", "az"][:width]
    if draw(st.integers(0, 19)) == 0:
        header = [" t_ms "] + header[1:] if draw(st.booleans()) else ["time"] + header[1:]
    glitch_rate = draw(st.sampled_from([0, 0, 1, 4]))  # in tenths
    rows = []
    t_ms = draw(st.integers(-80, 200))
    for _ in range(draw(st.integers(0, 12))):
        glitch = draw(st.integers(0, 9)) < glitch_rate
        t_ms += draw(st.sampled_from([39, 1, 0, -40, 10**6])) if glitch else 40
        fields = [str(t_ms)] + [
            _float_token(draw(st.floats(-1e6, 1e6)), draw(st.integers(0, 4))) for _ in range(width - 1)
        ]
        kind = draw(st.integers(0, 3)) if draw(st.integers(0, 9)) < glitch_rate else None
        if kind == 0:
            fields[draw(st.integers(0, width - 1))] = draw(_glitch)
        elif kind == 1:
            fields.append(draw(st.sampled_from(["0", "", "x"])))
        elif kind == 2 and width > 1:
            fields.pop()
        elif kind == 3:
            rows.append([draw(st.sampled_from(["", "  ", "\t", " \t "]))])
        rows.append(fields)
    if rows and glitch_rate == 0 and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(_glitch)
    lines = [",".join(header)] + [",".join(fields) for fields in rows]
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.integers(0, 9)) else text.rstrip("\r\n")


def _outcome(fn):
    """What a reader does: its arrays as bytes, or the error it raises."""
    try:
        got = fn()
    except Exception as e:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(e), str(e), getattr(e, "line", None))
    if isinstance(got, list):  # annotation instants
        got = (np.asarray(got, dtype=np.float64),)
    elif not isinstance(got, tuple):  # a series
        got = (got.t, got.xyz)
    return ("ok",) + tuple((a.dtype, a.shape, a.tobytes()) for a in got)


def _line_parser_only():
    return mock.patch.object(traceio, "_read_bulk", return_value=None)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("diff") / "in.csv"


class TestBulkMatchesLineParser:
    @given(_csv_text(width=4))
    @settings(max_examples=400, deadline=None)
    def test_trace(self, csv_path, text):
        csv_path.write_bytes(text.encode("utf-8"))
        got = _outcome(lambda: load_trace(str(csv_path), 25.0))
        with _line_parser_only():
            expected = _outcome(lambda: load_trace(str(csv_path), 25.0))
        assert got == expected
        direct = _outcome(lambda: traceio._parse_lines(str(csv_path), traceio.TRACE_HEADER))
        bulk = _outcome(lambda: traceio._read_csv(str(csv_path), traceio.TRACE_HEADER))
        assert bulk == direct

    def test_field_past_csv_limit(self, csv_path):
        csv_path.write_text("t_ms,ax,ay,az\n0,0,0,9.8\n40," + "0" * 140_000 + ",0,9.8\n")
        got = _outcome(lambda: load_trace(str(csv_path), 25.0))
        with _line_parser_only():
            assert got == _outcome(lambda: load_trace(str(csv_path), 25.0))
        assert got[0] == "raised"

    @pytest.mark.parametrize(
        "data, reader",
        [
            (b"t_ms,ax,ay,az\r\n0,0.5,-1,9.8\r\n40,1e-3,2,9.7\r\n", "bulk"),
            (b'"t_ms","ax","ay","az"\n0,0.5,-1,9.8\n40,1e-3,2,9.7\n', "bulk"),
            (b'"t_ms\r\n",ax,ay,az\n0,0.5,-1,9.8\r40,1e-3,2,9.7', "lines"),  # a header of two lines
            (b'"t_ms\r",ax,ay,az\n0,0.5,-1,9.8\n40,1e-3,2,9.7\n', "lines"),  # numpy's first line ends at \r
            (b't_ms,ax,ay,"az\n0,0.5,-1,9.8\n40,1e-3,2,9.7\n', 1),  # the open quote runs to the end
            (b"\xef\xbb\xbft_ms,ax,ay,az\n0,0.5,-1,9.8\n", 1),  # the BOM is part of the first field
            (b"t_ms,ax,ay,az\n0,0.5,-1,9.8\n40,\xff,2,9.7\n", 3),
            (b"t_ms,ax,ay,az\n-80,0.5,-1,9.8\n0,1e-3,2,9.7\n", 2),  # loadtxt reads it; the bulk path must defer
        ],
        ids=[
            "crlf-body", "quoted-header", "two-line-header", "cr-in-quoted-header", "header-quote-left-open",
            "utf8-bom", "not-utf8-body", "negative-first-t",
        ],
    )
    def test_bytes(self, csv_path, data, reader):
        csv_path.write_bytes(data)
        with _line_parser_only():
            expected = _outcome(lambda: load_trace(str(csv_path), 25.0))
        if isinstance(reader, int):  # a ParseError at that line
            got = _outcome(lambda: load_trace(str(csv_path), 25.0))
            assert got[:2] == ("raised", ParseError) and got[3] == reader
        else:  # the bulk path or the line parser after it reads it, to the same arrays
            with mock.patch.object(traceio, "_parse_lines", wraps=traceio._parse_lines) as parse_lines:
                got = _outcome(lambda: load_trace(str(csv_path), 25.0))
            assert parse_lines.called == (reader == "lines")
            series = load_trace(str(csv_path), 25.0)
            assert series.t.tolist() == [0.0, 0.04]
            assert series.xyz.tolist() == [[0.5, -1.0, 9.8], [1e-3, 2.0, 9.7]]
        assert got == expected

    @given(_csv_text(width=1))
    @settings(max_examples=300, deadline=None)
    def test_annotations(self, csv_path, text):
        csv_path.write_bytes(text.encode("utf-8"))
        got = _outcome(lambda: load_annotations(str(csv_path)))
        with _line_parser_only():
            expected = _outcome(lambda: load_annotations(str(csv_path)))
        assert got == expected


# ---------------------------------------------------------------------------
# Line numbers: a bad row is reported at the physical line it starts on

_END = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _field(draw, token: str) -> str:
    """``token`` as it stands, or quoted with a line end before or after it."""
    if draw(st.booleans()):
        return token
    end = draw(_END)
    return f'"{end}{token}"' if draw(st.booleans()) else f'"{token}{end}"'


@st.composite
def _one_bad_row(draw):
    """``(header, text before the bad row, the bad row and what follows)``:
    good rows and blank lines, their fields quoted around line ends, then
    one bad row."""
    header = draw(st.sampled_from([traceio.TRACE_HEADER, traceio.ANNOTATION_HEADER]))
    lines = [",".join(draw(_field(h)) for h in header)]
    n_good = draw(st.integers(0, 4))
    for i in range(n_good):
        lines += [draw(st.sampled_from(["", " ", "\t"])) for _ in range(draw(st.integers(0, 2)))]
        values = ["0.5", "-1", "9.8"] if len(header) == 4 else ["note"][: draw(st.integers(0, 1))]
        lines.append(",".join(draw(_field(v)) for v in [str(40 * i)] + values))
    lines += [draw(st.sampled_from(["", " "])) for _ in range(draw(st.integers(0, 2)))]
    prefix = "".join(line + draw(_END) for line in lines)
    kinds = ["bad"] + ["back"] * (n_good > 0) + ["nan", "short"] * (len(header) == 4)
    kind = draw(st.sampled_from(kinds))
    if kind in ("bad", "back"):  # a timestamp that is not an integer, or that repeats the last row's
        fields = ["bad" if kind == "bad" else str(40 * n_good - 40)] + ["0", "0", "9.8"][: len(header) - 1]
    else:
        fields = [str(40 * n_good)] + (["nan", "0", "9.8"] if kind == "nan" else ["0", "9.8"])
    row = ",".join(draw(_field(f)) for f in fields)
    return header, prefix, row + draw(st.sampled_from(["", "\n", "\r\n", "\r", "\n40000,0,0,9.8\n"]))


@given(_one_bad_row())
@example((traceio.TRACE_HEADER, '"t_ms\n",ax,ay,az\n0,0,0,9.8\n', "bad,0,0,9.8\n"))  # bad is on line 4
@example((traceio.TRACE_HEADER, "t_ms,ax,ay,az\r\n0,0,0,9.8\r\n\r\n", "bad,0,0,9.8\r\n"))
@example((traceio.TRACE_HEADER, "t_ms,ax,ay,az\r0,0,0,9.8\r", "bad,0,0,9.8\r"))
@settings(max_examples=300, deadline=None)
def test_parse_error_names_the_physical_line_its_row_starts_on(csv_path, case):
    header, prefix, bad = case
    csv_path.write_bytes((prefix + bad).encode("utf-8"))
    line = len(re.findall(r"\r\n|\r|\n", prefix)) + 1  # the oracle: line ends before the row, plus one
    with pytest.raises(ParseError) as err:
        if header == traceio.TRACE_HEADER:
            load_trace(str(csv_path), 25.0)
        else:
            load_annotations(str(csv_path))
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ") and str(err.value).endswith(f" (in {csv_path})")


# ---------------------------------------------------------------------------
# Arbitrary bytes: every input loads or is a line-numbered ParseError

_byte_piece = st.sampled_from(
    [b"0", b"7", b"40", b"-", b".", b"e", b"+", b",", b" ", b"\n", b"\r", b"\r\n", b'"', b"\x00",
     b"\xff", b"\xc3\xa9", b"\xe2\x82", b"nan", b"9" * 400, b"1" * 20]
) | st.binary(max_size=3)


@given(
    st.sampled_from([b"", b"t_ms,ax,ay,az\n", b"t_ms\n", b"t_ms,ax,ay,az\n0,0,0,9.8\n"]),
    st.lists(_byte_piece, max_size=40).map(b"".join),
)
@settings(max_examples=400, deadline=None)
def test_arbitrary_bytes_load_or_raise_parse_error_with_line(csv_path, head, body):
    csv_path.write_bytes(head + body)
    for header, extra_fields in ((traceio.TRACE_HEADER, False), (traceio.ANNOTATION_HEADER, True)):
        try:
            t, values = traceio._read_csv(str(csv_path), header, extra_fields)
        except ParseError as e:
            assert isinstance(e.line, int) and e.line >= 1
        else:
            assert values.shape == (len(t), len(header) - 1)


# ---------------------------------------------------------------------------
# Ground-truth CSV


def _ground_truth(missed_detection: bool):
    provenance = ema.Provenance("son-3", ("mother-2", "father-1"))
    return ema.GroundTruthRecord("son", (3600.0, 7200.5), ema.Fact.WAS_EATING, provenance, missed_detection)


def test_ground_truth_csv_tells_a_missed_detection_from_a_confirmed_one():
    buf = io.StringIO()
    traceio.write_ground_truth_csv([_ground_truth(True), _ground_truth(False)], buf)
    header, missed, confirmed = csv.reader(io.StringIO(buf.getvalue()))
    assert header == ["subject_id", "start_ms", "end_ms", "fact", "provenance", "sources", "missed_detection"]
    assert missed == ["son", "3600000", "7200500", "was_eating", "collaborative+first_person",
                      "son-3;mother-2;father-1", "True"]
    assert confirmed == missed[:-1] + ["False"]



JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


@given(st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=6))
@settings(max_examples=200, deadline=None)
def test_jsonl_record_bytes_equal_json_dumps(record):
    assert traceio.dump_jsonl_record(record) == json.dumps(record, separators=(",", ":"))


def test_jsonl_record_is_compact():
    record = {"kind": "gesture", "t_ms": 1500, "participant": "mom", "prob": 0.731059}
    assert traceio.dump_jsonl_record(record) == '{"kind":"gesture","t_ms":1500,"participant":"mom","prob":0.731059}'

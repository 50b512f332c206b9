"""Trace and annotation files, JSONL logs, and the ground-truth CSV.

Trace CSV: header ``t_ms,ax,ay,az``; integer milliseconds, decimal
accelerations in m/s^2. Annotation CSV: header ``t_ms``, one mouth-contact
instant per row (fields after the first are ignored). Timestamps must be
strictly increasing in both and samples finite; errors carry 1-based line
numbers.

Both readers parse the body in bulk first: one ``np.loadtxt`` call, then
vectorised monotonicity and finiteness checks. The bulk path only vouches
for plain numeric text under a one-line header. Whenever it raises, warns
(an empty body), meets a header that is not one line, a character outside
``_BULK_CHARS`` or a field the csv module would refuse, or fails a check,
the line parser reads the file again. The line parser is the reference:
it returns the same arrays the bulk path would, accepts what Python's
``csv``, ``int`` and ``float`` accept (quoted fields, ``1_0``,
whitespace-only lines), and raises the line-numbered error.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import os
import warnings

import numpy as np

from .errors import ConfigError, NonMonotonicTimestamp, ParseError
from .signal_core import AccelSeries

RATE_TOLERANCE = 0.25  # declared rate may differ from median spacing by 25%

TRACE_HEADER = ("t_ms", "ax", "ay", "az")
ANNOTATION_HEADER = ("t_ms",)

# Digits, signs, decimal points, exponents, the delimiter, blanks and line
# ends. On text made of these, np.loadtxt and Python's int()/float() agree
# value for value; numpy also takes some characters Python rejects (the
# ASCII separators \x1c-\x1f, a few non-ASCII letters), so any other
# character sends the file to the line parser.
_BULK_CHARS = b"0123456789+-.eE, \t\r\n"


def load_trace(path: str, rate: float) -> AccelSeries:
    """Read a trace CSV and validate the declared sampling rate."""
    t, xyz = _read_csv(path, TRACE_HEADER)
    series = AccelSeries(rate, t, xyz)
    if len(series) >= 2:
        median_dt = float(np.median(np.diff(series.t)))
        if abs(median_dt - 1.0 / rate) > RATE_TOLERANCE / rate:
            raise ConfigError(
                f"declared rate {rate} Hz does not match median spacing {median_dt:.4f} s"
            )
    return series


def load_annotations(path: str) -> list[float]:
    """Read annotation instants in seconds; an empty file is a valid non-eating trace."""
    t, _ = _read_csv(path, ANNOTATION_HEADER, extra_fields=True)
    return t.tolist()


def _read_csv(path: str, header: tuple[str, ...], extra_fields: bool = False):
    """Timestamps in seconds and the ``(n, len(header) - 1)`` value matrix.

    ``header`` names the columns: integer milliseconds first, floats after.
    ``extra_fields`` lets rows carry fields past the header's.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parsed = _read_bulk(path, header)
    except Exception:  # any failure: the line parser, the reference, decides
        parsed = None
    return parsed if parsed is not None else _parse_lines(path, header, extra_fields)


def _header_ok(row, header) -> bool:
    return row is not None and tuple(h.strip() for h in row) == header


def _read_bulk(path: str, header: tuple[str, ...]):
    """The bulk parse, or None where it cannot vouch for the result."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # The header is the first line, through its \n. A non-ASCII byte or (strict
    # csv) a quote left open there raises, so a header row that spans lines goes
    # to the line parser, as does a file without a \n. A \r in a quoted header
    # field ends numpy's first line there, and its next line fails to parse.
    start = raw.find(b"\n") + 1
    row = next(csv.reader([raw[:start].decode("ascii")], strict=True)) if start else None
    if not _header_ok(row, header):
        return None
    # The checks read the whole file rather than a copy of its body: only the
    # header's characters may fall outside _BULK_CHARS, and a long header
    # field just sends the file to the line parser.
    header_rest = raw[:start].translate(None, _BULK_CHARS)
    if raw.translate(None, _BULK_CHARS) != header_rest or not _fields_within_csv_limit(raw):
        return None
    del raw  # free the file's bytes before numpy reads it
    dtype = np.dtype([("t_ms", np.int64), ("v", np.float64, (len(header) - 1,))])
    # An absolute path: np.loadtxt opens a "scheme://..." name as a URL.
    rows = np.loadtxt(
        os.path.abspath(path), dtype=dtype, delimiter=",", comments=None, skiprows=1, ndmin=1
    )
    t = rows["t_ms"] / 1000.0
    values = np.ascontiguousarray(rows["v"])
    if not (np.all(t[1:] > t[:-1]) and np.all(np.isfinite(values))):
        return None
    return t, values


def _fields_within_csv_limit(raw: bytes) -> bool:
    """Whether no field of ``raw`` can pass the csv module's field size
    limit, which makes the line parser raise. Holds when every aligned
    block of half the limit contains a separator: a longer run between
    separators would cover a whole block."""
    step = max(1, csv.field_size_limit() // 2)
    return all(
        any(raw.find(sep, i, i + step) >= 0 for sep in (b",", b"\n", b"\r"))
        for i in range(0, len(raw) - step + 1, step)
    )


def _open_csv(path: str):
    # Bytes that are not UTF-8 decode to lone surrogates instead of raising
    # mid-file; _numbered_rows reports them with their line.
    return open(path, newline="", encoding="utf-8", errors="surrogateescape")


def _numbered_rows(fh):
    """``(line, row)`` for each csv row of ``fh``, numbered from 1. A row
    the csv module refuses (a field past ``csv.field_size_limit()``) or
    one holding bytes that are not UTF-8 is a ParseError at its line."""
    reader = csv.reader(fh)
    for lineno in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as e:
            raise ParseError(str(e), line=lineno) from e
        if not all(map(str.isascii, row)):
            try:
                "".join(row).encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError("bytes that are not valid UTF-8", line=lineno) from None
        yield lineno, row


def _parse_lines(path: str, header: tuple[str, ...], extra_fields: bool = False):
    """The reference reader, one row at a time: same result as the bulk
    path where that succeeds, and the line-numbered error otherwise."""
    width = len(header)
    t: list[float] = []
    values: list[list[float]] = []
    with _open_csv(path) as fh:
        rows = _numbered_rows(fh)
        _, row = next(rows, (1, None))
        if not _header_ok(row, header):
            raise ParseError(f"expected header {','.join(header)}, got {row}", line=1)
        for lineno, row in rows:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < width or (len(row) > width and not extra_fields):
                raise ParseError(f"expected {width} fields, got {len(row)}", line=lineno)
            try:
                t_ms = int(row[0])
                ts = t_ms / 1000.0
                v = [float(x) for x in row[1:width]]
            except (ValueError, OverflowError) as e:
                raise ParseError(str(e), line=lineno) from e
            if not all(map(math.isfinite, v)):
                raise ParseError("samples must be finite", line=lineno)
            if t and ts <= t[-1]:
                raise NonMonotonicTimestamp(
                    f"t_ms {t_ms} does not increase past {ms(t[-1])}", line=lineno
                )
            t.append(ts)
            values.append(v)
    matrix = np.asarray(values, dtype=np.float64).reshape(len(t), width - 1)
    return np.asarray(t, dtype=np.float64), matrix


def ms(t: float) -> int:
    """Seconds as the integer milliseconds of every ``*_ms`` field."""
    return round(t * 1000)


_JSONL = json.JSONEncoder(separators=(",", ":"))  # json.dumps would build one per record


def dump_jsonl_record(record: dict) -> str:
    return _JSONL.encode(record)


def write_jsonl(records, fh):
    for record in records:
        fh.write(dump_jsonl_record(record) + "\n")


def eating_event_record(event) -> dict:
    """The ``eating_event`` JSONL record of an ``events.EatingEvent``."""
    return {
        "kind": "eating_event",
        "participant": event.participant_id,
        "start_ms": ms(event.start),
        "end_ms": ms(event.end),
        "gestures": [ms(g) for g in event.gesture_times],
    }


def ground_truth_fields(r) -> dict:
    """The fields of an ``ema.GroundTruthRecord``, in order: the
    ``ground_truth`` JSONL record's after its kind and time, and the
    ground-truth CSV's columns."""
    return {
        "subject": r.subject_id,
        "start_ms": ms(r.window[0]),
        "end_ms": ms(r.window[1]),
        "fact": r.fact.value,
        "provenance": r.provenance.kind,
        "sources": list(r.provenance.sources),
        "missed_detection": r.missed_detection,
    }


# the keys of ground_truth_fields, the subject's column named subject_id
GROUND_TRUTH_HEADER = ["subject_id", "start_ms", "end_ms", "fact", "provenance", "sources", "missed_detection"]


def write_ground_truth_csv(records, fh):
    """Ground-truth records as CSV rows: one record per line, sources ;-joined."""
    writer = csv.writer(fh)
    writer.writerow(GROUND_TRUTH_HEADER)
    for r in records:
        row = ground_truth_fields(r)
        row["sources"] = ";".join(row["sources"])
        writer.writerow(row.values())

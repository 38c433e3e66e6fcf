"""CSV persistence for records, filter paths, ensembles and references.

Every file starts with a metadata block of ``# key: value`` lines (format
tag, package version, generator name, seed, config hash, scheme data)
sufficient to reproduce the run, followed by a CSV header row and data.
Floats are serialized as ``'%.17g' % x`` writes them, 17 significant
digits, so read(write(x)) is bit-exact for binary64.  The tables' values are
formatted by one vectorized writer (`_csv_rows`) with the bytes of '%.17g':
exact digits from double-double products, and '%.17g' itself for the few
values they cannot settle (near-ties, values below 1e-29 or from 1e16, inf
and nan).  No timestamps: identical runs produce identical bytes.  Every
table is written under a temporary name beside its target and lands by
os.replace only when it is whole (`_landing`): a write that fails leaves no
file, and a file already at the target keeps its bytes.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
from collections import deque
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from . import __version__, trajectories
from .errors import RecordFormatError
from .filters import COUNTING, MeasurementScheme
from .trajectories import GENERATOR_NAME, ObservationRecord, _require_seed

RECORD_FORMAT = "belfilt-record-v1"
PATH_FORMAT = "belfilt-path-v1"
ENSEMBLE_FORMAT = "belfilt-ensemble-v1"
MASTER_FORMAT = "belfilt-master-v1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# `_csv_rows` writes each value into a field of 13 four-byte words and keeps
# the columns its layout needs.  Columns of a field:
#
#   1      '-'
#   2      '0'          the integer part of 0.ddd, and a zero
#   3-19   d0 .. d16    the integer digits (d0 alone in exponent notation)
#   20     '.'
#   24-26  '000'        zeros after the point of 10^-4 <= |x| < 10^-1
#   27-43  d0 .. d16    the digits after the point
#   44-47  'e-XX'
#   48     ',' or '\n'
#
# The words come from one table (`_word_table`): 4-digit chunks '0000' to
# '9999', the first word '0-0d' of a leading digit d, '.000', 'e-XX' by
# exponent code and the two separators.  A field keeps the columns of the
# row of `_mask_table` at its key (code, kept digits, sign), code being
# E + 29 for the decimal exponent E of a value formatted here, _ZERO for a
# zero and _FALLBACK for one formatted by '%.17g' itself, whose text fills
# the field from column 0.
_WORDS = 13
_FIELD = 4 * _WORDS
_E_BIAS, _ZERO, _FALLBACK = 29, 45, 46
_KEPT = 26  # kept-digit slots of the mask table: 17 digits, or a fallback's up to 24 characters
_FIRST, _POINT, _SUFFIX = 10000, 10010, 10011
_SEPARATOR = _SUFFIX + _FALLBACK + 1


@functools.cache
def _powers_of_ten():
    """10^j, j = 16 - E, by exponent code E + 29: the exact double-double
    hi + lo, and the Veltkamp halves of hi."""
    powers = [10**j for j in range(45, -1, -1)]
    hi = np.array([float(v) for v in powers])
    lo = np.array([float(v - int(h)) for v, h in zip(powers, hi.tolist())])
    if any(int(h) + int(low) != v for v, h, low in zip(powers, hi.tolist(), lo.tolist())):
        raise RuntimeError("10**j is not an exact double-double")
    split = hi * 134217729.0  # 2^27 + 1
    head = split - (split - hi)
    return hi, lo, head, hi - head


@functools.cache
def _word_table():
    """The words of the fields (see `_WORDS`), and the trailing zeros of
    each 4-digit chunk."""
    chunk = np.arange(10000)
    digits = np.stack([chunk // 1000, chunk // 100 % 10, chunk // 10 % 10, chunk % 10], axis=1) + 48
    first = digits[:10].copy()
    first[:, 1] = 45
    exponent = np.abs(np.arange(_FALLBACK + 1) - _E_BIAS)
    suffix = np.stack([np.full_like(exponent, 101), np.full_like(exponent, 45),
                       exponent // 10 % 10 + 48, exponent % 10 + 48], axis=1)
    words = np.concatenate([digits, first, [[46, 48, 48, 48]], suffix, [[44, 0, 0, 0], [10, 0, 0, 0]]])
    words = np.ascontiguousarray(words, dtype=np.uint8).view(np.uint32).ravel()
    zeros = (chunk % 10 == 0).astype(np.intp) + (chunk % 100 == 0) + (chunk % 1000 == 0)
    return words, zeros


@functools.cache
def _mask_table():
    """The columns each field keeps, a row by key (code, kept digits, sign)."""
    code = np.arange(_FALLBACK + 1)[:, None, None, None]
    kept = np.arange(_KEPT)[None, :, None, None]
    negative = np.arange(2)[None, None, :, None] == 1
    k = np.arange(_FIELD)
    e = code - _E_BIAS
    fixed = (e <= 15) & (e >= 0)
    scientific = e < -4
    small = ~fixed & ~scientific & (code < _ZERO)  # 10^-4 <= |x| < 1
    point = np.where(fixed, e + 1, 1)  # digits before the point
    keep = np.zeros((_FALLBACK + 1, _KEPT, 2, _FIELD), bool)
    keep |= (k == 48) | ((k == 1) & negative & (code != _FALLBACK))
    keep |= (fixed | scientific) & (((k >= 3) & (k < 3 + point)) | ((k == 20) & (kept > point))
                                    | ((k >= 27 + point) & (k < 27 + kept)))
    keep |= scientific & (k >= 44) & (k < 48)
    keep |= small & ((k == 2) | (k == 20) | ((k >= 28 + e) & (k < 27 + kept)))
    keep |= (code == _ZERO) & (k == 2)
    keep |= (code == _FALLBACK) & (k < kept)
    return keep.reshape(-1, _FIELD)


def _decimal(x: np.ndarray):
    """The exponent code and the 17 digits of each value of the float array
    `x`, as `'%.17g' % x` has them.

    A finite x with 1e-29 <= |x| < 1e16 has the decimal exponent
    E = floor(log10 |x|) in [-29, 15], code E + 29, and its digits are the
    integer D nearest y = |x| 10^j, j = 16 - E.  10^j is the exact
    double-double H + L, so y = p + e: p = fl(|x| H), and e is that
    product's error, exact by Dekker's product of Veltkamp halves, plus
    fl(|x| L).  The computed e is off by less than 1e-14, so D is exact when
    the fraction of e lies more than 2^-30 from 1/2.  A zero has code _ZERO.
    Every other value has code _FALLBACK, for '%.17g' to format: a near-tie
    (exact ties included), a D outside [10^16, 10^17) or an E that log10
    rounded up, a value out of range, inf and nan.  D is 10^16 where the
    code is not an exponent's.
    """
    hi, lo, hi_head, hi_tail = _powers_of_ten()
    a = np.abs(x)
    fast = (a >= 1e-29) & (a < 1e16)
    u = np.where(fast, a, 1.0)
    code = np.log10(u)
    np.floor(code, out=code)
    code = code.astype(np.intp)
    code += _E_BIAS
    # y = p + e, from Dekker's product of u and H
    p = u * hi.take(code)
    head = u * 134217729.0
    head -= head - u
    tail = u - head
    e = head * hi_head.take(code)
    e -= p
    e += head * hi_tail.take(code)
    e += tail * hi_head.take(code)
    tail *= hi_tail.take(code)
    e += tail
    u *= lo.take(code)
    e += u
    whole = np.floor(e)
    e -= whole
    digits = p.astype(np.int64)
    digits += whole.astype(np.int64)
    digits += e > 0.5
    # at D = 10^16, E is too large when y < 10^16
    edge = np.flatnonzero(digits == 10**16)
    low = (p[edge] - 1e16) + (whole[edge] + e[edge]) < 0
    e -= 0.5
    ok = np.abs(e, out=e) > 2.0**-30
    ok &= fast
    ok &= digits >= 10**16
    ok &= digits < 10**17
    ok[edge[low]] = False
    other = ~ok
    code[other] = np.where(a[other] == 0, _ZERO, _FALLBACK)
    digits[other] = 10**16
    return code, digits


def _piece_values() -> int:
    """Values formatted at a time (`_csv_rows`): the block budget
    `trajectories.ENSEMBLE_BLOCK_BYTES` over 1 KiB, 2048 at the default
    budget, so that a piece's temporaries, about 180 bytes a value, stay
    under a fifth of it."""
    return max(1, trajectories.ENSEMBLE_BLOCK_BYTES // 1024)


def _csv_rows(table: np.ndarray) -> str:
    """The rows of the float table `table`, ``'%.17g' % x`` for each value
    x, ',' between values and '\\n' after each row: each value's field
    (`_fields`) cut to the columns its layout keeps."""
    if not table.size:
        return ""
    fields, key = _fields(table.ravel(), table.shape[1])
    return fields.ravel()[_mask_table().take(key, axis=0).ravel()].tobytes().decode("ascii")


def _fields(x: np.ndarray, columns: int):
    """The fields (see `_WORDS`) of the values `x` of a table of `columns`
    columns, and the key of each field's row in the mask table: the digits
    of `_decimal`, or the text of '%.17g' for a value it leaves to it."""
    n = x.size
    words, zeros = _word_table()
    code, digits = _decimal(x)
    # D as the chunks d0 | d1-d4 | d5-d8 | d9-d12 | d13-d16
    upper = digits // 10**8
    lower = digits - upper * 10**8
    lead = upper // 10**8
    upper -= lead * 10**8
    c1 = upper // 10**4
    c3 = lower // 10**4
    chunks = (lead, c1, upper - c1 * 10**4, c3, lower - c3 * 10**4)
    # kept digits: up to the last nonzero one, in the last nonzero chunk
    nonzero = [chunk != 0 for chunk in chunks[1:]]
    last = np.where(nonzero[3], 4, np.where(nonzero[2], 3, np.where(nonzero[1], 2, nonzero[0])))
    final = lead
    for chunk, used in zip(chunks[1:], nonzero):
        final = np.where(used, chunk, final)
    kept = 1 + 4 * last - zeros.take(final)
    key = code * _KEPT
    key += kept
    key *= 2
    key += np.signbit(x)
    # the words of the fields, a column at a time
    fields = np.empty((n, _WORDS), np.uint32)
    fields[:, 0] = words.take(lead + _FIRST)
    fields[:, 6] = words.take(lead)
    for column, chunk in enumerate(chunks[1:], 1):
        fields[:, column] = fields[:, 6 + column] = words.take(chunk)
    fields[:, 5] = words[_POINT]
    fields[:, 11] = words.take(code + _SUFFIX)
    separators = np.full(columns, words[_SEPARATOR])
    separators[-1] = words[_SEPARATOR + 1]
    fields[:, 12].reshape(-1, columns)[:] = separators
    fields = fields.view(np.uint8)
    for i in np.flatnonzero(code == _FALLBACK).tolist():
        text = ("%.17g" % x[i]).encode()
        fields[i, : len(text)] = np.frombuffer(text, np.uint8)
        key[i] = (_FALLBACK * _KEPT + len(text)) * 2
    return fields, key


def _metadata_lines(fmt: str, extra: dict) -> list:
    meta = {"format": fmt, "version": __version__, "generator": GENERATOR_NAME}
    meta.update(extra)
    return [f"# {key}: {value}" for key, value in meta.items()]


def _parse_metadata(lines):
    """Consume leading '# key: value' lines and the header row after them;
    return (meta, header_index, header)."""
    meta = {}
    for idx, line in enumerate(lines):
        stripped = line.strip()
        if not stripped.startswith("#"):
            return meta, idx, line
        body = stripped.lstrip("#").strip()
        if ":" not in body:
            raise RecordFormatError("malformed metadata line (expected 'key: value')", line=idx + 1)
        key, _, value = body.partition(":")
        meta[key.strip()] = value.strip()
    raise RecordFormatError("file contains no CSV header row")


def _piece_rows(columns: int) -> int:
    """Rows of a table parsed or written at a time: as many as let their
    text and the Python objects made of it, about 128 bytes a value, fit the
    block budget `trajectories.ENSEMBLE_BLOCK_BYTES`."""
    return max(1, trajectories.ENSEMBLE_BLOCK_BYTES // (128 * columns))


def _pieces(fh, size: int):
    """The lines of an open text file, as str.splitlines splits its whole
    text, in lists: one a read of `size` characters, its last line held over
    when the read ends inside it, before a character str.splitlines ends a
    line at (a CR LF pair reads as one LF in text mode)."""
    tail = ""
    while text := fh.read(size):
        lines = (tail + text).splitlines()
        tail = "" if text[-1] in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029" else lines.pop()
        yield lines
    if tail:
        yield [tail]


def _lines(fh):
    """The lines of an open text file, as str.splitlines splits its whole
    text, read a bounded piece at a time (`_pieces`): as many characters as
    the block budget `trajectories.ENSEMBLE_BLOCK_BYTES` has bytes over 8, a
    record's lines and the strings made of them taking several times their
    text."""
    return chain.from_iterable(_pieces(fh, max(1, trajectories.ENSEMBLE_BLOCK_BYTES // 8)))


class _Table:
    """A CSV table written a chunk of rows at a time to the open file `fh`:
    the metadata lines and the header row `columns` when made, then one row
    per entry of the columns in `data` at each `write(data)`, every value
    with 17 significant digits.

    A chunk is formatted `_piece_values()` values at a time by `_csv_rows`,
    whose text is `'%.17g' % x` of each value, so the bytes do not depend
    on where the table is cut into chunks or pieces.
    """

    def __init__(self, fh, meta_lines, columns):
        fh.write("\n".join(meta_lines + [",".join(columns)]) + "\n")
        self.text = fh.write

    def write(self, data) -> None:
        table = np.column_stack([np.asarray(column, dtype=float) for column in data])
        rows = max(1, _piece_values() // table.shape[1])
        for lo in range(0, len(table), rows):
            self.text(_csv_rows(table[lo : lo + rows]))


@contextlib.contextmanager
def _landing(path):
    """The open file of a table that lands at `path` only when the block
    ends without an error: UTF-8 text with '\\n' line ends, written under a
    temporary name in the same directory and moved to `path` by os.replace,
    or removed."""
    target = Path(path)
    part = target.with_name(f".{target.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(part, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(part, target)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def write_record(record: ObservationRecord, path, config_hash: str = "-") -> None:
    """Write the record's rows t, dY a piece at a time (`_piece_rows`)."""
    scheme = record.scheme
    lines = _metadata_lines(
        RECORD_FORMAT,
        {
            "config_hash": config_hash,
            "seed": record.seed,
            "scheme": scheme.kind,
            "kappa": _fmt(scheme.kappa),
            "phase": _fmt(scheme.phase),
            "dt": _fmt(record.dt),
            "steps": record.steps,
        },
    )
    rows = _piece_rows(2)
    with _landing(path) as fh:
        table = _Table(fh, lines, ["t", "dY"])
        for lo in range(0, record.steps, rows):
            hi = min(lo + rows, record.steps)
            # the entries lo .. hi-1 of record.times(), k dt for k = lo+1 .. hi
            table.write([record.dt * np.arange(lo + 1, hi + 1), record.increments[lo:hi]])


def _first_refused(fields):
    """Index of the first field float() refuses, and its error."""
    for idx, field in enumerate(fields):
        try:
            float(field)
        except ValueError as exc:
            return idx, exc


def _read_rows(body, first: int, line: int, dt: float, counting: bool, out: np.ndarray) -> int:
    """Parse a piece `body` of a record's data lines, blank ones among them,
    into out[first:], `first` being the data rows before it and `line` the
    file line number of its first line; return its count of data rows.  Its
    first faulty row raises RecordFormatError naming that row's line: a
    wrong column count, a field float() refuses, a non-finite increment, a
    time off the step grid or a counting increment other than 0 and 1,
    checked in that order."""
    rows = list(filter(str.strip, body))
    count = len(rows)

    def line_of(k):
        """The file line number of the piece's data row k (blank lines counted)."""
        return line + [i for i, text in enumerate(body) if text.strip()][k]

    # Every row before `stop` holds two fields that float() accepts. Row
    # `stop`, if there is one, has the wrong number of columns or, when
    # `refused` is set, a field that float() refuses.
    commas = np.fromiter(map(str.count, rows, repeat(",")), dtype=np.intp, count=count)
    wrong = np.flatnonzero(commas != 1)
    stop = int(wrong[0]) if wrong.size else count
    refused = None
    fields = ",".join(rows[:stop]).split(",") if stop else []
    try:
        values = np.fromiter(map(float, fields), dtype=float, count=len(fields))
    except ValueError:
        idx, refused = _first_refused(fields)
        stop = idx // 2
        values = np.fromiter(map(float, fields[: 2 * stop]), dtype=float, count=2 * stop)
    t, dy = values.reshape(stop, 2).T
    off_grid = ~(np.abs(t - dt * np.arange(first + 1, first + stop + 1)) <= 1e-6 * dt)
    bad = ~np.isfinite(dy) | off_grid
    if counting:
        bad |= (dy != 0.0) & (dy != 1.0)
    if bad.any():
        k = int(np.argmax(bad))
        if not math.isfinite(dy[k]):
            raise RecordFormatError("non-finite increment", line=line_of(k))
        if off_grid[k]:
            raise RecordFormatError(
                f"time column {float(t[k])} does not match step grid value {(first + k + 1) * dt}", line=line_of(k)
            )
        raise RecordFormatError(f"counting increment {float(dy[k])} is not 0 or 1", line=line_of(k))
    if refused is not None:
        raise RecordFormatError(f"non-numeric value: {refused}", line=line_of(stop)) from refused
    if stop < count:
        raise RecordFormatError("expected two columns t,dY", line=line_of(stop))
    out[first : first + count] = dy
    return count


def read_record(path) -> ObservationRecord:
    """Read a record file in two passes, each reading bounded pieces
    (`_lines`): the metadata, the header and the count of data rows,
    checked against the declared steps before any value is parsed; then the
    rows, parsed `_piece_rows(2)` lines at a time (`_read_rows`), so that an
    error names the line of the first faulty row, as a parse of the whole
    file does."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = _lines(fh)
        meta, header_idx, header = _parse_metadata(lines)
        if meta.get("format") != RECORD_FORMAT:
            raise RecordFormatError(f"not a record file (format {meta.get('format')!r})")
        if header.strip() != "t,dY":
            raise RecordFormatError("expected header 't,dY'", line=header_idx + 1)
        required = ("scheme", "dt", "steps", "seed", "kappa", "phase")
        for key in required:
            if key not in meta:
                raise RecordFormatError(f"missing metadata key {key!r}")
        try:
            dt = float(meta["dt"])
            steps = int(meta["steps"])
            seed = _require_seed(int(meta["seed"]))
            kappa = float(meta["kappa"])
            phase = float(meta["phase"])
        except ValueError as exc:
            raise RecordFormatError(f"malformed metadata value: {exc}") from exc
        scheme = MeasurementScheme(meta["scheme"], kappa, phase)
        found = sum(map(bool, map(str.strip, lines)))
    if found != steps:
        raise RecordFormatError(f"declared steps = {steps} but found {found} data rows")
    dy = np.empty(steps)
    rows = _piece_rows(2)
    with open(path, "r", encoding="utf-8") as fh:
        lines = _lines(fh)
        deque(islice(lines, header_idx + 1), maxlen=0)  # the metadata and the header
        first, line = 0, header_idx + 2
        while body := list(islice(lines, rows)):
            first += _read_rows(body, first, line, dt, scheme.kind == COUNTING, dy)
            line += len(body)
    return ObservationRecord(scheme, dt, dy, seed=seed)


def read_metadata(path) -> dict:
    """The leading metadata block; reading stops at the header row."""
    with open(path, "r", encoding="utf-8") as fh:
        meta, _, _ = _parse_metadata(_lines(fh))
    return meta


class _ExpectationTable(_Table):
    """A table of expectation rows on the open file `fh`, under the metadata
    of format `fmt` and `extra_meta`: t, re_<name> and im_<name> for each
    name in `names`, and the likelihood when asked; `rows` writes a chunk of
    them.  write_path_csv and write_master_csv write one chunk."""

    def __init__(self, fh, fmt: str, names, extra_meta=None, likelihood: bool = False):
        columns = ["t"] + [f"{part}_{name}" for name in names for part in ("re", "im")]
        if likelihood:
            columns.append("likelihood")
        super().__init__(fh, _metadata_lines(fmt, dict(extra_meta or {})), columns)

    def rows(self, times, series, likelihoods=None) -> None:
        """Rows at `times` of each expectation series in `series`, in the
        order of the names, and the likelihoods if given."""
        data = [times]
        for values in series:
            data += [np.real(values), np.imag(values)]
        if likelihoods is not None:
            data.append(likelihoods)
        self.write(data)


def write_path_csv(path, times, expectations: dict, likelihoods=None, extra_meta=None) -> None:
    """Filter path: t, Re/Im of each named expectation, likelihood if given."""
    with _landing(path) as fh:
        table = _ExpectationTable(fh, PATH_FORMAT, expectations, extra_meta, likelihoods is not None)
        table.rows(times, expectations.values(), likelihoods)


def write_ensemble_csv(path, summary, extra_meta=None) -> None:
    columns, data = ["t"], [summary.times]
    for name, means in summary.means.items():
        columns += [f"mean_re_{name}", f"mean_im_{name}", f"stderr_re_{name}", f"stderr_im_{name}"]
        data += [np.real(means), np.imag(means), summary.stderrs_re[name], summary.stderrs_im[name]]
    meta = {"n_trajectories": summary.n_trajectories}
    meta.update(extra_meta or {})
    with _landing(path) as fh:
        _Table(fh, _metadata_lines(ENSEMBLE_FORMAT, meta), columns).write(data)


def write_master_csv(path, times, expectations: dict, extra_meta=None) -> None:
    with _landing(path) as fh:
        _ExpectationTable(fh, MASTER_FORMAT, expectations, extra_meta).rows(times, expectations.values())

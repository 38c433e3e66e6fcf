"""CSV persistence for records, filter paths, ensembles and references.

Every file starts with a metadata block of ``# key: value`` lines (format
tag, package version, generator name, seed, config hash, scheme data)
sufficient to reproduce the run, followed by a CSV header row and data.
Floats are serialized with 17 significant digits, so read(write(x)) is
bit-exact for binary64.  No timestamps: identical runs produce identical
bytes.  Every table is written under a temporary name beside its target and
lands by os.replace only when it is whole (`_landing`): a write that fails
leaves no file, and a file already at the target keeps its bytes.
"""

from __future__ import annotations

import contextlib
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

    A chunk's body is one `%` over a row template repeated once per row:
    `'%.17g' % x` gives the bytes of `_fmt(x)`, so the bytes do not depend
    on where the table is cut into chunks.
    """

    def __init__(self, fh, meta_lines, columns):
        fh.write("\n".join(meta_lines + [",".join(columns)]) + "\n")
        self.text = fh.write
        self.row = ",".join(["%.17g"] * len(columns)) + "\n"

    def write(self, data) -> None:
        table = np.column_stack([np.asarray(column, dtype=float) for column in data])
        self.text((self.row * len(table)) % tuple(table.ravel().tolist()))


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

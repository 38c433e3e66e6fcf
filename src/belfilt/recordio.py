"""CSV persistence for records, filter paths, ensembles and references.

Every file starts with a metadata block of ``# key: value`` lines (format
tag, package version, generator name, seed, config hash, scheme data)
sufficient to reproduce the run, followed by a CSV header row and data.
Floats are serialized with 17 significant digits, so read(write(x)) is
bit-exact for binary64.  No timestamps: identical runs produce identical
bytes.
"""

from __future__ import annotations

import math
from itertools import chain, repeat

import numpy as np

from . import __version__
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
    """Consume leading '# key: value' lines; return (meta, header_index)."""
    meta = {}
    for idx, line in enumerate(lines):
        stripped = line.strip()
        if not stripped.startswith("#"):
            return meta, idx
        body = stripped.lstrip("#").strip()
        if ":" not in body:
            raise RecordFormatError("malformed metadata line (expected 'key: value')", line=idx + 1)
        key, _, value = body.partition(":")
        meta[key.strip()] = value.strip()
    raise RecordFormatError("file contains no CSV header row")


def _write_table(path, meta_lines, columns, data) -> None:
    """Write the metadata lines, the header row `columns` and one row per
    entry of the columns in `data`, every value with 17 significant digits.

    The body is one `%` over a row template repeated once per row:
    `'%.17g' % x` gives the bytes of `_fmt(x)`.
    """
    table = np.column_stack([np.asarray(column, dtype=float) for column in data])
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(meta_lines + [",".join(columns)]) + "\n")
        fh.write((row * len(table)) % tuple(table.ravel().tolist()))


def write_record(record: ObservationRecord, path, config_hash: str = "-") -> None:
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
    _write_table(path, lines, ["t", "dY"], [record.times(), record.increments])


def _first_refused(fields):
    """Index of the first field float() refuses, and its error."""
    for idx, field in enumerate(fields):
        try:
            float(field)
        except ValueError as exc:
            return idx, exc


def read_record(path) -> ObservationRecord:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    meta, header_idx = _parse_metadata(lines)
    if meta.get("format") != RECORD_FORMAT:
        raise RecordFormatError(f"not a record file (format {meta.get('format')!r})")
    if lines[header_idx].strip() != "t,dY":
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
    body = lines[header_idx + 1 :]
    rows = list(filter(str.strip, body))
    if len(rows) != steps:
        raise RecordFormatError(f"declared steps = {steps} but found {len(rows)} data rows")

    def line_of(k):
        """The file line number of data row k (blank lines counted)."""
        return header_idx + 2 + [i for i, line in enumerate(body) if line.strip()][k]

    # Every row before `stop` holds two fields that float() accepts. Row
    # `stop`, if there is one, has the wrong number of columns or, when
    # `refused` is set, a field that float() refuses.
    commas = np.fromiter(map(str.count, rows, repeat(",")), dtype=np.intp, count=steps)
    wrong = np.flatnonzero(commas != 1)
    stop = int(wrong[0]) if wrong.size else steps
    refused = None
    fields = ",".join(rows[:stop]).split(",") if stop else []
    try:
        values = np.fromiter(map(float, fields), dtype=float, count=len(fields))
    except ValueError:
        idx, refused = _first_refused(fields)
        stop = idx // 2
        values = np.fromiter(map(float, fields[: 2 * stop]), dtype=float, count=2 * stop)
    t, dy = values.reshape(stop, 2).T
    off_grid = ~(np.abs(t - dt * np.arange(1, stop + 1)) <= 1e-6 * dt)
    bad = ~np.isfinite(dy) | off_grid
    if scheme.kind == COUNTING:
        bad |= (dy != 0.0) & (dy != 1.0)
    if bad.any():
        k = int(np.argmax(bad))
        if not math.isfinite(dy[k]):
            raise RecordFormatError("non-finite increment", line=line_of(k))
        if off_grid[k]:
            raise RecordFormatError(
                f"time column {float(t[k])} does not match step grid value {(k + 1) * dt}", line=line_of(k)
            )
        raise RecordFormatError(f"counting increment {float(dy[k])} is not 0 or 1", line=line_of(k))
    if refused is not None:
        raise RecordFormatError(f"non-numeric value: {refused}", line=line_of(stop)) from refused
    if stop < steps:
        raise RecordFormatError("expected two columns t,dY", line=line_of(stop))
    return ObservationRecord(scheme, dt, dy, seed=seed)


def read_metadata(path) -> dict:
    """The leading metadata block; reading stops at the header row."""
    with open(path, "r", encoding="utf-8") as fh:
        meta, _ = _parse_metadata(chain.from_iterable(map(str.splitlines, fh)))
    return meta


def _expectation_table(times, expectations: dict) -> tuple:
    """Columns t, re_<name>, im_<name> for each named expectation series."""
    columns, data = ["t"], [times]
    for name, values in expectations.items():
        columns += [f"re_{name}", f"im_{name}"]
        data += [np.real(values), np.imag(values)]
    return columns, data


def write_path_csv(path, times, expectations: dict, likelihoods=None, extra_meta=None) -> None:
    """Filter path: t, Re/Im of each named expectation, likelihood if given."""
    columns, data = _expectation_table(times, expectations)
    if likelihoods is not None:
        columns.append("likelihood")
        data.append(likelihoods)
    _write_table(path, _metadata_lines(PATH_FORMAT, dict(extra_meta or {})), columns, data)


def write_ensemble_csv(path, summary, extra_meta=None) -> None:
    columns, data = ["t"], [summary.times]
    for name, means in summary.means.items():
        columns += [f"mean_re_{name}", f"mean_im_{name}", f"stderr_re_{name}", f"stderr_im_{name}"]
        data += [np.real(means), np.imag(means), summary.stderrs_re[name], summary.stderrs_im[name]]
    meta = {"n_trajectories": summary.n_trajectories}
    meta.update(extra_meta or {})
    _write_table(path, _metadata_lines(ENSEMBLE_FORMAT, meta), columns, data)


def write_master_csv(path, times, expectations: dict, extra_meta=None) -> None:
    columns, data = _expectation_table(times, expectations)
    _write_table(path, _metadata_lines(MASTER_FORMAT, dict(extra_meta or {})), columns, data)

"""CSV tables against the per-row writers and reader they replaced."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from belfilt.errors import RecordFormatError, ValidationError
from belfilt.filters import MeasurementScheme
from belfilt.recordio import (
    read_metadata,
    read_record,
    write_ensemble_csv,
    write_master_csv,
    write_path_csv,
    write_record,
)
from belfilt.trajectories import ObservationRecord

from helpers import (
    reference_read_record,
    reference_write_ensemble_csv,
    reference_write_master_csv,
    reference_write_path_csv,
    reference_write_record,
)

EDGES = [-0.0, 5e-324, 1.7976931348623157e308, np.inf, np.nan]


def assert_same_bytes(tmp_path, write, reference, *args, **kwargs):
    write(tmp_path / "new.csv", *args, **kwargs)
    reference(tmp_path / "old.csv", *args, **kwargs)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def record_writer(write):
    """`write` with the path first, as the table writers take it."""
    return lambda path, record, **kwargs: write(record, path, **kwargs)


def random_series(rng, rows, complex_values=True):
    scale = 10.0 ** rng.integers(-300, 300, size=rows)
    values = rng.normal(size=rows) * scale
    if complex_values:
        values = values + 1j * rng.normal(size=rows) * scale[::-1]
    return values


def edge_series(rows):
    """Every pairing of edge values as real and imaginary parts, cycled."""
    pairs = list(itertools.product(EDGES, repeat=2))
    return np.array([complex(re, im) for re, im in itertools.islice(itertools.cycle(pairs), rows)])


class TestWritersMatchPerRowReference:
    @pytest.mark.parametrize("rows", [0, 1, 7, 1000])
    @pytest.mark.parametrize("with_likelihoods", [False, True])
    def test_path_csv_random(self, tmp_path, rng, rows, with_likelihoods):
        times = 1e-3 * np.arange(rows)
        expectations = {"x": random_series(rng, rows), "z": random_series(rng, rows, complex_values=False)}
        likelihoods = np.exp(rng.normal(size=rows) * 50) if with_likelihoods else None
        assert_same_bytes(tmp_path, write_path_csv, reference_write_path_csv, times, expectations,
                          likelihoods=likelihoods, extra_meta={"seed": 3, "filter": "zakai"})

    @pytest.mark.parametrize("with_likelihoods", [False, True])
    def test_path_csv_edge_values(self, tmp_path, with_likelihoods):
        rows = len(EDGES) ** 2
        times = list(itertools.islice(itertools.cycle(EDGES), rows))
        likelihoods = times[::-1] if with_likelihoods else None
        assert_same_bytes(tmp_path, write_path_csv, reference_write_path_csv, times, {"e": edge_series(rows)},
                          likelihoods=likelihoods)

    def test_path_csv_python_lists(self, tmp_path, rng):
        times = [0.0, 0.5, 1.0]
        expectations = {"a": [complex(v) for v in random_series(rng, 3)], "b": [1 + 2j, -0.0 - 0.0j, 3.5 + 0j]}
        assert_same_bytes(tmp_path, write_path_csv, reference_write_path_csv, times, expectations,
                          likelihoods=[1.0, 0.25, 1e-300])

    @pytest.mark.parametrize("rows", [0, 1, 7, 1000])
    def test_master_csv_random(self, tmp_path, rng, rows):
        times = 1e-3 * np.arange(rows)
        expectations = {"z": random_series(rng, rows), "x": random_series(rng, rows)}
        assert_same_bytes(tmp_path, write_master_csv, reference_write_master_csv, times, expectations,
                          extra_meta={"config_hash": "abc"})

    def test_master_csv_edge_values_and_lists(self, tmp_path):
        rows = len(EDGES) ** 2
        times = list(itertools.islice(itertools.cycle(EDGES), rows))
        assert_same_bytes(tmp_path, write_master_csv, reference_write_master_csv, times,
                          {"e": list(edge_series(rows)), "f": edge_series(rows)[::-1]})

    @pytest.mark.parametrize("rows", [0, 1, 7, 1000])
    def test_ensemble_csv_random(self, tmp_path, rng, rows):
        names = ("x", "z")
        summary = SimpleNamespace(
            times=1e-3 * np.arange(rows),
            means={name: random_series(rng, rows) for name in names},
            stderrs_re={name: np.abs(random_series(rng, rows, complex_values=False)) for name in names},
            stderrs_im={name: np.abs(random_series(rng, rows, complex_values=False)) for name in names},
            n_trajectories=5,
        )
        assert_same_bytes(tmp_path, write_ensemble_csv, reference_write_ensemble_csv, summary,
                          extra_meta={"config_hash": "abc", "seed": 7})

    def test_ensemble_csv_edge_values_and_lists(self, tmp_path):
        rows = len(EDGES) ** 2
        edges = edge_series(rows)
        summary = SimpleNamespace(
            times=list(itertools.islice(itertools.cycle(EDGES), rows)),
            means={"e": list(edges)},
            stderrs_re={"e": list(edges.imag)},
            stderrs_im={"e": edges.real},
            n_trajectories=1,
        )
        assert_same_bytes(tmp_path, write_ensemble_csv, reference_write_ensemble_csv, summary)

    @pytest.mark.parametrize("rows", [0, 1, 7, 1000])
    @pytest.mark.parametrize("scheme", [MeasurementScheme.homodyne(phase=0.25), MeasurementScheme.counting()])
    def test_record_random(self, tmp_path, rng, rows, scheme):
        if scheme.kind == "counting":
            inc = (rng.random(rows) < 0.3).astype(float)
        else:
            inc = random_series(rng, rows, complex_values=False)
        rec = ObservationRecord(scheme, 1e-3, inc, seed=11)
        assert_same_bytes(tmp_path, record_writer(write_record), record_writer(reference_write_record), rec,
                          config_hash="abc")

    @pytest.mark.parametrize("dt", [1e-3, 5e-324, 0.1, 1.7976931348623157e308 / 64])
    def test_record_edge_values(self, tmp_path, dt):
        inc = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.0])
        rec = ObservationRecord(MeasurementScheme.imperfect(0.5, 1.0), dt, inc, seed=2)
        assert_same_bytes(tmp_path, record_writer(write_record), record_writer(reference_write_record), rec)


STEPS = 7
FAULTS = ("columns", "non-numeric", "non-finite", "off-grid", "counting")


def record_lines(tmp_path, counting=False):
    """The lines of a valid STEPS-row record file and its first data line index."""
    scheme = MeasurementScheme.counting() if counting else MeasurementScheme.homodyne()
    rec = ObservationRecord(scheme, 1e-2, np.array([0.0, 1.0] * STEPS)[:STEPS], seed=5)
    write_record(rec, tmp_path / "valid.csv")
    lines = (tmp_path / "valid.csv").read_text().splitlines()
    return lines, lines.index("t,dY") + 1


def corrupt(line, fault):
    t, dy = line.split(",")
    return {
        "columns": f"{t},{dy},0",
        "non-numeric": f"{t},abc",
        "non-finite": f"{t},nan",
        "off-grid": f"{float(t) + 0.5},{dy}",
        "counting": f"{t},0.5",
    }[fault]


def refusal(reader, path):
    with pytest.raises(RecordFormatError) as info:
        reader(path)
    return type(info.value), str(info.value), info.value.line


class TestReaderRefusalsMatchPerRowReference:
    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("row", [0, STEPS // 2, STEPS - 1])
    def test_one_bad_row(self, tmp_path, fault, row):
        lines, first = record_lines(tmp_path, counting=fault == "counting")
        lines[first + row] = corrupt(lines[first + row], fault)
        target = tmp_path / "bad.csv"
        target.write_text("\n".join(lines) + "\n")
        got = refusal(read_record, target)
        assert got == refusal(reference_read_record, target)
        assert got[2] == first + row + 1

    @pytest.mark.parametrize("first_fault,second_fault", itertools.product(FAULTS, repeat=2))
    def test_first_of_two_bad_rows_is_reported(self, tmp_path, first_fault, second_fault):
        counting = "counting" in (first_fault, second_fault)
        lines, first = record_lines(tmp_path, counting=counting)
        lines[first + 1] = corrupt(lines[first + 1], first_fault)
        lines[first + 4] = corrupt(lines[first + 4], second_fault)
        target = tmp_path / "bad.csv"
        target.write_text("\n".join(lines) + "\n")
        got = refusal(read_record, target)
        assert got == refusal(reference_read_record, target)
        assert got[2] == first + 2

    @pytest.mark.parametrize("row", ["abc,0.1", "abc,def", "0.01,", ",0.1", "0.01", "", "0.01;0.1"])
    def test_malformed_rows(self, tmp_path, row):
        lines, first = record_lines(tmp_path)
        lines[first + 2] = row if row else ","
        target = tmp_path / "bad.csv"
        target.write_text("\n".join(lines) + "\n")
        assert refusal(read_record, target) == refusal(reference_read_record, target)

    def test_infinite_time_keeps_its_message(self, tmp_path):
        lines, first = record_lines(tmp_path)
        lines[first + 3] = "inf,0"
        target = tmp_path / "bad.csv"
        target.write_text("\n".join(lines) + "\n")
        got = refusal(read_record, target)
        assert got == refusal(reference_read_record, target)
        assert "time column inf" in got[1]

    def test_fields_parse_by_float_rules(self, tmp_path):
        lines, first = record_lines(tmp_path)
        lines[first] = " 1_0e-3 , +0.0 "
        lines[first + 1] = "2E-2,-0"
        target = tmp_path / "spaced.csv"
        target.write_text("\n".join(lines) + "\n")
        assert read_record(target) == reference_read_record(target)


class TestReaderFixes:
    def test_nan_time_is_refused_with_its_line(self, tmp_path):
        lines, first = record_lines(tmp_path)
        lines[first + 2] = "nan,0"
        target = tmp_path / "nan_t.csv"
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordFormatError, match="time column nan") as info:
            read_record(target)
        assert info.value.line == first + 3

    def test_error_after_blank_lines_names_the_file_line(self, tmp_path):
        lines, first = record_lines(tmp_path)
        lines[first + 4] = "abc,0"
        lines[first + 1 : first + 1] = ["", "   "]
        target = tmp_path / "blank.csv"
        target.write_text("\n".join(lines) + "\n")
        bad_line = lines.index("abc,0") + 1
        with pytest.raises(RecordFormatError) as info:
            read_record(target)
        assert info.value.line == bad_line
        assert str(info.value) == f"line {bad_line}: non-numeric value: could not convert string to float: 'abc'"

    def test_blank_lines_among_rows_still_read(self, tmp_path):
        lines, first = record_lines(tmp_path)
        with_blanks = lines[: first + 2] + [""] + lines[first + 2 :] + ["", ""]
        (tmp_path / "blank.csv").write_text("\n".join(with_blanks) + "\n")
        assert read_record(tmp_path / "blank.csv") == read_record(tmp_path / "valid.csv")


class TestRecordSeeds:
    @pytest.mark.parametrize("seed", [-1, 2.5, True, 2**70, "3", None])
    def test_record_refuses_a_seed_simulate_would(self, seed):
        with pytest.raises(ValidationError, match=r"^seed: "):
            ObservationRecord(MeasurementScheme.homodyne(), 1e-2, np.zeros(3), seed=seed)

    @pytest.mark.parametrize("seed", ["-7", "18446744073709551616"])
    def test_metadata_seed_outside_u64_is_a_format_error(self, tmp_path, seed):
        lines, _ = record_lines(tmp_path)
        lines[lines.index("# seed: 5")] = f"# seed: {seed}"
        (tmp_path / "seed.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordFormatError, match=rf"^malformed metadata value: seed: .*, got {seed}$"):
            read_record(tmp_path / "seed.csv")

    def test_numpy_seed_reads_as_int(self, tmp_path):
        rec = ObservationRecord(MeasurementScheme.homodyne(), 1e-2, np.zeros(3), seed=np.uint64(2**64 - 1))
        assert rec.seed == 2**64 - 1 and type(rec.seed) is int
        write_record(rec, tmp_path / "max.csv")
        assert read_record(tmp_path / "max.csv") == rec


class TestReadMetadata:
    def test_stops_at_the_header_row(self, tmp_path):
        # the undecodable tail lies far beyond the first buffer the reader decodes
        lines, first = record_lines(tmp_path)
        target = tmp_path / "meta.csv"
        head = "\n".join(lines[:first] + lines[first:] * 20_000) + "\n"
        target.write_bytes(head.encode() + b"\xff\xfe not utf-8\n")
        assert read_metadata(target) == read_metadata(tmp_path / "valid.csv")

    def test_same_errors(self, tmp_path):
        target = tmp_path / "m.csv"
        target.write_text("# format: x\n# no colon here\nt,dY\n")
        with pytest.raises(RecordFormatError, match="line 2: malformed metadata line"):
            read_metadata(target)
        target.write_text("# format: x\n# seed: 1\n")
        with pytest.raises(RecordFormatError, match="no CSV header row"):
            read_metadata(target)

"""Configuration, record persistence, and the command-line surface."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import belfilt as bf
from belfilt.cli import run
from belfilt.config import config_from_dict, load_config, matrix_from_entries, matrix_to_entries
from belfilt.filters import MeasurementScheme
from belfilt.recordio import read_metadata, read_record, write_master_csv, write_path_csv, write_record
from belfilt.trajectories import ObservationRecord


def qubit_config(**overrides):
    cfg = {
        "dim": 2,
        "hamiltonian": [],
        "channels": [[[0, 1, 1.0, 0.0]]],
        "rho0": [[0, 0, 0.5, 0.0], [0, 1, 0.375, 0.0], [1, 0, 0.375, 0.0], [1, 1, 0.5, 0.0]],
        "scheme": "homodyne",
        "dt": 1e-3,
        "T": 0.1,
        "seed": 7,
        "observables": {"z": [[0, 0, -1.0, 0.0], [1, 1, 1.0, 0.0]]},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfigParsing:
    def test_minimal_roundtrip(self):
        cfg = config_from_dict(qubit_config())
        assert cfg.dim == 2
        assert cfg.scheme == MeasurementScheme.homodyne()
        assert cfg.model().dim == 2
        assert set(cfg.observables) == {"z"}

    def test_non_hermitian_hamiltonian_names_field(self):
        bad = qubit_config(hamiltonian=[[0, 1, 1.0, 0.0]])
        with pytest.raises(bf.ValidationError, match="hamiltonian"):
            config_from_dict(bad)

    def test_unknown_key_rejected(self):
        with pytest.raises(bf.ValidationError, match="observable_set"):
            config_from_dict(qubit_config(observable_set={}))

    def test_bad_rho0_names_field(self):
        bad = qubit_config(rho0=[[0, 0, 1.0, 0.0], [1, 1, 1.0, 0.0]])
        with pytest.raises(bf.ValidationError, match="rho0"):
            config_from_dict(bad)

    def test_out_of_range_entry(self):
        with pytest.raises(bf.ValidationError, match="out of range"):
            matrix_from_entries([[0, 5, 1.0, 0.0]], 2, "channels[0]")

    def test_duplicate_entry(self):
        with pytest.raises(bf.ValidationError, match="duplicate"):
            matrix_from_entries([[0, 0, 1.0, 0.0], [0, 0, 2.0, 0.0]], 2, "m")

    def test_control_requires_h1(self):
        with pytest.raises(bf.ValidationError, match="control_h1"):
            config_from_dict(qubit_config(control_expression="t"))

    def test_control_law_builds(self):
        cfg = config_from_dict(
            qubit_config(
                control_expression="ma(Y, 5) - t",
                control_h1=[[0, 1, 1.0, 0.0], [1, 0, 1.0, 0.0]],
            )
        )
        law = cfg.law()
        assert law is not None
        assert law.control(0.0, np.array([])) == 0.0

    def test_config_hash_is_stable(self):
        a = config_from_dict(qubit_config())
        b = config_from_dict(qubit_config())
        assert a.config_hash == b.config_hash
        c = config_from_dict(qubit_config(seed=8))
        assert a.config_hash != c.config_hash

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_u64_names_key(self, seed):
        with pytest.raises(bf.ValidationError, match=rf"^seed: .* got {seed}$"):
            config_from_dict(qubit_config(seed=seed))
        assert config_from_dict(qubit_config(seed=2**64 - 1)).seed == 2**64 - 1

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(bf.ValidationError, match="invalid JSON"):
            load_config(path)


class TestRecordRoundtrip:
    def test_empty_record(self, tmp_path):
        rec = ObservationRecord(MeasurementScheme.homodyne(), 1e-3, np.array([]), seed=1)
        target = tmp_path / "empty.csv"
        write_record(rec, target)
        assert read_record(target) == rec

    def test_large_homodyne_record_bit_exact(self, tmp_path, rng):
        inc = rng.normal(0.0, 0.03, size=100_000)
        rec = ObservationRecord(MeasurementScheme.homodyne(phase=0.25), 1e-3, inc, seed=42)
        target = tmp_path / "big.csv"
        write_record(rec, target)
        back = read_record(target)
        assert np.array_equal(back.increments, inc)
        assert back == rec

    @given(values=st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=64), min_size=1, max_size=40))
    def test_roundtrip_arbitrary_floats(self, values, tmp_path_factory):
        rec = ObservationRecord(MeasurementScheme.homodyne(), 0.5, np.array(values), seed=0)
        target = tmp_path_factory.mktemp("rt") / "r.csv"
        write_record(rec, target)
        assert np.array_equal(read_record(target).increments, rec.increments)

    def test_counting_record_roundtrip(self, tmp_path):
        rec = ObservationRecord(MeasurementScheme.counting(), 1e-2, np.array([0.0, 1.0, 0.0]), seed=5)
        target = tmp_path / "c.csv"
        write_record(rec, target)
        assert read_record(target) == rec

    def test_counting_rejects_fractional_with_line_number(self, tmp_path):
        rec = ObservationRecord(MeasurementScheme.homodyne(), 1e-2, np.array([0.0, 0.5, 1.0]), seed=5)
        target = tmp_path / "bad.csv"
        write_record(rec, target)
        text = target.read_text().replace("scheme: homodyne", "scheme: counting")
        target.write_text(text)
        with pytest.raises(bf.RecordFormatError, match="line 13"):
            read_record(target)

    def test_length_mismatch_detected(self, tmp_path):
        rec = ObservationRecord(MeasurementScheme.homodyne(), 1e-2, np.array([0.1, 0.2]), seed=5)
        target = tmp_path / "short.csv"
        write_record(rec, target)
        lines = target.read_text().splitlines()
        target.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(bf.RecordFormatError, match="steps"):
            read_record(target)

    def test_malformed_header_detected(self, tmp_path):
        target = tmp_path / "junk.csv"
        target.write_text("# format belfilt-record-v1\nt,dY\n")
        with pytest.raises(bf.RecordFormatError, match="metadata"):
            read_record(target)

    def test_metadata_block_present(self, tmp_path):
        rec = ObservationRecord(MeasurementScheme.imperfect(2.0), 1e-3, np.array([0.1]), seed=9)
        target = tmp_path / "meta.csv"
        write_record(rec, target, config_hash="abc123")
        meta = read_metadata(target)
        assert meta["config_hash"] == "abc123"
        assert meta["seed"] == "9"
        assert "generator" in meta and "version" in meta


class TestCliCommands:
    def test_verify_exits_zero(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all suites passed" in out

    def test_simulate_then_filter_replays_identically(self, tmp_path):
        cfg_path = write_config(tmp_path, qubit_config())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run(["simulate", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert run([
            "filter",
            "--config",
            str(cfg_path),
            "--record",
            str(out_a / "record.csv"),
            "--out",
            str(out_b),
        ]) == 0
        assert (out_a / "path.csv").read_text() == (out_b / "path.csv").read_text()

    @pytest.mark.parametrize("kind", ["bks", "zakai"])
    def test_filter_of_an_empty_record_writes_the_start(self, tmp_path, capsys, kind):
        cfg_path = write_config(tmp_path, qubit_config(filter_kind=kind))
        record = tmp_path / "empty.csv"
        write_record(ObservationRecord(MeasurementScheme.homodyne(), 1e-3, []), record)
        assert run(["filter", "--config", str(cfg_path), "--record", str(record), "--out", str(tmp_path / "f")]) == 0
        assert capsys.readouterr().err == ""
        rows = [line for line in (tmp_path / "f" / "path.csv").read_text().splitlines() if not line.startswith("#")]
        # the header, then t = 0 and tr(rho0 Z) = 0
        assert len(rows) == 2 and rows[1].split(",")[:3] == ["0", "0", "0"]

    def test_bad_hamiltonian_exits_one_naming_field(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, qubit_config(hamiltonian=[[0, 1, 1.0, 0.0]]))
        assert run(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert "hamiltonian" in capsys.readouterr().err

    @pytest.mark.parametrize("terms", [1000, 20000])
    def test_control_expression_too_deep_exits_one_on_one_line(self, tmp_path, capsys, terms):
        expression = "t" + " + t" * terms
        cfg_path = write_config(tmp_path, qubit_config(control_expression=expression,
                                                       control_h1=[[0, 1, 1.0, 0.0], [1, 0, 1.0, 0.0]]))
        assert run(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: control expression {expression!r}: nested too deeply to compile\n"

    def test_control_expression_constant_out_of_range_exits_one_on_one_line(self, tmp_path, capsys):
        expression = "1" + "0" * 400 + " * t"
        cfg_path = write_config(tmp_path, qubit_config(control_expression=expression,
                                                       control_h1=[[0, 1, 1.0, 0.0], [1, 0, 1.0, 0.0]]))
        assert run(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (f"error: control expression {expression!r}:"
                                           " int too large to convert to float\n")

    def test_foreign_record_exits_one(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, qubit_config())
        out = tmp_path / "sim"
        run(["simulate", "--config", str(cfg_path), "--out", str(out)])
        counting_cfg = write_config(tmp_path, qubit_config(scheme="counting"), name="counting.json")
        code = run([
            "filter",
            "--config",
            str(counting_cfg),
            "--record",
            str(out / "record.csv"),
            "--out",
            str(tmp_path / "x"),
        ])
        assert code == 1
        assert "scheme" in capsys.readouterr().err

    def test_master_reference(self, tmp_path):
        cfg_path = write_config(tmp_path, qubit_config(T=0.5))
        out = tmp_path / "m"
        assert run(["master", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "master.csv").read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "t,re_z,im_z"
        assert len([l for l in lines if not l.startswith("#")]) == 502

    def test_master_rejects_horizon_off_the_grid(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, qubit_config(T=1.0, dt=0.3))
        assert run(["master", "--config", str(cfg_path), "--out", str(tmp_path / "m")]) == 1
        err = capsys.readouterr().err
        assert "T = 1.0" in err and "dt = 0.3" in err

    def test_ensemble_command(self, tmp_path):
        cfg_path = write_config(tmp_path, qubit_config(T=0.05, n_trajectories=3))
        out = tmp_path / "e"
        assert run(["ensemble", "--config", str(cfg_path), "--out", str(out)]) == 0
        text = (out / "ensemble.csv").read_text()
        assert "mean_re_z" in text
        assert "# n_trajectories: 3" in text

    def test_ensemble_health_breach_exits_two(self, tmp_path, capsys):
        # a pure state under strong homodyne monitoring at a coarse step:
        # Euler leaves the state space and the ensemble's health gate fails
        cfg = qubit_config(
            channels=[[[0, 1, 3.0, 0.0]]],
            rho0=[[0, 0, 0.5, 0.0], [0, 1, 0.5, 0.0], [1, 0, 0.5, 0.0], [1, 1, 0.5, 0.0]],
            dt=1e-2,
            n_trajectories=4,
        )
        out = tmp_path / "e"
        assert run(["ensemble", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert "minimum filter eigenvalue" in capsys.readouterr().err
        assert not (out / "ensemble.csv").exists()

    def test_non_finite_path_is_a_positivity_breach(self, tmp_path, capsys, monkeypatch):
        # a NaN on the diagonal used to audit as eigenvalue 0.0; it must fail
        # the positivity gate, whose breach exits 2 before anything is written
        real = bf.cli._simulate

        def poisoned(*args):
            *head, reduce, chunk = args

            def poisoning(start, rows):
                if start == 0:
                    rows[0, 3, 0, 0] = np.nan
                reduce(start, rows)

            return real(*head, poisoning, chunk)

        monkeypatch.setattr("belfilt.cli._simulate", poisoned)
        out = tmp_path / "out"
        assert run(["simulate", "--config", str(write_config(tmp_path, qubit_config())), "--out", str(out)]) == 2
        assert "minimum filter eigenvalue nan fell below" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["simulate", "filter"])
    def test_health_breach_exits_two_before_writing(self, tmp_path, capsys, command):
        # the breach config of the ensemble test; its single trajectory for
        # seed 2 leaves the state space
        cfg = qubit_config(
            channels=[[[0, 1, 3.0, 0.0]]],
            rho0=[[0, 0, 0.5, 0.0], [0, 1, 0.5, 0.0], [1, 0, 0.5, 0.0], [1, 1, 0.5, 0.0]],
            dt=1e-2,
            seed=2,
        )
        cfg_path = write_config(tmp_path, cfg)
        extra = []
        if command == "filter":
            loaded = load_config(cfg_path)
            record, _ = bf.simulate_homodyne(loaded.model(), loaded.rho0, loaded.horizon, loaded.dt, loaded.seed)
            write_record(record, tmp_path / "record.csv")
            extra = ["--record", str(tmp_path / "record.csv")]
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg_path), *extra, "--out", str(out)]) == 2
        assert "minimum filter eigenvalue" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_seed_override(self, tmp_path):
        cfg_path = write_config(tmp_path, qubit_config())
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run(["simulate", "--config", str(cfg_path), "--out", str(out1), "--seed", "1"])
        run(["simulate", "--config", str(cfg_path), "--out", str(out2), "--seed", "1"])
        assert (out1 / "record.csv").read_text() == (out2 / "record.csv").read_text()
        out3 = tmp_path / "s3"
        run(["simulate", "--config", str(cfg_path), "--out", str(out3), "--seed", "2"])
        assert (out1 / "record.csv").read_text() != (out3 / "record.csv").read_text()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_flag_outside_u64_exits_one(self, tmp_path, capsys, seed):
        cfg_path = write_config(tmp_path, qubit_config())
        out = tmp_path / "s"
        assert run(["simulate", "--config", str(cfg_path), "--out", str(out), "--seed", seed]) == 1
        assert f"seed: must be an unsigned 64-bit integer (0 <= seed < 2**64), got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_one(self, capsys):
        assert run(["simulate"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_malformed_seed_exits_one_naming_flag(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, qubit_config())
        assert run(["simulate", "--config", str(cfg_path), "--seed", "abc"]) == 1
        err = capsys.readouterr().err
        assert "argument --seed: invalid int value: 'abc'" in err

    @pytest.mark.parametrize("command,flag", [
        ("simulate", "--trajectories"), ("filter", "--trajectories"), ("master", "--trajectories"),
        ("filter", "--seed"), ("master", "--seed"),
    ])
    def test_flag_the_command_does_not_read_exits_one(self, tmp_path, capsys, command, flag):
        cfg_path = write_config(tmp_path, qubit_config())
        record = ["--record", str(tmp_path / "record.csv")] if command == "filter" else []
        out = tmp_path / "x"
        assert run([command, "--config", str(cfg_path), *record, "--out", str(out), flag, "3"]) == 1
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        assert not out.exists()

    def test_calls_in_one_process_write_what_fresh_processes_do(self, tmp_path, capsys, monkeypatch):
        # the parser is built once per process and reused: no flag of one
        # call may reach the next (the ensemble without --trajectories and
        # --seed takes the config's 2 trajectories and seed 7, and without
        # --out writes to the working directory)
        calls = [
            ["simulate", "--config", "config.json", "--seed", "11", "--out", "sim"],
            ["ensemble", "--config", "config.json", "--trajectories", "three"],
            ["filter", "--config", "config.json", "--record", "sim/record.csv", "--out", "filter"],
            ["ensemble", "--config", "config.json", "--trajectories", "3", "--seed", "5", "--out", "ens3"],
            ["ensemble", "--config", "config.json"],
            ["master", "--config", "config.json", "--out", "master"],
        ]
        inside, fresh = tmp_path / "inside", tmp_path / "fresh"
        for where in (inside, fresh):
            where.mkdir()
            write_config(where, qubit_config(T=0.05, n_trajectories=2))
        monkeypatch.delenv("BELFILT_OUT", raising=False)
        monkeypatch.chdir(inside)
        outcomes = [(run(argv), capsys.readouterr().err) for argv in calls]
        env = {key: value for key, value in os.environ.items() if key != "BELFILT_OUT"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(bf.__file__).resolve().parents[1]),
                                                          env.get("PYTHONPATH")]))
        alone = []
        for argv in calls:
            done = subprocess.run([sys.executable, "-m", "belfilt", *argv], cwd=fresh, env=env,
                                  capture_output=True, text=True, timeout=120)
            alone.append((done.returncode, done.stderr))
        assert outcomes == alone
        assert [code for code, _ in outcomes] == [0, 1, 0, 0, 0, 0]
        assert "argument --trajectories: invalid int value" in outcomes[1][1]
        written = sorted(path.relative_to(inside) for path in inside.rglob("*.csv"))
        assert [str(path) for path in written] == ["ens3/ensemble.csv", "ensemble.csv", "filter/path.csv",
                                                   "master/master.csv", "sim/path.csv", "sim/record.csv"]
        for path in written:
            assert (inside / path).read_bytes() == (fresh / path).read_bytes(), path
        assert "# n_trajectories: 2" in (inside / "ensemble.csv").read_text()
        assert "# seed: 7" in (inside / "ensemble.csv").read_text()
        assert "# n_trajectories: 3" in (inside / "ens3" / "ensemble.csv").read_text()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["master", "--help"])
        assert info.value.code == 0
        assert "--seed" not in capsys.readouterr().out

    def test_env_out_dir(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, qubit_config())
        target = tmp_path / "envout"
        monkeypatch.setenv("BELFILT_OUT", str(target))
        assert run(["simulate", "--config", str(cfg_path)]) == 0
        assert (target / "record.csv").exists()

    def test_zakai_filter_kind_writes_likelihood(self, tmp_path):
        cfg_path = write_config(tmp_path, qubit_config(filter_kind="zakai"))
        out = tmp_path / "z"
        run(["simulate", "--config", str(cfg_path), "--out", str(out)])
        run([
            "filter",
            "--config",
            str(cfg_path),
            "--record",
            str(out / "record.csv"),
            "--out",
            str(out),
        ])
        lines = (out / "path.csv").read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header.endswith(",likelihood")

    def test_zero_rate_jump_exits_two(self, tmp_path, capsys):
        # ground-state atom cannot click: replaying a record with a count is
        # a numerical failure, not a config error
        cfg = qubit_config(scheme="counting", T=0.003, rho0=[[0, 0, 1.0, 0.0]])
        cfg_path = write_config(tmp_path, cfg)
        rec = ObservationRecord(
            MeasurementScheme.counting(), 1e-3, np.array([0.0, 1.0, 0.0]), seed=0
        )
        rec_path = tmp_path / "impossible.csv"
        write_record(rec, rec_path)
        code = run([
            "filter",
            "--config",
            str(cfg_path),
            "--record",
            str(rec_path),
            "--out",
            str(tmp_path / "out"),
        ])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_zakai_trace_overflow_exits_two_without_path(self, tmp_path, capsys):
        # increments of 1e200 overflow the unnormalized trace at step 1
        cfg_path = write_config(tmp_path, qubit_config(filter_kind="zakai", T=0.003))
        rec_path = tmp_path / "huge.csv"
        write_record(ObservationRecord(MeasurementScheme.homodyne(), 1e-3, np.full(3, 1e200)), rec_path)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["filter", "--config", str(cfg_path), "--record", str(rec_path), "--out", str(out)])
        assert code == 2
        assert "numerical failure: step 1: unnormalized filter trace" in capsys.readouterr().err
        assert not (out / "path.csv").exists()

    def test_counting_simulate_roundtrip(self, tmp_path):
        cfg = qubit_config(scheme="counting", T=0.5, rho0=[[0, 0, 0.2, 0.0], [1, 1, 0.8, 0.0]])
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "c"
        assert run(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        rec = read_record(out / "record.csv")
        assert rec.scheme.kind == "counting"
        assert set(np.unique(rec.increments)) <= {0.0, 1.0}


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


class TestShippedDemos:
    def _run(self, script, *args, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SCRIPTS.parent / "src"), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, str(SCRIPTS / script), *args],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
        )

    def test_feedback_rabi_demo_runs(self, tmp_path):
        done = self._run("feedback_rabi_demo.py", "--horizon", "0.2", cwd=tmp_path)
        assert done.returncode == 0, done.stderr

    def test_qubit_decay_demo_runs(self, tmp_path):
        out = tmp_path / "decay"
        done = self._run(
            "qubit_decay_demo.py", "--horizon", "0.2", "--trajectories", "4", "--out", str(out), cwd=tmp_path
        )
        assert done.returncode == 0, done.stderr
        assert sorted(p.name for p in out.iterdir()) == ["master.csv", "path.csv", "record.csv"]

    def test_cli_memory_prints_each_run(self, tmp_path):
        done = self._run("cli_memory.py", "--dims", "2", "--steps", "30", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        header, *rows = done.stdout.splitlines()
        assert header.startswith("n = 2: peak RSS (MB) at 30 steps")
        assert [row.split()[:-1] for row in rows] == [["simulate"], ["filter", "bks"], ["filter", "zakai"], ["master"]]
        assert all(float(row.split()[-1]) > 0 for row in rows)

    def test_code_lines_totals_its_files(self, tmp_path):
        done = self._run("code_lines.py", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        *files, total = (line.split(None, 1) for line in done.stdout.splitlines())
        assert total[1] == "total" and {Path(path).name for _, path in files} >= {"filters.py", "operators.py"}
        assert int(total[0]) == sum(int(count) for count, _ in files) > 0

    def test_seeded_hashes_runs_and_repeats(self, tmp_path):
        args = ("--dims", "2", "--seeds", "1", "--horizon", "0.1", "--trajectories", "2")
        first = self._run("seeded_hashes.py", *args, cwd=tmp_path)
        assert first.returncode == 0, first.stderr
        lines = first.stdout.splitlines()
        names = [line.split("  ", 1)[1] for line in lines]
        assert len(set(names)) == len(names)
        assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)
        for name in ("simulate", "replay zakai", "law online", "ensemble stacked", "ensemble law"):
            assert f"n2 seed1 decay-diag counting {name}" in names
        assert "n2 seed1 random2 semigroup uniform" in names
        assert self._run("seeded_hashes.py", *args, cwd=tmp_path).stdout == first.stdout

    def test_seeded_hashes_covers_csv_bytes(self, tmp_path):
        args = ("--dims", "2", "--seeds", "1", "--horizon", "0.1", "--trajectories", "2")
        done = self._run("seeded_hashes.py", *args, "--save", "saved", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        names = [line.split("  ", 1)[1] for line in done.stdout.splitlines()]
        for name in ("simulate", "replay bks", "replay zakai", "ensemble stacked", "ensemble law"):
            assert f"n2 seed1 decay-plus imperfect {name} csv" in names
        assert "n2 seed1 random2 semigroup uniform csv" in names
        # a changed byte in a saved table reads 1
        saved = dict(np.load(tmp_path / "saved" / "outputs.npz"))
        key = "n2 seed1 random2 homodyne replay zakai csv|0"
        saved[key] = np.asarray(saved[key].item().replace(b"likelihood", b"Likelihood"))
        np.savez(tmp_path / "saved" / "outputs.npz", **saved)
        compared = self._run("seeded_hashes.py", *args, "--against", "saved", cwd=tmp_path)
        assert compared.returncode == 0, compared.stderr
        lines = compared.stdout.splitlines()
        assert "n2 seed1 random2 homodyne replay zakai csv  csv 1.0e+00" in lines
        assert "n2 seed1 random2 homodyne replay bks csv  csv 0.0e+00" in lines

    def test_seeded_hashes_compares_saved_outputs(self, tmp_path):
        args = ("--dims", "2", "--seeds", "1", "--horizon", "0.1", "--trajectories", "2")
        hashed = self._run("seeded_hashes.py", *args, "--save", "saved", cwd=tmp_path)
        assert hashed.returncode == 0, hashed.stderr
        compared = self._run("seeded_hashes.py", *args, "--against", "saved", cwd=tmp_path)
        assert compared.returncode == 0, compared.stderr
        # the same checkout: every case present, every deviation zero
        columns = {line.split("  ")[0]: line.split("  ")[1:] for line in compared.stdout.splitlines()}
        assert list(columns) == [line.split("  ", 1)[1] for line in hashed.stdout.splitlines()]
        assert columns["n2 seed1 random2 homodyne replay zakai"] == ["path 0.0e+00", "likelihood 0.0e+00",
                                                                      "health 0.0e+00"]
        assert columns["n2 seed1 decay-diag counting simulate"] == ["path 0.0e+00", "record 0.0e+00",
                                                                     "health 0.0e+00"]
        assert all(parts and all(part.endswith(" 0.0e+00") for part in parts) for parts in columns.values())
        assert columns["n2 seed1 random2 homodyne ensemble stacked"] == ["path 0.0e+00", "stderr 0.0e+00",
                                                                          "health 0.0e+00"]
        # a moved health monitor or standard error shows as its deviation:
        # parts 0-9 are the times, the count and two observables (name, mean,
        # real and imaginary standard errors), 10-12 the health monitors; a
        # serial path's parts 2-4 are its audit's
        saved = dict(np.load(tmp_path / "saved" / "outputs.npz"))
        key = "n2 seed1 random2 homodyne ensemble stacked|"
        saved[key + "11"] = saved[key + "11"] - 2.5e-3
        saved[key + "4"] = saved[key + "4"] + 1e-3
        key = "n2 seed1 decay-diag counting simulate|"
        saved[key + "3"] = saved[key + "3"] + 5e-4
        np.savez(tmp_path / "saved" / "outputs.npz", **saved)
        compared = self._run("seeded_hashes.py", *args, "--against", "saved", cwd=tmp_path)
        lines = compared.stdout.splitlines()
        assert "n2 seed1 random2 homodyne ensemble stacked  path 0.0e+00  stderr 1.0e-03  health 2.5e-03" in lines
        assert "n2 seed1 decay-diag counting simulate  path 0.0e+00  record 0.0e+00  health 5.0e-04" in lines


def _without(key):
    cfg = qubit_config()
    del cfg[key]
    return cfg


def _config_args(cfg):
    """A master job on the config `cfg`, written as JSON."""
    return lambda tmp_path, monkeypatch: ["master", "--config", str(write_config(tmp_path, cfg)),
                                          "--out", str(tmp_path / "out")]


def _record_args(lines):
    """A filter job over a record file of `lines` and the qubit config."""
    def args(tmp_path, monkeypatch):
        record = tmp_path / "record.csv"
        record.write_text("\n".join(lines) + "\n")
        return ["filter", "--config", str(write_config(tmp_path, qubit_config())), "--record", str(record),
                "--out", str(tmp_path / "out")]
    return args


def _dt_mismatch(tmp_path, monkeypatch):
    record = tmp_path / "record.csv"
    write_record(ObservationRecord(MeasurementScheme.homodyne(), 2e-3, np.zeros(50)), record)
    return ["filter", "--config", str(write_config(tmp_path, qubit_config())), "--record", str(record),
            "--out", str(tmp_path / "out")]


def _chunked(monkeypatch, chunk: int, dim: int = 2) -> None:
    """Budgets under which one trajectory at dimension `dim` steps in chunks
    of `chunk` steps (`trajectories._row_chunk`); at dim 2 record files are
    also read and written chunk + 1 lines at a time (`recordio._piece_rows`)."""
    monkeypatch.setattr(bf.trajectories, "ENSEMBLE_CHUNK_STEPS", 1)
    monkeypatch.setattr(bf.trajectories, "ENSEMBLE_BLOCK_BYTES", 4 * (chunk + 1) * dim**2 * 16)


def _random_config(dim: int, seed: int, **overrides) -> dict:
    """A config of a random model, start and observable at dimension `dim`."""
    rng = np.random.default_rng(seed)
    model = bf.random_model(dim, rng, scale=0.5)
    rho0 = bf.random_density(dim, rng).mix_with_identity(0.25)
    cfg = qubit_config(dim=dim, hamiltonian=matrix_to_entries(model.hamiltonian),
                       channels=[matrix_to_entries(model.channel)], rho0=matrix_to_entries(rho0.matrix),
                       observables={"h": matrix_to_entries(bf.random_hermitian(dim, rng)),
                                    "d": matrix_to_entries(np.diag(np.arange(dim, dtype=float)))})
    cfg.update(overrides)
    return cfg


def _whole_path_outputs(cfg_paths, out):
    """What simulate, filter and master write under the configs
    cfg_paths[kind] (kind bks or zakai), through the public whole-path
    functions and writers: out/<command or kind>/<file>.csv."""
    cfg = load_config(cfg_paths["bks"])
    model, law, rho0 = cfg.model(), cfg.law(), cfg.rho0
    for part in ("simulate", "bks", "zakai", "master"):
        (out / part).mkdir(parents=True)
    if cfg.scheme.kind == "counting":
        record, path = bf.simulate_counting(model, rho0, cfg.horizon, cfg.dt, cfg.seed, law=law)
    else:
        record, path = bf.simulate_homodyne(model, rho0, cfg.horizon, cfg.dt, cfg.seed, scheme=cfg.scheme, law=law)
    write_record(record, out / "simulate" / "record.csv", config_hash=cfg.config_hash)
    times = cfg.dt * np.arange(record.steps + 1)
    write_path_csv(out / "simulate" / "path.csv", times,
                   {name: np.einsum("tij,ji->t", path, x) for name, x in cfg.observables.items()},
                   extra_meta={"config_hash": cfg.config_hash, "seed": cfg.seed, "filter": "bks"})
    for kind in ("bks", "zakai"):
        replay = bf.replay_record(record, model, rho0, kind=kind, law=law)
        write_path_csv(out / kind / "path.csv", replay.times,
                       {name: replay.expectations(x) for name, x in cfg.observables.items()},
                       likelihoods=replay.likelihoods,
                       extra_meta={"config_hash": load_config(cfg_paths[kind]).config_hash, "seed": record.seed,
                                   "filter": kind})
    master = bf.semigroup_path(rho0, model, times)
    write_master_csv(out / "master" / "master.csv", times,
                     {name: np.einsum("tij,ji->t", master, x) for name, x in cfg.observables.items()},
                     extra_meta={"config_hash": cfg.config_hash})


def _files(directory: Path) -> dict:
    return {str(path.relative_to(directory)): path.read_bytes() for path in sorted(directory.rglob("*"))
            if path.is_file()}


STREAMED_CASES = {
    "homodyne": qubit_config(observables={"z": [[0, 0, -1.0, 0.0], [1, 1, 1.0, 0.0]],
                                          "x": [[0, 1, 1.0, 0.0], [1, 0, 1.0, 0.0]]}),
    "counting": qubit_config(scheme="counting", dt=1e-2, rho0=[[0, 0, 0.125, 0.0], [1, 1, 0.875, 0.0]]),
    "law": qubit_config(control_expression="0.5 * t - 0.2 * ma(Y, 3)", control_h1=[[0, 1, 1.0, 0.0], [1, 0, 1.0, 0.0]]),
    "imperfect n=3": _random_config(3, 5, scheme="imperfect", kappa=0.5, phase=0.3),
}


class TestStreamedRuns:
    """simulate, filter and master step in chunks (`cli._Rows`): what they
    write does not depend on the chunk, and a refused run leaves no file."""

    @pytest.mark.parametrize("steps", [21, 23], ids=["multiple", "not-multiple"])
    @pytest.mark.parametrize("case", list(STREAMED_CASES))
    def test_chunks_write_the_whole_path_bytes(self, tmp_path, monkeypatch, capsys, case, steps):
        cfg = dict(STREAMED_CASES[case])
        cfg["T"] = steps * cfg["dt"]
        cfg_paths = {kind: write_config(tmp_path, dict(cfg, filter_kind=kind), f"{kind}.json") for kind in ("bks", "zakai")}
        _whole_path_outputs(cfg_paths, tmp_path / "whole")
        _chunked(monkeypatch, 7, cfg["dim"])
        out = tmp_path / "streamed"
        assert run(["simulate", "--config", str(cfg_paths["bks"]), "--out", str(out / "simulate")]) == 0
        for kind in ("bks", "zakai"):
            assert run(["filter", "--config", str(cfg_paths[kind]), "--record", str(out / "simulate" / "record.csv"),
                        "--out", str(out / kind)]) == 0
        assert run(["master", "--config", str(cfg_paths["bks"]), "--out", str(out / "master")]) == 0
        assert capsys.readouterr().err == ""
        streamed, whole = _files(out), _files(tmp_path / "whole")
        assert sorted(streamed) == ["bks/path.csv", "master/master.csv", "simulate/path.csv", "simulate/record.csv",
                                    "zakai/path.csv"]
        assert streamed == whole

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("command", ["simulate", "filter", "filter zero-rate"])
    def test_refused_run_leaves_no_file(self, tmp_path, monkeypatch, capsys, command, chunk):
        # the breach config of test_health_breach_exits_two_before_writing,
        # and a count from the ground state, whose rate is 0: the run fails
        # after chunks have been written under the temporary name
        if command == "filter zero-rate":
            cfg_path = write_config(tmp_path, qubit_config(scheme="counting", T=0.01, rho0=[[0, 0, 1.0, 0.0]]))
            record = ObservationRecord(MeasurementScheme.counting(), 1e-3, np.eye(10)[7], seed=0)
        else:
            cfg_path = write_config(tmp_path, qubit_config(
                channels=[[[0, 1, 3.0, 0.0]]], rho0=[[0, 0, 0.5, 0.0], [0, 1, 0.5, 0.0], [1, 0, 0.5, 0.0], [1, 1, 0.5, 0.0]],
                dt=1e-2, seed=2))
            loaded = load_config(cfg_path)
            record, _ = bf.simulate_homodyne(loaded.model(), loaded.rho0, loaded.horizon, loaded.dt, loaded.seed)
        write_record(record, tmp_path / "record.csv")
        _chunked(monkeypatch, chunk)
        extra = [] if command == "simulate" else ["--record", str(tmp_path / "record.csv")]
        out = tmp_path / "out"
        assert run([command.split()[0], "--config", str(cfg_path), *extra, "--out", str(out)]) == 2
        assert ("jump recorded" if command == "filter zero-rate" else "minimum filter eigenvalue") in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("row, edit, message", [
        (5, lambda line: line + ",0", "expected two columns t,dY"),
        (5, lambda line: line.replace(",", ",abc"), "non-numeric value: could not convert string to float: 'abc"),
        (5, lambda line: line.split(",")[0] + ",nan", "non-finite increment"),
        (6, lambda line: "0.5," + line.split(",")[1], "time column 0.5 does not match step grid value 0.007"),
        (7, lambda line: line.split(",")[0] + ",0.5", "counting increment 0.5 is not 0 or 1"),
    ], ids=["columns", "non-numeric", "non-finite", "off-grid", "counting"])
    def test_read_record_names_the_line_in_a_later_piece(self, tmp_path, monkeypatch, row, edit, message):
        # 12 data rows parsed 4 lines at a time (and read 128 characters at
        # a time), blank lines among them: the faulty row lies in the second
        # or third piece of the body, after a clean first piece, and a later
        # fault does not move which error is named
        target = tmp_path / "record.csv"
        write_record(ObservationRecord(MeasurementScheme.counting(), 1e-3, np.eye(12)[2], seed=3), target)
        lines = target.read_text().splitlines()
        header = lines.index("t,dY")
        data = lines[header + 1:]
        data[row] = edit(data[row])
        data[row + 2] = data[row + 2] + ",9"
        body = data[:2] + ["", "  "] + data[2:]
        target.write_text("\n".join(lines[: header + 1] + body) + "\n")
        with pytest.raises(bf.RecordFormatError) as whole:
            read_record(target)
        _chunked(monkeypatch, 3)
        assert bf.recordio._piece_rows(2) == 4
        with pytest.raises(bf.RecordFormatError) as pieces:
            read_record(target)
        assert str(pieces.value) == str(whole.value)
        assert str(whole.value).startswith(f"line {header + 4 + row}: {message}")

    def test_read_record_counts_rows_before_parsing(self, tmp_path, monkeypatch):
        target = tmp_path / "record.csv"
        write_record(ObservationRecord(MeasurementScheme.homodyne(), 1e-3, np.zeros(12)), target)
        text = target.read_text()
        target.write_text(text.replace("0.002,0\n", "0.002,abc\n") + "0.013,0\n")
        _chunked(monkeypatch, 3)
        with pytest.raises(bf.RecordFormatError, match="^declared steps = 12 but found 13 data rows$"):
            read_record(target)

    def test_streamed_simulate_memory_does_not_grow_with_the_horizon(self, tmp_path, monkeypatch):
        # chunks of 64 steps at n = 8 hold 64 KiB of matrices; the whole
        # path of 1200 steps would hold 1.2 MiB.  The record (8 bytes a
        # step, and its copy) is all that grows
        _chunked(monkeypatch, 64, 8)
        peaks = []
        for steps in (300, 1200):
            cfg_path = write_config(tmp_path, _random_config(8, 9, T=steps * 1e-3, scheme="imperfect", kappa=0.5))
            tracemalloc.start()
            try:
                assert run(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


def _trace_drift(tmp_path, monkeypatch):
    monkeypatch.setattr(bf.cli, "path_health", lambda matrices, normalized: bf.PathHealth(0.0, 0.0, 1e-6, True))
    return ["simulate", "--config", str(write_config(tmp_path, qubit_config())), "--out", str(tmp_path / "out")]


RECORD_META = ["# format: belfilt-record-v1", "# scheme: homodyne", "# dt: 0.001", "# steps: 1", "# seed: 0",
               "# kappa: 0", "# phase: 0"]
# (id, the job's arguments from (tmp_path, monkeypatch), exit code, the
# error line's opening, which names the key, field or check refused)
DOCUMENTED_REFUSALS = [
    *((f"missing {key}", _config_args(_without(key)), 1, f"error: {key}: missing required key")
      for key in ("dim", "dt", "T", "hamiltonian", "rho0", "scheme")),
    ("top level not an object", _config_args([qubit_config()]), 1, "error: config: top level must be an object"),
    ("channels not a list", _config_args(qubit_config(channels={"0": []})), 1,
     "error: channels: expected a list of matrices"),
    ("observables not an object", _config_args(qubit_config(observables=[])), 1,
     "error: observables: expected an object of name -> entries"),
    ("matrix not a list", _config_args(qubit_config(hamiltonian={})), 1,
     "error: hamiltonian: expected a list of [row, col, re, im] entries"),
    ("entry not a quadruple", _config_args(qubit_config(rho0=[[0, 0, 1.0]])), 1,
     "error: rho0: entry 0 must be [row, col, re, im]"),
    ("control_expression not a string", _config_args(qubit_config(control_expression=1, control_h1=[])), 1,
     "error: control_expression: expected a string"),
    ("control_h1 without an expression", _config_args(qubit_config(control_h1=[[0, 1, 1.0, 0.0]])), 1,
     "error: control_h1: set without control_expression"),
    ("bad filter_kind", _config_args(qubit_config(filter_kind="kalman")), 1,
     "error: filter_kind: expected auto, bks or zakai, got 'kalman'"),
    ("unreadable config", lambda tmp_path, monkeypatch: ["master", "--config", str(tmp_path / "absent.json")], 1,
     "error: config: cannot read "),
    ("not a record file", _record_args(["# format: belfilt-path-v1", "t,dY", "0.001,0"]), 1,
     "error: not a record file (format 'belfilt-path-v1')"),
    ("wrong record header", _record_args([*RECORD_META, "t,dZ", "0.001,0"]), 1,
     "error: line 8: expected header 't,dY'"),
    ("missing record metadata key", _record_args([*RECORD_META[:2], *RECORD_META[3:], "t,dY", "0.001,0"]), 1,
     "error: missing metadata key 'dt'"),
    ("no trajectories", lambda tmp_path, monkeypatch: [
        "ensemble", "--config", str(write_config(tmp_path, qubit_config())), "--trajectories", "0",
        "--out", str(tmp_path / "out")], 1, "error: trajectories: must be at least 1"),
    ("record and config dt differ", _dt_mismatch, 1, "error: dt: record step 0.002 != config step 0.001"),
    ("trace drift", _trace_drift, 2, "numerical failure: normalized trace drifted by 1.000e-06"),
]


@pytest.mark.parametrize("arguments, code, opening", [case[1:] for case in DOCUMENTED_REFUSALS],
                         ids=[case[0] for case in DOCUMENTED_REFUSALS])
def test_documented_refusal_names_its_key(tmp_path, monkeypatch, capsys, arguments, code, opening):
    assert run(arguments(tmp_path, monkeypatch)) == code
    err = capsys.readouterr().err
    assert err.startswith(opening) and err.count("\n") == 1, err

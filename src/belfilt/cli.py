"""Command-line interface.

Subcommands:

    simulate   sample a record and its filter path, write both as CSV
    filter     replay a stored record through a chosen filter
    ensemble   Monte Carlo ensemble statistics of filter expectations
    master     unconditional semigroup reference expectations
    verify     run the built-in property suites

Flags: --config <path> and --out <dir> for every command but verify;
--record <path> for filter; --seed <u64> (overrides the config) for
simulate and ensemble; --trajectories <N> for ensemble.  The environment
variable BELFILT_OUT overrides the default output directory.  Exit codes:
0 success, 1 usage, configuration or validation error, 2 numerical failure
(filter collapse or positivity breach).

simulate, filter and master step their runs a chunk at a time
(`trajectories._row_chunk`) and hand each chunk to one reducer (`_Rows`),
which audits it and appends its CSV rows, so that a run's memory does not
grow with its horizon beyond its record and likelihoods (8 bytes a step
each); master holds no grid.  The table is written under a temporary name
in the output directory and lands by os.replace only when the run succeeds
(`recordio._landing`): a run refused with exit 2 leaves no output file.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .errors import NumericalFailure, PositivityBreach, ValidationError
from .filters import PathHealth, _worst_health, path_health
from .operators import _semigroup
from .recordio import (
    MASTER_FORMAT,
    PATH_FORMAT,
    _ExpectationTable,
    _landing,
    read_record,
    write_ensemble_csv,
    write_record,
)
from .trajectories import (
    _expectation_series,
    _grid,
    _integrate,
    _require_seed,
    _row_chunk,
    _simulate,
    ensemble_average,
)

# Whole-path entry points the commands no longer call, since they stream
# their runs; kept as attributes of this module, where benchmarks/tracing.py
# wraps them by name.
from .operators import semigroup_path  # noqa: F401
from .recordio import write_master_csv, write_path_csv  # noqa: F401
from .trajectories import replay_record, simulate_counting, simulate_homodyne  # noqa: F401


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ValidationError, so that
    they exit 1 like any other invalid input (argparse itself exits 2)."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and reused by every later `run`
    in the process: building it costs about 15 times what a parse does
    (each argument formats a trial usage), and a parse leaves it as it was,
    its values going to a fresh namespace."""
    parser = _Parser(
        prog="belfilt",
        description="Quantum trajectory simulation and Belavkin filtering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help, record=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="JSON run configuration")
        if record:
            p.add_argument("--record", required=True, help="observation record CSV")
        p.add_argument("--out", default=None, help="output directory (default: BELFILT_OUT or '.')")
        return p

    simulate = add_command("simulate", "sample a record plus filter path")
    add_command("filter", "replay a record through a filter", record=True)
    ensemble = add_command("ensemble", "ensemble statistics over trajectories")
    add_command("master", "semigroup reference expectations")
    sub.add_parser("verify", help="run the property suites")
    for p in (simulate, ensemble):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    ensemble.add_argument("--trajectories", type=int, default=None, help="override n_trajectories")
    return parser


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("BELFILT_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.seed is not None:
        cfg = replace(cfg, seed=_require_seed(args.seed))
    if getattr(args, "trajectories", None) is not None:
        if args.trajectories < 1:
            raise ValidationError("trajectories: must be at least 1")
        cfg = replace(cfg, n_trajectories=args.trajectories)
    return cfg


def _check_health(health: PathHealth) -> None:
    if not health.positivity_ok:
        raise PositivityBreach(
            f"minimum filter eigenvalue {health.min_eigenvalue:.3e} fell below the -1e-6 monitoring floor"
        )
    if not health.trace_ok:
        raise NumericalFailure(f"normalized trace drifted by {health.max_trace_defect:.3e} (tolerance 1e-9)")


class _Rows:
    """The CLI's reducer, called as `reduce(start, rows)` by the loops of
    `trajectories._integrate` (rows (1, m, n, n), and the likelihoods
    (1, m) of a Zakai run) and `operators._semigroup` (rows (m, n, n)).

    Each chunk becomes rows of the expectation table `table`
    (`recordio._ExpectationTable`) at the times k dt of its indices k, the
    entries of dt * np.arange(steps + 1): a Zakai chunk is divided by its
    likelihoods first, then, with `audit`, audited by `path_health`, and
    each observable's series taken on it.  `health` combines the audits as
    one audit of the whole path reports it (`filters._worst_health`), so
    that a run holds one chunk of matrices and one chunk of text at a time,
    and writes the bytes a whole-path run does.
    """

    def __init__(self, table, observables: dict, dt: float, audit: bool):
        self.table = table
        self.observables = list(observables.values())
        self.dt = dt
        self.audits = [] if audit else None

    def __call__(self, start: int, rows: np.ndarray, likelihoods=None) -> None:
        matrices = rows.reshape(-1, *rows.shape[-2:])
        if likelihoods is not None:
            likelihoods = likelihoods[0]
            matrices = matrices / likelihoods[:, None, None]
        if self.audits is not None:
            self.audits.append(path_health(matrices, normalized=True))
        series = [_expectation_series(matrices, x) for x in self.observables]
        self.table.rows(self.dt * np.arange(start, start + len(matrices)), series, likelihoods)

    def health(self) -> PathHealth:
        return _worst_health(self.audits)


def _cmd_simulate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    cfg.require_single_channel()
    model, law = cfg.model(), cfg.law()
    _grid(cfg.horizon, cfg.dt)  # a T off the dt grid is refused before the output directory is made
    out = _out_dir(args)
    meta = {"config_hash": cfg.config_hash, "seed": cfg.seed, "filter": "bks"}
    # once the last chunk's audit passes, record.csv is written, then path.csv lands
    with _landing(out / "path.csv") as fh:
        rows = _Rows(_ExpectationTable(fh, PATH_FORMAT, cfg.observables, meta), cfg.observables, cfg.dt, audit=True)
        record, _ = _simulate(model, cfg.rho0, cfg.scheme, cfg.horizon, cfg.dt, cfg.seed, law, rows)
        _check_health(rows.health())
        write_record(record, out / "record.csv", config_hash=cfg.config_hash)
    print(f"simulate: wrote {out / 'record.csv'} and {out / 'path.csv'} ({record.steps} steps)")
    return 0


def _cmd_filter(args) -> int:
    cfg = load_config(args.config)
    cfg.require_single_channel()
    record = read_record(args.record)
    if record.scheme != cfg.scheme:
        raise ValidationError(
            f"scheme: record carries {record.scheme}, config requests {cfg.scheme}; refusing to reinterpret"
        )
    if abs(record.dt - cfg.dt) > 1e-12 * max(record.dt, cfg.dt):
        raise ValidationError(f"dt: record step {record.dt} != config step {cfg.dt}")
    model, law = cfg.model(), cfg.law()
    kind = "zakai" if cfg.filter_kind == "zakai" else "bks"
    out = _out_dir(args)
    meta = {"config_hash": cfg.config_hash, "seed": record.seed, "filter": kind}
    with _landing(out / "path.csv") as fh:
        table = _ExpectationTable(fh, PATH_FORMAT, cfg.observables, meta, likelihood=kind == "zakai")
        rows = _Rows(table, cfg.observables, record.dt, audit=True)
        _integrate(model, cfg.rho0, record.scheme, record.dt, record.increments[None], law, kind == "bks",
                   sampling=False, reduce=rows)
        _check_health(rows.health())
    print(f"filter: wrote {out / 'path.csv'} ({kind}, {record.steps} steps)")
    return 0


def _cmd_ensemble(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    cfg.require_single_channel()
    summary = ensemble_average(
        cfg.model(),
        cfg.scheme,
        cfg.observables,
        cfg.n_trajectories,
        cfg.seed,
        cfg.horizon,
        cfg.dt,
        cfg.rho0,
        law=cfg.law(),
        collect_health=True,
    )
    _check_health(summary.health)
    out = _out_dir(args)
    write_ensemble_csv(out / "ensemble.csv", summary, extra_meta={"config_hash": cfg.config_hash, "seed": cfg.seed})
    print(f"ensemble: wrote {out / 'ensemble.csv'} ({summary.n_trajectories} trajectories)")
    return 0


def _cmd_master(args) -> int:
    cfg = load_config(args.config)
    model = cfg.model()
    steps = _grid(cfg.horizon, cfg.dt)
    out = _out_dir(args)
    with _landing(out / "master.csv") as fh:
        rows = _Rows(_ExpectationTable(fh, MASTER_FORMAT, cfg.observables, {"config_hash": cfg.config_hash}),
                     cfg.observables, cfg.dt, audit=False)
        _semigroup(cfg.rho0, model, cfg.dt, steps, rows, _row_chunk(steps, 1, model.dim))
    print(f"master: wrote {out / 'master.csv'} ({steps} steps)")
    return 0


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "filter":
            return _cmd_filter(args)
        if args.command == "ensemble":
            return _cmd_ensemble(args)
        if args.command == "master":
            return _cmd_master(args)
        if args.command == "verify":
            from .verify import run_all

            return 0 if run_all(verbose=True) else 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


def main() -> None:
    sys.exit(run())

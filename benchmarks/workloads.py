"""The benchmark's workloads: set-up, job lists and output checks.

Every workload is a closed loop with one client: `run_rounds` starts a job
only after the previous one has finished, and checks each job's output
before the next one starts (checks are not timed).  `round(r)` lists the
jobs of round r; its inputs depend only on the workload seed and r, through
belfilt's own `derive_seed` and the CLI's `--seed`, so a traced run can
replay exactly the jobs of an untraced one.

belfilt functions are looked up on their modules at call time
(``trajectories.ensemble_average(...)``) so that the wrappers installed by
`tracing.install` see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import belfilt.cli as cli
import belfilt.config as config
import belfilt.filters as filters
import belfilt.operators as operators
import belfilt.recordio as recordio
import belfilt.trajectories as trajectories
from belfilt.errors import CausalityViolation

perf = time.perf_counter


@dataclass(frozen=True)
class Size:
    feedback_steps: int
    pipeline_n8_horizon: float
    pipeline_min_rounds: int  # 8 rounds of 14 jobs: >= 100 jobs, so >= 10 lie beyond p90
    setup_repeats: int


# "full" is what BENCHMARK.json measures; "tiny" keeps the benchmark's own
# tests short (one round, short feedback horizon, one set-up process).
SIZES = {
    "full": Size(20000, 2.0, 8, 5),
    "tiny": Size(2000, 0.2, 1, 1),
}

# 32 trajectories keep a job under a second, so a 35 s run holds 12 to 16
# jobs of each kind to take medians over.  At 32, a counting job in which no
# trajectory jumps by T = 0.5 (which would fail the not-all-identical check)
# has probability 0.625**32 = 3e-7.
ENSEMBLE_TRAJECTORIES = 32
ENSEMBLE_HORIZON = 0.5
PIPELINE_ENSEMBLE_TRAJECTORIES = 2

# Ensemble check: the mean of each observable lies within ENSEMBLE_STDERRS
# standard errors of the master-equation reference rho_bar, plus an Euler-bias
# allowance of EULER_ALLOWANCE times the observable's spectral norm.  The
# standard error is sqrt(v / n) with v = tr(rho_bar X^2) - tr(rho_bar X)^2,
# an upper bound on the variance of tr(rho_t X) (tr(rho X)^2 <= tr(rho X^2)
# for every state, and E rho_t = rho_bar).  The sample stderr is not used: the
# conditional <x> of qubit_homodyne.json is bimodal, and 1% of 32-trajectory
# samples that missed its rare branch gave |t| > 6.  Over 20000 resamples of
# 32 trajectories (from 1200 per model) the largest deviation beyond the
# allowance was 3.1 bound-stderrs (counting).
ENSEMBLE_STDERRS = 5.0
EULER_ALLOWANCE = 1e-2
CHECKPOINTS = (0.5, 0.75, 1.0)  # fractions of the horizon

# The normalized (BKS) and unnormalized (Zakai) Euler schemes agree at strong
# order 1/2, so their expectations differ by O(sqrt(dt)) = 0.03 at dt = 1e-3;
# the largest gap over 120 seeds of qubit_homodyne.json was 0.07.
ZAKAI_BKS_TOL = 0.2

FEEDBACK_LAW = "0.2 * Y - 0.5 * ma(Y, 50)"


@dataclass
class Job:
    kind: str
    steps: int  # filter steps the job performs (trajectories x steps)
    run: Callable[[], object]
    check: Callable[[object], list]  # problems found in the output; empty when correct
    outputs: tuple = ()  # files whose sha256 is reported


@dataclass
class JobResult:
    job_id: str
    kind: str
    seconds: float
    steps: int
    problems: list
    step_seconds: np.ndarray | None = None
    hashes: dict = field(default_factory=dict)
    scale: float = 1.0  # measured time x scale = scaled time (see HostReference)
    step_scale: np.ndarray | None = None  # the same, per timed step

    @property
    def ok(self) -> bool:
        return not self.problems


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- host speed reference -------------------------------------------------------

# The host is a shared virtual machine: the speed a process gets changes by
# tens of percent from one second to the next and between runs, for all
# processes alike.  A fixed unit of work with the program's instruction mix (a
# Python loop over 2x2 complex numpy products) that calls nothing in belfilt
# is timed in blocks right before and right after every job, outside the
# job's time.  The job's scaled time is its measured time x REFERENCE_UNIT_S /
# (the mean of the two blocks' median unit times): the time the job would take
# on a host where one unit takes REFERENCE_UNIT_S.  A job that runs for seconds
# (an online-feedback episode) also takes blocks between its own timed pieces
# and scales each piece by the blocks around it.  A change to belfilt moves
# scaled and measured times alike; only the host's share of the variation
# cancels.
REFERENCE_UNIT_S = 1.5e-3  # about the unit's median on the machine the README's figures come from
REFERENCE_STEPS = 100
REFERENCE_SHARE = 0.05  # reference work after a job, as a share of the job's time
_REF_RHO = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
_REF_H = np.array([[0.5, 0.3], [0.3, -0.5]], dtype=complex)


def reference_unit() -> float:
    """Seconds taken by one fixed unit of reference work."""
    rho = _REF_RHO
    start = perf()
    for _ in range(REFERENCE_STEPS):
        rho = rho - 1e-3j * (_REF_H @ rho - rho @ _REF_H)
        rho = rho / np.trace(rho).real
    return perf() - start


class HostReference:
    """Blocks of reference units, one after every job.  The block after a
    job is also the block before the next one."""

    def __init__(self):
        self.samples: list[float] = []
        self.last_block: float | None = None  # median unit time of the latest block
        self.spent = 0.0  # seconds spent in blocks

    def block(self, units: int) -> float:
        start = perf()
        times = [reference_unit() for _ in range(units)]
        self.spent += perf() - start
        self.samples += times
        self.last_block = float(np.median(times))
        return self.last_block

    def before_job(self) -> float:
        return self.last_block if self.last_block is not None else self.block(5)

    def after_job(self, job_seconds: float) -> float:
        """A block worth REFERENCE_SHARE of the job's time, at least 2 units."""
        return self.block(max(2, int(REFERENCE_SHARE * job_seconds / self.last_block)))

    def scale(self) -> float:
        """REFERENCE_UNIT_S over the run's median unit time."""
        return REFERENCE_UNIT_S / float(np.median(self.samples))


def execute(job: Job, job_id: str, tracer=None, reference: HostReference | None = None) -> JobResult:
    """Run one job, then check its output.  A job that raises, exits non-zero
    or fails its check is a failed job; it never stops the benchmark.  The
    reference blocks (if any) run before the job and after its check."""
    before = reference.before_job() if reference is not None else None
    if tracer is not None:
        tracer.begin_job(job_id)
    output = None
    start = perf()
    try:
        output = job.run()
        problems = []
    except Exception as exc:  # noqa: BLE001 - counted as a failed job
        problems = [f"raised {type(exc).__name__}: {exc}"]
    finally:
        # Reference blocks a job ran between its own pieces are not its time.
        seconds = perf() - start - getattr(output, "reference_seconds", 0.0)
        if tracer is not None:
            tracer.end_job()
    if not problems:
        try:
            problems = list(job.check(output))
        except Exception as exc:  # noqa: BLE001 - a check that cannot read the output fails the job
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    hashes = {f"{p.parent.name}/{p.name}": sha256(p) for p in job.outputs if p.is_file()}
    scale = 1.0
    if reference is not None:
        scale = REFERENCE_UNIT_S / ((before + reference.after_job(seconds)) / 2)
        scale = getattr(output, "scale", scale)
    return JobResult(job_id, job.kind, seconds, job.steps, problems, getattr(output, "step_seconds", None), hashes,
                     scale, getattr(output, "step_scale", None))


def run_round(workload, r: int, tracer=None, prefix: str = "", reference: HostReference | None = None) -> list:
    """The jobs of round r, one after another."""
    return [
        execute(job, f"{prefix}r{r}.{i}.{job.kind}", tracer, reference) for i, job in enumerate(workload.round(r))
    ]


def run_rounds(workload, seconds: float, min_rounds: int = 1, reference: HostReference | None = None):
    """Closed loop over whole rounds, until `seconds` have passed and at
    least `min_rounds` are done."""
    results = []
    deadline = perf() + seconds
    r = 0
    while r < min_rounds or perf() < deadline:
        results += run_round(workload, r, reference=reference)
        workload.end_round(r)
        r += 1
    return results, r


def read_csv(path) -> tuple[list, np.ndarray]:
    """Header and float rows of a belfilt CSV (after its '#' metadata)."""
    body = [line for line in Path(path).read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    header = body[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in body[1:] if line], dtype=float)
    return header, rows


def expectation(rho: np.ndarray, x: np.ndarray) -> complex:
    return complex(np.trace(rho @ x))


def _random_imperfect(dim: int, rng: np.random.Generator):
    """Seeded imperfect-homodyne model: random_model, mixed start, two observables.

    Coupling scale 0.5 and kappa = 1 keep the conditional states away from
    purity, where Euler steps leave the state space: at unit scale and
    kappa = 0.5, 17% of 64 n=8 trajectories (T = 2, dt = 1e-3) had a smallest
    eigenvalue below 1e-4 and some fell below the -1e-6 health floor.
    """
    model = operators.random_model(dim, rng, scale=0.5)
    rho0 = operators.random_density(dim, rng).mix_with_identity(0.25)
    h = operators.random_hermitian(dim, rng)
    h = h / np.linalg.norm(h, 2)
    p0 = np.zeros((dim, dim), dtype=complex)
    p0[0, 0] = 1.0
    scheme = filters.MeasurementScheme.imperfect(1.0, 0.3)
    return model, rho0, {"h": h, "p0": p0}, scheme


class Workload:
    """Seed, sizes and paths shared by the workloads; subclasses provide
    setup() and round(r)."""

    min_rounds = 1

    def __init__(self, seed: int, size: Size, root: Path, workdir: Path):
        self.seed, self.size, self.root, self.workdir = seed, size, root, workdir
        self.reference: HostReference | None = None  # for jobs that take reference blocks inside them

    def end_round(self, r: int) -> None:
        """Remove what round r left behind (its outputs are checked by then)."""


# --- ensemble ---------------------------------------------------------------


@dataclass
class EnsembleCase:
    label: str
    model: operators.SystemModel
    scheme: filters.MeasurementScheme
    rho0: operators.DensityState
    observables: dict
    dt: float
    collect_health: bool
    steps: int = 0
    checkpoints: tuple = ()
    reference: dict = field(default_factory=dict)  # name -> tr(rho_bar X) at the checkpoints
    variance_bound: dict = field(default_factory=dict)  # name -> tr(rho_bar X^2) - |tr(rho_bar X)|^2


class EnsembleWorkload(Workload):
    """ensemble_average on the two shipped qubit configs and a seeded n=4
    imperfect-homodyne model, a fixed trajectory count per job."""

    def setup(self) -> None:
        cases = []
        # Health is collected on the qubit homodyne job: its states stay well
        # inside the state space, so the monitor's floor is a real check.
        for label, health in (("qubit_homodyne", True), ("qubit_counting", False)):
            cfg = config.load_config(self.root / "configs" / f"{label}.json")
            cases.append(EnsembleCase(label, cfg.model(), cfg.scheme, cfg.rho0, cfg.observables, cfg.dt, health))
        model, rho0, observables, scheme = _random_imperfect(4, np.random.default_rng(trajectories.derive_seed(self.seed, 4)))
        cases.append(EnsembleCase("random_n4", model, scheme, rho0, observables, 1e-3, False))
        for case in cases:
            case.steps = int(round(ENSEMBLE_HORIZON / case.dt))
            case.checkpoints = tuple(int(round(f * case.steps)) for f in CHECKPOINTS)
            path = operators.semigroup_path(case.rho0, case.model, case.dt * np.array((0,) + case.checkpoints))
            for name, x in case.observables.items():
                case.reference[name] = np.array([expectation(m, x) for m in path[1:]])
                case.variance_bound[name] = np.array([expectation(m, x @ x).real for m in path[1:]]) - np.abs(
                    case.reference[name]
                ) ** 2
            trajectories.ensemble_average(
                case.model, case.scheme, case.observables, 2, self.seed, 20 * case.dt, case.dt, case.rho0
            )
        self.cases = cases

    def round(self, r: int) -> list:
        n = ENSEMBLE_TRAJECTORIES
        jobs = []
        for i, case in enumerate(self.cases):
            seed = trajectories.derive_seed(self.seed, r * len(self.cases) + i)
            run = partial(self._run, case, n, seed)
            jobs.append(Job(f"ensemble/{case.label}", n * case.steps, run, partial(self._check, case)))
        return jobs

    @staticmethod
    def _run(case: EnsembleCase, n: int, seed: int):
        return trajectories.ensemble_average(
            case.model, case.scheme, case.observables, n, seed, case.steps * case.dt, case.dt, case.rho0,
            collect_health=case.collect_health,
        )

    @staticmethod
    def _check(case: EnsembleCase, summary) -> list:
        problems = []
        n = summary.n_trajectories
        for name, x in case.observables.items():
            allowance = EULER_ALLOWANCE * np.linalg.norm(x, 2)
            for idx, ref, var in zip(case.checkpoints, case.reference[name], case.variance_bound[name]):
                mean = summary.means[name][idx]
                tol = ENSEMBLE_STDERRS * np.sqrt(max(var, 0.0) / n) + allowance
                if not abs(mean - ref) <= tol:
                    problems.append(f"{name} at t={idx * case.dt:g}: mean {mean:.6g}, master {ref:.6g}, tolerance {tol:.3g}")
            if not summary.stderrs_re[name][case.checkpoints[-1]] > 0:
                problems.append(f"{name}: every trajectory gave the same value")
        if case.collect_health and (summary.health is None or not summary.health.ok):
            problems.append(f"path health failed: {summary.health}")
        return problems


# --- online feedback ----------------------------------------------------------


@dataclass
class Episode:
    record: object
    path: np.ndarray
    state: object
    step_seconds: np.ndarray
    # With a HostReference: the scale of each step and of the whole episode
    # (time-weighted over its pieces), and the time its blocks took.
    step_scale: np.ndarray | None = None
    scale: float = 1.0
    reference_seconds: float = 0.0


# Calls fed online between two reference blocks inside an episode, and the
# units in each block: about 4% of the episode's time.
FEEDBACK_CALLS_PER_BLOCK = 1000
FEEDBACK_BLOCK_UNITS = 4


class OnlineFeedbackWorkload(Workload):
    """A closed-loop simulate_homodyne under an ma(Y, w)/Y control law, then
    the same record fed online, one timed feedback_step per increment."""

    def setup(self) -> None:
        self.dt = 1e-3
        raw = {
            "dim": 2,
            "hamiltonian": [[0, 0, -0.5, 0.0], [1, 1, 0.5, 0.0]],
            "channels": [[[0, 1, 0.5, 0.0]]],
            "rho0": [[0, 0, 0.5, 0.0], [0, 1, 0.375, 0.0], [1, 0, 0.375, 0.0], [1, 1, 0.5, 0.0]],
            "scheme": "homodyne",
            "dt": self.dt,
            "T": self.size.feedback_steps * self.dt,
            "seed": self.seed,
            "observables": {"x": [[0, 1, 1.0, 0.0], [1, 0, 1.0, 0.0]]},
            "control_expression": FEEDBACK_LAW,
            "control_h1": [[0, 1, 1.0, 0.0], [1, 0, 1.0, 0.0]],
        }
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / "feedback.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        cfg = config.load_config(path)
        self.model, self.law, self.rho0, self.scheme = cfg.model(), cfg.law(), cfg.rho0, cfg.scheme
        self.horizon = cfg.horizon
        self._episode(self.seed, 50 * self.dt)

    def _episode(self, seed: int, horizon: float, reference: HostReference | None = None) -> Episode:
        """With a reference, blocks run before the simulation, before the
        online loop, every FEEDBACK_CALLS_PER_BLOCK calls and after it; each
        piece between two blocks is scaled by their mean."""
        spent_before = reference.spent if reference is not None else 0.0
        blocks = [reference.block(FEEDBACK_BLOCK_UNITS)] if reference is not None else []
        start = perf()
        record, path = trajectories.simulate_homodyne(
            self.model, self.rho0, horizon, self.dt, seed, scheme=self.scheme, law=self.law
        )
        simulate_seconds = perf() - start
        increments = record.increments
        state = filters.FilterState.from_density(self.rho0)
        step_seconds = np.empty(increments.size)
        block_of_step = np.empty(increments.size, dtype=int)
        for k in range(increments.size):
            if reference is not None and k % FEEDBACK_CALLS_PER_BLOCK == 0:
                blocks.append(reference.block(FEEDBACK_BLOCK_UNITS))
            block_of_step[k] = len(blocks) - 1
            start = perf()
            state = filters.feedback_step(
                state, increments[k], self.law, self.model, increments[:k], self.dt, self.scheme, k * self.dt
            )
            step_seconds[k] = perf() - start
        episode = Episode(record, path, state, step_seconds)
        if reference is not None:
            blocks.append(reference.block(FEEDBACK_BLOCK_UNITS))
            factor = REFERENCE_UNIT_S / ((np.array(blocks[:-1]) + np.array(blocks[1:])) / 2)
            episode.step_scale = factor[block_of_step]
            episode.scale = (simulate_seconds * factor[0] + step_seconds @ episode.step_scale) / (
                simulate_seconds + step_seconds.sum()
            )
            episode.reference_seconds = reference.spent - spent_before
        return episode

    def round(self, r: int) -> list:
        seed = trajectories.derive_seed(self.seed, r)
        steps = self.size.feedback_steps
        run = partial(self._episode, seed, self.horizon, self.reference)
        return [Job("feedback-episode", 2 * steps, run, partial(self._check, probe=r == 0))]

    def _check(self, episode: Episode, probe: bool) -> list:
        problems = []
        if episode.state.matrix.tobytes() != episode.path[-1].tobytes():
            problems.append("online state after the last step differs from the simulator's final path matrix")
        if probe:
            # Once per run: a prefix reaching the current step is a look-ahead.
            increments = episode.record.increments
            k = increments.size // 2
            try:
                filters.feedback_step(
                    filters.FilterState.from_density(self.rho0), increments[k], self.law, self.model,
                    increments[: k + 1], self.dt, self.scheme, k * self.dt,
                )
                problems.append("a look-ahead record prefix did not raise CausalityViolation")
            except CausalityViolation:
                pass
        return problems


# --- record pipeline -------------------------------------------------------------


@dataclass
class CliOutcome:
    code: int
    stderr: str


def run_cli(argv) -> CliOutcome:
    """One in-process `belfilt` command, its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 1
    return CliOutcome(code, err.getvalue())


def _exit_problems(outcome: CliOutcome) -> list:
    if outcome.code == 0:
        return []
    return [f"exit code {outcome.code}: {outcome.stderr.strip()[-300:]}"]


@dataclass
class PipelineCase:
    label: str
    bks_config: Path
    zakai_config: Path
    shipped_config: Path  # master runs on the shipped file where there is one
    cfg: object = None
    steps: int = 0


class RecordPipelineWorkload(Workload):
    """Rounds of in-process CLI jobs: simulate, filter (bks), filter (zakai)
    and master on both shipped configs and a seeded n=8 imperfect-homodyne
    config, plus one small ensemble job and one verify job per round."""

    def __init__(self, seed: int, size: Size, root: Path, workdir: Path):
        super().__init__(seed, size, root, workdir)
        self.min_rounds = size.pipeline_min_rounds

    def setup(self) -> None:
        cfg_dir = self.workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        raws = {}
        for label in ("qubit_homodyne", "qubit_counting"):
            raws[label] = json.loads((self.root / "configs" / f"{label}.json").read_text(encoding="utf-8"))
        rng = np.random.default_rng(trajectories.derive_seed(self.seed, 8))
        model, rho0, observables, scheme = _random_imperfect(8, rng)
        raws["random_n8"] = {
            "dim": 8,
            "hamiltonian": config.matrix_to_entries(model.hamiltonian),
            "channels": [config.matrix_to_entries(model.channel)],
            "rho0": config.matrix_to_entries(rho0.matrix),
            "scheme": scheme.kind,
            "kappa": scheme.kappa,
            "phase": scheme.phase,
            "dt": 1e-3,
            "T": self.size.pipeline_n8_horizon,
            "seed": 0,
            "observables": {name: config.matrix_to_entries(x) for name, x in observables.items()},
        }
        cases = []
        for label, raw in raws.items():
            paths = {}
            for kind in ("bks", "zakai"):
                paths[kind] = cfg_dir / f"{label}.{kind}.json"
                paths[kind].write_text(json.dumps(dict(raw, filter_kind=kind)), encoding="utf-8")
            shipped = self.root / "configs" / f"{label}.json"
            case = PipelineCase(label, paths["bks"], paths["zakai"], shipped if shipped.is_file() else paths["bks"])
            case.cfg = config.load_config(case.bks_config)
            config.load_config(case.zakai_config)  # validates the variant, as a user's run would
            case.steps = int(round(case.cfg.horizon / case.cfg.dt))
            cases.append(case)
        self.cases = cases
        warm = self.workdir / "warmup"
        warm.mkdir(exist_ok=True)
        for case in cases:
            record, _ = self._sample(case, self.seed, 20 * case.cfg.dt)
            recordio.write_record(record, warm / "record.csv")
            recordio.read_record(warm / "record.csv")

    @staticmethod
    def _sample(case: PipelineCase, seed: int, horizon: float):
        cfg = case.cfg
        if cfg.scheme.kind == filters.COUNTING:
            return trajectories.simulate_counting(cfg.model(), cfg.rho0, horizon, cfg.dt, seed)
        return trajectories.simulate_homodyne(cfg.model(), cfg.rho0, horizon, cfg.dt, seed, scheme=cfg.scheme)

    def round(self, r: int) -> list:
        base = self.workdir / f"r{r}"
        jobs = []
        for i, case in enumerate(self.cases):
            seed = trajectories.derive_seed(self.seed, 8 * r + i)
            sim, bks, zak, mas = (base / case.label / part for part in ("simulate", "bks", "zakai", "master"))
            record = sim / "record.csv"
            jobs += [
                Job(
                    f"simulate/{case.label}", case.steps,
                    partial(run_cli, ["simulate", "--config", case.bks_config, "--seed", seed, "--out", sim]),
                    partial(self._check_simulate, case, seed, record),
                    (record, sim / "path.csv"),
                ),
                Job(
                    f"filter-bks/{case.label}", case.steps,
                    partial(run_cli, ["filter", "--config", case.bks_config, "--record", record, "--out", bks]),
                    partial(self._check_bks, sim / "path.csv", bks / "path.csv"),
                    (bks / "path.csv",),
                ),
                Job(
                    f"filter-zakai/{case.label}", case.steps,
                    partial(run_cli, ["filter", "--config", case.zakai_config, "--record", record, "--out", zak]),
                    partial(self._check_zakai, bks / "path.csv", zak / "path.csv"),
                    (zak / "path.csv",),
                ),
                Job(
                    f"master/{case.label}", 0,
                    partial(run_cli, ["master", "--config", case.shipped_config, "--out", mas]),
                    partial(self._check_master, case, mas / "master.csv"),
                    (mas / "master.csv",),
                ),
            ]
        qubit = self.cases[0]
        ens = base / "ensemble"
        n = PIPELINE_ENSEMBLE_TRAJECTORIES
        jobs.append(
            Job(
                "ensemble/qubit_homodyne", n * qubit.steps,
                partial(run_cli, ["ensemble", "--config", qubit.shipped_config, "--trajectories", n,
                                  "--seed", trajectories.derive_seed(self.seed, 8 * r + 3), "--out", ens]),
                partial(self._check_ensemble, qubit, ens / "ensemble.csv"),
                (ens / "ensemble.csv",),
            )
        )
        jobs.append(Job("verify", 0, partial(run_cli, ["verify"]), _exit_problems))
        return jobs

    def end_round(self, r: int) -> None:
        shutil.rmtree(self.workdir / f"r{r}", ignore_errors=True)

    def _check_simulate(self, case, seed, record_csv, outcome) -> list:
        problems = _exit_problems(outcome)
        if problems:
            return problems
        expected, _ = self._sample(case, seed, case.cfg.horizon)
        if recordio.read_record(record_csv) != expected:
            problems.append("record.csv does not read back as the sampled record")
        return problems

    @staticmethod
    def _check_bks(simulate_path, bks_path, outcome) -> list:
        problems = _exit_problems(outcome)
        if not problems and Path(bks_path).read_bytes() != Path(simulate_path).read_bytes():
            problems.append("bks replay path.csv differs from simulate's path.csv")
        return problems

    @staticmethod
    def _check_zakai(bks_path, zakai_path, outcome) -> list:
        problems = _exit_problems(outcome)
        if problems:
            return problems
        bks_header, bks = read_csv(bks_path)
        header, zak = read_csv(zakai_path)
        if header[-1] != "likelihood" or header[:-1] != bks_header or zak.shape[0] != bks.shape[0]:
            return [f"zakai path.csv columns {header} do not match bks {bks_header} plus likelihood"]
        likelihood = zak[:, -1]
        if not (np.all(np.isfinite(likelihood)) and np.all(likelihood > 0)):
            problems.append(f"zakai likelihood not finite and positive (min {np.min(likelihood):.3g})")
        gap = float(np.max(np.abs(zak[:, 1:-1] - bks[:, 1:])))
        if not gap <= ZAKAI_BKS_TOL:
            problems.append(f"normalized zakai expectations differ from bks by {gap:.3g} > {ZAKAI_BKS_TOL}")
        return problems

    @staticmethod
    def _check_master(case, master_csv, outcome) -> list:
        problems = _exit_problems(outcome)
        if problems:
            return problems
        _, rows = read_csv(master_csv)
        cfg = case.cfg
        if rows.shape[0] != case.steps + 1 or not np.all(np.isfinite(rows)):
            return [f"master.csv has {rows.shape[0]} rows (want {case.steps + 1}) or non-finite values"]
        final = operators.semigroup_evolve(cfg.rho0, cfg.model(), case.steps * cfg.dt).matrix
        for j, (name, x) in enumerate(cfg.observables.items()):
            for row, rho, tol in ((0, cfg.rho0.matrix, 1e-12), (-1, final, 1e-8)):
                want = expectation(rho, x)
                got = complex(rows[row, 1 + 2 * j], rows[row, 2 + 2 * j])
                if not abs(got - want) <= tol:
                    problems.append(f"master {name} at row {row}: {got:.12g} vs direct {want:.12g}")
        return problems

    @staticmethod
    def _check_ensemble(case, ensemble_csv, outcome) -> list:
        problems = _exit_problems(outcome)
        if problems:
            return problems
        meta = recordio.read_metadata(ensemble_csv)
        _, rows = read_csv(ensemble_csv)
        if meta.get("n_trajectories") != str(PIPELINE_ENSEMBLE_TRAJECTORIES):
            problems.append(f"ensemble.csv n_trajectories {meta.get('n_trajectories')!r}")
        if rows.shape[0] != case.steps + 1 or not np.all(np.isfinite(rows)):
            return problems + [f"ensemble.csv has {rows.shape[0]} rows (want {case.steps + 1}) or non-finite values"]
        for j, (name, x) in enumerate(case.cfg.observables.items()):
            want = expectation(case.cfg.rho0.matrix, x)
            got = complex(rows[0, 1 + 4 * j], rows[0, 2 + 4 * j])
            if not abs(got - want) <= 1e-12:
                problems.append(f"ensemble mean {name} at t=0: {got:.12g} vs rho0 {want:.12g}")
        return problems


WORKLOADS = {
    "ensemble": EnsembleWorkload,
    "online-feedback": OnlineFeedbackWorkload,
    "record-pipeline": RecordPipelineWorkload,
}

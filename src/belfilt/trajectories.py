"""Sampling of observation records and ensemble statistics.

Records are drawn from the innovations representation: the conditional
state is co-evolved with the record, homodyne increments are

    dY = trace((L + L*) rho_t) dt + noise_scale * dW,    dW ~ N(0, dt),

and counting increments are Bernoulli with per-step probability
trace(L*L rho_t) dt (at most one jump per step; double jumps are O(dt^2)).
This is statistically exact in the continuous-time limit because the
innovations are Wiener (diffusive case) or compensated-counting
martingales, and it avoids simulating the exponentially large field.

Simulation, replay and ensembles run through one loop, `_integrate`, which
validates once per run and steps with the filters' `_kernel`.

Reproducibility: every trajectory's generator is numpy PCG64 keyed by a
splitmix64-mixed seed, `derive_seed(base_seed, index)`, which is
collision-free in the index.  Identical (seed, config) gives bit-identical
records and paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .filters import (
    COUNTING,
    ControlLaw,
    MeasurementScheme,
    PathHealth,
    _kernel,
    _law_terms,
    _require_law_model,
    _route,
    path_health,
)
from .operators import DensityState, SystemModel, as_operator

GENERATOR_NAME = f"pcg64-splitmix64/numpy-{np.__version__}"
MAX_JUMP_PROBABILITY = 0.1

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(base_seed: int, index: int) -> int:
    """splitmix64 finalizer of base_seed + (index+1)*golden; bijective in the
    index for a fixed base, hence collision-free over any ensemble."""
    if index < 0:
        raise ValidationError("trajectory index must be nonnegative")
    z = (int(base_seed) + (index + 1) * _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


@dataclass(frozen=True)
class ObservationRecord:
    """A measurement record on a uniform grid: increments dY per step."""

    scheme: MeasurementScheme
    dt: float
    increments: np.ndarray
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise ValidationError("record dt must be positive")
        inc = np.asarray(self.increments, dtype=float).reshape(-1)
        if not np.all(np.isfinite(inc)):
            raise ValidationError("record increments must be finite")
        if self.scheme.kind == COUNTING and inc.size and not np.all((inc == 0.0) | (inc == 1.0)):
            bad = int(np.argmax((inc != 0.0) & (inc != 1.0)))
            raise ValidationError(f"counting record increment {bad} is not 0 or 1")
        inc = np.array(inc)
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def steps(self) -> int:
        return self.increments.size

    @property
    def horizon(self) -> float:
        return self.steps * self.dt

    def times(self) -> np.ndarray:
        """End-of-step timestamps k*dt, k = 1..steps."""
        return self.dt * np.arange(1, self.steps + 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObservationRecord):
            return NotImplemented
        return (
            self.scheme == other.scheme
            and self.dt == other.dt
            and self.seed == other.seed
            and np.array_equal(self.increments, other.increments)
        )


def _grid(horizon: float, dt: float) -> int:
    if not np.isfinite(horizon) or horizon <= 0:
        raise ValidationError("T must be positive")
    if not np.isfinite(dt) or dt <= 0:
        raise ValidationError("dt must be positive")
    ratio = horizon / dt
    steps = int(round(ratio))
    if steps < 1:
        raise ValidationError("grid must contain at least one step")
    if abs(ratio - steps) > 1e-9 * ratio:
        raise ValidationError(f"T = {horizon!r} is not a whole multiple of dt = {dt!r} (T/dt = {ratio:.12g})")
    return steps


def _expectation_series(matrices, x) -> np.ndarray:
    """trace(m_t X) for every matrix m_t of a stack."""
    return np.einsum("tij,ji->t", matrices, x)


def _integrate(
    model: SystemModel, rho0, scheme: MeasurementScheme, dt: float, increments, law=None, normalized=True, noise=None
):
    """The one integration loop: step the filter from rho0 over `increments`.

    With `noise`, each increment is sampled from the pre-step state first:
    homodyne dY = trace((L + L*) rho) dt + noise[k], counting dY = 1 when
    the uniform noise[k] < trace(L*L rho) dt.  Returns the path, shape
    (steps+1, n, n), and for unnormalized runs the likelihoods.
    """
    if not isinstance(rho0, DensityState):
        rho0 = DensityState(rho0)
    if rho0.dim != model.dim:
        raise DimensionMismatch(f"rho0 dim {rho0.dim} != model dim {model.dim}")
    phase = scheme.phase
    if law is None:
        h = model.hamiltonian
        ch, chd, grammian = model.single_channel_parts(phase)
    else:
        _require_law_model(law, model)
    kind, gain, counting = _route(scheme), scheme.gain, scheme.kind == COUNTING
    steps = increments.size
    n = model.dim
    path = np.empty((steps + 1, n, n), dtype=complex)
    w = path[0] = rho0.matrix
    traces = np.ones(steps + 1)
    for k in range(steps):
        if law is not None:
            h, (ch, chd, grammian) = _law_terms(law, k * dt, increments[:k], model, phase)
        lw = ch @ w
        jumped = lw @ chd
        if noise is not None and counting:
            rate = float(jumped.trace().real)
            if rate * dt > MAX_JUMP_PROBABILITY:
                raise ValidationError(
                    f"dt: jump probability rate*dt = {rate * dt:.3g} exceeds {MAX_JUMP_PROBABILITY}; reduce dt"
                )
            increments[k] = 1.0 if noise[k] < rate * dt else 0.0
        elif noise is not None:
            increments[k] = 2.0 * float(lw.trace().real) * dt + noise[k]
        w, tr = _kernel(w, lw, jumped, increments[k], dt, h, grammian, kind, gain, normalized)
        path[k + 1] = w
        traces[k + 1] = tr
    return path, None if normalized else traces


def simulate_homodyne(
    model: SystemModel,
    rho0,
    horizon: float,
    dt: float,
    seed: int,
    scheme: MeasurementScheme | None = None,
    law: ControlLaw | None = None,
):
    """Sample one diffusive record and its co-evolved normalized filter path.

    Returns (record, path) with path of shape (steps+1, n, n).
    """
    scheme = MeasurementScheme.homodyne() if scheme is None else scheme
    if not scheme.is_diffusive:
        raise ValidationError("simulate_homodyne needs a homodyne or imperfect scheme")
    steps = _grid(horizon, dt)
    dw = np.random.default_rng(seed).normal(0.0, math.sqrt(dt), size=steps)
    increments = np.empty(steps)
    path, _ = _integrate(model, rho0, scheme, dt, increments, law, noise=scheme.noise_scale * dw)
    return ObservationRecord(scheme, dt, increments, seed=int(seed)), path


def simulate_counting(
    model: SystemModel,
    rho0,
    horizon: float,
    dt: float,
    seed: int,
    law: ControlLaw | None = None,
):
    """Sample one counting record (jump probability rate*dt per step) and its
    co-evolved normalized filter path."""
    scheme = MeasurementScheme.counting()
    steps = _grid(horizon, dt)
    uniforms = np.random.default_rng(seed).random(size=steps)
    increments = np.empty(steps)
    path, _ = _integrate(model, rho0, scheme, dt, increments, law, noise=uniforms)
    return ObservationRecord(scheme, dt, increments, seed=int(seed)), path


@dataclass(frozen=True)
class FilterRun:
    """Replayed filter path: matrices as evolved (normalized for the
    nonlinear filters, unnormalized for Zakai), likelihoods for Zakai."""

    times: np.ndarray
    matrices: np.ndarray
    kind: str
    likelihoods: np.ndarray | None = None

    def normalized_matrices(self) -> np.ndarray:
        if self.likelihoods is None:
            return self.matrices
        return self.matrices / self.likelihoods[:, None, None]

    def expectations(self, observable) -> np.ndarray:
        x = as_operator(observable, "observable")
        return _expectation_series(self.normalized_matrices(), x)


def replay_record(
    record: ObservationRecord,
    model: SystemModel,
    rho0,
    kind: str = "auto",
    law: ControlLaw | None = None,
) -> FilterRun:
    """Run a filter over a stored record.

    kind 'auto' matches the co-evolution used by the simulators (normalized
    filters), 'bks' forces the normalized route, 'zakai' propagates the
    unnormalized matrix and reports trace likelihoods.
    """
    if kind not in ("auto", "bks", "zakai"):
        raise ValidationError(f"unknown filter kind {kind!r} (expected auto, bks or zakai)")
    times = record.dt * np.arange(record.steps + 1)
    normalized = kind != "zakai"
    matrices, likelihoods = _integrate(model, rho0, record.scheme, record.dt, record.increments, law, normalized)
    return FilterRun(times, matrices, "bks" if normalized else "zakai", likelihoods)


@dataclass(frozen=True)
class EnsembleSummary:
    """Grid statistics of trace(rho_t X) over independent trajectories.

    `health`, when collected, aggregates the per-trajectory path monitors
    (worst eigenvalue, trace and Hermiticity defects over every step of
    every member).
    """

    times: np.ndarray
    means: dict
    stderrs_re: dict
    stderrs_im: dict
    n_trajectories: int
    scheme: MeasurementScheme
    health: PathHealth | None = None

    def mean(self, name: str) -> np.ndarray:
        return self.means[name]

    def stderr(self, name: str) -> np.ndarray:
        return self.stderrs_re[name]


def ensemble_average(
    model: SystemModel,
    scheme: MeasurementScheme,
    observables: dict,
    n_trajectories: int,
    seed: int,
    horizon: float,
    dt: float,
    rho0,
    law: ControlLaw | None = None,
    collect_health: bool = False,
) -> EnsembleSummary:
    """Mean and standard error of trace(rho_t X) over an ensemble.

    Trajectory i uses the generator seeded with derive_seed(seed, i);
    reduction runs in index order, so results are reproducible.
    """
    if n_trajectories < 1:
        raise ValidationError("n_trajectories must be at least 1")
    obs = {name: as_operator(x, f"observable {name!r}") for name, x in observables.items()}
    steps = _grid(horizon, dt)
    times = dt * np.arange(steps + 1)
    sums = {name: np.zeros(steps + 1, dtype=complex) for name in obs}
    sums_sq_re = {name: np.zeros(steps + 1) for name in obs}
    sums_sq_im = {name: np.zeros(steps + 1) for name in obs}
    worst_herm = 0.0
    worst_eig = np.inf
    worst_trace = 0.0
    for i in range(n_trajectories):
        sub_seed = derive_seed(seed, i)
        if scheme.kind == COUNTING:
            _, path = simulate_counting(model, rho0, horizon, dt, sub_seed, law=law)
        else:
            _, path = simulate_homodyne(model, rho0, horizon, dt, sub_seed, scheme=scheme, law=law)
        if collect_health:
            member = path_health(path, normalized=True)
            worst_herm = max(worst_herm, member.max_hermiticity_defect)
            worst_eig = min(worst_eig, member.min_eigenvalue)
            worst_trace = max(worst_trace, member.max_trace_defect)
        for name, x in obs.items():
            vals = _expectation_series(path, x)
            sums[name] += vals
            sums_sq_re[name] += vals.real**2
            sums_sq_im[name] += vals.imag**2
    means = {}
    stderrs_re = {}
    stderrs_im = {}
    n = n_trajectories
    for name in obs:
        mean = sums[name] / n
        means[name] = mean
        if n > 1:
            var_re = np.maximum(sums_sq_re[name] - n * mean.real**2, 0.0) / (n - 1)
            var_im = np.maximum(sums_sq_im[name] - n * mean.imag**2, 0.0) / (n - 1)
            stderrs_re[name] = np.sqrt(var_re / n)
            stderrs_im[name] = np.sqrt(var_im / n)
        else:
            stderrs_re[name] = np.zeros(steps + 1)
            stderrs_im[name] = np.zeros(steps + 1)
    health = PathHealth(worst_herm, worst_eig, worst_trace, True) if collect_health else None
    return EnsembleSummary(times, means, stderrs_re, stderrs_im, n, scheme, health)


@dataclass(frozen=True)
class InnovationsReport:
    """Statistics of the innovations dZ = dY - compensator dt.

    Terminal values should be centred at zero (martingale property), the
    diffusive quadratic variation should match the horizon, and increments
    should be serially uncorrelated.
    """

    scheme: MeasurementScheme
    dt: float
    horizon: float
    terminal_values: np.ndarray
    quad_variations: np.ndarray
    lag1_correlations: np.ndarray
    serial_products: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.terminal_values.size

    @staticmethod
    def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
        mean = float(values.mean())
        if values.size < 2:
            return mean, 0.0
        return mean, float(values.std(ddof=1) / math.sqrt(values.size))

    @property
    def terminal_mean(self) -> float:
        return self._mean_stderr(self.terminal_values)[0]

    @property
    def terminal_stderr(self) -> float:
        return self._mean_stderr(self.terminal_values)[1]

    @property
    def lag1_mean(self) -> float:
        return self._mean_stderr(self.lag1_correlations)[0]

    @property
    def lag1_stderr(self) -> float:
        return self._mean_stderr(self.lag1_correlations)[1]

    @property
    def serial_mean(self) -> float:
        return self._mean_stderr(self.serial_products)[0]

    @property
    def serial_stderr(self) -> float:
        return self._mean_stderr(self.serial_products)[1]


def innovations_stats(records, paths, model: SystemModel) -> InnovationsReport:
    """Innovations statistics for one or many (record, filter path) pairs.

    The compensator uses the pre-step states path[k]: trace((L+L*) rho) dt
    for diffusive schemes, trace(L*L rho) dt for counting.  Two serial
    statistics are reported: the demeaned Pearson lag-1 correlation (the
    natural whiteness measure for diffusive innovations) and the raw lagged
    product sum  sum_k x_k x_{k+1}  whose ensemble mean vanishes for
    martingale increments of either scheme; the Pearson statistic is not
    meaningful for jump records dominated by their smooth compensator.
    """
    if isinstance(records, ObservationRecord):
        records = [records]
        paths = [paths]
    records = list(records)
    paths = [np.asarray(p, dtype=complex) for p in paths]
    if not records:
        raise ValidationError("need at least one record")
    if len(records) != len(paths):
        raise ValidationError("records and paths must pair up")
    scheme = records[0].scheme
    for rec in records:
        if rec.scheme != scheme:
            raise ValidationError("scheme mismatch across records")
    ch, chd, grammian = model.single_channel_parts(scheme.phase)
    terminal = np.empty(len(records))
    qv = np.empty(len(records))
    lag1 = np.empty(len(records))
    serial = np.empty(len(records))
    for idx, (rec, path) in enumerate(zip(records, paths)):
        if path.shape[0] != rec.steps + 1:
            raise ValidationError(f"path {idx}: length {path.shape[0]} does not match record steps {rec.steps}")
        pre = path[:-1]
        if scheme.kind == COUNTING:
            compensator = _expectation_series(pre, grammian).real
        else:
            compensator = _expectation_series(pre, ch).real + _expectation_series(pre, chd).real
        innov = rec.increments - compensator * rec.dt
        terminal[idx] = innov.sum()
        qv[idx] = np.sum(innov**2)
        if innov.size >= 2:
            a, b = innov[:-1], innov[1:]
            serial[idx] = float(np.sum(a * b))
            sa, sb = a.std(), b.std()
            lag1[idx] = 0.0 if sa == 0.0 or sb == 0.0 else float(np.corrcoef(a, b)[0, 1])
        else:
            lag1[idx] = 0.0
            serial[idx] = 0.0
    return InnovationsReport(scheme, records[0].dt, records[0].horizon, terminal, qv, lag1, serial)

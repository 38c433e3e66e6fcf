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
validates and binds the step once per run and steps the rows of a (B, steps)
array of noise or increments, one trajectory a row.  It has two modes,
chosen from its inputs.  A law-free sampled block of ENSEMBLE_STACK_ROWS or
more trajectories steps as one (B, n, n) stack through the stacked step
`filters._stack_step`, one Python iteration per time step for the whole
block.  Every other run, a single simulation or replay, a smaller ensemble
block, a law run, steps its rows in turn through the single-matrix step
(`_row_step`), each row through a whole chunk of steps before the next,
fed Python floats.  A control law steps through one law run
(`filters._LawRun`) per trajectory, which binds the law's step matrix
[S0 | C1] and its own controlled step once, the control u of each step
passing to the step as its fourth coefficient, so that no step rebuilds the
Hamiltonian or writes into the step matrix.  Under a compiled expression
law without a channel map, the run keeps the record's cumulative sums and
the loop extends them by one add a step (`advance`), so a closed-loop step
costs the same at any horizon; other laws are called on each step's record
prefix.  Only unnormalized (Zakai) runs keep the trace of each step, their
likelihoods.  Every trajectory draws its own noise and steps the same bits
in either mode and in any block.  Each increment drawn row by row is
written over its noise, so that the row becomes the record, except in an
ensemble's law-free blocks, whose records nobody reads.

A run given a reducer keeps a chunk of rows per trajectory, not its paths,
and hands each chunk to the reducer once: an ensemble's running sums of
observables, in trajectory order, and its health audit, or the CLI's
expectation rows, audit and CSV rows.  A stacked block's chunk is
ENSEMBLE_CHUNK_STEPS steps, and ENSEMBLE_BLOCK_BYTES bounds its up-front
noise plus its chunk rows.  Under a control law each trajectory's law sees
its own record, so an ensemble's blocks hold one trajectory.  Every run
stepped row by row (a CLI run, a law block, a block too small to stack) has
one chunk rule (`_row_chunk`): as many rows as fit ENSEMBLE_BLOCK_BYTES with
their three full-size copies, so that its memory is bounded at any horizon;
a horizon under the chunk is reduced once as a whole path.  The public
`simulate_*` and `replay_record` are the loop without a reducer, in one
chunk.

Reproducibility: every trajectory's generator is numpy PCG64 keyed by a
splitmix64-mixed seed, `derive_seed(base_seed, index)`, which is
collision-free in the index.  Identical (seed, config) gives bit-identical
records and paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, ValidationError
from .filters import (
    COUNTING,
    MAX_JUMP_PROBABILITY,  # noqa: F401 (public here too, as the sampler's bound)
    ControlLaw,
    MeasurementScheme,
    PathHealth,
    _FrozenBytes,
    _LawRun,
    _model_matrix,
    _require_dt,
    _route,
    _row_step,
    _stack_step,
    _worst_health,
    path_health,
)
from .operators import (
    SystemModel,
    _check_dim,
    _finite_real,
    _operator,
    _real_prefix,
    _require_integer,
    _stack,
    _state,
)

GENERATOR_NAME = f"pcg64-splitmix64/numpy-{np.__version__}"
# Byte budget of one block of ensemble trajectories stepped together: its
# noise, drawn up front (B x steps floats), and its chunk buffer (B x (chunk+1)
# matrices) when it steps as a stack.  It bounds the ensemble's extra memory
# whatever the horizon.  A run stepped row by row (a CLI run, a block under a
# control law, one trajectory whose law reads its whole record, or a block
# too small to stack) spends it on its chunk rows and their copies, beside
# its noise (`_row_chunk`).
ENSEMBLE_BLOCK_BYTES = 2 * 2**20
# Steps per chunk: a block's rows are reduced (observables and health) once
# per chunk.  A reduction is a dozen or so numpy calls, so 64 steps keep it a
# small share of the stepping; longer chunks would leave less of the budget
# for trajectories.
ENSEMBLE_CHUNK_STEPS = 64
# Blocks of fewer trajectories step row by row through the single-matrix
# step, which costs the same per trajectory at any B, where the stacked
# step's dozen numpy calls cost about 9-12 us a block-step whatever B is.
# Homodyne, one BLAS thread, shared 2-vCPU host, us a trajectory-step,
# stacked against row by row: at n = 2, 4.0 / 1.7 at B = 2, 2.1 / 1.7 at
# B = 4, 1.7 / 1.6 at B = 5, 1.5 / 1.7 at B = 6; at n = 4, 2.4 / 2.0 at
# B = 4, 1.8 / 1.9 at B = 6; at n = 8, 5.4 / 5.1 at B = 4, 5.0 / 5.2 at
# B = 5, 4.7 / 5.4 at B = 6.
ENSEMBLE_STACK_ROWS = 5

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _require_seed(seed) -> int:
    """seed as an int, when it is an unsigned 64-bit integer
    (`_require_integer`), the range `derive_seed` mixes without folding two
    seeds into one."""
    seed = _require_integer(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed: must be an unsigned 64-bit integer (0 <= seed < 2**64), got {seed}")
    return seed


def derive_seed(base_seed: int, index: int) -> int:
    """splitmix64 finalizer of base_seed + (index+1)*golden; bijective in the
    index for a fixed base, hence collision-free over any ensemble.  The base
    is a seed as `_require_seed` takes it, the index an integer as
    `_require_integer` takes it."""
    index = _require_integer(index, "trajectory index")
    if index < 0:
        raise ValidationError("trajectory index must be nonnegative")
    z = (_require_seed(base_seed) + (index + 1) * _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


@dataclass(frozen=True)
class ObservationRecord:
    """A measurement record on a uniform grid: increments dY per step.  The
    seed is one `simulate_*` takes (`_require_seed`).  The increments are
    finite real numbers, read as a record prefix is (`operators._real_prefix`),
    and immutable; a copied or unpickled record is built and checked afresh."""

    scheme: MeasurementScheme
    dt: float
    increments: np.ndarray
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.scheme, MeasurementScheme):
            raise ValidationError(f"record scheme: expected a MeasurementScheme, got {self.scheme!r}")
        dt = _finite_real(self.dt, "record dt: {}")
        if dt <= 0:
            raise ValidationError("record dt must be positive")
        inc = _real_prefix(self.increments, "record increments")
        if not np.all(np.isfinite(inc)):
            raise ValidationError("record increments must be finite")
        if self.scheme.kind == COUNTING and inc.size and not np.all((inc == 0.0) | (inc == 1.0)):
            bad = int(np.argmax((inc != 0.0) & (inc != 1.0)))
            raise ValidationError(f"counting record increment {bad} is not 0 or 1")
        # over bytes, which numpy will not make writeable (nor any view of
        # them): no caller can edit a validated record, and `feedback_step`
        # can trust the entries of a record it followed (`_FrozenBytes`)
        object.__setattr__(self, "increments", np.frombuffer(_FrozenBytes(inc.tobytes()), dtype=float))
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "seed", _require_seed(self.seed))

    @property
    def steps(self) -> int:
        return self.increments.size

    @property
    def horizon(self) -> float:
        return self.steps * self.dt

    def times(self) -> np.ndarray:
        """End-of-step timestamps k*dt, k = 1..steps."""
        return self.dt * np.arange(1, self.steps + 1)

    def __reduce__(self):
        # copies and unpickled records go back through the constructor
        return ObservationRecord, (self.scheme, self.dt, self.increments, self.seed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObservationRecord):
            return NotImplemented
        return (
            self.scheme == other.scheme
            and self.dt == other.dt
            and self.seed == other.seed
            and np.array_equal(self.increments, other.increments)
        )

    def __hash__(self) -> int:
        # adding +0.0 turns -0.0 into +0.0, which `np.array_equal` equates
        return hash((self.scheme, self.dt, self.seed, (self.increments + 0.0).tobytes()))


def _grid(horizon: float, dt: float) -> int:
    horizon, dt = _finite_real(horizon, "T: {}"), _require_dt(dt)
    if horizon <= 0:
        raise ValidationError("T must be positive")
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


def _noise(scheme: MeasurementScheme, seed: int, steps: int, dt: float) -> np.ndarray:
    """One trajectory's noise, drawn up front from its own generator: scaled
    Wiener increments for diffusive schemes, uniforms for counting."""
    rng = np.random.default_rng(seed)
    if scheme.kind == COUNTING:
        return rng.random(size=steps)
    return scheme.noise_scale * rng.normal(0.0, math.sqrt(dt), size=steps)


def _integrate(model: SystemModel, rho0, scheme: MeasurementScheme, dt: float, values, law=None, normalized=True,
               sampling=True, first=None, reduce=None, chunk=None):
    """The integration loop: step the filter from rho0 over each row of `values`.

    Row i of `values`, shape (B, steps), is one trajectory's noise, from
    which each increment is drawn given the pre-step state (`sampling`,
    see `filters._sample`), or a record's increments.  The step and the
    step matrix are bound once per run.  A law-free sampled block of
    ENSEMBLE_STACK_ROWS or more rows steps as one (B, n, n) stack through
    the stacked step (`_stack_step`), step k reading the strided column
    values[:, k].  Any other run steps its rows in turn, each through a
    whole chunk before the next, through the single-matrix step
    (`_row_step`) or, under a law, the law run's (`filters._LawRun`;
    `values` then has one row).  Each increment drawn row by row is written
    over its noise, so that the row becomes the record, unless the run is an
    ensemble's law-free block (`first` given, no law), whose records nobody
    reads.  The buffer holds chunk + 1 rows per trajectory (chunk = steps by
    default; `_row_chunk` is the rule of runs stepped row by row).  After
    every `chunk` steps, and after the last, `reduce(start, rows)` gets the
    rows not yet reduced: a C-contiguous (B, m, n, n) array holding time
    indices start .. start+m-1, the initial row included in the first; an
    unnormalized run's reducer also gets their likelihoods (B, m),
    `reduce(start, rows, likelihoods)`, which the loop keeps whole.  The
    last row then moves to slot 0.  Returns the buffer, with the default
    chunk the paths (B, steps+1, n, n), and for unnormalized runs the
    likelihoods (B, steps+1), None for normalized ones.  A row steps the
    same bits in either mode, in any block and in any chunk.

    A failing step raises its error type naming the step and, with `first`,
    the trajectory first + i.  After row i fails at step k, later rows step
    only up to k - 1, so that the earliest failing step is named, and the
    first row among those that fail it; a stack names the first row to
    fail the check that comes first in a step (the jump bound, then a jump
    at zero rate, then the trace).
    """
    w = _state(rho0, model.dim, "rho0").matrix
    rows, steps = values.shape
    n = model.dim
    chunk = steps if chunk is None else chunk
    run = None
    if law is None:
        s = _model_matrix(model, scheme.phase, scheme.kind == COUNTING, dt)
    else:
        _check_dim(law.h0, model.dim, "control H0/H1")
        run = _LawRun(law, model, scheme, dt, normalized, sampling, steps)
        s, step, control, advance = run.s, run.step, run.control, run.advance
    buffer = np.empty((rows, chunk + 1, n, n), dtype=complex)
    buffer[:, 0] = w
    traces = None if normalized else np.ones((rows, steps + 1))
    stacked = run is None and sampling and rows >= ENSEMBLE_STACK_ROWS
    if stacked:
        step = _stack_step(rows, n, dt, _route(scheme), scheme.gain)
        stack = buffer.reshape(rows, chunk + 1, 1, n * n)
        slots = [stack[:, j] for j in range(chunk + 1)]
    else:
        vecs = buffer.reshape(rows, chunk + 1, n * n)
        if run is None:
            step = _row_step(n, dt, _route(scheme), scheme.gain, normalized, sampling)
    writes = sampling and (run is not None or first is None)
    limit, failure, u = steps, None, 0.0
    # chunk is 0 only when steps is; a run of no steps reduces its initial row
    for start in range(0, max(steps, 1), max(chunk, 1)):
        stop = min(start + chunk, steps)
        if stacked:
            try:
                for k, here, there in zip(range(start, stop), slots, slots[1:]):
                    step(here, s, values[:, k], there)
            except (ValidationError, NumericalFailure) as exc:
                failure = k, exc.row, exc
        else:
            for i in range(rows):
                record, vec = values[i], vecs[i]
                likelihoods = None if traces is None else traces[i]
                here = vec[0]
                # Python floats, which numpy scalar arithmetic would cost
                # microseconds a step: a memoryview makes each as it is read,
                # where a list would hold them all (32 bytes a step); entry k
                # is read before step k writes its dy there
                for k, value, there in zip(range(start, min(stop, limit)), memoryview(record[start:stop]), vec[1:]):
                    try:
                        if run is not None:
                            u = control(k * dt, record, k)
                        tr, dy = step(here, s, value, there, u)
                    except (ValidationError, NumericalFailure) as exc:
                        limit, failure = k, (k, i, exc)
                        break
                    if writes:
                        record[k] = dy
                    if likelihoods is not None:
                        likelihoods[k + 1] = tr
                    if run is not None:
                        advance(dy)
                    here = there
        if failure is not None:
            k, i, exc = failure
            where = f"step {k}" if first is None else f"trajectory {first + i}, step {k}"
            raise type(exc)(f"{where}: {exc}") from None
        if reduce is not None:
            # einsum on a strided view need not sum in the order it does on
            # a contiguous path, hence the copy
            lo = 1 if start else 0
            rows_done = np.ascontiguousarray(buffer[:, lo : stop - start + 1])
            if traces is None:
                reduce(start + lo, rows_done)
            else:
                reduce(start + lo, rows_done, traces[:, start + lo : stop + 1])
        if stop < steps:
            buffer[:, 0] = buffer[:, stop - start]
    return buffer, traces


def _row_chunk(steps: int, rows: int, n: int) -> int:
    """Steps per chunk of a run of `rows` trajectories stepped row by row,
    n x n matrices: as many as let the chunk's rows and their three
    full-size copies (the loop's contiguous copy for the reducer, the
    audit's Hermitian part and adjoint), 4 (chunk + 1) rows n^2 complex
    entries, fit ENSEMBLE_BLOCK_BYTES, never fewer than ENSEMBLE_CHUNK_STEPS
    (8191 steps for one trajectory at n = 2, 511 at n = 8), and at most the
    horizon."""
    return min(steps, max(ENSEMBLE_CHUNK_STEPS, ENSEMBLE_BLOCK_BYTES // (4 * rows * n * n * 16) - 1))


def _simulate(model: SystemModel, rho0, scheme: MeasurementScheme, horizon: float, dt: float, seed: int,
              law=None, reduce=None, chunk=None):
    """The loop of `simulate_homodyne` and `simulate_counting`: one
    trajectory's noise, seeded by `seed` (as `_require_seed` gives it),
    stepped through `_integrate` with `reduce` and `chunk`.  Returns the
    record and the loop's buffer, the path (steps+1, n, n) in one chunk."""
    values = _noise(scheme, seed, _grid(horizon, dt), dt)[None]
    paths, _ = _integrate(model, rho0, scheme, dt, values, law, reduce=reduce, chunk=chunk)
    return ObservationRecord(scheme, dt, values[0], seed=seed), paths[0]


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
    seed = _require_seed(seed)
    scheme = MeasurementScheme.homodyne() if scheme is None else scheme
    if not scheme.is_diffusive:
        raise ValidationError("simulate_homodyne needs a homodyne or imperfect scheme")
    return _simulate(model, rho0, scheme, horizon, dt, seed, law)


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
    return _simulate(model, rho0, MeasurementScheme.counting(), horizon, dt, _require_seed(seed), law)


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
        x = _operator(observable, self.matrices.shape[-1], "observable", "path")
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
    paths, likelihoods = _integrate(model, rho0, record.scheme, record.dt, record.increments[None], law, normalized,
                                    sampling=False)
    return FilterRun(times, paths[0], "bks" if normalized else "zakai", None if normalized else likelihoods[0])


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


class _EnsembleSums:
    """The ensemble's running sums, added a block and a chunk at a time.

    Called as `reduce(start, rows)` with rows (B, m, n, n) of B trajectories
    in index order at time indices start .. start+m-1 (see `_integrate`).
    Each time index receives its trajectories in index order, so the sums
    equal a trajectory-by-trajectory loop bit for bit.  `sums`, of shape
    (observables, 3, steps + 1), holds per observable the sums of the values
    x, which give the means, of d = x - K and of the squares of d's parts,
    packed as d.re^2 + i d.im^2 (complex addition is componentwise, so each
    part sums as a float would), K being trajectory 0's value at that time
    index (`shifts`): the variance (sum d^2 - (sum d)^2 / N) / (N - 1) then
    loses no digits to cancellation when the spread is small beside the
    mean.  The first call to reach a time index comes from the first block,
    whose row 0 is trajectory 0, and sets K there.  A call writes the span's
    sums and its B trajectories' terms into one (B + 1, observables, 3, m)
    array and adds its rows by one `np.add.reduce` over the first axis.
    numpy pairs terms up only along the innermost axis of a reduction, so
    over the outermost it adds row after row, in order (tests pin this
    against a Python loop).
    """

    def __init__(self, observables: dict, steps: int, collect_health: bool):
        self.observables = list(observables.values())
        self.sums = np.zeros((len(self.observables), 3, steps + 1), dtype=complex)
        self.shifts = np.zeros((len(self.observables), steps + 1), dtype=complex)
        self.shifted = 0  # the time indices whose K is set
        self.audits = [] if collect_health else None

    def __call__(self, start: int, rows: np.ndarray) -> None:
        b, m, n, _ = rows.shape
        if self.audits is not None:
            self.audits.append(path_health(rows.reshape(b * m, n, n), normalized=True))
        span = slice(start, start + m)
        fresh = start + m > self.shifted
        if fresh:
            self.shifted = start + m
        terms = np.empty((b + 1, len(self.observables), 3, m), dtype=complex)
        terms[0] = self.sums[:, :, span]
        for o, x in enumerate(self.observables):
            # one einsum an observable: one over all of them sums in another
            # order, which moves the values' bits
            vals = terms[1:, o, 0] = np.einsum("btij,ji->bt", rows, x)
            if fresh:
                self.shifts[o, span] = vals[0]
            shifted = np.subtract(vals, self.shifts[o, span], out=terms[1:, o, 1])
            # a complex array's float view holds its parts in turn
            np.square(shifted.view(float), out=terms[1:, o, 2].view(float))
        self.sums[:, :, span] = np.add.reduce(terms, axis=0)

    def health(self) -> PathHealth | None:
        """The worst of every audit (`filters._worst_health`), or None
        without health."""
        return None if self.audits is None else _worst_health(self.audits)


def _step_ensemble(model, rho0, scheme, n_trajectories, seed, steps, dt, law, reduce) -> None:
    """Step the ensemble's trajectories in index order, a block at a time
    through `_integrate`, feeding `reduce`.

    Without a law, blocks hold B trajectories, B being as large as lets the
    block's noise (B x steps floats) and the chunk rows of a stack
    (B x (ENSEMBLE_CHUNK_STEPS+1) matrices) fit in ENSEMBLE_BLOCK_BYTES.  A
    block of ENSEMBLE_STACK_ROWS or more steps as a stack, in chunks of
    ENSEMBLE_CHUNK_STEPS steps.  With a law, each trajectory's law sees its
    own record, so blocks hold one trajectory.  A block stepped row by row
    (under a law, or of fewer than ENSEMBLE_STACK_ROWS trajectories) pays
    for a reduction as a stack does, without a stack's steps to spread it
    over, so it is chunked by the budget (`_row_chunk`); a shorter horizon
    is reduced once as a whole path.
    """
    size = 1
    if law is None:
        size = max(1, ENSEMBLE_BLOCK_BYTES // (steps * 8 + (min(steps, ENSEMBLE_CHUNK_STEPS) + 1) * model.dim**2 * 16))
    for first in range(0, n_trajectories, size):
        rows = min(size, n_trajectories - first)
        if law is None and rows >= ENSEMBLE_STACK_ROWS:
            chunk = min(steps, ENSEMBLE_CHUNK_STEPS)
        else:
            chunk = _row_chunk(steps, rows, model.dim)
        noise = np.stack([_noise(scheme, derive_seed(seed, i), steps, dt) for i in range(first, first + rows)])
        _integrate(model, rho0, scheme, dt, noise, law, first=first, reduce=reduce, chunk=chunk)


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

    Trajectory i uses the generator seeded with derive_seed(seed, i), as
    `simulate_homodyne` or `simulate_counting` would, and follows the same
    path they give; reduction runs in index order, so results are
    reproducible.  n_trajectories and seed are integers (a numpy one reads
    as int), not bools, and seed is below 2**64.
    """
    seed = _require_seed(seed)
    n_trajectories = _require_integer(n_trajectories, "n_trajectories", minimum=1)
    obs = {name: _operator(x, model.dim, f"observable {name!r}") for name, x in observables.items()}
    steps = _grid(horizon, dt)
    times = dt * np.arange(steps + 1)
    acc = _EnsembleSums(obs, steps, collect_health)
    _step_ensemble(model, rho0, scheme, n_trajectories, seed, steps, dt, law, acc)
    n = n_trajectories
    totals, shifted, squares = acc.sums.transpose(1, 0, 2)
    # per observable, the standard errors of the real and imaginary parts in
    # turn, from the float views of their sums
    stderrs = (np.sqrt(np.maximum(squares.view(float) - shifted.view(float)**2 / n, 0.0) / (n - 1) / n) if n > 1
               else np.zeros((len(obs), 2 * (steps + 1))))
    return EnsembleSummary(times, dict(zip(obs, totals / n)), dict(zip(obs, stderrs[:, 0::2])),
                           dict(zip(obs, stderrs[:, 1::2])), n, scheme, acc.health())


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
    paths = [_stack(p, f"path {idx}") for idx, p in enumerate(paths)]
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
        _check_dim(path, model.dim, f"path {idx}")
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

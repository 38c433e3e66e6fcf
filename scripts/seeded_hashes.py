#!/usr/bin/env python3
"""Print one sha256 per seeded belfilt case, to check bit identity.

Every case runs through belfilt's public API only, so the script runs on any
checkout of the package.  Run it on two checkouts and compare the outputs:

    PYTHONPATH=src python3 scripts/seeded_hashes.py > after.txt
    PYTHONPATH=../old/src python3 scripts/seeded_hashes.py > before.txt
    diff before.txt after.txt

Cases, at each dimension: simulate_homodyne (homodyne and imperfect with
kappa = 1, phase = 0.3) and simulate_counting; bks and zakai replays of each
record, likelihoods included; a closed loop under an expression law and the
same record fed online through feedback_step, every state hashed, and the
same pair under a Python callable law and under the expression law with a
time-dependent channel map; ensembles with health, with and without the
expression law, and of two trajectories without a law ("ensemble pair",
a block small enough to step row by row); semigroup_path on a uniform and
a non-uniform grid, whose values follow the package's own matrix
exponential (operators._expm).  At each dimension, on the first seed's
random model and start, a "semigroup evolve" case hashes semigroup_evolve
at three times, and a "semigroup closed" case semigroup_path under the
model's Hamiltonian without channels, on a uniform and a non-uniform
grid, so that closed systems, whose generator is the Hamiltonian block
alone, are covered too.  At n = 8, on the first seed's random model, a
"law ensemble (chunked)" case runs a two-trajectory homodyne ensemble under
the expression law over CHUNKED's 2100 steps, more than one chunk of a
law ensemble's block (511 steps at n = 8), so that each trajectory is
reduced in several chunks.  At each dimension, on the first seed's random
model, "cli" cases run the CLI itself (belfilt.cli.run) over CLI_STEPS's
steps, more than one chunk of a CLI run at that dimension: per scheme, one
hashes the bytes simulate writes (record.csv, path.csv) and those filter
writes from that record (bks, and zakai with its likelihood column), and
"cli master" the bytes master writes; each also hashes the commands' exit
codes and error lines, so that a refused run (the homodyne runs breach
positivity at the default dt) is compared too.  At n = 2, a "cli master
(fine grid)" case hashes what master writes over FINE_MASTER's grid of
9000 steps of dt = 1e-3.  At each dimension, one "law online
(writeable copy)" case feeds the first seed's homodyne record online from a writeable copy
of its increments: feedback_step compares such prefixes, where it trusts
a record's own immutable increments unread, and the case must hash as its
"law online" line does.  At each dimension and scheme, on the first
seed's random model, a "law online (state re-fed)" case feeds the same
record online handing each state to two calls, the second's result going
on, and must hash as its "law online" line does; a "law online (zakai)"
case feeds it to the unnormalized filter, hashing every state and
likelihood.  Per seed, a "law direct" case hashes the values of compiled
expression laws called directly on a prefix that grows, shrinks and is
edited in place.  At each dimension, a "law grammar" case runs a closed
loop under GRAMMAR_LAW, an expression with t, unary minus, division, a
constant above 2**53 and a window longer than the early prefixes, on the
first seed's model, and feeds the same record online, hashing the record,
the closed-loop path and the online states.  Three "config" cases come
first: what belfilt.config.load_config builds from each shipped config
(configs/*.json) and from SIGNED_CONFIG, whose numbers take every sign,
-0.0 included, as integers and decimals: its matrices, scheme, dt, T and
other keys.  Then one "inputs (lists and int arrays)" case hands the first
seed's random models, starts and observables at every dimension over as
nested Python lists and int arrays, and hashes what the package builds and
computes from them.  At each dimension, on the first seed's random model,
"replay (empty record)" cases replay a zero-step homodyne record with the
bks and zakai filters.  One "csv formatter corpus" case hashes the bytes
each CSV writer (write_record, write_path_csv, write_ensemble_csv and
write_master_csv) puts in a file of formatter_corpus()'s values, chosen
where a vectorized '%.17g' could go wrong.
Each simulated, closed-loop and replayed path also hashes its path_health
monitors (worst eigenvalue, trace and Hermiticity defects),
taken on the normalized matrices as the CLI's simulate and filter commands
audit them.  Dimension 2 adds the qubit-decay model (H = 0, L = sigma-)
from a diagonal and from a coherent start.  A case that raises hashes its
error type and message instead, so errors are compared too.  Each run that
succeeds also writes its CSV files through belfilt.recordio (record and path
after a simulation, the path with likelihoods after a replay, the ensemble
table, the master path of the uniform grid) and a "csv" case hashes their
bytes, so the diff covers the byte-stable formats as well.  Two cases read
a private function: "stacked paths" hashes the raw paths of the first 3
trajectories stepped as one block by the integration loop,
trajectories._integrate (trajectories._integrate_stack on checkouts from
before the one loop), and "stacked paths (8 rows)" those of the first 8,
so that block rows are checked directly and not only through the
ensemble sums; a checkout with neither hashes the AttributeError.  A block
of 3 steps row by row through the single-matrix step and one of 8 through
the stacked step (trajectories.ENSEMBLE_STACK_ROWS), so the pair covers
both; checkouts from before the row-by-row rule stepped both as stacks,
with the same bits.

Outputs from n = 7 on (n = 8 among the defaults) depend on the BLAS
thread count: OpenBLAS threads a vector-matrix product of 4096 entries or
more, and the step matrix has n^2 (3n^2 + 3) entries, n^2 (4n^2 + 3) under
a control law.  The default dimensions include n = 6, the one at which
only the law lines (law simulate, law online, their callable and
channel-map pairs, ensemble law) cross that size.  Compare checkouts at
the same OPENBLAS_NUM_THREADS.

To see how far outputs moved rather than whether they did, save one
checkout's outputs and compare the other's against them; each case then
prints its largest deviation of filter matrices (and ensemble means), of
ensemble standard errors, of likelihoods relative to their size, of record
increments, of health monitors (worst eigenvalue, trace and Hermiticity
defects, of serial paths and of ensembles) and of control values, and for
CSV cases 1 if the bytes (or, in a "cli" case, the exit codes and error
lines) differ, 0 if not:

    PYTHONPATH=../old/src python3 scripts/seeded_hashes.py --save before
    PYTHONPATH=src python3 scripts/seeded_hashes.py --against before

The hashes broke five times, by design.  First when the filter step moved to
Liouville space (one product with a step matrix instead of separate n x n
products): the summation order changed and outputs moved by about 1e-14;
tests/test_liouville_step.py holds the step within 1e-12 of the old kernel
(`reference_kernel` in tests/helpers.py) instead.  Then when the
Hamiltonian moved into the step matrix and the update became one product
of the coefficients, divided by the trace, with the step's blocks: over
the default cases, normalized paths and ensemble means moved by at most
3.1e-15, unnormalized (Zakai) matrices by at most 2.5e-14, likelihoods by
at most 8.1e-15 relative and homodyne increments by at most 5.6e-17, with
no count moved.  Then when a control law's H1 left the step matrix for a
block of its own, with u a fourth coefficient of the update: the law lines
alone moved (law simulate, law online and the callable and channel-map
pairs, ensemble law), paths and ensemble means by at most 2.7e-15,
increments by at most 5.6e-17 and health monitors by at most 8.0e-16, with
no count moved, pinned and unpinned alike; ensemble standard errors where
every trajectory holds the same value (counting before a first count) went
from 0 to at most 3.8e-8, the square root of a rounding.  Every other line
kept its hash.  Then when ensemble variances took their sums about
trajectory 0's value at each time index, which cancels no digits: the
ensemble lines (stacked, pair, law) and their csv lines alone moved,
standard errors by at most 3.8e-8 (where every trajectory holds the same
value, the old sums' square root of a rounding is now 0), and means and
health monitors not at all, pinned and unpinned alike.  Last when the
semigroup's exponential moved from scipy.linalg.expm to the package's own
Pade scaling and squaring: the 42 semigroup lines alone moved (uniform,
uniform csv and uneven at every dimension and model), paths by at most
3.1e-14, pinned and unpinned alike.  A diff across any of these changes
is therefore not empty; compare checkouts on the same side of them, or use
--against.  Building the semigroup's generator once per call, its
Hamiltonian part from the block the step matrices use, moved no line,
"semigroup evolve" and "semigroup closed" included, pinned and unpinned
alike; nor did reading every number of a config through the package's
one pair of readers (operators._finite_real and _require_integer), the
"config" cases included.  Nor did adding each chunk of an ensemble's
sums by one accumulate into one array, nor stepping law ensembles in
chunks: the "law ensemble (chunked)" line equals a run on a checkout that
reduced each law trajectory once, pinned and unpinned alike.  Nor did
adding the chunk by one reduce, reducing small ensemble blocks in chunks
as large as the block budget, or serving a bound feedback_step call
through one method of its run that builds its state without
FilterState.__init__: the "law online (state re-fed)" and "law online
(zakai)" lines equal a run of this script on a checkout from before.  Nor
did reading every outside matrix, state and observable through one entry
reader (operators._entries): the "inputs (lists and int arrays)" line
equals a run of this script on a checkout from before, pinned and
unpinned alike, where the "replay (empty record)" lines hash the
ValueError such checkouts raised.  Nor did streaming the CLI's simulate,
filter and master through one chunked reducer: the "cli" lines equal a run
of this script on a checkout from before, which wrote whole paths, pinned
and unpinned alike.  Nor did handing master's grid to the semigroup loop as
its step and step count, never tested for uniformity again: every line but
"cli master (fine grid)" equals a run of this script on a checkout from
before, pinned and unpinned alike; that one's uniformity test refused the
grid, so that it took one exponential a point.  Nor did formatting every
CSV table through one vectorized '%.17g' writer (recordio._csv_rows): every
line, "csv formatter corpus" included, equals a run of this script on a
checkout from before, pinned and unpinned alike.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from belfilt import (
    ControlLaw,
    DensityState,
    FilterState,
    MeasurementScheme,
    ObservationRecord,
    SystemModel,
    compile_control_expression,
    derive_seed,
    ensemble_average,
    feedback_step,
    lindblad_adjoint,
    lindblad_heisenberg,
    path_health,
    random_density,
    random_hermitian,
    random_model,
    replay_record,
    semigroup_evolve,
    semigroup_path,
    simulate_counting,
    simulate_homodyne,
)
import belfilt.cli
import belfilt.trajectories
from belfilt.config import load_config, matrix_to_entries
from belfilt.operators import SIGMA_MINUS, SIGMA_X, SIGMA_Z
from belfilt.recordio import write_ensemble_csv, write_master_csv, write_path_csv, write_record

LAW = "0.2 * Y - 0.5 * ma(Y, 50)"
# every kind of node of the control grammar, where the compiled body could
# part from the reference evaluator: 2**53 + 1 reads as the float 2**53
GRAMMAR_LAW = "-(0.3 * Y) + 9007199254740993 / (9007199254740992 + 4 * t) - ma(Y, 40) / (1 + t) - -t"
DIRECT_LAWS = (LAW, "Y / (2 + t) / (3 - ma(Y, 7) / (1 + Y * Y))", "-Y + -ma(Y, 3) - -t")
SCHEMES = {
    "homodyne": MeasurementScheme.homodyne(),
    "imperfect": MeasurementScheme.imperfect(1.0, 0.3),
    "counting": MeasurementScheme.counting(),
}
STACKED = (3, 8)
# the "law ensemble (chunked)" case: its dimension and steps, more than the
# 511 steps of one chunk of a law ensemble's block at n = 8 (2047 on
# checkouts from before a chunk's copies counted against the block budget)
CHUNKED = (8, 2100)
# the "cli" cases: the steps of each CLI run at a dimension, more than one
# chunk of a CLI run there (8191, 3639, 2047, 909 and 511 steps at n = 2,
# 3, 4, 6 and 8) and not a multiple of it; CLI_STEPS_ELSEWHERE at others
CLI_STEPS = {2: 9000, 3: 4000, 4: 2500, 6: 1000, 8: 600}
CLI_STEPS_ELSEWHERE = 600
# the "cli master (fine grid)" case: its dimension, dt and steps, past the
# 8001 steps of dt = 1e-3 up to which checkouts that tested the CLI's
# master grid for uniformity found it uniform
FINE_MASTER = (2, 1e-3, 9000)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# a config whose numbers take every sign, -0.0 included, and both JSON
# forms (integers and decimals), in its matrices and its scalar keys
SIGNED_CONFIG = {
    "dim": 3,
    "hamiltonian": [[0, 0, -0.0, 0.0], [0, 1, 0.25, -0.5], [1, 0, 0.25, 0.5], [1, 1, -1, -0.0],
                    [1, 2, -0.0, -0.125], [2, 1, 0.0, 0.125], [2, 2, 0.75, 0]],
    "channels": [[[0, 1, 0.5, -0.0], [1, 2, -0.25, 0.5], [2, 0, -0.0, -1]]],
    "rho0": [[0, 0, 0.5, -0.0], [1, 1, 0.25, 0.0], [2, 2, 0.25, 0], [0, 1, -0.125, 0.0625],
             [1, 0, -0.125, -0.0625], [0, 2, -0.0, -0.0], [2, 0, 0.0, 0.0]],
    "scheme": "imperfect",
    "kappa": 1,
    "phase": -0.0,
    "dt": 0.01,
    "T": 1,
    "seed": 3,
    "n_trajectories": 2,
    "observables": {"neg": [[0, 0, -1, -0.0], [2, 2, -0.0, 0]], "mix": [[0, 2, -0.5, 0.25], [2, 0, -0.5, -0.25]]},
    "control_expression": "0.5 * Y - t",
    "control_h1": [[0, 1, -0.5, -0.0], [1, 0, -0.5, 0.0]],
}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if part is None:
            h.update(b"none")
        elif isinstance(part, bytes):
            h.update(part)
        elif isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def attempt(run):
    """(run(), None), or (None, the error it raised as case parts)."""
    try:
        return run(), None
    except Exception as exc:  # noqa: BLE001 - an error is an outcome to compare
        return None, (("error", type(exc).__name__), ("error", str(exc)))


def simulate(model, rho0, scheme, horizon, dt, seed, law=None):
    if scheme.kind == "counting":
        return simulate_counting(model, rho0, horizon, dt, seed, law=law)
    return simulate_homodyne(model, rho0, horizon, dt, seed, scheme=scheme, law=law)


def online_parts(model, rho0, scheme, record, law, dt, copied=False, normalized=True, refed=False):
    """The case parts of the record fed online, one feedback_step per
    increment: every state, and the likelihoods of an unnormalized (Zakai)
    run.  `copied` hands over the prefixes of a writeable copy of the
    increments; `refed` hands each state to two calls, the second's result
    going on, so that a state is fed again after the run stepped it."""
    state = FilterState.from_density(rho0, normalized)
    states = [state]
    inc = record.increments
    prefixes = np.array(inc) if copied else inc
    for k in range(inc.size):
        if refed:
            feedback_step(state, inc[k], law, model, prefixes[:k], dt, scheme, k * dt)
        state = feedback_step(state, inc[k], law, model, prefixes[:k], dt, scheme, k * dt)
        states.append(state)
    parts = (("path", np.stack([s.matrix for s in states])),)
    return parts if normalized else (*parts, ("likelihood", np.array([s.likelihood for s in states])))


def other_laws(model, h1):
    """(label, law) of the laws beside the expression law: a Python callable
    on the record prefix, and the expression law with a channel map that
    scales the model's first channel in time."""
    callable_law = ControlLaw(lambda t, prefix: 0.5 * float(np.sum(prefix[-20:])) - 0.1 * t, model.hamiltonian, h1)
    channel = model.channels[0]
    mapped = ControlLaw(compile_control_expression(LAW), model.hamiltonian, h1,
                        channel_map=lambda t, prefix: (1.0 + 0.5 * np.sin(3.0 * t)) * channel)
    return ("callable", callable_law), ("channel map", mapped)


def direct_values(seed: int) -> np.ndarray:
    """u of each of DIRECT_LAWS, called directly on a prefix that grows one
    entry at a time, then shrinks, then is edited in place."""
    record = np.random.default_rng(seed).normal(0.0, 0.03, 300)
    values = []
    for expression in DIRECT_LAWS:
        u = compile_control_expression(expression)
        values += [u(0.37 + 1e-3 * k, record[:k]) for k in (*range(120), 300, 40, 0, 41)]
        buf = record[:100].copy()
        values += [u(0.5, buf[:60]), u(0.5, buf[:61])]
        buf[2] += 0.5
        values += [u(0.5, buf[:61]), u(0.5, buf[:62])]
        buf[0] = -buf[0]
        values += [u(0.5, buf[:62]), u(0.5, buf)]
    return np.array(values)


def grammar_parts(dim: int, seed: int, horizon: float, dt: float):
    """The "law grammar" case: a homodyne closed loop under GRAMMAR_LAW on
    the seed's random model, then its record fed online."""
    _, model, rho0, _, h1 = next(model_cases(dim, seed))
    law = ControlLaw.from_expression(GRAMMAR_LAW, model.hamiltonian, h1)
    scheme = SCHEMES["homodyne"]
    closed, err = attempt(lambda: simulate(model, rho0, scheme, horizon, dt, seed, law=law))
    if err:
        return err
    online, err = attempt(lambda: online_parts(model, rho0, scheme, closed[0], law, dt))
    return err or (("record", closed[0].increments), ("path", closed[1]), *online)


def uneven_times(dt: float) -> np.ndarray:
    """The non-uniform grid of the "semigroup uneven" and "semigroup closed"
    cases: 0 and seven steps growing from 5 dt to 15 dt."""
    return np.concatenate(([0.0], np.cumsum(np.linspace(0.5, 1.5, 7) * dt * 10)))


def chunked_law_parts(seed: int, dt: float):
    """The "law ensemble (chunked)" case: a two-trajectory homodyne ensemble
    with health under LAW on the seed's random model at CHUNKED's dimension,
    over CHUNKED's steps, so that each trajectory is reduced in two chunks
    (checkouts from before law chunks reduced it once, with the same bits)."""
    dim, steps = CHUNKED
    _, model, rho0, obs, h1 = next(model_cases(dim, seed))
    law = ControlLaw.from_expression(LAW, model.hamiltonian, h1)
    summary, err = attempt(lambda: ensemble_average(model, SCHEMES["homodyne"], obs, 2, seed, steps * dt, dt, rho0,
                                                    law=law, collect_health=True))
    return err or ensemble_parts(summary)


def cli_run(argv) -> tuple:
    """(exit code, error output) of one in-process CLI command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = belfilt.cli.run([str(a) for a in argv])
    return code, err.getvalue()


def master_parts(config: Path, out: Path):
    """The bytes the CLI's master writes under `config` to `out`, and its
    exit code and error lines."""
    outcome, err = attempt(lambda: cli_run(["master", "--config", config, "--out", out]))
    master = out / "master.csv"
    return err or (*((("csv", master.read_bytes()),) if master.exists() else ()), ("exit", repr(outcome).encode()))


def cli_cases(dim: int, seed: int, dt: float, scratch: Path):
    """(label, parts) of the "cli" cases at one dimension: on the seed's
    random model over CLI_STEPS's steps, per scheme, the bytes the CLI's
    simulate writes (record, then path) and those its filter writes from
    that record (bks, then zakai), then the bytes its master writes, and at
    FINE_MASTER's dimension those master writes over FINE_MASTER's grid;
    each case also hashes its commands' exit codes and error lines."""
    _, model, rho0, obs, _ = next(model_cases(dim, seed))
    steps = CLI_STEPS.get(dim, CLI_STEPS_ELSEWHERE)
    raw = {"dim": dim, "hamiltonian": matrix_to_entries(model.hamiltonian),
           "channels": [matrix_to_entries(model.channel)], "rho0": matrix_to_entries(rho0.matrix), "dt": dt,
           "T": steps * dt, "seed": seed, "observables": {name: matrix_to_entries(x) for name, x in obs.items()}}
    for sname, scheme in SCHEMES.items():
        here = scratch / f"cli-{dim}-{sname}"
        configs = {}
        for kind in ("bks", "zakai"):
            configs[kind] = here / f"{kind}.json"
            configs[kind].parent.mkdir(parents=True, exist_ok=True)
            configs[kind].write_text(json.dumps(dict(raw, scheme=scheme.kind, kappa=scheme.kappa, phase=scheme.phase,
                                                     filter_kind=kind)))
        outcomes, err = attempt(lambda: [cli_run(["simulate", "--config", configs["bks"], "--out", here / "sim"])] + [
            cli_run(["filter", "--config", configs[kind], "--record", here / "sim" / "record.csv", "--out", here / kind])
            for kind in ("bks", "zakai") if (here / "sim" / "record.csv").exists()])
        files = [here / "sim" / "record.csv", here / "sim" / "path.csv", here / "bks" / "path.csv",
                 here / "zakai" / "path.csv"]
        yield f"{sname} cli csv", err or (*(("csv", f.read_bytes()) for f in files if f.exists()),
                                          ("exit", repr(outcomes).encode()))
    yield "cli master csv", master_parts(configs["bks"], here / "master")
    if dim == FINE_MASTER[0]:
        _, fine_dt, fine_steps = FINE_MASTER
        fine = scratch / f"cli-{dim}-fine.json"
        fine.write_text(json.dumps(dict(raw, scheme="homodyne", dt=fine_dt, T=fine_steps * fine_dt)))
        yield "cli master (fine grid) csv", master_parts(fine, scratch / f"cli-{dim}-fine")


def semigroup_parts(dim: int, seed: int, horizon: float, dt: float):
    """The "semigroup evolve" and "semigroup closed" cases on the seed's
    random model and start: semigroup_evolve at three times, then
    semigroup_path under the model's Hamiltonian without channels on a
    uniform and a non-uniform grid."""
    _, model, rho0, _, _ = next(model_cases(dim, seed))
    closed = SystemModel(model.hamiltonian)
    uniform = dt * np.arange(int(round(horizon / dt)) + 1)
    states, err = attempt(lambda: [semigroup_evolve(rho0, model, t).matrix for t in (0.0, horizon / 7, horizon)])
    yield "semigroup evolve", err or tuple(("path", m) for m in states)
    paths, err = attempt(lambda: [semigroup_path(rho0, closed, times) for times in (uniform, uneven_times(dt))])
    yield "semigroup closed", err or tuple(("path", m) for m in paths)


def empty_replay_parts(dim: int, seed: int):
    """The "replay (empty record)" cases: bks and zakai replays of a
    zero-step homodyne record on the seed's random model, which give the
    start alone (checkouts from before raised for them)."""
    _, model, rho0, _, _ = next(model_cases(dim, seed))
    empty = ObservationRecord(SCHEMES["homodyne"], 1e-3, [])
    for kind in ("bks", "zakai"):
        replay, err = attempt(lambda: replay_record(empty, model, rho0, kind=kind))
        yield f"replay (empty record) {kind}", err or (("path", replay.matrices), ("likelihood", replay.likelihoods))


def listed_parts(seed: int, dims):
    """The "inputs (lists and int arrays)" case: at each dimension, the
    seed's random model, start and observables handed over as nested Python
    lists and int arrays, and what the package builds and computes from
    them: the model's and a law's operators, the state and one built from a
    list vector, both generators' values, expectations and a replay's, a
    path audit and a short ensemble."""
    parts = []
    for dim in dims:
        _, model, rho0, obs, h1 = next(model_cases(dim, seed))
        listed = SystemModel(model.hamiltonian.tolist(), [c.tolist() for c in model.channels])
        state = DensityState(rho0.matrix.tolist())
        counts = np.diag(np.arange(dim))  # an int array
        law = ControlLaw.from_expression(LAW, counts.tolist(), h1.tolist())
        record = ObservationRecord(SCHEMES["homodyne"], 5e-3, np.random.default_rng(seed).normal(0.0, 0.07, 40))
        replay = replay_record(record, listed, state.matrix.tolist())
        summary = ensemble_average(listed, SCHEMES["homodyne"], {"h": obs["h"].tolist(), "n": counts}, 2, seed,
                                   0.05, 5e-3, rho0.matrix.tolist())
        vector = DensityState.from_vector(list(range(1, dim + 1)))
        parts += [("path", listed.hamiltonian), *(("path", c) for c in listed.channels), ("path", state.matrix),
                  ("path", law.h0), ("path", law.h1), ("path", vector.matrix),
                  ("path", lindblad_heisenberg(counts, listed)),
                  ("path", lindblad_adjoint(state.matrix.tolist(), listed)),
                  ("path", np.array([state.expectation(counts), state.expectation(obs["h"].tolist())])),
                  ("path", replay.expectations(counts.tolist())), *health_parts(path_health(replay.matrices.tolist())),
                  *ensemble_parts(summary)]
    return parts


def config_cases(scratch: Path):
    """(name, parts) of the "config" cases: what load_config builds from
    each shipped config and from SIGNED_CONFIG, its matrices as paths (the
    observables by name) and its scheme, dt, T and other keys as values."""
    signed = scratch / "signed.json"
    signed.write_text(json.dumps(SIGNED_CONFIG))
    for path in (*sorted(CONFIGS.glob("*.json")), signed):
        cfg, err = attempt(lambda: load_config(path))
        if err:
            yield f"config {path.name}", err
            continue
        matrices = [cfg.hamiltonian, *cfg.channels, cfg.rho0.matrix, cfg.control_h1]
        matrices += [cfg.observables[name] for name in sorted(cfg.observables)]
        values = (cfg.dim, cfg.scheme.kind, cfg.scheme.kappa, cfg.scheme.phase, cfg.dt, cfg.horizon, cfg.seed,
                  cfg.n_trajectories, sorted(cfg.observables), cfg.control_expression, cfg.filter_kind)
        yield f"config {path.name}", (*(("path", m) for m in matrices), ("config", repr(values)))


def formatter_corpus() -> np.ndarray:
    """Values where a vectorized '%.17g' could go wrong, each with both
    signs: zeros, subnormals, the largest double, inf and nan; the ends of
    the range the CSV writer computes digits for (1e-29 and 1e16) and of
    fixed notation (1e-4 and 1e17); every power of ten from 1e-32 to 1e19
    with its neighbouring doubles; 2^k for every k; exact and near ties of
    the 17th digit; and seeded normals, scaled normals, bit patterns and a
    time grid."""
    values = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
              math.inf, math.nan, 1.0, 0.1, 99999.99999999999,
              2.0**-25, 3 * 2.0**-25, 1234567890123456.75, 1234567890123456.25]  # exact ties
    for edge in (1e16, 1e-29, 1e17, 1e-4, 1e-5):
        values += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
    for k in range(-32, 20):
        power = float(f"1e{k}")
        below = math.nextafter(power, 0.0)
        values += [power, below, math.nextafter(below, 0.0), math.nextafter(power, math.inf)]
    values += [2.0**k for k in range(-1074, 1024)]
    rng = np.random.default_rng(33)
    digits, exponents = rng.integers(10**16, 10**17, size=500), rng.integers(-48, 2, size=500)
    values += [float(f"{d}5e{k}") for d, k in zip(digits.tolist(), exponents.tolist())]
    values += rng.normal(size=500).tolist()
    values += (rng.normal(size=500) * 10.0 ** rng.uniform(-31, 18, size=500)).tolist()
    values += rng.integers(0, 2**64, size=1000, dtype=np.uint64).view(np.float64).tolist()
    values += (1e-3 * np.arange(1, 501)).tolist()
    values = np.array(values)
    return np.concatenate([values, -values])


def formatter_corpus_parts(scratch: Path):
    """The "csv formatter corpus" case: the bytes each CSV writer puts in a
    file of formatter_corpus()'s values (the record its finite ones)."""
    values = formatter_corpus()
    half = len(values) // 2
    times = 1e-3 * np.arange(half)
    series = {"a": values[:half] + 1j * values[half:], "b": values[::-2][:half]}
    record = ObservationRecord(MeasurementScheme.homodyne(), 1e-3, values[np.isfinite(values)], seed=33)
    summary = SimpleNamespace(times=times, means=series, stderrs_re={"a": values[half:], "b": values[:half]},
                              stderrs_im={"a": values[::-1][:half], "b": values[1::2]}, n_trajectories=3)
    return (("csv", csv_bytes(scratch, lambda p: write_record(record, p))),
            ("csv", csv_bytes(scratch, lambda p: write_path_csv(p, times, series, likelihoods=values[:half]))),
            ("csv", csv_bytes(scratch, lambda p: write_ensemble_csv(p, summary))),
            ("csv", csv_bytes(scratch, lambda p: write_master_csv(p, times, series))))


def csv_bytes(directory: Path, write) -> bytes:
    """The bytes write(path) puts in a file."""
    target = directory / "table.csv"
    write(target)
    return target.read_bytes()


def stacked_paths(model, rho0, scheme, horizon, dt, seed, rows):
    """The paths (rows, steps+1, n, n) of trajectories 0 .. rows-1 of the
    seed's ensemble, stepped together, each from its own noise."""
    steps = int(round(horizon / dt))
    noise = []
    for i in range(rows):
        rng = np.random.default_rng(derive_seed(seed, i))
        noise.append(rng.random(size=steps) if scheme.kind == "counting"
                     else scheme.noise_scale * rng.normal(0.0, np.sqrt(dt), size=steps))
    loop = belfilt.trajectories
    if hasattr(loop, "_integrate_stack"):  # checkouts from before the one loop
        return loop._integrate_stack(model, rho0, scheme, dt, np.stack(noise))
    return loop._integrate(model, rho0, scheme, dt, np.stack(noise))[0]


def series(matrices, obs) -> dict:
    """tr(rho X) along a path, for each named observable."""
    return {name: np.einsum("kij,ji->k", matrices, x) for name, x in obs.items()}


def health_parts(health) -> list:
    """A PathHealth's three monitors as case parts."""
    return [("health", health.max_hermiticity_defect), ("health", health.min_eigenvalue),
            ("health", health.max_trace_defect)]


def audit_parts(normalized) -> list:
    """The health parts of a serial path's normalized matrices, audited as
    the CLI's simulate and filter commands audit them."""
    return health_parts(path_health(normalized, normalized=True))


def ensemble_parts(summary):
    parts = [("times", summary.times), ("count", summary.n_trajectories)]
    for name in sorted(summary.means):
        parts += [("name", name), ("mean", summary.means[name]),
                  ("stderr", summary.stderrs_re[name]), ("stderr", summary.stderrs_im[name])]
    if summary.health is not None:
        parts += health_parts(summary.health)
    return parts


def model_cases(dim: int, seed: int):
    """(label, model, rho0, observables, h1) for one dimension."""
    rng = np.random.default_rng(derive_seed(seed, dim))
    model = random_model(dim, rng, scale=0.5)
    rho0 = random_density(dim, rng).mix_with_identity(0.25)
    h1 = random_hermitian(dim, rng)
    obs = {"h": random_hermitian(dim, rng), "d": np.diag(np.arange(dim, dtype=float))}
    yield f"random{dim}", model, rho0, obs, h1
    if dim == 2:
        decay = SystemModel(np.zeros((2, 2)), (SIGMA_MINUS,))
        obs = {"z": SIGMA_Z, "x": SIGMA_X}
        yield "decay-diag", decay, DensityState(np.diag([0.125, 0.875])), obs, SIGMA_X
        plus = DensityState(np.array([[0.5, 0.375], [0.375, 0.5]]))
        yield "decay-plus", decay, plus, obs, SIGMA_X


def cases(dims, seeds, horizon, dt, trajectories, scratch: Path):
    """(name, parts) for every case, each part a pair (role, value): the
    values are hashed in order, and the roles (record, path, likelihood,
    mean, csv, ...) say which values --against compares how.  A case that
    raised has the parts (error, type) and (error, message).  CSV files are
    written to `scratch` and read back as bytes."""
    yield from config_cases(scratch)
    yield "csv formatter corpus", formatter_corpus_parts(scratch)
    inputs, err = attempt(lambda: listed_parts(seeds[0], dims))
    yield f"seed{seeds[0]} inputs (lists and int arrays)", err or inputs
    for seed in seeds:
        values, err = attempt(lambda: direct_values(seed))
        yield f"seed{seed} law direct", err or (("law", values),)
    for dim in dims:
        yield f"n{dim} seed{seeds[0]} random{dim} homodyne law grammar", grammar_parts(dim, seeds[0], horizon, dt)
        for label, parts in semigroup_parts(dim, seeds[0], horizon, dt):
            yield f"n{dim} seed{seeds[0]} random{dim} {label}", parts
        for label, parts in empty_replay_parts(dim, seeds[0]):
            yield f"n{dim} seed{seeds[0]} random{dim} homodyne {label}", parts
        if dim == CHUNKED[0]:
            yield f"n{dim} seed{seeds[0]} random{dim} homodyne law ensemble (chunked)", chunked_law_parts(seeds[0], dt)
        for label, parts in cli_cases(dim, seeds[0], dt, scratch):
            yield f"n{dim} seed{seeds[0]} random{dim} {label}", parts
        for seed in seeds:
            for label, model, rho0, obs, h1 in model_cases(dim, seed):
                law = ControlLaw.from_expression(LAW, model.hamiltonian, h1)
                for sname, scheme in SCHEMES.items():
                    tag = f"n{dim} seed{seed} {label} {sname}"
                    sampled, err = attempt(lambda: simulate(model, rho0, scheme, horizon, dt, seed))
                    yield f"{tag} simulate", err or (("record", sampled[0].increments), ("path", sampled[1]),
                                                     *audit_parts(sampled[1]))
                    if not err:
                        times = dt * np.arange(sampled[1].shape[0])
                        yield f"{tag} simulate csv", (
                            ("csv", csv_bytes(scratch, lambda p: write_record(sampled[0], p, config_hash=tag))),
                            ("csv", csv_bytes(scratch, lambda p: write_path_csv(p, times, series(sampled[1], obs)))))
                    for kind in () if err else ("bks", "zakai"):
                        replay, err = attempt(lambda: replay_record(sampled[0], model, rho0, kind=kind))
                        yield f"{tag} replay {kind}", err or (("path", replay.matrices), ("likelihood", replay.likelihoods),
                                                              *audit_parts(replay.normalized_matrices()))
                        if not err:
                            expectations = {name: replay.expectations(x) for name, x in obs.items()}
                            yield f"{tag} replay {kind} csv", (("csv", csv_bytes(scratch, lambda p: write_path_csv(
                                p, replay.times, expectations, likelihoods=replay.likelihoods))),)
                    closed, err = attempt(lambda: simulate(model, rho0, scheme, horizon, dt, seed, law=law))
                    yield f"{tag} law simulate", err or (("record", closed[0].increments), ("path", closed[1]),
                                                         *audit_parts(closed[1]))
                    if not err:
                        online, err = attempt(lambda: online_parts(model, rho0, scheme, closed[0], law, dt))
                        yield f"{tag} law online", err or online
                        if seed == seeds[0] and label == f"random{dim}" and sname == "homodyne":
                            online, err = attempt(lambda: online_parts(model, rho0, scheme, closed[0], law, dt, True))
                            yield f"{tag} law online (writeable copy)", err or online
                        if seed == seeds[0] and label == f"random{dim}":
                            online, err = attempt(lambda: online_parts(model, rho0, scheme, closed[0], law, dt,
                                                                       refed=True))
                            yield f"{tag} law online (state re-fed)", err or online
                            online, err = attempt(lambda: online_parts(model, rho0, scheme, closed[0], law, dt,
                                                                       normalized=False))
                            yield f"{tag} law online (zakai)", err or online
                    for lname, other in other_laws(model, h1):
                        closed, err = attempt(lambda: simulate(model, rho0, scheme, horizon, dt, seed, law=other))
                        yield f"{tag} {lname} law simulate", err or (
                            ("record", closed[0].increments), ("path", closed[1]), *audit_parts(closed[1]))
                        if not err:
                            online, err = attempt(lambda: online_parts(model, rho0, scheme, closed[0], other, dt))
                            yield f"{tag} {lname} law online", err or online
                    for ename, count, with_law in (("stacked", trajectories, False), ("law", trajectories, True),
                                                   ("pair", 2, False)):
                        summary, err = attempt(lambda: ensemble_average(
                            model, scheme, obs, count, seed, horizon / 2, dt, rho0,
                            law=law if with_law else None, collect_health=True))
                        yield f"{tag} ensemble {ename}", err or ensemble_parts(summary)
                        if not err:
                            yield f"{tag} ensemble {ename} csv", (
                                ("csv", csv_bytes(scratch, lambda p: write_ensemble_csv(p, summary, {"seed": seed}))),)
                    for rows in STACKED:
                        paths, err = attempt(lambda: stacked_paths(model, rho0, scheme, horizon / 2, dt, seed, rows))
                        yield f"{tag} stacked paths{'' if rows == STACKED[0] else f' ({rows} rows)'}", err or (
                            ("path", paths),)
                times = dt * np.arange(int(round(horizon / dt)) + 1)
                master = semigroup_path(rho0, model, times)
                yield f"n{dim} seed{seed} {label} semigroup uniform", (("path", master),)
                yield f"n{dim} seed{seed} {label} semigroup uniform csv", (
                    ("csv", csv_bytes(scratch, lambda p: write_master_csv(p, times, series(master, obs)))),)
                yield f"n{dim} seed{seed} {label} semigroup uneven", (
                    ("path", semigroup_path(rho0, model, uneven_times(dt))),)


SAVED = "outputs.npz"
# roles compared by --against: the largest absolute deviation of filter
# matrices and ensemble means, of ensemble standard errors, of likelihoods
# relative to their size, of record increments (a moved count shows as 1), of
# health monitors and of control values; CSV bytes, and the CLI's exit codes
# and error lines, read 0 when equal, 1 when not
DEVIATIONS = {"path": ("path", "mean"), "stderr": ("stderr",), "likelihood": ("likelihood",), "record": ("record",),
              "health": ("health",), "law": ("law",), "csv": ("csv", "exit")}


def save(directory: Path, outcomes) -> None:
    """Every case's values, keyed "<case>|<part index>", to directory/outputs.npz."""
    directory.mkdir(parents=True, exist_ok=True)
    arrays = {f"{name}|{i}": np.asarray(value) for name, parts in outcomes
              for i, (_, value) in enumerate(parts) if value is not None}
    np.savez(directory / SAVED, **arrays)


def deviation(role: str, value, saved) -> float:
    if role in ("csv", "exit"):
        return float(value != saved.item())
    if role == "likelihood":
        return float(np.max(np.abs(value - saved) / np.abs(saved), initial=0.0))
    return float(np.max(np.abs(value - saved), initial=0.0))


def compare(name: str, parts, saved) -> str:
    """One line of --against: the case's largest deviations from `saved`."""
    stored = [saved.get(f"{name}|{i}") for i in range(len(parts))]
    if all(s is None for s in stored):
        return f"{name}  missing from the saved outputs"
    raised = [parts[0][0] == "error", stored[0] is not None and stored[0].dtype.kind == "U"]
    if any(raised):
        same = all(raised) and [str(v) for _, v in parts] == [str(s) for s in stored]
        return f"{name}  {'same error' if same else 'raised on one side only, or another error'}"
    worst = {}
    for (role, value), old in zip(parts, stored):
        column = next((c for c, roles in DEVIATIONS.items() if role in roles), None)
        if column is None or value is None:
            continue
        if old is None or np.shape(value) != old.shape:
            return f"{name}  {role} shapes differ"
        worst[column] = max(worst.get(column, 0.0), deviation(role, value, old))
    return name + "".join(f"  {c} {worst[c]:.1e}" for c in DEVIATIONS if c in worst)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 6, 8])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--horizon", type=float, default=2.0)
    parser.add_argument("--dt", type=float, default=5e-3)
    parser.add_argument("--trajectories", type=int, default=6)
    parser.add_argument("--save", type=Path, metavar="DIR", help=f"also write every case's outputs to DIR/{SAVED}")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="print each case's largest deviations from the outputs saved in DIR, not hashes")
    args = parser.parse_args()
    saved = dict(np.load(args.against / SAVED)) if args.against else None
    outcomes = []
    with np.errstate(all="ignore"), tempfile.TemporaryDirectory() as scratch:
        for name, parts in cases(args.dims, args.seeds, args.horizon, args.dt, args.trajectories, Path(scratch)):
            if args.save:
                outcomes.append((name, parts))
            if saved is not None:
                print(compare(name, parts, saved))
            else:
                raised = f" (raised {parts[0][1]})" if parts[0][0] == "error" else ""
                print(f"{digest(*(value for _, value in parts))}  {name}{raised}")
    if args.save:
        save(args.save, outcomes)


if __name__ == "__main__":
    main()

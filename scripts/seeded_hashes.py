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
same record fed online through feedback_step, every state hashed; ensembles
with health, with and without the law; semigroup_path on a uniform and a
non-uniform grid.  Dimension 2 adds the qubit-decay model (H = 0, L = sigma-)
from a diagonal and from a coherent start.  A case that raises hashes its
error type and message instead, so errors are compared too.

The hashes broke once, by design, when the filter step moved to Liouville
space (one product with a step matrix instead of separate n x n products):
the summation order changed and outputs moved by about 1e-14.  A diff across
that change is therefore not empty; tests/test_liouville_step.py holds the
new step within 1e-12 of the old kernel (`reference_kernel` in
tests/helpers.py) instead.  Compare checkouts on the same side of it.
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

from belfilt import (
    ControlLaw,
    DensityState,
    FilterState,
    MeasurementScheme,
    SystemModel,
    derive_seed,
    ensemble_average,
    feedback_step,
    random_density,
    random_hermitian,
    random_model,
    replay_record,
    semigroup_path,
    simulate_counting,
    simulate_homodyne,
)
from belfilt.operators import SIGMA_MINUS, SIGMA_X, SIGMA_Z

LAW = "0.2 * Y - 0.5 * ma(Y, 50)"
SCHEMES = {
    "homodyne": MeasurementScheme.homodyne(),
    "imperfect": MeasurementScheme.imperfect(1.0, 0.3),
    "counting": MeasurementScheme.counting(),
}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if part is None:
            h.update(b"none")
        elif isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def attempt(run):
    """(run(), None), or (None, the error it raised as hash parts)."""
    try:
        return run(), None
    except Exception as exc:  # noqa: BLE001 - an error is an outcome to compare
        return None, (type(exc).__name__, str(exc))


def simulate(model, rho0, scheme, horizon, dt, seed, law=None):
    if scheme.kind == "counting":
        return simulate_counting(model, rho0, horizon, dt, seed, law=law)
    return simulate_homodyne(model, rho0, horizon, dt, seed, scheme=scheme, law=law)


def online_states(model, rho0, scheme, record, law, dt):
    """Every state of the record fed online, one feedback_step per increment."""
    state = FilterState.from_density(rho0)
    states = [state.matrix]
    inc = record.increments
    for k in range(inc.size):
        state = feedback_step(state, inc[k], law, model, inc[:k], dt, scheme, k * dt)
        states.append(state.matrix)
    return np.stack(states)


def ensemble_parts(summary):
    parts = [summary.times, summary.n_trajectories]
    for name in sorted(summary.means):
        parts += [name, summary.means[name], summary.stderrs_re[name], summary.stderrs_im[name]]
    health = summary.health
    if health is not None:
        parts += [health.max_hermiticity_defect, health.min_eigenvalue, health.max_trace_defect]
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


def cases(dims, seeds, horizon, dt, trajectories):
    """(name, hash parts) for every case; a case that raised is named with
    its error type."""
    for dim in dims:
        for seed in seeds:
            for label, model, rho0, obs, h1 in model_cases(dim, seed):
                law = ControlLaw.from_expression(LAW, model.hamiltonian, h1)
                for sname, scheme in SCHEMES.items():
                    tag = f"n{dim} seed{seed} {label} {sname}"
                    sampled, err = attempt(lambda: simulate(model, rho0, scheme, horizon, dt, seed))
                    yield f"{tag} simulate", err or (sampled[0].increments, sampled[1])
                    for kind in () if err else ("bks", "zakai"):
                        replay, err = attempt(lambda: replay_record(sampled[0], model, rho0, kind=kind))
                        yield f"{tag} replay {kind}", err or (replay.matrices, replay.likelihoods)
                    closed, err = attempt(lambda: simulate(model, rho0, scheme, horizon, dt, seed, law=law))
                    yield f"{tag} law simulate", err or (closed[0].increments, closed[1])
                    if not err:
                        states, err = attempt(lambda: online_states(model, rho0, scheme, closed[0], law, dt))
                        yield f"{tag} law online", err or (states,)
                    for with_law in (False, True):
                        summary, err = attempt(lambda: ensemble_average(
                            model, scheme, obs, trajectories, seed, horizon / 2, dt, rho0,
                            law=law if with_law else None, collect_health=True))
                        yield f"{tag} ensemble {'law' if with_law else 'stacked'}", err or ensemble_parts(summary)
                times = dt * np.arange(int(round(horizon / dt)) + 1)
                yield f"n{dim} seed{seed} {label} semigroup uniform", (semigroup_path(rho0, model, times),)
                uneven = np.concatenate(([0.0], np.cumsum(np.linspace(0.5, 1.5, 7) * dt * 10)))
                yield f"n{dim} seed{seed} {label} semigroup uneven", (semigroup_path(rho0, model, uneven),)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 8])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--horizon", type=float, default=2.0)
    parser.add_argument("--dt", type=float, default=5e-3)
    parser.add_argument("--trajectories", type=int, default=6)
    args = parser.parse_args()
    with np.errstate(all="ignore"):
        for name, parts in cases(args.dims, args.seeds, args.horizon, args.dt, args.trajectories):
            raised = f" (raised {parts[0]})" if isinstance(parts[0], str) else ""
            print(f"{digest(*parts)}  {name}{raised}")


if __name__ == "__main__":
    main()

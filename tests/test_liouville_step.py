"""The Liouville-space filter step against the kernel it replaced.

Every route of the new step (simulation, bks and zakai replay, online steps
through the public functions or `feedback_step`, stacked ensembles) must
stay within 1e-12 of `reference_kernel`: paths in absolute terms,
likelihoods relative to their size.
"""

import numpy as np
import pytest

import belfilt as bf
from belfilt import filters, operators, trajectories
from belfilt.filters import ControlLaw, FilterState, MeasurementScheme, feedback_step, filter_step
from belfilt.operators import random_density, random_hermitian, random_model
from belfilt.trajectories import derive_seed, replay_record, simulate_homodyne

from helpers import reference_integrate

TOL = 1e-12
DT = 2.5e-3
STEPS = 200
SCHEMES = {
    "homodyne": MeasurementScheme.homodyne(),
    "phase": MeasurementScheme.homodyne(0.7),
    "imperfect": MeasurementScheme.imperfect(1.0, 0.3),
    "counting": MeasurementScheme.counting(),
}


def _case(dim, law_kind):
    # coupling scale 3 gives every counting record at least one jump
    rng = np.random.default_rng(600 + dim)
    model = random_model(dim, rng, scale=3.0)
    rho0 = random_density(dim, rng).mix_with_identity(0.3)
    h1 = random_hermitian(dim, rng)
    law = None
    if law_kind == "expression":
        law = ControlLaw.from_expression("0.3 * Y - ma(Y, 5) + 0.2 * t", model.hamiltonian, h1)
    elif law_kind == "map":
        base = model.channel
        law = ControlLaw(bf.compile_control_expression("0.5 * Y"), model.hamiltonian, h1,
                         channel_map=lambda t, prefix: (1.0 + 0.1 * t) * base)
    return model, rho0, law


def _assert_paths_close(path, reference):
    assert path.shape == reference.shape
    assert np.max(np.abs(path - reference)) <= TOL


def _assert_likelihoods_close(likelihoods, reference):
    assert np.all(np.abs(likelihoods - reference) <= TOL * np.abs(reference))


def _online(record, model, rho0, law, normalized):
    """The record fed step by step through the public step functions."""
    state = FilterState(np.array(rho0.matrix), normalized=normalized)
    matrices, likelihoods = [state.matrix], [state.likelihood]
    for k, dy in enumerate(record.increments):
        if law is None:
            state = filter_step(state, dy, model, record.dt, record.scheme)
        else:
            state = feedback_step(state, dy, law, model, record.increments[:k], record.dt, record.scheme, k * record.dt)
        matrices.append(state.matrix)
        likelihoods.append(state.likelihood)
    return np.array(matrices), np.array(likelihoods)


@pytest.mark.parametrize("law_kind", ["none", "expression", "map"])
@pytest.mark.parametrize("name", list(SCHEMES))
@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_routes_match_reference_kernel(dim, name, law_kind):
    scheme = SCHEMES[name]
    model, rho0, law = _case(dim, law_kind)
    seed = derive_seed(dim, 7)
    noise = trajectories._noise(scheme, seed, STEPS, DT)

    if scheme.kind == "counting":
        record, path = bf.simulate_counting(model, rho0, STEPS * DT, DT, seed, law=law)
    else:
        record, path = simulate_homodyne(model, rho0, STEPS * DT, DT, seed, scheme=scheme, law=law)
    increments = np.empty(STEPS)
    reference, _ = reference_integrate(model, rho0, scheme, DT, increments, law, noise=noise)
    if scheme.kind == "counting":
        assert np.array_equal(record.increments, increments)
        assert 0 < increments.sum() < STEPS
    else:
        assert np.max(np.abs(record.increments - increments)) <= TOL
    _assert_paths_close(path, reference)

    for kind in ("bks", "zakai"):
        normalized = kind == "bks"
        run = replay_record(record, model, rho0, kind=kind, law=law)
        reference, likelihoods = reference_integrate(
            model, rho0, scheme, DT, record.increments, law, normalized=normalized
        )
        online, online_likelihoods = _online(record, model, rho0, law, normalized)
        if normalized:
            _assert_paths_close(run.matrices, reference)
            _assert_paths_close(online, reference)
        else:
            _assert_likelihoods_close(run.likelihoods, likelihoods)
            _assert_likelihoods_close(online_likelihoods, likelihoods)
            normalized_reference = reference / likelihoods[:, None, None]
            _assert_paths_close(run.normalized_matrices(), normalized_reference)
            _assert_paths_close(online / online_likelihoods[:, None, None], normalized_reference)

    if law is None:
        rows = np.stack([trajectories._noise(scheme, derive_seed(seed, i), STEPS, DT) for i in range(3)])
        paths = trajectories._integrate_stack(model, rho0, scheme, DT, rows)
        for row, stacked in zip(rows, paths):
            reference, _ = reference_integrate(model, rho0, scheme, DT, np.empty(STEPS), noise=row)
            _assert_paths_close(stacked, reference)


def test_law_run_builds_the_step_matrix_once(monkeypatch):
    """A law without a channel map reuses the model's channel blocks and
    step matrix: one `_liouville` and one step matrix per run, none per
    online step."""
    calls = {"liouville": 0, "step": 0}

    def spy(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    monkeypatch.setattr(operators, "_liouville", spy("liouville", operators._liouville))
    monkeypatch.setattr(filters, "_step_matrix", spy("step", filters._step_matrix))
    for steps in (5, 200):
        rng = np.random.default_rng(3)
        model = random_model(2, rng)
        law = ControlLaw.from_expression("0.2 * Y - 0.5 * ma(Y, 50)", model.hamiltonian, random_hermitian(2, rng))
        rho0 = random_density(2, rng)
        calls.update(liouville=0, step=0)
        record, path = simulate_homodyne(model, rho0, steps * DT, DT, seed=4, law=law)
        assert calls == {"liouville": 1, "step": 1}
        state = FilterState(np.array(rho0.matrix))
        for k, dy in enumerate(record.increments):
            state = feedback_step(state, dy, law, model, record.increments[:k], DT, t=k * DT)
        assert calls == {"liouville": 1, "step": 1}
        assert np.array_equal(state.matrix, path[-1])


def test_channel_map_rebuilds_every_step(monkeypatch):
    calls = []
    real = filters._step_matrix
    monkeypatch.setattr(filters, "_step_matrix", lambda *args: calls.append(1) or real(*args))
    model, rho0, law = _case(2, "map")
    simulate_homodyne(model, rho0, 20 * DT, DT, seed=1, law=law)
    assert len(calls) == 20

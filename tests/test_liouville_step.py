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

from helpers import reference_commutator, reference_integrate, reference_liouville

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
        # the loop writes each row's increments over its noise: step a copy
        paths, _ = trajectories._integrate(model, rho0, scheme, DT, rows.copy())
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
    monkeypatch.setattr(filters, "_liouville", spy("liouville", filters._liouville))
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


def test_runs_bind_the_row_step_once(monkeypatch):
    """Simulation, replay and law runs bind one single-matrix step
    (`filters._row_step`) per run, none per step."""
    binds = []
    real = filters._row_step
    monkeypatch.setattr(trajectories, "_row_step", lambda *args: binds.append(args) or real(*args))
    monkeypatch.setattr(filters, "_row_step", lambda *args: binds.append(args) or real(*args))
    model, rho0, law = _case(2, "expression")
    for steps in (5, 200):
        record, _ = simulate_homodyne(model, rho0, steps * DT, DT, seed=5)
        for run in (
            lambda: simulate_homodyne(model, rho0, steps * DT, DT, seed=4),
            lambda: bf.simulate_counting(model, rho0, steps * DT, DT, seed=4),
            lambda: replay_record(record, model, rho0, kind="bks"),
            lambda: replay_record(record, model, rho0, kind="zakai"),
            lambda: simulate_homodyne(model, rho0, steps * DT, DT, seed=4, law=law),
            lambda: replay_record(record, model, rho0, kind="bks", law=law),
        ):
            binds.clear()
            run()
            assert len(binds) == 1


def test_single_matrix_runs_call_no_matmul(monkeypatch):
    """A single-matrix step makes its two products with `ndarray.dot`; the
    (B, 1, n^2) `np.matmul` is the stacked kernel's alone, which blocks of
    ENSEMBLE_STACK_ROWS trajectories or more take, and smaller ones do not."""
    calls = []
    real = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    model, rho0, _ = _case(2, "none")
    record, _ = simulate_homodyne(model, rho0, STEPS * DT, DT, seed=4)
    replay_record(record, model, rho0, kind="bks")
    assert calls == []
    rows = trajectories.ENSEMBLE_STACK_ROWS
    trajectories._integrate(model, rho0, MeasurementScheme.homodyne(), DT, np.zeros((rows - 1, STEPS)))
    assert calls == []
    trajectories._integrate(model, rho0, MeasurementScheme.homodyne(), DT, np.zeros((rows, STEPS)))
    assert len(calls) == 2 * STEPS


def test_channel_map_rebuilds_every_step(monkeypatch):
    calls = []
    real = filters._step_matrix
    monkeypatch.setattr(filters, "_step_matrix", lambda *args: calls.append(1) or real(*args))
    model, rho0, law = _case(2, "map")
    simulate_homodyne(model, rho0, 20 * DT, DT, seed=1, law=law)
    assert len(calls) == 21


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_constant_law_runs_match_static_model(dim):
    """A law with constant u steps as the model with H0 + u H1 does, over
    whole simulations and replays, within TOL (paths absolute, likelihoods
    relative): the law's step adds u C1 r in the coefficient product, the
    static model's S holds u H1 in its A' block, so the two differ by
    roundings.  Counts stay the same."""
    model, rho0, _ = _case(dim, "none")
    u = 0.7
    law = ControlLaw(lambda t, prefix: u, model.hamiltonian, random_hermitian(dim, np.random.default_rng(dim)))
    static = bf.SystemModel(law.h0 + u * law.h1, model.channels)
    seed = derive_seed(dim, 11)
    for name in ("homodyne", "counting"):
        if name == "counting":
            record, path = bf.simulate_counting(model, rho0, STEPS * DT, DT, seed, law=law)
            plain, plain_path = bf.simulate_counting(static, rho0, STEPS * DT, DT, seed)
            assert 0 < record.increments.sum()
            assert np.array_equal(record.increments, plain.increments)
        else:
            record, path = simulate_homodyne(model, rho0, STEPS * DT, DT, seed, law=law)
            plain, plain_path = simulate_homodyne(static, rho0, STEPS * DT, DT, seed)
            assert np.max(np.abs(record.increments - plain.increments)) <= TOL
        _assert_paths_close(path, plain_path)
        for kind in ("bks", "zakai"):
            run = replay_record(record, model, rho0, kind=kind, law=law)
            plain_run = replay_record(record, static, rho0, kind=kind)
            _assert_paths_close(run.matrices, plain_run.matrices)
            if kind == "zakai":
                _assert_likelihoods_close(run.likelihoods, plain_run.likelihoods)
            else:
                assert run.likelihoods is None and plain_run.likelihoods is None


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
@pytest.mark.parametrize("dt", [1e-3, 0.37, 2.0])
def test_commutator_block_is_the_hamiltonian_part_of_liouville(dim, dt):
    """`_commutator` builds dt times the Hamiltonian part of
    `reference_liouville`, the former `operators._liouville`.  `_step_matrix`
    adds it to the A' block and, for a law's H1, appends it as the C1 block
    (S holds both transposed), and the columns outside those blocks stay as
    they are without a Hamiltonian."""
    h = random_hermitian(dim, np.random.default_rng(70 + dim), scale=3.0)
    n2 = dim * dim
    block = filters._commutator(h, dt)
    expected = dt * reference_liouville(h)[0]
    assert np.max(np.abs(block - expected)) <= 1e-15 * np.linalg.norm(h, 2)
    zeros = np.zeros((n2, n2))
    for counting in (False, True):
        bare = filters._step_matrix((zeros, zeros, zeros), counting, dt, np.zeros((dim, dim)))
        s = filters._step_matrix((zeros, zeros, zeros), counting, dt, h, h)
        assert s.shape == (n2, 3 + 4 * n2) and s.flags.c_contiguous
        assert np.array_equal(s[:, 3 : 3 + n2], bare[:, 3 : 3 + n2] + block.T)
        assert np.array_equal(s[:, 3 + 3 * n2 :], block.T)
        assert np.array_equal(s[:, :3], bare[:, :3]) and np.array_equal(s[:, 3 + n2 : 3 + 3 * n2], bare[:, 3 + n2 :])


@pytest.mark.parametrize("dim", range(1, 11))
def test_step_matrices_match_reference_commutator(dim, monkeypatch):
    """Every step matrix, C1 included, equals bit for bit the one built on
    the gathered `reference_commutator`: zero, diagonal and dense H, both
    scheme families, two phases, four values of dt, with and without a law."""
    rng = np.random.default_rng(80 + dim)
    channel = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h1 = random_hermitian(dim, rng)
    hamiltonians = (np.zeros((dim, dim)), np.diag(rng.normal(size=dim)), random_hermitian(dim, rng, scale=3.0))
    for h in hamiltonians:
        model = bf.SystemModel(h, (channel,))
        law = ControlLaw.from_expression("Y", model.hamiltonian, h1)
        for counting in (False, True):
            for phase in (0.0, 0.7):
                blocks = operators._liouville((model.single_channel_parts(phase),))
                for dt in (1e-3, 1 / 3, 0.37, 2.0):
                    for control in (None, law):
                        s = filters._model_matrix(model, phase, counting, dt, control)
                        with monkeypatch.context() as patch:
                            patch.setattr(filters, "_commutator", reference_commutator)
                            expected = filters._step_matrix(blocks, counting, dt, model.hamiltonian,
                                                            None if control is None else law.h1)
                        assert s.shape == expected.shape and s.tobytes() == expected.tobytes()


def test_step_matrix_holds_every_block():
    """vec(r) @ S against the blocks built from `reference_liouville` with H."""
    model, rho0, _ = _case(3, "none")
    dt = 0.01
    r = rho0.matrix.reshape(-1)
    d, g, j = reference_liouville(model.hamiltonian, (model.single_channel_parts(0.0),))
    drift = np.eye(9) + dt * d
    for counting, measured in ((False, g), (True, j)):
        p = r @ filters._model_matrix(model, 0.0, counting, dt)
        expected = np.concatenate(([np.trace((drift @ r).reshape(3, 3)), np.trace((measured @ r).reshape(3, 3)), 1.0],
                                   drift @ r, measured @ r, r))
        assert np.max(np.abs(p - expected)) <= 1e-14


# --- law steps: S = [S0 | C1] and u as a fourth coefficient -----------------

LAW_SCHEMES = {name: SCHEMES[name] for name in ("homodyne", "imperfect", "counting")}


def _law_case(dim, law_kind):
    """`_case`'s model and start under a compiled, callable or channel-map law."""
    if law_kind != "callable":
        return _case(dim, law_kind)
    model, rho0, _ = _case(dim, "none")
    h1 = random_hermitian(dim, np.random.default_rng(610 + dim))
    return model, rho0, ControlLaw(lambda t, prefix: 0.4 * np.sin(3.0 * t) - float(np.sum(prefix[-4:])),
                                   model.hamiltonian, h1)


def _rebuilt_law_run(model, rho0, scheme, dt, increments, law, normalized):
    """Replay `increments` under `law` with S rebuilt each step for
    H_t = H0 + u H1 (`_step_matrix` of the model's channel, or of L_t under
    a channel map), stepped by a law-free `_row_step`: the step the law ran
    before u became a coefficient.  Returns the path and the likelihoods."""
    counting, n = scheme.kind == "counting", model.dim
    step = filters._row_step(n, dt, filters._route(scheme), scheme.gain, normalized, False)
    rows = np.empty((increments.size + 1, n * n), dtype=complex)
    rows[0] = rho0.matrix.reshape(-1)
    traces = np.ones(increments.size + 1)
    model_blocks = operators._liouville((model.single_channel_parts(scheme.phase),))
    for k in range(increments.size):
        t, prefix = k * dt, increments[:k]
        h, _ = law.hamiltonian_at(t, prefix)
        if law.channel_map is None:
            blocks = model_blocks
        else:
            channel = operators.as_operator(law.channel_map(t, prefix), "L_t")
            blocks = operators._liouville((operators._channel_parts(channel, scheme.phase),))
        traces[k + 1], _ = step(rows[k], filters._step_matrix(blocks, counting, dt, h), float(increments[k]),
                                rows[k + 1])
    return rows.reshape(-1, n, n), traces


@pytest.mark.parametrize("law_kind", ["expression", "callable", "map"])
@pytest.mark.parametrize("name", list(LAW_SCHEMES))
@pytest.mark.parametrize("dim", [2, 3, 8])
def test_law_runs_online_and_against_rebuilt_step_matrix(dim, name, law_kind):
    """Online `feedback_step` states equal the closed-loop path bit for bit;
    bks and zakai replays under the law stay within TOL of the run that
    rebuilds S for H0 + u H1 every step, likelihoods included."""
    scheme = LAW_SCHEMES[name]
    model, rho0, law = _law_case(dim, law_kind)
    seed = derive_seed(dim, 16)  # a seed whose counting records all count, at every dim and law
    if scheme.kind == "counting":
        record, path = bf.simulate_counting(model, rho0, STEPS * DT, DT, seed, law=law)
        assert 0 < record.increments.sum() < STEPS
    else:
        record, path = simulate_homodyne(model, rho0, STEPS * DT, DT, seed, scheme=scheme, law=law)
    online, _ = _online(record, model, rho0, law, True)
    assert online.tobytes() == path.tobytes()
    for kind in ("bks", "zakai"):
        normalized = kind == "bks"
        run = replay_record(record, model, rho0, kind=kind, law=law)
        reference, likelihoods = _rebuilt_law_run(model, rho0, scheme, DT, record.increments, law, normalized)
        if normalized:
            _assert_paths_close(run.matrices, reference)
        else:
            _assert_likelihoods_close(run.likelihoods, likelihoods)
            _assert_paths_close(run.normalized_matrices(), reference / likelihoods[:, None, None])


def test_counted_jump_carries_no_control_term():
    """On the normalized counting route a registered count steps with a0 = 0,
    so its fourth coefficient a0 u is 0: the jump step of a closed loop under
    a law with u far from 0 is the step with u = 0, bit for bit, and the
    collapse L r L* / tr(L r L*); a step without a count is not."""
    model, rho0, _ = _case(3, "none")
    law = ControlLaw.from_expression("2.5 + 4 * Y", model.hamiltonian, random_hermitian(3, np.random.default_rng(5)))
    record, path = bf.simulate_counting(model, rho0, STEPS * DT, DT, derive_seed(3, 17), law=law)
    counts = np.flatnonzero(record.increments)
    assert counts.size >= 2
    s = filters._model_matrix(model, 0.0, True, DT, law)
    step = filters._row_step(3, DT, "counting", 1.0, True, False, True)
    out = np.empty(9, dtype=complex)
    channel = model.channel
    for k in counts:
        step(path[k].reshape(-1), s, 1.0, out, 0.0)
        assert out.tobytes() == path[k + 1].tobytes()
        jumped = channel @ path[k] @ channel.conj().T
        assert np.max(np.abs(path[k + 1] - jumped / np.trace(jumped).real)) <= TOL
    k = int(np.flatnonzero(record.increments == 0.0)[-1])
    step(path[k].reshape(-1), s, 0.0, out, 0.0)
    assert np.max(np.abs(out - path[k + 1].reshape(-1))) > 1e-6


@pytest.mark.parametrize("name", list(LAW_SCHEMES))
@pytest.mark.parametrize("dim", [2, 3, 8])
def test_zero_law_matches_law_free_run(dim, name):
    """The law "0" with H0 the model's Hamiltonian: S0 is the model's S bit
    for bit, and the control term is 0 C1 r.  Each `feedback_step` from a
    state of the law-free run matches the law-free step from that state
    within 1e-15 (relative to the trace for unnormalized states), as
    `verify.check_feedback_reduction` checks one step; whole runs, whose
    roundings compound, stay within TOL."""
    scheme = LAW_SCHEMES[name]
    counting = scheme.kind == "counting"
    model, rho0, _ = _case(dim, "none")
    law = ControlLaw.from_expression("0", model.hamiltonian, random_hermitian(dim, np.random.default_rng(dim)))
    s0 = filters._model_matrix(model, scheme.phase, counting, DT, law)[:, : 3 + 3 * dim**2]
    assert s0.tobytes() == filters._model_matrix(model, scheme.phase, counting, DT).tobytes()
    seed = derive_seed(dim, 19)
    if counting:
        runs = [bf.simulate_counting(model, rho0, STEPS * DT, DT, seed, law=law) for law in (law, None)]
    else:
        runs = [simulate_homodyne(model, rho0, STEPS * DT, DT, seed, scheme=scheme, law=law) for law in (law, None)]
    (record, path), (plain, plain_path) = runs
    assert np.max(np.abs(record.increments - plain.increments)) <= TOL
    _assert_paths_close(path, plain_path)
    for kind in ("bks", "zakai"):
        normalized = kind == "bks"
        run = replay_record(plain, model, rho0, kind=kind, law=law)
        plain_run = replay_record(plain, model, rho0, kind=kind)
        _assert_paths_close(run.normalized_matrices(), plain_run.normalized_matrices())
        if not normalized:
            _assert_likelihoods_close(run.likelihoods, plain_run.likelihoods)
        for k, dy in enumerate(plain.increments):
            state = FilterState(plain_run.matrices[k], normalized=normalized)
            via_law = feedback_step(state, dy, law, model, plain.increments[:k], DT, scheme, k * DT)
            scale = 1.0 if normalized else plain_run.likelihoods[k + 1]
            assert np.max(np.abs(via_law.matrix - plain_run.matrices[k + 1])) <= 1e-15 * scale

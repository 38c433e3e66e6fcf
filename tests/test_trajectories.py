"""Record sampling, seeding, ensembles and innovations."""

import copy
import pickle
import re

import numpy as np
import pytest

import belfilt as bf
from belfilt import trajectories
from belfilt.filters import (
    ControlLaw,
    _stack_step,
    FilterState,
    MeasurementScheme,
    feedback_step,
    filter_step,
    zakai_step_counting,
    zakai_step_homodyne,
)
from belfilt.operators import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    DensityState,
    SystemModel,
    random_density,
    random_model,
    semigroup_evolve,
)
from belfilt.trajectories import (
    ObservationRecord,
    derive_seed,
    ensemble_average,
    innovations_stats,
    replay_record,
    simulate_counting,
    simulate_homodyne,
)

DECAY = SystemModel(np.zeros((2, 2)), (SIGMA_MINUS,))
PLUS_MIXED = DensityState.from_vector([1.0, 1.0]).mix_with_identity(0.25)
EXCITED_MIXED = DensityState.from_vector([0.0, 1.0]).mix_with_identity(0.25)


class TestSeedDerivation:
    def test_collision_free_over_large_ensembles(self):
        seeds = {derive_seed(12345, i) for i in range(100_000)}
        assert len(seeds) == 100_000

    def test_distinct_bases_decorrelate(self):
        a = [derive_seed(1, i) for i in range(100)]
        b = [derive_seed(2, i) for i in range(100)]
        assert not set(a) & set(b)

    def test_frozen_values(self):
        # pinned so the stream layout never changes silently
        assert derive_seed(0, 0) == 16294208416658607535
        assert derive_seed(0, 1) == 7960286522194355700
        assert derive_seed(12345, 999) == 11146372364405179148

    def test_rejects_negative_index(self):
        with pytest.raises(bf.ValidationError):
            derive_seed(0, -1)

    @pytest.mark.parametrize("index", [True, np.bool_(True), 2.5, 1.0, "1", None])
    def test_rejects_non_integer_index(self, index):
        with pytest.raises(bf.ValidationError, match=r"^trajectory index: expected an integer, got "):
            derive_seed(0, index)

    @pytest.mark.parametrize("index", [np.int64(999), np.uint64(999)])
    def test_numpy_index_reads_as_int(self, index):
        assert derive_seed(12345, index) == 11146372364405179148

    @pytest.mark.parametrize("base", [2.5, -1, 2**64, True, None])
    def test_rejects_base_outside_u64(self, base):
        # before, 2.5 derived seed 2's streams and -1 those of 2**64 - 1
        with pytest.raises(bf.ValidationError, match=r"^seed: "):
            derive_seed(base, 0)


_SEED_ENTRY_POINTS = {
    "simulate_homodyne": lambda seed: simulate_homodyne(DECAY, PLUS_MIXED, 0.01, 1e-3, seed),
    "simulate_counting": lambda seed: simulate_counting(DECAY, EXCITED_MIXED, 0.01, 1e-3, seed),
    "ensemble_average": lambda seed: ensemble_average(
        DECAY, MeasurementScheme.homodyne(), {"z": SIGMA_Z}, 3, seed, 0.01, 1e-3, PLUS_MIXED),
}


class TestSeedsRefused:
    """Every entry point that draws noise takes the seeds a config takes."""

    @pytest.mark.parametrize("entry", sorted(_SEED_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "seed,message",
        [
            (2.5, "expected an integer, got 2.5"),
            (2.0, "expected an integer, got 2.0"),
            (np.float64(2.0), "expected an integer, got "),
            (True, "expected an integer, got True"),
            (np.bool_(False), "expected an integer, got "),
            ("3", "expected an integer, got '3'"),
            (None, "expected an integer, got None"),
            (-1, r"must be an unsigned 64-bit integer \(0 <= seed < 2\*\*64\), got -1"),
            (np.int64(-1), r"must be an unsigned 64-bit integer .*, got -1"),
            (2**64, r"must be an unsigned 64-bit integer .*, got 18446744073709551616"),
        ],
        ids=["float", "integral-float", "numpy-float", "bool", "numpy-bool", "str", "none", "negative",
             "numpy-negative", "2**64"],
    )
    def test_refused_before_drawing(self, entry, seed, message, monkeypatch):
        drawn = []
        monkeypatch.setattr(trajectories, "_noise", lambda *args: drawn.append(args))
        with pytest.raises(bf.ValidationError, match=rf"^seed: {message}"):
            _SEED_ENTRY_POINTS[entry](seed)
        assert drawn == []

    @pytest.mark.parametrize("entry", sorted(_SEED_ENTRY_POINTS))
    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), 2**64 - 1, np.uint64(2**64 - 1)])
    def test_integers_in_range_accepted(self, entry, seed):
        got, want = _SEED_ENTRY_POINTS[entry](seed), _SEED_ENTRY_POINTS[entry](int(seed))
        if entry == "ensemble_average":
            assert np.array_equal(got.mean("z"), want.mean("z"))
        else:
            assert got[0].seed == int(seed) and type(got[0].seed) is int
            assert np.array_equal(got[1], want[1])

    def test_config_shares_the_validator(self):
        from belfilt import config

        assert config._require_seed is trajectories._require_seed


_GRID_ENTRY_POINTS = {
    "simulate_homodyne": lambda horizon, dt: simulate_homodyne(DECAY, PLUS_MIXED, horizon, dt, 1),
    "simulate_counting": lambda horizon, dt: simulate_counting(DECAY, EXCITED_MIXED, horizon, dt, 1),
    "ensemble_average": lambda horizon, dt: ensemble_average(
        DECAY, MeasurementScheme.homodyne(), {"z": SIGMA_Z}, 3, 1, horizon, dt, PLUS_MIXED),
}


class TestNonNumericRefused:
    """T and dt that are not real numbers raise ValidationError naming them,
    not numpy's TypeError, and no str is parsed (`filters._finite_real`)."""

    @pytest.mark.parametrize("entry", sorted(_GRID_ENTRY_POINTS))
    @pytest.mark.parametrize("value", ["0.01", b"0.01", None, [0.01], 0.01j, np.complex128(0.01 + 1e-300j)],
                             ids=["str", "bytes", "none", "list", "complex", "numpy-complex"])
    @pytest.mark.parametrize("name", ["T", "dt"])
    def test_grid_refuses_non_numeric(self, entry, name, value, monkeypatch):
        drawn = []
        monkeypatch.setattr(trajectories, "_noise", lambda *args: drawn.append(args))
        args = (value, 1e-3) if name == "T" else (0.01, value)
        with pytest.raises(bf.ValidationError, match=rf"^{name}: non-(numeric|real) value "):
            _GRID_ENTRY_POINTS[entry](*args)
        assert drawn == []

    @pytest.mark.parametrize("dt", ["1e-3", None, 1e-3j])
    def test_record_dt_must_be_a_real_number(self, dt):
        with pytest.raises(bf.ValidationError, match=r"^record dt: non-(numeric|real) value "):
            ObservationRecord(MeasurementScheme.homodyne(), dt, np.zeros(3))


class TestSimulateHomodyne:
    def test_seed_determinism(self):
        r1, p1 = simulate_homodyne(DECAY, PLUS_MIXED, 0.2, 1e-3, seed=99)
        r2, p2 = simulate_homodyne(DECAY, PLUS_MIXED, 0.2, 1e-3, seed=99)
        assert r1 == r2
        assert np.array_equal(p1, p2)

    def test_different_seed_differs(self):
        r1, _ = simulate_homodyne(DECAY, PLUS_MIXED, 0.2, 1e-3, seed=1)
        r2, _ = simulate_homodyne(DECAY, PLUS_MIXED, 0.2, 1e-3, seed=2)
        assert not np.array_equal(r1.increments, r2.increments)

    def test_zero_channel_record_is_discretized_wiener(self, rng):
        model = SystemModel(np.zeros((2, 2)), (np.zeros((2, 2)),))
        T, dt = 4.0, 1e-3
        rec, path = simulate_homodyne(model, PLUS_MIXED, T, dt, seed=5)
        # quadratic variation close to T, mean increment near 0
        qv = np.sum(rec.increments**2)
        assert abs(qv - T) <= 0.1 * T
        assert abs(rec.increments.mean()) <= 3 * np.sqrt(dt * T) / T
        # filter path never moves
        assert np.max(np.abs(path - path[0])) <= 1e-12

    def test_replay_reproduces_path_bit_exactly(self):
        rec, path = simulate_homodyne(DECAY, PLUS_MIXED, 0.3, 1e-3, seed=17)
        run = replay_record(rec, DECAY, PLUS_MIXED)
        assert np.array_equal(run.matrices, path)

    def test_imperfect_noise_scaling(self):
        scheme = MeasurementScheme.imperfect(3.0)
        rec, _ = simulate_homodyne(DECAY, PLUS_MIXED, 2.0, 1e-3, seed=23, scheme=scheme)
        qv = np.sum(rec.increments**2)
        assert abs(qv - (1 + 9.0) * 2.0) <= 0.15 * (1 + 9.0) * 2.0

    def test_record_mean_tracks_master_equation(self):
        # Y_T / T averages the master-equation drift; semigroup oracle
        T, dt, n = 1.0, 1e-3, 300
        terminal = []
        for i in range(n):
            rec, _ = simulate_homodyne(DECAY, PLUS_MIXED, T, dt, seed=derive_seed(7, i))
            terminal.append(rec.increments.sum())
        terminal = np.array(terminal)
        times = np.linspace(0, T, 201)
        drift = [
            semigroup_evolve(PLUS_MIXED, DECAY, t).expectation(SIGMA_MINUS + SIGMA_MINUS.conj().T).real
            for t in times
        ]
        want = np.trapezoid(drift, times)
        stderr = terminal.std(ddof=1) / np.sqrt(n)
        assert abs(terminal.mean() - want) <= 4 * stderr

    def test_horizon_off_the_grid_rejected(self):
        with pytest.raises(bf.ValidationError, match=r"T = 1\.0 .* dt = 0\.3"):
            simulate_homodyne(DECAY, PLUS_MIXED, 1.0, 0.3, seed=1)

    @pytest.mark.parametrize("horizon,dt", [(0.003, 1e-3), (0.3, 0.1)])
    def test_horizon_within_rounding_of_the_grid(self, horizon, dt):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        rec, path = simulate_homodyne(DECAY, PLUS_MIXED, horizon, dt, seed=1)
        assert rec.steps == 3
        assert path.shape == (4, 2, 2)


class TestSimulateCounting:
    def test_zero_channel_counts_nothing(self):
        model = SystemModel(np.zeros((2, 2)), (np.zeros((2, 2)),))
        rec, _ = simulate_counting(model, PLUS_MIXED, 1.0, 1e-3, seed=1)
        assert rec.increments.sum() == 0.0

    def test_ground_state_counts_nothing(self):
        rec, _ = simulate_counting(DECAY, DensityState.from_vector([1.0, 0.0]), 5.0, 1e-3, seed=2)
        assert rec.increments.sum() == 0.0

    def test_mean_counts_match_rate_integral(self):
        # master-equation oracle: excited population e^{-t} integrates to
        # 1 - e^{-10} from a pure excited start.  Each trajectory counts at
        # most once (after the jump the atom is dark), so when the sample
        # happens to contain no zero-count path the empirical stderr
        # degenerates; the binomial model stderr keeps the gate sound.
        T, dt, n = 10.0, 5e-3, 200
        totals = []
        for i in range(n):
            rec, _ = simulate_counting(DECAY, DensityState.from_vector([0.0, 1.0]), T, dt, seed=derive_seed(11, i))
            totals.append(rec.increments.sum())
        totals = np.array(totals)
        assert np.all(totals <= 1.0)
        want = 1.0 - np.exp(-T)
        stderr = max(totals.std(ddof=1) / np.sqrt(n), np.sqrt(want * (1.0 - want) / n))
        assert abs(totals.mean() - want) <= 4 * stderr

    def test_rate_dt_bound_enforced(self):
        hot = SystemModel(np.zeros((2, 2)), (20.0 * SIGMA_MINUS,))
        with pytest.raises(bf.ValidationError, match="jump probability"):
            simulate_counting(hot, DensityState.from_vector([0.0, 1.0]), 0.1, 1e-3, seed=0)

    def test_replay_bit_exact(self):
        rec, path = simulate_counting(DECAY, EXCITED_MIXED, 1.0, 1e-3, seed=31)
        run = replay_record(rec, DECAY, EXCITED_MIXED)
        assert np.array_equal(run.matrices, path)


class TestReplayKinds:
    def test_zakai_likelihoods_start_at_one(self):
        rec, _ = simulate_homodyne(DECAY, PLUS_MIXED, 0.2, 1e-3, seed=8)
        run = replay_record(rec, DECAY, PLUS_MIXED, kind="zakai")
        assert run.likelihoods[0] == 1.0
        assert run.kind == "zakai"
        assert np.all(run.likelihoods > 0)

    def test_normalized_matrices_have_unit_trace(self):
        rec, _ = simulate_homodyne(DECAY, PLUS_MIXED, 0.2, 1e-3, seed=8)
        run = replay_record(rec, DECAY, PLUS_MIXED, kind="zakai")
        traces = np.trace(run.normalized_matrices(), axis1=1, axis2=2).real
        assert np.max(np.abs(traces - 1.0)) <= 1e-12

    def test_unknown_kind_rejected(self):
        rec, _ = simulate_homodyne(DECAY, PLUS_MIXED, 0.1, 1e-3, seed=8)
        with pytest.raises(bf.ValidationError, match="filter kind"):
            replay_record(rec, DECAY, PLUS_MIXED, kind="fancy")

    @pytest.mark.parametrize("kind", ["auto", "bks", "zakai"])
    @pytest.mark.parametrize("with_law", [False, True], ids=["no law", "law"])
    def test_empty_record_replays_to_the_start(self, kind, with_law):
        # a zero-step record, which recordio writes and reads back, gives
        # the start alone
        law = ControlLaw.from_expression("0.2 * Y - t", np.zeros((2, 2)), SIGMA_X) if with_law else None
        for scheme in (MeasurementScheme.homodyne(), MeasurementScheme.counting()):
            run = replay_record(ObservationRecord(scheme, 1e-3, []), DECAY, PLUS_MIXED, kind=kind, law=law)
            assert run.times.tolist() == [0.0]
            assert run.matrices.shape == (1, 2, 2)
            assert np.array_equal(run.matrices[0], PLUS_MIXED.matrix)
            if kind == "zakai":
                assert run.likelihoods.tolist() == [1.0]
            else:
                assert run.likelihoods is None

    def test_expectation_series(self):
        rec, path = simulate_homodyne(DECAY, PLUS_MIXED, 0.1, 1e-3, seed=8)
        run = replay_record(rec, DECAY, PLUS_MIXED)
        series = run.expectations(SIGMA_Z)
        manual = np.einsum("tij,ji->t", path, SIGMA_Z.astype(complex))
        assert np.allclose(series, manual, atol=1e-14)


def _counting_map(calls, bad_at=None, bad=None):
    """Channel map 0.8 L, returning `bad` on call number `bad_at`."""

    def channel_map(t, prefix):
        calls.append(t)
        if len(calls) - 1 == bad_at:
            return bad
        return 0.8 * SIGMA_MINUS

    return channel_map


def _run_with_law(route, law, steps=40, dt=1e-3):
    if route == "homodyne":
        return simulate_homodyne(DECAY, PLUS_MIXED, steps * dt, dt, seed=3, law=law)
    if route == "counting":
        return simulate_counting(DECAY, EXCITED_MIXED, steps * dt, dt, seed=3, law=law)
    rng = np.random.default_rng(3)
    rec = ObservationRecord(MeasurementScheme.homodyne(), dt, rng.normal(0.0, np.sqrt(dt), size=steps))
    return replay_record(rec, DECAY, PLUS_MIXED, kind=route.split("-")[1], law=law)


LAW_ROUTES = ["homodyne", "counting", "replay-bks", "replay-zakai"]


class TestLawEvaluation:
    @pytest.mark.parametrize("route", LAW_ROUTES)
    def test_channel_map_called_once_per_step(self, route):
        calls = []
        law = ControlLaw(lambda t, prefix: 0.1, np.zeros((2, 2)), SIGMA_X, channel_map=_counting_map(calls))
        _run_with_law(route, law, steps=40)
        assert len(calls) == 40
        assert calls == [k * 1e-3 for k in range(40)]

    @pytest.mark.parametrize("route", LAW_ROUTES)
    def test_law_dimension_checked_before_first_step(self, route):
        controls = []

        def control(t, prefix):
            controls.append(t)
            return 0.0

        law = ControlLaw(control, np.zeros((3, 3)), np.eye(3))
        with pytest.raises(bf.DimensionMismatch, match="H0"):
            _run_with_law(route, law)
        assert controls == []

    @pytest.mark.parametrize("route", LAW_ROUTES)
    @pytest.mark.parametrize(
        "bad",
        [np.array([[0.0, np.nan], [0.0, 0.0]]), np.zeros((3, 3)), np.zeros((2, 3))],
        ids=["non-finite", "wrong-dim", "non-square"],
    )
    def test_bad_channel_raises_at_its_step(self, route, bad):
        calls = []
        law = ControlLaw(lambda t, prefix: 0.0, np.zeros((2, 2)), SIGMA_X, channel_map=_counting_map(calls, 7, bad))
        with pytest.raises(bf.ValidationError, match="L_t"):
            _run_with_law(route, law)
        assert calls == [k * 1e-3 for k in range(8)]

    @pytest.mark.parametrize("route", LAW_ROUTES)
    def test_law_errors_name_their_step(self, route):
        def control(t, prefix):
            return np.nan if prefix.size == 5 else 0.1

        law = ControlLaw(control, np.zeros((2, 2)), SIGMA_X)
        with pytest.raises(bf.ValidationError, match=r"^step 5: control law returned non-real value nan at t = 0.005$"):
            _run_with_law(route, law)
        law = ControlLaw(lambda t, prefix: 0.0, np.zeros((2, 2)), SIGMA_X,
                         channel_map=_counting_map([], 7, np.zeros((3, 3))))
        with pytest.raises(bf.DimensionMismatch, match=r"^step 7: L_t dim 3 != model dim 2$"):
            _run_with_law(route, law)

    @pytest.mark.parametrize("scheme", [MeasurementScheme.homodyne(), MeasurementScheme.counting()])
    def test_ensemble_law_errors_name_their_trajectory(self, scheme):
        law = ControlLaw(lambda t, prefix: 1j if prefix.size == 3 else 0.2, np.zeros((2, 2)), SIGMA_X)
        with pytest.raises(bf.ValidationError, match=r"^trajectory 0, step 3: control law returned non-real value 1j"):
            ensemble_average(DECAY, scheme, {"z": SIGMA_Z}, 3, 5, 0.01, 1e-3, PLUS_MIXED, law=law)
        law = ControlLaw(lambda t, prefix: 0.0, np.zeros((2, 2)), SIGMA_X,
                         channel_map=lambda t, prefix: np.full((2, 2), np.nan) if t > 0.0035 else SIGMA_MINUS)
        with pytest.raises(bf.ValidationError, match=r"^trajectory 0, step 4: L_t: entries must be finite$"):
            ensemble_average(DECAY, scheme, {"z": SIGMA_Z}, 3, 5, 0.01, 1e-3, PLUS_MIXED, law=law)


def _shared_kernel_cases():
    schemes = {
        "homodyne": MeasurementScheme.homodyne(),
        "phase": MeasurementScheme.homodyne(0.7),
        "imperfect": MeasurementScheme.imperfect(1.0, 0.3),
        "counting": MeasurementScheme.counting(),
    }
    for name, scheme in schemes.items():
        for dim in (2, 3):
            for kind in ("bks", "zakai"):
                for with_law in (False, True):
                    label = f"{name}-n{dim}-{kind}" + ("-law" if with_law else "")
                    yield pytest.param(scheme, dim, kind, with_law, id=label)


class TestOneKernel:
    @pytest.mark.parametrize("scheme,dim,kind,with_law", list(_shared_kernel_cases()))
    def test_public_steps_match_replay_bit_for_bit(self, scheme, dim, kind, with_law):
        rng = np.random.default_rng(40 + dim)
        model = random_model(dim, rng, scale=0.5)
        rho0 = random_density(dim, rng).mix_with_identity(0.3)
        law = None
        if with_law:
            base = model.channel
            law = ControlLaw(
                bf.compile_control_expression("0.3 * Y - ma(Y, 5) + 0.2 * t"),
                model.hamiltonian,
                bf.random_hermitian(dim, rng),
                channel_map=lambda t, prefix: (1.0 + 0.1 * t) * base,
            )
        dt = 1e-3
        if scheme.kind == "counting":
            rec, path = simulate_counting(model, rho0, 0.2, dt, seed=dim, law=law)
        else:
            rec, path = simulate_homodyne(model, rho0, 0.2, dt, seed=dim, scheme=scheme, law=law)
        run = replay_record(rec, model, rho0, kind=kind, law=law)

        normalized = kind == "bks"
        state = FilterState(np.array(rho0.matrix), normalized=normalized)
        matrices = [state.matrix]
        likelihoods = [state.likelihood]
        for k, dy in enumerate(rec.increments):
            if law is not None:
                state = feedback_step(state, dy, law, model, rec.increments[:k], dt, scheme, t=k * dt)
            elif normalized:
                state = filter_step(state, dy, model, dt, scheme)
            elif scheme.kind == "counting":
                state = zakai_step_counting(state, dy, model, dt)
            else:
                state = zakai_step_homodyne(state, dy, model, dt, scheme)
            matrices.append(state.matrix)
            likelihoods.append(state.likelihood)

        assert np.array_equal(run.matrices, np.array(matrices))
        if normalized:
            assert run.likelihoods is None
            assert np.array_equal(run.matrices, path)
        else:
            assert np.array_equal(run.likelihoods, np.array(likelihoods))


def _in_order_sums(blocks, observables):
    """The reducer's sums, one Python complex add at a time: per time index,
    the values x of each block's trajectories in index order, x - K and
    (x - K).re^2 + i (x - K).im^2, K being trajectory 0's value."""
    values = [np.stack([np.einsum("btij,ji->bt", rows, x) for x in observables]) for rows in blocks]
    o_count, _, m = values[0].shape
    sums = [[[0j] * m for _ in range(3)] for _ in range(o_count)]
    for o in range(o_count):
        for t in range(m):
            shift = complex(values[0][o, 0, t])
            for block in values:
                for x in block[o, :, t].tolist():
                    d = x - shift
                    sums[o][0][t] += x
                    sums[o][1][t] += d
                    sums[o][2][t] += complex(d.real * d.real, d.imag * d.imag)
    return np.array(sums)


class TestEnsemble:
    @pytest.mark.parametrize("m, count", [(1, 1), (3, 2), (70, 1)])
    def test_reducer_adds_rows_in_order(self, m, count):
        # the trajectories of two blocks of 10, their values spread over 16
        # decades, so that adding a time index's rows in turn and adding
        # them pairwise give other sums: the reducer must add them in turn
        rng = np.random.default_rng(m)
        observables = [np.diag([1.0, 0.0]), np.diag([0.0, 1j])][:count]
        blocks = []
        for _ in range(2):
            scale = 10.0 ** rng.integers(-8, 9, size=(10, m, 2, 2))
            blocks.append((rng.normal(size=(10, m, 2, 2)) + 1j * rng.normal(size=(10, m, 2, 2))) * scale)
        # the real part of the first observable, where every order of the
        # adds shows: 1 is lost beside 1e16 in turn, but not in pairs
        blocks[0][:, :, 0, 0].real = np.array([1e16, 1.0, -1e16] + [1.0] * 7)[:, None]
        acc = trajectories._EnsembleSums(dict(enumerate(observables)), m - 1, False)
        for rows in blocks:
            acc(0, rows)
        want = _in_order_sums(blocks, observables)
        assert acc.sums.tobytes() == want.tobytes()
        # the data tell the orders apart: numpy's pairwise sum of one block
        # plus the running sums differs from the sum in turn
        first = np.einsum("btij,ji->bt", blocks[0], observables[0])
        rows = np.concatenate([np.zeros((1, m)), first]).T.copy()
        assert np.add.reduce(rows, axis=1).tobytes() != _in_order_sums(blocks[:1], observables[:1])[0, 0].tobytes()

    def test_single_trajectory_matches_direct_run(self):
        summary = ensemble_average(
            DECAY, MeasurementScheme.homodyne(), {"z": SIGMA_Z}, 1, 77, 0.2, 1e-3, PLUS_MIXED
        )
        _, path = simulate_homodyne(DECAY, PLUS_MIXED, 0.2, 1e-3, seed=derive_seed(77, 0))
        manual = np.einsum("tij,ji->t", path, SIGMA_Z.astype(complex))
        assert np.allclose(summary.means["z"], manual, atol=1e-14)
        assert np.all(summary.stderrs_re["z"] == 0.0)

    def test_zero_channel_has_zero_variance(self):
        model = SystemModel(np.zeros((2, 2)), (np.zeros((2, 2)),))
        summary = ensemble_average(
            model, MeasurementScheme.homodyne(), {"z": SIGMA_Z}, 8, 3, 0.1, 1e-3, PLUS_MIXED
        )
        assert np.max(summary.stderrs_re["z"]) <= 1e-13

    def test_mean_matches_semigroup_small_ensemble(self):
        # tower-property oracle at reduced scale; the acceptance suite runs
        # the full N = 2000 version
        summary = ensemble_average(
            DECAY, MeasurementScheme.homodyne(), {"z": SIGMA_Z}, 200, 42, 1.0, 2e-3, PLUS_MIXED
        )
        for idx in (100, 250, 500):
            t = summary.times[idx]
            want = semigroup_evolve(PLUS_MIXED, DECAY, t).expectation(SIGMA_Z).real
            gap = abs(summary.means["z"][idx].real - want)
            assert gap <= 4 * max(summary.stderrs_re["z"][idx], 1e-4)

    def test_counting_scheme_dispatch(self):
        summary = ensemble_average(
            DECAY, MeasurementScheme.counting(), {"z": SIGMA_Z}, 5, 4, 0.5, 1e-3, EXCITED_MIXED
        )
        assert summary.n_trajectories == 5
        assert summary.scheme.kind == "counting"

    def test_requires_positive_count(self):
        with pytest.raises(bf.ValidationError):
            ensemble_average(DECAY, MeasurementScheme.homodyne(), {}, 0, 1, 0.1, 1e-3, PLUS_MIXED)

    @pytest.mark.parametrize("count", [2.5, 3.0, np.float64(2.0), True, np.bool_(True), "3", None])
    def test_refuses_non_integer_count_before_drawing(self, count, monkeypatch):
        drawn = []
        monkeypatch.setattr(trajectories, "_noise", lambda *args: drawn.append(args))
        with pytest.raises(bf.ValidationError, match=r"^n_trajectories: expected an integer, got "):
            ensemble_average(DECAY, MeasurementScheme.homodyne(), {"z": SIGMA_Z}, count, 1, 0.01, 1e-3, PLUS_MIXED)
        assert drawn == []

    @pytest.mark.parametrize("count", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_count_reads_as_int(self, count):
        args = (DECAY, MeasurementScheme.homodyne(), {"z": SIGMA_Z})
        summary = ensemble_average(*args, count, 7, 0.05, 1e-3, PLUS_MIXED)
        expected = ensemble_average(*args, 3, 7, 0.05, 1e-3, PLUS_MIXED)
        assert type(summary.n_trajectories) is int and summary.n_trajectories == 3
        assert np.array_equal(summary.mean("z"), expected.mean("z"))
        assert np.array_equal(summary.stderr("z"), expected.stderr("z"))

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "scheme,dim,seed",
        [
            (MeasurementScheme.homodyne(), 3, 61),
            (MeasurementScheme.imperfect(1.5), 2, 62),
            (MeasurementScheme.counting(), 3, 63),
        ],
    )
    def test_ensemble_unbiased_for_random_models_all_schemes(self, scheme, dim, seed):
        # tower-property oracle at full N = 2000: the ensemble mean of the
        # conditional expectation reproduces the semigroup at all grid times
        rng = np.random.default_rng(seed)
        model = random_model(dim, rng)
        rho0 = random_density(dim, rng).mix_with_identity(0.3)
        x = bf.random_hermitian(dim, rng)
        horizon, dt = 1.0, 2e-3
        summary = ensemble_average(model, scheme, {"x": x}, 2000, seed, horizon, dt, rho0)
        reference = bf.semigroup_path(rho0, model, summary.times)
        want = np.einsum("tij,ji->t", reference, x.astype(complex)).real
        gaps = np.abs(summary.means["x"].real - want)
        assert np.all(gaps <= 4.0 * summary.stderrs_re["x"] + 1e-12)


def _serial_ensemble(model, scheme, observables, n, seed, horizon, dt, rho0, law=None, collect_health=False):
    """Reference ensemble: one simulate_* run per trajectory, sums in index
    order, the variance's sums taken about trajectory 0's values."""
    steps = int(round(horizon / dt))
    sums = {name: np.zeros(steps + 1, dtype=complex) for name in observables}
    shifts, shifted_sums = {}, {name: np.zeros(steps + 1, dtype=complex) for name in observables}
    sq_re = {name: np.zeros(steps + 1) for name in observables}
    sq_im = {name: np.zeros(steps + 1) for name in observables}
    herm, eig, trace = 0.0, np.inf, 0.0
    for i in range(n):
        if scheme.kind == "counting":
            _, path = simulate_counting(model, rho0, horizon, dt, derive_seed(seed, i), law=law)
        else:
            _, path = simulate_homodyne(model, rho0, horizon, dt, derive_seed(seed, i), scheme=scheme, law=law)
        if collect_health:
            member = bf.path_health(path, normalized=True)
            herm = max(herm, member.max_hermiticity_defect)
            eig = min(eig, member.min_eigenvalue)
            trace = max(trace, member.max_trace_defect)
        for name, x in observables.items():
            vals = np.einsum("tij,ji->t", path, np.asarray(x, dtype=complex))
            shifted = vals - shifts.setdefault(name, vals)
            sums[name] += vals
            shifted_sums[name] += shifted
            sq_re[name] += shifted.real**2
            sq_im[name] += shifted.imag**2
    means = {name: sums[name] / n for name in observables}
    stderrs_re, stderrs_im = {}, {}
    for name, shifted in shifted_sums.items():
        if n > 1:
            stderrs_re[name] = np.sqrt(np.maximum(sq_re[name] - shifted.real**2 / n, 0.0) / (n - 1) / n)
            stderrs_im[name] = np.sqrt(np.maximum(sq_im[name] - shifted.imag**2 / n, 0.0) / (n - 1) / n)
        else:
            stderrs_re[name] = stderrs_im[name] = np.zeros(steps + 1)
    health = bf.PathHealth(herm, eig, trace, True) if collect_health else None
    return means, stderrs_re, stderrs_im, health


def _assert_summary_equal(summary, reference, n, scheme, horizon, dt):
    means, stderrs_re, stderrs_im, health = reference
    assert np.array_equal(summary.times, dt * np.arange(int(round(horizon / dt)) + 1))
    assert summary.n_trajectories == n
    assert summary.scheme == scheme
    for got, want in ((summary.means, means), (summary.stderrs_re, stderrs_re), (summary.stderrs_im, stderrs_im)):
        assert got.keys() == want.keys()
        for name in want:
            assert np.array_equal(got[name], want[name]), name
    assert summary.health == health


def _random_ensemble_case(dim, seed):
    rng = np.random.default_rng(seed)
    model = random_model(dim, rng, scale=0.5)
    rho0 = random_density(dim, rng).mix_with_identity(0.3)
    observables = {
        "x": bf.random_hermitian(dim, rng),
        "y": rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
    }
    return model, rho0, observables


def _block_bytes(rows, steps, dim):
    """The block budget that holds `rows` trajectories: their noise and
    their chunk rows."""
    chunk = min(steps, trajectories.ENSEMBLE_CHUNK_STEPS)
    return rows * (steps * 8 + (chunk + 1) * dim**2 * 16)


STACK_SCHEMES = {
    "homodyne-phase": MeasurementScheme.homodyne(0.7),
    "imperfect": MeasurementScheme.imperfect(1.5),
    "counting": MeasurementScheme.counting(),
}


class TestStackedEnsemble:
    """The ensemble steps its trajectories as one stack; every summary field
    must equal the serial loop's bit for bit."""

    @pytest.mark.parametrize("collect_health", [False, True], ids=["plain", "health"])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("name", list(STACK_SCHEMES))
    def test_stacked_equals_serial(self, name, dim, collect_health):
        scheme = STACK_SCHEMES[name]
        model, rho0, observables = _random_ensemble_case(dim, 70 + dim)
        args = (model, scheme, observables, 12, 19 + dim, 0.3, 1e-3, rho0)
        summary = ensemble_average(*args, collect_health=collect_health)
        reference = _serial_ensemble(*args, collect_health=collect_health)
        _assert_summary_equal(summary, reference, 12, scheme, 0.3, 1e-3)

    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("name", list(STACK_SCHEMES))
    def test_small_blocks_step_as_integrate(self, name, dim, rows):
        # a block under ENSEMBLE_STACK_ROWS steps row by row: each row is the
        # single-trajectory loop's path, bit for bit
        assert rows < trajectories.ENSEMBLE_STACK_ROWS
        scheme = STACK_SCHEMES[name]
        model, rho0, _ = _random_ensemble_case(dim, 60 + dim)
        steps = 150
        noise = np.stack([trajectories._noise(scheme, derive_seed(41, i), steps, 1e-3) for i in range(rows)])
        # the loop writes each row's increments over its noise: step copies
        paths, _ = trajectories._integrate(model, rho0, scheme, 1e-3, noise.copy())
        assert paths.shape == (rows, steps + 1, dim, dim)
        for row, path in zip(noise, paths):
            want, _ = trajectories._integrate(model, rho0, scheme, 1e-3, row[None].copy())
            assert np.array_equal(path, want[0])

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("name", list(STACK_SCHEMES))
    def test_ensembles_either_side_of_the_row_limit_equal_serial(self, name, count):
        scheme = STACK_SCHEMES[name]
        model, rho0, observables = _random_ensemble_case(2, 95)
        args = (model, scheme, observables, count, 37, 0.2, 1e-3, rho0)
        summary = ensemble_average(*args, collect_health=True)
        _assert_summary_equal(summary, _serial_ensemble(*args, collect_health=True), count, scheme, 0.2, 1e-3)

    @pytest.mark.parametrize("name", list(STACK_SCHEMES))
    def test_blocks_of_32_at_n8_equal_serial(self, name, monkeypatch):
        # a row of a stack must not depend on the stack's size: one block of
        # 32, stacked, and one of 1, row by row
        steps, dim = 100, 8
        monkeypatch.setattr(trajectories, "ENSEMBLE_BLOCK_BYTES", _block_bytes(32, steps, dim))
        blocks = []
        real_loop = trajectories._integrate
        monkeypatch.setattr(
            trajectories, "_integrate", lambda *a, **kw: blocks.append(len(a[4])) or real_loop(*a, **kw)
        )
        scheme = STACK_SCHEMES[name]
        model, rho0, observables = _random_ensemble_case(dim, 78)
        args = (model, scheme, observables, 33, 27, steps * 1e-3, 1e-3, rho0)
        summary = ensemble_average(*args, collect_health=True)
        assert blocks == [32, 1]
        _assert_summary_equal(summary, _serial_ensemble(*args, collect_health=True), 33, scheme, steps * 1e-3, 1e-3)

    @pytest.mark.parametrize("name", list(STACK_SCHEMES))
    def test_blocks_equal_serial(self, name, monkeypatch):
        # a budget of 3 trajectories per block: blocks of 3, 3, 3 and 1 trajectories
        steps = 150
        monkeypatch.setattr(trajectories, "ENSEMBLE_BLOCK_BYTES", _block_bytes(3, steps, 2) + 5)
        scheme = STACK_SCHEMES[name]
        model, rho0, observables = _random_ensemble_case(2, 90)
        blocks = []
        real_loop = trajectories._integrate
        monkeypatch.setattr(
            trajectories, "_integrate", lambda *a, **kw: blocks.append(len(a[4])) or real_loop(*a, **kw)
        )
        args = (model, scheme, observables, 10, 23, steps * 1e-3, 1e-3, rho0)
        summary = ensemble_average(*args, collect_health=True)
        assert blocks == [3, 3, 3, 1]
        _assert_summary_equal(summary, _serial_ensemble(*args, collect_health=True), 10, scheme, steps * 1e-3, 1e-3)

    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["K1", "K7", "Ksteps"])
    @pytest.mark.parametrize("split", [10, 4, 3], ids=["one-block", "4-4-2", "3-3-3-1"])
    @pytest.mark.parametrize("name", list(STACK_SCHEMES))
    def test_chunks_and_splits_equal_serial(self, name, split, chunk, monkeypatch):
        # the block reduces its rows a chunk at a time; neither the chunk
        # size nor the block split may move a bit of the summary
        steps = 60
        chunk = steps if chunk is None else chunk
        monkeypatch.setattr(trajectories, "ENSEMBLE_CHUNK_STEPS", chunk)
        monkeypatch.setattr(trajectories, "ENSEMBLE_BLOCK_BYTES", _block_bytes(split, steps, 2))
        reduced = []
        real_loop = trajectories._integrate

        def spy(*a, reduce=None, **kw):
            if reduce is not None:
                kw["reduce"] = lambda start, rows: reduced.append((start, rows.shape)) or reduce(start, rows)
            return real_loop(*a, **kw)

        monkeypatch.setattr(trajectories, "_integrate", spy)
        scheme = STACK_SCHEMES[name]
        model, rho0, observables = _random_ensemble_case(2, 93)
        args = (model, scheme, observables, 10, 31, steps * 1e-3, 1e-3, rho0)
        summary = ensemble_average(*args, collect_health=True)
        _assert_summary_equal(summary, _serial_ensemble(*args, collect_health=True), 10, scheme, steps * 1e-3, 1e-3)
        # each block reduces time indices 0 .. steps once, in chunks of
        # `chunk` rows when it steps as a stack, and of as many rows as fit
        # the budget, never fewer, when it steps row by row
        budget = trajectories.ENSEMBLE_BLOCK_BYTES
        want = []
        for b in [min(split, 10 - first) for first in range(0, 10, split)]:
            rows = chunk if b >= trajectories.ENSEMBLE_STACK_ROWS else min(steps, max(chunk, budget // (4 * b * 64) - 1))
            want += [(start + (start > 0), (b, min(start + rows, steps) - start + (start == 0), 2, 2))
                     for start in range(0, steps, rows)]
        assert reduced == want

    @pytest.mark.parametrize("name", list(STACK_SCHEMES))
    def test_small_block_reduces_by_the_budget(self, name, monkeypatch):
        # a block too small to stack reduces as many rows as the budget
        # holds: its whole horizon by default, and in chunks under a budget
        # that splits it, with the same bits
        reduced = []
        real_call = trajectories._EnsembleSums.__call__
        monkeypatch.setattr(trajectories._EnsembleSums, "__call__",
                            lambda acc, start, rows: reduced.append((start, rows.shape)) or real_call(acc, start, rows))
        model, rho0, observables = _random_ensemble_case(2, 96)
        steps = 300
        args = (model, STACK_SCHEMES[name], observables, 2, 33, steps * 1e-3, 1e-3, rho0)
        whole = ensemble_average(*args, collect_health=True)
        assert reduced == [(0, (2, steps + 1, 2, 2))]
        reduced.clear()
        monkeypatch.setattr(trajectories, "ENSEMBLE_BLOCK_BYTES", 4 * _block_bytes(2, steps, 2))
        chunk = trajectories.ENSEMBLE_BLOCK_BYTES // (4 * 2 * 64) - 1
        split = ensemble_average(*args, collect_health=True)
        assert len(reduced) == 3
        assert reduced == [(k + (k > 0), (2, min(k + chunk, steps) - k + (k == 0), 2, 2))
                           for k in range(0, steps, chunk)]
        for part in ("means", "stderrs_re", "stderrs_im"):
            for key, value in getattr(whole, part).items():
                assert getattr(split, part)[key].tobytes() == value.tobytes()
        assert split.health == whole.health

    def test_budget_counts_noise_and_chunk_rows(self, monkeypatch):
        # 32 trajectories of 500 steps at n = 4 fit one block; 400 of 2 000 at
        # n = 2 (the shipped homodyne config) go in blocks of at least 100
        blocks = []
        monkeypatch.setattr(trajectories, "_integrate", lambda *a, **kw: blocks.append(a[4].shape))
        model, rho0, observables = _random_ensemble_case(4, 94)
        ensemble_average(model, MeasurementScheme.homodyne(), observables, 32, 1, 0.5, 1e-3, rho0)
        assert blocks == [(32, 500)]
        blocks.clear()
        ensemble_average(DECAY, MeasurementScheme.homodyne(), {"z": SIGMA_Z}, 400, 1, 2.0, 1e-3, PLUS_MIXED)
        assert blocks[0][0] >= 100 and sum(rows for rows, _ in blocks) == 400

    def test_law_ensemble_equals_serial(self):
        model, rho0, observables = _random_ensemble_case(2, 91)
        law = ControlLaw.from_expression("0.3 * Y - ma(Y, 5)", model.hamiltonian, SIGMA_X)
        scheme = MeasurementScheme.homodyne()
        args = (model, scheme, observables, 4, 29, 0.1, 1e-3, rho0)
        summary = ensemble_average(*args, law=law, collect_health=True)
        _assert_summary_equal(summary, _serial_ensemble(*args, law=law, collect_health=True), 4, scheme, 0.1, 1e-3)

    def test_law_ensemble_reduces_each_trajectory_once(self, monkeypatch):
        # each law run is a block of one trajectory, reduced once as its
        # whole path
        reduced = []
        real_call = trajectories._EnsembleSums.__call__
        monkeypatch.setattr(trajectories._EnsembleSums, "__call__",
                            lambda acc, start, rows: reduced.append((start, rows.shape)) or real_call(acc, start, rows))
        model, rho0, observables = _random_ensemble_case(2, 91)
        law = ControlLaw.from_expression("0.3 * Y - ma(Y, 5)", model.hamiltonian, SIGMA_X)
        ensemble_average(model, MeasurementScheme.homodyne(), observables, 3, 29, 0.1, 1e-3, rho0, law=law)
        assert reduced == [(0, (1, 101, 2, 2))] * 3

    @pytest.mark.parametrize("budget_rows, chunk", [(400, 99), (1, trajectories.ENSEMBLE_CHUNK_STEPS)])
    def test_law_ensemble_past_its_chunk_reduces_in_chunks(self, monkeypatch, budget_rows, chunk):
        # a law block's chunk holds as many rows as the budget does with
        # three copies of each, never fewer than ENSEMBLE_CHUNK_STEPS, and
        # the summary keeps its bits
        reduced = []
        real_call = trajectories._EnsembleSums.__call__
        monkeypatch.setattr(trajectories._EnsembleSums, "__call__",
                            lambda acc, start, rows: reduced.append((start, rows.shape)) or real_call(acc, start, rows))
        monkeypatch.setattr(trajectories, "ENSEMBLE_BLOCK_BYTES", budget_rows * 2**2 * 16)
        model, rho0, observables = _random_ensemble_case(2, 91)
        law = ControlLaw.from_expression("0.3 * Y - ma(Y, 5)", model.hamiltonian, SIGMA_X)
        scheme, steps = MeasurementScheme.homodyne(), 250
        args = (model, scheme, observables, 3, 29, steps * 1e-3, 1e-3, rho0)
        summary = ensemble_average(*args, law=law, collect_health=True)
        assert reduced == [(k + (k > 0), (1, min(k + chunk, steps) - k + (k == 0), 2, 2))
                           for k in range(0, steps, chunk)] * 3
        reference = _serial_ensemble(*args, law=law, collect_health=True)
        _assert_summary_equal(summary, reference, 3, scheme, steps * 1e-3, 1e-3)

    @pytest.mark.parametrize("dim, steps, chunk", [(2, 40_000, 8_191), (8, 3_000, 511), (2, 500, 500)])
    def test_law_chunk_fits_the_block_budget(self, monkeypatch, dim, steps, chunk):
        # one law trajectory's rows are bounded by ENSEMBLE_BLOCK_BYTES, not
        # by its horizon: about 1 GB for 10**6 steps at n = 8 otherwise
        blocks = []
        monkeypatch.setattr(trajectories, "_integrate", lambda *a, **kw: blocks.append((a[4].shape, kw["chunk"])))
        model, rho0, observables = _random_ensemble_case(dim, 95)
        law = ControlLaw.from_expression("Y", model.hamiltonian, model.hamiltonian)
        ensemble_average(model, MeasurementScheme.homodyne(), observables, 2, 1, steps * 1e-3, 1e-3, rho0, law=law)
        assert blocks == [((1, steps), chunk)] * 2
        assert (chunk + 1) * dim**2 * 16 <= trajectories.ENSEMBLE_BLOCK_BYTES

    def test_single_trajectory_is_the_simulated_path(self):
        summary = ensemble_average(DECAY, MeasurementScheme.homodyne(), {"z": SIGMA_Z}, 1, 77, 0.2, 1e-3, PLUS_MIXED)
        _, path = simulate_homodyne(DECAY, PLUS_MIXED, 0.2, 1e-3, seed=derive_seed(77, 0))
        assert np.array_equal(summary.means["z"], np.einsum("tij,ji->t", path, SIGMA_Z.astype(complex)))
        noise = trajectories._noise(MeasurementScheme.homodyne(), derive_seed(77, 0), 200, 1e-3)
        paths, _ = trajectories._integrate(DECAY, PLUS_MIXED, MeasurementScheme.homodyne(), 1e-3, noise[None])
        assert paths.shape == (1,) + path.shape
        assert np.array_equal(paths[0], path)

    def test_observable_dimension_checked_before_any_step(self, monkeypatch):
        drawn = []
        real_noise = trajectories._noise
        monkeypatch.setattr(trajectories, "_noise", lambda *a: drawn.append(a) or real_noise(*a))
        with pytest.raises(bf.DimensionMismatch, match="observable 'big'"):
            ensemble_average(
                DECAY, MeasurementScheme.homodyne(), {"z": SIGMA_Z, "big": np.eye(3)}, 4, 1, 0.1, 1e-3, PLUS_MIXED
            )
        assert drawn == []


# Three levels: a count from |0> (rate 1) lands in |1>, whose rate 400 puts
# rate * dt = 4 over the jump-probability bound at dt = 1e-2.
LADDER = SystemModel(np.zeros((3, 3)), (np.array([[0, 0, 0], [1.0, 0, 0], [0, 20.0, 0]]),))
GROUND3 = DensityState.from_vector([1.0, 0.0, 0.0])


class TestErrorsNameTheirStep:
    def test_jump_bound_names_step_in_simulate_counting(self):
        # the bound fails on the step after the first count; every step
        # before it runs
        with pytest.raises(bf.ValidationError, match=r"^step \d+: dt: jump probability rate\*dt = 4 ") as info:
            simulate_counting(LADDER, GROUND3, 5.0, 1e-2, seed=4)
        step = int(info.value.args[0].split(":")[0].split()[1])
        rec, _ = simulate_counting(LADDER, GROUND3, step * 1e-2, 1e-2, seed=4)
        assert rec.increments.sum() == 1.0 and rec.increments[-1] == 1.0

    def test_jump_bound_names_trajectory_and_step_in_ensemble(self, monkeypatch):
        # trajectory 6 (row 2 of the second block of 4) counts at step 3; the
        # bound then fails at step 4
        noise = np.ones((10, 8))
        noise[6, 3] = 0.0
        monkeypatch.setattr(trajectories, "ENSEMBLE_BLOCK_BYTES", _block_bytes(4, 8, 3))
        monkeypatch.setattr(trajectories, "_noise", lambda scheme, seed, steps, dt: noise[order.index(seed)])
        order = [derive_seed(5, i) for i in range(10)]
        with pytest.raises(bf.ValidationError, match=r"^trajectory 6, step 4: dt: jump probability rate\*dt = 4 "):
            ensemble_average(LADDER, MeasurementScheme.counting(), {}, 10, 5, 8e-2, 1e-2, GROUND3)
        with pytest.raises(bf.ValidationError, match=r"^step 4: dt: jump probability rate\*dt = 4 "):
            trajectories._integrate(LADDER, GROUND3, MeasurementScheme.counting(), 1e-2, noise[6:7].copy())

    def test_collapse_names_trajectory_and_step_in_ensemble(self):
        # a huge negative increment on trajectory 3 at step 5 drives the
        # renormalized imperfect trace below zero
        scheme = MeasurementScheme.imperfect(1.5)
        noise = np.zeros((4, 10))
        noise[3, 5] = -1e3
        with pytest.raises(bf.FilterCollapse, match=r"^trajectory 3, step 5: filter trace -.* vanished"):
            trajectories._integrate(DECAY, PLUS_MIXED, scheme, 1e-3, noise.copy(), first=0)
        with pytest.raises(bf.FilterCollapse, match=r"^trajectory 3, step 5: filter trace -.* vanished"):
            trajectories._integrate(DECAY, PLUS_MIXED, scheme, 1e-3, noise[3:].copy(), first=3)

    @pytest.mark.parametrize(
        "kind, increment, step",
        [
            # the trace is 1 + 0.75 dY: 7.5e199 after step 0, then it overflows
            pytest.param("zakai", 1e200, 1, id="1e+200-1"),
            # -7.5e153 after step 0
            pytest.param("zakai", -1e154, 0, id="-1e+154-0"),
            # the normalized update is traceless: its diagonal, of the order
            # of the increment, cancels and takes the trace with it
            pytest.param("bks", 1e160, 0, id="bks-1e+160-0"),
            pytest.param("bks", 1e200, 0, id="bks-1e+200-0"),
            pytest.param("bks", -1e154, 0, id="bks--1e+154-0"),
        ],
    )
    def test_zakai_trace_refused_at_its_step(self, kind, increment, step):
        rec = ObservationRecord(MeasurementScheme.homodyne(), 1e-3, np.full(3, increment))
        if kind == "zakai":
            refused = r"unnormalized filter trace \S+ is not positive and finite"
        else:
            refused = re.escape(f"record increment dY = {increment:.3e} swamps the filter's drift")
        step_filter = zakai_step_homodyne if kind == "zakai" else bf.bks_step_homodyne
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(bf.FilterCollapse, match=rf"^step {step}: {refused}"):
                replay_record(rec, DECAY, PLUS_MIXED, kind=kind)
            state = FilterState(PLUS_MIXED.matrix, normalized=kind == "bks")
            for _ in range(step):
                state = step_filter(state, increment, DECAY, 1e-3)
            with pytest.raises(bf.FilterCollapse, match=f"^{refused}"):
                step_filter(state, increment, DECAY, 1e-3)

    def test_ordinary_collapse_still_blames_dt(self):
        # a large but representable increment drives the imperfect trace
        # below zero; its term is far inside 1/machine epsilon of the drift
        rec = ObservationRecord(MeasurementScheme.imperfect(1.5), 1e-3, np.full(3, -10.0))
        with pytest.raises(bf.FilterCollapse, match=r"^step 0: filter trace -\S+ vanished; reduce dt"):
            replay_record(rec, DECAY, PLUS_MIXED, kind="bks")

    def test_zakai_step_refuses_nan_trace(self):
        state = FilterState(np.full((2, 2), np.nan, dtype=complex), normalized=False)
        with pytest.raises(bf.FilterCollapse, match="unnormalized filter trace nan"):
            zakai_step_homodyne(state, 0.01, DECAY, 1e-3)
        with pytest.raises(bf.FilterCollapse, match="unnormalized filter trace nan"):
            zakai_step_counting(state, 0.0, DECAY, 1e-3)

    @pytest.mark.parametrize("chunk", [1, 3, 7, None], ids=["K1", "K3", "K7", "Ksteps"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", ["collapse", "zero-rate", "jump-bound"])
    def test_small_block_names_failing_row(self, case, rows, chunk):
        # the block's last row fails at step 5 and its first, when another,
        # at step 6: the earliest step is named, with the error that row
        # raises alone, whichever chunk the step limit falls in
        scheme, model, rho0, dt, fill, bad, lag, error = {
            # a huge negative increment drives the renormalized trace below zero
            "collapse": (MeasurementScheme.imperfect(1.5), DECAY, PLUS_MIXED, 1e-3, 0.0, -1e3, 0, bf.FilterCollapse),
            # noise below 0 draws a jump from the ground state, whose rate is 0
            "zero-rate": (MeasurementScheme.counting(), DECAY, DensityState.from_vector([1.0, 0.0]), 1e-3, 1.0,
                          -1.0, 0, bf.ZeroJumpRate),
            # a count one step before puts the jump probability at 4
            "jump-bound": (MeasurementScheme.counting(), LADDER, GROUND3, 1e-2, 1.0, 0.0, 1, bf.ValidationError),
        }[case]
        noise = np.full((rows, 10), fill)
        noise[0, 6 - lag] = bad
        noise[-1, 5 - lag] = bad
        with pytest.raises(error) as stacked:
            trajectories._integrate(model, rho0, scheme, dt, noise.copy(), first=7, chunk=chunk)
        with pytest.raises(error) as alone:
            trajectories._integrate(model, rho0, scheme, dt, noise[-1:].copy(), first=6 + rows)
        assert str(stacked.value) == str(alone.value)
        assert str(stacked.value).startswith(f"trajectory {6 + rows}, step 5: ")

    def test_which_of_two_failing_rows_a_block_names(self):
        # LADDER with rate 25 in |1>, so that Euler stays stable there
        # (25 dt < 1) and over the bound (25 dt > 0.1).  At step k, row 0
        # draws a jump at a rate below ZERO_RATE and row 1, having counted
        # at step k - 1, has jump probability 0.25: a small block names the
        # first failing row, a stack the first row to fail the first check
        # of a step, the jump bound
        channel = np.array([[0, 0, 0], [1.0, 0, 0], [0, 5.0, 0]])
        model = SystemModel(np.zeros((3, 3)), (channel,))
        rho0 = DensityState(np.diag([1e-12, 0.0, 1.0 - 1e-12]))
        scheme, dt, steps = MeasurementScheme.counting(), 1e-2, 1000
        quiet, _ = trajectories._integrate(model, rho0, scheme, dt, np.ones((1, steps)))
        rates = np.einsum("tij,ji->t", quiet[0], channel.T @ channel).real
        k = int(np.argmax(rates <= bf.filters.ZERO_RATE))
        assert k > 0 and rates[k - 1] > bf.filters.ZERO_RATE
        noise = np.ones((trajectories.ENSEMBLE_STACK_ROWS, k + 1))
        noise[0, k] = -1.0
        noise[1, k - 1] = 0.0
        with pytest.raises(bf.ZeroJumpRate, match=rf"^trajectory 0, step {k}: jump recorded while"):
            trajectories._integrate(model, rho0, scheme, dt, noise[:2].copy(), first=0)
        with pytest.raises(bf.ValidationError, match=rf"^trajectory 1, step {k}: dt: jump probability rate\*dt = 0\.25 "):
            trajectories._integrate(model, rho0, scheme, dt, noise, first=0)

    def test_stacked_kernel_names_zero_rate_row(self):
        # rates 0.875, 1e-15 and 0.875: noise 0.0 draws a jump at any positive rate
        w = np.stack([EXCITED_MIXED.matrix, np.diag([1.0 - 1e-15, 1e-15]).astype(complex), EXCITED_MIXED.matrix])
        noise = np.array([0.5, 0.0, 0.0])
        out = np.empty((3, 1, 4), dtype=complex)
        step = _stack_step(3, 2, 1e-3, "counting", 1.0)
        with pytest.raises(bf.ZeroJumpRate, match="jump recorded while") as info:
            step(w.reshape(3, 1, 4), bf.filters._model_matrix(DECAY, 0.0, True, 1e-3), noise, out)
        assert info.value.row == 1


class TestInnovations:
    def test_zero_channel_innovations_equal_record(self):
        model = SystemModel(np.zeros((2, 2)), (np.zeros((2, 2)),))
        rec, path = simulate_homodyne(model, PLUS_MIXED, 0.5, 1e-3, seed=6)
        rep = innovations_stats(rec, path, model)
        assert rep.terminal_values[0] == pytest.approx(rec.increments.sum(), abs=1e-14)
        assert rep.quad_variations[0] == pytest.approx(np.sum(rec.increments**2), abs=1e-14)

    def test_simulated_homodyne_innovations_are_the_raw_noise(self):
        # the co-evolved filter defines the compensator, so the innovations
        # recover the seeded Gaussian increments exactly
        T, dt = 1.0, 1e-3
        rec, path = simulate_homodyne(DECAY, PLUS_MIXED, T, dt, seed=13)
        rep = innovations_stats(rec, path, DECAY)
        dw = np.random.default_rng(13).normal(0.0, np.sqrt(dt), size=1000)
        assert rep.terminal_values[0] == pytest.approx(dw.sum(), abs=1e-10)
        assert rep.quad_variations[0] == pytest.approx(np.sum(dw**2), abs=1e-10)

    def test_length_mismatch_rejected(self):
        rec, path = simulate_homodyne(DECAY, PLUS_MIXED, 0.1, 1e-3, seed=6)
        with pytest.raises(bf.ValidationError, match="length"):
            innovations_stats(rec, path[:-2], DECAY)

    def test_scheme_mismatch_rejected(self):
        rec1, path1 = simulate_homodyne(DECAY, PLUS_MIXED, 0.1, 1e-3, seed=6)
        rec2, path2 = simulate_counting(DECAY, EXCITED_MIXED, 0.1, 1e-3, seed=6)
        with pytest.raises(bf.ValidationError, match="scheme mismatch"):
            innovations_stats([rec1, rec2], [path1, path2], DECAY)

    def test_counting_serial_products_centered(self):
        recs, paths = [], []
        for i in range(200):
            r, p = simulate_counting(DECAY, EXCITED_MIXED, 1.0, 1e-3, seed=derive_seed(55, i))
            recs.append(r)
            paths.append(p)
        rep = innovations_stats(recs, paths, DECAY)
        assert abs(rep.serial_mean) <= 4 * rep.serial_stderr
        assert abs(rep.terminal_mean) <= 4 * rep.terminal_stderr


class TestObservationRecordType:
    def test_counting_increments_validated(self):
        with pytest.raises(bf.ValidationError, match="not 0 or 1"):
            ObservationRecord(MeasurementScheme.counting(), 1e-3, np.array([0.0, 0.5]))

    def test_equality_semantics(self):
        a = ObservationRecord(MeasurementScheme.homodyne(), 1e-3, np.array([0.1, 0.2]), seed=3)
        b = ObservationRecord(MeasurementScheme.homodyne(), 1e-3, np.array([0.1, 0.2]), seed=3)
        c = ObservationRecord(MeasurementScheme.homodyne(), 1e-3, np.array([0.1, 0.3]), seed=3)
        assert a == b
        assert a != c

    def test_equal_records_hash_equal(self):
        # np.array_equal equates -0.0 and +0.0, so the hash must too
        homodyne = MeasurementScheme.homodyne()
        a = ObservationRecord(homodyne, 1e-3, np.array([0.0, -0.0, 0.2]), seed=3)
        b = ObservationRecord(homodyne, 1e-3, np.array([-0.0, 0.0, 0.2]), seed=3)
        assert a == b and hash(a) == hash(b)
        others = [
            ObservationRecord(homodyne, 1e-3, np.array([0.0, 0.0, 0.3]), seed=3),
            ObservationRecord(homodyne, 1e-3, np.array([0.0, 0.0, 0.2]), seed=4),
            ObservationRecord(homodyne, 2e-3, np.array([0.0, 0.0, 0.2]), seed=3),
            ObservationRecord(MeasurementScheme.imperfect(0.5), 1e-3, np.array([0.0, 0.0, 0.2]), seed=3),
        ]
        keyed = {a: "a", **{other: i for i, other in enumerate(others)}}
        assert len(keyed) == 5 and keyed[b] == "a"
        for i, other in enumerate(others):
            assert other != a and keyed[ObservationRecord(other.scheme, other.dt, other.increments, other.seed)] == i

    def test_increments_cannot_be_made_writeable(self):
        source = np.array([0.0, 1.0, 0.0])
        rec = ObservationRecord(MeasurementScheme.counting(), 1e-3, source)
        for view in (rec.increments, rec.increments[:2], rec.increments[::-1], rec.increments.reshape(1, 3)):
            with pytest.raises(ValueError):
                view.flags.writeable = True
            with pytest.raises(ValueError):
                view[..., 0] = 0.5
        source[1] = 0.5
        assert rec.increments.tolist() == [0.0, 1.0, 0.0]

    @pytest.mark.parametrize("route", [
        copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r)),
        lambda r: pickle.loads(pickle.dumps(r, protocol=5)),
    ], ids=["copy", "deepcopy", "pickle", "pickle5"])
    def test_copies_are_rebuilt_immutable_and_checked(self, route, monkeypatch):
        rec = ObservationRecord(MeasurementScheme.counting(), 1e-3, np.array([0.0, 1.0, 0.0]), seed=4)
        checks = []
        post_init = ObservationRecord.__post_init__

        def spy(self):
            checks.append(self.increments)
            post_init(self)

        monkeypatch.setattr(ObservationRecord, "__post_init__", spy)
        again = route(rec)
        assert len(checks) == 1  # through the constructor
        assert again == rec and again.seed == 4 and again.increments.base is not rec.increments.base
        assert hash(again) == hash(rec) and {rec: 1}[again] == 1
        with pytest.raises(ValueError):
            again.increments.flags.writeable = True

    def test_times_grid(self):
        rec = ObservationRecord(MeasurementScheme.homodyne(), 0.5, np.array([0.1, 0.2, 0.3]))
        assert np.allclose(rec.times(), [0.5, 1.0, 1.5])
        assert rec.horizon == pytest.approx(1.5)

"""Filter steps: duality oracles, closed forms, feedback, health monitoring."""

import ast

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import belfilt as bf
from belfilt.filters import (
    ControlLaw,
    FilterState,
    MeasurementScheme,
    bks_step_counting,
    bks_step_homodyne,
    compile_control_expression,
    diffusive_filter_step,
    feedback_step,
    normalize,
    path_health,
    zakai_step_counting,
    zakai_step_homodyne,
)
from belfilt.operators import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    DensityState,
    SystemModel,
    dag,
    lindblad_adjoint,
    random_density,
    random_hermitian,
    random_model,
)
from helpers import heisenberg_zakai_counting, heisenberg_zakai_homodyne, hermitian_basis

DECAY = SystemModel(np.zeros((2, 2)), (SIGMA_MINUS,))


def fstate(rho, normalized=True):
    return FilterState.from_density(rho) if normalized else FilterState(rho.matrix, normalized=False)


class TestFromDensity:
    def test_takes_a_density_state_or_a_density_matrix(self):
        rho = DensityState(np.diag([0.25, 0.75]))
        for given in (rho, rho.matrix, [[0.25, 0], [0, 0.75]]):
            state = FilterState.from_density(given, normalized=False)
            assert state.matrix.tolist() == rho.matrix.tolist() and state.matrix.flags.writeable
            assert not state.normalized and state.likelihood == 1.0

    @pytest.mark.parametrize("value, message", [
        (np.diag([0.5, 0.25]), "density matrix: trace (0.75+0j) is not 1 within 1e-10"),
        ("rho", "density matrix: non-numeric value 'rho'"),
        (None, "density matrix: non-numeric value None"),
    ], ids=["ndarray not a state", "str", "none"])
    def test_refuses_what_is_not_a_state(self, value, message):
        # the matrix was read as `rho.matrix`, an AttributeError for these
        with pytest.raises(bf.ValidationError) as info:
            FilterState.from_density(value)
        assert str(info.value).startswith(message)


class TestSchemeValidation:
    def test_kinds(self):
        for kind in ("homodyne", "imperfect", "counting"):
            MeasurementScheme(kind, kappa=1.0 if kind == "imperfect" else 0.0)
        with pytest.raises(bf.ValidationError, match="unknown kind"):
            MeasurementScheme("heterodyne")

    def test_kappa_only_for_imperfect(self):
        with pytest.raises(bf.ValidationError, match="kappa"):
            MeasurementScheme("homodyne", kappa=0.5)

    def test_negative_kappa(self):
        with pytest.raises(bf.ValidationError, match="kappa"):
            MeasurementScheme("imperfect", kappa=-1.0)

    def test_counting_has_no_phase(self):
        with pytest.raises(bf.ValidationError, match="phase"):
            MeasurementScheme("counting", phase=0.3)

    @pytest.mark.parametrize("field", ["kappa", "phase"])
    @pytest.mark.parametrize("value,shown", [("0.5", "non-numeric value '0.5'"), (b"0.5", "non-numeric value b'0.5'"),
                                             (None, "non-numeric value None"), (0.5j, "non-real value 0.5j"),
                                             (np.complex128(0.5 + 1e-300j), "non-real value .*1e-300j.*"),
                                             (np.nan, "non-real value nan"), (-np.inf, "non-real value -inf")])
    def test_non_numeric_refused(self, field, value, shown):
        with pytest.raises(bf.ValidationError, match=rf"^scheme: {field}: {shown}$"):
            MeasurementScheme("imperfect", **{field: value})

    def test_gain(self):
        assert MeasurementScheme.imperfect(0.0).gain == 1.0
        assert MeasurementScheme.imperfect(3.0).gain == pytest.approx(0.1)


class TestZakaiHomodyne:
    def test_zero_channel_is_deterministic(self, rng):
        h = random_hermitian(2, rng)
        model = SystemModel(h, (np.zeros((2, 2)),))
        rho = random_density(2, rng)
        state = fstate(rho, normalized=False)
        out = zakai_step_homodyne(state, dY=0.37, model=model, dt=1e-3)
        want = rho.matrix + (-1j * (h @ rho.matrix - rho.matrix @ h)) * 1e-3
        assert np.allclose(out.matrix, want, atol=1e-15)

    def test_trace_increment_is_m_times_dy(self, rng):
        model = random_model(3, rng)
        rho = random_density(3, rng)
        dy, dt = 0.12, 1e-3
        out = zakai_step_homodyne(fstate(rho, False), dy, model, dt)
        ch = model.channel
        m = np.trace((ch + dag(ch)) @ rho.matrix).real
        assert abs(out.trace_real() - (1.0 + m * dy)) <= 1e-13

    def test_heisenberg_duality_oracle(self, rng):
        # independent functional-picture step over a full Hermitian basis
        for _ in range(5):
            model = random_model(2, rng)
            rho = random_density(2, rng)
            dy, dt = float(rng.normal(0, 0.05)), 1e-3
            stepped_matrix = zakai_step_homodyne(fstate(rho, False), dy, model, dt).matrix
            sigma0 = lambda x: np.trace(rho.matrix @ x)
            sigma1 = heisenberg_zakai_homodyne(sigma0, model.hamiltonian, model.channel, dy, dt)
            for x in hermitian_basis(2):
                assert abs(np.trace(stepped_matrix @ x) - sigma1(x)) <= 1e-12

    def test_imperfect_gain_scales_update(self, rng):
        model = random_model(2, rng)
        rho = random_density(2, rng)
        dy, dt = 0.2, 1e-3
        kappa = 2.0
        out_imp = zakai_step_homodyne(fstate(rho, False), dy, model, dt, MeasurementScheme.imperfect(kappa))
        out_vac = zakai_step_homodyne(fstate(rho, False), dy, model, dt)
        ch = model.channel
        update = ch @ rho.matrix + rho.matrix @ dag(ch)
        expected_gap = (1.0 - 1.0 / (1.0 + kappa**2)) * update * dy
        assert np.allclose(out_vac.matrix - out_imp.matrix, expected_gap, atol=1e-14)

    def test_phase_rotates_channel(self, rng):
        model = SystemModel(np.zeros((2, 2)), (SIGMA_MINUS,))
        rho = random_density(2, rng)
        phi = 0.7
        out = zakai_step_homodyne(fstate(rho, False), 0.1, model, 1e-3, MeasurementScheme.homodyne(phase=phi))
        rot = np.exp(1j * phi) * SIGMA_MINUS
        manual = (
            rho.matrix
            + lindblad_adjoint(rho.matrix, model) * 1e-3
            + (rot @ rho.matrix + rho.matrix @ dag(rot)) * 0.1
        )
        assert np.allclose(out.matrix, manual, atol=1e-14)

    def test_rejects_bad_dt(self, rng):
        with pytest.raises(bf.ValidationError, match="dt"):
            zakai_step_homodyne(fstate(random_density(2, rng), False), 0.0, DECAY, 0.0)

    def test_hermiticity_preserved(self, rng):
        model = random_model(3, rng)
        state = fstate(random_density(3, rng), False)
        for _ in range(50):
            state = zakai_step_homodyne(state, float(rng.normal(0, 0.05)), model, 1e-3)
        assert state.hermiticity_defect() <= 1e-12


class TestBksHomodyne:
    def test_zero_channel_deterministic(self, rng):
        h = random_hermitian(2, rng)
        model = SystemModel(h, (np.zeros((2, 2)),))
        rho = random_density(2, rng)
        out = bks_step_homodyne(fstate(rho), dY=5.0, model=model, dt=1e-3)
        want = rho.matrix - 1j * (h @ rho.matrix - rho.matrix @ h) * 1e-3
        assert np.allclose(out.matrix, want / np.trace(want).real, atol=1e-13)

    def test_raw_increment_is_traceless(self, rng):
        # algebraic cancellation, computed from library pieces directly
        model = random_model(3, rng)
        rho = random_density(3, rng).matrix
        ch = model.channel
        update = ch @ rho + rho @ dag(ch)
        m = np.trace(update).real
        dy, dt = 0.3, 1e-3
        raw_increment = lindblad_adjoint(rho, model) * dt + (update - m * rho) * (dy - m * dt)
        assert abs(np.trace(raw_increment)) <= 1e-14

    def test_requires_normalized_state(self, rng):
        with pytest.raises(bf.ValidationError, match="normalized"):
            bks_step_homodyne(fstate(random_density(2, rng), False), 0.0, DECAY, 1e-3)

    def test_trace_is_one_after_step(self, rng):
        model = random_model(2, rng)
        state = fstate(random_density(2, rng))
        for _ in range(100):
            state = bks_step_homodyne(state, float(rng.normal(0, 0.05)), model, 1e-3)
            assert abs(state.trace_real() - 1.0) <= 1e-12

    def test_first_order_agreement_with_normalized_zakai(self, rng):
        model = SystemModel(0.2 * SIGMA_X, (0.4 * SIGMA_MINUS,))
        rho = DensityState(np.diag([0.4, 0.6]).astype(complex))
        dt = 1e-3
        bks = fstate(rho)
        zak = fstate(rho, normalized=False)
        gen = np.random.default_rng(3)
        for _ in range(200):
            dy = float(gen.normal(0, np.sqrt(dt)))
            bks = bks_step_homodyne(bks, dy, model, dt)
            zak = zakai_step_homodyne(zak, dy, model, dt)
        normalized, _ = normalize(zak)
        assert np.max(np.abs(normalized.matrix - bks.matrix)) <= 5e-3


class TestZakaiCounting:
    def test_no_jump_substitution(self, rng):
        model = random_model(2, rng)
        rho = random_density(2, rng).matrix
        dt = 1e-3
        out = zakai_step_counting(FilterState(rho, False), 0.0, model, dt)
        ch = model.channel
        want = rho + lindblad_adjoint(rho, model) * dt - (ch @ rho @ dag(ch) - rho) * dt
        assert np.allclose(out.matrix, want, atol=1e-15)

    def test_jump_substitution(self, rng):
        model = random_model(2, rng)
        rho = random_density(2, rng).matrix
        dt = 1e-3
        out = zakai_step_counting(FilterState(rho, False), 1.0, model, dt)
        ch = model.channel
        want = rho + lindblad_adjoint(rho, model) * dt + (ch @ rho @ dag(ch) - rho) * (1.0 - dt)
        assert np.allclose(out.matrix, want, atol=1e-15)

    def test_rejects_fractional_increment(self, rng):
        with pytest.raises(bf.ValidationError, match="0 or 1"):
            zakai_step_counting(fstate(random_density(2, rng), False), 0.5, DECAY, 1e-3)

    def test_heisenberg_duality_oracle(self, rng):
        for dy in (0.0, 1.0):
            model = random_model(3, rng)
            rho = random_density(3, rng)
            dt = 2e-3
            stepped = zakai_step_counting(fstate(rho, False), dy, model, dt).matrix
            sigma0 = lambda x: np.trace(rho.matrix @ x)
            sigma1 = heisenberg_zakai_counting(sigma0, model.hamiltonian, model.channel, dy, dt)
            for x in hermitian_basis(3):
                assert abs(np.trace(stepped @ x) - sigma1(x)) <= 1e-12


class TestBksCounting:
    def test_zero_channel_never_jumps(self, rng):
        h = random_hermitian(2, rng)
        model = SystemModel(h, (np.zeros((2, 2)),))
        state = fstate(random_density(2, rng))
        out = bks_step_counting(state, 0.0, model, 1e-3)
        assert abs(out.trace_real() - 1.0) <= 1e-12
        with pytest.raises(bf.ZeroJumpRate):
            bks_step_counting(state, 1.0, model, 1e-3)

    def test_jump_map_forgets_prior_state_for_rank_one_channel(self, rng):
        # L = |g><e| is rank one: any jump lands on |g><g|
        for _ in range(5):
            rho = random_density(2, rng)
            out = bks_step_counting(fstate(rho), 1.0, DECAY, 1e-3)
            assert np.allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_no_jump_population_follows_logistic_decay(self):
        # no-jump ODE for the excited population: p' = -p(1-p).  Reference
        # computed with a high-accuracy integrator, and cross-checked against
        # the closed form p0 e^{-t} / (p0 e^{-t} + 1 - p0).
        p0 = 0.7
        ref = solve_ivp(
            lambda _, p: -p * (1.0 - p), (0.0, 1.0), [p0], rtol=1e-12, atol=1e-14, dense_output=True
        )
        closed = lambda t: p0 * np.exp(-t) / (p0 * np.exp(-t) + 1.0 - p0)
        assert abs(ref.sol(1.0)[0] - closed(1.0)) <= 1e-9

        dt = 1e-4
        state = fstate(DensityState(np.diag([1.0 - p0, p0]).astype(complex)))
        for _ in range(10000):
            state = bks_step_counting(state, 0.0, DECAY, dt)
        p_end = state.matrix[1, 1].real
        assert abs(p_end - ref.sol(1.0)[0]) <= 5e-4

    def test_excited_state_is_no_jump_fixed_point(self):
        # from a pure excited state, no count means no decay happened
        state = fstate(DensityState.from_vector([0.0, 1.0]))
        for _ in range(100):
            state = bks_step_counting(state, 0.0, DECAY, 1e-3)
        assert np.allclose(state.matrix, np.diag([0.0, 1.0]), atol=1e-12)


class TestNormalize:
    def test_unit_trace_is_identity(self, rng):
        rho = random_density(3, rng)
        out, likelihood = normalize(fstate(rho, False))
        assert likelihood == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_scale_invariance(self, rng):
        rho = random_density(3, rng)
        for c in (0.5, 2.0, 1e-6):
            out, likelihood = normalize(FilterState(c * rho.matrix, False))
            assert likelihood == pytest.approx(c, rel=1e-12)
            assert np.allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_collapse_detection(self):
        with pytest.raises(bf.FilterCollapse):
            normalize(FilterState(np.zeros((2, 2)), False))


_PUBLIC_STEPS = {
    "bks_step_homodyne": lambda state, dy, dt=1e-3: bks_step_homodyne(state, dy, DECAY, dt),
    "zakai_step_homodyne": lambda state, dy, dt=1e-3: zakai_step_homodyne(state, dy, DECAY, dt),
    "bks_step_counting": lambda state, dy, dt=1e-3: bks_step_counting(state, dy, DECAY, dt),
    "zakai_step_counting": lambda state, dy, dt=1e-3: zakai_step_counting(state, dy, DECAY, dt),
    "diffusive_filter_step": lambda state, dy, dt=1e-3: diffusive_filter_step(
        state, dy, DECAY, dt, MeasurementScheme.imperfect(1.0)),
    "filter_step": lambda state, dy, dt=1e-3: bf.filter_step(state, dy, DECAY, dt),
    "feedback_step": lambda state, dy, dt=1e-3: feedback_step(
        state, dy, ControlLaw.from_expression("0.5 * Y", np.zeros((2, 2)), SIGMA_X), DECAY, [0.1], dt),
}


@pytest.mark.parametrize("entry", list(_PUBLIC_STEPS))
def test_step_builds_its_state_as_init_would(entry):
    # steps build their FilterState without __init__: a fresh matrix, the
    # step's normalization, and the incoming likelihood when normalized,
    # else the trace stepped to
    normalized = not entry.startswith("zakai")
    matrix = DensityState.from_vector([1.0, 0.3 + 0.4j]).matrix.copy()
    out = _PUBLIC_STEPS[entry](FilterState(matrix, normalized, 0.25), 0.0)
    assert type(out) is FilterState and out.normalized is normalized
    m = out.matrix
    assert m.shape == (2, 2) and m.dtype == complex and m.flags.c_contiguous and m.flags.writeable
    assert not np.shares_memory(m, matrix)
    if normalized:
        assert out.likelihood == 0.25
    else:
        assert out.likelihood == pytest.approx(out.trace_real(), rel=1e-12)


class TestNonFiniteInputsRefused:
    """No step returns a NaN state in silence: an increment that is not a
    finite real number is refused before the step, and a normalized trace
    that is NaN or infinite raises."""

    @pytest.mark.parametrize("value,shown", [(np.nan, "non-real value nan"), (np.inf, "non-real value inf"),
                                             (-np.inf, "non-real value -inf"), (1j, r"non-real value 1j"),
                                             ("0.01", "non-numeric value '0.01'"), (None, "non-numeric value None")])
    @pytest.mark.parametrize("entry", list(_PUBLIC_STEPS))
    def test_increment_must_be_finite_real(self, entry, value, shown):
        state = FilterState(np.diag([0.5, 0.5]).astype(complex), normalized=True)
        with pytest.raises(bf.ValidationError, match=rf"^increment dY: {shown}$"):
            _PUBLIC_STEPS[entry](state, value)

    @pytest.mark.parametrize("dt,shown", [("0.001", "non-numeric value '0.001'"),
                                          (b"0.001", "non-numeric value b'0.001'"),
                                          (None, "non-numeric value None"), (1e-3j, "non-real value 0.001j"),
                                          (np.complex128(1e-3 + 1e-300j), "non-real value .*1e-300j.*")])
    @pytest.mark.parametrize("entry", list(_PUBLIC_STEPS))
    def test_dt_must_be_a_real_number(self, entry, dt, shown):
        state = FilterState(np.diag([0.5, 0.5]).astype(complex), normalized=True)
        with pytest.raises(bf.ValidationError, match=rf"^dt: {shown}$"):
            _PUBLIC_STEPS[entry](state, 0.0, dt)

    @pytest.mark.parametrize("t,prefix,shown", [
        (np.nan, 0, "non-real value nan"), (np.inf, 3, "non-real value inf"), (-np.inf, 0, "non-real value -inf"),
        (0.1j, 0, r"non-real value 0.1j"), ("0.1", 0, "non-numeric value '0.1'"),
        ([0.1], 0, r"non-numeric value \[0.1\]"),
    ])
    def test_feedback_time_must_be_finite_real(self, t, prefix, shown):
        law = ControlLaw.from_expression("0.5 * Y", np.zeros((2, 2)), SIGMA_X)
        state = FilterState(np.diag([0.5, 0.5]).astype(complex), normalized=True)
        with pytest.raises(bf.ValidationError, match=rf"^t: {shown}$"):
            feedback_step(state, 0.0, law, DECAY, np.zeros(prefix), 1e-3, t=t)

    @pytest.mark.parametrize("value", [0.25, np.float64(0.25), np.float32(0.25), 1, np.int64(1), 1 + 0j])
    def test_real_increments_of_any_type_step_alike(self, value):
        state = FilterState(np.diag([0.5, 0.5]).astype(complex), normalized=True)
        expected = bks_step_homodyne(state, complex(value).real, DECAY, 1e-3)
        assert np.array_equal(bks_step_homodyne(state, value, DECAY, 1e-3).matrix, expected.matrix)

    @pytest.mark.parametrize("entry", ["bks_step_homodyne", "diffusive_filter_step", "filter_step", "feedback_step"])
    @pytest.mark.parametrize("fill", [np.nan, np.inf])
    def test_normalized_step_of_non_finite_state_collapses(self, entry, fill):
        state = FilterState(np.full((2, 2), fill, dtype=complex), normalized=True)
        with np.errstate(invalid="ignore"), pytest.raises(bf.FilterCollapse, match=r"^filter trace nan is not finite$"):
            _PUBLIC_STEPS[entry](state, 0.01)

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf])
    def test_normalize_refuses_non_finite_trace(self, fill):
        with pytest.raises(bf.FilterCollapse, match=rf"^filter trace {fill:.3e} is not finite$"):
            normalize(FilterState(np.diag([fill, 0.5]).astype(complex), False))

    def test_stacked_step_names_nan_row(self):
        w = np.stack([np.diag([0.5, 0.5]), np.full((2, 2), np.nan), np.diag([0.5, 0.5])]).astype(complex)
        s = bf.filters._model_matrix(DECAY, 0.0, False, 1e-3)
        noise = np.full(3, 0.01)
        out = np.empty((3, 1, 4), dtype=complex)
        with np.errstate(invalid="ignore"), pytest.raises(bf.FilterCollapse, match=r"^filter trace nan is not finite$") as info:
            bf.filters._stack_step(3, 2, 1e-3, "homodyne", 1.0)(w.reshape(3, 1, 4), s, noise, out)
        assert info.value.row == 1


class TestControlExpressions:
    def test_constant(self):
        u = compile_control_expression("1.5")
        assert u(0.0, np.array([])) == 1.5

    def test_time_and_cumulative(self):
        u = compile_control_expression("2*t - Y")
        assert u(0.5, np.array([0.1, 0.2])) == pytest.approx(1.0 - 0.3)

    def test_empty_prefix_gives_zero_y(self):
        u = compile_control_expression("Y + ma(Y, 3)")
        assert u(0.0, np.array([])) == 0.0

    def test_moving_average(self):
        u = compile_control_expression("ma(Y, 2)")
        prefix = np.array([1.0, 1.0, 1.0])
        # cumulative: 1, 2, 3 -> trailing mean of last two = 2.5
        assert u(0.0, prefix) == pytest.approx(2.5)

    def test_rejects_attribute_access(self):
        with pytest.raises(bf.ValidationError, match="unsupported"):
            compile_control_expression("__import__('os')")

    def test_rejects_unknown_names(self):
        with pytest.raises(bf.ValidationError, match="unsupported"):
            compile_control_expression("t + x")

    def test_rejects_power(self):
        with pytest.raises(bf.ValidationError, match="unsupported"):
            compile_control_expression("t ** 2")

    @pytest.mark.parametrize("expression,offender", [
        ("t ** 2", lambda e: e),
        ("t + x", lambda e: e.right),
        ("1 + Y ** 2", lambda e: e.right),
        ("not t", lambda e: e),
        ("ma(Y)", lambda e: e),
        ("ma(Y, 0)", lambda e: e),
        ("ma(Y, 2.5)", lambda e: e),
        ("ma(t, 3)", lambda e: e),
        ("ma(Y, w=3)", lambda e: e),
        ("f(Y, 3)", lambda e: e),
        ("Y.real", lambda e: e),
        ("'a'", lambda e: e),
    ])
    def test_refusal_names_the_first_unsupported_node(self, expression, offender):
        node = offender(ast.parse(expression, mode="eval").body)
        message = (f"control expression {expression!r}: unsupported construct {ast.dump(node)};"
                   " the grammar allows numbers, t, Y, ma(Y, window), + - * / and parentheses")
        with pytest.raises(bf.ValidationError) as info:
            compile_control_expression(expression)
        assert str(info.value) == message

    def test_division_by_zero(self):
        u = compile_control_expression("1 / t")
        with pytest.raises(bf.ValidationError, match="division"):
            u(0.0, np.array([]))


class TestFeedback:
    def test_zero_control_matches_static_step(self, rng):
        model = SystemModel(0.3 * SIGMA_Z, (SIGMA_MINUS,))
        law = ControlLaw.from_expression("0", model.hamiltonian, SIGMA_X)
        rho = random_density(2, rng)
        dy, dt = 0.02, 1e-3
        via = feedback_step(fstate(rho), dy, law, model, np.array([0.1, 0.2]), dt)
        plain = bks_step_homodyne(fstate(rho), dy, model, dt)
        assert np.array_equal(via.matrix, plain.matrix)

    def test_constant_control_matches_shifted_hamiltonian(self, rng):
        # the law's step adds c C1 r in the coefficient product: bit for bit
        # the first step of a closed loop under the law, and within a
        # rounding the static model, whose S holds c H1 in its A' block
        c = 0.8
        model = SystemModel(0.3 * SIGMA_Z, (SIGMA_MINUS,))
        law = ControlLaw.from_expression(f"{c}", model.hamiltonian, SIGMA_X)
        static = SystemModel(model.hamiltonian + c * SIGMA_X, model.channels)
        rho = random_density(2, rng)
        dy, dt = -0.04, 1e-3
        via = feedback_step(fstate(rho), dy, law, model, np.array([]), dt, t=0.0)
        record = bf.ObservationRecord(MeasurementScheme.homodyne(), dt, np.array([dy]))
        loop = bf.replay_record(record, model, rho, kind="bks", law=law)
        assert np.array_equal(via.matrix, loop.matrices[1])
        plain = bks_step_homodyne(fstate(rho), dy, static, dt)
        assert np.max(np.abs(via.matrix - plain.matrix)) <= 1e-15

    def test_moving_average_law_matches_independent_integration(self, rng):
        # dual-implementation comparison: the oracle evaluates u from the
        # record prefix itself and steps the normalized equation directly
        model = SystemModel(0.2 * SIGMA_Z, (0.5 * SIGMA_MINUS,))
        h1 = SIGMA_X
        dt = 1e-3
        law = ControlLaw.from_expression("ma(Y, 20)", model.hamiltonian, h1)
        gen = np.random.default_rng(11)
        increments = gen.normal(0.0, np.sqrt(dt), size=300)
        rho0 = DensityState(np.diag([0.45, 0.55]).astype(complex))

        state = fstate(rho0)
        for k, dy in enumerate(increments):
            state = feedback_step(state, dy, law, model, increments[:k], dt, t=k * dt)

        # independent route: explicit time-varying-Hamiltonian Euler stepper
        rho = rho0.matrix.copy()
        ch = model.channel
        grammian = dag(ch) @ ch
        for k, dy in enumerate(increments):
            cum = np.cumsum(increments[:k])
            u = float(np.mean(cum[-20:])) if cum.size else 0.0
            h_t = model.hamiltonian + u * h1
            update = ch @ rho + rho @ dag(ch)
            m = np.trace(update).real
            drift = -1j * (h_t @ rho - rho @ h_t) + ch @ rho @ dag(ch) - 0.5 * (grammian @ rho + rho @ grammian)
            raw = rho + drift * dt + (update - m * rho) * (dy - m * dt)
            rho = raw / np.trace(raw).real
        assert np.max(np.abs(rho - state.matrix)) <= 1e-12

    def test_causality_violation_detected(self, rng):
        model = SystemModel(np.zeros((2, 2)), (SIGMA_MINUS,))
        law = ControlLaw.from_expression("Y", model.hamiltonian, SIGMA_X)
        prefix = np.zeros(10)
        with pytest.raises(bf.CausalityViolation):
            feedback_step(fstate(random_density(2, rng)), 0.0, law, model, prefix, 1e-3, t=5e-3)

    def test_counting_scheme_dispatch(self, rng):
        model = DECAY
        law = ControlLaw.from_expression("0", model.hamiltonian, SIGMA_X)
        rho = random_density(2, rng)
        out = feedback_step(fstate(rho), 1.0, law, model, np.array([]), 1e-3, scheme=MeasurementScheme.counting(), t=0.0)
        plain = bks_step_counting(fstate(rho), 1.0, model, 1e-3)
        assert np.array_equal(out.matrix, plain.matrix)

    def test_law_channel_map(self, rng):
        model = SystemModel(np.zeros((2, 2)), (SIGMA_MINUS,))
        law = ControlLaw(
            control=lambda t, prefix: 0.0,
            h0=np.zeros((2, 2)),
            h1=SIGMA_X,
            channel_map=lambda t, prefix: 0.5 * SIGMA_MINUS,
        )
        rho = random_density(2, rng)
        scaled = SystemModel(np.zeros((2, 2)), (0.5 * SIGMA_MINUS,))
        via = feedback_step(fstate(rho), 0.02, law, model, np.array([]), 1e-3, t=0.0)
        plain = bks_step_homodyne(fstate(rho), 0.02, scaled, 1e-3)
        assert np.array_equal(via.matrix, plain.matrix)

    def test_law_validates_hermiticity(self):
        with pytest.raises(bf.ValidationError, match="H1"):
            ControlLaw.from_expression("t", np.zeros((2, 2)), SIGMA_MINUS)


class TestStepHermiticity:
    def test_every_step_preserves_hermiticity(self, rng):
        # increments are Hermitian by construction; defect stays at roundoff
        model = random_model(2, rng)
        g = np.random.default_rng(2)
        normalized = fstate(random_density(2, rng))
        unnormalized = fstate(random_density(2, rng), normalized=False)
        for _ in range(50):
            dy = float(g.normal(0, 0.03))
            jump = float(g.random() < 0.01)
            normalized = bks_step_homodyne(normalized, dy, model, 1e-3)
            unnormalized = zakai_step_homodyne(unnormalized, dy, model, 1e-3)
            assert normalized.hermiticity_defect() <= 1e-12
            assert unnormalized.hermiticity_defect() <= 1e-12
        cnt_n = fstate(random_density(2, rng))
        cnt_u = fstate(random_density(2, rng), normalized=False)
        for _ in range(50):
            cnt_n = bks_step_counting(cnt_n, 0.0, model, 1e-3)
            cnt_u = zakai_step_counting(cnt_u, float(g.random() < 0.2), model, 1e-3)
            assert cnt_n.hermiticity_defect() <= 1e-12
            assert cnt_u.hermiticity_defect() <= 1e-12


class TestCountingLikelihood:
    def test_zakai_trace_factorizes_into_stepwise_likelihood(self):
        # independent oracle: the discrete recursion multiplies the trace by
        # 1 + (1 - r)dt on silence and 1 + (r - 1)(1 - dt) on a count, with
        # r the normalized rate before the step
        from belfilt.trajectories import replay_record, simulate_counting

        rec, _ = simulate_counting(DECAY, DensityState.from_vector([0.0, 1.0]).mix_with_identity(0.3), 2.0, 1e-3, seed=71)
        run = replay_record(rec, DECAY, DensityState.from_vector([0.0, 1.0]).mix_with_identity(0.3), kind="zakai")
        grammian = dag(SIGMA_MINUS) @ SIGMA_MINUS
        states = run.normalized_matrices()[:-1]
        rates = np.einsum("tij,ji->t", states, grammian).real
        factors = np.where(
            rec.increments == 1.0,
            1.0 + (rates - 1.0) * (1.0 - rec.dt),
            1.0 + (1.0 - rates) * rec.dt,
        )
        assert run.likelihoods[-1] == pytest.approx(np.prod(factors), rel=1e-10)

    def test_matched_model_has_higher_log_likelihood(self):
        # records from the true model should outscore a perturbed coupling;
        # a driven atom emits repeatedly, so each record carries real evidence
        from belfilt.trajectories import derive_seed, replay_record, simulate_counting

        driven = SystemModel(2.0 * SIGMA_X, (SIGMA_MINUS,))
        perturbed = SystemModel(2.0 * SIGMA_X, (1.3 * SIGMA_MINUS,))
        rho0 = DensityState.from_vector([1.0, 0.0]).mix_with_identity(0.3)
        gaps = []
        for i in range(80):
            rec, _ = simulate_counting(driven, rho0, 6.0, 1e-3, seed=derive_seed(81, i))
            true_ll = np.log(replay_record(rec, driven, rho0, kind="zakai").likelihoods[-1])
            wrong_ll = np.log(replay_record(rec, perturbed, rho0, kind="zakai").likelihoods[-1])
            gaps.append(true_ll - wrong_ll)
        gaps = np.array(gaps)
        assert gaps.mean() > 0.0
        assert gaps.mean() > 2.0 * gaps.std(ddof=1) / np.sqrt(gaps.size)


class TestPathHealth:
    def test_clean_path(self, rng):
        mats = np.stack([random_density(2, rng).matrix for _ in range(5)])
        health = path_health(mats)
        assert health.ok
        assert health.min_eigenvalue >= -1e-12

    def test_positivity_breach_detected(self):
        bad = np.diag([1.5, -0.5]).astype(complex)[None]
        health = path_health(bad)
        assert not health.positivity_ok

    def test_trace_defect_detected(self):
        off = (1.01 * np.eye(2) / 2)[None].astype(complex)
        health = path_health(off, normalized=True)
        assert not health.trace_ok
        assert path_health(off, normalized=False).ok


def _two_by_two(kind, rng, m=400):
    """m 2 x 2 matrices of one kind, unit scale."""
    z = rng.normal(size=(m, 2, 2)) + 1j * rng.normal(size=(m, 2, 2))
    if kind == "hermitian":
        return 0.5 * (z + np.conj(np.swapaxes(z, 1, 2)))
    if kind == "non-hermitian":
        return z
    if kind == "degenerate":  # a = d, b = 0, a Hermitian or not
        a = rng.normal(size=m) + 1j * rng.normal(size=m) * (np.arange(m) % 2)
        return a[:, None, None] * np.eye(2)
    # pure states |v><v|, whose lowest eigenvalue 0 the closed form gets by
    # cancellation
    v = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v[:, :, None] * np.conj(v[:, None, :])


class TestPathHealthTwoByTwo:
    """At n = 2 the audit is a closed form on the entries, not eigvalsh."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("kind", ["hermitian", "non-hermitian", "degenerate", "pure"])
    def test_lowest_eigenvalue_matches_eigvalsh(self, kind, scale):
        mats = scale * _two_by_two(kind, np.random.default_rng(17))
        for mat in mats:
            want = np.linalg.eigvalsh(0.5 * (mat + dag(mat)))[0]
            got = path_health(mat).min_eigenvalue
            assert abs(got - want) <= 1e-12 * max(1.0, np.linalg.norm(mat, 2)), (mat, got, want)

    @pytest.mark.parametrize("kind", ["hermitian", "non-hermitian", "degenerate", "pure"])
    def test_defects_equal_the_matrix_formulas_bit_for_bit(self, kind):
        mats = _two_by_two(kind, np.random.default_rng(18))
        mats = mats / np.trace(mats, axis1=1, axis2=2)[:, None, None] + 1e-9j * mats
        health = path_health(mats)
        assert health.max_hermiticity_defect == float(np.max(np.abs(mats - np.conj(np.swapaxes(mats, 1, 2)))))
        assert health.max_trace_defect == float(np.max(np.abs(np.trace(mats, axis1=1, axis2=2).real - 1.0)))


def _lowest_by_eigvalsh(mats) -> float:
    """The audit's reference: eigvalsh on every Hermitian part."""
    return float(np.linalg.eigvalsh(0.5 * (mats + np.conj(np.swapaxes(mats, 1, 2))))[:, 0].min())


def _wandering_path(dim, rng, m=2001):
    """m unit-trace Hermitian matrices along a random walk from a mixed
    state, with a small non-Hermitian part: lowest eigenvalues that vary
    along the path, as a filter's do."""
    steps = rng.normal(size=(m, dim, dim)) + 1j * rng.normal(size=(m, dim, dim))
    walk = random_density(dim, rng).mix_with_identity(0.5).matrix + 2e-3 / dim * np.cumsum(
        0.5 * (steps + np.conj(np.swapaxes(steps, 1, 2))), axis=0)
    walk += 1e-13j * rng.normal(size=walk.shape)
    return walk / np.trace(walk, axis1=1, axis2=2).real[:, None, None]


def _rotated(matrix, rng):
    """U matrix U* for a random unitary U: the same spectrum, other bits."""
    q, _ = np.linalg.qr(rng.normal(size=matrix.shape) + 1j * rng.normal(size=matrix.shape))
    return q @ matrix @ dag(q)


class TestPathHealthExact:
    """At n > 2 the audit's eigenvalue is eigvalsh's, bit for bit, however
    the Cholesky screen splits the stack."""

    DIMS = [3, 4, 8]

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dim", DIMS)
    def test_random_paths(self, dim, seed):
        mats = _wandering_path(dim, np.random.default_rng([dim, seed]))
        assert path_health(mats).min_eigenvalue == _lowest_by_eigvalsh(mats)

    @pytest.mark.parametrize("dim", DIMS)
    def test_screen_runs_eigvalsh_on_few_matrices(self, dim, monkeypatch):
        mats = _wandering_path(dim, np.random.default_rng(dim))
        seen = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(len(a)) or eigvalsh(a))
        assert path_health(mats).min_eigenvalue == _lowest_by_eigvalsh(mats)
        assert sum(seen[:-1]) < len(mats) / 4, seen  # the last call is the reference's

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("index", [37, 1999], ids=["unsampled", "last-partial-chunk"])
    @pytest.mark.parametrize("below", [0.0, 1e-12, 1e-3])
    def test_minimum_where_the_sample_does_not_look(self, dim, index, below):
        # index % 16 != 0, so the sample skips it; 1999 lies in the last chunk
        # of 2001 (1984 .. 2000); below = 0 ties the minimum up to rounding
        rng = np.random.default_rng([dim, index])
        mats = _wandering_path(dim, rng)
        lowest = np.linalg.eigvalsh(0.5 * (mats + np.conj(np.swapaxes(mats, 1, 2))))[:, 0]
        mats[index] = _rotated(mats[int(np.argmin(lowest))], rng) - below * np.eye(dim)
        want = _lowest_by_eigvalsh(mats)
        assert path_health(mats).min_eigenvalue == want
        if below:
            assert want == float(np.linalg.eigvalsh(0.5 * (mats[index] + dag(mats[index])))[0])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim", DIMS)
    def test_ties_with_a_sampled_minimum(self, dim, seed):
        # the minimum copied to a sampled index (a multiple of 16), so that it
        # is the sample's bound itself, and rotated into ten unsampled ones:
        # their values tie with the bound up to rounding, so only the margin
        # keeps their chunks (with none, some of these seeds fail)
        rng = np.random.default_rng([dim, seed, 3])
        mats = _wandering_path(dim, rng)
        j = int(np.argmin(np.linalg.eigvalsh(0.5 * (mats + np.conj(np.swapaxes(mats, 1, 2))))[:, 0]))
        mats[j - j % 16] = mats[j]
        for k in range(5, 2001, 200):
            mats[k] = _rotated(mats[j], rng)
        assert path_health(mats).min_eigenvalue == _lowest_by_eigvalsh(mats)

    @pytest.mark.parametrize("dim", DIMS)
    def test_single_negative_matrix_breaches_with_its_value(self, dim):
        mats = _wandering_path(dim, np.random.default_rng([dim, 5]))
        k = 1003
        lowest = np.linalg.eigvalsh(0.5 * (mats[k] + dag(mats[k])))[0]
        mats[k] -= (lowest + 1e-3) * np.eye(dim)
        want = float(np.linalg.eigvalsh(0.5 * (mats[k] + dag(mats[k])))[0])
        health = path_health(mats, normalized=False)
        assert want < -9e-4 and health.min_eigenvalue == want == _lowest_by_eigvalsh(mats)
        assert not health.positivity_ok

    @pytest.mark.parametrize("dim", DIMS)
    def test_constant_path(self, dim, monkeypatch):
        # every chunk fails the screen: after the sample, one call on the stack
        mats = np.repeat(np.eye(dim, dtype=complex)[None] / dim, 2001, axis=0)
        seen = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(len(a)) or eigvalsh(a))
        health = path_health(mats)
        assert seen == [126, 2001]
        assert health.min_eigenvalue == _lowest_by_eigvalsh(mats)
        assert health.ok

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("m", [1, 2, 17, 127, 128, 129, 191])
    def test_short_stacks(self, dim, m):
        # below two chunks of 64 the audit is one eigvalsh call; from 128 on
        # it screens
        mats = _wandering_path(dim, np.random.default_rng([dim, m]), m)
        assert path_health(mats).min_eigenvalue == _lowest_by_eigvalsh(mats)

    @pytest.mark.parametrize("dim", DIMS)
    def test_transposed_input(self, dim):
        mats = np.swapaxes(_wandering_path(dim, np.random.default_rng([dim, 9])), 1, 2)
        assert path_health(mats).min_eigenvalue == _lowest_by_eigvalsh(mats)

    @pytest.mark.parametrize("dim", DIMS)
    def test_defects_equal_the_matrix_formulas_bit_for_bit(self, dim):
        rng = np.random.default_rng([dim, 11])
        mats = _wandering_path(dim, rng) + 1e-9j * rng.normal(size=(2001, dim, dim))
        health = path_health(mats)
        assert health.max_hermiticity_defect == float(np.max(np.abs(mats - np.conj(np.swapaxes(mats, 1, 2)))))
        assert health.max_trace_defect == float(np.max(np.abs(np.trace(mats, axis1=1, axis2=2).real - 1.0)))


class TestPathHealthEdges:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_fails_positivity(self, dim, bad):
        # every entry, real and imaginary part, inside a stack of clean states
        clean = np.stack([np.eye(dim, dtype=complex) / dim] * 3)
        for i in range(dim):
            for j in range(dim):
                for value in (complex(bad, 0.0), complex(0.0, bad)):
                    mats = clean.copy()
                    mats[1, i, j] += value
                    for normalized in (True, False):
                        with np.errstate(invalid="ignore", over="ignore"):
                            health = path_health(mats, normalized=normalized)
                        assert np.isnan(health.min_eigenvalue), (i, j, value)
                        assert not health.positivity_ok and not health.ok

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_state_min_eigenvalue_is_nan_when_not_finite(self, dim, where, bad):
        # as path_health reports it; eigvalsh gave -0.0 or raised LinAlgError
        matrix = np.eye(dim, dtype=complex) / dim
        matrix[where] = bad
        state = FilterState(matrix)
        assert np.isnan(state.min_eigenvalue())
        with np.errstate(invalid="ignore"):
            assert np.isnan(path_health(matrix).min_eigenvalue)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_empty_stack_refused(self, dim):
        with pytest.raises(bf.ValidationError, match=r"nonempty stack.*\(0, %d, %d\)" % (dim, dim)):
            path_health(np.zeros((0, dim, dim), dtype=complex))


# --- the bound stacked step -------------------------------------------------

_STACK_SCHEMES = {
    "homodyne": MeasurementScheme.homodyne(),
    "phase": MeasurementScheme.homodyne(0.7),
    "imperfect": MeasurementScheme.imperfect(1.5),
    "counting": MeasurementScheme.counting(),
}


def _stack_setup(scheme, n, b, rng):
    """(model step matrix, dt, route, gain, rows (b, 1, n^2)) for one scheme."""
    counting = scheme.kind == "counting"
    dt = 1e-2 if counting else 1e-3
    model = random_model(n, rng, scale=0.5)
    s = bf.filters._model_matrix(model, scheme.phase, counting, dt)
    rows = np.stack([random_density(n, rng).mix_with_identity(0.3).matrix.reshape(1, -1) for _ in range(b)])
    return s, dt, bf.filters._route(scheme), scheme.gain, rows


def _stack_noise(scheme, b, k, dt, rng):
    """Step k's noise, shape (b,).  Counting rows jump (noise 0) where
    (row + k) % 3 == 0 and never elsewhere (noise >= 0.5 > rate dt), so a
    step mixes rows that jump with rows that do not, and a row that jumped
    steps without a count next."""
    if scheme.kind != "counting":
        return scheme.noise_scale * rng.normal(0.0, np.sqrt(dt), size=b)
    jumps = (np.arange(b) + k) % 3 == 0
    return np.where(jumps, 0.0, 0.5 + 0.5 * rng.random(b))


def _rows_one_by_one(rows, s, noise, n, dt, kind, gain):
    """Each row stepped alone through `_row_step`, as a (b, 1, n^2) stack."""
    step = bf.filters._row_step(n, dt, kind, gain, True, True)
    out = np.empty_like(rows)
    for row, value, target in zip(rows, noise.tolist(), out):
        step(row[0], s, value, target[0])
    return out


class TestStackStep:
    @pytest.mark.parametrize("b", [1, 2, 5])
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("name", list(_STACK_SCHEMES))
    def test_each_row_steps_as_one_matrix(self, name, n, b):
        scheme = _STACK_SCHEMES[name]
        rng = np.random.default_rng(100 * n + b)
        s, dt, kind, gain, rows = _stack_setup(scheme, n, b, rng)
        step = bf.filters._stack_step(b, n, dt, kind, gain)
        alone = rows.copy()
        for k in range(12):
            noise = _stack_noise(scheme, b, k, dt, rng)
            out = np.empty_like(rows)
            step(rows, s, noise, out)
            alone = _rows_one_by_one(alone, s, noise, n, dt, kind, gain)
            assert np.array_equal(out, alone), f"step {k}"
            rows = out

    def test_stack_step_reads_strided_rows_and_noise(self):
        # the loop passes views of its chunk buffer and of the block's noise
        rng = np.random.default_rng(5)
        s, dt, kind, gain, rows = _stack_setup(MeasurementScheme.homodyne(0.7), 3, 4, rng)
        buffer = np.zeros((4, 3, 1, 9), dtype=complex)
        buffer[:, 0] = rows
        noise = rng.normal(0.0, 0.03, size=(4, 6))
        step = bf.filters._stack_step(4, 3, dt, kind, gain)
        step(buffer[:, 0], s, noise[:, 2], buffer[:, 1])
        assert np.array_equal(buffer[:, 1], _rows_one_by_one(rows, s, noise[:, 2], 3, dt, kind, gain))

    @pytest.mark.parametrize("name", list(_STACK_SCHEMES))
    def test_next_step_after_a_refused_one_is_correct(self, name):
        scheme = _STACK_SCHEMES[name]
        rng = np.random.default_rng(9)
        s, dt, kind, gain, rows = _stack_setup(scheme, 2, 3, rng)
        step = bf.filters._stack_step(3, 2, dt, kind, gain)
        bad = rows.copy()
        bad[1] = np.nan
        # counting: rows 0 and 2 jump and row 1, NaN, does not, so the refusal
        # comes after the count rows were written
        noise = np.zeros(3) if scheme.kind == "counting" else np.full(3, 0.01)
        with np.errstate(invalid="ignore"), pytest.raises(bf.FilterCollapse, match=r"^filter trace nan is not finite$") as info:
            step(bad, s, noise, np.empty_like(rows))
        assert info.value.row == 1
        for k in range(3):
            noise = _stack_noise(scheme, 3, k + 1, dt, rng)
            out = np.empty_like(rows)
            step(rows, s, noise, out)
            assert np.array_equal(out, _rows_one_by_one(rows, s, noise, 2, dt, kind, gain))
            rows = out

    def test_counting_refusals_keep_their_order_and_row(self):
        dt = 1e-3
        s = bf.filters._model_matrix(DECAY, 0.0, True, dt)
        step = bf.filters._stack_step(3, 2, dt, "counting", 1.0)
        excited = np.diag([0.125, 0.875]).astype(complex).reshape(1, 4)
        ground = np.diag([1.0 - 1e-15, 1e-15]).astype(complex).reshape(1, 4)
        out = np.empty((3, 1, 4), dtype=complex)
        # row 2's jump probability 200 dt exceeds the bound before row 1's
        # zero-rate jump is looked at, and a NaN row 0 does not hide it
        for first in (excited, np.full((1, 4), np.nan, dtype=complex)):
            rows = np.stack([first, ground, 200.0 * excited])
            with np.errstate(invalid="ignore"), pytest.raises(
                    bf.ValidationError, match=r"^dt: jump probability rate\*dt = 0\.175") as info:
                step(rows, s, np.zeros(3), out)
            assert info.value.row == 2
        rows = np.stack([excited, ground, excited])
        with pytest.raises(bf.ZeroJumpRate, match=r"^jump recorded while trace\(L\*L rho\) = 1\.000e-15") as info:
            step(rows, s, np.zeros(3), out)
        assert info.value.row == 1
        noise = np.array([0.0, 0.5, 0.5])
        step(rows, s, noise, out)
        assert np.array_equal(out, _rows_one_by_one(rows, s, noise, 2, dt, "counting", 1.0))

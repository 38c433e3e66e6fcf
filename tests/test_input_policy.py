"""One input policy: every number taken from outside the package, through a
JSON config or an API argument, is read by `operators._finite_real` (reals)
or `operators._require_integer` (integers), and refused the same way: a
str, a bool, an integer beyond the float range or a non-finite value raises
ValidationError naming what was read, and the CLI prints it on one line.
Every outside matrix, stack or vector (an operator, a state, an
observable) is read entry by entry by the same policy, through
`operators._entries`."""

import json

import numpy as np
import pytest

import belfilt as bf
from belfilt.cli import run
from belfilt.conditioning import CommutativeAlgebra, conditional_expectation, joint_spectral_projections
from belfilt.config import config_from_dict, load_config
from belfilt.filters import (ControlLaw, FilterState, MeasurementScheme, compile_control_expression, feedback_step,
                             path_health, zakai_step_homodyne)
from belfilt.fock import (FockVector, ModeTruncation, StepFunction, counting_char_function, quadrature_char_function,
                          weyl_qsde_check)
from belfilt.ito import flow_coefficients
from belfilt.operators import (SIGMA_MINUS, SIGMA_X, DensityState, SystemModel, as_operator, lindblad_adjoint,
                               lindblad_heisenberg, semigroup_evolve, semigroup_path)
from belfilt.trajectories import (ObservationRecord, derive_seed, ensemble_average, innovations_stats, replay_record,
                                  simulate_homodyne)

HUGE = 10**400
BEYOND = "integer of 401 digits, beyond the float range"
# where a config value goes, replaced in the JSON text by each literal
SLOT = "@value@"
RHO0 = [[0, 0, 0.5, 0.0], [0, 1, 0.375, 0.0], [1, 0, 0.375, 0.0], [1, 1, 0.5, 0.0]]


def qubit_config(**overrides):
    cfg = {"dim": 2, "hamiltonian": [], "channels": [[[0, 1, 1.0, 0.0]]], "rho0": RHO0, "scheme": "homodyne",
           "dt": 1e-3, "T": 0.1, "seed": 7, "observables": {"z": [[0, 0, -1.0, 0.0], [1, 1, 1.0, 0.0]]}}
    cfg.update(overrides)
    return cfg


def with_entry(part: int, rest: list) -> list:
    """A matrix whose entry 0 holds SLOT as its row, col, re or im, then `rest`."""
    entry = [0, 0, 1.0, 0.0]
    entry[part] = SLOT
    return [entry, *rest]


def _config_sites():
    """(id, config overrides holding SLOT, the refusal's opening, whether
    the key is read as an integer)."""
    sites = [(key, {key: SLOT}, f"{key}: ", key in ("dim", "seed", "n_trajectories"))
             for key in ("dim", "dt", "T", "seed", "n_trajectories")]
    sites += [("kappa", {"scheme": "imperfect", "kappa": SLOT}, "scheme: kappa: ", False),
              ("phase", {"phase": SLOT}, "scheme: phase: ", False)]
    for part, label in enumerate(("row", "col", "re", "im")):
        matrices = {
            "hamiltonian": {"hamiltonian": with_entry(part, [])},
            "channels[0]": {"channels": [with_entry(part, [])]},
            "rho0": {"rho0": with_entry(part, RHO0[1:])},
            "observables[z]": {"observables": {"z": with_entry(part, [[1, 1, 1.0, 0.0]])}},
            "control_h1": {"control_expression": "t", "control_h1": with_entry(part, [])},
        }
        sites += [(f"{name} {label}", overrides, f"{name}: entry 0: {label}: ", part < 2)
                  for name, overrides in matrices.items()]
    return sites


# JSON literal -> what the refusal says of it, by the reader of the key
LITERALS = {
    "str": ('"0.5"', "non-numeric value '0.5'", "expected an integer, got '0.5'"),
    "bool": ("true", "non-numeric value True", "expected an integer, got True"),
    "int-beyond-floats": (str(HUGE), BEYOND, BEYOND),
    "1e400": ("1e400", "non-real value inf", "expected an integer, got inf"),
}

MODEL = SystemModel(np.zeros((2, 2)), (SIGMA_MINUS,))
RHO = DensityState.maximally_mixed(2)
STATE = FilterState.from_density(RHO)
LAW = ControlLaw.from_expression("t", np.zeros((2, 2)), SIGMA_X)
MODE = ModeTruncation(0.5)
STEPS = StepFunction(0.1, [1.0, 1.0])
HOMODYNE = MeasurementScheme.homodyne()
REC = ObservationRecord(HOMODYNE, 1e-3, [0.1, -0.2])
REPLAY = replay_record(REC, MODEL, RHO)
ALGEBRA = CommutativeAlgebra.trivial(2)

# (id, call with the value, opening, whether an integer is read)
API_SITES = [
    ("scheme kappa", lambda v: MeasurementScheme("imperfect", v), "scheme: kappa: ", False),
    ("scheme phase", lambda v: MeasurementScheme("homodyne", 0.0, v), "scheme: phase: ", False),
    ("mix weight", lambda v: RHO.mix_with_identity(v), "weight: ", False),
    ("semigroup_evolve t", lambda v: semigroup_evolve(RHO, MODEL, v), "t: ", False),
    ("semigroup_path times", lambda v: semigroup_path(RHO, MODEL, np.array([0.0, v], dtype=object)), "times: ", False),
    ("zakai step dY", lambda v: zakai_step_homodyne(STATE, v, MODEL, 1e-3), "increment dY: ", False),
    ("zakai step dt", lambda v: zakai_step_homodyne(STATE, 0.0, MODEL, v), "dt: ", False),
    ("feedback_step dY", lambda v: feedback_step(STATE, v, LAW, MODEL, [], 1e-3), "increment dY: ", False),
    ("feedback_step dt", lambda v: feedback_step(STATE, 0.0, LAW, MODEL, [], v), "dt: ", False),
    ("feedback_step t", lambda v: feedback_step(STATE, 0.0, LAW, MODEL, [], 1e-3, t=v), "t: ", False),
    ("compiled law t", lambda v: LAW.control(v, []), "t: ", False),
    ("hamiltonian_at t", lambda v: LAW.hamiltonian_at(v, []), "t: ", False),
    ("simulate T", lambda v: simulate_homodyne(MODEL, RHO, v, 1e-3, 0), "T: ", False),
    ("simulate dt", lambda v: simulate_homodyne(MODEL, RHO, 0.01, v, 0), "dt: ", False),
    ("simulate seed", lambda v: simulate_homodyne(MODEL, RHO, 0.01, 1e-3, v), "seed: ", True),
    ("ensemble n_trajectories", lambda v: ensemble_average(MODEL, HOMODYNE, {}, v, 0, 0.01, 1e-3, RHO),
     "n_trajectories: ", True),
    ("record dt", lambda v: ObservationRecord(HOMODYNE, v, [0.0]), "record dt: ", False),
    ("record seed", lambda v: ObservationRecord(HOMODYNE, 1e-3, [0.0], v), "seed: ", True),
    ("record increments", lambda v: ObservationRecord(HOMODYNE, 1e-3, np.array([0.0, v], dtype=object)),
     "record increments: ", False),
    ("compiled law prefix", lambda v: LAW.control(0.5, np.array([0.0, v], dtype=object)), "record prefix: ", False),
    ("feedback_step prefix", lambda v: feedback_step(STATE, 0.0, LAW, MODEL, np.array([v], dtype=object), 1e-3),
     "record prefix: ", False),
    ("maximally_mixed dim", lambda v: DensityState.maximally_mixed(v), "dim: ", True),
    ("trivial algebra dim", lambda v: CommutativeAlgebra.trivial(v), "dim: ", True),
    ("derive_seed base", lambda v: derive_seed(v, 0), "seed: ", True),
    ("derive_seed index", lambda v: derive_seed(0, v), "trajectory index: ", True),
    ("fock amplitude", lambda v: ModeTruncation(v), "amplitude: ", False),
    ("fock cutoff", lambda v: ModeTruncation(0.5, cutoff=v), "cutoff: ", True),
    ("fock radius", lambda v: ModeTruncation(0.5, radius=v), "radius: ", False),
    ("quadrature x", lambda v: quadrature_char_function(MODE, v), "x: ", False),
    ("counting x", lambda v: counting_char_function(MODE, v), "x: ", False),
    ("step function dt", lambda v: StepFunction(v, [1.0, 1.0]), "dt: ", False),
    ("weyl halvings", lambda v: weyl_qsde_check(STEPS, STEPS, STEPS, halvings=v), "halvings: ", True),
]


class TestRefusals:
    @pytest.mark.parametrize("literal", sorted(LITERALS))
    @pytest.mark.parametrize("overrides,opening,integer", [site[1:] for site in _config_sites()],
                             ids=[site[0] for site in _config_sites()])
    def test_config_value_names_its_key_and_cli_exits_one(self, tmp_path, capsys, overrides, opening, integer,
                                                          literal):
        text, as_real, as_integer = LITERALS[literal]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(qubit_config(**overrides)).replace(json.dumps(SLOT), text))
        with pytest.raises(bf.ValidationError) as info:
            load_config(path)
        assert str(info.value) == opening + (as_integer if integer else as_real)
        assert run(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"

    def test_observable_name_with_braces_is_named_as_it_is(self):
        with pytest.raises(bf.ValidationError) as info:
            config_from_dict(qubit_config(observables={"a{0}{": [[0, 0, "x", 0.0]]}))
        assert str(info.value) == "observables[a{0}{]: entry 0: re: non-numeric value 'x'"

    @pytest.mark.parametrize("value", [HUGE, True, np.True_], ids=["int-beyond-floats", "bool", "numpy-bool"])
    @pytest.mark.parametrize("call,opening,integer", [site[1:] for site in API_SITES], ids=[s[0] for s in API_SITES])
    def test_api_argument_names_itself(self, call, opening, integer, value):
        if value is HUGE:
            what = BEYOND
        else:
            what = f"expected an integer, got {value!r}" if integer else f"non-numeric value {value!r}"
        with pytest.raises(bf.ValidationError) as info:
            call(value)
        assert str(info.value) == opening + what

    @pytest.mark.parametrize("kwargs,message", [
        ({"radius": float("nan")}, "radius: non-real value nan"),
        ({"radius": float("inf")}, "radius: non-real value inf"),
        ({"cutoff": 2.7}, "cutoff: expected an integer, got 2.7"),
        ({"cutoff": "3"}, "cutoff: expected an integer, got '3'"),
    ])
    def test_mode_truncation(self, kwargs, message):
        # a NaN radius would have turned the truncation-radius check off
        with pytest.raises(bf.ValidationError) as info:
            ModeTruncation(5.0, **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("amplitude,message", [
        ("0.5", "amplitude: non-numeric value '0.5'"),
        (None, "amplitude: non-numeric value None"),
        (complex(np.nan, 0.0), "amplitude: non-finite value (nan+0j)"),
        (complex(0.0, np.inf), "amplitude: non-finite value infj"),
    ])
    def test_mode_amplitude(self, amplitude, message):
        with pytest.raises(bf.ValidationError) as info:
            ModeTruncation(amplitude)
        assert str(info.value) == message

    def test_mode_amplitude_is_complex(self):
        assert ModeTruncation(np.complex64(0.25 - 0.5j)).amplitude == 0.25 - 0.5j
        assert ModeTruncation(1).amplitude == 1.0 and type(ModeTruncation(1).amplitude) is complex

    @pytest.mark.parametrize("build", [DensityState.maximally_mixed, CommutativeAlgebra.trivial],
                             ids=["maximally_mixed", "trivial"])
    @pytest.mark.parametrize("dim,message", [
        (2.5, "dim: expected an integer, got 2.5"),
        ("2", "dim: expected an integer, got '2'"),
        (0, "dim must be at least 1"),
        (-3, "dim must be at least 1"),
    ])
    def test_dimension(self, build, dim, message):
        with pytest.raises(bf.ValidationError) as info:
            build(dim)
        assert str(info.value) == message
        assert build(np.int64(3)).dim == 3

    @pytest.mark.parametrize("increments,message", [
        (["0.5"], "record increments: non-numeric value ['0.5']"),
        ([True, False], "record increments: non-numeric value True"),
        ([0.5, 10**400], "record increments: integer of 401 digits, beyond the float range"),
        ([0.5 + 1j], "record increments: non-real value [(0.5+1j)]"),
        ([0.5, None], "record increments: non-numeric value None"),
        ([0.5, np.inf], "record increments must be finite"),
    ])
    def test_record_increments(self, increments, message):
        with pytest.raises(bf.ValidationError) as info:
            ObservationRecord(HOMODYNE, 1e-3, increments)
        assert str(info.value) == message

    def test_record_increments_with_zero_imaginary_parts_read_as_real(self):
        record = ObservationRecord(HOMODYNE, 1e-3, [0.5 + 0j, np.complex128(-0.25)])
        assert record.increments.tolist() == [0.5, -0.25]

    @pytest.mark.parametrize("value", [True, np.True_, np.array(True), False, np.False_],
                             ids=["bool", "numpy-bool", "bool-array", "false", "numpy-false"])
    @pytest.mark.parametrize("call,opening", [
        (lambda v: ObservationRecord(HOMODYNE, 1e-3, [0.5, v]), "record increments: "),
        (lambda v: ObservationRecord(HOMODYNE, 1e-3, ((0.5,), (v,))), "record increments: "),
        (lambda v: LAW.control(0.5, [0.5, v]), "record prefix: "),
        (lambda v: feedback_step(STATE, 0.0, LAW, MODEL, [0.5, v], 1e-3, t=2e-3), "record prefix: "),
        (lambda v: semigroup_path(RHO, MODEL, [0.5, v]), "times: "),
    ], ids=["record increments", "nested record increments", "compiled law prefix", "feedback_step prefix",
            "semigroup_path times"])
    def test_bool_beside_numbers(self, call, opening, value):
        # np.asarray reads a bool in a list of numbers as 0.0 or 1.0, and
        # the list holds no other 0 or 1
        with pytest.raises(bf.ValidationError) as info:
            call(value)
        assert str(info.value) == opening + f"non-numeric value {value!r}"

    def test_boolean_times(self):
        with pytest.raises(bf.ValidationError) as info:
            semigroup_path(RHO, MODEL, np.array([False, True]))
        assert str(info.value) == "times: non-numeric value False"


class TestIntegersPastPrinting:
    """Python will not print an int of more than 4300 digits: such an int
    is described by its digit count, never printed."""

    @pytest.mark.parametrize("digits", [310, 4300, 4301, 5001])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_digit_count(self, digits, sign):
        for value, count in ((10 ** (digits - 1), digits), (10**digits - 1, digits)):
            with pytest.raises(bf.ValidationError) as info:
                derive_seed(0, sign * value)
            assert str(info.value) == f"trajectory index: integer of {count} digits, beyond the float range"

    @pytest.mark.parametrize("call,opening", [
        (lambda v: derive_seed(v, 0), "seed: "),
        (lambda v: simulate_homodyne(MODEL, RHO, 0.01, 1e-3, v), "seed: "),
        (lambda v: config_from_dict(qubit_config(seed=v)), "seed: "),
        (lambda v: config_from_dict(qubit_config(n_trajectories=-v)), "n_trajectories: "),
        (lambda v: config_from_dict(qubit_config(T=v)), "T: "),
        (lambda v: semigroup_evolve(RHO, MODEL, v), "t: "),
    ])
    def test_refused_by_digit_count(self, call, opening):
        with pytest.raises(bf.ValidationError) as info:
            call(10**5000)
        assert str(info.value) == opening + "integer of 5001 digits, beyond the float range"

    def test_json_literal_past_the_parser_limit(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(qubit_config(seed=SLOT)).replace(json.dumps(SLOT), "1" * 5000))
        with pytest.raises(bf.ValidationError, match=r"^config: invalid JSON in .*4300 digits"):
            load_config(path)
        assert run(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: invalid JSON in ") and err.count("\n") == 1


@pytest.mark.parametrize("call,message", [
    (lambda: simulate_homodyne(MODEL, DensityState.maximally_mixed(3), 0.01, 1e-3, 0), "rho0 dim 3 != model dim 2"),
    (lambda: ensemble_average(MODEL, HOMODYNE, {"x": np.eye(3)}, 2, 0, 0.01, 1e-3, RHO),
     "observable 'x' dim 3 != model dim 2"),
    (lambda: simulate_homodyne(MODEL, RHO, 0.01, 1e-3, 0, law=ControlLaw.from_expression("t", np.eye(3), np.eye(3))),
     "control H0/H1 dim 3 != model dim 2"),
    (lambda: zakai_step_homodyne(FilterState.from_density(DensityState.maximally_mixed(3)), 0.0, MODEL, 1e-3),
     "state dim 3 != model dim 2"),
    (lambda: flow_coefficients(np.eye(3), MODEL), "X dim 3 != model dim 2"),
    (lambda: REPLAY.expectations(np.eye(3)), "observable dim 3 != path dim 2"),
    (lambda: STATE.expectation(np.eye(3)), "observable dim 3 != state dim 2"),
    (lambda: innovations_stats(REC, REPLAY.matrices, SystemModel(np.zeros((3, 3)), (np.eye(3),))),
     "path 0 dim 2 != model dim 3"),
    (lambda: ALGEBRA.coefficients(np.eye(3)), "A dim 3 != algebra dim 2"),
], ids=["rho0", "observable", "law", "state", "ito X", "replay expectations", "filter state expectation",
        "innovations path", "algebra coefficients"])
def test_dimension_refusals(call, message):
    with pytest.raises(bf.DimensionMismatch) as info:
        call()
    assert str(info.value) == message


OBJECT = object()
# (id, an input no operator reader takes, what the refusal says of it)
MATRIX_INPUTS = [
    ("str entry", [[0, "1"], ["1", 0]], "non-numeric value '1'"),
    ("bool entry", [[0, True], [True, 0]], "non-numeric value True"),
    ("bool array", np.array([[False, True], [True, False]]), "non-numeric value False"),
    ("ragged nesting", [[0, 1], [1]], "ragged nesting, not an array"),
    ("int-beyond-floats", [[HUGE, 0], [0, 0]], BEYOND),
    ("object", OBJECT, f"non-numeric value {OBJECT!r}"),
]
# (id, call with the input, the name its refusal opens with)
MATRIX_SITES = [
    ("hamiltonian", lambda v: SystemModel(v, ()), "hamiltonian"),
    ("channel", lambda v: SystemModel(np.zeros((2, 2)), (v,)), "channel 0"),
    ("law H0", lambda v: ControlLaw(LAW.control, v, SIGMA_X), "H0"),
    ("law H1", lambda v: ControlLaw(LAW.control, np.zeros((2, 2)), v), "H1"),
    ("DensityState", DensityState, "density matrix"),
    ("from_vector", DensityState.from_vector, "state vector"),
    ("ensemble observable", lambda v: ensemble_average(MODEL, HOMODYNE, {"x": v}, 2, 0, 0.01, 1e-3, RHO),
     "observable 'x'"),
    ("DensityState.expectation", RHO.expectation, "observable"),
    ("FilterState.expectation", STATE.expectation, "observable"),
    ("FilterRun.expectations", REPLAY.expectations, "observable"),
    ("lindblad_heisenberg", lambda v: lindblad_heisenberg(v, MODEL), "X"),
    ("lindblad_adjoint", lambda v: lindblad_adjoint(v, MODEL), "rho"),
    ("semigroup_evolve rho0", lambda v: semigroup_evolve(v, MODEL, 0.1), "density matrix"),
    ("semigroup_path rho0", lambda v: semigroup_path(v, MODEL, [0.0, 0.1]), "density matrix"),
    ("path_health", path_health, "matrices"),
    ("innovations path", lambda v: innovations_stats(REC, v, MODEL), "path 0"),
    ("conditioning generator", lambda v: joint_spectral_projections([v]), "generator 0"),
    ("conditioning state", lambda v: conditional_expectation(np.eye(2), ALGEBRA, v), "density matrix"),
    ("conditioning A", lambda v: conditional_expectation(v, ALGEBRA, RHO), "A"),
    ("algebra coefficients", ALGEBRA.coefficients, "A"),
    ("ito X", lambda v: flow_coefficients(v, MODEL), "X"),
    ("as_operator", as_operator, "operator"),
    ("fock vector", FockVector, "coefficients"),
    ("step function", lambda v: StepFunction(0.1, v), "step values"),
    ("algebra labels", lambda v: CommutativeAlgebra((np.eye(2),), v), "labels"),
    ("algebra element", ALGEBRA.element, "coefficients"),
]


class TestOperatorInputs:
    @pytest.mark.parametrize("value,what", [i[1:] for i in MATRIX_INPUTS], ids=[i[0] for i in MATRIX_INPUTS])
    @pytest.mark.parametrize("call,name", [s[1:] for s in MATRIX_SITES], ids=[s[0] for s in MATRIX_SITES])
    def test_entries_refused_naming_the_operator(self, call, name, value, what):
        with pytest.raises(bf.ValidationError) as info:
            call(value)
        assert type(info.value) is bf.ValidationError
        assert str(info.value) == f"{name}: {what}"

    @pytest.mark.parametrize("call,message", [
        (lambda: path_health(np.zeros(3)), "matrices: expected a stack of square matrices, got shape (3,)"),
        (lambda: path_health(np.zeros((4, 2, 3))),
         "matrices: expected a stack of square matrices, got shape (4, 2, 3)"),
        (lambda: innovations_stats(REC, np.zeros((3, 2)), MODEL),
         "path 0: expected a stack of square matrices, got shape (1, 3, 2)"),
    ], ids=["path_health vector", "path_health non-square", "innovations path"])
    def test_stack_shape_refused(self, call, message):
        with pytest.raises(bf.ValidationError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("call,name", [
        (lambda m: SystemModel(m, ()), "hamiltonian"),
        (lambda m: ControlLaw(LAW.control, m, SIGMA_X), "H0"),
        (lambda m: ControlLaw(LAW.control, np.zeros((2, 2)), m), "H1"),
        (lambda m: DensityState(m + 0.5 * np.eye(2)), "density matrix"),
    ])
    def test_not_hermitian_gives_the_defect(self, call, name):
        with pytest.raises(bf.ValidationError) as info:
            call(np.array([[0.0, 0.25], [0.0, 0.0]]))
        assert str(info.value) == f"{name}: not Hermitian (defect 2.500e-01)"

    @pytest.mark.parametrize("value", [
        [[0.5, -0.25], [-0.25, 0.5]],
        [[1, 0], [0, -3]],
        [[0.5 + 0.25j, 0], [1j, -0.0]],
        ((1, 2.5), (0.5j, 4)),
        [[np.float64(0.1), np.int64(2)], [np.complex128(3 - 1e-300j), 4.0]],
        [np.array([0.1, 0.2]), np.array([0.3, 0.4])],
        np.array([[1, 2], [3, 4]]),
        np.array([[1, 2], [3, 4]], dtype=np.uint8),
        np.array([[0.1, 0.2], [0.3, 0.4]]),
        np.array([[0.1, 0.2], [0.3, 0.4]], dtype=np.float32),
        np.array([[1 + 2j, 0.1], [0, 3]], dtype=np.complex64),
    ], ids=["float list", "int list", "complex list", "tuples", "numpy scalars", "list of arrays", "int array",
            "uint8 array", "float array", "float32 array", "complex64 array"])
    def test_numbers_read_bit_for_bit_as_numpy_reads_them(self, value):
        got = as_operator(value)
        assert got.dtype == complex and got.tobytes() == np.asarray(value, dtype=complex).tobytes()
        hermitian = np.asarray(value, dtype=complex) + np.conj(np.asarray(value, dtype=complex)).T
        listed = SystemModel(hermitian.tolist(), (value,))
        assert listed.hamiltonian.tobytes() == hermitian.tobytes()
        assert listed.channels[0].tobytes() == got.tobytes()

    def test_complex_array_is_taken_without_a_copy(self):
        m = np.eye(2, dtype=complex)
        assert as_operator(m) is m

    @pytest.mark.parametrize("vector", [[1, 2], [1.0, 2.0], np.array([1, 2]), (1 + 0j, 2)])
    def test_vectors_and_states_read_bit_for_bit(self, vector):
        want = DensityState.from_vector(np.array([1.0, 2.0]))
        assert DensityState.from_vector(vector).matrix.tobytes() == want.matrix.tobytes()
        assert DensityState(want.matrix.tolist()).matrix.tobytes() == want.matrix.tobytes()

    @pytest.mark.parametrize("call,message", [
        (lambda: ObservationRecord("homodyne", 1e-3, [0.1]),
         "record scheme: expected a MeasurementScheme, got 'homodyne'"),
        (lambda: compile_control_expression(5), "control expression: expected a string, got 5"),
        (lambda: ControlLaw.from_expression(5, np.zeros((2, 2)), SIGMA_X),
         "control expression: expected a string, got 5"),
    ], ids=["record scheme", "compiled expression", "law expression"])
    def test_wrong_type_argument(self, call, message):
        with pytest.raises(bf.ValidationError) as info:
            call()
        assert str(info.value) == message

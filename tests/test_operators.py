"""Operator algebra, generators, and the reduced semigroup."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import belfilt as bf
from belfilt import operators
from belfilt.operators import (
    SIGMA_MINUS,
    SIGMA_Z,
    _PADE_LOW,
    _THETA_13,
    DensityState,
    SystemModel,
    _channel_parts,
    _commutator,
    _expm,
    _liouville,
    adjoint_superoperator,
    dag,
    lindblad_adjoint,
    lindblad_heisenberg,
    random_density,
    random_hermitian,
    random_model,
    semigroup_evolve,
    semigroup_path,
)
from helpers import heisenberg_generator, hermitian_basis, reference_liouville, reference_semigroup_path

I2 = np.eye(2, dtype=complex)
_DECAY = SystemModel(SIGMA_Z, (SIGMA_MINUS,))


class TestValidation:
    def test_density_requires_unit_trace(self):
        with pytest.raises(bf.ValidationError, match="trace"):
            DensityState(np.eye(2))

    def test_density_requires_hermitian(self):
        m = np.array([[0.5, 0.2], [0.0, 0.5]])
        with pytest.raises(bf.ValidationError, match="Hermitian"):
            DensityState(m)

    def test_density_requires_positive(self):
        with pytest.raises(bf.ValidationError, match="eigenvalue"):
            DensityState(np.diag([1.5, -0.5]))

    def test_model_requires_hermitian_hamiltonian(self):
        with pytest.raises(bf.ValidationError, match="hamiltonian"):
            SystemModel(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_model_dim_mismatch(self):
        with pytest.raises(bf.ValidationError):
            SystemModel(np.zeros((2, 2)), (np.zeros((3, 3)),))

    def test_operator_shape(self):
        with pytest.raises(bf.ValidationError, match="square"):
            bf.as_operator(np.zeros((2, 3)))

    def test_channel_count(self):
        model = SystemModel(np.zeros((2, 2)), ())
        with pytest.raises(bf.ValidationError, match="exactly one channel"):
            _ = model.channel

    def test_matrices_are_read_only(self):
        model = SystemModel(np.zeros((2, 2)), (SIGMA_MINUS,))
        with pytest.raises(ValueError):
            model.hamiltonian[0, 0] = 1.0

    @pytest.mark.parametrize("value", ["1", "abc", 1j, None], ids=["numeric-str", "str", "complex", "none"])
    @pytest.mark.parametrize("name, entry", [
        ("t", lambda v: semigroup_evolve(DensityState.maximally_mixed(2), _DECAY, v)),
        ("times", lambda v: semigroup_path(DensityState.maximally_mixed(2), _DECAY, [v])),
        ("weight", lambda v: DensityState.maximally_mixed(2).mix_with_identity(v)),
        ("x", lambda v: bf.quadrature_char_function(bf.ModeTruncation(0.5), v)),
        ("x", lambda v: bf.counting_char_function(bf.ModeTruncation(0.5), v)),
        ("dt", lambda v: bf.StepFunction(v, np.zeros(3))),
    ], ids=["semigroup_evolve", "semigroup_path", "mix_with_identity", "quadrature_char_function",
            "counting_char_function", "StepFunction"])
    def test_non_numeric_arguments_refused(self, name, entry, value):
        """A value that is not a real number raises ValidationError naming the
        argument (`operators._finite_real`), not numpy's or Python's
        TypeError or ValueError, and no str is parsed."""
        with pytest.raises(bf.ValidationError, match=rf"^{name}: non-(numeric|real) value "):
            entry(value)


class TestLindbladHeisenberg:
    def test_identity_is_annihilated(self, rng):
        # forced algebraically: the semigroup is identity preserving
        for dim in (2, 3, 4):
            model = random_model(dim, rng, n_channels=2)
            assert np.max(np.abs(lindblad_heisenberg(np.eye(dim), model))) <= 1e-12

    def test_no_channels_reduces_to_commutator(self, rng):
        h = random_hermitian(3, rng)
        model = SystemModel(h, ())
        x = random_hermitian(3, rng)
        assert np.allclose(lindblad_heisenberg(x, model), 1j * (h @ x - x @ h), atol=1e-14)

    def test_zero_channels_reduce_to_commutator(self, rng):
        h = random_hermitian(2, rng)
        model = SystemModel(h, (np.zeros((2, 2)),))
        x = random_hermitian(2, rng)
        assert np.allclose(lindblad_heisenberg(x, model), 1j * (h @ x - x @ h), atol=1e-14)

    def test_qubit_decay_of_sigma_z(self):
        # 2x2 arithmetic oracle: L = |g><e|, so L* sz L = -|e><e| and
        # {L*L, sz} = 2|e><e|, giving -(sz + I) = diag(0, -2).
        model = SystemModel(np.zeros((2, 2)), (SIGMA_MINUS,))
        expected = np.diag([0.0, -2.0]).astype(complex)
        assert np.allclose(lindblad_heisenberg(SIGMA_Z, model), expected, atol=1e-14)
        assert np.allclose(expected, -(SIGMA_Z + I2), atol=0)

    def test_linear_in_x(self, rng):
        model = random_model(3, rng)
        x, y = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
        lhs = lindblad_heisenberg(2.0 * x - 1.5j * y, model)
        rhs = 2.0 * lindblad_heisenberg(x, model) - 1.5j * lindblad_heisenberg(y, model)
        assert np.allclose(lhs, rhs, atol=1e-13)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4))
    def test_star_compatibility(self, seed, dim):
        rng = np.random.default_rng(seed)
        model = random_model(dim, rng)
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        defect = np.max(np.abs(lindblad_heisenberg(dag(x), model) - dag(lindblad_heisenberg(x, model))))
        assert defect <= 1e-12

    def test_hermitian_to_hermitian(self, rng):
        model = random_model(4, rng, n_channels=2)
        x = random_hermitian(4, rng)
        out = lindblad_heisenberg(x, model)
        assert np.max(np.abs(out - dag(out))) <= 1e-12

    def test_matches_independent_formula(self, rng):
        model = random_model(3, rng, n_channels=3)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(
            lindblad_heisenberg(x, model),
            heisenberg_generator(x, model.hamiltonian, model.channels),
            atol=1e-13,
        )

    def test_dimension_mismatch(self, rng):
        model = random_model(2, rng)
        with pytest.raises(bf.DimensionMismatch):
            lindblad_heisenberg(np.eye(3), model)


class TestLindbladAdjoint:
    def test_identity_commutes_no_channels(self, rng):
        model = SystemModel(random_hermitian(3, rng), ())
        assert np.max(np.abs(lindblad_adjoint(np.eye(3) / 3, model))) <= 1e-14

    def test_qubit_decay_of_excited_state(self):
        # 2x2 arithmetic oracle: L |e><e| L* = |g><g|, {L*L, |e><e|} = 2|e><e|
        model = SystemModel(np.zeros((2, 2)), (SIGMA_MINUS,))
        excited = np.diag([0.0, 1.0]).astype(complex)
        expected = np.diag([1.0, -1.0]).astype(complex)
        assert np.allclose(lindblad_adjoint(excited, model), expected, atol=1e-14)

    def test_trace_duality_on_a_basis(self, rng):
        # direct two-sided evaluation over a full Hermitian basis
        model = random_model(3, rng, n_channels=2)
        w = random_density(3, rng).matrix
        for x in hermitian_basis(3):
            lhs = np.trace(lindblad_adjoint(w, model) @ x)
            rhs = np.trace(w @ lindblad_heisenberg(x, model))
            assert abs(lhs - rhs) <= 1e-12

    def test_trace_free(self, rng):
        model = random_model(4, rng, n_channels=2)
        w = random_density(4, rng).matrix
        assert abs(np.trace(lindblad_adjoint(w, model))) <= 1e-12


class TestLiouvilleBlocks:
    """`_liouville` and `adjoint_superoperator` against `reference_liouville`,
    the np.kron blocks as `_liouville` built them with the Hamiltonian."""

    @pytest.mark.parametrize("phase", [0.0, 0.7])
    @pytest.mark.parametrize("channels", [0, 1, 2, 3])
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_blocks_match_the_kron_reference(self, dim, channels, phase):
        model = random_model(dim, np.random.default_rng(200 * dim + channels), channels)
        parts = [_channel_parts(ch, phase) for ch in model.channels]
        if channels:
            for block, expected in zip(_liouville(parts), reference_liouville(None, parts)):
                assert block.tobytes() == expected.tobytes()
        else:
            assert _liouville(parts) == (0.0, None, None)
        # the Hamiltonian part may differ from the reference in the sign of
        # an exact zero, never in a value
        assert np.array_equal(_liouville(parts, _commutator(model.hamiltonian, 1.0))[0],
                              reference_liouville(model.hamiltonian, parts)[0])
        kron_parts = [(ch, dag(ch), dag(ch) @ ch) for ch in model.channels]
        assert np.array_equal(adjoint_superoperator(model), reference_liouville(model.hamiltonian, kron_parts)[0])


class TestSemigroup:
    def test_t_zero_is_identity(self, rng):
        model = random_model(3, rng)
        rho = random_density(3, rng)
        out = semigroup_evolve(rho, model, 0.0)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-13)

    def test_no_channels_is_unitary_conjugation(self, rng):
        h = random_hermitian(3, rng)
        model = SystemModel(h, ())
        rho = random_density(3, rng)
        t = 0.7
        vals, vecs = np.linalg.eigh(h)
        u = (vecs * np.exp(-1j * t * vals)) @ dag(vecs)
        expected = u @ rho.matrix @ dag(u)
        assert np.allclose(semigroup_evolve(rho, model, t).matrix, expected, atol=1e-12)

    def test_qubit_decay_closed_form(self):
        # oracle: L(sz) = -(sz + I) gives the scalar ODE z' = -(z + 1),
        # hence z(t) = (1 + z0) e^{-t} - 1
        model = SystemModel(np.zeros((2, 2)), (SIGMA_MINUS,))
        rho0 = DensityState.from_vector([1.0, 1.0])  # z0 = 0
        for t in (0.1, 0.5, 2.0, 5.0):
            z = semigroup_evolve(rho0, model, t).expectation(SIGMA_Z).real
            assert abs(z - (np.exp(-t) - 1.0)) <= 1e-10

    def test_trace_preserved_up_to_t10(self, rng):
        model = random_model(3, rng)
        rho = random_density(3, rng)
        for t in (0.5, 3.0, 10.0):
            out = semigroup_evolve(rho, model, t)
            assert abs(np.trace(out.matrix) - 1.0) <= 1e-9

    def test_semigroup_property(self, rng):
        model = random_model(4, rng)
        rho = random_density(4, rng)
        once = semigroup_evolve(rho, model, 1.3)
        assert np.max(np.abs(semigroup_evolve(semigroup_evolve(rho, model, 0.6), model, 0.7).matrix - once.matrix)) <= 1e-8

    def test_duality_with_heisenberg_semigroup(self, rng):
        # exp(tL) built in the test by exponentiating the generator matrix
        # assembled column by column from lindblad_heisenberg
        from scipy.linalg import expm

        for dim in (2, 3, 4):
            model = random_model(dim, rng)
            rho = random_density(dim, rng)
            x = random_hermitian(dim, rng)
            gen = np.zeros((dim * dim, dim * dim), dtype=complex)
            for col in range(dim * dim):
                e = np.zeros(dim * dim, dtype=complex)
                e[col] = 1.0
                gen[:, col] = lindblad_heisenberg(e.reshape(dim, dim), model).reshape(-1)
            t = 0.8
            heis = (expm(t * gen) @ x.reshape(-1)).reshape(dim, dim)
            lhs = np.trace(semigroup_evolve(rho, model, t).matrix @ x)
            rhs = np.trace(rho.matrix @ heis)
            assert abs(lhs - rhs) <= 1e-8

    def test_rejects_negative_time(self, rng):
        model = random_model(2, rng)
        with pytest.raises(bf.ValidationError):
            semigroup_evolve(random_density(2, rng), model, -0.1)

    def test_rejects_nonfinite_time(self, rng):
        model = random_model(2, rng)
        with pytest.raises(bf.ValidationError):
            semigroup_evolve(random_density(2, rng), model, float("nan"))

    @pytest.mark.parametrize("call", [
        lambda rho, model: semigroup_evolve(rho, model, 0.3),
        lambda rho, model: semigroup_path(rho, model, [0.0, 0.1, 0.2]),
        lambda rho, model: semigroup_path(rho, model, [0.0, 0.1, 0.3]),
    ], ids=["semigroup_evolve", "uniform grid", "uneven grid"])
    def test_rho0_of_another_dimension_refused(self, call):
        with pytest.raises(bf.DimensionMismatch, match=r"^rho0 dim 3 != model dim 2$"):
            call(DensityState.maximally_mixed(3), _DECAY)

    @pytest.mark.parametrize("times", [[0.0, 0.1, 0.2], [0.0, 0.1, 0.15, 0.4, 1.0], [0.3], [0.7, 0.2]])
    def test_path_builds_the_generator_once(self, times, monkeypatch):
        calls = []
        real = operators.adjoint_superoperator
        monkeypatch.setattr(operators, "adjoint_superoperator", lambda model: calls.append(1) or real(model))
        semigroup_path(DensityState.maximally_mixed(2), _DECAY, times)
        assert len(calls) == 1
        semigroup_evolve(DensityState.maximally_mixed(2), _DECAY, 0.3)
        assert len(calls) == 2

    def test_path_matches_pointwise_evolution(self, rng):
        model = random_model(2, rng)
        rho = random_density(2, rng)
        times = np.array([0.0, 0.25, 0.5, 0.75])
        path = semigroup_path(rho, model, times)
        for t, m in zip(times, path):
            assert np.allclose(m, semigroup_evolve(rho, model, t).matrix, atol=1e-10)

    @pytest.mark.parametrize("t", [1e200, 1e308])
    @pytest.mark.parametrize("call, name", [
        (lambda rho, model, t: semigroup_evolve(rho, model, t), "t"),
        (lambda rho, model, t: semigroup_path(rho, model, [0.0, t]), "times: grid step"),
        (lambda rho, model, t: semigroup_path(rho, model, [0.0, 1.0, t]), "t"),
    ], ids=["semigroup_evolve", "uniform grid", "uneven grid"])
    @pytest.mark.parametrize("model", [_DECAY, random_model(2, np.random.default_rng(1))], ids=["decay", "random"])
    def test_huge_time_raises_naming_it(self, call, name, t, model):
        # repeated squaring at such t keeps no digit: the exponential
        # overflows or rounds to zero, and must not pass as a state
        with pytest.raises(bf.ValidationError, match="^" + re.escape(f"{name} {t!r}: ")):
            call(DensityState.maximally_mixed(2), model, t)

    def test_scipy_is_no_package_dependency(self):
        # scipy is a test and benchmark tool only: neither the package's
        # dependencies nor its source may name it
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 on

        src = Path(bf.__file__).resolve().parent
        with open(src.parents[1] / "pyproject.toml", "rb") as f:
            project = tomllib.load(f)["project"]
        assert not [d for d in project["dependencies"] if d.lower().startswith("scipy")]
        assert any(d.lower().startswith("scipy") for d in project["optional-dependencies"]["dev"])
        assert [p.name for p in sorted(src.rglob("*.py")) if "scipy" in p.read_text(encoding="utf-8")] == []

    def test_import_leaves_scipy_linalg_unloaded(self, tmp_path):
        # the package runs on numpy alone: no scipy module loads with it, in
        # the semigroup, in the CLI's master command or in the property suites
        config = Path(bf.__file__).resolve().parents[2] / "configs" / "qubit_homodyne.json"
        code = ("import sys, belfilt, belfilt.cli, belfilt.verify;"
                " rho = belfilt.DensityState([[1, 0], [0, 0]]);"
                " model = belfilt.SystemModel([[0, 0], [0, 0]], ([[0, 1], [0, 0]],));"
                " belfilt.semigroup_path(rho, model, [0.0, 0.1]); belfilt.semigroup_evolve(rho, model, 0.3);"
                f" assert belfilt.cli.run(['master', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}]) == 0;"
                " assert belfilt.verify.run_all(verbose=False);"
                " print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(bf.__file__).resolve().parents[1]),
                                                          env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


class TestExpm:
    # 1-norms that run each Pade order (0.9 theta_m), order 13 unscaled, and
    # order 13 after 1 to 8 halvings
    NORMS = (0.0, 1e-12, *(0.9 * theta for theta, _ in _PADE_LOW), 0.9 * _THETA_13, 1e1, 1e2, 1e3)

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_matches_scipy_on_generators(self, dim, channels):
        from scipy.linalg import expm

        generator = adjoint_superoperator(random_model(dim, np.random.default_rng(100 * dim + channels), channels))
        norm = np.linalg.norm(generator, 1)  # at dim 1, L' is 0 up to rounding
        for target in self.NORMS:
            a = generator * (target / norm) if norm else generator
            expected = expm(a)
            assert np.linalg.norm(_expm(a) - expected, 1) <= 1e-12 * np.linalg.norm(expected, 1), target

    @pytest.mark.parametrize("dim", [1, 2, 4, 9, 64])
    def test_zero_gives_the_identity_exactly(self, dim):
        assert np.array_equal(_expm(np.zeros((dim, dim), dtype=complex)), np.eye(dim))


class TestSemigroupPathBitForBit:
    @pytest.mark.parametrize("dim, points", [
        pytest.param(2, 501, id="2"), pytest.param(3, 501, id="3"), pytest.param(8, 501, id="8"),
        pytest.param(8, 2001, id="8-2001"),
    ])
    def test_uniform_grid_equals_pointwise_steps(self, dim, points):
        rng = np.random.default_rng(dim)
        model = random_model(dim, rng)
        rho = random_density(dim, rng)
        times = 1e-3 * np.arange(points)
        path = semigroup_path(rho, model, times)
        assert np.array_equal(path, reference_semigroup_path(rho, model, times))
        # the first point is rho0 itself, not its Hermitian part
        assert path[0].tobytes() == rho.matrix.tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_non_uniform_grid_equals_pointwise_evolution(self, dim):
        rng = np.random.default_rng(10 + dim)
        model = random_model(dim, rng)
        rho = random_density(dim, rng)
        times = np.array([0.0, 0.1, 0.15, 0.4, 1.0])
        assert np.array_equal(semigroup_path(rho, model, times), reference_semigroup_path(rho, model, times))

    def test_single_point(self, rng):
        model = random_model(2, rng)
        rho = random_density(2, rng)
        assert np.array_equal(semigroup_path(rho, model, [0.0]), reference_semigroup_path(rho, model, [0.0]))

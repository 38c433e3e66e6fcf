"""Spectral resolutions, conditional expectations, classical representations."""

import numpy as np
import pytest

import belfilt as bf
from belfilt.conditioning import (
    ClassicalRepresentation,
    CommutativeAlgebra,
    classical_representation,
    conditional_expectation,
    joint_spectral_projections,
)
from belfilt.operators import DensityState, dag, random_density, random_hermitian
from helpers import commutant_element, random_commuting_normals


def algebra_norm(rho, x):
    """||X||_P^2 = P(X*X) seminorm squared."""
    return np.trace(rho @ dag(x) @ x).real


class TestJointSpectralProjections:
    def test_single_projection_splits_in_two(self, rng):
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        p = u[:, :2] @ dag(u[:, :2])
        algebra = joint_spectral_projections([p])
        assert algebra.n_blocks == 2
        # blocks are {I-P, P} ordered by eigenvalue
        assert np.allclose(algebra.projections[0], np.eye(4) - p, atol=1e-10)
        assert np.allclose(algebra.projections[1], p, atol=1e-10)
        assert np.allclose(algebra.labels[0], [0.0, 1.0], atol=1e-10)

    def test_identity_generator_gives_trivial_algebra(self):
        algebra = joint_spectral_projections([np.eye(3)])
        assert algebra.n_blocks == 1
        assert np.allclose(algebra.projections[0], np.eye(3), atol=1e-12)

    def test_two_diagonal_generators_with_distinct_joint_spectra(self):
        # eigen-decomposition oracle: joint spectra (a, b) distinct on each
        # basis vector force four rank-1 projections
        g1 = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
        g2 = np.diag([0.0, 1.0, 0.0, 1.0]).astype(complex)
        algebra = joint_spectral_projections([g1, g2])
        assert algebra.n_blocks == 4
        assert np.array_equal(sorted(algebra.ranks), [1, 1, 1, 1])
        for g in (g1, g2):
            recon = sum(
                lab * p
                for lab, p in zip(algebra.labels[0 if g is g1 else 1], algebra.projections)
            )
            assert np.max(np.abs(recon - g)) <= 1e-8

    def test_reconstruction_of_random_commuting_family(self, rng):
        gens, _ = random_commuting_normals(5, 3, rng)
        algebra = joint_spectral_projections(gens)
        for j, g in enumerate(gens):
            recon = sum(lab * p for lab, p in zip(algebra.labels[j], algebra.projections))
            assert np.max(np.abs(recon - g)) <= 1e-8

    def test_normal_non_hermitian_generator(self, rng):
        gens, _ = random_commuting_normals(4, 1, rng, integer_spectrum=False)
        algebra = joint_spectral_projections(gens)
        recon = sum(lab * p for lab, p in zip(algebra.labels[0], algebra.projections))
        assert np.max(np.abs(recon - gens[0])) <= 1e-8

    def test_rejects_noncommuting(self, rng):
        a = np.diag([1.0, -1.0]).astype(complex)
        b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(bf.NonCommutingGenerators) as err:
            joint_spectral_projections([a, b])
        assert err.value.max_commutator_norm > 1.0

    def test_rejects_non_normal(self):
        with pytest.raises(bf.NonCommutingGenerators, match="normal"):
            joint_spectral_projections([np.array([[0.0, 1.0], [0.0, 0.0]])])

    def test_algebra_invariants_validated(self, rng):
        with pytest.raises(bf.ValidationError, match="idempotent"):
            CommutativeAlgebra((0.5 * np.eye(2), 0.5 * np.eye(2)), np.ones((0, 2)))


class TestConditionalExpectation:
    def test_trivial_algebra_returns_expectation(self, rng):
        algebra = CommutativeAlgebra.trivial(4)
        rho = random_density(4, rng)
        a = random_hermitian(4, rng)
        out = conditional_expectation(a, algebra, rho)
        assert np.allclose(out, np.trace(rho.matrix @ a) * np.eye(4), atol=1e-12)

    def test_algebra_elements_are_fixed(self, rng):
        gens, _ = random_commuting_normals(4, 1, rng)
        algebra = joint_spectral_projections(gens)
        rho = random_density(4, rng)
        coeffs = rng.normal(size=algebra.n_blocks) + 1j * rng.normal(size=algebra.n_blocks)
        a = algebra.element(coeffs)
        out = conditional_expectation(a, algebra, rho)
        assert np.max(np.abs(out - a)) <= 1e-10

    def test_defining_property_dim6(self, rng):
        # brute-force check of the definition over the spanning projections
        gens, _ = random_commuting_normals(6, 2, rng)
        algebra = joint_spectral_projections(gens)
        rho = random_density(6, rng)
        a = commutant_element(algebra.projections, rng)
        est = conditional_expectation(a, algebra, rho)
        for p in algebra.projections:
            lhs = np.trace(rho.matrix @ est @ p)
            rhs = np.trace(rho.matrix @ a @ p)
            assert abs(lhs - rhs) <= 1e-11

    def test_nondemolition_violation_raises(self, rng):
        gens, _ = random_commuting_normals(3, 1, rng)
        algebra = joint_spectral_projections(gens)
        rho = random_density(3, rng)
        a = random_hermitian(3, rng)  # generic: does not commute with blocks
        with pytest.raises(bf.NondemolitionViolation):
            conditional_expectation(a, algebra, rho)

    def test_least_squares_against_random_competitors(self, rng):
        gens, _ = random_commuting_normals(5, 2, rng)
        algebra = joint_spectral_projections(gens)
        rho = random_density(5, rng)
        a = commutant_element(algebra.projections, rng)
        est = conditional_expectation(a, algebra, rho)
        best = algebra_norm(rho.matrix, a - est)
        for _ in range(100):
            c = algebra.element(rng.normal(size=algebra.n_blocks) + 1j * rng.normal(size=algebra.n_blocks))
            assert best <= algebra_norm(rho.matrix, a - c) + 1e-10

    def test_state_invariance(self, rng):
        gens, _ = random_commuting_normals(4, 1, rng)
        algebra = joint_spectral_projections(gens)
        rho = random_density(4, rng)
        a = commutant_element(algebra.projections, rng)
        est = conditional_expectation(a, algebra, rho)
        assert abs(np.trace(rho.matrix @ est) - np.trace(rho.matrix @ a)) <= 1e-11

    def test_module_property(self, rng):
        gens, _ = random_commuting_normals(4, 1, rng)
        algebra = joint_spectral_projections(gens)
        rho = random_density(4, rng)
        a = commutant_element(algebra.projections, rng)
        b = algebra.element(rng.normal(size=algebra.n_blocks))
        lhs = conditional_expectation(a @ b, algebra, rho)
        rhs = b @ conditional_expectation(a, algebra, rho)
        # compare in the state seminorm: null blocks are free
        assert algebra_norm(rho.matrix, lhs - rhs) <= 1e-11

    def test_tower_property(self, rng):
        # fine algebra from two generators, coarse algebra from the first only
        gens, _ = random_commuting_normals(6, 2, rng)
        fine = joint_spectral_projections(gens)
        coarse = joint_spectral_projections(gens[:1])
        rho = random_density(6, rng)
        a = commutant_element(fine.projections, rng)
        indirect = conditional_expectation(conditional_expectation(a, fine, rho), coarse, rho)
        direct = conditional_expectation(a, coarse, rho)
        assert algebra_norm(rho.matrix, indirect - direct) <= 1e-11

    def test_linearity(self, rng):
        gens, _ = random_commuting_normals(4, 1, rng)
        algebra = joint_spectral_projections(gens)
        rho = random_density(4, rng)
        a = commutant_element(algebra.projections, rng)
        b = commutant_element(algebra.projections, rng)
        lhs = conditional_expectation(2.0 * a - 0.5j * b, algebra, rho)
        rhs = 2.0 * conditional_expectation(a, algebra, rho) - 0.5j * conditional_expectation(b, algebra, rho)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11

    def test_positivity_of_block_coefficients(self, rng):
        gens, _ = random_commuting_normals(5, 1, rng)
        algebra = joint_spectral_projections(gens)
        rho = random_density(5, rng)
        a = commutant_element(algebra.projections, rng)
        est = conditional_expectation(dag(a) @ a, algebra, rho)
        coeffs = algebra.coefficients(est)
        assert np.all(coeffs.real >= -1e-11)
        assert np.max(np.abs(coeffs.imag)) <= 1e-11

    def test_null_blocks_get_zero(self, rng):
        # state supported on the first block only
        p1 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        p2 = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
        algebra = CommutativeAlgebra((p1, p2), np.array([[0.0, 1.0]]))
        rho = DensityState(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
        a = np.diag([1.0, 1.0, 7.0, 7.0]).astype(complex)
        est = conditional_expectation(a, algebra, rho)
        # coefficient on the null block is zero, not 7
        assert np.allclose(est, p1, atol=1e-12)


class TestClassicalRepresentation:
    def test_trivial_algebra(self, rng):
        rep = classical_representation(CommutativeAlgebra.trivial(3), random_density(3, rng))
        assert rep.n_outcomes == 1
        assert abs(rep.probabilities[0] - 1.0) <= 1e-12

    def test_two_block_probabilities(self, rng):
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        p = u[:, :1] @ dag(u[:, :1])
        algebra = joint_spectral_projections([p])
        rho = random_density(4, rng)
        rep = classical_representation(algebra, rho)
        pr = np.trace(rho.matrix @ p).real
        assert np.allclose(sorted(rep.probabilities), sorted([1.0 - pr, pr]), atol=1e-12)

    def test_joint_moments_match_operator_moments(self, rng):
        # two-sided evaluation on a dim-4 commuting pair
        gens, _ = random_commuting_normals(4, 2, rng)
        algebra = joint_spectral_projections(gens)
        rho = random_density(4, rng)
        rep = classical_representation(algebra, rho)
        g1, g2 = gens
        cases = {
            (1, 0): g1,
            (0, 1): g2,
            (1, 1): g1 @ g2,
            (2, 1): g1 @ g1 @ g2,
        }
        for powers, op in cases.items():
            lhs = np.trace(rho.matrix @ op)
            assert abs(lhs - rep.moment(*powers)) <= 1e-10

    def test_probabilities_sum_to_one(self, rng):
        gens, _ = random_commuting_normals(5, 2, rng)
        algebra = joint_spectral_projections(gens)
        rep = classical_representation(algebra, random_density(5, rng))
        assert abs(rep.probabilities.sum() - 1.0) <= 1e-10
        assert np.all(rep.probabilities >= -1e-12)

    @pytest.mark.parametrize("probabilities, values, ranks, opening", [
        (["0.5", "0.5"], [[1.0, 2.0]], [1, 1], "probabilities: non-numeric value '0.5'"),
        ([0.5, 0.5], [[True, 2]], [1, 1], "values: non-numeric value True"),
        ([0.5, 0.5], [[1.0, 2.0]], [1.7, 1], "ranks: expected an integer, got 1.7"),
        ([0.5, 0.5], [[1.0, 2.0]], [True, 1], "ranks: expected an integer, got True"),
        ([0.5, 0.5], [[1.0, 2.0]], [0, 1], "ranks must be at least 1"),
        ([0.5, 0.5j], [[1.0, 2.0]], [1, 1], "probabilities: entries must be finite real numbers"),
        ([[0.5, 0.5]], [[1.0, 2.0]], [1, 1], "probabilities: expected a vector"),
        ([0.5, 0.5], [1.0, 2.0], [1, 1], "values: expected shape (n_generators, 2)"),
        ([0.5, 0.5], [[1.0, np.inf]], [1, 1], "values: entries must be finite"),
        ([0.5, 0.5], [[1.0, 2.0]], [1], "ranks: expected 2 ranks"),
    ], ids=["str-probability", "bool-value", "fractional-rank", "bool-rank", "zero-rank", "complex-probability",
            "probability-matrix", "value-vector", "infinite-value", "too-few-ranks"])
    def test_refuses_what_the_input_policy_refuses(self, probabilities, values, ranks, opening):
        # numpy read these as [0.5, 0.5], [[1, 2]] and [1, 1]
        with pytest.raises(bf.ValidationError) as info:
            ClassicalRepresentation(probabilities, values, ranks)
        assert str(info.value).startswith(opening)

    def test_reads_numbers_as_given(self):
        rep = ClassicalRepresentation([0.25, np.float64(0.75)], np.array([[1, 2]]), np.array([1, 3]))
        assert rep.probabilities.dtype == float and rep.probabilities.tolist() == [0.25, 0.75]
        assert rep.values.dtype == complex and rep.values.tolist() == [[1, 2]]
        assert rep.ranks.dtype == int and rep.ranks.tolist() == [1, 3]
        assert rep.moment(1) == 1.75

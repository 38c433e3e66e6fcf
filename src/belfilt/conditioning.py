"""Commutative algebras, their classical representation, and conditioning.

A finite-dimensional commutative von Neumann algebra is encoded by its
minimal joint spectral resolution {P_k}: orthogonal projections summing to
the identity, together with the joint eigenvalue labels of the generators.
Conditioning a commutant element A on the algebra is the least-squares
projection

    E(A | C) = sum_{k : p_k > eps} trace(rho P_k A) / p_k  *  P_k,

with p_k = trace(rho P_k).  Null blocks (p_k <= 1e-14) receive coefficient
zero; any value there is a valid version, and zero is the bounded canonical
choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonCommutingGenerators, NondemolitionViolation, ValidationError
from .operators import DensityState, _entries, _frozen, _operator, _require_integer, _state, as_operator, dag

COMMUTATION_TOL = 1e-9
PROJECTION_TOL = 1e-10
CLUSTER_TOL = 1e-8
NULL_BLOCK_EPS = 1e-14


@dataclass(frozen=True)
class CommutativeAlgebra:
    """Joint spectral resolution {P_k} plus per-generator eigenvalue labels.

    ``labels[j, k]`` is the eigenvalue of generator j on block k; blocks are
    ordered by the splitting procedure (ascending eigenvalues, generator by
    generator), which makes the layout deterministic.
    """

    projections: tuple
    labels: np.ndarray

    def __post_init__(self):
        projs = tuple(as_operator(p, f"projection {k}") for k, p in enumerate(self.projections))
        if not projs:
            raise ValidationError("algebra needs at least one projection")
        dim = projs[0].shape[0]
        for k, p in enumerate(projs):
            if p.shape[0] != dim:
                raise ValidationError(f"projection {k}: dimension mismatch")
            if np.max(np.abs(p - dag(p))) > PROJECTION_TOL:
                raise ValidationError(f"projection {k}: not self-adjoint")
            if np.max(np.abs(p @ p - p)) > PROJECTION_TOL:
                raise ValidationError(f"projection {k}: not idempotent")
        for k in range(len(projs)):
            for l in range(k + 1, len(projs)):
                if np.max(np.abs(projs[k] @ projs[l])) > PROJECTION_TOL:
                    raise ValidationError(f"projections {k}, {l}: not orthogonal")
        if np.max(np.abs(sum(projs) - np.eye(dim))) > PROJECTION_TOL:
            raise ValidationError("projections do not sum to the identity")
        labels = _entries(self.labels, "labels")
        if labels.ndim != 2 or labels.shape[1] != len(projs):
            raise ValidationError(f"labels must have shape (n_generators, {len(projs)})")
        object.__setattr__(self, "projections", tuple(_frozen(p) for p in projs))
        object.__setattr__(self, "labels", _frozen(labels))

    @classmethod
    def trivial(cls, dim: int) -> "CommutativeAlgebra":
        dim = _require_integer(dim, "dim", minimum=1)
        return cls((np.eye(dim, dtype=complex),), np.ones((1, 1), dtype=complex))

    @property
    def dim(self) -> int:
        return self.projections[0].shape[0]

    @property
    def n_blocks(self) -> int:
        return len(self.projections)

    @property
    def ranks(self) -> np.ndarray:
        return np.array([int(round(np.trace(p).real)) for p in self.projections])

    def coefficients(self, a) -> np.ndarray:
        """Block coefficients trace(P_k A) / rank(P_k) of an algebra element."""
        a = _operator(a, self.dim, "A", "algebra")
        ranks = self.ranks
        return np.array([np.trace(p @ a) / r for p, r in zip(self.projections, ranks)])

    def element(self, coeffs) -> np.ndarray:
        """Assemble sum_k c_k P_k."""
        coeffs = _entries(coeffs, "coefficients")
        if coeffs.shape != (self.n_blocks,):
            raise ValidationError(f"need {self.n_blocks} coefficients")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for c, p in zip(coeffs, self.projections):
            out += c * p
        return out


def _cluster_split(values: np.ndarray, tol: float):
    """Group sorted indices of a real array into clusters separated by > tol."""
    order = np.argsort(values)
    groups = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] > tol:
            groups.append([])
        groups[-1].append(idx)
    return groups


def joint_spectral_projections(generators) -> CommutativeAlgebra:
    """Minimal joint spectral resolution of commuting normal matrices.

    Preconditions: the generators pairwise commute and commute with their
    adjoints within 1e-9 (spectral norm).  Splitting is by recursive
    eigenspace refinement on the Hermitian and anti-Hermitian parts of each
    generator, clustering eigenvalues within 1e-8.
    """
    gens = [as_operator(g, f"generator {i}") for i, g in enumerate(generators)]
    if not gens:
        raise ValidationError("need at least one generator")
    dim = gens[0].shape[0]
    for i, g in enumerate(gens):
        if g.shape[0] != dim:
            raise ValidationError(f"generator {i}: dimension mismatch")

    worst = 0.0
    for i, g in enumerate(gens):
        worst = max(worst, float(np.linalg.norm(g @ dag(g) - dag(g) @ g, 2)))
        if worst > COMMUTATION_TOL:
            raise NonCommutingGenerators(f"generator {i} is not normal", worst)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            for b in (gens[j], dag(gens[j])):
                worst = max(worst, float(np.linalg.norm(gens[i] @ b - b @ gens[i], 2)))
    if worst > COMMUTATION_TOL:
        raise NonCommutingGenerators("generators do not commute", worst)

    # Isometries onto the current joint eigenspaces; refined part by part.
    blocks = [np.eye(dim, dtype=complex)]
    parts = []
    for g in gens:
        parts.append(0.5 * (g + dag(g)))
        parts.append(0.5j * (dag(g) - g))
    for h in parts:
        if np.max(np.abs(h)) <= CLUSTER_TOL:
            continue
        refined = []
        for iso in blocks:
            if iso.shape[1] == 1:
                refined.append(iso)
                continue
            compressed = dag(iso) @ h @ iso
            vals, vecs = np.linalg.eigh(0.5 * (compressed + dag(compressed)))
            for group in _cluster_split(vals, CLUSTER_TOL):
                refined.append(iso @ vecs[:, group])
        blocks = refined

    projections = tuple(iso @ dag(iso) for iso in blocks)
    labels = np.empty((len(gens), len(blocks)), dtype=complex)
    for j, g in enumerate(gens):
        for k, iso in enumerate(blocks):
            labels[j, k] = np.trace(dag(iso) @ g @ iso) / iso.shape[1]
    return CommutativeAlgebra(projections, labels)


def conditional_expectation(a, algebra: CommutativeAlgebra, rho: DensityState) -> np.ndarray:
    """Least-squares estimate of a commutant element within the algebra.

    Raises NondemolitionViolation if A fails to commute with some P_k: such
    an A is incompatible with the recorded observations and conditioning it
    is physically meaningless.
    """
    a = _operator(a, algebra.dim, "A", "algebra")
    rho = _state(rho, algebra.dim, "state", "algebra")
    worst = 0.0
    for p in algebra.projections:
        worst = max(worst, float(np.linalg.norm(a @ p - p @ a, 2)))
    if worst > COMMUTATION_TOL:
        raise NondemolitionViolation(
            f"A does not commute with the observation algebra (max commutator norm {worst:.3e})"
        )
    out = np.zeros((algebra.dim, algebra.dim), dtype=complex)
    for p in algebra.projections:
        weight = np.trace(rho.matrix @ p).real
        if weight > NULL_BLOCK_EPS:
            out += (np.trace(rho.matrix @ p @ a) / weight) * p
    return out


@dataclass(frozen=True)
class ClassicalRepresentation:
    """Finite classical probability model of (algebra, state).

    Outcome k has probability trace(rho P_k); ``values[j, k]`` is the value
    the j-th generator takes there.
    """

    probabilities: np.ndarray
    values: np.ndarray
    ranks: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if np.any(p < -1e-12):
            raise ValidationError(f"negative outcome probability {p.min():.3e}")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValidationError(f"probabilities sum to {p.sum()}, not 1")
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        object.__setattr__(self, "ranks", np.asarray(self.ranks, dtype=int))

    @property
    def n_outcomes(self) -> int:
        return self.probabilities.size

    def outcomes(self):
        for k in range(self.n_outcomes):
            yield k, self.probabilities[k], self.values[:, k]

    def moment(self, *generator_powers) -> complex:
        """E[prod_j gen_j^power_j] under the classical law."""
        acc = np.ones(self.n_outcomes, dtype=complex)
        for j, power in enumerate(generator_powers):
            acc *= self.values[j] ** power
        return complex(np.sum(self.probabilities * acc))


def classical_representation(algebra: CommutativeAlgebra, rho: DensityState) -> ClassicalRepresentation:
    rho = _state(rho, algebra.dim, "state", "algebra")
    probs = np.array([np.trace(rho.matrix @ p).real for p in algebra.projections])
    return ClassicalRepresentation(probs, algebra.labels, algebra.ranks)

"""Symbolic quantum Ito calculus over the fundamental differentials.

The four integrator symbols are the gauge (number) increment dLambda, the
annihilation increment dA, the creation increment dA*, and time dt.  Their
products contract through the quantum Ito table

                 dA      dLambda   dA*    dt
      dA          0        dA       dt     0
      dLambda     0      dLambda   dA*     0
      dA*         0        0        0      0
      dt          0        0        0      0

(rows are left factors).  An ItoSpec is a coefficient map symbol -> matrix
describing an increment  dX = sum_s  C_s ds;  the product rule

      d(XY) = X dY + (dX) Y + dX dY

then becomes plain coefficient algebra, with the correction term contracted
through the table.  Coefficients are bare matrices: adaptedness is not
modeled, and every identity asserted here holds coefficientwise.  Specs
whose coefficients live under the Heisenberg flow U* . U carry a `flowed`
marking; the flow itself is never evaluated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .operators import SystemModel, _frozen, _operator, as_operator, dag, lindblad_heisenberg


class Differential(enum.Enum):
    GAUGE = "dLambda"
    ANNIHILATION = "dA"
    CREATION = "dA*"
    TIME = "dt"

    def __repr__(self):
        return self.value


ITO_TABLE = MappingProxyType(
    {
        (Differential.ANNIHILATION, Differential.GAUGE): Differential.ANNIHILATION,
        (Differential.ANNIHILATION, Differential.CREATION): Differential.TIME,
        (Differential.GAUGE, Differential.GAUGE): Differential.GAUGE,
        (Differential.GAUGE, Differential.CREATION): Differential.CREATION,
    }
)


def ito_product(a: Differential, b: Differential):
    """Contract two fundamental differentials; None encodes zero."""
    if not isinstance(a, Differential) or not isinstance(b, Differential):
        raise ValidationError("ito_product expects Differential members")
    return ITO_TABLE.get((a, b))


@dataclass(frozen=True)
class ItoSpec:
    """Coefficient map of an increment; absent symbols mean zero.

    `flowed` marks symbols whose coefficients are understood as j_t(.)
    images under the Heisenberg flow.
    """

    coefficients: dict
    flowed: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        coeffs = {}
        dim = None
        for sym, c in dict(self.coefficients).items():
            if not isinstance(sym, Differential):
                raise ValidationError(f"coefficient key {sym!r} is not a Differential")
            m = as_operator(c, f"coefficient of {sym.value}")
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise DimensionMismatch(f"coefficient of {sym.value} has mismatched dimension")
            coeffs[sym] = _frozen(m)
        object.__setattr__(self, "coefficients", MappingProxyType(coeffs))
        object.__setattr__(self, "flowed", frozenset(self.flowed))
        object.__setattr__(self, "_dim", dim)

    @property
    def dim(self):
        return getattr(self, "_dim")

    def coefficient(self, sym: Differential, dim: int | None = None) -> np.ndarray:
        got = self.coefficients.get(sym)
        if got is not None:
            return got
        n = dim if dim is not None else self.dim
        if n is None:
            raise ValidationError("empty spec has no intrinsic dimension; pass dim")
        return np.zeros((n, n), dtype=complex)

    def max_coefficient_norm(self) -> float:
        if not self.coefficients:
            return 0.0
        return max(float(np.max(np.abs(c))) for c in self.coefficients.values())


def ito_contract(x: ItoSpec, y: ItoSpec) -> ItoSpec:
    """The pure correction term dX dY, contracted through the Ito table."""
    out: dict = {}
    for (sa, ca) in x.coefficients.items():
        for (sb, cb) in y.coefficients.items():
            if ca.shape != cb.shape:
                raise DimensionMismatch("specs have mismatched coefficient dimensions")
            target = ITO_TABLE.get((sa, sb))
            if target is None:
                continue
            term = ca @ cb
            out[target] = out.get(target, 0) + term
    return ItoSpec(out, flowed=x.flowed | y.flowed)


def product_rule(x: ItoSpec, y: ItoSpec, x0, y0) -> ItoSpec:
    """Coefficient map of d(XY) = X dY + (dX) Y + dX dY.

    `x0`, `y0` are the current values of the two processes; operator
    coefficients multiply in the stated left/right order.
    """
    x0 = as_operator(x0, "X0")
    y0 = as_operator(y0, "Y0")
    if x0.shape != y0.shape:
        raise DimensionMismatch("X0 and Y0 must share a dimension")
    for spec in (x, y):
        if spec.dim is not None and spec.dim != x0.shape[0]:
            raise DimensionMismatch("spec coefficients do not match X0/Y0 dimension")
    out: dict = {}
    for sym, c in y.coefficients.items():
        out[sym] = out.get(sym, 0) + x0 @ c
    for sym, c in x.coefficients.items():
        out[sym] = out.get(sym, 0) + c @ y0
    for sym, c in ito_contract(x, y).coefficients.items():
        out[sym] = out.get(sym, 0) + c
    return ItoSpec(out, flowed=x.flowed | y.flowed)


def hp_unitary_spec(model: SystemModel) -> ItoSpec:
    """Left-coefficient map of dU = {L dA* - L* dA - (L*L/2 + iH) dt} U."""
    ch = model.channel
    h = model.hamiltonian
    return ItoSpec(
        {
            Differential.CREATION: ch,
            Differential.ANNIHILATION: -dag(ch),
            Differential.TIME: -0.5 * dag(ch) @ ch - 1j * h,
        }
    )


def hp_adjoint_spec(model: SystemModel) -> ItoSpec:
    """Coefficient map of dU* = U* {L* dA - L dA* - (L*L/2 - iH) dt}."""
    ch = model.channel
    h = model.hamiltonian
    return ItoSpec(
        {
            Differential.ANNIHILATION: dag(ch),
            Differential.CREATION: -ch,
            Differential.TIME: -0.5 * dag(ch) @ ch + 1j * h,
        }
    )


def flow_coefficients(x, model: SystemModel) -> ItoSpec:
    """Increment of the flow j_t(X) = U*XU, derived at the symbol level.

    Expanding d(U* X U) with the product rule and contracting yields

        dt      -> L(X)          (the Heisenberg Lindblad generator)
        dA      -> [L*, X]
        dA*     -> [X, L]
        dLambda -> 0,

    with every coefficient understood under the flow.
    """
    x = _operator(x, model.dim, "X")
    eye = np.eye(model.dim, dtype=complex)
    du = hp_unitary_spec(model)
    dud = hp_adjoint_spec(model)
    left = product_rule(dud, ItoSpec({}), eye, x)  # d(U* X), X constant
    full = product_rule(left, du, x, eye)  # d((U* X) U)
    return ItoSpec(dict(full.coefficients), flowed=frozenset(full.coefficients))


def observation_coefficients(scheme: str, model: SystemModel) -> ItoSpec:
    """Increment of the observation process for a detection scheme.

    quadrature:  dY = j(L + L*) dt + dA + dA*
    counting:    dY = dLambda + j(L) dA* + j(L*) dA + j(L*L) dt

    System coefficients are marked as flowed; the bare field increments
    carry identity coefficients.
    """
    ch = model.channel
    eye = np.eye(model.dim, dtype=complex)
    if scheme == "quadrature":
        return ItoSpec(
            {
                Differential.TIME: ch + dag(ch),
                Differential.ANNIHILATION: eye,
                Differential.CREATION: eye,
            },
            flowed=frozenset({Differential.TIME}),
        )
    if scheme == "counting":
        return ItoSpec(
            {
                Differential.GAUGE: eye,
                Differential.CREATION: ch,
                Differential.ANNIHILATION: dag(ch),
                Differential.TIME: dag(ch) @ ch,
            },
            flowed=frozenset({Differential.CREATION, Differential.ANNIHILATION, Differential.TIME}),
        )
    raise ValidationError(f"unknown observation scheme {scheme!r} (expected 'quadrature' or 'counting')")


def unitarity_defect(model: SystemModel) -> float:
    """Max coefficient norm of d(U*U); zero certifies unitarity of the flow."""
    eye = np.eye(model.dim, dtype=complex)
    spec = product_rule(hp_adjoint_spec(model), hp_unitary_spec(model), eye, eye)
    return spec.max_coefficient_norm()


@dataclass(frozen=True)
class EssentialCommutativity:
    """Norms of the Hermitian and anti-Hermitian channel quadratures.

    With L+ = (L + L*)/2 and L- = (L - L*)/2i the dynamics is driven by two
    noncommuting noises unless one of the two vanishes, in which case the
    model is essentially commutative.
    """

    l_plus_norm: float
    l_minus_norm: float
    tol: float

    @property
    def vanishing(self):
        if self.l_plus_norm <= self.tol:
            return "L+"
        if self.l_minus_norm <= self.tol:
            return "L-"
        return None

    @property
    def is_essentially_commutative(self) -> bool:
        return self.vanishing is not None


def essential_commutativity(model: SystemModel, tol: float = 1e-12) -> EssentialCommutativity:
    ch = model.channel
    l_plus = 0.5 * (ch + dag(ch))
    l_minus = (ch - dag(ch)) / 2j
    return EssentialCommutativity(
        float(np.linalg.norm(l_plus, 2)), float(np.linalg.norm(l_minus, 2)), tol
    )


def flow_coefficients_direct(x, model: SystemModel) -> ItoSpec:
    """The flow increment assembled from the three displayed formulas.

    Companion to `flow_coefficients` (which derives the same map through the
    product rule); keeping both routes makes the derivation testable.
    """
    x = as_operator(x, "X")
    ch = model.channel
    return ItoSpec(
        {
            Differential.TIME: lindblad_heisenberg(x, model),
            Differential.ANNIHILATION: dag(ch) @ x - x @ dag(ch),
            Differential.CREATION: x @ ch - ch @ x,
        },
        flowed=frozenset({Differential.TIME, Differential.ANNIHILATION, Differential.CREATION}),
    )

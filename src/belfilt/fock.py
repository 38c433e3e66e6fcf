"""Truncated single-mode Fock space and its measurement statistics.

Every field statistic handled here involves one test function f at a time,
and the exponential property of the symmetric Fock space factorizes the
continuous tensor product over time slices.  The only datum that survives is
the complex amplitude alpha of the mode excited by f (inner products reduce
to <f, g> = conj(alpha) * beta), so a single harmonic oscillator truncated
at N photons carries the whole computation:

  * exponential vectors  e(alpha)_n = alpha^n / sqrt(n!),
  * Weyl (displacement) matrices  W = exp(alpha a* - conj(alpha) a),
  * field quadratures  B = -i(alpha a* - conj(alpha) a), with W = exp(iB),
  * the photon number operator  diag(0..N).

In the vacuum the quadrature of f is Gaussian with variance ||f||^2, and in
the coherent state of f the photon count is Poisson with mean |alpha|^2;
both laws are checked through characteristic functions.  The default cutoff
N = 30 with amplitudes 1 leaves more than twelve digits of mass below the
top layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationRadiusExceeded, ValidationError
from .operators import _entries, _finite_complex, _finite_real, _frozen, _require_integer

DEFAULT_CUTOFF = 30
DEFAULT_RADIUS = 1.0
_RADIUS_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class ModeTruncation:
    """One truncated field mode: amplitude alpha, photon cutoff N.

    The amplitude doubles as the quadrature datum: its modulus is ||f|| and
    its phase selects the quadrature angle.
    """

    amplitude: complex
    cutoff: int = DEFAULT_CUTOFF
    radius: float = DEFAULT_RADIUS

    def __post_init__(self):
        amp = _finite_complex(self.amplitude, "amplitude: {}")
        cutoff, radius = _require_integer(self.cutoff, "cutoff", minimum=1), _finite_real(self.radius, "radius: {}")
        if radius <= 0:
            raise ValidationError("radius must be positive")
        if abs(amp) > radius * _RADIUS_SLACK:
            raise TruncationRadiusExceeded(
                f"|amplitude| = {abs(amp):.6g} exceeds the truncation-safety radius {radius:.6g}"
            )
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "radius", radius)

    def scaled(self, factor: float) -> "ModeTruncation":
        return ModeTruncation(factor * self.amplitude, self.cutoff, self.radius)


@dataclass(frozen=True)
class FockVector:
    """Photon-layer coefficients c_0..c_N."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = _entries(self.coefficients, "coefficients").reshape(-1)
        if c.size < 2:
            raise ValidationError("need at least two photon layers")
        if not np.all(np.isfinite(c)):
            raise ValidationError("coefficients must be finite")
        object.__setattr__(self, "coefficients", _frozen(c))

    @property
    def cutoff(self) -> int:
        return self.coefficients.size - 1

    @property
    def tail(self) -> float:
        """|c_N|, a diagnostic for truncation loss."""
        return float(abs(self.coefficients[-1]))

    def inner(self, other: "FockVector") -> complex:
        return complex(np.vdot(self.coefficients, other.coefficients))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))


def annihilation_matrix(cutoff: int) -> np.ndarray:
    """Truncated annihilator: a|n> = sqrt(n)|n-1>."""
    a = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    ns = np.arange(1, cutoff + 1)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def number_operator(cutoff: int) -> np.ndarray:
    return np.diag(np.arange(cutoff + 1).astype(complex))


def exponential_vector(mode: ModeTruncation) -> FockVector:
    """e(alpha) with layers alpha^n / sqrt(n!); e(0) is the vacuum."""
    n = np.arange(mode.cutoff + 1)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, mode.cutoff + 1))]))
    if mode.amplitude == 0:
        coeff = np.zeros(mode.cutoff + 1, dtype=complex)
        coeff[0] = 1.0
    else:
        coeff = np.exp(n * np.log(complex(mode.amplitude)) - 0.5 * log_fact)
    return FockVector(coeff)


def coherent_vector(mode: ModeTruncation) -> FockVector:
    """W(f) applied to the vacuum: exp(-|alpha|^2/2) e(alpha)."""
    scale = np.exp(-0.5 * abs(mode.amplitude) ** 2)
    return FockVector(scale * exponential_vector(mode).coefficients)


def field_operator(mode: ModeTruncation) -> np.ndarray:
    """Hermitian quadrature B = -i(alpha a* - conj(alpha) a)."""
    a = annihilation_matrix(mode.cutoff)
    return -1j * (mode.amplitude * a.conj().T - np.conj(mode.amplitude) * a)


def _expm_i_hermitian(h: np.ndarray, scale: float = 1.0) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * scale * vals)) @ vecs.conj().T


def weyl_matrix(mode: ModeTruncation) -> np.ndarray:
    """Displacement exp(alpha a* - conj(alpha) a) = exp(iB), unitary on the
    truncation up to tail error."""
    return _expm_i_hermitian(field_operator(mode))


def quadrature_char_function(mode: ModeTruncation, x: float) -> complex:
    """Vacuum characteristic function <vac| exp(ixB) |vac>.

    Matches exp(-x^2 ||f||^2 / 2): the quadrature is Gaussian in the vacuum.
    The displaced amplitude x*alpha must stay inside the safety radius.
    """
    x = _finite_real(x, "x: {}")
    if abs(x) * abs(mode.amplitude) > mode.radius * _RADIUS_SLACK:
        raise TruncationRadiusExceeded(
            f"|x * amplitude| = {abs(x) * abs(mode.amplitude):.6g} exceeds radius {mode.radius:.6g}"
        )
    return complex(_expm_i_hermitian(field_operator(mode), scale=x)[0, 0])


def counting_char_function(mode: ModeTruncation, x: float) -> complex:
    """Photon-count characteristic function in the coherent state of f.

    <psi(f)| exp(ix Lambda) |psi(f)> = exp(|alpha|^2 (e^{ix} - 1)), the
    Poisson(|alpha|^2) law.
    """
    x = _finite_real(x, "x: {}")
    c = coherent_vector(mode).coefficients
    phases = np.exp(1j * x * np.arange(mode.cutoff + 1))
    return complex(np.sum(np.abs(c) ** 2 * phases))


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant complex function on a uniform grid of step dt."""

    dt: float
    values: np.ndarray

    def __post_init__(self):
        dt = _finite_real(self.dt, "dt: {}")
        if dt <= 0:
            raise ValidationError("dt must be positive and finite")
        v = _entries(self.values, "step values").reshape(-1)
        if v.size < 2:
            raise ValidationError("grid needs at least 2 steps")
        if not np.all(np.isfinite(v)):
            raise ValidationError("step values must be finite")
        object.__setattr__(self, "values", _frozen(v))
        object.__setattr__(self, "dt", dt)

    @property
    def steps(self) -> int:
        return self.values.size

    @classmethod
    def constant(cls, value: complex, steps: int, dt: float) -> "StepFunction":
        return cls(dt, np.full(steps, value, dtype=complex))

    def refined(self) -> "StepFunction":
        """Same function on the grid with every step halved."""
        return StepFunction(self.dt / 2.0, np.repeat(self.values, 2))

    def cumulative_inner(self, other: "StepFunction") -> np.ndarray:
        """<self restricted to [0, t], other> at every grid point (length steps+1)."""
        prods = np.conj(self.values) * other.values * self.dt
        return np.concatenate([[0.0], np.cumsum(prods)])

    def inner(self, other: "StepFunction") -> complex:
        return complex(self.cumulative_inner(other)[-1])


@dataclass(frozen=True)
class WeylQsdeReport:
    """Forward-Euler vs closed-form comparison for the Weyl matrix element."""

    dt0: float
    steps0: int
    max_errors: tuple
    ratios: tuple
    euler0: np.ndarray
    closed0: np.ndarray


def weyl_qsde_check(f: StepFunction, g: StepFunction, h: StepFunction, halvings: int = 3) -> WeylQsdeReport:
    """Integrate the matrix-element ODE of the Weyl displacement equation.

    phi(t) = <e(g), W(f restricted to [0,t]) e(h)> obeys

        phi' = ( conj(g) f - conj(f) h - |f|^2 / 2 ) phi,
        phi(0) = exp(<g, h>),

    with the closed form exp(<g, f_t]> - <f_t], h> - ||f_t]||^2/2) exp(<g,h>).
    Forward Euler is run on the given grid and on `halvings` successive
    refinements; the report carries the max errors and their halving ratios
    (first-order convergence puts the ratios near 0.5).
    """
    if not (f.steps == g.steps == h.steps) or not (f.dt == g.dt == h.dt):
        raise ValidationError("f, g, h must share one grid")
    halvings = _require_integer(halvings, "halvings")
    if halvings < 0:
        raise ValidationError("halvings must be nonnegative")

    def euler_and_closed(ff: StepFunction, gg: StepFunction, hh: StepFunction):
        gh_full = gg.inner(hh)
        g_f = gg.cumulative_inner(ff)
        f_h = ff.cumulative_inner(hh)
        f_f = ff.cumulative_inner(ff).real
        closed = np.exp(g_f - f_h - 0.5 * f_f) * np.exp(gh_full)
        rate = np.conj(gg.values) * ff.values - np.conj(ff.values) * hh.values - 0.5 * np.abs(ff.values) ** 2
        euler = np.empty(ff.steps + 1, dtype=complex)
        euler[0] = np.exp(gh_full)
        for k in range(ff.steps):
            euler[k + 1] = euler[k] * (1.0 + ff.dt * rate[k])
        return euler, closed

    errors = []
    euler0 = closed0 = None
    ff, gg, hh = f, g, h
    for level in range(halvings + 1):
        euler, closed = euler_and_closed(ff, gg, hh)
        if level == 0:
            euler0, closed0 = euler, closed
        errors.append(float(np.max(np.abs(euler - closed))))
        if level < halvings:
            ff, gg, hh = ff.refined(), gg.refined(), hh.refined()
    ratios = tuple(
        errors[i + 1] / errors[i] if errors[i] > 0.0 else float("nan") for i in range(len(errors) - 1)
    )
    return WeylQsdeReport(f.dt, f.steps, tuple(errors), ratios, euler0, closed0)

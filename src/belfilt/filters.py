"""Time-stepping of the Belavkin quantum filters.

The filters propagate a matrix w_t whose pairing trace(w_t X) gives the
conditional expectation functional; this is the trace dual of the
operator-valued filtering equations, validated operationally by per-step
duality tests rather than assumed.  Forward Euler is used throughout.

Every scheme's step is linear in the matrix r it steps, given a few scalars.
With r flattened row-major into vec(r) (the convention of
`operators._liouville`), the raw step is

    raw = a0 (A r - i dt [H, r]) + a1 X r + a2 r

where A = I + dt D, D being the channel's part L r L* - {L*L, r}/2 of the
adjoint generator, and X = G (r -> L r + r L*) for homodyne (diffusive)
records, X = J (r -> L r L*) for counting records (dY in {0, 1}):

    scheme                              (a0, a1, a2)
    normalized (BKS) homodyne           (1, c, -c m)    m = tr(G r), c = dY - m dt
    unnormalized (Zakai) diffusive,
      and normalized imperfect          (1, eta dY, 0)
    unnormalized counting               (1, dY - dt, -(dY - dt))
    normalized counting, no count       (1, -dt, rate dt)    rate = tr(J r)
    normalized counting, count          (0, 1, 0)

with eta = 1 in the vacuum and eta = 1/(1 + kappa^2) under imperfect
observation with corruption strength kappa; a quadrature phase phi enters
only through L -> exp(i phi) L.  The normalized routes then divide by the
trace (Kallianpur-Striebel); the unnormalized trace is the likelihood.

One product p = vec(r) @ S with the step matrix S (`_step_matrix`) holds
tr(A r), tr(X r), tr(r), A' r, X r and r, for A' = A - i dt [H, .]: the
three scalars give (a0, a1, a2) and the raw trace (the commutator is
traceless), and a second product of the row (a0, a1, a2), divided by the
trace on the normalized routes, with the last three blocks of p gives the
next matrix.  S is bound once per run.  A control law, H_t = H0 + u_t H1,
steps with S = [S0 | C1]: S0 the step matrix of H0 and C1 = -i dt [H1, .]
one more block, so that p also holds C1 r and u_t enters as a fourth
coefficient, a0 u_t, of the second product; no step writes into S.  The
law holds read-only copies of H0 and H1.  A law's run (`_LawRun`) is one
object: it binds S and its own controlled step for one law, model,
scheme, dt and normalization, and evaluates a compiled expression law on
record sums it keeps itself, extended by one add a step in a closed loop
and following each call's prefix in `feedback_step`.  `_row_step` binds
the step of one matrix once per run of the integration loop
(`trajectories._integrate`), which steps every row of a run through it but
those of a stack (once per call for the public step functions;
`feedback_step` keeps each thread's last law run), fed one float a step:
the increment dy, or the noise dy is drawn from when the run samples its
record.  Each step is two BLAS products and Python-float scalars.
`_stack_step` binds the step of a stack of sampled trajectories on the
normalized route once per block (ensemble blocks large enough to share its
fixed cost), with the same arithmetic done in place on per-row arrays, and
a row of a stack steps exactly as one matrix.

Positivity is monitored, not enforced: Euler steps may transiently leave
the state space, and projecting would mask convergence behavior.  Use
`path_health` to audit a finished run.
"""

from __future__ import annotations

import ast
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CausalityViolation,
    DimensionMismatch,
    FilterCollapse,
    ValidationError,
    ZeroJumpRate,
)
from .operators import (
    SystemModel,
    _channel_parts,
    _check_dim,
    _commutator,
    _finite_real,
    _frozen,
    _hermitian,
    _liouville,
    _operator,
    _refuse_bools,
    _stack,
    dag,
    hermiticity_defect,
    DensityState,
)

HOMODYNE = "homodyne"
IMPERFECT = "imperfect"
COUNTING = "counting"
SCHEME_KINDS = (HOMODYNE, IMPERFECT, COUNTING)

TRACE_MONITOR_TOL = 1e-9
EIGENVALUE_MONITOR_FLOOR = -1e-6
COLLAPSE_TRACE = 1e-300
ZERO_RATE = 1e-14
MAX_JUMP_PROBABILITY = 0.1


@dataclass(frozen=True)
class MeasurementScheme:
    """Detection scheme: homodyne, imperfect (extra corrupting noise of
    strength kappa), or counting.  The quadrature phase rotates L."""

    kind: str
    kappa: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValidationError(f"scheme: unknown kind {self.kind!r} (expected one of {SCHEME_KINDS})")
        kappa, phase = _finite_real(self.kappa, "scheme: kappa: {}"), _finite_real(self.phase, "scheme: phase: {}")
        if kappa < 0:
            raise ValidationError("scheme: kappa must be a nonnegative real")
        if self.kind != IMPERFECT and kappa != 0.0:
            raise ValidationError("scheme: kappa is only meaningful for the imperfect kind")
        if self.kind == COUNTING and phase != 0.0:
            raise ValidationError("scheme: phase is not meaningful for counting")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "phase", phase)

    @classmethod
    def homodyne(cls, phase: float = 0.0) -> "MeasurementScheme":
        return cls(HOMODYNE, 0.0, phase)

    @classmethod
    def imperfect(cls, kappa: float, phase: float = 0.0) -> "MeasurementScheme":
        return cls(IMPERFECT, kappa, phase)

    @classmethod
    def counting(cls) -> "MeasurementScheme":
        return cls(COUNTING)

    @property
    def gain(self) -> float:
        """Update gain: 1 in the vacuum, 1/(1+kappa^2) for imperfect records."""
        return 1.0 / (1.0 + self.kappa * self.kappa)

    @property
    def noise_scale(self) -> float:
        """Std dev of the record noise per sqrt(dt): sqrt(1 + kappa^2)."""
        return math.sqrt(1.0 + self.kappa * self.kappa)

    @property
    def is_diffusive(self) -> bool:
        return self.kind in (HOMODYNE, IMPERFECT)


_VACUUM = MeasurementScheme(HOMODYNE)
_COUNTING = MeasurementScheme(COUNTING)


@dataclass(frozen=True, slots=True)
class FilterState:
    """Filter matrix plus bookkeeping.

    `likelihood` carries the accumulated trace of unnormalized (Zakai) runs;
    normalized runs leave it at the value set by the last `normalize`.
    Construction performs no validation (steps are the hot path); audit with
    `path_health` or the accessors below.
    """

    matrix: np.ndarray
    normalized: bool = True
    likelihood: float = 1.0

    @classmethod
    def from_density(cls, rho: DensityState, normalized: bool = True) -> "FilterState":
        return cls(np.array(rho.matrix), normalized, 1.0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace_real(self) -> float:
        return float(np.trace(self.matrix).real)

    def expectation(self, x) -> complex:
        return complex(np.trace(self.matrix @ _operator(x, self.dim, "observable", "state")))

    def min_eigenvalue(self) -> float:
        """The lowest eigenvalue of the Hermitian part; NaN when an entry is
        not finite, as `path_health` reports it."""
        m = self.matrix
        if not np.isfinite(m).all():
            return math.nan
        return float(np.linalg.eigvalsh(0.5 * (m + dag(m))).min())

    def hermiticity_defect(self) -> float:
        return hermiticity_defect(self.matrix)


# A FilterState built as `__init__` builds one, without its call: a new
# object and its three slots set through their descriptors, which the frozen
# `__setattr__` does not guard (`_apply`).
_new_object = object.__new__
_set_matrix, _set_normalized, _set_likelihood = (
    FilterState.matrix.__set__, FilterState.normalized.__set__, FilterState.likelihood.__set__)


def _require_dt(dt: float) -> float:
    dt = _finite_real(dt, "dt: {}")
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    return dt


def _diffusive_scheme(scheme: MeasurementScheme | None) -> MeasurementScheme:
    scheme = _VACUUM if scheme is None else scheme
    if not scheme.is_diffusive:
        raise ValidationError(f"scheme kind {scheme.kind!r} is not a diffusive (homodyne-type) scheme")
    return scheme


def _route(scheme: MeasurementScheme) -> str:
    """The kind whose equations step `scheme`: kappa = 0 imperfect is homodyne."""
    return HOMODYNE if scheme.kind == IMPERFECT and scheme.kappa == 0.0 else scheme.kind


def _refuse(bad, error, message, *values):
    """Raise error(message) where `bad` holds, `message` being a format
    string for `values` or a function of them.  For a stack, `bad` and the
    array values hold one entry per row: the first bad row's values are
    reported and its index set as the error's `row` (None for one matrix)."""
    row = None
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return
        row = int(np.argmax(bad.reshape(-1)))
        values = [v.reshape(-1)[row] if isinstance(v, np.ndarray) else v for v in values]
    elif not bad:
        return
    exc = error(message(*values) if callable(message) else message.format(*values))
    exc.row = row
    raise exc


def _step_matrix(blocks, counting: bool, dt: float, h, control=None):
    """S, the matrix of one Euler step on the row vec(r) (see `_row_step`),
    from a channel's `operators._liouville` blocks (D, G, J) and the
    Hamiltonian h: vec(r) @ S holds tr(A r), tr(X r), tr(r), A' r, X r and
    r, for A = I + dt D, A' = A - i dt [H, .] and X = J when counting, G
    otherwise.  With `control`, the H1 of a law, S gains the block
    C1 = -i dt [H1, .] after these, and vec(r) @ S holds C1 r last.  The
    commutator (`operators._commutator`) being traceless, the trace columns
    are those of A."""
    dissipator, diffusive, jump = blocks
    measured = jump if counting else diffusive
    n2 = len(measured)
    n = math.isqrt(n2)
    a = np.eye(n2) + dt * dissipator
    traces = [a[:: n + 1].sum(0), measured[:: n + 1].sum(0), np.eye(n).reshape(-1)]
    rows = traces + [a + _commutator(h, dt), measured, np.eye(n2)]
    if control is not None:
        rows.append(_commutator(control, dt))
    return np.vstack(rows).T.copy()


def _model_matrix(model: SystemModel, phase: float, counting: bool, dt: float, law=None):
    """The step matrix of `model`'s channel and Hamiltonian, or under a
    control law [S0 | C1] of its H0 and H1 (`_step_matrix`), on the blocks
    `operators._liouville` gives the channel; built once and held with the
    model until a call with another phase, scheme family, dt or law
    Hamiltonians.  These are read-only arrays, so they are compared by
    identity."""
    slot, h, control = ("step", model.hamiltonian, None) if law is None else ("law step", law.h0, law.h1)
    key = (phase, counting, dt)
    held = model._derived.get(slot)
    if held is None or held[0] != key or held[1] is not h or held[2] is not control:
        s = _step_matrix(_liouville((model.single_channel_parts(phase),)), counting, dt, h, control)
        held = model._derived[slot] = (key, h, control, s)
    return held[3]


def _scaled(y, dt, g, m):
    """(a0, a1, a2) of unnormalized diffusive steps and normalized imperfect ones."""
    return 1.0, g * y, 0.0


# The table of (a0, a1, a2) (see the module docstring), by `_route`'s kind and
# normalization, from the increment y, dt, the gain g and m = tr(X r): the
# record's drift rate (diffusive) or the jump rate (counting).
_COEFFICIENTS = {
    (HOMODYNE, True): lambda y, dt, g, m: (1.0, (c := y - m * dt), -c * m),
    (HOMODYNE, False): _scaled,
    (IMPERFECT, True): _scaled,
    (IMPERFECT, False): _scaled,
    (COUNTING, False): lambda y, dt, g, m: (1.0, y - dt, -(y - dt)),
    # no count; a registered count takes _COUNT
    (COUNTING, True): lambda y, dt, g, m: (1.0, -dt, m * dt),
}
_COUNT = (0.0, 1.0, 0.0)
_JUMP_BOUND = f"dt: jump probability rate*dt = {{:.3g}} exceeds {MAX_JUMP_PROBABILITY}; reduce dt"
_ZERO_RATE_JUMP = "jump recorded while trace(L*L rho) = {:.3e}; inconsistent record"
_NOT_POSITIVE_FINITE = "unnormalized filter trace {:.3e} is not positive and finite"


def _sample(m, noise, dt: float, counting: bool):
    """The increment drawn from the pre-step state, given m = tr(X r):
    homodyne dY = trace((L + L*) rho) dt + noise, counting dY = 1 when the
    uniform noise < trace(L*L rho) dt."""
    if not counting:
        return m * dt + noise
    p = m * dt
    _refuse(p > MAX_JUMP_PROBABILITY, ValidationError, _JUMP_BOUND, p)
    return 1.0 * (noise < p)


def _vanished(tr, dy, a0, trace_a, a1, m):
    """Why a normalized trace fell to COLLAPSE_TRACE or below: a trace that
    is not finite came from a state that was not; the increment's term
    a1 tr(X r) swamping the drift's a0 tr(A r) past what a double resolves
    is the record's fault, not dt's."""
    if not math.isfinite(tr):
        return f"filter trace {tr:.3e} is not finite"
    if abs(a1 * m) * np.finfo(float).eps > abs(a0 * trace_a):
        return (f"record increment dY = {dy:.3e} swamps the filter's drift by more than"
                f" 1/machine epsilon; trace {tr:.3e} lost to rounding")
    return f"filter trace {tr:.3e} vanished; reduce dt"


def _row_step(n: int, dt: float, kind: str, gain: float, normalized: bool, sampling: bool,
              controlled: bool = False):
    """Bind one run's Euler step of one n x n matrix: the `_COEFFICIENTS`
    entry of `kind` (`_route`'s) and `normalized`, where dy comes from
    (`sampling`), the jump flag, and buffers for the product and the
    coefficient row, so that none is looked up or allocated per step.

    Returns step(row, s, value, out, u=0.0) -> (trace, dy), which steps the
    row vec(r), shape (n^2,), of one raw matrix r with the step matrix s
    (`_step_matrix`).  p = row.dot(s) holds the traces tr(A r), tr(X r),
    tr(r) and the blocks A' r, X r, r.  `value` is the increment dy, or with
    `sampling` the noise from which dy is drawn given the pre-step state
    (`_sample`).  The raw step a0 A' r + a1 X r + a2 r takes (a0, a1, a2)
    from the table, and its trace is a0 tr(A r) + a1 tr(X r) + a2 tr(r).
    The next row, written into `out`, is one product of the coefficient
    row, divided by the trace on the normalized routes, with the blocks of
    p.  A `controlled` run steps with a law's S = [S0 | C1], so p also holds
    C1 r, and its row has a fourth coefficient a0 u for the control u: the
    raw step is then that of H0 + u H1, with the trace unchanged since C1 is
    traceless, and a registered count (a0 = 0) carries no control term.
    Other runs keep the three-entry row and ignore u.  Returns the trace of
    the raw step (the likelihood of Zakai runs) and dy.  Scalars are Python
    floats throughout, and the two BLAS products give the bits of
    `_stack_step`'s for each row of a stack."""
    coefficients = _COEFFICIENTS[kind, normalized]
    counting = kind == COUNTING
    jumps = counting and normalized
    width = 4 if controlled else 3
    # the coefficient row is complex, so that the product casts nothing, and
    # written through its real view `re`: a float store costs less than a
    # complex one, and the imaginary parts stay the +0.0 complex stores give
    coef = np.zeros(width, dtype=complex)
    re = coef.real
    p = np.empty(3 + width * n * n, dtype=complex)
    traces, blocks = p[:3].real.tolist, p[3:].reshape(width, n * n)

    def step(row, s, value, out, u=0.0):
        row.dot(s, p)
        trace_a, m, trace_r = traces()
        dy = _sample(m, value, dt, counting) if sampling else value
        a0, a1, a2 = coefficients(dy, dt, gain, m)
        if jumps and dy == 1.0:
            if m <= ZERO_RATE:
                _refuse(True, ZeroJumpRate, _ZERO_RATE_JUMP, m)
            a0, a1, a2 = _COUNT
        tr = a0 * trace_a + a1 * m + a2 * trace_r
        if normalized:
            if not tr > COLLAPSE_TRACE:  # NaN fails too
                _refuse(True, FilterCollapse, _vanished, tr, dy, a0, trace_a, a1, m)
            re[0], re[1], re[2] = a0 / tr, a1 / tr, a2 / tr
        else:
            if not 0.0 < tr < math.inf:
                _refuse(True, FilterCollapse, _NOT_POSITIVE_FINITE, tr)
            re[0], re[1], re[2] = a0, a1, a2
        if controlled:
            re[3] = a0 * u / tr if normalized else a0 * u
        coef.dot(blocks, out)
        return tr, dy

    return step


def _stack_step(b: int, n: int, dt: float, kind: str, gain: float):
    """Bind one block's normalized Euler step of a stack of B sampled
    trajectories of n x n matrices, `kind` being `_route`'s: the product
    buffer p with its trace and block views, the coefficient rows, their
    quotients by the trace and per-row work buffers, so that no step allocates;
    only a refused step does.

    Returns step(r, s, noise, out), which steps the rows r, shape
    (B, 1, n^2), of vec(w) for B raw matrices w with the step matrix s
    (`_step_matrix`), each row drawing its dy from its entry of the noise,
    shape (B,), as `_sample` does, and writes the next rows into `out`.  The
    arithmetic is `_row_step`'s on arrays: p = r @ s, the route's
    `_COEFFICIENTS` row computed in place with each product formed once
    (m dt serves the draw and the coefficients, c m the trace and
    a2 = -(c m), the bits of (-c) m; 1.0 tr(A r) is tr(A r)), the same checks
    in the same order, and one product of the coefficient rows, divided by
    the traces, with the blocks of p.  A registered count writes its row
    (0, 1, 0) over its own row only, and the next step restores the no-count
    row.  An error names the first failing row (`_refuse`).  Each row is its
    own BLAS product, so a row of a stack steps exactly as one matrix.
    Per-row values are one-dimensional views, (B,), which numpy steps
    faster than (B, 1, 1) ones."""
    counting = kind == COUNTING
    p = np.empty((b, 1, 3 + 3 * n * n), dtype=complex)
    trace_a, m, trace_r = (p[:, 0, i].real for i in range(3))
    blocks = p[..., 3:].reshape(b, 3, n * n)
    # the coefficient rows: a0 = 1 always, and a1 = -dt (counting) or a2 = 0
    # (imperfect) until a count overwrites them; the route writes the rest
    rest = np.array((1.0, -dt if counting else 0.0, 0.0))
    coef = np.empty((b, 1, 3))
    coef[...] = rest
    a0, a1, a2 = (coef[:, 0, i] for i in range(3))
    quot = np.zeros((b, 1, 3), dtype=complex)  # coef / tr, complex so that the product casts nothing
    quot_re = quot.real
    mdt, dy, cm, tr, term = (np.empty(b) for _ in range(5))
    per_row = tr.reshape(b, 1, 1)
    flags, jump = np.empty(b, dtype=bool), np.empty(b, dtype=bool)
    jumped = jump.reshape(b, 1, 1)
    count = np.array(_COUNT)
    counted = False  # whether coef holds a count row

    def finish(out, drawn):
        """Check the traces, divide and write the next rows; `drawn` holds
        each row's dy, or on the counting route its jump flag (1.0 times
        which is dy)."""
        np.greater(tr, COLLAPSE_TRACE, out=flags)  # NaN fails too
        if np.count_nonzero(flags) < b:
            _refuse(~flags, FilterCollapse, _vanished, tr, 1.0 * drawn, a0, trace_a, a1, m)
        np.divide(coef, per_row, out=quot_re)
        np.matmul(quot, blocks, out=out)

    homodyne = kind == HOMODYNE

    def diffusive(r, s, noise, out):
        np.matmul(r, s, out=p)
        np.multiply(m, dt, out=mdt)
        np.add(mdt, noise, out=dy)
        if homodyne:
            np.subtract(dy, mdt, out=a1)  # c = dy - m dt
        else:
            np.multiply(dy, gain, out=a1)
        np.multiply(a1, m, out=cm)
        if homodyne:
            np.negative(cm, out=a2)  # imperfect keeps a2 = 0
        np.add(trace_a, cm, out=tr)
        np.multiply(a2, trace_r, out=term)  # 0 tr(r) may be -0 or NaN
        np.add(tr, term, out=tr)
        finish(out, dy)

    def count_step(r, s, noise, out):
        nonlocal counted
        np.matmul(r, s, out=p)
        if counted:
            coef[...] = rest
            counted = False
        np.multiply(m, dt, out=a2)  # the jump probability m dt, and a2 without a count
        np.greater(a2, MAX_JUMP_PROBABILITY, out=flags)
        if np.count_nonzero(flags):
            _refuse(flags, ValidationError, _JUMP_BOUND, a2)
        np.less(noise, a2, out=jump)
        if np.count_nonzero(jump):
            np.less_equal(m, ZERO_RATE, out=flags)
            np.logical_and(flags, jump, out=flags)
            _refuse(flags, ZeroJumpRate, _ZERO_RATE_JUMP, m)
            np.copyto(coef, count, where=jumped)
            counted = True
            np.multiply(a0, trace_a, out=tr)
            np.multiply(a1, m, out=term)
            np.add(tr, term, out=tr)
        else:
            np.subtract(trace_a, a2, out=tr)  # a1 m = -(m dt)
        np.multiply(a2, trace_r, out=term)
        np.add(tr, term, out=tr)
        finish(out, jump)

    return count_step if counting else diffusive


def _increment(dY, counting: bool) -> float:
    """dY as a finite Python float (`_finite_real`), 0 or 1 when `counting`."""
    if isinstance(dY, float) and math.isfinite(dY) and not counting:
        return float(dY)  # what `_finite_real` makes of it
    dy = _finite_real(dY, "increment dY: {}")
    if counting and dy not in (0.0, 1.0):
        raise ValidationError(f"counting increment must be 0 or 1, got {dY!r}")
    return dy


def _apply(state: FilterState, dY, s, step, counting: bool, normalized: bool, u: float = 0.0):
    """Step state.matrix once with the step matrix s and a `_row_step` step
    (under the control u, for a controlled one), for dY a finite real number
    (0 or 1 when `counting`); normalized results keep the incoming
    likelihood.  The step writes the flat view of a fresh matrix, and the
    next state is built without `FilterState.__init__`, which validates
    nothing."""
    dy = _increment(dY, counting)
    w = state.matrix
    matrix = np.empty(w.shape, dtype=complex)
    tr, _ = step(w.ravel(), s, dy, matrix.ravel(), u)
    out = _new_object(FilterState)
    _set_matrix(out, matrix)
    _set_normalized(out, normalized)
    _set_likelihood(out, state.likelihood if normalized else tr)
    return out


def _model_step(state: FilterState, dY, model: SystemModel, dt: float, scheme: MeasurementScheme, normalized: bool):
    dt = _require_dt(dt)
    _check_dim(state.matrix, model.dim, "state")
    counting = scheme.kind == COUNTING
    s = _model_matrix(model, scheme.phase, counting, dt)
    step = _row_step(model.dim, dt, _route(scheme), scheme.gain, normalized, False)
    return _apply(state, dY, s, step, counting, normalized)


def zakai_step_homodyne(
    state: FilterState, dY: float, model: SystemModel, dt: float, scheme: MeasurementScheme | None = None
) -> FilterState:
    """One Euler step of the unnormalized diffusive filter.

    The state matrix is assumed Hermitian (a FilterState invariant); the
    increment is then Hermitian by construction.
    """
    return _model_step(state, dY, model, dt, _diffusive_scheme(scheme), False)


def bks_step_homodyne(
    state: FilterState, dY: float, model: SystemModel, dt: float, scheme: MeasurementScheme | None = None
) -> FilterState:
    """One Euler step of the normalized diffusive filter, renormalized.

    Only vacuum-gain schemes are supported here; the normalized imperfect
    filter is obtained by renormalizing the gain-adjusted unnormalized step
    (see `diffusive_filter_step`).
    """
    if not state.normalized:
        raise ValidationError("bks_step_homodyne requires a normalized state")
    scheme = _diffusive_scheme(scheme)
    if scheme.kind == IMPERFECT:
        raise ValidationError(
            "no closed normalized form for imperfect observation; use diffusive_filter_step"
        )
    return _model_step(state, dY, model, dt, scheme, True)


def zakai_step_counting(state: FilterState, dY: float, model: SystemModel, dt: float) -> FilterState:
    """One Euler step of the unnormalized counting filter; dY in {0, 1}."""
    return _model_step(state, dY, model, dt, _COUNTING, False)


def bks_step_counting(state: FilterState, dY: float, model: SystemModel, dt: float) -> FilterState:
    """One step of the normalized counting filter: smooth no-jump drift, and
    the collapse r -> L r L*/rate on a registered count."""
    if not state.normalized:
        raise ValidationError("bks_step_counting requires a normalized state")
    return _model_step(state, dY, model, dt, _COUNTING, True)


def normalize(state: FilterState) -> tuple[FilterState, float]:
    """Split w into its normalized part and its trace (the record likelihood)."""
    tr = state.trace_real()
    if not math.isfinite(tr):
        raise FilterCollapse(f"filter trace {tr:.3e} is not finite")
    if tr <= COLLAPSE_TRACE:
        raise FilterCollapse(f"filter trace {tr:.3e} vanished; step size too large")
    return FilterState(state.matrix / tr, normalized=True, likelihood=tr), tr


def diffusive_filter_step(
    state: FilterState, dY: float, model: SystemModel, dt: float, scheme: MeasurementScheme | None = None
) -> FilterState:
    """Normalized diffusive step for any gain: vacuum homodyne goes through
    the nonlinear normalized equation, imperfect through the gain-adjusted
    unnormalized step plus renormalization.  kappa = 0 takes the vacuum code
    path exactly."""
    scheme = _diffusive_scheme(scheme)
    if _route(scheme) == HOMODYNE and not state.normalized:
        raise ValidationError("bks_step_homodyne requires a normalized state")
    return _model_step(state, dY, model, dt, scheme, True)


def filter_step(
    state: FilterState, dY: float, model: SystemModel, dt: float, scheme: MeasurementScheme | None = None
) -> FilterState:
    """Scheme dispatch: one step of the filter matching `scheme` and the
    normalization of `state`."""
    return _model_step(state, dY, model, dt, _VACUUM if scheme is None else scheme, state.normalized)


# --- feedback -------------------------------------------------------------

_ALLOWED_BINOPS = {ast.Add, ast.Sub, ast.Mult, ast.Div}
_ALLOWED_UNARY = {ast.UAdd, ast.USub}
# `_finite_real`'s message for a control value, formatted with t
_CONTROL_VALUE = "control law returned {} at t = {}"
# Y and ma(Y, w) in a compiled body, on the cumulative sums sums[:m] of a
# record prefix of length m: the last sum, and the sum of the last min(w, m)
# sums over their count (the sum and the division np.mean does, without its
# dispatch); both 0.0 on the empty prefix
_LAST_SUM = "(sums.item(m - 1) if m else 0.0)"
_MOVING_AVERAGE = ("(_float(_reduce(sums[m - {w}:m])) / {w} if m >= {w}"
                   " else _float(_reduce(sums[:m])) / m if m else 0.0)")


def _lower(node: ast.AST, expression: str) -> ast.expr:
    """The node of a compiled body that evaluates one node of the control
    grammar: a number becomes a float constant, t the body's argument, Y
    and ma(Y, w) their `_LAST_SUM` and `_MOVING_AVERAGE`, a / b the call
    _divide(a, b), and + - * and unary minus stay Python operators, so that
    the body runs on Python floats, left operand first, as the grammar
    reads.  A node outside the grammar raises ValidationError naming it;
    operands lower left first, so the first such node is the one named."""
    if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
        left, right = _lower(node.left, expression), _lower(node.right, expression)
        if isinstance(node.op, ast.Div):
            return ast.Call(ast.Name("_divide", ast.Load()), [left, right], [])
        return ast.BinOp(left, node.op, right)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _ALLOWED_UNARY:
        operand = _lower(node.operand, expression)
        return operand if isinstance(node.op, ast.UAdd) else ast.UnaryOp(ast.USub(), operand)
    # type(), not isinstance: bool is a subclass of int, and no number here
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return ast.Constant(float(node.value))
    if isinstance(node, ast.Name) and node.id == "t":
        return ast.Name("t", ast.Load())
    if isinstance(node, ast.Name) and node.id == "Y":
        return ast.parse(_LAST_SUM, mode="eval").body
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "ma"
        and len(node.args) == 2
        and not node.keywords
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "Y"
        and isinstance(node.args[1], ast.Constant)
        and type(node.args[1].value) is int
        and node.args[1].value >= 1
    ):
        return ast.parse(_MOVING_AVERAGE.format(w=node.args[1].value), mode="eval").body
    raise ValidationError(
        f"control expression {expression!r}: unsupported construct {ast.dump(node)};"
        " the grammar allows numbers, t, Y, ma(Y, window), + - * / and parentheses"
    )


def _real_prefix(prefix, name: str = "record prefix") -> np.ndarray:
    """A record's entries, prefix or increments, as a one-dimensional
    float64 array, as np.asarray(prefix, dtype=float) reads them, when they
    are real numbers; a complex entry with imaginary part 0 counts as its
    real part, as `_finite_real` takes it.  Strings, which numpy would
    parse, and complex entries with another imaginary part raise
    ValidationError naming `name` and the entries; bool and object entries
    are read one by one through `_finite_real`, so that no bool is taken
    and an int beyond the float range is refused by its digit count; a
    bool among the numbers of a list or tuple, which numpy reads as one, is
    refused too (`_refuse_bools`), when the entries hold a 0 or a 1, the
    only values a bool becomes."""
    arr = np.asarray(prefix)
    if arr.dtype.kind in "SU":
        raise ValidationError(f"{name}: non-numeric value {prefix!r}")
    if arr.dtype.kind in "bO":
        return np.array([_finite_real(v, f"{name}: {{}}") for v in arr.reshape(-1).tolist()], dtype=float)
    if isinstance(prefix, (list, tuple)) and ((arr == 0.0) | (arr == 1.0)).any():
        _refuse_bools(prefix, f"{name}: {{}}")
    if arr.dtype.kind == "c":
        if arr.imag.any():  # a NaN imaginary part counts as nonzero
            raise ValidationError(f"{name}: non-real value {prefix!r}")
        arr = arr.real
    return np.asarray(arr, dtype=float).reshape(-1)


class _CompiledControl:
    """A compiled control expression, called as u(t, prefix).

    `body(t, sums, m)` is the expression compiled to one function of the
    cumulative sums sums[:m] of a record prefix of length m
    (`compile_control_expression`); `reads_record` says whether it reads
    them at all.  A call sums its prefix afresh with np.cumsum; a law run
    keeps its own sums and evaluates `body` on them (`_LawRun`)."""

    __slots__ = ("body", "reads_record")

    def __init__(self, body, reads_record: bool):
        self.body = body
        self.reads_record = reads_record

    def __call__(self, t: float, prefix) -> float:
        arr = _real_prefix(prefix)
        return float(self.body(_finite_real(t, "t: {}"), np.cumsum(arr) if self.reads_record else None, arr.size))


def compile_control_expression(expression: str) -> Callable[[float, np.ndarray], float]:
    """Compile the minimal control grammar over t, cumulative Y, and the
    trailing moving average ma(Y, window) into a callable u(t, prefix).

    The expression compiles once, to one code object: the function
    body(t, sums, m) of the cumulative sums sums[:m] of a prefix of length
    m, in which every node of the grammar is one Python operation
    (`_lower`): numbers are float constants, ma(Y, w) is one np.add.reduce
    over its window, and a division by zero raises ValidationError.  The
    body reaches no builtins.  A call sums its prefix afresh, so u is a pure
    function of (t, prefix); t must be a finite real number, as
    `feedback_step` takes it, and the prefix must hold real numbers
    (`_real_prefix`).  Closed loops and `feedback_step` evaluate the body
    on record sums their run keeps (`_LawRun`), not through this call.  An
    expression nested deeper than Python's parser or compiler can take (a
    sum of about a thousand terms), or with an integer constant beyond the
    float range, raises ValidationError."""
    if not isinstance(expression, str):
        raise ValidationError(f"control expression: expected a string, got {expression!r}")
    try:
        tree = ast.parse(expression.strip(), mode="eval")
        function = ast.parse("lambda t, sums, m: 0", mode="eval")
        function.body.body = _lower(tree.body, expression)
        code = compile(ast.fix_missing_locations(function), "<control expression>", "eval")
    except (SyntaxError, OverflowError) as exc:  # OverflowError: an int constant past the float range
        raise ValidationError(f"control expression {expression!r}: {exc}") from exc
    except RecursionError:
        raise ValidationError(f"control expression {expression!r}: nested too deeply to compile") from None

    def divide(num: float, den: float) -> float:
        if den == 0.0:
            raise ValidationError(f"control expression {expression!r}: division by zero")
        return num / den

    body = eval(code, {"__builtins__": {}, "_divide": divide, "_float": float, "_reduce": np.add.reduce})
    return _CompiledControl(body, any(isinstance(node, ast.Name) and node.id == "Y" for node in ast.walk(tree)))


@dataclass(frozen=True, eq=False)
class ControlLaw:
    """Causal feedback law: H_t = H0 + u_t H1 with u_t a function of the
    record strictly before t, optionally with a time/record dependent
    coupling channel.  The law holds read-only copies of H0 and H1, as
    `SystemModel` does of its operators, so that it cannot change under a
    run bound to it.  Laws compare and hash by identity."""

    control: Callable[[float, np.ndarray], float]
    h0: np.ndarray
    h1: np.ndarray
    channel_map: Callable[[float, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        h0, h1 = _hermitian(self.h0, "H0"), _hermitian(self.h1, "H1")
        if h0.shape != h1.shape:
            raise DimensionMismatch("H0 and H1 must share a dimension")
        object.__setattr__(self, "h0", _frozen(h0))
        object.__setattr__(self, "h1", _frozen(h1))

    @classmethod
    def from_expression(cls, expression: str, h0, h1) -> "ControlLaw":
        return cls(compile_control_expression(expression), h0, h1)

    def hamiltonian_at(self, t: float, prefix) -> tuple[np.ndarray, float]:
        """H_t = H0 + u H1 and u, for u = control(t, prefix) a finite real
        number; a complex u with zero imaginary part counts as its real part.
        t must be a finite real number, as `feedback_step` takes it."""
        t = _finite_real(t, "t: {}")
        u = _finite_real(self.control(t, prefix), _CONTROL_VALUE, t)
        return self.h0 + u * self.h1, u


def _leads(prefix: np.ndarray, head: np.ndarray) -> bool:
    """Whether the float64 array `prefix`, a view of an aligned float64
    array whose first entry `head` views, is C-contiguous and aligned and
    starts where `head` does: such a view lies at or after the array's first
    entry, and two 8-byte entries aligned to 8 bytes overlap only where they
    coincide (`_immutable_owner` checks that float64 aligns to its size), so
    it overlaps `head` only when it starts there."""
    flags = prefix.flags
    return flags.c_contiguous and flags.aligned and np.may_share_memory(prefix, head)


def _agreeing(bits: np.ndarray, record: np.ndarray, k: int) -> int:
    """k when the first k > 0 entries of `bits` and `record` are equal, else
    0: the compare that `_LawRun.follow` pays on a prefix it cannot trust."""
    differs = bits[:k] != record[:k]
    return 0 if differs[differs.argmax()] else k  # argmax is 0 when no entry differs


class _FrozenBytes(bytes):
    """The bytes behind `ObservationRecord.increments`.  numpy refuses to
    make an array over bytes writeable, or any view of it, but it unpickles
    a large array into a writeable array over the pickle's own bytes: a
    plain bytes base does not show that nothing writes to it, a
    `_FrozenBytes` one does."""

    __slots__ = ()


def _immutable_owner(prefix: np.ndarray) -> np.ndarray | None:
    """The array `prefix` leads (`_leads`), when that is a C-contiguous,
    aligned float64 array over `_FrozenBytes`, as a record's increments
    are; else None."""
    src = prefix.base
    if (prefix.size and isinstance(src, np.ndarray) and type(src.base) is _FrozenBytes and src.dtype == np.float64
            and src.dtype.alignment == src.itemsize and src.flags.c_contiguous and src.flags.aligned
            and _leads(prefix, src[:1])):
        return src
    return None


class _LawRun:
    """One run of a control law over a record under one model, scheme, dt
    and normalization: its step matrix `s`, its controlled `_row_step`
    `step`, the state that evaluating the law step after step keeps, and the
    control u of each step (`control`), which `step` takes.  The run is
    bound for a law and model whose dimensions agree (`_check_dim`).

    `s` is [S0 | C1] (`_step_matrix`): S0 the step matrix of the channel
    with H0, and C1 = -i dt [H1, .].  It is the model's, built once for the
    law's H0 and H1 (`_model_matrix`), and no step writes into it; under a
    channel map the run holds a copy, whose S0 columns each step rebuilds
    from L_t.  A compiled expression law without a channel map is evaluated
    on the run's own cumulative sums of the record, which the run keeps in
    one of two ways: a closed loop extends them by one add a step
    (`advance`), `feedback_step` follows the prefix each call hands over
    (`follow`).  A run is advanced or followed, never both, as advancing
    keeps no copy of the record.  Other laws are called on the prefix.
    `sampling` says where the step's dy comes from (`_row_step`), and
    `steps` sizes the sums of an advanced run."""

    __slots__ = ("law", "model", "scheme", "dt", "normalized", "shape", "counting", "s", "step", "body", "record",
                 "owner", "head", "sums", "size", "y")

    def __init__(self, law: ControlLaw, model: SystemModel, scheme: MeasurementScheme, dt: float,
                 normalized: bool, sampling: bool = False, steps: int = 0):
        self.law, self.model, self.scheme, self.dt, self.normalized = law, model, scheme, dt, normalized
        self.shape = (model.dim, model.dim)
        self.counting = scheme.kind == COUNTING
        self.s = _model_matrix(model, scheme.phase, self.counting, dt, law)
        self.step = _row_step(model.dim, dt, _route(scheme), scheme.gain, normalized, sampling, True)
        self.body = self.sums = None
        if law.channel_map is not None:
            self.s = self.s.copy()
        elif isinstance(law.control, _CompiledControl):
            self.body = law.control.body
            if law.control.reads_record:
                self.sums = np.empty(steps)
        self.record = np.empty(0, dtype=np.int64)  # the followed prefix's bits, unless `owner` holds them
        # an immutable array whose first `size` entries are the followed
        # prefix (`_immutable_owner`), and the view of its first entry
        self.owner = self.head = None
        self.size = 0  # the entries of the record summed
        self.y = 0.0  # the last of them summed, sums[size - 1]

    def advance(self, dy: float) -> None:
        """Extend the sums by the record's next entry dy, one add."""
        sums = self.sums
        if sums is not None:
            k = self.size
            # as np.cumsum does, the first entry is copied, not added to 0.0
            self.y = y = self.y + dy if k else dy
            sums[k] = y
            self.size = k + 1

    def follow(self, prefix: np.ndarray) -> None:
        """Make the sums those of `prefix`, bit for bit as np.cumsum gives
        them.  A prefix that extends the followed one bit for bit sums only
        its new entries; any other prefix, one that shrinks, diverges or was
        edited in place, is summed from its first entry.

        Telling the two apart costs a bitwise compare of the entries
        followed, about 0.4 ns an entry, except for a prefix that leads the
        array the run last followed when that array is a record's
        increments, over bytes nothing writes to (`_immutable_owner`): a
        C-contiguous, aligned view from its first entry, such as
        `record.increments[:k]`.  The entries followed there cannot have
        changed, so such a call costs the same at any length (and `feed`
        sums one such view one entry longer than the last by one add,
        before it calls this).  Any other prefix, a writeable copy of the
        same entries included, pays the compare."""
        if self.sums is None:
            return
        m, k = prefix.size, self.size
        owner = self.owner
        # the entries followed are in memory nothing writes to
        trusted = owner is not None and prefix.base is owner and k <= m and _leads(prefix, self.head)
        if m > self.record.size:
            capacity = max(m, 2 * self.record.size)
            record, sums = np.empty(capacity, dtype=np.int64), np.empty(capacity)
            record[:k], sums[:k] = self.record[:k], self.sums[:k]
            self.record, self.sums = record, sums
        if trusted:
            same = k
        else:
            if owner is not None:
                # the bits followed in the owner were not copied on the way
                self.record[:k] = owner[:k].view(np.int64)
            # bitwise, so that -0.0 and 0.0 (which sum differently) never match
            bits = prefix.view(np.int64)
            same = _agreeing(bits, self.record, k) if 0 < k <= m else 0
            self.record[same:m] = bits[same:]
            self.owner = _immutable_owner(prefix)
            self.head = None if self.owner is None else self.owner[:1]
        if same == m:
            return
        tail = self.sums[same:m]
        # as np.cumsum does, the first entry is copied, not added to 0.0
        tail[0] = self.sums[same - 1] + prefix[same] if same else prefix[0]
        if tail.size > 1:
            tail[1:] = prefix[same + 1 :]
            np.cumsum(tail, out=tail)
        self.size = m
        self.y = tail.item(-1)

    def control(self, t: float, record: np.ndarray, k: int) -> float:
        """u at time t after the first k entries of `record`, to which a
        compiled law's sums have been advanced or followed, as
        `ControlLaw.hamiltonian_at` checks it; under a channel map, the S0
        columns of `s` are then rebuilt from L_t.  Only a law called on its
        prefix gets the view record[:k]."""
        body = self.body
        if body is not None:
            u = body(t, self.sums, k)
            # a compiled body computes a Python float: a finite one is u
            return u if type(u) is float and math.isfinite(u) else _finite_real(u, _CONTROL_VALUE, t)
        law = self.law
        prefix = record[:k]
        u = _finite_real(law.control(float(t), prefix), _CONTROL_VALUE, t)
        if law.channel_map is not None:
            ch = _operator(law.channel_map(t, prefix), self.model.dim, "L_t")
            blocks = _liouville((_channel_parts(ch, self.scheme.phase),))
            s0 = _step_matrix(blocks, self.counting, self.dt, law.h0)
            self.s[:, : s0.shape[1]] = s0
        return u

    def feed(self, state: FilterState, dY, prefix: np.ndarray, t: float) -> FilterState:
        """The rest of a `feedback_step` call that this run serves, once dt,
        the state, the law, the prefix, t and causality are checked: follow
        the prefix, take the control u at t, check dY and step the state
        (`_apply`).  A leading record view one entry longer than the last,
        an online call's prefix, is summed here by one add."""
        m, k, owner = prefix.size, self.size, self.owner
        # an owner is only set once entries were summed, so k > 0
        if (owner is not None and m == k + 1 and prefix.base is owner and k < self.record.size
                and _leads(prefix, self.head)):
            self.sums[k] = self.y = self.y + prefix.item(k)
            self.size = m
        else:
            self.follow(prefix)
        return _apply(state, dY, self.s, self.step, self.counting, self.normalized, self.control(t, prefix, m))


# One thread's last bound feedback run, a `_LawRun`, reused by the next call
# it serves.
_feedback_runs = threading.local()
_FLOAT64 = np.dtype(np.float64)


def feedback_step(
    state: FilterState,
    dY: float,
    law: ControlLaw,
    model: SystemModel,
    record_prefix,
    dt: float,
    scheme: MeasurementScheme | None = None,
    t: float | None = None,
) -> FilterState:
    """One filter step with feedback-frozen coefficients.

    The law sees the time t, a finite real number, and the record entries
    strictly before t (the prefix); supplying entries at or after t is a
    causality violation.  The matching scheme step then runs with H_t (and
    L_t when the law carries a channel map) held fixed across the step.

    Each thread keeps the last run it bound (a `_LawRun`, which binds its
    own step), and reuses it for the next call with the same law and model
    objects, an equal scheme and the same dt and normalization; a law's H0
    and H1 are read-only, so no call compares them.  A compiled expression
    law is evaluated on the run's cumulative sums, which follow each call's
    prefix: a prefix that extends the last one costs an add per new entry,
    any other is summed afresh.  Telling the two apart costs nothing per
    entry for a leading view of an `ObservationRecord`'s increments, such
    as `record.increments[:k]`, whose buffer is immutable; any other
    prefix, a writeable copy of the same entries included, pays a bitwise
    compare of the entries followed, about 0.4 ns an entry
    (`_LawRun.follow`).

    Every argument is checked on every call, in the order dt, state, law,
    prefix, t and causality, then the control and dY.  The prefix must
    hold real numbers (`_real_prefix`); a one-dimensional float64 array is
    taken as it is.  The law's dimension is checked when a run is bound: a
    call that a bound run serves passes the law and model objects it was
    checked with, whose operators are read-only.
    """
    if type(dt) is not float or not 0.0 < dt < math.inf:
        dt = _require_dt(dt)
    scheme = _VACUUM if scheme is None else scheme
    w = state.matrix
    run = getattr(_feedback_runs, "run", None)
    if (run is not None and law is run.law and model is run.model and dt == run.dt
            and state.normalized == run.normalized and (scheme is run.scheme or scheme == run.scheme)):
        if w.shape != run.shape:
            _check_dim(w, model.dim, "state")
    else:
        _check_dim(w, model.dim, "state")
        _check_dim(law.h0, model.dim, "control H0/H1")
        run = None
    if type(record_prefix) is np.ndarray and record_prefix.dtype is _FLOAT64 and record_prefix.ndim == 1:
        prefix = record_prefix
    else:
        prefix = _real_prefix(record_prefix)
    m = prefix.size
    if t is None:
        t = m * dt
    if type(t) is not float or not math.isfinite(t):
        t = _finite_real(t, "t: {}")
    if m * dt > t * (1.0 + 1e-12) + 1e-12 * dt:
        raise CausalityViolation(f"record prefix extends to {m * dt:.6g}, at or beyond the current time {t:.6g}")
    if run is None:
        run = _feedback_runs.run = _LawRun(law, model, scheme, dt, state.normalized)
    return run.feed(state, dY, prefix, t)


# --- health monitoring ----------------------------------------------------


@dataclass(frozen=True)
class PathHealth:
    """Summary of the invariants monitored along a filter path."""

    max_hermiticity_defect: float
    min_eigenvalue: float
    max_trace_defect: float
    normalized: bool

    @property
    def positivity_ok(self) -> bool:
        return self.min_eigenvalue >= EIGENVALUE_MONITOR_FLOOR

    @property
    def trace_ok(self) -> bool:
        return (not self.normalized) or self.max_trace_defect <= TRACE_MONITOR_TOL

    @property
    def ok(self) -> bool:
        return self.positivity_ok and self.trace_ok


# The screen of `_lowest_eigenvalue`: eigvalsh on every _SCREEN_STRIDE-th
# matrix bounds the minimum, and a shifted Cholesky per chunk of _SCREEN_CHUNK
# matrices rules out the chunks that cannot hold it.  A chunk's Cholesky costs
# a seventh of its eigvalsh at n = 8, and the screen pays from two chunks on
# (timed at n = 3, 4 and 8).
_SCREEN_STRIDE = 16
_SCREEN_CHUNK = 64
_ROUNDOFF = 2.0**-53


def _screened_chunks(arr: np.ndarray, sym: np.ndarray) -> set | None:
    """The chunks of `sym`, the Hermitian parts of the finite stack `arr`
    (m >= 2 chunks), whose matrices can hold its lowest eigvalsh value, or
    None when more than half can.

    U, the lowest eigvalsh value of the sample sym[::_SCREEN_STRIDE], bounds
    the minimum from above.  A chunk is ruled out when the Cholesky
    factorization of every sym - (U + delta) I in it completes: each matrix
    then has a computed lowest eigenvalue above U (see `path_health` for
    delta).  Chunks with a sampled value at or below U + delta cannot pass
    and are kept untried; so is the chunk that holds U.
    """
    m, n, _ = sym.shape
    sampled = np.linalg.eigvalsh(sym[::_SCREEN_STRIDE])[:, 0]
    upper = float(sampled.min())
    # nu >= n max |entry| >= ||sym_i||_2 for every i, as |z| <= sqrt(2) max(|Re z|, |Im z|)
    # and an entry of sym is at most the largest of arr's, up to a rounding
    parts = np.ascontiguousarray(arr).view(float)
    nu = math.sqrt(2.0) * n * max(float(parts.max()), -float(parts.min()))
    shift = upper + 2.0**8 * n * n * _ROUNDOFF * (nu + abs(upper))
    chunks = -(-m // _SCREEN_CHUNK)
    kept = set((np.flatnonzero(sampled <= shift) * _SCREEN_STRIDE // _SCREEN_CHUNK).tolist())
    shifted_eye = shift * np.eye(n)
    for c in range(chunks):
        if 2 * len(kept) > chunks:
            return None  # a constant path, say: one eigvalsh call is cheaper
        if c not in kept:
            try:
                np.linalg.cholesky(sym[c * _SCREEN_CHUNK:(c + 1) * _SCREEN_CHUNK] - shifted_eye)
            except np.linalg.LinAlgError:
                kept.add(c)
    return kept if 2 * len(kept) <= chunks else None


def _lowest_eigenvalue(arr: np.ndarray, sym: np.ndarray) -> float:
    """float(np.linalg.eigvalsh(sym)[:, 0].min()) for the Hermitian parts
    sym of a finite stack arr, bit for bit, with eigvalsh run only on the
    chunks the screen keeps (LAPACK's per-matrix result does not depend on
    the batch)."""
    kept = _screened_chunks(arr, sym) if sym.shape[0] >= 2 * _SCREEN_CHUNK else None
    if kept is None:
        return float(np.linalg.eigvalsh(sym)[:, 0].min())
    return min(float(np.linalg.eigvalsh(sym[c * _SCREEN_CHUNK:(c + 1) * _SCREEN_CHUNK])[:, 0].min())
               for c in kept)


def path_health(matrices, normalized: bool = True) -> PathHealth:
    """Audit a stack of filter matrices, shape (m, n, n).

    The eigenvalue is the lowest of the Hermitian parts (r + r*)/2.  At n = 2
    it is the closed form (a + d)/2 - hypot((a - d)/2, |b|) on their entries.
    At n > 2 it is `eigvalsh`'s value for the matrix that holds the minimum,
    bit for bit, but `eigvalsh` runs only where that matrix can lie: from two
    chunks of 64 matrices on, eigvalsh on every 16th matrix gives an upper
    bound U, and a chunk whose matrices all pass a Cholesky factorization of
    (r + r*)/2 - (U + delta) I is ruled out.

    The margin is delta = 2^8 n^2 u (nu + |U|), with u = 2^-53 the unit
    roundoff and nu = sqrt(2) n max(|Re|, |Im|) over the stack's entries, so
    that nu >= ||sym||_2 for every Hermitian part sym (up to a rounding of
    the parts, which the margin absorbs).  Three roundings separate a matrix
    that passes from its `eigvalsh` value:

    - forming A = sym - s I, s = U + delta, rounds the diagonal, by at most
      u (nu + |s|);
    - a Cholesky factorization that completes is exact for A + E with
      |E| <= gamma_{n+1} |R*| |R|, so ||E||_2 <= n (n + 1) u ||A||_2 to first
      order (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
      Thm 10.3; complex arithmetic raises the constant by a small factor).
      Its factor R is nonsingular, so A + E is positive definite and the
      lowest eigenvalue of sym exceeds s - ||E||_2 - u (nu + |s|);
    - `eigvalsh`'s values are exact for sym + F with ||F||_2 <= p(n) u nu,
      p(n) a modest function of n (LAPACK Users' Guide, 3rd ed., 4.7.1).

    A matrix that passes therefore has an `eigvalsh` value above U whenever
    delta covers the three terms, which 2^8 n^2 does while 2c + p(n)/n^2
    stays below about 250; delta stays below 3e-12 (nu + |U|) up to n = 10.  Every matrix whose value is <= U, the one
    holding the minimum among them, fails the screen, and `eigvalsh` on the
    chunks that fail finds it.  A path where more than half the chunks fail
    (a constant path) takes one `eigvalsh` call.

    A stack with a non-finite entry reports the eigenvalue NaN, so that
    positivity fails.
    """
    arr = _stack(matrices, "matrices")
    if arr.size == 0:
        raise ValidationError(f"expected a nonempty stack of matrices, got shape {arr.shape}")
    if arr.shape[1] == 2:
        a, b, c, d = arr.reshape(-1, 4).T
        # |r - r*| entry by entry, bit for bit: 2|Im a|, |b - conj(c)| (twice), 2|Im d|
        diagonal = 2.0 * float(np.max(np.maximum(np.abs(a.imag), np.abs(d.imag))))
        herm = max(diagonal, float(np.max(np.abs(b - c.conj()))))
        traces = a.real + d.real
        radius = np.hypot(0.5 * (a.real - d.real), np.abs(0.5 * (b + c.conj())))
        lowest = float(np.min(0.5 * traces - radius))
    else:
        # each adjoint is a temporary numpy reuses for the result, which it
        # can only do when the temporary comes first (|r* - r| = |r - r*| bit
        # for bit); one shared adjoint would hold a third full stack at once
        herm = float(np.max(np.abs(np.conj(np.swapaxes(arr, 1, 2)) - arr)))
        sym = 0.5 * (arr + np.conj(np.swapaxes(arr, 1, 2)))
        # a non-finite entry makes the defect inf or NaN (and eigvalsh raise)
        lowest = _lowest_eigenvalue(arr, sym) if math.isfinite(herm) else math.nan
        traces = np.trace(arr, axis1=1, axis2=2).real
    if not (math.isfinite(herm) and math.isfinite(lowest)):
        # at n = 2 a non-finite real diagonal shows only in the eigenvalue
        lowest = math.nan
    trace_defect = float(np.max(np.abs(traces - 1.0))) if normalized else 0.0
    return PathHealth(herm, lowest, trace_defect, normalized)

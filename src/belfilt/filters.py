"""Time-stepping of the Belavkin quantum filters.

The filters propagate a matrix w_t whose pairing trace(w_t X) gives the
conditional expectation functional; this is the trace dual of the
operator-valued filtering equations, validated operationally by per-step
duality tests rather than assumed.  Forward Euler is used throughout (the
unnormalized equation is linear in w), with per-step renormalization for
the normalized variants.

Homodyne (diffusive) schemes, per step of size dt with record increment dY:

    unnormalized:  w <- w + L'(w) dt + eta (L w + w L*) dY
    normalized:    r <- r + L'(r) dt + (L r + r L* - m r)(dY - m dt),
                   m = trace((L + L*) r), then renormalize

where eta = 1 in the vacuum and eta = 1/(1 + kappa^2) under imperfect
observation with corruption strength kappa.  A quadrature phase phi enters
only through L -> exp(i phi) L.

Counting (jump) schemes, with dY in {0, 1}:

    unnormalized:  w <- w + L'(w) dt + (L w L* - w)(dY - dt)
    normalized:    no jump: r <- r + (L'(r) - L r L* + rate r) dt,
                   jump:    r <- L r L* / rate,      rate = trace(L*L r).

All four are written once, in `_kernel`; the public step functions
validate, bind H, L, L*, L*L and the gain, take the products of the step
from one stacked product on each side (`_drift_terms`) and call it, as do
the trajectory loops, which also step whole stacks of trajectories through
it.

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
    HERMITICITY_TOL,
    SystemModel,
    _channel_parts,
    as_operator,
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
        if not np.isfinite(self.kappa) or self.kappa < 0:
            raise ValidationError("scheme: kappa must be a nonnegative real")
        if self.kind != IMPERFECT and self.kappa != 0.0:
            raise ValidationError("scheme: kappa is only meaningful for the imperfect kind")
        if not np.isfinite(self.phase):
            raise ValidationError("scheme: phase must be finite")
        if self.kind == COUNTING and self.phase != 0.0:
            raise ValidationError("scheme: phase is not meaningful for counting")
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "phase", float(self.phase))

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


@dataclass(frozen=True)
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
        return complex(np.trace(self.matrix @ x))

    def min_eigenvalue(self) -> float:
        m = self.matrix
        return float(np.linalg.eigvalsh(0.5 * (m + dag(m))).min())

    def hermiticity_defect(self) -> float:
        return hermiticity_defect(self.matrix)


def _require_dt(dt: float) -> float:
    dt = float(dt)
    if not np.isfinite(dt) or dt <= 0.0:
        raise ValidationError("dt must be positive")
    return dt


def _require_model_state(state: FilterState, model: SystemModel) -> None:
    if state.matrix.shape[0] != model.dim:
        raise DimensionMismatch(f"state dim {state.matrix.shape[0]} != model dim {model.dim}")


def _diffusive_scheme(scheme: MeasurementScheme | None) -> MeasurementScheme:
    scheme = _VACUUM if scheme is None else scheme
    if not scheme.is_diffusive:
        raise ValidationError(f"scheme kind {scheme.kind!r} is not a diffusive (homodyne-type) scheme")
    return scheme


def _route(scheme: MeasurementScheme) -> str:
    """The kind whose equations step `scheme`: kappa = 0 imperfect is homodyne."""
    return HOMODYNE if scheme.kind == IMPERFECT and scheme.kappa == 0.0 else scheme.kind


def _real_trace(x):
    """Real part of the trace: a float for one matrix, shape (B, 1, 1) for a
    stack (B, n, n) so that it scales the rows it came from.

    One matrix is summed from scalar reads, in the order in which numpy's
    pairwise summation adds a diagonal of up to 64 entries (in sequence up
    to n = 3, from n = 4 in four running sums), so the float equals
    float(x.trace().real) bit for bit at a fraction of its cost.  A NaN sum
    is taken again by numpy, since which of two NaNs survives an add
    depends on how the add was compiled."""
    if x.ndim > 2:
        return x.trace(axis1=1, axis2=2).real[:, None, None]
    n = len(x)
    if n == 2:
        s = 0.0 + x.item(0).real + x.item(3).real
    elif n > 64:
        return float(x.trace().real)
    elif n < 4:
        s = 0.0
        for v in x.diagonal().real.tolist():
            s += v
    else:
        d = x.diagonal().real.tolist()
        r0, r1, r2, r3 = d[:4]
        tail = n - n % 4
        for k in range(4, tail, 4):
            r0 += d[k]
            r1 += d[k + 1]
            r2 += d[k + 2]
            r3 += d[k + 3]
        s = (r0 + r1) + (r2 + r3)
        for v in d[tail:]:
            s += v
        s = 0.0 + s  # numpy adds the sum to a +0.0 start
    return s if s == s else float(x.trace().real)


def _refuse(bad, error, message, value):
    """Raise error(message.format(value)) where `bad` holds.  For a stack,
    `bad` and `value` are arrays with one entry per row: the first bad row's
    value is reported and its index set as the error's `row` (None for one
    matrix)."""
    row = None
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return
        row = int(np.argmax(bad.reshape(-1)))
        value = value.reshape(-1)[row]
    elif not bad:
        return
    exc = error(message.format(value))
    exc.row = row
    raise exc


# -i and 1/2, the factors of the commutator and damping terms
_FACTORS = np.array([-1j, 0.5])[:, None, None]


def _bind(h, parts, stacked=False):
    """H and the channel parts (L, L*, L*L) bound for `_drift_terms`: the
    left factors [L, H, L*L], the right factors [H, L*L] (a view of the
    left ones), L* and the factors [-i, 1/2]; for a stack of states
    (`stacked`), with a unit axis so that they broadcast over its rows."""
    ch, chd, grammian = parts
    ops, factors = np.array((ch, h, grammian)), _FACTORS
    if stacked:
        ops, factors = ops[:, None], factors[:, None]
    return ops, ops[1:], chd, factors


def _drift_terms(w, bound):
    """L w, L w L*, -i(H w - w H) and (L*L w + w L*L)/2 for one matrix or a
    stack, from one stacked product on each side of w.

    Each matrix product is the BLAS call a separate product would make, and
    the anticommutator is taken as L*L w - (-(w L*L)): negating the product,
    not the factor, keeps even the sign of an exact zero, so every term has
    the bits of the separate products and sums."""
    ops, right_ops, chd, factors = bound
    left = ops @ w  # L w, H w, L*L w
    right = w @ right_ops  # w H, w L*L
    anti = right[1]
    np.negative(anti, out=anti)
    terms = left[1:] - right
    np.multiply(factors, terms, out=terms)
    lw = left[0]
    return lw, lw.dot(chd) if lw.ndim == 2 else lw @ chd, terms[0], terms[1]


def _kernel(w, lw, jumped, dy, dt, commutator, damping, kind, gain, normalized, known=None, out=None):
    """One Euler step of any of the four filters on the raw matrix w, given
    lw = L w, jumped = L w L*, commutator = -i[H, w] and damping =
    {L*L, w}/2 (see `_drift_terms`), the gain and `_route`'s kind.  `known`
    is the trace the caller may already hold: trace(L w) for diffusive
    schemes, trace(L w L*) for counting.  Returns the next matrix, written
    into `out` when given, and the trace of the unnormalized step (the
    likelihood of Zakai runs).

    w may also be a stack (B, n, n) of independent rows, with dy of shape
    (B, 1, 1); traces then come back as (B, 1, 1), a registered count
    collapses only its own row, and an error names the failing row (see
    `_refuse`).  Seeded paths are reproducible bit for bit, and a row of a
    stack steps exactly as the single matrix would, so the order of
    operations is fixed."""
    counting = kind == COUNTING
    if counting and normalized:
        rate = _real_trace(jumped) if known is None else known
        jump = dy == 1.0
        _refuse(jump & (rate <= ZERO_RATE), ZeroJumpRate,
                "jump recorded while trace(L*L rho) = {:.3e}; inconsistent record", rate)
        if w.ndim == 2 and jump:
            return np.divide(jumped, rate, out=out), rate
        # no-jump drift: L'(r) - L r L* + rate r, with the dissipator's jump
        # part cancelling the subtracted one
        raw = w + (commutator - damping + rate * w) * dt
    else:
        drift = commutator + jumped - damping  # L'(w)
        if counting:
            raw = w + drift * dt + (jumped - w) * (dy - dt)
        elif normalized and kind == HOMODYNE:
            m = 2.0 * (_real_trace(lw) if known is None else known)
            raw = w + drift * dt + (lw + lw.conj().swapaxes(-1, -2) - m * w) * (dy - m * dt)
        else:
            # unnormalized, and normalized imperfect by renormalizing it
            raw = w + drift * dt + (gain * dy) * (lw + lw.conj().swapaxes(-1, -2))
    tr = _real_trace(raw)
    if not normalized:
        # the likelihood must stay a positive finite number; NaN fails `tr != tr`
        _refuse((tr <= 0.0) | (tr == math.inf) | (tr != tr), FilterCollapse,
                "unnormalized filter trace {:.3e} is not positive and finite", tr)
        if out is None:
            return raw, tr
        out[...] = raw
        return out, tr
    if counting and w.ndim > 2:
        # rows with a registered count collapse to L r L* / rate
        raw, tr = np.where(jump, jumped, raw), np.where(jump, rate, tr)
    _refuse(tr <= COLLAPSE_TRACE, FilterCollapse, "filter trace {:.3e} vanished; reduce dt", tr)
    return np.divide(raw, tr, out=out), tr


def _bound_step(state: FilterState, dY, dt: float, h, parts, scheme: MeasurementScheme, normalized: bool):
    """Step state.matrix through the kernel with H and the channel parts
    (L, L*, L*L) bound; normalized results keep the incoming likelihood."""
    dy = float(dY)
    if scheme.kind == COUNTING and dy not in (0.0, 1.0):
        raise ValidationError(f"counting increment must be 0 or 1, got {dY!r}")
    w = state.matrix
    lw, jumped, commutator, damping = _drift_terms(w, _bind(h, parts))
    new, tr = _kernel(w, lw, jumped, dy, dt, commutator, damping, _route(scheme), scheme.gain, normalized)
    return FilterState(new, normalized, state.likelihood if normalized else tr)


def _model_step(state: FilterState, dY, model: SystemModel, dt: float, scheme: MeasurementScheme, normalized: bool):
    dt = _require_dt(dt)
    _require_model_state(state, model)
    return _bound_step(state, dY, dt, model.hamiltonian, model.single_channel_parts(scheme.phase), scheme, normalized)


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


def _validate_expr(node: ast.AST, expression: str) -> None:
    if isinstance(node, ast.Expression):
        return _validate_expr(node.body, expression)
    if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
        _validate_expr(node.left, expression)
        _validate_expr(node.right, expression)
        return
    if isinstance(node, ast.UnaryOp) and type(node.op) in _ALLOWED_UNARY:
        return _validate_expr(node.operand, expression)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return
    if isinstance(node, ast.Name) and node.id in ("t", "Y"):
        return
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "ma"
        and len(node.args) == 2
        and not node.keywords
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "Y"
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, int)
        and node.args[1].value >= 1
    ):
        return
    raise ValidationError(
        f"control expression {expression!r}: unsupported construct {ast.dump(node)};"
        " the grammar allows numbers, t, Y, ma(Y, window), + - * / and parentheses"
    )


def _compile_node(node: ast.AST, expression: str):
    """A closure f(t, sums, m) evaluating one validated node, where sums[:m]
    are the cumulative sums of a record prefix of length m.  Arithmetic runs
    on Python floats, left operand first, as the grammar reads."""
    if isinstance(node, ast.BinOp):
        a, b = _compile_node(node.left, expression), _compile_node(node.right, expression)
        op = type(node.op)
        if op is ast.Add:
            return lambda t, sums, m: a(t, sums, m) + b(t, sums, m)
        if op is ast.Sub:
            return lambda t, sums, m: a(t, sums, m) - b(t, sums, m)
        if op is ast.Mult:
            return lambda t, sums, m: a(t, sums, m) * b(t, sums, m)

        def divide(t, sums, m):
            num, den = a(t, sums, m), b(t, sums, m)
            if den == 0.0:
                raise ValidationError(f"control expression {expression!r}: division by zero")
            return num / den

        return divide
    if isinstance(node, ast.UnaryOp):
        f = _compile_node(node.operand, expression)
        return f if isinstance(node.op, ast.UAdd) else lambda t, sums, m: -f(t, sums, m)
    if isinstance(node, ast.Constant):
        value = float(node.value)
        return lambda t, sums, m: value
    if isinstance(node, ast.Name):
        if node.id == "t":
            return lambda t, sums, m: t
        return lambda t, sums, m: float(sums[m - 1]) if m else 0.0
    # validated: ma(Y, window)
    window = node.args[1].value

    def moving_average(t, sums, m):
        if m == 0:
            return 0.0
        start = max(m - window, 0)
        # the sum and the division np.mean does, without its dispatch
        return float(np.add.reduce(sums[start:m])) / (m - start)

    return moving_average


class _RunningSums(threading.local):
    """One thread's copy of the last record prefix a control law was given,
    and its cumulative sums.

    A closed loop calls its law with a prefix one entry longer each step, so
    `cumulative` keeps the leading entries that match the copy bit for bit
    and sums only the rest; a prefix that shrinks, diverges or was edited in
    place is still summed correctly from its first differing entry.  Being
    thread-local, the memo is never shared between concurrent callers.
    """

    def __init__(self):
        self.record = np.empty(0, dtype=np.int64)  # the prefix's bits
        self.sums = np.empty(0)
        self.size = 0

    def cumulative(self, prefix: np.ndarray) -> np.ndarray:
        """A buffer whose first prefix.size entries equal np.cumsum(prefix)
        bit for bit; it stays valid until this thread's next call."""
        m = prefix.size
        k = min(m, self.size)
        # bitwise, so that -0.0 and 0.0 (which sum differently) never match
        bits = prefix.view(np.int64)
        differs = bits[:k] != self.record[:k]
        same = k
        if k:
            first = int(differs.argmax())  # 0 when no entry differs
            if differs[first]:
                same = first
        if same == m:
            return self.sums
        if m > self.record.size:
            capacity = max(m, 2 * self.record.size)
            record, sums = np.empty(capacity, dtype=np.int64), np.empty(capacity)
            record[:same], sums[:same] = self.record[:same], self.sums[:same]
            self.record, self.sums = record, sums
        self.record[same:m] = bits[same:]
        tail = self.sums[same:m]
        # as np.cumsum does, the first entry is copied, not added to 0.0
        tail[0] = self.sums[same - 1] + prefix[same] if same else prefix[0]
        if tail.size > 1:
            tail[1:] = prefix[same + 1 :]
            np.cumsum(tail, out=tail)
        self.size = m
        return self.sums


def compile_control_expression(expression: str) -> Callable[[float, np.ndarray], float]:
    """Compile the minimal control grammar over t, cumulative Y, and the
    trailing moving average ma(Y, window) into a callable u(t, prefix).

    The expression is turned into closures once.  Each call reuses the
    cumulative sums of the previous call's prefix (per thread) wherever the
    new prefix matches it, so a prefix grown by one entry costs one add and
    a bitwise compare, not a fresh cumulative sum; u stays a pure function
    of (t, prefix)."""
    try:
        tree = ast.parse(expression.strip(), mode="eval")
    except SyntaxError as exc:
        raise ValidationError(f"control expression {expression!r}: {exc}") from exc
    _validate_expr(tree, expression)
    body = _compile_node(tree.body, expression)
    reads_record = any(isinstance(node, ast.Name) and node.id == "Y" for node in ast.walk(tree))
    memo = _RunningSums()

    def control(t: float, prefix) -> float:
        arr = np.asarray(prefix, dtype=float).reshape(-1)
        return float(body(float(t), memo.cumulative(arr) if reads_record else None, arr.size))

    return control


@dataclass(frozen=True)
class ControlLaw:
    """Causal feedback law: H_t = H0 + u_t H1 with u_t a function of the
    record strictly before t, optionally with a time/record dependent
    coupling channel."""

    control: Callable[[float, np.ndarray], float]
    h0: np.ndarray
    h1: np.ndarray
    channel_map: Callable[[float, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        h0 = as_operator(self.h0, "H0")
        h1 = as_operator(self.h1, "H1")
        if hermiticity_defect(h0) > HERMITICITY_TOL:
            raise ValidationError("H0: not Hermitian")
        if hermiticity_defect(h1) > HERMITICITY_TOL:
            raise ValidationError("H1: not Hermitian")
        if h0.shape != h1.shape:
            raise DimensionMismatch("H0 and H1 must share a dimension")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "h1", h1)

    @classmethod
    def from_expression(cls, expression: str, h0, h1) -> "ControlLaw":
        return cls(compile_control_expression(expression), h0, h1)

    def hamiltonian_at(self, t: float, prefix) -> tuple[np.ndarray, float]:
        u = self.control(float(t), prefix)
        if not np.isfinite(u) or (isinstance(u, complex) and u.imag != 0):
            raise ValidationError(f"control law returned non-real value {u!r} at t = {t}")
        return self.h0 + float(u) * self.h1, float(u)


def _require_law_model(law: ControlLaw, model: SystemModel) -> None:
    if law.h0.shape[0] != model.dim:
        raise DimensionMismatch(f"control H0/H1 dim {law.h0.shape[0]} != model dim {model.dim}")


def _law_terms(law: ControlLaw, t: float, prefix, model: SystemModel, phase: float):
    """H_t and the channel parts (L_t, L_t*, L_t*L_t) for one step.  The
    channel map is called once; without one the model's channel stands."""
    h_t, _ = law.hamiltonian_at(t, prefix)
    if law.channel_map is None:
        return h_t, model.single_channel_parts(phase)
    ch = as_operator(law.channel_map(t, prefix), "L_t")
    if ch.shape[0] != model.dim:
        raise DimensionMismatch(f"L_t dim {ch.shape[0]} != model dim {model.dim}")
    return h_t, _channel_parts(ch, phase)


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

    The law sees the time t and the record entries strictly before t (the
    prefix); supplying entries at or after t is a causality violation.  The
    matching scheme step then runs with H_t (and L_t when the law carries a
    channel map) held fixed across the step.
    """
    dt = _require_dt(dt)
    _require_model_state(state, model)
    _require_law_model(law, model)
    scheme = _VACUUM if scheme is None else scheme
    prefix = np.asarray(record_prefix, dtype=float).reshape(-1)
    if t is None:
        t = prefix.size * dt
    t = float(t)
    if prefix.size * dt > t * (1.0 + 1e-12) + 1e-12 * dt:
        raise CausalityViolation(
            f"record prefix extends to {prefix.size * dt:.6g}, at or beyond the current time {t:.6g}"
        )
    h_t, parts = _law_terms(law, t, prefix, model, scheme.phase)
    return _bound_step(state, dY, dt, h_t, parts, scheme, state.normalized)


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


def path_health(matrices, normalized: bool = True) -> PathHealth:
    """Audit a stack of filter matrices, shape (m, n, n)."""
    arr = np.asarray(matrices, dtype=complex)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValidationError("expected a stack of square matrices")
    herm = float(np.max(np.abs(arr - np.conj(np.swapaxes(arr, 1, 2)))))
    sym = 0.5 * (arr + np.conj(np.swapaxes(arr, 1, 2)))
    lowest = float(np.linalg.eigvalsh(sym)[:, 0].min())
    traces = np.trace(arr, axis1=1, axis2=2).real
    trace_defect = float(np.max(np.abs(traces - 1.0))) if normalized else 0.0
    return PathHealth(herm, lowest, trace_defect, normalized)

"""Finite-dimensional operator algebra for open quantum systems.

Operators are plain complex ndarrays.  A ``SystemModel`` bundles a Hermitian
Hamiltonian H with coupling channels L_j; the Heisenberg-picture generator is

    L(X) = i[H, X] + sum_j ( L_j* X L_j - (1/2){L_j* L_j, X} )

and ``lindblad_adjoint`` is its trace dual acting on density matrices.  The
reduced semigroup exp(tL') is evaluated through the matrix exponential of the
vectorized generator, by scaling and squaring with a Pade approximant.

Qubit helpers use the basis ordering (|g>, |e>), so the lowering operator
maps |e> to |g> and sigma_z = diag(-1, +1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ValidationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10

# Pade orders 3, 5, 7, 9 of exp: (theta_m, b_0..b_m), the [m/m] approximant
# r_m = (V - U)^-1 (V + U), U the odd and V the even terms of
# sum_j b_j A^j, being accurate to double precision for ||A||_1 <= theta_m
# (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179-1193, Table 2.3).
_PADE_LOW = (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
                           110880.0, 3960.0, 90.0, 1.0)),
)
_THETA_13 = 5.371920351148152
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
            129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
            960960.0, 16380.0, 182.0, 1.0)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
GROUND = np.array([1.0, 0.0], dtype=complex)
EXCITED = np.array([0.0, 1.0], dtype=complex)


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def _beyond_floats(value) -> str:
    """What a value beyond the float range is, without printing it: Python
    refuses to print an int of more than 4300 digits, so an int reads as its
    digit count."""
    if not isinstance(value, int):
        return "value beyond the float range"
    n = abs(value)
    digits = int((n.bit_length() - 1) * math.log10(2.0)) + 1  # the digits of 2**(bits - 1), n's or one fewer
    return f"integer of {digits + (n >= 10**digits)} digits, beyond the float range"


def _number(value, message: str, *args) -> complex:
    """value as a Python complex, when it is a number: a str, bytes or bool
    (which complex() would take) and any other non-number raise
    ValidationError(message.format("non-numeric value ...", *args)), a
    value beyond the float range ValidationError with `_beyond_floats`'s
    description.  `_finite_real` and `_finite_complex` read through it."""
    try:
        if isinstance(value, (str, bytes, bool, np.bool_)):
            raise TypeError
        return complex(value)
    except (TypeError, ValueError):
        raise ValidationError(message.format(f"non-numeric value {value!r}", *args)) from None
    except OverflowError:
        raise ValidationError(message.format(_beyond_floats(value), *args)) from None


def _finite_real(value, message: str, *args) -> float:
    """value as a finite Python float: its real part when its imaginary part
    is 0.  Otherwise ValidationError(message.format(what, *args)), `what`
    being what the value is not: "non-numeric value ..." (a str, bytes or
    bool among them), "non-real value ..." or, for one beyond the float
    range, `_beyond_floats`'s description (`_number`).  Every number read
    from outside the package is read here, by `_finite_complex` or by
    `_require_integer`."""
    if isinstance(value, float) and math.isfinite(value):
        return float(value)
    z = _number(value, message, *args)
    if z.imag != 0.0:
        raise ValidationError(message.format(f"non-real value {value!r}", *args))
    if not math.isfinite(z.real):
        raise ValidationError(message.format(f"non-real value {z.real!r}", *args))
    return z.real


# The item types no bool can hide among (`_refuse_bools`).
_PLAIN_NUMBERS = frozenset((float, int, complex, np.float64, np.int64, np.complex128))


def _refuse_bools(values, message: str, *args) -> None:
    """Refuse a bool among the items of a list or tuple, nested ones
    included, with ValidationError(message.format("non-numeric value ...",
    *args)), as `_finite_real` refuses one: np.asarray reads it as 0.0 or
    1.0 beside numbers.  Other values, arrays among them, are not read; a
    list of Python or numpy floats, ints and complex numbers is passed at C
    speed."""
    if isinstance(values, (list, tuple)) and not _PLAIN_NUMBERS.issuperset(map(type, values)):
        for v in values:
            if isinstance(v, (list, tuple)):
                _refuse_bools(v, message, *args)
            elif isinstance(v, (bool, np.bool_)) or (isinstance(v, np.ndarray) and v.dtype.kind == "b"):
                raise ValidationError(message.format(f"non-numeric value {v!r}", *args))


def _real_prefix(prefix, name: str = "record prefix") -> np.ndarray:
    """A record's entries, prefix or increments, or a grid of times, as a
    one-dimensional float64 array, as np.asarray(prefix, dtype=float) reads
    them, when they are real numbers; a complex entry with imaginary part 0
    counts as its real part, as `_finite_real` takes it.  Strings, which numpy would
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


def _finite_complex(value, message: str, *args) -> complex:
    """value as a finite Python complex, refused as `_finite_real` refuses
    a non-number or one beyond the float range (`_number`), and with
    "non-finite value ..." when a part is infinite or NaN."""
    z = _number(value, message, *args)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(message.format(f"non-finite value {value!r}", *args))
    return z


def _require_integer(value, name: str, minimum: int | None = None) -> int:
    """value as an int, when it is an integer (a numpy one reads as int), not
    a bool, within the float range and, given a minimum, at least that;
    otherwise ValidationError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name}: expected an integer, got {value!r}")
    value = int(value)
    try:
        float(value)
    except OverflowError:
        raise ValidationError(f"{name}: {_beyond_floats(value)}") from None
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be at least {minimum}")
    return value


def _entries(values, name: str) -> np.ndarray:
    """values as a complex ndarray of their own shape: every outside matrix,
    stack or vector is read here.  A numeric array passes at C speed, with
    no copy when complex; a list or tuple of numbers is converted by numpy,
    a bool among them refused (`_refuse_bools`).  Str, bytes, bool and
    object entries are read one by one through `_finite_complex`, a list's
    as given (numpy reads a 0 beside "1" as "0"), and a ragged nesting is
    refused; every refusal is a ValidationError naming `name`."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise ValidationError(f"{name}: ragged nesting, not an array") from None
    if arr.dtype.kind in "iufc":
        _refuse_bools(values, "{1}: {0}", name)
        return arr.astype(complex, copy=False)
    if not isinstance(values, np.ndarray):
        arr = np.array(values, dtype=object)
    return np.array([_finite_complex(v, "{1}: {0}", name) for v in arr.reshape(-1).tolist()],
                    dtype=complex).reshape(arr.shape)


def as_operator(m, name: str = "operator") -> np.ndarray:
    """A square complex matrix with finite entries, read by `_entries`;
    otherwise ValidationError naming `name`."""
    arr = _entries(m, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name}: expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValidationError(f"{name}: dimension must be at least 1")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: entries must be finite")
    return arr


def _stack(values, name: str) -> np.ndarray:
    """A stack of square matrices, shape (m, n, n), read by `_entries`; one
    matrix reads as a stack of one."""
    arr = _entries(values, name)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValidationError(f"{name}: expected a stack of square matrices, got shape {arr.shape}")
    return arr


def _hermitian(m, name: str) -> np.ndarray:
    """A Hermitian operator (`as_operator`), within HERMITICITY_TOL."""
    h = as_operator(m, name)
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_TOL:
        raise ValidationError(f"{name}: not Hermitian (defect {defect:.3e})")
    return h


def _check_dim(x: np.ndarray, dim: int, name: str, owner: str = "model") -> None:
    """DimensionMismatch unless the matrix, or stack of matrices, x acts on
    dimension `dim`, the owner's."""
    if x.shape[-1] != dim:
        raise DimensionMismatch(f"{name} dim {x.shape[-1]} != {owner} dim {dim}")


def _operator(m, dim: int, name: str, owner: str = "model") -> np.ndarray:
    """An operator (`as_operator`) of dimension `dim` (`_check_dim`)."""
    x = as_operator(m, name)
    _check_dim(x, dim, name, owner)
    return x


def _state(rho, dim: int | None, name: str, owner: str = "model") -> "DensityState":
    """rho as a DensityState, which it may already be, of dimension `dim`
    unless that is None."""
    if not isinstance(rho, DensityState):
        rho = DensityState(rho)
    if dim is not None:
        _check_dim(rho.matrix, dim, name, owner)
    return rho


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - dag(m)))) if m.size else 0.0


def _frozen(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DensityState:
    """Density matrix: Hermitian, unit trace, positive semidefinite.

    Tolerances are 1e-10 on Hermiticity and trace and -1e-10 on the smallest
    eigenvalue; validation happens at construction and the stored matrix is
    read-only, so instances are safe to share.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _hermitian(self.matrix, "density matrix")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"density matrix: trace {tr} is not 1 within {TRACE_TOL}")
        lowest = float(np.linalg.eigvalsh(0.5 * (m + dag(m))).min())
        if lowest < EIGENVALUE_FLOOR:
            raise ValidationError(f"density matrix: minimum eigenvalue {lowest:.3e} below {EIGENVALUE_FLOOR}")
        object.__setattr__(self, "matrix", _frozen(m))

    @classmethod
    def from_vector(cls, psi) -> "DensityState":
        v = _entries(psi, "state vector").reshape(-1)
        norm2 = float(np.vdot(v, v).real)
        if norm2 <= 0.0:
            raise ValidationError("state vector: zero norm")
        return cls(np.outer(v, v.conj()) / norm2)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityState":
        dim = _require_integer(dim, "dim", minimum=1)
        return cls(np.eye(dim, dtype=complex) / dim)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def expectation(self, x) -> complex:
        x = _operator(x, self.dim, "observable", "state")
        return complex(np.trace(self.matrix @ x))

    def mix_with_identity(self, weight: float) -> "DensityState":
        """Convex blend (1 - weight)*rho + weight*I/n, handy for keeping a
        positivity margin in Euler-discretized trajectory runs."""
        weight = _finite_real(weight, "weight: {}")
        if not 0.0 <= weight <= 1.0:
            raise ValidationError("mixing weight must lie in [0, 1]")
        n = self.dim
        return DensityState((1.0 - weight) * self.matrix + weight * np.eye(n) / n)


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Hamiltonian plus coupling channels.

    The generator accepts any number of channels; the filtering and
    trajectory code requires exactly one (access it via ``channel``).
    Models compare and hash by identity.
    """

    hamiltonian: np.ndarray
    channels: tuple = ()

    def __post_init__(self):
        h = _hermitian(self.hamiltonian, "hamiltonian")
        chans = tuple(_operator(c, len(h), f"channel {i}", "hamiltonian") for i, c in enumerate(self.channels))
        object.__setattr__(self, "hamiltonian", _frozen(h))
        object.__setattr__(self, "channels", tuple(_frozen(c) for c in chans))
        object.__setattr__(self, "_derived", {})

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def channel(self) -> np.ndarray:
        if len(self.channels) != 1:
            raise ValidationError(f"this operation requires exactly one channel, model has {len(self.channels)}")
        return self.channels[0]

    def single_channel_parts(self, phase: float = 0.0):
        """(L, L*, L*L) for the single channel, with L rotated by exp(i phase)
        (`_channel_parts`).  The Grammian L*L is phase invariant."""
        return _channel_parts(self.channel, float(phase))


def _channel_parts(channel: np.ndarray, phase: float):
    """(L, L*, L*L) for one validated channel, L rotated by exp(i phase);
    read-only copies, so a time-dependent channel gets the same arithmetic
    as a model's."""
    ch = _frozen(channel)
    chd = _frozen(dag(ch))
    gram = _frozen(chd @ ch)
    if phase != 0.0:
        ch = _frozen(np.exp(1j * phase) * ch)
        chd = _frozen(dag(ch))
    return ch, chd, gram


def lindblad_heisenberg(x, model: SystemModel) -> np.ndarray:
    """Heisenberg-picture generator i[H,X] + sum_j (Lj* X Lj - {Lj*Lj, X}/2)."""
    x = _operator(x, model.dim, "X")
    h = model.hamiltonian
    out = 1j * (h @ x - x @ h)
    for ch in model.channels:
        chd = dag(ch)
        grammian = chd @ ch
        out = out + chd @ x @ ch - 0.5 * (grammian @ x + x @ grammian)
    return out


def lindblad_adjoint(rho_like, model: SystemModel) -> np.ndarray:
    """Schroedinger-picture dual: -i[H,w] + sum_j (Lj w Lj* - {Lj*Lj, w}/2).

    Satisfies trace(L'(w) X) = trace(w L(X)) for every X.
    """
    w = _operator(rho_like, model.dim, "rho")
    h = model.hamiltonian
    out = -1j * (h @ w - w @ h)
    for ch in model.channels:
        chd = dag(ch)
        grammian = chd @ ch
        out = out + ch @ w @ chd - 0.5 * (grammian @ w + w @ grammian)
    return out


def _liouville(channels, d=0.0):
    """Superoperator blocks, as n^2 x n^2 matrices acting on the row-major
    vec(r), for which vec(a r b) = kron(a, b^T) vec(r).

    Returns (D, G, J): D is d plus the dissipator
    sum_j (Lj r Lj* - {Lj*Lj, r}/2) of the channels, each given by its parts
    (L, L*, L*L) (`_channel_parts`); G (r -> L r + r L*) and J (r -> L r L*)
    belong to the last channel.  This function and `_commutator`, which
    builds the Hamiltonian part -i dt [H, .] of the generator and of a step
    matrix, are the only places that know the vec convention."""
    g = j = None
    for ch, chd, grammian in channels:
        eye = np.eye(len(ch), dtype=complex)
        j = np.kron(ch, chd.T)
        g = np.kron(ch, eye) + np.kron(eye, chd.T)
        d = d + j - 0.5 * (np.kron(grammian, eye) + np.kron(eye, grammian.T))
    return d, g, j


def _commutator(h, dt: float):
    """-i dt [H, .] as an n^2 x n^2 block on the row-major vec, as
    `_liouville` gives its blocks: the entry ((a, b), (c, d)) is
    g[a, c] [b = d] - g[d, b] [a = c] for g = -i dt H.  g is placed into a
    zero-filled block, so that a term whose bracket fails reads an exact +0,
    an entry H does not reach is +0, and adding the block to A (which holds
    no -0 part) leaves that entry's bits as they are."""
    n = len(h)
    g = np.multiply(h, -1j * dt)
    block = np.zeros((n, n, n, n), dtype=complex)
    diagonal = np.arange(n)
    block[:, diagonal, :, diagonal] = g  # the entries b = d, indexed [b, a, c]
    block[diagonal, :, diagonal, :] -= g.T  # the entries a = c, indexed [a, b, d]
    return block.reshape(n * n, n * n)


def adjoint_superoperator(model: SystemModel) -> np.ndarray:
    """Vectorized (row-major) matrix of the adjoint generator, n^2 x n^2."""
    return _liouville([_channel_parts(ch, 0.0) for ch in model.channels], _commutator(model.hamiltonian, 1.0))[0]


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square matrix with a finite 1-norm, by scaling and
    squaring (Higham 2005, Algorithm 2.3): the lowest Pade order in 3, 5, 7,
    9 whose theta_m bounds ||a||_1, else order 13 on a / 2^s, s the fewest
    halvings that bring the norm to theta_13, squared s times.  exp(0) is
    exactly the identity."""
    norm = np.linalg.norm(a, 1)
    eye = np.eye(len(a), dtype=a.dtype)
    for theta, b in _PADE_LOW:
        if norm <= theta:
            powers = [eye, a @ a]
            while len(powers) < len(b) // 2:
                powers.append(powers[-1] @ powers[1])
            u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
            v = sum(b[2 * k] * p for k, p in enumerate(powers))
            return np.linalg.solve(v - u, v + u)
    s = max(0, math.ceil(math.log2(norm / _THETA_13)))
    a = a / 2.0**s
    a2 = a @ a
    b = _PADE_13
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _generator(model: SystemModel) -> np.ndarray:
    """L' of `model` (`adjoint_superoperator`).  Entries that overflow are
    left to `_propagator` to report."""
    with np.errstate(over="ignore", invalid="ignore"):
        return adjoint_superoperator(model)


def _propagator(generator: np.ndarray, t: float, name: str) -> np.ndarray:
    """exp(t L') on the row-major vec, for the generator L'.
    ValidationError naming t as `name` when t L' has no finite 1-norm, or
    when the exponential has a non-finite entry or does not preserve the
    trace within TRACE_TOL, as repeated squaring gives once t L' is so large
    that rounding swamps the result."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        generator = t * generator
        if not math.isfinite(np.linalg.norm(generator, 1)):
            raise ValidationError(f"{name} {t!r}: t L' has a non-finite entry or 1-norm")
        propagator = _expm(generator)
        n = math.isqrt(len(propagator))
        # the rows of the diagonal entries sum to the trace functional vec(I)
        defect = np.abs(propagator[:: n + 1].sum(axis=0) - np.eye(n).reshape(-1)).max()
    if not defect <= TRACE_TOL:
        raise ValidationError(f"{name} {t!r}: exp(t L') is not finite and trace-preserving"
                              f" within {TRACE_TOL} (trace defect {defect:.3e})")
    return propagator


def _states(rho0: DensityState, generator: np.ndarray, times):
    """exp(t L') rho0 for each t of `times`, under one generator L'
    (`_generator`): one exponential and one DensityState check a point."""
    for t in times:
        out = (_propagator(generator, t, "t") @ rho0.matrix.reshape(-1)).reshape(rho0.dim, -1)
        # exact evolution is Hermitian; strip roundoff skew
        yield DensityState(0.5 * (out + dag(out)))


def semigroup_evolve(rho0: DensityState, model: SystemModel, t: float) -> DensityState:
    """Evolve rho0 for time t >= 0 under exp(t L') via the matrix exponential."""
    rho0 = _state(rho0, model.dim, "rho0")
    t = _finite_real(t, "t: {}")
    if t < 0.0:
        raise ValidationError("t must be nonnegative")
    return next(_states(rho0, _generator(model), [t]))


def _semigroup(rho0: DensityState, model: SystemModel, dt: float, steps: int, reduce=None, chunk=None) -> np.ndarray:
    """The semigroup loop: exp(k dt L') rho0 at k = 0 .. steps (steps >= 1),
    a chunk at a time, under one contract with `trajectories._integrate`;
    rho0 is a DensityState of the model's dimension, read by the caller.

    The vectorized state goes point to point through a single one-step
    propagator exp(dt L'), and each point's roundoff skew is stripped as its
    chunk is done (the next chunk goes on from the raw vector).  The buffer
    holds chunk + 1 points (chunk = steps by default).  After every `chunk`
    steps, and after the last, `reduce(start, rows)` gets the points not
    yet reduced: rows (m', n, n) at indices start .. start+m'-1, the first
    point included in the first call.  Returns the buffer, with the default
    chunk the whole path (steps + 1, n, n).
    """
    chunk = steps if chunk is None else min(chunk, steps)
    # the bound `dot` makes the zgemv the `np.matmul` gufunc would, at less
    # than half its per-call cost on small n
    propagate = _propagator(_generator(model), dt, "times: grid step").dot
    buffer = np.empty((chunk + 1, model.dim, model.dim), dtype=complex)
    vecs = buffer.reshape(chunk + 1, -1)
    vecs[0] = rho0.matrix.reshape(-1)
    for start in range(0, steps, chunk):
        stop = min(start + chunk, steps)
        lo = 1 if start else 0
        for before, after in zip(vecs, vecs[1 : stop - start + 1]):
            propagate(before, after)
        last = vecs[stop - start].copy()
        rows = buffer[lo : stop - start + 1]
        np.multiply(0.5, np.add(rows, rows.conj().swapaxes(1, 2), out=rows), out=rows)
        if not start:
            buffer[0] = rho0.matrix
        if reduce is not None:
            reduce(start + lo, rows)
        if stop < steps:
            vecs[0] = last
    return buffer


def semigroup_path(rho0: DensityState, model: SystemModel, times) -> np.ndarray:
    """Density matrices of exp(t L') rho0 at the given times, shape (m, n, n).

    A uniform grid starting at 0 is the semigroup loop (`_semigroup`) in
    one chunk, reusing a single one-step propagator; any other grid takes
    one exponential a point (`_states`).
    """
    rho0 = _state(rho0, model.dim, "rho0")
    if np.ndim(times) != 1 or np.size(times) == 0:
        raise ValidationError("times must be a nonempty 1-d array")
    ts = _real_prefix(times, "times")
    if not np.isfinite(ts).all() or (ts < 0.0).any():
        raise ValidationError("times must be finite and nonnegative")
    diffs = np.diff(ts)
    if ts[0] == 0.0 and diffs.size and np.allclose(diffs, diffs[0], rtol=1e-12, atol=0.0):
        return _semigroup(rho0, model, float(diffs[0]), diffs.size)
    return np.array([state.matrix for state in _states(rho0, _generator(model), ts.tolist())])


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (m + dag(m))


def random_density(dim: int, rng: np.random.Generator) -> DensityState:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    g = m @ dag(m) + 1e-6 * np.eye(dim)
    return DensityState(g / np.trace(g))


def random_model(dim: int, rng: np.random.Generator, n_channels: int = 1, scale: float = 1.0) -> SystemModel:
    chans = tuple(
        scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2 * dim)
        for _ in range(n_channels)
    )
    return SystemModel(random_hermitian(dim, rng, scale), chans)

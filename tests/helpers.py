"""Test-side oracles kept independent of the library code paths they check."""

import ast

import numpy as np

from belfilt.operators import dag


def hermitian_basis(dim):
    """A real basis of Hermitian dim x dim matrices."""
    basis = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(dim):
        for j in range(i + 1, dim):
            s = np.zeros((dim, dim), dtype=complex)
            s[i, j] = s[j, i] = 1.0
            basis.append(s)
            a = np.zeros((dim, dim), dtype=complex)
            a[i, j] = -1j
            a[j, i] = 1j
            basis.append(a)
    return basis


def heisenberg_generator(x, h, ls):
    """Brute-force i[H,X] + sum (L*XL - {L*L,X}/2), written independently."""
    out = 1j * (h @ x - x @ h)
    for l in ls:
        out = out + dag(l) @ x @ l - 0.5 * (dag(l) @ l @ x + x @ dag(l) @ l)
    return out


def heisenberg_zakai_homodyne(sigma_of, h, l, dy, dt, gain=1.0):
    """One functional step of the unnormalized diffusive filter: given the
    functional X -> sigma(X) (as a callable), return the stepped functional
    evaluated lazily.  This mirrors the operator-valued equation with no
    reference to density-matrix propagation."""

    def stepped(x):
        return (
            sigma_of(x)
            + sigma_of(heisenberg_generator(x, h, [l])) * dt
            + gain * sigma_of(dag(l) @ x + x @ l) * dy
        )

    return stepped


def heisenberg_zakai_counting(sigma_of, h, l, dy, dt):
    def stepped(x):
        return (
            sigma_of(x)
            + sigma_of(heisenberg_generator(x, h, [l])) * dt
            + sigma_of(dag(l) @ x @ l - x) * (dy - dt)
        )

    return stepped


def random_commuting_normals(dim, n_generators, rng, integer_spectrum=True):
    """Commuting normal matrices sharing a random orthonormal eigenbasis."""
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    gens = []
    for _ in range(n_generators):
        if integer_spectrum:
            vals = rng.integers(-2, 3, size=dim).astype(complex)
        else:
            vals = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        gens.append(u @ np.diag(vals) @ dag(u))
    return gens, u


def commutant_element(projections, rng):
    """A random operator commuting with every projection: compress a random
    matrix block by block."""
    dim = projections[0].shape[0]
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return sum(p @ m @ p for p in projections)


def reference_control(expression):
    """Evaluate a (valid) control expression the direct way: every call sums
    the whole prefix with np.cumsum and walks the expression tree, with
    ma(Y, w) taken by np.mean."""
    tree = ast.parse(expression.strip(), mode="eval")

    def evaluate(node, t, cum):
        if isinstance(node, ast.BinOp):
            a = evaluate(node.left, t, cum)
            b = evaluate(node.right, t, cum)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if b == 0.0:
                raise ZeroDivisionError(expression)
            return a / b
        if isinstance(node, ast.UnaryOp):
            val = evaluate(node.operand, t, cum)
            return val if isinstance(node.op, ast.UAdd) else -val
        if isinstance(node, ast.Constant):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id == "t":
                return t
            return float(cum[-1]) if cum.size else 0.0
        window = node.args[1].value
        if cum.size == 0:
            return 0.0
        return float(np.mean(cum[-window:]))

    def control(t, prefix):
        cum = np.cumsum(np.asarray(prefix, dtype=float).reshape(-1))
        return float(evaluate(tree.body, float(t), cum))

    return control


def reference_liouville(h, channels=()):
    """(D, G, J) as `operators._liouville` built them when it also took the
    Hamiltonian, every block by np.kron on the row-major vec, for which
    vec(a r b) = kron(a, b^T) vec(r): D = -i(H r - r H) + sum_j (Lj r Lj* -
    {Lj*Lj, r}/2) for h (None for none) and the channels, each given by its
    parts (L, L*, L*L); G (r -> L r + r L*) and J (r -> L r L*) belong to
    the last channel."""
    n = len(channels[0][0]) if h is None else len(h)
    eye = np.eye(n, dtype=complex)
    d = 0.0 if h is None else -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    g = j = None
    for ch, chd, grammian in channels:
        j = np.kron(ch, chd.T)
        g = np.kron(ch, eye) + np.kron(eye, chd.T)
        d = d + j - 0.5 * (np.kron(grammian, eye) + np.kron(eye, grammian.T))
    return d, g, j


def reference_commutator(h, dt):
    """-i dt [H, .] on the row-major vec, gathered: the entry ((a, b), (c, d))
    is g[a n + c] [b = d] - g[d n + b] [a = c] for g = [vec(-i dt H), 0],
    each term whose bracket fails gathering the trailing exact 0."""
    n = len(h)
    a, b, c, d = np.indices((n,) * 4).reshape(4, -1)
    terms = np.stack((np.where(b == d, a * n + c, n * n), np.where(a == c, d * n + b, n * n)))
    g = np.zeros(n * n + 1, dtype=complex)
    np.multiply(h, -1j * dt, out=g[: n * n].reshape(n, n))
    left, right = g[terms]
    return (left - right).reshape(n * n, n * n)


def reference_semigroup_path(rho0, model, times):
    """exp(t L') rho0 at the given times, point by point: on a uniform grid
    from 0, one propagator step and one Hermitian part per point; elsewhere
    the exponential at each time and its Hermitian part.  The propagator is
    the package's own exponential, so that the comparison checks the
    propagation loop."""
    from belfilt.operators import DensityState, _expm, adjoint_superoperator

    if not isinstance(rho0, DensityState):
        rho0 = DensityState(rho0)
    ts = np.asarray(times, dtype=float)
    n = model.dim
    out = np.empty((ts.size, n, n), dtype=complex)
    diffs = np.diff(ts)
    uniform = ts[0] == 0.0 and ts.size > 1 and np.allclose(diffs, diffs[0], rtol=1e-12, atol=0.0)
    if not uniform:
        for k, t in enumerate(ts):
            m = (_expm(float(t) * adjoint_superoperator(model)) @ rho0.matrix.reshape(-1)).reshape(n, n)
            out[k] = 0.5 * (m + dag(m))
        return out
    step = _expm(diffs[0] * adjoint_superoperator(model))
    vec = rho0.matrix.reshape(-1).copy()
    out[0] = rho0.matrix
    for k in range(1, ts.size):
        vec = step @ vec
        m = vec.reshape(n, n)
        out[k] = 0.5 * (m + dag(m))
    return out


# --- the filter kernel before the Liouville-space step ----------------------
#
# `reference_kernel` and the functions under it are the filters' step as it
# stood before it became one product with a step matrix: separate n x n
# products, four update formulas and a trace summed in numpy's order.
# `reference_integrate` drives it as the single-trajectory loop did.


def _reference_real_trace(x):
    """Real part of the trace: a float for one matrix (summed in the order of
    numpy's pairwise summation), shape (B, 1, 1) for a stack."""
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
        s = 0.0 + s
    return s if s == s else float(x.trace().real)


_REFERENCE_FACTORS = np.array([-1j, 0.5])[:, None, None]


def _reference_bind(h, parts):
    """The left factors [L, H, L*L], the right factors [H, L*L], L* and [-i, 1/2]."""
    ch, chd, grammian = parts
    ops = np.array((ch, h, grammian))
    return ops, ops[1:], chd, _REFERENCE_FACTORS


def _reference_drift_terms(w, bound):
    """L w, L w L*, -i(H w - w H) and (L*L w + w L*L)/2."""
    ops, right_ops, chd, factors = bound
    left = ops @ w
    right = w @ right_ops
    anti = right[1]
    np.negative(anti, out=anti)
    terms = left[1:] - right
    np.multiply(factors, terms, out=terms)
    lw = left[0]
    return lw, lw.dot(chd), terms[0], terms[1]


def reference_kernel(w, lw, jumped, dy, dt, commutator, damping, kind, gain, normalized, known=None):
    """One Euler step of one matrix w by the four update formulas; returns the
    next matrix and the trace of the unnormalized step."""
    from belfilt.errors import FilterCollapse, ZeroJumpRate
    from belfilt.filters import COLLAPSE_TRACE, ZERO_RATE

    counting = kind == "counting"
    if counting and normalized:
        rate = _reference_real_trace(jumped) if known is None else known
        if dy == 1.0:
            if rate <= ZERO_RATE:
                raise ZeroJumpRate(f"jump recorded while trace(L*L rho) = {rate:.3e}; inconsistent record")
            return jumped / rate, rate
        raw = w + (commutator - damping + rate * w) * dt
    else:
        drift = commutator + jumped - damping
        if counting:
            raw = w + drift * dt + (jumped - w) * (dy - dt)
        elif normalized and kind == "homodyne":
            m = 2.0 * (_reference_real_trace(lw) if known is None else known)
            raw = w + drift * dt + (lw + lw.conj().swapaxes(-1, -2) - m * w) * (dy - m * dt)
        else:
            raw = w + drift * dt + (gain * dy) * (lw + lw.conj().swapaxes(-1, -2))
    tr = _reference_real_trace(raw)
    if not normalized:
        if not 0.0 < tr < np.inf:
            raise FilterCollapse(f"unnormalized filter trace {tr:.3e} is not positive and finite")
        return raw, tr
    if tr <= COLLAPSE_TRACE:
        raise FilterCollapse(f"filter trace {tr:.3e} vanished; reduce dt")
    return raw / tr, tr


def reference_integrate(model, rho0, scheme, dt, increments, law=None, normalized=True, noise=None):
    """The single-trajectory loop over `reference_kernel`: replays
    `increments`, or with `noise` draws each increment from the pre-step
    state and writes it to `increments`.  Returns the path and, for
    unnormalized runs, the likelihoods."""
    from belfilt.filters import _route
    from belfilt.operators import _channel_parts, as_operator

    kind, gain, counting = _route(scheme), scheme.gain, scheme.kind == "counting"
    w = np.array(rho0.matrix)
    path, traces = [w], [1.0]
    for k in range(increments.size):
        t, prefix = k * dt, increments[:k]
        if law is None:
            h, parts = model.hamiltonian, model.single_channel_parts(scheme.phase)
        else:
            h, _ = law.hamiltonian_at(t, prefix)
            parts = model.single_channel_parts(scheme.phase)
            if law.channel_map is not None:
                parts = _channel_parts(as_operator(law.channel_map(t, prefix), "L_t"), scheme.phase)
        lw, jumped, commutator, damping = _reference_drift_terms(w, _reference_bind(h, parts))
        if noise is None:
            dy = float(increments[k])
        else:
            known = _reference_real_trace(jumped if counting else lw)
            dy = increments[k] = 2.0 * known * dt + noise[k] if not counting else 1.0 * (noise[k] < known * dt)
        w, tr = reference_kernel(w, lw, jumped, dy, dt, commutator, damping, kind, gain, normalized)
        path.append(w)
        traces.append(tr)
    return np.array(path), None if normalized else np.array(traces)


# --- CSV I/O before one format call per table -------------------------------
#
# The writers and the reader as they stood when every row was formatted and
# parsed by its own Python statements. The writers are the byte-level
# reference for the table writers; the reader is the reference for every
# refusal's type, message and line, except where it was wrong: it accepted a
# NaN time column, and numbered rows as if blank lines were not there.


def _reference_write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_write_record(record, path, config_hash="-"):
    from belfilt.recordio import RECORD_FORMAT, _fmt, _metadata_lines

    scheme = record.scheme
    lines = _metadata_lines(
        RECORD_FORMAT,
        {
            "config_hash": config_hash,
            "seed": record.seed,
            "scheme": scheme.kind,
            "kappa": _fmt(scheme.kappa),
            "phase": _fmt(scheme.phase),
            "dt": _fmt(record.dt),
            "steps": record.steps,
        },
    )
    lines.append("t,dY")
    for t, dy in zip(record.times(), record.increments):
        lines.append(f"{_fmt(t)},{_fmt(dy)}")
    _reference_write_lines(path, lines)


def reference_read_record(path):
    import math

    from belfilt.errors import RecordFormatError
    from belfilt.filters import COUNTING, MeasurementScheme
    from belfilt.recordio import RECORD_FORMAT, _parse_metadata
    from belfilt.trajectories import ObservationRecord

    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    meta, header_idx, _ = _parse_metadata(lines)
    if meta.get("format") != RECORD_FORMAT:
        raise RecordFormatError(f"not a record file (format {meta.get('format')!r})")
    if lines[header_idx].strip() != "t,dY":
        raise RecordFormatError("expected header 't,dY'", line=header_idx + 1)
    for key in ("scheme", "dt", "steps", "seed", "kappa", "phase"):
        if key not in meta:
            raise RecordFormatError(f"missing metadata key {key!r}")
    try:
        dt = float(meta["dt"])
        steps = int(meta["steps"])
        seed = int(meta["seed"])
        kappa = float(meta["kappa"])
        phase = float(meta["phase"])
    except ValueError as exc:
        raise RecordFormatError(f"malformed metadata value: {exc}") from exc
    scheme = MeasurementScheme(meta["scheme"], kappa, phase)
    rows = [line for line in lines[header_idx + 1 :] if line.strip()]
    if len(rows) != steps:
        raise RecordFormatError(f"declared steps = {steps} but found {len(rows)} data rows")
    increments = np.empty(steps)
    counting = scheme.kind == COUNTING
    for k, row in enumerate(rows):
        line_no = header_idx + 2 + k
        parts = row.split(",")
        if len(parts) != 2:
            raise RecordFormatError("expected two columns t,dY", line=line_no)
        try:
            t_val = float(parts[0])
            dy = float(parts[1])
        except ValueError as exc:
            raise RecordFormatError(f"non-numeric value: {exc}", line=line_no) from exc
        if not math.isfinite(dy):
            raise RecordFormatError("non-finite increment", line=line_no)
        expected_t = (k + 1) * dt
        if abs(t_val - expected_t) > 1e-6 * dt:
            raise RecordFormatError(f"time column {t_val} does not match step grid value {expected_t}", line=line_no)
        if counting and dy not in (0.0, 1.0):
            raise RecordFormatError(f"counting increment {dy} is not 0 or 1", line=line_no)
        increments[k] = dy
    return ObservationRecord(scheme, dt, increments, seed=seed)


def reference_write_path_csv(path, times, expectations, likelihoods=None, extra_meta=None):
    from belfilt.recordio import PATH_FORMAT, _fmt, _metadata_lines

    names = list(expectations)
    columns = ["t"]
    for name in names:
        columns.append(f"re_{name}")
        columns.append(f"im_{name}")
    if likelihoods is not None:
        columns.append("likelihood")
    lines = _metadata_lines(PATH_FORMAT, dict(extra_meta or {}))
    lines.append(",".join(columns))
    for idx, t in enumerate(times):
        row = [_fmt(t)]
        for name in names:
            val = expectations[name][idx]
            row.append(_fmt(val.real))
            row.append(_fmt(val.imag))
        if likelihoods is not None:
            row.append(_fmt(likelihoods[idx]))
        lines.append(",".join(row))
    _reference_write_lines(path, lines)


def reference_write_ensemble_csv(path, summary, extra_meta=None):
    from belfilt.recordio import ENSEMBLE_FORMAT, _fmt, _metadata_lines

    names = list(summary.means)
    columns = ["t"]
    for name in names:
        columns += [f"mean_re_{name}", f"mean_im_{name}", f"stderr_re_{name}", f"stderr_im_{name}"]
    meta = {"n_trajectories": summary.n_trajectories}
    meta.update(extra_meta or {})
    lines = _metadata_lines(ENSEMBLE_FORMAT, meta)
    lines.append(",".join(columns))
    for idx, t in enumerate(summary.times):
        row = [_fmt(t)]
        for name in names:
            row.append(_fmt(summary.means[name][idx].real))
            row.append(_fmt(summary.means[name][idx].imag))
            row.append(_fmt(summary.stderrs_re[name][idx]))
            row.append(_fmt(summary.stderrs_im[name][idx]))
        lines.append(",".join(row))
    _reference_write_lines(path, lines)


def reference_write_master_csv(path, times, expectations, extra_meta=None):
    from belfilt.recordio import MASTER_FORMAT, _fmt, _metadata_lines

    names = list(expectations)
    columns = ["t"]
    for name in names:
        columns += [f"re_{name}", f"im_{name}"]
    lines = _metadata_lines(MASTER_FORMAT, dict(extra_meta or {}))
    lines.append(",".join(columns))
    for idx, t in enumerate(times):
        row = [_fmt(t)]
        for name in names:
            val = expectations[name][idx]
            row += [_fmt(val.real), _fmt(val.imag)]
        lines.append(",".join(row))
    _reference_write_lines(path, lines)

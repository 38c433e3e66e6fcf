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


def reference_semigroup_path(rho0, model, times):
    """exp(t L') rho0 at the given times, point by point: on a uniform grid
    from 0, one propagator step and one Hermitian part per point; elsewhere
    semigroup_evolve at each time."""
    from scipy.linalg import expm

    from belfilt.operators import DensityState, adjoint_superoperator, semigroup_evolve

    if not isinstance(rho0, DensityState):
        rho0 = DensityState(rho0)
    ts = np.asarray(times, dtype=float)
    n = model.dim
    out = np.empty((ts.size, n, n), dtype=complex)
    diffs = np.diff(ts)
    uniform = ts[0] == 0.0 and ts.size > 1 and np.allclose(diffs, diffs[0], rtol=1e-12, atol=0.0)
    if not uniform:
        for k, t in enumerate(ts):
            out[k] = semigroup_evolve(rho0, model, t).matrix
        return out
    step = expm(diffs[0] * adjoint_superoperator(model))
    vec = rho0.matrix.reshape(-1).copy()
    out[0] = rho0.matrix
    for k in range(1, ts.size):
        vec = step @ vec
        m = vec.reshape(n, n)
        out[k] = 0.5 * (m + dag(m))
    return out

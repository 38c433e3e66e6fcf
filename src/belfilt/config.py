"""Run configuration: a flat JSON file with documented keys.

Keys (matrices are sparse entry lists ``[[row, col, re, im], ...]``):

    dim                 Hilbert space dimension (int >= 1)
    hamiltonian         Hermitian system Hamiltonian
    channels            list of coupling matrices (filters need exactly one)
    rho0                initial density matrix
    scheme              "homodyne" | "imperfect" | "counting"
    kappa               corrupting-noise strength (imperfect only, default 0)
    phase               quadrature phase (default 0)
    dt                  step size (> 0)
    T                   time horizon (> 0)
    seed                base seed (unsigned 64-bit int, default 0)
    n_trajectories      ensemble size (default 1)
    observables         {name: sparse entries} expectation outputs
    control_expression  optional feedback law over t, Y, ma(Y, window)
    control_h1          control Hamiltonian (required with control_expression)
    filter_kind         "auto" | "bks" | "zakai" for the filter command

Validation errors name the offending key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .filters import ControlLaw, MeasurementScheme
from .operators import DensityState, SystemModel, _finite_real, _require_integer
from .trajectories import _require_seed

_KNOWN_KEYS = {
    "dim",
    "hamiltonian",
    "channels",
    "rho0",
    "scheme",
    "kappa",
    "phase",
    "dt",
    "T",
    "seed",
    "n_trajectories",
    "observables",
    "control_expression",
    "control_h1",
    "filter_kind",
}


def matrix_from_entries(entries, dim: int, name: str) -> np.ndarray:
    """Dense matrix from a sparse (row, col, re, im) list: integer indices
    (`_require_integer`) and finite real parts (`_finite_real`)."""
    out = np.zeros((dim, dim), dtype=complex)
    if not isinstance(entries, list):
        raise ValidationError(f"{name}: expected a list of [row, col, re, im] entries")
    seen = set()
    for i, entry in enumerate(entries):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 4):
            raise ValidationError(f"{name}: entry {i} must be [row, col, re, im]")
        row, col, re, im = entry
        where = f"{name}: entry {i}"
        row, col = _require_integer(row, f"{where}: row"), _require_integer(col, f"{where}: col")
        if not (0 <= row < dim and 0 <= col < dim):
            raise ValidationError(f"{where}: index ({row}, {col}) out of range for dim {dim}")
        if (row, col) in seen:
            raise ValidationError(f"{where}: duplicate index ({row}, {col})")
        seen.add((row, col))
        # `where` is a format argument, not part of the format: an observable's name may hold braces
        re = _finite_real(re, "{1}: re: {0}", where)
        out[row, col] = re + 1j * _finite_real(im, "{1}: im: {0}", where)
    return out


def matrix_to_entries(matrix: np.ndarray) -> list:
    out = []
    for row in range(matrix.shape[0]):
        for col in range(matrix.shape[1]):
            v = matrix[row, col]
            if v != 0:
                out.append([row, col, float(v.real), float(v.imag)])
    return out


@dataclass(frozen=True)
class RunConfig:
    dim: int
    hamiltonian: np.ndarray
    channels: tuple
    rho0: DensityState
    scheme: MeasurementScheme
    dt: float
    horizon: float
    seed: int
    n_trajectories: int
    observables: dict
    control_expression: str | None
    control_h1: np.ndarray | None
    filter_kind: str
    config_hash: str

    def model(self) -> SystemModel:
        return SystemModel(self.hamiltonian, self.channels)

    def law(self) -> ControlLaw | None:
        if self.control_expression is None:
            return None
        return ControlLaw.from_expression(self.control_expression, self.hamiltonian, self.control_h1)

    def require_single_channel(self) -> None:
        if len(self.channels) != 1:
            raise ValidationError(f"channels: filtering requires exactly one channel, got {len(self.channels)}")


def _require_positive(raw: dict, key: str, default=None, integer=False):
    """raw[key], or `default` when absent, as a positive integer
    (`_require_integer`) or finite real (`_finite_real`)."""
    if key not in raw:
        if default is None:
            raise ValidationError(f"{key}: missing required key")
        return default
    val = _require_integer(raw[key], key) if integer else _finite_real(raw[key], "{1}: {0}", key)
    if val <= 0:
        raise ValidationError(f"{key}: must be positive, got {val!r}")
    return val


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ValidationError("config: top level must be an object")
    for key in raw:
        if key not in _KNOWN_KEYS:
            raise ValidationError(f"{key}: unknown config key")

    dim = _require_positive(raw, "dim", integer=True)
    dt = _require_positive(raw, "dt")
    horizon = _require_positive(raw, "T")
    seed = _require_seed(raw.get("seed", 0))
    n_traj = _require_positive(raw, "n_trajectories", default=1, integer=True)

    if "hamiltonian" not in raw:
        raise ValidationError("hamiltonian: missing required key")
    hamiltonian = matrix_from_entries(raw["hamiltonian"], dim, "hamiltonian")

    channels_raw = raw.get("channels", [])
    if not isinstance(channels_raw, list):
        raise ValidationError("channels: expected a list of matrices")
    channels = tuple(matrix_from_entries(c, dim, f"channels[{i}]") for i, c in enumerate(channels_raw))

    if "rho0" not in raw:
        raise ValidationError("rho0: missing required key")
    rho0 = matrix_from_entries(raw["rho0"], dim, "rho0")
    try:
        rho0 = DensityState(rho0)
    except ValidationError as exc:
        raise ValidationError(f"rho0: {exc}") from exc

    kind = raw.get("scheme")
    if kind is None:
        raise ValidationError("scheme: missing required key")
    scheme = MeasurementScheme(kind, raw.get("kappa", 0.0), raw.get("phase", 0.0))

    observables_raw = raw.get("observables", {})
    if not isinstance(observables_raw, dict):
        raise ValidationError("observables: expected an object of name -> entries")
    observables = {
        str(name): matrix_from_entries(entries, dim, f"observables[{name}]")
        for name, entries in observables_raw.items()
    }

    control_expression = raw.get("control_expression")
    control_h1 = None
    if control_expression is not None:
        if not isinstance(control_expression, str):
            raise ValidationError("control_expression: expected a string")
        if "control_h1" not in raw:
            raise ValidationError("control_h1: required when control_expression is set")
        control_h1 = matrix_from_entries(raw["control_h1"], dim, "control_h1")
    elif "control_h1" in raw:
        raise ValidationError("control_h1: set without control_expression")

    filter_kind = raw.get("filter_kind", "auto")
    if filter_kind not in ("auto", "bks", "zakai"):
        raise ValidationError(f"filter_kind: expected auto, bks or zakai, got {filter_kind!r}")

    # Validate the model eagerly so errors carry the config key.
    SystemModel(hamiltonian, channels)
    if control_expression is not None:
        ControlLaw.from_expression(control_expression, hamiltonian, control_h1)

    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()

    return RunConfig(
        dim=dim,
        hamiltonian=hamiltonian,
        channels=channels,
        rho0=rho0,
        scheme=scheme,
        dt=dt,
        horizon=horizon,
        seed=seed,
        n_trajectories=n_traj,
        observables=observables,
        control_expression=control_expression,
        control_h1=control_h1,
        filter_kind=filter_kind,
        config_hash=digest,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"config: cannot read {path}: {exc}") from exc
    except ValueError as exc:  # json's decode errors, and its refusal of an int past 4300 digits
        raise ValidationError(f"config: invalid JSON in {path}: {exc}") from exc
    return config_from_dict(raw)

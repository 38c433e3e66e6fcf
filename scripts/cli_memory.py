#!/usr/bin/env python3
"""Print the peak resident memory of CLI simulate, filter and master runs.

Each run is a fresh Python process that calls `belfilt.cli.run` once and
reports its own `ru_maxrss`, with one BLAS thread.  At n = 2 the run takes
configs/qubit_homodyne.json with T raised to the step count; at n = 8 a
seeded random imperfect-homodyne model (as the benchmark's record-pipeline
builds one).  filter replays the record that simulate wrote (bks, then
zakai with its likelihood column), and master evolves the same config.

    PYTHONPATH=src python3 scripts/cli_memory.py                 # n = 2 and 8
    PYTHONPATH=src python3 scripts/cli_memory.py --dims 2 --steps 50000 400000

By default n = 2 runs at 50 000 and 400 000 steps and n = 8 at 20 000 and
160 000.  Each row prints the peak MB at every step count and the growth in
bytes a step between the first and the last.  A run that exits non-zero is
marked with its exit code; filter then has no record to replay.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_STEPS = {2: (50_000, 400_000), 8: (20_000, 160_000)}
CHILD = """
import resource, sys
from belfilt.cli import run
code = run(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def config(dim: int, steps: int) -> dict:
    """The run's configuration at `dim`, dt = 1e-3, over `steps` steps."""
    if dim == 2:
        raw = json.loads((ROOT / "configs" / "qubit_homodyne.json").read_text(encoding="utf-8"))
    else:
        from belfilt.config import matrix_to_entries
        from belfilt.operators import random_density, random_hermitian, random_model

        rng = np.random.default_rng(dim)
        model = random_model(dim, rng, scale=0.5)
        rho0 = random_density(dim, rng).mix_with_identity(0.25)
        raw = {
            "dim": dim,
            "hamiltonian": matrix_to_entries(model.hamiltonian),
            "channels": [matrix_to_entries(model.channel)],
            "rho0": matrix_to_entries(rho0.matrix),
            "scheme": "imperfect",
            "kappa": 0.5,
            "seed": 1,
            "observables": {"h": matrix_to_entries(random_hermitian(dim, rng)),
                            "d": matrix_to_entries(np.diag(np.arange(dim, dtype=float)))},
        }
    return dict(raw, dt=1e-3, T=steps * 1e-3)


def peak(argv: list) -> tuple[int, float]:
    """(exit code, peak RSS in MB) of one fresh process running the CLI."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", CHILD, *map(str, argv)], env=env, capture_output=True, text=True,
                          check=True)
    code, kib = done.stdout.split()[-2:]
    return int(code), int(kib) / 1024.0


def measure(dim: int, steps: int, work: Path) -> dict:
    """Peak MB (or the exit code of a failed run) of each command."""
    here = work / f"n{dim}-{steps}"
    here.mkdir()
    paths = {}
    for kind in ("bks", "zakai"):
        paths[kind] = here / f"{kind}.json"
        paths[kind].write_text(json.dumps(dict(config(dim, steps), filter_kind=kind)), encoding="utf-8")
    runs = {"simulate": ["simulate", "--config", paths["bks"], "--out", here / "sim"]}
    for kind in ("bks", "zakai"):
        runs[f"filter {kind}"] = ["filter", "--config", paths[kind], "--record", here / "sim" / "record.csv",
                                  "--out", here / kind]
    runs["master"] = ["master", "--config", paths["bks"], "--out", here / "master"]
    out = {}
    for name, argv in runs.items():
        if name.startswith("filter") and not (here / "sim" / "record.csv").exists():
            out[name] = None
            continue
        code, mb = peak(argv)
        out[name] = mb if code == 0 else f"exit {code}"
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 8])
    parser.add_argument("--steps", type=int, nargs="+", help="step counts at every dimension")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        for dim in args.dims:
            counts = args.steps or DEFAULT_STEPS.get(dim, DEFAULT_STEPS[8])
            results = [measure(dim, steps, Path(scratch)) for steps in counts]
            print(f"n = {dim}: peak RSS (MB) at " + ", ".join(f"{s} steps" for s in counts)
                  + "; growth (bytes a step)")
            for name in results[0]:
                values = [r[name] for r in results]
                cells = ["-" if v is None else v if isinstance(v, str) else f"{v:.1f}" for v in values]
                first, last = values[0], values[-1]
                growth = ((last - first) * 2**20 / (counts[-1] - counts[0])
                          if len(counts) > 1 and all(isinstance(v, float) for v in (first, last)) else None)
                print(f"  {name:<14}" + "".join(f"{c:>10}" for c in cells)
                      + ("" if growth is None else f"{growth:>10.0f}"))


if __name__ == "__main__":
    main()

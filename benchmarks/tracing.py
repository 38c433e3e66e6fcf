"""Layer tracing for the benchmark, installed from outside the package.

`install` replaces public functions at the module attribute their caller
looks them up by (for example ``belfilt.cli.simulate_homodyne``, the step
functions as ``belfilt.trajectories`` sees them, ``belfilt.filters.SystemModel``)
with timing wrappers.  Nothing under ``src/`` changes, and `uninstall`
restores the originals.

Wrappers record only while a job is open (`Tracer.begin_job`); calls made
by the benchmark's output checks pass straight through.  Calls of the
per-step functions are aggregated as count, total and self time per key;
every other call is also kept as a span (name, start, end, parent, job id)
in memory and written out once, when the benchmark ends.  Self time is a
call's duration minus the time covered by its traced children.
"""

from __future__ import annotations

import os
import statistics
import time

perf = time.perf_counter

# Layer that each traced name belongs to; shares are self time per layer.
LAYERS = ("filters", "trajectories", "operators", "recordio", "config", "cli", "verify", "bench")

# Outermost calls of these count as one filter step each.
_STEP_NAMES = {
    "filters.bks_step_homodyne",
    "filters.zakai_step_homodyne",
    "filters.bks_step_counting",
    "filters.zakai_step_counting",
    "filters.diffusive_filter_step",
    "filters.filter_step",
    "filters.feedback_step",
}


class Stat:
    """Aggregate of every traced call sharing one key."""

    __slots__ = ("layer", "calls", "total", "self", "below_filters", "work")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.below_filters = 0.0  # time in outermost filters calls beneath
        self.work = 0.0  # steps, rows or points handled, for per-unit rates


class Tracer:
    """Spans and per-key aggregates of the traced calls of one run."""

    def __init__(self):
        self.job = None
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.feedback_calls: list[tuple[int, float]] = []  # (record position, seconds)
        self.counters = {"steps": 0, "model_builds": 0, "jumps": 0, "bytes_written": 0}
        self.job_seconds = 0.0
        # Each open frame: [child seconds, outermost-filters seconds, name, layer].
        self._stack: list[list] = []
        self._installed: list[tuple] = []

    # --- jobs -------------------------------------------------------------

    def begin_job(self, job_id: str) -> None:
        self.job = job_id
        self._stack = [[0.0, 0.0, "job", "bench"]]
        self._job_start = perf()

    def end_job(self) -> None:
        end = perf()
        frame = self._stack.pop()
        duration = end - self._job_start
        self.job_seconds += duration
        stat = self.stats.setdefault("bench.job", Stat("bench"))
        stat.calls += 1
        stat.total += duration
        stat.self += duration - frame[0]
        self.spans.append(("job", self._job_start, end, None, self.job))
        self.job = None

    def reset_aggregates(self) -> None:
        """Forget aggregates (after the traced set-up); spans are kept."""
        self.stats.clear()
        self.feedback_calls.clear()
        self.counters = dict.fromkeys(self.counters, 0)
        self.job_seconds = 0.0

    # --- wrappers ---------------------------------------------------------

    def wrap(self, name, layer, fn, key=None, work=None, after=None, keep_span=True):
        """Timing wrapper around `fn`.

        key(args, kwargs, result) refines the aggregate key (dimension,
        filter kind); work(...) gives the units handled by the call;
        after(...) updates counters.  keep_span=False aggregates only.
        """
        tracer = self
        is_step = name in _STEP_NAMES
        is_filters = layer == "filters"
        missing = object()

        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1]
            frame = [0.0, 0.0, name, layer]
            stack.append(frame)
            result = missing
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                parent[0] += duration
                parent[1] += duration if is_filters else frame[1]
                ok = result is not missing
                k = key(args, kwargs, result) if key is not None and ok else name
                stat = tracer.stats.get(k)
                if stat is None:
                    stat = tracer.stats[k] = Stat(layer)
                stat.calls += 1
                stat.total += duration
                stat.self += duration - frame[0]
                stat.below_filters += frame[1]
                if work is not None and ok:
                    stat.work += work(args, kwargs, result)
                if is_step and parent[3] != "filters":
                    tracer.counters["steps"] += 1
                if after is not None and ok:
                    after(tracer, args, kwargs, result, duration)
                if keep_span:
                    tracer.spans.append((k, start, end, parent[2], tracer.job))

        traced.__wrapped__ = fn
        return traced

    def patch(self, owners, attr, name, layer, **options) -> None:
        """Wrap owners[0].attr once and install the wrapper on every owner
        that holds the same object under that name."""
        original = getattr(owners[0], attr)
        wrapped = self.wrap(name, layer, original, **options)
        for owner in owners:
            if getattr(owner, attr, None) is original:
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "job": j} for n, s, e, p, j in self.spans
            ],
            "aggregates": {
                k: {"layer": s.layer, "calls": s.calls, "total_s": s.total, "self_s": s.self, "work": s.work}
                for k, s in sorted(self.stats.items())
            },
            "counters": dict(self.counters),
        }


# --- what is traced where ---------------------------------------------------


def _state_dim(args, kwargs, result):
    return args[0].matrix.shape[0]


def _model_dim(args, kwargs, result):
    return args[0].dim


def _suffixed(name, dim_of):
    return lambda args, kwargs, result: f"{name}.n{dim_of(args, kwargs, result)}"


def _count_build(tracer, args, kwargs, result, duration):
    tracer.counters["model_builds"] += 1


def _count_jumps(tracer, args, kwargs, result, duration):
    tracer.counters["jumps"] += int(result[0].increments.sum())


def _feedback_position(tracer, args, kwargs, result, duration):
    tracer.feedback_calls.append((len(args[4]), duration))


def _bytes_of(path_index):
    def after(tracer, args, kwargs, result, duration):
        tracer.counters["bytes_written"] += os.path.getsize(args[path_index])

    return after


def _replay_key(args, kwargs, result):
    return f"trajectories.replay_record.{result.kind}.n{args[1].dim}"


def install(tracer: Tracer) -> None:
    """Wrap every traced public function of belfilt at its call-site attribute."""
    import belfilt.cli as cli
    import belfilt.conditioning as conditioning
    import belfilt.config as config
    import belfilt.filters as filters
    import belfilt.fock as fock
    import belfilt.ito as ito
    import belfilt.trajectories as trajectories
    import belfilt.verify as verify

    # filters: steps as trajectories and filters look them up
    for fn in ("bks_step_homodyne", "zakai_step_homodyne", "bks_step_counting", "zakai_step_counting",
               "diffusive_filter_step", "filter_step"):
        name = f"filters.{fn}"
        tracer.patch((filters, trajectories), fn, name, "filters", key=_suffixed(name, _state_dim), keep_span=False)
    tracer.patch((filters, trajectories), "feedback_step", "filters.feedback_step", "filters",
                 after=_feedback_position, keep_span=False)
    tracer.patch((filters.ControlLaw,), "hamiltonian_at", "filters.control", "filters", keep_span=False)
    tracer.patch((cli, trajectories), "path_health", "filters.path_health", "filters",
                 work=lambda a, k, r: len(a[0]))

    # operators: model construction on the feedback and config paths, master reference
    tracer.patch((filters, config), "SystemModel", "operators.SystemModel", "operators",
                 after=_count_build, keep_span=False)
    tracer.patch((cli,), "semigroup_path", "operators.semigroup_path", "operators",
                 key=lambda a, k, r: f"operators.semigroup_path.n{a[1].dim}", work=lambda a, k, r: len(a[2]))

    # trajectories: as the CLI and ensemble_average look them up
    steps_of = lambda a, k, r: r[0].steps  # noqa: E731
    for fn, after in (("simulate_homodyne", None), ("simulate_counting", _count_jumps)):
        name = f"trajectories.{fn}"
        tracer.patch((cli, trajectories), fn, name, "trajectories",
                     key=_suffixed(name, _model_dim), work=steps_of, after=after)
    tracer.patch((cli, trajectories), "ensemble_average", "trajectories.ensemble_average", "trajectories",
                 key=_suffixed("trajectories.ensemble_average", _model_dim),
                 work=lambda a, k, r: a[3] * (len(r.times) - 1))
    tracer.patch((cli,), "replay_record", "trajectories.replay_record", "trajectories",
                 key=_replay_key, work=lambda a, k, r: len(r.times) - 1)

    # recordio: as the CLI looks it up
    tracer.patch((cli,), "write_record", "recordio.write_record", "recordio",
                 work=lambda a, k, r: a[0].steps, after=_bytes_of(1))
    tracer.patch((cli,), "read_record", "recordio.read_record", "recordio", work=lambda a, k, r: r.steps)
    tracer.patch((cli,), "write_path_csv", "recordio.write_path_csv", "recordio",
                 work=lambda a, k, r: len(a[1]), after=_bytes_of(0))
    tracer.patch((cli,), "write_ensemble_csv", "recordio.write_ensemble_csv", "recordio",
                 work=lambda a, k, r: len(a[1].times), after=_bytes_of(0))
    tracer.patch((cli,), "write_master_csv", "recordio.write_master_csv", "recordio",
                 work=lambda a, k, r: len(a[1]), after=_bytes_of(0))

    # config, cli and verify (conditioning, fock and ito as verify uses them)
    tracer.patch((cli, config), "load_config", "config.load_config", "config")
    tracer.patch((cli,), "run", "cli.run", "cli", key=lambda a, k, r: f"cli.{a[0][0]}")
    tracer.patch((verify,), "run_all", "verify.run_all", "verify")
    for module in (conditioning, fock, ito):
        short = module.__name__.rsplit(".", 1)[1]
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or isinstance(value, type) or getattr(value, "__module__", None) != module.__name__:
                continue
            if callable(value):
                tracer.patch((module, verify), attr, f"{short}.{attr}", "verify", keep_span=False)


# --- per-layer metrics -------------------------------------------------------

# Filter step functions and the dimensions the workloads run them at.
FILTER_STEPS = (
    ("bks_step_homodyne", (2,)),
    ("zakai_step_homodyne", (2, 4, 8)),
    ("bks_step_counting", (2,)),
    ("zakai_step_counting", (2,)),
    ("diffusive_filter_step", (2, 4, 8)),
)
# Trajectory loops: (traced name, rate name, dimensions).
TRAJECTORY_LOOPS = (
    ("simulate_homodyne", "us_per_step", (2, 4, 8)),
    ("simulate_counting", "us_per_step", (2,)),
    ("replay_record.bks", "us_per_step", (2, 8)),
    ("replay_record.zakai", "us_per_step", (2, 8)),
    ("ensemble_average", "us_per_traj_step", (2, 4)),
)
RECORDIO = ("write_record", "read_record", "write_path_csv", "write_ensemble_csv", "write_master_csv")
CLI_COMMANDS = ("simulate", "filter", "ensemble", "master", "verify")
VERIFY_MODULES = ("conditioning", "fock", "ito")


def _per_layer_names():
    out = []
    for fn, dims in FILTER_STEPS:
        for d in dims:
            out += [(f"filters.{fn}.us.n{d}", "us", "lower"), (f"filters.{fn}.calls.n{d}", "count", "higher")]
    out += [
        ("filters.feedback_step.us", "us", "lower"),
        ("filters.feedback_step.calls", "count", "higher"),
        ("filters.feedback_step.growth", "ratio", "lower"),
        ("filters.control.us", "us", "lower"),
        ("filters.path_health.us_per_matrix", "us", "lower"),
        ("operators.model_builds_per_step", "ratio", "lower"),
        ("operators.semigroup_path.us_per_point.n2", "us", "lower"),
        ("operators.semigroup_path.us_per_point.n8", "us", "lower"),
    ]
    for fn, rate, dims in TRAJECTORY_LOOPS:
        for d in dims:
            out += [(f"trajectories.{fn}.{rate}.n{d}", "us", "lower"), (f"trajectories.{fn}.self_frac.n{d}", "ratio", "lower")]
    out.append(("trajectories.jumps", "count", "higher"))
    out += [(f"recordio.{fn}.us_per_row", "us", "lower") for fn in RECORDIO]
    out.append(("recordio.bytes_written", "bytes", "higher"))
    out.append(("config.load_config.ms", "ms", "lower"))
    out += [(f"cli.{cmd}.ms", "ms", "lower") for cmd in CLI_COMMANDS]
    out.append(("cli.self_ms", "ms", "lower"))
    out.append(("verify.run_all.ms", "ms", "lower"))
    out += [(f"{module}.self_ms", "ms", "lower") for module in VERIFY_MODULES]
    out += [(f"{layer}.self_share", "ratio", "higher" if layer == "filters" else "lower") for layer in LAYERS]
    out.append(("tracing.overhead_frac", "ratio", "lower"))
    return out


# (name, unit, better); BENCHMARK.json lists the same metrics in this order.
PER_LAYER = _per_layer_names()


def _per_call_us(stat: Stat | None, self_time: bool = True) -> float:
    if stat is None or stat.calls == 0:
        return 0.0
    return 1e6 * (stat.self if self_time else stat.total) / stat.calls


def _per_unit_us(stat: Stat | None) -> float:
    if stat is None or stat.work == 0:
        return 0.0
    return 1e6 * stat.total / stat.work


def _self_frac(stat: Stat | None) -> float:
    """Share of a loop's time not spent inside filters calls."""
    if stat is None or stat.total == 0:
        return 0.0
    return (stat.total - stat.below_filters) / stat.total


def feedback_growth(calls) -> float:
    """Median call time in the last tenth of the horizon over the first tenth."""
    if not calls:
        return 0.0
    horizon = max(position for position, _ in calls) + 1
    first = [s for p, s in calls if p < horizon / 10]
    last = [s for p, s in calls if p >= horizon * 9 / 10]
    if not first or not last:
        return 0.0
    return statistics.median(last) / statistics.median(first)


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER value; 0 where the workload does not reach the layer."""
    stats = tracer.stats
    out: dict[str, float] = {}
    for fn, dims in FILTER_STEPS:
        for d in dims:
            stat = stats.get(f"filters.{fn}.n{d}")
            out[f"filters.{fn}.us.n{d}"] = _per_call_us(stat)
            out[f"filters.{fn}.calls.n{d}"] = stat.calls if stat else 0
    feedback = stats.get("filters.feedback_step")
    out["filters.feedback_step.us"] = _per_call_us(feedback, self_time=False)
    out["filters.feedback_step.calls"] = feedback.calls if feedback else 0
    out["filters.feedback_step.growth"] = feedback_growth(tracer.feedback_calls)
    out["filters.control.us"] = _per_call_us(stats.get("filters.control"), self_time=False)
    out["filters.path_health.us_per_matrix"] = _per_unit_us(stats.get("filters.path_health"))
    steps = tracer.counters["steps"]
    out["operators.model_builds_per_step"] = tracer.counters["model_builds"] / steps if steps else 0.0
    for d in (2, 8):
        out[f"operators.semigroup_path.us_per_point.n{d}"] = _per_unit_us(stats.get(f"operators.semigroup_path.n{d}"))
    for fn, rate, dims in TRAJECTORY_LOOPS:
        for d in dims:
            stat = stats.get(f"trajectories.{fn}.n{d}")
            out[f"trajectories.{fn}.{rate}.n{d}"] = _per_unit_us(stat)
            out[f"trajectories.{fn}.self_frac.n{d}"] = _self_frac(stat)
    out["trajectories.jumps"] = tracer.counters["jumps"]
    for fn in RECORDIO:
        out[f"recordio.{fn}.us_per_row"] = _per_unit_us(stats.get(f"recordio.{fn}"))
    out["recordio.bytes_written"] = tracer.counters["bytes_written"]
    loads = [end - start for name, start, end, _, _ in tracer.spans if name == "config.load_config"]
    out["config.load_config.ms"] = 1e3 * statistics.fmean(loads) if loads else 0.0
    cli_calls = cli_self = 0.0
    for cmd in CLI_COMMANDS:
        stat = stats.get(f"cli.{cmd}")
        out[f"cli.{cmd}.ms"] = _per_call_us(stat, self_time=False) / 1e3
        if stat is not None:
            cli_calls += stat.calls
            cli_self += stat.self
    out["cli.self_ms"] = 1e3 * cli_self / cli_calls if cli_calls else 0.0
    run_all = stats.get("verify.run_all")
    out["verify.run_all.ms"] = _per_call_us(run_all, self_time=False) / 1e3
    verify_jobs = run_all.calls if run_all else 0
    for module in VERIFY_MODULES:
        own = sum(s.self for k, s in stats.items() if k.startswith(module + "."))
        out[f"{module}.self_ms"] = 1e3 * own / verify_jobs if verify_jobs else 0.0
    for layer in LAYERS:
        own = sum(s.self for s in stats.values() if s.layer == layer)
        out[f"{layer}.self_share"] = own / tracer.job_seconds if tracer.job_seconds else 0.0
    out["tracing.overhead_frac"] = overhead_frac
    return {name: float(out[name]) for name, _, _ in PER_LAYER}

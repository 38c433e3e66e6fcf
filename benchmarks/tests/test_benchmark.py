"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest benchmarks/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "benchmarks"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_metrics_the_code_reports():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
        if not trace:
            assert m["value"] > 0, name


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ensemble", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def pipeline_round(tmp_path_factory):
    work = tmp_path_factory.mktemp("pipeline")
    workload = workloads.RecordPipelineWorkload(7, workloads.SIZES["tiny"], ROOT, work)
    workload.setup()
    jobs = workload.round(0)
    results = [workloads.execute(job, f"r0.{i}") for i, job in enumerate(jobs[:3])]
    assert all(r.ok for r in results), [r.problems for r in results]
    return jobs


def _recheck(job) -> workloads.JobResult:
    """The runner's execute path on an output that is already on disk."""
    return workloads.execute(workloads.Job(job.kind, 0, lambda: workloads.CliOutcome(0, ""), job.check), "recheck")


def _flip_leading_digit(path: Path) -> None:
    """Change the leading digit of the first value after t in the last row,
    which changes the value itself (a 17th digit may not change the double)."""
    data = bytearray(path.read_bytes())
    start = data.index(b",", data.rindex(b"\n", 0, len(data) - 1)) + 1
    i = next(i for i in range(start, len(data)) if chr(data[i]) in "12345678")
    data[i] += 1
    path.write_bytes(bytes(data))


def test_flipped_byte_in_record_csv_is_a_failed_job(pipeline_round):
    simulate = pipeline_round[0]
    record_csv = simulate.outputs[0]
    assert _recheck(simulate).ok
    _flip_leading_digit(record_csv)
    result = _recheck(simulate)
    assert not result.ok
    assert "record.csv" in result.problems[0]


def test_flipped_byte_in_replayed_path_is_a_failed_job(pipeline_round):
    bks = pipeline_round[1]
    _flip_leading_digit(bks.outputs[0])
    result = _recheck(bks)
    assert result.problems == ["bks replay path.csv differs from simulate's path.csv"]


def test_unreadable_output_is_a_failed_job_not_a_crash(pipeline_round):
    zakai = pipeline_round[2]
    zakai.outputs[0].write_text("# format: garbage\n", encoding="utf-8")
    result = _recheck(zakai)
    assert not result.ok
    assert result.problems[0].startswith("check raised")


def test_scaled_times_follow_the_reference_and_set_up_does_not():
    # Two kinds, three rounds each, timed on a host twice as slow as the reference.
    results = [
        workloads.JobResult(f"r{r}.{k}", kind, seconds, steps, [], scale=0.5)
        for r in range(3)
        for k, (kind, seconds, steps) in enumerate((("a", 0.2 + 0.01 * r, 1000), ("b", 0.1, 0)))
    ]
    raw = run.end_to_end(results, [0.5], 60.0, scaled=False)
    scaled = run.end_to_end(results, [0.5], 60.0)
    assert raw["job_ms_p50"] == pytest.approx(1e3 * (0.21 + 0.1) / 2)
    assert raw["steps_per_s"] == pytest.approx(1000 / (0.21 + 0.1))
    assert raw["step_us_p50"] == pytest.approx(1e6 * 0.21 / 1000)
    for name in ("job_ms_p50", "job_ms_p90", "step_us_p50", "step_us_p99"):
        assert scaled[name] == pytest.approx(raw[name] / 2), name
    assert scaled["steps_per_s"] == pytest.approx(2 * raw["steps_per_s"])
    assert scaled["setup_s"] == raw["setup_s"] == 0.5


def test_job_that_raises_is_counted_failed():
    def boom():
        raise RuntimeError("no output")

    result = workloads.execute(workloads.Job("boom", 1, boom, lambda out: []), "boom")
    assert result.problems == ["raised RuntimeError: no output"]

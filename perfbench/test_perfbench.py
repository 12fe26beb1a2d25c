"""Smoke tests of the benchmark itself, at reduced scale.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_PROBE_S, HostClock, Stopwatch  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(*argv: str, cwd: Path = ROOT, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def _result(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_host_clock_scales_each_interval_by_the_probes_near_it():
    clock = HostClock()
    for at in (0.0, 0.1, 0.2, 0.3, 0.4):
        clock.record(at, REFERENCE_PROBE_S)
    for at in (10.0, 10.1, 10.2, 10.3, 10.4):
        clock.record(at, 2 * REFERENCE_PROBE_S)
    assert clock.scaled(0.5, 1.0) == pytest.approx(0.5)
    # Half-speed host: twice the wall time reads as the same scaled time.
    assert clock.scaled(10.5, 11.5) == pytest.approx(0.5)
    # No probe within the window: the nearest ones set the speed.
    assert clock.scaled(20.0, 21.0) == pytest.approx(0.5)


def test_stopwatch_leaves_probes_off_the_clock():
    clock = HostClock()
    watch = Stopwatch(clock)
    watch.resume()
    watch.probe(3)
    watch.pause()
    (first_start, first_end), (second_start, second_end) = watch.segments
    probes_s = second_start - first_end
    assert probes_s > 0
    span = second_end - first_start
    assert watch.raw_seconds() == pytest.approx(span - probes_s)
    assert watch.seconds() > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_end_to_end_metric_prints_with_unit_and_sample_count(workload):
    process = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke")
    result = _result(process)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "timed rounds" in process.stdout or "timed batches" in process.stdout
    for name, unit in END_TO_END.items():
        assert f"{name} " in process.stdout and f" {unit}\n" in process.stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_prints_every_layer_metric_and_attributes_the_wall_time(workload, tmp_path):
    spans_out = tmp_path / "spans.json"
    result = _result(
        _run("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "1", "--smoke",
             "--spans-out", str(spans_out))
    )
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == PER_LAYER
    assert metrics["trace.attributed_share"]["value"] >= 0.9
    assert metrics["generators.build_s"]["value"] > 0
    spans = json.loads(spans_out.read_text())
    assert spans[0]["name"] == "generators.build" and spans[0]["parent"] == -1
    assert all(span["end_s"] >= span["start_s"] for span in spans)
    # Each call is recorded once: no span nests inside a span of the same name.
    names = [span["name"] for span in spans]
    assert all(span["parent"] < 0 or names[span["parent"]] != span["name"] for span in spans)


@pytest.mark.parametrize("workload", ["evaluate-sqlite-strat-132k", "monitor-memory-ss"])
def test_a_wrong_estimate_is_caught(workload):
    result = _result(
        _run("--workload", workload, "--seed", "1", "--seconds", "1", "--smoke", "--inject-error")
    )
    assert result["correct"] is False
    assert result["failed"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_benchmark_report_equals_the_cli_report(workload):
    process = _run("--workload", workload, "--seed", "4", "--parity", "--smoke")
    assert process.returncode == 0, process.stderr
    assert "parity ok" in process.stdout


def test_run_writes_nothing_outside_its_checkout(tmp_path):
    home = tmp_path / "home"
    home.mkdir()
    env = {k: v for k, v in os.environ.items() if k not in ("XDG_CACHE_HOME", "REPRO_PLANNER_PROFILE")}
    env["HOME"] = str(home)
    result = _result(
        _run("--workload", "evaluate-sqlite-strat-132k", "--seed", "1", "--seconds", "1",
             "--smoke", env=env)
    )
    assert result["correct"] is True
    assert list(home.iterdir()) == []
    assert not (ROOT / ".perfbench-tmp").exists()


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    process = _run("--workload", "monitor-memory-ss", "--seed", "0", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert process.returncode != 0
    assert "correct" not in process.stdout

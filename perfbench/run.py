"""Whole-run benchmark of ``repro evaluate`` and ``repro monitor``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --parity

Each run repeats one workload, every repetition in a fresh child process
(``child.py``), until ``--seconds`` have passed and at least three
repetitions are done; it reports the median over repetitions.  Each child
gets its own temporary directory inside the checkout for sqlite files and
temp files, and an empty planner calibration profile, so runs cannot learn
from each other; the directory is removed when the child ends.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics of the
traced ones, plus ``trace.overhead_s`` (traced minus untraced wall time).

A run is correct when every repetition passes its correctness checks and
all repetitions produce the same trajectory digest and planner decision.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--parity`` instead runs one repetition and the ``repro`` command line the
workload mirrors, and checks that both print the same report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_PROBE_S  # noqa: E402
from workloads import WORKLOADS, percentile  # noqa: E402

MIN_REPS = 3
#: A run starts no repetition that could end after this many seconds.
BUDGET_S = 160.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "annotation_cost_h": "h",
    "peak_rss_mb": "MB",
}

_LAYER_NAMES = (
    "generators.build_s",
    "storage.convert_s",
    "labels.position_array_s",
    "sampling.stratify_s",
    "planner.plan_ms",
    "planner.shards",
    "sampling.executor_init_s",
    "sampling.step_ms_p50",
    "sampling.step_ms_p99",
    "sampling.execute_ms_p50",
    "sampling.draw_s",
    "sampling.draw_share",
    "sampling.rounds",
    "sampling.units",
    "sampling.tasks",
    "stats.estimate_us_p50",
    "labels.truth_s",
    "labels.truth_ms_p50",
    "labels.truth_share",
    "kg.apply_ms_p50",
    "evolving.base_eval_s",
    "evolving.apply_ms_p50",
    "evolving.apply_ms_p90",
    "core.static_run_ms",
    "cost.summary_ms",
    "cost.triples_annotated",
    "cost.entities_identified",
    "generators.self_s",
    "storage.self_s",
    "kg.self_s",
    "labels.self_s",
    "planner.self_s",
    "stratification.self_s",
    "sampling.self_s",
    "stats.self_s",
    "cost.self_s",
    "core.self_s",
    "evolving.self_s",
    "trace.wall_s",
    "trace.setup_share",
    "trace.attributed_share",
    "trace.overhead_s",
)


def _unit(name: str) -> str:
    if "_share" in name:
        return "ratio"
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us")):
        if name.endswith(suffix) or f"{suffix}_p" in name:
            return unit
    return "count"


PER_LAYER = {name: _unit(name) for name in _LAYER_NAMES}


class RepFailed(RuntimeError):
    """A child repetition exited with an error."""


def _run_child(args, extra: list[str], run_dir: str, deadline: float) -> dict:
    """Run ``child.py`` in its own session and temp directory; return its JSON."""
    rep_dir = tempfile.mkdtemp(dir=run_dir)
    env = dict(os.environ)
    env.update(
        TMPDIR=rep_dir,
        XDG_CACHE_HOME=rep_dir,
        REPRO_PLANNER_PROFILE=os.path.join(rep_dir, "planner.json"),
        PYTHONPATH=str(ROOT / "src"),
    )
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    if args.smoke:
        command.append("--smoke")
    if args.inject_error:
        command.append("--inject-error")
    spans = os.path.join(rep_dir, "spans.json")
    if "--trace" in extra:
        command += ["--spans-out", spans]
    process = subprocess.Popen(
        command, cwd=rep_dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RepFailed("repetition ran past the run's time budget") from None
    finally:
        # Reap anything the child left behind in its session (worker pools).
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if args.spans_out and os.path.exists(spans):
            shutil.copyfile(spans, args.spans_out)
        shutil.rmtree(rep_dir, ignore_errors=True)
    if process.returncode != 0:
        raise RepFailed(stderr.strip().splitlines()[-1] if stderr.strip() else "no output")
    return json.loads(stdout.strip().splitlines()[-1])


@contextlib.contextmanager
def _run_directory():
    """A fresh directory under ``.perfbench-tmp/`` in the checkout, removed afterwards."""
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=tmp_root)
    try:
        yield run_dir
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:  # another run still uses it
            pass


def _median(values) -> float:
    return float(statistics.median(values))


def _percentiles(results: list[dict]) -> tuple[float, float]:
    """p50 and p90 in ms over the timed operations of every repetition."""
    ops = [seconds for result in results for seconds in result["op_seconds"]]
    return percentile(ops, 50) * 1_000.0, percentile(ops, 90) * 1_000.0


def _consistency(results: list[dict]) -> dict[str, bool]:
    first = results[0]
    return {
        "digest_identical": all(r["digest"] == first["digest"] for r in results),
        "planner_decision_identical": all(r["decision"] == first["decision"] for r in results),
        "checks_passed": all(all(r["checks"].values()) for r in results),
    }


def _end_to_end(results: list[dict]) -> dict[str, float]:
    p50, p90 = _percentiles(results)
    return {
        "setup_s": _median(r["setup_s"] for r in results),
        "run_s": _median(r["run_s"] for r in results),
        "wall_s": _median(r["wall_s"] for r in results),
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "annotation_cost_h": results[0]["annotation_cost_h"],
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in results),
    }


def _describe(args, plain: list[dict], traced: list[dict], consistency: dict) -> None:
    """Human-readable lines before the JSON result."""
    first = plain[0]
    kind = "rounds" if WORKLOADS[args.workload].command == "evaluate" else "batches"
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced repetitions"
          + (f", {len(traced)} traced" if traced else ""))
    ops = sum(len(r["op_seconds"]) for r in plain)
    print(f"  op_ms_* samples: {ops} timed {kind} ({len(first['op_seconds'])} per repetition)")
    if kind == "batches":
        print(f"  update batches generated off the clock in "
              f"{_median(r['inputs_s'] for r in plain):.3f} s")
    decision = first["decision"]
    if decision:
        print(f"  planner: {decision['transport']}, {decision['shards']} shards — {decision['reason']}")
    else:
        print("  planner: not engaged (one-shard plan or object surface)")
    print("  host-speed probe ms per repetition (reference "
          f"{REFERENCE_PROBE_S * 1_000:g}): " + " ".join(f"{r['probe_ms']:.3f}" for r in plain))
    for name in ("setup_s", "run_s", "wall_s"):
        print(f"  {name} per repetition: " + " ".join(f"{r[name]:.4f}" for r in plain))
        print(f"  {name} per repetition, raw wall: "
              + " ".join(f"{r['raw'][name]:.4f}" for r in plain))
    print("  op_ms p50/p90 per repetition: "
          + " ".join("%.3f/%.3f" % _percentiles([r]) for r in plain))
    print(f"  trajectory digest: {first['digest']}")
    print(f"  estimate {first['estimate']:.6f}, truth {first['truth']:.6f}")
    for name, ok in {**consistency, **first["checks"]}.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")


def _measure(args) -> int:
    start = time.monotonic()
    deadline = start + BUDGET_S
    plain: list[dict] = []
    traced: list[dict] = []
    crashed: list[str] = []
    # A round is one untraced repetition, plus one traced one under --trace 1.
    min_rounds = 2 if (args.smoke or args.trace) else MIN_REPS
    rounds = 0
    longest = 0.0
    with _run_directory() as run_dir:
        while not (crashed and not plain):
            now = time.monotonic()
            if rounds >= min_rounds and now - start >= args.seconds:
                break
            if rounds and now + longest > deadline:
                break
            for extra, into in (([], plain), (["--trace"], traced))[: 1 + args.trace]:
                try:
                    into.append(_run_child(args, extra, run_dir, deadline + 15.0))
                except RepFailed as exc:
                    crashed.append(str(exc))
                    print(f"repetition failed: {exc}", file=sys.stderr)
            rounds += 1
            longest = max(longest, time.monotonic() - now)
    if not plain or (args.trace and not traced):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1

    everything = plain + traced
    consistency = _consistency(everything)
    _describe(args, plain, traced, consistency)
    if args.trace:
        values = {
            name: _median(r["layers"][name] for r in traced)
            for name in PER_LAYER
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = _median(r["wall_s"] for r in traced) - _median(
            r["raw"]["wall_s"] for r in plain
        )
        units = PER_LAYER
    else:
        values = _end_to_end(plain)
        units = END_TO_END
    attempted = sum(r["ops"] for r in everything) + len(crashed)
    failed = sum(r["failed"] for r in everything) + len(crashed)
    correct = all(consistency.values()) and not crashed and failed == 0
    for name, unit in units.items():
        print(f"  {name:<28} {values[name]:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


def _parity(args) -> int:
    """Check that the benchmark's report equals the CLI's for the same flags."""
    deadline = time.monotonic() + 900.0
    with _run_directory() as run_dir:
        bench = _run_child(args, [], run_dir, deadline)
        cli = _run_child(args, ["--cli"], run_dir, deadline)
    argv = " ".join(WORKLOADS[args.workload].cli_argv(args.seed, args.smoke))
    if cli["exit"] != 0 or bench["report"] != cli["report"]:
        print(f"parity FAILED for `repro {argv}`", file=sys.stderr)
        print("--- benchmark\n" + bench["report"], file=sys.stderr)
        print("--- cli\n" + cli["report"], file=sys.stderr)
        return 1
    print(f"parity ok: `repro {argv}` prints the benchmark's report "
          f"(estimate {bench['estimate']:.6f}, {bench['annotation_cost_h']:.2f} h)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parity", action="store_true", help="compare with the CLI's report")
    parser.add_argument("--smoke", action="store_true", help="reduced-scale inputs")
    parser.add_argument(
        "--inject-error", action="store_true",
        help="shift the checked estimate by 0.5 so the correctness checks must fail",
    )
    parser.add_argument("--spans-out", default=None, help="copy the last traced spans here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return _parity(args) if args.parity else _measure(args)


if __name__ == "__main__":
    sys.exit(main())

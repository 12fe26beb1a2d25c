"""The benchmark's workloads and one timed repetition of each.

Every workload mirrors what ``repro evaluate`` or ``repro monitor`` does for
one set of flags: it calls the same library functions in the same order and
formats the same report, with timers at the phase boundaries.

* **set-up** — everything before the first round or batch: dataset build,
  backend conversion, position label array, stratification, shard plan,
  executor or evaluator construction;
* **run** — first round to final estimate (``evaluate``), or base
  evaluation plus every update batch (``monitor``);
* **report** — planner profile update, the report-phase ground-truth pass
  and the printed report.

Benchmark-side work runs outside the timers: update batches are generated
from the workload seed before the run starts, and the per-operation
trajectory digest, the correctness checks and the host-speed probes
(``hostspeed.py``) run between timed operations.  Times are reported at the
reference host speed; the raw wall times are returned next to them.  An
operation is one sampling round (``evaluate``) or one update batch
(``monitor``; the base evaluation counts as batch 0).
"""

from __future__ import annotations

import hashlib
import math
import resource
import struct
import time
from dataclasses import dataclass

import numpy as np

from hostspeed import Stopwatch

CONFIDENCE = 0.95
#: Flags of the one ``repro evaluate`` / ``repro monitor`` path each command mirrors.
EVALUATE_BACKEND = "sqlite"
EVALUATE_DESIGN = "twcs-strat"
SECOND_STAGE_SIZE = 5
MONITOR_BACKEND = "memory"
MONITOR_EVALUATOR = "ss"
BATCH_FRACTION = 0.01
UPDATE_ACCURACY = 0.8
#: Host-speed probes run before set-up and after the report.
PROBE_BURST = 20
#: Sampling rounds between two host-speed probes.
ROUNDS_PER_PROBE = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the CLI flags it mirrors, at two scales.

    ``size`` is the MOVIE-like dataset scale (``--movie-scale``);
    ``smoke_*`` fields give the reduced-scale variant the benchmark's own
    tests run.
    """

    name: str
    command: str
    size: float
    smoke_size: float
    moe: float
    smoke_moe: float
    batches: int = 0
    smoke_batches: int = 0

    def scaled(self, smoke: bool) -> tuple[float, float, int]:
        """``(size, moe, batches)`` at full or smoke scale."""
        if smoke:
            return self.smoke_size, self.smoke_moe, self.smoke_batches
        return self.size, self.moe, self.batches

    def cli_argv(self, seed: int, smoke: bool) -> list[str]:
        """The ``repro`` command line this workload mirrors."""
        size, moe, batches = self.scaled(smoke)
        argv = [self.command, "--dataset", "movie", "--movie-scale", repr(size)]
        argv += ["--moe", repr(moe), "--seed", str(seed)]
        if self.command == "evaluate":
            argv += ["--backend", EVALUATE_BACKEND, "--design", EVALUATE_DESIGN]
            argv += ["-m", str(SECOND_STAGE_SIZE)]
        else:
            argv += ["--backend", MONITOR_BACKEND, "--evaluator", MONITOR_EVALUATOR]
            argv += ["--batches", str(batches), "--batch-fraction", repr(BATCH_FRACTION)]
            argv += ["--update-accuracy", repr(UPDATE_ACCURACY)]
        return argv


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="evaluate-sqlite-strat-132k",
            command="evaluate",
            size=0.05,
            smoke_size=0.005,
            moe=0.0025,
            smoke_moe=0.02,
        ),
        Workload(
            name="monitor-memory-ss",
            command="monitor",
            size=0.02,
            smoke_size=0.005,
            moe=0.05,
            smoke_moe=0.05,
            batches=100,
            smoke_batches=5,
        ),
    )
}


def build_dataset(workload: Workload, seed: int, smoke: bool):
    """The workload's labelled base graph, made from the workload seed."""
    from repro.generators.datasets import make_movie_like

    return make_movie_like(seed=seed, scale=workload.scaled(smoke)[0])


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation), or 0 for no values."""
    return float(np.percentile(values, q)) if values else 0.0


class _Digest:
    """SHA-256 over (units, estimate, std error, cost) per operation."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, units: int, value: float, std_error: float, cost_seconds: float) -> None:
        self._hash.update(struct.pack("<qddd", units, value, std_error, cost_seconds))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


class _RoundClock:
    """Times each round of the program's own ``SamplingRun.drive`` loop.

    It replaces ``run.step`` on the run instance with a thin wrapper, so
    ``drive`` calls it once per round.  A round runs from the end of the
    previous round's wrapper (or the start of ``drive``) to the end of its
    ``step``: the estimate, the MoE check and the draw.  The wrapper then
    adds the new state to the trajectory digest and, every
    ``ROUNDS_PER_PROBE`` rounds, probes the host, both off the clock.
    """

    def __init__(self, run, tracer, watch: Stopwatch, clock) -> None:
        self.digest = _Digest()
        self.rounds: list[tuple[float, float]] = []
        step = run.step

        def timed_step(*args, **kwargs):
            result = step(*args, **kwargs)
            watch.pause()
            self.rounds.append(watch.segments[-1])
            with tracer.suspended():
                state = run.estimate()
                self.digest.add(
                    state.num_units, state.value, state.std_error,
                    run.cost_summary().cost_seconds,
                )
            if len(self.rounds) % ROUNDS_PER_PROBE == 0:
                clock.probe()
            watch.resume()
            return result

        run.step = timed_step


def _plan_engine(graph, moe: float):
    """The CLI's ``--transport auto`` decision: ``(transport, decision, profile)``.

    The calibration profile comes from ``REPRO_PLANNER_PROFILE``, which the
    benchmark points at an empty per-repetition file.
    """
    from repro.sampling.planner import AdaptivePlanner, load_profile

    profile = load_profile(None)
    draws_hint = AdaptivePlanner.draws_for_target(moe, CONFIDENCE)
    decision = AdaptivePlanner(profile).plan(
        graph.backend.stats(), draws=draws_hint, shards=None, nodes=0, rpc_window=None
    )
    transport = AdaptivePlanner.build_transport(
        decision, nodes=[], secret=None, join_address=None
    )
    return transport, decision, profile


def _planned_shards(graph, moe: float) -> int:
    from repro.sampling.planner import AdaptivePlanner, plan_shards

    draws_hint = AdaptivePlanner.draws_for_target(moe, CONFIDENCE)
    return plan_shards(graph.backend.stats(), draws_hint)


def run_evaluate(
    workload: Workload, seed: int, smoke: bool, tracer, clock, inject_error: bool
) -> dict:
    """One ``repro evaluate`` run on the sharded engine, phase by phase."""
    from repro.core.config import EvaluationConfig
    from repro.generators.datasets import LabelledKG
    from repro.sampling.parallel import ParallelSamplingExecutor
    from repro.sampling.planner import save_profile
    from repro.sampling.stratification import stratify_by_size

    _, moe_target, _ = workload.scaled(smoke)
    clock.probe(PROBE_BURST)
    setup = Stopwatch(clock)
    setup.resume()
    with tracer.span("generators.build", "generators"):
        data = build_dataset(workload, seed, smoke)
    setup.probe()
    with tracer.span("storage.convert", "storage"):
        graph = data.graph.to_sqlite()
    setup.probe()
    data = LabelledKG(graph, data.oracle)
    with tracer.span("planner.plan", "planner"):
        shards = _planned_shards(graph, moe_target)
    if shards <= 1:
        raise RuntimeError(
            f"{workload.name}: the shard plan has one shard, so the CLI would take the "
            "classic single-stream path this workload does not mirror"
        )
    # Traced through the instrumented LabelOracle.as_position_array.
    labels = data.oracle.as_position_array(graph)
    setup.probe()
    config = EvaluationConfig(moe_target=moe_target, confidence_level=CONFIDENCE)
    with tracer.span("planner.plan", "planner"):
        transport, decision, profile = _plan_engine(graph, moe_target)
    with tracer.span("sampling.stratify", "stratification"):
        strata = stratify_by_size(graph, num_strata=4)
        strata_rows = [
            np.fromiter(
                (graph.entity_row(entity_id) for entity_id in stratum.entity_ids),
                dtype=np.int64,
                count=stratum.num_entities,
            )
            for stratum in strata
        ]
    setup.probe()
    with tracer.span("sampling.executor_init", "sampling"):
        executor = ParallelSamplingExecutor(
            graph, workers=None, num_shards=decision.shards, transport=transport,
            planner_decision=decision,
        )
        run = executor.run(
            "twcs",
            labels,
            seed=seed,
            second_stage_size=SECOND_STAGE_SIZE,
            strata=strata_rows,
            allocation="proportional",
        )
    setup.pause()
    clock.probe()

    run_watch = Stopwatch(clock)
    round_clock = _RoundClock(run, tracer, run_watch, clock)
    run_watch.resume()
    try:
        estimate, rounds = run.drive(config)
        cost = run.cost_summary()
    finally:
        executor.close()
    run_watch.pause()
    clock.probe()

    report = Stopwatch(clock)
    report.resume()
    with tracer.span("planner.observe", "planner"):
        profile.observe(
            decision.transport,
            draws=estimate.num_units,
            rounds=run.rounds,
            seconds=run_watch.raw_seconds(),
            workers=decision.workers,
            warm=decision.warm,
        )
        save_profile(profile, None)
    satisfied = estimate.num_units >= config.min_units and estimate.satisfies(
        config.moe_target, config.confidence_level
    )
    interval = estimate.confidence_interval(CONFIDENCE)
    moe = estimate.margin_of_error(CONFIDENCE)
    with tracer.span("labels.report_truth", "labels"):
        truth = data.true_accuracy
    text = "\n".join(
        [
            f"dataset            : {data.name}",
            f"design             : {EVALUATE_DESIGN} (m={SECOND_STAGE_SIZE}, "
            f"shards={run.plan.num_shards}, transport=auto:{decision.transport})",
            f"planner            : {decision.transport} — {decision.reason}",
            f"true accuracy      : {truth:.1%} (hidden from the estimator)",
            f"estimated accuracy : {estimate.value:.1%}",
            f"{CONFIDENCE:.0%} interval     : [{interval.lower:.1%}, {interval.upper:.1%}]",
            f"margin of error    : {moe:.3f} (target {moe_target})",
            f"sample units       : {estimate.num_units} ({rounds} rounds)",
            f"triples annotated  : {cost.triples_annotated}",
            f"entities identified: {cost.entities_identified}",
            f"annotation cost    : {cost.cost_hours:.2f} hours",
        ]
    )
    report.pause()
    clock.probe(PROBE_BURST)

    checked_value = estimate.value + (0.5 if inject_error else 0.0)
    digest = round_clock.digest
    digest.add(estimate.num_units, checked_value, estimate.std_error, cost.cost_seconds)
    checks = {
        "moe_within_target": bool(satisfied),
        "truth_within_3_moe": abs(checked_value - truth) <= 3 * moe,
    }
    ops = len(round_clock.rounds)
    failed = 0 if all(checks.values()) else ops
    shard_stats = run.shard_stats()
    return {
        **_phase_times(clock, setup, run_watch, report),
        "op_seconds": [clock.scaled(start, end) for start, end in round_clock.rounds],
        "ops": ops,
        "failed": failed,
        "annotation_cost_h": cost.cost_hours,
        "estimate": estimate.value,
        "truth": truth,
        "checks": checks,
        "digest": digest.hexdigest(),
        "decision": {
            "transport": decision.transport,
            "shards": decision.shards,
            "reason": decision.reason,
        },
        "report": text,
        "counts": {
            "sampling.rounds": run.rounds,
            "sampling.units": run.num_units,
            "sampling.tasks": sum(stat["tasks"] for stat in shard_stats),
            "sampling.draw_s": sum(stat["draw_seconds"] for stat in shard_stats),
            "planner.shards": decision.shards,
            "cost.triples_annotated": cost.triples_annotated,
            "cost.entities_identified": cost.entities_identified,
        },
    }


def run_monitor(
    workload: Workload, seed: int, smoke: bool, tracer, clock, inject_error: bool
) -> dict:
    """One ``repro monitor`` run (memory backend, object surface, SS, no snapshot)."""
    from repro.core.config import EvaluationConfig
    from repro.evolving.monitor import EvolvingAccuracyMonitor
    from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
    from repro.generators.workload import UpdateWorkloadGenerator

    _, moe_target, num_batches = workload.scaled(smoke)
    clock.probe(PROBE_BURST)
    setup = Stopwatch(clock)
    setup.resume()
    with tracer.span("generators.build", "generators"):
        data = build_dataset(workload, seed, smoke)
    base_repr = repr(data.graph)
    setup.pause()

    # Update batches are benchmark inputs: made from the workload seed, off the clock.
    inputs_started = time.perf_counter()
    with tracer.suspended():
        generator = UpdateWorkloadGenerator(data, seed=seed)
        batch_size = max(1, int(round(BATCH_FRACTION * data.graph.num_triples)))
        batches = list(generator.generate_sequence(num_batches, batch_size, UPDATE_ACCURACY))
    inputs_s = time.perf_counter() - inputs_started
    clock.probe()

    setup.resume()
    config = EvaluationConfig(moe_target=moe_target, confidence_level=CONFIDENCE)
    with tracer.span("evolving.init", "evolving"):
        evaluator = StratifiedIncrementalEvaluator(
            data, config=config, seed=seed, surface="object", position_labels=None
        )
        monitor = EvolvingAccuracyMonitor(evaluator)
    setup.pause()
    clock.probe()

    digest = _Digest()

    def record_state() -> None:
        with tracer.suspended():
            report = evaluator.latest.report
            digest.add(
                report.num_units,
                report.accuracy,
                report.estimate.std_error,
                evaluator.latest.cumulative_cost_seconds,
            )

    run_watch = Stopwatch(clock)
    run_watch.resume()
    monitor.evaluate_base()
    run_watch.pause()
    record_state()
    clock.probe()
    for batch, batch_oracle in batches:
        run_watch.resume()
        monitor.apply_update(batch, batch_oracle)
        run_watch.pause()
        record_state()
        clock.probe()

    report = Stopwatch(clock)
    report.resume()
    lines = [
        f"base KG  : {base_repr}",
        f"evaluator: {MONITOR_EVALUATOR} (object surface, {MONITOR_BACKEND} backend)",
        "batch  estimate  truth   MoE    batch-cost(h)  total-cost(h)",
    ]
    for record in monitor.records:
        lines.append(
            f"{record.batch_index:>5}  {record.estimated_accuracy:7.1%}  "
            f"{record.true_accuracy:6.1%}  {record.margin_of_error:5.3f}  "
            f"{record.incremental_cost_hours:12.2f}  {record.cumulative_cost_hours:12.2f}"
        )
    text = "\n".join(lines)
    report.pause()
    clock.probe(PROBE_BURST)

    # The CLI's exit rule, applied to every record rather than the last one.
    limit = max(2 * moe_target, 0.15)
    shift = 0.5 if inject_error else 0.0
    bad = [
        record.batch_index
        for record in monitor.records
        if abs(record.estimated_accuracy + shift - record.true_accuracy) > limit
    ]
    history = evaluator.history
    final = monitor.records[-1]
    return {
        **_phase_times(clock, setup, run_watch, report),
        "inputs_s": inputs_s,
        # The base evaluation is the first segment; the batches follow it.
        "op_seconds": [clock.scaled(start, end) for start, end in run_watch.segments[1:]],
        "ops": len(monitor.records),
        "failed": len(bad),
        "annotation_cost_h": final.cumulative_cost_hours,
        "estimate": final.estimated_accuracy,
        "truth": final.true_accuracy,
        "checks": {"every_record_within_cli_limit": not bad},
        "digest": digest.hexdigest(),
        "decision": None,
        "report": text,
        "counts": {
            "cost.triples_annotated": sum(e.report.num_triples_annotated for e in history),
            "cost.entities_identified": sum(e.report.num_entities_identified for e in history),
        },
    }


def _phase_times(clock, setup: Stopwatch, run: Stopwatch, report: Stopwatch) -> dict:
    """Set-up, run and wall seconds at the reference speed, and as raw wall time."""
    scaled = [setup.seconds(), run.seconds(), report.seconds()]
    raw = [setup.raw_seconds(), run.raw_seconds(), report.raw_seconds()]
    return {
        "setup_s": scaled[0],
        "run_s": scaled[1],
        "wall_s": sum(scaled),
        "raw": {"setup_s": raw[0], "run_s": raw[1], "wall_s": sum(raw)},
        "probe_ms": clock.probe_seconds() * 1_000.0,
    }


def layer_metrics(result: dict, tracer) -> dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    counts = result["counts"]
    ms = 1_000.0

    def total(name: str) -> float:
        return math.fsum(tracer.durations(name))

    step_s = tracer.durations("sampling.step")
    metrics = {
        "generators.build_s": total("generators.build"),
        "storage.convert_s": total("storage.convert"),
        "labels.position_array_s": total("labels.position_array"),
        "sampling.stratify_s": total("sampling.stratify"),
        "planner.plan_ms": total("planner.plan") * ms,
        "planner.shards": counts.get("planner.shards", 0),
        "sampling.executor_init_s": total("sampling.executor_init"),
        "sampling.step_ms_p50": percentile(step_s, 50) * ms,
        "sampling.step_ms_p99": percentile(step_s, 99) * ms,
        "sampling.execute_ms_p50": percentile(tracer.durations("sampling.execute"), 50) * ms,
        "sampling.draw_s": counts.get("sampling.draw_s", 0.0),
        "sampling.draw_share": (
            counts.get("sampling.draw_s", 0.0) / math.fsum(step_s) if step_s else 0.0
        ),
        "sampling.rounds": counts.get("sampling.rounds", 0),
        "sampling.units": counts.get("sampling.units", 0),
        "sampling.tasks": counts.get("sampling.tasks", 0),
        "stats.estimate_us_p50": percentile(tracer.durations("stats.estimate"), 50) * 1e6,
        "labels.truth_s": total("labels.report_truth"),
        "labels.truth_ms_p50": percentile(tracer.durations("labels.truth_batch"), 50) * ms,
        "kg.apply_ms_p50": percentile(tracer.durations("kg.apply"), 50) * ms,
        "evolving.base_eval_s": total("evolving.base_eval"),
        "evolving.apply_ms_p50": percentile(tracer.durations("evolving.apply"), 50) * ms,
        "evolving.apply_ms_p90": percentile(tracer.durations("evolving.apply"), 90) * ms,
        "core.static_run_ms": total("core.static_run") * ms,
        "cost.summary_ms": total("cost.summary") * ms,
        "cost.triples_annotated": counts["cost.triples_annotated"],
        "cost.entities_identified": counts["cost.entities_identified"],
    }
    self_seconds = tracer.self_seconds()
    for layer, seconds in self_seconds.items():
        metrics[f"{layer}.self_s"] = seconds
    wall = result["wall_s"]
    truth_s = total("labels.report_truth") + total("labels.truth_batch")
    metrics["trace.wall_s"] = wall
    metrics["trace.attributed_share"] = sum(self_seconds.values()) / wall
    metrics["trace.setup_share"] = result["setup_s"] / wall
    metrics["labels.truth_share"] = truth_s / wall
    return metrics


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    workload: Workload, seed: int, smoke: bool, tracer, clock, inject_error: bool
) -> dict:
    runner = run_evaluate if workload.command == "evaluate" else run_monitor
    result = runner(workload, seed, smoke, tracer, clock, inject_error)
    result["peak_rss_mb"] = peak_rss_mb()
    return result

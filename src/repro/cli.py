"""Command-line interface: ``python -m repro <command>``.

Five commands cover the common workflows:

* ``datasets`` — print Table-3-style characteristics of the synthetic dataset
  stand-ins (entities, triples, average cluster size, gold accuracy);
* ``evaluate`` — run one accuracy evaluation of a chosen dataset with a chosen
  sampling design and quality requirement, and print the report
  (``--backend columnar`` runs the same evaluation on columnar storage and
  yields the identical estimate under the same seed; ``--from-snapshot``
  evaluates a reopened format-v2 snapshot carrying its label array);
* ``experiment`` — regenerate one of the paper's tables/figures and print the
  rows (the same functions the benchmark suite calls);
* ``snapshot`` — build a dataset's graph and persist it with
  :class:`~repro.storage.snapshot.SnapshotStore` (``.npz`` archive, or a
  memory-mappable snapshot directory when the path has no ``.npz`` suffix);
  ``--with-labels`` stores the ground-truth label array next to the columns;
* ``monitor`` — run an evolving-KG monitoring session (Section 7.3.2): a base
  dataset receives a stream of update batches and an incremental evaluator
  tracks its accuracy.  ``--backend columnar`` runs the position-surface
  evaluators on a columnar base with zero-copy delta updates;
  ``--snapshot`` persists (and on re-runs reopens) the base graph plus its
  labels, so the expensive build/labelling happens once;
* ``worker`` — run a sampling worker node for the RPC shard transport:
  listens on ``--listen HOST:PORT`` (or dials into a running master with
  ``--join HOST:PORT``), authenticates every connection against
  ``--secret-file``, receives content-addressed CSR snapshot shards into
  ``--base-dir`` and executes pipelined shard tasks.  ``evaluate`` /
  ``monitor`` dispatch to such nodes with ``--transport rpc --nodes
  host1:p1,host2:p2`` (plus ``--secret-file`` and ``--accept-joins`` for
  authenticated/elastic clusters) — trajectories are bit-identical to
  ``--workers N`` (shared memory) and ``--workers 0`` (serial) runs with
  the same ``--shards``;
* ``serve`` — run the long-lived multi-session evaluation daemon: graphs stay
  attached across requests, sessions multiplex over one transport fleet, the
  latest estimate of every session is an O(1) cached read, and SIGTERM drains
  gracefully (finish in-flight rounds, checkpoint every session to
  ``--state-dir``, export ``--metrics-out``);
* ``client`` — talk to a running daemon: ``run`` (the served twin of
  ``monitor`` — bit-identical trajectories), ``estimate`` (non-blocking
  cached read), ``poll`` (threshold wait), ``sessions`` and ``detach``;
* ``scenario`` — run declarative stress-scenario packs through the real
  engine with statistical gates: ``run`` executes every scenario's seeded
  replications on a chosen backend and checks empirical CI coverage against
  a Wilson tolerance band, ``compare`` diffs a ``SCENARIOS_*.json`` result
  file against a committed baseline, ``list`` shows the registry (see
  ``docs/scenarios.md``);
* ``planner`` — inspect (``show``) or regenerate (``calibrate``) the adaptive
  transport planner's calibration profile.  ``evaluate``/``monitor`` default
  to ``--transport auto``: the shard plan (part of a run's random-stream
  identity) is a deterministic function of the graph's stats and the MoE
  target, identical on every host; the planner then picks serial, the
  shared-memory worker pool or RPC to *execute* that fixed plan,
  never slower than serial beyond noise (see ``docs/planner.md``).

Examples
--------
::

    python -m repro datasets
    python -m repro evaluate --dataset nell --design twcs --moe 0.05 --seed 7
    python -m repro evaluate --dataset nell --backend columnar
    python -m repro evaluate --dataset nell --backend sqlite
    python -m repro experiment table5 --trials 10
    python -m repro snapshot --dataset movie --out movie.npz --with-labels
    python -m repro snapshot --dataset movie --out movie.sqlite --backend sqlite --with-labels
    python -m repro evaluate --from-snapshot movie.npz
    python -m repro monitor --dataset movie --backend columnar --batches 5
    python -m repro worker --listen 127.0.0.1:7301 --base-dir /tmp/shards
    python -m repro evaluate --dataset nell --transport rpc \\
        --nodes 127.0.0.1:7301,127.0.0.1:7302 --shards 4
    python -m repro evaluate --dataset nell --workers 2 \\
        --log-json run.jsonl --metrics-out master.json
    python -m repro metrics summarize master.json worker1.json
    python -m repro serve --listen 127.0.0.1:7400 --state-dir /tmp/serve-state
    python -m repro client run --connect 127.0.0.1:7400 --dataset nell \\
        --evaluator ss --batches 2
    python -m repro client estimate --connect 127.0.0.1:7400 --session session-1
    python -m repro scenario run --pack builtin-smoke --backend sqlite \\
        --out SCENARIOS_smoke.json
    python -m repro scenario compare baselines/SCENARIOS_smoke.json SCENARIOS_smoke.json

``evaluate``, ``monitor``, ``worker`` and ``serve`` all accept ``--log-json PATH`` /
``--log-level`` (structured JSON-lines logs with RPC-propagated trace spans)
and ``--metrics-out PATH`` (a mergeable metrics snapshot written on exit);
``metrics summarize`` renders any set of snapshots as per-shard and per-node
tables.  Observability never touches a numpy RNG stream: trajectories are
bit-identical with the flags on or off.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.core.config import EvaluationConfig
from repro.core.framework import StaticEvaluator
from repro.cost.annotator import SimulatedAnnotator
from repro.experiments import (
    figure5_confidence_sweep,
    figure6_optimal_m,
    figure7_scalability,
    figure8_single_update,
    format_table,
    table4_movie_cost,
    table5_static_comparison,
    table6_kgeval_comparison,
    table7_stratification,
)
from repro.generators.datasets import (
    LabelledKG,
    make_movie_like,
    make_movie_syn,
    make_nell_like,
    make_yago_like,
)
from repro.kg.statistics import cluster_size_summary
from repro.sampling.rcs import RandomClusterDesign
from repro.sampling.srs import SimpleRandomDesign
from repro.sampling.stratification import stratify_by_size
from repro.sampling.stratified import StratifiedTWCSDesign
from repro.sampling.twcs import TwoStageWeightedClusterDesign
from repro.sampling.wcs import WeightedClusterDesign

__all__ = ["main", "build_parser"]

_DATASETS = ("nell", "yago", "movie", "movie-syn")
_DESIGNS = ("srs", "rcs", "wcs", "twcs", "twcs-strat")


def _load_dataset(name: str, seed: int, movie_scale: float) -> LabelledKG:
    if name == "nell":
        return make_nell_like(seed=seed)
    if name == "yago":
        return make_yago_like(seed=seed)
    if name == "movie":
        return make_movie_like(seed=seed, scale=movie_scale)
    if name == "movie-syn":
        return make_movie_syn(seed=seed, scale=movie_scale)
    raise ValueError(f"unknown dataset {name!r}")


def _build_design(name: str, data: LabelledKG, m: int, seed: int, allocation: str = "proportional"):
    if name == "srs":
        return SimpleRandomDesign(data.graph, seed=seed)
    if name == "rcs":
        return RandomClusterDesign(data.graph, seed=seed)
    if name == "wcs":
        return WeightedClusterDesign(data.graph, seed=seed)
    if name == "twcs":
        return TwoStageWeightedClusterDesign(data.graph, second_stage_size=m, seed=seed)
    if name == "twcs-strat":
        strata = stratify_by_size(data.graph, num_strata=4)
        return StratifiedTWCSDesign(
            data.graph, strata, second_stage_size=m, seed=seed, allocation=allocation
        )
    raise ValueError(f"unknown design {name!r}")


# --------------------------------------------------------------------------- #
# Sub-commands
# --------------------------------------------------------------------------- #
def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in _DATASETS:
        data = _load_dataset(name, args.seed, args.movie_scale)
        summary = cluster_size_summary(data.graph)
        rows.append(
            {
                "dataset": data.name,
                "entities": summary.num_entities,
                "triples": summary.num_triples,
                "avg_cluster_size": summary.mean_size,
                "max_cluster_size": summary.max_size,
                "gold_accuracy": data.true_accuracy,
            }
        )
    print(format_table(rows, title="Dataset characteristics (synthetic stand-ins, cf. Table 3)"))
    return 0


def _load_snapshot_dataset(path: str) -> LabelledKG:
    """Reopen a persisted graph + label array as a labelled KG.

    Accepts either a format-v2 snapshot (``.npz`` / snapshot directory) or a
    SQLite database written by ``repro snapshot --backend sqlite`` — the
    database is detected by its file header and reopened in place, columns
    staying on disk.
    """
    from repro.labels.oracle import LabelOracle
    from repro.storage.snapshot import SnapshotStore
    from repro.storage.sqlite import is_sqlite_file

    if is_sqlite_file(path):
        return _load_sqlite_dataset(path)
    store = SnapshotStore(path)
    graph = store.load_graph()
    labels = store.load_labels()
    if labels is None:
        raise SystemExit(
            f"snapshot {path} carries no label array; re-create it with "
            "`repro snapshot --with-labels`"
        )
    oracle = LabelOracle(dict(zip(graph.triples, (bool(v) for v in labels))))
    return LabelledKG(graph, oracle)


def _load_sqlite_dataset(path: str) -> LabelledKG:
    """Reopen a SQLite graph database (with stored labels) as a labelled KG."""
    from repro.kg.graph import KnowledgeGraph
    from repro.labels.oracle import LabelOracle
    from repro.storage.sqlite import SqliteStore

    store = SqliteStore(path)
    name = store.graph_name() or Path(path).stem
    graph = KnowledgeGraph(name=name, backend=store)
    labels = store.load_labels()
    if labels is None:
        raise SystemExit(
            f"sqlite database {path} carries no label array; re-create it with "
            "`repro snapshot --backend sqlite --with-labels`"
        )
    oracle = LabelOracle(dict(zip(graph.triples, (bool(v) for v in labels))))
    return LabelledKG(graph, oracle)


def _parse_nodes(args: argparse.Namespace) -> list[str]:
    nodes = [node.strip() for node in (args.nodes or "").split(",") if node.strip()]
    if not nodes and not getattr(args, "accept_joins", None):
        raise SystemExit(
            "--transport rpc requires --nodes host:port[,host:port...] "
            "(or --accept-joins to wait for joining workers)"
        )
    return nodes


def _load_cli_secret(args: argparse.Namespace):
    if not getattr(args, "secret_file", None):
        return None
    from repro.sampling.rpc import load_secret_file

    try:
        return load_secret_file(args.secret_file)
    except OSError as exc:
        raise SystemExit(f"cannot read --secret-file {args.secret_file}: {exc}") from exc
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _build_transport(args: argparse.Namespace):
    """Resolve an *explicit* ``--transport`` choice into a ShardTransport.

    Returns ``None`` for ``auto`` (the adaptive planner decides separately,
    see :func:`_plan_transport`) and for the bare ``--workers`` shorthand
    (the executor then builds its own shared-memory transport).
    """
    if args.transport in (None, "auto"):
        return None
    if args.transport == "rpc":
        from repro.sampling.rpc import SocketRPCTransport

        transport = SocketRPCTransport(
            _parse_nodes(args),
            secret=_load_cli_secret(args),
            window=args.rpc_window,
            join_address=args.accept_joins,
        )
        if transport.join_address is not None:
            print(f"accepting worker joins on {transport.join_address}", flush=True)
        return transport
    from repro.sampling.parallel import ParallelSamplingExecutor, SerialTransport

    if args.transport == "shm":
        from repro.sampling.shm import SharedMemoryTransport

        workers = args.workers or ParallelSamplingExecutor.default_workers()
        return SharedMemoryTransport(workers)
    return SerialTransport()


def _plan_transport(args: argparse.Namespace, graph, draws_hint: int | None):
    """``--transport auto``: let the adaptive planner pick the configuration.

    Returns ``(transport, decision, profile)``; the profile is kept around
    so the run's measured wall-clock can be folded back into it afterwards
    (see ``docs/planner.md``).
    """
    from repro.sampling.planner import AdaptivePlanner, load_profile

    profile = load_profile(getattr(args, "profile", None))
    planner = AdaptivePlanner(profile)
    nodes = [node.strip() for node in (getattr(args, "nodes", "") or "").split(",") if node.strip()]
    decision = planner.plan(
        graph.backend.stats(),
        draws=draws_hint,
        shards=args.shards,
        nodes=len(nodes),
        rpc_window=args.rpc_window if nodes else None,
    )
    transport = AdaptivePlanner.build_transport(
        decision,
        nodes=nodes,
        secret=_load_cli_secret(args),
        join_address=getattr(args, "accept_joins", None),
    )
    if getattr(transport, "join_address", None) is not None:
        print(f"accepting worker joins on {transport.join_address}", flush=True)
    return transport, decision, profile


def _profile_named(args: argparse.Namespace) -> bool:
    """Whether the caller named a calibration profile for the run to learn into.

    Only ``--profile`` or ``REPRO_PLANNER_PROFILE`` opt in; otherwise one
    run's timing (on whichever backend) would steer every later default
    run's transport pick through ``~/.cache/repro/planner.json``.
    """
    return bool(getattr(args, "profile", None) or os.environ.get("REPRO_PLANNER_PROFILE"))


def _auto_planned_shards(args: argparse.Namespace, graph) -> int:
    """The deterministic shard count ``--transport auto`` would run with.

    A pure function of the graph's measured stats and the ``--moe`` /
    ``--confidence`` target — no CPU count, no warm-pool state, no
    calibration profile — so the *stream identity* of a default seeded run
    (classic loop vs sharded engine, and at how many shards) is the same
    on every host and every repetition.  The planner's adaptive inputs
    only pick which transport executes this fixed plan.
    """
    from repro.sampling.planner import AdaptivePlanner, plan_shards

    draws_hint = AdaptivePlanner.draws_for_target(args.moe, args.confidence)
    return plan_shards(graph.backend.stats(), draws_hint)


def _resolve_parallel(args: argparse.Namespace, graph=None, draws_hint: int | None = None):
    """Resolve the sharded-engine options into ``(transport, shards, decision)``.

    One code path for ``evaluate`` and ``monitor``.  Under ``--transport
    auto`` (the default) with no ``--workers`` pin, the shard count comes
    from ``--shards`` or the deterministic ``plan_shards`` policy (graph
    stats + draw volume only, identical on every host), and the adaptive
    planner chooses which transport executes that
    plan from CPU availability and the calibration profile; ``decision``
    then carries the reasoning.  In explicit modes the shard count obeys
    ``--shards`` first, then the transport's natural width (shm worker
    count, RPC node count), then ``max(workers, 1)``.
    """
    if args.transport == "auto" and args.workers is None and graph is not None:
        transport, decision, profile = _plan_transport(args, graph, draws_hint)
        shards = args.shards if args.shards is not None else decision.shards
        return transport, shards, (decision, profile)
    transport = _build_transport(args)
    if args.shards is not None:
        shards = args.shards
    elif transport is not None and transport.default_shards:
        shards = transport.default_shards
    else:
        shards = max(args.workers or 1, 1)
    return transport, shards, None


def _transport_label(args: argparse.Namespace, decision=None) -> str:
    if decision is not None:
        return f"auto:{decision.transport}"
    if args.transport == "rpc":
        return f"rpc[{len(_parse_nodes(args))} nodes]"
    if args.transport not in (None, "auto"):
        return args.transport
    return "shm" if args.workers else "serial"


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.from_snapshot:
        data = _load_snapshot_dataset(args.from_snapshot)
    else:
        data = _load_dataset(args.dataset, args.seed, args.movie_scale)
    if args.backend == "columnar":
        data = LabelledKG(data.graph.to_columnar(), data.oracle)
    elif args.backend == "sqlite":
        data = LabelledKG(data.graph.to_sqlite(), data.oracle)
    if (
        args.workers is not None
        or args.shards is not None
        or args.transport not in (None, "auto")
    ):
        # An explicit pin always engages the sharded engine.
        return _cmd_evaluate_parallel(args, data)
    if args.transport == "auto" and _auto_planned_shards(args, data.graph) > 1:
        # The deterministic shard plan calls for parallelism; which
        # transport executes it is decided adaptively inside.
        return _cmd_evaluate_parallel(args, data)
    # One-shard plan: the classic single-stream evaluator, bit-identical to
    # every pre-planner default run.
    design = _build_design(
        args.design, data, args.second_stage_size, args.seed, allocation=args.allocation
    )
    annotator = SimulatedAnnotator(data.oracle, seed=args.seed)
    config = EvaluationConfig(moe_target=args.moe, confidence_level=args.confidence)
    report = StaticEvaluator(design, annotator, config).run()
    interval = report.confidence_interval
    print(f"dataset            : {data.name}")
    print(f"design             : {args.design} (m={args.second_stage_size})")
    print(f"true accuracy      : {data.true_accuracy:.1%} (hidden from the estimator)")
    print(f"estimated accuracy : {report.accuracy:.1%}")
    print(f"{args.confidence:.0%} interval     : [{interval.lower:.1%}, {interval.upper:.1%}]")
    print(f"margin of error    : {report.margin_of_error:.3f} (target {args.moe})")
    print(f"sample units       : {report.num_units}")
    print(f"triples annotated  : {report.num_triples_annotated}")
    print(f"entities identified: {report.num_entities_identified}")
    print(f"annotation cost    : {report.annotation_cost_hours:.2f} hours")
    return 0 if report.satisfied else 1


def _cmd_evaluate_parallel(args: argparse.Namespace, data: LabelledKG) -> int:
    """``evaluate`` on the sharded position-surface draw engine.

    Runs the iterative evaluation on integer positions and boolean label
    arrays.  ``--transport auto`` (the default) shards deterministically
    (graph stats + MoE target only) and lets the adaptive planner pick the
    transport that executes the plan; ``--workers N`` / an explicit
    ``--transport`` force a configuration.  For a fixed shard plan the
    estimates are bit-identical for every transport and worker count.
    """
    import time

    import numpy as np

    from repro.sampling.parallel import ParallelSamplingExecutor

    graph = data.graph
    labels = data.oracle.as_position_array(graph)
    config = EvaluationConfig(moe_target=args.moe, confidence_level=args.confidence)
    draws_hint = None
    if args.transport == "auto" and args.workers is None:
        from repro.sampling.planner import AdaptivePlanner

        draws_hint = AdaptivePlanner.draws_for_target(args.moe, args.confidence)
    transport, shards, planned = _resolve_parallel(args, graph, draws_hint)
    decision, profile = planned if planned is not None else (None, None)
    strata_rows = None
    if args.design == "twcs-strat":
        strata = stratify_by_size(graph, num_strata=4)
        strata_rows = [
            np.fromiter(
                (graph.entity_row(entity_id) for entity_id in stratum.entity_ids),
                dtype=np.int64,
                count=stratum.num_entities,
            )
            for stratum in strata
        ]
    with ParallelSamplingExecutor(
        graph,
        workers=None if transport is not None else (args.workers or None),
        num_shards=shards,
        transport=transport,
        planner_decision=decision,
    ) as executor:
        run = executor.run(
            args.design if args.design != "twcs-strat" else "twcs",
            labels,
            seed=args.seed,
            second_stage_size=args.second_stage_size,
            strata=strata_rows,
            allocation=args.allocation if args.design == "twcs-strat" else "proportional",
        )
        started = time.perf_counter()
        estimate, iterations = run.drive(config)
        elapsed = time.perf_counter() - started
        cost = run.cost_summary()
    if decision is not None and profile is not None and _profile_named(args):
        # Fold the measured wall-clock back into the calibration profile the
        # caller named, so the next planning decision starts from this run's
        # reality.  A default run leaves the shared profile as it found it.
        from repro.sampling.planner import save_profile

        profile.observe(
            decision.transport,
            draws=estimate.num_units,
            rounds=run.rounds,
            seconds=elapsed,
            workers=decision.workers,
            # A run on an adopted warm pool never paid the startup cost;
            # subtracting it anyway would bias per_draw_us low over time.
            warm=decision.warm,
        )
        save_profile(profile, getattr(args, "profile", None))
    satisfied = estimate.num_units >= config.min_units and estimate.satisfies(
        config.moe_target, config.confidence_level
    )
    interval = estimate.confidence_interval(args.confidence)
    print(f"dataset            : {data.name}")
    print(
        f"design             : {args.design} (m={args.second_stage_size}, "
        f"shards={run.plan.num_shards}, transport={_transport_label(args, decision)})"
    )
    if decision is not None:
        print(f"planner            : {decision.transport} — {decision.reason}")
    print(f"true accuracy      : {data.true_accuracy:.1%} (hidden from the estimator)")
    print(f"estimated accuracy : {estimate.value:.1%}")
    print(f"{args.confidence:.0%} interval     : [{interval.lower:.1%}, {interval.upper:.1%}]")
    moe = estimate.margin_of_error(args.confidence)
    print(f"margin of error    : {moe:.3f} (target {args.moe})")
    print(f"sample units       : {estimate.num_units} ({iterations} rounds)")
    print(f"triples annotated  : {cost.triples_annotated}")
    print(f"entities identified: {cost.entities_identified}")
    print(f"annotation cost    : {cost.cost_hours:.2f} hours")
    return 0 if satisfied else 1


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.storage.snapshot import SnapshotStore

    data = _load_dataset(args.dataset, args.seed, args.movie_scale)
    graph = data.graph.to_columnar()
    labels = data.oracle.as_position_array(graph) if args.with_labels else None
    if args.backend == "sqlite":
        sqlite_graph = graph.to_sqlite(path=args.out)
        if labels is not None:
            sqlite_graph.backend.save_labels(labels)
        path, layout = Path(args.out), "sqlite database (WAL)"
        label_note = "stored (meta table)"
    else:
        path = SnapshotStore(args.out).save(
            graph, name=graph.name, compress=args.compress, labels=labels
        )
        layout = "npz archive" if SnapshotStore(path).is_archive else "mmap-able directory"
        label_note = "stored (format v2)"
    print(f"dataset  : {graph.name}")
    print(f"entities : {graph.num_entities}")
    print(f"triples  : {graph.num_triples}")
    print(f"labels   : {label_note if labels is not None else 'not stored'}")
    print(f"snapshot : {path} ({layout})")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.core.config import EvaluationConfig as _Config
    from repro.evolving.baseline import BaselineEvolvingEvaluator
    from repro.evolving.monitor import EvolvingAccuracyMonitor
    from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
    from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
    from repro.generators.workload import UpdateWorkloadGenerator
    from repro.storage.snapshot import SnapshotStore

    surface = (
        "position"
        if args.backend in ("columnar", "sqlite") and args.evaluator != "baseline"
        else "object"
    )
    position_labels = None
    if args.snapshot and SnapshotStore(args.snapshot).exists():
        if surface == "position":
            # The position surface reads ground truth from the label array
            # only, so skip the O(M) Triple/oracle-dict materialisation and
            # reopen the columns directly.
            from repro.labels.oracle import LabelOracle

            store = SnapshotStore(args.snapshot)
            position_labels = store.load_labels()
            if position_labels is None:
                raise SystemExit(
                    f"snapshot {args.snapshot} carries no label array; re-create "
                    "it with `repro monitor --snapshot` or `repro snapshot --with-labels`"
                )
            data = LabelledKG(store.load_graph(), LabelOracle({}, strict=False))
        else:
            data = _load_snapshot_dataset(args.snapshot)
        print(f"base KG  : {data.graph!r} (reopened from {args.snapshot})")
    else:
        data = _load_dataset(args.dataset, args.seed, args.movie_scale)
        if args.backend == "columnar":
            data = LabelledKG(data.graph.to_columnar(), data.oracle)
        elif args.backend == "sqlite":
            # The delta machinery needs a frozen columnar base; the sqlite
            # round-trip keeps the persistent copy out-of-core while the
            # derived columns (bit-identical to a direct columnar build)
            # carry the update stream.
            data = LabelledKG(data.graph.to_sqlite().to_columnar(), data.oracle)
        if args.snapshot:
            labels = data.oracle.as_position_array(data.graph)
            data.graph.to_columnar().save_snapshot(args.snapshot, labels=labels)
            if surface == "position":
                position_labels = labels
            print(f"base KG  : {data.graph!r} (snapshot saved to {args.snapshot})")
        else:
            print(f"base KG  : {data.graph!r}")

    evaluator_classes = {
        "rs": ReservoirIncrementalEvaluator,
        "ss": StratifiedIncrementalEvaluator,
        "baseline": BaselineEvolvingEvaluator,
    }
    explicit_engine = args.workers is not None or args.transport not in (None, "auto")
    parallel_requested = explicit_engine or args.shards is not None
    if parallel_requested and surface != "position":
        raise SystemExit(
            "--workers/--shards/--transport requires the position surface: "
            "use --backend columnar (or sqlite) with --evaluator rs or ss"
        )
    config = _Config(moe_target=args.moe, confidence_level=args.confidence)
    extra = {}
    decision = None
    if explicit_engine:
        transport, shards, _planned = _resolve_parallel(args)
        extra = {"num_shards": shards}
        if transport is not None:
            extra["transport"] = transport
        else:
            extra["workers"] = args.workers
    elif args.transport == "auto" and surface == "position":
        # Adaptive default.  Whether the sharded engine engages — part of
        # the run's random-stream identity — is a pure function of the
        # graph's stats and the MoE target (plus an explicit --shards pin):
        # a one-shard plan keeps the classic single-stream position surface
        # (zero engine overhead, historical trajectories) on every host.
        # Only the transport *executing* a multi-shard plan is adaptive.
        engage = args.shards is not None or _auto_planned_shards(args, data.graph) > 1
        if engage:
            from repro.sampling.planner import AdaptivePlanner

            draws_hint = AdaptivePlanner.draws_for_target(args.moe, args.confidence)
            transport, shards, planned = _resolve_parallel(args, data.graph, draws_hint)
            if planned is not None:
                decision = planned[0]
            extra = {"num_shards": shards, "transport": transport}
    engine_engaged = parallel_requested or "transport" in extra
    evaluator = evaluator_classes[args.evaluator](
        data,
        config=config,
        seed=args.seed,
        surface=surface,
        position_labels=position_labels if surface == "position" else None,
        **extra,
    )
    monitor = EvolvingAccuracyMonitor(evaluator)
    monitor.evaluate_base()
    workload = UpdateWorkloadGenerator(data, seed=args.seed)
    batch_size = max(1, int(round(args.batch_fraction * data.graph.num_triples)))
    for batch, batch_oracle in workload.generate_sequence(
        args.batches, batch_size, args.update_accuracy
    ):
        monitor.apply_update(batch, batch_oracle)
    if engine_engaged:
        evaluator.close()

    if decision is not None:
        print(f"planner  : {decision.transport} — {decision.reason}")
    print(f"evaluator: {args.evaluator} ({surface} surface, {args.backend} backend)")
    print("batch  estimate  truth   MoE    batch-cost(h)  total-cost(h)")
    for record in monitor.records:
        print(
            f"{record.batch_index:>5}  {record.estimated_accuracy:7.1%}  "
            f"{record.true_accuracy:6.1%}  {record.margin_of_error:5.3f}  "
            f"{record.incremental_cost_hours:12.2f}  {record.cumulative_cost_hours:12.2f}"
        )
    final = monitor.records[-1]
    return 0 if final.estimation_error <= max(2 * args.moe, 0.15) else 1


def _cmd_worker(args: argparse.Namespace) -> int:
    """``repro worker``: serve shard tasks for the RPC transport."""
    import signal

    from repro.sampling.rpc import RPCError, join_master, parse_node_address, serve_worker

    if bool(args.listen) == bool(args.join):
        raise SystemExit("pass exactly one of --listen HOST:PORT or --join HOST:PORT")
    secret = _load_cli_secret(args)
    args.obs_node_id = f"worker-{os.getpid()}"

    # An orderly SIGTERM (chaos-suite teardown, service managers) must still
    # run main()'s finally block so --metrics-out snapshots get written.
    # SIGINT gets the identical handler: a Ctrl-C'd worker converts to
    # SystemExit(0) at a deterministic point instead of unwinding a
    # KeyboardInterrupt from an arbitrary bytecode boundary (mid-export,
    # mid-store), so the metrics snapshot survives interactive shutdowns too.
    def _on_term(signum, frame):  # pragma: no cover - signal path
        raise SystemExit(0)

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _on_term)
        except ValueError:  # pragma: no cover - not the main thread (tests)
            pass

    if args.join:
        # Elastic membership: dial a running master and serve it over the
        # connection we opened (works from behind NAT; no listening port).
        print(f"worker joining master at {args.join}", flush=True)
        print(f"snapshot cache     {args.base_dir}", flush=True)

        def on_joined(host: str, port: int) -> None:
            print(f"worker joined master at {host}:{port}", flush=True)

        try:
            join_master(
                args.join,
                args.base_dir,
                secret=secret,
                task_delay=args.task_delay,
                on_joined=on_joined,
            )
        except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
            pass
        except RPCError as exc:
            print(f"join failed: {exc}", flush=True)
            return 1
        return 0

    host, port = parse_node_address(args.listen)

    def on_ready(bound_host: str, bound_port: int) -> None:
        # Single parseable line: launchers using port 0 read the real port.
        args.obs_node_id = f"{bound_host}:{bound_port}"
        print(f"worker listening on {bound_host}:{bound_port}", flush=True)
        print(f"snapshot cache     {args.base_dir}", flush=True)

    try:
        serve_worker(
            host,
            port,
            args.base_dir,
            secret=secret,
            on_ready=on_ready,
            max_connections=args.max_connections,
            task_delay=args.task_delay,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the long-lived multi-session evaluation daemon."""
    import signal
    import threading

    from repro.sampling.rpc import load_secret_file, parse_node_address
    from repro.serve.server import EvalServer

    secret = _load_cli_secret(args)
    fleet_secret = None
    if args.fleet_secret_file:
        try:
            fleet_secret = load_secret_file(args.fleet_secret_file)
        except OSError as exc:
            raise SystemExit(
                f"cannot read --fleet-secret-file {args.fleet_secret_file}: {exc}"
            ) from exc
    host, port = parse_node_address(args.listen)
    server = EvalServer(
        host,
        port,
        secret=secret,
        fleet_secret=fleet_secret,
        state_dir=args.state_dir,
        queue_limit=args.queue_limit,
        root_seed=args.root_seed,
    )

    # SIGTERM/SIGINT request a *drain*, not an exit: set the stop event and
    # return to the foreground wait, which finishes every admitted round,
    # checkpoints all sessions, and falls through to main()'s finally block
    # so --metrics-out captures the daemon's full lifetime.
    stop = threading.Event()

    def _on_term(signum, frame):  # pragma: no cover - signal path
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _on_term)
        except ValueError:  # pragma: no cover - not the main thread (tests)
            pass

    bound_host, bound_port = server.start()
    args.obs_node_id = f"{bound_host}:{bound_port}"
    # Single parseable line: launchers using port 0 read the real port.
    print(f"serve listening on {bound_host}:{bound_port}", flush=True)
    if args.state_dir:
        print(f"state dir          {args.state_dir}", flush=True)
    try:
        server.wait(stop)
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    print("serve draining", flush=True)
    server.shutdown(drain=True)
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    """``repro client``: talk to a running serve daemon."""
    from repro.serve.client import ServeClient, ServeRequestError

    secret = _load_cli_secret(args)

    def record_row(entry: dict) -> str:
        record = entry["record"]
        return (
            f"{record.batch_index:>5}  {record.estimated_accuracy:7.1%}  "
            f"{record.true_accuracy:6.1%}  {record.margin_of_error:5.3f}  "
            f"{record.incremental_cost_hours:12.2f}  {record.cumulative_cost_hours:12.2f}"
        )

    try:
        with ServeClient(args.connect, secret=secret) as client:
            if args.client_command == "run":
                return _client_run(args, client, record_row)
            if args.client_command == "estimate":
                reply = client.estimate(args.session)
                print(f"session  : {reply['session']}")
                print(f"records  : {reply['num_records']}  pending: {reply['pending']}")
                if reply["failed"]:
                    print(f"failed   : {reply['failed']}")
                    return 1
                if reply["latest"] is None:
                    print("estimate : (no completed rounds yet)")
                    return 0
                print("batch  estimate  truth   MoE    batch-cost(h)  total-cost(h)")
                print(record_row(reply["latest"]))
                return 0
            if args.client_command == "poll":
                reply = client.poll(
                    args.session,
                    min_records=args.min_records,
                    moe_below=args.moe_below,
                    timeout=args.timeout,
                )
                state = "satisfied" if reply["satisfied"] else "timeout"
                print(f"session  : {reply['session']}  ({state})")
                if reply["failed"]:
                    print(f"failed   : {reply['failed']}")
                if reply["latest"] is not None:
                    print("batch  estimate  truth   MoE    batch-cost(h)  total-cost(h)")
                    print(record_row(reply["latest"]))
                return 0 if reply["satisfied"] else 1
            if args.client_command == "sessions":
                entries = client.sessions()["entries"]
                if not entries:
                    print("(no attached sessions)")
                    return 0
                print("session                evaluator  dataset     records  pending")
                for entry in entries:
                    failed = "  FAILED" if entry["failed"] else ""
                    print(
                        f"{entry['session']:<22} {entry['evaluator']:<10} "
                        f"{str(entry['dataset']):<11} {entry['num_records']:>7}  "
                        f"{entry['pending']:>7}{failed}"
                    )
                return 0
            if args.client_command == "detach":
                reply = client.detach(args.session)
                print(f"detached : {reply['session']}")
                return 0
    except ServeRequestError as exc:
        print(f"serve error [{exc.code}]: {exc}", flush=True)
        return 1
    raise SystemExit(f"unknown client command {args.client_command!r}")


def _client_run(args: argparse.Namespace, client, record_row) -> int:
    """Drive one monitoring session through the daemon (mirrors ``monitor``)."""
    from repro.generators.workload import UpdateWorkloadGenerator

    # The workload stream is generated client-side from the same dataset the
    # daemon attaches, exactly like an external update producer would.
    data = _load_dataset(args.dataset, args.seed, args.movie_scale)
    data = LabelledKG(data.graph.to_columnar(), data.oracle)
    spec: dict = {
        "dataset": args.dataset,
        "dataset_seed": args.seed,
        "movie_scale": args.movie_scale,
        "evaluator": args.evaluator,
        "seed": args.seed,
        "moe": args.moe,
        "confidence": args.confidence,
    }
    engine = {
        key: value
        for key, value in (
            ("transport", args.transport),
            ("workers", args.workers),
            ("shards", args.shards),
            ("nodes", args.nodes.split(",") if args.nodes else None),
            ("rpc_window", args.rpc_window),
        )
        if value is not None
    }
    if engine:
        spec["engine"] = engine
    reply = client.attach(spec, session=args.session)
    session = reply["session"]
    resumed = " (resumed)" if reply.get("resumed") else ""
    print(f"session  : {session}{resumed} seed={reply['seed']}")
    workload = UpdateWorkloadGenerator(data, seed=args.seed)
    batch_size = max(1, int(round(args.batch_fraction * data.graph.num_triples)))
    for batch, batch_oracle in workload.generate_sequence(
        args.batches, batch_size, args.update_accuracy
    ):
        client.submit_batch(session, batch, batch_oracle)
    entries = client.trajectory(session)["entries"]
    print(f"evaluator: {args.evaluator} (served by {args.connect})")
    print("batch  estimate  truth   MoE    batch-cost(h)  total-cost(h)")
    for entry in entries:
        print(record_row(entry))
    if args.detach:
        client.detach(session)
    final = entries[-1]["record"]
    return 0 if final.estimation_error <= max(2 * args.moe, 0.15) else 1


_EXPERIMENTS = {
    "table4": lambda args: format_table(
        table4_movie_cost(args.trials, args.seed, args.movie_scale),
        title="Table 4: MOVIE evaluation cost",
    ),
    "table5": lambda args: format_table(
        table5_static_comparison(args.trials, args.seed, args.movie_scale),
        title="Table 5: static-KG evaluation",
    ),
    "table6": lambda args: format_table(
        table6_kgeval_comparison(max(1, args.trials // 2), args.seed),
        title="Table 6: TWCS vs KGEval",
    ),
    "table7": lambda args: format_table(
        table7_stratification(args.trials, args.seed, args.movie_scale),
        title="Table 7: stratified TWCS",
    ),
    "fig5": lambda args: format_table(
        figure5_confidence_sweep(args.trials, args.seed, args.movie_scale),
        title="Figure 5: confidence-level sweep",
    ),
    "fig6": lambda args: format_table(
        [
            row
            for row in figure6_optimal_m(max(1, args.trials // 2), args.seed)
            if "annotation_hours" in row
        ],
        title="Figure 6: optimal second-stage size",
    ),
    "fig7": lambda args: "\n".join(
        format_table(rows, title=f"Figure 7 ({label})")
        for label, rows in figure7_scalability(max(1, args.trials // 2), args.seed).items()
    ),
    "fig8": lambda args: "\n".join(
        format_table(rows, title=f"Figure 8 ({label})")
        for label, rows in figure8_single_update(
            max(1, args.trials // 2), args.seed, args.movie_scale
        ).items()
    ),
}


def _cmd_scenario(args: argparse.Namespace) -> int:
    """``repro scenario run|compare|list``: the declarative stress-pack registry."""
    from repro.scenarios import (
        BACKENDS,
        BUILTIN_PACKS,
        compare_documents,
        format_results_table,
        load_pack,
        load_results,
        results_to_document,
        run_pack,
        write_results,
    )

    if args.scenario_command == "list":
        if args.pack is None:
            print("built-in packs:")
            for name in BUILTIN_PACKS:
                pack = load_pack(name)
                print(f"  {name:<16} {len(pack.scenarios)} scenarios — {pack.description}")
            print("(pass --pack NAME_OR_FILE to list the scenarios inside a pack)")
            return 0
        pack = load_pack(args.pack)
        print(f"pack {pack.name}: {pack.description}")
        for spec in pack.scenarios:
            print(f"  {spec.name:<24} {spec.kind:<9} x{spec.replications:<4} {spec.description}")
        return 0

    if args.scenario_command == "compare":
        baseline = load_results(args.baseline)
        current = load_results(args.current)
        differences = compare_documents(
            baseline, current, float_tolerance=args.float_tolerance
        )
        if not differences:
            print(f"OK: {args.current} reproduces {args.baseline}")
            return 0
        print(f"{len(differences)} difference(s) against baseline:")
        for line in differences:
            print(f"  {line}")
        return 1

    # run
    pack = load_pack(args.pack)
    if args.backend not in BACKENDS:
        print(f"unknown backend {args.backend!r}; choose from {BACKENDS}")
        return 2
    only = tuple(args.only) if args.only else None
    results = run_pack(
        pack,
        backend=args.backend,
        replications=args.replications,
        root_seed=args.root_seed,
        only=only,
        progress=lambda result: print(
            f"  {result.name}: {'PASS' if result.passed else 'FAIL'}", file=sys.stderr
        ),
    )
    print(format_results_table(results))
    if args.out:
        document = results_to_document(pack.name, args.backend, args.root_seed, results)
        written = write_results(args.out, document)
        print(f"results written to {written}")
    return 0 if all(result.passed for result in results) else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    runner = _EXPERIMENTS.get(args.name)
    if runner is None:
        print(f"unknown experiment {args.name!r}; choose from {sorted(_EXPERIMENTS)}")
        return 2
    print(runner(args))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """``repro metrics summarize FILE...``: merge snapshots and print tables."""
    from repro.obs.summarize import summarize_files

    print(summarize_files(args.files))
    return 0


def _cmd_planner(args: argparse.Namespace) -> int:
    """``repro planner show|calibrate``: inspect/regenerate the calibration profile."""
    import json

    from repro.sampling.planner import default_profile_path, load_profile, save_profile

    path = args.profile or default_profile_path()
    profile = load_profile(args.profile)
    if args.planner_command == "show":
        print(f"profile  : {path}")
        print(json.dumps(profile.to_dict(), indent=2))
        return 0
    # calibrate — fold one or more BENCH_parallel.json payloads in.
    updated: list[str] = []
    for bench_file in args.bench:
        try:
            with open(bench_file, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read benchmark results {bench_file}: {exc}") from exc
        updated.extend(profile.calibrate_from_bench(payload))
    written = save_profile(profile, args.profile)
    if written is None:
        raise SystemExit(f"cannot write calibration profile to {path}")
    print(f"profile  : {written}")
    print(f"updated  : {', '.join(updated) if updated else 'nothing (no usable legs)'}")
    return 0


# --------------------------------------------------------------------------- #
# Observability wiring
# --------------------------------------------------------------------------- #
_OBS_COMMANDS = ("evaluate", "monitor", "worker", "serve")


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    """Observability options shared by ``evaluate``, ``monitor`` and ``worker``.

    Neither flag ever touches a numpy RNG stream, so instrumented runs stay
    bit-identical to uninstrumented ones.
    """
    parser.add_argument(
        "--log-json",
        default=None,
        dest="log_json",
        help="append structured JSON-lines logs (and trace spans) to this "
        "file; every record carries the run id, so master and worker logs "
        "stitch into one cross-node trace",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        dest="log_level",
        help="minimum level written to --log-json (default info; debug adds "
        "per-round allocation and per-task span records)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        dest="metrics_out",
        help="write a JSON metrics snapshot here on exit; feed one or more "
        "such files to `repro metrics summarize`",
    )


def _obs_setup(args: argparse.Namespace) -> str:
    """Configure logging/tracing from the obs flags; returns the run id."""
    from repro.obs import logging as obs_logging
    from repro.obs import trace as obs_trace

    run_id = os.urandom(6).hex()
    if getattr(args, "log_json", None):
        obs_logging.configure(
            args.log_json,
            level=args.log_level,
            run_id=run_id,
            command=args.command,
            pid=os.getpid(),
        )
        obs_trace.enable()
    return run_id


def _obs_teardown(args: argparse.Namespace, run_id: str) -> None:
    """Export the metrics snapshot (if asked) and release the log sink."""
    from repro.obs import logging as obs_logging
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    if getattr(args, "metrics_out", None):
        meta = {"run_id": run_id, "command": args.command, "pid": os.getpid()}
        node_id = getattr(args, "obs_node_id", None)
        if node_id:
            meta["node_id"] = node_id
        obs_metrics.export(args.metrics_out, meta=meta)
    if getattr(args, "log_json", None):
        obs_trace.disable()
        obs_logging.reset()


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def _add_rpc_options(parser: argparse.ArgumentParser) -> None:
    """RPC transport options shared by ``evaluate`` and ``monitor``."""
    parser.add_argument(
        "--nodes",
        default=None,
        help="comma-separated worker node addresses (host:port) for "
        "--transport rpc; start nodes with `repro worker --listen`",
    )
    parser.add_argument(
        "--secret-file",
        default=None,
        dest="secret_file",
        help="file holding the cluster's shared authentication secret for "
        "--transport rpc; must match the workers' --secret-file",
    )
    parser.add_argument(
        "--rpc-window",
        type=int,
        default=4,
        dest="rpc_window",
        help="maximum in-flight tasks per worker node for --transport rpc "
        "(default 4); never affects the trajectory, only throughput",
    )
    parser.add_argument(
        "--accept-joins",
        default=None,
        dest="accept_joins",
        help="host:port to accept late-joining `repro worker --join` "
        "registrations on for --transport rpc (port 0 picks one; printed "
        "on startup); joiners receive work from the next round on",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Efficient knowledge-graph accuracy evaluation (VLDB 2019 reproduction).",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Full documentation lives in docs/:\n"
            "  docs/architecture.md   layer-by-layer system walkthrough\n"
            "  docs/wire-protocol.md  RPC protocol v2 frames, tags, handshake\n"
            "  docs/operations.md     cluster runbook (workers, joins, metrics)\n"
            "  docs/planner.md        adaptive transport planner + calibration"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument(
        "--movie-scale",
        type=float,
        default=0.01,
        help="scale of the MOVIE-like dataset relative to the published size (default 0.01)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "datasets", parents=[common], help="print dataset characteristics (cf. Table 3)"
    )

    evaluate = subparsers.add_parser(
        "evaluate", parents=[common], help="run one accuracy evaluation"
    )
    evaluate.add_argument("--dataset", choices=_DATASETS, default="nell")
    evaluate.add_argument("--design", choices=_DESIGNS, default="twcs")
    evaluate.add_argument("--moe", type=float, default=0.05, help="margin-of-error target")
    evaluate.add_argument(
        "--confidence", type=float, default=0.95, help="confidence level (default 0.95)"
    )
    evaluate.add_argument(
        "--second-stage-size",
        "-m",
        type=int,
        default=5,
        dest="second_stage_size",
        help="TWCS second-stage cap m (default 5)",
    )
    evaluate.add_argument(
        "--backend",
        choices=("memory", "columnar", "sqlite"),
        default="memory",
        help="storage backend for the evaluated graph; 'sqlite' keeps the "
        "columns in a disk-resident WAL database (default memory)",
    )
    evaluate.add_argument(
        "--from-snapshot",
        default=None,
        dest="from_snapshot",
        help="evaluate a reopened snapshot (requires a format-v2 snapshot "
        "saved with --with-labels) instead of building --dataset",
    )
    evaluate.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan the draw loop across N shared-memory worker processes via "
        "the sharded position-surface engine (0 = sharded but in-process; "
        "default: the single-stream serial loop)",
    )
    evaluate.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count for --workers/--transport runs (default: planner "
        "decision, max(workers, 1) or the node count); part of the run's "
        "random-stream identity",
    )
    evaluate.add_argument(
        "--transport",
        choices=("auto", "serial", "shm", "rpc"),
        default="auto",
        help="execution transport for the sharded engine: 'auto' (default — "
        "a deterministic shard plan from graph stats + the MoE target, "
        "executed by whichever transport the adaptive planner predicts "
        "fastest, see docs/planner.md), 'serial' (in-process reference), "
        "'shm' (local worker processes over shared-memory CSR views, the "
        "same as --workers N), 'rpc' (remote worker nodes via --nodes); "
        "trajectories are bit-identical across transports for a fixed "
        "shard plan",
    )
    evaluate.add_argument(
        "--profile",
        default=None,
        help="planner calibration profile path for --transport auto "
        "(default ~/.cache/repro/planner.json or $REPRO_PLANNER_PROFILE); "
        "a sharded run folds its timing into the profile only when this "
        "option or $REPRO_PLANNER_PROFILE names it",
    )
    _add_rpc_options(evaluate)
    _add_obs_options(evaluate)
    evaluate.add_argument(
        "--allocation",
        choices=("proportional", "neyman"),
        default="proportional",
        help="per-round stratum allocation for --design twcs-strat runs on the "
        "sharded engine (default proportional)",
    )

    snapshot = subparsers.add_parser(
        "snapshot",
        parents=[common],
        help="build a dataset and persist it as a columnar snapshot",
    )
    snapshot.add_argument("--dataset", choices=_DATASETS, default="nell")
    snapshot.add_argument(
        "--out",
        required=True,
        help="target path: *.npz for a single archive, anything else for a "
        "memory-mappable snapshot directory (or a WAL database with "
        "--backend sqlite)",
    )
    snapshot.add_argument(
        "--backend",
        choices=("columnar", "sqlite"),
        default="columnar",
        help="persistence format: 'columnar' writes a SnapshotStore snapshot, "
        "'sqlite' writes a disk-resident WAL database that `evaluate "
        "--from-snapshot` reopens out-of-core (default columnar)",
    )
    snapshot.add_argument("--compress", action="store_true", help="compress the .npz archive")
    snapshot.add_argument(
        "--with-labels",
        action="store_true",
        dest="with_labels",
        help="store the ground-truth label array next to the graph (format v2), "
        "enabling `evaluate --from-snapshot` and monitor resume",
    )

    monitor = subparsers.add_parser(
        "monitor",
        parents=[common],
        help="monitor an evolving KG over a stream of update batches",
    )
    monitor.add_argument("--dataset", choices=_DATASETS, default="movie")
    monitor.add_argument(
        "--backend",
        choices=("memory", "columnar", "sqlite"),
        default="memory",
        help="storage backend; 'columnar' runs the position-surface evaluators "
        "with zero-copy delta updates, 'sqlite' keeps the persistent base "
        "out-of-core and derives the same columns (default memory)",
    )
    monitor.add_argument(
        "--evaluator",
        choices=("rs", "ss", "baseline"),
        default="ss",
        help="incremental evaluator: reservoir (Alg. 1), stratified (Alg. 2) "
        "or the re-evaluate-from-scratch baseline (default ss)",
    )
    monitor.add_argument(
        "--batches", type=int, default=3, help="number of update batches (default 3)"
    )
    monitor.add_argument(
        "--batch-fraction",
        type=float,
        default=0.1,
        dest="batch_fraction",
        help="update batch size as a fraction of the base KG (default 0.1)",
    )
    monitor.add_argument(
        "--update-accuracy",
        type=float,
        default=0.8,
        dest="update_accuracy",
        help="accuracy of inserted triples (default 0.8)",
    )
    monitor.add_argument("--moe", type=float, default=0.05, help="margin-of-error target")
    monitor.add_argument(
        "--confidence", type=float, default=0.95, help="confidence level (default 0.95)"
    )
    monitor.add_argument(
        "--snapshot",
        default=None,
        help="persist the base graph + labels here on the first run and reopen "
        "them on later runs (skipping the build/labelling work)",
    )
    monitor.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan the position-surface draw loops (base stratum, update "
        "segments) across N shared-memory worker processes (0 = sharded but "
        "in-process); requires --backend columnar with --evaluator rs or ss",
    )
    monitor.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count for --workers/--transport runs (default: planner "
        "decision, max(workers, 1) or the node count)",
    )
    monitor.add_argument(
        "--transport",
        choices=("auto", "serial", "shm", "rpc"),
        default="auto",
        help="execution transport for the sharded draw loops (see `evaluate "
        "--transport`; 'auto' plans adaptively on the position surface and "
        "keeps the classic loop otherwise); explicit transports require "
        "--backend columnar with --evaluator rs or ss",
    )
    monitor.add_argument(
        "--profile",
        default=None,
        help="planner calibration profile path for --transport auto "
        "(default ~/.cache/repro/planner.json or $REPRO_PLANNER_PROFILE)",
    )
    _add_rpc_options(monitor)
    _add_obs_options(monitor)

    worker = subparsers.add_parser(
        "worker",
        help="run a sampling worker node for the RPC shard transport",
    )
    worker.add_argument(
        "--listen",
        default=None,
        help="address to listen on as host:port (port 0 picks a free port, "
        "printed on startup); mutually exclusive with --join",
    )
    worker.add_argument(
        "--join",
        default=None,
        help="register with a running master's --accept-joins listener at "
        "host:port and serve it over the dialed connection (late-joining "
        "nodes receive work from the next round on); mutually exclusive "
        "with --listen",
    )
    worker.add_argument(
        "--base-dir",
        required=True,
        dest="base_dir",
        help="directory for the content-addressed snapshot shard cache "
        "(persists across connections; an unchanged graph is received once)",
    )
    worker.add_argument(
        "--secret-file",
        default=None,
        dest="secret_file",
        help="file holding the cluster's shared authentication secret; every "
        "connection must pass the mutual HMAC handshake before any task "
        "bytes flow (omit for the empty secret — loopback testing only)",
    )
    worker.add_argument(
        "--max-connections",
        type=int,
        default=None,
        dest="max_connections",
        help="exit after serving this many master connections (default: serve "
        "forever)",
    )
    worker.add_argument(
        "--task-delay",
        type=float,
        default=0.0,
        dest="task_delay",
        help="sleep this many seconds before executing each task (throttling/"
        "fault-injection aid for the chaos suite; default 0)",
    )
    _add_obs_options(worker)

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived multi-session evaluation daemon",
    )
    serve.add_argument(
        "--listen",
        default="127.0.0.1:7400",
        help="address to listen on as host:port (port 0 picks a free port, "
        "printed on startup; default 127.0.0.1:7400)",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        dest="state_dir",
        help="checkpoint directory: a draining daemon (SIGTERM) checkpoints "
        "every session here, and a restart on the same directory resumes "
        "them with bit-identical future trajectories",
    )
    serve.add_argument(
        "--secret-file",
        default=None,
        dest="secret_file",
        help="file holding the client-authentication secret; every connection "
        "must pass the mutual HMAC handshake (omit for the empty secret — "
        "loopback testing only)",
    )
    serve.add_argument(
        "--fleet-secret-file",
        default=None,
        dest="fleet_secret_file",
        help="separate secret for the worker fleet that sessions with an rpc "
        "engine dial (`repro worker` nodes); client and fleet secrets are "
        "distinct trust domains",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        dest="queue_limit",
        help="admission-queue bound: submits beyond this many queued rounds "
        "are refused with a typed backpressure error (default 16)",
    )
    serve.add_argument(
        "--root-seed",
        type=int,
        default=0,
        dest="root_seed",
        help="entropy root for the per-session SeedSequence streams handed "
        "to sessions that omit an explicit seed (default 0)",
    )
    _add_obs_options(serve)

    client_common = argparse.ArgumentParser(add_help=False)
    client_common.add_argument(
        "--connect",
        required=True,
        help="address (host:port) of the serve daemon",
    )
    client_common.add_argument(
        "--secret-file",
        default=None,
        dest="secret_file",
        help="file holding the daemon's client-authentication secret",
    )
    client = subparsers.add_parser(
        "client",
        help="talk to a running serve daemon",
    )
    client_sub = client.add_subparsers(dest="client_command", required=True)
    client_run = client_sub.add_parser(
        "run",
        parents=[common, client_common],
        help="drive one monitoring session through the daemon (the served "
        "twin of `repro monitor`; trajectories are bit-identical)",
    )
    client_run.add_argument("--dataset", choices=_DATASETS, default="movie")
    client_run.add_argument(
        "--session",
        default=None,
        help="session name (re-attaching an existing name with the same spec "
        "resumes it; default: daemon-assigned)",
    )
    client_run.add_argument(
        "--evaluator",
        choices=("rs", "ss"),
        default="ss",
        help="incremental evaluator: reservoir (Alg. 1) or stratified "
        "(Alg. 2; default ss)",
    )
    client_run.add_argument(
        "--batches", type=int, default=3, help="number of update batches (default 3)"
    )
    client_run.add_argument(
        "--batch-fraction",
        type=float,
        default=0.1,
        dest="batch_fraction",
        help="update batch size as a fraction of the base KG (default 0.1)",
    )
    client_run.add_argument(
        "--update-accuracy",
        type=float,
        default=0.8,
        dest="update_accuracy",
        help="accuracy of inserted triples (default 0.8)",
    )
    client_run.add_argument("--moe", type=float, default=0.05, help="margin-of-error target")
    client_run.add_argument(
        "--confidence", type=float, default=0.95, help="confidence level (default 0.95)"
    )
    client_run.add_argument(
        "--transport",
        choices=("serial", "shm", "rpc"),
        default=None,
        help="ask the daemon to run this session's draw loops on a specific "
        "transport (default: the daemon's classic single-stream loop)",
    )
    client_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the session's shm engine request",
    )
    client_run.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count for the session's engine request (part of the "
        "random-stream identity)",
    )
    client_run.add_argument(
        "--nodes",
        default=None,
        help="comma-separated worker addresses for --transport rpc (the "
        "daemon dials them with its --fleet-secret-file)",
    )
    client_run.add_argument(
        "--rpc-window",
        type=int,
        default=None,
        dest="rpc_window",
        help="maximum in-flight tasks per worker node for --transport rpc",
    )
    client_run.add_argument(
        "--detach",
        action="store_true",
        help="detach (and drop) the session after printing the trajectory",
    )
    client_estimate = client_sub.add_parser(
        "estimate",
        parents=[client_common],
        help="O(1) read of a session's latest cached estimate (never samples)",
    )
    client_estimate.add_argument("--session", required=True, help="session name")
    client_poll = client_sub.add_parser(
        "poll",
        parents=[client_common],
        help="block until a session's trajectory satisfies a threshold",
    )
    client_poll.add_argument("--session", required=True, help="session name")
    client_poll.add_argument(
        "--min-records",
        type=int,
        default=None,
        dest="min_records",
        help="wait until at least this many rounds completed",
    )
    client_poll.add_argument(
        "--moe-below",
        type=float,
        default=None,
        dest="moe_below",
        help="wait until the latest margin of error drops below this",
    )
    client_poll.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="maximum seconds to wait (default 30)",
    )
    client_sub.add_parser(
        "sessions",
        parents=[client_common],
        help="list the daemon's attached sessions",
    )
    client_detach = client_sub.add_parser(
        "detach",
        parents=[client_common],
        help="detach a session (refused while rounds are pending)",
    )
    client_detach.add_argument("--session", required=True, help="session name")

    metrics = subparsers.add_parser(
        "metrics",
        help="inspect metrics snapshots written by --metrics-out",
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    summarize = metrics_sub.add_parser(
        "summarize",
        help="merge snapshot files and print per-shard / per-node tables",
    )
    summarize.add_argument(
        "files",
        nargs="+",
        help="metrics snapshot JSON files (master --metrics-out plus any "
        "worker snapshots; node-less series inherit each file's node id)",
    )

    planner = subparsers.add_parser(
        "planner",
        help="inspect or recalibrate the adaptive transport planner profile",
    )
    planner_sub = planner.add_subparsers(dest="planner_command", required=True)
    planner_show = planner_sub.add_parser(
        "show", help="print the active calibration profile as JSON"
    )
    planner_show.add_argument(
        "--profile",
        default=None,
        help="profile path (default ~/.cache/repro/planner.json or "
        "$REPRO_PLANNER_PROFILE)",
    )
    planner_calibrate = planner_sub.add_parser(
        "calibrate",
        help="regenerate per-transport cost coefficients from benchmark "
        "results (BENCH_parallel.json)",
    )
    planner_calibrate.add_argument(
        "--bench",
        nargs="+",
        required=True,
        help="one or more BENCH_parallel.json payloads to calibrate from",
    )
    planner_calibrate.add_argument(
        "--profile",
        default=None,
        help="profile path to write (default ~/.cache/repro/planner.json or "
        "$REPRO_PLANNER_PROFILE)",
    )

    experiment = subparsers.add_parser(
        "experiment", parents=[common], help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.add_argument("--trials", type=int, default=5, help="randomised trials (default 5)")

    scenario = subparsers.add_parser(
        "scenario",
        help="run declarative stress-scenario packs with statistical coverage gates",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_run = scenario_sub.add_parser(
        "run",
        help="execute a pack's seeded replications and gate coverage/MoE/cost",
    )
    scenario_run.add_argument(
        "--pack",
        default="builtin-smoke",
        help="built-in pack name (builtin-full, builtin-smoke) or a "
        ".json/.toml pack file (default builtin-smoke)",
    )
    scenario_run.add_argument(
        "--backend",
        choices=("memory", "columnar", "sqlite"),
        default="memory",
        help="storage backend the replications run on (default memory); "
        "trajectory digests are bit-identical across backends",
    )
    scenario_run.add_argument(
        "--out",
        default=None,
        help="write a deterministic SCENARIOS_*.json result document here "
        "(feed it to `repro scenario compare`)",
    )
    scenario_run.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this scenario (repeatable)",
    )
    scenario_run.add_argument(
        "--replications",
        type=int,
        default=None,
        help="override every scenario's replication count (default: as declared)",
    )
    scenario_run.add_argument(
        "--root-seed",
        type=int,
        default=0,
        dest="root_seed",
        help="root seed mixed into every per-replication seed (default 0)",
    )
    scenario_compare = scenario_sub.add_parser(
        "compare",
        help="diff a result file against a committed baseline (exit 1 on drift)",
    )
    scenario_compare.add_argument("baseline", help="baseline SCENARIOS_*.json")
    scenario_compare.add_argument("current", help="current SCENARIOS_*.json")
    scenario_compare.add_argument(
        "--float-tolerance",
        type=float,
        default=1e-9,
        dest="float_tolerance",
        help="absolute tolerance for float fields (default 1e-9); digests and "
        "coverage counts always compare exactly",
    )
    scenario_list = scenario_sub.add_parser(
        "list", help="list the built-in packs, or the scenarios inside one pack"
    )
    scenario_list.add_argument(
        "--pack",
        default=None,
        help="pack to list scenarios for (built-in name or .json/.toml file)",
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "evaluate": _cmd_evaluate,
        "snapshot": _cmd_snapshot,
        "monitor": _cmd_monitor,
        "experiment": _cmd_experiment,
        "worker": _cmd_worker,
        "serve": _cmd_serve,
        "client": _cmd_client,
        "metrics": _cmd_metrics,
        "planner": _cmd_planner,
        "scenario": _cmd_scenario,
    }
    handler = handlers.get(args.command)
    if handler is None:
        parser.print_help()
        return 2
    if args.command not in _OBS_COMMANDS:
        return handler(args)
    run_id = _obs_setup(args)
    try:
        return handler(args)
    finally:
        # Runs on clean exit, errors and SIGTERM (the worker converts it to
        # SystemExit), so --metrics-out snapshots survive orderly shutdowns.
        _obs_teardown(args, run_id)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

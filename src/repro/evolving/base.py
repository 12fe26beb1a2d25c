"""Common interface of the evolving-KG evaluators."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.config import EvaluationConfig
from repro.core.result import EvaluationReport
from repro.cost.annotator import PositionAnnotationAccount, SimulatedAnnotator
from repro.cost.model import CostModel
from repro.generators.datasets import LabelledKG
from repro.kg.updates import EvolvingKnowledgeGraph, UpdateBatch
from repro.labels.oracle import LabelOracle
from repro.obs import metrics as obs_metrics
from repro.sampling.segment import PositionSegment

__all__ = ["UpdateEvaluation", "IncrementalEvaluator"]

_SURFACES = ("object", "position")


@dataclass(frozen=True)
class UpdateEvaluation:
    """The outcome of evaluating one KG state (base or after an update batch).

    Attributes
    ----------
    batch_id:
        ``"base"`` for the initial evaluation, otherwise the update batch id.
    report:
        The evaluation report for this state; its cost fields cover only the
        *incremental* work done for this state (annotations reused from
        earlier states cost nothing).
    cumulative_cost_seconds:
        Total annotation cost spent since the evaluator was created.
    """

    batch_id: str
    report: EvaluationReport
    cumulative_cost_seconds: float

    @property
    def accuracy(self) -> float:
        """Point estimate of overall KG accuracy at this state."""
        return self.report.accuracy

    @property
    def incremental_cost_hours(self) -> float:
        """Annotation hours spent specifically for this state."""
        return self.report.annotation_cost_hours

    @property
    def cumulative_cost_hours(self) -> float:
        """Annotation hours spent since the evaluator was created."""
        return self.cumulative_cost_seconds / 3600.0


class IncrementalEvaluator(ABC):
    """Base class for evaluators that track an evolving knowledge graph.

    Subclasses are constructed around a labelled base KG and then fed update
    batches one at a time.  They own an annotator whose session spans the
    whole lifetime of the evaluator, so annotations paid for earlier states
    are naturally reused (or deliberately discarded, in the Baseline's case).

    Parameters
    ----------
    base:
        The labelled base knowledge graph ``G``.
    config:
        Quality requirement applied to every state (default: 5 % MoE, 95 %).
    cost_model:
        Annotation cost parameters (default: the paper's fitted c1/c2).
    second_stage_size:
        TWCS second-stage cap ``m`` used by all evaluators.
    seed:
        Seed for all randomness (sampling and reservoir keys).
    surface:
        ``"object"`` (default) — annotation flows through Triple objects and
        a :class:`~repro.cost.annotator.SimulatedAnnotator`, the seed
        behaviour.  ``"position"`` — sampling, labels and cost accounting run
        on integer triple positions and boolean label arrays, with update
        batches handled as appended CSR segments; on a columnar base the
        evolved graph is a zero-copy
        :class:`~repro.storage.delta.DeltaStore` view.  Position-mode runs
        consume the random stream identically on every storage backend, so a
        fixed seed yields bit-identical estimates across backends.
    position_labels:
        Ground-truth labels for the base graph as a position-aligned boolean
        array (position mode only).  When omitted it is derived from the base
        oracle with one O(M) pass; passing it (e.g. from a format-v2 snapshot)
        skips that pass entirely.
    workers:
        Position mode only.  ``None`` (default) keeps the single-stream
        serial draw loops.  ``0`` routes the parallelisable draw loops (base
        stratum, update segments) through the sharded engine executed
        in-process — the parity reference; ``>= 1`` fans them across that
        many shared-memory worker processes.  For a fixed ``num_shards`` every setting of
        ``workers >= 0`` yields bit-identical estimate trajectories.
    num_shards:
        Shard count for the sharded draw loops (default: the transport's
        node/worker count when one is given, else ``max(workers, 1)``);
        part of the run's random-stream identity.
    transport:
        Position mode only.  An explicit
        :class:`~repro.sampling.parallel.ShardTransport` the sharded draw
        loops execute on — e.g. a
        :class:`~repro.sampling.rpc.SocketRPCTransport` over remote worker
        nodes (with shared-secret auth via ``secret=``, task pipelining via
        ``window=`` and late-joining workers via ``join_address=`` — none
        of which perturb the trajectory).  Mutually exclusive with
        ``workers``; for a fixed ``num_shards`` every transport yields
        bit-identical estimate trajectories (serial == shm == RPC,
        regardless of window size, node churn or work stealing).  The
        evaluator owns the transport: :meth:`close` closes it.
    compact_threshold:
        When set and the evolving graph is delta-backed, re-freeze the tail
        into the base whenever it outgrows this fraction of the base
        (:meth:`~repro.storage.delta.DeltaStore.maybe_compact`).  Compaction
        preserves every position, row and per-cluster order, so estimate
        trajectories are bit-identical either way — but a compacted run can
        no longer be captured as snapshot-v3 evaluator state (the tail has
        been folded into the base).
    """

    def __init__(
        self,
        base: LabelledKG,
        config: EvaluationConfig | None = None,
        cost_model: CostModel | None = None,
        second_stage_size: int = 5,
        seed: int | None = None,
        surface: str = "object",
        position_labels: np.ndarray | None = None,
        workers: int | None = None,
        num_shards: int | None = None,
        transport=None,
        compact_threshold: float | None = None,
    ) -> None:
        if surface not in _SURFACES:
            raise ValueError(f"surface must be one of {_SURFACES}, got {surface!r}")
        if (workers is not None or transport is not None) and surface != "position":
            raise ValueError("workers/transport requires surface='position'")
        if workers is not None and transport is not None:
            raise ValueError("pass either workers= or transport=, not both")
        self.config = config if config is not None else EvaluationConfig()
        self.second_stage_size = second_stage_size
        self.seed = seed
        self.surface = surface
        self.workers = workers
        self.transport = transport
        if num_shards is not None:
            self.num_shards = num_shards
        elif transport is not None and getattr(transport, "default_shards", None):
            # A multi-node transport defaults to one shard per node, so the
            # distribution the caller configured is actually exercised.
            self.num_shards = transport.default_shards
        else:
            self.num_shards = max(workers or 1, 1)
        self._executor = None
        self.evolving = EvolvingKnowledgeGraph(base.graph, compact_threshold=compact_threshold)
        # Vocabulary size of the untouched base, recorded before any batch
        # interns new strings; state persistence (snapshot format v3) uses it
        # to capture exactly the strings an update stream added.
        vocab = getattr(base.graph.backend, "vocab", None)
        self._base_vocab_size = len(vocab) if vocab is not None else None
        if surface == "position":
            # The oracle is only read (never extended) in position mode: the
            # ground truth lives in the position-aligned label array, which is
            # extended per batch instead.
            self.oracle = base.oracle
            if position_labels is not None:
                labels = np.asarray(position_labels, dtype=bool)
                if labels.shape[0] != base.graph.num_triples:
                    raise ValueError(
                        "position_labels must be aligned with the base graph "
                        f"({labels.shape[0]} labels, "
                        f"{base.graph.num_triples} triples)"
                    )
            else:
                labels = base.oracle.as_position_array(base.graph)
            self._set_labels(labels)
            self._account: PositionAnnotationAccount | None = PositionAnnotationAccount(cost_model)
        else:
            # A private copy (the oracle is extended per batch) that keeps the
            # base oracle's strictness.
            self.oracle = LabelOracle(base.oracle.mapping, strict=base.oracle.strict)
            self._labels = None
            self._account = None
        # Object mode only: number of triples of the evolved graph the oracle
        # labels correct.  Built by one full pass on the first
        # current_true_accuracy() read, then kept current by _register_update.
        self._true_correct: int | None = None
        self.annotator = SimulatedAnnotator(self.oracle, cost_model=cost_model, seed=seed)
        self.history: list[UpdateEvaluation] = []
        # Cost charged in annotator sessions that have since been reset (only
        # the Baseline resets sessions); added back so cumulative cost is
        # monotone across snapshots for every evaluator.
        self._discarded_cost_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @abstractmethod
    def evaluate_base(self) -> UpdateEvaluation:
        """Evaluate the base graph ``G`` and remember the result."""

    @abstractmethod
    def apply_update(self, batch: UpdateBatch, batch_oracle: LabelOracle) -> UpdateEvaluation:
        """Apply one insertion batch and re-evaluate ``G + Δ`` incrementally."""

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    @property
    def position_mode(self) -> bool:
        """Whether this evaluator runs on the position surface."""
        return self.surface == "position"

    @property
    def parallel_mode(self) -> bool:
        """Whether draw loops route through the sharded engine."""
        return self.workers is not None or self.transport is not None

    def executor(self):
        """The lazily created shard executor over the base graph (parallel mode)."""
        if self._executor is None:
            from repro.sampling.parallel import ParallelSamplingExecutor

            self._executor = ParallelSamplingExecutor(
                self.evolving.base,
                workers=self.workers or None,
                num_shards=self.num_shards,
                transport=self.transport,
            )
        return self._executor

    def close(self) -> None:
        """Shut down the worker pool, if one was started."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    @property
    def labels(self) -> np.ndarray | None:
        """Position-aligned ground-truth labels (position mode only)."""
        return self._labels

    @property
    def account(self) -> PositionAnnotationAccount | None:
        """The position-surface cost account (position mode only)."""
        return self._account

    def _register_update(self, batch: UpdateBatch, batch_oracle: LabelOracle) -> list[bool]:
        """Record the batch in the evolving graph and extend the oracle.

        Returns the per-triple added flags (``False`` for duplicates the
        graph already contained).  Once the ground-truth count exists it is
        brought up to date here in O(|batch| + |batch oracle|).
        """
        correct = self._true_correct
        # Dropped until the update is fully counted: a strict lookup that
        # raises below leaves it for the next read to rebuild.
        self._true_correct = None
        if correct is not None:
            correct += self._relabel_delta(batch_oracle)
        self.oracle.extend(batch_oracle)
        flags = self.evolving.apply(batch)
        if correct is not None:
            label = self.oracle.label
            try:
                correct += sum(
                    1 for triple, added in zip(batch.triples, flags) if added and label(triple)
                )
            except KeyError:
                return flags
            self._true_correct = correct
        return flags

    def _relabel_delta(self, batch_oracle: LabelOracle) -> int:
        """Change in the correct count when ``batch_oracle`` relabels graph triples.

        Batch labels win on conflict, so a triple already in the graph whose
        label flips moves the count by one.  Runs before the oracle is
        extended and the batch applied.
        """
        labels = self.oracle.mapping
        # Unknown triples count as correct under a non-strict oracle.  Under
        # a strict one the existing count proves every graph triple is
        # labelled, so an unknown triple cannot be in the graph.
        default = None if self.oracle.strict else True
        graph = self.evolving.current
        delta = 0
        for triple, new in batch_oracle.mapping.items():
            old = labels.get(triple, default)
            if old is not None and bool(old) != bool(new) and triple in graph:
                delta += 1 if new else -1
        return delta

    def _set_labels(self, labels: np.ndarray) -> None:
        """Adopt ``labels`` as the position-mode ground truth.

        ``_labels`` is always the ``[:n]`` view of a buffer that grows by
        doubling, so appending a batch copies only the batch plus an
        amortised O(1) share of the regrowths; ``_labels_correct`` counts its
        ``True`` entries.  Arrays handed out earlier keep their contents:
        appends only write past their end, and ``labels`` itself is never
        written (the first append moves to a new buffer).
        """
        self._label_buffer = np.asarray(labels, dtype=bool)
        self._labels = self._label_buffer
        self._labels_correct = int(np.count_nonzero(self._labels))

    def _append_update(self, batch: UpdateBatch, batch_oracle: LabelOracle) -> PositionSegment:
        """Position-mode twin of :meth:`_register_update`.

        Applies the batch, extends the label array with the batch's ground
        truth and returns the appended CSR segment the evaluator samples.
        """
        assert self._labels is not None
        first_position = self.evolving.current.num_triples
        flags = self.evolving.apply(batch)
        segment = PositionSegment.from_batch(batch.triples, flags, first_position)
        batch_labels = np.fromiter(
            (
                batch_oracle.label(triple)
                for triple, added in zip(batch.triples, flags)
                if added
            ),
            dtype=bool,
            count=segment.num_triples,
        )
        size = self._labels.shape[0]
        end = size + batch_labels.shape[0]
        if end > self._label_buffer.shape[0]:
            grown = np.empty(max(end, 2 * self._label_buffer.shape[0]), dtype=bool)
            grown[:size] = self._labels
            self._label_buffer = grown
        self._label_buffer[size:end] = batch_labels
        self._labels = self._label_buffer[:end]
        self._labels_correct += int(np.count_nonzero(batch_labels))
        return segment

    def current_true_accuracy(self) -> float:
        """Exact accuracy of the evolved graph under the ground truth.

        An O(1) read of a running correct-triple count on both surfaces.  In
        position mode the count is kept with the label array, and the value is
        the float ``labels.mean()`` returns (a float64 sum of 0/1 values is
        exact).  In object mode only the first read (or the first after a
        strict lookup failed mid-batch) builds the count with one O(M) oracle
        pass, and the value equals ``oracle.true_accuracy(evolving.current)``.
        """
        if self._labels is not None:
            if self._labels.shape[0] == 0:
                return 0.0
            return self._labels_correct / self._labels.shape[0]
        graph = self.evolving.current
        if self._true_correct is None:
            self._true_correct = self.oracle.count_correct(graph)
        if graph.num_triples == 0:
            return 0.0
        return self._true_correct / graph.num_triples

    # ------------------------------------------------------------------ #
    # Unified cost accounting across surfaces
    # ------------------------------------------------------------------ #
    def _cost_totals(self) -> tuple[float, int, int]:
        """Current ``(cost_seconds, triples_annotated, entities_identified)``."""
        if self._account is not None:
            return (
                self._account.total_cost_seconds,
                self._account.total_triples_annotated,
                self._account.entities_identified,
            )
        return (
            self.annotator.total_cost_seconds,
            self.annotator.total_triples_annotated,
            self.annotator.entities_identified,
        )

    def _report_fields(self, totals_before: tuple[float, int, int]) -> tuple[int, int, float]:
        """Incremental ``(triples, entities, cost_seconds)`` since ``totals_before``."""
        cost_now, triples_now, entities_now = self._cost_totals()
        cost_before, triples_before, entities_before = totals_before
        return (
            triples_now - triples_before,
            entities_now - entities_before,
            cost_now - cost_before,
        )

    def _record(self, batch_id: str, report: EvaluationReport) -> UpdateEvaluation:
        cost_now, triples_now, entities_now = self._cost_totals()
        # Annotation-cost deltas since the previous recorded state: the
        # counters advance batch by batch even though the account only
        # exposes cumulative totals.
        last_cost, last_triples, last_entities = getattr(
            self, "_obs_last_totals", (0.0, 0, 0)
        )
        kind = type(self).__name__
        obs_metrics.counter("annotation_cost_seconds_total", evaluator=kind).inc(
            max(0.0, cost_now - last_cost)
        )
        obs_metrics.counter("annotation_triples_total", evaluator=kind).inc(
            max(0, triples_now - last_triples)
        )
        obs_metrics.counter("annotation_entities_total", evaluator=kind).inc(
            max(0, entities_now - last_entities)
        )
        self._obs_last_totals = (cost_now, triples_now, entities_now)
        evaluation = UpdateEvaluation(
            batch_id=batch_id,
            report=report,
            cumulative_cost_seconds=cost_now + self._discarded_cost_seconds,
        )
        self.history.append(evaluation)
        return evaluation

    @property
    def latest(self) -> UpdateEvaluation:
        """The most recent evaluation result.

        Raises
        ------
        IndexError
            If no evaluation has been performed yet.
        """
        return self.history[-1]

    @property
    def total_cost_hours(self) -> float:
        """Total annotation hours spent by this evaluator so far."""
        return (self._cost_totals()[0] + self._discarded_cost_seconds) / 3600.0

"""Parallel shard-per-CSR-range draw engine for the position surface.

Every cluster design's draw loop decomposes over a
:class:`~repro.storage.shard.ShardPlan`: shard ``k`` owns a contiguous row
range of the CSR index, draws first-stage clusters inside that range with its
own random stream, and runs the second stage on its own zero-copy slice.
:class:`ParallelSamplingExecutor` fans those per-shard loops across a
transport and merges the per-shard accumulators deterministically.

Determinism contract
--------------------
A :class:`SamplingRun` is a pure function of ``(graph CSR, label array,
design, plan, seed)``:

* the root :class:`numpy.random.SeedSequence` is spawned once per shard task
  (``root.spawn(num_tasks)``); shard streams continue across rounds (workers
  return the generator state, the master threads it into the next round's
  task), so no draw depends on which process executed an earlier round;
* the number of draws each shard receives per round is allocated
  deterministically (largest-remainder, proportional to shard triple/entity
  mass) — no randomness crosses shard boundaries;
* label sums, estimator updates and Eq. (4) cost accounting happen on the
  master, folding per-shard results in shard order.

Consequently a run executed by worker processes is **bit-identical** — same
estimates, same cost accounting — to the same run executed serially
in-process (``workers=None``), on every storage backend, regardless of
worker count or OS scheduling.  The random stream *does* depend on the shard
count ``K``: a plan is part of a run's identity.

Transports
----------
*Planning* (which shard draws what, in which stream) is separated from
*execution transport* (where a :class:`ShardTask` actually runs).  A
:class:`ShardTransport` executes self-contained tasks and returns their
:class:`ShardResult`\\ s in task order; because a result is a pure function
of ``(task, bound CSR index)``, swapping the transport can never change a
trajectory.  Three implementations exist:

* :class:`SerialTransport` — runs every task in-process; the reference.
* :class:`~repro.sampling.shm.SharedMemoryTransport` — fans tasks across a
  local worker pool that maps the CSR index from shared memory (what
  ``workers=N`` builds).
* :class:`~repro.sampling.rpc.SocketRPCTransport` — streams tasks to remote
  worker nodes over a schema'd, CRC-framed binary protocol
  (:mod:`repro.sampling.wire` — no pickle on the wire), with mutual
  HMAC shared-secret authentication on connect, a per-node in-flight task
  window (pipelining + work stealing from slow nodes), and elastic
  membership (``repro worker --join`` registers with a running master);
  the CSR index ships content-addressed exactly once per node
  (``repro worker --listen``).

Because a result is a pure function of ``(task, bound CSR index)``, a
transport may execute a task *more than once* (drop reassignment, work
stealing) — every copy yields the identical bytes, so exactly-once
execution is not part of the contract; exactly-once *merging* is.

Local workers map the CSR index from named shared-memory segments; remote
nodes re-open it memory-mapped from a content-addressed snapshot.  Labels
never leave the master.
"""

from __future__ import annotations

import math
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.cost.model import CostModel
from repro.kg.graph import _floyd_sample_batch
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.logging import get_logger
from repro.obs.trace import TraceContext
from repro.sampling.base import Estimate, draw_weighted, weighted_cdf
from repro.sampling.planner import available_cpus
from repro.stats.allocation import (
    largest_remainder,
    neyman_allocation,
    proportional_allocation,
)
from repro.stats.running import RunningMean
from repro.storage.shard import ShardPlan, ShardView

__all__ = [
    "ParallelSamplingExecutor",
    "SamplingRun",
    "ShardDraw",
    "CostSummary",
    "PARALLEL_DESIGNS",
    "ShardSource",
    "ShardTask",
    "ShardResult",
    "ShardTransport",
    "SerialTransport",
]

#: Designs the engine can fan out (plus ``"twcs-strat"`` via ``strata=``).
PARALLEL_DESIGNS = ("srs", "rcs", "wcs", "twcs", "tsrcs")

_WOR_DESIGNS = ("srs", "rcs")

_log = get_logger("sampling.engine")
_task_log = get_logger("sampling.task")


def _load_snapshot_csr(path: str) -> tuple[np.ndarray, np.ndarray]:
    base = Path(path)
    return (
        np.load(base / "cluster_offsets.npy", mmap_mode="r"),
        np.load(base / "cluster_positions.npy", mmap_mode="r"),
    )


# --------------------------------------------------------------------------- #
# Tasks and results
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardSource:
    """Where a task's clusters live.

    ``kind``:
      * ``"range"`` — global rows ``[lo, hi)`` of the attached CSR index;
      * ``"rows"`` — an explicit array of global rows of the attached index
        (stratified sampling, fixed-row fan-out);
      * ``"csr"`` — a self-contained local CSR pair carried by the task
        itself (update segments), whose position values stay global.
    """

    kind: str
    lo: int = 0
    hi: int = 0
    rows: np.ndarray | None = None
    offsets: np.ndarray | None = None
    positions: np.ndarray | None = None


@dataclass(frozen=True)
class ShardTask:
    """One round of draws for one shard — self-contained and picklable.

    ``trace`` is observability-only context (the master's round span); it
    never feeds the draw and defaults to None, in which case the wire
    encoding is byte-identical to the pre-trace protocol.
    """

    index: int
    design: str
    source: ShardSource
    count: int
    cap: int
    rng_state: dict | None
    perm_seed: np.random.SeedSequence | None
    cursor: int
    trace: TraceContext | None = None


@dataclass(frozen=True)
class ShardResult:
    index: int
    rows: np.ndarray
    counts: np.ndarray
    sizes: np.ndarray
    positions: np.ndarray
    rng_state: dict | None
    cursor: int
    elapsed: float
    trace: TraceContext | None = None


@dataclass(frozen=True)
class ShardDraw:
    """The units one shard contributed to a :meth:`SamplingRun.step` round.

    Attributes
    ----------
    shard:
        Task index within the run (shard order).
    rows:
        Per-unit cluster keys: global entity rows for graph-backed runs,
        segment-local cluster indices for segment runs, ``-1`` for SRS.
    counts:
        Per-unit number of selected positions.
    positions:
        The selected global triple positions, unit by unit (flat; split by
        ``counts``).
    sums:
        Per-unit correct-label sums under the run's label array.
    """

    shard: int
    rows: np.ndarray
    counts: np.ndarray
    positions: np.ndarray
    sums: np.ndarray

    @property
    def num_units(self) -> int:
        return int(self.counts.shape[0])

    def unit_positions(self) -> list[np.ndarray]:
        """Split :attr:`positions` back into per-unit arrays."""
        return np.split(self.positions, np.cumsum(self.counts)[:-1])


@dataclass(frozen=True)
class CostSummary:
    """Eq. (4) annotation cost of everything a run has drawn so far."""

    entities_identified: int
    triples_annotated: int
    cost_seconds: float

    @property
    def cost_hours(self) -> float:
        return self.cost_seconds / 3600.0


# --------------------------------------------------------------------------- #
# Worker draw core (pure functions of task + attachment)
# --------------------------------------------------------------------------- #
def _second_stage(
    starts: np.ndarray, sizes: np.ndarray, cap: int | None, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster second stage: distinct indices into the positions array.

    ``cap=None`` keeps whole clusters (WCS/RCS); otherwise clusters larger
    than ``cap`` are Floyd-subsampled exactly like the serial batch sampler.
    Returns ``(counts, flat_index)``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if starts.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if cap is None:
        counts = sizes.copy()
        parts = [starts[i] + np.arange(sizes[i], dtype=np.int64) for i in range(starts.shape[0])]
        return counts, np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    counts = np.minimum(sizes, cap)
    parts: list[np.ndarray | None] = [None] * starts.shape[0]
    large = sizes > cap
    for i in np.flatnonzero(~large):
        parts[i] = starts[i] + np.arange(sizes[i], dtype=np.int64)
    large_indices = np.flatnonzero(large)
    if large_indices.size:
        picks = _floyd_sample_batch(sizes[large_indices], cap, rng)
        chosen = starts[large_indices][:, None] + picks
        for j, i in enumerate(large_indices):
            parts[i] = chosen[j]
    return counts, np.concatenate(parts)


#: Worker-side cache of WOR permutations, keyed per (stream, span): SRS/RCS
#: tasks reuse one fixed permutation across rounds instead of regenerating an
#: O(shard population) array per step.
_PERM_CACHE: dict[tuple, np.ndarray] = {}
_PERM_CACHE_LIMIT = 32


def _wor_permutation(perm_seed: np.random.SeedSequence, span: int) -> np.ndarray:
    key = (perm_seed.entropy, perm_seed.spawn_key, span)
    permutation = _PERM_CACHE.get(key)
    if permutation is None:
        if len(_PERM_CACHE) >= _PERM_CACHE_LIMIT:
            _PERM_CACHE.clear()
        permutation = np.random.default_rng(perm_seed).permutation(span)
        _PERM_CACHE[key] = permutation
    return permutation


#: Per-thread scratch generator whose state each task overwrites with its
#: stream's state; RPC workers serve tasks on threads, so one per thread.
_SCRATCH = threading.local()


def _task_rng(state: dict | None) -> np.random.Generator:
    """A generator positioned at ``state`` (fresh OS entropy when ``None``)."""
    if state is None:
        return np.random.default_rng()
    rng = getattr(_SCRATCH, "rng", None)
    if rng is None:
        rng = _SCRATCH.rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return rng


def _run_task(task: ShardTask, attached: tuple[np.ndarray, np.ndarray] | None) -> ShardResult:
    started = time.perf_counter()
    # Child span context for this task: observability-only, derived from
    # os.urandom — the numpy streams below never see it.
    task_trace = obs_trace.child_context(task.trace) if task.trace is not None else None
    source = task.source
    view: ShardView | None = None
    rows_explicit = None
    if source.kind == "csr":
        view = ShardView(offsets=source.offsets, positions=source.positions, row_start=0)
    else:
        assert attached is not None, "graph-backed task executed without a CSR attachment"
        offsets_g, positions_g = attached
        if source.kind == "range":
            view = ShardView.from_csr(offsets_g, positions_g, source.lo, source.hi)
        else:  # "rows" — non-contiguous, sampled off the attached index directly
            rows_explicit = np.asarray(source.rows, dtype=np.int64)
    if view is not None:
        starts_all = view.local_offsets()[:-1]
        sizes_all = view.sizes()
        positions = view.positions
        row_base = view.row_start
    else:
        offsets_64 = np.asarray(offsets_g)
        starts_all = offsets_64[rows_explicit].astype(np.int64)
        sizes_all = offsets_64[rows_explicit + 1].astype(np.int64) - starts_all
        positions = positions_g
        row_base = 0

    rng = _task_rng(task.rng_state)

    design = task.design
    cursor = task.cursor
    num_rows = int(starts_all.shape[0])
    sizes = None
    if design == "fixed":
        local = np.arange(num_rows, dtype=np.int64)
        counts, flat = _second_stage(starts_all, sizes_all, task.cap, rng)
    elif design == "srs":
        assert view is not None
        perm = _wor_permutation(task.perm_seed, view.num_triples)
        chosen = perm[cursor : cursor + task.count]
        cursor += int(chosen.shape[0])
        flat = chosen.astype(np.int64)
        counts = np.ones(chosen.shape[0], dtype=np.int64)
        local = np.full(chosen.shape[0], -1, dtype=np.int64)
        sizes = counts
    elif design == "rcs":
        perm = _wor_permutation(task.perm_seed, num_rows)
        local = perm[cursor : cursor + task.count].astype(np.int64)
        cursor += int(local.shape[0])
        counts, flat = _second_stage(starts_all[local], sizes_all[local], None, rng)
    elif design in ("wcs", "twcs"):
        weights = sizes_all.astype(np.float64)
        weights /= weights.sum()
        local = draw_weighted(rng, weighted_cdf(weights), task.count)
        cap = None if design == "wcs" else task.cap
        counts, flat = _second_stage(starts_all[local], sizes_all[local], cap, rng)
    elif design == "tsrcs":
        local = rng.integers(0, num_rows, size=task.count)
        counts, flat = _second_stage(starts_all[local], sizes_all[local], task.cap, rng)
    else:  # pragma: no cover - guarded by SamplingRun
        raise ValueError(f"unknown shard design {design!r}")

    if design == "srs":
        rows = local
    elif rows_explicit is not None:
        rows = rows_explicit[local]
    else:
        rows = row_base + local
    if sizes is None:
        sizes = sizes_all[local] if design != "fixed" else sizes_all
    elapsed = time.perf_counter() - started
    if _task_log.enabled_for("debug"):
        _task_log.debug(
            "shard_task",
            shard=task.index,
            design=design,
            count=int(task.count),
            elapsed=round(elapsed, 6),
            trace_id=task_trace.trace_id if task_trace else None,
            span_id=task_trace.span_id if task_trace else None,
            parent_id=task.trace.span_id if task.trace else None,
        )
    return ShardResult(
        index=task.index,
        rows=np.asarray(rows, dtype=np.int64),
        counts=np.asarray(counts, dtype=np.int64),
        sizes=np.asarray(sizes, dtype=np.int64),
        positions=np.asarray(positions)[flat].astype(np.int64),
        rng_state=rng.bit_generator.state,
        cursor=cursor,
        elapsed=elapsed,
        trace=task_trace,
    )


def _unit_label_sums(counts: np.ndarray, positions: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-unit correct-label sums via one gather + prefix-sum differences."""
    if counts.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    correct = labels[positions].astype(np.float64)
    prefix = np.concatenate(([0.0], np.cumsum(correct)))
    ends = np.cumsum(counts)
    return prefix[ends] - prefix[ends - counts]


# --------------------------------------------------------------------------- #
# Transports: where shard tasks execute
# --------------------------------------------------------------------------- #
class ShardTransport(ABC):
    """Executes :class:`ShardTask`\\ s somewhere and returns their results.

    Lifecycle: :meth:`bind` is called once with the master's CSR index
    before any task runs; :meth:`execute` is called once per round with a
    list of self-contained tasks and must return the matching
    :class:`ShardResult`\\ s **in task order**; :meth:`close` releases
    whatever the transport holds (pools, sockets).

    Contract: a result is a pure function of ``(task, bound CSR index)`` —
    every transport must produce bit-identical results for the same bound
    index and task list, so serial == shm == RPC trajectories hold by
    construction and are enforced by the parity suites.
    """

    #: Stable short name for planner decisions, shard stats and metrics
    #: labels (``"serial"``, ``"shm"``, ``"rpc"``).
    kind = "unknown"

    def bind(self, offsets: np.ndarray, positions: np.ndarray) -> None:
        """Attach the transport to the run population's CSR index.

        Each call advances :attr:`bind_generation`; executors record the
        generation they bound and refuse to execute after another executor
        re-binds the transport, so two live executors can never silently
        run tasks against each other's index.
        """
        self._offsets = offsets
        self._positions = positions
        self.bind_generation = getattr(self, "bind_generation", 0) + 1

    @property
    def default_shards(self) -> int | None:
        """Natural shard count for this transport (worker/node count).

        ``None`` when the transport has no parallelism to size against
        (serial); callers fall back to their own default.  Only a *default*
        — the shard count is part of a run's random-stream identity, so
        callers comparing trajectories must fix it explicitly.
        """
        return None

    @abstractmethod
    def execute(self, tasks: list[ShardTask]) -> list[ShardResult]:
        """Run every task and return results aligned with the input order."""

    def close(self) -> None:
        """Release transport resources; the transport may be re-bound later."""


class SerialTransport(ShardTransport):
    """In-process execution of the sharded plan — the parity reference.

    Identical draws to every other transport, no processes, no sockets; the
    default when an executor is created without ``workers`` or
    ``transport``.
    """

    kind = "serial"

    def execute(self, tasks: list[ShardTask]) -> list[ShardResult]:
        attached = (self._offsets, self._positions)
        return [_run_task(task, attached) for task in tasks]


# --------------------------------------------------------------------------- #
# The run: per-shard streams + deterministic master-side merge
# --------------------------------------------------------------------------- #
class SamplingRun:
    """One sharded draw/estimate session over a fixed population.

    Create through :meth:`ParallelSamplingExecutor.run`.  Each
    :meth:`step` fans one round of first/second-stage draws across the
    shards and folds the results — estimator state, Eq. (4) cost masks —
    in shard order on the master, so the outcome is independent of worker
    scheduling (see the module docstring for the full contract).
    """

    def __init__(
        self,
        executor: "ParallelSamplingExecutor",
        design: str,
        label_array: np.ndarray,
        plan: ShardPlan,
        seed,
        second_stage_size: int = 5,
        cost_model: CostModel | None = None,
        segment=None,
        strata: list[np.ndarray] | None = None,
        allocation: str = "proportional",
    ) -> None:
        if design == "twcs-strat" and strata is None:
            raise ValueError("design 'twcs-strat' requires strata row arrays")
        if strata is not None:
            design = "twcs-strat"
        elif design not in PARALLEL_DESIGNS:
            raise ValueError(f"unknown design {design!r}; choose from {PARALLEL_DESIGNS}")
        if second_stage_size < 1:
            raise ValueError("second_stage_size must be at least 1")
        if allocation not in ("proportional", "neyman"):
            raise ValueError(
                f"allocation must be 'proportional' or 'neyman', got {allocation!r}"
            )
        if allocation == "neyman" and design != "twcs-strat":
            raise ValueError("allocation='neyman' requires a stratified run (strata=)")
        self.design = design
        self.allocation = allocation
        self.second_stage_size = second_stage_size
        self.plan = plan
        self._executor = executor
        self._labels = np.asarray(label_array, dtype=bool)
        self._cost_model = cost_model if cost_model is not None else CostModel()
        self._segment = segment

        # Build the task sources (one per shard; strata multiply them).
        self._sources: list[ShardSource] = []
        self._task_strata: list[int] = []
        self._stratum_weights: list[float] = []
        self._source_entities = 0
        self._source_triples = 0
        if segment is not None:
            seg_offsets = np.asarray(segment.offsets, dtype=np.int64)
            seg_positions = np.asarray(segment.positions, dtype=np.int64)
            seg_plan = ShardPlan.from_offsets(seg_offsets, plan.num_shards or 1)
            self._row_offsets: list[int] = []
            for shard in range(seg_plan.num_shards):
                lo, hi = seg_plan.row_range(shard)
                base = int(seg_offsets[lo])
                self._sources.append(
                    ShardSource(
                        kind="csr",
                        offsets=seg_offsets[lo : hi + 1] - base,
                        positions=seg_positions[base : int(seg_offsets[hi])],
                    )
                )
                self._row_offsets.append(lo)
                self._task_strata.append(0)
            self._source_entities = seg_plan.num_entities
            self._source_triples = seg_plan.num_triples
        elif strata is not None:
            offsets = executor.offsets
            for stratum_index, stratum_rows in enumerate(strata):
                stratum_rows = np.asarray(stratum_rows, dtype=np.int64)
                stratum_triples = int(
                    (offsets[stratum_rows + 1] - offsets[stratum_rows]).sum()
                )
                self._stratum_weights.append(float(stratum_triples))
                for _, indices in plan.partition_rows(stratum_rows):
                    self._sources.append(
                        ShardSource(kind="rows", rows=stratum_rows[indices])
                    )
                    self._task_strata.append(stratum_index)
                self._source_entities += int(stratum_rows.shape[0])
                self._source_triples += stratum_triples
            total_weight = sum(self._stratum_weights)
            if total_weight > 0:
                self._stratum_weights = [w / total_weight for w in self._stratum_weights]
        else:
            for shard in range(plan.num_shards):
                lo, hi = plan.row_range(shard)
                self._sources.append(ShardSource(kind="range", lo=lo, hi=hi))
                self._task_strata.append(0)
            self._source_entities = plan.num_entities
            self._source_triples = plan.num_triples

        num_tasks = len(self._sources)
        # Per-task static draw weights and without-replacement limits.
        self._weights = np.zeros(num_tasks, dtype=np.float64)
        self._limits = np.zeros(num_tasks, dtype=np.int64)
        offsets = executor.offsets
        for index, source in enumerate(self._sources):
            if source.kind == "range":
                entities = source.hi - source.lo
                triples = int(offsets[source.hi]) - int(offsets[source.lo])
            elif source.kind == "rows":
                entities = int(source.rows.shape[0])
                triples = int((offsets[source.rows + 1] - offsets[source.rows]).sum())
            else:
                entities = int(source.offsets.shape[0]) - 1
                triples = int(source.positions.shape[0])
            self._weights[index] = entities if design in ("rcs", "tsrcs") else triples
            self._limits[index] = triples if design == "srs" else entities

        # Per-shard-task random streams: root.spawn once, one stream (plus a
        # fixed permutation seed for the WOR designs) per task; the stream
        # state is threaded through the task rounds by the master.
        root = np.random.SeedSequence(seed)
        children = root.spawn(num_tasks) if num_tasks else []
        self._rng_states: list[dict | None] = []
        self._perm_seeds: list[np.random.SeedSequence | None] = []
        for child in children:
            stream_seq, perm_seq = child.spawn(2)
            self._rng_states.append(np.random.default_rng(stream_seq).bit_generator.state)
            self._perm_seeds.append(perm_seq if design in _WOR_DESIGNS else None)
        self._cursors = np.zeros(num_tasks, dtype=np.int64)

        # Master-side estimator + cost state, folded in shard order.
        self._accumulators = [RunningMean() for _ in range(num_tasks)]
        self._task_triples = np.zeros(num_tasks, dtype=np.int64)
        self._num_correct = 0
        self._num_annotated = 0
        # Cost-mask coordinate spaces: segment runs key entities by segment
        # cluster index, graph-backed runs by *global* entity row (strata may
        # cover an arbitrary row subset, so the mask spans the whole graph).
        if segment is not None:
            self._row_mask = np.zeros(self._source_entities, dtype=bool)
        else:
            self._row_mask = np.zeros(int(executor.offsets.shape[0]) - 1, dtype=bool)
        self._position_mask = np.zeros(self._labels.shape[0], dtype=bool)
        self._rows_of_position: np.ndarray | None = None
        self._total_units = 0
        self._shard_units = np.zeros(num_tasks, dtype=np.int64)
        self._shard_seconds = np.zeros(num_tasks, dtype=np.float64)
        self._shard_tasks = np.zeros(num_tasks, dtype=np.int64)
        self._rounds = 0
        # Per-stratum task ids in task order (the merge order), built once
        # instead of per round; each shard's draw-time histogram is looked
        # up on its first task and kept.
        self._stratum_tasks = [
            [task_id for task_id, s in enumerate(self._task_strata) if s == stratum_index]
            for stratum_index in range(len(self._stratum_weights))
        ]
        self._draw_histograms: list[obs_metrics.Histogram | None] = [None] * num_tasks

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def _allocate(self, count: int) -> np.ndarray:
        num_tasks = len(self._sources)
        if num_tasks == 0 or count <= 0:
            return np.zeros(num_tasks, dtype=np.int64)
        if self.design in _WOR_DESIGNS:
            remaining = (self._limits - self._cursors).astype(np.float64)
            return np.minimum(
                largest_remainder(remaining, count), (self._limits - self._cursors)
            )
        if self.design == "twcs-strat":
            per_stratum = self._stratum_allocation(count)
            allocation = np.zeros(num_tasks, dtype=np.int64)
            for task_ids, stratum_count in zip(self._stratum_tasks, per_stratum):
                allocation[task_ids] = largest_remainder(self._weights[task_ids], stratum_count)
            return allocation
        return largest_remainder(self._weights, count)

    def _stratum_allocation(self, count: int) -> list[int]:
        """Per-stratum draw counts under the run's allocation rule.

        Mirrors :meth:`StratifiedTWCSDesign._allocate` exactly, but computes
        each stratum's observed cluster-accuracy spread by merging that
        stratum's *shard* accumulators — so the Neyman decision is identical
        on every transport and worker count.  Falls back to proportional
        allocation until every stratum has at least two annotated draws.
        """
        if self.allocation == "neyman":
            stds: list[float] = []
            for task_ids in self._stratum_tasks:
                merged = RunningMean()
                for task_id in task_ids:
                    merged.merge(self._accumulators[task_id])
                if merged.count >= 2 and not math.isinf(merged.std_error):
                    stds.append(merged.std_error * math.sqrt(merged.count))
                else:
                    break
            else:
                return neyman_allocation(self._stratum_weights, stds, count)
        return proportional_allocation(self._stratum_weights, count)

    @property
    def exhausted(self) -> bool:
        """Whether no further units can be drawn (WOR designs only)."""
        if not self._sources:
            return True
        if self.design in _WOR_DESIGNS:
            return bool(np.all(self._cursors >= self._limits))
        return self._source_triples == 0

    # ------------------------------------------------------------------ #
    # Drawing
    # ------------------------------------------------------------------ #
    def step(self, count: int) -> list[ShardDraw]:
        """Draw one round of ``count`` units across the shards and fold them in."""
        if count < 0:
            raise ValueError("count must be non-negative")
        with obs_trace.span(
            "sampling.round", design=self.design, round=self._rounds, requested=count
        ) as round_span:
            allocation = self._allocate(count)
            if _log.enabled_for("debug"):
                _log.debug(
                    "allocation",
                    design=self.design,
                    round=self._rounds,
                    requested=count,
                    allocation=[int(value) for value in allocation],
                )
            tasks = []
            for index in np.flatnonzero(allocation):
                tasks.append(
                    ShardTask(
                        index=int(index),
                        design="twcs" if self.design == "twcs-strat" else self.design,
                        source=self._sources[index],
                        count=int(allocation[index]),
                        cap=self.second_stage_size,
                        rng_state=self._rng_states[index],
                        perm_seed=self._perm_seeds[index],
                        cursor=int(self._cursors[index]),
                        trace=round_span.context,
                    )
                )
            results = self._executor._map(tasks)
            draws: list[ShardDraw] = []
            round_units = 0
            for result in results:
                index = result.index
                self._rng_states[index] = result.rng_state
                self._cursors[index] = result.cursor
                self._shard_seconds[index] += result.elapsed
                self._shard_tasks[index] += 1
                self._draw_histogram(index).observe(result.elapsed)
                sums = _unit_label_sums(result.counts, result.positions, self._labels)
                rows = result.rows
                if self._segment is not None:
                    # Shard-local cluster indices -> segment cluster indices.
                    rows = rows + self._row_offsets[index]
                self._fold(index, result, sums, rows)
                round_units += int(result.counts.shape[0])
                draws.append(
                    ShardDraw(
                        shard=index,
                        rows=rows,
                        counts=result.counts,
                        positions=result.positions,
                        sums=sums,
                    )
                )
            self._rounds += 1
            obs_metrics.counter("sampling_rounds_total").inc()
            obs_metrics.counter("sampling_units_total").inc(round_units)
        return draws

    def _draw_histogram(self, index: int) -> obs_metrics.Histogram:
        histogram = self._draw_histograms[index]
        if histogram is None:
            histogram = self._draw_histograms[index] = obs_metrics.histogram(
                "sampling_shard_draw_seconds", shard=index
            )
        return histogram

    def _fold(
        self, index: int, result: ShardResult, sums: np.ndarray, rows: np.ndarray
    ) -> None:
        counts = result.counts
        num_units = int(counts.shape[0])
        if num_units == 0:
            return
        design = self.design
        if design == "srs":
            self._num_correct += int(sums.sum())
            self._num_annotated += int(counts.sum())
        else:
            if design in ("wcs", "twcs", "twcs-strat"):
                values = sums / counts
            elif design == "rcs":
                values = (self._source_entities / self._source_triples) * sums
            else:  # tsrcs
                scale = self._source_entities / self._source_triples
                values = scale * result.sizes * (sums / counts)
            self._accumulators[index].add_many(values)
        self._task_triples[index] += int(counts.sum())
        self._total_units += num_units
        self._shard_units[index] += num_units
        # Eq. (4) cost masks: shards own disjoint clusters and positions, so
        # boolean masks make the distinct-entity/-triple counts exact.
        self._position_mask[result.positions] = True
        if design == "srs":
            self._row_mask[self._resolve_srs_rows(result.positions)] = True
        else:
            self._row_mask[rows] = True

    def _resolve_srs_rows(self, positions: np.ndarray) -> np.ndarray:
        """Subject rows of SRS-drawn triples (annotators group by subject)."""
        if self._rows_of_position is None:
            offsets = self._executor.offsets
            rows_of = np.empty(int(offsets[-1]), dtype=np.int64)
            rows_of[np.asarray(self._executor.positions, dtype=np.int64)] = np.repeat(
                np.arange(offsets.shape[0] - 1, dtype=np.int64), np.diff(offsets)
            )
            self._rows_of_position = rows_of
        return self._rows_of_position[positions]

    # ------------------------------------------------------------------ #
    # Read-outs
    # ------------------------------------------------------------------ #
    def estimate(self) -> Estimate:
        """Current merged estimate (per-shard accumulators folded in shard order)."""
        if self.design == "srs":
            n = self._num_annotated
            if n == 0:
                return Estimate(value=0.0, std_error=float("inf"), num_units=0, num_triples=0)
            p_hat = self._num_correct / n
            if n < 2:
                std_error = float("inf")
            else:
                std_error = float(np.sqrt(p_hat * (1.0 - p_hat) / n))
            return Estimate(value=p_hat, std_error=std_error, num_units=n, num_triples=n)
        if self.design == "twcs-strat":
            return self._stratified_estimate()
        merged = RunningMean()
        for accumulator in self._accumulators:
            merged.merge(accumulator)
        return Estimate(
            value=merged.mean,
            std_error=merged.std_error,
            num_units=merged.count,
            num_triples=int(self._task_triples.sum()),
        )

    def _stratified_estimate(self) -> Estimate:
        value = 0.0
        variance = 0.0
        num_units = 0
        num_triples = 0
        undetermined = False
        for task_ids, weight in zip(self._stratum_tasks, self._stratum_weights):
            merged = RunningMean()
            stratum_triples = 0
            for task_id in task_ids:
                merged.merge(self._accumulators[task_id])
                stratum_triples += int(self._task_triples[task_id])
            num_units += merged.count
            num_triples += stratum_triples
            value += weight * merged.mean
            if math.isinf(merged.std_error):
                undetermined = True
            else:
                variance += weight * weight * merged.std_error**2
        std_error = float("inf") if undetermined else float(np.sqrt(variance))
        return Estimate(
            value=value, std_error=std_error, num_units=num_units, num_triples=num_triples
        )

    def cost_summary(self) -> CostSummary:
        """Eq. (4) cost of all draws so far, computed from the exact masks."""
        entities = int(self._row_mask.sum())
        triples = int(self._position_mask.sum())
        seconds = (
            self._cost_model.identification_cost * entities
            + self._cost_model.validation_cost * triples
        )
        return CostSummary(
            entities_identified=entities, triples_annotated=triples, cost_seconds=seconds
        )

    def shard_stats(self) -> list[dict]:
        """Per-shard draw statistics — the single source of truth for them.

        Benchmarks (``BENCH_parallel.json``), exported metrics snapshots and
        the adaptive transport planner's calibration all read this one
        structure: per shard, the units and triples drawn, the number of
        executed tasks, the cumulative worker-side draw seconds (plus the
        mean per task), and the transport kind that executed the shard —
        i.e. what the planner actually chose for the run.
        """
        stats = []
        transport_kind = self._executor.transport.kind
        for index in range(len(self._sources)):
            tasks = int(self._shard_tasks[index])
            seconds = float(self._shard_seconds[index])
            stats.append(
                {
                    "shard": index,
                    "units": int(self._shard_units[index]),
                    "triples": int(self._task_triples[index]),
                    "tasks": tasks,
                    "draw_seconds": seconds,
                    "mean_task_seconds": seconds / tasks if tasks else 0.0,
                    "transport": transport_kind,
                }
            )
        return stats

    @property
    def planner_decision(self):
        """The planner decision that configured this run's executor (or None)."""
        return self._executor.planner_decision

    @property
    def num_units(self) -> int:
        """Units drawn so far across all shards."""
        return self._total_units

    @property
    def rounds(self) -> int:
        """Number of :meth:`step` rounds executed."""
        return self._rounds

    # ------------------------------------------------------------------ #
    # Adaptive loop (mirrors the StaticEvaluator stopping rule)
    # ------------------------------------------------------------------ #
    def drive(self, config) -> tuple[Estimate, int]:
        """Draw batches until the MoE target holds; return (estimate, rounds)."""
        iterations = 0
        while True:
            estimate = self.estimate()
            enough = estimate.num_units >= config.min_units
            if enough and estimate.satisfies(config.moe_target, config.confidence_level):
                break
            if config.max_units is not None and estimate.num_units >= config.max_units:
                break
            before = self._total_units
            self.step(config.batch_size)
            if self._total_units == before:
                break
            iterations += 1
        return self.estimate(), iterations


# --------------------------------------------------------------------------- #
# The executor: transport + attachment factory for runs
# --------------------------------------------------------------------------- #
class ParallelSamplingExecutor:
    """Transport-backed front end for sharded position-surface sampling.

    Parameters
    ----------
    graph:
        The knowledge graph whose CSR index draws run on.  Any backend with
        a CSR index works (columnar, delta view, in-memory cached CSR).
        May be omitted when ``snapshot`` is given.
    workers:
        Convenience shorthand when no ``transport`` is given: ``None`` (or
        0) selects a :class:`SerialTransport` — the *serial position
        surface* of the sharded plan and the parity reference; ``>= 1``
        selects a :class:`~repro.sampling.shm.SharedMemoryTransport` with
        that many worker processes.
    num_shards:
        Default shard count for plans built by this executor (defaults to
        ``max(workers, 1)``).
    snapshot:
        Optional snapshot *directory* path to load the CSR columns from,
        memory-mapped, when ``graph`` is omitted.
    transport:
        An explicit :class:`ShardTransport` (e.g. a
        :class:`~repro.sampling.rpc.SocketRPCTransport` over remote nodes).
        The executor binds it to the population's CSR index and owns it:
        :meth:`close` closes the transport.  Mutually exclusive with
        ``workers``.
    planner_decision:
        Optional :class:`~repro.sampling.planner.PlannerDecision` recorded
        when the adaptive planner chose this executor's configuration;
        surfaced through :meth:`SamplingRun.shard_stats` and report
        printing.  Never feeds the draw streams.
    """

    def __init__(
        self,
        graph=None,
        *,
        workers: int | None = None,
        num_shards: int | None = None,
        snapshot: str | Path | None = None,
        transport: ShardTransport | None = None,
        planner_decision=None,
    ) -> None:
        if graph is None and snapshot is None:
            raise ValueError("either graph or snapshot is required")
        if transport is not None and workers:
            raise ValueError("pass either transport= or workers=, not both")
        if snapshot is not None and graph is None:
            offsets, positions = _load_snapshot_csr(str(snapshot))
        else:
            csr = graph.backend.csr_arrays()
            if csr is None:
                raise ValueError(
                    f"backend {type(graph.backend).__name__} exposes no CSR index"
                )
            offsets, positions = csr
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.positions = positions
        self.workers = int(workers) if workers else None
        if transport is None:
            if self.workers is not None:
                from repro.sampling.shm import SharedMemoryTransport

                transport = SharedMemoryTransport(self.workers)
            else:
                transport = SerialTransport()
        self.transport = transport
        self.planner_decision = planner_decision
        self.transport.bind(self.offsets, self.positions)
        self._bind_generation = transport.bind_generation
        if num_shards is not None:
            self.num_shards = num_shards
        else:
            self.num_shards = transport.default_shards or max(self.workers or 1, 1)
        self._plan: ShardPlan | None = None

    def _map(self, tasks: list[ShardTask]) -> list[ShardResult]:
        """Execute tasks, returning results in task order (not completion order)."""
        if not tasks:
            return []
        if self.transport.bind_generation != self._bind_generation:
            raise RuntimeError(
                "transport was re-bound by another executor; a ShardTransport "
                "serves one live executor at a time"
            )
        return self.transport.execute(tasks)

    def close(self) -> None:
        """Close the transport (worker pools, node connections)."""
        self.transport.close()

    def __enter__(self) -> "ParallelSamplingExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Plans and runs
    # ------------------------------------------------------------------ #
    def plan(self, num_shards: int | None = None) -> ShardPlan:
        """The executor's shard plan (cached for the default shard count)."""
        if num_shards is not None and num_shards != self.num_shards:
            return ShardPlan.from_offsets(self.offsets, num_shards)
        if self._plan is None:
            self._plan = ShardPlan.from_offsets(self.offsets, self.num_shards)
        return self._plan

    def run(
        self,
        design: str,
        label_array: np.ndarray,
        *,
        seed=None,
        second_stage_size: int = 5,
        num_shards: int | None = None,
        plan: ShardPlan | None = None,
        cost_model: CostModel | None = None,
        segment=None,
        strata: list[np.ndarray] | None = None,
        allocation: str = "proportional",
    ) -> SamplingRun:
        """Start a sharded draw/estimate session (see :class:`SamplingRun`)."""
        if plan is None:
            plan = self.plan(num_shards)
        return SamplingRun(
            self,
            design,
            label_array,
            plan,
            seed,
            second_stage_size=second_stage_size,
            cost_model=cost_model,
            segment=segment,
            strata=strata,
            allocation=allocation,
        )

    def sample_rows(
        self,
        rows: np.ndarray,
        cap: int,
        seed,
        plan: ShardPlan | None = None,
    ) -> list[np.ndarray]:
        """Second-stage sample of up to ``cap`` positions from each given row.

        The sharded, fan-out twin of
        :meth:`~repro.kg.graph.KnowledgeGraph.sample_cluster_positions_batch`:
        rows are partitioned by the plan, each shard's clusters are Floyd-
        subsampled under that shard's spawned stream, and the batches return
        in input order — deterministic for a given ``(plan, seed)``
        regardless of worker count or scheduling.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[0] == 0:
            return []
        if plan is None:
            plan = self.plan()
        parts = plan.partition_rows(rows)
        children = np.random.SeedSequence(seed).spawn(plan.num_shards)
        tasks = []
        for shard, indices in parts:
            tasks.append(
                ShardTask(
                    index=shard,
                    design="fixed",
                    source=ShardSource(kind="rows", rows=rows[indices]),
                    count=int(indices.shape[0]),
                    cap=cap,
                    rng_state=np.random.default_rng(children[shard]).bit_generator.state,
                    perm_seed=None,
                    cursor=0,
                )
            )
        results = self._map(tasks)
        out: list[np.ndarray | None] = [None] * rows.shape[0]
        for (_, indices), result in zip(parts, results):
            units = np.split(result.positions, np.cumsum(result.counts)[:-1])
            for slot, unit in zip(indices, units):
                out[int(slot)] = unit
        return out  # type: ignore[return-value]

    @staticmethod
    def default_workers() -> int:
        """A sensible worker count: the CPUs this process may run on, capped at 8."""
        return min(available_cpus(), 8)

"""Shared-memory shard transport: the one local multiprocess transport.

:class:`SharedMemoryTransport` runs shard tasks on local worker processes;
it is what ``ParallelSamplingExecutor(workers=N)`` and ``--workers N``
build.  On :meth:`~repro.sampling.parallel.ShardTransport.bind` it copies
the frozen CSR index once into named ``multiprocessing.shared_memory``
segments; worker processes then map those segments directly and build
zero-copy ``numpy.ndarray`` views over them — no per-task array pickling,
no copy-on-write page faults, and no coupling between the pool's lifetime
and any particular graph:

* the *attachment descriptor* (segment names, dtypes, shapes) travels with
  every task, so one warm pool serves successive binds to different graphs;
* workers keep a small bounded cache of attached segments keyed by segment
  name, so successive rounds over the same graph attach exactly once;
* :meth:`close` parks the worker pool in a module registry and the next
  transport for the same worker count adopts it, skipping process startup
  entirely (:func:`shutdown_warm_pools` releases parked pools).

The segments hold only the public CSR index (offsets + positions) — labels
never enter shared memory, mirroring the other transports' trust model.

Determinism: workers run the same pure
:func:`~repro.sampling.parallel._run_task` draw core over the mapped views,
so trajectories are bit-identical to every other transport for a fixed
shard count (enforced by the parity suites).
"""

from __future__ import annotations

import atexit
import multiprocessing
import uuid
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.sampling.parallel import (
    ShardResult,
    ShardTask,
    ShardTransport,
    _run_task,
)

__all__ = ["SharedMemoryTransport", "shutdown_warm_pools"]

_log = get_logger("sampling.shm")


#: Whether this worker runs its own resource tracker rather than sharing the
#: master's; decided before its first attachment registers anything.
_OWN_TRACKER: bool | None = None


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without leaving it registered for cleanup.

    The master owns segment lifetime (it unlinks on close).  Python 3.13+
    attaches with ``track=False``.  Older versions register every attach
    with the resource tracker.  Fork and spawn workers inherit the
    master's tracker, whose registry is a set: the attach re-adds a name
    the master already holds, and the master's ``unlink()`` removes it
    once.  Unregistering here as well would make that removal fail with a
    ``KeyError`` traceback on stderr.  Only a worker that started its own
    tracker must unregister, or that tracker would unlink the segment
    (and warn about a leak) when the worker exits.
    """
    global _OWN_TRACKER
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track= parameter
        from multiprocessing import resource_tracker

        if _OWN_TRACKER is None:
            inherited = getattr(resource_tracker._resource_tracker, "_fd", None)  # noqa: SLF001
            _OWN_TRACKER = inherited is None
        segment = shared_memory.SharedMemory(name=name)
        if _OWN_TRACKER:
            resource_tracker.unregister(segment._name, "shared_memory")  # noqa: SLF001
        return segment


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
#: Worker-side cache of attached CSR views keyed by the descriptor key; a
#: warm pool re-attaches only when it meets a graph it has not seen lately.
_ATTACH_CACHE: "OrderedDict[str, tuple[list, tuple[np.ndarray, np.ndarray]]]" = OrderedDict()
_ATTACH_CACHE_LIMIT = 4


def _evict_attachment(key: str) -> None:
    segments, _arrays = _ATTACH_CACHE.pop(key)
    del _arrays  # drop the ndarray views before closing their buffers
    for segment in segments:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a view escaped; leak, don't crash
            pass


def _attach(descriptor: dict) -> tuple[np.ndarray, np.ndarray]:
    """Resolve a task's attachment descriptor to CSR ``(offsets, positions)``."""
    key = descriptor["key"]
    cached = _ATTACH_CACHE.get(key)
    if cached is not None:
        _ATTACH_CACHE.move_to_end(key)
        return cached[1]
    while len(_ATTACH_CACHE) >= _ATTACH_CACHE_LIMIT:
        _evict_attachment(next(iter(_ATTACH_CACHE)))
    segments: list = []
    arrays: list[np.ndarray] = []
    for field in ("offsets", "positions"):
        name, dtype, shape = descriptor[field]
        segment = _attach_segment(name)
        segments.append(segment)
        arrays.append(np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf))
    _ATTACH_CACHE[key] = (segments, (arrays[0], arrays[1]))
    return _ATTACH_CACHE[key][1]


def _execute_shm_task(descriptor: dict, task: ShardTask) -> ShardResult:
    """Pool entry point: map the shared segments and run the pure draw core."""
    return _run_task(task, _attach(descriptor))


# --------------------------------------------------------------------------- #
# Warm pool registry (pools are graph-agnostic: attachment travels per task)
# --------------------------------------------------------------------------- #
_WARM_SHM_POOLS: dict[int, ProcessPoolExecutor] = {}


def _make_pool(workers: int) -> ProcessPoolExecutor:
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context("spawn")
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def shutdown_warm_pools() -> None:
    """Shut down every parked shared-memory worker pool (also runs at exit).

    Idempotent (explicit calls and the ``atexit`` hook compose), and a pool
    whose processes already died cannot abort the sweep: it is popped first,
    and a raising ``shutdown`` never stops the remaining pools from being
    released.
    """
    while _WARM_SHM_POOLS:
        _, pool = _WARM_SHM_POOLS.popitem()
        try:
            pool.shutdown(wait=True)
        except Exception:
            pass


atexit.register(shutdown_warm_pools)


class SharedMemoryTransport(ShardTransport):
    """Warm process pool drawing from shared-memory CSR segments.

    Parameters
    ----------
    workers:
        Worker process count (also the transport's natural shard count).

    :meth:`close` parks the pool for adoption by the next
    ``SharedMemoryTransport`` with the same worker count instead of shutting
    it down (at most one parked pool per worker count).  Because the
    attachment descriptor rides on every task, an adopted pool serves *any*
    graph — the per-graph state lives in the named segments, not the
    processes.
    """

    kind = "shm"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self.workers = int(workers)
        self._pool: ProcessPoolExecutor | None = None
        self._segments: list[shared_memory.SharedMemory] = []
        self._descriptor: dict | None = None

    @property
    def default_shards(self) -> int | None:
        return self.workers

    def bind(self, offsets, positions) -> None:
        self._release_segments()
        super().bind(offsets, positions)
        key = uuid.uuid4().hex[:12]
        descriptor: dict = {"key": key}
        for index, (field, source) in enumerate((("offsets", offsets), ("positions", positions))):
            array = np.ascontiguousarray(np.asarray(source, dtype=np.int64))
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, array.nbytes), name=f"repro-{key}-{index}"
            )
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
            view[:] = array
            del view  # release the buffer export so close() can succeed later
            self._segments.append(segment)
            descriptor[field] = (segment.name, array.dtype.str, array.shape)
        self._descriptor = descriptor
        if _log.enabled_for("debug"):
            _log.debug(
                "shm_bind",
                key=key,
                segments=[segment.name for segment in self._segments],
                bytes=int(sum(max(1, segment.size) for segment in self._segments)),
            )

    def _release_segments(self) -> None:
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - defensive
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments = []
        self._descriptor = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            parked = _WARM_SHM_POOLS.pop(self.workers, None)
            if parked is not None:
                obs_metrics.counter("sampling_warm_pool_reuse_total", kind=self.kind).inc()
                self._pool = parked
            else:
                self._pool = _make_pool(self.workers)
        return self._pool

    def execute(self, tasks: list[ShardTask]) -> list[ShardResult]:
        if self._descriptor is None:
            raise RuntimeError("SharedMemoryTransport.execute before bind()")
        pool = self._ensure_pool()
        descriptor = self._descriptor
        futures = [pool.submit(_execute_shm_task, descriptor, task) for task in tasks]
        return [future.result() for future in futures]

    def close(self) -> None:
        self._release_segments()
        if self._pool is not None:
            if self.workers not in _WARM_SHM_POOLS:
                _WARM_SHM_POOLS[self.workers] = self._pool
            else:
                self._pool.shutdown(wait=True)
            self._pool = None

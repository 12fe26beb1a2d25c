"""One evaluation session: spec validation, construction, checkpoint/restore.

A *session* is a resident :class:`~repro.evolving.base.IncrementalEvaluator`
plus the :class:`~repro.evolving.monitor.EvolvingAccuracyMonitor` driving
it, built from a client-supplied **spec** dict.  The construction path is
deliberately the same as ``repro monitor --backend columnar`` (columnar
base, position surface, explicit seed), so a served session's estimate
trajectory is bit-identical to the offline command — the contract the
golden replay suite pins.

Specs
-----
``dataset``/``dataset_seed``/``movie_scale``
    Which synthetic base graph to build (or ``snapshot``: a format-v2
    snapshot path saved with labels).  The built graph is shared across
    sessions via the server's graph cache — the base columns are frozen;
    each session's updates live in its own ``DeltaStore`` tail.
``evaluator``
    ``rs`` (reservoir, Alg. 1) or ``ss`` (stratified, Alg. 2).
``seed``
    The evaluator/annotator stream seed.  Omitted, the server derives one
    from its root :class:`numpy.random.SeedSequence` (deterministic in
    attach order).
``moe``/``confidence``/``second_stage_size``
    Quality knobs, as on the CLI.
``engine``
    Optional transport-fleet request: ``{"transport": "serial"|"shm"|"rpc",
    "workers": N, "shards": N, "nodes": [...], "rpc_window": N}``.  Shards
    are part of the random-stream identity; the transport only decides
    where the fixed plan executes.

Checkpoints
-----------
:func:`checkpoint_session` captures the full evaluator state through
:func:`repro.evolving.state.capture_evaluator_state` plus the monitor's
record trajectory; :func:`restore_session` rebuilds the base graph from the
spec (bit-identical reload) and replays the state, so a drained daemon
resumes every session exactly where it stopped.
"""

from __future__ import annotations

import pickle
import threading
from pathlib import Path

from repro.core.config import EvaluationConfig
from repro.generators.datasets import LabelledKG

__all__ = [
    "CHECKPOINT_FORMAT",
    "Session",
    "normalise_spec",
    "build_base",
    "build_session",
    "checkpoint_session",
    "restore_session",
]

CHECKPOINT_FORMAT = 1

_DATASETS = ("nell", "yago", "movie", "movie-syn")
_EVALUATORS = ("rs", "ss")
_ENGINE_TRANSPORTS = ("serial", "shm", "rpc")


def _check_engine_transport(kind) -> None:
    """Reject an unknown engine transport (also a legacy ``"pool"``)."""
    if kind is not None and kind not in _ENGINE_TRANSPORTS:
        raise ValueError(
            f"spec.engine.transport must be one of {_ENGINE_TRANSPORTS}, got {kind!r}"
        )


def normalise_spec(spec) -> dict:
    """Validate a client spec and fill defaults; raises ``ValueError``."""
    if not isinstance(spec, dict):
        raise ValueError("attach requires a spec dict")
    out: dict = {}
    snapshot = spec.get("snapshot")
    if snapshot is not None:
        if not isinstance(snapshot, str) or not snapshot:
            raise ValueError("spec.snapshot must be a path string")
        out["snapshot"] = snapshot
    else:
        dataset = spec.get("dataset", "nell")
        if dataset not in _DATASETS:
            raise ValueError(f"spec.dataset must be one of {_DATASETS}, got {dataset!r}")
        out["dataset"] = dataset
        out["dataset_seed"] = int(spec.get("dataset_seed", 0))
        out["movie_scale"] = float(spec.get("movie_scale", 0.01))
    evaluator = spec.get("evaluator", "ss")
    if evaluator not in _EVALUATORS:
        raise ValueError(f"spec.evaluator must be one of {_EVALUATORS}, got {evaluator!r}")
    out["evaluator"] = evaluator
    seed = spec.get("seed")
    out["seed"] = None if seed is None else int(seed)
    out["moe"] = float(spec.get("moe", 0.05))
    out["confidence"] = float(spec.get("confidence", 0.95))
    if "second_stage_size" in spec:
        out["second_stage_size"] = int(spec["second_stage_size"])
    engine = spec.get("engine")
    if engine is not None:
        if not isinstance(engine, dict):
            raise ValueError("spec.engine must be a dict")
        _check_engine_transport(engine.get("transport"))
        out["engine"] = {
            key: engine[key]
            for key in ("transport", "workers", "shards", "nodes", "rpc_window")
            if engine.get(key) is not None
        }
    return out


def graph_cache_key(spec: dict) -> tuple:
    """Identity of the resident base a spec attaches to (for cross-session reuse)."""
    if "snapshot" in spec:
        return ("snapshot", spec["snapshot"])
    return ("dataset", spec["dataset"], spec["dataset_seed"], spec["movie_scale"])


def build_base(spec: dict) -> tuple[LabelledKG, object]:
    """Build (or reopen) the frozen columnar base a spec names.

    Returns ``(base, position_labels)`` — labels are only explicit on the
    snapshot path (the evaluator derives them from the oracle otherwise,
    exactly like ``repro monitor``).
    """
    if "snapshot" in spec:
        from repro.labels.oracle import LabelOracle
        from repro.storage.snapshot import SnapshotStore

        store = SnapshotStore(spec["snapshot"])
        if not store.exists():
            raise ValueError(f"snapshot {spec['snapshot']} does not exist")
        labels = store.load_labels()
        if labels is None:
            raise ValueError(
                f"snapshot {spec['snapshot']} carries no label array; re-create "
                "it with `repro snapshot --with-labels`"
            )
        return LabelledKG(store.load_graph(), LabelOracle({}, strict=False)), labels
    from repro.generators.datasets import (
        make_movie_like,
        make_movie_syn,
        make_nell_like,
        make_yago_like,
    )

    builders = {
        "nell": make_nell_like,
        "yago": make_yago_like,
        "movie": make_movie_like,
        "movie-syn": make_movie_syn,
    }
    builder = builders[spec["dataset"]]
    if spec["dataset"] in ("movie", "movie-syn"):
        data = builder(seed=spec["dataset_seed"], scale=spec["movie_scale"])
    else:
        data = builder(seed=spec["dataset_seed"])
    return LabelledKG(data.graph.to_columnar(), data.oracle), None


def _engine_extra(engine: dict | None, fleet_secret) -> dict:
    """Resolve a spec's engine request into evaluator kwargs."""
    if not engine:
        return {}
    kind = engine.get("transport")
    workers = engine.get("workers")
    shards = engine.get("shards")
    extra: dict = {}
    if kind == "rpc":
        from repro.sampling.rpc import SocketRPCTransport

        nodes = [str(node) for node in (engine.get("nodes") or [])]
        if not nodes:
            raise ValueError("engine.transport 'rpc' requires engine.nodes")
        extra["transport"] = SocketRPCTransport(
            nodes, secret=fleet_secret, window=int(engine.get("rpc_window", 4))
        )
    elif kind == "shm":
        from repro.sampling.parallel import ParallelSamplingExecutor
        from repro.sampling.shm import SharedMemoryTransport

        count = int(workers or ParallelSamplingExecutor.default_workers())
        extra["transport"] = SharedMemoryTransport(count)
    elif kind == "serial":
        from repro.sampling.parallel import SerialTransport

        extra["transport"] = SerialTransport()
    elif workers is not None:
        extra["workers"] = int(workers)
    if extra or shards is not None:
        transport = extra.get("transport")
        if shards is not None:
            extra["num_shards"] = int(shards)
        elif transport is not None and transport.default_shards:
            extra["num_shards"] = int(transport.default_shards)
        else:
            extra["num_shards"] = max(int(workers or 1), 1)
    return extra


def _evaluator_class(kind: str):
    from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
    from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator

    return {
        "rs": ReservoirIncrementalEvaluator,
        "ss": StratifiedIncrementalEvaluator,
    }[kind]


class Session:
    """A resident evaluator + monitor with its cached estimate trajectory.

    All mutable fields (``latest``, ``trajectory``, ``pending``, ``failed``)
    are guarded by ``lock``; ``changed`` notifies threshold pollers whenever
    a round completes or fails.  ``latest`` is the whole point of the serve
    architecture: the eval worker writes it once per completed round, and
    every ``estimate`` request is a lock-protected read of this one
    reference — O(1), no sampling work, never blocked by in-flight rounds.
    """

    def __init__(self, session_id: str, spec: dict, seed: int, evaluator, monitor) -> None:
        self.id = session_id
        self.spec = spec
        self.seed = seed
        self.evaluator = evaluator
        self.monitor = monitor
        self.lock = threading.Lock()
        self.changed = threading.Condition(self.lock)
        self.pending = 0
        self.latest: dict | None = None
        self.trajectory: list[dict] = []
        self.failed: str | None = None
        self.engine = bool(spec.get("engine"))

    def record_result(self, record, evaluation) -> dict:
        """Fold one completed round into the cached trajectory (worker thread)."""
        payload = {
            "batch_index": int(record.batch_index),
            "batch_id": str(evaluation.batch_id),
            "record": record,
            "report": evaluation.report,
            "cumulative_cost_seconds": float(evaluation.cumulative_cost_seconds),
        }
        with self.changed:
            self.trajectory.append(payload)
            self.latest = payload
            self.pending -= 1
            self.changed.notify_all()
        return payload

    def record_failure(self, message: str) -> None:
        with self.changed:
            self.failed = message
            self.pending -= 1
            self.changed.notify_all()

    def snapshot(self) -> tuple[dict | None, int, int, str | None]:
        """One consistent ``(latest, pending, num_records, failed)`` read."""
        with self.lock:
            return self.latest, self.pending, len(self.trajectory), self.failed

    def close(self) -> None:
        self.evaluator.close()


def build_session(
    session_id: str, spec: dict, seed: int, base: LabelledKG, labels, *, fleet_secret=None
) -> Session:
    """Construct a fresh session exactly like ``repro monitor`` would."""
    from repro.evolving.monitor import EvolvingAccuracyMonitor

    config = EvaluationConfig(moe_target=spec["moe"], confidence_level=spec["confidence"])
    kwargs: dict = {
        "config": config,
        "seed": seed,
        "surface": "position",
        "position_labels": labels,
    }
    if "second_stage_size" in spec:
        kwargs["second_stage_size"] = spec["second_stage_size"]
    kwargs.update(_engine_extra(spec.get("engine"), fleet_secret))
    evaluator = _evaluator_class(spec["evaluator"])(base, **kwargs)
    return Session(session_id, spec, seed, evaluator, EvolvingAccuracyMonitor(evaluator))


# --------------------------------------------------------------------------- #
# Checkpoint / restore (drain + resume)
# --------------------------------------------------------------------------- #
def _checkpoint_path(state_dir: Path, session_id: str) -> Path:
    return Path(state_dir) / f"{session_id}.ckpt"


def checkpoint_session(state_dir: str | Path, session: Session) -> Path:
    """Write one session's resumable checkpoint under ``state_dir``."""
    from repro.evolving.state import capture_evaluator_state

    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": CHECKPOINT_FORMAT,
        "session": session.id,
        "spec": session.spec,
        "seed": session.seed,
        "state": capture_evaluator_state(session.evaluator),
        "records": list(session.monitor.records),
    }
    path = _checkpoint_path(state_dir, session.id)
    tmp = path.with_suffix(".ckpt.tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(path)
    return path


def drop_checkpoint(state_dir: str | Path, session_id: str) -> None:
    """Remove a detached session's checkpoint so a restart cannot resurrect it."""
    _checkpoint_path(Path(state_dir), session_id).unlink(missing_ok=True)


def list_checkpoints(state_dir: str | Path) -> list[Path]:
    state_dir = Path(state_dir)
    if not state_dir.is_dir():
        return []
    return sorted(state_dir.glob("*.ckpt"))


def restore_session(path: str | Path, base_for) -> Session:
    """Rebuild a checkpointed session with a bit-identical future trajectory.

    ``base_for(spec)`` supplies the (cached) base graph + labels for the
    checkpoint's spec — the server passes its graph cache, so resuming N
    sessions over one dataset rebuilds the base once.  Engine requests are
    honoured on resume too; the transport never changes the trajectory.
    """
    from repro.evolving.monitor import EvolvingAccuracyMonitor
    from repro.evolving.state import restore_evaluator

    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    version = int(payload.get("format", 0))
    if version > CHECKPOINT_FORMAT:
        raise ValueError(
            f"serve checkpoint format v{version} is newer than supported v{CHECKPOINT_FORMAT}"
        )
    spec = payload["spec"]
    _check_engine_transport((spec.get("engine") or {}).get("transport"))
    base, _labels = base_for(spec)
    extra = _engine_extra(spec.get("engine"), None)
    evaluator = restore_evaluator(
        payload["state"],
        base,
        workers=extra.get("workers"),
        num_shards=extra.get("num_shards"),
        transport=extra.get("transport"),
    )
    monitor = EvolvingAccuracyMonitor(evaluator)
    monitor.records = list(payload["records"])
    session = Session(payload["session"], spec, int(payload["seed"]), evaluator, monitor)
    # Rebuild the cached trajectory from the restored history: records[i]
    # and history[i] describe the same round (base eval first).
    for record, evaluation in zip(monitor.records, evaluator.history):
        entry = {
            "batch_index": int(record.batch_index),
            "batch_id": str(evaluation.batch_id),
            "record": record,
            "report": evaluation.report,
            "cumulative_cost_seconds": float(evaluation.cumulative_cost_seconds),
        }
        session.trajectory.append(entry)
        session.latest = entry
    return session

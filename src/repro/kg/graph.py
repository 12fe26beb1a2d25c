"""Knowledge graph with an entity-cluster index over a pluggable storage backend.

The sampling designs in the paper operate on two views of the same graph:

* a flat population of triples (used by simple random sampling), and
* a population of *entity clusters* ``G[e] = {t : t.subject == e}`` (used by
  all cluster-sampling designs and by the annotation cost model).

:class:`KnowledgeGraph` maintains both views but no longer owns the physical
representation: storage is delegated to a
:class:`~repro.storage.backend.StorageBackend`.  The default
:class:`~repro.storage.memory.InMemoryStore` keeps the original
object-per-triple layout (cheap incremental ``add``); the columnar backend
(:class:`~repro.storage.columnar.ColumnarStore`) packs the graph into
interned ``int32`` NumPy columns with a CSR cluster index, which scales to
millions of triples and can be persisted/memory-mapped through
:class:`~repro.storage.snapshot.SnapshotStore`.

Two access styles coexist:

* the original object API (``cluster``, ``sample_cluster_triples``, …),
  which materialises :class:`~repro.kg.triple.Triple` objects and is what
  annotation flows need;
* a *position* API (``cluster_positions``, ``sample_cluster_positions``,
  ``sample_cluster_positions_batch``, ``labels_for_positions``), which works
  on integer triple positions only and lets the samplers' draw/estimate
  loops avoid allocating per-draw Triple tuples entirely.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.kg.triple import Triple
from repro.storage.backend import StorageBackend, make_backend

__all__ = ["EntityCluster", "KnowledgeGraph", "sample_csr_positions_batch"]


@dataclass(frozen=True)
class EntityCluster:
    """All triples of one subject entity, as a lightweight view.

    Attributes
    ----------
    entity_id:
        The shared subject id.
    triples:
        The triples belonging to the cluster, in insertion order.
    """

    entity_id: str
    triples: tuple[Triple, ...]

    @property
    def size(self) -> int:
        """Number of triples in the cluster (``M_i`` in the paper)."""
        return len(self.triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples)

    def __len__(self) -> int:
        return len(self.triples)


#: Batches of at least this many clusters resolve Floyd collisions with numpy
#: column passes; smaller ones in pure Python (crossover measured at about 30
#: clusters for ``cap = 5``).
_FLOYD_VECTOR_MIN_CLUSTERS = 32


def _floyd_sample_batch(sizes: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    """Sample ``cap`` distinct within-cluster offsets for each of many clusters.

    Vectorised Floyd's algorithm: iteration ``j`` draws, for every cluster at
    once, a uniform offset in ``[0, size - cap + j]``; a draw that collides
    with an earlier pick for the same cluster is replaced by ``size - cap +
    j`` itself, which cannot have been picked before.  Each row is a uniform
    without-replacement ``cap``-subset of ``range(size)`` (as a set; the
    within-row order is not uniform, which the estimators never observe).

    All ``cap`` iterations are drawn with one ``rng.integers`` call on a
    ``(cap, n)`` bound array; its element order is iteration-major, so the
    stream (and the final generator state) is the one ``cap`` per-iteration
    calls would consume.  Collisions are then resolved from those draws: in
    pure Python for a handful of clusters, where numpy's per-call overhead
    dominates, and column by column in numpy for larger batches.

    ``sizes`` must all be strictly greater than ``cap``.
    """
    base = np.asarray(sizes, dtype=np.int64) - cap
    draws = rng.integers(0, base + np.arange(1, cap + 1, dtype=np.int64)[:, None])
    if base.shape[0] < _FLOYD_VECTOR_MIN_CLUSTERS:
        rows = []
        for row_base, column in zip(base.tolist(), draws.T.tolist()):
            picked: list[int] = []
            for j, t in enumerate(column):
                picked.append(row_base + j if t in picked else t)
            rows.append(picked)
        return np.array(rows, dtype=np.int64).reshape(base.shape[0], cap)
    picks = draws.T.copy()
    for j in range(1, cap):
        t = picks[:, j]
        collision = (picks[:, :j] == t[:, None]).any(axis=1)
        picks[:, j] = np.where(collision, base + j, t)
    return picks


def sample_csr_positions_batch(
    offsets: np.ndarray,
    positions: np.ndarray,
    rows: np.ndarray,
    cap: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Second-stage sample of up to ``cap`` positions from each CSR cluster.

    The vectorised core behind every position draw: cluster ``rows[i]`` owns
    ``positions[offsets[rows[i]]:offsets[rows[i] + 1]]``; clusters no larger
    than ``cap`` contribute their full (zero-copy) slice, larger clusters are
    subsampled without replacement with one batched Floyd pass.  Works on any
    CSR pair — a graph backend's index or an appended update segment — so the
    evolving evaluators consume the same random stream on every backend.
    """
    rows = np.asarray(rows, dtype=np.int64)
    out: list[np.ndarray | None] = [None] * rows.shape[0]
    starts = offsets[rows]
    sizes = offsets[rows + 1] - starts
    large = sizes > cap
    for i in np.flatnonzero(~large):
        start = int(starts[i])
        out[i] = positions[start : start + int(sizes[i])]
    large_indices = np.flatnonzero(large)
    if large_indices.size:
        picks = _floyd_sample_batch(sizes[large_indices], cap, rng)
        chosen = positions[starts[large_indices][:, None] + picks]
        for j, i in enumerate(large_indices):
            out[i] = chosen[j]
    return out  # type: ignore[return-value]


class KnowledgeGraph:
    """A set of triples indexed by entity cluster.

    Parameters
    ----------
    triples:
        Initial triples.  Duplicates (exact ``(s, p, o)`` repeats) are ignored
        so the graph behaves as a set, matching the paper's model ``G = {t}``.
    name:
        Optional human-readable name used in reports.
    backend:
        Physical storage: a :class:`~repro.storage.backend.StorageBackend`
        instance (possibly pre-populated, e.g. from a snapshot), a backend
        name (``"memory"`` or ``"columnar"``), or ``None`` for the default
        in-memory store.

    Examples
    --------
    >>> kg = KnowledgeGraph([Triple("e1", "bornIn", "NYC")], name="toy")
    >>> kg.add(Triple("e1", "plays", "basketball"))
    True
    >>> kg.num_entities, kg.num_triples
    (1, 2)
    >>> kg.cluster("e1").size
    2
    """

    def __init__(
        self,
        triples: Iterable[Triple] = (),
        name: str = "kg",
        backend: StorageBackend | str | None = None,
    ) -> None:
        self.name = name
        if backend is None:
            backend = make_backend("memory")
        elif isinstance(backend, str):
            backend = make_backend(backend)
        self._backend: StorageBackend = backend
        self._triples_view: tuple[Triple, ...] | None = None
        self._entity_ids_view: tuple[str, ...] | None = None
        for triple in triples:
            self.add(triple)

    @property
    def backend(self) -> StorageBackend:
        """The storage backend this graph delegates to."""
        return self._backend

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, triple: Triple) -> bool:
        """Insert ``triple``; return ``True`` if it was not already present."""
        added = self._backend.add(triple)
        if added:
            self._triples_view = None
            self._entity_ids_view = None
        return added

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; return the number of new triples added."""
        return sum(self.add_batch(triples))

    def add_batch(self, triples: Iterable[Triple]) -> list[bool]:
        """Insert many triples; return one added-flag per input triple.

        Delegates to the backend's bulk path (vectorised dedup on the delta
        store) and invalidates the cached views once instead of per triple.
        """
        flags = self._backend.add_batch(triples)
        if any(flags):
            self._triples_view = None
            self._entity_ids_view = None
        return flags

    # ------------------------------------------------------------------ #
    # Size / membership
    # ------------------------------------------------------------------ #
    @property
    def num_triples(self) -> int:
        """Total number of triples (``M`` in the paper)."""
        return self._backend.num_triples

    @property
    def num_entities(self) -> int:
        """Number of distinct entity clusters (``N`` in the paper)."""
        return self._backend.num_entities

    @property
    def average_cluster_size(self) -> float:
        """``M / N``, the average cluster size reported in Table 3."""
        if self.num_entities == 0:
            return 0.0
        return self.num_triples / self.num_entities

    def __len__(self) -> int:
        return self.num_triples

    def __contains__(self, triple: Triple) -> bool:
        return self._backend.contains(triple)

    def __iter__(self) -> Iterator[Triple]:
        return self._backend.iter_triples()

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def triples(self) -> Sequence[Triple]:
        """All triples in insertion order (cached read-only view).

        The tuple is materialised on first access and reused until the next
        :meth:`add` invalidates it, so repeated reads are O(1) instead of the
        O(M) copy the seed implementation made on every access.
        """
        if self._triples_view is None:
            self._triples_view = tuple(self._backend.iter_triples())
        return self._triples_view

    def triple_at(self, position: int) -> Triple:
        """Return the triple stored at ``position`` (insertion order)."""
        return self._backend.triple_at(position)

    def triples_at(self, positions: Sequence[int] | np.ndarray) -> list[Triple]:
        """Materialise the triples at the given positions, in the given order."""
        return self._backend.triples_at(positions)

    @property
    def entity_ids(self) -> Sequence[str]:
        """All subject entity ids, in first-seen order (cached view)."""
        if self._entity_ids_view is None:
            self._entity_ids_view = tuple(self._backend.entity_ids())
        return self._entity_ids_view

    def cluster(self, entity_id: str) -> EntityCluster:
        """Return the entity cluster ``G[e]`` for ``entity_id``.

        Raises
        ------
        KeyError
            If the entity id has no triples in this graph.
        """
        positions = self._backend.cluster_positions(entity_id)
        return EntityCluster(entity_id, tuple(self._backend.triples_at(positions)))

    def clusters(self) -> Iterator[EntityCluster]:
        """Iterate over all entity clusters in first-seen order."""
        for entity_id in self.entity_ids:
            yield self.cluster(entity_id)

    def cluster_size(self, entity_id: str) -> int:
        """Return ``M_i`` for the given entity id."""
        return self._backend.cluster_size(entity_id)

    def cluster_sizes(self) -> Mapping[str, int]:
        """Return a mapping of entity id to cluster size."""
        sizes = self._backend.cluster_size_array()
        return {entity: int(size) for entity, size in zip(self.entity_ids, sizes)}

    def cluster_size_array(self) -> np.ndarray:
        """Return cluster sizes as an ``int64`` array aligned with :attr:`entity_ids`."""
        return self._backend.cluster_size_array()

    def has_entity(self, entity_id: str) -> bool:
        """Return whether any triple has ``entity_id`` as its subject."""
        return self._backend.has_entity(entity_id)

    # ------------------------------------------------------------------ #
    # Position API (allocation-free cluster views)
    # ------------------------------------------------------------------ #
    def cluster_positions(self, entity_id: str) -> np.ndarray:
        """Positions of the entity's triples (zero-copy on columnar backends)."""
        return self._backend.cluster_positions(entity_id)

    def entity_row(self, entity_id: str) -> int:
        """Row index of ``entity_id`` in :attr:`entity_ids` order."""
        return self._backend.entity_row(entity_id)

    def entity_id_of_row(self, row: int) -> str:
        """Subject id of cluster ``row`` (inverse of :meth:`entity_row`)."""
        return self._backend.entity_id_of_row(row)

    def cluster_positions_by_row(self, row: int) -> np.ndarray:
        """Positions of cluster ``row``'s triples (zero-copy on columnar backends)."""
        return self._backend.cluster_positions_by_row(row)

    def labels_for_positions(
        self,
        positions: Sequence[int] | np.ndarray,
        labels: Mapping[Triple, bool] | np.ndarray,
    ) -> np.ndarray:
        """Resolve correctness labels for triple positions as a boolean array.

        ``labels`` may be a position-aligned boolean array (fancy-indexed,
        no Triple objects are created) or a Triple-keyed mapping (each
        position is materialised and looked up — the compatibility path).
        """
        if isinstance(labels, np.ndarray):
            return labels[np.asarray(positions, dtype=np.int64)]
        return np.fromiter(
            (labels[t] for t in self._backend.triples_at(positions)),
            dtype=bool,
            count=len(positions),
        )

    def position_label_array(
        self, labels: Mapping[Triple, bool], default: bool = False
    ) -> np.ndarray:
        """Convert a Triple-keyed label mapping into a position-aligned array.

        One O(M) pass; afterwards :meth:`labels_for_positions` resolves labels
        without touching Triple objects at all.
        """
        return np.fromiter(
            (labels.get(t, default) for t in self._backend.iter_triples()),
            dtype=bool,
            count=self.num_triples,
        )

    # ------------------------------------------------------------------ #
    # Sampling helpers
    # ------------------------------------------------------------------ #
    def sample_triples(self, count: int, rng: np.random.Generator) -> list[Triple]:
        """Draw ``count`` triples uniformly at random without replacement."""
        if count > self.num_triples:
            raise ValueError(f"cannot draw {count} triples from a graph with {self.num_triples}")
        positions = rng.choice(self.num_triples, size=count, replace=False)
        return self._backend.triples_at(positions)

    def sample_cluster_positions(
        self, entity_id: str, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``min(count, M_i)`` triple positions without replacement from one cluster.

        Consumes the random stream exactly like the seed implementation of
        :meth:`sample_cluster_triples` (one ``rng.choice`` call), so draws are
        bit-for-bit reproducible across storage backends.
        """
        positions = self._backend.cluster_positions(entity_id)
        take = min(count, len(positions))
        chosen = rng.choice(len(positions), size=take, replace=False)
        return np.asarray(positions)[chosen]

    def sample_cluster_triples(
        self, entity_id: str, count: int, rng: np.random.Generator
    ) -> list[Triple]:
        """Draw ``min(count, M_i)`` triples without replacement from one cluster."""
        return self._backend.triples_at(self.sample_cluster_positions(entity_id, count, rng))

    def sample_cluster_positions_batch(
        self,
        rows: np.ndarray,
        cap: int,
        rng: np.random.Generator,
        executor=None,
    ) -> list[np.ndarray]:
        """Second-stage sample of up to ``cap`` positions from each cluster row.

        The vectorised fast path behind the designs' position draws: clusters
        no larger than ``cap`` contribute their full (zero-copy) position
        slice; larger clusters are subsampled without replacement with a
        batched Floyd pass (``cap`` vectorised RNG calls for the whole batch
        instead of one ``rng.choice`` per cluster).  The random stream
        therefore differs from :meth:`sample_cluster_positions`; within one
        backend it is still fully deterministic under a fixed seed.

        With ``executor`` (a
        :class:`~repro.sampling.parallel.ParallelSamplingExecutor`) the
        second stage fans out across the executor's shard plan instead: one
        seed is drawn from ``rng`` and each shard subsamples its clusters
        under its own spawned stream, so the result is deterministic for a
        given plan regardless of worker count or scheduling (but consumes
        the random stream differently from the single-stream path).
        """
        if executor is not None:
            entropy = int(rng.integers(np.iinfo(np.int64).max))
            return executor.sample_rows(rows, cap, entropy)
        rows = np.asarray(rows, dtype=np.int64)
        csr = self._backend.csr_arrays()
        if csr is None:
            out: list[np.ndarray | None] = [None] * rows.shape[0]
            for i, row in enumerate(rows):
                positions = np.asarray(self._backend.cluster_positions_by_row(int(row)))
                if positions.shape[0] <= cap:
                    out[i] = positions
                else:
                    out[i] = positions[rng.choice(positions.shape[0], size=cap, replace=False)]
            return out  # type: ignore[return-value]
        offsets, positions = csr
        return sample_csr_positions_batch(offsets, positions, rows, cap, rng)

    def shard_plan(self, num_shards: int) -> "ShardPlan":
        """Split this graph's CSR cluster index into balanced contiguous shards.

        See :class:`~repro.storage.shard.ShardPlan`; the parallel draw engine
        (:mod:`repro.sampling.parallel`) consumes the plan.
        """
        from repro.storage.shard import ShardPlan

        return ShardPlan.for_graph(self, num_shards)

    # ------------------------------------------------------------------ #
    # Storage conversion / persistence
    # ------------------------------------------------------------------ #
    def to_columnar(self, name: str | None = None) -> "KnowledgeGraph":
        """Return this graph re-packed onto a columnar backend."""
        from repro.storage.columnar import ColumnarStore

        if isinstance(self._backend, ColumnarStore):
            return self
        store = ColumnarStore.from_graph(self._backend.iter_triples())
        store.finalize()
        return KnowledgeGraph(name=name if name is not None else self.name, backend=store)

    def to_sqlite(
        self, path: str | Path | None = None, name: str | None = None
    ) -> "KnowledgeGraph":
        """Return this graph re-packed onto a disk-resident SQLite backend.

        Routes through the columnar representation so vocabulary ids, triple
        positions and entity rows — and therefore every seeded draw — are
        bit-identical to the columnar backend's.  ``path=None`` uses a
        private temporary database file.
        """
        from repro.storage.sqlite import SqliteStore

        if isinstance(self._backend, SqliteStore):
            return self
        graph_name = name if name is not None else self.name
        columnar = self.to_columnar()
        store = SqliteStore.from_columnar(columnar.backend, path=path, name=graph_name)
        return KnowledgeGraph(name=graph_name, backend=store)

    def save_snapshot(
        self,
        path: str | Path,
        compress: bool = False,
        labels: np.ndarray | None = None,
        annotated: np.ndarray | None = None,
    ) -> Path:
        """Persist the graph via :class:`~repro.storage.snapshot.SnapshotStore`.

        ``labels`` / ``annotated`` are optional position-aligned boolean
        arrays saved next to the columns (snapshot format v2), so an
        evaluation or monitoring run can stop and resume without
        re-annotating.
        """
        from repro.storage.snapshot import SnapshotStore

        return SnapshotStore(path).save(
            self, name=self.name, compress=compress, labels=labels, annotated=annotated
        )

    @classmethod
    def from_snapshot(
        cls, path: str | Path, mmap: bool = False, name: str | None = None
    ) -> "KnowledgeGraph":
        """Reopen a snapshot as a columnar-backed graph (optionally memory-mapped)."""
        from repro.storage.snapshot import SnapshotStore

        return SnapshotStore(path).load_graph(mmap=mmap, name=name)

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def subset(self, entity_ids: Iterable[str], name: str | None = None) -> "KnowledgeGraph":
        """Return a new graph containing only the clusters in ``entity_ids``."""
        subset_name = name if name is not None else f"{self.name}-subset"
        result = KnowledgeGraph(name=subset_name)
        for entity_id in entity_ids:
            if not self._backend.has_entity(entity_id):
                continue
            for triple in self._backend.triples_at(self._backend.cluster_positions(entity_id)):
                result.add(triple)
        return result

    def random_triple_subset(
        self, fraction: float, rng: np.random.Generator, name: str | None = None
    ) -> "KnowledgeGraph":
        """Return a new graph with a uniformly random ``fraction`` of the triples."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        count = max(1, int(round(fraction * self.num_triples)))
        subset_name = name if name is not None else f"{self.name}-{fraction:.0%}"
        return KnowledgeGraph(self.sample_triples(count, rng), name=subset_name)

    def copy(self, name: str | None = None) -> "KnowledgeGraph":
        """Return a shallow copy of this graph (triples are immutable).

        The copy uses a fresh backend of the same kind as this graph's.
        """
        return KnowledgeGraph(
            self._backend.iter_triples(),
            name=name if name is not None else self.name,
            backend=type(self._backend)(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KnowledgeGraph(name={self.name!r}, entities={self.num_entities}, "
            f"triples={self.num_triples})"
        )

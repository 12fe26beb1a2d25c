"""Two-stage weighted cluster sampling — TWCS (Section 5.2.3).

The paper's best design:

1. **First stage** — draw entity clusters with replacement, with probability
   proportional to cluster size (as in WCS).
2. **Second stage** — within each sampled cluster, draw ``min(M_i, m)``
   triples by simple random sampling *without* replacement and annotate only
   those.

The estimator is the mean of the within-cluster sample accuracies,

    µ̂_{w,m} = (1/n) Σ_k µ̂_{I_k}                              (Eq. 9)

which is unbiased for any ``m`` (Proposition 1) and reduces to SRS when
``m = 1`` (Proposition 2).  The second stage caps the annotation cost per
sampled cluster at ``c1 + m·c2``, which is where the overall cost saving over
SRS comes from.
"""

from __future__ import annotations

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.sampling.base import (
    Estimate,
    PositionUnit,
    SampleUnit,
    SamplingDesign,
    draw_weighted,
    segment_label_sums,
    weighted_cdf,
)
from repro.stats.running import RunningMean

__all__ = ["TwoStageWeightedClusterDesign"]


class TwoStageWeightedClusterDesign(SamplingDesign):
    """TWCS: size-weighted first stage, capped SRS second stage.

    Parameters
    ----------
    graph:
        The knowledge graph to evaluate.
    second_stage_size:
        The cap ``m`` on triples annotated per sampled cluster.  Values around
        3–5 are near-optimal on all KGs studied in the paper (Section 7.2.2);
        use :func:`repro.sampling.optimal.optimal_second_stage_size` to pick it
        from pilot information.
    seed:
        Seed or generator for reproducible draws.
    """

    unit_name = "cluster"

    def __init__(
        self,
        graph: KnowledgeGraph,
        second_stage_size: int = 5,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if second_stage_size < 1:
            raise ValueError("second_stage_size must be at least 1")
        if graph.num_triples == 0:
            raise ValueError("cannot sample from an empty knowledge graph")
        self.graph = graph
        self.second_stage_size = second_stage_size
        self._rng = np.random.default_rng(seed)
        self._sizes = graph.cluster_size_array()
        sizes = self._sizes.astype(float)
        self._cdf = weighted_cdf(sizes / sizes.sum())
        #: entity-id strings are only needed by the object draw surface;
        #: materialised lazily so position-only runs never pay for them.
        self._entity_ids_cache: list[str] | None = None
        self._cluster_means = RunningMean()
        self._num_triples = 0

    @property
    def _entity_ids(self) -> list[str]:
        if self._entity_ids_cache is None:
            self._entity_ids_cache = list(self.graph.entity_ids)
        return self._entity_ids_cache

    def reset(self) -> None:
        """Clear the accumulated within-cluster sample accuracies."""
        self._cluster_means = RunningMean()
        self._num_triples = 0

    def draw(self, count: int) -> list[SampleUnit]:
        """Draw ``count`` cluster units, each carrying at most ``m`` triples."""
        if count < 0:
            raise ValueError("count must be non-negative")
        entity_ids = self._entity_ids
        indices = draw_weighted(self._rng, self._cdf, count)
        graph = self.graph
        units = []
        for index in indices:
            entity_id = entity_ids[int(index)]
            positions = graph.sample_cluster_positions(entity_id, self.second_stage_size, self._rng)
            units.append(
                SampleUnit(
                    triples=tuple(graph.triples_at(positions)),
                    entity_id=entity_id,
                    cluster_size=int(self._sizes[index]),
                    positions=positions,
                )
            )
        return units

    def draw_positions(self, count: int) -> list[PositionUnit]:
        """Draw ``count`` cluster units as position-only views (no Triples)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        rows = draw_weighted(self._rng, self._cdf, count)
        batches = self.graph.sample_cluster_positions_batch(rows, self.second_stage_size, self._rng)
        sizes = self._sizes
        return [
            PositionUnit(positions=positions, entity_row=int(row), cluster_size=int(sizes[row]))
            for row, positions in zip(rows, batches)
        ]

    def update(self, unit: SampleUnit, labels: dict[Triple, bool]) -> None:
        """Add one cluster's within-sample accuracy ``µ̂_{I_k}`` to the mean."""
        num_correct = sum(1 for triple in unit.triples if labels[triple])
        self._cluster_means.add(num_correct / unit.num_triples)
        self._num_triples += unit.num_triples

    def update_positions(self, unit: PositionUnit, labels: np.ndarray) -> None:
        """Position-surface twin of :meth:`update` (labels as a boolean array)."""
        self._cluster_means.add(float(labels.mean()))
        self._num_triples += int(labels.shape[0])

    def update_all_positions(self, units: list[PositionUnit], label_array: np.ndarray) -> None:
        """Vectorised batch update: one gather + ``reduceat`` for the whole batch."""
        if not units:
            return
        counts, sums = segment_label_sums(units, label_array)
        self.absorb_position_stats(counts, sums)

    def absorb_position_stats(self, counts: np.ndarray, sums: np.ndarray) -> None:
        """Fold externally drawn per-cluster ``(counts, sums)`` into the estimator.

        Lets the parallel shard engine feed this design's Eq. (9) accumulator
        with draws it performed itself (one
        :class:`~repro.sampling.parallel.ShardDraw` per call, in shard order),
        keeping :meth:`estimate` the single source of truth either way.
        """
        if counts.shape[0] == 0:
            return
        self._cluster_means.add_many(sums / counts)
        self._num_triples += int(counts.sum())

    def estimate(self) -> Estimate:
        """Eq. (9): mean of within-cluster accuracies with its standard error."""
        return Estimate(
            value=self._cluster_means.mean,
            std_error=self._cluster_means.std_error,
            num_units=self._cluster_means.count,
            num_triples=self._num_triples,
        )

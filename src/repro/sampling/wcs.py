"""Weighted cluster sampling (Section 5.2.2).

Clusters are drawn *with replacement* with probability proportional to their
size, ``π_i = M_i / M``; all triples of a sampled cluster are annotated.  The
Hansen–Hurwitz estimator is the plain mean of the sampled cluster accuracies:

    µ̂_w = (1/n) Σ_k µ_{I_k}                                  (Eq. 8)

Because it averages *accuracies* rather than correct-triple *counts*, its
variance does not blow up with the spread of cluster sizes, fixing the main
weakness of random cluster sampling.
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

__all__ = ["WeightedClusterDesign"]


class WeightedClusterDesign(SamplingDesign):
    """Size-weighted cluster sampling with the Hansen–Hurwitz estimator.

    Parameters
    ----------
    graph:
        The knowledge graph to evaluate.
    seed:
        Seed or generator for reproducible draws.
    """

    unit_name = "cluster"

    def __init__(
        self, graph: KnowledgeGraph, seed: int | np.random.Generator | None = None
    ) -> None:
        if graph.num_triples == 0:
            raise ValueError("cannot sample from an empty knowledge graph")
        self.graph = graph
        self._rng = np.random.default_rng(seed)
        self._sizes = graph.cluster_size_array()
        sizes = self._sizes.astype(float)
        self._cdf = weighted_cdf(sizes / sizes.sum())
        self._entity_ids_cache: list[str] | None = None
        self._values = RunningMean()
        self._num_triples = 0

    @property
    def _entity_ids(self) -> list[str]:
        if self._entity_ids_cache is None:
            self._entity_ids_cache = list(self.graph.entity_ids)
        return self._entity_ids_cache

    def reset(self) -> None:
        """Clear the accumulated cluster accuracies."""
        self._values = RunningMean()
        self._num_triples = 0

    def _draw_cluster_indices(self, count: int) -> np.ndarray:
        return draw_weighted(self._rng, self._cdf, count)

    def draw(self, count: int) -> list[SampleUnit]:
        """Draw ``count`` clusters with probability proportional to size."""
        if count < 0:
            raise ValueError("count must be non-negative")
        graph = self.graph
        entity_ids = self._entity_ids
        units = []
        for index in self._draw_cluster_indices(count):
            entity_id = entity_ids[int(index)]
            positions = graph.cluster_positions(entity_id)
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
        """Draw ``count`` whole clusters as zero-copy position views."""
        if count < 0:
            raise ValueError("count must be non-negative")
        graph = self.graph
        sizes = self._sizes
        return [
            PositionUnit(
                positions=graph.cluster_positions_by_row(int(row)),
                entity_row=int(row),
                cluster_size=int(sizes[row]),
            )
            for row in self._draw_cluster_indices(count)
        ]

    def update(self, unit: SampleUnit, labels: dict[Triple, bool]) -> None:
        """Add one sampled cluster's accuracy to the Hansen–Hurwitz mean."""
        num_correct = sum(1 for triple in unit.triples if labels[triple])
        self._values.add(num_correct / unit.num_triples)
        self._num_triples += unit.num_triples

    def update_positions(self, unit: PositionUnit, labels: np.ndarray) -> None:
        """Position-surface twin of :meth:`update`."""
        self._values.add(float(labels.mean()))
        self._num_triples += int(labels.shape[0])

    def update_all_positions(self, units: list[PositionUnit], label_array: np.ndarray) -> None:
        """Vectorised batch update: one gather + ``reduceat`` for the whole batch."""
        if not units:
            return
        counts, sums = segment_label_sums(units, label_array)
        self._values.add_many(sums / counts)
        self._num_triples += int(counts.sum())

    def estimate(self) -> Estimate:
        """Mean of sampled cluster accuracies with its standard error."""
        return Estimate(
            value=self._values.mean,
            std_error=self._values.std_error,
            num_units=self._values.count,
            num_triples=self._num_triples,
        )

"""Building strata over entity clusters (Section 5.3).

Two strategies from the paper:

* **size stratification** — cut cluster sizes into strata with the
  Dalenius–Hodges cumulative-√F rule; practical because cluster size is always
  observable and (per Figure 3) correlates with entity accuracy;
* **oracle stratification** — stratify directly on the true entity accuracy;
  impossible in practice but gives a lower bound on the achievable cost, used
  as such in Table 7.

Both return a list of :class:`Stratum` objects carrying the entity ids and the
stratum weight ``W_h = M_[h] / M``, ready to be consumed by
:class:`~repro.sampling.stratified.StratifiedTWCSDesign`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.stats.allocation import cumulative_sqrt_frequency_boundaries

__all__ = ["Stratum", "stratify_by_size", "stratify_by_oracle_accuracy", "stratify_by_key"]


@dataclass(frozen=True)
class Stratum:
    """One stratum of entity clusters.

    Attributes
    ----------
    label:
        Human-readable description of the stratum (e.g. ``"size<=3"``).
    entity_ids:
        The entity ids assigned to this stratum.
    num_triples:
        Total triples across the stratum's clusters (``M_[h]``).
    weight:
        Stratum weight ``W_h = M_[h] / M``.
    """

    label: str
    entity_ids: tuple[str, ...]
    num_triples: int
    weight: float

    @property
    def num_entities(self) -> int:
        """Number of entity clusters in this stratum."""
        return len(self.entity_ids)


def _build_strata(
    graph: KnowledgeGraph, assignment: Mapping[str, int], labels: Mapping[int, str]
) -> list[Stratum]:
    """Assemble :class:`Stratum` objects from an entity→stratum-index mapping."""
    totals: dict[int, int] = {}
    members: dict[int, list[str]] = {}
    for entity_id, stratum_index in assignment.items():
        members.setdefault(stratum_index, []).append(entity_id)
        totals[stratum_index] = totals.get(stratum_index, 0) + graph.cluster_size(entity_id)
    total_triples = graph.num_triples
    strata = []
    for stratum_index in sorted(members):
        strata.append(
            Stratum(
                label=labels.get(stratum_index, f"stratum-{stratum_index}"),
                entity_ids=tuple(members[stratum_index]),
                num_triples=totals[stratum_index],
                weight=totals[stratum_index] / total_triples,
            )
        )
    return strata


def stratify_by_key(
    graph: KnowledgeGraph,
    key: Callable[[str], float],
    boundaries: Sequence[float],
    label_prefix: str = "stratum",
) -> list[Stratum]:
    """Stratify clusters by an arbitrary numeric key and fixed boundaries.

    A cluster with key ``v`` is assigned to stratum ``h`` where ``h`` is the
    number of boundaries strictly below ``v`` (i.e. boundaries are upper
    bounds, inclusive).
    """
    sorted_boundaries = list(boundaries)
    assignment: dict[str, int] = {}
    for entity_id in graph.entity_ids:
        value = key(entity_id)
        index = int(np.searchsorted(sorted_boundaries, value, side="left"))
        assignment[entity_id] = index
    return _build_strata(graph, assignment, _boundary_labels(sorted_boundaries, label_prefix))


def _boundary_labels(boundaries: Sequence[float], label_prefix: str) -> dict[int, str]:
    """Stratum index -> label for the strata cut by ``boundaries``."""
    labels = {}
    for index in range(len(boundaries) + 1):
        lower = boundaries[index - 1] if index > 0 else None
        upper = boundaries[index] if index < len(boundaries) else None
        if lower is None and upper is not None:
            labels[index] = f"{label_prefix}<= {upper:g}"
        elif upper is None and lower is not None:
            labels[index] = f"{label_prefix}> {lower:g}"
        elif lower is not None and upper is not None:
            labels[index] = f"{label_prefix}({lower:g}, {upper:g}]"
        else:
            labels[index] = f"{label_prefix}-all"
    return labels


def stratify_by_size(graph: KnowledgeGraph, num_strata: int = 4) -> list[Stratum]:
    """Size stratification with the cumulative-√F rule (Table 7's setting).

    The paper uses two strata for NELL and four for MOVIE / MOVIE-SYN; the
    number of strata is a parameter here.
    """
    if num_strata < 1:
        raise ValueError("num_strata must be at least 1")
    sizes = graph.cluster_size_array()
    boundaries = cumulative_sqrt_frequency_boundaries(sizes, num_strata)
    # The strata stratify_by_key(graph, graph.cluster_size, boundaries) builds,
    # from one pass over the size array instead of a size lookup per entity.
    assignment = np.searchsorted(np.asarray(boundaries, dtype=np.float64), sizes, side="left")
    totals = np.bincount(assignment, weights=sizes, minlength=len(boundaries) + 1)
    members = np.bincount(assignment, minlength=len(boundaries) + 1)
    order = np.argsort(assignment, kind="stable").tolist()
    entity_ids = graph.entity_ids
    labels = _boundary_labels(boundaries, "size")
    total_triples = graph.num_triples
    strata = []
    start = 0
    for stratum_index, count in enumerate(members.tolist()):
        if count == 0:
            continue
        stratum_triples = int(totals[stratum_index])
        strata.append(
            Stratum(
                label=labels[stratum_index],
                entity_ids=tuple(entity_ids[row] for row in order[start : start + count]),
                num_triples=stratum_triples,
                weight=stratum_triples / total_triples,
            )
        )
        start += count
    return strata


def stratify_by_oracle_accuracy(
    graph: KnowledgeGraph,
    cluster_accuracies: Mapping[str, float],
    num_strata: int = 4,
) -> list[Stratum]:
    """Oracle stratification: group clusters by their *true* accuracy.

    Only possible when ground-truth labels exist for the full KG; serves as
    the lower bound on annotation cost in Table 7.
    """
    if num_strata < 1:
        raise ValueError("num_strata must be at least 1")
    boundaries = np.linspace(0.0, 1.0, num_strata + 1)[1:-1]
    return stratify_by_key(
        graph,
        lambda entity_id: cluster_accuracies[entity_id],
        [float(b) for b in boundaries],
        label_prefix="accuracy",
    )

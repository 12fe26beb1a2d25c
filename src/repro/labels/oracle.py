"""The ground-truth label store consulted by the simulated annotator.

In the paper the correctness of a triple is a value function
``f : t -> {0, 1}`` obtained by manual annotation.  In this reproduction human
annotators are replaced by a :class:`LabelOracle` holding the ground truth
(either loaded from an annotated file or generated synthetically); the
annotation *cost* is charged separately by :mod:`repro.cost`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple

__all__ = ["LabelOracle"]

# Default for ``dict.get`` in :meth:`LabelOracle.label`, so a single lookup
# (one Triple hash) tells a missing triple from a stored label.
_MISSING = object()


class LabelOracle:
    """Maps each triple to its true correctness label.

    Parameters
    ----------
    labels:
        Mapping of triple to boolean correctness.
    strict:
        When ``True`` (default), asking for an unknown triple raises
        ``KeyError``.  When ``False``, unknown triples are reported as correct,
        which is occasionally convenient for ad-hoc exploration but never used
        by the experiment harness.
    """

    def __init__(self, labels: Mapping[Triple, bool], strict: bool = True) -> None:
        self._labels = dict(labels)
        self._strict = strict

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def label(self, triple: Triple) -> bool:
        """Return the correctness label of ``triple``."""
        value = self._labels.get(triple, _MISSING)
        if value is not _MISSING:
            return value
        if self._strict:
            raise KeyError(f"no ground-truth label for {triple}")
        return True

    def labels_for(self, triples: Iterable[Triple]) -> list[bool]:
        """Return labels for a sequence of triples, preserving order."""
        return [self.label(triple) for triple in triples]

    @property
    def strict(self) -> bool:
        """Whether unknown triples raise ``KeyError`` (else they count as correct)."""
        return self._strict

    @property
    def mapping(self) -> Mapping[Triple, bool]:
        """Read-only view of the underlying triple -> label mapping."""
        return self._labels

    def as_position_array(self, graph: KnowledgeGraph):
        """Labels as a boolean array aligned with ``graph`` triple positions.

        One O(M) conversion; afterwards the samplers' position surface
        (``draw_positions`` / ``update_all_positions``) resolves labels with
        pure array indexing, no Triple hashing.  Unknown triples follow the
        oracle's ``strict`` setting: ``KeyError`` when strict, ``True``
        otherwise.
        """
        if not self._strict:
            return graph.position_label_array(self._labels, default=True)
        import numpy as np

        # self.label raises the oracle's KeyError on the first missing triple,
        # so strictness costs no extra pass over the graph.
        return np.fromiter(
            (self.label(triple) for triple in graph), dtype=bool, count=graph.num_triples
        )

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    # ------------------------------------------------------------------ #
    # Population-level quantities (used by tests and oracle stratification)
    # ------------------------------------------------------------------ #
    def count_correct(self, graph: KnowledgeGraph) -> int:
        """Number of triples of ``graph`` labelled correct (one O(M) pass)."""
        return sum(1 for triple in graph if self.label(triple))

    def true_accuracy(self, graph: KnowledgeGraph) -> float:
        """The exact population accuracy ``µ(G)`` under this oracle."""
        if graph.num_triples == 0:
            return 0.0
        return self.count_correct(graph) / graph.num_triples

    def cluster_accuracy(self, graph: KnowledgeGraph, entity_id: str) -> float:
        """The exact accuracy ``µ_i`` of one entity cluster."""
        cluster = graph.cluster(entity_id)
        correct = sum(1 for triple in cluster if self.label(triple))
        return correct / cluster.size

    def cluster_accuracies(self, graph: KnowledgeGraph) -> dict[str, float]:
        """Exact per-cluster accuracies for every entity in ``graph``."""
        return {
            cluster.entity_id: sum(1 for t in cluster if self.label(t)) / cluster.size
            for cluster in graph.clusters()
        }

    # ------------------------------------------------------------------ #
    # Composition
    # ------------------------------------------------------------------ #
    def extend(self, other: "LabelOracle | Mapping[Triple, bool]") -> None:
        """Add labels from ``other`` in place (new labels win on conflict).

        Evolving-KG evaluation extends the oracle as each update batch arrives
        with its own ground-truth labels.
        """
        if isinstance(other, LabelOracle):
            self._labels.update(other._labels)
        else:
            self._labels.update(other)

    def merged_with(self, other: "LabelOracle") -> "LabelOracle":
        """Return a new oracle containing this oracle's labels plus ``other``'s.

        Labels from ``other`` win on conflict; used when an evolving KG's
        update batches carry their own synthetic labels.
        """
        combined = dict(self._labels)
        combined.update(other._labels)
        return LabelOracle(combined, strict=self._strict)

    def as_dict(self) -> dict[Triple, bool]:
        """Return a copy of the underlying triple-to-label mapping."""
        return dict(self._labels)

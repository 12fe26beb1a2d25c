"""Common types shared by every sampling design.

Every design supports two draw/estimate surfaces:

* the object surface (:meth:`SamplingDesign.draw` /
  :meth:`SamplingDesign.update`) — units carry materialised
  :class:`~repro.kg.triple.Triple` tuples and labels arrive as a
  Triple-keyed mapping.  This is what annotation flows need: triples are
  handed to (simulated) annotators.
* the position surface (:meth:`SamplingDesign.draw_positions` /
  :meth:`SamplingDesign.update_positions`) — units carry integer triple
  positions only and labels arrive as boolean arrays, so hot draw/estimate
  loops (benchmarks, oracle-backed simulations, pilot sizing sweeps) never
  allocate per-draw Triple tuples.  Position draws consume the random stream
  differently from object draws (they use the vectorised batch samplers),
  but are fully deterministic under a fixed seed on any storage backend.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.kg.triple import Triple
from repro.stats.ci import ConfidenceInterval, normal_interval

__all__ = [
    "SampleUnit",
    "PositionUnit",
    "Estimate",
    "SamplingDesign",
    "segment_label_sums",
    "weighted_cdf",
    "draw_weighted",
]


@dataclass(frozen=True)
class SampleUnit:
    """One draw made by a sampling design.

    For triple-level designs a unit is a single triple; for cluster designs it
    is the set of triples selected from one sampled entity cluster (all of them
    for RCS/WCS, at most ``m`` of them for TWCS).

    Attributes
    ----------
    triples:
        The triples that must be annotated for this unit.
    entity_id:
        Subject id of the sampled cluster, or ``None`` for triple-level units.
    cluster_size:
        Size ``M_i`` of the sampled cluster (1 for triple-level units).
    positions:
        Graph positions of :attr:`triples` when the producing design knows
        them (all backends report positions since the storage refactor);
        excluded from equality.  Lets estimate code resolve labels through
        ``KnowledgeGraph.labels_for_positions`` without hashing Triples.
    """

    triples: tuple[Triple, ...]
    entity_id: str | None = None
    cluster_size: int = 1
    positions: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def num_triples(self) -> int:
        """Number of triples that need annotation for this unit."""
        return len(self.triples)


@dataclass(slots=True)
class PositionUnit:
    """One draw expressed purely as triple positions (no Triple objects).

    Attributes
    ----------
    positions:
        Graph positions of the triples selected for this unit — often a
        zero-copy view into the backend's CSR index.
    entity_row:
        Row of the sampled cluster in ``graph.entity_ids`` order, or ``-1``
        for triple-level units.
    cluster_size:
        Size ``M_i`` of the sampled cluster (1 for triple-level units).
    """

    positions: np.ndarray
    entity_row: int = -1
    cluster_size: int = 1

    @property
    def num_triples(self) -> int:
        """Number of triples selected for this unit."""
        return int(self.positions.shape[0])


def segment_label_sums(
    units: list[PositionUnit], label_array: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit sizes and correct-label sums for a batch of position units.

    One flat gather over ``label_array`` plus a cumulative-sum segment
    reduction instead of one fancy-index + reduction per unit; the backbone
    of the designs' vectorised ``update_all_positions`` overrides.  Returns
    ``(counts, sums)`` as ``int64`` / ``float64`` arrays aligned with
    ``units``; a zero-length unit contributes a sum of 0.
    """
    if not units:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    counts = np.fromiter(
        (unit.positions.shape[0] for unit in units), dtype=np.int64, count=len(units)
    )
    flat = np.concatenate([unit.positions for unit in units])
    correct = label_array[flat].astype(np.float64)
    # Segment sums via prefix-sum differences (unlike np.add.reduceat, this
    # stays correct when a segment is empty or ends the batch).
    prefix = np.concatenate(([0.0], np.cumsum(correct)))
    ends = np.cumsum(counts)
    return counts, prefix[ends] - prefix[ends - counts]


#: ``Generator.choice``'s tolerance on ``|sum(p) - 1|``.
_PROBABILITY_ATOL = math.sqrt(np.finfo(np.float64).eps)


def weighted_cdf(probabilities: np.ndarray) -> np.ndarray:
    """Validated cumulative distribution for :func:`draw_weighted`.

    Checks ``probabilities`` as ``Generator.choice(p=...)`` does (raising
    ``ValueError`` for NaN, negative entries or a total other than 1) and
    builds the CDF exactly as it does, so a design can validate once and
    reuse the CDF for every draw.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] == 0:
        raise ValueError("probabilities must be a non-empty 1-dimensional array")
    total = float(p.sum())
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _PROBABILITY_ATOL:
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_weighted(rng: np.random.Generator, cdf: np.ndarray, count: int) -> np.ndarray:
    """``count`` with-replacement draws from the distribution behind ``cdf``.

    Consumes ``rng`` and returns the indices exactly as
    ``rng.choice(len(cdf), size=count, replace=True, p=p)`` would for the
    ``p`` that :func:`weighted_cdf` was built from, without re-validating
    and re-summing ``p`` on every call.
    """
    return cdf.searchsorted(rng.random(count), side="right")


@dataclass(frozen=True)
class Estimate:
    """A point estimate of KG accuracy with its sampling uncertainty.

    Attributes
    ----------
    value:
        The unbiased point estimate ``µ̂``.
    std_error:
        Estimated standard error of ``µ̂`` (``inf`` until enough units have
        been observed for a variance estimate).
    num_units:
        Number of sample units the estimate is based on (triples for SRS,
        cluster draws for cluster designs).
    num_triples:
        Total number of triples annotated to produce the estimate.
    """

    value: float
    std_error: float
    num_units: int
    num_triples: int

    def margin_of_error(self, confidence_level: float) -> float:
        """Margin of error at the given confidence level (Eq. 1)."""
        if math.isinf(self.std_error):
            return math.inf
        return normal_interval(self.value, self.std_error, confidence_level).margin_of_error

    def confidence_interval(self, confidence_level: float) -> ConfidenceInterval:
        """Normal-approximation confidence interval, clipped to [0, 1]."""
        if math.isinf(self.std_error):
            return ConfidenceInterval(self.value, 0.0, 1.0, confidence_level)
        return normal_interval(self.value, self.std_error, confidence_level).clipped()

    def satisfies(self, moe_target: float, confidence_level: float) -> bool:
        """Whether the estimate meets the user-required MoE threshold."""
        return self.margin_of_error(confidence_level) <= moe_target


class SamplingDesign(ABC):
    """Abstract interface implemented by every sampling design.

    A design owns both the *sampling* state (what may still be drawn) and the
    *estimation* state (the accumulator over annotated units) so that the
    iterative framework can interleave drawing, annotation and estimation
    without re-reading earlier samples.
    """

    #: Human-readable name of the sampling unit ("triple" or "cluster").
    unit_name: str = "unit"

    @abstractmethod
    def draw(self, count: int) -> list[SampleUnit]:
        """Draw up to ``count`` new sample units.

        May return fewer units than requested when the population is exhausted
        (e.g. SRS without replacement on a small KG); returns an empty list
        when nothing is left to draw.
        """

    @abstractmethod
    def update(self, unit: SampleUnit, labels: dict[Triple, bool]) -> None:
        """Fold the annotation results for one unit into the estimator."""

    @abstractmethod
    def estimate(self) -> Estimate:
        """Return the current estimate of KG accuracy."""

    @abstractmethod
    def reset(self) -> None:
        """Clear all sampling and estimation state (start a fresh run)."""

    # ------------------------------------------------------------------ #
    # Position surface (allocation-free draw/estimate loops)
    # ------------------------------------------------------------------ #
    def draw_positions(self, count: int) -> list[PositionUnit]:
        """Draw up to ``count`` units as position-only views.

        Designs that have not been migrated to the position surface raise
        ``NotImplementedError``.  The five core designs (SRS, RCS, WCS,
        TWCS, TSRCS) and ``StratifiedTWCSDesign`` implement it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the position draw surface"
        )

    def update_positions(self, unit: PositionUnit, labels: np.ndarray) -> None:
        """Fold one position unit into the estimator.

        ``labels`` is a boolean array aligned with ``unit.positions``
        (typically ``label_array[unit.positions]``).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the position update surface"
        )

    # ------------------------------------------------------------------ #
    # Conveniences shared by all designs
    # ------------------------------------------------------------------ #
    def update_all(self, units: list[SampleUnit], labels: dict[Triple, bool]) -> None:
        """Update the estimator with several units at once."""
        for unit in units:
            self.update(unit, labels)

    def update_all_positions(self, units: list[PositionUnit], label_array: np.ndarray) -> None:
        """Update the estimator with several position units at once.

        ``label_array`` is a position-aligned boolean array over the whole
        graph (see ``KnowledgeGraph.position_label_array``).
        """
        for unit in units:
            self.update_positions(unit, label_array[unit.positions])

    @property
    def exhausted(self) -> bool:
        """Whether the design can no longer produce new sample units."""
        return False

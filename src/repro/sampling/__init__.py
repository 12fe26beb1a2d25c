"""Sampling designs and estimators (Section 5 of the paper).

Every design follows the same life cycle used by the iterative evaluation
framework (Section 4):

1. :meth:`~repro.sampling.base.SamplingDesign.draw` a batch of *sample units*
   (individual triples for SRS, cluster draws for the cluster designs);
2. hand the units' triples to an annotator for labels;
3. :meth:`~repro.sampling.base.SamplingDesign.update` the design's internal
   estimator with those labels;
4. read the current :meth:`~repro.sampling.base.SamplingDesign.estimate` and
   its margin of error.

Available designs:

* :class:`~repro.sampling.srs.SimpleRandomDesign` — triple-level simple random
  sampling (Section 5.1);
* :class:`~repro.sampling.rcs.RandomClusterDesign` — uniform cluster sampling
  (Section 5.2.1);
* :class:`~repro.sampling.wcs.WeightedClusterDesign` — size-weighted cluster
  sampling with the Hansen–Hurwitz estimator (Section 5.2.2);
* :class:`~repro.sampling.twcs.TwoStageWeightedClusterDesign` — the paper's
  best design, TWCS (Section 5.2.3);
* :class:`~repro.sampling.stratified.StratifiedTWCSDesign` — TWCS inside
  size/oracle strata (Section 5.3).

Supporting modules: theoretical variance Eq. (10)
(:mod:`repro.sampling.variance`), optimal second-stage size Eq. (12)
(:mod:`repro.sampling.optimal`), stratum construction
(:mod:`repro.sampling.stratification`) and weighted reservoir sampling
(:mod:`repro.sampling.reservoir`).
"""

from repro.sampling.base import Estimate, PositionUnit, SampleUnit, SamplingDesign
from repro.sampling.optimal import (
    expected_srs_cost_seconds,
    expected_twcs_cost_seconds,
    optimal_second_stage_size,
)
from repro.sampling.parallel import (
    PARALLEL_DESIGNS,
    CostSummary,
    ParallelSamplingExecutor,
    SamplingRun,
    SerialTransport,
    ShardDraw,
    ShardResult,
    ShardTask,
    ShardTransport,
)
from repro.sampling.pilot import PilotResult, recommend_design, run_pilot
from repro.sampling.rcs import RandomClusterDesign
from repro.sampling.reservoir import ReservoirItem, WeightedReservoir
from repro.sampling.segment import PositionSegment, SegmentTWCSDesign
from repro.sampling.srs import SimpleRandomDesign
from repro.sampling.stratification import (
    Stratum,
    stratify_by_oracle_accuracy,
    stratify_by_size,
)
from repro.sampling.stratified import StratifiedTWCSDesign
from repro.sampling.tsrcs import TwoStageRandomClusterDesign
from repro.sampling.twcs import TwoStageWeightedClusterDesign
from repro.sampling.variance import srs_variance, twcs_theoretical_variance
from repro.sampling.wcs import WeightedClusterDesign

__all__ = [
    "Estimate",
    "SampleUnit",
    "PositionUnit",
    "SamplingDesign",
    "SimpleRandomDesign",
    "RandomClusterDesign",
    "WeightedClusterDesign",
    "TwoStageWeightedClusterDesign",
    "TwoStageRandomClusterDesign",
    "StratifiedTWCSDesign",
    "PositionSegment",
    "SegmentTWCSDesign",
    "ParallelSamplingExecutor",
    "SamplingRun",
    "ShardDraw",
    "CostSummary",
    "PARALLEL_DESIGNS",
    "ShardTask",
    "ShardResult",
    "ShardTransport",
    "SerialTransport",
    "PilotResult",
    "run_pilot",
    "recommend_design",
    "Stratum",
    "stratify_by_size",
    "stratify_by_oracle_accuracy",
    "WeightedReservoir",
    "ReservoirItem",
    "srs_variance",
    "twcs_theoretical_variance",
    "optimal_second_stage_size",
    "expected_srs_cost_seconds",
    "expected_twcs_cost_seconds",
]

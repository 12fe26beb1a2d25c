"""Unit tests for stratum construction and the stratified TWCS design."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sampling.stratification import (
    Stratum,
    stratify_by_key,
    stratify_by_oracle_accuracy,
    stratify_by_size,
)
from repro.sampling.stratified import StratifiedTWCSDesign
from repro.stats.allocation import cumulative_sqrt_frequency_boundaries


def annotate_and_update(design, units, oracle):
    for unit in units:
        labels = {triple: oracle.label(triple) for triple in unit.triples}
        design.update(unit, labels)


class TestStratification:
    def test_strata_partition_all_entities(self, nell):
        strata = stratify_by_size(nell.graph, num_strata=3)
        all_entities = [e for stratum in strata for e in stratum.entity_ids]
        assert sorted(all_entities) == sorted(nell.graph.entity_ids)
        assert len(all_entities) == len(set(all_entities))

    def test_stratum_weights_sum_to_one(self, nell):
        strata = stratify_by_size(nell.graph, num_strata=4)
        assert sum(s.weight for s in strata) == pytest.approx(1.0)
        for stratum in strata:
            assert stratum.num_triples == sum(
                nell.graph.cluster_size(e) for e in stratum.entity_ids
            )

    @pytest.mark.parametrize("backend", ["memory", "columnar", "sqlite"])
    @pytest.mark.parametrize("num_strata", [1, 2, 4, 6])
    def test_size_strata_match_the_per_entity_reference(
        self, movie_small, tmp_path, backend, num_strata
    ):
        # stratify_by_size assigns strata from one pass over the size array;
        # it must build exactly the strata of the per-entity key lookup.
        graph = movie_small.graph
        if backend == "columnar":
            graph = graph.to_columnar()
        elif backend == "sqlite":
            graph = graph.to_sqlite(str(tmp_path / "kg.sqlite"))
        boundaries = cumulative_sqrt_frequency_boundaries(graph.cluster_size_array(), num_strata)
        reference = stratify_by_key(graph, graph.cluster_size, boundaries, label_prefix="size")
        strata = stratify_by_size(graph, num_strata=num_strata)
        assert strata == reference
        for stratum in strata:
            assert type(stratum.num_triples) is int and type(stratum.weight) is float

    def test_sqlite_cluster_size_agrees_with_and_without_the_size_cache(
        self, movie_small, tmp_path
    ):
        graph = movie_small.graph.to_sqlite(str(tmp_path / "kg.sqlite"))
        entities = list(graph.entity_ids)[:50]
        queried = [graph.cluster_size(entity) for entity in entities]
        graph.cluster_size_array()
        cached = [graph.cluster_size(entity) for entity in entities]
        assert queried == cached == [movie_small.graph.cluster_size(e) for e in entities]

    def test_size_strata_order_clusters_by_size(self, nell):
        strata = stratify_by_size(nell.graph, num_strata=2)
        assert len(strata) == 2
        max_small = max(nell.graph.cluster_size(e) for e in strata[0].entity_ids)
        min_large = min(nell.graph.cluster_size(e) for e in strata[1].entity_ids)
        assert max_small <= min_large

    def test_single_stratum(self, toy_graph):
        strata = stratify_by_size(toy_graph, num_strata=1)
        assert len(strata) == 1
        assert strata[0].weight == pytest.approx(1.0)

    def test_invalid_num_strata(self, toy_graph):
        with pytest.raises(ValueError):
            stratify_by_size(toy_graph, num_strata=0)

    def test_oracle_stratification_groups_by_accuracy(self, toy_kg):
        graph, oracle = toy_kg
        strata = stratify_by_oracle_accuracy(graph, oracle.cluster_accuracies(graph), num_strata=4)
        # city_1 (accuracy 0) and athlete_2 (accuracy 1) must be in different strata.
        stratum_of = {}
        for index, stratum in enumerate(strata):
            for entity in stratum.entity_ids:
                stratum_of[entity] = index
        assert stratum_of["city_1"] != stratum_of["athlete_2"]

    def test_stratify_by_key_custom_boundaries(self, toy_graph):
        strata = stratify_by_key(
            toy_graph, toy_graph.cluster_size, boundaries=[1.5, 4.5], label_prefix="size"
        )
        by_label = {s.label: set(s.entity_ids) for s in strata}
        assert by_label["size<= 1.5"] == {"city_1"}
        assert by_label["size(1.5, 4.5]"] == {"athlete_1", "athlete_2"}
        assert by_label["size> 4.5"] == {"movie_1"}

    def test_stratum_dataclass_properties(self):
        stratum = Stratum(label="s", entity_ids=("a", "b"), num_triples=7, weight=0.5)
        assert stratum.num_entities == 2


class TestStratifiedTWCSDesign:
    def test_requires_non_empty_strata(self, toy_graph):
        empty = Stratum(label="empty", entity_ids=(), num_triples=0, weight=0.0)
        with pytest.raises(ValueError):
            StratifiedTWCSDesign(toy_graph, [empty], second_stage_size=2, seed=0)

    def test_draw_respects_strata_membership(self, nell):
        strata = stratify_by_size(nell.graph, num_strata=2)
        design = StratifiedTWCSDesign(nell.graph, strata, second_stage_size=3, seed=0)
        stratum_entities = [set(s.entity_ids) for s in design.strata]
        units = design.draw(20)
        assert len(units) == 20
        for unit in units:
            assert any(unit.entity_id in entities for entities in stratum_entities)

    def test_draw_allocates_to_every_stratum(self, nell):
        strata = stratify_by_size(nell.graph, num_strata=2)
        design = StratifiedTWCSDesign(nell.graph, strata, second_stage_size=3, seed=0)
        units = design.draw(30)
        hit = set()
        for unit in units:
            for index, stratum in enumerate(design.strata):
                if unit.entity_id in set(stratum.entity_ids):
                    hit.add(index)
        assert hit == {0, 1}

    def test_estimate_is_weighted_combination(self, toy_kg):
        graph, oracle = toy_kg
        strata = stratify_by_size(graph, num_strata=2)
        design = StratifiedTWCSDesign(graph, strata, second_stage_size=10, seed=1)
        units = design.draw(40)
        annotate_and_update(design, units, oracle)
        combined = design.estimate()
        expected = sum(
            stratum.weight * estimate.value
            for (stratum, estimate) in design.stratum_estimates()
        )
        assert combined.value == pytest.approx(expected)

    def test_estimate_undetermined_until_every_stratum_has_two_units(self, nell):
        strata = stratify_by_size(nell.graph, num_strata=2)
        design = StratifiedTWCSDesign(nell.graph, strata, second_stage_size=3, seed=0)
        units = design.draw(2)
        annotate_and_update(design, units, nell.oracle)
        assert math.isinf(design.estimate().std_error)

    def test_unbiasedness_over_trials(self, nell):
        estimates = []
        strata = stratify_by_size(nell.graph, num_strata=2)
        for seed in range(200):
            design = StratifiedTWCSDesign(nell.graph, strata, second_stage_size=4, seed=seed)
            annotate_and_update(design, design.draw(30), nell.oracle)
            estimates.append(design.estimate().value)
        assert np.mean(estimates) == pytest.approx(nell.true_accuracy, abs=0.02)

    def test_oracle_stratification_reduces_variance(self, movie_small):
        """With perfectly homogeneous strata the stratified estimator has lower
        spread than plain TWCS at the same number of cluster draws."""
        from repro.sampling.twcs import TwoStageWeightedClusterDesign

        graph, oracle = movie_small.graph, movie_small.oracle
        strata = stratify_by_oracle_accuracy(graph, oracle.cluster_accuracies(graph), 4)
        plain_estimates, stratified_estimates = [], []
        for seed in range(120):
            plain = TwoStageWeightedClusterDesign(graph, second_stage_size=5, seed=seed)
            annotate_and_update(plain, plain.draw(24), oracle)
            plain_estimates.append(plain.estimate().value)
            stratified = StratifiedTWCSDesign(graph, strata, second_stage_size=5, seed=seed)
            annotate_and_update(stratified, stratified.draw(24), oracle)
            stratified_estimates.append(stratified.estimate().value)
        assert np.std(stratified_estimates) < np.std(plain_estimates)

    def test_update_falls_back_to_entity_lookup(self, toy_kg):
        graph, oracle = toy_kg
        strata = stratify_by_size(graph, num_strata=2)
        design = StratifiedTWCSDesign(graph, strata, second_stage_size=2, seed=0)
        units = design.draw(4)
        # Simulate a unit whose identity mapping was lost (e.g. reconstructed
        # unit): update must still route it via its entity id.
        from repro.sampling.base import SampleUnit

        clone = SampleUnit(
            triples=units[0].triples,
            entity_id=units[0].entity_id,
            cluster_size=units[0].cluster_size,
        )
        labels = {t: oracle.label(t) for t in clone.triples}
        design.update(clone, labels)
        assert design.estimate().num_units == 1

    def test_update_unknown_entity_raises(self, toy_kg):
        graph, oracle = toy_kg
        strata = stratify_by_size(graph, num_strata=2)
        design = StratifiedTWCSDesign(graph, strata, second_stage_size=2, seed=0)
        from repro.kg.triple import Triple
        from repro.sampling.base import SampleUnit

        foreign = SampleUnit(triples=(Triple("ghost", "p", "o"),), entity_id="ghost")
        with pytest.raises(KeyError):
            design.update(foreign, {Triple("ghost", "p", "o"): True})

    def test_reset(self, nell):
        strata = stratify_by_size(nell.graph, num_strata=2)
        design = StratifiedTWCSDesign(nell.graph, strata, second_stage_size=3, seed=0)
        annotate_and_update(design, design.draw(10), nell.oracle)
        design.reset()
        assert design.estimate().num_units == 0

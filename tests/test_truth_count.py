"""The object surface's running ground-truth count.

``IncrementalEvaluator.current_true_accuracy()`` on the object surface reads a
correct-triple count kept current per batch instead of re-walking the evolved
graph.  These tests pin it to the full oracle pass, exactly (``==``), over
update streams built to hit every way a batch can change the truth: in-batch
duplicates, re-inserted triples, batch labels that flip an existing triple
and unlabelled triples under a non-strict oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EvaluationConfig
from repro.evolving.baseline import BaselineEvolvingEvaluator
from repro.evolving.reservoir_eval import ReservoirIncrementalEvaluator
from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator
from repro.generators.datasets import LabelledKG, make_movie_like
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.kg.updates import UpdateBatch
from repro.labels.oracle import LabelOracle

OBJECT_EVALUATORS = [
    BaselineEvolvingEvaluator,
    ReservoirIncrementalEvaluator,
    StratifiedIncrementalEvaluator,
]

# Small graphs exhaust long before a 5 % MoE; cap the work per state.
_CONFIG = EvaluationConfig(moe_target=0.1, min_units=3, max_units=20, batch_size=3)


def _random_base(rng: np.random.Generator, strict: bool) -> LabelledKG:
    graph = KnowledgeGraph(name="base")
    labels: dict[Triple, bool] = {}
    for entity in range(int(rng.integers(4, 10))):
        for index in range(int(rng.integers(1, 7))):
            triple = Triple(f"e{entity}", "p", f"o{entity}_{index}")
            graph.add(triple)
            # A non-strict oracle leaves about a third of the graph unlabelled.
            if strict or rng.random() > 0.35:
                labels[triple] = bool(rng.random() < 0.7)
    return LabelledKG(graph, LabelOracle(labels, strict=strict))


def _random_batch(
    rng: np.random.Generator, batch_index: int, graph: KnowledgeGraph, strict: bool
) -> tuple[UpdateBatch, LabelOracle]:
    existing = list(graph)
    new = [
        Triple(f"e{int(rng.integers(0, 12))}", "q", f"n{batch_index}_{index}")
        for index in range(int(rng.integers(2, 8)))
    ]
    reinserted = [existing[int(i)] for i in rng.choice(len(existing), size=2, replace=False)]
    # One in-batch duplicate of a new triple, plus re-inserted graph triples.
    triples = new + [new[0]] + reinserted
    rng.shuffle(triples)
    labels: dict[Triple, bool] = {
        triple: bool(rng.random() < 0.6)
        for triple in new
        if strict or rng.random() > 0.3
    }
    # Batch labels win on conflict: relabel a few triples already in the
    # graph, the re-inserted ones among them, so some labels flip.
    for triple in reinserted + [existing[int(i)] for i in rng.choice(len(existing), size=3)]:
        labels[triple] = bool(rng.random() < 0.5)
    # A label for a triple the graph never receives changes nothing.
    labels[Triple("ghost", "p", f"g{batch_index}")] = False
    return UpdateBatch(f"delta-{batch_index}", tuple(triples)), LabelOracle(labels)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
@pytest.mark.parametrize("evaluator_cls", OBJECT_EVALUATORS)
@pytest.mark.parametrize("seed", range(6))
def test_count_matches_full_pass_after_every_batch(seed, evaluator_cls, strict):
    rng = np.random.default_rng(seed)
    base = _random_base(rng, strict)
    evaluator = evaluator_cls(base, config=_CONFIG, seed=seed)
    evaluator.evaluate_base()
    current = evaluator.evolving.current
    assert evaluator.current_true_accuracy() == evaluator.oracle.true_accuracy(current)
    flips = 0
    for batch_index in range(1, 6):
        batch, batch_oracle = _random_batch(rng, batch_index, current, strict)
        flips += sum(
            1
            for triple, label in batch_oracle.mapping.items()
            if triple in current and evaluator.oracle.label(triple) != label
        )
        evaluator.apply_update(batch, batch_oracle)
        assert evaluator.current_true_accuracy() == evaluator.oracle.true_accuracy(current)
    assert flips > 0, "the stream must relabel existing triples"


def test_count_is_rebuilt_after_a_strict_lookup_fails():
    rng = np.random.default_rng(0)
    base = _random_base(rng, strict=True)
    evaluator = StratifiedIncrementalEvaluator(base, config=_CONFIG, seed=0)
    evaluator.current_true_accuracy()
    unlabelled = Triple("e0", "q", "unlabelled")
    # The update itself succeeds; the half-counted batch drops the count, so
    # the next read redoes the full pass and raises the oracle's KeyError.
    evaluator._register_update(UpdateBatch("delta-1", (unlabelled,)), LabelOracle({}))
    with pytest.raises(KeyError, match="no ground-truth label"):
        evaluator.current_true_accuracy()
    # Labelling the triple afterwards makes the rebuilt count exact again.
    evaluator.oracle.extend({unlabelled: False})
    current = evaluator.evolving.current
    assert evaluator.current_true_accuracy() == evaluator.oracle.true_accuracy(current)


def test_object_surface_keeps_a_non_strict_oracle():
    movie = make_movie_like(seed=0, scale=0.005)
    half = {triple: movie.oracle.label(triple) for triple in list(movie.graph)[::2]}
    data = LabelledKG(movie.graph, LabelOracle(half, strict=False))
    truths = []
    for surface in ("position", "object"):
        evaluator = StratifiedIncrementalEvaluator(data, seed=0, surface=surface)
        assert evaluator.oracle.strict is False
        evaluator.evaluate_base()
        truths.append(evaluator.current_true_accuracy())
    assert truths[0] == truths[1] == data.true_accuracy


@pytest.mark.parametrize("backend", ["memory", "columnar"])
@pytest.mark.parametrize(
    "evaluator_cls", [ReservoirIncrementalEvaluator, StratifiedIncrementalEvaluator]
)
@pytest.mark.parametrize("seed", range(4))
def test_position_labels_match_the_concatenate_reference(seed, evaluator_cls, backend):
    # The position surface grows its label array in a doubling buffer and
    # keeps a running correct count; both must equal appending each batch's
    # labels with np.concatenate and taking the mean, after every batch.
    rng = np.random.default_rng(seed)
    base = _random_base(rng, strict=True)
    if backend == "columnar":
        base = LabelledKG(base.graph.to_columnar(), base.oracle)
    evaluator = evaluator_cls(base, config=_CONFIG, seed=seed, surface="position")
    evaluator.evaluate_base()
    reference = base.oracle.as_position_array(base.graph)
    assert evaluator.current_true_accuracy() == float(reference.mean())
    earlier: list[tuple[np.ndarray, np.ndarray]] = []
    for batch_index in range(1, 9):
        current = evaluator.evolving.current
        before = current.num_triples
        batch, batch_oracle = _random_batch(rng, batch_index, current, strict=True)
        earlier.append((evaluator.labels, evaluator.labels.copy()))
        evaluator.apply_update(batch, batch_oracle)
        current = evaluator.evolving.current
        appended = current.triples_at(np.arange(before, current.num_triples))
        batch_labels = np.array([batch_oracle.label(t) for t in appended], dtype=bool)
        reference = np.concatenate([reference, batch_labels])
        assert np.array_equal(evaluator.labels, reference)
        assert evaluator.current_true_accuracy() == float(reference.mean())
    # Arrays handed out before later appends (and regrowths) are unchanged.
    for handed_out, snapshot in earlier:
        assert np.array_equal(handed_out, snapshot)

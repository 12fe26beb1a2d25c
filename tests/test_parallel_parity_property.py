"""Property-based parity: parallel draws == serial position surface.

For random graphs, random seeds and every shard count K ∈ {1, 2, 4, 7}, a
worker-executed (shared-memory) sharded run must produce bit-identical estimates *and* Eq. (4)
cost accounting to the serial execution of the same plan, on both storage
backends (the in-memory store's cached CSR and the columnar store's frozen
index yield the same draws).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.sampling.parallel import PARALLEL_DESIGNS, ParallelSamplingExecutor

_SHARD_COUNTS = (1, 2, 4, 7)


def _random_graph(graph_seed: int) -> KnowledgeGraph:
    """A random KG with skewed cluster sizes and duplicate re-insertions."""
    rng = np.random.default_rng(graph_seed)
    graph = KnowledgeGraph(name=f"prop-{graph_seed}")
    num_entities = int(rng.integers(5, 60))
    for entity in range(num_entities):
        size = int(rng.integers(1, 12))
        for index in range(size):
            graph.add(Triple(f"e{entity}", f"p{index % 4}", f"o{entity}_{index}"))
    # Duplicate adds must be no-ops on every backend.
    for triple in list(graph)[:: max(1, graph.num_triples // 7)]:
        assert graph.add(triple) is False
    return graph


def _drive(graph, labels, design, *, workers, num_shards, seed):
    with ParallelSamplingExecutor(graph, workers=workers, num_shards=num_shards) as executor:
        run = executor.run(design, labels, seed=seed)
        for _ in range(6):
            before = run.num_units
            run.step(25)
            if run.num_units == before:
                break
        return run.estimate(), run.cost_summary()


@pytest.mark.parallel
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    graph_seed=st.integers(min_value=0, max_value=2**20),
    label_seed=st.integers(min_value=0, max_value=2**20),
    run_seed=st.integers(min_value=0, max_value=2**32 - 1),
    design=st.sampled_from(PARALLEL_DESIGNS),
)
def test_parallel_draws_match_serial_on_both_backends(
    graph_seed, label_seed, run_seed, design
):
    memory_graph = _random_graph(graph_seed)
    columnar_graph = memory_graph.to_columnar()
    labels = np.random.default_rng(label_seed).random(memory_graph.num_triples) < 0.8

    for num_shards in _SHARD_COUNTS:
        serial_columnar = _drive(
            columnar_graph, labels, design, workers=None, num_shards=num_shards, seed=run_seed
        )
        serial_memory = _drive(
            memory_graph, labels, design, workers=None, num_shards=num_shards, seed=run_seed
        )
        pooled = _drive(
            columnar_graph, labels, design, workers=2, num_shards=num_shards, seed=run_seed
        )
        # Parallel == serial: estimates and cost accounting, bit for bit.
        assert pooled[0] == serial_columnar[0], (design, num_shards)
        assert pooled[1] == serial_columnar[1], (design, num_shards)
        # Backend-independence of the sharded serial reference itself.
        assert serial_memory[0] == serial_columnar[0], (design, num_shards)
        assert serial_memory[1] == serial_columnar[1], (design, num_shards)

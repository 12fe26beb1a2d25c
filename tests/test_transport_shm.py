"""Shared-memory transport: parity, warm-pool reuse, and segment lifecycle.

:class:`~repro.sampling.shm.SharedMemoryTransport` must replay the serial
engine bit for bit (the universal transport contract), adopt its parked
pool across binds, and serve successive *different* graphs from
one pool because the attachment descriptor travels per task.  Everything
here spawns worker processes, so the module carries the ``parallel`` marker
and runs in CI's dedicated parallel leg.
"""

from __future__ import annotations

import pytest

from repro.generators.datasets import LabelledKG, make_nell_like, make_yago_like
from repro.obs import metrics as obs_metrics
from repro.sampling import shm
from repro.sampling.parallel import ParallelSamplingExecutor
from repro.sampling.shm import SharedMemoryTransport

pytestmark = pytest.mark.parallel


@pytest.fixture(scope="module")
def labelled():
    data = make_nell_like(seed=0)
    graph = data.graph.to_columnar()
    return LabelledKG(graph, data.oracle), data.oracle.as_position_array(graph)


def _run_result(graph, labels, *, transport=None, workers=None, num_shards=3, seed=11, units=150):
    with ParallelSamplingExecutor(
        graph, workers=workers, num_shards=num_shards, transport=transport
    ) as executor:
        run = executor.run("twcs", labels, seed=seed)
        while run.num_units < units:
            before = run.num_units
            run.step(min(50, units - run.num_units))
            if run.num_units == before:
                break
        return run.estimate(), run.cost_summary(), run.shard_stats()


@pytest.fixture(autouse=True)
def _clean_warm_pools():
    shm.shutdown_warm_pools()
    yield
    shm.shutdown_warm_pools()


class TestParity:
    def test_matches_serial_engine_bit_for_bit(self, labelled):
        data, labels = labelled
        reference = _run_result(data.graph, labels, workers=None)
        via_shm = _run_result(data.graph, labels, transport=SharedMemoryTransport(2))
        assert via_shm[0] == reference[0]
        assert via_shm[1] == reference[1]

    def test_shard_stats_report_the_shm_kind(self, labelled):
        data, labels = labelled
        _, _, stats = _run_result(data.graph, labels, transport=SharedMemoryTransport(2))
        assert stats and all(entry["transport"] == "shm" for entry in stats)

    def test_execute_before_bind_is_an_error(self):
        transport = SharedMemoryTransport(2)
        with pytest.raises(RuntimeError, match="bind"):
            transport.execute([])


class TestWarmPools:
    def test_close_parks_and_next_bind_adopts(self, labelled):
        data, labels = labelled
        counter = obs_metrics.counter("sampling_warm_pool_reuse_total", kind="shm")
        before = counter.value
        first = _run_result(data.graph, labels, transport=SharedMemoryTransport(2))
        assert 2 in shm._WARM_SHM_POOLS  # executor close parked the pool
        second = _run_result(data.graph, labels, transport=SharedMemoryTransport(2))
        assert second[0] == first[0]
        assert counter.value == before + 1
        assert 2 in shm._WARM_SHM_POOLS  # parked again after the second run

    def test_warm_pool_serves_a_different_graph(self, labelled):
        data, labels = labelled
        other = make_yago_like(seed=0)
        other_graph = other.graph.to_columnar()
        other_labels = other.oracle.as_position_array(other_graph)
        _run_result(data.graph, labels, transport=SharedMemoryTransport(2))
        assert 2 in shm._WARM_SHM_POOLS
        reference = _run_result(other_graph, other_labels, workers=None)
        adopted = _run_result(other_graph, other_labels, transport=SharedMemoryTransport(2))
        assert adopted[0] == reference[0]
        assert adopted[1] == reference[1]

    def test_shutdown_warm_pools_drains_the_registry(self, labelled):
        data, labels = labelled
        _run_result(data.graph, labels, transport=SharedMemoryTransport(2))
        assert shm._WARM_SHM_POOLS
        shm.shutdown_warm_pools()
        assert not shm._WARM_SHM_POOLS


class TestSegmentLifecycle:
    def test_segments_released_on_close(self, labelled):
        data, labels = labelled
        transport = SharedMemoryTransport(2)
        with ParallelSamplingExecutor(data.graph, num_shards=2, transport=transport) as executor:
            run = executor.run("twcs", labels, seed=3)
            run.step(40)
            names = [segment.name for segment in transport._segments]
            assert len(names) == 2
        assert transport._segments == []
        assert transport._descriptor is None
        # The master unlinked the segments: fresh attaches must fail.
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_rebind_replaces_segments(self, labelled):
        data, labels = labelled
        transport = SharedMemoryTransport(2)
        try:
            first = _run_result(data.graph, labels, transport=transport)
            second = _run_result(data.graph, labels, transport=transport)
            assert second[0] == first[0]
        finally:
            transport.close()

"""Random-stream equivalence of the fast draw kernels.

The one-call Floyd sampler, the cached-CDF weighted draw and the reused
per-thread generator of shard tasks each replace code that consumed the
random stream differently in form but not in substance.  Every test here
compares against the previous implementation (kept below as the reference),
on outputs *and* on the final ``bit_generator.state``, so any later drift in
how many or which random numbers a draw consumes fails here first.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.generators.datasets import make_movie_like
from repro.kg.graph import _FLOYD_VECTOR_MIN_CLUSTERS, _floyd_sample_batch
from repro.sampling.base import draw_weighted, weighted_cdf
from repro.sampling.parallel import ShardSource, ShardTask, _run_task
from repro.storage.shard import ShardPlan


def reference_floyd(sizes: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    """The per-iteration Floyd sampler: one ``rng.integers`` call per column."""
    base = np.asarray(sizes, dtype=np.int64) - cap
    picks = np.empty((base.shape[0], cap), dtype=np.int64)
    for j in range(cap):
        t = rng.integers(0, base + j + 1)
        if j:
            collision = (picks[:, :j] == t[:, None]).any(axis=1)
            t = np.where(collision, base + j, t)
        picks[:, j] = t
    return picks


def _twin_generators(seed: int, half_used: bool) -> tuple[np.random.Generator, ...]:
    pair = (np.random.default_rng(seed), np.random.default_rng(seed))
    if half_used:
        # A 32-bit draw leaves half of PCG64's 64-bit output buffered.
        for rng in pair:
            rng.integers(0, 1000, dtype=np.uint32)
    return pair


def _assert_same_stream(a: np.random.Generator, b: np.random.Generator) -> None:
    assert a.bit_generator.state == b.bit_generator.state


class TestFloyd:
    @pytest.mark.parametrize("half_used", [False, True], ids=["fresh", "half-used-buffer"])
    @pytest.mark.parametrize("cap", range(1, 9))
    @pytest.mark.parametrize(
        "num_clusters",
        [0, 1, 2, _FLOYD_VECTOR_MIN_CLUSTERS - 1, _FLOYD_VECTOR_MIN_CLUSTERS, 90],
    )
    def test_matches_per_column_reference(self, num_clusters, cap, half_used):
        seed = 1000 * num_clusters + 10 * cap + half_used
        sizes = np.random.default_rng(seed).integers(cap + 1, cap + 12, size=num_clusters)
        ours, theirs = _twin_generators(seed, half_used)
        got = _floyd_sample_batch(sizes, cap, ours)
        want = reference_floyd(sizes, cap, theirs)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape == (num_clusters, cap)
        np.testing.assert_array_equal(got, want)
        _assert_same_stream(ours, theirs)

    @pytest.mark.parametrize("half_used", [False, True], ids=["fresh", "half-used-buffer"])
    @pytest.mark.parametrize("num_clusters", [3, 2 * _FLOYD_VECTOR_MIN_CLUSTERS])
    def test_ranges_beyond_32_bits(self, num_clusters, half_used):
        # Ranges wider than 2**32 take numpy's 64-bit bounded path; mixing
        # them with small ranges in one call must still match.
        rng = np.random.default_rng(num_clusters)
        sizes = rng.integers(9, 2**40, size=num_clusters)
        sizes[::2] = rng.integers(9, 20, size=sizes[::2].shape[0])
        ours, theirs = _twin_generators(7, half_used)
        for cap in (1, 5, 8):
            np.testing.assert_array_equal(
                _floyd_sample_batch(sizes, cap, ours), reference_floyd(sizes, cap, theirs)
            )
            _assert_same_stream(ours, theirs)

    @pytest.mark.parametrize("num_clusters", [4, 3 * _FLOYD_VECTOR_MIN_CLUSTERS])
    def test_rows_are_distinct_in_range_subsets(self, num_clusters):
        rng = np.random.default_rng(3)
        sizes = rng.integers(6, 9, size=num_clusters)
        picks = _floyd_sample_batch(sizes, 5, rng)
        for row, size in zip(picks, sizes):
            assert len(set(row.tolist())) == 5
            assert row.min() >= 0 and row.max() < size


class TestWeightedDraw:
    @pytest.mark.parametrize("half_used", [False, True], ids=["fresh", "half-used-buffer"])
    @pytest.mark.parametrize("count", [0, 1, 10, 257])
    @pytest.mark.parametrize("num_weights", [1, 2, 50, 3000])
    def test_matches_generator_choice(self, num_weights, count, half_used):
        sizes = np.random.default_rng(num_weights).integers(0, 40, size=num_weights)
        sizes[0] += 1  # positive total mass
        weights = sizes.astype(np.float64)
        weights /= weights.sum()
        ours, theirs = _twin_generators(count + num_weights, half_used)
        cdf = weighted_cdf(weights)
        for _ in range(3):  # the cached CDF serves every call
            got = draw_weighted(ours, cdf, count)
            want = theirs.choice(num_weights, size=count, replace=True, p=weights)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            _assert_same_stream(ours, theirs)

    def test_exact_cdf_ties_never_pick_a_zero_weight_entry(self):
        # A uniform equal to a CDF value must land past it, as in choice():
        # otherwise u == 0.0 could draw a zero-weight (empty) cluster.
        class FixedUniforms:
            def random(self, count):
                return np.array([0.0, 0.5, 0.75][:count])

        cdf = weighted_cdf(np.array([0.0, 0.5, 0.0, 0.5]))
        assert draw_weighted(FixedUniforms(), cdf, 3).tolist() == [1, 3, 3]

    @pytest.mark.parametrize(
        "weights",
        [
            np.array([0.5, np.nan, 0.5]),
            np.array([-0.25, 0.75, 0.5]),
            np.full(3, np.nan),  # zero mass normalised: 0 / 0
            np.zeros(3),  # zero mass unnormalised
            np.array([0.5, 0.25]),
            np.array([]),
        ],
        ids=["nan", "negative", "zero-mass", "zero-raw", "short-of-one", "empty"],
    )
    def test_invalid_weights_raise_like_choice(self, weights):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(weights), size=1, p=weights)
        with pytest.raises(ValueError):
            weighted_cdf(weights)


def _weighted_tasks(graph, num_shards: int, seed: int) -> list[ShardTask]:
    offsets, _ = graph.backend.csr_arrays()
    plan = ShardPlan.from_offsets(np.asarray(offsets, dtype=np.int64), num_shards)
    streams = np.random.SeedSequence(seed).spawn(num_shards)
    tasks = []
    for shard, stream in enumerate(streams):
        lo, hi = plan.row_range(shard)
        tasks.append(
            ShardTask(
                index=shard,
                design="twcs" if shard % 2 else "wcs",
                source=ShardSource(kind="range", lo=lo, hi=hi),
                count=3 + shard,
                cap=5,
                rng_state=np.random.default_rng(stream).bit_generator.state,
                perm_seed=None,
                cursor=0,
            )
        )
    return tasks


def reference_task(task: ShardTask, offsets: np.ndarray, positions: np.ndarray) -> tuple:
    """A WCS/TWCS range task drawn with ``rng.choice`` and the reference Floyd."""
    lo, hi = task.source.lo, task.source.hi
    starts = np.asarray(offsets[lo:hi], dtype=np.int64)
    sizes = np.asarray(offsets[lo + 1 : hi + 1], dtype=np.int64) - starts
    rng = np.random.default_rng()
    rng.bit_generator.state = task.rng_state
    weights = sizes.astype(np.float64)
    weights /= weights.sum()
    local = rng.choice(hi - lo, size=task.count, replace=True, p=weights)
    unit_sizes = sizes[local]
    large = unit_sizes > task.cap if task.design == "twcs" else np.zeros(len(local), bool)
    picks = iter(reference_floyd(unit_sizes[large], task.cap, rng))
    units = []
    for row, size, subsample in zip(local, unit_sizes, large):
        offsets_in_cluster = next(picks) if subsample else np.arange(size)
        units.append(positions[starts[row] + offsets_in_cluster])
    return (
        task.index,
        (lo + local).tolist(),
        [len(unit) for unit in units],
        unit_sizes.tolist(),
        np.concatenate(units).tolist(),
        rng.bit_generator.state,
    )


def _result_key(result) -> tuple:
    return (
        result.index,
        result.rows.tolist(),
        result.counts.tolist(),
        result.sizes.tolist(),
        result.positions.tolist(),
        result.rng_state,
    )


class TestSharedTaskGenerator:
    @pytest.fixture(scope="class")
    def graph(self):
        return make_movie_like(seed=1, scale=0.005).graph.to_columnar()

    def test_chained_rounds_match_the_reference_draw(self, graph):
        # The per-thread generator is overwritten from each task's state, so
        # every round of every shard must equal a fresh generator's draw, and
        # a task must never see state left behind by the previous one.
        attached = graph.backend.csr_arrays()
        tasks = _weighted_tasks(graph, 4, seed=11)
        for _ in range(3):
            # A stateless task (fresh entropy) in between changes nothing.
            _run_task(ShardTask(**{**tasks[0].__dict__, "rng_state": None}), attached)
            results = [_run_task(task, attached) for task in reversed(tasks)][::-1]
            for task, result in zip(tasks, results):
                assert _result_key(result) == reference_task(task, *attached)
            tasks = [
                ShardTask(**{**task.__dict__, "rng_state": result.rng_state})
                for task, result in zip(tasks, results)
            ]

    def test_concurrent_threads_return_the_serial_results(self, graph):
        attached = graph.backend.csr_arrays()
        tasks = _weighted_tasks(graph, 6, seed=5)
        expected = [_result_key(_run_task(task, attached)) for task in tasks]
        outputs: dict[int, list] = {}
        failures: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                order = tasks if slot % 2 == 0 else tasks[::-1]
                got = {}
                for _ in range(30):
                    for task in order:
                        got[task.index] = _result_key(_run_task(task, attached))
                outputs[slot] = [got[index] for index in range(len(tasks))]
            except BaseException as exc:  # reported below, not swallowed
                failures.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert sorted(outputs) == [0, 1, 2, 3]
        for slot in outputs:
            assert outputs[slot] == expected

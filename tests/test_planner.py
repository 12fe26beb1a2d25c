"""Adaptive transport planner: decision pins, calibration, and auto parity.

The decision tests pin the planner's output for canonical graph shapes
under a *fixed* calibration profile and a *fixed* CPU count — the planner
must be a pure function of (stats, profile, cpu_count, pins), so these are
bit-stable across hosts.  The CLI replay test then closes the loop the
tentpole promises: ``--transport auto`` prints the same numbers as
``--transport serial``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.generators.datasets import make_nell_like
from repro.sampling.planner import (
    AdaptivePlanner,
    CalibrationProfile,
    TransportCost,
    default_profile_path,
    load_profile,
    save_profile,
)
from repro.storage.backend import StorageStats


def _fixed_profile() -> CalibrationProfile:
    """A hand-pinned profile so decisions don't depend on built-in priors."""
    return CalibrationProfile(
        transports={
            "serial": TransportCost(per_draw_us=10.0, round_overhead_ms=0.0, startup_ms=0.0),
            "shm": TransportCost(per_draw_us=10.0, round_overhead_ms=1.0, startup_ms=100.0),
            "rpc": TransportCost(per_draw_us=10.0, round_overhead_ms=5.0, startup_ms=500.0),
        }
    )


def _stats(triples=1_000_000, entities=100_000, mean=10.0, biggest=30, cv=0.5) -> StorageStats:
    return StorageStats(
        num_triples=triples,
        num_entities=entities,
        mean_cluster_size=mean,
        max_cluster_size=biggest,
        size_cv=cv,
    )


class TestDecisions:
    def test_small_graph_stays_serial(self):
        planner = AdaptivePlanner(_fixed_profile(), cpu_count=8)
        decision = planner.plan(_stats(triples=2_000, entities=300), draws=1_000)
        assert decision.transport == "serial"
        assert decision.shards == 1
        assert decision.workers == 1
        assert decision.rpc_window is None
        assert decision.predictions["serial"] == decision.predicted_seconds

    def test_medium_graph_picks_shm(self):
        planner = AdaptivePlanner(_fixed_profile(), cpu_count=8)
        decision = planner.plan(_stats(), draws=500_000)
        # 500k draws at 10us: serial 5s; shm ~0.1s startup + 5s/6.25 — an
        # easy >1.25x win.  shm is the only local parallel candidate.
        assert decision.transport == "shm"
        assert decision.workers == 8
        assert decision.shards == 8
        assert list(decision.predictions) == ["serial", "shm"]

    def test_skewed_graph_shards_finer(self):
        planner = AdaptivePlanner(_fixed_profile(), cpu_count=8)
        uniform = planner.plan(_stats(), draws=500_000)
        skewed = planner.plan(_stats(biggest=500), draws=500_000)  # skew 50 > 20
        assert skewed.transport == uniform.transport == "shm"
        assert skewed.shards == 2 * uniform.shards

    def test_single_cpu_never_leaves_serial(self):
        planner = AdaptivePlanner(_fixed_profile(), cpu_count=1)
        decision = planner.plan(_stats(), draws=10_000_000)
        assert decision.transport == "serial"
        assert list(decision.predictions) == ["serial"]

    def test_pinned_shards_always_honoured(self):
        planner = AdaptivePlanner(_fixed_profile(), cpu_count=8)
        for draws in (1_000, 500_000):
            decision = planner.plan(_stats(), draws=draws, shards=3)
            assert decision.shards == 3

    def test_low_draw_volume_coarsens_shards(self):
        planner = AdaptivePlanner(_fixed_profile(), cpu_count=8)
        # Skew asks for 16 shards, but 20k draws over 16 shards is only
        # 1250/shard — below MIN_DRAWS_PER_SHARD=2000, so the plan falls
        # back to draws//2000 = 10 shards.
        decision = planner.plan(_stats(biggest=500), draws=20_000)
        assert decision.transport == "shm"
        assert decision.shards == 10

    def test_tiny_runs_coarsen_below_worker_count_to_serial(self):
        planner = AdaptivePlanner(_fixed_profile(), cpu_count=8)
        # 3k draws cannot amortise even one shard per worker (8 x 2000):
        # the amortisation floor wins and the plan collapses to one shard,
        # which forces the serial transport.
        decision = planner.plan(_stats(), draws=3_000)
        assert decision.shards == 1
        assert decision.transport == "serial"
        assert list(decision.predictions) == ["serial"]

    def test_shard_plan_is_machine_and_profile_independent(self):
        # The shard count is part of the run's random-stream identity, so
        # it must be a pure function of (stats, draws): CPU width changes
        # the executing workers, never the plan...
        decisions = [
            AdaptivePlanner(_fixed_profile(), cpu_count=cpus).plan(_stats(), draws=500_000)
            for cpus in (1, 2, 8, 64)
        ]
        assert [d.shards for d in decisions] == [8, 8, 8, 8]
        assert [d.workers for d in decisions] == [1, 2, 8, 8]  # capped by max_workers
        # ...and a drifted calibration profile may flip the transport but
        # must never move the shard plan.
        drifted = _fixed_profile()
        for _ in range(5):
            drifted.observe("serial", draws=1_000, rounds=1, seconds=50.0, workers=1)
        drifted_decision = AdaptivePlanner(drifted, cpu_count=8).plan(_stats(), draws=500_000)
        assert drifted_decision.shards == 8

    def test_plan_shards_is_a_pure_stats_function(self):
        from repro.sampling.planner import plan_shards

        assert plan_shards(_stats(), 500_000) == 8
        assert plan_shards(_stats(biggest=500), 500_000) == 16  # skew doubles
        assert plan_shards(_stats(), 1_000) == 1  # tiny runs collapse
        assert plan_shards(_stats(entities=3), 500_000) == 3  # entity cap

    def test_rpc_considered_only_with_nodes(self):
        profile = _fixed_profile()
        profile.transports["rpc"] = TransportCost(
            per_draw_us=10.0, round_overhead_ms=0.1, startup_ms=1.0
        )
        planner = AdaptivePlanner(profile, cpu_count=1)
        local = planner.plan(_stats(), draws=500_000)
        assert "rpc" not in local.predictions
        remote = planner.plan(_stats(), draws=500_000, nodes=4)
        assert remote.transport == "rpc"
        assert remote.workers == 4
        assert remote.rpc_window is not None and 2 <= remote.rpc_window <= 16

    def test_rpc_window_pin_wins(self):
        profile = _fixed_profile()
        profile.transports["rpc"] = TransportCost(
            per_draw_us=10.0, round_overhead_ms=0.1, startup_ms=1.0
        )
        planner = AdaptivePlanner(profile, cpu_count=1)
        decision = planner.plan(_stats(), draws=500_000, nodes=4, rpc_window=9)
        assert decision.rpc_window == 9

    def test_warm_pool_awareness_recorded_on_the_decision(self):
        from repro.sampling import shm

        planner = AdaptivePlanner(_fixed_profile(), cpu_count=8)
        cold = planner.plan(_stats(), draws=500_000)
        assert cold.warm is False
        shm._WARM_SHM_POOLS[8] = object()  # fake a parked pool
        try:
            warmed = planner.plan(_stats(), draws=500_000)
        finally:
            shm._WARM_SHM_POOLS.pop(8, None)
        assert warmed.transport == "shm" and warmed.warm is True
        assert warmed.predictions["shm"] < cold.predictions["shm"]
        assert warmed.shards == cold.shards  # warm state never moves the plan

    def test_decision_serialises(self):
        planner = AdaptivePlanner(_fixed_profile(), cpu_count=8)
        payload = planner.plan(_stats(), draws=500_000).as_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_draws_hint_from_moe_is_monotone(self):
        loose = AdaptivePlanner.draws_for_target(0.1)
        tight = AdaptivePlanner.draws_for_target(0.01)
        assert 0 < loose < tight


class TestProfilePersistence:
    def test_round_trip(self, tmp_path):
        profile = _fixed_profile()
        profile.min_speedup = 1.5
        target = save_profile(profile, tmp_path / "planner.json")
        assert target is not None
        loaded = load_profile(target)
        assert loaded.min_speedup == 1.5
        assert loaded.cost("shm").startup_ms == 100.0

    def test_env_override_sets_default_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PLANNER_PROFILE", str(tmp_path / "custom.json"))
        assert default_profile_path() == tmp_path / "custom.json"
        save_profile(_fixed_profile())
        assert (tmp_path / "custom.json").exists()

    def test_legacy_pool_entry_is_dropped_on_load(self, tmp_path):
        legacy = _fixed_profile().to_dict()
        legacy["transports"]["pool"] = {"per_draw_us": 1.0, "startup_ms": 260.0}
        path = tmp_path / "planner.json"
        path.write_text(json.dumps(legacy), encoding="utf-8")
        profile = load_profile(path)
        assert "pool" not in profile.transports
        assert profile.cost("shm").startup_ms == 100.0
        decision = AdaptivePlanner(profile, cpu_count=8).plan(_stats(), draws=500_000)
        assert "pool" not in decision.predictions

    def test_default_runs_leave_the_profile_alone(self, capsys, tmp_path, monkeypatch):
        # Without --profile or REPRO_PLANNER_PROFILE a sharded run must not
        # learn into ~/.cache: one run's timing would steer the next default
        # run's transport pick.
        monkeypatch.delenv("REPRO_PLANNER_PROFILE")
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        args = ["evaluate", "--dataset", "movie", "--movie-scale", "0.005"]
        args += ["--design", "twcs-strat", "--shards", "4", "--seed", "0"]
        planner_lines = []
        for backend in ("memory", "sqlite"):
            assert main([*args, "--backend", backend]) == 0
            out = capsys.readouterr().out
            planner_lines += [line for line in out.splitlines() if line.startswith("planner")]
        assert len(planner_lines) == 2 and planner_lines[0] == planner_lines[1]
        assert not default_profile_path().exists()
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []

    def test_named_profile_learns_from_the_run(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "named.json"
        monkeypatch.delenv("REPRO_PLANNER_PROFILE")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        args = ["evaluate", "--dataset", "movie", "--movie-scale", "0.005"]
        args += ["--design", "twcs-strat", "--shards", "4", "--profile", str(target)]
        assert main(args) == 0
        capsys.readouterr()
        assert load_profile(target).cost("serial").samples == 1
        assert not default_profile_path().exists()

    def test_corrupt_profile_falls_back_to_defaults(self, tmp_path):
        bad = tmp_path / "planner.json"
        bad.write_text("{not json", encoding="utf-8")
        profile = load_profile(bad)
        assert profile.min_speedup == 1.25

    def test_observe_updates_per_draw_ewma(self):
        profile = _fixed_profile()
        entry = profile.cost("serial")
        entry.samples = 0
        profile.observe("serial", draws=100_000, rounds=20, seconds=2.0)
        assert entry.per_draw_us == pytest.approx(20.0)  # first sample replaces
        profile.observe("serial", draws=100_000, rounds=20, seconds=1.0)
        assert 10.0 < entry.per_draw_us < 20.0  # EWMA, not replacement
        assert entry.samples == 2

    def test_observe_warm_keeps_startup_out_of_the_residual(self):
        cold, warm = _fixed_profile(), _fixed_profile()
        kwargs = dict(draws=10_000, rounds=2, seconds=1.0, workers=4)
        cold.observe("shm", warm=False, **kwargs)
        warm.observe("shm", warm=True, **kwargs)
        # A warm run never paid the startup cost, so nothing is subtracted
        # and more of the wall-clock is attributed to per-draw time —
        # without this, repeated warm runs bias per_draw_us low and the
        # planner grows spuriously optimistic about leaving serial.
        assert warm.cost("shm").per_draw_us > cold.cost("shm").per_draw_us

    def test_calibrate_from_bench(self):
        profile = CalibrationProfile()
        updated = profile.calibrate_from_bench(
            {
                "draws": 100_000,
                "engine_serial": {"seconds": 1.0},
                "engine_shm": {"seconds": 2.0, "workers": 4},
            }
        )
        assert updated == ["serial", "shm"]
        assert profile.cost("serial").per_draw_us == pytest.approx(10.0)
        # shm's measured excess over its predicted draw share becomes
        # startup + per-round overhead, so small runs now stay serial.
        assert profile.cost("shm").startup_ms > 1_000.0
        assert profile.cost("shm").per_draw_us == pytest.approx(10.0)


class TestBackendStats:
    def test_columnar_stats_match_graph_shape(self):
        data = make_nell_like(seed=0)
        graph = data.graph.to_columnar()
        stats = graph.backend.stats()
        assert stats.num_triples == graph.num_triples
        assert stats.num_entities == graph.num_entities
        assert stats.mean_cluster_size == pytest.approx(graph.num_triples / graph.num_entities)
        assert stats.max_cluster_size >= stats.mean_cluster_size
        assert stats.skew >= 1.0
        assert stats.size_cv >= 0.0


class TestAutoParity:
    def _evaluate(self, capsys, *extra) -> list[str]:
        main(["evaluate", "--dataset", "nell", "--seed", "7", *extra])
        out = capsys.readouterr().out
        # Every numeric result line; planner/design provenance lines differ
        # by construction, the statistics must not.
        keep = (
            "true accuracy",
            "estimated accuracy",
            "margin of error",
            "sample units",
            "triples annotated",
            "entities identified",
            "annotation cost",
        )
        return [
            line
            for line in out.splitlines()
            if line.strip().startswith(keep) or "interval" in line
        ]

    def test_default_auto_keeps_the_classic_loop(self, capsys, tmp_path, monkeypatch):
        # At the default MoE target the deterministic shard plan is one
        # shard, so a bare `repro evaluate` must run the classic
        # single-stream evaluator — bit-identical to every pre-planner
        # default run, on any host, regardless of profile state.
        monkeypatch.setenv("REPRO_PLANNER_PROFILE", str(tmp_path / "planner.json"))
        main(["evaluate", "--dataset", "nell", "--seed", "7"])
        out = capsys.readouterr().out
        assert "estimated accuracy" in out
        assert "transport=" not in out and "shards=" not in out

    def test_transport_auto_replays_serial_bit_identically(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PLANNER_PROFILE", str(tmp_path / "planner.json"))
        auto = self._evaluate(capsys, "--transport", "auto", "--shards", "2")
        serial = self._evaluate(capsys, "--transport", "serial", "--shards", "2")
        assert auto == serial and auto

    @pytest.mark.parallel
    def test_profile_drift_flips_transport_never_numbers(self, capsys, tmp_path, monkeypatch):
        # The review scenario: a mutated calibration profile may change the
        # planner's transport pick, but a seeded command's estimates must
        # not move.  Force a profile that makes parallel look free and
        # compare against the serial reference on the same shard plan.
        profile_path = tmp_path / "planner.json"
        monkeypatch.setenv("REPRO_PLANNER_PROFILE", str(profile_path))
        eager = CalibrationProfile(
            transports={
                "serial": TransportCost(per_draw_us=50.0, round_overhead_ms=0.0, startup_ms=0.0),
                "shm": TransportCost(per_draw_us=50.0, round_overhead_ms=0.0, startup_ms=0.0),
            },
            min_speedup=1.0,
        )
        save_profile(eager, profile_path)
        auto = self._evaluate(capsys, "--transport", "auto", "--shards", "2")
        serial = self._evaluate(capsys, "--transport", "serial", "--shards", "2")
        assert auto == serial and auto

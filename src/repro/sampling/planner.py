"""Adaptive transport planner: measured costs pick the execution plan.

``BENCH_parallel.json`` has shown since PR 4 that local worker processes
*lose* to the plain serial loop below ~1M triples — fan-out overhead swamps
the parallel win.  So the right transport is a function of the run, not a
fixed knob, and :class:`AdaptivePlanner` makes that call per run from two
inputs:

* **measured graph shape** — :meth:`repro.storage.backend.StorageBackend.stats`
  (triple/entity counts, cluster-size skew) plus the expected draw volume;
* **a persisted calibration profile** — per-transport cost coefficients
  (startup, per-round overhead, per-draw service time) learned from prior
  runs' metrics snapshots (``shard_stats`` / ``BENCH_parallel.json``) and
  stored as JSON under ``~/.cache/repro/planner.json`` (override with
  ``--profile PATH`` or ``REPRO_PLANNER_PROFILE``).

The planner predicts wall-clock for each viable transport::

    predicted = startup (0 when a warm pool is parked)
              + rounds x round_overhead
              + draws x per_draw / effective_parallelism

and leaves serial unless a parallel transport is predicted at least
``min_speedup`` times faster — the *never slower than serial beyond noise*
invariant, gated for real in ``benchmarks/bench_parallel_sampling.py``.

**Stream identity is machine-independent by construction.**  The shard
count is part of a run's random-stream identity, so :func:`plan_shards`
derives it purely from the graph's stats and the expected draw volume —
hard-coded policy constants, no CPU count, no warm-pool state, no mutable
profile field.  Everything the planner *learns* (the calibration profile)
or *senses* (CPU affinity, parked pools) only picks which transport
executes that fixed plan, and every transport is bit-identical for a
fixed plan.  A caller-pinned ``--shards`` is always honoured, and the
same seeded command therefore produces the same estimates on every host,
cold or warm, first run or hundredth.

Every decision is recorded: an ``planner_decisions_total{transport=...}``
counter, a structured ``planner_decision`` log event carrying the reason
and per-transport predictions, and the decision object itself threaded
into the executor (surfaced by ``SamplingRun.shard_stats``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.storage.backend import StorageStats

__all__ = [
    "AdaptivePlanner",
    "CalibrationProfile",
    "PlannerDecision",
    "TransportCost",
    "default_profile_path",
    "load_profile",
    "plan_shards",
    "save_profile",
]

_log = get_logger("sampling.planner")

#: Transports the planner may select, in preference order on ties.
PLANNABLE_TRANSPORTS = ("serial", "shm", "rpc")

#: Draws folded per round by the CLI/benchmark loops; rounds amortise the
#: per-round fan-out overhead, so the predictor needs the same granularity.
DEFAULT_BATCH_SIZE = 5_000

#: Fraction of an extra worker that converts into useful parallelism
#: (master-side folds and allocation stay serial, Amdahl-style).
_PARALLEL_EFFICIENCY = 0.75

#: EWMA weight for new observations folded into the profile.
_OBSERVE_ALPHA = 0.3

# ---- Shard-plan policy: hard constants, never profile fields. ------------- #
# The shard count is part of a run's random-stream identity, so the policy
# below must be a pure function of (graph stats, draw volume).  Keeping the
# knobs out of CalibrationProfile is deliberate: the profile mutates after
# every run, and a mutated profile must never change what a seeded command
# draws — only which transport executes the fixed plan.

#: Planned parallel width when draws are plentiful (identical on every host;
#: a narrower machine simply executes more shards per worker).
PLAN_WIDTH = 8

#: Below this many expected draws per shard the fan-out stops amortising;
#: plans coarsen, all the way down to one shard (= serial) for tiny runs.
MIN_DRAWS_PER_SHARD = 2_000

#: ``stats.skew`` (max/mean cluster size) beyond which plans shard finer so
#: one giant cluster's range splits away from the bulk.
SKEW_THRESHOLD = 20.0

#: Absolute shard-count ceiling.
MAX_PLANNED_SHARDS = 64


def plan_shards(stats: StorageStats, draws_hint: int) -> int:
    """Deterministic shard count for a run over ``stats``-shaped data.

    A pure function of the graph's measured stats and the expected draw
    volume — the machine-independent half of a planning decision.  Starts
    at :data:`PLAN_WIDTH`, doubles for skewed cluster-size distributions,
    coarsens (down to one shard) when per-shard draws would fall below
    :data:`MIN_DRAWS_PER_SHARD`, and never exceeds
    :data:`MAX_PLANNED_SHARDS` or the entity count.
    """
    draws_hint = max(1, min(int(draws_hint), max(stats.num_triples, 1)))
    shards = PLAN_WIDTH
    if stats.skew > SKEW_THRESHOLD:
        shards *= 2
    if draws_hint < shards * MIN_DRAWS_PER_SHARD:
        shards = max(1, draws_hint // MIN_DRAWS_PER_SHARD)
    return int(max(1, min(shards, MAX_PLANNED_SHARDS, stats.num_entities or 1)))


@dataclass
class TransportCost:
    """Calibrated cost coefficients for one transport kind.

    ``per_draw_us`` is the worker-side service time per drawn unit,
    ``round_overhead_ms`` the per-round fan-out/fold overhead, and
    ``startup_ms`` the one-off attach cost (fork, segment copy, RPC
    handshake + CSR ship) paid when no warm pool is available.
    """

    per_draw_us: float
    round_overhead_ms: float
    startup_ms: float
    samples: int = 0

    def to_dict(self) -> dict:
        return {
            "per_draw_us": self.per_draw_us,
            "round_overhead_ms": self.round_overhead_ms,
            "startup_ms": self.startup_ms,
            "samples": self.samples,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TransportCost":
        return cls(
            per_draw_us=float(payload.get("per_draw_us", 1.5)),
            round_overhead_ms=float(payload.get("round_overhead_ms", 1.0)),
            startup_ms=float(payload.get("startup_ms", 100.0)),
            samples=int(payload.get("samples", 0)),
        )


def _default_transport_costs() -> dict[str, TransportCost]:
    # Conservative priors in the absence of any calibration: parallel
    # transports carry enough startup/round cost that small runs stay
    # serial, which is the safe direction for the never-slower invariant.
    return {
        "serial": TransportCost(per_draw_us=1.5, round_overhead_ms=0.2, startup_ms=0.0),
        "shm": TransportCost(per_draw_us=1.5, round_overhead_ms=1.5, startup_ms=120.0),
        "rpc": TransportCost(per_draw_us=1.5, round_overhead_ms=6.0, startup_ms=800.0),
    }


@dataclass
class CalibrationProfile:
    """Persisted planner state: per-transport costs plus decision thresholds.

    Everything here is data, not code — regenerate it from a benchmark run
    (:meth:`calibrate_from_bench`), refine it continuously from live runs
    (:meth:`observe`), or edit the JSON by hand to force behaviour (see
    ``docs/planner.md``).
    """

    transports: dict[str, TransportCost] = field(default_factory=_default_transport_costs)
    #: Required predicted advantage before leaving serial.
    min_speedup: float = 1.25
    #: Cap on local worker processes the planner will request.  Affects only
    #: execution width, never the shard plan (see :func:`plan_shards`).
    max_workers: int = 8
    #: Observed RPC per-task service time and round-trip, for window sizing.
    rpc_service_ms: float = 2.0
    rpc_rtt_ms: float = 0.5

    VERSION = 1

    def cost(self, kind: str) -> TransportCost:
        """The cost entry for ``kind``, materialising defaults when absent."""
        entry = self.transports.get(kind)
        if entry is None:
            entry = _default_transport_costs()[kind]
            self.transports[kind] = entry
        return entry

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "version": self.VERSION,
            "params": {
                "min_speedup": self.min_speedup,
                "max_workers": self.max_workers,
                "rpc_service_ms": self.rpc_service_ms,
                "rpc_rtt_ms": self.rpc_rtt_ms,
            },
            "transports": {kind: cost.to_dict() for kind, cost in self.transports.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CalibrationProfile":
        params = payload.get("params", {})
        transports = _default_transport_costs()
        for kind, entry in payload.get("transports", {}).items():
            # Entries for transports that no longer exist (a legacy "pool")
            # are dropped, so old profiles keep loading.
            if kind in transports:
                transports[kind] = TransportCost.from_dict(entry)
        return cls(
            transports=transports,
            min_speedup=float(params.get("min_speedup", 1.25)),
            max_workers=int(params.get("max_workers", 8)),
            rpc_service_ms=float(params.get("rpc_service_ms", 2.0)),
            rpc_rtt_ms=float(params.get("rpc_rtt_ms", 0.5)),
        )

    # ------------------------------------------------------------------ #
    # Learning
    # ------------------------------------------------------------------ #
    def observe(
        self,
        kind: str,
        *,
        draws: int,
        rounds: int,
        seconds: float,
        workers: int = 1,
        warm: bool = False,
    ) -> None:
        """Fold one finished run's measured wall-clock into the profile.

        The fixed costs (startup unless ``warm``, per-round overhead) are
        subtracted at their current calibrated values and the residual is
        attributed to per-draw service time, EWMA-smoothed so one noisy
        run cannot flip future decisions.
        """
        if draws <= 0 or seconds <= 0:
            return
        entry = self.cost(kind)
        overhead = rounds * entry.round_overhead_ms / 1_000.0
        if not warm:
            overhead += entry.startup_ms / 1_000.0
        residual = max(seconds - overhead, seconds * 0.05)
        effective = _effective_parallelism(kind, workers)
        observed_us = residual * 1e6 * effective / draws
        if entry.samples == 0:
            entry.per_draw_us = observed_us
        else:
            entry.per_draw_us += _OBSERVE_ALPHA * (observed_us - entry.per_draw_us)
        entry.samples += 1

    def calibrate_from_bench(self, payload: dict) -> list[str]:
        """Recalibrate from a ``BENCH_parallel.json`` payload; returns the
        transport kinds that were updated.

        The serial engine leg pins ``serial.per_draw_us`` (and the workers'
        too — every transport runs the same draw core); the shm leg's
        *excess* over its predicted draw time is split 70/30 between
        startup and per-round overhead.
        """
        draws = int(payload.get("draws", 0))
        if draws <= 0:
            return []
        rounds = max(1, math.ceil(draws / DEFAULT_BATCH_SIZE))
        updated: list[str] = []
        engine_serial = payload.get("engine_serial")
        if engine_serial and engine_serial.get("seconds"):
            serial = self.cost("serial")
            seconds = float(engine_serial["seconds"])
            serial.per_draw_us = seconds * 1e6 / draws
            serial.round_overhead_ms = 0.0
            serial.samples += 1
            for kind in ("shm", "rpc"):
                self.cost(kind).per_draw_us = serial.per_draw_us
            updated.append("serial")
        leg = payload.get("engine_shm")
        if leg and leg.get("seconds"):
            entry = self.cost("shm")
            workers = max(1, int(leg.get("workers", 1)))
            effective = _effective_parallelism("shm", workers)
            draw_seconds = draws * entry.per_draw_us / 1e6 / effective
            excess = max(0.0, float(leg["seconds"]) - draw_seconds)
            entry.startup_ms = max(1.0, 0.7 * excess * 1_000.0)
            entry.round_overhead_ms = max(0.05, 0.3 * excess * 1_000.0 / rounds)
            entry.samples += 1
            updated.append("shm")
        return updated


def default_profile_path() -> Path:
    """Where the calibration profile lives when ``--profile`` is not given.

    ``REPRO_PLANNER_PROFILE`` wins, then ``$XDG_CACHE_HOME/repro/planner.json``,
    then ``~/.cache/repro/planner.json``.
    """
    env = os.environ.get("REPRO_PLANNER_PROFILE")
    if env:
        return Path(env)
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro" / "planner.json"


def load_profile(path: str | Path | None = None) -> CalibrationProfile:
    """Load the calibration profile, falling back to defaults.

    A missing or unreadable file is not an error — the planner must always
    be able to make a (conservative) decision.
    """
    target = Path(path) if path is not None else default_profile_path()
    try:
        with open(target, encoding="utf-8") as handle:
            return CalibrationProfile.from_dict(json.load(handle))
    except (OSError, ValueError, TypeError):
        return CalibrationProfile()


def save_profile(profile: CalibrationProfile, path: str | Path | None = None) -> Path | None:
    """Persist the profile as JSON; best-effort (read-only homes are fine)."""
    target = Path(path) if path is not None else default_profile_path()
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(profile.to_dict(), handle, indent=2)
            handle.write("\n")
    except OSError:
        return None
    return target


def _effective_parallelism(kind: str, workers: int) -> float:
    """Usable parallel width: serial folds cap the parallel fraction."""
    if kind == "serial" or workers <= 1:
        return 1.0
    return 1.0 + (workers - 1) * _PARALLEL_EFFICIENCY


@dataclass(frozen=True)
class PlannerDecision:
    """One planning outcome: what to run where, and why.

    ``predictions`` maps every considered transport kind to its predicted
    wall-clock seconds; ``reason`` is the human-readable justification that
    also lands in the structured log event.
    """

    transport: str
    workers: int
    shards: int
    rpc_window: int | None
    reason: str
    predicted_seconds: float
    predictions: dict[str, float]
    draws_hint: int
    #: Whether the chosen transport's prediction assumed an adoptable warm
    #: pool (startup waived) — callers feed this back to
    #: :meth:`CalibrationProfile.observe` so warm runs don't bias
    #: ``per_draw_us`` low by subtracting a startup cost they never paid.
    warm: bool = False

    def as_dict(self) -> dict:
        return {
            "transport": self.transport,
            "workers": self.workers,
            "shards": self.shards,
            "rpc_window": self.rpc_window,
            "reason": self.reason,
            "predicted_seconds": self.predicted_seconds,
            "predictions": {k: round(v, 6) for k, v in self.predictions.items()},
            "draws_hint": self.draws_hint,
            "warm": self.warm,
        }


class AdaptivePlanner:
    """Chooses transport, shard count and RPC window for a sampling run.

    Parameters
    ----------
    profile:
        Calibration profile; defaults to :func:`load_profile` (which falls
        back to conservative built-ins when no file exists).
    cpu_count:
        Override the measured CPU availability (tests pin this).  Defaults
        to the scheduler-visible CPU count, not the host count — a
        container limited to 2 of 64 cores must plan for 2.
    """

    def __init__(
        self,
        profile: CalibrationProfile | None = None,
        *,
        cpu_count: int | None = None,
    ) -> None:
        self.profile = profile if profile is not None else load_profile()
        if cpu_count is not None:
            self.cpu_count = int(cpu_count)
        else:
            self.cpu_count = available_cpus()

    # ------------------------------------------------------------------ #
    # Decision inputs
    # ------------------------------------------------------------------ #
    @staticmethod
    def draws_for_target(moe: float, confidence: float = 0.95) -> int:
        """Pessimistic draw-volume hint for a margin-of-error target.

        Worst-case unit variance (0.25) times a design-effect factor of 2
        for cluster sampling; the planner only needs the order of
        magnitude, not the exact stopping point.
        """
        from scipy.stats import norm

        z = float(norm.ppf(0.5 + confidence / 2.0))
        base = (z / (2.0 * max(moe, 1e-6))) ** 2
        return max(100, int(math.ceil(2.0 * base)))

    def _predict(self, kind: str, draws: int, rounds: int, workers: int, warm: bool) -> float:
        entry = self.profile.cost(kind)
        startup = 0.0 if (warm or kind == "serial") else entry.startup_ms / 1_000.0
        overhead = rounds * entry.round_overhead_ms / 1_000.0
        effective = _effective_parallelism(kind, workers)
        return startup + overhead + draws * entry.per_draw_us / 1e6 / effective

    @staticmethod
    def _warm_workers(workers: int) -> bool:
        """Whether a parked shm pool would absorb the startup cost."""
        from repro.sampling import shm

        return workers in shm._WARM_SHM_POOLS

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def plan(
        self,
        stats: StorageStats,
        *,
        draws: int | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        workers: int | None = None,
        shards: int | None = None,
        nodes: int = 0,
        rpc_window: int | None = None,
    ) -> PlannerDecision:
        """Choose the execution plan for one run over ``stats``-shaped data.

        ``draws`` is the expected draw volume (defaults to the
        MoE-0.05 hint); ``shards``, ``workers`` and ``rpc_window`` are
        caller pins that the planner always honours.  ``nodes`` > 0 makes
        RPC a candidate.

        The shard count — the stream-identity half of the decision — comes
        first, from the pin or :func:`plan_shards`, and nothing below that
        line (CPU count, warm pools, calibrated costs) can change it; those
        inputs only choose which transport executes the fixed plan.
        """
        draws_hint = draws if draws is not None else self.draws_for_target(0.05)
        draws_hint = max(1, min(draws_hint, max(stats.num_triples, 1)))
        rounds = max(1, math.ceil(draws_hint / max(1, batch_size)))

        if shards is not None:
            chosen_shards = max(1, int(shards))
        else:
            chosen_shards = plan_shards(stats, draws_hint)

        local_workers = workers if workers else min(self.cpu_count, self.profile.max_workers)
        local_workers = max(1, min(local_workers, chosen_shards))

        candidates: dict[str, tuple[int, bool]] = {"serial": (1, False)}
        if local_workers >= 2:
            candidates["shm"] = (local_workers, self._warm_workers(local_workers))
        if nodes > 0 and chosen_shards > 1:
            candidates["rpc"] = (max(1, nodes), False)

        predictions = {
            kind: self._predict(kind, draws_hint, rounds, width, warm)
            for kind, (width, warm) in candidates.items()
        }
        serial_predicted = predictions["serial"]
        chosen = "serial"
        for kind in PLANNABLE_TRANSPORTS:
            if kind == "serial" or kind not in predictions:
                continue
            if predictions[kind] * self.profile.min_speedup <= serial_predicted and (
                predictions[kind] < predictions[chosen] or chosen == "serial"
            ):
                chosen = kind
        chosen_workers, chosen_warm = candidates[chosen]

        window = None
        if chosen == "rpc":
            if rpc_window is not None:
                window = max(1, int(rpc_window))
            else:
                ratio = self.profile.rpc_rtt_ms / max(self.profile.rpc_service_ms, 1e-3)
                window = int(min(16, max(2, math.ceil(ratio) + 2)))

        if chosen == "serial":
            reason = (
                f"predicted serial {serial_predicted:.3f}s beats parallel "
                f"alternatives beyond the {self.profile.min_speedup:.2f}x margin "
                f"at ~{draws_hint} draws over {stats.num_triples} triples"
                f" ({chosen_shards} shard{'s' if chosen_shards != 1 else ''})"
            )
        else:
            reason = (
                f"predicted {chosen} {predictions[chosen]:.3f}s vs serial "
                f"{serial_predicted:.3f}s at ~{draws_hint} draws "
                f"({chosen_shards} shards on {chosen_workers} workers"
                + (", warm pool" if chosen_warm else "")
                + (f", skew {stats.skew:.0f}" if stats.skew > SKEW_THRESHOLD else "")
                + ")"
            )

        decision = PlannerDecision(
            transport=chosen,
            workers=chosen_workers,
            shards=chosen_shards,
            rpc_window=window,
            reason=reason,
            predicted_seconds=predictions[chosen],
            predictions=predictions,
            draws_hint=draws_hint,
            warm=chosen_warm,
        )
        obs_metrics.counter("planner_decisions_total", transport=chosen).inc()
        if _log.enabled_for("info"):
            _log.info("planner_decision", **decision.as_dict())
        return decision

    # ------------------------------------------------------------------ #
    # Decision -> transport
    # ------------------------------------------------------------------ #
    @staticmethod
    def build_transport(
        decision: PlannerDecision,
        *,
        nodes=(),
        secret=None,
        join_address=None,
    ):
        """Materialise the chosen :class:`~repro.sampling.parallel.ShardTransport`.

        A shared-memory transport parks its worker pool on close, so a
        process that evaluates repeatedly reuses one warm pool.
        """
        if decision.transport == "serial":
            from repro.sampling.parallel import SerialTransport

            return SerialTransport()
        if decision.transport == "shm":
            from repro.sampling.shm import SharedMemoryTransport

            return SharedMemoryTransport(decision.workers)
        if decision.transport == "rpc":
            from repro.sampling.rpc import SocketRPCTransport

            return SocketRPCTransport(
                nodes,
                secret=secret,
                window=decision.rpc_window or 4,
                join_address=join_address,
            )
        raise ValueError(f"unknown planned transport {decision.transport!r}")


def available_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1

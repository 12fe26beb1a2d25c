"""The ``repro serve`` daemon: golden replay, caching, backpressure, drain.

The load-bearing test is the golden replay: a session driven through the
loopback daemon — attach, submit batches over the authenticated wire, read
the trajectory back — must reproduce ``tests/golden/evolving_*.json``
**byte-for-byte**, including after a drain/restart cycle in the middle of
the stream.  The daemon is transport, not math: it may never shift a
trajectory.

Everything here runs in-process (threads + loopback sockets, no worker
subprocesses), so the module is part of the tier-1 leg.
"""

from __future__ import annotations

import pytest

from repro.generators.datasets import LabelledKG, make_nell_like
from repro.generators.workload import UpdateWorkloadGenerator
from repro.obs import metrics as obs_metrics
from repro.sampling.rpc import RPCAuthError
from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.server import EvalServer

_SEED = 2026
_SECRET = b"serve-test-secret"


@pytest.fixture(scope="module")
def base():
    data = make_nell_like(seed=0)
    return LabelledKG(data.graph.to_columnar(), data.oracle)


def _workload(base):
    return list(UpdateWorkloadGenerator(base, seed=_SEED).generate_sequence(2, 120, 0.8))


def _spec(kind: str) -> dict:
    return {
        "dataset": "nell",
        "dataset_seed": 0,
        "seed": _SEED,
        "evaluator": kind,
        "moe": 0.06,
    }


def _golden_payload(entries) -> list[dict]:
    """Rebuild the exact ``_evolving_trajectory`` golden shape from served rounds."""
    payload = [
        {
            "batch_id": entry["batch_id"],
            "accuracy": float(entry["report"].estimate.value),
            "margin_of_error": float(entry["report"].margin_of_error),
            "num_units": int(entry["report"].num_units),
            "triples_annotated": int(entry["report"].num_triples_annotated),
            "entities_identified": int(entry["report"].num_entities_identified),
            "cumulative_cost_seconds": float(entry["cumulative_cost_seconds"]),
        }
        for entry in entries
    ]
    payload.append({"true_accuracy": float(entries[-1]["record"].true_accuracy)})
    return payload


@pytest.fixture()
def server():
    server = EvalServer(port=0, secret=_SECRET, queue_limit=8)
    server.start()
    yield server
    server.shutdown(drain=True)


def _client(server) -> ServeClient:
    return ServeClient(server.address, secret=_SECRET, connect_retries=1)


# --------------------------------------------------------------------------- #
# The contract: served trajectories == offline `repro monitor` goldens
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["rs", "ss"])
@pytest.mark.timeout(300)
def test_served_trajectory_replays_golden(server, base, golden, kind):
    with _client(server) as client:
        client.attach(_spec(kind), session=kind)
        for batch, oracle in _workload(base):
            client.submit_batch(kind, batch, oracle)
        entries = client.trajectory(kind)["entries"]
    golden.check(f"evolving_{kind}", _golden_payload(entries))


@pytest.mark.timeout(300)
def test_resume_after_drain_replays_golden(base, golden, tmp_path):
    """Drain mid-stream, restart on the same state dir, finish: still golden."""
    state_dir = tmp_path / "state"
    workload = _workload(base)

    first = EvalServer(port=0, secret=_SECRET, state_dir=state_dir, queue_limit=8)
    first.start()
    with _client(first) as client:
        client.attach(_spec("ss"), session="resumed")
        client.submit_batch("resumed", *workload[0])
    first.shutdown(drain=True)
    assert (state_dir / "resumed.ckpt").is_file()

    second = EvalServer(port=0, secret=_SECRET, state_dir=state_dir, queue_limit=8)
    second.start()
    try:
        with _client(second) as client:
            # Re-attaching the resumed session with the same spec is
            # idempotent — no new evaluator, no extra base round.
            reply = client.attach(_spec("ss"), session="resumed")
            assert reply["resumed"] is True
            assert reply["num_records"] == 2
            client.submit_batch("resumed", *workload[1])
            entries = client.trajectory("resumed")["entries"]
    finally:
        second.shutdown(drain=True)
    golden.check("evolving_ss", _golden_payload(entries))


@pytest.mark.timeout(300)
def test_reattach_with_different_spec_is_refused(server):
    with _client(server) as client:
        client.attach(_spec("ss"), session="pinned")
        with pytest.raises(ServeRequestError) as excinfo:
            client.attach(_spec("rs"), session="pinned")
        assert excinfo.value.code == "spec_mismatch"


# --------------------------------------------------------------------------- #
# estimate is an O(1) cached read
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(300)
def test_estimate_is_cached_read(server, base):
    with _client(server) as client:
        client.attach(_spec("ss"), session="cached")
        batch, oracle = _workload(base)[0]
        client.submit_batch("cached", batch, oracle)
        before = obs_metrics.counter("serve_estimate_cache_hits_total").value
        replies = [client.estimate("cached") for _ in range(10)]
        after = obs_metrics.counter("serve_estimate_cache_hits_total").value
    # Every read served from the cache, none enqueued work, all identical.
    assert after - before == 10
    assert all(reply["pending"] == 0 for reply in replies)
    assert all(reply["num_records"] == 2 for reply in replies)
    first = replies[0]["latest"]["record"]
    for reply in replies[1:]:
        assert reply["latest"]["record"] == first


# --------------------------------------------------------------------------- #
# Backpressure, polling, detach discipline
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(300)
def test_full_admission_queue_rejects_submit(base):
    server = EvalServer(port=0, secret=_SECRET, queue_limit=1)
    # Pausing before start() parks the eval worker before it can dequeue
    # anything, so the single queue slot deterministically stays occupied.
    server.pause()
    server.start()
    try:
        with _client(server) as client:
            client.attach(_spec("ss"), session="bp", wait=False)
            batch, oracle = _workload(base)[0]
            with pytest.raises(ServeRequestError) as excinfo:
                client.submit_batch("bp", batch, oracle, wait=False)
            assert excinfo.value.code == "backpressure"
            server.resume()
            # The queued base round still completes after the pressure clears.
            reply = client.poll("bp", min_records=1, timeout=120.0)
            assert reply["satisfied"] is True
            assert obs_metrics.counter("serve_backpressure_total").value >= 1
    finally:
        server.shutdown(drain=True)


@pytest.mark.timeout(300)
def test_poll_waits_for_threshold(server, base):
    with _client(server) as client:
        client.attach(_spec("ss"), session="poller")
        batch, oracle = _workload(base)[0]
        client.submit_batch("poller", batch, oracle, wait=False)
        reply = client.poll("poller", min_records=2, timeout=120.0)
        assert reply["satisfied"] is True
        assert reply["num_records"] >= 2
        # An unreachable threshold times out without failing the session.
        reply = client.poll("poller", min_records=99, timeout=0.2)
        assert reply["satisfied"] is False
        assert reply["failed"] is None


@pytest.mark.timeout(300)
def test_detach_drops_session(server):
    with _client(server) as client:
        client.attach(_spec("ss"), session="gone")
        assert client.detach("gone")["session"] == "gone"
        with pytest.raises(ServeRequestError) as excinfo:
            client.estimate("gone")
        assert excinfo.value.code == "bad_request"
        assert not any(
            entry["session"] == "gone" for entry in client.sessions()["entries"]
        )


# --------------------------------------------------------------------------- #
# Authentication and admission control
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(60)
def test_wrong_secret_is_rejected(server):
    with pytest.raises(RPCAuthError):
        ServeClient(server.address, secret=b"not-the-secret", connect_retries=1)


@pytest.mark.timeout(300)
def test_draining_server_refuses_new_work(server):
    with _client(server) as client:
        client.attach(_spec("ss"), session="late")
        server._stopping.set()  # what SIGTERM sets, before the drain proper
        with pytest.raises(ServeRequestError) as excinfo:
            client.attach(_spec("ss"), session="too-late")
        assert excinfo.value.code == "draining"


# --------------------------------------------------------------------------- #
# Legacy engine requests
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("source", ["attach", "checkpoint"])
def test_legacy_pool_engine_is_a_typed_error(tmp_path, source):
    """``engine.transport: "pool"`` (the removed fork pool) fails typed."""
    import pickle

    from repro.serve import session as sessions_mod

    spec = dict(_spec("ss"), engine={"transport": "pool", "workers": 2})
    with pytest.raises(ValueError, match=r"spec\.engine\.transport must be one of"):
        if source == "attach":
            sessions_mod.normalise_spec(spec)
        else:
            path = tmp_path / "legacy.ckpt"
            payload = {
                "format": sessions_mod.CHECKPOINT_FORMAT,
                "session": "legacy",
                "spec": spec,
                "seed": _SEED,
                "state": None,
                "records": [],
            }
            path.write_bytes(pickle.dumps(payload))

            def base_for(_spec):
                raise AssertionError("the spec is rejected before any graph is built")

            sessions_mod.restore_session(path, base_for)

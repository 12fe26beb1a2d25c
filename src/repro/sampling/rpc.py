"""Socket RPC shard transport: multi-node execution of shard tasks.

Protocol v2 — hardened for real clusters.  Every message is one value under
the schema'd binary codec of :mod:`repro.sampling.wire` (tagged fields,
explicit dtype/shape encoding for ndarrays and RNG states, CRC-checked
frames, **no pickle and no arbitrary object deserialization anywhere on the
wire path**).  A worker node (``repro worker --listen HOST:PORT``) accepts
one master connection at a time:

``challenge`` → ``hello``
    Handshake: the worker opens with a protocol-version banner and a random
    nonce; the master answers with an HMAC-SHA256 tag over that nonce under
    the shared secret (``--secret-file``) plus its own nonce, which the
    worker's ``hello`` reply tags in turn.  Either side failing the check is
    rejected (``auth_error``) **before any attach/snapshot/task bytes are
    exchanged**.  Running without a secret file means both sides tag with
    the empty secret — fine on loopback, pointless on a shared network.
``attach {digest}`` / ``put_snapshot {digest, arrays}``
    Bind the connection to a CSR index by content address; a worker that
    lacks the digest receives the packaged ``.npy`` columns exactly once
    (across runs and reconnects) and verifies the package against its
    claimed digest before storing it.
``task {id, task}``
    Execute one self-contained :class:`~repro.sampling.parallel.ShardTask`
    and reply ``result {id, result}``.  Tasks are *pipelined*: the master
    keeps up to ``window`` tasks in flight per node and matches replies by
    id, so a round is no longer one synchronous round-trip per task.
``shutdown``
    Close the connection (the worker keeps listening for the next master).

Membership is elastic: a late-starting ``repro worker --join HOST:PORT``
dials a running master's registration listener (``join``/``welcome``
handshake, mutually authenticated like the normal one), catches up on the
CSR index through the same content-addressed shipping, and receives work
from the next round on — over the very connection it dialed in with, so
joiners behind NAT need no listening port.

:class:`SocketRPCTransport` implements the master side of the
:class:`~repro.sampling.parallel.ShardTransport` contract: tasks are
streamed to live nodes with a per-node in-flight window (one draining
thread per node), results are slotted back **in task order**, a dropped
node's unacknowledged tasks are reassigned to the survivors, and an idle
node *steals* tasks stuck in a slow node's window — re-executing them is
safe because every task carries its own random-generator state, so whoever
finishes first produces the identical bytes.  Node failures and slowness
never perturb a trajectory; they only change which machine computed it.
Labels never cross the wire; workers only ever hold the CSR index.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import socket
import threading
import time
from collections import deque
from pathlib import Path

from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.sampling import wire
from repro.sampling.parallel import ShardResult, ShardTask, ShardTransport, _run_task
from repro.storage.distribute import SnapshotCache, csr_digest, pack_csr

__all__ = [
    "PROTOCOL_VERSION",
    "RPCError",
    "RPCAuthError",
    "RPCTaskError",
    "encode_message",
    "decode_message",
    "send_message",
    "recv_message",
    "parse_node_address",
    "load_secret_file",
    "serve_worker",
    "join_master",
    "SocketRPCTransport",
]

PROTOCOL_VERSION = 2
#: Upper bound on one frame (a packaged CSR column dominates; 16 GiB is far
#: beyond any graph this engine targets and catches corrupted prefixes).
MAX_MESSAGE_BYTES = 16 * 2**30
#: Upper bound on *handshake* frames — challenge/hello/join/welcome are a
#: few hundred bytes, and nothing larger may be buffered from a peer that
#: has not yet authenticated (an unauthenticated client must not be able to
#: make this side allocate gigabytes).
MAX_HANDSHAKE_BYTES = 1 << 16
#: Socket deadline on *pre-authentication* handshake reads (server side): a
#: silent TCP client must hold a worker's single accept slot for seconds,
#: not for the generous post-auth ``idle_timeout``.
HANDSHAKE_TIMEOUT = 10.0
_NONCE_BYTES = 16

_master_log = get_logger("rpc.master")
_worker_log = get_logger("rpc.worker")


class RPCError(RuntimeError):
    """Transport-level failure (connection, protocol, no surviving nodes)."""


class RPCAuthError(RPCError):
    """The shared-secret handshake failed on connect.

    Raised before any attach/snapshot/task bytes are exchanged: a
    misconfigured secret can never leak work (or the CSR index) to a peer
    that does not hold it.
    """


class RPCTaskError(RPCError):
    """A shard task raised on the worker; re-raised on the master.

    Unlike a connection drop this is *not* retried on another node — the
    task itself is at fault and would fail identically everywhere.
    """


# --------------------------------------------------------------------------- #
# Framing (delegates to the schema'd wire codec)
# --------------------------------------------------------------------------- #
def encode_message(obj) -> bytes:
    """Serialise one message as a complete wire frame."""
    return wire.encode_frame(obj)


def decode_message(data: bytes):
    """Inverse of :func:`encode_message` for one complete frame.

    Malformed frames raise :class:`RPCError` (wrapping the codec's
    :class:`~repro.sampling.wire.WireError`), matching the exception
    contract this function has always had.
    """
    try:
        return wire.decode_frame(data)
    except wire.WireError as exc:
        raise RPCError(f"protocol error: {exc}") from exc


def send_message(sock: socket.socket, obj, meter=None) -> None:
    """Write one framed message to a socket.

    ``meter(byte_count)``, when given, observes the frame size after a
    successful write — the hook the frame/byte counters hang off.
    """
    data = encode_message(obj)
    sock.sendall(data)
    if meter is not None:
        meter(len(data))


def _recv_exactly(sock: socket.socket, count: int) -> bytes | None:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count and not chunks:
                return None  # clean EOF at a frame boundary
            raise RPCError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _finish_frame(sock: socket.socket, header: bytes, limit: int, meter=None):
    try:
        length, crc = wire.parse_header(header)
    except wire.WireError as exc:
        raise RPCError(f"protocol error: {exc}") from exc
    if length > limit:
        raise RPCError(f"frame of {length} bytes exceeds limit {limit}")
    payload = _recv_exactly(sock, length) if length else b""
    if payload is None:
        raise RPCError("connection closed mid-frame")
    if meter is not None:
        meter(wire.HEADER_SIZE + len(payload))
    try:
        return wire.check_payload(payload, crc)
    except wire.WireError as exc:
        raise RPCError(f"protocol error: {exc}") from exc


def recv_message(sock: socket.socket, *, limit: int = MAX_MESSAGE_BYTES, meter=None):
    """Read one framed message; returns ``None`` on clean end-of-stream.

    All decode failures surface as :class:`RPCError` (wrapping the codec's
    :class:`~repro.sampling.wire.WireError`), so callers latching a peer
    dead on ``(OSError, RPCError)`` catch every protocol malformation.
    ``limit`` caps the accepted payload size — handshake reads pass the
    small pre-authentication bound.
    """
    header = _recv_exactly(sock, wire.HEADER_SIZE)
    if header is None:
        return None
    return _finish_frame(sock, header, limit, meter)


#: Sentinel returned by :func:`_recv_message_bail` when the caller's bail
#: predicate fired before any byte of the next frame arrived.
_BAILED = object()


def _recv_message_bail(
    sock: socket.socket, bail, io_timeout: float | None, poll: float = 0.05, meter=None
):
    """Like :func:`recv_message`, but interruptible *between* frames.

    While no byte of the next frame has arrived, the socket is polled in
    short slices and ``bail()`` is consulted; once it returns true the
    function returns :data:`_BAILED` without consuming anything, leaving the
    stream at a clean frame boundary.  As soon as the first byte lands, the
    frame is read to completion under the normal ``io_timeout`` deadline —
    bailing mid-frame would corrupt the stream.
    """
    started = time.monotonic()
    first = b""
    sock.settimeout(poll)
    try:
        while not first:
            if bail():
                return _BAILED
            if io_timeout is not None and time.monotonic() - started > io_timeout:
                raise RPCError(f"no reply within the {io_timeout}s io deadline")
            try:
                first = sock.recv(1)
            except TimeoutError:
                continue
            if first == b"":
                return None  # clean EOF at a frame boundary
    finally:
        sock.settimeout(io_timeout)
    rest = _recv_exactly(sock, wire.HEADER_SIZE - 1)
    if rest is None:
        raise RPCError("connection closed mid-frame")
    return _finish_frame(sock, first + rest, MAX_MESSAGE_BYTES, meter)


def parse_node_address(spec: str | tuple[str, int]) -> tuple[str, int]:
    """Parse ``"host:port"`` (or pass through a ``(host, port)`` pair)."""
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    host, separator, port = spec.rpartition(":")
    if not separator or not host:
        raise ValueError(f"node address {spec!r} is not of the form host:port")
    return host, int(port)


# --------------------------------------------------------------------------- #
# Shared-secret authentication
# --------------------------------------------------------------------------- #
def _normalise_secret(secret) -> bytes:
    if secret is None:
        return b""
    if isinstance(secret, str):
        return secret.encode("utf-8")
    return bytes(secret)


def load_secret_file(path: str | Path) -> bytes:
    """Read a shared secret from a file (surrounding whitespace stripped)."""
    data = Path(path).read_bytes().strip()
    if not data:
        raise ValueError(f"secret file {path} is empty")
    return data


def _auth_tag(secret: bytes, role: bytes, initiator_nonce: bytes, responder_nonce: bytes) -> bytes:
    """HMAC tag binding the role *and both* handshake nonces.

    The role strings are domain-separated per handshake direction
    (``listen-master``/``listen-worker`` vs ``join-master``/``join-worker``)
    and every tag covers the full nonce pair, so a tag obtained from one
    exchange can never be replayed into another: the join listener cannot be
    used as a signing oracle to impersonate a master toward a listening
    worker (or vice versa), because no two contexts ever verify the same
    ``(role, nonce_pair)`` message.
    """
    material = role + b":" + initiator_nonce + b":" + responder_nonce
    return hmac.new(secret, material, hashlib.sha256).digest()


def _auth_ok(secret: bytes, role: bytes, initiator_nonce, responder_nonce, tag) -> bool:
    if (
        not isinstance(initiator_nonce, bytes)
        or not isinstance(responder_nonce, bytes)
        or not isinstance(tag, bytes)
    ):
        return False
    return hmac.compare_digest(_auth_tag(secret, role, initiator_nonce, responder_nonce), tag)


def _frame_meter(direction: str, node: str | None = None):
    """Counter pair (frames, bytes) for one peer/direction as a meter hook."""
    labels = {"node": node} if node is not None else {}
    frames = obs_metrics.counter(f"rpc_frames_{direction}_total", **labels)
    size = obs_metrics.counter(f"rpc_bytes_{direction}_total", **labels)

    def meter(count: int) -> None:
        frames.inc()
        size.inc(count)

    return meter


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
def _reply_for(
    op,
    message: dict,
    cache: SnapshotCache,
    attached,
    task_delay: float,
) -> dict:
    """Compute the worker's reply to one request (side effects already done)."""
    if op == "attach":
        if attached is not None:
            return {"op": "ok"}
        return {"op": "need_snapshot", "digest": message.get("digest")}
    if op == "put_snapshot":
        try:
            cache.store(message["digest"], message["arrays"], verify=True)
        except Exception as exc:  # corrupt/forged package: reject, stay alive
            return {"op": "error", "message": f"{type(exc).__name__}: {exc}"}
        return {"op": "ok"}
    if op == "task":
        task = message.get("task")
        task_id = message.get("id")
        if not isinstance(task, ShardTask):
            return {"op": "error", "id": task_id, "message": "malformed task payload"}
        if task_delay > 0.0:
            time.sleep(task_delay)
        started = time.perf_counter()
        try:
            result = _run_task(task, attached)
        except Exception as exc:  # propagate to the master, don't kill the worker
            _worker_log.warning(
                "task_failed", task_id=task_id, error=f"{type(exc).__name__}: {exc}"
            )
            return {"op": "error", "id": task_id, "message": f"{type(exc).__name__}: {exc}"}
        obs_metrics.histogram("rpc_task_service_seconds").observe(
            time.perf_counter() - started
        )
        return {"op": "result", "id": task_id, "result": result}
    return {"op": "error", "message": f"unknown op {op!r}"}


def _serve_ops(conn: socket.socket, cache: SnapshotCache, task_delay: float) -> None:
    """Serve attach/snapshot/task requests on an authenticated connection."""
    attached = None
    recv_meter = _frame_meter("received")
    send_meter = _frame_meter("sent")
    while True:
        message = recv_message(conn, meter=recv_meter)
        if message is None or not isinstance(message, dict):
            return
        op = message.get("op")
        if op in ("shutdown", "auth_error"):
            _worker_log.debug("connection_closed", op=op)
            return
        if op == "attach":
            # A failed attach clears any previous attachment: the master
            # wants *this* digest, and stale arrays must never answer it.
            digest = message.get("digest")
            hit = isinstance(digest, str) and cache.has(digest)
            attached = cache.load_csr(digest) if hit else None
            _worker_log.info("attach", digest=digest, cache_hit=bool(hit))
        elif op == "put_snapshot":
            _worker_log.info("snapshot_received", digest=message.get("digest"))
        send_message(conn, _reply_for(op, message, cache, attached, task_delay), send_meter)


def _handshake_server(conn: socket.socket, cache: SnapshotCache, secret: bytes) -> bool:
    """Challenge/response with a connecting master; True once mutually authed."""
    started = time.perf_counter()
    nonce = os.urandom(_NONCE_BYTES)
    send_message(conn, {"op": "challenge", "version": PROTOCOL_VERSION, "nonce": nonce})
    hello = recv_message(conn, limit=MAX_HANDSHAKE_BYTES)
    if not isinstance(hello, dict) or hello.get("op") != "hello":
        _worker_log.warning("handshake_rejected", reason="malformed hello")
        return False
    if hello.get("version") != PROTOCOL_VERSION:
        send_message(
            conn,
            {
                "op": "error",
                "message": f"protocol version mismatch, worker speaks v{PROTOCOL_VERSION}",
            },
        )
        _worker_log.warning("handshake_rejected", reason="protocol version mismatch")
        return False
    master_nonce = hello.get("nonce")
    if not _auth_ok(secret, b"listen-master", nonce, master_nonce, hello.get("auth")):
        send_message(conn, {"op": "auth_error", "message": "shared-secret authentication failed"})
        obs_metrics.counter("rpc_auth_failures_total").inc()
        _worker_log.warning("auth_failed", role="listen-master")
        return False
    send_message(
        conn,
        {
            "op": "hello",
            "version": PROTOCOL_VERSION,
            "digests": cache.digests(),
            "auth": _auth_tag(secret, b"listen-worker", nonce, master_nonce),
        },
    )
    duration = time.perf_counter() - started
    obs_metrics.histogram("rpc_handshake_seconds").observe(duration)
    _worker_log.info("handshake_ok", duration=round(duration, 6))
    return True


def _serve_connection(
    conn: socket.socket,
    cache: SnapshotCache,
    secret: bytes,
    task_delay: float,
    idle_timeout: float | None,
) -> None:
    with conn:
        # An expected per-message failure — master vanished mid-frame, RST
        # while we reply to an in-flight task, garbage that fails the codec's
        # CRC or schema checks, an unauthenticated client — drops *this*
        # connection only; the worker keeps listening for the next master.
        # Every socket failure is an OSError (timeouts included) and every
        # protocol malformation surfaces as RPCError, so the catch is exactly
        # that pair: a genuine worker-side bug propagates instead of
        # vanishing without a trace.  (Task execution errors are replied, not
        # raised.)  The generous idle_timeout applies only *after*
        # authentication; the handshake itself runs under the short pre-auth
        # deadline set by the caller.
        try:
            if not _handshake_server(conn, cache, secret):
                return
            conn.settimeout(idle_timeout)
            _serve_ops(conn, cache, task_delay)
        except (OSError, RPCError) as exc:
            obs_metrics.counter("rpc_conn_errors_total").inc()
            _worker_log.warning(
                "conn_error", error=type(exc).__name__, detail=str(exc)
            )
            return


def serve_worker(
    host: str,
    port: int,
    cache_dir: str | Path,
    *,
    secret: bytes | str | None = None,
    on_ready=None,
    max_connections: int | None = None,
    idle_timeout: float | None = 3600.0,
    task_delay: float = 0.0,
) -> None:
    """Run a worker node: accept master connections and execute shard tasks.

    Binds ``host:port`` (``port=0`` picks an ephemeral port), then serves
    one connection at a time until ``max_connections`` is exhausted (or
    forever).  ``on_ready(host, port)`` fires once with the actual bound
    address — the CLI prints it so callers using port 0 learn the port.
    Snapshot shards received from masters persist in ``cache_dir`` across
    connections, so a restarted evaluation re-ships nothing.

    ``secret`` is the shared authentication secret; every connection must
    complete the mutual HMAC handshake before any other operation.

    ``idle_timeout`` bounds how long one connection may sit silent: a master
    that half-opens and vanishes without an RST (partition, SIGSTOP) cannot
    wedge the single-connection worker forever — the stale connection is
    dropped and the node returns to accepting.  A master that idles longer
    than this between rounds observes the node as dropped on its next round
    (and reassigns accordingly), so keep the default generous.

    ``task_delay`` sleeps that many seconds before executing each task — a
    throttling/fault-injection aid used by the chaos suite to simulate slow
    nodes; leave at 0 in production.
    """
    cache = SnapshotCache(cache_dir)
    secret = _normalise_secret(secret)
    with socket.create_server((host, port)) as server:
        bound_host, bound_port = server.getsockname()[:2]
        _worker_log.info("worker_listening", address=f"{bound_host}:{bound_port}")
        if on_ready is not None:
            on_ready(bound_host, bound_port)
        served = 0
        while max_connections is None or served < max_connections:
            conn, peer = server.accept()
            conn.settimeout(HANDSHAKE_TIMEOUT)
            served += 1
            _worker_log.debug("connection_accepted", peer=f"{peer[0]}:{peer[1]}")
            _serve_connection(conn, cache, secret, task_delay, idle_timeout)


def join_master(
    master: str | tuple[str, int],
    cache_dir: str | Path,
    *,
    secret: bytes | str | None = None,
    task_delay: float = 0.0,
    connect_retries: int = 40,
    retry_interval: float = 0.25,
    idle_timeout: float | None = 3600.0,
    on_joined=None,
) -> None:
    """Register with a running master and serve shard tasks to it.

    The elastic-membership worker mode: instead of listening, the worker
    dials the master's registration listener (``SocketRPCTransport``'s
    ``join_address``), completes the mutual HMAC handshake, and then serves
    the standard attach/snapshot/task protocol over the connection it
    opened — the master ships the CSR index content-addressed exactly as it
    would to a pre-configured node, and work flows from the next round on.
    Returns when the master shuts the connection down (end of run).

    The initial TCP connect is retried ``connect_retries`` times at
    ``retry_interval`` seconds, so a joiner raced against master startup
    converges instead of dying.
    """
    host, port = parse_node_address(master)
    secret = _normalise_secret(secret)
    cache = SnapshotCache(cache_dir)
    sock = None
    for attempt in range(max(1, connect_retries)):
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            break
        except OSError:
            if attempt + 1 >= max(1, connect_retries):
                raise RPCError(f"could not reach master at {host}:{port} to join") from None
            time.sleep(retry_interval)
    assert sock is not None
    with sock:
        sock.settimeout(idle_timeout)
        nonce = os.urandom(_NONCE_BYTES)
        send_message(sock, {"op": "join", "version": PROTOCOL_VERSION, "nonce": nonce})
        welcome = recv_message(sock, limit=MAX_HANDSHAKE_BYTES)
        if not isinstance(welcome, dict) or welcome.get("op") != "welcome":
            raise RPCError(f"master at {host}:{port} rejected the join: {welcome!r}")
        if welcome.get("version") != PROTOCOL_VERSION:
            raise RPCError(
                f"master at {host}:{port} speaks protocol "
                f"v{welcome.get('version')!r}, this worker speaks v{PROTOCOL_VERSION}"
            )
        master_nonce = welcome.get("nonce")
        if not _auth_ok(secret, b"join-master", nonce, master_nonce, welcome.get("auth")):
            raise RPCAuthError(f"master at {host}:{port} failed shared-secret authentication")
        send_message(
            sock,
            {
                "op": "hello",
                "version": PROTOCOL_VERSION,
                "digests": cache.digests(),
                "auth": _auth_tag(secret, b"join-worker", nonce, master_nonce),
            },
        )
        _worker_log.info("joined_master", master=f"{host}:{port}")
        if on_joined is not None:
            on_joined(host, port)
        try:
            _serve_ops(sock, cache, task_delay)
        except Exception as exc:
            # Surface mid-run failures instead of exiting "successfully":
            # a supervisor restarting on non-zero exit must see this.
            raise RPCError(f"connection to master at {host}:{port} failed: {exc}") from exc


# --------------------------------------------------------------------------- #
# Master side
# --------------------------------------------------------------------------- #
class _Node:
    """One master→worker connection with lazy attach and failure latching."""

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float,
        io_timeout: float | None,
        secret: bytes,
        *,
        sock: socket.socket | None = None,
        joined: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.secret = secret
        self.sock = sock
        self.joined = joined
        self.dead = False
        self.auth_failed = False
        self.last_error: str | None = None
        self.attached_digest: str | None = None
        self.snapshots_shipped = 0
        self.tasks_executed = 0
        self.tasks_stolen = 0
        #: Reply ids sent but no longer awaited (their slot was completed by
        #: another node while this one lagged); discarded on arrival so a
        #: slow-but-alive node re-synchronises instead of desyncing the
        #: stream.
        self.abandoned: set[int] = set()
        self._next_id = 0
        self._send_meter = _frame_meter("sent", self.address)
        self._recv_meter = _frame_meter("received", self.address)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def mark_dead(self, error: Exception | str) -> None:
        was_live = not self.dead
        self.dead = True
        self.last_error = str(error)
        sock, self.sock = self.sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close failures are moot
                pass
        if was_live:
            obs_metrics.counter("rpc_node_drops_total", node=self.address).inc()
            _master_log.warning("node_drop", address=self.address, error=self.last_error)

    def _request(self, message: dict) -> dict:
        assert self.sock is not None
        send_message(self.sock, message, self._send_meter)
        while True:
            reply = recv_message(self.sock, meter=self._recv_meter)
            if reply is None:
                raise RPCError(f"node {self.address} closed the connection")
            if not isinstance(reply, dict):
                raise RPCError(f"node {self.address} sent a non-dict reply")
            reply_id = reply.get("id")
            if reply_id in self.abandoned and reply.get("op") in ("result", "error"):
                # A task reply this side stopped waiting for (its slot was
                # completed elsewhere) arriving ahead of our request's
                # answer — e.g. an attach after a re-bind.  Skip it; the
                # real reply is behind it on the FIFO stream.
                self.abandoned.discard(reply_id)
                continue
            return reply

    def _connect(self) -> None:
        started = time.perf_counter()
        sock = socket.create_connection((self.host, self.port), timeout=self.connect_timeout)
        # The handshake runs under the short connect deadline — a silent or
        # non-protocol listener is latched dead in seconds, not after the
        # generous post-auth io deadline.
        sock.settimeout(self.connect_timeout)
        self.sock = sock
        self.attached_digest = None
        self.abandoned.clear()
        self._next_id = 0
        challenge = recv_message(sock, limit=MAX_HANDSHAKE_BYTES, meter=self._recv_meter)
        if not isinstance(challenge, dict) or challenge.get("op") != "challenge":
            raise RPCError(f"node {self.address} spoke {challenge!r}, expected a challenge")
        if challenge.get("version") != PROTOCOL_VERSION:
            raise RPCError(
                f"node {self.address} speaks protocol v{challenge.get('version')!r}, "
                f"this master speaks v{PROTOCOL_VERSION}"
            )
        nonce = challenge.get("nonce")
        if not isinstance(nonce, bytes):
            raise RPCError(f"node {self.address} sent a malformed challenge")
        my_nonce = os.urandom(_NONCE_BYTES)
        send_message(
            sock,
            {
                "op": "hello",
                "version": PROTOCOL_VERSION,
                "auth": _auth_tag(self.secret, b"listen-master", nonce, my_nonce),
                "nonce": my_nonce,
            },
            self._send_meter,
        )
        hello = recv_message(sock, limit=MAX_HANDSHAKE_BYTES, meter=self._recv_meter)
        if hello is None:
            raise RPCError(f"node {self.address} closed during the handshake")
        if isinstance(hello, dict) and hello.get("op") == "auth_error":
            self.auth_failed = True
            _master_log.warning("auth_failed", address=self.address, direction="ours-rejected")
            raise RPCAuthError(f"node {self.address} rejected our shared secret")
        if not isinstance(hello, dict) or hello.get("op") != "hello":
            raise RPCError(f"node {self.address} spoke {hello!r}, expected hello")
        if not _auth_ok(self.secret, b"listen-worker", nonce, my_nonce, hello.get("auth")):
            self.auth_failed = True
            _master_log.warning("auth_failed", address=self.address, direction="theirs-rejected")
            raise RPCAuthError(f"node {self.address} failed shared-secret authentication")
        # Authenticated: switch to the per-operation io deadline — it bounds
        # one snapshot transfer or one shard round, so a wedged node times
        # out, is latched dead and has its tasks reassigned.
        sock.settimeout(self.io_timeout)
        duration = time.perf_counter() - started
        obs_metrics.histogram("rpc_handshake_seconds", node=self.address).observe(duration)
        _master_log.info("handshake_ok", address=self.address, duration=round(duration, 6))

    def ensure_ready(self, digest: str, package_bytes) -> None:
        """Connect, handshake and attach the node to ``digest`` (idempotent)."""
        if self.dead:
            raise RPCError(f"node {self.address} is dead: {self.last_error}")
        if self.sock is None:
            if self.joined:
                # A joined node dialed us; once its connection is gone there
                # is no address to call back.
                raise RPCError(f"joined node {self.address} disconnected")
            self._connect()
        if self.attached_digest == digest:
            return
        reply = self._request({"op": "attach", "digest": digest})
        if reply.get("op") == "need_snapshot":
            put = self._request({"op": "put_snapshot", "digest": digest, "arrays": package_bytes()})
            if put.get("op") != "ok":
                raise RPCError(f"node {self.address} rejected the snapshot: {put!r}")
            self.snapshots_shipped += 1
            reply = self._request({"op": "attach", "digest": digest})
        if reply.get("op") != "ok":
            raise RPCError(f"node {self.address} failed to attach {digest}: {reply!r}")
        self.attached_digest = digest

    # ------------------------------------------------------------------ #
    # Pipelined task exchange
    # ------------------------------------------------------------------ #
    def send_task(self, task: ShardTask) -> int:
        """Send one task without waiting; returns the reply id to match."""
        assert self.sock is not None
        task_id = self._next_id
        self._next_id += 1
        send_message(self.sock, {"op": "task", "id": task_id, "task": task}, self._send_meter)
        return task_id

    def recv_reply(self, bail):
        """Receive one task reply (or :data:`_BAILED` between frames)."""
        assert self.sock is not None
        reply = _recv_message_bail(self.sock, bail, self.io_timeout, meter=self._recv_meter)
        if reply is _BAILED:
            return _BAILED
        if reply is None:
            raise RPCError(f"node {self.address} closed the connection")
        if not isinstance(reply, dict):
            raise RPCError(f"node {self.address} sent a non-dict reply")
        return reply

    def close(self) -> None:
        """Release the connection.  Idempotent; never raises.

        Tolerates every shutdown race — a node that died right after its
        last result, a peer that resets while the goodbye is in flight, a
        socket already torn down by :meth:`mark_dead`.
        """
        sock, self.sock = self.sock, None
        self.attached_digest = None
        self.abandoned.clear()
        if sock is None:
            return
        try:
            sock.sendall(encode_message({"op": "shutdown"}))
        except Exception:
            pass
        try:
            sock.close()
        except Exception:
            pass


class SocketRPCTransport(ShardTransport):
    """Execute shard tasks on remote worker nodes over loopback/LAN TCP.

    Parameters
    ----------
    nodes:
        Worker addresses — ``"host:port"`` strings or ``(host, port)``
        pairs, each one a running ``repro worker --listen`` process.  May be
        empty when ``join_address`` is given (the run then waits up to
        ``connect_timeout`` for the first joiner).
    secret:
        Shared authentication secret (bytes or str; ``None`` means the
        empty secret).  Must match the workers' ``--secret-file`` contents —
        a mismatch on either side is an :class:`RPCAuthError` before any
        task bytes are exchanged.
    window:
        Maximum tasks in flight per node.  ``1`` reproduces the historical
        synchronous request/response behaviour; larger windows hide the
        network round-trip behind worker compute.  Never part of a run's
        random-stream identity: results are slotted by task index, so every
        window size yields bit-identical trajectories.
    connect_timeout:
        Seconds to wait for a node's TCP connect before declaring it dead
        (also the grace period spent waiting for a first joiner when no
        configured node survives).
    io_timeout:
        Per-operation socket deadline (seconds).  A node that stops
        responding without closing the connection — pulled cable, firewall
        drop, wedged process — trips this, is latched dead and has its
        tasks reassigned.  Generous by default (it bounds one snapshot
        transfer or one shard round, not the whole run); ``None`` disables
        the deadline.
    join_address:
        ``"host:port"`` to accept late-joining ``repro worker --join``
        registrations on (``port 0`` picks one; read it back from
        :attr:`join_address`).  Joins are adopted at round boundaries:
        the joiner is handshaken, attached (receiving the CSR package if it
        lacks the digest) and handed work in the next round.

    Failure handling: a node that drops mid-round (connection reset, kill
    -9, network partition) is latched dead and its in-flight plus queued
    tasks are drained by the surviving nodes; an idle node steals the tasks
    stuck in a slow node's window and whichever execution finishes first is
    used.  Tasks are pure functions of ``(task, CSR index)`` — each carries
    the exact per-shard generator state it must resume from — so any
    reassignment or duplicate execution is bit-identical and the run's
    determinism contract survives every drop/steal pattern.  Only when *no*
    node survives does :meth:`execute` raise :class:`RPCError`
    (:class:`RPCAuthError` when authentication was the cause).
    """

    kind = "rpc"

    def __init__(
        self,
        nodes=(),
        *,
        secret: bytes | str | None = None,
        window: int = 4,
        connect_timeout: float = 10.0,
        io_timeout: float | None = 600.0,
        join_address: str | tuple[str, int] | None = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        addresses = [parse_node_address(node) for node in nodes]
        self._secret = _normalise_secret(secret)
        self.window = int(window)
        self._connect_timeout = connect_timeout
        self._io_timeout = io_timeout
        self._join_server: socket.socket | None = None
        self._bound_join_address: tuple[str, int] | None = None
        if join_address is not None:
            host, port = parse_node_address(join_address)
            server = socket.create_server((host, port))
            server.settimeout(0)  # non-blocking accepts, polled between rounds
            self._join_server = server
            self._bound_join_address = server.getsockname()[:2]
        if not addresses and self._join_server is None:
            raise ValueError(
                "SocketRPCTransport requires at least one node address or a join_address"
            )
        self._nodes = [
            _Node(host, port, connect_timeout, io_timeout, self._secret)
            for host, port in addresses
        ]
        self._digest: str | None = None
        self._package: dict[str, bytes] | None = None
        self._lock = threading.Lock()

    @property
    def default_shards(self) -> int | None:
        """Natural shard count: one shard per configured node."""
        return len(self._nodes) or None

    @property
    def join_address(self) -> str | None:
        """Bound registration listener address (``None`` when not accepting)."""
        if self._bound_join_address is None:
            return None
        host, port = self._bound_join_address
        return f"{host}:{port}"

    # ------------------------------------------------------------------ #
    # Binding and snapshot packaging
    # ------------------------------------------------------------------ #
    def bind(self, offsets, positions) -> None:
        """Attach to a CSR index; nodes catch up lazily by content address."""
        super().bind(offsets, positions)
        self._digest = None
        self._package = None

    @property
    def digest(self) -> str:
        """Content address of the bound CSR index (computed lazily, once)."""
        if self._digest is None:
            self._digest = csr_digest(self._offsets, self._positions)
        return self._digest

    def _package_bytes(self) -> dict[str, bytes]:
        # Packed lazily and released after every round that readied nodes;
        # a late joiner that lacks the digest simply re-packs once.
        if self._package is None:
            self._package = pack_csr(self._offsets, self._positions)
        return self._package

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    def _adopt_joiner(self, conn: socket.socket, peer) -> _Node:
        """Handshake a dialed-in worker and wrap it as a ready node."""
        conn.settimeout(self._connect_timeout)
        join = recv_message(conn, limit=MAX_HANDSHAKE_BYTES)
        if not isinstance(join, dict) or join.get("op") != "join":
            raise RPCError(f"joiner {peer!r} spoke {join!r}, expected a join")
        if join.get("version") != PROTOCOL_VERSION:
            raise RPCError(f"joiner {peer!r} speaks protocol v{join.get('version')!r}")
        nonce = join.get("nonce")
        if not isinstance(nonce, bytes):
            raise RPCError(f"joiner {peer!r} sent a malformed join")
        my_nonce = os.urandom(_NONCE_BYTES)
        send_message(
            conn,
            {
                "op": "welcome",
                "version": PROTOCOL_VERSION,
                "auth": _auth_tag(self._secret, b"join-master", nonce, my_nonce),
                "nonce": my_nonce,
            },
        )
        hello = recv_message(conn, limit=MAX_HANDSHAKE_BYTES)
        if not isinstance(hello, dict) or hello.get("op") != "hello":
            raise RPCError(f"joiner {peer!r} spoke {hello!r}, expected hello")
        if not _auth_ok(self._secret, b"join-worker", nonce, my_nonce, hello.get("auth")):
            try:
                send_message(
                    conn, {"op": "auth_error", "message": "shared-secret authentication failed"}
                )
            except Exception:
                pass
            raise RPCAuthError(f"joiner {peer!r} failed shared-secret authentication")
        conn.settimeout(self._io_timeout)
        host, port = (str(peer[0]), int(peer[1])) if isinstance(peer, tuple) else (str(peer), 0)
        return _Node(
            host,
            port,
            self._connect_timeout,
            self._io_timeout,
            self._secret,
            sock=conn,
            joined=True,
        )

    def _accept_joins(self) -> None:
        """Adopt any workers queued on the registration listener."""
        server = self._join_server
        if server is None:
            return
        while True:
            try:
                conn, peer = server.accept()
            except (BlockingIOError, TimeoutError):
                return
            except OSError:
                return
            try:
                node = self._adopt_joiner(conn, peer)
            except Exception:
                # A bad joiner (wrong secret, garbage, half-open) never
                # poisons the run; drop it and keep accepting.
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            self._nodes.append(node)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _ready_nodes(self) -> list[_Node]:
        self._accept_joins()
        ready = []
        for node in self._nodes:
            if node.dead:
                continue
            try:
                node.ensure_ready(self.digest, self._package_bytes)
            except (OSError, RPCError) as exc:
                node.mark_dead(exc)
                continue
            ready.append(node)
        # Every surviving node now holds the digest, so the packed payload is
        # dead weight — release it rather than doubling the master's resident
        # CSR footprint (a late joiner triggers one lazy re-pack).
        if ready:
            self._package = None
        return ready

    def _raise_no_nodes(self) -> None:
        errors = "; ".join(f"{node.address}: {node.last_error}" for node in self._nodes)
        if any(node.auth_failed for node in self._nodes):
            raise RPCAuthError(f"no worker node accepted our shared secret ({errors})")
        raise RPCError(f"no live worker nodes remain ({errors})")

    def execute(self, tasks: list[ShardTask]) -> list[ShardResult]:
        """Stream one round's tasks across the fleet; results in task order.

        Each live node drains its own in-flight window on a dedicated
        thread; dropped nodes' unacknowledged tasks are requeued for the
        survivors, and idle nodes steal slots stuck in slow nodes'
        windows — always bit-identical, whoever executes.
        """
        results: list[ShardResult | None] = [None] * len(tasks)
        pending: deque[int] = deque(range(len(tasks)))
        queued: set[int] = set(pending)
        #: slot -> nodes currently executing it (in flight), master-side.
        owners: dict[int, set[_Node]] = {}
        task_errors: list[RPCTaskError] = []
        lock = self._lock

        def release(node: _Node, slot: int) -> None:
            holders = owners.get(slot)
            if holders is not None:
                holders.discard(node)
                if not holders:
                    owners.pop(slot, None)

        def requeue(node: _Node, slots) -> None:
            """Hand a node's unfinished slots back to the shared queue (lock held)."""
            for slot in slots:
                release(node, slot)
                if results[slot] is None and slot not in queued:
                    pending.append(slot)
                    queued.add(slot)

        def drain(node: _Node) -> None:
            inflight: dict[int, int] = {}  # reply id -> slot
            to_send: list[int] = []  # slots claimed but not yet on the wire

            def bail() -> bool:
                with lock:
                    if task_errors:
                        return True
                    return all(results[slot] is not None for slot in inflight.values())

            try:
                while True:
                    to_send = []
                    with lock:
                        if task_errors:
                            node.abandoned.update(inflight.keys())
                            requeue(node, inflight.values())
                            inflight.clear()
                            return
                        while len(inflight) + len(to_send) < self.window and pending:
                            slot = pending.popleft()
                            queued.discard(slot)
                            if results[slot] is None:
                                to_send.append(slot)
                        if not inflight and not to_send:
                            # Idle with nothing queued: steal a task stuck in
                            # another node's window.  Re-execution is safe —
                            # results are pure functions of the task — and
                            # whichever copy lands first fills the slot.
                            stolen = next(
                                (
                                    slot
                                    for slot, holders in owners.items()
                                    if results[slot] is None and node not in holders
                                ),
                                None,
                            )
                            if stolen is None:
                                return
                            to_send.append(stolen)
                            node.tasks_stolen += 1
                            obs_metrics.counter("rpc_tasks_stolen_total", node=node.address).inc()
                            _master_log.debug("task_stolen", address=node.address, slot=stolen)
                        for slot in to_send:
                            owners.setdefault(slot, set()).add(node)
                    while to_send:
                        slot = to_send[0]
                        inflight[node.send_task(tasks[slot])] = slot
                        to_send.pop(0)
                    obs_metrics.gauge("rpc_inflight_window", node=node.address).set(len(inflight))
                    if not inflight:
                        continue
                    reply = node.recv_reply(bail)
                    if reply is _BAILED:
                        # Everything this node still owes was completed
                        # elsewhere; stop waiting, discard the replies when
                        # they eventually arrive, and look for new work.
                        with lock:
                            node.abandoned.update(inflight.keys())
                            for slot in inflight.values():
                                release(node, slot)
                        inflight.clear()
                        continue
                    op = reply.get("op")
                    reply_id = reply.get("id")
                    if reply_id in node.abandoned and op in ("result", "error"):
                        node.abandoned.discard(reply_id)
                        continue  # stale reply from an abandoned exchange
                    if op == "result":
                        if reply_id not in inflight:
                            raise RPCError(
                                f"node {node.address} replied for unknown task id {reply_id!r}"
                            )
                        slot = inflight.pop(reply_id)
                        result = reply.get("result")
                        if not isinstance(result, ShardResult):
                            raise RPCError(f"node {node.address} returned a malformed result")
                        node.tasks_executed += 1
                        obs_metrics.histogram(
                            "rpc_task_service_seconds", node=node.address
                        ).observe(result.elapsed)
                        obs_metrics.gauge("rpc_inflight_window", node=node.address).set(
                            len(inflight)
                        )
                        with lock:
                            release(node, slot)
                            if results[slot] is None:
                                results[slot] = result
                    elif op == "error":
                        if reply_id not in inflight:
                            raise RPCError(
                                f"node {node.address} errored for unknown task id {reply_id!r}"
                            )
                        slot = inflight.pop(reply_id)
                        node.abandoned.update(inflight.keys())
                        with lock:
                            release(node, slot)
                            task_errors.append(
                                RPCTaskError(f"node {node.address}: {reply.get('message')}")
                            )
                            requeue(node, inflight.values())
                        inflight.clear()
                        return
                    else:
                        raise RPCError(f"node {node.address} sent {op!r} instead of a task reply")
            except Exception as exc:
                # Connection drop, deadline, malformed/undecodable reply: all
                # count as a failed *node* — latch it dead, requeue its
                # unfinished tasks (in flight *and* claimed-but-unsent) for
                # the survivors, stop draining.  Nothing may leak a task (a
                # None result would corrupt the merge).
                node.mark_dead(exc)
                with lock:
                    requeue(node, list(inflight.values()) + to_send)
                inflight.clear()

        while not task_errors and any(result is None for result in results):
            nodes = self._ready_nodes()
            if not nodes and self._join_server is not None:
                # Elastic grace: with a registration listener open, wait for
                # a first (or replacement) joiner before giving up.
                deadline = time.monotonic() + self._connect_timeout
                while not nodes and time.monotonic() < deadline:
                    time.sleep(0.1)
                    nodes = self._ready_nodes()
            if not nodes:
                self._raise_no_nodes()
            threads = [
                threading.Thread(target=drain, args=(node,), daemon=True) for node in nodes
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if task_errors:
            raise task_errors[0]
        if any(result is None for result in results):  # pragma: no cover - guard
            raise RPCError("transport lost a task without raising; refusing to merge")
        return results  # type: ignore[return-value]

    def close(self) -> None:
        """Release all node connections and the join listener.

        Idempotent and race-tolerant: nodes that died after their last
        result, sockets already reset by the peer, or a second close() are
        all no-ops.  Listen-mode nodes can be re-connected by a later
        :meth:`bind`/:meth:`execute`; the join listener is gone for good.
        """
        for node in self._nodes:
            node.close()
        server, self._join_server = self._join_server, None
        if server is not None:
            try:
                server.close()
            except Exception:
                pass

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Per-transport counters (shipping, execution, stealing, health)."""
        return {
            "nodes": [
                {
                    "address": node.address,
                    "dead": node.dead,
                    "joined": node.joined,
                    "auth_failed": node.auth_failed,
                    "snapshots_shipped": node.snapshots_shipped,
                    "tasks_executed": node.tasks_executed,
                    "tasks_stolen": node.tasks_stolen,
                }
                for node in self._nodes
            ],
            "snapshots_shipped": sum(n.snapshots_shipped for n in self._nodes),
            "live_nodes": sum(not n.dead for n in self._nodes),
            "tasks_stolen": sum(n.tasks_stolen for n in self._nodes),
            "window": self.window,
            "join_address": self.join_address,
        }

"""The federation coordinator: lease API + corpus relay over sockets.

One coordinator serves N fuzzing nodes a round-based (BSP) protocol
whose observable schedule is *identical* to the inline stealing loop in
:meth:`repro.parallel.campaign.ParallelCampaign._run_inline_stealing`:

round ``r`` (every node, in lockstep)
    1. ``claim(r)`` — a **barrier**: the coordinator waits for every
       member, then grants leases in node-index order through
       :meth:`FileLeaseBoard.claim_once` (exactly the order the inline
       loop claims in). If the board is finished at barrier release,
       every member is told ``drained`` instead — the inline loop's
       ``while not board.drained()`` check.
    2. nodes holding a lease run it, ``push`` their fresh corpus
       records (idempotent, offset-based), and ``complete`` the lease.
    3. ``fetch(r)`` — the second barrier: released only once every
       member has arrived, which guarantees every member's round-``r``
       records are in the relay. Responses carry, per partner in index
       order, the records past the requester's consumed offsets — the
       same records, in the same order, that
       :meth:`SyncDirectory.import_new` would have read off disk.

Fault tolerance (DESIGN.md §14):

* **At-least-once delivery, exactly-once apply.** Every request is
  idempotent: claims are keyed ``"round:node"`` and persisted in the
  board transaction that carves them (:meth:`FileLeaseBoard.claim_once`),
  completes tolerate replay, pushes carry a base offset and are
  deduplicated against the relay manifest, fetches for released rounds
  are recomputed from the relay (which provably contains exactly rounds
  ``<= r`` — a node cannot push round ``r+1`` records before its
  ``claim(r+1)`` grant, which needs the full barrier).
* **Crash/restart.** Everything that matters survives on disk: the
  board (+ grants), the relay queues, ``coord.json`` (fetch round,
  drained round, byes, expiries), the node reports. ``kill_coordinator``
  faults exercise exactly this path: all connections are dropped, all
  in-memory state is discarded, and the persisted state is reloaded;
  nodes reconnect with backoff and resend.
* **Liveness.** Nodes heartbeat; a member silent past ``node_ttl`` is
  expired — its unfinished leases are reclaimed for re-issue and it is
  removed from barrier membership (persisted, so a restart does not
  resurrect it). An expired node that comes back is retired politely:
  its pushes and report are still accepted (zero record loss), but it
  gets no further leases.

Barriers wait on persistent **membership** (all nodes minus byes minus
expiries), never on the currently-connected set: releasing a barrier
with partial membership would grant leases in a different order and
change the campaign fingerprint.
"""

from __future__ import annotations

import json
import logging
import pickle
import selectors
import socket
import threading
import time
from pathlib import Path

from repro import faults, telemetry
from repro.coverage import delta
from repro.coverage.bitmap import MAP_SIZE
from repro.fuzzer.crashes import atomic_write_bytes
from repro.parallel import wire
from repro.parallel.transport import frames

log = logging.getLogger("repro.parallel.transport")


class TransportError(RuntimeError):
    """The federation transport failed past its retry budget."""


def _state_problem(state: dict) -> str | None:
    """The first ``coord.json`` key whose value has the wrong type, or
    None when every key the coordinator reads is usable."""
    for key in ("fetch_round", "assigned"):
        if not isinstance(state[key], int):
            return key
    if not isinstance(state["drained_round"], (int, type(None))):
        return "drained_round"
    for key in ("byed", "expired"):
        if not (isinstance(state[key], list)
                and all(isinstance(node, int) for node in state[key])):
            return key
    coverage = state["coverage"]
    if not (isinstance(coverage, dict) and all(
            isinstance(mark, list) and len(mark) == 3
            and all(isinstance(x, int) for x in mark)
            for mark in coverage.values())):
        return "coverage"
    return None


# --- addresses -------------------------------------------------------------


def parse_address(text: str) -> tuple:
    """``unix:/path`` or ``host:port`` into an address tuple."""
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise ValueError(f"bad transport address {text!r} "
                             f"(unix: needs a socket path)")
        return ("unix", path)
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"bad transport address {text!r} (want host:port or unix:/path)")
    return ("tcp", host or "127.0.0.1", int(port))


def format_address(address: tuple) -> str:
    if address[0] == "unix":
        return f"unix:{address[1]}"
    return f"{address[1]}:{address[2]}"


#: AF_UNIX sun_path is ~104-108 bytes on the platforms we run on;
#: anything close is routed to TCP instead of failing at bind time.
_UNIX_PATH_MAX = 100


def default_local_address(root: Path) -> tuple:
    """The default federation endpoint for a campaign rooted at *root*.

    AF_UNIX under the sync root when the platform has it and the path
    fits the ``sun_path`` limit (sandboxed CI often blocks loopback
    TCP); an ephemeral loopback TCP port otherwise.
    """
    path = Path(root) / "coord.sock"
    if hasattr(socket, "AF_UNIX") and len(str(path)) <= _UNIX_PATH_MAX:
        return ("unix", str(path))
    return ("tcp", "127.0.0.1", 0)


def make_listener(address: tuple) -> tuple[socket.socket, tuple]:
    """Bound + listening server socket; returns it with the resolved
    address (TCP port 0 comes back as the actual port)."""
    if address[0] == "unix":
        path = Path(address[1])
        path.unlink(missing_ok=True)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(str(path))
        resolved = address
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((address[1], address[2]))
        resolved = ("tcp", address[1], sock.getsockname()[1])
    sock.listen(16)
    return sock, resolved


def connect_socket(address: tuple, timeout: float) -> socket.socket:
    if address[0] == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(address[1])
    else:
        sock = socket.create_connection((address[1], address[2]),
                                        timeout=timeout)
    return sock


# --- connection bookkeeping ------------------------------------------------


class _Conn:
    """One accepted client connection."""

    __slots__ = ("sock", "decoder", "out", "node")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.decoder = frames.FrameDecoder()
        self.out = bytearray()
        self.node: int | None = None


class Coordinator:
    """Single-threaded federation server over one ``selectors`` loop.

    Single-threaded on purpose: every message is handled to completion
    before the next, so barrier releases, board transactions, and relay
    appends never interleave — the concurrency story is the protocol's,
    not the implementation's.
    """

    RELAY = "relay"
    REPORTS = "reports"
    STATE = "coord.json"
    #: Per-node virgin-map mirror inside the node's relay directory,
    #: reconstructed from its pushed NCD1 deltas (DESIGN.md §15).
    VIRGIN = "virgin.bin"

    def __init__(self, root: Path, board, workers: int, *,
                 node_ttl: float = 300.0,
                 fault_plan: faults.FaultPlan | None = None,
                 config_payload: bytes | None = None,
                 auto_stop: bool = False) -> None:
        self.root = Path(root)
        self.board = board
        self.workers = workers
        self.node_ttl = node_ttl
        self.fault_plan = fault_plan
        #: Pickled node config served to externally launched nodes
        #: (``repro --node``) in the hello reply.
        self.config_payload = config_payload
        #: Leave the serve loop once every member has byed or expired
        #: (the ``repro --coordinator`` mode; in-process campaigns stop
        #: explicitly).
        self.auto_stop = auto_stop
        self.relay_root = self.root / self.RELAY
        self.reports_dir = self.root / self.REPORTS
        self.state_path = self.root / self.STATE
        self.address: tuple | None = None
        self.error: BaseException | None = None
        self._events = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._listener: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._conns: dict[socket.socket, _Conn] = {}
        self._last_seen: dict[int, float] = {}
        #: round -> {node: (conn, seq, rate)} for buffered claims.
        self._claim_waits: dict[int, dict[int, tuple]] = {}
        #: round -> {node: (conn, seq, offsets)} for buffered fetches.
        self._fetch_waits: dict[int, dict[int, tuple]] = {}
        #: node -> (manifest entries, queue.idx bytes parsed): the relay
        #: manifests are append-only, so fetches past round 0 read only
        #: the fresh tail instead of re-parsing from byte 0 every RPC.
        self._manifests: dict[int, tuple[list, int]] = {}
        #: node -> mirrored virgin bits (lazily loaded from VIRGIN).
        self._virgin_cache: dict[int, bytearray] = {}
        self._state = self._load_state()

    # --- persistent state ---------------------------------------------------

    def _default_state(self) -> dict:
        return {"fetch_round": -1, "drained_round": None,
                "byed": [], "expired": [], "assigned": 0,
                #: str(node) -> [generation, delta_round, line_universe]
                #: watermarks for the mirrored virgin maps.
                "coverage": {}}

    def _load_state(self) -> dict:
        if not self.state_path.exists():
            return self._default_state()
        try:
            state = json.loads(self.state_path.read_text())
        except (OSError, ValueError) as exc:
            raise TransportError(
                f"coordinator state {self.state_path} is unreadable or "
                f"corrupt ({exc}); a fresh campaign must recreate it"
            ) from exc
        merged = self._default_state()
        bad = type(state).__name__
        if isinstance(state, dict):
            merged.update(state)
            bad = _state_problem(merged)
        if bad is not None:
            raise TransportError(
                f"coordinator state {self.state_path} has unexpected shape "
                f"({bad}); a fresh campaign must recreate it")
        return merged

    def _persist(self) -> None:
        atomic_write_bytes(
            self.state_path,
            json.dumps(self._state, sort_keys=True).encode())

    def membership(self) -> set[int]:
        """The nodes barriers wait on: everyone minus byes and expiries."""
        return (set(range(self.workers))
                - set(self._state["byed"]) - set(self._state["expired"]))

    # --- lifecycle ----------------------------------------------------------

    def start(self, address: tuple) -> tuple:
        """Bind, spawn the serve thread, return the resolved address."""
        self._listener, self.address = make_listener(address)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        now = time.monotonic()
        for node in range(self.workers):
            self._last_seen.setdefault(node, now)
        self._thread = threading.Thread(
            target=self._serve, daemon=True, name="necofuzz-coordinator")
        self._thread.start()
        return self.address

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        self._teardown()

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def _teardown(self) -> None:
        for sock in list(self._conns):
            self._drop_conn(sock)
        if self._listener is not None:
            try:
                if self._selector is not None:
                    self._selector.unregister(self._listener)
            except (KeyError, ValueError):
                pass
            self._listener.close()
            self._listener = None
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        if self.address is not None and self.address[0] == "unix":
            Path(self.address[1]).unlink(missing_ok=True)

    def _serve(self) -> None:
        try:
            while not self._stop.is_set():
                events = self._selector.select(timeout=0.05)
                for key, mask in events:
                    if key.fileobj is self._listener:
                        self._accept()
                        continue
                    conn = key.data
                    if mask & selectors.EVENT_READ:
                        self._readable(conn)
                    if (mask & selectors.EVENT_WRITE
                            and conn.sock in self._conns):
                        self._writable(conn)
                self._check_expiry()
                if (self.auto_stop and not self.membership()
                        and not any(c.out for c in self._conns.values())):
                    break
        except BaseException as exc:  # surfaced by the owning campaign
            self.error = exc
            log.exception("coordinator died: %s", exc)

    # --- socket plumbing ----------------------------------------------------

    def _accept(self) -> None:
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        conn = _Conn(sock)
        self._conns[sock] = conn
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _drop_conn(self, sock: socket.socket) -> None:
        self._conns.pop(sock, None)
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _readable(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            self._drop_conn(conn.sock)
            return
        if not data:
            self._drop_conn(conn.sock)
            return
        try:
            received = conn.decoder.feed(data)
        except frames.FrameError as exc:
            # A corrupt link has no trustworthy stream position left:
            # drop the connection and let the sender reconnect + resend.
            telemetry.counter("net.decode_errors")
            log.warning("dropping connection after frame error: %s", exc)
            self._drop_conn(conn.sock)
            return
        for ftype, payload in received:
            telemetry.counter("net.frames_received")
            try:
                self._handle(conn, ftype, payload)
            except frames.FrameError as exc:
                telemetry.counter("net.decode_errors")
                log.warning("dropping connection after bad message: %s", exc)
                self._drop_conn(conn.sock)
                return
            if conn.sock not in self._conns:
                return  # the handler crashed the coordinator / dropped us

    def _writable(self, conn: _Conn) -> None:
        if not conn.out:
            self._selector.modify(conn.sock, selectors.EVENT_READ, conn)
            return
        try:
            sent = conn.sock.send(bytes(conn.out))
        except BlockingIOError:
            return
        except OSError:
            self._drop_conn(conn.sock)
            return
        del conn.out[:sent]
        if not conn.out:
            self._selector.modify(conn.sock, selectors.EVENT_READ, conn)

    def _queue_send(self, conn: _Conn, data: bytes) -> None:
        """Buffer *data* on *conn*; silently skipped for dead
        connections (the peer's resend path recovers the reply)."""
        if conn.sock not in self._conns:
            return
        conn.out += data
        self._selector.modify(
            conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn)

    # --- message dispatch ---------------------------------------------------

    def _handle(self, conn: _Conn, ftype: int, payload: bytes) -> None:
        if ftype in (frames.FT_BLOB, frames.FT_DELTA):
            msg, raw = frames.split_blob(payload)
        else:
            msg, raw = frames.parse_ctrl(payload), b""
        op = msg.get("op")
        node = msg.get("node")
        if isinstance(node, int):
            self._last_seen[node] = time.monotonic()
            conn.node = node
        if op == "hb":
            return  # liveness only; not a protocol event
        self._events += 1
        plan = self.fault_plan if self.fault_plan is not None \
            else faults.active()
        if plan is not None:
            spec = plan.take_coordinator_fault(self._events)
            if spec is not None:
                plan.record("kill_coordinator", None,
                            f"event {self._events} ({op})")
                self._crash()
                return  # the triggering message dies with the crash
        handler = getattr(self, f"_on_{op}", None)
        if handler is None:
            raise frames.FrameError(f"unknown op {op!r}")
        handler(conn, msg, raw)

    def _crash(self) -> None:
        """Simulated abrupt coordinator death + restart.

        Everything in memory is discarded — connections, decoders,
        buffered barrier waits — and the persisted state reloaded,
        exactly what a fresh coordinator process starting over the same
        campaign root would see. Liveness clocks restart so a partition
        during the outage is not immediately punished as an expiry.
        """
        log.warning("injected coordinator crash at event %d", self._events)
        for sock in list(self._conns):
            self._drop_conn(sock)
        self._claim_waits.clear()
        self._fetch_waits.clear()
        self._manifests.clear()
        self._virgin_cache.clear()
        self._state = self._load_state()
        now = time.monotonic()
        for node in range(self.workers):
            self._last_seen[node] = now
        telemetry.counter("net.coordinator_restarts")

    # --- liveness -----------------------------------------------------------

    def _check_expiry(self) -> None:
        if self.node_ttl <= 0:
            return
        now = time.monotonic()
        expired = [node for node in sorted(self.membership())
                   if now - self._last_seen.get(node, now) > self.node_ttl]
        for node in expired:
            reclaimed = self.board.reclaim(node)
            self._state["expired"].append(node)
            self._persist()
            telemetry.counter("net.node_expiries")
            if reclaimed:
                telemetry.counter("net.lease_expiries", reclaimed)
            log.warning("node %d expired after %.1fs of silence; "
                        "%d lease(s) reclaimed for re-issue",
                        node, self.node_ttl, reclaimed)
        if expired:
            self._reevaluate_barriers()

    def _reevaluate_barriers(self) -> None:
        for rnd in sorted(self._claim_waits):
            self._maybe_release_claim(rnd)
        for rnd in sorted(self._fetch_waits):
            self._maybe_release_fetch(rnd)

    # --- handlers -----------------------------------------------------------

    def _on_hello(self, conn: _Conn, msg: dict, raw: bytes) -> None:
        node = msg.get("node")
        if node is None:
            # Externally launched node: assign the next index and ship
            # the campaign config.
            node = self._state["assigned"]
            if node >= self.workers:
                self._queue_send(conn, frames.pack_ctrl(
                    {"op": "hello_ok", "seq": msg["seq"], "node": -1,
                     "status": "full"}))
                return
            self._state["assigned"] = node + 1
            self._persist()
            conn.node = node
            self._last_seen[node] = time.monotonic()
        status = "ok"
        if node in self._state["expired"]:
            status = "expired"
        elif node in self._state["byed"]:
            status = "retired"
        reply = {"op": "hello_ok", "seq": msg["seq"], "node": node,
                 "status": status, "workers": self.workers}
        if self.config_payload is not None and msg.get("want_config"):
            self._queue_send(conn,
                             frames.pack_blob(reply, self.config_payload))
        else:
            self._queue_send(conn, frames.pack_ctrl(reply))

    def _on_claim(self, conn: _Conn, msg: dict, raw: bytes) -> None:
        node, rnd = msg["node"], msg["round"]
        key = f"{rnd}:{node}"
        recorded, lease = self.board.recorded_grant(key)
        if recorded:
            # Barrier already released (the reply was lost, or we
            # restarted): serve the persisted outcome.
            self._send_claim_reply(conn, msg["seq"], rnd, lease=lease)
            return
        drained_round = self._state["drained_round"]
        if drained_round is not None and rnd >= drained_round:
            self._send_claim_reply(conn, msg["seq"], rnd, drained=True)
            return
        # Patient resends legitimately replace the buffered entry
        # (fresher connection + seq).
        self._claim_waits.setdefault(rnd, {})[node] = (
            conn, msg["seq"], float(msg.get("rate", 0.0)))
        self._maybe_release_claim(rnd)

    def _send_claim_reply(self, conn: _Conn, seq: int, rnd: int, *,
                          lease=None, drained: bool = False,
                          retired: bool = False) -> None:
        reply = {"op": "claim_ok", "seq": seq, "round": rnd,
                 "drained": drained, "retired": retired,
                 "lease": [lease.id, lease.size] if lease is not None
                 else None}
        self._queue_send(conn, frames.pack_ctrl(reply))

    def _maybe_release_claim(self, rnd: int) -> None:
        members = self.membership()
        waits = self._claim_waits.get(rnd, {})
        if not members or not members <= set(waits):
            return
        del self._claim_waits[rnd]
        if self.board.finished():
            # The inline loop's `while not board.drained()` check:
            # every member sees it at the same round boundary.
            self._state["drained_round"] = rnd
            self._persist()
            for node in sorted(waits):
                conn, seq, _rate = waits[node]
                self._send_claim_reply(conn, seq, rnd, drained=True)
            return
        for node in sorted(waits):
            conn, seq, rate = waits[node]
            if node not in members:
                # An expired node that came back: polite retirement —
                # no lease, and its loop ends with a report.
                self._send_claim_reply(conn, seq, rnd, retired=True)
                continue
            lease = self.board.claim_once(node, f"{rnd}:{node}", rate=rate)
            self._send_claim_reply(conn, seq, rnd, lease=lease)

    def _on_complete(self, conn: _Conn, msg: dict, raw: bytes) -> None:
        self.board.complete(msg["lease"], msg["node"],
                            round_no=msg.get("round", 0))
        self._queue_send(conn, frames.pack_ctrl(
            {"op": "complete_ok", "seq": msg["seq"]}))

    def _relay_dir(self, node: int) -> Path:
        return self.relay_root / f"node-{node:03d}"

    def _relay_manifest(self, node: int) -> list[tuple[int, int, int]]:
        """The node's relay manifest, read incrementally.

        ``queue.idx`` under the relay is append-only (only this
        coordinator writes it), so the cache keeps the parsed entries
        plus the byte offset they came from and every later call reads
        just the fresh tail — O(new records) per fetch instead of
        O(corpus). A shrunken file (a fresh campaign reusing the root)
        falls back to a full reload; the cache dies with :meth:`_crash`
        like all in-memory state.
        """
        entries, parsed = self._manifests.get(node, ([], 0))
        idx_path = self._relay_dir(node) / wire.QUEUE_IDX
        try:
            size = idx_path.stat().st_size
        except OSError:
            size = 0
        if size < parsed:
            entries, parsed = [], 0
        usable = size - size % wire.MANIFEST_RECORD.size
        if usable > parsed:
            try:
                with open(idx_path, "rb") as handle:
                    handle.seek(parsed)
                    raw = handle.read(usable - parsed)
            except OSError:
                return entries
            tail = len(raw) - len(raw) % wire.MANIFEST_RECORD.size
            entries = entries + [
                wire.MANIFEST_RECORD.unpack_from(raw, pos)
                for pos in range(0, tail, wire.MANIFEST_RECORD.size)]
            parsed += tail
            self._manifests[node] = (entries, parsed)
        return entries

    def _on_push(self, conn: _Conn, msg: dict, raw: bytes) -> None:
        node, base = msg["node"], msg["base"]
        relay = self._relay_dir(node)
        relay.mkdir(parents=True, exist_ok=True)
        applied = len(self._relay_manifest(node))
        blobs = frames.decode_blobs(raw)
        if applied >= base:
            fresh = blobs[applied - base:]
            if fresh:
                wire.append_records(relay, fresh)
                applied += len(fresh)
                telemetry.counter("net.records_pushed", len(fresh))
        # applied < base cannot happen (the node only advances its base
        # on our acks, and the relay is persistent) — but if it ever
        # did, acking the true count makes the node back up and refill
        # the gap instead of losing records.
        self._queue_send(conn, frames.pack_ctrl(
            {"op": "push_ok", "seq": msg["seq"], "acked": applied}))

    # --- coverage plane (DESIGN.md §15) -------------------------------------

    def _node_virgin(self, node: int) -> bytearray | None:
        """The node's mirrored virgin bits, or None when unavailable."""
        bits = self._virgin_cache.get(node)
        if bits is not None:
            return bits
        if str(node) not in self._state["coverage"]:
            return None
        try:
            raw = (self._relay_dir(node) / self.VIRGIN).read_bytes()
        except OSError:
            return None
        if len(raw) != MAP_SIZE:
            return None
        bits = bytearray(raw)
        self._virgin_cache[node] = bits
        return bits

    def _store_virgin(self, node: int, bits: bytearray, generation: int,
                      round_no: int, universe: int) -> None:
        relay = self._relay_dir(node)
        relay.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(relay / self.VIRGIN, bytes(bits))
        self._virgin_cache[node] = bits
        self._state["coverage"][str(node)] = [generation, round_no,
                                              universe]
        self._persist()

    def _on_delta(self, conn: _Conn, msg: dict, raw: bytes) -> None:
        """Apply one pushed coverage delta against its watermark.

        Accept rules: a full snapshot (``base_generation == 0``) always
        applies (it is the resync payload); an incremental delta applies
        only when its base matches the stored generation. A resend whose
        target generation we already hold is acked as a duplicate.
        Anything else — corrupt payload, watermark mismatch — gets a
        ``resync`` reply and the node falls back to a full snapshot;
        meanwhile fetches for this node fall back to full NCQ2 relay,
        so coverage semantics never depend on a delta landing.
        """
        node, rnd = msg["node"], msg["round"]
        telemetry.counter("net.delta_bytes", len(raw))
        entry = self._state["coverage"].get(str(node))
        stored_gen = entry[0] if entry else 0
        try:
            pushed = delta.decode(raw)
        except delta.DeltaError as exc:
            log.warning("node %d pushed a corrupt coverage delta for "
                        "round %d (%s); requesting resync", node, rnd, exc)
            telemetry.counter("net.delta_resyncs")
            self._queue_send(conn, frames.pack_ctrl(
                {"op": "delta_ok", "seq": msg["seq"], "status": "resync"}))
            return
        bits = self._node_virgin(node)
        if pushed.full:
            bits = bits if bits is not None else bytearray(MAP_SIZE)
            delta.apply_runs(bits, pushed.runs)
        elif (bits is None or entry is None
                or pushed.base_generation != stored_gen):
            if entry is not None and pushed.generation == stored_gen:
                # A resent delta we already applied: ack idempotently.
                entry[1] = max(entry[1], rnd)
                self._persist()
                self._queue_send(conn, frames.pack_ctrl(
                    {"op": "delta_ok", "seq": msg["seq"], "status": "ok"}))
                return
            telemetry.counter("net.delta_resyncs")
            self._queue_send(conn, frames.pack_ctrl(
                {"op": "delta_ok", "seq": msg["seq"], "status": "resync"}))
            return
        else:
            delta.apply_runs(bits, pushed.runs)
        self._store_virgin(node, bits, pushed.generation, rnd,
                           int(msg.get("universe", 0)))
        self._queue_send(conn, frames.pack_ctrl(
            {"op": "delta_ok", "seq": msg["seq"], "status": "ok"}))

    def _on_fetch(self, conn: _Conn, msg: dict, raw: bytes) -> None:
        node, rnd = msg["node"], msg["round"]
        if rnd <= self._state["fetch_round"]:
            # Already-released round: the relay provably holds exactly
            # rounds <= rnd (nobody can push round rnd+1 records before
            # the claim(rnd+1) barrier, which needs this node).
            self._send_fetch_reply(conn, msg["seq"], node, rnd,
                                   msg.get("offsets", {}))
            return
        self._fetch_waits.setdefault(rnd, {})[node] = (
            conn, msg["seq"], msg.get("offsets", {}))
        self._maybe_release_fetch(rnd)

    def _maybe_release_fetch(self, rnd: int) -> None:
        members = self.membership()
        waits = self._fetch_waits.get(rnd, {})
        if not members or not members <= set(waits):
            return
        del self._fetch_waits[rnd]
        self._state["fetch_round"] = rnd
        self._persist()
        for node in sorted(waits):
            conn, seq, offsets = waits[node]
            self._send_fetch_reply(conn, seq, node, rnd, offsets)

    def _send_fetch_reply(self, conn: _Conn, seq: int, node: int, rnd: int,
                          offsets: dict) -> None:
        """Serve one fetch: delta-elided when the watermarks allow it.

        **Delta mode** requires a current mirror of the requester's own
        virgin map — a delta pushed for this round or later. The skip
        decision is then *exact*, not heuristic: the requester's map
        cannot change between its delta push and its fetch apply (both
        sides of the same barrier), so walking the pending records in
        apply order against a simulation seeded from the mirror
        reproduces, record for record, the subsumption decisions the
        requester's own filter would have made. Elided records ship as
        a count plus one unioned line payload; everything else ships
        verbatim. A requester that is behind on deltas (resync pending,
        delta plane off, corrupt push) falls back to full NCQ2 relay —
        the fallback changes bytes on the wire, never coverage.
        """
        started = time.perf_counter()
        entry = self._state["coverage"].get(str(node))
        sim = self._node_virgin(node) if entry is not None else None
        use_delta = (sim is not None and entry[1] >= rnd)
        if use_delta:
            sim = bytearray(sim)  # simulation must not mutate the mirror
            universe = entry[2]
        parts = []
        chunks: list[bytes] = []
        skipped_total = 0
        saved_bytes = 0
        line_union: set[int] = set()
        for partner in range(self.workers):
            if partner == node:
                continue
            relay = self._relay_dir(partner)
            manifest = self._relay_manifest(partner)
            start = int(offsets.get(str(partner), 0))
            blobs = []
            skipped = 0
            pending = manifest[start:]
            if pending:
                with open(relay / wire.QUEUE_BIN, "rb") as handle:
                    for offset, length, crc in pending:
                        blob = wire.read_record_blob(handle, offset,
                                                     length, crc)
                        if blob is None:
                            continue
                        if use_delta and self._simulate_subsumed(
                                sim, blob, universe, line_union):
                            skipped += 1
                            saved_bytes += len(blob)
                            continue
                        blobs.append(blob)
            if use_delta:
                parts.append([partner, len(blobs), skipped])
            else:
                parts.append([partner, len(blobs)])
            skipped_total += skipped
            chunks.extend(blobs)
        meta = {"op": "fetch_ok", "seq": seq, "round": rnd, "parts": parts,
                "mode": "delta" if use_delta else "records"}
        if skipped_total:
            meta["lines"] = True
            chunks.append(wire.pack_line_indices(line_union))
            telemetry.counter("net.records_delta_skipped", skipped_total)
            telemetry.counter("net.bytes_saved", saved_bytes)
        if chunks:
            telemetry.counter("net.records_fetched",
                              len(chunks) - (1 if skipped_total else 0))
        raw = frames.encode_blobs(chunks)
        telemetry.counter("net.relay_bytes", len(raw))
        telemetry.observe("net.fetch", time.perf_counter() - started)
        self._queue_send(conn, frames.pack_blob(meta, raw))

    def _simulate_subsumed(self, sim: bytearray, blob: bytes,
                           universe: int, line_union: set[int]) -> bool:
        """Would the requester's filter absorb *blob* without running it?

        Walks the same structural gates as
        :func:`repro.parallel.sync.record_subsumed` — coverage + lines
        shipped, not crashed/anomalous, every ``(cell, class-bit)``
        already lit — against the simulated map, then advances the
        simulation exactly as the requester's map would advance:
        elided records contribute nothing; shipped records merge their
        recorded coverage (deterministic replay makes the execution's
        map contribution identical to the recorded one).
        """
        summary = wire.summarize_record(blob)
        if summary is None:
            return False  # relay verbatim; the receiver's parse decides
        subsumed = False
        if (summary.skippable
                and all(i < universe for i in summary.line_indices)
                and all(not cls & ~sim[cell]
                        for cell, cls in summary.coverage)):
            line_union.update(summary.line_indices)
            subsumed = True
        elif summary.coverage is not None:
            for cell, cls in summary.coverage:
                sim[cell] |= cls
        return subsumed

    def _on_report(self, conn: _Conn, msg: dict, raw: bytes) -> None:
        node = msg["node"]
        self.reports_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(self.reports_dir / f"report-{node:03d}.pkl", raw)
        self._queue_send(conn, frames.pack_ctrl(
            {"op": "report_ok", "seq": msg["seq"]}))

    def _on_bye(self, conn: _Conn, msg: dict, raw: bytes) -> None:
        node = msg["node"]
        if node not in self._state["byed"]:
            self._state["byed"].append(node)
            self._persist()
        self._queue_send(conn, frames.pack_ctrl(
            {"op": "bye_ok", "seq": msg["seq"]}))
        self._reevaluate_barriers()

    # --- results ------------------------------------------------------------

    def load_reports(self) -> dict[int, object]:
        """All node reports persisted by the report op, by node index."""
        reports: dict[int, object] = {}
        if not self.reports_dir.is_dir():
            return reports
        for path in sorted(self.reports_dir.glob("report-*.pkl")):
            try:
                node = int(path.stem.split("-")[1])
            except (IndexError, ValueError):
                continue
            reports[node] = pickle.loads(path.read_bytes())
        return reports

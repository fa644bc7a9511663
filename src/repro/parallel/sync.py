"""Corpus sync between campaign workers (AFL's ``sync_fuzzers`` shape).

Each worker owns ``<root>/worker-NNN/queue/``. Two wire formats share
this module:

* ``sync_format="v2"`` (default) — the binary protocol from
  :mod:`repro.parallel.wire`: exports *append* only newly found entries
  to ``queue.bin`` + ``queue.idx``, importers seek straight to the
  first unconsumed manifest record, and each record ships its sparse
  classified coverage so the **subsumption filter** can consume entries
  that cannot light up new local virgin bits without executing them
  (their shipped line coverage is absorbed instead). Crashing or
  anomalous entries are always executed, keeping crash accounting
  identical to v1.
* ``sync_format="v1"`` — the legacy per-entry-file layout written by
  :meth:`FuzzEngine.save_corpus`; kept for old sync roots and because
  crash reproducers share its JSON decoder.

Robustness contract (both formats): the import side tolerates whatever
a partner crashing mid-write can leave behind. V1 heals because the
owner rewrites every entry file each round; v2 heals because the owner
checks its append tail (size + tail CRC, O(1)) on every export and
rewrites both files from the live queue when the tail is broken. A
corrupt record is skipped and counted (``stats.import_skipped``) once,
kept on a retry list, and imported after it heals.
"""

from __future__ import annotations

import bisect
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults, telemetry
from repro.coverage import delta
from repro.fuzzer.crashes import atomic_write_bytes
from repro.fuzzer.engine import FuzzEngine
from repro.parallel import checksum, wire

SYNC_FORMATS = ("v1", "v2")

#: Per-queue-dir coverage sidecar (DESIGN.md §15): the exporter's full
#: virgin map as one NCD1 payload, plus the metadata an importer needs
#: to reject the whole fresh batch without opening ``queue.bin``.
COVERAGE_SIDECAR = "coverage.bin"


def record_subsumed(engine: FuzzEngine, record: wire.WireRecord, *,
                    enabled: bool = True) -> bool:
    """The subsumption-filter contract, in one place.

    Skip execution only when it provably changes nothing: the record
    must ship both coverage and absorbable lines, must not have crashed
    or anomaled when found (those always re-execute so crash accounting
    matches v1), and every shipped ``(cell, class-bit)`` pair must
    already be present in the local virgin map.
    """
    if not enabled:
        return False
    if record.coverage is None or record.lines is None:
        return False
    if record.crashed or record.anomaly:
        return False
    return engine.virgin.subsumes(record.coverage)


def consume_record(engine: FuzzEngine, record: wire.WireRecord, *,
                   absorb_lines=None, subsumption_filter: bool = True
                   ) -> bool:
    """Apply one partner record to *engine*; True when it was absorbed
    without execution.

    This is the exactly-once apply step both transports share: the
    filesystem sync directory (:meth:`SyncDirectory._import_v2`) and
    the federation node (:mod:`repro.parallel.transport`) — however a
    record travelled, applying it goes through the same filter and the
    same engine entry points, so the two data planes are
    fingerprint-equivalent by construction.
    """
    if record_subsumed(engine, record, enabled=subsumption_filter):
        engine.import_subsumed(record, absorb_lines)
        telemetry.counter("sync.filter_subsumed")
        return True
    engine.import_packed(record)
    telemetry.counter("sync.filter_executed")
    return False


def worker_queue_dir(root: Path, index: int) -> Path:
    """The queue directory one worker exports to."""
    return Path(root) / f"worker-{index:03d}" / "queue"


def _corrupt(queue_dir: Path, spec) -> None:
    """Apply one injected sync-corruption shape (chaos testing).

    Writes bypass the atomic path on purpose: the fault simulates the
    partial state a crash mid-write would leave *without* atomicity.
    Shapes adapt to whichever format's artifacts are present.
    """
    bin_path = queue_dir / wire.QUEUE_BIN
    if bin_path.exists():  # protocol v2
        if spec.corrupt == "truncate":
            raw = bin_path.read_bytes()
            bin_path.write_bytes(raw[:-17] if len(raw) > 17 else b"")
        elif spec.corrupt == "garbage":
            manifest = wire.read_manifest(queue_dir)
            if manifest:
                offset, length, _ = manifest[-1]
                raw = bytearray(bin_path.read_bytes())
                raw[offset:offset + length] = b"\xa5" * length
                bin_path.write_bytes(bytes(raw))
        elif spec.corrupt == "tmp_orphan":
            (queue_dir / (wire.QUEUE_BIN + ".tmp")).write_bytes(b"partial")
        return
    entries = sorted(p for p in queue_dir.iterdir()
                     if p.is_file() and p.name.startswith("id:"))
    if spec.corrupt == "truncate" and entries:
        victim = entries[-1]
        victim.write_bytes(victim.read_bytes()[:17])
    elif spec.corrupt == "garbage" and entries:
        entries[-1].write_bytes(b'{"input": not-json')
    elif spec.corrupt == "tmp_orphan":
        (queue_dir / "id:999999,found:0.tmp").write_bytes(b"partial")


@dataclass
class SyncStats:
    """Where sync wall-clock goes, per phase (merged into bench output)."""

    export_seconds: float = 0.0   # packing + appending own entries
    scan_seconds: float = 0.0     # reading partner manifests
    filter_seconds: float = 0.0   # subsumption checks against VirginMap
    execute_seconds: float = 0.0  # running entries that passed the filter
    entries_exported: int = 0
    entries_scanned: int = 0
    #: Import rounds that actually scanned partners.
    import_rounds: int = 0
    #: Import rounds the adaptive-sync controller elided (the scan cost
    #: the geometric back-off saved; see DESIGN.md §13).
    rounds_skipped_adaptive: int = 0
    #: Whole partner batches rejected from one coverage sidecar delta
    #: without scanning the queue file (DESIGN.md §15).
    batches_delta_rejected: int = 0

    def merged_with(self, other: "SyncStats") -> "SyncStats":
        return SyncStats(
            export_seconds=self.export_seconds + other.export_seconds,
            scan_seconds=self.scan_seconds + other.scan_seconds,
            filter_seconds=self.filter_seconds + other.filter_seconds,
            execute_seconds=self.execute_seconds + other.execute_seconds,
            entries_exported=self.entries_exported + other.entries_exported,
            entries_scanned=self.entries_scanned + other.entries_scanned,
            import_rounds=self.import_rounds + other.import_rounds,
            rounds_skipped_adaptive=(self.rounds_skipped_adaptive
                                     + other.rounds_skipped_adaptive),
            batches_delta_rejected=(self.batches_delta_rejected
                                    + other.batches_delta_rejected))


@dataclass
class SyncDirectory:
    """One worker's view of the shared sync directory."""

    root: Path
    worker: int
    total_workers: int
    sync_format: str = "v2"
    #: Skip executing imports whose shipped coverage is already subsumed
    #: by the local virgin map (v2 only). The off switch exists for
    #: format-equivalence pins and debugging.
    subsumption_filter: bool = True
    #: Publish a coverage sidecar next to the queue files and use
    #: partners' sidecars to reject whole fresh batches from one delta
    #: comparison before scanning ``queue.bin`` (DESIGN.md §15). Purely
    #: an I/O optimization: every decision the batch path takes is one
    #: the per-record filter would have taken, so fingerprints are
    #: identical with the switch on or off.
    delta_plane: bool = True
    #: v1: per-partner filenames already imported (valid entries only,
    #: so a corrupt entry is retried once its owner rewrites it).
    seen: dict[int, set[str]] = field(default_factory=dict)
    #: v2: per-partner count of manifest records consumed (imported,
    #: filtered, or parked on the retry list below).
    consumed: dict[int, int] = field(default_factory=dict)
    #: v2: per-partner manifest indices that failed to read/parse and
    #: are retried each round until the owner's tail check heals them.
    retry: dict[int, set[int]] = field(default_factory=dict)
    #: v2: records/bytes this worker has appended to its own queue.bin,
    #: for the O(1) tail-intact check on the next export.
    exported_records: int = 0
    exported_bytes: int = 0
    #: Export rounds completed (drives ``corrupt_sync`` fault timing).
    exports: int = 0
    stats: SyncStats = field(default_factory=SyncStats)
    #: Sidecar accumulators (queue files are append-only, so both grow
    #: incrementally; a tail rewrite rebuilds them from scratch):
    #: manifest indices an importer may never batch-skip, and one
    #: packed line-index payload per *skippable* record, in manifest
    #: order — so an importer can absorb exactly the lines of the
    #: records it batch-skips, no more.
    _sidecar_flagged: list[int] = field(default_factory=list)
    _sidecar_lines: list[bytes] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.sync_format not in SYNC_FORMATS:
            raise ValueError(f"unknown sync_format {self.sync_format!r}")

    @contextmanager
    def _timed(self, span_name: str, attr: str):
        """Accumulate one phase's wall clock into ``stats.<attr>`` and
        the telemetry histogram *span_name*.

        The accounting lives in a ``finally`` so a guarded call that
        raises — a corrupt-entry retry, an injected sync fault — still
        charges its elapsed time. (The old ``stats.x += perf_counter()
        - started`` shape silently dropped those paths from
        ``sync_overhead``.) Both sinks see the *same* elapsed value, so
        ``SyncStats`` and the telemetry report agree to the float.
        """
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            setattr(self.stats, attr, getattr(self.stats, attr) + elapsed)
            telemetry.observe(span_name, elapsed)

    # --- export ---------------------------------------------------------

    def export(self, engine: FuzzEngine, *,
               codec: wire.LineCodec | None = None) -> int:
        """Publish the worker's locally found queue entries.

        Returns the total number of entries now published (v1 rewrites
        them all; v2 appends only the ones found since the last round).
        """
        queue_dir = worker_queue_dir(self.root, self.worker)
        with self._timed("sync.export", "export_seconds"):
            if self.sync_format == "v1":
                written = engine.save_corpus(queue_dir, exclude_imported=True)
            else:
                written = self._export_v2(engine, queue_dir, codec)
        self.exports += 1
        telemetry.event("sync.export", round=self.exports, written=written)
        plan = faults.active()
        if plan is not None:
            spec = plan.take_sync_fault(self.worker, self.exports)
            if spec is not None:
                plan.record("corrupt_sync", self.worker, spec.corrupt)
                _corrupt(queue_dir, spec)
        return written

    def _export_v2(self, engine: FuzzEngine, queue_dir: Path,
                   codec: wire.LineCodec | None) -> int:
        queue_dir.mkdir(parents=True, exist_ok=True)
        entries = [e for e in engine.queue.entries if not e.imported]
        if not wire.tail_intact(queue_dir, self.exported_records,
                                self.exported_bytes):
            # A crash mid-append (or injected corruption) broke the
            # tail: rebuild both files from the live queue, atomically.
            blobs = [wire.pack_record(i, entry, codec)
                     for i, entry in enumerate(entries)]
            self.exported_bytes = wire.rewrite_records(queue_dir, blobs)
            self.exported_records = len(blobs)
            self.stats.entries_exported += len(blobs)
            self._sidecar_flagged.clear()
            self._sidecar_lines.clear()
            self._accumulate_sidecar(blobs, 0)
            self._write_sidecar(engine, queue_dir, codec)
            return len(entries)
        fresh = entries[self.exported_records:]
        if fresh:
            base = self.exported_records
            blobs = [wire.pack_record(base + k, entry, codec)
                     for k, entry in enumerate(fresh)]
            self.exported_bytes += wire.append_records(queue_dir, blobs)
            self.exported_records += len(blobs)
            self.stats.entries_exported += len(blobs)
            self._accumulate_sidecar(blobs, base)
            self._write_sidecar(engine, queue_dir, codec)
        return len(entries)

    def _accumulate_sidecar(self, blobs: list[bytes], base: int) -> None:
        """Fold freshly exported records into the sidecar accumulators.

        Records are summarized from their packed form — the exact bytes
        an importer will see — so the flagged list reproduces the
        structural gates of :func:`record_subsumed` without a second
        encoding path that could drift.
        """
        if not self.delta_plane:
            return
        for k, blob in enumerate(blobs):
            summary = wire.summarize_record(blob)
            if summary is None or not summary.skippable:
                self._sidecar_flagged.append(base + k)
                continue
            self._sidecar_lines.append(
                wire.pack_line_indices(summary.line_indices))

    def _write_sidecar(self, engine: FuzzEngine, queue_dir: Path,
                       codec: wire.LineCodec | None) -> None:
        """Atomically publish the coverage sidecar for the queue dir.

        The NCD1 payload is a *full* snapshot of the exporter's virgin
        map, covering every record exported so far (each record's
        coverage was merged into the map at discovery), so any reader
        whose map subsumes it subsumes every skippable record — the
        whole-batch rejection the import side runs before touching
        ``queue.bin``.
        """
        if not self.delta_plane or codec is None:
            return
        meta = {"records": self.exported_records,
                "universe": len(codec.universe),
                "flagged": self._sidecar_flagged,
                "generation": engine.virgin.generation}
        chunks = [json.dumps(meta, sort_keys=True).encode(),
                  delta.encode(delta.full_delta(bytes(engine.virgin.bits),
                                                engine.virgin.generation))]
        chunks.extend(self._sidecar_lines)
        payload = checksum.seal(checksum.pack_chunks(chunks))
        atomic_write_bytes(queue_dir / COVERAGE_SIDECAR, payload)

    # --- import ---------------------------------------------------------

    def import_new(self, engine: FuzzEngine, *,
                   codec: wire.LineCodec | None = None,
                   absorb_lines=None) -> int:
        """Consume every not-yet-seen partner entry through *engine*.

        Returns the number of entries consumed — executed, or (v2)
        absorbed through the subsumption filter without execution;
        either way they count in ``stats.imported``. Entries that fail
        to decode are skipped (counted once in ``stats.import_skipped``)
        and retried on later rounds, after the owner heals them.
        """
        imported = 0
        self.stats.import_rounds += 1
        for partner in range(self.total_workers):
            if partner == self.worker:
                continue
            queue_dir = worker_queue_dir(self.root, partner)
            if not queue_dir.is_dir():
                continue
            if self.sync_format == "v1":
                imported += self._import_v1(engine, partner, queue_dir)
            else:
                imported += self._import_v2(engine, partner, queue_dir,
                                            codec, absorb_lines)
        return imported

    def _import_v1(self, engine: FuzzEngine, partner: int,
                   queue_dir: Path) -> int:
        imported = 0
        seen = self.seen.setdefault(partner, set())
        files = sorted(p for p in queue_dir.iterdir()
                       if p.is_file() and p.name.startswith("id:")
                       and not p.name.endswith(".tmp"))
        for path in files:
            if path.name in seen:
                continue
            try:
                payload = path.read_bytes()
            except OSError:
                engine.stats.import_skipped += 1
                telemetry.counter("sync.imports_skipped")
                continue
            with self._timed("sync.execute", "execute_seconds"):
                new_bits = engine.import_case(payload)
            if new_bits is None:
                telemetry.counter("sync.imports_skipped")
                continue  # corrupt entry: counted, retried later
            seen.add(path.name)
            imported += 1
        return imported

    def _import_v2(self, engine: FuzzEngine, partner: int, queue_dir: Path,
                   codec: wire.LineCodec | None, absorb_lines) -> int:
        with self._timed("sync.scan", "scan_seconds"):
            manifest = wire.read_manifest(queue_dir)
        consumed = self.consumed.get(partner, 0)
        retry = self.retry.setdefault(partner, set())
        todo = sorted(index for index in retry if index < len(manifest))
        todo += range(consumed, len(manifest))
        if not todo:
            return 0
        rejected = 0
        if (self.delta_plane and self.subsumption_filter and not retry
                and codec is not None and consumed < len(manifest)):
            rejected = self._delta_reject(engine, partner, queue_dir,
                                          manifest, consumed, codec,
                                          absorb_lines)
            if rejected:
                consumed += rejected
                todo = list(range(consumed, len(manifest)))
                if not todo:
                    return rejected
        imported = rejected
        try:
            handle = open(queue_dir / wire.QUEUE_BIN, "rb")
        except OSError:
            # Manifest without a readable data file: leave the cursor
            # where it is and try again next round.
            return 0
        with handle:
            for index in todo:
                offset, length, crc = manifest[index]
                blob = wire.read_record_blob(handle, offset, length, crc)
                record = wire.parse_record(blob, codec) if blob else None
                self.stats.entries_scanned += 1
                if record is None:
                    if index not in retry:
                        # Counted once; the retry set keeps the cursor
                        # moving while this record waits for its heal.
                        engine.stats.import_skipped += 1
                        telemetry.counter("sync.imports_skipped")
                        retry.add(index)
                    continue
                retry.discard(index)
                if self._filtered(engine, record):
                    engine.import_subsumed(record, absorb_lines)
                    telemetry.counter("sync.filter_subsumed")
                else:
                    with self._timed("sync.execute", "execute_seconds"):
                        engine.import_packed(record)
                    telemetry.counter("sync.filter_executed")
                imported += 1
        self.consumed[partner] = len(manifest)
        return imported

    def _delta_reject(self, engine: FuzzEngine, partner: int,
                      queue_dir: Path, manifest: list, consumed: int,
                      codec: wire.LineCodec, absorb_lines) -> int:
        """Absorb the fresh batch's clean prefix from the sidecar alone.

        Returns how many records were absorbed without opening the data
        file — the run from *consumed* up to the first *flagged* record
        (crashed, anomalous, or shipped without coverage/lines; those
        must execute, and the caller's per-record path picks up exactly
        there). 0 means no precondition held and the per-record path
        runs unchanged. Every decision here is one that path would have
        made:

        * the sidecar is intact and describes this manifest length and
          this line universe;
        * the local virgin map subsumes the partner's *entire* map —
          and therefore every record's coverage individually (each
          record's coverage was merged into the partner's map when the
          entry was found);
        * when the prefix reaches the manifest tail, the last record's
          CRC verifies — a partner crash (or an injected
          ``corrupt_sync`` fault) only ever damages the append tail,
          and the per-record path would park a damaged record on the
          retry list rather than absorb it. Interior records of an
          append-only file cannot be torn, so prefixes that stop short
          of the tail need no read at all.

        The line payloads absorbed are exactly the prefix records' own
        shipped line sets (the sidecar carries one packed payload per
        skippable record) — bit-for-bit what :meth:`import_subsumed`
        would have absorbed record by record.
        """
        try:
            raw = (queue_dir / COVERAGE_SIDECAR).read_bytes()
        except OSError:
            return 0
        body = checksum.unseal(raw)
        if body is None:
            return 0
        try:
            chunks = checksum.unpack_chunks(body)
            meta = json.loads(chunks[0])
            side = delta.decode(chunks[1])
        except (IndexError, ValueError, delta.DeltaError):
            return 0
        if not isinstance(meta, dict):
            return 0
        flagged = meta.get("flagged", [])
        if not (isinstance(flagged, list)
                and all(isinstance(i, int) for i in flagged)):
            return 0
        flagged.sort()
        if (meta.get("records") != len(manifest)
                or meta.get("universe") != len(codec.universe)
                or len(chunks) != 2 + len(manifest) - len(flagged)):
            return 0
        limit = len(manifest)
        for index in flagged:
            if consumed <= index < limit:
                limit = index
                break  # flagged is sorted: the first hit is the min
        count = limit - consumed
        if count <= 0:
            return 0
        with self._timed("sync.filter", "filter_seconds"):
            subsumed = delta.runs_subsumed(engine.virgin.bits, side.runs)
        if not subsumed:
            return 0
        if limit == len(manifest):
            # The prefix reaches the append tail — the only place a
            # partner crash or injected corruption can damage. One O(1)
            # CRC read keeps batch and per-record paths agreeing on it.
            offset, length, crc = manifest[-1]
            try:
                with open(queue_dir / wire.QUEUE_BIN, "rb") as handle:
                    if wire.read_record_blob(handle, offset, length,
                                             crc) is None:
                        return 0
            except OSError:
                return 0
        # Record *index* maps to line chunk 2 + index - |flagged below|.
        pos = 2 + consumed - bisect.bisect_left(flagged, consumed)
        union: set = set()
        for payload in chunks[pos:pos + count]:
            lines = codec.decode(payload)
            if lines is None:
                return 0  # produced against a different universe
            union |= lines
        engine.import_subsumed_batch(count)
        if absorb_lines is not None and union:
            absorb_lines(union)
        self.consumed[partner] = limit
        self.stats.entries_scanned += count
        self.stats.batches_delta_rejected += 1
        telemetry.counter("sync.filter_subsumed", count)
        telemetry.counter("sync.delta_rejects")
        return count

    def _filtered(self, engine: FuzzEngine, record: wire.WireRecord) -> bool:
        """:func:`record_subsumed`, with the check's wall clock charged
        to ``stats.filter_seconds``."""
        with self._timed("sync.filter", "filter_seconds"):
            return record_subsumed(engine, record,
                                   enabled=self.subsumption_filter)

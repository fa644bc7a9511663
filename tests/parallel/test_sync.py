"""Corpus-sync protocol tests (export / incremental import / corruption).

Behavioural tests run against both wire formats — the binary v2
protocol must behave exactly like the legacy v1 per-file layout for
everything a campaign can observe. Format-specific classes cover the
on-disk layout and the v2-only subsumption filter.
"""

import json

import pytest

from repro import faults
from repro.coverage.bitmap import CoverageBitmap
from repro.faults import FaultPlan, FaultSpec
from repro.fuzzer.engine import FuzzEngine, RunFeedback
from repro.fuzzer.input import INPUT_SIZE
from repro.fuzzer.rng import Rng
from repro.parallel.sync import (
    COVERAGE_SIDECAR,
    SyncDirectory,
    worker_queue_dir,
)
from repro.parallel.wire import QUEUE_BIN, QUEUE_IDX, LineCodec


def novel_execute():
    counter = {"n": 0}

    def execute(fi):
        counter["n"] += 1
        bitmap = CoverageBitmap()
        bitmap.record_edge(counter["n"] * 64, counter["n"] * 64 + 1)
        return RunFeedback(bitmap=bitmap)

    return execute


def make_engine(seed=1, execute=None):
    engine = FuzzEngine(execute=execute or novel_execute(), rng=Rng(seed))
    engine.add_seed(bytes(INPUT_SIZE))
    return engine


@pytest.fixture(params=["v1", "v2"])
def sync_format(request):
    return request.param


def make_sync(root, worker, sync_format, total_workers=2):
    return SyncDirectory(root, worker=worker, total_workers=total_workers,
                         sync_format=sync_format)


class TestSyncDirectory:
    def test_export_covers_the_whole_local_queue(self, tmp_path, sync_format):
        engine = make_engine()
        engine.run(4)
        sync = make_sync(tmp_path, 0, sync_format)
        assert sync.export(engine) == len(engine.queue)

    def test_import_new_executes_partner_entries(self, tmp_path, sync_format):
        producer = make_engine(seed=1)
        producer.run(3)
        make_sync(tmp_path, 1, sync_format).export(producer)

        consumer = make_engine(seed=2)
        sync = make_sync(tmp_path, 0, sync_format)
        imported = sync.import_new(consumer)
        assert imported == len(producer.queue)
        assert consumer.stats.imported == imported

    def test_import_is_incremental(self, tmp_path, sync_format):
        producer = make_engine(seed=1)
        producer.run(2)
        producer_sync = make_sync(tmp_path, 1, sync_format)
        producer_sync.export(producer)

        consumer = make_engine(seed=2)
        sync = make_sync(tmp_path, 0, sync_format)
        first = sync.import_new(consumer)
        assert sync.import_new(consumer) == 0  # nothing new yet
        producer.run(2)
        producer_sync.export(producer)
        second = sync.import_new(consumer)
        assert first > 0 and second == 2  # only the fresh entries

    def test_imported_entries_not_reexported(self, tmp_path, sync_format):
        producer = make_engine(seed=1)
        producer.run(3)
        make_sync(tmp_path, 1, sync_format).export(producer)

        consumer = make_engine(seed=2)
        consumer.run(1)
        sync = make_sync(tmp_path, 0, sync_format)
        sync.import_new(consumer)
        local = sum(1 for e in consumer.queue.entries if not e.imported)
        assert sync.export(consumer) == local
        assert local < len(consumer.queue)  # some imports did join the queue

    def test_own_directory_never_imported(self, tmp_path, sync_format):
        engine = make_engine()
        engine.run(2)
        sync = make_sync(tmp_path, 0, sync_format)
        sync.export(engine)
        assert sync.import_new(engine) == 0


class TestV2Layout:
    """Protocol v2 on-disk shape: two files, append-only growth."""

    def test_exactly_two_files(self, tmp_path):
        engine = make_engine()
        engine.run(4)
        make_sync(tmp_path, 0, "v2").export(engine)
        names = {p.name for p in worker_queue_dir(tmp_path, 0).iterdir()}
        assert names == {QUEUE_BIN, QUEUE_IDX}

    def test_reexport_appends_instead_of_rewriting(self, tmp_path):
        engine = make_engine()
        engine.run(3)
        sync = make_sync(tmp_path, 0, "v2")
        sync.export(engine)
        queue_dir = worker_queue_dir(tmp_path, 0)
        first_size = (queue_dir / QUEUE_BIN).stat().st_size
        first_head = (queue_dir / QUEUE_BIN).read_bytes()

        engine.run(3)
        sync.export(engine)
        grown = (queue_dir / QUEUE_BIN).read_bytes()
        assert len(grown) > first_size
        # Append-only: the old region is byte-identical, not rewritten.
        assert grown[:first_size] == first_head

    def test_noop_export_writes_nothing(self, tmp_path):
        engine = make_engine()
        engine.run(3)
        sync = make_sync(tmp_path, 0, "v2")
        sync.export(engine)
        queue_dir = worker_queue_dir(tmp_path, 0)
        before = ((queue_dir / QUEUE_BIN).stat().st_mtime_ns,
                  (queue_dir / QUEUE_IDX).stat().st_size)
        sync.export(engine)  # no new entries since the last round
        after = ((queue_dir / QUEUE_BIN).stat().st_mtime_ns,
                 (queue_dir / QUEUE_IDX).stat().st_size)
        assert after == before


class TestSubsumptionFilter:
    """V2-only: imports whose coverage is already known are not executed."""

    LINE = ("nested.py", 7)

    def _constant_edge_execute(self, executions):
        def execute(fi):
            executions.append(fi)
            bitmap = CoverageBitmap()
            bitmap.record_edge(64, 65)  # every case hits the same cell
            return RunFeedback(bitmap=bitmap, lines=frozenset({self.LINE}))

        return execute

    def test_subsumed_imports_skip_execution(self, tmp_path):
        codec = LineCodec([self.LINE])
        producer = make_engine(seed=1,
                               execute=self._constant_edge_execute([]))
        producer.run(5)
        make_sync(tmp_path, 1, "v2").export(producer, codec=codec)

        executions = []
        consumer = make_engine(seed=2,
                               execute=self._constant_edge_execute(executions))
        consumer.run(1)  # the local run already lit the shared cell
        baseline = len(executions)
        absorbed = []
        sync = make_sync(tmp_path, 0, "v2")
        imported = sync.import_new(consumer, codec=codec,
                                   absorb_lines=absorbed.extend)
        queued = [e for e in producer.queue.entries if e.coverage is not None]
        assert imported == len(producer.queue)
        assert consumer.stats.imported == imported
        # Every coverage-carrying entry was subsumed: zero executions.
        assert consumer.stats.imports_skipped_subsumed == len(queued)
        assert len(executions) == baseline + (imported - len(queued))
        assert self.LINE in absorbed

    def test_novel_coverage_still_executes(self, tmp_path):
        codec = LineCodec([self.LINE])
        producer = make_engine(seed=1)  # novel edge per case
        producer.run(3)
        make_sync(tmp_path, 1, "v2").export(producer)

        consumer = make_engine(seed=2)
        sync = make_sync(tmp_path, 0, "v2")
        imported = sync.import_new(consumer, codec=codec)
        assert imported == len(producer.queue)
        assert consumer.stats.imports_skipped_subsumed == 0

    def test_filter_can_be_disabled(self, tmp_path):
        codec = LineCodec([self.LINE])
        producer = make_engine(seed=1,
                               execute=self._constant_edge_execute([]))
        producer.run(5)
        make_sync(tmp_path, 1, "v2").export(producer, codec=codec)

        executions = []
        consumer = make_engine(seed=2,
                               execute=self._constant_edge_execute(executions))
        consumer.run(1)
        baseline = len(executions)
        sync = make_sync(tmp_path, 0, "v2")
        sync.subsumption_filter = False
        imported = sync.import_new(consumer, codec=codec)
        assert imported == len(producer.queue)
        assert consumer.stats.imports_skipped_subsumed == 0
        assert len(executions) == baseline + imported

    def test_overhead_phases_are_accounted(self, tmp_path):
        producer = make_engine(seed=1)
        producer.run(3)
        producer_sync = make_sync(tmp_path, 1, "v2")
        producer_sync.export(producer)
        consumer = make_engine(seed=2)
        sync = make_sync(tmp_path, 0, "v2")
        sync.import_new(consumer)
        assert producer_sync.stats.export_seconds > 0
        assert producer_sync.stats.entries_exported == len(producer.queue)
        assert sync.stats.scan_seconds > 0
        assert sync.stats.execute_seconds > 0
        assert sync.stats.entries_scanned == len(producer.queue)


class TestPhaseTimersSurviveFailures:
    """Regression: phase timers are charged through ``finally``.

    The old ``stats.x += perf_counter() - started`` accounting silently
    dropped any phase that raised partway through, so a corrupt-sync
    round (or a real crash mid-import) under-reported sync_overhead.
    Every guarded phase must record its elapsed time even when the
    guarded call blows up — and the matching telemetry span must see
    the identical value.
    """

    def _registry(self, tmp_path):
        from repro import telemetry

        return telemetry.campaign_scope("metrics", tmp_path / "telemetry")

    def test_crc_failed_records_still_charge_scan_time(self, tmp_path):
        producer = make_engine(seed=1)
        producer.run(3)
        producer_sync = make_sync(tmp_path, 1, "v2")
        plan = FaultPlan([FaultSpec("corrupt_sync", worker=1, at_export=1,
                                    corrupt="garbage")])
        with faults.injected(plan):
            producer_sync.export(producer)

        consumer = make_engine(seed=2)
        sync = make_sync(tmp_path, 0, "v2")
        with self._registry(tmp_path) as registry:
            sync.import_new(consumer)
        assert consumer.stats.import_skipped == 1
        # The corrupt record was scanned, and its scan time counted.
        assert sync.stats.scan_seconds > 0
        assert sync.stats.entries_scanned == len(producer.queue)
        assert registry.span_total("sync.scan") == pytest.approx(
            sync.stats.scan_seconds)

    def test_scan_time_recorded_when_manifest_read_raises(self, tmp_path,
                                                          monkeypatch):
        producer = make_engine(seed=1)
        producer.run(2)
        make_sync(tmp_path, 1, "v2").export(producer)

        import repro.parallel.sync as sync_mod

        def explode(queue_dir):
            raise RuntimeError("torn manifest")

        monkeypatch.setattr(sync_mod.wire, "read_manifest", explode)
        sync = make_sync(tmp_path, 0, "v2")
        with pytest.raises(RuntimeError):
            sync.import_new(make_engine(seed=2))
        assert sync.stats.scan_seconds > 0

    def test_execute_time_recorded_when_import_raises(self, tmp_path,
                                                      sync_format):
        producer = make_engine(seed=1)
        producer.run(2)
        make_sync(tmp_path, 1, sync_format).export(producer)

        consumer = make_engine(seed=2)
        boom = RuntimeError("executor died")

        def explode(*args, **kwargs):
            raise boom

        consumer.import_case = explode
        consumer.import_packed = explode
        sync = make_sync(tmp_path, 0, sync_format)
        with pytest.raises(RuntimeError):
            sync.import_new(consumer)
        assert sync.stats.execute_seconds > 0

    def test_filter_time_recorded_when_subsumes_raises(self, tmp_path,
                                                       monkeypatch):
        line = ("nested.py", 7)
        codec = LineCodec([line])

        def covered_execute(fi):
            bitmap = CoverageBitmap()
            bitmap.record_edge(64, 65)
            return RunFeedback(bitmap=bitmap, lines=frozenset({line}))

        producer = make_engine(seed=1, execute=covered_execute)
        producer.run(2)
        make_sync(tmp_path, 1, "v2").export(producer, codec=codec)

        consumer = make_engine(seed=2, execute=covered_execute)
        monkeypatch.setattr(
            consumer.virgin, "subsumes",
            lambda coverage: (_ for _ in ()).throw(RuntimeError("virgin")))
        sync = make_sync(tmp_path, 0, "v2")
        with pytest.raises(RuntimeError):
            sync.import_new(consumer, codec=codec)
        assert sync.stats.filter_seconds > 0

    def test_export_time_recorded_when_export_raises(self, tmp_path,
                                                     sync_format,
                                                     monkeypatch):
        engine = make_engine()
        engine.run(2)
        sync = make_sync(tmp_path, 0, sync_format)
        import repro.parallel.sync as sync_mod

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(engine, "save_corpus", explode)
        monkeypatch.setattr(sync_mod.wire, "append_records", explode)
        monkeypatch.setattr(sync_mod.wire, "rewrite_records", explode)
        with pytest.raises(OSError):
            sync.export(engine)
        assert sync.stats.export_seconds > 0


class TestSyncCorruption:
    """Injected mid-write corruption: skip, count, heal on re-export."""

    def _corrupted_export(self, tmp_path, mode, sync_format):
        producer = make_engine(seed=1)
        producer.run(3)
        sync = make_sync(tmp_path, 1, sync_format)
        plan = FaultPlan([FaultSpec("corrupt_sync", worker=1, at_export=1,
                                    corrupt=mode)])
        with faults.injected(plan):
            sync.export(producer)
        assert plan.exhausted
        return producer, sync

    @pytest.mark.parametrize("mode", ["truncate", "garbage"])
    def test_corrupt_entry_skipped_then_healed(self, tmp_path, sync_format,
                                               mode):
        producer, producer_sync = self._corrupted_export(tmp_path, mode,
                                                         sync_format)
        consumer = make_engine(seed=2)
        sync = make_sync(tmp_path, 0, sync_format)
        first = sync.import_new(consumer)
        assert first == len(producer.queue) - 1
        assert consumer.stats.import_skipped == 1
        # The owner's next export heals the damage (v1 rewrites every
        # file; v2 notices the broken tail and rebuilds both files);
        # the entry was never marked consumed, so it imports now.
        producer_sync.export(producer)
        assert sync.import_new(consumer) == 1
        assert consumer.stats.imported == len(producer.queue)

    def test_corrupt_entry_counted_only_once(self, tmp_path, sync_format):
        producer, producer_sync = self._corrupted_export(
            tmp_path, "truncate", sync_format)
        consumer = make_engine(seed=2)
        sync = make_sync(tmp_path, 0, sync_format)
        sync.import_new(consumer)
        skipped = consumer.stats.import_skipped
        assert skipped == 1
        if sync_format == "v2":
            # V1 recounts on every retry round (the pre-heal rounds are
            # bounded by sync cadence); v2 pins the stricter contract.
            sync.import_new(consumer)
            assert consumer.stats.import_skipped == skipped

    def test_tmp_orphan_never_listed(self, tmp_path, sync_format):
        producer, _ = self._corrupted_export(tmp_path, "tmp_orphan",
                                             sync_format)
        consumer = make_engine(seed=2)
        sync = make_sync(tmp_path, 0, sync_format)
        assert sync.import_new(consumer) == len(producer.queue)
        assert consumer.stats.import_skipped == 0
        orphans = list(worker_queue_dir(tmp_path, 1).glob("*.tmp"))
        assert orphans  # the fault really did leave one behind


class TestDeltaBatchReject:
    """V2-only coverage sidecar (DESIGN.md §15): a reader whose virgin
    map subsumes the exporter's entire map absorbs the fresh batch from
    one NCD1 delta, without opening ``queue.bin`` — and every fallback
    (corrupt or stale sidecar, flagged head record, novel coverage,
    torn tail) degrades to the per-record path with identical results.
    """

    LINES = [("nested.py", n) for n in range(1, 9)]

    def _novel_lines_execute(self, executions=None):
        counter = {"n": 0}

        def execute(fi):
            if executions is not None:
                executions.append(bytes(fi))
            counter["n"] += 1
            bitmap = CoverageBitmap()
            bitmap.record_edge(counter["n"] * 64, counter["n"] * 64 + 1)
            line = self.LINES[counter["n"] % len(self.LINES)]
            return RunFeedback(bitmap=bitmap, lines=frozenset({line}))

        return execute

    def _producer(self, tmp_path, codec, runs=3):
        producer = make_engine(seed=1, execute=self._novel_lines_execute())
        producer.run(runs)
        psync = make_sync(tmp_path, 1, "v2")
        psync.export(producer, codec=codec)
        return producer, psync

    def _catch_up(self, tmp_path, codec, consumer, sync, absorbed):
        """First round: reader imports everything per-record (the seed
        heads the batch and is flagged — no coverage — so the batch
        path must decline) and ends a full superset of the exporter."""
        imported = sync.import_new(consumer, codec=codec,
                                   absorb_lines=absorbed.extend)
        assert imported > 0
        assert sync.stats.batches_delta_rejected == 0
        return imported

    def test_sidecar_written_next_to_queue(self, tmp_path):
        codec = LineCodec(self.LINES)
        producer, _psync = self._producer(tmp_path, codec)
        sidecar = worker_queue_dir(tmp_path, 1) / COVERAGE_SIDECAR
        assert sidecar.exists()
        from repro.coverage import delta
        from repro.parallel import checksum
        chunks = checksum.unpack_chunks(checksum.unseal(sidecar.read_bytes()))
        meta = json.loads(chunks[0])
        assert meta["records"] == len(producer.queue)
        assert meta["universe"] == len(codec.universe)
        assert meta["flagged"] == [0]  # the seed ships no coverage
        side = delta.decode(chunks[1])
        assert side.full
        rebuilt = bytearray(len(producer.virgin.bits))
        delta.apply_runs(rebuilt, side.runs)
        assert rebuilt == producer.virgin.bits
        # One packed line payload per skippable record.
        assert len(chunks) == 2 + meta["records"] - 1

    def test_superset_reader_rejects_batch_without_reading_records(
            self, tmp_path):
        codec = LineCodec(self.LINES)
        producer, psync = self._producer(tmp_path, codec)
        executions = []
        consumer = make_engine(seed=2,
                               execute=self._novel_lines_execute(executions))
        consumer.virgin.merge_bits(producer.virgin.snapshot())
        sync = make_sync(tmp_path, 0, "v2")
        absorbed = []
        self._catch_up(tmp_path, codec, consumer, sync, absorbed)

        producer.run(3)
        psync.export(producer, codec=codec)
        consumer.virgin.merge_bits(producer.virgin.snapshot())
        skipped_before = consumer.stats.imports_skipped_subsumed
        executed_before = len(executions)
        imported = sync.import_new(consumer, codec=codec,
                                   absorb_lines=absorbed.extend)
        assert imported == 3
        assert sync.stats.batches_delta_rejected == 1
        assert consumer.stats.imports_skipped_subsumed == skipped_before + 3
        assert len(executions) == executed_before  # nothing executed
        # The fresh records' own lines were absorbed from the sidecar.
        fresh_lines = {e.lines for e in producer.queue.entries[-3:]}
        assert all(line in absorbed
                   for lines in fresh_lines for line in lines)
        # The cursor really advanced: nothing left to import.
        assert sync.import_new(consumer, codec=codec) == 0

    def test_batch_and_per_record_paths_are_equivalent(self, tmp_path):
        """The acceptance pin: a delta-plane reader and a per-record
        reader observe identical engine state from the same queue."""
        codec = LineCodec(self.LINES)
        producer, psync = self._producer(tmp_path, codec)

        readers = {}
        for worker, delta_plane in ((0, True), (2, False)):
            consumer = make_engine(seed=2,
                                   execute=self._novel_lines_execute())
            consumer.virgin.merge_bits(producer.virgin.snapshot())
            sync = SyncDirectory(tmp_path, worker=worker, total_workers=3,
                                 sync_format="v2", delta_plane=delta_plane)
            absorbed = []
            sync.import_new(consumer, codec=codec,
                            absorb_lines=absorbed.extend)
            readers[worker] = (consumer, sync, absorbed)

        producer.run(3)
        psync.export(producer, codec=codec)
        for worker, (consumer, sync, absorbed) in readers.items():
            consumer.virgin.merge_bits(producer.virgin.snapshot())
            sync.import_new(consumer, codec=codec,
                            absorb_lines=absorbed.extend)

        on, off = readers[0], readers[2]
        assert on[1].stats.batches_delta_rejected == 1
        assert off[1].stats.batches_delta_rejected == 0
        assert on[0].stats.imported == off[0].stats.imported
        assert (on[0].stats.imports_skipped_subsumed
                == off[0].stats.imports_skipped_subsumed)
        assert sorted(set(on[2])) == sorted(set(off[2]))
        assert bytes(on[0].virgin.bits) == bytes(off[0].virgin.bits)

    @pytest.mark.parametrize("damage", ["corrupt", "stale", "missing"])
    def test_unusable_sidecar_falls_back_to_per_record(self, tmp_path,
                                                       damage):
        codec = LineCodec(self.LINES)
        producer, psync = self._producer(tmp_path, codec)
        consumer = make_engine(seed=2, execute=self._novel_lines_execute())
        consumer.virgin.merge_bits(producer.virgin.snapshot())
        sync = make_sync(tmp_path, 0, "v2")
        self._catch_up(tmp_path, codec, consumer, sync, [])

        producer.run(3)
        psync.export(producer, codec=codec)
        sidecar = worker_queue_dir(tmp_path, 1) / COVERAGE_SIDECAR
        if damage == "corrupt":
            raw = bytearray(sidecar.read_bytes())
            raw[len(raw) // 2] ^= 0xFF
            sidecar.write_bytes(bytes(raw))
        elif damage == "stale":
            # A sidecar describing the previous, shorter manifest.
            producer2 = make_engine(seed=1,
                                    execute=self._novel_lines_execute())
            producer2.run(3)
            stale_root = tmp_path / "stale"
            make_sync(stale_root, 1, "v2").export(producer2, codec=codec)
            sidecar.write_bytes(
                (worker_queue_dir(stale_root, 1) / COVERAGE_SIDECAR)
                .read_bytes())
        else:
            sidecar.unlink()

        consumer.virgin.merge_bits(producer.virgin.snapshot())
        skipped_before = consumer.stats.imports_skipped_subsumed
        imported = sync.import_new(consumer, codec=codec)
        assert imported == 3
        assert sync.stats.batches_delta_rejected == 0
        # Per-record filtering still absorbed every record.
        assert consumer.stats.imports_skipped_subsumed == skipped_before + 3

    @pytest.mark.parametrize("meta", [[], "meta", {"flagged": ["x", 1]},
                                      {"flagged": 5}])
    def test_misshapen_sealed_meta_falls_back_to_per_record(self, tmp_path,
                                                             meta):
        """A correctly sealed sidecar whose meta chunk has the wrong
        shape declines the batch instead of raising out of the import."""
        from repro.parallel import checksum
        codec = LineCodec(self.LINES)
        producer, psync = self._producer(tmp_path, codec)
        consumer = make_engine(seed=2, execute=self._novel_lines_execute())
        consumer.virgin.merge_bits(producer.virgin.snapshot())
        sync = make_sync(tmp_path, 0, "v2")
        self._catch_up(tmp_path, codec, consumer, sync, [])

        producer.run(3)
        psync.export(producer, codec=codec)
        sidecar = worker_queue_dir(tmp_path, 1) / COVERAGE_SIDECAR
        chunks = checksum.unpack_chunks(checksum.unseal(sidecar.read_bytes()))
        chunks[0] = json.dumps(meta).encode()
        sidecar.write_bytes(checksum.seal(checksum.pack_chunks(chunks)))

        consumer.virgin.merge_bits(producer.virgin.snapshot())
        skipped_before = consumer.stats.imports_skipped_subsumed
        imported = sync.import_new(consumer, codec=codec)
        assert imported == 3
        assert sync.stats.batches_delta_rejected == 0
        assert consumer.stats.imports_skipped_subsumed == skipped_before + 3

    def test_novel_partner_coverage_declines_the_batch(self, tmp_path):
        codec = LineCodec(self.LINES)
        producer, psync = self._producer(tmp_path, codec)
        executions = []
        consumer = make_engine(seed=2,
                               execute=self._novel_lines_execute(executions))
        sync = make_sync(tmp_path, 0, "v2")
        # No superset merge: the partner's map holds bits this reader
        # has never seen, so the whole-batch subsumption must fail and
        # every record must execute.
        imported = sync.import_new(consumer, codec=codec)
        assert imported == len(producer.queue)
        assert sync.stats.batches_delta_rejected == 0
        assert consumer.stats.imports_skipped_subsumed == 0

    def test_torn_tail_declines_batch_then_heals(self, tmp_path):
        codec = LineCodec(self.LINES)
        producer, psync = self._producer(tmp_path, codec)
        consumer = make_engine(seed=2, execute=self._novel_lines_execute())
        consumer.virgin.merge_bits(producer.virgin.snapshot())
        sync = make_sync(tmp_path, 0, "v2")
        self._catch_up(tmp_path, codec, consumer, sync, [])

        producer.run(3)
        psync.export(producer, codec=codec)
        consumer.virgin.merge_bits(producer.virgin.snapshot())

        # Tear the append tail the way a partner crash would: the batch
        # prefix reaches the manifest end, so the O(1) tail CRC check
        # must catch it and decline the whole batch.
        from repro.parallel.wire import read_manifest
        queue_dir = worker_queue_dir(tmp_path, 1)
        offset, length, _crc = read_manifest(queue_dir)[-1]
        raw = bytearray((queue_dir / QUEUE_BIN).read_bytes())
        original = raw[offset + 5]
        raw[offset + 5] ^= 0xFF
        (queue_dir / QUEUE_BIN).write_bytes(bytes(raw))

        imported = sync.import_new(consumer, codec=codec)
        assert sync.stats.batches_delta_rejected == 0
        assert imported == 2  # the torn record parked on the retry list
        assert consumer.stats.import_skipped == 1

        # Heal the tail; the retry set forces the per-record path.
        raw[offset + 5] = original
        (queue_dir / QUEUE_BIN).write_bytes(bytes(raw))
        assert sync.import_new(consumer, codec=codec) == 1
        assert consumer.stats.import_skipped == 1  # counted once

    def test_delta_plane_off_writes_no_sidecar(self, tmp_path):
        codec = LineCodec(self.LINES)
        producer = make_engine(seed=1, execute=self._novel_lines_execute())
        producer.run(2)
        psync = make_sync(tmp_path, 1, "v2")
        psync.delta_plane = False
        psync.export(producer, codec=codec)
        assert not (worker_queue_dir(tmp_path, 1) / COVERAGE_SIDECAR).exists()

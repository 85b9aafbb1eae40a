"""Wave-aligned checkpointing and crash recovery (``repro.checkpoint``).

Covers the acceptance criteria of the subsystem:

* a seeded SCWF Linear Road run killed mid-stream at a checkpoint
  boundary and resumed from disk produces **bit-identical** sink output
  and statistics versus the uninterrupted run;
* a corrupted latest snapshot in a :class:`DirectoryCheckpointStore`
  falls back to the previous valid manifest — both at the store level
  and through a full resume;
* store unit behaviour (atomic layout, retention, CRC verification);
* dead-letter replay through the restored engine;
* ``FaultPolicy.coerce`` stays warning-free.
"""

import warnings
from dataclasses import replace

import pytest

from repro.checkpoint import (
    capture_snapshot,
    CheckpointManifest,
    deserialize_snapshot,
    DirectoryCheckpointStore,
    EngineCheckpointer,
    MemoryCheckpointStore,
    restore_latest,
    restore_snapshot,
    serialize_snapshot,
    structure_fingerprint,
)
from repro.core import MapActor, SinkActor, SourceActor, Workflow
from repro.core.exceptions import CheckpointError
from repro.harness.configs import ExperimentConfig, SchedulerSpec
from repro.harness.experiment import (
    checkpoint_meta,
    config_from_meta,
    restore_engine,
    resume_run,
    run_once,
)
from repro.observability import RecordingTracer, use_tracer
from repro.resilience import FaultPolicy, replay_dead_letters
from repro.simulation import CostModel, SimulationRuntime, VirtualClock
from repro.stafilos import RoundRobinScheduler, SCWFDirector


def _manifest(checkpoint_id, payload=b"payload", **meta):
    import zlib

    return CheckpointManifest(
        checkpoint_id=checkpoint_id,
        engine_time_us=checkpoint_id * 1_000_000,
        payload_bytes=len(payload),
        crc32=zlib.crc32(payload),
        created_at=0.0,
        meta=dict(meta),
    )


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------
class TestMemoryStore:
    def test_save_load_roundtrip(self):
        store = MemoryCheckpointStore()
        store.save(_manifest(1, b"abc"), b"abc")
        manifest, payload = store.load(1)
        assert manifest.checkpoint_id == 1
        assert payload == b"abc"

    def test_retention_evicts_oldest(self):
        store = MemoryCheckpointStore(retain=2)
        for cid in (1, 2, 3):
            store.save(_manifest(cid), b"payload")
        assert [m.checkpoint_id for m in store.manifests()] == [2, 3]
        with pytest.raises(CheckpointError):
            store.load(1)

    def test_latest_skips_corrupt(self):
        store = MemoryCheckpointStore()
        store.save(_manifest(1, b"first"), b"first")
        store.save(_manifest(2, b"second"), b"second")
        store.corrupt(2)
        manifest, payload = store.latest()
        assert manifest.checkpoint_id == 1
        assert payload == b"first"

    def test_latest_none_when_empty(self):
        assert MemoryCheckpointStore().latest() is None


class TestDirectoryStore:
    def test_atomic_layout_on_disk(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        store.save(_manifest(1, b"abc"), b"abc")
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ckpt-00000001.bin", "ckpt-00000001.json"]
        assert not list(tmp_path.glob("*.tmp"))

    def test_manifest_json_roundtrip(self):
        manifest = _manifest(7, b"xyz", scheduler="QBS", seed=3)
        again = CheckpointManifest.from_json(manifest.to_json())
        assert again == manifest

    def test_retention_prunes_files(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path, retain=2)
        for cid in (1, 2, 3, 4):
            store.save(_manifest(cid), b"payload")
        assert [m.checkpoint_id for m in store.manifests()] == [3, 4]
        assert len(list(tmp_path.glob("ckpt-*.bin"))) == 2

    def test_corrupted_latest_falls_back_to_previous_valid(self, tmp_path):
        """Acceptance criterion: torn latest snapshot degrades, not dies."""
        store = DirectoryCheckpointStore(tmp_path)
        store.save(_manifest(1, b"first"), b"first")
        store.save(_manifest(2, b"second"), b"second")
        # Simulate a bit-rotted payload: manifest CRC no longer matches.
        (tmp_path / "ckpt-00000002.bin").write_bytes(b"sec\0nd")
        manifest, payload = store.latest()
        assert manifest.checkpoint_id == 1
        assert payload == b"first"

    def test_missing_payload_falls_back(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        store.save(_manifest(1, b"first"), b"first")
        store.save(_manifest(2, b"second"), b"second")
        (tmp_path / "ckpt-00000002.bin").unlink()
        manifest, _ = store.latest()
        assert manifest.checkpoint_id == 1

    def test_load_missing_raises(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        with pytest.raises(CheckpointError):
            store.load(42)


# ----------------------------------------------------------------------
# Snapshot round-trip on a small engine
# ----------------------------------------------------------------------
def _small_engine(fail_on=None):
    """source -> double -> sink under an RR-scheduled SCWF director."""
    workflow = Workflow("small")
    arrivals = [(i * 100_000, i) for i in range(20)]
    source = SourceActor("src", arrivals=arrivals)
    source.add_output("out")

    def transform(value):
        if fail_on is not None and fail_on(value):
            raise ValueError(f"boom on {value}")
        return value * 2

    worker = MapActor("double", transform)
    sink = SinkActor("sink")
    workflow.add_all([source, worker, sink])
    workflow.connect(source, worker)
    workflow.connect(worker, sink)
    clock = VirtualClock()
    director = SCWFDirector(
        RoundRobinScheduler(10_000),
        clock,
        CostModel(seed=5),
        error_policy=FaultPolicy(),
    )
    director.attach(workflow)
    return director, clock, sink


class TestSnapshotRoundTrip:
    def test_mid_run_snapshot_restores_onto_fresh_engine(self):
        director, clock, sink = _small_engine()
        runtime = SimulationRuntime(director, clock)
        runtime.run(1.0)
        snapshot = serialize_snapshot(capture_snapshot(director))
        runtime.run(3.0)
        reference = list(sink.values)

        fresh_director, fresh_clock, fresh_sink = _small_engine()
        fresh_director.initialize_all()
        restore_snapshot(fresh_director, deserialize_snapshot(snapshot))
        SimulationRuntime(fresh_director, fresh_clock).run(3.0)
        assert fresh_sink.values == reference
        assert (
            fresh_director.total_internal_firings
            == director.total_internal_firings
        )

    def test_fingerprint_mismatch_rejected(self):
        director, clock, _ = _small_engine()
        SimulationRuntime(director, clock).run(0.5)
        snapshot = capture_snapshot(director)

        other = Workflow("other")
        src = SourceActor("src2", arrivals=[(0, 1)])
        src.add_output("out")
        sink = SinkActor("snk")
        other.add_all([src, sink])
        other.connect(src, sink)
        other_clock = VirtualClock()
        other_director = SCWFDirector(
            RoundRobinScheduler(10_000), other_clock, CostModel()
        )
        other_director.attach(other)
        other_director.initialize_all()
        with pytest.raises(CheckpointError):
            restore_snapshot(other_director, snapshot)

    def test_fingerprint_shape(self):
        director, _, _ = _small_engine()
        fingerprint = structure_fingerprint(director)
        assert fingerprint["workflow"] == "small"
        assert set(fingerprint["actors"]) == {"src", "double", "sink"}

    def test_corrupt_payload_raises_checkpoint_error(self):
        director, clock, _ = _small_engine()
        SimulationRuntime(director, clock).run(0.5)
        payload = serialize_snapshot(capture_snapshot(director))
        with pytest.raises(CheckpointError):
            deserialize_snapshot(payload[: len(payload) // 2])


class TestEngineCheckpointer:
    def test_periodic_trigger_on_engine_time_grid(self):
        director, clock, _ = _small_engine()
        store = MemoryCheckpointStore(retain=10)
        checkpointer = EngineCheckpointer(
            director, store, every_us=500_000
        )
        SimulationRuntime(director, clock, checkpointer=checkpointer).run(
            2.0
        )
        manifests = store.manifests()
        assert len(manifests) >= 3
        times = [m.engine_time_us for m in manifests]
        assert times == sorted(times)
        assert all(t >= 500_000 for t in times)

    def test_manifests_are_deterministic(self):
        """Regression: ``created_at`` used to stamp wall-clock
        ``time.time()``, so two identical seeded runs published
        different manifest bytes.  It now derives from engine time.

        The payload embeds process-global sequence counters (event
        admission, window serials) whose pickled widths depend on what
        ran earlier in the process, so each run gets a fresh
        interpreter and the full manifests — ``crc32`` and
        ``payload_bytes`` included — must repeat exactly.  The payload
        also carries the wall-clock duration of the previous checkpoint
        (``checkpoint_duration_us_*`` engine counters), so both runs
        read a frozen ``time.perf_counter``.
        """
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        script = (
            "import json\n"
            "import time\n"
            "time.perf_counter = lambda: 0.0\n"
            "from repro.checkpoint import EngineCheckpointer, "
            "MemoryCheckpointStore\n"
            "from repro.simulation import SimulationRuntime\n"
            "from tests.test_checkpoint import _small_engine\n"
            "director, clock, _ = _small_engine()\n"
            "store = MemoryCheckpointStore(retain=10)\n"
            "checkpointer = EngineCheckpointer(\n"
            "    director, store, every_us=500_000, meta={'seed': 7}\n"
            ")\n"
            "SimulationRuntime(director, clock, "
            "checkpointer=checkpointer).run(2.0)\n"
            "print(json.dumps("
            "[json.loads(m.to_json()) for m in store.manifests()]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), str(root), env.get("PYTHONPATH")])
        )

        def manifests():
            completed = subprocess.run(
                [sys.executable, "-c", script],
                cwd=root,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert completed.returncode == 0, completed.stderr
            return json.loads(completed.stdout)

        first = manifests()
        assert first  # the run actually checkpointed
        assert all("crc32" in m and "payload_bytes" in m for m in first)
        assert first == manifests()

    def test_created_at_clock_injectable(self):
        director, clock, _ = _small_engine()
        store = MemoryCheckpointStore()
        checkpointer = EngineCheckpointer(
            director, store, created_at_clock=lambda: 123.5
        )
        SimulationRuntime(director, clock).run(0.5)
        manifest = checkpointer.checkpoint()
        assert manifest.created_at == 123.5
        assert "wall_time" not in manifest.meta

    def test_created_at_defaults_to_engine_seconds(self):
        director, clock, _ = _small_engine()
        store = MemoryCheckpointStore()
        checkpointer = EngineCheckpointer(director, store)
        SimulationRuntime(director, clock).run(0.5)
        manifest = checkpointer.checkpoint()
        assert manifest.created_at == manifest.engine_time_us / 1_000_000.0

    def test_record_wall_time_opts_back_in(self):
        import time as _time

        director, clock, _ = _small_engine()
        store = MemoryCheckpointStore()
        checkpointer = EngineCheckpointer(
            director, store, record_wall_time=True
        )
        SimulationRuntime(director, clock).run(0.5)
        before = _time.time()
        manifest = checkpointer.checkpoint()
        assert before <= manifest.meta["wall_time"] <= _time.time()

    def test_disabled_without_interval(self):
        director, clock, _ = _small_engine()
        store = MemoryCheckpointStore()
        checkpointer = EngineCheckpointer(director, store, every_us=None)
        SimulationRuntime(director, clock, checkpointer=checkpointer).run(
            2.0
        )
        assert store.manifests() == []

    def test_explicit_checkpoint_and_restore_counters(self):
        director, clock, _ = _small_engine()
        store = MemoryCheckpointStore()
        checkpointer = EngineCheckpointer(director, store)
        SimulationRuntime(director, clock).run(1.0)
        manifest = checkpointer.checkpoint()
        assert manifest.payload_bytes > 0
        counters = director.statistics.engine_counters
        assert counters["checkpoints_total"] == 1
        assert counters["checkpoint_bytes_last"] == manifest.payload_bytes

        restored = restore_latest(director, store)
        assert restored.checkpoint_id == manifest.checkpoint_id
        assert (
            director.statistics.engine_counters["checkpoint_restores_total"]
            == 1
        )

    def test_trace_events_emitted(self):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            director, clock, _ = _small_engine()
            store = MemoryCheckpointStore()
            checkpointer = EngineCheckpointer(director, store)
            SimulationRuntime(director, clock).run(0.5)
            checkpointer.checkpoint()
            restore_latest(director, store)
        names = [record.name for record in tracer.records()]
        assert "checkpoint.begin" in names
        assert "checkpoint.complete" in names
        assert "checkpoint.restore" in names

    def test_engine_counters_reach_prometheus_and_reports(self):
        from repro.harness.reporting import render_statistics
        from repro.observability import export_prometheus

        director, clock, _ = _small_engine()
        store = MemoryCheckpointStore()
        EngineCheckpointer(director, store).checkpoint(now_us=0)
        text = export_prometheus(director.statistics)
        assert "repro_engine_checkpoints_total 1" in text
        table = render_statistics(director.statistics)
        assert "engine counters:" in table
        assert "checkpoints_total" in table


# ----------------------------------------------------------------------
# Crash + resume on the Linear Road benchmark (acceptance criterion)
# ----------------------------------------------------------------------
class _CrashAfter(DirectoryCheckpointStore):
    """Directory store that kills the run right after its Nth snapshot."""

    def __init__(self, directory, crash_after: int, retain: int = 3):
        super().__init__(directory, retain=retain)
        self.crash_after = crash_after
        self.saves = 0

    def save(self, manifest, payload):
        super().save(manifest, payload)  # publish first: a real crash
        self.saves += 1  # happens *after* the atomic rename
        if self.saves >= self.crash_after:
            raise KeyboardInterrupt("simulated crash")


def _short_config(**overrides) -> ExperimentConfig:
    config = ExperimentConfig(
        scheduler=SchedulerSpec("RR", quantum_us=10_000), seeds=(7,)
    )
    return replace(config.scaled_duration(60), **overrides)


@pytest.fixture(scope="module")
def reference_run():
    """The uninterrupted seeded run every crash variant must reproduce."""
    return run_once(_short_config(), 7)


class TestCrashResumeBitIdentical:
    def test_killed_run_resumes_bit_identical(self, tmp_path, reference_run):
        config = _short_config(
            checkpoint_dir=str(tmp_path), checkpoint_every_s=10.0
        )
        store = _CrashAfter(tmp_path, crash_after=3)
        from repro.harness.experiment import _execute_seed

        with pytest.raises(KeyboardInterrupt):
            _execute_seed(config, 7, store=store)
        assert store.manifests(), "crash must leave snapshots behind"

        resumed, _, _, manifest = resume_run(str(tmp_path))
        assert manifest.checkpoint_id == 3
        assert resumed.series.times_s == reference_run.series.times_s
        assert (
            resumed.series.responses_s == reference_run.series.responses_s
        )
        assert resumed.tolls == reference_run.tolls
        assert resumed.alerts == reference_run.alerts
        assert (
            resumed.internal_firings == reference_run.internal_firings
        )

    def test_killed_train_run_resumes_bit_identical(
        self, tmp_path, reference_run
    ):
        """Event trains leave nothing extra to checkpoint.

        A ``train_size=64`` run killed mid-stream and resumed from disk
        must reproduce the *per-event* uninterrupted reference exactly:
        snapshots happen at iteration boundaries where every train has
        fully flushed, and bit-identity makes the train width invisible
        to everything but the wall clock.
        """
        config = _short_config(
            checkpoint_dir=str(tmp_path),
            checkpoint_every_s=10.0,
            train_size=64,
        )
        store = _CrashAfter(tmp_path, crash_after=3)
        from repro.harness.experiment import _execute_seed

        with pytest.raises(KeyboardInterrupt):
            _execute_seed(config, 7, store=store)

        resumed, director, _, manifest = resume_run(str(tmp_path))
        assert manifest.checkpoint_id == 3
        assert director.train_size == 64  # meta round-trip
        assert resumed.series.times_s == reference_run.series.times_s
        assert (
            resumed.series.responses_s == reference_run.series.responses_s
        )
        assert resumed.tolls == reference_run.tolls
        assert resumed.alerts == reference_run.alerts
        assert (
            resumed.internal_firings == reference_run.internal_firings
        )

    def test_resume_with_corrupted_latest_uses_previous(
        self, tmp_path, reference_run
    ):
        """Full-system version of the corrupt-fallback criterion."""
        config = _short_config(
            checkpoint_dir=str(tmp_path), checkpoint_every_s=10.0
        )
        run_once(config, 7)
        store = DirectoryCheckpointStore(tmp_path)
        newest = store.manifests()[-1].checkpoint_id
        payload_path = tmp_path / f"ckpt-{newest:08d}.bin"
        payload_path.write_bytes(payload_path.read_bytes()[:-1] + b"\0")

        resumed, _, _, manifest = resume_run(str(tmp_path))
        assert manifest.checkpoint_id == newest - 1
        assert (
            resumed.series.responses_s == reference_run.series.responses_s
        )
        assert resumed.tolls == reference_run.tolls

    def test_checkpointed_run_matches_plain_run(
        self, tmp_path, reference_run
    ):
        """Snapshotting must be observation-only: no heisen-divergence."""
        config = _short_config(
            checkpoint_dir=str(tmp_path), checkpoint_every_s=10.0
        )
        checked = run_once(config, 7)
        assert (
            checked.series.responses_s == reference_run.series.responses_s
        )
        assert checked.tolls == reference_run.tolls
        assert checked.internal_firings == reference_run.internal_firings

    def test_manifest_meta_rebuilds_config(self):
        config = _short_config(checkpoint_every_s=10.0)
        meta = checkpoint_meta(config, 7)
        rebuilt, seed = config_from_meta(meta, checkpoint_dir="/tmp/x")
        assert seed == 7
        assert rebuilt.scheduler == config.scheduler
        assert rebuilt.workload == config.workload
        assert rebuilt.checkpoint_every_s == 10.0
        assert rebuilt.checkpoint_dir == "/tmp/x"

    def test_restore_engine_inspects_without_running(self, tmp_path):
        config = _short_config(
            checkpoint_dir=str(tmp_path), checkpoint_every_s=20.0
        )
        run_once(config, 7)
        director, system, manifest, rebuilt, seed = restore_engine(
            str(tmp_path)
        )
        assert seed == 7
        assert manifest.engine_time_us >= 20_000_000
        assert director.current_time() > 0
        assert rebuilt.scheduler == config.scheduler

    def test_config_from_meta_rejects_garbage(self):
        with pytest.raises(CheckpointError):
            config_from_meta({"workload": {}})


# ----------------------------------------------------------------------
# Dead-letter replay
# ----------------------------------------------------------------------
class TestDeadLetterReplay:
    def test_replay_reinjects_after_fix(self):
        poison = {3}
        director, clock, sink = _small_engine(
            fail_on=lambda v: v in poison
        )
        SimulationRuntime(director, clock).run(3.0)
        assert len(director.supervisor.dead_letters) == 1
        assert sorted(sink.values) == [
            i * 2 for i in range(20) if i != 3
        ]

        poison.clear()  # "fix the bug", then give the item a second chance
        replayed = replay_dead_letters(director, clock.now_us)
        assert replayed == 1
        director.run_to_quiescence(clock.now_us)
        assert sorted(sink.values) == [i * 2 for i in range(20)]
        assert len(director.supervisor.dead_letters) == 0

    def test_unreplayable_letters_stay_parked(self):
        from repro.resilience import DeadLetter

        director, clock, _ = _small_engine()
        director.supervisor.dead_letters.append(
            DeadLetter(
                actor="src",
                port=None,  # source pump failure: nothing to re-inject
                item=41,
                error_type="ValueError",
                error_message="x",
                attempts=1,
                timestamp_us=0,
            )
        )
        assert replay_dead_letters(director, 0) == 0
        assert len(director.supervisor.dead_letters) == 1

    def test_replay_survives_checkpoint_roundtrip(self):
        poison = {5}
        director, clock, sink = _small_engine(
            fail_on=lambda v: v in poison
        )
        store = MemoryCheckpointStore()
        runtime = SimulationRuntime(director, clock)
        runtime.run(3.0)
        EngineCheckpointer(director, store).checkpoint()

        fresh_director, fresh_clock, fresh_sink = _small_engine()
        fresh_director.initialize_all()
        restore_latest(fresh_director, store)
        assert len(fresh_director.supervisor.dead_letters) == 1
        replayed = replay_dead_letters(fresh_director)
        assert replayed == 1
        fresh_director.run_to_quiescence(fresh_director.current_time())
        assert sorted(fresh_sink.values) == [i * 2 for i in range(20)]


# ----------------------------------------------------------------------
# Live PNCWF barrier checkpoints
# ----------------------------------------------------------------------
def _live_engine():
    """A small live thread-per-actor pipeline, replayed 50x fast."""
    import time as _time

    from repro.directors.pncwf import PNCWFDirector

    workflow = Workflow("live-ck")
    source = SourceActor(
        "src", arrivals=[(i * 100_000, i) for i in range(12)]
    )
    source.add_output("out")
    worker = MapActor("triple", lambda v: v * 3)
    sink = SinkActor("sink")
    workflow.add_all([source, worker, sink])
    workflow.connect(source, worker)
    workflow.connect(worker, sink)
    director = PNCWFDirector(time_scale=50.0, poll_timeout_s=0.01)
    director.attach(workflow)
    return director, sink


class TestLivePNCWFBarrier:
    def test_barrier_checkpoint_while_running(self):
        import time as _time

        director, sink = _live_engine()
        store = MemoryCheckpointStore()
        checkpointer = EngineCheckpointer(director, store)
        director.initialize_all()
        director.start()
        try:
            deadline = _time.monotonic() + 5.0
            while _time.monotonic() < deadline and len(sink.items) < 3:
                _time.sleep(0.01)
            seen_at_checkpoint = len(sink.items)
            manifest = checkpointer.checkpoint()
            assert manifest.payload_bytes > 0
            assert manifest.engine_time_us > 0
            # The gate must lift again: the run keeps making progress.
            deadline = _time.monotonic() + 5.0
            while (
                _time.monotonic() < deadline and len(sink.items) < 12
            ):
                _time.sleep(0.01)
            assert len(sink.items) >= seen_at_checkpoint
            assert sorted(sink.values) == [i * 3 for i in range(12)]
        finally:
            director.stop()

    def test_live_restore_resumes_event_clock_and_state(self):
        import time as _time

        director, sink = _live_engine()
        store = MemoryCheckpointStore()
        checkpointer = EngineCheckpointer(director, store)
        director.initialize_all()
        director.start()
        try:
            deadline = _time.monotonic() + 5.0
            while _time.monotonic() < deadline and len(sink.items) < 4:
                _time.sleep(0.01)
            checkpointer.checkpoint()
        finally:
            director.stop()

        fresh_director, fresh_sink = _live_engine()
        fresh_director.initialize_all()
        manifest = restore_latest(fresh_director, store)
        # Event time resumes at (not before) the snapshot's engine time.
        assert fresh_director.current_time() >= manifest.engine_time_us
        already = len(fresh_sink.items)
        fresh_director.start()
        try:
            deadline = _time.monotonic() + 5.0
            while (
                _time.monotonic() < deadline
                and len(fresh_sink.items) < 12
            ):
                _time.sleep(0.01)
        finally:
            fresh_director.stop()
        # The restored source cursor replays only the unplayed tail: the
        # union of pre-crash state and post-restore output is complete
        # and duplicate-free.
        assert sorted(fresh_sink.values) == [i * 3 for i in range(12)]
        assert len(fresh_sink.items) >= already

    def test_run_for_drives_periodic_checkpoints(self):
        director, sink = _live_engine()
        store = MemoryCheckpointStore(retain=100)
        checkpointer = EngineCheckpointer(
            director, store, every_us=200_000
        )
        director.initialize_all()
        director.start()
        try:
            # 30 event-seconds = ~600ms wall at 50x: a dozen poll ticks.
            director.run_for(30.0, checkpointer=checkpointer)
        finally:
            director.stop()
        assert len(store.manifests()) >= 2


# ----------------------------------------------------------------------
# error_policy takes FaultPolicy instances only
# ----------------------------------------------------------------------
class TestErrorPolicyDeprecation:
    def test_policy_instances_never_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FaultPolicy.coerce(FaultPolicy(max_retries=1))
            FaultPolicy.coerce(None)

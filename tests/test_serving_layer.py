"""The multi-tenant serving layer: registry, sessions, tick loop, service.

The load-bearing contracts:

- **Registry round trip** — d-vectors and model checkpoints reloaded from
  disk (same process or a fresh one) protect **bit-identically** to the
  instances that were saved.
- **Serving transparency** — shadow waves collected through the service
  (shared StreamBatch, background tick thread, interleaved tenants) are
  bit-identical to a dedicated immediate-mode ``StreamingProtector`` per
  stream.
- **Graceful lifecycle** — closing sessions/services drains every submitted
  segment, reclaims the tick thread, and refuses further feeds; a failed tick
  loop still leaves a fully torn-down service behind.
"""

import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.audio.signal import AudioSignal
from repro.core import NECConfig, NECSystem, StreamBatch, StreamingProtector
from repro.serving import (
    EnrollmentRegistry,
    ProtectionService,
    SessionState,
    TickLoop,
)


@pytest.fixture(scope="module")
def tiny_config():
    return NECConfig.tiny()


@pytest.fixture(scope="module")
def system(tiny_config):
    rng = np.random.default_rng(7)
    built = NECSystem(tiny_config, seed=0)
    built.enroll(
        [
            AudioSignal(
                rng.normal(scale=0.1, size=tiny_config.segment_samples),
                tiny_config.sample_rate,
            )
        ]
    )
    return built


def _reference(config):
    rng = np.random.default_rng(13)
    return [
        AudioSignal(
            rng.normal(scale=0.1, size=config.segment_samples), config.sample_rate
        )
    ]


class TestEnrollmentRegistry:
    def test_register_embedding_forget(self, tiny_config):
        registry = EnrollmentRegistry(None, config=tiny_config)
        vector = np.linspace(-1, 1, tiny_config.embedding_dim)
        stored = registry.register("alice", vector)
        np.testing.assert_array_equal(stored, vector)
        assert "alice" in registry
        assert registry.tenants() == ["alice"]
        np.testing.assert_array_equal(registry.embedding("alice"), vector)
        # Defensive copies: mutating the returned array must not corrupt state.
        registry.embedding("alice")[0] = 999.0
        np.testing.assert_array_equal(registry.embedding("alice"), vector)
        registry.forget("alice")
        assert "alice" not in registry
        with pytest.raises(KeyError):
            registry.embedding("alice")

    @pytest.mark.parametrize("bad_id", ["", ".hidden", "a/b", "x" * 65, "sp ace"])
    def test_invalid_tenant_ids_rejected(self, tiny_config, bad_id):
        registry = EnrollmentRegistry(None, config=tiny_config)
        with pytest.raises(ValueError):
            registry.register(bad_id, np.zeros(tiny_config.embedding_dim))

    def test_wrong_dimension_rejected(self, tiny_config):
        registry = EnrollmentRegistry(None, config=tiny_config)
        with pytest.raises(ValueError, match="d-vector"):
            registry.register("alice", np.zeros(tiny_config.embedding_dim + 1))

    def test_persistence_across_fresh_registry_objects(self, tiny_config, tmp_path):
        root = tmp_path / "registry"
        first = EnrollmentRegistry(root, config=tiny_config)
        vector = np.linspace(0, 1, tiny_config.embedding_dim)
        first.register("alice", vector)

        reloaded = EnrollmentRegistry(root)
        assert reloaded.config == tiny_config
        assert reloaded.tenants() == ["alice"]
        np.testing.assert_array_equal(reloaded.embedding("alice"), vector)

    def test_config_mismatch_raises(self, tiny_config, tmp_path):
        root = tmp_path / "registry"
        EnrollmentRegistry(root, config=tiny_config)
        other = NECConfig.default()
        with pytest.raises(ValueError, match="different NECConfig"):
            EnrollmentRegistry(root, config=other)

    def test_memory_only_cannot_persist_models(self, tiny_config, system):
        registry = EnrollmentRegistry(None, config=tiny_config)
        assert not registry.persistent
        with pytest.raises(RuntimeError):
            registry.save_models(system)
        with pytest.raises(RuntimeError):
            registry.load_system()

    def test_model_roundtrip_protects_bit_identically(self, tiny_config, system, tmp_path):
        registry = EnrollmentRegistry(tmp_path / "registry", config=tiny_config)
        registry.save_models(system)
        registry.enroll("alice", _reference(tiny_config), system.encoder)

        restored = registry.load_system()
        restored.set_embedding(registry.embedding("alice"))
        rng = np.random.default_rng(21)
        clip = AudioSignal(
            rng.normal(scale=0.1, size=int(1.7 * tiny_config.segment_samples)),
            tiny_config.sample_rate,
        )
        direct = NECSystem(
            tiny_config, encoder=system.encoder, selector=system.selector
        )
        direct.set_embedding(registry.embedding("alice"))
        np.testing.assert_array_equal(
            restored.protect(clip).shadow_wave.data,
            direct.protect(clip).shadow_wave.data,
        )

    def test_fresh_process_reload_is_bit_identical(self, tiny_config, system, tmp_path):
        """The acceptance path: save → reload in a *new* process → protect."""
        root = tmp_path / "registry"
        registry = EnrollmentRegistry(root, config=tiny_config)
        registry.save_models(system)
        registry.enroll("alice", _reference(tiny_config), system.encoder)

        rng = np.random.default_rng(33)
        clip = rng.normal(scale=0.1, size=tiny_config.segment_samples)
        expected_system = registry.load_system()
        expected_system.set_embedding(registry.embedding("alice"))
        expected = expected_system.protect(
            AudioSignal(clip, tiny_config.sample_rate)
        ).shadow_wave.data

        clip_path = tmp_path / "clip.npy"
        out_path = tmp_path / "shadow.npy"
        np.save(clip_path, clip)
        script = (
            "import numpy as np\n"
            "from repro.audio.signal import AudioSignal\n"
            "from repro.serving import EnrollmentRegistry\n"
            f"registry = EnrollmentRegistry({str(root)!r})\n"
            "system = registry.load_system()\n"
            "system.set_embedding(registry.embedding('alice'))\n"
            f"clip = np.load({str(clip_path)!r})\n"
            "result = system.protect(AudioSignal(clip, system.config.sample_rate))\n"
            f"np.save({str(out_path)!r}, result.shadow_wave.data)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            env={"PYTHONPATH": str(src)},
            timeout=300,
        )
        np.testing.assert_array_equal(np.load(out_path), expected)


class TestTickLoop:
    def test_wake_drives_a_tick(self, system, tiny_config):
        batch = StreamBatch(system.selector)
        loop = TickLoop(batch, poll_interval_s=0.01).start()
        try:
            spec = np.zeros((1, *tiny_config.spectrogram_shape))
            request = batch.submit(spec, system.embedding)
            loop.wake()
            assert loop.wait_for(lambda: request.done, timeout=10.0)
        finally:
            loop.shutdown()
            batch.close()

    def test_poll_fallback_ticks_without_wake(self, system, tiny_config):
        batch = StreamBatch(system.selector)
        loop = TickLoop(batch, poll_interval_s=0.01).start()
        try:
            request = batch.submit(
                np.zeros((1, *tiny_config.spectrogram_shape)), system.embedding
            )
            # No wake(): the poll interval alone must pick the work up.
            assert loop.wait_for(lambda: request.done, timeout=10.0)
        finally:
            loop.shutdown()
            batch.close()

    def test_shutdown_drains_pending_work(self, system, tiny_config):
        batch = StreamBatch(system.selector)
        loop = TickLoop(batch, poll_interval_s=5.0).start()  # too slow to poll
        requests = [
            batch.submit(
                np.zeros((1, *tiny_config.spectrogram_shape)), system.embedding
            )
            for _ in range(3)
        ]
        loop.shutdown(drain=True, timeout=60.0)
        batch.close()
        assert all(request.done for request in requests)
        assert not loop.running

    def test_tick_errors_surface_to_waiters(self, tiny_config):
        class Exploding:
            def shadow_spectrogram_batch(self, specs, vectors):
                raise RuntimeError("boom")

        batch = StreamBatch(Exploding())
        loop = TickLoop(batch, poll_interval_s=0.01).start()
        try:
            batch.submit(
                np.zeros((1, *tiny_config.spectrogram_shape)),
                np.zeros(tiny_config.embedding_dim),
            )
            loop.wake()
            with pytest.raises(RuntimeError, match="tick loop failed"):
                loop.wait_for(lambda: False, timeout=10.0)
            assert isinstance(loop.error, RuntimeError)
        finally:
            batch.close()


def _make_service(tiny_config, system, tmp_path, **kwargs):
    registry = EnrollmentRegistry(tmp_path / "registry", config=tiny_config)
    registry.save_models(system)
    registry.enroll("alice", _reference(tiny_config), system.encoder)
    rng = np.random.default_rng(99)
    registry.enroll(
        "bob",
        [
            AudioSignal(
                rng.normal(scale=0.1, size=tiny_config.segment_samples),
                tiny_config.sample_rate,
            )
        ],
        system.encoder,
    )
    kwargs.setdefault("poll_interval_s", 0.01)
    return ProtectionService(EnrollmentRegistry(tmp_path / "registry"), **kwargs)


class TestProtectionService:
    def test_unknown_tenant_rejected(self, tiny_config, system, tmp_path):
        with _make_service(tiny_config, system, tmp_path) as service:
            with pytest.raises(KeyError):
                service.open_session("mallory")

    def test_interleaved_tenants_bit_identical_to_direct(
        self, tiny_config, system, tmp_path
    ):
        """Two tenants coalescing through the live service change no bits."""
        rng = np.random.default_rng(55)
        segment = tiny_config.segment_samples
        audio = {
            "alice": rng.normal(scale=0.1, size=2 * segment + segment // 4),
            "bob": rng.normal(scale=0.1, size=2 * segment),
        }
        chunk = segment // 2

        with _make_service(tiny_config, system, tmp_path) as service:
            reference = {}
            for tenant, samples in audio.items():
                direct = NECSystem(
                    tiny_config, encoder=system.encoder, selector=system.selector
                )
                direct.set_embedding(service.registry.embedding(tenant))
                protector = StreamingProtector(direct)
                waves = []
                for start in range(0, samples.size, chunk):
                    for result in protector.feed(samples[start : start + chunk]):
                        waves.append(result.shadow_wave.data)
                tail = protector.flush()
                if tail is not None:
                    waves.append(tail.shadow_wave.data)
                reference[tenant] = waves

            sessions = {tenant: service.open_session(tenant) for tenant in audio}
            collected = {tenant: [] for tenant in audio}
            longest = max(samples.size for samples in audio.values())
            for start in range(0, longest, chunk):
                for tenant, session in sessions.items():
                    if start < audio[tenant].size:
                        session.feed(audio[tenant][start : start + chunk])
                for tenant, session in sessions.items():
                    collected[tenant] += [
                        r.shadow_wave.data for r in session.collect(wait=True)
                    ]
            for tenant, session in sessions.items():
                collected[tenant] += [
                    r.shadow_wave.data for r in session.close(timeout=60.0)
                ]
                assert session.state is SessionState.CLOSED

            for tenant in audio:
                assert len(collected[tenant]) == len(reference[tenant])
                for got, want in zip(collected[tenant], reference[tenant]):
                    np.testing.assert_array_equal(got, want)

    def test_session_lifecycle_guards(self, tiny_config, system, tmp_path):
        with _make_service(tiny_config, system, tmp_path) as service:
            session = service.open_session("alice")
            session.feed(np.zeros(tiny_config.segment_samples // 3))
            session.close(timeout=60.0)
            with pytest.raises(RuntimeError, match="closed"):
                session.feed(np.zeros(4))
            with pytest.raises(RuntimeError, match="closed"):
                session.flush()
            assert session.close() == []  # idempotent
            assert service.sessions() == []

    def test_duplicate_stream_id_rejected(self, tiny_config, system, tmp_path):
        with _make_service(tiny_config, system, tmp_path) as service:
            service.open_session("alice", stream_id="s1")
            with pytest.raises(ValueError, match="already open"):
                service.open_session("bob", stream_id="s1")

    def test_close_drains_partial_tail(self, tiny_config, system, tmp_path):
        """close() flushes the buffered partial segment and returns its shadow."""
        segment = tiny_config.segment_samples
        rng = np.random.default_rng(77)
        samples = rng.normal(scale=0.1, size=segment + segment // 3)
        with _make_service(tiny_config, system, tmp_path) as service:
            session = service.open_session("alice")
            session.feed(samples)
            drained = session.close(timeout=60.0)
        # One full segment + the trimmed flush tail.
        assert [wave.shadow_wave.num_samples for wave in drained] == [
            segment,
            segment // 3,
        ]
        total = np.concatenate([wave.shadow_wave.data for wave in drained])
        assert total.size == samples.size

    def test_shutdown_reclaims_all_threads(self, tiny_config, system, tmp_path):
        """The tick thread must not leak."""
        before = threading.active_count()
        service = _make_service(tiny_config, system, tmp_path)
        session = service.open_session("alice")
        session.feed(
            np.zeros(4 * tiny_config.segment_samples),
        )
        session.collect(wait=True, timeout=60.0)
        assert threading.active_count() > before  # the tick loop is alive
        service.shutdown(timeout=60.0)
        deadline = time.monotonic() + 30.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before
        assert service.batch.closed
        with pytest.raises(RuntimeError):
            service.open_session("alice")
        service.shutdown()  # idempotent

    def test_shutdown_after_tick_failure_tears_down_then_raises_once(
        self, tiny_config, system, tmp_path, monkeypatch
    ):
        """A dead tick loop must not leave sessions half closed or the batch open."""
        segment = tiny_config.segment_samples
        service = _make_service(tiny_config, system, tmp_path)
        sessions = [service.open_session(tenant) for tenant in ("alice", "bob")]

        def explode(specs, vectors):
            raise ValueError("boom")

        monkeypatch.setattr(service.system.selector, "shadow_spectrogram_batch", explode)
        for session in sessions:
            session.feed(np.zeros(segment))
        with pytest.raises(RuntimeError, match="tick loop failed") as raised:
            service.shutdown(timeout=60.0)
        assert isinstance(raised.value.__cause__, ValueError)
        assert [session.state for session in sessions] == [SessionState.CLOSED] * 2
        assert service.sessions() == []
        assert not service.loop.running
        assert service.batch.closed
        service.shutdown()  # the failure was reported once; teardown is done

    def test_shutdown_drains_open_sessions(self, tiny_config, system, tmp_path):
        segment = tiny_config.segment_samples
        service = _make_service(tiny_config, system, tmp_path)
        session = service.open_session("alice")
        session.feed(np.zeros(2 * segment))
        service.shutdown(timeout=60.0)
        assert session.state is SessionState.CLOSED
        assert len(session.drained_results) == 2
        assert service.stats.sessions_closed == 1
        assert service.stats.segments_coalesced >= 2

    def test_latency_budget_flows_to_sessions(self, tiny_config, system, tmp_path):
        with _make_service(
            tiny_config, system, tmp_path, latency_budget_ms=10_000.0
        ) as service:
            session = service.open_session("alice")
            assert session.latency.budget_ms == 10_000.0
            session.feed(np.zeros(tiny_config.segment_samples))
            session.collect(wait=True, timeout=60.0)
            assert session.latency.budget_violations == 0

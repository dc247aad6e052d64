"""Non-finite audio and d-vectors are rejected at NEC's public boundary.

A NaN or Inf sample would otherwise flow through the Selector into a
non-finite shadow broadcast (or be stored as a non-finite d-vector) without
any error; every entry point raises ``ValueError`` instead, and leaves the
object it was called on as it was.
"""

import numpy as np
import pytest

from repro.audio.signal import AudioSignal
from repro.core import NECConfig, NECSystem, StreamingProtector
from repro.serving import EnrollmentRegistry, ProtectionService

BAD_VALUES = [np.nan, np.inf, -np.inf]


@pytest.fixture(scope="module")
def config():
    return NECConfig.tiny()


@pytest.fixture(scope="module")
def system(config):
    built = NECSystem(config, seed=0)
    built.enroll([_clip(config, seed=1)])
    return built


def _clip(config, seed=0, seconds=1.0, bad=None):
    rng = np.random.default_rng(seed)
    data = rng.normal(scale=0.1, size=int(seconds * config.sample_rate))
    if bad is not None:
        data[data.size // 2] = bad
    return AudioSignal(data, config.sample_rate)


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_enroll_rejects_non_finite_reference(config, bad):
    system = NECSystem(config, seed=0)
    with pytest.raises(ValueError, match="NaN or Inf"):
        system.enroll([_clip(config, seed=2), _clip(config, seed=3, bad=bad)])
    with pytest.raises(ValueError, match="NaN or Inf"):
        system.enroll([_clip(config, seed=3, bad=bad).data])
    assert not system.is_enrolled


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_set_embedding_rejects_non_finite_vector(config, system, bad):
    target = NECSystem(config, encoder=system.encoder, selector=system.selector)
    vector = system.embedding.copy()
    vector[0] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        target.set_embedding(vector)
    assert not target.is_enrolled


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_protect_rejects_non_finite_clip(config, system, bad):
    with pytest.raises(ValueError, match="NaN or Inf"):
        system.protect(_clip(config, bad=bad))


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_protect_batch_rejects_one_non_finite_clip(config, system, bad):
    clips = [_clip(config, seed=4), _clip(config, seed=5, seconds=0.3, bad=bad)]
    with pytest.raises(ValueError, match="NaN or Inf"):
        system.protect_batch(clips)


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_streaming_feed_rejects_non_finite_chunk(config, system, bad):
    protector = StreamingProtector(system)
    clean = _clip(config, seed=6)
    protector.feed(clean.data[:100])
    chunk = clean.data[100:300].copy()
    chunk[7] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        protector.feed(chunk)
    with pytest.raises(ValueError, match="NaN or Inf"):
        protector.feed(AudioSignal(chunk, config.sample_rate))
    assert protector.samples_fed == 100  # the rejected chunks left no trace


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_session_feed_rejects_non_finite_chunk(config, system, bad):
    registry = EnrollmentRegistry(None, config=config)
    registry.register("alice", system.embedding)
    with ProtectionService(registry, system=system, autostart=False) as service:
        session = service.open_session("alice")
        chunk = _clip(config, seed=7, seconds=0.1).data
        chunk[3] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            session.feed(chunk)
        assert session.samples_fed == 0


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_registry_register_rejects_non_finite_vector(config, system, bad):
    registry = EnrollmentRegistry(None, config=config)
    vector = system.embedding.copy()
    vector[-1] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        registry.register("alice", vector)
    assert "alice" not in registry


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda vector: np.where(np.arange(vector.size) == 0, np.nan, vector),
        lambda vector: np.where(np.arange(vector.size) == 0, np.inf, vector),
        lambda vector: vector[:-1],
    ],
    ids=["nan", "inf", "wrong_dim"],
)
def test_registry_reload_rejects_bad_tenant_file(config, system, tmp_path, corrupt):
    """A tenant ``.npz`` on disk passes the same check as ``register``."""
    EnrollmentRegistry(tmp_path, config=config).register("alice", system.embedding)
    np.savez(tmp_path / "tenants" / "alice.npz", embedding=corrupt(system.embedding))
    with pytest.raises(ValueError, match="tenant 'alice'"):
        EnrollmentRegistry(tmp_path)

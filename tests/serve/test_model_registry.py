"""ModelRegistry: checkpoint round-trips, backend pinning, validation."""

import dataclasses
import json

import numpy as np
import pytest

import repro.backend as backend
from repro import nn
from repro.data import load_split
from repro.experiments.config import get_config
from repro.experiments.runners import build_trainer
from repro.models import build_classifier
from repro.serve import ModelRegistry, Server
from repro.train import read_checkpoint_meta, save_checkpoint
from repro.train.checkpoint import _META_KEY

WIDTH = 4


@pytest.fixture(scope="module")
def split():
    return load_split("digits", 64, 32, seed=7)


def tiny_cfg():
    return dataclasses.replace(get_config("fast").dataset("digits"),
                               model_width=WIDTH, batch_size=32)


def train_checkpoint(defense, split, path, epochs=1, backend_name=None):
    """One cheap epoch of ``defense`` at tiny geometry, checkpointed."""
    import contextlib

    scope = backend.use(backend_name) if backend_name \
        else contextlib.nullcontext()
    with scope:
        trainer = build_trainer(defense, tiny_cfg(), seed=3)
        trainer.epochs = epochs
        trainer.fit(split.train)
        save_checkpoint(trainer, path)
    return trainer


def test_vanilla_checkpoint_roundtrip(split, tmp_path):
    path = tmp_path / "checkpoint.npz"
    trainer = train_checkpoint("vanilla", split, path)
    registry = ModelRegistry()
    entry = registry.load("victim", path, dataset="digits", width=WIDTH)
    assert entry.trainer == "vanilla"
    assert entry.discriminator is None and not entry.has_discriminator
    # The served model carries exactly the trained weights.
    want = trainer.model.state_dict()
    got = entry.model.state_dict()
    assert sorted(want) == sorted(got)
    for key in want:
        np.testing.assert_array_equal(want[key], got[key])
    # ... so predictions agree bitwise on the same batch.
    x = split.test.images[:8]
    with nn.inference_mode(trainer.model), nn.no_grad():
        direct = trainer.model(nn.Tensor(x)).data
    with nn.inference_mode(entry.model), nn.no_grad():
        served = entry.model(nn.Tensor(x)).data
    np.testing.assert_array_equal(direct, served)


def test_gandef_checkpoint_brings_its_discriminator(split, tmp_path):
    path = tmp_path / "checkpoint.npz"
    trainer = train_checkpoint("zk-gandef", split, path)
    entry = ModelRegistry().load("gandef", path, dataset="digits",
                                 width=WIDTH)
    assert entry.trainer == "zk-gandef"
    assert entry.has_discriminator
    want = trainer.discriminator.state_dict()
    got = entry.discriminator.state_dict()
    for key in want:
        np.testing.assert_array_equal(want[key], got[key])


def test_backend_recorded_in_archive_is_pinned(split, tmp_path):
    path = tmp_path / "checkpoint.npz"
    train_checkpoint("vanilla", split, path, backend_name="fast")
    entry = ModelRegistry().load("victim", path, dataset="digits",
                                 width=WIDTH)
    assert entry.backend == "fast"
    # An explicit override wins over the recorded backend.
    entry2 = ModelRegistry().load("victim", path, dataset="digits",
                                  width=WIDTH, backend="numpy")
    assert entry2.backend == "numpy"


def test_unavailable_recorded_backend_falls_back():
    assert backend.resolve("tpu-not-installed-here") == "numpy"
    assert backend.resolve(None) == "numpy"
    assert backend.resolve("fast") == "fast"
    with pytest.raises(KeyError):
        backend.resolve("nope", fallback="also-nope")


def test_archive_from_removed_compiled_backend_serves_on_fallback(
        split, tmp_path):
    """Archives written while a ``compiled`` backend shipped record it as
    their producer.  They still load, pinned to the fallback backend, and
    serve the labels their weights give."""
    path = tmp_path / "checkpoint.npz"
    trainer = train_checkpoint("vanilla", split, path, backend_name="fast")
    with np.load(path) as archive:
        arrays = {key: np.array(archive[key]) for key in archive.files}
    meta = json.loads(bytes(arrays[_META_KEY]).decode("utf-8"))
    meta["backend"] = "compiled"
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                      dtype=np.uint8)
    np.savez(path, **arrays)
    assert read_checkpoint_meta(path)["backend"] == "compiled"

    registry = ModelRegistry()
    entry = registry.load("victim", path, dataset="digits", width=WIDTH)
    assert entry.backend == backend.resolve("compiled") == "numpy"
    x = split.test.images[:8]
    server = Server(registry, max_batch=8, gate="none")
    handle = server.submit("victim", x)
    assert server.drain() == 1
    with nn.inference_mode(trainer.model), nn.no_grad():
        want = trainer.model(nn.Tensor(x)).data.argmax(axis=1)
    assert handle.labels.tolist() == want.tolist()


def test_explicit_unknown_backend_is_an_error(split, tmp_path):
    """Only *recorded* provenance degrades silently; a user-supplied
    backend that is not registered must raise, not downgrade."""
    path = tmp_path / "checkpoint.npz"
    train_checkpoint("vanilla", split, path)
    with pytest.raises(KeyError, match="unknown backend"):
        ModelRegistry().load("victim", path, dataset="digits",
                             width=WIDTH, backend="tpu-missing")
    with pytest.raises(KeyError, match="unknown backend"):
        ModelRegistry().add("m", build_classifier("digits", width=WIDTH,
                                                  seed=0),
                            backend="typo")


def test_fingerprint_matches_eval_cache_hash(split, tmp_path):
    from repro.eval.cache import fingerprint_model

    path = tmp_path / "checkpoint.npz"
    trainer = train_checkpoint("vanilla", split, path)
    entry = ModelRegistry().load("victim", path, dataset="digits",
                                 width=WIDTH)
    assert entry.fingerprint == fingerprint_model(trainer.model)


def test_weights_only_archive_is_rejected(tmp_path):
    model = build_classifier("digits", width=WIDTH, seed=0)
    path = tmp_path / "weights.npz"
    nn.save_state(model, path)
    with pytest.raises(ValueError, match="not a training checkpoint"):
        ModelRegistry().load("m", path, dataset="digits", width=WIDTH)


def test_duplicate_and_unknown_names():
    registry = ModelRegistry()
    model = build_classifier("digits", width=WIDTH, seed=0)
    registry.add("m", model)
    assert "m" in registry and len(registry) == 1
    with pytest.raises(ValueError, match="already registered"):
        registry.add("m", model)
    with pytest.raises(KeyError, match="unknown model"):
        registry.get("ghost")
    registry.unregister("m")
    assert "m" not in registry

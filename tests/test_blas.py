"""The scoped OpenBLAS thread count and minibatch SGD under it."""

import threading

import numpy as np
import pytest

from polykit import blas
from polykit import mlp as m
from polykit.errors import TrainingDiverged

needs_openblas = pytest.mark.skipif(not blas.controls(), reason="no controllable OpenBLAS")


@pytest.fixture
def rediscover():
    """Forget the cached discovery before and after a test that patches it."""
    blas.controls.cache_clear()
    yield
    blas.controls.cache_clear()


@pytest.fixture
def threaded():
    """Every controlled OpenBLAS on two threads during the test, so that a
    pin to one is visible; the counts found are restored after it."""
    before = blas.thread_counts()
    for c in blas.controls():
        c.set(2)
    yield
    for c in blas.controls():
        c.set(before[c.path])


def counts_while_training(monkeypatch):
    """Record the thread counts at every minibatch of the next training run."""
    seen = []
    inner = m._loss_and_grads

    def spy(*args):
        seen.append(blas.thread_counts())
        return inner(*args)

    monkeypatch.setattr(m, "_loss_and_grads", spy)
    return seen


def small_problem(batch_size=32):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 6))
    Y, _ = m.one_hot(rng.integers(0, 3, size=200))
    cfg = m.MLPConfig((8, 3), ("tanh",), output_kind="softmax", epochs=2,
                      batch_size=batch_size, learning_rate=0.1, seed=4)
    return X, Y, cfg


def weights(net):
    """Every weight matrix and bias vector, in layer order."""
    return [a for l in net.layers if isinstance(l, m.DenseLayer) for a in (l.weights, l.bias)]


@needs_openblas
@pytest.mark.usefixtures("threaded")
class TestOneThread:
    def test_pins_every_library_and_restores_it(self):
        before = blas.thread_counts()
        with blas.one_thread():
            assert set(blas.thread_counts().values()) == {1}
        assert blas.thread_counts() == before

    def test_nested_blocks_restore_on_the_outer_exit(self):
        before = blas.thread_counts()
        with blas.one_thread():
            with blas.one_thread():
                pass
            assert set(blas.thread_counts().values()) == {1}
        assert blas.thread_counts() == before

    def test_restores_after_an_exception(self):
        before = blas.thread_counts()
        with pytest.raises(KeyError):
            with blas.one_thread():
                raise KeyError("inside")
        assert blas.thread_counts() == before

    def test_overlapping_threads_restore_on_the_last_exit(self):
        # thread A enters first and exits first; a per-entry save and restore
        # would leave B's saved count of 1 in place
        before = blas.thread_counts()
        b_entered, a_exited = threading.Event(), threading.Event()

        def b():
            with blas.one_thread():
                b_entered.set()
                assert a_exited.wait(10)

        with blas.one_thread():
            worker = threading.Thread(target=b)
            worker.start()
            assert b_entered.wait(10)
        a_exited.set()
        worker.join(10)
        assert not worker.is_alive()
        assert blas.thread_counts() == before


@needs_openblas
@pytest.mark.usefixtures("threaded")
class TestTrainingPin:
    def test_small_batches_train_on_one_thread(self, monkeypatch):
        before = blas.thread_counts()
        seen = counts_while_training(monkeypatch)
        m.train_mlp(*small_problem(batch_size=32))
        assert seen and all(set(c.values()) == {1} for c in seen)
        assert blas.thread_counts() == before

    def test_large_batches_keep_the_threads(self, monkeypatch):
        before = blas.thread_counts()
        seen = counts_while_training(monkeypatch)
        m.train_mlp(*small_problem(batch_size=m.SINGLE_THREAD_BATCH))
        assert seen and all(c == before for c in seen)

    def test_restored_after_divergence(self, monkeypatch):
        before = blas.thread_counts()
        seen = counts_while_training(monkeypatch)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2)) * 10
        y = rng.normal(size=50) * 10
        cfg = m.MLPConfig((8, 1), ("square",), epochs=50, learning_rate=10.0, seed=0)
        with pytest.raises(TrainingDiverged):
            m.train_mlp(X, y, cfg)
        assert len(seen) > 1 and set(seen[-1].values()) == {1}
        assert blas.thread_counts() == before

    def test_pinned_matches_threaded_where_openblas_threads(self, monkeypatch):
        # 784 -> 100 -> 50 -> 10 at batch 32: products large enough for
        # OpenBLAS to split across threads, so the rounding may differ
        rng = np.random.default_rng(3)
        X = rng.normal(size=(2000, 784))
        Y, _ = m.one_hot(rng.integers(0, 10, size=2000))
        cfg = m.MLPConfig((100, 50, 10), ("relu", "relu"), (0.2, 0.2), "softmax",
                          epochs=1, batch_size=32, learning_rate=0.05, seed=0)
        pinned = m.train_mlp(X, Y, cfg)
        monkeypatch.setattr(m, "SINGLE_THREAD_BATCH", 0)
        threaded = m.train_mlp(X, Y, cfg)
        for a, b in zip(weights(pinned), weights(threaded)):
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()
        np.testing.assert_array_equal(m.forward(pinned, X).argmax(axis=1),
                                      m.forward(threaded, X).argmax(axis=1))


class TestNoControls:
    def unpinned(self, monkeypatch, problem):
        with monkeypatch.context() as patch:
            patch.setattr(m, "SINGLE_THREAD_BATCH", 0)
            return m.train_mlp(*problem)

    def test_library_without_the_symbols(self, monkeypatch, rediscover):
        monkeypatch.setattr(blas, "mapped_openblas", lambda: ["libc.so.6"])
        assert blas.controls() == ()
        problem = small_problem()
        reference = self.unpinned(monkeypatch, problem)
        for a, b in zip(weights(m.train_mlp(*problem)), weights(reference)):
            np.testing.assert_array_equal(a, b)

    def test_unreadable_maps_file(self, monkeypatch, rediscover, tmp_path):
        monkeypatch.setattr(blas, "MAPS", str(tmp_path))  # a directory: open raises
        assert blas.mapped_openblas() == []
        assert blas.controls() == ()
        problem = small_problem()
        reference = self.unpinned(monkeypatch, problem)
        for a, b in zip(weights(m.train_mlp(*problem)), weights(reference)):
            np.testing.assert_array_equal(a, b)

    def test_library_that_cannot_be_loaded(self, monkeypatch, rediscover, tmp_path):
        missing = str(tmp_path / "libopenblas.so")
        monkeypatch.setattr(blas, "mapped_openblas", lambda: [missing])
        assert blas.controls() == ()
        with blas.one_thread():
            pass

"""The scoped OpenBLAS thread count, the one search that runs under it, and
the products on SciPy's OpenBLAS."""

import threading
from contextlib import nullcontext

import numpy as np
import pytest

from polykit import blas
from polykit import mlp as m
from polykit import stepwise as sw
from polykit.dataset import dataset_from_arrays, encode_design
from polykit.polyterms import PolySpec, enumerate_terms

needs_openblas = pytest.mark.skipif(not blas.controls(), reason="no controllable OpenBLAS")


def thread_counts():
    """The current thread count of each controlled OpenBLAS, by path."""
    return {c.path: c.get() for c in blas.controls()}


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
    before = thread_counts()
    for c in blas.controls():
        c.set(2)
    yield
    for c in blas.controls():
        c.set(before[c.path])


def counts_at_each_call(monkeypatch, owner, name, fail_at=None):
    """Record the thread counts at every call of ``owner.name`` from now on;
    the call numbered ``fail_at`` (1-based) raises after recording them."""
    seen = []
    inner = getattr(owner, name)

    def spy(*args):
        seen.append(thread_counts())
        if len(seen) == fail_at:
            raise FloatingPointError("inside the block")
        return inner(*args)

    monkeypatch.setattr(owner, name, spy)
    return seen


def small_problem(batch_size=32):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 6))
    Y, _ = m.one_hot(rng.integers(0, 3, size=200))
    cfg = m.MLPConfig((8, 3), ("tanh",), output_kind="softmax", epochs=2,
                      batch_size=batch_size, learning_rate=0.1, seed=4)
    return X, Y, cfg


def small_search(classify=False):
    """``fsr`` arguments: a search over the degree-2 terms of a 200-row,
    three-column table with a numeric response, or with three classes."""
    rng = np.random.default_rng(2)
    X = rng.uniform(-2, 2, size=(200, 3))
    if classify:
        y = (X[:, 0] > 0) + (X[:, 1] ** 2 > 1)
    else:
        y = 2 * X[:, 0] + X[:, 0] ** 2 + rng.normal(0, 0.5, 200)
    ds = dataset_from_arrays(X, y, classification=classify)
    _, groups = encode_design(ds)
    return ds, sw.FSRConfig(enumerate_terms(3, groups, PolySpec(2)), min_models=1), 0


def same_search(got, want):
    assert got.trace == want.trace
    assert got.model.terms.terms == want.model.terms.terms
    np.testing.assert_array_equal(got.model.coef, want.model.coef)
    assert got.model.intercept == want.model.intercept


def unpinned_search(monkeypatch, problem):
    """``fsr`` with ``blas.one_thread`` a block that does nothing."""
    with monkeypatch.context() as patch:
        patch.setattr(blas, "one_thread", nullcontext)
        return sw.fsr(*problem)


@needs_openblas
@pytest.mark.usefixtures("threaded")
class TestOneThread:
    def test_pins_every_library_and_restores_it(self):
        before = thread_counts()
        with blas.one_thread():
            assert set(thread_counts().values()) == {1}
        assert thread_counts() == before

    def test_nested_blocks_restore_on_the_outer_exit(self):
        before = thread_counts()
        with blas.one_thread():
            with blas.one_thread():
                pass
            assert set(thread_counts().values()) == {1}
        assert thread_counts() == before

    def test_restores_after_an_exception(self):
        before = thread_counts()
        with pytest.raises(KeyError):
            with blas.one_thread():
                raise KeyError("inside")
        assert thread_counts() == before

    def test_overlapping_threads_restore_on_the_last_exit(self):
        # thread A enters first and exits first; a per-entry save and restore
        # would leave B's saved count of 1 in place
        before = thread_counts()
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
        assert thread_counts() == before


@needs_openblas
@pytest.mark.usefixtures("threaded")
class TestTrainingPin:
    @pytest.mark.parametrize("batch_size", [32, 256])
    def test_every_minibatch_keeps_the_thread_counts(self, monkeypatch, batch_size):
        before = thread_counts()
        seen = counts_at_each_call(monkeypatch, m, "_loss_and_grads")
        m.train_mlp(*small_problem(batch_size))
        assert seen and all(c == before for c in seen)
        assert thread_counts() == before


@needs_openblas
@pytest.mark.usefixtures("threaded")
class TestSearchPin:
    def test_regression_search_runs_on_one_thread(self, monkeypatch):
        before = thread_counts()
        seen = counts_at_each_call(monkeypatch, sw._OrthogonalScorer, "losses")
        sw.fsr(*small_search())
        assert seen and all(set(c.values()) == {1} for c in seen)
        assert thread_counts() == before

    def test_restored_after_an_error_in_the_search(self, monkeypatch):
        before = thread_counts()
        seen = counts_at_each_call(monkeypatch, sw._OrthogonalScorer, "losses", fail_at=2)
        with pytest.raises(FloatingPointError):
            sw.fsr(*small_search())
        assert len(seen) == 2 and set(seen[-1].values()) == {1}
        assert thread_counts() == before

    def test_classification_search_keeps_the_thread_counts(self, monkeypatch):
        before = thread_counts()
        seen = counts_at_each_call(monkeypatch, sw._LogisticScorer, "losses")
        sw.fsr(*small_search(classify=True))
        assert seen and all(c == before for c in seen)


class TestNoControls:
    def test_library_without_the_symbols(self, monkeypatch, rediscover):
        monkeypatch.setattr(blas, "mapped_openblas", lambda: ["libc.so.6"])
        assert blas.controls() == ()
        problem = small_search()
        same_search(sw.fsr(*problem), unpinned_search(monkeypatch, problem))

    def test_unreadable_maps_file(self, monkeypatch, rediscover, tmp_path):
        monkeypatch.setattr(blas, "MAPS", str(tmp_path))  # a directory: open raises
        assert blas.mapped_openblas() == []
        assert blas.controls() == ()
        problem = small_search()
        same_search(sw.fsr(*problem), unpinned_search(monkeypatch, problem))

    def test_library_that_cannot_be_loaded(self, monkeypatch, rediscover, tmp_path):
        missing = str(tmp_path / "libopenblas.so")
        monkeypatch.setattr(blas, "mapped_openblas", lambda: [missing])
        assert blas.controls() == ()
        with blas.one_thread():
            pass


def operands():
    """(name, a, b) pairs in every layout the solvers hand to matmul."""
    rng = np.random.default_rng(23)
    a, b = rng.normal(size=(60, 17)), rng.normal(size=(17, 9))
    wide = rng.normal(size=(60, 40))
    layouts = {
        "C": lambda M: M,
        "F": np.asfortranarray,
        "strided": lambda M: np.repeat(M, 2, axis=1)[:, ::2],
        "fancy": lambda M: M[:, np.arange(M.shape[1])],
        "reversed": lambda M: M[::-1, ::-1],
    }
    for (na, fa), (nb, fb) in ((x, y) for x in layouts.items() for y in layouts.items()):
        yield f"{na}-{nb}", fa(a), fb(b)
    yield "column-subset", wide[:, [3, 1, 30, 7]], b[:4]
    yield "row-view", a[5:50], b


@pytest.mark.parametrize("name,a,b", list(operands()), ids=lambda v: v if isinstance(v, str) else "")
def test_matmul_matches_numpy(name, a, b):
    got, want = blas.matmul(a, b), a @ b
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("m,k,n", [(0, 3, 4), (3, 4, 0), (0, 0, 0), (3, 0, 4), (0, 0, 5)])
def test_matmul_of_empty_shapes(m, k, n):
    rng = np.random.default_rng(0)
    got = blas.matmul(rng.normal(size=(m, k)), rng.normal(size=(k, n)))
    assert got.shape == (m, n)
    np.testing.assert_array_equal(got, np.zeros((m, n)))  # exact zeros for k = 0


def test_matmul_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="cannot multiply"):
        blas.matmul(np.ones((3, 4)), np.ones((3, 4)))
    with pytest.raises(ValueError, match="cannot multiply"):
        blas.matmul(np.ones(3), np.ones((3, 4)))

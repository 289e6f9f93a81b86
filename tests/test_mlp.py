"""Network construction, training, inference and the weights container."""

from contextlib import nullcontext

import numpy as np
import pytest
from scipy.linalg.blas import dgemm

from polykit import blas
from polykit import mlp as m
from polykit.errors import ModelFormatError, TrainingDiverged


def identity_net(width):
    """Stack of two identity layers that pass the input straight through."""
    layer = lambda: m.DenseLayer(np.eye(width), np.zeros(width), "identity")
    return m.MLP((layer(), layer()))


def train_with_masks_list(X, Y, config):
    """Oracle: minibatch SGD that draws every dropout mask of a batch up
    front, one per layer position sized from the dense layer below it, and
    runs a forward/backward pass over that list. Its backward pass carries
    the gradient through every layer, down to the input of the first."""
    net = m.build_mlp(X.shape[1], config)
    rng = np.random.default_rng([config.seed, 1])
    for _ in range(config.epochs):
        perm = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], config.batch_size):
            idx = perm[start:start + config.batch_size]
            masks, width = [], net.input_width
            for layer in net.layers:
                if isinstance(layer, m.DropoutLayer):
                    keep = rng.random(size=(len(idx), width))
                    masks.append((keep >= layer.rate) / (1.0 - layer.rate))
                else:
                    masks.append(None)
                    width = layer.weights.shape[1]
            caches, out = [], X[idx]
            for layer, mask in zip(net.layers, masks):
                if mask is not None:
                    out = out * mask
                    caches.append((layer, mask, None))
                else:
                    z = out @ layer.weights + layer.bias
                    caches.append((layer, out, z))
                    out = m.apply_activation(layer.activation, z)
            delta, grads = (out - Y[idx]) / len(idx), []
            for layer, cached, z in reversed(caches):
                if isinstance(layer, m.DropoutLayer):
                    delta = delta * cached
                    continue
                if layer is not net.layers[-1]:
                    delta = delta * m.activation_grad(layer.activation, z)
                grads.append((layer, cached.T @ delta, delta.sum(axis=0)))
                delta = delta @ layer.weights.T
            for layer, dw, db in grads:
                layer.weights -= config.learning_rate * dw
                layer.bias -= config.learning_rate * db
    return net


def masks_list_gradients(net, X, Y):
    """The oracle's forward/backward pass without dropout, as one
    function: the loss gradient ``(dW, db)`` of every dense layer."""
    caches, out = [], X
    for layer in net.layers:
        if isinstance(layer, m.DenseLayer):
            z = out @ layer.weights + layer.bias
            caches.append((layer, out, z))
            out = m.apply_activation(layer.activation, z)
    delta, grads = (out - Y) / len(X), []
    for layer, cached, z in reversed(caches):
        if layer is not net.layers[-1]:
            delta = delta * m.activation_grad(layer.activation, z)
        grads.append((cached.T @ delta, delta.sum(axis=0)))
        delta = delta @ layer.weights.T
    return grads[::-1]


def reference_two_path_train(X, Y, config):
    """Oracle: ``train_mlp`` as it was with two update paths. Batches
    smaller than 128 trained on one OpenBLAS thread and updated each weight
    matrix by one in-place ``dgemm``; larger ones kept the threads and
    formed every gradient with NumPy before the first update."""
    net = m.build_mlp(X.shape[1], config)
    for layer in net.layers:
        if isinstance(layer, m.DenseLayer):
            layer.weights = np.ascontiguousarray(layer.weights, dtype=np.float64)
    lr = config.learning_rate
    rng = np.random.default_rng([config.seed, 1])
    pinned = config.batch_size < 128
    with blas.one_thread() if pinned else nullcontext():
        for _ in range(config.epochs):
            perm = rng.permutation(X.shape[0])
            for start in range(0, X.shape[0], config.batch_size):
                idx = perm[start:start + config.batch_size]
                _, steps = m._loss_and_grads(net, X[idx], Y[idx], rng)
                if pinned:
                    for layer, cached_in, delta in steps:
                        dgemm(-lr, delta.T, cached_in.T, beta=1.0, c=layer.weights.T,
                              trans_b=1, overwrite_c=1)
                        db = delta.sum(axis=0)
                        db *= lr
                        layer.bias -= db
                    continue
                grads = [(layer, cached_in.T @ delta, delta.sum(axis=0))
                         for layer, cached_in, delta in steps]
                for layer, dw, db in grads:
                    dw *= lr
                    db *= lr
                    layer.weights -= dw
                    layer.bias -= db
    return net


def assert_trained_alike(net, oracle):
    """Every weight and bias within 1e-12 of the largest in its array. The
    fused update rounds ``W - lr * dW`` once where the oracle rounds twice;
    a wrong mask or draw order is off by O(lr)."""
    for got, want in zip(net.layers, oracle.layers):
        if isinstance(got, m.DenseLayer):
            for a, b in ((got.weights, want.weights), (got.bias, want.bias)):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


class TestConfig:
    def test_defaults_normalized(self):
        cfg = m.MLPConfig((8, 4, 2))
        assert cfg.activations == ("relu", "relu")
        assert cfg.dropout_rates == (0.0, 0.0)

    def test_bad_widths(self):
        with pytest.raises(ValueError):
            m.MLPConfig((0, 3))

    def test_bad_dropout(self):
        with pytest.raises(ValueError):
            m.MLPConfig((4, 2), dropout_rates=(1.0,))

    def test_bad_activation(self):
        with pytest.raises(ValueError):
            m.MLPConfig((4, 2), activations=("sigmoid",))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            m.MLPConfig((4, 4, 2), activations=("relu",))

    @pytest.mark.parametrize("value", [0, -3, 2.5, "32", True])
    def test_batch_size_checked(self, value):
        with pytest.raises(ValueError, match="batch_size"):
            m.MLPConfig((4, 2), batch_size=value)

    @pytest.mark.parametrize("value", [-1, 1.5, None])
    def test_epochs_checked(self, value):
        with pytest.raises(ValueError, match="epochs"):
            m.MLPConfig((4, 2), epochs=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0, "0.1"])
    def test_learning_rate_checked(self, value):
        with pytest.raises(ValueError, match="learning_rate"):
            m.MLPConfig((4, 2), learning_rate=value)

    def test_numpy_scalars_accepted(self):
        cfg = m.MLPConfig((4, 2), epochs=np.int64(0), batch_size=np.int32(8),
                          learning_rate=np.float64(0.1))
        assert cfg.batch_size == 8


class TestForward:
    def test_identity_passthrough(self):
        X = np.random.default_rng(0).normal(size=(6, 3))
        net = identity_net(3)
        np.testing.assert_array_equal(m.forward(net, X), X)
        np.testing.assert_array_equal(m.layer_activations(net, X, 0), X)
        np.testing.assert_array_equal(m.layer_activations(net, X, 1), X)

    def test_relu_kills_negative_preactivations(self):
        net = m.MLP((m.DenseLayer(np.eye(2), np.array([-10.0, -10.0]), "relu"),))
        X = np.random.default_rng(1).uniform(0, 1, size=(5, 2))
        np.testing.assert_array_equal(m.forward(net, X), np.zeros((5, 2)))

    def test_dropout_is_identity_at_inference(self):
        cfg = m.MLPConfig((4, 2), ("tanh",), (0.5,), seed=3)
        net = m.build_mlp(3, cfg)
        X = np.random.default_rng(2).normal(size=(10, 3))
        dense_out = m.layer_activations(net, X, 0)
        dropout_out = m.layer_activations(net, X, 1)
        np.testing.assert_array_equal(dense_out, dropout_out)

    def test_layer_index_out_of_range(self):
        net = identity_net(2)
        with pytest.raises(IndexError):
            m.layer_activations(net, np.zeros((1, 2)), 5)

    def test_labels(self):
        cfg = m.MLPConfig((10, 10, 10), ("relu", "relu"), (0.4, 0.3), output_kind="softmax")
        net = m.build_mlp(784, cfg)
        assert m.layer_labels(net) == ["dense_1", "dropout_1", "dense_2", "dropout_2", "dense_3"]

    def test_forward_independent_of_seed(self):
        # same weights, different config seeds: inference identical
        cfg_a = m.MLPConfig((3, 1), ("tanh",), seed=0)
        net = m.build_mlp(2, cfg_a)
        X = np.random.default_rng(5).normal(size=(4, 2))
        out1 = m.forward(net, X)
        out2 = m.forward(net, X)
        np.testing.assert_array_equal(out1, out2)


class TestGradients:
    @pytest.mark.parametrize(
        "output_kind,acts,widths",
        [
            ("linear", ("tanh", "square"), (4, 3, 2)),
            ("linear", ("relu",), (5, 1)),
            ("softmax", ("identity",), (4, 3)),
            ("linear", m.HIDDEN_ACTIVATIONS, (4, 4, 3, 3, 2)),  # every table entry
        ],
    )
    def test_matches_central_differences(self, output_kind, acts, widths):
        cfg = m.MLPConfig(widths, acts, output_kind=output_kind, seed=11)
        net = m.build_mlp(3, cfg)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 3)) + 0.05  # keep relu kinks away from samples
        if output_kind == "softmax":
            Y = np.eye(widths[-1])[rng.integers(0, widths[-1], 6)]
        else:
            Y = rng.normal(size=(6, widths[-1]))
        _, grads = m.loss_and_gradients(net, X, Y)
        h = 1e-6
        gi = 0
        for layer in net.layers:
            if isinstance(layer, m.DropoutLayer):
                continue
            analytic = grads[gi]
            gi += 1
            for arr, g in ((layer.weights, analytic[0]), (layer.bias, analytic[1])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up, _ = m.loss_and_gradients(net, X, Y)
                    arr[idx] = orig - h
                    down, _ = m.loss_and_gradients(net, X, Y)
                    arr[idx] = orig
                    numeric = (up - down) / (2 * h)
                    denom = max(1.0, abs(numeric), abs(g[idx]))
                    assert abs(numeric - g[idx]) / denom < 1e-5


class TestFusedUpdate:
    # the oracle's one-column output product goes through NumPy's gemv,
    # which rounds apart from the dgemm of blas.matmul
    @pytest.mark.parametrize("widths, acts, drops, output_kind, rel", [
        ((1,), (), (), "linear", 1e-15),
        ((6, 4, 2), ("tanh", "square"), (), "linear", 0.0),
        ((12, 8, 3), ("relu", "identity"), (0.3, 0.5), "softmax", 0.0),
    ], ids=["one-layer", "tanh-square", "dropout-softmax"])
    def test_gradients_have_the_bits_of_the_oracle(self, widths, acts, drops, output_kind, rel):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 7))
        if output_kind == "softmax":
            Y, _ = m.one_hot(rng.integers(0, widths[-1], 40))
        else:
            Y = rng.normal(size=(40, widths[-1]))
        net = m.build_mlp(7, m.MLPConfig(widths, acts, drops, output_kind=output_kind, seed=2))
        _, grads = m.loss_and_gradients(net, X, Y)
        want = masks_list_gradients(net, X, Y)
        assert len(grads) == len(want)
        for (dw, db), (ow, ob) in zip(grads, want):
            for got, ref in ((dw, ow), (db, ob)):
                assert np.abs(got - ref).max() <= rel * np.abs(ref).max()

    def test_one_full_batch_step_is_w_minus_lr_dw(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(64, 9))
        Y = rng.normal(size=(64, 2))
        cfg = m.MLPConfig((16, 2), ("tanh",), epochs=1, batch_size=64,
                          learning_rate=0.05, seed=4)
        start = m.build_mlp(9, cfg)
        perm = np.random.default_rng([cfg.seed, 1]).permutation(64)
        _, grads = m.loss_and_gradients(start, X[perm], Y[perm])
        net = m.train_mlp(X, Y, cfg)
        dense = [l for l in net.layers if isinstance(l, m.DenseLayer)]
        for layer, before, (dw, db) in zip(dense, start.layers, grads):
            want = before.weights - cfg.learning_rate * dw
            assert np.all(np.abs(layer.weights - want) <= 2 * np.spacing(np.abs(want)))
            np.testing.assert_array_equal(layer.bias, before.bias - cfg.learning_rate * db)

    def test_fortran_ordered_and_loaded_weights_are_updated(self, monkeypatch, tmp_path):
        # dgemm hands back an updated copy, and leaves the weights as they
        # were, when they are not C-ordered float64
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 5))
        Y, _ = m.one_hot(rng.integers(0, 3, 50))
        cfg = m.MLPConfig((6, 3), ("relu",), (0.2,), output_kind="softmax",
                          epochs=2, batch_size=16, learning_rate=0.1, seed=1)
        start = m.build_mlp(5, cfg)
        want = m.train_mlp(X, Y, cfg)
        m.save_weights(start, tmp_path / "w.txt")
        fortran = m.build_mlp(5, cfg)
        for layer in fortran.layers:
            if isinstance(layer, m.DenseLayer):
                layer.weights = np.asfortranarray(layer.weights)
        for net in fortran, m.load_weights(tmp_path / "w.txt"):
            monkeypatch.setattr(m, "build_mlp", lambda *_: net)
            got = m.train_mlp(X, Y, cfg)
            for trained, fresh, ref in zip(got.layers, start.layers, want.layers):
                if isinstance(trained, m.DenseLayer):
                    assert not np.array_equal(trained.weights, fresh.weights)
                    np.testing.assert_array_equal(trained.weights, ref.weights)
                    np.testing.assert_array_equal(trained.bias, ref.bias)


class TestTraining:
    def test_linear_target_learned(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(200, 1))
        y = 3.0 * X[:, 0]
        cfg = m.MLPConfig(
            (4, 1), ("identity",), epochs=200, batch_size=32, learning_rate=0.05, seed=1
        )
        net = m.train_mlp(X, y, cfg)
        mse = float(np.mean((m.forward(net, X)[:, 0] - y) ** 2))
        assert mse < 1e-3

    def test_xor_solvable_in_some_seed(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1, 1, 0])
        Y, classes = m.one_hot(labels)
        solved = 0
        for seed in range(5):
            cfg = m.MLPConfig(
                (4, 2), ("relu",), output_kind="softmax",
                epochs=2000, batch_size=4, learning_rate=0.5, seed=seed,
            )
            net = m.train_mlp(X, Y, cfg)
            pred = np.argmax(m.forward(net, X), axis=1)
            solved += np.array_equal(np.asarray(classes)[pred], labels)
        assert solved >= 1

    def test_zero_epochs_returns_initialized_network(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        cfg = m.MLPConfig((3, 1), ("tanh",), epochs=0, seed=7)
        net = m.train_mlp(X, y, cfg)
        init = m.build_mlp(2, cfg)
        for trained, fresh in zip(net.layers, init.layers):
            np.testing.assert_array_equal(trained.weights, fresh.weights)
            np.testing.assert_array_equal(trained.bias, fresh.bias)
        loss_trained, _ = m.loss_and_gradients(net, X, y[:, None])
        loss_init, _ = m.loss_and_gradients(init, X, y[:, None])
        assert loss_trained == loss_init

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 3))
        y = rng.normal(size=100)
        cfg = m.MLPConfig((5, 1), ("tanh",), (0.3,), epochs=5, seed=42)
        a = m.train_mlp(X, y, cfg)
        b = m.train_mlp(X, y, cfg)
        for la, lb in zip(a.layers, b.layers):
            if isinstance(la, m.DropoutLayer):
                continue
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_dropout_masks_match_the_masks_list_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(250, 20))
        Y, _ = m.one_hot(rng.integers(0, 10, 250))
        cfg = m.MLPConfig((100, 50, 10), ("relu", "relu"), (0.2, 0.2),
                          output_kind="softmax", epochs=3, learning_rate=0.1, seed=7)
        assert_trained_alike(m.train_mlp(X, Y, cfg), train_with_masks_list(X, Y, cfg))

    @pytest.mark.parametrize("batch_size", [32, 256])
    def test_one_update_path_matches_the_two_path_oracle(self, batch_size):
        # 784 -> 100 -> 50 -> 10: products large enough for OpenBLAS to
        # split across threads, so the rounding may differ
        rng = np.random.default_rng(3)
        X = rng.normal(size=(2000, 784))
        Y, _ = m.one_hot(rng.integers(0, 10, size=2000))
        cfg = m.MLPConfig((100, 50, 10), ("relu", "relu"), (0.2, 0.2), "softmax",
                          epochs=1, batch_size=batch_size, learning_rate=0.05, seed=0)
        net, oracle = m.train_mlp(X, Y, cfg), reference_two_path_train(X, Y, cfg)
        assert_trained_alike(net, oracle)
        np.testing.assert_array_equal(m.forward(net, X).argmax(axis=1),
                                      m.forward(oracle, X).argmax(axis=1))

    @pytest.mark.parametrize("widths, acts, drops, output_kind", [
        ((1,), (), (), "linear"),
        ((6, 4, 1), ("tanh", "square"), (), "linear"),
        ((12, 3), ("relu",), (0.3,), "softmax"),
    ], ids=["one-layer", "no-dropout", "dropout-softmax"])
    def test_backward_pass_stopped_at_the_first_layer_changes_no_weight(
            self, widths, acts, drops, output_kind):
        # the input gradient of the first dense layer is never formed; the
        # oracle forms it, and every weight must still agree
        rng = np.random.default_rng(11)
        X = rng.normal(size=(90, 7))
        if output_kind == "softmax":
            Y, _ = m.one_hot(rng.integers(0, widths[-1], 90))
        else:
            Y = rng.normal(size=(90, 1))
        cfg = m.MLPConfig(widths, acts, drops, output_kind=output_kind, epochs=3,
                          batch_size=16, learning_rate=0.05, seed=3)
        assert_trained_alike(m.train_mlp(X, Y, cfg), train_with_masks_list(X, Y, cfg))

    def test_zero_input_width_rejected(self):
        with pytest.raises(ValueError, match="input width"):
            m.build_mlp(0, m.MLPConfig((5, 1)))

    def test_divergence_detected(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2)) * 10
        y = rng.normal(size=50) * 10
        cfg = m.MLPConfig((8, 1), ("square",), epochs=50, learning_rate=10.0, seed=0)
        with pytest.raises(TrainingDiverged, match="learning rate"):
            m.train_mlp(X, y, cfg)

    def test_target_width_checked(self):
        cfg = m.MLPConfig((3, 2))
        with pytest.raises(ValueError):
            m.train_mlp(np.zeros((4, 2)), np.zeros(4), cfg)


#: A ``polykit-mlp 2`` file as ``save_weights`` wrote it for a trained
#: 3-4-3-2 network: tanh and relu hidden layers, dropout 0.25 and 0.5 after
#: them, softmax output.
WEIGHTS_DROPOUT_SOFTMAX = """polykit-mlp 2
input_width 3
output_kind softmax
layers 5
dense 3 4 tanh
0.3525159944419264 0.35374435177939517 0.018724044477065424 -0.2604632648371082 -0.4860109686293856 -0.1354820611029421 -0.0687448345100545 -0.5662631618027807 -0.5423507957167546 0.5798649394395188 0.20146023878400907 -0.26406571763200704
-0.008010110833438434 -0.003666391213804825 -0.010715162499577564 -0.047587532029455225
dropout 0.25
dense 4 3 relu
-0.0655793223984014 0.4960143896890127 0.35607142544555775 0.34580465563846535 -0.12809754521782318 -0.017104079773105633 0.17852272178954987 -0.44187390359121914 0.03755215491274301 -0.21844891186419965 0.39891740880543824 -0.47333671448045916
-0.005900302072140124 -0.010379177244530496 0.011438543898599694
dropout 0.5
dense 3 2 softmax
0.2132769307223803 0.42096547481054863 -0.34086626856476043 0.48262511771463124 0.42609046044500487 -0.5522845811115353
-0.009574031115188284 0.009574031115188288
"""


class TestWeightsContainer:
    def test_load_then_save_is_byte_identical(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text(WEIGHTS_DROPOUT_SOFTMAX, encoding="utf-8")
        net = m.load_weights(path)
        assert net.input_width == 3
        again = tmp_path / "again.txt"
        m.save_weights(net, again)
        assert again.read_text(encoding="utf-8") == WEIGHTS_DROPOUT_SOFTMAX

    def test_output_kind_is_read_off_the_last_dense_layer(self, tmp_path):
        net = m.build_mlp(2, m.MLPConfig((3, 2), ("square",), seed=0))
        net.layers[-1].activation = "square"
        path = tmp_path / "w.txt"
        m.save_weights(net, path)
        assert path.read_text(encoding="utf-8").splitlines()[2] == "output_kind linear"
        assert m.layer_labels(m.load_weights(path)) == ["dense_1", "dense_2"]

    @pytest.mark.parametrize("old, new", [
        ("dropout 0.25", "dropout 1.0"),
        ("dropout 0.5", "dropout -0.1"),
        ("dense 3 4 tanh", "dense 3 4 softmax"),
        ("output_kind softmax", "output_kind linear"),
        ("output_kind softmax", "output_kind ordinal"),
    ], ids=["dropout-one", "dropout-negative", "softmax-hidden", "kind-mismatch",
            "unknown-kind"])
    def test_header_checked_against_layers(self, tmp_path, old, new):
        path = tmp_path / "w.txt"
        path.write_text(WEIGHTS_DROPOUT_SOFTMAX.replace(old, new), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            m.load_weights(path)

    def test_round_trip(self, tmp_path):
        cfg = m.MLPConfig((6, 4, 3), ("relu", "tanh"), (0.2, 0.0),
                          output_kind="softmax", seed=5)
        net = m.build_mlp(4, cfg)
        path = tmp_path / "w.txt"
        m.save_weights(net, path)
        back = m.load_weights(path)
        X = np.random.default_rng(0).normal(size=(8, 4))
        np.testing.assert_array_equal(m.forward(net, X), m.forward(back, X))
        assert m.layer_labels(back) == m.layer_labels(net)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("not a container\n", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            m.load_weights(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError):
            m.load_weights(tmp_path / "absent.txt")

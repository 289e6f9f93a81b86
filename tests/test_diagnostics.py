"""VIF computation and the per-layer collinearity probe."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from polykit import diagnostics as dg
from polykit import mlp as m
from polykit import synthdata
from polykit.fitcore import centre_columns, column_norms, fit_ols
from test_fitcore import reference_pivoted_qr, reference_rank


def reference_vif(X):
    """The per-column regression loop that ``vif`` replaced, kept as its
    oracle: VIF_j = 1 / (1 - R^2_j) from an OLS fit of column j on all the
    others, capped for constant columns (centred norm at most max(n, k) * eps
    times the raw norm) and where 1 - R^2_j < COLLINEAR_TOL."""
    X = np.asarray(X, dtype=np.float64)
    n, k = X.shape
    out = np.full(k, dg.VIF_CAP)
    for j in range(k):
        y = X[:, j]
        yc = y - y.mean()
        if np.linalg.norm(yc) <= max(n, k) * np.finfo(np.float64).eps * np.linalg.norm(y):
            continue
        others = np.delete(X, j, axis=1)
        fit = fit_ols(others, y)
        resid = y - (others @ fit.coef + fit.intercept)
        one_minus_r2 = float(np.sum(resid**2)) / float(np.sum(yc**2))
        if one_minus_r2 >= dg.COLLINEAR_TOL:
            out[j] = min(1.0 / one_minus_r2, dg.VIF_CAP)
    return out


def one_stage_vif(X):
    """Oracle: ``vif`` from one column-pivoted QR of the whole centred,
    unit-norm design, as it was before the factorization went through
    the two-stage QR; the rank, null-space and cap rules are vif's."""
    X = np.asarray(X, dtype=np.float64)
    Xc, _, constant = centre_columns(X)
    values = np.full(X.shape[1], dg.VIF_CAP)
    live = np.flatnonzero(~constant)
    if live.size == 0:
        return values
    Z = Xc[:, live] / np.linalg.norm(Xc[:, live], axis=0)
    r, piv = scipy.linalg.qr(Z, mode="r", pivoting=True)
    rank, tol = reference_rank(r, X.shape[0])
    r_inv = scipy.linalg.solve_triangular(r[:rank, :rank], np.eye(rank))
    inflation = np.sum(r_inv**2, axis=1)
    in_null = np.linalg.norm(r_inv @ r[:rank, rank:], axis=1) * np.sqrt(dg.COLLINEAR_TOL) > tol
    finite = ~in_null & (inflation * dg.COLLINEAR_TOL <= 1.0)
    values[live[piv[:rank][finite]]] = inflation[finite]
    return values


def two_copy_vif(X):
    """Oracle: ``vif`` as it was when it centred X into a copy, copied the
    live columns again into a Fortran-ordered array, scaled them there and
    factored them by the two-stage ``reference_pivoted_qr``."""
    X = np.asarray(X, dtype=np.float64)
    Xc, _, constant = centre_columns(X)
    values = np.full(X.shape[1], dg.VIF_CAP)
    live = np.flatnonzero(~constant)
    if live.size == 0:
        return values
    Z = np.asfortranarray(Xc[:, live])
    Z /= column_norms(Z)
    r, piv, _ = reference_pivoted_qr(Z, live.size)
    rank, tol = reference_rank(r, X.shape[0])
    r_inv = scipy.linalg.solve_triangular(r[:rank, :rank], np.eye(rank))
    inflation = np.sum(r_inv**2, axis=1)
    in_null = np.linalg.norm(r_inv @ r[:rank, rank:], axis=1) * np.sqrt(dg.COLLINEAR_TOL) > tol
    finite = ~in_null & (inflation * dg.COLLINEAR_TOL <= 1.0)
    values[live[piv[:rank][finite]]] = inflation[finite]
    return values


def correlated_pair(rho, n=200, seed=0):
    """Two centered unit columns with sample correlation exactly rho."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    a -= a.mean()
    a /= np.linalg.norm(a)
    b -= b.mean()
    b -= (b @ a) * a
    b /= np.linalg.norm(b)
    return np.column_stack([a, rho * a + np.sqrt(1 - rho**2) * b])


class TestVif:
    def test_orthogonal_columns_are_one(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.normal(size=(50, 4)))
        q -= q.mean(axis=0)
        # re-orthogonalize after centering
        q, _ = np.linalg.qr(q)
        values = dg.vif(q)
        np.testing.assert_allclose(values, 1.0, atol=1e-8)

    def test_rho_squared_point_nine_gives_ten(self):
        X = correlated_pair(np.sqrt(0.9))
        values = dg.vif(X)
        np.testing.assert_allclose(values, 10.0, atol=1e-6)

    def test_duplicate_column_capped(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=40)
        values = dg.vif(np.column_stack([x, x]))
        np.testing.assert_array_equal(values, [dg.VIF_CAP, dg.VIF_CAP])

    def test_zero_variance_column_capped(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(30), rng.normal(size=30)])
        assert dg.vif(X)[0] == dg.VIF_CAP

    def test_two_column_identity_with_correlation(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 2))
        X[:, 1] += 0.5 * X[:, 0]
        r = np.corrcoef(X[:, 0], X[:, 1])[0, 1]
        np.testing.assert_allclose(dg.vif(X), 1.0 / (1.0 - r**2), atol=1e-8)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 3))
        X[:, 2] += X[:, 0]
        before = dg.vif(X)
        X[:, 1] *= 1e4
        after = dg.vif(X)
        np.testing.assert_allclose(before, after, rtol=1e-8)

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            dg.vif(np.ones((5, 1)))

    def test_needs_a_row(self):
        with pytest.raises(ValueError, match="need at least one row"):
            dg.vif(np.ones((0, 3)))

    def test_inexact_constant_column_capped(self):
        # 0.1 has no exact binary mean: centring leaves a roundoff residue
        rng = np.random.default_rng(6)
        X = np.column_stack([np.full(50, 0.1), rng.normal(size=(50, 2))])
        values = dg.vif(X)
        assert values[0] == dg.VIF_CAP
        assert np.all(values[1:] < 2.0)


def orthogonal_columns():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(50, 4)))
    q, _ = np.linalg.qr(q - q.mean(axis=0))
    return q


def duplicate_column():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 3))
    return np.column_stack([X, X[:, 1]])


def combination_and_zero_column():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(100, 4))
    return np.column_stack([X, X[:, 0] - 2.0 * X[:, 2], np.zeros(100)])


def constant_columns():
    rng = np.random.default_rng(4)
    return np.column_stack([np.ones(60), rng.normal(size=(60, 2)), np.full(60, 0.1)])


def trained_relu_net(seed=7):
    """A small net_probe-style network: relu, dropout, softmax output, with
    the first hidden layer's first four units dead."""
    X, labels = synthdata.synthetic_digits(600, seed)
    targets, _ = m.one_hot(labels)
    cfg = m.MLPConfig((40, 20, targets.shape[1]), ("relu", "relu"), (0.2, 0.2),
                      output_kind="softmax", epochs=2, learning_rate=0.05, seed=seed)
    net = m.train_mlp(X, targets, cfg)
    net.layers[0].bias[:4] = -1e3
    return net, X[:300]


def relu_layer(index):
    def outputs():
        net, X = trained_relu_net()
        return m.layer_activations(net, X, index)
    return outputs


def planted(extra):
    X = np.random.default_rng(5).normal(size=(100, 10))
    return np.column_stack([X, extra(X)])


VIF_CASES = {
    "orthogonal": orthogonal_columns,
    "rho2-0.9": lambda: correlated_pair(np.sqrt(0.9)),
    "duplicate": duplicate_column,
    "combination-and-zero": combination_and_zero_column,
    "constants": constant_columns,
    "relu-dense_1": relu_layer(0),
    "relu-dense_2": relu_layer(2),
    "softmax-dense_3": relu_layer(4),
    "tall": lambda: np.random.default_rng(8).normal(size=(2000, 60)),
    "wide": lambda: np.random.default_rng(9).normal(size=(10, 25)),
    "square": lambda: np.random.default_rng(10).normal(size=(12, 12)),
    "inexact-constant": lambda: np.column_stack(
        [np.full(50, 0.1), np.random.default_rng(6).normal(size=(50, 3))]),
    "twice-x3": lambda: planted(lambda X: 2 * X[:, 3]),
    "x7-minus-x9": lambda: planted(lambda X: X[:, 7] - X[:, 9]),
}


@pytest.mark.parametrize("case", list(VIF_CASES))
def test_matches_regression_loop(case):
    X = VIF_CASES[case]()
    got, ref = dg.vif(X), reference_vif(X)
    capped = ref >= dg.VIF_CAP
    np.testing.assert_array_equal(got >= dg.VIF_CAP, capped)
    np.testing.assert_allclose(got[~capped], ref[~capped], rtol=1e-9)


@pytest.mark.parametrize("case", list(VIF_CASES))
def test_matches_one_stage_qr(case):
    X = VIF_CASES[case]()
    got, ref = dg.vif(X), one_stage_vif(X)
    capped = ref >= dg.VIF_CAP
    np.testing.assert_array_equal(got >= dg.VIF_CAP, capped)
    np.testing.assert_allclose(got[~capped], ref[~capped], rtol=1e-8)


@pytest.mark.parametrize("case", list(VIF_CASES))
def test_matches_the_two_copy_vif(case):
    # the columns are now scaled on the small R, after the factorization of
    # the centred design, rather than on the design before it: the same
    # values up to roundoff
    X = VIF_CASES[case]()
    got, ref = dg.vif(X), two_copy_vif(X)
    capped = ref >= dg.VIF_CAP
    np.testing.assert_array_equal(got >= dg.VIF_CAP, capped)
    np.testing.assert_allclose(got[~capped], ref[~capped], rtol=1e-12, atol=0)


def test_vif_holds_one_design_copy():
    # X is centred straight into one Fortran-ordered buffer and factored in
    # place; only the live columns of the small R are copied
    rng = np.random.default_rng(11)
    X = np.maximum(rng.normal(size=(2000, 50)) @ rng.normal(size=(50, 100)), 0.0)
    X[:, :5] = 0.0  # dead units: constant columns, dropped from the factorization
    tracemalloc.start()
    try:
        dg.vif(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * X.nbytes, peak / X.nbytes


class TestSummary:
    def test_all_ones(self):
        assert dg.vif_summary(np.array([1.0, 1.0, 1.0])) == (0.0, 1.0)

    def test_mixed(self):
        prop, mean = dg.vif_summary(np.array([5.0, 15.0, 40.0, 2.0]))
        assert prop == 0.5
        assert mean == 15.5

    def test_all_capped(self):
        vifs = np.full(10, dg.VIF_CAP)
        assert dg.vif_summary(vifs) == (1.0, dg.VIF_CAP)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dg.vif_summary(np.array([]))


def identity_net(width, with_dropout=False):
    layers = [m.DenseLayer(np.eye(width), np.zeros(width), "identity")]
    if with_dropout:
        layers.append(m.DropoutLayer(0.4))
    layers.append(m.DenseLayer(np.eye(width), np.zeros(width), "identity"))
    return m.MLP(tuple(layers))


class TestProbe:
    def test_identity_network_reports_input_summary(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        X[:, 2] += X[:, 0]
        base_prop, base_mean = dg.vif_summary(dg.vif(X))
        reports = dg.probe_layers(identity_net(3), X)
        assert len(reports) == 2
        for rep in reports:
            assert rep.proportion_over_threshold == base_prop
            assert rep.mean_vif == pytest.approx(base_mean, rel=1e-12)

    def test_dropout_duplicates_preceding_dense_exactly(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 4))
        cfg = m.MLPConfig((5, 5, 3), ("tanh", "tanh"), (0.4, 0.3),
                          output_kind="softmax", seed=2)
        net = m.build_mlp(4, cfg)
        reports = dg.probe_layers(net, X)
        labels = [r.layer_label for r in reports]
        assert labels == ["dense_1", "dropout_1", "dense_2", "dropout_2", "dense_3"]
        assert reports[1].vifs == reports[0].vifs
        assert reports[1].mean_vif == reports[0].mean_vif
        assert reports[3].vifs == reports[2].vifs

    def test_softmax_output_layer_is_capped(self):
        # softmax rows sum to one: exact collinearity in the last layer
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 4))
        cfg = m.MLPConfig((5, 3), ("tanh",), output_kind="softmax", seed=0)
        net = m.build_mlp(4, cfg)
        reports = dg.probe_layers(net, X)
        assert reports[-1].mean_vif == dg.VIF_CAP
        assert reports[-1].proportion_over_threshold == 1.0

    def test_width_one_layer_undefined(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        cfg = m.MLPConfig((1, 2), ("tanh",), seed=0)
        net = m.build_mlp(2, cfg)
        reports = dg.probe_layers(net, X)
        assert reports[0].undefined
        assert not reports[1].undefined

    def test_untrained_network_probes_cleanly(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 6))
        cfg = m.MLPConfig((4, 4, 2), ("relu", "relu"), (0.2, 0.2), seed=9)
        net = m.build_mlp(6, cfg)
        reports = dg.probe_layers(net, X)
        assert len(reports) == 5
        assert all(np.isfinite(r.mean_vif) for r in reports)

    def test_square_activation_collinearity_grows(self):
        # deeper squares of smooth data should not get less collinear
        wins = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(300, 3))
            cfg = m.MLPConfig((6, 6, 6), ("square", "square"), seed=seed)
            net = m.build_mlp(3, cfg)
            reports = dg.probe_layers(net, X)
            means = [r.mean_vif for r in reports]
            wins += all(b >= a * 0.999 for a, b in zip(means, means[1:]))
        assert wins >= 3


def test_probe_matches_vifs_of_numpy_activations():
    # net_probe's shape: 784-100-50-10, relu, dropout 0.2, softmax
    X, labels = synthdata.synthetic_digits(2000, seed=3, noise=1.2)
    targets, _ = m.one_hot(labels)
    cfg = m.MLPConfig((100, 50, targets.shape[1]), ("relu", "relu"), (0.2, 0.2),
                      output_kind="softmax", epochs=2, learning_rate=0.05, seed=3)
    net = m.train_mlp(X, targets, cfg)
    probe = X[::2]
    reports = dg.probe_layers(net, probe)
    outputs, finite = probe, 0
    for layer, rep in zip(net.layers, reports):
        if isinstance(layer, m.DenseLayer):  # a dropout layer passes its input on
            outputs = m.apply_activation(layer.activation, outputs @ layer.weights + layer.bias)
        got, want = np.asarray(rep.vifs), dg.vif(outputs)
        capped = want >= dg.VIF_CAP
        np.testing.assert_array_equal(got >= dg.VIF_CAP, capped)
        assert np.all(np.abs(got - want)[~capped] <= 1e-12 * want[~capped])
        finite += int(np.sum(~capped))
    assert finite > 0
    assert reports[-1].mean_vif == dg.VIF_CAP  # softmax rows sum to one


class TestFormatting:
    def test_table_layout(self):
        reports = [
            dg.VIFReport("dense_1", (1.0, 2.0), 0.0, 1.5),
            dg.VIFReport("dense_2", (), 0.0, 0.0, undefined=True),
        ]
        text = dg.format_reports(reports)
        lines = text.splitlines()
        assert lines[0].split() == ["layer", "share_vif_over_10", "mean_vif"]
        assert "dense_1" in lines[1]
        assert "undefined" in lines[2]

    def test_csv_layout(self):
        reports = [dg.VIFReport("dense_1", (1.0,), 0.25, 3.5)]
        text = dg.reports_to_csv(reports)
        assert text.splitlines()[0] == "layer,share_over_threshold,mean_vif,threshold,undefined"
        assert text.splitlines()[1].startswith("dense_1,0.25,3.5,")

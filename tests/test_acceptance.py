"""Acceptance suite: one test per release criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion. Each criterion carries a wall-clock budget that is asserted
alongside the substance checks. Criterion 10 is the experimental
image-classification stretch goal; it uses a locally cached MNIST when one
exists and the bundled synthetic surrogate otherwise.
"""

import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from polykit import diagnostics as dg
from polykit import equivalence as eq
from polykit import fitcore as fc
from polykit import mlp as m
from polykit import polyterms as pt
from polykit import stepwise as sw
from polykit.dataset import (
    ColumnSpec,
    DummyGroups,
    Schema,
    dataset_from_arrays,
    encode_design,
    split,
)
from polykit.synthdata import linear_response, load_mnist, quadratic_response, synthetic_digits

from conftest import coded


@contextmanager
def criterion(cid, title, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] {cid} FAIL  {title}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"{cid} exceeded its {budget_seconds}s budget ({elapsed:.1f}s)"
    )
    print(f"[acceptance] {cid} PASS  {title}  ({elapsed:.2f}s)")


def numeric_terms(p, d):
    return pt.enumerate_terms(p, DummyGroups.all_numeric(p), pt.PolySpec(d))


def test_c01_term_count_correctness():
    with criterion("c01", "term counts match C(p+d,d)-1 and the recurrence bound", 1.0):
        for p in range(1, 7):
            for d in range(1, 5):
                exact = len(numeric_terms(p, d))
                assert exact == pt.exact_numeric_term_count(p, d)
                assert exact <= pt.count_terms_bound(p, d).bound


def test_c02_dummy_rule_correctness():
    with criterion("c02", "no squared dummies or within-group products", 1.0):
        schema = Schema(
            (
                ColumnSpec("u", "numeric"),
                ColumnSpec("v", "numeric"),
                ColumnSpec("c", "categorical", ("a", "b", "c", "d")),
                ColumnSpec("y", "response_numeric"),
            )
        )
        rng = np.random.default_rng(0)
        ds = coded(
            schema,
            {
                "u": rng.normal(size=20),
                "v": rng.normal(size=20),
                "c": rng.choice(["a", "b", "c", "d"], size=20),
                "y": rng.normal(size=20),
            },
        )
        design, groups = encode_design(ds)
        assert design.shape[1] == 5  # 2 numerics + 3 dummies
        terms = pt.enumerate_terms(design.shape[1], groups, pt.PolySpec(2))
        dummy_of = groups.group_of()
        assert len(terms) > 0
        for mono in terms:
            seen_groups = set()
            for col, exp in mono.powers:
                if col in dummy_of:
                    assert exp == 1, f"squared dummy in {mono}"
                    assert dummy_of[col] not in seen_groups, f"group product in {mono}"
                    seen_groups.add(dummy_of[col])


def test_c03_perfect_fit_pathology():
    with criterion("c03", "degree n-1 gives R^2 = 1 and capped VIFs", 1.0):
        x = np.linspace(1.0, 2.0, 8)
        y = 3.0 * np.sin(x) + 1.0
        terms = numeric_terms(1, 7)
        P = pt.expand(x[:, None], terms)
        fit = fc.fit_ols(P, y)
        pred = P @ fit.coef + fit.intercept
        assert fc.r_squared(pred, y) > 1.0 - 1e-6
        vifs = dg.vif(P)
        assert int(np.sum(vifs >= dg.VIF_CAP)) >= 1


def test_c04_coefficient_recovery():
    with criterion("c04", "degree-2 recovery within 3 standard errors (>=9/10 seeds)", 5.0):
        sigma = 0.1
        truth = {"": 1.0, "u": 2.0, "v": 3.0, "u^2": 0.0, "u*v": -1.0, "v^2": 1.0}
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.uniform(-2, 2, size=(1000, 2))
            u, v = X[:, 0], X[:, 1]
            y = 1 + 2 * u + 3 * v - u * v + v**2 + rng.normal(0, sigma, 1000)
            terms = numeric_terms(2, 2)
            P = pt.expand(X, terms)
            fit = fc.fit_ols(P, y)
            A = np.column_stack([np.ones(1000), P])
            se = sigma * np.sqrt(np.diag(np.linalg.inv(A.T @ A)))
            ok = abs(fit.intercept - truth[""]) <= 3 * se[0]
            for j, lbl in enumerate(terms.labels(("u", "v"))):
                ok &= abs(fit.coef[j] - truth[lbl]) <= 3 * se[j + 1]
            hits += ok
        assert hits >= 9


def test_c05_vif_analytic_value():
    with criterion("c05", "sample rho^2 = 0.9 gives VIF = 10 on both columns", 1.0):
        rng = np.random.default_rng(0)
        a = rng.normal(size=300)
        b = rng.normal(size=300)
        a -= a.mean()
        a /= np.linalg.norm(a)
        b -= b.mean()
        b -= (b @ a) * a
        b /= np.linalg.norm(b)
        rho = np.sqrt(0.9)
        X = np.column_stack([a, rho * a + np.sqrt(1 - rho**2) * b])
        np.testing.assert_allclose(dg.vif(X), 10.0, atol=1e-6)


def test_c06_network_polynomial_exactness():
    with criterion("c06", "square nets match their extracted polynomials", 10.0):
        for seed in range(10):
            p = 1 + seed % 3
            layers = 1 + seed % 3
            units = 1 + seed % 5
            net = eq.random_polynomial_network(p, layers, units, seed=seed)
            extracted = eq.extract_polynomial(net)
            assert eq.equivalence_check(net, extracted, 100, seed=seed) <= 1e-8
        net3 = eq.random_polynomial_network(2, 3, 3, seed=11)
        per_layer = eq.extract_layer_polynomials(net3)
        assert eq.degree_growth_report(per_layer) == [2, 4, 8]


def test_c07_multicollinearity_growth_across_layers():
    with criterion("c07", "mean VIF rises across dense layers (>=4/5 seeds)", 300.0):
        loaded = load_mnist(max_rows=10000)
        if loaded is not None:
            X, labels = loaded
        else:
            X, labels = synthetic_digits(10000, seed=42)
        X = X - X.mean(axis=0)  # probe preprocessing: centered pixels
        Y, _classes = m.one_hot(labels)
        wins = 0
        for seed in range(5):
            cfg = m.MLPConfig(
                (10, 10, 10), ("relu", "relu"), (0.4, 0.3), output_kind="softmax",
                epochs=8, batch_size=32, learning_rate=0.02, seed=seed,
            )
            net = m.train_mlp(X, Y, cfg)
            reports = dg.probe_layers(net, X[:2000])
            labels_seen = [r.layer_label for r in reports]
            assert labels_seen == ["dense_1", "dropout_1", "dense_2", "dropout_2", "dense_3"]
            # dropout rows must equal their dense predecessors exactly
            assert reports[1].vifs == reports[0].vifs
            assert reports[1].mean_vif == reports[0].mean_vif
            assert reports[3].vifs == reports[2].vifs
            assert reports[3].mean_vif == reports[2].mean_vif
            dense_means = [r.mean_vif for r in reports if r.layer_label.startswith("dense")]
            wins += dense_means[0] < dense_means[1] < dense_means[2]
        assert wins >= 4


def test_c08_degree_two_advantage():
    with criterion("c08", "degree 2 beats degree 1 on quadratic data, ties on linear", 30.0):
        quad_wins = 0
        for seed in range(10):
            X, y = quadratic_response(2000, seed=seed)
            ds = dataset_from_arrays(X, y, feature_names=("u", "v"))
            train, test = split(ds, seed=seed)
            design, _ = encode_design(train)
            test_design, _ = encode_design(test, train.schema)
            scores = {}
            for d in (1, 2):
                model = fc.fit_poly_model(design, train.response_values(), numeric_terms(2, d))
                scores[d] = fc.mape(fc.predict(model, test_design), test.response_values())
            quad_wins += scores[2] < scores[1]
        assert quad_wins >= 9

        X, y = linear_response(2000, seed=123)
        ds = dataset_from_arrays(X, y, feature_names=("u", "v"))
        train, test = split(ds, seed=0)
        design, _ = encode_design(train)
        test_design, _ = encode_design(test, train.schema)
        lin = {}
        for d in (1, 2):
            model = fc.fit_poly_model(design, train.response_values(), numeric_terms(2, d))
            lin[d] = fc.mape(fc.predict(model, test_design), test.response_values())
        assert abs(lin[2] - lin[1]) / lin[1] < 0.05


def test_c09_fsr_support_recovery():
    with criterion("c09", "FSR keeps {u, u^2}, drops {v, w} (>=8/10 seeds)", 30.0):
        monos = (
            pt.Monomial(((0, 1),)),
            pt.Monomial(((1, 1),)),
            pt.Monomial(((2, 1),)),
            pt.Monomial(((0, 1), (1, 1))),
            pt.Monomial(((0, 2),)),
            pt.Monomial(((1, 2),)),
        )
        candidates = pt.TermSet(
            monos, 3, DummyGroups.all_numeric(3, ("u", "v", "w")), pt.PolySpec(2)
        )
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            X = rng.uniform(-2, 2, size=(400, 3))
            y = 2 * X[:, 0] + X[:, 0] ** 2 + rng.normal(0, 0.5, 400)
            ds = dataset_from_arrays(X, y, feature_names=("u", "v", "w"))
            cfg = sw.FSRConfig(candidates, improvement_tolerance=0.02)
            labels = set(sw.fsr(ds, cfg, seed=seed).model.terms.labels())
            hits += {"u", "u^2"} <= labels and not ({"v", "w"} & labels)
        assert hits >= 8


def test_c10_image_classification_stretch():
    # experimental stretch goal: PCA-to-50 then degree-2 one-vs-all logistic
    with criterion("c10", "20k-case image pipeline reaches test PCC >= 0.93", 900.0):
        loaded = load_mnist(max_rows=30000)
        if loaded is not None and len(loaded[1]) >= 30000:
            X, labels = loaded
        else:
            X, labels = synthetic_digits(30000, seed=7)
        ds = dataset_from_arrays(X, labels, classification=True)
        train, test = split(ds, seed=0)
        assert (train.n, test.n) == (20000, 10000)
        design, groups = encode_design(train)
        test_design, _ = encode_design(test, train.schema)
        basis = fc.pca_fit(design, n_components=50)
        terms = numeric_terms(basis.r, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # every class converges
            model = fc.fit_poly_model(
                design, train.response_values(), terms, "logistic",
                pca=basis, schema=train.schema, groups=groups,
            )
        preds = fc.predict(model, test_design)
        value = fc.pcc(preds, test.response_values())
        print(f"[acceptance] c10 test PCC = {value:.4f}")
        assert value >= 0.93

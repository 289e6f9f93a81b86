"""Symbolic polynomial arithmetic and network extraction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polykit import equivalence as eq
from polykit import mlp as m
from polykit.dataset import DummyGroups
from polykit.errors import MemoryBudgetError
from polykit.fitcore import fit_ols
from polykit.polyterms import PolySpec, enumerate_terms, expand, exponent_matrix, graded_position


def numeric_terms(nvars, degree):
    return enumerate_terms(nvars, DummyGroups.all_numeric(nvars), PolySpec(degree))


def var(i, nvars=2):
    return eq.SymbolicPoly(numeric_terms(nvars, 1), 0.0, np.eye(nvars)[i])


def const(value, nvars=2):
    return eq.SymbolicPoly(numeric_terms(nvars, 1), value, np.zeros(nvars))


def as_dict(poly):
    """Nonzero coefficients keyed by dense exponent tuple; the constant's
    key is all zeros."""
    out = {(0,) * poly.terms.width: poly.constant} if poly.constant else {}
    exps = exponent_matrix(poly.terms, poly.terms.width)
    out.update({tuple(int(e) for e in exps[j]): float(poly.coef[j])
                for j in np.flatnonzero(poly.coef)})
    return out


def close_polys(a, b, tol=1e-9):
    da, db = as_dict(a), as_dict(b)
    return all(abs(da.get(k, 0.0) - db.get(k, 0.0)) <= tol for k in set(da) | set(db))


@st.composite
def polys(draw, nvars=2, max_terms=4, max_degree=3):
    terms = numeric_terms(nvars, draw(st.integers(1, max_degree)))
    coef = np.zeros(len(terms) + 1)
    for _ in range(draw(st.integers(0, max_terms))):
        coef[draw(st.integers(0, len(terms)))] = draw(
            st.floats(min_value=-4.0, max_value=4.0, allow_nan=False).filter(
                lambda c: abs(c) > 1e-6
            )
        )
    return eq.SymbolicPoly(terms, coef[0], coef[1:])


def reference_extract(mlp):
    """Per-layer polynomials as {exponent tuple: coefficient} dicts, carried
    through the network one monomial pair at a time (the oracle)."""

    def pruned(coeffs):
        return {e: c for e, c in coeffs.items() if abs(c) >= eq.PRUNE_TOL}

    def mul(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0.0) + ca * cb
        return pruned(out)

    p = mlp.input_width
    current = [{tuple(int(i == j) for j in range(p)): 1.0} for i in range(p)]
    per_layer = []
    for layer in mlp.layers:
        if isinstance(layer, m.DropoutLayer):
            per_layer.append(list(current))
            continue
        nxt = []
        for j in range(layer.weights.shape[1]):
            out = {(0,) * p: float(layer.bias[j])}
            for poly, w in zip(current, layer.weights[:, j]):
                if w == 0.0:
                    continue
                for exps, c in poly.items():
                    out[exps] = out.get(exps, 0.0) + w * c
            affine = pruned(out)
            nxt.append(mul(affine, affine) if layer.activation == "square" else affine)
        current = nxt
        per_layer.append(list(current))
    return per_layer


class TestRingOps:
    def test_binomial_square(self):
        s = eq.poly_pow(eq.poly_add(var(0), var(1)), 2)
        assert as_dict(s) == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}
        assert len(s) == 3

    def test_pow_zero_is_one(self):
        p = eq.poly_add(var(0), const(3.0))
        one = eq.poly_pow(p, 0)
        assert as_dict(one) == {(0, 0): 1.0}

    def test_mul_by_zero(self):
        prod = eq.poly_mul(eq.poly_add(var(0), var(1)), const(0.0))
        assert as_dict(prod) == {}
        assert prod.degree == 0

    def test_near_zero_coefficients_pruned(self):
        a = eq.SymbolicPoly(numeric_terms(1, 1), 0.0, [1.0])
        b = eq.SymbolicPoly(numeric_terms(1, 1), 0.0, [-1.0 + 1e-15])
        assert as_dict(eq.poly_add(a, b)) == {}

    def test_rejects_a_partial_term_set(self):
        capped = enumerate_terms(2, DummyGroups.all_numeric(2), PolySpec(2, 1))
        with pytest.raises(ValueError, match="all-numeric"):
            eq.SymbolicPoly(capped, 0.0, np.zeros(len(capped)))
        with pytest.raises(ValueError, match="coef shape"):
            eq.SymbolicPoly(numeric_terms(2, 1), 0.0, np.zeros(3))

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys())
    def test_add_commutes(self, a, b):
        assert close_polys(eq.poly_add(a, b), eq.poly_add(b, a))

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys())
    def test_mul_commutes(self, a, b):
        assert close_polys(eq.poly_mul(a, b), eq.poly_mul(b, a))

    @settings(max_examples=40, deadline=None)
    @given(polys(max_terms=3), polys(max_terms=3), polys(max_terms=3))
    def test_add_associates(self, a, b, c):
        left = eq.poly_add(eq.poly_add(a, b), c)
        right = eq.poly_add(a, eq.poly_add(b, c))
        assert close_polys(left, right)

    @settings(max_examples=40, deadline=None)
    @given(polys(max_terms=3), polys(max_terms=3), polys(max_terms=3))
    def test_mul_distributes_over_add(self, a, b, c):
        left = eq.poly_mul(a, eq.poly_add(b, c))
        right = eq.poly_add(eq.poly_mul(a, b), eq.poly_mul(a, c))
        assert close_polys(left, right, tol=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(polys(max_terms=3), polys(max_terms=3))
    def test_evaluate_is_a_ring_map(self, a, b):
        pts = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
        va, vb = a.evaluate(pts), b.evaluate(pts)
        np.testing.assert_allclose(eq.poly_add(a, b).evaluate(pts), va + vb, atol=1e-9)
        np.testing.assert_allclose(eq.poly_mul(a, b).evaluate(pts), va * vb, atol=1e-9)


def square_unit_net():
    """One input, one unit, weight 1, bias 0, square activation."""
    layer = m.DenseLayer(np.array([[1.0]]), np.zeros(1), "square")
    return m.MLP((layer,))


def zero_weight_net():
    net = eq.random_polynomial_network(2, 3, 3, seed=3)
    net.layers[1].weights[:] = 0.0
    return net


def dropout_net():
    dense1 = m.DenseLayer(np.array([[1.0, 0.5]]), np.zeros(2), "square")
    drop = m.DropoutLayer(0.4)
    dense2 = m.DenseLayer(np.array([[1.0], [1.0]]), np.zeros(1), "identity")
    return m.MLP((dense1, drop, dense2))


def c06_nets():
    nets = [eq.random_polynomial_network(1 + s % 3, 1 + s % 3, 1 + s % 5, seed=s)
            for s in range(10)]
    return nets + [eq.random_polynomial_network(2, 3, 3, seed=11)]


class TestExtraction:
    def test_single_square_unit(self):
        polys_out = eq.extract_polynomial(square_unit_net())
        assert len(polys_out) == 1
        assert as_dict(polys_out[0]) == {(2,): 1.0}
        assert polys_out[0].degree == 2

    def test_two_square_layers_degree_four(self):
        for seed in range(5):
            net = eq.random_polynomial_network(2, 2, 3, seed=seed)
            out = eq.extract_polynomial(net)
            assert max(p.degree for p in out) <= 4
            assert max(p.degree for p in out) == 4

    def test_three_square_layers_degree_eight(self):
        net = eq.random_polynomial_network(2, 3, 3, seed=0)
        per_layer = eq.extract_layer_polynomials(net)
        assert eq.degree_growth_report(per_layer) == [2, 4, 8]

    def test_identity_layers_stay_affine(self):
        net = eq.random_polynomial_network(3, 3, 4, seed=1, activation="identity")
        per_layer = eq.extract_layer_polynomials(net)
        assert eq.degree_growth_report(per_layer) == [1, 1, 1]
        assert eq.equivalence_check(net, per_layer[-1], 50, seed=2) < 1e-12

    def test_zero_weights_collapse_degree(self):
        per_layer = eq.extract_layer_polynomials(zero_weight_net())
        degrees = eq.degree_growth_report(per_layer)
        assert degrees[0] == 2
        assert degrees[1] == 0
        assert degrees[2] == 0

    def test_dropout_layers_pass_through(self):
        net = dropout_net()
        per_layer = eq.extract_layer_polynomials(net)
        assert len(per_layer) == 3
        assert eq.degree_growth_report(per_layer) == [2, 2, 2]
        assert eq.equivalence_check(net, per_layer[-1], 50, seed=0) < 1e-10

    def test_relu_rejected(self):
        cfg = m.MLPConfig((3, 1), ("relu",), seed=0)
        net = m.build_mlp(2, cfg)
        with pytest.raises(ValueError, match="not polynomial"):
            eq.extract_polynomial(net)

    @pytest.mark.parametrize("name, sizes", [
        ("n_inputs", (0, 2, 3)), ("n_layers", (2, 0, 3)), ("units", (2, 2, 0)),
        ("n_inputs", (-1, 2, 3)),
    ])
    def test_non_positive_size_names_the_argument(self, name, sizes):
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            eq.random_polynomial_network(*sizes, seed=0)

    def test_budget_enforced(self, monkeypatch):
        net = eq.random_polynomial_network(3, 3, 5, seed=0)
        monkeypatch.setattr(eq, "COEF_BUDGET", 10)
        with pytest.raises(MemoryBudgetError):
            eq.extract_polynomial(net)

    def test_five_square_layers_within_memory(self):
        net = eq.random_polynomial_network(4, 5, 3, 0)
        tracemalloc.start()
        try:
            per_layer = eq.extract_layer_polynomials(net)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert eq.degree_growth_report(per_layer) == [2, 4, 8, 16, 32]
        assert peak < 64e6

    @pytest.mark.parametrize("net", [
        *c06_nets(),
        eq.random_polynomial_network(4, 4, 4, 7),
        eq.random_polynomial_network(3, 5, 3, 7),
        zero_weight_net(),
        dropout_net(),
    ], ids=[*(f"c06-{i}" for i in range(11)), "4-4-4-seed7", "3-5-3-seed7",
            "zero-weights", "dropout"])
    def test_matches_reference_extraction(self, net):
        per_layer = eq.extract_layer_polynomials(net)
        reference = reference_extract(net)
        degrees = [[max((sum(e) for e in ref), default=0) for ref in layer] for layer in reference]
        assert eq.degree_growth_report(per_layer) == [max(layer) for layer in degrees]
        for layer, ref_layer in zip(per_layer, reference, strict=True):
            for poly, ref in zip(layer, ref_layer, strict=True):
                got = as_dict(poly)
                assert len(poly) == len(ref)
                assert got.keys() == ref.keys()
                for exps, c in ref.items():
                    assert abs(got[exps] - c) <= 1e-12 * max(1.0, abs(c))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_blocked_product_has_the_bits_of_the_column_loop(self, seed):
        net = eq.random_polynomial_network(4, 4, 4, seed)
        terms, rows = numeric_terms(4, 1), np.hstack([np.zeros((4, 1)), np.eye(4)])
        for layer in net.layers:
            rows = layer.weights.T @ rows
            rows[:, 0] += layer.bias
            got = eq._product(terms, rows, terms, rows)
            want = column_loop_product(terms, rows, terms, rows)
            assert got[0].spec.degree == want[0].spec.degree
            assert np.array_equal(got[1], want[1])
            terms, rows = got
        assert terms.spec.degree == 16

    def test_blocked_product_of_two_degrees_has_the_bits_of_the_column_loop(self):
        rng = np.random.default_rng(4)
        terms_a, terms_b = numeric_terms(4, 3), numeric_terms(4, 5)
        a = rng.normal(size=(3, len(terms_a) + 1))
        b = rng.normal(size=(3, len(terms_b) + 1))
        got = eq._product(terms_a, a, terms_b, b)
        want = column_loop_product(terms_a, a, terms_b, b)
        assert np.array_equal(got[1], want[1])


def column_loop_product(terms_a, a, terms_b, b):
    """``equivalence._product`` one column of ``a`` at a time: one
    ``graded_position`` call and one ``bincount`` per column and row."""
    zero = np.zeros((1, terms_a.width), dtype=np.int64)
    exps_a = np.vstack([zero, exponent_matrix(terms_a, terms_a.width)])
    exps_b = np.vstack([zero, exponent_matrix(terms_b, terms_b.width)])
    terms = numeric_terms(terms_a.width, terms_a.spec.degree + terms_b.spec.degree)
    out = np.zeros((a.shape[0], len(terms) + 1))
    for column, exps in zip(a.T, exps_a):
        index = graded_position(exps + exps_b)
        for row, left, right in zip(out, column, b):
            row += np.bincount(index, left * right, minlength=out.shape[1])
    return terms, eq._prune(out)


def loop_deviation(net, extracted, n_points, seed):
    """equivalence_check's value from one expansion per polynomial."""
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n_points, net.input_width))
    f = m.forward(net, pts)
    rel = [np.abs(f[:, j] - poly.evaluate(pts)) / np.maximum(1.0, np.abs(f[:, j]))
           for j, poly in enumerate(extracted)]
    return max(float(r.max()) for r in rel)


class TestEquivalenceCheck:
    @pytest.mark.parametrize("case", ["4x4x4", "2x3x3", "mixed_degrees"])
    def test_one_expansion_matches_the_loop(self, monkeypatch, case):
        if case == "mixed_degrees":
            # term sets of degrees 1 and 2, the second polynomial off by x1^2 - x1
            net = m.MLP((m.DenseLayer(np.eye(2), np.zeros(2), "identity"),))
            extracted = [var(0), eq.poly_mul(var(1), var(1))]
        else:
            p, layers, units = map(int, case.split("x"))
            net = eq.random_polynomial_network(p, layers, units, seed=7)
            extracted = eq.extract_polynomial(net)
        want = loop_deviation(net, extracted, 100, 3)
        calls = []
        monkeypatch.setattr(eq, "expand", lambda *a, **k: calls.append(a) or expand(*a, **k))
        got = eq.equivalence_check(net, extracted, 100, seed=3)
        assert len(calls) == 1
        assert abs(got - want) <= 1e-12, (got, want)

    def test_random_square_nets_exact(self):
        for seed in range(10):
            p = 1 + seed % 3
            layers = 1 + seed % 3
            net = eq.random_polynomial_network(p, layers, 1 + (seed % 5), seed=seed)
            extracted = eq.extract_polynomial(net)
            assert eq.equivalence_check(net, extracted, 100, seed=seed) <= 1e-8

    def test_origin_matches_constant_term(self):
        net = eq.random_polynomial_network(2, 2, 3, seed=4)
        extracted = eq.extract_polynomial(net)
        at_origin = m.forward(net, np.zeros((1, 2)))[0]
        for j, poly in enumerate(extracted):
            assert abs(at_origin[j] - poly.constant) < 1e-12

    def test_degree_bound_and_generic_equality(self):
        achieves = 0
        for seed in range(10):
            net = eq.random_polynomial_network(2, 2, 3, seed=100 + seed)
            out = eq.extract_polynomial(net)
            top = max(p.degree for p in out)
            assert top <= 4
            achieves += top == 4
        assert achieves >= 9

    def test_square_net_agrees_with_forward_everywhere_sampled(self):
        # the mlp-module invariant: forward == extracted polynomial values
        net = eq.random_polynomial_network(3, 2, 4, seed=6)
        extracted = eq.extract_polynomial(net)
        pts = np.random.default_rng(0).uniform(-1, 1, size=(200, 3))
        net_vals = m.forward(net, pts)
        for j, poly in enumerate(extracted):
            rel = np.abs(net_vals[:, j] - poly.evaluate(pts)) / np.maximum(
                1.0, np.abs(net_vals[:, j])
            )
            assert rel.max() <= 1e-8

    def test_least_squares_recovers_extracted_coefficients(self):
        # the paper's identity: a square network is a polynomial regression model,
        # so a noise-free OLS fit over the degree-4 terms returns its coefficients
        net = eq.random_polynomial_network(2, 2, 3, seed=0)
        extracted = eq.extract_polynomial(net)
        pts = np.random.default_rng(1).uniform(-1, 1, size=(200, 2))
        terms = numeric_terms(2, 4)
        design = expand(pts, terms)
        outputs = m.forward(net, pts)
        for j, poly in enumerate(extracted):
            assert poly.terms.terms == terms.terms
            fit = fit_ols(design, outputs[:, j])
            assert fit.aliased == ()
            assert abs(fit.intercept - poly.constant) <= 1e-8
            np.testing.assert_allclose(fit.coef, poly.coef, rtol=0, atol=1e-8)

"""Fitters, PCA, prediction and metrics."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.special import expit

from polykit import blas
from polykit import fitcore as fc
from polykit import polyterms
from polykit.dataset import DummyGroups
from polykit.errors import DataError
from polykit.polyterms import PolySpec, enumerate_terms, expand
from polykit.synthdata import synthetic_digits


def numeric_terms(p, d, cap=None):
    return enumerate_terms(p, DummyGroups.all_numeric(p), PolySpec(d, cap))


def standardize_columns(X):
    """Oracle: z-scaled columns, their means and scales, from one centred
    copy of X; the constant columns of ``centre_columns`` stay exact zeros
    with scale 1."""
    Z, means, constant = fc.centre_columns(X)
    scales = fc.column_norms(Z) / np.sqrt(X.shape[0])  # X.std(), with no centred copy
    scales[constant] = 1.0
    Z /= scales
    return Z, means, scales


def reference_logistic_ova(X, labels, max_iter=100, tol=1e-10):
    """Oracle: the penalized one-vs-all objective minimized class by class by
    undamped IRLS, each class stacking its own [1 | Z] and solving with the
    dense Hessian A'WA + LOGISTIC_PENALTY * diag(0, 1, ..., 1)."""
    X = np.asarray(X, dtype=np.float64)
    classes = np.unique(labels)
    Z, means, scales = standardize_columns(X)
    n, l = Z.shape
    penalty = np.full(l + 1, fc.LOGISTIC_PENALTY)
    penalty[0] = 0.0
    coefs = np.zeros((l, len(classes)))
    intercepts = np.zeros(len(classes))
    conv = []
    for j, c in enumerate(classes):
        y01 = (labels == c).astype(np.float64)
        A = np.column_stack([np.ones(n), Z])
        b = np.zeros(l + 1)
        converged = False
        for _ in range(max_iter):
            p = expit(A @ b)
            g = A.T @ (y01 - p) - penalty * b
            if np.max(np.abs(g)) <= tol:
                converged = True
                break
            h = A.T @ (A * (p * (1.0 - p))[:, None]) + np.diag(penalty)
            b = b + scipy.linalg.solve(h, g, assume_a="pos")
        coefs[:, j] = b[1:] / scales
        intercepts[j] = b[0] - means @ coefs[:, j]
        conv.append(converged)
    return fc.LogisticFit(tuple(classes.tolist()), intercepts, coefs, tuple(conv))


class TestOLS:
    def test_exact_line(self):
        x = np.linspace(-1, 3, 12)[:, None]
        fit = fc.fit_ols(x, 2.0 * x[:, 0])
        assert abs(fit.coef[0] - 2.0) < 1e-12
        assert abs(fit.intercept) < 1e-12
        resid = 2.0 * x[:, 0] - (x @ fit.coef + fit.intercept)
        assert np.abs(resid).max() < 1e-12

    def test_degree_n_minus_one_perfect_fit(self):
        x = np.linspace(1.0, 2.0, 8)
        terms = numeric_terms(1, 7)
        P = expand(x[:, None], terms)
        y = 3.0 * np.sin(x) + 1.0
        fit = fc.fit_ols(P, y)
        pred = P @ fit.coef + fit.intercept
        assert fc.r_squared(pred, y) > 1 - 1e-6

    def test_coefficient_recovery_within_three_se(self):
        # oracle standard errors from the known generator noise
        sigma = 0.1
        truth = {"u": 2.0, "v": 3.0, "u^2": 0.0, "u*v": -1.0, "v^2": 1.0}
        hits = 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            X = rng.uniform(-2, 2, size=(1000, 2))
            u, v = X[:, 0], X[:, 1]
            y = 1 + 2 * u + 3 * v - u * v + v**2 + rng.normal(0, sigma, 1000)
            terms = numeric_terms(2, 2)
            P = expand(X, terms)
            fit = fc.fit_ols(P, y)
            A = np.column_stack([np.ones(len(y)), P])
            se = sigma * np.sqrt(np.diag(np.linalg.inv(A.T @ A)))
            labels = terms.labels(("u", "v"))
            ok = abs(fit.intercept - 1.0) <= 3 * se[0]
            for j, lbl in enumerate(labels):
                ok &= abs(fit.coef[j] - truth[lbl]) <= 3 * se[j + 1]
            hits += ok
        assert hits >= 2

    def test_residuals_orthogonal_to_columns(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 5))
        y = rng.normal(size=60)
        fit = fc.fit_ols(X, y)
        resid = y - (X @ fit.coef + fit.intercept)
        scale = np.abs(X).max() * np.abs(y).max() * len(y)
        assert np.abs(X.T @ resid).max() <= 1e-8 * scale

    def test_aliased_duplicate_column(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=30)
        X = np.column_stack([x, x, rng.normal(size=30)])
        fit = fc.fit_ols(X, rng.normal(size=30))
        assert len(fit.aliased) == 1
        assert fit.coef[fit.aliased[0]] == 0.0

    def test_inexact_constant_column_aliased(self):
        # centring 0.1 leaves a roundoff residue that must not be fitted
        rng = np.random.default_rng(2)
        X = np.column_stack([np.full(50, 0.1), rng.normal(size=50)])
        y = rng.normal(size=50)
        fit = fc.fit_ols(X, y)
        assert fit.aliased == (0,)
        assert fit.coef[0] == 0.0
        alone = fc.fit_ols(X[:, :1], y)
        assert alone.aliased == (0,)
        assert alone.intercept == pytest.approx(y.mean(), rel=1e-12)

    def test_training_r2_nondecreasing_in_degree(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, size=(80, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + rng.normal(0, 0.1, 80)
        r2 = []
        for d in (1, 2, 3, 4):
            P = expand(X, numeric_terms(2, d))
            fit = fc.fit_ols(P, y)
            r2.append(fc.r_squared(P @ fit.coef + fit.intercept, y))
        assert all(b >= a - 1e-12 for a, b in zip(r2, r2[1:]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fc.fit_ols(np.array([[np.nan]]), np.array([1.0]))


def reference_rank(r, n):
    """The rank rule of the pivoted R factor of an n-row design: diagonal
    entries above tol = max(n, l) * eps * |r_11|. Returns (rank, tol)."""
    diag = np.abs(np.diag(r))
    tol = diag[0] * max(n, r.shape[1]) * np.finfo(np.float64).eps
    return int(np.sum(diag > tol)), tol


def reference_ols(X, y):
    """Oracle: the one-stage least squares that fit_ols replaced. One
    column-pivoted QR of the whole centred design, its thin Q formed and
    applied to the centred response, then fit_ols's rank rule and solve."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, l = X.shape
    ym = y.mean()
    Xc, xm, _ = fc.centre_columns(X)
    q, r, piv = scipy.linalg.qr(Xc, mode="economic", pivoting=True)
    rank, _ = reference_rank(r, n)
    coef = np.zeros(l)
    if rank > 0:
        rhs = q.T[:rank] @ (y - ym)
        coef[piv[:rank]] = scipy.linalg.solve_triangular(r[:rank, :rank], rhs)
    aliased = tuple(sorted(int(j) for j in piv[rank:]))
    return fc.LinearFit(float(ym - xm @ coef), coef, aliased)


def reference_pivoted_qr(A, l):
    """Oracle: the two-stage column-pivoted QR that fit_ols and vif read
    before the stages were split, ``A[:, :l] = Q R P'``, overwriting A.
    SciPy's unpivoted QR of all of A, then a pivoted QR of its small
    min(n, l) x l triangle, with the columns after the l-th carried along as
    ``C = Q' A[:, l:]``. Returns (R, piv, C)."""
    _, R = scipy.linalg.qr(A, mode="raw", overwrite_a=True, check_finite=False)
    m = min(A.shape[0], l)
    ct, r, piv = scipy.linalg.qr_multiply(R[:m, :l], R[:m, l:].T, mode="right", pivoting=True)
    return r, piv, ct.T


def reference_two_stage_ols(X, y):
    """Oracle: fit_ols as it was on :func:`reference_pivoted_qr`."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, l = X.shape
    ym = y.mean()
    A = np.empty((n, l + 1), order="F")
    _, xm, _ = fc.centre_columns(X, out=A[:, :l])
    A[:, l] = y - ym
    r, piv, qty = reference_pivoted_qr(A, l)
    rank, _ = reference_rank(r, n)
    coef = np.zeros(l)
    if rank > 0:
        coef[piv[:rank]] = scipy.linalg.solve_triangular(r[:rank, :rank], qty[:rank, 0])
    aliased = tuple(sorted(int(j) for j in piv[rank:]))
    return fc.LinearFit(float(ym - xm @ coef), coef, aliased)


def traced_peak(call, *args):
    """Peak bytes that tracemalloc sees allocated during ``call(*args)``."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _ols_case(X, tie=False, seed=0):
    """A design, a response with a planted signal, and whether two columns
    tie exactly in pivot norm (so roundoff picks which of them is aliased)."""
    rng = np.random.default_rng(seed)
    y = X @ rng.normal(size=X.shape[1]) + rng.normal(size=X.shape[0])
    return X, y, tie


def _planted(extra):
    X = np.random.default_rng(5).normal(size=(100, 10))
    return np.column_stack([X, extra(X)])


OLS_ORACLE_CASES = {
    "tall": lambda: _ols_case(np.random.default_rng(1).normal(size=(500, 20))),
    "tall_cubic": lambda: _ols_case(
        expand(np.random.default_rng(2).uniform(-1, 1, size=(400, 3)), numeric_terms(3, 3))),
    "degree7_on_8_rows": lambda: _ols_case(
        expand(np.linspace(1.0, 2.0, 8)[:, None], numeric_terms(1, 7))),
    "wide": lambda: _ols_case(np.random.default_rng(3).normal(size=(10, 25))),
    "square": lambda: _ols_case(np.random.default_rng(4).normal(size=(12, 12))),
    "one_column": lambda: _ols_case(np.random.default_rng(6).normal(size=(30, 1))),
    "inexact_constant": lambda: _ols_case(np.column_stack(
        [np.full(50, 0.1), np.random.default_rng(7).normal(size=(50, 3))])),
    "twice_x3": lambda: _ols_case(_planted(lambda X: 2 * X[:, 3])),
    # x7 and x9 leave identical residuals once x7 - x9 is pivoted in
    "x7_minus_x9": lambda: _ols_case(_planted(lambda X: X[:, 7] - X[:, 9]), tie=True),
    "duplicate": lambda: _ols_case(_planted(lambda X: X[:, 4]), tie=True),
}


class TestOLSOracle:
    """fit_ols's two-stage QR against the one-stage pivoted QR it replaced:
    the same rank, the same aliased columns where no pivot ties exactly (the
    same count where one does), fitted values within 1e-10 of their scale."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("case", sorted(OLS_ORACLE_CASES))
    def test_matches_one_stage_qr(self, case, order):
        X, y, tie = OLS_ORACLE_CASES[case]()
        X = np.asarray(X, order=order)
        fit, ref = fc.fit_ols(X, y), reference_ols(X, y)
        assert len(fit.aliased) == len(ref.aliased)
        if not tie:
            assert fit.aliased == ref.aliased
        want = X @ ref.coef + ref.intercept
        np.testing.assert_allclose(X @ fit.coef + fit.intercept, want,
                                   rtol=0, atol=1e-10 * np.abs(want).max())

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("case", sorted(OLS_ORACLE_CASES))
    def test_matches_the_reference_two_stage_qr(self, case, order):
        # stage 1 is geqrt where the reference runs SciPy's qr (geqrf): the
        # same R to roundoff, so the same pivots unless two tie exactly, when
        # roundoff picks the aliased one (x7_minus_x9 in Fortran order)
        X, y, tie = OLS_ORACLE_CASES[case]()
        X = np.asarray(X, order=order)
        fit, ref = fc.fit_ols(X, y), reference_two_stage_ols(X, y)
        assert len(fit.aliased) == len(ref.aliased)
        if not tie:
            assert fit.aliased == ref.aliased
        want = X @ ref.coef + ref.intercept
        np.testing.assert_allclose(X @ fit.coef + fit.intercept, want,
                                   rtol=0, atol=1e-10 * np.abs(want).max())

    @pytest.mark.parametrize("case", sorted(OLS_ORACLE_CASES))
    def test_the_layout_of_x_changes_no_bit(self, case):
        # centred_r takes the means and norms from its Fortran buffer, so the
        # sums run in one order whatever X's layout; x7_minus_x9 once aliased
        # x9 in C order and x7 in Fortran order
        X, y, _ = OLS_ORACLE_CASES[case]()
        c, f = (fc.fit_ols(np.asarray(X, order=order), y) for order in "CF")
        assert c.intercept == f.intercept
        assert np.array_equal(c.coef, f.coef)
        assert c.aliased == f.aliased

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_peak_memory_is_bounded(self, order):
        # the one-stage path held the centred design, LAPACK's Fortran copy
        # of it and the thin Q (3x the input); the in-place factorization held
        # a centred copy and the buffer it was copied into (2x); now the design
        # is centred straight into that buffer, whatever the input's layout
        X, y, _ = _ols_case(np.random.default_rng(8).normal(size=(4000, 150)))
        X = np.asarray(X, order=order)
        tracemalloc.start()
        try:
            fc.fit_ols(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * X.nbytes, peak / X.nbytes

    def test_wide_peak_memory_is_bounded(self):
        # SciPy's qr returned an np.triu copy of the whole n x (l+1) trapezoid
        # and qr_multiply copied the triangle again (4.1x the input); the
        # stages now zero the reflectors in place and pivot R where it lies
        X, y, _ = _ols_case(np.random.default_rng(9).normal(size=(800, 5000)))
        peak = traced_peak(fc.fit_ols, X, y)
        assert peak <= 2.5 * X.nbytes, peak / X.nbytes

    def test_wide_expansion_peak_memory_is_bounded(self):
        # an 800-row, 3,928-term thinned degree-3 expansion: 5.1x it before
        design = np.random.default_rng(10).uniform(-1, 1, size=(800, 30))
        terms = polyterms.thinned_terms(30, DummyGroups.all_numeric(30), PolySpec(3), 0.72, 0)
        y = np.random.default_rng(11).normal(size=800)
        peak = traced_peak(fc.fit_poly_model, design, y, terms)
        assert peak <= 3 * 800 * len(terms) * 8, peak / (800 * len(terms) * 8)


CENTRED_R_CASES = {
    "narrow": (200, 7, True),
    "one_row": (1, 5, True),
    "fewer_rows_than_the_block": (20, 40, True),
    "wide": (10, 60, True),
    "two_columns_no_response": (50, 2, False),
    "block_and_a_half": (300, 47, True),
}


class TestCentredR:
    """Stage 1 against SciPy's ``qr(mode="r")`` (``geqrf``) of the same
    centred ``[Xc | yc]``."""

    @pytest.mark.parametrize("case", sorted(CENTRED_R_CASES))
    @pytest.mark.parametrize("constant", [False, True])
    def test_matches_geqrf(self, case, constant):
        n, l, with_y = CENTRED_R_CASES[case]
        rng = np.random.default_rng(n + l)
        X = rng.normal(1.0, 2.0, size=(n, l))
        if constant:
            X[:, ::3] = 0.1  # an inexact mean
        y = rng.normal(size=n) if with_y else None
        R, _, const = fc.centred_r(X, y)
        Xc, _, _ = fc.centre_columns(X)
        A = Xc if y is None else np.column_stack([Xc, y - y.mean()])
        want = scipy.linalg.qr(A, mode="r")[0][:min(A.shape)]
        assert R.shape == want.shape
        np.testing.assert_array_equal(R[np.tril_indices_from(R, -1)], 0.0)
        scale = np.abs(want).max()
        np.testing.assert_allclose(R, want, rtol=0, atol=1e-13 * scale)
        # a diagonal entry within roundoff of zero has no sign to match: the
        # last one of a wide or one-row design, whose centred rank is below n
        sized = np.abs(np.diag(want)) > 1e-13 * scale
        assert np.array_equal(np.sign(np.diag(R))[sized], np.sign(np.diag(want))[sized])
        assert const[::3].all() == (constant or n == 1)  # one row: every column
        np.testing.assert_array_equal(R[:, :l][:, const], 0.0)

    def test_every_column_constant(self):
        X = np.tile([0.1, -3.0, 7.5], (40, 1))
        y = np.random.default_rng(0).normal(size=40)
        R, _, constant = fc.centred_r(X, y)
        assert constant.all()
        np.testing.assert_array_equal(R[:, :3], 0.0)
        assert fc.column_norms(R)[3] == pytest.approx(np.linalg.norm(y - y.mean()), rel=1e-13)


class TestCentring:
    def test_peak_memory_is_bounded(self):
        # the column norms are einsum reductions: np.linalg.norm(axis=0)
        # squared a design-sized temporary for each of them, and the scales
        # come from the centred columns, where X.std() centred a second copy
        X = np.random.default_rng(8).normal(3.0, 2.0, size=(4000, 150))
        for centre, bound in ((fc.centre_columns, 1.5), (standardize_columns, 1.5)):
            tracemalloc.start()
            try:
                centre(X)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * X.nbytes, (centre.__name__, peak / X.nbytes)


    def test_scales_are_the_standard_deviations(self):
        X = np.random.default_rng(3).normal(3.0, 2.0, size=(500, 4))
        X[:, 2] = 0.1  # constant, with an inexact mean
        Z, means, scales = standardize_columns(X)
        want = X.std(axis=0)
        want[2] = 1.0
        np.testing.assert_allclose(scales, want, rtol=1e-13, atol=0)
        np.testing.assert_array_equal(Z[:, 2], 0.0)
        np.testing.assert_allclose(Z * scales + means, X, rtol=0, atol=1e-13 * np.abs(X).max())


def reference_gram_ridge(X, y, lam):
    """Oracle: fit_ridge as it was, on the penalized normal equations
    ``(Z'Z + lam I) b = Z'yc`` of the z-scaled design Z."""
    X = np.asarray(X, dtype=np.float64)
    Z, means, scales = standardize_columns(X)
    gram = Z.T @ Z
    gram[np.diag_indices(X.shape[1])] += lam
    coef = scipy.linalg.solve(gram, Z.T @ (y - y.mean()), assume_a="pos") / scales
    return fc.LinearFit(float(y.mean() - means @ coef), coef, ())


def reference_stacked_ridge(X, y, lam):
    """Oracle: fit_ridge as it was before its wide path, one ``gels`` of the
    (m + l) x l system ``[R S^-1 ; sqrt(lam) I] b = [Q'yc ; 0]`` on the m x l
    R of ``centred_r``, however few rows R has."""
    X = np.asarray(X, dtype=np.float64)
    n, l = X.shape
    R, means, constant = fc.centred_r(X, y)
    scales = np.where(constant, 1.0, fc.column_norms(R[:, :l]) / np.sqrt(n))
    A = np.zeros((len(R) + l, l), order="F")
    np.divide(R[:, :l], scales, out=A[:len(R)])
    np.fill_diagonal(A[len(R):], np.sqrt(lam))
    b = scipy.linalg.lapack.dgels(A, np.r_[R[:, l], np.zeros(l)], overwrite_a=True,
                                  lwork=int(scipy.linalg.lapack.dgels_lwork(*A.shape, 1)[0]))[1]
    coef = np.where(constant, 0.0, b[:l] / scales)
    return fc.LinearFit(float(y.mean() - means @ coef), coef, ())


def _ridge_case(n, l, seed, constant=None):
    rng = np.random.default_rng(seed)
    X = rng.normal(1.0, 2.0, size=(n, l))
    if constant is not None:
        X[:, constant] = 0.1  # an inexact mean
    k = min(l, 5)
    return X, X[:, :k] @ rng.normal(size=k) + rng.normal(size=n)


def lstsq_ridge(X, y, lam):
    """Oracle: the augmented z-scaled system ``[Z ; sqrt(lam) I] b = [yc ; 0]``
    solved by SVD (``np.linalg.lstsq``); returns the original-scale slopes."""
    Z, _, scales = standardize_columns(np.asarray(X, dtype=np.float64))
    l = Z.shape[1]
    A = np.vstack([Z, np.sqrt(lam) * np.eye(l)])
    return np.linalg.lstsq(A, np.r_[y - y.mean(), np.zeros(l)], rcond=None)[0] / scales


def relative_gap(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestRidge:
    def test_well_conditioned_matches_the_normal_equations(self):
        rng = np.random.default_rng(12)
        X = rng.normal(2.0, 3.0, size=(500, 20))
        y = X @ rng.normal(size=20) + rng.normal(size=500)
        fit, ref = fc.fit_ridge(X, y, 0.5), reference_gram_ridge(X, y, 0.5)
        assert relative_gap(fit.coef, ref.coef) <= 1e-8
        assert fit.intercept == pytest.approx(ref.intercept, rel=1e-8)
        assert relative_gap(fit.coef, lstsq_ridge(X, y, 0.5)) <= 1e-12

    def test_near_duplicate_column_is_no_further_from_lstsq(self):
        # x3 = x1 + 1e-9 noise: the normal equations square the condition
        # number of the z-scaled design, the QR of its R does not
        rng = np.random.default_rng(13)
        X = rng.normal(size=(5000, 230))
        X[:, 3] = X[:, 1] + 1e-9 * rng.normal(size=5000)
        X[:, 7] = 0.1  # constant, with an inexact mean
        y = X @ rng.normal(size=230) + rng.normal(size=5000)
        want = lstsq_ridge(X, y, 0.1)
        fit = fc.fit_ridge(X, y, 0.1)
        assert fit.coef[7] == 0.0
        gap, old_gap = relative_gap(fit.coef, want), relative_gap(
            reference_gram_ridge(X, y, 0.1).coef, want)
        assert gap <= old_gap, (gap, old_gap)

    def test_wide_design(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(30, 80))
        y = rng.normal(size=30)
        fit = fc.fit_ridge(X, y, 1.0)
        assert relative_gap(fit.coef, lstsq_ridge(X, y, 1.0)) <= 1e-12
        assert relative_gap(fit.coef, reference_gram_ridge(X, y, 1.0).coef) <= 1e-8

    @pytest.mark.parametrize("n, l, constant, lam", [
        (30, 80, None, 1.0), (30, 80, 7, 1.0), (10, 200, 0, 0.01), (50, 51, None, 3.0),
        (2, 6, None, 1.0), (120, 1000, 999, 0.5),
    ])
    def test_wide_matches_the_stacked_system(self, n, l, constant, lam):
        X, y = _ridge_case(n, l, seed=n + l, constant=constant)
        fit, want = fc.fit_ridge(X, y, lam), reference_stacked_ridge(X, y, lam)
        assert relative_gap(fit.coef, want.coef) <= 1e-10
        assert fit.intercept == pytest.approx(want.intercept, rel=1e-10, abs=1e-12)
        if constant is not None:
            assert fit.coef[constant] == 0.0

    @pytest.mark.parametrize("n, l", [(500, 20), (81, 80), (200, 3)])
    def test_tall_path_is_the_stacked_system_bit_for_bit(self, n, l):
        X, y = _ridge_case(n, l, seed=n, constant=1)
        fit, want = fc.fit_ridge(X, y, 0.5), reference_stacked_ridge(X, y, 0.5)
        assert np.array_equal(fit.coef, want.coef) and fit.intercept == want.intercept

    def test_wide_peak_memory_is_bounded(self):
        # an LQ of the 400 x 2,500 R S^-1 leaves a 800 x 400 system; the
        # stacked (400 + 2,500) x 2,500 one peaked at 8.3x the input
        X, y = _ridge_case(400, 2500, seed=15)
        peak = traced_peak(fc.fit_ridge, X, y, 1.0)
        assert peak <= 3.5 * X.nbytes, peak / X.nbytes

    def test_peak_memory_is_bounded(self):
        # the z-scaled copy and its Gram are gone: the design is centred
        # into the one buffer that stage 1 factors in place
        X = np.random.default_rng(8).normal(size=(4000, 150))
        y = np.random.default_rng(9).normal(size=4000)
        peak = traced_peak(fc.fit_ridge, X, y, 1.0)
        assert peak <= 1.5 * X.nbytes, peak / X.nbytes

    def test_small_lambda_matches_ols(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.normal(0, 0.1, 200)
        ols = fc.fit_ols(X, y)
        ridge = fc.fit_ridge(X, y, 1e-10)
        np.testing.assert_allclose(ridge.coef, ols.coef, atol=1e-6)
        assert abs(ridge.intercept - ols.intercept) < 1e-6

    def test_duplicated_column_splits_weight(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=100)
        X = np.column_stack([x, x])
        y = 2 * x + rng.normal(0, 0.05, 100)
        fit = fc.fit_ridge(X, y, 1.0)
        assert abs(fit.coef[0] - fit.coef[1]) < 1e-8

    def test_huge_lambda_kills_slopes(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 3))
        X = (X - X.mean(0)) / X.std(0)
        y = X @ np.array([1.0, 2.0, -1.0]) + rng.normal(0, 0.1, 200)
        fit = fc.fit_ridge(X, y, 1e6)
        assert np.abs(fit.coef).max() < 1e-3

    def test_norm_monotone_in_lambda(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(150, 4))
        y = X @ np.array([1.0, 1.0, -1.0, 0.5]) + rng.normal(0, 0.2, 150)
        norms = [
            np.linalg.norm(fc.fit_ridge(X, y, lam).coef) for lam in (0.1, 1.0, 10.0, 100.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_zero_rows_rejected(self):
        # stage 1 refuses them, as fit_ols did; the normal equations gave NaN
        with pytest.raises(ValueError, match="need at least one row"):
            fc.fit_ridge(np.zeros((0, 3)), np.zeros(0), 1.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_lambda_must_be_positive_and_finite(self, lam):
        with pytest.raises(ValueError, match="ridge penalty must be positive and finite"):
            fc.fit_ridge(np.ones((3, 1)), np.ones(3), lam)

    def test_inexact_constant_column_gets_zero(self):
        # the constant columns are those fit_ols aliases: 0.1 centres to a
        # roundoff residue whose std is ~1e-17, which must not be z-scaled
        rng = np.random.default_rng(0)
        X = np.column_stack([np.full(50, 0.1), rng.normal(size=50)])
        y = rng.normal(size=50)
        fit = fc.fit_ridge(X, y, 1.0)
        assert fit.coef[0] == 0.0
        assert fit.intercept == pytest.approx(y.mean() - X[:, 1].mean() * fit.coef[1])


class TestLogistic:
    def test_separable_classes(self):
        X = np.concatenate([np.linspace(-2, -1, 30), np.linspace(1, 2, 30)])[:, None]
        labels = np.array([0] * 30 + [1] * 30)
        fit = fc.fit_logistic_ova(X, labels)
        assert fc.pcc(fit.predict(X), labels) == 1.0

    def test_null_model_near_half(self):
        values = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            Xtr = rng.normal(size=(400, 3))
            ytr = np.repeat([0, 1], 200)
            rng.shuffle(ytr)
            Xte = rng.normal(size=(400, 3))
            yte = np.repeat([0, 1], 200)
            rng.shuffle(yte)
            fit = fc.fit_logistic_ova(Xtr, ytr, max_iter=50)
            values.append(fc.pcc(fit.predict(Xte), yte))
        assert abs(np.mean(values) - 0.5) <= 0.05

    def test_three_separated_blobs(self):
        rng = np.random.default_rng(7)
        centers = np.array([[0, 0], [6, 0], [0, 6]])
        X = np.vstack([rng.normal(size=(100, 2)) * 0.5 + c for c in centers])
        labels = np.repeat([0, 1, 2], 100)
        fit = fc.fit_logistic_ova(X, labels)
        assert fc.pcc(fit.predict(X), labels) >= 0.95

    def test_razor_thin_separation_converges(self):
        # the penalty keeps the slopes finite however thin the margin
        x = np.concatenate([np.linspace(-1, -1e-9, 25), np.linspace(1e-9, 1, 25)])[:, None]
        labels = np.array([0] * 25 + [1] * 25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fc.fit_logistic_ova(x, labels)
        assert fit.converged == (True, True)
        assert np.all(np.isfinite(fit.coefs)) and np.all(np.isfinite(fit.intercepts))
        assert fc.pcc(fit.predict(x), labels) == 1.0

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_no_iterations_leaves_zero_coefficients(self, max_iter):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        fit = fc.fit_logistic_ova(X, np.array([0, 0, 1, 1]), max_iter=max_iter)
        assert fit.converged == (False, False)
        assert not fit.coefs.any() and not fit.intercepts.any()

    def test_inexact_constant_column_gets_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        X = np.column_stack([np.full(50, 0.1), x])
        fit = fc.fit_logistic_ova(X, (x + rng.normal(size=50) > 0).astype(int))
        assert all(fit.converged)
        np.testing.assert_array_equal(fit.coefs[0], 0.0)

    def test_needs_two_classes(self):
        with pytest.raises(DataError, match="two classes"):
            fc.fit_logistic_ova(np.ones((3, 1)), np.array([1, 1, 1]))


def _blobs():
    rng = np.random.default_rng(7)
    centers = np.array([[0, 0], [6, 0], [0, 6]])
    X = np.vstack([rng.normal(size=(100, 2)) * 0.5 + c for c in centers])
    return X, np.repeat([0, 1, 2], 100), {}


def _null():
    rng = np.random.default_rng(0)
    labels = np.repeat([0, 1], 200)
    rng.shuffle(labels)
    return rng.normal(size=(400, 3)), labels, {"max_iter": 50}


def _separation():
    x = np.concatenate([np.linspace(-1, -1e-9, 25), np.linspace(1e-9, 1, 25)])[:, None]
    return x, np.repeat([0, 1], 25), {}


def _with_column(extra):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(200, 3))
    labels = np.digitize(X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(0, 0.5, 200), [-0.5, 0.5])
    return np.column_stack([X, extra(X)]), labels, {}


def _digits(**kw):
    X, labels = synthetic_digits(1000, seed=0)
    scores = fc.pca_transform(fc.pca_fit(X, n_components=10), X)
    return expand(scores, numeric_terms(10, 2)), labels, kw


LOGISTIC_CASES = {
    "blobs": _blobs,
    "null": _null,
    "separation": _separation,
    "constant-column": lambda: _with_column(lambda X: np.full(len(X), 5.0)),
    "digits-tol0": lambda: _digits(max_iter=30, tol=0.0),  # on to the roundoff floor
    "digits": _digits,
}


def reference_numpy_logistic(X, labels, max_iter=fc.NEWTON_MAX_ITER, tol=fc.NEWTON_TOL):
    """Oracle: fit_logistic_ova's joint Newton-CG with every dense product
    taken by NumPy's ``@``, as the fit ran before its products moved to
    ``blas.matmul``."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    n, l = X.shape
    A = np.empty((n, l + 1))
    A[:, 1:], means, scales = standardize_columns(X)
    A[:, 0] = 1.0
    Y = (labels[:, None] == classes).astype(np.float64)
    lam = np.r_[0.0, np.full(l, fc.LOGISTIC_PENALTY)][:, None]

    def objective(S, B):
        return (np.logaddexp(0.0, S) - Y * S).sum(axis=0) + 0.5 * (lam * B * B).sum(axis=0)

    B, S = np.zeros((l + 1, len(classes))), np.zeros((n, len(classes)))
    for it in range(max(max_iter, 0) + 1):
        P = expit(S)
        G = A.T @ (P - Y) + lam * B
        converged = np.max(np.abs(G), axis=0) <= tol
        if it >= max_iter or converged.all():
            break
        G[:, converged] = 0.0
        W, D, R = P * (1.0 - P), np.zeros_like(G), -G
        V, rr = R.copy(), np.einsum("ij,ij->j", G, G)
        stop = np.minimum(0.01, np.sqrt(rr)) * rr
        for _ in range(l + 1):
            j = np.flatnonzero(rr > stop)
            if len(j) == 0:
                break
            Vj = V[:, j]
            HV = A.T @ (W[:, j] * (A @ Vj)) + lam * Vj
            alpha = rr[j] / np.einsum("ij,ij->j", Vj, HV)
            D[:, j] += alpha * Vj
            R[:, j] -= alpha * HV
            rr_old, rr[j] = rr[j], np.einsum("ij,ij->j", R[:, j], R[:, j])
            V[:, j] = R[:, j] + rr[j] / rr_old * Vj
        F, AD, t = objective(S, B), A @ D, np.ones(len(classes))
        bound = F + 64 * np.finfo(np.float64).eps * np.abs(F)
        slope = 1e-4 * np.einsum("ij,ij->j", G, D)
        for _ in range(50):
            ok = objective(S + t * AD, B + t * D) <= bound + t * slope
            if ok.all():
                break
            t[~ok] /= 2
        B += t * D
        S = A @ B
    coefs = B[1:] / scales[:, None]
    intercepts = B[0] - means @ coefs
    return fc.LogisticFit(tuple(classes.tolist()), intercepts, coefs, tuple(converged.tolist()))


def _digits_ova_design():
    """A design of digits_ova's shape: 3,000 noisy digits, PCA to 20 scores,
    230 degree-2 terms, 8 Newton steps at tol 0."""
    X, labels = synthetic_digits(3000, seed=5, noise=1.2)
    scores = fc.pca_transform(fc.pca_fit(X, n_components=20), X)
    return expand(scores, numeric_terms(20, 2)), labels, {"max_iter": 8, "tol": 0.0}


@pytest.mark.parametrize("case", ["constant-column", "digits_ova"])
def test_logistic_design_is_the_z_scaled_oracle(case, monkeypatch):
    # the fit writes its z-scaled columns straight into A = [1 | Z], a block
    # of columns at a time; its first product reads A'
    X, labels, kw = (_digits_ova_design if case == "digits_ova" else LOGISTIC_CASES[case])()
    seen, matmul = [], blas.matmul

    def spy(a, b):
        seen.append(np.array(a))
        return matmul(a, b)

    monkeypatch.setattr(blas, "matmul", spy)
    fc.fit_logistic_ova(X, labels, max_iter=0)
    A, (Z, _, _) = seen[0].T, standardize_columns(X)
    np.testing.assert_array_equal(A[:, 0], 1.0)
    assert np.abs(A[:, 1:] - Z).max() <= 1e-15 * np.abs(Z).max()


@pytest.mark.parametrize("case", sorted(LOGISTIC_CASES) + ["digits_ova"])
def test_logistic_matches_the_numpy_product_oracle(case):
    X, labels, kw = (_digits_ova_design if case == "digits_ova" else LOGISTIC_CASES[case])()
    fit, ref = fc.fit_logistic_ova(X, labels, **kw), reference_numpy_logistic(X, labels, **kw)
    assert fit.classes == ref.classes and fit.converged == ref.converged
    assert relative_gap(fit.coefs, ref.coefs) <= 1e-10
    assert relative_gap(fit.intercepts, ref.intercepts) <= 1e-10
    numpy_scores = X @ ref.coefs + ref.intercepts
    np.testing.assert_array_equal(fit.predict(X), np.asarray(ref.classes)[numpy_scores.argmax(axis=1)])


def fit_recording_warnings(fitter, X, labels, kw):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fitter(X, labels, **kw)
    return fit, [str(w.message) for w in caught]


class TestLogisticAgainstReference:
    """The joint Newton-CG fit against the per-class dense-Hessian oracle run
    to tol 1e-10: the penalized optimum is unique, so the coefficients agree
    to within what the fit's own tolerance leaves."""

    def assert_matches_oracle(self, X, labels, kw):
        fit, warned = fit_recording_warnings(fc.fit_logistic_ova, X, labels, kw)
        ref = reference_logistic_ova(X, labels)
        assert all(ref.converged)
        assert fit.classes == ref.classes
        assert all(fit.converged) == (kw.get("tol", 1e-8) > 0)
        assert warned == []
        for got, want in ((fit.coefs, ref.coefs), (fit.intercepts, ref.intercepts)):
            assert np.all(np.abs(got - want) <= 1e-6 * np.maximum(1.0, np.abs(want)))
        np.testing.assert_array_equal(fit.predict(X), ref.predict(X))
        return fit, ref

    @pytest.mark.parametrize("case", sorted(LOGISTIC_CASES))
    def test_full_rank_designs(self, case):
        self.assert_matches_oracle(*LOGISTIC_CASES[case]())

    def test_duplicated_column_scores(self):
        # the penalty splits the weight evenly between the two copies
        X, labels, kw = _with_column(lambda X: X[:, 0])
        fit, ref = self.assert_matches_oracle(X, labels, kw)
        np.testing.assert_allclose(fit.coefs[0], fit.coefs[3], rtol=0, atol=1e-6)
        np.testing.assert_allclose(fit.scores(X), ref.scores(X), rtol=0, atol=1e-6)


def reference_pca(X, var_fraction=0.90, *, n_components=None):
    """Oracle: PCA from the thin SVD of the centred design, with pca_fit's
    selection and sign rules. Returns the basis and the squared singular
    values (the eigenvalues of Xc'Xc), largest first."""
    X = np.asarray(X, dtype=np.float64)
    means = np.asfortranarray(X).mean(axis=0)  # of whole columns, whatever X's layout
    _, s, vt = scipy.linalg.svd(X - means, full_matrices=False)
    power = s**2
    cum = np.cumsum(power) / power.sum()
    if n_components is not None:
        r = min(n_components, len(s))
        var_fraction = float(cum[r - 1])
    else:
        r = min(int(np.searchsorted(cum, var_fraction - 1e-12) + 1), len(s))
    components = vt[:r].T.copy()
    for j in range(r):
        size = np.abs(components[:, j])
        k = int(np.argmax(size >= (1 - 1e-8) * size.max()))
        if components[k, j] < 0:
            components[:, j] = -components[:, j]
    return fc.PCABasis(components, means, float(cum[r - 1]), float(var_fraction)), power


def _rank_one_line():
    t = np.random.default_rng(2).normal(size=(50, 1))
    return t @ np.array([[1.0, 2.0, 3.0]]) + np.array([4.0, 5.0, 6.0])


def _rank_two():
    rng = np.random.default_rng(4)
    return rng.normal(size=(60, 2)) @ rng.normal(size=(2, 5))


def _duplicated_column():
    X = np.random.default_rng(7).normal(size=(80, 4))
    return np.column_stack([X, X[:, 1]])


def _with_spectrum(s, n=300, seed=9):
    """An n x len(s) design whose centred singular values are s."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, len(s)))
    u = np.linalg.qr(u - u.mean(axis=0))[0]
    v = np.linalg.qr(rng.normal(size=(len(s), len(s))))[0]
    return (u * s) @ v.T + rng.normal(size=len(s))


#: The designs of the TestPCA cases; the oracle checks each at var_fraction 0.9 and 0.999.
PCA_DATA = {
    "rank_one_line": _rank_one_line,
    "isotropic": lambda: np.random.default_rng(3).normal(size=(500, 2)),
    "rank_two": _rank_two,
    "gaussian_6": lambda: np.random.default_rng(5).normal(size=(100, 6)),
    "gaussian_8": lambda: np.random.default_rng(6).normal(size=(50, 8)),
}

PCA_ORACLE_CASES = {
    **{f"{name}-{f}": (make, {"var_fraction": f})
       for name, make in PCA_DATA.items() for f in (0.9, 0.999)},
    "duplicated_column": (_duplicated_column, {"n_components": 5}),
    "components_above_rank": (_rank_two, {"n_components": 4}),
    "rank_one_above_rank": (_rank_one_line, {"n_components": 7}),
    "wide_100x3000": (lambda: np.random.default_rng(8).normal(size=(100, 3000)),
                      {"n_components": 20}),
    # a fixed count takes only the top eigenpairs of a tall design
    "one_component": (PCA_DATA["gaussian_6"], {"n_components": 1}),
    "all_columns": (PCA_DATA["gaussian_8"], {"n_components": 8}),
    "above_columns": (PCA_DATA["gaussian_6"], {"n_components": 9}),
    # the top two eigenvalues agree to 2e-10, relative
    "near_tie_at_top": (lambda: _with_spectrum([5, 5 * (1 - 1e-10), 3, 2, 1, 0.5]),
                        {"n_components": 3}),
    # the kept count splits two eigenvalues that agree to 2e-10
    "near_tie_at_cut": (lambda: _with_spectrum([5, 3, 3 * (1 - 1e-10), 2, 1, 0.5]),
                        {"n_components": 2}),
}


@pytest.fixture(scope="module")
def digits_2400():
    return synthetic_digits(2400, seed=0)[0]


def assert_pca_matches_oracle(X, **kw):
    basis, (ref, power) = fc.pca_fit(X, **kw), reference_pca(X, **kw)
    assert basis.r == ref.r
    # the oracle's retained fraction is cum[r - 1] of the full spectrum
    assert abs(basis.retained_fraction - ref.retained_fraction) <= 1e-12
    # a basis of a tied eigenspace is arbitrary, but the variance it keeps is not
    Xc = X - ref.means
    kept = np.linalg.norm(Xc @ basis.components) ** 2 / np.linalg.norm(Xc) ** 2
    assert abs(kept - basis.retained_fraction) <= 1e-12
    assert abs(basis.target_fraction - ref.target_fraction) <= 1e-12
    np.testing.assert_array_equal(basis.means, ref.means)
    # A component is determined only as well as its eigenvalue is separated
    # from its neighbours' (Davis-Kahan); check those with a gap > 1e-6 lam_1.
    lam1 = power[0]
    padded = np.r_[np.inf, power, -np.inf]
    gaps = np.minimum(padded[:-2] - padded[1:-1], padded[1:-1] - padded[2:])[: ref.r]
    separated = np.flatnonzero(gaps > 1e-6 * lam1)
    assert len(separated) > 0
    for j in separated:
        err = np.abs(basis.components[:, j] - ref.components[:, j]).max()
        assert err <= 1e-9 * lam1 / gaps[j], (j, err)
    scores, ref_scores = fc.pca_transform(basis, X), fc.pca_transform(ref, X)
    scale = np.abs(ref_scores).max()
    np.testing.assert_allclose(scores[:, separated], ref_scores[:, separated],
                               rtol=0, atol=1e-9 * scale)
    return basis, ref


class TestPCAOracle:
    @pytest.mark.parametrize("case", sorted(PCA_ORACLE_CASES))
    def test_matches_svd(self, case):
        make, kw = PCA_ORACLE_CASES[case]
        assert_pca_matches_oracle(make(), **kw)

    @pytest.mark.parametrize("order", ["C", "F"])  # syrk reads either layout in place
    def test_digits_twenty_components(self, digits_2400, order):
        basis, _ = assert_pca_matches_oracle(np.asarray(digits_2400, order=order),
                                             n_components=20)
        assert basis.r == 20

    def test_digits_one_component(self, digits_2400):
        basis, _ = assert_pca_matches_oracle(digits_2400, n_components=1)
        assert basis.r == 1

    @pytest.mark.parametrize("case", sorted(PCA_ORACLE_CASES))
    def test_fraction_selects_the_oracle_count(self, case):
        X = PCA_ORACLE_CASES[case][0]()
        for f in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
            assert fc.pca_fit(X, f).r == reference_pca(X, f)[0].r, f

    def test_only_a_count_takes_a_subset(self, monkeypatch):
        computed, eigh = [], scipy.linalg.eigh

        def spy(*args, **kwargs):
            power, v = eigh(*args, **kwargs)
            computed.append(len(power))
            return power, v

        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        X = PCA_DATA["gaussian_8"]()
        fc.pca_fit(X, n_components=3)
        fc.pca_fit(X, n_components=20)
        fc.pca_fit(X, 0.9)
        assert computed == [3, 8, 8]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_peak_memory_is_bounded(self, digits_2400, order):
        # the thin SVD holds the n x m left factor and a copy of the centred
        # design next to it (4.6x the input), and one syrk of a whole centred
        # copy 1.37x; summed over centred row blocks, the cross-product route
        # holds the m x m cross-product (0.33x here) and one block of 2**17
        # cells, whatever the input's layout
        X = np.asarray(digits_2400, order=order)
        tracemalloc.start()
        try:
            fc.pca_fit(X, n_components=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * X.nbytes, peak / X.nbytes

    @pytest.mark.parametrize("shape, kw", [
        ((3000, 60), {"n_components": 5}),  # two row blocks
        ((3000, 60), {"var_fraction": 0.9}),
        ((100, 3000), {"n_components": 20}),  # the wide SVD; three column blocks of means
    ], ids=["tall-count", "tall-fraction", "wide"])
    def test_a_c_and_an_f_ordered_design_give_the_same_basis(self, shape, kw):
        X = np.random.default_rng(12).normal(3.0, 2.0, size=shape)
        a, b = fc.pca_fit(np.ascontiguousarray(X), **kw), fc.pca_fit(np.asfortranarray(X), **kw)
        assert a.means.tobytes() == b.means.tobytes()
        assert a.components.tobytes() == b.components.tobytes()
        assert a.retained_fraction == b.retained_fraction and a.r == b.r


class TestPCA:
    def test_rank_one_line(self):
        basis = fc.pca_fit(_rank_one_line(), 0.9)
        assert basis.r == 1
        assert basis.retained_fraction > 1 - 1e-12

    def test_isotropic_needs_both(self):
        assert fc.pca_fit(PCA_DATA["isotropic"](), 0.90).r == 2

    def test_reconstruction_of_retained_subspace(self):
        X = _rank_two()
        basis = fc.pca_fit(X, 0.999)
        Z = fc.pca_transform(basis, X)
        back = Z @ basis.components.T + basis.means
        assert np.abs(back - X).max() < 1e-8

    def test_components_orthonormal(self):
        basis = fc.pca_fit(PCA_DATA["gaussian_6"](), 0.95)
        gram = basis.components.T @ basis.components
        np.testing.assert_allclose(gram, np.eye(basis.r), atol=1e-8)

    def test_zero_variance_rejected(self):
        with pytest.raises(DataError):
            fc.pca_fit(np.ones((5, 3)), 0.9)

    def test_fixed_component_count(self):
        basis = fc.pca_fit(PCA_DATA["gaussian_8"](), n_components=3)
        assert basis.r == 3

    def test_sign_rule_breaks_magnitude_ties_by_first_entry(self):
        # the last column copies column 1, so the null component is
        # (e_1 - e_4) / sqrt(2) up to a sign its two tied entries must not decide
        basis = fc.pca_fit(_duplicated_column(), n_components=5)
        np.testing.assert_allclose(basis.components[:, 4], [0, 0.5**0.5, 0, 0, -0.5**0.5],
                                   rtol=0, atol=1e-8)


@pytest.mark.parametrize("layout", ["C", "F", "rows", "empty"])
def test_pca_transform_matches_the_numpy_product(layout, digits_2400):
    basis = fc.pca_fit(digits_2400, n_components=20)
    X = {"C": digits_2400, "F": np.asfortranarray(digits_2400),
         "rows": digits_2400[::3], "empty": digits_2400[:0]}[layout]
    got, want = fc.pca_transform(basis, X), (X - basis.means) @ basis.components
    assert got.shape == want.shape == (len(X), 20)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max(initial=0.0))


@pytest.mark.parametrize("order", ["C", "F"])
def test_pca_transform_centres_one_row_block_at_a_time(order, digits_2400):
    # ``X - means`` whole was a copy of X (1.03x); a block is 2**17 cells
    basis = fc.pca_fit(digits_2400, n_components=20)
    X = np.asarray(digits_2400, order=order)
    tracemalloc.start()
    try:
        fc.pca_transform(basis, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.2 * X.nbytes, peak / X.nbytes


class TestPredict:
    def _model(self, X, y, d=1, method="ols", **kw):
        terms = numeric_terms(X.shape[1], d)
        return fc.fit_poly_model(X, y, terms, method, **kw)

    def test_training_fit_reproduced(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 2))
        y = 1 + X @ np.array([2.0, -1.0]) + rng.normal(0, 0.1, 40)
        model = self._model(X, y, d=2)
        P = expand(X, model.terms)
        stored = P @ model.coef + model.intercept
        np.testing.assert_allclose(fc.predict(model, X), stored, atol=1e-10)

    def test_zero_slopes_constant_prediction(self):
        terms = numeric_terms(2, 1)
        model = fc.PolyModel(terms, 5.0, np.zeros(2), "ols")
        np.testing.assert_array_equal(
            fc.predict(model, np.random.default_rng(0).normal(size=(7, 2))),
            np.full(7, 5.0),
        )

    def test_logistic_argmax(self):
        terms = numeric_terms(1, 1)
        # scores at x=1: class 1 -> 0.2, class 2 -> 0.7
        model = fc.PolyModel(
            terms,
            np.array([0.0, 0.0]),
            np.array([[0.2, 0.7]]),
            "logistic",
            classes=(1, 2),
        )
        assert fc.predict(model, np.array([[1.0]]))[0] == 2

    @staticmethod
    def _three_classes():
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 2))
        return X, np.digitize(X[:, 0] + 0.5 * rng.normal(size=200), [-0.5, 0.5])

    @pytest.mark.parametrize("method, kw", [
        ("bogus", {}), ("ridge", {}), ("ridge", {"lam": np.nan}), ("ridge", {"lam": np.inf}),
    ], ids=["unknown-method", "ridge-without-penalty", "ridge-nan", "ridge-inf"])
    def test_bad_method_fails_before_expansion(self, monkeypatch, method, kw):
        def no_expansion(*args, **kwargs):
            raise AssertionError("expand called")

        monkeypatch.setattr(polyterms, "expand", no_expansion)
        X = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ValueError, match="unknown fit method|ridge penalty must be positive"):
            self._model(X, X[:, 0], method=method, **kw)

    def test_logistic_non_convergence_warns(self):
        X, labels = self._three_classes()
        with pytest.warns(UserWarning, match=r"did not converge.*class\(es\) 0, 1, 2"):
            self._model(X, labels, method="logistic", max_iter=1)

    def test_converged_logistic_fit_does_not_warn(self):
        X, labels = self._three_classes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = self._model(X, labels, method="logistic")
        assert model.classes == (0, 1, 2)

    def test_width_mismatch(self):
        model = self._model(np.random.default_rng(1).normal(size=(30, 3)), np.zeros(30))
        with pytest.raises(ValueError, match="width"):
            fc.predict(model, np.ones((5, 2)))

    @pytest.mark.parametrize("method", ["ols", "logistic"])
    def test_rows_scored_in_blocks(self, monkeypatch, method):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(1000, 3))
        y = X[:, 0] - X[:, 1] * X[:, 2] + rng.normal(0, 0.1, 1000)
        model = self._model(X, y if method == "ols" else np.digitize(y, [-0.5, 0.5]),
                            d=3, method=method)
        l = len(model.terms)
        scores = expand(X, model.terms) @ model.coef + model.intercept
        whole = scores if method == "ols" else np.asarray(model.classes)[scores.argmax(axis=1)]
        # within one block the rows are scored by one product, as one expansion
        np.testing.assert_array_equal(fc.predict(model, X), whole)

        rows = []
        def recording_expand(Z, terms, **kw):
            rows.append(len(Z))
            return expand(Z, terms, **kw)
        monkeypatch.setattr(polyterms, "expand", recording_expand)
        monkeypatch.setattr(fc, "PREDICT_BLOCK_CELLS", 37 * l + 5)
        blocked = fc.predict(model, X)
        assert rows == [37] * 27 + [1]
        if method == "ols":
            np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-13 * np.abs(whole).max())
        else:
            np.testing.assert_array_equal(blocked, whole)

    def test_pca_pipeline_round_trip(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 6))
        y = X[:, 0] - 2 * X[:, 1] + rng.normal(0, 0.05, 300)
        basis = fc.pca_fit(X, 0.99)
        terms = numeric_terms(basis.r, 2)
        model = fc.fit_poly_model(X, y, terms, "ols", pca=basis)
        preds = fc.predict(model, X)
        assert fc.mape(preds, y) < 0.2

    @pytest.mark.parametrize("method", ["ols", "logistic"])
    def test_pca_model_scores_through_blas_matmul(self, monkeypatch, method):
        # a PCA model's expansion product runs on the pool of the pca_transform
        # just before it, one product per block, and predicts what NumPy's does
        rng = np.random.default_rng(12)
        X = rng.normal(size=(400, 6))
        y = X[:, 0] - X[:, 1] * X[:, 2] + rng.normal(0, 0.1, 400)
        basis = fc.pca_fit(X, n_components=4)
        labels = y if method == "ols" else np.digitize(y, [-0.5, 0.5])
        model = fc.fit_poly_model(X, labels, numeric_terms(basis.r, 2), method, pca=basis)
        scores = expand(fc.pca_transform(basis, X), model.terms) @ model.coef + model.intercept
        want = scores if method == "ols" else np.asarray(model.classes)[scores.argmax(axis=1)]

        calls, matmul = [], blas.matmul
        def recording_matmul(a, b):
            calls.append(a.shape)
            return matmul(a, b)
        monkeypatch.setattr(blas, "matmul", recording_matmul)
        l = len(model.terms)
        for cells, rows in ((fc.PREDICT_BLOCK_CELLS, [400]), (37 * l + 5, [37] * 10 + [30])):
            monkeypatch.setattr(fc, "PREDICT_BLOCK_CELLS", cells)
            calls.clear()
            got = fc.predict(model, X)
            assert calls == [(400, 6)] + [(k, l) for k in rows]
            assert got.shape == want.shape
            if method == "ols":
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
            else:
                np.testing.assert_array_equal(got, want)

        # without PCA the product stays NumPy's
        plain = fc.fit_poly_model(X, labels, numeric_terms(6, 2), method)
        calls.clear()
        fc.predict(plain, X)
        assert calls == []


class TestMetrics:
    def test_identical_predictions(self):
        y = np.array([1.0, 2.0, 3.0])
        assert fc.mape(y, y) == 0.0
        assert fc.pcc(y, y) == 1.0
        assert abs(fc.corr(y, y) - 1.0) < 1e-12

    def test_constant_shift(self):
        y = np.array([1.0, 2.0, 3.0])
        assert fc.mape(y + 1, y) == 1.0

    def test_pcc_counts(self):
        assert fc.pcc(np.array([1, 2, 3]), np.array([1, 2, 2])) == pytest.approx(2 / 3)

    def test_corr_undefined_for_constant(self):
        with pytest.raises(ValueError):
            fc.corr(np.ones(4), np.arange(4.0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fc.mape(np.ones(3), np.ones(4))


class TestPolyModelValidation:
    def test_coefficient_length_checked(self):
        terms = numeric_terms(2, 1)
        with pytest.raises(ValueError):
            fc.PolyModel(terms, 0.0, np.zeros(3), "ols")

    @pytest.mark.parametrize("intercept, method, pca_shape", [
        (np.zeros(2), "ols", None),
        (0.0, "lasso", None),
        (0.0, "ols", (3, 2)),
        (0.0, "ols", (3,)),
    ], ids=["vector-intercept", "unknown-method", "pca-width", "pca-not-a-matrix"])
    def test_malformed_fields_rejected(self, intercept, method, pca_shape):
        pca = None if pca_shape is None else fc.PCABasis(np.ones(pca_shape), np.zeros(3), 1.0, 1.0)
        with pytest.raises(ValueError):
            fc.PolyModel(numeric_terms(1, 1), intercept, np.zeros(1), method, pca=pca)

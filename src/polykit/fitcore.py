"""Model fitting: least squares, ridge, penalized one-vs-all logistic, PCA
preprocessing, prediction, and the evaluation metrics.

All fitters add their own intercept; design matrices never carry a column
of ones. Every least-squares solve reads one factorization, in two stages:
:func:`centred_r` centres the design (and the response) into one buffer and
Householder-factors it in place by LAPACK's recursive-panel QR (``geqrt``,
blocks of ``QR_BLOCK`` columns), with no Q formed, and :func:`pivoted_r`
column-pivots the small R only. OLS is the two stages; ridge solves one
small QR of R's z-scaled columns stacked on ``sqrt(lam) I``; the VIFs of
``diagnostics`` pivot R's unit-norm columns. Ridge and logistic report
coefficients on the original column scale, so prediction is always
``expand -> dot``, in row blocks of ``PREDICT_BLOCK_CELLS`` cells.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.special import expit

from . import blas, polyterms
from .dataset import DummyGroups, Schema, _cell_blocks
from .errors import DataError
from .polyterms import TermSet


class LinearFit(NamedTuple):
    """Intercept, slope vector, and indices of aliased (dropped) columns."""

    intercept: float
    coef: np.ndarray
    aliased: tuple[int, ...]


def _check_finite(X: np.ndarray, y: np.ndarray | None = None) -> None:
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite values in design matrix")
    if y is not None and not np.all(np.isfinite(y)):
        raise ValueError("non-finite values in response")


def column_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column, with no temporary the size of A
    (``np.linalg.norm(A, axis=0)`` squares A into one)."""
    return np.sqrt(np.einsum("ij,ij->j", A, A))


def centre_columns(
    X: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centred copy of X (written into ``out`` when given), its column means,
    and which columns are constant: a centred norm at most max(n, k) * eps
    times the raw norm is the roundoff of an inexact mean, and such a column
    is returned as exact zeros. X is copied into ``out`` first, and the raw
    norms, the means and the centred values are all taken from ``out``: the
    order of a sum follows the layout it reads, so with a Fortran-ordered
    ``out`` they do not depend on how X is laid out."""
    if out is not None:
        out[...] = X
        X = out
    raw = column_norms(X)
    means = X.mean(axis=0)
    Xc = np.subtract(X, means, out=out)
    eps = np.finfo(np.float64).eps
    constant = column_norms(Xc) <= max(X.shape) * eps * raw
    Xc[:, constant] = 0.0
    return Xc, means, constant


def _lapack(name: str, *args, **kwargs) -> list:
    """Outputs of SciPy's LAPACK routine ``d<name>`` but its work array and
    info, run with the optimal workspace of a query first, as
    ``scipy.linalg.qr`` runs it."""
    routine = getattr(scipy.linalg.lapack, "d" + name)
    return routine(*args, lwork=int(routine(*args, lwork=-1, **kwargs)[-2][0]), **kwargs)[:-2]


#: Block size nb of the recursive-panel QR (``geqrt``) of :func:`centred_r`
#: and of the wide ridge's LQ. Full QR on 2 OpenBLAS threads, medians of 3
#: rounds of 9 calls: on the 10,000 x 443 ``wages_score`` design nb 16 / 32 /
#: 64 took 89 / 75 / 72 ms, ``geqrf`` 130 ms (one thread: 124 / 98 / 95 and
#: 148 ms); on 2,400 x 232, 6.0 / 5.1 / 5.6 ms, ``geqrf`` 18 ms.
QR_BLOCK = 32


def _geqrt(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR of a nonempty A, in place when A is Fortran-ordered,
    by LAPACK ``geqrt`` in blocks of ``QR_BLOCK`` columns: R above the
    diagonal, the reflectors below it, and the nb x min(A.shape) triangular
    factors T of their blocks."""
    qr, t, _ = scipy.linalg.lapack.dgeqrt(min(QR_BLOCK, *A.shape), A, overwrite_a=True)
    return qr, t


def centred_r(X: np.ndarray, y: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage 1 of every least-squares solve: the R factor of ``[Xc | yc]``.

    X, of at least one row, and y unless it is None, are copied into one
    Fortran-ordered buffer and centred there, so a fit does not depend on
    X's memory layout; an unpivoted Householder QR factors the buffer in
    place; no Q is formed. The QR is LAPACK ``geqrt`` in blocks
    of ``QR_BLOCK`` columns, each block factored recursively with level-3
    BLAS (Elmroth & Gustavson 2000), where ``geqrf`` factors its panels
    column by column with level-2 BLAS: on 2 OpenBLAS threads a full QR of
    10,000 x 443 takes 75 ms against ``geqrf``'s 130 ms, and of 40,000 x 231
    115-140 ms against 185 ms. It returns ``geqrf``'s R to roundoff, with
    the same signs (both reflect by ``dlarfg``).

    Returns (R, means, constant). R is the upper trapezoid of min(n, k)
    rows over the k columns of ``[Xc | yc]``, a view of the buffer's top
    rows; with y its last column holds ``Q'yc``. ``means`` and ``constant``
    are those of :func:`centre_columns` for X's columns; a constant column
    is exactly zero in R. Q preserves column norms, so R's are the centred
    ones.
    """
    n, l = X.shape
    if n < 1:
        raise ValueError("need at least one row")
    A = np.empty((n, l + (y is not None)), order="F")
    _, means, constant = centre_columns(X, out=A[:, :l])
    if y is not None:
        A[:, l] = y
        A[:, l] -= A[:, l].mean()
    if min(A.shape):
        A = _geqrt(A)[0]
    R = A[:min(A.shape)]
    for j in range(min(R.shape) - 1):  # the reflectors below the diagonal
        R[j + 1:, j] = 0.0
    return R, means, constant


def pivoted_r(R: np.ndarray, l: int, n: int) -> tuple:
    """Stage 2: column-pivoted QR of R's first l columns, ``R[:, :l] = Q2 R2 P'``,
    where R is the stage-1 factor of a design of n rows.

    ``geqp3`` factors the small triangle from stage 1 in place when its
    columns are contiguous (a copy otherwise). Q1 preserves column norms,
    so the pivots, and with them the rank, are those of a pivoted QR of the
    centred design itself up to roundoff (Chan 1987; Golub & Van Loan,
    Matrix Computations, section 5.4). The rank counts the diagonal entries
    of R2 above tol = max(n, l) * eps * |r_11|. The columns after the l-th
    come back as ``C = Q2' R[:, l:]`` from Q2's reflectors.

    Returns (R2, piv, rank, tol, C); below its diagonal R2 holds those
    reflectors.
    """
    r, piv, tau = _lapack("geqp3", R[:, :l], overwrite_a=True)
    tol = abs(r[0, 0]) * max(n, l) * np.finfo(np.float64).eps
    C = R[:, l:]
    if C.shape[1]:
        C = _lapack("ormqr", "R", "N", r[:, :min(r.shape)], tau, C.T)[0].T
    return r, piv - 1, int(np.sum(np.abs(np.diag(r)) > tol)), tol, C


def fit_ols(X: np.ndarray, y: np.ndarray) -> LinearFit:
    """Least squares via column-pivoted QR on the centred design.

    :func:`centred_r` factors ``[Xc | yc]`` and :func:`pivoted_r` pivots the
    R of its first l columns, carrying ``Q'yc``, so the fit holds one
    design-sized array besides X. Constant columns, and columns that the
    pivoted factorization finds numerically dependent, are aliased: they
    receive coefficient zero and are listed in the result.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_finite(X, y)
    n, l = X.shape
    R, xm, _ = centred_r(X, y)
    ym = y.mean()
    if l == 0:
        return LinearFit(float(ym), np.zeros(0), ())
    r, piv, rank, _, qty = pivoted_r(R[:min(n, l)], l, n)
    coef = np.zeros(l)
    if rank > 0:
        # a row-major copy, which SciPy solves by rows: the order of the
        # reference two-stage solve, so the coefficients match it bit for bit
        coef[piv[:rank]] = scipy.linalg.solve_triangular(r[:rank, :rank].copy(), qty[:rank, 0])
    return LinearFit(float(ym - xm @ coef), coef, tuple(sorted(int(j) for j in piv[rank:])))


def _check_ridge_penalty(lam) -> None:
    if lam is None or not 0 < lam < np.inf:  # the comparisons fail for NaN
        raise ValueError(f"ridge penalty must be positive and finite, got {lam}")


def _ridge_lstsq(M: np.ndarray, c: np.ndarray, lam: float) -> np.ndarray:
    """The k-vector b that solves ``[M ; sqrt(lam) I] b = [c ; 0]`` in the
    least-squares sense, M of k columns, by one Householder QR (``gels``)."""
    k = M.shape[1]
    A = np.zeros((len(M) + k, k), order="F")
    A[:len(M)] = M
    np.fill_diagonal(A[len(M):], np.sqrt(lam))
    return scipy.linalg.lapack.dgels(A, np.r_[c, np.zeros(k)], overwrite_a=True,
                                     lwork=int(scipy.linalg.lapack.dgels_lwork(*A.shape, 1)[0]))[1][:k]


def fit_ridge(X: np.ndarray, y: np.ndarray, lam: float) -> LinearFit:
    """Ridge regression on z-scaled columns from the R of :func:`centred_r`,
    intercept unpenalized, coefficients reported on the original scale.

    The column scales S are R's column norms / sqrt(n), the standard
    deviations. The z-scaled slopes b solve the small least-squares problem
    ``[R S^-1 ; sqrt(lam) I] b = [Q'yc ; 0]`` by one more Householder QR
    (LAPACK ``gels``, in place), so no normal equations square the design's
    condition number. When R has fewer rows than columns (m < l), b lies in
    the row space of ``R S^-1 = L Q2'`` (an LQ factorization, from ``geqrt``
    of its transpose): b = Q2 w, where w solves the 2m x m problem
    ``[L ; sqrt(lam) I] w = [Q'yc ; 0]``, so no l x l block is formed, and
    Q2's blocked reflectors map w to b (``gemqrt``).
    Constant columns, exactly zero in R, take scale 1 and coefficient zero.
    """
    _check_ridge_penalty(lam)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_finite(X, y)
    n, l = X.shape
    R, means, constant = centred_r(X, y)
    ym = y.mean()
    if l == 0:
        return LinearFit(float(ym), np.zeros(0), ())
    scales = np.where(constant, 1.0, column_norms(R[:, :l]) / np.sqrt(n))
    m = len(R)
    if m < l:
        At = np.empty((l, m), order="F")  # (R S^-1)' = Q2 L'
        np.divide(R[:, :l].T, scales[:, None], out=At)
        qr, t = _geqrt(At)
        w = _ridge_lstsq(np.triu(qr[:m]).T, R[:, l], lam)
        b = scipy.linalg.lapack.dgemqrt(qr, t, np.r_[w, np.zeros(l - m)][:, None],
                                        overwrite_c=True)[0][:, 0]
    else:
        b = _ridge_lstsq(np.divide(R[:, :l], scales), R[:, l], lam)
    coef = np.where(constant, 0.0, b / scales)
    return LinearFit(float(ym - means @ coef), coef, ())


@dataclass(frozen=True)
class LogisticFit:
    """One binary logistic fit per class; prediction is argmax of scores."""

    classes: tuple
    intercepts: np.ndarray  # (q,)
    coefs: np.ndarray  # (l, q), original column scale
    converged: tuple[bool, ...]

    def scores(self, X: np.ndarray) -> np.ndarray:
        return blas.matmul(X, self.coefs) + self.intercepts

    def predict(self, X: np.ndarray) -> np.ndarray:
        idx = np.argmax(self.scores(X), axis=1)
        return np.asarray(self.classes)[idx]


#: L2 penalty on each one-vs-all class's z-scaled slopes (not its intercept):
#: separable classes keep finite coefficients on one scale for the argmax.
LOGISTIC_PENALTY = 1.0

#: Newton iterations and gradient tolerance of every logistic fit by default.
NEWTON_MAX_ITER = 100
NEWTON_TOL = 1e-8


def fit_logistic_ova(
    X: np.ndarray, labels: np.ndarray, max_iter: int = NEWTON_MAX_ITER, tol: float = NEWTON_TOL
) -> LogisticFit:
    """One-vs-all logistic regression: each class minimizes its log-loss plus
    ``LOGISTIC_PENALTY / 2`` times its squared slope norm, all in lockstep on
    one design ``A = [1 | z-scaled X]`` by line-searched truncated Newton (Lin,
    Weng & Keerthi 2008, JMLR 9:627). A class stops once its largest absolute
    gradient entry is at most ``tol``; ``converged`` says which did within
    ``max_iter`` Newton steps. Coefficients are on the original column scale.
    Labels of fewer than two classes are a :class:`DataError`. Every dense
    product runs on SciPy's OpenBLAS (:func:`blas.matmul`), the library of
    the LAPACK calls before it (the one-pool rule of :mod:`polykit.blas`).
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    _check_finite(X)
    classes = np.unique(labels)
    if len(classes) < 2:
        raise DataError(f"need at least two classes, got {len(classes)}")
    n, l = X.shape
    # row-major, whatever the layout of X: on the 2,400 x 231 digits_ova
    # design a column-major A made the dgemm products below slower (medians
    # of 7 fits in 3 processes: 0.093-0.111 -> 0.109-0.120 s, 2 cores)
    A = np.empty((n, l + 1))
    # z-scaled X written straight into A, centred a block of whole columns
    # at a time: the means, scales and constant columns (exact zeros, scale
    # 1) of centre_columns(X), with no centred copy of X
    raw, means, scales = column_norms(X), X.mean(axis=0), np.empty(l)
    for cols in _cell_blocks(l, n):
        Zc = X[:, cols] - means[cols]
        norms = column_norms(Zc)
        constant = norms <= max(n, l) * np.finfo(np.float64).eps * raw[cols]
        Zc[:, constant] = 0.0
        scales[cols] = np.where(constant, 1.0, norms / np.sqrt(n))
        np.divide(Zc, scales[cols], out=A[:, 1:][:, cols])
    A[:, 0] = 1.0  # after Z: written first, this strided column pages in all of A at peak memory
    Y = (labels[:, None] == classes).astype(np.float64)
    lam = np.r_[0.0, np.full(l, LOGISTIC_PENALTY)][:, None]

    def objective(S, B):  # of each class, at the scores S = A @ B
        return (np.logaddexp(0.0, S) - Y * S).sum(axis=0) + 0.5 * (lam * B * B).sum(axis=0)

    B, S = np.zeros((l + 1, len(classes))), np.zeros((n, len(classes)))
    for it in range(max(max_iter, 0) + 1):
        P = expit(S)
        G = blas.matmul(A.T, P - Y) + lam * B
        converged = np.max(np.abs(G), axis=0) <= tol
        if it >= max_iter or converged.all():
            break
        # CG on H_j d_j = -g_j, H_j = A' diag(W_j) A + diag(lam), until the
        # residual is at most min(0.1, sqrt|g_j|) |g_j| (Eisenstat & Walker 1996)
        G[:, converged] = 0.0  # no step for a converged class
        W, D, R = P * (1.0 - P), np.zeros_like(G), -G
        V, rr = R.copy(), np.einsum("ij,ij->j", G, G)
        stop = np.minimum(0.01, np.sqrt(rr)) * rr
        for _ in range(l + 1):
            j = np.flatnonzero(rr > stop)
            if len(j) == 0:
                break
            Vj = V[:, j]
            HV = blas.matmul(A.T, W[:, j] * blas.matmul(A, Vj)) + lam * Vj
            alpha = rr[j] / np.einsum("ij,ij->j", Vj, HV)
            D[:, j] += alpha * Vj
            R[:, j] -= alpha * HV
            rr_old, rr[j] = rr[j], np.einsum("ij,ij->j", R[:, j], R[:, j])
            V[:, j] = R[:, j] + rr[j] / rr_old * Vj
        # Armijo backtracking per class, with a slack for roundoff: near the
        # optimum a Newton step decreases F by far less than eps * |F|
        F, AD, t = objective(S, B), blas.matmul(A, D), np.ones(len(classes))
        bound = F + 64 * np.finfo(np.float64).eps * np.abs(F)
        slope = 1e-4 * np.einsum("ij,ij->j", G, D)
        for _ in range(50):
            ok = objective(S + t * AD, B + t * D) <= bound + t * slope
            if ok.all():
                break
            t[~ok] /= 2
        B += t * D
        S = blas.matmul(A, B)
    coefs = B[1:] / scales[:, None]
    intercepts = B[0] - means @ coefs
    return LogisticFit(tuple(classes.tolist()), intercepts, coefs, tuple(converged.tolist()))


@dataclass(frozen=True)
class PCABasis:
    """Orthonormal component basis retaining >= target variance fraction."""

    components: np.ndarray  # (m, r)
    means: np.ndarray  # (m,)
    retained_fraction: float
    target_fraction: float

    @property
    def r(self) -> int:
        return self.components.shape[1]


def pca_fit(
    X: np.ndarray, var_fraction: float = 0.90, *, n_components: int | None = None
) -> PCABasis:
    """Center X and keep the fewest components whose cumulative variance
    reaches ``var_fraction`` of the total, or exactly ``n_components``
    when a fixed count is requested.

    The means are taken from Fortran-ordered blocks of whole columns, and
    every centred value from a Fortran-ordered block, so the basis depends
    on X's numbers alone, not on its layout. A tall design (rows >=
    columns) takes its components from one symmetric eigendecomposition of
    the m x m cross-product ``Xc' Xc`` of the centred design Xc, whose
    eigenvalues are the squared singular values (negative roundoff ones
    read as 0), and the total variance ``|Xc|_F^2`` is its trace. That never
    forms the n x m left factor a thin SVD builds, nor Xc itself: the upper
    triangle of the cross-product is summed by one ``syrk`` (half a GEMM's
    flops) per centred row block of 2**17 cells, so the fit holds the m x m
    cross-product and one block besides X. A fraction needs the whole
    spectrum, so it takes every eigenpair; a fixed count r takes only the
    top r (``subset_by_index``: after the tridiagonal reduction, LAPACK's
    MRRR routine ``syevr`` computes just those eigenvectors), and
    ``retained_fraction`` is their sum over the total. A component comes
    out accurate to about eps * lam_1 / gap, where gap is the distance from
    its eigenvalue to its neighbours'. A wide design keeps the thin SVD of
    Xc, whose cost grows with the short side where the eigendecomposition's
    grows with m^3; the SVD needs Xc whole, so that branch holds one
    centred copy of X, which the SVD overwrites."""
    X = np.asarray(X, dtype=np.float64)
    n, m = X.shape
    if n < 2:
        raise ValueError("PCA needs at least two rows")
    if not 0 < var_fraction <= 1:
        raise ValueError("var_fraction must be in (0, 1]")
    if n_components is not None and n_components < 1:
        raise ValueError("n_components must be >= 1")
    means = np.empty(m)
    for cols in _cell_blocks(m, n):
        means[cols] = np.asfortranarray(X[:, cols]).mean(axis=0)
    if n >= m:
        # Fortran-ordered upper triangle, so eigh overwrites it with no copy;
        # trans=1 reads each column-major block in place
        gram = np.zeros((m, m), order="F")
        for rows in _cell_blocks(n, m):
            gram = scipy.linalg.blas.dsyrk(1.0, np.subtract(X[rows], means, order="F"),
                                           beta=1.0, c=gram, trans=1, lower=0, overwrite_c=1)
        total = float(np.trace(gram))
    else:
        Xc = np.subtract(X, means, order="F")
        # einsum, not np.vdot: with OpenBLAS a threaded ddot just before the
        # wide SVD made that SVD twice as slow (100 x 3,000 on two cores)
        total = float(np.einsum("ij,ij->", Xc, Xc))
    if total == 0.0:
        raise DataError("zero-variance matrix: PCA undefined")
    if n >= m:
        top = None if n_components is None else [m - min(n_components, m), m - 1]
        power, v = scipy.linalg.eigh(gram, lower=False, overwrite_a=True, subset_by_index=top)
        power, v = np.maximum(power[::-1], 0.0), v[:, ::-1]
    else:
        _, s, vt = scipy.linalg.svd(Xc, full_matrices=False, overwrite_a=True)
        power, v = s**2, vt.T
    cum = np.cumsum(power) / total
    if n_components is not None:
        r = min(n_components, len(power))
        var_fraction = float(cum[r - 1])
    else:
        r = int(np.searchsorted(cum, var_fraction - 1e-12) + 1)
        r = min(r, len(power))
    components = v[:, :r].copy()
    # fix the sign convention so repeated fits agree exactly: the first entry
    # within 1e-8 (relative) of the largest magnitude is positive, so entries
    # that tie in magnitude do not leave the sign to roundoff
    for j in range(r):
        size = np.abs(components[:, j])
        k = int(np.argmax(size >= (1 - 1e-8) * size.max()))
        if components[k, j] < 0:
            components[:, j] = -components[:, j]
    return PCABasis(components, means, float(cum[r - 1]), float(var_fraction))


def pca_transform(basis: PCABasis, X: np.ndarray) -> np.ndarray:
    """The component scores ``(X - means) @ components`` of X's rows, each
    row block of 2**17 cells centred and multiplied on its own and written
    into the scores, so no centred copy of X is formed."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != basis.components.shape[0]:
        raise ValueError("matrix width does not match the PCA basis")
    scores = np.empty((len(X), basis.r))
    for rows in _cell_blocks(len(X), X.shape[1]):
        scores[rows] = blas.matmul(np.subtract(X[rows], basis.means, order="F"),
                                   basis.components)
    return scores


@dataclass(frozen=True)
class PolyModel:
    """A fitted polynomial model plus everything prediction needs.

    ``coef`` has shape (l,) for regression and (l, q) for classification;
    ``intercept`` is a float or a (q,) vector to match. ``pca``, when
    present, was fitted on the raw design before expansion, so the term
    set lives over component scores.
    """

    terms: TermSet
    intercept: float | np.ndarray
    coef: np.ndarray
    method: str  # "ols" | "ridge" | "logistic"
    lam: float | None = None
    pca: PCABasis | None = None
    classes: tuple | None = None
    aliased: tuple[int, ...] = ()
    schema: Schema | None = None
    groups: DummyGroups | None = None

    def __post_init__(self):
        l = len(self.terms)
        if self.method == "logistic":
            if (self.classes is None or np.ndim(self.classes) != 1
                    or self.coef.shape != (l, len(self.classes))):
                raise ValueError("coefficient matrix shape does not match terms/classes")
        elif self.method not in ("ols", "ridge"):
            raise ValueError(f"unknown fit method {self.method!r}")
        elif self.coef.shape != (l,):
            raise ValueError("coefficient length does not match the term set")
        if np.shape(self.intercept) != self.coef.shape[1:]:
            raise ValueError("intercept shape does not match the coefficients")
        if self.pca is not None and (
            self.pca.components.shape != self.pca.means.shape + (self.terms.width,)
        ):
            raise ValueError("PCA basis shape does not match the term set")

    @property
    def input_width(self) -> int:
        """Design-matrix width this model expects at prediction time."""
        if self.pca is not None:
            return self.pca.components.shape[0]
        return self.terms.width


def fit_poly_model(
    design: np.ndarray,
    response: np.ndarray,
    terms: TermSet,
    method: str = "ols",
    *,
    lam: float | None = None,
    pca: PCABasis | None = None,
    schema: Schema | None = None,
    groups: DummyGroups | None = None,
    max_iter: int = NEWTON_MAX_ITER,
    tol: float = NEWTON_TOL,
) -> PolyModel:
    """Expand the (optionally PCA-reduced) design and fit by ``method``."""
    if method not in ("ols", "ridge", "logistic"):
        raise ValueError(f"unknown fit method {method!r}")
    if method == "ridge":
        _check_ridge_penalty(lam)
    Z = pca_transform(pca, design) if pca is not None else np.asarray(design, dtype=np.float64)
    P = polyterms.expand(Z, terms)
    if method == "logistic":
        fit = fit_logistic_ova(P, response, max_iter, tol)
        stalled = [c for c, ok in zip(fit.classes, fit.converged) if not ok]
        if stalled:
            warnings.warn(f"logistic fit did not converge within {max_iter} Newton iterations"
                          f" for class(es) {', '.join(map(repr, stalled))}")
        intercept, coef, extra = fit.intercepts, fit.coefs, {"classes": fit.classes}
    else:
        fit = fit_ols(P, response) if method == "ols" else fit_ridge(P, response, lam)
        intercept, coef = fit.intercept, fit.coef
        extra = {"aliased": fit.aliased} if method == "ols" else {"lam": lam}
    return PolyModel(terms, intercept, coef, method, pca=pca, schema=schema, groups=groups,
                     **extra)


#: New rows are expanded and scored this many cells (16 MiB of float64) at a
#: time, so prediction memory does not grow with the row count.
PREDICT_BLOCK_CELLS = 1 << 21


def predict(model: PolyModel, new_design: np.ndarray) -> np.ndarray:
    """Apply stored PCA, expansion and coefficients to a new design matrix.

    Rows are expanded and scored in blocks of ``PREDICT_BLOCK_CELLS`` term
    cells, so the row count is not bounded by the expansion's cell budget.
    A table of at most one block is scored by one product, exactly as a
    single expansion; beyond that a row's score may differ from the
    single-product one in the last bit, as BLAS rounds a row by its position
    in the product. Regression models return fitted values; classification
    models return the argmax class id. Unseen categorical levels are handled
    upstream by ``encode_design`` against the training schema.
    """
    X = np.asarray(new_design, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_width:
        raise ValueError(
            f"design width {X.shape[1] if X.ndim == 2 else '?'} does not match"
            f" the model's expected width {model.input_width}"
        )
    Z = pca_transform(model.pca, X) if model.pca is not None else X
    step = max(1, PREDICT_BLOCK_CELLS // max(1, len(model.terms)))
    scores = np.empty((len(Z),) + model.coef.shape[1:])
    if model.pca is None:
        # NumPy's product: it follows the ingest, not LAPACK, and a reloaded
        # model's bit-for-bit agreement rests on its rounding pattern
        product, coef = np.matmul, model.coef
    else:
        # the pool of the pca_transform just before; NumPy's is asleep by now
        product = blas.matmul
        coef = model.coef if model.coef.ndim == 2 else model.coef[:, None]
    for lo in range(0, len(Z), step):
        # one expanded block alive at a time: the next reuses its freed memory
        block = scores[lo : lo + step]
        block[...] = product(polyterms.expand(Z[lo : lo + step], model.terms), coef).reshape(
            block.shape)
    scores += model.intercept
    if model.method == "logistic":
        idx = np.argmax(scores, axis=1)
        return np.asarray(model.classes)[idx]
    return scores


def mape(pred: np.ndarray, actual: np.ndarray) -> float:
    """Mean absolute prediction error, in response units (not a percentage)."""
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if pred.shape != actual.shape or pred.size < 1:
        raise ValueError("inputs must be equal-length and nonempty")
    return float(np.mean(np.abs(pred - actual)))


def pcc(pred_classes: np.ndarray, actual_classes: np.ndarray) -> float:
    """Proportion of correct classification."""
    pred_classes = np.asarray(pred_classes)
    actual_classes = np.asarray(actual_classes)
    if pred_classes.shape != actual_classes.shape or pred_classes.size < 1:
        raise ValueError("inputs must be equal-length and nonempty")
    return float(np.mean(pred_classes == actual_classes))


def corr(pred: np.ndarray, actual: np.ndarray) -> float:
    """Pearson correlation between predicted and actual values."""
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if pred.shape != actual.shape or pred.size < 1:
        raise ValueError("inputs must be equal-length and nonempty")
    sp = pred.std()
    sa = actual.std()
    if sp == 0.0 or sa == 0.0:
        raise ValueError("correlation undefined for zero-variance inputs")
    return float(np.mean((pred - pred.mean()) * (actual - actual.mean())) / (sp * sa))


def r_squared(pred: np.ndarray, actual: np.ndarray) -> float:
    """Coefficient of determination of predictions against actuals."""
    actual = np.asarray(actual, dtype=np.float64)
    ss_res = float(np.sum((actual - pred) ** 2))
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("R^2 undefined for a constant response")
    return 1.0 - ss_res / ss_tot

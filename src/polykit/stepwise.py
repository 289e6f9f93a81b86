"""Forward stepwise regression: greedy term-by-term model growth scored on
a validation holdout carved out of the training data.

Each greedy step scores every remaining candidate term as an addition to
the current model and keeps the candidate with the least validation loss:
the mean absolute error for regression, the negated proportion correct for
classification (the trace reports the proportion itself). The loop keeps
adding best candidates until no candidate lowers the loss by more than the
tolerance AND at least ``min_models`` candidates have been scored. The
returned model is the shortest prefix of the growth trace within the
tolerance of the least loss seen, refit on the sub-training rows.

The design is expanded once, its rows permuted so that the sub-training
rows come first; both scorers read that one expansion. Regression
candidates are scored by orthogonal least-squares updating (Chen, Billings
& Luo 1989, "Orthogonal least squares methods and their application to
non-linear system identification", Int. J. Control 50:1873). The expansion,
centred in place on the sub-training means, becomes the search's one
residual buffer: each candidate column holds its residual against an
orthonormal basis of the selected columns on the sub-training rows, and
the same Gram-Schmidt combination of its validation rows below them.
Adding candidate j to the model adds gamma_j * r_j to the fit, where r_j is
its residual and gamma_j = r_j'y_res / |r_j|^2, so one step scores all
candidates with a few array operations, and an accepted term costs two
rank-one updates of the buffer in place ("twice is enough"
re-orthogonalisation, BLAS ``dger``, on one BLAS thread). No other array
the size of the expansion is held: the search peaks at about twice one
expansion. A candidate whose residual is negligible next to the column
norms is aliased with the model and scores the parent model, as a
pivoted-QR refit that drops it would. Classification refits the
one-vs-all logistic model once per candidate on column subsets of the
expansion.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger

from . import blas, fitcore, polyterms
from .dataset import Dataset, DummyGroups, Schema, encode_design, holdout
from .errors import DataError
from .polyterms import TermSet


@dataclass(frozen=True)
class FSRConfig:
    candidates: TermSet
    validation_fraction: float = 0.2
    min_models: int = 200
    improvement_tolerance: float = 0.0
    max_iter: int = fitcore.NEWTON_MAX_ITER  # logistic refits only
    tol: float = fitcore.NEWTON_TOL  # logistic refits only

    def __post_init__(self):
        if not 0 < self.validation_fraction < 1:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.min_models < 1:
            raise ValueError("min_models must be >= 1")
        if not self.improvement_tolerance >= 0:  # also refuses NaN
            raise ValueError("improvement_tolerance must be >= 0")
        if len(self.candidates) == 0:
            raise DataError("candidate term set is empty")


@dataclass(frozen=True)
class FSRTraceRow:
    step: int
    term_label: str  # "" for the intercept-only row
    validation_score: float
    fits_evaluated: int
    selected: bool = False


@dataclass(frozen=True)
class FSRResult:
    model: fitcore.PolyModel
    trace: tuple[FSRTraceRow, ...]


def trace_to_csv(trace: tuple[FSRTraceRow, ...]) -> str:
    lines = ["step,term,validation_score,fits_evaluated,selected"]
    for row in trace:
        lines.append(
            f"{row.step},{row.term_label},{row.validation_score!r},"
            f"{row.fits_evaluated},{int(row.selected)}"
        )
    return "\n".join(lines) + "\n"


class _OrthogonalScorer:
    """Validation MAE of the current OLS model plus each candidate, from one
    residual buffer updated in place (see the module docstring)."""

    def __init__(self, W: np.ndarray, n_sub: int, y_sub: np.ndarray, y_val: np.ndarray):
        self.n_sub = n_sub
        self.norms = fitcore.column_norms(W[:n_sub])
        W -= W[:n_sub].mean(axis=0)
        self.W = W  # candidate residuals against the basis, sub-training rows first
        self.y_res = y_sub - y_sub.mean()
        self.pred = np.full(len(y_val), y_sub.mean())
        self.y_val = y_val
        self.loss = fitcore.mape(self.pred, y_val)
        self.n_selected = 0
        self.selected_norm = 0.0  # largest of self.norms over the selected columns

    def _gamma(self, cols: slice) -> tuple[np.ndarray, np.ndarray]:
        """New-term coefficients of the columns ``cols`` and which are not aliased."""
        R = self.W[: self.n_sub, cols]
        ss = np.einsum("ij,ij->j", R, R)
        # aliased: residual norm <= max(n, k)*eps*(largest column norm among the
        # k model columns), fit_ols's rank rule on |r11|; norms are taken before
        # centring, so a column constant on these rows is aliased even when
        # its mean is inexact
        tol = (max(self.n_sub, self.n_selected + 1) * np.finfo(np.float64).eps
               * np.maximum(self.norms[cols], self.selected_norm))
        live = np.sqrt(ss) > tol
        gamma = np.divide(np.einsum("i,ij->j", self.y_res, R), ss,
                          out=np.zeros_like(ss), where=live)
        return gamma, live

    def losses(self, idx: np.ndarray) -> np.ndarray:
        gamma, live = self._gamma(slice(None))
        live = live[idx]
        cols = idx[live]
        losses = np.full(len(idx), self.loss)
        E = self.W[self.n_sub :, cols] * gamma[cols]  # validation errors, in place
        E += self.pred[:, None]
        E -= self.y_val[:, None]
        losses[live] = np.abs(E, out=E).mean(axis=0)
        return losses

    def accept(self, j: int, loss: float) -> None:
        gamma, live = self._gamma(slice(j, j + 1))
        self.n_selected += 1
        self.selected_norm = max(self.selected_norm, float(self.norms[j]))
        self.loss = loss
        if not live[0]:
            return
        sub = self.W[: self.n_sub]
        self.y_res -= gamma[0] * sub[:, j]
        self.pred += gamma[0] * self.W[self.n_sub :, j]
        q = self.W[:, j] / np.linalg.norm(sub[:, j])  # unit on the sub-training rows
        for _ in range(2):  # twice is enough
            dger(-1.0, q, q[: self.n_sub] @ sub, a=self.W, overwrite_a=True)


class _LogisticScorer:
    """Negated validation PCC of a one-vs-all logistic refit per candidate."""

    def __init__(self, P: np.ndarray, n_sub: int, y_sub: np.ndarray, y_val: np.ndarray,
                 max_iter: int, tol: float):
        self.P_sub, self.P_val, self.y_sub, self.y_val = P[:n_sub], P[n_sub:], y_sub, y_val
        self.max_iter, self.tol = max_iter, tol
        values, counts = np.unique(y_sub, return_counts=True)
        self.loss = -fitcore.pcc(np.full(len(y_val), values[np.argmax(counts)]), y_val)
        self.selected: list[int] = []

    def losses(self, idx: np.ndarray) -> np.ndarray:
        out = np.empty(len(idx))
        for i, j in enumerate(idx):
            cols = self.selected + [int(j)]
            fit = fitcore.fit_logistic_ova(self.P_sub[:, cols], self.y_sub, self.max_iter, self.tol)
            out[i] = -fitcore.pcc(fit.predict(self.P_val[:, cols]), self.y_val)
        return out

    def accept(self, j: int, loss: float) -> None:
        self.selected.append(j)
        self.loss = loss


def fsr(train: Dataset, config: FSRConfig, seed: int) -> FSRResult:
    """:func:`search` on the encoded design of ``train``."""
    return search(*encode_design(train), train.response_values(), train.schema, config, seed)


def search(design: np.ndarray, groups: DummyGroups, y: np.ndarray, schema: Schema,
           config: FSRConfig, seed: int) -> FSRResult:
    """Grow a polynomial model one candidate term at a time.

    ``design`` and ``groups`` are the encoded training table and its layout,
    ``y`` its response and ``schema`` the table's; the model keeps both
    layouts. The training rows are split ``1 - validation_fraction`` /
    ``validation_fraction`` under ``seed``; growth is scored on the
    holdout and the final model is refit on the sub-training part with
    the best prefix of selected terms.

    Each step scores every remaining candidate (``fits_evaluated`` counts
    them) and keeps the first strict best in candidate order. Regression
    scores come from orthogonal least-squares updating (Chen, Billings &
    Luo 1989): they equal the validation error of an OLS refit on the
    selected terms plus the candidate, without refitting. A candidate whose
    residual against the selected columns is at most max(n, k) * eps times
    the largest column norm among the k model columns is aliased and scores
    the current model, as a pivoted-QR refit would drop it.
    """
    if design.shape[1] != config.candidates.width:
        raise DataError(
            f"candidate terms were built for width {config.candidates.width},"
            f" but the encoded design has width {design.shape[1]}"
        )
    classify = schema.is_classification
    n = design.shape[0]
    n_val = int(n * config.validation_fraction)
    if n_val < 1:
        raise DataError("validation holdout would be empty")

    sub_idx, val_idx = holdout(n, n_val, seed)
    rows = design[np.r_[sub_idx, val_idx]]
    n_sub = len(sub_idx)
    expanded = polyterms.expand(rows, config.candidates)
    y_sub, y_val = y[sub_idx], y[val_idx]
    if classify:
        scorer = _LogisticScorer(expanded, n_sub, y_sub, y_val, config.max_iter, config.tol)
    else:
        scorer = _OrthogonalScorer(expanded, n_sub, y_sub, y_val)

    # the loss of each step's model (the negated PCC when classifying) and the
    # candidate fits evaluated by then; step 0 is the intercept-only model
    selected: list[int] = []
    losses, fits = [scorer.loss], [0]
    remaining = list(range(len(config.candidates)))
    # the regression search runs on one BLAS thread, where its small gemv and
    # dger calls pay no thread overhead: on a 2-core host the 1,000-row,
    # 68-candidate wages_fsr search took 10.5-11.5 ms pinned against 17.5 ms
    # on threads; at 4,000 rows and 148 candidates, 181 against 190 ms
    # (BENCH_29_one_update_path.json)
    with nullcontext() if classify else blas.one_thread():
        while remaining:
            step_losses = scorer.losses(np.array(remaining))
            b = int(np.argmin(step_losses))  # the first strict best in candidate order
            loss, evaluated = float(step_losses[b]), fits[-1] + len(remaining)
            if (scorer.loss - loss <= config.improvement_tolerance
                    and evaluated >= config.min_models):
                break
            scorer.accept(remaining[b], loss)
            selected.append(remaining.pop(b))
            losses.append(loss)
            fits.append(evaluated)
    del expanded, scorer  # the refit below expands the chosen terms again

    # final selection: the shortest prefix of the growth trace whose loss is
    # within improvement_tolerance of the least loss seen (parsimony rule;
    # tolerance 0 keeps the earliest strict optimum)
    best_step = int(np.argmax(np.array(losses) <= min(losses) + config.improvement_tolerance))
    final_terms = TermSet(
        tuple(config.candidates[j] for j in sorted(selected[:best_step])),
        config.candidates.width,
        config.candidates.groups,
        config.candidates.spec,
    )
    method = "logistic" if classify else "ols"
    model = fitcore.fit_poly_model(
        rows[:n_sub], y_sub, final_terms, method,
        schema=schema, groups=groups, max_iter=config.max_iter, tol=config.tol,
    )
    sign = -1.0 if classify else 1.0
    names = config.candidates.labels()
    labels = [""] + [names[j] for j in selected]
    trace = tuple(
        FSRTraceRow(step, labels[step], sign * losses[step], fits[step],
                    selected=0 < step <= best_step)
        for step in range(len(losses))
    )
    return FSRResult(model, trace)

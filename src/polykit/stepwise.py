"""Forward stepwise regression: greedy term-by-term model growth scored on
a validation holdout carved out of the training data.

Each greedy step scores every remaining candidate term as an addition to
the current model and keeps the candidate that most improves the
validation score (mean absolute error for regression, proportion correct
for classification). The loop keeps adding best candidates until no
candidate improves by more than the tolerance AND at least ``min_models``
candidates have been scored. The returned model is the shortest prefix of
the growth trace scoring within the tolerance of the best score seen, refit
on the sub-training rows.

Regression candidates are scored by orthogonal least-squares updating
(Chen, Billings & Luo 1989, "Orthogonal least squares methods and their
application to non-linear system identification", Int. J. Control 50:1873).
The search keeps an orthonormal basis of the selected, centred columns on
the sub-training rows and, for every candidate, its residual against that
basis, with the same Gram-Schmidt combination applied to its validation
rows. Adding candidate j to the model adds gamma_j * r_j to the fit, where
r_j is its residual and gamma_j = r_j'y_res / |r_j|^2, so one step scores
all candidates with a few array operations, and an accepted term costs one
O(n m) projection of the remaining residuals (done twice, "twice is
enough" re-orthogonalisation). A candidate whose residual is negligible
next to the column norms is aliased with the model and scores the parent
model, as a pivoted-QR refit that drops it would. Classification refits
the one-vs-all logistic model once per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fitcore, polyterms
from .dataset import Dataset, encode_design, holdout
from .errors import DataError
from .polyterms import TermSet


@dataclass(frozen=True)
class FSRConfig:
    candidates: TermSet
    validation_fraction: float = 0.2
    min_models: int = 200
    improvement_tolerance: float = 0.0
    max_iter: int = 25  # logistic refits only
    tol: float = 1e-8  # logistic refits only

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
    maintained orthonormal basis (see the module docstring)."""

    def __init__(self, P_sub: np.ndarray, y_sub: np.ndarray, P_val: np.ndarray,
                 y_val: np.ndarray, base_score: float):
        mean = P_sub.mean(axis=0)
        self.norms = fitcore.column_norms(P_sub)
        self.resid = P_sub - mean  # candidate residuals against the basis
        self.vresid = P_val - mean  # the same combinations on validation rows
        self.y_res = y_sub - y_sub.mean()
        self.pred = np.full(len(y_val), y_sub.mean())
        self.y_val = y_val
        self.parent_score = base_score
        self.n_selected = 0
        self.selected_norm = 0.0  # largest of self.norms over the selected columns

    def _gamma(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """New-term coefficients of candidates ``idx`` and which are not aliased."""
        R = self.resid[:, idx]
        ss = np.einsum("ij,ij->j", R, R)
        # aliased: residual norm <= max(n, k)*eps*(largest column norm among the
        # k model columns), fit_ols's rank rule on |r11|; norms are taken before
        # centring, so a column constant on these rows is aliased even when
        # its mean is inexact
        tol = (max(R.shape[0], self.n_selected + 1) * np.finfo(np.float64).eps
               * np.maximum(self.norms[idx], self.selected_norm))
        live = np.sqrt(ss) > tol
        gamma = np.zeros(len(idx))
        gamma[live] = (self.y_res @ R[:, live]) / ss[live]
        return gamma, live

    def scores(self, idx: np.ndarray) -> np.ndarray:
        gamma, live = self._gamma(idx)
        scores = np.full(len(idx), self.parent_score)
        pred = self.pred[:, None] + self.vresid[:, idx[live]] * gamma[live]
        scores[live] = np.mean(np.abs(pred - self.y_val[:, None]), axis=0)
        return scores

    def accept(self, j: int, score: float) -> None:
        gamma, live = self._gamma(np.array([j]))
        self.n_selected += 1
        self.selected_norm = max(self.selected_norm, float(self.norms[j]))
        self.parent_score = score
        if not live[0]:
            return
        r, vr = self.resid[:, j], self.vresid[:, j]
        self.y_res -= gamma[0] * r
        self.pred += gamma[0] * vr
        scale = np.linalg.norm(r)
        q, vq = r / scale, vr / scale
        for _ in range(2):  # twice is enough
            a = q @ self.resid
            self.resid -= np.outer(q, a)
            self.vresid -= np.outer(vq, a)


class _LogisticScorer:
    """Validation PCC of a one-vs-all logistic refit per candidate."""

    def __init__(self, P_sub: np.ndarray, y_sub: np.ndarray, P_val: np.ndarray,
                 y_val: np.ndarray, max_iter: int, tol: float):
        self.P_sub, self.y_sub, self.P_val, self.y_val = P_sub, y_sub, P_val, y_val
        self.max_iter, self.tol = max_iter, tol
        self.selected: list[int] = []

    def scores(self, idx: np.ndarray) -> np.ndarray:
        out = np.empty(len(idx))
        for i, j in enumerate(idx):
            cols = self.selected + [int(j)]
            fit = fitcore.fit_logistic_ova(self.P_sub[:, cols], self.y_sub, self.max_iter, self.tol)
            out[i] = fitcore.pcc(fit.predict(self.P_val[:, cols]), self.y_val)
        return out

    def accept(self, j: int, score: float) -> None:
        self.selected.append(j)


def fsr(train: Dataset, config: FSRConfig, seed: int) -> FSRResult:
    """Grow a polynomial model one candidate term at a time.

    The training rows are split ``1 - validation_fraction`` /
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
    design, groups = encode_design(train)
    if design.shape[1] != config.candidates.width:
        raise DataError(
            f"candidate terms were built for width {config.candidates.width},"
            f" but the encoded design has width {design.shape[1]}"
        )
    y = train.response_values()
    classify = train.schema.is_classification
    n = design.shape[0]
    n_val = int(n * config.validation_fraction)
    if n_val < 1:
        raise DataError("validation holdout would be empty")

    sub_idx, val_idx = holdout(n, n_val, seed)

    expanded = polyterms.expand(design, config.candidates)
    P_sub, P_val = expanded[sub_idx], expanded[val_idx]
    y_sub, y_val = y[sub_idx], y[val_idx]

    labels = config.candidates.labels()

    if classify:
        values, counts = np.unique(y_sub, return_counts=True)
        majority = values[np.argmax(counts)]
        base_score = fitcore.pcc(np.full(n_val, majority), y_val)
        scorer = _LogisticScorer(P_sub, y_sub, P_val, y_val, config.max_iter, config.tol)
    else:
        base_score = fitcore.mape(np.full(n_val, y_sub.mean()), y_val)
        scorer = _OrthogonalScorer(P_sub, y_sub, P_val, y_val, base_score)

    selected: list[int] = []
    remaining = list(range(len(config.candidates)))
    fits = 0
    trace: list[FSRTraceRow] = [FSRTraceRow(0, "", base_score, 0)]
    prev_score = base_score

    while remaining:
        step_scores = scorer.scores(np.array(remaining))
        fits += len(remaining)
        # the first strict best in candidate order
        b = int(np.argmax(step_scores) if classify else np.argmin(step_scores))
        best_j, best_score = remaining[b], float(step_scores[b])
        improvement = (best_score - prev_score) if classify else (prev_score - best_score)
        if improvement <= config.improvement_tolerance and fits >= config.min_models:
            break
        scorer.accept(best_j, best_score)
        selected.append(best_j)
        del remaining[b]
        trace.append(FSRTraceRow(len(selected), labels[best_j], best_score, fits))
        prev_score = best_score

    # final selection: the shortest prefix of the growth trace whose score is
    # within improvement_tolerance of the best score seen (parsimony rule;
    # tolerance 0 keeps the earliest strict optimum)
    scores = [row.validation_score for row in trace]
    best = max(scores) if classify else min(scores)
    if classify:
        meets = [s >= best - config.improvement_tolerance for s in scores]
    else:
        meets = [s <= best + config.improvement_tolerance for s in scores]
    best_step = meets.index(True)
    chosen = sorted(selected[:best_step])

    final_terms = TermSet(
        tuple(config.candidates[j] for j in chosen),
        config.candidates.width,
        config.candidates.groups,
        config.candidates.spec,
    )
    sub_design = design[sub_idx]
    method = "logistic" if classify else "ols"
    model = fitcore.fit_poly_model(
        sub_design, y_sub, final_terms, method,
        schema=train.schema, groups=groups, max_iter=config.max_iter, tol=config.tol,
    )
    marked = tuple(
        FSRTraceRow(r.step, r.term_label, r.validation_score, r.fits_evaluated,
                    selected=r.step > 0 and r.step <= best_step)
        for r in trace
    )
    return FSRResult(model, marked)

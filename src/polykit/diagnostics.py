"""Variance inflation factors and the layer-by-layer collinearity probe.

VIF_j = 1 / (1 - R^2_j), where R^2_j comes from regressing column j on all
the other columns (with intercept). It is the j-th diagonal of the inverse
correlation matrix: the squared norm of row j of R^-1, where R is the
pivoted R factor of the centred, unit-norm columns (Belsley, Kuh & Welsch,
1980), from the two stages every least-squares solve shares
(``fitcore.centred_r`` and ``fitcore.pivoted_r``). Exactly collinear or
constant columns would be infinite, so they are capped at ``VIF_CAP`` and
still enter the summary mean; the probe's last-layer averages are dominated
by such capped values whenever the layer outputs are linearly dependent
(e.g. softmax outputs summing to one).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import mlp as mlpmod
from .fitcore import centred_r, column_norms, pivoted_r
# not called here; perfbench's tracer test expects fit_ols bound in two modules
from .fitcore import fit_ols  # noqa: F401

#: Reported in place of an infinite VIF (1 - R^2 below ``COLLINEAR_TOL``).
VIF_CAP = 1e15

COLLINEAR_TOL = 1e-12

#: A VIF above this counts towards a layer's share over threshold.
VIF_THRESHOLD = 10.0


@dataclass(frozen=True)
class VIFReport:
    """Per-column VIFs for one layer plus the two summary statistics."""

    layer_label: str
    vifs: tuple[float, ...]
    proportion_over_threshold: float
    mean_vif: float
    undefined: bool = False


def vif(X: np.ndarray) -> np.ndarray:
    """VIF of every column of X; needs at least two columns.

    Constant columns, and columns in the support of the numerical null
    space of the rest, get ``VIF_CAP``. X is centred and factored in one
    buffer (``fitcore.centred_r``); the live columns of its R are then
    scaled to unit norm and pivoted (``fitcore.pivoted_r``).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError("VIF needs a matrix with at least two columns")
    R, _, constant = centred_r(X, None)
    values = np.full(X.shape[1], VIF_CAP)
    live = np.flatnonzero(~constant)
    if live.size == 0:
        return values
    Z = R[:, live]
    Z /= column_norms(Z)
    r, piv, rank, tol, _ = pivoted_r(Z, live.size, X.shape[0])
    r_inv = scipy.linalg.solve_triangular(r[:rank, :rank], np.eye(rank))
    inflation = np.sum(r_inv**2, axis=1)
    # Row j of R11^-1 R12 holds column j's coefficients in the null vectors.
    # With coefficients c, the others rebuild column j to within |R22| / |c|
    # <= tol / |c|, so 1 - R^2_j < COLLINEAR_TOL once |c| > tol / sqrt(COLLINEAR_TOL).
    in_null = np.linalg.norm(r_inv @ r[:rank, rank:], axis=1) * np.sqrt(COLLINEAR_TOL) > tol
    finite = ~in_null & (inflation * COLLINEAR_TOL <= 1.0)
    values[live[piv[:rank][finite]]] = inflation[finite]
    return values


def vif_summary(vifs: np.ndarray) -> tuple[float, float]:
    """(proportion strictly above ``VIF_THRESHOLD``, arithmetic mean incl. caps)."""
    vifs = np.asarray(vifs, dtype=np.float64)
    if vifs.size == 0:
        raise ValueError("empty VIF vector")
    return float(np.mean(vifs > VIF_THRESHOLD)), float(np.mean(vifs))


def probe_layers(mlp: "mlpmod.MLP", X: np.ndarray) -> list[VIFReport]:
    """One VIFReport per network layer, dense and dropout alike.

    Layer outputs are taken in inference mode, so a dropout layer passes
    its input through and its report duplicates the preceding dense one.
    Layers narrower than two units get an ``undefined`` report.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] < 1:
        raise ValueError("probe needs at least one row")
    reports: list[VIFReport] = []
    labels = mlpmod.layer_labels(mlp)
    outputs = X
    for i, layer in enumerate(mlp.layers):
        outputs = mlpmod.apply_layer(layer, outputs)
        if isinstance(layer, mlpmod.DropoutLayer) and reports:
            reports.append(replace(reports[-1], layer_label=labels[i]))
            continue
        if outputs.shape[1] < 2:
            reports.append(VIFReport(labels[i], (), 0.0, 0.0, undefined=True))
            continue
        values = vif(outputs)
        prop, mean = vif_summary(values)
        reports.append(VIFReport(labels[i], tuple(float(v) for v in values), prop, mean))
    return reports


def format_reports(reports: list[VIFReport]) -> str:
    """Aligned three-column text table: layer, share over threshold, mean."""
    if not reports:
        return ""
    rows = [("layer", f"share_vif_over_{VIF_THRESHOLD:g}", "mean_vif")]
    for rep in reports:
        if rep.undefined:
            rows.append((rep.layer_label, "undefined", "undefined"))
        else:
            rows.append((rep.layer_label, f"{rep.proportion_over_threshold:.6g}",
                         f"{rep.mean_vif:.7g}"))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"


def reports_to_csv(reports: list[VIFReport]) -> str:
    """Summary CSV: one row per layer."""
    lines = ["layer,share_over_threshold,mean_vif,threshold,undefined"]
    for rep in reports:
        lines.append(
            f"{rep.layer_label},{rep.proportion_over_threshold!r},"
            f"{rep.mean_vif!r},{VIF_THRESHOLD!r},{int(rep.undefined)}"
        )
    return "\n".join(lines) + "\n"

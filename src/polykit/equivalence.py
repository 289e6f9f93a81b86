"""Exact polynomial extraction from polynomial-activation networks.

A dense layer is an affine map of polynomials in the input features, and a
square activation squares each of them, so a network built from square and
identity activations computes, per output unit, one exact multivariate
polynomial. This module carries those polynomials symbolically through the
network, checks them against the forward pass, and reports how the maximum
degree grows layer by layer (doubling at every square layer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DummyGroups
from .errors import MemoryBudgetError
from .mlp import MLP, DenseLayer, DropoutLayer, forward
from .polyterms import (
    PolySpec,
    TermSet,
    enumerate_terms,
    exact_numeric_term_count,
    expand,
    exponent_matrix,
    graded_position,
)

#: Coefficients with absolute value below this are pruned after every op.
PRUNE_TOL = 1e-12

#: Cap on the total number of stored coefficients per layer.
COEF_BUDGET = 1_000_000

#: The activations under which a network stays an exact polynomial.
POLYNOMIAL_ACTIVATIONS = ("square", "identity")


def _numeric_terms(nvars: int, degree: int) -> TermSet:
    return enumerate_terms(nvars, DummyGroups.all_numeric(nvars), PolySpec(degree))


@dataclass(frozen=True, eq=False)
class SymbolicPoly:
    """Polynomial laid out like a fitted model: ``constant`` plus ``coef[j]``
    times term j of ``terms``, the all-numeric term set of some degree.

    Graded order makes the degree-d term list a prefix of every higher
    degree's, so polynomials of different degrees line up by zero-padding.
    Near-zero coefficients are stored as zero.
    """

    terms: TermSet
    constant: float
    coef: np.ndarray

    def __post_init__(self):
        if len(self.terms) != exact_numeric_term_count(self.terms.width, self.terms.spec.degree):
            raise ValueError("terms must be the all-numeric term set of their degree")
        if np.shape(self.coef) != (len(self.terms),):
            raise ValueError(f"coef shape {np.shape(self.coef)} does not match {len(self.terms)} terms")

    @property
    def degree(self) -> int:
        nonzero = np.flatnonzero(self.coef)
        return self.terms[nonzero[-1]].degree if nonzero.size else 0

    def __len__(self) -> int:
        """Number of nonzero coefficients, the constant included."""
        return int(np.count_nonzero(self.coef)) + (self.constant != 0.0)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Value at every row of an (n, nvars) matrix."""
        return expand(points, self.terms) @ self.coef + self.constant

    def label(self, names: tuple[str, ...] | None = None) -> str:
        parts = [f"{self.constant:.12g}"] if self.constant else []
        for j in np.flatnonzero(self.coef):
            parts.append(f"{self.coef[j]:.12g}*{self.terms[j].label(names)}")
        return " + ".join(parts) or "0"


# Polynomials over one term set stack into a matrix with one row each: the
# constant in column 0 and term j's coefficient in column j + 1.

def _row(poly: SymbolicPoly) -> np.ndarray:
    return np.concatenate([[poly.constant], poly.coef])[None, :]


def _polys(terms: TermSet, rows: np.ndarray) -> list[SymbolicPoly]:
    return [SymbolicPoly(terms, float(row[0]), row[1:]) for row in rows]


def _prune(rows: np.ndarray) -> np.ndarray:
    rows[np.abs(rows) < PRUNE_TOL] = 0.0
    return rows


def _product(
    terms_a: TermSet, a: np.ndarray, terms_b: TermSet, b: np.ndarray
) -> tuple[TermSet, np.ndarray]:
    """Row r of the result is polynomial ``a[r]`` times ``b[r]``, over the
    term set of the summed degrees. A block of columns of ``a`` times all
    of ``b`` is added in at the graded positions of the summed exponents;
    the block holds at most one result row of products, so no temporary
    outgrows two rows of the result.

    For one column the summed exponents are distinct, so each position
    takes at most one product. A block's ``bincount`` starts each position
    from the running row and adds the products column by column, which
    sums them in the order, and to the bits, of one column at a time.
    """
    zero = np.zeros((1, terms_a.width), dtype=np.int64)
    exps_a = np.vstack([zero, exponent_matrix(terms_a, terms_a.width)])
    exps_b = np.vstack([zero, exponent_matrix(terms_b, terms_b.width)])
    terms = _numeric_terms(terms_a.width, terms_a.spec.degree + terms_b.spec.degree)
    out = np.zeros((a.shape[0], len(terms) + 1))
    size = out.shape[1]
    step = max(1, size // len(exps_b))
    for start in range(0, len(exps_a), step):
        block = slice(start, start + step)
        index = graded_position(exps_a[block, None] + exps_b).ravel()
        bins = np.concatenate([np.arange(size), index])
        for row, left, right in zip(out, a[:, block], b):
            row[:] = np.bincount(bins, np.concatenate([row, np.outer(left, right).ravel()]),
                                 minlength=size)
    return terms, _prune(out)


def poly_add(a: SymbolicPoly, b: SymbolicPoly) -> SymbolicPoly:
    if a.terms.width != b.terms.width:
        raise ValueError("operands disagree on the number of variables")
    terms = max(a.terms, b.terms, key=len)
    total = np.zeros((1, len(terms) + 1))
    for row in _row(a), _row(b):
        total[:, : row.shape[1]] += row
    return _polys(terms, _prune(total))[0]


def poly_mul(a: SymbolicPoly, b: SymbolicPoly) -> SymbolicPoly:
    if a.terms.width != b.terms.width:
        raise ValueError("operands disagree on the number of variables")
    terms, rows = _product(a.terms, _row(a), b.terms, _row(b))
    return _polys(terms, rows)[0]


def poly_pow(a: SymbolicPoly, k: int) -> SymbolicPoly:
    if k < 0:
        raise ValueError("exponent must be >= 0")
    out = a if k else SymbolicPoly(a.terms, 1.0, np.zeros(len(a.terms)))
    for _ in range(k - 1):
        out = poly_mul(out, a)
    return out


def extract_layer_polynomials(mlp: MLP) -> list[list[SymbolicPoly]]:
    """Per-layer polynomial vectors for a square/identity network.

    Dropout layers pass through unchanged (they are the identity at
    inference). Raises for any non-polynomial activation, and raises
    :class:`MemoryBudgetError` before a layer would store more than
    ``COEF_BUDGET`` coefficients in total.
    """
    p = mlp.input_width
    terms = _numeric_terms(p, 1)
    rows = np.hstack([np.zeros((p, 1)), np.eye(p)])
    current = _polys(terms, rows)
    per_layer: list[list[SymbolicPoly]] = []
    for layer in mlp.layers:
        if isinstance(layer, DropoutLayer):
            per_layer.append(list(current))
            continue
        if layer.activation not in POLYNOMIAL_ACTIVATIONS:
            raise ValueError(
                f"activation {layer.activation!r} is not polynomial; extraction"
                " supports square and identity only"
            )
        degree = terms.spec.degree * (2 if layer.activation == "square" else 1)
        size = layer.weights.shape[1] * (exact_numeric_term_count(p, degree) + 1)
        if size > COEF_BUDGET:
            raise MemoryBudgetError(
                f"extraction stores {size} coefficients (> budget {COEF_BUDGET})"
            )
        rows = layer.weights.T @ rows
        rows[:, 0] += layer.bias
        rows = _prune(rows)
        if layer.activation == "square":
            terms, rows = _product(terms, rows, terms, rows)
        current = _polys(terms, rows)
        per_layer.append(list(current))
    return per_layer


def extract_polynomial(mlp: MLP) -> list[SymbolicPoly]:
    """The exact polynomial computed by each output unit."""
    return extract_layer_polynomials(mlp)[-1]


def random_polynomial_network(
    n_inputs: int,
    n_layers: int,
    units: int,
    seed: int,
    activation: str = "square",
) -> MLP:
    """Random dense network whose every layer (output included) carries the
    given polynomial activation; weights and biases are uniform on
    +-1/sqrt(fan_in). Generic draws keep the extracted degree maximal."""
    if activation not in POLYNOMIAL_ACTIVATIONS:
        raise ValueError("activation must be 'square' or 'identity'")
    for name, size in (("n_inputs", n_inputs), ("n_layers", n_layers), ("units", units)):
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")
    rng = np.random.default_rng(seed)
    layers = []
    fan_in = n_inputs
    for _ in range(n_layers):
        bound = 1.0 / np.sqrt(fan_in)
        weights = rng.uniform(-bound, bound, size=(fan_in, units))
        bias = rng.uniform(-bound, bound, size=units)
        layers.append(DenseLayer(weights, bias, activation))
        fan_in = units
    return MLP(tuple(layers))


def equivalence_check(
    mlp: MLP, extracted: list[SymbolicPoly], n_points: int = 100, seed: int = 0
) -> float:
    """Max relative deviation between the forward pass and the extracted
    polynomials at random points in [-1, 1]^p; relative means
    |f - g| / max(1, |f|).

    Every polynomial is evaluated from one expansion over the largest term
    set: graded order makes each smaller set a prefix of it, so the
    coefficient vectors line up by zero-padding."""
    if not extracted:
        return 0.0
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(n_points, mlp.input_width))
    net = forward(mlp, pts)[:, : len(extracted)]
    terms = max((poly.terms for poly in extracted), key=len)
    coefs = np.zeros((len(terms), len(extracted)))
    for j, poly in enumerate(extracted):
        coefs[: len(poly.coef), j] = poly.coef
    values = expand(pts, terms) @ coefs + [poly.constant for poly in extracted]
    return float((np.abs(net - values) / np.maximum(1.0, np.abs(net))).max())


def degree_growth_report(layer_polynomials: list[list[SymbolicPoly]]) -> list[int]:
    """Maximum total degree after each layer, in layer order."""
    return [max(p.degree for p in layer) for layer in layer_polynomials]

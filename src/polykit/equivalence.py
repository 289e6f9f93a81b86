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

from .errors import MemoryBudgetError
from .mlp import MLP, DenseLayer, DropoutLayer, forward

#: Coefficients with absolute value below this are pruned after every op.
PRUNE_TOL = 1e-12

#: Default cap on the total number of stored coefficients per layer.
DEFAULT_COEF_BUDGET = 1_000_000


@dataclass(frozen=True)
class SymbolicPoly:
    """Sparse multivariate polynomial: exponent tuple -> coefficient.

    Keys are dense exponent tuples over ``nvars`` input features; the
    all-zero tuple holds the constant term. Near-zero coefficients are
    pruned, so the zero polynomial has an empty map and degree 0.
    """

    nvars: int
    coeffs: dict[tuple[int, ...], float]

    def __post_init__(self):
        for exps in self.coeffs:
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {self.nvars} variables")

    @classmethod
    def constant(cls, value: float, nvars: int) -> "SymbolicPoly":
        return cls(nvars, _pruned({(0,) * nvars: float(value)}))

    @classmethod
    def variable(cls, index: int, nvars: int) -> "SymbolicPoly":
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1.0})

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(exps) for exps in self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def coefficient(self, exps: tuple[int, ...]) -> float:
        return self.coeffs.get(exps, 0.0)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Value at every row of an (n, nvars) matrix."""
        points = np.asarray(points, dtype=np.float64)
        out = np.zeros(points.shape[0])
        for exps, c in self.coeffs.items():
            term = np.full(points.shape[0], c)
            for i, e in enumerate(exps):
                if e:
                    term = term * points[:, i] ** e
            out += term
        return out

    def label(self, names: tuple[str, ...] | None = None) -> str:
        if not self.coeffs:
            return "0"
        def one(exps, c):
            factors = []
            for i, e in enumerate(exps):
                if e:
                    name = names[i] if names else f"x{i}"
                    factors.append(name if e == 1 else f"{name}^{e}")
            head = "*".join(factors)
            return f"{c:.12g}" if not head else f"{c:.12g}*{head}"
        ordered = sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return " + ".join(one(exps, c) for exps, c in ordered)

    def to_text(self) -> str:
        """One monomial per line: coefficient then ``var^exp`` factors."""
        lines = [f"# poly v1 nvars={self.nvars}"]
        ordered = sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        for exps, c in ordered:
            factors = " ".join(f"{i}^{e}" for i, e in enumerate(exps) if e)
            lines.append(f"{c!r} {factors}".rstrip())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SymbolicPoly":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# poly v1"):
            raise ValueError("not a poly container (missing '# poly v1' header)")
        nvars = int(lines[0].split("nvars=")[1])
        coeffs: dict[tuple[int, ...], float] = {}
        for ln in lines[1:]:
            parts = ln.split()
            c = float(parts[0])
            exps = [0] * nvars
            for factor in parts[1:]:
                i, _, e = factor.partition("^")
                exps[int(i)] = int(e)
            coeffs[tuple(exps)] = c
        return cls(nvars, _pruned(coeffs))


def _pruned(coeffs: dict[tuple[int, ...], float]) -> dict[tuple[int, ...], float]:
    return {e: c for e, c in coeffs.items() if abs(c) >= PRUNE_TOL}


def poly_add(a: SymbolicPoly, b: SymbolicPoly) -> SymbolicPoly:
    if a.nvars != b.nvars:
        raise ValueError("operands disagree on the number of variables")
    out = dict(a.coeffs)
    for exps, c in b.coeffs.items():
        out[exps] = out.get(exps, 0.0) + c
    return SymbolicPoly(a.nvars, _pruned(out))


def poly_mul(a: SymbolicPoly, b: SymbolicPoly) -> SymbolicPoly:
    if a.nvars != b.nvars:
        raise ValueError("operands disagree on the number of variables")
    out: dict[tuple[int, ...], float] = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return SymbolicPoly(a.nvars, _pruned(out))


def poly_pow(a: SymbolicPoly, k: int) -> SymbolicPoly:
    if k < 0:
        raise ValueError("exponent must be >= 0")
    out = SymbolicPoly.constant(1.0, a.nvars)
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def _affine_combination(
    polys: list[SymbolicPoly], weights: np.ndarray, bias: float, nvars: int
) -> SymbolicPoly:
    out: dict[tuple[int, ...], float] = {(0,) * nvars: float(bias)}
    for poly, w in zip(polys, weights):
        if w == 0.0:
            continue
        for exps, c in poly.coeffs.items():
            out[exps] = out.get(exps, 0.0) + w * c
    return SymbolicPoly(nvars, _pruned(out))


def extract_layer_polynomials(
    mlp: MLP, *, coef_budget: int = DEFAULT_COEF_BUDGET
) -> list[list[SymbolicPoly]]:
    """Per-layer polynomial vectors for a square/identity network.

    Dropout layers pass through unchanged (they are the identity at
    inference). Raises for any non-polynomial activation, and raises
    :class:`MemoryBudgetError` once a layer stores more than
    ``coef_budget`` coefficients in total.
    """
    p = mlp.input_width
    current = [SymbolicPoly.variable(i, p) for i in range(p)]
    per_layer: list[list[SymbolicPoly]] = []
    for layer in mlp.layers:
        if isinstance(layer, DropoutLayer):
            per_layer.append(list(current))
            continue
        if layer.activation not in ("square", "identity"):
            raise ValueError(
                f"activation {layer.activation!r} is not polynomial; extraction"
                " supports square and identity only"
            )
        nxt = []
        for j in range(layer.weights.shape[1]):
            affine = _affine_combination(current, layer.weights[:, j], layer.bias[j], p)
            nxt.append(poly_mul(affine, affine) if layer.activation == "square" else affine)
        size = sum(len(q) for q in nxt)
        if size > coef_budget:
            raise MemoryBudgetError(
                f"extraction stores {size} coefficients (> budget {coef_budget})"
            )
        current = nxt
        per_layer.append(list(current))
    return per_layer


def extract_polynomial(mlp: MLP, *, coef_budget: int = DEFAULT_COEF_BUDGET) -> list[SymbolicPoly]:
    """The exact polynomial computed by each output unit."""
    return extract_layer_polynomials(mlp, coef_budget=coef_budget)[-1]


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
    if activation not in ("square", "identity"):
        raise ValueError("activation must be 'square' or 'identity'")
    from .mlp import MLPConfig  # local import to keep module load cheap

    rng = np.random.default_rng(seed)
    layers = []
    fan_in = n_inputs
    for _ in range(n_layers):
        bound = 1.0 / np.sqrt(fan_in)
        weights = rng.uniform(-bound, bound, size=(fan_in, units))
        bias = rng.uniform(-bound, bound, size=units)
        layers.append(DenseLayer(weights, bias, activation))
        fan_in = units
    config = MLPConfig(
        layer_widths=(units,) * n_layers,
        activations=(activation,) * (n_layers - 1),
        output_kind="linear",
    )
    return MLP(tuple(layers), config, n_inputs)


def equivalence_check(
    mlp: MLP, extracted: list[SymbolicPoly], n_points: int = 100, seed: int = 0
) -> float:
    """Max relative deviation between the forward pass and the extracted
    polynomials at random points in [-1, 1]^p; relative means
    |f - g| / max(1, |f|)."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(n_points, mlp.input_width))
    net = forward(mlp, pts)
    worst = 0.0
    for j, poly in enumerate(extracted):
        dev = np.abs(net[:, j] - poly.evaluate(pts))
        rel = dev / np.maximum(1.0, np.abs(net[:, j]))
        worst = max(worst, float(rel.max()))
    return worst


def degree_growth_report(layer_polynomials: list[list[SymbolicPoly]]) -> list[int]:
    """Maximum total degree after each layer, in layer order."""
    return [max(p.degree for p in layer) for layer in layer_polynomials]

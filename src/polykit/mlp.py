"""Minimal dense feedforward networks trained by minibatch SGD.

Just enough machinery for layer-output collinearity probes and for
network-to-polynomial extraction: dense layers with relu / tanh / square /
identity activations, optional inverted dropout after hidden layers, a
linear or softmax output, and deterministic seeded training. Not a
general-purpose deep learning stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np
from scipy.linalg.blas import dgemm

from . import blas
from .errors import ModelFormatError, TrainingDiverged

#: Each hidden activation as (elementwise function, its derivative d/dz);
#: softmax, an output only, is the one other kind.
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(z.dtype)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "square": (lambda z: z**2, lambda z: 2.0 * z),
    "identity": (lambda z: z, np.ones_like),
}
HIDDEN_ACTIVATIONS = tuple(ACTIVATIONS)

WEIGHTS_HEADER = "polykit-mlp 2"
WEIGHTS_V1_HEADER = "polykit-mlp 1"  # no layer count; still loads


def apply_activation(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    if kind not in ACTIVATIONS:
        raise ValueError(f"unknown activation {kind!r}")
    return ACTIVATIONS[kind][0](z)


def activation_grad(kind: str, z: np.ndarray) -> np.ndarray:
    """d activation / d z, elementwise (not defined for softmax)."""
    if kind not in ACTIVATIONS:
        raise ValueError(f"no elementwise gradient for activation {kind!r}")
    return ACTIVATIONS[kind][1](z)


@dataclass(frozen=True)
class MLPConfig:
    """Architecture plus training hyperparameters.

    ``layer_widths`` lists every dense layer including the output;
    ``activations`` and ``dropout_rates`` describe the hidden layers only
    (empty tuples normalize to all-relu and all-zero). A dropout layer is
    materialized after hidden layer i iff its rate is positive.
    """

    layer_widths: tuple[int, ...]
    activations: tuple[str, ...] = ()
    dropout_rates: tuple[float, ...] = ()
    output_kind: str = "linear"
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        if len(widths) < 1 or any(w < 1 for w in widths):
            raise ValueError("layer widths must be positive integers")
        object.__setattr__(self, "layer_widths", widths)
        n_hidden = len(widths) - 1
        acts = tuple(self.activations) or ("relu",) * n_hidden
        drops = tuple(float(r) for r in self.dropout_rates) or (0.0,) * n_hidden
        if len(acts) != n_hidden or len(drops) != n_hidden:
            raise ValueError("activations and dropout_rates must cover each hidden layer")
        if any(a not in HIDDEN_ACTIVATIONS for a in acts):
            raise ValueError(f"hidden activations must be one of {HIDDEN_ACTIVATIONS}")
        if any(not 0.0 <= r < 1.0 for r in drops):
            raise ValueError("dropout rates must lie in [0, 1)")
        if self.output_kind not in ("linear", "softmax"):
            raise ValueError("output_kind must be 'linear' or 'softmax'")
        for name, low in (("epochs", 0), ("batch_size", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        rate = self.learning_rate
        if isinstance(rate, bool) or not isinstance(rate, Real) or not 0.0 < rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {rate!r}")
        object.__setattr__(self, "activations", acts)
        object.__setattr__(self, "dropout_rates", drops)


@dataclass
class DenseLayer:
    weights: np.ndarray  # (fan_in, width)
    bias: np.ndarray  # (width,)
    activation: str


@dataclass
class DropoutLayer:
    rate: float


@dataclass
class MLP:
    """Dense and dropout layers in order; the last dense layer is the output."""

    layers: tuple

    @property
    def input_width(self) -> int:
        return next(l for l in self.layers if isinstance(l, DenseLayer)).weights.shape[0]


def build_mlp(input_width: int, config: MLPConfig) -> MLP:
    """Seeded initialization: weights uniform on +-1/sqrt(fan_in), zero bias."""
    if input_width < 1:
        raise ValueError("input width must be >= 1")
    rng = np.random.default_rng(config.seed)
    layers: list = []
    fan_in = input_width
    n_dense = len(config.layer_widths)
    for i, width in enumerate(config.layer_widths):
        is_output = i == n_dense - 1
        act = (
            ("identity" if config.output_kind == "linear" else "softmax")
            if is_output
            else config.activations[i]
        )
        bound = 1.0 / np.sqrt(fan_in)
        weights = rng.uniform(-bound, bound, size=(fan_in, width))
        layers.append(DenseLayer(weights, np.zeros(width), act))
        if not is_output and config.dropout_rates[i] > 0.0:
            layers.append(DropoutLayer(config.dropout_rates[i]))
        fan_in = width
    return MLP(tuple(layers))


def apply_layer(layer, X: np.ndarray) -> np.ndarray:
    """Inference-mode application of one layer (dropout is the identity)."""
    if isinstance(layer, DropoutLayer):
        return X
    return apply_activation(layer.activation, blas.matmul(X, layer.weights) + layer.bias)


def forward(mlp: MLP, X: np.ndarray) -> np.ndarray:
    """Inference-mode outputs for every row of X."""
    return layer_activations(mlp, X, len(mlp.layers) - 1)


def layer_activations(mlp: MLP, X: np.ndarray, layer_index: int) -> np.ndarray:
    """Post-activation outputs of the given layer (0-based), inference mode."""
    if not 0 <= layer_index < len(mlp.layers):
        raise IndexError(f"layer index {layer_index} out of range")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != mlp.input_width:
        raise ValueError(f"input width must be {mlp.input_width}")
    out = X
    for layer in mlp.layers[: layer_index + 1]:
        out = apply_layer(layer, out)
    return out


def layer_labels(mlp: MLP) -> list[str]:
    """Keras-style labels: dense_1, dropout_1, dense_2, ..."""
    labels = []
    counts = {"dense": 0, "dropout": 0}
    for layer in mlp.layers:
        kind = "dropout" if isinstance(layer, DropoutLayer) else "dense"
        counts[kind] += 1
        labels.append(f"{kind}_{counts[kind]}")
    return labels


def _loss_and_grads(mlp: MLP, X: np.ndarray, Y: np.ndarray, rng=None):
    """One forward pass, then the backward pass, lazily.

    With a training ``rng`` each dropout layer draws its inverted-dropout
    mask from it where the mask is applied; without one, dropout is the
    identity (inference mode). Returns ``(loss, steps)``: ``steps`` yields
    ``(layer, layer_input, delta)`` for each dense layer from the output
    down, where ``delta`` is the loss gradient at the layer's
    pre-activation. Each yield comes after the next layer's ``delta`` has
    been formed from this layer's weights, so the consumer may update
    them in place.
    """
    n = X.shape[0]
    caches = []  # (layer, layer_input, pre_activation) for dense; (layer, mask) for dropout
    out = X
    for layer in mlp.layers:
        if isinstance(layer, DropoutLayer):
            mask = None
            if rng is not None:
                mask = (rng.random(size=out.shape) >= layer.rate) / (1.0 - layer.rate)
                out = out * mask
            caches.append((layer, mask, None))
            continue
        z = blas.matmul(out, layer.weights) + layer.bias
        caches.append((layer, out, z))
        out = apply_activation(layer.activation, z)

    output_layer = mlp.layers[-1]
    if output_layer.activation == "softmax":
        probs = np.clip(out, 1e-300, None)
        loss = float(-np.sum(Y * np.log(probs)) / n)
    else:
        loss = float(0.5 * np.sum((out - Y) ** 2) / n)

    def steps():
        # for both squared error + identity and cross-entropy + softmax the
        # gradient at the output pre-activation is (prediction - target) / n
        delta = (out - Y) / n
        below = sum(isinstance(layer, DenseLayer) for layer in mlp.layers)
        for layer, cached_in, z in reversed(caches):
            if isinstance(layer, DropoutLayer):
                if cached_in is not None:
                    delta *= cached_in
                continue
            if layer is not output_layer:
                delta *= activation_grad(layer.activation, z)
            below -= 1
            # no dense layer below reads the input gradient of the first
            following = blas.matmul(delta, layer.weights.T) if below else None
            yield layer, cached_in, delta
            delta = following

    return loss, steps()


def loss_and_gradients(mlp: MLP, X: np.ndarray, Y: np.ndarray):
    """Loss and analytic parameter gradients with dropout disabled.

    Returns ``(loss, [(dW, db) per dense layer])``; useful for checking
    the backward pass against finite differences.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    loss, steps = _loss_and_grads(mlp, X, Y)
    grads = [(cached_in.T @ delta, delta.sum(axis=0)) for _, cached_in, delta in steps]
    grads.reverse()
    return loss, grads


def train_mlp(design: np.ndarray, targets: np.ndarray, config: MLPConfig) -> MLP:
    """Minibatch SGD on squared error (linear output) or cross-entropy
    (softmax output, one-hot targets). Dropout is applied only while
    training, with inverted scaling, so inference needs no correction.

    Every minibatch runs its products on SciPy's OpenBLAS at its default
    thread count: the forward and backward products through
    :func:`blas.matmul`, and each weight update as one ``dgemm`` that
    writes ``W - lr * input' delta`` into the weights in place.
    """
    X = np.asarray(design, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.shape[0] != Y.shape[0]:
        raise ValueError("design and targets disagree on the number of rows")
    if Y.shape[1] != config.layer_widths[-1]:
        raise ValueError("target width must match the output layer width")

    mlp = build_mlp(X.shape[1], config)
    # each weight update is one dgemm that writes W - lr * input' delta into
    # the Fortran view W.T; on any other layout than C-ordered float64 it
    # would update a copy and leave the weights as they were
    for layer in mlp.layers:
        if isinstance(layer, DenseLayer):
            layer.weights = np.ascontiguousarray(layer.weights, dtype=np.float64)
    lr = config.learning_rate
    rng = np.random.default_rng([config.seed, 1])
    n = X.shape[0]
    # transient overflow shows up as a non-finite loss and is reported
    # through TrainingDiverged rather than as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            perm = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = perm[start : start + config.batch_size]
                loss, steps = _loss_and_grads(mlp, X[idx], Y[idx], rng)
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, batch offset {start};"
                        f" try a smaller learning rate than {config.learning_rate}"
                    )
                for layer, cached_in, delta in steps:
                    dgemm(-lr, delta.T, cached_in.T, beta=1.0, c=layer.weights.T,
                          trans_b=1, overwrite_c=1)
                    db = delta.sum(axis=0)
                    db *= lr
                    layer.bias -= db
    return mlp


def one_hot(labels: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Encode labels as one-hot rows; returns (matrix, sorted classes)."""
    labels = np.asarray(labels)
    classes = np.unique(labels)
    Y = (labels[:, None] == classes[None, :]).astype(np.float64)
    return Y, tuple(classes.tolist())


def save_weights(mlp: MLP, path) -> None:
    """Write the network as a plain-text container (shapes + row-major values)."""
    output = [l for l in mlp.layers if isinstance(l, DenseLayer)][-1]
    output_kind = "softmax" if output.activation == "softmax" else "linear"
    lines = [WEIGHTS_HEADER, f"input_width {mlp.input_width}",
             f"output_kind {output_kind}", f"layers {len(mlp.layers)}"]
    for layer in mlp.layers:
        if isinstance(layer, DropoutLayer):
            lines.append(f"dropout {layer.rate!r}")
            continue
        fan_in, width = layer.weights.shape
        lines.append(f"dense {fan_in} {width} {layer.activation}")
        lines.append(" ".join(repr(float(v)) for v in layer.weights.ravel()))
        lines.append(" ".join(repr(float(v)) for v in layer.bias))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_weights(path) -> MLP:
    """Rebuild a network from :func:`save_weights` output."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"cannot read weights file {path}: {exc}") from exc
    if not lines or lines[0] not in (WEIGHTS_HEADER, WEIGHTS_V1_HEADER):
        raise ModelFormatError(f"{path}: not a {WEIGHTS_HEADER!r} container")
    counted = lines[0] == WEIGHTS_HEADER
    try:
        input_width = int(lines[1].split()[1])
        output_kind = lines[2].split()[1]
        n_layers = int(lines[3].removeprefix("layers ")) if counted else None
        layers: list = []
        i = 4 if counted else 3
        while i < len(lines):
            parts = lines[i].split()
            if parts[0] == "dropout":
                layers.append(DropoutLayer(float(parts[1])))
                i += 1
                continue
            if parts[0] != "dense":
                raise ModelFormatError(f"{path}: unexpected line {lines[i]!r}")
            fan_in, width, act = int(parts[1]), int(parts[2]), parts[3]
            weights = np.array(lines[i + 1].split(), dtype=np.float64).reshape(fan_in, width)
            bias = np.array(lines[i + 2].split(), dtype=np.float64)
            layers.append(DenseLayer(weights, bias, act))
            i += 3
    except (IndexError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed weights container: {exc}") from exc
    if counted and len(layers) != n_layers:
        raise ModelFormatError(f"{path}: {len(layers)} layers, header says {n_layers}")

    dense = [l for l in layers if isinstance(l, DenseLayer)]
    width = input_width
    for layer in dense:
        if layer.weights.shape[0] != width or layer.bias.shape != layer.weights.shape[1:]:
            raise ModelFormatError(f"{path}: layer shapes do not chain from input width {width}")
        width = layer.weights.shape[1]
    outputs = {"linear": HIDDEN_ACTIVATIONS, "softmax": ("softmax",)}.get(output_kind, ())
    if not dense or dense[-1].activation not in outputs:
        raise ModelFormatError(f"{path}: no dense output layer fits output_kind {output_kind!r}")
    if any(l.activation not in HIDDEN_ACTIVATIONS for l in dense[:-1]):
        raise ModelFormatError(f"{path}: hidden activations must be one of {HIDDEN_ACTIVATIONS}")
    if any(not 0.0 <= l.rate < 1.0 for l in layers if isinstance(l, DropoutLayer)):
        raise ModelFormatError(f"{path}: dropout rates must lie in [0, 1)")
    return MLP(tuple(layers))

"""Minimal dense feed-forward network with hand-rolled backprop and SGD.

ReLU on hidden layers, identity on the output layer, double precision
throughout. The masked mean-squared-error loss restricts the regression to
selected output elements (in DQN training, the taken action's Q-value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = "quantrl-mlp-v1"


@dataclass
class Mlp:
    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]  # per layer, shape (fan_in, fan_out)
    biases: list[np.ndarray]  # per layer, shape (fan_out,)


@dataclass
class GradientSet:
    """Partial derivatives, shape-congruent with an Mlp's parameters."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_mlp(layer_sizes, seed: int | np.random.Generator = 0) -> Mlp:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ValueError("need at least an input and an output layer")
    if any(s < 1 for s in sizes):
        raise ValueError("all layer sizes must be >= 1")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(sizes, weights, biases)


def _forward_full(net: Mlp, inputs: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Return pre-activations and activations per layer (batch input)."""
    zs, activations = [], [inputs]
    a = inputs
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        zs.append(z)
        a = np.maximum(z, 0.0) if i < last else z
        activations.append(a)
    return zs, activations


def forward(net: Mlp, inputs: np.ndarray) -> np.ndarray:
    """Evaluate the network on one vector or a batch of row vectors."""
    x = np.asarray(inputs, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.layer_sizes[0]:
        raise ValueError(
            f"input width {x.shape[-1] if x.ndim else 0} does not match "
            f"first layer size {net.layer_sizes[0]}"
        )
    _, activations = _forward_full(net, x)
    out = activations[-1]
    return out[0] if single else out


def _as_batch(arr: np.ndarray) -> np.ndarray:
    a = np.asarray(arr, dtype=float)
    return a[None, :] if a.ndim == 1 else a


def _selection(mask: np.ndarray | None, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """The elements a mask selects (all, if None) as booleans, and their count."""
    if mask is None:
        selected = np.ones(shape, dtype=bool)
    else:
        selected = _as_batch(mask).astype(bool)
        if selected.shape != shape:
            raise ValueError(f"mask shape {selected.shape} does not match {shape}")
    count = int(selected.sum())
    if count == 0:
        raise ValueError("empty selection: mask selects no elements")
    return selected, count


def mse_loss(predicted: np.ndarray, target: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Mean squared difference over selected elements (all, if mask is None)."""
    pred = _as_batch(predicted)
    tgt = _as_batch(target)
    if pred.shape != tgt.shape:
        raise ValueError(f"shape mismatch: predicted {pred.shape} vs target {tgt.shape}")
    selected, count = _selection(mask, pred.shape)
    diff = np.where(selected, pred - tgt, 0.0)
    return float((diff * diff).sum() / count)


def backward(
    net: Mlp,
    inputs: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple[float, GradientSet]:
    """Loss and exact parameter gradients of the masked MSE."""
    x = _as_batch(inputs)
    tgt = _as_batch(targets)
    if x.shape[1] != net.layer_sizes[0]:
        raise ValueError("input width does not match first layer size")
    if tgt.shape != (x.shape[0], net.layer_sizes[-1]):
        raise ValueError("target shape does not match batch and output size")
    selected, count = _selection(mask, tgt.shape)
    zs, activations = _forward_full(net, x)
    residual = np.where(selected, activations[-1] - tgt, 0.0)
    return _backprop(net, zs, activations, residual, count)


def _column_backward(
    net: Mlp, inputs: np.ndarray, columns: np.ndarray, targets: np.ndarray
) -> tuple[float, GradientSet]:
    """`backward` with a mask that selects output column columns[i] of row i.

    The residual is scattered straight into zeros, so loss and gradients are
    bit-identical to the masked call without building a target matrix or mask.
    """
    zs, activations = _forward_full(net, inputs)
    rows = np.arange(len(columns))
    residual = np.zeros_like(activations[-1])
    residual[rows, columns] = activations[-1][rows, columns] - targets
    return _backprop(net, zs, activations, residual, len(columns))


def _backprop(
    net: Mlp,
    zs: list[np.ndarray],
    activations: list[np.ndarray],
    residual: np.ndarray,
    count: int,
) -> tuple[float, GradientSet]:
    """Loss and gradients of sum(residual**2) / count, given a forward pass."""
    loss = float((residual * residual).sum() / count)
    d_weights = [np.empty(0)] * len(net.weights)
    d_biases = [np.empty(0)] * len(net.biases)
    delta = 2.0 * residual / count
    for layer in range(len(net.weights) - 1, -1, -1):
        d_weights[layer] = activations[layer].T @ delta
        d_biases[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * (zs[layer - 1] > 0)
    return loss, GradientSet(d_weights, d_biases)


def _check_congruent(net: Mlp, grads: GradientSet) -> None:
    if len(grads.weights) != len(net.weights) or len(grads.biases) != len(net.biases):
        raise ValueError("gradient set does not match network layer count")
    for w, dw in zip(net.weights, grads.weights):
        if w.shape != dw.shape:
            raise ValueError(f"weight gradient shape {dw.shape} does not match {w.shape}")
    for b, db in zip(net.biases, grads.biases):
        if b.shape != db.shape:
            raise ValueError(f"bias gradient shape {db.shape} does not match {b.shape}")


def sgd_step(net: Mlp, grads: GradientSet, lr: float) -> Mlp:
    """In-place update: parameter <- parameter - lr * gradient."""
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    _check_congruent(net, grads)
    for w, dw in zip(net.weights, grads.weights):
        w -= lr * dw
    for b, db in zip(net.biases, grads.biases):
        b -= lr * db
    return net


def clone_parameters(net: Mlp) -> Mlp:
    """Deep, independent copy; mutating one side never affects the other."""
    return Mlp(
        net.layer_sizes,
        [w.copy() for w in net.weights],
        [b.copy() for b in net.biases],
    )


def save_checkpoint(net: Mlp, path: str | Path) -> None:
    """Text checkpoint: versioned header, layer sizes, row-major parameters.

    Values are written with shortest round-trip float repr, so a reload is
    bit-exact.
    """
    lines = [CHECKPOINT_MAGIC, " ".join(str(s) for s in net.layer_sizes)]
    for w, b in zip(net.weights, net.biases):
        lines.extend(repr(float(v)) for v in w.ravel(order="C"))
        lines.extend(repr(float(v)) for v in b)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_checkpoint(path: str | Path) -> Mlp:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if len(lines) < 2 or lines[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
    try:
        sizes = tuple(int(tok) for tok in lines[1].split())
        values = [float(tok) for tok in lines[2:] if tok]
    except ValueError as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc}") from None
    if len(sizes) < 2:
        raise ValueError(f"{path}: checkpoint needs at least two layer sizes")
    expected = sum(i * o + o for i, o in zip(sizes, sizes[1:]))
    if len(values) != expected:
        raise ValueError(f"{path}: expected {expected} parameters, found {len(values)}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path}: checkpoint holds non-finite parameters")
    weights, biases = [], []
    cursor = 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = np.array(values[cursor : cursor + fan_in * fan_out]).reshape(fan_in, fan_out)
        cursor += fan_in * fan_out
        b = np.array(values[cursor : cursor + fan_out])
        cursor += fan_out
        weights.append(w)
        biases.append(b)
    return Mlp(sizes, weights, biases)

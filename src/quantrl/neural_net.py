"""Minimal dense feed-forward network with hand-rolled backprop and SGD.

ReLU on hidden layers, identity on the output layer, double precision
throughout. The masked mean-squared-error loss restricts the regression to
selected output elements (in DQN training, the taken action's Q-value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

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
    for s in layer_sizes:
        if isinstance(s, bool) or not float(s).is_integer() or s < 1:
            raise ValueError(f"layer sizes must be integers >= 1; got {s!r}")
    sizes = tuple(map(int, layer_sizes))
    if len(sizes) < 2:
        raise ValueError("need at least an input and an output layer")
    rng = np.random.default_rng(seed)
    net = _views(sizes, np.zeros(_parameter_count(sizes)))
    for w in net.weights:
        limit = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return net


def _parameter_count(sizes: tuple[int, ...]) -> int:
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))


def _views(sizes: tuple[int, ...], flat: np.ndarray) -> Mlp:
    """An Mlp whose parameters are views into the last axis of `flat`.

    The one declaration of the parameter layout, which is the checkpoint's:
    per layer, the row-major weights, then the biases. Leading axes of `flat`
    lead every view, and there a bias keeps a unit row axis, so it broadcasts
    over a stacked batch.
    """
    lead = flat.shape[:-1]
    weights, biases = [], []
    cursor = 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(flat[..., cursor : cursor + fan_in * fan_out].reshape(*lead, fan_in, fan_out))
        cursor += fan_in * fan_out
        bias = flat[..., cursor : cursor + fan_out]
        biases.append(bias.reshape(*lead, 1, fan_out) if lead else bias)
        cursor += fan_out
    return Mlp(sizes, weights, biases)


def _flat(net: Mlp) -> np.ndarray:
    """A new vector of any Mlp's parameters in the `_views` layout."""
    return np.concatenate([a.ravel() for layer in zip(net.weights, net.biases) for a in layer])


class _ParameterBlock:
    """Networks of one layout as the rows of one (rows, n_params) block, with one update's arrays.

    `stacked` views every row at once: weights (rows, fan_in, fan_out) and
    biases (rows, 1, fan_out), so `_forward(block.stacked, x)` over a
    (rows, batch, width) input runs row r's network on x[r]. numpy computes
    each slice of a stacked product as the 2-D product alone, so row r's
    result has the bits of `forward(nets[r], x[r])` (a property test checks
    this on the machine it runs on). `nets[r]` is row r's Mlp view; `grad`
    is a flat buffer that `grads` views in the same layout.

    The other arrays are what an SGD step of row 0 on `batch` inputs writes,
    reused: `activations[i]` is layer i's (rows, batch, width) output,
    `online` its row 0; `deltas[i]` and `masks[i]` are that layer's error
    and ReLU mask. The operands of row 0's backprop are bound here too, so a
    DQN update of row 0 with two hidden layers makes 32 numpy calls into
    these arrays and allocates no array.
    """

    def __init__(self, nets: Sequence[Mlp], batch: int) -> None:
        sizes = nets[0].layer_sizes
        self.params = np.empty((len(nets), _parameter_count(sizes)))
        self.row = self.params[0]
        self.stacked = _views(sizes, self.params)
        self.nets = [_views(sizes, row) for row in self.params]
        for view, net in zip(self.nets, nets):
            _copy_parameters(net, view)
        self.grad = np.empty(self.params.shape[1])
        views = _views(sizes, self.grad)
        self.grads = GradientSet(views.weights, views.biases)
        self.activations = [np.empty((len(nets), batch, n)) for n in sizes[1:]]
        self.online = [a[0] for a in self.activations]
        self.q_next = self.activations[-1][-1]  # the last row's outputs: a DQN's target net
        self.targets = np.empty(batch)
        self.column = self.targets[:, None]
        self.residual = np.empty((batch, sizes[-1]))
        self.deltas = [np.empty((batch, n)) for n in sizes[1:]]
        self.masks = [np.empty((batch, n), dtype=bool) for n in sizes[1:-1]]
        self.step = np.empty_like(self.grad)
        # Row 0's backprop operands, transposed, and its products: a weight
        # gradient sums `batch` terms, a passed-back error the layer's width.
        self.hidden_t = [a.T for a in self.online[:-1]]
        self.weights_t = [w.T for w in self.nets[0].weights]
        self.gradient_product = _product(batch)
        self.delta_products = [_product(n) for n in sizes[1:]]


def _product(terms: int):
    """np.dot for a 2-D or vector-matrix product whose sums have `terms` > 1 terms, else np.matmul.

    On contiguous operands and their transposes both then make one BLAS call,
    and np.dot skips matmul's gufunc dispatch (a property test checks the
    bytes). With one term matmul adds each product to +0.0 where np.dot may
    keep -0.0 or skip 0 * inf, and np.dot copies other views matmul reads.
    """
    return np.dot if terms > 1 else np.matmul


def _copy_parameters(source: Mlp, dest: Mlp) -> Mlp:
    """Overwrite dest's parameters with source's; both must share a layout."""
    if source.layer_sizes != dest.layer_sizes:
        raise ValueError(f"layer sizes {source.layer_sizes} do not match {dest.layer_sizes}")
    for src, dst in zip((*source.weights, *source.biases), (*dest.weights, *dest.biases)):
        dst[...] = src
    return dest


# A 0-d zero: ufuncs take it as it is, where a Python 0.0 is converted per call.
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


def _forward(net: Mlp, inputs: np.ndarray, out=None) -> np.ndarray:
    """The network's output on one vector, a batch of rows or, for a stacked view, a stack of batches.

    Layer i's output goes to `out[i]` if given, else to a new array. ReLU is
    taken in place: backprop reads `a > 0`, true exactly where `z > 0` is.
    """
    a = inputs
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        product = _product(len(w)) if a.ndim == 1 else np.matmul
        a = product(a, w, out=None if out is None else out[i])
        np.add(a, b, out=a)
        if i < last:
            np.maximum(a, _ZERO, out=a)
    return a


def _check_width(net: Mlp, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != net.layer_sizes[0]:
        raise ValueError(
            f"input width {x.shape[-1] if x.ndim else 0} does not match "
            f"first layer size {net.layer_sizes[0]}"
        )


def forward(net: Mlp, inputs: np.ndarray) -> np.ndarray:
    """Evaluate the network on one vector or a batch of row vectors."""
    x = np.asarray(inputs, dtype=float)
    if x.ndim == 1 and x.flags.c_contiguous and len(x) == net.layer_sizes[0]:
        return _forward(net, x)  # np.dot's operands: see _product
    batch = _as_batch(x)
    _check_width(net, batch)
    out = _forward(net, batch)
    return out[0] if x.ndim == 1 else out


# Rows per stacked product in _row_forward; bounds its temporaries' memory.
_ROW_BLOCK = 1024


def _row_forward(net: Mlp, inputs: np.ndarray) -> np.ndarray:
    """`forward` of each row of a matrix, stacked: row i is forward(net, inputs[i]).

    A 2-D batch product may sum in another order than a single row's, so its
    rows can differ from per-row `forward` in the last bits. Here each layer
    is a stacked (n, 1, d) @ (d, k) product, which numpy evaluates as n
    separate 1 x d products, the product `forward` computes for one vector.
    """
    x = np.asarray(inputs, dtype=float)
    _check_width(net, x)
    out = np.empty((len(x), net.layer_sizes[-1]))
    for start in range(0, len(x), _ROW_BLOCK):
        rows = x[start : start + _ROW_BLOCK, None, :]
        out[start : start + _ROW_BLOCK] = _forward(net, rows)[:, 0]
    return out


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
    _check_width(net, x)
    if tgt.shape != (x.shape[0], net.layer_sizes[-1]):
        raise ValueError("target shape does not match batch and output size")
    selected, count = _selection(mask, tgt.shape)
    block = _ParameterBlock((net,), len(x))
    if not x.flags.c_contiguous:  # np.dot's operands: see _product
        block.gradient_product = np.matmul
    residual = np.where(selected, _forward(block.nets[0], x, block.online) - tgt, 0.0)
    return _backprop(block, x, residual, count), block.grads


def _backprop(block: _ParameterBlock, inputs: np.ndarray, residual: np.ndarray, count: int) -> float:
    """Loss of sum(residual**2) / count for block row 0, given its forward pass on `inputs`.

    The forward pass is in `block.online`. The gradients go to `block.grads`,
    each layer's error and ReLU mask to `block.deltas` and `block.masks`.
    """
    deltas, grads = block.deltas, block.grads
    transposed = (inputs.T, *block.hidden_t)
    squares = np.multiply(residual, residual, out=deltas[-1])
    loss = float(np.add.reduce(squares, axis=None)) / count
    delta = np.add(residual, residual, out=deltas[-1])  # 2 * residual, exactly
    np.divide(delta, count, out=delta)
    for layer in range(len(deltas) - 1, -1, -1):
        block.gradient_product(transposed[layer], delta, out=grads.weights[layer])
        np.add.reduce(delta, axis=0, out=grads.biases[layer])
        if layer > 0:
            active = np.greater(block.online[layer - 1], _ZERO, out=block.masks[layer - 1])
            delta = block.delta_products[layer](delta, block.weights_t[layer], out=deltas[layer - 1])
            np.multiply(delta, active, out=delta)
    return loss


def sgd_step(net: Mlp, grads: GradientSet, lr: float) -> Mlp:
    """In-place update: parameter <- parameter - lr * gradient."""
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    shapes = [[a.shape for a in arrays]
              for arrays in (net.weights, net.biases, grads.weights, grads.biases)]
    if shapes[2:] != shapes[:2]:
        raise ValueError(f"gradient shapes {shapes[2:]} do not match parameter shapes {shapes[:2]}")
    for p, g in zip((*net.weights, *net.biases), (*grads.weights, *grads.biases)):
        p -= lr * g
    return net


def clone_parameters(net: Mlp) -> Mlp:
    """Deep, independent copy; mutating one side never affects the other."""
    return _views(net.layer_sizes, _flat(net))


def save_checkpoint(net: Mlp, path: str | Path) -> None:
    """Text checkpoint: versioned header, layer sizes, row-major parameters.

    Values are written with shortest round-trip float repr, so a reload is
    bit-exact.
    """
    lines = [CHECKPOINT_MAGIC, " ".join(str(s) for s in net.layer_sizes)]
    lines.extend(map(repr, _flat(net).tolist()))
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
    if any(s < 1 for s in sizes):
        raise ValueError(f"{path}: all layer sizes must be >= 1")
    expected = _parameter_count(sizes)
    if len(values) != expected:
        raise ValueError(f"{path}: expected {expected} parameters, found {len(values)}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path}: checkpoint holds non-finite parameters")
    return _views(sizes, np.array(values))

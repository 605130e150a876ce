"""Maps between representations: closed-form least squares and a small MLP.

Every mapping is an ``MlpMap``: a stack of affine layers with tanh between
hidden layers and an affine output.

* ``fit_linear_map`` — least-squares map between code spaces.
* ``fit_direct_map`` — least-squares map straight from image pixels to
  shape coordinates, bypassing the code spaces.
* ``mlp_train`` — feedforward network with tanh hidden layers, trained by
  mini-batch SGD on mean squared error (same minimizers as the reported
  root-mean-square metric, but with a well-conditioned gradient near zero
  error).

The two closed-form fits return a single-layer network with zero bias and
activation ``linear``, which is also the form they are stored in.

``mlp_train``'s SGD loop, with its divergence checks, is the only training
loop in the package: ``subspace.train_linear_autoencoder`` runs it full
batch on a ``(dim, k, dim)`` linear network.

``save_map``/``load_map`` store a network in the ``.map`` file, the shared
``_fileio`` container with header {activation, format_version,
layer_sizes} and, per layer, the row-major weights then the biases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._fileio import header_int, read_container, write_container
from .errors import InvalidInputError, NumericalFailureError
from .linalg import _as_matrix, least_squares

MAP_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainSchedule:
    """Phased SGD schedule: ((rate, epochs), ...) plus batch size and seed."""

    learning_rate_phases: tuple = ((1e-3, 1000), (1e-5, 1000))
    batch_size: int = 40
    seed: int = 0

    def __post_init__(self):
        phases = tuple((float(r), int(e)) for r, e in self.learning_rate_phases)
        object.__setattr__(self, "learning_rate_phases", phases)
        for rate, epochs in phases:
            if rate <= 0.0:
                raise InvalidInputError(f"learning rate {rate} must be positive")
            if epochs < 0:
                raise InvalidInputError(f"epoch count {epochs} must be >= 0")
        if self.batch_size < 1:
            raise InvalidInputError(f"batch_size {self.batch_size} must be >= 1")


@dataclass
class MlpMap:
    """Feedforward net: weights[l] is (sizes[l+1], sizes[l]).

    ``activation`` ("tanh" or "linear") applies to hidden layers only; the
    output layer is always affine, so a two-size network is a plain affine
    map.
    """

    layer_sizes: tuple
    weights: list
    biases: list
    activation: str = "tanh"

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        _check_layer_sizes(self.layer_sizes)
        if self.activation not in ("tanh", "linear"):
            raise InvalidInputError(f"unknown activation {self.activation!r}")
        expect = len(self.layer_sizes) - 1
        if len(self.weights) != expect or len(self.biases) != expect:
            raise InvalidInputError(
                f"{expect} layers need {expect} weight/bias pairs, "
                f"got {len(self.weights)}/{len(self.biases)}"
            )
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            out_d, in_d = self.layer_sizes[l + 1], self.layer_sizes[l]
            if w.shape != (out_d, in_d) or b.shape != (out_d,):
                raise InvalidInputError(
                    f"layer {l}: weight {w.shape} / bias {b.shape} do not match "
                    f"sizes {in_d} -> {out_d}"
                )
            self.weights[l] = w
            self.biases[l] = b


def _check_layer_sizes(sizes: tuple):
    if len(sizes) < 2:
        raise InvalidInputError("an MLP needs at least input and output sizes")
    if min(sizes) < 1:
        raise InvalidInputError(f"layer sizes must be >= 1, got {list(sizes)}")


class MlpGradients(NamedTuple):
    weights: list
    biases: list
    loss: float


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def _single_layer(w: np.ndarray) -> MlpMap:
    # Wraps w without copying it; a direct map's w can be 27000 x 1024.
    out_d, in_d = w.shape
    return MlpMap((in_d, out_d), [w], [np.zeros(out_d)], activation="linear")


def fit_linear_map(y, b) -> MlpMap:
    """Least-squares map from code matrix y (k x n) to code matrix b (k' x n)."""
    return _single_layer(least_squares(y, b))


def fit_direct_map(x, z) -> MlpMap:
    """Least-squares map from raw image matrix x (D x n) to shapes z (p x n)."""
    return _single_layer(least_squares(x, z))


def _batched(x, first_dim: int, name: str):
    arr = np.asarray(x, dtype=np.float64)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != first_dim:
        raise InvalidInputError(
            f"{name} has leading dimension {arr.shape[0]}, expected {first_dim}"
        )
    return arr, squeeze


def mlp_forward(m: MlpMap, code) -> np.ndarray:
    """Forward pass; accepts a vector or a (dim, batch) matrix of columns."""
    h, squeeze = _batched(code, m.layer_sizes[0], "input")
    last = len(m.weights) - 1
    for l, (w, b) in enumerate(zip(m.weights, m.biases)):
        h = w @ h
        h += b[:, None]  # in place: no second output-sized temporary
        if l < last and m.activation == "tanh":
            h = np.tanh(h)
    return h[:, 0] if squeeze else h


def mlp_gradients(m: MlpMap, batch_in, batch_target) -> MlpGradients:
    """Analytic gradients of the batch MSE ``mean_i ||f(x_i) - t_i||^2``."""
    x, _ = _batched(batch_in, m.layer_sizes[0], "batch_in")
    t, _ = _batched(batch_target, m.layer_sizes[-1], "batch_target")
    if x.shape[1] != t.shape[1]:
        raise InvalidInputError(
            f"batch sizes differ: {x.shape[1]} inputs vs {t.shape[1]} targets"
        )
    nb = x.shape[1]
    last = len(m.weights) - 1
    # Every operation below is done in place on an array this call created,
    # in the same order as its out-of-place form, so the results are
    # bit-identical to it; acts[0] is the caller's input and is only read.
    acts = [x]
    h = x
    for l, (w, b) in enumerate(zip(m.weights, m.biases)):
        h = w @ h
        h += b[:, None]
        if l < last and m.activation == "tanh":
            np.tanh(h, out=h)
        acts.append(h)
    err = acts[-1]  # the output is not needed after this point
    err -= t
    loss = float((err * err).sum() / nb)
    delta = err
    delta *= 2.0
    delta /= nb
    grad_w = [None] * len(m.weights)
    grad_b = [None] * len(m.biases)
    for l in range(last, -1, -1):
        grad_w[l] = delta @ acts[l].T
        grad_b[l] = delta.sum(axis=1)
        if l > 0:
            delta = m.weights[l].T @ delta
            if m.activation == "tanh":
                a = acts[l]  # last use of this activation: becomes 1 - a^2
                a *= a
                np.subtract(1.0, a, out=a)
                delta *= a
    return MlpGradients(grad_w, grad_b, loss)


@dataclass
class MlpTrainResult:
    """The trained network and one loss per epoch.

    ``loss_history[e]`` is the sample-weighted mean of epoch e's minibatch
    losses, each taken before that batch's update:
    ``sum(batch_loss * batch_size) / n``.  With one full batch per epoch it
    is, up to summation order, the full-data MSE of the weights the epoch
    started from.
    """

    map: MlpMap
    loss_history: np.ndarray


def mlp_train(layer_sizes, pairs, schedule: TrainSchedule) -> MlpTrainResult:
    """Mini-batch SGD over the schedule's phases; deterministic per seed.

    ``pairs`` is (inputs, targets) as (dim, n) column matrices.  Shuffling
    and initialization both derive from ``schedule.seed``, so identical
    calls produce bit-identical weight trajectories.  A schedule with zero
    total epochs returns the initialization untouched.

    ``loss_history`` holds each epoch's size-weighted mean minibatch loss
    (see ``MlpTrainResult``); no full-data pass runs between epochs.  A
    non-finite epoch loss raises ``NumericalFailureError`` naming the epoch,
    and so does a non-finite full-data loss of the final weights, which
    catches a divergence in the last step that no minibatch loss saw.
    """
    y = _as_matrix(pairs[0], "inputs")
    b = _as_matrix(pairs[1], "targets")
    sizes = tuple(int(s) for s in layer_sizes)
    if y.shape[0] != sizes[0] or b.shape[0] != sizes[-1]:
        raise InvalidInputError(
            f"layer sizes {sizes} do not match data dims {y.shape[0]} -> {b.shape[0]}"
        )
    if y.shape[1] != b.shape[1]:
        raise InvalidInputError(
            f"sample counts differ: {y.shape[1]} inputs vs {b.shape[1]} targets"
        )
    rng = np.random.default_rng(schedule.seed)
    weights = [glorot_uniform(rng, sizes[l + 1], sizes[l]) for l in range(len(sizes) - 1)]
    biases = [np.zeros(sizes[l + 1]) for l in range(len(sizes) - 1)]
    return _sgd(MlpMap(sizes, weights, biases), y, b, schedule, rng)


def _sgd(m: MlpMap, y: np.ndarray, b: np.ndarray, schedule: TrainSchedule,
         rng: np.random.Generator) -> MlpTrainResult:
    """``mlp_train``'s loop, updating ``m`` in place: each epoch draws one
    permutation from ``rng`` and steps through its minibatches of (y, b)
    columns.  Loss history and divergence checks are as ``mlp_train``
    documents them."""
    n = y.shape[1]
    history = []
    epoch = 0
    for rate, epochs in schedule.learning_rate_phases:
        for _ in range(epochs):
            perm = rng.permutation(n)
            total = 0.0
            for start in range(0, n, schedule.batch_size):
                idx = perm[start:start + schedule.batch_size]
                g = mlp_gradients(m, y[:, idx], b[:, idx])
                total += g.loss * len(idx)
                for w, bias, gw, gb in zip(m.weights, m.biases, g.weights, g.biases):
                    gw *= rate
                    w -= gw
                    gb *= rate
                    bias -= gb
            loss = total / n
            if not np.isfinite(loss):
                raise NumericalFailureError(f"training loss diverged at epoch {epoch}")
            history.append(loss)
            epoch += 1
    if epoch:
        err = mlp_forward(m, y) - b
        if not np.isfinite((err * err).sum()):
            raise NumericalFailureError(
                f"training loss diverged at epoch {epoch - 1} (final weights)"
            )
    return MlpTrainResult(m, np.asarray(history))


def save_map(m: MlpMap, path):
    """Write ``m`` as a ``.map`` file; C-ordered float64 arrays are not copied."""
    header = {"layer_sizes": list(m.layer_sizes), "activation": m.activation,
              "format_version": MAP_FORMAT_VERSION}
    write_container(path, header, [a for wb in zip(m.weights, m.biases) for a in wb])


def _map_shapes(header: dict) -> list:
    sizes = header["layer_sizes"]
    _check_layer_sizes(sizes)
    return [shape for in_d, out_d in zip(sizes, sizes[1:])
            for shape in ((out_d, in_d), (out_d,))]


def load_map(path) -> MlpMap:
    """Read a ``.map`` file straight into C-contiguous float64 arrays; a bad
    header, a short file or trailing bytes raise ``FileFormatError``."""
    header, arrays = read_container(
        path, "mapping", MAP_FORMAT_VERSION,
        {"layer_sizes": lambda v: tuple(header_int(s) for s in v), "activation": str},
        _map_shapes)
    return MlpMap(header["layer_sizes"], arrays[0::2], arrays[1::2],
                  activation=header["activation"])

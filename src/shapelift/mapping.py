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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FileFormatError, InvalidInputError, NumericalFailureError
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

    @property
    def total_epochs(self) -> int:
        return sum(e for _, e in self.learning_rate_phases)


# Stated reference schedule: 0.001 for 1000 epochs, then 1e-5 for another
# 1000, mini-batches of 40.
REFERENCE_SCHEDULE = TrainSchedule(((1e-3, 1000), (1e-5, 1000)), batch_size=40, seed=7)


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
    acts = [x]
    h = x
    for l, (w, b) in enumerate(zip(m.weights, m.biases)):
        h = w @ h + b[:, None]
        if l < last and m.activation == "tanh":
            h = np.tanh(h)
        acts.append(h)
    err = acts[-1] - t
    loss = float((err * err).sum() / nb)
    delta = 2.0 * err / nb
    grad_w = [None] * len(m.weights)
    grad_b = [None] * len(m.biases)
    for l in range(last, -1, -1):
        grad_w[l] = delta @ acts[l].T
        grad_b[l] = delta.sum(axis=1)
        if l > 0:
            delta = m.weights[l].T @ delta
            if m.activation == "tanh":
                delta = delta * (1.0 - acts[l] * acts[l])
    return MlpGradients(grad_w, grad_b, loss)


@dataclass
class MlpTrainResult:
    map: MlpMap
    loss_history: np.ndarray


def mlp_train(layer_sizes, pairs, schedule: TrainSchedule) -> MlpTrainResult:
    """Mini-batch SGD over the schedule's phases; deterministic per seed.

    ``pairs`` is (inputs, targets) as (dim, n) column matrices.  Shuffling
    and initialization both derive from ``schedule.seed``, so identical
    calls produce bit-identical weight trajectories.  A schedule with zero
    total epochs returns the initialization untouched.
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
    n = y.shape[1]
    rng = np.random.default_rng(schedule.seed)
    weights = [glorot_uniform(rng, sizes[l + 1], sizes[l]) for l in range(len(sizes) - 1)]
    biases = [np.zeros(sizes[l + 1]) for l in range(len(sizes) - 1)]
    m = MlpMap(sizes, weights, biases)
    history = []
    epoch = 0
    for rate, epochs in schedule.learning_rate_phases:
        for _ in range(epochs):
            perm = rng.permutation(n)
            for start in range(0, n, schedule.batch_size):
                idx = perm[start:start + schedule.batch_size]
                g = mlp_gradients(m, y[:, idx], b[:, idx])
                for l in range(len(m.weights)):
                    m.weights[l] -= rate * g.weights[l]
                    m.biases[l] -= rate * g.biases[l]
            err = mlp_forward(m, y) - b
            loss = float((err * err).sum() / n)
            if not np.isfinite(loss):
                raise NumericalFailureError(f"training loss diverged at epoch {epoch}")
            history.append(loss)
            epoch += 1
    return MlpTrainResult(m, np.asarray(history))


def save_map(m: MlpMap, path):
    """JSON header line, then per layer the row-major weights and the biases,
    all little-endian float64."""
    header = {
        "layer_sizes": list(m.layer_sizes),
        "activation": m.activation,
        "format_version": MAP_FORMAT_VERSION,
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        for w, b in zip(m.weights, m.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_map(path) -> MlpMap:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("ascii"))
        sizes = tuple(int(s) for s in header["layer_sizes"])
        activation = str(header["activation"])
        version = int(header["format_version"])
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"{path}: bad mapping header") from exc
    if version != MAP_FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported format version {version}")
    try:
        _check_layer_sizes(sizes)
    except InvalidInputError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    weights, biases = [], []
    offset = 0
    for l in range(len(sizes) - 1):
        out_d, in_d = sizes[l + 1], sizes[l]
        need = (out_d * in_d + out_d) * 8
        if offset + need > len(payload):
            raise FileFormatError(f"{path}: unexpected end of file")
        w = np.frombuffer(payload, dtype="<f8", count=out_d * in_d, offset=offset)
        offset += out_d * in_d * 8
        b = np.frombuffer(payload, dtype="<f8", count=out_d, offset=offset)
        offset += out_d * 8
        weights.append(w.reshape(out_d, in_d).astype(np.float64))
        biases.append(b.astype(np.float64))
    if offset != len(payload):
        raise FileFormatError(f"{path}: trailing data after weights")
    return MlpMap(sizes, weights, biases, activation=activation)

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

The two closed-form fits return a ``linear`` network with zero biases.
The rank r of the input matrix (in x n) is at most the sample count n, so
when n*(in + out) < in*out (the direct map) the fit takes one SVD
``a = U S V^T`` and returns the two-layer ``(in, r, out)`` network with
weights ``S^-1 U^T`` and ``b V``, or the single zero layer when r = 0.
Otherwise it returns the single layer ``least_squares`` gives.  Either is
stored as it is.  A target row that is zero in every sample has a zero row
in ``b V``, so the factored fit multiplies and keeps only the other rows,
and the map's ``rows`` name them: ``mlp_forward`` gives zero on the rest.
On the voxel reference that drops the 15 621 of 27 000 cells that no
paired-train shape fills.

``mlp_train``'s SGD loop, with its divergence checks, is the only training
loop in the package: ``subspace.train_linear_autoencoder`` runs it full
batch on a ``(dim, k, dim)`` linear network.  ``_layers`` is the only layer
loop, run by ``mlp_forward`` and ``mlp_gradients`` alike.

``save_map``/``load_map`` store a network in the ``.map`` file, the shared
``_fileio`` container with header {activation, format_version,
layer_sizes, rows} and the kept output row indices, then, per layer, the
row-major weights and the biases.  A network that keeps every output row
is written as version 1, header {activation, format_version, layer_sizes}
and no indices, which is also how every earlier map was written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._fileio import (header_int, header_str, kept_rows, read_container, row_indices,
                      write_container)
from .errors import InvalidInputError, NumericalFailureError
from .linalg import _as_matrix, _columns, _KeptRows, _sample_pair, least_squares, svd

MAP_FORMAT_VERSION = 2


@dataclass(frozen=True)
class TrainSchedule:
    """Phased SGD schedule: ((rate, epochs), ...) plus batch size and seed."""

    learning_rate_phases: tuple = ((1e-3, 1000), (1e-5, 1000))
    batch_size: int = 40
    seed: int = 0

    def __post_init__(self):
        phases = tuple((float(r), float(e)) for r, e in self.learning_rate_phases)
        for rate, epochs in phases:
            if not (np.isfinite(rate) and rate > 0.0):  # NaN fails every comparison
                raise InvalidInputError(f"learning rate {rate} must be finite and positive")
            if not (epochs.is_integer() and epochs >= 0):
                raise InvalidInputError(f"epoch count {epochs:g} must be an integer >= 0")
        object.__setattr__(self, "learning_rate_phases",
                           tuple((r, int(e)) for r, e in phases))
        if self.batch_size < 1:
            raise InvalidInputError(f"batch_size {self.batch_size} must be >= 1")
        if self.seed < 0:
            raise InvalidInputError(f"seed {self.seed} must be >= 0")


@dataclass
class MlpMap:
    """Feedforward net: weights[l] is (sizes[l+1], sizes[l]).

    ``activation`` ("tanh" or "linear") applies to hidden layers only; the
    output layer is always affine, so a two-size network is a plain affine
    map.  ``rows`` holds the output rows the last layer computes, strictly
    increasing integers in [0, sizes[-1]); that layer is then
    (len(rows), sizes[-2]) with a bias per kept row, and every other output
    is zero.  None, the default, computes every output.
    """

    layer_sizes: tuple
    weights: list
    biases: list
    activation: str = "tanh"
    rows: np.ndarray | None = None

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        _check_layer_sizes(self.layer_sizes)
        if self.activation not in ("tanh", "linear"):
            raise InvalidInputError(f"unknown activation {self.activation!r}")
        if self.rows is not None:
            self.rows = row_indices(self.rows, self.layer_sizes[-1])
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
            if l == expect - 1 and self.rows is not None:
                out_d = len(self.rows)
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


def _fit_closed_form(a, b) -> MlpMap:
    """The minimum-norm map ``b @ pinv(a)``, factored when that can store
    fewer numbers, on the target rows that are not zero in every sample
    (see the module docstring); one SVD either way.  A bool ``b`` (voxel
    occupancy) is only read: the factored fit promotes its kept rows alone."""
    a2, b2 = _sample_pair(a, b, keep_bool=True)
    (in_d, n), out_d = a2.shape, b2.shape[0]
    rows = None
    if n * (in_d + out_d) >= in_d * out_d:
        sizes, weights = (in_d, out_d), [least_squares(a2, b2)]
    else:
        f = svd(a2)
        if f.rank == 0:  # the pseudo-inverse of a zero matrix is zero
            sizes, weights = (in_d, out_d), [np.zeros((out_d, in_d))]
        else:
            kept = np.flatnonzero(b2.any(axis=1) if b2.dtype == np.bool_
                                  else (b2 != 0).any(axis=1))
            if len(kept) < out_d:
                rows, b2 = kept, b2[kept]
            # Row i of the product is row i of the full product: the same
            # sum over the n samples.  Both products come out C-contiguous,
            # so save_map copies neither.
            sizes = (in_d, f.rank, out_d)
            weights = [np.ascontiguousarray((f.u / f.sigma).T),
                       b2.astype(np.float64, copy=False) @ f.v]
    biases = [np.zeros(len(w)) for w in weights]
    return MlpMap(sizes, weights, biases, activation="linear", rows=rows)


def fit_linear_map(y, b) -> MlpMap:
    """Least-squares map from code matrix y (k x n) to code matrix b (k' x n).

    With at least as many pairs as input codes (60 -> 299 codes on the
    reference) factoring cannot store fewer numbers: this is the single
    layer ``least_squares(y, b)``."""
    return _fit_closed_form(y, b)


def fit_direct_map(x, z) -> MlpMap:
    """Least-squares map from raw image matrix x (D x n) to shapes z (p x n).

    Its rank r is at most n, so with n*(D + p) < D*p it is the factored
    ``(D, r, p)`` network, computing only the shape coordinates that are
    nonzero in some training shape: 1024-200-27000 on the voxel reference,
    with 11 379 kept rows, 20.0 MB where every row took 45.1 MB and the
    dense 27000 x 1024 layer 221 MB."""
    return _fit_closed_form(x, z)


def _layers(m: MlpMap, x: np.ndarray) -> list:
    """``[x, h_1, ..., output]`` for the columns ``x`` (only read): each layer is
    ``w @ h`` with the bias added, and tanh on hidden layers, in place, which
    gives the bits of the out-of-place form.  A bool ``x`` enters as its
    float64 copy in its own layout, whose products have the bits of the
    caller's copy (numpy's own cast in ``@`` is row-major)."""
    acts = [x.astype(np.float64, copy=False)]
    for l, (w, b) in enumerate(zip(m.weights, m.biases)):
        h = w @ acts[-1]
        h += b[:, None]  # in place: no second output-sized temporary
        if l < len(m.weights) - 1 and m.activation == "tanh":
            np.tanh(h, out=h)
        acts.append(h)
    return acts


def mlp_forward(m: MlpMap, code, *, _rows: bool = False) -> np.ndarray:
    """Forward pass of a vector or (dim, batch) columns; a vector gives the
    bits of its single column.  A map with ``rows`` writes its last layer
    into those rows of a zero result.  With ``_rows`` the result is the last
    layer alone, as the columns of a ``linalg._KeptRows`` filled with zero."""
    x, vector = _columns(code, m.layer_sizes[0], "input")
    kept = _KeptRows(_layers(m, x)[-1], m.rows, np.zeros(m.layer_sizes[-1]))
    if _rows:
        return kept
    out = kept.dense()
    return out[:, 0] if vector else out


def mlp_gradients(m: MlpMap, batch_in, batch_target) -> MlpGradients:
    """Analytic gradients of the batch MSE ``mean_i ||f(x_i) - t_i||^2``;
    only for a map that computes every output (``rows`` None)."""
    if m.rows is not None:
        raise InvalidInputError(f"gradients need every output row, but the map computes "
                                f"{len(m.rows)} of {m.layer_sizes[-1]}")
    x, _ = _columns(batch_in, m.layer_sizes[0], "batch_in")
    t, _ = _columns(batch_target, m.layer_sizes[-1], "batch_target")
    if x.shape[1] != t.shape[1]:
        raise InvalidInputError(
            f"batch sizes differ: {x.shape[1]} inputs vs {t.shape[1]} targets"
        )
    nb = x.shape[1]
    last = len(m.weights) - 1
    # Every operation below is done in place on an array this call created,
    # in the same order as its out-of-place form, so the results are
    # bit-identical to it; acts[0] is the caller's input and is only read.
    acts = _layers(m, x)
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
    columns, gathered once when ``b is y``.  Loss history and divergence
    checks are as ``mlp_train`` documents them."""
    n = y.shape[1]
    history = []
    epoch = 0
    for rate, epochs in schedule.learning_rate_phases:
        for _ in range(epochs):
            perm = rng.permutation(n)
            total = 0.0
            for start in range(0, n, schedule.batch_size):
                idx = perm[start:start + schedule.batch_size]
                batch = y[:, idx]
                g = mlp_gradients(m, batch, batch if b is y else b[:, idx])
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
    """Write ``m`` as a ``.map`` file: version 2, its output row indices as
    float64 integers, when it has ``rows``, else version 1.  C-ordered
    float64 arrays are not copied."""
    header = {"layer_sizes": list(m.layer_sizes), "activation": m.activation,
              "format_version": 1}
    arrays = [a for wb in zip(m.weights, m.biases) for a in wb]
    if m.rows is not None:
        header.update(format_version=MAP_FORMAT_VERSION, rows=len(m.rows))
        arrays.insert(0, m.rows)
    write_container(path, header, arrays)


def _map_shapes(header: dict) -> list:
    """The payload of a version 1 (every output row) or version 2 header."""
    sizes = header["layer_sizes"]
    _check_layer_sizes(sizes)
    shapes = [shape for in_d, out_d in zip(sizes, sizes[1:])
              for shape in ((out_d, in_d), (out_d,))]
    if "rows" not in header:
        return shapes
    r = header["rows"]
    if not 0 <= r <= sizes[-1]:
        raise InvalidInputError(f"need 0 <= rows <= {sizes[-1]} outputs, got rows={r}")
    return [(r,), *shapes[:-2], (r, sizes[-2]), (r,)]


# What, and each readable version's header fields and array shapes.
_MAP_FIELDS = {"layer_sizes": lambda v: tuple(header_int(s) for s in v),
               "activation": header_str}
_MAP_FORMAT = ("mapping", {1: (_MAP_FIELDS, _map_shapes),
                           2: ({**_MAP_FIELDS, "rows": header_int}, _map_shapes)})


def load_map(path) -> MlpMap:
    """Read a ``.map`` file straight into C-contiguous float64 arrays; a
    version 1 file computes every output.  A bad header, a short file,
    trailing bytes or bad row indices raise ``FileFormatError``."""
    header, arrays = read_container(path, *_MAP_FORMAT)
    rows = None
    if "rows" in header:
        rows = kept_rows(path, arrays.pop(0), header["layer_sizes"][-1])
    return MlpMap(header["layer_sizes"], arrays[0::2], arrays[1::2],
                  activation=header["activation"], rows=rows)

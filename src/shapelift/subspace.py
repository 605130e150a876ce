"""Affine subspace models fitted by a truncated SVD, plus a gradient-trained twin.

A fitted model holds the sample mean and the leading left singular vectors
of the centered data, found by `linalg.leading_svd` from the Gram matrix on
the pool's small side: encode projects onto the basis, decode maps back.
``train_linear_autoencoder`` learns the same subspace by plain gradient
descent; its decoder-times-encoder product converges to the PCA projector,
which is the checkable form of the classic equivalence between linear
autoencoders and PCA.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import linalg
from ._fileio import atomic_open, read_f8_arrays
from .errors import FileFormatError, InvalidInputError, NumericalFailureError
from .linalg import _as_matrix
from .mapping import TrainSchedule, glorot_uniform

logger = logging.getLogger(__name__)

SSM_FORMAT_VERSION = 1

# Schedule under which the trained autoencoder's projector agrees with the
# PCA projector to ~1e-3 Frobenius on small dense problems.
PCA_EQUIVALENCE_SCHEDULE = TrainSchedule(((0.05, 20000),), batch_size=1, seed=11)


@dataclass(frozen=True)
class SubspaceModel:
    """mean + orthonormal basis (dim x k) + descending singular values (k,).

    ``k_requested`` records the dimension asked of the fit; when the data's
    effective rank fell short, ``k < k_requested`` and ``shrunk`` is True.
    """

    mean: np.ndarray
    basis: np.ndarray
    singular_values: np.ndarray
    k_requested: int

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    @property
    def shrunk(self) -> bool:
        return self.k < self.k_requested

    def encode(self, x) -> np.ndarray:
        """Project onto the basis: basis.T @ (x - mean); vector or columns."""
        arr = np.asarray(x, dtype=np.float64)
        lead = arr.shape[0] if arr.ndim else -1
        if arr.ndim not in (1, 2) or lead != self.dim:
            raise InvalidInputError(
                f"input dimension {lead} does not match model dimension {self.dim}"
            )
        if arr.ndim == 1:
            return self.basis.T @ (arr - self.mean)
        return self.basis.T @ (arr - self.mean[:, None])

    def decode(self, code) -> np.ndarray:
        """Map codes back: mean + basis @ code; vector or columns."""
        arr = np.asarray(code, dtype=np.float64)
        lead = arr.shape[0] if arr.ndim else -1
        if arr.ndim not in (1, 2) or lead != self.k:
            raise InvalidInputError(
                f"code dimension {lead} does not match model dimension {self.k}"
            )
        if arr.ndim == 1:
            return self.mean + self.basis @ arr
        return self.mean[:, None] + self.basis @ arr


def fit_subspace(samples, k: int) -> SubspaceModel:
    """Fit mean and the first k left singular vectors of the centered data.

    The vectors and singular values come from `linalg.leading_svd`, so the
    singular values are Ritz values, equal to the SVD's to about
    eps * sigma_1.  If the centered matrix has effective rank r < k the
    basis keeps only r columns and the model is flagged shrunk.  Requires
    n >= 2 samples and k <= min(dim, n).
    """
    x = _as_matrix(samples, "samples")
    dim, n = x.shape
    if n < 2:
        raise InvalidInputError(f"need at least 2 samples, got {n}")
    if not 1 <= k <= min(dim, n):
        raise InvalidInputError(
            f"k={k} outside [1, min(dim={dim}, n={n})]"
        )
    mean = x.mean(axis=1)
    res = linalg.leading_svd(x - mean[:, None], k)
    if res.rank < k:
        logger.warning("requested k=%d but effective rank is %d; basis shrunk", k, res.rank)
    return SubspaceModel(
        mean=mean,
        basis=np.ascontiguousarray(res.u),
        singular_values=res.sigma,
        k_requested=k,
    )


@dataclass
class LinearAutoencoder:
    """One linear hidden layer of width k with biases on both layers."""

    encoder_weights: np.ndarray
    encoder_bias: np.ndarray
    decoder_weights: np.ndarray
    decoder_bias: np.ndarray
    final_loss: float
    loss_history: np.ndarray

    def projector(self) -> np.ndarray:
        """decoder @ encoder: converges to the rank-k PCA projector."""
        return self.decoder_weights @ self.encoder_weights

    def reconstruct(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        code = self.encoder_weights @ arr + (
            self.encoder_bias if arr.ndim == 1 else self.encoder_bias[:, None]
        )
        return self.decoder_weights @ code + (
            self.decoder_bias if arr.ndim == 1 else self.decoder_bias[:, None]
        )


def train_linear_autoencoder(samples, k: int, schedule: TrainSchedule,
                             init_scale: float = 1e-4) -> LinearAutoencoder:
    """Full-batch gradient descent on mean squared reconstruction error.

    The loss is ``mean_i ||decode(encode(x_i)) - x_i||^2``.  The schedule's
    batch_size is ignored (training is full batch); its seed drives the
    initialization, which is glorot-uniform scaled down by ``init_scale``.
    The small scale matters on rank-deficient data: encoder components
    outside the data's row space receive no gradient and stay frozen at
    their initial value, so they must start negligible for the learned
    projector to match PCA.  ``init_scale=0.0`` starts from exact zeros.

    Raises NumericalFailureError naming the epoch if the loss diverges,
    including a last step that leaves the final weights' loss non-finite.
    """
    x = _as_matrix(samples, "samples")
    dim, n = x.shape
    if n < 2:
        raise InvalidInputError(f"need at least 2 samples, got {n}")
    if not 1 <= k <= min(dim, n):
        raise InvalidInputError(f"k={k} outside [1, min(dim={dim}, n={n})]")
    rng = np.random.default_rng(schedule.seed)
    w_enc = init_scale * glorot_uniform(rng, k, dim)
    w_dec = init_scale * glorot_uniform(rng, dim, k)
    b_enc = np.zeros(k)
    b_dec = np.zeros(dim)
    history = []
    epoch = 0
    for rate, epochs in schedule.learning_rate_phases:
        for _ in range(epochs):
            hidden = w_enc @ x + b_enc[:, None]
            recon = w_dec @ hidden + b_dec[:, None]
            err = recon - x
            loss = float((err * err).sum() / n)
            if not np.isfinite(loss):
                raise NumericalFailureError(f"autoencoder loss diverged at epoch {epoch}")
            scale = 2.0 / n
            g_dec = scale * (err @ hidden.T)
            gb_dec = scale * err.sum(axis=1)
            back = w_dec.T @ err
            g_enc = scale * (back @ x.T)
            gb_enc = scale * back.sum(axis=1)
            w_dec -= rate * g_dec
            b_dec -= rate * gb_dec
            w_enc -= rate * g_enc
            b_enc -= rate * gb_enc
            history.append(loss)
            epoch += 1
    hidden = w_enc @ x + b_enc[:, None]
    err = w_dec @ hidden + b_dec[:, None] - x
    final_loss = float((err * err).sum() / n)
    if epoch and not np.isfinite(final_loss):
        raise NumericalFailureError(
            f"autoencoder loss diverged at epoch {epoch - 1} (final weights)"
        )
    return LinearAutoencoder(w_enc, b_enc, w_dec, b_dec, final_loss, np.asarray(history))


def save_ssm(model: SubspaceModel, path):
    """JSON header {dim, k, format_version}, then raw little-endian float64:
    mean, basis in column-major order, singular values.  The arrays go to
    the file with no ``bytes`` copy: a column-major basis, as ``load_ssm``
    returns it, is written as it is, and a row-major one, as
    ``fit_subspace`` returns it, through one transposing copy.  Written to
    ``<path>.tmp`` and renamed over ``path``, so an interrupted save leaves
    any old file intact."""
    header = {"dim": model.dim, "k": model.k, "format_version": SSM_FORMAT_VERSION}
    with atomic_open(path) as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(model.mean, dtype="<f8"))
        fh.write(np.asfortranarray(model.basis, dtype="<f8").T)
        fh.write(np.ascontiguousarray(model.singular_values, dtype="<f8"))


def load_ssm(path) -> SubspaceModel:
    """Read a ``.ssm`` file written by ``save_ssm``.

    The payload length is checked against the header's dim and k before
    anything is allocated (``_fileio.read_f8_arrays``), then the mean, the
    basis and the singular values are read straight into float64 arrays;
    the basis is column-major (F-contiguous), as stored.  A bad header, a
    short file or trailing bytes raise ``FileFormatError``.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("ascii"))
            dim = int(header["dim"])
            k = int(header["k"])
            version = int(header["format_version"])
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            raise FileFormatError(f"{path}: bad subspace-model header") from exc
        if version != SSM_FORMAT_VERSION:
            raise FileFormatError(f"{path}: unsupported format version {version}")
        if dim < 1 or k < 0:
            raise FileFormatError(f"{path}: need dim >= 1 and k >= 0, got dim={dim}, k={k}")
        mean, basis, sigma = read_f8_arrays(fh, [(dim,), (dim, k), (k,)], path, order="F")
    return SubspaceModel(mean=mean, basis=basis, singular_values=sigma, k_requested=k)

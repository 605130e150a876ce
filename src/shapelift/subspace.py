"""Affine subspace models fitted by a truncated SVD, plus a gradient-trained twin.

A fitted model holds the sample mean and the leading left singular vectors
of the centered data, found by `linalg.leading_svd` from the Gram matrix on
the pool's small side: encode projects onto the basis, decode maps back.
``train_linear_autoencoder`` learns the same subspace by full-batch
gradient descent: it runs ``mapping.mlp_train``'s loop on a ``(dim, k, dim)``
linear ``MlpMap``, and the decoder-times-encoder product
``weights[1] @ weights[0]`` converges to the PCA projector, which is the
checkable form of the classic equivalence between linear autoencoders and
PCA.

``save_ssm``/``load_ssm`` store a fitted model in the ``.ssm`` file, the
shared ``_fileio`` container with header {dim, format_version, k} and the
mean, the column-major basis and the singular values as payload.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from ._fileio import header_int, read_container, write_container
from .errors import InvalidInputError
from .linalg import _as_matrix
from .mapping import MlpMap, MlpTrainResult, TrainSchedule, _sgd, glorot_uniform

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


def train_linear_autoencoder(samples, k: int, schedule: TrainSchedule,
                             init_scale: float = 1e-4) -> MlpTrainResult:
    """Full-batch gradient descent on mean squared reconstruction error.

    Trains a ``(dim, k, dim)`` linear ``MlpMap`` with ``mlp_train``'s loop
    to minimize ``mean_i ||W1 (W0 x_i + b0) + b1 - x_i||^2``.  The
    schedule's batch_size is ignored (training is full batch); its seed
    drives the column shuffle and the initialization, which is
    glorot-uniform scaled down by ``init_scale`` with zero biases.  The
    small scale matters on rank-deficient data: encoder components outside
    the data's row space receive no gradient and stay frozen at their
    initial value, so they must start negligible for the learned projector
    ``weights[1] @ weights[0]`` to match PCA.  ``init_scale=0.0`` starts
    from exact zeros.

    Raises NumericalFailureError "training loss diverged at epoch N" if an
    epoch's loss is not finite, or "... at epoch N (final weights)" if the
    last step leaves the final weights' loss non-finite.
    """
    x = _as_matrix(samples, "samples")
    dim, n = x.shape
    if n < 2:
        raise InvalidInputError(f"need at least 2 samples, got {n}")
    if not 1 <= k <= min(dim, n):
        raise InvalidInputError(f"k={k} outside [1, min(dim={dim}, n={n})]")
    rng = np.random.default_rng(schedule.seed)
    weights = [init_scale * glorot_uniform(rng, k, dim),
               init_scale * glorot_uniform(rng, dim, k)]
    m = MlpMap((dim, k, dim), weights, [np.zeros(k), np.zeros(dim)], activation="linear")
    return _sgd(m, x, x, replace(schedule, batch_size=n), rng)


def save_ssm(model: SubspaceModel, path):
    """Write ``model`` as a ``.ssm`` file.  A column-major basis, as ``load_ssm``
    returns it, is not copied; a row-major one, as ``fit_subspace`` returns
    it, goes through one transposing copy."""
    header = {"dim": model.dim, "k": model.k, "format_version": SSM_FORMAT_VERSION}
    write_container(path, header, [model.mean, model.basis, model.singular_values],
                    order="F")


def _ssm_shapes(header: dict) -> list:
    dim, k = header["dim"], header["k"]
    if dim < 1 or k < 0:
        raise InvalidInputError(f"need dim >= 1 and k >= 0, got dim={dim}, k={k}")
    return [(dim,), (dim, k), (k,)]


def load_ssm(path) -> SubspaceModel:
    """Read a ``.ssm`` file straight into float64 arrays, the basis
    column-major as stored; a bad header, a short file or trailing bytes
    raise ``FileFormatError``."""
    header, (mean, basis, sigma) = read_container(
        path, "subspace-model", SSM_FORMAT_VERSION,
        {"dim": header_int, "k": header_int}, _ssm_shapes, order="F")
    return SubspaceModel(mean=mean, basis=basis, singular_values=sigma,
                         k_requested=header["k"])

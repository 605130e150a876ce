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

``save_ssm``/``load_ssm`` store a model, whose basis is column-major both as
fitted and as loaded, in the ``.ssm`` file: the shared ``_fileio`` container
with header {dim, format_version, k} and the mean, basis and sigma as payload.
``_check_ssm`` makes the same checks on a file without reading its payload.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from ._fileio import check_container, header_int, read_container, write_container
from .errors import InvalidInputError
from .linalg import _as_matrix, _columns
from .mapping import MlpMap, MlpTrainResult, TrainSchedule, _sgd, glorot_uniform

logger = logging.getLogger(__name__)

SSM_FORMAT_VERSION = 1

# Schedule under which the trained autoencoder's projector agrees with the
# PCA projector to ~1e-3 Frobenius on small dense problems.
PCA_EQUIVALENCE_SCHEDULE = TrainSchedule(((0.05, 20000),), batch_size=1, seed=11)


@dataclass(frozen=True)
class SubspaceModel:
    """mean + column-major orthonormal basis (dim x k) + descending singular values (k,).

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
        """Project onto the basis: basis.T @ (x - mean); a vector or (dim, n)
        columns, a vector giving the bits of its single column."""
        arr, vector = _columns(x, self.dim, "input")
        codes = self.basis.T @ (arr - self.mean[:, None])
        return codes[:, 0] if vector else codes

    def decode(self, code) -> np.ndarray:
        """Map codes back: mean + basis @ code, the mean added in place to the
        product (one output array, same bits); vector or columns as ``encode``."""
        arr, vector = _columns(code, self.k, "code")
        out = self.basis @ arr
        out += self.mean[:, None]
        return out[:, 0] if vector else out


def _pool(samples, k: int) -> np.ndarray:
    """``samples`` as a finite (dim, n) matrix with n >= 2 and 1 <= k <= min(dim, n)."""
    x = _as_matrix(samples, "samples")
    dim, n = x.shape
    if n < 2:
        raise InvalidInputError(f"need at least 2 samples, got {n}")
    if not 1 <= k <= min(dim, n):
        raise InvalidInputError(f"k={k} outside [1, min(dim={dim}, n={n})]")
    return x


def fit_subspace(samples, k: int, *, _overwrite: bool = False) -> SubspaceModel:
    """Fit mean and the first k left singular vectors of the centered data.

    The vectors and singular values come from `linalg.leading_svd`, so the
    singular values are Ritz values, equal to the SVD's to about
    eps * sigma_1.  If the centered matrix has effective rank r < k the
    basis keeps only r columns and the model is flagged shrunk.  Requires
    n >= 2 samples and k <= min(dim, n); ``samples`` itself is not changed.
    """
    x = _pool(samples, k)
    mean = x.mean(axis=1)
    res = linalg.leading_svd(np.subtract(x, mean[:, None], out=x if _overwrite else None), k)
    if res.rank < k:
        logger.warning("requested k=%d but effective rank is %d; basis shrunk", k, res.rank)
    return SubspaceModel(
        mean=mean,
        basis=np.asfortranarray(res.u),
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
    x = _pool(samples, k)
    dim, n = x.shape
    rng = np.random.default_rng(schedule.seed)
    weights = [init_scale * glorot_uniform(rng, k, dim),
               init_scale * glorot_uniform(rng, dim, k)]
    m = MlpMap((dim, k, dim), weights, [np.zeros(k), np.zeros(dim)], activation="linear")
    return _sgd(m, x, x, replace(schedule, batch_size=n), rng)


def save_ssm(model: SubspaceModel, path):
    """Write ``model`` as a ``.ssm`` file.  A column-major basis, as
    ``fit_subspace`` and ``load_ssm`` return it, is written without a copy;
    a row-major one goes through one transposing copy."""
    header = {"dim": model.dim, "k": model.k, "format_version": SSM_FORMAT_VERSION}
    write_container(path, header, [model.mean, model.basis, model.singular_values],
                    order="F")


def _ssm_shapes(header: dict) -> list:
    dim, k = header["dim"], header["k"]
    if dim < 1 or k < 0:
        raise InvalidInputError(f"need dim >= 1 and k >= 0, got dim={dim}, k={k}")
    return [(dim,), (dim, k), (k,)]


# What, version, header fields and array shapes, as the container reads them.
_SSM_FORMAT = ("subspace-model", SSM_FORMAT_VERSION, {"dim": header_int, "k": header_int},
               _ssm_shapes)


def _check_ssm(path) -> dict:
    """Return a ``.ssm`` file's {dim, k} after the checks ``load_ssm`` makes,
    reading only its header: a bad header, a short file or trailing bytes
    raise the same ``FileFormatError``."""
    with open(path, "rb") as fh:
        return check_container(fh, path, *_SSM_FORMAT)[0]


def load_ssm(path) -> SubspaceModel:
    """Read a ``.ssm`` file straight into float64 arrays, the basis
    column-major as stored; a bad header, a short file or trailing bytes
    raise ``FileFormatError``."""
    header, (mean, basis, sigma) = read_container(path, *_SSM_FORMAT, order="F")
    return SubspaceModel(mean=mean, basis=basis, singular_values=sigma,
                         k_requested=header["k"])

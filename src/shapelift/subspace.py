"""Affine subspace models fitted by a truncated SVD, plus a gradient-trained twin.

A fitted model holds the sample mean and the leading left singular vectors
of the centered data, found by `linalg.leading_svd` from the Gram matrix on
the pool's small side: encode projects onto the basis, decode maps back.
Only the rows that do not center to zero are fitted, and the model holds
its basis on those rows alone (for voxels, the cells that every pool shape
fills or leaves empty are dropped): encode reads and decode writes only
them, and decode gives the mean on the others.
``train_linear_autoencoder`` learns the same subspace by full-batch
gradient descent: it runs ``mapping.mlp_train``'s loop on a ``(dim, k, dim)``
linear ``MlpMap``, and the decoder-times-encoder product
``weights[1] @ weights[0]`` converges to the PCA projector, which is the
checkable form of the classic equivalence between linear autoencoders and
PCA.

``save_ssm``/``load_ssm`` store a model, whose basis is column-major both as
fitted and as loaded, in the ``.ssm`` file: the shared ``_fileio`` container
with header {dim, format_version, k, rows} and the mean, the kept row
indices, the (rows, k) basis and sigma as payload.  A version 1 file, header
{dim, format_version, k} and a (dim, k) basis, loads with every row kept.
``_check_ssm`` makes the same checks on a file reading only its header and
row indices.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from ._fileio import (check_container, header_int, kept_rows, read_array, read_container,
                      row_indices, write_container)
from .errors import InvalidInputError
from .linalg import _as_matrix, _columns, _KeptRows
from .mapping import MlpMap, MlpTrainResult, TrainSchedule, _sgd, glorot_uniform

logger = logging.getLogger(__name__)

SSM_FORMAT_VERSION = 2

# Schedule under which the trained autoencoder's projector agrees with the
# PCA projector to ~1e-3 Frobenius on small dense problems.
PCA_EQUIVALENCE_SCHEDULE = TrainSchedule(((0.05, 20000),), batch_size=1, seed=11)


@dataclass(frozen=True)
class SubspaceModel:
    """mean (dim,) + column-major orthonormal basis (r x k) on the kept rows
    + descending singular values (k,).

    ``rows`` holds the r kept row indices, strictly increasing; the basis is
    zero on every other row, so encode reads only the kept rows and decode
    gives the mean on the others.  None, the default, keeps every row, and
    the basis is (dim x k).  ``k_requested`` is the k the caller asked of
    ``fit_subspace``; when the pool's size or its effective rank fell short
    of it, ``k < k_requested`` and ``shrunk`` is True.  A loaded model has
    ``k_requested == k``: the ``.ssm`` format does not store the request.
    The constructor takes only what a ``.ssm`` file can hold, by the rules
    ``load_ssm`` applies: integer ``rows`` as above, an (r x k) basis with
    k <= r, and k singular values; anything else is ``InvalidInputError``.
    """

    mean: np.ndarray
    basis: np.ndarray
    singular_values: np.ndarray
    k_requested: int
    rows: np.ndarray | None = None

    def __post_init__(self):
        if self.rows is not None:
            row_indices(self.rows, self.dim)
        kept = self.dim if self.rows is None else len(self.rows)
        if np.ndim(self.basis) != 2 or len(self.basis) != kept:
            raise InvalidInputError(f"basis must have {kept} rows, one per kept row, "
                                    f"got shape {np.shape(self.basis)}")
        if self.k > kept:
            raise InvalidInputError(f"k={self.k} basis columns exceed the {kept} kept rows")
        if np.shape(self.singular_values) != (self.k,):
            raise InvalidInputError(f"singular_values must have shape ({self.k},), "
                                    f"got {np.shape(self.singular_values)}")

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
        """Project onto the basis: basis.T @ (x[rows] - mean[rows]); a vector
        or (dim, n) columns, a vector giving the bits of its single column.
        The centered kept rows are one float64 temporary, into which a bool
        ``x`` (voxel occupancy) is promoted with the bits of its float64 copy."""
        arr, vector = _columns(x, self.dim, "input")
        if self.rows is None:
            centered = np.subtract(arr, self.mean[:, None])
        else:
            centered = arr[self.rows].astype(np.float64, copy=False)
            centered -= self.mean[self.rows, None]
        codes = self.basis.T @ centered
        return codes[:, 0] if vector else codes

    def decode(self, code, *, _rows: bool = False) -> np.ndarray:
        """Map codes back: mean + basis @ code on the kept rows, the mean on
        the others; vector or columns as ``encode``.  The mean is added in
        place to the product, which with every row kept is the one output
        array; otherwise the kept rows are assigned into an output filled
        with the mean, so the product is the one other temporary.  With
        ``_rows`` the result is the product alone, as the columns of a
        ``linalg._KeptRows`` filled with the mean."""
        arr, vector = _columns(code, self.k, "code")
        product = self.basis @ arr
        product += (self.mean if self.rows is None else self.mean[self.rows])[:, None]
        kept = _KeptRows(product, self.rows, self.mean)
        if _rows:
            return kept
        out = kept.dense()
        return out[:, 0] if vector else out


def _pool(samples, k: int, strict: bool) -> np.ndarray:
    """``samples`` as a finite (dim, n) matrix with n >= 2, for a k >= 1;
    ``strict`` also requires k <= min(dim, n).  bool occupancy passes
    uncopied unless ``strict``; any other dtype is float64."""
    x = _as_matrix(samples, "samples", keep_bool=not strict)
    dim, n = x.shape
    if n < 2:
        raise InvalidInputError(f"need at least 2 samples, got {n}")
    if k < 1 or (strict and k > min(dim, n)):
        raise InvalidInputError(f"k={k} outside [1, min(dim={dim}, n={n})]")
    return x


def fit_subspace(samples, k: int, *, _overwrite: bool = False) -> SubspaceModel:
    """Fit mean and the first k left singular vectors of the centered data.

    Only the r rows that do not center to zero, those whose samples are not
    all equal to the row's mean, are fitted: one centered float64 copy of
    them goes to `linalg.leading_svd`, whose (r, k) left factor is the
    model's basis as it is, and the model's ``rows`` are their indices
    (None when r = dim).  All-zero rows add only zero terms to the SVD's
    sums, so dropping them skips that work and changes the result only by
    the order of those sums (last bits).  The singular values are Ritz
    values, equal to the SVD's to about eps * sigma_1.  The basis keeps
    min(k, r, n) columns, cut further at the centered matrix's effective
    rank; when that is fewer than k, one warning names k, the kept k, the
    pool's size and the rank, and the model is flagged shrunk.  Requires
    n >= 2 samples and k >= 1.  ``samples`` is only read: bool (voxel occupancy) or
    float64 columns are not copied, and a bool pool gives the model of its
    float64 copy, bit for bit.  With ``_overwrite``, a row-major float64
    pool is its own copy instead: the kept rows are moved up into its
    leading rows and centered there, which gives the same model.
    """
    x = _pool(samples, k, strict=False)
    dim, n = x.shape
    mean = x.mean(axis=1)
    rows = np.flatnonzero(~(x == mean[:, None]).all(axis=1))
    r = len(rows)
    u, sigma = np.empty((r, 0)), np.empty(0)
    if r:
        if _overwrite and x.dtype == np.float64 and x.flags.c_contiguous:
            for i, row in enumerate(rows):  # row >= i, so no write reaches it first
                x[i] = x[row]
            centered = x[:r]
        else:
            centered = x[rows].astype(np.float64, copy=False)  # a copy
        centered -= mean[rows, None]
        res = linalg.leading_svd(centered, min(k, r, n))
        u, sigma = res.u, res.sigma
    if len(sigma) < k:
        logger.warning("shrinking requested k=%d to k=%d: the pool is %d x %d "
                       "(dim x samples) and its effective rank is %d",
                       k, len(sigma), dim, n, len(sigma))
    return SubspaceModel(mean=mean, basis=np.asfortranarray(u), singular_values=sigma,
                         k_requested=k, rows=None if r == dim else rows)


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
    x = _pool(samples, k, strict=True)
    dim, n = x.shape
    rng = np.random.default_rng(schedule.seed)
    weights = [init_scale * glorot_uniform(rng, k, dim),
               init_scale * glorot_uniform(rng, dim, k)]
    m = MlpMap((dim, k, dim), weights, [np.zeros(k), np.zeros(dim)], activation="linear")
    return _sgd(m, x, x, replace(schedule, batch_size=n), rng)


def save_ssm(model: SubspaceModel, path):
    """Write ``model`` as a version 2 ``.ssm`` file, its row indices as
    float64 integers (every index when it keeps every row).  A column-major
    basis, as ``fit_subspace`` and ``load_ssm`` return it, is written
    without a copy; a row-major one goes through one transposing copy."""
    rows = np.arange(model.dim) if model.rows is None else model.rows
    header = {"dim": model.dim, "format_version": SSM_FORMAT_VERSION, "k": model.k,
              "rows": len(rows)}
    write_container(path, header, [model.mean, rows, model.basis, model.singular_values],
                    order="F")


def _ssm_shapes(header: dict) -> list:
    """The payload of a version 1 (no ``rows``: every row kept) or version 2 header."""
    dim, k = header["dim"], header["k"]
    if dim < 1 or k < 0:
        raise InvalidInputError(f"need dim >= 1 and k >= 0, got dim={dim}, k={k}")
    r = header.get("rows", dim)
    if not k <= r <= dim:
        raise InvalidInputError(f"need k <= rows <= dim, got k={k}, rows={r}, dim={dim}")
    return [(dim,), (dim, k), (k,)] if "rows" not in header else [(dim,), (r,), (r, k), (k,)]


# What, and each readable version's header fields and array shapes.
_SSM_FIELDS = {"dim": header_int, "k": header_int}
_SSM_FORMAT = ("subspace-model", {1: (_SSM_FIELDS, _ssm_shapes),
                                  2: ({**_SSM_FIELDS, "rows": header_int}, _ssm_shapes)})


def _check_ssm(path) -> dict:
    """Return a ``.ssm`` file's header fields ({dim, k}, and ``rows`` from
    version 2) after the checks ``load_ssm`` makes on its header, size and
    row indices, reading only those: a bad header, a short file, trailing
    bytes or bad row indices raise the same ``FileFormatError``."""
    with open(path, "rb") as fh:
        header, _ = check_container(fh, path, *_SSM_FORMAT)
        if "rows" in header:
            fh.seek(8 * header["dim"], os.SEEK_CUR)
            kept_rows(path, read_array(fh, path, (header["rows"],)), header["dim"])
    return header


def load_ssm(path) -> SubspaceModel:
    """Read a ``.ssm`` file straight into float64 arrays, the basis
    column-major as stored; a version 1 file keeps every row.  A bad header,
    a short file, trailing bytes or bad row indices raise ``FileFormatError``."""
    header, (mean, *stored, basis, sigma) = read_container(path, *_SSM_FORMAT, order="F")
    rows = kept_rows(path, stored[0], header["dim"]) if stored else None
    return SubspaceModel(mean=mean, basis=basis, singular_values=sigma,
                         k_requested=header["k"], rows=rows)

"""Dense float64 linear algebra: rank-aware SVD, pseudo-inverse, least squares.

Every decomposition here truncates at the effective numerical rank
(singular values below ``RANK_RTOL * sigma_max`` count as zero) and applies
a fixed per-column sign convention so repeated calls on the same input are
bit-identical.  ``svd`` is the full thin SVD; ``leading_svd`` finds only the
leading k triplets from the Gram matrix on the matrix's small side and
falls back to ``svd`` when that would lose accuracy.  All functions are
pure and safe to call concurrently.  ``_columns`` holds the package's one
rule for an input that is a vector or a matrix of columns, and
``_KeptRows`` the one compact form of a column matrix whose rows outside a
kept set are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fileio import _finite, row_indices
from .errors import InvalidInputError, NumericalFailureError

# Relative cutoff below which a singular value is treated as exactly zero.
RANK_RTOL = 1e-10

# Smallest kept singular value, relative to the largest, that `leading_svd`
# accepts from the Gram route.  The Gram matrix squares the condition number,
# so its singular vectors are orthonormal and accurate only to about
# eps * (sigma_1 / sigma_r)**2; at 1e-3 that is ~2e-10.
GRAM_MIN_RATIO = 1e-3

# Rows per product in `leading_svd`'s Rayleigh-Ritz step; columns per `_pin_signs` pass.
_RITZ_BLOCK = 64


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD truncated at the effective rank.

    ``u`` is (m, rank) with orthonormal columns, ``sigma`` is (rank,)
    non-negative and descending, ``v`` is (n, rank) with orthonormal
    columns, and ``u @ np.diag(sigma) @ v.T`` reconstructs the input up to
    numerical error (from `leading_svd`, where rank <= k, it is the best
    rank-k approximation instead).
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.sigma)


def _as_matrix(a, name: str = "matrix", keep_bool: bool = False) -> np.ndarray:
    """``a`` as a nonempty, finite 2-D float64 array, uncopied if it is one;
    with ``keep_bool`` a bool array passes as it is."""
    m = np.asarray(a)
    if not (keep_bool and m.dtype == np.bool_):
        m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise InvalidInputError(
            f"{name} must be a nonempty 2-D array, got shape {m.shape}"
        )
    if not _finite(m):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


def _columns(x, rows, name: str) -> tuple:
    """``(matrix, was_vector)``: a vector as one column (a view), a matrix as is.

    bool (voxel occupancy) and float64 pass through uncopied, anything else
    is cast to float64; the caller promotes bool in its own arithmetic, a
    bool giving exactly 0.0/1.0.  The length or row count must be ``rows``
    (``None``: any); a scalar, a 3-D array or a wrong length raises one
    ``InvalidInputError``."""
    arr = np.asarray(x)
    if arr.dtype not in (np.bool_, np.float64):
        arr = arr.astype(np.float64)
    m = arr[:, None] if arr.ndim == 1 else arr
    if m.ndim != 2 or rows not in (None, m.shape[0]):
        raise InvalidInputError(
            f"{name} must be a vector or a ({'d' if rows is None else rows}, n) "
            f"matrix, got shape {arr.shape}"
        )
    return m, arr.ndim == 1


@dataclass(frozen=True)
class _KeptRows:
    """A (dim, n) float64 column matrix held as its kept rows: ``values`` (r, n)
    on the strictly increasing ``rows``, and ``fill[i]`` in every column of
    each other row i; ``rows`` None keeps every row, and ``values`` is then
    the matrix.  Parts that do not fit together are ``InvalidInputError``."""

    values: np.ndarray
    rows: np.ndarray | None
    fill: np.ndarray

    def __post_init__(self):
        if np.ndim(self.fill) != 1 or np.ndim(self.values) != 2:
            raise InvalidInputError(
                f"kept rows need a fill vector and a matrix of values, got shapes "
                f"{np.shape(self.fill)} and {np.shape(self.values)}")
        dim = len(self.fill)
        if self.rows is not None:
            object.__setattr__(self, "rows", row_indices(self.rows, dim))
        kept = dim if self.rows is None else len(self.rows)
        if len(self.values) != kept:
            raise InvalidInputError(f"{len(self.values)} rows of values for {kept} kept rows")

    @property
    def shape(self) -> tuple:
        return len(self.fill), self.values.shape[1]

    def dense(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows [start, stop) of the matrix, value for value: a view of
        ``values`` when every row is kept, else a new row-major array
        filled, then given the kept rows that fall in the range."""
        if self.rows is None:
            return self.values[start:stop]
        stop = len(self.fill) if stop is None else min(stop, len(self.fill))
        out = np.empty((stop - start, self.values.shape[1]))
        out[...] = self.fill[start:stop, None]
        lo, hi = np.searchsorted(self.rows, (start, stop))
        out[self.rows[lo:hi] - start] = self.values[lo:hi]
        return out


def svd(m) -> SvdResult:
    """Thin SVD with effective-rank truncation and a deterministic sign.

    Columns whose singular value falls below ``RANK_RTOL`` times the largest
    singular value are dropped.  In each remaining column of ``u`` the entry
    of largest magnitude is made non-negative (first occurrence wins on
    ties), with the matching column of ``v`` flipped alongside; plain SVD is
    unique only up to such per-column signs, so this pins one representative.

    Raises
    ------
    InvalidInputError
        If the input is empty or contains NaN/Inf.
    NumericalFailureError
        If the underlying iteration does not converge.
    """
    a = _as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD iteration failed to converge: {exc}") from exc
    rank = int(np.count_nonzero(s > RANK_RTOL * s[0])) if s.size else 0
    u = u[:, :rank]
    v = vt[:rank].T
    _pin_signs(u, v)
    return SvdResult(u=u, sigma=s[:rank].copy(), v=v)


def leading_svd(m, k: int) -> SvdResult:
    """The leading k singular triplets of ``m``, truncated at the effective rank.

    Takes ``eigh`` of the Gram matrix on the small side (``m @ m.T`` when
    ``m`` is wide, ``m.T @ m`` when it is tall) and keeps its leading k
    eigenvectors.  One Rayleigh-Ritz step maps them through ``m``: the
    singular values are the Ritz values ``||m.T u_i||`` (wide) or
    ``||m v_i||`` (tall), accurate to about eps * sigma_1 rather than the
    eps * sigma_1**2 / sigma_i of the eigenvalues, so the ``RANK_RTOL`` cut
    still separates a zero singular value from a small one.  The other
    factor is the mapped vector divided by its Ritz value.  The sign
    convention is that of `svd`.

    When the smallest kept Ritz value is below ``GRAM_MIN_RATIO * sigma_1``
    or the kept Ritz values are not a descending prefix of the k, the
    result is `svd` cut to the leading k columns instead.

    Raises
    ------
    InvalidInputError
        If the input is empty or non-finite, or k is outside [1, min(m.shape)].
    NumericalFailureError
        If the eigensolver (or the fallback SVD) does not converge.
    """
    a = _as_matrix(m)
    if not 1 <= k <= min(a.shape):
        raise InvalidInputError(f"k={k} outside [1, min{a.shape}]")
    wide = a.shape[0] <= a.shape[1]
    try:
        _, vecs = np.linalg.eigh(a @ a.T if wide else a.T @ a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"Gram eigensolver failed to converge: {exc}") from exc
    # Rows of `lead` are the eigenvectors by descending eigenvalue; rows of
    # `mapped` are the same vectors sent through the matrix.  The product is
    # taken in fixed blocks of rows so that row i comes out bit-identical for
    # every k (BLAS picks its kernel by matrix size), which keeps the
    # leading columns of a smaller-k result a prefix of a larger-k one.
    # The Ritz values are taken per block too: no temporary of full size.
    lead = vecs.T[::-1]
    other = a if wide else a.T
    mapped = np.empty((k, other.shape[1]))
    sigma = np.empty(k)
    for i in range(0, k, _RITZ_BLOCK):
        rows, block = lead[i:i + _RITZ_BLOCK], mapped[i:i + _RITZ_BLOCK]
        if len(rows) == len(block):
            np.matmul(rows, other, out=block)
        else:  # the same product as for a larger k, cut to the rows kept
            block[...] = (rows @ other)[:len(block)]
        sigma[i:i + _RITZ_BLOCK] = np.linalg.norm(block, axis=1)
    cut = RANK_RTOL * sigma[0]
    rank = int(np.count_nonzero(sigma > cut))
    kept = sigma[:rank]
    if (np.any(sigma[rank:] > cut) or np.any(kept[1:] > kept[:-1])
            or (rank and kept[-1] < GRAM_MIN_RATIO * sigma[0])):
        res = svd(a)
        r = min(k, res.rank)
        return SvdResult(u=res.u[:, :r], sigma=res.sigma[:r], v=res.v[:, :r])
    mapped = mapped[:rank]
    mapped /= kept[:, None]
    u, v = (lead[:rank].T, mapped.T) if wide else (mapped.T, lead[:rank].T)
    _pin_signs(u, v)
    return SvdResult(u=u, sigma=kept, v=v)


def _pin_signs(u: np.ndarray, v: np.ndarray):
    """Make the largest-magnitude entry of each column of u non-negative.

    The first occurrence wins on ties, and the matching column of v is
    flipped alongside; both change in place, one block of columns at a time.
    """
    for j in range(0, u.shape[1], _RITZ_BLOCK):
        cols = slice(j, j + _RITZ_BLOCK)
        lead = np.argmax(np.abs(u[:, cols]), axis=0)
        signs = np.where(u[lead, np.arange(j, j + len(lead))] < 0.0, -1.0, 1.0)
        u[:, cols] *= signs
        v[:, cols] *= signs


def _pseudo_inverse(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse built on the rank-truncated `svd`.

    Singular values treated as zero invert to zero, so ``diag(2, 0)`` maps
    to ``diag(0.5, 0)``.  Satisfies the four Penrose identities to within
    roundoff for well-scaled inputs.
    """
    res = svd(m)
    if res.rank == 0:
        return np.zeros((res.v.shape[0], res.u.shape[0]))
    return res.v @ (res.u / res.sigma).T


def _sample_pair(a, b, keep_bool: bool = False) -> tuple:
    """``a`` and ``b`` as finite nonempty matrices with one sample count;
    with ``keep_bool`` a bool ``b`` passes as it is."""
    a2 = _as_matrix(a, "a")
    b2 = _as_matrix(b, "b", keep_bool)
    if a2.shape[1] != b2.shape[1]:
        raise InvalidInputError(
            f"sample counts differ: a has {a2.shape[1]} columns, b has {b2.shape[1]}"
        )
    return a2, b2


def least_squares(a, b) -> np.ndarray:
    """Minimum-norm solution of ``min_X || b - X @ a ||_F``.

    ``a`` is (k, n) and ``b`` is (k', n) with a shared sample count n; the
    result is (k', k).  Computed as ``b @ pinv(a)``, which among all
    Frobenius-norm minimizers is the one of least ``||X||_F`` (rows of X lie
    in the row space of ``a``).
    """
    a2, b2 = _sample_pair(a, b)
    return b2 @ _pseudo_inverse(a2)

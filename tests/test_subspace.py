import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shapelift import _fileio, config, linalg, mapping, pipeline, shapes, subspace
from shapelift.errors import (
    FileFormatError,
    InvalidInputError,
    NumericalFailureError,
)
from shapelift.mapping import TrainSchedule
from shapelift.subspace import PCA_EQUIVALENCE_SCHEDULE


class Unwritable:
    """Stands in for an array; converting it to one fails mid-save."""

    def __array__(self, *args, **kwargs):
        raise RuntimeError("write failed")


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Fits a reference shape pool in a child process under one BLAS thread, the
# benchmark's setting (the Gram product and eigh of these pools change bits
# with the thread count), and prints the model's sizes, digest and warnings.
_ONE_THREAD_FIT = """
import json, logging, sys
from shapelift import subspace
from test_subspace import model_digest, reference_pool

messages = []
handler = logging.Handler()
handler.emit = lambda record: messages.append(record.getMessage())
logging.getLogger("shapelift").addHandler(handler)
pool = reference_pool(sys.argv[1])
model = subspace.fit_subspace(pool, int(sys.argv[2]))
print(json.dumps({"sizes": [model.k, model.k_requested, model.shrunk],
                  "digest": model_digest(model), "shape": pool.shape,
                  "messages": messages}))
"""


def random_data(seed, dim, n):
    return np.random.default_rng(seed).standard_normal((dim, n))


def reference_pool(cfg: str) -> np.ndarray:
    """The unlabeled shape pool of a reference config, built in memory."""
    manifest = config.load_manifest(str(CONFIGS / cfg))
    ids = pipeline._id_blocks(manifest)[pipeline.SPLIT_UNLABELED_3D]
    return np.column_stack([shapes.vectorize_shape(pipeline._shape_for_id(manifest, i))
                            for i in ids])


def full_basis(model) -> np.ndarray:
    """A model's basis on every row, (dim, k) column-major: zero on the rows
    it does not keep."""
    if model.rows is None:
        return np.asfortranarray(model.basis)
    basis = np.zeros((model.dim, model.k), order="F")
    basis[model.rows] = model.basis
    return basis


def model_digest(model) -> str:
    """sha256 of a model's mean, column-major (dim, k) basis and singular values."""
    h = hashlib.sha256()
    for arr in (model.mean, full_basis(model).T, model.singular_values):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def write_v1_ssm(model, path):
    """Write ``model`` as a version 1 ``.ssm`` file: header {dim,
    format_version, k}, then the mean, the (dim, k) basis and sigma."""
    _fileio.write_container(path, {"dim": model.dim, "format_version": 1, "k": model.k},
                            [model.mean, full_basis(model), model.singular_values],
                            order="F")


def flat_rows_data(seed, dim, n):
    """Random (dim, n) data whose rows 0, 3, 4 and 7 are constant."""
    data = random_data(seed, dim, n)
    data[[0, 3, 4, 7]] = np.array([0.0, 1.0, 0.5, 1.0])[:, None]
    return data


def large_model(seed):
    """An 8000 x 250 model with a row-major basis, the layout ``save_ssm`` copies."""
    rng = np.random.default_rng(seed)
    return subspace.SubspaceModel(
        mean=rng.standard_normal(8000),
        basis=rng.standard_normal((8000, 250)),
        singular_values=np.sort(rng.random(250))[::-1].copy(),
        k_requested=250,
    )


def v2_bytes(k: int, rows: int, indices) -> bytes:
    """A version 2 ``.ssm`` file of dim 3: zero mean, basis and sigma, and
    the row indices given (``rows`` of them declared)."""
    header = f'{{"dim": 3, "format_version": 2, "k": {k}, "rows": {rows}}}\n'
    return (header.encode() + bytes(8 * 3) + np.asarray(indices, "<f8").tobytes()
            + bytes(8 * (rows * k + k)))


# Version 2 files whose kept rows are malformed: a count outside [k, dim],
# or indices that are not strictly increasing integers in [0, dim).
BAD_ROWS = {
    "count_below_k": v2_bytes(2, 1, [0]),
    "count_above_dim": v2_bytes(1, 4, [0, 1, 2, 3]),
    "rows_unsorted": v2_bytes(1, 2, [2, 0]),
    "rows_repeated": v2_bytes(1, 2, [1, 1]),
    "rows_negative": v2_bytes(1, 2, [-1, 0]),
    "rows_out_of_range": v2_bytes(1, 2, [0, 3]),
    "rows_fractional": v2_bytes(1, 2, [0, 1.5]),
}


class TestFitSubspace:
    def test_identical_samples_give_rank_zero(self):
        v = np.arange(5.0)
        model = subspace.fit_subspace(np.tile(v[:, None], (1, 4)), 2)
        np.testing.assert_allclose(model.mean, v)
        assert model.k == 0
        assert model.shrunk

    def test_two_point_basis_direction(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([0.0, 1.0, -1.0, 2.0])
        model = subspace.fit_subspace(np.column_stack([a, b]), 1)
        direction = (a - b) / np.linalg.norm(a - b)
        dot = float(model.basis[:, 0] @ direction)
        assert abs(abs(dot) - 1.0) <= 1e-12
        lead = np.argmax(np.abs(model.basis[:, 0]))
        assert model.basis[lead, 0] >= 0.0

    def test_truncation_sse_equals_discarded_spectrum(self):
        data = random_data(7, 10, 6)
        model = subspace.fit_subspace(data, 3)
        recon = model.decode(model.encode(data))
        sse = float(((recon - data) ** 2).sum())
        centered = data - data.mean(axis=1)[:, None]
        sigma = linalg.svd(centered).sigma
        expected = float((sigma[3:] ** 2).sum())
        assert abs(sse - expected) <= 1e-8 * max(expected, 1.0)

    def test_invalid_k(self):
        data = random_data(0, 5, 3)
        # A k past min(dim, n) is not invalid: the fit keeps what the pool has.
        assert subspace.fit_subspace(data, 4).k == 2
        with pytest.raises(InvalidInputError):
            subspace.fit_subspace(data, 0)
        with pytest.raises(InvalidInputError):
            subspace.fit_subspace(np.ones((4, 1)), 1)

    @given(st.integers(0, 10**9))
    def test_basis_orthonormal(self, seed):
        rng = np.random.default_rng(seed)
        dim, n = int(rng.integers(2, 15)), int(rng.integers(2, 15))
        k = int(rng.integers(1, min(dim, n) + 1))
        model = subspace.fit_subspace(rng.standard_normal((dim, n)), k)
        eye = np.eye(model.k)
        assert np.abs(model.basis.T @ model.basis - eye).max() <= 1e-8

    def test_tall_pool_with_k_equal_n_shrinks(self, caplog):
        data = random_data(22, 40, 10)
        with caplog.at_level("WARNING", logger="shapelift.subspace"):
            model = subspace.fit_subspace(data, 10)
        assert model.k == 9
        assert model.shrunk
        assert "effective rank is 9" in caplog.text
        oracle = linalg.svd(data - data.mean(axis=1)[:, None])
        np.testing.assert_allclose(model.basis, oracle.u[:, :9], atol=1e-10)

    @pytest.mark.parametrize("seed, dim, n, k, kept, digest", [
        (40, 60, 25, 7, 7, "91e46c9e7010b41a6f86d3a1f2a3693a35c29d9b2f23cedd2a8c661ef9c5156d"),
        (41, 20, 50, 20, 20, "bb044fdd8e5ec7b7db90f8d08aa7efc1d816bc98fdbaf9e19fd00255e55b9005"),
        (42, 60, 25, 25, 24, "49fb16980e6cd09301743cc8323a823fd3374ea22a4e86277cf40b1c21bd0322"),
    ], ids=["tall", "wide", "k_equal_n"])
    def test_k_within_the_pool_keeps_its_bits(self, seed, dim, n, k, kept, digest):
        # Digests recorded before fit_subspace took a k past the pool's size.
        model = subspace.fit_subspace(random_data(seed, dim, n), k)
        assert (model.k, model.k_requested) == (kept, k)
        assert model_digest(model) == digest

    @pytest.mark.parametrize("cfg, k, kept, digest", [
        ("reference.cfg", 400, 299,
         "c7e5829343f306da40c0c36df0dfea4330d08df33e343b4f82c984d6dafd4865"),
        ("reference_cloud.cfg", 98, 13,
         "0eb87a7ad0a3f6f60f0527b021cbbe895a00e6414b4403f36df9575af7be0d2a"),
    ], ids=["voxel", "cloud"])
    def test_reference_shape_pool_records_the_requested_k(self, cfg, k, kept, digest):
        # The digests are those of the reference pretrain's shape models under
        # one BLAS thread, whatever the thread count of this process.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(Path(subspace.__file__).parents[1]),
                                               str(Path(__file__).parent)]))
        out = subprocess.run([sys.executable, "-c", _ONE_THREAD_FIT, cfg, str(k)], env=env,
                             capture_output=True, text=True, check=True).stdout
        got = json.loads(out)
        assert got["sizes"] == [kept, k, True]
        assert got["digest"] == digest
        dim, n = got["shape"]
        assert got["messages"] == [
            f"shrinking requested k={k} to k={kept}: the pool is {dim} x {n} "
            f"(dim x samples) and its effective rank is {kept}"]

    def test_reference_sized_pool_skips_full_svd(self, monkeypatch):
        # A well-conditioned pool must take the Gram route; the full SVD is
        # only the fallback for ill-conditioned leading spectra.
        def no_svd(m):
            raise AssertionError("fit_subspace fell back to linalg.svd")

        monkeypatch.setattr(linalg, "svd", no_svd)
        model = subspace.fit_subspace(random_data(23, 2000, 120), 120)
        assert model.k == 119
        assert model.shrunk

    @pytest.mark.parametrize("dim, n", [(300, 40), (40, 300)], ids=["tall", "wide"])
    def test_leaves_samples_unchanged_and_keeps_basis_column_major(self, dim, n):
        data = random_data(24, dim, n)
        before = data.copy()
        model = subspace.fit_subspace(data, 20)
        assert np.array_equal(data, before)
        assert model.basis.flags.f_contiguous

    @pytest.mark.parametrize("dim, n", [(40, 12), (12, 40)], ids=["tall", "wide"])
    def test_rows_that_center_to_zero_get_a_zero_basis(self, dim, n):
        data = flat_rows_data(26, dim, n)
        flat = [0, 3, 4, 7]
        model = subspace.fit_subspace(data, 6)
        assert model.k == 6 and model.basis.flags.f_contiguous
        assert np.array_equal(model.rows, np.setdiff1d(np.arange(dim), flat))
        assert model.basis.shape == (dim - len(flat), 6)
        assert np.array_equal(model.mean[flat], [0.0, 1.0, 0.5, 1.0])
        oracle = linalg.svd(data - data.mean(axis=1)[:, None])
        np.testing.assert_allclose(full_basis(model), oracle.u[:, :6], rtol=0, atol=1e-10)
        np.testing.assert_allclose(model.singular_values, oracle.sigma[:6],
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dim, n", [(60, 25), (25, 60)], ids=["tall", "wide"])
    def test_bool_pool_gives_the_model_of_its_float64_copy(self, dim, n):
        pool = np.random.default_rng(27).random((dim, n)) < 0.4
        pool[:dim // 3] = True  # cells that every sample fills ...
        pool[-dim // 3:] = False  # ... or leaves empty
        got, want = subspace.fit_subspace(pool, 8), subspace.fit_subspace(pool * 1.0, 8)
        assert got.k == 8
        for a, b in ((got.mean, want.mean), (got.rows, want.rows), (got.basis, want.basis),
                     (got.singular_values, want.singular_values)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dim, n", [(40, 12), (12, 40)], ids=["tall", "wide"])
    def test_overwrite_gives_the_model_of_the_copy(self, dim, n):
        # The kept rows move up into the pool's own leading rows (row 0 is
        # flat, so every kept row moves) and are centered there.
        data = flat_rows_data(29, dim, n)
        want = subspace.fit_subspace(data, 6)
        got = subspace.fit_subspace(data.copy(), 6, _overwrite=True)
        for a, b in ((got.mean, want.mean), (got.rows, want.rows), (got.basis, want.basis),
                     (got.singular_values, want.singular_values)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("layout", [np.asfortranarray, lambda a: a > 0.0],
                             ids=["column-major", "bool"])
    def test_overwrite_leaves_any_other_pool_unchanged(self, layout):
        data = layout(flat_rows_data(30, 40, 12))
        before = data.copy()
        got = subspace.fit_subspace(data, 6, _overwrite=True)
        assert np.array_equal(data, before)
        assert got.basis.tobytes() == subspace.fit_subspace(data, 6).basis.tobytes()

    def test_overwrite_holds_no_copy_of_the_pool(self, traced_peak):
        # A wide pool, as the image pools are: the Gram matrix and its
        # eigenvectors are the largest temporaries, not a copy of the rows.
        dim, n = 800, 2000
        pool = random_data(31, dim, n)
        pool[::4] = 0.5  # a quarter of the rows center to zero
        model, peak = traced_peak(lambda: subspace.fit_subspace(pool, 10, _overwrite=True))
        assert model.k == 10 and len(model.rows) == dim - dim // 4
        assert peak < 0.6 * pool.nbytes

    def test_bool_pool_is_never_float64_whole(self, traced_peak):
        # Only the rows that do not center to zero are promoted to float64.
        dim, n = 40000, 60
        pool = np.zeros((dim, n), bool)
        pool[:dim // 4] = np.random.default_rng(28).random((dim // 4, n)) < 0.5
        pool[dim // 2:] = True
        model, peak = traced_peak(lambda: subspace.fit_subspace(pool, 10))
        assert model.k == 10
        assert peak < 8 * dim * n

    def test_nested_subspaces_share_prefix(self):
        data = random_data(21, 12, 9)
        big = subspace.fit_subspace(data, 6)
        small = subspace.fit_subspace(data, 4)
        assert np.array_equal(small.basis, big.basis[:, :4])
        assert np.array_equal(small.singular_values, big.singular_values[:4])


class TestEncodeDecode:
    def test_mean_encodes_to_zero(self):
        model = subspace.fit_subspace(random_data(1, 8, 5), 3)
        np.testing.assert_allclose(model.encode(model.mean), np.zeros(3), atol=1e-12)

    def test_basis_column_encodes_to_unit_vector(self):
        model = subspace.fit_subspace(random_data(2, 8, 5), 3)
        for j in range(model.k):
            code = model.encode(model.mean + model.basis[:, j])
            np.testing.assert_allclose(code, np.eye(3)[j], atol=1e-10)

    def test_encode_matches_explicit_product(self):
        data = random_data(3, 9, 7)
        model = subspace.fit_subspace(data, 4)
        centered = data - data.mean(axis=1)[:, None]
        expected = model.basis.T @ centered
        np.testing.assert_allclose(model.encode(data), expected, atol=1e-12)

    def test_decode_zero_is_mean(self):
        model = subspace.fit_subspace(random_data(4, 6, 5), 2)
        np.testing.assert_allclose(model.decode(np.zeros(2)), model.mean)

    def test_projection_identity_on_subspace(self):
        model = subspace.fit_subspace(random_data(5, 10, 8), 4)
        rng = np.random.default_rng(50)
        x = model.mean + model.basis @ rng.standard_normal(4)
        np.testing.assert_allclose(model.decode(model.encode(x)), x, atol=1e-10)

    def test_projection_is_closest_subspace_point(self):
        model = subspace.fit_subspace(random_data(6, 10, 8), 4)
        rng = np.random.default_rng(60)
        x = rng.standard_normal(10)
        projected = model.decode(model.encode(x))
        best = np.linalg.norm(x - projected)
        for _ in range(50):
            probe = model.decode(model.encode(x) + rng.standard_normal(4))
            assert best <= np.linalg.norm(x - probe) + 1e-12

    def test_dimension_mismatch(self):
        model = subspace.fit_subspace(random_data(8, 6, 5), 2)
        with pytest.raises(InvalidInputError):
            model.encode(np.zeros(7))
        with pytest.raises(InvalidInputError):
            model.decode(np.zeros(3))

    def test_scalar_input_raises(self):
        model = subspace.fit_subspace(random_data(8, 6, 5), 2)
        with pytest.raises(InvalidInputError, match=r"got shape \(\)"):
            model.encode(5.0)
        with pytest.raises(InvalidInputError, match=r"got shape \(\)"):
            model.decode(np.float64(5.0))

    def test_3d_input_names_its_shape(self):
        model = subspace.fit_subspace(random_data(9, 4, 6), 2)
        with pytest.raises(InvalidInputError, match=r"got shape \(4, 2, 2\)"):
            model.encode(np.zeros((4, 2, 2)))
        with pytest.raises(InvalidInputError, match=r"got shape \(2, 1, 1\)"):
            model.decode(np.zeros((2, 1, 1)))

    @pytest.mark.parametrize("dim, n, k", [(8, 6, 3), (300, 60, 40), (1024, 30, 29)])
    def test_vector_is_bit_identical_to_its_single_column(self, dim, n, k):
        model = subspace.fit_subspace(random_data(dim, dim, n), k)
        rng = np.random.default_rng(dim)
        xs = rng.standard_normal((dim, 4))
        codes = rng.standard_normal((k, 4))
        for j in range(4):
            got = model.encode(xs[:, j])
            assert got.shape == (k,)
            assert np.array_equal(got, model.encode(xs[:, j:j + 1])[:, 0])
            got = model.decode(codes[:, j])
            assert got.shape == (dim,)
            assert np.array_equal(got, model.decode(codes[:, j:j + 1])[:, 0])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bool_columns_keep_the_bits_of_their_float64_copy(self, order, traced_peak):
        # Voxel occupancy is centered straight from bool into the one
        # float64 temporary: no float64 copy of the columns themselves.
        dim, n = 3000, 200
        model = subspace.fit_subspace(random_data(14, dim, 40), 20)
        occupancy = np.asarray(np.random.default_rng(15).random((dim, n)) < 0.3, order=order)
        codes, peak = traced_peak(lambda: model.encode(occupancy))
        assert codes.tobytes() == model.encode(occupancy.astype(np.float64)).tobytes()
        assert peak <= dim * n * 8 + codes.nbytes + 256 * 1024
        for j in (0, n - 1):
            vector = occupancy[:, j]
            assert (model.encode(vector).tobytes()
                    == model.encode(vector.astype(np.float64)).tobytes())

    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("dim, k", [(7, 3), (27000, 20)])
    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 129, 200])
    def test_decode_keeps_the_bits_of_mean_plus_product(self, order, dim, k, n):
        # A fitted or loaded basis is column-major; a hand-built one may not be.
        rng = np.random.default_rng(dim + n)
        model = subspace.SubspaceModel(
            mean=rng.standard_normal(dim),
            basis=np.asarray(rng.standard_normal((dim, k)), order=order),
            singular_values=np.ones(k), k_requested=k)
        codes = rng.standard_normal((k, n))
        whole = model.mean[:, None] + model.basis @ codes
        assert model.decode(codes).tobytes() == whole.tobytes()
        vector = model.mean[:, None] + model.basis @ codes[:, :1]
        assert model.decode(codes[:, 0]).tobytes() == vector[:, 0].tobytes()

    @pytest.mark.parametrize("dim, n", [(40, 12), (12, 40)], ids=["tall", "wide"])
    def test_kept_rows_match_the_full_basis(self, dim, n):
        # Only the kept rows are read and written: decode gives the full
        # basis's bits, the mean on the other rows; encode sums over the
        # kept rows alone, so its codes may move in the last bits.
        model = subspace.fit_subspace(flat_rows_data(29, dim, n), 6)
        full = dataclasses.replace(model, basis=full_basis(model), rows=None)
        rng = np.random.default_rng(29)
        xs, codes = rng.standard_normal((dim, 5)), rng.standard_normal((6, 5))
        for x, code in ((xs, codes), (xs[:, 0], codes[:, 0])):
            np.testing.assert_allclose(model.encode(x), full.encode(x), rtol=0, atol=1e-12)
            assert model.decode(code).tobytes() == full.decode(code).tobytes()
        occupancy = rng.random((dim, 5)) < 0.5
        assert (model.encode(occupancy).tobytes()
                == model.encode(occupancy.astype(np.float64)).tobytes())

    @pytest.mark.parametrize("rows, shape", [(None, (4, 1)), ([0, 2], (3, 1)), ([0, 2], (2,))])
    def test_basis_must_cover_the_kept_rows(self, rows, shape):
        # Otherwise save_ssm would write a file that load_ssm rejects.
        with pytest.raises(InvalidInputError, match="basis must have"):
            subspace.SubspaceModel(mean=np.zeros(5), basis=np.ones(shape),
                                   singular_values=np.ones(1), k_requested=1,
                                   rows=None if rows is None else np.array(rows))

    @pytest.mark.parametrize("dim, rows, k, sigma_len", [
        (5, [3, 1], 1, 1), (5, [1, 1], 1, 1), (5, [1, 7], 1, 1), (5, [1.0, 3.0], 1, 1),
        (5, [1, 3], 1, 2), (5, [1, 3], 2, 1), (5, [1], 2, 2), (2, None, 3, 3),
    ], ids=["unsorted", "repeated", "out_of_range", "float", "sigma_long", "sigma_short",
            "k_above_rows", "k_above_dim"])
    def test_constructor_rejects_what_load_rejects(self, dim, rows, k, sigma_len):
        # Each of these used to save a file that load_ssm then rejected.
        with pytest.raises(InvalidInputError):
            subspace.SubspaceModel(
                mean=np.zeros(dim), basis=np.ones((dim if rows is None else len(rows), k)),
                singular_values=np.ones(sigma_len), k_requested=k,
                rows=None if rows is None else np.array(rows))

    def test_every_model_the_constructor_takes_loads_back_equal(self, tmp_path):
        rng = np.random.default_rng(30)
        taken = rejected = 0
        for _ in range(400):
            dim, rows = int(rng.integers(1, 6)), None
            if rng.random() < 0.7:
                rows = rng.integers(-1, dim + 2, size=int(rng.integers(0, dim + 2)))
                rows = np.unique(rows) if rng.random() < 0.6 else rows
                rows = rows.astype(np.float64) if rng.random() < 0.2 else rows
            kept = dim if rows is None else len(rows)
            k = int(rng.integers(0, kept + 2))
            sigma = rng.random(max(0, k + int(rng.choice([0, 0, 0, -1, 1]))))
            try:
                model = subspace.SubspaceModel(
                    mean=rng.standard_normal(dim), basis=rng.standard_normal((kept, k)),
                    singular_values=sigma, k_requested=k, rows=rows)
            except InvalidInputError:
                rejected += 1
                continue
            taken += 1
            path = tmp_path / "model.ssm"
            subspace.save_ssm(model, path)
            back = subspace.load_ssm(path)
            for field in ("mean", "basis", "singular_values"):
                assert np.array_equal(getattr(back, field), getattr(model, field)), field
            every = np.arange(dim)
            assert np.array_equal(every if back.rows is None else back.rows,
                                  every if rows is None else rows)
        assert taken >= 100 and rejected >= 100, (taken, rejected)

    def test_version_1_k_above_dim_is_rejected(self, tmp_path):
        path = tmp_path / "model.ssm"
        path.write_bytes(b'{"dim": 2, "format_version": 1, "k": 3}\n' + bytes(8 * (2 + 6 + 3)))
        for read in (subspace.load_ssm, subspace._check_ssm):
            with pytest.raises(FileFormatError, match="need k <= rows <= dim"):
                read(path)

    def test_decode_holds_one_output(self, traced_peak):
        model = large_model(12)
        codes = np.random.default_rng(13).standard_normal((model.k, 300))
        out, peak = traced_peak(lambda: model.decode(codes))
        assert peak <= out.nbytes + 256 * 1024


def projector(result):
    """decoder @ encoder of a trained linear autoencoder."""
    return result.map.weights[1] @ result.map.weights[0]


class TestLinearAutoencoder:
    def test_zero_data_zero_init(self):
        data = np.zeros((4, 6))
        ae = subspace.train_linear_autoencoder(
            data, 2, TrainSchedule(((0.1, 50),), seed=0), init_scale=0.0)
        assert ae.map.layer_sizes == (4, 2, 4)
        assert ae.map.activation == "linear"
        for w, b in zip(ae.map.weights, ae.map.biases):
            assert not w.any()
            assert not b.any()
        assert not ae.loss_history.any()

    def test_line_through_origin_learns_rank_one_projector(self):
        rng = np.random.default_rng(70)
        direction = np.array([3.0, 0.0, 4.0]) / 5.0
        data = np.outer(direction, rng.uniform(-2.0, 2.0, size=30))
        ae = subspace.train_linear_autoencoder(
            data, 1, TrainSchedule(((0.1, 5000),), seed=1))
        target = np.outer(direction, direction)
        assert np.linalg.norm(projector(ae) - target) <= 1e-3

    def test_projector_matches_pca(self):
        data = random_data(80, 8, 20)
        ae = subspace.train_linear_autoencoder(data, 3, PCA_EQUIVALENCE_SCHEDULE)
        pca = subspace.fit_subspace(data, 3)
        target = pca.basis @ pca.basis.T
        assert np.linalg.norm(projector(ae) - target) <= 1e-3

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_outside_the_pool_raises(self, k):
        # Unlike fit_subspace, the autoencoder trains exactly k units.
        with pytest.raises(InvalidInputError,
                           match=rf"^k={k} outside \[1, min\(dim=5, n=3\)\]$"):
            subspace.train_linear_autoencoder(random_data(0, 5, 3), k,
                                              TrainSchedule(((0.1, 1),), seed=0))

    def test_batch_size_is_ignored(self):
        # Training is full batch whatever the schedule says, so batch sizes
        # 1 and n give the same bits.
        data = random_data(81, 6, 9)
        runs = [
            subspace.train_linear_autoencoder(
                data, 2, TrainSchedule(((0.05, 40), (0.01, 10)), batch_size=size, seed=5))
            for size in (1, data.shape[1])
        ]
        assert np.array_equal(runs[0].loss_history, runs[1].loss_history)
        for a, b in zip(runs[0].map.weights + runs[0].map.biases,
                        runs[1].map.weights + runs[1].map.biases):
            assert np.array_equal(a, b)

    def test_each_batch_is_gathered_once_with_the_same_bits(self, monkeypatch):
        # Inputs and targets are one matrix, so each batch is gathered once
        # and passed as both; the weights are those of separate gathers.
        data = random_data(82, 8, 20)
        schedule = TrainSchedule(((0.05, 200),), seed=4)
        # train_linear_autoencoder's start, then its loop with a copy as targets.
        rng = np.random.default_rng(schedule.seed)
        weights = [1e-4 * mapping.glorot_uniform(rng, 3, 8),
                   1e-4 * mapping.glorot_uniform(rng, 8, 3)]
        start = mapping.MlpMap((8, 3, 8), weights, [np.zeros(3), np.zeros(8)],
                               activation="linear")
        separate = mapping._sgd(start, data, data.copy(),
                                dataclasses.replace(schedule, batch_size=20), rng)
        real, shared = mapping.mlp_gradients, []
        monkeypatch.setattr(mapping, "mlp_gradients",
                            lambda m, x, t: shared.append(x is t) or real(m, x, t))
        ae = subspace.train_linear_autoencoder(data, 3, schedule)
        assert len(shared) == 200 and all(shared)
        for got, want in zip(ae.map.weights + ae.map.biases,
                             separate.map.weights + separate.map.biases):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_reports_epoch(self):
        data = 10.0 * random_data(90, 6, 10)
        with pytest.raises(NumericalFailureError, match="epoch"):
            subspace.train_linear_autoencoder(
                data, 2, TrainSchedule(((50.0, 200),), seed=2))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_in_last_step_is_caught(self):
        # The only epoch's loss is finite; the step it takes is not.
        data = random_data(91, 5, 8)
        with pytest.raises(NumericalFailureError, match=r"epoch 0 \(final weights\)"):
            subspace.train_linear_autoencoder(
                data, 2, TrainSchedule(((1e300, 1),), seed=1), init_scale=1.0)


class TestSsmFormat:
    def test_round_trip_exact(self, tmp_path):
        model = subspace.fit_subspace(random_data(30, 12, 9), 5)
        path = tmp_path / "model.ssm"
        subspace.save_ssm(model, path)
        back = subspace.load_ssm(path)
        assert back.dim == model.dim
        assert back.k == model.k
        assert np.array_equal(back.mean, model.mean)
        assert np.array_equal(back.basis, model.basis)
        assert np.array_equal(back.singular_values, model.singular_values)

    def test_round_trip_keeps_the_rows(self, tmp_path):
        model = subspace.fit_subspace(flat_rows_data(33, 12, 9), 5)
        path = tmp_path / "model.ssm"
        subspace.save_ssm(model, path)
        assert path.read_bytes().startswith(
            b'{"dim": 12, "format_version": 2, "k": 5, "rows": 8}\n')
        back = subspace.load_ssm(path)
        assert back.rows.dtype == np.intp
        for a, b in ((back.mean, model.mean), (back.rows, model.rows),
                     (back.basis, model.basis), (back.singular_values, model.singular_values)):
            assert np.array_equal(a, b)
        assert back.basis.flags.f_contiguous

    def test_version_1_file_loads_with_every_row_kept(self, tmp_path):
        model = subspace.fit_subspace(flat_rows_data(39, 12, 9), 5)
        full = dataclasses.replace(model, basis=full_basis(model), rows=None)
        path = tmp_path / "model.ssm"
        write_v1_ssm(model, path)
        assert path.read_bytes().startswith(b'{"dim": 12, "format_version": 1, "k": 5}\n')
        back = subspace.load_ssm(path)
        assert back.rows is None and back.basis.flags.f_contiguous
        for a, b in ((back.mean, full.mean), (back.basis, full.basis),
                     (back.singular_values, full.singular_values)):
            assert np.array_equal(a, b)
        rng = np.random.default_rng(39)
        xs, codes = rng.standard_normal((12, 4)), rng.standard_normal((5, 4))
        assert back.encode(xs).tobytes() == full.encode(xs).tobytes()
        assert back.decode(codes).tobytes() == full.decode(codes).tobytes()
        # Saved again, it is a version 2 file that keeps every row.
        subspace.save_ssm(back, path)
        assert subspace._check_ssm(path) == {"dim": 12, "k": 5, "rows": 12}

    @pytest.mark.parametrize("name", sorted(BAD_ROWS))
    def test_rejects_bad_rows(self, tmp_path, name):
        path = tmp_path / "model.ssm"
        path.write_bytes(BAD_ROWS[name])
        message = ("need k <= rows <= dim" if name.startswith("count")
                   else r"row indices must be strictly increasing integers in \[0, 3\)")
        with pytest.raises(FileFormatError, match=message):
            subspace.load_ssm(path)

    def test_interrupted_save_keeps_old_file(self, tmp_path):
        path = tmp_path / "model.ssm"
        model = subspace.fit_subspace(random_data(32, 8, 6), 3)
        subspace.save_ssm(model, path)
        before = path.read_bytes()
        # The header, mean and basis are written before the raise.  The
        # stand-in goes in past the constructor, whose shape check would
        # already fail on it.
        broken = dataclasses.replace(model)
        object.__setattr__(broken, "singular_values", Unwritable())
        with pytest.raises(RuntimeError, match="write failed"):
            subspace.save_ssm(broken, path)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("field", ["mean", "basis", "singular_values"])
    def test_non_finite_model_is_neither_saved_nor_loaded(self, tmp_path, field):
        model = subspace.fit_subspace(random_data(38, 8, 6), 3)
        path = tmp_path / "model.ssm"
        subspace.save_ssm(model, path)
        good = path.read_bytes()
        broken = dataclasses.replace(model, **{field: getattr(model, field).copy()})
        getattr(broken, field).flat[-1] = np.nan
        with pytest.raises(InvalidInputError, match="model.ssm: non-finite value"):
            subspace.save_ssm(broken, path)
        assert path.read_bytes() == good
        assert sorted(tmp_path.iterdir()) == [path]
        # The same NaN written in place of the field's last stored value.
        header = good.index(b"\n") + 1
        # The payload is the mean (8), the row indices (8), the basis (8 x 3), sigma (3).
        end = header + 8 * {"mean": 8, "basis": 16 + 8 * 3,
                            "singular_values": 16 + 8 * 3 + 3}[field]
        path.write_bytes(good[:end - 8] + np.array([np.nan], "<f8").tobytes() + good[end:])
        with pytest.raises(FileFormatError, match="model.ssm: non-finite value"):
            subspace.load_ssm(path)

    def test_truncated(self, tmp_path):
        model = subspace.fit_subspace(random_data(31, 8, 6), 3)
        path = tmp_path / "model.ssm"
        subspace.save_ssm(model, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FileFormatError, match="unexpected end of file"):
            subspace.load_ssm(path)

    @pytest.mark.parametrize("dim, k", [(0, 0), (-1, 0), (3, -1)])
    def test_rejects_bad_sizes(self, tmp_path, dim, k):
        path = tmp_path / "model.ssm"
        header = f'{{"dim": {dim}, "format_version": 1, "k": {k}}}\n'
        path.write_bytes(header.encode() + bytes(24))
        with pytest.raises(FileFormatError, match="need dim >= 1 and k >= 0"):
            subspace.load_ssm(path)

    def test_rank_zero_model_loads(self, tmp_path):
        model = subspace.fit_subspace(np.tile(np.arange(3.0)[:, None], (1, 4)), 2)
        assert model.k == 0
        path = tmp_path / "model.ssm"
        subspace.save_ssm(model, path)
        back = subspace.load_ssm(path)
        assert back.k == 0
        assert np.array_equal(back.mean, model.mean)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "model.ssm"
        path.write_bytes(b"{\"nope\": 1}\n")
        with pytest.raises(FileFormatError):
            subspace.load_ssm(path)

    @pytest.mark.parametrize("header", [
        b'{"dim": null, "format_version": 1, "k": 2}',
        b'{"dim": Infinity, "format_version": 1, "k": 2}',
        b'{"dim": 3, "format_version": 1, "k": [2]}',
        b'{"dim": 3, "format_version": null, "k": 2}',
        b"[1, 2]",
        b'"dim"',
        b'{"dim": 3.0, "format_version": 1, "k": 2}',
        b'{"dim": 3, "format_version": "1", "k": 2}',
    ], ids=["null_dim", "infinite_dim", "list_k", "null_version", "list", "string",
            "float_dim", "string_version"])
    def test_bad_header_types(self, tmp_path, header):
        path = tmp_path / "model.ssm"
        path.write_bytes(header + b"\n" + bytes(48))
        with pytest.raises(FileFormatError, match="bad subspace-model header"):
            subspace.load_ssm(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "model.ssm"
        path.write_bytes(b'{"dim": 1, "format_version": 3, "k": 0, "rows": 0}\n' + bytes(8))
        with pytest.raises(FileFormatError, match="unsupported format version 3"):
            subspace.load_ssm(path)

    def test_version_is_checked_before_other_fields(self, tmp_path):
        # A newer file may name its fields differently; say so, not "bad header".
        path = tmp_path / "model.ssm"
        path.write_bytes(b'{"format_version": 3, "n_dim": 3}\n' + bytes(8))
        with pytest.raises(FileFormatError, match="unsupported format version 3"):
            subspace.load_ssm(path)

    def test_huge_header_fails_before_allocating(self, tmp_path):
        path = tmp_path / "huge.ssm"
        header = '{"dim": 1000000000000, "format_version": 1, "k": 2}\n'
        path.write_bytes(header.encode() + bytes(64))
        with pytest.raises(FileFormatError, match="unexpected end of file"):
            subspace.load_ssm(path)

    def test_save_copies_a_row_major_basis_once(self, tmp_path, traced_peak):
        model = large_model(34)
        assert model.basis.flags.c_contiguous
        path = tmp_path / "big.ssm"
        _, peak = traced_peak(lambda: subspace.save_ssm(model, path))
        assert peak <= 1.1 * model.basis.nbytes
        header = '{"dim": 8000, "format_version": 2, "k": 250, "rows": 8000}\n'
        expected = (header.encode("ascii") + model.mean.tobytes()
                    + np.arange(8000.0).tobytes()
                    + model.basis.tobytes(order="F") + model.singular_values.tobytes())
        assert path.read_bytes() == expected

    def test_save_writes_a_fitted_basis_without_copying(self, tmp_path, traced_peak):
        model = subspace.fit_subspace(random_data(36, 8000, 120), 100)
        path = tmp_path / "fitted.ssm"
        _, peak = traced_peak(lambda: subspace.save_ssm(model, path))
        assert peak < 0.1 * model.basis.nbytes
        assert subspace.load_ssm(path).basis.tobytes(order="F") == \
            model.basis.tobytes(order="F")

    def test_check_reads_only_the_header(self, tmp_path, traced_peak):
        # ... and the row indices, 8 bytes a row, to check them.
        model = large_model(37)
        path = tmp_path / "big.ssm"
        subspace.save_ssm(model, path)
        header, peak = traced_peak(lambda: subspace._check_ssm(path))
        assert header == {"dim": model.dim, "k": model.k, "rows": model.dim}
        assert peak < 64 * 1024 + 3 * 8 * model.dim

    @pytest.mark.parametrize("payload", [
        b'{"dim": 2, "format_version": 1, "k": 1}\n' + bytes(8 * 5 - 8),
        b'{"dim": 2, "format_version": 1, "k": 1}\n' + bytes(8 * 5 + 1),
        b'{"dim": null, "format_version": 1, "k": 1}\n' + bytes(8 * 5),
        b'{"dim": 2, "format_version": 3, "k": 1}\n' + bytes(8 * 5),
        b'{"dim": 0, "format_version": 1, "k": 0}\n',
        b"[1]\n",
        *BAD_ROWS.values(),
    ], ids=["truncated", "trailing", "null_dim", "version", "zero_dim", "list", *BAD_ROWS])
    def test_check_rejects_what_load_rejects(self, tmp_path, payload):
        path = tmp_path / "model.ssm"
        path.write_bytes(payload)
        with pytest.raises(FileFormatError) as loading:
            subspace.load_ssm(path)
        with pytest.raises(FileFormatError) as checking:
            subspace._check_ssm(path)
        assert str(checking.value) == str(loading.value)

    def test_load_reads_straight_into_arrays(self, tmp_path, traced_peak):
        model = large_model(35)
        path = tmp_path / "big.ssm"
        subspace.save_ssm(model, path)
        back, peak = traced_peak(lambda: subspace.load_ssm(path))
        assert peak <= 1.1 * model.basis.nbytes
        for arr in (back.mean, back.basis, back.singular_values):
            assert arr.dtype == np.float64 and arr.flags.writeable and arr.flags.owndata
        assert back.basis.flags.f_contiguous
        assert np.array_equal(back.mean, model.mean)
        assert np.array_equal(back.basis, model.basis)
        assert np.array_equal(back.singular_values, model.singular_values)
        # A loaded, column-major model saves back to the same bytes.
        again = tmp_path / "again.ssm"
        subspace.save_ssm(back, again)
        assert again.read_bytes() == path.read_bytes()

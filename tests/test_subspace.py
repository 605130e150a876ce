import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shapelift import linalg, subspace
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


def random_data(seed, dim, n):
    return np.random.default_rng(seed).standard_normal((dim, n))


def large_model(seed):
    """An 8000 x 250 model with a row-major basis, the layout ``save_ssm`` copies."""
    rng = np.random.default_rng(seed)
    return subspace.SubspaceModel(
        mean=rng.standard_normal(8000),
        basis=rng.standard_normal((8000, 250)),
        singular_values=np.sort(rng.random(250))[::-1].copy(),
        k_requested=250,
    )


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
        with pytest.raises(InvalidInputError):
            subspace.fit_subspace(data, 4)
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

    def test_overwrite_centers_in_place_with_the_same_model(self):
        data = random_data(25, 300, 40)
        want = subspace.fit_subspace(data, 20)
        got = subspace.fit_subspace(data, 20, _overwrite=True)
        assert np.array_equal(data, random_data(25, 300, 40) - want.mean[:, None])
        for a, b in ((got.mean, want.mean), (got.basis, want.basis),
                     (got.singular_values, want.singular_values)):
            assert np.array_equal(a, b)

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

    def test_interrupted_save_keeps_old_file(self, tmp_path):
        path = tmp_path / "model.ssm"
        model = subspace.fit_subspace(random_data(32, 8, 6), 3)
        subspace.save_ssm(model, path)
        before = path.read_bytes()
        # The header, mean and basis are written before the raise.
        broken = dataclasses.replace(model, singular_values=Unwritable())
        with pytest.raises(RuntimeError, match="write failed"):
            subspace.save_ssm(broken, path)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

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
        path.write_bytes(b'{"dim": 1, "format_version": 2, "k": 0}\n' + bytes(8))
        with pytest.raises(FileFormatError, match="unsupported format version 2"):
            subspace.load_ssm(path)

    def test_version_is_checked_before_other_fields(self, tmp_path):
        # A newer file may name its fields differently; say so, not "bad header".
        path = tmp_path / "model.ssm"
        path.write_bytes(b'{"format_version": 2, "n_dim": 3}\n' + bytes(8))
        with pytest.raises(FileFormatError, match="unsupported format version 2"):
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
        header = '{"dim": 8000, "format_version": 1, "k": 250}\n'
        expected = (header.encode("ascii") + model.mean.tobytes()
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
        model = large_model(37)
        path = tmp_path / "big.ssm"
        subspace.save_ssm(model, path)
        header, peak = traced_peak(lambda: subspace._check_ssm(path))
        assert header == {"dim": model.dim, "k": model.k}
        assert peak < 64 * 1024

    @pytest.mark.parametrize("payload", [
        b'{"dim": 2, "format_version": 1, "k": 1}\n' + bytes(8 * 5 - 8),
        b'{"dim": 2, "format_version": 1, "k": 1}\n' + bytes(8 * 5 + 1),
        b'{"dim": null, "format_version": 1, "k": 1}\n' + bytes(8 * 5),
        b'{"dim": 2, "format_version": 2, "k": 1}\n' + bytes(8 * 5),
        b'{"dim": 0, "format_version": 1, "k": 0}\n',
        b"[1]\n",
    ], ids=["truncated", "trailing", "null_dim", "version", "zero_dim", "list"])
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

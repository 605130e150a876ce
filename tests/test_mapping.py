import json

import numpy as np
import pytest

from shapelift import mapping as mp
from shapelift import linalg, pipeline, subspace
from shapelift.config import DatasetManifest, ExperimentConfig
from shapelift.errors import (
    FileFormatError,
    InvalidInputError,
    NumericalFailureError,
)
from shapelift.mapping import MlpMap, TrainSchedule

LOWDIM = ExperimentConfig(mapping="lowdim")


class Unwritable:
    """Stands in for an array; converting it to one fails mid-save."""

    def __array__(self, *args, **kwargs):
        raise RuntimeError("write failed")


def linear_net(w):
    """Single-layer linear network computing w @ x."""
    w = np.asarray(w, dtype=np.float64)
    return MlpMap(w.shape[::-1], [w], [np.zeros(w.shape[0])], activation="linear")


def rng_net(seed, sizes):
    rng = np.random.default_rng(seed)
    weights = [mp.glorot_uniform(rng, sizes[l + 1], sizes[l])
               for l in range(len(sizes) - 1)]
    biases = [rng.standard_normal(sizes[l + 1]) for l in range(len(sizes) - 1)]
    return MlpMap(tuple(sizes), weights, biases)


def reference_forward(m, x):
    """Loop-based second implementation of the forward pass."""
    out = np.empty((m.layer_sizes[-1], x.shape[1]))
    for col in range(x.shape[1]):
        h = x[:, col]
        for l, (w, b) in enumerate(zip(m.weights, m.biases)):
            h = w @ h + b
            if l < len(m.weights) - 1 and m.activation == "tanh":
                h = np.tanh(h)
        out[:, col] = h
    return out


class TestSchedule:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TrainSchedule(((0.0, 10),))
        with pytest.raises(InvalidInputError):
            TrainSchedule(((0.1, -1),))
        with pytest.raises(InvalidInputError):
            TrainSchedule(batch_size=0)

    @pytest.mark.parametrize("epochs", [2.5, 0.5, float("nan"), float("inf")])
    def test_epoch_count_must_be_an_integer(self, epochs):
        # int() would have trained 2.5 as 2 epochs without a word.
        with pytest.raises(InvalidInputError, match="must be an integer"):
            TrainSchedule(((1e-3, epochs),))

    def test_integral_epoch_counts_become_ints(self):
        schedule = TrainSchedule(((1e-3, 2.0), (1e-4, np.int64(3))))
        assert schedule.learning_rate_phases == ((1e-3, 2), (1e-4, 3))
        assert all(type(e) is int for _, e in schedule.learning_rate_phases)


class TestLinearMap:
    def test_identity_on_full_rank(self):
        y = np.random.default_rng(0).standard_normal((4, 9))
        lm = mp.fit_linear_map(y, y)
        assert lm.layer_sizes == (4, 4)
        assert lm.activation == "linear"
        assert not lm.biases[0].any()
        np.testing.assert_allclose(lm.weights[0], np.eye(4), atol=1e-10)

    def test_scaling(self):
        y = np.random.default_rng(1).standard_normal((3, 8))
        lm = mp.fit_linear_map(y, 3.0 * y)
        np.testing.assert_allclose(lm.weights[0], 3.0 * np.eye(3), atol=1e-10)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((5, 20))
        b = rng.standard_normal((7, 20))
        lm = mp.fit_linear_map(y, b)
        oracle = b @ y.T @ np.linalg.inv(y @ y.T)
        np.testing.assert_allclose(lm.weights[0], oracle, atol=1e-8)


class TestLinearPipeline:
    def _models(self, seed, d=6, p=5, k=3, kp=2, n=12):
        rng = np.random.default_rng(seed)
        img_model = subspace.fit_subspace(rng.standard_normal((d, n)), k)
        shape_model = subspace.fit_subspace(rng.standard_normal((p, n)), kp)
        return img_model, shape_model

    def test_mean_image_maps_to_mean_shape(self):
        img_model, shape_model = self._models(3)
        lm = linear_net(np.random.default_rng(4).standard_normal((2, 3)))
        out = pipeline.predict(LOWDIM, (img_model, shape_model), lm, img_model.mean)
        np.testing.assert_allclose(out, shape_model.mean, atol=1e-12)

    def test_hand_built_chain(self):
        # Everything exactly representable so the expected value is a plain
        # hand calculation: code = basis.T (x - mean) = (1.5, -1),
        # mapped = t @ code = (2*1.5, 0.5*(-1)) = (3, -0.5),
        # out = mean_z + basis_z @ mapped = (1+3, 1, 1-0.5, 1).
        img_model = subspace.SubspaceModel(
            mean=np.zeros(4),
            basis=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
            singular_values=np.array([1.0, 1.0]), k_requested=2)
        shape_model = subspace.SubspaceModel(
            mean=np.ones(4),
            basis=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            singular_values=np.array([1.0, 1.0]), k_requested=2)
        lm = linear_net(np.diag([2.0, 0.5]))
        out = pipeline.predict(LOWDIM, (img_model, shape_model), lm,
                               np.array([1.5, -1.0, 7.0, 9.0]))
        np.testing.assert_array_equal(out, np.array([4.0, 1.0, 0.5, 1.0]))

    def test_dimension_chain_errors(self):
        img_model, shape_model = self._models(5)
        models = (img_model, shape_model)
        wrong_cols = linear_net(np.zeros((2, 4)))
        with pytest.raises(InvalidInputError):
            pipeline.predict(LOWDIM, models, wrong_cols, img_model.mean)
        wrong_rows = linear_net(np.zeros((3, 3)))
        with pytest.raises(InvalidInputError):
            pipeline.predict(LOWDIM, models, wrong_rows, img_model.mean)

    def test_full_rank_equivalence_with_direct(self):
        # With k = rank of the centered data on both sides, the subspace
        # route on training inputs equals the mean-removed direct fit.
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            d, p, n = 8, 6, 5
            x = rng.standard_normal((d, n))
            z = rng.standard_normal((p, n))
            img_model = subspace.fit_subspace(x, n - 1)
            shape_model = subspace.fit_subspace(z, n - 1)
            lm = mp.fit_linear_map(img_model.encode(x), shape_model.encode(z))
            ours = pipeline.predict(LOWDIM, (img_model, shape_model), lm, x)
            xc = x - x.mean(axis=1)[:, None]
            zc = z - z.mean(axis=1)[:, None]
            direct = mp.fit_direct_map(xc, zc)
            theirs = z.mean(axis=1)[:, None] + mp.mlp_forward(direct, xc)
            err = np.linalg.norm(ours - theirs) / max(np.linalg.norm(theirs), 1.0)
            assert err <= 1e-6


class TestDirectMap:
    def test_identity(self):
        x = np.random.default_rng(6).standard_normal((4, 10))
        dm = mp.fit_direct_map(x, x)
        np.testing.assert_allclose(dm.weights[0], np.eye(4), atol=1e-10)

    def test_recovers_permutation(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 12))
        perm = np.eye(5)[[3, 0, 4, 1, 2]]
        dm = mp.fit_direct_map(x, perm @ x)
        np.testing.assert_allclose(dm.weights[0], perm, atol=1e-10)

    def test_interpolation_regime_zero_residual(self):
        # Fewer samples than input dimensions: generic data interpolates.
        rng = np.random.default_rng(8)
        x = rng.standard_normal((20, 6))
        z = rng.standard_normal((9, 6))
        dm = mp.fit_direct_map(x, z)
        assert np.linalg.norm(mp.mlp_forward(dm, x) - z) <= 1e-10


class TestFactoredMap:
    """Closed-form fits store r*(in+out) numbers when that beats in*out."""

    def test_wide_input_with_large_output_factors(self):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((30, 8))
        z = rng.standard_normal((50, 8))
        dm = mp.fit_direct_map(x, z)
        assert dm.layer_sizes == (30, 8, 50)  # 8 * 80 < 30 * 50
        assert dm.activation == "linear"
        assert not any(b.any() for b in dm.biases)
        f = linalg.svd(x)
        np.testing.assert_array_equal(dm.weights[0], (f.u / f.sigma).T)
        np.testing.assert_array_equal(dm.weights[1], z @ f.v)

    @pytest.mark.parametrize("in_d, out_d, n", [(6, 6, 10), (20, 6, 9), (4, 9, 12)],
                             ids=["square", "small_output", "full_rank"])
    def test_stays_one_layer_unless_smaller(self, in_d, out_d, n):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((in_d, n))
        z = rng.standard_normal((out_d, n))
        for fit in (mp.fit_linear_map, mp.fit_direct_map):
            m = fit(x, z)
            assert m.layer_sizes == (in_d, out_d)
            assert np.array_equal(m.weights[0], z @ linalg._pseudo_inverse(x))

    def test_rank_deficient_input_factors_at_its_rank(self):
        rng = np.random.default_rng(42)
        base = rng.standard_normal((30, 5))
        x = np.hstack([base, base[:, :3]])  # 8 samples, rank 5
        z = rng.standard_normal((40, 8))
        dm = mp.fit_direct_map(x, z)
        assert dm.layer_sizes == (30, 5, 40)
        dense = linalg.least_squares(x, z)
        np.testing.assert_allclose(mp.mlp_forward(dm, x), dense @ x,
                                   rtol=1e-12, atol=1e-12 * np.abs(dense @ x).max())

    def test_zero_input_is_the_single_zero_layer(self):
        dm = mp.fit_direct_map(np.zeros((30, 6)), np.ones((40, 6)))
        assert dm.layer_sizes == (30, 40)
        assert not dm.weights[0].any() and not dm.biases[0].any()

    def test_agrees_with_dense_least_squares(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((60, 12))
        z = rng.standard_normal((80, 12))
        dm = mp.fit_direct_map(x, z)
        assert dm.layer_sizes == (60, 12, 80)
        probe = rng.standard_normal((60, 7))
        want = linalg.least_squares(x, z) @ probe
        got = mp.mlp_forward(dm, probe)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.linalg.norm(mp.mlp_forward(dm, x) - z) <= 1e-10

    def test_one_svd_per_fit(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(np.shape(m))
            return real_svd(m)

        real_svd = linalg.svd
        monkeypatch.setattr(linalg, "svd", counted)
        monkeypatch.setattr(mp, "svd", counted)
        rng = np.random.default_rng(44)
        for (in_d, out_d), sizes in (((6, 6), (6, 6)), ((30, 50), (30, 8, 50))):
            calls.clear()
            m = mp.fit_direct_map(rng.standard_normal((in_d, 8)),
                                  rng.standard_normal((out_d, 8)))
            assert m.layer_sizes == sizes
            assert calls == [(in_d, 8)]

    def test_round_trip_is_bit_identical(self, tmp_path, traced_peak):
        rng = np.random.default_rng(45)
        x = rng.standard_normal((3000, 10))
        dm = mp.fit_direct_map(x, rng.standard_normal((4000, 10)))
        assert dm.layer_sizes == (3000, 10, 4000)
        for arr in dm.weights + dm.biases:
            assert arr.flags.c_contiguous
        path = tmp_path / "direct.map"
        payload = (10 * 3000 + 10 + 4000 * 10 + 4000) * 8
        _, peak = traced_peak(lambda: mp.save_map(dm, path))
        assert peak <= 0.1 * payload  # nothing is copied on the way out
        back = mp.load_map(path)
        assert back.layer_sizes == dm.layer_sizes
        probe = rng.standard_normal((3000, 5))
        assert np.array_equal(mp.mlp_forward(back, probe), mp.mlp_forward(dm, probe))

    def test_fit_never_builds_the_dense_product(self, traced_peak):
        rng = np.random.default_rng(46)
        x = rng.standard_normal((400, 20))
        z = rng.standard_normal((5000, 20))
        dm, peak = traced_peak(lambda: mp.fit_direct_map(x, z))
        assert dm.layer_sizes == (400, 20, 5000)
        assert peak <= 0.2 * 400 * 5000 * 8

    def test_dense_direct_map_from_older_versions_still_evaluates(self, tmp_path):
        # Older versions wrote every direct map as one dense linear layer.
        rng = np.random.default_rng(47)
        x = rng.standard_normal((30, 8))
        z = rng.standard_normal((50, 8))
        path = tmp_path / "mapping_direct.map"
        mp.save_map(linear_net(linalg.least_squares(x, z)), path)
        old = mp.load_map(path)
        assert old.layer_sizes == (30, 50)
        cfg = ExperimentConfig(mapping="direct")
        probe = rng.standard_normal((30, 4))
        got = pipeline.predict(cfg, None, old, probe)
        assert np.array_equal(got, linalg.least_squares(x, z) @ probe)
        new = pipeline.predict(cfg, None, mp.fit_direct_map(x, z), probe)
        assert np.linalg.norm(got - new) <= 1e-12 * np.linalg.norm(got)


# Small datasets of each family: a voxel split leaves many cells empty in
# every shape, a cloud split has no coordinate that is zero in every shape.
KEPT_ROWS_DATASETS = {
    "voxel": DatasetManifest(kinds=("box", "ellipsoid", "cylinder", "torus"), resolution=12,
                             unlabeled_2d=2, unlabeled_3d=2, paired_train=12, paired_test=4,
                             view_count=2, image_size=16, base_seed=9),
    "cloud": DatasetManifest(kinds=("box", "ellipsoid"), representation="cloud",
                             point_count=40, unlabeled_2d=2, unlabeled_3d=2, paired_train=12,
                             paired_test=4, view_count=2, image_size=16, base_seed=9),
}


@pytest.fixture(scope="module")
def paired_splits(tmp_path_factory):
    """{family: ((x_train, z_train), (x_test, z_test))} of KEPT_ROWS_DATASETS."""
    splits = {}
    for family, manifest in KEPT_ROWS_DATASETS.items():
        data = tmp_path_factory.mktemp(family)
        pipeline.generate_dataset(manifest, data)
        splits[family] = tuple(pipeline.load_paired(data, manifest, split, "cycle")[:2]
                               for split in (pipeline.SPLIT_PAIRED_TRAIN,
                                             pipeline.SPLIT_PAIRED_TEST))
    return splits


def write_v2_map(path, sizes, rows, weights, count=None):
    """A version 2 ``.map`` file written by hand: ``count`` (default
    len(rows)) in the header, then ``rows`` and each weight with a zero bias."""
    header = {"activation": "linear", "format_version": 2, "layer_sizes": list(sizes),
              "rows": len(rows) if count is None else count}
    payload = np.asarray(rows, "<f8").tobytes()
    for w in weights:
        payload += np.asarray(w, "<f8").tobytes() + bytes(8 * len(w))
    path.write_bytes((json.dumps(header, sort_keys=True) + "\n").encode() + payload)


class TestKeptRows:
    """The factored fit computes only the target rows that are not zero in
    every sample; the others predict +0.0."""

    def test_predictions_keep_the_bits_of_the_full_product(self, paired_splits):
        (x, z), (x_test, _) = paired_splits["voxel"]
        assert z.dtype == np.bool_
        dm = mp.fit_direct_map(x, z)
        empty = ~z.any(axis=1)
        assert 0 < empty.sum() < len(z)
        assert dm.layer_sizes == (x.shape[0], x.shape[1], len(z))
        assert np.array_equal(dm.rows, np.flatnonzero(~empty))
        # The map on every row: the full product, each layer plus its zero bias.
        f = linalg.svd(x)
        w1 = np.ascontiguousarray((f.u / f.sigma).T)
        w2 = z.astype(np.float64) @ f.v
        assert dm.weights[0].tobytes() == w1.tobytes()
        assert dm.weights[1].tobytes() == w2[dm.rows].tobytes()
        for probe in (x, x_test):
            want = w2 @ (w1 @ probe + 0.0) + 0.0
            got = mp.mlp_forward(dm, probe)
            assert got.tobytes() == want.tobytes()
            assert not got[empty].any() and not np.signbit(got[empty]).any()

    def test_float_targets_with_no_zero_row_keep_every_row(self, paired_splits, tmp_path):
        (x, z), _ = paired_splits["cloud"]
        assert z.dtype == np.float64 and (z != 0).any(axis=1).all()
        dm = mp.fit_direct_map(x, z)
        assert dm.layer_sizes == (x.shape[0], x.shape[1], len(z)) and dm.rows is None
        assert dm.weights[1].tobytes() == (z @ linalg.svd(x).v).tobytes()
        mp.save_map(dm, tmp_path / "cloud.map")
        header = json.loads((tmp_path / "cloud.map").read_bytes().split(b"\n")[0])
        assert header["format_version"] == 1 and "rows" not in header

    def test_float_rows_of_signed_zeros_are_dropped(self):
        rng = np.random.default_rng(48)
        z = rng.standard_normal((40, 6))
        z[3], z[7] = 0.0, -0.0
        dm = mp.fit_direct_map(rng.standard_normal((20, 6)), z)
        assert dm.rows.tolist() == [r for r in range(40) if r not in (3, 7)]

    def test_version_1_file_loads_and_predicts_the_same_bits(self, tmp_path):
        rng = np.random.default_rng(49)
        w1, w2 = rng.standard_normal((3, 5)), rng.standard_normal((7, 3))
        path = tmp_path / "v1.map"
        header = b'{"activation": "linear", "format_version": 1, "layer_sizes": [5, 3, 7]}\n'
        path.write_bytes(header + w1.tobytes() + bytes(8 * 3) + w2.tobytes() + bytes(8 * 7))
        m = mp.load_map(path)
        assert m.layer_sizes == (5, 3, 7) and m.rows is None
        probe = rng.standard_normal((5, 4))
        assert mp.mlp_forward(m, probe).tobytes() == (w2 @ (w1 @ probe + 0.0) + 0.0).tobytes()

    def test_version_2_round_trip(self, tmp_path):
        rng = np.random.default_rng(50)
        m = MlpMap((5, 3, 9), [rng.standard_normal((3, 5)), rng.standard_normal((4, 3))],
                   [np.zeros(3), rng.standard_normal(4)], activation="linear",
                   rows=np.array([0, 2, 5, 8]))
        path = tmp_path / "v2.map"
        mp.save_map(m, path)
        data = path.read_bytes()
        head, _, payload = data.partition(b"\n")
        assert json.loads(head) == {"activation": "linear", "format_version": 2,
                                    "layer_sizes": [5, 3, 9], "rows": 4}
        assert payload[:32] == np.array([0.0, 2.0, 5.0, 8.0], "<f8").tobytes()
        back = mp.load_map(path)
        assert back.rows.tolist() == [0, 2, 5, 8]
        probe = rng.standard_normal((5, 3))
        out = mp.mlp_forward(back, probe)
        assert out.tobytes() == mp.mlp_forward(m, probe).tobytes()
        assert np.array_equal(out[[0, 2, 5, 8]], m.weights[1] @ (m.weights[0] @ probe)
                              + m.biases[1][:, None])
        assert not out[[1, 3, 4, 6, 7]].any()

    @pytest.mark.parametrize("rows, count, message", [
        ([0, 2, 2], None, "row indices must be strictly increasing integers in [0, 6)"),
        ([3, 1, 4], None, "row indices must be strictly increasing integers in [0, 6)"),
        ([0, 6, 1], None, "row indices must be strictly increasing integers in [0, 6)"),
        ([-1, 0, 1], None, "row indices must be strictly increasing integers in [0, 6)"),
        ([0, 1.5, 2], None, "row indices must be strictly increasing integers in [0, 6)"),
        ([0, 1, 2], 7, "need 0 <= rows <= 6 outputs, got rows=7"),
        ([0, 1, 2], 4, "unexpected end of file"),
        ([0, 1, 2], 2, "trailing data"),
    ], ids=["repeated", "unsorted", "too_large", "negative", "fractional", "count_above_out",
            "truncated", "trailing"])
    def test_strict_reader(self, tmp_path, rows, count, message):
        path = tmp_path / "bad.map"
        kept = len(rows) if count is None else count
        write_v2_map(path, (4, 2, 6), rows, [np.ones((2, 4)), np.ones((kept, 2))], count)
        with pytest.raises(FileFormatError) as err:
            mp.load_map(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("rows, shape", [
        ([0.0, 2.0], (2, 3)), ([2, 0], (2, 3)), ([0, 5], (2, 3)), ([0, 1], (3, 3))],
        ids=["float", "unsorted", "out_of_range", "wrong_last_layer"])
    def test_constructor_takes_only_what_a_file_can_hold(self, rows, shape):
        with pytest.raises(InvalidInputError):
            MlpMap((4, 3, 5), [np.zeros((3, 4)), np.zeros(shape)],
                   [np.zeros(3), np.zeros(shape[0])], rows=np.array(rows))

    def test_gradients_need_every_output_row(self):
        m = MlpMap((4, 3, 5), [np.ones((3, 4)), np.ones((2, 3))], [np.zeros(3), np.zeros(2)],
                   rows=np.array([1, 3]))
        x, t = np.ones((4, 6)), np.ones((5, 6))
        message = "gradients need every output row, but the map computes 2 of 5"
        with pytest.raises(InvalidInputError, match=message):
            mp.mlp_gradients(m, x, t)
        with pytest.raises(InvalidInputError, match=message):
            mp._sgd(m, x, t, TrainSchedule(((0.1, 1),)), np.random.default_rng(0))

    def test_fit_promotes_only_the_kept_rows_of_a_bool_split(self, traced_peak):
        # 20 000 cells, of which only the first 4 000 are ever filled.
        rng = np.random.default_rng(51)
        x = rng.standard_normal((50, 20))
        z = np.zeros((20000, 20), dtype=bool)
        z[:4000] = rng.random((4000, 20)) < 0.5
        dm, peak = traced_peak(lambda: mp.fit_direct_map(x, z))
        assert peak < z.size * 8  # below the split's float64 copy
        assert dm.layer_sizes == (50, 20, 20000) and len(dm.rows) == 4000


def reference_gradients(m, x, t):
    """Out-of-place form of ``mlp_gradients``; it must match bit for bit."""
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
    return grad_w, grad_b, loss


def reference_train(sizes, y, b, schedule):
    """Out-of-place form of ``mlp_train``'s SGD loop.

    Returns the trained net and, per epoch, the list of (batch loss, batch
    size) pairs in batch order.
    """
    n = y.shape[1]
    rng = np.random.default_rng(schedule.seed)
    weights = [mp.glorot_uniform(rng, sizes[l + 1], sizes[l])
               for l in range(len(sizes) - 1)]
    biases = [np.zeros(sizes[l + 1]) for l in range(len(sizes) - 1)]
    m = MlpMap(sizes, weights, biases)
    batches = []
    for rate, epochs in schedule.learning_rate_phases:
        for _ in range(epochs):
            perm = rng.permutation(n)
            epoch_batches = []
            for start in range(0, n, schedule.batch_size):
                idx = perm[start:start + schedule.batch_size]
                gw, gb, loss = reference_gradients(m, y[:, idx], b[:, idx])
                epoch_batches.append((loss, len(idx)))
                for l in range(len(m.weights)):
                    m.weights[l] -= rate * gw[l]
                    m.biases[l] -= rate * gb[l]
            batches.append(epoch_batches)
    return m, batches


class TestMlpForward:
    def test_zero_network_outputs_zero(self):
        m = MlpMap((3, 4, 2), [np.zeros((4, 3)), np.zeros((2, 4))],
                   [np.zeros(4), np.zeros(2)])
        assert not mp.mlp_forward(m, np.ones(3)).any()

    def test_single_layer_matches_linear_map(self):
        t = np.random.default_rng(9).standard_normal((4, 3))
        m = linear_net(t)
        code = np.random.default_rng(10).standard_normal((3, 6))
        np.testing.assert_array_equal(mp.mlp_forward(m, code), t @ code)

    def test_matches_reference_implementation(self):
        m = rng_net(11, (5, 8, 4, 6))
        x = np.random.default_rng(12).standard_normal((5, 9))
        np.testing.assert_allclose(mp.mlp_forward(m, x), reference_forward(m, x),
                                   atol=1e-12)

    def test_rejects_empty_layer(self):
        with pytest.raises(InvalidInputError, match="layer sizes must be >= 1"):
            MlpMap((3, 0), [np.zeros((0, 3))], [np.zeros(0)])

    def test_input_dimension_check(self):
        m = rng_net(13, (4, 3))
        with pytest.raises(InvalidInputError):
            mp.mlp_forward(m, np.zeros(5))

    @pytest.mark.parametrize("code", [np.float64(5.0), np.zeros((4, 2, 2))])
    def test_scalar_or_3d_input_raises(self, code):
        with pytest.raises(InvalidInputError, match=r"a vector or a \(4, n\) matrix"):
            mp.mlp_forward(rng_net(13, (4, 3)), code)

    @pytest.mark.parametrize("sizes, activation", [
        ((6, 9, 5, 4), "tanh"), ((30, 7, 60), "linear"), ((6, 4), "linear"),
    ])
    def test_vector_is_bit_identical_to_its_single_column(self, sizes, activation):
        m = rng_net(44, sizes)
        m.activation = activation
        x = np.random.default_rng(45).standard_normal((sizes[0], 5))
        for j in range(x.shape[1]):
            got = mp.mlp_forward(m, x[:, j])
            assert got.shape == (sizes[-1],)
            assert np.array_equal(got, mp.mlp_forward(m, x[:, j:j + 1])[:, 0])

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("sizes, activation", [
        ((7, 13, 5), "tanh"), ((1000, 200, 300), "linear"), ((30, 4), "linear"),
    ])
    def test_bool_columns_keep_the_bits_of_their_float64_copy(self, order, sizes,
                                                              activation):
        m = rng_net(46, sizes)
        m.activation = activation
        occupancy = np.asarray(np.random.default_rng(47).random((sizes[0], 300)) < 0.3,
                               order=order)
        for x in (occupancy, occupancy[:, 0], occupancy[:, 7]):
            assert (mp.mlp_forward(m, x).tobytes()
                    == mp.mlp_forward(m, x.astype(np.float64)).tobytes())


class TestMlpGradients:
    def test_zero_at_perfect_fit(self):
        t = np.random.default_rng(14).standard_normal((3, 4))
        m = linear_net(t)
        x = np.random.default_rng(15).standard_normal((4, 7))
        g = mp.mlp_gradients(m, x, t @ x)
        assert g.loss <= 1e-24
        for gw, gb in zip(g.weights, g.biases):
            assert np.abs(gw).max() <= 1e-12
            assert np.abs(gb).max() <= 1e-12

    def test_single_layer_closed_form(self):
        rng = np.random.default_rng(16)
        w = rng.standard_normal((3, 5))
        m = MlpMap((5, 3), [w.copy()], [np.zeros(3)], activation="linear")
        x = rng.standard_normal((5, 8))
        t = rng.standard_normal((3, 8))
        g = mp.mlp_gradients(m, x, t)
        expected = 2.0 * (w @ x - t) @ x.T / 8
        np.testing.assert_allclose(g.weights[0], expected, atol=1e-12)

    def test_finite_differences(self):
        m = rng_net(17, (10, 8, 12))
        rng = np.random.default_rng(18)
        x = rng.standard_normal((10, 5))
        t = rng.standard_normal((12, 5))
        g = mp.mlp_gradients(m, x, t)
        step = 1e-5
        for l in range(len(m.weights)):
            flat_idx = [(0, 0), (m.weights[l].shape[0] - 1,
                                 m.weights[l].shape[1] - 1), (1, 1)]
            for i, j in flat_idx:
                orig = m.weights[l][i, j]
                m.weights[l][i, j] = orig + step
                up = mp.mlp_gradients(m, x, t).loss
                m.weights[l][i, j] = orig - step
                down = mp.mlp_gradients(m, x, t).loss
                m.weights[l][i, j] = orig
                fd = (up - down) / (2 * step)
                assert abs(g.weights[l][i, j] - fd) <= 1e-4 * max(abs(fd), 1e-8)

    def test_batch_mismatch(self):
        m = rng_net(19, (3, 2))
        with pytest.raises(InvalidInputError):
            mp.mlp_gradients(m, np.zeros((3, 4)), np.zeros((2, 5)))

    @pytest.mark.parametrize("batch_in, batch_target", [
        (np.float64(1.0), np.zeros(2)), (np.zeros(3), np.float64(1.0)),
    ])
    def test_scalar_input_or_target_raises(self, batch_in, batch_target):
        with pytest.raises(InvalidInputError, match="must be a vector or a"):
            mp.mlp_gradients(rng_net(19, (3, 2)), batch_in, batch_target)

    @pytest.mark.parametrize("sizes, activation", [
        ((6, 9, 5, 4), "tanh"), ((6, 9, 4), "linear"), ((6, 4), "linear"),
    ])
    def test_bit_identical_to_out_of_place_form(self, sizes, activation):
        m = rng_net(40, sizes)
        m.activation = activation
        rng = np.random.default_rng(41)
        x = rng.standard_normal((sizes[0], 11))
        t = rng.standard_normal((sizes[-1], 11))
        g = mp.mlp_gradients(m, x, t)
        grad_w, grad_b, loss = reference_gradients(m, x, t)
        assert g.loss == loss
        for got, want in zip(g.weights + g.biases, grad_w + grad_b):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("sizes, activation", [((7, 13, 5), "tanh"),
                                                   ((13, 5), "linear")])
    def test_bool_columns_keep_the_bits_of_their_float64_copies(self, order, sizes,
                                                                activation):
        m = rng_net(48, sizes)
        m.activation = activation
        rng = np.random.default_rng(49)
        x = np.asarray(rng.random((sizes[0], 300)) < 0.3, order=order)
        t = np.asarray(rng.random((sizes[-1], 300)) < 0.5, order=order)
        got = mp.mlp_gradients(m, x, t)
        want = mp.mlp_gradients(m, x.astype(np.float64), t.astype(np.float64))
        assert got.loss == want.loss
        for g, w in zip(got.weights + got.biases, want.weights + want.biases):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("sizes, activation, columns", [
        ((5, 7, 3), "tanh", 6),
        ((5, 7, 3), "tanh", None),  # 1-D input and 1-D target
        ((5, 7, 3), "linear", 6),
        ((5, 3), "linear", None),
    ])
    def test_does_not_mutate_arguments(self, sizes, activation, columns):
        m = rng_net(42, sizes)
        m.activation = activation
        rng = np.random.default_rng(43)
        shape_in = (sizes[0],) if columns is None else (sizes[0], columns)
        shape_out = (sizes[-1],) if columns is None else (sizes[-1], columns)
        x = rng.standard_normal(shape_in)
        t = rng.standard_normal(shape_out)
        before = [a.copy() for a in (x, t, *m.weights, *m.biases)]
        mp.mlp_gradients(m, x, t)
        for got, want in zip((x, t, *m.weights, *m.biases), before):
            assert np.array_equal(got, want)


class TestMlpTrain:
    def test_learns_linear_relation_close_to_closed_form(self):
        # Noisy linear relation at moderate code amplitude, so tanh runs in
        # its near-linear regime and the noise sets a nonzero floor the
        # closed-form fit also pays.  The rates are scaled up from the
        # dataset-sized reference schedule because this toy's code variance
        # is far smaller.
        rng = np.random.default_rng(20)
        t_true = rng.standard_normal((6, 4))
        y = 0.3 * rng.standard_normal((4, 120))
        b = t_true @ y + 0.05 * rng.standard_normal((6, 120))
        schedule = TrainSchedule(((0.05, 1500), (0.01, 500)), batch_size=40, seed=5)
        result = mp.mlp_train((4, 10, 6), (y, b), schedule)
        closed = mp.fit_linear_map(y, b)
        mlp_rmse = np.sqrt(((mp.mlp_forward(result.map, y) - b) ** 2).mean())
        closed_rmse = np.sqrt(((mp.mlp_forward(closed, y) - b) ** 2).mean())
        assert mlp_rmse <= closed_rmse * 1.1

    def test_zero_epochs_returns_initialization(self):
        y = np.random.default_rng(21).standard_normal((3, 10))
        b = np.random.default_rng(22).standard_normal((2, 10))
        schedule = TrainSchedule(((0.1, 0),), batch_size=4, seed=77)
        result = mp.mlp_train((3, 5, 2), (y, b), schedule)
        rng = np.random.default_rng(77)
        expected_w0 = mp.glorot_uniform(rng, 5, 3)
        expected_w1 = mp.glorot_uniform(rng, 2, 5)
        np.testing.assert_array_equal(result.map.weights[0], expected_w0)
        np.testing.assert_array_equal(result.map.weights[1], expected_w1)
        assert not result.map.biases[0].any()
        assert result.loss_history.size == 0

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(23)
        y = rng.standard_normal((4, 30))
        b = rng.standard_normal((3, 30))
        schedule = TrainSchedule(((0.01, 40),), batch_size=7, seed=9)
        a = mp.mlp_train((4, 6, 3), (y, b), schedule)
        c = mp.mlp_train((4, 6, 3), (y, b), schedule)
        for wa, wc in zip(a.map.weights, c.map.weights):
            assert np.array_equal(wa, wc)
        assert np.array_equal(a.loss_history, c.loss_history)

    def test_full_batch_convex_loss_non_increasing(self):
        rng = np.random.default_rng(24)
        y = rng.standard_normal((5, 40))
        b = rng.standard_normal((3, 40))
        schedule = TrainSchedule(((1e-4, 300),), batch_size=40, seed=1)
        result = mp.mlp_train((5, 3), (y, b), schedule)
        assert (np.diff(result.loss_history) <= 1e-12).all()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_reports_epoch(self):
        rng = np.random.default_rng(25)
        y = rng.standard_normal((4, 20))
        b = rng.standard_normal((3, 20))
        schedule = TrainSchedule(((1e6, 50),), batch_size=5, seed=2)
        with pytest.raises(NumericalFailureError, match="epoch"):
            mp.mlp_train((4, 6, 3), (y, b), schedule)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_in_last_step_reports_epoch(self):
        # One full-batch step: the only minibatch loss is taken before the
        # step and is finite, so only the final full-data check can see the
        # weights it leaves behind diverge.
        rng = np.random.default_rng(25)
        y = rng.standard_normal((4, 20))
        b = rng.standard_normal((3, 20))
        schedule = TrainSchedule(((1e300, 1),), batch_size=20, seed=2)
        with pytest.raises(NumericalFailureError, match="epoch"):
            mp.mlp_train((4, 6, 3), (y, b), schedule)

    def test_bit_identical_to_out_of_place_loop(self):
        rng = np.random.default_rng(44)
        y = rng.standard_normal((4, 23))
        b = rng.standard_normal((3, 23))
        # 23 % 5 != 0, so every epoch ends with a partial batch of 3.
        schedule = TrainSchedule(((0.05, 12), (0.005, 9)), batch_size=5, seed=3)
        result = mp.mlp_train((4, 7, 5, 3), (y, b), schedule)
        expected, _ = reference_train((4, 7, 5, 3), y, b, schedule)
        for got, want in zip(result.map.weights + result.map.biases,
                             expected.weights + expected.biases):
            assert np.array_equal(got, want)

    def test_full_batch_loss_history_starts_at_initial_mse(self):
        rng = np.random.default_rng(45)
        y = rng.standard_normal((4, 30))
        b = rng.standard_normal((3, 30))
        schedule = TrainSchedule(((0.05, 3),), batch_size=64, seed=6)
        result = mp.mlp_train((4, 6, 3), (y, b), schedule)
        init_rng = np.random.default_rng(6)
        init = MlpMap((4, 6, 3), [mp.glorot_uniform(init_rng, 6, 4),
                                  mp.glorot_uniform(init_rng, 3, 6)],
                      [np.zeros(6), np.zeros(3)])
        err = mp.mlp_forward(init, y) - b
        # Same sum over a permuted column order: equal up to summation roundoff.
        np.testing.assert_allclose(result.loss_history[0], (err * err).sum() / 30,
                                   rtol=1e-13)

    def test_minibatch_loss_history_is_weighted_mean_of_batch_losses(self):
        rng = np.random.default_rng(46)
        y = rng.standard_normal((4, 23))
        b = rng.standard_normal((3, 23))
        schedule = TrainSchedule(((0.05, 6), (0.01, 4)), batch_size=5, seed=8)
        result = mp.mlp_train((4, 7, 3), (y, b), schedule)
        _, batches = reference_train((4, 7, 3), y, b, schedule)
        expected = [sum(loss * size for loss, size in epoch) / 23 for epoch in batches]
        assert result.loss_history.shape == (10,)
        np.testing.assert_allclose(result.loss_history, expected, rtol=1e-13)

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            mp.mlp_train((3, 2), (np.zeros((4, 5)), np.zeros((2, 5))),
                         TrainSchedule(((0.1, 1),)))


class TestMapFormat:
    def test_round_trip_exact(self, tmp_path):
        m = rng_net(26, (60, 100, 40))
        path = tmp_path / "net.map"
        mp.save_map(m, path)
        back = mp.load_map(path)
        assert back.layer_sizes == m.layer_sizes
        assert back.activation == "tanh"
        for wa, wb in zip(m.weights, back.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(m.biases, back.biases):
            assert np.array_equal(ba, bb)

    def test_linear_map_round_trip(self, tmp_path):
        rng = np.random.default_rng(27)
        lm = mp.fit_linear_map(rng.standard_normal((3, 8)), rng.standard_normal((5, 8)))
        path = tmp_path / "linear.map"
        mp.save_map(lm, path)
        back = mp.load_map(path)
        assert back.layer_sizes == (3, 5)
        assert back.activation == "linear"
        assert np.array_equal(back.weights[0], lm.weights[0])
        assert not back.biases[0].any()

    @pytest.mark.parametrize("sizes", [[0, 0], [-1, 1], [3, 0, 2]])
    def test_non_positive_layer_size(self, tmp_path, sizes):
        path = tmp_path / "net.map"
        header = {"activation": "linear", "format_version": 1, "layer_sizes": sizes}
        path.write_bytes((json.dumps(header) + "\n").encode() + bytes(64))
        with pytest.raises(FileFormatError, match="layer sizes must be >= 1"):
            mp.load_map(path)

    @pytest.mark.parametrize("header", [
        {"activation": "linear", "format_version": 1, "layer_sizes": 5},
        {"activation": "linear", "format_version": 1, "layer_sizes": [None, 2]},
        {"activation": "linear", "format_version": None, "layer_sizes": [2, 2]},
        {"activation": "linear", "layer_sizes": [2, 2]},
        [1, 2],
        {"activation": "linear", "format_version": 1, "layer_sizes": "12"},
        {"activation": "linear", "format_version": 1, "layer_sizes": [2.5, 2]},
        {"activation": None, "format_version": 1, "layer_sizes": [2, 2]},
        {"activation": 5, "format_version": 1, "layer_sizes": [2, 2]},
    ], ids=["scalar_sizes", "null_size", "null_version", "no_version", "list",
            "string_sizes", "float_size", "null_activation", "number_activation"])
    def test_bad_header_types(self, tmp_path, header):
        path = tmp_path / "net.map"
        path.write_bytes((json.dumps(header) + "\n").encode() + bytes(48))
        with pytest.raises(FileFormatError, match="bad mapping header"):
            mp.load_map(path)

    def test_version_is_checked_before_other_fields(self, tmp_path):
        # A newer file may name its fields differently; say so, not "bad header".
        path = tmp_path / "net.map"
        path.write_bytes(b'{"format_version": 3, "n_dim": 3}\n' + bytes(8))
        with pytest.raises(FileFormatError, match="unsupported format version 3"):
            mp.load_map(path)

    def test_interrupted_save_keeps_old_file(self, tmp_path):
        path = tmp_path / "net.map"
        mp.save_map(rng_net(30, (4, 3)), path)
        before = path.read_bytes()
        m = rng_net(31, (4, 5, 3))
        m.biases[-1] = Unwritable()  # raises after the header and three arrays
        with pytest.raises(RuntimeError, match="write failed"):
            mp.save_map(m, path)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_save_writes_nothing(self, tmp_path, value):
        m = rng_net(34, (4, 5, 3))
        m.weights[1][2, 3] = value
        path = tmp_path / "net.map"
        with pytest.raises(InvalidInputError, match="net.map: non-finite value"):
            mp.save_map(m, path)
        assert list(tmp_path.iterdir()) == []
        # An earlier file under that name keeps its bytes.
        mp.save_map(rng_net(35, (4, 3)), path)
        before = path.read_bytes()
        with pytest.raises(InvalidInputError, match="non-finite value"):
            mp.save_map(m, path)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_load_raises(self, tmp_path, value):
        path = tmp_path / "net.map"
        mp.save_map(rng_net(36, (4, 3)), path)
        path.write_bytes(path.read_bytes()[:-8] + np.array([value], "<f8").tobytes())
        with pytest.raises(FileFormatError, match="net.map: non-finite value"):
            mp.load_map(path)

    def test_finite_values_whose_sum_overflows_round_trip(self, tmp_path):
        m = MlpMap((2, 3), [np.full((3, 2), 1e308)], [np.full(3, -1e308)])
        path = tmp_path / "net.map"
        mp.save_map(m, path)
        back = mp.load_map(path)
        assert np.array_equal(back.weights[0], m.weights[0])
        assert np.array_equal(back.biases[0], m.biases[0])

    def test_truncated(self, tmp_path):
        path = tmp_path / "net.map"
        mp.save_map(rng_net(28, (4, 3)), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FileFormatError, match="unexpected end of file"):
            mp.load_map(path)

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "net.map"
        mp.save_map(rng_net(29, (4, 3)), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FileFormatError, match="trailing"):
            mp.load_map(path)

    def test_huge_header_fails_before_allocating(self, tmp_path):
        path = tmp_path / "huge.map"
        header = {"activation": "linear", "format_version": 1,
                  "layer_sizes": [1000000, 1000000]}
        path.write_bytes((json.dumps(header) + "\n").encode() + bytes(64))
        with pytest.raises(FileFormatError, match="unexpected end of file"):
            mp.load_map(path)

    def test_save_streams_arrays_without_copies(self, tmp_path, traced_peak):
        m = rng_net(32, (1000, 2000))
        payload = (2000 * 1000 + 2000) * 8
        path = tmp_path / "big.map"
        _, peak = traced_peak(lambda: mp.save_map(m, path))
        assert peak <= 0.1 * payload
        header = {"activation": "tanh", "format_version": 1, "layer_sizes": [1000, 2000]}
        expected = (json.dumps(header, sort_keys=True) + "\n").encode("ascii")
        expected += m.weights[0].astype("<f8").tobytes() + m.biases[0].astype("<f8").tobytes()
        assert path.read_bytes() == expected

    def test_load_reads_straight_into_arrays(self, tmp_path, traced_peak):
        m = rng_net(33, (1000, 2000))
        payload = (2000 * 1000 + 2000) * 8
        path = tmp_path / "big.map"
        mp.save_map(m, path)
        back, peak = traced_peak(lambda: mp.load_map(path))
        assert peak <= 1.1 * payload
        for arr in back.weights + back.biases:
            assert arr.dtype == np.float64 and arr.flags.writeable and arr.flags.owndata
        assert back.weights[0].flags.c_contiguous
        assert np.array_equal(back.weights[0], m.weights[0])
        assert np.array_equal(back.biases[0], m.biases[0])

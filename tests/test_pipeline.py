import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from shapelift import mapping as mp
from shapelift import config, pipeline, render, shapes, subspace
from shapelift.config import (
    DatasetManifest,
    ExperimentConfig,
    load_experiment,
    load_manifest,
    write_manifest,
)
from shapelift.errors import InvalidInputError
from shapelift.mapping import MlpMap, TrainSchedule
from shapelift.shapes import PointCloud


SMALL = DatasetManifest(
    kinds=("box", "ellipsoid"),
    resolution=10,
    unlabeled_2d=8,
    unlabeled_3d=8,
    paired_train=4,
    paired_test=2,
    view_count=2,
    image_size=16,
    base_seed=5,
)


def tree_digest(root) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("small") / "data"
    pipeline.generate_dataset(SMALL, root)
    return root


class TestGenerateDataset:
    def test_pair_counting_contract(self, small_dataset):
        rows = pipeline._read_index(small_dataset / "paired_train" / "index.csv")
        assert len(rows) == 4 * 2  # shapes x views

    def test_regeneration_is_bit_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        pipeline.generate_dataset(SMALL, a)
        pipeline.generate_dataset(SMALL, b)
        assert tree_digest(a) == tree_digest(b)

    def test_threaded_generation_matches_serial(self, tmp_path, small_dataset):
        threaded = tmp_path / "threaded"
        pipeline.generate_dataset(SMALL, threaded, threads=4)
        assert tree_digest(threaded) == tree_digest(small_dataset)

    def test_split_ids_are_disjoint(self, small_dataset):
        ids = {}
        for split in ("paired_train", "paired_test", "unlabeled_2d",
                      "unlabeled_3d"):
            rows = pipeline._read_index(small_dataset / split / "index.csv")
            ids[split] = {int(r["shape_id"]) for r in rows}
        test_ids = ids["paired_test"]
        for other in ("paired_train", "unlabeled_2d", "unlabeled_3d"):
            assert not (test_ids & ids[other])

    def test_interrupted_generation_leaves_no_manifest(self, tmp_path, monkeypatch):
        # Both a fresh gen and a rerun over a complete dataset are cut short
        # partway through rendering; neither may read as a dataset.
        root = tmp_path / "cut"
        pipeline.generate_dataset(SMALL, root)
        assert pipeline.read_dataset_manifest(root) == SMALL
        assert not (root / "manifest.cfg.tmp").exists()
        real = render.render_depth
        calls = []

        def render_then_fail(*args, **kwargs):
            calls.append(None)
            if len(calls) > 5:
                raise RuntimeError("interrupted")
            return real(*args, **kwargs)

        monkeypatch.setattr(render, "render_depth", render_then_fail)
        for target in (root, tmp_path / "fresh"):
            calls.clear()
            with pytest.raises(RuntimeError, match="interrupted"):
                pipeline.generate_dataset(SMALL, target)
            assert (target / "paired_train").is_dir()
            with pytest.raises(InvalidInputError):
                pipeline.read_dataset_manifest(target)

    def test_manifest_echo_round_trips(self, small_dataset):
        back = load_manifest(str(small_dataset / "manifest.cfg"))
        assert back == SMALL

    def test_cloud_family_dataset(self, tmp_path):
        manifest = dataclasses.replace(
            SMALL, representation="cloud", point_count=60,
            poses=(-45.0, 0.0, 45.0), view_count=3)
        root = tmp_path / "clouds"
        pipeline.generate_dataset(manifest, root)
        rows = pipeline._read_index(root / "paired_train" / "index.csv")
        assert len(rows) == 4 * 3
        assert sorted({r["yaw"] for r in rows}) == ["-45.0", "0.0", "45.0"]
        cloud = shapes.load_cloud(root / "paired_train" / rows[0]["shape"])
        assert cloud.count == 60


class TestPretrain:
    def test_matches_direct_fit_oracle(self, small_dataset):
        manifest = pipeline.read_dataset_manifest(small_dataset)
        img_model, shape_model = pipeline.pretrain(small_dataset, 3, 4)
        images = pipeline.load_unlabeled_images(small_dataset, manifest)
        vecs = pipeline.load_unlabeled_shapes(small_dataset, manifest)
        expect_img = subspace.fit_subspace(images, 3)
        expect_shape = subspace.fit_subspace(vecs, 4)
        assert np.array_equal(img_model.basis, expect_img.basis)
        assert np.array_equal(img_model.mean, expect_img.mean)
        assert np.array_equal(shape_model.basis, expect_shape.basis)

    def test_oversized_k_shrinks_with_warning(self, small_dataset, caplog):
        with caplog.at_level("WARNING"):
            img_model, shape_model = pipeline.pretrain(small_dataset, 3, 4000)
        assert shape_model.k <= 16
        assert any("shrink" in r.message for r in caplog.records)

    def test_identical_pool_is_rank_zero(self, tmp_path):
        # One distinct shape repeated: centered pool is identically zero.
        manifest = dataclasses.replace(SMALL, kinds=("box",), unlabeled_3d=3)
        root = tmp_path / "degenerate"
        pipeline.generate_dataset(manifest, root)
        vecs = pipeline.load_unlabeled_shapes(root, manifest)
        same = np.tile(vecs[:, :1], (1, 3))
        model = subspace.fit_subspace(same, 2)
        assert model.k == 0
        assert model.shrunk


class TestFitMapping:
    def _models_and_pairs(self, small_dataset, k2=3, k3=4):
        manifest = pipeline.read_dataset_manifest(small_dataset)
        models = pipeline.pretrain(small_dataset, k2, k3)
        x, z, ids = pipeline.load_paired(small_dataset, manifest,
                                         pipeline.SPLIT_PAIRED_TRAIN, "all")
        return models, x, z

    def test_lowdim_matches_closed_form(self, small_dataset):
        models, x, z = self._models_and_pairs(small_dataset)
        cfg = ExperimentConfig(k_2d=3, k_3d=4, mapping="lowdim")
        lm = pipeline.fit_mapping(cfg, models, x, z)
        oracle = mp.fit_linear_map(models[0].encode(x), models[1].encode(z))
        assert np.array_equal(lm.weights[0], oracle.weights[0])

    def test_direct_ignores_subspace_dims(self, small_dataset):
        manifest = pipeline.read_dataset_manifest(small_dataset)
        x, z, _ = pipeline.load_paired(small_dataset, manifest,
                                       pipeline.SPLIT_PAIRED_TRAIN, "all")
        small_models = pipeline.pretrain(small_dataset, 2, 2)
        big_models = pipeline.pretrain(small_dataset, 5, 6)
        cfg_a = ExperimentConfig(k_2d=2, k_3d=2, mapping="direct")
        cfg_b = ExperimentConfig(k_2d=5, k_3d=6, mapping="direct")
        map_a = pipeline.fit_mapping(cfg_a, small_models, x, z)
        map_b = pipeline.fit_mapping(cfg_b, big_models, x, z)
        assert np.array_equal(map_a.weights[0], map_b.weights[0])
        pred_a = pipeline.predict(cfg_a, small_models, map_a, x)
        pred_b = pipeline.predict(cfg_b, big_models, map_b, x)
        assert np.array_equal(pred_a, pred_b)

    def test_mlp_deterministic_per_seed(self, small_dataset):
        models, x, z = self._models_and_pairs(small_dataset)
        sched = TrainSchedule(((0.01, 20),), batch_size=4, seed=123)
        cfg = ExperimentConfig(k_2d=3, k_3d=4, mapping="mlp", mlp_hidden=(5,),
                               schedule=sched)
        a = pipeline.fit_mapping(cfg, models, x, z)
        b = pipeline.fit_mapping(cfg, models, x, z)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)


class TestReconstruct:
    def test_mean_image_through_zero_map(self):
        rng = np.random.default_rng(40)
        img_model = subspace.fit_subspace(rng.standard_normal((9, 8)), 3)
        shape_model = subspace.fit_subspace(rng.standard_normal((7, 8)), 2)
        zero_map = MlpMap((3, 2), [np.zeros((2, 3))], [np.zeros(2)], activation="linear")
        out = pipeline.predict(ExperimentConfig(mapping="lowdim"),
                               (img_model, shape_model), zero_map, img_model.mean)
        np.testing.assert_allclose(out, shape_model.mean, atol=1e-12)

    def test_full_rank_training_interpolation(self):
        # k = n - 1 on both sides: the centered row spaces coincide (both
        # are the orthogonal complement of the all-ones vector), so training
        # reconstructions are exact.
        rng = np.random.default_rng(41)
        x = rng.standard_normal((10, 5))
        z = rng.standard_normal((7, 5))
        models = (subspace.fit_subspace(x, 4), subspace.fit_subspace(z, 4))
        cfg = ExperimentConfig(k_2d=4, k_3d=4, mapping="lowdim")
        lm = pipeline.fit_mapping(cfg, models, x, z)
        pred = pipeline.predict(cfg, models, lm, x)
        assert np.linalg.norm(pred - z) / np.linalg.norm(z) <= 1e-6


class TestEvaluateRmse:
    def test_exact_prediction_is_zero(self):
        z = np.random.default_rng(43).standard_normal((6, 4))
        report = pipeline.evaluate_rmse(z, z)
        assert report.average_rmse == 0.0

    def test_hand_arithmetic(self):
        pred = np.array([[3.0], [4.0]])
        truth = np.zeros((2, 1))
        report = pipeline.evaluate_rmse(pred, truth)
        assert abs(report.average_rmse - np.sqrt(25.0 / 2.0)) <= 1e-12

    def test_average_of_per_sample_values(self):
        truth = np.zeros((4, 2))
        pred = np.zeros((4, 2))
        pred[:, 0] = 1.0  # per-sample rmse 1
        pred[:, 1] = 3.0  # per-sample rmse 3
        report = pipeline.evaluate_rmse(pred, truth)
        np.testing.assert_allclose(report.per_sample_rmse, [1.0, 3.0])
        assert abs(report.average_rmse - 2.0) <= 1e-12
        assert abs(report.average_rmse - report.per_sample_rmse.mean()) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            pipeline.evaluate_rmse(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(InvalidInputError):
            pipeline.evaluate_rmse(np.zeros((3, 2)), np.zeros((3, 2)),
                                   sample_ids=["only-one"])


class TestHeatmap:
    def _family_pair(self, seed, delta=(0.0, 0.0, 0.0)):
        spec = shapes.ShapeSpec("ellipsoid", {"cx": 0.5, "cy": 0.5, "cz": 0.5,
                                              "rx": 0.2, "ry": 0.25, "rz": 0.3})
        truth = shapes.generate_point_shape(spec, 200)
        moved = PointCloud(truth.points + np.asarray(delta),
                           correspondence_id=truth.correspondence_id)
        return moved, truth

    def test_identical_clouds_are_zero_both_modes(self):
        pred, truth = self._family_pair(0)
        assert not pipeline.heatmap(pred, truth, "corresponded").errors.any()
        assert pipeline.heatmap(pred, truth, "nearest").errors.max() <= 1e-12

    def test_translation_gives_constant_error(self):
        pred, truth = self._family_pair(1, delta=(0.015, 0.0, 0.0))
        hm = pipeline.heatmap(pred, truth, "corresponded")
        np.testing.assert_allclose(hm.errors, 0.015, atol=1e-12)

    def test_nearest_never_exceeds_corresponded(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            truth = PointCloud(rng.random((40, 3)), correspondence_id="f:40")
            pred = PointCloud(np.clip(truth.points +
                                      0.05 * rng.standard_normal((40, 3)), 0, 1),
                              correspondence_id="f:40")
            corr = pipeline.heatmap(pred, truth, "corresponded").errors
            near = pipeline.heatmap(pred, truth, "nearest").errors
            assert (near <= corr + 1e-12).all()

    def test_corresponded_requires_matched_family(self):
        rng = np.random.default_rng(45)
        a = PointCloud(rng.random((10, 3)), correspondence_id="fam:10")
        b = PointCloud(rng.random((12, 3)), correspondence_id="fam:12")
        with pytest.raises(InvalidInputError):
            pipeline.heatmap(a, b, "corresponded")
        c = PointCloud(rng.random((10, 3)), correspondence_id="other:10")
        with pytest.raises(InvalidInputError):
            pipeline.heatmap(a, c, "corresponded")

    def test_export_round_trip(self, tmp_path):
        pred, truth = self._family_pair(2, delta=(0.0, 0.01, 0.0))
        hm = pipeline.heatmap(pred, truth, "corresponded")
        path = tmp_path / "heat.ply"
        pipeline.export_heatmap(hm, truth, path)
        pts, extras, corr = shapes.read_ply(path)
        assert np.array_equal(pts, truth.points)
        assert np.array_equal(extras["error"], hm.errors)
        assert corr == truth.correspondence_id


class TestMethodAgreement:
    def test_all_three_agree_at_full_rank_on_linear_data(self):
        # Z = B X + noise with more samples than input dims and k at full
        # rank: every method can only fit the same linear relation, so test
        # errors all sit at the noise floor.  Amplitude 0.1 keeps the MLP's
        # tanh units in their near-linear range.
        rng = np.random.default_rng(31)
        d, p, n = 12, 9, 80
        b_true = rng.standard_normal((p, d))
        x = 0.1 * rng.standard_normal((d, n))
        z = b_true @ x + 0.1 * rng.standard_normal((p, n))
        x_test = 0.1 * rng.standard_normal((d, 30))
        z_test = b_true @ x_test + 0.1 * rng.standard_normal((p, 30))
        models = (subspace.fit_subspace(x, d), subspace.fit_subspace(z, p))
        sched = TrainSchedule(((0.1, 3000), (0.02, 1000)), batch_size=40, seed=5)
        rmses = {}
        for method in ("lowdim", "direct", "mlp"):
            cfg = ExperimentConfig(k_2d=d, k_3d=p, mapping=method,
                                   mlp_hidden=(16,), schedule=sched)
            map_obj = pipeline.fit_mapping(cfg, models, x, z)
            pred = pipeline.predict(cfg, models, map_obj, x_test)
            rmses[method] = pipeline.evaluate_rmse(pred, z_test).average_rmse
        values = sorted(rmses.values())
        assert values[-1] <= 1.10 * values[0], rmses


class TestConfigFiles:
    def test_defaults_without_file_sections(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("[dataset]\nbase_seed = 7\n")
        manifest = load_manifest(str(path))
        assert manifest.base_seed == 7
        assert manifest.resolution == 30
        config = load_experiment(str(path))
        assert config.mapping == "lowdim"
        assert config.schedule.learning_rate_phases == ((1e-3, 1000), (1e-5, 1000))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[dataset]\nresolutionn = 30\n")
        with pytest.raises(InvalidInputError, match="unknown keys"):
            load_manifest(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[datasets]\nresolution = 30\n")
        with pytest.raises(InvalidInputError, match="unknown section"):
            load_manifest(str(path))

    def test_phase_parsing(self, tmp_path):
        path = tmp_path / "sched.cfg"
        path.write_text("[schedule]\nrates = 0.01:5 0.001:7\nbatch_size = 3\n")
        config = load_experiment(str(path))
        assert config.schedule.learning_rate_phases == ((0.01, 5), (0.001, 7))
        assert config.schedule.batch_size == 3

    def test_explicit_poses(self, tmp_path):
        path = tmp_path / "poses.cfg"
        path.write_text("[dataset]\nposes = -45 0 45\nview_count = 3\n")
        manifest = load_manifest(str(path))
        assert manifest.yaws == (-45.0, 0.0, 45.0)

    def test_manifest_write_read_round_trip(self, tmp_path):
        path = tmp_path / "manifest.cfg"
        write_manifest(SMALL, path)
        assert load_manifest(str(path)) == SMALL

    def test_manifest_round_trip_every_field_off_default(self, tmp_path):
        manifest = DatasetManifest(
            kinds=("composite", "torus"), representation="cloud", resolution=12,
            point_count=50, unlabeled_2d=3, unlabeled_3d=4, paired_train=5,
            paired_test=6, view_count=2, poses=(-45.0, 0.1, 1e-20), image_size=9,
            base_seed=3,
        )
        default = DatasetManifest()
        for field in dataclasses.fields(DatasetManifest):
            assert getattr(manifest, field.name) != getattr(default, field.name)
        path = tmp_path / "manifest.cfg"
        write_manifest(manifest, path)
        assert load_manifest(str(path)) == manifest
        assert "poses = -45.0 0.1 1e-20\n" in path.read_text()

    def test_dataset_keys_are_manifest_fields(self):
        names = [f.name for f in dataclasses.fields(DatasetManifest)]
        assert list(config._KEYS["dataset"]) == names

    def test_experiment_keys_are_config_fields(self):
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert list(config._KEYS["experiment"]) + ["schedule"] == names

    def test_schedule_keys_map_onto_train_schedule(self, tmp_path):
        names = [f.name for f in dataclasses.fields(TrainSchedule)]
        assert names == ["learning_rate_phases", "batch_size", "seed"]
        assert list(config._KEYS["schedule"]) == ["rates", "batch_size", "seed"]
        path = tmp_path / "sched.cfg"
        path.write_text("[schedule]\nrates = 0.5:3\nbatch_size = 7\nseed = 9\n")
        assert load_experiment(str(path)).schedule == TrainSchedule(((0.5, 3),), 7, 9)

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[dataset]\nrepresentation = mesh\n")
        with pytest.raises(InvalidInputError):
            load_manifest(str(path))
        path.write_text("[experiment]\nmapping = cnn\n")
        with pytest.raises(InvalidInputError):
            load_experiment(str(path))

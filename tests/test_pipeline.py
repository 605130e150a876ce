import dataclasses
import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest

from shapelift import mapping as mp
from shapelift import config, linalg, pipeline, render, shapes, subspace
from shapelift.cli import main
from shapelift.config import (
    DatasetManifest,
    ExperimentConfig,
    load_experiment,
    load_manifest,
    with_mapping,
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
        x, z, ids = pipeline.load_paired(small_dataset, SMALL,
                                         pipeline.SPLIT_PAIRED_TRAIN, "all")
        assert x.shape == (16 * 16, 4 * 2)  # shapes x views
        assert z.shape == (10 ** 3, 4 * 2)
        assert ids == [f"{sid:05d}_v{view}" for sid in range(4) for view in range(2)]
        for j in range(0, 8, 2):
            assert np.array_equal(z[:, j], z[:, j + 1])

    @pytest.mark.parametrize("policy", ["cycle", "all"])
    def test_paired_voxel_shapes_are_bool_and_cloud_shapes_float64(
            self, small_dataset, tmp_path, policy):
        # One byte per voxel cell, in the paired splits and the shape pool alike.
        clouds = dataclasses.replace(SMALL, representation="cloud", point_count=60,
                                     poses=(-45.0, 0.0, 45.0), view_count=3)
        pipeline.generate_dataset(clouds, tmp_path)
        for manifest, root, dtype in ((SMALL, small_dataset, np.bool_),
                                      (clouds, tmp_path, np.float64)):
            x, z, ids = pipeline.load_paired(root, manifest, pipeline.SPLIT_PAIRED_TRAIN,
                                             policy)
            assert x.dtype == np.float64 and z.dtype == dtype and z.flags.c_contiguous
            assert z.nbytes == z.size * np.dtype(dtype).itemsize
            for j, pair in enumerate(ids):
                want = shapes.vectorize_shape(pipeline._shape_for_id(manifest, int(pair[:5])))
                assert want.dtype == dtype and np.array_equal(z[:, j], want)
            pool = pipeline.load_unlabeled_shapes(root, manifest)
            assert pool.dtype == dtype and pool.flags.c_contiguous

    def test_regeneration_is_bit_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        pipeline.generate_dataset(SMALL, a)
        pipeline.generate_dataset(SMALL, b)
        assert tree_digest(a) == tree_digest(b)

    # sha256 over every file name and byte, recorded when each split's views
    # moved into one views.pgm strip (the rasters, and so every loaded matrix,
    # kept their bytes), and for clouds again when shapes became binary PLY
    # (test_cloud_matrices_kept_their_bytes).  Any change to a dataset file's
    # bytes fails here.
    @pytest.mark.parametrize("manifest, digest", [
        (SMALL, "ef58c29552ad195439a3c5736f6109fbbfbaae2b18c0f91406b88334e393ad58"),
        (dataclasses.replace(SMALL, kinds=shapes.ALL_KINDS, resolution=16, view_count=3),
         "97c3b46de2d231f77f0687015def1985626d5103b60cf2301bd6aba7ab49f986"),
        (dataclasses.replace(SMALL, representation="cloud", point_count=60,
                             poses=(-45.0, 0.0, 45.0), view_count=3),
         "5aee2efa81d06fa258bb9debbb56d9c3f41ffe235890db2b4d99ec3216052291"),
    ], ids=["voxel", "voxel_all_kinds", "cloud"])
    def test_golden_digest(self, tmp_path, manifest, digest):
        pipeline.generate_dataset(manifest, tmp_path / "data")
        assert tree_digest(tmp_path / "data") == digest

    def test_cloud_matrices_kept_their_bytes(self, tmp_path):
        # sha256 of the loaded matrices, recorded while clouds were still
        # ASCII PLY: the binary files must load to the same bits.
        manifest = dataclasses.replace(SMALL, representation="cloud", point_count=60,
                                       poses=(-45.0, 0.0, 45.0), view_count=3)
        pipeline.generate_dataset(manifest, tmp_path)
        h = hashlib.sha256(pipeline.load_unlabeled_shapes(tmp_path, manifest).tobytes())
        for split in (pipeline.SPLIT_PAIRED_TRAIN, pipeline.SPLIT_PAIRED_TEST):
            x, z, _ = pipeline.load_paired(tmp_path, manifest, split, "cycle")
            h.update(x.tobytes())
            h.update(z.tobytes())
        assert h.hexdigest() == (
            "ff07a662d63f3b7a35ca23c90032a63340a48cd6766d6238484c841036883e76")

    def test_split_ids_are_disjoint(self, small_dataset):
        blocks = pipeline._id_blocks(SMALL)
        assert list(blocks) == ["paired_train", "paired_test", "unlabeled_2d",
                                "unlabeled_3d"]
        ids = {split: set(block) for split, block in blocks.items()}
        for split in ("paired_train", "paired_test", "unlabeled_3d"):
            named = {int(p.name[4:9]) for p in (small_dataset / split).glob("shp_*")}
            assert named == ids[split]
        test_ids = ids["paired_test"]
        for other in ("paired_train", "unlabeled_2d", "unlabeled_3d"):
            assert not (test_ids & ids[other])

    def test_one_strip_per_image_split_and_one_file_per_shape(self, small_dataset):
        # A per-view image writer must not come back unnoticed.
        want = {"manifest.cfg"}
        for split, block in pipeline._id_blocks(SMALL).items():
            if split != pipeline.SPLIT_UNLABELED_2D:
                want |= {f"{split}/shp_{sid:05d}.voxr" for sid in block}
            if split != pipeline.SPLIT_UNLABELED_3D:
                want.add(f"{split}/views.pgm")
        files = {p.relative_to(small_dataset).as_posix()
                 for p in small_dataset.rglob("*") if p.is_file()}
        assert files == want
        assert not list(small_dataset.rglob("img_*.pgm"))

    def test_regeneration_removes_stale_samples(self, tmp_path):
        # Fewer paired shapes shift every later id block, so the second gen
        # names other files than the first in every split.
        root = tmp_path / "data"
        pipeline.generate_dataset(dataclasses.replace(SMALL, paired_train=3), root)
        orphan = root / "paired_test" / "img_00003_v0.pgm"  # the older per-view layout
        render.save_pgm(np.zeros((16, 16)), orphan)
        notes = root / "paired_test" / "notes.txt"
        notes.write_text("not a sample")
        # Temp files a killed gen could leave behind.
        for name in ("views.pgm.tmp", "shp_00009.voxr.tmp"):
            (root / "paired_test" / name).write_bytes(b"partial")
        pipeline.generate_dataset(dataclasses.replace(SMALL, paired_train=1), root)
        assert not orphan.exists()
        assert notes.read_text() == "not a sample"
        notes.unlink()
        pipeline.generate_dataset(dataclasses.replace(SMALL, paired_train=1),
                                  tmp_path / "fresh")
        assert tree_digest(root) == tree_digest(tmp_path / "fresh")

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
        assert manifest.yaws == (-45.0, 0.0, 45.0)
        split_dir = root / "paired_train"
        views = []
        for sid in range(4):
            assert shapes.load_cloud(split_dir / f"shp_{sid:05d}.ply").count == 60
            cloud = pipeline._shape_for_id(manifest, sid)
            views += [render.render_depth(cloud, render.Pose(yaw), 16, 16)
                      for yaw in manifest.yaws]
        # The strip is each view's own PGM raster, by sample id, then view.
        expected = tmp_path / "expected.pgm"
        render.save_pgm(np.concatenate(views), expected)
        assert (split_dir / "views.pgm").read_bytes() == expected.read_bytes()
        assert [p.name for p in split_dir.glob("*.pgm")] == ["views.pgm"]
        assert not list(root.rglob("index.csv"))

    def test_manifest_naming_missing_views_fails_loudly(self, tmp_path):
        # A manifest that claims more views than were rendered must not load
        # a smaller split silently.
        root = tmp_path / "mismatch"
        pipeline.generate_dataset(SMALL, root)
        claimed = dataclasses.replace(SMALL, view_count=3)
        write_manifest(claimed, root / "manifest.cfg")
        manifest = pipeline.read_dataset_manifest(root)
        assert manifest == claimed
        with pytest.raises(InvalidInputError, match="paired_train/views.pgm: 16x128 pixels"):
            pipeline.load_paired(root, manifest, pipeline.SPLIT_PAIRED_TRAIN, "cycle")
        with pytest.raises(InvalidInputError, match="paired_train/views.pgm"):
            pipeline.load_paired(root, manifest, pipeline.SPLIT_PAIRED_TRAIN, "all")

    def test_manifest_naming_fewer_views_fails_loudly(self, tmp_path):
        # Fewer views than were rendered would read the first rows of the
        # strip as the wrong samples' views.
        root = tmp_path / "fewer"
        pipeline.generate_dataset(SMALL, root)
        write_manifest(dataclasses.replace(SMALL, view_count=1), root / "manifest.cfg")
        manifest = pipeline.read_dataset_manifest(root)
        for split in (pipeline.SPLIT_PAIRED_TRAIN, pipeline.SPLIT_PAIRED_TEST):
            with pytest.raises(InvalidInputError, match=f"{split}/views.pgm"):
                pipeline.load_paired(root, manifest, split, "cycle")
        with pytest.raises(InvalidInputError, match="unlabeled_2d/views.pgm"):
            pipeline.load_unlabeled_images(root, manifest)

    def test_stray_index_files_are_ignored(self, small_dataset, tmp_path):
        root = tmp_path / "old_layout"
        shutil.copytree(small_dataset, root)
        # Index files an older version wrote (here deliberately wrong) are ignored.
        for split in pipeline._id_blocks(SMALL):
            (root / split / "index.csv").write_text("shape_id,view\n99999,7\n")
        for split in (pipeline.SPLIT_PAIRED_TRAIN, pipeline.SPLIT_PAIRED_TEST):
            for policy in ("cycle", "all"):
                got = pipeline.load_paired(root, SMALL, split, policy)
                want = pipeline.load_paired(small_dataset, SMALL, split, policy)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])
                assert got[2] == want[2]
        assert np.array_equal(pipeline.load_unlabeled_images(root, SMALL),
                              pipeline.load_unlabeled_images(small_dataset, SMALL))
        assert np.array_equal(pipeline.load_unlabeled_shapes(root, SMALL),
                              pipeline.load_unlabeled_shapes(small_dataset, SMALL))


class TestColumnMatrix:
    def test_matches_column_stack(self):
        cols = list(np.random.default_rng(50).standard_normal((7, 13)))
        got = pipeline._column_matrix(cols.__getitem__, range(7))
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, np.column_stack(cols))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 300])
    def test_matches_column_stack_across_block_edges(self, n):
        assert pipeline._FILL_BLOCK == 64
        cols = list(np.random.default_rng(n).standard_normal((n, 11)))
        got = pipeline._column_matrix(cols.__getitem__, range(n))
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == np.column_stack(cols).tobytes()

    def test_fill_peak_is_the_matrix_plus_one_block(self, traced_peak):
        dim, n = 3000, 300
        cols = list(np.random.default_rng(51).standard_normal((n, dim)))
        matrix, peak = traced_peak(
            lambda: pipeline._column_matrix(cols.__getitem__, range(n)))
        block_bytes = pipeline._FILL_BLOCK * dim * 8
        assert peak <= matrix.nbytes + block_bytes + 64 * 1024

    def test_fills_a_bool_matrix_from_bool_columns(self, traced_peak):
        # The voxel route: bool occupancy columns fill a bool matrix, one
        # byte per cell, through a bool block.
        dim, n = 3000, 300
        cols = list(np.random.default_rng(52).random((n, dim)) < 0.3)
        matrix, peak = traced_peak(
            lambda: pipeline._column_matrix(cols.__getitem__, range(n)))
        assert matrix.dtype == np.bool_ and matrix.flags.c_contiguous
        assert matrix.tobytes() == np.column_stack(cols).tobytes()
        assert peak <= matrix.nbytes + pipeline._FILL_BLOCK * dim + 64 * 1024

    def test_empty_split_raises_value_error_as_column_stack_does(self):
        with pytest.raises(ValueError):
            np.column_stack([])
        with pytest.raises(ValueError):
            pipeline._column_matrix(lambda item: np.zeros(3), [])

    def test_column_of_another_length_is_rejected(self):
        # Writing into the matrix would broadcast a one-value column.
        cols = [np.zeros(3), np.zeros(1)]
        with pytest.raises(InvalidInputError, match="1 values"):
            pipeline._column_matrix(cols.__getitem__, range(2))

    def test_missing_pool_file_is_an_os_error(self, small_dataset, tmp_path):
        root = tmp_path / "gap"
        shutil.copytree(small_dataset, root)
        (root / "unlabeled_2d" / "views.pgm").unlink()
        (root / "unlabeled_3d" / "shp_00020.voxr").unlink()
        with pytest.raises(OSError, match=r"rerun `shapelift gen`.*unlabeled_2d/views\.pgm"):
            pipeline.load_unlabeled_images(root, SMALL)
        with pytest.raises(OSError, match="shp_00020.voxr"):
            pipeline.load_unlabeled_shapes(root, SMALL)


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

    def test_oversized_k_is_fit_subspace_on_the_pool(self, small_dataset, caplog):
        # fit_subspace alone shrinks k: pretrain hands it the request as given.
        manifest = pipeline.read_dataset_manifest(small_dataset)
        with caplog.at_level("WARNING", logger="shapelift"):
            models = pipeline.pretrain(small_dataset, 4000, 400)
        assert len(caplog.records) == 2
        pools = (pipeline.load_unlabeled_images(small_dataset, manifest),
                 pipeline.load_unlabeled_shapes(small_dataset, manifest))
        for model, pool, k in zip(models, pools, (4000, 400)):
            expect = subspace.fit_subspace(pool, k)
            assert (model.k_requested, model.k) == (k, expect.k)
            assert model.shrunk and model.k < min(pool.shape)
            for got, want in ((model.mean, expect.mean), (model.basis, expect.basis),
                              (model.singular_values, expect.singular_values)):
                assert got.tobytes() == want.tobytes()

    def test_traced_peak_holds_one_pool_and_its_basis(self, tmp_path, traced_peak):
        # The image pool is fitted and dropped first; the shape pool is
        # centered in place and the basis is the Ritz step's own buffer, so
        # the peak is the pool, the basis and one Ritz block of temporaries.
        manifest = dataclasses.replace(
            SMALL, kinds=shapes.ALL_KINDS, resolution=20, unlabeled_2d=4,
            unlabeled_3d=200, paired_train=1, paired_test=1, view_count=1, image_size=8)
        root = tmp_path / "pool"
        pipeline.generate_dataset(manifest, root)
        (_, shape_model), peak = traced_peak(lambda: pipeline.pretrain(root, 2, 200))
        shape_dim = manifest.resolution ** 3
        pool_bytes = shape_dim * manifest.unlabeled_3d * 8
        block_bytes = linalg._RITZ_BLOCK * shape_dim * 8
        assert shape_model.k == 199
        assert peak <= 1.25 * (pool_bytes + shape_model.basis.nbytes + block_bytes)

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


class TestGoldenArtifacts:
    CONFIG = ExperimentConfig(k_2d=3, k_3d=6, mlp_hidden=(5,), pair_policy="all",
                              schedule=TrainSchedule(((0.01, 30),), batch_size=4, seed=3))

    # sha256 of every model, map and report that the pretrain, fit and eval
    # stages and compare_methods write.  Every file but compare.csv was
    # recorded before the pools were centered in place and the fitted basis
    # kept column-major.  compare.csv was recorded after: before, the compare
    # route alone encoded and decoded through a row-major basis, and on these
    # small problems BLAS rounds that differently in the last bit (voxel
    # lowdim and cloud mlp test RMSE), so it disagreed with eval_*.csv.
    # Every voxel file but the direct ones was pinned again when the pool
    # fits began to skip the rows that center to zero: the Gram sums lose
    # only exact-zero terms, but in another order (lowdim test RMSE
    # ...866014 -> ...866012).  Every .ssm was pinned again for format
    # version 2, which stores the kept rows and the basis on them alone, and
    # every report and map that encodes through a model with dropped rows
    # (both image models, the voxel shape model) for its sum over the kept
    # rows alone (voxel lowdim test RMSE ...866012 -> ...866014, cloud lowdim
    # train RMSE ...53308 -> ...53309); the voxel maps and every direct file
    # kept their bits.  The voxel direct map was pinned again for `.map`
    # format version 2, which stores only the output rows that some
    # paired-train shape fills; its predictions, and so every report, kept
    # their bits.
    @pytest.mark.parametrize("manifest, digests", [
        (SMALL, {
            "compare.csv": "a570a2823674e2aa731dc117ba42c6a5ff168aba4c6d4837a58ae3d5ca919dca",
            "eval_direct.csv": "0209efaeb68e16e3e2c4a4b28d053ffcc1043c166c542ea9b2b58b4af5ce8272",
            "eval_lowdim.csv": "37258db4248545b57627d2295ffd53f788fc0452007d81199288966e2cff6985",
            "eval_mlp.csv": "cf7482c3206c4d3012d44819ac03e4f0a20bb820a5430ce01b4867f4c6fd5a27",
            "image_model.ssm": "5bd60436f28cf3aab992f8e09f8eb616c1e92da19c48e094e30171e933146e7d",
            "mapping_direct.map":
                "bd9b8a4eefa20c6b1bf42c9276ab97399c033edd9df65c224926e5bbb4d7dae3",
            "mapping_lowdim.map":
                "ed49f0156a22765fab0243700015d548127fff3f6383721c935db4b0abf63d7c",
            "mapping_mlp.map": "0a37e9ca50935d7e05622902b1b8c30a283f24c3478cf77f46f3ecaca5eba40c",
            "shape_model.ssm": "708702f3cb72aba1c9aa9b863151a2ba1eefad8787bd5c50f818367bef0ebf20",
        }),
        (dataclasses.replace(SMALL, representation="cloud", point_count=60,
                             poses=(-45.0, 0.0, 45.0), view_count=3), {
            "compare.csv": "d8bcf6b9825255f5d7a07923602c3231adb884799c6a09e47dded064474f25bc",
            "eval_direct.csv": "73b00c90da9f988e62bcd46cb2a13f7b9ae37c6b542deb6abe62e7b9d9b7680b",
            "eval_lowdim.csv": "6d4deab7eb4df0cc6feda264a1e6200e29462adc31fd0e09622970a1e1e25b42",
            "eval_mlp.csv": "36cc1c28a4fab78d898e325b52e3ae822d1519d0618cf1be2ff61980c760857c",
            "image_model.ssm": "76aea0c7746910ac703cf713b658f6f3f33bd43265eb3f35b8a0359480de774a",
            "mapping_direct.map":
                "d6eaebf2dfd04b1a614bd28a81491583202f44f150a71c613bfea876a21b9ffa",
            "mapping_lowdim.map":
                "7360ba635eb2d09ca0b7a9da9730e8421291d9300e035d18824e32b2343ced54",
            "mapping_mlp.map": "b6b2394baa210d75d5ccc28b0eb9ae0c850816a1b27d731d6702efe705f0f326",
            "shape_model.ssm": "1a4840084040adf85bf8f7f20b17bc98b22020fb0ac8783346a0aabbc75df527",
        }),
    ], ids=["voxel", "cloud"])
    def test_artifact_digests(self, tmp_path, manifest, digests):
        data, out = tmp_path / "data", tmp_path / "out"
        out.mkdir()
        pipeline.generate_dataset(manifest, data)
        # As the CLI does: pretrain saves the models, fit and eval load them.
        fitted = pipeline.pretrain(data, self.CONFIG.k_2d, self.CONFIG.k_3d)
        for model, name in zip(fitted, ("image_model.ssm", "shape_model.ssm")):
            subspace.save_ssm(model, out / name)
        models = (subspace.load_ssm(out / "image_model.ssm"),
                  subspace.load_ssm(out / "shape_model.ssm"))
        staged = {}
        for method in ("lowdim", "direct", "mlp"):
            cfg = with_mapping(self.CONFIG, method)
            x, z, _ = pipeline.load_paired(data, manifest, pipeline.SPLIT_PAIRED_TRAIN,
                                           cfg.pair_policy)
            mp.save_map(pipeline.fit_mapping(cfg, models, x, z), out / f"mapping_{method}.map")
            x, z, ids = pipeline.load_paired(data, manifest, pipeline.SPLIT_PAIRED_TEST,
                                             cfg.pair_policy)
            pred = pipeline.predict(cfg, models, mp.load_map(out / f"mapping_{method}.map"), x)
            report = pipeline.evaluate_rmse(pred, z, ids)
            pipeline.write_evaluation_csv(report, out / f"eval_{method}.csv")
            staged[method] = report.average_rmse
        result = pipeline.compare_methods(self.CONFIG, data)
        pipeline.write_comparison_csv(result, out / "compare.csv")
        # The in-memory route reproduces the staged one exactly.
        assert {row.method: row.test_rmse for row in result.rows} == staged
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
        assert got == digests


# TestGoldenArtifacts' two small families, each with its pinned digests.
GOLDEN_CASES = TestGoldenArtifacts.test_artifact_digests.pytestmark[0].args[1]


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestCliStages:
    @pytest.mark.parametrize("manifest, digests", GOLDEN_CASES, ids=["voxel", "cloud"])
    def test_fit_and_eval_reproduce_the_pinned_digests(self, tmp_path, manifest, digests):
        # `shapelift fit` and `eval` on their own files keep the bits of the
        # library route that the digests were pinned on.
        c = TestGoldenArtifacts.CONFIG
        cfg = tmp_path / "golden.cfg"
        cfg.write_text(
            f"[experiment]\nk_2d = {c.k_2d}\nk_3d = {c.k_3d}\n"
            f"mlp_hidden = {' '.join(map(str, c.mlp_hidden))}\n"
            f"pair_policy = {c.pair_policy}\n[schedule]\n"
            f"rates = {' '.join(f'{rate}:{n}' for rate, n in c.schedule.learning_rate_phases)}\n"
            f"batch_size = {c.schedule.batch_size}\nseed = {c.schedule.seed}\n")
        assert load_experiment(str(cfg)) == c
        data, out = tmp_path / "data", tmp_path / "out"
        pipeline.generate_dataset(manifest, data)
        args = ["--config", str(cfg), "--data", str(data), "--out", str(out)]
        assert main(["pretrain"] + args) == 0
        names = ["image_model.ssm", "shape_model.ssm"]
        for method in ("lowdim", "direct", "mlp"):
            assert main(["fit"] + args + ["--method", method]) == 0
            assert main(["eval"] + args + ["--method", method]) == 0
            names += [f"mapping_{method}.map", f"eval_{method}.csv"]
        assert {n: _sha256(out / n) for n in names} == {n: digests[n] for n in names}


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

    @pytest.mark.parametrize("manifest", [case[0] for case in GOLDEN_CASES],
                             ids=["voxel", "cloud"])
    def test_loaded_split_keeps_the_bits_of_its_float64_copy(self, tmp_path, manifest):
        # A voxel split loads as bool; every method fits and scores it to the
        # bits of its float64 copy, and leaves it as loaded (compare_methods
        # scores z_train after fitting on it).
        pipeline.generate_dataset(manifest, tmp_path)
        c = TestGoldenArtifacts.CONFIG
        models = pipeline.pretrain(tmp_path, c.k_2d, c.k_3d)
        loaded = [pipeline.load_paired(tmp_path, manifest, split, c.pair_policy)[:2]
                  for split in (pipeline.SPLIT_PAIRED_TRAIN, pipeline.SPLIT_PAIRED_TEST)]
        dtype = np.bool_ if manifest.representation == "voxel" else np.float64
        assert [z.dtype for _, z in loaded] == [dtype, dtype]
        copies = [(x, z.astype(np.float64)) for x, z in loaded]
        before = [a.tobytes() for split in loaded for a in split]

        def fit_and_score(cfg, splits):
            (x, z), (x_test, z_test) = splits
            m = pipeline.fit_mapping(cfg, models, x, z)
            rmses = [pipeline.evaluate_rmse(pipeline.predict(cfg, models, m, xs), zs)
                     .per_sample_rmse for xs, zs in ((x, z), (x_test, z_test))]
            return [a.tobytes() for a in (*m.weights, *m.biases, *rmses)]

        for method in config.MAPPING_METHODS:
            cfg = with_mapping(c, method)
            assert fit_and_score(cfg, loaded) == fit_and_score(cfg, copies), method
        assert [a.tobytes() for split in loaded for a in split] == before

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

    @pytest.mark.parametrize("method", config.MAPPING_METHODS)
    def test_vector_is_bit_identical_to_its_single_column(self, method):
        # 8 pairs of 30 pixels and 60 coordinates: the direct map is the
        # factored two-layer network.
        rng = np.random.default_rng(42)
        x = rng.standard_normal((30, 8))
        z = rng.standard_normal((60, 8))
        models = (subspace.fit_subspace(x, 4), subspace.fit_subspace(z, 5))
        cfg = ExperimentConfig(k_2d=4, k_3d=5, mapping=method, mlp_hidden=(6,),
                               schedule=TrainSchedule(((0.01, 5),), batch_size=3, seed=2))
        map_obj = pipeline.fit_mapping(cfg, models, x, z)
        for j in range(x.shape[1]):
            got = pipeline.predict(cfg, models, map_obj, x[:, j])
            assert got.shape == (60,)
            assert np.array_equal(
                got, pipeline.predict(cfg, models, map_obj, x[:, j:j + 1])[:, 0])


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

    def test_vector_is_one_sample(self):
        report = pipeline.evaluate_rmse(np.array([3.0, 4.0]), np.zeros(2))
        assert report.sample_ids == ["0"]
        assert report.per_sample_rmse.shape == (1,)

    def test_scalar_inputs_raise(self):
        with pytest.raises(InvalidInputError, match=r"got shape \(\)"):
            pipeline.evaluate_rmse(1.0, 2.0)

    def test_3d_inputs_raise(self):
        with pytest.raises(InvalidInputError, match=r"got shape \(2, 3, 4\)"):
            pipeline.evaluate_rmse(np.zeros((2, 3, 4)), np.ones((2, 3, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            pipeline.evaluate_rmse(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(InvalidInputError):
            pipeline.evaluate_rmse(np.zeros((3, 2)), np.zeros((3, 2)),
                                   sample_ids=["only-one"])

    @staticmethod
    def _whole(pred, truth):
        # The unblocked form: one prediction-sized difference, summed over rows.
        diff = pred - truth
        return np.sqrt(np.square(diff, out=diff).sum(axis=0) / pred.shape[0])

    @pytest.mark.parametrize("dim", [7, 65, 27000])
    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 129, 200])
    def test_blocks_keep_the_bits_of_the_whole_array(self, dim, n):
        assert pipeline._FILL_BLOCK == 64
        rng = np.random.default_rng(dim + n)
        pred, truth = rng.standard_normal((2, dim, n))
        report = pipeline.evaluate_rmse(pred, truth)
        assert report.per_sample_rmse.tobytes() == self._whole(pred, truth).tobytes()
        assert report.average_rmse == float(self._whole(pred, truth).mean())

    @pytest.mark.parametrize("dim", [7, 27000])
    def test_vector_keeps_the_bits_of_the_whole_array(self, dim):
        rng = np.random.default_rng(dim)
        pred, truth = rng.standard_normal((2, dim))
        got = pipeline.evaluate_rmse(pred, truth).per_sample_rmse
        assert got.tobytes() == self._whole(pred[:, None], truth[:, None]).tobytes()

    @pytest.mark.parametrize("layout", [np.asfortranarray, lambda a: a[:, ::2]])
    def test_any_layout_keeps_the_bits_of_its_row_major_copy(self, layout):
        # Column-major or strided inputs are scored as their row-major copies.
        rng = np.random.default_rng(64)
        pred, truth = (layout(a) for a in rng.standard_normal((2, 300, 14)))
        got = pipeline.evaluate_rmse(pred, truth).per_sample_rmse
        want = self._whole(np.ascontiguousarray(pred), np.ascontiguousarray(truth))
        assert got.tobytes() == want.tobytes()

    def test_traced_peak_is_one_block(self, traced_peak):
        dim, n = 8000, 300
        pred, truth = np.random.default_rng(62).standard_normal((2, dim, n))
        _, peak = traced_peak(lambda: pipeline.evaluate_rmse(pred, truth))
        assert peak <= pipeline._FILL_BLOCK * n * 8 + 256 * 1024

    def test_bool_truth_is_promoted_one_block_at_a_time(self, traced_peak):
        # Voxel occupancy is scored with no float64 copy of the whole truth.
        dim, n = 8000, 300
        rng = np.random.default_rng(63)
        pred, truth = rng.standard_normal((dim, n)), rng.random((dim, n)) < 0.3
        _, peak = traced_peak(lambda: pipeline.evaluate_rmse(pred, truth))
        assert peak <= pipeline._FILL_BLOCK * n * 8 + 256 * 1024

    @pytest.mark.parametrize("dim, n", [(7, 1), (27000, 1), (300, 14), (8000, 65)])
    def test_bool_columns_keep_the_bits_of_their_float64_copy(self, dim, n):
        rng = np.random.default_rng(dim + n)
        pred = rng.standard_normal((dim, n))
        truth = rng.random((dim, n)) < 0.3
        cases = [(pred, truth), (truth, pred), (truth, ~truth),
                 (pred[:, 0], truth[:, 0]), (np.asfortranarray(pred), truth.T.copy().T)]
        for a, b in cases:
            got = pipeline.evaluate_rmse(a, b)
            want = pipeline.evaluate_rmse(*(np.asarray(v, np.float64) for v in (a, b)))
            assert got.per_sample_rmse.tobytes() == want.per_sample_rmse.tobytes()
            assert got.average_rmse == want.average_rmse


CLOUD = dataclasses.replace(SMALL, representation="cloud", point_count=60,
                            poses=(-45.0, 0.0, 45.0), view_count=3)


class TestKeptRowScoring:
    """``predict(..., _rows=True)`` scored by ``evaluate_rmse`` keeps the bits
    of scoring the dense prediction that ``predict`` returns."""

    CONFIG = ExperimentConfig(k_2d=3, k_3d=4, mlp_hidden=(5,),
                              schedule=TrainSchedule(((0.01, 20),), batch_size=2, seed=3))

    @staticmethod
    def _assert_same_report(kept, dense, truth):
        columns = dense if dense.ndim == 2 else dense[:, None]
        assert kept.shape == columns.shape and kept.dense().tobytes() == columns.tobytes()
        got, want = pipeline.evaluate_rmse(kept, truth), pipeline.evaluate_rmse(dense, truth)
        assert got.per_sample_rmse.tobytes() == want.per_sample_rmse.tobytes()
        assert got.average_rmse == want.average_rmse

    @pytest.mark.parametrize("manifest, kept", [(SMALL, True), (CLOUD, False)],
                             ids=["voxel", "cloud"])
    @pytest.mark.parametrize("method", config.MAPPING_METHODS)
    def test_each_method_keeps_the_bits_of_the_dense_prediction(
            self, tmp_path, manifest, kept, method):
        # The small voxel family drops rows from the shape model and the
        # direct map; the cloud family keeps every row.
        pipeline.generate_dataset(manifest, tmp_path)
        cfg = with_mapping(self.CONFIG, method)
        models = pipeline.pretrain(tmp_path, cfg.k_2d, cfg.k_3d)
        x, z, _ = pipeline.load_paired(tmp_path, manifest, pipeline.SPLIT_PAIRED_TRAIN)
        map_obj = pipeline.fit_mapping(cfg, models, x, z)
        rows = map_obj.rows if method == "direct" else models[1].rows
        assert (rows is not None) == kept
        for split in (pipeline.SPLIT_PAIRED_TRAIN, pipeline.SPLIT_PAIRED_TEST):
            x, z, _ = pipeline.load_paired(tmp_path, manifest, split)
            for cols in (slice(None), slice(0, 1)):  # every column, and n = 1
                compact = pipeline.predict(cfg, models, map_obj, x[:, cols], _rows=True)
                assert isinstance(compact, linalg._KeptRows)
                assert len(compact.values) == (len(z) if rows is None else len(rows))
                self._assert_same_report(
                    compact, pipeline.predict(cfg, models, map_obj, x[:, cols]), z[:, cols])
            flat = pipeline.predict(cfg, models, map_obj, x[:, 0], _rows=True)
            self._assert_same_report(flat, pipeline.predict(cfg, models, map_obj, x[:, 0]),
                                     z[:, 0])

    @pytest.mark.parametrize("n", [1, 2, 65])
    @pytest.mark.parametrize("rows", [
        np.r_[0:10, 150:190],  # rows 64..127, a whole block, keep nothing
        np.arange(0),  # every row is the fill
        np.r_[63:65, 127:129, 199],  # each side of every block edge
        None,
    ], ids=["empty_block", "no_row", "block_edges", "every_row"])
    def test_blocks_keep_the_bits_of_the_dense_matrix(self, rows, n):
        rng = np.random.default_rng(n)
        dim = 200
        fill = rng.standard_normal(dim)
        kept = linalg._KeptRows(rng.standard_normal((dim if rows is None else len(rows), n)),
                                rows, fill)
        dense = np.repeat(fill[:, None], n, axis=1)
        dense[slice(None) if rows is None else rows] = kept.values
        truth = rng.random((dim, n)) < 0.5
        self._assert_same_report(kept, dense, truth)
        self._assert_same_report(kept, dense, truth * 1.0)

    @pytest.mark.parametrize("values, rows, fill", [
        (np.zeros((3, 2)), np.array([0, 1]), np.zeros(5)),  # 3 value rows, 2 kept rows
        (np.zeros((2, 2)), np.array([0, 5]), np.zeros(5)),  # a row past the fill
        (np.zeros((2, 2)), np.array([1, 0]), np.zeros(5)),  # rows not increasing
        (np.zeros((4, 2)), None, np.zeros(5)),  # every row kept, but 4 of 5 given
        (np.zeros(2), np.array([0, 1]), np.zeros(5)),  # values not a matrix
        (np.zeros((2, 2)), np.array([0, 1]), np.zeros((5, 1))),  # fill not a vector
    ], ids=["count", "range", "order", "every_row", "values_1d", "fill_2d"])
    def test_mismatched_parts_are_rejected(self, values, rows, fill):
        with pytest.raises(InvalidInputError):
            linalg._KeptRows(values, rows, fill)

    def test_a_shape_other_than_the_truth_is_rejected(self):
        kept = linalg._KeptRows(np.zeros((2, 3)), np.array([1, 4]), np.zeros(6))
        with pytest.raises(InvalidInputError, match=r"\(6, 3\) does not match"):
            pipeline.evaluate_rmse(kept, np.zeros((5, 3)))
        with pytest.raises(InvalidInputError, match="empty"):
            pipeline.evaluate_rmse(linalg._KeptRows(np.zeros((2, 0)), np.array([1, 4]),
                                                    np.zeros(6)), np.zeros((6, 0)))


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

    @pytest.mark.parametrize("count", [1, 1023, 1025, 3000])
    def test_nearest_matches_fixed_chunk_loop(self, count):
        rng = np.random.default_rng(count)
        pred = PointCloud(rng.random((count, 3)))
        truth = PointCloud(rng.random((count, 3)))
        expected = np.empty(count)
        for start in range(0, count, 1024):
            block = truth.points[start:start + 1024]
            d2 = ((block[:, None, :] - pred.points[None, :, :]) ** 2).sum(axis=2)
            expected[start:start + 1024] = np.sqrt(d2.min(axis=1))
        assert np.array_equal(pipeline.heatmap(pred, truth, "nearest").errors, expected)

    def test_nearest_peak_does_not_grow_with_prediction(self, traced_peak):
        rng = np.random.default_rng(46)
        pred = PointCloud(rng.random((8000, 3)))
        truth = PointCloud(rng.random((8000, 3)))
        hm, peak = traced_peak(lambda: pipeline.heatmap(pred, truth, "nearest"))
        assert hm.errors.shape == (8000,)
        assert peak < 48 * 2 ** 20

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
        # What `shapelift heatmap` writes: the truth cloud with an error property.
        pred, truth = self._family_pair(2, delta=(0.0, 0.01, 0.0))
        hm = pipeline.heatmap(pred, truth, "corresponded")
        path = tmp_path / "heat.ply"
        shapes.write_ply(path, truth.points, {"error": hm.errors}, truth.correspondence_id)
        pts, extras, corr = shapes.read_ply(path)
        assert np.array_equal(pts, truth.points)
        assert np.array_equal(extras["error"], hm.errors)
        assert corr == truth.correspondence_id


class TestCompareMethods:
    CONFIG = ExperimentConfig(k_2d=5, k_3d=20, mlp_hidden=(4,),
                              schedule=TrainSchedule(((0.01, 2),), batch_size=50, seed=3))

    def test_direct_runs_last_without_models(self, small_dataset, monkeypatch):
        seen = []
        fit = pipeline.fit_mapping

        def spy(config, models, x, z):
            seen.append((config.mapping, models is None))
            return fit(config, models, x, z)

        monkeypatch.setattr(pipeline, "fit_mapping", spy)
        cfg = dataclasses.replace(self.CONFIG, k_2d=3, k_3d=4)
        result = pipeline.compare_methods(cfg, small_dataset)
        assert seen == [("lowdim", False), ("mlp", False), ("direct", True)]
        assert [row.method for row in result.rows] == list(config.MAPPING_METHODS)

    def test_two_calls_return_equal_results(self, small_dataset):
        # A result holds numbers only: no wall clock, so a rerun compares equal.
        cfg = dataclasses.replace(self.CONFIG, k_2d=3, k_3d=4)
        assert (pipeline.compare_methods(cfg, small_dataset)
                == pipeline.compare_methods(cfg, small_dataset))

    def test_traced_peak_holds_no_full_size_temporary(self, tmp_path, traced_peak):
        # While scoring, compare holds the models, the paired splits, one map,
        # one prediction and one scoring block; it drops the models before
        # the direct map, the largest, is fitted.
        manifest = dataclasses.replace(
            SMALL, kinds=shapes.ALL_KINDS, resolution=16, unlabeled_2d=10,
            unlabeled_3d=30, paired_train=300, paired_test=20, view_count=1, image_size=8)
        root = tmp_path / "data"
        pipeline.generate_dataset(manifest, root)
        models = pipeline.pretrain(root, self.CONFIG.k_2d, self.CONFIG.k_3d)
        model_bytes = sum(a.nbytes for model in models
                          for a in (model.mean, model.basis, model.singular_values))
        x, z, _ = pipeline.load_paired(root, manifest, pipeline.SPLIT_PAIRED_TRAIN)
        x_test, z_test, _ = pipeline.load_paired(root, manifest, pipeline.SPLIT_PAIRED_TEST)
        split_bytes = x.nbytes + z.nbytes + x_test.nbytes + z_test.nbytes
        direct = mp.fit_direct_map(x, z)
        map_bytes = sum(a.nbytes for a in (*direct.weights, *direct.biases))
        block_bytes = pipeline._FILL_BLOCK * manifest.paired_train * 8
        prediction_bytes = z.size * 8  # float64, from the bool shapes z
        del models, x, z, x_test, z_test, direct
        # Each shape path that pathlib parses interns its name, and the
        # interpreter's table of interned strings is reallocated now and
        # then (1.9 MB in a full tier-1 run): the smaller peak of two runs
        # is the arrays' alone.
        peak = min(traced_peak(lambda: pipeline.compare_methods(self.CONFIG, root))[1]
                   for _ in range(2))
        assert peak <= 1.1 * (model_bytes + split_bytes + map_bytes + prediction_bytes
                              + block_bytes)

    @pytest.mark.parametrize("method", config.MAPPING_METHODS)
    def test_scoring_a_voxel_split_holds_no_dense_prediction(
            self, tmp_path, traced_peak, monkeypatch, method):
        # The shape model and the direct map keep under half of the cells, so
        # scoring holds one (r, n) prediction and two scoring blocks, below
        # one dense (dim, n) float64 prediction.  The map is fitted first:
        # the direct fit's own peak is not scoring's.
        manifest = dataclasses.replace(
            SMALL, kinds=shapes.ALL_KINDS, resolution=16, unlabeled_2d=10,
            unlabeled_3d=30, paired_train=300, paired_test=20, view_count=1, image_size=24)
        pipeline.generate_dataset(manifest, tmp_path)
        cfg = with_mapping(self.CONFIG, method)
        models = pipeline.pretrain(tmp_path, cfg.k_2d, cfg.k_3d)
        splits = [*pipeline.load_paired(tmp_path, manifest, pipeline.SPLIT_PAIRED_TRAIN)[:2],
                  *pipeline.load_paired(tmp_path, manifest, pipeline.SPLIT_PAIRED_TEST)[:2]]
        z = splits[1]
        map_obj = pipeline.fit_mapping(cfg, models, *splits[:2])
        rows = map_obj.rows if method == "direct" else models[1].rows
        assert len(rows) < z.shape[0] / 2
        monkeypatch.setattr(pipeline, "fit_mapping", lambda *args: map_obj)
        _, peak = traced_peak(lambda: pipeline._score(
            cfg, None if method == "direct" else models, *splits))
        assert peak < z.size * 8


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

    @pytest.mark.parametrize("poses, first, second", [
        ("0 360 -1e-14", "0.0", "360.0"), ("10 45 -315", "45.0", "-315.0")])
    def test_poses_with_one_normalized_yaw_rejected(self, tmp_path, poses, first, second):
        # Each would render the same view twice per shape.
        path = tmp_path / "poses.cfg"
        path.write_text(f"[dataset]\nposes = {poses}\n")
        with pytest.raises(InvalidInputError,
                           match=f"poses {first} and {second} are the same yaw "):
            load_manifest(str(path))

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

    @pytest.mark.parametrize("section, line", [
        ("dataset", "resolution = 3_0"), ("dataset", "base_seed = \uff14\uff12"),
        ("dataset", "paired_train = +4"), ("experiment", "k_2d = \uff16"),
        ("experiment", "mlp_hidden = 8 1_0"), ("schedule", "rates = 0.1:1_0"),
        ("schedule", "batch_size = +4"), ("dataset", "poses = 4_5 \uff13\uff12"),
        ("dataset", "poses = 0 +45"), ("schedule", "rates = 0.0_01:10"),
        ("schedule", "rates = \uff10.1:10"),
    ])
    def test_python_only_integer_spellings_rejected(self, tmp_path, section, line):
        # int() and float() take "3_0", "+4" and full-width digits; the
        # config files do not.
        path = tmp_path / "ints.cfg"
        path.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
        load = load_manifest if section == "dataset" else load_experiment
        with pytest.raises(InvalidInputError,
                           match="invalid literal for int|could not convert string to float"):
            load(str(path))

    def test_negative_and_zero_padded_integers_read(self, tmp_path):
        assert config._int("-3") == -3
        assert config._floats("-45 .5 1e+5 007") == (-45.0, 0.5, 1e5, 7.0)
        path = tmp_path / "ints.cfg"
        path.write_text("[dataset]\nresolution = 012\n")
        assert load_manifest(str(path)).resolution == 12
        path.write_text("[dataset]\nbase_seed = -3\n")
        with pytest.raises(InvalidInputError, match="base_seed"):
            load_manifest(str(path))

    @pytest.mark.parametrize("line", ["rates = nan:10", "rates = inf:10", "seed = -1"])
    def test_bad_schedule_rejected(self, tmp_path, line):
        path = tmp_path / "sched.cfg"
        path.write_text(f"[schedule]\n{line}\n")
        with pytest.raises(InvalidInputError, match="finite and positive|seed -1"):
            load_experiment(str(path))

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[dataset]\nrepresentation = mesh\n")
        with pytest.raises(InvalidInputError):
            load_manifest(str(path))
        path.write_text("[experiment]\nmapping = cnn\n")
        with pytest.raises(InvalidInputError):
            load_experiment(str(path))

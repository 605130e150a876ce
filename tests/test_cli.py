import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shapelift
from shapelift import shapes, subspace
from shapelift.cli import main

SMALL_CFG = """[dataset]
kinds = box ellipsoid cylinder
resolution = 10
unlabeled_2d = 10
unlabeled_3d = 10
paired_train = 6
paired_test = 3
view_count = 2
image_size = 16
base_seed = 21

[experiment]
k_2d = 6
k_3d = 8
mlp_hidden = 6

[schedule]
rates = 0.01:40 0.001:20
batch_size = 3
seed = 4
"""

# Headers that declare an image, grid, model or network with a size below one.
NON_POSITIVE_SIZE_FILES = {
    "negative.pgm": b"P5\n-2 -3\n255\n" + bytes(6),
    "empty.pgm": b"P5\n0 5\n255\n",
    "zero.voxr": b"VOXR 0\n",
    "negative.voxr": b"VOXR -3\n",
    "zero_dim.ssm": b'{"dim": 0, "format_version": 1, "k": 0}\n',
    "zero_sizes.map":
        b'{"activation": "linear", "format_version": 1, "layer_sizes": [0, 0]}\n',
    "negative_size.map":
        b'{"activation": "linear", "format_version": 1, "layer_sizes": [-1, 1]}\n'
        + bytes(8),
}

# Integer header fields that Python's int() takes but the formats do not:
# (file bytes, a fragment of the error).
PYTHON_ONLY_INT_FILES = {
    "underscore.pgm": (b"P5\n3_2 1\n255\n" + bytes(32), "bad PGM header"),
    "plus.pgm": (b"P5\n32 1\n+255\n" + bytes(32), "bad PGM header"),
    "underscore.voxr": (b"VOXR 0_8\n" + bytes(64), "bad resolution field"),
    "plus.voxr": (b"VOXR +8\n" + bytes(64), "bad resolution field"),
}

# PLY headers that are malformed: (line of a good header, its replacement,
# a fragment of the error).
BAD_PLY_HEADERS = {
    "count_not_a_number": (b"element vertex 1", b"element vertex abc", "vertex count 'abc'"),
    "count_negative": (b"element vertex 1", b"element vertex -1", "vertex count '-1'"),
    "count_missing": (b"element vertex 1", b"element vertex", "lacks a field"),
    "element_bare": (b"element vertex 1", b"element", "lacks a field"),
    "property_name_missing": (b"property double z", b"property double", "lacks a field"),
    "property_bare": (b"property double z", b"property", "lacks a field"),
    "non_ascii": (b"format ascii 1.0", b"format ascii 1.0\ncomment \xff", "not an ASCII file"),
}

# JSON headers whose fields have the wrong type, or that are not an object.
BAD_TYPE_HEADERS = {
    "null_dim.ssm": b'{"dim": null, "format_version": 1, "k": 2}\n',
    "infinite_dim.ssm": b'{"dim": Infinity, "format_version": 1, "k": 2}\n',
    "null_version.ssm": b'{"dim": 3, "format_version": null, "k": 2}\n',
    "scalar_sizes.map":
        b'{"activation": "linear", "format_version": 1, "layer_sizes": 5}\n',
    "null_size.map":
        b'{"activation": "linear", "format_version": 1, "layer_sizes": [null, 2]}\n',
    "list.ssm": b"[1, 2]\n",
    "fractional_dim.ssm": b'{"dim": 2.5, "format_version": 1, "k": 1}\n',
    "string_sizes.map":
        b'{"activation": "linear", "format_version": 1, "layer_sizes": "12"}\n',
    "deep.ssm": b'{"dim": ' + b"[" * 100000 + b"]" * 100000 + b"}\n",
    "null_activation.map":
        b'{"activation": null, "format_version": 1, "layer_sizes": [2, 2]}\n',
    "number_activation.map":
        b'{"activation": 5, "format_version": 1, "layer_sizes": [2, 2]}\n',
}

# Headers that declare a model or network far larger than the file.
HUGE_SIZE_FILES = {
    "huge_dim.ssm": b'{"dim": 1000000000000, "format_version": 1, "k": 2}\n' + bytes(64),
    "huge_sizes.map":
        b'{"activation": "linear", "format_version": 1, "layer_sizes": [1000000, 1000000]}\n'
        + bytes(64),
}


def tree_digest(root) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "small.cfg"
    cfg.write_text(SMALL_CFG)
    assert main(["gen", "--config", str(cfg), "--out", str(root / "data")]) == 0
    return root, cfg


class TestGen:
    def test_declared_tree_exists(self, workspace):
        root, _ = workspace
        data = root / "data"
        assert (data / "manifest.cfg").is_file()
        # (shapes, images) per split; the manifest is the only index.
        expected = {"paired_train": (6, 6 * 2), "paired_test": (3, 3 * 2),
                    "unlabeled_2d": (0, 10 * 2), "unlabeled_3d": (10, 0)}
        for split, (n_shapes, n_images) in expected.items():
            assert len(list((data / split).glob("shp_*.voxr"))) == n_shapes
            assert len(list((data / split).glob("img_*_v*.pgm"))) == n_images
            assert len(list((data / split).iterdir())) == n_shapes + n_images
        assert not list(data.rglob("index.csv"))

    def test_seed_override_changes_data(self, workspace, tmp_path):
        root, cfg = workspace
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d2"),
                     "--seed", "99"]) == 0
        assert tree_digest(tmp_path / "d2") != tree_digest(root / "data")

    def test_does_not_mutate_inputs(self, workspace, tmp_path):
        root, cfg = workspace
        before = cfg.read_bytes()
        data_before = tree_digest(root / "data")
        assert main(["compare", "--config", str(cfg), "--data",
                     str(root / "data"), "--out", str(tmp_path / "cmp")]) == 0
        assert cfg.read_bytes() == before
        assert tree_digest(root / "data") == data_before

    @pytest.mark.parametrize("poses", ["0 nan", "inf", "30 -inf 60"])
    def test_non_finite_pose_exit_1_writes_nothing(self, tmp_path, capsys, poses):
        cfg = tmp_path / "poses.cfg"
        cfg.write_text(SMALL_CFG.replace("view_count = 2", f"poses = {poses}"))
        out = tmp_path / "data"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_three_row_csv(self, workspace, tmp_path):
        root, cfg = workspace
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--data",
                     str(root / "data"), "--out", str(out)]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "method,train_rmse,test_rmse,k_2d,k_3d"
        assert [l.split(",")[0] for l in lines[1:]] == ["lowdim", "direct", "mlp"]
        assert (out / "compare.txt").is_file()

    def test_reruns_byte_identical(self, workspace, tmp_path):
        root, cfg = workspace
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["compare", "--config", str(cfg), "--data",
                         str(root / "data"), "--out", str(out),
                         "--threads", "1"]) == 0
        assert (a / "compare.csv").read_bytes() == (b / "compare.csv").read_bytes()


class TestPretrainFitEval:
    def test_full_chain(self, workspace, tmp_path):
        root, cfg = workspace
        art = tmp_path / "art"
        assert main(["pretrain", "--config", str(cfg), "--data",
                     str(root / "data"), "--out", str(art)]) == 0
        assert (art / "image_model.ssm").is_file()
        assert (art / "shape_model.ssm").is_file()
        for method in ("lowdim", "direct", "mlp"):
            assert main(["fit", "--config", str(cfg), "--data",
                         str(root / "data"), "--out", str(art),
                         "--method", method]) == 0
            assert main(["eval", "--config", str(cfg), "--data",
                         str(root / "data"), "--out", str(art),
                         "--method", method]) == 0
            csv_lines = (art / f"eval_{method}.csv").read_text().splitlines()
            assert csv_lines[0] == "pair_id,rmse"
            assert csv_lines[-1].startswith("average,")
        # compare reproduces each staged test average, in the method order.
        assert main(["compare", "--config", str(cfg), "--data",
                     str(root / "data"), "--out", str(art)]) == 0
        rows = [line.split(",") for line in
                (art / "compare.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["lowdim", "direct", "mlp"]
        for method, _, test_rmse, _, _ in rows:
            eval_lines = (art / f"eval_{method}.csv").read_text().splitlines()
            assert eval_lines[-1] == f"average,{test_rmse}"

    def test_eval_dimension_mismatch_exit_1(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        art = tmp_path / "art"
        assert main(["pretrain", "--config", str(cfg), "--data",
                     str(root / "data"), "--out", str(art)]) == 0
        assert main(["fit", "--config", str(cfg), "--data", str(root / "data"),
                     "--out", str(art), "--method", "lowdim"]) == 0
        other_cfg = tmp_path / "width.cfg"
        other_cfg.write_text(SMALL_CFG.replace("image_size = 16",
                                               "image_size = 12"))
        assert main(["gen", "--config", str(other_cfg), "--out",
                     str(tmp_path / "narrow")]) == 0
        capsys.readouterr()
        rc = main(["eval", "--config", str(cfg), "--data",
                   str(tmp_path / "narrow"), "--out", str(art),
                   "--method", "lowdim"])
        err = capsys.readouterr().err.strip()
        assert rc == 1
        assert len(err.splitlines()) == 1
        assert "144" in err and "256" in err

    def test_bad_header_types_exit_1(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        art = tmp_path / "art"
        args = ["--config", str(cfg), "--data", str(root / "data"), "--out", str(art),
                "--method", "lowdim"]
        assert main(["pretrain"] + args[:-2]) == 0
        assert main(["fit"] + args) == 0
        good = (art / "image_model.ssm").read_bytes()
        (art / "image_model.ssm").write_bytes(BAD_TYPE_HEADERS["null_dim.ssm"])
        capsys.readouterr()
        assert main(["fit"] + args) == 1
        assert "bad subspace-model header" in capsys.readouterr().err
        (art / "image_model.ssm").write_bytes(good)
        (art / "mapping_lowdim.map").write_bytes(BAD_TYPE_HEADERS["null_size.map"])
        assert main(["eval"] + args) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "bad mapping header" in err

    def test_manifest_claiming_unrendered_views_exit_1(self, workspace, tmp_path,
                                                       capsys):
        root, cfg = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        args = ["--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "art")]
        assert main(["pretrain"] + args) == 0
        manifest = (data / "manifest.cfg").read_text()
        assert "view_count = 2\n" in manifest
        (data / "manifest.cfg").write_text(manifest.replace("view_count = 2\n",
                                                            "view_count = 3\n"))
        capsys.readouterr()
        assert main(["fit"] + args) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "img_00002_v2.pgm" in err

    def test_fit_without_models_exit_1(self, workspace, tmp_path):
        root, cfg = workspace
        assert main(["fit", "--config", str(cfg), "--data", str(root / "data"),
                     "--out", str(tmp_path / "nothing")]) == 1

    def test_failed_fit_leaves_no_directory(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        out = tmp_path / "new_dir"
        assert main(["fit", "--config", str(cfg), "--data", str(root / "data"),
                     "--out", str(out), "--method", "lowdim"]) == 1
        assert "no pretrained models" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_numerical_failure_exit_2(self, workspace, tmp_path):
        root, cfg = workspace
        bad_cfg = tmp_path / "diverge.cfg"
        bad_cfg.write_text(SMALL_CFG.replace("rates = 0.01:40 0.001:20",
                                             "rates = 1000000.0:30"))
        art = tmp_path / "art2"
        assert main(["pretrain", "--config", str(bad_cfg), "--data",
                     str(root / "data"), "--out", str(art)]) == 0
        rc = main(["fit", "--config", str(bad_cfg), "--data", str(root / "data"),
                   "--out", str(art), "--method", "mlp"])
        assert rc == 2


@pytest.fixture(scope="module")
def staged(workspace, tmp_path_factory):
    """An artifact directory after pretrain and fit --method direct."""
    root, cfg = workspace
    art = tmp_path_factory.mktemp("staged") / "art"
    args = ["--config", str(cfg), "--data", str(root / "data"), "--out", str(art)]
    assert main(["pretrain"] + args) == 0
    assert main(["fit"] + args + ["--method", "direct"]) == 0
    return art


def _direct_stage(workspace, art, stage: str) -> int:
    root, cfg = workspace
    return main([stage, "--config", str(cfg), "--data", str(root / "data"),
                 "--out", str(art), "--method", "direct"])


class TestDirectStages:
    """fit/eval --method direct check both models but read neither payload."""

    def test_read_no_model_payload(self, workspace, staged, tmp_path, monkeypatch):
        art = tmp_path / "art"
        shutil.copytree(staged, art)
        loaded = []
        load_ssm = subspace.load_ssm
        monkeypatch.setattr(subspace, "load_ssm",
                            lambda path: loaded.append(Path(path).name) or load_ssm(path))
        for stage in ("fit", "eval"):
            assert _direct_stage(workspace, art, stage) == 0
        assert loaded == []
        assert (art / "eval_direct.csv").is_file()
        # The spy sees the stages that do use the models.
        root, cfg = workspace
        assert main(["fit", "--config", str(cfg), "--data", str(root / "data"),
                     "--out", str(art), "--method", "lowdim"]) == 0
        assert loaded == ["image_model.ssm", "shape_model.ssm"]

    @pytest.mark.parametrize("model", ["image_model.ssm", "shape_model.ssm"])
    @pytest.mark.parametrize("damage, message", [
        ("missing", "no pretrained models in"),
        ("null_dim", "bad subspace-model header"),
        ("truncated", "unexpected end of file"),
        ("trailing", "trailing data"),
    ])
    @pytest.mark.parametrize("stage", ["fit", "eval"])
    def test_same_rejections(self, workspace, staged, tmp_path, capsys, stage, damage,
                             message, model):
        art = tmp_path / "art"
        shutil.copytree(staged, art)
        path = art / model
        good = path.read_bytes()
        if damage == "missing":
            path.unlink()
        elif damage == "null_dim":
            path.write_bytes(BAD_TYPE_HEADERS["null_dim.ssm"])
        elif damage == "truncated":
            path.write_bytes(good[:-8])
        else:
            path.write_bytes(good + bytes(8))
        before = tree_digest(art)
        capsys.readouterr()
        assert _direct_stage(workspace, art, stage) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err
        if damage != "missing":
            assert model in err
        assert tree_digest(art) == before

    def test_eval_echoes_the_models_k(self, workspace, staged, tmp_path):
        art = tmp_path / "art"
        shutil.copytree(staged, art)
        root, cfg = workspace
        args = ["--config", str(cfg), "--data", str(root / "data"), "--out", str(art)]
        assert main(["fit"] + args + ["--method", "lowdim"]) == 0
        for method in ("lowdim", "direct"):
            assert main(["eval"] + args + ["--method", method]) == 0

        def echo(method):
            lines = (art / f"eval_{method}.txt").read_text().splitlines()
            return [line for line in lines if line.startswith("config k_")]

        assert echo("direct") == echo("lowdim") == ["config k_2d: 6", "config k_3d: 8"]


class TestRenderCommand:
    def test_renders_views(self, workspace, tmp_path):
        root, _ = workspace
        shape_file = next((root / "data" / "unlabeled_3d").glob("*.voxr"))
        out = tmp_path / "imgs"
        assert main(["render", str(shape_file), "--out", str(out),
                     "--views", "4"]) == 0
        assert len(list(out.glob("*.pgm"))) == 4

    def test_explicit_yaws(self, workspace, tmp_path):
        root, _ = workspace
        shape_file = next((root / "data" / "unlabeled_3d").glob("*.voxr"))
        out = tmp_path / "imgs"
        assert main(["render", str(shape_file), "--out", str(out),
                     "--yaw", "-45", "--yaw", "45"]) == 0
        assert (out / "render_315deg.pgm").is_file()
        assert (out / "render_45deg.pgm").is_file()

    @pytest.mark.parametrize("yaw", ["inf", "nan", "-inf"])
    def test_non_finite_yaw_exit_1(self, workspace, tmp_path, capsys, yaw):
        root, _ = workspace
        shape_file = next((root / "data" / "unlabeled_3d").glob("*.voxr"))
        out = tmp_path / "imgs"
        assert main(["render", str(shape_file), "--out", str(out),
                     "--yaw", "0", f"--yaw={yaw}"]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_size_exit_1_leaves_no_directory(self, workspace, tmp_path):
        root, _ = workspace
        shape_file = next((root / "data" / "unlabeled_3d").glob("*.voxr"))
        out = tmp_path / "new_dir"
        env = dict(os.environ, PYTHONPATH=str(Path(shapelift.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "shapelift.cli", "render", str(shape_file),
             "--out", str(out), "--width", "0"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: image size 0x32 must be positive"]
        assert not out.exists()

    @pytest.mark.parametrize("views", ["0", "-3"])
    def test_view_count_below_one_exit_1(self, workspace, tmp_path, views):
        root, _ = workspace
        shape_file = next((root / "data" / "unlabeled_3d").glob("*.voxr"))
        out = tmp_path / "imgs"
        assert main(["render", str(shape_file), "--out", str(out),
                     "--views", views]) == 1
        assert not out.exists()


class TestHeatmapCommand:
    def test_writes_error_property(self, tmp_path):
        spec = shapes.ShapeSpec("ellipsoid", {"cx": 0.5, "cy": 0.5, "cz": 0.5,
                                              "rx": 0.2, "ry": 0.2, "rz": 0.2})
        truth = shapes.generate_point_shape(spec, 100)
        pred = shapes.PointCloud(truth.points + 0.01,
                                 correspondence_id=truth.correspondence_id)
        truth_path = tmp_path / "truth.ply"
        pred_path = tmp_path / "pred.ply"
        shapes.save_cloud(truth, truth_path)
        shapes.save_cloud(pred, pred_path)
        out = tmp_path / "heat.ply"
        assert main(["heatmap", str(pred_path), str(truth_path), "--mode",
                     "corresponded", "--out", str(out)]) == 0
        _, extras, _ = shapes.read_ply(out)
        np.testing.assert_allclose(extras["error"], 0.01 * np.sqrt(3.0),
                                   atol=1e-12)


    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_error_exit_1_writes_nothing(self, tmp_path, capsys):
        truth_path = tmp_path / "truth.ply"
        pred_path = tmp_path / "pred.ply"
        shapes.write_ply(truth_path, [[-1e308, 0.0, 0.0]], correspondence_id="a")
        shapes.write_ply(pred_path, [[1e308, 0.0, 0.0]], correspondence_id="a")
        out = tmp_path / "heat.ply"
        assert main(["heatmap", str(pred_path), str(truth_path), "--out", str(out)]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["corresponded", "nearest"])
    def test_overflow_reports_one_line(self, tmp_path, mode):
        # A subprocess shows stderr as a user sees it, numpy warnings included.
        truth_path = tmp_path / "truth.ply"
        pred_path = tmp_path / "pred.ply"
        shapes.write_ply(truth_path, [[-1e308, 0.0, 0.0]], correspondence_id="a")
        shapes.write_ply(pred_path, [[1e308, 0.0, 0.0]], correspondence_id="a")
        out = tmp_path / "heat.ply"
        env = dict(os.environ, PYTHONPATH=str(Path(shapelift.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "shapelift.cli", "heatmap", str(pred_path),
             str(truth_path), "--mode", mode, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: heat-map error is non-finite: a distance between the clouds "
            "overflows float64"]
        assert not out.exists()


class TestUsage:
    @pytest.mark.parametrize("argv, message", [
        (["render", "x.voxr", "--out", "imgs", "--bogus"], "unrecognized arguments"),
        (["render", "x.voxr"], "required: --out"),
        (["render", "x.voxr", "--out", "imgs", "--views", "two"], "invalid int value"),
        (["bogus"], "invalid choice"),
    ])
    def test_usage_error_exit_1(self, argv, message, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage:" in err
        assert message in err

    @pytest.mark.parametrize("command, threads", [("gen", "-3"), ("compare", "0")])
    def test_threads_below_one_exit_1_writes_nothing(self, workspace, tmp_path, capsys,
                                                     command, threads):
        root, cfg = workspace
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out), "--threads", threads]
        if command == "compare":
            argv += ["--data", str(root / "data")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument --threads: must be at least 1, got {threads}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("render", "--views", "1_0"), ("render", "--width", "+8"),
        ("render", "--height", "\uff13\uff12"), ("gen", "--seed", "4_2"),
        ("gen", "--threads", "+2"), ("compare", "--threads", "1_0"),
    ])
    def test_python_only_integer_spellings_exit_1(self, workspace, tmp_path, capsys,
                                                  command, flag, value):
        # int() takes "1_0", "+8" and full-width digits; an option does not.
        root, cfg = workspace
        out = tmp_path / "out"
        if command == "render":
            shape_file = next((root / "data" / "unlabeled_3d").glob("*.voxr"))
            argv = ["render", str(shape_file), "--out", str(out)]
        else:
            argv = [command, "--config", str(cfg), "--out", str(out)]
            if command == "compare":
                argv += ["--data", str(root / "data")]
        assert main(argv + [flag, value]) == 1
        assert f"argument {flag}: invalid int value: {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["render", "--help"]])
    def test_help_exit_0(self, argv, capsys):
        assert main(argv) == 0
        assert "usage:" in capsys.readouterr().out


class TestInspect:
    def test_ssm_summary(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        art = tmp_path / "art"
        assert main(["pretrain", "--config", str(cfg), "--data",
                     str(root / "data"), "--out", str(art)]) == 0
        assert main(["inspect", str(art / "image_model.ssm")]) == 0
        out = capsys.readouterr().out
        assert "dim: 256, k: 6" in out
        assert "singular values" in out

    def test_voxr_summary(self, workspace, capsys):
        root, _ = workspace
        shape_file = next((root / "data" / "unlabeled_3d").glob("*.voxr"))
        assert main(["inspect", str(shape_file)]) == 0
        out = capsys.readouterr().out
        assert "resolution: 10" in out
        assert "occupied:" in out

    def test_truncated_file_exit_1(self, tmp_path, capsys):
        grid = shapes.VoxelGrid(np.ones((8, 8, 8), bool))
        path = tmp_path / "grid.voxr"
        shapes.save_voxr(grid, path)
        path.write_bytes(path.read_bytes()[:-4])
        assert main(["inspect", str(path)]) == 1
        assert "unexpected end of file" in capsys.readouterr().err

    def test_unknown_format_exit_1(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"\x00\x01\x02\x03")
        assert main(["inspect", str(path)]) == 1

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["inspect", str(tmp_path / "absent.ssm")]) == 1

    @pytest.mark.parametrize("name", sorted(NON_POSITIVE_SIZE_FILES))
    def test_non_positive_sizes_exit_1(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(NON_POSITIVE_SIZE_FILES[name])
        assert main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(PYTHON_ONLY_INT_FILES))
    def test_python_only_integer_headers_exit_1(self, tmp_path, capsys, name):
        data, message = PYTHON_ONLY_INT_FILES[name]
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert message in err

    @pytest.mark.parametrize("name", sorted(HUGE_SIZE_FILES))
    def test_huge_sizes_exit_1(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(HUGE_SIZE_FILES[name])
        assert main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "unexpected end of file" in err

    @pytest.mark.parametrize("name", sorted(BAD_TYPE_HEADERS))
    def test_bad_header_types_exit_1(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(BAD_TYPE_HEADERS[name] + bytes(48))
        assert main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert re.search(r"bad [\w-]+ header", err)
        assert "Traceback" not in err

    def test_ply_property_without_vertices(self, tmp_path, capsys):
        path = tmp_path / "empty.ply"
        shapes.write_ply(path, np.zeros((0, 3)), extra={"error": np.zeros(0)})
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "vertices: 0" in out
        assert "property error" not in out

    def test_ply_non_finite_exit_1(self, tmp_path, capsys):
        path = tmp_path / "nan.ply"
        shapes.save_cloud(shapes.PointCloud(np.zeros((1, 3))), path)
        path.write_text(path.read_text().replace("0 0 0", "nan inf 2"))
        for argv in (["inspect", str(path)], ["render", str(path), "--out", str(tmp_path)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.count("error:") == 1
            assert "non-finite" in err
        assert not list(tmp_path.glob("*.pgm"))

    @pytest.mark.parametrize("name", sorted(BAD_PLY_HEADERS))
    def test_bad_ply_header_exit_1(self, tmp_path, capsys, name):
        good, bad, message = BAD_PLY_HEADERS[name]
        path = tmp_path / "bad.ply"
        shapes.save_cloud(shapes.PointCloud(np.zeros((1, 3))), path)
        data = path.read_bytes()
        assert data.count(good) == 1
        path.write_bytes(data.replace(good, bad))
        assert main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra", ["0.1 0.2 0.3\n", "garbage here\n"])
    def test_ply_trailing_rows_exit_1(self, tmp_path, capsys, extra):
        path = tmp_path / "long.ply"
        shapes.save_cloud(shapes.PointCloud(np.zeros((4, 3))), path)
        path.write_text(path.read_text() + extra)
        assert main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "trailing" in err


class TestConfigDirEnv:
    def test_relative_config_resolves_via_env(self, tmp_path, monkeypatch):
        cfgdir = tmp_path / "configs"
        cfgdir.mkdir()
        (cfgdir / "tiny.cfg").write_text(SMALL_CFG)
        monkeypatch.setenv("SHAPELIFT_CONFIG_DIR", str(cfgdir))
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--config", "tiny.cfg",
                     "--out", str(tmp_path / "data")]) == 0
        assert (tmp_path / "data" / "manifest.cfg").is_file()

import builtins
import errno
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shapelift
from shapelift import _fileio, mapping, pipeline, render, shapes, subspace
from shapelift.cli import main
from shapelift.config import load_experiment, with_mapping
from test_subspace import BAD_ROWS, write_v1_ssm

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

SMALL_CLOUD_CFG = SMALL_CFG.replace("kinds = box ellipsoid cylinder\n", """\
kinds = box ellipsoid cylinder
representation = cloud
point_count = 40
poses = -45 0 45
""").replace("view_count = 2", "view_count = 3")

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
    "non_ascii": (b"element vertex 1", b"comment \xff\nelement vertex 1", "not an ASCII header"),
    "format_ascii": (b"binary_little_endian", b"ascii", "rerun `shapelift gen`"),
    "format_big_endian": (b"binary_little_endian", b"binary_big_endian", "rerun `shapelift gen`"),
    "format_missing": (b"format binary_little_endian 1.0\n", b"", "lacks a format line"),
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


def damage_rows(path, damage: str):
    """Rewrite a version 2 ``.ssm`` file with one fault in its kept rows:
    ``out_of_range`` stores dim as the first row index, ``rows_below_k``
    declares fewer rows than k in the header."""
    data = path.read_bytes()
    end = data.index(b"\n") + 1
    header = json.loads(data[:end])
    if damage == "out_of_range":
        at = end + 8 * header["dim"]
        data = data[:at] + np.array([header["dim"]], "<f8").tobytes() + data[at + 8:]
    else:
        header["rows"] = header["k"] - 1
        data = (json.dumps(header, sort_keys=True) + "\n").encode() + data[end:]
    path.write_bytes(data)


def tree_digest(root) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class _HalfWrite:
    """A file whose first write stores half its data, then fails as a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture
def full_disk(monkeypatch):
    """Make every ``_fileio.atomic_open`` write fail partway."""
    monkeypatch.setattr(_fileio, "open",
                        lambda *args, **kwargs: _HalfWrite(builtins.open(*args, **kwargs)),
                        raising=False)


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
        # (shapes, images) per split; the manifest is the only index, and a
        # split's images are the 16-pixel-tall views of one views.pgm strip.
        expected = {"paired_train": (6, 6 * 2), "paired_test": (3, 3 * 2),
                    "unlabeled_2d": (0, 10 * 2), "unlabeled_3d": (10, 0)}
        for split, (n_shapes, n_images) in expected.items():
            assert len(list((data / split).glob("shp_*.voxr"))) == n_shapes
            strip = data / split / "views.pgm"
            if n_images:
                assert render.load_pgm(strip).shape == (n_images * 16, 16)
            assert len(list((data / split).iterdir())) == n_shapes + strip.exists()
        assert not list(data.rglob("index.csv"))
        assert not list(data.rglob("img_*.pgm"))

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

    def test_threads_give_the_same_dataset(self, workspace, tmp_path):
        root, cfg = workspace
        for threads in ("3", "1"):
            assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / threads),
                         "--threads", threads]) == 0
        assert tree_digest(tmp_path / "3") == tree_digest(tmp_path / "1")
        assert tree_digest(tmp_path / "1") == tree_digest(root / "data")

    @pytest.mark.parametrize("poses", ["0 nan", "inf", "30 -inf 60"])
    def test_non_finite_pose_exit_1_writes_nothing(self, tmp_path, capsys, poses):
        cfg = tmp_path / "poses.cfg"
        cfg.write_text(SMALL_CFG.replace("view_count = 2", f"poses = {poses}"))
        out = tmp_path / "data"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config_line, flags", [("base_seed = 21", ["--seed", "-1"]),
                                                    ("base_seed = -4", [])],
                             ids=["flag", "config"])
    def test_negative_seed_exit_1_writes_nothing(self, tmp_path, capsys, config_line, flags):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(SMALL_CFG.replace("base_seed = 21", config_line))
        out = tmp_path / "data"
        assert main(["gen", "--config", str(cfg), "--out", str(out)] + flags) == 1
        assert "base_seed" in capsys.readouterr().err
        assert not out.exists()

    def test_composite_clouds_exit_1_write_nothing(self, tmp_path, capsys):
        # Point clouds have no composite sampling, so gen refuses the
        # manifest before it creates --out or any split directory.
        cfg = tmp_path / "composite.cfg"
        cfg.write_text(SMALL_CFG.replace(
            "kinds = box ellipsoid cylinder",
            "kinds = box composite\nrepresentation = cloud\npoint_count = 20"))
        out = tmp_path / "data"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "composite" in err
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
        # Whatever the worker cap: one worker meets every cap.
        root, cfg = workspace
        a, b = tmp_path / "a", tmp_path / "b"
        for out, threads in ((a, "2"), (b, "1")):
            assert main(["compare", "--config", str(cfg), "--data",
                         str(root / "data"), "--out", str(out),
                         "--threads", threads]) == 0
        assert (a / "compare.csv").read_bytes() == (b / "compare.csv").read_bytes()


class TestReportOutputs:
    @pytest.mark.parametrize("command, report", [("compare", "compare.csv"),
                                                 ("eval", "eval_direct.csv")])
    def test_failed_write_keeps_the_old_report(self, workspace, staged, tmp_path,
                                               request, command, report):
        root, cfg = workspace
        art = tmp_path / "art"
        shutil.copytree(staged, art)
        argv = [command, "--config", str(cfg), "--data", str(root / "data"),
                "--out", str(art)] + (["--method", "direct"] if command == "eval" else [])
        assert main(argv) == 0
        old = (art / report).read_bytes()
        before = tree_digest(art)
        request.getfixturevalue("full_disk")
        assert main(argv) == 1
        assert (art / report).read_bytes() == old
        assert tree_digest(art) == before
        assert not list(art.rglob("*.tmp"))

    def test_compare_summary_keeps_its_lines(self, workspace, tmp_path):
        # The command times compare_methods and stamps the summary itself.
        root, cfg = workspace
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--data", str(root / "data"),
                     "--out", str(out)]) == 0
        lines = (out / "compare.txt").read_text().splitlines()
        rows = [line.split(",") for line in (out / "compare.csv").read_text().splitlines()[1:]]
        assert lines[:2] == ["mapping method comparison (average RMSE per sample)",
                             "subspace dimensions: k_2d=6 k_3d=8"]
        assert re.fullmatch(r"finished: \d{4}-\d\d-\d\d \d\d:\d\d:\d\d", lines[2])
        assert re.fullmatch(r"runtime: \d+\.\d\d s", lines[3])
        assert lines[4:] == ["", f"{'method':<8} {'train_rmse':>14} {'test_rmse':>14}"] + [
            f"{method:<8} {float(train):>14.6g} {float(test):>14.6g}"
            for method, train, test, _, _ in rows]

    def test_eval_summary_keeps_its_lines(self, workspace, staged, tmp_path):
        art = tmp_path / "art"
        shutil.copytree(staged, art)
        assert _direct_stage(workspace, art, "eval") == 0
        lines = (art / "eval_direct.txt").read_text().splitlines()
        csv = (art / "eval_direct.csv").read_text().splitlines()
        assert lines[:3] == ["evaluation report", f"samples: {len(csv) - 2}",
                             f"average rmse: {float(csv[-1].split(',')[1]):.6g}"]
        assert re.fullmatch(r"finished: \d{4}-\d\d-\d\d \d\d:\d\d:\d\d", lines[3])
        assert lines[4:] == ["config k_2d: 6", "config k_3d: 8", "config mapping: direct",
                             "config pair_policy: cycle"]


class TestPretrainFitEval:
    def test_reference_reports_keep_the_bits_of_the_dense_prediction(self, tmp_path):
        # eval scores the kept rows of each prediction; on the voxel
        # reference its reports equal, byte for byte, those of scoring the
        # dense prediction that ``predict`` returns.
        cfg = str(Path(__file__).resolve().parents[1] / "configs" / "reference.cfg")
        data, art = tmp_path / "data", tmp_path / "art"
        assert main(["gen", "--config", cfg, "--out", str(data)]) == 0
        args = ["--config", cfg, "--data", str(data), "--out", str(art)]
        assert main(["pretrain"] + args) == 0
        manifest = pipeline.read_dataset_manifest(data)
        models = (subspace.load_ssm(art / "image_model.ssm"),
                  subspace.load_ssm(art / "shape_model.ssm"))
        x, z, ids = pipeline.load_paired(data, manifest, pipeline.SPLIT_PAIRED_TEST)
        for method in ("lowdim", "direct"):
            assert main(["fit"] + args + ["--method", method]) == 0
            assert main(["eval"] + args + ["--method", method]) == 0
            config = with_mapping(load_experiment(cfg), method)
            map_obj = mapping.load_map(art / f"mapping_{method}.map")
            assert map_obj.rows is not None or method == "lowdim"
            dense = pipeline.predict(config, models, map_obj, x)
            pipeline.write_evaluation_csv(pipeline.evaluate_rmse(dense, z, ids),
                                          tmp_path / "dense.csv")
            assert ((art / f"eval_{method}.csv").read_bytes()
                    == (tmp_path / "dense.csv").read_bytes())
        assert models[1].rows is not None

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

    def test_fit_peak_holds_no_centered_copy_of_the_shapes(self, tmp_path, traced_peak):
        # The peak is the models, the split as loaded (bool shapes) and one
        # float64 centered copy of its shapes, the encode's own temporary.
        cfg = tmp_path / "peak.cfg"
        cfg.write_text("[dataset]\nkinds = box ellipsoid\nresolution = 16\n"
                       "unlabeled_2d = 4\nunlabeled_3d = 4\npaired_train = 200\n"
                       "paired_test = 1\nview_count = 1\nimage_size = 8\n"
                       "[experiment]\nk_2d = 2\nk_3d = 2\n")
        data, art = tmp_path / "data", tmp_path / "art"
        args = ["--config", str(cfg), "--data", str(data), "--out", str(art)]
        assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
        assert main(["pretrain"] + args) == 0
        rc, peak = traced_peak(lambda: main(["fit"] + args + ["--method", "lowdim"]))
        assert rc == 0
        models = [subspace.load_ssm(art / name) for name in ("image_model.ssm",
                                                             "shape_model.ssm")]
        x, z, _ = pipeline.load_paired(data, pipeline.read_dataset_manifest(data),
                                       pipeline.SPLIT_PAIRED_TRAIN)
        centered, slack = z.size * 8, 1024 * 1024
        assert centered > slack  # so a second float64 copy of z breaks the bound
        assert peak <= (sum(a.nbytes for m in models
                            for a in (m.mean, m.basis, m.singular_values))
                        + x.nbytes + z.nbytes + centered + slack)

    def test_fit_and_eval_accept_version_1_models(self, workspace, staged, tmp_path):
        # Version 1 models keep every row; the RMSE moves by rounding alone.
        root, cfg = workspace
        args = ["--data", str(root / "data"), "--config", str(cfg), "--method", "lowdim"]
        rmses = []
        for version in (2, 1):
            art = tmp_path / f"v{version}"
            shutil.copytree(staged, art)
            if version == 1:
                for name in ("image_model.ssm", "shape_model.ssm"):
                    write_v1_ssm(subspace.load_ssm(art / name), art / name)
                    assert subspace.load_ssm(art / name).rows is None
            for stage in ("fit", "eval"):
                assert main([stage, "--out", str(art)] + args) == 0
            rmses.append(float((art / "eval_lowdim.csv").read_text()
                               .splitlines()[-1].split(",")[1]))
        assert rmses[1] == pytest.approx(rmses[0], rel=1e-9)

    @pytest.mark.parametrize("line, bad", [("rates = 0.01:40 0.001:20", "rates = nan:10"),
                                           ("rates = 0.01:40 0.001:20", "rates = inf:10"),
                                           ("seed = 4", "seed = -1")],
                             ids=["nan_rate", "inf_rate", "negative_seed"])
    def test_bad_schedule_exit_1_writes_no_map(self, workspace, staged, tmp_path,
                                               capsys, line, bad):
        root, _ = workspace
        art = tmp_path / "art"
        shutil.copytree(staged, art)
        cfg = tmp_path / "schedule.cfg"
        cfg.write_text(SMALL_CFG.replace(line, bad))
        assert main(["fit", "--config", str(cfg), "--data", str(root / "data"),
                     "--out", str(art), "--method", "mlp"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert tree_digest(art) == tree_digest(staged)

    def test_pretrain_note_names_the_requested_k(self, workspace, tmp_path, capsys):
        # The 10-shape pool cannot hold k_3d = 400; the note says what was kept.
        root, _ = workspace
        cfg = tmp_path / "big_k.cfg"
        cfg.write_text(SMALL_CFG.replace("k_3d = 8", "k_3d = 400"))
        assert main(["pretrain", "--config", str(cfg), "--data", str(root / "data"),
                     "--out", str(tmp_path / "art")]) == 0
        note = capsys.readouterr().err.splitlines()[-1]
        assert note.endswith("(k_2d=6, k_3d=9 of 400 requested)")

    def test_non_finite_map_exit_1_writes_no_report(self, workspace, staged, tmp_path,
                                                    capsys):
        root, cfg = workspace
        art = tmp_path / "art"
        shutil.copytree(staged, art)
        path = art / "mapping_direct.map"
        path.write_bytes(path.read_bytes()[:-8] + np.array([np.nan], "<f8").tobytes())
        capsys.readouterr()
        assert _direct_stage(workspace, art, "eval") == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: non-finite value\n"
        assert not list(art.glob("eval_*"))

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

    def test_stale_map_exit_1_names_it(self, workspace, tmp_path, capsys):
        # The map was fitted to k_2d = 6 codes; the models were then refitted at 4.
        root, cfg = workspace
        art = tmp_path / "art"
        args = ["--data", str(root / "data"), "--out", str(art)]
        assert main(["pretrain", "--config", str(cfg)] + args) == 0
        assert main(["fit", "--config", str(cfg), "--method", "mlp"] + args) == 0
        small_k = tmp_path / "small_k.cfg"
        small_k.write_text(SMALL_CFG.replace("k_2d = 6", "k_2d = 4"))
        assert main(["pretrain", "--config", str(small_k)] + args) == 0
        before = tree_digest(art)
        capsys.readouterr()
        assert main(["eval", "--config", str(small_k), "--method", "mlp"] + args) == 1
        assert capsys.readouterr().err == (
            f"error: {art / 'mapping_mlp.map'}: input and output sizes (6, 8), but the "
            "models' k are (4, 8); rerun `shapelift fit --method mlp`\n")
        assert tree_digest(art) == before

    @pytest.mark.parametrize("method", ["lowdim", "mlp"])
    @pytest.mark.parametrize("line, other, model, sizes", [
        ("image_size = 16", "image_size = 12", "image_model.ssm", "dim 144, but the "
         "paired_train images have 256"),
        ("resolution = 10", "resolution = 9", "shape_model.ssm", "dim 729, but the "
         "paired_train shapes have 1000"),
    ], ids=["image", "shape"])
    def test_stale_model_exit_1_names_it(self, workspace, tmp_path, capsys, method,
                                         line, other, model, sizes):
        # The models were pretrained on a dataset of another size.
        root, cfg = workspace
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(SMALL_CFG.replace(line, other))
        art = tmp_path / "art"
        assert main(["gen", "--config", str(other_cfg), "--out", str(tmp_path / "other")]) == 0
        assert main(["pretrain", "--config", str(other_cfg), "--data", str(tmp_path / "other"),
                     "--out", str(art)]) == 0
        before = tree_digest(art)
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg), "--data", str(root / "data"),
                     "--out", str(art), "--method", method]) == 1
        assert capsys.readouterr().err == (
            f"error: {art / model}: {sizes}; rerun `shapelift pretrain`\n")
        assert tree_digest(art) == before

    def test_direct_map_of_other_image_size_exit_1_names_it(self, workspace, staged,
                                                            tmp_path, capsys):
        root, cfg = workspace
        art = tmp_path / "art"
        shutil.copytree(staged, art)
        narrow_cfg = tmp_path / "narrow.cfg"
        narrow_cfg.write_text(SMALL_CFG.replace("image_size = 16", "image_size = 12"))
        narrow = tmp_path / "narrow"
        assert main(["gen", "--config", str(narrow_cfg), "--out", str(narrow)]) == 0
        before = tree_digest(art)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--data", str(narrow), "--out", str(art),
                     "--method", "direct"]) == 1
        assert capsys.readouterr().err == (
            f"error: {art / 'mapping_direct.map'}: input and output sizes (256, 1000), but "
            "the paired_test images and shapes have (144, 1000); "
            "rerun `shapelift fit --method direct`\n")
        assert tree_digest(art) == before

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
        assert str(data / "paired_train" / "views.pgm") in err
        assert "manifest" in err

    def test_per_view_dataset_exit_1_asks_for_gen(self, workspace, tmp_path, capsys):
        # A split in the older layout, one PGM per view and no views.pgm.
        root, cfg = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        (data / "unlabeled_2d" / "views.pgm").unlink()
        render.save_pgm(np.zeros((16, 16)), data / "unlabeled_2d" / "img_00009_v0.pgm")
        capsys.readouterr()
        assert main(["pretrain", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "art")]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert str(data / "unlabeled_2d" / "views.pgm") in err
        assert "rerun `shapelift gen`" in err
        assert not (tmp_path / "art").exists()

    def test_fit_without_models_exit_1(self, workspace, tmp_path):
        root, cfg = workspace
        assert main(["fit", "--config", str(cfg), "--data", str(root / "data"),
                     "--out", str(tmp_path / "nothing")]) == 1

    def test_eval_without_a_map_exit_1(self, workspace, staged, capsys):
        # staged holds both models and the direct map only.
        root, cfg = workspace
        assert main(["eval", "--config", str(cfg), "--data", str(root / "data"),
                     "--out", str(staged), "--method", "lowdim"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: no mapping file {staged / 'mapping_lowdim.map'}; "
                                "run fit first\n")
        assert not (staged / "eval_lowdim.csv").exists()

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
    """fit/eval --method direct check both models but read neither one's
    mean, basis or singular values."""

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
        ("out_of_range", "row indices must be strictly increasing integers in [0, "),
        ("rows_below_k", "need k <= rows <= dim"),
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
        elif damage == "trailing":
            path.write_bytes(good + bytes(8))
        else:
            damage_rows(path, damage)
        if damage in ("out_of_range", "rows_below_k"):  # as load_ssm says it
            with pytest.raises(shapelift.FileFormatError, match=re.escape(message)):
                subspace.load_ssm(path)
        before = tree_digest(art)
        capsys.readouterr()
        assert _direct_stage(workspace, art, stage) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err
        if damage != "missing":
            assert model in err
        assert tree_digest(art) == before

    @pytest.mark.parametrize("out", [1004, 996], ids=["past_the_shapes", "short_of_them"])
    def test_map_rows_that_do_not_fit_the_shapes_exit_1(self, workspace, staged, tmp_path,
                                                        capsys, out):
        # The staged direct map keeps only the cells some training shape fills.
        assert mapping.load_map(staged / "mapping_direct.map").rows is not None
        art = tmp_path / "art"
        shutil.copytree(staged, art)
        path = art / "mapping_direct.map"
        mapping.save_map(mapping.MlpMap((256, 2, out), [np.zeros((2, 256)), np.ones((2, 2))],
                                        [np.zeros(2), np.zeros(2)], activation="linear",
                                        rows=np.array([0, out - 1])), path)
        before = tree_digest(art)
        capsys.readouterr()
        assert _direct_stage(workspace, art, "eval") == 1
        assert capsys.readouterr().err == (
            f"error: {path}: input and output sizes (256, {out}), but the paired_test "
            "images and shapes have (256, 1000); rerun `shapelift fit --method direct`\n")
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

    @pytest.mark.parametrize("yaws, clash", [
        (["10.0000001", "10.0000002", "30", "30"], "yaws 10.0000001 and 10.0000002"),
        (["30", "-330"], "yaws 30.0 and -330.0"),
        (["0", "-1e-14"], "yaws 0.0 and -1e-14"),
    ], ids=["within_print_precision", "one_turn_apart", "rounded_up_to_a_turn"])
    def test_yaws_sharing_a_file_name_exit_1_write_nothing(self, workspace, tmp_path,
                                                           capsys, yaws, clash):
        # render_{yaw:g}deg.pgm would give two views one file, the second
        # overwriting the first.
        root, _ = workspace
        shape_file = next((root / "data" / "unlabeled_3d").glob("*.voxr"))
        out = tmp_path / "imgs"
        argv = ["render", str(shape_file), "--out", str(out)]
        for yaw in yaws:
            argv += [f"--yaw={yaw}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert clash in err and "render_" in err
        assert not out.exists()

    def test_failed_write_keeps_the_old_view(self, workspace, tmp_path, full_disk):
        root, _ = workspace
        shape_file = next((root / "data" / "unlabeled_3d").glob("*.voxr"))
        out = tmp_path / "imgs"
        out.mkdir()
        (out / "render_0deg.pgm").write_bytes(b"old")
        assert main(["render", str(shape_file), "--out", str(out), "--yaw", "0"]) == 1
        assert (out / "render_0deg.pgm").read_bytes() == b"old"
        assert sorted(p.name for p in out.iterdir()) == ["render_0deg.pgm"]

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

    def test_shape_of_no_known_format_exit_1(self, tmp_path, capsys):
        path = tmp_path / "shape.pgm"
        render.save_pgm(np.zeros((2, 2), np.uint8), path)
        assert main(["render", str(path), "--out", str(tmp_path / "views")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: not a VOXR or PLY shape file\n"
        assert not (tmp_path / "views").exists()

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


    def test_failed_write_keeps_the_old_map(self, tmp_path, request):
        truth = shapes.generate_point_shape(
            shapes.ShapeSpec("ellipsoid", {"cx": 0.5, "cy": 0.5, "cz": 0.5,
                                           "rx": 0.2, "ry": 0.2, "rz": 0.2}), 100)
        truth_path = tmp_path / "truth.ply"
        shapes.save_cloud(truth, truth_path)
        out = tmp_path / "heat.ply"
        out.write_text("old")
        request.getfixturevalue("full_disk")
        assert main(["heatmap", str(truth_path), str(truth_path), "--out", str(out)]) == 1
        assert out.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["heat.ply", "truth.ply"]

    @pytest.mark.parametrize("target, code", [("missing/heat.ply", errno.ENOENT),
                                              ("adir", errno.EISDIR)],
                             ids=["missing_directory", "directory"])
    def test_unwritable_out_is_named_not_its_temp_file(self, tmp_path, capsys,
                                                       target, code):
        truth = shapes.generate_point_shape(
            shapes.ShapeSpec("ellipsoid", {"cx": 0.5, "cy": 0.5, "cz": 0.5,
                                           "rx": 0.2, "ry": 0.2, "rz": 0.2}), 100)
        truth_path = tmp_path / "truth.ply"
        shapes.save_cloud(truth, truth_path)
        (tmp_path / "adir").mkdir()
        out = tmp_path / target
        assert main(["heatmap", str(truth_path), str(truth_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: [Errno {code}] {os.strerror(code)}: '{out}'"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "truth.ply"]
        assert not list((tmp_path / "adir").iterdir())

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


@pytest.fixture(scope="module")
def cloud_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cloud")
    cfg = root / "small_cloud.cfg"
    cfg.write_text(SMALL_CLOUD_CFG)
    assert main(["gen", "--config", str(cfg), "--out", str(root / "data")]) == 0
    return root, cfg


class TestCloudDataset:
    def test_older_ascii_shape_exit_1_names_it(self, cloud_workspace, tmp_path, capsys):
        root, cfg = cloud_workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        old = data / "unlabeled_3d" / "shp_00021.ply"
        points, _, corr = shapes.read_ply(old)
        header = ["ply", "format ascii 1.0", f"comment correspondence {corr}",
                  f"element vertex {len(points)}", "property double x",
                  "property double y", "property double z", "end_header"]
        old.write_text("\n".join(header + [" ".join(f"{v:.17g}" for v in row)
                                           for row in points]) + "\n")
        art = tmp_path / "art"
        assert main(["pretrain", "--config", str(cfg), "--data", str(data),
                     "--out", str(art)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {old}: ")
        assert "rerun `shapelift gen`" in err[0]
        assert not art.exists()

    def test_per_shape_commands_read_dataset_clouds(self, cloud_workspace, tmp_path,
                                                    capsys):
        root, _ = cloud_workspace
        shape_file = root / "data" / "unlabeled_3d" / "shp_00021.ply"
        assert main(["inspect", str(shape_file)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:2] == [f"{shape_file}: PLY point cloud", "vertices: 40"]
        assert main(["render", str(shape_file), "--out", str(tmp_path / "imgs"),
                     "--views", "2"]) == 0
        assert len(list((tmp_path / "imgs").glob("*.pgm"))) == 2
        heat = tmp_path / "heat.ply"
        assert main(["heatmap", str(shape_file), str(shape_file), "--out", str(heat)]) == 0
        points, extras, _ = shapes.read_ply(heat)
        assert np.array_equal(points, shapes.load_cloud(shape_file).points)
        assert not extras["error"].any()


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
        ("render", "--yaw", "1_0"), ("render", "--yaw", "+10"),
        ("render", "--yaw", "\uff13\uff12"), ("render", "--yaw", " 10"),
    ])
    def test_python_only_integer_spellings_exit_1(self, workspace, tmp_path, capsys,
                                                  command, flag, value):
        # int() and float() take "1_0", "+8" and full-width digits; an option
        # does not.
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
        kind = "float" if flag == "--yaw" else "int"
        assert f"argument {flag}: invalid {kind} value: {value!r}" in capsys.readouterr().err
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
        model = subspace.load_ssm(art / "image_model.ssm")
        assert "subspace model (format v2)" in out
        assert f"fitted rows: {len(model.rows)} of 256" in out and len(model.rows) < 256
        # A version 1 file names its own version and keeps every row.
        write_v1_ssm(model, tmp_path / "v1.ssm")
        assert main(["inspect", str(tmp_path / "v1.ssm")]) == 0
        out = capsys.readouterr().out
        assert "subspace model (format v1)" in out
        assert "fitted rows: 256 of 256" in out

    @pytest.mark.parametrize("name", sorted(BAD_ROWS))
    def test_bad_rows_exit_1(self, tmp_path, capsys, name):
        path = tmp_path / f"{name}.ssm"
        path.write_bytes(BAD_ROWS[name])
        assert main(["inspect", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1 and str(path) in captured.err
        assert "rows" in captured.err and captured.out == ""

    def test_voxr_summary(self, workspace, capsys):
        root, _ = workspace
        shape_file = next((root / "data" / "unlabeled_3d").glob("*.voxr"))
        assert main(["inspect", str(shape_file)]) == 0
        out = capsys.readouterr().out
        assert "resolution: 10" in out
        assert "occupied:" in out

    def test_non_finite_ssm_exit_1(self, staged, tmp_path, capsys):
        path = tmp_path / "image_model.ssm"
        path.write_bytes((staged / path.name).read_bytes()[:-8]
                         + np.array([np.inf], "<f8").tobytes())
        assert main(["inspect", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: non-finite value\n"
        assert captured.out == ""

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
        path.write_bytes(path.read_bytes()[:-24]
                         + np.array([np.nan, np.inf, 2.0]).astype("<f8").tobytes())
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
        path.write_bytes(path.read_bytes() + extra.encode("ascii"))
        assert main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "trailing" in err

    def test_empty_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "empty.ssm"
        path.write_bytes(b"")
        assert main(["inspect", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: unexpected end of file\n"
        assert captured.out == ""

    def test_ply_extra_property_summary(self, tmp_path, capsys):
        path = tmp_path / "heat.ply"
        shapes.write_ply(path, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]],
                         extra={"error": [0.5, 1.5]}, correspondence_id="box:2")
        assert main(["inspect", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{path}: PLY point cloud", "vertices: 2", "correspondence: box:2",
            "x: min 0, max 1, mean 0.5", "y: min 0, max 2, mean 1",
            "z: min 0, max 3, mean 1.5", "property error: min 0.5, max 1.5, mean 1"]

    def test_pgm_summary(self, tmp_path, capsys):
        path = tmp_path / "view.pgm"
        render.save_pgm(np.array([[0, 255, 51]], np.uint8), path)
        assert main(["inspect", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{path}: PGM image", "size: 3x1", "pixels: min 0, max 1, mean 0.4"]

    # (in, out, pairs): 8 pairs of 4 -> 3 codes fit one dense layer; 2 pairs
    # of 6 -> 5 values store fewer numbers factored through rank 2, and with
    # two target rows zero in both pairs it computes the other three, which
    # only version 2 stores.
    @pytest.mark.parametrize("sizes, zero_rows, layers, version, kept", [
        ((4, 3, 8), [], "4-3", 1, 3), ((6, 5, 2), [], "6-2-5", 1, 5),
        ((6, 5, 2), [1, 3], "6-2-5", 2, 3)], ids=["dense", "factored", "kept_rows"])
    def test_map_summary(self, tmp_path, capsys, sizes, zero_rows, layers, version, kept):
        in_d, out_d, n = sizes
        rng = np.random.default_rng(31)
        z = rng.standard_normal((out_d, n))
        z[zero_rows] = 0.0
        m = mapping.fit_direct_map(rng.standard_normal((in_d, n)), z)
        path = tmp_path / "mapping.map"
        mapping.save_map(m, path)
        assert main(["inspect", str(path)]) == 0
        flat = np.concatenate([w.ravel() for w in m.weights])
        assert capsys.readouterr().out.splitlines() == [
            f"{path}: mapping network (format v{version})",
            f"layers: {layers}", "activation: linear", f"output rows: {kept} of {out_d}",
            f"weights: min {flat.min():.6g}, max {flat.max():.6g}, mean {flat.mean():.6g}"]

    def test_unrecognized_json_header_exit_1(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_bytes(b'{"format_version": 1, "size": 3}\n')
        assert main(["inspect", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: unrecognized JSON header\n"
        assert captured.out == ""


class TestConfigText:
    """Config values are literal text, and [DEFAULT] is no special section."""

    @pytest.mark.parametrize("command, old, new, message", [
        ("gen", "kinds = box ellipsoid cylinder", "kinds = box%",
         "unknown shape kind 'box%'"),
        ("pretrain", "k_2d = 6", "k_2d = 6\nmapping = lowdim%(x)s",
         "got 'lowdim%(x)s'"),
        ("gen", SMALL_CFG, "[DEFAULT]\nk_2d = 5\n", "unknown section [DEFAULT]"),
        ("pretrain", SMALL_CFG, "[DEFAULT]\nk_2d = 5\n", "unknown section [DEFAULT]"),
        ("pretrain", "[experiment]", "[DEFAULT]\n\n[experiment]",
         "unknown section [DEFAULT]"),
    ], ids=["percent", "interpolation", "gen_default", "pretrain_default", "empty_default"])
    def test_exit_1_writes_nothing(self, workspace, tmp_path, capsys, command, old, new,
                                   message):
        root, _ = workspace
        cfg = tmp_path / "text.cfg"
        cfg.write_text(SMALL_CFG.replace(old, new))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "pretrain":
            argv += ["--data", str(root / "data")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert message in err
        assert not out.exists()


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
        # The stage commands resolve --config the same way.
        assert main(["pretrain", "--config", "tiny.cfg", "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "art")]) == 0

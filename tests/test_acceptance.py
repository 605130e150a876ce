"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The reference voxel experiment (configs/reference.cfg, seed 42) is generated
once per session and shared by the criteria that consume it.
"""

import array
import math
import shutil
import struct
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from shapelift import linalg, mapping as mp, pipeline, render, shapes, subspace
from shapelift.cli import main
from shapelift.config import ExperimentConfig
from shapelift.mapping import MlpMap, TrainSchedule
from shapelift.render import Pose
from shapelift.shapes import PointCloud, VoxelGrid
from shapelift.subspace import PCA_EQUIVALENCE_SCHEDULE

REPO_ROOT = Path(__file__).resolve().parents[1]
REFERENCE_CFG = REPO_ROOT / "configs" / "reference.cfg"


def verdict(number: int, name: str, passed: bool, detail: str = ""):
    line = f"[acceptance {number:02d}] {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def read_compare_csv(path: Path) -> dict:
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        method, train_rmse, test_rmse, k2, k3 = line.split(",")
        rows[method] = SimpleNamespace(train=float(train_rmse),
                                       test=float(test_rmse))
    return rows


@pytest.fixture(scope="session")
def reference(tmp_path_factory):
    root = tmp_path_factory.mktemp("reference")
    data = root / "data"
    started = time.perf_counter()
    assert main(["gen", "--config", str(REFERENCE_CFG), "--out", str(data)]) == 0
    assert main(["compare", "--config", str(REFERENCE_CFG), "--data", str(data),
                 "--out", str(root / "run1"), "--threads", "1"]) == 0
    elapsed = time.perf_counter() - started
    return SimpleNamespace(
        root=root,
        data=data,
        run1=root / "run1",
        rows=read_compare_csv(root / "run1" / "compare.csv"),
        seconds=elapsed,
    )


def test_c01_svd_correctness():
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    worst_recon = 0.0
    worst_orth = 0.0
    for _ in range(60):
        m, n = rng.integers(1, 31, size=2)
        mat = rng.standard_normal((int(m), int(n)))
        res = linalg.svd(mat)
        recon = res.u @ np.diag(res.sigma) @ res.v.T
        worst_recon = max(worst_recon,
                          np.linalg.norm(recon - mat) / np.linalg.norm(mat))
        eye = np.eye(res.rank)
        worst_orth = max(worst_orth,
                         float(np.abs(res.u.T @ res.u - eye).max()),
                         float(np.abs(res.v.T @ res.v - eye).max()))
    elapsed = time.perf_counter() - started
    verdict(1, "svd reconstruction and orthonormality",
            worst_recon <= 1e-10 and worst_orth <= 1e-10 and elapsed < 1.0,
            f"recon {worst_recon:.2e}, orth {worst_orth:.2e}, {elapsed:.2f}s")


def test_c02_spectral_reconstruction_identity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(3, 16))
        n = int(rng.integers(3, 16))
        k = int(rng.integers(1, min(dim, n) + 1))
        data = rng.standard_normal((dim, n))
        model = subspace.fit_subspace(data, k)
        recon = model.decode(model.encode(data))
        sse = float(((recon - data) ** 2).sum())
        sigma = linalg.svd(data - data.mean(axis=1)[:, None]).sigma
        expected = float((sigma[model.k:] ** 2).sum())
        worst = max(worst, abs(sse - expected) / max(expected, 1.0))
    verdict(2, "truncation SSE equals discarded spectrum", worst <= 1e-8,
            f"worst rel err {worst:.2e} over 50 instances")


def test_c03_linear_autoencoder_matches_pca():
    started = time.perf_counter()
    data = np.random.default_rng(3).standard_normal((8, 20))
    ae = subspace.train_linear_autoencoder(data, 3, PCA_EQUIVALENCE_SCHEDULE)
    pca = subspace.fit_subspace(data, 3)
    dist = float(np.linalg.norm(ae.projector() - pca.basis @ pca.basis.T))
    elapsed = time.perf_counter() - started
    verdict(3, "trained autoencoder projector equals pca projector",
            dist <= 1e-3 and elapsed < 30.0,
            f"frobenius {dist:.2e}, {elapsed:.1f}s")


def test_c04_full_rank_route_equivalence():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        d, p, n = 9, 7, 6
        x = rng.standard_normal((d, n))
        z = rng.standard_normal((p, n))
        img_model = subspace.fit_subspace(x, n - 1)
        shape_model = subspace.fit_subspace(z, n - 1)
        lm = mp.fit_linear_map(img_model.encode(x), shape_model.encode(z))
        route_a = pipeline.predict(ExperimentConfig(mapping="lowdim"),
                                   (img_model, shape_model), lm, x)
        xc = x - x.mean(axis=1)[:, None]
        zc = z - z.mean(axis=1)[:, None]
        route_b = z.mean(axis=1)[:, None] + mp.mlp_forward(mp.fit_direct_map(xc, zc), xc)
        worst = max(worst, np.linalg.norm(route_a - route_b)
                    / max(np.linalg.norm(route_b), 1.0))
    verdict(4, "subspace route equals direct route at full rank",
            worst <= 1e-6, f"worst rel err {worst:.2e} over 10 instances")


def test_c05_mlp_gradient_check():
    sizes = (10, 8, 12)
    step = 1e-5
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        weights = [mp.glorot_uniform(rng, sizes[l + 1], sizes[l])
                   for l in range(len(sizes) - 1)]
        biases = [0.1 * rng.standard_normal(sizes[l + 1])
                  for l in range(len(sizes) - 1)]
        m = MlpMap(sizes, weights, biases)
        x = rng.standard_normal((10, 6))
        t = rng.standard_normal((12, 6))
        grads = mp.mlp_gradients(m, x, t)
        for l in range(len(m.weights)):
            for param, grad in ((m.weights[l], grads.weights[l]),
                                (m.biases[l], grads.biases[l])):
                flat = param.reshape(-1)
                gflat = grad.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + step
                    up = mp.mlp_gradients(m, x, t).loss
                    flat[idx] = orig - step
                    down = mp.mlp_gradients(m, x, t).loss
                    flat[idx] = orig
                    fd = (up - down) / (2.0 * step)
                    rel = abs(gflat[idx] - fd) / max(abs(fd), 1e-8)
                    worst = max(worst, rel)
    verdict(5, "analytic gradients match finite differences",
            worst <= 1e-4, f"worst rel err {worst:.2e}, 5 seeds, all params")


def test_c06_method_ordering_and_interpolation(reference):
    rows = reference.rows
    ordering = rows["lowdim"].test < rows["direct"].test
    interpolation = rows["direct"].train < 1e-6
    in_budget = reference.seconds < 300.0
    verdict(6, "low-dim linear beats direct; direct interpolates training",
            ordering and interpolation and in_budget,
            f"test {rows['lowdim'].test:.4f} < {rows['direct'].test:.4f}, "
            f"direct train {rows['direct'].train:.1e}, {reference.seconds:.0f}s")


def test_c07_mlp_beats_low_dim_linear(reference):
    rows = reference.rows
    verdict(7, "mlp mapping test rmse at or below low-dim linear",
            rows["mlp"].test <= rows["lowdim"].test,
            f"{rows['mlp'].test:.4f} <= {rows['lowdim'].test:.4f}")


def test_c08_rmse_matches_file_level_recomputation(tmp_path):
    rng = np.random.default_rng(8)
    worst = 0.0
    for case in range(20):
        dim = int(rng.integers(2, 40))
        n = int(rng.integers(1, 12))
        pred = rng.standard_normal((dim, n))
        truth = rng.standard_normal((dim, n))
        pred_file = tmp_path / f"pred_{case}.bin"
        truth_file = tmp_path / f"truth_{case}.bin"
        pred_file.write_bytes(pred.astype("<f8").tobytes(order="F"))
        truth_file.write_bytes(truth.astype("<f8").tobytes(order="F"))
        report = pipeline.evaluate_rmse(pred, truth)
        # Brute-force oracle: plain file reads and scalar arithmetic only.
        pvals = array.array("d")
        tvals = array.array("d")
        pvals.frombytes(pred_file.read_bytes())
        tvals.frombytes(truth_file.read_bytes())
        total = 0.0
        for j in range(n):
            sq = 0.0
            for i in range(dim):
                diff = pvals[j * dim + i] - tvals[j * dim + i]
                sq += diff * diff
            total += math.sqrt(sq / dim)
        worst = max(worst, abs(report.average_rmse - total / n))
    verdict(8, "rmse equals brute-force recomputation from raw files",
            worst <= 1e-12, f"worst abs diff {worst:.2e} over 20 sets")


def test_c09_compare_is_byte_deterministic(reference):
    run2 = reference.root / "run2"
    assert main(["compare", "--config", str(REFERENCE_CFG), "--data",
                 str(reference.data), "--out", str(run2), "--threads", "1"]) == 0
    same = ((reference.run1 / "compare.csv").read_bytes()
            == (run2 / "compare.csv").read_bytes())
    verdict(9, "two end-to-end compare runs give identical csv bytes", same)


def test_c10_heatmap_sanity():
    spec = shapes.ShapeSpec("ellipsoid", {"cx": 0.5, "cy": 0.5, "cz": 0.5,
                                          "rx": 0.2, "ry": 0.25, "rz": 0.3})
    truth = shapes.generate_point_shape(spec, 300)
    delta = 0.0125
    moved = PointCloud(truth.points + np.array([delta, 0.0, 0.0]),
                       correspondence_id=truth.correspondence_id)
    hm = pipeline.heatmap(moved, truth, "corresponded")
    translation_ok = bool(np.abs(hm.errors - delta).max() <= 1e-12)

    rng = np.random.default_rng(10)
    nn_ok = True
    for _ in range(20):
        t = PointCloud(rng.random((50, 3)), correspondence_id="r:50")
        p = PointCloud(np.clip(t.points + 0.05 * rng.standard_normal((50, 3)),
                               0.0, 1.0), correspondence_id="r:50")
        corr = pipeline.heatmap(p, t, "corresponded").errors
        near = pipeline.heatmap(p, t, "nearest").errors
        nn_ok = nn_ok and bool((near <= corr + 1e-15).all())
    verdict(10, "translated heat map constant; nearest <= corresponded",
            translation_ok and nn_ok)


def test_c11_renderer_properties():
    rng = np.random.default_rng(11)
    range_ok = True
    for draw in range(100):
        spec = shapes.sample_spec(rng, shapes.ALL_KINDS, seed=draw)
        yaw = float(rng.uniform(0.0, 360.0))
        if draw % 2 == 0 or spec.kind == "composite":
            shape = shapes.generate_voxel_shape(spec, 20)
        else:
            shape = shapes.generate_point_shape(spec, 200)
        img = render.render_depth(shape, Pose(yaw), 32, 32)
        range_ok = range_ok and img.min() >= 0.0 and img.max() <= 1.0

    mirror_ok = True
    for seed in range(5):
        g = np.random.default_rng(1100 + seed).random((30, 30, 30)) < 0.1
        occ = g | g[::-1, :, :] | g[:, ::-1, :] | g[::-1, ::-1, :]
        grid = VoxelGrid(occ)
        img0 = render.render_depth(grid, Pose(0.0), 32, 32)
        img180 = render.render_depth(grid, Pose(180.0), 32, 32)
        mirror_ok = mirror_ok and bool(np.array_equal(img0, img180[:, ::-1]))
    verdict(11, "pixel range on random draws; exact mirror identity",
            range_ok and mirror_ok)


def test_c12_pretrain_ignores_paired_split(reference, tmp_path):
    art_full = tmp_path / "art_full"
    assert main(["pretrain", "--config", str(REFERENCE_CFG), "--data",
                 str(reference.data), "--out", str(art_full)]) == 0
    stripped = tmp_path / "stripped_data"
    shutil.copytree(reference.data, stripped)
    shutil.rmtree(stripped / "paired_train")
    art_stripped = tmp_path / "art_stripped"
    assert main(["pretrain", "--config", str(REFERENCE_CFG), "--data",
                 str(stripped), "--out", str(art_stripped)]) == 0
    same = all(
        (art_full / name).read_bytes() == (art_stripped / name).read_bytes()
        for name in ("image_model.ssm", "shape_model.ssm")
    )
    verdict(12, "pretrain byte-identical without the paired training split",
            same)

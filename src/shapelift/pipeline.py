"""End-to-end experiment orchestration on materialized datasets.

Stages: ``generate_dataset`` writes a reproducible synthetic dataset to
disk; ``pretrain`` fits both subspace models from the unlabeled pools only;
``fit_mapping`` consumes the paired split through one of three mapping
methods, each producing an ``MlpMap``; ``predict`` runs encode, network,
decode (direct skips the encode and decode); ``evaluate_rmse`` and
``heatmap`` score reconstructions; and ``compare_methods`` runs all three
mappings on identical splits.

Everything derives from the manifest's base seed, so a rerun of any stage
is byte-identical (timestamps appear only in the human-readable text
summaries, never in CSVs).
"""

from __future__ import annotations

import csv
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import mapping as mp
from . import render, shapes, subspace
from ._fileio import atomic_open
from .config import (
    DatasetManifest,
    ExperimentConfig,
    load_manifest,
    with_mapping,
    write_manifest,
)
from .errors import InvalidInputError

logger = logging.getLogger(__name__)

SPLIT_PAIRED_TRAIN = "paired_train"
SPLIT_PAIRED_TEST = "paired_test"
SPLIT_UNLABELED_2D = "unlabeled_2d"
SPLIT_UNLABELED_3D = "unlabeled_3d"

MANIFEST_FILE = "manifest.cfg"


@dataclass
class EvaluationReport:
    """Per-sample and split-average root-mean-square reconstruction error."""

    average_rmse: float
    per_sample_rmse: np.ndarray
    sample_ids: list
    config_echo: dict


@dataclass
class HeatMap:
    """Per-point error scalars aligned with the ground-truth ordering."""

    errors: np.ndarray


@dataclass
class MethodResult:
    method: str
    train_rmse: float
    test_rmse: float


@dataclass
class ComparisonResult:
    rows: list
    k_2d: int
    k_3d: int
    runtime_seconds: float


def _map_ordered(fn, items, threads: int = 1):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _atomic_write_text(path, text: str):
    # Readers never observe a half-written report.
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _sample_rng(base_seed: int, sample_id: int) -> np.random.Generator:
    # Per-sample generator: seed_i hashes (base_seed, i) via SeedSequence.
    return np.random.default_rng((base_seed, sample_id))


def _shape_for_id(manifest: DatasetManifest, sample_id: int):
    rng = _sample_rng(manifest.base_seed, sample_id)
    spec = shapes.sample_spec(rng, manifest.kinds, seed=sample_id)
    if manifest.representation == "voxel":
        return shapes.generate_voxel_shape(spec, manifest.resolution)
    return shapes.generate_point_shape(spec, manifest.point_count)


def _save_shape(shape, path: Path):
    if isinstance(shape, shapes.VoxelGrid):
        shapes.save_voxr(shape, path)
    else:
        shapes.save_cloud(shape, path)


def _load_shape(manifest: DatasetManifest, path: Path):
    if manifest.representation == "voxel":
        return shapes.load_voxr(path)
    return shapes.load_cloud(path)


def _shape_filename(sample_id: int, manifest: DatasetManifest) -> str:
    ext = "voxr" if manifest.representation == "voxel" else "ply"
    return f"shp_{sample_id:05d}.{ext}"


def _image_filename(sample_id: int, view: int) -> str:
    return f"img_{sample_id:05d}_v{view}.pgm"


def _id_blocks(manifest: DatasetManifest) -> dict:
    """Disjoint sample-id ranges per split (test ids never reused anywhere)."""
    blocks = {}
    start = 0
    for split, count in (
        (SPLIT_PAIRED_TRAIN, manifest.paired_train),
        (SPLIT_PAIRED_TEST, manifest.paired_test),
        (SPLIT_UNLABELED_2D, manifest.unlabeled_2d),
        (SPLIT_UNLABELED_3D, manifest.unlabeled_3d),
    ):
        blocks[split] = range(start, start + count)
        start += count
    return blocks


def _write_index(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_index(path: Path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        raise InvalidInputError(f"cannot read split index {path}: {exc}") from exc


def _save_views(shape, sample_id: int, manifest: DatasetManifest, out_dir: Path):
    """Render and save every view of one shape; (view, yaw repr, image file) each."""
    size = manifest.image_size
    views = []
    for view, yaw in enumerate(manifest.yaws):
        image = render.render_depth(shape, render.Pose(yaw), size, size)
        image_file = _image_filename(sample_id, view)
        render.save_pgm(image, out_dir / image_file)
        views.append((view, repr(float(yaw)), image_file))
    return views


def generate_dataset(manifest: DatasetManifest, out_dir, threads: int = 1):
    """Materialize shapes, renders, and split indexes under out_dir.

    Fully reproducible: the same manifest always writes bit-identical files.
    Paired splits index one (image, shape) pair per rendered view.  The
    manifest is written last and atomically, so a directory that has one
    holds a complete dataset.
    """
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    # A stale manifest would vouch for a half-rewritten directory.
    (root / MANIFEST_FILE).unlink(missing_ok=True)
    blocks = _id_blocks(manifest)

    for split in (SPLIT_PAIRED_TRAIN, SPLIT_PAIRED_TEST):
        split_dir = root / split
        split_dir.mkdir(exist_ok=True)

        def emit_paired(sample_id, split_dir=split_dir):
            shape = _shape_for_id(manifest, sample_id)
            shape_file = _shape_filename(sample_id, manifest)
            _save_shape(shape, split_dir / shape_file)
            return [(f"{sample_id:05d}_v{view}", sample_id, view, yaw, image_file,
                     shape_file)
                    for view, yaw, image_file in
                    _save_views(shape, sample_id, manifest, split_dir)]

        all_rows = _map_ordered(emit_paired, blocks[split], threads)
        _write_index(split_dir / "index.csv",
                     ("pair_id", "shape_id", "view", "yaw", "image", "shape"),
                     [r for rows in all_rows for r in rows])

    pool_dir = root / SPLIT_UNLABELED_2D
    pool_dir.mkdir(exist_ok=True)

    def emit_images(sample_id):
        shape = _shape_for_id(manifest, sample_id)
        return [(sample_id, *view)
                for view in _save_views(shape, sample_id, manifest, pool_dir)]

    all_rows = _map_ordered(emit_images, blocks[SPLIT_UNLABELED_2D], threads)
    _write_index(pool_dir / "index.csv", ("shape_id", "view", "yaw", "image"),
                 [r for rows in all_rows for r in rows])

    pool_dir = root / SPLIT_UNLABELED_3D
    pool_dir.mkdir(exist_ok=True)

    def emit_shapes(sample_id):
        shape = _shape_for_id(manifest, sample_id)
        shape_file = _shape_filename(sample_id, manifest)
        _save_shape(shape, pool_dir / shape_file)
        return (sample_id, shape_file)

    rows = _map_ordered(emit_shapes, blocks[SPLIT_UNLABELED_3D], threads)
    _write_index(pool_dir / "index.csv", ("shape_id", "shape"), rows)

    write_manifest(manifest, root / MANIFEST_FILE)


def read_dataset_manifest(data_dir) -> DatasetManifest:
    path = Path(data_dir) / MANIFEST_FILE
    if not path.exists():
        raise InvalidInputError(f"{data_dir} has no {MANIFEST_FILE}; not a dataset?")
    return load_manifest(str(path))


def load_unlabeled_images(data_dir, manifest: DatasetManifest, threads: int = 1):
    """Image pool as a (image_dim, n) column matrix, index order."""
    pool_dir = Path(data_dir) / SPLIT_UNLABELED_2D
    rows = _read_index(pool_dir / "index.csv")
    cols = _map_ordered(lambda r: render.load_pgm(pool_dir / r["image"]).ravel(),
                        rows, threads)
    return np.column_stack(cols)


def load_unlabeled_shapes(data_dir, manifest: DatasetManifest, threads: int = 1):
    """Shape pool as a (shape_dim, n) column matrix, index order."""
    pool_dir = Path(data_dir) / SPLIT_UNLABELED_3D
    rows = _read_index(pool_dir / "index.csv")
    cols = _map_ordered(
        lambda r: shapes.vectorize_shape(_load_shape(manifest, pool_dir / r["shape"])),
        rows, threads)
    return np.column_stack(cols)


def _fit_pool(pool: np.ndarray, k: int, label: str) -> subspace.SubspaceModel:
    # A pool smaller than the requested k shrinks the subspace (with a
    # warning) instead of failing; rank deficiency inside fit_subspace
    # shrinks further on its own.
    cap = min(pool.shape)
    if k > cap:
        logger.warning("%s pool supports at most k=%d; shrinking requested k=%d",
                       label, cap, k)
        k = cap
    return subspace.fit_subspace(pool, k)


def pretrain(data_dir, k_2d: int, k_3d: int, threads: int = 1):
    """Fit both subspace models from the unlabeled pools alone.

    Reads only the two unlabeled split indexes (plus the manifest); the
    paired splits are never opened, so their presence or absence cannot
    change the result.  A k larger than a pool supports is shrunk with a
    warning.
    """
    manifest = read_dataset_manifest(data_dir)
    images = load_unlabeled_images(data_dir, manifest, threads)
    shape_vecs = load_unlabeled_shapes(data_dir, manifest, threads)
    img_model = _fit_pool(images, k_2d, "image")
    shape_model = _fit_pool(shape_vecs, k_3d, "shape")
    return img_model, shape_model


def load_paired(data_dir, manifest: DatasetManifest, split: str, policy: str = "cycle"):
    """Paired split as (images X, shapes Z, pair_ids) column matrices.

    policy "all" takes every indexed (image, shape) pair; "cycle" takes one
    pair per shape, the view cycling with the shape's ordinal so poses stay
    diverse while the sample count equals the shape count.
    """
    split_dir = Path(data_dir) / split
    rows = _read_index(split_dir / "index.csv")
    if policy == "cycle":
        n_views = len(manifest.yaws)
        shape_ids = sorted({int(r["shape_id"]) for r in rows})
        ordinal = {sid: j for j, sid in enumerate(shape_ids)}
        rows = [r for r in rows
                if int(r["view"]) == ordinal[int(r["shape_id"])] % n_views]
    elif policy != "all":
        raise InvalidInputError(f"unknown pair policy {policy!r}")
    shape_cache: dict = {}
    x_cols, z_cols, pair_ids = [], [], []
    for r in rows:
        x_cols.append(render.load_pgm(split_dir / r["image"]).ravel())
        if r["shape"] not in shape_cache:
            shape_cache[r["shape"]] = shapes.vectorize_shape(
                _load_shape(manifest, split_dir / r["shape"]))
        z_cols.append(shape_cache[r["shape"]])
        pair_ids.append(r["pair_id"])
    return np.column_stack(x_cols), np.column_stack(z_cols), pair_ids


def fit_mapping(config: ExperimentConfig, models, x: np.ndarray, z: np.ndarray):
    """Dispatch the configured mapping fit on one paired split to an ``MlpMap``.

    lowdim and mlp operate in code space through the pretrained models;
    direct regresses raw pixels to raw shape vectors and touches neither
    model nor k.
    """
    img_model, shape_model = models
    if config.mapping == "direct":
        return mp.fit_direct_map(x, z)
    y = img_model.encode(x)
    b = shape_model.encode(z)
    if config.mapping == "lowdim":
        return mp.fit_linear_map(y, b)
    if config.mapping == "mlp":
        sizes = (img_model.k, *config.mlp_hidden, shape_model.k)
        return mp.mlp_train(sizes, (y, b), config.schedule).map
    raise InvalidInputError(f"unknown mapping {config.mapping!r}")


def predict(config: ExperimentConfig, models, map_obj: mp.MlpMap,
            x: np.ndarray) -> np.ndarray:
    """Shape-vector predictions for image columns (or one flat image).

    lowdim and mlp maps run between the code spaces of the pretrained
    models: encode, network, decode.  A direct map takes pixels to shape
    coordinates itself.  The method cannot be read off the map, because a
    code-space map at full k can have the same layer sizes as a direct map.
    """
    if config.mapping == "direct":
        return mp.mlp_forward(map_obj, x)
    img_model, shape_model = models
    return shape_model.decode(mp.mlp_forward(map_obj, img_model.encode(x)))


def evaluate_rmse(predictions: np.ndarray, ground_truths: np.ndarray,
                  sample_ids=None, config_echo=None) -> EvaluationReport:
    """Root-mean-square error per sample column, averaged over the split.

    Each sample's RMSE is sqrt(||x_hat - x||^2 / dim); the report average
    is the plain mean of the per-sample values.
    """
    pred = np.asarray(predictions, dtype=np.float64)
    truth = np.asarray(ground_truths, dtype=np.float64)
    if pred.ndim == 1:
        pred = pred[:, None]
    if truth.ndim == 1:
        truth = truth[:, None]
    if pred.shape != truth.shape:
        raise InvalidInputError(
            f"prediction shape {pred.shape} does not match ground truth {truth.shape}"
        )
    if pred.size == 0:
        raise InvalidInputError("cannot evaluate an empty prediction set")
    dim = pred.shape[0]
    diff = pred - truth
    per_sample = np.sqrt((diff * diff).sum(axis=0) / dim)
    ids = list(sample_ids) if sample_ids is not None else [
        str(i) for i in range(pred.shape[1])
    ]
    if len(ids) != pred.shape[1]:
        raise InvalidInputError(
            f"{len(ids)} sample ids for {pred.shape[1]} predictions"
        )
    return EvaluationReport(
        average_rmse=float(per_sample.mean()),
        per_sample_rmse=per_sample,
        sample_ids=ids,
        config_echo=dict(config_echo or {}),
    )


def heatmap(prediction: shapes.PointCloud, truth: shapes.PointCloud,
            mode: str = "corresponded") -> HeatMap:
    """Per-point error over the ground-truth cloud.

    corresponded: error_i = ||pred_i - truth_i|| (requires equal counts and
    a shared correspondence_id).  nearest: error_i = min_j ||pred_j -
    truth_i||, measured from each ground-truth point to the prediction.
    """
    if mode == "corresponded":
        if prediction.count != truth.count:
            raise InvalidInputError(
                f"corresponded mode needs equal counts, got {prediction.count} "
                f"vs {truth.count}"
            )
        if prediction.correspondence_id != truth.correspondence_id:
            raise InvalidInputError(
                f"clouds do not share a correspondence family: "
                f"{prediction.correspondence_id!r} vs {truth.correspondence_id!r}"
            )
        errors = np.linalg.norm(prediction.points - truth.points, axis=1)
        return HeatMap(errors)
    if mode == "nearest":
        if prediction.count == 0:
            raise InvalidInputError("nearest mode needs a nonempty prediction")
        errors = np.empty(truth.count)
        chunk = 1024
        pred = prediction.points
        for start in range(0, truth.count, chunk):
            block = truth.points[start:start + chunk]
            d2 = ((block[:, None, :] - pred[None, :, :]) ** 2).sum(axis=2)
            errors[start:start + chunk] = np.sqrt(d2.min(axis=1))
        return HeatMap(errors)
    raise InvalidInputError(f"unknown heat-map mode {mode!r}")


def export_heatmap(hm: HeatMap, truth: shapes.PointCloud, path):
    """ASCII PLY of the ground-truth cloud with a per-vertex error property."""
    if hm.errors.shape[0] != truth.count:
        raise InvalidInputError(
            f"{hm.errors.shape[0]} errors for {truth.count} vertices"
        )
    shapes.write_ply(path, truth.points, extra={"error": hm.errors},
                     correspondence_id=truth.correspondence_id)


def compare_methods(config: ExperimentConfig, data_dir, threads: int = 1) -> ComparisonResult:
    """Run lowdim, direct, and mlp on identical splits, seeds, and models."""
    started = time.perf_counter()
    manifest = read_dataset_manifest(data_dir)
    models = pretrain(data_dir, config.k_2d, config.k_3d, threads)
    x_train, z_train, _ = load_paired(data_dir, manifest, SPLIT_PAIRED_TRAIN,
                                      config.pair_policy)
    x_test, z_test, _ = load_paired(data_dir, manifest, SPLIT_PAIRED_TEST,
                                    config.pair_policy)
    rows = []
    for method in ("lowdim", "direct", "mlp"):
        method_config = with_mapping(config, method)
        map_obj = fit_mapping(method_config, models, x_train, z_train)
        train_report = evaluate_rmse(predict(method_config, models, map_obj, x_train),
                                     z_train)
        test_report = evaluate_rmse(predict(method_config, models, map_obj, x_test),
                                    z_test)
        rows.append(MethodResult(method, train_report.average_rmse,
                                 test_report.average_rmse))
    return ComparisonResult(
        rows=rows,
        k_2d=models[0].k,
        k_3d=models[1].k,
        runtime_seconds=time.perf_counter() - started,
    )


def write_comparison_csv(result: ComparisonResult, path):
    """CSV: method,train_rmse,test_rmse,k_2d,k_3d — numbers only, no timestamps."""
    lines = ["method,train_rmse,test_rmse,k_2d,k_3d"]
    for row in result.rows:
        lines.append(f"{row.method},{row.train_rmse!r},{row.test_rmse!r},"
                     f"{result.k_2d},{result.k_3d}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_comparison_summary(result: ComparisonResult, path):
    lines = [
        "mapping method comparison (average RMSE per sample)",
        f"subspace dimensions: k_2d={result.k_2d} k_3d={result.k_3d}",
        f"finished: {time.strftime('%Y-%m-%d %H:%M:%S')}",
        f"runtime: {result.runtime_seconds:.2f} s",
        "",
        f"{'method':<8} {'train_rmse':>14} {'test_rmse':>14}",
    ]
    for row in result.rows:
        lines.append(f"{row.method:<8} {row.train_rmse:>14.6g} {row.test_rmse:>14.6g}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_evaluation_csv(report: EvaluationReport, path):
    """CSV: pair_id,rmse rows plus a final average row."""
    lines = ["pair_id,rmse"]
    for pid, value in zip(report.sample_ids, report.per_sample_rmse):
        lines.append(f"{pid},{float(value)!r}")
    lines.append(f"average,{report.average_rmse!r}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_evaluation_summary(report: EvaluationReport, path):
    lines = [
        "evaluation report",
        f"samples: {len(report.sample_ids)}",
        f"average rmse: {report.average_rmse:.6g}",
        f"finished: {time.strftime('%Y-%m-%d %H:%M:%S')}",
    ]
    for key, value in sorted(report.config_echo.items()):
        lines.append(f"config {key}: {value}")
    _atomic_write_text(path, "\n".join(lines) + "\n")

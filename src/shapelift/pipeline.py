"""End-to-end experiment orchestration on materialized datasets.

Stages: ``generate_dataset`` writes a reproducible synthetic dataset to
disk; ``pretrain`` fits both subspace models from the unlabeled pools only;
``fit_mapping`` consumes the paired split through one of three mapping
methods, each producing an ``MlpMap``; ``predict`` runs encode, network,
decode (direct skips the encode and decode); ``evaluate_rmse`` and
``heatmap`` score reconstructions; and ``compare_methods`` runs all three
mappings on identical splits.

A dataset is one directory per split plus ``manifest.cfg``, and the
manifest is its only index: ``_id_blocks`` gives each split's sample ids,
and ``_shape_filename`` and ``_image_filename`` the files of each id.

Everything derives from the manifest's base seed, so a rerun of any stage
is byte-identical (timestamps appear only in the human-readable text
summaries, never in CSVs).
"""

from __future__ import annotations

import functools
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
    MAPPING_METHODS,
    DatasetManifest,
    ExperimentConfig,
    load_manifest,
    with_mapping,
    write_manifest,
)
from .errors import InvalidInputError
from .linalg import _columns

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


# Columns per fill block (a (block, dim) buffer per worker), and rows per
# scoring block (a (block, n) one); larger fill blocks were no faster on the
# voxel pool and cost memory.
_FILL_BLOCK = 64


def _column_matrix(read, items, threads: int = 1) -> np.ndarray:
    """``read(item)`` of each item as the columns of one row-major float64 matrix.

    Up to ``_FILL_BLOCK`` columns are read into the rows of a block-local
    buffer, which is then written transposed into the matrix: a strided
    write per block instead of per column, and the same bytes.  ``threads``
    workers fill whole blocks, each holding at most one buffer.  An empty
    split or a column of another length is an ``InvalidInputError``; a
    missing file is ``read``'s own ``OSError``.
    """
    items = list(items)
    if not items:
        raise InvalidInputError("cannot load an empty split")
    first = read(items[0])
    matrix = np.empty((len(first), len(items)))

    def fill(start):
        stop = min(start + _FILL_BLOCK, len(items))
        block = np.empty((stop - start, len(first)))
        for j in range(start, stop):
            column = first if j == 0 else read(items[j])
            if column.shape != first.shape:
                raise InvalidInputError(f"{items[j]!r}: {column.size} values, not {first.size}")
            block[j - start] = column
        matrix[:, start:stop] = block.T

    _map_ordered(fill, range(0, len(items), _FILL_BLOCK), threads)
    return matrix


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


def _shape_vector(manifest: DatasetManifest, split_dir: Path, sample_id: int):
    path = split_dir / _shape_filename(sample_id, manifest)
    load = shapes.load_voxr if manifest.representation == "voxel" else shapes.load_cloud
    return shapes.vectorize_shape(load(path))


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


def generate_dataset(manifest: DatasetManifest, out_dir, threads: int = 1):
    """Materialize every split's shapes and renders under out_dir.

    Fully reproducible: the same manifest always writes bit-identical files.
    Each sample writes its shape (except in unlabeled_2d) and one image per
    manifest yaw (except in unlabeled_3d); the file names follow from the
    manifest alone, so no index is written.  The manifest is written last
    and atomically, so a directory that has one holds a complete dataset.
    """
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    # A stale manifest would vouch for a half-rewritten directory.
    (root / MANIFEST_FILE).unlink(missing_ok=True)
    size = manifest.image_size
    for split, ids in _id_blocks(manifest).items():
        split_dir = root / split
        split_dir.mkdir(exist_ok=True)

        def emit(sample_id, split=split, split_dir=split_dir):
            shape = _shape_for_id(manifest, sample_id)
            if split != SPLIT_UNLABELED_2D:
                _save_shape(shape, split_dir / _shape_filename(sample_id, manifest))
            if split != SPLIT_UNLABELED_3D:
                for view, yaw in enumerate(manifest.yaws):
                    image = render.render_depth(shape, render.Pose(yaw), size, size)
                    render.save_pgm(image, split_dir / _image_filename(sample_id, view))

        _map_ordered(emit, ids, threads)

    write_manifest(manifest, root / MANIFEST_FILE)


def read_dataset_manifest(data_dir) -> DatasetManifest:
    path = Path(data_dir) / MANIFEST_FILE
    if not path.exists():
        raise InvalidInputError(f"{data_dir} has no {MANIFEST_FILE}; not a dataset?")
    return load_manifest(str(path))


def load_unlabeled_images(data_dir, manifest: DatasetManifest, threads: int = 1):
    """Image pool as a (image_dim, n) column matrix, by sample id, then view."""
    pool_dir = Path(data_dir) / SPLIT_UNLABELED_2D
    files = [_image_filename(sample_id, view)
             for sample_id in _id_blocks(manifest)[SPLIT_UNLABELED_2D]
             for view in range(len(manifest.yaws))]
    return _column_matrix(lambda f: render.load_pgm(pool_dir / f).ravel(), files, threads)


def load_unlabeled_shapes(data_dir, manifest: DatasetManifest, threads: int = 1):
    """Shape pool as a (shape_dim, n) column matrix, by sample id."""
    pool_dir = Path(data_dir) / SPLIT_UNLABELED_3D
    return _column_matrix(lambda sample_id: _shape_vector(manifest, pool_dir, sample_id),
                          _id_blocks(manifest)[SPLIT_UNLABELED_3D], threads)


def _fit_pool(pool: np.ndarray, k: int, label: str) -> subspace.SubspaceModel:
    # A pool smaller than the requested k shrinks the subspace (with a
    # warning) instead of failing; rank deficiency inside fit_subspace
    # shrinks further on its own.  The pool is ours to drop: center it in place.
    cap = min(pool.shape)
    if k > cap:
        logger.warning("%s pool supports at most k=%d; shrinking requested k=%d",
                       label, cap, k)
        k = cap
    return subspace.fit_subspace(pool, k, _overwrite=True)


def pretrain(data_dir, k_2d: int, k_3d: int, threads: int = 1):
    """Fit both subspace models from the unlabeled pools alone.

    Reads only the two unlabeled splits, whose files the manifest names; the
    paired splits are never opened, so their presence or absence cannot
    change the result.  A k larger than a pool supports is shrunk with a
    warning.  Each pool is loaded, fitted and dropped before the next.
    """
    manifest = read_dataset_manifest(data_dir)
    return (_fit_pool(load_unlabeled_images(data_dir, manifest, threads), k_2d, "image"),
            _fit_pool(load_unlabeled_shapes(data_dir, manifest, threads), k_3d, "shape"))


def load_paired(data_dir, manifest: DatasetManifest, split: str, policy: str = "cycle"):
    """Paired split as (images X, shapes Z, pair_ids) column matrices.

    The manifest names every file: policy "all" takes each shape with every
    view; "cycle" takes one pair per shape, the view cycling with the
    shape's ordinal so poses stay diverse while the sample count equals the
    shape count.  A file the manifest names but the split lacks is an
    ``OSError``.
    """
    if policy not in ("all", "cycle"):
        raise InvalidInputError(f"unknown pair policy {policy!r}")
    split_dir = Path(data_dir) / split
    n_views = len(manifest.yaws)
    pairs = [(sample_id, view)
             for ordinal, sample_id in enumerate(_id_blocks(manifest)[split])
             for view in (range(n_views) if policy == "all" else (ordinal % n_views,))]
    # The views of one shape are adjacent, so each shape file is read once.
    shape = functools.lru_cache(maxsize=1)(
        functools.partial(_shape_vector, manifest, split_dir))
    z = _column_matrix(lambda pair: shape(pair[0]), pairs)
    x = _column_matrix(
        lambda pair: render.load_pgm(split_dir / _image_filename(*pair)).ravel(), pairs)
    return x, z, [f"{sample_id:05d}_v{view}" for sample_id, view in pairs]


def fit_mapping(config: ExperimentConfig, models, x: np.ndarray, z: np.ndarray):
    """Dispatch the configured mapping fit on one paired split to an ``MlpMap``.

    lowdim and mlp operate in code space through the pretrained models;
    direct regresses raw pixels to raw shape vectors and touches neither
    model nor k, so for it ``models`` may be None.
    """
    if config.mapping == "direct":
        return mp.fit_direct_map(x, z)
    img_model, shape_model = models
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
    coordinates itself, so for it ``models`` may be None.  The method
    cannot be read off the map, because a code-space map at full k can have
    the same layer sizes as a direct map.
    """
    if config.mapping == "direct":
        return mp.mlp_forward(map_obj, x)
    img_model, shape_model = models
    return shape_model.decode(mp.mlp_forward(map_obj, img_model.encode(x)))


def evaluate_rmse(predictions: np.ndarray, ground_truths: np.ndarray,
                  sample_ids=None, config_echo=None) -> EvaluationReport:
    """Root-mean-square error per sample column, averaged over the split.

    Each sample's RMSE is sqrt(||x_hat - x||^2 / dim); the report average
    is the plain mean of the per-sample values.  Both take one vector or
    (dim, n) columns (``linalg._columns``), of one shape, scored in blocks
    of rows with no prediction-sized temporary, to the bits of the whole
    ``sqrt(np.square(pred - truth).sum(axis=0) / dim)`` on row-major copies.
    """
    pred, _ = _columns(predictions, None, "predictions")
    truth, _ = _columns(ground_truths, None, "ground truths")
    if pred.shape != truth.shape:
        raise InvalidInputError(
            f"prediction shape {pred.shape} does not match ground truth {truth.shape}"
        )
    if pred.size == 0:
        raise InvalidInputError("cannot evaluate an empty prediction set")
    dim, n = pred.shape
    # A row-major (dim, n >= 2) block sums over its rows in order, so blocks
    # whose first row carries the sums so far keep the whole sum's bits; one
    # column alone sums pairwise, so it goes whole.
    step = dim if n == 1 else _FILL_BLOCK
    sums = None
    for start in range(0, dim, step):
        diff = np.subtract(pred[start:start + step], truth[start:start + step], order="C")
        np.square(diff, out=diff)
        if sums is not None:
            diff[0] += sums
        sums = diff.sum(axis=0)
        del diff  # one block alive at a time
    per_sample = np.sqrt(sums / dim)
    ids = list(sample_ids) if sample_ids is not None else [str(i) for i in range(n)]
    if len(ids) != n:
        raise InvalidInputError(f"{len(ids)} sample ids for {n} predictions")
    return EvaluationReport(
        average_rmse=float(per_sample.mean()),
        per_sample_rmse=per_sample,
        sample_ids=ids,
        config_echo=dict(config_echo or {}),
    )


@np.errstate(over="ignore", invalid="ignore")
def heatmap(prediction: shapes.PointCloud, truth: shapes.PointCloud,
            mode: str = "corresponded") -> HeatMap:
    """Per-point error over the ground-truth cloud.

    corresponded: error_i = ||pred_i - truth_i|| (requires equal counts and
    a shared correspondence_id).  nearest: error_i = min_j ||pred_j -
    truth_i||, measured from each ground-truth point to the prediction.
    An error that overflows float64 raises ``InvalidInputError``, not a warning.
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
    elif mode == "nearest":
        if prediction.count == 0:
            raise InvalidInputError("nearest mode needs a nonempty prediction")
        errors = np.empty(truth.count)
        chunk = max(1, (1 << 19) // prediction.count)  # about 2**19 pairs per chunk
        pred = prediction.points
        for start in range(0, truth.count, chunk):
            block = truth.points[start:start + chunk]
            d2 = ((block[:, None, :] - pred[None, :, :]) ** 2).sum(axis=2)
            errors[start:start + chunk] = np.sqrt(d2.min(axis=1))
    else:
        raise InvalidInputError(f"unknown heat-map mode {mode!r}")
    if not np.isfinite(errors).all():
        raise InvalidInputError("heat-map error is non-finite: a distance "
                                "between the clouds overflows float64")
    return HeatMap(errors)


def export_heatmap(hm: HeatMap, truth: shapes.PointCloud, path):
    """ASCII PLY of the ground-truth cloud with a per-vertex error property."""
    if hm.errors.shape[0] != truth.count:
        raise InvalidInputError(
            f"{hm.errors.shape[0]} errors for {truth.count} vertices"
        )
    shapes.write_ply(path, truth.points, extra={"error": hm.errors},
                     correspondence_id=truth.correspondence_id)


def _score(config: ExperimentConfig, models, x_train, z_train, x_test, z_test):
    # The map and each prediction are freed when this returns.
    map_obj = fit_mapping(config, models, x_train, z_train)
    return MethodResult(
        config.mapping,
        evaluate_rmse(predict(config, models, map_obj, x_train), z_train).average_rmse,
        evaluate_rmse(predict(config, models, map_obj, x_test), z_test).average_rmse,
    )


def compare_methods(config: ExperimentConfig, data_dir, threads: int = 1) -> ComparisonResult:
    """Run lowdim, direct, and mlp on identical splits, seeds, and models.

    The direct map uses no model, so it runs last, after the models are
    dropped.  No method shares state with another, so the rows, returned in
    ``MAPPING_METHODS`` order, keep their bits.
    """
    started = time.perf_counter()
    manifest = read_dataset_manifest(data_dir)
    models = pretrain(data_dir, config.k_2d, config.k_3d, threads)
    x_train, z_train, _ = load_paired(data_dir, manifest, SPLIT_PAIRED_TRAIN,
                                      config.pair_policy)
    x_test, z_test, _ = load_paired(data_dir, manifest, SPLIT_PAIRED_TEST,
                                    config.pair_policy)
    splits = (x_train, z_train, x_test, z_test)
    rows = {method: _score(with_mapping(config, method), models, *splits)
            for method in MAPPING_METHODS if method != "direct"}
    k_2d, k_3d = (model.k for model in models)
    del models
    rows["direct"] = _score(with_mapping(config, "direct"), None, *splits)
    return ComparisonResult(
        rows=[rows[method] for method in MAPPING_METHODS], k_2d=k_2d, k_3d=k_3d,
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

"""End-to-end experiment orchestration on materialized datasets.

Stages: ``generate_dataset`` writes a reproducible synthetic dataset to
disk; ``pretrain`` fits both subspace models from the unlabeled pools only,
through ``subspace.fit_subspace``, which alone decides each model's k;
``fit_mapping`` consumes the paired split through one of three mapping
methods, each producing an ``MlpMap``; ``predict`` runs encode, network,
decode (direct skips the encode and decode); ``evaluate_rmse`` and
``heatmap`` score reconstructions; and ``compare_methods`` runs all three
mappings on identical splits.

A dataset is one directory per split plus ``manifest.cfg``, and the
manifest is its only index: ``_id_blocks`` gives each split's sample ids
and ``_shape_filename`` the shape file of each id.  A split's depth images
are one PGM film strip, ``views.pgm``: ``image_size`` wide, one
``image_size``-tall view after another, by sample id, then view.  Every
file, the manifest last, is written whole through ``_fileio.atomic_write``.

Everything derives from the manifest's base seed, so a rerun of any stage
is byte-identical.  Results are values and the writers here are CSVs of
numbers only; this module reads no clock, and the CLI's human-readable
text summaries alone carry a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import mapping as mp
from . import render, shapes, subspace
from ._fileio import atomic_write
from .config import (
    MAPPING_METHODS,
    DatasetManifest,
    ExperimentConfig,
    load_manifest,
    with_mapping,
    write_manifest,
)
from .errors import InvalidInputError
from .linalg import _columns, _KeptRows

SPLIT_PAIRED_TRAIN = "paired_train"
SPLIT_PAIRED_TEST = "paired_test"
SPLIT_UNLABELED_2D = "unlabeled_2d"
SPLIT_UNLABELED_3D = "unlabeled_3d"

MANIFEST_FILE = "manifest.cfg"
VIEWS_FILE = "views.pgm"


@dataclass
class EvaluationReport:
    """Per-sample and split-average root-mean-square reconstruction error."""

    average_rmse: float
    per_sample_rmse: np.ndarray
    sample_ids: list


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


# Columns per fill block (the one (block, dim) buffer of a fill), and rows
# per scoring block (a (block, n) one); larger fill blocks were no faster on
# the voxel pool and cost memory.
_FILL_BLOCK = 64


def _column_matrix(read, items) -> np.ndarray:
    """``read(item)`` of each item as the columns of one row-major matrix.

    The matrix has the columns' dtype.  Up to ``_FILL_BLOCK`` columns at a
    time are read into the rows of one buffer, reused for every block,
    which is then written transposed into the matrix: a strided write per
    block instead of per column, and the same bytes.  An empty
    split or a column of another length is an ``InvalidInputError``; a
    missing file is ``read``'s own ``OSError``.
    """
    items = list(items)
    if not items:
        raise InvalidInputError("cannot load an empty split")
    first = read(items[0])
    matrix = np.empty((len(first), len(items)), first.dtype)
    block = np.empty((min(_FILL_BLOCK, len(items)), len(first)), first.dtype)
    for start in range(0, len(items), _FILL_BLOCK):
        rows = block[:len(items) - start]  # the last block may be short
        for j, row in enumerate(rows, start):
            column = first if j == 0 else read(items[j])
            if column.shape != first.shape:
                raise InvalidInputError(f"{items[j]!r}: {column.size} values, not {first.size}")
            row[:] = column
        matrix[:, start:start + len(rows)] = rows.T
    return matrix


def _shape_for_id(manifest: DatasetManifest, sample_id: int):
    # Per-sample generator: seed_i hashes (base_seed, i) via SeedSequence.
    rng = np.random.default_rng((manifest.base_seed, sample_id))
    spec = shapes.sample_spec(rng, manifest.kinds)
    if manifest.representation == "voxel":
        return shapes.generate_voxel_shape(spec, manifest.resolution)
    return shapes.generate_point_shape(spec, manifest.point_count)


def _shape_vector(manifest: DatasetManifest, split_dir: Path, sample_id: int):
    path = split_dir / _shape_filename(sample_id, manifest)
    load = shapes.load_voxr if manifest.representation == "voxel" else shapes.load_cloud
    return shapes.vectorize_shape(load(path))


def _shape_filename(sample_id: int, manifest: DatasetManifest) -> str:
    ext = "voxr" if manifest.representation == "voxel" else "ply"
    return f"shp_{sample_id:05d}.{ext}"


def _id_blocks(manifest: DatasetManifest) -> dict:
    """Disjoint sample-id ranges per split (test ids never reused anywhere),
    each as long as the manifest field that bears the split's name."""
    blocks, start = {}, 0
    for split in (SPLIT_PAIRED_TRAIN, SPLIT_PAIRED_TEST, SPLIT_UNLABELED_2D, SPLIT_UNLABELED_3D):
        blocks[split] = range(start, start + getattr(manifest, split))
        start += getattr(manifest, split)
    return blocks


def generate_dataset(manifest: DatasetManifest, out_dir, threads: int = 1):
    """Materialize every split's shapes and renders under out_dir.

    Fully reproducible: the same manifest always writes bit-identical files.
    Each sample writes its shape (except in unlabeled_2d) and renders one
    view per manifest yaw (except in unlabeled_3d), quantized straight into
    the split's uint8 ``views.pgm`` strip, which is written once; the file
    names follow from the manifest alone, so no index is written.  An
    earlier dataset's ``shp_*`` files (a killed run's temp files included),
    and the per-view ``img_*_v*.pgm`` of older versions, that the manifest
    does not place in a split are removed from it; no other file is touched.
    Each file is written atomically, the manifest last, so a directory that
    has one holds a complete dataset, and each ``<file>.tmp`` left by a
    killed run is taken over by the write of its file.
    ``threads`` is a worker cap; one worker meets every cap.  Point clouds
    have no composite sampling, so a cloud manifest that lists composite
    raises ``InvalidInputError`` before anything is created.
    """
    if manifest.representation == "cloud" and "composite" in manifest.kinds:
        raise InvalidInputError("kind 'composite' has no point-cloud sampling; "
                                "use representation = voxel or drop it from kinds")
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    # A stale manifest would vouch for a half-rewritten directory.
    (root / MANIFEST_FILE).unlink(missing_ok=True)
    size = manifest.image_size
    save = shapes.save_voxr if manifest.representation == "voxel" else shapes.save_cloud
    for split, ids in _id_blocks(manifest).items():
        split_dir = root / split
        split_dir.mkdir(exist_ok=True)
        has_shapes, has_views = split != SPLIT_UNLABELED_2D, split != SPLIT_UNLABELED_3D
        names = [_shape_filename(sample_id, manifest) for sample_id in ids] if has_shapes else []
        keep = set(names)
        for stale in [*split_dir.glob("shp_*"), *split_dir.glob("img_*_v*.pgm")]:
            if stale.name not in keep:
                stale.unlink()
        if has_views:  # rows by sample id, then view: the loaders' column order
            strip = np.empty((len(ids), len(manifest.yaws), size, size), np.uint8)
        for ordinal, sample_id in enumerate(ids):
            shape = _shape_for_id(manifest, sample_id)
            if has_shapes:
                save(shape, split_dir / names[ordinal])
            if has_views:
                for view, yaw in enumerate(manifest.yaws):
                    strip[ordinal, view] = render._pgm_raster(
                        render.render_depth(shape, render.Pose(yaw), size, size))
        if has_views:
            render.save_pgm(strip.reshape(-1, size), split_dir / VIEWS_FILE)
    write_manifest(manifest, root / MANIFEST_FILE)


def read_dataset_manifest(data_dir) -> DatasetManifest:
    path = Path(data_dir) / MANIFEST_FILE
    if not path.exists():
        raise InvalidInputError(f"{data_dir} has no {MANIFEST_FILE}; not a dataset?")
    return load_manifest(str(path))


def _view_matrix(data_dir, manifest: DatasetManifest, split: str, picks) -> np.ndarray:
    """The split's views numbered ``picks`` (``ordinal * views + view``) as
    the columns of one row-major float64 matrix.

    ``views.pgm`` is read once, and its size must be the one the manifest
    gives the split, or ``InvalidInputError`` names the file.  A missing
    strip is an ``OSError`` that asks for the dataset to be generated again.
    """
    path = Path(data_dir) / split / VIEWS_FILE
    try:
        strip = render.load_pgm(path)
    except FileNotFoundError as exc:
        raise FileNotFoundError(
            exc.errno, f"{exc.strerror}; rerun `shapelift gen` (older versions wrote "
            "one img_*_v*.pgm per view instead)", exc.filename) from None
    size, n_views = manifest.image_size, len(manifest.yaws)
    n_ids = len(_id_blocks(manifest)[split])
    if strip.shape != (n_ids * n_views * size, size):
        raise InvalidInputError(
            f"{path}: {strip.shape[1]}x{strip.shape[0]} pixels, but the manifest's {n_ids} "
            f"samples x {n_views} views of {size}x{size} need {size}x{n_ids * n_views * size}")
    return _column_matrix(strip.reshape(n_ids * n_views, size * size).__getitem__, picks)


def load_unlabeled_images(data_dir, manifest: DatasetManifest):
    """Image pool as a (image_dim, n) column matrix, by sample id, then view."""
    n = len(_id_blocks(manifest)[SPLIT_UNLABELED_2D]) * len(manifest.yaws)
    return _view_matrix(data_dir, manifest, SPLIT_UNLABELED_2D, range(n))


def load_unlabeled_shapes(data_dir, manifest: DatasetManifest):
    """Shape pool as a (shape_dim, n) column matrix, by sample id, of the
    shape vectors' dtype: bool occupancy for voxels, float64 for clouds."""
    pool_dir = Path(data_dir) / SPLIT_UNLABELED_3D
    return _column_matrix(lambda sample_id: _shape_vector(manifest, pool_dir, sample_id),
                          _id_blocks(manifest)[SPLIT_UNLABELED_3D])


def pretrain(data_dir, k_2d: int, k_3d: int):
    """Fit both subspace models from the unlabeled pools alone.

    Reads only the two unlabeled splits, whose files the manifest names; the
    paired splits are never opened, so their presence or absence cannot
    change the result.  Each pool is loaded, fitted by ``fit_subspace`` on
    its rows that do not center to zero, and dropped before the next;
    ``fit_subspace`` shrinks a k past the pool's size or rank with one
    warning.  A float64 pool is centered in its own leading rows, with no
    copy; the voxel shape pool stays bool, and only its fitted rows are
    ever float64.
    """
    manifest = read_dataset_manifest(data_dir)
    return (subspace.fit_subspace(load_unlabeled_images(data_dir, manifest), k_2d,
                                  _overwrite=True),
            subspace.fit_subspace(load_unlabeled_shapes(data_dir, manifest), k_3d,
                                  _overwrite=True))


def load_paired(data_dir, manifest: DatasetManifest, split: str, policy: str = "cycle"):
    """Paired split as (images X, shapes Z, pair_ids) column matrices.

    X is float64; Z has the shape vectors' dtype: bool occupancy for
    voxels, one byte per cell (see ``vectorize_shape``), float64 for
    clouds.  The manifest names every file: policy "all" takes each shape
    with every view; "cycle" takes one pair per shape, the view cycling
    with the shape's ordinal so poses stay diverse while the sample count
    equals the shape count.  The images come from the split's ``views.pgm`` (see
    ``_view_matrix``), and are loaded first, so that the strip is freed
    before the shapes are read.  A file the manifest names but the split
    lacks is an ``OSError``.
    """
    if policy not in ("all", "cycle"):
        raise InvalidInputError(f"unknown pair policy {policy!r}")
    ids = _id_blocks(manifest)[split]
    n_views = len(manifest.yaws)
    pairs = [(ordinal, view) for ordinal in range(len(ids))
             for view in (range(n_views) if policy == "all" else (ordinal % n_views,))]
    x = _view_matrix(data_dir, manifest, split, [o * n_views + view for o, view in pairs])
    # The views of one shape are adjacent, so each shape file is read once.
    shape = functools.lru_cache(maxsize=1)(
        functools.partial(_shape_vector, manifest, Path(data_dir) / split))
    z = _column_matrix(lambda pair: shape(ids[pair[0]]), pairs)
    return x, z, [f"{ids[o]:05d}_v{view}" for o, view in pairs]


def fit_mapping(config: ExperimentConfig, models, x: np.ndarray, z: np.ndarray):
    """Dispatch the configured mapping fit on one paired split to an ``MlpMap``.

    lowdim and mlp operate in code space through the pretrained models;
    direct regresses raw pixels to raw shape vectors and touches neither
    model nor k, so for it ``models`` may be None.  ``x`` and ``z`` are
    only read.
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
            x: np.ndarray, *, _rows: bool = False) -> np.ndarray:
    """Shape-vector predictions for image columns (or one flat image).

    lowdim and mlp maps run between the code spaces of the pretrained
    models: encode, network, decode.  A direct map takes pixels to shape
    coordinates itself, so for it ``models`` may be None.  The method
    cannot be read off the map, because a code-space map at full k can have
    the same layer sizes as a direct map.  With ``_rows`` the predictions
    are the ``linalg._KeptRows`` that the decode or the direct map computes,
    which ``evaluate_rmse`` scores without the dense matrix.
    """
    if config.mapping == "direct":
        return mp.mlp_forward(map_obj, x, _rows=_rows)
    img_model, shape_model = models
    return shape_model.decode(mp.mlp_forward(map_obj, img_model.encode(x)), _rows=_rows)


def evaluate_rmse(predictions: np.ndarray, ground_truths: np.ndarray,
                  sample_ids=None) -> EvaluationReport:
    """Root-mean-square error per sample column, averaged over the split.

    Each sample's RMSE is sqrt(||x_hat - x||^2 / dim); the report average
    is the plain mean of the per-sample values.  Both take one vector or
    (dim, n) columns (``linalg._columns``), of one shape, scored in blocks
    of rows with no prediction-sized temporary, to the bits of the whole
    ``sqrt(np.square(pred - truth).sum(axis=0) / dim)`` on row-major float64
    copies; bool columns (voxel occupancy) are promoted one block at a time.
    ``predictions`` may also be a ``linalg._KeptRows``, as ``predict`` gives
    it with ``_rows``: each block is then built from the kept rows and the
    fill, equal value for value to that block of the dense matrix, so the
    report keeps its bits and the dense matrix is never held.
    """
    if isinstance(predictions, _KeptRows):
        shape, block = predictions.shape, predictions.dense
    else:
        pred, _ = _columns(predictions, None, "predictions")
        shape, block = pred.shape, lambda start, stop: pred[start:stop]
    truth, _ = _columns(ground_truths, None, "ground truths")
    if shape != truth.shape:
        raise InvalidInputError(
            f"prediction shape {shape} does not match ground truth {truth.shape}"
        )
    dim, n = shape
    if dim * n == 0:
        raise InvalidInputError("cannot evaluate an empty prediction set")
    # A row-major (dim, n >= 2) block sums over its rows in order, so blocks
    # whose first row carries the sums so far keep the whole sum's bits; one
    # column alone sums pairwise, so it goes whole.
    step = dim if n == 1 else _FILL_BLOCK
    sums = None
    for start in range(0, dim, step):
        diff = np.subtract(block(start, start + step), truth[start:start + step],
                           dtype=np.float64, order="C")
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


def _score(config: ExperimentConfig, models, x_train, z_train, x_test, z_test):
    # Each prediction is held as its kept rows only; the map and the
    # predictions are freed when this returns.
    map_obj = fit_mapping(config, models, x_train, z_train)

    def rmse(x, z):
        return evaluate_rmse(predict(config, models, map_obj, x, _rows=True), z).average_rmse

    return MethodResult(config.mapping, rmse(x_train, z_train), rmse(x_test, z_test))


def compare_methods(config: ExperimentConfig, data_dir, threads: int = 1) -> ComparisonResult:
    """Run lowdim, direct, and mlp on identical splits, seeds, and models.

    The direct map uses no model, so it runs last, after the models are
    dropped.  No method shares state with another, so the rows, returned in
    ``MAPPING_METHODS`` order, keep their bits, and two calls on one
    dataset return equal results.  ``threads`` is a worker cap; one worker
    meets every cap.
    """
    manifest = read_dataset_manifest(data_dir)
    models = pretrain(data_dir, config.k_2d, config.k_3d)
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
        rows=[rows[method] for method in MAPPING_METHODS], k_2d=k_2d, k_3d=k_3d)


def write_comparison_csv(result: ComparisonResult, path):
    """CSV: method,train_rmse,test_rmse,k_2d,k_3d — numbers only, no timestamps."""
    lines = ["method,train_rmse,test_rmse,k_2d,k_3d"]
    for row in result.rows:
        lines.append(f"{row.method},{row.train_rmse!r},{row.test_rmse!r},"
                     f"{result.k_2d},{result.k_3d}")
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_evaluation_csv(report: EvaluationReport, path):
    """CSV: pair_id,rmse rows plus a final average row."""
    lines = ["pair_id,rmse"]
    for pid, value in zip(report.sample_ids, report.per_sample_rmse):
        lines.append(f"{pid},{float(value)!r}")
    lines.append(f"average,{report.average_rmse!r}")
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))

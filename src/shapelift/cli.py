"""Command-line front end: dataset generation, training, evaluation, tooling.

Exit codes: 0 success, 1 invalid input, config or usage, 2 numerical failure.
Diagnostics go to stderr; machine-readable results go to files (or stdout
for ``inspect``).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import mapping as mp
from . import pipeline, render, shapes, subspace
from ._fileio import read_header
from .config import (
    MAPPING_METHODS,
    _int,
    load_experiment,
    load_manifest,
    resolve_config_path,
    with_mapping,
    with_seed,
)
from .errors import FileFormatError, InvalidInputError, NumericalFailureError

IMAGE_MODEL_FILE = "image_model.ssm"
SHAPE_MODEL_FILE = "shape_model.ssm"


def _note(message: str):
    print(message, file=sys.stderr)


def _load_models(out_dir: Path, method: str):
    """The pretrained (image, shape) models for ``method``, and their (k_2d, k_3d).

    Every method needs both ``.ssm`` files in ``out_dir``, and each must pass
    the header and size checks of ``subspace.load_ssm``.  A direct map uses
    neither model, so for it only those checks run: no array is read, the
    models come back as None and the k are the headers'.
    """
    paths = (out_dir / IMAGE_MODEL_FILE, out_dir / SHAPE_MODEL_FILE)
    if not all(path.exists() for path in paths):
        raise InvalidInputError(
            f"no pretrained models in {out_dir}; run the pretrain subcommand first"
        )
    if method == "direct":
        return None, tuple(subspace._check_ssm(path)["k"] for path in paths)
    models = tuple(subspace.load_ssm(path) for path in paths)
    return models, tuple(model.k for model in models)


def _integer(text: str) -> int:
    """An integer option, read as the config files read one (``config._int``)."""
    try:
        return _int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _worker_cap(text: str) -> int:
    """A ``--threads`` value: an integer of at least 1."""
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _map_path(out_dir: Path, method: str) -> Path:
    return out_dir / f"mapping_{method}.map"


def _cmd_gen(args) -> int:
    manifest = with_seed(load_manifest(resolve_config_path(args.config)), args.seed)
    pipeline.generate_dataset(manifest, args.out, threads=args.threads)
    _note(f"dataset written to {args.out}")
    return 0


def _cmd_pretrain(args) -> int:
    config = load_experiment(resolve_config_path(args.config))
    img_model, shape_model = pipeline.pretrain(args.data, config.k_2d, config.k_3d)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    subspace.save_ssm(img_model, out_dir / IMAGE_MODEL_FILE)
    subspace.save_ssm(shape_model, out_dir / SHAPE_MODEL_FILE)
    _note(f"subspace models written to {out_dir} "
          f"(k_2d={img_model.k}, k_3d={shape_model.k})")
    return 0


def _cmd_fit(args) -> int:
    config = with_mapping(load_experiment(resolve_config_path(args.config)), args.method)
    manifest = pipeline.read_dataset_manifest(args.data)
    out_dir = Path(args.out)
    models, _ = _load_models(out_dir, config.mapping)
    x, z, _ = pipeline.load_paired(args.data, manifest, pipeline.SPLIT_PAIRED_TRAIN,
                                   config.pair_policy)
    map_obj = pipeline.fit_mapping(config, models, x, z)
    mp.save_map(map_obj, _map_path(out_dir, config.mapping))
    _note(f"{config.mapping} mapping written to {_map_path(out_dir, config.mapping)}")
    return 0


def _cmd_eval(args) -> int:
    config = with_mapping(load_experiment(resolve_config_path(args.config)), args.method)
    manifest = pipeline.read_dataset_manifest(args.data)
    out_dir = Path(args.out)
    models, (k_2d, k_3d) = _load_models(out_dir, config.mapping)
    map_file = _map_path(out_dir, config.mapping)
    if not map_file.exists():
        raise InvalidInputError(f"no mapping file {map_file}; run fit first")
    map_obj = mp.load_map(map_file)
    x, z, pair_ids = pipeline.load_paired(args.data, manifest,
                                          pipeline.SPLIT_PAIRED_TEST,
                                          config.pair_policy)
    predictions = pipeline.predict(config, models, map_obj, x)
    report = pipeline.evaluate_rmse(
        predictions, z, sample_ids=pair_ids,
        config_echo={"mapping": config.mapping, "k_2d": k_2d, "k_3d": k_3d,
                     "pair_policy": config.pair_policy},
    )
    pipeline.write_evaluation_csv(report, out_dir / f"eval_{config.mapping}.csv")
    pipeline.write_evaluation_summary(report, out_dir / f"eval_{config.mapping}.txt")
    _note(f"average test rmse ({config.mapping}): {report.average_rmse:.6g}")
    return 0


def _cmd_compare(args) -> int:
    config = load_experiment(resolve_config_path(args.config))
    result = pipeline.compare_methods(config, args.data, threads=args.threads)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    pipeline.write_comparison_csv(result, out_dir / "compare.csv")
    pipeline.write_comparison_summary(result, out_dir / "compare.txt")
    _note(f"comparison written to {out_dir / 'compare.csv'}")
    return 0


def _load_any_shape(path: str):
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic.startswith(b"VOXR"):
        return shapes.load_voxr(path)
    if magic.startswith(b"ply"):
        return shapes.load_cloud(path)
    raise FileFormatError(f"{path}: not a VOXR or PLY shape file")


def _cmd_render(args) -> int:
    shape = _load_any_shape(args.shape)
    yaws = args.yaw if args.yaw else render.view_yaws(args.views)
    poses = [render.Pose(y) for y in yaws]
    out_dir = Path(args.out)
    for pose in poses:
        image = render.render_depth(shape, pose, args.width, args.height)
        # Made only once a view has rendered, so a bad size leaves no directory.
        out_dir.mkdir(parents=True, exist_ok=True)
        name = f"render_{pose.yaw_deg:g}deg.pgm"
        render.save_pgm(image, out_dir / name)
    _note(f"{len(poses)} view(s) written to {out_dir}")
    return 0


def _cmd_heatmap(args) -> int:
    prediction = shapes.load_cloud(args.prediction)
    truth = shapes.load_cloud(args.truth)
    hm = pipeline.heatmap(prediction, truth, mode=args.mode)
    pipeline.export_heatmap(hm, truth, args.out)
    _note(f"heat map written to {args.out} "
          f"(max error {float(hm.errors.max() if hm.errors.size else 0.0):.6g})")
    return 0


def _stats(values: np.ndarray) -> str:
    return (f"min {values.min():.6g}, max {values.max():.6g}, "
            f"mean {values.mean():.6g}")


def _cmd_inspect(args) -> int:
    path = args.file
    with open(path, "rb") as fh:
        head = fh.read(16)
    if not head:
        raise FileFormatError(f"{path}: unexpected end of file")
    if head.startswith(b"VOXR"):
        grid = shapes.load_voxr(path)
        total = grid.resolution ** 3
        print(f"{path}: VOXR voxel grid")
        print(f"resolution: {grid.resolution}")
        print(f"occupied: {grid.occupied_count} of {total} "
              f"({100.0 * grid.occupied_count / total:.1f}%)")
        return 0
    if head.startswith(b"ply"):
        points, extras, corr = shapes.read_ply(path)
        print(f"{path}: ASCII PLY point cloud")
        print(f"vertices: {points.shape[0]}")
        if corr:
            print(f"correspondence: {corr}")
        if points.size:
            for axis, name in enumerate("xyz"):
                print(f"{name}: {_stats(points[:, axis])}")
            for name, values in extras.items():
                print(f"property {name}: {_stats(values)}")
        return 0
    if head.startswith(b"P5"):
        image = render.load_pgm(path)
        print(f"{path}: PGM image")
        print(f"size: {image.shape[1]}x{image.shape[0]}")
        print(f"pixels: {_stats(image)}")
        return 0
    if head[:1] in (b"{", b"["):
        with open(path, "rb") as fh:
            header = read_header(fh, path, "JSON")
        if "dim" in header:
            model = subspace.load_ssm(path)
            print(f"{path}: subspace model (format v{subspace.SSM_FORMAT_VERSION})")
            print(f"dim: {model.dim}, k: {model.k}")
            lead = ", ".join(f"{s:.6g}" for s in model.singular_values[:5])
            print(f"leading singular values: {lead}")
            print(f"mean: {_stats(model.mean)}")
            return 0
        if "layer_sizes" in header:
            m = mp.load_map(path)
            print(f"{path}: mapping network (format v{mp.MAP_FORMAT_VERSION})")
            print(f"layers: {'-'.join(str(s) for s in m.layer_sizes)}")
            print(f"activation: {m.activation}")
            flat = np.concatenate([w.ravel() for w in m.weights])
            print(f"weights: {_stats(flat)}")
            return 0
        raise FileFormatError(f"{path}: unrecognized JSON header")
    raise FileFormatError(f"{path}: unknown file format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapelift",
        description="Synthetic single-image 3D reconstruction toolbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dataset from a [dataset] manifest")
    p.add_argument("--config", required=True, help="config file with [dataset]")
    p.add_argument("--out", required=True, help="dataset output directory")
    p.add_argument("--seed", type=_integer, default=None, help="override base_seed")
    p.add_argument("--threads", type=_worker_cap, default=1,
                   help="worker cap, at least 1 (default 1)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("pretrain", help="fit both subspaces from unlabeled pools")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="dataset directory from gen")
    p.add_argument("--out", required=True, help="artifact directory for models")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("fit", help="fit the mapping on the paired training split")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="artifact directory (models live here)")
    p.add_argument("--method", choices=MAPPING_METHODS, default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", help="evaluate the fitted mapping on the test split")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=MAPPING_METHODS, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="run all three mappings on identical splits")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=_worker_cap, default=1,
                   help="worker cap, at least 1 (default 1)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("render", help="render depth views of a shape file")
    p.add_argument("shape", help="VOXR or PLY shape file")
    p.add_argument("--out", required=True)
    p.add_argument("--yaw", type=float, action="append", default=None,
                   help="explicit yaw in degrees (repeatable)")
    p.add_argument("--views", type=_integer, default=1,
                   help="evenly spread views over 0..180 (default 1)")
    p.add_argument("--width", type=_integer, default=32)
    p.add_argument("--height", type=_integer, default=32)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("heatmap", help="per-point error map between two clouds")
    p.add_argument("prediction", help="predicted cloud (PLY)")
    p.add_argument("truth", help="ground-truth cloud (PLY)")
    p.add_argument("--mode", choices=["corresponded", "nearest"],
                   default="corresponded")
    p.add_argument("--out", required=True, help="output PLY with error property")
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser("inspect", help="summarize a shapelift file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 means numerical failure
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except NumericalFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

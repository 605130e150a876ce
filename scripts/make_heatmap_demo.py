"""Train on the point-cloud family and export per-point error heat maps.

Usage:
    python scripts/make_heatmap_demo.py [workdir]

Builds a scaled-down cloud dataset, fits the low-dimensional linear mapping,
reconstructs every test cloud, and writes heat-map PLYs (corresponded and
nearest-neighbor modes) for the worst and best test samples.  The PLYs are
binary little-endian with a double ``error`` property per vertex, which
point-cloud viewers that read standard binary PLY can colorize.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

from shapelift import pipeline, shapes
from shapelift.config import load_experiment, load_manifest

REPO_ROOT = Path(__file__).resolve().parents[1]
CLOUD_CFG = REPO_ROOT / "configs" / "reference_cloud.cfg"


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("heatmap_demo")
    data_dir = workdir / "data"
    manifest = load_manifest(str(CLOUD_CFG))
    manifest = dataclasses.replace(manifest, unlabeled_2d=120, unlabeled_3d=120,
                                   paired_train=120, paired_test=30)
    config = load_experiment(str(CLOUD_CFG))
    config = dataclasses.replace(config, k_2d=40)

    if not (data_dir / "manifest.cfg").exists():
        print(f"generating cloud dataset under {data_dir} ...", file=sys.stderr)
        pipeline.generate_dataset(manifest, data_dir)

    models = pipeline.pretrain(data_dir, config.k_2d, config.k_3d)
    x_train, z_train, _ = pipeline.load_paired(data_dir, manifest,
                                               pipeline.SPLIT_PAIRED_TRAIN,
                                               config.pair_policy)
    x_test, z_test, pair_ids = pipeline.load_paired(data_dir, manifest,
                                                    pipeline.SPLIT_PAIRED_TEST,
                                                    config.pair_policy)
    map_obj = pipeline.fit_mapping(config, models, x_train, z_train)
    predictions = pipeline.predict(config, models, map_obj, x_test)
    report = pipeline.evaluate_rmse(predictions, z_test, sample_ids=pair_ids)
    print(f"average test rmse: {report.average_rmse:.5f}")

    order = np.argsort(report.per_sample_rmse)
    for label, idx in (("best", order[0]), ("worst", order[-1])):
        truth = shapes.PointCloud(z_test[:, idx].reshape(-1, 3),
                                  f"demo:{manifest.point_count}")
        pred = shapes.PointCloud(predictions[:, idx].reshape(-1, 3),
                                 truth.correspondence_id)
        for mode in ("corresponded", "nearest"):
            hm = pipeline.heatmap(pred, truth, mode)
            out = workdir / f"heatmap_{label}_{mode}.ply"
            shapes.write_ply(out, truth.points, {"error": hm.errors},
                             truth.correspondence_id)
            print(f"{label} sample {pair_ids[idx]} [{mode}]: "
                  f"max error {hm.errors.max():.5f} -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Config files: a [dataset] manifest plus [experiment] and [schedule] sections.

INI-style key/value text parsed with configparser.  Every key is documented
below; unknown sections or keys are rejected outright so typos fail loudly.
Precedence is CLI flags > config file > the defaults baked in here.

[dataset]
    kinds            space-separated shape kinds (box ellipsoid cylinder
                     torus composite)
    representation   voxel | cloud
    resolution       voxel grid resolution (8..64)
    point_count      points per cloud (cloud representation)
    unlabeled_2d     shapes rendered into the unlabeled image pool
    unlabeled_3d     shapes in the unlabeled 3D pool
    paired_train     shapes in the paired training split
    paired_test      shapes in the paired test split
    view_count       rendered views per shape (yaws spread over 0..180)
    poses            explicit yaw list in degrees; overrides view_count
    image_size       square image side in pixels
    base_seed        seed from which every per-sample seed derives

[experiment]
    k_2d             image subspace dimension
    k_3d             shape subspace dimension
    mapping          lowdim | direct | mlp
    mlp_hidden       hidden layer widths for the mlp mapping
    pair_policy      cycle (one view per shape, cycling yaws) | all

[schedule]
    rates            space-separated rate:epochs phases, e.g. 0.001:1000
    batch_size       mini-batch size
    seed             training seed (init + shuffling)
"""

from __future__ import annotations

import configparser
import dataclasses
import os
from dataclasses import dataclass

from .errors import InvalidInputError
from .mapping import TrainSchedule
from .render import view_yaws
from .shapes import ALL_KINDS, MAX_RESOLUTION, MIN_RESOLUTION

ENV_CONFIG_DIR = "SHAPELIFT_CONFIG_DIR"

MAPPING_METHODS = ("lowdim", "direct", "mlp")


@dataclass(frozen=True)
class DatasetManifest:
    kinds: tuple = ("box", "ellipsoid", "cylinder", "torus")
    representation: str = "voxel"
    resolution: int = 30
    point_count: int = 600
    unlabeled_2d: int = 300
    unlabeled_3d: int = 300
    paired_train: int = 200
    paired_test: int = 50
    view_count: int = 8
    poses: tuple = ()
    image_size: int = 32
    base_seed: int = 42

    def __post_init__(self):
        for kind in self.kinds:
            if kind not in ALL_KINDS:
                raise InvalidInputError(f"unknown shape kind {kind!r}")
        if not self.kinds:
            raise InvalidInputError("kinds must not be empty")
        if self.representation not in ("voxel", "cloud"):
            raise InvalidInputError(
                f"representation must be voxel or cloud, got {self.representation!r}"
            )
        if not MIN_RESOLUTION <= self.resolution <= MAX_RESOLUTION:
            raise InvalidInputError(
                f"resolution {self.resolution} outside "
                f"[{MIN_RESOLUTION}, {MAX_RESOLUTION}]"
            )
        if self.point_count < 4:
            raise InvalidInputError(f"point_count {self.point_count} must be >= 4")
        for name in ("unlabeled_2d", "unlabeled_3d", "paired_train", "paired_test"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1")
        if self.view_count < 1:
            raise InvalidInputError("view_count must be >= 1")
        if self.image_size < 1:
            raise InvalidInputError("image_size must be >= 1")

    @property
    def yaws(self) -> tuple:
        """Effective yaw list: explicit poses, else 180*i/view_count."""
        if self.poses:
            return self.poses
        return tuple(view_yaws(self.view_count))

    @property
    def shape_dim(self) -> int:
        if self.representation == "voxel":
            return self.resolution ** 3
        return 3 * self.point_count

    @property
    def image_dim(self) -> int:
        return self.image_size ** 2


@dataclass(frozen=True)
class ExperimentConfig:
    k_2d: int = 60
    k_3d: int = 400
    mapping: str = "lowdim"
    mlp_hidden: tuple = (100,)
    pair_policy: str = "cycle"
    schedule: TrainSchedule = TrainSchedule()

    def __post_init__(self):
        if self.k_2d < 1 or self.k_3d < 1:
            raise InvalidInputError("subspace dimensions must be >= 1")
        if self.mapping not in MAPPING_METHODS:
            raise InvalidInputError(
                f"mapping must be one of {MAPPING_METHODS}, got {self.mapping!r}"
            )
        if self.pair_policy not in ("cycle", "all"):
            raise InvalidInputError(
                f"pair_policy must be cycle or all, got {self.pair_policy!r}"
            )
        for width in self.mlp_hidden:
            if width < 1:
                raise InvalidInputError("mlp_hidden widths must be >= 1")


_DATASET_KEYS = {
    "kinds", "representation", "resolution", "point_count", "unlabeled_2d",
    "unlabeled_3d", "paired_train", "paired_test", "view_count", "poses",
    "image_size", "base_seed",
}
_EXPERIMENT_KEYS = {"k_2d", "k_3d", "mapping", "mlp_hidden", "pair_policy"}
_SCHEDULE_KEYS = {"rates", "batch_size", "seed"}
_SECTIONS = {"dataset": _DATASET_KEYS, "experiment": _EXPERIMENT_KEYS,
             "schedule": _SCHEDULE_KEYS}


def resolve_config_path(path: str) -> str:
    """Return the path as-is, or fall back to $SHAPELIFT_CONFIG_DIR/<path>."""
    if os.path.exists(path):
        return path
    env_dir = os.environ.get(ENV_CONFIG_DIR)
    if env_dir and not os.path.isabs(path):
        candidate = os.path.join(env_dir, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _read_parser(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise InvalidInputError(f"config {path} does not parse: {exc}") from exc
    for section in parser.sections():
        if section not in _SECTIONS:
            raise InvalidInputError(f"config {path}: unknown section [{section}]")
        unknown = set(parser[section]) - _SECTIONS[section]
        if unknown:
            raise InvalidInputError(
                f"config {path}: unknown keys in [{section}]: {sorted(unknown)}"
            )
    return parser


def _get(parser, section, key, conv, default):
    if parser.has_option(section, key):
        raw = parser.get(section, key)
        try:
            return conv(raw)
        except ValueError as exc:
            raise InvalidInputError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return default


def _words(raw: str) -> tuple:
    return tuple(w for w in raw.replace(",", " ").split() if w)


def _floats(raw: str) -> tuple:
    return tuple(float(w) for w in _words(raw))


def _ints(raw: str) -> tuple:
    return tuple(int(w) for w in _words(raw))


def _phases(raw: str) -> tuple:
    phases = []
    for word in _words(raw):
        rate, _, epochs = word.partition(":")
        if not epochs:
            raise ValueError(f"phase {word!r} is not rate:epochs")
        phases.append((float(rate), int(epochs)))
    return tuple(phases)


def load_manifest(path: str) -> DatasetManifest:
    parser = _read_parser(path)
    d = DatasetManifest()
    return DatasetManifest(
        kinds=_get(parser, "dataset", "kinds", _words, d.kinds),
        representation=_get(parser, "dataset", "representation", str, d.representation),
        resolution=_get(parser, "dataset", "resolution", int, d.resolution),
        point_count=_get(parser, "dataset", "point_count", int, d.point_count),
        unlabeled_2d=_get(parser, "dataset", "unlabeled_2d", int, d.unlabeled_2d),
        unlabeled_3d=_get(parser, "dataset", "unlabeled_3d", int, d.unlabeled_3d),
        paired_train=_get(parser, "dataset", "paired_train", int, d.paired_train),
        paired_test=_get(parser, "dataset", "paired_test", int, d.paired_test),
        view_count=_get(parser, "dataset", "view_count", int, d.view_count),
        poses=_get(parser, "dataset", "poses", _floats, d.poses),
        image_size=_get(parser, "dataset", "image_size", int, d.image_size),
        base_seed=_get(parser, "dataset", "base_seed", int, d.base_seed),
    )


def load_experiment(path: str) -> ExperimentConfig:
    parser = _read_parser(path)
    e = ExperimentConfig()
    s = e.schedule
    schedule = TrainSchedule(
        learning_rate_phases=_get(parser, "schedule", "rates", _phases,
                                  s.learning_rate_phases),
        batch_size=_get(parser, "schedule", "batch_size", int, s.batch_size),
        seed=_get(parser, "schedule", "seed", int, s.seed),
    )
    return ExperimentConfig(
        k_2d=_get(parser, "experiment", "k_2d", int, e.k_2d),
        k_3d=_get(parser, "experiment", "k_3d", int, e.k_3d),
        mapping=_get(parser, "experiment", "mapping", str, e.mapping),
        mlp_hidden=_get(parser, "experiment", "mlp_hidden", _ints, e.mlp_hidden),
        pair_policy=_get(parser, "experiment", "pair_policy", str, e.pair_policy),
        schedule=schedule,
    )


def with_seed(manifest: DatasetManifest, seed: int | None) -> DatasetManifest:
    if seed is None:
        return manifest
    return dataclasses.replace(manifest, base_seed=int(seed))


def with_mapping(config: ExperimentConfig, method: str | None) -> ExperimentConfig:
    if method is None:
        return config
    return dataclasses.replace(config, mapping=method)


def write_manifest(manifest: DatasetManifest, path: str):
    """Write a resolved [dataset] section; byte-deterministic."""
    lines = ["[dataset]"]
    lines.append("kinds = " + " ".join(manifest.kinds))
    lines.append(f"representation = {manifest.representation}")
    lines.append(f"resolution = {manifest.resolution}")
    lines.append(f"point_count = {manifest.point_count}")
    lines.append(f"unlabeled_2d = {manifest.unlabeled_2d}")
    lines.append(f"unlabeled_3d = {manifest.unlabeled_3d}")
    lines.append(f"paired_train = {manifest.paired_train}")
    lines.append(f"paired_test = {manifest.paired_test}")
    lines.append(f"view_count = {manifest.view_count}")
    lines.append("poses = " + " ".join(repr(p) for p in manifest.poses))
    lines.append(f"image_size = {manifest.image_size}")
    lines.append(f"base_seed = {manifest.base_seed}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

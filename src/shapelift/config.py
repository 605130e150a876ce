"""Config files: a [dataset] manifest plus [experiment] and [schedule] sections.

INI-style key/value text parsed with configparser.  Every key is documented
below; unknown sections or keys are rejected outright so typos fail loudly.
Precedence is CLI flags > config file > the defaults baked in here.  One
table, ``_KEYS``, lists each key with its parser; it drives the unknown-key
check, both loaders and ``write_manifest``.

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
    poses            explicit yaw list in degrees, each finite and no two
                     the same yaw modulo 360; overrides view_count
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

from ._fileio import atomic_write
from .errors import InvalidInputError
from .mapping import TrainSchedule
from .render import Pose, view_yaws
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
        seen = {}  # normalized yaw -> the pose that gave it
        for yaw in self.poses:
            deg = Pose(yaw).yaw_deg  # raises on a non-finite yaw before any file is written
            if deg in seen:
                raise InvalidInputError(
                    f"poses {seen[deg]!r} and {yaw!r} are the same yaw {deg:g}")
            seen[deg] = yaw
        if self.image_size < 1:
            raise InvalidInputError("image_size must be >= 1")
        if self.base_seed < 0:
            raise InvalidInputError(f"base_seed {self.base_seed} must be >= 0")

    @property
    def yaws(self) -> tuple:
        """Effective yaw list: explicit poses, else 180*i/view_count."""
        if self.poses:
            return self.poses
        return tuple(view_yaws(self.view_count))


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
    # A "%" is text, and [DEFAULT] is a section, so it is rejected as unknown.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise InvalidInputError(f"config {path} does not parse: {exc}") from exc
    for section in parser.sections():
        if section not in _KEYS:
            raise InvalidInputError(f"config {path}: unknown section [{section}]")
        unknown = set(parser[section]) - _KEYS[section].keys()
        if unknown:
            raise InvalidInputError(
                f"config {path}: unknown keys in [{section}]: {sorted(unknown)}"
            )
    return parser


def _words(raw: str) -> tuple:
    return tuple(w for w in raw.replace(",", " ").split() if w)


def _floats(raw: str) -> tuple:
    return tuple(_float(w) for w in _words(raw))


def _int(raw: str) -> int:
    """ASCII digits with an optional minus sign: ``int()`` alone would also
    take "1_0", "+2", spaces and the digits of other scripts."""
    if not (raw.isascii() and raw.removeprefix("-").isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {raw!r}")
    return int(raw)


def _float(raw: str) -> float:
    """An ASCII ``float()`` literal with no "_", leading "+" or surrounding
    whitespace, the spellings ``_int`` rejects too; nan and inf still parse."""
    if not raw.isascii() or "_" in raw or raw.startswith("+") or raw != raw.strip():
        raise ValueError(f"could not convert string to float: {raw!r}")
    return float(raw)


def _ints(raw: str) -> tuple:
    return tuple(_int(w) for w in _words(raw))


def _phases(raw: str) -> tuple:
    phases = []
    for word in _words(raw):
        rate, _, epochs = word.partition(":")
        if not epochs:
            raise ValueError(f"phase {word!r} is not rate:epochs")
        phases.append((_float(rate), _int(epochs)))
    return tuple(phases)


# Every config key and its parser, section by section.  Each section lists
# its keys in the order of the fields they set in DatasetManifest,
# ExperimentConfig and TrainSchedule; a key is its field's name, except
# [schedule] rates, which sets learning_rate_phases.  write_manifest writes
# [dataset] in this order.
_KEYS = {
    "dataset": {
        "kinds": _words, "representation": str, "resolution": _int,
        "point_count": _int, "unlabeled_2d": _int, "unlabeled_3d": _int,
        "paired_train": _int, "paired_test": _int, "view_count": _int,
        "poses": _floats, "image_size": _int, "base_seed": _int,
    },
    "experiment": {"k_2d": _int, "k_3d": _int, "mapping": str, "mlp_hidden": _ints,
                   "pair_policy": str},
    "schedule": {"rates": _phases, "batch_size": _int, "seed": _int},
}


def _section(parser, section: str, cls) -> dict:
    """Field values for ``cls`` from the keys of ``section`` that the file
    sets, the n-th key filling the n-th field; a key it leaves out keeps
    the dataclass default."""
    values = {}
    for (key, parse), field in zip(_KEYS[section].items(), dataclasses.fields(cls)):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                values[field.name] = parse(raw)
            except ValueError as exc:
                raise InvalidInputError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return values


def load_manifest(path: str) -> DatasetManifest:
    return DatasetManifest(**_section(_read_parser(path), "dataset", DatasetManifest))


def load_experiment(path: str) -> ExperimentConfig:
    parser = _read_parser(path)
    schedule = TrainSchedule(**_section(parser, "schedule", TrainSchedule))
    return ExperimentConfig(**_section(parser, "experiment", ExperimentConfig),
                            schedule=schedule)


def with_mapping(config: ExperimentConfig, method: str | None) -> ExperimentConfig:
    if method is None:
        return config
    return dataclasses.replace(config, mapping=method)


def write_manifest(manifest: DatasetManifest, path: str):
    """Write a resolved [dataset] section; byte-deterministic and atomic.

    Keys follow ``_KEYS`` order and each value is written as ``str``, a
    tuple space-separated; a float's ``str`` reads back to the same value."""
    lines = ["[dataset]"]
    for key in _KEYS["dataset"]:
        value = getattr(manifest, key)
        if isinstance(value, tuple):
            value = " ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))

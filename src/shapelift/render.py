"""Deterministic orthographic depth renderer for voxel grids and point clouds.

Images are plain (height, width) float64 arrays with values in [0, 1],
row-major, row 0 at the top (highest z).  The camera looks along +y, so a
pixel shows ``1 - y`` of the nearest occupied cell center or frontmost
point, and 0 where nothing projects.  A view's yaw turns the shape about
the cube's vertical center axis inside ``render_depth``: a voxel view is one
gather and one ``argmax`` through read-only tables cached per yaw and image
size, a cloud view turns its points and splats them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._fileio import atomic_write, check_length
from .errors import FileFormatError, InvalidInputError
from .shapes import PointCloud, VoxelGrid


@dataclass(frozen=True)
class Pose:
    """Yaw about the cube's central vertical axis, normalized to [0, 360).

    A non-finite yaw raises ``InvalidInputError``."""

    yaw_deg: float = 0.0

    def __post_init__(self):
        yaw = float(self.yaw_deg)
        if not math.isfinite(yaw):
            raise InvalidInputError(f"yaw {yaw} must be finite")
        yaw %= 360.0  # float % rounds a tiny negative yaw, say -1e-14, up to 360.0
        object.__setattr__(self, "yaw_deg", 0.0 if yaw == 360.0 else yaw)


def _rotate_points(points: np.ndarray, yaw_deg: float) -> np.ndarray:
    """``points`` turned ``yaw_deg`` about the cube's vertical center axis; yaw 0 returns them."""
    if yaw_deg == 0.0:
        return points
    theta = math.radians(yaw_deg)
    c, s = math.cos(theta), math.sin(theta)
    dx = points[:, 0] - 0.5
    dy = points[:, 1] - 0.5
    return np.column_stack([0.5 + c * dx - s * dy, 0.5 + s * dx + c * dy, points[:, 2]])


@functools.lru_cache(maxsize=32)
def _voxel_rotation_table(yaw_deg: float, res: int):
    """Read-only (res, res + 1) z-run rows of ``render_depth``: per target
    column (x, y) the source nearest its rotated-back center (the empty run
    if outside), then the full run."""
    theta = math.radians(yaw_deg)
    c, s = math.cos(theta), math.sin(theta)
    centers = (np.arange(res) + 0.5) / res
    tx, ty = np.meshgrid(centers, centers, indexing="ij")
    sx = 0.5 + c * (tx - 0.5) + s * (ty - 0.5)
    sy = 0.5 - s * (tx - 0.5) + c * (ty - 0.5)
    jx = np.floor(sx * res).astype(np.int64)
    jy = np.floor(sy * res).astype(np.int64)
    valid = (jx >= 0) & (jx < res) & (jy >= 0) & (jy < res)
    rows = np.column_stack([np.where(valid, jx * res + jy, res * res),
                            np.full(res, res * res + 1)])
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=32)
def _pixel_table(width: int, height: int, res: int):
    """Read-only flat ``x * res + z`` column of each pixel center's ray, and
    the pixel value per first-hit y, with ``depth[res] = 0`` for a miss."""
    ix = ((np.arange(width) + 0.5) / width * res).astype(np.int64)
    iz = ((np.arange(height - 1, -1, -1) + 0.5) / height * res).astype(np.int64)
    columns = ix[None, :] * res + iz[:, None]
    depth = np.append(1.0 - (np.arange(res) + 0.5) / res, 0.0)
    columns.flags.writeable = depth.flags.writeable = False
    return columns, depth


def render_depth(shape, pose: Pose, width: int = 32, height: int = 32) -> np.ndarray:
    """Orthographic depth image of the shape after applying the pose.

    Voxel grids are sampled by one ray per pixel center; the pixel takes
    ``1 - (iy + 0.5)/res`` of the first occupied cell along +y (an ``argmax``
    over the rotated columns, each ending in an occupied cell at y = res).
    Point clouds splat each point into its pixel with value ``1 - y``,
    keeping the per-pixel maximum (the frontmost point).
    """
    if width < 1 or height < 1:
        raise InvalidInputError(f"image size {width}x{height} must be positive")
    if isinstance(shape, VoxelGrid):
        res = shape.resolution
        # The z-runs as rows x * res + y, then an empty and a full run.
        runs = np.concatenate([shape.occupancy.reshape(res * res, res),
                               np.zeros((1, res), bool), np.ones((1, res), bool)])
        rows = _voxel_rotation_table(pose.yaw_deg, res)
        # argmax over axis 1 copies y last itself, as fast as doing it here.
        first = runs.take(rows, axis=0).argmax(axis=1)  # (x, z)
        columns, depth = _pixel_table(width, height, res)
        return depth.take(first.take(columns))
    if not isinstance(shape, PointCloud):
        raise InvalidInputError(f"cannot render {type(shape).__name__}")
    img = np.zeros((height, width))
    pts = _rotate_points(shape.points, pose.yaw_deg)
    if pts.size:
        cols = np.clip(np.floor(pts[:, 0] * width).astype(np.int64), 0, width - 1)
        zbin = np.clip(np.floor(pts[:, 2] * height).astype(np.int64), 0, height - 1)
        rows = height - 1 - zbin
        vals = 1.0 - np.clip(pts[:, 1], 0.0, 1.0)
        np.maximum.at(img, (rows, cols), vals)
    return img


def view_yaws(view_count: int) -> list:
    """Evenly spread yaws over the half turn: 180 * i / view_count degrees."""
    if view_count < 1:
        raise InvalidInputError(f"view count must be >= 1, got {view_count}")
    return [180.0 * i / view_count for i in range(view_count)]


def _pgm_raster(image) -> np.ndarray:
    """``image`` as the bytes of its PGM raster, a 2-D nonempty uint8 array.

    A uint8 array is the raster as it is.  Any other input is read as
    float64 values in [0, 1], each stored as ``rint(value * 255)``.
    """
    img = np.asarray(image)
    if img.ndim != 2 or img.size == 0:
        raise InvalidInputError(f"image must be 2-D and nonempty, got shape {img.shape}")
    if img.dtype == np.uint8:
        return img
    img = img.astype(np.float64, copy=False)
    if img.min() < 0.0 or img.max() > 1.0:
        raise InvalidInputError("image values must lie in [0, 1]")
    return np.rint(img * 255.0).astype(np.uint8)


def save_pgm(image: np.ndarray, path):
    """Binary PGM (P5), maxval 255, written through ``_fileio.atomic_write``.

    The raster is ``_pgm_raster(image)``: a uint8 array as it is, float
    pixels in [0, 1] as ``round(pixel * 255)``.  A bad image raises
    ``InvalidInputError`` before the file is created.
    """
    raster = _pgm_raster(image)
    h, w = raster.shape
    atomic_write(path, f"P5\n{w} {h}\n255\n".encode("ascii") + raster.tobytes())


def load_pgm(path) -> np.ndarray:
    """Read a P5 PGM back to floats via pixel = byte / 255."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # Tokenize only the header; a raster byte may itself look like
    # whitespace, so exactly one separator byte follows the maxval token.
    pos = 0
    tokens = []
    while len(tokens) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FileFormatError(f"{path}: unexpected end of file")
        tokens.append(raw[start:pos])
    pos += 1
    if tokens[0] != b"P5":
        raise FileFormatError(f"{path}: not a binary PGM file")
    # Plain ASCII digits, optionally negative: int() alone would take b"3_2" or b"+3".
    if not all(t.removeprefix(b"-").isdigit() for t in tokens[1:]):
        raise FileFormatError(f"{path}: bad PGM header")
    w, h, maxval = (int(t) for t in tokens[1:])
    if w < 1 or h < 1:
        raise FileFormatError(f"{path}: image size {w}x{h} must be at least 1x1")
    if maxval != 255:
        raise FileFormatError(f"{path}: only maxval 255 is supported")
    check_length(path, len(raw) - pos, w * h, after="raster")
    # One float64 raster: the quotient is taken in place, with the same bits.
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=pos).astype(np.float64)
    pixels /= 255.0
    return pixels.reshape(h, w)

"""Deterministic orthographic depth renderer for voxel grids and point clouds.

Images are plain (height, width) float64 arrays with values in [0, 1],
row-major, row 0 at the top (highest z).  The camera looks along +y, so a
pixel shows ``1 - y`` of the nearest occupied cell center or frontmost
point, and 0 where nothing projects.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
        object.__setattr__(self, "yaw_deg", yaw % 360.0)


def rotate_z(shape, pose: Pose):
    """Rotate about the vertical axis through the cube center (0.5, 0.5).

    Point clouds rotate exactly; voxel grids inverse-map each target cell
    center with nearest-neighbor lookup, so cells whose source falls outside
    the cube come back empty; the lookup tables are built once per (yaw,
    resolution).  Yaw 0 returns the input unchanged.
    """
    if pose.yaw_deg == 0.0:
        return shape
    if isinstance(shape, PointCloud):
        theta = math.radians(pose.yaw_deg)
        c, s = math.cos(theta), math.sin(theta)
        dx = shape.points[:, 0] - 0.5
        dy = shape.points[:, 1] - 0.5
        pts = np.column_stack([
            0.5 + c * dx - s * dy,
            0.5 + s * dx + c * dy,
            shape.points[:, 2],
        ])
        return PointCloud(pts, correspondence_id=shape.correspondence_id)
    if isinstance(shape, VoxelGrid):
        jx, jy, valid = _voxel_rotation_table(pose.yaw_deg, shape.resolution)
        occ = shape.occupancy[jx, jy, :] & valid[:, :, None]
        return VoxelGrid(occ)
    raise InvalidInputError(f"cannot rotate {type(shape).__name__}")


@functools.lru_cache(maxsize=32)
def _voxel_rotation_table(yaw_deg: float, res: int):
    """Read-only source cell ``(jx, jy)`` and in-cube mask per target cell."""
    theta = math.radians(yaw_deg)
    c, s = math.cos(theta), math.sin(theta)
    centers = (np.arange(res) + 0.5) / res
    tx, ty = np.meshgrid(centers, centers, indexing="ij")
    sx = 0.5 + c * (tx - 0.5) + s * (ty - 0.5)
    sy = 0.5 - s * (tx - 0.5) + c * (ty - 0.5)
    jx = np.floor(sx * res).astype(np.int64)
    jy = np.floor(sy * res).astype(np.int64)
    valid = (jx >= 0) & (jx < res) & (jy >= 0) & (jy < res)
    jx = np.clip(jx, 0, res - 1)
    jy = np.clip(jy, 0, res - 1)
    for table in (jx, jy, valid):
        table.flags.writeable = False
    return jx, jy, valid


def render_depth(shape, pose: Pose, width: int = 32, height: int = 32) -> np.ndarray:
    """Orthographic depth image of the shape after applying the pose.

    Voxel grids are sampled by one ray per pixel center; the pixel takes
    ``1 - (iy + 0.5)/res`` of the first occupied cell along +y.  Point
    clouds splat each point into its pixel with value ``1 - y``, keeping the
    per-pixel maximum (the frontmost point).
    """
    if width < 1 or height < 1:
        raise InvalidInputError(f"image size {width}x{height} must be positive")
    rotated = rotate_z(shape, pose)
    if isinstance(rotated, VoxelGrid):
        occ = rotated.occupancy
        res = rotated.resolution
        hit = occ.any(axis=1)
        first = occ.argmax(axis=1)
        value = np.where(hit, 1.0 - (first + 0.5) / res, 0.0)  # (x, z)
        xp = (np.arange(width) + 0.5) / width
        zp = (np.arange(height - 1, -1, -1) + 0.5) / height
        ix = (xp * res).astype(np.int64)
        iz = (zp * res).astype(np.int64)
        return value[np.ix_(ix, iz)].T.copy()
    if isinstance(rotated, PointCloud):
        img = np.zeros((height, width))
        pts = rotated.points
        if pts.size:
            cols = np.clip(np.floor(pts[:, 0] * width).astype(np.int64), 0, width - 1)
            zbin = np.clip(np.floor(pts[:, 2] * height).astype(np.int64), 0, height - 1)
            rows = height - 1 - zbin
            vals = 1.0 - np.clip(pts[:, 1], 0.0, 1.0)
            np.maximum.at(img, (rows, cols), vals)
        return img
    raise InvalidInputError(f"cannot render {type(rotated).__name__}")


def view_yaws(view_count: int) -> list:
    """Evenly spread yaws over the half turn: 180 * i / view_count degrees."""
    if view_count < 1:
        raise InvalidInputError(f"view count must be >= 1, got {view_count}")
    return [180.0 * i / view_count for i in range(view_count)]


def save_pgm(image: np.ndarray, path):
    """Binary PGM (P5), maxval 255, byte = round(pixel * 255)."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise InvalidInputError(f"image must be 2-D and nonempty, got shape {img.shape}")
    if img.min() < 0.0 or img.max() > 1.0:
        raise InvalidInputError("image values must lie in [0, 1]")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.rint(img * 255.0).astype(np.uint8).tobytes())


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
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad PGM header") from exc
    if w < 1 or h < 1:
        raise FileFormatError(f"{path}: image size {w}x{h} must be at least 1x1")
    if maxval != 255:
        raise FileFormatError(f"{path}: only maxval 255 is supported")
    data = raw[pos:]
    if len(data) < w * h:
        raise FileFormatError(f"{path}: unexpected end of file")
    if len(data) > w * h:
        raise FileFormatError(f"{path}: trailing data after raster")
    pixels = np.frombuffer(data, dtype=np.uint8).astype(np.float64) / 255.0
    return pixels.reshape(h, w)

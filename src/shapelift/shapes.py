"""Procedural 3D solids, their flat vector form, and the PLY and VOXR formats.

All shapes live in the unit cube.  One table, ``_LIMITS``, describes each
primitive kind: the range of each size parameter, which size is the
vertical half-extent, and how far the solid reaches from the cube's z axis.
``validate_spec`` reads it to keep every solid at least ``UNIT_MARGIN`` away
from the cube faces and inside the vertical cylinder of radius
``SPIN_RADIUS`` around the cube's z axis, so a yaw by any angle never
carries content outside the cube.

Point-cloud sampling uses fixed parametric lattices: point ``i`` of any
cloud of a given (kind, point_count) family sits at the same surface
parameter, giving dense point-to-point correspondence across the family.

``sample_spec`` draws a ``ShapeSpec`` from a generator alone.  ``save_voxr``
and ``save_cloud`` write the two shape formats; a dataset uses the one its
representation names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._fileio import _finite, atomic_write, check_length
from .errors import FileFormatError, InvalidInputError, InvalidSpecError

UNIT_MARGIN = 0.05
SPIN_RADIUS = 0.45

MIN_RESOLUTION = 8
MAX_RESOLUTION = 64

# Golden-ratio fraction for the azimuthal spiral on spheres.
_GOLDEN = 0.6180339887498949
# R2 low-discrepancy constants (inverse powers of the plastic number).
_R2X = 0.7548776662466927
_R2Y = 0.5698402909980532

PRIMITIVE_KINDS = ("box", "ellipsoid", "cylinder", "torus")
ALL_KINDS = PRIMITIVE_KINDS + ("composite",)

# Per primitive kind: (the closed range of each size parameter, in canonical
# order; the size that is the solid's vertical half-extent; its reach from the
# cube's z axis given the center's offset (dx, dy) from that axis).
_SIZE = (0.02, 0.45)
_LIMITS = {
    "box": ({"hx": _SIZE, "hy": _SIZE, "hz": _SIZE}, "hz",
            lambda dx, dy, p: math.hypot(abs(dx) + p["hx"], abs(dy) + p["hy"])),
    "ellipsoid": ({"rx": _SIZE, "ry": _SIZE, "rz": _SIZE}, "rz",
                  lambda dx, dy, p: math.hypot(dx, dy) + max(p["rx"], p["ry"])),
    "cylinder": ({"radius": _SIZE, "half_height": _SIZE}, "half_height",
                 lambda dx, dy, p: math.hypot(dx, dy) + p["radius"]),
    "torus": ({"major": (0.04, 0.44), "minor": (0.01, 0.44)}, "minor",
              lambda dx, dy, p: math.hypot(dx, dy) + p["major"] + p["minor"]),
}

# Parameter names per primitive kind, in canonical order.
_PARAM_NAMES = {kind: ("cx", "cy", "cz", *sizes) for kind, (sizes, _, _) in _LIMITS.items()}


@dataclass(frozen=True)
class VoxelGrid:
    """Binary occupancy over a cubic lattice.

    ``occupancy[ix, iy, iz]`` covers the cell
    ``[ix/res, (ix+1)/res) x ... x [iz/res, (iz+1)/res)``.  The canonical
    flat ordering is x-fastest, then y, then z (``ravel(order="F")``).
    """

    occupancy: np.ndarray

    def __post_init__(self):
        occ = np.asarray(self.occupancy, dtype=bool)
        if occ.ndim != 3 or len(set(occ.shape)) != 1:
            raise InvalidInputError(f"occupancy must be cubic 3-D, got shape {occ.shape}")
        object.__setattr__(self, "occupancy", occ)

    @property
    def resolution(self) -> int:
        return self.occupancy.shape[0]

    @property
    def occupied_count(self) -> int:
        return int(self.occupancy.sum())


@dataclass(frozen=True)
class PointCloud:
    """Ordered 3D points; clouds sharing a correspondence_id match pointwise."""

    points: np.ndarray
    correspondence_id: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidInputError(f"points must have shape (n, 3), got {pts.shape}")
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ShapeSpec:
    """Analytic solid description: kind, continuous parameters and, for a
    composite, its children.  It holds no seed: a dataset sample's spec is
    drawn by ``sample_spec`` from the generator of ``(base_seed, sample_id)``.

    Valid parameter ranges (all lengths in unit-cube units), as the table
    ``_LIMITS`` holds them:

    * box: half-extents hx, hy, hz in [0.02, 0.45]
    * ellipsoid: radii rx, ry, rz in [0.02, 0.45]
    * cylinder (axis z): radius, half_height in [0.02, 0.45]
    * torus (axis z): major in [0.04, 0.44], minor in [0.01, 0.44] and below major
    * composite: union of exactly two primitive children, params empty

    plus, for every kind: the solid must clear the cube faces by
    ``UNIT_MARGIN`` in z and fit inside the vertical cylinder of radius
    ``SPIN_RADIUS`` about the cube center, which keeps any yaw of the solid
    inside the margins.  The table names each kind's vertical half-extent
    and its reach from that cylinder's axis.  Only the lower bounds are
    limits of their own: the upper bounds are implied by these two checks
    and ``minor < major``, and decide no verdict.  The spin-safe radius
    caps each horizontal size, and the torus's major + minor, at 0.45; the
    vertical margin caps each vertical half-extent at 0.45; and the torus
    minor stays below its major.
    """

    kind: str
    params: dict = field(default_factory=dict)
    children: tuple = ()


def _require(cond: bool, message: str, *args):
    """Raise ``InvalidSpecError(message.format(*args))`` unless ``cond``: the
    message is built only for a check that fails."""
    if not cond:
        raise InvalidSpecError(message.format(*args))


def validate_spec(spec: ShapeSpec):
    """Check a ShapeSpec against the limits the table ``_LIMITS`` gives."""
    if spec.kind == "composite":
        _require(len(spec.children) == 2, "composite requires exactly two children")
        _require(not spec.params, "composite carries no parameters of its own")
        for child in spec.children:
            _require(child.kind in PRIMITIVE_KINDS,
                     "composite children must be primitive, got {!r}", child.kind)
            validate_spec(child)
        return
    if spec.kind not in _LIMITS:
        raise InvalidSpecError(f"unknown shape kind {spec.kind!r}")
    _require(not spec.children, "{} takes no children", spec.kind)
    names = _PARAM_NAMES[spec.kind]
    missing = [n for n in names if n not in spec.params]
    extra = [n for n in spec.params if n not in names]
    _require(not missing, "{} is missing parameters {}", spec.kind, missing)
    _require(not extra, "{} got unknown parameters {}", spec.kind, extra)
    p = {n: float(spec.params[n]) for n in names}
    sizes, vertical, reach = _LIMITS[spec.kind]
    for n, (lo, hi) in sizes.items():
        _require(lo <= p[n] <= hi, "{} {}={} outside [{}, {}]", spec.kind, n, p[n], lo, hi)
    if spec.kind == "torus":
        _require(p["minor"] < p["major"], "torus minor={} must be below major={}",
                 p["minor"], p["major"])
    r = reach(p["cx"] - 0.5, p["cy"] - 0.5, p)
    _require(r <= SPIN_RADIUS, "{} reaches {:.4f} from the vertical axis, "
                               "beyond the spin-safe radius {}", spec.kind, r, SPIN_RADIUS)
    h = p[vertical]
    _require(UNIT_MARGIN <= p["cz"] - h and p["cz"] + h <= 1.0 - UNIT_MARGIN,
             "{} leaves the vertical margin", spec.kind)


def _inside(spec: ShapeSpec, x, y, z):
    """Boolean mask of which points (x, y, z) lie inside the solid."""
    if spec.kind == "composite":
        a, b = spec.children
        return _inside(a, x, y, z) | _inside(b, x, y, z)
    p = spec.params
    dx, dy, dz = x - p["cx"], y - p["cy"], z - p["cz"]
    if spec.kind == "box":
        return (np.abs(dx) <= p["hx"]) & (np.abs(dy) <= p["hy"]) & (np.abs(dz) <= p["hz"])
    if spec.kind == "ellipsoid":
        return ((dx / p["rx"]) ** 2 + (dy / p["ry"]) ** 2 + (dz / p["rz"]) ** 2) <= 1.0
    if spec.kind == "cylinder":
        return (dx * dx + dy * dy <= p["radius"] ** 2) & (np.abs(dz) <= p["half_height"])
    ring = np.sqrt(dx * dx + dy * dy) - p["major"]  # torus
    return ring * ring + dz * dz <= p["minor"] ** 2


def generate_voxel_shape(spec: ShapeSpec, resolution: int) -> VoxelGrid:
    """Rasterize the analytic solid: a cell is occupied iff its center is inside.

    Centers enter as three broadcast axes, not full meshgrids, with the same
    operations per cell.  Deterministic: identical specs produce bit-identical grids.
    """
    validate_spec(spec)
    if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
        raise InvalidInputError(
            f"resolution {resolution} outside [{MIN_RESOLUTION}, {MAX_RESOLUTION}]"
        )
    c = (np.arange(resolution) + 0.5) / resolution
    return VoxelGrid(_inside(spec, c[:, None, None], c[None, :, None], c[None, None, :]))


def surface_lattice(kind: str, point_count: int) -> np.ndarray:
    """Parametric sampling lattice for a kind: rows of (chart, u, v).

    Depends only on (kind, point_count), never on shape parameters — this is
    what makes point i correspond across a whole family.  Charts: ellipsoid
    and torus use a single chart; box uses charts 0-5 (+x, -x, +y, -y, +z,
    -z faces); cylinder uses 0 (side), 1 (top cap), 2 (bottom cap).
    """
    if kind not in PRIMITIVE_KINDS:
        raise InvalidSpecError(f"kind {kind!r} does not support parametric sampling")
    if point_count < 4:
        raise InvalidInputError(f"point_count must be >= 4, got {point_count}")
    i = np.arange(point_count)
    if kind == "ellipsoid":
        return np.column_stack([np.zeros(point_count), (i + 0.5) / point_count,
                                np.mod((i + 1) * _GOLDEN, 1.0)])
    # The other kinds place slot j of a chart at the R2 sequence's point j + 1.
    if kind == "torus":
        chart, j = np.zeros(point_count), i
    elif kind == "box":
        chart, j = (i % 6).astype(np.float64), i // 6
    else:  # cylinder: even slots to the side, odd slots alternate caps
        m, q = i % 4, i // 4
        chart = np.where(m < 2, 0, m - 1).astype(np.float64)
        j = np.where(m < 2, 2 * q + m, q)
    return np.column_stack([chart, np.mod((j + 1) * _R2X, 1.0), np.mod((j + 1) * _R2Y, 1.0)])


def generate_point_shape(spec: ShapeSpec, point_count: int) -> PointCloud:
    """Sample the solid's surface at the fixed parametric lattice.

    The correspondence_id is ``"{kind}:{point_count}"``: all clouds of one
    family share it and match point-for-point.
    """
    validate_spec(spec)
    lat = surface_lattice(spec.kind, point_count)  # raises for composite
    chart, u, v = lat[:, 0], lat[:, 1], lat[:, 2]
    p = spec.params
    # Each kind gives the points' offsets from the center, axis by axis.
    if spec.kind == "ellipsoid":
        zu = 1.0 - 2.0 * u
        rxy = np.sqrt(np.maximum(0.0, 1.0 - zu * zu))
        phi = 2.0 * np.pi * v
        d = [p["rx"] * rxy * np.cos(phi), p["ry"] * rxy * np.sin(phi), p["rz"] * zu]
    elif spec.kind == "torus":
        tu, tv = 2.0 * np.pi * u, 2.0 * np.pi * v
        ring = p["major"] + p["minor"] * np.cos(tv)
        d = [ring * np.cos(tu), ring * np.sin(tu), p["minor"] * np.sin(tv)]
    elif spec.kind == "box":
        # Chart 2a + s is the face normal to axis a on side 1 - 2s; on it the
        # first other axis takes su and the second sv, times its half-extent.
        # Axis a is the second when it lies above the third axis, 3 - a - face.
        face, s = np.divmod(chart.astype(int), 2)
        su, sv = 2.0 * u - 1.0, 2.0 * v - 1.0
        h = (p["hx"], p["hy"], p["hz"])
        d = [np.where(face == a, 1.0 - 2.0 * s, np.where(a > 3 - a - face, sv, su)) * h[a]
             for a in range(3)]
    else:  # cylinder
        r, hh = p["radius"], p["half_height"]
        side = chart == 0
        theta = np.where(side, 2.0 * np.pi * u, 2.0 * np.pi * v)
        rho = np.where(side, r, r * np.sqrt(u))
        d = [rho * np.cos(theta), rho * np.sin(theta),
             np.where(side, (2.0 * v - 1.0) * hh, np.where(chart == 1, hh, -hh))]
    c = np.array([p["cx"], p["cy"], p["cz"]])
    return PointCloud(c + np.column_stack(d), correspondence_id=f"{spec.kind}:{point_count}")


def sample_spec(rng: np.random.Generator, kinds=PRIMITIVE_KINDS, seed: int = 0) -> ShapeSpec:
    """Draw a random valid ShapeSpec with the given generator.

    Sizes are drawn uniformly inside conservative sub-ranges of the
    documented limits, then center offsets inside whatever spin-safe budget
    remains, so every draw validates.  The spec depends on ``rng`` alone:
    ``seed`` is ignored, and kept only so that callers that pass it still
    bind.
    """
    kind = str(rng.choice(np.asarray(kinds, dtype=object)))
    if kind == "composite":
        return ShapeSpec("composite", {},
                         children=tuple(sample_spec(rng, PRIMITIVE_KINDS) for _ in range(2)))

    if kind == "box":
        sizes = rng.uniform(0.05, 0.20, size=3)
        budget, ext_z = SPIN_RADIUS - math.hypot(sizes[0], sizes[1]), sizes[2]
    elif kind == "ellipsoid":
        sizes = rng.uniform(0.06, 0.25, size=3)
        budget, ext_z = SPIN_RADIUS - max(sizes[0], sizes[1]), sizes[2]
    elif kind == "cylinder":
        radius, hh = rng.uniform(0.06, 0.20), rng.uniform(0.06, 0.25)
        sizes, budget, ext_z = (radius, hh), SPIN_RADIUS - radius, hh
    elif kind == "torus":
        major = rng.uniform(0.12, 0.30)
        minor = rng.uniform(0.03, min(0.10, major - 0.02))
        sizes, budget, ext_z = (major, minor), SPIN_RADIUS - major - minor, minor
    else:
        raise InvalidSpecError(f"unknown shape kind {kind!r}")
    ang = rng.uniform(0.0, 2.0 * np.pi)
    off = rng.uniform(0.0, budget)
    cz = rng.uniform(UNIT_MARGIN + ext_z, 1.0 - UNIT_MARGIN - ext_z)
    center = (0.5 + off * np.cos(ang), 0.5 + off * np.sin(ang), cz)
    return ShapeSpec(kind, dict(zip(_PARAM_NAMES[kind], (*center, *sizes))))


def vectorize_shape(shape) -> np.ndarray:
    """Flatten a shape to the column layout used by the data matrices.

    Voxel grids flatten x-fastest to bool occupancy (length resolution**3),
    one byte per cell, which every numeric entry point reads as the exact
    0.0/1.0; point clouds flatten to float64 (x1, y1, z1, x2, ...).
    """
    if isinstance(shape, VoxelGrid):
        return shape.occupancy.flatten(order="F")
    if isinstance(shape, PointCloud):
        return shape.points.flatten()
    raise InvalidInputError(f"cannot vectorize {type(shape).__name__}")


# ---------------------------------------------------------------------------
# File formats: binary little-endian PLY for clouds, VOXR for voxel grids.
# ---------------------------------------------------------------------------

def write_ply(path, points: np.ndarray, extra: dict | None = None,
              correspondence_id: str = ""):
    """Binary little-endian PLY with double x, y, z plus optional extra properties.

    ASCII header lines, then the vertex rows as row-major ``<f8``, so every
    float64 round-trips exactly.  A non-finite value, or an extra property
    without one value per vertex, raises ``InvalidInputError`` before the
    file is created.  A nonempty correspondence_id is recorded as a
    comment.  The bytes are written through ``_fileio.atomic_write``.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    extra = extra or {}
    cols = [pts[:, 0], pts[:, 1], pts[:, 2]]
    names = ["x", "y", "z"]
    for name, values in extra.items():
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (pts.shape[0],):
            raise InvalidInputError(
                f"property {name!r} has {arr.size} values for {pts.shape[0]} vertices"
            )
        cols.append(arr)
        names.append(name)
    lines = ["ply", "format binary_little_endian 1.0"]
    if correspondence_id:
        lines.append(f"comment correspondence {correspondence_id}")
    lines.append(f"element vertex {pts.shape[0]}")
    lines.extend(f"property double {n}" for n in names)
    lines.append("end_header")
    body = np.column_stack(cols)
    if not _finite(body):
        raise InvalidInputError(f"{path}: cannot write a non-finite vertex value")
    header = ("\n".join(lines) + "\n").encode("ascii")
    atomic_write(path, header + body.astype("<f8", copy=False).tobytes())


def read_ply(path):
    """Parse our binary PLY profile; returns (points, extras, correspondence_id).

    The header lines must be ASCII and declare ``binary_little_endian 1.0``;
    an older ``ascii 1.0`` file asks for ``shapelift gen`` to be rerun.  The
    payload's length is checked against the header before anything is
    allocated, then it becomes one float64 array whose values must all be
    finite.  The points and extras are columns of that array.
    """
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"ply":
            raise FileFormatError(f"{path}: not a PLY file")
        names: list[str] = []
        count = None
        binary = False
        corr = ""
        for raw in iter(fh.readline, b""):
            try:
                tok = raw.decode("ascii").split()
            except UnicodeDecodeError as exc:
                raise FileFormatError(f"{path}: not an ASCII header: {exc.reason} at byte "
                                      f"{fh.tell() - len(raw) + exc.start}") from exc
            if not tok:
                continue
            if tok[0] == "end_header":
                break
            if tok[0] == "format":
                if tok[1:] != ["binary_little_endian", "1.0"]:
                    raise FileFormatError(
                        f"{path}: only binary_little_endian 1.0 PLY is supported; rerun "
                        "`shapelift gen` (older versions wrote ascii 1.0 shapes)")
                binary = True
            elif tok[0] == "comment":
                if len(tok) >= 3 and tok[1] == "correspondence":
                    corr = tok[2]
            elif tok[0] in ("element", "property") and len(tok) < 3:
                raise FileFormatError(f"{path}: header line {' '.join(tok)!r} lacks a field")
            elif tok[0] == "element":
                if tok[1] != "vertex":
                    raise FileFormatError(f"{path}: unsupported element {tok[1]!r}")
                if not tok[2].isdigit():
                    raise FileFormatError(
                        f"{path}: vertex count {tok[2]!r} is not a non-negative integer")
                count = int(tok[2])
            elif tok[0] == "property":
                if tok[1] != "double":
                    raise FileFormatError(f"{path}: unsupported property type {tok[1]!r}")
                names.append(tok[2])
        else:
            raise FileFormatError(f"{path}: unexpected end of file in header")
        if not binary:
            raise FileFormatError(f"{path}: header lacks a format line")
        if count is None or names[:3] != ["x", "y", "z"]:
            raise FileFormatError(f"{path}: header lacks vertex element with x, y, z")
        payload = fh.read()
    check_length(path, len(payload), 8 * count * len(names), after="vertex data")
    data = np.frombuffer(payload, dtype="<f8").reshape(count, len(names))
    if not _finite(data):
        raise FileFormatError(f"{path}: non-finite vertex value")
    data = data.astype(np.float64)  # native, writable, and no longer tied to the bytes
    extras = {n: data[:, 3 + k] for k, n in enumerate(names[3:])}
    return data[:, :3], extras, corr


def save_cloud(cloud: PointCloud, path):
    write_ply(path, cloud.points, correspondence_id=cloud.correspondence_id)


def load_cloud(path) -> PointCloud:
    pts, _, corr = read_ply(path)
    return PointCloud(pts, correspondence_id=corr)


def save_voxr(grid: VoxelGrid, path):
    """VOXR: ASCII header ``VOXR <resolution>`` then bit-packed occupancy.

    Bits follow the grid's flat ordering, first cell in the most significant
    bit of the first byte; the final byte is zero-padded.
    """
    atomic_write(path, f"VOXR {grid.resolution}\n".encode("ascii")
                 + np.packbits(grid.occupancy.ravel(order="F")).tobytes())


def load_voxr(path) -> VoxelGrid:
    with open(path, "rb") as fh:
        header = fh.readline()
        tok = header.split()
        if len(tok) != 2 or tok[0] != b"VOXR":
            raise FileFormatError(f"{path}: not a VOXR file")
        if not tok[1].removeprefix(b"-").isdigit():  # no "0_8" or "+8"
            raise FileFormatError(f"{path}: bad resolution field")
        res = int(tok[1])
        if res < 1:
            raise FileFormatError(f"{path}: resolution must be >= 1, got {res}")
        n_cells = res ** 3
        n_bytes = (n_cells + 7) // 8
        payload = fh.read()
    check_length(path, len(payload), n_bytes, after="occupancy bits")
    flat = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=n_cells)
    occ = flat.astype(bool).reshape((res,) * 3, order="F")
    return VoxelGrid(occ)

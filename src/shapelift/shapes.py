"""Procedural 3D solids, their flat vector form, and the PLY and VOXR formats.

All shapes live in the unit cube.  Parameter validation keeps every solid at
least ``UNIT_MARGIN`` away from the cube faces and inside the vertical
cylinder of radius ``SPIN_RADIUS`` around the cube's z axis, so a yaw by any
angle never carries content outside the cube.

Point-cloud sampling uses fixed parametric lattices: point ``i`` of any
cloud of a given (kind, point_count) family sits at the same surface
parameter, giving dense point-to-point correspondence across the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

# Parameter names per primitive kind, in canonical order.
_PARAM_NAMES = {
    "box": ("cx", "cy", "cz", "hx", "hy", "hz"),
    "ellipsoid": ("cx", "cy", "cz", "rx", "ry", "rz"),
    "cylinder": ("cx", "cy", "cz", "radius", "half_height"),
    "torus": ("cx", "cy", "cz", "major", "minor"),
}


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
    """Analytic solid description: kind, continuous parameters, provenance seed.

    Valid parameter ranges (all lengths in unit-cube units):

    * box: half-extents hx, hy, hz in [0.02, 0.45]
    * ellipsoid: radii rx, ry, rz in [0.02, 0.45]
    * cylinder (axis z): radius, half_height in [0.02, 0.45]
    * torus (axis z): major in [0.04, 0.44], minor in [0.01, major)
    * composite: union of exactly two primitive children, params empty

    plus, for every kind: the solid must clear the cube faces by
    ``UNIT_MARGIN`` in z and fit inside the vertical cylinder of radius
    ``SPIN_RADIUS`` about the cube center, which keeps any yaw of the solid
    inside the margins.
    """

    kind: str
    params: dict = field(default_factory=dict)
    children: tuple = ()
    seed: int = 0


def _require(cond: bool, message: str):
    if not cond:
        raise InvalidSpecError(message)


def validate_spec(spec: ShapeSpec):
    """Check a ShapeSpec against the documented parameter ranges."""
    if spec.kind == "composite":
        _require(len(spec.children) == 2, "composite requires exactly two children")
        _require(not spec.params, "composite carries no parameters of its own")
        for child in spec.children:
            _require(child.kind in PRIMITIVE_KINDS,
                     f"composite children must be primitive, got {child.kind!r}")
            validate_spec(child)
        return
    if spec.kind not in PRIMITIVE_KINDS:
        raise InvalidSpecError(f"unknown shape kind {spec.kind!r}")
    _require(not spec.children, f"{spec.kind} takes no children")
    names = _PARAM_NAMES[spec.kind]
    missing = [n for n in names if n not in spec.params]
    extra = [n for n in spec.params if n not in names]
    _require(not missing, f"{spec.kind} is missing parameters {missing}")
    _require(not extra, f"{spec.kind} got unknown parameters {extra}")
    p = {n: float(spec.params[n]) for n in names}
    cx, cy, cz = p["cx"], p["cy"], p["cz"]
    off = math.hypot(cx - 0.5, cy - 0.5)
    lo, hi = UNIT_MARGIN, 1.0 - UNIT_MARGIN

    if spec.kind == "box":
        for n in ("hx", "hy", "hz"):
            _require(0.02 <= p[n] <= 0.45, f"box {n}={p[n]} outside [0.02, 0.45]")
        corner = math.hypot(abs(cx - 0.5) + p["hx"], abs(cy - 0.5) + p["hy"])
        _require(corner <= SPIN_RADIUS,
                 f"box corner radius {corner:.4f} exceeds {SPIN_RADIUS}")
        _require(lo <= cz - p["hz"] and cz + p["hz"] <= hi,
                 "box leaves the vertical margin")
    elif spec.kind == "ellipsoid":
        for n in ("rx", "ry", "rz"):
            _require(0.02 <= p[n] <= 0.45, f"ellipsoid {n}={p[n]} outside [0.02, 0.45]")
        _require(off + max(p["rx"], p["ry"]) <= SPIN_RADIUS,
                 "ellipsoid leaves the spin-safe cylinder")
        _require(lo <= cz - p["rz"] and cz + p["rz"] <= hi,
                 "ellipsoid leaves the vertical margin")
    elif spec.kind == "cylinder":
        for n in ("radius", "half_height"):
            _require(0.02 <= p[n] <= 0.45, f"cylinder {n}={p[n]} outside [0.02, 0.45]")
        _require(off + p["radius"] <= SPIN_RADIUS,
                 "cylinder leaves the spin-safe cylinder")
        _require(lo <= cz - p["half_height"] and cz + p["half_height"] <= hi,
                 "cylinder leaves the vertical margin")
    elif spec.kind == "torus":
        _require(0.04 <= p["major"] <= 0.44, f"torus major={p['major']} outside [0.04, 0.44]")
        _require(0.01 <= p["minor"] < p["major"],
                 f"torus minor={p['minor']} must be in [0.01, major)")
        _require(off + p["major"] + p["minor"] <= SPIN_RADIUS,
                 "torus leaves the spin-safe cylinder")
        _require(lo <= cz - p["minor"] and cz + p["minor"] <= hi,
                 "torus leaves the vertical margin")


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
    if spec.kind == "torus":
        ring = np.sqrt(dx * dx + dy * dy) - p["major"]
        return ring * ring + dz * dz <= p["minor"] ** 2
    raise InvalidSpecError(f"unknown shape kind {spec.kind!r}")


def generate_voxel_shape(spec: ShapeSpec, resolution: int) -> VoxelGrid:
    """Rasterize the analytic solid: a cell is occupied iff its center is inside.

    Deterministic: identical specs produce bit-identical grids.
    """
    validate_spec(spec)
    if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
        raise InvalidInputError(
            f"resolution {resolution} outside [{MIN_RESOLUTION}, {MAX_RESOLUTION}]"
        )
    centers = (np.arange(resolution) + 0.5) / resolution
    x, y, z = np.meshgrid(centers, centers, centers, indexing="ij")
    return VoxelGrid(_inside(spec, x, y, z))


def surface_lattice(kind: str, point_count: int) -> np.ndarray:
    """Parametric sampling lattice for a kind: rows of (chart, u, v).

    Depends only on (kind, point_count), never on shape parameters — this is
    what makes point i correspond across a whole family.  Charts: ellipsoid
    and torus use a single chart; box uses charts 0-5 (+x, -x, +y, -y, +z,
    -z faces); cylinder uses 0 (side), 1 (top cap), 2 (bottom cap).
    """
    if kind not in ("box", "ellipsoid", "cylinder", "torus"):
        raise InvalidSpecError(f"kind {kind!r} does not support parametric sampling")
    if point_count < 4:
        raise InvalidInputError(f"point_count must be >= 4, got {point_count}")
    i = np.arange(point_count)
    if kind == "ellipsoid":
        chart = np.zeros(point_count)
        u = (i + 0.5) / point_count
        v = np.mod((i + 1) * _GOLDEN, 1.0)
    elif kind == "torus":
        chart = np.zeros(point_count)
        u = np.mod((i + 1) * _R2X, 1.0)
        v = np.mod((i + 1) * _R2Y, 1.0)
    elif kind == "box":
        chart = (i % 6).astype(np.float64)
        j = i // 6
        u = np.mod((j + 1) * _R2X, 1.0)
        v = np.mod((j + 1) * _R2Y, 1.0)
    else:  # cylinder: even slots to the side, odd slots alternate caps
        m = i % 4
        q = i // 4
        chart = np.where(m < 2, 0, m - 1).astype(np.float64)
        j = np.where(m < 2, 2 * q + m, q)
        u = np.mod((j + 1) * _R2X, 1.0)
        v = np.mod((j + 1) * _R2Y, 1.0)
    return np.column_stack([chart, u, v])


def generate_point_shape(spec: ShapeSpec, point_count: int) -> PointCloud:
    """Sample the solid's surface at the fixed parametric lattice.

    The correspondence_id is ``"{kind}:{point_count}"``: all clouds of one
    family share it and match point-for-point.
    """
    validate_spec(spec)
    lat = surface_lattice(spec.kind, point_count)  # raises for composite
    chart, u, v = lat[:, 0], lat[:, 1], lat[:, 2]
    p = spec.params
    c = np.array([p["cx"], p["cy"], p["cz"]])

    if spec.kind == "ellipsoid":
        zu = 1.0 - 2.0 * u
        rxy = np.sqrt(np.maximum(0.0, 1.0 - zu * zu))
        phi = 2.0 * np.pi * v
        pts = np.column_stack([
            c[0] + p["rx"] * rxy * np.cos(phi),
            c[1] + p["ry"] * rxy * np.sin(phi),
            c[2] + p["rz"] * zu,
        ])
    elif spec.kind == "torus":
        tu = 2.0 * np.pi * u
        tv = 2.0 * np.pi * v
        ring = p["major"] + p["minor"] * np.cos(tv)
        pts = np.column_stack([
            c[0] + ring * np.cos(tu),
            c[1] + ring * np.sin(tu),
            c[2] + p["minor"] * np.sin(tv),
        ])
    elif spec.kind == "box":
        su, sv = 2.0 * u - 1.0, 2.0 * v - 1.0
        hx, hy, hz = p["hx"], p["hy"], p["hz"]
        x = np.choose(chart.astype(int), [
            c[0] + hx, c[0] - hx, c[0] + su * hx, c[0] + su * hx,
            c[0] + su * hx, c[0] + su * hx,
        ])
        y = np.choose(chart.astype(int), [
            c[1] + su * hy, c[1] + su * hy, c[1] + hy, c[1] - hy,
            c[1] + sv * hy, c[1] + sv * hy,
        ])
        z = np.choose(chart.astype(int), [
            c[2] + sv * hz, c[2] + sv * hz, c[2] + sv * hz, c[2] + sv * hz,
            c[2] + hz, c[2] - hz,
        ])
        pts = np.column_stack([x, y, z])
    else:  # cylinder
        r, hh = p["radius"], p["half_height"]
        side = chart == 0
        theta = np.where(side, 2.0 * np.pi * u, 2.0 * np.pi * v)
        rho = np.where(side, r, r * np.sqrt(u))
        zpos = np.where(side, c[2] + (2.0 * v - 1.0) * hh,
                        np.where(chart == 1, c[2] + hh, c[2] - hh))
        pts = np.column_stack([
            c[0] + rho * np.cos(theta),
            c[1] + rho * np.sin(theta),
            zpos,
        ])
    return PointCloud(pts, correspondence_id=f"{spec.kind}:{point_count}")


def sample_spec(rng: np.random.Generator, kinds=PRIMITIVE_KINDS, seed: int = 0) -> ShapeSpec:
    """Draw a random valid ShapeSpec with the given generator.

    Sizes are drawn uniformly inside conservative sub-ranges of the
    documented limits, then center offsets inside whatever spin-safe budget
    remains, so every draw validates.
    """
    kind = str(rng.choice(np.asarray(kinds, dtype=object)))
    if kind == "composite":
        children = tuple(
            sample_spec(rng, PRIMITIVE_KINDS, seed=seed) for _ in range(2)
        )
        return ShapeSpec("composite", {}, children=children, seed=seed)

    def center(budget_xy: float, ext_z: float):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        off = rng.uniform(0.0, budget_xy)
        cz = rng.uniform(UNIT_MARGIN + ext_z, 1.0 - UNIT_MARGIN - ext_z)
        return 0.5 + off * np.cos(ang), 0.5 + off * np.sin(ang), cz

    if kind == "box":
        hx, hy, hz = rng.uniform(0.05, 0.20, size=3)
        budget = SPIN_RADIUS - math.hypot(hx, hy)
        cx, cy, cz = center(budget, hz)
        params = {"cx": cx, "cy": cy, "cz": cz, "hx": hx, "hy": hy, "hz": hz}
    elif kind == "ellipsoid":
        rx, ry, rz = rng.uniform(0.06, 0.25, size=3)
        cx, cy, cz = center(SPIN_RADIUS - max(rx, ry), rz)
        params = {"cx": cx, "cy": cy, "cz": cz, "rx": rx, "ry": ry, "rz": rz}
    elif kind == "cylinder":
        radius = rng.uniform(0.06, 0.20)
        hh = rng.uniform(0.06, 0.25)
        cx, cy, cz = center(SPIN_RADIUS - radius, hh)
        params = {"cx": cx, "cy": cy, "cz": cz, "radius": radius, "half_height": hh}
    elif kind == "torus":
        major = rng.uniform(0.12, 0.30)
        minor = rng.uniform(0.03, min(0.10, major - 0.02))
        cx, cy, cz = center(SPIN_RADIUS - major - minor, minor)
        params = {"cx": cx, "cy": cy, "cz": cz, "major": major, "minor": minor}
    else:
        raise InvalidSpecError(f"unknown shape kind {kind!r}")
    return ShapeSpec(kind, params, seed=seed)


def vectorize_shape(shape) -> np.ndarray:
    """Flatten a shape to the float64 column layout used by the data matrices.

    Voxel grids flatten x-fastest to 0/1 values (length resolution**3);
    point clouds flatten to (x1, y1, z1, x2, ...).
    """
    if isinstance(shape, VoxelGrid):
        return shape.occupancy.ravel(order="F").astype(np.float64)
    if isinstance(shape, PointCloud):
        return shape.points.flatten()
    raise InvalidInputError(f"cannot vectorize {type(shape).__name__}")


def cloud_from_vector(vec, correspondence_id: str = "") -> PointCloud:
    v = np.asarray(vec, dtype=np.float64)
    if v.size % 3:
        raise InvalidInputError(f"vector length {v.size} is not a multiple of 3")
    return PointCloud(v.reshape(-1, 3), correspondence_id=correspondence_id)


# ---------------------------------------------------------------------------
# File formats: ASCII PLY for clouds, VOXR for voxel grids.
# ---------------------------------------------------------------------------

def write_ply(path, points: np.ndarray, extra: dict | None = None,
              correspondence_id: str = ""):
    """ASCII PLY with double-precision x, y, z plus optional extra properties.

    Values print with ``%.17g``, enough to round-trip float64 exactly, and a
    non-finite value raises ``InvalidInputError`` before the file is created.
    A nonempty correspondence_id is recorded as a comment.
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
    lines = ["ply", "format ascii 1.0"]
    if correspondence_id:
        lines.append(f"comment correspondence {correspondence_id}")
    lines.append(f"element vertex {pts.shape[0]}")
    lines.extend(f"property double {n}" for n in names)
    lines.append("end_header")
    body = np.column_stack(cols)
    if not np.isfinite(body).all():
        raise InvalidInputError(f"{path}: cannot write a non-finite vertex value")
    row = " ".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.write((row * len(body)) % tuple(body.ravel().tolist()))


def read_ply(path):
    """Parse our ASCII PLY profile; returns (points, extras, correspondence_id).

    Each vertex row holds one finite decimal or exponent token per property;
    ``np.loadtxt`` parses them, so a spelling like ``1_0`` is a bad row.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not an ASCII file: {exc.reason} "
                                  f"at byte {exc.start}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise FileFormatError(f"{path}: not a PLY file")
    names: list[str] = []
    count = None
    corr = ""
    i = 1
    for i in range(1, len(lines)):
        tok = lines[i].split()
        if not tok:
            continue
        if tok[0] == "end_header":
            break
        if tok[0] == "format":
            if tok[1:] != ["ascii", "1.0"]:
                raise FileFormatError(f"{path}: only ascii 1.0 PLY is supported")
        elif tok[0] == "comment":
            if len(tok) >= 3 and tok[1] == "correspondence":
                corr = tok[2]
        elif tok[0] in ("element", "property") and len(tok) < 3:
            raise FileFormatError(f"{path}: header line {lines[i].strip()!r} lacks a field")
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
    if count is None or names[:3] != ["x", "y", "z"]:
        raise FileFormatError(f"{path}: header lacks vertex element with x, y, z")
    rows = lines[i + 1:]
    rows = [r for r in rows if r.strip()]
    if len(rows) < count:
        raise FileFormatError(f"{path}: unexpected end of file in vertex data")
    if len(rows) > count:
        raise FileFormatError(f"{path}: trailing data after vertex data")
    data = np.empty((0, len(names)))
    if count:  # loadtxt warns on empty input
        try:
            data = np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad vertex row: {exc}") from exc
    if data.shape[1] != len(names):
        raise FileFormatError(f"{path}: vertex rows do not match property count")
    if not np.isfinite(data).all():
        raise FileFormatError(f"{path}: non-finite vertex value")
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
    flat = grid.occupancy.ravel(order="F")
    with open(path, "wb") as fh:
        fh.write(f"VOXR {grid.resolution}\n".encode("ascii"))
        fh.write(np.packbits(flat).tobytes())


def load_voxr(path) -> VoxelGrid:
    with open(path, "rb") as fh:
        header = fh.readline()
        tok = header.split()
        if len(tok) != 2 or tok[0] != b"VOXR":
            raise FileFormatError(f"{path}: not a VOXR file")
        try:
            res = int(tok[1])
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad resolution field") from exc
        if res < 1:
            raise FileFormatError(f"{path}: resolution must be >= 1, got {res}")
        n_cells = res ** 3
        n_bytes = (n_cells + 7) // 8
        payload = fh.read()
    if len(payload) < n_bytes:
        raise FileFormatError(f"{path}: unexpected end of file")
    if len(payload) > n_bytes:
        raise FileFormatError(f"{path}: trailing data after occupancy bits")
    flat = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=n_cells)
    occ = flat.astype(bool).reshape((res,) * 3, order="F")
    return VoxelGrid(occ)

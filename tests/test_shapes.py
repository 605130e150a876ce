import dataclasses
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shapelift import shapes
from shapelift.errors import FileFormatError, InvalidInputError, InvalidSpecError
from shapelift.shapes import PointCloud, ShapeSpec, VoxelGrid


def centered_box(h=1.0 / 6.0):
    return ShapeSpec("box", {"cx": 0.5, "cy": 0.5, "cz": 0.5,
                             "hx": h, "hy": h, "hz": h})


def centered_ellipsoid(rx=0.3, ry=0.3, rz=0.3):
    return ShapeSpec("ellipsoid", {"cx": 0.5, "cy": 0.5, "cz": 0.5,
                                   "rx": rx, "ry": ry, "rz": rz})


def meshgrid_inside(spec, x, y, z):
    """Reference point-in-solid test on full coordinate grids."""
    if spec.kind == "composite":
        a, b = spec.children
        return meshgrid_inside(a, x, y, z) | meshgrid_inside(b, x, y, z)
    p = spec.params
    dx, dy, dz = x - p["cx"], y - p["cy"], z - p["cz"]
    if spec.kind == "box":
        return (np.abs(dx) <= p["hx"]) & (np.abs(dy) <= p["hy"]) & (np.abs(dz) <= p["hz"])
    if spec.kind == "ellipsoid":
        return ((dx / p["rx"]) ** 2 + (dy / p["ry"]) ** 2 + (dz / p["rz"]) ** 2) <= 1.0
    if spec.kind == "cylinder":
        return (dx * dx + dy * dy <= p["radius"] ** 2) & (np.abs(dz) <= p["half_height"])
    ring = np.sqrt(dx * dx + dy * dy) - p["major"]
    return ring * ring + dz * dz <= p["minor"] ** 2


def meshgrid_rasterize(spec, res):
    """Reference rasterizer that evaluates every solid on three full
    meshgrids of cell centers; ``generate_voxel_shape`` must match it bit
    for bit."""
    centers = (np.arange(res) + 0.5) / res
    x, y, z = np.meshgrid(centers, centers, centers, indexing="ij")
    return meshgrid_inside(spec, x, y, z)


class TestVoxelGeneration:
    @pytest.mark.parametrize("res", [8, 20, 30, 64])
    def test_matches_meshgrid_rasterizer(self, res):
        rng = np.random.default_rng(res)
        specs = [centered_box(), centered_ellipsoid()]
        for kind in shapes.ALL_KINDS:
            specs += [shapes.sample_spec(rng, (kind,), seed=i) for i in range(6)]
        assert {spec.kind for spec in specs} == set(shapes.ALL_KINDS)
        for spec in specs:
            grid = shapes.generate_voxel_shape(spec, res)
            assert np.array_equal(grid.occupancy, meshgrid_rasterize(spec, res))

    def test_box_exact_cell_count(self):
        # Half-extent 1/6 spans [1/3, 2/3]: exactly cells 10..19 per axis at
        # resolution 30.
        grid = shapes.generate_voxel_shape(centered_box(), 30)
        assert grid.occupied_count == 1000
        assert grid.occupancy[10:20, 10:20, 10:20].all()

    def test_ellipsoid_count_matches_analytic_volume(self):
        grid = shapes.generate_voxel_shape(centered_ellipsoid(), 30)
        # Independent oracle: enumerate cell centers directly.
        count = 0
        for i in range(30):
            for j in range(30):
                for k in range(30):
                    x = (i + 0.5) / 30 - 0.5
                    y = (j + 0.5) / 30 - 0.5
                    z = (k + 0.5) / 30 - 0.5
                    if x * x + y * y + z * z <= 0.3 ** 2:
                        count += 1
        assert grid.occupied_count == count
        analytic = 4.0 / 3.0 * math.pi * (0.3 * 30) ** 3
        assert abs(count - analytic) / analytic <= 0.05

    def test_deterministic(self):
        spec = centered_ellipsoid(0.25, 0.2, 0.3)
        a = shapes.generate_voxel_shape(spec, 24)
        b = shapes.generate_voxel_shape(spec, 24)
        assert np.array_equal(a.occupancy, b.occupancy)

    def test_composite_is_union(self):
        e1 = ShapeSpec("ellipsoid", {"cx": 0.35, "cy": 0.5, "cz": 0.35,
                                     "rx": 0.1, "ry": 0.1, "rz": 0.1})
        e2 = ShapeSpec("ellipsoid", {"cx": 0.65, "cy": 0.5, "cz": 0.65,
                                     "rx": 0.1, "ry": 0.1, "rz": 0.1})
        union = shapes.generate_voxel_shape(ShapeSpec("composite", children=(e1, e2)), 20)
        a = shapes.generate_voxel_shape(e1, 20)
        b = shapes.generate_voxel_shape(e2, 20)
        assert np.array_equal(union.occupancy, a.occupancy | b.occupancy)

    def test_resolution_bounds(self):
        with pytest.raises(InvalidInputError):
            shapes.generate_voxel_shape(centered_box(), 7)
        with pytest.raises(InvalidInputError):
            shapes.generate_voxel_shape(centered_box(), 65)

    def test_invalid_params_rejected(self):
        bad = ShapeSpec("box", {"cx": 0.9, "cy": 0.9, "cz": 0.5,
                                "hx": 0.3, "hy": 0.3, "hz": 0.3})
        with pytest.raises(InvalidSpecError):
            shapes.generate_voxel_shape(bad, 16)
        with pytest.raises(InvalidSpecError):
            shapes.generate_voxel_shape(ShapeSpec("pyramid", {}), 16)
        with pytest.raises(InvalidSpecError):
            shapes.generate_voxel_shape(
                ShapeSpec("box", {"cx": 0.5, "cy": 0.5, "cz": 0.5, "hx": 0.1}), 16)


class TestPointGeneration:
    def test_sphere_distance(self):
        cloud = shapes.generate_point_shape(centered_ellipsoid(), 500)
        dist = np.linalg.norm(cloud.points - 0.5, axis=1)
        assert np.abs(dist - 0.3).max() <= 1e-12

    def test_axis_separability(self):
        a = shapes.generate_point_shape(centered_ellipsoid(0.30, 0.2, 0.25), 300)
        b = shapes.generate_point_shape(centered_ellipsoid(0.15, 0.2, 0.25), 300)
        assert np.array_equal(a.points[:, 1], b.points[:, 1])
        assert np.array_equal(a.points[:, 2], b.points[:, 2])
        assert not np.array_equal(a.points[:, 0], b.points[:, 0])

    def test_box_face_layout(self):
        spec = ShapeSpec("box", {"cx": 0.5, "cy": 0.5, "cz": 0.5,
                                 "hx": 0.2, "hy": 0.15, "hz": 0.1})
        cloud = shapes.generate_point_shape(spec, 600)
        pts = cloud.points
        faces = {
            "+x": np.isclose(pts[:, 0], 0.7),
            "-x": np.isclose(pts[:, 0], 0.3),
            "+y": np.isclose(pts[:, 1], 0.65),
            "-y": np.isclose(pts[:, 1], 0.35),
            "+z": np.isclose(pts[:, 2], 0.6),
            "-z": np.isclose(pts[:, 2], 0.4),
        }
        lattice = shapes.surface_lattice("box", 600)
        # Faces cycle with the point index: 100 points on each face, every
        # point exactly on its face plane.
        for face_index, name in enumerate(["+x", "-x", "+y", "-y", "+z", "-z"]):
            on_face = lattice[:, 0].astype(int) == face_index
            assert on_face.sum() == 100
            assert faces[name][on_face].all()

    def test_correspondence_is_param_free(self):
        a = shapes.surface_lattice("torus", 321)
        b = shapes.surface_lattice("torus", 321)
        assert np.array_equal(a, b)
        ca = shapes.generate_point_shape(
            ShapeSpec("torus", {"cx": 0.5, "cy": 0.5, "cz": 0.5,
                                "major": 0.25, "minor": 0.08}), 321)
        cb = shapes.generate_point_shape(
            ShapeSpec("torus", {"cx": 0.45, "cy": 0.55, "cz": 0.4,
                                "major": 0.2, "minor": 0.05}), 321)
        assert ca.correspondence_id == cb.correspondence_id == "torus:321"

    def test_cylinder_charts(self):
        spec = ShapeSpec("cylinder", {"cx": 0.5, "cy": 0.5, "cz": 0.5,
                                      "radius": 0.2, "half_height": 0.25})
        cloud = shapes.generate_point_shape(spec, 400)
        lattice = shapes.surface_lattice("cylinder", 400)
        charts = lattice[:, 0].astype(int)
        pts = cloud.points
        radial = np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5)
        assert np.allclose(radial[charts == 0], 0.2, atol=1e-12)
        assert np.allclose(pts[charts == 1, 2], 0.75, atol=1e-12)
        assert np.allclose(pts[charts == 2, 2], 0.25, atol=1e-12)
        assert (radial[charts > 0] <= 0.2 + 1e-12).all()

    def test_composite_has_no_parametric_sampling(self):
        spec = ShapeSpec("composite", children=(centered_box(0.1), centered_box(0.1)))
        with pytest.raises(InvalidSpecError):
            shapes.generate_point_shape(spec, 100)

    def test_minimum_point_count(self):
        with pytest.raises(InvalidInputError):
            shapes.generate_point_shape(centered_ellipsoid(), 3)

    def test_points_inside_unit_cube(self):
        cloud = shapes.generate_point_shape(centered_ellipsoid(0.25, 0.3, 0.2), 777)
        assert cloud.points.min() >= 0.0
        assert cloud.points.max() <= 1.0


class TestSampleSpec:
    @given(st.integers(0, 10**9))
    def test_draws_always_validate(self, seed):
        rng = np.random.default_rng(seed)
        spec = shapes.sample_spec(rng, shapes.ALL_KINDS, seed=seed)
        shapes.validate_spec(spec)

    def test_deterministic_per_generator_state(self):
        a = shapes.sample_spec(np.random.default_rng(42), shapes.ALL_KINDS)
        b = shapes.sample_spec(np.random.default_rng(42), shapes.ALL_KINDS)
        assert a == b

    def test_seed_keyword_is_ignored(self):
        # The spec follows from the generator alone and records no seed.
        kinds = set()
        for state in range(22):  # enough states to draw every kind
            a = shapes.sample_spec(np.random.default_rng(state), shapes.ALL_KINDS, seed=1)
            b = shapes.sample_spec(np.random.default_rng(state), shapes.ALL_KINDS, seed=2)
            assert a == b
            kinds.add(a.kind)
        assert kinds == set(shapes.ALL_KINDS)
        assert "seed" not in {f.name for f in dataclasses.fields(ShapeSpec)}


# Each primitive kind's size parameters, the vertical half-extent last.
SIZE_NAMES = {"box": ("hx", "hy", "hz"), "ellipsoid": ("rx", "ry", "rz"),
              "cylinder": ("radius", "half_height"), "torus": ("major", "minor")}


def near_limit_specs(seed: int, count: int):
    """``count`` fixed-seed primitive specs whose sizes, vertical extent and
    reach from the cube's z axis sit on, just inside or just outside the
    documented limits, or anywhere in a wider box; a few are not finite."""
    rng = np.random.default_rng(seed)
    edges = [0.01, 0.02, 0.04, 0.44, 0.45]
    nudges = [0.0, 0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-4, -1e-4,
              5e-4, -5e-4, 1e-3, -1e-3]

    def near(x):
        return x + nudges[rng.integers(len(nudges))]

    for i in range(count):
        kind = shapes.PRIMITIVE_KINDS[i % 4]
        names = SIZE_NAMES[kind]
        upper = rng.random() < 0.25
        if upper:  # one size at or below an upper edge, the rest at a lower one, on the z axis
            sizes = [near(edges[rng.integers(2)]) for _ in names]
            sizes[rng.integers(len(names))] = edges[rng.integers(3, 5)] - rng.choice(
                [0.0, 1e-12, rng.uniform(0.0, 2e-3)])
        else:
            sizes = [near(edges[rng.integers(5)]) if rng.random() < 0.5
                     else rng.uniform(0.0, 0.3) for _ in names]
        if kind == "torus" and rng.random() < 0.3:
            sizes[1] = near(sizes[0])
        ext_z = sizes[-1]
        cz = rng.choice([near(0.05 + ext_z), near(0.95 - ext_z), 0.5, rng.uniform(0.0, 1.0)])
        pick = 3 if upper else rng.integers(4)
        if pick == 3:  # on the cube's z axis
            dx = dy = 0.0
        elif pick == 2:  # a box corner on the spin-safe cylinder
            ang = 0.5 * np.pi * rng.random()
            dx = near(0.45 * np.cos(ang)) - sizes[0]
            dy = near(0.45 * np.sin(ang)) - sizes[1]
        else:  # anywhere, or a round solid's rim on that cylinder
            rim = sizes[0] + sizes[1] if kind == "torus" else max(sizes[:2])
            offset = rng.uniform(0.0, 0.45) if pick == 0 else near(0.45 - rim)
            ang = rng.choice([0.0, 0.25 * np.pi, 0.5 * np.pi, rng.uniform(0.0, 2.0 * np.pi)])
            dx, dy = offset * np.cos(ang), offset * np.sin(ang)
        center = [0.5 + dx, 0.5 + dy, cz]
        values = center + sizes
        if rng.random() < 0.005:
            values[rng.integers(len(values))] = rng.choice([np.nan, np.inf, -np.inf])
        yield ShapeSpec(kind, dict(zip(("cx", "cy", "cz", *names), values)))


# validate_spec's verdicts on near_limit_specs(30, 4000), recorded from the
# per-kind checks that preceded the limits table.
ACCEPTED = 547
VERDICTS_SHA256 = "c140684c26687c526894fe5a32abb82db7cc05f762e0a7f0af4f94f05c59e8c9"


def verdict(spec) -> bool:
    try:
        shapes.validate_spec(spec)
    except InvalidSpecError:
        return False
    return True


class TestLimitsTable:
    def test_docstring_states_the_table(self):
        # Each primitive's line in the ShapeSpec docstring names the table's
        # sizes, in order, with their closed ranges.
        stated = {}
        for kind, text in re.findall(r"^\s*\* (\w+)[^:]*: (.*)$", ShapeSpec.__doc__, re.M):
            for names, lo, hi in re.findall(r"((?:\w+, )*\w+) in \[([\d.]+), ([\d.]+)\]", text):
                for name in names.split(", "):
                    stated.setdefault(kind, {})[name] = (float(lo), float(hi))
        table = {kind: sizes for kind, (sizes, _, _) in shapes._LIMITS.items()}
        assert stated == table
        assert [list(v) for v in stated.values()] == [list(v) for v in table.values()]
        assert tuple(shapes._LIMITS) == shapes.PRIMITIVE_KINDS
        assert {k: v[3:] for k, v in shapes._PARAM_NAMES.items()} == SIZE_NAMES
        for kind, (sizes, vertical, _) in shapes._LIMITS.items():
            assert vertical in sizes, kind
        # ... and says that the upper bounds are implied by the other checks.
        assert "the upper bounds are implied" in " ".join(ShapeSpec.__doc__.split())

    def test_upper_bounds_decide_no_verdict(self, monkeypatch):
        # With no upper bound in the table, the spin, margin and torus checks
        # alone give every verdict near the limits that the table gives.
        for kind, (sizes, vertical, reach) in list(shapes._LIMITS.items()):
            unbounded = {name: (lo, math.inf) for name, (lo, _) in sizes.items()}
            monkeypatch.setitem(shapes._LIMITS, kind, (unbounded, vertical, reach))
        verdicts = bytes(verdict(spec) for spec in near_limit_specs(30, 4000))
        assert hashlib.sha256(verdicts).hexdigest() == VERDICTS_SHA256

    def test_verdicts_near_the_limits_are_pinned(self):
        verdicts = bytes(verdict(spec) for spec in near_limit_specs(30, 4000))
        assert sum(verdicts) == ACCEPTED
        assert hashlib.sha256(verdicts).hexdigest() == VERDICTS_SHA256


class TestVectorize:
    def test_resolution_30_gives_27000(self):
        grid = shapes.generate_voxel_shape(centered_box(), 30)
        assert shapes.vectorize_shape(grid).shape == (27000,)

    def test_cloud_layout(self):
        cloud = PointCloud([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6],
                            [0.7, 0.8, 0.9], [0.15, 0.25, 0.35]])
        vec = shapes.vectorize_shape(cloud)
        assert vec.shape == (12,)
        assert vec[3] == 0.4  # x of point 2

    def test_all_occupied_small_grid(self):
        vec = shapes.vectorize_shape(VoxelGrid(np.ones((2, 2, 2), bool)))
        np.testing.assert_array_equal(vec, np.ones(8))

    def test_x_fastest_ordering(self):
        res = 3
        for axis, stride in ((0, 1), (1, res), (2, res * res)):
            occ = np.zeros((res, res, res), bool)
            idx = [0, 0, 0]
            idx[axis] = 1
            occ[tuple(idx)] = True
            vec = shapes.vectorize_shape(VoxelGrid(occ))
            assert vec[stride] == 1.0
            assert vec.sum() == 1.0

    def test_vectorize_round_trip(self):
        grid = shapes.generate_voxel_shape(centered_ellipsoid(), 12)
        vec = shapes.vectorize_shape(grid)
        back = VoxelGrid(vec.reshape((12,) * 3, order="F") == 1.0)
        assert np.array_equal(back.occupancy, grid.occupancy)


class TestPlyFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.random((50, 3)), correspondence_id="ellipsoid:50")
        path = tmp_path / "cloud.ply"
        shapes.save_cloud(cloud, path)
        back = shapes.load_cloud(path)
        assert np.array_equal(back.points, cloud.points)
        assert back.correspondence_id == "ellipsoid:50"

    def test_extra_property_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        pts = rng.random((10, 3))
        errors = rng.random(10)
        path = tmp_path / "heat.ply"
        shapes.write_ply(path, pts, extra={"error": errors})
        back_pts, extras, _ = shapes.read_ply(path)
        assert np.array_equal(back_pts, pts)
        assert np.array_equal(extras["error"], errors)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "cut.ply"
        shapes.save_cloud(PointCloud(np.random.default_rng(0).random((20, 3))), path)
        path.write_bytes(path.read_bytes()[:-5 * 24])
        with pytest.raises(FileFormatError, match="unexpected end of file"):
            shapes.load_cloud(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("not a ply\n")
        with pytest.raises(FileFormatError):
            shapes.load_cloud(path)

    @pytest.mark.parametrize("extra", ["0.1 0.2 0.3\n", "garbage here\n"])
    def test_trailing_rows_rejected(self, tmp_path, extra):
        path = tmp_path / "long.ply"
        shapes.save_cloud(PointCloud(np.random.default_rng(1).random((6, 3))), path)
        path.write_bytes(path.read_bytes() + extra.encode("ascii"))
        with pytest.raises(FileFormatError, match="trailing"):
            shapes.load_cloud(path)

    def test_one_extra_byte_rejected(self, tmp_path):
        path = tmp_path / "long.ply"
        shapes.save_cloud(PointCloud(np.zeros((3, 3))), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FileFormatError, match="trailing data after vertex data"):
            shapes.load_cloud(path)

    @pytest.mark.parametrize("row", ["nan 0.5 2", "0.5 inf 2", "0.5 0.5 -inf"])
    def test_non_finite_vertex_rejected(self, tmp_path, row):
        path = tmp_path / "nan.ply"
        shapes.save_cloud(PointCloud(np.zeros((2, 3))), path)
        values = np.array(row.split(), dtype=np.float64).astype("<f8").tobytes()
        path.write_bytes(path.read_bytes()[:-24] + values)
        with pytest.raises(FileFormatError, match="non-finite"):
            shapes.read_ply(path)

    def test_blank_lines_after_rows_rejected(self, tmp_path):
        # The payload ends the file: a blank line after it is data too.
        path = tmp_path / "blank.ply"
        shapes.save_cloud(PointCloud(np.random.default_rng(2).random((6, 3))), path)
        path.write_bytes(path.read_bytes() + b"\n  \n")
        with pytest.raises(FileFormatError, match="trailing data after vertex data"):
            shapes.load_cloud(path)

    def test_golden_bytes(self, tmp_path):
        pts = np.array([[-0.0, 5e-324, 1e308], [1.0 / 3.0, 0.5, -2.0]])
        errors = np.array([0.0, 1.0 / 3.0])
        path = tmp_path / "golden.ply"
        shapes.write_ply(path, pts, extra={"error": errors}, correspondence_id="box:2")
        body = np.column_stack([pts, errors])
        header = b"".join(line + b"\n" for line in [
            b"ply", b"format binary_little_endian 1.0", b"comment correspondence box:2",
            b"element vertex 2", b"property double x", b"property double y",
            b"property double z", b"property double error", b"end_header"])
        assert path.read_bytes() == header + body.astype("<f8").tobytes()
        # -0.0 then the smallest subnormal, least significant byte first.
        assert path.read_bytes()[len(header):len(header) + 16] == (
            bytes(7) + b"\x80" + b"\x01" + bytes(7))

    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 20), st.just(3)),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_round_trip_bit_exact(self, tmp_path_factory, pts):
        path = tmp_path_factory.mktemp("ply") / "cloud.ply"
        shapes.save_cloud(PointCloud(pts), path)
        back = shapes.load_cloud(path).points
        assert back.shape == pts.shape
        assert back.tobytes() == pts.tobytes()

    def test_ragged_rows_rejected(self, tmp_path):
        # A payload that is not a whole number of declared rows.
        path = tmp_path / "ragged.ply"
        shapes.save_cloud(PointCloud(np.zeros((2, 3))), path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FileFormatError, match="unexpected end of file"):
            shapes.read_ply(path)
        path.write_bytes(data + bytes(8))
        with pytest.raises(FileFormatError, match="trailing data after vertex data"):
            shapes.read_ply(path)

    def test_zero_vertices_load_without_warning(self, tmp_path):
        path = tmp_path / "empty.ply"
        shapes.save_cloud(PointCloud(np.zeros((0, 3))), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = shapes.load_cloud(path).points
        assert pts.shape == (0, 3)

    def test_huge_count_raises_before_allocating(self, tmp_path, traced_peak):
        path = tmp_path / "huge.ply"
        shapes.save_cloud(PointCloud(np.zeros((4, 3))), path)
        path.write_bytes(path.read_bytes().replace(b"element vertex 4",
                                                   b"element vertex 1000000000"))

        def read():
            with pytest.raises(FileFormatError, match="unexpected end of file"):
                shapes.read_ply(path)

        _, peak = traced_peak(read)
        assert peak < 1 << 20

    def test_read_holds_the_file_and_one_array(self, tmp_path, traced_peak):
        n = 20000
        path = tmp_path / "big.ply"
        shapes.write_ply(path, np.ones((n, 3)), extra={"error": np.ones(n)})
        (pts, extras, _), peak = traced_peak(lambda: shapes.read_ply(path))
        assert pts.shape == (n, 3) and extras["error"].shape == (n,)
        assert peak <= path.stat().st_size + 8 * 4 * n + (64 << 10)

    @pytest.mark.parametrize("where", ["points", "extra"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_write_rejects_non_finite(self, tmp_path, where, value):
        pts = np.zeros((2, 3))
        errors = np.zeros(2)
        (pts if where == "points" else errors)[1, ...] = value
        path = tmp_path / "bad.ply"
        with pytest.raises(InvalidInputError, match="non-finite"):
            shapes.write_ply(path, pts, extra={"error": errors})
        assert not path.exists()


class TestVoxrFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        grid = VoxelGrid(rng.random((9, 9, 9)) < 0.3)
        path = tmp_path / "grid.voxr"
        shapes.save_voxr(grid, path)
        back = shapes.load_voxr(path)
        assert back.resolution == 9
        assert np.array_equal(back.occupancy, grid.occupancy)

    def test_truncated_file(self, tmp_path):
        grid = VoxelGrid(np.ones((8, 8, 8), bool))
        path = tmp_path / "grid.voxr"
        shapes.save_voxr(grid, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FileFormatError, match="unexpected end of file"):
            shapes.load_voxr(path)

    def test_trailing_byte(self, tmp_path):
        path = tmp_path / "grid.voxr"
        shapes.save_voxr(VoxelGrid(np.ones((8, 8, 8), bool)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FileFormatError, match="trailing data after occupancy bits"):
            shapes.load_voxr(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.voxr"
        path.write_bytes(b"VOXL 8\n" + bytes(64))
        with pytest.raises(FileFormatError):
            shapes.load_voxr(path)

    @pytest.mark.parametrize("field", [b"0_8", b"+8"])
    def test_python_only_integer_spellings(self, tmp_path, field):
        path = tmp_path / "bad.voxr"
        path.write_bytes(b"VOXR " + field + b"\n" + bytes(64))
        with pytest.raises(FileFormatError, match="bad resolution field"):
            shapes.load_voxr(path)

    @pytest.mark.parametrize("field", [b"0", b"-2"])
    def test_non_positive_resolution(self, tmp_path, field):
        path = tmp_path / "bad.voxr"
        path.write_bytes(b"VOXR " + field + b"\n")
        with pytest.raises(FileFormatError, match="resolution must be >= 1"):
            shapes.load_voxr(path)

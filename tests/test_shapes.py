import math
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


class TestVoxelGeneration:
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
        data = path.read_text().splitlines()
        path.write_text("\n".join(data[:-5]))
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
        path.write_text(path.read_text() + extra)
        with pytest.raises(FileFormatError, match="trailing"):
            shapes.load_cloud(path)

    @pytest.mark.parametrize("row", ["nan 0.5 2", "0.5 inf 2", "0.5 0.5 -inf"])
    def test_non_finite_vertex_rejected(self, tmp_path, row):
        path = tmp_path / "nan.ply"
        shapes.save_cloud(PointCloud(np.zeros((1, 3))), path)
        path.write_text(path.read_text().replace("0 0 0", row))
        with pytest.raises(FileFormatError, match="non-finite"):
            shapes.read_ply(path)

    def test_blank_lines_after_rows_tolerated(self, tmp_path):
        pts = np.random.default_rng(2).random((6, 3))
        path = tmp_path / "blank.ply"
        shapes.save_cloud(PointCloud(pts), path)
        path.write_text(path.read_text() + "\n  \n")
        assert np.array_equal(shapes.load_cloud(path).points, pts)

    def test_golden_bytes(self, tmp_path):
        pts = np.array([[-0.0, 5e-324, 1e308], [1.0 / 3.0, 0.5, -2.0]])
        errors = np.array([0.0, 1.0 / 3.0])
        path = tmp_path / "golden.ply"
        shapes.write_ply(path, pts, extra={"error": errors}, correspondence_id="box:2")
        body = np.column_stack([pts, errors])
        expected = "\n".join(
            ["ply", "format ascii 1.0", "comment correspondence box:2",
             "element vertex 2", "property double x", "property double y",
             "property double z", "property double error", "end_header"]
            + [" ".join(f"{v:.17g}" for v in row) for row in body]) + "\n"
        assert path.read_text() == expected
        assert "-0 4.9406564584124654e-324 1e+308 0" in expected

    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 20), st.just(3)),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_round_trip_bit_exact(self, tmp_path_factory, pts):
        path = tmp_path_factory.mktemp("ply") / "cloud.ply"
        shapes.save_cloud(PointCloud(pts), path)
        back = shapes.load_cloud(path).points
        assert back.shape == pts.shape
        assert back.tobytes() == pts.tobytes()

    def test_ragged_rows_rejected(self, tmp_path):
        # Six tokens over two rows: the right total, the wrong row shapes.
        path = tmp_path / "ragged.ply"
        shapes.save_cloud(PointCloud(np.zeros((2, 3))), path)
        text = path.read_text().replace("0 0 0\n0 0 0\n", "1 2 3 4\n5 6\n")
        path.write_text(text)
        with pytest.raises(FileFormatError, match="bad vertex row"):
            shapes.read_ply(path)

    def test_zero_vertices_load_without_warning(self, tmp_path):
        path = tmp_path / "empty.ply"
        shapes.save_cloud(PointCloud(np.zeros((0, 3))), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = shapes.load_cloud(path).points
        assert pts.shape == (0, 3)

    @pytest.mark.parametrize("token", ["1_0", "0x10", "1,5", "#1"])
    def test_non_numeric_token_rejected(self, tmp_path, token):
        path = tmp_path / "token.ply"
        shapes.save_cloud(PointCloud(np.zeros((1, 3))), path)
        path.write_text(path.read_text().replace("0 0 0", f"0 {token} 0"))
        with pytest.raises(FileFormatError, match="bad vertex row"):
            shapes.read_ply(path)

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

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.voxr"
        path.write_bytes(b"VOXL 8\n" + bytes(64))
        with pytest.raises(FileFormatError):
            shapes.load_voxr(path)

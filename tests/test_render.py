import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shapelift import render, shapes
from shapelift.errors import FileFormatError, InvalidInputError
from shapelift.render import Pose
from shapelift.shapes import PointCloud, VoxelGrid


def random_grid(seed, res=16, fill=0.15):
    rng = np.random.default_rng(seed)
    return VoxelGrid(rng.random((res, res, res)) < fill)


def symmetrized(grid):
    """Union with all axis flips: symmetric under 180-degree yaw and under
    front-back reflection, by construction."""
    occ = grid.occupancy
    occ = occ | occ[::-1, :, :] | occ[:, ::-1, :] | occ[::-1, ::-1, :]
    return VoxelGrid(occ)


def uncached_rotate_voxels(grid, pose):
    """Reference voxel branch of ``rotate_z`` that builds its index tables on
    every call; the cached tables must match it bit for bit."""
    if pose.yaw_deg == 0.0:
        return grid
    theta = math.radians(pose.yaw_deg)
    c, s = math.cos(theta), math.sin(theta)
    res = grid.resolution
    centers = (np.arange(res) + 0.5) / res
    tx, ty = np.meshgrid(centers, centers, indexing="ij")
    sx = 0.5 + c * (tx - 0.5) + s * (ty - 0.5)
    sy = 0.5 - s * (tx - 0.5) + c * (ty - 0.5)
    jx = np.floor(sx * res).astype(np.int64)
    jy = np.floor(sy * res).astype(np.int64)
    valid = (jx >= 0) & (jx < res) & (jy >= 0) & (jy < res)
    jx = np.clip(jx, 0, res - 1)
    jy = np.clip(jy, 0, res - 1)
    return VoxelGrid(grid.occupancy[jx, jy, :] & valid[:, :, None])


class TestPose:
    def test_normalizes_to_half_open_range(self):
        assert Pose(-45.0).yaw_deg == 315.0
        assert Pose(360.0).yaw_deg == 0.0
        assert Pose(540.0).yaw_deg == 180.0

    @pytest.mark.parametrize("yaw", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_yaw(self, yaw):
        with pytest.raises(InvalidInputError, match="must be finite"):
            Pose(yaw)


class TestRotate:
    def test_yaw_zero_is_identity(self):
        grid = random_grid(0)
        assert render.rotate_z(grid, Pose(0.0)) is grid
        cloud = PointCloud(np.random.default_rng(1).random((10, 3)))
        assert render.rotate_z(cloud, Pose(0.0)) is cloud

    def test_quarter_turn_point(self):
        rotated = render.rotate_z(PointCloud([[0.75, 0.5, 0.5]]), Pose(90.0))
        np.testing.assert_allclose(rotated.points, [[0.5, 0.75, 0.5]], atol=1e-12)

    def test_full_turn_matches_identity(self):
        cloud = PointCloud(np.random.default_rng(2).random((20, 3)))
        rotated = render.rotate_z(cloud, Pose(360.0))
        np.testing.assert_allclose(rotated.points, cloud.points, atol=1e-12)

    def test_voxel_half_turn_is_index_flip(self):
        grid = random_grid(3, res=20)
        rotated = render.rotate_z(grid, Pose(180.0))
        assert np.array_equal(rotated.occupancy, grid.occupancy[::-1, ::-1, :])

    def test_rotation_preserves_z_slices(self):
        grid = random_grid(4, res=12)
        rotated = render.rotate_z(grid, Pose(37.0))
        assert rotated.occupancy.sum(axis=(0, 1)).max() <= grid.resolution ** 2


class TestVoxelRotationCache:
    @pytest.mark.parametrize("res", [8, 30, 64])
    def test_images_match_uncached_rotation(self, res):
        grid = random_grid(5, res=res, fill=0.3)
        for yaw in [22.5 * i for i in range(16)] + [13.7]:
            pose = Pose(yaw)
            for _ in range(2):  # the first call fills the cache, the second reads it
                rotated = render.rotate_z(grid, pose)
                image = render.render_depth(grid, pose)
                reference = uncached_rotate_voxels(grid, pose)
                assert np.array_equal(rotated.occupancy, reference.occupancy)
                assert np.array_equal(image, render.render_depth(reference, Pose(0.0)))

    def test_tables_are_read_only(self):
        for table in render._voxel_rotation_table(45.0, 16):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0

    def test_cache_stays_bounded(self):
        bound = render._voxel_rotation_table.cache_info().maxsize
        for i in range(3 * bound):
            render.rotate_z(random_grid(6, res=8), Pose(1.0 + i))
        assert render._voxel_rotation_table.cache_info().currsize == bound


class TestRenderDepth:
    def test_empty_shapes_render_black(self):
        img = render.render_depth(VoxelGrid(np.zeros((8, 8, 8), bool)), Pose(0.0))
        assert not img.any()
        img = render.render_depth(PointCloud(np.zeros((0, 3))), Pose(0.0))
        assert not img.any()

    def test_single_front_cell(self):
        # Cell (15, 0, 15) at resolution 30: depth (0 + 0.5)/30, so the lone
        # pixel reads 1 - 1/60; the cell [0.5, 0.5333) holds exactly one of
        # the 32 pixel-center rays.
        occ = np.zeros((30, 30, 30), bool)
        occ[15, 0, 15] = True
        img = render.render_depth(VoxelGrid(occ), Pose(0.0), 32, 32)
        nz = np.nonzero(img)
        assert len(nz[0]) == 1
        assert img[nz][0] == 1.0 - 0.5 / 30.0
        assert img[nz][0] > 0.9

    def test_nearer_of_two_cells_wins(self):
        occ = np.zeros((16, 16, 16), bool)
        occ[8, 3, 8] = True
        occ[8, 12, 8] = True
        img = render.render_depth(VoxelGrid(occ), Pose(0.0), 32, 32)
        assert img.max() == 1.0 - 3.5 / 16.0

    def test_point_cloud_depth_value(self):
        img = render.render_depth(PointCloud([[0.5, 0.25, 0.5]]), Pose(0.0), 32, 32)
        nz = np.nonzero(img)
        assert len(nz[0]) == 1
        assert img[nz][0] == 0.75

    def test_frontmost_point_wins(self):
        cloud = PointCloud([[0.5, 0.8, 0.5], [0.5, 0.2, 0.5]])
        img = render.render_depth(cloud, Pose(0.0), 32, 32)
        assert img.max() == 0.8

    def test_mirror_identity_bit_exact(self):
        for seed in range(5):
            grid = symmetrized(random_grid(seed, res=30))
            img0 = render.render_depth(grid, Pose(0.0), 32, 32)
            img180 = render.render_depth(grid, Pose(180.0), 32, 32)
            assert np.array_equal(img0, img180[:, ::-1])

    @given(st.integers(0, 10**9), st.floats(0.0, 360.0, exclude_max=True,
                                            allow_nan=False))
    def test_pixel_range(self, seed, yaw):
        grid = random_grid(seed, res=10)
        img = render.render_depth(grid, Pose(yaw), 24, 24)
        assert img.min() >= 0.0
        assert img.max() <= 1.0
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.random((30, 3)))
        img = render.render_depth(cloud, Pose(yaw), 24, 24)
        assert img.min() >= 0.0
        assert img.max() <= 1.0

    @given(st.integers(0, 10**9))
    def test_monotone_in_occupancy(self, seed):
        rng = np.random.default_rng(seed)
        occ = rng.random((12, 12, 12)) < 0.1
        extra = occ | (rng.random((12, 12, 12)) < 0.05)
        yaw = float(rng.uniform(0.0, 360.0))
        before = render.render_depth(VoxelGrid(occ), Pose(yaw), 24, 24)
        after = render.render_depth(VoxelGrid(extra), Pose(yaw), 24, 24)
        assert (after >= before).all()

    def test_deterministic(self):
        grid = random_grid(9)
        a = render.render_depth(grid, Pose(33.0), 32, 32)
        b = render.render_depth(grid, Pose(33.0), 32, 32)
        assert np.array_equal(a, b)


class TestViews:
    def test_single_view_is_yaw_zero(self):
        assert render.view_yaws(1) == [0.0]

    @pytest.mark.parametrize("count", [0, -3])
    def test_view_count_below_one_rejected(self, count):
        with pytest.raises(InvalidInputError):
            render.view_yaws(count)

    def test_eight_view_yaws(self):
        assert render.view_yaws(8) == [0.0, 22.5, 45.0, 67.5, 90.0, 112.5,
                                       135.0, 157.5]

    def test_explicit_pose_list(self):
        cloud = shapes.generate_point_shape(
            shapes.ShapeSpec("ellipsoid", {"cx": 0.5, "cy": 0.5, "cz": 0.5,
                                           "rx": 0.2, "ry": 0.25, "rz": 0.3}), 200)
        assert np.array_equal(render.render_depth(cloud, Pose(-45.0)),
                              render.render_depth(cloud, Pose(315.0)))


class TestPgm:
    def test_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(13)
        img = rng.random((16, 24))
        path = tmp_path / "img.pgm"
        render.save_pgm(img, path)
        back = render.load_pgm(path)
        np.testing.assert_array_equal(back, np.rint(img * 255.0) / 255.0)

    def test_truncated(self, tmp_path):
        path = tmp_path / "img.pgm"
        render.save_pgm(np.zeros((8, 8)), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FileFormatError, match="unexpected end of file"):
            render.load_pgm(path)

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "img.pgm"
        render.save_pgm(np.zeros((8, 8)), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FileFormatError, match="trailing"):
            render.load_pgm(path)

    @pytest.mark.parametrize("header", [b"P5\n0 5\n255\n", b"P5\n-2 -3\n255\n"])
    def test_non_positive_size(self, tmp_path, header):
        path = tmp_path / "img.pgm"
        path.write_bytes(header + bytes(6))
        with pytest.raises(FileFormatError, match="at least 1x1"):
            render.load_pgm(path)

    def test_save_rejects_empty_image(self, tmp_path):
        path = tmp_path / "img.pgm"
        with pytest.raises(InvalidInputError):
            render.save_pgm(np.zeros((0, 5)), path)
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(FileFormatError):
            render.load_pgm(path)

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
    """Reference voxel rotation of ``render_depth`` that builds its index
    tables on every call; the cached tables must match it bit for bit."""
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


def any_argmax_render(grid, pose, width, height):
    """Reference voxel branch of ``render_depth``: rotate, then find hits and
    first hits in two reductions and sample the pixels through ``np.ix_``."""
    occ = uncached_rotate_voxels(grid, pose).occupancy
    res = grid.resolution
    hit = occ.any(axis=1)
    first = occ.argmax(axis=1)
    value = np.where(hit, 1.0 - (first + 0.5) / res, 0.0)  # (x, z)
    xp = (np.arange(width) + 0.5) / width
    zp = (np.arange(height - 1, -1, -1) + 0.5) / height
    ix = (xp * res).astype(np.int64)
    iz = (zp * res).astype(np.int64)
    return value[np.ix_(ix, iz)].T.copy()


def splat_render(cloud, pose, width, height):
    """Reference cloud branch of ``render_depth``: turn the points about
    (0.5, 0.5) by the yaw (yaw 0 leaves them untouched), then splat them one
    at a time, each pixel keeping the largest ``1 - y``."""
    pts = cloud.points
    if pose.yaw_deg != 0.0:
        theta = math.radians(pose.yaw_deg)
        c, s = math.cos(theta), math.sin(theta)
        dx = pts[:, 0] - 0.5
        dy = pts[:, 1] - 0.5
        pts = np.column_stack([0.5 + c * dx - s * dy, 0.5 + s * dx + c * dy, pts[:, 2]])
    img = np.zeros((height, width))
    for x, y, z in pts:
        col = min(max(math.floor(x * width), 0), width - 1)
        row = height - 1 - min(max(math.floor(z * height), 0), height - 1)
        img[row, col] = max(img[row, col], 1.0 - min(max(y, 0.0), 1.0))
    return img


class TestPose:
    def test_normalizes_to_half_open_range(self):
        assert Pose(-45.0).yaw_deg == 315.0
        assert Pose(360.0).yaw_deg == 0.0
        assert Pose(540.0).yaw_deg == 180.0
        # Float % alone rounds this up to 360.0.
        assert Pose(-1e-14).yaw_deg == 0.0

    @pytest.mark.parametrize("yaw", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_yaw(self, yaw):
        with pytest.raises(InvalidInputError, match="must be finite"):
            Pose(yaw)


class TestRotate:
    def test_yaw_zero_is_identity(self):
        points = np.random.default_rng(1).random((10, 3))
        assert render._rotate_points(points, 0.0) is points

    def test_quarter_turn_point(self):
        rotated = render._rotate_points(np.array([[0.75, 0.5, 0.5]]), 90.0)
        np.testing.assert_allclose(rotated, [[0.5, 0.75, 0.5]], atol=1e-12)

    def test_full_turn_matches_identity(self):
        points = np.random.default_rng(2).random((20, 3))
        # The raw 360, which Pose would normalize to the yaw-0 shortcut.
        rotated = render._rotate_points(points, 360.0)
        np.testing.assert_allclose(rotated, points, atol=1e-12)


class TestVoxelRotationCache:
    @pytest.mark.parametrize("res", [8, 30, 64])
    def test_images_match_uncached_rotation(self, res):
        grid = random_grid(5, res=res, fill=0.3)
        for yaw in [22.5 * i for i in range(16)] + [13.7]:
            pose = Pose(yaw)
            for _ in range(2):  # the first call fills the cache, the second reads it
                image = render.render_depth(grid, pose)
                reference = uncached_rotate_voxels(grid, pose)
                assert np.array_equal(image, render.render_depth(reference, Pose(0.0)))

    @pytest.mark.parametrize("res", [8, 30, 64])
    def test_images_match_any_argmax_renderer(self, res):
        rng = np.random.default_rng(res)
        grids = {
            "empty": VoxelGrid(np.zeros((res,) * 3, bool)),
            "full": VoxelGrid(np.ones((res,) * 3, bool)),
            "random": VoxelGrid(rng.random((res,) * 3) < 0.2),
            # A grid read from a VOXR file is Fortran-ordered.
            "fortran": VoxelGrid(np.asfortranarray(rng.random((res,) * 3) < 0.2)),
        }
        yaws = [0.0, 13.7, 180.0, -45.0] + [22.5 * i for i in range(16)]
        for name, grid in grids.items():
            for yaw in yaws:
                for width, height in [(1, 1), (17, 40), (32, 32), (100, 100)]:
                    image = render.render_depth(grid, Pose(yaw), width, height)
                    reference = any_argmax_render(grid, Pose(yaw), width, height)
                    assert image.shape == (height, width)
                    assert image.dtype == np.float64
                    assert np.array_equal(image, reference), (name, yaw, width, height)

    def test_tables_are_read_only(self):
        rows = render._voxel_rotation_table(45.0, 16)
        assert rows.shape == (16, 17)
        for table in (rows, *render._pixel_table(17, 40, 16)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

    def test_cache_stays_bounded(self):
        bound = render._voxel_rotation_table.cache_info().maxsize
        for i in range(3 * bound):
            render.render_depth(random_grid(6, res=8), Pose(1.0 + i))
        assert render._voxel_rotation_table.cache_info().currsize == bound
        bound = render._pixel_table.cache_info().maxsize
        for i in range(3 * bound):
            render.render_depth(random_grid(6, res=8), Pose(0.0), 1 + i, 2)
        assert render._pixel_table.cache_info().currsize == bound


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


class TestCloudRender:
    def test_images_match_point_splat_renderer(self):
        rng = np.random.default_rng(17)
        clouds = {
            "empty": PointCloud(np.zeros((0, 3))),
            "unit": PointCloud(rng.random((200, 3))),
            # Full mantissas near the front, where 0.5 + (y - 0.5) != y.
            "front": PointCloud(rng.random((200, 3)) / 7.0),
            # Points past the faces, and corners that leave the cube when turned.
            "wide": PointCloud(rng.uniform(-0.2, 1.2, (150, 3))),
            "corners": PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.5],
                                   [1.0, 0.0, 0.25], [0.5, 0.5, 0.5]]),
        }
        yaws = [22.5 * i for i in range(16)] + [13.7, -45.0]
        for name, cloud in clouds.items():
            for yaw in yaws:
                for width, height in [(1, 1), (17, 40), (32, 32)]:
                    image = render.render_depth(cloud, Pose(yaw), width, height)
                    reference = splat_render(cloud, Pose(yaw), width, height)
                    assert image.shape == (height, width)
                    assert image.dtype == np.float64
                    assert np.array_equal(image, reference), (name, yaw, width, height)


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

    def test_uint8_raster_is_written_as_it_is(self, tmp_path):
        path = tmp_path / "img.pgm"
        render.save_pgm(np.array([[0, 7], [128, 255]], np.uint8), path)
        assert path.read_bytes() == b"P5\n2 2\n255\n\x00\x07\x80\xff"
        img = np.random.default_rng(14).random((5, 3))
        render.save_pgm(np.rint(img * 255.0).astype(np.uint8), path)
        floats = tmp_path / "floats.pgm"
        render.save_pgm(img, floats)
        assert path.read_bytes() == floats.read_bytes()
        with pytest.raises(InvalidInputError):
            render.save_pgm(np.zeros((0, 5), np.uint8), path)
        with pytest.raises(InvalidInputError, match=r"\[0, 1\]"):
            render.save_pgm(np.full((2, 2), 255.0), path)

    def test_load_holds_the_file_and_one_float_raster(self, tmp_path, traced_peak):
        # A strip of 50 samples x 4 views of 32x32.  The peak is the file's
        # bytes and the float64 raster, divided in place: no copy of the
        # raster bytes and no second float64 raster.
        strip = np.random.default_rng(15).integers(0, 256, (50 * 4 * 32, 32), np.uint8)
        path = tmp_path / "views.pgm"
        path.write_bytes(b"P5\n32 6400\n255\n" + strip.tobytes())
        pixels, peak = traced_peak(lambda: render.load_pgm(path))
        assert np.array_equal(pixels, strip / 255.0)
        assert peak <= pixels.nbytes + path.stat().st_size + 64 * 1024

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

    @pytest.mark.parametrize("header", [
        b"P5\n3_2 1\n255\n", b"P5\n+32 1\n255\n", b"P5\n32 1\n2_55\n", b"P5\n32 +1\n255\n",
    ])
    def test_python_only_integer_spellings(self, tmp_path, header):
        path = tmp_path / "img.pgm"
        path.write_bytes(header + bytes(32))
        with pytest.raises(FileFormatError, match="bad PGM header"):
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

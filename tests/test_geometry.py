import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgbev.geometry import (
    Box2D,
    Box3D,
    CameraModel,
    PointCloud,
    RigidTransform,
    box3d_corners,
    point_in_box,
    points_in_box,
    project_box3d_to_box2d,
    project_point,
)
from fgbev import oracles


def simple_camera(fx=100.0, fy=100.0, cx=50.0, cy=50.0, w=101, h=101):
    return CameraModel(fx, fy, cx, cy, RigidTransform.identity(), w, h)


class TestRigidTransform:
    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = RigidTransform.from_yaw(rng.uniform(-3, 3), rng.uniform(-10, 10, 3))
            eye = t.compose(t.inverse())
            assert np.allclose(eye.rotation, np.eye(3), atol=1e-9)
            assert np.allclose(eye.translation, 0.0, atol=1e-9)

    def test_compose_order(self):
        a = RigidTransform.from_yaw(0.3, (1, 0, 0))
        b = RigidTransform.from_yaw(-0.7, (0, 2, 0))
        p = np.array([1.0, 2.0, 3.0])
        assert np.allclose(a.compose(b).apply(p), a.apply(b.apply(p)))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            RigidTransform(np.eye(3) * 1.01, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError, match="determinant"):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


class TestProjectPoint:
    def test_principal_axis(self):
        assert project_point(simple_camera(), (0, 0, 10)) == (50.0, 50.0, 10.0)

    def test_pinhole_arithmetic(self):
        assert project_point(simple_camera(), (1, 0, 10)) == (60.0, 50.0, 10.0)

    def test_behind_camera_is_absent(self):
        assert project_point(simple_camera(), (0, 0, -5)) is None

    def test_outside_image_is_absent(self):
        assert project_point(simple_camera(), (100, 0, 10)) is None

    def test_in_image_bounds_are_closed_and_nan_is_outside(self):
        cam = simple_camera(w=101, h=51, cy=25.0)
        u = np.array([0.0, 100.0, -1e-9, 100.0 + 1e-9, 50.0, np.nan, 50.0])
        v = np.array([50.0, 0.0, 10.0, 10.0, 50.0 + 1e-9, 10.0, np.nan])
        inside = [True, True, False, False, False, False, False]
        assert cam.in_image(u, v).tolist() == inside
        assert [bool(cam.in_image(a, b)) for a, b in zip(u.tolist(), v.tolist())] == inside

    def test_roundtrip_recovers_point(self):
        rng = np.random.default_rng(1)
        cam = CameraModel(
            120.0, 95.0, 31.5, 23.5,
            RigidTransform.from_yaw(0.4, (0.3, -0.2, 1.1)), 64, 48,
        )

        def back_project(u, v, depth):
            x = (u - cam.cx) / cam.fx * depth
            y = (v - cam.cy) / cam.fy * depth
            return cam.cam_to_ego.apply(np.array([x, y, depth]))

        hits = 0
        for _ in range(500):
            # Build the point inside the frustum: pick a pixel and a depth.
            z = rng.uniform(0.5, 40.0)
            u0 = rng.uniform(0, cam.image_width - 1)
            v0 = rng.uniform(0, cam.image_height - 1)
            p = back_project(u0, v0, z)
            res = project_point(cam, p)
            assert res is not None
            hits += 1
            u, v, d = res
            assert np.allclose(back_project(u, v, d), p, atol=1e-6)
        assert hits == 500


class TestBoxCorners:
    def test_unit_cube_axis_aligned(self):
        box = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0)
        got = box3d_corners(box)
        want = {(sx * 0.5, sy * 0.5, sz * 0.5) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
        assert {tuple(np.round(c, 12)) for c in got} == want

    def test_unit_cube_quarter_turn_same_set(self):
        box = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=math.pi / 2)
        got = {tuple(np.round(c, 12)) for c in box3d_corners(box)}
        ref = {tuple(np.round(c, 12)) for c in box3d_corners(Box3D((0, 0, 0), (1, 1, 1), 0.0))}
        assert got == ref

    def test_first_corner_matches_documented_order(self):
        box = Box3D(center=(0, 0, 0), size=(2, 4, 6), yaw=0.0)
        assert np.allclose(box3d_corners(box)[0], (1.0, 2.0, -3.0))

    def test_rotated_box_matches_reference(self):
        box = Box3D(center=(1, 0, 0), size=(4, 2, 2), yaw=math.pi / 4)
        assert np.allclose(box3d_corners(box), oracles.corners_reference(box), atol=1e-12)

    def test_many_random_boxes_match_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            box = Box3D(
                center=rng.uniform(-20, 20, 3),
                size=tuple(rng.uniform(0.2, 8, 3)),
                yaw=rng.uniform(-4, 4),
            )
            assert np.allclose(box3d_corners(box), oracles.corners_reference(box), atol=1e-9)


class TestPointInBox:
    def test_center_inside(self):
        box = Box3D(center=(3, -2, 1), size=(2, 3, 1), yaw=0.7)
        assert point_in_box(box, box.center)

    def test_far_point_outside(self):
        box = Box3D(center=(0, 0, 0), size=(2, 3, 1), yaw=0.7)
        diag = np.linalg.norm(box.size)
        assert not point_in_box(box, box.center + 2 * diag)

    def test_boundary_is_inside(self):
        box = Box3D(center=(0, 0, 0), size=(2, 2, 2), yaw=0.0)
        assert point_in_box(box, (1.0, 0.0, 0.0))

    def test_agrees_with_halfspace_reference(self):
        rng = np.random.default_rng(3)
        box = Box3D(center=(1, 2, 0.5), size=(4, 2, 1.5), yaw=-0.9)
        pts = box.center + rng.uniform(-4, 4, (1000, 3))
        got = points_in_box(box, pts)
        want = np.array([oracles.point_in_box_reference(box, p) for p in pts])
        assert np.array_equal(got, want)

    @settings(max_examples=50, deadline=None)
    @given(
        yaw=st.floats(-3.0, 3.0),
        tx=st.floats(-10.0, 10.0),
        ty=st.floats(-10.0, 10.0),
        px=st.floats(-3.0, 3.0),
        py=st.floats(-3.0, 3.0),
        pz=st.floats(-2.0, 2.0),
    )
    def test_invariant_under_rigid_motion(self, yaw, tx, ty, px, py, pz):
        box = Box3D(center=(0.5, -0.25, 0.0), size=(3, 1.5, 1), yaw=0.4)
        p = np.array([px, py, pz])
        t = RigidTransform.from_yaw(yaw, (tx, ty, 0.3))
        moved_box = Box3D(center=t.apply(box.center), size=box.size, yaw=box.yaw + yaw)
        # Points exactly on the boundary may flip under floating-point motion.
        if not _near_boundary(box, p):
            assert point_in_box(box, p) == point_in_box(moved_box, t.apply(p))


def _near_boundary(box, p, tol=1e-9):
    from fgbev.geometry import rotation_about_z

    local = np.abs(rotation_about_z(box.yaw).T @ (np.asarray(p) - box.center))
    return bool(np.any(np.abs(local - box.half_size) < tol))


class TestBox2DProjection:
    def test_behind_camera_absent(self):
        cam = simple_camera()
        box = Box3D(center=(0, 0, -20), size=(2, 2, 2), yaw=0.0)
        assert project_box3d_to_box2d(cam, box) is None

    def test_centered_cube_symmetric(self):
        cam = simple_camera()
        box = Box3D(center=(0, 0, 10), size=(2, 2, 2), yaw=0.0)
        rect = project_box3d_to_box2d(cam, box)
        assert rect is not None
        assert math.isclose(rect.x1 + rect.x2, 2 * cam.cx, abs_tol=1e-9)
        assert math.isclose(rect.y1 + rect.y2, 2 * cam.cy, abs_tol=1e-9)

    def test_matches_corner_bruteforce(self):
        rng = np.random.default_rng(4)
        cam = simple_camera(w=201, h=151, cx=100.0, cy=75.0)
        checked = 0
        for _ in range(300):
            box = Box3D(
                center=rng.uniform((-6, -6, 4), (6, 6, 40)),
                size=tuple(rng.uniform(0.5, 4, 3)),
                yaw=rng.uniform(-4, 4),
            )
            got = project_box3d_to_box2d(cam, box)
            want = oracles.box2d_reference(cam, box)
            assert (got is None) == (want is None)
            if got is not None:
                checked += 1
                assert np.allclose(
                    (got.x1, got.y1, got.x2, got.y2),
                    (want.x1, want.y1, want.x2, want.y2),
                    atol=1e-9,
                )
        assert checked > 100

    def test_box2d_validation(self):
        with pytest.raises(ValueError, match="degenerate"):
            Box2D(5, 0, 4, 1)


class TestValidation:
    def test_camera_rejects_bad_focal(self):
        with pytest.raises(ValueError, match="focal"):
            CameraModel(-1, 100, 50, 50, RigidTransform.identity(), 101, 101)

    def test_camera_rejects_principal_point_outside(self):
        with pytest.raises(ValueError, match="cx"):
            CameraModel(100, 100, 200, 50, RigidTransform.identity(), 101, 101)

    def test_box_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="size"):
            Box3D(center=(0, 0, 0), size=(1, 0, 1), yaw=0.0)

    def test_box_rejects_bad_visibility(self):
        with pytest.raises(ValueError, match="visibility"):
            Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0, visibility=5)

    def test_point_cloud_tag_check(self):
        pc = PointCloud(np.zeros((2, 3)), "frame-0")
        pc.require_tag("frame-0")
        with pytest.raises(ValueError, match="frame-1"):
            pc.require_tag("frame-1")

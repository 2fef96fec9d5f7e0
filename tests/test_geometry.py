import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgbev.geometry import (
    _CORNER_SIGNS,
    ORTHONORMAL_TOL,
    PAIR_BLOCK,
    Box2D,
    Box3D,
    CameraModel,
    PointCloud,
    RigidTransform,
    _inside,
    box3d_corners,
    box_corner_pixels,
    box_point_counts,
    clip_rects,
    points_in_box,
    project_box3d_to_box2d,
    project_points_unbounded,
    rotation_about_z,
    visible_corner_rects,
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

    @pytest.mark.parametrize("scale", [1 + 3e-7, 1 - 3e-7, 1 + 1e-9, 1 - 1e-9])
    def test_rejects_rotation_beyond_the_tolerance(self, scale):
        # |R R^T - I| is about 2 * |scale - 1|: above ORTHONORMAL_TOL, though within
        # a relative 1e-5 of the identity.
        rot = rotation_about_z(0.3) * scale
        assert np.abs(rot @ rot.T - np.eye(3)).max() > ORTHONORMAL_TOL
        with pytest.raises(ValueError, match="orthonormal"):
            RigidTransform(rot, np.zeros(3))

    @pytest.mark.parametrize("scale", [1 + 4e-10, 1 - 4e-10, 1.0])
    def test_accepts_rotation_within_the_tolerance(self, scale):
        rot = rotation_about_z(0.3) * scale
        assert np.abs(rot @ rot.T - np.eye(3)).max() <= ORTHONORMAL_TOL
        assert RigidTransform(rot, np.zeros(3)).rotation.tobytes() == rot.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [(0, 0), (1, 2), (2, 2)])
    def test_rejects_non_finite_rotation(self, bad, index):
        rot = rotation_about_z(0.3)
        rot[index] = bad
        with pytest.raises(ValueError, match="orthonormal"):
            RigidTransform(rot, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError, match="determinant"):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


def project(cam, points):
    """(u, v, depth) arrays of the points, and whether each lands in the image."""
    uv, depth = project_points_unbounded(cam, points)
    u, v = uv.T
    return u, v, depth, cam.in_image(u, v)


def test_cam_to_ego_is_built_once_per_camera():
    ego_to_cam = RigidTransform.from_yaw(0.4, (1.0, -2.0, 0.5))
    cam = CameraModel(100.0, 100.0, 31.5, 15.5, ego_to_cam, 64, 32)
    first = cam.cam_to_ego
    assert cam.cam_to_ego is first
    want = ego_to_cam.inverse()
    assert first.rotation.tobytes() == want.rotation.tobytes()
    assert first.translation.tobytes() == want.translation.tobytes()


class TestProjectPoint:
    """One point at a time through project_points_unbounded and in_image."""

    def test_principal_axis(self):
        u, v, depth, inside = project(simple_camera(), [(0, 0, 10)])
        assert (u[0], v[0], depth[0], inside[0]) == (50.0, 50.0, 10.0, True)

    def test_pinhole_arithmetic(self):
        u, v, depth, inside = project(simple_camera(), [(1, 0, 10)])
        assert (u[0], v[0], depth[0], inside[0]) == (60.0, 50.0, 10.0, True)

    def test_behind_camera_is_absent(self):
        u, v, depth, inside = project(simple_camera(), [(0, 0, -5), (0, 0, 0)])
        assert np.isnan(u).all() and np.isnan(v).all()
        assert depth.tolist() == [-5.0, 0.0] and not inside.any()

    def test_outside_image_is_absent(self):
        u, v, _, inside = project(simple_camera(), [(100, 0, 10), (0, -100, 10)])
        assert u.tolist() == [1050.0, 50.0] and v.tolist() == [50.0, -950.0]
        assert not inside.any()

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

        # Build the points inside the frustum: pick a pixel and a depth for each.
        z = rng.uniform(0.5, 40.0, 500)
        u0 = rng.uniform(0, cam.image_width - 1, 500)
        v0 = rng.uniform(0, cam.image_height - 1, 500)
        p = np.array([back_project(*args) for args in zip(u0, v0, z)])
        u, v, d, inside = project(cam, p)
        assert inside.all()
        assert np.allclose([back_project(*args) for args in zip(u, v, d)], p, atol=1e-6)


class TestBoxCorners:
    def test_unit_cube_axis_aligned(self):
        box = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0)
        got = box3d_corners([box])[0]
        want = {(sx * 0.5, sy * 0.5, sz * 0.5) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
        assert {tuple(np.round(c, 12)) for c in got} == want

    def test_unit_cube_quarter_turn_same_set(self):
        box = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=math.pi / 2)
        got = {tuple(np.round(c, 12)) for c in box3d_corners([box])[0]}
        ref = {tuple(np.round(c, 12)) for c in box3d_corners([Box3D((0, 0, 0), (1, 1, 1), 0.0)])[0]}
        assert got == ref

    def test_first_corner_matches_documented_order(self):
        box = Box3D(center=(0, 0, 0), size=(2, 4, 6), yaw=0.0)
        assert np.allclose(box3d_corners([box])[0][0], (1.0, 2.0, -3.0))

    def test_rotated_box_matches_reference(self):
        box = Box3D(center=(1, 0, 0), size=(4, 2, 2), yaw=math.pi / 4)
        assert np.allclose(box3d_corners([box])[0], oracles.corners_reference(box), atol=1e-12)

    def test_many_random_boxes_match_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            box = Box3D(
                center=rng.uniform(-20, 20, 3),
                size=tuple(rng.uniform(0.2, 8, 3)),
                yaw=rng.uniform(-4, 4),
            )
            assert np.allclose(box3d_corners([box])[0], oracles.corners_reference(box), atol=1e-9)


class TestPointInBox:
    def test_center_inside(self):
        box = Box3D(center=(3, -2, 1), size=(2, 3, 1), yaw=0.7)
        assert points_in_box([box], box.center)[0]

    def test_far_point_outside(self):
        box = Box3D(center=(0, 0, 0), size=(2, 3, 1), yaw=0.7)
        diag = np.linalg.norm(box.size)
        assert not points_in_box([box], box.center + 2 * diag)[0]

    def test_boundary_is_inside(self):
        box = Box3D(center=(0, 0, 0), size=(2, 2, 2), yaw=0.0)
        assert points_in_box([box], (1.0, 0.0, 0.0))[0]

    def test_agrees_with_halfspace_reference(self):
        rng = np.random.default_rng(3)
        boxes = [
            Box3D(center=(1, 2, 0.5), size=(4, 2, 1.5), yaw=-0.9),
            Box3D(center=(2, 1.5, 0.0), size=(3, 3, 2), yaw=0.4),
            Box3D(center=(0, 2.5, 1.0), size=(2, 5, 1), yaw=2.0),
        ]
        pts = boxes[0].center + rng.uniform(-4, 4, (1000, 3))
        want = np.array([[oracles.point_in_box_reference(b, p) for p in pts] for b in boxes])
        assert want.any(axis=0).sum() < want.sum()  # the boxes overlap
        assert np.array_equal(points_in_box(boxes[:1], pts), want[0])
        assert np.array_equal(points_in_box(boxes, pts), want.any(axis=0))
        counts = box_point_counts(boxes, pts)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, want.sum(axis=1))

        # yaw 0 and these coordinates make the box-frame offsets exact.
        box = Box3D(center=(10, -4, 0.5), size=(2, 4, 6), yaw=0.0)
        on_face = np.array([[11, -4, 0.5], [9, -5, 1], [10.5, -2, 0], [10, -4, -2.5], [11, -6, 3.5]])
        normals = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, -1], [0, 0, 1]])
        outside = on_face + 1e-9 * normals
        assert points_in_box([box], on_face).all()
        assert not points_in_box([box], outside).any()
        assert np.array_equal(box_point_counts([box], np.vstack([on_face, outside])), [5])

        assert np.array_equal(points_in_box([], pts), np.zeros(len(pts), dtype=bool))
        assert box_point_counts([], pts).shape == (0,)
        empty = np.zeros((0, 3))
        assert points_in_box(boxes, empty).shape == (0,)
        assert np.array_equal(box_point_counts(boxes, empty), [0, 0, 0])

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
            assert np.array_equal(points_in_box([box], p), points_in_box([moved_box], t.apply(p)))


def _unculled(boxes, pts):
    """(B, N) bools: the exact test of every box against the whole cloud."""
    want = np.array([_inside(box, pts) for box in boxes], dtype=bool)
    return want.reshape(len(boxes), len(pts))


def _surface_points(box, rng, n_per_face=6):
    """(on, near): the box's corners and face points, and those points moved 1e-9 out and in."""
    half = box.half_size
    local = [_CORNER_SIGNS * half]
    for axis in range(3):
        for sign in (-1.0, 1.0):
            face = rng.uniform(-half, half, (n_per_face, 3))
            face[:, axis] = sign * half[axis]
            local.append(face)
    local = np.vstack(local)
    # Offset along every axis in which the point sits on a face: outward, then inward.
    normal = np.where(np.abs(local) == half, np.sign(local), 0.0)
    to_ego = lambda q: q @ rotation_about_z(box.yaw).T + box.center
    return to_ego(local), np.vstack([to_ego(local + 1e-9 * normal), to_ego(local - 1e-9 * normal)])


class TestCulledMembership:
    """The windowed kernels against the exact test on the whole cloud, and against the oracle."""

    YAWS = (0.0, math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2, math.pi, -math.pi)

    def _scene(self, seed):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-6, 6, (len(self.YAWS), 3))
        centers[1] = centers[0]  # so at least two boxes overlap
        boxes = [
            Box3D(center=c, size=tuple(rng.uniform(0.5, 5.0, 3)), yaw=yaw)
            for c, yaw in zip(centers, self.YAWS)
        ]
        # One box far from the origin, where rounding scales with |center|, and one with
        # no points near it.
        boxes.append(Box3D(center=(4e5, -3e5, 1.0), size=(4.0, 2.0, 1.5), yaw=0.3))
        boxes.append(Box3D(center=(0.0, 900.0, 0.0), size=(2.0, 2.0, 2.0), yaw=1.0))
        on, near = zip(*(_surface_points(box, rng) for box in boxes[:-1]))
        on, near = np.vstack(on), np.vstack(near)
        cloud = rng.uniform(-12, 12, (600, 3))
        cloud[:, 0] = np.round(cloud[:, 0] * 4) / 4  # many tied x coordinates
        far = boxes[-2].center + rng.uniform(-5, 5, (100, 3))
        # Points sharing x with the corners, among them the ends of each box's x range. At
        # yaws that are multiples of pi/2 these lie on face planes, so they join `on`.
        tied = np.repeat(box3d_corners(boxes[:-1]).reshape(-1, 3), 3, axis=0)
        tied[:, 1:] += rng.uniform(-3, 3, (len(tied), 2))
        return boxes, np.vstack([on, tied]), np.vstack([near, cloud, far])

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_unculled_and_oracle(self, seed):
        boxes, on, off = self._scene(seed)
        assert len(np.unique(off[:, 0])) < len(off) and len(np.unique(on[:, 0])) < len(on)
        for pts in (np.vstack([on, off]), off[::-1], on):
            want = _unculled(boxes, pts)
            assert want.sum(axis=1).min() == 0 and want.sum(axis=0).max() >= 2  # empty and overlap
            assert np.array_equal(box_point_counts(boxes, pts), want.sum(axis=1))
            assert np.array_equal(points_in_box(boxes, pts), want.any(axis=0))
            for i, box in enumerate(boxes):
                assert np.array_equal(points_in_box([box], pts), want[i])
        # Points on faces are within rounding of the boundary, so only the 1e-9 offsets
        # and the cloud, well clear of the oracle's 1e-12 band, are compared with it.
        want = np.array([[oracles.point_in_box_reference(b, p) for p in off] for b in boxes[:-2]])
        assert np.array_equal(_unculled(boxes[:-2], off), want)
        assert np.array_equal(box_point_counts(boxes[:-2], off), want.sum(axis=1))

    def test_window_slack_keeps_rounded_corners(self):
        # The diagonal of this box lies along x. Rounding puts two of its corners just
        # beyond cx - r, with r the circumscribed radius, and `_inside` accepts them.
        box = Box3D(
            center=(5.1238409799613365, 28.39491473676398, -8.519984132201017),
            size=(4.275542607047636, 4.050317018883277, 1.0311727592115978),
            yaw=-0.7583534275655599,
        )
        corners = box3d_corners([box])[0]
        inside = _inside(box, corners)
        r = math.hypot(*box.size[:2]) / 2.0
        assert (inside & (corners[:, 0] < box.center[0] - r)).sum() == 2
        assert np.array_equal(points_in_box([box], corners), inside)
        assert np.array_equal(box_point_counts([box], corners), [inside.sum()])

    def test_single_points_equal_whole_cloud_rows(self):
        boxes, on, off = self._scene(7)
        pts = np.vstack([on, off[:200]])
        want = _unculled(boxes, pts).any(axis=0)
        assert [points_in_box(boxes, p)[0] for p in pts] == want.tolist()

    def test_empty_inputs(self):
        boxes, on, _ = self._scene(0)
        empty = np.zeros((0, 3))
        assert points_in_box(boxes, empty).shape == (0,)
        assert np.array_equal(box_point_counts(boxes, empty), np.zeros(len(boxes)))
        assert not points_in_box([], on).any() and len(points_in_box([], on)) == len(on)
        assert box_point_counts([], on).shape == box_point_counts([], empty).shape == (0,)
        far_only = [Box3D(center=(50.0, 50.0, 0.0), size=(1.0, 1.0, 1.0), yaw=0.0)]
        assert np.array_equal(box_point_counts(far_only, on), [0])


@st.composite
def membership_cases(draw):
    """(boxes, points): up to 5 boxes on a 1/8 m grid, near the origin or all about 4e5 m off
    it, with yaw 0 or any yaw; points on each box's 1/16 m local grid, inside, outside, on
    faces and on corners; a box with no candidates; points that share another point's x.

    At yaw 0 every step of `_inside` and of the oracle is exact, so face and corner points
    stay on the boundary. At any other yaw a boundary point is moved 1e-6 m in or out, and
    points within 1e-7 m of such a box's face planes are dropped: both rules round there.
    """
    offset = draw(st.sampled_from([0.0, 4e5]))
    eighths = lambda lo, hi: np.array([draw(st.integers(lo, hi)) for _ in range(3)]) / 8
    boxes, points = [], []
    for _ in range(draw(st.integers(0, 5))):
        center, size = offset + eighths(-40, 40), eighths(1, 40)
        yaw = draw(st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)))
        boxes.append(Box3D(center, tuple(size), yaw))
        half16 = (size * 8).astype(int)  # the half size in sixteenths
        for _ in range(draw(st.integers(0, 8))):
            m = np.array(
                [draw(st.sampled_from([-h, h]) | st.integers(-h - 16, h + 16)) for h in half16]
            )
            local = m / 16.0
            if yaw != 0.0:
                local += np.where(np.abs(m) == half16, draw(st.sampled_from([-1e-6, 1e-6])), 0.0)
            points.append(rotation_about_z(yaw) @ local + center)
    if draw(st.booleans()):
        boxes.append(Box3D((offset - 1e3, 1e3, 0.0), (2.0, 2.0, 2.0), draw(st.floats(-3, 3))))
    for _ in range(draw(st.integers(0, 6))):
        if points:
            x = points[draw(st.integers(0, len(points) - 1))][0]
            points.append(np.array([x, *(offset + eighths(-48, 48)[:2])]))
    rotated = [box for box in boxes if box.yaw != 0.0]
    points = [p for p in points if not any(_near_boundary(b, p, 1e-7) for b in rotated)]
    return boxes, np.array(points).reshape(-1, 3)


class TestMembershipOracle:
    @settings(max_examples=150, deadline=None)
    @given(membership_cases())
    def test_kernels_equal_the_halfspace_oracle(self, case):
        boxes, pts = case
        want = np.array(
            [[oracles.point_in_box_reference(box, p) for p in pts] for box in boxes], dtype=bool
        ).reshape(len(boxes), len(pts))
        assert np.array_equal(points_in_box(boxes, pts), want.any(axis=0))
        counts = box_point_counts(boxes, pts)
        assert counts.dtype == np.int64 and np.array_equal(counts, want.sum(axis=1))

    def test_blocks_bound_the_pair_arrays(self):
        # 2000 boxes share one x window with 20k points: 4e7 (box, point) pairs. The
        # blocks keep every pair array at most max(N, PAIR_BLOCK) long, so the peak
        # traced memory stays near a few such arrays, far below one B x N int64 array.
        rng = np.random.default_rng(22)
        n_boxes, n_points = 2000, 20_000
        boxes = [Box3D((0.0, 3.0 * k, 0.0), (1.0, 1.0, 1.0), 0.3) for k in range(n_boxes)]
        pts = np.column_stack(
            [rng.uniform(-0.4, 0.4, n_points), rng.uniform(-1, 3 * n_boxes, n_points),
             rng.uniform(-0.6, 0.6, n_points)]
        )
        tracemalloc.start()
        try:
            counts = box_point_counts(boxes, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = np.array([np.count_nonzero(_inside(box, pts)) for box in boxes])
        assert np.array_equal(counts, want) and want.sum() > 0
        block_bytes = 8 * max(n_points, PAIR_BLOCK)
        assert peak < 8 * block_bytes < 8 * n_boxes * n_points / 4


def _near_boundary(box, p, tol=1e-9):
    local = np.abs(rotation_about_z(box.yaw).T @ (np.asarray(p) - box.center))
    return bool(np.any(np.abs(local - box.half_size) < tol))


class TestBox2DProjection:
    def test_behind_camera_absent(self):
        cam = simple_camera()
        box = Box3D(center=(0, 0, -20), size=(2, 2, 2), yaw=0.0)
        assert project_box3d_to_box2d(cam, [box])[0] is None

    def test_centered_cube_symmetric(self):
        cam = simple_camera()
        box = Box3D(center=(0, 0, 10), size=(2, 2, 2), yaw=0.0)
        rect = project_box3d_to_box2d(cam, [box])[0]
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
            got = project_box3d_to_box2d(cam, [box])[0]
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


def _mixed_boxes(rng, n):
    """Boxes in front of the camera, across depth 0, wholly behind it and off-image, shuffled."""
    fixed = [
        Box3D(center=(0, 0, 10), size=(2, 2, 2), yaw=0.3),  # in front
        Box3D(center=(0, 0, 0.5), size=(2, 2, 3), yaw=0.0),  # corners at depth -1 and 2
        Box3D(center=(0, 0, -20), size=(2, 2, 2), yaw=1.0),  # behind
        Box3D(center=(100, 0, 10), size=(2, 2, 2), yaw=0.0),  # in front, off-image
    ]
    boxes = fixed + [
        Box3D(
            center=rng.uniform((-30, -30, -20), (30, 30, 40)),
            size=tuple(rng.uniform(0.5, 8, 3)),
            yaw=rng.uniform(-4, 4),
        )
        for _ in range(n)
    ]
    return [boxes[i] for i in rng.permutation(len(boxes))]


class TestBoxLists:
    """Each box function takes the box list; row k is the one-box call's bytes."""

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_equal_one_box_calls_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        cam = simple_camera(w=201, h=151, cx=100.0, cy=75.0)
        boxes = _mixed_boxes(rng, 60)
        corners = box3d_corners(boxes)
        uv, depth = box_corner_pixels(cam, boxes)
        rects, min_depth = visible_corner_rects(uv, depth)
        clipped = project_box3d_to_box2d(cam, boxes)
        assert clipped == clip_rects(cam, rects)
        assert corners.shape == (64, 8, 3) and uv.shape == (64, 8, 2) and rects.shape == (64, 4)
        front = (depth > 0).sum(axis=1)
        assert (front == 0).any() and (front == 8).any() and ((front > 0) & (front < 8)).any()
        assert any(r is None for r, n in zip(clipped, front) if n == 8)  # off-image
        for k, box in enumerate(boxes):
            # The per-box product, `local @ rot.T + center`, one box at a time.
            own = (_CORNER_SIGNS * box.half_size) @ rotation_about_z(box.yaw).T + box.center
            assert corners[k].tobytes() == box3d_corners([box])[0].tobytes() == own.tobytes()
            one_uv, one_depth = box_corner_pixels(cam, [box])
            assert uv[k].tobytes() == one_uv[0].tobytes()
            assert depth[k].tobytes() == one_depth[0].tobytes()
            one_rect, one_min = visible_corner_rects(one_uv, one_depth)
            assert rects[k].tobytes() == one_rect[0].tobytes()
            assert min_depth[k].tobytes() == one_min[0].tobytes()
            assert clipped[k] == project_box3d_to_box2d(cam, [box])[0]
            want = oracles.box2d_reference(cam, box)
            assert (clipped[k] is None) == (want is None)
            if want is not None:
                got = clipped[k]
                assert np.allclose(
                    (got.x1, got.y1, got.x2, got.y2), (want.x1, want.y1, want.x2, want.y2), atol=1e-9
                )

    def test_no_front_corner_gives_empty_inf_rectangle(self):
        cam = simple_camera()
        boxes = [Box3D(center=(0, 0, -20), size=(2, 2, 2), yaw=0.0), Box3D((0, 0, 10), (2, 2, 2), 0.0)]
        rects, min_depth = visible_corner_rects(*box_corner_pixels(cam, boxes))
        assert clip_rects(cam, rects)[0] is None
        assert rects[0].tolist() == [math.inf, math.inf, -math.inf, -math.inf]
        assert min_depth[0] == math.inf and min_depth[1] == 9.0
        assert np.isnan(box_corner_pixels(cam, boxes[:1])[0]).all()

    def test_empty_list(self):
        cam = simple_camera()
        uv, depth = box_corner_pixels(cam, [])
        rects, min_depth = visible_corner_rects(uv, depth)
        assert box3d_corners([]).shape == (0, 8, 3)
        assert uv.shape == (0, 8, 2) and depth.shape == (0, 8)
        assert rects.shape == (0, 4) and min_depth.shape == (0,)
        assert project_box3d_to_box2d(cam, []) == clip_rects(cam, rects) == []


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

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(size=(math.nan, 1, 1)), "size"),
            (dict(size=(1, 1, math.nan)), "size"),
            (dict(yaw=math.nan), "yaw"),
            (dict(yaw=math.inf), "yaw"),
            (dict(yaw=-math.inf), "yaw"),
        ],
    )
    def test_box_rejects_nan_size_and_non_finite_yaw(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            Box3D(**{"center": (0, 0, 0), "size": (1, 1, 1), "yaw": 0.0, **kwargs})

    def test_box_rejects_bad_visibility(self):
        with pytest.raises(ValueError, match="visibility"):
            Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0, visibility=5)

    def test_point_cloud_tag_check(self):
        pc = PointCloud(np.zeros((2, 3)), "frame-0")
        pc.require_tag("frame-0")
        with pytest.raises(ValueError, match="frame-1"):
            pc.require_tag("frame-1")

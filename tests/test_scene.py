import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgbev import oracles
from fgbev import scene as scene_module
from fgbev.geometry import (
    Box3D,
    box3d_corners,
    box_corner_pixels,
    box_point_counts,
    points_in_box,
    project_box3d_to_box2d,
    project_points_unbounded,
    rotation_about_z,
    yaw_rotations,
)
from fgbev.labels import DepthBinConfig, generate_hard_labels
from fgbev.selfcheck import level_camera
from fgbev.scene import (
    BACKGROUND_SEG_FLOOR,
    EGO_YAW_RATE,
    Frame,
    Scene,
    SceneConfig,
    _ray_box_entry_depths,
    _sample_frame_surface,
    background_feature_level,
    generate_scene,
    load_scene,
    save_scene,
    soft_labels_from_frame,
    synth_feature_pyramid,
)


def features(frame, channels, seed):
    """synth_feature_pyramid on the frame's 2D boxes in camera 0."""
    cam = frame.cameras[0]
    return synth_feature_pyramid(cam, project_box3d_to_box2d(cam, frame.boxes), channels, seed)


def soft_labels(frame, depth_cfg, noise, seed):
    """soft_labels_from_frame on camera 0, with the frame's boxes projected through it."""
    pixels = box_corner_pixels(frame.cameras[0], frame.boxes)
    return soft_labels_from_frame(frame, 0, pixels, depth_cfg, noise, seed)

SMALL = SceneConfig(
    n_frames=3,
    n_boxes=8,
    n_cameras=2,
    lidar_rays_per_box=16,
    clutter_points=48,
    stationary_fraction=0.6,
    image_width=256,
    image_height=128,
)


@pytest.fixture(scope="module")
def scene():
    return generate_scene(SMALL, seed=123)


def world_center(frame: Frame, box_index: int) -> np.ndarray:
    return frame.ego_pose.apply(frame.boxes[box_index].center)


class TestGenerateScene:
    def test_deterministic(self, scene):
        again = generate_scene(SMALL, seed=123)
        for f1, f2 in zip(scene.frames, again.frames):
            assert f1.timestamp == f2.timestamp
            assert np.array_equal(f1.lidar.points, f2.lidar.points)
            for b1, b2 in zip(f1.boxes, f2.boxes):
                assert np.array_equal(b1.center, b2.center)
                assert b1.yaw == b2.yaw and b1.visibility == b2.visibility

    def test_different_seeds_differ(self):
        a = generate_scene(SMALL, seed=1)
        b = generate_scene(SMALL, seed=2)
        assert not np.array_equal(a.current.lidar.points, b.current.lidar.points)

    def test_stationary_boxes_fixed_in_world(self, scene):
        for i, box in enumerate(scene.current.boxes):
            if not box.is_stationary:
                continue
            ref = world_center(scene.frames[0], i)
            for frame in scene.frames[1:]:
                assert np.allclose(world_center(frame, i), ref, atol=1e-9)

    def test_dynamic_boxes_advance_by_velocity(self, scene):
        dt = SMALL.frame_interval
        for i, box in enumerate(scene.current.boxes):
            if box.is_stationary:
                continue
            for fa, fb in zip(scene.frames, scene.frames[1:]):
                v_world = fa.ego_pose.rotation[:2, :2] @ fa.boxes[i].velocity
                delta = world_center(fb, i) - world_center(fa, i)
                assert np.allclose(delta[:2], v_world * dt, atol=1e-9)
                assert abs(delta[2]) < 1e-9

    def test_no_boxes_gives_clutter_only(self):
        cfg = SceneConfig(
            n_boxes=0, image_width=256, image_height=128, clutter_points=64
        )
        s = generate_scene(cfg, 5)
        assert len(s.current.boxes) == 0
        assert len(s.current.lidar) == 64

    def test_surface_points_inside_their_box(self, scene):
        for frame in scene.frames:
            n_surface = int(box_point_counts(frame.boxes, frame.lidar.points).sum())
            # Clutter is outside every box by construction, so box hits
            # account for exactly the surface samples.
            expected = sum(
                SMALL.lidar_rays_per_box for _ in frame.boxes
            )
            assert n_surface == expected

    def test_clutter_outside_all_boxes(self, scene):
        frame = scene.current
        clutter = frame.lidar.points[-SMALL.clutter_points :]
        assert not points_in_box(frame.boxes, clutter).any()

    def test_adjacent_points_land_in_current_stationary_box(self, scene):
        # The densification precondition: world-fixed geometry survives the
        # relative-pose transform into the current frame.
        current = scene.current
        to_current = current.ego_pose.inverse()
        for frame in scene.past:
            rel = to_current.compose(frame.ego_pose)
            for i, box in enumerate(current.boxes):
                if not box.is_stationary:
                    continue
                inside_adj = points_in_box([frame.boxes[i]], frame.lidar.points)
                moved = rel.apply(frame.lidar.points[inside_adj])
                assert points_in_box([box], moved).all()

    def test_dropout_empties_current_frame_only(self):
        cfg = SceneConfig(
            n_frames=2,
            n_boxes=6,
            dropout_fraction=1.0,
            stationary_fraction=1.0,
            lidar_rays_per_box=12,
            clutter_points=0,
            image_width=256,
            image_height=128,
        )
        s = generate_scene(cfg, 9)
        assert len(s.current.lidar) == 0
        assert len(s.frames[0].lidar) == 6 * 12

    def test_overlap_rejection_raises(self):
        cfg = SceneConfig(
            n_boxes=300,
            detection_range_xy=12.0,
            image_width=256,
            image_height=128,
        )
        with pytest.raises(ValueError, match="overlap"):
            generate_scene(cfg, 0)

    def test_timestamps_strictly_increase(self, scene):
        ts = [f.timestamp for f in scene.frames]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_visibility_in_declared_range(self, scene):
        assert {b.visibility for b in scene.current.boxes} <= {1, 2, 3, 4}


SURFACE_BOXES = {
    # name: (box, number of side faces that face the sensor at the ego origin)
    "one-face": (Box3D(center=(12.0, 0.0, 0.8), size=(4.2, 1.8, 1.6), yaw=0.0), 1),
    "two-faces": (Box3D(center=(9.0, -7.5, 0.8), size=(4.2, 1.8, 1.6), yaw=0.3), 2),
    "two-small-faces": (Box3D(center=(-3.0, 4.0, 0.4), size=(0.6, 0.5, 0.9), yaw=-2.1), 2),
    # The sensor sits in the box's xy footprint, so no side face faces it.
    "no-face": (Box3D(center=(0.5, -0.3, 0.8), size=(4.2, 1.8, 1.6), yaw=0.7), 0),
    # The sensor lies within an ulp of the +x face plane: rot.T @ (-center)
    # puts it just outside, so two faces face it, while np.einsum over the same
    # factors rounds it onto the plane (one face). This pins the sensor's bits.
    "on-a-face-plane": (
        Box3D(center=(26.5, -8.1, 0.8), size=(1.250292685213747, 4.0, 1.6), yaw=-1.89),
        2,
    ),
}


def record_placement(monkeypatch):
    """Patch generate_scene's placement to also append its world-frame arrays to a list."""
    placed, place = [], scene_module._place_boxes
    monkeypatch.setattr(
        scene_module, "_place_boxes", lambda *args: placed.append(place(*args)) or placed[-1]
    )
    return placed


@pytest.mark.parametrize("n_boxes", [0, 1, 30])
def test_box_poses_equal_per_box_transforms_bitwise(n_boxes, monkeypatch):
    placed = record_placement(monkeypatch)
    cfg = SceneConfig(n_frames=9, n_boxes=n_boxes, lidar_rays_per_box=2, clutter_points=4)
    scene = generate_scene(cfg, 21)
    (centers, _, _, velocities, _, _), t_cur = placed[0], scene.current.timestamp
    for frame in scene.frames:
        inv = frame.ego_pose.inverse()
        rot2 = rotation_about_z(-EGO_YAW_RATE * frame.timestamp)[:2, :2]
        assert len(frame.boxes) == n_boxes
        for center, velocity, box in zip(centers, velocities, frame.boxes):
            moved = center + np.append(velocity * (frame.timestamp - t_cur), 0.0)
            assert box.center.tobytes() == inv.apply(moved).tobytes()
            assert box.velocity.tobytes() == (rot2 @ velocity).tobytes()


def field_bytes(value):
    """A Box3D field as (type, bytes), so equal pairs mean the same type and bits."""
    if isinstance(value, np.ndarray):
        return type(value), value.dtype, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return type(value), tuple(field_bytes(v) for v in value)
    return type(value), float(value).hex()


BOX_ARRAY_SCENES = {
    "lib-large": dict(n_boxes=40, image_width=1408, image_height=512, n_frames=9),
    "3-cameras": dict(n_cameras=3, n_boxes=40, n_frames=3, dropout_fraction=0.5),
    "0-boxes": dict(n_boxes=0),
    "1-box": dict(n_boxes=1),
}


class TestBoxArrays:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name", sorted(BOX_ARRAY_SCENES))
    def test_frame_boxes_equal_per_box_builds(self, name, seed, monkeypatch):
        """Every frame's boxes equal the per-box `Box3D(...)` builds of the world boxes
        moved into that frame, byte for byte and type for type."""
        placed = record_placement(monkeypatch)
        scene = generate_scene(SceneConfig(**BOX_ARRAY_SCENES[name]), seed)
        # The world boxes as placement drew them: Python floats, ints and bools.
        c, s, yaws, v, ids, still = placed[0]
        scalars = zip(s.tolist(), yaws.tolist(), ids.tolist(), still.tolist())
        world = [
            Box3D(c[i], tuple(size), yaw, v[i], class_id, is_stationary=stationary)
            for i, (size, yaw, class_id, stationary) in enumerate(scalars)
        ]

        def per_box(frame, visibilities):
            inv = frame.ego_pose.inverse()
            ego_yaw = EGO_YAW_RATE * frame.timestamp
            rot2 = rotation_about_z(-ego_yaw)[:2, :2]
            dt = frame.timestamp - scene.current.timestamp
            return [
                Box3D(
                    inv.apply(w.center + np.append(w.velocity * dt, 0.0)), w.size,
                    w.yaw - ego_yaw, rot2 @ w.velocity, w.class_id, w.is_stationary, vis,
                )
                for w, vis in zip(world, visibilities)
            ]

        current = per_box(scene.current, [4] * len(world))
        seen = np.max(
            [
                cam.in_image(*box_corner_pixels(cam, current)[0].transpose(2, 0, 1)).sum(axis=1)
                for cam in scene.current.cameras
            ],
            axis=0,
        )
        visibilities = (1 + (seen >= 1) + (seen >= 4) + (seen >= 8)).tolist()
        for frame in scene.frames:
            assert len(frame.boxes) == len(world)
            for got, want in zip(frame.boxes, per_box(frame, visibilities)):
                for f in dataclasses.fields(Box3D):
                    assert field_bytes(getattr(got, f.name)) == field_bytes(getattr(want, f.name))
                assert type(got.is_stationary) is bool and type(got.class_id) is int
                assert type(got.visibility) is int and type(got.yaw) is float

    def test_no_per_box_check_runs(self, monkeypatch):
        calls, post_init = [], Box3D.__post_init__
        monkeypatch.setattr(Box3D, "__post_init__", lambda box: calls.append(box) or post_init(box))
        scene = generate_scene(SceneConfig(**BOX_ARRAY_SCENES["lib-large"]), 0)
        assert calls == [] and len(scene.current.boxes) == 40

    ROW_ERRORS = [
        ("centers", [0.0, math.nan, 0.0], "center must be finite"),
        ("velocities", [math.inf, 0.0], "velocity must be finite"),
        ("sizes", [1.0, math.nan, 1.0], "size components must be positive"),
        ("sizes", [1.0, 1.0, 0.0], "size components must be positive"),
        ("yaws", math.inf, "yaw must be finite"),
        ("yaws", math.nan, "yaw must be finite"),
        ("visibility", 5, "visibility must be in"),
    ]

    @pytest.mark.parametrize("field, value, message", ROW_ERRORS)
    def test_from_arrays_names_the_field_and_box(self, field, value, message):
        arrays = {
            "centers": np.zeros((4, 3)),
            "sizes": np.ones((4, 3)),
            "yaws": np.zeros(4),
            "velocities": np.zeros((4, 2)),
            "class_ids": np.zeros(4, np.int64),
            "stationary": np.zeros(4, bool),
            "visibility": np.full(4, 4),
        }
        assert len(Box3D.from_arrays(**arrays)) == 4
        arrays[field][2] = arrays[field][3] = value
        with pytest.raises(ValueError, match=re.escape(f"box 2: {message}")) as caught:
            Box3D.from_arrays(**arrays)
        # The message after the index is the one `Box3D(...)` gives for that row.
        row = [arrays[k][2] for k in arrays]
        row[1] = tuple(row[1].tolist())
        with pytest.raises(ValueError) as single:
            Box3D(*row)
        assert str(caught.value) == f"box 2: {single.value}"


class RecordingRng:
    """A Generator that records the name of each method it is asked for."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


def sample_boxes(rng, boxes, dropped, n):
    """`_sample_frame_surface` on the arrays of a box list."""
    centers = np.array([box.center for box in boxes]).reshape(-1, 3)
    sizes = np.array([box.size for box in boxes]).reshape(-1, 3)
    return _sample_frame_surface(
        rng, centers, sizes, yaw_rotations([box.yaw for box in boxes]), dropped, n
    )


class TestSurfaceSamplingOracle:
    @pytest.mark.parametrize("name", sorted(SURFACE_BOXES))
    def test_box_has_the_named_face_count(self, name):
        box, n_faces = SURFACE_BOXES[name]
        sensor_bf = rotation_about_z(box.yaw).T @ (-box.center)
        assert len(oracles.facing_side_faces(sensor_bf, box.half_size)) == n_faces

    @pytest.mark.parametrize("n", [0, 1, 33])
    @pytest.mark.parametrize("name", sorted(SURFACE_BOXES))
    def test_same_points_and_rng_state_as_loop(self, name, n):
        box, n_faces = SURFACE_BOXES[name]
        fast_rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        fast = sample_boxes(fast_rng, [box], np.zeros(1, bool), n)
        ref = oracles.surface_points_reference(ref_rng, box, n)
        assert fast.shape == ref.shape == ((n if n_faces else 0), 3)
        assert np.array_equal(fast, ref)
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n", [0, 1, 33])
    @pytest.mark.parametrize("n_boxes", [0, 9])
    def test_frame_matches_per_box_loop_with_one_draw(self, n_boxes, n):
        # Boxes with 0, 1 and 2 facing faces, each once kept and once dropped,
        # interleaved, plus a kept two-face box at the end.
        names = ["one-face", "no-face", "two-faces", "two-small-faces"]
        boxes = [SURFACE_BOXES[name][0] for name in names + names + ["two-faces"]][:n_boxes]
        dropped = np.array([False] * 4 + [True] * 4 + [False])[:n_boxes]
        fast_rng, ref_rng = RecordingRng(11), np.random.default_rng(11)
        fast = sample_boxes(fast_rng, boxes, dropped, n)
        ref = [
            oracles.surface_points_reference(ref_rng, box, n)
            for box, drop in zip(boxes, dropped)
            if not drop
        ]
        ref = np.concatenate(ref + [np.zeros((0, 3))])
        assert fast.shape == ref.shape == ((4 * n if n_boxes else 0), 3)
        assert np.array_equal(fast, ref)
        assert fast_rng.rng.bit_generator.state == ref_rng.bit_generator.state
        assert fast_rng.calls == (["random"] if n and n_boxes else [])


class TestBackgroundLevelOracle:
    @pytest.mark.parametrize("channels", [1, 8, 32])
    @pytest.mark.parametrize("width,height,stride", [(256, 128, 4), (704, 256, 8), (1408, 512, 16)])
    def test_matches_per_channel_loop(self, width, height, stride, channels):
        fast = background_feature_level(width, height, stride, channels)
        ref = oracles.background_level_reference(width, height, stride, channels)
        assert fast.shape == ref.shape == (height // stride, width // stride, channels)
        assert np.array_equal(fast, ref)


class TestSceneValidation:
    def test_single_frame_rejected(self, scene):
        with pytest.raises(ValueError, match="at least 2"):
            Scene([scene.current], seed=0)

    def test_nonmonotonic_timestamps_rejected(self, scene):
        with pytest.raises(ValueError, match="strictly increase"):
            Scene([scene.frames[1], scene.frames[0]], seed=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_frames=1),
            dict(frame_interval=0.0),
            dict(stationary_fraction=1.5),
            dict(dropout_fraction=-0.1),
            dict(detection_range_xy=0.0),
            dict(n_frames=1001),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            SceneConfig(**kwargs)


class TestFeaturePyramid:
    def test_shapes_and_strides(self, scene):
        pyr = features(scene.current, 6, seed=1)
        h, w = SMALL.image_height, SMALL.image_width
        assert pyr.f4.shape == (h // 4, w // 4, 6)
        assert pyr.f8.shape == (h // 8, w // 8, 6)
        assert pyr.f16.shape == (h // 16, w // 16, 6)

    def test_bitwise_deterministic(self, scene):
        a = features(scene.current, 4, seed=5)
        b = features(scene.current, 4, seed=5)
        assert np.array_equal(a.f4, b.f4)
        assert np.array_equal(a.f8, b.f8)
        assert np.array_equal(a.f16, b.f16)

    def test_empty_frame_equals_background(self):
        cfg = SceneConfig(n_boxes=0, image_width=256, image_height=128)
        s = generate_scene(cfg, 3)
        pyr = features(s.current, 5, seed=7)
        for stride, level in ((4, pyr.f4), (8, pyr.f8), (16, pyr.f16)):
            assert np.array_equal(
                level, background_feature_level(256, 128, stride, 5)
            )

    def test_boxes_elevate_foreground(self, scene):
        pyr = features(scene.current, 4, seed=2)
        bg = background_feature_level(SMALL.image_width, SMALL.image_height, 4, 4)
        assert np.abs(pyr.f4).max() > np.abs(bg).max()

    def test_indivisible_image_rejected(self):
        from fgbev.geometry import CameraModel, RigidTransform

        cam = CameraModel(100, 100, 50, 50, RigidTransform.identity(), 250, 130)
        with pytest.raises(ValueError, match="divisible"):
            synth_feature_pyramid(cam, [], 4, seed=0)


class TestSoftLabels:
    def test_distributions_normalized_any_noise(self, scene):
        for noise in (0.0, 0.2, 0.8):
            depth, seg, _ = soft_labels(scene.current, DepthBinConfig(), noise, seed=11)
            assert np.allclose(depth.values.sum(axis=2), 1.0, atol=1e-6)
            assert seg.values.min() >= 0.0 and seg.values.max() <= 1.0

    def test_noise_zero_matches_measured_bins(self, scene):
        cfg = DepthBinConfig()
        frame = scene.current
        depth, seg, hard = soft_labels(frame, cfg, 0.0, seed=0)
        # The hard labels handed back are the frame's own, which the pipeline reuses.
        want = generate_hard_labels(frame.lidar, frame.boxes, frame.cameras[0], cfg, 16)
        assert np.array_equal(hard.bins, want.bins)
        assert np.array_equal(hard.foreground, want.foreground)
        fg = hard.foreground
        assert fg.any()
        assert np.array_equal(depth.values[fg].argmax(axis=1), hard.bins[fg])
        assert (seg.values[fg] == 1.0).all()

    def test_empty_frame_is_floor(self):
        cfg = SceneConfig(n_boxes=0, clutter_points=0, image_width=256, image_height=128)
        s = generate_scene(cfg, 2)
        depth, seg, _ = soft_labels(s.current, DepthBinConfig(), 0.0, seed=0)
        assert (seg.values == BACKGROUND_SEG_FLOOR).all()
        assert np.allclose(depth.values, 1.0 / DepthBinConfig().n_bins)

    def test_deterministic_given_seed(self, scene):
        a = soft_labels(scene.current, DepthBinConfig(), 0.3, seed=4)
        b = soft_labels(scene.current, DepthBinConfig(), 0.3, seed=4)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].values, b[1].values)

    def test_negative_noise_rejected(self, scene):
        with pytest.raises(ValueError, match="noise"):
            soft_labels(scene.current, DepthBinConfig(), -0.1, seed=0)


class TestRayEntryDepths:
    """The culled ray caster against the unculled scalar oracle, bit for bit with inf."""

    def _check(self, cam, boxes, stride=8):
        h_f, w_f = cam.feature_grid_shape(stride)
        got = _ray_box_entry_depths(cam, boxes, box_corner_pixels(cam, boxes), h_f, w_f, stride)
        want = oracles.ray_entry_depth_reference(cam, boxes, h_f, w_f, stride)
        assert np.array_equal(got, want)
        return want

    @staticmethod
    def _corner_depths(cam, box):
        return project_points_unbounded(cam, box3d_corners([box])[0])[1]

    def test_rectangle_edges_on_cell_centers(self):
        cam = level_camera(0.0, (0.0, 0.0, 0.0), 64.0, 64.0, 128, 64)
        # The near face is at x = 16 and its corners project exactly to u in {44, 84}
        # and v in {12, 52}: the centers of columns 5 and 10 and of rows 1 and 6. The
        # rays through those centers graze the box's edges at depth 16.
        box = Box3D(center=(24.0, -0.125, -0.125), size=(16.0, 10.0, 10.0), yaw=0.0)
        want = self._check(cam, [box])
        assert (want[1:7, 5:11] == 16.0).all()
        assert np.isinf(want[:, [4, 11]]).all() and np.isinf(want[[0, 7]]).all()
        # A nearer box in front of part of it, and a farther one behind it.
        near = Box3D(center=(12.0, 1.0, 1.0), size=(2.0, 2.0, 2.0), yaw=0.2)
        far = Box3D(center=(40.0, 0.0, 0.0), size=(4.0, 200.0, 200.0), yaw=0.0)
        both = self._check(cam, [far, box, near])
        assert both.min() < 16.0 and (both[np.isfinite(want)] <= 16.0).all()
        assert (both[np.isinf(want)] == 38.0).all()

    def test_behind_across_and_off_image(self):
        cam = level_camera(0.0, (0.0, 0.0, 0.0), 16.0, 16.0, 128, 128)
        behind = Box3D(center=(-6.0, 0.0, 0.0), size=(4.0, 4.0, 4.0), yaw=0.3)
        across = Box3D(center=(0.5, 0.0, 2.0), size=(3.0, 20.0, 2.0), yaw=0.0)
        off_image = Box3D(center=(20.0, 200.0, 0.0), size=(2.0, 2.0, 2.0), yaw=0.0)
        assert (self._corner_depths(cam, behind) <= 0).all()
        assert (self._corner_depths(cam, off_image) > 0).all()
        d = self._corner_depths(cam, across)
        assert (d > 0).any() and (d <= 0).any()
        assert np.isinf(self._check(cam, [behind])).all()
        assert np.isinf(self._check(cam, [off_image])).all()
        want = self._check(cam, [across])
        # Row 0's rays meet the bottom face just ahead of the camera, far outside
        # the rectangle of the corners in front of it (v from 39.5 to 55.5).
        assert np.isfinite(want[0]).any()
        assert np.array_equal(self._check(cam, [behind, across, off_image]), want)

    def test_projection_must_match_the_boxes(self, scene):
        frame = scene.current
        cam = frame.cameras[0]
        pixels = box_corner_pixels(cam, frame.boxes)
        fewer = (pixels[0][1:], pixels[1][1:])
        for given, boxes in ((fewer, frame.boxes), (pixels, frame.boxes[1:])):
            with pytest.raises(ValueError):
                _ray_box_entry_depths(cam, boxes, given, 8, 16, 16)
        with pytest.raises(ValueError):
            soft_labels_from_frame(frame, 0, fewer, DepthBinConfig(), 0.0, seed=0)

    @pytest.mark.parametrize("seed", range(3))
    def test_generated_scenes(self, seed):
        cfg = SceneConfig(n_boxes=30, n_cameras=2, detection_range_xy=30.0,
                          image_width=256, image_height=128)
        frame = generate_scene(cfg, seed).current
        for cam in frame.cameras:
            for stride in (8, 16):
                assert np.isfinite(self._check(cam, frame.boxes, stride)).any()


class TestSceneSerialization:
    def test_roundtrip_exact(self, scene, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        loaded = load_scene(path)
        assert loaded.seed == scene.seed
        for f1, f2 in zip(scene.frames, loaded.frames):
            assert f1.timestamp == f2.timestamp
            assert np.array_equal(f1.lidar.points, f2.lidar.points)
            assert f1.lidar.frame_tag == f2.lidar.frame_tag
            assert np.array_equal(f1.ego_pose.rotation, f2.ego_pose.rotation)
            for b1, b2 in zip(f1.boxes, f2.boxes):
                assert np.array_equal(b1.center, b2.center)
                assert b1.size == b2.size and b1.yaw == b2.yaw
                assert b1.is_stationary == b2.is_stationary
            for c1, c2 in zip(f1.cameras, f2.cameras):
                assert c1.fx == c2.fx and c1.image_width == c2.image_width
                assert np.array_equal(c1.ego_to_cam.rotation, c2.ego_to_cam.rotation)

    def test_missing_field_named_in_error(self, scene, tmp_path):
        path = _edited_scene_file(scene, tmp_path, lambda d: d["frames"][0].pop("ego_pose"))
        with pytest.raises(ValueError, match=r"missing field frames\[0\]\.ego_pose"):
            load_scene(path)

    def test_wrong_format_rejected(self, scene, tmp_path):
        path = _edited_scene_file(scene, tmp_path, lambda d: d.update(format="something-else"))
        with pytest.raises(ValueError, match="format"):
            load_scene(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, "1.5", True, None, {}, 10**400])
    def test_array_entry_must_be_a_finite_number(self, scene, tmp_path, value):
        def edit(data):
            data["frames"][0]["lidar"]["points"][3][1] = value

        path = _edited_scene_file(scene, tmp_path, edit)
        with pytest.raises(ValueError, match=r"frames\[0\]\.lidar\.points\[3\]\[1\]"):
            load_scene(path)

    def test_integer_array_entries_are_numbers(self, scene, tmp_path):
        def edit(data):
            data["frames"][0]["lidar"]["points"][3] = [1, -2, 3]

        loaded = load_scene(_edited_scene_file(scene, tmp_path, edit))
        assert loaded.frames[0].lidar.points[3].tolist() == [1.0, -2.0, 3.0]

    def test_ragged_array_names_its_object(self, scene, tmp_path):
        def edit(data):
            data["frames"][1]["lidar"]["points"][0].pop()

        path = _edited_scene_file(scene, tmp_path, edit)
        with pytest.raises(ValueError, match=r"frames\[1\]\.lidar"):
            load_scene(path)


def _edited_scene_file(scene, tmp_path, edit):
    """scene saved to a file whose JSON edit(data) then changed in place."""
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


FUZZ_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 300),
        st.sampled_from([2**64, -(2**70), 10**400, -(10**400)]),
        st.sampled_from([1e308, -1e308, math.nan, math.inf, -math.inf, 0.5, 704.0]),
        st.floats(),
        st.text(max_size=3),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.sampled_from(["wobble", "yaw"]), children),
    ),
    max_leaves=12,
)


def _objects(data, path=""):
    """(path, object) for every JSON object in data, with paths as scene errors write them."""
    if isinstance(data, dict):
        yield path, data
        for key, value in data.items():
            yield from _objects(value, f"{path}.{key}" if path else key)
    elif isinstance(data, list):
        for i, value in enumerate(data):
            yield from _objects(value, f"{path}[{i}]")


@pytest.fixture(scope="module")
def fuzz_scene(tmp_path_factory):
    cfg = SceneConfig(
        n_boxes=3,
        n_cameras=2,
        lidar_rays_per_box=2,
        clutter_points=4,
        image_width=256,
        image_height=128,
    )
    path = tmp_path_factory.mktemp("fuzz") / "scene.json"
    save_scene(generate_scene(cfg, seed=5), path)
    return path


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_scene_builds_or_names_the_edit(fuzz_scene, data):
    """Delete, replace or add one key of one object at any depth of a valid scene file."""
    doc = json.loads(fuzz_scene.read_text())
    objects = list(_objects(doc))
    where, obj = data.draw(st.sampled_from(objects), label="object")
    names = sorted({key for _, o in objects for key in o}) + ["wobble"]
    key = data.draw(st.sampled_from(names), label="key")
    if key in obj and data.draw(st.booleans(), label="delete"):
        del obj[key]
    else:
        obj[key] = data.draw(FUZZ_VALUES, label="value")
    bad = fuzz_scene.with_name("edited.json")
    bad.write_text(json.dumps(doc))
    try:
        loaded = load_scene(bad)
    except ValueError as exc:
        # The message names the edited key, or the object that holds it.
        assert key in str(exc) or (where and where in str(exc)), str(exc)
    else:
        assert isinstance(loaded, Scene)

import math
from dataclasses import replace

import numpy as np
import pytest

from fgbev import oracles
from fgbev.geometry import (
    Box3D,
    CameraModel,
    PointCloud,
    RigidTransform,
    box_corner_pixels,
    box_point_counts,
    points_in_box,
    visible_corner_rects,
)
from fgbev.labels import (
    DepthBinConfig,
    HardLabels,
    generate_hard_labels,
)
from fgbev.pci import (
    VISIBILITY_GATE,
    PciReport,
    PseudoPoint,
    frame_combination,
    inject_pseudo_points,
    pci_statistics,
    pseudo_point_assignment,
)
from fgbev.scene import Frame, SceneConfig, generate_scene


def assign(counts, boxes, cam, depth_range):
    """pseudo_point_assignment on the boxes' own projection in cam."""
    rects, near = visible_corner_rects(*box_corner_pixels(cam, boxes))
    return pseudo_point_assignment(counts, boxes, rects, near, cam, depth_range)

SMALL_DROPOUT = SceneConfig(
    n_frames=3,
    n_boxes=8,
    lidar_rays_per_box=10,
    dropout_fraction=0.5,
    stationary_fraction=0.8,
    image_width=256,
    image_height=128,
)


def make_frame(tag, ego_pose, boxes, points, timestamp=0.0):
    return Frame(
        timestamp=timestamp,
        ego_pose=ego_pose,
        boxes=boxes,
        lidar=PointCloud(np.asarray(points, dtype=float).reshape(-1, 3), tag),
        cameras=[],
    )


def no_points(boxes):
    """Per-box counts of an empty cloud."""
    return np.zeros(len(boxes), dtype=np.int64)


def ppa_camera():
    # Chosen so the reference box below projects to the rectangle
    # (100, 50, 140, 90) with nearest-corner depth 22.5.
    return CameraModel(100.0, 100.0, 120.0, 70.0, RigidTransform.identity(), 256, 256)


def ppa_box(**overrides):
    kwargs = dict(center=(0.0, 0.0, 27.0), size=(9.0, 9.0, 9.0), yaw=0.0, visibility=4)
    kwargs.update(overrides)
    return Box3D(**kwargs)


class TestFrameCombination:
    def setup_method(self):
        self.stationary = Box3D(
            center=(10, 0, 1), size=(4, 4, 2), yaw=0.0, is_stationary=True
        )
        self.dynamic = Box3D(
            center=(20, 5, 1), size=(4, 4, 2), yaw=0.0, is_stationary=False
        )
        self.current = make_frame(
            "frame-1",
            RigidTransform.identity(),
            [self.stationary, self.dynamic],
            [[10.0, 0.0, 1.0]],
            timestamp=0.5,
        )

    def adjacent_with_world_points(self, world_points):
        pose = RigidTransform.from_yaw(0.2, (-3.0, 0.4, 0.0))
        pts = pose.inverse().apply(np.asarray(world_points, dtype=float))
        return make_frame("frame-0", pose, [], pts, timestamp=0.0)

    def test_no_adjacent_frames_identity(self):
        out = frame_combination(self.current, [])
        assert out.points.tobytes() == self.current.lidar.points.tobytes()
        assert out.frame_tag == self.current.tag

    def test_stationary_points_combined(self):
        adj = self.adjacent_with_world_points([[10.5, 0.5, 1.2]])
        out = frame_combination(self.current, [adj])
        assert len(out) == 2
        assert np.allclose(out.points[1], (10.5, 0.5, 1.2), atol=1e-9)

    def test_dynamic_box_points_excluded(self):
        adj = self.adjacent_with_world_points([[20.0, 5.0, 1.0]])
        out = frame_combination(self.current, [adj])
        assert len(out) == 1

    def test_clutter_excluded(self):
        adj = self.adjacent_with_world_points([[0.0, -8.0, 0.1]])
        out = frame_combination(self.current, [adj])
        assert len(out) == 1

    def test_current_frame_in_adjacent_list_rejected(self):
        adj = self.adjacent_with_world_points([[10.5, 0.5, 1.2]])
        for adjacent in ([self.current], [adj, self.current]):
            with pytest.raises(ValueError, match="current frame's tag"):
                frame_combination(self.current, adjacent)

    def test_all_dynamic_adds_nothing(self):
        current = make_frame(
            "frame-1", RigidTransform.identity(), [self.dynamic], [[20.0, 5.0, 1.0]]
        )
        adj = self.adjacent_with_world_points([[20.0, 5.0, 1.0], [10.0, 0.0, 1.0]])
        out = frame_combination(current, [adj])
        assert len(out) == 1

    def test_counts_match_bruteforce_on_scene(self):
        cfg = SceneConfig(
            n_frames=3,
            n_boxes=6,
            lidar_rays_per_box=12,
            clutter_points=40,
            stationary_fraction=0.7,
            image_width=256,
            image_height=128,
        )
        scene = generate_scene(cfg, 77)
        combined = frame_combination(scene.current, scene.past)
        got = box_point_counts(scene.current.boxes, combined.points)
        assert got.tolist() == oracles.fc_counts_reference(scene.current, scene.past)

    def test_monotonicity_per_box(self):
        cfg = SceneConfig(
            n_frames=3,
            n_boxes=8,
            lidar_rays_per_box=10,
            dropout_fraction=0.5,
            stationary_fraction=0.8,
            image_width=256,
            image_height=128,
        )
        for seed in range(5):
            scene = generate_scene(cfg, seed)
            combined = frame_combination(scene.current, scene.past)
            before = box_point_counts(scene.current.boxes, scene.current.lidar.points)
            after = box_point_counts(scene.current.boxes, combined.points)
            assert (after >= before).all()


def per_frame_combination(current, adjacent):
    """frame_combination as one points_in_box pass per adjacent frame."""
    stationary = [b for b in current.boxes if b.is_stationary]
    merged = [current.lidar.points]
    to_current = current.ego_pose.inverse()
    for frame in adjacent:
        moved = to_current.compose(frame.ego_pose).apply(frame.lidar.points)
        merged.append(moved[points_in_box(stationary, moved)])
    return np.concatenate(merged)


class TestOneMembershipPass:
    def test_equals_per_frame_loop_bitwise(self):
        grown = 0
        for seed in range(20):
            cfg = SceneConfig(
                n_frames=2 + seed % 8,
                n_boxes=10,
                lidar_rays_per_box=8,
                clutter_points=30,
                dropout_fraction=0.5,
                image_width=256,
                image_height=128,
            )
            scene = generate_scene(cfg, seed)
            got = frame_combination(scene.current, scene.past)
            want = per_frame_combination(scene.current, scene.past)
            assert got.points.tobytes() == want.tobytes()
            assert got.frame_tag == scene.current.tag
            grown += len(got) > len(scene.current.lidar)
        assert grown >= 15  # the scenes do carry returns over

    def test_empty_adjacent_cloud_and_no_stationary_boxes(self):
        scene = generate_scene(SMALL_DROPOUT, 5)
        first, second = scene.past
        empty = make_frame(first.tag, first.ego_pose, first.boxes, np.zeros((0, 3)))
        out = frame_combination(scene.current, [empty, second])
        assert out.points.tobytes() == per_frame_combination(scene.current, [empty, second]).tobytes()
        dynamic = [replace(b, is_stationary=False) for b in scene.current.boxes]
        current = make_frame(scene.current.tag, scene.current.ego_pose, dynamic, scene.current.lidar.points)
        out = frame_combination(current, scene.past)
        assert out.points.tobytes() == scene.current.lidar.points.tobytes()


class TestPseudoPointAssignment:
    def test_reference_arithmetic(self):
        got = assign([0], [ppa_box()], ppa_camera(), (1.0, 60.0))
        assert len(got) == 1
        p = got[0]
        assert (p.u, p.v, p.depth) == (120.0, 70.0, 22.5)
        assert p.source_box == 0

    def test_low_visibility_gate(self):
        got = assign([0], [ppa_box(visibility=2)], ppa_camera(), (1.0, 60.0))
        assert got == []

    def test_box_with_real_point_skipped(self):
        got = assign([1], [ppa_box()], ppa_camera(), (1.0, 60.0))
        assert got == []

    def test_depth_range_gate(self):
        got = assign([0], [ppa_box()], ppa_camera(), (30.0, 60.0))
        assert got == []

    def test_behind_camera_skipped(self):
        box = ppa_box(center=(0.0, 0.0, -27.0))
        got = assign([0], [box], ppa_camera(), (1.0, 60.0))
        assert got == []

    def test_behind_camera_skipped_with_unbounded_depth_range(self):
        # Its rectangle is (+inf, +inf, -inf, -inf) with depth +inf, which passes the
        # depth gate; the NaN center fails the image test.
        boxes = [ppa_box(center=(0.0, 0.0, -27.0)), ppa_box()]
        got = assign(no_points(boxes), boxes, ppa_camera(), (0.1, math.inf))
        assert [p.source_box for p in got] == [1]

    def test_off_image_center_skipped(self):
        box = ppa_box(center=(-35.0, 0.0, 25.0))
        got = assign([0], [box], ppa_camera(), (1.0, 60.0))
        assert got == []

    def test_at_most_one_point_per_box(self):
        boxes = [ppa_box(), ppa_box(center=(20.0, 0.0, 40.0))]
        got = assign(no_points(boxes), boxes, ppa_camera(), (1.0, 60.0))
        assert len(got) == len({p.source_box for p in got})

    def test_matches_corner_oracle_on_random_boxes(self):
        rng = np.random.default_rng(0)
        cam = ppa_camera()
        emitted = 0
        for _ in range(300):
            box = Box3D(
                center=rng.uniform((-10, -10, 5), (10, 10, 50)),
                size=tuple(rng.uniform(0.5, 6, 3)),
                yaw=rng.uniform(-3, 3),
                visibility=4,
            )
            got = assign([0], [box], cam, (0.5, 100.0))
            if not got:
                continue
            emitted += 1
            want = oracles.pseudo_point_reference(cam, box)
            for have, ref in zip((got[0].u, got[0].v, got[0].depth), want):
                assert abs(have - ref) <= 1e-12 * max(1.0, abs(ref))
        assert emitted > 100

    def test_box_list_equals_one_box_calls(self):
        # Boxes ahead, across depth 0 and behind, gated and not, in one list.
        rng = np.random.default_rng(1)
        cam = ppa_camera()
        boxes = [
            Box3D(
                center=rng.uniform((-10, -10, -10), (10, 10, 50)),
                size=tuple(rng.uniform(0.5, 6, 3)),
                yaw=rng.uniform(-3, 3),
                visibility=int(rng.integers(1, 5)),
            )
            for _ in range(200)
        ]
        got = assign(no_points(boxes), boxes, cam, (0.5, math.inf))
        want = []
        for i, box in enumerate(boxes):
            want += [
                PseudoPoint(p.u, p.v, p.depth, i)
                for p in assign([0], [box], cam, (0.5, math.inf))
            ]
        assert got == want and len(got) > 50


def densified_report(scene, cam, depth_range, fc_enabled=True, ppa_enabled=True):
    """Run frame combination and pseudo points as the pipeline does, then count."""
    current = scene.current
    before = box_point_counts(current.boxes, current.lidar.points)
    after = before
    if fc_enabled:
        after = box_point_counts(current.boxes, frame_combination(current, scene.past).points)
    pseudo = assign(after, current.boxes, cam, depth_range) if ppa_enabled else []
    return pci_statistics(before, after, pseudo)


class TestPciStatistics:
    def test_well_covered_scene_all_zero(self):
        cfg = SceneConfig(
            n_frames=2,
            n_boxes=8,
            lidar_rays_per_box=24,
            dropout_fraction=0.0,
            image_width=256,
            image_height=128,
        )
        scene = generate_scene(cfg, 3)
        report = densified_report(scene, scene.current.cameras[0], (1.0, 60.0))
        assert report.boxes_without_points_before == 0
        assert report.boxes_without_points_after_fc == 0
        assert report.boxes_assigned_pseudo == 0
        assert report.boxes_unrecoverable == 0

    def test_dropout_recovered_by_combination(self):
        cfg = SceneConfig(
            n_frames=3,
            n_boxes=8,
            lidar_rays_per_box=16,
            dropout_fraction=1.0,
            stationary_fraction=1.0,
            image_width=256,
            image_height=128,
        )
        scene = generate_scene(cfg, 21)
        report = densified_report(scene, scene.current.cameras[0], (1.0, 60.0))
        assert report.boxes_without_points_before == 8
        assert report.boxes_without_points_after_fc < report.boxes_without_points_before

    def test_bookkeeping_identity_across_seeds(self):
        cfg = SceneConfig(
            n_frames=2,
            n_boxes=10,
            lidar_rays_per_box=8,
            dropout_fraction=0.4,
            image_width=256,
            image_height=128,
        )
        for seed in range(10):
            scene = generate_scene(cfg, seed)
            report = densified_report(scene, scene.current.cameras[0], (1.0, 60.0))
            assert (
                report.boxes_assigned_pseudo + report.boxes_unrecoverable
                == report.boxes_without_points_after_fc
            )
            assert report.boxes_without_points_after_fc <= report.boxes_without_points_before

    def test_each_cloud_counted_once(self, monkeypatch):
        # The pipeline counts the current cloud once in prepare and, once per sweep, only the
        # points frame combination adds; pseudo points and every report read those counts.
        import fgbev.pipeline as pipeline

        counted = []
        real = pipeline.box_point_counts
        monkeypatch.setattr(
            pipeline, "box_point_counts", lambda boxes, p: counted.append(len(p)) or real(boxes, p)
        )
        cfg = pipeline.PipelineConfig(
            scene=SceneConfig(n_frames=3, n_boxes=10, dropout_fraction=0.5, image_width=256,
                              image_height=128),
            seed=5,
        )
        scene = generate_scene(cfg.scene, cfg.seed)
        current = scene.current
        kept = len(frame_combination(current, scene.past)) - len(current.lidar)
        rows = pipeline.ablation_sweep(cfg, ["fc", "ppa"])
        assert counted == [len(current.lidar), kept] and kept > 0
        off = rows[0]["pci_report"]
        assert off["boxes_without_points_after_fc"] == off["boxes_without_points_before"] > 0
        counted.clear()
        pipeline.run_pipeline(replace(cfg, fc_enabled=False))
        assert counted == [len(current.lidar)]

    def test_flags_reflected_in_report(self):
        cfg = SceneConfig(
            n_frames=3,
            n_boxes=8,
            lidar_rays_per_box=16,
            dropout_fraction=1.0,
            stationary_fraction=1.0,
            image_width=256,
            image_height=128,
        )
        scene = generate_scene(cfg, 21)
        cam = scene.current.cameras[0]
        off = densified_report(scene, cam, (1.0, 60.0), fc_enabled=False)
        on = densified_report(scene, cam, (1.0, 60.0), fc_enabled=True)
        assert off.boxes_without_points_after_fc == off.boxes_without_points_before
        assert on.boxes_without_points_after_fc < off.boxes_without_points_after_fc
        no_ppa = densified_report(scene, cam, (1.0, 60.0), ppa_enabled=False)
        assert no_ppa.boxes_assigned_pseudo == 0

    def test_report_invariants_enforced(self):
        with pytest.raises(ValueError, match="cannot increase"):
            PciReport(5, 1, 2, 1, 1)
        with pytest.raises(ValueError, match="must equal"):
            PciReport(5, 3, 2, 1, 2)


def recounting_pci_statistics(current, combined, pseudo):
    """pci_statistics as it was: it recounted the current and the combined cloud."""
    before = int((box_point_counts(current.boxes, current.lidar.points) == 0).sum())
    if combined is current.lidar:
        after_fc = before
    else:
        after_fc = int((box_point_counts(current.boxes, combined.points) == 0).sum())
    return PciReport(len(current.boxes), before, after_fc, len(pseudo), after_fc - len(pseudo))


def recounting_pseudo_point_assignment(combined, boxes, cam, depth_range):
    """pseudo_point_assignment as it was: it counted the gated boxes' members in the cloud."""
    lo, hi = depth_range
    gated = [i for i, box in enumerate(boxes) if box.visibility in VISIBILITY_GATE]
    counts = box_point_counts([boxes[i] for i in gated], combined.points)
    empty = [i for i, n in zip(gated, counts) if not n]
    rects, depths = visible_corner_rects(*box_corner_pixels(cam, [boxes[i] for i in empty]))
    out = []
    for i, (x1, y1, x2, y2), d_corner in zip(empty, rects.tolist(), depths.tolist()):
        u, v = (x1 + x2) / 2.0, (y1 + y2) / 2.0
        if lo <= d_corner <= hi and cam.in_image(u, v):
            out.append(PseudoPoint(u=u, v=v, depth=d_corner, source_box=i))
    return out


def test_counts_equal_the_cloud_recount():
    """The count-based pseudo points and report equal the versions that recounted clouds."""
    assigned = rescued = 0
    for seed in range(20):
        scene = generate_scene(SMALL_DROPOUT, seed)
        current = scene.current
        cam = current.cameras[0]
        before = box_point_counts(current.boxes, current.lidar.points)
        for fc_enabled in (False, True):
            combined = frame_combination(current, scene.past) if fc_enabled else current.lidar
            after = box_point_counts(current.boxes, combined.points) if fc_enabled else before
            pseudo = assign(after, current.boxes, cam, (1.0, 60.0))
            assert pseudo == recounting_pseudo_point_assignment(
                combined, current.boxes, cam, (1.0, 60.0)
            )
            for points in (pseudo, []):
                report = pci_statistics(before, after, points)
                assert report == recounting_pci_statistics(current, combined, points)
            assigned += len(pseudo)
            rescued += report.boxes_without_points_before - report.boxes_without_points_after_fc
    assert assigned > 0 and rescued > 0


def test_counts_must_match_the_boxes():
    with pytest.raises(ValueError, match="before combination"):
        pci_statistics(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64), [])
    rects, near = visible_corner_rects(*box_corner_pixels(ppa_camera(), [ppa_box()]))
    with pytest.raises(ValueError):
        pseudo_point_assignment([0, 0], [ppa_box()], rects, near, ppa_camera(), (1.0, 60.0))


def test_projection_must_match_the_boxes():
    boxes = [ppa_box(), ppa_box(center=(20.0, 0.0, 40.0))]
    rects, near = visible_corner_rects(*box_corner_pixels(ppa_camera(), boxes))
    for r, d in ((rects[:1], near), (rects, near[:1]), (rects[:1], near[:1])):
        with pytest.raises(ValueError):
            pseudo_point_assignment([0, 0], boxes, r, d, ppa_camera(), (1.0, 60.0))
    with pytest.raises(ValueError):  # a longer projection, too
        pseudo_point_assignment([0], boxes[:1], rects, near, ppa_camera(), (1.0, 60.0))


def empty_hard_labels(h=8, w=16, cfg=None):
    cfg = cfg or DepthBinConfig()
    return HardLabels(np.full((h, w), -1), np.zeros((h, w), dtype=bool), cfg)


class TestInjectPseudoPoints:
    def test_empty_cell_becomes_foreground_one_hot(self):
        hard = empty_hard_labels()
        out = inject_pseudo_points(hard, [PseudoPoint(40.0, 24.0, 10.2, 0)], 16)
        assert out.bins[1, 2] == 18
        assert out.foreground[1, 2]
        assert out.valid_mask.sum() == 1

    def test_occupied_cell_untouched(self):
        bins = np.full((8, 16), -1)
        bins[1, 2] = 5
        hard = HardLabels(bins, np.zeros((8, 16), dtype=bool), DepthBinConfig())
        out = inject_pseudo_points(hard, [PseudoPoint(40.0, 24.0, 10.2, 0)], 16)
        assert np.array_equal(out.bins, hard.bins)
        assert np.array_equal(out.foreground, hard.foreground)

    def test_out_of_range_depth_skipped(self):
        hard = empty_hard_labels()
        out = inject_pseudo_points(hard, [PseudoPoint(40.0, 24.0, 99.0, 0)], 16)
        assert not out.valid_mask.any()

    def test_out_of_bounds_pixel_rejected(self):
        hard = empty_hard_labels()
        with pytest.raises(ValueError, match="outside"):
            inject_pseudo_points(hard, [PseudoPoint(5000.0, 24.0, 10.0, 0)], 16)

    def test_batch_union_oracle(self):
        rng = np.random.default_rng(5)
        cfg = DepthBinConfig()
        h, w, stride = 8, 16, 16
        mask = rng.random((h, w)) < 0.3
        bins = np.full((h, w), -1)
        bins[mask] = rng.integers(0, cfg.n_bins, int(mask.sum()))
        hard = HardLabels(bins, np.zeros((h, w), dtype=bool), cfg)

        pseudo = [
            PseudoPoint(
                float(rng.uniform(0, w * stride - 1)),
                float(rng.uniform(0, h * stride - 1)),
                float(rng.uniform(2, 59)),
                i,
            )
            for i in range(20)
        ]
        out = inject_pseudo_points(hard, pseudo, stride)
        want = mask.copy()
        for p in pseudo:
            want[int(p.v // stride), int(p.u // stride)] = True
        assert np.array_equal(out.valid_mask, want)

    def test_original_labels_not_mutated(self):
        hard = empty_hard_labels()
        inject_pseudo_points(hard, [PseudoPoint(40.0, 24.0, 10.2, 0)], 16)
        assert not hard.valid_mask.any()

    def test_pseudo_point_validation(self):
        with pytest.raises(ValueError, match="positive"):
            PseudoPoint(10.0, 10.0, 0.0, 0)


class TestQualifyingBoxGainsCoverage:
    def test_emitted_points_land_foreground_unless_preoccupied(self):
        # Real-point precedence means a pseudo cell already held by a real
        # (possibly background) return stays as measured; every other
        # emitted point must produce a valid foreground cell.
        cfg = SceneConfig(
            n_frames=3,
            n_boxes=10,
            lidar_rays_per_box=12,
            dropout_fraction=0.5,
            stationary_fraction=0.5,
            image_width=256,
            image_height=128,
        )
        bin_cfg = DepthBinConfig()
        seen = 0
        for seed in range(8):
            scene = generate_scene(cfg, seed)
            cam = scene.current.cameras[0]
            combined = frame_combination(scene.current, scene.past)
            hard = generate_hard_labels(combined, scene.current.boxes, cam, bin_cfg, 16)
            counts = box_point_counts(scene.current.boxes, combined.points)
            pseudo = assign(
                counts, scene.current.boxes, cam, (bin_cfg.d_min, bin_cfg.d_max)
            )
            out = inject_pseudo_points(hard, pseudo, 16)
            for p in pseudo:
                seen += 1
                r, c = int(p.v // 16), int(p.u // 16)
                assert out.valid_mask[r, c]
                if not hard.valid_mask[r, c]:
                    assert out.foreground[r, c]
                    assert out.bins[r, c] == bin_cfg.bin_index(p.depth)
                else:
                    assert out.bins[r, c] == hard.bins[r, c]
                    assert out.foreground[r, c] == hard.foreground[r, c]
        assert seen > 0

    def test_clutter_free_scenes_always_gain_foreground(self):
        # Without background returns there is nothing to pre-occupy a pseudo
        # cell except other foreground, so the coverage guarantee is exact.
        cfg = SceneConfig(
            n_frames=3,
            n_boxes=10,
            lidar_rays_per_box=12,
            dropout_fraction=0.5,
            stationary_fraction=0.5,
            clutter_points=0,
            image_width=256,
            image_height=128,
        )
        bin_cfg = DepthBinConfig()
        seen = 0
        for seed in range(8):
            scene = generate_scene(cfg, seed)
            cam = scene.current.cameras[0]
            combined = frame_combination(scene.current, scene.past)
            hard = generate_hard_labels(combined, scene.current.boxes, cam, bin_cfg, 16)
            counts = box_point_counts(scene.current.boxes, combined.points)
            pseudo = assign(
                counts, scene.current.boxes, cam, (bin_cfg.d_min, bin_cfg.d_max)
            )
            out = inject_pseudo_points(hard, pseudo, 16)
            for p in pseudo:
                seen += 1
                r, c = int(p.v // 16), int(p.u // 16)
                assert out.foreground[r, c]
        assert seen > 0

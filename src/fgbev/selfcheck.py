"""Oracle comparison suites runnable from the CLI.

Each suite pits a production implementation against its brute-force
counterpart from the oracles module on seeded random inputs and reports
pass/fail with a short detail string.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import oracles
from .distill import (
    BoxBlurEncoder,
    IdentityEncoder,
    distillation_loss,
    encode_joint,
    loss_gradient_check,
)
from .geometry import (
    Box3D,
    CameraModel,
    RigidTransform,
    box3d_corners,
    box_corner_pixels,
    box_point_counts,
    points_in_box,
    project_box3d_to_box2d,
    project_points_unbounded,
    rotation_about_z,
    visible_corner_rects,
)
from .labels import (
    DepthBinConfig,
    DepthDistributionMap,
    HardLabels,
    SegmentationMap,
    generate_hard_labels,
    merge_labels,
)
from .msfe import (
    Box2D,
    FeaturePyramid,
    ForegroundHeatmap,
    downsample,
    elliptical_gaussian_heatmap,
    gaussian_focal_loss,
    msfe_fuse,
)
from .pci import frame_combination, inject_pseudo_points, pseudo_point_assignment
from .pipeline import PipelineConfig, run_pipeline
from .scene import SceneConfig, _ray_box_entry_depths, generate_scene
from .view_transform import (
    BevFeatureGrid,
    BevGridConfig,
    ContextFeatureMap,
    Frustum,
    build_frustum,
    sa_bev_pool,
)

# Camera axes in ego coordinates for a camera looking along ego +x: camera z
# (depth) is ego x, camera x is ego -y and camera y (down) is ego -z.
_LOOK_ALONG_X = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def random_box(rng) -> Box3D:
    return Box3D(
        center=rng.uniform(-30, 30, 3),
        size=tuple(rng.uniform(0.5, 6.0, 3)),
        yaw=rng.uniform(-math.pi, math.pi),
        velocity=rng.uniform(-5, 5, 2),
        visibility=int(rng.integers(1, 5)),
        is_stationary=bool(rng.random() < 0.5),
    )


def random_camera(rng, width: int = 128, height: int = 96) -> CameraModel:
    return CameraModel(
        fx=float(rng.uniform(60, 140)),
        fy=float(rng.uniform(60, 140)),
        cx=(width - 1) / 2.0,
        cy=(height - 1) / 2.0,
        ego_to_cam=RigidTransform.from_yaw(
            float(rng.uniform(-0.3, 0.3)), rng.uniform(-0.5, 0.5, 3)
        ),
        image_width=width,
        image_height=height,
    )


def level_camera(heading: float, position, fx: float, fy: float, width: int, height: int):
    """A level camera at ego `position` looking along ego +x turned by `heading` about z."""
    rotation = rotation_about_z(heading) @ _LOOK_ALONG_X
    cam_to_ego = RigidTransform(rotation, np.asarray(position, dtype=np.float64))
    return CameraModel(
        fx, fy, (width - 1) / 2.0, (height - 1) / 2.0, cam_to_ego.inverse(), width, height
    )


def random_lift_frustum(rng, h: int, w: int, bin_cfg: DepthBinConfig, stride: int = 8) -> Frustum:
    """Frustum of h x w feature cells from a level camera at a random heading and position.

    Its entries spread over every direction of the BEV plane and straddle a
    z range of a few meters, so pooling cases both keep and drop entries.
    """
    heading = float(rng.uniform(-math.pi, math.pi))
    position = rng.uniform(-2.0, 2.0, 3)
    fx, fy = float(rng.uniform(20, 100)), float(rng.uniform(20, 100))
    cam = level_camera(heading, position, fx, fy, w * stride, h * stride)
    return build_frustum(cam, bin_cfg, stride)


def random_soft_labels(rng, h: int, w: int, bin_cfg: DepthBinConfig):
    raw = rng.uniform(0.0, 1.0, (h, w, bin_cfg.n_bins)) + 1e-9
    raw /= raw.sum(axis=2, keepdims=True)
    return (
        DepthDistributionMap(raw, bin_cfg),
        SegmentationMap(rng.uniform(0.0, 1.0, (h, w))),
    )


def random_hard_labels(rng, h: int, w: int, bin_cfg: DepthBinConfig) -> HardLabels:
    mask = rng.random((h, w)) < 0.4
    n = int(mask.sum())
    bins = np.full((h, w), -1, dtype=np.int64)
    bins[mask] = rng.integers(0, bin_cfg.n_bins, n)
    foreground = np.zeros((h, w), dtype=bool)
    foreground[mask] = rng.integers(0, 2, n) == 1
    return HardLabels(bins, foreground, bin_cfg)


def random_bev_grid(rng, cfg: BevGridConfig, channels: int) -> BevFeatureGrid:
    return BevFeatureGrid.from_values(rng.normal(0, 1, (cfg.grid_h, cfg.grid_w, channels)), cfg)


def random_sparse_grid(rng, cfg: BevGridConfig, channels: int) -> BevFeatureGrid:
    """A grid that stores a random subset of its cells, which may be none or all of them."""
    n = cfg.grid_h * cfg.grid_w
    cells = np.flatnonzero(rng.random(n) < rng.choice([0.0, 0.1, 0.5, 1.0]))
    features = rng.normal(0, 1, (len(cells), channels))
    features[rng.random(features.shape) < 0.2] = -0.0
    return BevFeatureGrid(cells, features, cfg)


def _suite_corners(seed: int, n: int) -> SuiteResult:
    """n lists of 0-5 boxes, each list's corners from one call."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    total = 0
    for _ in range(n):
        boxes = [random_box(rng) for _ in range(int(rng.integers(0, 6)))]
        want = np.array([oracles.corners_reference(box) for box in boxes]).reshape(-1, 8, 3)
        worst = max(worst, np.abs(box3d_corners(boxes) - want).max(initial=0.0))
        total += len(boxes)
    ok = worst < 1e-9
    return SuiteResult("box-corners", ok, f"max |err| {worst:.2e} over {total} boxes in {n} lists")


def _suite_point_in_box(seed: int, n: int) -> SuiteResult:
    """Clouds against box lists; each cloud spreads around a box that the others may overlap."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(n):
        first = random_box(rng)
        boxes = [first] + [
            dataclasses.replace(random_box(rng), center=first.center + rng.uniform(-4, 4, 3))
            for _ in range(int(rng.integers(0, 4)))
        ]
        pts = first.center + rng.uniform(-6, 6, (int(rng.integers(0, 13)), 3))
        want = np.array([[oracles.point_in_box_reference(box, p) for p in pts] for box in boxes])
        mismatches += int(np.count_nonzero(points_in_box(boxes, pts) != want.any(axis=0)))
        mismatches += int(np.count_nonzero(box_point_counts(boxes, pts) != want.sum(axis=1)))
    return SuiteResult(
        "point-in-box", mismatches == 0, f"{mismatches} mismatches over {n} clouds"
    )


def _suite_ray_entry(seed: int, n: int) -> SuiteResult:
    """Culled entry depths against the unculled oracle, for boxes behind, across and ahead."""
    rng = np.random.default_rng(seed)
    rules = {"skipped": 0, "windowed": 0, "full": 0}
    hits = 0
    for _ in range(n):
        cam = random_camera(rng)
        # The optical axis is close to ego +z, so centers near z = 0 put boxes across depth 0.
        boxes = [
            dataclasses.replace(random_box(rng), center=rng.uniform((-8, -8, -4), (8, 8, 16)))
            for _ in range(int(rng.integers(1, 7)))
        ]
        pixels = box_corner_pixels(cam, boxes)
        front = np.count_nonzero(pixels[1] > 0.0, axis=1)
        rules["skipped"] += int(np.count_nonzero(front == 0))
        rules["windowed"] += int(np.count_nonzero(front == 8))
        rules["full"] += int(np.count_nonzero((front > 0) & (front < 8)))
        got = _ray_box_entry_depths(cam, boxes, pixels, 12, 16, 8)
        want = oracles.ray_entry_depth_reference(cam, boxes, 12, 16, 8)
        if not np.array_equal(got, want):
            return SuiteResult("ray-entry", False, "entry depths differ from the unculled oracle")
        hits += int(np.isfinite(got).sum())
    detail = ", ".join(f"{k} {v}" for k, v in rules.items())
    return SuiteResult(
        "ray-entry", True, f"bitwise equal on {n} cameras, {hits} cells hit (boxes {detail})"
    )


def _suite_box2d(seed: int, n: int) -> SuiteResult:
    """n cameras, each projecting a list of 1-5 boxes in one call."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for _ in range(n):
        cam = random_camera(rng)
        # Bias boxes toward the frustum so presence and geometry both get hit.
        boxes = [
            Box3D(
                center=rng.uniform((-8, -8, -10), (8, 8, 40)),
                size=tuple(rng.uniform(0.5, 6.0, 3)),
                yaw=rng.uniform(-math.pi, math.pi),
            )
            for _ in range(int(rng.integers(1, 6)))
        ]
        for got, box in zip(project_box3d_to_box2d(cam, boxes), boxes):
            want = oracles.box2d_reference(cam, box)
            if (got is None) != (want is None):
                return SuiteResult("box3d-to-box2d", False, "presence disagrees with oracle")
            if got is None:
                continue
            checked += 1
            diff = np.subtract(dataclasses.astuple(got), dataclasses.astuple(want))
            worst = max(worst, np.abs(diff).max())
    ok = worst < 1e-9
    return SuiteResult("box3d-to-box2d", ok, f"max |err| {worst:.2e} over {checked} visible")


def _suite_frustum_roundtrip(seed: int, n: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    bin_cfg = DepthBinConfig(1.0, 21.0, 2.5)
    bad = 0
    for _ in range(n):
        cam = random_camera(rng, width=64, height=32)
        frustum = build_frustum(cam, bin_cfg, 8)
        picks = rng.integers(0, len(frustum), 20)
        uv, d = project_points_unbounded(cam, frustum.points[picks])
        u, v = uv.T
        bins, in_range = bin_cfg.bin_indices(d)
        # A point behind the camera has NaN pixels, which in_image rejects.
        ok = cam.in_image(u, v) & in_range & (bins == frustum.bins[picks])
        ok &= (v // 8 == frustum.rows[picks]) & (u // 8 == frustum.cols[picks])
        bad += int(np.count_nonzero(~ok))
    return SuiteResult("frustum-roundtrip", bad == 0, f"{bad} bad round trips")


def _random_pool_case(rng):
    h = int(rng.integers(2, 9))
    w = int(rng.integers(2, 9))
    n_bins = int(rng.integers(2, 7))
    channels = int(rng.integers(1, 4))
    bin_cfg = DepthBinConfig(1.0, 1.0 + n_bins * 2.0, 2.0)
    bev = BevGridConfig(
        range_xy=float(rng.uniform(5, 20)),
        grid_h=int(rng.integers(4, 17)),
        grid_w=int(rng.integers(4, 17)),
        z_range=(-4.0, 4.0),
    )
    frustum = random_lift_frustum(rng, h, w, bin_cfg)
    ctx = ContextFeatureMap(rng.normal(0, 1, (h, w, channels)))
    depth, seg = random_soft_labels(rng, h, w, bin_cfg)
    if rng.random() < 0.5:
        # Hard labels make some cells one-hot, so pooling skips entries of weight 0.
        depth, seg = merge_labels(random_hard_labels(rng, h, w, bin_cfg), depth, seg)
    return ctx, depth, seg, frustum, bev


def _suite_pooling(seed: int, n: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    for _ in range(n):
        ctx, depth, seg, frustum, bev = _random_pool_case(rng)
        thr = float(rng.uniform(0.0, 0.9))
        got = sa_bev_pool(ctx, depth, seg, frustum, bev, thr)
        want = oracles.pool_reference(ctx, depth, seg, frustum, bev, thr)
        if got.values.tobytes() != want.tobytes():
            return SuiteResult("sa-bev-pool", False, "serial accumulation oracle disagrees")
    return SuiteResult("sa-bev-pool", True, f"bitwise equal on {n} cases")


def _suite_merge(seed: int, n: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    bin_cfg = DepthBinConfig(1.0, 9.0, 2.0)
    for _ in range(n):
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        hard = random_hard_labels(rng, h, w, bin_cfg)
        soft_d, soft_s = random_soft_labels(rng, h, w, bin_cfg)
        got_d, got_s = merge_labels(hard, soft_d, soft_s)
        want_d, want_s = oracles.merge_reference(hard, soft_d, soft_s)
        if not (np.array_equal(got_d.values, want_d) and np.array_equal(got_s.values, want_s)):
            return SuiteResult("label-merge", False, "selection oracle disagrees")
    return SuiteResult("label-merge", True, f"bitwise equal on {n} masks")


def _scene_for_checks(seed: int, dropout: float = 0.3) -> tuple:
    cfg = SceneConfig(
        n_frames=3,
        n_boxes=10,
        n_cameras=2,
        lidar_rays_per_box=16,
        clutter_points=64,
        dropout_fraction=dropout,
        stationary_fraction=0.7,
        image_width=256,
        image_height=128,
    )
    scene = generate_scene(cfg, seed)
    return scene, scene.current.cameras[0]


def _suite_hard_label_count(seed: int, n: int) -> SuiteResult:
    bin_cfg = DepthBinConfig()
    for i in range(n):
        scene, cam = _scene_for_checks(seed + i)
        frame = scene.current
        hard = generate_hard_labels(frame.lidar, frame.boxes, cam, bin_cfg, 16)
        got = int(hard.valid_mask.sum())
        want = oracles.hard_label_cell_count_reference(frame.lidar.points, cam, bin_cfg, 16)
        if got != want:
            return SuiteResult("hard-label-cells", False, f"{got} cells vs oracle {want}")
    return SuiteResult("hard-label-cells", True, f"counts agree on {n} scenes")


def _suite_frame_combination(seed: int, n: int) -> SuiteResult:
    for i in range(n):
        scene, _ = _scene_for_checks(seed + i)
        current = scene.current
        combined = frame_combination(current, scene.past)
        got = box_point_counts(current.boxes, combined.points).tolist()
        want = oracles.fc_counts_reference(current, scene.past)
        if got != want:
            return SuiteResult(
                "frame-combination", False, f"per-box counts {got} vs oracle {want}"
            )
    return SuiteResult("frame-combination", True, f"per-box counts agree on {n} scenes")


def _suite_pseudo_points(seed: int, n: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    emitted = 0
    for _ in range(n):
        cam = random_camera(rng, width=256, height=128)
        box = random_box(rng)
        corners = visible_corner_rects(*box_corner_pixels(cam, [box]))
        got = pseudo_point_assignment([0], [box], *corners, cam, (0.1, 1e9))
        if not got:
            continue
        emitted += 1
        ref = oracles.pseudo_point_reference(cam, box)
        for have, want in ((got[0].u, ref[0]), (got[0].v, ref[1]), (got[0].depth, ref[2])):
            worst = max(worst, abs(have - want) / max(1.0, abs(want)))
    ok = worst < 1e-12 and emitted > 0
    return SuiteResult(
        "pseudo-points", ok, f"max rel err {worst:.2e} over {emitted} emitted"
    )


def _suite_inject(seed: int, n: int) -> SuiteResult:
    for i in range(n):
        scene, cam = _scene_for_checks(seed + i, dropout=0.5)
        current = scene.current
        bin_cfg = DepthBinConfig()
        combined = frame_combination(current, scene.past)
        hard = generate_hard_labels(combined, current.boxes, cam, bin_cfg, 16)
        pseudo = pseudo_point_assignment(
            box_point_counts(current.boxes, combined.points),
            current.boxes,
            *visible_corner_rects(*box_corner_pixels(cam, current.boxes)),
            cam,
            (bin_cfg.d_min, bin_cfg.d_max),
        )
        injected = inject_pseudo_points(hard, pseudo, 16)
        want = hard.valid_mask
        for p in pseudo:
            if bin_cfg.bin_index(p.depth) is not None:
                want[int(p.v // 16), int(p.u // 16)] = True
        if not np.array_equal(injected.valid_mask, want):
            return SuiteResult("inject-pseudo", False, "valid mask differs from union oracle")
    return SuiteResult("inject-pseudo", True, f"union oracle matches on {n} scenes")


def _suite_distill(seed: int, n: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    cfg = BevGridConfig(range_xy=8.0, grid_h=6, grid_w=6)
    worst = 0.0
    worst_grad = 0.0
    for _ in range(n):
        t = random_bev_grid(rng, cfg, 3)
        s = random_bev_grid(rng, cfg, 3)
        got, got_n = distillation_loss(t, s)
        want, want_n = oracles.distill_loss_reference(t.values, s.values, 1e-6)
        if got_n != want_n:
            return SuiteResult("distill-loss", False, "included-cell counts disagree")
        worst = max(worst, abs(got - want))
        # Well-separated student for the finite-difference comparison: keep
        # every cell's difference norm away from the non-smooth point.
        offset = rng.normal(0, 1, t.values.shape)
        offset /= np.linalg.norm(offset, axis=2, keepdims=True)
        offset *= rng.uniform(0.5, 1.5, (cfg.grid_h, cfg.grid_w, 1))
        sep = BevFeatureGrid.from_values(t.values + offset, cfg)
        worst_grad = max(worst_grad, loss_gradient_check(t, sep).max_rel_error)
    ok = worst < 1e-9 and worst_grad < 1e-5
    return SuiteResult(
        "distill-loss",
        ok,
        f"loss |err| {worst:.2e}, gradient rel err {worst_grad:.2e} over {n} grids",
    )


def _suite_encoders(seed: int, n: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    cfg = BevGridConfig(range_xy=8.0, grid_h=7, grid_w=5)
    for _ in range(n):
        s = random_sparse_grid(rng, cfg, 4)
        t = random_sparse_grid(rng, cfg, 4)
        full = np.stack([s.values, t.values])
        want = {"identity": full, "box_blur": oracles.box_blur_reference(full)}
        for enc in (IdentityEncoder(), BoxBlurEncoder()):
            js, jt = encode_joint(enc, s, t)
            ws, wt = want[enc.name].reshape(2, -1, 4)
            got = np.concatenate([js.values.reshape(-1, 4)[jt.cells], jt.values.reshape(-1, 4)])
            if got.tobytes() != np.concatenate([ws[jt.cells], wt]).tobytes():
                return SuiteResult(
                    "encoder-joint", False, f"{enc.name}: teacher cells != full-grid oracle"
                )
    return SuiteResult("encoder-joint", True, f"bitwise equal on {n} grid pairs")


def _suite_msfe(seed: int, n: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        h16, w16 = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        c = int(rng.integers(1, 4))
        pyr = FeaturePyramid(
            rng.normal(0, 1, (4 * h16, 4 * w16, c)),
            rng.normal(0, 1, (2 * h16, 2 * w16, c)),
            rng.normal(0, 1, (h16, w16, c)),
        )
        hm = ForegroundHeatmap(rng.uniform(0, 1, (4 * h16, 4 * w16)))
        beta = float(rng.uniform(0, 0.5))
        got = msfe_fuse(pyr, hm, beta)
        want = oracles.msfe_fuse_reference(pyr, hm, beta)
        worst = max(worst, np.abs(got - want).max())
        comp = np.abs(
            downsample(pyr.f4, 4) - downsample(downsample(pyr.f4, 2), 2)
        ).max()
        worst = max(worst, comp)
    ok = worst < 1e-12
    return SuiteResult("msfe-fuse", ok, f"max |err| {worst:.2e} over {n} pyramids")


def _suite_heatmap(seed: int, n: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        h, w = int(rng.integers(8, 20)), int(rng.integers(8, 20))
        boxes = []
        for _ in range(int(rng.integers(1, 4))):
            # Some boxes overhang the map, so supports are clipped at its edges.
            x1 = rng.uniform(-24, w * 4 + 8)
            y1 = rng.uniform(-24, h * 4 + 8)
            boxes.append(
                Box2D(x1, y1, x1 + rng.uniform(2, 30), y1 + rng.uniform(2, 30))
            )
        got = elliptical_gaussian_heatmap(boxes, h, w, 4)
        want = oracles.heatmap_reference(boxes, h, w, 4, 6.0)
        worst = max(worst, np.abs(got.values - want).max())
    ok = worst < 1e-12
    return SuiteResult("elliptical-heatmap", ok, f"max |err| {worst:.2e} over {n} maps")


def _suite_focal(seed: int, n: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        target = rng.uniform(0, 1, (h, w))
        target[rng.random((h, w)) < 0.15] = 1.0
        pred = rng.uniform(0, 1, (h, w))
        got = gaussian_focal_loss(ForegroundHeatmap(pred), ForegroundHeatmap(target))
        want = oracles.focal_loss_reference(pred, target, 2.0, 4.0)
        worst = max(worst, abs(got - want))
    ok = worst < 1e-9
    return SuiteResult("gaussian-focal-loss", ok, f"max |err| {worst:.2e} over {n} maps")


def _suite_pipeline_fixed_point(seed: int) -> SuiteResult:
    cfg = PipelineConfig(
        scene=SceneConfig(
            n_boxes=6,
            lidar_rays_per_box=48,
            clutter_points=32,
            image_width=256,
            image_height=128,
        ),
        fc_enabled=False,
        ppa_enabled=False,
        soft_label_noise=0.0,
        seed=seed,
    )
    loss = run_pipeline(cfg).loss
    ok = loss < 1e-3
    return SuiteResult("pipeline-perfect-labels", ok, f"loss {loss:.2e} with exact soft labels")


def run_selfcheck(seed: int = 20240, quick: bool = False) -> list[SuiteResult]:
    """Run every oracle suite; `quick` trims case counts for smoke testing."""
    k = 0.2 if quick else 1.0

    def n(full: int) -> int:
        return max(1, int(full * k))

    return [
        _suite_corners(seed, n(200)),
        _suite_point_in_box(seed + 1, n(300)),
        _suite_box2d(seed + 2, n(200)),
        _suite_ray_entry(seed + 16, n(30)),
        _suite_frustum_roundtrip(seed + 3, n(20)),
        _suite_pooling(seed + 4, n(100)),
        _suite_merge(seed + 5, n(100)),
        _suite_hard_label_count(seed + 6, n(5)),
        _suite_frame_combination(seed + 7, n(3)),
        _suite_pseudo_points(seed + 8, n(300)),
        _suite_inject(seed + 9, n(3)),
        _suite_distill(seed + 10, n(30)),
        _suite_encoders(seed + 11, n(100)),
        _suite_msfe(seed + 12, n(50)),
        _suite_heatmap(seed + 13, n(20)),
        _suite_focal(seed + 14, n(50)),
        _suite_pipeline_fixed_point(seed + 15),
    ]

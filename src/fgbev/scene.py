"""Deterministic synthetic multi-frame scenes.

Stands in for a real driving dataset at desk scale: ground-truth boxes with
world-frame kinematics, a smooth ego trajectory, surface-sampled LiDAR
returns with ground clutter, synthetic multi-scale feature maps, and
simulated soft labels. Everything is a pure function of (config, seed).

Ego frame convention: x forward, y left, z up, origin on the ground under
the sensor mast.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, bounded, check_budget, check_fields, from_dict, to_dict
from .geometry import (
    Box2D,
    Box3D,
    CameraModel,
    PointCloud,
    RigidTransform,
    cuboid_corners,
    points_in_box,
    project_points_unbounded,
    rotation_about_z,
    yaw_rotations,
)
from .labels import (
    DepthBinConfig,
    DepthDistributionMap,
    HardLabels,
    SegmentationMap,
    generate_hard_labels,
)
from .msfe import FeaturePyramid

SCENE_FORMAT = "fgbev-scene-v1"

EGO_SPEED = 6.0  # m/s along world x
MAX_BOX_SPEED = 8.0  # m/s; a dynamic box draws its speed from [1, MAX_BOX_SPEED)
EGO_YAW_RATE = 0.03  # rad/s, keeps relative poses non-trivial
CAMERA_HEIGHT = 1.6
CAMERA_FORWARD_OFFSET = 0.5
EGO_CLEARANCE = 4.0  # no box center within this xy distance of any ego position
MAX_PLACEMENT_ATTEMPTS = 1000

BACKGROUND_SEG_FLOOR = 0.05
SURFACE_INSET = 1e-6  # keeps sampled surface points strictly inside the closed box
# Largest distance (m) a scene spans: its detection range and its fastest mover's travel.
# A coordinate's ulp stays near 1e-10 m, far below SURFACE_INSET, and nothing overflows.
MAX_SCENE_EXTENT = 1e6
# Every frame costs its ego pose, boxes, cameras and scene-file record even
# with no LiDAR points (about 0.3 ms and 1.2 KB each), so the frame count has
# its own bound besides the point budget.
MAX_FRAMES = 1000
# Ten times the 6-camera nuScenes rig. Each camera adds a model to every frame
# and a record to the scene file, with or without LiDAR points.
MAX_CAMERAS = 64
# Rows of one background level alive at once while background_magnitude norms it. 16
# stride-4 rows of a 1408-pixel-wide, 32-channel level are 1.4 MB; the whole level is 11.5 MB.
BACKGROUND_ROW_BLOCK = 16


@dataclass(frozen=True)
class SceneConfig:
    """Knobs for the synthetic scene generator."""

    n_frames: int = bounded(2, ge=2, le=MAX_FRAMES)
    n_boxes: int = bounded(12, ge=0)
    n_cameras: int = bounded(1, ge=1, le=MAX_CAMERAS)
    frame_interval: float = bounded(0.5, gt=0)
    lidar_rays_per_box: int = bounded(32, ge=0)
    stationary_fraction: float = bounded(0.5, ge=0, le=1)
    detection_range_xy: float = bounded(51.2, gt=0, le=MAX_SCENE_EXTENT)
    dropout_fraction: float = bounded(0.0, ge=0, le=1)
    clutter_points: int = bounded(128, ge=0)
    image_width: int = bounded(704, ge=1)
    image_height: int = bounded(256, ge=1)

    def __post_init__(self):
        check_fields(self)
        travel = max(MAX_BOX_SPEED, EGO_SPEED) * self.frame_interval * (self.n_frames - 1)
        if not travel <= MAX_SCENE_EXTENT:
            raise ValueError(
                f"frame_interval x (n_frames - 1) x {max(MAX_BOX_SPEED, EGO_SPEED)} m/s, the "
                f"farthest a box or the ego moves, must be <= {MAX_SCENE_EXTENT} m, got {travel}"
            )
        check_budget(
            self.n_frames * (self.n_boxes * self.lidar_rays_per_box + self.clutter_points),
            "LiDAR points n_frames x (n_boxes x lidar_rays_per_box + clutter_points)",
        )


@dataclass(frozen=True)
class Frame:
    """One timestamp: ego pose plus boxes, LiDAR, and cameras in ego coordinates."""

    timestamp: float
    ego_pose: RigidTransform  # ego -> world
    boxes: list[Box3D]
    lidar: PointCloud
    cameras: list[CameraModel]

    @property
    def tag(self) -> str:
        return self.lidar.frame_tag


@dataclass(frozen=True)
class Scene:
    frames: list[Frame]
    seed: int

    def __post_init__(self):
        if len(self.frames) < 2:
            raise ValueError("a scene needs at least 2 frames (one past frame)")
        ts = [f.timestamp for f in self.frames]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"timestamps must strictly increase, got {ts}")

    @property
    def current(self) -> Frame:
        """The newest frame; earlier frames are the temporal context."""
        return self.frames[-1]

    @property
    def past(self) -> list[Frame]:
        return self.frames[:-1]


def _ego_pose(t: float) -> RigidTransform:
    return RigidTransform.from_yaw(EGO_YAW_RATE * t, (EGO_SPEED * t, 0.0, 0.0))


def _build_cameras(cfg: SceneConfig) -> list[CameraModel]:
    cams = []
    for k in range(cfg.n_cameras):
        a = 2.0 * math.pi * k / cfg.n_cameras
        c, s = math.cos(a), math.sin(a)
        # Camera axes in ego coordinates: z along the view direction,
        # y pointing down, x completing the right-handed frame.
        cam_to_ego_rot = np.array(
            [
                [s, 0.0, c],
                [-c, 0.0, s],
                [0.0, -1.0, 0.0],
            ]
        )
        position = np.array([CAMERA_FORWARD_OFFSET * c, CAMERA_FORWARD_OFFSET * s, CAMERA_HEIGHT])
        ego_to_cam = RigidTransform(cam_to_ego_rot, position).inverse()
        cams.append(
            CameraModel(
                fx=cfg.image_width * 0.5,
                fy=cfg.image_width * 0.5,
                cx=(cfg.image_width - 1) / 2.0,
                cy=(cfg.image_height - 1) / 2.0,
                ego_to_cam=ego_to_cam,
                image_width=cfg.image_width,
                image_height=cfg.image_height,
            )
        )
    return cams


def _sample_frame_surface(rng, centers, sizes, rots, dropped: np.ndarray, n: int) -> np.ndarray:
    """n LiDAR returns on the sensor-facing side faces of each box ((B, 3) centers and sizes,
    (B, 3, 3) yaw rotations), in box order and ego coordinates, from one `rng.random` call.

    A dropped box, or one with no side face toward the sensor, gets no
    returns and draws nothing. Each drawing box's slice of the draws holds
    its n face draws, then its n (in-plane, height) pairs: the draws, and the
    arithmetic on them, of `rng.choice` over its facing faces weighted by
    area followed by `rng.uniform` over the pairs (README "Determinism").
    """
    if n == 0 or not len(centers):
        return np.zeros((0, 3))
    rots_t = rots.transpose(0, 2, 1)
    # The ego origin in each box frame: each box's rot.T @ (-center).
    sensor = np.matmul(rots_t, -centers[:, :, None])[:, :, 0]
    half = sizes / 2.0
    # A side face's outward normal is sign * e_axis and its center sits at
    # sign * half[axis]; at most one sign per axis can face the sensor.
    facing = np.abs(sensor[:, :2]) > half[:, :2]
    drawing = np.flatnonzero(facing.any(axis=1) & ~dropped)
    if not len(drawing):
        return np.zeros((0, 3))
    half, facing = half[drawing], facing[drawing]
    sign = np.sign(sensor[drawing, :2])
    fx, fy = facing[:, 0], facing[:, 1]

    u = rng.random(3 * n * len(drawing)).reshape(len(drawing), 3 * n)
    # Faces are listed x first. With two, `choice` returns the second iff
    # u >= cdf[0] = p0 / (p0 + p1), since its cdf ends at exactly 1.0 > u.
    area_x = 2 * half[:, 1] * 2 * half[:, 2]
    area_y = 2 * half[:, 0] * 2 * half[:, 2]
    a0 = np.where(fx, area_x, area_y)
    a1 = np.where(fx & fy, area_y, 0.0)
    total = a0 + a1
    p0, p1 = a0 / total, a1 / total
    second = u[:, :n] >= (p0 / (p0 + p1))[:, None]
    in_x = fx[:, None] & ~second  # the point's face is an x face

    lim = half - SURFACE_INSET
    face = np.where(in_x, sign[:, :1] * lim[:, :1], sign[:, 1:] * lim[:, 1:2])
    plane_lim = np.where(in_x, lim[:, 1:2], lim[:, :1])
    pairs = u[:, n:].reshape(len(drawing), n, 2)
    # `uniform(low, high)` returns low + (high - low) * u.
    in_plane = -plane_lim + (plane_lim - -plane_lim) * pairs[:, :, 0]
    height_lim = lim[:, 2:]
    height = -height_lim + (height_lim - -height_lim) * pairs[:, :, 1]

    pts = np.empty((len(drawing), n, 3))
    pts[:, :, 0] = np.where(in_x, face, in_plane)
    pts[:, :, 1] = np.where(in_x, in_plane, face)
    pts[:, :, 2] = height
    return (np.matmul(pts, rots_t[drawing]) + centers[drawing, None, :]).reshape(-1, 3)


def _sample_clutter(rng, cfg: SceneConfig, boxes: list[Box3D]) -> np.ndarray:
    """Uniform ground clutter, rejection-sampled to stay outside every box."""
    if cfg.clutter_points == 0:
        return np.zeros((0, 3))
    extent = max(cfg.detection_range_xy - 1.0, 1.0)
    out = []
    needed = cfg.clutter_points
    for _ in range(100):
        batch = np.column_stack(
            [
                rng.uniform(-extent, extent, needed),
                rng.uniform(-extent, extent, needed),
                rng.uniform(0.05, 0.5, needed),
            ]
        )
        kept = batch[~points_in_box(boxes, batch)]
        out.append(kept)
        needed -= len(kept)
        if needed == 0:
            return np.concatenate(out)
    raise ConfigError(
        "could not sample clutter outside boxes; reduce scene.n_boxes or widen "
        "scene.detection_range_xy"
    )


def _place_boxes(rng, cfg: SceneConfig, pose_cur: RigidTransform, ego_xy: np.ndarray):
    """Boxes placed without footprint overlap in the current frame's detection region, in the
    world frame: (B, 3) centres and sizes, (B,) yaws, (B, 2) velocities, class ids, stationary."""
    b = cfg.n_boxes
    centres, sizes, yaws, radii = np.empty((b, 3)), np.empty((b, 3)), np.empty(b), np.empty(b)
    velocities, class_ids, stationary = np.zeros((b, 2)), np.zeros(b, np.int64), np.zeros(b, bool)
    extent = cfg.detection_range_xy * 0.95
    for k in range(b):
        class_id = int(rng.random() < 0.25)
        lo, hi = [((3.6, 1.6, 1.4), (5.0, 2.1, 1.9)), ((0.4, 0.4, 0.6), (0.8, 0.8, 1.1))][class_id]
        size = tuple(map(rng.uniform, lo, hi))
        radius = math.hypot(size[0], size[1]) / 2.0
        yaw_w = rng.uniform(-math.pi, math.pi)
        still = rng.random() < cfg.stationary_fraction
        if not still:
            speed, heading = rng.uniform(1.0, MAX_BOX_SPEED), rng.uniform(0.0, 2.0 * math.pi)
            velocities[k] = speed * np.array([math.cos(heading), math.sin(heading)])

        for _ in range(MAX_PLACEMENT_ATTEMPTS):
            xy_ego = rng.uniform(-extent, extent, 2)
            center_w = pose_cur.apply(np.array([xy_ego[0], xy_ego[1], size[2] / 2.0]))
            if not (
                np.any(np.linalg.norm(ego_xy - center_w[:2], axis=1) < radius + EGO_CLEARANCE)
                or np.any(
                    np.linalg.norm(centres[:k, :2] - center_w[:2], axis=1)
                    < (radii[:k] + radius) + 0.3
                )
            ):
                break
        else:
            raise ConfigError(
                f"could not place box {k} without overlap after "
                f"{MAX_PLACEMENT_ATTEMPTS} attempts; reduce scene.n_boxes or widen "
                "scene.detection_range_xy"
            )
        centres[k], sizes[k], yaws[k], radii[k] = center_w, size, yaw_w, radius
        class_ids[k], stationary[k] = class_id, still
    return centres, sizes, yaws, velocities, class_ids, stationary


def generate_scene(cfg: SceneConfig, seed: int) -> Scene:
    """Build a deterministic scene: boxes, ego trajectory, LiDAR, cameras.

    Boxes are placed uniformly (without footprint overlap) in the current
    frame's detection region; stationary boxes keep their world position
    while dynamic ones advance by velocity * frame_interval. LiDAR returns
    are sampled on sensor-facing box faces plus ground clutter, and a
    dropout_fraction of boxes receives zero returns in the current frame so
    downstream densification has something to do.
    """
    rng = np.random.default_rng(seed)
    cameras = _build_cameras(cfg)
    times = [i * cfg.frame_interval for i in range(cfg.n_frames)]
    poses = [_ego_pose(t) for t in times]
    t_cur, pose_cur = times[-1], poses[-1]
    ego_xy = np.array([p.translation[:2] for p in poses])
    centers_w, sizes, yaws_w, vels_w, class_ids, still = _place_boxes(rng, cfg, pose_cur, ego_xy)
    dropped_current = rng.random(cfg.n_boxes) < cfg.dropout_fraction

    def at(t: float, pose: RigidTransform):
        # (centers, yaws, yaw rotations, velocities) in the ego frame at t. Stacked matvecs give
        # each box the bits of its own pose.inverse().apply and rot2 @ v; z moves by an exact +0.0.
        inv_rot = pose.rotation.T
        ego_yaw = EGO_YAW_RATE * t
        rot2 = rotation_about_z(-ego_yaw)[:2, :2]
        moved = centers_w + np.pad(vels_w * (t - t_cur), ((0, 0), (0, 1)))
        centers = np.matmul(inv_rot, moved[:, :, None])[:, :, 0] + -inv_rot @ pose.translation
        yaws = yaws_w - ego_yaw
        return centers, yaws, yaw_rotations(yaws), np.matmul(rot2, vels_w[:, :, None])[:, :, 0]

    # Visibility is judged in the current frame, where downstream gating uses it: level 1-4
    # when the camera seeing most of a box's corners sees 0, 1-3, 4-7 or 8.
    current = at(t_cur, pose_cur)
    corners = cuboid_corners(current[0], sizes, current[2]).reshape(-1, 3)
    in_view = [cam.in_image(*project_points_unbounded(cam, corners)[0].T) for cam in cameras]
    seen = np.max([v.reshape(-1, 8).sum(axis=1) for v in in_view], axis=0)
    visibility = 1 + (seen >= 1) + (seen >= 4) + (seen >= 8)

    frames = []
    for idx, (t, pose) in enumerate(zip(times, poses)):
        is_current = idx == cfg.n_frames - 1
        centers, yaws, rots, velocities = current if is_current else at(t, pose)
        boxes = Box3D.from_arrays(centers, sizes, yaws, velocities, class_ids, still, visibility)
        surf = _sample_frame_surface(
            rng, centers, sizes, rots, dropped_current & is_current, cfg.lidar_rays_per_box
        )
        clutter = _sample_clutter(rng, cfg, boxes)
        lidar = PointCloud(np.concatenate([surf, clutter]), f"frame-{idx}")
        frames.append(Frame(t, pose, boxes, lidar, cameras))
    return Scene(frames, seed)


# --------------------------------------------------------------------------
# Synthetic feature pyramids
# --------------------------------------------------------------------------


def _cell_centers(n: int, stride: int) -> np.ndarray:
    """Pixel coordinate of the center of each of n cells of the given stride."""
    return (np.arange(n, dtype=np.float64) + 0.5) * stride


def background_feature_level(
    width: int, height: int, stride: int, channels: int, rows: np.ndarray | None = None
) -> np.ndarray:
    """The seed-free smooth background at one stride's cell centers, on rows (None: all)."""
    u = _cell_centers(width // stride, stride)
    v = _cell_centers(height // stride, stride)
    v = v if rows is None else v[rows]
    k = np.arange(channels)
    # Each factor depends on (column, channel) or (row, channel) only, so it is
    # evaluated once there and the product is formed by broadcasting.
    along_u = 0.5 * np.sin(2.0 * math.pi * u[:, None] / width * (1.0 + 0.37 * k) + 0.8 * k)
    along_v = np.cos(2.0 * math.pi * v[:, None] / height * (0.5 + 0.23 * k) - 0.3 * k)
    return along_u[None, :, :] * along_v[:, None, :]


@functools.lru_cache(maxsize=4)
def background_magnitude(width: int, height: int, stride: int, channels: int) -> np.ndarray:
    """Read-only per-cell L2 norm of background_feature_level, computed once per process.

    The level is built and normed BACKGROUND_ROW_BLOCK rows at a time. A cell's norm reads
    only its own channels and each row block has the whole level's bits, so every cell has
    the bits of the whole-map norm while only one block of the level is alive.
    """
    mag = np.empty((height // stride, width // stride))
    for start in range(0, len(mag), BACKGROUND_ROW_BLOCK):
        rows = np.arange(start, min(start + BACKGROUND_ROW_BLOCK, len(mag)))
        level = background_feature_level(width, height, stride, channels, rows)
        mag[start : start + BACKGROUND_ROW_BLOCK] = np.linalg.norm(level, axis=2)
    mag.flags.writeable = False
    return mag


def rect_cells(rects: list, width: int, height: int, stride: int, rows=None) -> list:
    """(rows, cols) slices of the cells whose centers lie in each rectangle; None stays None.

    Cell centers increase along each axis, so those cells are one row range times one column range.
    Given ascending row ids, the rows slice indexes those ids instead of all rows.
    """
    u = _cell_centers(width // stride, stride)
    v = _cell_centers(height // stride, stride)
    v = v if rows is None else v[rows]
    return [
        None if r is None else (
            slice(np.searchsorted(v, r.y1), np.searchsorted(v, r.y2, "right")),
            slice(np.searchsorted(u, r.x1), np.searchsorted(u, r.x2, "right")),
        )
        for r in rects
    ]


def synth_feature_pyramid(
    cam: CameraModel, rects: list[Box2D | None], channels: int, seed: int, rows4=None, rows8=None
) -> FeaturePyramid:
    """Deterministic stand-in for learned multi-scale image features.

    rects holds each box's clip_rects 2D box in cam's image, or None. Each level is a
    smooth function of pixel position; cells whose centers fall inside a 2D box get a
    seeded per-box magnitude boost so foreground regions are distinguishable from
    background. Outside those rect_cells each level is background_feature_level bit for bit.
    f4 and f8 are built only on the ascending row ids rows4 and rows8 (every row for None),
    and each cell they store has the bits it has in the whole level.
    """
    width, height = cam.image_width, cam.image_height
    if width % 16 or height % 16:
        raise ValueError(f"image {width}x{height} not divisible by 16")
    rng = np.random.default_rng(seed)
    boosts = rng.uniform(1.0, 2.0, size=len(rects))
    chan_gain = 1.0 + 0.1 * np.sin(np.arange(channels))

    levels = []
    for stride, ids in ((4, rows4), (8, rows8), (16, None)):
        level = background_feature_level(width, height, stride, channels, ids)
        for amp, cells in zip(boosts, rect_cells(rects, width, height, stride, ids)):
            if cells is not None:
                level[cells] += amp * chan_gain
        levels.append(level)
    return FeaturePyramid(*levels, rows4, rows8)


# --------------------------------------------------------------------------
# Simulated soft labels
# --------------------------------------------------------------------------


def _ray_box_entry_depths(
    cam: CameraModel, boxes: list[Box3D], pixels, h_f: int, w_f: int, stride: int
) -> np.ndarray:
    """Camera-frame depth where each feature cell's center ray enters the
    nearest box; +inf where no box is hit. pixels is box_corner_pixels(cam, boxes);
    another length raises ValueError.

    A ray point at parameter t has depth t > 0, so a box whose 8 corners all
    have depth <= 0 is skipped. A box wholly in front of the camera is tested
    only on the cells inside its projected corner rectangle grown by one
    stride; a box straddling depth 0 is tested on every cell.
    """
    u_centers, v_centers = _cell_centers(w_f, stride), _cell_centers(h_f, stride)
    u, v = np.tile(u_centers, h_f), np.repeat(v_centers, w_f)  # row-major cells
    dirs_cam = np.stack(
        [(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, np.ones_like(u, dtype=np.float64)],
        axis=1,
    )
    c2e = cam.cam_to_ego
    origin = c2e.translation
    # Ego-frame direction per unit depth, one (row, col) cell per entry.
    dirs = (dirs_cam @ c2e.rotation.T).reshape(h_f, w_f, 3)

    best = np.full((h_f, w_f), np.inf)
    for box, uv, depth in zip(boxes, *pixels, strict=True):
        if not (depth > 0.0).any():
            continue
        rows = cols = slice(None)
        if (depth > 0.0).all():
            (x1, y1), (x2, y2) = uv.min(axis=0) - stride, uv.max(axis=0) + stride
            rows = slice(np.searchsorted(v_centers, y1), np.searchsorted(v_centers, y2, "right"))
            cols = slice(np.searchsorted(u_centers, x1), np.searchsorted(u_centers, x2, "right"))
        cells = best[rows, cols]
        if not cells.size:
            continue
        rot = rotation_about_z(box.yaw)
        o_b = rot.T @ (origin - box.center)
        d_b = dirs[rows, cols].reshape(-1, 3) @ rot
        half = box.half_size
        d_safe = np.where(d_b == 0.0, 1e-300, d_b)
        t1 = (-half - o_b) / d_safe
        t2 = (half - o_b) / d_safe
        tmin = np.minimum(t1, t2).max(axis=1).reshape(cells.shape)
        tmax = np.maximum(t1, t2).min(axis=1).reshape(cells.shape)
        hit = (tmax >= np.maximum(tmin, 0.0)) & (tmin > 0.0)
        best[rows, cols] = np.where(hit & (tmin < cells), tmin, cells)
    return best


def soft_labels_from_frame(
    frame: Frame,
    cam_index: int,
    pixels: tuple[np.ndarray, np.ndarray],
    depth_cfg: DepthBinConfig,
    noise: float,
    seed: int,
    feature_stride: int = 16,
    seg_threshold: float | None = None,
) -> tuple[DepthDistributionMap, SegmentationMap, HardLabels]:
    """Simulate the predictions a well-trained depth/segmentation head would make.

    With noise=0 every cell peaks at its true depth: cells covered by this
    frame's LiDAR reuse the measured (hard-label) bin, uncovered foreground
    cells fall back to exact ray casting against the boxes, and everything
    else gets a uniform depth row with the background segmentation floor.
    Noise blends in a seeded random distribution and jitters segmentation.
    Also returns the frame's own hard labels, the ones the soft labels were
    built from. pixels is box_corner_pixels of the frame's boxes in that camera.

    The depth map stores every cell, or with a seg_threshold only the cells
    whose seg is >= it. The random draws are made for every cell either way,
    so the seg noise and each stored row keep their bits.
    """
    if noise < 0:
        raise ValueError(f"noise must be nonnegative, got {noise}")
    cam = frame.cameras[cam_index]
    h_f, w_f = cam.feature_grid_shape(feature_stride)
    n_bins = depth_cfg.n_bins

    hard = generate_hard_labels(frame.lidar, frame.boxes, cam, depth_cfg, feature_stride)
    entry = _ray_box_entry_depths(cam, frame.boxes, pixels, h_f, w_f, feature_stride)
    ray_bins, ray_ok = depth_cfg.bin_indices(np.where(np.isfinite(entry), entry, 0.0))
    ray_ok &= np.isfinite(entry)

    seg = np.full((h_f, w_f), BACKGROUND_SEG_FLOOR)
    ray_fg = ~hard.valid_mask & ray_ok
    bins = np.where(ray_fg, ray_bins, hard.bins)
    peaked = bins >= 0
    seg[hard.foreground | ray_fg] = 1.0

    if noise > 0:
        rng = np.random.default_rng(seed)
        draws = rng.uniform(0.0, 1.0, size=(h_f * w_f, n_bins))
        seg = np.clip(seg + noise * rng.uniform(-0.3, 0.3, size=seg.shape), 0.0, 1.0)
    cells = None if seg_threshold is None else np.flatnonzero(seg >= seg_threshold)
    take = slice(None) if cells is None else cells
    peaked, bins = peaked.ravel()[take], bins.ravel()[take]

    # Each stored row is noise * (a seeded random distribution) + (1 - noise) *
    # (its clean row: one-hot at a peaked cell's bin, else uniform), built in the
    # buffer of its random draws; a bin the clean row leaves at 0 gets no sum.
    if noise > 0:
        depth = draws[take]
        depth /= depth.sum(axis=1, keepdims=True)
        depth *= noise
    else:
        depth = np.zeros((len(peaked), n_bins))
    np.add(depth, (1.0 / n_bins) * (1.0 - noise), out=depth, where=~peaked[:, None])
    depth[peaked, bins[peaked]] += 1.0 - noise

    if cells is None:
        depth_map = DepthDistributionMap(depth.reshape(h_f, w_f, n_bins), depth_cfg)
    else:
        depth_map = DepthDistributionMap(depth, depth_cfg, cells, (h_f, w_f))
    return depth_map, SegmentationMap(seg), hard


# --------------------------------------------------------------------------
# Scene serialization: {"format": SCENE_FORMAT} plus the fields of Scene
# --------------------------------------------------------------------------


def save_scene(scene: Scene, path) -> None:
    with open(path, "w") as fh:
        json.dump({"format": SCENE_FORMAT, **to_dict(scene)}, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_scene(path) -> Scene:
    """Read a scene file; a malformed one raises ValueError naming the path of the bad value."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        fmt = data.pop("format", None) if isinstance(data, dict) else None
        if fmt != SCENE_FORMAT:
            raise ValueError(f"scene file: format must be {SCENE_FORMAT!r}, got {fmt!r}")
        return from_dict(Scene, data, "scene file")
    except (json.JSONDecodeError, RecursionError) as exc:
        # Both the JSON decoder and the schema walk recurse once per nesting level.
        raise ValueError(f"scene file {path} is not valid JSON: {exc}") from None

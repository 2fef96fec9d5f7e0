"""Brute-force reference implementations for cross-checking the fast paths.

Everything here is written as plainly as possible: explicit loops, inline
trigonometry, no reuse of the vectorized production code. Slow on purpose;
these exist so the optimized implementations have something independent to
disagree with.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Box2D, Box3D, CameraModel, rotation_about_z
from .labels import DepthBinConfig, DepthDistributionMap, HardLabels, SegmentationMap
from .msfe import FeaturePyramid, ForegroundHeatmap
from .scene import SURFACE_INSET, Frame
from .view_transform import BevGridConfig, ContextFeatureMap, Frustum


def corners_reference(box: Box3D) -> np.ndarray:
    """Corner generator built corner-by-corner with inline trig."""
    l, w, h = box.size
    cy, sy = math.cos(box.yaw), math.sin(box.yaw)
    out = np.zeros((8, 3))
    signs = [
        (+1, +1, -1),
        (-1, +1, -1),
        (-1, -1, -1),
        (+1, -1, -1),
        (+1, +1, +1),
        (-1, +1, +1),
        (-1, -1, +1),
        (+1, -1, +1),
    ]
    for i, (sx, sw, sh) in enumerate(signs):
        x = sx * l / 2.0
        y = sw * w / 2.0
        z = sh * h / 2.0
        out[i, 0] = box.center[0] + cy * x - sy * y
        out[i, 1] = box.center[1] + sy * x + cy * y
        out[i, 2] = box.center[2] + z
    return out


def point_in_box_reference(box: Box3D, p) -> bool:
    """Half-space membership: signed distance against each face plane.

    Face planes come from the reference corners, so this route never touches
    the production yaw-rotation path.
    """
    corners = corners_reference(box)
    center = corners.mean(axis=0)
    # (corner indices spanning each face, chosen from the documented order)
    faces = [
        (0, 1, 2),  # bottom
        (4, 7, 6),  # top
        (0, 4, 5),  # +w side
        (3, 2, 6),  # -w side
        (0, 3, 7),  # +l end
        (1, 5, 6),  # -l end
    ]
    p = np.asarray(p, dtype=np.float64)
    for a, b, c in faces:
        n = np.cross(corners[b] - corners[a], corners[c] - corners[a])
        if np.dot(n, center - corners[a]) > 0:
            n = -n  # make the normal point outward
        if np.dot(n, p - corners[a]) > 1e-12 * np.linalg.norm(n):
            return False
    return True


def ray_entry_depth_reference(
    cam: CameraModel, boxes: list[Box3D], h_f: int, w_f: int, stride: int
) -> np.ndarray:
    """Every cell's center ray against every box, one scalar slab test at a time.

    The rays are set up with the production array expressions over all cells
    at once, so each box-frame ray has the production bits; the slab test then
    runs on every (box, cell) pair, with no box skipped and no cell culled.
    """
    rr, cc = np.mgrid[0:h_f, 0:w_f]
    u = (cc.ravel() + 0.5) * stride
    v = (rr.ravel() + 0.5) * stride
    dirs_cam = np.stack([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, np.ones(len(u))], axis=1)
    c2e = cam.cam_to_ego
    dirs = dirs_cam @ c2e.rotation.T
    out = np.full(h_f * w_f, math.inf)
    for box in boxes:
        rot = rotation_about_z(box.yaw)
        origin = (rot.T @ (c2e.translation - box.center)).tolist()
        half = box.half_size.tolist()
        for k, d in enumerate((dirs @ rot).tolist()):
            t_near, t_far = -math.inf, math.inf
            for axis in range(3):
                step = d[axis] if d[axis] != 0.0 else 1e-300
                t1 = (-half[axis] - origin[axis]) / step
                t2 = (half[axis] - origin[axis]) / step
                t_near = max(t_near, min(t1, t2))
                t_far = min(t_far, max(t1, t2))
            if 0.0 < t_near <= t_far and t_near < out[k]:
                out[k] = t_near
    return out.reshape(h_f, w_f)


def _project_pixel(cam: CameraModel, p_ego) -> tuple[float, float, float]:
    """Inline pinhole projection; returns (u, v, z) with no filtering."""
    q = cam.ego_to_cam.rotation @ np.asarray(p_ego, dtype=np.float64) + cam.ego_to_cam.translation
    z = q[2]
    return cam.fx * q[0] / z + cam.cx, cam.fy * q[1] / z + cam.cy, z


def box2d_reference(cam: CameraModel, box: Box3D) -> Box2D | None:
    """Clipped 2D box via per-corner projection and running min/max."""
    x1 = y1 = math.inf
    x2 = y2 = -math.inf
    any_front = False
    for corner in corners_reference(box):
        u, v, z = _project_pixel(cam, corner)
        if z <= 0:
            continue
        any_front = True
        x1, x2 = min(x1, u), max(x2, u)
        y1, y2 = min(y1, v), max(y2, v)
    if not any_front:
        return None
    w, h = cam.image_width - 1, cam.image_height - 1
    if x2 < 0 or y2 < 0 or x1 > w or y1 > h:
        return None
    return Box2D(max(x1, 0.0), max(y1, 0.0), min(x2, float(w)), min(y2, float(h)))


def pool_reference(
    ctx: ContextFeatureMap,
    depth: DepthDistributionMap,
    seg: SegmentationMap,
    frustum: Frustum,
    bev_cfg: BevGridConfig,
    seg_threshold: float,
) -> np.ndarray:
    """Entry-by-entry accumulation loop over the frustum table."""
    channels = ctx.values.shape[2]
    out = np.zeros((bev_cfg.grid_h, bev_cfg.grid_w, channels))
    cell_h = 2.0 * bev_cfg.range_xy / bev_cfg.grid_h
    cell_w = 2.0 * bev_cfg.range_xy / bev_cfg.grid_w
    z_lo, z_hi = bev_cfg.z_range
    for (r, c), b, p in frustum:
        s = seg.values[r, c]
        if s < seg_threshold:
            continue
        row = math.floor((p[1] + bev_cfg.range_xy) / cell_h)
        col = math.floor((p[0] + bev_cfg.range_xy) / cell_w)
        if not (0 <= row < bev_cfg.grid_h and 0 <= col < bev_cfg.grid_w):
            continue
        if not (z_lo <= p[2] <= z_hi):
            continue
        weight = depth.values[r, c, b] * s
        for k in range(channels):
            out[row, col, k] += weight * ctx.values[r, c, k]
    return out


def merge_reference(
    hard: HardLabels,
    soft_depth: DepthDistributionMap,
    soft_seg: SegmentationMap,
):
    """Cell-by-cell selection loop."""
    h, w = hard.shape
    depth = np.zeros_like(soft_depth.values)
    seg = np.zeros_like(soft_seg.values)
    for i in range(h):
        for j in range(w):
            if hard.bins[i, j] >= 0:
                depth[i, j, hard.bins[i, j]] = 1.0
                seg[i, j] = float(hard.foreground[i, j])
            else:
                depth[i, j] = soft_depth.values[i, j]
                seg[i, j] = soft_seg.values[i, j]
    return depth, seg


def hard_label_cell_count_reference(
    points: np.ndarray,
    cam: CameraModel,
    bin_cfg: DepthBinConfig,
    feature_stride: int,
) -> int:
    """Independent count of feature cells hit by at least one in-range point."""
    hit = set()
    for p in points:
        u, v, z = _project_pixel(cam, p)
        if z <= 0:
            continue
        if not (0 <= u <= cam.image_width - 1 and 0 <= v <= cam.image_height - 1):
            continue
        if not (bin_cfg.d_min <= z < bin_cfg.d_max):
            continue
        hit.add((int(v // feature_stride), int(u // feature_stride)))
    return len(hit)


def fc_counts_reference(current: Frame, adjacent: list[Frame]) -> list[int]:
    """Per-box point counts after combination, via transform-then-test loops."""
    counts = []
    clouds = [current.lidar.points]
    inv = np.linalg.inv(current.ego_pose.as_matrix())
    for frame in adjacent:
        rel = inv @ frame.ego_pose.as_matrix()
        moved = []
        for p in frame.lidar.points:
            q = rel @ np.array([p[0], p[1], p[2], 1.0])
            moved.append(q[:3])
        clouds.append(np.asarray(moved).reshape(-1, 3))
    for box in current.boxes:
        n = sum(1 for p in clouds[0] if point_in_box_reference(box, p))
        if box.is_stationary:
            for cloud in clouds[1:]:
                n += sum(1 for p in cloud if point_in_box_reference(box, p))
        counts.append(n)
    return counts


def pseudo_point_reference(cam: CameraModel, box: Box3D):
    """Eq-by-hand pseudo point: 2D box center plus 8-corner minimum depth.

    Returns (u, v, depth) or None when every corner sits behind the camera;
    applies no qualification gates.
    """
    x1 = y1 = math.inf
    x2 = y2 = -math.inf
    d = math.inf
    for corner in corners_reference(box):
        u, v, z = _project_pixel(cam, corner)
        if z <= 0:
            continue
        x1, x2 = min(x1, u), max(x2, u)
        y1, y2 = min(y1, v), max(y2, v)
        d = min(d, z)
    if not math.isfinite(d):
        return None
    return (x1 + x2) / 2.0, (y1 + y2) / 2.0, d


def distill_loss_reference(t: np.ndarray, s: np.ndarray, eps: float):
    """Per-cell loop over the normalized-difference terms."""
    h, w, _ = t.shape
    total = 0.0
    count = 0
    for i in range(h):
        for j in range(w):
            tn = math.sqrt(float(np.sum(t[i, j] ** 2)))
            if tn < eps:
                continue
            dn = math.sqrt(float(np.sum((t[i, j] - s[i, j]) ** 2)))
            total += dn / tn
            count += 1
    return (total / count if count else 0.0), count


def downsample_reference(arr: np.ndarray, factor: int) -> np.ndarray:
    """Average pooling with explicit window loops."""
    arr = np.asarray(arr, dtype=np.float64)
    h, w = arr.shape[:2]
    out = np.zeros((h // factor, w // factor) + arr.shape[2:])
    for i in range(h // factor):
        for j in range(w // factor):
            block = arr[i * factor : (i + 1) * factor, j * factor : (j + 1) * factor]
            out[i, j] = block.mean(axis=(0, 1))
    return out


def msfe_fuse_reference(
    pyr: FeaturePyramid, heatmap: ForegroundHeatmap, beta: float
) -> np.ndarray:
    """Literal three-term evaluation built on the loop downsampler."""
    s4f = np.where(heatmap.values >= beta, heatmap.values, 0.0)
    s8f = downsample_reference(s4f, 2)
    term8 = downsample_reference(pyr.f8 * s8f[:, :, None], 2)
    term4 = downsample_reference(pyr.f4 * s4f[:, :, None], 4)
    return pyr.f16 + term8 + term4


def heatmap_reference(
    boxes2d: list[Box2D], out_h: int, out_w: int, stride: int, sigma_divisor: float
) -> np.ndarray:
    """Closed-form Gaussian sampled cell by cell, combined by max."""
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            best = 0.0
            for box in boxes2d:
                cx = (box.x1 + box.x2) / 2.0 / stride
                cy = (box.y1 + box.y2) / 2.0 / stride
                sx = max((box.x2 - box.x1) / (stride * sigma_divisor), 1e-12)
                sy = max((box.y2 - box.y1) / (stride * sigma_divisor), 1e-12)
                val = math.exp(
                    -((j - cx) ** 2 / (2 * sx * sx) + (i - cy) ** 2 / (2 * sy * sy))
                )
                best = max(best, val)
            out[i, j] = best
    return out


def focal_loss_reference(
    pred: np.ndarray, target: np.ndarray, alpha: float, gamma: float
) -> float:
    """Per-cell summation of the penalty-reduced focal terms."""
    h, w = pred.shape
    total = 0.0
    n_pos = 0
    for i in range(h):
        for j in range(w):
            p = min(max(pred[i, j], 1e-6), 1.0 - 1e-6)
            t = target[i, j]
            if t == 1.0:
                total += -((1.0 - p) ** alpha) * math.log(p)
                n_pos += 1
            else:
                total += -((1.0 - t) ** gamma) * (p**alpha) * math.log(1.0 - p)
    return total / max(n_pos, 1)


def facing_side_faces(sensor_box_frame: np.ndarray, half) -> list[tuple[int, float]]:
    """(axis, sign) of the side faces whose outward normal points at the sensor."""
    faces = []
    for axis in (0, 1):
        for sign in (1.0, -1.0):
            # Outward normal is sign * e_axis; the face center sits at
            # sign * half[axis] along that axis.
            if sign * sensor_box_frame[axis] > half[axis]:
                faces.append((axis, sign))
    return faces


def surface_points_reference(rng, box: Box3D, n: int) -> np.ndarray:
    """Surface sampling one point at a time: face, then in-plane, then height."""
    if n == 0:
        return np.zeros((0, 3))
    half = box.half_size
    rot = rotation_about_z(box.yaw)
    faces = facing_side_faces(rot.T @ (-box.center), half)
    if not faces:
        return np.zeros((0, 3))
    areas = np.array([2 * half[1 - axis] * 2 * half[2] for axis, _ in faces])
    choice = rng.choice(len(faces), size=n, p=areas / areas.sum())
    pts = np.empty((n, 3))
    for i, face_idx in enumerate(choice):
        axis, sign = faces[face_idx]
        other = 1 - axis
        p = np.empty(3)
        p[axis] = sign * (half[axis] - SURFACE_INSET)
        p[other] = rng.uniform(-(half[other] - SURFACE_INSET), half[other] - SURFACE_INSET)
        p[2] = rng.uniform(-(half[2] - SURFACE_INSET), half[2] - SURFACE_INSET)
        pts[i] = p
    return pts @ rot.T + box.center


def background_level_reference(width: int, height: int, stride: int, channels: int) -> np.ndarray:
    """The smooth background evaluated over the full grid, one channel at a time."""
    h_f, w_f = height // stride, width // stride
    rr, cc = np.mgrid[0:h_f, 0:w_f].astype(np.float64)
    u = (cc + 0.5) * stride
    v = (rr + 0.5) * stride
    out = np.empty((h_f, w_f, channels))
    for k in range(channels):
        out[:, :, k] = 0.5 * np.sin(
            2.0 * math.pi * u / width * (1.0 + 0.37 * k) + 0.8 * k
        ) * np.cos(2.0 * math.pi * v / height * (0.5 + 0.23 * k) - 0.3 * k)
    return out


def box_blur_reference(batch: np.ndarray) -> np.ndarray:
    """3x3 box blur over an explicitly zero-padded (B, H, W, C) copy."""
    arr = np.asarray(batch, dtype=np.float64)
    padded = np.pad(arr, ((0, 0), (1, 1), (1, 1), (0, 0)))
    h, w = arr.shape[1:3]
    out = np.zeros_like(arr)
    for dy in range(3):
        for dx in range(3):
            out += padded[:, dy : dy + h, dx : dx + w, :]
    return out / 9.0

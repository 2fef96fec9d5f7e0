"""Multi-scale foreground enhancement: elliptical heatmap targets, threshold
filtering, average-pool downsampling, pyramid fusion, and the penalty-reduced
focal loss that supervises heatmaps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box2D

DEFAULT_SIGMA_DIVISOR = 6.0
# exp(-x) rounds to +0.0 for every x above about 745.13. More than this many
# sigmas from the center on either axis, that axis' term of the exponent alone
# exceeds 746, so a Gaussian is exactly +0.0 there and max(hm, +0.0) keeps hm.
GAUSSIAN_SUPPORT_SIGMAS = math.sqrt(2 * 746)
FOCAL_CLAMP_EPS = 1e-6
FOCAL_ALPHA, FOCAL_GAMMA = 2.0, 4.0  # the focal loss's alpha and gamma


@dataclass(frozen=True)
class FeaturePyramid:
    """Three feature maps at strides 4, 8, 16 with a shared channel count. f4 and f8 may
    store only some rows: rows4 and rows8 hold each stored row's whole-map id, ascending
    (every row by default); f16 is whole."""

    f4: np.ndarray
    f8: np.ndarray
    f16: np.ndarray
    rows4: np.ndarray | None = None
    rows8: np.ndarray | None = None

    def __post_init__(self):
        for name in ("f4", "f8", "f16"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 3:
                raise ValueError(f"{name} must be (H, W, C), got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} features must be finite")
            object.__setattr__(self, name, arr)
        if not (self.f4.shape[2] == self.f8.shape[2] == self.f16.shape[2]):
            raise ValueError("pyramid levels must share a channel count")
        h, w, _ = self.f16.shape
        for name, k in (("f4", 4), ("f8", 2)):
            ids = getattr(self, "rows" + name[1:])
            ids = np.arange(k * h) if ids is None else np.asarray(ids, dtype=np.intp)
            if ids.ndim != 1 or (np.diff(ids) <= 0).any() or ((ids < 0) | (ids >= k * h)).any():
                raise ValueError(f"rows{name[1:]} must be ascending row ids below {k * h}")
            if getattr(self, name).shape[:2] != (len(ids), k * w):
                raise ValueError(
                    f"pyramid spatial sizes must be in 1:2:4 ratio, got {self.f4.shape[:2]}, "
                    f"{self.f8.shape[:2]}, {self.f16.shape[:2]} for {len(ids)} stored {name} rows"
                )
            object.__setattr__(self, "rows" + name[1:], ids)

    @property
    def channels(self) -> int:
        return self.f16.shape[2]

    def row_index(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Where f4 or f8 stores each of the given whole-map rows; ValueError names one it
        does not store."""
        ids = getattr(self, "rows" + name[1:])
        at = np.full(len(self.f16) * 16 // int(name[1:]), -1)
        at[ids] = np.arange(len(ids))
        at = at[rows]
        if (at < 0).any():
            raise ValueError(f"{name} row {rows[np.argmax(at < 0)]} is not stored")
        return at


@dataclass(frozen=True)
class ForegroundHeatmap:
    """Stride-4 foreground confidence map with values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"heatmap must be 2-D, got shape {v.shape}")
        # One pass: NaN fails both comparisons, and each infinity fails one.
        if not ((v >= 0) & (v <= 1)).all():
            raise ValueError("heatmap values must lie in [0, 1]")
        object.__setattr__(self, "values", v)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def elliptical_gaussian_heatmap(
    boxes2d: list[Box2D],
    out_h: int,
    out_w: int,
    stride: int,
    sigma_divisor: float = DEFAULT_SIGMA_DIVISOR,
) -> ForegroundHeatmap:
    """Draw one axis-aligned elliptical Gaussian per 2D box, combined by maximum.

    Heatmap cell (i, j) samples the closed form at pixel (j*stride, i*stride).
    Per-axis spread scales with the box dimensions: sigma_x = width /
    (stride * sigma_divisor), likewise for y, so the default divisor puts the
    box edge at roughly three sigma from the center. Degenerate (zero-extent)
    axes collapse to a near-delta. Each Gaussian is evaluated only on its
    support, the cells within GAUSSIAN_SUPPORT_SIGMAS sigmas of its center on
    both axes; every other cell it would set to exactly +0.0.
    """
    hm = np.zeros((out_h, out_w))
    for box in boxes2d:
        cu, cv = box.center
        if not (math.isfinite(cu) and math.isfinite(cv)):
            raise ValueError(f"Box2D center must be finite, got {box}")
        cx, cy = cu / stride, cv / stride
        sx = max(box.width / (stride * sigma_divisor), 1e-12)
        sy = max(box.height / (stride * sigma_divisor), 1e-12)
        x0, x1 = _support(cx, sx, out_w)
        y0, y1 = _support(cy, sy, out_h)
        if x0 == x1 or y0 == y1:
            continue
        xx = np.arange(x0, x1, dtype=np.float64)
        yy = np.arange(y0, y1, dtype=np.float64)[:, None]
        g = np.exp(-((xx - cx) ** 2 / (2 * sx**2) + (yy - cy) ** 2 / (2 * sy**2)))
        support = hm[y0:y1, x0:x1]
        np.maximum(support, g, out=support)
    return ForegroundHeatmap(hm)


def _support(center: float, sigma: float, size: int) -> tuple[int, int]:
    """Cells lo:hi within GAUSSIAN_SUPPORT_SIGMAS * sigma of center, clipped to 0:size."""
    half = GAUSSIAN_SUPPORT_SIGMAS * sigma
    lo, hi = np.clip([np.ceil(center - half), np.floor(center + half) + 1], 0, size)
    return int(lo), int(hi)


def threshold_filter(heatmap: ForegroundHeatmap, beta: float) -> ForegroundHeatmap:
    """Zero out cells below beta; values at or above beta pass unchanged."""
    v = heatmap.values
    return ForegroundHeatmap(np.where(v >= beta, v, 0.0))


def downsample(values: np.ndarray, factor: int) -> np.ndarray:
    """Non-overlapping factor x factor average pooling, per channel.

    Accepts (H, W) or (H, W, C); spatial dimensions must be divisible by the
    factor.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ValueError(f"expected (H, W) or (H, W, C), got shape {arr.shape}")
    h, w = arr.shape[:2]
    if factor < 1 or h % factor or w % factor:
        raise ValueError(f"factor {factor} does not divide spatial dims {h}x{w}")
    shape = (h // factor, factor, w // factor, factor) + arr.shape[2:]
    return arr.reshape(shape).mean(axis=(1, 3))


def foreground_bands(heatmap: ForegroundHeatmap, beta: float):
    """threshold_filter's values, the stride-16 rows whose 4-row band of them holds a
    non-zero cell, and those rows' stride-8 and stride-4 rows, all ascending."""
    mask4 = threshold_filter(heatmap, beta).values
    rows = np.flatnonzero(mask4.reshape(-1, 4 * mask4.shape[1]).any(axis=1))
    return mask4, rows, *((k * rows[:, None] + np.arange(k)).ravel() for k in (2, 4))


def msfe_fuse(pyr: FeaturePyramid, heatmap: ForegroundHeatmap, beta: float) -> np.ndarray:
    """Fuse foreground-gated high-resolution features into the stride-16 map.

    Computes the filtered heatmap, gates f4 and f8 with it (broadcast across
    channels), average-pools both down to stride 16, and adds them to a copy
    of f16. Only the stride-16 rows whose 4-row band of the mask holds a
    non-zero cell are gated and pooled, so pyr must store only their f4 and f8
    rows. In every other row both terms are signed zeros, so skipping them can
    change only the sign of a zero f16 cell. The kept rows go through the same
    `downsample` reshape as the whole map, so every other cell keeps its bits
    (README "Determinism").
    """
    h, w, _ = pyr.f16.shape
    if heatmap.shape != (4 * h, 4 * w):
        raise ValueError(f"heatmap shape {heatmap.shape} must match f4 spatial {(4 * h, 4 * w)}")
    mask4, rows, band8, band4 = foreground_bands(heatmap, beta)
    mask4 = mask4[band4]
    term8 = downsample(pyr.f8[pyr.row_index("f8", band8)] * downsample(mask4, 2)[:, :, None], 2)
    term4 = downsample(pyr.f4[pyr.row_index("f4", band4)] * mask4[:, :, None], 4)
    fused = pyr.f16.copy()
    fused[rows] = fused[rows] + term8 + term4
    return fused


def gaussian_focal_loss(pred: ForegroundHeatmap, target: ForegroundHeatmap) -> float:
    """Penalty-reduced focal loss for Gaussian heatmap targets.

    Cells with target exactly 1 are positives: -(1-p)^alpha * log(p).
    Everywhere else: -(1-t)^gamma * p^alpha * log(1-p), with alpha = FOCAL_ALPHA
    and gamma = FOCAL_GAMMA. The sum is averaged over the positive count
    (floored at 1); predictions are clamped away from 0 and 1 before the logs.
    """
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    p = np.clip(pred.values, FOCAL_CLAMP_EPS, 1.0 - FOCAL_CLAMP_EPS)
    t = target.values
    pos = t == 1.0
    pos_loss = -((1.0 - p[pos]) ** FOCAL_ALPHA) * np.log(p[pos])
    neg_loss = -((1.0 - t[~pos]) ** FOCAL_GAMMA) * (p[~pos] ** FOCAL_ALPHA) * np.log1p(-p[~pos])
    n_pos = max(int(pos.sum()), 1)
    return float((pos_loss.sum() + neg_loss.sum()) / n_pos)

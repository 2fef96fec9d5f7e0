"""Foreground-filtered lift-splat pooling into bird's-eye-view grids.

The frustum is one camera's lift geometry: each (feature cell, depth bin)
pair back-projects to an ego-frame point at the bin-center depth. Pooling
gates first: it finds the feature cells whose segmentation clears the
threshold, lifts only their entries in (row, col, bin) lexicographic order,
weights context features by depth probability times segmentation, and sums
them into BEV cells. The BEV grid stores only the window of cells that
received an entry; every other cell is zero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .config import bounded, check_fields
from .geometry import CameraModel
from .labels import (
    DepthBinConfig,
    DepthDistributionMap,
    HardLabels,
    SegmentationMap,
    merge_labels,
)

DEFAULT_SEG_THRESHOLD = 0.25


@dataclass(frozen=True)
class BevGridConfig:
    """Square detection region of half-extent range_xy split into grid cells.

    Cell (row, col) covers y in [-range_xy + row*cell_h, ...) and x in
    [-range_xy + col*cell_w, ...); points on the far edges fall outside.
    The z_range gate excludes points above or below the slab.
    """

    range_xy: float = bounded(51.2, gt=0)
    grid_h: int = bounded(128, ge=1)
    grid_w: int = bounded(128, ge=1)
    z_range: tuple[float, float] = (-5.0, 3.0)

    def __post_init__(self):
        check_fields(self)
        if self.z_range[1] <= self.z_range[0]:
            raise ValueError(f"empty z_range {self.z_range}")

    @property
    def cell_size(self) -> tuple[float, float]:
        return 2 * self.range_xy / self.grid_h, 2 * self.range_xy / self.grid_w

    def cells_for_points(self, points: np.ndarray):
        """(rows, cols, in_range) for (N, 3) ego points."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        ch, cw = self.cell_size
        # A subnormal (or zero) cell size sends quotients past the int64 range; clipped
        # to one cell outside the grid, they cast exactly and stay out of range.
        with np.errstate(over="ignore", divide="ignore"):
            rows = np.floor((pts[:, 1] + self.range_xy) / ch)
            cols = np.floor((pts[:, 0] + self.range_xy) / cw)
        rows = np.clip(rows, -1, self.grid_h, out=rows).astype(np.int64)
        cols = np.clip(cols, -1, self.grid_w, out=cols).astype(np.int64)
        ok = (
            (rows >= 0)
            & (rows < self.grid_h)
            & (cols >= 0)
            & (cols < self.grid_w)
            & (pts[:, 2] >= self.z_range[0])
            & (pts[:, 2] <= self.z_range[1])
        )
        return rows, cols, ok


@dataclass(frozen=True)
class ContextFeatureMap:
    """Per-cell context feature vectors, shape (H_f, W_f, C)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise ValueError(f"context map must be (H, W, C), got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("context features must be finite")
        object.__setattr__(self, "values", v)

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class BevFeatureGrid:
    """BEV feature grid of shape (grid_h, grid_w, C), tied to its grid config.

    Only a window is stored: `window` holds the rows origin[0]:origin[0]+h and
    the columns origin[1]:origin[1]+w, and every cell outside it is +0.0.
    Without an origin, `window` must be the whole grid.
    """

    window: np.ndarray
    cfg: BevGridConfig
    origin: tuple[int, int] | None = None

    def __post_init__(self):
        v = np.asarray(self.window, dtype=np.float64)
        grid = (self.cfg.grid_h, self.cfg.grid_w)
        if self.origin is None:
            fits = v.ndim == 3 and v.shape[:2] == grid
            origin = (0, 0)
        else:
            origin = tuple(int(o) for o in self.origin)
            fits = v.ndim == 3 and all(
                0 <= o and o + n <= g for o, n, g in zip(origin, v.shape[:2], grid)
            )
        if not fits:
            where = "" if self.origin is None else f" at {origin}"
            raise ValueError(
                f"grid values {v.shape}{where} inconsistent with config "
                f"{self.cfg.grid_h}x{self.cfg.grid_w}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("BEV features must be finite")
        object.__setattr__(self, "window", v)
        object.__setattr__(self, "origin", origin)

    @property
    def channels(self) -> int:
        return self.window.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.cfg.grid_h, self.cfg.grid_w, self.channels

    @property
    def bounds(self) -> tuple[int, int, int, int]:
        """(row0, row1, col0, col1) of the window; rows row0:row1, cols col0:col1."""
        (r0, c0), (h, w) = self.origin, self.window.shape[:2]
        return r0, r0 + h, c0, c0 + w

    def crop(self, bounds: tuple[int, int, int, int]) -> np.ndarray:
        """The full grid's block at rows r0:r1, cols c0:c1 as an (r1-r0, c1-c0, C) array."""
        if bounds == self.bounds:
            return self.window
        r0, r1, c0, c1 = bounds
        sr0, sr1, sc0, sc1 = self.bounds
        out = np.zeros((r1 - r0, c1 - c0, self.channels))
        lo_r, hi_r, lo_c, hi_c = max(r0, sr0), min(r1, sr1), max(c0, sc0), min(c1, sc1)
        if lo_r < hi_r and lo_c < hi_c:
            out[lo_r - r0 : hi_r - r0, lo_c - c0 : hi_c - c0] = self.window[
                lo_r - sr0 : hi_r - sr0, lo_c - sc0 : hi_c - sc0
            ]
        return out

    @property
    def values(self) -> np.ndarray:
        """The full (grid_h, grid_w, C) array, built on each access."""
        return self.crop((0, self.cfg.grid_h, 0, self.cfg.grid_w))

    def occupancy(self) -> np.ndarray:
        """Per-cell L2 norm across channels, shape (grid_h, grid_w)."""
        r0, r1, c0, c1 = self.bounds
        out = np.zeros((self.cfg.grid_h, self.cfg.grid_w))
        out[r0:r1, c0:c1] = np.linalg.norm(self.window, axis=2)
        return out


@dataclass(frozen=True)
class Frustum:
    """Lift geometry of one camera: feature cells at `stride` times depth bins.

    `entries` back-projects chosen cells; `rows`, `cols`, `bins` and `points`
    are the whole table, every cell in (row, col, bin) lexicographic order,
    built on first access.
    """

    cam: CameraModel
    bin_cfg: DepthBinConfig
    stride: int
    feature_shape: tuple[int, int] = field(init=False)
    n_bins: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "feature_shape", self.cam.feature_grid_shape(self.stride))
        object.__setattr__(self, "n_bins", self.bin_cfg.n_bins)

    def entries(self, cell_rows: np.ndarray, cell_cols: np.ndarray):
        """(rows, cols, bins, points) for every bin of the given cells, cell by cell.

        Feature cell (r, c) uses the pixel at the cell center, ((c+0.5)*stride,
        (r+0.5)*stride), at each bin-center depth, so projecting the ego point
        back into the camera recovers the source cell and bin. Each entry's
        point depends only on its (row, col, bin), so a subset of cells gets
        exactly the points the whole table holds for them.
        """
        cam, stride, n_bins = self.cam, self.stride, self.n_bins
        rows = np.repeat(cell_rows, n_bins)
        cols = np.repeat(cell_cols, n_bins)
        bins = np.tile(np.arange(n_bins), len(cell_rows))
        u = (cols + 0.5) * stride
        v = (rows + 0.5) * stride
        d = self.bin_cfg.bin_centers()[bins]
        x = (u - cam.cx) / cam.fx * d
        y = (v - cam.cy) / cam.fy * d
        points = cam.cam_to_ego.apply(np.stack([x, y, d], axis=1))
        return rows, cols, bins, points

    @functools.cached_property
    def _table(self):
        h_f, w_f = self.feature_shape
        r, c = np.meshgrid(np.arange(h_f), np.arange(w_f), indexing="ij")
        return self.entries(r.ravel(), c.ravel())

    rows = property(lambda self: self._table[0])
    cols = property(lambda self: self._table[1])
    bins = property(lambda self: self._table[2])
    points = property(lambda self: self._table[3])

    def __len__(self) -> int:
        h_f, w_f = self.feature_shape
        return h_f * w_f * self.n_bins

    def __iter__(self):
        for r, c, b, p in zip(self.rows, self.cols, self.bins, self.points):
            yield (int(r), int(c)), int(b), p


def build_frustum(cam: CameraModel, bin_cfg: DepthBinConfig, feature_stride: int) -> Frustum:
    """The lift geometry of `cam`; no entry is back-projected until one is asked for."""
    return Frustum(cam, bin_cfg, feature_stride)


def sa_bev_pool(
    ctx: ContextFeatureMap,
    depth: DepthDistributionMap,
    seg: SegmentationMap,
    frustum: Frustum,
    bev_cfg: BevGridConfig,
    seg_threshold: float = DEFAULT_SEG_THRESHOLD,
) -> BevFeatureGrid:
    """Splat foreground frustum entries into the BEV grid.

    An entry contributes depth(cell, bin) * seg(cell) * ctx(cell) to the BEV
    cell containing its ego point, but only when seg(cell) >= seg_threshold
    and the point lies inside the grid range; everything else is dropped.
    Only the cells that pass the gate are lifted, in (row, col, bin) order,
    and accumulation is summation in that order. The grid's window is the
    bounding box of the BEV cells that receive an entry.
    """
    h_f, w_f = frustum.feature_shape
    if ctx.shape[:2] != (h_f, w_f):
        raise ValueError(f"context shape {ctx.shape[:2]} != frustum cells {h_f}x{w_f}")
    if depth.shape != (h_f, w_f) or depth.values.shape[2] != frustum.n_bins:
        raise ValueError(
            f"depth map {depth.values.shape} inconsistent with frustum "
            f"{h_f}x{w_f}x{frustum.n_bins}"
        )
    if seg.shape != (h_f, w_f):
        raise ValueError(f"seg shape {seg.shape} != frustum cells {h_f}x{w_f}")

    channels = ctx.values.shape[2]
    rows, cols, bins, points = frustum.entries(*np.nonzero(seg.values >= seg_threshold))
    brow, bcol, ok = bev_cfg.cells_for_points(points)
    rows, cols, bins, brow, bcol = rows[ok], cols[ok], bins[ok], brow[ok], bcol[ok]
    if len(brow) == 0:
        return BevFeatureGrid(np.zeros((0, 0, channels)), bev_cfg, (0, 0))
    r0, c0 = int(brow.min()), int(bcol.min())
    height, width = int(brow.max()) + 1 - r0, int(bcol.max()) + 1 - c0
    weight = depth.values[rows, cols, bins] * seg.values[rows, cols]
    contrib = weight[:, None] * ctx.values[rows, cols]
    # bincount adds each (cell, channel) bucket's weights in entry order from +0.0.
    bucket = ((brow - r0) * width + (bcol - c0))[:, None] * channels + np.arange(channels)
    sums = np.bincount(bucket.ravel(), contrib.ravel(), minlength=height * width * channels)
    return BevFeatureGrid(sums.reshape(height, width, channels), bev_cfg, (r0, c0))


def teacher_bev(
    ctx: ContextFeatureMap,
    hard: HardLabels,
    soft_depth: DepthDistributionMap,
    soft_seg: SegmentationMap,
    frustum: Frustum,
    bev_cfg: BevGridConfig,
    seg_threshold: float = DEFAULT_SEG_THRESHOLD,
) -> BevFeatureGrid:
    """Merge hard labels over the soft ones, then pool the merged pair."""
    merged_depth, merged_seg = merge_labels(hard, soft_depth, soft_seg)
    return sa_bev_pool(ctx, merged_depth, merged_seg, frustum, bev_cfg, seg_threshold)

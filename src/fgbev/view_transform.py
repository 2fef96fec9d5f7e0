"""Foreground-filtered lift-splat pooling into bird's-eye-view grids.

The frustum is one camera's lift geometry: each (feature cell, depth bin)
pair back-projects to an ego-frame point at the bin-center depth. Pooling
gates first: it finds the feature cells whose segmentation clears the
threshold, weights each of their (cell, bin) entries by depth probability
times segmentation, lifts only the entries of non-zero weight in (row, col,
bin) lexicographic order, and sums their weighted context features into BEV
cells. An entry of weight exactly 0 cannot change a sum, so it is never
lifted; the BEV grid stores only the cells that received an entry of non-zero
weight, in row-major order, and every other cell is +0.0.
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

    Only occupied cells are stored: `cells` holds strictly increasing flat
    cell ids (row * grid_w + col), row k of the (K, C) `features` is cell
    cells[k], and every other cell is +0.0.
    """

    cells: np.ndarray
    features: np.ndarray
    cfg: BevGridConfig

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.int64)
        v = np.asarray(self.features, dtype=np.float64)
        n = self.cfg.grid_h * self.cfg.grid_w
        if cells.ndim != 1 or v.ndim != 2 or len(v) != len(cells):
            raise ValueError(f"cells {cells.shape} and features {v.shape} must be (K,) and (K, C)")
        if len(cells) and not (cells[0] >= 0 and cells[-1] < n and np.all(cells[1:] > cells[:-1])):
            raise ValueError(f"cell ids must be strictly increasing and in [0, {n})")
        if not np.all(np.isfinite(v)):
            raise ValueError("BEV features must be finite")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "features", v)

    @classmethod
    def from_values(cls, values: np.ndarray, cfg: BevGridConfig) -> "BevFeatureGrid":
        """Every cell of a full (grid_h, grid_w, C) array, so `values` returns its bits."""
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 3 or v.shape[:2] != (cfg.grid_h, cfg.grid_w):
            raise ValueError(
                f"grid values {v.shape} inconsistent with config {cfg.grid_h}x{cfg.grid_w}"
            )
        return cls(np.arange(cfg.grid_h * cfg.grid_w), v.reshape(-1, v.shape[2]), cfg)

    @property
    def channels(self) -> int:
        return self.features.shape[1]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.cfg.grid_h, self.cfg.grid_w, self.channels

    @property
    def values(self) -> np.ndarray:
        """The full (grid_h, grid_w, C) array, built on each access."""
        out = np.zeros((self.cfg.grid_h * self.cfg.grid_w, self.channels))
        out[self.cells] = self.features
        return out.reshape(self.shape)

    def occupancy(self) -> np.ndarray:
        """Per-cell L2 norm across channels, shape (grid_h, grid_w)."""
        out = np.zeros(self.cfg.grid_h * self.cfg.grid_w)
        out[self.cells] = np.linalg.norm(self.features, axis=1)
        return out.reshape(self.cfg.grid_h, self.cfg.grid_w)

    def lookup(self, pad: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(lut, rows) for gathering cells of the grid padded by `pad` cells on each side.

        `rows` is `features` followed by one +0.0 row; lut[row + pad, col + pad]
        is the row of `rows` that holds cell (row, col), and the +0.0 row for
        every cell that is not stored or lies in the padding.
        """
        lut = np.full((self.cfg.grid_h + 2 * pad, self.cfg.grid_w + 2 * pad), len(self.cells))
        r, c = np.divmod(self.cells, self.cfg.grid_w)
        lut[r + pad, c + pad] = np.arange(len(self.cells))
        return lut, np.concatenate([self.features, np.zeros((1, self.channels))])


@dataclass(frozen=True)
class Frustum:
    """Lift geometry of one camera: feature cells at `stride` times depth bins.

    `lift` back-projects chosen (cell, bin) entries; `rows`, `cols`, `bins` and
    `points` are the whole table, every cell in (row, col, bin) lexicographic
    order, built through `lift` on first access.
    """

    cam: CameraModel
    bin_cfg: DepthBinConfig
    stride: int
    feature_shape: tuple[int, int] = field(init=False)
    n_bins: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "feature_shape", self.cam.feature_grid_shape(self.stride))
        object.__setattr__(self, "n_bins", self.bin_cfg.n_bins)

    def lift(self, rows: np.ndarray, cols: np.ndarray, bins: np.ndarray) -> np.ndarray:
        """(N, 3) ego points of the entries (rows[k], cols[k], bins[k]).

        Feature cell (r, c) uses the pixel at the cell center, ((c+0.5)*stride,
        (r+0.5)*stride), at the bin-center depth, so projecting the ego point
        back into the camera recovers the source cell and bin. Each point
        depends only on its own (row, col, bin), so any subset of entries gets
        exactly the points the whole table holds for them.
        """
        cam, stride = self.cam, self.stride
        u = (cols + 0.5) * stride
        v = (rows + 0.5) * stride
        d = self.bin_cfg.bin_centers()[bins]
        x = (u - cam.cx) / cam.fx * d
        y = (v - cam.cy) / cam.fy * d
        return cam.cam_to_ego.apply(np.stack([x, y, d], axis=1))

    @functools.cached_property
    def _table(self):
        h_f, w_f, n_bins = *self.feature_shape, self.n_bins
        rows = np.repeat(np.arange(h_f), w_f * n_bins)
        cols = np.tile(np.repeat(np.arange(w_f), n_bins), h_f)
        bins = np.tile(np.arange(n_bins), h_f * w_f)
        return rows, cols, bins, self.lift(rows, cols, bins)

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
    The cells that pass the gate give one (cells, bins) weight array; only
    its entries of non-zero weight are lifted, in (row, col, bin) order, and
    accumulation is summation in that order. So the grid stores the BEV cells
    that receive an entry of non-zero weight.
    """
    h_f, w_f = frustum.feature_shape
    if ctx.shape[:2] != (h_f, w_f):
        raise ValueError(f"context shape {ctx.shape[:2]} != frustum cells {h_f}x{w_f}")
    if depth.shape != (h_f, w_f) or depth.bin_cfg.n_bins != frustum.n_bins:
        raise ValueError(
            f"depth map {(*depth.shape, depth.bin_cfg.n_bins)} inconsistent with frustum "
            f"{h_f}x{w_f}x{frustum.n_bins}"
        )
    if seg.shape != (h_f, w_f):
        raise ValueError(f"seg shape {seg.shape} != frustum cells {h_f}x{w_f}")

    channels = ctx.values.shape[2]
    gate_rows, gate_cols = np.nonzero(seg.values >= seg_threshold)
    weights = depth.gather(gate_rows, gate_cols)
    weights *= seg.values[gate_rows, gate_cols][:, None]
    # An entry of weight exactly 0 adds +-0.0, which never changes a sum that starts at +0.0.
    carried = weights != 0
    weight = weights[carried]
    cell, bins = np.nonzero(carried)
    rows, cols = gate_rows[cell], gate_cols[cell]
    brow, bcol, ok = bev_cfg.cells_for_points(frustum.lift(rows, cols, bins))
    rows, cols, weight = rows[ok], cols[ok], weight[ok]
    cells, inv = np.unique(brow[ok] * bev_cfg.grid_w + bcol[ok], return_inverse=True)
    contrib = ctx.values[rows, cols]
    contrib *= weight[:, None]
    # bincount adds each (cell, channel) bucket's weights in entry order from +0.0.
    # One bincount per channel is bit-equal but 2-4x slower; add.reduceat is not bit-equal.
    bucket = inv[:, None] * channels + np.arange(channels)
    sums = np.bincount(bucket.ravel(), contrib.ravel(), minlength=len(cells) * channels)
    return BevFeatureGrid(cells, sums.reshape(-1, channels), bev_cfg)


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

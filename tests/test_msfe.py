import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fgbev import oracles
from fgbev.geometry import Box2D
from fgbev.msfe import (
    FeaturePyramid,
    ForegroundHeatmap,
    downsample,
    elliptical_gaussian_heatmap,
    gaussian_focal_loss,
    msfe_fuse,
    threshold_filter,
)


def lone_box_heatmap():
    # Box center at pixel (40, 32) = cell (8, 10); sigma_x = 2 cells, sigma_y = 1.
    box = Box2D(16.0, 20.0, 64.0, 44.0)
    return box, elliptical_gaussian_heatmap([box], 20, 20, 4)


class TestEllipticalHeatmap:
    def test_empty_list_all_zero(self):
        hm = elliptical_gaussian_heatmap([], 8, 8, 4)
        assert not hm.values.any()

    def test_center_cell_is_one(self):
        _, hm = lone_box_heatmap()
        assert hm.values[8, 10] == 1.0

    def test_one_sigma_offsets(self):
        _, hm = lone_box_heatmap()
        assert math.isclose(hm.values[8, 12], math.exp(-0.5), abs_tol=1e-12)
        assert math.isclose(hm.values[9, 10], math.exp(-0.5), abs_tol=1e-12)

    def test_wide_box_iso_contour_aspect(self):
        # Width is twice the height, so x offsets count half as much.
        _, hm = lone_box_heatmap()
        for d in (1, 2, 3):
            assert math.isclose(hm.values[8, 10 + 2 * d], hm.values[8 + d, 10], rel_tol=1e-12)

    def test_monotone_decay_along_axes(self):
        _, hm = lone_box_heatmap()
        row = hm.values[8, 10:]
        col = hm.values[8:, 10]
        assert np.all(np.diff(row) <= 0)
        assert np.all(np.diff(col) <= 0)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(0)
        w_cells, h_cells, stride = 24, 16, 4
        width_px = (w_cells - 1) * stride
        boxes, mirrored = [], []
        for _ in range(4):
            x1, y1 = rng.uniform(0, 60), rng.uniform(0, 40)
            x2, y2 = x1 + rng.uniform(4, 20), y1 + rng.uniform(4, 20)
            boxes.append(Box2D(x1, y1, x2, y2))
            mirrored.append(Box2D(width_px - x2, y1, width_px - x1, y2))
        a = elliptical_gaussian_heatmap(boxes, h_cells, w_cells, stride)
        b = elliptical_gaussian_heatmap(mirrored, h_cells, w_cells, stride)
        assert np.allclose(b.values, np.fliplr(a.values), atol=1e-12)

    def test_overlap_combines_by_maximum(self):
        box_a = Box2D(0.0, 0.0, 32.0, 32.0)
        box_b = Box2D(16.0, 16.0, 48.0, 48.0)
        both = elliptical_gaussian_heatmap([box_a, box_b], 16, 16, 4)
        a = elliptical_gaussian_heatmap([box_a], 16, 16, 4)
        b = elliptical_gaussian_heatmap([box_b], 16, 16, 4)
        assert np.array_equal(both.values, np.maximum(a.values, b.values))

    def test_matches_sampling_oracle(self):
        rng = np.random.default_rng(1)
        boxes = [
            Box2D(5.0, 3.0, 30.0, 12.0),
            Box2D(20.0, 20.0, 28.0, 44.0),
            Box2D(float(rng.uniform(0, 10)), 0.0, 50.0, 50.0),
        ]
        got = elliptical_gaussian_heatmap(boxes, 14, 14, 4)
        want = oracles.heatmap_reference(boxes, 14, 14, 4, 6.0)
        assert np.abs(got.values - want).max() < 1e-12

    def test_degenerate_box_collapses(self):
        hm = elliptical_gaussian_heatmap([Box2D(8.0, 8.0, 8.0, 8.0)], 8, 8, 4)
        assert hm.values[2, 2] == 1.0
        assert hm.values.sum() == 1.0


def whole_map_heatmap(boxes2d, out_h, out_w, stride, sigma_divisor=6.0):
    """Each Gaussian evaluated over the whole map: the expression the support must match."""
    hm = np.zeros((out_h, out_w))
    yy, xx = np.mgrid[0:out_h, 0:out_w].astype(np.float64)
    for box in boxes2d:
        cu, cv = box.center
        cx, cy = cu / stride, cv / stride
        sx = max(box.width / (stride * sigma_divisor), 1e-12)
        sy = max(box.height / (stride * sigma_divisor), 1e-12)
        g = np.exp(-((xx - cx) ** 2 / (2 * sx**2) + (yy - cy) ** 2 / (2 * sy**2)))
        np.maximum(hm, g, out=hm)
    return hm


# Boxes on a 16 x 24 map at stride 4 (64 x 96 pixels), with the map edge that
# each one's non-zero cells must reach, if any.
SUPPORT_CASES = {
    "clipped-left": ([Box2D(-10.0, 20.0, 6.0, 36.0)], lambda v: v[:, 0]),
    "clipped-right": ([Box2D(88.0, 20.0, 104.0, 36.0)], lambda v: v[:, -1]),
    "clipped-top": ([Box2D(30.0, -12.0, 50.0, 4.0)], lambda v: v[0]),
    "clipped-bottom": ([Box2D(30.0, 58.0, 50.0, 70.0)], lambda v: v[-1]),
    # Zero width: sigma_x sits at its 1e-12 floor, so only column 10 is non-zero.
    "sigma-floor-x": ([Box2D(40.0, 10.0, 40.0, 40.0)], lambda v: v[:, 10]),
    "sigma-floor-x-between-cells": ([Box2D(41.0, 10.0, 41.0, 40.0)], None),
    "sigma-floor-both": (
        [Box2D(40.0, 32.0, 40.0, 32.0), Box2D(41.0, 33.0, 41.0, 33.0)],
        lambda v: v[8, 10:11],
    ),
    "off-map": ([Box2D(1000.0, 1000.0, 1004.0, 1004.0), Box2D(-40.0, -9.0, -36.0, -8.0)], None),
    # Centred off the map, but wide enough that its tail reaches every cell.
    "off-map-wide-tail": ([Box2D(-300.0, 10.0, -200.0, 30.0)], lambda v: v[:, -1]),
    "larger-than-map": ([Box2D(-400.0, -300.0, 500.0, 400.0)], lambda v: v.ravel()),
}


class TestHeatmapSupport:
    @pytest.mark.parametrize("name", sorted(SUPPORT_CASES))
    def test_matches_whole_map_bitwise(self, name):
        boxes, edge = SUPPORT_CASES[name]
        got = elliptical_gaussian_heatmap(boxes, 16, 24, 4).values
        want = whole_map_heatmap(boxes, 16, 24, 4)
        assert got.tobytes() == want.tobytes()
        if edge is None:
            assert not want.any()
        else:
            assert edge(want).all()

    def test_all_cases_together_match_whole_map_bitwise(self):
        boxes = [b for case, _ in SUPPORT_CASES.values() for b in case]
        got = elliptical_gaussian_heatmap(boxes, 16, 24, 4).values
        assert got.tobytes() == whole_map_heatmap(boxes, 16, 24, 4).tobytes()

    def test_random_boxes_match_whole_map_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            h, w = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            stride = int(rng.choice([1, 4, 16]))
            divisor = float(rng.choice([0.5, 6.0, 20.0]))
            boxes = []
            for _ in range(int(rng.integers(1, 5))):
                x1 = rng.uniform(-w * stride, 2 * w * stride)
                y1 = rng.uniform(-h * stride, 2 * h * stride)
                bw, bh = rng.uniform(0, 3 * w * stride), rng.uniform(0, 3 * h * stride)
                boxes.append(Box2D(x1, y1, x1 + bw * (rng.random() < 0.8), y1 + bh))
            got = elliptical_gaussian_heatmap(boxes, h, w, stride, divisor).values
            assert got.tobytes() == whole_map_heatmap(boxes, h, w, stride, divisor).tobytes()

    @pytest.mark.parametrize(
        "coords",
        [
            (-math.inf, 0.0, 8.0, 8.0),
            (0.0, 0.0, math.inf, 8.0),
            (0.0, -math.inf, 8.0, math.inf),
            (math.inf, math.inf, math.inf, math.inf),
            (math.nan, 0.0, 8.0, 8.0),
            (0.0, 0.0, 8.0, math.nan),
        ],
    )
    def test_non_finite_box_raises_value_error(self, coords):
        with pytest.raises(ValueError, match="finite"):
            elliptical_gaussian_heatmap([Box2D(*coords)], 16, 24, 4)


class TestThresholdFilter:
    def test_beta_zero_is_identity(self):
        rng = np.random.default_rng(2)
        hm = ForegroundHeatmap(rng.uniform(0, 1, (6, 6)))
        assert np.array_equal(threshold_filter(hm, 0.0).values, hm.values)

    def test_beta_above_one_zeroes_subunit_values(self):
        rng = np.random.default_rng(3)
        hm = ForegroundHeatmap(rng.uniform(0, 0.99, (6, 6)))
        assert not threshold_filter(hm, 1.0 + 1e-9).values.any()

    def test_default_beta_cut(self):
        hm = ForegroundHeatmap(np.array([[0.05, 0.1], [0.099999, 0.5]]))
        out = threshold_filter(hm, 0.1)
        assert np.array_equal(out.values, [[0.0, 0.1], [0.0, 0.5]])

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(np.float64, (5, 4), elements=st.floats(0, 1)),
        st.floats(0, 1),
    )
    def test_idempotent(self, values, beta):
        hm = ForegroundHeatmap(values)
        once = threshold_filter(hm, beta)
        twice = threshold_filter(once, beta)
        assert np.array_equal(once.values, twice.values)

    def test_passing_values_unchanged(self):
        hm = ForegroundHeatmap(np.array([[0.3, 0.7]]))
        out = threshold_filter(hm, 0.3)
        assert out.values[0, 0] == 0.3 and out.values[0, 1] == 0.7


class TestDownsample:
    def test_constant_preserved(self):
        arr = np.full((8, 12), 3.25)
        assert np.array_equal(downsample(arr, 4), np.full((2, 3), 3.25))

    def test_block_mean(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert downsample(arr, 2)[0, 0] == 2.5

    def test_factor_four_equals_two_twice(self):
        rng = np.random.default_rng(4)
        arr = rng.normal(0, 1, (16, 24, 3))
        a = downsample(arr, 4)
        b = downsample(downsample(arr, 2), 2)
        assert np.abs(a - b).max() < 1e-12

    def test_channel_version_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        arr = rng.normal(0, 1, (8, 8, 2))
        assert np.allclose(downsample(arr, 2), oracles.downsample_reference(arr, 2), atol=1e-12)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divide"):
            downsample(np.zeros((6, 6)), 4)


def random_pyramid(rng, h16=4, w16=6, c=3):
    return FeaturePyramid(
        rng.normal(0, 1, (4 * h16, 4 * w16, c)),
        rng.normal(0, 1, (2 * h16, 2 * w16, c)),
        rng.normal(0, 1, (h16, w16, c)),
    )


class TestMsfeFuse:
    def test_zero_heatmap_returns_f16(self):
        rng = np.random.default_rng(6)
        pyr = random_pyramid(rng)
        hm = ForegroundHeatmap(np.zeros((16, 24)))
        assert np.array_equal(msfe_fuse(pyr, hm, 0.1), pyr.f16)

    def test_saturated_heatmap_sums_all_levels(self):
        rng = np.random.default_rng(7)
        pyr = random_pyramid(rng)
        hm = ForegroundHeatmap(np.ones((16, 24)))
        want = pyr.f16 + downsample(pyr.f8, 2) + downsample(pyr.f4, 4)
        assert np.allclose(msfe_fuse(pyr, hm, 0.0), want, atol=1e-12)

    def test_matches_literal_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            pyr = random_pyramid(rng)
            hm = ForegroundHeatmap(rng.uniform(0, 1, (16, 24)))
            beta = float(rng.uniform(0, 0.6))
            got = msfe_fuse(pyr, hm, beta)
            want = oracles.msfe_fuse_reference(pyr, hm, beta)
            assert np.abs(got - want).max() < 1e-12

    def test_linear_in_pyramid(self):
        rng = np.random.default_rng(9)
        p1 = random_pyramid(rng)
        p2 = random_pyramid(rng)
        hm = ForegroundHeatmap(rng.uniform(0, 1, (16, 24)))
        combo = FeaturePyramid(
            2.0 * p1.f4 + 3.0 * p2.f4,
            2.0 * p1.f8 + 3.0 * p2.f8,
            2.0 * p1.f16 + 3.0 * p2.f16,
        )
        got = msfe_fuse(combo, hm, 0.2)
        want = 2.0 * msfe_fuse(p1, hm, 0.2) + 3.0 * msfe_fuse(p2, hm, 0.2)
        assert np.allclose(got, want, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        pyr = random_pyramid(rng)
        with pytest.raises(ValueError, match="heatmap"):
            msfe_fuse(pyr, ForegroundHeatmap(np.zeros((8, 8))), 0.1)

    def test_pyramid_ratio_enforced(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="1:2:4"):
            FeaturePyramid(
                rng.normal(0, 1, (16, 16, 2)),
                rng.normal(0, 1, (8, 9, 2)),
                rng.normal(0, 1, (4, 4, 2)),
            )

    @pytest.mark.parametrize("level", ["f4", "f8", "f16"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_level_rejected(self, level, bad):
        rng = np.random.default_rng(12)
        levels = {name: getattr(random_pyramid(rng), name).copy() for name in ("f4", "f8", "f16")}
        levels[level][1, 2, 0] = bad
        with pytest.raises(ValueError, match=f"^{level} features must be finite"):
            FeaturePyramid(**levels)


def whole_map_fuse(pyr, heatmap, beta):
    """msfe_fuse's formula on the whole pyramid, every stride-16 row included."""
    mask4 = threshold_filter(heatmap, beta).values
    mask8 = downsample(mask4, 2)
    return pyr.f16 + downsample(pyr.f8 * mask8[:, :, None], 2) + downsample(pyr.f4 * mask4[:, :, None], 4)


def block_mask(h16, w16, blocks):
    """(4 h16, 4 w16) heatmap values, non-zero exactly in the listed stride-16 blocks."""
    on = np.zeros((h16, w16))
    for i, j in blocks:
        on[i, j] = 1.0
    return np.kron(on, np.full((4, 4), 0.5))


def fuse_masks(rng, h16, w16):
    """Named (values, beta) pairs: empty, full, one block, border blocks, random, -0.0 cells."""
    h4, w4 = 4 * h16, 4 * w16
    sparse = rng.uniform(0, 1, (h4, w4)) * (rng.uniform(size=(h4, w4)) < 0.05)
    neg_zero = np.where(rng.uniform(size=(h4, w4)) < 0.5, -0.0, sparse)
    return {
        "all-zero": (np.zeros((h4, w4)), 0.1),
        "all-non-zero": (rng.uniform(0.01, 1, (h4, w4)), 0.0),
        "one-block": (block_mask(h16, w16, [(h16 // 2, w16 // 2)]), 0.3),
        "top-border": (block_mask(h16, w16, [(0, j) for j in range(0, w16, 2)]), 0.3),
        "bottom-border": (block_mask(h16, w16, [(h16 - 1, w16 - 1)]), 0.3),
        "left-right-borders": (block_mask(h16, w16, [(h16 // 2, 0), (h16 // 2, w16 - 1)]), 0.3),
        "random-sparse": (sparse, 0.2),
        "negative-zero-cells": (neg_zero, 0.0),
    }


class TestMsfeFuseOnForegroundRows:
    """msfe_fuse gates and pools only the stride-16 rows holding a non-zero mask cell."""

    # 1 channel and width 1 take numpy's other summation orders for the 4x4 mean.
    @pytest.mark.parametrize("h16,w16,channels", [(5, 7, 3), (4, 6, 1), (3, 1, 1), (1, 4, 2), (6, 9, 32)])
    def test_equals_whole_map_bitwise(self, h16, w16, channels):
        rng = np.random.default_rng(h16 * 100 + w16 * 10 + channels)
        for name, (values, beta) in fuse_masks(rng, h16, w16).items():
            pyr = random_pyramid(rng, h16, w16, channels)
            # Zero f16 cells, of both signs, where only np.square may agree.
            f16 = np.where(rng.uniform(size=pyr.f16.shape) < 0.3, -0.0, pyr.f16)
            f16[rng.uniform(size=f16.shape) < 0.1] = 0.0
            pyr = FeaturePyramid(pyr.f4, pyr.f8, f16)
            hm = ForegroundHeatmap(values)
            got, want = msfe_fuse(pyr, hm, beta), whole_map_fuse(pyr, hm, beta)
            nonzero = f16 != 0.0
            assert got[nonzero].tobytes() == want[nonzero].tobytes(), name
            assert np.square(got).tobytes() == np.square(want).tobytes(), name

    def test_fused_l2_bits_on_random_masks(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            h16, w16, channels = (int(n) for n in rng.integers(1, 7, 3))
            pyr = random_pyramid(rng, h16, w16, channels)
            values = rng.uniform(0, 1, (4 * h16, 4 * w16)) * (rng.uniform(size=(4 * h16, 4 * w16)) < 0.1)
            hm = ForegroundHeatmap(values)
            beta = float(rng.uniform(0, 0.5))
            got = float(np.linalg.norm(msfe_fuse(pyr, hm, beta)))
            assert got.hex() == float(np.linalg.norm(whole_map_fuse(pyr, hm, beta))).hex()

    def test_result_does_not_alias_f16(self):
        rng = np.random.default_rng(14)
        pyr = random_pyramid(rng)
        before = pyr.f16.copy()
        for values in (np.zeros((16, 24)), np.ones((16, 24))):
            out = msfe_fuse(pyr, ForegroundHeatmap(values), 0.1)
            assert not np.shares_memory(out, pyr.f16)
            out += 1.0
            assert np.array_equal(pyr.f16, before)


class TestGaussianFocalLoss:
    def test_perfect_prediction_limit(self):
        target = np.zeros((8, 8))
        target[2, 3] = 1.0
        pred = np.where(target == 1.0, 1.0, 0.0)
        loss = gaussian_focal_loss(ForegroundHeatmap(pred), ForegroundHeatmap(target))
        assert 0.0 <= loss < 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            pred = ForegroundHeatmap(rng.uniform(0, 1, (5, 5)))
            target = ForegroundHeatmap(rng.uniform(0, 1, (5, 5)))
            assert gaussian_focal_loss(pred, target) >= 0.0

    def test_hand_summed_two_by_two(self):
        pred = ForegroundHeatmap(np.array([[0.9, 0.1], [0.6, 0.2]]))
        target = ForegroundHeatmap(np.array([[1.0, 0.0], [0.5, 0.0]]))
        assert math.isclose(
            gaussian_focal_loss(pred, target), 0.0316494938328934, abs_tol=1e-12
        )

    def test_matches_cell_sum_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            pred = rng.uniform(0, 1, (4, 4))
            target = rng.uniform(0, 1, (4, 4))
            target[rng.random((4, 4)) < 0.2] = 1.0
            got = gaussian_focal_loss(ForegroundHeatmap(pred), ForegroundHeatmap(target))
            want = oracles.focal_loss_reference(pred, target, 2.0, 4.0)
            assert abs(got - want) < 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            gaussian_focal_loss(
                ForegroundHeatmap(np.zeros((2, 2))), ForegroundHeatmap(np.zeros((3, 3)))
            )

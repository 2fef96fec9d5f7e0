import numpy as np
import pytest

from fgbev import oracles
from fgbev.geometry import Box3D, CameraModel, PointCloud, RigidTransform
from fgbev.labels import (
    DepthBinConfig,
    DepthDistributionMap,
    HardLabels,
    SegmentationMap,
    generate_hard_labels,
    merge_labels,
)
from fgbev.selfcheck import random_hard_labels, random_soft_labels


def camera(w=64, h=32):
    return CameraModel(100.0, 100.0, (w - 1) / 2, (h - 1) / 2, RigidTransform.identity(), w, h)


class TestDepthBinConfig:
    def test_default_bin_count(self):
        assert DepthBinConfig().n_bins == 118

    def test_bin_arithmetic(self):
        cfg = DepthBinConfig(d_min=1.0, d_max=60.0, bin_size=0.5)
        assert cfg.bin_index(10.2) == 18

    def test_d_max_excluded(self):
        cfg = DepthBinConfig(d_min=1.0, d_max=60.0, bin_size=0.5)
        assert cfg.bin_index(60.0) is None
        assert cfg.bin_index(59.99) == 117

    def test_below_range_excluded(self):
        assert DepthBinConfig().bin_index(0.5) is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d_min=0.0),
            dict(d_max=0.5),
            dict(bin_size=-1.0),
            dict(d_min=1.0, d_max=1.4, bin_size=0.5),
        ],
    )
    def test_rejects_bad_configs(self, kwargs):
        with pytest.raises(ValueError):
            DepthBinConfig(**{**dict(d_min=1.0, d_max=60.0, bin_size=0.5), **kwargs})


class TestMapValidation:
    def test_depth_rows_must_normalize(self):
        cfg = DepthBinConfig(1.0, 5.0, 1.0)
        bad = np.full((2, 2, 4), 0.3)
        with pytest.raises(ValueError, match="sums to"):
            DepthDistributionMap(bad, cfg)

    def test_seg_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SegmentationMap(np.array([[0.5, 1.2]]))

    def test_depth_rejects_all_zero_cell(self):
        cfg = DepthBinConfig(1.0, 5.0, 1.0)
        depth = np.full((1, 2, 4), 0.25)
        depth[0, 1] = 0.0
        with pytest.raises(ValueError, match=r"cell \(0, 1\) sums to 0; expected 1"):
            DepthDistributionMap(depth, cfg)

    @pytest.mark.parametrize(
        "row, message",
        [
            ([0.5, np.nan, 0.25, 0.25], "finite and nonnegative"),
            ([0.5, -0.5, 0.5, 0.5], "finite and nonnegative"),
            ([0.5, np.inf, 0.0, 0.0], "finite and nonnegative"),
            ([1e308, 1e308, 0.0, 0.0], r"cell \(1, 0\) sums to inf; expected 1"),
            ([0.5, 0.25, 0.125, 0.0], r"cell \(1, 0\) sums to 0.875; expected 1"),
        ],
        ids=["nan", "negative", "inf", "finite-overflow", "unnormalised"],
    )
    def test_depth_row_errors(self, row, message):
        # Cell (0, 1) sums to 2, but a non-finite or negative entry anywhere names that first.
        cfg = DepthBinConfig(1.0, 5.0, 1.0)
        depth = np.full((2, 2, 4), 0.25)
        depth[0, 1] = 0.5
        depth[1, 0] = row
        if message != "finite and nonnegative":
            depth[0, 1] = 0.25
        with pytest.raises(ValueError, match=message):
            DepthDistributionMap(depth, cfg)

    @pytest.mark.parametrize("bins", [[[0, -2]], [[0, 4]], [[0.0, 1.0]]])
    def test_hard_labels_reject_bin_out_of_range(self, bins):
        # 4 bins, so the bins run from -1 (invalid) to 3; float bins are rejected too.
        cfg = DepthBinConfig(1.0, 5.0, 1.0)
        with pytest.raises(ValueError, match=r"integers in \[-1, 4\)"):
            HardLabels(np.array(bins), np.zeros((1, 2), dtype=bool), cfg)

    def test_hard_labels_reject_foreground_on_invalid_cell(self):
        cfg = DepthBinConfig(1.0, 5.0, 1.0)
        with pytest.raises(ValueError, match="foreground cells must be valid"):
            HardLabels(np.array([[2, -1]]), np.array([[True, True]]), cfg)

    @pytest.mark.parametrize("bins_shape,fg_shape", [((2, 3), (3, 2)), ((6,), (6,))])
    def test_hard_labels_reject_shape_mismatch(self, bins_shape, fg_shape):
        cfg = DepthBinConfig(1.0, 5.0, 1.0)
        with pytest.raises(ValueError, match="equal 2-D shapes"):
            HardLabels(np.zeros(bins_shape, dtype=np.int64), np.zeros(fg_shape, dtype=bool), cfg)


class TestGenerateHardLabels:
    def test_single_point_one_hot_bin(self):
        cfg = DepthBinConfig(d_min=1.0, d_max=60.0, bin_size=0.5)
        cam = camera()
        cloud = PointCloud(np.array([[0.0, 0.0, 10.2]]), "t")
        hard = generate_hard_labels(cloud, [], cam, cfg, 16)
        cell = np.argwhere(hard.valid_mask)
        assert len(cell) == 1
        r, c = cell[0]
        assert hard.bins[r, c] == 18
        assert not hard.foreground.any()
        one_hot = hard.one_hot()
        assert one_hot[r, c, 18] == 1.0 and one_hot.sum() == 1.0
        assert hard.depth_meters()[r, c] == cfg.bin_centers()[18]
        assert hard.depth_meters().sum() == cfg.bin_centers()[18]

    def test_min_depth_wins_per_cell(self):
        cfg = DepthBinConfig(d_min=1.0, d_max=60.0, bin_size=0.5)
        cam = camera()
        # Two points on the same ray at depths 30 and 12.
        cloud = PointCloud(np.array([[0.0, 0.0, 30.0], [0.0, 0.0, 12.0]]), "t")
        hard = generate_hard_labels(cloud, [], cam, cfg, 16)
        r, c = np.argwhere(hard.valid_mask)[0]
        assert hard.bins[r, c] == cfg.bin_index(12.0)

    def test_out_of_range_depth_leaves_cell_invalid(self):
        cfg = DepthBinConfig(d_min=1.0, d_max=20.0, bin_size=0.5)
        cloud = PointCloud(np.array([[0.0, 0.0, 25.0], [0.0, 0.0, 0.5]]), "t")
        hard = generate_hard_labels(cloud, [], camera(), cfg, 16)
        assert not hard.valid_mask.any()

    def test_foreground_flag_from_box_membership(self):
        cfg = DepthBinConfig(1.0, 60.0, 0.5)
        cam = camera()
        box = Box3D(center=(0, 0, 10), size=(2, 2, 2), yaw=0.0)
        inside = [0.0, 0.0, 10.0]
        outside = [2.0, 0.0, 10.0]  # same depth, different cell, not in the box
        hard = generate_hard_labels(PointCloud(np.array([inside, outside]), "t"), [box], cam, cfg, 8)
        assert hard.foreground.sum() == 1
        assert hard.valid_mask.sum() == 2

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        cfg = DepthBinConfig(1.0, 40.0, 1.0)
        cam = camera()
        pts = np.column_stack(
            [rng.uniform(-3, 3, 200), rng.uniform(-1.5, 1.5, 200), rng.uniform(2, 39, 200)]
        )
        box = Box3D(center=(0, 0, 10), size=(3, 3, 3), yaw=0.3)
        base = generate_hard_labels(PointCloud(pts, "t"), [box], cam, cfg, 8)
        for _ in range(5):
            perm = rng.permutation(len(pts))
            shuffled = generate_hard_labels(PointCloud(pts[perm], "t"), [box], cam, cfg, 8)
            assert np.array_equal(base.bins, shuffled.bins)
            assert np.array_equal(base.foreground, shuffled.foreground)

    def test_valid_cell_count_matches_counting_oracle(self):
        rng = np.random.default_rng(8)
        cfg = DepthBinConfig(1.0, 30.0, 0.5)
        cam = camera(w=96, h=64)
        pts = rng.uniform((-8, -4, -5), (8, 4, 40), (500, 3))
        hard = generate_hard_labels(PointCloud(pts, "t"), [], cam, cfg, 16)
        want = oracles.hard_label_cell_count_reference(pts, cam, cfg, 16)
        assert int(hard.valid_mask.sum()) == want

    def test_foreground_consistency_recheck(self):
        # Every foreground cell's recorded depth corresponds to a point inside some box.
        rng = np.random.default_rng(9)
        cfg = DepthBinConfig(1.0, 40.0, 0.5)
        cam = camera()
        box = Box3D(center=(0.5, 0.2, 12), size=(4, 3, 3), yaw=0.5)
        pts = rng.uniform((-4, -2, 2), (4, 2, 30), (300, 3))
        hard = generate_hard_labels(PointCloud(pts, "t"), [box], cam, cfg, 8)
        fg = np.argwhere(hard.foreground)
        assert len(fg)
        for r, c in fg:
            assert hard.valid_mask[r, c]

    def test_stride_must_divide(self):
        with pytest.raises(ValueError, match="does not divide"):
            generate_hard_labels(
                PointCloud(np.zeros((0, 3)), "t"), [], camera(w=50, h=30), DepthBinConfig(), 16
            )


class TestMergeLabels:
    def setup_method(self):
        self.cfg = DepthBinConfig(1.0, 9.0, 1.0)
        self.rng = np.random.default_rng(10)

    def test_all_valid_returns_hard(self):
        hard = HardLabels(
            self.rng.integers(0, self.cfg.n_bins, (4, 5)),
            self.rng.integers(0, 2, (4, 5)).astype(bool),
            self.cfg,
        )
        soft_d, soft_s = random_soft_labels(self.rng, 4, 5, self.cfg)
        got_d, got_s = merge_labels(hard, soft_d, soft_s)
        assert np.array_equal(got_d.values, hard.one_hot())
        assert np.array_equal(got_s.values, hard.foreground.astype(float))

    def test_none_valid_returns_soft(self):
        h, w = 4, 5
        hard = HardLabels(np.full((h, w), -1), np.zeros((h, w), dtype=bool), self.cfg)
        soft_d, soft_s = random_soft_labels(self.rng, h, w, self.cfg)
        got_d, got_s = merge_labels(hard, soft_d, soft_s)
        assert np.array_equal(got_d.values, soft_d.values)
        assert np.array_equal(got_s.values, soft_s.values)

    def test_mixed_mask_matches_cell_oracle(self):
        for _ in range(50):
            hard = random_hard_labels(self.rng, 5, 6, self.cfg)
            soft_d, soft_s = random_soft_labels(self.rng, 5, 6, self.cfg)
            got_d, got_s = merge_labels(hard, soft_d, soft_s)
            want_d, want_s = oracles.merge_reference(hard, soft_d, soft_s)
            assert np.array_equal(got_d.values, want_d)
            assert np.array_equal(got_s.values, want_s)

    def test_merged_rows_stay_normalized(self):
        hard = random_hard_labels(self.rng, 6, 6, self.cfg)
        soft_d, soft_s = random_soft_labels(self.rng, 6, 6, self.cfg)
        got_d, _ = merge_labels(hard, soft_d, soft_s)
        assert np.allclose(got_d.values.sum(axis=2), 1.0, atol=1e-6)

    def test_shape_mismatch_rejected(self):
        hard = random_hard_labels(self.rng, 4, 4, self.cfg)
        soft_d, _ = random_soft_labels(self.rng, 4, 4, self.cfg)
        _, soft_s_bad = random_soft_labels(self.rng, 4, 5, self.cfg)
        with pytest.raises(ValueError, match="shape"):
            merge_labels(hard, soft_d, soft_s_bad)

    def test_bin_config_mismatch_rejected(self):
        hard = random_hard_labels(self.rng, 4, 4, self.cfg)
        other = DepthBinConfig(1.0, 9.0, 2.0)
        soft_d, soft_s = random_soft_labels(self.rng, 4, 4, other)
        with pytest.raises(ValueError, match="bin config"):
            merge_labels(hard, soft_d, soft_s)


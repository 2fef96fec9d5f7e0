import numpy as np
import pytest

from fgbev import oracles
from fgbev.geometry import CameraModel, RigidTransform, project_point
from fgbev.labels import DepthBinConfig, DepthDistributionMap, SegmentationMap
from fgbev.scene import SceneConfig, generate_scene
from fgbev.selfcheck import (
    level_camera,
    random_hard_labels,
    random_lift_frustum,
    random_soft_labels,
)
from fgbev.view_transform import (
    BevFeatureGrid,
    BevGridConfig,
    ContextFeatureMap,
    build_frustum,
    sa_bev_pool,
    teacher_bev,
)


def camera(w=64, h=32, cx=27.5, cy=11.5):
    return CameraModel(80.0, 80.0, cx, cy, RigidTransform.identity(), w, h)


BIN_CFG = DepthBinConfig(d_min=1.0, d_max=9.0, bin_size=2.0)  # 4 bins


class TestBevGridConfig:
    def test_defaults_match_detection_region(self):
        cfg = BevGridConfig()
        assert cfg.range_xy == 51.2
        assert (cfg.grid_h, cfg.grid_w) == (128, 128)
        assert cfg.z_range == (-5.0, 3.0)

    def test_cell_mapping(self):
        cfg = BevGridConfig(range_xy=10.0, grid_h=4, grid_w=4)
        rows, cols, ok = cfg.cells_for_points(np.array([[0.0, 0.0, 0.0]]))
        assert (rows[0], cols[0]) == (2, 2)
        assert ok[0]

    def test_out_of_range_points_excluded(self):
        cfg = BevGridConfig(range_xy=10.0, grid_h=4, grid_w=4)
        _, _, ok = cfg.cells_for_points(
            np.array([[10.0, 0.0, 0.0], [0.0, 0.0, 9.0], [-20.0, 0.0, 0.0]])
        )
        assert not ok.any()

    def test_validation(self):
        with pytest.raises(ValueError):
            BevGridConfig(range_xy=-1.0)
        with pytest.raises(ValueError):
            BevGridConfig(grid_h=0)


class TestBuildFrustum:
    def test_entry_count(self):
        frustum = build_frustum(camera(), BIN_CFG, 8)
        assert len(frustum) == (32 // 8) * (64 // 8) * BIN_CFG.n_bins

    def test_lexicographic_order(self):
        frustum = build_frustum(camera(), BIN_CFG, 8)
        keys = list(zip(frustum.rows, frustum.cols, frustum.bins))
        assert keys == sorted(keys)

    def test_principal_point_cell_on_axis(self):
        # cx=28 sits at the center of column 3; cy=12 at row 1 (stride 8).
        frustum = build_frustum(camera(cx=28.0, cy=12.0), BIN_CFG, 8)
        mask = (frustum.rows == 1) & (frustum.cols == 3)
        pts = frustum.points[mask]
        assert np.allclose(pts[:, :2], 0.0, atol=1e-12)
        assert np.allclose(pts[:, 2], BIN_CFG.bin_centers())

    def test_roundtrip_recovers_cell_and_bin(self):
        cam = camera()
        frustum = build_frustum(cam, BIN_CFG, 8)
        rng = np.random.default_rng(0)
        for idx in rng.integers(0, len(frustum), 100):
            res = project_point(cam, frustum.points[idx])
            assert res is not None
            u, v, d = res
            assert int(v // 8) == frustum.rows[idx]
            assert int(u // 8) == frustum.cols[idx]
            assert BIN_CFG.bin_index(d) == frustum.bins[idx]

    def test_stride_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            build_frustum(camera(w=60), BIN_CFG, 8)


class TestSaBevPool:
    def test_zero_seg_filters_everything(self):
        rng = np.random.default_rng(1)
        frustum = build_frustum(camera(), BIN_CFG, 8)
        ctx = ContextFeatureMap(rng.normal(0, 1, (4, 8, 3)))
        depth, _ = random_soft_labels(rng, 4, 8, BIN_CFG)
        seg = SegmentationMap(np.zeros((4, 8)))
        bev = BevGridConfig(range_xy=8, grid_h=8, grid_w=8)
        out = sa_bev_pool(ctx, depth, seg, frustum, bev, 0.25)
        assert not out.values.any()
        assert out.window.shape == (0, 0, 3)
        assert np.array_equal(out.occupancy(), np.zeros((8, 8)))
        want = oracles.pool_reference(ctx, depth, seg, frustum, bev, 0.25)
        assert out.values.tobytes() == want.tobytes()

    def test_single_entry_accumulation(self):
        cfg = BevGridConfig(range_xy=10.0, grid_h=4, grid_w=4, z_range=(-1, 1))
        # One 16x16 cell looking up from 2 m below the ego origin: bin 0 (depth
        # 2) lands exactly on (0, 0, 0), bin 1 (depth 4) above the z range.
        cam_to_ego = RigidTransform(np.eye(3), np.array([0.0, 0.0, -2.0]))
        cam = CameraModel(80.0, 80.0, 8.0, 8.0, cam_to_ego.inverse(), 16, 16)
        frustum = build_frustum(cam, DepthBinConfig(1.0, 5.0, 2.0), 16)
        assert np.array_equal(frustum.points[0], (0.0, 0.0, 0.0))
        ctx = ContextFeatureMap(np.array([[[1.0, 2.0]]]))
        depth = DepthDistributionMap(
            np.array([[[0.7, 0.3]]]), DepthBinConfig(1.0, 5.0, 2.0)
        )
        seg = SegmentationMap(np.array([[1.0]]))
        out = sa_bev_pool(ctx, depth, seg, frustum, cfg, 0.25)
        assert np.allclose(out.values[2, 2], (0.7, 1.4))
        assert np.count_nonzero(out.values) == 2
        assert out.window.shape == (1, 1, 2)
        want = oracles.pool_reference(ctx, depth, seg, frustum, cfg, 0.25)
        assert out.values.tobytes() == want.tobytes()

    def test_negative_zero_bucket_sums_to_positive_zero(self):
        # Channel 0 is -0.0 everywhere, so each of its buckets receives only
        # -0.0; a sum that starts from +0.0 ends at +0.0, as in the oracle.
        rng = np.random.default_rng(7)
        frustum = random_lift_frustum(rng, 4, 6, BIN_CFG)
        bev = BevGridConfig(range_xy=8, grid_h=8, grid_w=8, z_range=(-3, 3))
        values = rng.normal(0, 1, (4, 6, 2))
        values[..., 0] = -0.0
        ctx = ContextFeatureMap(values)
        depth, seg = random_soft_labels(rng, 4, 6, BIN_CFG)
        out = sa_bev_pool(ctx, depth, seg, frustum, bev, 0.0)
        assert out.window.size > 0
        assert not np.signbit(out.window[..., 0]).any()
        want = oracles.pool_reference(ctx, depth, seg, frustum, bev, 0.0)
        assert out.values.tobytes() == want.tobytes()

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            bev = BevGridConfig(
                range_xy=float(rng.uniform(4, 16)),
                grid_h=int(rng.integers(4, 17)),
                grid_w=int(rng.integers(4, 17)),
                z_range=(-3, 3),
            )
            frustum = random_lift_frustum(rng, h, w, BIN_CFG)
            ctx = ContextFeatureMap(rng.normal(0, 1, (h, w, 2)))
            depth, seg = random_soft_labels(rng, h, w, BIN_CFG)
            thr = float(rng.uniform(0, 0.8))
            got = sa_bev_pool(ctx, depth, seg, frustum, bev, thr)
            want = oracles.pool_reference(ctx, depth, seg, frustum, bev, thr)
            # Both sum each (cell, channel) in entry order from +0.0: equal bit for bit.
            assert got.values.tobytes() == want.tobytes()

    def test_linearity_in_context(self):
        rng = np.random.default_rng(3)
        cam = camera()
        frustum = build_frustum(cam, BIN_CFG, 8)
        bev = BevGridConfig(range_xy=6, grid_h=8, grid_w=8)
        depth, seg = random_soft_labels(rng, 4, 8, BIN_CFG)
        ctx = rng.normal(0, 1, (4, 8, 3))
        base = sa_bev_pool(ContextFeatureMap(ctx), depth, seg, frustum, bev, 0.3)
        scaled = sa_bev_pool(ContextFeatureMap(3.5 * ctx), depth, seg, frustum, bev, 0.3)
        assert np.allclose(scaled.values, 3.5 * base.values, atol=1e-9)

    def test_additive_over_disjoint_subsets(self):
        rng = np.random.default_rng(4)
        cam = camera()
        frustum = build_frustum(cam, BIN_CFG, 8)
        bev = BevGridConfig(range_xy=6, grid_h=8, grid_w=8)
        depth, seg = random_soft_labels(rng, 4, 8, BIN_CFG)
        ctx = ContextFeatureMap(rng.normal(0, 1, (4, 8, 3)))
        mask = rng.random(seg.shape) < 0.5
        whole = sa_bev_pool(ctx, depth, seg, frustum, bev, 0.2)

        def part(m):
            # Zero seg fails the 0.2 gate, so each part lifts only its own cells.
            return SegmentationMap(np.where(m, seg.values, 0.0))

        first = sa_bev_pool(ctx, depth, part(mask), frustum, bev, 0.2)
        second = sa_bev_pool(ctx, depth, part(~mask), frustum, bev, 0.2)
        assert np.allclose(whole.values, first.values + second.values, atol=1e-9)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(5)
        cam = camera()
        frustum = build_frustum(cam, BIN_CFG, 8)
        bev = BevGridConfig(range_xy=6, grid_h=8, grid_w=8)
        depth, seg = random_soft_labels(rng, 4, 8, BIN_CFG)
        ctx = ContextFeatureMap(rng.uniform(0.0, 1.0, (4, 8, 3)))  # nonnegative
        prev = None
        for thr in (0.0, 0.25, 0.5, 0.75, 1.0):
            kept = int((seg.values[frustum.rows, frustum.cols] >= thr).sum())
            out = sa_bev_pool(ctx, depth, seg, frustum, bev, thr)
            if prev is not None:
                prev_kept, prev_out = prev
                assert kept <= prev_kept
                assert np.all(out.values <= prev_out + 1e-12)
            prev = (kept, out.values)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        frustum = build_frustum(camera(), BIN_CFG, 8)
        depth, seg = random_soft_labels(rng, 4, 8, BIN_CFG)
        bad_ctx = ContextFeatureMap(rng.normal(0, 1, (5, 8, 3)))
        with pytest.raises(ValueError, match="context"):
            sa_bev_pool(bad_ctx, depth, seg, frustum, BevGridConfig(), 0.25)
        other_bins = DepthBinConfig(1.0, 9.0, 4.0)
        bad_depth, _ = random_soft_labels(rng, 4, 8, other_bins)
        ctx = ContextFeatureMap(rng.normal(0, 1, (4, 8, 3)))
        with pytest.raises(ValueError, match="depth"):
            sa_bev_pool(ctx, bad_depth, seg, frustum, BevGridConfig(), 0.25)


LIFT_CONFIGS = {
    "default": SceneConfig(),
    "lib-large": SceneConfig(n_boxes=40, image_width=1408, image_height=512, n_frames=9),
}


class TestGateFirstLift:
    @pytest.mark.parametrize("config", sorted(LIFT_CONFIGS))
    def test_entries_are_the_full_table_rows_bitwise(self, config):
        cam = generate_scene(LIFT_CONFIGS[config], 0).current.cameras[0]
        frustum = build_frustum(cam, DepthBinConfig(), 16)
        full = (frustum.rows, frustum.cols, frustum.bins, frustum.points)
        assert len(frustum) == len(full[0])
        for seed in range(6):
            rng = np.random.default_rng(seed)
            gate = rng.random(frustum.feature_shape) < (0.0, 0.03, 0.3, 0.7, 1.0, 0.5)[seed]
            keep = gate[frustum.rows, frustum.cols]
            got = frustum.entries(*np.nonzero(gate))
            for have, table in zip(got, full):
                assert have.dtype == table.dtype
                assert have.tobytes() == table[keep].tobytes()

    def test_threshold_zero_lifts_every_cell_over_the_whole_grid(self):
        # From 10 m behind the grid, the bins reach across it and the wide
        # view covers every row, so every BEV cell receives an entry.
        bin_cfg = DepthBinConfig(1.0, 17.0, 2.0)
        cam = level_camera(0.0, (-10.0, 0.0, 0.0), 20.0, 20.0, 64, 32)
        frustum = build_frustum(cam, bin_cfg, 8)
        bev = BevGridConfig(range_xy=4, grid_h=4, grid_w=4)
        rng = np.random.default_rng(8)
        ctx = ContextFeatureMap(rng.normal(0, 1, (4, 8, 3)))
        depth, seg = random_soft_labels(rng, 4, 8, bin_cfg)
        out = sa_bev_pool(ctx, depth, seg, frustum, bev, 0.0)
        assert out.bounds == (0, 4, 0, 4)
        want = oracles.pool_reference(ctx, depth, seg, frustum, bev, 0.0)
        assert out.values.tobytes() == want.tobytes()

    def test_window_is_the_box_of_touched_cells(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            frustum = random_lift_frustum(rng, h, w, BIN_CFG)
            bev = BevGridConfig(range_xy=float(rng.uniform(4, 16)), grid_h=12, grid_w=10)
            ctx = ContextFeatureMap(rng.normal(0, 1, (h, w, 2)))
            depth, seg = random_soft_labels(rng, h, w, BIN_CFG)
            thr = float(rng.uniform(0, 0.8))
            out = sa_bev_pool(ctx, depth, seg, frustum, bev, thr)
            rows, cols = np.nonzero(out.occupancy())
            if len(rows) == 0:
                assert out.window.size == 0
                continue
            assert out.bounds == (rows.min(), rows.max() + 1, cols.min(), cols.max() + 1)
            want = oracles.pool_reference(ctx, depth, seg, frustum, bev, thr)
            assert out.values.tobytes() == want.tobytes()


class TestStudentTeacher:
    def setup_method(self):
        self.rng = np.random.default_rng(7)
        self.cam = camera()
        self.frustum = build_frustum(self.cam, BIN_CFG, 8)
        self.bev = BevGridConfig(range_xy=6, grid_h=8, grid_w=8)
        self.ctx = ContextFeatureMap(self.rng.normal(0, 1, (4, 8, 3)))
        self.soft_depth, self.soft_seg = random_soft_labels(self.rng, 4, 8, BIN_CFG)

    def test_student_is_pool_bitwise(self):
        a = sa_bev_pool(self.ctx, self.soft_depth, self.soft_seg, self.frustum, self.bev, 0.3)
        b = sa_bev_pool(self.ctx, self.soft_depth, self.soft_seg, self.frustum, self.bev, 0.3)
        assert np.array_equal(a.values, b.values)

    def test_teacher_degenerates_without_hard_labels(self):
        from fgbev.labels import HardLabels

        empty = HardLabels(np.full((4, 8), -1), np.zeros((4, 8), dtype=bool), BIN_CFG)
        t = teacher_bev(
            self.ctx, empty, self.soft_depth, self.soft_seg, self.frustum, self.bev, 0.3
        )
        s = sa_bev_pool(self.ctx, self.soft_depth, self.soft_seg, self.frustum, self.bev, 0.3)
        assert np.array_equal(t.values, s.values)

    def test_teacher_matches_oracle_on_merged_labels(self):
        from fgbev.labels import merge_labels

        hard = random_hard_labels(self.rng, 4, 8, BIN_CFG)
        got = teacher_bev(
            self.ctx, hard, self.soft_depth, self.soft_seg, self.frustum, self.bev, 0.3
        )
        md, ms = merge_labels(hard, self.soft_depth, self.soft_seg)
        want = oracles.pool_reference(self.ctx, md, ms, self.frustum, self.bev, 0.3)
        assert np.abs(got.values - want).max() < 1e-9

    def test_single_hard_cell_column_locality(self):
        from fgbev.labels import HardLabels

        r0, c0 = 2, 5
        bins = np.full((4, 8), -1)
        bins[r0, c0] = 1
        hard = HardLabels(bins, bins == 1, BIN_CFG)
        t = teacher_bev(
            self.ctx, hard, self.soft_depth, self.soft_seg, self.frustum, self.bev, 0.3
        )
        s = sa_bev_pool(self.ctx, self.soft_depth, self.soft_seg, self.frustum, self.bev, 0.3)
        diff = np.abs(t.values - s.values).sum(axis=2)
        column = (self.frustum.rows == r0) & (self.frustum.cols == c0)
        rows, cols, ok = self.bev.cells_for_points(self.frustum.points[column])
        allowed = np.zeros(diff.shape, dtype=bool)
        allowed[rows[ok], cols[ok]] = True
        assert not diff[~allowed].any()


class TestBevFeatureGrid:
    def test_occupancy_is_l2(self):
        cfg = BevGridConfig(range_xy=4, grid_h=2, grid_w=2)
        grid = BevFeatureGrid(np.array([[[3.0, 4.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 2.0]]]), cfg)
        assert np.allclose(grid.occupancy(), [[5.0, 0.0], [1.0, 2.0]])

    def test_shape_consistency_enforced(self):
        cfg = BevGridConfig(range_xy=4, grid_h=2, grid_w=2)
        with pytest.raises(ValueError, match="inconsistent"):
            BevFeatureGrid(np.zeros((3, 2, 1)), cfg)
        with pytest.raises(ValueError, match="inconsistent"):
            BevFeatureGrid(np.zeros((1, 2, 1)), cfg)  # a window needs its origin
        for origin in ((1, 1), (-1, 0), (0, 2)):
            with pytest.raises(ValueError, match="inconsistent"):
                BevFeatureGrid(np.zeros((2, 1, 1)), cfg, origin)

    def test_window_reads_as_zero_padded_grid(self):
        cfg = BevGridConfig(range_xy=4, grid_h=3, grid_w=4)
        grid = BevFeatureGrid(np.array([[[3.0, 4.0]], [[0.0, -1.0]]]), cfg, (1, 2))
        want = np.zeros((3, 4, 2))
        want[1:3, 2] = [[3.0, 4.0], [0.0, -1.0]]
        assert grid.shape == (3, 4, 2)
        assert grid.bounds == (1, 3, 2, 3)
        assert np.array_equal(grid.values, want)
        assert np.array_equal(grid.occupancy(), np.linalg.norm(want, axis=2))
        assert np.array_equal(grid.crop((0, 2, 1, 4)), want[0:2, 1:4])

import numpy as np
import pytest

from fgbev import oracles
from fgbev.geometry import CameraModel, RigidTransform, project_points_unbounded
from fgbev.labels import (
    DepthBinConfig,
    DepthDistributionMap,
    HardLabels,
    SegmentationMap,
    merge_labels,
)
from fgbev.scene import SceneConfig, generate_scene
from fgbev.selfcheck import (
    level_camera,
    random_hard_labels,
    random_lift_frustum,
    random_soft_labels,
)
from fgbev.view_transform import (
    POOL_CHANNEL_BLOCK,
    BevFeatureGrid,
    BevGridConfig,
    ContextFeatureMap,
    Frustum,
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
        picks = rng.integers(0, len(frustum), 100)
        uv, d = project_points_unbounded(cam, frustum.points[picks])
        u, v = uv.T
        assert cam.in_image(u, v).all()
        assert np.array_equal(v // 8, frustum.rows[picks])
        assert np.array_equal(u // 8, frustum.cols[picks])
        bins, in_range = BIN_CFG.bin_indices(d)
        assert in_range.all() and np.array_equal(bins, frustum.bins[picks])

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
        assert out.cells.shape == (0,) and out.features.shape == (0, 3)
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
        assert out.cells.tolist() == [2 * 4 + 2] and out.features.shape == (1, 2)
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
        assert len(out.cells) > 0
        assert not np.signbit(out.features[:, 0]).any()
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
            got = frustum.lift(*(table[keep] for table in full[:3]))
            assert got.dtype == full[3].dtype
            assert got.tobytes() == full[3][keep].tobytes()

    @pytest.mark.parametrize("config", sorted(LIFT_CONFIGS))
    def test_lift_of_any_entry_subset_is_its_table_rows_bitwise(self, config):
        # Pooling lifts the non-zero-weight entries of the gated cells, as few as one.
        cam = generate_scene(LIFT_CONFIGS[config], 0).current.cameras[0]
        frustum = build_frustum(cam, DepthBinConfig(), 16)
        rows, cols, bins, points = frustum.rows, frustum.cols, frustum.bins, frustum.points
        rng = np.random.default_rng(11)
        sizes = [*range(1, 8)] * 40 + [8, 31, 118, 119, 500, 4096]
        for size in sizes:
            pick = np.sort(rng.choice(len(frustum), size, replace=False))
            got = frustum.lift(rows[pick], cols[pick], bins[pick])
            assert got.shape == (size, 3)
            assert got.tobytes() == points[pick].tobytes()

    def test_lift_of_one_bin_per_cell_is_its_table_rows_bitwise(self):
        # One-hot teacher cells leave exactly one non-zero-weight bin each.
        cam = generate_scene(LIFT_CONFIGS["default"], 0).current.cameras[0]
        frustum = build_frustum(cam, DepthBinConfig(), 16)
        h_f, w_f = frustum.feature_shape
        rng = np.random.default_rng(12)
        for n_cells in (1, 2, 5, 60, h_f * w_f):
            cell = np.sort(rng.choice(h_f * w_f, n_cells, replace=False))
            pick = cell * frustum.n_bins + rng.integers(0, frustum.n_bins, n_cells)
            r, c = np.divmod(cell, w_f)
            got = frustum.lift(r, c, frustum.bins[pick])
            assert got.tobytes() == frustum.points[pick].tobytes()

    def test_threshold_zero_lifts_every_cell_over_the_whole_grid(self):
        # From 10 m behind the grid, the bins reach across it and the wide
        # view covers every row, so the touched cells span every row and column.
        bin_cfg = DepthBinConfig(1.0, 17.0, 2.0)
        cam = level_camera(0.0, (-10.0, 0.0, 0.0), 20.0, 20.0, 64, 32)
        frustum = build_frustum(cam, bin_cfg, 8)
        bev = BevGridConfig(range_xy=4, grid_h=4, grid_w=4)
        rng = np.random.default_rng(8)
        ctx = ContextFeatureMap(rng.normal(0, 1, (4, 8, 3)))
        depth, seg = random_soft_labels(rng, 4, 8, bin_cfg)
        out = sa_bev_pool(ctx, depth, seg, frustum, bev, 0.0)
        rows, cols = np.divmod(out.cells, 4)
        assert set(rows) == set(cols) == {0, 1, 2, 3}
        assert np.array_equal(out.cells, touched_cells(depth, seg, frustum, bev, 0.0))
        want = oracles.pool_reference(ctx, depth, seg, frustum, bev, 0.0)
        assert out.values.tobytes() == want.tobytes()

    def test_cells_are_the_cells_given_non_zero_weight(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            frustum = random_lift_frustum(rng, h, w, BIN_CFG)
            bev = BevGridConfig(range_xy=float(rng.uniform(4, 16)), grid_h=12, grid_w=10)
            ctx = ContextFeatureMap(rng.normal(0, 1, (h, w, 2)))
            depth, seg = random_soft_labels(rng, h, w, BIN_CFG)
            thr = float(rng.uniform(0, 0.8))
            out = sa_bev_pool(ctx, depth, seg, frustum, bev, thr)
            assert np.array_equal(out.cells, touched_cells(depth, seg, frustum, bev, thr))
            want = oracles.pool_reference(ctx, depth, seg, frustum, bev, thr)
            assert out.values.tobytes() == want.tobytes()


def touched_cells(depth, seg, frustum, bev, thr, nonzero=True):
    """Sorted flat ids of the BEV cells that a gated, in-range entry reaches,
    only those of non-zero weight if `nonzero`, from the whole frustum table."""
    r, c, b = frustum.rows, frustum.cols, frustum.bins
    brow, bcol, ok = bev.cells_for_points(frustum.points)
    ok &= seg.values[r, c] >= thr
    if nonzero:
        ok &= depth.values[r, c, b] * seg.values[r, c] != 0
    return np.unique(brow[ok] * bev.grid_w + bcol[ok])


class TestZeroWeightEntries:
    def test_one_hot_depth_and_negative_context_match_oracle_bitwise(self):
        # Hard labels make most cells one-hot, so most entries have weight
        # exactly 0; with negative context each of them contributes -0.0.
        rng = np.random.default_rng(10)
        skipped_only = 0
        for _ in range(25):
            h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            frustum = random_lift_frustum(rng, h, w, BIN_CFG)
            bev = BevGridConfig(
                range_xy=float(rng.uniform(4, 16)), grid_h=12, grid_w=10, z_range=(-3, 3)
            )
            ctx = ContextFeatureMap(-rng.uniform(0.1, 1.0, (h, w, 3)))
            bins = rng.integers(0, BIN_CFG.n_bins, (h, w))
            hard = HardLabels(bins, rng.random((h, w)) < 0.8, BIN_CFG)
            depth, seg = merge_labels(hard, *random_soft_labels(rng, h, w, BIN_CFG))
            thr = float(rng.uniform(0, 0.5))
            out = sa_bev_pool(ctx, depth, seg, frustum, bev, thr)
            want = oracles.pool_reference(ctx, depth, seg, frustum, bev, thr)
            assert out.values.tobytes() == want.tobytes()
            kept = touched_cells(depth, seg, frustum, bev, thr)
            assert np.array_equal(out.cells, kept)
            # A cell reached only by entries of weight 0 is not stored and reads +0.0.
            reached = touched_cells(depth, seg, frustum, bev, thr, nonzero=False)
            only_zero = np.setdiff1d(reached, kept)
            skipped_only += len(only_zero)
            occupancy = out.occupancy().ravel()[only_zero]
            assert occupancy.tobytes() == np.zeros(len(only_zero)).tobytes()
        assert skipped_only > 0


class TestTeacherShapedPooling:
    """Pooling on merged (one-hot where valid) labels lifts only the entries of non-zero weight."""

    @staticmethod
    def teacher_labels(rng, h, w, valid=0.8):
        bins = rng.integers(0, BIN_CFG.n_bins, (h, w))
        hard = HardLabels(bins, rng.random((h, w)) < valid, BIN_CFG)
        return merge_labels(hard, *random_soft_labels(rng, h, w, BIN_CFG))

    @pytest.mark.parametrize("thr", [0.0, 0.3])
    def test_matches_oracle_and_lifts_only_non_zero_weights(self, thr, monkeypatch):
        lifted = []
        lift = Frustum.lift

        def counting_lift(self, rows, cols, bins):
            lifted.append(len(rows))
            return lift(self, rows, cols, bins)

        monkeypatch.setattr(Frustum, "lift", counting_lift)
        rng = np.random.default_rng(13)
        for _ in range(20):
            h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            frustum = random_lift_frustum(rng, h, w, BIN_CFG)
            bev = BevGridConfig(range_xy=float(rng.uniform(4, 16)), grid_h=12, grid_w=10)
            ctx = ContextFeatureMap(rng.normal(0, 1, (h, w, 3)))
            depth, seg = self.teacher_labels(rng, h, w)
            # The oracle walks the whole table, which is lifted once on first access.
            want = oracles.pool_reference(ctx, depth, seg, frustum, bev, thr)
            lifted.clear()
            out = sa_bev_pool(ctx, depth, seg, frustum, bev, thr)
            assert out.values.tobytes() == want.tobytes()
            gated = seg.values >= thr
            weight = depth.values * seg.values[..., None]
            assert lifted == [int(np.count_nonzero(weight[gated]))]
            assert lifted[0] < gated.sum() * BIN_CFG.n_bins

    def test_single_non_zero_entry_at_threshold_zero(self):
        # Every cell passes a 0 gate, but only one (cell, bin) entry has weight.
        rng = np.random.default_rng(14)
        frustum = random_lift_frustum(rng, 3, 5, BIN_CFG)
        bev = BevGridConfig(range_xy=16.0, grid_h=12, grid_w=10, z_range=(-5.0, 5.0))
        *_, ok = bev.cells_for_points(frustum.points)
        k = int(np.flatnonzero(ok)[0])
        r, c, b = frustum.rows[k], frustum.cols[k], frustum.bins[k]
        depth = np.zeros((3, 5, BIN_CFG.n_bins))
        depth[..., 0] = 1.0
        depth[r, c] = np.eye(BIN_CFG.n_bins)[b]
        seg = np.zeros((3, 5))
        seg[r, c] = 0.75
        depth, seg = DepthDistributionMap(depth, BIN_CFG), SegmentationMap(seg)
        ctx = ContextFeatureMap(rng.normal(0, 1, (3, 5, 2)))
        out = sa_bev_pool(ctx, depth, seg, frustum, bev, 0.0)
        want = oracles.pool_reference(ctx, depth, seg, frustum, bev, 0.0)
        assert out.values.tobytes() == want.tobytes()
        assert len(out.cells) == 1
        assert out.features.tobytes() == (0.75 * ctx.values[r, c]).tobytes()


class TestChannelBlocks:
    """Pooling sums POOL_CHANNEL_BLOCK channels at a time; every bucket keeps its bits
    whether the channels fill one block, several, or end in a partial block."""

    B = POOL_CHANNEL_BLOCK

    @pytest.mark.parametrize("channels", [1, B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("depth_kind", ["soft", "one-hot"])
    def test_matches_oracle_bitwise(self, channels, depth_kind):
        rng = np.random.default_rng(channels)
        stored = 0
        for _ in range(6):
            h, w = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            frustum = random_lift_frustum(rng, h, w, BIN_CFG)
            bev = BevGridConfig(
                range_xy=float(rng.uniform(4, 16)), grid_h=12, grid_w=10, z_range=(-3, 3)
            )
            ctx = ContextFeatureMap(rng.normal(0, 1, (h, w, channels)))
            if depth_kind == "soft":
                depth, seg = random_soft_labels(rng, h, w, BIN_CFG)
            else:  # the teacher's merged labels: one-hot depth on the hard-valid cells
                depth, seg = TestTeacherShapedPooling.teacher_labels(rng, h, w)
            thr = float(rng.uniform(0, 0.5))
            got = sa_bev_pool(ctx, depth, seg, frustum, bev, thr)
            want = oracles.pool_reference(ctx, depth, seg, frustum, bev, thr)
            assert got.channels == channels
            assert got.values.tobytes() == want.tobytes()
            stored += len(got.cells)
        assert stored > 0


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

    def test_a_gated_cell_the_depth_map_does_not_store_is_named(self):
        gate = np.flatnonzero(self.soft_seg.values >= 0.3)
        rows = self.soft_depth.values.reshape(-1, BIN_CFG.n_bins)
        part = DepthDistributionMap(rows[gate[1:]], BIN_CFG, gate[1:], (4, 8))
        cell = tuple(int(i) for i in divmod(gate[0], 8))
        with pytest.raises(ValueError, match=rf"does not store cell \({cell[0]}, {cell[1]}\)"):
            sa_bev_pool(self.ctx, part, self.soft_seg, self.frustum, self.bev, 0.3)
        whole = sa_bev_pool(self.ctx, self.soft_depth, self.soft_seg, self.frustum, self.bev, 0.3)
        gated = DepthDistributionMap(rows[gate], BIN_CFG, gate, (4, 8))
        got = sa_bev_pool(self.ctx, gated, self.soft_seg, self.frustum, self.bev, 0.3)
        assert got.cells.tobytes() == whole.cells.tobytes()
        assert got.features.tobytes() == whole.features.tobytes()

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
        values = np.array([[[3.0, 4.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 2.0]]])
        grid = BevFeatureGrid.from_values(values, cfg)
        assert np.allclose(grid.occupancy(), [[5.0, 0.0], [1.0, 2.0]])

    def test_shape_consistency_enforced(self):
        cfg = BevGridConfig(range_xy=4, grid_h=2, grid_w=2)
        with pytest.raises(ValueError, match="inconsistent"):
            BevFeatureGrid.from_values(np.zeros((3, 2, 1)), cfg)
        with pytest.raises(ValueError, match="inconsistent"):
            BevFeatureGrid.from_values(np.zeros((1, 2, 1)), cfg)
        mismatched = (([0, 1], np.zeros((1, 1))), ([0], np.zeros(1)), ([[0]], np.zeros((1, 1))))
        for cells, features in mismatched:
            with pytest.raises(ValueError, match="must be"):
                BevFeatureGrid(np.array(cells), features, cfg)

    @pytest.mark.parametrize(
        "cells",
        [[1, 0], [0, 2, 1], [1, 1], [0, 0], [-1, 0], [0, 4], [4]],
        ids=[
            "unsorted", "unsorted-3", "duplicate", "duplicate-0", "negative", "past-end",
            "only-past-end",
        ],
    )
    def test_invalid_cells_rejected(self, cells):
        cfg = BevGridConfig(range_xy=4, grid_h=2, grid_w=2)
        with pytest.raises(ValueError, match="strictly increasing"):
            BevFeatureGrid(np.array(cells), np.ones((len(cells), 2)), cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        cfg = BevGridConfig(range_xy=4, grid_h=2, grid_w=2)
        with pytest.raises(ValueError, match="finite"):
            BevFeatureGrid(np.array([0, 3]), np.array([[1.0, 2.0], [bad, 0.0]]), cfg)

    def test_cells_read_as_zero_padded_grid(self):
        cfg = BevGridConfig(range_xy=4, grid_h=3, grid_w=4)
        grid = BevFeatureGrid(np.array([6, 10]), np.array([[3.0, 4.0], [0.0, -1.0]]), cfg)
        want = np.zeros((3, 4, 2))
        want[1:3, 2] = [[3.0, 4.0], [0.0, -1.0]]
        assert grid.shape == (3, 4, 2)
        assert np.array_equal(grid.values, want)
        assert np.array_equal(grid.occupancy(), np.linalg.norm(want, axis=2))
        empty = BevFeatureGrid(np.zeros(0, dtype=np.int64), np.zeros((0, 2)), cfg)
        assert empty.values.tobytes() == np.zeros((3, 4, 2)).tobytes()
        assert empty.occupancy().tobytes() == np.zeros((3, 4)).tobytes()

    def test_from_values_round_trips_signed_zeros(self):
        cfg = BevGridConfig(range_xy=4, grid_h=3, grid_w=4)
        values = np.random.default_rng(0).normal(size=(3, 4, 2))
        values[0, 1] = -0.0
        grid = BevFeatureGrid.from_values(values, cfg)
        assert grid.values.tobytes() == values.tobytes()

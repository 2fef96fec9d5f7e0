import numpy as np
import pytest

from fgbev import oracles
from fgbev.distill import (
    BoxBlurEncoder,
    IdentityEncoder,
    distillation_loss,
    encode_joint,
    get_encoder,
    loss_gradient_check,
)
from fgbev.selfcheck import random_bev_grid, random_sparse_grid
from fgbev.view_transform import BevFeatureGrid, BevGridConfig

CFG = BevGridConfig(range_xy=8.0, grid_h=5, grid_w=7)


def grid(values):
    arr = np.asarray(values, dtype=float)
    cfg = BevGridConfig(range_xy=8.0, grid_h=arr.shape[0], grid_w=arr.shape[1])
    return BevFeatureGrid.from_values(arr, cfg)


class TestEncoders:
    def test_identity_bitwise(self):
        rng = np.random.default_rng(0)
        g = random_bev_grid(rng, CFG, 3)
        out = IdentityEncoder()(g)
        assert out.values.tobytes() == g.values.tobytes()
        assert out.values is not g.values

    def test_box_blur_impulse_stencil(self):
        values = np.zeros((5, 5, 1))
        values[2, 2, 0] = 1.0
        out = BoxBlurEncoder()(grid(values))
        want = np.zeros((5, 5))
        want[1:4, 1:4] = 1.0 / 9.0
        assert np.allclose(out.values[:, :, 0], want, atol=1e-15)

    def test_box_blur_zero_padding_at_corner(self):
        values = np.zeros((4, 4, 1))
        values[0, 0, 0] = 9.0
        out = BoxBlurEncoder()(grid(values))
        assert out.values[0, 0, 0] == 1.0  # 9/9, missing neighbors count as zero

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (7, 5)])
    def test_box_blur_matches_padded_oracle_bitwise(self, shape, batch):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(batch, *shape, 3))
        # Signed zeros are where skipping the out-of-grid taps could differ.
        values[rng.random(values.shape) < 0.3] = -0.0
        values.flat[::7] = 0.0
        # Each grid on its own matches the oracle's batch form.
        cfg = BevGridConfig(range_xy=8.0, grid_h=shape[0], grid_w=shape[1])
        blur = BoxBlurEncoder()
        fast = np.stack([blur(BevFeatureGrid.from_values(v, cfg)).values for v in values])
        ref = oracles.box_blur_reference(values)
        assert np.array_equal(fast, ref)
        assert fast.tobytes() == ref.tobytes()

    def test_joint_matches_oracle_at_teacher_cells(self):
        # The teacher equals the oracle on the zero-padded full grid, and the student equals
        # the oracle of the full student at every teacher cell. Random sparse grids hold -0.0
        # values, border cells, and sometimes no cell (an empty teacher).
        rng = np.random.default_rng(1)
        empty_teachers = 0
        for _ in range(100):
            s = random_sparse_grid(rng, CFG, 4)
            t = random_sparse_grid(rng, CFG, 4)
            empty_teachers += not len(t.cells)
            full = np.stack([s.values, t.values])
            want = {"identity": full, "box_blur": oracles.box_blur_reference(full)}
            for enc in (IdentityEncoder(), BoxBlurEncoder()):
                js, jt = encode_joint(enc, s, t)
                assert jt.values.tobytes() == want[enc.name][1].tobytes()
                at = jt.cells
                got = js.values.reshape(-1, 4)[at]
                assert got.tobytes() == want[enc.name][0].reshape(-1, 4)[at].tobytes()
            assert js.cells.tobytes() == jt.cells.tobytes()  # the box blur's student
        assert empty_teachers > 0

    def test_box_blur_on_random_cells_matches_padded_oracle_bitwise(self):
        # Random cell sets that reach all four borders, plus no cells and every cell.
        rng = np.random.default_rng(4)
        h, w = CFG.grid_h, CFG.grid_w
        top, left = np.arange(w), np.arange(h) * w
        sides = [top, (h - 1) * w + top, left, left + w - 1]
        sets = [np.array([], dtype=np.int64), np.arange(h * w)]
        for _ in range(50):
            picked = np.flatnonzero(rng.random(h * w) < rng.uniform(0.05, 0.6))
            sets.append(np.union1d(picked, [rng.choice(side) for side in sides]))
        for cells in sets:
            features = rng.normal(size=(len(cells), 3))
            features[rng.random(features.shape) < 0.3] = -0.0
            g = BevFeatureGrid(cells, features, CFG)
            out = BoxBlurEncoder()(g)
            want = oracles.box_blur_reference(g.values[None])[0]
            assert out.values.tobytes() == want.tobytes()
            assert out.occupancy().tobytes() == np.linalg.norm(want, axis=2).tobytes()

    def test_loss_on_random_cells_equals_windowed_loss_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s, t = random_sparse_grid(rng, CFG, 3), random_sparse_grid(rng, CFG, 3)
            for enc in (IdentityEncoder(), BoxBlurEncoder()):
                enc_s, enc_t = encode_joint(enc, s, t)
                assert distillation_loss(enc_t, enc_s) == windowed_loss(enc_t, enc_s, 1 << 20)

    def test_joint_shape_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        s = random_bev_grid(rng, CFG, 4)
        t = random_bev_grid(rng, CFG, 3)
        with pytest.raises(ValueError, match="mismatch"):
            encode_joint(IdentityEncoder(), s, t)

    def test_factory(self):
        assert get_encoder("identity").name == "identity"
        assert get_encoder("box_blur").name == "box_blur"
        with pytest.raises(ValueError, match="unknown encoder"):
            get_encoder("resnet")


WIN_CFG = BevGridConfig(range_xy=8.0, grid_h=9, grid_w=11)
# (row0, row1, col0, col1) of a window of stored cells in WIN_CFG; "empty" stores none.
WINDOWS = {
    "empty": (0, 0, 0, 0),
    "top-left-cell": (0, 1, 0, 1),
    "bottom-right-cell": (8, 9, 10, 11),
    "top": (0, 3, 4, 7),
    "bottom": (6, 9, 2, 5),
    "left": (3, 6, 0, 2),
    "right": (2, 5, 8, 11),
    "interior": (3, 6, 4, 7),
    "whole": (0, 9, 0, 11),
}
WINDOW_PAIRS = [(name, name) for name in WINDOWS] + [
    ("top-left-cell", "bottom-right-cell"),
    ("left", "right"),
    ("top", "bottom"),
    ("empty", "interior"),
    ("right", "empty"),
    ("top", "left"),
]
# How far each encoder's output cells reach beyond its input cells.
MARGIN = {"identity": 0, "box_blur": 1}


def window_cells(name, margin=0):
    """Flat ids of WINDOWS[name] grown by margin and clipped to WIN_CFG; empty stays empty."""
    r0, r1, c0, c1 = WINDOWS[name]
    h, w = WIN_CFG.grid_h, WIN_CFG.grid_w
    if r0 < r1 and c0 < c1:
        r0, r1 = max(r0 - margin, 0), min(r1 + margin, h)
        c0, c1 = max(c0 - margin, 0), min(c1 + margin, w)
    rows, cols = np.meshgrid(np.arange(r0, r1), np.arange(c0, c1), indexing="ij")
    return (rows * w + cols).ravel()


def windowed(rng, name, channels=3):
    """A WIN_CFG grid storing every cell of one window, with random values and signed zeros."""
    cells = window_cells(name)
    values = rng.normal(size=(len(cells), channels))
    values[rng.random(values.shape) < 0.2] = -0.0
    return BevFeatureGrid(cells, values, WIN_CFG)


def windowed_loss(t, s, block_bytes, eps=1e-6):
    """The loss as it was computed on a dense teacher window: the bounding box
    of the teacher's stored cells, walked in row blocks of about block_bytes,
    with the student cropped to each block."""
    tv, sv = t.values, s.values
    rows, cols = np.divmod(t.cells, t.cfg.grid_w)
    if len(rows) == 0:
        return 0.0, 0
    window = tv[rows.min() : rows.max() + 1, cols.min() : cols.max() + 1]
    crop = sv[rows.min() : rows.max() + 1, cols.min() : cols.max() + 1]
    step = max(1, block_bytes // max(window[:1].nbytes, 1))
    terms = []
    for a in range(0, len(window), step):
        block = window[a : a + step]
        norms = np.linalg.norm(block, axis=2)
        included = norms >= eps
        if included.any():
            diff = np.linalg.norm(block - crop[a : a + step], axis=2)
            terms.append(diff[included] / norms[included])
    if not terms:
        return 0.0, 0
    terms = np.concatenate(terms)
    return float(terms.mean()), len(terms)


@pytest.mark.parametrize("student_win, teacher_win", WINDOW_PAIRS)
class TestWindows:
    def test_joint_encoding_matches_full_grid_oracle(self, student_win, teacher_win):
        rng = np.random.default_rng(12)
        s, t = windowed(rng, student_win), windowed(rng, teacher_win)
        full = np.stack([s.values, t.values])
        blur_s, blur_t = encode_joint(BoxBlurEncoder(), s, t)
        want = oracles.box_blur_reference(full)
        assert BoxBlurEncoder()(s).values.tobytes() == want[0].tobytes()
        assert blur_t.values.tobytes() == want[1].tobytes()
        # The student is encoded at the teacher's encoded cells only.
        assert blur_s.cells.tobytes() == blur_t.cells.tobytes()
        at = blur_t.cells
        assert blur_s.features.tobytes() == want[0].reshape(-1, 3)[at].tobytes()
        same_s, same_t = encode_joint(IdentityEncoder(), s, t)
        assert same_s is s and same_t is t
        # The teacher stores its own cells grown by the encoder's reach.
        for enc, g in ((BoxBlurEncoder(), blur_t), (IdentityEncoder(), same_t)):
            cells = window_cells(teacher_win, MARGIN[enc.name])
            assert np.array_equal(g.cells, cells), enc.name
            assert g.features.shape == (len(cells), 3)

    def test_loss_matches_oracle_and_whole_grid_window(self, student_win, teacher_win):
        rng = np.random.default_rng(13)
        s, t = windowed(rng, student_win), windowed(rng, teacher_win)
        for enc_s, enc_t in ((s, t), encode_joint(BoxBlurEncoder(), s, t)):
            got = distillation_loss(enc_t, enc_s)
            whole = distillation_loss(
                BevFeatureGrid.from_values(enc_t.values, WIN_CFG),
                BevFeatureGrid.from_values(enc_s.values, WIN_CFG),
            )
            assert got == whole  # bit for bit, count included
            want, want_n = oracles.distill_loss_reference(enc_t.values, enc_s.values, 1e-6)
            assert got[1] == want_n
            assert abs(got[0] - want) < 1e-9

    @pytest.mark.parametrize("block_bytes", [1, 2 * 11 * 3 * 8, 1 << 30])
    def test_row_blocks_leave_loss_bits_unchanged(self, student_win, teacher_win, block_bytes):
        """The loss over stored cells equals the dense windowed loss with one
        row per block, two full-width rows per block, or one block, bit for bit."""
        rng = np.random.default_rng(14)
        s, t = windowed(rng, student_win), windowed(rng, teacher_win)
        t.features[:1] = 0.0  # an excluded cell among the stored ones
        for enc_s, enc_t in ((s, t), encode_joint(BoxBlurEncoder(), s, t)):
            assert distillation_loss(enc_t, enc_s) == windowed_loss(enc_t, enc_s, block_bytes)


class TestDistillationLoss:
    def test_equal_grids_zero_loss(self):
        rng = np.random.default_rng(3)
        t = random_bev_grid(rng, CFG, 3)
        loss, count = distillation_loss(t, t)
        assert loss == 0.0
        assert count == CFG.grid_h * CFG.grid_w  # gaussian values, all norms > eps

    def test_single_cell_unit_loss(self):
        t = grid([[[3.0, 4.0]]])
        s = grid([[[0.0, 0.0]]])
        loss, count = distillation_loss(t, s)
        assert abs(loss - 1.0) < 1e-12
        assert count == 1

    def test_zero_teacher_gives_zero_loss_no_cells(self):
        t = grid(np.zeros((2, 2, 2)))
        s = grid(np.ones((2, 2, 2)))
        loss, count = distillation_loss(t, s)
        assert (loss, count) == (0.0, 0)

    def test_common_scale_invariance(self):
        rng = np.random.default_rng(4)
        t = random_bev_grid(rng, CFG, 3)
        s = random_bev_grid(rng, CFG, 3)
        base, _ = distillation_loss(t, s)
        for c in (1e-3, 1.0, 1e3):
            scaled, _ = distillation_loss(
                BevFeatureGrid.from_values(c * t.values, CFG),
                BevFeatureGrid.from_values(c * s.values, CFG),
            )
            assert abs(scaled - base) < 1e-9

    def test_excluded_cell_indifference(self):
        t_vals = np.zeros((2, 2, 2))
        t_vals[0, 0] = (1.0, 2.0)  # only included cell
        s_vals = np.ones((2, 2, 2))
        base, count = distillation_loss(grid(t_vals), grid(s_vals))
        assert count == 1
        s_mod = s_vals.copy()
        s_mod[1, 1] = (500.0, -900.0)
        changed, _ = distillation_loss(grid(t_vals), grid(s_mod))
        assert changed == base

    def test_matches_cell_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = random_bev_grid(rng, CFG, 3)
            s = random_bev_grid(rng, CFG, 3)
            got, got_n = distillation_loss(t, s)
            want, want_n = oracles.distill_loss_reference(t.values, s.values, 1e-6)
            assert got_n == want_n
            assert abs(got - want) < 1e-9

    def test_eps_must_be_positive(self):
        rng = np.random.default_rng(6)
        t = random_bev_grid(rng, CFG, 2)
        with pytest.raises(ValueError, match="eps"):
            distillation_loss(t, t, eps=0.0)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        t = random_bev_grid(rng, CFG, 2)
        s = random_bev_grid(rng, CFG, 3)
        with pytest.raises(ValueError, match="mismatch"):
            distillation_loss(t, s)


class TestGradientCheck:
    def test_random_grids_small_error(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(20):
            t = random_bev_grid(rng, CFG, 3)
            s = random_bev_grid(rng, CFG, 3)
            res = loss_gradient_check(t, s, h=1e-5)
            assert res.checked_components > 0
            worst = max(worst, res.max_rel_error)
        assert worst < 1e-5

    def test_equal_grids_all_skipped(self):
        rng = np.random.default_rng(9)
        t = random_bev_grid(rng, CFG, 3)
        res = loss_gradient_check(t, t)
        assert res.checked_components == 0
        assert res.skipped_cells == CFG.grid_h * CFG.grid_w
        assert res.max_rel_error == 0.0

    def test_scale_does_not_change_outcome(self):
        rng = np.random.default_rng(10)
        t = random_bev_grid(rng, CFG, 3)
        s = random_bev_grid(rng, CFG, 3)
        base = loss_gradient_check(t, s, h=1e-5)
        scaled = loss_gradient_check(
            BevFeatureGrid.from_values(10.0 * t.values, CFG),
            BevFeatureGrid.from_values(10.0 * s.values, CFG),
            h=1e-5,
        )
        assert scaled.checked_components == base.checked_components
        assert scaled.max_rel_error < 1e-5

    def test_step_must_be_positive(self):
        rng = np.random.default_rng(11)
        t = random_bev_grid(rng, CFG, 2)
        with pytest.raises(ValueError, match="step"):
            loss_gradient_check(t, t, h=0.0)

import numpy as np
import pytest

from fgbev import distill, oracles
from fgbev.distill import (
    BoxBlurEncoder,
    IdentityEncoder,
    distillation_loss,
    encode_joint,
    get_encoder,
    loss_gradient_check,
)
from fgbev.selfcheck import random_bev_grid, random_windowed_grid
from fgbev.view_transform import BevFeatureGrid, BevGridConfig

CFG = BevGridConfig(range_xy=8.0, grid_h=5, grid_w=7)


def grid(values):
    arr = np.asarray(values, dtype=float)
    cfg = BevGridConfig(range_xy=8.0, grid_h=arr.shape[0], grid_w=arr.shape[1])
    return BevFeatureGrid(arr, cfg)


class TestEncoders:
    def test_identity_bitwise(self):
        rng = np.random.default_rng(0)
        g = random_bev_grid(rng, CFG, 3)
        out = IdentityEncoder()(g)
        assert np.array_equal(out.values, g.values)
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
        # Each window on its own matches the oracle's batch form.
        fast = np.stack([BoxBlurEncoder().apply(v) for v in values])
        ref = oracles.box_blur_reference(values)
        assert np.array_equal(fast, ref)
        assert fast.tobytes() == ref.tobytes()

    def test_joint_equals_separate_bitwise(self):
        # Each grid is encoded as the oracle encodes it alone on the zero-padded full grid.
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = random_windowed_grid(rng, CFG, 4)
            t = random_windowed_grid(rng, CFG, 4)
            full = np.stack([s.values, t.values])
            want = {"identity": full, "box_blur": oracles.box_blur_reference(full)}
            for enc in (IdentityEncoder(), BoxBlurEncoder()):
                js, jt = encode_joint(enc, s, t)
                assert np.stack([js.values, jt.values]).tobytes() == want[enc.name].tobytes()

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
# (row0, row1, col0, col1) of a window in WIN_CFG; "empty" is a grid nothing reached.
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


def grown(name, margin):
    """WINDOWS[name] grown by margin and clipped to WIN_CFG; an empty window stays empty."""
    r0, r1, c0, c1 = WINDOWS[name]
    if r0 == r1 or c0 == c1:
        return r0, r1, c0, c1
    h, w = WIN_CFG.grid_h, WIN_CFG.grid_w
    return max(r0 - margin, 0), min(r1 + margin, h), max(c0 - margin, 0), min(c1 + margin, w)


def windowed(rng, name, channels=3):
    """A WIN_CFG grid with random values, signed zeros among them, in one window."""
    r0, r1, c0, c1 = WINDOWS[name]
    values = rng.normal(size=(r1 - r0, c1 - c0, channels))
    values[rng.random(values.shape) < 0.2] = -0.0
    return BevFeatureGrid(values, WIN_CFG, (r0, c0))


@pytest.mark.parametrize("student_win, teacher_win", WINDOW_PAIRS)
class TestWindows:
    def test_joint_encoding_matches_full_grid_oracle(self, student_win, teacher_win):
        rng = np.random.default_rng(12)
        s, t = windowed(rng, student_win), windowed(rng, teacher_win)
        full = np.stack([s.values, t.values])
        blur_s, blur_t = encode_joint(BoxBlurEncoder(), s, t)
        want = oracles.box_blur_reference(full)
        assert blur_s.values.tobytes() == want[0].tobytes()
        assert blur_t.values.tobytes() == want[1].tobytes()
        assert BoxBlurEncoder()(t).values.tobytes() == want[1].tobytes()
        same_s, same_t = encode_joint(IdentityEncoder(), s, t)
        assert same_s.values.tobytes() == full[0].tobytes()
        assert same_t.values.tobytes() == full[1].tobytes()
        # Each grid keeps its own window grown by the encoder's margin.
        encoded = {BoxBlurEncoder(): (blur_s, blur_t), IdentityEncoder(): (same_s, same_t)}
        for enc, got in encoded.items():
            for g, name in zip(got, (student_win, teacher_win)):
                r0, r1, c0, c1 = grown(name, enc.margin)
                assert g.bounds == (r0, r1, c0, c1), enc.name
                assert g.window.shape == (r1 - r0, c1 - c0, 3)

    def test_loss_matches_oracle_and_whole_grid_window(self, student_win, teacher_win):
        rng = np.random.default_rng(13)
        s, t = windowed(rng, student_win), windowed(rng, teacher_win)
        for enc_s, enc_t in ((s, t), encode_joint(BoxBlurEncoder(), s, t)):
            got = distillation_loss(enc_t, enc_s)
            whole = distillation_loss(
                BevFeatureGrid(enc_t.values, WIN_CFG), BevFeatureGrid(enc_s.values, WIN_CFG)
            )
            assert got == whole  # bit for bit, count included
            want, want_n = oracles.distill_loss_reference(enc_t.values, enc_s.values, 1e-6)
            assert got[1] == want_n
            assert abs(got[0] - want) < 1e-9

    @pytest.mark.parametrize("block_bytes", [1, 2 * 11 * 3 * 8, 1 << 30])
    def test_row_blocks_leave_loss_bits_unchanged(
        self, student_win, teacher_win, block_bytes, monkeypatch
    ):
        """One row per block, two full-width rows per block, or one block: the
        loss equals the whole-grid expression bit for bit."""
        rng = np.random.default_rng(14)
        s, t = windowed(rng, student_win), windowed(rng, teacher_win)
        t.window[0:1, 0:1] = 0.0  # an excluded cell inside the window
        monkeypatch.setattr(distill, "LOSS_BLOCK_BYTES", block_bytes)
        for enc_s, enc_t in ((s, t), encode_joint(BoxBlurEncoder(), s, t)):
            tv, sv = enc_t.values, enc_s.values
            norms = np.linalg.norm(tv, axis=2)
            included = norms >= 1e-6
            terms = np.linalg.norm(tv - sv, axis=2)[included] / norms[included]
            want = (float(terms.mean()), int(included.sum())) if included.any() else (0.0, 0)
            assert distillation_loss(enc_t, enc_s) == want


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
                BevFeatureGrid(c * t.values, CFG), BevFeatureGrid(c * s.values, CFG)
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
            BevFeatureGrid(10.0 * t.values, CFG),
            BevFeatureGrid(10.0 * s.values, CFG),
            h=1e-5,
        )
        assert scaled.checked_components == base.checked_components
        assert scaled.max_rel_error < 1e-5

    def test_step_must_be_positive(self):
        rng = np.random.default_rng(11)
        t = random_bev_grid(rng, CFG, 2)
        with pytest.raises(ValueError, match="step"):
            loss_gradient_check(t, t, h=0.0)

"""Self-distillation core: one shared-parameter BEV encoder for student and
teacher, the teacher-normalized per-cell L2 alignment loss, and a
finite-difference harness that validates the analytic student gradient."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .view_transform import BevFeatureGrid

DEFAULT_NORM_EPS = 1e-6
# Teacher rows per loss block are chosen so a block's features take about this many bytes.
LOSS_BLOCK_BYTES = 1 << 20


class BevEncoder:
    """Deterministic map over BEV grids with fixed shared parameters.

    Subclasses implement apply() on one (H, W, C) window. An output cell
    depends only on the input cells at most `margin` rows and columns away
    and is +0.0 when they all are, so encoding a grid's window grown by
    `margin` gives the whole grid's result.
    """

    name = "base"
    margin = 0

    def apply(self, window: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, grid: BevFeatureGrid) -> BevFeatureGrid:
        """Encode the window grown by `margin` and clipped to the grid; an empty one stays empty."""
        r0, r1, c0, c1 = grid.bounds
        if r0 < r1 and c0 < c1:
            m, h, w = self.margin, grid.cfg.grid_h, grid.cfg.grid_w
            r0, r1, c0, c1 = max(r0 - m, 0), min(r1 + m, h), max(c0 - m, 0), min(c1 + m, w)
        out = self.apply(grid.crop((r0, r1, c0, c1)))
        return BevFeatureGrid(out, grid.cfg, (r0, c0))


class IdentityEncoder(BevEncoder):
    name = "identity"

    def apply(self, window: np.ndarray) -> np.ndarray:
        return np.array(window, dtype=np.float64, copy=True)


class BoxBlurEncoder(BevEncoder):
    """Fixed 3x3 box blur with zero padding, applied per channel.

    Every output cell is the mean of the 3x3 stencil around it, with cells
    outside the grid counted as zeros (divisor stays 9 at the borders).
    """

    name = "box_blur"
    margin = 1

    def apply(self, window: np.ndarray) -> np.ndarray:
        arr = np.asarray(window, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"expected (H, W, C), got shape {arr.shape}")
        h, w = arr.shape[:2]
        out = np.zeros_like(arr)
        # Taps that fall outside the grid would add +0.0, which leaves a sum
        # that starts at +0.0 unchanged, so they are skipped.
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                (oy, iy), (ox, ix) = _tap(dy, h), _tap(dx, w)
                out[oy, ox] += arr[iy, ix]
        out /= 9.0
        return out


def _tap(shift: int, n: int) -> tuple[slice, slice]:
    """(output, input) slices along one axis for out[i] += in[i + shift]."""
    return slice(max(0, -shift), n - max(0, shift)), slice(max(0, shift), n - max(0, -shift))


# The encoder kinds configs and the CLI accept, by name.
ENCODERS = {cls.name: cls for cls in (IdentityEncoder, BoxBlurEncoder)}


def get_encoder(kind: str) -> BevEncoder:
    try:
        return ENCODERS[kind]()
    except KeyError:
        raise ValueError(f"unknown encoder kind {kind!r}; choose from {sorted(ENCODERS)}")


def encode_joint(
    encoder: BevEncoder, student: BevFeatureGrid, teacher: BevFeatureGrid
) -> tuple[BevFeatureGrid, BevFeatureGrid]:
    """Encode student and teacher with the one shared encoder, each on its own window."""
    if student.shape != teacher.shape:
        raise ValueError(f"shape mismatch: student {student.shape} vs teacher {teacher.shape}")
    return encoder(student), encoder(teacher)


def _cell_norms(values: np.ndarray) -> np.ndarray:
    return np.linalg.norm(values, axis=2)


def distillation_loss(
    teacher_enc: BevFeatureGrid,
    student_enc: BevFeatureGrid,
    eps: float = DEFAULT_NORM_EPS,
) -> tuple[float, int]:
    """Mean per-cell L2 distance after normalizing by the teacher cell norm.

    Cells whose teacher norm falls below eps are excluded from the mean;
    with no included cells the loss is 0. Returns (loss, included_cells).
    Only the teacher's window is read: outside it the teacher norm is 0 < eps,
    and inside it the included cells keep their row-major order.
    """
    if teacher_enc.shape != student_enc.shape:
        raise ValueError(
            f"shape mismatch: teacher {teacher_enc.shape} vs student {student_enc.shape}"
        )
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    t = teacher_enc.window
    r0, _, c0, c1 = teacher_enc.bounds
    # Row blocks of about LOSS_BLOCK_BYTES keep the temporaries small; each
    # term depends only on its own cell, and the blocks keep row-major order.
    rows = max(1, LOSS_BLOCK_BYTES // max(t[:1].nbytes, 1))
    terms = []
    for a in range(0, len(t), rows):
        block = t[a : a + rows]
        norms = _cell_norms(block)
        included = norms >= eps
        if included.any():
            s = student_enc.crop((r0 + a, r0 + a + len(block), c0, c1))
            terms.append(_cell_norms(block - s)[included] / norms[included])
    if not terms:
        return 0.0, 0
    terms = np.concatenate(terms)
    return float(terms.mean()), len(terms)


@dataclass(frozen=True)
class GradientCheckResult:
    """Outcome of comparing the analytic student gradient to finite differences."""

    max_rel_error: float
    checked_components: int
    skipped_cells: int


def loss_gradient_check(
    teacher_enc: BevFeatureGrid,
    student_enc: BevFeatureGrid,
    eps: float = DEFAULT_NORM_EPS,
    h: float = 1e-5,
) -> GradientCheckResult:
    """Validate the analytic gradient of the loss w.r.t. student features.

    The analytic gradient at an included cell is (s - t) / (K * |t - s| *
    |t|) with K the included-cell count. Cells where |t - s| is within 10*h
    of the non-differentiable point are skipped and reported. Central
    differences with step h provide the reference.
    """
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    t, s = teacher_enc.values, student_enc.values
    if t.shape != s.shape:
        raise ValueError(f"shape mismatch: teacher {t.shape} vs student {s.shape}")

    norms = _cell_norms(t)
    included = norms >= eps
    count = int(included.sum())
    if count == 0:
        return GradientCheckResult(0.0, 0, 0)

    diff_norm = _cell_norms(t - s)
    checkable = included & (diff_norm > 10.0 * h)
    skipped = int((included & ~checkable).sum())

    analytic = np.zeros_like(s)
    rows, cols = np.nonzero(checkable)
    for i, j in zip(rows, cols):
        analytic[i, j] = (s[i, j] - t[i, j]) / (count * diff_norm[i, j] * norms[i, j])

    max_rel = 0.0
    n_checked = 0
    work = s.copy()
    grid = lambda vals: BevFeatureGrid(vals, student_enc.cfg)
    for i, j in zip(rows, cols):
        for k in range(s.shape[2]):
            orig = work[i, j, k]
            work[i, j, k] = orig + h
            up, _ = distillation_loss(teacher_enc, grid(work), eps)
            work[i, j, k] = orig - h
            down, _ = distillation_loss(teacher_enc, grid(work), eps)
            work[i, j, k] = orig
            numeric = (up - down) / (2.0 * h)
            a = analytic[i, j, k]
            denom = max(abs(a), abs(numeric), 1e-12)
            max_rel = max(max_rel, abs(a - numeric) / denom)
            n_checked += 1
    return GradientCheckResult(max_rel, n_checked, skipped)

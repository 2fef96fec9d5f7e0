"""Self-distillation core: one shared-parameter BEV encoder for student and
teacher, the teacher-normalized per-cell L2 alignment loss, and a
finite-difference harness that validates the analytic student gradient.
Encoders and the loss work on each grid's stored cells, never the full grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .view_transform import BevFeatureGrid

DEFAULT_NORM_EPS = 1e-6


class BevEncoder:
    """Deterministic map over BEV grids with fixed shared parameters.

    An output cell is +0.0 when every input cell it reads is, so an encoder
    computes only the cells its input's stored cells reach.
    """

    name = "base"

    def __call__(self, grid: BevFeatureGrid) -> BevFeatureGrid:
        raise NotImplementedError


class IdentityEncoder(BevEncoder):
    name = "identity"

    def __call__(self, grid: BevFeatureGrid) -> BevFeatureGrid:
        return grid


class BoxBlurEncoder(BevEncoder):
    """Fixed 3x3 box blur with zero padding, applied per channel.

    Every output cell is the mean of the 3x3 stencil around it, with cells
    outside the grid counted as zeros (divisor stays 9 at the borders).
    """

    name = "box_blur"

    def __call__(self, grid: BevFeatureGrid) -> BevFeatureGrid:
        h, w = grid.cfg.grid_h, grid.cfg.grid_w
        stored = np.zeros((h, w), dtype=bool)
        stored.flat[grid.cells] = True
        reached = np.zeros((h + 2, w + 2), dtype=bool)
        for dy in range(3):
            for dx in range(3):
                reached[dy : dy + h, dx : dx + w] |= stored
        cells = np.flatnonzero(reached[1:-1, 1:-1])
        r, c = np.divmod(cells, w)
        lut, rows = grid.lookup(pad=1)
        out = np.zeros((len(cells), grid.channels))
        # A tap on a cell that is not stored, or outside the grid, adds the
        # +0.0 row, which leaves a sum that starts at +0.0 unchanged.
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                out += rows[lut[r + 1 + dy, c + 1 + dx]]
        out /= 9.0
        return BevFeatureGrid(cells, out, grid.cfg)


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
    """Encode student and teacher with the one shared encoder, each on its own cells."""
    if student.shape != teacher.shape:
        raise ValueError(f"shape mismatch: student {student.shape} vs teacher {teacher.shape}")
    return encoder(student), encoder(teacher)


def _cell_norms(values: np.ndarray) -> np.ndarray:
    return np.linalg.norm(values, axis=-1)


def distillation_loss(
    teacher_enc: BevFeatureGrid,
    student_enc: BevFeatureGrid,
    eps: float = DEFAULT_NORM_EPS,
) -> tuple[float, int]:
    """Mean per-cell L2 distance after normalizing by the teacher cell norm.

    Cells whose teacher norm falls below eps are excluded from the mean;
    with no included cells the loss is 0. Returns (loss, included_cells).
    Only the teacher's stored cells are read: every other cell has teacher
    norm 0 < eps, and the stored cells ascend in row-major order.
    """
    if teacher_enc.shape != student_enc.shape:
        raise ValueError(
            f"shape mismatch: teacher {teacher_enc.shape} vs student {student_enc.shape}"
        )
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    norms = _cell_norms(teacher_enc.features)
    included = norms >= eps
    if not included.any():
        return 0.0, 0
    lut, rows = student_enc.lookup()
    s = rows[lut.reshape(-1)[teacher_enc.cells[included]]]
    terms = _cell_norms(teacher_enc.features[included] - s) / norms[included]
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
    grid = lambda vals: BevFeatureGrid.from_values(vals, student_enc.cfg)
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

"""Rigid transforms, pinhole cameras, oriented 3D boxes and point clouds.

Everything here is a pure function over immutable values. Coordinate
conventions:

* Ego frame: right-handed, meters. The simulator uses x forward, y left,
  z up, but nothing in this module depends on that choice.
* Camera frame: x right, y down, z along the optical axis. "Depth" always
  means the camera-frame z coordinate, not ray length.
* Pixels: u along image width, v along image height, origin at the
  top-left pixel center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ORTHONORMAL_TOL = 1e-9


def _as_vector(x, n, name):
    v = np.asarray(x, dtype=np.float64).reshape(-1)
    if v.shape != (n,):
        raise ValueError(f"{name} must be a {n}-vector, got shape {np.shape(x)}")
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError(f"{name} must be finite")
    return v


def rotation_about_z(angle: float) -> np.ndarray:
    """3x3 rotation matrix about the +z axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class RigidTransform:
    """A proper rigid motion: p' = rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got shape {rot.shape}")
        # A non-finite entry fails before the product, which would warn on inf.
        ok = np.isfinite(rot).all() and np.abs(rot @ rot.T - np.eye(3)).max() <= ORTHONORMAL_TOL
        if not ok:
            raise ValueError(f"rotation is not orthonormal within {ORTHONORMAL_TOL}")
        if abs(np.linalg.det(rot) - 1.0) > 1e-6:
            raise ValueError("rotation must have determinant +1 (no reflections)")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", _as_vector(self.translation, 3, "translation"))

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_yaw(cls, yaw: float, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        return cls(rotation_about_z(yaw), np.asarray(translation, dtype=np.float64))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one (3,) point or an (N, 3) batch."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            return self.rotation @ pts + self.translation
        return pts @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform equivalent to applying `other` first, then self."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rot_inv = self.rotation.T
        return RigidTransform(rot_inv, -rot_inv @ self.translation)

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera with rigid extrinsics mapping ego coordinates to camera coordinates."""

    fx: float
    fy: float
    cx: float
    cy: float
    ego_to_cam: RigidTransform
    image_width: int
    image_height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if not (0 <= self.cx < self.image_width):
            raise ValueError(f"cx={self.cx} outside [0, {self.image_width})")
        if not (0 <= self.cy < self.image_height):
            raise ValueError(f"cy={self.cy} outside [0, {self.image_height})")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image dimensions must be positive")

    @property
    def cam_to_ego(self) -> RigidTransform:
        return self.ego_to_cam.inverse()

    def feature_grid_shape(self, stride: int) -> tuple[int, int]:
        """(rows, cols) of the feature grid at `stride`; stride must divide the image."""
        if self.image_height % stride or self.image_width % stride:
            raise ValueError(
                f"feature_stride {stride} does not divide image "
                f"{self.image_width}x{self.image_height}"
            )
        return self.image_height // stride, self.image_width // stride

    def in_image(self, u, v):
        """Whether pixel (u, v) lies in [0, W-1] x [0, H-1], elementwise on arrays.

        The bounds are closed. NaN, the pixel of a point behind the camera, is outside.
        """
        return (0.0 <= u) & (u <= self.image_width - 1) & (0.0 <= v) & (v <= self.image_height - 1)


def project_points_unbounded(cam: CameraModel, points: np.ndarray):
    """Vectorized pinhole projection without bounds filtering.

    Returns (uv, depth): uv is (N, 2) pixel coordinates, depth is (N,)
    camera-frame z. Entries with depth <= 0 get NaN pixel coordinates; the
    caller decides what to keep.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    pc = cam.ego_to_cam.apply(pts)
    z = pc[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = cam.fx * pc[:, 0] / z + cam.cx
        v = cam.fy * pc[:, 1] / z + cam.cy
    bad = z <= 0.0
    u = np.where(bad, np.nan, u)
    v = np.where(bad, np.nan, v)
    return np.stack([u, v], axis=1), z


@dataclass(frozen=True)
class Box3D:
    """Yaw-oriented cuboid in ego coordinates.

    size is (length, width, height): length along the box x axis (heading),
    width along box y, height along box z. visibility follows the ordinal
    1..4 convention (4 = fully visible).
    """

    center: np.ndarray
    size: tuple[float, float, float]
    yaw: float
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(2))
    class_id: int = 0
    is_stationary: bool = False
    visibility: int = 4

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vector(self.center, 3, "center"))
        object.__setattr__(self, "velocity", _as_vector(self.velocity, 2, "velocity"))
        size = tuple(float(s) for s in self.size)
        if len(size) != 3 or not all(s > 0 for s in size):
            raise ValueError(f"size components must be positive, got {self.size}")
        object.__setattr__(self, "size", size)
        if not math.isfinite(self.yaw):
            raise ValueError(f"yaw must be finite, got {self.yaw}")
        if self.visibility not in (1, 2, 3, 4):
            raise ValueError(f"visibility must be in {{1,2,3,4}}, got {self.visibility}")

    @classmethod
    def from_arrays(cls, centers, sizes, yaws, velocities, class_ids, stationary, visibility):
        """One box per row of the arrays, checked by `__post_init__`'s rules once over them;
        the first bad row raises its `Box3D` error, prefixed by its index."""
        rows = list(zip(centers, map(tuple, sizes.tolist()), yaws.tolist(), velocities,
                        class_ids.tolist(), stationary.tolist(), visibility.tolist()))
        ok = np.isfinite(np.column_stack([centers, velocities, yaws])).all(axis=1)
        ok &= (sizes > 0).all(axis=1) & (visibility[:, None] == (1, 2, 3, 4)).any(axis=1)
        for i in np.flatnonzero(~ok)[:1].tolist():
            try:
                cls(*rows[i])
            except ValueError as exc:
                raise ValueError(f"box {i}: {exc}") from None
        boxes = [object.__new__(cls) for _ in rows]
        for box, row in zip(boxes, rows):
            vars(box).update(zip(cls.__dataclass_fields__, row))
        return boxes

    @property
    def half_size(self) -> np.ndarray:
        return np.asarray(self.size) / 2.0


# Corner ordering: bottom face counter-clockwise (seen from +z), then top
# face in the same order, starting at (+l/2, +w/2, -h/2) in the box frame.
_CORNER_SIGNS = np.array(
    [
        [+1, +1, -1],
        [-1, +1, -1],
        [-1, -1, -1],
        [+1, -1, -1],
        [+1, +1, +1],
        [-1, +1, +1],
        [-1, -1, +1],
        [+1, -1, +1],
    ],
    dtype=np.float64,
)


def yaw_rotations(yaws) -> np.ndarray:
    """(B, 3, 3): `rotation_about_z` of each yaw, from the same `math.cos` and `math.sin`."""
    c, s = np.array([(math.cos(yaw), math.sin(yaw)) for yaw in yaws]).reshape(-1, 2).T
    rots = np.zeros((len(c), 3, 3))
    rots[:, 0, 0], rots[:, 0, 1], rots[:, 1, 0], rots[:, 1, 1], rots[:, 2, 2] = c, -s, s, c, 1.0
    return rots


def cuboid_corners(centers, sizes, rots) -> np.ndarray:
    """(B, 8, 3) corners of the boxes with (B, 3) centers and sizes and (B, 3, 3) yaw
    rotations; one stacked matmul gives each box the bits of its own `local @ rot.T`."""
    local = _CORNER_SIGNS * (np.reshape(sizes, (-1, 1, 3)) / 2.0)
    return np.matmul(local, rots.transpose(0, 2, 1)) + np.reshape(centers, (-1, 1, 3))


def box3d_corners(boxes: list[Box3D]) -> np.ndarray:
    """(B, 8, 3): each box's 8 corners in ego coordinates, in the documented fixed order."""
    centers, sizes = [box.center for box in boxes], [box.size for box in boxes]
    return cuboid_corners(centers, sizes, yaw_rotations([box.yaw for box in boxes]))


def box_corner_pixels(cam: CameraModel, boxes: list[Box3D]):
    """(uv, depth), (B, 8, 2) and (B, 8), of all B·8 corners in one `project_points_unbounded`."""
    uv, depth = project_points_unbounded(cam, box3d_corners(boxes).reshape(-1, 3))
    return uv.reshape(-1, 8, 2), depth.reshape(-1, 8)


def _inside(box: Box3D, pts: np.ndarray) -> np.ndarray:
    """(N,) bools for an (N, 3) float64 batch against one closed cuboid."""
    local = (pts - box.center) @ rotation_about_z(box.yaw)
    return np.all(np.abs(local) <= box.half_size, axis=1)


# Relative growth of each candidate window. A point that `_inside` accepts lies
# within the box's circumscribed xy radius r of its center up to a rounding error
# of a few ulps of r + |cx| + |cy| (about 1e-15 of it); this slack is far larger.
WINDOW_SLACK = 1e-9
PAIR_BLOCK = 1 << 20  # a block of candidate boxes holds at most max(N, PAIR_BLOCK) pairs


def _box_candidates(boxes: list[Box3D], pts: np.ndarray):
    """Yield (box index, ascending point indices) for each box with candidates.

    The candidates of a box are the points whose x and y each lie within its
    circumscribed xy radius, grown by WINDOW_SLACK, of its center: a superset of
    the points inside it. The cloud is sorted by x once, so each box's x range is
    one slice of that order, and the y test is one pass over all those slices.
    """
    if not boxes or not len(pts):
        return
    order = np.argsort(pts[:, 0], kind="stable")
    xs, ys = pts[order, 0], pts[order, 1]
    centers = np.array([box.center[:2] for box in boxes])
    reach = np.array([math.hypot(*box.size[:2]) / 2.0 for box in boxes])
    reach += WINDOW_SLACK * (reach + np.abs(centers).sum(axis=1))
    lo = np.searchsorted(xs, centers[:, 0] - reach, "left")
    n = np.searchsorted(xs, centers[:, 0] + reach, "right") - lo
    begin = np.cumsum(n) - n  # pair begin + k is a box's k-th x candidate, sorted point lo + k
    start, cap = 0, max(len(pts), PAIR_BLOCK)
    while start < len(boxes):  # one box holds at most N <= cap pairs
        stop = int(np.searchsorted(begin + n, begin[start] + cap, "right"))
        box = np.repeat(np.arange(start, stop), n[start:stop])
        pos = np.arange(begin[start], begin[stop - 1] + n[stop - 1]) + (lo - begin)[box]
        near = np.abs(ys[pos] - centers[box, 1]) <= reach[box]
        box, idx = np.divmod(np.sort(box[near] * len(pts) + order[pos[near]]), len(pts))
        bounds = np.searchsorted(box, np.arange(start, stop + 1)).tolist()
        for i, a, b in zip(range(start, stop), bounds, bounds[1:]):
            if a < b:
                yield i, idx[a:b]
        start = stop


def points_in_box(boxes: list[Box3D], points: np.ndarray) -> np.ndarray:
    """(N,) bools: True where a point lies in at least one box (faces count as inside)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    inside = np.zeros(len(pts), dtype=bool)
    for i, idx in _box_candidates(boxes, pts):
        inside[idx[_inside(boxes[i], pts[idx])]] = True
    return inside


def box_point_counts(boxes: list[Box3D], points: np.ndarray) -> np.ndarray:
    """(B,) int64: how many points lie in each box (faces count as inside)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    counts = np.zeros(len(boxes), dtype=np.int64)
    for i, idx in _box_candidates(boxes, pts):
        counts[i] = np.count_nonzero(_inside(boxes[i], pts[idx]))
    return counts


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned pixel rectangle with (x1, y1) top-left and (x2, y2) bottom-right."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(f"degenerate Box2D: ({self.x1},{self.y1})-({self.x2},{self.y2})")

    @property
    def center(self) -> tuple[float, float]:
        return (self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1


def visible_corner_rects(uv: np.ndarray, depth: np.ndarray):
    """(rects, depth) from box_corner_pixels' (uv, depth): each box's unclipped bounding
    rectangle (x1, y1, x2, y2) over its corners with positive camera depth, (B, 4), and
    their least depth, (B,).

    A box with no corner in front of the camera gets the empty rectangle
    x1 = y1 = +inf, x2 = y2 = -inf and depth +inf.
    """
    front = depth > 0.0
    lo = np.where(front[:, :, None], uv, np.inf).min(axis=1)
    hi = np.where(front[:, :, None], uv, -np.inf).max(axis=1)
    return np.concatenate([lo, hi], axis=1), np.where(front, depth, np.inf).min(axis=1)


def clip_rects(cam: CameraModel, rects: np.ndarray) -> list[Box2D | None]:
    """Each visible_corner_rects rectangle clipped to the image; None for one that misses
    the image entirely, the empty rectangle of a box with no front corner included."""
    w, h = cam.image_width - 1, cam.image_height - 1
    return [
        None
        if x2 < 0 or y2 < 0 or x1 > w or y1 > h
        else Box2D(max(x1, 0.0), max(y1, 0.0), min(x2, float(w)), min(y2, float(h)))
        for x1, y1, x2, y2 in rects.tolist()
    ]


def project_box3d_to_box2d(cam: CameraModel, boxes: list[Box3D]) -> list[Box2D | None]:
    """Each box's rectangle of projected visible corners, clipped to the image (clip_rects
    of visible_corner_rects of box_corner_pixels); None where clip_rects gives None."""
    return clip_rects(cam, visible_corner_rects(*box_corner_pixels(cam, boxes))[0])


@dataclass(frozen=True)
class PointCloud:
    """(N, 3) points tagged with the coordinate frame they are expressed in."""

    points: np.ndarray
    frame_tag: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got shape {pts.shape}")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def require_tag(self, expected: str) -> None:
        """Boundary check used by operations that assume a specific frame."""
        if self.frame_tag != expected:
            raise ValueError(
                f"point cloud is in frame {self.frame_tag!r}, expected {expected!r}"
            )

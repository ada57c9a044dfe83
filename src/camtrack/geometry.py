"""Angle arithmetic, bearings, fields of view and ray-box intersection.

All angles are degrees. Yaw is measured counterclockwise from +x in the
ground plane and kept in (-180, 180]; pitch is positive upward. Everything
here is a pure function of its inputs. The array helpers at the end serve
the lockstep world; each equals its scalar counterpart bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PITCH_LIMIT_DEG = 60.0
ZOOM_MIN = 1.0
ZOOM_MAX = 3.3
BASE_H_FOV_DEG = 90.0
BASE_V_FOV_DEG = 60.0


@dataclass(slots=True)
class CameraPose:
    """Position, orientation and zoom of one fixed-position rotating camera.

    Treated as a value: world.apply_action returns a new pose and nothing
    assigns to a pose's fields. It is not frozen because a frozen
    dataclass's __init__ sets each field through object.__setattr__, which
    made building one about four times slower, and the one-episode step
    builds one per camera; so a pose is not hashable either."""

    x: float
    y: float
    z: float
    pitch_deg: float  # [-60, 60], positive up
    yaw_deg: float    # (-180, 180]
    zoom: float       # [1.0, 3.3]

    def validate(self) -> None:
        if not -PITCH_LIMIT_DEG <= self.pitch_deg <= PITCH_LIMIT_DEG:
            raise ValueError(f"pitch {self.pitch_deg} outside [-60, 60]")
        if not -180.0 < self.yaw_deg <= 180.0:
            raise ValueError(f"yaw {self.yaw_deg} outside (-180, 180]")
        if not ZOOM_MIN <= self.zoom <= ZOOM_MAX:
            raise ValueError(f"zoom {self.zoom} outside [1.0, 3.3]")


@dataclass(frozen=True, slots=True)
class Obstacle:
    """Axis-aligned box standing on the ground plane (base at z = 0)."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float
    height: float

    def validate(self) -> None:
        if not (self.min_x < self.max_x and self.min_y < self.max_y):
            raise ValueError("obstacle min corner must be strictly below max corner")
        if not self.height > 0.0:
            raise ValueError("obstacle height must be positive")

    def footprint_contains(self, x: float, y: float) -> bool:
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y


def wrap_angle(a: float) -> float:
    """Reduce an angle to the interval (-180, 180]."""
    r = a % 360.0
    return r - 360.0 if r > 180.0 else r


def bearing_angles(dx: float, dy: float, dz: float) -> tuple[float, float]:
    """(pitch, yaw) of the direction (dx, dy, dz); raises for the zero
    vector."""
    horizontal = math.hypot(dx, dy)
    if horizontal == 0.0 and dz == 0.0:
        raise ValueError("bearing undefined for coincident points")
    return (math.degrees(math.atan2(dz, horizontal)),
            wrap_angle(math.degrees(math.atan2(dy, dx))))


def bearing_to(origin: tuple[float, float, float],
               target: tuple[float, float, float]) -> tuple[float, float]:
    """(pitch, yaw) from origin toward target; raises for coincident points."""
    return bearing_angles(target[0] - origin[0], target[1] - origin[1],
                          target[2] - origin[2])


def angle_error(pose: CameraPose,
                target: tuple[float, float, float]) -> tuple[float, float]:
    """Absolute (pitch, yaw) error between where the camera points and the
    bearing to the target. The yaw error is taken on the circle, so it never
    exceeds 180."""
    b_pitch, b_yaw = bearing_to((pose.x, pose.y, pose.z), target)
    d_alpha = abs(pose.pitch_deg - b_pitch)
    d_beta = abs(wrap_angle(pose.yaw_deg - b_yaw))
    return d_alpha, d_beta


def effective_fov(zoom: float) -> tuple[float, float]:
    """(horizontal, vertical) field of view in degrees at the given zoom.

    The base FOV of 90 x 60 degrees shrinks proportionally with zoom.
    """
    if not ZOOM_MIN <= zoom <= ZOOM_MAX:
        raise ValueError(f"zoom {zoom} outside [{ZOOM_MIN}, {ZOOM_MAX}]")
    return BASE_H_FOV_DEG / zoom, BASE_V_FOV_DEG / zoom


def segment_box_overlap(origin: tuple[float, float, float],
                        direction: tuple[float, float, float],
                        box: Obstacle) -> tuple[float, float] | None:
    """Parametric overlap of the closed segment origin + t * direction,
    t in [0, 1], with the box, via the slab method. Returns (t_enter, t_exit)
    within [0, 1], or None when the segment misses the box entirely: the
    one slab test, first_overlap, on the box's corners minus the origin."""
    return first_overlap(*direction, (
        (box.min_x - origin[0], box.min_y - origin[1], 0.0 - origin[2],
         box.max_x - origin[0], box.max_y - origin[1], box.height - origin[2]),))


@dataclass(slots=True)
class SightLines:
    """The per-episode constants of the sight-line test: for cameras at
    origins among obstacles, corners[i] holds every box's
    (min_x, min_y, 0, max_x, max_y, height) minus camera i's origin, the
    subtractions segment_box_overlap makes, so that first_overlap tests a
    sight line against every box with no subtraction. They hold while the
    cameras stay put and the obstacle list is unchanged (see matches)."""

    origins: list[tuple[float, float, float]]
    obstacles: list[Obstacle]
    corners: list[tuple[tuple[float, float, float, float, float, float], ...]]

    @classmethod
    def build(cls, origins: list[tuple[float, float, float]],
              obstacles: list[Obstacle]) -> "SightLines":
        return cls(origins, list(obstacles), [
            tuple((b.min_x - x, b.min_y - y, 0.0 - z, b.max_x - x, b.max_y - y,
                   b.height - z) for b in obstacles)
            for x, y, z in origins])

    def matches(self, origins: list[tuple[float, float, float]],
                obstacles: list[Obstacle]) -> bool:
        """Whether these are the constants of cameras at origins among
        obstacles (equal values give equal constants)."""
        return self.origins == origins and self.obstacles == obstacles


def first_overlap(dx: float, dy: float, dz: float,
                  corners: tuple[tuple[float, ...], ...]) -> tuple[float, float] | None:
    """The slab method over boxes given by their corners minus the segment's
    start point, (min_x, min_y, 0, max_x, max_y, height) each (a SightLines
    entry): the parametric overlap (t_enter, t_exit) within [0, 1] of the
    closed segment along (dx, dy, dz) with the first box, in order, that it
    meets, or None when it meets none. A flat axis (d == 0) passes exactly
    when the start point lies within the slab, that is a lower corner <= 0
    <= an upper one, and sets no bound."""
    # 1 / d is the same for every box, so it is taken once; None marks a flat
    # axis. The three slabs are written out: building per-slab bounds as
    # tuples on every call cost more than their arithmetic.
    ix = 1.0 / dx if dx != 0.0 else None
    iy = 1.0 / dy if dy != 0.0 else None
    iz = 1.0 / dz if dz != 0.0 else None
    for lx, ly, lz, hx, hy, hz in corners:
        if ix is None:
            if lx > 0.0 or hx < 0.0:
                continue
            t_min, t_max = 0.0, 1.0
        else:
            t0 = lx * ix
            t1 = hx * ix
            if t0 > t1:
                t0, t1 = t1, t0
            t_min = t0 if t0 > 0.0 else 0.0
            t_max = t1 if t1 < 1.0 else 1.0
            if t_min > t_max:
                continue
        if iy is None:
            if ly > 0.0 or hy < 0.0:
                continue
        else:
            t0 = ly * iy
            t1 = hy * iy
            if t0 > t1:
                t0, t1 = t1, t0
            if t0 > t_min:
                t_min = t0
            if t1 < t_max:
                t_max = t1
            if t_min > t_max:
                continue
        if iz is None:
            if lz > 0.0 or hz < 0.0:
                continue
        else:
            t0 = lz * iz
            t1 = hz * iz
            if t0 > t1:
                t0, t1 = t1, t0
            if t0 > t_min:
                t_min = t0
            if t1 < t_max:
                t_max = t1
            if t_min > t_max:
                continue
        return t_min, t_max
    return None


def segment_hits_box(p0: tuple[float, float, float],
                     p1: tuple[float, float, float],
                     box: Obstacle) -> bool:
    """True when the closed segment p0->p1 intersects the box (touching counts)."""
    return segment_box_overlap(
        p0, (p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]), box) is not None


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """wrap_angle over an array: np.mod rounds exactly like Python's %."""
    r = np.mod(a, 360.0)
    return np.where(r > 180.0, r - 360.0, r)


def yaw_errors(a: np.ndarray) -> np.ndarray:
    """abs(wrap_angles(a)), the yaw error on the circle, bit for bit: with
    r = a mod 360, it is r up to 180 and 360 - r above, and r - 360 and
    360 - r are both exact there, so min(r, 360 - r) needs no wrap."""
    r = np.mod(a, 360.0)
    return np.minimum(r, 360.0 - r)


def bearings(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """bearing_to over an array of target-minus-origin vectors (..., 3) ->
    (pitch, yaw, distance) arrays; raises for coincident points. hypot and
    atan2 are taken with math, one element at a time, because numpy's round
    differently; the deltas make one list round trip, and both angles share
    one degree conversion, a multiplication in numpy as in math. The
    distance hypot(dx, dy, dz) is math.dist(origin, target) bit for bit:
    both take the same norm of the same absolute differences, and it is 0
    exactly when all three components are, which marks coincident points
    (a NaN delta gives a NaN distance and is not rejected)."""
    flat = delta.ravel().tolist()
    dx, dy, dz = flat[0::3], flat[1::3], flat[2::3]
    distance = list(map(math.hypot, dx, dy, dz))
    if 0.0 in distance:
        raise ValueError("bearing undefined for coincident points")
    shape = delta.shape[:-1]
    pitch, yaw = np.degrees(np.array([
        list(map(math.atan2, dz, map(math.hypot, dx, dy))),
        list(map(math.atan2, dy, dx))])).reshape((2,) + shape)
    return pitch, wrap_angles(yaw), np.array(distance).reshape(shape)


def sight_lines_blocked(direction: np.ndarray, box: np.ndarray) -> np.ndarray:
    """first_overlap(...) is not None over arrays: sight lines (..., 3) and
    every box's lower and upper corners minus the sight line's origin, corner
    then axis first (2, 3, ..., O) -> whether each sight line meets a box
    (...)."""
    # The three slabs combine element-wise. A slab whose direction component
    # is 0 passes exactly when the origin lies within it (lower corner <= 0
    # <= upper corner), and sets no bound on t; its 1 / d is never read.
    # (3, ..., 1): a transpose, which costs less than np.moveaxis
    axis_dir = direction.transpose((direction.ndim - 1,)
                                   + tuple(range(direction.ndim - 1)))[..., None]
    flat = axis_dir == 0.0
    t = box * (1.0 / np.where(flat, 1.0, axis_dir))
    near = np.minimum(t[0], t[1])
    far = np.maximum(t[0], t[1])
    if flat.any():
        inside = (box[0] <= 0.0) & (box[1] >= 0.0)
        near = np.where(flat, np.where(inside, -np.inf, np.inf), near)
        far = np.where(flat, np.where(inside, np.inf, -np.inf), far)
    enter = np.maximum(np.maximum(np.maximum(near[0], near[1]), near[2]), 0.0)
    leave = np.minimum(np.minimum(np.minimum(far[0], far[1]), far[2]), 1.0)
    return (enter <= leave).any(axis=-1)


def clamp_pitch(pitch: np.ndarray) -> np.ndarray:
    """Pitch clamped to [-PITCH_LIMIT_DEG, PITCH_LIMIT_DEG]."""
    return np.minimum(np.maximum(pitch, -PITCH_LIMIT_DEG), PITCH_LIMIT_DEG)


def clamp_zoom(zoom: np.ndarray) -> np.ndarray:
    """Zoom clamped to [ZOOM_MIN, ZOOM_MAX]."""
    return np.minimum(np.maximum(zoom, ZOOM_MIN), ZOOM_MAX)


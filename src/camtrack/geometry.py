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


@dataclass(frozen=True, slots=True)
class CameraPose:
    """Position, orientation and zoom of one fixed-position rotating camera."""

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
    within [0, 1], or None when the segment misses the box entirely.

    This is the one slab test: sight lines reach it through segment_hits_box,
    and the target's ground moves (z = 0, no vertical direction) through
    world.advance_target."""
    # The three slabs are written out rather than looped over: building the
    # per-slab bounds as tuples on every call cost more than their arithmetic.
    t_min, t_max = 0.0, 1.0
    a = origin[0]
    d = direction[0]
    if d == 0.0:
        if a < box.min_x or a > box.max_x:
            return None
    else:
        inv = 1.0 / d
        t0 = (box.min_x - a) * inv
        t1 = (box.max_x - a) * inv
        if t0 > t1:
            t0, t1 = t1, t0
        if t0 > t_min:
            t_min = t0
        if t1 < t_max:
            t_max = t1
        if t_min > t_max:
            return None
    a = origin[1]
    d = direction[1]
    if d == 0.0:
        if a < box.min_y or a > box.max_y:
            return None
    else:
        inv = 1.0 / d
        t0 = (box.min_y - a) * inv
        t1 = (box.max_y - a) * inv
        if t0 > t1:
            t0, t1 = t1, t0
        if t0 > t_min:
            t_min = t0
        if t1 < t_max:
            t_max = t1
        if t_min > t_max:
            return None
    a = origin[2]
    d = direction[2]
    if d == 0.0:
        if a < 0.0 or a > box.height:
            return None
    else:
        inv = 1.0 / d
        t0 = (0.0 - a) * inv
        t1 = (box.height - a) * inv
        if t0 > t1:
            t0, t1 = t1, t0
        if t0 > t_min:
            t_min = t0
        if t1 < t_max:
            t_max = t1
        if t_min > t_max:
            return None
    return t_min, t_max


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


def bearings(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """bearing_to over an array of target-minus-origin vectors (..., 3) ->
    (pitch, yaw, distance) arrays; raises for coincident points. hypot and
    atan2 are taken with math, one element at a time, because numpy's round
    differently; the degree conversion is one multiplication in both. The
    distance hypot(dx, dy, dz) is math.dist(origin, target) bit for bit:
    both take the same norm of the same absolute differences."""
    if not delta.any(axis=-1).all():
        raise ValueError("bearing undefined for coincident points")
    dx, dy, dz = (delta[..., i].ravel().tolist() for i in range(3))
    horizontal = list(map(math.hypot, dx, dy))
    shape = delta.shape[:-1]
    yaw = np.degrees(np.array(list(map(math.atan2, dy, dx)))).reshape(shape)
    pitch = np.degrees(np.array(list(map(math.atan2, dz, horizontal)))).reshape(shape)
    distance = np.array(list(map(math.hypot, dx, dy, dz))).reshape(shape)
    return pitch, wrap_angles(yaw), distance


def clamp_pitch(pitch: np.ndarray) -> np.ndarray:
    """Pitch clamped to [-PITCH_LIMIT_DEG, PITCH_LIMIT_DEG]."""
    return np.minimum(np.maximum(pitch, -PITCH_LIMIT_DEG), PITCH_LIMIT_DEG)


def clamp_zoom(zoom: np.ndarray) -> np.ndarray:
    """Zoom clamped to [ZOOM_MIN, ZOOM_MAX]."""
    return np.minimum(np.maximum(zoom, ZOOM_MIN), ZOOM_MAX)


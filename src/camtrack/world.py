"""Simulation world: randomized episodes, target motion, transitions, rewards.

The world is purely numerical: cameras are poses, the target is a point at
mid-height, obstacles are boxes. Cameras never move, they only rotate and
zoom; one discrete action per camera is applied per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

from .config import ConfigError, EpisodeConfig
from .geometry import (
    CameraPose,
    Obstacle,
    PITCH_LIMIT_DEG,
    ZOOM_MAX,
    ZOOM_MIN,
    angle_error,
    effective_fov,
    segment_box_overlap,
    segment_hits_box,
    wrap_angle,
)
from .rng import RngStream

TARGET_MID_HEIGHT = 0.9   # line-of-sight and aim point of a 1.8 m target
ROTATE_STEP_DEG = 5.0
ZOOM_STEP = 0.1
ALPHA_MAX_DEG = 30.0      # pitch-error normalizer of the tracking reward
BETA_MAX_DEG = 45.0       # yaw-error normalizer of the tracking reward
ZOOM_ERROR_NORM = ZOOM_MAX - ZOOM_MIN
ZOOM_DISTANCE_SCALE = 6.0  # meters of distance per unit of desired zoom
PAUSE_PROBABILITY = 0.05
PAUSE_STEPS = (10, 30)


class Action(IntEnum):
    """The 11 discrete camera commands; index order is part of the contract."""

    KEEP_STILL = 0
    LEFT = 1
    RIGHT = 2
    UP = 3
    DOWN = 4
    TOP_LEFT = 5
    TOP_RIGHT = 6
    BOTTOM_LEFT = 7
    BOTTOM_RIGHT = 8
    ZOOM_IN = 9
    ZOOM_OUT = 10


# (d_pitch, d_yaw, d_zoom) per action, indexed by Action value.
ACTION_DELTAS = (
    (0.0, 0.0, 0.0),
    (0.0, -ROTATE_STEP_DEG, 0.0),
    (0.0, ROTATE_STEP_DEG, 0.0),
    (ROTATE_STEP_DEG, 0.0, 0.0),
    (-ROTATE_STEP_DEG, 0.0, 0.0),
    (ROTATE_STEP_DEG, -ROTATE_STEP_DEG, 0.0),
    (ROTATE_STEP_DEG, ROTATE_STEP_DEG, 0.0),
    (-ROTATE_STEP_DEG, -ROTATE_STEP_DEG, 0.0),
    (-ROTATE_STEP_DEG, ROTATE_STEP_DEG, 0.0),
    (0.0, 0.0, ZOOM_STEP),
    (0.0, 0.0, -ZOOM_STEP),
)


class Visibility(Enum):
    """Per-camera relation to the target; values double as log codes."""

    VISIBLE = "V"
    OCCLUDED = "O"
    OUT_OF_VIEW = "X"


@dataclass(slots=True)
class TargetState:
    """The walking target: position, current leg of its random walk, pauses."""

    x: float
    y: float
    speed: float                      # meters per step
    waypoint: tuple[float, float]
    pause_steps_remaining: int = 0
    z: float = TARGET_MID_HEIGHT

    def point(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(slots=True)
class WorldState:
    """Full simulation state. speed_range is kept so waypoint arrivals can
    redraw the walking speed without reaching back to the config."""

    cameras: list[CameraPose]
    target: TargetState
    obstacles: list[Obstacle]
    t: int
    arena_half: float
    speed_range: tuple[float, float]
    rng: RngStream


@dataclass(slots=True)
class StepOutcome:
    """Result of one joint step: next state plus per-camera quantities
    evaluated on that next state. Rewards are already clipped to [-1, 1]."""

    state: WorldState
    visibility: list[Visibility]
    reward: list[float]
    d_alpha: list[float]
    d_beta: list[float]
    d_xi: list[float]


def desired_zoom(distance: float) -> float:
    """Zoom that keeps the target's apparent size constant: distance / 6 m,
    clamped to the physical zoom range."""
    xi = distance / ZOOM_DISTANCE_SCALE
    if xi < ZOOM_MIN:
        return ZOOM_MIN
    if xi > ZOOM_MAX:
        return ZOOM_MAX
    return xi


def _draw_waypoint(rng: RngStream, arena_half: float,
                   obstacles: list[Obstacle]) -> tuple[float, float]:
    for _ in range(1000):
        x = rng.uniform(-arena_half, arena_half)
        y = rng.uniform(-arena_half, arena_half)
        if not any(o.footprint_contains(x, y) for o in obstacles):
            return (x, y)
    raise ConfigError("could not draw a waypoint outside obstacle footprints "
                      "after 1000 attempts")


def spawn_episode(config: EpisodeConfig, seed: int) -> WorldState:
    """Randomize a fresh episode; identical (config, seed) replays identically.

    Cameras sit on the arena perimeter looking roughly at the center, the
    target spawns in the central half, obstacles are resampled until none
    covers the target spawn.
    """
    config.validate()
    rng = RngStream(seed, 0)
    h = config.arena_half

    tx = rng.uniform(-h / 2.0, h / 2.0)
    ty = rng.uniform(-h / 2.0, h / 2.0)

    obstacles: list[Obstacle] = []
    for _ in range(config.n_obstacles):
        for _attempt in range(1000):
            w = rng.uniform(*config.obstacle_size_range)
            d = rng.uniform(*config.obstacle_size_range)
            height = rng.uniform(*config.obstacle_height_range)
            cx = rng.uniform(-h + w / 2.0, h - w / 2.0)
            cy = rng.uniform(-h + d / 2.0, h - d / 2.0)
            box = Obstacle(cx - w / 2.0, cy - d / 2.0, cx + w / 2.0, cy + d / 2.0, height)
            if not box.footprint_contains(tx, ty):
                obstacles.append(box)
                break
        else:
            raise ConfigError("could not place an obstacle clear of the target "
                              "spawn after 1000 attempts")

    cameras: list[CameraPose] = []
    for _ in range(config.n_cameras):
        side = rng.randint(0, 3)
        offset = rng.uniform(-h, h)
        x, y = ((offset, -h), (h, offset), (offset, h), (-h, offset))[side]
        z = rng.uniform(*config.camera_height_range)
        yaw_to_center = math.degrees(math.atan2(-y, -x))
        yaw = wrap_angle(yaw_to_center + rng.uniform(-30.0, 30.0))
        cameras.append(CameraPose(x, y, z, 0.0, yaw, 1.0))

    waypoint = _draw_waypoint(rng, h, obstacles)
    speed = rng.uniform(*config.target_speed_range)
    target = TargetState(tx, ty, speed, waypoint)
    return WorldState(cameras, target, obstacles, 0, h,
                      config.target_speed_range, rng)


def advance_target(state: WorldState, rng: RngStream) -> TargetState:
    """One motion step of the target's waypoint walk.

    Paused targets just count down. A step that would cross into an obstacle
    footprint is truncated a hair before the boundary and forces a fresh
    waypoint; reaching the waypoint redraws waypoint and speed and may start
    a pause.
    """
    t = state.target
    if t.pause_steps_remaining > 0:
        return TargetState(t.x, t.y, t.speed, t.waypoint, t.pause_steps_remaining - 1)

    wx, wy = t.waypoint
    dx = wx - t.x
    dy = wy - t.y
    dist = math.hypot(dx, dy)
    arrives = dist <= t.speed
    step_len = dist if arrives else t.speed
    if dist > 0.0:
        ux, uy = dx / dist, dy / dist
    else:
        ux = uy = 0.0

    mx, my = ux * step_len, uy * step_len
    hit_t = None
    origin, move = (t.x, t.y, 0.0), (mx, my, 0.0)
    for box in state.obstacles:
        # at ground level the z slab always passes, so this is the 2-D
        # footprint test
        overlap = segment_box_overlap(origin, move, box)
        if overlap is not None and (hit_t is None or overlap[0] < hit_t):
            hit_t = overlap[0]
    if hit_t is not None:
        back = step_len * hit_t - 1e-9
        if back < 0.0:
            back = 0.0
        nx, ny = t.x + ux * back, t.y + uy * back
        waypoint = _draw_waypoint(rng, state.arena_half, state.obstacles)
        return TargetState(nx, ny, t.speed, waypoint)

    nx, ny = t.x + mx, t.y + my
    if arrives:
        waypoint = _draw_waypoint(rng, state.arena_half, state.obstacles)
        speed = rng.uniform(*state.speed_range)
        pause = 0
        if rng.random() < PAUSE_PROBABILITY:
            pause = rng.randint(*PAUSE_STEPS)
        return TargetState(nx, ny, speed, waypoint, pause)
    return TargetState(nx, ny, t.speed, t.waypoint)


def apply_action(pose: CameraPose, action: Action) -> CameraPose:
    """New pose after one discrete command: ROTATE_STEP_DEG rotation steps,
    ZOOM_STEP zoom steps, with yaw wrapped and pitch/zoom clamped to their
    ranges."""
    dp, dy, dz = ACTION_DELTAS[action]
    pitch = pose.pitch_deg + dp
    if pitch > PITCH_LIMIT_DEG:
        pitch = PITCH_LIMIT_DEG
    elif pitch < -PITCH_LIMIT_DEG:
        pitch = -PITCH_LIMIT_DEG
    yaw = wrap_angle(pose.yaw_deg + dy) if dy != 0.0 else pose.yaw_deg
    zoom = pose.zoom + dz
    if zoom > ZOOM_MAX:
        zoom = ZOOM_MAX
    elif zoom < ZOOM_MIN:
        zoom = ZOOM_MIN
    return CameraPose(pose.x, pose.y, pose.z, pitch, yaw, zoom)


def _classify(pose: CameraPose, target_point: tuple[float, float, float],
              obstacles: list[Obstacle], d_alpha: float, d_beta: float) -> Visibility:
    # Out-of-view takes precedence over occlusion.
    h_fov, v_fov = effective_fov(pose.zoom)
    if d_beta > 0.5 * h_fov or d_alpha > 0.5 * v_fov:
        return Visibility.OUT_OF_VIEW
    origin = (pose.x, pose.y, pose.z)
    for box in obstacles:
        if segment_hits_box(origin, target_point, box):
            return Visibility.OCCLUDED
    return Visibility.VISIBLE


def visibility_of(state: WorldState, i: int) -> Visibility:
    """Visibility of the target from camera i in the current state."""
    pose = state.cameras[i]
    target_point = state.target.point()
    d_alpha, d_beta = angle_error(pose, target_point)
    return _classify(pose, target_point, state.obstacles, d_alpha, d_beta)


def direction_reward(vis: Visibility, d_alpha: float, d_beta: float) -> float:
    """Tracking reward: graded by angular error when visible, 0 when occluded,
    -1 when the target left the view."""
    if vis is Visibility.VISIBLE:
        return 1.0 - d_alpha / ALPHA_MAX_DEG - d_beta / BETA_MAX_DEG
    if vis is Visibility.OCCLUDED:
        return 0.0
    return -1.0


def zoom_reward(vis: Visibility, xi: float, distance: float) -> float:
    """Zoom reward: graded by zoom-scale error when visible, else 0."""
    if vis is not Visibility.VISIBLE:
        return 0.0
    return 1.0 - abs(xi - desired_zoom(distance)) / ZOOM_ERROR_NORM


def step(state: WorldState, joint_action: list[Action]) -> StepOutcome:
    """Apply one action per camera, move the target, and score every camera
    on the resulting state. Per-camera reward is the clipped sum of the
    direction and zoom rewards."""
    cams = state.cameras
    if len(joint_action) != len(cams):
        raise ValueError(f"expected {len(cams)} actions, got {len(joint_action)}")

    new_cams = [apply_action(c, a) for c, a in zip(cams, joint_action)]
    new_target = advance_target(state, state.rng)
    nxt = WorldState(new_cams, new_target, state.obstacles, state.t + 1,
                     state.arena_half, state.speed_range, state.rng)

    tp = new_target.point()
    visibility: list[Visibility] = []
    reward: list[float] = []
    d_alphas: list[float] = []
    d_betas: list[float] = []
    d_xis: list[float] = []
    for pose in new_cams:
        d_alpha, d_beta = angle_error(pose, tp)
        distance = math.dist((pose.x, pose.y, pose.z), tp)
        d_xi = abs(pose.zoom - desired_zoom(distance))
        vis = _classify(pose, tp, state.obstacles, d_alpha, d_beta)
        r = (direction_reward(vis, d_alpha, d_beta)
             + zoom_reward(vis, pose.zoom, distance))
        if r > 1.0:
            r = 1.0
        elif r < -1.0:
            r = -1.0
        visibility.append(vis)
        reward.append(r)
        d_alphas.append(d_alpha)
        d_betas.append(d_beta)
        d_xis.append(d_xi)

    return StepOutcome(nxt, visibility, reward, d_alphas, d_betas, d_xis)

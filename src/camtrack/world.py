"""Simulation world: randomized episodes, target motion, transitions, rewards.

The world is purely numerical: cameras are poses, the target is a point at
mid-height, obstacles are boxes. Cameras never move, they only rotate and
zoom; one discrete action per camera is applied per step.

step advances one episode: it applies the actions, moves the target and
scores every camera of the new state in one observe pass, which also yields
each camera's bearing and distance to the target for the next step's tracker.
observe holds the one-episode visibility rule, and visibility_of applies it
to one camera. Its sight lines run over per-episode constants (SightLines:
every box's corners minus each camera's origin), which observe builds on an
episode's first state, step carries in WorldState.sight, and observe
rebuilds when the cameras' positions or the obstacles no longer match them.
batch_step advances E rows in lockstep, with the camera poses and rewards
held as (E, C) arrays, and batch_observe is observe's twin. Rows may share
a world: the world work (spawning, the target walk, bearings, distances and
sight lines) is done once per world, and only what depends on a row's poses
(field of view, angle errors, zoom error, reward) once per row. Each row
equals its own step calls bit for bit, but a batch costs more than step
for a single episode. batch_world loads a whole batch in one pass, and a
batch is never reset one world at a time: its episodes start together and
end together, and a new batch replaces it.

The target walks straight legs toward a waypoint, so the obstacles a leg can
touch are found once, on its first step, and each step of the leg tests
only those.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum

import numpy as np

from .config import ConfigError, EpisodeConfig, check_seed
from .geometry import (
    BASE_H_FOV_DEG,
    BASE_V_FOV_DEG,
    CameraPose,
    Obstacle,
    PITCH_LIMIT_DEG,
    ZOOM_MAX,
    ZOOM_MIN,
    SightLines,
    bearings,
    clamp_pitch,
    clamp_zoom,
    segment_box_overlap,
    sight_line_blocked,
    sight_lines_blocked,
    wrap_angle,
    wrap_angles,
    yaw_errors,
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


# the members as plain names for observe, which reads one per camera: a read
# through the class costs more than the arithmetic around it
_VISIBLE, _OCCLUDED, _OUT_OF_VIEW = Visibility

# Footprint margin of a leg's candidate obstacles: far above the rounding of
# the steps along the leg, far below any footprint.
LEG_MARGIN = 1e-6


@dataclass(slots=True)
class TargetState:
    """The walking target: position, current leg of its random walk, pauses.

    leg_obstacles caches the obstacles, in the world's order, whose
    footprints widened by LEG_MARGIN the straight leg from the leg's first
    position to the waypoint touches; None until that first step. It is
    derived state, so it takes no part in equality."""

    x: float
    y: float
    speed: float                      # meters per step
    waypoint: tuple[float, float]
    pause_steps_remaining: int = 0
    z: float = TARGET_MID_HEIGHT
    leg_obstacles: tuple[Obstacle, ...] | None = field(default=None, compare=False,
                                                       repr=False)

    def point(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(slots=True)
class WorldState:
    """Full simulation state. speed_range is kept so waypoint arrivals can
    redraw the walking speed without reaching back to the config.

    sight caches the episode's SightLines, which observe builds and step
    carries; observe rebuilds them when they no longer match the cameras'
    positions or the obstacles. It is derived state, so it takes no part in
    equality."""

    cameras: list[CameraPose]
    target: TargetState
    obstacles: list[Obstacle]
    t: int
    arena_half: float
    speed_range: tuple[float, float]
    rng: RngStream
    sight: SightLines | None = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class StepOutcome:
    """An observed state, as observe and step return it: the state plus
    per-camera quantities evaluated on it, including each camera's bearing
    and distance to the target, which the next step's tracker reuses.
    Rewards are already clipped to [-1, 1]."""

    state: WorldState
    visibility: list[Visibility]
    reward: list[float]
    d_alpha: list[float]
    d_beta: list[float]
    d_xi: list[float]
    bearing_pitch: list[float]
    bearing_yaw: list[float]
    distance: list[float]


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
    covers the target spawn. The seed must lie in [0, 2**64).
    """
    config.validate()
    check_seed("seed", seed)
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


def advance_target(state: WorldState) -> TargetState:
    """One motion step of the target's waypoint walk, drawing from state.rng.

    Paused targets just count down. A step that would cross into an obstacle
    footprint is truncated a hair before the boundary and forces a fresh
    waypoint; reaching the waypoint redraws waypoint and speed and may start
    a pause. A step tests only its leg's obstacles (found on the leg's first
    step), which hold every obstacle the step can touch.
    """
    t = state.target
    rng = state.rng
    if t.pause_steps_remaining > 0:
        return TargetState(t.x, t.y, t.speed, t.waypoint, t.pause_steps_remaining - 1,
                           leg_obstacles=t.leg_obstacles)

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
    origin = (t.x, t.y, 0.0)
    leg = t.leg_obstacles
    if leg is None:
        # the leg's first step: the obstacles the rest of the leg can touch
        leg = tuple(box for box in state.obstacles if segment_box_overlap(
            origin, (dx, dy, 0.0),
            Obstacle(box.min_x - LEG_MARGIN, box.min_y - LEG_MARGIN,
                     box.max_x + LEG_MARGIN, box.max_y + LEG_MARGIN, box.height))
            is not None)
    hit_t = None
    move = (mx, my, 0.0)
    for box in leg:
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
    return TargetState(nx, ny, t.speed, t.waypoint, leg_obstacles=leg)


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


def visibility_of(state: WorldState, i: int) -> Visibility:
    """Visibility of the target from camera i in the current state: observe's
    rule applied to camera i alone."""
    return observe(replace(state, cameras=[state.cameras[i]])).visibility[0]


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


def observe(state: WorldState) -> StepOutcome:
    """Score every camera on the state in one pass: the bearing and distance
    to the target, the angle errors, visibility (field of view first, then
    the sight line against every obstacle) and the clipped sum of the
    direction and zoom rewards. The arithmetic is that of bearing_angles,
    effective_fov, direction_reward and zoom_reward, written out in their
    order; the sight lines run over the state's SightLines, built here when
    the state has none that match its cameras and obstacles."""
    tx, ty, tz = state.target.point()
    cams = state.cameras
    origins = [(c.x, c.y, c.z) for c in cams]
    sight = state.sight
    if sight is None or not sight.matches(origins, state.obstacles):
        sight = state.sight = SightLines.build(origins, state.obstacles)
    rows = []
    for pose, (x, y, z), corners in zip(cams, origins, sight.corners):
        dx, dy, dz = tx - x, ty - y, tz - z
        horizontal = math.hypot(dx, dy)
        if horizontal == 0.0 and dz == 0.0:
            raise ValueError("bearing undefined for coincident points")
        b_pitch = math.degrees(math.atan2(dz, horizontal))
        b_yaw = math.degrees(math.atan2(dy, dx)) % 360.0
        if b_yaw > 180.0:
            b_yaw -= 360.0
        d_alpha = abs(pose.pitch_deg - b_pitch)
        d_beta = (pose.yaw_deg - b_yaw) % 360.0
        d_beta = abs(d_beta - 360.0 if d_beta > 180.0 else d_beta)
        distance = math.hypot(dx, dy, dz)
        zoom = pose.zoom
        if not ZOOM_MIN <= zoom <= ZOOM_MAX:
            raise ValueError(f"zoom {zoom} outside [{ZOOM_MIN}, {ZOOM_MAX}]")
        xi_star = distance / ZOOM_DISTANCE_SCALE
        if xi_star < ZOOM_MIN:
            xi_star = ZOOM_MIN
        elif xi_star > ZOOM_MAX:
            xi_star = ZOOM_MAX
        d_xi = abs(zoom - xi_star)
        if (d_beta > 0.5 * (BASE_H_FOV_DEG / zoom)
                or d_alpha > 0.5 * (BASE_V_FOV_DEG / zoom)):
            vis = _OUT_OF_VIEW
            r = -1.0
        elif sight_line_blocked(dx, dy, dz, corners):
            vis = _OCCLUDED
            r = 0.0
        else:
            vis = _VISIBLE
            r = ((1.0 - d_alpha / ALPHA_MAX_DEG - d_beta / BETA_MAX_DEG)
                 + (1.0 - d_xi / ZOOM_ERROR_NORM))
            if r > 1.0:
                r = 1.0
            elif r < -1.0:
                r = -1.0
        rows.append((vis, r, d_alpha, d_beta, d_xi, b_pitch, b_yaw, distance))
    # one list per field, in camera order
    columns = zip(*rows) if rows else [()] * 8
    return StepOutcome(state, *map(list, columns))


def step(state: WorldState, joint_action: list[Action]) -> StepOutcome:
    """Apply one action per camera, move the target, and observe the
    resulting state."""
    cams = state.cameras
    if len(joint_action) != len(cams):
        raise ValueError(f"expected {len(cams)} actions, got {len(joint_action)}")
    return observe(WorldState([apply_action(c, a) for c, a in zip(cams, joint_action)],
                              advance_target(state), state.obstacles, state.t + 1,
                              state.arena_half, state.speed_range, state.rng,
                              state.sight))


# The array world's visibility codes: VISIBILITIES[code] is the Visibility.
VIS_VISIBLE, VIS_OCCLUDED, VIS_OUT_OF_VIEW = range(3)
VISIBILITIES = (Visibility.VISIBLE, Visibility.OCCLUDED, Visibility.OUT_OF_VIEW)
_DELTA_ARRAY = np.array(ACTION_DELTAS)


@dataclass(slots=True)
class BatchState:
    """E rows of C cameras on W worlds of O obstacles, stepped in lockstep.

    A world is one episode's layout and target walk: envs[w] holds its
    target, obstacles, rng and t (its cameras list is empty), origin[w] its
    cameras' positions, and box[:, :, w] every obstacle's lower and upper
    corner minus every camera's origin, corner then axis first: the
    subtractions the slab test makes, done once per world because the
    cameras never move. A row is one set of camera poses on a world:
    world[e] is row e's world, and pitch, yaw and zoom hold the rows' poses.
    The rows of one world share its target walk and sight lines, which
    depend on no pose."""

    envs: list[WorldState]
    world: np.ndarray    # (E,) index into envs
    origin: np.ndarray   # (W, C, 3)
    pitch: np.ndarray    # (E, C)
    yaw: np.ndarray      # (E, C)
    zoom: np.ndarray     # (E, C)
    box: np.ndarray      # (2, 3, W, C, O)


@dataclass(slots=True)
class BatchOutcome:
    """StepOutcome's per-camera quantities as (E, C) arrays, plus each
    camera's bearing and distance to its world's target, which the next
    step's tracker reuses. visibility holds VIS_* codes."""

    visibility: np.ndarray
    reward: np.ndarray
    d_alpha: np.ndarray
    d_beta: np.ndarray
    d_xi: np.ndarray
    bearing_pitch: np.ndarray
    bearing_yaw: np.ndarray
    distance: np.ndarray


def desired_zooms(distance: np.ndarray) -> np.ndarray:
    """desired_zoom over an array of distances."""
    return clamp_zoom(distance / ZOOM_DISTANCE_SCALE)


def batch_world(worlds: list[WorldState],
                rows: list[int] | np.ndarray | None = None) -> BatchState:
    """Lockstep state of the given episodes (from spawn_episode), which must
    be at least one and share their camera and obstacle counts. rows[e] is
    the index in worlds of row e's episode (by default each episode has one
    row); every row starts from its episode's camera poses. The batch steps
    copies of the episodes' rng streams, so stepping it leaves the given
    worlds as they were."""
    if not worlds:
        raise ValueError("a lockstep batch needs at least one episode")
    n_cams = len(worlds[0].cameras)
    n_obs = len(worlds[0].obstacles)
    if any(len(w.cameras) != n_cams or len(w.obstacles) != n_obs for w in worlds):
        raise ValueError("lockstep episodes need equal camera and obstacle counts")
    rows = np.arange(len(worlds)) if rows is None else np.array(rows)
    if (rows.ndim != 1 or not rows.size or rows.dtype.kind not in "iu"
            or rows.min() < 0 or rows.max() >= len(worlds)):
        raise ValueError("rows must be a non-empty list of episode indices")
    cams = np.array([[(c.x, c.y, c.z, c.pitch_deg, c.yaw_deg, c.zoom)
                      for c in w.cameras] for w in worlds], dtype=float)
    cams = cams.reshape(len(worlds), n_cams, 6)
    origin = np.ascontiguousarray(cams[..., :3])
    pitch, yaw, zoom = np.moveaxis(cams[rows, :, 3:], -1, 0).copy()
    corners = np.array([[(b.min_x, b.min_y, 0.0, b.max_x, b.max_y, b.height)
                         for b in w.obstacles] for w in worlds], dtype=float)
    # (2, 3, W, 1, O) lower and upper corners minus (3, W, C, 1) origins, laid
    # out contiguously: the difference of the two transposed views is not,
    # and the slab test of every step runs about twice as fast on it
    box = np.ascontiguousarray(
        np.moveaxis(corners.reshape(len(worlds), n_obs, 6), -1, 0)
        .reshape(2, 3, len(worlds), 1, n_obs) - np.moveaxis(origin, -1, 0)[..., None])
    envs = [WorldState([], w.target, w.obstacles, w.t, w.arena_half, w.speed_range,
                       copy.copy(w.rng)) for w in worlds]
    return BatchState(envs, rows, origin, pitch, yaw, zoom, box)


def batch_observe(state: BatchState) -> BatchOutcome:
    """observe for every row of the batch. Once per world: each camera's
    bearing and distance to the target (geometry.bearings) and one slab
    test per obstacle along its sight line (geometry.sight_lines_blocked
    over BatchState.box). Then per row, reading its world's values: the
    angle errors, the yaw error as geometry.yaw_errors, observe's
    abs(wrap) without the wrap, visibility (field of view first, then the
    sight line) and the clipped reward."""
    direction = (np.array([env.target.point() for env in state.envs])[:, None, :]
                 - state.origin)
    b_pitch, b_yaw, distance = bearings(direction)

    occluded = sight_lines_blocked(direction, state.box)

    # each row reads its world's values
    w = state.world
    b_pitch, b_yaw, distance, occluded = b_pitch[w], b_yaw[w], distance[w], occluded[w]
    d_alpha = np.abs(state.pitch - b_pitch)
    d_beta = yaw_errors(state.yaw - b_yaw)
    d_xi = np.abs(state.zoom - desired_zooms(distance))
    out = ((d_beta > 0.5 * (BASE_H_FOV_DEG / state.zoom))
           | (d_alpha > 0.5 * (BASE_V_FOV_DEG / state.zoom)))
    visibility = np.where(out, VIS_OUT_OF_VIEW,
                          np.where(occluded, VIS_OCCLUDED, VIS_VISIBLE))
    # direction_reward + zoom_reward, clipped
    tracked = ((1.0 - d_alpha / ALPHA_MAX_DEG - d_beta / BETA_MAX_DEG)
               + (1.0 - d_xi / ZOOM_ERROR_NORM))
    reward = np.where(visibility == VIS_VISIBLE, tracked,
                      np.where(out, -1.0, 0.0))
    reward = np.minimum(np.maximum(reward, -1.0), 1.0)
    return BatchOutcome(visibility, reward, d_alpha, d_beta, d_xi,
                        b_pitch, b_yaw, distance)


def batch_step(state: BatchState, actions: np.ndarray) -> BatchOutcome:
    """step for every row of the batch, in place: apply the (E, C) action
    indices, move each world's target once with its own rng, and score every
    camera on the resulting state."""
    actions = np.asarray(actions)
    if actions.shape != state.pitch.shape:
        raise ValueError(f"expected actions of shape {state.pitch.shape}, "
                         f"got {actions.shape}")
    delta = _DELTA_ARRAY[actions]
    state.pitch = clamp_pitch(state.pitch + delta[..., 0])
    d_yaw = delta[..., 1]
    state.yaw = np.where(d_yaw != 0.0, wrap_angles(state.yaw + d_yaw), state.yaw)
    state.zoom = clamp_zoom(state.zoom + delta[..., 2])
    for env in state.envs:
        env.target = advance_target(env)
        env.t += 1
    return batch_observe(state)

"""Camera decision policies.

Four ways to pick one of the 11 camera commands:
  * tracker_action         - greedy one-step minimizer of the pose error, given
    the bearing and distance to the target; virtual_tracker_action reads
    them off the true target position and stands in for a working image
    tracker.
  * geometric_pose_action  - steers toward the step's triangulation of the
    target from the cameras that report successful tracking.
  * learned_pose_action    - greedy action of the trained pose policy for
    all pose-controlled cameras of a step (nn.greedy_actions: trunk and
    policy head only, no value head or backward cache).
  * sv_baseline_action     - no collaboration: track when the target is
    visible, freeze otherwise.

A system (one of SYSTEMS) is one rule for combining them: virtual tracks
with every camera, sv runs sv_baseline_action on each, and geometric and
learned track with their label-1 cameras and hand the label-0 ones to their
pose controller. Switchers produce that per-camera binary label (1 =
tracking trusted). system_action holds the four rules for one step; it
takes the step's observation (world.observe) and one label per camera: the
pose controllers read the shared poses from the observed state once per
step, and the tracker reuses the observation's bearings and distances.

batch_tracker_action, batch_triangulate and batch_system_action are the same
rules over the (E, C) arrays of a world.BatchState; their actions equal the
scalar functions' bit for bit. batch_system_action holds the same four
rules, one system name per episode, so a batch may mix systems.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .geometry import (
    PITCH_LIMIT_DEG,
    ZOOM_MAX,
    ZOOM_MIN,
    CameraPose,
    bearing_to,
    bearings,
    clamp_pitch,
    clamp_zoom,
    yaw_errors,
)
from .rng import RngStream
from .world import (
    ACTION_DELTAS,
    ALPHA_MAX_DEG,
    BETA_MAX_DEG,
    ROTATE_STEP_DEG,
    TARGET_MID_HEIGHT,
    VIS_VISIBLE,
    ZOOM_DISTANCE_SCALE,
    ZOOM_ERROR_NORM,
    ZOOM_STEP,
    Action,
    BatchOutcome,
    BatchState,
    StepOutcome,
    Visibility,
    desired_zooms,
)

# The compared systems, in the order the CLI lists them.
SYSTEMS = ("virtual", "geometric", "learned", "sv")
TRIANGULATION_MAX_CONDITION = 1e6

# The tracker's score is separable: each action's score is a pitch term plus
# a yaw term plus a zoom term, and each axis takes only three distinct deltas.
_PITCH_DELTAS = (0.0, ROTATE_STEP_DEG, -ROTATE_STEP_DEG)
_YAW_DELTAS = (0.0, -ROTATE_STEP_DEG, ROTATE_STEP_DEG)
_ZOOM_DELTAS = (0.0, ZOOM_STEP, -ZOOM_STEP)
# (pitch, yaw, zoom) term index of every action, in action order
_ACTION_TERMS = tuple((_PITCH_DELTAS.index(dp), _YAW_DELTAS.index(dy),
                       _ZOOM_DELTAS.index(dz)) for dp, dy, dz in ACTION_DELTAS)
_ACTIONS = tuple(Action)
_TERMS = np.array(_ACTION_TERMS).T  # (3, 11): pitch, yaw and zoom term indices


@dataclass(frozen=True, slots=True)
class TriangulationResult:
    """Ground-plane estimate or failure, plus the normal-matrix conditioning."""

    estimate: tuple[float, float] | None
    condition: float

    @property
    def ok(self) -> bool:
        return self.estimate is not None


@dataclass(slots=True)
class GeometricMemory:
    """One-slot memory of the last successful triangulation."""

    last_estimate: tuple[float, float] | None = None


def tracker_action(pose: CameraPose, bearing_pitch: float, bearing_yaw: float,
                   distance: float) -> Action:
    """Greedy one-step minimizer of the normalized pose error, given the
    bearing (pitch, yaw) and distance from the camera to the target.

    Scores all 11 actions and returns the one whose resulting pose minimizes
    d_alpha/30 + d_beta/45 + d_xi/2.3; ties go to the lowest action index.
    The camera position never changes, so the bearing is shared by all
    candidates, and each axis's three terms are computed once and summed
    per action (pitch + yaw + zoom, left to right).
    """
    # desired_zoom, then each axis's three candidates with apply_action's
    # wrap and clamps, written out. The unmoved candidates skip the + 0.0 of
    # a zero delta, which could change only the sign of a zero that the
    # term's abs drops.
    xi_star = distance / ZOOM_DISTANCE_SCALE
    if xi_star < ZOOM_MIN:
        xi_star = ZOOM_MIN
    elif xi_star > ZOOM_MAX:
        xi_star = ZOOM_MAX
    pitch = pose.pitch_deg
    up = pitch + ROTATE_STEP_DEG
    down = pitch - ROTATE_STEP_DEG
    if pitch > PITCH_LIMIT_DEG:
        pitch = PITCH_LIMIT_DEG
    elif pitch < -PITCH_LIMIT_DEG:
        pitch = -PITCH_LIMIT_DEG
    if up > PITCH_LIMIT_DEG:
        up = PITCH_LIMIT_DEG
    elif up < -PITCH_LIMIT_DEG:
        up = -PITCH_LIMIT_DEG
    if down > PITCH_LIMIT_DEG:
        down = PITCH_LIMIT_DEG
    elif down < -PITCH_LIMIT_DEG:
        down = -PITCH_LIMIT_DEG
    p0 = abs(pitch - bearing_pitch) / ALPHA_MAX_DEG
    p_up = abs(up - bearing_pitch) / ALPHA_MAX_DEG
    p_down = abs(down - bearing_pitch) / ALPHA_MAX_DEG
    yaw = pose.yaw_deg
    still = (yaw - bearing_yaw) % 360.0
    left = (yaw - ROTATE_STEP_DEG - bearing_yaw) % 360.0
    right = (yaw + ROTATE_STEP_DEG - bearing_yaw) % 360.0
    y0 = abs(still - 360.0 if still > 180.0 else still) / BETA_MAX_DEG
    y_left = abs(left - 360.0 if left > 180.0 else left) / BETA_MAX_DEG
    y_right = abs(right - 360.0 if right > 180.0 else right) / BETA_MAX_DEG
    zoom = pose.zoom
    zoom_in = zoom + ZOOM_STEP
    zoom_out = zoom - ZOOM_STEP
    if zoom > ZOOM_MAX:
        zoom = ZOOM_MAX
    elif zoom < ZOOM_MIN:
        zoom = ZOOM_MIN
    if zoom_in > ZOOM_MAX:
        zoom_in = ZOOM_MAX
    elif zoom_in < ZOOM_MIN:
        zoom_in = ZOOM_MIN
    if zoom_out > ZOOM_MAX:
        zoom_out = ZOOM_MAX
    elif zoom_out < ZOOM_MIN:
        zoom_out = ZOOM_MIN
    z0 = abs(zoom - xi_star) / ZOOM_ERROR_NORM
    z_in = abs(zoom_in - xi_star) / ZOOM_ERROR_NORM
    z_out = abs(zoom_out - xi_star) / ZOOM_ERROR_NORM

    # each action's (pitch, yaw, zoom) terms of _ACTION_TERMS, summed left
    # to right, in action order
    scores = [p0 + y0 + z0, p0 + y_left + z0, p0 + y_right + z0,
              p_up + y0 + z0, p_down + y0 + z0,
              p_up + y_left + z0, p_up + y_right + z0,
              p_down + y_left + z0, p_down + y_right + z0,
              p0 + y0 + z_in, p0 + y0 + z_out]
    # min keeps the first of equal scores, and index finds that one
    return _ACTIONS[scores.index(min(scores))]


def virtual_tracker_action(pose: CameraPose,
                           target: tuple[float, float, float]) -> Action:
    """tracker_action toward a target point: the oracle stand-in for a
    working image tracker, which reads the true target position."""
    origin = (pose.x, pose.y, pose.z)
    b_pitch, b_yaw = bearing_to(origin, target)
    return tracker_action(pose, b_pitch, b_yaw, math.dist(origin, target))


def triangulate(poses: list[CameraPose], labels) -> TriangulationResult:
    """Least-squares ground-plane intersection of the yaw rays of the
    cameras whose label is 1 (labels[i] is poses[i]'s).

    Each contributing camera adds the line through (x, y) along
    (cos yaw, sin yaw); the normal equations sum the perpendicular projectors
    I - d d^T. Fails with fewer than two contributors or when the 2x2 normal
    matrix is ill-conditioned (near-parallel rays).
    """
    if not poses:
        raise ValueError("triangulate requires at least one camera")
    m00 = m01 = m11 = 0.0
    r0 = r1 = 0.0
    contributors = 0
    for pose, label in zip(poses, labels, strict=True):
        if label != 1:
            continue
        yaw = math.radians(pose.yaw_deg)
        dx, dy = math.cos(yaw), math.sin(yaw)
        a00 = 1.0 - dx * dx
        a01 = -dx * dy
        a11 = 1.0 - dy * dy
        m00 += a00
        m01 += a01
        m11 += a11
        r0 += a00 * pose.x + a01 * pose.y
        r1 += a01 * pose.x + a11 * pose.y
        contributors += 1

    # The normal matrix is symmetric positive semi-definite, so its singular
    # values are its eigenvalues and sigma_max / sigma_min = l_max**2 / det.
    det = m00 * m11 - m01 * m01
    if det > 0.0:
        l_max = 0.5 * (m00 + m11) + math.hypot(0.5 * (m00 - m11), m01)
        condition = l_max * l_max / det
    else:
        condition = math.inf
    if contributors < 2 or condition > TRIANGULATION_MAX_CONDITION:
        return TriangulationResult(None, condition)
    point = np.linalg.solve(np.array([[m00, m01], [m01, m11]]), np.array([r0, r1]))
    return TriangulationResult((float(point[0]), float(point[1])), condition)


def geometric_pose_action(pose: CameraPose, result: TriangulationResult,
                          memory: GeometricMemory) -> Action:
    """Steer toward the step's triangulated target; fall back to the remembered
    estimate, and keep still when there is no information at all."""
    if result.ok:
        memory.last_estimate = result.estimate
    point = memory.last_estimate
    if point is None:
        return Action.KEEP_STILL
    return virtual_tracker_action(pose, (point[0], point[1], TARGET_MID_HEIGHT))


def learned_pose_action(poses: list[CameraPose], labels, params: nn.PolicyParams,
                        arena_half: float) -> list[Action]:
    """Greedy actions of the label-0 cameras, in camera order.

    The step's pose tuples are embedded once and nn.greedy_actions runs the
    trunk and policy head over the label-0 cameras, whose indices it is
    handed; each action is the argmax of the log-probabilities training
    computes (lowest index on ties).
    """
    raws = nn.raw_tuples(poses, labels, arena_half)
    pose_cams = [i for i, label in enumerate(labels) if label == 0]
    return [_ACTIONS[i] for i in nn.greedy_actions(params, raws, pose_cams).tolist()]


def oracle_switch(vis: Visibility) -> int:
    """Perfect switcher: trust tracking exactly when the target is visible."""
    return 1 if vis is Visibility.VISIBLE else 0


def random_switch(rng: RngStream, p_pose: float) -> int:
    """Label 0 (use the pose controller) with probability p_pose, else 1."""
    return 0 if rng.random() < p_pose else 1


def random_labels(u: np.ndarray, p_pose: float) -> np.ndarray:
    """random_switch's labels for an array of its uniform draws u."""
    return np.where(u < p_pose, 0, 1)


def noisy_switch(vis: Visibility, rng: RngStream, eps: float) -> int:
    """Oracle switcher whose output flips with probability eps."""
    g = oracle_switch(vis)
    return 1 - g if rng.random() < eps else g


def sv_baseline_action(pose: CameraPose, vis: Visibility, bearing_pitch: float,
                       bearing_yaw: float, distance: float) -> Action:
    """Single-view baseline: track while the target is visible, otherwise
    hold still (a lost tracker has no signal and no help from peers). The
    bearing and distance are those of tracker_action."""
    if vis is Visibility.VISIBLE:
        return tracker_action(pose, bearing_pitch, bearing_yaw, distance)
    return Action.KEEP_STILL


def system_action(outcome: StepOutcome, labels, system: str,
                  params: nn.PolicyParams | None = None,
                  memories: list[GeometricMemory] | None = None) -> list[Action]:
    """One step of the named system, one action per camera of the observed
    state in camera order (see the module docstring for the four rules).

    outcome is the latest observation: its state holds the cameras' poses
    and the arena, and its visibility, bearings and distances are what the
    tracker reuses. labels holds one label per camera, for every system."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    state = outcome.state
    poses = state.cameras
    if len(labels) != len(poses):
        raise ValueError(f"expected one label per camera ({len(poses)}), "
                         f"got {len(labels)}")
    b_pitch, b_yaw, distance = (outcome.bearing_pitch, outcome.bearing_yaw,
                                outcome.distance)
    if system == "virtual":
        return list(map(tracker_action, poses, b_pitch, b_yaw, distance))
    if system == "sv":
        return list(map(sv_baseline_action, poses, outcome.visibility, b_pitch,
                        b_yaw, distance))
    if system == "learned":
        if params is None:
            raise ValueError("learned controller needs params")
        # label-1 cameras track; one policy call serves every label-0 camera,
        # in camera order
        greedy = iter(learned_pose_action(poses, labels, params, state.arena_half)
                      if 0 in labels else ())
        return [tracker_action(pose, pitch, yaw, dist) if label != 0 else next(greedy)
                for pose, label, pitch, yaw, dist in zip(poses, labels, b_pitch,
                                                         b_yaw, distance)]
    if memories is None:
        raise ValueError("geometric controller needs one GeometricMemory per camera")
    # label-1 cameras track; the first label-0 camera triangulates, and each
    # aims at the result or its memory
    actions = []
    result = None
    for i, (pose, label, pitch, yaw, dist) in enumerate(zip(poses, labels, b_pitch,
                                                             b_yaw, distance)):
        if label != 0:
            actions.append(tracker_action(pose, pitch, yaw, dist))
        else:
            if result is None:
                result = triangulate(poses, labels)
            actions.append(geometric_pose_action(pose, result, memories[i]))
    return actions


def batch_tracker_action(pitch: np.ndarray, yaw: np.ndarray, zoom: np.ndarray,
                         bearing_pitch: np.ndarray, bearing_yaw: np.ndarray,
                         distance: np.ndarray) -> np.ndarray:
    """tracker_action for every camera of a batch: poses and the
    bearing and distance to each camera's target, all of one shape, give
    action indices of that shape. Same terms, same left-to-right sums, and
    np.argmin keeps the first of equal scores; each yaw term's
    abs(wrap_angle(...)) is geometry.yaw_errors, which gives it without the
    wrap."""
    pitch_terms = np.abs(clamp_pitch(pitch[..., None] + _PITCH_DELTAS)
                         - bearing_pitch[..., None]) / ALPHA_MAX_DEG
    yaw_terms = yaw_errors(yaw[..., None] + _YAW_DELTAS
                           - bearing_yaw[..., None]) / BETA_MAX_DEG
    zoom_terms = np.abs(clamp_zoom(zoom[..., None] + _ZOOM_DELTAS)
                        - desired_zooms(distance)[..., None]) / ZOOM_ERROR_NORM
    scores = (pitch_terms[..., _TERMS[0]] + yaw_terms[..., _TERMS[1]]
              + zoom_terms[..., _TERMS[2]])
    return np.argmin(scores, axis=-1)


def batch_triangulate(origin: np.ndarray, yaw: np.ndarray, contributes: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """triangulate for K steps at once: camera origins (K, C, 3+), yaws and
    contributor flags (K, C) -> estimates (K, 2) and success flags (K,);
    failed rows of the estimate are NaN.

    The normal equations are summed one camera at a time in camera order,
    as triangulate sums them, and the successful rows share one stacked
    solve. np.radians is math.radians' one multiplication by pi / 180; cos
    and sin are taken with math, one element at a time, because numpy's may
    round differently, and come back in one array."""
    rad = np.radians(yaw).ravel().tolist()
    cos_sin = np.array([list(map(math.cos, rad)), list(map(math.sin, rad))]
                       ).reshape((2,) + yaw.shape)
    # each camera's five terms, axis first: a00, a01, a11 and the right-hand
    # side (a00, a01) * x + (a01, a11) * y; a non-contributor's are zeroed,
    # so it adds nothing
    terms = np.empty((5,) + yaw.shape)
    np.subtract(1.0, cos_sin * cos_sin, out=terms[0:3:2])
    np.multiply(-cos_sin[0], cos_sin[1], out=terms[1])
    np.multiply(terms[0:2], origin[..., 0], out=terms[3:])
    terms[3:] += terms[1:3] * origin[..., 1]
    terms[:, ~contributes] = 0.0
    sums = np.zeros((5, yaw.shape[0]))
    for c in range(yaw.shape[1]):
        sums += terms[..., c]
    m00, m01, m11 = sums[:3]
    det = m00 * m11 - m01 * m01
    l_max = 0.5 * (m00 + m11) + np.array(
        list(map(math.hypot, (0.5 * (m00 - m11)).tolist(), m01.tolist())))
    condition = np.divide(l_max * l_max, det, out=np.full(det.shape, math.inf),
                          where=det > 0.0)
    ok = (contributes.sum(axis=1) >= 2) & (condition <= TRIANGULATION_MAX_CONDITION)
    estimate = np.full((yaw.shape[0], 2), np.nan)
    if ok.any():
        rows = sums.T[ok]
        estimate[ok] = np.linalg.solve(rows[:, [0, 1, 1, 2]].reshape(-1, 2, 2),
                                       rows[:, 3:, None])[..., 0]
    return estimate, ok


@dataclass(slots=True)
class BatchMemory:
    """The GeometricMemory of every camera of a batch: the last successful
    estimate (E, C, 2), and whether there is one (E, C)."""

    estimate: np.ndarray
    known: np.ndarray

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "BatchMemory":
        return cls(np.zeros(shape + (2,)), np.zeros(shape, dtype=bool))


def batch_system_action(state: BatchState, outcome: BatchOutcome,
                        labels: np.ndarray, systems: list[str] | np.ndarray,
                        params: nn.PolicyParams | None = None,
                        memory: BatchMemory | None = None) -> np.ndarray:
    """One step of each episode's system over a batch -> (E, C) action indices.

    systems names one system per episode (virtual, sv, geometric or
    learned), so one batch can mix them; each episode's actions equal its
    own system's scalar rule. outcome is the latest observation of state,
    and one batch_tracker_action call on its bearings and distances serves
    every row: virtual rows take its action, sv rows keep still where the
    target is not visible, and the label-1 cameras of geometric and learned
    rows track. geometric triangulates each of its episodes that has a
    label-0 camera, and its label-0 cameras aim at their stored estimate
    (its bearing and distance are swapped in before the tracker call) or
    keep still without one; learned runs nn.greedy_actions once per such
    episode, since one forward over all of them would round differently."""
    kinds = np.asarray(systems)
    if kinds.shape != labels.shape[:1]:
        raise ValueError(f"expected one system per episode ({labels.shape[0]}), "
                         f"got {kinds.shape}")
    names = set(kinds.tolist())
    unknown = names.difference(SYSTEMS)
    if unknown:
        raise ValueError(f"unknown system in {sorted(unknown)}")
    if "geometric" in names and memory is None:
        raise ValueError("geometric controller needs a BatchMemory")
    if "learned" in names and params is None:
        raise ValueError("learned controller needs params")
    label0 = labels == 0
    origin = state.row_origin
    keep_still = (kinds == "sv")[:, None] & (outcome.visibility != VIS_VISIBLE)
    b_pitch, b_yaw, distance = (outcome.bearing_pitch, outcome.bearing_yaw,
                                outcome.distance)
    if "geometric" in names:
        geo_pose = label0 & (kinds == "geometric")[:, None]
        envs = np.flatnonzero(geo_pose.any(axis=1))
        if envs.size:
            estimate, ok = batch_triangulate(origin[envs], state.yaw[envs],
                                             labels[envs] == 1)
            # each label-0 camera of a successful triangulation stores it
            rows, cams = np.nonzero(geo_pose[envs] & ok[:, None])
            memory.estimate[envs[rows], cams] = estimate[rows]
            memory.known[envs[rows], cams] = True
        aim = geo_pose & memory.known
        keep_still |= geo_pose & ~memory.known
        if aim.any():
            # label-0 cameras aim at their estimate, at the target's mid-height
            aim_origin = origin[aim]
            points = np.empty_like(aim_origin)
            points[:, :2] = memory.estimate[aim]
            points[:, 2] = TARGET_MID_HEIGHT
            b_pitch, b_yaw, distance = b_pitch.copy(), b_yaw.copy(), distance.copy()
            b_pitch[aim], b_yaw[aim], distance[aim] = bearings(points - aim_origin)
    actions = batch_tracker_action(state.pitch, state.yaw, state.zoom,
                                   b_pitch, b_yaw, distance)
    actions[keep_still] = Action.KEEP_STILL
    if "learned" in names:
        learned_pose = label0 & (kinds == "learned")[:, None]
        for e in np.flatnonzero(learned_pose.any(axis=1)).tolist():
            raws = nn.pose_tuples(origin[e], state.pitch[e], state.yaw[e],
                                  labels[e], state.envs[state.world[e]].arena_half)
            actions[e, learned_pose[e]] = nn.greedy_actions(params, raws,
                                                            learned_pose[e])
    return actions

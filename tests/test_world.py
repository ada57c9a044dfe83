"""World: episode randomization, target motion, transitions and rewards."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from camtrack import nn
from camtrack.config import ConfigError, EpisodeConfig
from camtrack.evaluate import run_episode
from camtrack.geometry import (
    CameraPose,
    Obstacle,
    angle_error,
    bearing_to,
    effective_fov,
    segment_box_overlap,
    wrap_angle,
)
from camtrack.io import write_episode_log
from camtrack.world import (
    LEG_MARGIN,
    PAUSE_PROBABILITY,
    PAUSE_STEPS,
    Action,
    TargetState,
    Visibility,
    WorldState,
    _draw_waypoint,
    advance_target,
    apply_action,
    desired_zoom,
    direction_reward,
    observe,
    spawn_episode,
    step,
    visibility_of,
    zoom_reward,
)
from camtrack.rng import RngStream


def in_fov(pose, target):
    """Reference frustum test: the target's angle errors within half the
    effective field of view."""
    d_alpha, d_beta = angle_error(pose, target)
    h_fov, v_fov = effective_fov(pose.zoom)
    return d_beta <= 0.5 * h_fov and d_alpha <= 0.5 * v_fov


class TestAction:
    def test_eleven_actions_with_stable_indices(self):
        assert len(Action) == 11
        assert [a.value for a in Action] == list(range(11))
        for a in Action:
            assert Action(int(a)) is a


class TestApplyAction:
    def test_keep_still_is_identity(self):
        pose = CameraPose(1.0, 2.0, 3.0, 10.0, 20.0, 1.5)
        assert apply_action(pose, Action.KEEP_STILL) == pose

    def test_right_wraps(self):
        pose = CameraPose(0, 0, 2, 0.0, 178.0, 1.0)
        assert apply_action(pose, Action.RIGHT).yaw_deg == -177.0

    def test_left_is_negative(self):
        pose = CameraPose(0, 0, 2, 0.0, 0.0, 1.0)
        assert apply_action(pose, Action.LEFT).yaw_deg == -5.0

    def test_zoom_clamps_at_upper_bound(self):
        pose = CameraPose(0, 0, 2, 0.0, 0.0, 3.25)
        assert apply_action(pose, Action.ZOOM_IN).zoom == 3.3

    def test_zoom_clamps_at_lower_bound(self):
        pose = CameraPose(0, 0, 2, 0.0, 0.0, 1.05)
        assert apply_action(pose, Action.ZOOM_OUT).zoom == 1.0

    def test_pitch_clamps(self):
        pose = CameraPose(0, 0, 2, 58.0, 0.0, 1.0)
        assert apply_action(pose, Action.UP).pitch_deg == 60.0
        pose = CameraPose(0, 0, 2, -58.0, 0.0, 1.0)
        assert apply_action(pose, Action.DOWN).pitch_deg == -60.0

    def test_diagonals_move_both_axes(self):
        pose = CameraPose(0, 0, 2, 0.0, 0.0, 1.0)
        tl = apply_action(pose, Action.TOP_LEFT)
        assert (tl.pitch_deg, tl.yaw_deg) == (5.0, -5.0)
        br = apply_action(pose, Action.BOTTOM_RIGHT)
        assert (br.pitch_deg, br.yaw_deg) == (-5.0, 5.0)


class TestSpawnEpisode:
    def test_same_seed_same_state(self):
        cfg = EpisodeConfig()
        assert spawn_episode(cfg, 123) == spawn_episode(cfg, 123)

    def test_different_seed_different_state(self):
        cfg = EpisodeConfig()
        assert spawn_episode(cfg, 1) != spawn_episode(cfg, 2)

    @pytest.mark.parametrize("change", [
        {"speed": 0.123},
        {"waypoint": (1.0, -1.0)},
        {"pause_steps_remaining": 3},
    ])
    def test_target_fields_take_part_in_equality(self, change):
        world = spawn_episode(EpisodeConfig(), 5)
        other = dataclasses.replace(
            world, target=dataclasses.replace(world.target, **change))
        assert other.target.point() == world.target.point()
        assert other != world
        assert dataclasses.replace(other, target=world.target) == world

    def test_rng_state_takes_part_in_equality(self):
        world = spawn_episode(EpisodeConfig(), 5)
        other = spawn_episode(EpisodeConfig(), 5)
        assert other == world
        other.rng.next_u64()
        assert other != world

    def test_zero_obstacles(self):
        assert spawn_episode(EpisodeConfig(n_obstacles=0), 9).obstacles == []

    def test_cameras_look_inward(self):
        cfg = EpisodeConfig()
        for seed in range(50):
            world = spawn_episode(cfg, seed)
            assert len(world.cameras) == 4
            for cam in world.cameras:
                _, to_center = bearing_to((cam.x, cam.y, 0.0), (0.0, 0.0, 0.0))
                off = abs(wrap_angle(cam.yaw_deg - to_center))
                assert off <= 90.0
                assert off <= 30.0 + 1e-9

    def test_layout_invariants(self):
        cfg = EpisodeConfig()
        h = cfg.arena_half
        for seed in range(30):
            world = spawn_episode(cfg, seed)
            for cam in world.cameras:
                on_edge = (abs(abs(cam.x) - h) < 1e-12 or abs(abs(cam.y) - h) < 1e-12)
                assert on_edge
                assert 2.0 <= cam.z <= 3.0
                assert cam.pitch_deg == 0.0 and cam.zoom == 1.0
            t = world.target
            assert abs(t.x) <= h / 2 and abs(t.y) <= h / 2
            assert 0.05 <= t.speed <= 0.2
            assert len(world.obstacles) == 8
            for box in world.obstacles:
                assert box.min_x >= -h and box.max_x <= h
                assert box.min_y >= -h and box.max_y <= h
                assert 1.0 <= box.height <= 2.5
                assert 0.5 <= box.max_x - box.min_x <= 3.0
                assert not box.footprint_contains(t.x, t.y)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            spawn_episode(EpisodeConfig(n_cameras=1), 0)


class TestAdvanceTarget:
    def _world(self, target, obstacles=(), seed=0):
        return WorldState([], target, list(obstacles), 0, 10.0, (0.05, 0.2),
                          RngStream(seed, 0))

    def test_pause_counts_down(self):
        t = TargetState(1.0, 2.0, 0.1, (5.0, 5.0), pause_steps_remaining=5)
        world = self._world(t)
        nxt = advance_target(world)
        assert (nxt.x, nxt.y) == (1.0, 2.0)
        assert nxt.pause_steps_remaining == 4

    def test_arrival_redraws_waypoint(self):
        t = TargetState(0.0, 0.0, 0.1, (0.01, 0.0))
        world = self._world(t)
        nxt = advance_target(world)
        assert (nxt.x, nxt.y) == (0.01, 0.0)
        assert nxt.waypoint != (0.01, 0.0)
        assert 0.05 <= nxt.speed <= 0.2

    def test_straight_step_toward_waypoint(self):
        t = TargetState(0.0, 0.0, 0.1, (10.0, 0.0))
        world = self._world(t)
        nxt = advance_target(world)
        assert nxt.x == pytest.approx(0.1)
        assert nxt.y == 0.0
        assert nxt.waypoint == (10.0, 0.0)

    def test_footprint_truncation(self):
        box = Obstacle(1.0, -1.0, 2.0, 1.0, 2.0)
        t = TargetState(0.9, 0.0, 0.2, (5.0, 0.0))
        world = self._world(t, [box])
        nxt = advance_target(world)
        assert nxt.x <= 1.0  # stopped at or before the boundary
        assert nxt.x == pytest.approx(1.0, abs=1e-8)
        assert nxt.waypoint != (5.0, 0.0)

    @pytest.mark.parametrize("target", [
        TargetState(0.0, 0.0, 0.1, (0.01, 0.0)),  # arrives: a new waypoint
        TargetState(0.0, 0.0, 0.1, (5.0, 0.0)),   # a step on its leg
    ], ids=["arrival", "leg"])
    def test_no_free_waypoint_raises(self, target):
        """One obstacle's footprint covers the whole arena, so every one of
        the 1000 waypoint draws lands in it."""
        world = self._world(target, [Obstacle(-10.0, -10.0, 10.0, 10.0, 1.0)])
        with pytest.raises(ConfigError, match="after 1000 attempts"):
            advance_target(world)

    def test_long_run_never_enters_footprints(self):
        cfg = EpisodeConfig()
        world = spawn_episode(cfg, 77)
        for k in range(100_000):
            nxt = advance_target(world)
            assert abs(nxt.x) <= cfg.arena_half and abs(nxt.y) <= cfg.arena_half
            for box in world.obstacles:
                inside = (box.min_x < nxt.x < box.max_x
                          and box.min_y < nxt.y < box.max_y)
                assert not inside, f"target entered a footprint at step {k}"
            world.target = nxt


def advance_every_obstacle(state):
    """advance_target's step as it reads without leg candidates: every step
    slab-tests every obstacle of the world."""
    t = state.target
    rng = state.rng
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
    for box in state.obstacles:
        overlap = segment_box_overlap((t.x, t.y, 0.0), (mx, my, 0.0), box)
        if overlap is not None and (hit_t is None or overlap[0] < hit_t):
            hit_t = overlap[0]
    if hit_t is not None:
        back = max(step_len * hit_t - 1e-9, 0.0)
        waypoint = _draw_waypoint(rng, state.arena_half, state.obstacles)
        return TargetState(t.x + ux * back, t.y + uy * back, t.speed, waypoint)
    nx, ny = t.x + mx, t.y + my
    if arrives:
        waypoint = _draw_waypoint(rng, state.arena_half, state.obstacles)
        speed = rng.uniform(*state.speed_range)
        pause = 0
        if rng.random() < PAUSE_PROBABILITY:
            pause = rng.randint(*PAUSE_STEPS)
        return TargetState(nx, ny, speed, waypoint, pause)
    return TargetState(nx, ny, t.speed, t.waypoint)


# distances of a leg from an obstacle's edge or corner; negative ones cross it
GRAZE_OFFSETS = [0.0, 1e-12, 1e-9, 5e-7, 0.99 * LEG_MARGIN, LEG_MARGIN,
                 1.01 * LEG_MARGIN, 2 * LEG_MARGIN, 1e-3]
# (corner, tangent along which a leg only touches it, outward normal)
CORNERS = [((0, 0), (1, -1), (-1, -1)), ((1, 0), (1, 1), (1, -1)),
           ((1, 1), (1, -1), (1, 1)), ((0, 1), (1, 1), (-1, 1))]


@st.composite
def grazing_walks(draw):
    """Obstacles, and a target whose first leg runs along an edge of one of
    them, or past one of its corners, at a tiny offset (outside, on it or
    inside), possibly paused first."""
    coord = st.floats(-9.0, 9.0)
    size = st.floats(0.3, 3.0)
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        cx, cy, w, d = draw(coord), draw(coord), draw(size), draw(size)
        boxes.append(Obstacle(cx - w / 2, cy - d / 2, cx + w / 2, cy + d / 2, 2.0))
    box = draw(st.sampled_from(boxes))
    offset = draw(st.sampled_from(GRAZE_OFFSETS)) * draw(st.sampled_from([1.0, -1.0]))
    before, after = draw(size), draw(size)
    xs, ys = (box.min_x, box.max_x), (box.min_y, box.max_y)
    edge = draw(st.sampled_from(["bottom", "top", "left", "right", "corner"]))
    if edge in ("bottom", "top"):
        y = box.min_y - offset if edge == "bottom" else box.max_y + offset
        start, end = (box.min_x - before, y), (box.max_x + after, y)
    elif edge in ("left", "right"):
        x = box.min_x - offset if edge == "left" else box.max_x + offset
        start, end = (x, box.min_y - before), (x, box.max_y + after)
    else:
        (i, j), (tx, ty), (nx, ny) = draw(st.sampled_from(CORNERS))
        h = math.sqrt(0.5)
        cx, cy = xs[i] + offset * nx * h, ys[j] + offset * ny * h
        start = (cx - before * tx * h, cy - before * ty * h)
        end = (cx + after * tx * h, cy + after * ty * h)
    if draw(st.booleans()):
        start, end = end, start
    target = TargetState(*start, draw(st.floats(0.05, 1.0)), end,
                         draw(st.sampled_from([0, 0, 4])))
    return boxes, target


class TestLegObstacles:
    """advance_target tests only the obstacles of the target's current leg."""

    def _world(self, target, obstacles, seed=0):
        return WorldState([], target, list(obstacles), 0, 10.0, (0.05, 1.0),
                          RngStream(seed, 0))

    @settings(max_examples=150, deadline=None)
    @given(walk=grazing_walks(), seed=st.integers(0, 2 ** 64 - 1),
           drops=st.sets(st.integers(0, 119), max_size=4))
    def test_equals_testing_every_obstacle(self, walk, seed, drops):
        """Step for step, the leg walk and a walk that tests every obstacle
        give equal targets and rng states: along and across edges and
        corners within LEG_MARGIN, through hits that redraw the waypoint,
        pauses and arrivals, from a TargetState built without a leg and
        after the leg is dropped mid-way."""
        obstacles, target = walk
        fast = self._world(target, obstacles, seed)
        slow = self._world(dataclasses.replace(target), obstacles, seed)
        for k in range(120):
            got, want = advance_target(fast), advance_every_obstacle(slow)
            assert got == want
            assert fast.rng == slow.rng
            leg = got.leg_obstacles
            if leg is not None:
                assert list(leg) == [b for b in obstacles if b in leg]
            if k in drops:
                got = dataclasses.replace(got, leg_obstacles=None)
            fast.target, slow.target = got, want

    @pytest.mark.parametrize("offset, candidate", [
        (-1e-9, True), (0.0, True), (1e-7, True), (0.99 * LEG_MARGIN, True),
        (2 * LEG_MARGIN, False), (1e-3, False)])
    def test_candidates_are_footprints_widened_by_the_margin(self, offset, candidate):
        box = Obstacle(1.0, 1.0, 2.0, 2.0, 1.0)
        far = Obstacle(5.0, 5.0, 6.0, 6.0, 1.0)
        target = TargetState(0.0, 1.0 - offset, 0.1, (3.0, 1.0 - offset))
        nxt = advance_target(self._world(target, [far, box]))
        assert nxt.leg_obstacles == ((box,) if candidate else ())

    def test_leg_is_kept_along_the_leg_and_dropped_at_its_end(self):
        box = Obstacle(1.0, -1.0, 2.0, 1.0, 2.0)
        world = self._world(TargetState(0.0, 0.0, 0.3, (5.0, 0.0)), [box])
        world.target = advance_target(world)
        assert world.target.leg_obstacles == (box,)
        world.target = dataclasses.replace(world.target, pause_steps_remaining=2)
        for _ in range(2):
            world.target = advance_target(world)
            assert world.target.leg_obstacles == (box,)
        for _ in range(2):
            world.target = advance_target(world)
            assert world.target.leg_obstacles == (box,)
        world.target = advance_target(world)   # cut short at x = 1
        assert world.target.x == pytest.approx(1.0, abs=1e-8)
        assert world.target.leg_obstacles is None

    @pytest.mark.parametrize("x, y", [
        (0.0, 0.0), (1.0, 0.0), (1.0 - 0.5 * LEG_MARGIN, 0.0), (1.0, -1.0),
        (2.0, 1.0 + 2 * LEG_MARGIN)],
        ids=["clear", "on-edge", "within-margin", "on-corner", "past-margin"])
    def test_target_on_its_waypoint_equals_testing_every_obstacle(self, x, y):
        """A target that stands on its waypoint takes a zero move: clear of
        the obstacles, on a footprint's edge or corner (a hit at t = 0), and
        just outside one, it gives the target and rng state of the walk that
        tests every obstacle."""
        box = Obstacle(1.0, -1.0, 2.0, 1.0, 2.0)
        far = Obstacle(5.0, 5.0, 6.0, 6.0, 1.0)
        for seed in range(20):
            target = TargetState(x, y, 0.3, (x, y))
            fast = self._world(target, [far, box], seed)
            slow = self._world(dataclasses.replace(target), [far, box], seed)
            assert advance_target(fast) == advance_every_obstacle(slow)
            assert fast.rng == slow.rng

    def test_leg_takes_no_part_in_equality(self):
        target = TargetState(0.0, 0.0, 0.3, (5.0, 0.0))
        assert dataclasses.replace(target, leg_obstacles=()) == target


class TestVisibility:
    def _world_with(self, cam, obstacles, target_xy=(10.0, 0.0)):
        target = TargetState(target_xy[0], target_xy[1], 0.1, (0.0, 0.0))
        return WorldState([cam], target, obstacles, 0, 10.0, (0.05, 0.2),
                          RngStream(0, 0))

    def test_behind_camera_is_out_of_view(self):
        cam = CameraPose(0, 0, 2, 0.0, 180.0, 1.0)
        world = self._world_with(cam, [])
        assert visibility_of(world, 0) is Visibility.OUT_OF_VIEW

    def test_box_on_sightline_occludes(self):
        cam = CameraPose(0, 0, 2, 0.0, 0.0, 1.0)
        box = Obstacle(4.0, -1.0, 6.0, 1.0, 2.5)
        world = self._world_with(cam, [box])
        assert visibility_of(world, 0) is Visibility.OCCLUDED

    def test_clear_line_is_visible(self):
        cam = CameraPose(0, 0, 2, 0.0, 0.0, 1.0)
        world = self._world_with(cam, [])
        assert visibility_of(world, 0) is Visibility.VISIBLE

    def test_out_of_view_wins_over_occlusion(self):
        cam = CameraPose(0, 0, 2, 0.0, 180.0, 1.0)
        box = Obstacle(4.0, -1.0, 6.0, 1.0, 2.5)
        world = self._world_with(cam, [box])
        assert visibility_of(world, 0) is Visibility.OUT_OF_VIEW


class TestRewards:
    def test_direction_visible_zero_error(self):
        assert direction_reward(Visibility.VISIBLE, 0.0, 0.0) == 1.0

    def test_direction_occluded_is_zero(self):
        assert direction_reward(Visibility.OCCLUDED, 12.0, 7.0) == 0.0

    def test_direction_substitution(self):
        assert direction_reward(Visibility.VISIBLE, 15.0, 22.5) == pytest.approx(0.0)

    def test_direction_out_of_view(self):
        assert direction_reward(Visibility.OUT_OF_VIEW, 0.0, 0.0) == -1.0

    def test_zoom_exact(self):
        assert zoom_reward(Visibility.VISIBLE, 2.0, 12.0) == 1.0

    def test_zoom_occluded_is_zero(self):
        assert zoom_reward(Visibility.OCCLUDED, 2.0, 12.0) == 0.0

    def test_zoom_clamped_desired(self):
        # desired zoom clamps to 3.3 at 19.8 m; error spans the whole range
        assert zoom_reward(Visibility.VISIBLE, 1.0, 19.8) == pytest.approx(0.0)

    def test_desired_zoom_clamps(self):
        assert desired_zoom(3.0) == 1.0
        assert desired_zoom(12.0) == 2.0
        assert desired_zoom(30.0) == 3.3


class TestStep:
    def test_paused_target_keep_still_only_advances_time(self):
        cfg = EpisodeConfig(n_obstacles=0)
        world = spawn_episode(cfg, 5)
        world.target.pause_steps_remaining = 10
        before = [(c.x, c.y, c.z, c.pitch_deg, c.yaw_deg, c.zoom)
                  for c in world.cameras]
        out = step(world, [Action.KEEP_STILL] * 4)
        after = [(c.x, c.y, c.z, c.pitch_deg, c.yaw_deg, c.zoom)
                 for c in out.state.cameras]
        assert after == before
        assert out.state.t == world.t + 1
        assert (out.state.target.x, out.state.target.y) == (world.target.x, world.target.y)

    def test_out_of_view_reward_is_exactly_minus_one(self):
        cfg = EpisodeConfig(n_obstacles=0)
        world = spawn_episode(cfg, 5)
        # point every camera straight away from the target
        for i, cam in enumerate(world.cameras):
            _, b_yaw = bearing_to((cam.x, cam.y, cam.z), world.target.point())
            world.cameras[i] = CameraPose(cam.x, cam.y, cam.z, 0.0,
                                          wrap_angle(b_yaw + 180.0), cam.zoom)
        world.target.pause_steps_remaining = 10
        out = step(world, [Action.KEEP_STILL] * 4)
        assert all(v is Visibility.OUT_OF_VIEW for v in out.visibility)
        assert all(r == -1.0 for r in out.reward)

    def test_aligned_camera_reward_is_one(self):
        target = TargetState(10.0, 0.0, 0.1, (0.0, 0.0), pause_steps_remaining=5)
        b_pitch, b_yaw = bearing_to((0.0, 0.0, 2.0), target.point())
        dist = math.dist((0.0, 0.0, 2.0), target.point())
        cam = CameraPose(0.0, 0.0, 2.0, b_pitch, b_yaw, desired_zoom(dist))
        world = WorldState([cam], target, [], 0, 10.0, (0.05, 0.2), RngStream(0, 0))
        out = step(world, [Action.KEEP_STILL])
        assert out.visibility[0] is Visibility.VISIBLE
        assert out.reward[0] == 1.0  # pre-clip sum of 2 clips to 1

    def test_action_length_mismatch(self):
        world = spawn_episode(EpisodeConfig(), 0)
        with pytest.raises(ValueError):
            step(world, [Action.KEEP_STILL] * 3)

    def test_camera_positions_never_change(self):
        world = spawn_episode(EpisodeConfig(), 8)
        positions = [(c.x, c.y, c.z) for c in world.cameras]
        rng = np.random.default_rng(0)
        for _ in range(200):
            actions = [Action(int(a)) for a in rng.integers(0, 11, size=4)]
            world = step(world, actions).state
            assert [(c.x, c.y, c.z) for c in world.cameras] == positions

    def test_rewards_bounded_and_visible_implies_in_fov(self):
        world = spawn_episode(EpisodeConfig(), 21)
        rng = np.random.default_rng(1)
        for _ in range(500):
            actions = [Action(int(a)) for a in rng.integers(0, 11, size=4)]
            out = step(world, actions)
            world = out.state
            for i in range(4):
                assert -1.0 <= out.reward[i] <= 1.0
                if out.visibility[i] is Visibility.VISIBLE:
                    assert in_fov(world.cameras[i], world.target.point())
                if out.visibility[i] is Visibility.OCCLUDED:
                    assert out.reward[i] == 0.0

    def test_bit_exact_trajectory_replay(self):
        cfg = EpisodeConfig()

        def run():
            world = spawn_episode(cfg, 99)
            rng = np.random.default_rng(99)
            trail = []
            for _ in range(500):
                actions = [Action(int(a)) for a in rng.integers(0, 11, size=4)]
                out = step(world, actions)
                world = out.state
                trail.append((tuple(out.reward),
                              tuple(v.value for v in out.visibility),
                              world.target.x, world.target.y))
            return trail

        assert run() == run()


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


@st.composite
def episode_configs(draw):
    """Valid EpisodeConfigs whose obstacles still leave room to walk."""
    def pair(lo_min, lo_max, width_max):
        lo = draw(st.floats(lo_min, lo_max))
        return lo, lo + draw(st.floats(0.01, width_max))

    return EpisodeConfig(
        arena_half=draw(st.floats(5.0, 20.0)),
        n_cameras=draw(st.integers(2, 8)),
        n_obstacles=draw(st.integers(0, 15)),
        obstacle_size_range=pair(0.1, 3.0, 3.0),
        obstacle_height_range=pair(0.1, 3.0, 2.0),
        target_speed_range=pair(0.01, 0.3, 0.3),
        camera_height_range=pair(0.5, 4.0, 2.0))


class TestVisibilityOf:
    @settings(max_examples=80, deadline=None)
    @given(cfg=episode_configs(), seed=st.integers(0, 2 ** 64 - 1),
           aims=st.lists(st.tuples(st.booleans(), st.floats(-60.0, 60.0),
                                   st.floats(-179.9, 180.0), st.floats(1.0, 3.3)),
                         min_size=8, max_size=8))
    def test_equals_observe(self, cfg, seed, aims):
        """On random layouts with obstacles, each camera either aimed near
        the target or at a random pose: visibility_of(state, i) is
        observe(state).visibility[i] for every camera."""
        cfg = dataclasses.replace(cfg, n_obstacles=max(cfg.n_obstacles, 1))
        world = spawn_episode(cfg, seed)
        tp = world.target.point()
        cams = []
        for cam, (near, pitch, yaw, zoom) in zip(world.cameras, aims):
            if near:
                b_pitch, b_yaw = bearing_to((cam.x, cam.y, cam.z), tp)
                pitch = min(max(b_pitch + pitch / 4.0, -60.0), 60.0)
                yaw = wrap_angle(b_yaw + yaw / 4.0)
            cams.append(dataclasses.replace(cam, pitch_deg=pitch, yaw_deg=yaw, zoom=zoom))
        world.cameras = cams
        assert ([visibility_of(world, i) for i in range(len(cams))]
                == observe(world).visibility)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def reference_observe(state):
    """observe rebuilt from the public helpers, one camera and one box at a
    time: bearing_to, math.dist, effective_fov, segment_box_overlap,
    direction_reward, zoom_reward and desired_zoom. Returns the StepOutcome
    fields after state, in order."""
    tp = state.target.point()
    fields = [[] for _ in range(8)]
    for pose in state.cameras:
        origin = (pose.x, pose.y, pose.z)
        b_pitch, b_yaw = bearing_to(origin, tp)
        d_alpha = abs(pose.pitch_deg - b_pitch)
        d_beta = abs(wrap_angle(pose.yaw_deg - b_yaw))
        distance = math.dist(origin, tp)
        h_fov, v_fov = effective_fov(pose.zoom)
        direction = (tp[0] - pose.x, tp[1] - pose.y, tp[2] - pose.z)
        if d_beta > 0.5 * h_fov or d_alpha > 0.5 * v_fov:
            vis = Visibility.OUT_OF_VIEW
        elif any(segment_box_overlap(origin, direction, box) is not None
                 for box in state.obstacles):
            vis = Visibility.OCCLUDED
        else:
            vis = Visibility.VISIBLE
        r = direction_reward(vis, d_alpha, d_beta) + zoom_reward(vis, pose.zoom, distance)
        r = min(max(r, -1.0), 1.0)
        for column, value in zip(fields, (
                vis, r, d_alpha, d_beta, abs(pose.zoom - desired_zoom(distance)),
                b_pitch, b_yaw, distance)):
            column.append(value)
    return fields


def outcome_fields(outcome):
    """The StepOutcome fields after state, in order."""
    return [getattr(outcome, f.name) for f in dataclasses.fields(outcome)[1:]]


def assert_same_outcome(outcome, want_fields):
    """outcome's fields after state equal want_fields bit for bit."""
    got = outcome_fields(outcome)
    assert got[0] == want_fields[0]
    for name, column, want in zip(("reward", "d_alpha", "d_beta", "d_xi",
                                   "bearing_pitch", "bearing_yaw", "distance"),
                                  got[1:], want_fields[1:]):
        assert bits(column) == bits(want), name


# Shared grid values put cameras, target and box faces on common lines:
# sight lines flat in x, y or z, faces touching a sight line or a camera, and
# cameras whose x or y lies inside a footprint.
GRID = (-3.0, -1.5, -0.5, 0.0, 0.9, 1.0, 2.5, 4.0)


def coordinates():
    return st.one_of(st.sampled_from(GRID), st.floats(-5.0, 5.0))


@st.composite
def sight_layouts(draw):
    """A target, 1-4 cameras (each aimed near the target or at a random
    pose) and 0-6 boxes, with coordinates drawn mostly from GRID; some
    cameras stand far enough away for desired_zoom to clamp at ZOOM_MAX."""
    tx, ty, tz = draw(coordinates()), draw(coordinates()), draw(st.sampled_from(
        [0.9, 1.0, 2.5]))
    boxes = []
    for _ in range(draw(st.integers(0, 6))):
        (x0, x1), (y0, y1) = (sorted((draw(coordinates()), draw(coordinates())))
                              for _ in range(2))
        if x1 == x0:
            x1 += 1.0
        if y1 == y0:
            y1 += 1.0
        height = draw(st.one_of(st.sampled_from([0.9, 1.0, 2.5]),
                                st.floats(0.1, 4.0)))
        boxes.append(Obstacle(x0, y0, x1, y1, height))
    cams = []
    for _ in range(draw(st.integers(1, 4))):
        x, y = (draw(st.one_of(coordinates(), st.sampled_from([-15.0, 15.0])))
                for _ in range(2))
        z = draw(st.one_of(st.sampled_from([0.9, 1.0, 2.5]), st.floats(0.5, 4.0)))
        if (x, y, z) == (tx, ty, tz):
            z += 1.0
        pitch, yaw = draw(st.floats(-60.0, 60.0)), draw(st.floats(-179.9, 180.0))
        if draw(st.booleans()):
            b_pitch, b_yaw = bearing_to((x, y, z), (tx, ty, tz))
            pitch = min(max(b_pitch + pitch / 8.0, -60.0), 60.0)
            yaw = wrap_angle(b_yaw + yaw / 8.0)
        zoom = draw(st.one_of(st.sampled_from([1.0, 3.3]), st.floats(1.0, 3.3)))
        cams.append(CameraPose(x, y, z, pitch, yaw, zoom))
    return WorldState(cams, TargetState(tx, ty, 0.1, (tx, ty), z=tz), boxes, 0,
                      10.0, (0.05, 0.2), RngStream(0, 0))


class TestObserve:
    """observe against reference_observe, and the checks it keeps."""

    @settings(max_examples=400, deadline=None)
    @given(state=sight_layouts())
    def test_equals_reference(self, state):
        assert_same_outcome(observe(state), reference_observe(state))

    @pytest.mark.parametrize("camera, target, box, want", [
        # flat in x, grazing the face x = 0 of the box
        ((0.0, -5.0, 2.0), (0.0, 5.0, 0.9), Obstacle(0.0, -1.0, 1.0, 1.0, 2.5),
         Visibility.OCCLUDED),
        # flat in x, the camera's x inside the footprint, the box behind it
        ((0.5, -5.0, 2.0), (0.5, 5.0, 0.9), Obstacle(0.0, -8.0, 1.0, -6.0, 2.5),
         Visibility.VISIBLE),
        # flat in x and just outside the footprint
        ((1.5, -5.0, 2.0), (1.5, 5.0, 0.9), Obstacle(0.0, -1.0, 1.0, 1.0, 2.5),
         Visibility.VISIBLE),
        # flat in y, grazing the face y = 1
        ((-5.0, 1.0, 2.0), (5.0, 1.0, 0.9), Obstacle(-1.0, 0.0, 1.0, 1.0, 2.5),
         Visibility.OCCLUDED),
        # diagonal through the box's corner (0, 0)
        ((-2.0, -2.0, 0.9), (2.0, 2.0, 0.9), Obstacle(0.0, -1.0, 1.0, 0.0, 2.5),
         Visibility.OCCLUDED),
        # level along the box's top face
        ((-5.0, 0.5, 2.5), (5.0, 0.5, 2.5), Obstacle(-1.0, 0.0, 1.0, 1.0, 2.5),
         Visibility.OCCLUDED),
        # level just above the top face
        ((-5.0, 0.5, 2.6), (5.0, 0.5, 2.6), Obstacle(-1.0, 0.0, 1.0, 1.0, 2.5),
         Visibility.VISIBLE),
        # the camera inside the footprint in x and y, above the box
        ((0.5, 0.5, 3.0), (5.0, 0.5, 0.9), Obstacle(0.0, 0.0, 1.0, 1.0, 2.5),
         Visibility.VISIBLE),
        # the camera on the box's top face
        ((0.5, 0.5, 2.5), (5.0, 0.5, 0.9), Obstacle(0.0, 0.0, 1.0, 1.0, 2.5),
         Visibility.OCCLUDED),
    ])
    def test_edge_cases_equal_reference(self, camera, target, box, want):
        cam = CameraPose(*camera, *bearing_to(camera, target), 1.0)
        state = WorldState([cam, cam], TargetState(*target[:2], 0.1, target[:2],
                                                   z=target[2]),
                           [Obstacle(9.0, 9.0, 9.5, 9.5, 1.0), box], 0, 10.0,
                           (0.05, 0.2), RngStream(0, 0))
        outcome = observe(state)
        assert outcome.visibility == [want, want]
        assert_same_outcome(outcome, reference_observe(state))

    @pytest.mark.parametrize("zoom", [0.5, 0.999, 3.31, 10.0, math.inf, math.nan])
    def test_zoom_outside_range_raises(self, zoom):
        world = spawn_episode(EpisodeConfig(), 3)
        world.cameras[1] = dataclasses.replace(world.cameras[1], zoom=zoom)
        with pytest.raises(ValueError, match="zoom"):
            observe(world)

    def test_step_raises_for_a_zoom_outside_range(self):
        # apply_action clamps every zoom into range except NaN
        world = spawn_episode(EpisodeConfig(), 3)
        world.cameras[1] = dataclasses.replace(world.cameras[1], zoom=math.nan)
        with pytest.raises(ValueError, match="zoom"):
            step(world, [Action.KEEP_STILL] * 4)

    def test_camera_at_the_target_raises(self):
        world = spawn_episode(EpisodeConfig(), 2)
        tx, ty, tz = world.target.point()
        world.cameras[2] = dataclasses.replace(world.cameras[2], x=tx, y=ty, z=tz)
        with pytest.raises(ValueError, match="coincident"):
            observe(world)
        world.target.pause_steps_remaining = 5
        with pytest.raises(ValueError, match="coincident"):
            step(world, [Action.KEEP_STILL] * 4)


def aimed(world):
    """The world with every camera turned toward the target at zoom 1, so
    that each camera's visibility is decided by its sight line."""
    tp = world.target.point()
    world.cameras = [dataclasses.replace(c, zoom=1.0, **dict(zip(
        ("pitch_deg", "yaw_deg"), bearing_to((c.x, c.y, c.z), tp))))
        for c in world.cameras]
    return world


def fresh(state):
    """A WorldState with state's fields and no cached sight lines."""
    return WorldState(list(state.cameras), state.target, list(state.obstacles),
                      state.t, state.arena_half, state.speed_range, state.rng)


def moved(cams):
    """The cameras mirrored through the arena's center, still aimed inward."""
    return [dataclasses.replace(c, x=-c.x, y=-c.y) for c in cams]


def shifted(boxes):
    return [Obstacle(b.min_x + 1.5, b.min_y - 2.0, b.max_x + 1.5, b.max_y - 2.0,
                     b.height) for b in boxes]


def move_cameras(world):
    world.cameras = moved(world.cameras)
    return world


def move_one_camera_in_place(world):
    world.cameras[1] = moved(world.cameras)[1]
    return world


def replace_obstacles(world):
    world.obstacles = shifted(world.obstacles)
    return world


def edit_obstacles_in_place(world):
    world.obstacles[1:] = shifted(world.obstacles[1:])
    return world


def drop_obstacles_in_place(world):
    del world.obstacles[::2]
    return world


def replace_cameras(world):
    return dataclasses.replace(world, cameras=moved(world.cameras))


def replace_with_fewer_cameras(world):
    return dataclasses.replace(world, cameras=world.cameras[2:])


def replace_with_no_obstacles(world):
    return dataclasses.replace(world, obstacles=[])


class TestSightLines:
    """observe's per-episode sight-line constants: built once, carried by
    step, rebuilt when stale, and invisible to equality and repr."""

    @pytest.mark.parametrize("change", [
        move_cameras, move_one_camera_in_place, replace_obstacles,
        edit_obstacles_in_place, drop_obstacles_in_place, replace_cameras,
        replace_with_fewer_cameras, replace_with_no_obstacles])
    @pytest.mark.parametrize("seed", range(6))
    def test_stale_constants_are_rebuilt(self, change, seed):
        world = aimed(spawn_episode(EpisodeConfig(n_obstacles=15), seed))
        observe(world)
        changed = aimed(change(world))
        assert_same_outcome(observe(changed), outcome_fields(observe(fresh(changed))))

    def test_built_once_and_carried_by_step(self):
        world = spawn_episode(EpisodeConfig(), 7)
        assert world.sight is None
        observe(world)
        sight = world.sight
        assert sight is not None
        observe(world)
        assert world.sight is sight
        for _ in range(20):
            world = step(world, [Action.LEFT, Action.ZOOM_IN, Action.UP,
                                 Action.KEEP_STILL]).state
            assert world.sight is sight

    def test_take_no_part_in_equality_or_repr(self):
        world = spawn_episode(EpisodeConfig(), 4)
        plain = spawn_episode(EpisodeConfig(), 4)
        observe(world)
        assert world.sight is not None and plain.sight is None
        assert world == plain
        assert repr(world) == repr(plain)


class TestEpisodeProperties:
    """Random seeds, configs, controllers and switchers, 200 steps each."""

    PARAMS = nn.init_params(3)

    @settings(max_examples=12, deadline=None)
    @given(episode_configs(), st.integers(0, 2 ** 64 - 1),
           st.sampled_from(["virtual", "sv", "geometric", "learned"]),
           st.sampled_from(["oracle", "random:0.5", "noisy:0.2"]))
    def test_episode_invariants(self, tmp_path_factory, cfg, seed, controller,
                                switcher):
        obstacles = spawn_episode(cfg, seed).obstacles
        records = run_episode(cfg, controller, switcher, params=self.PARAMS,
                              seed=seed, steps=200)
        for rec in records:
            x, y, _ = rec.target
            for box in obstacles:
                assert not (box.min_x < x < box.max_x and box.min_y < y < box.max_y), \
                    f"target entered a footprint at t={rec.t}"
            for pose in rec.poses:
                pose.validate()
            assert all(-1.0 <= r <= 1.0 for r in rec.rewards)

        path = tmp_path_factory.mktemp("log") / "episode.jsonl"
        write_episode_log(records, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(records)
        for line in lines:
            json.loads(line, parse_constant=_reject_constant)

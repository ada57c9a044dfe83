"""The lockstep array world against the scalar one-episode path, bit for bit:
batch_step and batch_observe against E step and observe calls, the array
tracker and triangulation against virtual_tracker_action and triangulate,
batch_system_action (one system or all four in one batch) against
system_action, and compare_systems and run_lockstep against per-seed
run_episode summaries and records; and the scalar path's tracker fed the
previous observation against virtual_tracker_action on the true target."""
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from camtrack import evaluate, nn
from camtrack import world as world_module
from camtrack.config import ConfigError, EpisodeConfig
from camtrack.controllers import (
    batch_system_action,
    batch_tracker_action,
    batch_triangulate,
    system_action,
    tracker_action,
    triangulate,
    virtual_tracker_action,
)
from camtrack.evaluate import (
    SystemSummary,
    _mean_std,
    compare_systems,
    per_camera_mean_error,
    per_camera_success_rate,
    run_episode,
    run_lockstep,
)
from camtrack.geometry import CameraPose, Obstacle, bearing_to
from camtrack.io import write_comparison_csv
from camtrack.world import (
    Action,
    Visibility,
    BatchOutcome,
    batch_observe,
    batch_step,
    batch_world,
    observe,
    spawn_episode,
    step,
    visibility_of,
)

from test_world import episode_configs

PARAMS = nn.init_params(3)
ALL_SYSTEMS = ["virtual", "sv", "geometric", "learned"]


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def tweaked_episode(cfg, seed, level, aligned, pause):
    """spawn_episode with some cameras moved to the target's height (a
    sight line with dz = 0) and some onto the target's x or y (an
    axis-parallel sight line), the target paused so those lines persist."""
    world = spawn_episode(cfg, seed)
    tx, ty, _ = world.target.point()
    cams = []
    for i, cam in enumerate(world.cameras):
        if level[i % len(level)]:
            cam = dataclasses.replace(cam, z=0.9)
        axis = aligned[i % len(aligned)]
        if axis == 1:
            cam = dataclasses.replace(cam, x=tx)
        elif axis == 2:
            cam = dataclasses.replace(cam, y=ty)
        cams.append(cam)
    world.cameras = cams
    world.target.pause_steps_remaining = pause
    return world


def assert_outcome_equal(state, e, outcome, scalar_world, scalar=None):
    """Env e of a batch outcome equals the scalar state's own quantities and
    its scalar observation (observe's, unless the step's outcome is given)."""
    cams = scalar_world.cameras
    tp = scalar_world.target.point()
    assert bits([c.pitch_deg for c in cams]) == state.pitch[e].tobytes()
    assert bits([c.yaw_deg for c in cams]) == state.yaw[e].tobytes()
    assert bits([c.zoom for c in cams]) == state.zoom[e].tobytes()
    assert state.envs[e].target.point() == tp
    assert state.envs[e].t == scalar_world.t
    assert state.envs[e].rng == scalar_world.rng
    bearings = [bearing_to((c.x, c.y, c.z), tp) for c in cams]
    assert bits([pitch for pitch, _ in bearings]) == outcome.bearing_pitch[e].tobytes()
    assert bits([yaw for _, yaw in bearings]) == outcome.bearing_yaw[e].tobytes()
    assert bits([math.dist((c.x, c.y, c.z), tp) for c in cams]) \
        == outcome.distance[e].tobytes()
    visibility = [visibility_of(scalar_world, i) for i in range(len(cams))]
    if scalar is None:
        scalar = observe(scalar_world)
    assert scalar.visibility == visibility
    # the two masks tell all three values apart
    assert outcome.visible[e].tolist() == [v is Visibility.VISIBLE for v in visibility]
    assert outcome.in_view[e].tolist() \
        == [v is not Visibility.OUT_OF_VIEW for v in visibility]
    assert bits(scalar.reward) == outcome.reward[e].tobytes()
    assert bits(scalar.d_alpha) == outcome.d_alpha[e].tobytes()
    assert bits(scalar.d_beta) == outcome.d_beta[e].tobytes()
    assert bits(scalar.bearing_pitch) == outcome.bearing_pitch[e].tobytes()
    assert bits(scalar.bearing_yaw) == outcome.bearing_yaw[e].tobytes()
    assert bits(scalar.distance) == outcome.distance[e].tobytes()


class TestBatchStep:
    @settings(max_examples=60, deadline=None)
    @given(cfg=episode_configs(), seed=st.integers(0, 2 ** 64 - 40),
           n_envs=st.integers(1, 4), action_seed=st.integers(0, 2 ** 32 - 1),
           level=st.lists(st.booleans(), min_size=1, max_size=8),
           aligned=st.lists(st.sampled_from([0, 0, 1, 2]), min_size=1, max_size=8),
           pause=st.sampled_from([0, 5, 30]))
    def test_equals_scalar_steps(self, cfg, seed, n_envs, action_seed, level,
                                 aligned, pause):
        worlds = [tweaked_episode(cfg, seed + e, level, aligned, pause)
                  for e in range(n_envs)]
        state = batch_world([tweaked_episode(cfg, seed + e, level, aligned, pause)
                             for e in range(n_envs)])
        try:
            for world in worlds:
                for i in range(cfg.n_cameras):
                    visibility_of(world, i)
        except ValueError:
            # a camera sits on its target: the scalar path raises, so must this
            with pytest.raises(ValueError):
                batch_observe(state)
            return
        outcome = batch_observe(state)
        for e, world in enumerate(worlds):
            assert_outcome_equal(state, e, outcome, world)

        rng = np.random.default_rng(action_seed)
        for _ in range(25):
            actions = rng.integers(0, len(Action), size=(n_envs, cfg.n_cameras))
            try:
                outcomes = [step(w, [Action(a) for a in row])
                            for w, row in zip(worlds, actions.tolist())]
            except ValueError:
                with pytest.raises(ValueError):
                    batch_step(state, actions)
                return
            worlds = [o.state for o in outcomes]
            outcome = batch_step(state, actions)
            for e, (world, scalar) in enumerate(zip(worlds, outcomes)):
                assert_outcome_equal(state, e, outcome, world, scalar)

    def test_flat_sight_lines_are_exercised(self):
        # at the target's height and on its x, a camera looks along y only
        cfg = EpisodeConfig(n_obstacles=15)
        world = tweaked_episode(cfg, 4, [True], [1], 30)
        state = batch_world([tweaked_episode(cfg, 4, [True], [1], 30)])
        direction = np.array(world.target.point()) - state.origin[0]
        assert (direction[:, 0] == 0.0).all() and (direction[:, 2] == 0.0).all()
        outcome = batch_observe(state)
        assert_outcome_equal(state, 0, outcome, world)

    @pytest.mark.parametrize("camera, target, box", [
        # along y at x = 0, grazing the face x = 0 of the box
        ((0.0, -5.0, 0.9), (0.0, 5.0, 0.9), Obstacle(0.0, -1.0, 1.0, 1.0, 2.5)),
        # diagonal through the box's corner (0, 0): t_enter == t_exit == 0.5
        ((-2.0, -2.0, 0.9), (2.0, 2.0, 0.9), Obstacle(0.0, -1.0, 1.0, 0.0, 2.5)),
        # level sight line along the box's top face
        ((-5.0, 0.5, 2.5), (5.0, 0.5, 2.5), Obstacle(-1.0, 0.0, 1.0, 1.0, 2.5)),
    ])
    def test_touching_counts(self, camera, target, box):
        world = spawn_episode(EpisodeConfig(n_cameras=2, n_obstacles=1), 0)
        world.cameras = [CameraPose(*camera, *bearing_to(camera, target), 1.0)] * 2
        world.obstacles = [box]
        world.target.x, world.target.y, world.target.z = target
        assert visibility_of(world, 0) is Visibility.OCCLUDED
        state = batch_world([world])
        assert_outcome_equal(state, 0, batch_observe(state), world)

    @pytest.mark.parametrize("yaw", [-1e-20, -37.123456789012345, 180.0])
    def test_yaw_is_wrapped_only_when_turning(self, yaw):
        # wrap_angle(yaw + 0.0) rounds these negative yaws, so a camera that
        # does not turn must keep its yaw as it is
        world = spawn_episode(EpisodeConfig(n_cameras=2), 1)
        world.cameras = [dataclasses.replace(c, yaw_deg=yaw) for c in world.cameras]
        state = batch_world([world])
        actions = [Action.KEEP_STILL, Action.UP]
        scalar = step(world, actions)
        assert_outcome_equal(state, 0, batch_step(state, np.array([actions])),
                             scalar.state, scalar)
        assert state.yaw[0].tolist() == [yaw, yaw]

    def test_no_obstacles(self):
        cfg = EpisodeConfig(n_obstacles=0)
        world = spawn_episode(cfg, 9)
        state = batch_world([spawn_episode(cfg, 9)])
        assert state.box.shape == (2, 3, 1, 4, 0)
        for _ in range(50):
            actions = [Action.LEFT, Action.ZOOM_IN, Action.TOP_RIGHT, Action.KEEP_STILL]
            scalar = step(world, actions)
            world = scalar.state
            outcome = batch_step(state, np.array([actions]))
            assert_outcome_equal(state, 0, outcome, world, scalar)
        assert Visibility.OCCLUDED not in scalar.visibility

    def test_coincident_camera_and_target_raises(self):
        world = spawn_episode(EpisodeConfig(), 2)
        tx, ty, tz = world.target.point()
        world.cameras = [dataclasses.replace(world.cameras[0], x=tx, y=ty, z=tz)] \
            + world.cameras[1:]
        with pytest.raises(ValueError):
            visibility_of(world, 0)
        with pytest.raises(ValueError):
            batch_observe(batch_world([world]))

    def test_action_shape_checked(self):
        state = batch_world([spawn_episode(EpisodeConfig(), 0)])
        with pytest.raises(ValueError):
            batch_step(state, np.zeros((1, 3), dtype=int))

    def test_unequal_layouts_rejected(self):
        with pytest.raises(ValueError):
            batch_world([spawn_episode(EpisodeConfig(), 0),
                         spawn_episode(EpisodeConfig(n_obstacles=3), 0)])


def cut_short(world):
    """The world with its target's waypoint moved to the middle of the first
    obstacle's footprint, so that its first leg is cut short there."""
    box = world.obstacles[0]
    world.target.waypoint = ((box.min_x + box.max_x) / 2, (box.min_y + box.max_y) / 2)
    return world


def outcome_bytes(outcome):
    return [getattr(outcome, f.name).tobytes() for f in dataclasses.fields(BatchOutcome)]


class TestSharedWorlds:
    """Rows on one world against one world per row, bit for bit."""

    SEEDS = (5, 6, 7)

    def episodes(self, cfg):
        # seed 5 pauses first; seed 7's first leg ends at an obstacle's footprint
        return [tweaked_episode(cfg, 5, [False], [0], 12),
                tweaked_episode(cfg, 6, [True, False], [0, 2], 0),
                cut_short(tweaked_episode(cfg, 7, [False], [0], 0))]

    def test_shared_world_equals_one_world_per_row(self):
        """One seed under sv and under geometric: two rows on one world give
        every BatchOutcome array and every row's state of the same two rows
        on a world each, over 500 steps, through a pause and a cut-short
        leg."""
        cfg = EpisodeConfig()
        systems = ["sv"] * 3 + ["geometric"] * 3
        shared = batch_world(self.episodes(cfg), rows=[0, 1, 2, 0, 1, 2])
        separate = batch_world(self.episodes(cfg) + self.episodes(cfg))
        assert len(shared.envs) == 3 and len(separate.envs) == 6
        memories = [np.full((6, 4, 2), np.nan), np.full((6, 4, 2), np.nan)]
        outcomes = [batch_observe(shared), batch_observe(separate)]
        paused = cut = 0
        for _ in range(500):
            assert outcome_bytes(outcomes[0]) == outcome_bytes(outcomes[1])
            for e in range(6):
                env = shared.envs[shared.world[e]]
                assert env == separate.envs[e]
                assert env.target.point() == separate.envs[e].target.point()
            assert shared.pitch.tobytes() == separate.pitch.tobytes()
            assert shared.yaw.tobytes() == separate.yaw.tobytes()
            assert shared.zoom.tobytes() == separate.zoom.tobytes()
            before = [(env.target.point()[:2], env.target.waypoint)
                      for env in shared.envs]
            paused += sum(env.target.pause_steps_remaining > 0 for env in shared.envs)
            actions = [batch_system_action(state, outcome,
                                           outcome.visible.astype(int),
                                           systems, memory=memory)
                       for state, outcome, memory in zip((shared, separate), outcomes,
                                                         memories)]
            assert actions[0].tolist() == actions[1].tolist()
            outcomes = [batch_step(shared, actions[0]), batch_step(separate, actions[1])]
            # a new waypoint although the old one was not reached: cut short
            cut += sum(waypoint != env.target.waypoint
                       and env.target.point()[:2] != waypoint
                       for (_, waypoint), env in zip(before, shared.envs))
        assert outcome_bytes(outcomes[0]) == outcome_bytes(outcomes[1])
        assert paused >= 12 and cut >= 1

    def test_stepping_leaves_the_given_worlds_as_spawned(self):
        """The batch steps copies of the episodes' rng streams: after 300
        steps, in which every world's stream has drawn, each given world
        still equals a fresh spawn of its seed."""
        cfg = EpisodeConfig()
        worlds = [spawn_episode(cfg, seed) for seed in self.SEEDS]
        state = batch_world(worlds)
        for _ in range(300):
            batch_step(state, np.full(state.pitch.shape, int(Action.KEEP_STILL)))
        fresh = [spawn_episode(cfg, seed) for seed in self.SEEDS]
        assert all(env.rng != world.rng for env, world in zip(state.envs, fresh))
        assert worlds == fresh

    @pytest.mark.parametrize("rows", [[], [1], [-1], [[0]], [0.0]])
    def test_rows_must_index_the_episodes(self, rows):
        with pytest.raises(ValueError, match="rows"):
            batch_world([spawn_episode(EpisodeConfig(), 0)], rows=rows)

    def test_compare_walks_each_seed_once(self, monkeypatch):
        """Two systems over n seeds: each chunk spawns each of its seeds once
        and walks each seed's target once per step."""
        counts = {"spawn": 0, "advance": 0}
        chunks = []
        real_spawn = evaluate.spawn_episode
        real_advance = world_module.advance_target
        real_lockstep = evaluate.run_lockstep

        def counting_spawn(config, seed):
            counts["spawn"] += 1
            return real_spawn(config, seed)

        def counting_advance(state):
            counts["advance"] += 1
            return real_advance(state)

        def counting_lockstep(config, systems, seeds, *args, **kwargs):
            counts.update(spawn=0, advance=0)
            result = real_lockstep(config, systems, seeds, *args, **kwargs)
            chunks.append((len(seeds), counts["spawn"], counts["advance"]))
            return result

        monkeypatch.setattr(evaluate, "spawn_episode", counting_spawn)
        monkeypatch.setattr(world_module, "advance_target", counting_advance)
        monkeypatch.setattr(evaluate, "run_lockstep", counting_lockstep)
        chunk = evaluate.LOCKSTEP_EPISODES // 2
        compare_systems(EpisodeConfig(), ["sv", "geometric"], chunk + 3, steps=6)
        assert chunks == [(chunk, chunk, chunk * 6), (3, 3, 3 * 6)]


def tracker_inputs(poses, targets):
    """The array tracker's inputs for camera poses and their targets."""
    bearings = [bearing_to((p.x, p.y, p.z), t) for p, t in zip(poses, targets)]
    return (np.array([p.pitch_deg for p in poses]), np.array([p.yaw_deg for p in poses]),
            np.array([p.zoom for p in poses]), np.array([pitch for pitch, _ in bearings]),
            np.array([yaw for _, yaw in bearings]),
            np.array([math.dist((p.x, p.y, p.z), t) for p, t in zip(poses, targets)]))


class TestBatchTracker:
    def test_equals_scalar_on_random_poses(self):
        rng = np.random.default_rng(5)
        poses = [CameraPose(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0.5, 4),
                            rng.uniform(-60, 60), rng.uniform(-179.9, 180),
                            rng.uniform(1, 3.3)) for _ in range(5000)]
        targets = [(rng.uniform(-10, 10), rng.uniform(-10, 10), 0.9) for _ in poses]
        got = batch_tracker_action(*tracker_inputs(poses, targets)).tolist()
        assert got == [virtual_tracker_action(p, t) for p, t in zip(poses, targets)]

    def test_exact_ties_go_to_the_lowest_index(self):
        # bearing exactly (0, 0) and desired zoom exactly 2: half-step pitch
        # and yaw offsets tie two or four actions exactly
        offsets = [-7.5, -5.0, -2.5, 0.0, 2.5, 5.0, 7.5]
        poses = [CameraPose(0.0, 0.0, 0.9, p, y, z) for p in offsets for y in offsets
                 for z in (1.95, 2.0, 2.05)]
        targets = [(12.0, 0.0, 0.9)] * len(poses)
        got = batch_tracker_action(*tracker_inputs(poses, targets)).tolist()
        want = [virtual_tracker_action(p, t) for p, t in zip(poses, targets)]
        assert got == want
        assert Action.KEEP_STILL in want and Action.LEFT in want


def random_step(rng, n_cams, parallel=False):
    """One step's camera poses and labels, drawn camera by camera."""
    yaw0 = rng.uniform(-180, 180)
    poses, labels = [], []
    for _ in range(n_cams):
        poses.append(CameraPose(rng.uniform(-10, 10), rng.uniform(-10, 10), 2.5,
                                rng.uniform(-60, 60),
                                yaw0 if parallel else rng.uniform(-179.9, 180), 1.0))
        labels.append(int(rng.random() < 0.6))
    return poses, labels


def step_arrays(groups):
    """Origins (G, C, 3), pitches, yaws and labels (G, C) of G steps."""
    origin = np.array([[(p.x, p.y, p.z) for p in poses] for poses, _ in groups])
    pitch = np.array([[p.pitch_deg for p in poses] for poses, _ in groups])
    yaw = np.array([[p.yaw_deg for p in poses] for poses, _ in groups])
    labels = np.array([labels for _, labels in groups])
    return origin, pitch, yaw, labels


class TestPoseTuples:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 8), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1.0, 7.5, 10.0, 23.3]))
    def test_array_builder_equals_scalar_builder(self, n_groups, n_cams, seed,
                                                 arena_half):
        rng = np.random.default_rng(seed)
        groups = [random_step(rng, n_cams) for _ in range(n_groups)]
        # yaws on the seam and exact multiples of the rotation step
        seam = [-180.0, -1e-20, 0.0, 90.0, 180.0, -37.123456789012345]
        poses = groups[0][0]
        poses[0] = dataclasses.replace(poses[0], yaw_deg=seam[seed % len(seam)])
        origin, pitch, yaw, labels = step_arrays(groups)
        got = nn.pose_tuples(origin, pitch, yaw, labels, arena_half)
        assert got.shape == (n_groups, n_cams, nn.RAW_SIZE)
        want = np.stack([nn.raw_tuples(poses, labels, arena_half)
                         for poses, labels in groups])
        assert got.tobytes() == want.tobytes()


class TestBatchTriangulate:
    @pytest.mark.parametrize("n_cams", [2, 3, 4, 8])
    def test_equals_scalar(self, n_cams):
        rng = np.random.default_rng(n_cams)
        groups = [random_step(rng, n_cams, parallel=k % 7 == 0) for k in range(1500)]
        origin, _, yaw, labels = step_arrays(groups)
        estimate = batch_triangulate(origin, yaw, labels == 1)
        results = [triangulate(poses, labels) for poses, labels in groups]
        ok = ~np.isnan(estimate)
        assert ok.tolist() == [[r.ok] * 2 for r in results]
        for est, r in zip(estimate.tolist(), results):
            if r.ok:
                assert bits(est) == bits(r.estimate)
        assert 0 < ok[:, 0].sum() < len(groups)

    def test_seam_yaws_and_few_contributors(self):
        # at yaw 0 and -0 a01 = -cos * sin is -0.0 and +0.0; at +-90 and 180
        # cos or sin is a rounding residue of pi / 2 or pi
        seams = [0.0, -0.0, 90.0, -90.0, 180.0]
        rng = np.random.default_rng(4)
        groups = []
        for yaws in itertools.product(seams, repeat=3):
            for labels in itertools.product((0, 1), repeat=3):
                poses = [CameraPose(rng.uniform(-10, 10), rng.uniform(-10, 10), 2.5,
                                    0.0, yaw, 1.0) for yaw in yaws]
                groups.append((poses, list(labels)))
        origin, _, yaw, labels = step_arrays(groups)
        estimate = batch_triangulate(origin, yaw, labels == 1)
        results = [triangulate(poses, labels) for poses, labels in groups]
        ok = ~np.isnan(estimate)
        assert ok.tolist() == [[r.ok] * 2 for r in results]
        for est, r, row in zip(estimate.tolist(), results, labels.tolist()):
            if r.ok:
                assert bits(est) == bits(r.estimate)
            if sum(row) < 2:
                assert not r.ok
        assert 0 < ok[:, 0].sum() < len(groups)


class TestBatchSystemAction:
    @pytest.mark.parametrize("kind", ["geometric", "learned"])
    def test_equals_system_action_over_steps(self, kind):
        cfg = EpisodeConfig(n_cameras=5)
        seeds = range(6)
        worlds = [spawn_episode(cfg, s) for s in seeds]
        state = batch_world([spawn_episode(cfg, s) for s in seeds])
        memories = np.full(state.pitch.shape + (2,), np.nan)
        memory = np.full(state.pitch.shape + (2,), np.nan)
        outcome = batch_observe(state)
        rng = np.random.default_rng(1)
        for _ in range(60):
            labels = (rng.random(state.pitch.shape) < 0.7).astype(int)
            got = batch_system_action(state, outcome, labels, [kind] * len(seeds),
                                      params=PARAMS, memory=memory)
            want = [system_action(observe(w), row, kind, params=PARAMS, memories=mems)
                    for w, row, mems in zip(worlds, labels.tolist(), memories)]
            assert got.tolist() == want
            worlds = [step(w, a).state for w, a in zip(worlds, want)]
            outcome = batch_step(state, got)
        # the same estimates, and NaN in the same rows
        assert memory.tobytes() == memories.tobytes()
        assert np.isnan(memory).all() == (kind == "learned")

    def test_mixed_systems_equal_their_scalar_rules(self):
        """One batch of all four systems: each episode's actions equal its
        own system's system_action on its own observation, step after step."""
        cfg = EpisodeConfig(n_cameras=5, n_obstacles=12)
        systems = ["virtual", "sv", "geometric", "learned", "geometric", "sv",
                   "learned", "virtual"]
        worlds = [spawn_episode(cfg, s) for s in range(len(systems))]
        state = batch_world([spawn_episode(cfg, s) for s in range(len(systems))])
        memories = np.full(state.pitch.shape + (2,), np.nan)
        memory = np.full(state.pitch.shape + (2,), np.nan)
        outcome = batch_observe(state)
        rng = np.random.default_rng(2)
        kept_still = 0
        for _ in range(60):
            labels = (rng.random(state.pitch.shape) < 0.7).astype(int)
            got = batch_system_action(state, outcome, labels, systems, params=PARAMS,
                                      memory=memory)
            want = [system_action(observe(w), row, name, params=PARAMS, memories=mems)
                    for w, row, mems, name in zip(worlds, labels.tolist(), memories,
                                                  systems)]
            assert got.tolist() == want
            # the sv episodes (rows 1 and 5) keep these cameras still
            kept_still += int((~outcome.visible[[1, 5]]).sum())
            worlds = [step(w, a).state for w, a in zip(worlds, want)]
            outcome = batch_step(state, got)
        assert kept_still > 0
        assert memory.tobytes() == memories.tobytes()
        # only geometric episodes remember an estimate, and a stored one is
        # finite
        stored = memory[[2, 4]]
        assert np.isfinite(stored[~np.isnan(stored[..., 0])]).all()
        assert not np.isnan(stored).all()
        assert np.isnan(memory[[0, 1, 3, 5, 6, 7]]).all()

    @pytest.mark.parametrize("kind", ALL_SYSTEMS)
    @pytest.mark.parametrize("bad", [2, -1])
    def test_labels_other_than_zero_and_one_rejected(self, kind, bad):
        """system_action's label check: a label other than 0 and 1 raises,
        naming it, before any memory row is written (the second episode's
        two label-0 cameras would store its triangulation)."""
        state = batch_world([spawn_episode(EpisodeConfig(), s) for s in (0, 1)])
        labels = np.array([[bad, 0, 1, 1], [0, 0, 1, 1]])
        memory = np.full((2, 4, 2), np.nan)
        memory[0, 1] = (1.0, 2.0)
        before = memory.tobytes()
        with pytest.raises(ValueError) as raised:
            batch_system_action(state, batch_observe(state), labels, [kind] * 2,
                                params=PARAMS, memory=memory)
        assert str(raised.value) == f"labels must be 0 or 1, got [{bad}]"
        assert memory.tobytes() == before

    def test_unknown_kind_rejected(self):
        state = batch_world([spawn_episode(EpisodeConfig(), s) for s in (0, 1)])
        for systems in (["pose", "pose"], ["sv", "Geometric"]):
            with pytest.raises(ValueError, match="unknown system"):
                batch_system_action(state, batch_observe(state), np.zeros((2, 4), int),
                                    systems, params=PARAMS,
                                    memory=np.full((2, 4, 2), np.nan))

    @pytest.mark.parametrize("systems", [["sv"], ["sv", "sv", "sv"]])
    def test_one_system_per_episode_required(self, systems):
        state = batch_world([spawn_episode(EpisodeConfig(), s) for s in (0, 1)])
        with pytest.raises(ValueError, match="one system per episode"):
            batch_system_action(state, batch_observe(state), np.zeros((2, 4), int),
                                systems)

    @pytest.mark.parametrize("system", ["geometric", "learned"])
    def test_pose_controller_inputs_required(self, system):
        state = batch_world([spawn_episode(EpisodeConfig(), s) for s in (0, 1)])
        with pytest.raises(ValueError):
            batch_system_action(state, batch_observe(state), np.zeros((2, 4), int),
                                ["sv", system])


class TestCarriedBearings:
    @pytest.mark.parametrize("cfg", [EpisodeConfig(), EpisodeConfig(n_cameras=2,
                                                                     n_obstacles=15)])
    @pytest.mark.parametrize("system, switcher", [("sv", "noisy:0.2"),
                                                  ("learned", "random:0.5"),
                                                  ("geometric", "oracle")])
    def test_tracker_reuses_the_previous_observation(self, monkeypatch, cfg, system,
                                                     switcher):
        """On every tracking camera-step of run_episode (label 1, or visible
        for sv), tracker_action fed the previous observation's bearing and
        distance equals virtual_tracker_action on the true target, and is
        the action the episode took."""
        for seed in (0, 1, 2):
            stepped, outcomes = [], []
            real_step = evaluate.step

            def recording_step(state, actions):
                stepped.append(state)
                outcomes.append(real_step(state, actions))
                return outcomes[-1]

            monkeypatch.setattr(evaluate, "step", recording_step)
            records = run_episode(cfg, system, switcher, params=PARAMS, seed=seed,
                                  steps=150)
            monkeypatch.undo()
            carried = [observe(spawn_episode(cfg, seed))] + outcomes[:-1]
            checked = 0
            for state, previous, record in zip(stepped, carried, records):
                tp = state.target.point()
                tracking = ([v is Visibility.VISIBLE for v in previous.visibility]
                            if system == "sv" else [g == 1 for g in record.labels])
                for i, pose in enumerate(state.cameras):
                    if not tracking[i]:
                        continue
                    got = tracker_action(pose, previous.bearing_pitch[i],
                                         previous.bearing_yaw[i], previous.distance[i])
                    assert got == virtual_tracker_action(pose, tp)
                    assert record.actions[i] == got
                    checked += 1
            assert checked > 100


def reference_summaries(cfg, name, n_seeds, steps, params, switcher, base_seed):
    """compare_systems as per-seed run_episode calls."""
    episode_me, episode_sr = [], []
    for k in range(n_seeds):
        records = run_episode(cfg, name, switcher=switcher, params=params,
                              seed=base_seed + k, steps=steps)
        episode_me.append(per_camera_mean_error(records))
        episode_sr.append(per_camera_success_rate(records))
    n_cams = cfg.n_cameras
    return SystemSummary(
        name,
        [_mean_std([ep[i] for ep in episode_me]) for i in range(n_cams)],
        [_mean_std([ep[i] for ep in episode_sr]) for i in range(n_cams)],
        _mean_std([math.fsum(ep) / n_cams for ep in episode_me]),
        _mean_std([math.fsum(ep) / n_cams for ep in episode_sr]))


class TestCompareLockstep:
    @pytest.mark.parametrize("switcher", ["oracle", "random:0.5", "noisy:0.2"])
    @pytest.mark.parametrize("system", ["virtual", "sv", "geometric", "learned"])
    def test_equals_per_seed_episodes(self, system, switcher):
        cfg = EpisodeConfig()
        got = compare_systems(cfg, [system], 4, steps=80, params=PARAMS,
                              switcher=switcher, base_seed=21)[0]
        want = reference_summaries(cfg, system, 4, 80, PARAMS, switcher, 21)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("cfg", [EpisodeConfig(n_cameras=8, n_obstacles=15),
                                     EpisodeConfig(n_cameras=2, n_obstacles=0)])
    @pytest.mark.parametrize("systems, switcher", [
        (["sv"], "noisy:0.2"), (["geometric"], "noisy:0.2"), (["learned"], "noisy:0.2"),
        (ALL_SYSTEMS, "oracle"), (ALL_SYSTEMS, "random:0.5"), (ALL_SYSTEMS, "noisy:0.2"),
    ], ids=["sv", "geometric", "learned", "all-oracle", "all-random:0.5",
            "all-noisy:0.2"])
    def test_lockstep_steps_equal_records(self, cfg, systems, switcher):
        """Every (system, seed) row of one lockstep batch, system-major,
        equals that episode's run_episode records bit for bit."""
        seeds = [3, 40, 41]
        error, in_view = run_lockstep(cfg, systems, seeds, switcher=switcher,
                                      params=PARAMS, steps=120)
        assert error.shape == in_view.shape == (120, len(systems) * 3, cfg.n_cameras)
        for s, system in enumerate(systems):
            for k, seed in enumerate(seeds):
                records = run_episode(cfg, system, switcher, params=PARAMS,
                                      seed=seed, steps=120)
                row = s * len(seeds) + k
                assert bits([[(a + b) * 0.5 for a, b in zip(r.d_alpha, r.d_beta)]
                             for r in records]) == error[:, row].tobytes()
                assert [[v is not Visibility.OUT_OF_VIEW for v in r.visibility]
                        for r in records] == in_view[:, row].tolist()

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            compare_systems(EpisodeConfig(), ["sv"], 2, steps=0)

    def test_run_lockstep_steps_bounds(self):
        error, in_view = run_lockstep(EpisodeConfig(), ["sv"], [0, 1], "random:0.5",
                                      steps=0)
        assert error.shape == in_view.shape == (0, 2, 4)
        error, _ = run_lockstep(EpisodeConfig(), ["sv", "virtual"], [0, 1], steps=0)
        assert error.shape == (0, 4, 4)
        with pytest.raises(ValueError, match="steps must be >= 0"):
            run_lockstep(EpisodeConfig(), ["sv"], [0, 1], steps=-1)

    def test_repeated_system_rejected(self):
        """A repeated system would roll the same episodes twice and grow the
        batch; compare_systems and run_lockstep reject it before any step."""
        with pytest.raises(ValueError, match="repeated system"):
            compare_systems(EpisodeConfig(), ["sv", "geometric", "sv"], 2, steps=5)
        with pytest.raises(ValueError, match="repeated system"):
            run_lockstep(EpisodeConfig(), ["geometric", "geometric"], [0], steps=5)

    def test_empty_system_list_rejected(self):
        with pytest.raises(ValueError, match="at least one system"):
            compare_systems(EpisodeConfig(), [], 2, steps=5)
        with pytest.raises(ValueError, match="at least one system"):
            run_lockstep(EpisodeConfig(), [], [0], steps=5)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            run_lockstep(EpisodeConfig(), ["sv"], [], steps=5)
        with pytest.raises(ValueError, match="at least one episode"):
            batch_world([])

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_u64_rejected(self, seed):
        """The rng streams would reduce such a seed modulo 2**64 and replay
        another seed's episode."""
        with pytest.raises(ConfigError, match="unsigned 64-bit"):
            run_episode(EpisodeConfig(), "sv", seed=seed, steps=2)
        with pytest.raises(ConfigError, match="unsigned 64-bit"):
            run_lockstep(EpisodeConfig(), ["sv"], [0, seed], steps=2)

    @pytest.mark.parametrize("base_seed, n_seeds", [(-1, 1), (-1, 3), (2 ** 64, 1),
                                                    (2 ** 64 - 2, 3)])
    def test_compare_seeds_checked_before_any_chunk(self, base_seed, n_seeds,
                                                    monkeypatch):
        """compare_systems rejects a first or last seed outside [0, 2**64)
        before it rolls the first chunk."""
        def no_chunk(*args, **kwargs):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(evaluate, "run_lockstep", no_chunk)
        with pytest.raises(ConfigError, match="unsigned 64-bit"):
            compare_systems(EpisodeConfig(), ["sv"], n_seeds, steps=2,
                            base_seed=base_seed)

    def test_seed_chunks_write_the_one_chunk_csv(self, tmp_path, monkeypatch):
        """More episodes than one lockstep batch: every run_lockstep call holds
        at most LOCKSTEP_EPISODES (system, seed) rows, one call per chunk of
        seeds, and the comparison CSV is byte for byte the one a single
        batch of all rows gives."""
        n_seeds = evaluate.LOCKSTEP_EPISODES + 5
        systems = ["sv", "geometric", "learned"]
        rows = []
        real_lockstep = evaluate.run_lockstep

        def counting(config, systems, seeds, *args, **kwargs):
            rows.append(len(systems) * len(seeds))
            return real_lockstep(config, systems, seeds, *args, **kwargs)

        monkeypatch.setattr(evaluate, "run_lockstep", counting)
        chunked = tmp_path / "chunked.csv"
        write_comparison_csv(compare_systems(EpisodeConfig(), systems, n_seeds,
                                             steps=30, params=PARAMS,
                                             switcher="noisy:0.2", base_seed=7),
                             chunked)
        chunk = evaluate.LOCKSTEP_EPISODES // len(systems)
        assert len(rows) == math.ceil(n_seeds / chunk) > 1
        assert max(rows) <= evaluate.LOCKSTEP_EPISODES
        assert sum(rows) == n_seeds * len(systems)

        rows.clear()
        monkeypatch.setattr(evaluate, "LOCKSTEP_EPISODES", n_seeds * len(systems))
        whole = tmp_path / "whole.csv"
        write_comparison_csv(compare_systems(EpisodeConfig(), systems, n_seeds,
                                             steps=30, params=PARAMS,
                                             switcher="noisy:0.2", base_seed=7),
                             whole)
        assert rows == [n_seeds * len(systems)]
        assert chunked.read_bytes() == whole.read_bytes()

    def test_peak_memory_is_flat_in_the_seed_count(self):
        """Doubling the seeds past two chunks barely moves the traced peak,
        for one system and for two in one batch, and with a switcher whose
        draws each chunk holds; one lockstep batch of all seeds would double
        it."""
        for systems, switcher in ((["sv"], "oracle"), (["sv", "geometric"], "oracle"),
                                  (["sv"], "random:0.5")):
            peaks = []
            for n_seeds in (2 * evaluate.LOCKSTEP_EPISODES,
                            4 * evaluate.LOCKSTEP_EPISODES):
                tracemalloc.start()
                try:
                    compare_systems(EpisodeConfig(), systems, n_seeds, steps=10,
                                    switcher=switcher)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] < 1.25 * peaks[0], (systems, switcher)

    def test_learned_requires_params(self):
        with pytest.raises(ValueError):
            compare_systems(EpisodeConfig(), ["learned"], 2, steps=5)

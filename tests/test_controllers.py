"""Controllers: greedy tracker, triangulation, switchers, system dispatch."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from camtrack import nn
from camtrack.config import EpisodeConfig
from camtrack.controllers import (
    SYSTEMS,
    TRIANGULATION_MAX_CONDITION,
    batch_system_action,
    batch_tracker_action,
    geometric_pose_action,
    learned_pose_action,
    noisy_switch,
    oracle_switch,
    random_switch,
    sv_baseline_action,
    system_action,
    tracker_action,
    triangulate,
    virtual_tracker_action,
)
from camtrack.geometry import CameraPose, angle_error, bearing_to, wrap_angle
from camtrack.rng import RngStream
from camtrack.world import (
    ACTION_DELTAS,
    ALPHA_MAX_DEG,
    BETA_MAX_DEG,
    ZOOM_ERROR_NORM,
    Action,
    TargetState,
    Visibility,
    WorldState,
    apply_action,
    batch_observe,
    batch_world,
    desired_zoom,
    observe,
    spawn_episode,
)

from test_nn import rand_params, softmax


def tracker_objective(pose, target):
    d_alpha, d_beta = angle_error(pose, target)
    dist = math.dist((pose.x, pose.y, pose.z), target)
    d_xi = abs(pose.zoom - desired_zoom(dist))
    return d_alpha / ALPHA_MAX_DEG + d_beta / BETA_MAX_DEG + d_xi / ZOOM_ERROR_NORM


def naive_tracker(pose, target):
    """Reference implementation: literal enumeration through apply_action."""
    best, best_score = None, math.inf
    for a in Action:
        score = tracker_objective(apply_action(pose, a), target)
        if score < best_score:
            best, best_score = a, score
    return best


def brute_force_scores(pose, target):
    """Score of each of the 11 actions, each computed in full on its own,
    with the tracker's clamping and summation order."""
    b_pitch, b_yaw = bearing_to((pose.x, pose.y, pose.z), target)
    xi_star = desired_zoom(math.dist((pose.x, pose.y, pose.z), target))
    scores = []
    for dp, dy, dz in ACTION_DELTAS:
        pitch = min(max(pose.pitch_deg + dp, -60.0), 60.0)
        zoom = min(max(pose.zoom + dz, 1.0), 3.3)
        d_alpha = abs(pitch - b_pitch)
        d_beta = abs(wrap_angle(pose.yaw_deg + dy - b_yaw))
        scores.append(d_alpha / ALPHA_MAX_DEG + d_beta / BETA_MAX_DEG
                      + abs(zoom - xi_star) / ZOOM_ERROR_NORM)
    return scores


def brute_force_tracker(pose, target):
    """First action with a strictly lowest score."""
    best, best_score = 0, math.inf
    for idx, score in enumerate(brute_force_scores(pose, target)):
        if score < best_score:
            best, best_score = idx, score
    return Action(best)


def target_at(pose, d_pitch, d_yaw, distance=12.0):
    """A target offset from the camera's current aim by (d_pitch, d_yaw)."""
    pitch = math.radians(pose.pitch_deg + d_pitch)
    yaw = math.radians(pose.yaw_deg + d_yaw)
    return (pose.x + distance * math.cos(pitch) * math.cos(yaw),
            pose.y + distance * math.cos(pitch) * math.sin(yaw),
            pose.z + distance * math.sin(pitch))


def sight(pose, target):
    """The bearing pitch, bearing yaw and distance from the camera to the target."""
    b_pitch, b_yaw = bearing_to((pose.x, pose.y, pose.z), target)
    return b_pitch, b_yaw, math.dist((pose.x, pose.y, pose.z), target)


def observed(poses, target, arena_half=10.0):
    """world.observe's outcome for the cameras' poses and a target point, in
    an arena of the given half-size without obstacles."""
    x, y, z = target
    world = WorldState(list(poses), TargetState(x, y, 0.0, (x, y), z=z),
                       [], 0, arena_half, (0.5, 1.5), RngStream(0, 0))
    return observe(world)


class TestVirtualTracker:
    def test_aligned_keeps_still(self):
        pose = CameraPose(0, 0, 2, 0.0, 0.0, 2.0)
        assert virtual_tracker_action(pose, target_at(pose, 0, 0)) == Action.KEEP_STILL

    def test_target_right(self):
        pose = CameraPose(0, 0, 2, 0.0, 0.0, 2.0)
        assert virtual_tracker_action(pose, target_at(pose, 0, 12.0)) == Action.RIGHT

    def test_target_up_left(self):
        pose = CameraPose(0, 0, 2, 0.0, 0.0, 2.0)
        assert virtual_tracker_action(pose, target_at(pose, 7.0, -7.0)) == Action.TOP_LEFT

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(3000):
            pose = CameraPose(rng.uniform(-10, 10), rng.uniform(-10, 10),
                              rng.uniform(2, 3), rng.uniform(-60, 60),
                              rng.uniform(-179.9, 180), rng.uniform(1, 3.3))
            target = (rng.uniform(-10, 10), rng.uniform(-10, 10), 0.9)
            assert virtual_tracker_action(pose, target) == naive_tracker(pose, target)

    @settings(max_examples=3000, deadline=None)
    @given(pitch=st.one_of(st.sampled_from([-60.0, -57.5, -55.0, 0.0, 55.0, 57.5, 60.0]),
                           st.floats(-60.0, 60.0)),
           yaw=st.one_of(st.sampled_from([180.0, 179.999, 177.5, 175.0, -175.0,
                                          -177.5, -179.999, 0.0]),
                         st.floats(-180.0, 180.0, exclude_min=True)),
           zoom=st.one_of(st.sampled_from([1.0, 1.05, 1.1, 3.2, 3.25, 3.3]),
                          st.floats(1.0, 3.3)),
           position=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
                              st.floats(2.0, 3.0)),
           target=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
                            st.sampled_from([0.9, 2.5])))
    def test_matches_brute_force_reference(self, pitch, yaw, zoom, position, target):
        pose = CameraPose(*position, pitch, yaw, zoom)
        if math.dist(position, target) == 0.0:
            return
        assert virtual_tracker_action(pose, target) == brute_force_tracker(pose, target)

    @settings(max_examples=3000, deadline=None)
    @given(pitch=st.floats(-60.0, 60.0), yaw=st.floats(-180.0, 180.0, exclude_min=True),
           zoom=st.sampled_from([1.0, 1.5, 2.05, 3.3]),
           d_pitch=st.sampled_from([-7.5, -2.5, 0.0, 2.5, 7.5]),
           d_yaw=st.sampled_from([-182.5, -7.5, -2.5, 0.0, 2.5, 7.5, 177.5]),
           distance=st.sampled_from([5.0, 12.0, 12.3, 12.6]))
    def test_matches_brute_force_reference_near_ties(self, pitch, yaw, zoom,
                                                     d_pitch, d_yaw, distance):
        # offsets of half a rotation step (and zooms half a zoom step from
        # the desired one) put two actions' scores within rounding of each
        # other, so the winner depends on every operation's rounding
        pose = CameraPose(0.0, 0.0, 2.5, pitch, yaw, zoom)
        target = target_at(pose, d_pitch, d_yaw, distance)
        assert virtual_tracker_action(pose, target) == brute_force_tracker(pose, target)

    @pytest.mark.parametrize("pitch, yaw, want, tied", [
        (2.5, 0.0, Action.KEEP_STILL, Action.DOWN),
        (0.0, 2.5, Action.KEEP_STILL, Action.LEFT),
        (2.5, 5.0, Action.LEFT, Action.BOTTOM_LEFT),
        (-2.5, -5.0, Action.RIGHT, Action.TOP_RIGHT),
    ])
    def test_exact_ties_go_to_the_lowest_index(self, pitch, yaw, want, tied):
        # target straight along +x at the camera's height and 12 m away, so
        # its bearing is exactly (0, 0) and the desired zoom exactly 2
        pose = CameraPose(0.0, 0.0, 0.9, pitch, yaw, 2.0)
        target = (12.0, 0.0, 0.9)
        scores = brute_force_scores(pose, target)
        assert scores[want] == scores[tied] == min(scores)
        assert want < tied
        assert virtual_tracker_action(pose, target) == want

    def test_never_worsens_objective(self):
        rng = np.random.default_rng(29)
        for _ in range(2000):
            pose = CameraPose(rng.uniform(-10, 10), rng.uniform(-10, 10),
                              rng.uniform(2, 3), rng.uniform(-60, 60),
                              rng.uniform(-179.9, 180), rng.uniform(1, 3.3))
            target = (rng.uniform(-10, 10), rng.uniform(-10, 10), 0.9)
            a = virtual_tracker_action(pose, target)
            assert (tracker_objective(apply_action(pose, a), target)
                    <= tracker_objective(pose, target) + 1e-12)

    def test_converges_within_72_steps(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            pose = CameraPose(rng.uniform(-10, 10), rng.uniform(-10, 10),
                              rng.uniform(2, 3), rng.uniform(-60, 60),
                              rng.uniform(-179.9, 180), rng.uniform(1, 3.3))
            target = (rng.uniform(-9, 9), rng.uniform(-9, 9), 0.9)
            for _ in range(72):
                pose = apply_action(pose, virtual_tracker_action(pose, target))
            _, d_beta = angle_error(pose, target)
            assert d_beta < 2.5

    def test_poses_beyond_the_limits_match_naive_enumeration(self):
        """Pitches and zooms beyond their limits, so that every clamp of the
        unmoved, raised, lowered, zoomed-in and zoomed-out candidates acts:
        tracker_action and batch_tracker_action give the argmin over
        apply_action's 11 results."""
        rng = np.random.default_rng(67)
        n = 9600
        pitch = rng.choice([-1.0, 1.0], n) * rng.uniform(57.5, 75.0, n)
        yaw = rng.uniform(-179.9, 180.0, n)
        zoom = rng.uniform(0.8, 3.5, n)
        assert pitch.max() > 65.0 and pitch.min() < -65.0
        assert zoom.max() > 3.4 and zoom.min() < 0.9
        position = np.column_stack([rng.uniform(-10, 10, (n, 2)), rng.uniform(2, 3, n)])
        target = np.column_stack([rng.uniform(-10, 10, (n, 2)), np.full(n, 0.9)])
        poses = [CameraPose(*xyz, p, y, z) for xyz, p, y, z in zip(
            position.tolist(), pitch.tolist(), yaw.tolist(), zoom.tolist())]
        targets = [tuple(t) for t in target.tolist()]
        want = [naive_tracker(pose, t) for pose, t in zip(poses, targets)]
        sights = [sight(pose, t) for pose, t in zip(poses, targets)]
        assert [tracker_action(pose, *s) for pose, s in zip(poses, sights)] == want
        b_pitch, b_yaw, distance = np.array(sights).T
        assert batch_tracker_action(pitch, yaw, zoom, b_pitch, b_yaw,
                                    distance).tolist() == want


def grid_refine_minimizer(poses, labels, span=25.0, rounds=35, grid=21):
    """Independent oracle: shrink-and-zoom grid search minimizing the summed
    squared perpendicular distance to every contributing camera's yaw line.
    Halving the window each round keeps the (possibly very anisotropic)
    quadratic bowl inside the search box."""
    rays = [(p.x, p.y, math.radians(p.yaw_deg))
            for p, label in zip(poses, labels) if label == 1]

    def objective(px, py):
        total = np.zeros_like(px)
        for (cx, cy, yaw) in rays:
            dx, dy = math.cos(yaw), math.sin(yaw)
            rx, ry = px - cx, py - cy
            along = rx * dx + ry * dy
            total += (rx - along * dx) ** 2 + (ry - along * dy) ** 2
        return total

    cx = cy = 0.0
    half = span
    for _ in range(rounds):
        xs = np.linspace(cx - half, cx + half, grid)
        ys = np.linspace(cy - half, cy + half, grid)
        gx, gy = np.meshgrid(xs, ys)
        vals = objective(gx, gy)
        k = int(np.argmin(vals))
        cx, cy = float(gx.flat[k]), float(gy.flat[k])
        half *= 0.5
    return cx, cy


def exact_bearing_poses(rng, truth, n_cams, min_angle_deg=5.0):
    """Cameras whose yaw rays pass exactly through the ground-truth point,
    resampled until no two rays are closer than min_angle_deg mod 180."""
    while True:
        poses = []
        yaws = []
        for _ in range(n_cams):
            cx, cy = rng.uniform(-20, 20, size=2)
            if math.hypot(truth[0] - cx, truth[1] - cy) < 1.0:
                break
            yaw = math.degrees(math.atan2(truth[1] - cy, truth[0] - cx))
            yaws.append(yaw)
            poses.append(CameraPose(cx, cy, 2.5, 0.0, yaw, 1.0))
        else:
            ok = all(min(abs(a - b) % 180.0, 180.0 - abs(a - b) % 180.0) >= min_angle_deg
                     for i, a in enumerate(yaws) for b in yaws[i + 1:])
            if ok:
                return poses


def normal_matrix(poses, labels):
    """Sum of the label-1 cameras' perpendicular projectors I - d d^T."""
    m = np.zeros((2, 2))
    for pose, label in zip(poses, labels):
        if label == 1:
            yaw = math.radians(pose.yaw_deg)
            d = np.array([math.cos(yaw), math.sin(yaw)])
            m += np.eye(2) - np.outer(d, d)
    return m


class TestTriangulate:
    def test_two_line_intersection(self):
        poses = [CameraPose(0, 0, 2.5, 0, 45.0, 1.0), CameraPose(10, 0, 2.5, 0, 135.0, 1.0)]
        res = triangulate(poses, [1, 1])
        assert res.ok
        assert res.estimate[0] == pytest.approx(5.0, abs=1e-9)
        assert res.estimate[1] == pytest.approx(5.0, abs=1e-9)

    def test_single_contributor_fails(self):
        poses = [CameraPose(0, 0, 2.5, 0, 45.0, 1.0), CameraPose(10, 0, 2.5, 0, 135.0, 1.0)]
        assert not triangulate(poses, [1, 0]).ok

    def test_parallel_rays_fail(self):
        poses = [CameraPose(0, 0, 2.5, 0, 90.0, 1.0), CameraPose(10, 0, 2.5, 0, 90.0, 1.0)]
        res = triangulate(poses, [1, 1])
        assert not res.ok
        assert res.condition > 1e6

    def test_empty_camera_list_rejected(self):
        with pytest.raises(ValueError):
            triangulate([], [])

    @pytest.mark.parametrize("labels", [[1], [1, 1, 1], []])
    def test_label_count_must_match_the_cameras(self, labels):
        poses = [CameraPose(0, 0, 2.5, 0, 45.0, 1.0), CameraPose(10, 0, 2.5, 0, 135.0, 1.0)]
        with pytest.raises(ValueError):
            triangulate(poses, labels)

    def test_condition_at_least_one(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            truth = tuple(rng.uniform(-8, 8, size=2))
            poses = exact_bearing_poses(rng, truth, int(rng.integers(2, 6)))
            assert triangulate(poses, [1] * len(poses)).condition >= 1.0

    def test_order_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            truth = tuple(rng.uniform(-8, 8, size=2))
            poses = exact_bearing_poses(rng, truth, 4)
            base = triangulate(poses, [1] * 4).estimate
            perm = [poses[i] for i in rng.permutation(4)]
            est = triangulate(perm, [1] * 4).estimate
            assert est[0] == pytest.approx(base[0], abs=1e-9)
            assert est[1] == pytest.approx(base[1], abs=1e-9)

    def test_condition_matches_svd_ratio(self):
        rng = np.random.default_rng(41)
        for _ in range(2000):
            truth = tuple(rng.uniform(-8, 8, size=2))
            poses = exact_bearing_poses(rng, truth, int(rng.integers(2, 6)))
            labels = [1] * len(poses)
            sv = np.linalg.svd(normal_matrix(poses, labels), compute_uv=False)
            assert triangulate(poses, labels).condition == pytest.approx(sv[0] / sv[1],
                                                                         rel=1e-9)

    def test_ok_decision_matches_svd_on_random_instances(self):
        rng = np.random.default_rng(43)
        n_parallel = 0
        for k in range(10_000):
            n = int(rng.integers(1, 6))
            yaws = rng.uniform(-180.0, 180.0, size=n)
            if k % 3 == 0:
                # parallel or anti-parallel rays, some nudged by a hair so
                # that the condition number crosses the 1e6 gate
                base = yaws[0]
                yaws = base + 180.0 * rng.integers(0, 2, size=n)
                if k % 2 == 0:
                    yaws += 10.0 ** rng.uniform(-4.0, 0.0, size=n)
                yaws = np.array([wrap_angle(y) for y in yaws])
                n_parallel += 1
            poses, labels = [], []
            for i in range(n):
                poses.append(CameraPose(rng.uniform(-10, 10), rng.uniform(-10, 10),
                                        2.5, 0.0, float(yaws[i]), 1.0))
                labels.append(int(rng.integers(0, 2)) if rng.random() < 0.3 else 1)
            contributors = labels.count(1)
            sv = np.linalg.svd(normal_matrix(poses, labels), compute_uv=False)
            condition = sv[0] / sv[1] if sv[1] > 0.0 else math.inf
            want_ok = contributors >= 2 and condition <= TRIANGULATION_MAX_CONDITION
            assert triangulate(poses, labels).ok == want_ok
        assert n_parallel > 3000

    def test_recovers_truth_and_matches_grid_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            truth = tuple(rng.uniform(-8, 8, size=2))
            poses = exact_bearing_poses(rng, truth, int(rng.integers(2, 6)))
            labels = [1] * len(poses)
            res = triangulate(poses, labels)
            assert res.ok
            assert math.hypot(res.estimate[0] - truth[0],
                              res.estimate[1] - truth[1]) < 1e-9
            gx, gy = grid_refine_minimizer(poses, labels)
            assert math.hypot(res.estimate[0] - gx, res.estimate[1] - gy) < 1e-6


class TestGeometricPoseAction:
    def test_matches_tracker_on_truth_with_exact_peers(self):
        rng = np.random.default_rng(37)
        for _ in range(10_000):
            truth = (rng.uniform(-8, 8), rng.uniform(-8, 8), 0.9)
            peers = exact_bearing_poses(rng, truth[:2], 2)
            me = CameraPose(rng.uniform(-10, 10), rng.uniform(-10, 10),
                            rng.uniform(2, 3), rng.uniform(-60, 60),
                            rng.uniform(-179.9, 180), rng.uniform(1, 3.3))
            result = triangulate([me] + peers, [0, 1, 1])
            action = geometric_pose_action(me, result, np.full(2, np.nan))
            assert action == virtual_tracker_action(me, truth)

    def test_no_information_keeps_still(self):
        poses = [CameraPose(0, 0, 2.5, 0, 0, 1.0), CameraPose(5, 0, 2.5, 0, 0, 1.0)]
        assert (geometric_pose_action(poses[0], triangulate(poses, [0, 0]),
                                      np.full(2, np.nan))
                == Action.KEEP_STILL)

    def test_memory_fallback(self):
        me = CameraPose(0, 0, 2.5, 0.0, 0.0, 1.0)
        poses = [me, CameraPose(5, 0, 2.5, 0, 0, 1.0)]
        memory = np.array([5.0, 5.0])
        action = geometric_pose_action(me, triangulate(poses, [0, 0]), memory)
        assert action == virtual_tracker_action(me, (5.0, 5.0, 0.9))
        assert memory.tolist() == [5.0, 5.0]

    def test_success_updates_memory(self):
        me = CameraPose(0, 10, 2.5, 0.0, -90.0, 1.0)
        peers = [CameraPose(0, 0, 2.5, 0, 45.0, 1.0), CameraPose(10, 0, 2.5, 0, 135.0, 1.0)]
        memory = np.full(2, np.nan)
        geometric_pose_action(me, triangulate([me] + peers, [0, 1, 1]), memory)
        assert memory.tolist() == pytest.approx([5.0, 5.0], abs=1e-9)


class TestSwitchers:
    def test_oracle(self):
        assert oracle_switch(Visibility.VISIBLE) == 1
        assert oracle_switch(Visibility.OCCLUDED) == 0
        assert oracle_switch(Visibility.OUT_OF_VIEW) == 0

    def test_random_extremes(self):
        rng = RngStream(0, 0)
        assert all(random_switch(rng, 0.0) == 1 for _ in range(100))
        assert all(random_switch(rng, 1.0) == 0 for _ in range(100))

    def test_random_frequency(self):
        rng = RngStream(42, 0)
        zeros = sum(1 for _ in range(100_000) if random_switch(rng, 0.3) == 0)
        assert 0.29 <= zeros / 100_000 <= 0.31

    def test_noisy_zero_eps_is_oracle(self):
        rng = RngStream(1, 0)
        for vis in Visibility:
            assert noisy_switch(vis, rng, 0.0) == oracle_switch(vis)

    def test_noisy_half_eps_frequency(self):
        rng = RngStream(2, 0)
        ones = sum(1 for _ in range(100_000)
                   if noisy_switch(Visibility.VISIBLE, rng, 0.5) == 1)
        assert 0.49 <= ones / 100_000 <= 0.51

    def test_noisy_flip_rate_on_occluded(self):
        rng = RngStream(3, 0)
        ones = sum(1 for _ in range(100_000)
                   if noisy_switch(Visibility.OCCLUDED, rng, 0.1) == 1)
        assert 0.09 <= ones / 100_000 <= 0.11


class TestSvBaseline:
    def test_visible_aligned_keeps_still(self):
        pose = CameraPose(0, 0, 2, 0.0, 0.0, 2.0)
        target = target_at(pose, 0, 0)
        assert sv_baseline_action(pose, Visibility.VISIBLE, *sight(pose, target)) \
            == Action.KEEP_STILL

    def test_lost_keeps_still(self):
        pose = CameraPose(0, 0, 2, 0.0, 0.0, 2.0)
        target = target_at(pose, 0, 12.0)
        assert sv_baseline_action(pose, Visibility.OUT_OF_VIEW, *sight(pose, target)) \
            == Action.KEEP_STILL
        assert sv_baseline_action(pose, Visibility.OCCLUDED, *sight(pose, target)) \
            == Action.KEEP_STILL

    def test_visible_tracks(self):
        pose = CameraPose(0, 0, 2, 0.0, 0.0, 2.0)
        target = target_at(pose, 0, 12.0)
        assert sv_baseline_action(pose, Visibility.VISIBLE, *sight(pose, target)) \
            == Action.RIGHT


def per_camera_system_action(self_index, target, poses, labels, kind, params=None,
                             memory=None, arena_half=None, vis=None):
    """The system rule for one camera, every camera on its own: sv's
    baseline on the camera's visibility vis, the tracker for virtual and for
    label 1, else a triangulation or a one-camera policy forward."""
    own = poses[self_index]
    origin = (own.x, own.y, own.z)
    b_pitch, b_yaw = bearing_to(origin, target)
    distance = math.dist(origin, target)
    if kind == "sv":
        return sv_baseline_action(own, vis, b_pitch, b_yaw, distance)
    if kind == "virtual" or labels[self_index] == 1:
        return tracker_action(own, b_pitch, b_yaw, distance)
    if kind == "geometric":
        result = triangulate(poses, labels)
        if result.ok:
            memory[:] = result.estimate
        if np.isnan(memory).any():
            return Action.KEEP_STILL
        x, y = memory.tolist()
        return virtual_tracker_action(own, (x, y, 0.9))
    logits, _, _ = nn.policy_forward(params, self_index, poses, labels, arena_half)
    return Action(int(np.argmax(nn.log_softmax(logits))))


def random_pose(rng, arena_half=10.0):
    return CameraPose(rng.uniform(-arena_half, arena_half),
                      rng.uniform(-arena_half, arena_half), rng.uniform(2, 3),
                      rng.uniform(-60, 60), rng.uniform(-179.9, 180),
                      rng.uniform(1, 3.3))


class TestSystemAction:
    def _poses(self):
        return [CameraPose(0, 0, 2.5, 0.0, 0.0, 1.0),
                CameraPose(0, 10, 2.5, 0.0, -45.0, 1.0),
                CameraPose(10, 0, 2.5, 0.0, 135.0, 1.0)]

    def _memories(self):
        return np.full((3, 2), np.nan)

    def test_own_label_one_uses_tracker(self):
        poses = self._poses()
        target = (5.0, 5.0, 0.9)
        actions = system_action(observed(poses, target), [1, 1, 1], "geometric",
                                memories=self._memories())
        assert actions == [virtual_tracker_action(p, target) for p in poses]

    def test_label_zero_geometric(self):
        poses = self._poses()
        target = (5.0, 5.0, 0.9)
        actions = system_action(observed(poses, target), [0, 1, 1], "geometric",
                                memories=self._memories())
        assert actions[0] == geometric_pose_action(poses[0], triangulate(poses, [0, 1, 1]),
                                                   np.full(2, np.nan))

    def test_label_zero_learned_greedy(self):
        poses = self._poses()
        params = nn.init_params(4)
        got = system_action(observed(poses, (5.0, 5.0, 0.9)), [0, 1, 1], "learned",
                            params=params)
        assert got[0] == learned_pose_action(poses, [0, 1, 1], params, 10.0)[0]

    def test_learned_reads_the_arena_from_the_state(self):
        """The observed state's arena_half scales the pose tuples: at 15 m
        the actions are those of learned_pose_action at 15 m, for random
        params over random steps, and differ from 10 m somewhere."""
        rng = np.random.default_rng(61)
        differs = 0
        for _ in range(200):
            params = rand_params(rng)
            poses = [random_pose(rng, arena_half=15.0) for _ in range(4)]
            labels = [0, 0, 1, 0]
            got = system_action(observed(poses, (1.0, 2.0, 0.9), arena_half=15.0),
                                labels, "learned", params=params)
            want = learned_pose_action(poses, labels, params, 15.0)
            assert [got[i] for i in (0, 1, 3)] == want
            differs += want != learned_pose_action(poses, labels, params, 10.0)
        assert differs > 0

    def test_geometric_needs_memories(self):
        for memories in (None, np.full((2, 2), np.nan)):
            with pytest.raises(ValueError, match=r"needs a \(C, 2\) memories array"):
                system_action(observed(self._poses(), (5, 5, 0.9)), [0, 1, 1],
                              "geometric", params=nn.init_params(4), memories=memories)

    @pytest.mark.parametrize("kind", SYSTEMS)
    @pytest.mark.parametrize("labels", [[2, 0, 1], [-1, 0, 1], [0, 2, -1]])
    def test_labels_other_than_zero_and_one_rejected(self, kind, labels):
        """A label-2 camera would track (label != 0) and yet be left out of
        the triangulation (label != 1): every system rejects such labels,
        naming them, before any memory row is written."""
        memories = self._memories()
        memories[2] = (1.0, 2.0)
        before = memories.tobytes()
        with pytest.raises(ValueError) as raised:
            system_action(observed(self._poses(), (5, 5, 0.9)), labels, kind,
                          params=nn.init_params(4), memories=memories)
        assert str(raised.value) \
            == f"labels must be 0 or 1, got {sorted(set(labels) - {0, 1})}"
        assert memories.tobytes() == before

    def test_learned_needs_params(self):
        with pytest.raises(ValueError, match="needs params"):
            system_action(observed(self._poses(), (5, 5, 0.9)), [0, 1, 1], "learned",
                          memories=self._memories())

    def test_unknown_kind_rejected(self):
        poses = self._poses()
        for kind in ("nonsense", "Geometric", "pose"):
            with pytest.raises(ValueError, match="unknown system"):
                system_action(observed(poses, (5, 5, 0.9)), [0, 1, 1], kind)

    @pytest.mark.parametrize("kind", SYSTEMS)
    @pytest.mark.parametrize("labels", [[0, 1], [1, 1], [0, 1, 1, 1], [1, 1, 1, 1]])
    def test_label_count_must_match_the_cameras(self, kind, labels):
        poses = self._poses()
        with pytest.raises(ValueError):
            system_action(observed(poses, (5, 5, 0.9)), labels, kind,
                          params=nn.init_params(4), memories=self._memories())

    @pytest.mark.parametrize("kind", SYSTEMS)
    def test_per_step_equals_per_camera_rule(self, kind):
        """300 random steps of 4 cameras with random labels, the geometric
        memories carried across steps: the per-step system gives each camera
        the action the per-camera rule gives it (tracker_action for virtual,
        sv_baseline_action on the camera's visibility for sv), and leaves the
        same memory."""
        rng = np.random.default_rng(53)
        params = rand_params(rng)
        n_cams = 4
        step_memories = np.full((n_cams, 2), np.nan)
        camera_memories = np.full((n_cams, 2), np.nan)
        remembered = visible = 0
        for _ in range(300):
            poses, labels = [], []
            for _ in range(n_cams):
                poses.append(random_pose(rng))
                labels.append(int(rng.integers(0, 2)))
            target = (rng.uniform(-8, 8), rng.uniform(-8, 8), 0.9)
            outcome = observed(poses, target)
            want = [per_camera_system_action(i, target, poses, labels, kind,
                                             params=params, memory=camera_memories[i],
                                             arena_half=10.0,
                                             vis=outcome.visibility[i])
                    for i in range(n_cams)]
            got = system_action(outcome, labels, kind, params=params,
                                memories=step_memories)
            assert got == want
            assert step_memories.tobytes() == camera_memories.tobytes()
            remembered += np.count_nonzero(~np.isnan(step_memories[:, 0]))
            visible += outcome.visibility.count(Visibility.VISIBLE)
        if kind == "geometric":
            assert remembered > 0
        else:
            assert remembered == 0
        # visible and hidden cameras both occur, so sv both tracks and keeps still
        assert 0 < visible < 300 * n_cams

    def test_memory_carries_across_steps(self):
        """Triangulation succeeds, then fails: the label-0 camera keeps
        steering toward the first step's estimate."""
        me = CameraPose(0, 10, 2.5, 0.0, -90.0, 1.0)
        peers = [CameraPose(0, 0, 2.5, 0, 45.0, 1.0),
                 CameraPose(10, 0, 2.5, 0, 135.0, 1.0)]
        poses = [me] + peers
        memories = np.full((3, 2), np.nan)
        system_action(observed(poses, (5.0, 5.0, 0.9)), [0, 1, 1], "geometric",
                      memories=memories)
        estimate = tuple(memories[0].tolist())
        assert estimate == pytest.approx((5.0, 5.0), abs=1e-9)

        actions = system_action(observed(poses, (-5.0, -5.0, 0.9)), [0, 0, 1],
                                "geometric", memories=memories)
        assert tuple(memories[0].tolist()) == estimate
        assert np.isnan(memories[1:]).all()
        assert actions[0] == virtual_tracker_action(me, estimate + (0.9,))
        assert actions[1] == Action.KEEP_STILL
        assert actions[2] == virtual_tracker_action(peers[1], (-5.0, -5.0, 0.9))


class TestLearnedPoseAction:
    POSES = (CameraPose(0, 0, 2.5, 10.0, 20.0, 1.5), CameraPose(0, 10, 2.5, -5.0, -45.0, 2.0))
    LABELS = (0, 1)

    def test_zero_params_uniform(self):
        params = nn.zeros_like_params()
        logits, _, _ = nn.policy_forward(params, 0, self.POSES, self.LABELS, 10.0)
        probs = softmax(logits)
        assert np.allclose(probs, 1.0 / 11.0, atol=1e-15)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            params = nn.PolicyParams(**{name: rng.normal(0, 1, shape)
                                        for name, shape, _, _ in nn.PARAM_SPECS})
            logits, _, _ = nn.policy_forward(params, 0, self.POSES, self.LABELS, 10.0)
            assert abs(softmax(logits).sum() - 1.0) < 1e-12

    def test_greedy_deterministic(self):
        params = nn.init_params(7)
        results = {tuple(learned_pose_action(self.POSES, self.LABELS, params, 10.0))
                   for _ in range(100)}
        assert len(results) == 1

    def test_zero_params_pick_the_lowest_index(self):
        # eleven equal logits tie, and the tie goes to action 0
        assert (learned_pose_action(self.POSES, self.LABELS, nn.zeros_like_params(), 10.0)
                == [Action.KEEP_STILL])

    def test_non_finite_weight_rejected(self):
        """A NaN weight raises, through the one-episode and the lockstep
        learned controllers alike."""
        params = nn.init_params(7)
        params.embed_b[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            learned_pose_action(self.POSES, self.LABELS, params, 10.0)
        state = batch_world([spawn_episode(EpisodeConfig(), 0)])
        with pytest.raises(ValueError, match="non-finite"):
            batch_system_action(state, batch_observe(state), np.array([[0, 1, 1, 0]]),
                                ["learned"], params=params)

    def test_equals_one_camera_forward_per_label_zero_camera(self):
        """Random params and steps of 4 cameras with 0-4 label-0 cameras: one
        action per label-0 camera, in camera order, each the argmax of its
        own one-camera forward."""
        rng = np.random.default_rng(59)
        seen = set()
        for _ in range(400):
            params = rand_params(rng, scale=float(rng.uniform(0.1, 2.0)))
            labels = [int(v) for v in rng.integers(0, 2, size=4)]
            poses = [random_pose(rng) for _ in labels]
            want = []
            for i, label in enumerate(labels):
                if label == 0:
                    logits, _, _ = nn.policy_forward(params, i, poses, labels, 10.0)
                    want.append(Action(int(np.argmax(nn.log_softmax(logits)))))
            assert learned_pose_action(poses, labels, params, 10.0) == want
            seen.add(labels.count(0))
        assert seen == {0, 1, 2, 3, 4}

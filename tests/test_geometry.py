"""Geometry: angle wrapping, bearings, FOV and the box intersection test."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from camtrack.geometry import (
    CameraPose,
    Obstacle,
    angle_error,
    bearing_to,
    bearings,
    effective_fov,
    SightLines,
    first_overlap,
    segment_box_overlap,
    segment_hits_box,
    wrap_angle,
    wrap_angles,
    yaw_errors,
)
from camtrack.rng import RngStream
from camtrack.world import TargetState, Visibility, WorldState, observe


def make_pose(yaw=0.0, pitch=0.0, zoom=1.0, x=0.0, y=0.0, z=0.0):
    return CameraPose(x, y, z, pitch, yaw, zoom)


def reference_slab_overlap(p0, p1, box):
    """The slab method as one loop over the three axes."""
    t_min, t_max = 0.0, 1.0
    for a, b, lo, hi in (
        (p0[0], p1[0], box.min_x, box.max_x),
        (p0[1], p1[1], box.min_y, box.max_y),
        (p0[2], p1[2], 0.0, box.height),
    ):
        d = b - a
        if d == 0.0:
            if a < lo or a > hi:
                return None
        else:
            inv = 1.0 / d
            t0 = (lo - a) * inv
            t1 = (hi - a) * inv
            if t0 > t1:
                t0, t1 = t1, t0
            if t0 > t_min:
                t_min = t0
            if t1 < t_max:
                t_max = t1
            if t_min > t_max:
                return None
    return t_min, t_max


def reference_footprint_entry(x, y, mx, my, box):
    """The 2-D slab method on a ground move: earliest t in [0, 1] at which
    (x, y) + t * (mx, my) meets the box footprint, or None."""
    t0, t1 = 0.0, 1.0
    for a, d, lo, hi in ((x, mx, box.min_x, box.max_x),
                         (y, my, box.min_y, box.max_y)):
        if d == 0.0:
            if a < lo or a > hi:
                return None
        else:
            inv = 1.0 / d
            ta = (lo - a) * inv
            tb = (hi - a) * inv
            if ta > tb:
                ta, tb = tb, ta
            if ta > t0:
                t0 = ta
            if tb < t1:
                t1 = tb
            if t0 > t1:
                return None
    return t0


# Coordinates on a small grid that shares values with the box faces make
# axis-parallel segments and touching boundaries common.
GRID = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0])
COORD = st.one_of(GRID, st.floats(-5.0, 5.0, allow_nan=False))


class TestCameraPose:
    @pytest.mark.parametrize("pitch, yaw, zoom, message", [
        (60.5, 0.0, 1.0, "pitch 60.5 outside"),
        (-61.0, 0.0, 1.0, "pitch -61.0 outside"),
        (0.0, -180.0, 1.0, "yaw -180.0 outside"),
        (0.0, 180.5, 1.0, "yaw 180.5 outside"),
        (0.0, 0.0, 0.9, "zoom 0.9 outside"),
        (0.0, 0.0, 3.4, "zoom 3.4 outside"),
    ])
    def test_out_of_range_rejected(self, pitch, yaw, zoom, message):
        with pytest.raises(ValueError, match=message):
            CameraPose(0.0, 0.0, 2.5, pitch, yaw, zoom).validate()

    @pytest.mark.parametrize("pitch, yaw, zoom", [(60.0, 180.0, 1.0),
                                                  (-60.0, -179.5, 3.3)])
    def test_limits_accepted(self, pitch, yaw, zoom):
        CameraPose(0.0, 0.0, 2.5, pitch, yaw, zoom).validate()


class TestWrapAngle:
    def test_modular_identity(self):
        assert wrap_angle(190.0) == -170.0

    def test_boundary_convention(self):
        assert wrap_angle(-180.0) == 180.0
        assert wrap_angle(180.0) == 180.0

    def test_already_in_range(self):
        assert wrap_angle(45.0) == 45.0

    def test_idempotent_on_many_random_angles(self):
        rng = np.random.default_rng(7)
        angles = rng.uniform(-1e6, 1e6, size=1_000_000)
        for a in angles:
            w = wrap_angle(a)
            assert -180.0 < w <= 180.0
            assert wrap_angle(w) == w

    @given(st.floats(-1e9, 1e9), st.integers(-5, 5))
    def test_congruent_mod_360(self, a, k):
        assert wrap_angle(a + 360.0 * k) == pytest.approx(wrap_angle(a), abs=1e-6)


class TestYawErrors:
    """yaw_errors against abs(wrap_angles(x)), bit for bit. Infinite and NaN
    inputs give NaN in both, whose sign bit carries no value."""

    @staticmethod
    def check(values):
        a = np.asarray(values, dtype=float)
        with np.errstate(invalid="ignore"):
            got, want = yaw_errors(a), np.abs(wrap_angles(a))
        nan = np.isnan(want)
        assert np.isnan(got).tolist() == nan.tolist()
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_named_edge_values(self):
        edges = [0.0, -0.0, 180.0, -180.0, 360.0, -360.0, 540.0, 1e-300,
                 -1e-300, 5e-324, -5e-324, 1e17, np.nextafter(180.0, np.inf),
                 np.nextafter(180.0, -np.inf), np.nan]
        self.check(edges)
        # a tiny negative angle wraps to 360 mod 360, and so to an error of 0
        assert yaw_errors(np.array([-1e-300, -0.0])).tolist() == [0.0, 0.0]

    @given(st.lists(st.floats(), min_size=1, max_size=50))
    def test_any_floats(self, values):
        self.check(values)

    def test_keeps_the_shape(self):
        a = np.random.default_rng(3).uniform(-1e3, 1e3, size=(4, 5, 3))
        assert yaw_errors(a).shape == a.shape
        self.check(a)


class TestBearing:
    def test_axis_aligned(self):
        pitch, yaw = bearing_to((0, 0, 0), (1, 0, 0))
        assert yaw == 0.0
        assert pitch == 0.0

    def test_symmetry_diagonal(self):
        pitch, yaw = bearing_to((0, 0, 0), (0, 1, 1))
        assert yaw == pytest.approx(90.0)
        assert pitch == pytest.approx(45.0)

    def test_oblique(self):
        # independent calculator: atan2(4, 3) in degrees
        pitch, yaw = bearing_to((0, 0, 2), (3, 4, 2))
        assert yaw == pytest.approx(53.13010235415598, abs=1e-9)
        assert pitch == 0.0

    def test_returns_a_tuple(self):
        assert type(bearing_to((1.5, -2.0, 3.0), (-4.0, 0.25, 1.0))) is tuple

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            bearing_to((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))

    def test_pitch_range(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            p = rng.uniform(-50, 50, size=3)
            q = rng.uniform(-50, 50, size=3)
            if tuple(p) == tuple(q):
                continue
            pitch, yaw = bearing_to(tuple(p), tuple(q))
            assert -90.0 <= pitch <= 90.0
            assert -180.0 < yaw <= 180.0


class TestBearings:
    """The array bearings against bearing_to and math.dist, bit for bit."""

    @staticmethod
    def check(origins, targets):
        origins = np.asarray(origins, dtype=float)
        targets = np.asarray(targets, dtype=float)
        pitch, yaw, distance = bearings(targets - origins)
        assert pitch.shape == yaw.shape == distance.shape == origins.shape[:-1]
        pairs = list(zip(origins.reshape(-1, 3).tolist(),
                         targets.reshape(-1, 3).tolist()))
        want = [bearing_to(o, t) for o, t in pairs]
        assert np.array([p for p, _ in want]).tobytes() == pitch.tobytes()
        assert np.array([y for _, y in want]).tobytes() == yaw.tobytes()
        assert (np.array([math.dist(o, t) for o, t in pairs]).tobytes()
                == distance.tobytes())

    @pytest.mark.parametrize("scale", [1e-300, 1e-6, 1.0, 20.0, 1e3, 1e150])
    def test_random_pairs_match_math_dist(self, scale):
        rng = np.random.default_rng(11)
        origins = rng.uniform(-scale, scale, size=(4000, 3))
        self.check(origins, rng.uniform(-scale, scale, size=(4000, 3)))
        # nearby points: small differences of large coordinates
        self.check(origins, origins + rng.uniform(-1e-9, 1e-9, size=(4000, 3)) * scale)

    def test_axis_aligned_and_signed_zero_deltas(self):
        origins, targets = [], []
        for axis in range(3):
            for length in (1.0, -1.0, 3.5, -1e-300, 1e300):
                for zero in (0.0, -0.0):
                    origin = [zero, -zero, zero]
                    target = [-zero, zero, -zero]
                    target[axis] = origin[axis] + length
                    origins.append(origin)
                    targets.append(target)
        self.check(origins, targets)

    def test_keeps_the_leading_shape(self):
        rng = np.random.default_rng(2)
        self.check(rng.uniform(-10, 10, size=(2, 3, 3)),
                   rng.uniform(-10, 10, size=(2, 3, 3)))

    def test_coincident_points_rejected(self):
        delta = np.array([[1.0, 2.0, 3.0], [0.0, -0.0, 0.0]])
        with pytest.raises(ValueError, match="coincident"):
            bearings(delta)

    @pytest.mark.parametrize("row", [0, 3, 6])
    def test_one_zero_row_among_nonzero_rows_rejected(self, row):
        # the nonzero rows include subnormal and one-axis deltas, whose
        # distance is tiny but not 0
        delta = np.array([[5e-324, 0.0, 0.0], [0.0, -5e-324, 0.0], [1.0, 2.0, 3.0],
                          [0.0, 0.0, -1e-300], [-4.0, 0.5, 0.0], [1e300, 0.0, 0.0],
                          [0.0, 7.0, 0.0]])
        bearings(delta)
        delta[row] = (-0.0, 0.0, -0.0)
        with pytest.raises(ValueError, match="coincident"):
            bearings(delta.reshape(7, 1, 3))

    def test_nan_rows_are_not_rejected(self):
        nan = math.nan
        delta = np.array([[1.0, 2.0, 3.0], [nan, 0.0, 0.0], [0.0, 0.0, nan],
                          [nan, nan, nan], [-2.0, 0.5, 1.0]])
        pitch, yaw, distance = bearings(delta)
        assert np.isnan(pitch).tolist() == [False, True, True, True, False]
        # atan2(0, 0) = 0: a NaN height leaves the yaw of (0, 0) defined
        assert np.isnan(yaw).tolist() == [False, True, False, True, False]
        assert np.isnan(distance).tolist() == [False, True, True, True, False]
        self.check([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [[1.0, 2.0, 3.0], [-1.0, 1.5, 2.0]])


class TestAngleError:
    def test_perfect_alignment(self):
        pose = make_pose(yaw=0.0, pitch=0.0)
        d_alpha, d_beta = angle_error(pose, (10.0, 0.0, 0.0))
        assert d_alpha == 0.0
        assert d_beta == 0.0

    def test_wrap_across_180(self):
        pose = make_pose(yaw=170.0)
        # bearing yaw is -170: the short way around is 20 degrees
        target = (10.0 * math.cos(math.radians(-170.0)),
                  10.0 * math.sin(math.radians(-170.0)), 0.0)
        _, d_beta = angle_error(pose, target)
        assert d_beta == pytest.approx(20.0, abs=1e-9)

    def test_downward_pitch_error(self):
        # independent calculator: atan2(-1.1, 10) = -6.277298489597555 deg
        pose = CameraPose(0.0, 0.0, 2.0, 0.0, 0.0, 1.0)
        d_alpha, d_beta = angle_error(pose, (10.0, 0.0, 0.9))
        assert d_alpha == pytest.approx(6.277298489597555, abs=1e-9)
        assert d_beta == 0.0

    def test_rotation_consistent(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            yaw = rng.uniform(-180, 180)
            pose = make_pose(yaw=yaw, pitch=rng.uniform(-60, 60), z=2.0)
            target = tuple(rng.uniform(-20, 20, size=2)) + (0.9,)
            shifted = CameraPose(pose.x, pose.y, pose.z, pose.pitch_deg,
                                 yaw + 360.0 * rng.integers(-3, 4), pose.zoom)
            da1, db1 = angle_error(pose, target)
            da2, db2 = angle_error(shifted, target)
            assert db2 == pytest.approx(db1, abs=1e-9)
            assert da2 == da1
            assert 0.0 <= db1 <= 180.0
            assert 0.0 <= da1 <= 180.0


class TestEffectiveFov:
    def test_base(self):
        assert effective_fov(1.0) == (90.0, 60.0)

    def test_division(self):
        assert effective_fov(3.0) == (30.0, 20.0)

    def test_max_zoom(self):
        h, v = effective_fov(3.3)
        assert h == pytest.approx(27.272727272727273)
        assert v == pytest.approx(18.181818181818183)

    def test_strictly_decreasing(self):
        zooms = np.linspace(1.0, 3.3, 200)
        fovs = [effective_fov(z) for z in zooms]
        for (h0, v0), (h1, v1) in zip(fovs, fovs[1:]):
            assert h1 < h0 and v1 < v0

    @pytest.mark.parametrize("zoom", [0.99, 3.31, 0.0, -1.0])
    def test_out_of_range(self, zoom):
        with pytest.raises(ValueError):
            effective_fov(zoom)


class TestInFov:
    """world.observe's field-of-view test: in view within half the effective
    FOV of the aim, on an arena without obstacles."""

    def _visibility(self, pose, d_beta):
        target = TargetState(10.0 * math.cos(math.radians(d_beta)),
                             10.0 * math.sin(math.radians(d_beta)), 0.0, (0.0, 0.0),
                             z=0.0)
        state = WorldState([pose], target, [], 0, 10.0, (0.5, 1.5), RngStream(0, 0))
        return observe(state).visibility[0]

    def test_inside_half_fov(self):
        assert self._visibility(make_pose(zoom=1.0), 44.0) is Visibility.VISIBLE

    def test_outside_half_fov(self):
        assert self._visibility(make_pose(zoom=1.0), 46.0) is Visibility.OUT_OF_VIEW

    def test_zoomed_in_narrows(self):
        assert self._visibility(make_pose(zoom=3.0), 20.0) is Visibility.OUT_OF_VIEW


class TestSegmentHitsBox:
    BOX = Obstacle(4.0, -1.0, 6.0, 1.0, 2.0)

    def test_through(self):
        assert segment_hits_box((0, 0, 1), (10, 0, 1), self.BOX)

    def test_above(self):
        assert not segment_hits_box((0, 0, 3), (10, 0, 3), self.BOX)

    def test_lateral_miss(self):
        assert not segment_hits_box((0, 5, 1), (10, 5, 1), self.BOX)

    def test_endpoint_inside(self):
        assert segment_hits_box((5, 0, 1), (20, 0, 1), self.BOX)

    def test_agrees_with_dense_sampler(self):
        """Slab test vs 1000 evenly spaced containment probes on 10^5 random
        segment/box pairs. The sampler can only miss traversals shorter than
        its own spacing; anything it finds the slab method must find too."""
        rng = np.random.default_rng(11)
        n_pairs = 100_000
        p0s = rng.uniform(-20, 20, size=(n_pairs, 3))
        p1s = rng.uniform(-20, 20, size=(n_pairs, 3))
        p0s[:, 2] = rng.uniform(0, 4, size=n_pairs)
        p1s[:, 2] = rng.uniform(0, 4, size=n_pairs)
        cx = rng.uniform(-15, 15, size=n_pairs)
        cy = rng.uniform(-15, 15, size=n_pairs)
        w = rng.uniform(0.5, 3.0, size=n_pairs)
        d = rng.uniform(0.5, 3.0, size=n_pairs)
        h = rng.uniform(1.0, 2.5, size=n_pairs)

        ts = np.linspace(0.0, 1.0, 1000)
        spacing = 1.0 / 999.0
        mismatches = 0
        for k in range(n_pairs):
            box = Obstacle(cx[k] - w[k] / 2, cy[k] - d[k] / 2,
                           cx[k] + w[k] / 2, cy[k] + d[k] / 2, h[k])
            pts = p0s[k] + np.outer(ts, p1s[k] - p0s[k])
            sampled = bool(np.any(
                (pts[:, 0] >= box.min_x) & (pts[:, 0] <= box.max_x)
                & (pts[:, 1] >= box.min_y) & (pts[:, 1] <= box.max_y)
                & (pts[:, 2] >= 0.0) & (pts[:, 2] <= box.height)))
            hit = segment_hits_box(tuple(p0s[k]), tuple(p1s[k]), box)
            if sampled:
                assert hit, f"sampler found a hit the slab test missed (pair {k})"
            elif hit:
                t0, t1 = segment_box_overlap(tuple(p0s[k]),
                                             tuple(p1s[k] - p0s[k]), box)
                assert t1 - t0 <= spacing + 1e-12, \
                    f"sampler missed a traversal longer than its spacing (pair {k})"
                mismatches += 1
        # near-tangency disagreements must stay rare
        assert mismatches < n_pairs * 0.01

    @settings(max_examples=2000, deadline=None)
    @given(st.tuples(COORD, COORD, COORD), st.tuples(COORD, COORD, COORD),
           st.sampled_from([Obstacle(-1.0, -1.0, 1.0, 1.0, 2.0),
                            Obstacle(0.0, 0.5, 2.0, 3.0, 0.5),
                            Obstacle(-2.0, -1.0, -1.0, 0.0, 1.0)]))
    def test_matches_reference_slab_loop(self, p0, p1, box):
        # repr tells -0.0 from 0.0, so this asserts bit-identical results
        direction = (p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2])
        assert (repr(segment_box_overlap(p0, direction, box))
                == repr(reference_slab_overlap(p0, p1, box)))
        assert segment_hits_box(p0, p1, box) == (
            reference_slab_overlap(p0, p1, box) is not None)

    @settings(max_examples=2000, deadline=None)
    @given(COORD, COORD, COORD, COORD,
           st.sampled_from([Obstacle(-1.0, -1.0, 1.0, 1.0, 2.0),
                            Obstacle(0.0, 0.5, 2.0, 3.0, 0.5),
                            Obstacle(-2.0, -1.0, -1.0, 0.0, 1.0)]))
    def test_ground_move_is_the_footprint_slab_test(self, x, y, mx, my, box):
        """A move (mx, my) from (x, y) at z = 0 enters the box exactly where
        the 2-D footprint slab test on the move vector says it does."""
        overlap = segment_box_overlap((x, y, 0.0), (mx, my, 0.0), box)
        want = reference_footprint_entry(x, y, mx, my, box)
        assert repr(None if overlap is None else overlap[0]) == repr(want)

    @settings(max_examples=2000, deadline=None)
    @given(st.tuples(COORD, COORD, COORD), st.tuples(COORD, COORD, COORD),
           st.lists(st.sampled_from([Obstacle(-1.0, -1.0, 1.0, 1.0, 2.0),
                                     Obstacle(0.0, 0.5, 2.0, 3.0, 0.5),
                                     Obstacle(-2.0, -1.0, -1.0, 0.0, 1.0)]),
                    max_size=3))
    def test_first_overlap_is_the_slab_test_of_the_first_box_met(self, p0, p1, boxes):
        """Over the camera's SightLines corners, first_overlap of the sight
        line p0 -> p1 is, bit for bit, segment_box_overlap of the first box,
        in order, that the segment meets, and None when it meets none, also
        along flat axes and touching faces."""
        direction = (p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2])
        corners = SightLines.build([p0], boxes).corners[0]
        overlaps = [segment_box_overlap(p0, direction, box) for box in boxes]
        want = next((o for o in overlaps if o is not None), None)
        # repr tells -0.0 from 0.0
        assert repr(first_overlap(*direction, corners)) == repr(want)

    def test_obstacle_validation(self):
        with pytest.raises(ValueError):
            Obstacle(1.0, 0.0, 0.0, 1.0, 1.0).validate()
        with pytest.raises(ValueError):
            Obstacle(0.0, 0.0, 1.0, 1.0, 0.0).validate()

"""Policy network: features, forward and its cache, analytic gradients,
returns, init."""
import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from camtrack import nn
from camtrack.geometry import CameraPose
from camtrack.rng import RngStream


def rand_params(rng, scale=0.5):
    return nn.PolicyParams(**{name: rng.normal(0.0, scale, shape)
                              for name, shape, _, _ in nn.PARAM_SPECS})


def rand_step(rng, n=4):
    """One step's camera poses and labels, drawn camera by camera."""
    poses, labels = [], []
    for _ in range(n):
        poses.append(CameraPose(rng.uniform(-10, 10), rng.uniform(-10, 10),
                                rng.uniform(2, 3), rng.uniform(-60, 60),
                                rng.uniform(-179.9, 180), rng.uniform(1, 3.3)))
        labels.append(int(rng.integers(0, 2)))
    return poses, labels


def softmax(logits):
    """Reference probabilities over the last axis (nn keeps only log_softmax)."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestBuildFeatures:
    def test_identical_cameras_mean_equals_single(self):
        rng = np.random.default_rng(0)
        params = rand_params(rng)
        pose = CameraPose(1.0, 2.0, 2.5, 5.0, 30.0, 1.2)
        f = nn.build_features(params, 0, [pose] * 4, [1] * 4, 10.0)
        single = nn.build_features(params, 0, [pose], [1], 10.0)
        assert np.allclose(f, single, atol=1e-15)

    def test_permutation_invariance_of_pool(self):
        rng = np.random.default_rng(1)
        params = rand_params(rng)
        poses, labels = rand_step(rng)
        f = nn.build_features(params, 0, poses, labels, 10.0)
        order = [0, 2, 3, 1]
        # self tuple stays at index 0 under this shuffle
        g = nn.build_features(params, 0, [poses[i] for i in order],
                              [labels[i] for i in order], 10.0)
        assert np.allclose(f, g, atol=1e-15)

    def test_yaw_seam_continuity(self):
        rng = np.random.default_rng(2)
        params = rand_params(rng)
        a = CameraPose(0, 0, 2.5, 0.0, 180.0, 1.0)
        b = CameraPose(0, 0, 2.5, 0.0, -180.0, 1.0)
        fa = nn.build_features(params, 0, [a], [1], 10.0)
        fb = nn.build_features(params, 0, [b], [1], 10.0)
        assert np.allclose(fa, fb, atol=1e-12)

    def test_feature_layout(self):
        params = nn.zeros_like_params()
        pose = CameraPose(5.0, -2.0, 2.4, 30.0, 90.0, 1.0)
        f = nn.build_features(params, 0, [pose], [1], 10.0)
        assert f.shape == (23,)
        assert f[0] == 0.5 and f[1] == -0.2
        assert f[2] == pytest.approx(0.8)
        assert f[3] == pytest.approx(1.0) and abs(f[4]) < 1e-15
        assert f[5] == 0.5 and f[6] == 1.0
        assert np.all(f[7:] == 0.0)  # tanh(0) embeddings


class TestRawTuples:
    def test_one_pose_tuple_per_camera(self):
        poses, labels = rand_step(np.random.default_rng(74))
        raws = nn.raw_tuples(poses, labels, 10.0)
        assert raws.shape == (4, nn.RAW_SIZE)
        for row, pose, label in zip(raws.tolist(), poses, labels):
            yaw = math.radians(pose.yaw_deg)
            assert row == [pose.x / 10.0, pose.y / 10.0, pose.z / nn.HEIGHT_NORM,
                           math.sin(yaw), math.cos(yaw), pose.pitch_deg / nn.PITCH_NORM,
                           float(label)]

    @pytest.mark.parametrize("n_labels", [0, 3, 5])
    def test_label_count_must_match_the_cameras(self, n_labels):
        poses, _ = rand_step(np.random.default_rng(75))
        with pytest.raises(ValueError):
            nn.raw_tuples(poses, [1] * n_labels, 10.0)


def rand_tuples(rng, n_groups=1, n_cams=4, scale=1.0):
    """(G, C, 7) pose tuples drawn uniformly from [-scale, scale]."""
    return rng.uniform(-scale, scale, (n_groups, n_cams, nn.RAW_SIZE))


class TestForward:
    def test_zero_params_zero_outputs(self):
        params = nn.zeros_like_params()
        cache = nn.forward(params, np.zeros((1, 4, nn.RAW_SIZE)), 0, 0)
        assert np.all(cache.logits == 0.0) and cache.values == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        params = rand_params(rng)
        raws = rand_tuples(rng)
        a = nn.forward(params, raws, 0, 1)
        b = nn.forward(params, raws, 0, 1)
        assert np.array_equal(a.logits, b.logits) and a.values == b.values

    def test_finite_on_many_random_inputs(self):
        """1000 parameter draws, each on every camera of 25 groups of 4
        tuples drawn from [-10, 10]."""
        rng = np.random.default_rng(4)
        for _ in range(1000):
            params = rand_params(rng, scale=rng.uniform(0.1, 10.0))
            raws = rand_tuples(rng, 25, 4, scale=10.0)
            cache = nn.forward(params, raws, *np.indices(raws.shape[:2]))
            assert cache.logits.shape == (25, 4, nn.N_ACTIONS)
            for arr in (cache.logits, cache.logp, cache.values, cache.entropy):
                assert np.isfinite(arr).all()

    def test_rejects_bad_input(self):
        params = nn.zeros_like_params()
        with pytest.raises(ValueError, match="non-finite"):
            nn.forward(params, np.full((1, 4, nn.RAW_SIZE), np.nan), 0, 0)
        for shape in ((4, nn.RAW_SIZE), (1, 4, nn.RAW_SIZE - 1)):
            with pytest.raises(ValueError, match="raws must have shape"):
                nn.forward(params, np.zeros(shape), 0, 0)


def reference_features(params, raws, group, cam):
    """Camera cam of group group: its own tuple followed by its group's mean
    embedding, the cameras summed one at a time in camera order."""
    embeds = np.tanh(raws @ params.embed_w.T + params.embed_b)
    members = embeds[group] if raws.ndim == 3 else embeds
    pooled = members[0].copy()
    for e in members[1:]:
        pooled += e
    own = raws[group, cam] if raws.ndim == 3 else raws[cam]
    return np.concatenate([own, pooled / len(members)])


class TestEncode:
    """_encode against reference_features bit for bit, for every kind of rows
    its callers pass."""

    def groups(self, rng, n_groups, n_cams=4):
        params = rand_params(rng, scale=float(rng.uniform(0.1, 2.0)))
        raws = np.array([nn.raw_tuples(*rand_step(rng, n_cams), 10.0)
                         for _ in range(n_groups)])
        return params, raws

    def test_index_arrays(self):
        rng = np.random.default_rng(81)
        for _ in range(50):
            params, raws = self.groups(rng, int(rng.integers(1, 6)))
            group = rng.integers(0, raws.shape[0], 9)
            cam = rng.integers(0, raws.shape[1], 9)
            features, embeds = nn._encode(params, raws, group, cam)
            assert features.shape == (9, nn.FEATURE_SIZE)
            for b in range(9):
                assert features[b].tobytes() == reference_features(
                    params, raws, group[b], cam[b]).tobytes()
            assert embeds.tobytes() == np.tanh(
                raws @ params.embed_w.T + params.embed_b).tobytes()

    def test_boolean_mask(self):
        rng = np.random.default_rng(82)
        seen = set()
        for _ in range(100):
            params, raws = self.groups(rng, 1)
            raws = raws[0]
            mask = raws[:, 6] == 0.0
            features, _ = nn._encode(params, raws, mask)
            want = [reference_features(params, raws, None, c)
                    for c in np.flatnonzero(mask)]
            assert features.shape == (mask.sum(), nn.FEATURE_SIZE)
            want = np.array(want).reshape(-1, nn.FEATURE_SIZE)
            assert features.tobytes() == want.tobytes()
            seen.add(int(mask.sum()))
        assert seen == {0, 1, 2, 3, 4}

    def test_scalar_rows(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            params, raws = self.groups(rng, 3)
            g, c = int(rng.integers(0, 3)), int(rng.integers(0, 4))
            want = reference_features(params, raws, g, c).tobytes()
            assert nn._encode(params, raws, g, c)[0].tobytes() == want
            one = raws[g]
            assert nn._encode(params, one, c)[0].tobytes() == reference_features(
                params, one, None, c).tobytes()

    def test_indices_rows(self):
        rng = np.random.default_rng(84)
        for n_cams in (1, 2, 4, 7):
            params, raws = self.groups(rng, 5, n_cams)
            features, _ = nn._encode(params, raws, *np.indices(raws.shape[:2]))
            assert features.shape == (5, n_cams, nn.FEATURE_SIZE)
            for g in range(5):
                for c in range(n_cams):
                    assert features[g, c].tobytes() == reference_features(
                        params, raws, g, c).tobytes()


class TestGreedyActions:
    def test_equals_argmax_of_forward(self):
        """Random params and steps of 4 cameras with 0-4 label-0 cameras, and
        zero params (eleven tied logits): one index per label-0 row, equal to
        the argmax of forward's log-probabilities for that row."""
        rng = np.random.default_rng(71)
        seen = set()
        for trial in range(400):
            params = (nn.zeros_like_params() if trial % 10 == 0
                      else rand_params(rng, scale=float(rng.uniform(0.1, 2.0))))
            raws = nn.raw_tuples(*rand_step(rng), 10.0)
            cam = np.flatnonzero(raws[:, 6] == 0.0)
            cache = nn.forward(params, raws[None], np.zeros_like(cam), cam)
            want = np.argmax(cache.logp, axis=-1)
            got = nn.greedy_actions(params, raws, cam)
            assert got.tolist() == want.tolist()
            if trial % 10 == 0:
                assert got.tolist() == [0] * cam.size
            seen.add(cam.size)
        assert seen == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("n_cams", [2, 4])
    def test_indices_equal_the_mask(self, n_cams):
        """The label-0 cameras handed over as indices in camera order give
        the same actions as the same cameras given as a mask, for
        every count of label-0 cameras from 1 to C."""
        rng = np.random.default_rng(73)
        for trial in range(60):
            params = rand_params(rng, scale=float(rng.uniform(0.1, 2.0)))
            poses, _ = rand_step(rng, n_cams)
            labels = [1] * n_cams
            for c in rng.choice(n_cams, size=trial % n_cams + 1, replace=False):
                labels[c] = 0
            raws = nn.raw_tuples(poses, labels, 10.0)
            cams = [c for c, label in enumerate(labels) if label == 0]
            got = nn.greedy_actions(params, raws, cams)
            want = nn.greedy_actions(params, raws, raws[:, 6] == 0.0)
            assert got.size == len(cams)
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("name", ["embed_w", "embed_b"])
    def test_non_finite_weight_rejected(self, name):
        params = nn.init_params(2)
        getattr(params, name).flat[3] = np.nan
        raws = nn.raw_tuples(*rand_step(np.random.default_rng(72)), 10.0)
        raws[:, 6] = 0.0
        with pytest.raises(ValueError, match="non-finite"):
            nn.greedy_actions(params, raws, raws[:, 6] == 0.0)


class TestSoftmaxStability:
    def test_extreme_logits(self):
        for scale in (1.0, 100.0, 700.0):
            logits = np.linspace(-scale, scale, 11)
            logp = nn.log_softmax(logits)
            p = softmax(logits)
            assert np.isfinite(logp).all() or np.any(np.isneginf(logp))
            assert not np.any(np.isnan(logp))
            assert np.isfinite(p).all()
            assert abs(p.sum() - 1.0) < 1e-12
            assert math.isfinite(nn.entropy(logits))

    def test_entropy_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            logits = rng.normal(0, rng.uniform(0.1, 50), 11)
            h = nn.entropy(logits)
            assert 0.0 <= h <= math.log(11) + 1e-12
        assert nn.entropy(np.zeros(11)) == pytest.approx(math.log(11))


class TestBackward:
    def _loss(self, params, raws, cam, action, adv, ret, ec, vc):
        cache = nn.forward(params, raws, 0, cam)
        return nn.loss_value(cache.logits, cache.values, action, adv, ret, ec, vc)

    def test_matches_finite_differences_on_trunk(self):
        """Every array, on one row of tuples drawn from [-1, 1]."""
        rng = np.random.default_rng(6)
        h = 1e-5
        for _ in range(20):
            params = rand_params(rng)
            raws = rand_tuples(rng)
            cam = int(rng.integers(0, raws.shape[1]))
            action = int(rng.integers(0, 11))
            adv, ret = float(rng.normal()), float(rng.normal())
            ec, vc = 0.01, 0.5
            cache = nn.forward(params, raws, 0, cam)
            grads = nn.backward(params, cache, action, adv, ret, ec, vc)
            for name, arr in params.arrays():
                g = getattr(grads, name)
                flat_idx = rng.integers(0, arr.size, size=min(20, arr.size))
                for fi in np.unique(flat_idx):
                    idx = np.unravel_index(fi, arr.shape)
                    orig = arr[idx]
                    arr[idx] = orig + h
                    lp = self._loss(params, raws, cam, action, adv, ret, ec, vc)
                    arr[idx] = orig - h
                    lm = self._loss(params, raws, cam, action, adv, ret, ec, vc)
                    arr[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    denom = max(1.0, abs(fd), abs(g[idx]))
                    assert abs(fd - g[idx]) / denom < 1e-4

    def test_matches_finite_differences_full_pipeline(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(5):
            params = rand_params(rng)
            poses, labels = rand_step(rng)
            i = int(rng.integers(0, len(poses)))
            action = int(rng.integers(0, 11))
            adv, ret = float(rng.normal()), float(rng.normal())
            ec, vc = 0.01, 0.5

            def loss():
                logits, value, _ = nn.policy_forward(params, i, poses, labels, 10.0)
                return nn.loss_value(logits, value, action, adv, ret, ec, vc)

            logits, value, cache = nn.policy_forward(params, i, poses, labels, 10.0)
            grads = nn.backward(params, cache, action, adv, ret, ec, vc)
            for name, arr in params.arrays():
                g = getattr(grads, name)
                flat_idx = rng.integers(0, arr.size, size=min(15, arr.size))
                for fi in np.unique(flat_idx):
                    idx = np.unravel_index(fi, arr.shape)
                    orig = arr[idx]
                    arr[idx] = orig + h
                    lp = loss()
                    arr[idx] = orig - h
                    lm = loss()
                    arr[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    denom = max(1.0, abs(fd), abs(g[idx]))
                    assert abs(fd - g[idx]) / denom < 1e-4

    def test_flat_loss_gives_zero_gradients(self):
        rng = np.random.default_rng(8)
        params = rand_params(rng)
        cache = nn.forward(params, rand_tuples(rng), 0, 1)
        grads = nn.backward(params, cache, 3, 0.0, cache.values, 0.0, 0.5)
        for _, arr in grads.arrays():
            assert np.allclose(arr, 0.0, atol=1e-15)

    def test_policy_gradient_linear_in_advantage(self):
        rng = np.random.default_rng(9)
        params = rand_params(rng)
        cache = nn.forward(params, rand_tuples(rng), 0, 1)
        g1 = nn.backward(params, cache, 2, 1.5, cache.values, 0.0, 0.5)
        g2 = nn.backward(params, cache, 2, 3.0, cache.values, 0.0, 0.5)
        assert np.allclose(g2.policy_w, 2.0 * g1.policy_w, atol=1e-12)
        assert np.allclose(g2.policy_b, 2.0 * g1.policy_b, atol=1e-12)

    def test_cache_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        params = rand_params(rng)
        cache = nn.forward(params, rand_tuples(rng), 0, 1)
        cache.h1 = cache.h1[:10]
        with pytest.raises(ValueError):
            nn.backward(params, cache, 0, 1.0, 0.0, 0.01, 0.5)


    @pytest.mark.parametrize("action", [11, -1])
    def test_action_index_out_of_range_rejected(self, action):
        """On a 1-D cache, and on a batched cache where one row's index is
        out of range."""
        rng = np.random.default_rng(12)
        params = rand_params(rng)
        cache = nn.forward(params, rand_tuples(rng), 0, 1)
        with pytest.raises(ValueError, match="action index out of range"):
            nn.backward(params, cache, action, 1.0, 0.0, 0.01, 0.5)
        batch = nn.forward(params, rand_tuples(rng, n_groups=2),
                           np.array([0, 0, 1]), np.array([0, 3, 2]))
        with pytest.raises(ValueError, match="action index out of range"):
            nn.backward(params, batch, np.array([0, action, 10]), np.ones(3),
                        np.zeros(3), 0.01, 0.5)


def group_tuples(groups, arena_half=10.0):
    """The (G, C, 7) tuples of G steps of (poses, labels)."""
    return np.stack([nn.raw_tuples(poses, labels, arena_half) for poses, labels in groups])


class TestBatchedBackward:
    """The batched path: rows drawn from several (env, step) groups."""

    GROUP = [0, 0, 1, 1, 2, 2, 0]
    CAM = [0, 2, 1, 3, 0, 3, 3]

    def _batch(self, seed):
        rng = np.random.default_rng(seed)
        params = rand_params(rng)
        groups = [rand_step(rng) for _ in range(3)]
        b = len(self.GROUP)
        action = rng.integers(0, 11, b)
        adv, ret = rng.normal(size=b), rng.normal(size=b)
        return params, groups, action, adv, ret

    def test_matches_finite_differences_on_every_parameter(self):
        params, groups, action, adv, ret = self._batch(11)
        raws = group_tuples(groups)
        ec, vc, h = 0.01, 0.5, 1e-5

        def loss():
            cache = nn.forward(params, raws, self.GROUP, self.CAM)
            return nn.loss_value(cache.logits, cache.values, action, adv, ret, ec, vc)

        cache = nn.forward(params, raws, self.GROUP, self.CAM)
        grads = nn.backward(params, cache, action, adv, ret, ec, vc)
        for name, arr in params.arrays():
            g = getattr(grads, name)
            assert np.any(g != 0.0), name
            for fi in range(arr.size):
                idx = np.unravel_index(fi, arr.shape)
                orig = arr[idx]
                arr[idx] = orig + h
                lp = loss()
                arr[idx] = orig - h
                lm = loss()
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(1.0, abs(fd), abs(g[idx]))
                assert abs(fd - g[idx]) / denom < 1e-4, (name, idx)

    def test_batch_gradient_is_sum_of_single_sample_gradients(self):
        params, groups, action, adv, ret = self._batch(12)
        ec, vc = 0.01, 0.5
        cache = nn.forward(params, group_tuples(groups), self.GROUP, self.CAM)
        logits, values = cache.logits, cache.values
        batch = nn.backward(params, cache, action, adv, ret, ec, vc)
        total = nn.zeros_like_params()
        for b, (g, c) in enumerate(zip(self.GROUP, self.CAM)):
            row_logits, row_value, row_cache = nn.policy_forward(params, c, *groups[g],
                                                                 10.0)
            assert np.allclose(row_logits, logits[b], atol=1e-12)
            assert row_value == pytest.approx(values[b], abs=1e-12)
            nn.backward(params, row_cache, int(action[b]), float(adv[b]),
                        float(ret[b]), ec, vc, out=total)
        for name, arr in batch.arrays():
            assert np.allclose(arr, getattr(total, name), rtol=0.0, atol=1e-12), name

    def test_batch_loss_is_sum_of_row_losses(self):
        params, groups, action, adv, ret = self._batch(13)
        cache = nn.forward(params, group_tuples(groups), self.GROUP, self.CAM)
        logits, values = cache.logits, cache.values
        rows = sum(nn.loss_value(logits[b], values[b], action[b], adv[b], ret[b],
                                 0.01, 0.5) for b in range(len(self.GROUP)))
        assert nn.loss_value(logits, values, action, adv, ret, 0.01, 0.5) \
            == pytest.approx(rows, rel=1e-12)

    def test_batched_sampling_matches_single_draws(self):
        rng = np.random.default_rng(14)
        probs = softmax(rng.normal(0.0, 2.0, (200, 11)))
        u = rng.uniform(0.0, 1.0, 200)
        batch = nn.sample_action(probs, u)
        assert [nn.sample_action(p, x) for p, x in zip(probs, u)] == batch.tolist()


class TestForwardCache:
    """What forward leaves in its cache for the sampler, the update and the
    log, bit for bit, on a 1-D cache and a batched group cache."""

    @pytest.fixture(params=["one row", "group batch"])
    def case(self, request):
        rng = np.random.default_rng(15)
        params = rand_params(rng)
        if request.param == "one row":
            raws = group_tuples([rand_step(rng)])
            rows, group, cam = (), 0, 2
        else:
            raws = group_tuples([rand_step(rng) for _ in range(3)])
            rows = (len(TestBatchedBackward.GROUP),)
            group, cam = TestBatchedBackward.GROUP, TestBatchedBackward.CAM
        action = rng.integers(0, 11, rows)
        adv, ret = rng.normal(size=rows), rng.normal(size=rows)
        return params, raws, group, cam, action, adv, ret

    def test_logp_is_log_softmax_of_logits(self, case):
        params, raws, group, cam = case[:4]
        cache = nn.forward(params, raws, group, cam)
        assert cache.logp.tobytes() == nn.log_softmax(cache.logits).tobytes()

    def test_values_are_the_value_head(self, case):
        params, raws, group, cam = case[:4]
        cache = nn.forward(params, raws, group, cam)
        head = cache.h2 @ params.value_w[0] + params.value_b[0]
        assert np.shape(cache.values) == cache.logits.shape[:-1]
        assert np.asarray(cache.values).tobytes() == np.asarray(head).tobytes()

    def test_entropy_equals_nn_entropy(self, case):
        params, raws, group, cam = case[:4]
        cache = nn.forward(params, raws, group, cam)
        assert np.shape(cache.entropy) == cache.logits.shape[:-1]
        want = nn.entropy(cache.logits)
        assert np.asarray(cache.entropy).tobytes() == np.asarray(want).tobytes()

    def test_backward_leaves_the_cache_unchanged(self, case):
        params, raws, group, cam, action, adv, ret = case
        cache = nn.forward(params, raws, group, cam)
        before = {f.name: np.array(getattr(cache, f.name))
                  for f in dataclasses.fields(cache)}
        grads = nn.backward(params, cache, action, adv, ret, 0.01, 0.5)
        assert all(np.any(arr != 0.0) for _, arr in grads.arrays())
        for name, arr in before.items():
            after = np.asarray(getattr(cache, name))
            assert after.shape == arr.shape and after.tobytes() == arr.tobytes(), name

    def test_non_finite_input_rejected(self, case):
        """A NaN in another camera's tuple of a row's group, and a NaN embed
        weight, both reach the features through the pooled embedding."""
        params, raws, group, cam = case[:4]
        bad = raws.copy()
        bad[np.atleast_1d(group)[0], 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            nn.forward(params, bad, group, cam)
        params.embed_w[3, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            nn.forward(params, raws, group, cam)


class TestSampleAction:
    @pytest.mark.parametrize("weights", [
        [1.0] * 11,
        [8.0, 0.5, 0.5, 4.0, 0.5, 0.5, 2.0, 0.5, 0.5, 1.0, 3.0],
    ], ids=["uniform", "skewed"])
    def test_sample_follows_distribution(self, weights):
        """22,000 draws with rng-stream uniforms, the sampler's uniforms in
        training: every action's frequency is within 4.5 standard errors of
        its probability."""
        probs = np.array(weights) / sum(weights)
        rng = RngStream(5, 0)
        n = 22_000
        draws = nn.sample_action(np.broadcast_to(probs, (n, 11)),
                                 np.array([rng.random() for _ in range(n)]))
        freq = np.bincount(draws, minlength=11) / n
        stderr = np.sqrt(probs * (1.0 - probs) / n)
        assert np.all(np.abs(freq - probs) <= 4.5 * stderr), (freq, probs)


class TestComputeReturns:
    def test_two_step(self):
        assert nn.compute_returns([1.0, 1.0], 0.0, 0.9) == [1.9, 1.0]

    def test_empty(self):
        assert nn.compute_returns([], 5.0, 0.9) == []

    def test_hand_recursion(self):
        assert nn.compute_returns([0.0, 0.0, 1.0], 0.0, 0.5) == [0.25, 0.5, 1.0]

    def test_bootstrap_flows_back(self):
        got = nn.compute_returns([0.0, 0.0], 8.0, 0.5)
        assert got == [2.0, 4.0]

    def test_done_stops_returns_at_the_episode_end(self):
        # two parallel sequences; the first one's episode ends at step 1
        rewards = np.array([[1.0, 1.0], [2.0, 2.0], [4.0, 4.0]])
        done = np.array([[False, False], [True, False], [False, False]])
        got = nn.compute_returns(rewards, np.array([8.0, 8.0]), 0.5, done=done)
        assert [g[0] for g in got] == [2.0, 2.0, 8.0]
        assert [g[1] for g in got] == [4.0, 6.0, 8.0]

    def test_no_done_is_bit_identical(self):
        rng = np.random.default_rng(3)
        rewards = rng.uniform(-1, 1, size=(20, 4, 3))
        boot = rng.uniform(-2, 2, size=(4, 3))
        plain = nn.compute_returns(rewards, boot, 0.95)
        masked = nn.compute_returns(rewards, boot, 0.95,
                                    done=np.zeros((20, 4, 1), dtype=bool))
        assert all(np.array_equal(a, b) for a, b in zip(plain, masked))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=1, max_size=30),
           st.floats(0.05, 0.99), st.floats(-5, 5),
           st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, rewards, gamma, boot, a, b):
        other = list(reversed(rewards))
        combined = [a * r + b * s for r, s in zip(rewards, other)]
        lhs = nn.compute_returns(combined, a * boot + b * boot, gamma)
        r1 = nn.compute_returns(rewards, boot, gamma)
        r2 = nn.compute_returns(other, boot, gamma)
        rhs = [a * x + b * y for x, y in zip(r1, r2)]
        for x, y in zip(lhs, rhs):
            assert x == pytest.approx(y, rel=1e-9, abs=1e-9)


class TestInitParams:
    def test_biases_zero(self):
        params = nn.init_params(0)
        for name, arr in params.arrays():
            if name.endswith("_b"):
                assert np.all(arr == 0.0)

    def test_deterministic(self):
        a, b = nn.init_params(12), nn.init_params(12)
        for (_, x), (_, y) in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)
        c = nn.init_params(13)
        assert not np.array_equal(a.trunk1_w, c.trunk1_w)

    def test_pinned_arrays(self):
        # the bytes of the scalar draws, before init_params drew each array
        # in one call
        digest = hashlib.sha256()
        for _, arr in nn.init_params(0).arrays():
            digest.update(arr.tobytes())
        assert digest.hexdigest() == (
            "0db56153c9272bb2d3a6d653afdc427002c7b2bf4f48c1c2748eb26be66b8b25")

    def test_trunk1_bound(self):
        params = nn.init_params(3)
        bound = math.sqrt(6.0 / 87.0)  # fan_in 23 + fan_out 64
        assert np.all(np.abs(params.trunk1_w) <= bound)
        assert np.abs(params.trunk1_w).max() > 0.8 * bound

    @pytest.mark.parametrize("name", ["embed_w", "trunk2_b", "value_w"])
    def test_wrong_shape_rejected(self, name):
        wrong = dataclasses.replace(nn.init_params(1), **{name: np.zeros((3, 3))})
        with pytest.raises(ValueError, match=f"{name} has shape"):
            wrong.validate()

    def test_shapes(self):
        params = nn.init_params(1)
        params.validate()
        assert params.embed_w.shape == (16, 7)
        assert params.trunk1_w.shape == (64, 23)
        assert params.value_w.shape == (1, 64)

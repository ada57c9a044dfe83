"""Actor-critic training loop: determinism, logging, guards."""
import hashlib
import math

import numpy as np
import pytest

from camtrack import nn, training
from camtrack.cli import cli_main
from camtrack.config import ConfigError, EpisodeConfig, TrainConfig
from camtrack.io import save_checkpoint
from camtrack.training import train_pose_controller


def tiny_train_config(**overrides):
    base = dict(total_steps=400, n_envs=4, rollout_len=10, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainPoseController:
    def test_zero_steps_leaves_params_at_init(self):
        cfg = tiny_train_config(total_steps=0)
        params, log = train_pose_controller(cfg, EpisodeConfig())
        init = nn.init_params(cfg.seed)
        for (_, a), (_, b) in zip(params.arrays(), init.arrays()):
            assert np.array_equal(a, b)
        assert log == []

    def test_same_seed_bit_identical(self):
        ep = EpisodeConfig()
        p1, log1 = train_pose_controller(tiny_train_config(), ep)
        p2, log2 = train_pose_controller(tiny_train_config(), ep)
        for (_, a), (_, b) in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)
        assert [(r.update_idx, r.mean_reward_g0, r.grad_norm) for r in log1] \
            == [(r.update_idx, r.mean_reward_g0, r.grad_norm) for r in log2]

    def test_different_seed_differs(self):
        ep = EpisodeConfig()
        p1, _ = train_pose_controller(tiny_train_config(seed=0), ep)
        p2, _ = train_pose_controller(tiny_train_config(seed=1), ep)
        assert not np.array_equal(p1.trunk1_w, p2.trunk1_w)

    def test_log_structure(self):
        cfg = tiny_train_config()
        params, log = train_pose_controller(cfg, EpisodeConfig())
        assert sum(r.n_g0 for r in log) >= cfg.total_steps
        for k, row in enumerate(log):
            assert row.update_idx == k + 1
            assert row.env_steps == (k + 1) * cfg.rollout_len * cfg.n_envs
            assert -1.0 <= row.mean_reward_g0 <= 1.0
            assert 0.0 <= row.entropy <= math.log(11) + 1e-9
            assert row.value_loss >= 0.0
            assert row.grad_norm >= 0.0
            assert row.n_g0 > 0

    def test_params_change_and_stay_finite(self):
        cfg = tiny_train_config(total_steps=2000)
        params, _ = train_pose_controller(cfg, EpisodeConfig())
        init = nn.init_params(cfg.seed)
        assert not np.array_equal(params.trunk1_w, init.trunk1_w)
        params.validate()

    def test_divergence_guard(self):
        cfg = tiny_train_config(total_steps=4000, learning_rate=1e9)
        with pytest.raises(RuntimeError):
            train_pose_controller(cfg, EpisodeConfig())

    def test_non_finite_params_trip_divergence_guard(self, monkeypatch):
        real_backward = nn.backward

        def nan_backward(*args, **kwargs):
            grads = real_backward(*args, **kwargs)
            grads.trunk1_w[0, 0] = np.nan
            return grads

        monkeypatch.setattr(nn, "backward", nan_backward)
        with pytest.raises(RuntimeError, match="diverged"):
            train_pose_controller(tiny_train_config(), EpisodeConfig())

    def test_divergence_exits_one_without_checkpoint(self, monkeypatch, tmp_path, capsys):
        real_backward = nn.backward

        def nan_backward(*args, **kwargs):
            grads = real_backward(*args, **kwargs)
            grads.policy_b[:] = np.nan
            return grads

        monkeypatch.setattr(nn, "backward", nan_backward)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_envs": 4, "rollout_len": 10}')
        out = tmp_path / "policy.ckpt"
        assert cli_main(["train", "--config", str(cfg), "--steps", "400",
                         "--out", str(out)]) == 1
        assert "diverged" in capsys.readouterr().err
        assert not out.exists()

    def test_env_steps_count_windows_without_updates(self, monkeypatch):
        simulated = []
        real_step = training.batch_step

        def counting_step(state, actions):
            simulated.extend(state.envs)
            return real_step(state, actions)

        monkeypatch.setattr(training, "batch_step", counting_step)
        cfg = TrainConfig(p_pose=0.05, n_envs=1, rollout_len=1, total_steps=40)
        _, log = train_pose_controller(cfg, EpisodeConfig())
        assert sum(r.n_g0 for r in log) >= 40
        assert log[-1].env_steps == len(simulated) == 240
        assert len(log) < 240  # some windows had no label-0 camera-step
        steps = [r.env_steps for r in log]
        assert steps == sorted(set(steps))

    def test_episodes_stop_at_the_evaluation_length(self, monkeypatch):
        # 30 does not divide 500, so episodes end inside a rollout window
        times = []
        real_step = training.batch_step

        def counting_step(state, actions):
            outcome = real_step(state, actions)
            times.extend(env.t for env in state.envs)
            return outcome

        monkeypatch.setattr(training, "batch_step", counting_step)
        cfg = TrainConfig(rollout_len=30, n_envs=1, total_steps=4000)
        train_pose_controller(cfg, EpisodeConfig())
        assert max(times) == training.DEFAULT_EPISODE_STEPS == 500
        assert times.count(500) >= 2
        # each episode counts 1, 2, ..., 500 and the next starts again at 1
        for prev, t in zip(times, times[1:]):
            assert t == (1 if prev == 500 else prev + 1)

    def test_pinned_replay_of_a_default_slice(self, tmp_path):
        params, log = train_pose_controller(TrainConfig(seed=0, total_steps=9000),
                                            EpisodeConfig())
        # the checkpoint bytes of the scalar rng draws, before training drew
        # its random numbers as arrays
        save_checkpoint(params, tmp_path / "p.ckpt")
        assert hashlib.sha256((tmp_path / "p.ckpt").read_bytes()).hexdigest() == (
            "b68ae290db1bc1bef5110e77fe7ddcfb1889c325e0cc18378ab23018fa3729f1")
        assert [r.n_g0 for r in log] == [2313, 2299, 2306, 2300]
        assert [r.env_steps for r in log] == [640, 1280, 1920, 2560]
        # the per-transition implementation's values, to full precision
        want = [0.39509327776757774, 0.15850611484545424, 0.016727460256304238,
                0.09737099827076183]
        for row, value in zip(log, want):
            assert row.mean_reward_g0 == pytest.approx(value, rel=1e-9)
        # the other logged columns, as the update computed them when it still
        # ran a second forward per rollout step
        assert [r.entropy for r in log] == [
            2.355386294232718, 2.3391432112223756, 2.340809871875339,
            2.345183639986318]
        assert [r.value_loss for r in log] == [
            30.97165395175596, 35.982970082767125, 38.20054929717217,
            38.95615358542576]
        assert [r.grad_norm for r in log] == [
            9.016786072793373, 2.7632384097778533, 3.759872584968711,
            2.6583190882048755]

    # pinned checkpoint bytes across resets: 500 is a multiple of 20, so
    # every episode ends on a window's last step, where the bootstrap is
    # zero; it is not a multiple of 7, so with rollout_len 7 episodes end
    # mid-window
    @pytest.mark.parametrize("overrides, digest", [
        (dict(seed=3, n_envs=2, rollout_len=20, total_steps=6000),
         "389ef053b453ed1cd7ce9b994925b171d84d68820fe62e407ac8c8d976528c19"),
        (dict(seed=4, n_envs=3, rollout_len=7, p_pose=0.3, total_steps=5000),
         "8e338de843f0cc07f696c0873c2610a99e97dc79359d5ff65694e14904438ade"),
    ])
    def test_pinned_replay_across_resets(self, tmp_path, overrides, digest):
        cfg = TrainConfig(**overrides)
        params, log = train_pose_controller(cfg, EpisodeConfig())
        # every env reset at least once
        assert log[-1].env_steps > training.DEFAULT_EPISODE_STEPS * cfg.n_envs
        save_checkpoint(params, tmp_path / "p.ckpt")
        assert hashlib.sha256((tmp_path / "p.ckpt").read_bytes()).hexdigest() == digest

    def test_zero_p_pose_rejected(self):
        cfg = tiny_train_config(p_pose=0.0)
        with pytest.raises(ConfigError):
            train_pose_controller(cfg, EpisodeConfig())

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            train_pose_controller(tiny_train_config(gamma=1.5), EpisodeConfig())

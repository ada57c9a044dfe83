"""Synchronous advantage actor-critic training of the pose policy.

Several independent environments step in lockstep. At every step each
camera's switcher label is drawn at random; label-1 cameras act through the
groundtruth tracker, label-0 cameras act through the sampled policy, and only
label-0 camera-steps contribute gradients. Returns are discounted over each
camera's full reward sequence so that the credit a pose action receives also
reflects the steps where the tracker took over afterwards. Every
environment starts at t = 0, so all episodes reach DEFAULT_EPISODE_STEPS on
the same step, inside a window too: the whole batch is then re-spawned, and
returns do not cross that boundary. Each rollout step runs one policy
forward; the sampler reads its log-probabilities, and the update and the log
read its cache.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import nn
from .config import DEFAULT_EPISODE_STEPS, EpisodeConfig, TrainConfig
from .controllers import batch_tracker_action, random_labels
from .rng import RngStream, advance, peek_randoms, stream_states
from .world import batch_observe, batch_step, batch_world, spawn_episode


@dataclass
class UpdateStats:
    """One row of the training log."""

    update_idx: int
    env_steps: int  # env-steps simulated so far, windows without an update included
    mean_reward_g0: float
    entropy: float
    value_loss: float
    grad_norm: float
    n_g0: int  # label-0 camera-steps in this update (not part of the CSV)


@dataclass
class _RolloutStep:
    """What the update needs of one rollout step: the forward over the
    label-0 cameras (their envs are its cache's group), their camera indices
    and sampled actions, and every camera's reward."""

    cam: np.ndarray
    cache: nn.ForwardCache
    actions: np.ndarray
    rewards: np.ndarray


def _global_norm(grads: nn.PolicyParams) -> float:
    return math.sqrt(sum(float((arr * arr).sum()) for _, arr in grads.arrays()))


def _draw_labels(agent: np.ndarray, n_cams: int, p_pose: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Every env's (n_cams,) switcher labels for its next step, and the agent
    stream states advanced past them."""
    return random_labels(peek_randoms(agent, n_cams), p_pose), advance(agent, n_cams)


def train_pose_controller(train_cfg: TrainConfig, episode_cfg: EpisodeConfig,
                          on_update: Callable[[UpdateStats], None] | None = None
                          ) -> tuple[nn.PolicyParams, list[UpdateStats]]:
    """Train the pose policy; returns the final parameters and per-update log.
    on_update, when given, receives each log row as its update finishes.

    Fully deterministic in (train_cfg.seed, configs): every environment and
    the action sampler own fixed derived rng streams, and updates are applied
    sequentially.

    The environments step in lockstep through world.batch_step. Each
    agent stream draws, per step, its labels and then one sampling uniform
    per label-0 camera in camera order: the labels one step ahead, in one
    _draw_labels call after the previous step's re-spawn (so the bootstrap
    reads them too), the uniforms in one array call at the step. A step
    builds all environments' pose tuples from the pose arrays at once and
    runs one policy forward over the label-0 cameras; the label-1 cameras'
    tracker reuses the bearings the previous step returned.
    The window keeps each step's forward cache: about 1.6 kB per label-0
    camera-step, so about 3.8 MB at the defaults and about 94 MB for a
    500-step window of 32 envs. The update adds one batched backward per
    step into the window's gradient and logs the values and entropy each
    cache holds.
    """
    train_cfg.validate()
    episode_cfg.validate()

    params = nn.init_params(train_cfg.seed)
    n_envs = train_cfg.n_envs
    n_cams = episode_cfg.n_cameras
    arena_half = episode_cfg.arena_half
    p_pose = train_cfg.p_pose

    reseed = [RngStream(train_cfg.seed, 1000 + e) for e in range(n_envs)]
    agent = stream_states(RngStream(train_cfg.seed, 2000 + e) for e in range(n_envs))
    state = batch_world([spawn_episode(episode_cfg, r.next_u64()) for r in reseed])
    outcome = batch_observe(state)
    labels, agent = _draw_labels(agent, n_cams, p_pose)

    log: list[UpdateStats] = []
    collected = 0
    env_steps = 0
    while collected < train_cfg.total_steps:
        window: list[_RolloutStep] = []
        # done[k]: the episodes ended at window step k
        done = [False] * train_cfg.rollout_len
        for k in range(train_cfg.rollout_len):
            # the j-th label-0 camera of an env samples with its j-th uniform
            g0 = labels == 0
            env, cam = np.nonzero(g0)
            rank = np.cumsum(g0, axis=1)[env, cam] - 1
            uniforms = peek_randoms(agent, n_cams)
            agent = advance(agent, g0.sum(axis=1))
            raws = nn.pose_tuples(state.origin, state.pitch, state.yaw, labels,
                                  arena_half)
            cache = nn.forward(params, raws, env, cam)
            sampled = nn.sample_action(np.exp(cache.logp), uniforms[env, rank])

            # label-1 cameras track the target, label-0 cameras take the sample
            actions = batch_tracker_action(state.pitch, state.yaw, state.zoom,
                                           outcome.bearing_pitch, outcome.bearing_yaw,
                                           outcome.distance)
            actions[env, cam] = sampled
            outcome = batch_step(state, actions)
            window.append(_RolloutStep(cam, cache, sampled, outcome.reward))
            if state.envs[0].t >= DEFAULT_EPISODE_STEPS:
                state = batch_world([spawn_episode(episode_cfg, r.next_u64())
                                     for r in reseed])
                outcome = batch_observe(state)
                done[k] = True
            labels, agent = _draw_labels(agent, n_cams, p_pose)
        env_steps += train_cfg.rollout_len * n_envs

        # bootstrap with the value of the actual next observation, under the
        # labels its step will use; zero when the episodes ended at the
        # window's last step
        bootstrap = 0.0
        if not done[-1]:
            raws = nn.pose_tuples(state.origin, state.pitch, state.yaw, labels,
                                  arena_half)
            bootstrap = nn.forward(params, raws, *np.indices(labels.shape)).values
        returns = nn.compute_returns(np.array([s.rewards for s in window]),
                                     bootstrap, train_cfg.gamma, done=done)

        count = sum(s.cam.size for s in window)
        if count == 0:
            continue
        grad_sum = nn.zeros_like_params()
        reward_sum = 0.0
        entropy_sum = 0.0
        value_loss_sum = 0.0
        for s, ret in zip(window, returns):
            if s.cam.size == 0:
                continue
            env, values = s.cache.group, s.cache.values
            ret = ret[env, s.cam]
            nn.backward(params, s.cache, s.actions, ret - values, ret,
                        train_cfg.entropy_coeff, train_cfg.value_coeff,
                        out=grad_sum)
            reward_sum += float(s.rewards[env, s.cam].sum())
            entropy_sum += float(s.cache.entropy.sum())
            value_loss_sum += float(((values - ret) ** 2).sum())

        for _, arr in grad_sum.arrays():
            arr /= count
        grad_norm = _global_norm(grad_sum)
        scale = train_cfg.learning_rate
        if grad_norm > train_cfg.grad_clip:
            scale *= train_cfg.grad_clip / grad_norm
        for name, arr in params.arrays():
            arr -= scale * getattr(grad_sum, name)

        # written so that NaN parameters fail it too
        if not params.mean_abs() <= 1e3:
            raise RuntimeError("training diverged: mean |param| is above 1e3 "
                               "or not finite")

        collected += count
        log.append(UpdateStats(
            update_idx=len(log) + 1,
            env_steps=env_steps,
            mean_reward_g0=reward_sum / count,
            entropy=entropy_sum / count,
            value_loss=value_loss_sum / count,
            grad_norm=grad_norm,
            n_g0=count,
        ))
        if on_update is not None:
            on_update(log[-1])

    return params, log

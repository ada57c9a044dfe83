"""Pose-policy network: parameters, feature encoding, forward pass and exact
analytic gradients.

The network is small on purpose: a shared per-camera embedding that is
mean-pooled (so the encoding is permutation-invariant in the other cameras),
a two-layer tanh trunk, and linear policy/value heads. Gradients are written
out by hand so training has no framework dependency and can be checked
against finite differences.

A camera's input is its pose tuple and the pooled tuples of its step:
raw_tuples builds one step's (C, 7) tuples from an episode's camera poses
and labels, and pose_tuples the same values from the arrays of a batch.
_encode, the one feature builder, embeds each group once and builds the
asked-for cameras' features. Training runs forward, whose ForwardCache
holds everything the sampler, the update and the training log read: the
tuples, embeddings and intermediates, the log-probabilities, the values and
each row's entropy. backward reads that cache and writes nothing into it, so
one forward serves a sample and its update. The greedy controller runs
greedy_actions: only the trunk and policy head over its label-0 rows. Both
read _encode and _trunk, so a greedy action is the argmax of the
log-probabilities training computes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream

N_ACTIONS = 11
RAW_SIZE = 7          # per-camera tuple: x, y, z, sin yaw, cos yaw, pitch, label
EMBED_SIZE = 16
FEATURE_SIZE = RAW_SIZE + EMBED_SIZE  # self tuple + pooled embedding = 23
HIDDEN_SIZE = 64
# pose-tuple normalizers besides arena_half: camera height in meters and
# pitch in degrees
HEIGHT_NORM = 3.0
PITCH_NORM = 60.0

# (name, shape, fan_in, fan_out) in fixed declaration order; this order is
# also the checkpoint serialization order.
PARAM_SPECS = (
    ("embed_w", (EMBED_SIZE, RAW_SIZE), RAW_SIZE, EMBED_SIZE),
    ("embed_b", (EMBED_SIZE,), None, None),
    ("trunk1_w", (HIDDEN_SIZE, FEATURE_SIZE), FEATURE_SIZE, HIDDEN_SIZE),
    ("trunk1_b", (HIDDEN_SIZE,), None, None),
    ("trunk2_w", (HIDDEN_SIZE, HIDDEN_SIZE), HIDDEN_SIZE, HIDDEN_SIZE),
    ("trunk2_b", (HIDDEN_SIZE,), None, None),
    ("policy_w", (N_ACTIONS, HIDDEN_SIZE), HIDDEN_SIZE, N_ACTIONS),
    ("policy_b", (N_ACTIONS,), None, None),
    ("value_w", (1, HIDDEN_SIZE), HIDDEN_SIZE, 1),
    ("value_b", (1,), None, None),
)


@dataclass
class PolicyParams:
    """Named weight arrays of the pose policy, always float64."""

    embed_w: np.ndarray
    embed_b: np.ndarray
    trunk1_w: np.ndarray
    trunk1_b: np.ndarray
    trunk2_w: np.ndarray
    trunk2_b: np.ndarray
    policy_w: np.ndarray
    policy_b: np.ndarray
    value_w: np.ndarray
    value_b: np.ndarray

    def arrays(self):
        """(name, array) pairs in declaration order."""
        for name, _, _, _ in PARAM_SPECS:
            yield name, getattr(self, name)

    def mean_abs(self) -> float:
        total = sum(float(np.abs(arr).sum()) for _, arr in self.arrays())
        count = sum(arr.size for _, arr in self.arrays())
        return total / count

    def validate(self) -> None:
        for name, shape, _, _ in PARAM_SPECS:
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")


def zeros_like_params() -> PolicyParams:
    return PolicyParams(**{name: np.zeros(shape)
                           for name, shape, _, _ in PARAM_SPECS})


def init_params(seed: int) -> PolicyParams:
    """Glorot-uniform weights (bound sqrt(6 / (fan_in + fan_out))), zero biases."""
    rng = RngStream(seed, 0)
    arrays = {}
    for name, shape, fan_in, fan_out in PARAM_SPECS:
        if fan_in is None:
            arrays[name] = np.zeros(shape)
        else:
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            arrays[name] = rng.uniforms(-bound, bound, math.prod(shape)).reshape(shape)
    return PolicyParams(**arrays)


@dataclass
class ForwardCache:
    """One forward over rows (group[b], cam[b]) of the pose tuples raws
    (G, C, 7): everything the sampler, the update and the training log read
    of it. The G groups of C cameras each share one mean-pooled embedding
    (embeds (G, C, 16)), and row b's features were pooled over group[b].
    Each row holds 175 floats (features, h1, h2, logits, logp, its value and
    its policy entropy) and its group index; each camera of each group 23
    floats (its tuple and embedding). A forward of one row (scalar group and
    cam) keeps 1-D arrays and a scalar value and entropy. backward reads the
    cache and writes nothing into it."""

    raws: np.ndarray
    embeds: np.ndarray
    group: np.ndarray
    features: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    logits: np.ndarray
    logp: np.ndarray
    values: np.ndarray
    entropy: np.ndarray


def pose_tuples(origin: np.ndarray, pitch: np.ndarray, yaw: np.ndarray,
                labels: np.ndarray, arena_half: float) -> np.ndarray:
    """Normalized (x, y, z, sin yaw, cos yaw, pitch, label) tuples (..., 7)
    of camera origins (..., 3), pitches, yaws and labels (...), filled one
    column at a time with raw_tuples' arithmetic. np.radians is
    math.radians' one multiplication by pi / 180; sin and cos stay in math,
    because numpy's vectorized kernels need not round as libm does, and come
    back in one array."""
    raws = np.empty(pitch.shape + (RAW_SIZE,))
    raws[..., :2] = origin[..., :2] / arena_half
    raws[..., 2] = origin[..., 2] / HEIGHT_NORM
    radians = np.radians(yaw).ravel().tolist()
    sin_cos = np.array([list(map(math.sin, radians)), list(map(math.cos, radians))])
    raws[..., 3:5] = sin_cos.T.reshape(pitch.shape + (2,))
    raws[..., 5] = pitch / PITCH_NORM
    raws[..., 6] = labels
    return raws


def raw_tuples(poses, labels, arena_half: float) -> np.ndarray:
    """pose_tuples of one step's C camera poses and their labels -> (C, 7),
    one tuple per camera: cheaper than the array builder for one step of
    one episode."""
    return np.array([(p.x / arena_half, p.y / arena_half, p.z / HEIGHT_NORM,
                      math.sin(math.radians(p.yaw_deg)),
                      math.cos(math.radians(p.yaw_deg)),
                      p.pitch_deg / PITCH_NORM, float(label))
                     for p, label in zip(poses, labels, strict=True)], dtype=float)


def _encode(params: PolicyParams, raws: np.ndarray, *rows
            ) -> tuple[np.ndarray, np.ndarray]:
    """Features (..., 23) of the cameras raws[rows] of the tuples raws
    (..., C, 7), each its own tuple followed by its group's mean embedding,
    and the embeddings (..., C, 16). rows indexes the leading axes, camera
    last (index arrays, a boolean mask or scalars); each group is embedded
    once."""
    embeds = np.tanh(raws @ params.embed_w.T + params.embed_b)
    pooled = np.add.reduce(embeds, axis=-2) / raws.shape[-2]
    own = raws[rows]
    features = np.empty(own.shape[:-1] + (FEATURE_SIZE,))
    features[..., :RAW_SIZE] = own
    features[..., RAW_SIZE:] = pooled[rows[:-1]]
    return features, embeds


def build_features(params: PolicyParams, self_index: int, poses, labels,
                   arena_half: float) -> np.ndarray:
    """Observation vector for one camera: its own normalized pose tuple
    concatenated with the mean embedding of all cameras' tuples."""
    return _encode(params, raw_tuples(poses, labels, arena_half), self_index)[0]


def _trunk(params: PolicyParams, features: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two tanh trunk layers and the policy head on features (..., 23)
    -> (h1, h2, logits); forward and greedy_actions run it on _encode's."""
    h1 = np.tanh(features @ params.trunk1_w.T + params.trunk1_b)
    h2 = np.tanh(h1 @ params.trunk2_w.T + params.trunk2_b)
    return h1, h2, h2 @ params.policy_w.T + params.policy_b


def forward(params: PolicyParams, raws: np.ndarray, group, cam) -> ForwardCache:
    """Embedding, trunk and heads for rows (group[b], cam[b]) of the pose
    tuples raws (G, C, 7), each group embedded once -> their ForwardCache.
    Index arrays of any one shape (...) give logits (..., 11) and values
    (...); scalar group and cam give one 1-D row."""
    raws = np.asarray(raws, dtype=float)
    if raws.ndim != 3 or raws.shape[-1] != RAW_SIZE:
        raise ValueError(f"raws must have shape (G, C, {RAW_SIZE}), got {raws.shape}")
    features, embeds = _encode(params, raws, group, cam)
    if not np.isfinite(features).all():
        raise ValueError("features contain non-finite values")
    h1, h2, logits = _trunk(params, features)
    values = h2 @ params.value_w[0] + params.value_b[0]
    logp = log_softmax(logits)
    return ForwardCache(raws, embeds, np.atleast_1d(group), features, h1, h2,
                        logits, logp, values, _entropy(logp))


def policy_forward(params: PolicyParams, self_index: int, poses, labels,
                   arena_half: float) -> tuple[np.ndarray, float, ForwardCache]:
    """Full pipeline from one step's camera poses and labels for one camera,
    the batch-of-one case of forward -> (logits, value, cache)."""
    cache = forward(params, raw_tuples(poses, labels, arena_half)[None], 0,
                    self_index)
    return cache.logits, float(cache.values), cache


def greedy_actions(params: PolicyParams, raws: np.ndarray) -> np.ndarray:
    """Greedy action indices of the label-0 cameras of one step's pose
    tuples raws (C, 7), in camera order: the argmax (lowest index on ties)
    of the logp forward gives those rows, by the same _encode features and
    _trunk arithmetic, with no value head, entropy or cache."""
    features, _ = _encode(params, raws, raws[:, 6] == 0.0)
    if not np.isfinite(features).all():
        raise ValueError("features contain non-finite values")
    return log_softmax(_trunk(params, features)[2]).argmax(axis=-1)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis."""
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def _entropy(logp: np.ndarray) -> np.ndarray:
    """Entropy over the last axis from log-probabilities."""
    p = np.exp(logp)
    return -(p * np.where(p > 0.0, logp, 0.0)).sum(axis=-1)


def entropy(logits: np.ndarray):
    """Shannon entropy of the action distribution, in nats: a float for one
    logit vector, an array over the leading axes of a batch."""
    h = _entropy(log_softmax(logits))
    return float(h) if h.ndim == 0 else h


def loss_value(logits: np.ndarray, value, action, advantage, return_target,
               entropy_coeff: float, value_coeff: float) -> float:
    """Actor-critic loss, summed over the rows of a batch; the quantity
    backward() differentiates."""
    logp = log_softmax(logits)
    picked = np.take_along_axis(logp, np.asarray(action)[..., None], axis=-1)[..., 0]
    return float(np.sum(-picked * advantage
                        + value_coeff * (np.asarray(value) - return_target) ** 2
                        - entropy_coeff * entropy(logits)))


def backward(params: PolicyParams, cache: ForwardCache, action, advantage,
             return_target, entropy_coeff: float, value_coeff: float,
             out: PolicyParams | None = None) -> PolicyParams:
    """Exact gradients of the actor-critic loss

        L = sum over rows of  -log pi(action) * advantage
                              + value_coeff * (value - return_target)^2
                              - entropy_coeff * H(pi)

    with respect to every parameter array, from forward's cache (its logp,
    values and entropy included). action, advantage and return_target are
    scalars for a 1-D cache and per-row arrays for a batch; the advantage is
    treated as a constant. The gradients are added to out when given, else
    to fresh zeros; returns the PolicyParams holding them.
    """
    f = np.atleast_2d(cache.features)
    h1 = np.atleast_2d(cache.h1)
    h2 = np.atleast_2d(cache.h2)
    logp = np.atleast_2d(cache.logp)
    rows = f.shape[0]
    if (f.shape != (rows, FEATURE_SIZE) or h1.shape != (rows, HIDDEN_SIZE)
            or h2.shape != (rows, HIDDEN_SIZE) or logp.shape != (rows, N_ACTIONS)):
        raise ValueError("cache does not match the parameter shapes")
    action = np.broadcast_to(np.asarray(action, dtype=np.intp), (rows,))
    if ((action < 0) | (action >= N_ACTIONS)).any():
        raise ValueError(f"action index out of range in {action}")
    advantage = np.broadcast_to(np.asarray(advantage, dtype=float), (rows,))
    return_target = np.broadcast_to(np.asarray(return_target, dtype=float), (rows,))
    p = np.exp(logp)
    ent = np.atleast_1d(cache.entropy)
    value = np.atleast_1d(cache.values)

    # policy head: d(-logp[a] * A)/dlogits = A * (p - onehot)
    d_logits = advantage[:, None] * p
    d_logits[np.arange(rows), action] -= advantage
    # entropy bonus: d(-H)/dlogits = p * (logp + H)
    d_logits += entropy_coeff * p * np.where(p > 0.0, logp + ent[:, None], 0.0)
    d_value = 2.0 * value_coeff * (value - return_target)

    grads = zeros_like_params() if out is None else out
    grads.policy_w += d_logits.T @ h2
    grads.policy_b += d_logits.sum(axis=0)
    grads.value_w[0] += d_value @ h2
    grads.value_b[0] += d_value.sum()

    d_h2 = d_logits @ params.policy_w + d_value[:, None] * params.value_w[0]
    d_z2 = d_h2 * (1.0 - h2 * h2)
    grads.trunk2_w += d_z2.T @ h1
    grads.trunk2_b += d_z2.sum(axis=0)

    d_h1 = d_z2 @ params.trunk2_w
    d_z1 = d_h1 * (1.0 - h1 * h1)
    grads.trunk1_w += d_z1.T @ f
    grads.trunk1_b += d_z1.sum(axis=0)

    # each group's pooled embedding collects the gradient of all its rows;
    # mean pooling spreads it evenly over the group's cameras
    raws, embeds = cache.raws, cache.embeds
    d_pooled = np.zeros((raws.shape[0], EMBED_SIZE))
    np.add.at(d_pooled, cache.group, d_z1 @ params.trunk1_w[:, RAW_SIZE:])
    d_z_embed = (d_pooled[:, None, :] / raws.shape[1]) * (1.0 - embeds * embeds)
    d_z_embed = d_z_embed.reshape(-1, EMBED_SIZE)
    grads.embed_w += d_z_embed.T @ raws.reshape(-1, RAW_SIZE)
    grads.embed_b += d_z_embed.sum(axis=0)
    return grads


def compute_returns(rewards, bootstrap, gamma: float, done=None) -> list:
    """Discounted returns G_t = r_t + gamma * G_{t+1}, seeded with the
    bootstrap value past the final reward. rewards is indexed by time first;
    each rewards[t] and the bootstrap may also be arrays of parallel
    sequences, which gives one list entry per step holding all of them.
    done[t], broadcast against rewards[t], marks the sequences whose episode
    ended at step t: their G_t is r_t alone, with no bootstrap."""
    returns = [0.0] * len(rewards)
    acc = bootstrap
    for i in range(len(rewards) - 1, -1, -1):
        if done is not None:
            acc = np.where(done[i], 0.0, acc)
        acc = rewards[i] + gamma * acc
        returns[i] = acc
    return returns


def sample_action(probs: np.ndarray, u):
    """Inverse-CDF draw from a probability vector using a uniform u in [0, 1):
    the first index whose cumulative probability exceeds u, the last index if
    none does. probs (B, 11) with u (B,) draws one index per row."""
    cdf = np.cumsum(probs[..., :-1], axis=-1)
    idx = (cdf <= np.asarray(u)[..., None]).sum(axis=-1)
    return int(idx) if idx.ndim == 0 else idx

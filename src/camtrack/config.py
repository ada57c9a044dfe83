"""Episode and training configuration with strict JSON loading.

A config file is one flat JSON object; every key is optional and falls back
to the defaults below, unknown and repeated keys are rejected outright so
typos cannot silently change an experiment. Each key is a field of
EpisodeConfig or TrainConfig, and the field's type is the value's kind.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import get_origin, get_type_hints


class ConfigError(ValueError):
    """Raised for malformed or out-of-range configuration."""


# physical upper bounds of the range keys: heights in m, speed in m per step
# (obstacle sizes are bounded by the arena instead)
_RANGE_MAX = {"obstacle_height_range": 20.0, "target_speed_range": 1.0,
              "camera_height_range": 20.0}
# the smallest p_pose: training runs until it has collected total_steps pose
# transitions, and at 0.01 with two cameras one takes 50 env-steps on average
MIN_P_POSE = 0.01
# the length of an evaluation episode; training resets an env at it too
DEFAULT_EPISODE_STEPS = 500


def check_seed(name: str, seed: int) -> None:
    """Reject a seed outside [0, 2**64): the rng streams would reduce it
    modulo 2**64 and silently replay another seed."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"{name} must be an unsigned 64-bit integer, got {seed}")


def _require_finite(cfg) -> None:
    """Reject NaN and +-Infinity in any float field or range bound."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite, got {value}")


@dataclass
class EpisodeConfig:
    """Arena layout ranges used to randomize each episode."""

    arena_half: float = 10.0
    n_cameras: int = 4
    n_obstacles: int = 8
    obstacle_size_range: tuple[float, float] = (0.5, 3.0)
    obstacle_height_range: tuple[float, float] = (1.0, 2.5)
    target_speed_range: tuple[float, float] = (0.05, 0.2)
    camera_height_range: tuple[float, float] = (2.0, 3.0)

    def validate(self) -> None:
        _require_finite(self)
        if not 5.0 <= self.arena_half <= 20.0:
            raise ConfigError(f"arena_half must be in [5, 20], got {self.arena_half}")
        if not 2 <= self.n_cameras <= 8:
            raise ConfigError(f"n_cameras must be in [2, 8], got {self.n_cameras}")
        if not 0 <= self.n_obstacles <= 15:
            raise ConfigError(f"n_obstacles must be in [0, 15], got {self.n_obstacles}")
        for key in (f.name for f in fields(self) if _KEYS[f.name][1] is tuple):
            lo, hi = getattr(self, key)
            if not (0.0 < lo < hi):
                raise ConfigError(f"{key} must satisfy 0 < lo < hi, got ({lo}, {hi})")
            if key in _RANGE_MAX and hi > _RANGE_MAX[key]:
                raise ConfigError(f"{key} upper bound must be at most "
                                  f"{_RANGE_MAX[key]}, got {hi}")
        if self.obstacle_size_range[1] >= 2.0 * self.arena_half:
            raise ConfigError("obstacle_size_range upper bound does not fit in the arena")


@dataclass
class TrainConfig:
    """Hyperparameters of the synchronous actor-critic training loop.

    total_steps counts pose-controller (label 0) camera-steps, i.e. the
    number of transitions that actually contribute gradients.
    """

    gamma: float = 0.95
    learning_rate: float = 0.1
    entropy_coeff: float = 0.005
    value_coeff: float = 0.5
    rollout_len: int = 20
    n_envs: int = 32
    grad_clip: float = 5.0
    total_steps: int = 300_000
    p_pose: float = 0.9
    seed: int = 0

    def validate(self) -> None:
        _require_finite(self)
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"gamma must be in (0, 1), got {self.gamma}")
        for key in ("learning_rate", "entropy_coeff", "value_coeff", "grad_clip"):
            if not getattr(self, key) > 0.0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        for key in ("rollout_len", "n_envs"):
            if not getattr(self, key) >= 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        # returns stop at the episode boundary, so a longer window would only
        # delay the first update
        if self.rollout_len > DEFAULT_EPISODE_STEPS:
            raise ConfigError(f"rollout_len must be at most the episode length "
                              f"{DEFAULT_EPISODE_STEPS}, got {self.rollout_len}")
        if self.total_steps < 0:
            raise ConfigError(f"total_steps must be >= 0, got {self.total_steps}")
        if not MIN_P_POSE <= self.p_pose <= 1.0:
            raise ConfigError(f"p_pose must be in [{MIN_P_POSE}, 1], got {self.p_pose}")
        check_seed("seed", self.seed)


# each config key's class and kind, read from its field's type: int, float,
# or tuple for a [lo, hi] pair of floats
_KEYS = {key: (cls, get_origin(hint) or hint)
         for cls in (EpisodeConfig, TrainConfig)
         for key, hint in get_type_hints(cls).items()}


def _float(key: str, value) -> float:
    """float(value); an integer beyond the float range raises a ConfigError
    naming key instead of float's OverflowError."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key} has an integer too large for a float") from None


def _coerce(key: str, kind: type, value):
    """value read as key's kind; a value of another kind raises."""
    if kind is tuple:
        if (not isinstance(value, (list, tuple)) or len(value) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
            raise ConfigError(f"{key} must be a [lo, hi] pair of numbers")
        return (_float(key, value[0]), _float(key, value[1]))
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return _float(key, value)


def _reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    """object_pairs_hook for json: json keeps the last of a repeated key,
    which would let a pasted line silently override an earlier one."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"duplicate config key: {key!r}")
        data[key] = value
    return data


def load_config(path: str | Path) -> tuple[EpisodeConfig, TrainConfig]:
    """Parse a flat JSON config into (EpisodeConfig, TrainConfig).

    Missing keys take defaults; unknown, repeated and out-of-range keys
    raise ConfigError naming the offending key, and so does a file that
    cannot be read.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except ConfigError:
        raise
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal past Python's int-string
        # digit limit, which json reports as a plain ValueError
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must contain a single JSON object")

    kwargs = {EpisodeConfig: {}, TrainConfig: {}}
    for key, value in data.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key: {key!r}")
        cls, kind = _KEYS[key]
        kwargs[cls][key] = _coerce(key, kind, value)

    episode, train = (cls(**kw) for cls, kw in kwargs.items())
    episode.validate()
    train.validate()
    return episode, train


def save_config(episode: EpisodeConfig, train: TrainConfig, path: str | Path) -> None:
    """Write the canonical form: every key explicit, keys sorted."""
    data = asdict(episode) | asdict(train)
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")

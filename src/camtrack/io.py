"""Checkpoint, episode-log and CSV persistence.

Checkpoints are a small binary format so parameters round-trip bit-exactly;
episode logs are JSONL with floats cut to 9 significant digits; training and
comparison results are plain CSV.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .evaluate import StepRecord, SystemSummary
from .nn import PARAM_SPECS, PolicyParams
from .training import UpdateStats

CHECKPOINT_MAGIC = b"CMCP"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Raised when a checkpoint file cannot be read back."""


def save_checkpoint(params: PolicyParams, path: str | Path) -> None:
    """Binary layout: magic, version u32, then per array (declaration order):
    name length u32, name bytes, rank u32, dims u32 each, float64 LE values."""
    params.validate()
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    for name, arr in params.arrays():
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path: str | Path) -> PolicyParams:
    data = Path(path).read_bytes()
    view = memoryview(data)
    offset = 0

    def take(n: int) -> memoryview:
        nonlocal offset
        if offset + n > len(view):
            raise CheckpointError(f"checkpoint {path} is truncated")
        piece = view[offset:offset + n]
        offset += n
        return piece

    if bytes(take(4)) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"checkpoint {path} has bad magic bytes")
    version = struct.unpack("<I", take(4))[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint {path} has unsupported version {version}")

    arrays = {}
    for name, shape, _, _ in PARAM_SPECS:
        name_len = struct.unpack("<I", take(4))[0]
        stored = bytes(take(name_len)).decode("utf-8", errors="replace")
        if stored != name:
            raise CheckpointError(f"expected array {name!r}, found {stored!r}")
        rank = struct.unpack("<I", take(4))[0]
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        if dims != shape:
            raise CheckpointError(f"array {name!r} has shape {dims}, expected {shape}")
        count = int(np.prod(shape))
        values = np.frombuffer(take(8 * count), dtype="<f8").astype(float)
        arrays[name] = values.reshape(shape)
    if offset != len(view):
        raise CheckpointError(f"checkpoint {path} has {len(view) - offset} "
                              "trailing bytes")
    params = PolicyParams(**arrays)
    try:
        params.validate()
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from None
    return params


def _round9(x: float) -> float:
    # 9 significant digits; the reparsed value's shortest repr stays short
    return float(format(x, ".9g"))


def write_episode_log(records: list[StepRecord], path: str | Path) -> None:
    """One JSON object per step; see the record schema in the README."""
    lines = []
    for rec in records:
        cams = []
        for i in range(len(rec.poses)):
            p = rec.poses[i]
            cams.append({
                "pose": [_round9(p.x), _round9(p.y), _round9(p.z),
                         _round9(p.pitch_deg), _round9(p.yaw_deg), _round9(p.zoom)],
                "action": rec.actions[i],
                "vis": rec.visibility[i].value,
                "g": rec.labels[i],
                "r": _round9(rec.rewards[i]),
                "da": _round9(rec.d_alpha[i]),
                "db": _round9(rec.d_beta[i]),
                "dxi": _round9(rec.d_xi[i]),
            })
        obj = {"t": rec.t,
               "target": [_round9(v) for v in rec.target],
               "cams": cams}
        # strict JSON: a non-finite value is a fault, not a bare NaN token
        lines.append(json.dumps(obj, separators=(",", ":"), allow_nan=False))
    text = "\n".join(lines)
    if lines:
        text += "\n"
    Path(path).write_text(text, encoding="utf-8")


TRAIN_LOG_COLUMNS = ("update_idx", "env_steps", "mean_reward_g0",
                     "entropy", "value_loss", "grad_norm")


def write_train_log(rows: list[UpdateStats], path: str | Path) -> None:
    lines = [",".join(TRAIN_LOG_COLUMNS)]
    for r in rows:
        lines.append(f"{r.update_idx},{r.env_steps},{r.mean_reward_g0!r},"
                     f"{r.entropy!r},{r.value_loss!r},{r.grad_norm!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_comparison_csv(summaries: list[SystemSummary], path: str | Path) -> None:
    lines = ["system,scope,mean_error_mean,mean_error_std,"
             "success_rate_mean,success_rate_std"]
    for s in summaries:
        for i, (me, sr) in enumerate(zip(s.per_camera_me, s.per_camera_sr)):
            lines.append(f"{s.name},cam_{i + 1},{me[0]!r},{me[1]!r},{sr[0]!r},{sr[1]!r}")
        me, sr = s.mean_error, s.success_rate
        lines.append(f"{s.name},overall,{me[0]!r},{me[1]!r},{sr[0]!r},{sr[1]!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

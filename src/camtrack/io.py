"""Checkpoint, episode-log and CSV persistence.

Checkpoints are a small binary format so parameters round-trip bit-exactly;
episode logs are JSONL with floats cut to 9 significant digits, each line
formatted directly from its record: pose and target-height floats, which
repeat from step to step, are formatted once per file, and the per-step
reward, errors and target x and y each time they occur; training and
comparison results are plain CSV: the training log one row of
TRAIN_LOG_COLUMNS per update as it finishes, the comparison one row per
SystemSummary.rows() entry.
"""
from __future__ import annotations

import math
import struct
from collections.abc import Callable, Iterator
from contextlib import contextmanager
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
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
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


def _json_float(x: float) -> str:
    """JSON text of x cut to 9 significant digits: the shortest repr of the
    float that format(x, ".9g") spells. That spelling is already the repr
    when it has a point and no exponent; integral values ("1", "-0") and
    exponent forms (".9g" switches at 1e9, repr only at 1e16) go through
    repr. Non-finite values raise, as json.dumps(..., allow_nan=False) does."""
    s = format(x, ".9g")
    if "." in s and "e" not in s:
        return s
    value = float(s)
    if not math.isfinite(value):
        raise ValueError("Out of range float values are not JSON compliant")
    return repr(value)


class _FloatText(dict):
    """_json_float's text of each float value met in one file, made on first
    use. Zeros are formatted every time: 0.0 and -0.0 are one key but two
    spellings."""

    __slots__ = ()

    def __missing__(self, x: float) -> str:
        text = _json_float(x)
        if x:
            self[x] = text
        return text


def write_episode_log(records: list[StepRecord], path: str | Path) -> None:
    """One JSON object per step, formatted straight into its line; see the
    record schema in the README. Pose floats and the target's height repeat
    from step to step and are formatted once per file; the reward, the three
    errors and the target's x and y almost never repeat and go straight to
    _json_float. Strict JSON: a non-finite value raises ValueError and no
    file is written."""
    f = _FloatText()
    j = _json_float
    lines = []
    # vis._value_ is vis.value read straight from the member: the Enum
    # property costs about 90 ns per read
    for rec in records:
        cams = ",".join(
            f'{{"pose":[{f[p.x]},{f[p.y]},{f[p.z]},{f[p.pitch_deg]},{f[p.yaw_deg]},'
            f'{f[p.zoom]}],"action":{a},"vis":"{vis._value_}","g":{g},"r":{j(r)},'
            f'"da":{j(da)},"db":{j(db)},"dxi":{j(dxi)}}}'
            for p, a, vis, g, r, da, db, dxi in zip(
                rec.poses, rec.actions, rec.visibility, rec.labels, rec.rewards,
                rec.d_alpha, rec.d_beta, rec.d_xi))
        x, y, z = rec.target
        lines.append(f'{{"t":{rec.t},"target":[{j(x)},{j(y)},{f[z]}],"cams":[{cams}]}}')
    text = "\n".join(lines)
    if lines:
        text += "\n"
    Path(path).write_text(text, encoding="utf-8")


TRAIN_LOG_COLUMNS = ("update_idx", "env_steps", "mean_reward_g0",
                     "entropy", "value_loss", "grad_norm")


@contextmanager
def train_log_writer(path: str | Path) -> Iterator[Callable[[UpdateStats], None]]:
    """Create the training-log CSV at path, write its header at once, and
    yield a function that appends one row and flushes it, so a run that
    stops early keeps the rows of its finished updates."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(TRAIN_LOG_COLUMNS) + "\n")
        f.flush()

        def append(r: UpdateStats) -> None:
            f.write(",".join(repr(getattr(r, key)) for key in TRAIN_LOG_COLUMNS) + "\n")
            f.flush()

        yield append


def write_comparison_csv(summaries: list[SystemSummary], path: str | Path) -> None:
    lines = ["system,scope,mean_error_mean,mean_error_std,"
             "success_rate_mean,success_rate_std"]
    lines += [f"{s.name},{scope},{me[0]!r},{me[1]!r},{sr[0]!r},{sr[1]!r}"
              for s in summaries for scope, me, sr in s.rows()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

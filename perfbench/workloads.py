"""The three benchmark workloads, each a closed loop run by one client.

A workload is built from the benchmark seed alone. ``prepare`` makes the
configs, parameters and the list of units (this is part of set-up time). A
unit is one call the CLI subcommand would make, with its output write;
``run_unit`` makes it and is the only timed part. ``describe`` digests the
unit's outputs and ``failed_ops`` checks them, both outside the timer. A round
runs every unit once, and every round of a run repeats the same units, so a
unit must produce the same digest each time.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from camtrack import evaluate, io, nn, training
from camtrack.config import EpisodeConfig, TrainConfig


@dataclass
class UnitOutput:
    """What one unit produced, as far as the checks need it."""

    digest: str
    ops: int                  # updates (train) or episodes (compare, eval_learned)
    camera_steps: int         # camera-steps simulated
    transitions: int = 0      # label-0 transitions consumed by updates
    log_bytes: int = 0        # JSONL bytes written by write_episode_log
    quality: dict[str, float] = field(default_factory=dict)
    payload: object = None    # program outputs kept for the full check


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _reject_constant(token: str):
    raise ValueError(f"non-strict JSON token {token}")


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = math.fsum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values)
                           / (len(values) - 1))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    name = ""
    op_name = ""

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.episode_cfg = EpisodeConfig()
        self.units: list = []

    def prepare(self) -> None:
        """Configs, parameters and units; counted in set-up time."""
        raise NotImplementedError

    def run_unit(self, unit) -> object:
        """The timed program calls of one unit; returns their raw outputs."""
        raise NotImplementedError

    def describe(self, unit, raw: object) -> UnitOutput:
        raise NotImplementedError

    def failed_ops(self, unit, out: UnitOutput) -> list[str]:
        """One message per failed operation of a unit (full output check)."""
        raise NotImplementedError

    def round_digest(self, outs: list[UnitOutput]) -> str:
        """Digest of a whole round's outputs."""
        if len(outs) == 1:
            return outs[0].digest
        return hashlib.sha256("".join(o.digest for o in outs).encode()).hexdigest()

    def quality(self, outs: list[UnitOutput]) -> dict[str, float]:
        """The workload's result metrics, averaged over one round's units."""
        return {key: math.fsum(o.quality[key] for o in outs) / len(outs)
                for key in outs[0].quality}


class Train(Workload):
    """``camtrack train --seed S --steps N``: A2C with the default TrainConfig
    on a slice of N pose-controller transitions (four updates), then the
    checkpoint write."""

    name = "train"
    op_name = "updates"

    def __init__(self, seed: int, out_dir: Path, total_steps: int = 9000) -> None:
        super().__init__(seed, out_dir)
        self.total_steps = total_steps

    def prepare(self) -> None:
        cfg = TrainConfig(seed=self.seed, total_steps=self.total_steps)
        cfg.validate()
        self.units = [(cfg, self.out_dir / "policy.ckpt")]

    def run_unit(self, unit) -> object:
        cfg, ckpt = unit
        params, log = training.train_pose_controller(cfg, self.episode_cfg)
        io.save_checkpoint(params, ckpt)
        return params, log

    def describe(self, unit, raw) -> UnitOutput:
        cfg, ckpt = unit
        params, log = raw
        tail = log[-max(1, len(log) // 4):]
        return UnitOutput(
            digest=_sha256(ckpt),
            ops=len(log),
            camera_steps=len(log) * cfg.rollout_len * cfg.n_envs
            * self.episode_cfg.n_cameras,
            transitions=sum(u.n_g0 for u in log),
            quality={"train_reward": math.fsum(u.mean_reward_g0 for u in tail)
                     / len(tail)},
            payload=(params, log))

    def failed_ops(self, unit, out) -> list[str]:
        cfg, ckpt = unit
        params, log = out.payload
        bad = []
        for u in log:
            if not (_finite(u.mean_reward_g0, u.entropy, u.value_loss, u.grad_norm)
                    and -1.0 <= u.mean_reward_g0 <= 1.0 and u.n_g0 > 0):
                bad.append(f"seed {cfg.seed} update {u.update_idx}: {u}")
        if [u.update_idx for u in log] != list(range(1, len(log) + 1)):
            bad.append(f"seed {cfg.seed}: update indices are not 1..n")
        if out.transitions < cfg.total_steps:
            bad.append(f"seed {cfg.seed}: {out.transitions} transitions < "
                       f"total_steps {cfg.total_steps}")
        loaded = io.load_checkpoint(ckpt)
        for (name, a), (_, b) in zip(params.arrays(), loaded.arrays()):
            if not np.array_equal(a, b):
                bad.append(f"seed {cfg.seed}: checkpoint array {name} does not "
                           "round-trip")
        return bad


class Compare(Workload):
    """``camtrack compare --systems sv,geometric --switcher oracle --seeds N``:
    paired 500-step episodes, then the comparison CSV."""

    name = "compare"
    op_name = "episodes"
    systems = ("sv", "geometric")

    def __init__(self, seed: int, out_dir: Path, n_seeds: int = 12,
                 steps: int = evaluate.DEFAULT_EPISODE_STEPS) -> None:
        super().__init__(seed, out_dir)
        self.n_seeds = n_seeds
        self.steps = steps

    def prepare(self) -> None:
        self.episode_cfg.validate()
        self.units = [(self.seed * 1000, self.out_dir / "comparison.csv")]

    def run_unit(self, unit) -> object:
        base_seed, csv = unit
        summaries = evaluate.compare_systems(
            self.episode_cfg, list(self.systems), self.n_seeds, steps=self.steps,
            switcher="oracle", base_seed=base_seed)
        io.write_comparison_csv(summaries, csv)
        return summaries

    def describe(self, unit, raw) -> UnitOutput:
        geometric = raw[self.systems.index("geometric")]
        return UnitOutput(
            digest=_sha256(unit[1]),
            ops=len(self.systems) * self.n_seeds,
            camera_steps=len(self.systems) * self.n_seeds * self.steps
            * self.episode_cfg.n_cameras,
            quality={"success_rate": geometric.success_rate[0],
                     "mean_error_deg": geometric.mean_error[0]},
            payload=raw)

    def failed_ops(self, unit, out) -> list[str]:
        """Every summary against its mean and sample std recomputed here
        from the rollouts' own step records; an episode whose own metrics
        are not finite or out of range fails."""
        base_seed, _ = unit
        bad = []
        for s in out.payload:
            me_eps, sr_eps = [], []
            for k in range(self.n_seeds):
                records = evaluate.run_episode(self.episode_cfg, s.name, "oracle",
                                               seed=base_seed + k, steps=self.steps)
                cams = range(len(records[0].poses))
                me = math.fsum(math.fsum((r.d_alpha[i] + r.d_beta[i]) * 0.5
                                         for r in records) / len(records)
                               for i in cams) / len(cams)
                sr = math.fsum(sum(r.visibility[i].value != "X" for r in records)
                               / len(records) for i in cams) / len(cams)
                if not (math.isfinite(me) and me >= 0.0 and 0.0 <= sr <= 1.0):
                    bad.append(f"{s.name} episode {base_seed + k}: ME {me} SR {sr}")
                me_eps.append(me)
                sr_eps.append(sr)
            for label, got, eps in (("mean_error", s.mean_error, me_eps),
                                    ("success_rate", s.success_rate, sr_eps)):
                want = _mean_std(eps)
                if not all(math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-12)
                           for g, w in zip(got, want)):
                    bad.append(f"{s.name} {label} {got!r} != recomputed {want!r}")
        return bad


class EvalLearned(Workload):
    """``camtrack eval --controller learned --switcher random:0.5
    --episode-log DIR`` with weights from ``nn.init_params(seed)``. One unit
    per episode: rollout, JSONL write and episode report."""

    name = "eval_learned"
    op_name = "episodes"

    def __init__(self, seed: int, out_dir: Path, episodes: int = 12,
                 steps: int = evaluate.DEFAULT_EPISODE_STEPS) -> None:
        super().__init__(seed, out_dir)
        self.episodes = episodes
        self.steps = steps

    def prepare(self) -> None:
        self.episode_cfg.validate()
        self.params = nn.init_params(self.seed)
        self.units = [(self.seed * 1000 + k,
                       self.out_dir / f"episode_{self.seed * 1000 + k}.jsonl")
                      for k in range(self.episodes)]

    def run_unit(self, unit) -> object:
        seed, path = unit
        records = evaluate.run_episode(self.episode_cfg, "learned", "random:0.5",
                                       params=self.params, seed=seed, steps=self.steps)
        io.write_episode_log(records, path)
        return evaluate.episode_report(records)

    def describe(self, unit, raw) -> UnitOutput:
        data = unit[1].read_bytes()
        return UnitOutput(
            digest=hashlib.sha256(data).hexdigest(),
            ops=1,
            camera_steps=self.steps * self.episode_cfg.n_cameras,
            log_bytes=len(data),
            quality={"success_rate": raw.success_rate,
                     "mean_error_deg": raw.mean_error},
            payload=(raw, data))

    def round_digest(self, outs: list[UnitOutput]) -> str:
        """sha256 of the round's JSONL logs, concatenated in episode order."""
        return hashlib.sha256(b"".join(o.payload[1] for o in outs)).hexdigest()

    def failed_ops(self, unit, out) -> list[str]:
        """Each JSONL line must be strict JSON with rewards in [-1, 1], and the
        report must match metrics recomputed from the logged (9-digit) values."""
        report, data = out.payload
        try:
            steps = [json.loads(line, parse_constant=_reject_constant)
                     for line in data.decode("utf-8").splitlines()]
            if len(steps) != self.steps:
                raise ValueError(f"{len(steps)} lines, expected {self.steps}")
            cams = [c for s in steps for c in s["cams"]]
            if any(not -1.0 <= c["r"] <= 1.0 for c in cams):
                raise ValueError("reward outside [-1, 1]")
            sr = sum(c["vis"] != "X" for c in cams) / len(cams)
            me = math.fsum((c["da"] + c["db"]) * 0.5 for c in cams) / len(cams)
            if not (_finite(report.mean_error, report.success_rate)
                    and math.isclose(report.success_rate, sr, abs_tol=1e-12)
                    and math.isclose(report.mean_error, me, rel_tol=1e-6,
                                     abs_tol=1e-6)):
                raise ValueError(f"report ME {report.mean_error} SR "
                                 f"{report.success_rate} vs log ME {me} SR {sr}")
        except (ValueError, KeyError, TypeError) as exc:
            return [f"episode {unit[0]}: {exc}"]
        return []


WORKLOADS = {w.name: w for w in (Train, Compare, EvalLearned)}

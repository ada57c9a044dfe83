"""Episode rollout under a chosen controller/switcher pair, tracking metrics,
and paired multi-seed system comparisons.

run_episode rolls one episode and records every step; it serves eval,
rollout and the JSONL logs. It has the array path's shape: it observes each
state once (world.observe, inside world.step) and makes one system_action
call per step with that observation and the step's labels, as run_lockstep
makes one batch_system_action call per step. compare_systems rolls every
compared system in one lockstep batch through run_lockstep: each step makes
one world step, one observation and one tracker call for all (system, seed)
episodes, at most LOCKSTEP_EPISODES of them at a time, and keeps only what
the metrics need; at one episode the scalar path is the faster one.
Both paths share one run check (check_run, which the CLI also calls before
any output), one switcher draw (_switch_draws) and one summary
(SystemSummary.of, for compare's table and CSV and eval's averages).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .config import DEFAULT_EPISODE_STEPS, ConfigError, EpisodeConfig, check_seed
from .controllers import (
    SYSTEMS,
    batch_system_action,
    oracle_switch,
    random_labels,
    system_action,
)
from .geometry import CameraPose
from .rng import RngStream, peek_randoms, stream_states
from .world import (
    Visibility,
    batch_observe,
    batch_step,
    batch_world,
    observe,
    spawn_episode,
    step,
)

# (system, seed) episodes compare_systems steps in one lockstep batch: each
# chunk holds LOCKSTEP_EPISODES // len(systems) seeds of every system, so
# its memory is bounded by this, not by the seed count or the systems.
LOCKSTEP_EPISODES = 128


@dataclass(slots=True)
class StepRecord:
    """Everything observable about one simulation step, per camera."""

    t: int
    target: tuple[float, float, float]
    poses: list[CameraPose]
    actions: list[int]
    visibility: list[Visibility]
    labels: list[int]
    rewards: list[float]
    d_alpha: list[float]
    d_beta: list[float]
    d_xi: list[float]


@dataclass
class EpisodeReport:
    per_camera_mean_error: list[float]
    per_camera_success_rate: list[float]
    mean_error: float
    success_rate: float


def parse_switcher(spec: str) -> tuple[str, float | None]:
    """Parse a switcher spec: "oracle", "random:P" or "noisy:E"."""
    if spec == "oracle":
        return "oracle", None
    kind, sep, arg = spec.partition(":")
    if sep and kind in ("random", "noisy"):
        try:
            p = float(arg)
        except ValueError:
            raise ConfigError(f"bad switcher parameter in {spec!r}") from None
        if kind == "random" and not 0.0 <= p <= 1.0:
            raise ConfigError(f"random switcher probability must be in [0, 1], got {p}")
        if kind == "noisy" and not 0.0 <= p <= 0.5:
            raise ConfigError(f"noisy switcher flip rate must be in [0, 0.5], got {p}")
        return kind, p
    raise ConfigError(f"unknown switcher {spec!r} (use oracle, random:P or noisy:E)")


def run_episode(config: EpisodeConfig, controller: str, switcher: str = "oracle",
                params: nn.PolicyParams | None = None, seed: int = 0,
                steps: int = DEFAULT_EPISODE_STEPS) -> list[StepRecord]:
    """Roll one episode and record every step.

    Per step: current visibility feeds the switcher, the switcher labels and
    the current observation (which holds the poses and the arena) feed the
    controllers, the world advances, and the post-step state is recorded.
    Each state is observed once: the observation step returns is the next
    step's current visibility, and its bearings and distances feed the next
    step's tracker. The random and noisy switchers take the episode's
    _switch_draws before the first step, and geometric's memories are one
    NaN-filled (cameras, 2) array. Deterministic in seed.
    """
    switch_kind, switch_arg = check_run([controller], switcher, params, steps)
    world = spawn_episode(config, seed)
    n_cams = config.n_cameras
    memories = np.full((n_cams, 2), np.nan)
    if switch_kind != "oracle":
        draws = _switch_draws(switch_kind, switch_arg, [seed], steps, n_cams)[0].tolist()

    records: list[StepRecord] = []
    outcome = observe(world)
    for t in range(steps):
        vis_now = outcome.visibility
        if switch_kind == "oracle":
            labels = [oracle_switch(v) for v in vis_now]
        elif switch_kind == "random":
            labels = draws[t]
        else:
            labels = [1 - g if flip else g
                      for g, flip in zip(map(oracle_switch, vis_now), draws[t])]
        actions = system_action(outcome, labels, controller,
                                params=params, memories=memories)
        outcome = step(world, actions)
        world = outcome.state
        records.append(StepRecord(world.t, world.target.point(), world.cameras,
                                  [int(a) for a in actions], outcome.visibility, labels,
                                  outcome.reward, outcome.d_alpha, outcome.d_beta,
                                  outcome.d_xi))
    return records


def per_camera_mean_error(records: list[StepRecord]) -> list[float]:
    if not records:
        raise ValueError("metrics need at least one step record")
    n_cams = len(records[0].poses)
    # camera-major, time-minor, exactly rounded per camera
    return [math.fsum((r.d_alpha[i] + r.d_beta[i]) * 0.5 for r in records)
            / len(records)
            for i in range(n_cams)]


def per_camera_success_rate(records: list[StepRecord]) -> list[float]:
    if not records:
        raise ValueError("metrics need at least one step record")
    n_cams = len(records[0].poses)
    out = Visibility.OUT_OF_VIEW
    return [sum(1 for r in records if r.visibility[i] is not out) / len(records)
            for i in range(n_cams)]


def mean_error(records: list[StepRecord]) -> float:
    """Average over cameras and steps of (pitch error + yaw error) / 2, degrees."""
    return episode_report(records).mean_error


def success_rate(records: list[StepRecord]) -> float:
    """Fraction of camera-steps with the target inside the view frustum;
    occluded-but-in-view counts as success."""
    return episode_report(records).success_rate


def episode_report(records: list[StepRecord]) -> EpisodeReport:
    me = per_camera_mean_error(records)
    sr = per_camera_success_rate(records)
    return EpisodeReport(me, sr,
                         math.fsum(me) / len(me),
                         math.fsum(sr) / len(sr))


@dataclass
class SystemSummary:
    """Mean and sample standard deviation over paired seeds, per camera and
    overall, for one system."""

    name: str
    per_camera_me: list[tuple[float, float]]
    per_camera_sr: list[tuple[float, float]]
    mean_error: tuple[float, float]
    success_rate: tuple[float, float]

    @classmethod
    def of(cls, name: str, me, sr) -> SystemSummary:
        """The summary of one per-camera ME and one per-camera SR list per
        episode (an EpisodeReport's), or of (episodes, cameras) arrays; one
        metric at a time is held as Python floats."""
        me, sr = np.asarray(me), np.asarray(sr)
        return cls(name,
                   [_mean_std(column) for column in me.T.tolist()],
                   [_mean_std(column) for column in sr.T.tolist()],
                   _mean_std([math.fsum(ep) / me.shape[1] for ep in me.tolist()]),
                   _mean_std([math.fsum(ep) / sr.shape[1] for ep in sr.tolist()]))

    def rows(self):
        """(scope, ME, SR) for each camera, cam_1 first, then the overall
        row; each metric a (mean, std) pair."""
        for i, me_sr in enumerate(zip(self.per_camera_me, self.per_camera_sr)):
            yield (f"cam_{i + 1}", *me_sr)
        yield "overall", self.mean_error, self.success_rate


def _mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def check_run(systems: list[str], switcher: str, params: nn.PolicyParams | None,
              steps: int = DEFAULT_EPISODE_STEPS) -> tuple[str, float | None]:
    """Reject a run run_episode and run_lockstep cannot roll with a
    ConfigError, or with a ValueError for a learned run's wrongly shaped or
    non-finite weight; returns the parsed switcher."""
    if not systems:
        raise ConfigError("a run needs at least one system")
    for name in systems:
        if name not in SYSTEMS:
            raise ConfigError(f"unknown system {name!r}")
    if len(set(systems)) != len(systems):
        raise ConfigError(f"repeated system in {systems}")
    if "learned" in systems:
        if params is None:
            raise ConfigError("the learned controller requires policy params")
        params.validate()
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    return parse_switcher(switcher)


def _switch_draws(kind: str, p: float, seeds, steps: int, n_cams: int) -> np.ndarray:
    """Every switcher draw of each seed's episode, (seeds, steps, cameras) in
    step then camera order, from the seed's stream (seed, 1): random:P's
    labels (random_labels), or noisy:E's flips (u < E). These are the values
    random_switch and noisy_switch would draw one at a time."""
    u = peek_randoms(stream_states(RngStream(seed, 1) for seed in seeds),
                     steps * n_cams).reshape(len(seeds), steps, n_cams)
    return random_labels(u, p) if kind == "random" else u < p


def run_lockstep(config: EpisodeConfig, systems: list[str], seeds: list[int],
                 switcher: str = "oracle", params: nn.PolicyParams | None = None,
                 steps: int = DEFAULT_EPISODE_STEPS) -> tuple[np.ndarray, np.ndarray]:
    """Roll one episode per (system, seed) pair in lockstep, as run_episode
    would roll each.

    Returns each step's pose error (d_alpha + d_beta) / 2 and in_view mask,
    both (steps, episodes, cameras) with system-major episodes: episode
    s * len(seeds) + k is systems[s] on seeds[k]; the oracle labels are the
    visible masks. All
    systems share each step's world step, observation and tracker call
    (batch_system_action applies each episode's rule), and the episodes of
    one seed share one world: it is spawned once, and its target walk and
    sight lines are computed once per step for all systems, since they
    depend on no camera pose. So do its switcher draws: every episode reads
    its seed's _switch_draws, taken before the first step as run_episode
    does, so each episode's values equal run_episode's records bit for bit.
    The draws are held for the whole run (steps x cameras per seed), so
    compare_systems' chunks keep memory flat in the seed count. geometric's
    memory is one NaN-filled (episodes, cameras, 2) array."""
    switch_kind, switch_arg = check_run(systems, switcher, params, steps)
    if not seeds:
        raise ConfigError("a lockstep run needs at least one seed")
    episode_systems = np.repeat(systems, len(seeds))
    state = batch_world([spawn_episode(config, seed) for seed in seeds],
                        rows=np.tile(np.arange(len(seeds)), len(systems)))
    if switch_kind != "oracle":
        draws = _switch_draws(switch_kind, switch_arg, seeds, steps, config.n_cameras)
    memory = np.full(state.pitch.shape + (2,), np.nan)
    error = np.empty((steps,) + state.pitch.shape)
    in_view = np.empty((steps,) + state.pitch.shape, dtype=bool)
    outcome = batch_observe(state)
    for t in range(steps):
        labels = outcome.visible.astype(int)
        if switch_kind == "random":
            labels = draws[state.world, t]
        elif switch_kind == "noisy":
            # noisy_switch flips the oracle's label
            labels = np.where(draws[state.world, t], 1 - labels, labels)
        actions = batch_system_action(state, outcome, labels, episode_systems,
                                      params=params, memory=memory)
        outcome = batch_step(state, actions)
        error[t] = (outcome.d_alpha + outcome.d_beta) * 0.5
        in_view[t] = outcome.in_view
    return error, in_view


def compare_systems(config: EpisodeConfig, systems: list[str], n_seeds: int,
                    steps: int = DEFAULT_EPISODE_STEPS,
                    params: nn.PolicyParams | None = None,
                    switcher: str = "oracle", base_seed: int = 0
                    ) -> list[SystemSummary]:
    """Run every system on the same seeds and summarize both metrics.

    Pairing the seeds removes layout variance from the comparison. All
    systems' episodes of a chunk of seeds run in one lockstep batch of at
    most LOCKSTEP_EPISODES (system, seed) episodes, and only their
    per-episode metrics are kept across chunks, so memory does not grow
    with the step arrays of every seed. The per-episode metrics are those
    of per_camera_mean_error and per_camera_success_rate on run_episode's
    records, exactly rounded over time the same way. A repeated system, or
    a first or last seed outside [0, 2**64), raises ConfigError.
    """
    if n_seeds < 1:
        raise ConfigError("n_seeds must be >= 1")
    if steps < 1:
        raise ConfigError("metrics need at least one step record")
    check_run(systems, switcher, params, steps)
    check_seed("base_seed", base_seed)
    check_seed("base_seed + n_seeds - 1", base_seed + n_seeds - 1)
    seeds = range(base_seed, base_seed + n_seeds)
    # at most four systems, so a chunk holds at least 32 seeds
    chunk = LOCKSTEP_EPISODES // len(systems)
    # one (systems, seeds, cameras) float array of each metric per chunk
    shape = (len(systems), -1, config.n_cameras)
    episode_me, episode_sr = [], []
    for start in range(0, n_seeds, chunk):
        error, in_view = run_lockstep(config, systems, list(seeds[start:start + chunk]),
                                      switcher=switcher, params=params, steps=steps)
        # one (episode, camera) column at a time, so that only one of them
        # is ever held as Python floats
        lane_me = [math.fsum(lane.tolist()) / steps
                   for lane in error.reshape(steps, -1).T]
        episode_me.append(np.reshape(lane_me, shape))
        episode_sr.append(np.reshape(in_view.sum(axis=0) / steps, shape))
    return [SystemSummary.of(name, me, sr)
            for name, me, sr in zip(systems, np.concatenate(episode_me, axis=1),
                                    np.concatenate(episode_sr, axis=1))]


def format_comparison(summaries: list[SystemSummary]) -> str:
    """Aligned plain-text table of every summary's rows()."""
    lines = [f"{'system':<12}{'scope':<10}{'mean_error_deg':>22}{'success_rate':>22}"]
    for s in summaries:
        for scope, me, sr in s.rows():
            lines.append(f"{s.name:<12}{scope:<10}"
                         f"{me[0]:>12.3f} ± {me[1]:<7.3f}"
                         f"{sr[0]:>12.4f} ± {sr[1]:<7.4f}")
    return "\n".join(lines)

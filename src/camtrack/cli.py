"""Command-line entry point.

Subcommands: train (learn a pose policy), eval (score one controller),
compare (paired multi-seed system comparison), rollout (log one episode).
Shared flags are declared once, in argparse parent parsers: --config for
every command, --switcher and --checkpoint for eval, compare and rollout.
Exit codes: 0 success, 2 validation error (a ConfigError or CheckpointError
raised where user input is read, an unreadable --config or --checkpoint
file included), 1 any other error, such as a failed write. An --out or
--log that names an input or the other output exits 2 before any read.
eval, compare and rollout then check their input before any output: their
flags (the seeds, --episodes, --checkpoint), then the run as check_run
does (the systems, the switcher spec and the loaded weights). Only then do
train, compare and rollout exit 1 when --out is a directory or its
directory is missing, and eval make its --episode-log directory.
"""
from __future__ import annotations

import argparse
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

from .config import ConfigError, EpisodeConfig, TrainConfig, check_seed, load_config
from .controllers import SYSTEMS
from .evaluate import (
    SystemSummary,
    check_run,
    compare_systems,
    episode_report,
    format_comparison,
    run_episode,
)
from .io import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    train_log_writer,
    write_comparison_csv,
    write_episode_log,
)
from .training import train_pose_controller


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camtrack",
        description="Multi-camera pan-tilt-zoom tracking simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON config file")
    rollouts = argparse.ArgumentParser(add_help=False, parents=[config])
    rollouts.add_argument("--switcher", default="oracle",
                          help="oracle, random:P or noisy:E (default oracle)")
    rollouts.add_argument("--checkpoint", help="policy checkpoint (learned controller)")

    train = sub.add_parser("train", parents=[config], help="train the pose policy")
    train.add_argument("--seed", type=int, help="override the training seed")
    train.add_argument("--steps", type=int,
                       help="override total pose-controller steps")
    train.add_argument("--out", required=True, help="checkpoint output path")
    train.add_argument("--log", help="training-log CSV output path")

    ev = sub.add_parser("eval", parents=[rollouts], help="evaluate one controller")
    ev.add_argument("--controller", required=True, choices=SYSTEMS)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--episodes", type=int, default=1)
    ev.add_argument("--episode-log", help="directory for per-episode JSONL logs")

    cmp_ = sub.add_parser("compare", parents=[rollouts], help="compare systems on paired seeds")
    cmp_.add_argument("--systems", required=True,
                      help="comma-separated controller names")
    cmp_.add_argument("--seeds", type=int, required=True)
    cmp_.add_argument("--out", required=True, help="CSV output path")

    roll = sub.add_parser("rollout", parents=[rollouts], help="log one episode as JSONL")
    roll.add_argument("--controller", default="geometric", choices=SYSTEMS)
    roll.add_argument("--seed", type=int, default=0)
    roll.add_argument("--out", required=True, help="JSONL output path")
    return parser


def _load_params_if_needed(controller_names, checkpoint: str | None, switcher: str):
    """A learned run's policy (None otherwise), once check_run accepts the run."""
    needs = "learned" in controller_names
    if needs and checkpoint is None:
        raise ConfigError("the learned controller requires --checkpoint")
    params = load_checkpoint(checkpoint) if needs else None
    check_run(controller_names, switcher, params)
    return params


def _check_distinct_outputs(args) -> None:
    """Raise ConfigError if --out or --log resolves to --config, --checkpoint
    or the other output, which writing it would overwrite."""
    seen = {}
    for name in ("config", "checkpoint", "out", "log"):
        path = getattr(args, name, None)
        if path is not None:
            first = seen.setdefault(Path(path).resolve(), f"--{name}")
            if name in ("out", "log") and first != f"--{name}":
                raise ConfigError(f"--{name} {path} is the same file as {first}")


def _check_out(path: str) -> None:
    """Raise the OSError writing to path would raise, before the work whose
    result goes there: path is a directory, or its directory is missing."""
    out = Path(path)
    if out.is_dir():
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    if not out.parent.is_dir():
        raise FileNotFoundError(f"cannot write {path}: no directory {out.parent}")


def _cmd_train(args, episode_cfg: EpisodeConfig, train_cfg: TrainConfig) -> int:
    if args.seed is not None:
        train_cfg.seed = args.seed
    if args.steps is not None:
        train_cfg.total_steps = args.steps
    train_cfg.validate()
    _check_out(args.out)
    # an unwritable --log fails here, before any training
    with train_log_writer(args.log) if args.log else nullcontext() as append_row:
        params, log = train_pose_controller(train_cfg, episode_cfg,
                                            on_update=append_row)
    save_checkpoint(params, args.out)
    summary = (f"{len(log)} updates, final mean reward {log[-1].mean_reward_g0:.3f}"
               if log else "no update ran")
    print(f"trained {train_cfg.total_steps} pose-controller steps ({summary})")
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_eval(args, episode_cfg: EpisodeConfig, _: TrainConfig) -> int:
    if args.episodes < 1:
        raise ConfigError("--episodes must be >= 1")
    check_seed("--seed", args.seed)
    check_seed("--seed + --episodes - 1", args.seed + args.episodes - 1)
    params = _load_params_if_needed([args.controller], args.checkpoint, args.switcher)

    log_dir = Path(args.episode_log) if args.episode_log else None
    if log_dir is not None:
        log_dir.mkdir(parents=True, exist_ok=True)

    reports = []
    for k in range(args.episodes):
        seed = args.seed + k
        records = run_episode(episode_cfg, args.controller, switcher=args.switcher,
                              params=params, seed=seed)
        if log_dir is not None:
            write_episode_log(records, log_dir / f"episode_{seed}.jsonl")
        reports.append(episode_report(records))

    summary = SystemSummary.of(args.controller,
                               [r.per_camera_mean_error for r in reports],
                               [r.per_camera_success_rate for r in reports])
    print(f"controller={args.controller} switcher={args.switcher} "
          f"episodes={len(reports)} seed0={args.seed}")
    for scope, (me, _), (sr, _) in summary.rows():
        print(f"  {scope}: mean_error={me:8.3f} deg   success_rate={sr:6.4f}")
    return 0


def _cmd_compare(args, episode_cfg: EpisodeConfig, _: TrainConfig) -> int:
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    # compare runs seeds 0 .. --seeds - 1
    check_seed("--seeds - 1", args.seeds - 1)
    params = _load_params_if_needed(systems, args.checkpoint, args.switcher)
    _check_out(args.out)
    summaries = compare_systems(episode_cfg, systems, args.seeds,
                                params=params, switcher=args.switcher)
    write_comparison_csv(summaries, args.out)
    print(format_comparison(summaries))
    print(f"comparison CSV written to {args.out}")
    return 0


def _cmd_rollout(args, episode_cfg: EpisodeConfig, _: TrainConfig) -> int:
    check_seed("--seed", args.seed)
    params = _load_params_if_needed([args.controller], args.checkpoint, args.switcher)
    _check_out(args.out)
    records = run_episode(episode_cfg, args.controller, switcher=args.switcher,
                          params=params, seed=args.seed)
    write_episode_log(records, args.out)
    report = episode_report(records)
    print(f"rollout seed={args.seed} controller={args.controller}: "
          f"mean_error={report.mean_error:.3f} deg "
          f"success_rate={report.success_rate:.4f}")
    print(f"episode log written to {args.out}")
    return 0


_COMMANDS = {"train": _cmd_train, "eval": _cmd_eval,
             "compare": _cmd_compare, "rollout": _cmd_rollout}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        _check_distinct_outputs(args)
        configs = ((EpisodeConfig(), TrainConfig()) if args.config is None
                   else load_config(args.config))
        return _COMMANDS[args.command](args, *configs)
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        # a fault in the program, not in its input: keep the traceback
        traceback.print_exc()
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()

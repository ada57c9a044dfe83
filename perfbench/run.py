"""camtrack benchmark: one command for the train, compare and eval_learned
workloads.

    python3 perfbench/run.py --workload compare --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory, never from an installed copy. Each run is one client in
one process with BLAS capped at one thread. It repeats identical rounds of
the workload's units, built from ``--seed``, for about ``--seconds`` seconds,
checks every output, and times set-up in fresh processes between rounds.
With ``--trace 1`` untraced and traced rounds alternate, and the run reports
per-layer call counts and self times instead of the end-to-end metrics.
The last line of standard output is the JSON result; see README.md.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_PROBES = 9
MIN_ROUNDS = 3          # untraced run; a traced run needs 2 of each kind
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
LAYERS = ("world", "geometry", "controllers", "nn", "training", "evaluate", "io", "rng")

# Layer functions whose calls and self time a traced run reports: every
# public layer function that at least one workload calls.
REPORTED_FUNCTIONS = (
    "world.step", "world.spawn_episode", "world.visibility_of",
    "world.advance_target", "world.apply_action", "world.desired_zoom",
    "world.direction_reward",
    "geometry.segment_hits_box", "geometry.segment_box_overlap",
    "geometry.angle_error", "geometry.bearing_to", "geometry.wrap_angle",
    "geometry.effective_fov",
    "controllers.virtual_tracker_action", "controllers.triangulate",
    "controllers.geometric_pose_action", "controllers.learned_pose_action",
    "controllers.system_action", "controllers.sv_baseline_action",
    "controllers.oracle_switch", "controllers.random_switch",
    "nn.policy_forward", "nn.forward", "nn.backward", "nn.build_features",
    "nn.log_softmax", "nn.sample_action", "nn.zeros_like_params",
    "nn.compute_returns", "nn.init_params",
    "training.train_pose_controller",
    "evaluate.run_episode", "evaluate.compare_systems",
    "evaluate.per_camera_mean_error", "evaluate.per_camera_success_rate",
    "evaluate.episode_report", "evaluate.parse_switcher",
    "io.write_episode_log", "io.save_checkpoint", "io.write_comparison_csv",
)


def limit_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import camtrack from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import camtrack
    if Path(camtrack.__file__).resolve().parent != src / "camtrack":
        raise ImportError(f"camtrack imported from {camtrack.__file__}, not {src}")
    return camtrack


def git_commit() -> str:
    """Commit of the checkout from .git, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "git_commit": git_commit()}


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from process start to the first workload call, in a fresh
    interpreter that imports, configures and prepares exactly as a run does."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1]) - start


class Round:
    """Unit times of one complete round, and its layer stats when traced."""

    __slots__ = ("unit_s", "traced", "stats", "counts")

    def __init__(self, unit_s, traced, stats=None, counts=None):
        self.unit_s = unit_s
        self.traced = traced
        self.stats = stats
        self.counts = counts

    @property
    def seconds(self) -> float:
        return sum(self.unit_s)


def make_tracer(camtrack):
    """A tracer over the layer modules, patching every camtrack namespace."""
    from camtrack.rng import RngStream
    from perfbench.tracer import Tracer

    layers = {name: importlib.import_module(f"camtrack.{name}") for name in LAYERS}
    namespaces = [camtrack] + [mod for name, mod in sorted(sys.modules.items())
                               if name.startswith("camtrack.")]
    return Tracer(layers, namespaces,
                  outcomes={"controllers.triangulate": lambda result: result.ok},
                  counted=((RngStream, "next_u64", "rng.next_u64"),))


def measure(wl, seconds: float, tracer=None, after_round=None) -> dict:
    """Repeat rounds of the workload's units for about ``seconds``;
    alternate untraced and traced rounds when a tracer is given. The first
    round's outputs are checked in full, and every later output's digest
    must equal the first one of its unit. The first failure ends the run.
    after_round, if given, is called after each complete round."""
    rounds: list[Round] = []
    reference = None   # first round's UnitOutput per unit
    problems: list[str] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not problems:
        n_plain = sum(not r.traced for r in rounds)
        n_traced = len(rounds) - n_plain
        if tracer is None:
            enough = n_plain >= MIN_ROUNDS
        else:
            enough = n_plain >= 2 and n_traced >= 2
        if enough and time.perf_counter() + rounds[-1].seconds > deadline:
            break
        traced = tracer is not None and n_traced < n_plain
        unit_s, outs = [], []
        for i, unit in enumerate(wl.units):
            ops = reference[i].ops if reference else 1
            try:
                if traced:
                    tracer.install()
                try:
                    start = time.perf_counter()
                    raw = wl.run_unit(unit)
                    unit_s.append(time.perf_counter() - start)
                finally:
                    if traced:
                        tracer.restore()
                out = wl.describe(unit, raw)
                ops = out.ops
                if reference is None:
                    bad = wl.failed_ops(unit, out)
                elif out.digest != reference[i].digest:
                    bad = [f"unit {i} digest {out.digest} differs from its first "
                           f"round's {reference[i].digest}"]
                else:
                    bad = []
            except Exception:
                bad = [traceback.format_exc()]
            attempted += ops
            failed += min(ops, len(bad))
            problems.extend(bad)
            if bad:
                break
            if reference is None:
                outs.append(out)
            else:
                out.payload = None
        if problems:
            break
        reference = reference or outs
        stats, counts = tracer.take() if traced else (None, None)
        rounds.append(Round(unit_s, traced, stats, counts))
        if after_round is not None:
            after_round()
    return {"rounds": rounds, "reference": reference or [],
            "quality": wl.quality(reference) if reference else {},
            "attempted": max(1, attempted), "failed": failed, "problems": problems}


def per_second(result: dict, count: str) -> float:
    """A per-round count times the untraced rounds, over their total time."""
    plain = [r.seconds for r in result["rounds"] if not r.traced]
    if not plain:
        return 0.0
    return sum(getattr(o, count) for o in result["reference"]) * len(plain) / sum(plain)


def end_to_end(result: dict, setup_times: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "camera_steps_per_s": (per_second(result, "camera_steps"), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                        "MB"),
    }


def per_layer(result: dict) -> tuple[dict, list[str]]:
    """Per-round layer metrics from the traced rounds; call counts must
    repeat exactly from round to round."""
    rounds = result["rounds"]
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    if not traced or not plain:
        return {}, ["no complete traced and untraced rounds"]
    problems = []
    calls = {key: s[0] for key, s in traced[0].stats.items()}
    for r in traced[1:]:
        if {key: s[0] for key, s in r.stats.items()} != calls \
                or r.counts != traced[0].counts:
            problems.append("call counts differ between traced rounds")
    self_ms = {key: statistics.median(r.stats[key][1] * 1e3 for r in traced)
               for key in calls}
    ref = result["reference"]
    cam_steps = sum(o.camera_steps for o in ref)
    log_bytes = sum(o.log_bytes for o in ref)
    quality = result["quality"]
    tri_calls, _, tri_ok = traced[0].stats["controllers.triangulate"]
    write_ms = self_ms["io.write_episode_log"]
    metrics = {}
    for key in REPORTED_FUNCTIONS:
        metrics[f"{key}.calls"] = (calls[key], "count")
        metrics[f"{key}.self_ms"] = (self_ms[key], "ms")
    metrics.update({
        "world.camera_steps": (cam_steps, "count"),
        "geometry.los_tests_per_camera_step":
            (calls["geometry.segment_hits_box"] / cam_steps, "ratio"),
        "controllers.triangulate.ok_frac": (tri_ok / tri_calls if tri_calls else 0.0,
                                            "ratio"),
        "io.write_episode_log.bytes": (log_bytes, "bytes"),
        "io.mb_per_s": (log_bytes / 1e6 / (write_ms / 1e3) if write_ms else 0.0,
                        "MB/s"),
        "rng.draws_per_camera_step": (traced[0].counts["rng.next_u64"] / cam_steps,
                                      "ratio"),
        "training.train_reward": (quality.get("train_reward", 0.0), "reward"),
        "evaluate.success_rate": (quality.get("success_rate", 0.0), "ratio"),
        "evaluate.mean_error_deg": (quality.get("mean_error_deg", 0.0), "deg"),
        "trace_overhead_frac": (statistics.median(r.seconds for r in traced)
                                / statistics.median(r.seconds for r in plain) - 1.0,
                                "ratio"),
    })
    return metrics, problems


def print_report(wl, seed: int, result: dict, e2e: dict, layers: dict | None,
                 env: dict) -> dict:
    """Human-readable table on stdout; returns the run record."""
    rounds = result["rounds"]
    ref = result["reference"]
    plain = [r for r in rounds if not r.traced]
    print(f"workload {wl.name}  seed {seed}  rounds {len(plain)} untraced"
          f" + {len(rounds) - len(plain)} traced")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<24}{value:>14.6g} {unit}")
    record = {"workload": wl.name, "seed": seed, "environment": env,
              "round_s": [round(r.seconds, 6) for r in rounds],
              "traced": [r.traced for r in rounds], "quality": result["quality"]}
    if ref:
        extra = dict(result["quality"])
        if ref[0].transitions:
            extra["transitions_per_s"] = per_second(result, "transitions")
        for name, value in extra.items():
            print(f"  {name:<24}{value:>14.6g}")
        digest = wl.round_digest(ref)
        record.update(digest=digest, unit_digests=[o.digest for o in ref],
                      ops_per_round=sum(o.ops for o in ref),
                      camera_steps_per_round=sum(o.camera_steps for o in ref))
        print(f"  {'digest (sha256)':<24}{digest}")
    print(f"  {'failed_frac':<24}{result['failed'] / result['attempted']:>14.6g}"
          f" ({result['failed']}/{result['attempted']} {wl.op_name})")
    print("  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if layers:
        traced = [r for r in rounds if r.traced]
        round_ms = statistics.median(r.seconds for r in traced) * 1e3
        print(f"  per round, traced (median traced round {round_ms:.1f} ms):")
        print(f"    {'layer function':<40}{'calls':>10}{'self ms':>12}{'share':>8}"
              f"{'us/call':>10}")
        stats = traced[0].stats
        keys = sorted((k for k in stats if stats[k][0]),
                      key=lambda k: -statistics.median(r.stats[k][1] for r in traced))
        for key in keys:
            calls = stats[key][0]
            ms = statistics.median(r.stats[key][1] for r in traced) * 1e3
            print(f"    {key:<40}{calls:>10}{ms:>12.2f}{ms / round_ms:>8.1%}"
                  f"{ms * 1e3 / calls:>10.2f}")
        for name, (value, unit) in layers.items():
            if not name.endswith((".calls", ".self_ms")):
                print(f"    {name:<40}{value:>14.6g} {unit}")
    for problem in result["problems"][:5]:
        print(f"  problem: {problem.strip()}")
    return record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "compare", "eval_learned"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    limit_threads()
    try:
        camtrack = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 1
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, OUT_DIR)
    if args.probe_setup:
        wl.prepare()
        print(repr(time.monotonic()))
        return 0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    env = environment()
    # set-up probes run between rounds, so their median spans the run
    setup_times = [probe_setup(args.workload, args.seed)]

    def probe_between_rounds():
        if len(setup_times) < SETUP_PROBES:
            setup_times.append(probe_setup(args.workload, args.seed))

    wl.prepare()
    tracer = make_tracer(camtrack) if args.trace else None
    result = measure(wl, args.seconds, tracer, probe_between_rounds)
    while len(setup_times) < SETUP_PROBES:
        probe_between_rounds()
    e2e = end_to_end(result, setup_times)
    layers, problems = per_layer(result) if args.trace else (None, [])
    result["problems"].extend(problems)
    record = print_report(wl, args.seed, result, e2e, layers, env)
    record["problems"] = result["problems"][:20]
    print("record " + json.dumps(record, sort_keys=True))
    metrics = layers if args.trace else e2e
    correct = (bool(result["reference"]) and result["failed"] == 0
               and not result["problems"]
               and all(math.isfinite(v) for v, _ in metrics.values()))
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

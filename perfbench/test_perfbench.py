"""Tests of the benchmark's own code: self time, restore, and metric names.

Run from the repository root with ``python3 -m pytest perfbench``; the
default test run (``tests/``) does not collect them.
"""
from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
import types

import pytest

from perfbench import run
from perfbench.tracer import Tracer

camtrack = run.import_program()
from perfbench.workloads import Compare, EvalLearned, Train  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bindings():
    """Every function bound in a camtrack namespace, plus RngStream.next_u64."""
    found = {(mod.__name__, name): obj
             for mod in [camtrack] + [m for n, m in sys.modules.items()
                                      if n.startswith("camtrack.")]
             for name, obj in vars(mod).items() if inspect.isfunction(obj)}
    found[("RngStream", "next_u64")] = vars(camtrack.RngStream)["next_u64"]
    return found


def test_self_time_is_span_minus_child_span():
    mod = types.ModuleType("synthetic")
    exec("def child():\n    return 1\n\n"
         "def parent():\n    return child() + 1\n", mod.__dict__)
    ticks = iter([0.0, 1.0, 4.0, 10.0])  # parent start, child start/end, parent end
    with Tracer({"syn": mod}, [mod], clock=lambda: next(ticks)) as tracer:
        assert mod.parent() == 2
    stats, _ = tracer.take()
    assert stats["syn.child"] == (1, 3.0, 0)
    assert stats["syn.parent"] == (1, 10.0 - 3.0, 0)


def test_restore_leaves_every_binding_identical():
    before = _bindings()
    step = camtrack.world.step
    tracer = run.make_tracer(camtrack)
    tracer.install()
    try:
        assert camtrack.world.step is not step
        assert camtrack.training.step is camtrack.evaluate.step is camtrack.world.step
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert camtrack.world.step is step
    for ns in (camtrack, camtrack.training, camtrack.evaluate):
        assert ns.step is step


def _declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("make", [
    lambda seed, tmp: Train(seed, tmp, total_steps=200),
    lambda seed, tmp: Compare(seed, tmp, n_seeds=2, steps=30),
    lambda seed, tmp: EvalLearned(seed, tmp, episodes=1, steps=30),
], ids=["train", "compare", "eval_learned"])
def test_emitted_metrics_are_the_declared_ones(make, tmp_path):
    wl = make(3, tmp_path)
    wl.prepare()
    result = run.measure(wl, 0.0)
    assert result["failed"] == 0 and not result["problems"]
    e2e = run.end_to_end(result, [0.5])
    assert {k: unit for k, (_, unit) in e2e.items()} == _declared("end_to_end")
    assert all(value > 0 for value, _ in e2e.values())

    traced = run.measure(wl, 0.0, run.make_tracer(camtrack))
    layers, problems = run.per_layer(traced)
    assert traced["failed"] == 0 and not traced["problems"] and not problems
    assert {k: unit for k, (_, unit) in layers.items()} == _declared("per_layer")
    camera_steps = sum(o.camera_steps for o in traced["reference"])
    assert layers["world.camera_steps"][0] == camera_steps
    assert layers["world.step.calls"][0] * wl.episode_cfg.n_cameras == camera_steps
    if wl.name == "compare":
        assert all(v == 0 for k, (v, _) in layers.items()
                   if k.startswith("nn.") and k.endswith(".calls"))


def test_workload_names_match_benchmark_json():
    from perfbench.workloads import WORKLOADS
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

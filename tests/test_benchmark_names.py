"""The benchmark traces functions by name: every ``<layer>.<fn>.calls``
metric that BENCHMARK.json declares must name a public function defined in
``camtrack.<layer>``, or the benchmark's per-layer report fails."""
import importlib
import inspect
import json
from pathlib import Path

import pytest

DECLARED = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
TRACED = sorted(m["name"][:-len(".calls")] for m in DECLARED["per_layer"]
                if m["name"].endswith(".calls"))


def test_some_functions_are_traced():
    assert len(TRACED) > 30


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_is_a_public_function_of_its_layer(name):
    layer, fn_name = name.split(".")
    module = importlib.import_module(f"camtrack.{layer}")
    fn = vars(module).get(fn_name)
    assert not fn_name.startswith("_")
    assert inspect.isfunction(fn), f"camtrack.{layer} defines no function {fn_name}"
    assert fn.__module__ == module.__name__, \
        f"{name} is imported into camtrack.{layer}, not defined there"

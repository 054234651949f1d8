"""The benchmark's trace hooks still find the program's functions.

``bench/spans.py`` resolves each hooked name at install time and
records a name it cannot find as missing instead of failing, so a
deleted or renamed function would only drop metrics from a traced run.
These tests read ``bench/`` and change nothing there.
"""

import json

import spans
from conftest import REPO


def test_every_hook_resolves():
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.remove()


def test_every_hooked_layer_is_a_declared_metric():
    declared = {m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]}
    for layer, _ in spans.HOOKS:
        for suffix in ("calls", "s", "self_s"):
            assert f"{layer}.{suffix}" in declared

"""BENCHMARK.json and the code that prints the metrics name the same things."""

import json
from pathlib import Path

import common
import run
import tracing

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_metrics_match():
    printed = common.end_to_end([1.0], 1, 1.0, [1.0], 1.0)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [(k, v["unit"]) for k, v in printed.items()]


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    assert set(tracing.layer_metrics([], {})) == {name for name, _ in tracing.PER_LAYER}

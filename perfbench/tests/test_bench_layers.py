"""The traced run wraps every layer of today's program and tolerates renames."""

import importlib
import json

import layers
from conftest import BENCH


def test_every_layer_is_found_and_restored():
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in layers.TIMED}
    rec = layers.install()
    try:
        assert rec.absent == []
        assert all(getattr(importlib.import_module(m), a) is not fn for (m, a), fn in originals.items())
    finally:
        rec.uninstall()
    assert all(getattr(importlib.import_module(m), a) is fn for (m, a), fn in originals.items())


def test_renamed_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(layers, "TIMED", layers.TIMED + [("smellstab.pipeline", "no_such_stage", "analyze")])
    rec = layers.install()
    rec.uninstall()
    assert rec.absent == ["smellstab.pipeline.no_such_stage"]
    values = rec.report("/nonexistent")["values"]
    assert values["pipeline.analyze_s"] == 0 and values["trace.overhead_s"] == 0


def test_traced_values_cover_the_per_layer_metrics():
    """run.py reports the per-layer metrics BENCHMARK.json lists, by name."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    rec = layers.install()
    rec.uninstall()
    from_run = {"setup.import_s", "cold.wall_s", "cold.steal_s"}  # taken by run.py, not the wrappers
    assert set(rec.report("/nonexistent")["values"]) | from_run == {m["name"] for m in spec["per_layer"]}


def test_wrapped_calls_are_timed_and_counted():
    import smellstab.parser as parser

    rec = layers.install()
    try:
        parser.parse_compilation_unit("package p;\nclass A { int f; }\n")
    finally:
        rec.uninstall()
    assert rec.calls["parse"] == 1 and rec.calls["tokenize"] == 1
    assert rec.count["tokens"] == 10  # package p ; class A { int f ; }
    assert 0 < rec.wrapper_cost_s() < 0.01  # two wrapped calls cost microseconds


def test_untraced_values_are_the_end_to_end_metrics():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    d = {"cpu_s": 1.0, "peak_rss_mb": 2.0}
    assert set(run.end_to_end_values([d], [d], [0.5])) == {m["name"] for m in spec["end_to_end"]}

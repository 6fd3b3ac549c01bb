"""The benchmark tracer (bench/spans.py) patches package functions by name;
every name it patches has to exist, or `bench/run.py --trace 1` fails."""

import importlib
import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_tracer_wrap_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    assert spans.WRAP_POINTS
    missing = [(module, attr) for module, attr, _ in spans.WRAP_POINTS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []

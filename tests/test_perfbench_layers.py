"""The benchmark's tracer still finds the layers it wraps.

``perfbench/layers.py`` wraps flocstat functions by module and attribute
name, and imports every module it names without a guard.  A renamed or
deleted target would only show when the benchmark runs; this test shows it
with the tier-1 suite.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# wrapped names the tracer already reports as no longer defined
MISSING = ["flocstat.pde.solve_banded", "flocstat.pde.reaction_field"]


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    for module_name, _, _, _ in layers.TARGETS:
        importlib.import_module(module_name)
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert tracer.missing == MISSING
    finally:
        tracer.uninstall()

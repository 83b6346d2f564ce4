"""The benchmark's per-layer tracer wraps anchornet's functions by name
(``anchorbench/layers.py``): a rename that drops one of them must fail here,
not only in the benchmark's own tests."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "anchorbench" / "layers.py"


def test_the_benchmark_tracer_finds_every_function_it_wraps():
    spec = importlib.util.spec_from_file_location("anchorbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer()
    try:
        tracer.install()  # a missing attribute raises here
        patched = list(tracer._patched)
        assert patched
        assert all(hasattr(getattr(owner, attr), "__wrapped__") for owner, attr, _ in patched)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)

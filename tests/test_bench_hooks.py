"""The benchmark wraps anchornet's functions by name (``anchorbench/layers.py``)
and reads a finished simulation's records (``anchorbench/outcome.py`` and
``drive.py``): a change that breaks either must fail here, not only in a
benchmark run."""

import importlib.util
import json
import sys
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


BENCH = LAYERS.parent


def test_the_benchmark_reads_every_figure_it_reports_from_a_finished_run():
    """``anchorbench/drive.py`` reads the session records of a finished run
    (its senders' stats, its receivers' deliveries and digests): one traced
    repetition of a small session-churn and fanout-join reports no problem
    and every per-layer figure that BENCHMARK.json names."""
    sys.path.insert(0, str(BENCH))
    import drive
    import workloads

    names = [entry["name"] for entry in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]]
    for raw in (workloads.session_churn(7, sessions=24, span_us=40_000),
                workloads.fanout_join(7, size_bytes=1024 * 1024)):
        record = drive.repetition(raw, True)
        assert record["problems"] == [] and record["failed"] == 0
        assert [name for name in names if name not in record["layers"]] == []

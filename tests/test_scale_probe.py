import json
import subprocess
import sys


def _probe(scenario_dir, *args):
    script = scenario_dir.parent / "scripts" / "scale_probe.py"
    out = subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, check=False, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.decode().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_scale_probe_prints_one_json_line_with_its_figures(scenario_dir):
    result = _probe(scenario_dir, "--mib", "1")
    assert set(result) == {"mib", "events", "events_per_s", "host_s", "peak_rss_mb", "complete"}
    assert result["mib"] == 1 and result["complete"] is True
    assert result["events"] > 0 and result["events_per_s"] > 0
    assert result["host_s"] > 0 and result["peak_rss_mb"] > 0


def test_scale_probe_runs_session_churn_at_the_given_size(scenario_dir):
    result = _probe(scenario_dir, "--sessions", "12", "--span-us", "20000")
    assert set(result) == {
        "sessions", "span_us", "events", "events_per_s", "host_s", "peak_rss_mb",
        "epochs", "concurrent_max", "alloc_s", "report_mb", "complete", "held_entries",
    }
    assert result["sessions"] == 12 and result["span_us"] == 20000
    assert result["epochs"] == 24  # one open and one close per session
    assert 2 <= result["concurrent_max"] <= 24
    assert 0 < result["alloc_s"] < result["host_s"]
    assert result["report_mb"] > 0 and result["complete"] is True
    assert result["held_entries"] == 0  # every session ended, and left no entry behind


def test_scale_probe_runs_session_churn_at_the_given_seed(scenario_dir):
    size = ("--sessions", "12", "--span-us", "20000")
    default, first, second = (_probe(scenario_dir, *size, *seed) for seed in ((), ("--seed", "1"), ("--seed", "2")))
    assert default["events"] == first["events"] and default["epochs"] == first["epochs"]
    assert second["epochs"] == 24 and second["complete"] is True
    assert second["events"] != first["events"]


def test_scale_probe_times_each_setup_step_of_a_resized_failover_flood(scenario_dir):
    result = _probe(scenario_dir, "--anchors", "20")
    assert set(result) == {
        "anchors", "parse_s", "build_s", "run_s", "report_s", "events", "events_per_s", "peak_rss_mb",
    }
    assert result["anchors"] == 20
    assert result["parse_s"] > 0 and result["build_s"] > 0 and result["run_s"] > 0
    assert 0 <= result["report_s"] <= result["run_s"]
    assert result["events"] > 0 and result["peak_rss_mb"] > 0
    # run_s is rounded to the millisecond, events_per_s to the event
    low, high = (result["events"] / (result["run_s"] + d) for d in (0.0005, -0.0005))
    assert low - 1 <= result["events_per_s"] <= high + 1


def test_scale_probe_takes_one_size_only(scenario_dir):
    script = scenario_dir.parent / "scripts" / "scale_probe.py"
    for args in (("--anchors", "20", "--mib", "1"), ("--anchors", "20", "--sessions", "12")):
        out = subprocess.run([sys.executable, str(script), *args], capture_output=True, check=False, timeout=60)
        assert out.returncode == 2 and b"not allowed with" in out.stderr

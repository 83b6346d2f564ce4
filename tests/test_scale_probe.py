import json
import subprocess
import sys


def test_scale_probe_prints_one_json_line_with_its_figures(scenario_dir):
    script = scenario_dir.parent / "scripts" / "scale_probe.py"
    out = subprocess.run(
        [sys.executable, str(script), "--mib", "1"], capture_output=True, check=False, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.decode().splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert set(result) == {"mib", "events", "events_per_s", "host_s", "peak_rss_mb", "complete"}
    assert result["mib"] == 1 and result["complete"] is True
    assert result["events"] > 0 and result["events_per_s"] > 0
    assert result["host_s"] > 0 and result["peak_rss_mb"] > 0

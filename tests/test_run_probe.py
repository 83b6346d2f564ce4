import json
import subprocess
import sys


def test_run_probe_prints_the_ratios_of_one_input_against_a_source_tree(scenario_dir):
    script = scenario_dir.parent / "scripts" / "run_probe.py"
    args = ["--against", str(scenario_dir.parent / "src"), "--only", "dual-path", "--reps", "2"]
    out = subprocess.run([sys.executable, str(script), *args], capture_output=True, check=False, timeout=60)
    assert out.returncode == 0, out.stderr
    (line,) = out.stdout.decode().splitlines()
    result = json.loads(line)
    assert set(result) == {"input", "seed", "events", "reps", "median", "q1", "q3", "wins"}
    assert result["input"] == "dual-path" and result["reps"] == 2 and result["events"] > 0
    assert 0 < result["q1"] <= result["median"] <= result["q3"]
    assert 0 <= result["wins"] <= 2

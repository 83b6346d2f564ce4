import json
import subprocess
import sys


def test_parse_probe_prints_the_ratios_of_one_input_against_a_source_tree(scenario_dir):
    script = scenario_dir.parent / "scripts" / "parse_probe.py"
    args = ["--against", str(scenario_dir.parent / "src"), "--only", "dual-path", "--rounds", "3"]
    out = subprocess.run([sys.executable, str(script), *args], capture_output=True, check=False, timeout=60)
    assert out.returncode == 0, out.stderr
    (line,) = out.stdout.decode().splitlines()
    result = json.loads(line)
    assert set(result) == {"input", "median", "lowest", "rounds"}
    assert result["input"] == "dual-path" and result["rounds"] == 3
    assert 0 < result["lowest"] <= result["median"]

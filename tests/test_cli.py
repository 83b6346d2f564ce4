import json

import pytest

from anchornet.cli import main
from anchornet.metrics import TopologyMismatch, compare, load_report
from anchornet.simnet import Simulation


def test_validate_ok(capsys, fixture_paths):
    assert main(["validate", str(fixture_paths["dual-path"])]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "x", "seed": 1, "mode": "l5-multipath", "horizon_us": 10,
        "domains": [{"id": "d", "attachments": ["a", "b"]}],
        "links": [{"id": "l", "domain": "d", "endpoints": ["a", "b"],
                   "capacity_mbps": 10, "latency_us": 1, "loss_prob": 1.0}],
        "anchors": [], "hosts": [], "policy": [], "events": [],
    }))
    assert main(["validate", str(bad)]) == 1
    assert "loss_prob" in capsys.readouterr().err


def test_validate_parse_error_position(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{\n  broken\n}")
    assert main(["validate", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_run_writes_report_and_summary(tmp_path, capsys, fixture_paths):
    out = tmp_path / "report.json"
    code = main(["run", str(fixture_paths["two-domains-weighted"]), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "throughput" in printed and "potential fraction" in printed
    report = load_report(str(out))
    assert report["scenario"] == "two-domains-weighted"


def test_run_seed_and_mode_overrides(tmp_path, fixture_paths):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    main(["run", str(fixture_paths["dual-path"]), "--mode", "baseline", "--seed", "5",
          "--out", str(out_a)])
    main(["run", str(fixture_paths["dual-path"]), "--mode", "l5", "--seed", "5",
          "--out", str(out_b)])
    a, b = load_report(str(out_a)), load_report(str(out_b))
    assert a["mode"] == "baseline-single-path" and a["seed"] == 5
    assert b["mode"] == "l5-multipath"


@pytest.mark.parametrize("name, file", [
    ("a/b", "a_b-l5-multipath-42.json"),
    ("../up", ".._up-l5-multipath-42.json"),
    ("run 1: ok", "run_1__ok-l5-multipath-42.json"),
])
def test_run_default_output_stays_in_the_output_directory(tmp_path, monkeypatch, fixture_paths, name, file):
    raw = json.loads(fixture_paths["dual-path"].read_text())
    raw["name"] = name
    scenario = tmp_path / "in" / "scenario.json"
    scenario.parent.mkdir()
    scenario.write_text(json.dumps(raw))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    monkeypatch.setenv("ANCHORNET_OUT_DIR", str(out_dir))
    assert main(["run", str(scenario)]) == 0
    assert [p.name for p in out_dir.iterdir()] == [file]
    assert load_report(str(out_dir / file))["scenario"] == name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "out"]


def test_run_default_output_respects_env(tmp_path, monkeypatch, capsys, fixture_paths):
    monkeypatch.setenv("ANCHORNET_OUT_DIR", str(tmp_path))
    assert main(["run", str(fixture_paths["flooding-20"])]) == 0
    expected = tmp_path / "flooding-20-l5-multipath-20.json"
    assert expected.exists()


def test_run_twice_same_seed_byte_identical_files(tmp_path, fixture_paths):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    main(["run", str(fixture_paths["dual-path"]), "--out", str(out_a)])
    main(["run", str(fixture_paths["dual-path"]), "--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_compare_emits_table_and_json(tmp_path, capsys, fixture_paths):
    out_a, out_b, out_c = (tmp_path / n for n in ("a.json", "b.json", "cmp.json"))
    main(["run", str(fixture_paths["dual-path"]), "--mode", "baseline", "--out", str(out_a)])
    main(["run", str(fixture_paths["dual-path"]), "--mode", "l5", "--out", str(out_b)])
    capsys.readouterr()
    assert main(["compare", str(out_a), str(out_b), "--out", str(out_c)]) == 0
    table = capsys.readouterr().out
    assert "throughput ratio" in table
    result = json.loads(out_c.read_text())
    assert result["throughput_ratio"] > 3.5


def test_compare_rejects_topology_mismatch(tmp_path, capsys, fixture_paths):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    main(["run", str(fixture_paths["dual-path"]), "--out", str(out_a)])
    main(["run", str(fixture_paths["flooding-20"]), "--out", str(out_b)])
    assert main(["compare", str(out_a), str(out_b)]) == 1
    assert "topolog" in capsys.readouterr().err.lower()
    with pytest.raises(TopologyMismatch):
        compare(load_report(str(out_a)), load_report(str(out_b)))


UNUSABLE = {
    "missing.json": None,
    "latin1.json": "{\"name\": \"café\"}".encode("latin-1"),
    "domain-not-object.json": b'{"domains": [5]}',
    "links-not-list.json": b'{"links": "x"}',
    "attachments-not-list.json": b'{"domains": [{"id": "d", "attachments": 3}]}',
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name", sorted(UNUSABLE))
def test_unusable_scenario_is_one_line_per_problem_and_exit_1(tmp_path, capsys, command, name):
    path = tmp_path / name
    if UNUSABLE[name] is not None:
        path.write_bytes(UNUSABLE[name])
    assert main([command, str(path), *(["--out", str(tmp_path / "r.json")] if command == "run" else [])]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert lines and all(line.startswith(f"{path}: ") and len(line) > len(f"{path}: ") for line in lines)
    assert not (tmp_path / "r.json").exists()


def test_bad_rate_cap_is_a_diagnostic_not_a_simulation_fault(tmp_path, capsys, fixture_paths):
    raw = json.loads(fixture_paths["dual-path"].read_text())
    raw["events"][0]["rate_cap_mbps"] = "fast"
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == f"{path}: events[0].rate_cap_mbps: not a number: 'fast'\n"


@pytest.fixture(scope="module")
def report(tmp_path_factory, fixture_paths):
    out = tmp_path_factory.mktemp("report") / "dual-path.json"
    assert main(["run", str(fixture_paths["dual-path"]), "--out", str(out)]) == 0
    return out


UNREADABLE = {  # the bytes of a file that compare cannot use, and the reason it gives
    "missing.json": (None, "No such file or directory"),
    "not-json.json": (b"{ not json", "Expecting property name enclosed in double quotes: line 1 column 3 (char 2)"),
    "not-a-report.json": (b'{"scenario": "dual-path"}', "not an anchornet-metrics/2 report"),
    "incomplete.json": (b'{"schema": "anchornet-metrics/2"}', "report lacks scenario_hash"),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_compare_of_a_file_that_holds_no_report_is_one_line_and_exit_1(tmp_path, capsys, report, name):
    path = tmp_path / name
    content, reason = UNREADABLE[name]
    if content is not None:
        path.write_bytes(content)
    capsys.readouterr()
    assert main(["compare", str(report), str(path)]) == 1
    assert capsys.readouterr() == ("", f"{path}: {reason}\n")


def test_compare_of_a_report_without_a_field_it_reads_names_the_field(tmp_path, capsys, report):
    raw = json.loads(report.read_text())
    lid = min(raw["links"])
    del raw["links"][lid]["data_original"]
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["compare", str(report), str(path)]) == 1
    assert capsys.readouterr() == ("", f"{path}: report lacks links.{lid}.data_original\n")


MISTYPED = {  # a field that compare reads, set to a value of the wrong type, and the reason it gives
    "links-as-a-list": (("links",), [], "report's links is not an object"),
    "fraction-as-text": (("summary", "headline_fraction"), "0.5",
                         "report's summary.headline_fraction is not a number or null"),
}


@pytest.mark.parametrize("name", sorted(MISTYPED))
def test_compare_of_a_report_with_a_mistyped_field_names_the_field(tmp_path, capsys, report, name):
    keys, value, reason = MISTYPED[name]
    raw = json.loads(report.read_text())
    node = raw
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["compare", str(report), str(path)]) == 1
    assert capsys.readouterr() == ("", f"{path}: {reason}\n")


@pytest.mark.parametrize("command", ["run", "compare"])
def test_an_out_path_that_cannot_be_written_is_one_line_and_exit_1(tmp_path, capsys, monkeypatch, fixture_paths,
                                                                   report, command):
    out = tmp_path / "missing" / "out.json"
    monkeypatch.setattr(Simulation, "run", lambda self: pytest.fail("the run started"))
    inputs = [str(fixture_paths["dual-path"])] if command == "run" else [str(report), str(report)]
    capsys.readouterr()
    assert main([command, *inputs, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"{out}: No such file or directory\n")


@pytest.mark.parametrize("existed", [False, True])
def test_a_faulted_run_removes_only_the_report_file_it_created(tmp_path, capsys, monkeypatch, fixture_paths, existed):
    out = tmp_path / "rep.json"
    if existed:
        out.write_text("kept")

    def fault(self):
        raise RuntimeError("boom")

    monkeypatch.setattr(Simulation, "run", fault)
    assert main(["run", str(fixture_paths["dual-path"]), "--out", str(out)]) == 2
    assert "simulation fault: boom" in capsys.readouterr().err
    if existed:
        assert out.read_text() == "kept"
    else:
        assert not out.exists()

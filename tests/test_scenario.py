import json
import subprocess
import sys

import pytest

from anchornet.scenario import (
    ConfigInvalid,
    ParseError,
    load_scenario,
    parse_scenario,
    validate_text,
)


def test_shipped_fixtures_validate(fixture_paths):
    for name, path in fixture_paths.items():
        config = load_scenario(str(path))
        assert config.name == name


def _gen_flooding(scenario_dir, *args):
    script = scenario_dir.parent / "scripts" / "gen_flooding_scenario.py"
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, check=False, timeout=60,
    )


def test_flooding_generator_defaults_reproduce_fixture(scenario_dir):
    out = _gen_flooding(scenario_dir)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (scenario_dir / "flooding-20.json").read_bytes()


def test_flooding_generator_sizes(scenario_dir):
    out = _gen_flooding(scenario_dir, "--anchors", "100", "--extra-edges", "60")
    assert out.returncode == 0, out.stderr
    config = parse_scenario(out.stdout.decode())
    assert config.name == "flooding-100"
    assert len(config.anchors) == 100
    assert len(config.links) == 99 + 60
    too_many = _gen_flooding(scenario_dir, "--anchors", "3", "--extra-edges", "2")
    assert too_many.returncode == 2
    assert b"extra edges must be in [0, 1]" in too_many.stderr


def test_parse_error_carries_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x",\n  "seed": }\n')
    with pytest.raises(ParseError) as err:
        load_scenario(str(bad))
    assert err.value.line == 2
    assert err.value.column > 0


def _minimal():
    return {
        "name": "tiny",
        "seed": 1,
        "mode": "l5-multipath",
        "horizon_us": 1000,
        "domains": [{"id": "d1", "attachments": ["x", "y"]}],
        "links": [
            {
                "id": "l1",
                "domain": "d1",
                "endpoints": ["x", "y"],
                "capacity_mbps": 10,
                "latency_us": 5,
                "loss_prob": 0,
                "background_utilization": 0,
            }
        ],
        "anchors": [
            {"name": "a1", "ports": [{"domain": "d1", "attachment": "x"}], "peers": []}
        ],
        "hosts": [],
        "policy": [{"tag": "t", "weight": 1}],
        "events": [],
    }


def test_minimal_config_ok():
    diags = validate_text(json.dumps(_minimal()))
    assert diags == []


def test_unknown_domain_reference_names_the_field():
    raw = _minimal()
    raw["links"][0]["domain"] = "ghost"
    diags = validate_text(json.dumps(raw))
    assert any(d.path == "links[0].domain" for d in diags)


def test_loss_prob_one_is_out_of_range():
    raw = _minimal()
    raw["links"][0]["loss_prob"] = 1.0
    diags = validate_text(json.dumps(raw))
    assert any(d.path == "links[0].loss_prob" for d in diags)


def test_background_utilization_range():
    raw = _minimal()
    raw["links"][0]["background_utilization"] = 1.0
    diags = validate_text(json.dumps(raw))
    assert any("background_utilization" in d.path for d in diags)


def test_duplicate_node_names_rejected():
    raw = _minimal()
    raw["anchors"].append(
        {"name": "a1", "ports": [{"domain": "d1", "attachment": "y"}], "peers": []}
    )
    diags = validate_text(json.dumps(raw))
    assert any("duplicate" in d.message for d in diags)


def test_peering_requires_shared_domain_ports():
    raw = _minimal()
    raw["domains"].append({"id": "d2", "attachments": ["z"]})
    raw["anchors"] = [
        {"name": "a1", "ports": [{"domain": "d1", "attachment": "x"}],
         "peers": [{"anchor": "a2", "domain": "d1"}]},
        {"name": "a2", "ports": [{"domain": "d2", "attachment": "z"}], "peers": []},
    ]
    diags = validate_text(json.dumps(raw))
    assert any("port in domain" in d.message for d in diags)


def test_at_most_one_peering_per_anchor_pair():
    raw = _minimal()
    raw["domains"] = [
        {"id": "d1", "attachments": ["x", "y"]},
        {"id": "d2", "attachments": ["p", "q"]},
    ]
    raw["links"].append(
        {"id": "l2", "domain": "d2", "endpoints": ["p", "q"],
         "capacity_mbps": 10, "latency_us": 5}
    )
    raw["anchors"] = [
        {"name": "a1",
         "ports": [{"domain": "d1", "attachment": "x"}, {"domain": "d2", "attachment": "p"}],
         "peers": [{"anchor": "a2", "domain": "d1"}, {"anchor": "a2", "domain": "d2"}]},
        {"name": "a2",
         "ports": [{"domain": "d1", "attachment": "y"}, {"domain": "d2", "attachment": "q"}],
         "peers": []},
    ]
    diags = validate_text(json.dumps(raw))
    assert any("one peering" in d.message for d in diags)


def test_event_referential_integrity():
    raw = _minimal()
    raw["events"] = [
        {"time_us": 0, "kind": "open_session", "id": "s1", "src": "nobody",
         "dst": "nobody2", "tag": "t", "bytes": 100}
    ]
    diags = validate_text(json.dumps(raw))
    assert any(d.path.startswith("events[0]") for d in diags)


def test_stage_requires_gateway_anchor():
    raw = _minimal()
    raw["events"] = [
        {"time_us": 0, "kind": "stage", "gateway": "a1",
         "object": "cms.obj", "size_bytes": 100, "ttl_us": 10}
    ]
    diags = validate_text(json.dumps(raw))
    assert any("not a gateway" in d.message for d in diags)
    raw["anchors"][0]["gateway"] = True
    assert validate_text(json.dumps(raw)) == []


def test_scenario_hash_ignores_seed_and_mode():
    a = parse_scenario(json.dumps(_minimal()))
    raw = _minimal()
    raw["seed"] = 999
    raw["mode"] = "baseline-single-path"
    b = parse_scenario(json.dumps(raw))
    assert a.scenario_hash() == b.scenario_hash()
    raw["links"][0]["capacity_mbps"] = 20
    c = parse_scenario(json.dumps(raw))
    assert c.scenario_hash() != a.scenario_hash()


def test_config_invalid_raises_on_parse():
    raw = _minimal()
    raw["links"][0]["capacity_mbps"] = -5
    with pytest.raises(ConfigInvalid):
        parse_scenario(json.dumps(raw))

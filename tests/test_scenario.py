import hashlib
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from anchornet.scenario import (
    ConfigInvalid,
    ParseError,
    _build,
    load_scenario,
    parse_scenario,
    validate_text,
)
from scenario_corpus import DELETE, FIXTURES, SCENARIOS, bases, corpus, every_event_kind, sites


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


def test_a_host_name_that_ends_in_a_newline_is_reported(fixture_paths):
    raw = json.loads(fixture_paths["dual-path"].read_text())
    for entry in raw["hosts"] + raw["events"]:
        for field in ("name", "src"):
            if entry.get(field) == "caltech.h1":
                entry[field] = "caltech.h1\n"
    diags = validate_text(json.dumps(raw))
    assert any(d.path == "hosts[0].name" and repr("caltech.h1\n") in d.message for d in diags), diags


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


@pytest.mark.parametrize("mode", ["baseline-single-path", "l5-multipath"])
@pytest.mark.parametrize("fixture, field", [("dual-path", "dst"), ("transatlantic-pubsub", "subscribers")])
def test_a_session_from_its_source_to_itself_is_reported(fixture_paths, mode, fixture, field):
    raw = json.loads(fixture_paths[fixture].read_text())
    raw["mode"] = mode
    event = raw["events"][0]
    if field == "dst":
        event["dst"] = event["src"]
    else:
        event["subscribers"].append(event["src"])
    diags = validate_text(json.dumps(raw))
    place = "dst" if field == "dst" else f"subscribers[{len(event['subscribers']) - 1}]"
    assert [(d.path, d.message) for d in diags] == [
        (f"events[0].{place}", f"session {event['id']!r} sends from {event['src']!r} to itself")
    ]


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


# Fixed ids, so that rewording a message renames no case.
@pytest.mark.parametrize("path, value, message", [
    pytest.param(("seed",), True, "must be an integer, got True",
                 id="path0-True-must be an integer, got True"),
    pytest.param(("horizon_us",), True, "must be a positive integer, got True",
                 id="path1-True-must be a positive integer, got True"),
    pytest.param(("links", 0, "latency_us"), True, "must be a nonnegative integer, got True",
                 id="path2-True-must be a nonnegative integer, got True"),
    pytest.param(("events", 0, "time_us"), True, "must be a nonnegative integer, got True",
                 id="path3-True-must be a nonnegative integer, got True"),
    pytest.param(("events", 0, "bytes"), True, "must be a positive integer, got True",
                 id="path4-True-must be a positive integer, got True"),
    pytest.param(("events", 0, "k_paths"), True, "must be a positive integer, got True",
                 id="path5-True-must be a positive integer, got True"),
    pytest.param(("events", 1, "size_bytes"), True, "must be a positive integer, got True",
                 id="path6-True-must be a positive integer, got True"),
    pytest.param(("events", 1, "ttl_us"), True, "must be a positive integer, got True",
                 id="path7-True-must be a positive integer, got True"),
    pytest.param(("anchors", 3, "gateway"), "no", "must be a boolean, got 'no'",
                 id="path8-no-must be a boolean, got 'no'"),
    pytest.param(("domains", 0, "attachments"), "xy", "must be a list of ids, got 'xy'",
                 id="path9-xy-must be a list of ids, got 'xy'"),
    pytest.param(("links", 0, "endpoints"), "ab", "must name two distinct attachments",
                 id="path10-ab-must name two distinct attachments"),
    pytest.param(("events", 3, "subscribers"), "cern.h1", "pubsub session needs subscribers",
                 id="path11-cern.h1-pubsub session needs subscribers"),
    pytest.param(("events", 0, "rate_cap_mbps"), "fast", "not a number: 'fast'",
                 id="path12-fast-not a number: 'fast'"),
    pytest.param(("events", 0, "rate_cap_mbps"), -5, "must be positive, got -5",
                 id="path13--5-must be positive, got -5"),
    pytest.param(("events", 2, "k_paths"), 0, "must be a positive integer, got 0",
                 id="path14-0-must be a positive integer, got 0"),
    pytest.param(("events", 3, "object"), "Bad Name", "not a valid data name: 'Bad Name'",
                 id="path15-Bad Name-not a valid data name: 'Bad Name'"),
    pytest.param(("events", 3, "object"), 5, "not a valid data name: 5",
                 id="path16-5-not a valid data name: 5"),
    pytest.param(("events", 0, "object"), "Bad Name", "not a valid data name: 'Bad Name'",
                 id="path17-Bad Name-not a valid data name: 'Bad Name'"),
    pytest.param(("events", 3, "src"), "caltech.h1", "'caltech.h1' is not a gateway anchor",
                 id="path18-caltech.h1-'caltech.h1' is not a gateway anchor"),
    pytest.param(("policy", 0, "weight"), -0.5, "tag 'atlas' weight must be positive, got -1/2",
                 id="path19--0.5-tag 'atlas' weight must be positive, got -1/2"),
    pytest.param(("policy", 0, "weight"), "heavy", "not a number: 'heavy'",
                 id="path20-heavy-not a number: 'heavy'"),
    pytest.param(("policy", 0, "tag"), "t" * 33, f"tag must be 1..32 bytes, got {'t' * 33!r}",
                 id=f"path21-{'t' * 33}-tag must be 1..32 bytes, got {'t' * 33!r}"),
    pytest.param(("policy", 0, "tag"), "\ud800", "tag must be 1..32 bytes, got '\\ud800'",
                 id="path22-\ud800-tag must be 1..32 bytes, got '\\ud800'"),  # pytest prints ids escaped
    pytest.param(("domains", 0, "attachments"), ["h1-port", "h1-port"],
                 "attachment ids must be unique within the domain",
                 id="path23-value23-attachment ids must be unique within the domain"),
    pytest.param(("links", 0, "endpoints"), ["h1-port", "nowhere"],
                 "attachment 'nowhere' not declared in domain 'west-site'",
                 id="path24-value24-attachment 'nowhere' not declared in domain 'west-site'"),
    pytest.param(("links", 0, "loss_prob"), 1.5, "must lie in [0, 1), got 3/2",
                 id="path25-1.5-must lie in [0, 1), got 3/2"),
    pytest.param(("links", 0, "cost"), "x", "not a number: 'x'",
                 id="path26-x-not a number: 'x'"),
    pytest.param(("events", 3, "bytes"), "junk", "must be a positive integer, got 'junk'",
                 id="path27-junk-must be a positive integer, got 'junk'"),
])
def test_value_of_the_wrong_kind_is_reported_at_its_field(path, value, message):
    raw = every_event_kind()
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    where = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")
    if isinstance(value, list):  # a list of ids reports the element that fails
        where += f"[{len(value) - 1}]"
    assert str(validate_text(json.dumps(raw))[0]) == f"{where}: {message}"


def test_every_event_kind_scenario_is_valid():
    assert validate_text(json.dumps(every_event_kind())) == []


@pytest.mark.parametrize("text, raises", [
    ('{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}", ParseError),
    ('{"seed": ' + "1" * 5000 + "}", ParseError),
    ('{"anchors": [{"name": "\\ud800"}], "policy": [{"tag": "\\ud800"}]}', ConfigInvalid),
])
def test_text_json_or_utf8_cannot_hold_gets_a_diagnostic(text, raises):
    assert validate_text(text)
    with pytest.raises(raises):
        parse_scenario(text)


def test_config_invalid_raises_on_parse():
    raw = _minimal()
    raw["links"][0]["capacity_mbps"] = -5
    with pytest.raises(ConfigInvalid):
        parse_scenario(json.dumps(raw))


# -- pins measured at 79fb0a7, on the hand-written validator the tables replaced -------

# Generalized site (indices dropped, events named by kind) -> the values
# that made the hand-written validator raise instead of returning a diagnostic.
RAISED_BEFORE = {
    ".anchors": '"x" null true',
    ".anchors[]": '"x" [] null true',
    ".anchors[].name": '[] null true {}',
    ".anchors[].peers": 'null true',
    ".anchors[].peers[].anchor": '[] {}',
    ".anchors[].peers[].domain": '[] {}',
    ".anchors[].ports": '"x" null true',
    ".anchors[].ports[]": '"x" [] null true',
    ".anchors[].ports[].attachment": '[] {}',
    ".anchors[].ports[].domain": '[] {}',
    ".domains": '"x" null true',
    ".domains[]": '"x" [] null true',
    ".domains[].attachments": 'null true',
    ".domains[].attachments[]": '[] {}',
    ".events": '"x" null true',
    ".events[link_down]": '"x" [] null true',
    ".events[link_down].link": '[] {}',
    ".events[open_session/pubsub]": '"x" [] null true',
    ".events[open_session/pubsub].src": '[] {}',
    ".events[open_session/pubsub].subscribers": 'true',
    ".events[open_session/pubsub].subscribers[]": '[] {}',
    ".events[open_session/pubsub].tag": '[] {}',
    ".events[open_session]": '"x" [] null true',
    ".events[open_session].dst": '[] {}',
    ".events[open_session].src": '[] {}',
    ".events[open_session].tag": '[] {}',
    ".events[stage]": '"x" [] null true',
    ".events[stage].gateway": '[] {}',
    ".events[stage].object": '[] null true {}',
    ".events[subscribe]": '"x" [] null true',
    ".events[subscribe].gateway": '[] {}',
    ".events[subscribe].object": '[] null true {}',
    ".events[subscribe].tag": '[] {}',
    ".hosts": '"x" null true',
    ".hosts[]": '"x" [] null true',
    ".hosts[].anchor": '[] {}',
    ".hosts[].name": '[] null true {}',
    ".hosts[].port": '"x" [] null true',
    ".hosts[].port.attachment": '[] {}',
    ".hosts[].port.domain": '[] {}',
    ".links": '"x" null true',
    ".links[]": '"x" [] null true',
    ".links[].domain": '[] {}',
    ".links[].endpoints": 'null true',
    ".links[].endpoints[]": '[] {}',
    ".policy": '"x" null true',
    ".policy[]": '"x" [] null true',
}

INT_FIELDS = {"seed", "horizon_us", "latency_us", "time_us", "bytes", "k_paths", "size_bytes", "ttl_us"}
LIST_FIELDS = {
    "domains", "links", "anchors", "hosts", "policy", "events",
    "attachments", "ports", "peers", "endpoints", "subscribers",
}


def _site(base: dict, path: tuple) -> str:
    """``path`` with indices dropped; an event index becomes the base event's kind."""
    site = ""
    for depth, key in enumerate(path):
        if depth == 1 and path[0] == "events":
            event = base["events"][key]
            mode = event.get("session_mode")
            site += f"[{event['kind']}{'/' + mode if mode else ''}]"
        else:
            site += "[]" if isinstance(key, int) else f".{key}"
    return site


def _intended_change(site: str, value) -> bool:
    """Inputs whose diagnostics changed on purpose: a boolean where an
    integer is required, a non-boolean anchor ``gateway``, a string or an
    object where a list is required, a ``rate_cap_mbps`` or a subscribe
    event's ``k_paths`` (both read by the simulator, neither checked before)
    that is not a positive number, and an open_session's staged ``object``
    that is not a data name (read by the simulator, not checked before)."""
    field = site.rsplit(".", 1)[-1]
    if value is DELETE:
        return False
    if field in INT_FIELDS and value is True:
        return True
    if site == ".anchors[].gateway":
        return type(value) is not bool
    if field in LIST_FIELDS and type(value) in (str, dict):
        return True
    if field == "rate_cap_mbps":
        return value is not None and (type(value) not in (int, float) or value <= 0)
    if site == ".events[subscribe].k_paths":
        return type(value) is not int or value <= 0
    if site == ".events[open_session/pubsub].object":
        return value is not None and (type(value) is not str or value == "")
    return False


def _corpus_outcomes():
    """The digest of the diagnostics of every corpus input but the exempt,
    the exempt with theirs, and the keys of the inputs that get none.
    ``_build`` is ``validate_text`` less the JSON decoding, which the corpus
    need not repeat 11,000 times."""
    bases_ = {name: json.loads(text) for name, text in bases().items()}
    pinned, exempt, accepted = hashlib.sha256(), [], []
    for key, path, label, value, scenario in corpus():
        diagnostics = [str(d) for d in _build(scenario)[1]]
        if not diagnostics:
            accepted.append(key)
        site = _site(bases_[key.split(":")[0]], path)
        if label in RAISED_BEFORE.get(site, "").split(" ") or _intended_change(site, value):
            exempt.append((key, diagnostics))
        else:
            pinned.update(f"{key}\t{json.dumps(diagnostics)}\n".encode())
    return pinned.hexdigest(), exempt, accepted


# Measured at 79fb0a7 with validate_text, on the same corpus and exemptions;
# re-measured when the four wrong-typed or empty ``object``s of the pub/sub
# open_session left the pinned entries for the exempt: every other entry's
# diagnostics are unchanged.  Re-measured when a staged open_session's ``src``
# had to be a gateway: one entry changed, ``every-event-kind:.anchors[3].gateway=del``
# gained ``events[3].src: 'anchor-east' is not a gateway anchor``.  Re-measured when
# the validator's rules became rows of one walker: a nested entry reports at its
# field, a list element at its index, and a number of the wrong kind as
# ``not a number: 'x'``; the accepted inputs (CORPUS_ACCEPTED) did not change.
CORPUS_DIGEST = "ee601860a0f75f27f38884274a3c6bb793420e89fe6b8770a453d2a6e5ad157d"
CORPUS_EXEMPT = 3527
# sha256 of the sorted keys, one a line, of the 804 inputs that get no diagnostic,
# measured at e89f4d7: a rewrite of the validator that re-pins CORPUS_DIGEST
# must still accept exactly these.
CORPUS_ACCEPTED = "1c28328dea7b3aa59ba5475e704b24d1c90488900d6a8166cfe9c92afe5d71c7"


def test_corpus_diagnostics_are_pinned():
    digest, exempt, accepted = _corpus_outcomes()
    assert hashlib.sha256("\n".join(sorted(accepted)).encode()).hexdigest() == CORPUS_ACCEPTED
    assert digest == CORPUS_DIGEST
    assert len(exempt) == CORPUS_EXEMPT
    for key, diagnostics in exempt:
        assert diagnostics, key


def _config_texts():
    """The four fixtures, and the four benchmark workloads at seeds 1 and 2."""
    sys.path.insert(0, str(SCENARIOS.parent / "anchorbench"))
    from workloads import WORKLOADS

    texts = [(SCENARIOS / f"{name}.json").read_text() for name in FIXTURES]
    texts += [json.dumps(gen(seed)) for gen in WORKLOADS.values() for seed in (1, 2)]
    return texts


# sha256 of the configs' reprs: it holds every field's value and type (Fraction,
# float or int), each event's defaults among its fields.
CONFIG_DIGEST = "a281f60097f76ac904ec76f791d088c8a4bf350ad55d5658ed7dfbfdccef7d5f"


def test_parsed_configs_are_pinned():
    blob = "\n".join(repr(parse_scenario(text)) for text in _config_texts())
    assert hashlib.sha256(blob.encode()).hexdigest() == CONFIG_DIGEST


# -- the validator never raises ---------------------------------------------------------

TEXTS = bases()
BASES = {name: json.loads(text) for name, text in TEXTS.items()}
SITES = {name: list(sites(root)) for name, root in BASES.items()}


def _leaves(node):
    """Every dict key and string in ``node``: values that reach the schema."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield key
            yield from _leaves(child)
    elif isinstance(node, list):
        for child in node:
            yield from _leaves(child)
    elif isinstance(node, str):
        yield node


WORDS = sorted({word for root in BASES.values() for word in _leaves(root)} | {"\ud800", ""})
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | st.sampled_from(WORDS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=4), inner, max_size=6),
    max_leaves=20,
)


def _reports_and_never_raises(text):
    diagnostics = validate_text(text)
    assert all(type(d.path) is str and type(d.message) is str for d in diagnostics)
    try:
        parse_scenario(text)
    except ConfigInvalid as exc:
        assert exc.diagnostics == diagnostics != []
    except ParseError:
        assert [d.path for d in diagnostics] == ["$"]
    else:
        assert diagnostics == []


@settings(max_examples=200, deadline=None)
@given(st.one_of(JSON.map(json.dumps), st.text(max_size=40)))
def test_any_text_gets_diagnostics_never_an_exception(text):
    _reports_and_never_raises(text)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_fixtures_get_diagnostics_never_an_exception(data):
    name = data.draw(st.sampled_from(sorted(BASES)))
    root = json.loads(TEXTS[name])
    for path in data.draw(st.lists(st.sampled_from(SITES[name]), min_size=1, max_size=3)):
        try:  # an earlier mutation may have removed the place
            parent = root
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (IndexError, KeyError, TypeError):
            continue
        if isinstance(parent, str):  # a string an earlier mutation put there: indexed, never assigned
            continue
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON)
    _reports_and_never_raises(json.dumps(root))

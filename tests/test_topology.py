import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from anchornet.anchor import Anchor
from anchornet.simnet import Simulation
from anchornet.topology import (
    Adjacency,
    LinkStateAdvertisement,
    LsaContentMismatch,
    TopologyDatabase,
    has_edge,
)
from oracles import (
    flood_arrivals,
    flood_converged_us,
    flood_fixpoint,
    flood_transmissions,
    random_connected_adjacency,
)
from scenario_builders import flood_run, flood_simulation


def adj(neighbor, cap=100, lat=100, domain="net"):
    return Adjacency(neighbor, Fraction(cap), lat, domain)


def test_receive_new_origin_floods():
    db, flood = TopologyDatabase().receive(LinkStateAdvertisement("a", 1, (adj("b"),)))
    assert flood


def test_receive_equal_seq_is_duplicate():
    lsa = LinkStateAdvertisement("a", 1, (adj("b"),))
    db, _ = TopologyDatabase().receive(lsa)
    before = db.digest()
    db2, flood = db.receive(LinkStateAdvertisement("a", 1, (adj("b"),)))
    assert not flood
    assert db2 is db and db.lsas["a"] is lsa and db.digest() == before


def test_receive_stale_seq_is_ignored():
    db, _ = TopologyDatabase().receive(LinkStateAdvertisement("a", 5, (adj("b"),)))
    db2, flood = db.receive(LinkStateAdvertisement("a", 3, (adj("c"),)))
    assert not flood
    assert db2.lsas["a"].seq == 5


def test_reflooded_same_advertisement_is_duplicate():
    lsa = LinkStateAdvertisement("a", 1, (adj("b"),))
    db, _ = TopologyDatabase().receive(lsa)
    db2, flood = db.receive(lsa)
    assert not flood
    assert db2 is db


def test_equal_seq_content_mismatch_is_a_fault():
    db, _ = TopologyDatabase().receive(LinkStateAdvertisement("a", 1, (adj("b"),)))
    with pytest.raises(LsaContentMismatch):
        db.receive(LinkStateAdvertisement("a", 1, (adj("c"),)))


def test_encode_is_field_order_stable():
    lsa1 = LinkStateAdvertisement("a", 1, (adj("c"), adj("b")))
    lsa2 = LinkStateAdvertisement("a", 1, (adj("b"), adj("c")))
    assert lsa1.encode() == lsa2.encode()


def test_graph_mirrors_legs_of_non_advertising_neighbors():
    lsa = LinkStateAdvertisement("a", 1, (adj("host.x", domain="site"),))
    db, _ = TopologyDatabase().receive(lsa)
    graph = db.graph()
    # a host never advertises, so it is recognized as a leaf and gets the
    # mirror edge back toward its anchor
    assert any(e.neighbor == "a" for e in graph["host.x"])
    assert any(e.neighbor == "host.x" for e in graph["a"])


def test_graph_anchor_edges_need_both_advertisements():
    db, _ = TopologyDatabase().receive(LinkStateAdvertisement("a", 1, (adj("b"),)))
    db, _ = db.receive(LinkStateAdvertisement("b", 1, (adj("a"),)))
    graph = db.graph()
    assert any(e.neighbor == "b" for e in graph["a"])
    assert any(e.neighbor == "a" for e in graph["b"])


def test_graph_is_read_only():
    db, _ = TopologyDatabase().receive(LinkStateAdvertisement("a", 1, (adj("b"),)))
    graph = db.graph()
    with pytest.raises(TypeError):
        graph["c"] = ()
    with pytest.raises(TypeError):
        del graph["a"]
    assert db.graph() is graph
    assert set(db.graph()) == {"a", "b"}


def _fresh_views(db):
    """Graph and digest of ``db`` computed on new, uncached objects."""
    lsas = {
        origin: LinkStateAdvertisement(lsa.origin, lsa.seq, lsa.adjacencies)
        for origin, lsa in db.lsas.items()
    }
    copy = TopologyDatabase(lsas)
    encoded = b"".join(lsas[origin].encode() for origin in sorted(lsas))
    return dict(copy.graph()), hashlib.sha256(encoded).hexdigest()


def _views(db):
    return dict(db.graph()), db.digest()


def _databases(sim):
    return {name: anchor.db for name, anchor in sim.anchors.items()}


def _seqs(db):
    return {origin: lsa.seq for origin, lsa in db.lsas.items()}


def _line(*names):
    """Adjacency legs of anchors joined in a line, one domain per adjacency."""
    configs = {name: [] for name in names}
    for u, v in zip(names, names[1:]):
        configs[u].append(adj(v, domain=f"net-{u}-{v}"))
        configs[v].append(adj(u, domain=f"net-{u}-{v}"))
    return configs


def test_cached_views_match_fresh_computation():
    rng = random.Random(17)
    for _ in range(20):
        configs = random_connected_adjacency(rng, max_nodes=12)
        databases = _databases(flood_run(configs))
        # Replay the flooded advertisements into one database in a random
        # order, reading every view before each receipt so that a cached
        # graph is there for the receipt to drop.
        lsas = list(next(iter(databases.values())).lsas.values())
        rng.shuffle(lsas)
        db = TopologyDatabase()
        for lsa in lsas:
            _views(db)
            db, _ = db.receive(lsa)
            fresh = _fresh_views(db)
            assert _views(db) == fresh
            assert _views(db) == fresh  # second read comes from the cache
        for db in databases.values():
            fresh = _fresh_views(db)
            assert _views(db) == fresh
            assert _views(db) == fresh


def test_three_anchor_line_converges():
    databases = _databases(flood_run(_line("a", "b", "c")))
    assert len({db.digest() for db in databases.values()}) == 1
    assert set(databases["a"].lsas) == {"a", "b", "c"}


def test_partitioned_components_converge_independently():
    configs = {**_line("a", "b"), "c": []}
    sim = flood_run(configs)
    databases = _databases(sim)
    assert set(databases["a"].lsas) == {"a", "b"}
    assert databases["a"].digest() == databases["b"].digest()
    assert set(databases["c"].lsas) == {"c"}
    # The isolated anchor originates once, with no adjacencies, and sends nothing.
    assert _seqs(databases["c"]) == {"c": 1}
    assert databases["c"].lsas["c"].adjacencies == ()
    assert sim.lsa_tx == {("a", 1): 1, ("b", 1): 1}

    # A failed link cuts the line a - b - c in two: b and c each advertise
    # again, and each new advertisement stays on its own side of the cut.
    sim = flood_run(_line("a", "b", "c"), [{"time_us": 10_000, "kind": "link_down", "link": "net-b-c"}])
    databases = _databases(sim)
    assert databases["a"].digest() == databases["b"].digest() != databases["c"].digest()
    assert _seqs(databases["b"]) == {"a": 1, "b": 2, "c": 1}
    assert _seqs(databases["c"]) == {"a": 1, "b": 1, "c": 2}
    assert databases["c"].lsas["c"].adjacencies == ()
    assert {key: n for key, n in sim.lsa_tx.items() if key[1] == 2} == {("b", 2): 1}


def test_converge_matches_flood_fixpoint_oracle():
    rng = random.Random(99)
    for _ in range(25):
        configs = random_connected_adjacency(rng, max_nodes=12)
        sim = flood_run(configs)
        expected = flood_fixpoint(configs)
        for name in configs:
            assert sim.anchors[name].db.digest() == expected[name].digest(), name


def test_transmission_bound_per_origination():
    """Each origination takes exactly the oracle's count of transmissions, on a
    connected overlay 2E - (N - 1), within the 2E bound."""
    rng = random.Random(5)
    for _ in range(25):
        configs = random_connected_adjacency(rng, max_nodes=12)
        edges = sum(len(v) for v in configs.values()) // 2
        sim = flood_run(configs)
        expected = flood_transmissions(configs)
        assert set(expected.values()) == {2 * edges - (len(configs) - 1)}
        assert sim.lsa_tx == {(origin, 1): count for origin, count in expected.items()}
        for (origin, seq), count in sim.lsa_tx.items():
            assert count <= 2 * edges, (origin, seq, count, edges)


class _ArrivalRecordingSimulation(Simulation):
    """Notes when each anchor first accepts each origination."""

    def __init__(self, config):
        super().__init__(config)
        self.arrivals = {}  # (origin, seq) -> anchor -> time of its first acceptance

    def _handle_lsa(self, event, now):
        lsa, held = event.lsa, self.anchors[event.to_anchor].db.lsas.get(event.lsa.origin)
        if held is None or held.seq < lsa.seq:
            self.arrivals.setdefault((lsa.origin, lsa.seq), {})[event.to_anchor] = now
        super()._handle_lsa(event, now)


def test_each_anchor_first_accepts_an_origination_at_its_latency_distance():
    for seed in range(60):
        configs = random_connected_adjacency(random.Random(seed), max_nodes=12)
        sim = flood_run(configs, simulation=_ArrivalRecordingSimulation)
        assert sim.arrivals == {(origin, 1): dist for origin, dist in flood_arrivals(configs).items()}, seed


class _LastLsaSimulation(Simulation):
    """Notes when it handles its last LSA event."""

    last_lsa_us = None

    def _handle_lsa(self, event, now):
        self.last_lsa_us = now
        super()._handle_lsa(event, now)


def _run_through(sim, until_us):
    while sim.queue.peek_time() is not None and sim.queue.peek_time() <= until_us:
        sim.step()


def test_databases_converge_at_the_oracles_time_and_copies_settle_within_one_latency():
    """Every database equals the fixpoint once the queue has run through
    ``flood_converged_us``, not every one does a microsecond earlier, and the
    last LSA copy lands at most one adjacency latency after it."""
    for seed in range(40):
        configs = random_connected_adjacency(random.Random(seed), max_nodes=12)
        converged, expected = flood_converged_us(configs), flood_fixpoint(configs)
        sim = flood_simulation(configs, simulation=_LastLsaSimulation)
        _run_through(sim, converged - 1)
        assert any(sim.anchors[a].db.digest() != expected[a].digest() for a in configs), seed
        _run_through(sim, converged)
        assert all(sim.anchors[a].db.digest() == expected[a].digest() for a in configs), seed
        sim.run()
        latest = max(adj.latency_us for adjs in configs.values() for adj in adjs)
        assert converged <= sim.last_lsa_us <= converged + latest, seed


def test_a_failed_adjacency_floods_each_ends_new_advertisement_over_the_surviving_mesh():
    """One adjacency fails once the bootstrap's copies have settled.  Each end
    originates seq 2 with the adjacencies that survive it, and that flood
    takes the oracle's count of transmissions and reaches each anchor at its
    latency distance in the surviving mesh.  No other origin advertises
    again.  So each database ends holding seq 2 for each end in its own
    surviving component, and the bootstrap's seq 1 for every other origin,
    an end that the cut separated from it included."""
    partitioned = 0
    for seed in range(40):
        rng = random.Random(seed)
        configs = random_connected_adjacency(rng, max_nodes=12)
        failed = rng.choice(sorted({adj.domain_id for adjs in configs.values() for adj in adjs}))
        ends = sorted(a for a, adjs in configs.items() if any(adj.domain_id == failed for adj in adjs))
        surviving = {a: [adj for adj in adjs if adj.domain_id != failed] for a, adjs in configs.items()}
        latest = max(adj.latency_us for adjs in configs.values() for adj in adjs)
        at = flood_converged_us(configs) + latest + 1
        sim = flood_run(configs, [{"time_us": at, "kind": "link_down", "link": failed}],
                        simulation=_ArrivalRecordingSimulation)
        arrivals, counts = flood_arrivals(surviving), flood_transmissions(surviving)
        for end in ends:
            assert sim.lsa_tx.get((end, 2), 0) == counts[end], seed
            assert sim.arrivals.get((end, 2), {}) == {a: at + d for a, d in arrivals[end].items()}, seed
        assert {key for key in sim.lsa_tx if key[1] != 1} <= {(end, 2) for end in ends}, seed
        partitioned += ends[1] not in arrivals[ends[0]]
        bootstrap = {origin: LinkStateAdvertisement(origin, 1, tuple(adjs)) for origin, adjs in configs.items()}
        for name in configs:
            lsas = dict(bootstrap)
            for end in ends:
                if end == name or name in arrivals[end]:
                    lsas[end] = LinkStateAdvertisement(end, 2, tuple(surviving[end]))
            assert sim.anchors[name].db.digest() == TopologyDatabase(lsas).digest(), (seed, name)
    assert partitioned > 0  # some cuts leave two components


def test_converge_is_deterministic():
    rng = random.Random(13)
    configs = random_connected_adjacency(rng, max_nodes=15)
    one = flood_run(configs)
    two = flood_run(configs)
    assert {n: d.digest() for n, d in _databases(one).items()} == {
        n: d.digest() for n, d in _databases(two).items()
    }
    assert one.lsa_tx == two.lsa_tx
    assert one._trace.hexdigest() == two._trace.hexdigest()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_random_graph_convergence_property(seed):
    configs = random_connected_adjacency(random.Random(seed), max_nodes=10)
    digests = {db.digest() for db in _databases(flood_run(configs)).values()}
    assert len(digests) == 1  # generator always produces one component


def _partial_lsas(seed):
    """Advertisements of a random connected mesh with hosts hung off some
    anchors, where some anchors have not advertised yet and some advertise no
    legs (all their links are down); and every node name, plus one that
    appears nowhere."""
    rng = random.Random(seed)
    configs = random_connected_adjacency(rng, max_nodes=10)
    anchors = sorted(configs)
    hosts = [f"h{i}" for i in range(rng.randint(0, 3))]
    for host in hosts:
        configs[rng.choice(anchors)].append(adj(host, domain="site"))
    silent = set(rng.sample(anchors, rng.randrange(len(anchors))))
    for cut in rng.sample(anchors, rng.randint(0, 2)):
        configs[cut] = []
    lsas = {a: LinkStateAdvertisement(a, 1, tuple(configs[a])) for a in anchors if a not in silent}
    return lsas, anchors + hosts + ["ghost"]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_has_edge_reads_the_graph_without_building_it(seed):
    lsas, nodes = _partial_lsas(seed)
    graph = TopologyDatabase(lsas).graph()
    for u in nodes:
        neighbours = {e.neighbor for e in graph.get(u, ())}
        for v in nodes:
            assert has_edge(lsas, u, v) == (v in neighbours), (u, v)


# One receipt: origin, seq, and which of two adjacency sets it advertises.
_RECEIPTS = st.lists(st.tuples(st.sampled_from("abc"), st.integers(1, 4), st.booleans()), max_size=40)
_VARIANTS = {False: (adj("b"),), True: (adj("c"), adj("host.x", domain="site"))}


@settings(max_examples=80, deadline=None)
@given(_RECEIPTS)
def test_an_anchors_database_decides_as_receive_does_and_its_views_follow_it(receipts):
    """Each of an anchor's decisions against a plain model of the rule: keep the
    newest seq per origin, flood exactly when the origin is new or the seq newer,
    fault on an equal seq with other content.  After each receipt every view is
    checked against one computed afresh, so a view cached before an accepted
    receipt must not be read after it."""
    db, model = Anchor("a").db, {}
    for origin, seq, variant in receipts:
        lsa = LinkStateAdvertisement(origin, seq, _VARIANTS[variant])
        stored = model.get(origin)
        if stored is not None and stored[0] == seq and stored[1] != variant:
            with pytest.raises(LsaContentMismatch):
                db.receive(lsa)
        else:
            newer = stored is None or seq > stored[0]
            written, flood = db.receive(lsa)
            assert written is db and flood == newer
            if newer:
                model[origin] = (seq, variant)
        assert {o: (kept.seq, kept.adjacencies) for o, kept in db.lsas.items()} == {
            o: (s, _VARIANTS[v]) for o, (s, v) in model.items()
        }
        assert _views(db) == _fresh_views(db)

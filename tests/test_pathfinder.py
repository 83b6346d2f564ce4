import random
from fractions import Fraction

import pytest

from anchornet.pathfinder import k_disjoint_paths, lex_shortest
from oracles import all_simple_paths, db_from_edges, reference_k_disjoint

DIAMOND = {
    ("a", "b"): (100, 1),
    ("b", "d"): (100, 1),
    ("a", "c"): (100, 1),
    ("c", "d"): (100, 1),
}


def test_diamond_two_disjoint_paths_lex_order():
    db = db_from_edges(DIAMOND)
    paths = k_disjoint_paths(db, "a", "d", 2)
    assert [p.hops for p in paths] == [("a", "b", "d"), ("a", "c", "d")]
    assert [p.metric_us for p in paths] == [2, 2]


def test_diamond_k3_exhausts_at_two():
    db = db_from_edges(DIAMOND)
    assert len(k_disjoint_paths(db, "a", "d", 3)) == 2


def test_disconnected_returns_empty():
    db = db_from_edges({("a", "b"): (100, 1), ("c", "d"): (100, 1)})
    assert k_disjoint_paths(db, "a", "d", 2) == []


def test_absent_node_is_an_error():
    db = db_from_edges(DIAMOND)
    with pytest.raises(ValueError):
        k_disjoint_paths(db, "a", "zz", 1)


def test_same_node_degenerate_path():
    db = db_from_edges(DIAMOND)
    paths = k_disjoint_paths(db, "a", "a", 2)
    assert len(paths) == 1
    assert paths[0].hops == ("a",)
    assert paths[0].metric_us == 0
    assert paths[0].min_capacity_mbps is None


def test_min_capacity_is_bottleneck():
    db = db_from_edges({("a", "b"): (40, 1), ("b", "c"): (10, 1)})
    (path,) = k_disjoint_paths(db, "a", "c", 1)
    assert path.min_capacity_mbps == Fraction(10)


def test_host_access_legs_are_exempt_from_disjointness():
    db = db_from_edges(
        DIAMOND, hosts={"h.src": ("a", 1000, 1), "h.dst": ("d", 1000, 1)}
    )
    paths = k_disjoint_paths(db, "h.src", "h.dst", 2)
    assert [p.hops for p in paths] == [
        ("h.src", "a", "b", "d", "h.dst"),
        ("h.src", "a", "c", "d", "h.dst"),
    ]


def _random_graph(rng):
    n = rng.randint(2, 8)
    names = [f"n{i}" for i in range(n)]
    graph = {name: [] for name in names}
    edges = {}
    for i in range(1, n):
        j = rng.randrange(i)
        edges[(names[j], names[i])] = (rng.randint(10, 100), rng.randint(1, 50))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(names, 2)
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges[key] = (rng.randint(10, 100), rng.randint(1, 50))
    return names, edges


def test_matches_exhaustive_oracle_on_random_graphs():
    rng = random.Random(4242)
    for trial in range(100):
        names, edges = _random_graph(rng)
        db = db_from_edges(edges)
        graph = {n: [] for n in names}
        for (u, v), (cap, lat) in edges.items():
            graph[u].append((v, lat))
            graph[v].append((u, lat))
        src, dst = rng.sample(names, 2)
        k = rng.randint(1, 4)
        got = k_disjoint_paths(db, src, dst, k)
        want = reference_k_disjoint(graph, set(names), src, dst, k)
        assert [(p.metric_us, p.hops) for p in got] == want, (trial, src, dst, k)


def test_first_path_is_globally_shortest():
    rng = random.Random(777)
    for _ in range(50):
        names, edges = _random_graph(rng)
        db = db_from_edges(edges)
        graph = {n: [] for n in names}
        for (u, v), (cap, lat) in edges.items():
            graph[u].append((v, lat))
            graph[v].append((u, lat))
        src, dst = rng.sample(names, 2)
        got = k_disjoint_paths(db, src, dst, 1)
        candidates = all_simple_paths(graph, src, dst)
        if not candidates:
            assert got == []
            continue
        assert (got[0].metric_us, got[0].hops) == min(candidates)


def test_one_search_settles_every_target_as_the_exhaustive_oracle():
    # one search to several targets gives each the path a search to it alone
    # would: the smallest (metric, hops); a target it cannot reach is absent
    rng = random.Random(1009)
    for trial in range(50):
        names, edges = _random_graph(rng)
        graph = {n: [] for n in names}
        for (u, v), (cap, lat) in edges.items():
            graph[u].append((v, lat))
            graph[v].append((u, lat))
        src, *targets = rng.sample(names, min(4, len(names)))
        targets.append("island")  # in no edge
        want = {}
        for dst in targets:
            candidates = all_simple_paths(graph, src, dst)
            if candidates:
                want[dst] = min(candidates)
        assert lex_shortest(src, set(targets), graph.__getitem__) == want, trial


def test_metrics_nondecreasing_and_edges_disjoint():
    rng = random.Random(31)
    for _ in range(60):
        names, edges = _random_graph(rng)
        db = db_from_edges(edges)
        src, dst = rng.sample(names, 2)
        paths = k_disjoint_paths(db, src, dst, 4)
        metrics = [p.metric_us for p in paths]
        assert metrics == sorted(metrics)
        seen = set()
        for p in paths:
            for u, v in zip(p.hops, p.hops[1:]):
                key = frozenset((u, v))
                assert key not in seen
                seen.add(key)


def test_determinism_byte_for_byte():
    db = db_from_edges(DIAMOND)
    a = k_disjoint_paths(db, "a", "d", 2)
    b = k_disjoint_paths(db, "a", "d", 2)
    assert a == b


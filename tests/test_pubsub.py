import random
from fractions import Fraction

import pytest

from anchornet.pubsub import Unreachable, anchor_of, build_tree, unicast_cost_crossings
from oracles import db_from_edges

STAR = db_from_edges(
    {
        ("eu", "hub"): (100, 3000),
        ("hub", "us-a"): (100, 300),
        ("hub", "us-b"): (100, 300),
        ("hub", "us-c"): (100, 300),
    },
    hosts={
        "pub.host": ("eu", 1000, 20),
        "sub.a": ("us-a", 1000, 20),
        "sub.b": ("us-b", 1000, 20),
        "sub.c": ("us-c", 1000, 20),
    },
)

COSTS = {
    frozenset(("eu", "hub")): Fraction(10),
    frozenset(("hub", "us-a")): Fraction(1),
    frozenset(("hub", "us-b")): Fraction(1),
    frozenset(("hub", "us-c")): Fraction(1),
}


def test_single_subscriber_tree_is_shortest_path():
    tree = build_tree(STAR, "pub.host", ["sub.a"], COSTS)
    assert tree.root == "eu"
    assert tree.edges == (("eu", "hub"), ("hub", "us-a"))


def test_colocated_subscriber_gives_zero_edge_tree():
    db = db_from_edges(
        {("eu", "hub"): (100, 10)},
        hosts={"pub.host": ("eu", 1000, 5), "sub.local": ("eu", 1000, 5)},
    )
    tree = build_tree(db, "pub.host", ["sub.local"])
    assert tree.edges == ()
    assert tree.root == "eu"


def test_costly_link_crossed_once_vs_three_times_unicast():
    tree = build_tree(STAR, "pub.host", ["sub.a", "sub.b", "sub.c"], COSTS)
    atlantic = [e for e in tree.edges if frozenset(e) == frozenset(("eu", "hub"))]
    assert len(atlantic) == 1
    tree_cost = tree.cost_crossings(COSTS)
    unicast_cost = unicast_cost_crossings(STAR, "pub.host", ["sub.a", "sub.b", "sub.c"], COSTS)
    assert tree_cost == Fraction(13)
    assert unicast_cost == Fraction(33)


def test_unreachable_subscribers_all_reported():
    db = db_from_edges(
        {("eu", "hub"): (100, 10), ("lone-a", "lone-b"): (100, 10)},
        hosts={"pub.host": ("eu", 1000, 5), "sub.x": ("lone-a", 1000, 5), "sub.y": ("lone-b", 1000, 5)},
    )
    with pytest.raises(Unreachable) as err:
        build_tree(db, "pub.host", ["sub.x", "sub.y"])
    assert err.value.subscribers == ("sub.x", "sub.y")


def test_tree_is_deterministic():
    one = build_tree(STAR, "pub.host", ["sub.c", "sub.a", "sub.b"], COSTS)
    two = build_tree(STAR, "pub.host", ["sub.a", "sub.b", "sub.c"], COSTS)
    assert one.edges == two.edges
    assert one.root == two.root


def _random_case(rng):
    n = rng.randint(2, 9)
    names = [f"a{i}" for i in range(n)]
    edges = {}
    for i in range(1, n):
        j = rng.randrange(i)
        edges[(names[j], names[i])] = (100, rng.randint(1, 50))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(names, 2)
        key = (min(u, v), max(u, v))
        edges.setdefault(key, (100, rng.randint(1, 50)))
    costs = {frozenset(k): Fraction(rng.randint(1, 20)) for k in edges}
    db = db_from_edges(edges)
    return names, db, costs


def test_tree_never_costs_more_than_unicast():
    rng = random.Random(555)
    for _ in range(60):
        names, db, costs = _random_case(rng)
        publisher = names[0]
        subscribers = rng.sample(names[1:], min(len(names) - 1, rng.randint(1, 4)))
        tree = build_tree(db, publisher, subscribers, costs)
        tree_cost = tree.cost_crossings(costs)
        ucast_cost = unicast_cost_crossings(db, publisher, subscribers, costs)
        assert tree_cost <= ucast_cost


def test_tree_structure_invariants():
    rng = random.Random(808)
    for _ in range(60):
        names, db, costs = _random_case(rng)
        publisher = names[0]
        subscribers = rng.sample(names[1:], min(len(names) - 1, rng.randint(1, 4)))
        tree = build_tree(db, publisher, subscribers, costs)
        nodes = {tree.root} | {node for edge in tree.edges for node in edge}
        assert len(tree.edges) == len(nodes) - 1
        parents = {}
        for parent, child in tree.edges:
            assert child not in parents, "one parent per node"
            parents[child] = parent
        for sub in subscribers:
            anc = anchor_of(db, sub)
            node = anc
            hops = 0
            while node != tree.root:
                node = parents[node]
                hops += 1
                assert hops <= len(nodes)


def test_anchor_of_host_and_anchor():
    assert anchor_of(STAR, "pub.host") == "eu"
    assert anchor_of(STAR, "hub") == "hub"
    with pytest.raises(ValueError):
        anchor_of(STAR, "nobody")

"""``water_fill`` against the exact round-by-round filling oracle.

Rates and residuals must be equal as ``Fraction``s, not merely close: the
allocator's fill level is exact, so any difference is a bug.
"""

import random
from fractions import Fraction

import pytest

from anchornet.allocator import Demand, DemandMatrix, water_fill
from oracles import progressive_fill_exact, random_exact_instance

F = Fraction


def assert_matches_oracle(capacities: dict, demands: list[dict]) -> None:
    alloc = water_fill(
        capacities,
        DemandMatrix(
            tuple(
                Demand(d["id"], d["weight"], d["links"], demand_cap_mbps=d["cap"])
                for d in demands
            )
        ),
    )
    rates, residuals = progressive_fill_exact(capacities, demands)
    assert alloc.rates_exact == rates
    assert alloc.residuals_exact == residuals


def demand(sid, weight, links, cap=None):
    return {"id": sid, "weight": F(weight), "links": set(links), "cap": cap}


EDGE_CASES = {
    # lcm of the denominators is 6: integer weights 2, 9 and 6
    "fractional-weights": (
        {"l1": F(10), "l2": F(7)},
        [demand("a", F(1, 3), {"l1"}), demand("b", F(3, 2), {"l1", "l2"}), demand("c", 1, {"l2"})],
    ),
    # l1 fills at normalized level 5, exactly where a's cap of 5 binds
    "cap-binds-with-link": (
        {"l1": F(10), "l2": F(30)},
        [demand("a", 1, {"l1"}, F(5)), demand("b", 1, {"l1", "l2"}), demand("c", 1, {"l2"})],
    ),
    "zero-cap": (
        {"l1": F(10)},
        [demand("a", 1, {"l1"}, F(0)), demand("b", 2, {"l1"})],
    ),
    "capped-demand-crossing-no-links": (
        {"l1": F(10)},
        [demand("a", F(3, 2), set(), F(4)), demand("b", 1, {"l1"})],
    ),
    "empty-matrix": ({"l1": F(10), "l2": F(3, 7)}, []),
    # levels far beyond float range still order exactly
    "huge-capacity": (
        {"l1": F(10**400), "l2": F(10**400 + 1)},
        [demand("a", 1, {"l1"}), demand("b", 2, {"l1", "l2"}), demand("c", 1, {"l2"}, F(10**399))],
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_matches_oracle(name):
    assert_matches_oracle(*EDGE_CASES[name])


def test_cap_and_link_bind_in_the_same_round():
    caps, demands = EDGE_CASES["cap-binds-with-link"]
    alloc = water_fill(
        caps,
        DemandMatrix(
            tuple(Demand(d["id"], d["weight"], d["links"], d["cap"]) for d in demands)
        ),
    )
    assert alloc.rates_exact == {"a": F(5), "b": F(5), "c": F(25)}
    assert alloc.residuals_exact == {"l1": F(0), "l2": F(0)}


def test_random_instances_match_oracle_exactly():
    rng = random.Random(20221)
    seen = {"fractional": 0, "zero_cap": 0, "linkless": 0, "empty": 0}
    for _ in range(400):
        capacities, demands = random_exact_instance(rng)
        assert_matches_oracle(capacities, demands)
        seen["empty"] += not demands
        seen["fractional"] += any(d["weight"].denominator > 1 for d in demands)
        seen["zero_cap"] += any(d["cap"] == 0 for d in demands)
        seen["linkless"] += any(not d["links"] for d in demands)
    assert all(seen.values()), seen

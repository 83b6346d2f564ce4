"""``water_fill`` against the exact round-by-round filling oracle.

Rates and residuals must be equal as ``Fraction``s, not merely close: the
allocator's fill level is exact, so any difference is a bug.
"""

import random
from fractions import Fraction
from itertools import combinations, count

import pytest
from hypothesis import given, settings, strategies as st

from anchornet.allocator import Demand, DemandMatrix, Filling, water_fill
from oracles import progressive_fill_exact, random_exact_instance

F = Fraction
THIRD = F(1, 3)
TINY = F(1, 2**40)


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
    # equal as Fractions and in dict order
    assert list(alloc.rates_exact.items()) == list(rates.items())
    assert list(alloc.residuals_exact.items()) == list(residuals.items())


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
    # Each link saturates at half its capacity, and 1/3 - TINY, 1/3 and
    # 1/3 + TINY share one heap lead, floor(level * 2**32), so the exact
    # tie-break orders them.  Below 1/3 the lower level has the larger
    # numerator: ordering (numerator, denominator) pairs lexicographically
    # would fill "hi" first and freeze "both" too high.
    "lead-tie-below-a-third": (
        {"hi": 2 * THIRD, "lo": 2 * (THIRD - TINY), "side": F(10)},
        [demand("both", 1, {"hi", "lo"}), demand("on-hi", 1, {"hi"}), demand("on-lo", 1, {"lo", "side"})],
    ),
    "lead-tie-above-a-third": (
        {"hi": 2 * (THIRD + TINY), "lo": 2 * THIRD, "side": F(10)},
        [demand("both", 1, {"hi", "lo"}), demand("on-hi", 1, {"hi"}), demand("on-lo", 1, {"lo", "side"})],
    ),
    # "a" and "b" saturate at exactly 1/3, "c" just above with the same lead
    "equal-levels-and-a-lead-tie": (
        {"a": F(2, 3), "b": THIRD, "c": 2 * (THIRD + TINY), "d": F(5)},
        [demand("ab", 1, {"a", "b"}), demand("a-only", 1, {"a", "c"}),
         demand("c-only", 1, {"c", "d"}), demand("d-only", 2, {"d"})],
    ),
    # levels far beyond float range still order exactly
    "huge-capacity": (
        {"l1": F(10**400), "l2": F(10**400 + 1)},
        [demand("a", 1, {"l1"}), demand("b", 2, {"l1", "l2"}), demand("c", 1, {"l2"}, F(10**399))],
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_matches_oracle(name):
    assert_matches_oracle(*EDGE_CASES[name])


def test_tie_cases_share_one_heap_lead():
    def lead(level):
        return (level.numerator << 32) // level.denominator

    assert lead(THIRD - TINY) == lead(THIRD) == lead(THIRD + TINY)
    assert THIRD - TINY < THIRD < THIRD + TINY


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



def _add(filling, live, cid, d):
    live[cid] = d
    filling.add(cid, Demand(d["id"], d["weight"], d["links"], demand_cap_mbps=d["cap"]))


def _fill_and_check(capacities, filling, live):
    """Fills ``filling``; its rates and residuals must equal the oracle's
    over the ``live`` claimants, in dict order, and the fill must return
    exactly the live claimants whose rate moved, with their rates before it
    (``None`` for one added since the last fill)."""
    before = {cid: filling.rate.get(cid) for cid in live}
    moved = filling.fill()
    assert moved == {cid: old for cid, old in before.items() if filling.rate[cid] != old}
    alloc = filling.allocation()
    rates, residuals = progressive_fill_exact(capacities, list(live.values()))
    assert list(alloc.rates_exact.items()) == list(rates.items())
    assert list(alloc.residuals_exact.items()) == list(residuals.items())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_add_and_remove_sequences_match_a_fresh_fill_every_epoch(data):
    """One kept ``Filling`` through random epochs of adds and removes, on
    random instances and on the edge cases (lead ties, caps that bind with a
    link, zero caps), checked against the oracle after every epoch."""
    source = data.draw(st.sampled_from(["random"] * 4 + sorted(EDGE_CASES)), label="source")
    if source == "random":
        capacities, pool = random_exact_instance(random.Random(data.draw(st.integers(0, 2**32))))
    else:
        capacities, pool = EDGE_CASES[source]
    filling, live, ids = Filling(capacities), {}, count()
    for _ in range(data.draw(st.integers(1, 6), label="epochs")):
        for _ in range(data.draw(st.integers(0, 4), label="changes")):
            if live and (not pool or data.draw(st.booleans(), label="remove")):
                cid = data.draw(st.sampled_from(sorted(live)), label="removed")
                filling.remove(cid)
                del live[cid]
            elif pool:
                d, cid = data.draw(st.sampled_from(pool), label="added"), next(ids)
                _add(filling, live, cid, {**d, "id": f"{d['id']}#{cid}"})
        _fill_and_check(capacities, filling, live)


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_every_second_epoch_of_an_edge_case_matches_a_fresh_fill(name):
    """Fill every subset of an edge case's claimants, then add the rest in one
    epoch; and fill all of them, then remove every subset in one epoch.  A
    kept round whose level only a lead tie separates from an added key's
    level must restart: in "lead-tie-below-a-third", "both" and "on-hi"
    freeze on "hi" at 1/3, and adding "on-lo" lowers "lo" to 1/3 - TINY."""
    capacities, demands = EDGE_CASES[name]
    every = range(len(demands))
    for subset in (s for size in range(len(demands) + 1) for s in combinations(every, size)):
        for first, second in ((subset, [i for i in every if i not in subset]), (every, subset)):
            filling, live = Filling(capacities), {}
            for i in first:
                _add(filling, live, i, demands[i])
            _fill_and_check(capacities, filling, live)
            for i in second:
                if i in live:
                    filling.remove(i)
                    del live[i]
                else:
                    _add(filling, live, i, demands[i])
            _fill_and_check(capacities, filling, live)

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from anchornet.addressing import ScienceDomainTag
from anchornet.allocator import (
    Demand,
    DemandMatrix,
    UnknownLink,
    UnknownTag,
    domain_shares,
    water_fill,
)
from oracles import bisect_water_fill, max_min_property_holds, random_fill_instance


def matrix(*demands):
    return DemandMatrix(tuple(demands))


def test_symmetric_split():
    alloc = water_fill(
        {"l1": 10},
        matrix(
            Demand("a", 1, {"l1"}, tag="t"),
            Demand("b", 1, {"l1"}, tag="t"),
        ),
    )
    assert alloc.rates_mbps == {"a": 5.0, "b": 5.0}
    assert alloc.residuals_exact["l1"] == 0


def test_weighted_split_single_saturation():
    alloc = water_fill(
        {"l1": 12},
        matrix(Demand("a", 1, {"l1"}), Demand("b", 2, {"l1"})),
    )
    assert alloc.rates_mbps == {"a": 4.0, "b": 8.0}
    # cross-check against the bisection oracle
    oracle = bisect_water_fill(
        {"l1": 12.0},
        [
            {"id": "a", "weight": 1, "links": {"l1"}, "cap": None},
            {"id": "b", "weight": 2, "links": {"l1"}, "cap": None},
        ],
    )
    assert abs(oracle["a"] - 4.0) < 1e-9 and abs(oracle["b"] - 8.0) < 1e-9


def test_two_saturation_events():
    alloc = water_fill(
        {"l1": 10, "l2": 4},
        matrix(Demand("a", 1, {"l1"}), Demand("b", 1, {"l1", "l2"})),
    )
    assert alloc.rates_mbps == {"a": 6.0, "b": 4.0}
    oracle = bisect_water_fill(
        {"l1": 10.0, "l2": 4.0},
        [
            {"id": "a", "weight": 1, "links": {"l1"}, "cap": None},
            {"id": "b", "weight": 1, "links": {"l1", "l2"}, "cap": None},
        ],
    )
    assert abs(oracle["a"] - 6.0) < 1e-9 and abs(oracle["b"] - 4.0) < 1e-9


def test_empty_session_list():
    alloc = water_fill({"l1": 10, "l2": 4}, matrix())
    assert alloc.rates_mbps == {}
    assert alloc.residuals_exact == {"l1": 10, "l2": 4}


def test_unknown_link():
    with pytest.raises(UnknownLink):
        water_fill({"l1": 10}, matrix(Demand("a", 1, {"l9"})))


def test_demand_cap_respected():
    alloc = water_fill(
        {"l1": 10},
        matrix(Demand("a", 1, {"l1"}, demand_cap_mbps=2), Demand("b", 1, {"l1"})),
    )
    assert alloc.rates_mbps == {"a": 2.0, "b": 8.0}


def test_unbounded_demand_with_no_links_rejected():
    with pytest.raises(ValueError):
        water_fill({"l1": 10}, matrix(Demand("a", 1, frozenset())))


def test_conservation_identity_exact():
    alloc = water_fill(
        {"l1": 7, "l2": 13},
        matrix(
            Demand("a", 3, {"l1", "l2"}),
            Demand("b", 1, {"l2"}),
            Demand("c", 2, {"l1"}),
        ),
    )
    for lid, cap in (("l1", 7), ("l2", 13)):
        total = sum(
            alloc.rates_exact[d]
            for d, links in (("a", {"l1", "l2"}), ("b", {"l2"}), ("c", {"l1"}))
            if lid in links
        )
        assert total + alloc.residuals_exact[lid] == cap


def test_oracle_equivalence_on_random_instances():
    rng = random.Random(1234)
    for trial in range(120):
        caps, demands = random_fill_instance(rng)
        alloc = water_fill(
            {l: Fraction(c) for l, c in caps.items()},
            matrix(
                *(
                    Demand(d["id"], d["weight"], d["links"], demand_cap_mbps=d["cap"])
                    for d in demands
                )
            ),
        )
        oracle = bisect_water_fill({l: float(c) for l, c in caps.items()}, demands)
        for d in demands:
            assert abs(alloc.rates_mbps[d["id"]] - oracle[d["id"]]) <= 1e-9, (
                trial,
                d["id"],
                alloc.rates_mbps,
                oracle,
            )
        assert max_min_property_holds(
            alloc.rates_mbps, {l: float(c) for l, c in caps.items()}, demands
        ), trial


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100)),
)
def test_scale_covariance(seed, scale):
    caps, demands = random_fill_instance(random.Random(seed))
    dm = matrix(
        *(Demand(d["id"], d["weight"], d["links"], demand_cap_mbps=d["cap"]) for d in demands)
    )
    base = water_fill({l: Fraction(c) for l, c in caps.items()}, dm)
    dm_scaled = matrix(
        *(
            Demand(
                d["id"],
                d["weight"],
                d["links"],
                demand_cap_mbps=None if d["cap"] is None else Fraction(d["cap"]) * scale,
            )
            for d in demands
        )
    )
    scaled = water_fill({l: Fraction(c) * scale for l, c in caps.items()}, dm_scaled)
    for sid, rate in base.rates_exact.items():
        assert scaled.rates_exact[sid] == rate * scale


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.fractions(min_value=Fraction(1, 7), max_value=Fraction(9)),
)
def test_weight_scaling_invariance(seed, factor):
    caps, demands = random_fill_instance(random.Random(seed))
    dm = matrix(
        *(Demand(d["id"], d["weight"], d["links"], demand_cap_mbps=d["cap"]) for d in demands)
    )
    rescaled = matrix(
        *(
            Demand(d["id"], Fraction(d["weight"]) * factor, d["links"], demand_cap_mbps=d["cap"])
            for d in demands
        )
    )
    caps_exact = {l: Fraction(c) for l, c in caps.items()}
    assert water_fill(caps_exact, dm).rates_exact == water_fill(caps_exact, rescaled).rates_exact


POLICY = (ScienceDomainTag("atlas", 1), ScienceDomainTag("cms", 2))


def test_domain_shares_follow_weights():
    dm = matrix(
        Demand("s-atlas", 1, {"l1"}, tag="atlas"),
        Demand("s-cms", 2, {"l1"}, tag="cms"),
    )
    alloc = water_fill({"l1": 90}, dm)
    shares = domain_shares(alloc, dm, POLICY)
    assert shares == {"atlas": 30.0, "cms": 60.0}
    assert shares["cms"] / shares["atlas"] == pytest.approx(2.0, abs=1e-12)


def test_domain_shares_single_domain_identity():
    dm = matrix(
        Demand("x", 1, {"l1"}, tag="atlas"),
        Demand("y", 1, {"l1"}, tag="atlas"),
    )
    alloc = water_fill({"l1": 10}, dm)
    shares = domain_shares(alloc, dm, POLICY)
    assert shares["atlas"] == pytest.approx(sum(alloc.rates_mbps.values()))


def test_domain_shares_unknown_tag():
    dm = matrix(Demand("x", 1, {"l1"}, tag="lhcb"))
    alloc = water_fill({"l1": 10}, dm)
    with pytest.raises(UnknownTag):
        domain_shares(alloc, dm, POLICY)

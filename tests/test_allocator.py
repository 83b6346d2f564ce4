import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from anchornet.addressing import ScienceDomainTag
from anchornet.allocator import Demand, UnknownLink, UnknownTag, domain_shares, water_fill
from oracles import (
    bisect_water_fill, link_residuals, max_min_property_holds, progressive_fill_exact, random_fill_instance,
)


def fill(capacities, *demands):
    """``water_fill``'s exact rates and the residuals they leave on each link."""
    rates = water_fill(capacities, demands)
    rows = [{"id": d.session_id, "links": d.links} for d in demands]
    return rates, link_residuals(capacities, rows, rates)


def test_symmetric_split():
    rates, residuals = fill(
        {"l1": 10},
        Demand("a", 1, {"l1"}, tag="t"),
        Demand("b", 1, {"l1"}, tag="t"),
    )
    assert rates == {"a": 5, "b": 5}
    assert residuals["l1"] == 0


def test_weighted_split_single_saturation():
    rates = water_fill({"l1": 12}, [Demand("a", 1, {"l1"}), Demand("b", 2, {"l1"})])
    assert rates == {"a": 4, "b": 8}
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
    rates = water_fill({"l1": 10, "l2": 4}, [Demand("a", 1, {"l1"}), Demand("b", 1, {"l1", "l2"})])
    assert rates == {"a": 6, "b": 4}
    oracle = bisect_water_fill(
        {"l1": 10.0, "l2": 4.0},
        [
            {"id": "a", "weight": 1, "links": {"l1"}, "cap": None},
            {"id": "b", "weight": 1, "links": {"l1", "l2"}, "cap": None},
        ],
    )
    assert abs(oracle["a"] - 6.0) < 1e-9 and abs(oracle["b"] - 4.0) < 1e-9


def test_empty_session_list():
    rates, residuals = fill({"l1": 10, "l2": 4})
    assert rates == {}
    assert residuals == {"l1": 10, "l2": 4}


def test_unknown_link():
    with pytest.raises(UnknownLink):
        water_fill({"l1": 10}, [Demand("a", 1, {"l9"})])


def test_demand_cap_respected():
    rates = water_fill({"l1": 10}, [Demand("a", 1, {"l1"}, demand_cap_mbps=2), Demand("b", 1, {"l1"})])
    assert rates == {"a": 2, "b": 8}
    # a claimant's cap is keyed apart from the links, even when its id names one
    capped = water_fill({"l1": 10}, [Demand("l1", 1, {"l1"}, demand_cap_mbps=3), Demand("b", 1, {"l1"})])
    assert capped == {"l1": Fraction(3), "b": Fraction(7)}


def test_unbounded_demand_with_no_links_rejected():
    with pytest.raises(ValueError):
        water_fill({"l1": 10}, [Demand("a", 1, frozenset())])


def test_repeated_session_id_rejected():
    with pytest.raises(ValueError, match=r"claimant \('a',\) is already held"):
        water_fill({"l1": 10}, [Demand("a", 1, {"l1"}), Demand("a", 2, {"l1"})])


def test_conservation_identity_exact():
    caps = {"l1": Fraction(7), "l2": Fraction(13)}
    rates, residuals = fill(
        caps,
        Demand("a", 3, {"l1", "l2"}),
        Demand("b", 1, {"l2"}),
        Demand("c", 2, {"l1"}),
    )
    # both links fill exactly, as the exact filling oracle's do
    assert residuals == {"l1": 0, "l2": 0}
    oracle = progressive_fill_exact(caps, [
        {"id": "a", "weight": Fraction(3), "links": {"l1", "l2"}, "cap": None},
        {"id": "b", "weight": Fraction(1), "links": {"l2"}, "cap": None},
        {"id": "c", "weight": Fraction(2), "links": {"l1"}, "cap": None},
    ])
    assert (rates, residuals) == oracle


def test_oracle_equivalence_on_random_instances():
    rng = random.Random(1234)
    for trial in range(120):
        caps, demands = random_fill_instance(rng)
        rates = water_fill(
            {l: Fraction(c) for l, c in caps.items()},
            (Demand(d["id"], d["weight"], d["links"], demand_cap_mbps=d["cap"]) for d in demands),
        )
        mbps = {sid: float(rate) for sid, rate in rates.items()}
        oracle = bisect_water_fill({l: float(c) for l, c in caps.items()}, demands)
        for d in demands:
            assert abs(mbps[d["id"]] - oracle[d["id"]]) <= 1e-9, (trial, d["id"], mbps, oracle)
        assert max_min_property_holds(mbps, {l: float(c) for l, c in caps.items()}, demands), trial


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100)),
)
def test_scale_covariance(seed, scale):
    caps, demands = random_fill_instance(random.Random(seed))
    dm = [Demand(d["id"], d["weight"], d["links"], demand_cap_mbps=d["cap"]) for d in demands]
    base = water_fill({l: Fraction(c) for l, c in caps.items()}, dm)
    dm_scaled = [
        Demand(
            d["id"],
            d["weight"],
            d["links"],
            demand_cap_mbps=None if d["cap"] is None else Fraction(d["cap"]) * scale,
        )
        for d in demands
    ]
    scaled = water_fill({l: Fraction(c) * scale for l, c in caps.items()}, dm_scaled)
    for sid, rate in base.items():
        assert scaled[sid] == rate * scale


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.fractions(min_value=Fraction(1, 7), max_value=Fraction(9)),
)
def test_weight_scaling_invariance(seed, factor):
    caps, demands = random_fill_instance(random.Random(seed))
    dm = [Demand(d["id"], d["weight"], d["links"], demand_cap_mbps=d["cap"]) for d in demands]
    rescaled = [
        Demand(d["id"], Fraction(d["weight"]) * factor, d["links"], demand_cap_mbps=d["cap"])
        for d in demands
    ]
    caps_exact = {l: Fraction(c) for l, c in caps.items()}
    assert water_fill(caps_exact, dm) == water_fill(caps_exact, rescaled)


POLICY = (ScienceDomainTag("atlas", 1), ScienceDomainTag("cms", 2))


def test_domain_shares_follow_weights():
    dm = [
        Demand("s-atlas", 1, {"l1"}, tag="atlas"),
        Demand("s-cms", 2, {"l1"}, tag="cms"),
    ]
    shares = domain_shares(water_fill({"l1": 90}, dm), dm, POLICY)
    assert shares == {"atlas": 30.0, "cms": 60.0}
    assert shares["cms"] / shares["atlas"] == pytest.approx(2.0, abs=1e-12)


def test_domain_shares_single_domain_identity():
    dm = [
        Demand("x", 1, {"l1"}, tag="atlas"),
        Demand("y", 1, {"l1"}, tag="atlas"),
    ]
    rates = water_fill({"l1": 10}, dm)
    shares = domain_shares(rates, dm, POLICY)
    assert shares["atlas"] == pytest.approx(sum(float(rate) for rate in rates.values()))


def test_domain_shares_unknown_tag():
    dm = [Demand("x", 1, {"l1"}, tag="lhcb")]
    rates = water_fill({"l1": 10}, dm)
    with pytest.raises(UnknownTag):
        domain_shares(rates, dm, POLICY)

"""anchornet: a session-layer overlay toolkit with a deterministic simulator.

Hosts and data objects get names above the packet layer; anchor points
terminate the substrate at their ports and steer named sessions over
multiple paths; a water-filling allocator splits capacity between science
domains by policy weight; distribution trees fan one stream out to many
subscribers; edge gateways keep an ephemeral catalog of staged objects.
Everything runs on a single-threaded, seeded event loop so experiments
reproduce bit for bit.
"""

from .addressing import AddressKind, L3Locator, ResolverTable, ScienceDomainTag
from .allocator import Demand, domain_shares, water_fill
from .pathfinder import L5Path, k_disjoint_paths
from .pubsub import DistributionTree, build_tree
from .scenario import ScenarioConfig, load_scenario, parse_scenario, validate_text
from .session import ReceiverSession, Segment, SenderSession
from .simnet import Simulation
from .topology import Adjacency, LinkStateAdvertisement, TopologyDatabase

__version__ = "0.1.0"

__all__ = [
    "AddressKind",
    "Adjacency",
    "Demand",
    "DistributionTree",
    "L3Locator",
    "L5Path",
    "LinkStateAdvertisement",
    "ReceiverSession",
    "ResolverTable",
    "ScenarioConfig",
    "ScienceDomainTag",
    "Segment",
    "SenderSession",
    "Simulation",
    "TopologyDatabase",
    "build_tree",
    "domain_shares",
    "k_disjoint_paths",
    "load_scenario",
    "parse_scenario",
    "validate_text",
    "water_fill",
]

"""toughkit: exact graph toughness at desk scale.

Computes the toughness of small graphs as exact rationals, decides and
certifies minimal toughness, recognizes chordal / split / claw-free /
2K2-free graphs with checkable certificates, generates the named minimally
tough families, and sweeps enumerated corpora to verify the structural
facts behind all of it.
"""

from .enumeration import (
    canonical_key,
    enumerate_connected_graphs,
    enumerate_trees,
)
from .families import (
    ClawfreeHalfFromTree,
    Cycle,
    DoubleStar,
    Path,
    SplitTriangle,
    Star,
    generate,
    recognize_2k2_min_tough,
    recognize_clawfree_half,
    recognize_clawfree_min_tough,
    recognize_split_min_tough,
    split_expand,
)
from .graph6 import (
    Graph6Error,
    encode_graph6,
    format_adjacency,
    parse_adjacency,
    parse_graph6,
    parse_graph_auto,
)
from .graphs import (
    Graph,
    blocks,
    bridges,
    edge,
    simplicial_vertices,
    vertex_connectivity,
)
from .harness import (
    EnumerationSource,
    Graph6Source,
    ScanRow,
    VerificationReport,
    run_suite,
    run_suites,
    scan_minimally_tough,
)
from .mintough import (
    EdgeWitness,
    clawfree_half_witness,
    edge_deletion_witness,
    is_minimally_t_tough,
    minimal_toughness_value,
    split_clique_edge_witness,
    twok2_neighborhood_witness,
)
from .recognition import (
    ClassCertificate,
    is_2k2_free,
    is_chordal,
    is_claw_free,
    is_split,
)
from .toughness import (
    Toughness,
    WitnessSet,
    clawfree_toughness,
    is_t_tough,
    naive_toughness_oracle,
    toughness,
    validate_tough_set,
    witness_for,
)

__version__ = "1.0.0"

__all__ = [
    "ClassCertificate",
    "ClawfreeHalfFromTree",
    "Cycle",
    "DoubleStar",
    "EdgeWitness",
    "EnumerationSource",
    "Graph",
    "Graph6Error",
    "Graph6Source",
    "Path",
    "ScanRow",
    "SplitTriangle",
    "Star",
    "Toughness",
    "VerificationReport",
    "WitnessSet",
    "blocks",
    "bridges",
    "canonical_key",
    "clawfree_half_witness",
    "clawfree_toughness",
    "edge",
    "edge_deletion_witness",
    "encode_graph6",
    "enumerate_connected_graphs",
    "enumerate_trees",
    "format_adjacency",
    "generate",
    "is_2k2_free",
    "is_chordal",
    "is_claw_free",
    "is_minimally_t_tough",
    "is_split",
    "is_t_tough",
    "minimal_toughness_value",
    "naive_toughness_oracle",
    "parse_adjacency",
    "parse_graph6",
    "parse_graph_auto",
    "recognize_2k2_min_tough",
    "recognize_clawfree_half",
    "recognize_clawfree_min_tough",
    "recognize_split_min_tough",
    "run_suite",
    "run_suites",
    "scan_minimally_tough",
    "simplicial_vertices",
    "split_clique_edge_witness",
    "split_expand",
    "toughness",
    "twok2_neighborhood_witness",
    "validate_tough_set",
    "vertex_connectivity",
    "witness_for",
]

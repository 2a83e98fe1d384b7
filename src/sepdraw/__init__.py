"""Separator-edge analysis for simple drawings of complete graphs:
recognition from rotation systems, crossing-free Hamiltonian structures,
and completion of partial drawings to K_n."""

__version__ = "0.1.0"

from .rotation import (  # noqa: F401
    RealizabilityTables,
    RotationSystem,
    canonical_key,
    convex,
    crosses_any,
    crossing_pairs,
    crossings_of_edge,
    is_g_convex,
    is_realizable,
    is_realizable_touching,
    mirror,
    pair_crossing,
    parse_crs,
    relabel,
    same_triangle_side,
    serialize_crs,
    subrotation,
)
from .cmap import (  # noqa: F401
    CombinatorialMap,
    MapBuilder,
    WitnessSet,
    crossing_pairs_of_map,
    extract_rotation_system,
    from_two_page,
    parse_cmap,
    serialize_cmap,
    validate_map,
    validate_witness,
    witness_set,
)
from .enumeration import (  # noqa: F401
    EnumeratedDrawing,
    build_tables,
    default_tables,
    enumerate_good_drawings,
    parse_tables,
    realize,
    serialize_tables,
)
from .separability import (  # noqa: F401
    Flip,
    FlipCandidate,
    SeparabilityResult,
    SeparatorCertificate,
    SeparatorEvidence,
    find_any_separator_edge,
    flip_candidates,
    is_separable,
    is_separator_edge,
    separator_edges_at,
    side_partition,
    valid_flips,
)
from .hamiltonicity import (  # noqa: F401
    PlaneCycle,
    PlaneMatching,
    PlanePath,
    ham_cycle,
    ham_path,
    plane_matching,
    verify_crossing_free,
)
from .routing import find_witness, min_cost_route  # noqa: F401
from .extension import (  # noqa: F401
    ExtensionResult,
    InsertionResult,
    extend_to_complete_crossmin,
    extend_to_complete_separable,
    insert_min_crossings,
    insert_min_witness_crossings,
)

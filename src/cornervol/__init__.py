"""Exact computational convex geometry for mixed-volume inequalities.

Volumes, mixed volumes, anti-blocking (convex-corner) decompositions, orthant
assemblies of locally anti-blocking bodies, closed-form aligned-simplex mixed
volumes, and verification of the Godbersen mixed-volume bound with its
equality cases.  All arithmetic is exact rational.
"""

from .antiblocking import (
    AntiBlockingBody,
    ReverseKleitmanReport,
    RSProjectionReport,
    ab_hull,
    ab_join_volume,
    ab_opposite_mixed,
    random_ab_body,
    reverse_kleitman_check,
    rs_projection_check,
    validate_ab,
)
from .assembly import (
    AssemblyError,
    AuditStep,
    EngineDisagreementError,
    GenerationError,
    GodbersenReport,
    OrthantAssembly,
    ProofChainAudit,
    all_signs,
    assemble,
    equality_family,
    from_unconditional,
    godbersen_check,
    lab_mixed,
    lab_volume,
    negate_assembly,
    proof_chain_audit,
    random_assembly,
)
from .geometry import (
    CoordSubspace,
    VPolytope,
    convex_hull,
    join_hull,
    linear_map,
    max_dim,
    member,
    minkowski_sum,
    negate,
    origin,
    project,
    reflect,
    relative_volume,
    scale,
    shadow,
    standard_simplex,
    sum_polytopes,
    unit_cube,
    volume,
)
from .mixed import (
    VolumePolynomial,
    mixed_volume_pair,
    mixed_volume_tuple,
    volume_polynomial,
)
from .simplex import (
    AlignedSimplex,
    corner_power_integral,
    corollary_mixed_volume,
    fubini_sum_volume,
    godbersen_equality_values,
    lemma_mixed_volume,
    simplex_sum_series,
    sum_decomposition_check,
)

__version__ = "0.1.0"

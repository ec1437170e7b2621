"""Certified non-uniform hyperbolicity for torus maps.

Block certificates over orbit windows, quasi-hyperbolic partitions of long
segments, periodic shadowing of pseudo-orbits, and specification-style
gluing of orbit pieces into approximating periodic measures.
"""

import os as _os


def _cap_threads():
    # PESINLAB_THREADS caps BLAS pools; must land before numpy initializes.
    cap = _os.environ.get("PESINLAB_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        _os.environ.setdefault(var, cap)


_cap_threads()

from .errors import (  # noqa: E402
    ConvergenceError,
    DegenerateSplittingError,
    DimensionMismatchError,
    GeometryError,
    NotInvertibleError,
    PesinLabError,
    PseudoOrbitFormatError,
    SingularRestrictionError,
    UnresolvedTransitionError,
    UnsupportedSystemError,
)
from .systems import (  # noqa: E402
    CatMap,
    CircleG,
    CompositeMap,
    Product24,
    Splitting,
    TorusMap,
    make_system,
    orbit_points,
    orbit_points_back,
    reference_splitting,
    torus_diff,
    torus_distance,
    wrap,
)
from .cocycle import (  # noqa: E402
    LyapunovSpectrum,
    MeanExponentReport,
    OrbitData,
    alpha_constant,
    domination_upgrade_n0,
    log_norm_blocks,
    lyapunov_spectrum,
    mean_exponents,
    mean_exponents_many,
    subbundle_angle,
    upgrade_limit_domination,
)
from .pesin import (  # noqa: E402
    BlockCertificate,
    BlockGeometry,
    HyperbolicityBudget,
    PesinParams,
    block_geometry_product24,
    budget_from_inputs,
    check_block_membership,
    check_block_membership_many,
    mean_hyperbolicity_degree,
    min_block_index,
    min_block_scan_product24,
)
from .quasihyp import (  # noqa: E402
    PartitionScheme,
    QuasiHypCertificate,
    canonical_partition,
    check_qh_pseudo_orbit,
    check_quasi_hyperbolic,
    subspace_gap,
)
from .shadow import (  # noqa: E402
    PseudoOrbit,
    ShadowResult,
    ShadowingConstants,
    close_orbit,
    estimate_shadowing_constant,
    make_pseudo_orbit,
    periodic_density_probe,
    read_pseudo_orbit,
    solve_shadow,
    verify_shadowing,
    write_pseudo_orbit,
)
from .specmeas import (  # noqa: E402
    Cover,
    EmpiricalMeasure,
    GluePlan,
    TransitionTable,
    approximate_invariant_measure,
    build_cover,
    glue_segments,
    measure_csv,
    specification_shadow,
    transition_table_csv,
    transition_times,
    weak_star_distance,
)

__version__ = "0.1.0"

__all__ = [
    "BlockCertificate",
    "BlockGeometry",
    "CatMap",
    "CircleG",
    "CompositeMap",
    "ConvergenceError",
    "Cover",
    "DegenerateSplittingError",
    "DimensionMismatchError",
    "EmpiricalMeasure",
    "GeometryError",
    "GluePlan",
    "HyperbolicityBudget",
    "LyapunovSpectrum",
    "MeanExponentReport",
    "NotInvertibleError",
    "OrbitData",
    "PartitionScheme",
    "PesinLabError",
    "PesinParams",
    "Product24",
    "PseudoOrbit",
    "PseudoOrbitFormatError",
    "QuasiHypCertificate",
    "ShadowResult",
    "ShadowingConstants",
    "SingularRestrictionError",
    "Splitting",
    "TorusMap",
    "TransitionTable",
    "UnresolvedTransitionError",
    "UnsupportedSystemError",
    "alpha_constant",
    "approximate_invariant_measure",
    "block_geometry_product24",
    "budget_from_inputs",
    "build_cover",
    "canonical_partition",
    "check_block_membership",
    "check_block_membership_many",
    "check_qh_pseudo_orbit",
    "check_quasi_hyperbolic",
    "close_orbit",
    "domination_upgrade_n0",
    "estimate_shadowing_constant",
    "glue_segments",
    "log_norm_blocks",
    "lyapunov_spectrum",
    "make_pseudo_orbit",
    "make_system",
    "mean_exponents",
    "mean_exponents_many",
    "mean_hyperbolicity_degree",
    "measure_csv",
    "min_block_index",
    "min_block_scan_product24",
    "orbit_points",
    "orbit_points_back",
    "periodic_density_probe",
    "read_pseudo_orbit",
    "reference_splitting",
    "solve_shadow",
    "specification_shadow",
    "subbundle_angle",
    "subspace_gap",
    "torus_diff",
    "torus_distance",
    "transition_table_csv",
    "transition_times",
    "upgrade_limit_domination",
    "verify_shadowing",
    "weak_star_distance",
    "wrap",
]

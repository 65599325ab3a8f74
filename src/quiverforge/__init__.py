"""Exact finite-field invariants of quiver representations."""

__version__ = "0.1.0"

from .errors import (
    CapExceeded,
    ConsistencyError,
    NonPolynomialBehavior,
    QuiverForgeError,
    SmallCharacteristic,
    TheoremViolation,
    UndecidedAtCap,
    ValidationError,
    DEFAULT_CAP,
)
from .ffield import Field, FqMatrix, g_order, gl_order, make_field
from .quiver import (
    CartanData,
    Quiver,
    a2_quiver,
    is_generic,
    is_indivisible,
    jordan_quiver,
    kronecker_quiver,
    normalize_to_degree_zero,
    pairing,
    slope,
)
from .reps import (
    EndoStructure,
    HomSpace,
    Representation,
    StabilityVerdict,
    all_representations,
    are_isomorphic,
    aut_order,
    base_change,
    direct_sum,
    endo_structure,
    ext1_dim,
    hom_dim,
    hom_space,
    is_absolutely_indecomposable,
    is_indecomposable,
    stability_verdict,
)
from .series import ExactPolynomial, TruncatedSeries, lagrange_interpolate
from .counting import (
    ClassCounts,
    CountReport,
    abs_indecomposable_by_hua,
    class_counts_by_hua,
    classify_classes,
    count_report,
    galois_descent_I,
    check_galois_descent,
    hua_identity_check,
    kac_polynomial,
    orbit_representatives,
)
from .moduli import (
    BettiReport,
    CbvdbCheck,
    LiftingCheck,
    MomentValue,
    betti_from_kac,
    cbvdb_identity_check,
    enumerate_level_set,
    lifting_fiber_check,
    moduli_point_count,
    moment_map,
    satisfies_relations,
    trace_obstruction,
)

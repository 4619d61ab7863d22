"""Carrying simplices of competitive Kolmogorov maps.

The library certifies the structural assumptions of a map F(x) = diag[x] f(x),
then brackets its globally attracting unordered invariant hypersurface between
an increasing and a decreasing sequence of radially represented manifolds
iterated under the graph transform, and verifies the result against the
defining properties of the surface.
"""

from .assumptions import (
    AssumptionError,
    AssumptionReport,
    check_as2,
    check_as4,
    find_epsilon,
    find_kappa,
    jury_condition_ricker2d,
    run_assumption_checks,
)
from .geometry import (
    BarycentricGrid,
    RadialManifold,
    box_boundary_manifold,
    constant_manifold,
    harnack_distance,
    hausdorff_bound,
    make_grid,
    order_check,
    order_function,
    sup_gap,
)
from .maps import (
    KolmogorovMap,
    MapDomainError,
    eval_F,
    eval_df,
    eval_f,
    make_map,
)
from .simplex import (
    ConvergenceReport,
    VerificationReport,
    attract_trajectory,
    compute_cs,
    gamma_membership,
    surface_distance,
    verify_cs,
)
from .transform import (
    FoldError,
    PushforwardCloud,
    graph_step,
    pushforward,
    resample,
)

__version__ = "0.1.0"

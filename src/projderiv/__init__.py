"""Metric projections, their generalized adjoint derivatives, and the
fixed-point sets of the induced dual operators, with a sampling oracle that
verifies every closed form."""

from .spaces import (
    SpaceSpec,
    PrimalVector,
    DualVector,
    IndexSet,
    lp_space,
    l1_space,
    c01_space,
    primal,
    dual,
    atomic_measure,
    norm,
    dual_norm,
    pairing,
    duality_map,
    duality_map_l1_selection,
    duality_map_inverse,
)
from .projections import (
    ConvexSet,
    ball,
    positive_cone,
    l1_ball,
    poly_subspace,
    brute_force_project,
)
from .chebyshev import (
    Polynomial,
    RemezResult,
    an_determinant,
    an_recursive,
    coefficient_bound,
    derivative_coefficient_bound,
    remez,
)
from .coderivatives import (
    MapDescriptor,
    CoderivativeSet,
    affine_map,
    ball_projection_map,
    cone_projection_map,
    l1_ball_projection_map,
    poly_projection_map,
    coderiv_affine,
    coderiv_ball_lp,
    coderiv_cone_l2,
    coderiv_cone_lp_theta_membership,
    coderiv_cone_lp_at_origin,
    coderiv_l1ball,
)
from .limsup_oracle import (
    Verdict,
    GraphPoint,
    SamplingSchedule,
    SamplePass,
    LimsupEstimate,
    quotient,
    sample_base,
    estimate_limsup,
    directed_ray_limit,
    membership_test,
)
from .fixed_points import (
    FixedPointCharacterization,
    is_fixed_point,
    convexity_closedness_probe,
    poly_annihilator,
    poly_fixed_point_quotient,
    scaling_direction_report,
)

__version__ = "0.1.0"

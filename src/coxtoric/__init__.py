"""Exact-arithmetic toolkit for quotient presentations of toric varieties
and for realizing codimension-one torus actions inside the big torus."""

from .cones import Cone, cone_from_rays
from .cox import (
    ClassGroupElement,
    CoxPresentation,
    LiftResult,
    acts_freely,
    class_group,
    complement_codim,
    cox_presentation,
    degree_of_monomial,
    lift_subtorus,
    ray_degrees,
    variety_is_smooth,
)
from .errors import (
    FanValidationError,
    HypothesisError,
    InvalidRayError,
    ShapeError,
    StrongConvexityError,
    ToricError,
    UnsupportedShapeError,
)
from .fans import Fan, Wall, fan_from_dict, fan_from_max_cones, fan_to_dict, is_map_of_fans
from .groups import (
    DiagonalizableSubgroup,
    HyperplanePermutationReport,
    MonomialMatrix,
    WeightAction,
    centralizes_torus,
    character_root_isogeny,
    classify_quotient,
    commutes_with_torus,
    decompose_subgroup,
    hyperplane_permutation_report,
    is_effective,
    subgroup_from_weights,
)
from .intlin import (
    IntMatrix,
    SnfResult,
    cokernel_invariants,
    divisibility_index,
    kernel_basis,
    lattice_membership,
    primitive_vector,
    smith_normal_form,
    solve_integer,
)
from .pipeline import PipelineReport, theorem_pipeline

__version__ = "0.1.0"

"""Geometric probability laboratory: random simplices in convex bodies.

Exact closed forms for ball moments, seeded Monte Carlo estimators,
cut-derivative formulas, and 2D symmetrization operators.
"""

from .bodies import (
    AffineImage,
    Ball,
    BoundingBox,
    ConvexBody,
    Cut,
    Halfspace,
    HalfBallCone,
    HPolytope,
    Polygon2D,
    affine_image,
    body_from_json,
    bounding_box,
    box_body,
    half_ball,
    half_ball_moments,
    half_disk_polygon,
    intersect_halfspace,
    isotropic_half_ball,
    isotropic_simplex,
    regular_simplex,
    regular_simplex_vertices,
    simplex_with_hull_point,
    unit_cube,
)
from .derivatives import (
    CutFamily,
    SymmetricFunction,
    counterexample_derivative_test,
    crofton_derivative_rhs,
    cut_family,
    detcov_counterexample,
    detcov_derivative_rhs,
    finite_difference,
    h_refinement_report,
    sf_coordinate_sum,
    sf_one,
    sf_simplex_volume,
    support_interval,
)
from .errors import (
    DegenerateBodyError,
    DegenerateSliceError,
    DimensionError,
    GeomProbError,
    InvalidBodyError,
    NonIsotropicBodyError,
    SingularTransformError,
)
from .estimators import (
    CovarianceEstimate,
    batch_pinned_volumes,
    batch_simplex_volumes,
    covariance_estimate,
    det_cov_estimate,
    det_cov_increase,
    expectation_estimate,
    isotropic_transform,
    moment_estimate,
    pinned_moment_estimate,
    volume_estimate,
    volume_with_stderr,
)
from .exact import (
    ExactValue,
    ball_pinned_moment,
    ball_simplex_moment,
    busemann_min_ratio,
    chain_bound,
    find_k0,
    kappa,
    kappa_ratio_bounds,
    moment_ratio_bound,
    omega,
)
from .report import ExperimentReport, MomentEstimate, round_floats
from .sampling import (
    SampleStream,
    sample_ball,
    sample_body,
    sample_slice,
    slice_basis,
    slice_measure,
    splitmix64,
    stream_key,
)
from .symmetry2d import (
    PLANE_PINNED_BOUND,
    ChordProfile,
    blaschke_shake,
    bottom_pinned_polygon,
    chord_profile,
    clip_polygon,
    monotonicity_2d,
    nested_polygon_pair,
    plane_bound_pipeline,
    random_convex_polygon,
    steiner_symmetrize,
    symmetric_bottom_polygon,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

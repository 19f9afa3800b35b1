"""Numerics for shear/twist coordinates on hyperbolic pairs of pants,
twist evolution along stretch paths, envelope-width bounds on the
once-punctured torus and four-times punctured sphere, and the
stretch-vector hull on the genus-two surface."""

from .h2 import (
    INF,
    Circle,
    Geodesic,
    GeometryError,
    H2Point,
    IdealTriangle,
    MobiusMap,
    axis_translation,
    incircle,
    mobius_apply,
    orthofoot,
    shear,
    triangle_median,
)
from .pants import (
    PantsMetric,
    PantsTriangulation,
    SingularCuffError,
    TwistSigns,
    delta_closed,
    delta_oracle,
    delta_scale_derivative,
    delta_scaled,
    enumerate_triangulations,
    shear_coords,
)
from .stretch import (
    FNPoint,
    SpecMismatchError,
    StretchSpec,
    left_spec,
    right_spec,
    stretch_lengths,
    stretch_point,
    stretch_vectors,
    twist_along_stretch,
    twist_width,
    twist_width_closed,
    width_point,
)
from .torus import (
    Slope,
    curve_length,
    dth_estimate,
    earthquake,
    envelope_cells,
    envelope_widths,
    short_marking,
    stretch_endpoints,
)
from .bounds import (
    SweepGrid,
    SweepReport,
    collar_width,
    decay_factor,
    decay_factor_unbounded,
    earthquake_bound,
    intersection_bound,
    ratio_bound_thin,
    run_sweep,
)
from .cube import (
    TwistVector,
    chamfered_cube_check,
    cloud,
    enumerate_completions,
    extreme_points_brute,
    hull,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Asymmetric quantum surface codes from hyperbolic tessellations."""

from .geometry import (
    SchlafliSymbol,
    Surface,
    edge_length,
    fundamental_polygon,
    opposite_edge_distance,
)
from .design import (
    AsymmetryPoint,
    CodeParameters,
    FamilyForm,
    RateComparison,
    admissibility,
    asymmetry_curve,
    closed_form_family,
    code_parameters,
    enumerate_admissible,
    face_count,
    rate_comparison,
)
from .homology import (
    Distances,
    SurfaceComplex,
    build_klein_bottle,
    build_polygon_code,
    build_projective_plane,
    build_toric,
    complex_from_polygons,
    css_from_complex,
    cycle_distances,
    dump_complex,
    exhaustive_distances,
    load_complex,
    logical_count,
    logical_operators,
)

__version__ = "0.1.0"

"""Lyapunov exponents and Oseledets subspaces for random linear delay equations.

The package simulates the linear skew-product semiflow generated by
z'(t) = A(t) z(t) + B(t) z(t-1) over seeded ergodic coefficient paths, on two
discretized fibers: continuous segments with the sup norm and head/density
pairs modelling R^N x L_p.  On top of the unit-step solution operators it
estimates Lyapunov spectra, Oseledets filtration and covariant subspaces, and
cross-checks that both fibers produce the same exponents with subspaces
related by the natural embedding.
"""

__version__ = "0.1.0"

from .drivers import CoefficientSample, Driver, DriverSpec, realize, summability_report
from .fibers import (
    ContinuousSegment,
    GridSpec,
    LpSegment,
    SubspaceFrame,
    embed_segment,
    norm_c,
    norm_lp,
    orthonormalize,
    principal_angles,
    try_invert_embedding,
)
from .oracles import characteristic_roots, monodromy_exponents, monodromy_frames
from .propagation import (
    FundamentalMatrix,
    StepBounds,
    UnitStepOperator,
    assemble_unit_operator,
    evolve_l_to_c,
    fundamental_matrix,
    lc_operator_singular_values,
    propagate,
    step_bounds,
    unit_step_c,
    unit_step_l,
)
from .spectrum import (
    ComparisonReport,
    SpectrumConfig,
    SpectrumReport,
    compare_fibers,
    oseledets_frames,
    qr_spectrum,
    required_window,
    step_bound_slopes,
    temperedness_check,
    top_exponent,
    vector_growth_rate,
)

__all__ = [
    "__version__",
    "CoefficientSample",
    "Driver",
    "DriverSpec",
    "realize",
    "summability_report",
    "ContinuousSegment",
    "GridSpec",
    "LpSegment",
    "SubspaceFrame",
    "embed_segment",
    "norm_c",
    "norm_lp",
    "orthonormalize",
    "principal_angles",
    "try_invert_embedding",
    "FundamentalMatrix",
    "StepBounds",
    "UnitStepOperator",
    "assemble_unit_operator",
    "evolve_l_to_c",
    "fundamental_matrix",
    "lc_operator_singular_values",
    "propagate",
    "step_bounds",
    "unit_step_c",
    "unit_step_l",
    "characteristic_roots",
    "monodromy_exponents",
    "monodromy_frames",
    "ComparisonReport",
    "SpectrumConfig",
    "SpectrumReport",
    "compare_fibers",
    "oseledets_frames",
    "qr_spectrum",
    "required_window",
    "step_bound_slopes",
    "temperedness_check",
    "top_exponent",
    "vector_growth_rate",
]

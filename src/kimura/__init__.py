"""Corner-degenerate diffusions: operators, path simulation, PDE cross-checks.

The package models second-order operators on corner domains whose diffusion
coefficients vanish linearly at boundary faces.  Faces split into *absorbing*
(drift vanishes on the face; paths that reach it continue inside the face)
and *reflecting* (drift uniformly inward; paths never land on it), and the
package verifies the structural consequences numerically from both sides:

* :mod:`kimura.geometry` — box/simplex corner charts, strata, restrictions;
* :mod:`kimura.operator` — coefficient fields, presets, face classification;
* :mod:`kimura.sde` — hierarchical path simulation with face absorption;
* :mod:`kimura.estimators` — transition decomposition, hitting histograms,
  corner-hit and occupation estimates, doubling ratios;
* :mod:`kimura.pde` — weighted-measure finite-volume solves (kernel, flux,
  boundary-data problems, tensor grids);
* :mod:`kimura.verify` — barrier supersolution checks and window growth;
* :mod:`kimura.cli` — reproducible artifact runs (``kimura <task> --config``).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    BoundaryEvaluation,
    ConfigInvalid,
    EmptyBin,
    FaceNotTangent,
    GridTooCoarse,
    IncompatibleData,
    KimuraError,
    LinearSolveFailure,
    MaxStepsExceeded,
    NonFinite,
    NotClean,
    NotOnFace,
    NoValidH,
    NoValidParams,
    PointOutsideDomain,
)
from .geometry import (
    CornerBox,
    DomainSpec,
    Point,
    Simplex,
    StratumId,
    classify_point,
    embed_point,
    embed_rows,
    restrict_domain,
    restrict_point,
    restrict_rows,
    weighted_density,
)
from .operator import (
    AssumptionReport,
    AssumptionViolation,
    CoefficientField,
    ConstField,
    FaceClassification,
    FuncField,
    KimuraOperator,
    PolyField,
    PRESET_NAMES,
    as_field,
    make_preset,
    model1d,
    product_operator,
    remark_counterexample,
    sample_domain,
    sample_face,
    wright_fisher,
)
from .sde import (
    EnsembleResult,
    HitEvent,
    PathRecord,
    SimConfig,
    counterexample_ensemble,
    simulate,
    simulate_ensemble,
    sum_process_ensemble,
)
from .estimators import (
    HittingHistogram,
    OccupationCurve,
    TransitionDecomposition,
    aligned_hitting_edges,
    corner_hit_probability,
    decompose,
    decompose_ensemble,
    doubling_ratio,
    hitting_histogram,
    transverse_occupation,
)
from .pde import (
    CaloricDensity,
    Grid1D,
    KernelSolution,
    RepCheck,
    SolveResult,
    SolveResult2D,
    SpeedScale,
    caloric_density,
    dirichlet_kernel,
    duhamel_solve,
    mu_inner,
    solve_backward,
    solve_backward_2d,
    solve_elliptic_2d,
    solve_nonhomogeneous,
    stochastic_rep_check,
)
from .verify import (
    AppendixOperator,
    BarrierReport,
    GrowthEntry,
    GrowthReport,
    check_barrier_regularity,
    check_barrier_w1,
    check_barrier_w2,
    growth_ratio,
)

__all__ = [
    "__version__",
    # errors
    "KimuraError",
    "PointOutsideDomain",
    "NotOnFace",
    "BoundaryEvaluation",
    "NotClean",
    "FaceNotTangent",
    "NonFinite",
    "MaxStepsExceeded",
    "EmptyBin",
    "LinearSolveFailure",
    "GridTooCoarse",
    "IncompatibleData",
    "NoValidH",
    "NoValidParams",
    "ConfigInvalid",
    "AssumptionViolation",
    # geometry
    "CornerBox",
    "Simplex",
    "DomainSpec",
    "StratumId",
    "Point",
    "classify_point",
    "restrict_domain",
    "restrict_point",
    "embed_point",
    "restrict_rows",
    "embed_rows",
    "weighted_density",
    # operator
    "CoefficientField",
    "ConstField",
    "PolyField",
    "FuncField",
    "as_field",
    "AssumptionReport",
    "FaceClassification",
    "KimuraOperator",
    "sample_domain",
    "sample_face",
    "model1d",
    "wright_fisher",
    "product_operator",
    "remark_counterexample",
    "make_preset",
    "PRESET_NAMES",
    # sde
    "SimConfig",
    "HitEvent",
    "PathRecord",
    "EnsembleResult",
    "simulate",
    "simulate_ensemble",
    "counterexample_ensemble",
    "sum_process_ensemble",
    # estimators
    "TransitionDecomposition",
    "HittingHistogram",
    "OccupationCurve",
    "decompose",
    "decompose_ensemble",
    "hitting_histogram",
    "aligned_hitting_edges",
    "corner_hit_probability",
    "transverse_occupation",
    "doubling_ratio",
    # pde
    "SpeedScale",
    "Grid1D",
    "SolveResult",
    "KernelSolution",
    "CaloricDensity",
    "RepCheck",
    "SolveResult2D",
    "solve_backward",
    "dirichlet_kernel",
    "caloric_density",
    "solve_nonhomogeneous",
    "duhamel_solve",
    "stochastic_rep_check",
    "solve_backward_2d",
    "solve_elliptic_2d",
    "mu_inner",
    # verify
    "AppendixOperator",
    "BarrierReport",
    "GrowthEntry",
    "GrowthReport",
    "check_barrier_w2",
    "check_barrier_w1",
    "check_barrier_regularity",
    "growth_ratio",
]

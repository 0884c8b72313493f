"""Root locus of SISO dead-time systems inside a right half-plane.

The library traces every closed-loop root trajectory of a plant with a pure
input delay, restricted to Re(s) >= sigma0 and gains up to a cap: critical
points first (open-loop poles, boundary crossings with entry/exit
directions, multiple-root branch points), then the trajectories themselves
by predictor-corrector continuation with adaptive step length.

Typical use:

    from dtlocus import Plant, RegionSpec, run
    plant = Plant(alpha=1.0, delay=1.0, zeros=(), poles=(0j,))
    result = run(plant, RegionSpec(sigma0=-2.0, kmax=1.0))
"""

from .boundary import (
    BoundaryCrossing,
    CrossingSet,
    RegionSpec,
    boundary_crossings,
    boundary_functions,
)
from .branch import BranchPoint, branch_departures, branch_points
from .continuation import CorrectorOutcome, LocusPoint, correct
from .errors import (
    BiProperGainCapViolated,
    BranchOnBoundary,
    DegenerateCrossing,
    DtLocusError,
    InputError,
    PoleOrZeroOnBoundary,
    SingularPointError,
)
from .plant import LogValue, Plant, gain_at, log_eval, plant_from_coefficients
from .poly import PolyRoot, RealPolynomial, complex_roots
from .svgplot import render_svg
from .tracer import (
    BranchOrigin,
    CrossingOrigin,
    GainCap,
    LeftRegion,
    PoleOrigin,
    ReachedBranch,
    RootLocusResult,
    StepFailure,
    TraceOptions,
    Trajectory,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "BiProperGainCapViolated",
    "BoundaryCrossing",
    "BranchOnBoundary",
    "BranchOrigin",
    "BranchPoint",
    "CorrectorOutcome",
    "CrossingOrigin",
    "CrossingSet",
    "DegenerateCrossing",
    "DtLocusError",
    "GainCap",
    "InputError",
    "LeftRegion",
    "LocusPoint",
    "LogValue",
    "Plant",
    "PoleOrZeroOnBoundary",
    "PoleOrigin",
    "PolyRoot",
    "ReachedBranch",
    "RealPolynomial",
    "RegionSpec",
    "RootLocusResult",
    "SingularPointError",
    "StepFailure",
    "TraceOptions",
    "Trajectory",
    "boundary_crossings",
    "boundary_functions",
    "branch_departures",
    "branch_points",
    "complex_roots",
    "correct",
    "gain_at",
    "log_eval",
    "plant_from_coefficients",
    "render_svg",
    "run",
    "__version__",
]

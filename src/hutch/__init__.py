"""hutch: exact-arithmetic Hutchinson operators for IFSs of circle
homeomorphisms, with empirical equicontinuity and sensitivity probes."""

from .circle import (
    Arc,
    ArcSet,
    CirclePoint,
    arc,
    circle_dist,
    complement_gaps,
    frac,
    full_circle,
    gap_radius,
    hausdorff,
    is_subset,
    normalize,
    point_set,
    union,
)
from .homeo import InvalidHomeoError, PLHomeo
from .ifs import (
    IFS,
    ConvergenceReport,
    InvarianceReport,
    MinimalityReport,
    PrecisionPolicy,
    ResourceCapError,
    attractor_probe,
    hutchinson,
    invariance_check,
    inverse_system,
    iterate,
    orbit,
    orbit_density_probe,
)
from .probes import (
    ModulusReport,
    SensitivityReport,
    covering_time,
    dF_estimate,
    equicontinuity_probe,
    sensitivity_probe,
)
from .constructions import (
    BlowupMap,
    ConstructionError,
    DenjoyApproximant,
    Theorem1Params,
    Theorem1System,
    blowup_map,
    build_theorem1,
    denjoy_approximant,
    diagonal_containment_check,
    theorem2_ifs,
)

__version__ = "0.1.0"

"""Phase analysis, simulation and certified verification for coin-tossing
self-similar sets on the line."""

from .errors import AmbiguityError, FracphaseError, InputError, InvariantError
from .lattice import LatticeIFS, menger, project, sierpinski
from .line_ifs import LineIFS, normalize, scale
from .phase import (
    PhaseReport,
    extinction_probability,
    menger_disconnection_threshold,
    phase_report,
    similarity_dimension,
)
from .pressure import lyapunov, pressure, zero_measure_threshold_estimate
from .simulate import (
    SurvivalSet,
    empirical_box_dimension,
    interface_process,
    project_survival,
    sample_survival,
)
from .slices import (
    PlaneParams,
    VerificationReport,
    classify_region,
    ftilde,
    htilde,
    plane,
    reduce_to_wedge,
    sample_nonnegativity,
    verify_grid,
)
from .spectral import SpectralEnclosure, spectral_radius
from .type_system import (
    TypeSystem,
    Word,
    column_sums,
    compute_type_system,
    covering_cylinder_count,
    cylinder_measure,
    matrix_product,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityError",
    "FracphaseError",
    "InputError",
    "InvariantError",
    "LatticeIFS",
    "LineIFS",
    "PhaseReport",
    "PlaneParams",
    "SpectralEnclosure",
    "SurvivalSet",
    "TypeSystem",
    "VerificationReport",
    "Word",
    "classify_region",
    "column_sums",
    "compute_type_system",
    "covering_cylinder_count",
    "cylinder_measure",
    "empirical_box_dimension",
    "extinction_probability",
    "ftilde",
    "htilde",
    "interface_process",
    "lyapunov",
    "matrix_product",
    "menger",
    "menger_disconnection_threshold",
    "normalize",
    "phase_report",
    "plane",
    "pressure",
    "project",
    "project_survival",
    "reduce_to_wedge",
    "sample_nonnegativity",
    "sample_survival",
    "scale",
    "sierpinski",
    "similarity_dimension",
    "spectral_radius",
    "verify_grid",
    "zero_measure_threshold_estimate",
]

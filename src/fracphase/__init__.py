"""Phase analysis, simulation and certified verification for coin-tossing
self-similar sets on the line.

The exact pipeline never imports numpy: ``pressure`` and ``simulate`` import
it inside their float functions, and the names from ``slices`` (numpy and a
process pool) are resolved on first use.
"""

from .errors import AmbiguityError, FracphaseError, InputError, InvariantError
from .lattice import LatticeIFS, menger, project, sierpinski
from .line_ifs import LineIFS, normalize, scale
from .phase import (
    PhaseReport,
    extinction_probability,
    menger_disconnection_threshold,
    phase_report,
)
from .pressure import lyapunov, pressure
from .simulate import SurvivalSet, interface_process, project_survival, sample_survival
from .spectral import SpectralEnclosure, spectral_radius
from .type_system import TypeSystem, Word, column_sums, compute_type_system, matrix_product

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
    "sample_survival",
    "scale",
    "sierpinski",
    "spectral_radius",
    "verify_grid",
]

# the names of the slice certificate, resolved on first use by __getattr__
_SLICES_NAMES = frozenset({
    "PlaneParams", "VerificationReport", "classify_region", "ftilde", "htilde",
    "plane", "verify_grid",
})


def __getattr__(name: str):
    if name in _SLICES_NAMES:
        from . import slices

        return getattr(slices, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SLICES_NAMES})

"""Phase analysis, simulation and certified verification for coin-tossing
self-similar sets on the line.

Each name is imported from the submodule that defines it, as in
``from fracphase.phase import phase_report``; the package itself imports
nothing.  The exact pipeline never imports numpy: ``pressure`` and
``simulate`` import it inside their float functions, and only
``verify-slice`` imports ``slices`` (numpy and a process pool).
"""

__version__ = "0.1.0"

"""The exact commands and ``simulate`` run without numpy, a one-worker grid
without the process pool's modules, and the package imports none of its
submodules.

Each check runs in a fresh interpreter, since the test session itself has
long since imported numpy and every submodule.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` first on its path."""
    prelude = "import sys\nsys.path.insert(0, sys.argv[1])\n"
    out = subprocess.run([sys.executable, "-c", prelude + code, SRC],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_exact_commands_leave_numpy_unloaded():
    loaded = run_fresh("""
import fracphase.cli
from click.testing import CliRunner

runner = CliRunner()
for argv in (["analyze", "menger", "--dir", "1,1,1"],
             ["analyze", "sierpinski", "--dir", "1,-1", "--format", "csv"],
             ["project", "menger", "--dir", "1,0,0"],
             ["pressure", "--ifs", "menger", "--dir", "1,1,1", "--t", "0.5", "--n", "4"],
             ["simulate", "--ifs", "menger", "--dir", "1,1,1", "--p", "3/10", "--depth", "3"]):
    result = runner.invoke(fracphase.cli.cli, argv)
    assert result.exit_code == 0, (argv, result.output)
print(*(m for m in ("numpy", "concurrent.futures") if m in sys.modules))
""")
    assert loaded.split() == []


def test_one_worker_grid_leaves_the_pool_unloaded():
    loaded = run_fresh("""
import fracphase.cli
from click.testing import CliRunner

result = CliRunner().invoke(fracphase.cli.cli, ["verify-slice", "--step", "1/30"])
assert result.exit_code == 0, result.output
print(*(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules))
""")
    assert loaded.split() == []


def test_package_imports_nothing_and_shadows_no_submodule():
    out = run_fresh("""
import fracphase
print(*sorted(m for m in sys.modules
              if m.startswith(("fracphase.", "numpy")) or m == "concurrent.futures"))
print("---")
import fracphase.pressure as P
print(P is sys.modules["fracphase.pressure"], callable(P.lyapunov))
""")
    loaded, bindings = out.split("---")
    assert loaded.split() == []
    assert bindings.split() == ["True", "True"]

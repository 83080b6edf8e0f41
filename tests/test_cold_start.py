"""The exact commands and ``simulate`` run without numpy, and
``fracphase.pressure`` stays a function.

Each check runs in a fresh interpreter, since the test session itself has
long since imported numpy and every submodule.
"""

import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("first", [
    "import fracphase.pressure",
    "from click.testing import CliRunner\n"
    "import fracphase.cli\n"
    "argv = ['pressure', '--ifs', 'menger', '--dir', '1,1,1', '--t', '0.5', '--n', '2']\n"
    "assert CliRunner().invoke(fracphase.cli.cli, argv).exit_code == 0",
    "from fracphase import verify_grid",
], ids=["submodule-import", "cli-pressure", "slices-name"])
def test_pressure_binding_is_the_function(first):
    # the package binds the function over the submodule of the same name;
    # loading the submodule again must not undo that
    out = run_fresh(first + """
import fracphase
print(fracphase.pressure is sys.modules["fracphase.pressure"].pressure)
""")
    assert out.split() == ["True"]


def test_public_names_resolve():
    import fracphase

    assert set(fracphase.__all__) <= set(dir(fracphase))
    for name in fracphase.__all__:
        getattr(fracphase, name)
    with pytest.raises(AttributeError):
        fracphase.sample_nonnegativity

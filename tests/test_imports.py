"""Each command loads only the modules it runs, and the public API is unchanged.

The packages resolve their exports on access (PEP 562) and ``cli`` imports
what each command runs inside the command, so what a process loads depends
only on what it runs.  That is checked in fresh interpreters.  They start
with ``-S``, because a site ``.pth`` file may import modules (``random``
among them) before recurlab runs.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import recurlab
import recurlab.geometry
import recurlab.recurrence_solver

SRC = str(Path(recurlab.__file__).resolve().parent.parent)

# Run in a fresh interpreter: put recurlab's source directory first on the
# path, run the command in argv (none: only import), then print the exit
# code and the recurlab modules loaded, with random when it is.
CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import recurlab, recurlab.cli, recurlab.geometry
code = recurlab.cli.main(sys.argv[2:]) if sys.argv[2:] else None
print(code, *sorted(m for m in sys.modules if m.split(".")[0] in ("recurlab", "random")))
"""

BASE = {"recurlab", "recurlab.cli", "recurlab.errors", "recurlab.geometry"}
TABLE = BASE | {"recurlab.core_numeric", "recurlab.difference_engine", "recurlab.moser_formulas"}
SOLVERS = {"recurlab.recurrence_solver", "recurlab.genfunc_solver"}
GEOMETRY = {"recurlab.geometry._kernel", "recurlab.geometry.arrangement", "recurlab.geometry.points"}
REGIONS = BASE | GEOMETRY | {"recurlab.core_numeric", "recurlab.moser_formulas"}


def loaded(*argv):
    """The exit code and the modules a fresh ``recurlab <argv>`` loads."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, SRC, *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    code, *modules = proc.stdout.splitlines()[-1].split()
    return code, set(modules)


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        pytest.param((), "None", BASE, id="import"),
        pytest.param(("table", "--moser", "8"), "0", TABLE, id="table"),
        pytest.param(("solve", "--moser", "8"), "0", TABLE | SOLVERS, id="solve"),
        pytest.param(("regions", "--m", "10"), "0", REGIONS, id="regions"),
        pytest.param(("verify",), "0", TABLE | SOLVERS | GEOMETRY, id="verify"),
        pytest.param(("regions", "--m", "10", "--seed", "3"), "0", REGIONS | {"random"}, id="regions-seeded"),
    ],
)
def test_each_command_loads_only_its_modules(argv, code, modules):
    # table never loads a solver or the geometry, solve never the geometry,
    # and regions never the difference engine or a solver.  Only a seeded
    # layout draws, so unseeded runs never load random.
    assert loaded(*argv) == (code, modules)


def _defining_module(package, name):
    return "recurlab.core_numeric" if name == "Rational" else getattr(package, name).__module__


@pytest.mark.parametrize("package", [recurlab, recurlab.geometry], ids=lambda p: p.__name__)
def test_exports_resolve_to_their_defining_module(package):
    names = [name for name in package.__all__ if name != "__version__"]
    for name in names:
        module = sys.modules[_defining_module(package, name)]
        assert module.__name__.startswith("recurlab.")
        assert getattr(package, name) is getattr(module, name), name
    # Nothing is cached in the package namespace.
    assert not set(names) & set(vars(package))
    star = {}
    exec(f"from {package.__name__} import *", star)
    assert set(star) - {"__builtins__"} == set(package.__all__)
    assert all(star[name] is getattr(package, name) for name in package.__all__)
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match=f"^module '{package.__name__}' has no attribute 'no_such_name'$"):
        package.no_such_name


def test_exports_follow_a_rebinding(monkeypatch):
    # perfbench's tracer binds its wrappers in the defining modules: the
    # package must hand out the wrapper, and the original once it is undone.
    original = recurlab.gaussian_solve

    def f(matrix, rhs):
        return original(matrix, rhs)

    monkeypatch.setattr(recurlab.recurrence_solver, "gaussian_solve", f)
    assert recurlab.gaussian_solve is f
    from recurlab import gaussian_solve

    assert gaussian_solve is f
    monkeypatch.undo()
    assert recurlab.gaussian_solve is original

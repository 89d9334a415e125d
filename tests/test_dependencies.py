import ast
import os
import subprocess
import sys

import lobwave

# the package depends on numpy alone; scipy, when installed, must not be
# pulled in by any module, including the ODE integrator, whose DOP853
# coefficients come from scipy's table as literals
_PROBE = """
import sys
import lobwave
import lobwave.cli
leaked = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not leaked, leaked
"""


def test_import_pulls_in_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lobwave.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def _sibling_imports(name):
    """{sibling module: names} that lobwave.<name> imports, relative or
    absolute, wherever in the file the import sits; `from . import geometry`
    counts as importing all of geometry."""
    path = os.path.join(os.path.dirname(os.path.abspath(lobwave.__file__)), f"{name}.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "lobwave" and not module.startswith("lobwave."):
                    continue
                module = module[len("lobwave."):] if "." in module else ""
            if module:
                found.setdefault(module, set()).update(a.name for a in node.names)
            else:
                for alias in node.names:
                    found.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("lobwave."):
                    found.setdefault(alias.name.split(".")[1], set()).add("*")
    return found


def test_services_import_only_the_errors():
    # the oracles (numerics) and the charts (geometry) build on nothing
    # but the error types
    for name in ("numerics", "geometry"):
        assert set(_sibling_imports(name)) == {"errors"}, name


def test_specfun_imports_only_the_quadrature_from_numerics():
    # the closed-form kernels share exactly one service with the oracles,
    # their K quadrature route; once that route leaves numerics, specfun
    # imports the errors alone
    imports = _sibling_imports("specfun")
    assert set(imports) == {"errors", "numerics"}
    assert imports["numerics"] == {"quad_adaptive"}

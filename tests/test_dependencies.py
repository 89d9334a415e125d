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

"""`import wingtail` loads numpy and scipy.special, not the heavy scipy
subpackages: scipy.optimize and scipy.integrate (which pull in scipy.linalg
and scipy.sparse) took about 0.35 s of every CLI start. Only the Riccati
oracle needs one of them, and loads scipy.integrate on its first call.

Each check runs in a fresh interpreter, since this test process has long
loaded them all.
"""
import os
import subprocess
import sys

import wingtail

HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.linalg", "scipy.sparse")
SRC = os.path.dirname(os.path.dirname(wingtail.__file__))
REFERENCE_KOU = os.path.join(os.path.dirname(__file__), "..", "configs", "reference_kou.json")


def _heavy_loaded_after(code: str) -> list[str]:
    """The HEAVY modules in sys.modules after a fresh interpreter runs `code`."""
    script = f"{code}\nimport sys\nprint(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_cli_constants_load_no_heavy_scipy():
    code = f"from wingtail import cli\ncli.cmd_constants(cli.load_config({REFERENCE_KOU!r}))"
    assert _heavy_loaded_after(code) == []


def test_riccati_oracle_loads_its_solver():
    code = ("from wingtail import oracles\nfrom wingtail.heston import HestonParams\n"
            "oracles.riccati_log_mgf(HestonParams(a=1.0, b=2.0, c=0.5, rho=-0.3, x0=1.0, y0=0.04, t=1.0, mu=0.0), 0.5)")
    assert "scipy.integrate" in _heavy_loaded_after(code)

"""The CLI's commands load no scipy module: `import wingtail` loads numpy
only. The special functions on their paths (log n!, erfcx, e^x K1(x) and the
normal quantile) are ports in `wingtail.numerics`, since importing
scipy.special took about 0.26 s of every CLI start, and scipy.optimize and
scipy.integrate (with scipy.linalg and scipy.sparse) about 0.35 s before
that. Only `smile.bs_call` and the Riccati oracle load scipy, each on its
first call. The convolution path loads no `numpy.ma`, which numpy's set
routines import.

Each check runs in a fresh interpreter, since this test process has long
loaded them all.
"""
import os
import subprocess
import sys

import pytest

import wingtail

SRC = os.path.dirname(os.path.dirname(wingtail.__file__))
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _loaded_after(code: str, package: str) -> list[str]:
    """The modules of `package` in sys.modules after a fresh interpreter runs `code`."""
    script = (f"{code}\nimport sys\n"
              f"print(' '.join(m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})))")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_cli_commands_load_no_scipy():
    code = "\n".join([
        "import numpy as np",
        "from wingtail import cli",
        "for name in ('pure_heston', 'reference_kou', 'reference_nig'):",
        f"    config = cli.load_config({CONFIGS!r} + f'/{{name}}.json')",
        "    cli.cmd_constants(config)",
        "    cli.cmd_density(config, np.exp(np.linspace(-6.0, 6.0, 5)))",
        "    cli.cmd_smile(config, np.exp(np.concatenate([-np.geomspace(5.0, 40.0, 4), np.geomspace(5.0, 40.0, 4)])))",
        "    cli.cmd_sample(config, 4096, 50)",
    ])
    assert _loaded_after(code, "scipy") == []


def test_riccati_oracle_loads_its_solver():
    code = ("from wingtail import oracles\nfrom wingtail.heston import HestonParams\n"
            "oracles.riccati_log_mgf(HestonParams(a=1.0, b=2.0, c=0.5, rho=-0.3, x0=1.0, y0=0.04, t=1.0, mu=0.0), 0.5)")
    assert "scipy.integrate" in _loaded_after(code, "scipy")


def test_bs_call_loads_scipy_special():
    code = "from wingtail import smile\nsmile.bs_call(1.0, 1.2, 1.0, 0.3)"
    assert "scipy.special" in _loaded_after(code, "scipy")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor page faults are counted on Linux")
def test_warm_density_ops_take_no_page_faults():
    # glibc maps every request above its mmap threshold afresh, so a warm op
    # whose temporaries pass the threshold faults on each of their pages
    # (about 100 faults per exact mixed density point before `numerics` lifted
    # it). Stated before the run: at most 10 minor faults per warm op, over 8
    # mixed_density points and 8 16-point density curves in turn
    code = "\n".join([
        "import math, resource",
        "import numpy as np",
        "from wingtail import cli, mixed",
        f"config = cli.load_config({CONFIGS!r} + '/reference_nig.json')",
        "grid = np.exp(np.linspace(0.2, 11.5, 16))",
        "mixed.mixed_density(config.model, math.exp(1.3))",
        "cli.cmd_density(config, grid)",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "for ell in np.linspace(1.25, 1.75, 8):",
        "    mixed.mixed_density(config.model, math.exp(ell))",
        "    cli.cmd_density(config, grid * math.exp(0.01 * ell))",
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 16)",
    ])
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert float(done.stdout) <= 10.0


def test_convolution_loads_no_numpy_ma():
    # numpy's set routines (np.union1d, np.unique) import numpy.ma, about
    # 10 ms on the first convolution of a process; both jump laws' points
    # build their panel edges without them
    code = "\n".join([
        "import math",
        "from wingtail import cli, mixed",
        "for name, log_x in (('reference_nig', 1.5), ('reference_kou', -1.3220217014361222)):",
        f"    mixed.mixed_density(cli.load_config({CONFIGS!r} + f'/{{name}}.json').model, math.exp(log_x))",
    ])
    assert _loaded_after(code, "numpy.ma") == []

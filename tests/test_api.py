"""Every exported name resolves, in the package and in each module, and
the README's library example runs against the package."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ssem

MODULES = sorted(info.name for info in pkgutil.iter_modules(ssem.__path__))


def test_package_exports_resolve():
    missing = [name for name in ssem.__all__ if not hasattr(ssem, name)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"ssem.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_are_the_module_objects():
    for name in MODULES:
        module = importlib.import_module(f"ssem.{name}")
        for attr in module.__all__:
            if attr in ssem.__all__:
                assert getattr(ssem, attr) is getattr(module, attr), attr


def test_readme_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    residual, cond = (float(v) for v in capsys.readouterr().out.split())
    assert residual < 1e-10
    assert 1.0 < cond < 1e8


GUARD = """
import json, sys
import ssem, ssem.cli
for problem in ssem.PROBLEM_IDS:
    ssem.solve_problem(problem, 10, ssem.SmootherSpec(p=4.0))
try:
    with open("/proc/self/maps") as fh:
        blas = sorted({line.split()[-1] for line in fh if "openblas" in line})
except OSError:
    blas = None
print(json.dumps({"scipy": sorted(name for name in sys.modules
                                  if name.startswith("scipy")),
                  "blas": blas}))
"""


def test_solves_load_no_scipy_and_one_openblas():
    # SciPy is a fallback only: importing ssem and solving each built-in
    # problem loads none of it, and so no second OpenBLAS
    src = str(Path(ssem.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", GUARD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded["scipy"] == []
    if loaded["blas"] is None:
        pytest.skip("no /proc/self/maps to list the loaded libraries")
    assert len(loaded["blas"]) == 1, loaded["blas"]


NO_RANDOM = """
import json, sys
import ssem
spec = ssem.SmootherSpec(p=4.0)
rows = [ssem.solve_problem(problem, m, spec)[0].n_rows for problem, m in
        [("dirichlet-disc", 18), ("dirichlet-3d", 10), ("parabolic-star", 10)]]
laplace = ssem.EllipticOperatorSpec(second_order={(0, 0): 1.0, (1, 1): 1.0},
                                    first_order={}, zeroth=None, source=0.0)
trace = ssem.BoundaryConditionSpec(trace=1.0, flux=0.0,
                                   data=lambda pts, nrm: pts[:, 0])
system = ssem.assemble_elliptic(ssem.star_domain(),
                                (ssem.roots_axis(18), ssem.roots_axis(18)),
                                laplace, trace)
rows.append(ssem.pinv_solve(
    system, lambda b: ssem.apply_smoother_half_inverse(b, spec, d=2)).n_rows)
print(json.dumps({"rows": rows, "random": sorted(
    name for name in sys.modules if name.startswith("numpy.random")),
                  "ma": sorted(name for name in sys.modules
                               if name.split(".")[:2] == ["numpy", "ma"])}))
"""


def test_solves_load_no_numpy_random():
    # numpy.random costs a process about 6 MiB: solves whose cond comes
    # from Lanczos, and a callable smoother's probe, must not load it
    src = str(Path(ssem.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", NO_RANDOM], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert min(loaded["rows"]) >= ssem.solver.LANCZOS_MIN_ORDER
    assert loaded["random"] == []
    # nor numpy.ma, which np.unique loads on first use: about 30 ms and
    # 1.5 MiB on a process's first solve (a bordered one, dirichlet-3d,
    # among them)
    assert loaded["ma"] == []

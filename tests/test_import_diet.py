"""A structured sweep loads no scipy.

scipy serves only the unstructured mesh generators (``Delaunay``) and
particle tracing (``cKDTree``), both imported where they are called; the
patch condensation computes its own strongly connected components.  The
check runs in a fresh interpreter, since this test process has long
imported scipy through other tests.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import repro
assert not scipy_modules(), ("import repro", scipy_modules())

from repro import JSNTS, JSNTU
from repro.runtime.perfmodel import SweepPerformanceModel

app = JSNTS.kobayashi(8, total_cores=24, patch_shape=(4, 4, 4))
topology = app.solver.topology
report = app.sweep_report(24)
assert report.vertices_solved == topology.num_vertices
SweepPerformanceModel(topology, machine=app.machine).predict(24)
assert not scipy_modules(), ("structured sweep", scipy_modules())

ball = JSNTU.ball(4, total_cores=12)
assert ball.solver.topology.num_vertices > 0
assert "scipy.spatial" in sys.modules
print("ok")
"""


def test_structured_sweep_loads_no_scipy_and_unstructured_meshes_do():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"

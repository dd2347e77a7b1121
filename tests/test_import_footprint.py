"""The import footprint: scipy loads only on the paths that call it.

Importing ``qcoord`` and its CLI loads no scipy module, and neither does an
explicit simulation; a sampled simulation loads ``scipy.special`` (its
log-factorials) and no other scipy subpackage; ``optimize`` loads
``scipy.optimize`` on its first solve.  The steps run in order in one fresh
interpreter, since this suite's own process loaded scipy long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcoord

STEPS = r"""
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {}
import qcoord, qcoord.cli
loaded["import"] = scipy_modules()

from qcoord.classical import Alphabet, JointPmf, pmf_from_assignments
from qcoord.coordination import CqEnsemble, Extension, validate_extension
from qcoord.optimizer import optimize
from qcoord.protocol import simulate_two_node
from qcoord.quantum import DensityOperator, tensor

ket0 = DensityOperator.pure([1, 0], "B")
ket1 = DensityOperator.pure([0, 1], "B")
ketp = DensityOperator.pure([1, 1], "B")
eta = DensityOperator(0.5 * ket0.matrix + 0.5 * ketp.matrix)
x, y = Alphabet("X", ["x0", "x1"]), Alphabet("Y", ["y0", "y+"])
ens = CqEnsemble(JointPmf([x], [0.5, 0.5]),
                 [tensor(ket0, ket0), tensor(ket1, eta)], {"A": 2, "B": 2})
joint = pmf_from_assignments([x, y], {
    ("x0", "y0"): 0.5, ("x1", "y0"): 0.25, ("x1", "y+"): 0.25})
ext = Extension(joint, [ket0, ket1], [ket0, ketp], kind="two-node")
assert validate_extension(ext, ens).passed
loaded["build"] = scipy_modules()

for t in simulate_two_node(ens, ext, n=8, rate=0.5, trials=4, seed=1,
                           engine="explicit"):
    t.distance_to_target
loaded["explicit"] = scipy_modules()

for t in simulate_two_node(ens, ext, n=200, rate=0.46, trials=4, seed=1,
                           engine="sampled"):
    t.distance_to_target
loaded["sampled"] = scipy_modules()

assert optimize(ens, max_merge_order=1).feasible
loaded["optimize"] = scipy_modules()
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def loaded():
    """The scipy modules loaded after each step, in a fresh interpreter."""
    src = str(Path(qcoord.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-W", "error", "-c", STEPS],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_no_scipy(loaded):
    assert loaded["import"] == []
    assert loaded["build"] == []


def test_explicit_simulation_loads_no_scipy(loaded):
    assert loaded["explicit"] == []


def test_sampled_simulation_loads_scipy_special_only(loaded):
    assert "scipy.special" in loaded["sampled"]
    assert not {"scipy.optimize", "scipy.linalg"} & set(loaded["sampled"])


def test_optimize_loads_scipy_optimize(loaded):
    assert "scipy.optimize" in loaded["optimize"]

"""Three-node networks: cascade rate corners and the isolated-node rate.

Cascade: the relay forwards a compressed description, so an admissible
decomposition yields the rate corner (I(X;YZ), I(X;Z)) and the region is
everything above it.  Isolated node: with no link into the last node its
register must stay in product with the first one, and the price of the
middle link becomes I(X;Y|Z).
"""

import numpy as np

from qcoord.classical import Alphabet, JointPmf
from qcoord.coordination import (
    CqEnsemble,
    Extension,
    cascade_rate_point,
    isolated_rate,
    validate_extension,
)
from qcoord.protocol import simulate_cascade
from qcoord.quantum import DensityOperator, tensor

ket0 = DensityOperator.pure([1, 0])
ket1 = DensityOperator.pure([0, 1])
ketp = DensityOperator.pure([1, 1])

# relay copies the source; the far node sees it through a bit flip
p = 0.1
x = Alphabet("X", ["x0", "x1"])
y = Alphabet("Y", ["y0", "y1"])
z = Alphabet("Z", ["z0", "z1"])
c_states = [DensityOperator(np.diag([1 - p, p]).astype(complex)),
            DensityOperator(np.diag([p, 1 - p]).astype(complex))]
ens = CqEnsemble(
    JointPmf([x], [0.5, 0.5]),
    [tensor(tensor(ket0, ket0), c_states[0]),
     tensor(tensor(ket1, ket1), c_states[1])],
    {"A": 2, "B": 2, "C": 2})
cube = np.zeros((2, 2, 2))
for xi in range(2):
    for zi in range(2):
        cube[xi, xi, zi] = 0.5 * (p if zi != xi else 1 - p)
ext = Extension(JointPmf([x, y, z], cube), [ket0, ket1], [ket0, ket1],
                [ket0, ket1], kind="cascade")
assert validate_extension(ext, ens).passed

pt = cascade_rate_point(ext)
print(f"cascade corner: R12 >= {pt.r12:.4f}, R23 >= {pt.r23:.4f} "
      f"(1 - h({p}) = {pt.r23:.4f})")

print("\nsmall cascade simulation inside the region:")
for n in (16, 32, 48):
    traces = simulate_cascade(ens, ext, n=n, rate12=1.9, rate23=0.9,
                              trials=30, seed=3, delta=0.1,
                              engine="explicit", codeword_rate_y=0.35,
                              codeword_rate_z=0.3)
    med = np.median(traces.column("distance_to_target"))
    # Bob and Charlie share one relay decode, so its failures count here
    fallback = np.mean(traces.column("decoder_fallback"))
    print(f"  n = {n:>3}: median distance {med:.3f}, "
          f"decoder fallback rate {fallback:.0%}")

# isolated node: the far register is independent of the source
iso_ens = CqEnsemble(
    JointPmf([x], [0.5, 0.5]),
    [tensor(tensor(ket0, ket0), ketp), tensor(tensor(ket1, ket1), ketp)],
    {"A": 2, "B": 2, "C": 2})
cube_iso = np.zeros((2, 2, 1))
cube_iso[0, 0, 0] = cube_iso[1, 1, 0] = 0.5
iso_ext = Extension(
    JointPmf([x, y, Alphabet("Z", ["z+"])], cube_iso),
    [ket0, ket1], [ket0, ket1], [ketp], kind="isolated")
assert validate_extension(iso_ext, iso_ens).passed
print("\nisolated-node rate I(X;Y|Z):", isolated_rate(iso_ext),
      "bits/symbol")

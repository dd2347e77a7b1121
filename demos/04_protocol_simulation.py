"""Finite-blocklength runs of the binning scheme, above and below the rate.

At rates above the decomposition's information rate the block-averaged
state closes in on the target as n grows; starved rates hit the
independence floor instead.  Codebooks at these blocklengths are far too
large to materialize, so the trials are drawn from the scheme's exact
outcome distribution (the "sampled" engine).
"""

import numpy as np

from qcoord.classical import Alphabet, JointPmf, pmf_from_assignments
from qcoord.coordination import CqEnsemble, Extension, validate_extension
from qcoord.protocol import simulate_two_node
from qcoord.quantum import DensityOperator, tensor

ket0 = DensityOperator.pure([1, 0])
ket1 = DensityOperator.pure([0, 1])
ketp = DensityOperator.pure([1, 1])
eta = DensityOperator(0.5 * ket0.matrix + 0.5 * ketp.matrix)

x = Alphabet("X", ["x0", "x1"])
y = Alphabet("Y", ["y0", "y+"])
ens = CqEnsemble(JointPmf([x], [0.5, 0.5]),
                 [tensor(ket0, ket0), tensor(ket1, eta)], {"A": 2, "B": 2})
ext = Extension(
    pmf_from_assignments([x, y], {("x0", "y0"): 0.5, ("x1", "y0"): 0.25,
                                  ("x1", "y+"): 0.25}),
    [ket0, ket1], [ket0, ketp], kind="two-node")
assert validate_extension(ext, ens).passed

print("information rate of this extension: 0.3113 bits/symbol")
print(f"{'rate':>6} {'n':>5} {'median dist':>12} {'enc fallback':>13} "
      f"{'typical x':>10}")
for rate in (0.46, 0.16):
    for n in (200, 400, 800):
        traces = simulate_two_node(ens, ext, n=n, rate=rate, trials=120,
                                   seed=5, delta=0.02)
        med = np.median(traces.column("distance_to_target"))
        fb = np.mean(traces.column("encoder_fallback"))
        typ = np.mean(traces.column("x_typical"))
        print(f"{rate:>6} {n:>5} {med:>12.4f} {fb:>13.2f} {typ:>10.2f}")

print("\nper-trial record (first trial at rate 0.46, n = 800):")
t = simulate_two_node(ens, ext, n=800, rate=0.46, trials=1, seed=5,
                      delta=0.02)[0]
print("  engine:", t.engine, " codeword index:", t.ell,
      " decoded:", t.ell_hat)
print("  distance to target:", round(t.distance_to_target, 4),
      " distance to block mixture:", round(t.distance_to_tau, 4))
print("  jointly typical at gamma radius:", t.gamma_typical,
      " block bound holds:", t.block_bound_ok)

"""Minimizing the label rate over admissible decompositions.

Starting from the two-symbol target alone (no extension supplied), the
optimizer proposes candidate atoms for the downstream register -- the
spectral projectors of each conditional, their convex merges, and the
remainders left by peeling one conditional off another -- then minimizes
I(X;Y) over conditionals that reproduce the target exactly.  Peeling is
what rediscovers the shared |+> atom and with it the 0.3113 rate.
"""

from collections import Counter

import numpy as np

from qcoord.classical import Alphabet, JointPmf
from qcoord.coordination import CqEnsemble
from qcoord.optimizer import minimize_conditional, optimize, propose_atoms
from qcoord.quantum import DensityOperator, tensor

ket0 = DensityOperator.pure([1, 0])
ket1 = DensityOperator.pure([0, 1])
eta = DensityOperator([[0.75, 0.25], [0.25, 0.25]])

x = Alphabet("X", ["x0", "x1"])
target = CqEnsemble(JointPmf([x], [0.5, 0.5]),
                    [tensor(ket0, ket0), tensor(ket1, eta)],
                    {"A": 2, "B": 2})

cands = propose_atoms(target, max_merge_order=2)
print("proposed atoms:")
for atom, how in zip(cands.atoms_b, cands.provenance_b):
    print(f"  [{how:8s}]", np.round(atom.matrix.real, 3).tolist())

res = minimize_conditional(target, cands, kind="two-node")
print("\nminimized I(X;Y):", round(res.value, 6), "bits/symbol")
print("iterations:", res.iterations,
      " Frank-Wolfe gap:", f"{res.gap:.1e} bits",
      " max feasibility residual:", f"{res.max_residual:.1e}")
print("conditional table p(y|x):")
print(np.round(res.conditional, 4))

full = optimize(target, kind="two-node", max_merge_order=3)
print("\nfull pipeline value:", round(full.value, 6),
      " gap:", f"{full.gap:.1e} bits")
print("one pool at merge order 3:", len(full.atoms.atoms_b), "atoms",
      dict(Counter(full.atoms.provenance_b)))

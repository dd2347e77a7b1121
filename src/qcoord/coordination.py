"""Target ensembles, candidate extensions, and closed-form rate expressions.

A target is a classical-quantum ensemble: a source pmf over X together
with one product state per source symbol on the network registers
(A, B for the two-node network; A, B, C for cascade and isolated-node).
An extension adjoins label variables Y (and Z) with atom lists for the
downstream registers; a validated extension reproduces the target
ensemble exactly and is the object the rate formulas are evaluated on.

Network kinds: "two-node" (rate I(X;Y)), "cascade" (corner point
(I(X;YZ), I(X;Z))), "isolated" (rate I(X;Y|Z), which additionally
requires the A and C marginals of the extension to be in product form).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .classical import (
    Alphabet,
    JointPmf,
    conditional_mutual_information,
    mutual_information,
)
from .quantum import (
    DensityOperator,
    partial_trace,
    tensor,
    trace_norm_distance,
)

KINDS = ("two-node", "cascade", "isolated")
VALIDATION_TOL = 1e-9
_TRIVIAL_C = DensityOperator([[1.0]])


class CoordinationError(ValueError):
    """Rejected input: inconsistent shapes/dims, as opposed to a failing check."""


class ExtensionNotValidated(RuntimeError):
    """Raised when a rate is requested for an extension never validated."""


def mixture(weights, blocks) -> np.ndarray:
    """Sum of ``weights[..., cell] * blocks[cell]`` over the cells in C
    order; ``blocks`` has the cell axes plus two matrix axes, ``weights``
    the cell axes after any leading (batch) axes.  Cells whose weight is
    zero in every batch row are skipped, and elsewhere a zero weight adds
    +-0, so each row sums exactly as it would alone."""
    weights, blocks = np.asarray(weights), np.asarray(blocks)
    lead = weights.shape[:weights.ndim - blocks.ndim + 2]
    weights = weights.reshape(lead + (-1,))
    blocks = blocks.reshape((-1,) + blocks.shape[-2:])
    out = np.zeros(lead + blocks.shape[1:], dtype=complex)
    for cell in np.flatnonzero(weights.reshape(-1, len(blocks)).any(axis=0)):
        out += weights[..., cell, None, None] * blocks[cell]
    return out


def kron_table(*atom_lists) -> np.ndarray:
    """``t[i, j, k] = (M_i (x) M_j) (x) M_k``, one axis per atom list of
    DensityOperators or raw matrices, folded left by broadcasting: every
    entry is the product ``(a * b) * c`` that ``np.kron`` forms."""
    out, *rest = (np.array([getattr(a, "matrix", a) for a in atoms])
                  for atoms in atom_lists)
    for m in rest:
        (r, c), (k, p, q) = out.shape[-2:], m.shape
        out = (out[..., None, :, None, :, None]
               * m[:, None, :, None, :]).reshape(
                   out.shape[:-2] + (k, r * p, c * q))
    return out


class CqEnsemble:
    """Source pmf p_X plus one per-letter product state per source symbol.

    ``register_dims`` maps register names (subset of A, B, C in that order)
    to dimensions; each ``states[x]`` lives on the full register product.
    """

    def __init__(self, source: JointPmf, states: Sequence[DensityOperator],
                 register_dims: dict):
        if len(source.variables) != 1:
            raise CoordinationError("source must be a single-variable pmf")
        regs = list(register_dims)
        if regs not in (["A", "B"], ["A", "B", "C"]):
            raise CoordinationError(
                f"registers must be [A,B] or [A,B,C], got {regs}")
        self.source = source
        self.register_dims = dict(register_dims)
        total = int(np.prod(list(register_dims.values())))
        states = list(states)
        if len(states) != source.variables[0].size:
            raise CoordinationError(
                f"{len(states)} states for {source.variables[0].size} symbols")
        for s in states:
            if s.dim != total:
                raise CoordinationError(
                    f"state dim {s.dim} does not match registers {register_dims}")
        self.states = tuple(states)

    @property
    def x_alphabet(self) -> Alphabet:
        return self.source.variables[0]

    @property
    def registers(self) -> tuple:
        return tuple(self.register_dims)

    @property
    def dims_list(self) -> list:
        return [self.register_dims[r] for r in self.registers]

    @cached_property
    def _factors(self) -> tuple:
        """(A parts, rest parts, factorization defects), one entry per x.

        Computed once: the states and the source table are write-protected.
        """
        dims, keep = self.dims_list, list(range(1, len(self.registers)))
        a_parts = tuple(partial_trace(s, dims, [0]) for s in self.states)
        rests = tuple(partial_trace(s, dims, keep) for s in self.states)
        defects = tuple(
            trace_norm_distance(tensor(a, r).matrix, s.matrix)
            for a, r, s in zip(a_parts, rests, self.states))
        return a_parts, rests, defects

    def a_part(self, x_index: int) -> DensityOperator:
        return self._factors[0][x_index]

    def rest_part(self, x_index: int) -> DensityOperator:
        return self._factors[1][x_index]

    def factorization_defect(self, x_index: int) -> float:
        """Trace distance between omega^x and (A part) x (rest part)."""
        return self._factors[2][x_index]

    def factorizes(self) -> bool:
        """Every omega^x is A x rest within ``VALIDATION_TOL``."""
        return all(self.factorization_defect(i) <= VALIDATION_TOL
                   for i in range(len(self.states)))

    def average_state(self) -> DensityOperator:
        return DensityOperator(mixture(self.source.table,
                                       [s.matrix for s in self.states]))

    def conditional_part(self, x_index: int, register: str) -> DensityOperator:
        pos = self.registers.index(register)
        return partial_trace(self.states[x_index], self.dims_list, [pos])


@dataclass(frozen=True)
class RatePoint:
    """A corner of the cascade region: rates in bits per source symbol."""

    r12: float
    r23: Optional[float] = None

    def __post_init__(self):
        for v in (self.r12, self.r23):
            if v is not None and not np.isfinite(v):
                raise CoordinationError("rates must be finite")


class Extension:
    """Candidate decomposition: joint pmf over labels plus per-label atoms.

    ``joint`` has variables (X, Y) or (X, Y, Z); ``atoms_a[x]``,
    ``atoms_b[y]`` and (for three-register kinds) ``atoms_c[z]`` are the
    per-label register states.  Atom lists may repeat states; merging is
    the optimizer's job.
    """

    def __init__(self, joint: JointPmf, atoms_a, atoms_b, atoms_c=None,
                 kind: str = "two-node"):
        if kind not in KINDS:
            raise CoordinationError(f"unknown network kind {kind!r}")
        want = 2 if kind == "two-node" else 3
        if len(joint.variables) != want:
            raise CoordinationError(
                f"{kind} extension needs {want} label variables")
        if kind == "two-node" and atoms_c is not None:
            raise CoordinationError("two-node extension has no C atoms")
        if kind != "two-node" and atoms_c is None:
            raise CoordinationError(f"{kind} extension requires C atoms")
        sizes = [v.size for v in joint.variables]
        atoms_a, atoms_b = list(atoms_a), list(atoms_b)
        if len(atoms_a) != sizes[0]:
            raise CoordinationError("one A atom per X symbol required")
        if len(atoms_b) != sizes[1]:
            raise CoordinationError("one B atom per Y symbol required")
        if atoms_c is not None:
            atoms_c = list(atoms_c)
            if len(atoms_c) != sizes[2]:
                raise CoordinationError("one C atom per Z symbol required")
        self.joint = joint
        self.atoms_a = tuple(atoms_a)
        self.atoms_b = tuple(atoms_b)
        self.atoms_c = tuple(atoms_c) if atoms_c is not None else None
        self.kind = kind
        self._validated = False

    def require_validated(self):
        if not self._validated:
            raise ExtensionNotValidated(
                "run validate_extension against the target ensemble first")

    def as_cascade(self):
        """(label joint with axes X, Y, Z as an array, C atoms).

        A two-node extension is the cascade with a trivial relay: a single
        Z symbol whose C atom is the 1-dimensional state [[1]].
        """
        if self.kind == "two-node":
            return self.joint.table[:, :, None], (_TRIVIAL_C,)
        return self.joint.table, self.atoms_c

    def conditional_rest(self, x_index: int) -> np.ndarray:
        """Sum_{y,z} p(y,z|x) * atomsB^y x atomsC^z as a raw matrix."""
        t, atoms_c = self.as_cascade()
        px = t.reshape(t.shape[0], -1).sum(axis=1)
        if px[x_index] <= 0:
            raise CoordinationError(f"source symbol {x_index} has zero mass")
        return mixture(t[x_index] / px[x_index], self._rest_table)

    @cached_property
    def _rest_table(self) -> np.ndarray:
        """atomsB^y x atomsC^z per (y, z); the atoms are immutable tuples."""
        return kron_table(self.atoms_b, self.as_cascade()[1])

    @cached_property
    def label_table(self) -> np.ndarray:
        """atomsA^x x atomsB^y x atomsC^z per (x, y, z), read-only."""
        k = kron_table(self.atoms_a, self.atoms_b, self.as_cascade()[1])
        k.setflags(write=False)
        return k

    @cached_property
    def tau_table(self) -> np.ndarray:
        """atomsA^x x (conditional rest of x) per x, zero for a source
        symbol of no mass, read-only."""
        t, _ = self.as_cascade()
        px = t.reshape(t.shape[0], -1).sum(axis=1)
        tau = np.array([np.kron(a.matrix, self.conditional_rest(xi))
                        if px[xi] > 0
                        else np.zeros_like(self.label_table[xi, 0, 0])
                        for xi, a in enumerate(self.atoms_a)])
        tau.setflags(write=False)
        return tau

    def ac_marginal(self) -> np.ndarray:
        """Sum_{x,z} p(x,z) atomsA^x x atomsC^z as a raw matrix."""
        if self.kind == "two-node":
            raise CoordinationError("AC marginal needs a Z variable")
        return mixture(self.joint.table.sum(axis=1),
                       kron_table(self.atoms_a, self.atoms_c))


@dataclass(frozen=True)
class ConstraintCheck:
    """One validated constraint: measured deviation vs. tolerance."""

    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __str__(self):
        lines = []
        for c in self.checks:
            status = "ok " if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: deviation={c.deviation:.3e} "
                         f"(tol={c.tolerance:.1e})")
        return "\n".join(lines)


def validate_extension(ext: Extension, target: CqEnsemble,
                       tol: float = VALIDATION_TOL) -> ValidationReport:
    """Check an extension against its target ensemble, constraint by constraint.

    Shape or dimension mismatches raise CoordinationError (rejected input);
    numeric constraint violations come back as failing report entries.
    """
    want_regs = 2 if ext.kind == "two-node" else 3
    if len(target.registers) != want_regs:
        raise CoordinationError(
            f"{ext.kind} extension against {len(target.registers)}-register target")
    x_alpha = target.x_alphabet
    if ext.joint.variables[0].size != x_alpha.size:
        raise CoordinationError("X alphabet size mismatch")
    dims = target.dims_list
    if ext.atoms_a[0].dim != dims[0]:
        raise CoordinationError("A atom dimension mismatch")
    if ext.atoms_b[0].dim != dims[1]:
        raise CoordinationError("B atom dimension mismatch")
    if ext.atoms_c is not None and ext.atoms_c[0].dim != dims[2]:
        raise CoordinationError("C atom dimension mismatch")

    checks = []
    x_marg = ext.joint.marginal([ext.joint.variables[0].name])
    dev = float(0.5 * np.abs(x_marg.table - target.source.table).sum())
    checks.append(ConstraintCheck("source marginal p_X", dev, tol))

    px = target.source.table
    for i, sym in enumerate(x_alpha.symbols):
        defect = target.factorization_defect(i)
        checks.append(
            ConstraintCheck(f"omega^{sym} factorizes A x rest", defect, tol))
        dev_a = trace_norm_distance(ext.atoms_a[i].matrix,
                                    target.a_part(i).matrix)
        checks.append(ConstraintCheck(f"A atom reproduces A part, x={sym}",
                                      dev_a, tol))
        if px[i] > 0:
            rest = ext.conditional_rest(i)
            dev_r = trace_norm_distance(rest, target.rest_part(i).matrix)
            checks.append(
                ConstraintCheck(f"atom mixture reproduces rest, x={sym}",
                                dev_r, tol))

    if ext.kind == "isolated":
        ac = ext.ac_marginal()
        pz = ext.joint.table.sum(axis=(0, 1))
        pxm = ext.joint.table.sum(axis=(1, 2))
        sigma_a = mixture(pxm, kron_table(ext.atoms_a))
        sigma_c = mixture(pz, kron_table(ext.atoms_c))
        dev_ac = trace_norm_distance(ac, np.kron(sigma_a, sigma_c))
        checks.append(ConstraintCheck("sigma_AC = sigma_A x sigma_C",
                                      dev_ac, tol))

    report = ValidationReport(tuple(checks))
    if report.passed:
        ext._validated = True
    return report


def two_node_rate(ext: Extension) -> float:
    """I(X;Y) of the extension's label pmf (bits per source symbol)."""
    ext.require_validated()
    if ext.kind != "two-node":
        raise CoordinationError("two_node_rate needs a two-node extension")
    x, y = ext.joint.names
    return mutual_information(ext.joint, [x], [y])


def cascade_rate_point(ext: Extension) -> RatePoint:
    """Corner point (I(X;YZ), I(X;Z)); the region for this extension is its up-set."""
    ext.require_validated()
    if ext.kind != "cascade":
        raise CoordinationError("cascade_rate_point needs a cascade extension")
    x, y, z = ext.joint.names
    return RatePoint(
        r12=mutual_information(ext.joint, [x], [y, z]),
        r23=mutual_information(ext.joint, [x], [z]),
    )


def isolated_rate(ext: Extension) -> float:
    """I(X;Y|Z) for an isolated-node extension (includes the AC product check)."""
    ext.require_validated()
    if ext.kind != "isolated":
        raise CoordinationError("isolated_rate needs an isolated extension")
    x, y, z = ext.joint.names
    return conditional_mutual_information(ext.joint, [x], [y], [z])

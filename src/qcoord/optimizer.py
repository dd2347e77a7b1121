"""Numerical minimization of the coordination-rate objectives.

Given a target ensemble and a candidate atom list for the downstream
registers, the admissible label conditionals p(y|x) form, per source
symbol, an affine slice of the simplex (the mixtures of atoms that
reproduce that symbol's conditional state).  The rate objectives
(I(X;Y), the weighted cascade objective, I(X;Y|Z) under an independent-Z
restriction) are jointly convex in the conditionals, so we alternate:

  * fix the output marginal(s) q and, per source symbol, I-project the
    conditional onto its feasibility polytope (exponential-family tilt
    solved by a small Newton dual, with a multiplicative mirror-descent
    step plus affine projection as fallback);
  * update q to the current marginal(s).

Every accepted step decreases the objective, so the per-iteration trace
is monotone.  Atom candidates come from spectral decompositions of the
target conditionals, convex merges of the conditionals, and maximal-PSD
"peeling" remainders between them (the remainder left after subtracting
as much of one conditional from another as positivity allows — this is
what discovers shared atoms across source symbols).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import lsq_linear

from .classical import Alphabet, JointPmf
from .coordination import (
    CoordinationError,
    CqEnsemble,
    Extension,
    RatePoint,
    cascade_rate_point,
    isolated_rate,
    kron_table,
    mixture,
    two_node_rate,
    validate_extension,
)
from .quantum import DensityOperator, eigen_hermitian, trace_norm_distance

FEAS_TOL = 1e-8
OBJ_TOL = 1e-9
MAX_ITERS = 10_000
DEDUP_TOL = 1e-9
RESULT_VALIDATION_TOL = 1e-6
MAX_SUPPORTS = 4096     # candidate supports tried per vertex enumeration

_LOG2 = np.log(2.0)


@dataclass(frozen=True)
class AtomCandidateSet:
    """Candidate atoms for the B (and C) registers with per-atom provenance."""

    atoms_b: tuple
    atoms_c: Optional[tuple] = None
    provenance_b: tuple = ()
    provenance_c: tuple = ()

    def __post_init__(self):
        if not self.atoms_b:
            raise CoordinationError("atom candidate set must be nonempty")


@dataclass
class OptimizerResult:
    """Outcome of one constrained minimization (or of the full pipeline)."""

    feasible: bool
    value: float
    extension: Optional[Extension]
    conditional: Optional[np.ndarray]
    iterations: int
    objective_trace: list
    max_residual: float
    atoms: Optional[AtomCandidateSet] = None
    rate_point: Optional[RatePoint] = None
    message: str = ""
    candidates: list = field(default_factory=list)
    certified_empty: bool = False
    # vertex enumeration for the starting points stopped at its support
    # limit, so the deterministic extra starts came from a partial list
    vertices_truncated: bool = False


def _dedup_atoms(atoms, provenance, tol=DEDUP_TOL):
    kept, prov = [], []
    for a, p in zip(atoms, provenance):
        if any(trace_norm_distance(a.matrix, k.matrix) < tol for k in kept):
            continue
        kept.append(a)
        prov.append(p)
    return kept, prov


def _peel(base: np.ndarray, piece: np.ndarray, tol=1e-10):
    """Largest q with base - q*piece PSD; returns (q, normalized remainder).

    Returns (0, None) when nothing can be peeled or the remainder would be
    degenerate (q outside (tol, 1 - tol)).
    """
    w, v = np.linalg.eigh(base)
    support = w > 1e-12
    if not support.any():
        return 0.0, None
    vs = v[:, support]
    ws = w[support]
    proj = vs @ vs.conj().T
    # the piece must live entirely inside the base's support, including
    # cross terms, or no positive amount of it can be removed
    if np.max(np.abs(piece - proj @ piece @ proj)) > 1e-9:
        return 0.0, None
    inv_sqrt = vs @ np.diag(ws ** -0.5) @ vs.conj().T
    m = inv_sqrt @ piece @ inv_sqrt
    lam = np.linalg.eigvalsh(m)[-1]
    if lam <= tol:
        return 0.0, None
    q = 1.0 / lam
    if q <= tol or q >= 1.0 - tol:
        return 0.0, None
    rem = (base - q * piece) / (1.0 - q)
    return q, rem


def _propose_for_register(conditionals, weights, max_merge_order):
    """Spectral atoms + weighted merges + peeled remainders, deduplicated."""
    atoms, prov = [], []
    for cond in conditionals:
        vals, vecs = eigen_hermitian(cond.matrix)
        for j, lam in enumerate(vals):
            if lam > 1e-12:
                atoms.append(DensityOperator.pure(vecs[:, j]))
                prov.append("spectral")
    for order in range(1, max_merge_order + 1):
        for subset in itertools.combinations(range(len(conditionals)), order):
            w = np.array([weights[i] for i in subset], dtype=float)
            if w.sum() <= 0:
                continue
            merged = mixture(w / w.sum(),
                             [conditionals[i].matrix for i in subset])
            atoms.append(DensityOperator(merged))
            prov.append("merged")
    pures = [a for a, p in zip(atoms, prov) if p == "spectral"]
    pieces = list(conditionals) + pures
    for cond in conditionals:
        for piece in pieces:
            if trace_norm_distance(cond.matrix, piece.matrix) < DEDUP_TOL:
                continue
            q, rem = _peel(cond.matrix, piece.matrix)
            if rem is not None:
                atoms.append(DensityOperator(rem))
                prov.append("peeled")
    return _dedup_atoms(atoms, prov)


def propose_atoms(target: CqEnsemble, max_merge_order: int = 3) -> AtomCandidateSet:
    """Candidate atoms for the B register (and C for three-register targets)."""
    px = target.source.table
    nx = target.x_alphabet.size
    conds_b = [target.conditional_part(i, "B") for i in range(nx)]
    atoms_b, prov_b = _propose_for_register(conds_b, px, max_merge_order)
    atoms_c = prov_c = None
    if len(target.registers) == 3:
        conds_c = [target.conditional_part(i, "C") for i in range(nx)]
        atoms_c, prov_c = _propose_for_register(conds_c, px, max_merge_order)
    return AtomCandidateSet(
        atoms_b=tuple(atoms_b),
        atoms_c=tuple(atoms_c) if atoms_c is not None else None,
        provenance_b=tuple(prov_b),
        provenance_c=tuple(prov_c) if prov_c is not None else (),
    )


# ----------------------------------------------------------------------
# feasibility geometry
# ----------------------------------------------------------------------

def _hermitian_embedding(mats) -> np.ndarray:
    """Real embedding of Hermitian matrices as columns (d^2 real rows each)."""
    d = mats[0].shape[0]
    iu = np.triu_indices(d, k=1)
    cols = []
    for m in mats:
        cols.append(np.concatenate([
            np.real(np.diag(m)),
            np.sqrt(2.0) * np.real(m[iu]),
            np.sqrt(2.0) * np.imag(m[iu]),
        ]))
    return np.array(cols).T


def _feasibility_system(atom_mats, eta: np.ndarray):
    """(A, b) for {p : sum_y p_y atom_y = eta, sum_y p_y = 1}."""
    a = _hermitian_embedding(atom_mats)
    b = _hermitian_embedding([eta])[:, 0]
    a = np.vstack([a, np.ones((1, a.shape[1]))])
    b = np.concatenate([b, [1.0]])
    return a, b


def _feasible_point(a: np.ndarray, b: np.ndarray):
    """Nonnegative least-squares point and its residual (2-norm)."""
    res = lsq_linear(a, b, bounds=(0.0, np.inf), method="bvls")
    p = np.clip(res.x, 0.0, None)
    return p, float(np.linalg.norm(a @ p - b))


def _polytope_vertices(a: np.ndarray, b: np.ndarray, tol=1e-9,
                       max_supports: int = MAX_SUPPORTS):
    """Basic feasible solutions of {Ap = b, p >= 0} (tiny systems only).

    Returns ``(vertices, truncated)``; ``truncated`` says the scan stopped
    after ``max_supports`` candidate supports, so the list may be partial.
    """
    m = a.shape[1]
    rank = int(np.linalg.matrix_rank(a, tol=1e-10))
    verts = []
    tried = 0
    for size in range(1, min(rank, m) + 1):
        for cols in itertools.combinations(range(m), size):
            tried += 1
            if tried > max_supports:
                return verts, True
            sub = a[:, cols]
            sol, *_ = np.linalg.lstsq(sub, b, rcond=None)
            if np.any(sol < -tol):
                continue
            full = np.zeros(m)
            full[list(cols)] = np.clip(sol, 0.0, None)
            if np.linalg.norm(a @ full - b) <= max(tol, 1e-9):
                if not any(np.max(np.abs(full - v)) < 1e-9 for v in verts):
                    verts.append(full)
    return verts, False


def _project_affine(a: np.ndarray, b: np.ndarray, p: np.ndarray,
                    max_rounds: int = 30) -> np.ndarray:
    """Feasibility restoration: affine correction with negative clipping."""
    m = p.size
    active = np.zeros(m, dtype=bool)
    cur = p.astype(float).copy()
    for _ in range(max_rounds):
        free = ~active
        if not free.any():
            break
        sub = a[:, free]
        resid = a @ cur - b
        corr, *_ = np.linalg.lstsq(sub, resid, rcond=None)
        cur[free] = cur[free] - corr
        neg = cur < -1e-12
        if not neg.any():
            break
        active |= neg
        cur[neg] = 0.0
    return np.clip(cur, 0.0, None)


def _i_project_dual(q: np.ndarray, a: np.ndarray, b: np.ndarray,
                    iters: int = 60):
    """I-projection of q onto {Ap=b, p>=0} via the exponential-family dual.

    Returns None when the dual diverges (the projection sits on a face the
    tilt cannot reach); callers then use the mirror/projection fallback.
    """
    mask = q > 1e-300
    if not mask.any():
        return None
    aq = a[:, mask]
    logq = np.log(q[mask])
    theta = np.zeros(a.shape[0])
    for _ in range(iters):
        s = logq + theta @ aq
        smax = s.max()
        w = np.exp(s - smax)
        z = w.sum()
        p = w / z
        mean = aq @ p
        grad = b - mean
        if np.linalg.norm(grad) < 1e-13:
            break
        cov = (aq * p) @ aq.T - np.outer(mean, mean)
        cov += 1e-12 * np.eye(cov.shape[0])
        try:
            step = np.linalg.solve(cov, grad)
        except np.linalg.LinAlgError:
            return None
        # damped Newton ascent on the concave dual
        t = 1.0
        base_val = theta @ b - (smax + np.log(z))
        for _ in range(40):
            cand = theta + t * step
            sc = logq + cand @ aq
            scm = sc.max()
            val = cand @ b - (scm + np.log(np.exp(sc - scm).sum()))
            if val > base_val + 1e-18:
                theta = cand
                break
            t *= 0.5
        else:
            break
        if np.linalg.norm(theta) > 1e4:
            return None
    s = logq + theta @ aq
    w = np.exp(s - s.max())
    p_full = np.zeros_like(q)
    p_full[mask] = w / w.sum()
    if np.linalg.norm(a @ p_full - b) > 1e-7:
        return None
    return p_full


def _kl_bits(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    if np.any(q[mask] <= 0):
        return np.inf
    return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum() / _LOG2)


class _ConvexRateProgram:
    """min sum_x w_x [D(p_x||q) + lam * D(marg_z p_x || q_z)] over polytopes.

    q and q_z are re-minimized exactly each outer iteration (they are the
    weighted marginals), so the objective trace is nonincreasing as long
    as per-x steps are accepted only when they improve.
    """

    def __init__(self, weights, systems, lam=0.0, z_map=None):
        self.w = np.asarray(weights, dtype=float)
        self.systems = systems  # list of (A, b) per x
        self.lam = float(lam)
        self.z_map = z_map  # (num_labels, num_z) 0/1 marginalization matrix
        self._qz = None

    def objective(self, table: np.ndarray) -> float:
        q = self.w @ table
        total = sum(self.w[i] * _kl_bits(table[i], q)
                    for i in range(len(self.w)))
        if self.lam > 0 and self.z_map is not None:
            tz = table @ self.z_map
            qz = self.w @ tz
            total += self.lam * sum(
                self.w[i] * _kl_bits(tz[i], qz) for i in range(len(self.w)))
        return float(total)

    def _grad_nats(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        eps = 1e-300
        g = np.log(np.maximum(p, eps)) - np.log(np.maximum(q, eps)) + 1.0
        if self.lam > 0 and self.z_map is not None:
            pz = p @ self.z_map
            gz = (np.log(np.maximum(pz, eps))
                  - np.log(np.maximum(self._qz, eps)) + 1.0)
            g = g + self.lam * (self.z_map @ gz)
        return np.clip(g, -60.0, 60.0)

    def _partial_obj(self, p: np.ndarray, q: np.ndarray) -> float:
        val = _kl_bits(p, q)
        if self.lam > 0 and self.z_map is not None:
            val += self.lam * _kl_bits(p @ self.z_map, self._qz)
        return val

    def solve(self, start: np.ndarray, max_iters: int, obj_tol: float):
        table = start.copy()
        trace = [self.objective(table)]
        iters = 0
        for it in range(max_iters):
            iters = it + 1
            q = self.w @ table
            self._qz = (self.w @ (table @ self.z_map)
                        if self.z_map is not None else None)
            improved = False
            for i, (a, b) in enumerate(self.systems):
                p = table[i]
                cur = self._partial_obj(p, q)
                best_p, best_val = p, cur
                if self.lam == 0:
                    cand = _i_project_dual(q, a, b)
                    if cand is not None:
                        val = self._partial_obj(cand, q)
                        if val < best_val - 1e-15:
                            best_p, best_val = cand, val
                g = self._grad_nats(p, q)
                t = 1.0
                for _ in range(12):
                    stepped = p * np.exp(-t * (g - g.min()))
                    s = stepped.sum()
                    if s <= 0:
                        t *= 0.5
                        continue
                    stepped = _project_affine(a, b, stepped / s)
                    val = self._partial_obj(stepped, q)
                    if val < best_val - 1e-15:
                        best_p, best_val = stepped, val
                        break
                    t *= 0.5
                if best_val < cur - 1e-15:
                    table[i] = best_p
                    improved = True
            trace.append(self.objective(table))
            if not improved or trace[-2] - trace[-1] < obj_tol:
                break
        return table, trace, iters


def _lex_smaller(a: np.ndarray, b: np.ndarray) -> bool:
    ra = np.round(a.ravel(), 12)
    rb = np.round(b.ravel(), 12)
    for x, y in zip(ra, rb):
        if x != y:
            return x < y
    return False


def minimize_conditional(target: CqEnsemble, atoms: AtomCandidateSet,
                         kind: str = "two-node", lam: float = 0.0,
                         feas_tol: float = FEAS_TOL,
                         obj_tol: float = OBJ_TOL,
                         max_iters: int = MAX_ITERS) -> OptimizerResult:
    """Minimize the rate objective over conditionals for a fixed atom set.

    Deterministic given inputs.  Infeasibility of the atom set (some
    conditional state outside the convex hull of the atoms) is reported,
    not raised: it signals that this candidate set cannot represent the
    target, not that coordination is impossible.
    """
    if kind not in ("two-node", "cascade", "isolated"):
        raise CoordinationError(f"unknown kind {kind!r}")
    px = target.source.table
    nx = target.x_alphabet.size
    if not target.factorizes():
        return OptimizerResult(
            feasible=False, value=np.inf, extension=None, conditional=None,
            iterations=0, objective_trace=[], max_residual=np.inf,
            atoms=atoms, certified_empty=True,
            message="a target state does not factor into A x rest; "
                    "no admissible extension exists")

    if kind == "isolated":
        if len(target.registers) != 3:
            raise CoordinationError("isolated kind needs an A,B,C target")
        return _minimize_isolated(target, atoms, feas_tol, obj_tol, max_iters)

    if kind == "two-node":
        if len(target.registers) != 2:
            raise CoordinationError("two-node kind needs an A,B target")
        label_mats = [a.matrix for a in atoms.atoms_b]
        z_map = None
        etas = [target.conditional_part(i, "B").matrix for i in range(nx)]
    else:
        if len(target.registers) != 3:
            raise CoordinationError("cascade kind needs an A,B,C target")
        if atoms.atoms_c is None:
            raise CoordinationError("cascade optimization needs C atoms")
        bc = kron_table(atoms.atoms_b, atoms.atoms_c)
        label_mats = list(bc.reshape(-1, *bc.shape[2:]))
        nz = len(atoms.atoms_c)
        z_map = np.zeros((len(label_mats), nz))
        for yi in range(len(atoms.atoms_b)):
            for zi in range(nz):
                z_map[yi * nz + zi, zi] = 1.0
        etas = [target.rest_part(i).matrix for i in range(nx)]

    systems, starts, residuals = [], [], []
    vertex_lists = []
    truncated = False
    for i in range(nx):
        a, b = _feasibility_system(label_mats, etas[i])
        p0, resid = _feasible_point(a, b)
        systems.append((a, b))
        residuals.append(resid)
        verts, cut = _polytope_vertices(a, b)
        truncated = truncated or cut
        vertex_lists.append(verts)
        if verts:
            starts.append(np.mean(verts, axis=0))
        else:
            starts.append(p0)
    max_resid = max(residuals)
    if max_resid > feas_tol:
        return OptimizerResult(
            feasible=False, value=np.inf, extension=None, conditional=None,
            iterations=0, objective_trace=[], max_residual=max_resid,
            atoms=atoms, vertices_truncated=truncated,
            message="atom set infeasible for this target "
                    f"(max residual {max_resid:.3e})")

    program = _ConvexRateProgram(px, systems, lam=lam, z_map=z_map)
    start_tables = [np.array(starts)]
    # extra deterministic starts: per-x individual vertices (first few)
    extra = min(3, max(len(v) for v in vertex_lists) if vertex_lists else 0)
    for k in range(extra):
        tab = np.array([
            vertex_lists[i][k % len(vertex_lists[i])]
            if vertex_lists[i] else starts[i]
            for i in range(nx)
        ])
        start_tables.append(tab)

    best = None
    for tab0 in start_tables:
        table, trace, iters = program.solve(tab0, max_iters, obj_tol)
        val = trace[-1]
        cand = (val, table, trace, iters)
        if best is None or val < best[0] - 1e-9 or (
                abs(val - best[0]) <= 1e-9 and _lex_smaller(table, best[1])):
            best = cand
    value, table, trace, iters = best
    final_resid = max(
        float(np.linalg.norm(a @ table[i] - b))
        for i, (a, b) in enumerate(systems))

    ext = _build_extension(target, atoms, kind, table)
    report = validate_extension(ext, target, tol=RESULT_VALIDATION_TOL)
    if not report.passed:
        return OptimizerResult(
            feasible=False, value=np.inf, extension=None, conditional=table,
            iterations=iters, objective_trace=trace, max_residual=final_resid,
            atoms=atoms, vertices_truncated=truncated,
            message="solution failed validation:\n" + str(report))
    rate_point = cascade_rate_point(ext) if kind == "cascade" else None
    value_bits = (two_node_rate(ext) if kind == "two-node"
                  else rate_point.r12 + lam * rate_point.r23)
    return OptimizerResult(
        feasible=True, value=float(value_bits), extension=ext,
        conditional=table, iterations=iters, objective_trace=trace,
        max_residual=final_resid, atoms=atoms, rate_point=rate_point,
        vertices_truncated=truncated)


def _build_extension(target, atoms, kind, table) -> Extension:
    x_alpha = target.x_alphabet
    px = target.source.table
    atoms_a = [target.a_part(i) for i in range(x_alpha.size)]
    if kind == "two-node":
        y_alpha = Alphabet("Y", [f"y{i}" for i in range(len(atoms.atoms_b))])
        joint = JointPmf([x_alpha, y_alpha], px[:, None] * table)
        return Extension(joint, atoms_a, list(atoms.atoms_b), kind="two-node")
    ny, nz = len(atoms.atoms_b), len(atoms.atoms_c)
    y_alpha = Alphabet("Y", [f"y{i}" for i in range(ny)])
    z_alpha = Alphabet("Z", [f"z{i}" for i in range(nz)])
    cube = px[:, None, None] * table.reshape(x_alpha.size, ny, nz)
    joint = JointPmf([x_alpha, y_alpha, z_alpha], cube)
    return Extension(joint, atoms_a, list(atoms.atoms_b),
                     list(atoms.atoms_c), kind=kind)


def _minimize_isolated(target, atoms, feas_tol, obj_tol, max_iters):
    """Isolated node under the independent-Z restriction p(x,y,z)=p(x,y)p(z).

    Requires the target C conditionals to coincide across source symbols
    and each rest part to factor as B x C; the admissible Z then carries
    no information and the objective reduces to I(X;Y).
    """
    nx = target.x_alphabet.size
    if atoms.atoms_c is None:
        raise CoordinationError("isolated optimization needs C atoms")
    conds_c = [target.conditional_part(i, "C") for i in range(nx)]
    base_c = conds_c[0]
    dev_c = max(trace_norm_distance(c.matrix, base_c.matrix) for c in conds_c)
    prod_dev = max(
        trace_norm_distance(
            np.kron(target.conditional_part(i, "B").matrix, conds_c[i].matrix),
            target.rest_part(i).matrix)
        for i in range(nx))
    if dev_c > feas_tol or prod_dev > feas_tol:
        return OptimizerResult(
            feasible=False, value=np.inf, extension=None, conditional=None,
            iterations=0, objective_trace=[], max_residual=max(dev_c, prod_dev),
            atoms=atoms,
            message="target is outside the independent-Z restriction "
                    "(C conditionals vary with x or rest does not factor B x C)")
    ac, bc = _feasibility_system([c.matrix for c in atoms.atoms_c],
                                 base_c.matrix)
    pz, resid_c = _feasible_point(ac, bc)
    if resid_c > feas_tol:
        return OptimizerResult(
            feasible=False, value=np.inf, extension=None, conditional=None,
            iterations=0, objective_trace=[], max_residual=resid_c,
            atoms=atoms, message="C atom set infeasible for the common "
                                 f"C conditional (residual {resid_c:.3e})")
    two = minimize_conditional(
        _as_two_node_target(target), AtomCandidateSet(
            atoms_b=atoms.atoms_b, provenance_b=atoms.provenance_b),
        kind="two-node", feas_tol=feas_tol, obj_tol=obj_tol,
        max_iters=max_iters)
    if not two.feasible:
        two.atoms = atoms
        return two
    table_y = two.conditional
    table = np.einsum("xy,z->xyz", table_y, pz).reshape(nx, -1)
    full_atoms = AtomCandidateSet(atoms_b=atoms.atoms_b,
                                  atoms_c=atoms.atoms_c,
                                  provenance_b=atoms.provenance_b,
                                  provenance_c=atoms.provenance_c)
    ext = _build_extension(target, full_atoms, "isolated", table)
    report = validate_extension(ext, target, tol=RESULT_VALIDATION_TOL)
    if not report.passed:
        return OptimizerResult(
            feasible=False, value=np.inf, extension=None, conditional=table,
            iterations=two.iterations, objective_trace=two.objective_trace,
            max_residual=max(two.max_residual, resid_c), atoms=full_atoms,
            vertices_truncated=two.vertices_truncated,
            message="solution failed validation:\n" + str(report))
    return OptimizerResult(
        feasible=True, value=isolated_rate(ext), extension=ext,
        conditional=table, iterations=two.iterations,
        objective_trace=two.objective_trace,
        max_residual=max(two.max_residual, resid_c), atoms=full_atoms,
        vertices_truncated=two.vertices_truncated)


def _as_two_node_target(target: CqEnsemble) -> CqEnsemble:
    """Project a three-register target onto (A, B) for the isolated reduction."""
    from .quantum import partial_trace
    dims = target.dims_list
    states = [partial_trace(target.states[i], dims, [0, 1])
              for i in range(target.x_alphabet.size)]
    return CqEnsemble(target.source, states,
                      {"A": dims[0], "B": dims[1]})


def optimize(target: CqEnsemble, kind: str = "two-node",
             max_merge_order: int = 3, lam: float = 0.0,
             max_iters: int = MAX_ITERS) -> OptimizerResult:
    """Full pipeline: propose atoms at growing merge order, minimize, keep best.

    Reports an upper bound on the capacity (the infimum over admissible
    decompositions); when
    every candidate atom set is infeasible the result says so with the
    residual evidence, flagging the certified-empty patterns explicitly.
    """
    if not target.factorizes():
        return OptimizerResult(
            feasible=False, value=np.inf, extension=None, conditional=None,
            iterations=0, objective_trace=[], max_residual=np.inf,
            certified_empty=True,
            message="a target state does not factor into A x rest; "
                    "the admissible extension set is empty")
    best = None
    candidates = []
    seen_sizes = set()
    for order in range(1, max_merge_order + 1):
        atoms = propose_atoms(target, max_merge_order=order)
        sig = (len(atoms.atoms_b),
               len(atoms.atoms_c) if atoms.atoms_c else 0)
        if sig in seen_sizes:
            continue
        seen_sizes.add(sig)
        res = minimize_conditional(target, atoms, kind=kind, lam=lam,
                                   max_iters=max_iters)
        candidates.append((order, res.feasible, res.value, res.max_residual))
        if res.feasible and (
                best is None or res.value < best.value - 1e-9 or
                (abs(res.value - best.value) <= 1e-9 and
                 _lex_smaller(res.conditional, best.conditional))):
            best = res
    if best is None:
        worst = max((c[3] for c in candidates), default=np.inf)
        return OptimizerResult(
            feasible=False, value=np.inf, extension=None, conditional=None,
            iterations=0, objective_trace=[], max_residual=worst,
            candidates=candidates,
            message="all candidate atom sets infeasible; the admissible "
                    "set may be empty for this target")
    best.candidates = candidates
    return best

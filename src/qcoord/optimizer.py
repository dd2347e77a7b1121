"""Numerical minimization of the coordination-rate objectives.

Given a target ensemble and a candidate atom list for the downstream
registers, the admissible label conditionals p(y|x) form, per source
symbol, an affine slice of the simplex (the mixtures of atoms that
reproduce that symbol's conditional state).  The rate objectives
(I(X;Y), the weighted cascade objective, I(X;Y|Z) under an independent-Z
restriction) are jointly convex in the conditionals, so each atom set
takes one deterministic solve:

  * one support LP per atom set (HiGHS, a block per source symbol) finds
    a point of largest support on each polytope; entries off that
    support are 0 at every feasible point, so the support fixes the face
    to search;
  * a log-barrier Newton path-following method minimizes the objective
    on that face, one objective value per outer iteration (nonincreasing
    along the central path);
  * one gap LP per check (again a block per source symbol) gives the
    Frank-Wolfe gap, a rigorous bound on how far the result is above the
    minimum for that atom set.

Atom candidates come from spectral decompositions of the target
conditionals, convex merges of up to ``max_merge_order`` conditionals, and
maximal-PSD "peeling" remainders between them (the remainder left after
subtracting as much of one conditional from another as positivity allows
— this is what discovers shared atoms across source symbols).  Only the
merges depend on the order, so the pools nest, and ``optimize`` solves
the one pool at ``max_merge_order``: its minimum is at most every lower
order's.  The face (label matrices, feasibility systems, support, null
spaces) does not depend on the weight lam of the cascade objective, so a
lam sweep (``optimize_lambdas``) prepares it once and runs one certified
solve per weight.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import linprog, lsq_linear

from .classical import Alphabet, JointPmf
from .coordination import (
    _TRIVIAL_C,
    KINDS,
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
from .quantum import (DensityOperator, QuantumError, eigen_hermitian,
                      trace_norm_distance)

FEAS_TOL = 1e-8
OBJ_TOL = 1e-9
MAX_ITERS = 10_000
DEDUP_TOL = 1e-9
RESULT_VALIDATION_TOL = 1e-6
# the largest weight on r23: lam times a bit's rounding (2^-52) stays below
# OBJ_TOL (at lam = 1e20 the Newton systems turn singular)
MAX_LAMBDA = 1e6
_BARRIER_GROWTH = 100.0   # factor on the barrier weight t per outer iteration
_NEWTON_STEPS = 50       # cap on the Newton steps of one centring
_CENTER_TOL = 1e-8       # centring stops at this Newton decrement squared
_FULL_STEP_DEC = 0.1     # Newton decrement squared below which no line search
_BOUND_MARGIN = 1e-3     # barrier bound at which the path is left, / OBJ_TOL

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
    """Outcome of one constrained minimization (or of the full pipeline).

    The defaults describe a run that found no admissible point.
    """

    feasible: bool
    value: float = np.inf
    extension: Optional[Extension] = None
    conditional: Optional[np.ndarray] = None
    iterations: int = 0
    objective_trace: list = field(default_factory=list)
    max_residual: float = np.inf
    atoms: Optional[AtomCandidateSet] = None
    rate_point: Optional[RatePoint] = None
    message: str = ""
    certified_empty: bool = False
    # Frank-Wolfe gap in bits: value - gap <= the minimum over this atom set
    gap: float = np.inf
    lower_bound: float = -np.inf


def _dedup_atoms(atoms, provenance):
    kept, prov = [], []
    for a, p in zip(atoms, provenance):
        if any(trace_norm_distance(a.matrix, k.matrix) < DEDUP_TOL
               for k in kept):
            continue
        kept.append(a)
        prov.append(p)
    return kept, prov


def _peel(base: np.ndarray, piece: np.ndarray):
    """Largest q with base - q*piece PSD; returns (q, normalized remainder
    as a ``DensityOperator``).

    Returns (0, None) when nothing can be peeled, the remainder would be
    degenerate (q outside (1e-10, 1 - 1e-10)), or rounding leaves it
    outside a state's PSD or trace tolerance.
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
    if lam <= 1e-10:
        return 0.0, None
    q = 1.0 / lam
    if q <= 1e-10 or q >= 1.0 - 1e-10:
        return 0.0, None
    try:
        return q, DensityOperator((base - q * piece) / (1.0 - q))
    except QuantumError:
        return 0.0, None


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
                atoms.append(rem)
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


def _max_support_points(systems):
    """Per system (A, b), a point of {Ap = b, p >= 0} of largest support,
    and that support.

    One block-diagonal LP, a block per system, each homogenised with its
    own s: maximise sum(t) over Ap = b*s, t <= p, 0 <= t <= 1, s >= 0.
    One row of A sums p, so each polytope is bounded and every optimum has
    t_i = 1 exactly on the coordinates that some feasible point makes
    positive, with p / s in the relative interior.  HiGHS is feasible only
    to about 1e-9, so each point is moved onto Ap = b on its support,
    unless that move leaves the open orthant (an ill-conditioned support);
    then the HiGHS point, whose entries are at least 1/s, is kept.
    """
    cost, ub, eq, bounds = [], [], [], []
    for a, b in systems:
        r, m = a.shape
        eye = np.eye(m)
        cost += [np.zeros(m), -np.ones(m), [0.0]]
        ub.append(np.hstack([-eye, eye, np.zeros((m, 1))]))
        eq.append(np.hstack([a, np.zeros((r, m)), -b[:, None]]))
        bounds += [(0, None)] * m + [(0, 1)] * m + [(0, None)]
    ub, eq = block_diag(*ub), block_diag(*eq)
    res = linprog(np.concatenate(cost), A_ub=ub, b_ub=np.zeros(len(ub)),
                  A_eq=eq, b_eq=np.zeros(len(eq)), bounds=bounds,
                  method="highs")
    if res.status != 0:
        raise CoordinationError(f"support LP failed: {res.message}")
    out = []
    ends = np.cumsum([2 * a.shape[1] + 1 for a, _ in systems])
    for (a, b), x in zip(systems, np.split(res.x, ends[:-1])):
        m = a.shape[1]
        support = x[m:2 * m] > 0.5
        p = x[:m][support] / x[-1]
        sub = a[:, support]
        corr, *_ = np.linalg.lstsq(sub, sub @ p - b, rcond=None)
        moved = p - corr
        out.append((support, moved if np.all(moved > 0) else p))
    return out


def _entropy_block(xs: np.ndarray, groups: np.ndarray, w: np.ndarray):
    """(L, G) of sum_r w_r u_r log u_r - sum_g q_g log q_g, u = Lp, q = Gu.

    Coordinate j belongs to source symbol xs[j] and label group groups[j];
    a row r of u sums the coordinates of one (symbol, group) pair, and G
    weights the rows of each group by w_x, so q is the group marginal.
    Symbols of zero probability add nothing to F and are left out.
    """
    cols = np.flatnonzero(w[xs] > 0)
    pairs, row = np.unique(np.stack([xs[cols], groups[cols]], axis=1),
                           axis=0, return_inverse=True)
    lmat = np.zeros((len(pairs), len(xs)))
    lmat[row.ravel(), cols] = 1.0
    _, col = np.unique(pairs[:, 1], return_inverse=True)
    gmat = np.zeros((col.max() + 1, len(pairs)))
    gmat[col.ravel(), np.arange(len(pairs))] = w[pairs[:, 0]]
    return lmat, gmat


@dataclass(frozen=True)
class _Infeasible:
    """Why an atom set admits no point: the fields of its result."""

    max_residual: float = np.inf
    message: str = ""
    certified_empty: bool = False


class _Face:
    """The part of an atom set's program that no weight ``lam`` changes.

    Per source symbol: the feasibility system (A, b) over the label
    conditionals, its maximal support (every entry off it is 0 at every
    feasible point), a point of that support, and the null space of the
    support's equality constraints.  Also the block-diagonal gap system
    and the (L, G) entropy blocks of the Y and Z marginals.  The isolated
    face is the trivial-relay face of the B conditionals plus the common
    Z pmf ``pz`` and its residual.
    """

    def __init__(self, weights, systems, nz, pz=None, pz_residual=0.0):
        w = np.asarray(weights, dtype=float)
        self.systems, self.nz, self.pz = systems, nz, pz
        self.pz_residual = pz_residual
        self.supported, points, nulls, xs, labels = [], [], [], [], []
        self.movable = 0     # barrier terms on faces of positive dimension
        for i, ((a, b), (support, p)) in enumerate(
                zip(systems, _max_support_points(systems))):
            _, sv, vt = np.linalg.svd(a[:, support])
            nulls.append(vt[int((sv > 1e-10 * sv[0]).sum()):].T)
            self.supported.append((a[:, support], b))
            points.append(p)
            xs.append(np.full(p.size, i))
            labels.append(np.flatnonzero(support))
            self.movable += p.size if nulls[-1].shape[1] else 0
        self.p0, self.null = np.concatenate(points), block_diag(*nulls)
        self.xs, self.labels = np.concatenate(xs), np.concatenate(labels)
        self.gap_a = block_diag(*(a for a, _ in self.supported))
        self.gap_b = np.concatenate([b for _, b in systems])
        self.gap_ends = np.cumsum([len(b) for _, b in systems])[:-1]
        self.y_block = _entropy_block(self.xs, self.labels, w)
        self.z_block = _entropy_block(self.xs, self.labels % nz, w)


class _RateProgram:
    """min F = sum_x w_x [D(p_x||q) + lam D(p_x^Z||q_Z)] over a ``_Face``.

    q and q_Z are the weighted marginals, so F is I(X;Y) (two-node) or
    I(X;YZ) + lam I(X;Z) (cascade), jointly convex in the table.  The
    variables are the entries on the face's maximal support, moved only
    along the null space of that support's equality constraints.
    """

    def __init__(self, face: _Face, lam: float):
        self.face = face
        self.blocks = [(1.0,) + face.y_block]
        if lam > 0:
            self.blocks.append((lam,) + face.z_block)

    def _terms(self, p: np.ndarray):
        """Per entropy block at p: (coef, L, G, row weights, u, q)."""
        for coef, lmat, gmat in self.blocks:
            u = lmat @ p
            yield coef, lmat, gmat, gmat.sum(axis=0), u, gmat @ u

    def value(self, p: np.ndarray) -> float:
        """F(p) in nats."""
        return float(sum(c * (w @ (u * np.log(u)) - q @ np.log(q))
                         for c, _, _, w, u, q in self._terms(p)))

    def derivatives(self, p: np.ndarray):
        """Gradient and Hessian of F (nats) at p."""
        grad, hess = np.zeros_like(p), np.zeros((p.size, p.size))
        for c, lmat, gmat, w, u, q in self._terms(p):
            grad += c * (lmat.T @ (w * np.log(u) - gmat.T @ np.log(q)))
            hess += c * (lmat.T @ (np.diag(w / u) - (gmat.T / q) @ gmat)
                         @ lmat)
        return grad, hess

    def _center(self, p: np.ndarray, t: float) -> np.ndarray:
        """Damped Newton on t F - sum log p along the null space.  A
        singular Newton system (duplicate atoms) ends the centring at p."""
        null = self.face.null
        for _ in range(_NEWTON_STEPS):
            grad, hess = self.derivatives(p)
            g = null.T @ (t * grad - 1.0 / p)
            h = null.T @ (t * hess + np.diag(p ** -2.0)) @ null
            try:
                dz = np.linalg.solve(h, -g)
            except np.linalg.LinAlgError:
                return p
            dec = -g @ dz
            if dec <= _CENTER_TOL:
                break
            dp = null @ dz
            shrink = dp < 0
            s = min(1.0, 0.99 * np.min(-p[shrink] / dp[shrink],
                                          initial=np.inf))
            if dec > _FULL_STEP_DEC:
                # backtracking (Armijo); near the centre the full step is
                # taken, as t F rounds to more than the decrease there
                phi = t * self.value(p) - np.log(p).sum()
                while (t * self.value(p + s * dp) - np.log(p + s * dp).sum()
                       > phi - 0.25 * s * dec):
                    s *= 0.5
                    if s < 1e-12:
                        return p
            p = p + s * dp
        return p

    def fw_gap(self, p: np.ndarray) -> float:
        """Frank-Wolfe gap <grad F(p), p - s> in bits, s minimising it.

        One block-diagonal HiGHS LP, a block per source symbol.  Its dual
        y bounds the minimum from below whatever the solver's tolerances:
        for each block's s_x >= 0 summing to 1,
        c_x.s_x = b_x.y_x + (c_x - A_x^T y_x).s_x
                >= b_x.y_x + min(0, min(c_x - A_x^T y_x)).
        Each s_x sums to 1 on its own, so the bound is a sum over blocks,
        not one global min.  By convexity F(p) - F* is at most the gap
        (Jaggi, ICML 2013).
        """
        face = self.face
        grad = self.derivatives(p)[0] / _LOG2
        # HiGHS's default 1e-7 dual tolerance would loosen the bound
        res = linprog(grad, A_eq=face.gap_a, b_eq=face.gap_b,
                      bounds=(0, None), method="highs",
                      options={"dual_feasibility_tolerance": 1e-10})
        if res.status != 0:
            return np.inf
        gap = 0.0
        ys = np.split(res.eqlin.marginals, face.gap_ends)
        for i, ((a, b), y) in enumerate(zip(face.supported, ys)):
            sel = face.xs == i
            c = grad[sel]
            gap += c @ p[sel] - b @ y - min(0.0, np.min(c - a.T @ y))
        return max(float(gap), 0.0)

    def solve(self, max_iters: int):
        """Barrier path following (Boyd & Vandenberghe, ch. 11).

        A centre at t is within movable / t nats of the minimum.  The path
        ends when that bound or, checked when F stops falling, the gap is
        ``_BOUND_MARGIN * OBJ_TOL`` (a larger t would only amplify rounding
        along directions F is flat in), or after ``max_iters`` outer
        iterations.  Returns (p, F per outer iteration in bits, gap at p).
        """
        target = _BOUND_MARGIN * OBJ_TOL
        p, t, trace = self.face.p0, 1.0, []
        while len(trace) < max_iters:
            p = self._center(p, t)
            trace.append(self.value(p) / _LOG2)
            if self.face.movable / t / _LOG2 <= target:
                break
            if len(trace) > 1 and trace[-2] - trace[-1] <= target:
                gap = self.fw_gap(p)
                if gap <= target:
                    return p, trace, gap
            t *= _BARRIER_GROWTH
        return p, trace, self.fw_gap(p)


def _check_args(kind: str, lam: float, max_iters: int) -> None:
    """Reject an unknown kind, a weight ``lam`` on the relay rate that is
    outside [0, MAX_LAMBDA] or set on a kind without a relay rate, and a
    ``max_iters`` below 1 (which would return the support point)."""
    if kind not in KINDS:
        raise CoordinationError(f"unknown kind {kind!r}")
    if not 0 <= lam <= MAX_LAMBDA or (lam > 0 and kind != "cascade"):
        raise CoordinationError(f"lambda must be in [0, {MAX_LAMBDA:g}] and "
                                f"0 unless the kind is cascade, not {lam!r}")
    if max_iters < 1:
        raise CoordinationError(
            f"max_iters must be at least 1, not {max_iters}")


def _isolated_relay(target: CqEnsemble, atoms: AtomCandidateSet):
    """Isolated node under the independent-Z restriction p(x,y,z)=p(x,y)p(z).

    Requires the target C conditionals to coincide across source symbols
    and each rest part to factor as B x C; the admissible Z then carries
    no information and the objective reduces to I(X;Y) over the B
    conditionals.  Returns (B conditionals, common Z pmf, its residual),
    or ``_Infeasible``.
    """
    nx = target.x_alphabet.size
    conds_b = [target.conditional_part(i, "B") for i in range(nx)]
    conds_c = [target.conditional_part(i, "C") for i in range(nx)]
    base_c = conds_c[0]
    dev_c = max(trace_norm_distance(c.matrix, base_c.matrix) for c in conds_c)
    prod_dev = max(
        trace_norm_distance(np.kron(conds_b[i].matrix, conds_c[i].matrix),
                            target.rest_part(i).matrix)
        for i in range(nx))
    if dev_c > FEAS_TOL or prod_dev > FEAS_TOL:
        return _Infeasible(
            max(dev_c, prod_dev),
            "target is outside the independent-Z restriction "
            "(C conditionals vary with x or rest does not factor B x C)")
    pz, resid_c = _feasible_point(*_feasibility_system(
        [c.matrix for c in atoms.atoms_c], base_c.matrix))
    if resid_c > FEAS_TOL:
        return _Infeasible(resid_c, "C atom set infeasible for the common "
                                    f"C conditional (residual {resid_c:.3e})")
    return conds_b, pz, resid_c


def _prepare(target: CqEnsemble, atoms: AtomCandidateSet, kind: str):
    """The ``_Face`` of one atom set, or ``_Infeasible``; no ``lam`` needed.

    A two-node solve is the cascade solve with a trivial relay (one Z
    symbol, C atom ``[[1]]``), and so is an isolated solve, on the B
    conditionals.  A residual above ``FEAS_TOL`` makes the atom set
    infeasible.  A target that does not factor is certified empty.
    """
    if not target.factorizes():
        return _Infeasible(
            certified_empty=True,
            message="a target state does not factor into A x rest; "
                    "no admissible extension exists")
    regs = "A,B" if kind == "two-node" else "A,B,C"
    if ",".join(target.registers) != regs:
        raise CoordinationError(f"{kind} kind needs an {regs} target")
    if kind != "two-node" and atoms.atoms_c is None:
        raise CoordinationError(f"{kind} optimization needs C atoms")
    rests = [target.rest_part(i) for i in range(target.x_alphabet.size)]
    pz, pz_residual = None, 0.0
    if kind == "isolated":
        relay = _isolated_relay(target, atoms)
        if isinstance(relay, _Infeasible):
            return relay
        rests, pz, pz_residual = relay
    atoms_c = atoms.atoms_c if kind == "cascade" else (_TRIVIAL_C,)
    bc = kron_table(atoms.atoms_b, atoms_c)
    label_mats = list(bc.reshape(-1, *bc.shape[2:]))
    systems = [_feasibility_system(label_mats, r.matrix) for r in rests]
    max_resid = max(_feasible_point(a, b)[1] for a, b in systems)
    if max_resid > FEAS_TOL:
        return _Infeasible(max_resid, "atom set infeasible for this target "
                                      f"(max residual {max_resid:.3e})")
    return _Face(target.source.table, systems, len(atoms_c), pz, pz_residual)


def minimize_conditional(target: CqEnsemble, atoms: AtomCandidateSet,
                         kind: str = "two-node", lam: float = 0.0,
                         max_iters: int = MAX_ITERS, *,
                         face=None) -> OptimizerResult:
    """Minimize the rate objective over conditionals for a fixed atom set.

    Deterministic given inputs.  Infeasibility of the atom set (some
    conditional state outside the convex hull of the atoms) is reported,
    not raised: it signals that this candidate set cannot represent the
    target, not that coordination is impossible.  A feasible result
    carries its Frank-Wolfe ``gap``; ``message`` says when ``max_iters``
    ran out before the gap reached ``OBJ_TOL``.  ``face`` is this atom
    set's ``_prepare(target, atoms, kind)``, which does not depend on
    ``lam``; it is built when not given.
    """
    _check_args(kind, lam, max_iters)
    if face is None:
        face = _prepare(target, atoms, kind)
    if isinstance(face, _Infeasible):
        return OptimizerResult(feasible=False, atoms=atoms, **asdict(face))
    p, trace, gap = _RateProgram(face, lam).solve(max_iters)
    nx = target.x_alphabet.size
    table = np.zeros((nx, face.systems[0][0].shape[1]))
    table[face.xs, face.labels] = p
    resid = max([float(np.linalg.norm(a @ table[i] - b))
                 for i, (a, b) in enumerate(face.systems)]
                + [face.pz_residual])
    cube = (table.reshape(nx, -1, face.nz) if face.pz is None
            else np.einsum("xy,z->xyz", table, face.pz))
    return _result(target, atoms, kind, lam, cube, trace, resid, gap)


def _result(target, atoms, kind, lam, cube, trace, resid, gap):
    """Validate and value the extension of the conditional cube p(y, z|x).

    Every result that carries an extension is built here; a two-node
    extension drops the trivial relay's size-1 Z axis.
    """
    nx = target.x_alphabet.size
    joint = target.source.table[:, None, None] * cube
    labels = [target.x_alphabet] + [
        Alphabet(v, [f"{v.lower()}{i}" for i in range(size)])
        for v, size in zip("YZ", cube.shape[1:])]
    if kind == "two-node":
        joint, labels = joint[:, :, 0], labels[:2]
    ext = Extension(JointPmf(labels, joint),
                    [target.a_part(i) for i in range(nx)], atoms.atoms_b,
                    None if kind == "two-node" else atoms.atoms_c, kind=kind)
    fields = dict(conditional=cube.reshape(nx, -1), iterations=len(trace),
                  objective_trace=trace, max_residual=resid, atoms=atoms,
                  gap=gap)
    report = validate_extension(ext, target, tol=RESULT_VALIDATION_TOL)
    if not report.passed:
        return OptimizerResult(
            feasible=False,
            message="solution failed validation:\n" + str(report), **fields)
    rate_point = cascade_rate_point(ext) if kind == "cascade" else None
    value = float(rate_point.r12 + lam * rate_point.r23 if rate_point
                  else two_node_rate(ext) if kind == "two-node"
                  else isolated_rate(ext))
    return OptimizerResult(
        feasible=True, value=value, extension=ext, rate_point=rate_point,
        lower_bound=value - gap, **fields,
        message="" if gap <= OBJ_TOL else (
            f"stopped after {len(trace)} iterations with Frank-Wolfe gap "
            f"{gap:.3e} bits above the tolerance {OBJ_TOL:g}"))


def optimize_lambdas(target: CqEnsemble, lams, kind: str = "two-node",
                     max_merge_order: int = 3,
                     max_iters: int = MAX_ITERS) -> list:
    """``optimize`` at each weight in ``lams``, one result per weight.

    Every weight is checked, with ``max_iters``, before any solve.  Atoms
    are proposed once, at ``max_merge_order``, and their face is prepared
    once; a weight then costs only its barrier path, gap LP and validation.
    """
    for lam in lams:
        _check_args(kind, lam, max_iters)
    if max_merge_order < 1:
        raise CoordinationError(
            f"max_merge_order must be at least 1, not {max_merge_order}")
    atoms = propose_atoms(target, max_merge_order)
    face = _prepare(target, atoms, kind)
    return [minimize_conditional(target, atoms, kind, lam, max_iters,
                                 face=face) for lam in lams]


def optimize(target: CqEnsemble, kind: str = "two-node",
             max_merge_order: int = 3, lam: float = 0.0,
             max_iters: int = MAX_ITERS) -> OptimizerResult:
    """Full pipeline: propose atoms up to ``max_merge_order``, minimize once.

    The pools nest (order k adds only the order-k merges to order k - 1's
    atoms), so the one solve on the pool at ``max_merge_order``, certified
    by its Frank-Wolfe ``gap``, is at most every lower order's minimum; no
    lower order needs a solve of its own.  An infeasible result carries
    the residual evidence, and flags a target that admits no extension as
    ``certified_empty``.  This is ``optimize_lambdas`` at one weight.
    """
    return optimize_lambdas(target, [lam], kind, max_merge_order,
                            max_iters)[0]

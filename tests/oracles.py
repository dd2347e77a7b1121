"""Independent oracles for the test suite.

Everything here recomputes expected values from first principles (closed
forms, exhaustive enumeration, brute-force grids) without calling the
code paths under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def entropy_bits(probs) -> float:
    total = 0.0
    for p in np.asarray(probs, dtype=float).ravel():
        if p > 0:
            total -= p * math.log2(p)
    return total


def mutual_information_table(p_xy: np.ndarray) -> float:
    p_xy = np.asarray(p_xy, dtype=float)
    return (entropy_bits(p_xy.sum(axis=1)) + entropy_bits(p_xy.sum(axis=0))
            - entropy_bits(p_xy))


def trace_distance_raw(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * np.abs(np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))).sum()


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_pmf(rng: np.random.Generator, shape) -> np.ndarray:
    t = rng.random(shape) + 1e-3
    return t / t.sum()


# ----------------------------------------------------------------------
# brute-force grid minimization of I(X;Y) over feasible conditionals
# ----------------------------------------------------------------------

def _hermitian_vec(m: np.ndarray) -> np.ndarray:
    d = m.shape[0]
    iu = np.triu_indices(d, k=1)
    return np.concatenate([np.real(np.diag(m)),
                           np.sqrt(2) * np.real(m[iu]),
                           np.sqrt(2) * np.imag(m[iu])])


def feasible_row_grid(atom_mats, eta, resolution=1e-3, slack=1e-7):
    """Exactly feasible grid points of {p >= 0, sum p sigma_y = eta}.

    Parametrizes the affine solution set by its null-space basis and grids
    the free coordinates at the requested resolution.
    """
    a = np.array([_hermitian_vec(m) for m in atom_mats]).T
    a = np.vstack([a, np.ones((1, len(atom_mats)))])
    b = np.concatenate([_hermitian_vec(np.asarray(eta)), [1.0]])
    sol, residual, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if np.linalg.norm(a @ sol - b) > 1e-7:
        return np.zeros((0, len(atom_mats)))
    u, s, vt = np.linalg.svd(a)
    null = vt[(s > 1e-10).sum():].T  # columns span the null space
    if null.shape[1] == 0:
        p = sol
        if np.all(p >= -slack):
            return np.clip(p, 0, None)[None, :]
        return np.zeros((0, len(atom_mats)))
    # bounding box of the polytope in null coordinates via vertex scan
    lo = np.full(null.shape[1], -1.5)
    hi = np.full(null.shape[1], 1.5)
    axes = [np.arange(lo[i], hi[i] + resolution / 2, resolution)
            for i in range(null.shape[1])]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    pts = sol[None, :] + mesh.reshape(-1, null.shape[1]) @ null.T
    keep = np.all(pts >= -slack, axis=1)
    pts = np.clip(pts[keep], 0, None)
    return pts


def grid_min_mutual_information(px, atom_mats, etas, resolution=1e-3,
                                cap=3_000_000):
    """Brute-force min of I(X;Y) over per-x feasible conditional grids."""
    px = np.asarray(px, dtype=float)
    grids = [feasible_row_grid(atom_mats, eta, resolution) for eta in etas]
    if any(g.shape[0] == 0 for g in grids):
        return None
    total = int(np.prod([g.shape[0] for g in grids]))
    while total > cap:
        resolution *= 2
        grids = [feasible_row_grid(atom_mats, eta, resolution)
                 for eta in etas]
        total = int(np.prod([g.shape[0] for g in grids]))
    best = np.inf
    h_rows = [np.array([entropy_bits(p) for p in g]) for g in grids]
    for combo in itertools.product(*[range(g.shape[0]) for g in grids]):
        table = np.stack([grids[i][j] for i, j in enumerate(combo)])
        q = px @ table
        val = entropy_bits(q) - sum(px[i] * h_rows[i][j]
                                    for i, j in enumerate(combo))
        if val < best:
            best = val
    return best


# ----------------------------------------------------------------------
# exhaustive protocol enumeration (tiny n)
# ----------------------------------------------------------------------

def _tv(a, b) -> float:
    return 0.5 * float(np.abs(np.asarray(a, dtype=float)
                              - np.asarray(b, dtype=float)).sum())


def reference_type_distance(ctx, rows, target) -> np.ndarray:
    """(S, R) TV between the joint type of each (ctx[s], rows[r]) and
    ``target`` (C, U), by numpy's own ``sum`` over each pair's C-ordered
    (C, U) block of |k/n - p|: ``protocol._type_distance`` must match it
    bit for bit."""
    (num_s, n), (num_c, num_u) = ctx.shape, target.shape
    a = (ctx[:, None] == np.arange(num_c)[:, None]).reshape(-1, n)
    b = (rows[:, None] == np.arange(num_u)[:, None]).reshape(-1, n)
    counts = (a.astype(float) @ b.T.astype(float)).reshape(
        num_s, num_c, len(rows), num_u).transpose(0, 2, 1, 3).copy()
    counts /= n
    counts -= target
    return 0.5 * np.abs(counts, out=counts).sum(axis=(2, 3))


def joint_type(x_seq, u_seq, num_x, num_u) -> np.ndarray:
    t = np.zeros((num_x, num_u))
    for a, b in zip(x_seq, u_seq):
        t[a, b] += 1
    return t / len(x_seq)


def average_state(x_seq, u_seq, a_mats, b_mats) -> np.ndarray:
    n = len(x_seq)
    dim = a_mats[0].shape[0] * b_mats[0].shape[0]
    rho = np.zeros((dim, dim), dtype=complex)
    for a, b in zip(x_seq, u_seq):
        rho += np.kron(a_mats[a], b_mats[b]) / n
    return rho


def enumerate_sequences(num_symbols: int, n: int):
    return itertools.product(range(num_symbols), repeat=n)


def seq_prob(seq, probs) -> float:
    p = 1.0
    for s in seq:
        p *= probs[s]
    return p


def expected_state_fixed_codebook(codewords, bins, p_joint, n, delta,
                                  a_mats, b_mats):
    """Exact source-averaged state for one materialized codebook.

    Re-implements the scheme literally: smallest jointly typical index at
    radius 2*delta (fallback 0), bin announcement, smallest in-bin index
    with marginal type inside 8*delta (fallback 0); atypical sources send
    bin 0.  Indices are 0-based throughout.
    """
    p_joint = np.asarray(p_joint, dtype=float)
    num_x, num_u = p_joint.shape
    px = p_joint.sum(axis=1)
    pu = p_joint.sum(axis=0)
    dim = a_mats[0].shape[0] * b_mats[0].shape[0]
    expected = np.zeros((dim, dim), dtype=complex)
    l0 = codewords.shape[0]
    marg_ok = [
        _tv(joint_type([0] * n, cw, 1, num_u)[0], pu) < 8 * delta
        for cw in codewords
    ]
    for x_seq in enumerate_sequences(num_x, n):
        p_x = seq_prob(x_seq, px)
        if p_x == 0:
            continue
        x_type = np.bincount(np.array(x_seq), minlength=num_x) / n
        if _tv(x_type, px) < delta:
            ell = 0
            for j in range(l0):
                if _tv(joint_type(x_seq, codewords[j], num_x, num_u),
                       p_joint) < 2 * delta:
                    ell = j
                    break
            m = int(bins[ell])  # fallback announces codeword 0's bin
        else:
            m = 0
        ell_hat = 0
        for j in range(l0):
            if marg_ok[j] and int(bins[j]) == m:
                ell_hat = j
                break
        expected += p_x * average_state(x_seq, codewords[ell_hat],
                                        a_mats, b_mats)
    return expected


def expected_state_codebook_average(p_joint, n, delta, num_codewords,
                                    num_bins, a_mats, b_mats):
    """Exact protocol-averaged state over source, codebook and bins.

    Enumerates source sequences and codeword values directly; the codebook
    and bin randomness is integrated analytically with finite sums (the
    first-typical index is truncated-geometric, bin matches are uniform).
    """
    p_joint = np.asarray(p_joint, dtype=float)
    num_x, num_u = p_joint.shape
    px = p_joint.sum(axis=1)
    pu = p_joint.sum(axis=0)
    dim = a_mats[0].shape[0] * b_mats[0].shape[0]
    u_all = [np.array(u) for u in enumerate_sequences(num_u, n)]
    q_all = np.array([seq_prob(u, pu) for u in u_all])
    marg_d = np.array([
        _tv(joint_type([0] * n, u, 1, num_u)[0], pu) < 8 * delta
        for u in u_all
    ])
    expected = np.zeros((dim, dim), dtype=complex)
    inv_m = 1.0 / num_bins
    for x_seq in enumerate_sequences(num_x, n):
        p_x = seq_prob(x_seq, px)
        if p_x == 0:
            continue
        states = np.array([average_state(x_seq, u, a_mats, b_mats)
                           for u in u_all])
        joint_e = np.array([
            _tv(joint_type(x_seq, u, num_x, num_u), p_joint) < 2 * delta
            for u in u_all
        ])
        x_typical = _tv(np.bincount(np.array(x_seq), minlength=num_x) / n,
                        px) < delta

        def cls_state(mask):
            w = q_all[mask]
            if w.sum() <= 0:
                return None, 0.0
            return (np.tensordot(w / w.sum(), states[mask], axes=1),
                    w.sum())

        st_e, e = cls_state(joint_e)
        st_ned, p_ned = cls_state(~joint_e & marg_d)
        st_nend, p_nend = cls_state(~joint_e & ~marg_d)
        st_d, p_d = cls_state(marg_d)
        st_nd, p_nd = cls_state(~marg_d)
        def add(out, weight, state):
            if weight > 0 and state is not None:
                out += weight * state
            return out

        out = np.zeros((dim, dim), dtype=complex)
        if x_typical:
            p_ne = 1.0 - e
            pd_ne = p_ned / p_ne if p_ne > 0 else 0.0
            r = pd_ne * inv_m
            for k in range(num_codewords):
                w_k = (1 - e) ** k * e
                p_wrong = 1.0 - (1.0 - r) ** k
                out = add(out, w_k * p_wrong, st_ned)
                out = add(out, w_k * (1 - p_wrong), st_e)
            w_fb = (1 - e) ** num_codewords
            if w_fb > 0:
                out = add(out, w_fb * pd_ne, st_ned)        # index 0 decodes
                p_later = (1 - pd_ne) * (1 - (1 - r) ** (num_codewords - 1))
                out = add(out, w_fb * p_later, st_ned)
                p_none = (1 - pd_ne) * (1 - r) ** (num_codewords - 1)
                # back to index 0, now known atypical at the decoder
                base = st_nend if st_nend is not None else st_ned
                out = add(out, w_fb * p_none, base)
        else:
            r0 = p_d * inv_m
            p_hit = 1.0 - (1.0 - r0) ** num_codewords
            out = add(out, p_hit, st_d)
            p_fb = 1.0 - p_hit
            if p_fb > 0:
                pd0 = p_d * (1 - inv_m) / (1 - p_d * inv_m)
                out = add(out, p_fb * pd0, st_d)
                out = add(out, p_fb * (1 - pd0), st_nd)
        expected += p_x * out
    return expected


# ----------------------------------------------------------------------
# plain-python reference scans (no vectorization) for engine cross-checks
# ----------------------------------------------------------------------

def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The generator of a trial's source stream, spawn key (3, trial, 0),
    built by NumPy itself."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(3, trial, 0)))


def reference_encode(codewords, bins, x_seq, p_joint, radius):
    """Smallest jointly typical codeword index, double loop, 0-based."""
    p_joint = np.asarray(p_joint, dtype=float)
    num_x, num_u = p_joint.shape
    for j in range(codewords.shape[0]):
        if _tv(joint_type(x_seq, codewords[j], num_x, num_u),
               p_joint) < radius:
            return j, int(bins[j]), False
    return 0, int(bins[0]), True


def reference_decode(codewords, bins, m, p_u, radius):
    """Smallest in-bin codeword with marginal type inside radius."""
    p_u = np.asarray(p_u, dtype=float)
    for j in range(codewords.shape[0]):
        if int(bins[j]) != m:
            continue
        if _tv(joint_type([0] * codewords.shape[1], codewords[j], 1,
                          p_u.size)[0], p_u) < radius:
            return j, False
    return 0, True


def reference_pair_encode(y_cws, z_cws, x_seq, p_xyz, radius):
    """Lexicographically first jointly typical (l1, l2), triple loop."""
    p_xyz = np.asarray(p_xyz, dtype=float)
    num_x, num_y, num_z = p_xyz.shape
    n = len(x_seq)
    for l1 in range(y_cws.shape[0]):
        for l2 in range(z_cws.shape[0]):
            counts = np.zeros((num_x, num_y, num_z))
            for i in range(n):
                counts[x_seq[i], y_cws[l1][i], z_cws[l2][i]] += 1
            if _tv(counts / n, p_xyz) < radius:
                return l1, l2, False
    return 0, 0, True


def reference_context_decode(codewords, bins, m, ctx_seq, p_ctx_u, radius):
    """Smallest in-bin codeword jointly typical with the context sequence."""
    p_ctx_u = np.asarray(p_ctx_u, dtype=float)
    num_ctx, num_u = p_ctx_u.shape
    for j in range(codewords.shape[0]):
        if int(bins[j]) != m:
            continue
        if _tv(joint_type(ctx_seq, codewords[j], num_ctx, num_u),
               p_ctx_u) < radius:
            return j, False
    return 0, True


# ----------------------------------------------------------------------
# whole joint-type grid, built by broadcasting one row at a time
# ----------------------------------------------------------------------

def _row_types(n_a: int, pu: np.ndarray):
    """Count vectors of ``n_a`` over ``len(pu)`` symbols, in lexicographic
    order, and their multinomial log-probs."""
    from scipy.special import gammaln
    comps = np.array([c for c in itertools.product(range(n_a + 1),
                                                   repeat=pu.size)
                      if sum(c) == n_a], dtype=np.int64)
    logp = np.full(comps.shape[0], gammaln(n_a + 1))
    for u in range(pu.size):
        k = comps[:, u]
        logp -= gammaln(k + 1)
        if pu[u] > 0:
            logp += k * math.log(pu[u])
        else:
            logp = np.where(k == 0, logp, -np.inf)
    return comps, logp


def logsumexp_finite(values) -> float:
    """log sum exp over the finite entries (-inf if there are none)."""
    values = np.asarray(values, dtype=float)
    values = values[np.isfinite(values)]
    if values.size == 0:
        return -math.inf
    m = values.max()
    return float(m + math.log(np.exp(values - m).sum()))


def reference_grid(x_counts, p_joint, encode_radius, decode_radius):
    """Every joint type of an i.i.d. p_u codeword against source counts
    ``x_counts``, flattened with the first source row slowest.

    Returns ``(logp, mask_e, mask_d, counts)``: cell log-probs, joint
    total variation to ``p_joint`` below ``encode_radius``,
    codeword-marginal total variation to p_u below ``decode_radius``, and
    each cell's (|X|, |U|) joint counts."""
    p_joint = np.asarray(p_joint, dtype=float)
    n, pu = int(np.sum(x_counts)), p_joint.sum(axis=0)
    rows = [_row_types(int(n_a), pu) for n_a in x_counts]
    shape = tuple(c.shape[0] for c, _ in rows)
    logp, tv_joint = np.zeros(shape), np.zeros(shape)
    counts = np.zeros(shape + (len(rows), pu.size), dtype=np.int64)
    for a, (comps, lp) in enumerate(rows):
        bshape = [1] * len(shape)
        bshape[a] = comps.shape[0]
        dev = np.abs(comps / n - p_joint[a]).sum(axis=1)
        logp = logp + lp.reshape(bshape)
        tv_joint = tv_joint + dev.reshape(bshape)
        counts[..., a, :] = comps.reshape(bshape + [pu.size])
    counts = counts.reshape(-1, len(rows), pu.size)
    cols = counts.sum(axis=1)
    marg_dev = np.zeros(cols.shape[0])
    for u in range(pu.size):
        marg_dev = marg_dev + np.abs(cols[:, u] / n - pu[u])
    return (logp.ravel(), (0.5 * tv_joint < encode_radius).ravel(),
            0.5 * marg_dev < decode_radius, counts)


def reference_kron_table(*atom_lists) -> np.ndarray:
    """``t[i, j, k] = (M_i (x) M_j) (x) M_k`` cell by cell, each cell a
    left fold of ``np.kron``."""
    from functools import reduce
    mats = [[getattr(a, "matrix", a) for a in atoms] for atoms in atom_lists]
    blocks = [reduce(np.kron, cell) for cell in itertools.product(*mats)]
    return np.array(blocks).reshape(
        tuple(len(m) for m in mats) + blocks[0].shape)

"""Distribution-exact trial sampling for blocklengths beyond codebook reach.

A literal run of the binning scheme materializes 2^(ceil n R0) codewords
and scans them for joint typicality; above toy blocklengths both the
storage and the scan are astronomically out of reach.  This module
samples the *exact* outcome distribution of a trial instead, using three
facts about i.i.d. codebooks:

* per-codeword typicality events are i.i.d. Bernoulli whose success
  probabilities are exact sums of multinomial type probabilities, so the
  first-hit index is geometric;
* bin assignments are independent and uniform, so disambiguation races
  between earlier codewords are geometric too;
* conditioned on its joint type with the source sequence, a codeword is a
  uniformly random arrangement within source-symbol positions.

Per-codeword typicality probabilities are computed by enumerating the
joint-type grid (per-source-symbol count compositions); this is exact,
not an asymptotic approximation.  Bins are drawn independently per
codeword index.  The grid is feasible for small label alphabets only
(the criterion runs use binary labels); larger products raise
GridTooLarge, which the CLI reports as a resource error (exit 5).  Pick
``engine="explicit"`` or smaller alphabets or blocklengths instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import gammaln

GRID_BUDGET = 4_000_000


class GridTooLarge(ValueError):
    """Joint-type grid exceeds the enumeration budget for these alphabets."""


def _compositions(total: int, parts: int) -> np.ndarray:
    """All count vectors of length ``parts`` summing to ``total``."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    if parts == 2:
        k = np.arange(total + 1, dtype=np.int64)
        return np.stack([k, total - k], axis=1)
    rows = []
    for head in range(total + 1):
        tail = _compositions(total - head, parts - 1)
        rows.append(np.concatenate(
            [np.full((tail.shape[0], 1), head, dtype=np.int64), tail], axis=1))
    return np.concatenate(rows, axis=0)


@lru_cache(maxsize=4096)
def _row_cache(n_a: int, num_u: int, pu_key: tuple):
    pu = np.array(pu_key)
    comps = _compositions(n_a, num_u)
    logp = np.full(comps.shape[0], gammaln(n_a + 1))
    for u in range(num_u):
        k = comps[:, u]
        logp -= gammaln(k + 1)
        if pu[u] > 0:
            logp += k * math.log(pu[u])
        else:
            logp = np.where(k == 0, logp, -np.inf)
    return comps, logp


def _logsumexp(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return -math.inf
    m = finite.max()
    return float(m + math.log(np.exp(finite - m).sum()))


class TypeGrid:
    """Exact joint-type distribution of an i.i.d. codeword against x^n.

    Rows are source symbols (fixed counts ``x_counts``); the codeword
    symbols are i.i.d. ``p_u`` so per-row counts are independent
    multinomials.  Exposes typicality masks at the encode radius (joint
    total variation against ``p_joint``) and at the decode radius
    (codeword-marginal total variation against ``p_u``).
    """

    def __init__(self, x_counts, p_joint: np.ndarray,
                 encode_radius: float, decode_radius: float):
        self.x_counts = np.asarray(x_counts, dtype=np.int64)
        self.p_joint = np.asarray(p_joint, dtype=float)
        self.num_x, self.num_u = self.p_joint.shape
        self.n = int(self.x_counts.sum())
        self.p_u = self.p_joint.sum(axis=0)
        sizes = []
        for n_a in self.x_counts:
            sizes.append(math.comb(int(n_a) + self.num_u - 1, self.num_u - 1))
        total = 1
        for s in sizes:
            total *= s
        if total > GRID_BUDGET or total <= 0:
            raise GridTooLarge(
                f"type grid has {total} cells (budget {GRID_BUDGET}); "
                "use the explicit engine or reduce alphabets/blocklength")
        self.shape = tuple(sizes)
        pu_key = tuple(float(v) for v in self.p_u)
        self.rows = [_row_cache(int(n_a), self.num_u, pu_key)
                     for n_a in self.x_counts]

        logp = np.zeros(self.shape)
        tv_joint = np.zeros(self.shape)
        for a, (comps, lp) in enumerate(self.rows):
            bshape = [1] * self.num_x
            bshape[a] = comps.shape[0]
            dev = np.abs(comps / self.n - self.p_joint[a]).sum(axis=1)
            logp = logp + lp.reshape(bshape)
            tv_joint = tv_joint + dev.reshape(bshape)
        tv_joint = 0.5 * tv_joint
        marg_dev = np.zeros(self.shape)
        for u in range(self.num_u):
            m_u = np.zeros(self.shape)
            for a, (comps, _) in enumerate(self.rows):
                bshape = [1] * self.num_x
                bshape[a] = comps.shape[0]
                m_u = m_u + comps[:, u].reshape(bshape)
            marg_dev = marg_dev + np.abs(m_u / self.n - self.p_u[u])
        tv_marg = 0.5 * marg_dev

        self.logp = logp.ravel()
        self.mask_e = (tv_joint < encode_radius).ravel()
        self.mask_d = (tv_marg < decode_radius).ravel()

    def log_prob(self, mask: np.ndarray) -> float:
        return _logsumexp(self.logp[mask])

    def sample_counts(self, rng: np.random.Generator,
                      mask: np.ndarray) -> np.ndarray:
        """Draw a cell from the grid conditioned on ``mask``; returns counts."""
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            raise ValueError("cannot sample from an empty typicality class")
        lp = self.logp[idx]
        m = lp.max()
        if not np.isfinite(m):
            raise ValueError("typicality class has zero probability")
        w = np.exp(lp - m)
        c = np.cumsum(w)
        pick = idx[int(np.searchsorted(c, rng.random() * c[-1], side="right").clip(0, idx.size - 1))]
        cell = np.unravel_index(pick, self.shape)
        counts = np.zeros((self.num_x, self.num_u), dtype=np.int64)
        for a, (comps, _) in enumerate(self.rows):
            counts[a] = comps[cell[a]]
        return counts


def geometric_failures(u: float, log_p: float) -> Optional[int]:
    """Failures before the first Bernoulli(p) success, from one uniform draw.

    Returns None when the count exceeds float range (effectively infinite).
    """
    if log_p >= 0.0:
        return 0
    p = math.exp(log_p)
    if p >= 1.0:
        return 0
    u = max(u, 1e-300)
    if p > 1e-12:
        return int(math.log(u) / math.log1p(-p))
    try:
        val = -math.log(u) * math.exp(-log_p)
    except OverflowError:
        return None
    if not math.isfinite(val) or val > 1e306:
        return None
    return int(val)


def sample_iid(rng: np.random.Generator, probs: np.ndarray, n: int) -> np.ndarray:
    """n i.i.d. draws from ``probs`` as int8 symbol indices."""
    c = np.cumsum(probs)
    c[-1] = 1.0
    return np.searchsorted(c, rng.random(n), side="right").astype(np.int8)


def arrange_within_rows(rng: np.random.Generator, x_seq: np.ndarray,
                        counts: np.ndarray) -> np.ndarray:
    """A uniformly random codeword consistent with the joint counts."""
    n = x_seq.size
    u_seq = np.zeros(n, dtype=np.int8)
    for a in range(counts.shape[0]):
        positions = np.flatnonzero(x_seq == a)
        if positions.size == 0:
            continue
        perm = rng.permutation(positions)
        offset = 0
        for u in range(counts.shape[1]):
            k = int(counts[a, u])
            u_seq[perm[offset:offset + k]] = u
            offset += k
    return u_seq


@dataclass
class SampledTrial:
    """Raw outcome of one lazily sampled protocol trial."""

    x_seq: np.ndarray
    u_seq: np.ndarray
    counts: np.ndarray  # joint (|X|, |U|) counts of (x_seq, u_seq)
    x_typical: bool
    ell: int
    m12: int
    ell_hat: int
    encoder_fallback: bool
    decoder_fallback: bool


def sample_two_node_trial(rng: np.random.Generator, bin_rng,
                          p_joint: np.ndarray, n: int, delta: float,
                          num_codewords: int, num_bins: int,
                          source_mult: float = 1.0,
                          encode_mult: float = 2.0,
                          decode_mult: float = 8.0) -> SampledTrial:
    """One trial of the two-node scheme, sampled from its exact distribution.

    ``rng`` drives all continuous draws; ``bin_rng`` (a ``random.Random``)
    supplies uniform bin indices, which may exceed 2^64.  The draw order
    is fixed so that a given seed reproduces the trial bit for bit.
    """
    px = p_joint.sum(axis=1)
    x_seq = sample_iid(rng, px, n)
    x_counts = np.bincount(x_seq, minlength=p_joint.shape[0]).astype(np.int64)
    tv_x = 0.5 * np.abs(x_counts / n - px).sum()
    x_typical = bool(tv_x < source_mult * delta)

    grid = TypeGrid(x_counts, p_joint,
                    encode_radius=encode_mult * delta,
                    decode_radius=decode_mult * delta)
    not_e = ~grid.mask_e
    mask_ne_d = grid.mask_d & not_e
    mask_ne_nd = ~grid.mask_d & not_e
    log_m = math.log(num_bins)

    if x_typical:
        log_e = grid.log_prob(grid.mask_e)
        log_ne = grid.log_prob(not_e)
        log_ne_d = grid.log_prob(mask_ne_d)
        fails = geometric_failures(rng.random(), log_e)
        if fails is None or fails >= num_codewords:
            # no jointly typical codeword: send the first one
            ell = 0
            encoder_fallback = True
            m12 = bin_rng.randrange(num_bins)
            p_d_given_ne = (math.exp(log_ne_d - log_ne)
                            if math.isfinite(log_ne_d) else 0.0)
            if rng.random() < p_d_given_ne:
                ell_hat, cls, dec_fb = 0, mask_ne_d, False
            else:
                log_r = log_ne_d - log_ne - log_m
                g = geometric_failures(rng.random(), log_r)
                if g is not None and g < num_codewords - 1:
                    ell_hat, cls, dec_fb = 1 + g, mask_ne_d, False
                else:
                    cls = mask_ne_nd if mask_ne_nd.any() else not_e
                    ell_hat, dec_fb = 0, True
            return _finish(rng, x_seq, x_typical, ell, m12, ell_hat,
                           encoder_fallback, dec_fb, grid, cls)
        ell = fails
        encoder_fallback = False
        m12 = bin_rng.randrange(num_bins)
        if ell > 0 and math.isfinite(log_ne_d):
            log_r = log_ne_d - log_ne - log_m
            g = geometric_failures(rng.random(), log_r)
        else:
            g = None
        if g is not None and g < ell:
            # an earlier codeword in the same bin looked typical first
            return _finish(rng, x_seq, x_typical, ell, m12, g,
                           False, False, grid, mask_ne_d)
        return _finish(rng, x_seq, x_typical, ell, m12, ell,
                       False, False, grid, grid.mask_e)

    # atypical source sequence: arbitrary transmission on bin 0
    ell, m12 = 0, 0
    log_d = grid.log_prob(grid.mask_d)
    log_r = log_d - log_m
    g = geometric_failures(rng.random(), log_r)
    if g is not None and g < num_codewords:
        return _finish(rng, x_seq, x_typical, ell, m12, g,
                       True, False, grid, grid.mask_d)
    p_d = math.exp(log_d) if math.isfinite(log_d) else 0.0
    inv_m = 1.0 / num_bins if num_bins < 2 ** 52 else 0.0
    p_d0 = p_d * (1 - inv_m) / (1 - p_d * inv_m) if p_d * inv_m < 1 else 1.0
    not_d = ~grid.mask_d
    if rng.random() < p_d0 or not not_d.any():
        cls = grid.mask_d
    else:
        cls = not_d
    return _finish(rng, x_seq, x_typical, ell, m12, 0,
                   True, True, grid, cls)


def _finish(rng, x_seq, x_typical, ell, m12, ell_hat, enc_fb, dec_fb,
            grid, cls_mask) -> SampledTrial:
    counts = grid.sample_counts(rng, cls_mask)
    u_seq = arrange_within_rows(rng, x_seq, counts)
    return SampledTrial(
        x_seq=x_seq, u_seq=u_seq, counts=counts, x_typical=x_typical,
        ell=int(ell), m12=int(m12), ell_hat=int(ell_hat),
        encoder_fallback=bool(enc_fb), decoder_fallback=bool(dec_fb))

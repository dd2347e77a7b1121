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

A grid depends only on ``(x_counts, p_joint, encode_radius,
decode_radius)``, not on the seed, the trial or the rates, and few source
types recur across trials.  A process-wide, thread-safe LRU cache keeps
one compact ``ClassSummary`` per such key: the four class log-probs a
trial reads and the encode class's sampling table (flat cell indices and
cumulative weights, about 1k cells at n=800).  The cache holds no grids
and is bounded by ``SUMMARY_CACHE_BYTES`` (8 MiB) of summaries; a miss
builds the grid once, checks that its total log-mass is 0 within
``LOG_MASS_TOL`` and stores the summary.  A trial whose codeword falls in
the encode class touches no grid; the rarer classes (in-bin confusion,
encoder fallback, atypical source) rebuild the grid on demand.  Cached or
rebuilt, every draw sees the same floats in the same order, so a fixed
seed reproduces its trial bit for bit whatever the cache holds.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import gammaln

GRID_BUDGET = 4_000_000
SUMMARY_CACHE_BYTES = 8 * 2 ** 20
SUMMARY_OVERHEAD = 1024   # bytes charged per summary besides its table
LOG_MASS_TOL = 1e-9


class GridTooLarge(ValueError):
    """Joint-type grid exceeds the enumeration budget for these alphabets."""


class GridMassError(ArithmeticError):
    """A type grid's cell probabilities do not sum to one."""


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
    """Over the finite entries; works in place on ``values``, a copy."""
    finite = np.isfinite(values)
    if not finite.all():
        values = values[finite]
    if values.size == 0:
        return -math.inf
    m = values.max()
    values -= m
    return float(m + math.log(np.exp(values, out=values).sum()))


def _outer_sum(vectors) -> np.ndarray:
    """``out[i, j, ...] = v0[i] + v1[j] + ...``, flattened in grid order."""
    out = vectors[0] + 0
    for v in vectors[1:]:
        out = np.add.outer(out, v)
    return out.ravel()


def _class_table(logp: np.ndarray, mask: np.ndarray):
    """Flat cell indices of a class and their cumulative weights.

    Indices are int32 (a grid has at most GRID_BUDGET cells), so a class
    spanning a whole grid holds 12 bytes per cell, not 16."""
    idx = np.flatnonzero(mask).astype(np.int32)
    if idx.size == 0:
        raise ValueError("cannot sample from an empty typicality class")
    lp = logp[idx]
    m = lp.max()
    if not np.isfinite(m):
        raise ValueError("typicality class has zero probability")
    lp -= m   # in place: a class may span the whole grid
    np.exp(lp, out=lp)
    return idx, np.cumsum(lp, out=lp)


def _draw_counts(rng: np.random.Generator, table, rows, shape) -> np.ndarray:
    """Joint counts of one cell drawn from a class table (one uniform)."""
    idx, c = table
    k = np.searchsorted(c, rng.random() * c[-1], side="right")
    pick = idx[int(k.clip(0, idx.size - 1))]
    cell = np.unravel_index(pick, shape)
    counts = np.zeros((len(rows), rows[0][0].shape[1]), dtype=np.int64)
    for a, (comps, _) in enumerate(rows):
        counts[a] = comps[cell[a]]
    return counts


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
        self.n = n = int(self.x_counts.sum())
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
        comps = [c for c, _ in self.rows]

        # log-probabilities and joint deviations are sums of per-row terms
        self.logp = _outer_sum([lp for _, lp in self.rows])
        tv_joint = _outer_sum([np.abs(c / n - self.p_joint[a]).sum(axis=1)
                               for a, c in enumerate(comps)])
        tv_joint *= 0.5
        self.mask_e = tv_joint < encode_radius
        del tv_joint
        # the marginal test reads only the column sums: look each one up
        # in a table of |s/n - p_u| over s = 0..n, one symbol at a time
        small = np.int16 if n <= np.iinfo(np.int16).max else np.int32
        tv_marg = np.zeros(self.logp.size)
        for u in range(self.num_u):
            col = _outer_sum([c[:, u].astype(small) for c in comps])
            tv_marg += np.abs(np.arange(n + 1) / n - self.p_u[u])[col]
            del col
        tv_marg *= 0.5
        self.mask_d = tv_marg < decode_radius

    def log_prob(self, mask: np.ndarray) -> float:
        return _logsumexp(self.logp[mask])

    def sample_counts(self, rng: np.random.Generator,
                      mask: np.ndarray) -> np.ndarray:
        """Draw a cell from the grid conditioned on ``mask``; returns counts."""
        return _draw_counts(rng, _class_table(self.logp, mask), self.rows,
                            self.shape)

    def class_mask(self, cls: str) -> np.ndarray:
        """Mask of a named class of a trial (see ``sample_two_node_trial``).

        ``ne_nd`` falls back to ``ne`` and ``nd`` to ``d`` when empty.
        """
        if cls == "ne_d":
            return self.mask_d & ~self.mask_e
        if cls == "ne_nd":
            not_e = ~self.mask_e
            mask = ~self.mask_d & not_e
            return mask if mask.any() else not_e
        if cls == "d":
            return self.mask_d
        if cls == "nd":
            mask = ~self.mask_d
            return mask if mask.any() else self.mask_d
        raise ValueError(f"unknown typicality class {cls!r}")


@dataclass(frozen=True)
class ClassSummary:
    """What a trial reads of one grid: class log-probs and the encode
    class's sampling table, without the grid itself."""

    log_e: float      # jointly typical codeword
    log_ne: float     # not jointly typical
    log_ne_d: float   # not jointly typical, marginally typical
    log_d: float      # marginally typical
    encode_table: Optional[tuple]   # (flat indices, cumulative weights)
    rows: tuple
    shape: tuple

    @property
    def nbytes(self) -> int:
        table = self.encode_table or ()
        return SUMMARY_OVERHEAD + sum(a.nbytes for a in table)

    def sample_encode(self, rng: np.random.Generator) -> np.ndarray:
        return _draw_counts(rng, self.encode_table, self.rows, self.shape)


def _summarize(grid: TypeGrid) -> ClassSummary:
    """The summary of ``grid``, after checking its total log-mass is 0."""
    not_e = ~grid.mask_e
    log_e = grid.log_prob(grid.mask_e)
    log_ne = grid.log_prob(not_e)
    total = float(np.logaddexp(log_e, log_ne))
    if not abs(total) <= LOG_MASS_TOL:
        raise GridMassError(
            f"type grid for x counts {grid.x_counts.tolist()} has total "
            f"log-mass {total!r}, not 0 within {LOG_MASS_TOL}")
    encode_table = (_class_table(grid.logp, grid.mask_e)
                    if math.isfinite(log_e) else None)
    return ClassSummary(
        log_e=log_e, log_ne=log_ne,
        log_ne_d=grid.log_prob(grid.mask_d & not_e),
        log_d=grid.log_prob(grid.mask_d), encode_table=encode_table,
        rows=tuple(grid.rows), shape=grid.shape)


CacheInfo = namedtuple("CacheInfo", "hits misses entries nbytes budget")


class _SummaryCache:
    """Least-recently-used summaries, bounded by their total bytes."""

    def __init__(self, budget: int):
        self.budget = budget
        self._lock = threading.Lock()
        self._entries = OrderedDict()
        self._bytes = 0
        self._hits = self._misses = 0

    def get(self, key) -> Optional[ClassSummary]:
        with self._lock:
            summary = self._entries.get(key)
            if summary is None:
                self._misses += 1
            else:
                self._hits += 1
                self._entries.move_to_end(key)
            return summary

    def put(self, key, summary: ClassSummary) -> None:
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = summary
            self._bytes += summary.nbytes
            while self._bytes > self.budget and len(self._entries) > 1:
                _, old = self._entries.popitem(last=False)
                self._bytes -= old.nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = self._hits = self._misses = 0

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self._hits, self._misses, len(self._entries),
                             self._bytes, self.budget)


_SUMMARIES = _SummaryCache(SUMMARY_CACHE_BYTES)


def class_summary(x_counts, p_joint: np.ndarray, encode_radius: float,
                  decode_radius: float):
    """``(summary, grid)`` of one key: ``grid`` is the grid a miss built,
    for the trial to reuse, and ``None`` on a hit."""
    p_joint = np.asarray(p_joint, dtype=float)
    key = (tuple(int(v) for v in x_counts), p_joint.shape,
           p_joint.tobytes(), float(encode_radius), float(decode_radius))
    summary = _SUMMARIES.get(key)
    if summary is not None:
        return summary, None
    grid = TypeGrid(x_counts, p_joint, encode_radius, decode_radius)
    summary = _summarize(grid)
    _SUMMARIES.put(key, summary)
    return summary, grid


def clear_summary_cache() -> None:
    _SUMMARIES.clear()


def summary_cache_info() -> CacheInfo:
    """Hits and misses since the last clear, live entries and their bytes."""
    return _SUMMARIES.info()


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


def sample_two_node_trial(rng: np.random.Generator, bin_rng,
                          p_joint: np.ndarray, n: int, radii: tuple,
                          num_codewords: int, num_bins: int):
    """One trial of the two-node scheme, sampled from its exact distribution.

    ``radii`` is the (source, encode, decode) triple of the schedule
    that ``protocol`` builds once per run.  ``rng`` drives all continuous draws; ``bin_rng`` (a
    ``random.Random``) supplies uniform bin indices, which may exceed
    2^64.  The draw order is fixed so that a given seed reproduces the
    trial bit for bit.  Returns ``(counts, fields)``: the (|X|, |U|) joint
    counts and the Y-side trace fields keyed by their names.

    The sent codeword's joint type is drawn from one class of the grid:
    ``e`` (jointly typical, read from the cached summary), ``ne_d`` (not
    jointly but marginally typical), ``ne_nd`` (neither), ``d``
    (marginally typical) or ``nd`` (not); all but ``e`` rebuild the grid
    unless this trial's lookup just built it.
    """
    px = p_joint.sum(axis=1)
    x_seq = sample_iid(rng, px, n)
    x_counts = np.bincount(x_seq, minlength=p_joint.shape[0]).astype(np.int64)
    source_radius, *grid_radii = radii
    x_typical = bool(0.5 * np.abs(x_counts / n - px).sum() < source_radius)

    summary, grid = class_summary(x_counts, p_joint, *grid_radii)
    log_m = math.log(num_bins)

    def finish(ell, m12, ell_hat, enc_fb, dec_fb, cls):
        if cls == "e":
            counts = summary.sample_encode(rng)
        else:
            g = grid if grid is not None else TypeGrid(x_counts, p_joint,
                                                       *grid_radii)
            counts = g.sample_counts(rng, g.class_mask(cls))
        u_seq = arrange_within_rows(rng, x_seq, counts)
        return counts, dict(
            x_seq=x_seq, b_label_seq=u_seq, ell=int(ell), m12=int(m12),
            ell_hat=int(ell_hat), x_typical=x_typical,
            encoder_fallback=bool(enc_fb), decoder_fallback=bool(dec_fb))

    if x_typical:
        log_ne, log_ne_d = summary.log_ne, summary.log_ne_d
        fails = geometric_failures(rng.random(), summary.log_e)
        if fails is None or fails >= num_codewords:
            # no jointly typical codeword: send the first one
            m12 = bin_rng.randrange(num_bins)
            p_d_given_ne = (math.exp(log_ne_d - log_ne)
                            if math.isfinite(log_ne_d) else 0.0)
            if rng.random() < p_d_given_ne:
                return finish(0, m12, 0, True, False, "ne_d")
            log_r = log_ne_d - log_ne - log_m
            g = geometric_failures(rng.random(), log_r)
            if g is not None and g < num_codewords - 1:
                return finish(0, m12, 1 + g, True, False, "ne_d")
            return finish(0, m12, 0, True, True, "ne_nd")
        ell = fails
        m12 = bin_rng.randrange(num_bins)
        if ell > 0 and math.isfinite(log_ne_d):
            log_r = log_ne_d - log_ne - log_m
            g = geometric_failures(rng.random(), log_r)
        else:
            g = None
        if g is not None and g < ell:
            # an earlier codeword in the same bin looked typical first
            return finish(ell, m12, g, False, False, "ne_d")
        return finish(ell, m12, ell, False, False, "e")

    # atypical source sequence: arbitrary transmission on bin 0
    log_d = summary.log_d
    g = geometric_failures(rng.random(), log_d - log_m)
    if g is not None and g < num_codewords:
        return finish(0, 0, g, True, False, "d")
    p_d = math.exp(log_d) if math.isfinite(log_d) else 0.0
    inv_m = 1.0 / num_bins if num_bins < 2 ** 52 else 0.0
    p_d0 = p_d * (1 - inv_m) / (1 - p_d * inv_m) if p_d * inv_m < 1 else 1.0
    return finish(0, 0, 0, True, True, "d" if rng.random() < p_d0 else "nd")

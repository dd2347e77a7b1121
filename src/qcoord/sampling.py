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

No joint-type grid is built whole (see ``TypeGrid``).  ``GRID_BUDGET``
bounds the codeword types and the candidate cells that the enumeration
of the encode class holds at once; beyond it ``GridTooLarge``, a
resource error (CLI exit 5): pick ``engine="explicit"`` or smaller
alphabets or blocklengths instead.  Every table the sampler builds (the
grid of a ``(x_counts, p_joint, encode_radius, decode_radius)`` key and
the row and codeword-type tables that grids share) is an entry of one
process-wide, thread-safe LRU cache: ``clear_summary_cache()`` empties
it, ``summary_cache_info()`` reports on it.  No table that a cached grid
holds leaves before the grid, so ``SUMMARY_CACHE_BYTES`` bounds all that
the cache keeps alive.  A grid miss checks the grid's log-mass; a hit
rebuilds nothing.  Every draw sees the same floats in the same order, so
a fixed seed reproduces its trial bit for bit whatever the cache holds.
``scipy.special`` (``gammaln``) loads when the first row table is built.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, namedtuple

import numpy as np

GRID_BUDGET = 4_000_000
SUMMARY_CACHE_BYTES = 8 * 2 ** 20
SUMMARY_OVERHEAD = 1024   # bytes charged per table besides its arrays
LOG_MASS_TOL = 1e-9


class GridTooLarge(ValueError):
    """Codeword types or encode-class candidates exceed the budget."""


class GridMassError(ArithmeticError):
    """A type grid's cell probabilities do not sum to one."""


CacheInfo = namedtuple("CacheInfo", "hits misses entries nbytes budget")


def _charge(table) -> int:
    """A table's ``nbytes``; a tuple of arrays, theirs and the overhead."""
    return (SUMMARY_OVERHEAD + sum(a.nbytes for a in table)
            if isinstance(table, tuple) else table.nbytes)


class _SummaryCache:
    """Least-recently-used sampler tables, bounded by their total bytes.

    A use moves a table, then the tables its build looked up (a grid's
    rows) and theirs, to the recent end: none of those goes before the
    table does.  ``_deps`` holds each key's tables in the order of the
    walk that visits every lookup after the table that made it, each at
    its last visit.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self._lock = threading.Lock()
        self._entries, self._deps = OrderedDict(), {}
        self._building = threading.local()  # .deps: this build's lookups
        self._bytes = self._hits = self._misses = 0

    def _use(self, key) -> None:
        self._entries.move_to_end(key)
        for dep in self._deps[key]:
            self._entries.move_to_end(dep)

    def get(self, key, build):
        """The table of ``key``, built outside the lock on a miss."""
        if (outer := getattr(self._building, "deps", None)) is not None:
            outer.append(key)
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._use(key)
                return self._entries[key]
            self._misses += 1
        self._building.deps = deps = []
        try:
            table = build()
        finally:
            self._building.deps = outer
        with self._lock:
            if key not in self._entries:    # unless another thread built it
                self._entries[key] = table
                # unless evicted while building, these stay while it does
                walk = [k for d in dict.fromkeys(deps) if d in self._entries
                        for k in (d, *self._deps[d])]
                self._deps[key] = list(reversed(dict.fromkeys(reversed(walk))))
                self._bytes += _charge(table)
            table = self._entries[key]
            self._use(key)
            while self._bytes > self.budget and len(self._entries) > 1:
                old, evicted = self._entries.popitem(last=False)
                del self._deps[old]
                self._bytes -= _charge(evicted)
            return table

    def clear(self) -> None:
        """Drop every table and zero the counts."""
        with self._lock:
            self._entries, self._deps = OrderedDict(), {}
            self._bytes = self._hits = self._misses = 0

    def info(self) -> CacheInfo:
        """Hits and misses since the last clear, live tables and bytes."""
        with self._lock:
            return CacheInfo(self._hits, self._misses, len(self._entries),
                             self._bytes, self.budget)


_SUMMARIES = _SummaryCache(SUMMARY_CACHE_BYTES)
clear_summary_cache = _SUMMARIES.clear
summary_cache_info = _SUMMARIES.info


def _cached(build):
    """``build`` with its tables in ``_SUMMARIES``, keyed by name and args."""
    def cached(*args):
        return _SUMMARIES.get((build.__name__, *args), lambda: build(*args))
    return cached


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


@_cached
def _row_cache(n_a: int, pu_key: tuple):
    from scipy.special import gammaln
    pu = np.array(pu_key)
    comps = _compositions(n_a, pu.size)
    logp = np.full(comps.shape[0], gammaln(n_a + 1))
    for u in range(pu.size):
        k = comps[:, u]
        logp -= gammaln(k + 1)
        if pu[u] > 0:
            logp += k * math.log(pu[u])
        else:
            logp = np.where(k == 0, logp, -np.inf)
    return comps, logp


def _radix(n: int, num_u: int) -> np.ndarray:
    """Weights that key a count vector of total n: keys ascend with the
    vectors' lexicographic order."""
    return (n + 1) ** np.arange(num_u - 1, -1, -1, dtype=np.int64)


@_cached
def _row_arrays(n_a: int, n: int, pu_key: tuple, row_key: tuple):
    """Per cell of a source row of ``n_a`` symbols against the joint row
    ``row_key``: its deviation ``sum_u |k_u / n - p(a, u)|`` and its
    codeword-type key; shared, read-only, by every grid with that row."""
    comps, _ = _row_cache(n_a, pu_key)
    dev = np.abs(comps / n - np.array(row_key)).sum(axis=1)
    keys = comps @ _radix(n, len(pu_key))
    for a in (dev, keys):
        a.setflags(write=False)
    return dev, keys


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


def _check_mass(log_mass: float, what: str) -> None:
    if not abs(log_mass) <= LOG_MASS_TOL:
        raise GridMassError(f"type grid for {what} has total log-mass "
                            f"{log_mass!r}, not 0 within {LOG_MASS_TOL}")


def _budget(count: int, what: str) -> None:
    if count > GRID_BUDGET:
        raise GridTooLarge(
            f"type grid needs {count} {what} (budget {GRID_BUDGET}); use "
            "the explicit engine or reduce alphabets/blocklength")


def _class_table(idx: np.ndarray, lp: np.ndarray):
    """Entries of a class of positive mass (cells or types) and their
    cumulative weights, from their log-probs ``lp``, a copy."""
    lp -= lp.max()
    np.exp(lp, out=lp)
    return idx, np.cumsum(lp, out=lp)


def _pick(rng: np.random.Generator, table):
    """One entry of a class table, from one uniform."""
    idx, c = table
    return idx[min(int(c.searchsorted(rng.random() * c[-1], "right")),
                   idx.size - 1)]


class _CodewordTypes:
    """Types of an i.i.d. ``p_u`` codeword of length n; classes d and nd."""

    def __init__(self, n: int, pu_key: tuple, decode_radius: float):
        num_u = len(pu_key)
        _budget(math.comb(n + num_u - 1, num_u - 1), "codeword types")
        self.types, self.logp = _row_cache(n, pu_key)
        # types ascend in lexicographic order, and so do their keys; the
        # marginal total variation is half the row table's deviation
        self.radix = _radix(n, num_u)
        dev, self.keys = _row_arrays(n, n, pu_key, pu_key)
        self.mask_d = mask = 0.5 * dev < decode_radius
        self.log_d = _logsumexp(self.logp[mask])
        self.log_nd = _logsumexp(self.logp[~mask])
        _check_mass(float(np.logaddexp(self.log_d, self.log_nd)),
                    f"codeword types of length {n}")
        self.d, self.nd = (
            _class_table(np.flatnonzero(m), self.logp[m])
            if math.isfinite(log) else None
            for m, log in ((mask, self.log_d), (~mask, self.log_nd)))
        # types, logp and keys are the row tables', charged there
        self.nbytes = _charge((self.radix, mask,
                               *(self.d or ()), *(self.nd or ())))


class TypeGrid:
    """Exact joint-type law of an i.i.d. codeword against x^n, by class.

    Rows are source symbols (counts ``x_counts``); codeword symbols are
    i.i.d. ``p_u``, so per-row counts are independent multinomials.
    Classes: e (joint total variation to ``p_joint`` below the encode
    radius), d (marginal total variation to ``p_u`` below the decode
    radius), ne and nd.  Only e has cells (``logp`` and the encode table,
    in grid order); every other class is drawn by the codeword's type,
    from a table shared by every key of one ``(n, p_u, decode_radius)``.
    The radii put e inside d (checked on e's cells).
    """

    def __init__(self, x_counts, p_joint: np.ndarray,
                 encode_radius: float, decode_radius: float):
        self.x_counts = np.asarray(x_counts, dtype=np.int64)
        self.p_joint = np.asarray(p_joint, dtype=float)
        n = int(self.x_counts.sum())
        self.encode_radius = encode_radius
        pu_key = tuple(float(v) for v in self.p_joint.sum(axis=0))
        self.types = types = _cached(_CodewordTypes)(n, pu_key, decode_radius)
        self.rows = [_row_cache(n_a, pu_key) for n_a in self.x_counts.tolist()]
        self.shape = tuple(c.shape[0] for c, _ in self.rows)
        self.dev, self.keys = zip(*(
            _row_arrays(n_a, n, pu_key, tuple(float(v) for v in row))
            for n_a, row in zip(self.x_counts.tolist(), self.p_joint)))

        # e row by row, in the float operations and flat order of a whole
        # grid: a row adds a non-negative deviation, so a prefix at the
        # radius is dropped, its mass times the other rows' going to ne
        row_mass = [_logsumexp(lp.copy()) for _, lp in self.rows]
        idx, dev, logp = np.zeros(1, np.int64), np.zeros(1), np.zeros(1)
        dropped = []
        for a, (comps, lp) in enumerate(self.rows):
            size = comps.shape[0]
            _budget(idx.size * size, "encode-class candidates")
            idx = (idx[:, None] * size + np.arange(size)).ravel()
            dev = np.add.outer(dev, self.dev[a]).ravel()
            logp = np.add.outer(logp, lp).ravel()
            keep = 0.5 * dev < encode_radius
            dropped.append(_logsumexp(logp[~keep]) + sum(row_mass[a + 1:]))
            idx, dev, logp = idx[keep], dev[keep], logp[keep]
        self.logp = logp
        self.log_e = _logsumexp(logp.copy())
        self.log_ne = _logsumexp(np.array(dropped))
        _check_mass(float(np.logaddexp(self.log_e, self.log_ne)),
                    f"x counts {self.x_counts.tolist()}")
        self.log_d, self.log_nd = types.log_d, types.log_nd
        idx = idx.astype(np.int32 if math.prod(self.shape) < 2 ** 31
                         else np.int64)
        self.encode_table = (_class_table(idx, logp.copy())
                             if math.isfinite(self.log_e) else None)

        cells = [comps[i] for (comps, _), i in
                 zip(self.rows, np.unravel_index(idx, self.shape))]
        t = np.searchsorted(types.keys, sum(cells, 0) @ types.radix)
        if not types.mask_d[t].all():
            raise ValueError("encode class not inside the decode class")
        # the rows' arrays are their own entries; e's are the key's
        self.nbytes = _charge((logp, *(self.encode_table or ())))
        spare = types.mask_d.copy()     # decodable types e leaves whole
        spare[t] = False
        if spare.any():
            # P(ne_d) = P(d) - P(e) = P(ne) - P(nd): the smaller minuend
            # cancels less, and the spare types bound it below
            big, small = ((self.log_d, self.log_e)
                          if self.log_d <= self.log_ne
                          else (self.log_ne, self.log_nd))
            diff = (big + math.log1p(-math.exp(small - big)) if small < big
                    else -math.inf)
            self.log_ne_d = max(diff, _logsumexp(types.logp[spare]))
        else:
            self.log_ne_d = self._exact_log_ne_d(cells, t)

    def _exact_log_ne_d(self, cells: list, t: np.ndarray) -> float:
        """P(ne_d) when e touches every decodable type, from exact counts:
        n!/prod s_u! codewords of type s, prod_a n_a!/prod k_au! of a cell."""
        def words(counts):
            return (math.factorial(sum(counts))
                    // math.prod(map(math.factorial, counts)))

        types = self.types
        whole = {s: words(types.types[s].tolist()) for s in set(t.tolist())}
        left = dict(whole)
        for j, s in enumerate(t.tolist()):
            left[s] -= math.prod(words(c[j].tolist()) for c in cells)
        return _logsumexp(np.array([types.logp[s] + math.log(k / whole[s])
                                    for s, k in left.items() if k > 0]))

    def log_prob(self, cls: str) -> float:
        """Log-probability of class ``e``, ``ne``, ``ne_d``, ``d`` or ``nd``."""
        return getattr(self, "log_" + cls)

    def sample_counts(self, rng: np.random.Generator, cls: str) -> np.ndarray:
        """Joint counts of a codeword of class ``cls``; ``ne_nd`` is nd, and
        it falls back to ne, and ``nd`` to ``d``, when nd is empty."""
        if cls == "e":
            cell = np.unravel_index(_pick(rng, self.encode_table), self.shape)
            return np.array([c[i] for (c, _), i in zip(self.rows, cell)])
        types = self.types
        table = types.nd if cls in ("nd", "ne_nd") and types.nd else types.d
        reject = cls in ("ne_d", "ne_nd") and table is types.d
        while True:
            # given its type, a cell is multivariate hypergeometric: every
            # source row but the last takes its symbols one after another
            s, counts = types.types[_pick(rng, table)].tolist(), []
            for m in self.x_counts[:-1].tolist():
                row = []
                for u in range(len(s) - 1):
                    row.append(rng.hypergeometric(s[u], sum(s[u + 1:]), m))
                    m -= row[-1]
                counts.append(row + [m])
                s = [k - r for k, r in zip(s, counts[-1])]
            counts = np.array(counts + [s], dtype=np.int64)
            if not reject:
                return counts
            dev = 0.0      # the enumeration's encode test
            for a, key in enumerate((counts @ types.radix).tolist()):
                dev = dev + self.dev[a][self.keys[a].searchsorted(key)]
            if not 0.5 * dev < self.encode_radius:
                return counts


def class_summary(x_counts, p_joint: np.ndarray, encode_radius: float,
                  decode_radius: float) -> TypeGrid:
    """The cached ``TypeGrid`` of one key, built on a miss."""
    p_joint = np.asarray(p_joint, dtype=float)
    key = ("TypeGrid", tuple(int(v) for v in x_counts), p_joint.shape,
           p_joint.tobytes(), float(encode_radius), float(decode_radius))
    return _SUMMARIES.get(key, lambda: TypeGrid(x_counts, p_joint,
                                                encode_radius, decode_radius))


def geometric_failures(u: float, log_p: float) -> int | None:
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


def symbols(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The int8 symbol indices of ``probs`` that uniforms ``u`` in [0, 1)
    select: the number of cumulative sums at or below each uniform, the
    last sum counted as 1 (``searchsorted(..., side="right")``)."""
    out = np.zeros(np.shape(u), dtype=np.int8)
    for edge in np.cumsum(probs)[:-1]:
        out += u >= edge
    return out


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


_DRAW_LOCK = threading.Lock()


class Arrangement:
    """``arrange_within_rows(rng, x_seq, counts)``, drawn on the first read
    of ``value`` and then kept read-only.  It is the last draw of a trial,
    so nothing else draws from ``rng`` and the draw is the one an eager
    call makes; the generator goes once it is drawn."""

    def __init__(self, rng: np.random.Generator, x_seq: np.ndarray,
                 counts: np.ndarray):
        self._args = (rng, x_seq, counts)

    @property
    def value(self) -> np.ndarray:
        with _DRAW_LOCK:    # reads that race still draw once
            if self._args is not None:
                self._value = arrange_within_rows(*self._args)
                self._value.setflags(write=False)
                self._args = None
        return self._value


def sample_two_node_trial(rng: np.random.Generator, x_counts: list,
                          x_typical: bool, p_joint: np.ndarray, radii: tuple,
                          num_codewords: int, num_bins: int):
    """One trial of the two-node scheme, sampled from its exact distribution.

    ``protocol`` draws the source x^n from the first n uniforms of ``rng``
    and counts (``x_counts``) and tests (``x_typical``) it, for a chunk of
    trials at once.  ``radii`` is the schedule's (encode, decode) pair.
    ``rng`` makes every later draw in a fixed order, so a seed reproduces
    the trial bit for bit; none depends on the sent bin index, which
    ``protocol`` draws.  Returns the (|X|, |U|) joint counts, ``ell``,
    ``ell_hat``, ``encoder_fallback`` and ``decoder_fallback``.  The sent
    codeword's joint type is drawn from one class of the cached
    ``TypeGrid``: ``e``, ``ne_d``, ``ne_nd``, ``d`` or ``nd``.  Its
    arrangement, ``b_label_seq``, is the trial's last draw,
    ``arrange_within_rows(rng, x_seq, counts)``, deferred to its first
    read by an ``Arrangement``.
    """
    grid = class_summary(x_counts, p_joint, *radii)
    log_m = math.log(num_bins)

    def finish(ell, ell_hat, enc_fb, dec_fb, cls):
        return (grid.sample_counts(rng, cls), int(ell), int(ell_hat),
                bool(enc_fb), bool(dec_fb))

    if x_typical:
        log_ne, log_ne_d = grid.log_ne, grid.log_ne_d
        fails = geometric_failures(rng.random(), grid.log_e)
        if fails is None or fails >= num_codewords:
            # no jointly typical codeword: send the first one
            p_d_given_ne = (math.exp(log_ne_d - log_ne)
                            if math.isfinite(log_ne_d) else 0.0)
            if rng.random() < p_d_given_ne:
                return finish(0, 0, True, False, "ne_d")
            log_r = log_ne_d - log_ne - log_m
            g = geometric_failures(rng.random(), log_r)
            if g is not None and g < num_codewords - 1:
                return finish(0, 1 + g, True, False, "ne_d")
            return finish(0, 0, True, True, "ne_nd")
        ell = fails
        if ell > 0 and math.isfinite(log_ne_d):
            log_r = log_ne_d - log_ne - log_m
            g = geometric_failures(rng.random(), log_r)
        else:
            g = None
        if g is not None and g < ell:
            # an earlier codeword in the same bin looked typical first
            return finish(ell, g, False, False, "ne_d")
        return finish(ell, ell, False, False, "e")

    # atypical source sequence: arbitrary transmission on bin 0
    log_d = grid.log_d
    g = geometric_failures(rng.random(), log_d - log_m)
    if g is not None and g < num_codewords:
        return finish(0, g, True, False, "d")
    p_d = math.exp(log_d) if math.isfinite(log_d) else 0.0
    inv_m = 1.0 / num_bins if num_bins < 2 ** 52 else 0.0
    p_d0 = p_d * (1 - inv_m) / (1 - p_d * inv_m) if p_d * inv_m < 1 else 1.0
    return finish(0, 0, True, True, "d" if rng.random() < p_d0 else "nd")

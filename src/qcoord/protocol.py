"""Finite-blocklength simulation of the random-binning coordination scheme.

Every run is simulated as a cascade: Alice describes a label pair (Y, Z),
Bob recovers the relay label Z and then his own label Y, and forwards the
relay bin index to Charlie, who recovers Z by the same rule.  The two-node
network is the cascade with a trivial relay: a single Z symbol, a
1-dimensional C register and a relay codebook of one codeword in one bin
(see ``Extension.as_cascade``).  ``simulate_two_node`` and
``simulate_cascade`` are thin wrappers around one core.

Two interchangeable engines produce statistically identical trials:

* ``explicit`` — materializes the codebooks (i.i.d. codewords, one uniform
  bin index per codeword) and runs the literal typicality scans.  Capped:
  ``2^ceil(n*R0) * n`` stored symbols must stay below ``MEMORY_CAP``.  A
  chunk of trials shares every scan (exact 0/1 matrix-product joint
  types) and one stacked finish; chunks and codeword blocks are sized by
  ``CHUNK_CELLS``, on which the traces do not depend.
* ``sampled`` — draws each trial from the exact outcome distribution of
  the scheme (see ``sampling``); this is what makes achievable-rate
  blocklengths (where the codebook is astronomically large) tractable.
  A fresh codebook is implicitly drawn per trial, which matches the
  shared-randomness average the derandomization argument operates on.
  It supports the trivial relay (single Z symbol) only.  A trace
  arranges its codeword, ``b_label_seq``, when it is first read.

Every draw comes from a ``SeedSequence`` stream of the seed and a key,
bit for bit what ``default_rng`` draws: codebooks draw from keys
(1, role) and (2, role) and ``derandomize``'s seeds from (7, s), each
through NumPy's own ``SeedSequence``, and trial t from (3, t, ...).  Only
trial chunks use the hand-written hash: the core hashes a chunk's trial
words in one pass (``_trial_words``) and draws and tests its sources,
for both engines: trial t's source is n uniforms of key (3, t, 0), from
one PCG64 pass per explicit chunk (``_pcg64_raw``) or from the sampled
trial's generator.
A sampled bin index m12 (m23) of k bits is the first ceil(k/64) PCG64
outputs of key (3, t, 1) ((3, t, 3)), read little-endian and cut to k bits.

Both engines run one serial loop: a chunk of trials is drawn, then
finished (``_finish``) into the same columns of one ``SimulationTraces``,
and then the next chunk is drawn; a trace is built only when it is read.

The core builds one ``ToleranceSchedule`` per run from the ``delta``,
``multipliers`` and ``gamma_coeff`` keywords.  Its radius triple is
(source, encode, decode), by default (delta, 2 delta, 8 delta); the
sampled engine passes the last two to ``sampling.sample_two_node_trial``
as ``radii``.  The
encoder picks the lexicographically smallest jointly typical codeword
index pair at the encode radius, falling back to (0, 0); each decoder
picks the smallest in-bin index typical at the decode radius, falling
back to 0.  An atypical source triggers an arbitrary transmission, fixed
to bin 0 on both engines for reproducibility.  Indices are 0-based.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .classical import (Alphabet, JointPmf, ToleranceSchedule, alpha_n,
                        mutual_information)
from .coordination import CoordinationError, CqEnsemble, Extension, mixture
from .quantum import (DensityOperator, trace_norm_distance,
                      trusted_density, validated_states)
from . import sampling

MEMORY_CAP = 2 ** 30
# bits of a codeword or bin index; each sampled trial draws such an integer
MAX_INDEX_BITS = 2 ** 16
EXPLICIT_AUTO_BUDGET = 2 ** 22
# float64 cells one block of the explicit engine may hold: a scan block's
# joint-type counts, or a trial chunk's source draws and stacked states
CHUNK_CELLS = 2 ** 16
_KEY_CODEBOOK, _KEY_BINS, _KEY_TRIAL, _KEY_SEEDS = 1, 2, 3, 7


class MemoryCapError(ValueError):
    """A codebook, or one of its indices, would exceed its memory cap."""


class ProtocolError(ValueError):
    """Invalid simulation parameters."""


def _ceil_rate(n: int, rate: float) -> int:
    if not (rate >= 0 and math.isfinite(n * rate)):
        raise ProtocolError(f"rates must be nonnegative and finite at "
                            f"n={n}, not {rate!r}")
    return max(0, math.ceil(n * rate - 1e-9))


# NumPy's SeedSequence, which NEP 19 keeps stable: its entropy words are
# hashed into a pool of 4 uint32 words, and the pool into the output words
_POOL, _M32 = 4, 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _int_words(value: int) -> list:
    """The little-endian uint32 words SeedSequence makes of an int."""
    words = [value & _M32]
    while value >> 32:
        value >>= 32
        words.append(value & _M32)
    return words


def _u32(value):
    """A Python int wrapped to 32 bits; a uint32 array wraps by itself."""
    return value & _M32 if isinstance(value, int) else value


def _hashmix(value, const: list, mult: int):
    """SeedSequence's hash of a word.  ``const`` steps the same way whatever
    the data, so Python ints and uint32 arrays take the same path."""
    old = const[0]
    const[0] = old * mult & _M32
    value = _u32((value ^ old) * const[0])
    return value ^ value >> 16


def _mix(x, y):
    r = _u32(_u32(_MIX_L * x) - _u32(_MIX_R * y))
    return r ^ r >> 16


def _trial_words(seed: int, trials: np.ndarray) -> np.ndarray:
    """(3, T, 4) uint64: ``generate_state(4, np.uint64)`` of the
    ``SeedSequence`` of ``seed`` and ``spawn_key=(3, t, k)`` for each trial
    t < 2^32 of ``trials`` and k = 0, 1, 3, hashed in one pass."""
    entropy = _int_words(int(seed))
    entropy += [0] * (_POOL - len(entropy))
    entropy += [_KEY_TRIAL, np.asarray(trials, np.uint32),
                np.array([[0], [1], [3]], np.uint32)]
    const = [_INIT_A]
    pool = [_hashmix(word, const, _MULT_A) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst],
                                 _hashmix(pool[src], const, _MULT_A))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, const, _MULT_A))
    const = [_INIT_B]
    words = [_hashmix(pool[i % _POOL], const, _MULT_B) for i in range(8)]
    return np.stack(words, axis=-1).astype("<u4").view("<u8").astype(
        np.uint64)


class _Words(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands its bit generator precomputed words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, np.dtype(dtype)) != (self.words.size, self.words.dtype):
            raise ValueError(f"holds {self.words.size} {self.words.dtype} "
                             f"words, not {n_words} {np.dtype(dtype)}")
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    """``default_rng`` of the seed sequence whose 4 uint64 words these are."""
    return np.random.Generator(np.random.PCG64(_Words(words)))


# NumPy's PCG64 (O'Neill 2014): a 128-bit LCG with this multiplier and
# XSL-RR output; here a 128-bit value is a (high, low) pair of uint64 arrays
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M64, _M128 = 2 ** 64 - 1, 2 ** 128 - 1


def _mul_add(hi, lo, mult: int, add_hi, add_lo, out_hi, out_lo, tmp):
    """``(hi, lo) * mult + (add_hi, add_lo)`` mod 2^128 into ``out_hi`` and
    ``out_lo``, which must not overlap the inputs; ``tmp`` holds 3 scratch
    arrays of the output's shape."""
    a, b, c = tmp
    m_lo, m_hi = np.uint64(mult & _M64), np.uint64(mult >> 64)
    m0, m1 = np.uint64(mult & _M32), np.uint64(mult >> 32 & _M32)
    # the high word of lo * m_lo from 32-bit halves (lo1 lo0, m1 m0):
    # lo1 m1, the high halves of a = lo0 m1 and b = lo1 m0, and the carry
    # c out of the middle word
    np.bitwise_and(lo, _M32, out=a)
    np.right_shift(lo, 32, out=b)
    np.multiply(b, m1, out=out_hi)
    b *= m0
    np.multiply(a, m0, out=c)
    c >>= 32
    a *= m1
    c += np.bitwise_and(a, _M32, out=out_lo)
    c += np.bitwise_and(b, _M32, out=out_lo)
    for part in (a, b, c):
        part >>= 32
        out_hi += part
    out_hi += np.multiply(hi, m_lo, out=a)
    out_hi += np.multiply(lo, m_hi, out=a)
    out_hi += add_hi
    np.multiply(lo, m_lo, out=out_lo)
    out_lo += add_lo
    out_hi += np.less(out_lo, add_lo, out=a)


def _pcg64_raw(words: np.ndarray, n: int) -> np.ndarray:
    """(T, n): the first n outputs (``random_raw``) of the PCG64 of each
    row ``w`` of (T, 4) uint64 stream words, in one array pass; a
    ``random()`` draw is an output shifted right by 11 bits, times 2^-53.

    PCG64 seeds by ``srandom``: the increment is ``w[2:] << 1 | 1``, and
    the state steps from 0, adds ``w[:2]`` and steps again; each draw
    steps it once more.  The k-th state from there is ``A_k s + C_k inc``
    (Brown 1994), with A_k = M^k and C_k = 1 + M + ... + M^(k-1), so the
    states fill by doubling: rows m..2m-1 from rows 0..m-1 with A_m, C_m.
    An output is its state's XSL-RR.
    """
    w = words.T[:, None]   # (4, 1, T): seed high and low, then increment
    inc_hi = w[2] << 1 | w[3] >> 63
    inc_lo = w[3] << 1 | 1
    start_lo = inc_lo + w[1]
    start_hi = inc_hi + w[0] + (start_lo < inc_lo)
    # row 0 is the seeded state, rows 1..n those of the n draws
    hi, lo = np.empty((2, n + 1, len(words)), np.uint64)
    tmp = np.empty((3, max(1, (n + 1) // 2), len(words)), np.uint64)
    _mul_add(start_hi, start_lo, _PCG_MULT, inc_hi, inc_lo, hi[:1], lo[:1],
             tmp[:, :1])
    a_m, c_m, m = _PCG_MULT, 1, 1
    while m <= n:
        k = min(m, n + 1 - m)
        _mul_add(inc_hi, inc_lo, c_m, 0, 0, start_hi, start_lo, tmp[:, :1])
        _mul_add(hi[:k], lo[:k], a_m, start_hi, start_lo, hi[m:m + k],
                 lo[m:m + k], tmp[:, :k])
        a_m, c_m, m = a_m * a_m & _M128, c_m * (a_m + 1) & _M128, 2 * m
    del tmp   # freed before the output arrays are made
    x, rot = lo[1:], hi[1:]
    x ^= rot
    rot >>= 58
    out = x >> rot
    np.subtract(64, rot, out=rot)
    rot &= 63
    out |= np.left_shift(x, rot, out=x)
    return out.T


@dataclass(frozen=True)
class CodebookParams:
    """Block length, bin rate R, codeword rate R0, typicality delta, seed."""

    n: int
    bin_rate: float
    codeword_rate: float
    delta: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ProtocolError("block length must be >= 1")
        bits = max(_ceil_rate(self.n, self.bin_rate),
                   _ceil_rate(self.n, self.codeword_rate))
        if self.delta <= 0:
            raise ProtocolError("delta must be positive")
        if self.seed < 0:
            raise ProtocolError(f"seed must be nonnegative, not {self.seed}")
        if bits > MAX_INDEX_BITS:
            raise MemoryCapError(f"a codebook index needs {bits} bits (cap "
                                 f"{MAX_INDEX_BITS}); lower n or the rates")

    @property
    def num_codewords(self) -> int:
        return 1 << _ceil_rate(self.n, self.codeword_rate)

    @property
    def num_bins(self) -> int:
        return 1 << _ceil_rate(self.n, self.bin_rate)

    @property
    def within_memory_cap(self) -> bool:
        return self.num_codewords * self.n <= MEMORY_CAP

    @property
    def int64_bins(self) -> bool:   # as ``build_codebook`` stores them
        return self.num_bins <= 2 ** 62


@dataclass(frozen=True)
class Codebook:
    """Materialized codebook: codeword symbol rows plus per-index bins."""

    params: CodebookParams
    codewords: np.ndarray  # (L0, n) int8
    bins: np.ndarray       # (L0,) int64
    num_bins: int

    def __post_init__(self):
        if self.codewords.shape[0] != self.bins.shape[0]:
            raise ProtocolError("every codeword needs a bin")


def build_codebook(params: CodebookParams, p_u: np.ndarray,
                   role: int = 0) -> Codebook:
    """Draw codewords i.i.d. from ``p_u`` and uniform bins, reproducibly.

    The codeword stream is consumed row-major, so enlarging the codeword
    rate with the same seed extends the codebook by new rows while keeping
    existing ones (and their bins) unchanged.
    """
    p_u = np.asarray(p_u, dtype=float)
    l0 = params.num_codewords
    if not params.within_memory_cap:
        raise MemoryCapError(
            f"codebook needs {l0 * params.n} symbols (cap {MEMORY_CAP}); "
            "lower n or the codeword rate, or use the sampled engine")
    if not params.int64_bins:
        raise MemoryCapError("bin indices exceed 63 bits; lower n or R")
    cw_rng, bin_rng = (np.random.default_rng(np.random.SeedSequence(
        params.seed, spawn_key=(key, role)))
        for key in (_KEY_CODEBOOK, _KEY_BINS))
    codewords = np.empty((l0, params.n), dtype=np.int8)
    # row-chunked generation keeps peak memory bounded while preserving the
    # stream order (so a larger codebook extends a smaller one row for row)
    chunk = max(1, (1 << 22) // params.n)
    for start in range(0, l0, chunk):
        stop = min(start + chunk, l0)
        codewords[start:stop] = sampling.symbols(
            p_u, cw_rng.random((stop - start, params.n)))
    bins = bin_rng.integers(0, params.num_bins, size=l0, dtype=np.int64)
    codewords.setflags(write=False)
    bins.setflags(write=False)
    return Codebook(params, codewords, bins, params.num_bins)


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """The sum over the first axis of ``terms``, in place, in the order
    numpy's float ``sum`` takes over a contiguous run of that many terms:
    sequential below 8, eight accumulators and a pairwise tree from 8 to
    128, and above 128 two halves split at a multiple of 8."""
    m = len(terms)
    if m > 128:
        half = m // 2 - m // 2 % 8
        total = _pairwise_sum(terms[:half])
        total += _pairwise_sum(terms[half:])
        return total
    rest = 1
    if m >= 8:
        acc, rest = terms[:8], m - m % 8
        for i in range(8, rest, 8):
            acc += terms[i:i + 8]
        acc[0::2] += acc[1::2]
        acc[0::4] += acc[2::4]
        acc[0] += acc[4]
    total = terms[0]
    for term in terms[rest:]:
        total += term
    return total


def _type_distance(ctx: np.ndarray, rows: np.ndarray, target) -> np.ndarray:
    """(S, R) TV between the joint type of each (ctx[s], rows[r]) and
    ``target`` (C, U).

    The counts are exact 0/1 matrix products, one contiguous (S, R) slice
    per (c, u) cell, so a symbol outside the alphabet lands in no cell.
    Each pair's C U terms |k/n - p| are added in the order numpy's ``sum``
    takes over a C-ordered (C, U) block (``_pairwise_sum``), so a distance
    is that sum bit for bit and a tie at a radius falls the same way."""
    (num_s, n), (num_c, num_u) = ctx.shape, target.shape
    a = ctx == np.arange(num_c)[:, None, None]
    b = rows == np.arange(num_u)[:, None, None]
    counts = np.matmul(a[:, None].astype(float),
                       b.astype(float).transpose(0, 2, 1))
    counts /= n
    counts -= target[:, :, None, None]
    np.abs(counts, out=counts)
    return 0.5 * _pairwise_sum(counts.reshape(-1, num_s, len(rows)))


def _block_end(start: int, contexts: int, target, n: int) -> int:
    """End of the codeword block after ``start`` whose joint-type counts
    against ``contexts`` rows and whose own one-hot rows fit in
    ``CHUNK_CELLS``."""
    return start + max(1, CHUNK_CELLS // (contexts * target.size
                                          + n * target.shape[-1]))


def _first_rows(rows, ctx, target, radius, bins=None, wanted=None):
    """Per context row: the smallest codeword index whose joint type with
    it is within ``radius``, -1 if none; with ``bins``, among the codewords
    in bin ``wanted[s]`` only.  Codewords are scanned block by block, and a
    context leaves the scan once it has found its index."""
    first, start = np.full(len(ctx), -1), 0
    while start < len(rows) and np.any(first < 0):
        act = np.flatnonzero(first < 0)
        stop = _block_end(start, act.size, target, rows.shape[1])
        cols = np.arange(start, min(stop, len(rows)))
        ok = np.ones((act.size, cols.size), dtype=bool)
        if bins is not None:
            ok = bins[cols] == wanted[act, None]
            cols, ok = cols[ok.any(axis=0)], ok[:, ok.any(axis=0)]
        if cols.size:
            ok &= _type_distance(ctx[act], rows[cols], target) < radius
            has = ok.any(axis=1)
            first[act[has]] = cols[ok[has].argmax(axis=1)]
        start = stop
    return first


def _pair_search(y_cws, z_cws, x, p_xyz, radius):
    """Per source row of ``x``: the lexicographically first (l1, l2) with
    (x, y(l1), z(l2)) jointly typical, or (-1, -1).  Marginal TV <= joint
    TV, so each block of Y codewords gets the (x, y) marginal test once,
    and the relay scan runs round by round over each source's typical rows
    in ascending order until the source has found its pair."""
    num_x, num_y, num_z = p_xyz.shape
    p_xy, flat = p_xyz.sum(axis=2), p_xyz.reshape(num_x * num_y, num_z)
    l1, l2 = np.full((2, len(x)), -1)
    start = 0
    while start < len(y_cws) and np.any(l2 < 0):
        act = np.flatnonzero(l2 < 0)
        stop = _block_end(start, act.size, p_xy, x.shape[1])
        typical = _type_distance(x[act], y_cws[start:stop], p_xy) < radius
        while typical.any():
            has = np.flatnonzero(typical.any(axis=1))
            rows = typical[has].argmax(axis=1)
            typical[has, rows] = False
            ctx = x[act[has]].astype(np.int64) * num_y + y_cws[start + rows]
            found = _first_rows(z_cws, ctx, flat, radius)
            hit = found >= 0
            l1[act[has[hit]]] = start + rows[hit]
            l2[act[has[hit]]] = found[hit]
            typical[has[hit]] = False
        start = stop
    return l1, l2


def encode_generic(cb: Codebook, target_joint: np.ndarray, radius: float,
                   x_seq: np.ndarray):
    """Generic encoder: smallest codeword jointly typical with ``x_seq``.

    ``target_joint`` has axes (X, U).  Returns (ell, bin message, fallback
    flag); fallback sends the first codeword's bin.
    """
    t = np.asarray(target_joint, dtype=float)
    ell = int(_first_rows(cb.codewords, np.asarray(x_seq)[None], t,
                          radius)[0])
    if ell < 0:
        return 0, int(cb.bins[0]), True
    return ell, int(cb.bins[ell]), False


def decode_generic(cb: Codebook, target_joint: np.ndarray, radius: float,
                   m12: int, y_seq: Optional[np.ndarray] = None):
    """Generic decoder: smallest in-bin codeword typical with ``y_seq``.

    ``target_joint`` has axes ([Y, ]U) matching the context; with no
    context the check reduces to the codeword marginal.  Returns
    (ell_hat, fallback flag).
    """
    t = np.asarray(target_joint, dtype=float)
    if y_seq is None:
        ctx = np.zeros(cb.codewords.shape[1], dtype=np.int64)
        flat = t.reshape(1, -1)
    else:
        ctx, flat = np.asarray(y_seq), t
    ell = int(_first_rows(cb.codewords, ctx[None], flat, radius, cb.bins,
                          np.array([m12]))[0])
    if ell < 0:
        return 0, True
    return ell, False


class _Drawn:
    """The ``b_label_seq`` field, which may hold a ``sampling.Arrangement``:
    a read returns the arrangement's value."""

    def __get__(self, trace, owner=None):
        if trace is None:   # no class-level default: the field is required
            raise AttributeError("b_label_seq")
        value = trace._b_label_seq
        return (value.value if isinstance(value, sampling.Arrangement)
                else value)

    def __set__(self, trace, value):
        trace._b_label_seq = value


@dataclass
class SimulationTrace:
    """One protocol run: sequences, indices, averaged state, distances.

    Built on each read of ``SimulationTraces``: Python scalars and
    read-only arrays.  A sampled trace draws ``b_label_seq`` on its first
    read, from the trial's own generator, bit for bit as the eager draw
    did; no rate, distance or converse check reads it.
    """

    n: int
    seed: int
    trial: int
    engine: str
    x_seq: np.ndarray
    b_label_seq: np.ndarray = _Drawn()  # Bob's decoded label sequence
    ell: int
    m12: int
    ell_hat: int
    x_typical: bool
    encoder_fallback: bool
    decoder_fallback: bool
    joint_counts: np.ndarray           # label joint type counts
    avg_state: DensityOperator
    distance_to_target: float
    distance_to_tau: float
    gamma_radius: float
    gamma_typical: bool
    block_bound_ok: Optional[bool]
    rate: float
    codeword_rate: float
    # cascade-only fields
    rate23: Optional[float] = None
    c_label_seq: Optional[np.ndarray] = None
    ell2: Optional[int] = None
    m23: Optional[int] = None
    ell_hat2: Optional[int] = None
    ell_tilde2: Optional[int] = None

    def slot_states(self, atoms_a, atoms_b, atoms_c=None):
        """Per-slot prepared product states (generated on demand)."""
        out = []
        for i in range(self.n):
            m = np.kron(atoms_a[self.x_seq[i]].matrix,
                        atoms_b[self.b_label_seq[i]].matrix)
            if atoms_c is not None:
                m = np.kron(m, atoms_c[self.c_label_seq[i]].matrix)
            out.append(DensityOperator(m))
        return out


class SimulationTraces(abc.Sequence):
    """The traces of one run, kept as the columns its chunks computed.

    ``traces[i]`` builds trial i's ``SimulationTrace`` on each read (so a
    changed field writes nothing back); a slice is a list of traces.
    ``column(name)`` is a field of every trial, one read-only array named
    alike on both engines: ``x_seq`` (T, n) int8, ``joint_counts``
    (T, X, Y, Z), sampled indices as Python ints.  ``run`` holds the
    fields all trials share.  Label sequences are codebook rows, or, on
    the sampled engine, ``b_label_seq`` is arranged from the trial's
    ``generators`` on first read.  After ``traces[i] = t``, index i reads
    the stand-in ``t``; no column sees it.
    """

    def __init__(self, columns, run, rows, generators):
        for a in columns.values():
            a.setflags(write=False)
        # the read-only Y and Z label tables; a sampled run has no Y table
        self._columns, self.run, self._rows = columns, run, rows
        self._arranged = [sampling.Arrangement(g, x, c[:, :, 0]) for g, x, c
                          in zip(generators, columns["x_seq"],
                                 columns["joint_counts"])]
        self._stand_ins = {}

    def __len__(self) -> int:
        return len(self._columns["joint_counts"])

    def __setitem__(self, i, trace: SimulationTrace):
        self._stand_ins[range(len(self))[i]] = trace

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        if (i := range(len(self))[i]) in self._stand_ins:
            return self._stand_ins[i]
        f = dict(self.run, trial=i, **{k: c[i] for k, c in
                                       self._columns.items()})
        f = {k: v.item() if isinstance(v, np.generic) else v
             for k, v in f.items()}
        f["b_label_seq"] = (self._arranged[i] if self._arranged
                            else self._rows[0][f["ell_hat"]])
        if self._rows[1] is None:
            f.update(dict.fromkeys(("c_label_seq", "ell2", "m23", "ell_hat2",
                                    "ell_tilde2")),
                     joint_counts=f["joint_counts"][:, :, 0])
        else:
            f.update(c_label_seq=self._rows[1][f["ell_hat2"]],
                     ell_tilde2=f["ell_hat2"])
        return SimulationTrace(avg_state=trusted_density(f.pop("avg_state")),
                               **f)


class _Tables(NamedTuple):
    """Per-run constants of the three-label (X, Y, Z) problem."""

    p_xyz: np.ndarray   # label joint, axes (X, Y, Z)
    k: np.ndarray       # k[x, y, z] = A_x (x) B_y (x) C_z
    t: np.ndarray       # t[x] = A_x (x) eta_x, eta_x = sum p(y,z|x) B_y (x) C_z
    omega: np.ndarray   # target state sum_x p(x) t[x]


def _tables(target: CqEnsemble, ext: Extension) -> _Tables:
    t = ext.tau_table
    return _Tables(ext.as_cascade()[0], ext.label_table, t,
                   mixture(target.source.table, t))


def simulate_two_node(target: CqEnsemble, ext: Extension, n: int,
                      rate: float, trials: int, seed: int,
                      delta: float = 0.02,
                      codeword_rate: Optional[float] = None,
                      engine: str = "auto",
                      gamma_coeff: Optional[float] = None,
                      multipliers: tuple = (1.0, 2.0, 8.0)) -> SimulationTraces:
    """Monte Carlo runs of the two-node scheme; one trace per trial.

    Runs the cascade core with a trivial relay (rate 0, one relay
    codeword); its traces are two-node traces: 2-D ``joint_counts`` and no
    relay fields.  ``engine="auto"`` materializes the codebook when it is
    small enough to scan and otherwise samples trials from the exact
    outcome distribution.  ``delta``, ``multipliers`` and ``gamma_coeff``
    make the run's ``ToleranceSchedule``.  Identical (seed, params)
    reproduce identical traces bit for bit.
    """
    if ext.kind != "two-node":
        raise CoordinationError("simulate_two_node needs a two-node extension")
    return _simulate(target, ext, n, (rate, 0.0), (codeword_rate, 0.0),
                     trials, seed, delta, gamma_coeff, multipliers, engine)


def simulate_cascade(target: CqEnsemble, ext: Extension, n: int,
                     rate12: float, rate23: float, trials: int, seed: int,
                     delta: float = 0.02,
                     codeword_rate_y: Optional[float] = None,
                     codeword_rate_z: Optional[float] = None,
                     engine: str = "auto",
                     gamma_coeff: Optional[float] = None,
                     multipliers: tuple = (1.0, 2.0, 8.0)) -> SimulationTraces:
    """Monte Carlo runs of the rate-splitting cascade scheme.

    The Alice-to-Bob rate splits as R' = rate12 - rate23 for the label
    codebook and R'' = rate23 for the relayed codebook.  The sampled
    engine supports the degenerate relay (single Z label) only; richer
    cascades use the explicit engine.
    """
    if ext.kind not in ("cascade", "isolated"):
        raise CoordinationError("simulate_cascade needs a cascade extension")
    if rate12 < rate23:
        raise ProtocolError("rate12 must be at least rate23 (rate splitting)")
    return _simulate(target, ext, n, (rate12, rate23),
                     (codeword_rate_y, codeword_rate_z), trials, seed, delta,
                     gamma_coeff, multipliers, engine)


def _simulate(target, ext, n, rates, codeword_rates, trials, seed, delta,
              gamma_coeff, multipliers, engine) -> SimulationTraces:
    """The one simulation core: ``trials`` traces of one code, drawn and
    finished chunk by chunk.  ``gamma_coeff`` defaults to the label
    alphabet-size product, and a codeword rate to I + 2 gamma."""
    ext.require_validated()
    if trials < 1:
        raise ProtocolError("trials must be positive")
    if trials > 2 ** 32:
        # a trial index keys its seed streams as one uint32 word
        raise ProtocolError(f"trials must be at most 2^32, not {trials}")
    if gamma_coeff is None:
        gamma_coeff = float(math.prod(v.size for v in ext.joint.variables))
    schedule = ToleranceSchedule(delta, multipliers, gamma_coeff)
    radii = schedule.radii
    x, y, *z = ext.joint.names
    rate_y, rate_z = codeword_rates
    if rate_y is None:
        rate_y = (mutual_information(ext.joint, [x, *z], [y])
                  + 2.0 * schedule.gamma)
    if rate_z is None:
        rate_z = mutual_information(ext.joint, [x], z) + 2.0 * schedule.gamma
    rate12, rate23 = rates
    params_y = CodebookParams(n=n, bin_rate=rate12 - rate23,
                              codeword_rate=rate_y, delta=delta, seed=seed)
    params_z = CodebookParams(n=n, bin_rate=rate23, codeword_rate=rate_z,
                              delta=delta, seed=seed)
    two_node = ext.kind == "two-node"
    tables = _tables(target, ext)
    p_xyz = tables.p_xyz
    if engine == "auto":
        # explicit for few codebook symbols (the two-node relay's codeword
        # uncharged) and int64 bins, unless a relay label rules sampling out
        relay = 0 if two_node else params_z.num_codewords
        engine = ("explicit" if (params_y.num_codewords + relay) * n
                  <= EXPLICIT_AUTO_BUDGET and (p_xyz.shape[2] > 1 or (
                      params_y.int64_bins and params_z.int64_bins))
                  else "sampled")
    # a trial stacks ~16 dim^2 cells of states in the finish, n of sources
    cells = max(16 * tables.k.shape[-1] ** 2, n)
    if engine == "explicit":
        cb_y = build_codebook(params_y, p_xyz.sum(axis=(0, 2)), role=0)
        cb_z = build_codebook(params_z, p_xyz.sum(axis=(0, 1)), role=1)
        outcomes = lambda rngs, words, x, x_typical: _explicit_chunk(
            cb_y, cb_z, p_xyz, radii, x, x_typical)
        rows = (cb_y.codewords, None if two_node else cb_z.codewords)
    elif engine == "sampled":
        if p_xyz.shape[2] != 1:
            raise ProtocolError(
                "the sampled engine supports cascade only with a degenerate "
                "relay label (single Z symbol); use the explicit engine")
        outcomes = lambda rngs, words, x, x_typical: _sampled_chunk(
            p_xyz, params_y, params_z, radii, rngs, words, x, x_typical)
        # b_label_seq is arranged per trial; the relay label is 0
        rows = (None, None if two_node
                else np.broadcast_to(np.int8(0), (1, n)))
        # a bin index pass holds ~4 uint64 cells per 64 index bits; charged 4x
        # that, at the index cap the indices, not the pass, set the peak
        cells = max(cells, *(_ceil_rate(n, p.bin_rate) // 4
                             for p in (params_y, params_z)))
    else:
        raise ProtocolError(f"unknown engine {engine!r}")
    run = dict(n=n, seed=seed, engine=engine, rate=rate12,
               codeword_rate=rate_y, rate23=None if two_node else rate23,
               gamma_radius=schedule.gamma)
    px, zero = p_xyz.sum(axis=(1, 2)), np.zeros((1, n), dtype=np.int8)
    step = max(1, CHUNK_CELLS // cells)
    columns, generators = {}, []   # each column allocated once for the run
    for first in range(0, trials, step):
        chunk = np.arange(first, min(first + step, trials))
        # key 0's n uniforms are the sources: from the generators sampled
        # trials draw on from, or one PCG64 pass; keys 1, 3 draw bin indices
        words = _trial_words(seed, chunk)
        rngs = list(map(_generator, words[0])) if engine == "sampled" else []
        x = sampling.symbols(px, np.stack([g.random(n) for g in rngs])
                             if rngs else
                             (_pcg64_raw(words[0], n) >> 11) * 2.0 ** -53)
        x_typical = _type_distance(zero, x, px[None])[0] < radii[0]
        generators += rngs
        counts, fields = outcomes(rngs, words[1:], x, x_typical)
        for name, values in _finish(counts, dict(fields, x_seq=x,
                                                 x_typical=x_typical),
                                    tables, n, schedule.gamma).items():
            if name not in columns:
                columns[name] = np.empty((trials, *values.shape[1:]),
                                         values.dtype)
            columns[name][first:first + len(chunk)] = values
    return SimulationTraces(columns, run, rows, generators)


def _explicit_chunk(cb_y: Codebook, cb_z: Codebook, p_xyz, radii, x,
                    x_typical):
    """Label counts (T, X, Y, Z) and trace columns of a chunk of explicit
    trials with sources ``x`` (T, n), every scan shared by the chunk."""
    _, encode_radius, decode_radius = radii
    num_x, num_y, num_z = p_xyz.shape
    size = len(x)
    ell, ell2 = np.full((2, size), -1)
    src = np.flatnonzero(x_typical)
    ell[src], ell2[src] = _pair_search(cb_y.codewords, cb_z.codewords,
                                       x[src], p_xyz, encode_radius)
    enc_fb = ell2 < 0
    ell[enc_fb] = ell2[enc_fb] = 0
    m12 = np.where(x_typical, cb_y.bins[ell], 0)
    m23 = np.where(x_typical, cb_z.bins[ell2], 0)
    # Bob's stage (i) recovers the relay codeword from its bin alone (a zero
    # context), and Charlie runs the same rule on the forwarded message
    ell_hat2 = _first_rows(cb_z.codewords, 0 * x, p_xyz.sum(axis=(0, 1))[None],
                           decode_radius, cb_z.bins, m23)
    z = cb_z.codewords[np.maximum(ell_hat2, 0)]
    # Bob's stage (ii): his own codeword against the relay context
    ell_hat = _first_rows(cb_y.codewords, z, p_xyz.sum(axis=0).T,
                          decode_radius, cb_y.bins, m12)
    dec_fb = (ell_hat < 0) | (ell_hat2 < 0)
    ell_hat, ell_hat2 = np.maximum(ell_hat, 0), np.maximum(ell_hat2, 0)
    cells = (x.astype(np.int64) * num_y + cb_y.codewords[ell_hat]) * num_z \
        + z + p_xyz.size * np.arange(size)[:, None]
    counts = np.bincount(cells.ravel(), minlength=size * p_xyz.size)
    return counts.reshape((size,) + p_xyz.shape).astype(float), dict(
        ell=ell, m12=m12, ell_hat=ell_hat, encoder_fallback=enc_fb,
        decoder_fallback=dec_fb, ell2=ell2, m23=m23, ell_hat2=ell_hat2)


def _sampled_chunk(p_xyz, params_y, params_z, radii, generators, words, x,
                   x_typical):
    """Label counts (T, X, Y, Z) and trace columns of a chunk of sampled
    trials with sources ``x`` (T, n), drawn by their ``generators``.  The
    Z label is constant, so the Y side is exactly the two-node trial, which
    leaves the generator where the arrangement of ``b_label_seq`` starts.
    Bin indices come from ``words`` (``_bin_indices``), 0 if x is atypical."""
    x_counts = (x == np.arange(p_xyz.shape[0])[:, None, None]).sum(axis=2).T
    # read once: each read of a codebook size recomputes it
    code = (p_xyz[:, :, 0], radii[1:], params_y.num_codewords,
            params_y.num_bins)
    counts, ell, ell_hat, enc_fb, dec_fb = zip(*(
        sampling.sample_two_node_trial(rng, c, typical, *code)
        for rng, c, typical in zip(generators, x_counts.tolist(), x_typical)))
    m12, m23 = (np.where(x_typical, _bin_indices(w, params), 0)
                for w, params in zip(words, (params_y, params_z)))
    zero = np.zeros(len(x), dtype=np.int64)
    return np.stack(counts).astype(float)[..., None], dict(
        ell=np.array(ell, object), m12=m12, ell_hat=np.array(ell_hat, object),
        encoder_fallback=np.array(enc_fb), decoder_fallback=np.array(dec_fb),
        ell2=zero, m23=m23, ell_hat2=zero)


def _bin_indices(words: np.ndarray, params: CodebookParams) -> np.ndarray:
    """A uniform bin index of ``params`` per row of (T, 4) uint64 stream
    words: of k bits, the first ceil(k/64) outputs of the row's PCG64, read
    little-endian and cut to k bits; 0 at k = 0, where no kernel runs.
    Python ints in an object array, as an index may pass 2^64."""
    mask = params.num_bins - 1   # k one bits
    if not mask:
        return np.zeros(len(words), object)
    raw = _pcg64_raw(words, -(-mask.bit_length() // 64))
    return np.array([int.from_bytes(r.astype("<u8").tobytes(), "little")
                     & mask for r in raw], object)


def _finish(counts, fields, tables: _Tables, n: int, gamma: float) -> dict:
    """A trial chunk's columns: ``fields``, counts, averaged states,
    distances and block-bound checks.  rho and tau are batched ``mixture``s,
    and one ``eigvalsh`` call validates the states and gives both distances."""
    freq = counts / n
    rho = mixture(freq, tables.k)
    tau = mixture(freq.sum(axis=(2, 3)), tables.t)
    states, eig = validated_states(rho, rho - tau, rho - tables.omega)
    d_tau, d_target = 0.5 * np.abs(eig).sum(axis=-1)
    g_typ = 0.5 * np.abs(freq - tables.p_xyz).sum(axis=(1, 2, 3)) < gamma
    return dict(fields, joint_counts=counts, avg_state=states,
                distance_to_target=d_target, distance_to_tau=d_tau,
                gamma_typical=g_typ,
                block_bound_ok=np.where(g_typ, d_tau <= gamma, None))


# ----------------------------------------------------------------------
# derandomization and converse test
# ----------------------------------------------------------------------

@dataclass
class DerandomizationReport:
    """Per-seed mean distances and the selected deterministic codebook seed."""

    seeds: list
    distances: np.ndarray
    best_index: int
    best_seed: int
    best_distance: float
    mean_distance: float
    quantiles: dict
    epsilon: float
    traces_by_seed: Optional[list] = None

    @property
    def meets_epsilon(self) -> bool:
        return self.best_distance <= self.epsilon

    @property
    def best_below_mean(self) -> bool:
        return self.best_distance <= self.mean_distance + 1e-15


def derandomize(target: CqEnsemble, ext: Extension, n: int, rate: float,
                trials: int, num_seeds: int, epsilon: float,
                seed: int = 0, keep_traces: bool = False,
                **sim_kwargs) -> DerandomizationReport:
    """Select the best codebook seed by mean distance across seeds.

    The selection mirrors the shared-randomness removal argument: the
    minimum over sampled seeds cannot exceed the sample mean, and a seed
    meeting ``epsilon`` yields a deterministic code at that distance.
    """
    if not 1 <= num_seeds <= 2 ** 32:
        raise ProtocolError(f"need 1 to 2^32 seeds, not {num_seeds}")
    if seed < 0:
        raise ProtocolError(f"seed must be nonnegative, not {seed}")
    seeds, dists, kept = [], [], []
    for s in range(num_seeds):
        seeds.append(int(np.random.SeedSequence(
            seed, spawn_key=(_KEY_SEEDS, s)).generate_state(1)[0]))
        traces = simulate_two_node(target, ext, n, rate, trials,
                                   seed=seeds[-1], **sim_kwargs)
        dists.append(float(np.mean(traces.column("distance_to_target"))))
        if keep_traces:
            kept.append(traces)
    dists = np.array(dists)
    best = int(np.argmin(dists))
    qs = {q: float(np.percentile(dists, q)) for q in (25, 50, 75)}
    return DerandomizationReport(
        seeds=seeds, distances=dists, best_index=best,
        best_seed=seeds[best], best_distance=float(dists[best]),
        mean_distance=float(dists.mean()), quantiles=qs, epsilon=epsilon,
        traces_by_seed=kept if keep_traces else None)


@dataclass
class ConverseInequality:
    name: str
    information_bits: float
    rate_bound: float
    slack_total: float

    @property
    def margin(self) -> float:
        return self.rate_bound + self.slack_total - self.information_bits

    @property
    def passed(self) -> bool:
        return self.margin >= 0


@dataclass
class ConverseReport:
    inequalities: list
    eps_n: float
    alpha: float
    measured: JointPmf
    slack: float

    @property
    def passed(self) -> bool:
        return all(iq.passed for iq in self.inequalities)


def converse_check(traces: SimulationTraces, target: CqEnsemble,
                   ext: Extension, rate: float,
                   rate23: Optional[float] = None,
                   slack: float = 0.02) -> ConverseReport:
    """Measurement-side rate bound on the simulated code.

    Reads the computational-basis diagonal of the trial-averaged
    classical-quantum state (exact, via the ``joint_counts`` column of
    ``traces`` and the atom diagonals), forms the per-letter distribution,
    and checks the mutual-information inequalities with the
    entropy-continuity slack alpha_n computed from the measured trace
    distance.  The slack is a relaxation term, so it enters clamped at
    zero: outside the small-deviation regime (where the continuity bound
    is vacuous) the plain information inequality I <= rate still applies.
    """
    if not traces:
        raise ProtocolError("converse_check needs at least one trace")
    if ext.kind != "two-node" and rate23 is None:
        raise ProtocolError("cascade converse needs rate23")
    tables = _tables(target, ext)
    counts = np.mean(traces.column("joint_counts"), axis=0)
    freq = counts.reshape(tables.p_xyz.shape) / traces.run["n"]
    px = target.source.table
    num_x = freq.shape[0]
    eps = sum(trace_norm_distance(mixture(freq[a], tables.k[a]),
                                  px[a] * tables.t[a])
              for a in range(num_x))
    _, atoms_c = ext.as_cascade()
    b_diag = np.array([np.real(np.diag(b.matrix)) for b in ext.atoms_b])
    c_diag = np.array([np.real(np.diag(c.matrix)) for c in atoms_c])
    dim_b, dim_c = b_diag.shape[1], c_diag.shape[1]
    alpha = alpha_n(eps, num_x, dim_b, dim_c)
    bounded = max(alpha, 0.0) + slack
    meas = np.einsum("xyz,yb,zc->xbc", freq, b_diag, c_diag)
    axes = [Alphabet("X", [f"x{i}" for i in range(num_x)]),
            Alphabet("Yb", [f"b{i}" for i in range(dim_b)]),
            Alphabet("Zc", [f"c{i}" for i in range(dim_c)])]
    if ext.kind == "two-node":
        # the trivial relay adds no measured label and no second link
        meas_pmf = JointPmf(axes[:2], meas[:, :, 0] / meas.sum())
        links = [("I(X;Y) <= R + alpha + slack", ["Yb"], rate)]
    else:
        meas_pmf = JointPmf(axes, meas / meas.sum())
        links = [("I(X;YZ) <= R12 + alpha + slack", ["Yb", "Zc"], rate),
                 ("I(X;Z) <= R23 + alpha + slack", ["Zc"], rate23)]
    iq = [ConverseInequality(name, mutual_information(meas_pmf, ["X"], labels),
                             bound, bounded)
          for name, labels, bound in links]
    return ConverseReport(iq, eps, alpha, meas_pmf, slack)

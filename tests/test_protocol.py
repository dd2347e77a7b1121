import dataclasses
import math

import numpy as np
import pytest

from qcoord.classical import Alphabet, JointPmf, mutual_information
from qcoord.coordination import (CoordinationError, CqEnsemble, Extension,
                                 validate_extension)
from qcoord.protocol import (
    MAX_INDEX_BITS,
    MEMORY_CAP,
    Codebook,
    CodebookParams,
    MemoryCapError,
    ProtocolError,
    build_codebook,
    converse_check,
    decode_generic,
    derandomize,
    encode_generic,
    simulate_cascade,
    simulate_two_node,
)
from qcoord.quantum import DensityOperator, tensor, trace_norm_distance
from qcoord import sampling

from conftest import KET0, KET1, degenerate_z_cascade
from oracles import average_state, enumerate_sequences


class TestStreamContract:
    """Batched trial words are NumPy's ``SeedSequence`` words (NEP 19
    keeps its algorithm stable), and the generators built from them, like
    the one-pass PCG64 of the explicit engine's source draws and of the
    sampled engine's bin indices, draw what NumPy's ``PCG64`` and
    ``default_rng`` of those words draw.  Codebooks, derandomize seeds and
    sampled arrangements take NumPy's ``SeedSequence`` itself."""

    TRIALS = np.array([0, 1, 1000, 2 ** 32 - 1])
    SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 200 + 1]
    LASTS = [0, 1, 3]   # the trial keys (3, t, k), in _trial_words' order

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_match_seed_sequence(self, seed):
        import warnings
        from qcoord import protocol
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no uint32 overflow warning
            words = protocol._trial_words(seed, self.TRIALS)
        assert words.shape == (len(self.LASTS), len(self.TRIALS), 4)
        for j, last in enumerate(self.LASTS):
            for i, t in enumerate(self.TRIALS.tolist()):
                ss = np.random.SeedSequence(
                    seed, spawn_key=(protocol._KEY_TRIAL, t, last))
                want = ss.generate_state(4, np.uint64)
                assert words[j, i].dtype == want.dtype
                assert words[j, i].tobytes() == want.tobytes()
                assert np.array_equal(
                    protocol._generator(words[j, i]).random(5),
                    np.random.default_rng(ss).random(5))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_raw_outputs_match_pcg64(self, seed):
        # the one-pass PCG64 against numpy's own, output for output
        from qcoord import protocol
        words = protocol._trial_words(seed, self.TRIALS)[1]
        for m in (0, 1, 2, 6, 32, 257):
            got = protocol._pcg64_raw(words, m)
            assert got.shape == (len(self.TRIALS), m)
            for i, t in enumerate(self.TRIALS.tolist()):
                want = np.random.PCG64(np.random.SeedSequence(
                    seed, spawn_key=(protocol._KEY_TRIAL, t, 1))).random_raw(m)
                assert got[i].dtype == want.dtype
                assert got[i].tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chunk_uniforms_match_default_rng(self, seed):
        # the explicit engine's source uniforms: raw outputs >> 11, / 2^53
        from qcoord import protocol
        words = protocol._trial_words(seed, self.TRIALS)[0]
        for n in (1, 2, 6, 32, 257):
            got = (protocol._pcg64_raw(words, n) >> 11) * 2.0 ** -53
            assert got.shape == (len(self.TRIALS), n)
            for i, t in enumerate(self.TRIALS.tolist()):
                want = np.random.default_rng(np.random.SeedSequence(
                    seed, spawn_key=(protocol._KEY_TRIAL, t, 0))).random(n)
                assert got[i].tobytes() == want.tobytes()

    @pytest.mark.parametrize("bits", [0, 1, 63, 64, 65, 368, MAX_INDEX_BITS])
    @pytest.mark.parametrize("last", [1, 3])
    def test_bin_index_rule(self, bits, last):
        # an index of k bits is the first ceil(k/64) raw outputs of its
        # stream, read little-endian and cut to k bits; 0 bits draw nothing
        from qcoord import protocol
        seed = 2 ** 64 + 3
        params = CodebookParams(n=1, bin_rate=bits, codeword_rate=0.0,
                                delta=0.02, seed=seed)
        assert params.num_bins == 2 ** bits
        words = protocol._trial_words(seed, self.TRIALS)[
            self.LASTS.index(last)]
        got = protocol._bin_indices(words, params)
        assert got.dtype == object and got.shape == self.TRIALS.shape
        for i, t in enumerate(self.TRIALS.tolist()):
            raw = np.random.PCG64(np.random.SeedSequence(
                seed, spawn_key=(protocol._KEY_TRIAL, t, last))).random_raw(
                    -(-bits // 64))
            want = sum(int(r) << 64 * j for j, r in enumerate(raw))
            assert type(got[i]) is int
            assert got[i] == want % 2 ** bits

    @pytest.mark.parametrize("seed", SEEDS)
    def test_codebook_streams_match_default_rng(self, seed):
        # codewords from key (1, role) and bins from key (2, role)
        from qcoord import protocol
        params = CodebookParams(n=5, bin_rate=0.6, codeword_rate=0.8,
                                delta=0.02, seed=seed)
        p_u = np.array([0.25, 0.75])
        for role in (0, 1):
            cb = build_codebook(params, p_u, role=role)
            rng = np.random.default_rng(np.random.SeedSequence(
                seed, spawn_key=(protocol._KEY_CODEBOOK, role)))
            want = sampling.symbols(p_u, rng.random((16, 5)))
            assert np.array_equal(cb.codewords, want)
            rng = np.random.default_rng(np.random.SeedSequence(
                seed, spawn_key=(protocol._KEY_BINS, role)))
            assert np.array_equal(cb.bins, rng.integers(0, 8, size=16,
                                                        dtype=np.int64))

    @pytest.mark.parametrize("seed", [0, 3, 2 ** 64 + 3])
    def test_derandomize_seeds_match_seed_sequence(self, example1_pair,
                                                   seed):
        from qcoord import protocol
        ens, ext = example1_pair
        rep = derandomize(ens, ext, n=8, rate=0.5, trials=1, num_seeds=3,
                          epsilon=1.0, seed=seed, engine="explicit")
        want = [int(np.random.SeedSequence(
            seed, spawn_key=(protocol._KEY_SEEDS, s)).generate_state(1)[0])
                for s in range(3)]
        assert rep.seeds == want
        assert all(type(v) is int for v in rep.seeds)

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 64 + 3])
    def test_arrangements_match_default_rng(self, example1_pair, seed,
                                            monkeypatch):
        # a sampled b_label_seq is arranged by default_rng of key
        # (3, t, 2), in the first chunk and in later ones, and from each
        # seed derandomize derives, whose chunks hold whole seeds and hash
        # keys (3, t, 0) and (3, t, 1) only
        from qcoord import protocol
        ens, ext = example1_pair
        chunks, words = [], protocol._trial_words
        monkeypatch.setattr(protocol, "_trial_words", lambda s, t, lasts: (
            chunks.append((np.broadcast_to(np.asarray(s, object),
                                           t.shape).tolist(), t.tolist(),
                           lasts)) or words(s, t, lasts)))
        monkeypatch.setattr(protocol, "CHUNK_CELLS", 12 * 256)   # 12 trials
        run = dict(n=40, rate=0.5, delta=0.05, engine="sampled")
        rep = derandomize(ens, ext, trials=5, num_seeds=3, epsilon=1.0,
                          seed=seed, keep_traces=True, **run)
        runs = [*rep.traces_by_seed,
                simulate_two_node(ens, ext, trials=13, seed=seed, **run)]
        a, b, c = rep.seeds
        assert chunks == [([a] * 5 + [b] * 5, [0, 1, 2, 3, 4] * 2, (0, 1)),
                          ([c] * 5, [0, 1, 2, 3, 4], (0, 1)),
                          ([seed] * 12, list(range(12)), (0, 1)),
                          ([seed], [12], (0, 1))]
        assert [r.run["seed"] for r in runs] == [*rep.seeds, seed]
        for traces in runs:
            for t in traces:
                rng = np.random.default_rng(np.random.SeedSequence(
                    t.seed, spawn_key=(protocol._KEY_TRIAL, t.trial, 2)))
                want = sampling.arrange_within_rows(rng, t.x_seq,
                                                    t.joint_counts)
                assert t.b_label_seq.dtype == want.dtype
                assert t.b_label_seq.tobytes() == want.tobytes()

    @pytest.mark.parametrize("engine", ["explicit", "sampled"])
    def test_trial_counts_past_one_word_are_refused(self, example1_pair,
                                                    engine):
        ens, ext = example1_pair
        with pytest.raises(ProtocolError, match="2\\^32"):
            simulate_two_node(ens, ext, n=4, rate=0.5, trials=2 ** 32 + 1,
                              seed=0, engine=engine)


class TestCodebookParams:
    def test_counts_are_powers_of_two(self):
        p = CodebookParams(n=100, bin_rate=0.46, codeword_rate=0.5,
                           delta=0.02, seed=1)
        assert p.num_bins == 2 ** 46
        assert p.num_codewords == 2 ** 50

    def test_rejects_bad_values(self):
        with pytest.raises(ProtocolError):
            CodebookParams(n=0, bin_rate=0.1, codeword_rate=0.1,
                           delta=0.02, seed=1)
        with pytest.raises(ProtocolError):
            CodebookParams(n=10, bin_rate=-0.1, codeword_rate=0.1,
                           delta=0.02, seed=1)

    def test_memory_cap_flag(self):
        small = CodebookParams(n=64, bin_rate=0.2, codeword_rate=0.2,
                               delta=0.02, seed=1)
        big = CodebookParams(n=800, bin_rate=0.46, codeword_rate=0.47,
                             delta=0.02, seed=1)
        assert small.within_memory_cap
        assert not big.within_memory_cap

    def test_memory_cap_boundary(self):
        # a codebook of exactly MEMORY_CAP symbols is within the cap
        def params(rate):
            return CodebookParams(n=1, bin_rate=0.0, codeword_rate=rate,
                                  delta=0.02, seed=1)
        assert params(30).num_codewords * 1 == MEMORY_CAP
        assert params(30).within_memory_cap
        assert not params(31).within_memory_cap

    def test_int64_bins_boundary(self):
        # 2^62 bins are stored as int64; one bit more is not
        def params(n):
            return CodebookParams(n=n, bin_rate=1.0, codeword_rate=0.0,
                                  delta=0.02, seed=1)
        assert params(62).num_bins == 2 ** 62
        assert params(62).int64_bins
        assert not params(63).int64_bins

    def test_index_bits_are_capped(self, example1_pair):
        # a finite but huge rate is refused before any index is built
        with pytest.raises(MemoryCapError, match="bits"):
            CodebookParams(n=200, bin_rate=1e9, codeword_rate=0.5,
                           delta=0.02, seed=1)
        with pytest.raises(MemoryCapError, match="bits"):
            CodebookParams(n=200, bin_rate=0.5, codeword_rate=1e9,
                           delta=0.02, seed=1)
        at_cap = CodebookParams(n=1, bin_rate=MAX_INDEX_BITS,
                                codeword_rate=0.5, delta=0.02, seed=1)
        assert at_cap.num_bins == 2 ** MAX_INDEX_BITS
        # the sampled engine draws a bin index per trial: refused up front
        ens, ext = example1_pair
        with pytest.raises(MemoryCapError, match="bits"):
            simulate_two_node(ens, ext, n=200, rate=400, trials=2, seed=0,
                              engine="sampled")
        # a non-finite rate stays a validation error
        with pytest.raises(ProtocolError):
            CodebookParams(n=200, bin_rate=1e308, codeword_rate=0.5,
                           delta=0.02, seed=1)


class TestSampledBinIndices:
    """The sampled engine's bin indices: uniform over 2^k on a typical
    source, independent of each other, and 0 on an atypical source, as on
    the explicit engine."""

    # the tracemalloc peak of the run at the index cap below when each trial
    # drew its index from a seeded MT19937 (2,067,344 to 2,155,903 bytes
    # over 5 runs, Python 3.11.7, numpy 2.4.6)
    CAP_PEAK_BYTES = 2_067_000

    @staticmethod
    def _indices(traces, name):
        m, typical = traces.column(name), traces.column("x_typical")
        assert m.dtype == object and typical.any() and not typical.all()
        assert all(type(v) is int and v == 0 for v in m[~typical])
        return m[typical].astype(np.int64)

    @staticmethod
    def _assert_uniform(cells, size):
        from scipy.stats import chisquare
        counts = np.bincount(cells, minlength=size)
        assert counts.size == size and counts.sum() == len(cells)
        assert chisquare(counts).pvalue > 1e-3

    def test_two_node_m12_is_uniform(self, example1_pair):
        ens, ext = example1_pair
        traces = simulate_two_node(ens, ext, n=60, rate=3 / 60, trials=1600,
                                   seed=11, delta=0.05, engine="sampled")
        self._assert_uniform(self._indices(traces, "m12"), 8)

    def test_relay_m23_is_uniform(self, example1_pair):
        # a degenerate relay at rate23 > 0: 8 relay bins and 8 Y bins
        ens, ext = degenerate_z_cascade(example1_pair)
        traces = simulate_cascade(ens, ext, n=60, rate12=6 / 60,
                                  rate23=3 / 60, trials=1600, seed=12,
                                  delta=0.05, engine="sampled",
                                  codeword_rate_z=0.0)
        m12, m23 = self._indices(traces, "m12"), self._indices(traces, "m23")
        self._assert_uniform(m23, 8)
        self._assert_uniform(m12, 8)
        self._assert_uniform(8 * m12 + m23, 64)

    def test_run_at_the_index_cap(self, example1_pair):
        # a 2^16-bit index is 1,024 PCG64 outputs per trial: the chunk step
        # counts them, so the run holds no more than its bins need
        import tracemalloc
        ens, ext = example1_pair
        sampling.clear_summary_cache()
        tracemalloc.start()
        try:
            traces = simulate_two_node(ens, ext, n=200,
                                       rate=MAX_INDEX_BITS / 200, trials=300,
                                       seed=0, engine="sampled")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m12 = traces.column("m12")
        assert all(0 <= v < 2 ** MAX_INDEX_BITS for v in m12)
        assert max(m12).bit_length() > MAX_INDEX_BITS - 16
        assert peak <= self.CAP_PEAK_BYTES, peak


class TestBuildCodebook:
    def test_zero_rate_single_codeword_bin_zero(self):
        p = CodebookParams(n=12, bin_rate=0.0, codeword_rate=0.0,
                           delta=0.05, seed=3)
        cb = build_codebook(p, np.array([0.75, 0.25]))
        assert cb.codewords.shape == (1, 12)
        assert cb.num_bins == 1
        assert cb.bins.tolist() == [0]

    def test_deterministic(self):
        p = CodebookParams(n=20, bin_rate=0.25, codeword_rate=0.4,
                           delta=0.05, seed=9)
        c1 = build_codebook(p, np.array([0.5, 0.5]))
        c2 = build_codebook(p, np.array([0.5, 0.5]))
        assert np.array_equal(c1.codewords, c2.codewords)
        assert np.array_equal(c1.bins, c2.bins)

    def test_prefix_property_when_growing_rate(self):
        small = CodebookParams(n=20, bin_rate=0.25, codeword_rate=0.3,
                               delta=0.05, seed=9)
        large = CodebookParams(n=20, bin_rate=0.25, codeword_rate=0.6,
                               delta=0.05, seed=9)
        cs = build_codebook(small, np.array([0.5, 0.5]))
        cl = build_codebook(large, np.array([0.5, 0.5]))
        k = cs.codewords.shape[0]
        assert np.array_equal(cl.codewords[:k], cs.codewords)
        assert np.array_equal(cl.bins[:k], cs.bins)

    def test_memory_cap_enforced(self):
        p = CodebookParams(n=800, bin_rate=0.46, codeword_rate=0.47,
                           delta=0.02, seed=1)
        with pytest.raises(MemoryCapError):
            build_codebook(p, np.array([0.75, 0.25]))

    @pytest.mark.parametrize("probs", [[1.0], [0.75, 0.25], [0.5, 0.0, 0.5],
                                       [0.0, 1.0], [0.1, 0.2, 0.3, 0.4],
                                       [0.25, 0.25, 0.25, 0.25, 0.0]])
    def test_symbols_match_searchsorted(self, probs):
        # the reference is numpy's search of the cumulative sums, the last
        # set to 1; uniforms sit on and just below each edge
        probs = np.array(probs)
        edges = np.cumsum(probs)
        u = np.concatenate([
            np.random.default_rng(len(probs)).random(200), [0.0],
            [np.nextafter(1.0, 0.0)], edges[:-1],
            np.nextafter(edges[:-1], 0.0)])
        u = u[u < 1.0][None]   # uniforms lie in [0, 1)
        edges[-1] = 1.0
        want = np.searchsorted(edges, u, side="right").astype(np.int8)
        got = sampling.symbols(probs, u)
        assert got.dtype == np.int8 and got.shape == u.shape
        assert np.array_equal(got, want)

    def test_symbol_frequencies_concentrate(self):
        # oracle: pooled symbol count is Binomial(L0*n, p); the exact tail
        # of |k/N - p| >= 0.05 is astronomically small at this size
        n_total = 2 ** 10 * 50
        tail = 2 * math.exp(-2 * n_total * 0.05 ** 2)  # Hoeffding bound
        assert tail < 1e-100
        p = CodebookParams(n=50, bin_rate=0.2, codeword_rate=0.2,
                           delta=0.05, seed=21)
        cb = build_codebook(p, np.array([0.75, 0.25]))
        freq = np.mean(cb.codewords == 0)
        assert abs(freq - 0.75) < 0.05


def _planted_codebook(rows, num_bins=4, bins=None, n=None):
    rows = np.asarray(rows, dtype=np.int8)
    n = rows.shape[1] if n is None else n
    params = CodebookParams(n=n, bin_rate=1.0, codeword_rate=1.0,
                            delta=0.05, seed=0)
    if bins is None:
        bins = np.zeros(rows.shape[0], dtype=np.int64)
    return Codebook(params, rows, np.asarray(bins, dtype=np.int64),
                    num_bins)


class TestGenericEncodeDecode:
    def test_exact_type_codeword_found(self):
        x = np.array([0, 0, 1, 1], dtype=np.int8)
        target = np.array([[0.5, 0.0], [0.0, 0.5]])
        cb = _planted_codebook([[1, 1, 0, 0], [0, 0, 1, 1]],
                               bins=[2, 3])
        ell, m, fb = encode_generic(cb, target, 0.1, x)
        assert (ell, m, fb) == (1, 3, False)

    def test_no_typical_codeword_falls_back(self):
        x = np.array([0, 0, 1, 1], dtype=np.int8)
        target = np.array([[0.5, 0.0], [0.0, 0.5]])
        cb = _planted_codebook([[1, 1, 1, 1], [1, 1, 0, 0]], bins=[2, 3])
        ell, m, fb = encode_generic(cb, target, 0.1, x)
        assert (ell, m, fb) == (0, 2, True)

    def test_smallest_of_several_typical(self):
        x = np.array([0, 0, 1, 1], dtype=np.int8)
        target = np.array([[0.5, 0.0], [0.0, 0.5]])
        rows = [[1, 1, 1, 1]] * 3 + [[0, 0, 1, 1]] + [[1, 1, 1, 1]] * 3 \
            + [[0, 0, 1, 1]]
        cb = _planted_codebook(rows, bins=list(range(8)))
        ell, m, fb = encode_generic(cb, target, 0.1, x)
        assert (ell, fb) == (3, False)

    def test_decode_unique_in_bin(self):
        p_u = np.array([0.5, 0.5])
        cb = _planted_codebook([[0, 0, 0, 0], [0, 1, 0, 1]], bins=[0, 1])
        ell_hat, fb = decode_generic(cb, p_u, 0.1, 1)
        assert (ell_hat, fb) == (1, False)

    def test_decode_no_candidate_falls_back(self):
        p_u = np.array([0.5, 0.5])
        cb = _planted_codebook([[0, 0, 0, 0], [0, 0, 0, 0]], bins=[0, 1])
        ell_hat, fb = decode_generic(cb, p_u, 0.1, 1)
        assert (ell_hat, fb) == (0, True)

    def test_decode_smallest_candidate_in_bin(self):
        p_u = np.array([0.5, 0.5])
        rows = [[0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 0]]
        cb = _planted_codebook(rows, bins=[0, 1, 1, 1])
        ell_hat, fb = decode_generic(cb, p_u, 0.1, 1)
        assert (ell_hat, fb) == (1, False)

    def test_decode_with_side_information_context(self):
        y = np.array([0, 0, 1, 1], dtype=np.int8)
        p_yu = np.array([[0.5, 0.0], [0.0, 0.5]])
        rows = [[1, 1, 0, 0], [0, 0, 1, 1]]
        cb = _planted_codebook(rows, bins=[1, 1])
        ell_hat, fb = decode_generic(cb, p_yu, 0.1, 1, y_seq=y)
        assert (ell_hat, fb) == (1, False)


class TestTwoNodeSimulation:
    def test_deterministic_bit_for_bit(self, example1_pair):
        ens, ext = example1_pair
        for engine, kwargs in (("explicit", {"codeword_rate": 0.2}),
                               ("sampled", {})):
            t1 = simulate_two_node(ens, ext, n=60, rate=0.46, trials=5,
                                   seed=42, delta=0.05, engine=engine,
                                   **kwargs)
            t2 = simulate_two_node(ens, ext, n=60, rate=0.46, trials=5,
                                   seed=42, delta=0.05, engine=engine,
                                   **kwargs)
            for a, b in zip(t1, t2):
                assert np.array_equal(a.x_seq, b.x_seq)
                assert np.array_equal(a.b_label_seq, b.b_label_seq)
                assert (a.ell, a.m12, a.ell_hat) == (b.ell, b.m12, b.ell_hat)
                assert a.distance_to_target == b.distance_to_target
                assert np.array_equal(a.avg_state.matrix, b.avg_state.matrix)

    def test_engines_share_source_streams(self, example1_pair):
        # the same sources, and the same typicality flags, on both sides of
        # the source radius
        ens, ext = example1_pair
        te = simulate_two_node(ens, ext, n=40, rate=0.5, trials=40, seed=8,
                               delta=0.05, engine="explicit",
                               codeword_rate=0.3)
        ts = simulate_two_node(ens, ext, n=40, rate=0.5, trials=40, seed=8,
                               delta=0.05, engine="sampled",
                               codeword_rate=0.3)
        for name in ("x_seq", "x_typical"):
            assert np.array_equal(te.column(name), ts.column(name))
        assert 0 < ts.column("x_typical").sum() < 40

    def test_auto_engine_samples_bins_past_int64(self, example1_pair):
        # 1,024 codewords of length 100 are few enough to scan, but their
        # 70-bit bins are more than build_codebook stores
        ens, ext = example1_pair
        run = dict(n=100, rate=0.7, codeword_rate=0.1, trials=3, seed=1)
        auto = simulate_two_node(ens, ext, **run)
        sampled = simulate_two_node(ens, ext, engine="sampled", **run)
        assert auto.run["engine"] == "sampled"
        assert auto.column("m12").tolist() == sampled.column("m12").tolist()
        ens3, ext3 = degenerate_z_cascade(example1_pair)
        assert simulate_cascade(ens3, ext3, n=100, rate12=0.7, rate23=0.0,
                                trials=2, seed=1, codeword_rate_y=0.1,
                                codeword_rate_z=0.0).run["engine"] == "sampled"
        # a relay label runs on the explicit engine only: still exit 5
        from conftest import cascade_flip_pair
        ens_c, ext_c = cascade_flip_pair(0.1)
        with pytest.raises(MemoryCapError, match="63 bits"):
            simulate_cascade(ens_c, ext_c, n=100, rate12=1.4, rate23=0.7,
                             trials=1, seed=1, codeword_rate_y=0.1,
                             codeword_rate_z=0.1)

    def test_auto_engine_scans_up_to_its_budget(self, example1_pair,
                                                monkeypatch):
        # 16 codewords of length 8: 128 symbols fit a budget of 128
        from qcoord import protocol
        ens, ext = example1_pair
        run = dict(n=8, rate=0.5, codeword_rate=0.5, trials=2, seed=1)
        symbols = CodebookParams(n=8, bin_rate=0.5, codeword_rate=0.5,
                                 delta=0.02, seed=1).num_codewords * 8
        for budget, engine in ((symbols, "explicit"),
                               (symbols - 1, "sampled")):
            monkeypatch.setattr(protocol, "EXPLICIT_AUTO_BUDGET", budget)
            assert simulate_two_node(ens, ext, **run).run["engine"] == engine

    @pytest.mark.parametrize("rate,cw_rate", [
        (0.8, 0.6),    # ample bins, covering succeeds: clean decoding
        (0.5, 0.12),   # starved codebook: encoder fallbacks dominate
    ])
    def test_engine_distributions_agree(self, example1_pair, rate, cw_rate):
        # same protocol law: compare per-regime rates and mean distance
        ens, ext = example1_pair
        n, trials = 24, 400
        te = simulate_two_node(ens, ext, n=n, rate=rate, trials=trials,
                               seed=3, delta=0.06, engine="explicit",
                               codeword_rate=cw_rate)
        ts = simulate_two_node(ens, ext, n=n, rate=rate, trials=trials,
                               seed=4, delta=0.06, engine="sampled",
                               codeword_rate=cw_rate)
        for field in ("x_typical", "encoder_fallback", "decoder_fallback"):
            fe = np.mean([getattr(t, field) for t in te])
            fs = np.mean([getattr(t, field) for t in ts])
            assert abs(fe - fs) < 0.12, field
        de = np.mean([t.distance_to_target for t in te])
        ds = np.mean([t.distance_to_target for t in ts])
        assert abs(de - ds) < 0.04

    def test_engine_distributions_agree_when_bins_overload(self,
                                                           example1_pair):
        # starved bin rate: decoding races among earlier codewords dominate
        ens, ext = example1_pair
        n, trials = 24, 400
        te = simulate_two_node(ens, ext, n=n, rate=0.1, trials=trials,
                               seed=3, delta=0.06, engine="explicit",
                               codeword_rate=0.6)
        ts = simulate_two_node(ens, ext, n=n, rate=0.1, trials=trials,
                               seed=4, delta=0.06, engine="sampled",
                               codeword_rate=0.6)
        de = np.mean([t.distance_to_target for t in te])
        ds = np.mean([t.distance_to_target for t in ts])
        assert abs(de - ds) < 0.04
        ce = np.mean([t.ell == t.ell_hat for t in te])
        cs = np.mean([t.ell == t.ell_hat for t in ts])
        assert abs(ce - cs) < 0.12

    def test_avg_state_is_valid_density_operator(self, example1_pair):
        ens, ext = example1_pair
        traces = simulate_two_node(ens, ext, n=50, rate=0.46, trials=3,
                                   seed=2, delta=0.05, engine="sampled")
        for t in traces:
            assert isinstance(t.avg_state, DensityOperator)
            assert t.avg_state.matrix.trace().real == pytest.approx(1.0)

    def test_fallback_monotone_in_codeword_rate(self, example1_pair):
        ens, ext = example1_pair
        rates0 = [0.05, 0.15, 0.3, 0.5]
        for engine in ("explicit", "sampled"):
            freqs = []
            for r0 in rates0:
                traces = simulate_two_node(
                    ens, ext, n=36, rate=0.5, trials=40, seed=13,
                    delta=0.06, engine=engine, codeword_rate=r0)
                freqs.append(np.mean([t.encoder_fallback for t in traces]))
            assert all(freqs[i + 1] <= freqs[i] + 1e-12
                       for i in range(len(freqs) - 1)), (engine, freqs)

    def test_degenerate_source(self):
        x = Alphabet("X", ["x0"])
        y = Alphabet("Y", ["y0", "y1"])
        half = DensityOperator.maximally_mixed(2)
        ens = CqEnsemble(JointPmf([x], [1.0]), [tensor(KET0, half)],
                         {"A": 2, "B": 2})
        joint = JointPmf([x, y], np.array([[0.5, 0.5]]))
        ext = Extension(joint, [KET0], [KET0, KET1], kind="two-node")
        assert validate_extension(ext, ens).passed
        traces = simulate_two_node(ens, ext, n=400, rate=0.1, trials=40,
                                   seed=6, delta=0.05, engine="sampled")
        med = np.median([t.distance_to_target for t in traces])
        assert med < 0.06

    def test_zero_rate_distance_floor(self, example1_pair):
        # with no communication the decoder output cannot do better than
        # the best single response; oracle: exhaustive over codewords
        ens, ext = example1_pair
        n = 6
        traces = simulate_two_node(ens, ext, n=n, rate=0.0, trials=30,
                                   seed=5, delta=0.2, engine="explicit",
                                   codeword_rate=0.34)
        a_mats = [a.matrix for a in ext.atoms_a]
        b_mats = [b.matrix for b in ext.atoms_b]
        px = ens.source.table
        etas = [ens.conditional_part(i, "B").matrix for i in range(2)]
        omega = sum(px[i] * np.kron(a_mats[i], etas[i]) for i in range(2))
        for t in traces:
            best = min(
                trace_norm_distance(
                    average_state(t.x_seq, u, a_mats, b_mats), omega)
                for u in enumerate_sequences(2, n))
            assert t.distance_to_target >= best - 1e-12

    def test_block_bound_never_violated(self, example1_pair):
        ens, ext = example1_pair
        traces = simulate_two_node(ens, ext, n=300, rate=0.46, trials=100,
                                   seed=14, delta=0.02, engine="sampled")
        checked = [t for t in traces if t.gamma_typical]
        assert checked, "no typical-decode trials to check"
        assert all(t.block_bound_ok for t in checked)

    def test_block_bound_holds_at_gamma(self, example1_pair):
        # n = 8 with one x0 slot decoded as y+ and one x1 slot moved from
        # y0 to it: total variation 1/8 to p, below distance_to_tau, so
        # the trial stays gamma-typical at gamma = distance_to_tau
        from qcoord import protocol
        tables = protocol._tables(*example1_pair)
        counts = np.array([[4.0, 1.0], [1.0, 2.0]]).reshape(1, 2, 2, 1)
        d_tau = protocol._finish(counts, {}, tables, 8,
                                 1.0)["distance_to_tau"][0]
        for gamma, ok in ((d_tau, True), (np.nextafter(d_tau, 0), False)):
            out = protocol._finish(counts, {}, tables, 8, gamma)
            assert out["distance_to_tau"][0] == d_tau
            assert out["gamma_typical"].tolist() == [True]
            assert out["block_bound_ok"].tolist() == [ok]

    def test_unsupported_grid_raises(self):
        x = Alphabet("X", [f"x{i}" for i in range(5)])
        y = Alphabet("Y", [f"y{i}" for i in range(5)])
        states = [tensor(DensityOperator.basis_state(5, i),
                         DensityOperator.basis_state(5, i))
                  for i in range(5)]
        ens = CqEnsemble(JointPmf([x], [0.2] * 5), states,
                         {"A": 5, "B": 5})
        joint = JointPmf([x, y], np.eye(5) * 0.2)
        ext = Extension(joint,
                        [DensityOperator.basis_state(5, i) for i in range(5)],
                        [DensityOperator.basis_state(5, i) for i in range(5)],
                        kind="two-node")
        assert validate_extension(ext, ens).passed
        with pytest.raises(sampling.GridTooLarge):
            simulate_two_node(ens, ext, n=900, rate=2.4, trials=1, seed=0,
                              delta=0.02, engine="sampled")

    def test_three_symbol_copy_target_at_n100(self, example1_three_symbol):
        # a whole joint-type grid would hold 1.6e8 cells here; only the
        # encode class is enumerated
        ens, ext = example1_three_symbol
        delta = 0.02
        traces = simulate_two_node(ens, ext, n=100, rate=1.6, trials=200,
                                   seed=3, delta=delta, engine="sampled")
        p_joint = ext.joint.table
        hits = 0
        for t in traces:
            x_counts = np.bincount(t.x_seq, minlength=3)
            assert np.array_equal(t.joint_counts.sum(axis=1), x_counts)
            if (t.x_typical and not t.encoder_fallback
                    and t.ell_hat == t.ell):
                hits += 1      # the sent codeword is jointly typical
                tv = 0.5 * np.abs(t.joint_counts / 100 - p_joint).sum()
                assert tv < 2 * delta
        assert hits > 0


class TestTrendAndRegimes:
    def test_distance_decreases_with_blocklength(self, example1_pair):
        ens, ext = example1_pair
        meds = []
        for n in (200, 400, 800):
            traces = simulate_two_node(ens, ext, n=n, rate=0.46, trials=60,
                                       seed=5, delta=0.02, engine="sampled")
            meds.append(np.median([t.distance_to_target for t in traces]))
        assert meds[0] > meds[2]
        assert meds[2] < 0.1

    def test_below_rate_distance_floor(self, example1_pair):
        ens, ext = example1_pair
        lo = simulate_two_node(ens, ext, n=800, rate=0.16, trials=60,
                               seed=5, delta=0.02, engine="sampled")
        hi = simulate_two_node(ens, ext, n=800, rate=0.46, trials=60,
                               seed=5, delta=0.02, engine="sampled")
        med_lo = np.median([t.distance_to_target for t in lo])
        med_hi = np.median([t.distance_to_target for t in hi])
        assert med_lo >= 2 * med_hi


class TestCascadeSimulation:
    def test_degenerate_relay_bit_for_bit_sampled(self, example1_pair):
        ens3, ext3 = degenerate_z_cascade(example1_pair)
        ens2, ext2 = example1_pair
        two = simulate_two_node(ens2, ext2, n=800, rate=0.46, trials=12,
                                seed=5, delta=0.02, engine="sampled")
        casc = simulate_cascade(ens3, ext3, n=800, rate12=0.46, rate23=0.0,
                                trials=12, seed=5, delta=0.02,
                                engine="sampled",
                                codeword_rate_y=two[0].codeword_rate,
                                codeword_rate_z=0.0, gamma_coeff=4.0)
        for a, b in zip(two, casc):
            assert a.distance_to_target == b.distance_to_target
            assert a.distance_to_tau == b.distance_to_tau
            assert np.array_equal(a.x_seq, b.x_seq)
            assert np.array_equal(a.b_label_seq, b.b_label_seq)
            assert b.ell_hat2 == 0 and not b.c_label_seq.any()

    def test_degenerate_relay_bit_for_bit_explicit(self, example1_pair):
        ens3, ext3 = degenerate_z_cascade(example1_pair)
        ens2, ext2 = example1_pair
        two = simulate_two_node(ens2, ext2, n=36, rate=0.5, trials=10,
                                seed=9, delta=0.06, engine="explicit",
                                codeword_rate=0.34)
        casc = simulate_cascade(ens3, ext3, n=36, rate12=0.5, rate23=0.0,
                                trials=10, seed=9, delta=0.06,
                                engine="explicit", codeword_rate_y=0.34,
                                codeword_rate_z=0.0, gamma_coeff=4.0)
        for a, b in zip(two, casc):
            assert a.distance_to_target == b.distance_to_target
            assert (a.ell, a.m12, a.ell_hat) == (b.ell, b.m12, b.ell_hat)

    def test_inside_region_trend(self):
        from conftest import cascade_flip_pair
        ens, ext = cascade_flip_pair(0.1)
        meds = []
        for n in (16, 32, 48):
            traces = simulate_cascade(ens, ext, n=n, rate12=1.9, rate23=0.9,
                                      trials=24, seed=3, delta=0.1,
                                      engine="explicit",
                                      codeword_rate_y=0.35,
                                      codeword_rate_z=0.3)
            meds.append(np.median([t.distance_to_target for t in traces]))
        assert meds[-1] < meds[0]

    def test_relay_rate_below_information_floor(self):
        from conftest import cascade_flip_pair
        ens, ext = cascade_flip_pair(0.1)
        floors = []
        p_xz = ext.joint.table.sum(axis=1)
        for n in (24, 48):
            traces = simulate_cascade(ens, ext, n=n, rate12=1.2,
                                      rate23=0.05, trials=24, seed=3,
                                      delta=0.1, engine="explicit",
                                      codeword_rate_y=0.35,
                                      codeword_rate_z=0.3)
            devs = [0.5 * np.abs(t.joint_counts.sum(axis=1) / t.n
                                 - p_xz).sum() for t in traces]
            floors.append(np.median(devs))
        assert all(f > 0.05 for f in floors)

    def test_bob_charlie_always_agree(self):
        from conftest import cascade_flip_pair
        ens, ext = cascade_flip_pair(0.1)
        traces = simulate_cascade(ens, ext, n=32, rate12=1.9, rate23=0.9,
                                  trials=10, seed=2, delta=0.1,
                                  engine="explicit", codeword_rate_y=0.35,
                                  codeword_rate_z=0.3)
        params_z = CodebookParams(n=32, bin_rate=0.9, codeword_rate=0.3,
                                  delta=0.1, seed=2)
        cb_z = build_codebook(params_z, ext.joint.table.sum(axis=(0, 1)),
                              role=1)
        # Charlie's label is the relay codeword of the one relay decode
        for t in traces:
            assert np.array_equal(t.c_label_seq, cb_z.codewords[t.ell_hat2])

    def test_sampled_engine_refuses_a_relay_label(self):
        from conftest import cascade_flip_pair
        ens, ext = cascade_flip_pair(0.1)
        with pytest.raises(ProtocolError, match="degenerate relay"):
            simulate_cascade(ens, ext, n=8, rate12=1.9, rate23=0.9,
                             trials=1, seed=0, engine="sampled")

    def test_unknown_engine_is_refused(self, example1_pair):
        ens, ext = example1_pair
        with pytest.raises(ProtocolError, match="unknown engine"):
            simulate_two_node(ens, ext, n=8, rate=0.5, trials=1, seed=0,
                              engine="exact")

    def test_wrappers_refuse_the_other_kind(self, example1_pair):
        from conftest import cascade_flip_pair
        ens2, ext2 = example1_pair
        ens3, ext3 = cascade_flip_pair(0.1)
        with pytest.raises(CoordinationError, match="two-node"):
            simulate_two_node(ens3, ext3, n=8, rate=1.9, trials=1, seed=0)
        with pytest.raises(CoordinationError, match="cascade"):
            simulate_cascade(ens2, ext2, n=8, rate12=0.5, rate23=0.0,
                             trials=1, seed=0)

    def test_default_relay_codeword_rate(self):
        # no codeword_rate_z is I(X;Z) + 2 gamma, column for column
        from conftest import cascade_flip_pair
        ens, ext = cascade_flip_pair(0.1)
        run = dict(n=8, rate12=1.9, rate23=0.9, trials=6, seed=4,
                   delta=0.02, engine="explicit", codeword_rate_y=0.35)
        default = simulate_cascade(ens, ext, **run)
        gamma = default.run["gamma_radius"]
        rate_z = mutual_information(ext.joint, ["X"], ["Z"]) + 2.0 * gamma
        explicit = simulate_cascade(ens, ext, codeword_rate_z=rate_z, **run)
        assert default.run == explicit.run
        assert default._columns.keys() == explicit._columns.keys()
        for name in default._columns:
            assert np.array_equal(default.column(name),
                                  explicit.column(name))

    def test_cascade_slot_states_average_to_the_state(self):
        from conftest import cascade_flip_pair
        ens, ext = cascade_flip_pair(0.1)
        t = simulate_cascade(ens, ext, n=8, rate12=1.9, rate23=0.9,
                             trials=1, seed=2, delta=0.1, engine="explicit",
                             codeword_rate_y=0.35, codeword_rate_z=0.3)[0]
        slots = t.slot_states(ext.atoms_a, ext.atoms_b, ext.as_cascade()[1])
        assert len(slots) == 8
        mean = sum(s.matrix for s in slots) / 8
        assert np.allclose(mean, t.avg_state.matrix, atol=1e-12)

    def test_equal_rates_send_one_bin(self):
        # rate12 == rate23 is a valid split: the label codebook has R' = 0,
        # one bin, so every m12 is 0
        from conftest import cascade_flip_pair
        ens, ext = cascade_flip_pair(0.1)
        traces = simulate_cascade(ens, ext, n=8, rate12=0.9, rate23=0.9,
                                  trials=4, seed=2, delta=0.1,
                                  engine="explicit", codeword_rate_y=0.35,
                                  codeword_rate_z=0.3)
        assert len(traces) == 4
        assert all(t.m12 == 0 for t in traces)

    def test_rate_split_validation(self, example1_pair):
        ens3, ext3 = degenerate_z_cascade(example1_pair)
        with pytest.raises(ProtocolError):
            simulate_cascade(ens3, ext3, n=20, rate12=0.1, rate23=0.5,
                             trials=1, seed=0, delta=0.1)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_is_a_protocol_error(self, example1_pair, trials):
        # both wrappers share one core, so both refuse an empty run
        ens3, ext3 = degenerate_z_cascade(example1_pair)
        with pytest.raises(ProtocolError, match="trials must be positive"):
            simulate_cascade(ens3, ext3, n=8, rate12=0.5, rate23=0.0,
                             trials=trials, seed=0, delta=0.2,
                             engine="explicit", codeword_rate_y=0.5,
                             codeword_rate_z=0.0)
        ens2, ext2 = example1_pair
        with pytest.raises(ProtocolError, match="trials must be positive"):
            simulate_two_node(ens2, ext2, n=8, rate=0.5, trials=trials,
                              seed=0, delta=0.2, engine="explicit",
                              codeword_rate=0.5)


class TestDerandomize:
    def test_single_seed(self, example1_pair):
        ens, ext = example1_pair
        rep = derandomize(ens, ext, n=200, rate=0.46, trials=5, num_seeds=1,
                          epsilon=1.0, seed=3, delta=0.02, engine="sampled")
        assert rep.best_index == 0
        assert rep.best_distance == rep.mean_distance

    def test_min_below_mean_and_quartile(self, example1_pair):
        ens, ext = example1_pair
        rep = derandomize(ens, ext, n=400, rate=0.46, trials=8,
                          num_seeds=12, epsilon=0.2, seed=3, delta=0.02,
                          engine="sampled")
        assert rep.best_below_mean
        assert rep.best_distance <= rep.quantiles[25] + 1e-15
        assert rep.meets_epsilon

    @pytest.mark.parametrize("num_seeds", [0, 2 ** 32 + 1])
    def test_seed_counts_outside_one_word_are_refused(self, example1_pair,
                                                      num_seeds):
        # a seed index keys its stream as one uint32 word: refused before
        # any seed is derived
        ens, ext = example1_pair
        with pytest.raises(ProtocolError, match="seeds"):
            derandomize(ens, ext, n=8, rate=0.5, trials=1,
                        num_seeds=num_seeds, epsilon=1.0, engine="explicit")


    # a trial stacks 256 cells at n <= 256: 3 trials a chunk (one seed
    # spans two), 5 (a chunk holds exactly one seed), 12 (two seeds, and
    # the last group one) or the default 256 (every sampled seed in one)
    @pytest.mark.parametrize("chunk_cells", [3 * 256, 5 * 256, 12 * 256, None])
    @pytest.mark.parametrize("engine", ["explicit", "sampled"])
    def test_each_seed_matches_its_own_simulation(self, example1_pair, engine,
                                                  chunk_cells, monkeypatch):
        from qcoord import protocol
        if chunk_cells:
            monkeypatch.setattr(protocol, "CHUNK_CELLS", chunk_cells)
        ens, ext = example1_pair
        run = dict(n=40 if engine == "sampled" else 8, rate=0.5, trials=5,
                   delta=0.05, engine=engine)
        rep = derandomize(ens, ext, num_seeds=5, epsilon=1.0, seed=9,
                          keep_traces=True, **run)
        groups = [rep.traces_by_seed]
        if engine == "sampled":
            # a draw handed more seeds than a chunk holds splits a seed
            monkeypatch.setattr(protocol, "CHUNK_CELLS", 7 * 256)
            groups.append(protocol._two_node(ens, ext, **run).draw(rep.seeds))
        for group in groups:
            assert [g.run["seed"] for g in group] == rep.seeds
            for seed, got in zip(rep.seeds, group):
                want = simulate_two_node(ens, ext, seed=seed, **run)
                assert got.run == want.run
                assert got._columns.keys() == want._columns.keys()
                for name, column in want._columns.items():
                    assert _column_bytes(got.column(name)) == \
                        _column_bytes(column)
                for a, b in zip(got, want):
                    assert a.b_label_seq.tobytes() == b.b_label_seq.tobytes()

    def test_memory_does_not_grow_with_the_seeds(self, example1_pair,
                                                 monkeypatch):
        # without kept traces each group's columns are dropped after its
        # draw, so 64 seeds peak as 4 do: 20 trials a chunk, 4 seeds a group
        import tracemalloc
        from qcoord import protocol
        monkeypatch.setattr(protocol, "CHUNK_CELLS", 20 * 800)
        ens, ext = example1_pair
        run = dict(n=800, rate=0.46, trials=5, epsilon=1.0, seed=2,
                   delta=0.02, engine="sampled")
        derandomize(ens, ext, num_seeds=64, **run)   # warms the grid cache
        peaks = []
        for num_seeds in (4, 64):
            tracemalloc.start()
            try:
                derandomize(ens, ext, num_seeds=num_seeds, **run)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_seeds_are_derived_one_simulation_at_a_time(self, example1_pair,
                                                        monkeypatch):
        # seeds are derived one draw at a time (an explicit draw takes one
        # seed), so a run of 2^20 seeds holds nothing per seed before the
        # first one is simulated
        import tracemalloc
        from qcoord import protocol
        calls = []

        class FirstCall(Exception):
            pass

        def first_call(code, seeds):
            calls.append(list(seeds))
            raise FirstCall
        monkeypatch.setattr(protocol._Code, "draw", first_call)
        ens, ext = example1_pair
        tracemalloc.start()
        try:
            with pytest.raises(FirstCall):
                derandomize(ens, ext, n=8, rate=0.5, trials=1,
                            num_seeds=2 ** 20, epsilon=1.0, seed=3,
                            engine="explicit")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [[int(np.random.SeedSequence(
            3, spawn_key=(protocol._KEY_SEEDS, 0)).generate_state(1)[0])]]
        assert peak < 2 ** 20


class TestConverse:
    def test_zero_rate_information_is_tiny(self, example1_pair):
        ens, ext = example1_pair
        traces = simulate_two_node(ens, ext, n=400, rate=0.0, trials=60,
                                   seed=8, delta=0.02, engine="sampled",
                                   codeword_rate=0.46)
        rep = converse_check(traces, ens, ext, rate=0.0)
        assert rep.passed
        iq = rep.inequalities[0]
        assert iq.information_bits <= rep.alpha + 0.02

    def test_half_rate_bound(self, example1_pair):
        ens, ext = example1_pair
        traces = simulate_two_node(ens, ext, n=400, rate=0.5, trials=60,
                                   seed=8, delta=0.02, engine="sampled")
        rep = converse_check(traces, ens, ext, rate=0.5)
        assert rep.passed
        assert rep.inequalities[0].information_bits <= 0.5 + rep.alpha + 0.02

    def test_cascade_inequalities(self):
        from conftest import cascade_flip_pair
        ens, ext = cascade_flip_pair(0.1)
        traces = simulate_cascade(ens, ext, n=32, rate12=1.9, rate23=0.9,
                                  trials=40, seed=2, delta=0.1,
                                  engine="explicit", codeword_rate_y=0.35,
                                  codeword_rate_z=0.3)
        rep = converse_check(traces, ens, ext, rate=1.9, rate23=0.9)
        assert len(rep.inequalities) == 2
        assert rep.passed


    def test_refuses_no_traces_and_a_cascade_without_rate23(self):
        from conftest import cascade_flip_pair
        ens, ext = cascade_flip_pair(0.1)
        traces = simulate_cascade(ens, ext, n=8, rate12=1.9, rate23=0.9,
                                  trials=2, seed=2, delta=0.1,
                                  engine="explicit", codeword_rate_y=0.35,
                                  codeword_rate_z=0.3)
        with pytest.raises(ProtocolError, match="at least one trace"):
            converse_check(traces[:0], ens, ext, rate=1.9, rate23=0.9)
        with pytest.raises(ProtocolError, match="rate23"):
            converse_check(traces, ens, ext, rate=1.9)


class TestSampledEngineExactness:
    def test_mean_state_matches_codebook_average_oracle(self, example1_pair):
        from oracles import expected_state_codebook_average
        ens, ext = example1_pair
        n, delta = 6, 0.2
        p_joint = ext.joint.table
        traces = simulate_two_node(ens, ext, n=n, rate=0.34, trials=4000,
                                   seed=19, delta=delta, engine="sampled",
                                   codeword_rate=0.5)
        mc_mean = np.mean([t.avg_state.matrix for t in traces], axis=0)
        oracle = expected_state_codebook_average(
            p_joint, n, delta, num_codewords=8, num_bins=4,
            a_mats=[a.matrix for a in ext.atoms_a],
            b_mats=[b.matrix for b in ext.atoms_b])
        assert trace_norm_distance(mc_mean, oracle) < 1.2e-2

    def test_slot_states_property(self, example1_pair):
        ens, ext = example1_pair
        t = simulate_two_node(ens, ext, n=8, rate=0.4, trials=1, seed=0,
                              delta=0.2, engine="sampled",
                              codeword_rate=0.4)[0]
        slots = t.slot_states(ext.atoms_a, ext.atoms_b)
        assert len(slots) == 8
        mean = sum(s.matrix for s in slots) / 8
        assert np.allclose(mean, t.avg_state.matrix, atol=1e-12)


class TestVectorizedScansMatchReference:
    """The chunked/vectorized typicality scans must agree index-for-index
    with a plain double-loop implementation on shared random inputs."""

    def test_two_node_encode_decode(self, example1_pair):
        from oracles import reference_decode, reference_encode, trial_rng
        ens, ext = example1_pair
        p_joint = ext.joint.table
        p_u = p_joint.sum(axis=0)
        rng = np.random.default_rng(101)
        for trial in range(25):
            n = int(rng.integers(6, 20))
            params = CodebookParams(n=n, bin_rate=0.5, codeword_rate=0.5,
                                    delta=float(rng.uniform(0.05, 0.3)),
                                    seed=int(rng.integers(1 << 30)))
            cb = build_codebook(params, p_u)
            x_seq = rng.integers(0, 2, size=n).astype(np.int8)
            radius = 2.0 * params.delta
            got = encode_generic(cb, p_joint, radius, x_seq)
            want = reference_encode(np.asarray(cb.codewords),
                                    np.asarray(cb.bins), x_seq, p_joint,
                                    radius)
            assert got == want
            m = got[1]
            got_d = decode_generic(cb, p_u, 8.0 * params.delta, m)
            want_d = reference_decode(np.asarray(cb.codewords),
                                      np.asarray(cb.bins), m, p_u,
                                      8.0 * params.delta)
            assert got_d == want_d

    def test_cascade_pair_and_context_scans(self):
        from conftest import cascade_flip_pair
        from qcoord.protocol import _pair_search
        from oracles import reference_context_decode, reference_pair_encode
        ens, ext = cascade_flip_pair(0.1)
        p_xyz = ext.joint.table
        p_y = p_xyz.sum(axis=(0, 2))
        p_z = p_xyz.sum(axis=(0, 1))
        p_zy = p_xyz.sum(axis=0).T.copy()
        rng = np.random.default_rng(202)
        for trial in range(12):
            n = int(rng.integers(6, 14))
            delta = float(rng.uniform(0.1, 0.35))
            seed = int(rng.integers(1 << 30))
            py_params = CodebookParams(n=n, bin_rate=0.5, codeword_rate=0.55,
                                       delta=delta, seed=seed)
            pz_params = CodebookParams(n=n, bin_rate=0.4, codeword_rate=0.5,
                                       delta=delta, seed=seed)
            cb_y = build_codebook(py_params, p_y, role=0)
            cb_z = build_codebook(pz_params, p_z, role=1)
            x_seq = rng.integers(0, 2, size=n).astype(np.int8)
            l1, l2 = _pair_search(cb_y.codewords, cb_z.codewords,
                                  x_seq[None], p_xyz, 2.0 * delta)
            want = reference_pair_encode(np.asarray(cb_y.codewords),
                                         np.asarray(cb_z.codewords),
                                         x_seq, p_xyz, 2.0 * delta)
            if want[2]:
                assert l2[0] < 0
            else:
                assert (l1[0], l2[0]) == (want[0], want[1])
            # context decode (Bob stage ii) against the reference
            z_fixed = cb_z.codewords[0]
            m = int(cb_y.bins[0])
            got_d = decode_generic(cb_y, p_zy, 8.0 * delta, m,
                                   y_seq=z_fixed)
            want_d = reference_context_decode(
                np.asarray(cb_y.codewords), np.asarray(cb_y.bins), m,
                z_fixed, p_zy, 8.0 * delta)
            assert got_d == want_d


class TestPairwiseSum:
    """``_pairwise_sum`` adds in the order numpy's ``sum`` takes over a
    contiguous run: at exactly 128 terms still one pairwise tree, from 129
    on two halves."""

    @pytest.mark.parametrize("m", [127, 128, 129])
    def test_matches_numpy_sum_at_the_split(self, m):
        from qcoord.protocol import _pairwise_sum
        rng = np.random.default_rng(m)
        runs = rng.random((200, m)) * 10.0 ** rng.integers(-6, 7, (200, m))
        want = runs.sum(axis=1)   # each row a contiguous run
        assert _pairwise_sum(runs.T.copy()).tobytes() == want.tobytes()


class TestCascadeTrialMatchesReference:
    """Full-trial orchestration check: rebuild each explicit cascade trial
    with the plain-python reference scans and demand identical indices."""

    def test_trialwise_equality(self):
        from conftest import cascade_flip_pair
        from qcoord import sampling
        from oracles import (
            reference_context_decode,
            reference_decode,
            reference_pair_encode,
            trial_rng,
        )
        ens, ext = cascade_flip_pair(0.1)
        n, delta, seed = 14, 0.22, 77
        traces = simulate_cascade(ens, ext, n=n, rate12=1.2, rate23=0.6,
                                  trials=15, seed=seed, delta=delta,
                                  engine="explicit", codeword_rate_y=0.5,
                                  codeword_rate_z=0.45)
        p_xyz = ext.joint.table
        px = p_xyz.sum(axis=(1, 2))
        p_z = p_xyz.sum(axis=(0, 1))
        p_zy = p_xyz.sum(axis=0).T.copy()
        py_params = CodebookParams(n=n, bin_rate=0.6, codeword_rate=0.5,
                                   delta=delta, seed=seed)
        pz_params = CodebookParams(n=n, bin_rate=0.6, codeword_rate=0.45,
                                   delta=delta, seed=seed)
        cb_y = build_codebook(py_params, p_xyz.sum(axis=(0, 2)), role=0)
        cb_z = build_codebook(pz_params, p_xyz.sum(axis=(0, 1)), role=1)
        for t_idx, trace in enumerate(traces):
            rng = trial_rng(seed, t_idx)
            x_seq = sampling.symbols(px, rng.random(n))
            assert np.array_equal(x_seq, trace.x_seq)
            tv_x = 0.5 * np.abs(np.bincount(x_seq, minlength=2) / n
                                - px).sum()
            if tv_x < delta:
                l1, l2, fb = reference_pair_encode(
                    np.asarray(cb_y.codewords), np.asarray(cb_z.codewords),
                    x_seq, p_xyz, 2 * delta)
                m12 = int(cb_y.bins[l1])
                m23 = int(cb_z.bins[l2])
            else:
                l1, l2, fb = 0, 0, True
                m12, m23 = 0, 0
            assert (trace.ell, trace.ell2) == (l1, l2)
            assert (trace.m12, trace.m23) == (m12, m23)
            lh2, _ = reference_decode(np.asarray(cb_z.codewords),
                                      np.asarray(cb_z.bins), m23, p_z,
                                      8 * delta)
            lh1, _ = reference_context_decode(
                np.asarray(cb_y.codewords), np.asarray(cb_y.bins), m12,
                cb_z.codewords[lh2], p_zy, 8 * delta)
            assert trace.ell_hat2 == lh2
            assert trace.ell_hat == lh1
            assert trace.ell_tilde2 == lh2
            assert np.array_equal(trace.b_label_seq, cb_y.codewords[lh1])
            assert np.array_equal(trace.c_label_seq, cb_z.codewords[lh2])

    # two-node runs that reach every branch of the reference: hits,
    # encoder fallbacks, atypical sources, in-bin confusion and (with the
    # tight decode radius) decoder fallbacks.  A chunk constant of 1 puts
    # every trial and every codeword in a block of its own; at 600 two
    # trials share a chunk and the 128 three-symbol codewords span blocks.
    TWO_NODE = dict(n=10, rate=0.3, codeword_rate=0.4, delta=0.1,
                    multipliers=(1.0, 2.0, 2.2), trials=40, seed=21)
    THREE_SYMBOL = dict(n=8, rate=1.0, codeword_rate=0.8, delta=0.15,
                        multipliers=(1.0, 2.0, 2.2), trials=40, seed=21)

    @staticmethod
    def _two_node(pair, run):
        ens, ext = pair
        return simulate_two_node(
            ens, ext, n=run["n"], rate=run["rate"], trials=run["trials"],
            seed=run["seed"], engine="explicit",
            codeword_rate=run["codeword_rate"],
            delta=run["delta"], multipliers=run["multipliers"])

    @staticmethod
    def _check_two_node(pair, run, traces):
        from oracles import reference_decode, reference_encode, trial_rng
        ens, ext = pair
        n, delta, seed = run["n"], run["delta"], run["seed"]
        source_r, encode_r, decode_r = (m * delta for m in run["multipliers"])
        p_joint = ext.joint.table
        px, p_u = p_joint.sum(axis=1), p_joint.sum(axis=0)
        cb = build_codebook(CodebookParams(
            n=n, bin_rate=run["rate"], codeword_rate=run["codeword_rate"],
            delta=delta, seed=seed), p_u)
        cws, bins = np.asarray(cb.codewords), np.asarray(cb.bins)
        a_mats = [a.matrix for a in ext.atoms_a]
        b_mats = [b.matrix for b in ext.atoms_b]
        assert len(traces) == run["trials"]
        for t_idx, trace in enumerate(traces):
            rng = trial_rng(seed, t_idx)
            x_seq = sampling.symbols(px, rng.random(n))
            assert np.array_equal(x_seq, trace.x_seq)
            typical = bool(0.5 * np.abs(np.bincount(x_seq, minlength=px.size)
                                        / n - px).sum() < source_r)
            if typical:
                ell, m12, enc_fb = reference_encode(cws, bins, x_seq, p_joint,
                                                    encode_r)
            else:
                ell, m12, enc_fb = 0, 0, True
            ell_hat, dec_fb = reference_decode(cws, bins, m12, p_u, decode_r)
            assert (trace.x_typical, trace.ell, trace.m12,
                    trace.encoder_fallback) == (typical, ell, m12, enc_fb)
            assert (trace.ell_hat, trace.decoder_fallback) == (ell_hat, dec_fb)
            assert np.array_equal(trace.b_label_seq, cws[ell_hat])
            assert np.allclose(trace.avg_state.matrix,
                               average_state(x_seq, cws[ell_hat], a_mats,
                                             b_mats), atol=1e-12)
        # the runs reach every branch the reference distinguishes
        assert any(t.x_typical and not t.encoder_fallback for t in traces)
        assert any(t.x_typical and t.encoder_fallback for t in traces)
        assert any(not t.x_typical for t in traces)
        assert any(t.decoder_fallback for t in traces)
        assert any(t.ell != t.ell_hat for t in traces)

    @pytest.mark.parametrize("chunk_cells", [1, 600, None])
    def test_two_node_trialwise_equality(self, example1_pair, chunk_cells,
                                         monkeypatch):
        from qcoord import protocol
        if chunk_cells:
            monkeypatch.setattr(protocol, "CHUNK_CELLS", chunk_cells)
        traces = self._two_node(example1_pair, self.TWO_NODE)
        self._check_two_node(example1_pair, self.TWO_NODE, traces)

    @pytest.mark.parametrize("chunk_cells", [1, 600, None])
    def test_three_symbol_trialwise_equality(self, example1_three_symbol,
                                             chunk_cells, monkeypatch):
        from qcoord import protocol
        if chunk_cells:
            monkeypatch.setattr(protocol, "CHUNK_CELLS", chunk_cells)
        traces = self._two_node(example1_three_symbol, self.THREE_SYMBOL)
        self._check_two_node(example1_three_symbol, self.THREE_SYMBOL, traces)

    @pytest.mark.parametrize("kind", ["two_node", "three_symbol", "cascade",
                                      "sampled"])
    def test_traces_do_not_depend_on_chunks_or_threads(
            self, kind, example1_pair, example1_three_symbol, monkeypatch):
        from conftest import cascade_flip_pair
        from qcoord import protocol
        if kind == "sampled":
            ens, ext = example1_pair
            run = lambda: simulate_two_node(
                ens, ext, n=60, rate=0.46, trials=9, seed=4, delta=0.05,
                engine="sampled")
        elif kind == "cascade":
            ens, ext = cascade_flip_pair(0.1)
            run = lambda: simulate_cascade(
                ens, ext, n=14, rate12=1.2, rate23=0.6, trials=15, seed=77,
                delta=0.22, engine="explicit", codeword_rate_y=0.5,
                codeword_rate_z=0.45)
        else:
            pair, params = ((example1_pair, self.TWO_NODE)
                            if kind == "two_node"
                            else (example1_three_symbol, self.THREE_SYMBOL))
            run = lambda: self._two_node(pair, params)
        reference = run()
        runs = []
        for chunk_cells in (1, 600):
            monkeypatch.setattr(protocol, "CHUNK_CELLS", chunk_cells)
            runs.append(run())
        for traces in runs:
            assert len(traces) == len(reference)
            for a, b in zip(reference, traces):
                assert _trace_bytes(a) == _trace_bytes(b)


def _column_bytes(column: np.ndarray):
    """A column's dtype, shape and raw bytes, or its values and their types
    where it holds Python objects."""
    if column.dtype == object:
        return column.shape, [(type(v), v) for v in column.tolist()]
    return column.dtype.str, column.shape, column.tobytes()


def _trace_bytes(t) -> dict:
    """Every field of a trace, read through its attribute (so a sampled
    ``b_label_seq`` is drawn), arrays and the averaged state as raw bytes
    and floats as hex, so equal records mean bit-identical traces."""
    out = {}
    for key in (f.name for f in dataclasses.fields(t)):
        value = getattr(t, key)
        if key == "avg_state":
            value = value.matrix
        if isinstance(value, np.ndarray):
            out[key] = (value.dtype.str, value.shape, value.tobytes())
        elif isinstance(value, float):
            out[key] = value.hex()
        else:
            out[key] = (type(value), value)
    return out


class TestToleranceSchedule:
    def test_custom_multipliers_change_radii(self, example1_pair):
        ens, ext = example1_pair
        traces = simulate_two_node(ens, ext, n=200, rate=0.46, trials=40,
                                   seed=4, delta=0.02,
                                   multipliers=(2.0, 4.0, 16.0),
                                   engine="sampled")
        base = simulate_two_node(ens, ext, n=200, rate=0.46, trials=40,
                                 seed=4, delta=0.02, engine="sampled")
        # doubling the source radius admits more sequences as typical
        assert (np.mean([t.x_typical for t in traces])
                >= np.mean([t.x_typical for t in base]))


class TestIsolatedNodeSimulation:
    def test_isolated_extension_runs_at_zero_relay_rate(self):
        from qcoord.classical import Alphabet, JointPmf
        from qcoord.coordination import CqEnsemble, Extension, \
            validate_extension
        from qcoord.quantum import tensor
        from conftest import KETP
        x = Alphabet("X", ["x0", "x1"])
        y = Alphabet("Y", ["y0", "y1"])
        z = Alphabet("Z", ["z+"])
        states = [tensor(tensor(KET0, KET0), KETP),
                  tensor(tensor(KET1, KET1), KETP)]
        ens = CqEnsemble(JointPmf([x], [0.5, 0.5]), states,
                         {"A": 2, "B": 2, "C": 2})
        cube = np.zeros((2, 2, 1))
        cube[0, 0, 0] = cube[1, 1, 0] = 0.5
        ext = Extension(JointPmf([x, y, z], cube), [KET0, KET1],
                        [KET0, KET1], [KETP], kind="isolated")
        assert validate_extension(ext, ens).passed
        traces = simulate_cascade(ens, ext, n=400, rate12=1.2, rate23=0.0,
                                  trials=40, seed=6, delta=0.02,
                                  engine="sampled", codeword_rate_z=0.0)
        med = np.median([t.distance_to_target for t in traces])
        assert med < 0.1
        rep = converse_check(traces, ens, ext, rate=1.2, rate23=0.0)
        assert rep.passed

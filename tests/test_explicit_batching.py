"""The explicit engine's batched trials: bounded memory, and safe to trace.

The engine processes trials and codeword rows in blocks sized by
``protocol.CHUNK_CELLS``, so the memory a run needs on top of the traces it
returns must not grow with the trial count or the codebook.  Benchmark
tracing rebinds ``protocol.DensityOperator`` and
``protocol.trace_norm_distance`` to plain functions; the simulation must
keep working, and must not reach either name per trial.
"""

import tracemalloc

import numpy as np
import pytest

from qcoord import protocol
from qcoord.protocol import CodebookParams, build_codebook, \
    converse_check, encode_generic, simulate_cascade, simulate_two_node

from conftest import cascade_flip_pair

MIB = 2 ** 20
TRANSIENT_CAP = 4 * MIB


def _transient_bytes(run) -> int:
    """Peak traced memory during ``run()`` minus what its result retains."""
    run()  # warm-up: imports, caches and the first allocations
    tracemalloc.start()
    try:
        result = run()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result
    return peak - current


def _benchmark_cascade(trials):
    ens, ext = cascade_flip_pair(0.1)
    return lambda: simulate_cascade(
        ens, ext, n=32, rate12=1.9, rate23=0.9, trials=trials, seed=3,
        delta=0.1, engine="explicit", codeword_rate_y=0.35,
        codeword_rate_z=0.3)


@pytest.mark.parametrize("trials", [60, 600])
def test_cascade_transient_memory_is_bounded(trials):
    # 4,096 label and 1,024 relay codewords
    assert _transient_bytes(_benchmark_cascade(trials)) <= TRANSIENT_CAP


def test_many_trials_transient_memory_is_bounded(example1_pair):
    ens, ext = example1_pair
    run = lambda: simulate_two_node(ens, ext, n=6, rate=2.0 / 6,
                                    trials=10_000, seed=3, delta=0.2,
                                    engine="explicit", codeword_rate=0.5)
    assert _transient_bytes(run) <= TRANSIENT_CAP


@pytest.mark.parametrize("code", [
    # n = 256: a chunk of 256 trials holds 65,536 source cells, whose
    # uniforms are computed from 128-bit PCG64 states as uint64 words
    dict(n=256, rate=4 / 256, delta=0.1, engine="explicit",
         codeword_rate=8 / 256),
    # n = 800: the sampled engine's sources, drawn by the trial generators
    # and tested in one pass per chunk, are charged n cells per trial too
    dict(n=800, rate=0.46, delta=0.02, engine="sampled"),
], ids=["explicit", "sampled"])
def test_long_source_transient_memory_is_bounded(example1_pair, code):
    ens, ext = example1_pair
    run = lambda: simulate_two_node(ens, ext, trials=600, seed=3, **code)
    assert _transient_bytes(run) <= TRANSIENT_CAP


def test_scan_blocks_do_not_grow_with_the_codebook(example1_pair):
    # one source against 32,768 codewords of length 48: a scan block is
    # sized by its one-hot codeword rows as well as by its counts
    ens, ext = example1_pair
    p_xy = ext.joint.table
    cb = build_codebook(CodebookParams(n=48, bin_rate=0.5,
                                       codeword_rate=0.3125, delta=0.05,
                                       seed=4), p_xy.sum(axis=0))
    assert cb.codewords.shape == (32768, 48)
    x_seq = np.random.default_rng(4).integers(0, 2, size=48).astype(np.int8)
    never = 0.0  # no codeword is within radius 0: every block is scanned
    scans = [lambda: encode_generic(cb, p_xy, never, x_seq),
             lambda: protocol._pair_search(
                 cb.codewords, np.zeros((1, 48), dtype=np.int8), x_seq[None],
                 p_xy[:, :, None], never)]
    for scan in scans:
        tracemalloc.start()
        try:
            scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= TRANSIENT_CAP / 2


def test_wrapped_names_are_not_reached_per_trial(example1_pair, monkeypatch):
    calls = {"DensityOperator": 0, "trace_norm_distance": 0}

    def plain_wrapper(name):
        original = getattr(protocol, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(protocol, name, plain_wrapper(name))
    ens, ext = example1_pair
    ens_c, ext_c = cascade_flip_pair(0.1)
    runs = [
        simulate_two_node(ens, ext, n=6, rate=2.0 / 6, trials=300, seed=1,
                          delta=0.2, engine="explicit", codeword_rate=0.5),
        simulate_two_node(ens, ext, n=40, rate=0.5, trials=20, seed=1,
                          delta=0.05, engine="sampled"),
        simulate_cascade(ens_c, ext_c, n=14, rate12=1.2, rate23=0.6,
                         trials=20, seed=1, delta=0.22, engine="explicit",
                         codeword_rate_y=0.5, codeword_rate_z=0.45),
    ]
    assert calls == {"DensityOperator": 0, "trace_norm_distance": 0}
    # the public paths still go through the wrapped names
    runs[0][0].slot_states(ext.atoms_a, ext.atoms_b)
    converse_check(runs[2], ens_c, ext_c, rate=1.2, rate23=0.6)
    assert calls["DensityOperator"] == 6
    assert calls["trace_norm_distance"] == 2

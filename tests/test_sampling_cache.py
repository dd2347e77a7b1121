"""The sampled engine's per-key class-summary cache.

Cached or not, a fixed ``(seed, params, engine)`` must give the same
traces field for field: the cache only saves the rebuild of a type grid.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qcoord import sampling
from qcoord.classical import Alphabet, JointPmf
from qcoord.coordination import CqEnsemble, Extension, validate_extension
from qcoord.protocol import derandomize, simulate_two_node
from qcoord.quantum import DensityOperator, tensor

from test_golden_traces import example1, three_symbol, trace_record

# (pair, simulate_two_node keywords): between them these runs draw from
# every class a trial reads (encode hit, in-bin confusion, encoder
# fallback, atypical source)
RUNS = {
    "confusion_n200": (example1, dict(n=200, rate=0.1, trials=30, seed=3,
                                      delta=0.02)),
    "fallback_n200": (example1, dict(n=200, rate=0.02, trials=30, seed=3,
                                     delta=0.02, codeword_rate=0.2)),
    "hit_n800": (example1, dict(n=800, rate=0.46, trials=20, seed=5,
                                delta=0.02)),
    "three_symbol_n40": (three_symbol, dict(n=40, rate=1.6, trials=6,
                                            seed=7, delta=0.1)),
}
P_EXAMPLE1 = np.array([[0.5, 0.0], [0.25, 0.25]])   # example1's joint


@pytest.fixture(autouse=True)
def cold_cache():
    sampling.clear_summary_cache()
    yield
    sampling.clear_summary_cache()


def _records(name, **extra):
    pair, kwargs = RUNS[name]
    ens, ext = pair()
    traces = simulate_two_node(ens, ext, engine="sampled",
                               **dict(kwargs, **extra))
    return [trace_record(t) for t in traces]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cold_warm_and_cleared_cache_give_the_same_traces(name):
    cold = _records(name)
    first = sampling.summary_cache_info()
    assert first.misses > 0 and first.entries > 0
    warm = _records(name)
    assert sampling.summary_cache_info().hits >= first.hits + first.misses
    sampling.clear_summary_cache()
    assert sampling.summary_cache_info().entries == 0
    cleared = _records(name)
    assert warm == cold
    assert cleared == cold


@pytest.mark.parametrize("other", [dict(delta=0.03), dict(rate=0.3),
                                   dict(n=201)], ids=str)
def test_keys_of_other_runs_do_not_leak(other):
    # source types recur across these runs; only the radii (delta) or
    # nothing of the key (rate, n) differ, so a warm cache must hold
    # entries that are exactly right or absent
    cold = _records("confusion_n200")
    _records("confusion_n200", **other)
    sampling.clear_summary_cache()
    _records("confusion_n200", **other)
    assert sampling.summary_cache_info().entries > 0
    assert _records("confusion_n200") == cold


def test_targets_with_the_same_source_do_not_share_entries():
    ens, ext = example1()
    kwargs = dict(RUNS["confusion_n200"][1], engine="sampled")
    cold = [trace_record(t) for t in simulate_two_node(ens, ext, **kwargs)]
    # a second target on the same source: Y copies X
    x, y = ext.joint.variables
    copy = Extension(JointPmf([x, y], np.eye(2) * 0.5), ext.atoms_a,
                     [DensityOperator.pure([1, 0]),
                      DensityOperator.pure([0, 1])], kind="two-node")
    copy_ens = CqEnsemble(ens.source, [tensor(a, b) for a, b in
                                       zip(ext.atoms_a, copy.atoms_b)],
                          {"A": 2, "B": 2})
    assert validate_extension(copy, copy_ens).passed
    sampling.clear_summary_cache()
    simulate_two_node(copy_ens, copy, **kwargs)
    warmed = sampling.summary_cache_info().entries
    assert [trace_record(t) for t in simulate_two_node(ens, ext, **kwargs)] \
        == cold
    assert sampling.summary_cache_info().entries > warmed


@pytest.mark.parametrize("name", sorted(RUNS))
def test_thread_count_does_not_change_traces(name):
    one = _records(name, threads=1)
    sampling.clear_summary_cache()
    assert _records(name, threads=2) == one
    assert _records(name, threads=2) == one     # warm, two threads


def test_thread_count_does_not_change_derandomize():
    ens, ext = example1()

    def run(threads):
        rep = derandomize(ens, ext, n=800, rate=0.46, trials=8, num_seeds=3,
                          epsilon=0.1, seed=5, delta=0.02, keep_traces=True,
                          engine="sampled", threads=threads)
        return ([[trace_record(t) for t in group]
                 for group in rep.traces_by_seed],
                rep.seeds, rep.distances.tolist(), rep.best_index)

    one = run(1)
    sampling.clear_summary_cache()
    assert run(2) == one


def test_byte_bound_evicts_without_changing_traces(monkeypatch):
    want = _records("three_symbol_n40")
    sampling.clear_summary_cache()
    monkeypatch.setattr(sampling._SUMMARIES, "budget", 1)
    assert _records("three_symbol_n40") == want
    info = sampling.summary_cache_info()
    assert info.misses > 1 and info.entries == 1   # only the newest stays


def test_least_recently_used_summary_is_evicted_first(monkeypatch):
    keys = [np.array([k, 200 - k]) for k in (100, 101, 102)]

    def lookup(i):
        _, grid = sampling.class_summary(keys[i], P_EXAMPLE1, 0.04, 0.16)
        return "miss" if grid is not None else "hit"

    assert [lookup(0), lookup(1)] == ["miss", "miss"]
    # room for exactly these two summaries
    monkeypatch.setattr(sampling._SUMMARIES, "budget",
                        sampling.summary_cache_info().nbytes)
    assert lookup(0) == "hit"        # key 1 is now the oldest
    assert lookup(2) == "miss"       # evicts key 1
    assert sampling.summary_cache_info().entries == 2
    assert [lookup(0), lookup(1)] == ["hit", "miss"]


def test_grid_too_large_raises_on_first_trial_and_caches_nothing(
        monkeypatch):
    x = Alphabet("X", [f"x{i}" for i in range(5)])
    y = Alphabet("Y", [f"y{i}" for i in range(5)])
    basis = [DensityOperator.basis_state(5, i) for i in range(5)]
    ens = CqEnsemble(JointPmf([x], [0.2] * 5),
                     [tensor(b, b) for b in basis], {"A": 5, "B": 5})
    ext = Extension(JointPmf([x, y], np.eye(5) * 0.2), basis, basis,
                    kind="two-node")
    assert validate_extension(ext, ens).passed
    _records("hit_n800")                  # a warm cache of other keys
    entries = sampling.summary_cache_info().entries
    built = []
    grid_cls = sampling.TypeGrid

    def spy(*args, **kwargs):
        built.append(args[0])
        return grid_cls(*args, **kwargs)

    monkeypatch.setattr(sampling, "TypeGrid", spy)
    with pytest.raises(sampling.GridTooLarge):
        simulate_two_node(ens, ext, n=900, rate=2.4, trials=3, seed=0,
                          delta=0.02, engine="sampled")
    assert len(built) == 1
    assert sampling.summary_cache_info().entries == entries


def test_grid_mass_is_checked_once_per_key():
    summary, grid = sampling.class_summary(np.array([100, 100]), P_EXAMPLE1,
                                           0.04, 0.16)
    assert grid is not None
    total = np.logaddexp(summary.log_e, summary.log_ne)
    assert abs(total) <= sampling.LOG_MASS_TOL
    again, grid = sampling.class_summary(np.array([100, 100]), P_EXAMPLE1,
                                         0.04, 0.16)
    assert again is summary and grid is None


def test_corrupted_row_table_trips_the_mass_check(monkeypatch):
    row_cache = sampling._row_cache

    def corrupted(n_a, num_u, pu_key):
        comps, logp = row_cache(n_a, num_u, pu_key)
        return comps, logp + 1e-6

    monkeypatch.setattr(sampling, "_row_cache", corrupted)
    with pytest.raises(sampling.GridMassError, match="log-mass"):
        sampling.class_summary(np.array([100, 100]), P_EXAMPLE1, 0.04, 0.16)
    assert sampling.summary_cache_info().entries == 0
    ens, ext = example1()
    with pytest.raises(sampling.GridMassError):
        simulate_two_node(ens, ext, n=200, rate=0.46, trials=1, seed=3,
                          delta=0.02, engine="sampled")


def _reference_grid(x_counts, p_joint, encode_radius, decode_radius):
    """logp and masks built by broadcasting one row at a time."""
    grid = sampling.TypeGrid(x_counts, p_joint, encode_radius, decode_radius)
    shape, n = grid.shape, grid.n
    logp, tv_joint = np.zeros(shape), np.zeros(shape)
    for a, (comps, lp) in enumerate(grid.rows):
        bshape = [1] * len(shape)
        bshape[a] = comps.shape[0]
        dev = np.abs(comps / n - p_joint[a]).sum(axis=1)
        logp = logp + lp.reshape(bshape)
        tv_joint = tv_joint + dev.reshape(bshape)
    marg_dev = np.zeros(shape)
    for u in range(p_joint.shape[1]):
        m_u = np.zeros(shape)
        for a, (comps, _) in enumerate(grid.rows):
            bshape = [1] * len(shape)
            bshape[a] = comps.shape[0]
            m_u = m_u + comps[:, u].reshape(bshape)
        marg_dev = marg_dev + np.abs(m_u / n - grid.p_u[u])
    return (grid, logp.ravel(), (0.5 * tv_joint < encode_radius).ravel(),
            (0.5 * marg_dev < decode_radius).ravel())


def test_grid_matches_the_row_by_row_reference():
    rng = np.random.default_rng(0)
    cases = [(np.array([100, 100]), P_EXAMPLE1, 0.04, 0.16),
             (np.array([14, 13, 13]), np.diag([0.5, 0.25, 0.25]), 0.2, 0.8)]
    for _ in range(12):
        nx, nu = rng.integers(1, 4, size=2)
        p = rng.random((nx, nu)) * (rng.random((nx, nu)) > 0.3)
        p[0, 0] += 0.1
        p /= p.sum()
        counts = rng.multinomial(int(rng.integers(5, 25)), p.sum(axis=1))
        cases.append((counts, p, float(rng.random() * 0.5),
                      float(rng.random())))
    for case in cases:
        grid, logp, mask_e, mask_d = _reference_grid(*case)
        assert grid.logp.tobytes() == logp.tobytes()
        assert np.array_equal(grid.mask_e, mask_e)
        assert np.array_equal(grid.mask_d, mask_d)


def test_concurrent_lookups_lose_no_update():
    keys = [np.array([k, 60 - k]) for k in range(24, 36)]
    workers, rounds = 8, 200

    def lookups():
        for i in range(rounds):
            for k in keys:
                sampling.class_summary(k, P_EXAMPLE1, 0.1, 0.4)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(lookups) for _ in range(workers)]
            for f in futures:
                f.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    info = sampling.summary_cache_info()
    assert info.hits + info.misses == workers * rounds * len(keys)
    assert info.entries == len(keys)
    cached = [sampling.class_summary(k, P_EXAMPLE1, 0.1, 0.4) for k in keys]
    assert all(grid is None for _, grid in cached)
    assert info.nbytes == sum(summary.nbytes for summary, _ in cached)

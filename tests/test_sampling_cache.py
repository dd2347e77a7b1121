"""The sampled engine's one cache of type grids, row and codeword-type tables.

Cached or not, a fixed ``(seed, params, engine)`` must give the same
traces field for field: the cache only saves the rebuild of a table.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import chisquare

from qcoord import protocol, sampling
from qcoord.classical import Alphabet, JointPmf
from qcoord.coordination import CqEnsemble, Extension, validate_extension
from qcoord.protocol import derandomize, simulate_two_node
from qcoord.quantum import DensityOperator, tensor

from oracles import logsumexp_finite, reference_grid
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
TYPE_GRID = sampling.TypeGrid       # before any test spies on it


@pytest.fixture(autouse=True)
def cold_cache():
    sampling.clear_summary_cache()
    yield
    sampling.clear_summary_cache()


def _grids():
    """The cached type grids, in the order they were kept."""
    return [t for t in sampling._SUMMARIES._entries.values()
            if isinstance(t, TYPE_GRID)]


def _spy_grids(monkeypatch):
    """A list that records the x counts of every ``TypeGrid`` built."""
    built, grid_cls = [], sampling.TypeGrid

    def spy(*args, **kwargs):
        built.append(args[0])
        return grid_cls(*args, **kwargs)

    monkeypatch.setattr(sampling, "TypeGrid", spy)
    return built


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
    again = sampling.summary_cache_info()
    assert again.misses == first.misses and again.hits > first.hits
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
def test_chunk_size_does_not_change_traces(name, monkeypatch):
    # every run fits one default chunk; one trial per chunk must draw and
    # finish the same traces, on a warm cache and on a cold one
    whole = _records(name)
    monkeypatch.setattr(protocol, "CHUNK_CELLS", 1)
    assert _records(name) == whole
    sampling.clear_summary_cache()
    assert _records(name) == whole


def test_chunk_size_does_not_change_derandomize(monkeypatch):
    ens, ext = example1()

    def run():
        rep = derandomize(ens, ext, n=800, rate=0.46, trials=8, num_seeds=3,
                          epsilon=0.1, seed=5, delta=0.02, keep_traces=True,
                          engine="sampled")
        return ([[trace_record(t) for t in group]
                 for group in rep.traces_by_seed],
                rep.seeds, rep.distances.tolist(), rep.best_index)

    whole = run()
    monkeypatch.setattr(protocol, "CHUNK_CELLS", 1)
    sampling.clear_summary_cache()
    assert run() == whole


def test_byte_bound_evicts_without_changing_traces(monkeypatch):
    want = _records("three_symbol_n40")
    sampling.clear_summary_cache()
    monkeypatch.setattr(sampling._SUMMARIES, "budget", 1)
    assert _records("three_symbol_n40") == want
    info = sampling.summary_cache_info()
    # each grid lookup leaves the cache over its 1 byte and empties it
    assert info.misses > 1 and info.entries == 0


def test_grids_share_their_rows_arrays():
    # x counts (3, 2, 2) and (3, 1, 3) share their first row; the cache
    # charges each key for e's arrays only
    p = three_symbol()[1].joint.table
    one = sampling.class_summary([3, 2, 2], p, 0.3, 1.0)
    two = sampling.class_summary([3, 1, 3], p, 0.3, 1.0)
    assert one.dev[0] is two.dev[0] and one.keys[0] is two.keys[0]
    assert one.dev[1] is not two.dev[1]
    assert one.nbytes == sampling.SUMMARY_OVERHEAD + sum(
        a.nbytes for a in (one.logp, *one.encode_table))


def test_cached_keys_hold_only_their_encode_class():
    # 500 trials of the three-symbol target at n = 100: 218 keys, which
    # held 7.5 MB when each kept its rows' deviation and key arrays
    ens, ext = three_symbol()
    simulate_two_node(ens, ext, n=100, rate=1.6, trials=500, seed=3,
                      delta=0.02, engine="sampled")
    grids = _grids()
    assert len(grids) > 200 and sum(g.nbytes for g in grids) < 2 ** 20
    assert sampling.summary_cache_info().nbytes <= sampling.SUMMARY_CACHE_BYTES


def test_clear_empties_the_row_tables_too(monkeypatch):
    sampling.class_summary(np.array([100, 100]), P_EXAMPLE1, 0.04, 0.16)
    sampling.clear_summary_cache()
    calls = []
    compositions = sampling._compositions

    def spy(total, parts):
        calls.append(total)
        return compositions(total, parts)

    monkeypatch.setattr(sampling, "_compositions", spy)
    sampling.class_summary(np.array([100, 100]), P_EXAMPLE1, 0.04, 0.16)
    assert {100, 200} <= set(calls)     # the rows and the codeword types
    assert sampling.summary_cache_info().entries > 1


def _grid_key(counts):
    """Example 1's grid key for source counts ``counts``."""
    return np.array(counts), P_EXAMPLE1, 0.04, 0.16


def test_a_lookup_empties_the_cache_only_above_the_budget(monkeypatch):
    for counts in ([100, 100], [101, 99]):
        sampling.class_summary(*_grid_key(counts))
    warm = sampling.summary_cache_info()
    monkeypatch.setattr(sampling._SUMMARIES, "budget", warm.nbytes)
    sampling.class_summary(*_grid_key([100, 100]))
    assert sampling.summary_cache_info() == warm._replace(
        hits=warm.hits + 1, budget=warm.nbytes)
    monkeypatch.setattr(sampling._SUMMARIES, "budget", warm.nbytes - 1)
    sampling.class_summary(*_grid_key([100, 100]))
    info = sampling.summary_cache_info()
    assert (info.hits, info.misses) == (warm.hits + 2, warm.misses)
    assert (info.entries, info.nbytes) == (0, 0)


def _same_grid(grid, want):
    """Whether two grids hold the same e cells and class log-probs, bit
    for bit."""
    arrays = [(g.logp, *(g.encode_table or ())) for g in (grid, want)]
    return ([a.tobytes() for a in arrays[0]]
            == [a.tobytes() for a in arrays[1]]
            and all(grid.log_prob(c) == want.log_prob(c)
                    for c in ("e", "ne", "ne_d", "d", "nd")))


def _cached_arrays():
    """The ids of every array that a cache entry holds, directly or as a
    codeword-type table's."""
    held = set()
    for t in sampling._SUMMARIES._entries.values():
        arrays = (t if isinstance(t, tuple) else
                  [t.types, t.logp] if isinstance(t, sampling._CodewordTypes)
                  else [])
        held.update(map(id, arrays))
    return held


def _check_cached_grids_hold_cached_tables():
    held, entries = _cached_arrays(), sampling._SUMMARIES._entries.values()
    for grid in _grids():
        assert any(grid.types is t for t in entries)
        for a in (*(a for row in grid.rows for a in row), *grid.dev,
                  *grid.keys, grid.types.types, grid.types.logp):
            assert id(a) in held


def test_a_build_that_spans_an_emptying_is_not_kept(monkeypatch):
    # a grid builds its codeword types (the row table of 201 symbols),
    # then its rows of 100 and 101 symbols: the cache empties while the
    # second row is built, after the grid's first tables were kept
    key = _grid_key([100, 101])
    want = TYPE_GRID(*key)
    sampling.clear_summary_cache()
    compositions = sampling._compositions

    def emptying(total, parts):
        if total == 101:
            sampling.clear_summary_cache()
        return compositions(total, parts)

    monkeypatch.setattr(sampling, "_compositions", emptying)
    assert _same_grid(sampling.class_summary(*key), want)
    assert _grids() == []
    _check_cached_grids_hold_cached_tables()
    monkeypatch.setattr(sampling, "_compositions", compositions)
    assert _same_grid(sampling.class_summary(*key), want)
    assert len(_grids()) == 1
    _check_cached_grids_hold_cached_tables()


@pytest.mark.parametrize("budget", [2 ** 20, 2 * 2 ** 20])
def test_eviction_keeps_every_table_a_cached_grid_holds(budget,
                                                        monkeypatch):
    # a full cache of grids over many source types: an evicted row table
    # that a cached grid still held would stay in memory uncharged, and
    # the next grid on that row would build and charge a second copy
    monkeypatch.setattr(sampling._SUMMARIES, "budget", budget)
    built = _spy_grids(monkeypatch)
    ens, ext = three_symbol()
    simulate_two_node(ens, ext, n=100, rate=1.6, trials=300, seed=3,
                      delta=0.02, engine="sampled")
    assert len(_grids()) < len(built) // 2      # most grids were evicted
    assert sampling.summary_cache_info().nbytes <= budget
    held, entries = _cached_arrays(), sampling._SUMMARIES._entries.values()
    for grid in _grids():
        assert any(grid.types is t for t in entries)
        for a in (*(a for row in grid.rows for a in row), *grid.dev,
                  *grid.keys, grid.types.types, grid.types.logp):
            assert id(a) in held


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
    built = _spy_grids(monkeypatch)
    with pytest.raises(sampling.GridTooLarge):
        simulate_two_node(ens, ext, n=900, rate=2.4, trials=3, seed=0,
                          delta=0.02, engine="sampled")
    assert len(built) == 1
    assert sampling.summary_cache_info().entries == entries


def test_grid_budget_admits_a_grid_of_its_size(monkeypatch):
    # one source row of 30 symbols: 31 codeword types, and 31 candidates
    # in the encode class's enumeration
    key = (np.array([30]), np.array([[0.5, 0.5]]), 0.1, 0.3)
    monkeypatch.setattr(sampling, "GRID_BUDGET", 31)
    sampling.TypeGrid(*key)
    sampling.clear_summary_cache()
    monkeypatch.setattr(sampling, "GRID_BUDGET", 30)
    with pytest.raises(sampling.GridTooLarge, match="needs 31 "):
        sampling.TypeGrid(*key)


def test_grid_mass_is_checked_once_per_key(monkeypatch):
    built = _spy_grids(monkeypatch)
    grid = sampling.class_summary(np.array([100, 100]), P_EXAMPLE1, 0.04,
                                  0.16)
    assert len(built) == 1
    for log_mass in (np.logaddexp(grid.log_e, grid.log_ne),
                     np.logaddexp(grid.log_d, grid.log_nd)):
        assert abs(log_mass) <= sampling.LOG_MASS_TOL
    first = sampling.summary_cache_info()
    again = sampling.class_summary(np.array([100, 100]), P_EXAMPLE1, 0.04,
                                   0.16)
    assert again is grid and len(built) == 1
    info = sampling.summary_cache_info()
    assert (info.hits, info.misses) == (first.hits + 1, first.misses)


def test_corrupted_row_table_trips_the_mass_check(monkeypatch):
    row_cache = sampling._row_cache

    def corrupted(n_a, pu_key):
        comps, logp = row_cache(n_a, pu_key)
        return comps, logp + 1e-6

    monkeypatch.setattr(sampling, "_row_cache", corrupted)
    with pytest.raises(sampling.GridMassError, match="log-mass"):
        sampling.class_summary(np.array([100, 100]), P_EXAMPLE1, 0.04, 0.16)
    # the sound row tables under the corruption may stay; no grid does
    assert _grids() == []
    ens, ext = example1()
    with pytest.raises(sampling.GridMassError):
        simulate_two_node(ens, ext, n=200, rate=0.46, trials=1, seed=3,
                          delta=0.02, engine="sampled")


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
        grid = sampling.TypeGrid(*case)
        logp, mask_e, mask_d, counts = reference_grid(*case)
        # e: its cells, log-mass and sampling table are bit for bit the
        # whole grid's
        idx = np.flatnonzero(mask_e)
        assert grid.logp.tobytes() == logp[idx].tobytes()
        assert grid.log_e == logsumexp_finite(logp[idx])
        if math.isfinite(grid.log_e):
            table = (idx.astype(np.int32),
                     np.cumsum(np.exp(logp[idx] - logp[idx].max())))
            assert [a.tobytes() for a in grid.encode_table] == \
                [a.tobytes() for a in table]
        else:
            assert grid.encode_table is None
        for cls, mask in (("ne", ~mask_e), ("ne_d", mask_d & ~mask_e),
                          ("d", mask_d), ("nd", ~mask_d)):
            want = logsumexp_finite(logp[mask])
            got = grid.log_prob(cls)
            assert got == want or abs(got - want) <= 1e-12, (case, cls)
        # every cell is decodable exactly when its codeword type is
        types = grid.types
        t = np.searchsorted(types.keys, counts.sum(axis=1) @ types.radix)
        assert np.array_equal(types.mask_d[t], mask_d)


def test_concurrent_lookups_lose_no_update():
    keys = [np.array([k, 60 - k]) for k in range(24, 36)]
    workers, rounds = 8, 200

    def lookups(rounds):
        for i in range(rounds):
            for k in keys:
                sampling.class_summary(k, P_EXAMPLE1, 0.1, 0.4)

    def threaded(rounds):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(lookups, rounds)
                       for _ in range(workers)]
            for f in futures:
                f.result(timeout=120)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # cold, builds of one key may race: one entry, charged once
        threaded(1)
        assert len(_grids()) == len(keys)
        warm = sampling.summary_cache_info()
        assert warm.nbytes == sum(map(sampling._charge,
                                      sampling._SUMMARIES._entries.values()))
        # warm, a lookup is one hit: a grid miss would also count its
        # row tables' lookups, once per racing build
        threaded(rounds)
    finally:
        sys.setswitchinterval(interval)
    info = sampling.summary_cache_info()
    assert (info.hits + info.misses - warm.hits - warm.misses
            == workers * rounds * len(keys))
    assert (info.misses, info.entries) == (warm.misses, warm.entries)
    assert len(_grids()) == len(keys)
    assert info.nbytes == sum(map(sampling._charge,
                                  sampling._SUMMARIES._entries.values()))


def test_concurrent_lookups_with_trims_return_exact_grids(monkeypatch):
    # a budget of half the warm bytes: the threads' lookups keep emptying
    # the cache, also while other threads build
    keys = [np.array([k, 60 - k]) for k in range(24, 36)]
    want = [TYPE_GRID(k, P_EXAMPLE1, 0.1, 0.4) for k in keys]
    sampling.clear_summary_cache()
    for k in keys:
        sampling.class_summary(k, P_EXAMPLE1, 0.1, 0.4)
    budget = sampling.summary_cache_info().nbytes // 2
    monkeypatch.setattr(sampling._SUMMARIES, "budget", budget)
    emptyings = sampling._SUMMARIES._emptyings

    def lookups(rounds):
        return [_same_grid(sampling.class_summary(k, P_EXAMPLE1, 0.1, 0.4),
                           w)
                for _ in range(rounds) for k, w in zip(keys, want)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lookups, 10) for _ in range(8)]
            same = [s for f in futures for s in f.result(timeout=120)]
    finally:
        sys.setswitchinterval(interval)
    assert len(same) == 8 * 10 * len(keys) and all(same)
    assert sampling._SUMMARIES._emptyings > emptyings
    info = sampling.summary_cache_info()
    assert info.nbytes == sum(map(sampling._charge,
                                  sampling._SUMMARIES._entries.values()))
    assert info.nbytes <= budget    # each insert is followed by a trim
    _check_cached_grids_hold_cached_tables()


@pytest.mark.parametrize("name", ["fallback_n200", "three_symbol_n40"])
def test_warm_rerun_builds_no_grid(name, monkeypatch):
    # encoder fallbacks and atypical sources draw classes other than e;
    # a cache hit serves them without building anything
    cold = _records(name)
    built = _spy_grids(monkeypatch)
    assert _records(name) == cold
    assert built == []


def _half_deviation(cell, p_joint):
    """Half a cell's joint deviation from ``p_joint``, its rows added in
    the grid's order: as an encode radius, the cell is just outside e."""
    n, dev = np.sum(cell), 0.0
    for row, p_row in zip(np.asarray(cell), p_joint):
        dev = dev + np.abs(row / n - p_row).sum()
    return 0.5 * dev


# (x_counts, p_joint, encode radius, decode radius): every class is
# non-empty on the first key; the second has an empty nd; the third's
# encode radius is half a cell's deviation, which leaves that cell and
# three of equal deviation, over a third of ne_d's mass, just outside e
CLASS_KEYS = {"two_rows": (np.array([8, 6]), P_EXAMPLE1, 0.15, 0.3),
              "empty_nd": (np.array([3, 2, 2]), np.diag([0.5, 0.25, 0.25]),
                           0.3, 1.0),
              "radius_edge": (np.array([8, 6]), P_EXAMPLE1, _half_deviation(
                  [[6, 2], [1, 5]], P_EXAMPLE1), 0.3)}


@pytest.mark.parametrize("key, cls", [
    ("two_rows", "ne_d"), ("two_rows", "d"), ("two_rows", "nd"),
    ("two_rows", "ne_nd"), ("empty_nd", "ne_nd"), ("radius_edge", "ne_d")])
def test_class_draws_follow_the_whole_grid_law(key, cls):
    draws = 100_000
    logp, mask_e, mask_d, counts = reference_grid(*CLASS_KEYS[key])
    mask = {"ne_d": mask_d & ~mask_e, "d": mask_d, "nd": ~mask_d,
            "ne_nd": ~mask_d & ~mask_e}[cls]
    if key == "empty_nd":
        assert not mask.any()
        mask = ~mask_e          # ne_nd falls back to ne
    grid = sampling.TypeGrid(*CLASS_KEYS[key])
    rng = np.random.default_rng(2026)
    cell = {c.tobytes(): i for i, c in enumerate(counts)}
    hits = np.bincount([cell[grid.sample_counts(rng, cls).tobytes()]
                        for _ in range(draws)], minlength=logp.size)
    assert hits[~mask].sum() == 0
    expected = draws * np.exp(logp[mask] - logsumexp_finite(logp[mask]))
    observed = hits[mask]
    small = expected < 5          # pooled into one cell
    observed, expected = observed[~small].tolist(), expected[~small].tolist()
    if small.any():
        observed.append(hits[mask][small].sum())
        expected.append(draws - sum(expected))
    assert chisquare(observed, expected).pvalue >= 1e-3

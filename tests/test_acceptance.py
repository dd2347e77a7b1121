"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import time

import numpy as np
import pytest

from qcoord.coordination import two_node_rate, validate_extension
from qcoord.optimizer import optimize
from qcoord.protocol import (
    converse_check,
    derandomize,
    simulate_cascade,
    simulate_two_node,
)
from qcoord.quantum import trace_norm_distance

from conftest import (
    KET0,
    KETP,
    cascade_flip_pair,
    degenerate_z_cascade,
    phase_flip_pair,
)
from oracles import (
    binary_entropy,
    expected_state_codebook_average,
    expected_state_fixed_codebook,
    grid_min_mutual_information,
)

DELTA = 0.02
SEED = 5
ACHIEVABLE_RATE = 0.46
STARVED_RATE = 0.16
N_GRID = (200, 400, 800)
TRIALS = 200


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def example1(request):
    # module-scoped copy of the conftest fixture builders
    from conftest import KET1, ETA
    from qcoord.classical import Alphabet, JointPmf, pmf_from_assignments
    from qcoord.coordination import CqEnsemble, Extension
    from qcoord.quantum import tensor
    x = Alphabet("X", ["x0", "x1"])
    y = Alphabet("Y", ["y0", "y+"])
    ens = CqEnsemble(JointPmf([x], [0.5, 0.5]),
                     [tensor(KET0, KET0), tensor(KET1, ETA)],
                     {"A": 2, "B": 2})
    joint = pmf_from_assignments([x, y], {
        ("x0", "y0"): 0.5, ("x1", "y0"): 0.25, ("x1", "y+"): 0.25})
    ext = Extension(joint, [KET0, KET1], [KET0, KETP], kind="two-node")
    assert validate_extension(ext, ens).passed
    return ens, ext


@pytest.fixture(scope="module")
def example1_three(request):
    from conftest import KET1
    from qcoord.classical import Alphabet, JointPmf, pmf_from_assignments
    from qcoord.coordination import CqEnsemble, Extension
    from qcoord.quantum import tensor
    x = Alphabet("X", ["x0", "x1", "x2"])
    y = Alphabet("Y", ["y0", "y1", "y2"])
    ens = CqEnsemble(
        JointPmf([x], [0.5, 0.25, 0.25]),
        [tensor(KET0, KET0), tensor(KET1, KET0), tensor(KET1, KETP)],
        {"A": 2, "B": 2})
    joint = pmf_from_assignments([x, y], {
        ("x0", "y0"): 0.5, ("x1", "y1"): 0.25, ("x2", "y2"): 0.25})
    ext = Extension(joint, [KET0, KET1, KET1], [KET0, KET0, KETP],
                    kind="two-node")
    assert validate_extension(ext, ens).passed
    return ens, ext


@pytest.fixture(scope="module")
def achievable_runs(example1):
    """Criterion-5 simulation cells, shared by criteria 5, 6 and 8."""
    ens, ext = example1
    runs = {}
    start = time.time()
    for n in N_GRID:
        runs[(ACHIEVABLE_RATE, n)] = simulate_two_node(
            ens, ext, n=n, rate=ACHIEVABLE_RATE, trials=TRIALS, seed=SEED,
            delta=DELTA)
    runs[(STARVED_RATE, 800)] = simulate_two_node(
        ens, ext, n=800, rate=STARVED_RATE, trials=TRIALS, seed=SEED,
        delta=DELTA)
    runs["wall_time"] = time.time() - start
    return runs


@pytest.fixture(scope="module")
def derand_report(example1):
    """Criterion-7 derandomization at the achievable setting (50 seeds)."""
    ens, ext = example1
    start = time.time()
    report_ = derandomize(ens, ext, n=800, rate=ACHIEVABLE_RATE, trials=40,
                          num_seeds=50, epsilon=0.1, seed=SEED, delta=DELTA,
                          keep_traces=True)
    report_.wall_time = time.time() - start
    return report_


def test_criterion_1_copy_decomposition_rate(example1_three):
    start = time.time()
    _, ext = example1_three
    rate = two_node_rate(ext)
    elapsed = time.time() - start
    ok = abs(rate - 1.5) <= 1e-9 and elapsed < 1.0
    report(1, ok, f"two_node_rate = {rate!r} (target 1.5 +- 1e-9), "
                  f"{elapsed:.3f}s")


def test_criterion_2_shared_atom_rate(example1):
    start = time.time()
    _, ext = example1
    rate = two_node_rate(ext)
    closed_form = binary_entropy(0.25) - 0.5
    elapsed = time.time() - start
    ok = (abs(rate - 0.311278) <= 5e-5
          and abs(rate - closed_form) <= 1e-9
          and elapsed < 1.0)
    report(2, ok, f"two_node_rate = {rate:.6f} (printed value 0.3112, "
                  f"closed form {closed_form:.6f}), {elapsed:.3f}s")


def test_criterion_3_phase_flip_sweep():
    start = time.time()
    worst = 0.0
    for k in range(1, 11):
        p = 0.05 * k
        _, ext = phase_flip_pair(p)
        rate = two_node_rate(ext)
        worst = max(worst, abs(rate - (1 - binary_entropy(p))))
    _, ext_half = phase_flip_pair(0.5)
    zero_exact = two_node_rate(ext_half)
    elapsed = time.time() - start
    ok = worst <= 1e-9 and zero_exact == 0.0 and elapsed < 1.0
    report(3, ok, f"max |rate - (1-h(p))| = {worst:.2e}, rate(p=1/2) = "
                  f"{zero_exact!r}, {elapsed:.3f}s")


def test_criterion_4_optimizer_with_grid_oracle(example1):
    start = time.time()
    ens, _ = example1
    res = optimize(ens, kind="two-node", max_merge_order=3)
    assert res.feasible
    # brute-force oracle over conditional grids for every atom subset of
    # size <= 3 drawn from the same candidate pool
    import itertools
    pool = list(res.atoms.atoms_b)
    etas = [ens.conditional_part(i, "B").matrix for i in range(2)]
    oracle_best = np.inf
    for size in (1, 2, 3):
        for subset in itertools.combinations(range(len(pool)), size):
            mats = [pool[i].matrix for i in subset]
            val = grid_min_mutual_information(ens.source.table, mats, etas,
                                              resolution=1e-3)
            if val is not None:
                oracle_best = min(oracle_best, val)
    elapsed = time.time() - start
    ok = (res.value <= 0.3113 + 1e-3 and res.value < 1.5
          and oracle_best >= res.value - 1e-3 and elapsed < 30.0)
    report(4, ok, f"pipeline value = {res.value:.6f} (<= 0.3123), grid "
                  f"oracle best = {oracle_best:.6f}, {elapsed:.1f}s")


def test_criterion_5_simulation_trend(achievable_runs):
    meds = [float(np.median(achievable_runs[(ACHIEVABLE_RATE, n)]
                            .column("distance_to_target")))
            for n in N_GRID]
    med_starved = float(np.median(
        achievable_runs[(STARVED_RATE, 800)].column("distance_to_target")))
    elapsed = achievable_runs["wall_time"]
    ok = (meds[0] > meds[1] > meds[2]
          and meds[2] < 0.1
          and med_starved >= 2 * meds[2]
          and elapsed < 300.0)
    report(5, ok,
           f"medians {[round(m, 4) for m in meds]} strictly decreasing, "
           f"starved/achievable = {med_starved / meds[2]:.1f}x, "
           f"{elapsed:.1f}s")


def test_criterion_6_block_average_bound(achievable_runs):
    violations = 0
    checked = 0
    for key, traces in achievable_runs.items():
        if key == "wall_time":
            continue
        typical = traces.column("gamma_typical")
        checked += int(typical.sum())
        violations += sum(not ok for ok in
                          traces.column("block_bound_ok")[typical])
    ok = violations == 0 and checked > 0
    report(6, ok, f"{checked} typical-decode trials checked, "
                  f"{violations} violations of (1/2)||rho - tau||_1 <= gamma")


def test_criterion_7_derandomization(derand_report):
    rep = derand_report
    ok = (rep.best_below_mean
          and rep.best_distance <= rep.quantiles[25] + 1e-15
          and len(rep.seeds) == 50
          and rep.wall_time < 600.0)
    report(7, ok, f"best seed distance {rep.best_distance:.4f} <= mean "
                  f"{rep.mean_distance:.4f} and <= q25 "
                  f"{rep.quantiles[25]:.4f}, {rep.wall_time:.1f}s")


def test_criterion_8_converse(example1, achievable_runs, derand_report):
    ens, ext = example1
    violations = []
    for key, traces in achievable_runs.items():
        if key == "wall_time":
            continue
        rate, _ = key
        rep = converse_check(traces, ens, ext, rate=rate, slack=0.02)
        if not rep.passed:
            violations.append(("cell", key))
    for traces in derand_report.traces_by_seed:
        rep = converse_check(traces, ens, ext, rate=ACHIEVABLE_RATE,
                             slack=0.02)
        if not rep.passed:
            violations.append(("seed", traces[0].seed))
    # cascade runs satisfy both region inequalities with the same slack
    ens3, ext3 = cascade_flip_pair(0.1)
    casc = simulate_cascade(ens3, ext3, n=32, rate12=1.9, rate23=0.9,
                            trials=60, seed=2, delta=0.1, engine="explicit",
                            codeword_rate_y=0.35, codeword_rate_z=0.3)
    rep3 = converse_check(casc, ens3, ext3, rate=1.9, rate23=0.9, slack=0.02)
    if not rep3.passed:
        violations.append(("cascade", None))
    ok = not violations
    report(8, ok, f"{len(violations)} violations across criterion 5-7 runs "
                  f"and the cascade inequalities")


def test_criterion_9_oracle_equivalence(example1):
    start = time.time()
    ens, ext = example1
    p_joint = ext.joint.table
    a_mats = [a.matrix for a in ext.atoms_a]
    b_mats = [b.matrix for b in ext.atoms_b]
    delta = 0.2
    worst_fixed, worst_avg = 0.0, 0.0
    for n in range(2, 7):
        cw_rate = 3.0 / n  # 8 codewords at every blocklength
        # route 1: fixed codebook, source enumerated exactly
        traces = simulate_two_node(ens, ext, n=n, rate=2.0 / n,
                                   trials=10_000, seed=33, delta=delta,
                                   engine="explicit",
                                   codeword_rate=cw_rate)
        from qcoord.protocol import CodebookParams, build_codebook
        params = CodebookParams(n=n, bin_rate=2.0 / n, codeword_rate=cw_rate,
                                delta=delta, seed=33)
        cb = build_codebook(params, p_joint.sum(axis=0))
        oracle_fixed = expected_state_fixed_codebook(
            np.asarray(cb.codewords), np.asarray(cb.bins), p_joint, n,
            delta, a_mats, b_mats)
        mc_fixed = traces.column("avg_state").mean(axis=0)
        worst_fixed = max(worst_fixed,
                          trace_norm_distance(mc_fixed, oracle_fixed))
        # route 2: codebook randomness integrated analytically
        traces2 = simulate_two_node(ens, ext, n=n, rate=2.0 / n,
                                    trials=10_000, seed=34, delta=delta,
                                    engine="sampled", codeword_rate=cw_rate)
        oracle_avg = expected_state_codebook_average(
            p_joint, n, delta, num_codewords=8, num_bins=params.num_bins,
            a_mats=a_mats, b_mats=b_mats)
        mc_avg = traces2.column("avg_state").mean(axis=0)
        worst_avg = max(worst_avg, trace_norm_distance(mc_avg, oracle_avg))
    elapsed = time.time() - start
    ok = worst_fixed <= 1e-2 and worst_avg <= 1e-2 and elapsed < 120.0
    report(9, ok, f"max |MC - exact| = {worst_fixed:.2e} (fixed codebook), "
                  f"{worst_avg:.2e} (codebook-averaged), {elapsed:.1f}s")


def test_criterion_10_cascade_reduction(example1):
    ens3, ext3 = degenerate_z_cascade(example1)
    ens2, ext2 = example1
    mismatches = 0
    # sampled engine at the achievable setting
    two = simulate_two_node(ens2, ext2, n=800, rate=ACHIEVABLE_RATE,
                            trials=20, seed=SEED, delta=DELTA,
                            engine="sampled")
    casc = simulate_cascade(ens3, ext3, n=800, rate12=ACHIEVABLE_RATE,
                            rate23=0.0, trials=20, seed=SEED, delta=DELTA,
                            engine="sampled",
                            codeword_rate_y=two[0].codeword_rate,
                            codeword_rate_z=0.0, gamma_coeff=4.0)
    for a, b in zip(two, casc):
        if (a.distance_to_target != b.distance_to_target
                or a.distance_to_tau != b.distance_to_tau):
            mismatches += 1
    # explicit engine at codebook scale
    two_e = simulate_two_node(ens2, ext2, n=36, rate=0.5, trials=10, seed=9,
                              delta=0.06, engine="explicit",
                              codeword_rate=0.34)
    casc_e = simulate_cascade(ens3, ext3, n=36, rate12=0.5, rate23=0.0,
                              trials=10, seed=9, delta=0.06,
                              engine="explicit", codeword_rate_y=0.34,
                              codeword_rate_z=0.0, gamma_coeff=4.0)
    for a, b in zip(two_e, casc_e):
        if a.distance_to_target != b.distance_to_target:
            mismatches += 1
    ok = mismatches == 0
    report(10, ok, f"{mismatches} bitwise distance mismatches between "
                   f"degenerate-relay cascade and two-node runs")

"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q        (under a minute)
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import audits  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402
from qcoord import protocol  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# metric names
# ----------------------------------------------------------------------

def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracer_mod.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(W.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metric_names_appear_in_benchmark_json(trace):
    spec = _spec()
    key = "per_layer" if trace == "1" else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[key]}
    out = _bench("--workload", "optimize_cli", "--seed", "3",
                 "--seconds", "1", "--trace", trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == wanted
    if trace == "1":
        coverage = out["metrics"]["trace.coverage"]["value"]
        assert 0.9 <= coverage <= 1.0 + 1e-9
        assert out["metrics"]["optimizer.minimize.calls"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_incomplete_checkout_fails_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            with open(os.path.join(HERE, name)) as src:
                (tmp_path / "perfbench" / name).write_text(src.read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "sampled_wide", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# every audit is live
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def explicit_traces():
    wl = W.ExplicitOracle(ROOT, seed=11)
    return wl, wl._two_node(4, 30, 5), wl._cascade(6, 5)


def _typical(t, p_joint):
    """A copy whose joint type equals the target exactly, so it is typical."""
    return dataclasses.replace(t, joint_counts=p_joint * t.n)


CORRUPTIONS = {
    "counts_sum": lambda t, p: dataclasses.replace(
        t, joint_counts=t.joint_counts + 1.0),
    "ell_range": lambda t, p: dataclasses.replace(t, ell=-1),
    "ell_hat_range": lambda t, p: dataclasses.replace(t, ell_hat=10 ** 9),
    "m12_range": lambda t, p: dataclasses.replace(t, m12=10 ** 9),
    "distance_above_1": lambda t, p: dataclasses.replace(
        t, distance_to_target=1.5),
    "distance_negative": lambda t, p: dataclasses.replace(
        t, distance_to_tau=-0.5),
    "block_bound": lambda t, p: dataclasses.replace(
        _typical(t, p), distance_to_tau=t.gamma_radius + 0.05),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_trace_audit_catches_corruption(explicit_traces, name):
    wl, traces, _ = explicit_traces
    p = wl.p_joint
    for t in traces:
        assert audits.trace_failures(t, p, audits.two_node_limits(t)) == []
    bad = CORRUPTIONS[name](traces[0], p)
    assert audits.trace_failures(bad, p, audits.two_node_limits(bad))


def test_criterion6_bound_only_where_it_applies(explicit_traces):
    wl, traces, _ = explicit_traces
    p = wl.p_joint
    tvs = [0.5 * np.abs(t.joint_counts / t.n - p).sum() for t in traces]
    t, tv = next((t, tv) for t, tv in zip(traces, tvs) if tv > 0)
    # within the always-valid 2 TV bound, above a gamma just over TV
    bad = dataclasses.replace(t, gamma_radius=tv + 1e-9,
                              distance_to_tau=1.5 * tv)
    limits = audits.two_node_limits(bad)
    assert audits.trace_failures(bad, p, limits) == []
    assert audits.trace_failures(bad, p, limits, criterion6=True)


@pytest.mark.parametrize("field", ["ell2", "ell_hat2", "ell_tilde2", "m23"])
def test_cascade_audit_catches_corruption(explicit_traces, field):
    wl, _, casc = explicit_traces
    p, z_rate = wl.ext_c.joint.table, wl.CASCADE["codeword_rate_z"]
    for t in casc:
        assert audits.trace_failures(t, p, audits.cascade_limits(t, z_rate)) \
            == []
    bad = dataclasses.replace(casc[0], **{field: 10 ** 9})
    assert audits.trace_failures(bad, p, audits.cascade_limits(bad, z_rate))


def test_converse_oracle_cli_and_band_audits_are_live(explicit_traces):
    wl, traces, casc = explicit_traces
    rep = protocol.converse_check(casc, wl.ens_c, wl.ext_c, rate=1.9,
                                  rate23=0.9, slack=0.02)
    assert audits.converse_failures(rep, "c") == []
    strict = protocol.converse_check(casc, wl.ens_c, wl.ext_c, rate=0.0,
                                     rate23=0.0, slack=0.0)
    assert audits.converse_failures(strict, "c")

    state = np.eye(4) / 4
    assert audits.oracle_failures(10 * state, 10 * state, 10, "o") == []
    shifted = state + np.diag([0.05, -0.05, 0, 0])
    assert audits.oracle_failures(10 * shifted, 10 * state, 10, "o")

    ref = [0.311278, 1.0]
    assert audits.cli_failures(0, list(ref), ref, "c") == []
    assert audits.cli_failures(4, list(ref), ref, "c")
    assert audits.cli_failures(0, [0.311278 + 1e-5, 1.0], ref, "c")
    assert audits.cli_failures(0, [float("nan"), 1.0], ref, "c")
    assert audits.cli_failures(0, [1.0], ref, "c")

    band = {"mean": 0.1, "sd": 0.05, "trials": 10_000}
    near = np.full(400, 0.1)
    assert audits.band_failures(near, band, "b") == []
    assert audits.band_failures(near + 0.05, band, "b")


class _CorruptingWide(W.SampledWide):
    """Sampled-wide ops of two trials; op 1's first trace is corrupted."""

    TRIALS = 2

    def run_op(self, i):
        res = super().run_op(i)
        if i == 1:
            traces, rep = res.payload
            traces[0] = dataclasses.replace(traces[0], ell_hat=-1)
        return res


def test_corrupted_op_counts_toward_failed_frac():
    wl = _CorruptingWide(ROOT, seed=4)
    result = worker.measure(wl, 0.0, n_ops=3)
    assert (result["ops"], result["failed"]) == (3, 1)
    assert "ell_hat=-1" in result["failures"][0]

    # a failed run-level audit fails every op that fed it
    wl = W.SampledWide(ROOT, seed=4)
    wl.TRIALS = 2
    wl.reference = dict(wl.reference, mean=wl.reference["mean"] + 0.5)
    result = worker.measure(wl, 0.0, n_ops=2)
    assert (result["ops"], result["failed"]) == (2, 2)


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------

def _attribute_snapshot():
    from qcoord import cli, coordination, optimizer, protocol, sampling
    owners = (cli, coordination, optimizer, protocol, sampling,
              sampling.TypeGrid)
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_tracer_restores_every_attribute():
    before = _attribute_snapshot()
    tr = tracer_mod.install(tracer_mod.Tracer())
    try:
        assert tr.missing == []
        wl = W.SampledWide(ROOT, seed=2)
        wl.TRIALS = 2
        wl.run_op(0)
        assert _attribute_snapshot() != before
    finally:
        tr.restore()
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    metrics = tr.metrics()
    assert metrics["sampling.trial.calls"] == 2
    assert metrics["protocol.simulate.calls"] == 1
    assert metrics["sampling.grid.builds"] == 2


def test_traced_run_counts_only_its_traced_ops():
    tr = tracer_mod.install(tracer_mod.Tracer())
    try:
        wl = W.SampledWide(ROOT, seed=5)   # validates its target: set-up
        wl.TRIALS = 2
        wl.warm_up()
        result = worker.measure(wl, 0.0, n_ops=4, tracer=tr)
    finally:
        tr.restore()
    metrics = result["per_layer"]
    assert (result["ops"], result["failed"]) == (4, 0)
    # ops 0 and 2 are traced; set-up validation and warm-up are not ops
    assert metrics["protocol.simulate.calls"] == 2
    assert metrics["sampling.trial.calls"] == 4
    assert metrics["coordination.validate.calls"] == 0
    assert metrics["coordination.validate.setup_busy_s"] > 0
    assert 0.9 <= metrics["trace.coverage"] <= 1.0 + 1e-9
    assert metrics["trace.overhead"] > 0


def test_missing_attribute_is_a_zero_count_not_a_crash():
    class Owner:
        pass

    tr = tracer_mod.Tracer()
    tr.wrap(Owner, "gone", "protocol.encode")
    assert tr.missing and tr.metrics()["protocol.encode.calls"] == 0


# ----------------------------------------------------------------------
# workload seeds
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_seeds_change_inputs(name):
    cls = W.WORKLOADS[name]
    a, again, b = cls(ROOT, seed=1), cls(ROOT, seed=1), cls(ROOT, seed=2)
    try:
        assert [a.inputs(i) for i in range(4)] != \
            [b.inputs(i) for i in range(4)]
        assert [a.inputs(i) for i in range(4)] == \
            [again.inputs(i) for i in range(4)]
    finally:
        for wl in (a, again, b):
            wl.close()


def _small(name, seed):
    wl = W.WORKLOADS[name](ROOT, seed)
    if name == "sampled_reuse":
        wl.TRIALS, wl.SEEDS = 5, 2
    elif name == "sampled_wide":
        wl.TRIALS = 3
    elif name == "explicit_oracle":
        wl.TRIALS = 40
        wl.CASCADE = dict(wl.CASCADE, trials=10)
    return wl


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_two_seeds_pass_the_same_audits(name):
    inputs = []
    for seed in (1, 2):
        wl = _small(name, seed)
        try:
            res = wl.run_op(0)
            assert res.work > 0
            assert wl.audit_op(0, res.payload) == []
            inputs.append(wl.inputs(0))
        finally:
            wl.close()
    assert inputs[0] != inputs[1]

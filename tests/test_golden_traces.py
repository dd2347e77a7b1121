"""Golden pins: fixed simulation runs must reproduce their stored traces.

Each run in ``RUNS`` is replayed and compared with ``tests/golden/<run>.json``:
integer, boolean, string and sequence fields (indices, bins, fallbacks,
seeds, counts) must match exactly, float fields (distances, rates, the
averaged state, converse values) to ``FLOAT_TOL``.  The pins cover both
engines on the two-node network, ``derandomize``, an explicit cascade and
a sampled isolated-node run, the sampled and explicit three-symbol copy
target, plus ``converse_check`` on each.  The explicit pins include runs
long enough to cross the engine's trial and codeword chunks: the
benchmark's cascade at 60 trials and two-node n=6 at 1,000 trials (the
``..._threads3`` pin, named for the thread pool it was first run on).
A sampled trace arranges ``b_label_seq`` from stream key (3, t, 2) each
time it is read: the pinned sequences must come out in any read order,
with one arrangement per read and none before, and from copies and
pickles of a run and of its traces too.

Regenerate only for an intended change of behaviour, and record why;
name the pins that change (file names without ``.json``), so that float
rounding in the others does not churn them.  Without names, every pin is
rewritten:

    PYTHONPATH=src python tests/test_golden_traces.py --regenerate [NAME...]
"""

import copy
import dataclasses
import json
import os
import pickle
import sys

import numpy as np
import pytest

from qcoord.classical import (
    Alphabet,
    JointPmf,
    pmf_from_assignments,
)
from qcoord.coordination import CqEnsemble, Extension, validate_extension
from qcoord.protocol import (
    converse_check,
    derandomize,
    simulate_cascade,
    simulate_two_node,
)
from qcoord import sampling
from qcoord.quantum import tensor

from conftest import ETA, KET0, KET1, KETP, cascade_flip_pair

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")
FLOAT_TOL = 1e-12

EXACT_FIELDS = ("n", "seed", "trial", "engine", "ell", "m12", "ell_hat",
                "x_typical", "encoder_fallback", "decoder_fallback",
                "gamma_typical", "block_bound_ok", "ell2", "m23",
                "ell_hat2", "ell_tilde2")
FLOAT_FIELDS = ("distance_to_target", "distance_to_tau", "gamma_radius",
                "rate", "codeword_rate", "rate23")
SEQ_FIELDS = ("x_seq", "b_label_seq", "c_label_seq")


def example1():
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


def three_symbol():
    """The same qubit pair with p_X = (1/2, 1/4, 1/4) and the copy Y = X."""
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


def isolated_pair():
    """The pair of ``TestIsolatedNodeSimulation``: C holds a fixed |+>."""
    x = Alphabet("X", ["x0", "x1"])
    y = Alphabet("Y", ["y0", "y1"])
    z = Alphabet("Z", ["z+"])
    states = [tensor(tensor(KET0, KET0), KETP),
              tensor(tensor(KET1, KET1), KETP)]
    ens = CqEnsemble(JointPmf([x], [0.5, 0.5]), states,
                     {"A": 2, "B": 2, "C": 2})
    cube = np.zeros((2, 2, 1))
    cube[0, 0, 0] = cube[1, 1, 0] = 0.5
    ext = Extension(JointPmf([x, y, z], cube), [KET0, KET1], [KET0, KET1],
                    [KETP], kind="isolated")
    assert validate_extension(ext, ens).passed
    return ens, ext


def _two_node_explicit(n):
    # criterion 9's parameters: 8 codewords, 4 bins, delta 0.2
    ens, ext = example1()
    traces = simulate_two_node(ens, ext, n=n, rate=2.0 / n, trials=50,
                               seed=33, delta=0.2, engine="explicit",
                               codeword_rate=3.0 / n)
    return {"traces": [traces],
            "converse": [converse_check(traces, ens, ext, rate=2.0 / n)]}


def _two_node_explicit_threads():
    # criterion 9's parameters over 1,000 trials
    ens, ext = example1()
    traces = simulate_two_node(ens, ext, n=6, rate=2.0 / 6, trials=1000,
                               seed=9, delta=0.2, engine="explicit",
                               codeword_rate=3.0 / 6)
    return {"traces": [traces],
            "converse": [converse_check(traces, ens, ext, rate=2.0 / 6)]}


def _three_symbol_explicit():
    # 64 codewords: about half the sources are typical, a fifth of those
    # find no jointly typical codeword
    ens, ext = three_symbol()
    traces = simulate_two_node(ens, ext, n=8, rate=0.5, trials=200, seed=4,
                               delta=0.15, engine="explicit",
                               codeword_rate=0.75)
    return {"traces": [traces],
            "converse": [converse_check(traces, ens, ext, rate=0.5)]}


def _two_node_sampled():
    ens, ext = example1()
    traces = simulate_two_node(ens, ext, n=800, rate=0.46, trials=20,
                               seed=5, delta=0.02, engine="sampled")
    return {"traces": [traces],
            "converse": [converse_check(traces, ens, ext, rate=0.46)]}


def _sampled_confusion():
    # typical sources whose first jointly typical codeword loses to an
    # earlier codeword in its bin (few bins)
    ens, ext = example1()
    traces = simulate_two_node(ens, ext, n=200, rate=0.1, trials=30, seed=3,
                               delta=0.02, engine="sampled")
    return {"traces": [traces],
            "converse": [converse_check(traces, ens, ext, rate=0.1)]}


def _sampled_fallbacks():
    # few codewords and a tight decode radius: encoder fallbacks with and
    # without an in-bin candidate, and atypical sources on both classes
    ens, ext = example1()
    traces = simulate_two_node(
        ens, ext, n=30, rate=0.05, trials=60, seed=3, engine="sampled",
        codeword_rate=0.05, delta=0.05, multipliers=(1.0, 2.0, 2.2))
    return {"traces": [traces],
            "converse": [converse_check(traces, ens, ext, rate=0.05)]}


def _three_symbol_fallbacks():
    # few codewords: atypical sources lose the race, and the decode radius
    # covers the whole grid, so the not-decodable class falls back to it
    ens, ext = three_symbol()
    traces = simulate_two_node(ens, ext, n=12, rate=0.3, trials=40, seed=3,
                               delta=0.1, engine="sampled",
                               codeword_rate=0.3)
    return {"traces": [traces],
            "converse": [converse_check(traces, ens, ext, rate=0.3)]}


def _three_symbol_sampled():
    # three source rows (whole type grids of about 1e6 cells); a third of
    # the sources are atypical, so both the encode class and the decode
    # class, drawn by codeword type, are drawn
    ens, ext = three_symbol()
    traces = simulate_two_node(ens, ext, n=40, rate=1.6, trials=24,
                               seed=7, delta=0.1, engine="sampled")
    return {"traces": [traces],
            "converse": [converse_check(traces, ens, ext, rate=1.6)]}


def _derandomize():
    ens, ext = example1()
    rep = derandomize(ens, ext, n=800, rate=0.46, trials=10, num_seeds=3,
                      epsilon=0.1, seed=5, delta=0.02, keep_traces=True,
                      engine="sampled")
    summary = {"seeds": rep.seeds,
               "distances": [float(d) for d in rep.distances],
               "best_index": rep.best_index, "best_seed": rep.best_seed,
               "best_distance": rep.best_distance,
               "mean_distance": rep.mean_distance,
               "quantiles": [rep.quantiles[q] for q in (25, 50, 75)]}
    return {"traces": rep.traces_by_seed,
            "converse": [converse_check(t, ens, ext, rate=0.46)
                         for t in rep.traces_by_seed],
            "derandomize": summary}


def _cascade_explicit():
    ens, ext = cascade_flip_pair(0.1)
    traces = simulate_cascade(ens, ext, n=32, rate12=1.9, rate23=0.9,
                              trials=20, seed=2, delta=0.1,
                              engine="explicit", codeword_rate_y=0.35,
                              codeword_rate_z=0.3)
    return {"traces": [traces],
            "converse": [converse_check(traces, ens, ext, rate=1.9,
                                        rate23=0.9)]}


def _cascade_explicit_benchmark():
    # the benchmark's cascade: 4,096 label and 1,024 relay codewords
    ens, ext = cascade_flip_pair(0.1)
    traces = simulate_cascade(ens, ext, n=32, rate12=1.9, rate23=0.9,
                              trials=60, seed=11, delta=0.1,
                              engine="explicit", codeword_rate_y=0.35,
                              codeword_rate_z=0.3)
    return {"traces": [traces],
            "converse": [converse_check(traces, ens, ext, rate=1.9,
                                        rate23=0.9)]}


def _isolated_sampled():
    ens, ext = isolated_pair()
    traces = simulate_cascade(ens, ext, n=400, rate12=1.2, rate23=0.0,
                              trials=40, seed=6, delta=0.02,
                              engine="sampled", codeword_rate_z=0.0)
    return {"traces": [traces],
            "converse": [converse_check(traces, ens, ext, rate=1.2,
                                        rate23=0.0)]}


RUNS = {f"two_node_explicit_n{n}": (lambda n=n: _two_node_explicit(n))
        for n in range(2, 7)}
RUNS.update({
    "two_node_sampled_n800": _two_node_sampled,
    "three_symbol_sampled_n40": _three_symbol_sampled,
    "three_symbol_sampled_fallbacks_n12": _three_symbol_fallbacks,
    "two_node_sampled_confusion_n200": _sampled_confusion,
    "two_node_sampled_fallbacks_n30": _sampled_fallbacks,
    "derandomize_3x10": _derandomize,
    "cascade_flip_explicit_n32": _cascade_explicit,
    "cascade_flip_explicit_n32_t60": _cascade_explicit_benchmark,
    "two_node_explicit_n6_t1000_threads3": _two_node_explicit_threads,
    "three_symbol_explicit_n8": _three_symbol_explicit,
    "isolated_sampled_n400": _isolated_sampled,
})


# ----------------------------------------------------------------------
# (de)serialisation: plain JSON, sequences as digit strings
# ----------------------------------------------------------------------

def _seq(a):
    return None if a is None else "".join(str(int(v)) for v in a)


def _as_python(v):
    return v.item() if isinstance(v, np.generic) else v


def trace_record(t) -> dict:
    rec = {f: _as_python(getattr(t, f)) for f in EXACT_FIELDS + FLOAT_FIELDS}
    rec.update({f: _seq(getattr(t, f)) for f in SEQ_FIELDS})
    counts = np.asarray(t.joint_counts)
    rec["joint_counts"] = {"shape": list(counts.shape),
                           "values": [int(v) for v in counts.ravel()]}
    m = t.avg_state.matrix
    rec["avg_state"] = {"dim": m.shape[0],
                        "re": [float(v) for v in m.real.ravel()],
                        "im": [float(v) for v in m.imag.ravel()]}
    return rec


def converse_record(rep) -> dict:
    return {"eps_n": rep.eps_n, "alpha": rep.alpha, "passed": rep.passed,
            "inequalities": [{"name": iq.name,
                              "information_bits": iq.information_bits,
                              "rate_bound": iq.rate_bound,
                              "slack_total": iq.slack_total,
                              "passed": iq.passed}
                             for iq in rep.inequalities],
            "measured": {"names": list(rep.measured.names),
                         "shape": list(rep.measured.table.shape),
                         "values": [float(v) for v in
                                    rep.measured.table.ravel()]}}


def run_record(name: str) -> dict:
    out = RUNS[name]()
    rec = {"traces": [[trace_record(t) for t in group]
                      for group in out["traces"]],
           "converse": [converse_record(r) for r in out["converse"]]}
    if "derandomize" in out:
        rec["derandomize"] = out["derandomize"]
    return rec


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def assert_matches(got, want, where="run"):
    """Recursive comparison: floats to FLOAT_TOL, everything else exactly."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), \
            f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and not isinstance(got, bool), where
        assert abs(got - want) <= FLOAT_TOL, f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, \
            f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(name):
    with open(golden_path(name)) as fh:
        want = json.load(fh)
    got = json.loads(json.dumps(run_record(name)))
    assert_matches(got, want, name)


# ----------------------------------------------------------------------
# a sampled trace arranges b_label_seq when it is read
# ----------------------------------------------------------------------

ARRANGED_RUNS = ("two_node_sampled_fallbacks_n30", "three_symbol_sampled_n40",
                 "isolated_sampled_n400")


def _runs_and_labels(name):
    """The run's unread trace sequences and pinned ``b_label_seq``s."""
    with open(golden_path(name)) as fh:
        want = json.load(fh)
    return RUNS[name]()["traces"], [r["b_label_seq"] for group in
                                    want["traces"] for r in group]


def _count_arrangements(monkeypatch):
    calls, arrange = [], sampling.arrange_within_rows

    def counted(*args):
        calls.append(args)
        return arrange(*args)

    monkeypatch.setattr(sampling, "arrange_within_rows", counted)
    return calls


@pytest.mark.parametrize("name", ARRANGED_RUNS)
def test_sampled_runs_arrange_each_codeword_on_its_first_read(
        name, monkeypatch):
    calls = _count_arrangements(monkeypatch)
    groups, want = _runs_and_labels(name)
    assert calls == []      # no rate, distance or converse check reads it
    reads = [(group, i) for group in groups for i in range(len(group))]
    for _ in range(2):      # every read arranges once, in any read order
        got = []
        for group, i in reversed(reads):
            before = len(calls)
            got.append(_seq(group[i].b_label_seq))
            assert len(calls) == before + 1
        assert got[::-1] == want


@pytest.mark.parametrize("name", ARRANGED_RUNS)
def test_copies_of_unread_traces_arrange_the_pinned_codewords(name):
    groups, want = _runs_and_labels(name)
    copies = {"deepcopy": copy.deepcopy,
              "pickle": lambda t: pickle.loads(pickle.dumps(t))}
    traces = [t for group in groups for t in group]
    for how, make in copies.items():
        assert [_seq(t.b_label_seq) for group in groups
                for t in make(group)] == want, how
        assert [_seq(make(t).b_label_seq) for t in traces] == want, how
    replaced = [dataclasses.replace(t, ell=-1) for t in traces]
    assert [_seq(t.b_label_seq) for t in replaced] == want
    assert [_seq(t.b_label_seq) for t in traces] == want


def regenerate(names=()) -> None:
    """Rewrite the named pins, or every pin when none is named."""
    unknown = sorted(set(names) - set(RUNS))
    if unknown:
        sys.exit(f"no pins named {unknown}; pins: {', '.join(sorted(RUNS))}")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sorted(set(names) or RUNS):
        with open(golden_path(name), "w") as fh:
            json.dump(run_record(name), fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {golden_path(name)}")


def test_regenerate_rewrites_only_the_named_pins(tmp_path, monkeypatch):
    pinned = golden_path("two_node_explicit_n2")
    monkeypatch.setitem(globals(), "GOLDEN_DIR", str(tmp_path))
    with pytest.raises(SystemExit):
        regenerate(["two_node_explicit_n2", "no_such_run"])
    assert os.listdir(tmp_path) == []
    regenerate(["two_node_explicit_n2"])
    assert os.listdir(tmp_path) == ["two_node_explicit_n2.json"]
    with open(golden_path("two_node_explicit_n2")) as got, \
            open(pinned) as want:
        assert_matches(json.load(got), json.load(want))


if __name__ == "__main__":
    if sys.argv[1:2] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden_traces.py --regenerate "
                 "[NAME...]")
    regenerate(sys.argv[2:])

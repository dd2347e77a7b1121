"""A run's outcomes stay columnar: ``simulate_*`` return a
``SimulationTraces`` sequence, and each ``SimulationTrace`` is built when
it is read.

Rates, distances and converse checks read columns, so ``simulate_*``,
``derandomize``, ``converse_check`` and the CLI's simulate command build
no trace on either engine.  A trace that is read carries the same fields
with the same Python types as an eagerly built one (the CSV writes
``repr`` of them, and ``repr(np.float64(x))`` differs from
``repr(float(x))``).  A read trace is a fresh object: setting its fields
writes nothing back, and its arrays are read-only views of the run's.
"""

import copy
import dataclasses
import json
import os
import pickle

import numpy as np
import pytest

from qcoord import cli
from qcoord.protocol import (
    SimulationTrace,
    SimulationTraces,
    converse_check,
    derandomize,
    simulate_cascade,
    simulate_two_node,
)

from conftest import cascade_flip_pair, degenerate_z_cascade

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")
INT_FIELDS = ("n", "seed", "trial", "ell", "m12", "ell_hat")
RELAY_INT_FIELDS = ("ell2", "m23", "ell_hat2", "ell_tilde2")
BOOL_FIELDS = ("x_typical", "encoder_fallback", "decoder_fallback",
               "gamma_typical")
FLOAT_FIELDS = ("distance_to_target", "distance_to_tau", "gamma_radius",
                "rate", "codeword_rate")


@pytest.fixture
def built(monkeypatch):
    """The number of ``SimulationTrace`` constructions so far, as a list."""
    count, init = [], SimulationTrace.__init__

    def counted(self, *args, **kwargs):
        count.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimulationTrace, "__init__", counted)
    return count


def _two_node(pair, engine, trials=6):
    ens, ext = pair
    if engine == "explicit":
        return simulate_two_node(ens, ext, n=6, rate=2.0 / 6, trials=trials,
                                 seed=1, delta=0.2, engine="explicit",
                                 codeword_rate=0.5)
    return simulate_two_node(ens, ext, n=40, rate=0.5, trials=trials, seed=1,
                             delta=0.05, engine="sampled")


def _cascade(pair, engine, trials=6):
    if engine == "explicit":
        ens, ext = cascade_flip_pair(0.1)
        return simulate_cascade(ens, ext, n=14, rate12=1.2, rate23=0.6,
                                trials=trials, seed=1, delta=0.22,
                                engine="explicit", codeword_rate_y=0.5,
                                codeword_rate_z=0.45)
    ens, ext = degenerate_z_cascade(pair)
    return simulate_cascade(ens, ext, n=40, rate12=0.5, rate23=0.0,
                            trials=trials, seed=1, delta=0.05,
                            engine="sampled", codeword_rate_z=0.0)


def _runs(pair, engine):
    """(kind, traces) of a two-node and a cascade run of ``engine``."""
    return [("two-node", _two_node(pair, engine)),
            ("cascade", _cascade(pair, engine))]


def _record(t) -> dict:
    """Every field of a trace, arrays as bytes, so records compare with
    ``==`` field by field."""
    rec = {}
    for f in dataclasses.fields(SimulationTrace):
        value = getattr(t, f.name)
        if f.name == "avg_state":
            value = value.matrix
        rec[f.name] = ((value.shape, value.dtype, value.tobytes())
                       if isinstance(value, np.ndarray)
                       else (type(value), value))
    return rec


# ----------------------------------------------------------------------
# no trace is built unless one is read
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["explicit", "sampled"])
def test_simulate_derandomize_and_converse_build_no_trace(
        example1_pair, engine, built):
    ens, ext = example1_pair
    two_node, cascade = _two_node(example1_pair, engine), \
        _cascade(example1_pair, engine)
    converse_check(two_node, ens, ext, rate=2.0 / 6)
    ens_c, ext_c = (cascade_flip_pair(0.1) if engine == "explicit"
                    else degenerate_z_cascade(example1_pair))
    converse_check(cascade, ens_c, ext_c, rate=1.2, rate23=0.6)
    kwargs = (dict(n=6, rate=2.0 / 6, delta=0.2, codeword_rate=0.5)
              if engine == "explicit" else dict(n=40, rate=0.5, delta=0.05))
    for keep in (False, True):
        derandomize(ens, ext, trials=4, num_seeds=2, epsilon=0.1,
                    keep_traces=keep, engine=engine, **kwargs)
    assert built == []
    two_node[0]          # the spy sees a read
    assert len(built) == 1


@pytest.mark.parametrize("engine", ["explicit", "sampled"])
def test_cli_simulate_builds_no_trace(tmp_path, engine, built):
    with open(os.path.join(CONFIG_DIR, "example1_simulate.json")) as fh:
        cfg = json.load(fh)
    cfg["simulate"].update(trials=5, engine=engine)
    if engine == "explicit":
        cfg["simulate"].update(n_grid=[6], rates=[2.0 / 6],
                               codeword_rate=0.5, delta=0.2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out),
                     "--quiet"]) == cli.EXIT_OK
    assert built == []
    rows = (out / "simulate.csv").read_text().splitlines()
    assert len(rows) == 1 + 5 * len(cfg["simulate"]["n_grid"])


# ----------------------------------------------------------------------
# the sequence contract
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["explicit", "sampled"])
def test_sequence_contract(example1_pair, engine):
    for kind, traces in _runs(example1_pair, engine):
        assert isinstance(traces, SimulationTraces) and len(traces) == 6
        records = [_record(t) for t in traces]      # iteration
        assert [r["trial"] for r in records] == [(int, i) for i in range(6)]
        for i in range(6):
            assert _record(traces[i]) == records[i]
            assert _record(traces[i - 6]) == records[i]
        for i in (6, -7, 100):
            with pytest.raises(IndexError):
                traces[i]
        assert [_record(t) for t in reversed(traces)] == records[::-1]
        for part in (slice(1, 5, 2), slice(None, None, -1), slice(4, None),
                     slice(7, 9)):
            sub = traces[part]       # a list, as a list's slice is
            assert isinstance(sub, list)
            assert [_record(t) for t in sub] == records[part], (kind, part)
        assert traces.column("distance_to_target").tolist() == \
            [t.distance_to_target for t in traces]
        counts = traces.column("joint_counts")
        assert counts.shape[0] == 6 and counts.ndim == 4
        assert not counts.flags.writeable


@pytest.mark.parametrize("engine", ["explicit", "sampled"])
def test_fields_are_python_values(example1_pair, engine):
    for kind, traces in _runs(example1_pair, engine):
        for t in traces:
            for field in INT_FIELDS:
                assert type(getattr(t, field)) is int, (kind, field)
            for field in BOOL_FIELDS:
                assert type(getattr(t, field)) is bool, (kind, field)
            for field in FLOAT_FIELDS:
                assert type(getattr(t, field)) is float, (kind, field)
            assert type(t.engine) is str
            assert t.block_bound_ok is None or type(t.block_bound_ok) is bool
            if kind == "two-node":
                assert t.joint_counts.ndim == 2
                assert t.rate23 is None
                for field in RELAY_INT_FIELDS + ("c_label_seq",):
                    assert getattr(t, field) is None, field
            else:
                assert t.joint_counts.ndim == 3
                assert type(t.rate23) is float
                for field in RELAY_INT_FIELDS:
                    assert type(getattr(t, field)) is int, (kind, field)
                assert t.c_label_seq.dtype == np.int8
            assert t.x_seq.dtype == t.b_label_seq.dtype == np.int8


@pytest.mark.parametrize("engine", ["explicit", "sampled"])
def test_trace_arrays_are_read_only(example1_pair, engine):
    for kind, traces in _runs(example1_pair, engine):
        t = traces[0]
        arrays = [t.x_seq, t.b_label_seq, t.joint_counts, t.avg_state.matrix]
        if kind == "cascade":
            arrays += [t.c_label_seq]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]


@pytest.mark.parametrize("engine", ["explicit", "sampled"])
def test_label_sequences_have_the_joint_counts(example1_pair, engine):
    for kind, traces in _runs(example1_pair, engine):
        for t in traces:
            labels = (t.x_seq, t.b_label_seq) + (
                (t.c_label_seq,) if kind == "cascade" else ())
            counts = np.zeros(t.joint_counts.shape)
            np.add.at(counts, labels, 1)
            assert np.array_equal(counts, t.joint_counts), (kind, t.trial)


def test_both_engines_store_one_column_layout(example1_pair):
    layouts = {}
    for engine in ("explicit", "sampled"):
        for kind, traces in _runs(example1_pair, engine):
            names = sorted(traces._columns)
            for name in names:
                column = traces.column(name)
                assert traces.column(name) is column, (engine, kind, name)
                assert isinstance(column, np.ndarray) and len(column) == 6
                assert not column.flags.writeable, (engine, kind, name)
            x = traces.column("x_seq")
            assert (x.shape, x.dtype) == ((6, traces.run["n"]), np.int8)
            layouts[engine, kind] = names
    assert len(set(map(tuple, layouts.values()))) == 1, layouts


# ----------------------------------------------------------------------
# reads are fresh objects; copies and pickles
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["explicit", "sampled"])
def test_a_changed_trace_writes_nothing_back(example1_pair, engine):
    for _, traces in _runs(example1_pair, engine):
        before = [_record(t) for t in traces]
        dists = traces.column("distance_to_target").copy()
        t = traces[2]
        assert traces[2] is not t
        t.ell, t.distance_to_target, t.x_seq = 99, 5.0, None
        assert [_record(u) for u in traces] == before
        np.testing.assert_array_equal(
            traces.column("distance_to_target"), dists)
        # storing a trace makes its index read it, and leaves the columns
        stand_in = dataclasses.replace(traces[2], ell=99)
        traces[2] = stand_in
        assert traces[2] is stand_in and traces[2 - 6] is stand_in
        assert traces[1:4][1] is stand_in and list(traces)[2] is stand_in
        assert [_record(u) for u in traces][3:] == before[3:]
        assert traces.column("ell").tolist()[2] == before[2]["ell"][1]
        with pytest.raises(IndexError):
            traces[6] = stand_in


@pytest.mark.parametrize("engine", ["explicit", "sampled"])
def test_views_and_sequences_copy_and_pickle(example1_pair, engine):
    copies = {"deepcopy": copy.deepcopy,
              "pickle": lambda x: pickle.loads(pickle.dumps(x))}
    for kind, traces in _runs(example1_pair, engine):
        for how, make in copies.items():
            # a sampled copy arranges its traces from the copied seed
            twin, view = make(traces), make(traces[0])
            assert isinstance(twin, SimulationTraces) and len(twin) == 6
            assert _record(view) == _record(traces[0]), (kind, how)
            assert [_record(t) for t in twin] == \
                [_record(t) for t in traces], (kind, how)
            np.testing.assert_array_equal(twin.column("joint_counts"),
                                          traces.column("joint_counts"))
            assert twin.run == traces.run


def test_sampled_reads_share_one_arrangement(example1_pair):
    # each read arranges from the trial's own stream, to the same array
    traces = _two_node(example1_pair, "sampled")
    first, second = traces[0].b_label_seq, traces[0].b_label_seq
    assert (first.dtype, first.tobytes()) == (second.dtype, second.tobytes())
    assert not first.flags.writeable and not second.flags.writeable

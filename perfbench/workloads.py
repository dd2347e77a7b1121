"""The benchmark's four workloads: targets, per-op inputs, ops and audits.

Op ``i`` of a workload takes its library seeds from the workload seed and
``i`` alone, so one workload seed always gives the same inputs.  ``run_op``
is the timed part and calls qcoord only through module attributes, which
is what lets the tracer see every call.  ``audit_op`` and ``audit_run``
are untimed and return failure messages (see ``audits``).

Why these four (the numbers are from profiles of the seed commit):

* ``sampled_reuse`` - criterion-7 derandomization at n=800.  Type grids
  take most of a sampled trial and repeat across codebook seeds but
  rarely within one 40-trial call, so per-call and process-wide grid
  caches gain differently here.
* ``sampled_wide`` - the three-symbol copy target at n=40: 6x larger
  grids that mostly do not repeat, so a grid cache costs memory here and
  a row-factorised computation gains.
* ``explicit_oracle`` - criterion-9 explicit engine at n=2..6 plus the
  criterion-8 cascade: per-trial overhead, state assembly and codebook
  scans; sampling is idle.
* ``optimize_cli`` - the CLI on the two optimize configs: optimizer,
  config and cli do the work; simulation is idle.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from qcoord import cli, config, coordination, protocol
from qcoord.classical import Alphabet, JointPmf, pmf_from_assignments
from qcoord.coordination import CqEnsemble, Extension
from qcoord.quantum import DensityOperator, tensor

import audits

HERE = os.path.dirname(os.path.abspath(__file__))
KET0 = DensityOperator.pure([1, 0])
KET1 = DensityOperator.pure([0, 1])
KETP = DensityOperator.pure([1, 1])
ETA = DensityOperator(0.5 * KET0.matrix + 0.5 * KETP.matrix)


def library_seed(workload_seed: int, stream: int, index: int) -> int:
    """The seed handed to qcoord for op ``index`` of one input stream."""
    ss = np.random.SeedSequence(workload_seed, spawn_key=(stream, index))
    return int(ss.generate_state(1)[0])


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def example1():
    """Example 1: source bit -> |0>|0> or |1>eta, shared-atom decomposition."""
    x = Alphabet("X", ["x0", "x1"])
    y = Alphabet("Y", ["y0", "y+"])
    ens = CqEnsemble(JointPmf([x], [0.5, 0.5]),
                     [tensor(KET0, KET0), tensor(KET1, ETA)],
                     {"A": 2, "B": 2})
    joint = pmf_from_assignments([x, y], {
        ("x0", "y0"): 0.5, ("x1", "y0"): 0.25, ("x1", "y+"): 0.25})
    return ens, Extension(joint, [KET0, KET1], [KET0, KETP], kind="two-node")


def example1_three_symbol():
    """The same qubit pair with p_X = (1/2, 1/4, 1/4) and the copy Y = X."""
    x = Alphabet("X", ["x0", "x1", "x2"])
    y = Alphabet("Y", ["y0", "y1", "y2"])
    ens = CqEnsemble(
        JointPmf([x], [0.5, 0.25, 0.25]),
        [tensor(KET0, KET0), tensor(KET1, KET0), tensor(KET1, KETP)],
        {"A": 2, "B": 2})
    joint = pmf_from_assignments([x, y], {
        ("x0", "y0"): 0.5, ("x1", "y1"): 0.25, ("x2", "y2"): 0.25})
    return ens, Extension(joint, [KET0, KET1, KET1], [KET0, KET0, KETP],
                          kind="two-node")


def cascade_flip_pair(p: float = 0.1):
    """Cascade target: B copies the source bit, C sees it through a flip."""
    x = Alphabet("X", ["x0", "x1"])
    y = Alphabet("Y", ["y0", "y1"])
    z = Alphabet("Z", ["z0", "z1"])
    c_states = [DensityOperator(np.diag([1 - p, p]).astype(complex)),
                DensityOperator(np.diag([p, 1 - p]).astype(complex))]
    ens = CqEnsemble(JointPmf([x], [0.5, 0.5]),
                     [tensor(tensor(KET0, KET0), c_states[0]),
                      tensor(tensor(KET1, KET1), c_states[1])],
                     {"A": 2, "B": 2, "C": 2})
    cube = np.zeros((2, 2, 2))
    for xi in range(2):
        for zi in range(2):
            cube[xi, xi, zi] = 0.5 * (p if zi != xi else 1 - p)
    joint = JointPmf([x, y, z], cube)
    return ens, Extension(joint, [KET0, KET1], [KET0, KET1], [KET0, KET1],
                          kind="cascade")


def validated(pair):
    ens, ext = pair
    report = coordination.validate_extension(ext, ens)
    if not report.passed:
        raise RuntimeError(f"benchmark target fails validation:\n{report}")
    return ens, ext


@dataclass
class OpResult:
    work: int        # trials or solves completed
    payload: object  # what audit_op needs


class Workload:
    """Base: ``setup`` in the constructor, then timed ops, then audits."""

    name = ""
    stream = 0
    min_ops = 1
    trace_ops = 8   # traced ops of a traced run, fixed so counts repeat

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed

    def inputs(self, i: int) -> dict:
        return {"seed": library_seed(self.seed, self.stream, i)}

    def warm_up(self) -> None:
        pass

    def run_op(self, i: int) -> OpResult:
        raise NotImplementedError

    def audit_op(self, i: int, payload) -> list:
        return []

    def audit_run(self) -> list:
        return []

    def close(self) -> None:
        pass


class SampledReuse(Workload):
    name = "sampled_reuse"
    stream = 1
    N, RATE, DELTA, TRIALS, SEEDS = 800, 0.46, 0.02, 40, 4
    trace_ops = 6

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.ens, self.ext = validated(example1())
        self.p_joint = self.ext.joint.table
        self.reference = load_references()[self.name]
        self.distances = []

    def warm_up(self):
        protocol.simulate_two_node(
            self.ens, self.ext, n=self.N, rate=self.RATE, trials=1,
            seed=library_seed(self.seed, 0, 0), delta=self.DELTA,
            engine="sampled")

    def run_op(self, i):
        report = protocol.derandomize(
            self.ens, self.ext, n=self.N, rate=self.RATE, trials=self.TRIALS,
            num_seeds=self.SEEDS, epsilon=0.1, seed=self.inputs(i)["seed"],
            delta=self.DELTA, keep_traces=True, engine="sampled")
        converse = [protocol.converse_check(traces, self.ens, self.ext,
                                            rate=self.RATE, slack=0.02)
                    for traces in report.traces_by_seed]
        return OpResult(self.TRIALS * self.SEEDS,
                        (report.traces_by_seed, converse))

    def audit_op(self, i, payload):
        by_seed, converse = payload
        out = []
        for traces, rep in zip(by_seed, converse):
            for t in traces:
                out += audits.trace_failures(t, self.p_joint,
                                             audits.two_node_limits(t),
                                             criterion6=True)
                self.distances.append(t.distance_to_target)
            out += audits.converse_failures(rep, f"codebook seed {traces[0].seed}")
        if len(by_seed) != self.SEEDS:
            out.append(f"{len(by_seed)} seeds kept, expected {self.SEEDS}")
        return out

    def audit_run(self):
        return audits.band_failures(self.distances, self.reference, self.name)


class SampledWide(Workload):
    name = "sampled_wide"
    stream = 2
    N, RATE, DELTA, TRIALS = 40, 1.6, 0.1, 16

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.ens, self.ext = validated(example1_three_symbol())
        self.p_joint = self.ext.joint.table
        self.reference = load_references()[self.name]
        self.distances = []

    def _simulate(self, trials, seed):
        return protocol.simulate_two_node(
            self.ens, self.ext, n=self.N, rate=self.RATE, trials=trials,
            seed=seed, delta=self.DELTA, engine="sampled")

    def warm_up(self):
        self._simulate(1, library_seed(self.seed, 0, 0))

    def run_op(self, i):
        traces = self._simulate(self.TRIALS, self.inputs(i)["seed"])
        rep = protocol.converse_check(traces, self.ens, self.ext,
                                      rate=self.RATE, slack=0.02)
        return OpResult(len(traces), (traces, rep))

    def audit_op(self, i, payload):
        traces, rep = payload
        out = []
        for t in traces:
            out += audits.trace_failures(t, self.p_joint,
                                         audits.two_node_limits(t))
            self.distances.append(t.distance_to_target)
        if len(traces) != self.TRIALS:
            out.append(f"{len(traces)} traces, expected {self.TRIALS}")
        return out + audits.converse_failures(rep, f"op {i}")

    def audit_run(self):
        return audits.band_failures(self.distances, self.reference, self.name)


def _load_oracles():
    """``tests/oracles.py``, imported read-only by path."""
    path = os.path.join(os.path.dirname(HERE), "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("qcoord_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class ExplicitOracle(Workload):
    """One op is a round: n = 2..6 with 8 codewords each, then the cascade.

    The oracle audit pools every round's trials per n (each round draws a
    fresh codebook).  ``min_ops`` rounds give it criterion 9's 10,000
    trials per n.  Pooled over 20,000 trials per n, the worst Monte-Carlo
    error over n measured 1.8e-3 to 4.4e-3 across six workload seeds,
    so about 6e-3 at most at 10,000, against the 1e-2 tolerance.
    """

    name = "explicit_oracle"
    stream = 3
    NS, DELTA, TRIALS = (2, 3, 4, 5, 6), 0.2, 400
    CASCADE = dict(n=32, rate12=1.9, rate23=0.9, trials=60, delta=0.1,
                   engine="explicit", codeword_rate_y=0.35,
                   codeword_rate_z=0.3)
    min_ops = trace_ops = 25

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.oracles = _load_oracles()
        self.ens, self.ext = validated(example1())
        self.ens_c, self.ext_c = validated(cascade_flip_pair(0.1))
        self.p_joint = self.ext.joint.table
        self.a_mats = [a.matrix for a in self.ext.atoms_a]
        self.b_mats = [b.matrix for b in self.ext.atoms_b]
        self.mc_sum = {n: 0.0 for n in self.NS}
        self.oracle_sum = {n: 0.0 for n in self.NS}
        self.weight = {n: 0 for n in self.NS}

    def _two_node(self, n, trials, seed):
        return protocol.simulate_two_node(
            self.ens, self.ext, n=n, rate=2.0 / n, trials=trials, seed=seed,
            delta=self.DELTA, engine="explicit", codeword_rate=3.0 / n)

    def _cascade(self, trials, seed):
        kw = dict(self.CASCADE, trials=trials)
        return protocol.simulate_cascade(self.ens_c, self.ext_c, seed=seed,
                                         **kw)

    def warm_up(self):
        seed = library_seed(self.seed, 0, 0)
        self._two_node(self.NS[-1], 10, seed)
        self._cascade(2, seed)

    def run_op(self, i):
        seed = self.inputs(i)["seed"]
        cells = {n: self._two_node(n, self.TRIALS, seed) for n in self.NS}
        casc = self._cascade(self.CASCADE["trials"], seed)
        rep = protocol.converse_check(
            casc, self.ens_c, self.ext_c, rate=self.CASCADE["rate12"],
            rate23=self.CASCADE["rate23"], slack=0.02)
        work = sum(len(t) for t in cells.values()) + len(casc)
        return OpResult(work, (seed, cells, casc, rep))

    def audit_op(self, i, payload):
        seed, cells, casc, rep = payload
        out = []
        for n, traces in cells.items():
            for t in traces:
                out += audits.trace_failures(t, self.p_joint,
                                             audits.two_node_limits(t))
            params = protocol.CodebookParams(
                n=n, bin_rate=2.0 / n, codeword_rate=3.0 / n,
                delta=self.DELTA, seed=seed)
            cb = protocol.build_codebook(params, self.p_joint.sum(axis=0))
            exact = self.oracles.expected_state_fixed_codebook(
                np.asarray(cb.codewords), np.asarray(cb.bins), self.p_joint,
                n, self.DELTA, self.a_mats, self.b_mats)
            mc = np.sum([t.avg_state.matrix for t in traces], axis=0)
            self.mc_sum[n] = self.mc_sum[n] + mc
            self.oracle_sum[n] = self.oracle_sum[n] + len(traces) * exact
            self.weight[n] += len(traces)
        p_cube = self.ext_c.joint.table
        z_rate = self.CASCADE["codeword_rate_z"]
        for t in casc:
            out += audits.trace_failures(t, p_cube,
                                         audits.cascade_limits(t, z_rate))
        return out + audits.converse_failures(rep, f"cascade op {i}")

    def audit_run(self):
        out = []
        for n in self.NS:
            if self.weight[n]:
                out += audits.oracle_failures(self.mc_sum[n],
                                              self.oracle_sum[n],
                                              self.weight[n], f"n={n}")
        return out


class OptimizeCli(Workload):
    """One op is a round of two in-process CLI runs: four solves in all."""

    name = "optimize_cli"
    stream = 4
    CONFIGS = ("example1_optimize.json", "cascade_lambda_sweep.json")

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.paths = [os.path.join(root, "configs", c) for c in self.CONFIGS]
        refs = load_references()[self.name]
        self.references = [refs[c] for c in self.CONFIGS]
        work_root = os.path.join(root, ".perfbench")
        os.makedirs(work_root, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="optimize_cli-", dir=work_root)

    def inputs(self, i):
        seed = library_seed(self.seed, self.stream, i)
        order = [0, 1] if seed % 2 == 0 else [1, 0]
        return {"seed": seed, "order": order}

    def warm_up(self):
        for path in self.paths:
            config.build_ensemble(config.resolve_family(
                config.load_config(path)))

    def run_op(self, i):
        inp = self.inputs(i)
        runs = []
        for k in inp["order"]:
            out = os.path.join(self.work, f"op{i}-{k}")
            code = cli.main(["--config", self.paths[k], "--out", out,
                             "--seed", str(inp["seed"]), "--threads", "1",
                             "--quiet"])
            runs.append((k, code, out))
        return OpResult(sum(len(self.references[k]) for k in inp["order"]),
                        runs)

    def audit_op(self, i, payload):
        out = []
        for k, code, out_dir in payload:
            values = []
            if code == 0:
                name = "optimize.csv" if k == 0 else "sweep.csv"
                column = "value" if k == 0 else "rate"
                with open(os.path.join(out_dir, name), newline="") as fh:
                    values = [float(row[column] or "nan")
                              for row in csv.DictReader(fh)]
            out += audits.cli_failures(code, values, self.references[k],
                                       f"op {i} {self.CONFIGS[k]}")
            shutil.rmtree(out_dir, ignore_errors=True)
        return out

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SampledReuse, SampledWide, ExplicitOracle,
                                 OptimizeCli)}

"""Layer spans recorded around qcoord's public functions.

The tracer rebinds the names that the *calling* module resolves (for
example ``protocol.trace_norm_distance`` or ``sampling.TypeGrid``) to
wrappers that record a span and hand the result to an optional hook.
A wrapped name that no longer exists is skipped, so a refactor that stops
calling a function reads as a zero count, not a crash.  ``restore`` puts
every original attribute back.

Spans stay in memory as (name, start, end, parent) and are written once,
at the end of a run.  A span's self time is its duration minus that of its
direct children.  A layer's ``self_s`` sums the self time of its outer
spans (``OUTER_SPANS``): the work of the layer that none of its reported
sub-calls covers, such as state assembly and the trial loop in
``protocol``.  Every other span reports its full duration as ``busy_s``.

The tracer is installed before the workload is set up, so set-up calls
(target validation, warm-up) are recorded too.  ``start_ops`` marks where
the ops begin and clears the counters; ``metrics`` and ``covered`` count
only spans after that mark, so every count, busy time, self time and
ratio describes the same ops that ``trace.coverage`` checks.  Set-up
shows in one figure of its own, ``coordination.validate.setup_busy_s``:
validation time spent before the timed ops, which ``setup_s`` pays.
``trace.coverage`` is the time inside top-level spans over the time of
the traced ops.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# name -> unit of every per-layer metric, in report order.
METRICS = {
    "sampling.trial.calls": "count",
    "sampling.trial.busy_s": "s",
    "sampling.grid.builds": "count",
    "sampling.grid.busy_s": "s",
    "sampling.grid.cells": "count",
    "sampling.grid.distinct_frac": "ratio",
    "sampling.log_prob.calls": "count",
    "sampling.log_prob.busy_s": "s",
    "sampling.sample_counts.busy_s": "s",
    "sampling.arrange.busy_s": "s",
    "sampling.self_s": "s",
    "protocol.simulate.calls": "count",
    "protocol.simulate.busy_s": "s",
    "protocol.codebook.busy_s": "s",
    "protocol.codebook.symbols": "count",
    "protocol.encode.calls": "count",
    "protocol.encode.busy_s": "s",
    "protocol.encode.codewords_scanned": "count",
    "protocol.decode.busy_s": "s",
    "protocol.converse.busy_s": "s",
    "protocol.self_s": "s",
    "protocol.encoder_hit_frac": "ratio",
    "protocol.decoder_fallback_frac": "ratio",
    "quantum.trace_distance.calls": "count",
    "quantum.trace_distance.busy_s": "s",
    "quantum.density.constructions": "count",
    "quantum.density.busy_s": "s",
    "optimizer.propose.busy_s": "s",
    "optimizer.propose.atoms": "count",
    "optimizer.minimize.calls": "count",
    "optimizer.minimize.busy_s": "s",
    "optimizer.minimize.iterations": "count",
    "optimizer.minimize.feasible_frac": "ratio",
    "optimizer.self_s": "s",
    "coordination.validate.calls": "count",
    "coordination.validate.busy_s": "s",
    "coordination.validate.setup_busy_s": "s",
    "config.load.busy_s": "s",
    "config.build.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}
OUTER_SPANS = ("sampling.trial", "protocol.derandomize", "protocol.simulate",
               "optimizer.optimize", "cli.main", "cli.write")


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = defaultdict(float)
        self.grid_keys = set()
        self.missing = []
        self.first = 0        # index of the first span of the ops
        self.enabled = True
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr: str, span: str, hook=None) -> None:
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            idx = len(self.names)
            self.names.append(span)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # ------------------------------------------------------------------

    def self_times(self) -> list:
        self_t = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                self_t[parent] -= self.ends[idx] - self.starts[idx]
        return self_t

    def start_ops(self) -> None:
        """Mark where the ops begin; call it while no span is open."""
        self.first = len(self.names)
        self.counters.clear()
        self.grid_keys.clear()

    def covered(self) -> float:
        """Time inside top-level spans of the ops."""
        first = self.first
        return sum(e - s for s, e, p in zip(self.starts[first:],
                                            self.ends[first:],
                                            self.parents[first:])
                   if p < 0)

    def metrics(self) -> dict:
        first = self.first
        calls = defaultdict(int)
        busy = defaultdict(float)
        layer_self = defaultdict(float)
        for name, s, e, st in zip(self.names[first:], self.starts[first:],
                                  self.ends[first:],
                                  self.self_times()[first:]):
            calls[name] += 1
            busy[name] += e - s
            if name in OUTER_SPANS:
                layer_self[name.split(".", 1)[0]] += st
        c = self.counters
        out = {}
        for key in METRICS:
            head, _, tail = key.rpartition(".")
            if tail in ("calls", "builds", "constructions"):
                out[key] = calls[head]
            elif tail == "busy_s":
                out[key] = busy[head]
            elif tail == "self_s":
                out[key] = layer_self[head]
            else:
                out[key] = c[key]
        out["coordination.validate.setup_busy_s"] = sum(
            e - s for name, s, e in zip(self.names[:first],
                                        self.starts[:first],
                                        self.ends[:first])
            if name == "coordination.validate")
        out["sampling.grid.distinct_frac"] = _ratio(len(self.grid_keys),
                                                    calls["sampling.grid"])
        out["protocol.encoder_hit_frac"] = _ratio(c["traces.encoder_hit"],
                                                  c["traces.total"])
        out["protocol.decoder_fallback_frac"] = _ratio(
            c["traces.decoder_fallback"], c["traces.total"])
        out["optimizer.minimize.feasible_frac"] = _ratio(
            c["minimize.feasible"], calls["optimizer.minimize"])
        return out

    def write_spans(self, path: str) -> None:
        """Write every span, set-up included, as CSV."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for idx, (name, s, e, p) in enumerate(zip(
                    self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{idx},{name},{s:.9f},{e:.9f},{p}\n")


def spans_path(root: str, workload: str, seed: int) -> str:
    """Where the traced run of one workload seed writes its spans."""
    return os.path.join(root, ".perfbench", "spans",
                        f"{workload}-seed{seed}.csv")


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


# ----------------------------------------------------------------------
# what each wrapped call adds to the counters
# ----------------------------------------------------------------------

def _grid_hook(tr, args, kwargs, grid):
    tr.counters["sampling.grid.cells"] += grid.logp.size
    tr.grid_keys.add((tuple(int(v) for v in grid.x_counts),
                      grid.p_joint.tobytes(),
                      kwargs.get("encode_radius"),
                      kwargs.get("decode_radius")) + tuple(args[2:]))


def _traces_hook(tr, args, kwargs, traces):
    for t in traces:
        tr.counters["traces.total"] += 1
        tr.counters["traces.encoder_hit"] += not t.encoder_fallback
        tr.counters["traces.decoder_fallback"] += bool(t.decoder_fallback)


def _codebook_hook(tr, args, kwargs, cb):
    tr.counters["protocol.codebook.symbols"] += cb.codewords.size


def _encode_hook(tr, args, kwargs, result):
    ell, _, fallback = result
    scanned = args[0].codewords.shape[0] if fallback else ell + 1
    tr.counters["protocol.encode.codewords_scanned"] += scanned


def _propose_hook(tr, args, kwargs, atoms):
    tr.counters["optimizer.propose.atoms"] += (len(atoms.atoms_b)
                                               + len(atoms.atoms_c or ()))


def _minimize_hook(tr, args, kwargs, res):
    tr.counters["optimizer.minimize.iterations"] += res.iterations
    tr.counters["minimize.feasible"] += bool(res.feasible)


def _written_hook(tr, args, kwargs, result):
    tr.counters["cli.bytes_written"] += os.path.getsize(args[0])


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced qcoord entry point; returns ``tracer``."""
    from qcoord import (cli, coordination, optimizer, protocol,
                        sampling)

    grid_cls = sampling.TypeGrid
    tracer.wrap(sampling, "sample_two_node_trial", "sampling.trial")
    tracer.wrap(grid_cls, "log_prob", "sampling.log_prob")
    tracer.wrap(grid_cls, "sample_counts", "sampling.sample_counts")
    tracer.wrap(sampling, "TypeGrid", "sampling.grid", _grid_hook)
    tracer.wrap(sampling, "arrange_within_rows", "sampling.arrange")

    tracer.wrap(protocol, "derandomize", "protocol.derandomize")
    for fn in ("simulate_two_node", "simulate_cascade"):
        tracer.wrap(protocol, fn, "protocol.simulate", _traces_hook)
    tracer.wrap(protocol, "build_codebook", "protocol.codebook",
                _codebook_hook)
    tracer.wrap(protocol, "encode_generic", "protocol.encode", _encode_hook)
    tracer.wrap(protocol, "decode_generic", "protocol.decode")
    tracer.wrap(protocol, "converse_check", "protocol.converse")

    for module in (protocol, coordination, optimizer):
        tracer.wrap(module, "trace_norm_distance", "quantum.trace_distance")
    tracer.wrap(protocol, "DensityOperator", "quantum.density")

    tracer.wrap(cli, "optimize", "optimizer.optimize")
    tracer.wrap(optimizer, "propose_atoms", "optimizer.propose",
                _propose_hook)
    tracer.wrap(optimizer, "minimize_conditional", "optimizer.minimize",
                _minimize_hook)

    for module in (coordination, optimizer, cli):
        tracer.wrap(module, "validate_extension", "coordination.validate")

    tracer.wrap(cli, "load_config", "config.load")
    for fn in ("resolve_family", "build_ensemble", "build_extension"):
        tracer.wrap(cli, fn, "config.build")
    for fn in ("write_csv_atomic", "write_json_atomic"):
        tracer.wrap(cli, fn, "cli.write", _written_hook)
    tracer.wrap(cli, "main", "cli.main")
    return tracer

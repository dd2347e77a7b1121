"""Batch front end: run experiment configs, write CSV artifacts + manifest.

Usage:  qcoord --config experiment.json --out results/ [--seed N]
        [--quiet]     (``--threads N`` is accepted and has no effect)

Exit codes: 0 success, 2 config parse error, 3 validation failure,
4 infeasible optimization, 5 resource cap exceeded, 1 unexpected error.

Artifacts are written atomically (temp file + rename).  CSV bodies are
byte-stable across reruns of the same config; the manifest carries the
config hash, library version, seeds, tolerances and wall time.  Each
command returns its tables; ``run`` writes them, and every CSV row repeats
the config hash for provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .classical import PmfError
from .config import (
    ConfigError,
    apply_sweep_value,
    build_ensemble,
    build_extension,
    config_hash,
    load_config,
    resolve_family,
    settings,
    validate_config,
)
from .coordination import (
    VALIDATION_TOL,
    CoordinationError,
    cascade_rate_point,
    isolated_rate,
    two_node_rate,
    validate_extension,
)
from .optimizer import FEAS_TOL, optimize, optimize_lambdas
from .protocol import (
    MemoryCapError,
    ProtocolError,
    converse_check,
    derandomize,
    simulate_cascade,
    simulate_two_node,
)
from .quantum import QuantumError
from .sampling import GridTooLarge

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_RESOURCE = 5


class ValidationFailure(RuntimeError):
    pass


class InfeasibleFailure(RuntimeError):
    pass


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it over."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv_atomic(path: str, header: list, rows: list) -> None:
    _write_atomic(path, "".join(",".join(_fmt(v) for v in row) + "\n"
                                for row in [header, *rows]))


def write_json_atomic(path: str, payload: dict) -> None:
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _built(cfg: dict):
    resolved = resolve_family(cfg)
    ens = build_ensemble(resolved)
    ext = build_extension(resolved, ens)
    report = validate_extension(ext, ens)
    if not report.passed:
        raise ValidationFailure(
            "extension fails validation against the ensemble:\n"
            + str(report))
    return ens, ext


def _rate_cells(ext) -> list:
    """The rate, r12 and r23 cells of a validated extension's row."""
    if ext.kind == "cascade":
        pt = cascade_rate_point(ext)
        return ["", repr(pt.r12), repr(pt.r23)]
    value = two_node_rate(ext) if ext.kind == "two-node" else isolated_rate(ext)
    return [repr(value), "", ""]


def cmd_rate(cfg, opts) -> dict:
    _, ext = _built(cfg)
    row = [ext.kind] + _rate_cells(ext)
    if not opts.quiet:
        if row[1]:
            print(f"rate: {float(row[1]):.6f} bits/symbol")
        else:
            print(f"rate region corner: ({float(row[2]):.6f}, "
                  f"{float(row[3]):.6f}) bits/symbol")
    return {"rate.csv": (["kind", "rate", "r12", "r23"], [row])}


def _optimize_args(cfg: dict):
    """The config's target and the ``optimize`` keywords its block sets."""
    kwargs = settings(cfg, "optimize")
    if "lambda" in kwargs:
        kwargs["lam"] = kwargs.pop("lambda")
    return build_ensemble(resolve_family(cfg)), kwargs


def _feasible(res):
    """``res``, once known feasible; a gap above tolerance is warned of."""
    if not res.feasible:
        raise InfeasibleFailure(res.message)
    if res.message:
        # a feasible result's message says its gap is above tolerance
        print(f"warning: {res.message}", file=sys.stderr)
    return res


def _optimized(cfg: dict):
    """The feasible result of the config's ``optimize`` block."""
    ens, kwargs = _optimize_args(cfg)
    return _feasible(optimize(ens, **kwargs))


def _corner_cells(res) -> list:
    pt = res.rate_point
    return [repr(pt.r12), repr(pt.r23)] if pt else ["", ""]


def cmd_optimize(cfg, opts) -> dict:
    res = _optimized(cfg)
    return {"optimize.csv": (
        ["kind", "value", "iterations", "max_residual", "r12", "r23", "gap"],
        [[res.extension.kind, repr(res.value), res.iterations,
          repr(res.max_residual)] + _corner_cells(res) + [repr(res.gap)]])}


# what a simulation command uses for a setting that its config leaves out
_SIM_DEFAULTS = {"n_grid": [200], "rates": [0.5], "trials": 100, "seed": 0,
                 "num_seeds": 10, "epsilon": 0.1}


def _sim_args(cfg: dict, opts, ext):
    """(settings, keywords shared by every simulate call); the command's
    own ``derandomize`` or ``converse`` block overrides ``simulate`` key by
    key, and ``--seed`` overrides both.  A grid setting that the command
    would drop, in whole or in part, is a ``ConfigError``."""
    command = cfg["command"]
    s = {**_SIM_DEFAULTS, **settings(cfg, "simulate", command)}
    if not s["n_grid"] or not s["rates"]:
        raise ConfigError(f"{command} needs a nonempty n_grid and rates")
    if command == "derandomize" and len(s["n_grid"]) * len(s["rates"]) > 1:
        raise ConfigError("derandomize takes one n_grid entry and one rate")
    two_node = ext.kind == "two-node"
    if s.get("rates23") is not None:
        if two_node:
            raise ConfigError("rates23 is for a three-node extension, not "
                              "a two-node one")
        if len(s["rates23"]) != len(s["rates"]):
            raise ConfigError("rates23 needs one entry per rate")
    if opts.seed is not None:
        s["seed"] = opts.seed
    keys = ["trials", "seed", "delta", "engine", "gamma_coeff",
            *(["codeword_rate"] if two_node
              else ["codeword_rate_y", "codeword_rate_z"])]
    return s, {k: s[k] for k in keys if s.get(k) is not None}


def _run_cells(cfg, opts):
    ens, ext = _built(cfg)
    two_node = ext.kind == "two-node"
    s, kwargs = _sim_args(cfg, opts, ext)
    rates23 = s.get("rates23")
    cells = []
    for n in s["n_grid"]:
        for idx, rate in enumerate(s["rates"]):
            if two_node:
                r23, traces = None, simulate_two_node(
                    ens, ext, n=n, rate=rate, **kwargs)
            else:
                r23 = rates23[idx] if rates23 else 0.0
                traces = simulate_cascade(ens, ext, n=n, rate12=rate,
                                          rate23=r23, **kwargs)
            cells.append((n, rate, r23, traces))
    return ens, ext, s, cells


def cmd_simulate(cfg, opts) -> dict:
    _, _, _, cells = _run_cells(cfg, opts)
    rows, summary = [], []
    for n, rate, r23, traces in cells:
        # columns as Python values: the CSV writes repr(float)
        dists, d_tau, enc, dec = (traces.column(k).tolist() for k in (
            "distance_to_target", "distance_to_tau", "encoder_fallback",
            "decoder_fallback"))
        run = traces.run
        rows += [[n, rate, r23, run["seed"], t, run["engine"], repr(d),
                  repr(d2), e, f]
                 for t, (d, d2, e, f) in enumerate(zip(dists, d_tau, enc,
                                                       dec))]
        summary.append([n, rate, r23, len(traces)] + [
            repr(float(v)) for v in (
                np.median(dists), np.percentile(dists, 25),
                np.percentile(dists, 75), np.mean(dists),
                np.mean(enc), np.mean(dec))])
    return {
        "simulate.csv": (["n", "rate", "rate23", "seed", "trial", "engine",
                          "distance_to_target", "distance_to_tau",
                          "encoder_fallback", "decoder_fallback"], rows),
        "simulate_summary.csv": (["n", "rate", "rate23", "trials", "median",
                                  "q25", "q75", "mean",
                                  "encoder_fallback_rate",
                                  "decoder_fallback_rate"], summary)}


def cmd_derandomize(cfg, opts) -> dict:
    ens, ext = _built(cfg)
    s, kwargs = _sim_args(cfg, opts, ext)
    n, rate = s["n_grid"][0], s["rates"][0]
    report = derandomize(ens, ext, n=n, rate=rate, num_seeds=s["num_seeds"],
                         epsilon=s["epsilon"], **kwargs)
    rows = [[n, rate, seed, repr(float(d)), 1 if i == report.best_index else 0]
            for i, (seed, d) in enumerate(zip(report.seeds,
                                              report.distances))]
    return {
        "derandomize.csv": (["n", "rate", "codebook_seed", "mean_distance",
                             "selected"], rows),
        "derandomize_summary.csv": (
            ["best_seed", "best_distance", "mean_distance", "q25", "q50",
             "q75", "epsilon", "meets_epsilon"],
            [[report.best_seed] + [repr(v) for v in (
                report.best_distance, report.mean_distance,
                *(report.quantiles[q] for q in (25, 50, 75)),
                report.epsilon)] + [report.meets_epsilon]])}


def cmd_converse(cfg, opts) -> dict:
    ens, ext, s, cells = _run_cells(cfg, opts)
    rows = []
    for n, rate, r23, traces in cells:
        report = converse_check(traces, ens, ext, rate=rate, rate23=r23,
                                **{k: s[k] for k in ["slack"] if k in s})
        rows += [[n, rate, r23, iq.name, repr(iq.information_bits),
                  repr(iq.rate_bound), repr(report.alpha),
                  repr(report.slack), repr(iq.margin), iq.passed]
                 for iq in report.inequalities]
    return {"converse.csv": (["n", "rate", "rate23", "inequality",
                              "information_bits", "rate_bound", "alpha_n",
                              "slack", "margin", "passed"], rows)}


def cmd_sweep(cfg, opts) -> dict:
    s = settings(cfg, "sweep")
    inner_cmd = s.get("command", "rate")
    if inner_cmd not in ("rate", "optimize"):
        raise ConfigError("sweep supports the rate and optimize commands")
    # values are substituted as written, so that max_merge_order stays
    # integral, and every swept config is checked before any solve
    subs = [validate_config(dict(apply_sweep_value(cfg, s["path"], value),
                                 command=inner_cmd))
            for value in cfg["sweep"]["values"]]
    if inner_cmd == "rate":
        cells = [_rate_cells(_built(sub)[1]) + [""] for sub in subs]
    else:
        cells = [[repr(res.value)] + _corner_cells(res) + [repr(res.gap)]
                 for res in _swept_optimize(subs, s["path"])]
    return {"sweep.csv": (["value", "rate", "r12", "r23", "gap"],
                          [[repr(value)] + row
                           for value, row in zip(s["values"], cells)])}


def _swept_optimize(subs: list, path_keys: list) -> list:
    """One feasible optimize result per swept config.

    A sweep over ``optimize.lambda`` is one ``optimize_lambdas`` call that
    shares the atom sets' faces; other sweeps solve config by config."""
    if path_keys != ["optimize", "lambda"] or not subs:
        return [_optimized(sub) for sub in subs]
    lams = [settings(sub, "optimize")["lambda"] for sub in subs]
    ens, kwargs = _optimize_args(subs[0])
    del kwargs["lam"]
    return [_feasible(res) for res in optimize_lambdas(ens, lams, **kwargs)]


_COMMANDS = dict(rate=cmd_rate, optimize=cmd_optimize, simulate=cmd_simulate,
                 derandomize=cmd_derandomize, converse=cmd_converse,
                 sweep=cmd_sweep)


def run(config_path: str, out_dir: str, opts) -> int:
    """Run the config's command, then write each table it returns as a CSV
    whose every row leads with the config hash, and then the manifest."""
    start = time.time()
    cfg = load_config(config_path)
    os.makedirs(out_dir, exist_ok=True)
    tables = _COMMANDS[cfg["command"]](cfg, opts)
    chash = config_hash(cfg)
    for name, (header, rows) in tables.items():
        write_csv_atomic(os.path.join(out_dir, name), ["config_hash", *header],
                         [[chash, *row] for row in rows])
    manifest = {
        "config_hash": chash,
        "command": cfg["command"],
        "library_version": __version__,
        "seed_override": opts.seed,
        "artifacts": list(tables),
        "wall_time_s": round(time.time() - start, 3),
        "tolerances": {"validation": VALIDATION_TOL,
                       "feasibility": FEAS_TOL},
    }
    write_json_atomic(os.path.join(out_dir, "manifest.json"), manifest)
    if not opts.quiet:
        for name in tables:
            print(os.path.join(out_dir, name))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcoord",
        description="Coordination rates and protocol simulation for "
                    "separable quantum states over classical networks.")
    parser.add_argument("--config", required=True, help="experiment JSON")
    parser.add_argument("--out", default="qcoord-out", help="output dir")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--threads", type=int, default=0,
                        help="accepted and has no effect: trials are drawn "
                             "on one thread")
    parser.add_argument("--quiet", action="store_true")
    opts = parser.parse_args(argv)
    if opts.threads < 0:
        parser.error(f"--threads must be at least 0, not {opts.threads}")
    try:
        return run(opts.config, opts.out, opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationFailure, CoordinationError, PmfError, QuantumError,
            ProtocolError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleFailure as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (MemoryCapError, GridTooLarge) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:  # pragma: no cover
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())

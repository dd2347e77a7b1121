"""Batch front end: run experiment configs, write CSV artifacts + manifest.

Usage:  qcoord --config experiment.json --out results/ [--seed N]
        [--threads N] [--quiet]

Exit codes: 0 success, 2 config parse error, 3 validation failure,
4 infeasible optimization, 5 resource cap exceeded, 1 unexpected error.

Artifacts are written atomically (temp file + rename).  CSV bodies are
byte-stable across reruns of the same config; the manifest carries the
config hash, library version, seeds, tolerances and wall time.  Every
CSV row repeats the config hash for provenance.
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
    setting,
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


def cmd_rate(cfg, out_dir, opts) -> list:
    _, ext = _built(cfg)
    rows = [[config_hash(cfg), ext.kind] + _rate_cells(ext)]
    path = os.path.join(out_dir, "rate.csv")
    write_csv_atomic(path, ["config_hash", "kind", "rate", "r12", "r23"],
                     rows)
    if not opts.quiet:
        row = rows[0]
        if row[2]:
            print(f"rate: {float(row[2]):.6f} bits/symbol")
        else:
            print(f"rate region corner: ({float(row[3]):.6f}, "
                  f"{float(row[4]):.6f}) bits/symbol")
    return [path]


def _optimize_args(cfg: dict):
    """The config's target and the ``optimize`` keywords its block sets."""
    block = setting(cfg, "optimize", "object", "", {})
    return build_ensemble(resolve_family(cfg)), _given(block, "optimize", (
        ("kind", "kind", "str"), ("max_merge_order", "max_merge_order", "int"),
        ("lambda", "lam", "number"), ("max_iters", "max_iters", "int")))


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


def cmd_optimize(cfg, out_dir, opts) -> list:
    res = _optimized(cfg)
    rows = [[config_hash(cfg), res.extension.kind, repr(res.value),
             res.iterations, repr(res.max_residual)]
            + _corner_cells(res) + [repr(res.gap)]]
    path = os.path.join(out_dir, "optimize.csv")
    write_csv_atomic(path, ["config_hash", "kind", "value", "iterations",
                            "max_residual", "r12", "r23", "gap"], rows)
    return [path]


def _given(block: dict, path: str, spec) -> dict:
    """Keyword arguments for the settings of ``spec`` that ``block`` sets.

    ``spec`` holds (config key, keyword, kind) triples; a key the config
    leaves out is not forwarded, so the library default applies.
    """
    return {kw: setting(block, key, kind, path)
            for key, kw, kind in spec if key in block}


def _sim_setting(cfg: dict):
    """Typed getter over the ``simulate`` block, where the command's own
    ``derandomize`` or ``converse`` block overrides it key by key."""
    names = ["simulate"]
    if cfg["command"] in ("derandomize", "converse"):
        names.append(cfg["command"])
    blocks = [(name, setting(cfg, name, "object", "", {})) for name in names]

    def get(key, kind, default=None):
        for name, block in reversed(blocks):
            if key in block:
                return setting(block, key, kind, name)
        return default
    return get


def _sim_args(get, opts, codeword_keys):
    """(n grid, rates, keywords shared by every simulate call)."""
    kwargs = dict(trials=get("trials", "int", 100),
                  seed=get("seed", "int", 0) if opts.seed is None
                  else opts.seed, threads=opts.threads)
    keys = [("delta", "number"), ("engine", "str"), ("gamma_coeff", "number?")]
    for key, kind in keys + [(k, "number?") for k in codeword_keys]:
        value = get(key, kind)
        if value is not None:
            kwargs[key] = value
    return (get("n_grid", "int[]", [200]), get("rates", "number[]", [0.5]),
            kwargs)


def _run_cells(cfg, opts):
    ens, ext = _built(cfg)
    two_node = ext.kind == "two-node"
    get = _sim_setting(cfg)
    n_grid, rates, kwargs = _sim_args(
        get, opts, ["codeword_rate"] if two_node
        else ["codeword_rate_y", "codeword_rate_z"])
    rates23 = None if two_node else get("rates23", "number[]?")
    if rates23 and len(rates23) < len(rates):
        raise ConfigError("rates23 needs one entry per rate")
    cells = []
    for n in n_grid:
        for idx, rate in enumerate(rates):
            if two_node:
                traces = simulate_two_node(ens, ext, n=n, rate=rate,
                                           **kwargs)
                r23 = None
            else:
                r23 = rates23[idx] if rates23 else 0.0
                traces = simulate_cascade(ens, ext, n=n, rate12=rate,
                                          rate23=r23, **kwargs)
            cells.append((n, rate, r23, traces))
    return ens, ext, cells


def cmd_simulate(cfg, out_dir, opts) -> list:
    chash = config_hash(cfg)
    ens, ext, cells = _run_cells(cfg, opts)
    rows, summary = [], []
    for n, rate, r23, traces in cells:
        dists = [t.distance_to_target for t in traces]
        for t in traces:
            rows.append([
                chash, n, rate, r23, t.seed, t.trial, t.engine,
                repr(t.distance_to_target), repr(t.distance_to_tau),
                t.encoder_fallback, t.decoder_fallback,
                t.index_match,
            ])
        summary.append([
            chash, n, rate, r23, len(traces),
            repr(float(np.median(dists))),
            repr(float(np.percentile(dists, 25))),
            repr(float(np.percentile(dists, 75))),
            repr(float(np.mean(dists))),
            repr(float(np.mean([t.encoder_fallback for t in traces]))),
            repr(float(np.mean([t.decoder_fallback for t in traces]))),
        ])
    p1 = os.path.join(out_dir, "simulate.csv")
    write_csv_atomic(p1, ["config_hash", "n", "rate", "rate23", "seed",
                          "trial", "engine", "distance_to_target",
                          "distance_to_tau", "encoder_fallback",
                          "decoder_fallback", "bob_charlie_index_match"],
                     rows)
    p2 = os.path.join(out_dir, "simulate_summary.csv")
    write_csv_atomic(p2, ["config_hash", "n", "rate", "rate23", "trials",
                          "median", "q25", "q75", "mean",
                          "encoder_fallback_rate", "decoder_fallback_rate"],
                     summary)
    return [p1, p2]


def cmd_derandomize(cfg, out_dir, opts) -> list:
    chash = config_hash(cfg)
    ens, ext = _built(cfg)
    get = _sim_setting(cfg)
    n_grid, rates, kwargs = _sim_args(get, opts, ["codeword_rate"])
    if not n_grid or not rates:
        raise ConfigError("derandomize needs a nonempty n_grid and rates")
    n, rate = n_grid[0], rates[0]
    report = derandomize(
        ens, ext, n=n, rate=rate, num_seeds=get("num_seeds", "int", 10),
        epsilon=get("epsilon", "number", 0.1), **kwargs)
    rows = [[chash, n, rate, s, repr(float(d)),
             1 if i == report.best_index else 0]
            for i, (s, d) in enumerate(zip(report.seeds, report.distances))]
    p1 = os.path.join(out_dir, "derandomize.csv")
    write_csv_atomic(p1, ["config_hash", "n", "rate", "codebook_seed",
                          "mean_distance", "selected"], rows)
    p2 = os.path.join(out_dir, "derandomize_summary.csv")
    write_csv_atomic(p2, ["config_hash", "best_seed", "best_distance",
                          "mean_distance", "q25", "q50", "q75",
                          "epsilon", "meets_epsilon"],
                     [[chash, report.best_seed, repr(report.best_distance),
                       repr(report.mean_distance),
                       repr(report.quantiles[25]),
                       repr(report.quantiles[50]),
                       repr(report.quantiles[75]),
                       repr(report.epsilon), report.meets_epsilon]])
    return [p1, p2]


def cmd_converse(cfg, out_dir, opts) -> list:
    chash = config_hash(cfg)
    ens, ext, cells = _run_cells(cfg, opts)
    slack = _given(setting(cfg, "converse", "object", "", {}), "converse",
                   [("slack", "slack", "number")])
    rows = []
    for n, rate, r23, traces in cells:
        report = converse_check(traces, ens, ext, rate=rate, rate23=r23,
                                **slack)
        for iq in report.inequalities:
            rows.append([chash, n, rate, r23, iq.name,
                         repr(iq.information_bits), repr(iq.rate_bound),
                         repr(report.alpha), repr(report.slack),
                         repr(iq.margin), iq.passed])
    path = os.path.join(out_dir, "converse.csv")
    write_csv_atomic(path, ["config_hash", "n", "rate", "rate23",
                            "inequality", "information_bits", "rate_bound",
                            "alpha_n", "slack", "margin", "passed"], rows)
    return [path]


def cmd_sweep(cfg, out_dir, opts) -> list:
    block = setting(cfg, "sweep", "object", "")
    path_keys = setting(block, "path", "list", "sweep")
    # checked as numbers, but substituted as written, so that a sweep over
    # an integer setting such as max_merge_order stays integral
    setting(block, "values", "number[]", "sweep")
    inner_cmd = setting(block, "command", "str", "sweep", "rate")
    if inner_cmd not in ("rate", "optimize"):
        raise ConfigError("sweep supports the rate and optimize commands")
    subs = [dict(apply_sweep_value(cfg, path_keys, value),
                 command=inner_cmd) for value in block["values"]]
    if inner_cmd == "rate":
        cells = [_rate_cells(_built(sub)[1]) + [""] for sub in subs]
    else:
        cells = [[repr(res.value)] + _corner_cells(res) + [repr(res.gap)]
                 for res in _swept_optimize(subs, path_keys)]
    chash = config_hash(cfg)
    rows = [[chash, repr(float(value))] + row
            for value, row in zip(block["values"], cells)]
    path = os.path.join(out_dir, "sweep.csv")
    write_csv_atomic(path, ["config_hash", "value", "rate", "r12", "r23",
                            "gap"], rows)
    return [path]


def _swept_optimize(subs: list, path_keys: list) -> list:
    """One feasible optimize result per swept config.

    A sweep over ``optimize.lambda`` is one ``optimize_lambdas`` call, so
    that every weight shares its atom sets' faces; every weight is read
    and checked before any solve.  Other sweeps solve config by config.
    """
    if path_keys != ["optimize", "lambda"] or not subs:
        return [_optimized(sub) for sub in subs]
    lams = [setting(sub["optimize"], "lambda", "number", "optimize")
            for sub in subs]
    ens, kwargs = _optimize_args(subs[0])
    del kwargs["lam"]
    return [_feasible(res) for res in optimize_lambdas(ens, lams, **kwargs)]


_COMMANDS = {
    "rate": cmd_rate,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
    "derandomize": cmd_derandomize,
    "converse": cmd_converse,
    "sweep": cmd_sweep,
}


def run(config_path: str, out_dir: str, opts) -> int:
    start = time.time()
    cfg = load_config(config_path)
    os.makedirs(out_dir, exist_ok=True)
    artifacts = _COMMANDS[cfg["command"]](cfg, out_dir, opts)
    manifest = {
        "config_hash": config_hash(cfg),
        "command": cfg["command"],
        "library_version": __version__,
        "seed_override": opts.seed,
        "threads": opts.threads,
        "artifacts": [os.path.basename(a) for a in artifacts],
        "wall_time_s": round(time.time() - start, 3),
        "tolerances": {"validation": VALIDATION_TOL,
                       "feasibility": FEAS_TOL},
    }
    write_json_atomic(os.path.join(out_dir, "manifest.json"), manifest)
    if not opts.quiet:
        for a in artifacts:
            print(a)
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
                        help="worker threads for sampled-engine trials "
                             "(0 = auto)")
    parser.add_argument("--quiet", action="store_true")
    opts = parser.parse_args(argv)
    if opts.threads < 0:
        parser.error(f"--threads must be at least 0, not {opts.threads}")
    if opts.threads == 0:
        opts.threads = min(8, os.cpu_count() or 1)
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

"""JSON experiment configs: schema, loading, and lossless round-trips.

Top-level layout (all numeric matrices use the shared literal format:
nested [re, im] pairs, row-major):

    {
      "schema": 1,
      "command": "rate" | "optimize" | "simulate" | "derandomize"
                 | "converse" | "sweep",
      "ensemble": {
        "registers": {"A": 2, "B": 2[, "C": dC]},
        "source": {"variable": "X", "symbols": [...], "probs": [...]},
        "states": [ {"A": lit, "B": lit[, "C": lit]} | {"full": lit}, ... ]
      },
      "extension": {
        "kind": "two-node" | "cascade" | "isolated",
        "labels": {"Y": [...][, "Z": [...]]},
        "joint": nested probability list (X-major),
        "atoms_a": [lit, ...]          # optional; defaults to the A parts
        "atoms_b": [lit, ...],
        "atoms_c": [lit, ...]          # three-register kinds only
      },
      "family": {"name": "phase_flip", "p": 0.1},   # alternative to
                                                    # ensemble+extension
      "optimize": {"kind": ..., "max_merge_order": 3, "lambda": 0.0},
      "simulate": {"n_grid": [...], "rates": [...], "trials": ...,
                   "delta": ..., "seed": ..., "engine": "auto",
                   "codeword_rate": null, "rates23": [...]},
      "derandomize": {"num_seeds": ..., "epsilon": ..., plus simulate keys},
      "converse": {"slack": 0.02, plus simulate keys},
      "sweep": {"path": ["family", "p"], "values": [...],
                "command": "rate"}
    }

The ``family`` block generates matching ensemble + extension pairs for
parametric studies; ``phase_flip`` is the conjugate-basis dephasing pair
whose rate has the closed form 1 - h(p).
"""

from __future__ import annotations

import copy
import hashlib
import json

import numpy as np

from .classical import Alphabet, JointPmf
from .coordination import CoordinationError, CqEnsemble, Extension
from .quantum import DensityOperator, matrix_from_literal, matrix_to_literal

SCHEMA_VERSION = 1
COMMANDS = ("rate", "optimize", "simulate", "derandomize", "converse",
            "sweep")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment config."""


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    return validate_config(cfg)


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema {cfg.get('schema')!r}; "
                          f"expected {SCHEMA_VERSION}")
    cmd = cfg.get("command")
    if cmd not in COMMANDS:
        raise ConfigError(f"unknown command {cmd!r}; choose from {COMMANDS}")
    if "family" not in cfg and "ensemble" not in cfg:
        raise ConfigError("config needs an 'ensemble' or a 'family' block")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def resolve_family(cfg: dict) -> dict:
    """Expand a ``family`` block into explicit ensemble+extension blocks."""
    if "family" not in cfg:
        return cfg
    fam = cfg["family"]
    name = fam.get("name")
    if name == "phase_flip":
        out = copy.deepcopy(cfg)
        blocks = phase_flip_blocks(float(fam["p"]))
        out.update(blocks)
        out.pop("family")
        return out
    raise ConfigError(f"unknown ensemble family {name!r}")


def phase_flip_blocks(p: float) -> dict:
    """Ensemble/extension blocks for the conjugate-basis dephasing pair.

    Source bit selects |0> or |1> on A; B holds the conjugate-basis state
    flipped with probability p.  The admissible extension uses the two
    conjugate-basis atoms, and its rate is 1 - h(p).
    """
    if not 0.0 <= p <= 1.0:
        raise ConfigError("flip probability must be in [0, 1]")
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    b0 = (1 - p) * plus + p * minus
    b1 = p * plus + (1 - p) * minus
    k0 = [[1, 0], [0, 0]]
    k1 = [[0, 0], [0, 1]]
    ensemble = {
        "registers": {"A": 2, "B": 2},
        "source": {"variable": "X", "symbols": ["x0", "x1"],
                   "probs": [0.5, 0.5]},
        "states": [
            {"A": matrix_to_literal(k0), "B": matrix_to_literal(b0)},
            {"A": matrix_to_literal(k1), "B": matrix_to_literal(b1)},
        ],
    }
    extension = {
        "kind": "two-node",
        "labels": {"Y": ["y+", "y-"]},
        "joint": [[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]],
        "atoms_b": [matrix_to_literal(plus), matrix_to_literal(minus)],
    }
    return {"ensemble": ensemble, "extension": extension}


def _need(block, key: str, path: str):
    """``block[key]``, or a ConfigError naming the missing ``path.key``."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path} must be a JSON object")
    if key not in block:
        raise ConfigError(f"{path}.{key} is missing")
    return block[key]


def build_ensemble(cfg: dict) -> CqEnsemble:
    block = cfg.get("ensemble")
    if block is None:
        raise ConfigError("config has no ensemble block")
    regs = _need(block, "registers", "ensemble")
    src = _need(block, "source", "ensemble")
    symbols = _need(src, "symbols", "ensemble.source")
    alpha = Alphabet(src.get("variable", "X"), symbols)
    source = JointPmf([alpha], np.asarray(
        _need(src, "probs", "ensemble.source"), dtype=float))
    states = []
    for i, entry in enumerate(_need(block, "states", "ensemble")):
        if "full" in entry:
            mat = matrix_from_literal(entry["full"])
        else:
            parts = [matrix_from_literal(_need(entry, r,
                                               f"ensemble.states[{i}]"))
                     for r in regs]
            mat = parts[0]
            for part in parts[1:]:
                mat = np.kron(mat, part)
        states.append(DensityOperator(mat))
    try:
        return CqEnsemble(source, states, {r: int(regs[r]) for r in regs})
    except CoordinationError as exc:
        raise ConfigError(str(exc)) from None


def _joint_table(spec, variables) -> np.ndarray:
    """Dense table from either a nested list or sparse symbol-tuple entries.

    Sparse form: [{"symbols": ["x0", "y0"], "p": 0.5}, ...].
    """
    if isinstance(spec, list) and spec and isinstance(spec[0], dict):
        table = np.zeros(tuple(v.size for v in variables))
        for entry in spec:
            idx = tuple(v.index(s)
                        for v, s in zip(variables, entry["symbols"]))
            table[idx] += float(entry["p"])
        return table
    return np.asarray(spec, dtype=float)


def build_extension(cfg: dict, ensemble: CqEnsemble) -> Extension:
    block = cfg.get("extension")
    if block is None:
        raise ConfigError("config has no extension block")
    kind = block.get("kind", "two-node")
    labels = _need(block, "labels", "extension")
    x_alpha = ensemble.x_alphabet
    names = ["Y"] if kind == "two-node" else ["Y", "Z"]
    variables = [x_alpha] + [Alphabet(v, _need(labels, v, "extension.labels"))
                             for v in names]
    joint = JointPmf(variables,
                     _joint_table(_need(block, "joint", "extension"),
                                  variables))
    if "atoms_a" in block:
        atoms_a = [DensityOperator(matrix_from_literal(m))
                   for m in block["atoms_a"]]
    else:
        atoms_a = [ensemble.a_part(i) for i in range(x_alpha.size)]
    atoms_b = [DensityOperator(matrix_from_literal(m))
               for m in _need(block, "atoms_b", "extension")]
    atoms_c = None
    if kind != "two-node":
        atoms_c = [DensityOperator(matrix_from_literal(m))
                   for m in _need(block, "atoms_c", "extension")]
    try:
        return Extension(joint, atoms_a, atoms_b, atoms_c, kind=kind)
    except CoordinationError as exc:
        raise ConfigError(str(exc)) from None


def ensemble_to_config(ens: CqEnsemble) -> dict:
    return {
        "registers": {r: int(d) for r, d in ens.register_dims.items()},
        "source": {
            "variable": ens.x_alphabet.name,
            "symbols": list(ens.x_alphabet.symbols),
            "probs": [float(p) for p in ens.source.table],
        },
        "states": [{"full": matrix_to_literal(s.matrix)}
                   for s in ens.states],
    }


def extension_to_config(ext: Extension) -> dict:
    labels = {"Y": list(ext.joint.variables[1].symbols)}
    if ext.kind != "two-node":
        labels["Z"] = list(ext.joint.variables[2].symbols)
    out = {
        "kind": ext.kind,
        "labels": labels,
        "joint": ext.joint.table.tolist(),
        "atoms_a": [matrix_to_literal(a.matrix) for a in ext.atoms_a],
        "atoms_b": [matrix_to_literal(b.matrix) for b in ext.atoms_b],
    }
    if ext.atoms_c is not None:
        out["atoms_c"] = [matrix_to_literal(c.matrix) for c in ext.atoms_c]
    return out


def apply_sweep_value(cfg: dict, path, value) -> dict:
    """Deep-copy the config with the value at ``path`` replaced."""
    out = copy.deepcopy(cfg)
    node = out
    for key in path[:-1]:
        node = node[key] if isinstance(node, dict) else node[int(key)]
    last = path[-1]
    if isinstance(node, dict):
        node[last] = value
    else:
        node[int(last)] = value
    return out

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
      "optimize": {...}, "simulate": {...}, "derandomize": {...},
      "converse": {...}, "sweep": {...}     # settings; see SETTINGS
    }

Every settings key has its kind in ``SETTINGS``, and ``validate_config``
reads them all at load.  ``derandomize`` and ``converse`` take the
``simulate`` keys too, and override that block key by key (``settings``).
The ``ensemble``, ``ensemble.source``, ``extension`` and ``family`` blocks
refuse any key outside ``_BLOCK_KEYS`` when they are built.

The ``family`` block generates matching ensemble + extension pairs for
parametric studies; ``phase_flip`` is the conjugate-basis dephasing pair
whose rate has the closed form 1 - h(p).
"""

from __future__ import annotations

import copy
import hashlib
import json
from functools import reduce

import numpy as np

from .classical import Alphabet, JointPmf
from .coordination import CoordinationError, CqEnsemble, Extension
from .quantum import DensityOperator, matrix_from_literal, matrix_to_literal

SCHEMA_VERSION = 1
COMMANDS = ("rate", "optimize", "simulate", "derandomize", "converse",
            "sweep")

_SIMULATE = {"n_grid": "int[]", "rates": "number[]", "rates23": "number[]?",
             "trials": "int", "seed": "int", "delta": "number",
             "engine": "str", "gamma_coeff": "number?",
             "codeword_rate": "number?", "codeword_rate_y": "number?",
             "codeword_rate_z": "number?"}
# every settings block's keys and their ``setting`` kinds
SETTINGS = {
    "optimize": {"kind": "str", "max_merge_order": "int", "lambda": "number",
                 "max_iters": "int"},
    "simulate": _SIMULATE,
    "derandomize": {**_SIMULATE, "num_seeds": "int", "epsilon": "number"},
    "converse": {**_SIMULATE, "slack": "number"},
    "sweep": {"path": "list", "values": "number[]", "command": "str"},
}
_TOP_KEYS = ("schema", "command", "ensemble", "extension", "family", *SETTINGS)
# the keys that each block reads: the settings blocks' and the others'
_BLOCK_KEYS = {
    **SETTINGS,
    "ensemble": ("registers", "source", "states"),
    "ensemble.source": ("variable", "symbols", "probs"),
    "extension": ("kind", "labels", "joint", "atoms_a", "atoms_b",
                  "atoms_c"),
    "family": ("name", "p"),
}


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
    """``cfg``, once its header and settings blocks check out; the other
    blocks are checked as they are built."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema {cfg.get('schema')!r}; "
                          f"expected {SCHEMA_VERSION}")
    cmd = cfg.get("command")
    if cmd not in COMMANDS:
        raise ConfigError(f"unknown command {cmd!r}; choose from {COMMANDS}")
    for key in cfg:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown key {key!r}; choose from {_TOP_KEYS}")
    if "family" not in cfg and "ensemble" not in cfg:
        raise ConfigError("config needs an 'ensemble' or a 'family' block")
    settings(cfg, *SETTINGS)
    for key in ("path", "values") if cmd == "sweep" else ():
        _need(_need(cfg, "sweep", ""), key, "sweep")
    return cfg


def settings(cfg: dict, *blocks: str) -> dict:
    """The typed values that the settings ``blocks`` of ``cfg`` set, a
    later block overriding an earlier one key by key.  A key that no block
    sets is left out; one that ``SETTINGS`` does not list is an error."""
    out = {}
    for name in blocks:
        block = _known(setting(cfg, name, "object", "", {}), name)
        for key in block:
            out[key] = setting(block, key, SETTINGS[name][key], name)
    return out


def _known(block, path: str) -> dict:
    """``block``, once it is a JSON object that sets only keys that
    ``_BLOCK_KEYS[path]`` lists."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path} must be a JSON object, not {block!r}")
    for key in block:
        if key not in _BLOCK_KEYS[path]:
            raise ConfigError(f"unknown key {path}.{key}; choose from "
                              f"{tuple(_BLOCK_KEYS[path])}")
    return block


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def resolve_family(cfg: dict) -> dict:
    """Expand a ``family`` block into explicit ensemble+extension blocks."""
    if "family" not in cfg:
        return cfg
    fam = _known(cfg["family"], "family")
    name = setting(fam, "name", "str", "family", None)
    if name == "phase_flip":
        out = copy.deepcopy(cfg)
        blocks = phase_flip_blocks(setting(fam, "p", "number", "family"))
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
        raise ConfigError(f"{path or 'config'} must be a JSON object")
    if key not in block:
        raise ConfigError(f"{_join(path, key)} is missing")
    return block[key]


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


_KINDS = {"int": ("an integer", int), "number": ("a number", (int, float)),
          "str": ("a string", str), "list": ("a list", list),
          "object": ("a JSON object", dict),
          "symbol": ("a string or a number", (str, int, float))}
_ABSENT = object()


def setting(block, key: str, kind: str, path: str, default=_ABSENT):
    """``block[key]`` checked to be of ``kind``; ``default`` when absent.

    ``kind`` names an entry of ``_KINDS`` (numbers come back as floats); a
    ``[]`` suffix asks for a list of that kind and a ``?`` suffix accepts
    null, returned as None.  A value of another kind, or a missing key
    without a default, raises a ConfigError naming ``path.key``.
    """
    if default is not _ABSENT and isinstance(block, dict) \
            and key not in block:
        return default
    value = _need(block, key, path)
    where = _join(path, key)
    if kind.endswith("?"):
        if value is None:
            return None
        kind = kind[:-1]
    if kind.endswith("[]"):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, not {value!r}")
        return [_typed(v, kind[:-2], f"{where}[{i}]")
                for i, v in enumerate(value)]
    return _typed(value, kind, where)


def _typed(value, kind: str, where: str):
    name, types = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{where} must be {name}, not {value!r}")
    return float(value) if kind == "number" else value


def _matrix(literal, where: str) -> np.ndarray:
    """A matrix literal (nested [re, im] pairs), or a ConfigError."""
    try:
        return matrix_from_literal(literal)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} is not a matrix literal of "
                          "[re, im] pairs") from None


def build_ensemble(cfg: dict) -> CqEnsemble:
    block = cfg.get("ensemble")
    if block is None:
        raise ConfigError("config has no ensemble block")
    block = _known(block, "ensemble")
    regs = setting(block, "registers", "object", "ensemble")
    if list(regs) not in (["A", "B"], ["A", "B", "C"]):
        raise ConfigError("ensemble.registers must be [A,B] or [A,B,C], "
                          f"got {list(regs)}")
    dims = {r: setting(regs, r, "int", "ensemble.registers") for r in regs}
    src = _known(setting(block, "source", "object", "ensemble"),
                 "ensemble.source")
    alpha = Alphabet(setting(src, "variable", "str", "ensemble.source", "X"),
                     setting(src, "symbols", "symbol[]", "ensemble.source"))
    source = JointPmf([alpha], np.asarray(
        setting(src, "probs", "number[]", "ensemble.source"), dtype=float))
    states = []
    for i, entry in enumerate(setting(block, "states", "list", "ensemble")):
        where = f"ensemble.states[{i}]"
        if isinstance(entry, dict) and "full" in entry:
            mat = _matrix(entry["full"], f"{where}.full")
        else:
            parts = [_matrix(_need(entry, r, where), f"{where}.{r}")
                     for r in regs]
            for part in parts:  # each a state, so no product can overflow
                DensityOperator(part)
            mat = reduce(np.kron, parts)
        states.append(DensityOperator(mat))
    try:
        return CqEnsemble(source, states, dims)
    except CoordinationError as exc:
        raise ConfigError(str(exc)) from None


def _joint_table(spec, variables) -> np.ndarray:
    """Dense table from either a nested list or sparse symbol-tuple entries.

    Sparse form: [{"symbols": ["x0", "y0"], "p": 0.5}, ...].
    """
    if isinstance(spec, list) and spec and isinstance(spec[0], dict):
        table = np.zeros(tuple(v.size for v in variables))
        for i, entry in enumerate(spec):
            where = f"extension.joint[{i}]"
            symbols = setting(entry, "symbols", "list", where)
            if len(symbols) != len(variables):
                raise ConfigError(f"{where}.symbols needs one symbol per "
                                  "variable")
            idx = tuple(v.index(s) for v, s in zip(variables, symbols))
            table[idx] += setting(entry, "p", "number", where)
        return table
    try:
        return np.asarray(spec, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("extension.joint is not a nested list of "
                          "probabilities") from None


def build_extension(cfg: dict, ensemble: CqEnsemble) -> Extension:
    block = cfg.get("extension")
    if block is None:
        raise ConfigError("config has no extension block")
    block = _known(block, "extension")
    kind = setting(block, "kind", "str", "extension", "two-node")
    labels = setting(block, "labels", "object", "extension")
    x_alpha = ensemble.x_alphabet
    names = ["Y"] if kind == "two-node" else ["Y", "Z"]
    variables = [x_alpha] + [
        Alphabet(v, setting(labels, v, "symbol[]", "extension.labels"))
        for v in names]
    joint = JointPmf(variables,
                     _joint_table(_need(block, "joint", "extension"),
                                  variables))

    def atoms(key):
        return [DensityOperator(_matrix(m, f"extension.{key}[{i}]"))
                for i, m in enumerate(setting(block, key, "list",
                                              "extension"))]

    if "atoms_a" in block:
        atoms_a = atoms("atoms_a")
    else:
        atoms_a = [ensemble.a_part(i) for i in range(x_alpha.size)]
    atoms_b = atoms("atoms_b")
    atoms_c = atoms("atoms_c") if kind != "two-node" else None
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
    try:
        for key in path[:-1]:
            node = node[key] if isinstance(node, dict) else node[int(key)]
        last = path[-1]
        if isinstance(node, dict):
            node[last] = value
        else:
            node[int(last)] = value
    except (KeyError, IndexError, TypeError, ValueError):
        raise ConfigError(f"sweep.path {path!r} does not name a config "
                          "entry") from None
    return out

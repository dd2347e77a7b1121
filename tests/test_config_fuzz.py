"""Mutated experiment configs never exit 1 (an unexpected error).

Each example takes one of ``configs/*.json``, shrinks its simulation
settings so that any run is short, and applies one or two mutations:
delete a key (or list entry), halve a number, or replace the value with
one from ``PALETTE``.  Its path comes, with equal weight, from the
settings blocks (``SETTINGS``), from the numbers of the model blocks
(matrix entries and parameters), or from anywhere in the config, where
most picks hit keys that fail early (``schema``, ``command``, a whole
block); a structural mutation (delete, halve) is as likely as a palette
value.  ``main`` must exit 0, 2, 3, 4 or 5, and only a successful run
may leave a ``manifest.json``.  The hypothesis profile sets the number
of examples (``tests/conftest.py``).
"""

import copy
import glob
import json
import math
import os
import tempfile

from hypothesis import given
from hypothesis import strategies as st

from qcoord.cli import EXIT_OK, main

CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                        "configs", "*.json")))
# no large positive integer, so that no mutation asks for a long run
PALETTE = [None, "", "x", [], {}, [[0]], True, -1, 0, 0.5, 1e308, math.nan]
DELETE, HALVE = "<delete>", "<halve>"
SETTINGS = ("simulate", "derandomize", "converse", "optimize", "sweep")


def shrunk(cfg: dict) -> dict:
    """``cfg`` with at most 2 trials at one small n and at most 2 seeds."""
    if "simulate" in cfg:
        cfg["simulate"].update(n_grid=[16],
                               trials=min(cfg["simulate"]["trials"], 2))
    if "derandomize" in cfg:
        cfg["derandomize"]["num_seeds"] = min(
            cfg["derandomize"]["num_seeds"], 2)
    return cfg


def paths(node, prefix):
    """``prefix`` and the path of every dict value and list entry below
    ``node``, which sits at ``prefix``."""
    yield prefix
    if isinstance(node, (dict, list)):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from paths(node[key], prefix + (key,))


def at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def anywhere(draw, cfg):
    """A top-level key, then a depth below it, then a path at that depth:
    the many matrix entries deep in the ensemble do not crowd out the
    shallow keys."""
    top = draw(st.sampled_from(list(cfg)))
    found = list(paths(cfg[top], (top,)))
    depth = draw(st.sampled_from(sorted({len(p) for p in found})))
    return draw(st.sampled_from([p for p in found if len(p) == depth]))


@st.composite
def mutated_configs(draw):
    with open(draw(st.sampled_from(CONFIGS))) as fh:
        cfg = shrunk(json.load(fh))
    for _ in range(draw(st.integers(1, 2))):
        if not cfg:
            break
        found = [p for top in cfg for p in paths(cfg[top], (top,))]
        pools = [st.sampled_from(pool) for pool in (
            [p for p in found if p[0] in SETTINGS and len(p) > 1],
            [p for p in found if p[0] not in SETTINGS
             and is_number(at(cfg, p))]) if pool]
        path = draw(st.one_of(*pools, anywhere(cfg)))
        parent, old = at(cfg, path[:-1]), at(cfg, path)
        value = draw(st.one_of(
            st.sampled_from([DELETE] + [HALVE] * is_number(old)),
            st.sampled_from(PALETTE)))
        if value == DELETE:
            del parent[path[-1]]
        elif value == HALVE:
            parent[path[-1]] = type(old)(old / 2)
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return cfg


@given(mutated_configs())
def test_mutated_config_never_exits_1(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        code = main(["--config", path, "--out", out, "--quiet"])
        assert code in (0, 2, 3, 4, 5)
        assert os.path.exists(os.path.join(out, "manifest.json")) == \
            (code == EXIT_OK)

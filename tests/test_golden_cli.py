"""Golden pins for the CLI: every shipped config must reproduce its CSVs.

Each ``configs/*.json`` runs through ``qcoord.cli.main`` with simulate
trials capped at ``MAX_TRIALS`` and derandomize seeds at ``MAX_SEEDS``.
Every CSV it writes is compared with
``tests/golden/cli/<config>.json``: integer and text cells exactly, float
cells to ``FLOAT_TOL``.  ``manifest.json`` carries wall times and is left
out.

Regenerate only for an intended change of behaviour, and record why;
name the pins that change (file names without ``.json``), so that float
rounding in the others does not churn them.  Without names, every pin is
rewritten:

    PYTHONPATH=src python tests/test_golden_cli.py --regenerate [NAME...]
"""

import csv
import glob
import json
import os
import sys
import tempfile

import pytest

from qcoord.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(os.path.dirname(HERE), "configs")
GOLDEN_DIR = os.path.join(HERE, "golden", "cli")
FLOAT_TOL = 1e-12
MAX_TRIALS = 8
MAX_SEEDS = 3

CONFIGS = sorted(os.path.splitext(os.path.basename(p))[0]
                 for p in glob.glob(os.path.join(CONFIG_DIR, "*.json")))


def capped_config(name: str) -> dict:
    with open(os.path.join(CONFIG_DIR, f"{name}.json")) as fh:
        cfg = json.load(fh)
    for block in ("simulate", "derandomize", "converse"):
        if "trials" in cfg.get(block, {}):
            cfg[block]["trials"] = min(cfg[block]["trials"], MAX_TRIALS)
    if "num_seeds" in cfg.get("derandomize", {}):
        cfg["derandomize"]["num_seeds"] = min(
            cfg["derandomize"]["num_seeds"], MAX_SEEDS)
    return cfg


def run_record(name: str, work_dir: str) -> dict:
    """Exit code and the rows of every CSV the capped config writes."""
    cfg_path = os.path.join(work_dir, f"{name}.json")
    with open(cfg_path, "w") as fh:
        json.dump(capped_config(name), fh)
    out = os.path.join(work_dir, f"{name}-out")
    code = main(["--config", cfg_path, "--out", out, "--quiet"])
    files = {}
    for path in sorted(glob.glob(os.path.join(out, "*.csv"))):
        with open(path, newline="") as fh:
            files[os.path.basename(path)] = list(csv.reader(fh))
    return {"exit": code, "files": files}


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def cell_matches(got: str, want: str) -> bool:
    """Integer and text cells exactly, float cells to FLOAT_TOL."""
    try:
        int(want)
        return got == want
    except ValueError:
        pass
    try:
        want_f = float(want)
    except ValueError:
        return got == want
    try:
        return abs(float(got) - want_f) <= FLOAT_TOL
    except ValueError:
        return False


@pytest.mark.parametrize("name", CONFIGS)
def test_cli_matches_golden(name, tmp_path):
    with open(golden_path(name)) as fh:
        want = json.load(fh)
    got = run_record(name, str(tmp_path))
    assert got["exit"] == want["exit"]
    assert sorted(got["files"]) == sorted(want["files"])
    for fname, rows in want["files"].items():
        got_rows = got["files"][fname]
        assert len(got_rows) == len(rows), fname
        for r, (g_row, w_row) in enumerate(zip(got_rows, rows)):
            assert len(g_row) == len(w_row), f"{fname} row {r}"
            for c, (g, w) in enumerate(zip(g_row, w_row)):
                assert cell_matches(g, w), \
                    f"{fname} row {r} column {c}: {g!r} != {w!r}"


def regenerate(names=()) -> None:
    """Rewrite the named pins, or every pin when none is named."""
    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        sys.exit(f"no pins named {unknown}; pins: {', '.join(CONFIGS)}")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as work_dir:
        for name in sorted(set(names)) or CONFIGS:
            rec = run_record(name, work_dir)
            with open(golden_path(name), "w") as fh:
                json.dump(rec, fh, separators=(",", ":"))
                fh.write("\n")
            print(f"wrote {golden_path(name)} (exit {rec['exit']})")


def test_regenerate_rewrites_only_the_named_pins(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "GOLDEN_DIR", str(tmp_path))
    with pytest.raises(SystemExit):
        regenerate(["example1_decomposition_a", "no_such_config"])
    assert os.listdir(tmp_path) == []
    regenerate(["example1_decomposition_a"])
    assert os.listdir(tmp_path) == ["example1_decomposition_a.json"]
    with open(golden_path("example1_decomposition_a")) as fh:
        got = json.load(fh)
    with open(os.path.join(HERE, "golden", "cli",
                           "example1_decomposition_a.json")) as fh:
        want = json.load(fh)
    assert got["exit"] == want["exit"]
    assert sorted(got["files"]) == sorted(want["files"])


if __name__ == "__main__":
    if sys.argv[1:2] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden_cli.py --regenerate "
                 "[NAME...]")
    regenerate(sys.argv[2:])

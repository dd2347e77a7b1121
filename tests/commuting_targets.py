"""Optimize 200 random commuting targets through the CLI; print the exits.

Target i (0-based) of ``default_rng(7)`` draws, in this order: |X| and
d_B from {2, 3}, p(x) from a flat Dirichlet, a Haar unitary U (complex
Gaussian, QR, phases fixed), and spectra w_x from Dirichlet(0.3) on d_B
symbols.  Its states are |x><x| (x) U diag(w_x) U^dagger, which commute,
so every target is feasible and the documented exit is 0.  Prints the
histogram of ``main``'s exit codes and each nonzero exit's last stderr
line; exits 1 if any target exits 1 (an uncaught error).

    PYTHONPATH=src python tests/commuting_targets.py
"""

import collections
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from qcoord.classical import Alphabet, JointPmf
from qcoord.cli import main
from qcoord.config import ensemble_to_config
from qcoord.coordination import CqEnsemble
from qcoord.quantum import DensityOperator, tensor


def targets(count: int):
    """The first ``count`` targets, as ``CqEnsemble``s."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        nx, d = rng.integers(2, 4), rng.integers(2, 4)
        px = rng.dirichlet(np.ones(nx))
        g = (rng.standard_normal((d, d))
             + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
        q, r = np.linalg.qr(g)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        spectra = rng.dirichlet(0.3 * np.ones(d), size=nx)
        states = [tensor(DensityOperator.basis_state(nx, x),
                         DensityOperator(u @ np.diag(w) @ u.conj().T))
                  for x, w in enumerate(spectra)]
        yield CqEnsemble(
            JointPmf([Alphabet("X", [f"x{x}" for x in range(nx)])], px),
            states, {"A": int(nx), "B": int(d)})


def run(ens, workdir: Path):
    """``main``'s exit code on the target's two-node optimize config, run
    in the new directory ``workdir``, and the last line of its stderr."""
    workdir.mkdir()
    path = workdir / "cfg.json"
    path.write_text(json.dumps({
        "schema": 1, "command": "optimize",
        "ensemble": ensemble_to_config(ens),
        "optimize": {"kind": "two-node"}}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "--out", str(workdir / "out"),
                     "--quiet"])
    lines = err.getvalue().strip().splitlines()
    return code, lines[-1] if lines else ""


def reproduce(count: int = 200) -> int:
    """Run the first ``count`` targets; 1 if any exits 1, else 0."""
    exits = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for i, ens in enumerate(targets(count)):
            code, last = run(ens, Path(tmp) / str(i))
            exits[code] += 1
            if code:
                print(f"target {i}: exit {code}: {last}")
    print("exits", dict(sorted(exits.items())))
    return 1 if exits[1] else 0


if __name__ == "__main__":
    sys.exit(reproduce())

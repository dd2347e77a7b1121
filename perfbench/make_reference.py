"""Regenerate ``references.json``, the reference values the audits use.

    python3 perfbench/make_reference.py

For the sampled workloads it records the per-trial mean and standard
deviation of ``distance_to_target`` over many trials, on seeds that no
workload seed reaches (stream 0, which the workloads use only for
warm-up, at large indices).  For ``optimize_cli`` it records the values
the CLI writes for each config.  Takes a few minutes on two cores.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import csv  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402
from qcoord import cli, protocol  # noqa: E402

import workloads as W  # noqa: E402

REFERENCE_SEED = 2 ** 31 - 1
REUSE_TRIALS, WIDE_TRIALS = 8000, 2000   # trials behind each reference


def distance_stats(ens, ext, wl, trials: int, per_call: int) -> dict:
    d = []
    for k in range(0, trials, per_call):
        traces = protocol.simulate_two_node(
            ens, ext, n=wl.N, rate=wl.RATE, trials=per_call,
            seed=W.library_seed(REFERENCE_SEED, 0, k), delta=wl.DELTA,
            engine="sampled")
        d += [t.distance_to_target for t in traces]
    d = np.asarray(d)
    return {"mean": float(d.mean()), "sd": float(d.std(ddof=1)),
            "trials": int(d.size)}


def cli_values() -> dict:
    out = {}
    work = tempfile.mkdtemp(dir=ROOT)
    try:
        for name in W.OptimizeCli.CONFIGS:
            code = cli.main(["--config", os.path.join(ROOT, "configs", name),
                             "--out", work, "--threads", "1", "--quiet"])
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}")
            csv_name, column = (("optimize.csv", "value")
                                if "optimize" in name else ("sweep.csv",
                                                            "rate"))
            with open(os.path.join(work, csv_name), newline="") as fh:
                out[name] = [float(r[column]) for r in csv.DictReader(fh)]
    finally:
        shutil.rmtree(work)
    return out


def main() -> None:
    refs = {
        "sampled_reuse": distance_stats(*W.validated(W.example1()),
                                        W.SampledReuse, REUSE_TRIALS, 40),
        "sampled_wide": distance_stats(*W.validated(W.example1_three_symbol()),
                                       W.SampledWide, WIDE_TRIALS, 16),
        "optimize_cli": cli_values(),
    }
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(refs, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()

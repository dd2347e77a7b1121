"""qcoord benchmark: four workloads, end-to-end metrics, traced layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sampled_reuse --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare PARENT_LOGS CHILD_LOGS

A run measures one workload (``all`` runs each in turn).  It starts one
process per set-up sample and one process that runs the timed ops, so
imports and warm-up are part of what ``setup_s`` measures.  With
``--trace 0`` the last line of output is a JSON object carrying the
end-to-end metrics.  With ``--trace 1`` it carries the per-layer metrics
of one process that runs a fixed ``2 * trace_ops`` ops (so its counts
repeat exactly), tracing every other one; the time per item of its
traced ops over that of its untraced ops is the tracing overhead.
``--seconds`` bounds only untraced measurement.  The line before it,
``record {...}``, adds the environment, the audit failures and the raw
op times; ``--compare`` reads those lines from saved logs (files or
directories).

Only the standard library is used here; numpy and qcoord load in the
workload processes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from tracer import METRICS as PER_LAYER, spans_path  # stdlib-only

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sampled_reuse", "sampled_wide", "explicit_oracle",
             "optimize_cli")
END_TO_END = {"throughput": "items/s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5          # set-up processes per run, the timed one included
DEADLINE_S = 170.0         # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _spawn(args: list, deadline: float):
    """Start a worker; return (seconds to its READY line, RESULT or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    # the timer kills a worker that outlives the run deadline, which also
    # ends the read loop below
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"worker {args} exited with code {code}")
    return ready, result


def _measure(workload: str, seed: int, seconds: float, deadline: float,
             extra=()) -> tuple:
    ready, result = _spawn(["--workload", workload, "--seed", str(seed),
                            "--mode", "measure", "--seconds", str(seconds)]
                           + list(extra), deadline)
    if result is None:
        raise BenchError(f"{workload}: the workload process gave no result")
    return ready, result


def _throughput(result: dict) -> float:
    """Items (trials or solves) completed per second of timed ops.

    On a shared 2-vCPU host that runs up to 2x slower in phases of
    seconds to minutes, this plain ratio spread less across runs than the
    median, upper quartile or fastest-quarter mean of per-op rates.  A
    phase that outlasts a run still moves it: in one set of ten 25-s
    optimize_cli runs that straddled such a phase, the spread (IQR /
    median) reached 0.34.
    """
    seconds = sum(s for w, s in zip(result["work"], result["op_s"]) if w)
    return sum(result["work"]) / seconds if seconds else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    if not trace:
        setups = [_spawn(["--workload", workload, "--seed", str(seed),
                          "--mode", "setup"], deadline)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        ready, result = _measure(workload, seed, seconds, deadline)
        setups.append(ready)
        metrics = {"throughput": _throughput(result),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": result["peak_rss_mb"]}
        units = END_TO_END
        runs = [result]
        extra = {"setup_samples_s": setups}
    else:
        _, traced = _measure(workload, seed, seconds, deadline,
                             ["--trace", "1"])
        metrics = traced["per_layer"]
        units = PER_LAYER
        runs = [traced]
        extra = {"spans_file": os.path.relpath(
                     spans_path(ROOT, workload, seed), ROOT),
                 "untraced_wrappers": traced["untraced_wrappers"]}
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [m for r in runs for m in r["failures"]],
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
        "env": runs[0]["env"],
        "calibration_s": runs[0]["calibration_s"],
        "op_s": runs[0]["op_s"], "work": runs[0]["work"],
        **extra,
    }


def print_human(rec: dict) -> None:
    print(f"== {rec['workload']}  seed={rec['seed']}  trace={rec['trace']}  "
          f"ops={rec['attempted']}  failed_frac={rec['failed_frac']:.4g}")
    for name, m in rec["metrics"].items():
        print(f"   {name:38s} {m['value']:>16.6g} {m['unit']}")
    env = rec["env"]
    print(f"   env: python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, {env['blas']}, nproc {env['nproc']}, calibration "
          f"{rec['calibration_s'][0]:.4f}/{rec['calibration_s'][1]:.4f} s")
    for msg in rec["failures"]:
        print(f"   FAILED: {msg}")


def final_line(records: list) -> dict:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in records for k, v in r["metrics"].items()}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
# compare mode
# ----------------------------------------------------------------------

def load_records(path: str) -> list:
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    out = []
    for name in files:
        with open(name) as fh:
            out += [json.loads(line[len("record "):]) for line in fh
                    if line.startswith("record ")]
    return out


def _stats(values: list) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare(parent_path: str, child_path: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    sides = [load_records(parent_path), load_records(child_path)]
    workloads = sorted({r["workload"] for s in sides for r in s
                        if not r["trace"]})
    print(f"{'workload':16s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'child median [q1, q3]':>34s} {'ratio':>7s}  verdict")
    for wl in workloads:
        for name, m in spec.items():
            vals = [[r["metrics"][name]["value"] for r in s
                     if r["workload"] == wl and not r["trace"]
                     and name in r["metrics"]] for s in sides]
            if not all(vals):
                continue
            (pm, p1, p3), (cm, c1, c3) = _stats(vals[0]), _stats(vals[1])
            ratio = cm / pm if pm else float("inf")
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            spread = (p3 - p1) / pm if pm else float("inf")
            if spread > m["bound"]:
                verdict = f"unresolved (parent spread {spread:.3f})"
            elif worse > m["bound"]:
                verdict = "WORSE"
            else:
                verdict = "ok"
            print(f"{wl:16s} {name:12s} "
                  f"{pm:12.5g} [{p1:9.5g}, {p3:9.5g}] "
                  f"{cm:12.5g} [{c1:9.5g}, {c3:9.5g}] {ratio:7.3f}  "
                  f"{verdict} (n={len(vals[0])}/{len(vals[1])}, "
                  f"spread {spread:.3f})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHILD"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    start = time.monotonic()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            deadline = (time.monotonic() + DEADLINE_S if args.workload == "all"
                        else start + DEADLINE_S)
            rec = run_workload(name, args.seed, args.seconds,
                               bool(args.trace), deadline)
            print_human(rec)
            records.append(rec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for rec in records:
        print("record " + json.dumps(rec))
    print(json.dumps(final_line(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

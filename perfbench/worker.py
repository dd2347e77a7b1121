"""One workload process: set up, then run timed ops and audit them.

Started by ``run.py``; not meant to be run by hand.  It prints ``READY``
once set-up is done (``run.py`` times set-up from process start to that
line) and, in ``measure`` mode, one ``RESULT <json>`` line at the end.
BLAS threads are pinned to one before numpy loads.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_FAILURE_MESSAGES = 20


def calibration_s() -> float:
    """Median time of a fixed numpy kernel; tracks host speed drift."""
    import numpy as np
    rng = np.random.default_rng(12345)
    g = rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48))
    m = g @ g.conj().T
    times = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(40):
            np.linalg.eigvalsh(m)
            np.kron(m[:8, :8], m[:8, :8])
        times.append(perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def environment(seed: int) -> dict:
    import platform

    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    loc = {}
    src = os.path.join(ROOT, "src", "qcoord")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                loc[name[:-3]] = sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "library_threads": 0,
        "workload_seed": seed,
        "src_loc": loc,
        "src_loc_total": sum(loc.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0,
                        help="1: run 2 * trace_ops ops, every other one "
                        "traced, and write the spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.install(tracer_mod.Tracer())
    import workloads
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    wl.warm_up()
    print("READY", flush=True)
    if args.mode == "setup":
        wl.close()
        return 0

    env = environment(args.seed)
    calib_before = calibration_s()
    result = measure(wl, args.seconds, 2 * wl.trace_ops if tracer else 0,
                     tracer)
    wl.close()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["calibration_s"] = [calib_before, calibration_s()]
    result["env"] = env
    if tracer is not None:
        tracer.restore()
        result["untraced_wrappers"] = tracer.missing
        tracer.write_spans(tracer_mod.spans_path(ROOT, args.workload,
                                                 args.seed))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def measure(wl, seconds: float, n_ops: int = 0, tracer=None) -> dict:
    """Run ops until ``seconds`` pass (or exactly ``n_ops``), then audit.

    An op fails if it raises or any audit of its output fails; a failed
    run-level audit fails every op, since each contributed to it.

    With a tracer, even ops are traced and odd ops run with tracing
    paused.  Traced and untraced ops alternate op by op, so the host's
    speed drift, which changes over seconds, weighs on both alike:
    ``trace.overhead`` is the time per item of the traced ops over that
    of the untraced ops.
    """
    ops = []  # (work, seconds, failures)
    if tracer is not None:
        tracer.start_ops()
    start = perf_counter()
    i = 0
    while True:
        untraced = tracer is not None and i % 2 == 1
        t0 = perf_counter()
        # an op that raises, or whose output an audit cannot even read,
        # counts as failed
        try:
            with tracer.paused() if untraced else nullcontext():
                res = wl.run_op(i)
        except Exception as exc:
            ops.append((0, perf_counter() - t0, [f"op {i} raised {exc!r}"]))
        else:
            t1 = perf_counter()
            try:
                with tracer.paused() if tracer else nullcontext():
                    failures = wl.audit_op(i, res.payload)
            except Exception as exc:
                failures = [f"audit of op {i} raised {exc!r}"]
            ops.append((res.work, t1 - t0, failures))
        i += 1
        if n_ops:
            if i >= n_ops:
                break
        elif perf_counter() - start >= seconds and i >= wl.min_ops:
            break
    run_failures = wl.audit_run()
    messages = [m for _, _, f in ops for m in f] + run_failures
    result = {
        "workload": wl.name,
        "ops": len(ops),
        "failed": len(ops) if run_failures else sum(1 for op in ops if op[2]),
        "failures": messages[:MAX_FAILURE_MESSAGES],
        "work": [op[0] for op in ops],
        "op_s": [op[1] for op in ops],
    }
    if tracer is not None:
        traced, plain = ops[0::2], ops[1::2]
        traced_s = sum(op[1] for op in traced)
        metrics = tracer.metrics()
        # audits run with tracing paused, so every top-level span of the
        # ops lies inside a traced op
        metrics["trace.coverage"] = tracer.covered() / traced_s
        metrics["trace.overhead"] = _per_item_s(traced) / _per_item_s(plain)
        result["per_layer"] = metrics
    return result


def _per_item_s(ops: list) -> float:
    return sum(op[1] for op in ops) / max(1, sum(op[0] for op in ops))


if __name__ == "__main__":
    sys.exit(main())

"""Runs one workload in this process and prints the result line of run.py.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE START

START is run.py's time.perf_counter() just before it started this process.
Rounds repeat until SECONDS have passed.  After every operation the worker
times a fixed reference computation that does not use frobkit (reference()).
With TRACE 0 the metrics are:

  run_s        median over rounds of the round's wall time times
               REF_NOMINAL_S / (the reference's time in that round), that is
               the round time rescaled to a host on which the reference takes
               REF_NOMINAL_S;
  setup_s      first timed call minus START, rescaled by the median of the
               same per-round factor;
  peak_rss_mb  the process's peak resident memory.

With TRACE 1 untraced and traced rounds alternate, the per-layer metrics are
low medians over the traced rounds (wall time, not rescaled), trace.overhead_s
is the difference of the two medians of raw round times, and the spans go to
perfbench/traces/."""
from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

import checks
from workloads import KATSURA_P, WORKLOADS, katsura

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REF_UNITS_PER_ROUND = 12
REF_NOMINAL_S = 0.030  # a typical time of one reference unit on this host


def import_frobkit() -> None:
    """frobkit from this checkout's src/, never an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import frobkit
    if not os.path.abspath(frobkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"frobkit was imported from {frobkit.__file__}, "
                         f"not from {src}")


def _reference_input():
    """(x0 + 2x1 + 3x2 + 4x3 + 5)^6 and Katsura-3 over GF(32003)."""
    p = KATSURA_P
    linear = {(1, 0, 0, 0): 1, (0, 1, 0, 0): 2, (0, 0, 1, 0): 3,
              (0, 0, 0, 1): 4, (0, 0, 0, 0): 5}
    f = {(0, 0, 0, 0): 1}
    for _ in range(6):
        g: dict = {}
        for m1, c1 in f.items():
            for m2, c2 in linear.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                g[m] = (g.get(m, 0) + c1 * c2) % p
        f = g
    return f, katsura(3)


def reference(units: int, data=_reference_input()) -> float:
    """Wall time of `units` divisions of a fixed polynomial by Katsura-3 with
    the benchmark's own reducer: pure-Python dict and integer work of the
    same kind as frobkit's, and the same amount in every run."""
    f, basis = data
    start = time.perf_counter()
    for _ in range(units):
        checks.reduce_poly(f, basis, KATSURA_P)
    return time.perf_counter() - start


def run(workload, seconds: float, tracer) -> dict:
    ops = workload.operations()
    units = -(-REF_UNITS_PER_ROUND // len(ops))  # after every operation
    first_call = time.perf_counter()
    deadline = first_call + seconds
    plain: list[float] = []
    traced: list[float] = []
    factors: list[float] = []
    attempted = failed = wrong = 0
    rnd = 0
    while True:
        tracing = tracer is not None and rnd % 2 == 1
        if tracing:
            tracer.install()
        elapsed = ref = 0.0
        for _, call, check in ops:
            start = time.perf_counter()
            out = call()
            elapsed += time.perf_counter() - start
            a, f, w = check(out, rnd == 0)
            attempted, failed, wrong = attempted + a, failed + f, wrong + w
            del out
            if not tracing:
                ref += reference(units)
        if tracing:
            tracer.uninstall()
            traced.append(elapsed)
        else:
            plain.append(elapsed)
            factors.append(REF_NOMINAL_S * units * len(ops) / ref)
        rnd += 1
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "first_call": first_call, "plain": plain, "traced": traced,
            "factors": factors}


def main(argv: list[str]) -> None:
    name, seed, seconds, trace, start = (argv[0], int(argv[1]),
                                         float(argv[2]), argv[3] == "1",
                                         float(argv[4]))
    import_frobkit()
    from tracing import Tracer
    workload = WORKLOADS[name](seed)
    tracer = Tracer() if trace else None
    out = run(workload, seconds, tracer)
    plain, traced, factors = (out.pop("plain"), out.pop("traced"),
                              out.pop("factors"))
    setup = out.pop("first_call") - start
    print(f"{name} seed {seed}: setup {setup:.3f} s; raw rounds "
          + " ".join(f"{t:.3f}" for t in plain) + "; host factors "
          + " ".join(f"{x:.3f}" for x in factors)
          + ("; traced rounds " + " ".join(f"{t:.3f}" for t in traced)
             if traced else ""), file=sys.stderr)
    if tracer is None:
        factor = statistics.median(factors)
        out["metrics"] = {
            "run_s": {"value": statistics.median(
                t * x for t, x in zip(plain, factors)), "unit": "s"},
            "setup_s": {"value": setup * factor, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, "unit": "MB"}}
    else:
        metrics = {}
        for key, (_, unit) in tracer.rounds[0].items():
            metrics[key] = {"value": statistics.median_low(
                r[key][0] for r in tracer.rounds), "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain),
            "unit": "s"}
        outdir = os.path.join(ROOT, "perfbench", "traces")
        os.makedirs(outdir, exist_ok=True)
        tracer.write(os.path.join(outdir, f"{name}-seed{seed}.json"),
                     {"workload": name, "seed": seed, "untraced_rounds": plain,
                      "traced_rounds": traced, "metrics": metrics})
        out["metrics"] = metrics
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])

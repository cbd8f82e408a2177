"""Runs one workload in a fresh process and prints its result as one JSON line.

``run.py`` starts this script with BLAS pinned to one thread.  Modes:

* ``--setup-only``: import ``netgames`` from the checkout, generate the inputs,
  make the first LAPACK call and print ``ready`` (timed by ``run.py``); then time
  the ``mixed`` reference kernel and print the machine slowdown that scales the
  set-up time;
* timed (default): a closed loop with one caller that runs whole rounds of ops
  until about ``--seconds`` of op time and at least ``MIN_OPS`` ops;
* ``--trace``: a fixed batch of rounds in which every op runs untraced and traced
  back to back, which gives the per-layer metrics and the tracing overhead.

Checks run after each op, outside its timing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_OPS = 100

# The shared machine the baseline was measured on changes speed by up to 1.8x for
# tens of seconds at a time (BASELINE.md), which no statistic inside one run removes.
# So before each timed round (and after the last) the worker times REF_REPS runs of
# a fixed kernel that never calls netgames, and scales each round's op times by the
# median kernel time around it over the kernel's nominal time: the time metrics
# read as at the nominal machine speed.  The kernel matches where the workload's
# time goes: "lapack" is one 400x400 SVD; "mixed" adds a loop of tiny numpy calls,
# as in the interpreter-bound workloads.
REF_REPS = 3
REF_NOMINAL_S = {"lapack": 0.016, "mixed": 0.036}
# Set-up is mostly interpreter work (imports, input generation), so a set-up probe
# always uses the "mixed" kernel, timed SETUP_REF_REPS times right after it is ready.
SETUP_REF_REPS = 5


def setup(workload: str, seed: int):
    sys.path.insert(0, SRC)
    import numpy as np
    import netgames

    if not os.path.abspath(netgames.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"netgames was imported from {netgames.__file__}, not {SRC}")
    import workloads

    workdir = os.path.join(OUT, f"{workload}-{seed}-{os.getpid()}")
    wl = workloads.WORKLOADS[workload](seed, workdir)
    rng = np.random.default_rng([seed, 0])
    np.linalg.solve(np.eye(100) + 0.01 * rng.standard_normal((100, 100)), np.ones(100))
    return wl


def run_round(ops, records):
    """Run one round; append (kind, seconds, outcome) per op to ``records``."""
    ctx = {}
    for op in ops:
        run_op(op, ctx, records)


def run_op(op, ctx, records, tracer=None):
    """Run and judge one op of a round whose results so far are in ``ctx``."""
    res = exc = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            res = op.call(ctx)
        else:
            with tracer.op_span(len(records), op.kind):
                res = op.call(ctx)
    except Exception as e:  # an op's failure is a measured outcome, not a crash
        exc = e
    dt = time.perf_counter() - t0
    if op.key:
        if exc is None:
            ctx[op.key] = res
        else:
            ctx.pop(op.key, None)
    try:
        outcome = op.judge(res, exc, ctx)
    except Exception as e:  # a check that cannot judge the output rejects it
        outcome = f"fail:check raised {type(e).__name__}: {e}"
    records.append((op.kind, dt, outcome))


def summarize(records, final_outcome="ok"):
    import numpy as np

    outcomes = {}
    for _, _, outcome in records:
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    failed = sum(v for k, v in outcomes.items() if k != "ok")
    unexpected = sum(v for k, v in outcomes.items() if k.startswith("fail:"))
    per_kind = {}
    for kind, dt, _ in records:
        per_kind.setdefault(kind, []).append(dt * 1e3)
    return {
        "attempted": len(records),
        "failed": failed,
        "correct": unexpected == 0 and final_outcome == "ok",
        "final_check": final_outcome,
        "outcomes": outcomes,
        "per_kind_ms": {k: {"count": len(v), "median": float(np.median(v)),
                            "mean": float(np.mean(v))} for k, v in sorted(per_kind.items())},
    }


def reference_kernel(kind: str):
    """Returns a function that runs the fixed reference work and returns its seconds."""
    import numpy as np

    rng = np.random.default_rng(0)
    b = rng.standard_normal((400, 400))
    a, ones = rng.standard_normal((3, 3)), np.ones(3)

    def run() -> float:
        t0 = time.perf_counter()
        np.linalg.svd(b, compute_uv=False)
        if kind == "mixed":
            x = np.zeros(3)
            for i in range(3000):
                x = x * 0.5 + a @ ones * (i % 7)
                float(np.linalg.norm(x))
        return time.perf_counter() - t0

    return run


def slowdown(ref_s, kind: str) -> float:
    """Median reference-kernel time over its nominal time: >1 means a slow machine."""
    return float(statistics.median(ref_s)) / REF_NOMINAL_S[kind]


def timed(wl, seconds: float) -> dict:
    import numpy as np

    reference = reference_kernel(wl.reference)
    run_round(wl.rounds[0], [])  # warm-up, not recorded
    reference()
    records = []
    starts = []  # index in records of each round's first op
    round_s = []
    ref_s = []  # per round, the kernel times taken just before it
    r = 0
    while True:
        ref_s.append([reference() for _ in range(REF_REPS)])
        starts.append(len(records))
        run_round(wl.rounds[r % len(wl.rounds)], records)
        r += 1
        round_s.append(sum(dt for _, dt, _ in records[starts[-1]:]))
        elapsed = sum(round_s)
        per_round = elapsed / r
        # whole rounds only, stopping nearest to the requested op time
        if len(records) >= MIN_OPS and elapsed + per_round / 2 >= seconds:
            break
        gc.collect()
    ref_s.append([reference() for _ in range(REF_REPS)])
    # each round is scaled by the kernel times just before and just after it
    speed = [slowdown(ref_s[i] + ref_s[i + 1], wl.reference) for i in range(r)]
    starts.append(len(records))
    lat = np.array([dt for _, dt, _ in records]) * 1e3
    scaled = np.concatenate([lat[starts[i]:starts[i + 1]] / speed[i] for i in range(r)])
    out = summarize(records, wl.final_check())
    out["round_seconds"] = round_s
    out["op_seconds"] = elapsed
    # all ops over all op time: rounds of a pool differ in length, so a median round
    # would stand for one of them only; per-round scaling absorbs the machine drift
    out["raw_metrics"] = {
        "ops_per_s": len(records) / elapsed,
        "op_p50_ms": float(np.percentile(lat, 50)),
        "op_p90_ms": float(np.percentile(lat, 90)),
    }
    out["reference"] = {"kind": wl.reference, "median_s": float(np.median(ref_s)),
                        "round_slowdown": speed}
    out["metrics"] = {
        "ops_per_s": len(records) / float(np.sum(np.array(round_s) / speed)),
        "op_p50_ms": float(np.percentile(scaled, 50)),
        "op_p90_ms": float(np.percentile(scaled, 90)),
        "ok_frac": (out["attempted"] - out["failed"]) / out["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    out["samples_beyond_p90"] = int(np.sum(scaled > out["metrics"]["op_p90_ms"]))
    return out


def traced(wl, spans_path: str) -> dict:
    from tracer import Tracer

    batch = [wl.rounds[r % len(wl.rounds)] for r in range(wl.trace_rounds)]
    run_round(wl.rounds[0], [])  # warm-up, not recorded
    tracer = Tracer()
    plain, records = [], []  # plain[i] is the untraced run of traced op i
    for r, ops in enumerate(batch):
        # each op runs untraced and traced back to back, so machine drift hits both
        # alike; which runs first alternates by round, so warm caches do too
        plain_ctx, traced_ctx = {}, {}
        for op in ops:
            for tracing in ((False, True) if r % 2 == 0 else (True, False)):
                if tracing:
                    with tracer.installed():
                        run_op(op, traced_ctx, records, tracer)
                else:
                    run_op(op, plain_ctx, plain)
    tracer.write(spans_path)
    stats = tracer.aggregate()
    layer = {}
    for name, s in stats.items():
        if name.startswith("linalg."):
            layer.update({f"{name}.calls": s["calls"], f"{name}.s": s["total_s"],
                          f"{name}.gflop": s["gflop"]})
        else:
            layer.update({f"{name}.{k}": s[k] for k in ("calls", "failed", "self_s", "total_s")})
    requested = tracer.starts_requested
    layer["design.design_solve.converged_ratio"] = (
        tracer.starts_converged / requested if requested else 0.0)
    samples = sum(op.samples for ops in batch for op in ops)
    layer["random_networks.svd_per_sample"] = (
        tracer.count_under("linalg.svd", "random_networks.") / samples if samples else 0.0)
    plain_s = sum(dt for _, dt, _ in plain)
    traced_s = sum(dt for _, dt, _ in records)
    layer["trace.overhead_frac"] = traced_s / plain_s - 1.0
    out = summarize(records, wl.final_check())
    out["metrics"] = layer
    out["spans"] = os.path.relpath(spans_path, ROOT)
    out["span_count"] = len(tracer.spans)
    out["untraced_op_seconds"] = plain_s
    out["traced_op_seconds"] = traced_s
    out["self_time_vs_untraced"] = self_time_gaps(tracer, plain)
    out["layer_share"] = tracer.layer_share()
    return out


def self_time_gaps(tracer, plain) -> dict:
    """Per op kind: traced self-time sum over its ops against their untraced wall time.

    ``plain[i]`` is the untraced run of traced op ``i``.  A relative gap within
    ``trace.overhead_frac`` means the spans account for the op's wall time.
    """
    self_s, wall_s = {}, {}
    for op_id, s in tracer.self_time_by_op().items():
        kind, dt, _ = plain[op_id]
        self_s[kind] = self_s.get(kind, 0.0) + s
        wall_s[kind] = wall_s.get(kind, 0.0) + dt
    gaps = {k: self_s[k] / wall_s[k] - 1.0 for k in sorted(wall_s)}
    worst = max(gaps, key=lambda k: abs(gaps[k]))
    return {"largest_gap_frac": gaps[worst], "largest_gap_kind": worst, "gap_frac": gaps}


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "seed": seed,
    }


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    os.makedirs(OUT, exist_ok=True)
    wl = setup(args.workload, args.seed)
    try:
        if args.setup_only:
            print("ready", wl.digest, flush=True)
            reference = reference_kernel("mixed")
            print("slowdown", slowdown([reference() for _ in range(SETUP_REF_REPS)], "mixed"),
                  flush=True)
            return 0
        if args.trace:
            spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
            out = traced(wl, spans)
        else:
            out = timed(wl, args.seconds)
    finally:
        wl.cleanup()
    out["digest"] = wl.digest
    out["env"] = environment(args.seed)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""netgames benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck [--seed N]

Run from the root of a checkout.  The library is imported from ``src/`` of that
checkout; no install is needed.  Each measurement runs in a child process that
this script starts with BLAS pinned to one thread (only for that child).

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``:
``setup_s`` is the median over ``SETUP_PROBES`` fresh processes of the time from
process start to "netgames imported, inputs generated, first LAPACK call done",
each scaled to the nominal machine speed like the other time metrics (the probe
times the worker's reference kernel right after it is ready).
``--trace 1`` reports the per-layer metrics from a traced fixed batch.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; earlier lines give the environment and a summary.  The full record,
with per-op-kind latencies and outcome counts, goes to ``perfbench/out/``.
``--selfcheck`` checks that a seed fixes the inputs and every count metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 9
TIMEOUT_S = 170.0
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ONE_THREAD:
        env[var] = "1"
    return env


def _finish(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def setup_probe(workload: str, seed: int, deadline: float) -> tuple[float, float]:
    """Seconds from spawning a fresh worker to its ``ready`` line, and its slowdown."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        speed = proc.stdout.readline().split()
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        proc.stdout.close()
        _finish(proc)
    if not line.startswith("ready") or speed[:1] != ["slowdown"] or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed, float(speed[1])


def run_worker(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        _finish(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    probes = [] if trace else [setup_probe(workload, seed, deadline)
                               for _ in range(SETUP_PROBES)]
    record = run_worker(workload, seed, seconds, trace, deadline)
    if not trace:
        record["metrics"]["setup_s"] = statistics.median(s / speed for s, speed in probes)
        record["raw_metrics"]["setup_s"] = statistics.median(s for s, _ in probes)
        record["setup_probes"] = [{"s": s, "slowdown": speed} for s, speed in probes]
    return record


def result_line(record: dict, spec: dict, trace: bool) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    # a layer the workload never reaches did no work: its counts and times are 0
    metrics = {m["name"]: {"value": record["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


COUNT_SUFFIXES = (".calls", ".failed", ".converged_ratio", ".svd_per_sample")


def selfcheck(seed: int) -> int:
    """Same seed: same input digest and count metrics; another seed: other inputs."""
    spec = load_spec()
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        first = measure(name, seed, 1.0, True)
        again = measure(name, seed, 1.0, True)
        other = measure(name, seed + 1, 1.0, True)
        counts = [{k: v for k, v in r["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
                  for r in (first, again)]
        diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                      if counts[0].get(k) != counts[1].get(k))
        same_inputs = first["digest"] == again["digest"]
        new_inputs = other["digest"] != first["digest"]
        passed = same_inputs and new_inputs and not diff and first["correct"]
        ok &= passed
        print(f"{name}: digest {first['digest']} repeat={same_inputs} "
              f"seed+1 differs={new_inputs} count metrics={len(counts[0])} "
              f"differing={diff or 'none'} correct={first['correct']} "
              f"-> {'PASS' if passed else 'FAIL'}", flush=True)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "netgames", "__init__.py")):
        print(f"error: no netgames sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(args.seed)
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: --workload must be one of {names}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    trace = bool(args.trace)
    record = measure(args.workload, args.seed, seconds, trace)
    line = result_line(record, spec, trace)
    path = os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("env " + json.dumps(record["env"]))
    print(f"summary digest={record['digest']} outcomes={json.dumps(record['outcomes'])} "
          f"record={os.path.relpath(path, ROOT)}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

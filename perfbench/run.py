#!/usr/bin/env python3
"""mfcorr benchmark: three workloads, measured end to end or per layer.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it imports mfcorr from ./src).  Each
round of a workload runs in a fresh interpreter (worker.py), and rounds
follow one another in a closed loop until --seconds have passed; only whole
rounds run.  With --trace 0 it prints the end-to-end metrics, measured with
no instrumentation.  With --trace 1 it alternates untraced and traced rounds
and prints the per-layer metrics of the traced ones, plus the tracing
overhead.  The last line of standard output is one JSON object.  See
README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("desk-sweep", "long-signal", "records-pca")
HARD_LIMIT_S = 170.0      # the whole run, however slow the machine

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"))


class RunFailed(Exception):
    pass


def run_round(workload: str, seed: int, trace: bool, round_dir: str,
              deadline: float) -> dict:
    os.makedirs(round_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"   # single thread, as the workloads are defined
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
         round_dir, "1" if trace else "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RunFailed(f"{workload} worker exited with {proc.returncode}:\n"
                        f"{first}{out[-2000:]}{err[-4000:]}")
    with open(os.path.join(round_dir, "result.json")) as fh:
        result = json.load(fh)
    result["setup_s"] = setup_s
    shutil.rmtree(round_dir)
    return result


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    op_ms = [v for r in rounds for v in r["op_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "ops_per_s": statistics.median(r["ops_per_s"] for r in rounds),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": p90(op_ms),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, dict]:
    out = {key: {"value": statistics.median(r["layers"][key][0] for r in traced),
                 "unit": unit} for key, (_, unit) in traced[0]["layers"].items()}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join("src", "mfcorr", "__init__.py")):
        print("error: run from the root of an mfcorr checkout (no src/mfcorr here)",
              file=sys.stderr)
        return 2

    start = perf_counter()
    deadline = start + HARD_LIMIT_S
    scratch = os.path.abspath(os.path.join(".perfbench_run", f"{args.workload}-{os.getpid()}"))
    plain, traced = [], []
    try:
        while not plain or perf_counter() - start < args.seconds:
            # trace runs alternate an untraced and a traced round
            for trace in ((False, True) if args.trace else (False,)):
                rounds = traced if trace else plain
                rounds.append(run_round(args.workload, args.seed, trace,
                                        os.path.join(scratch, str(len(plain) + len(traced))),
                                        deadline))
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass

    rounds = plain + traced
    env = rounds[0]["env"]
    errors = [e for r in rounds for e in r["errors"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in end_to_end(plain).items()}

    print(f"workload={args.workload} seed={args.seed} rounds={len(plain)}+{len(traced)} traced"
          f" backend={env['backend']} python={env['python']} numpy={env['numpy']}"
          f" nproc={len(os.sched_getaffinity(0))}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted={attempted} failed={failed}")
    for e in errors:
        print(f"  check error: {e}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

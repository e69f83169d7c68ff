"""One round of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR TRACE

Prints "ready" once its inputs are made (run.py times set-up up to that
line), runs the timed part, then the checks, and writes result.json into
OUT_DIR.  Nothing but mfcorr's own work happens between "ready" and the end
of the timed part; with TRACE=1 the layer spans of tracer.py are on.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys

import numpy as np

import mfcorr.kernels
from tracer import Tracer
from workloads import LONG_METHODS, WORKLOADS, read_rows


def layer_metrics(tracer, timed: dict) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced round, as (value, unit)."""
    stats = tracer.stats

    def per_call(key: str, scale: float) -> float:
        s = stats[key]
        return scale * s.total_s / s.calls if s.calls else 0.0

    kernel = stats["kernels.sliding_sums"]
    levels = stats["pca.project"].calls
    # every load parses the whole records file; its header row is not a record
    data_rows = {p: len(read_rows(p)) - 1 for p in set(tracer.records_paths)}
    out = {
        "generators.add_noise.us_per_call": (per_call("generators.add_noise", 1e6), "us"),
        "kernels.sliding_sums.ms_per_call": (per_call("kernels.sliding_sums", 1e3), "ms"),
        "kernels.sliding_sums.window_elems_per_s":
            (tracer.kernel_elems / kernel.total_s if kernel.calls else 0.0, "1/s"),
        "kernels.sliding_sums.calls_per_record": (kernel.calls / timed["main_ops"], "count"),
        "kernels.sliding_sums.minflt_per_call":
            (tracer.kernel_minflt / kernel.calls if kernel.calls else 0.0, "count"),
        "kernels.sliding_sums.peak_alloc_mb": (tracer.kernel_peak_bytes / 2**20, "MB"),
        "correlate.normalized.us_per_call": (per_call("correlate.normalized", 1e6), "us"),
        "peaks.detect_peaks.us_per_call": (per_call("peaks.detect_peaks", 1e6), "us"),
        "metrics.compute_indices.us_per_call": (per_call("metrics.compute_indices", 1e6), "us"),
        "sweep.run_sweep.self_s": (stats["sweep.run_sweep"].self_s, "s"),
        "sweep.aggregate_records.ms": (1e3 * stats["sweep.aggregate_records"].total_s, "ms"),
        "sweep.write_csv.ms": (1e3 * stats["sweep.write_csv"].total_s, "ms"),
        "sweep.csv_bytes": (float(sum(os.path.getsize(p) for p in tracer.csv_paths)), "B"),
        "pca.load_feature_matrix.ms_per_call": (per_call("pca.load_feature_matrix", 1e3), "ms"),
        "pca.rows_parsed_per_row_kept":
            (sum(data_rows[p] for p in tracer.records_paths) / tracer.rows_kept
             if tracer.rows_kept else 0.0, "ratio"),
        "pca.pca_fit.ms_per_call": (per_call("pca.pca_fit", 1e3), "ms"),
        "pca.jacobi_eigh.us_per_call": (per_call("pca.jacobi_eigh", 1e6), "us"),
        "pca.project.us_per_call": (per_call("pca.project", 1e6), "us"),
        "pca.group_dispersion.us_per_call": (per_call("pca.group_dispersion", 1e6), "us"),
        "pca.write_csv.ms_per_level":
            (1e3 * stats["pca.write_csv"].total_s / levels if levels else 0.0, "ms"),
        "cli.main.self_ms": (1e3 * stats["cli.main"].self_s, "ms"),
    }
    for name in LONG_METHODS:
        s = tracer.profile_self.get(name)
        out[f"correlate.profile_self_ms.{name}"] = (1e3 * s.self_s / s.calls if s else 0.0,
                                                    "ms")
    for key, s in stats.items():
        out[f"{key}.calls"] = (float(s.calls), "count")
    return out


def main(argv: list[str]) -> int:
    workload, seed, out_dir, trace = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    setup, run, check = WORKLOADS[workload]
    state = setup(seed, out_dir)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)

    timed = run(state)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        tracer.probe_kernel_memory()
        layers = layer_metrics(tracer, timed)
    outcome = check(state, timed)
    result = {
        "wall_s": timed["wall_s"], "ops_per_s": timed["ops_per_s"], "op_ms": timed["op_ms"],
        "rss_mb": rss_mb, "attempted": outcome.attempted, "failed": outcome.failed,
        "errors": outcome.errors, "layers": layers,
        "env": {"backend": mfcorr.kernels.ACTIVE_BACKEND,
                "python": platform.python_version(), "numpy": np.__version__},
    }
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Spans around the calls into mfcorr's layers, installed from outside the package.

Each wrapped function records its call count, total time and self time (its
duration minus the spans of wrapped functions it called).  The wrappers
replace the function wherever an mfcorr module binds it under its own name,
so calls made through `from .x import f` bindings are seen too.  Spans are
kept as running sums in memory; nothing is written while the workload runs.
"""

from __future__ import annotations

import resource
import sys
import tracemalloc
from time import perf_counter

# (module, function, key): the functions whose calls are timed, and the key
# that names them in the stats (two functions may share one key).
TARGETS = (
    ("mfcorr.generators", "add_noise", "generators.add_noise"),
    ("mfcorr.kernels", "sliding_sums", "kernels.sliding_sums"),
    ("mfcorr.sweep", "method_profile", "correlate.method_profile"),
    ("mfcorr.peaks", "detect_peaks", "peaks.detect_peaks"),
    ("mfcorr.metrics", "compute_indices", "metrics.compute_indices"),
    ("mfcorr.sweep", "run_sweep", "sweep.run_sweep"),
    ("mfcorr.sweep", "aggregate_records", "sweep.aggregate_records"),
    ("mfcorr.sweep", "write_records_csv", "sweep.write_csv"),
    ("mfcorr.sweep", "write_aggregates_csv", "sweep.write_csv"),
    ("mfcorr.pca", "load_feature_matrix", "pca.load_feature_matrix"),
    ("mfcorr.pca", "pca_fit", "pca.pca_fit"),
    ("mfcorr.pca", "jacobi_eigh", "pca.jacobi_eigh"),
    ("mfcorr.pca", "project", "pca.project"),
    ("mfcorr.pca", "group_dispersion", "pca.group_dispersion"),
    ("mfcorr.pca", "write_projection_csv", "pca.write_csv"),
    ("mfcorr.pca", "write_meta_csv", "pca.write_csv"),
    ("mfcorr.cli", "main", "cli.main"),
)


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.profile_self: dict[str, Stat] = {}   # method name -> method_profile spans
        self._open: list[list[float]] = []        # child time of each open span
        self.kernel_elems = 0                     # lags x template samples
        self.kernel_minflt = 0
        self.kernel_shapes: dict[tuple[int, int, int, int], tuple] = {}
        self.kernel_peak_bytes = 0
        self.csv_paths: list[str] = []
        self.records_paths: list[str] = []
        self.rows_kept = 0

    def _span(self, key: str, fn, before=None, after=None):
        stat = self.stats.setdefault(key, Stat())
        open_spans = self._open

        def wrapper(*args, **kwargs):
            extra = before(args, kwargs) if before else None
            children = [0.0]
            open_spans.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                open_spans.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - children[0]
                if open_spans:
                    open_spans[-1][0] += dt
            if after:
                after(args, kwargs, result, extra, dt - children[0])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-function extras ------------------------------------------------

    def _kernel_before(self, args, kwargs):
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def _kernel_after(self, args, kwargs, result, minflt0, self_s):
        self.kernel_minflt += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt0
        f, g, k0, n_lags = args
        self.kernel_elems += n_lags * g.size
        self.kernel_shapes.setdefault((f.size, g.size, k0, n_lags), args)

    def _profile_after(self, args, kwargs, result, extra, self_s):
        stat = self.profile_self.setdefault(args[0], Stat())
        stat.calls += 1
        stat.self_s += self_s

    def _csv_after(self, args, kwargs, result, extra, self_s):
        self.csv_paths.append(str(args[1]))

    def _load_after(self, args, kwargs, result, extra, self_s):
        self.records_paths.append(str(args[0]))
        self.rows_kept += result.values.shape[0]

    def install(self) -> None:
        """Replace every target in the mfcorr modules (and the class method)."""
        import mfcorr.cli  # noqa: F401  (loads every module that binds a target)
        from mfcorr.correlate import CorrelationResult

        extras = {
            "kernels.sliding_sums": (self._kernel_before, self._kernel_after),
            "correlate.method_profile": (None, self._profile_after),
            "sweep.write_csv": (None, self._csv_after),
            "pca.load_feature_matrix": (None, self._load_after),
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "mfcorr" or name.startswith("mfcorr.")]
        for module_name, attr, key in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._span(key, original, *extras.get(key, (None, None)))
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
        CorrelationResult.normalized = self._span(
            "correlate.normalized", CorrelationResult.normalized)

    def probe_kernel_memory(self) -> None:
        """Peak traced allocation of one kernel call per distinct shape seen.

        Run after the timed part: the kernel allocates the same for the same
        shape, so one call per shape gives the per-call peak without tracing
        memory while the workload is timed.
        """
        import mfcorr.kernels as kernels

        kernel = kernels.sliding_sums.__wrapped__
        tracemalloc.start()
        try:
            for args in self.kernel_shapes.values():
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                kernel(*args)
                self.kernel_peak_bytes = max(self.kernel_peak_bytes,
                                             tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()

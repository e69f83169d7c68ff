"""The names perfbench looks up in mfcorr by string still exist, with the shapes it assumes.

perfbench/tracer.py wraps each (module, function) of its TARGETS and unpacks
the kernel's positional arguments; perfbench/worker.py prints the kernel
backend; perfbench/workloads.py matches long-signal records through
`sweep.method_profile`, `.normalized()` and `peaks.detect_peaks`, untraced.
A renamed or deleted hook would otherwise show only in a benchmark run, as
failed operations or a traced run's zeros.  The runs kept in
BENCH_trajectory.json must name what BENCHMARK.json declares.
"""

import datetime
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np

import mfcorr.kernels
from mfcorr import PeakMeasurement, Signal, TemplateSpec, gen_template

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    for module_name, attr, key in _load("tracer", monkeypatch).TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), key


def test_kernel_takes_the_four_positional_arguments_the_tracer_unpacks():
    params = inspect.signature(mfcorr.kernels.sliding_sums).parameters.values()
    positional = [p.name for p in params
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    assert positional == ["f", "g", "k0", "n_lags"]


def test_active_backend_is_reported():
    assert isinstance(mfcorr.kernels.ACTIVE_BACKEND, str)


def test_long_signal_match_returns_a_profile_and_peaks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))   # workloads.py imports reference.py
    workloads = _load("workloads", monkeypatch)
    x = workloads.DX * np.arange(600)
    rec = workloads.LongRecord(Signal(np.exp(-((x - 3.0) ** 2) / 0.18), dx=workloads.DX),
                               3.0, 0.0)
    template = gen_template(TemplateSpec(), workloads.DX)
    for name in workloads.LONG_METHODS:
        result = workloads._match(rec, name, template)
        assert not isinstance(result, str), (name, result)   # a str is the repr of a raise
        raw, pm = result
        assert raw.lags.shape == raw.values.shape == x.shape, name
        assert pm is None or isinstance(pm, PeakMeasurement), name


def test_trajectory_entries_hold_the_declared_workloads_and_metrics():
    # scripts/bench_entry.py appends one entry per (commit, workload): where, when and
    # how long it ran, and each run's end-to-end metrics as perfbench printed them
    root = PERFBENCH.parent
    declared = json.loads((root / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    assert len(metrics) == 6
    entries = json.loads((root / "BENCH_trajectory.json").read_text())
    assert isinstance(entries, list) and entries
    for i, entry in enumerate(entries):
        assert isinstance(entry["commit"], str) and entry["commit"], i
        datetime.date.fromisoformat(entry["date"])
        assert {"cpus", "python", "numpy"} <= entry["host"].keys(), i
        assert isinstance(entry["seed"], int) and entry["seconds"] > 0, i
        assert entry["workload"] in workloads, i
        assert entry["runs"], i
        for run in entry["runs"]:
            assert metrics <= run["metrics"].keys(), i
            assert all(isinstance(run["metrics"][m]["value"], (int, float)) for m in metrics), i

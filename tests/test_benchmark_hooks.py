"""The names perfbench looks up in mfcorr by string still exist, with the shapes it assumes.

perfbench/tracer.py wraps each (module, function) of its TARGETS and unpacks
the kernel's positional arguments; perfbench/worker.py prints the kernel
backend.  A renamed or deleted hook would otherwise show only in a traced
benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import mfcorr.kernels

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for module_name, attr, key in _tracer().TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), key


def test_kernel_takes_the_four_positional_arguments_the_tracer_unpacks():
    params = inspect.signature(mfcorr.kernels.sliding_sums).parameters.values()
    positional = [p.name for p in params
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    assert positional == ["f", "g", "k0", "n_lags"]


def test_active_backend_is_reported():
    assert isinstance(mfcorr.kernels.ACTIVE_BACKEND, str)

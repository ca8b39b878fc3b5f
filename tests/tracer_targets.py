"""``TARGETS`` of the benchmark's tracer, ``perfbench/tracer.py``, for the
tests that check the package against the functions it wraps."""

import importlib.util
import pathlib


def tracer_targets():
    """The tracer's ``(module, function or Class.attribute, layer)`` list;
    its module is only loaded: nothing in it is called."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS

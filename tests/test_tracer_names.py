"""Every name the benchmark tracer wraps must exist in tame_llc.

The tracer in perfbench/ patches functions by (module, attribute path); a
renamed function would silently drop out of the per-layer metrics.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    entries = (tracer.SPANS + tracer.PROPERTIES + tracer.COUNTS
               + [tracer.METHOD_SPLIT[:3], tracer.GENERATOR])
    assert len(entries) > 30
    for module, path, metric in entries:
        owner = importlib.import_module("tame_llc." + module)
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        # a class attribute must be defined on the class itself, not inherited
        assert attr in vars(owner), (module, path, metric)
        obj = vars(owner)[attr]
        assert callable(obj) or isinstance(obj, property), (module, path)

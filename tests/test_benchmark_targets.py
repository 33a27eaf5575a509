"""The benchmark's tracer must find every function it names in the package.

perfbench/tracer.py wraps functions by module and attribute name; a name
that no longer resolves makes a traced benchmark run report itself
incorrect. This loads the tracer from its file, without changing it, and
plans the wrapping without installing it.
"""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    t._plan()
    assert t.missing == []

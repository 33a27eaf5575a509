"""The benchmark must keep working against the package it measures.

perfbench/tracer.py wraps functions by module and attribute name; a name
that no longer resolves makes a traced benchmark run report itself
incorrect. perfbench/workloads.py checks the sweep CSV against its own
column list. These tests load the benchmark's files without changing them,
and plan the wrapping without installing it.
"""
import importlib.util
import sys
from pathlib import Path

from nohidelab.nohiding import SWEEP_FIELDS, ExperimentRecord

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    t = _load("tracer").Tracer()
    t._plan()
    assert t.missing == []


def test_sweep_columns_are_the_record_fields():
    assert SWEEP_FIELDS == ExperimentRecord._fields == tuple(_load("workloads").SWEEP_FIELDS)

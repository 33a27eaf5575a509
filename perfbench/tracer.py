"""Span tracing from outside the program: wrap public functions, then restore.

`from .x import y` copies a binding, so each traced function is replaced at
every module-level binding of that function object in every nohidelab
module; methods are replaced on their class. The wrappers are installed only
around a traced invocation, so untimed checks that call the same functions
leave no spans. Each span keeps its name, start and end (monotonic ns),
parent span and invocation id, in flat arrays written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("qmath", "circuits", "tomo", "nohiding", "zx", "jsonio", "cli")

ROOT_SPAN = "cli.main"

# (span name, module, attribute path, per-call count or None). The count is
# recorded on the span: computed dense-embedding bytes for gate_matrix (one
# complex128 2^n x 2^n matrix), bytes written by write_text_atomic, and
# rewrite steps serialized by steps_to_json_list.
TARGETS = (
    ("qmath.hermitian_eig", "qmath", "hermitian_eig", None),
    ("qmath.DensityMatrix", "qmath", "DensityMatrix.__post_init__", None),
    ("qmath.fidelity", "qmath", "fidelity", None),
    ("qmath.trace_distance", "qmath", "trace_distance", None),
    ("qmath.partial_trace", "qmath", "partial_trace", None),
    ("circuits.gate_matrix", "circuits", "gate_matrix", lambda g, n: 16 * 4 ** n),
    ("circuits.run_statevector", "circuits", "run_statevector", None),
    ("circuits.circuit_unitary", "circuits", "circuit_unitary", None),
    ("circuits.parse_circuit", "circuits", "parse_circuit", None),
    ("tomo.measure_shots", "tomo", "measure_shots", None),
    ("tomo.estimate_expectations", "tomo", "estimate_expectations", None),
    ("tomo.reconstruct", "tomo", "reconstruct", None),
    ("tomo.project_physical", "tomo", "project_physical", None),
    ("tomo.tomo_pipeline", "tomo", "tomo_pipeline", None),
    ("tomo.report_dict", "tomo", "report_dict", None),
    ("nohiding.build_randomizer", "nohiding", "build_randomizer", None),
    ("nohiding.run_sweep", "nohiding", "run_sweep", None),
    ("nohiding.run_perfect", "nohiding", "run_perfect", None),
    ("nohiding.sweep_rows", "nohiding", "sweep_rows", None),
    ("zx.evaluate", "zx", "evaluate", None),
    ("zx.match_rule", "zx", "match_rule", None),
    ("zx.apply_rule", "zx", "apply_rule", None),
    ("zx.neighbors", "zx", "ZXDiagram.neighbors", None),
    ("zx.run_scripted_derivation", "zx", "run_scripted_derivation", None),
    ("zx.simplify", "zx", "simplify", None),
    ("zx.steps_to_json_list", "zx", "steps_to_json_list", lambda steps: len(steps)),
    ("jsonio.json_text", "jsonio", "json_text", None),
    ("jsonio.csv_text", "jsonio", "csv_text", None),
    ("jsonio.write_text_atomic", "jsonio", "write_text_atomic",
     lambda path, text: len(text.encode("utf-8"))),
)
# Called thousands of times per invocation: only their calls are counted, so
# their time stays in the caller's span and the trace stays small.
COUNT_ONLY = {"zx.neighbors"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT_SPAN]
        self.invocation = -1
        self._stack: list[int] = []
        self._inv = array("q")
        self._name = array("q")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._count = array("q")
        self._tally: Counter[tuple[int, int]] = Counter()
        self._patches: list[tuple[object, str, object, object]] | None = None
        self.missing: list[str] = []
        self.not_restored: set[str] = set()

    # -- recording -----------------------------------------------------------

    def _open(self, name: int, count: int) -> int:
        i = len(self._start)
        self._inv.append(self.invocation)
        self._name.append(name)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._count.append(count)
        self._end.append(0)
        self._stack.append(i)
        self._start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = time.perf_counter_ns()
        self._stack.pop()

    def begin(self, invocation: int) -> None:
        """Open an invocation and its root span."""
        self.invocation = invocation
        self._open(0, 0)

    def finish(self) -> None:
        self._close(self._stack[0])

    def _wrap(self, name: int, fn, count):
        tracer = self

        if self.names[name] in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer._tally[tracer.invocation, name] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(name, count(*args, **kwargs) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        return wrapper

    # -- installing ----------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        modules = {m: importlib.import_module(f"nohidelab.{m}") for m in MODULES}
        plan = []
        for label, mod, attr, count in TARGETS:
            owner = modules[mod]
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                self.missing.append(label)
                continue
            self.names.append(label)
            wrapper = self._wrap(len(self.names) - 1, original, count)
            if cls_path:
                plan.append((owner, leaf, original, wrapper))
                continue
            for module in modules.values():
                plan.extend((module, key, original, wrapper)
                            for key, value in vars(module).items() if value is original)
        return plan

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._plan()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def restore(self) -> None:
        """Put every original back and record any binding that did not come back."""
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)
        self.not_restored.update(
            f"{getattr(owner, '__name__', owner)}.{key}"
            for owner, key, original, _ in self._patches
            if vars(owner).get(key) is not original
        )

    # -- results -------------------------------------------------------------

    def __len__(self) -> int:
        """Number of spans recorded."""
        return len(self._start)

    def per_invocation(self) -> dict[int, dict[str, list[int]]]:
        """{invocation: {span name: [calls, self_ns, total_ns, count]}}.

        Names in COUNT_ONLY have calls and nothing else. Self time is a span's duration minus the durations of its children;
        spans nest strictly in one thread, so children never overlap.
        """
        n = len(self._start)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[int, dict[str, list[int]]] = defaultdict(dict)
        for i in range(n):
            row = out[self._inv[i]].setdefault(self.names[self._name[i]], [0, 0, 0, 0])
            row[0] += 1
            row[1] += dur[i] - child[i]
            row[2] += dur[i]
            row[3] += self._count[i]
        for (inv, name), calls in self._tally.items():
            out[inv].setdefault(self.names[name], [0, 0, 0, 0])[0] += calls
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: [invocation, id, parent, name,
        start_ns, end_ns, count], after a header line naming the fields."""
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["invocation", "id", "parent", "name",
                                                "start_ns", "end_ns", "count"]}) + "\n")
            for i in range(len(self._start)):
                handle.write(json.dumps([self._inv[i], i, self._parent[i],
                                         self.names[self._name[i]], self._start[i],
                                         self._end[i], self._count[i]]) + "\n")

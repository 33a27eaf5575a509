"""ZX-calculus engine: open diagrams, rewrite rules, and a contraction oracle.

A diagram is an undirected open multigraph. Spider nodes ("Z", "X") carry a
phase; "H" boxes have degree exactly 2; "in"/"out" boundary nodes have
degree exactly 1 and appear once in the ordered inputs/outputs lists. Only
connectivity is semantic: no layout is stored, and evaluation canonicalizes
node identity before contracting, so relabelings cannot change the result.

Tensor conventions (fixed; all rule checks are up to a global scalar):
  Z spider, phase a:  |0...0><0...0| + e^{ia} |1...1><1...1|
  X spider, phase a:  the same operator conjugated by H on every leg
  H box:              the 2x2 Hadamard matrix
A connected Z-X pair therefore contracts to CNOT/sqrt(2).

Rules: S1 spider fusion (also applied in reverse to split a spider), S2
identity-spider removal, C color change (flip a spider and toggle an H box
onto every leg), B2 bialgebra (complete bipartite Z/X square collapses to
one Z-X pair), HH cancellation of adjacent H boxes. Self-loops are never
stored; a rewrite that would create one drops it on the spot, which is
exact for spiders under the normalization above.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .circuits import Circuit, Gate
from .qmath import HADAMARD, kron, proportionality

SPIDER_KINDS = ("Z", "X")
BOUNDARY_KINDS = ("in", "out")
RULES = ("S1", "S2", "C", "B2", "HH")

# Brute-force contraction budget in axes of dimension 2, for the open legs,
# each node's legs and the live axes of each fold step alike: no array
# evaluate builds exceeds 2^24 complex entries (256 MiB), and an einsum call
# sees at most 48 labels, under numpy's 52. The derivation's widest step has 12.
MAX_EVAL_AXES = 24

_GATE_PHASES = {"z": math.pi, "s": math.pi / 2, "t": math.pi / 4}


class RuleApplicationError(ValueError):
    """The requested rewrite does not match at the given location."""


class DerivationError(RuntimeError):
    """A scripted derivation stage failed; carries the 1-based stage index."""

    def __init__(self, stage: int, label: str, message: str):
        super().__init__(f"stage {stage} ({label}): {message}")
        self.stage = stage
        self.label = label


@dataclass(frozen=True)
class ZXNode:
    kind: str
    phase: complex = 0j


@dataclass(frozen=True)
class ZXDiagram:
    nodes: dict[int, ZXNode]
    edges: tuple[tuple[int, int], ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    _adj: dict[int, list[int]] = field(init=False, repr=False, compare=False)
    # evaluate's read-only result, computed at most once: the diagram is frozen.
    _matrix: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", dict(self.nodes))
        norm_edges = []
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on node {a} is forbidden")
            norm_edges.append((a, b) if a <= b else (b, a))
        object.__setattr__(self, "edges", tuple(sorted(norm_edges)))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))

        # Neighbour lists in sorted-edge order, built once: the diagram is frozen.
        adj: dict[int, list[int]] = {nid: [] for nid in self.nodes}
        for a, b in self.edges:
            for nid in (a, b):
                if nid not in self.nodes:
                    raise ValueError(f"edge references missing node {nid}")
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(self, "_adj", adj)
        boundary_ids = set(self.inputs) | set(self.outputs)
        if len(self.inputs) + len(self.outputs) != len(boundary_ids):
            raise ValueError("a boundary node may appear only once")
        for nid, node in self.nodes.items():
            if node.kind in BOUNDARY_KINDS:
                if nid not in boundary_ids:
                    raise ValueError(f"boundary node {nid} missing from inputs/outputs")
                if len(adj[nid]) != 1:
                    raise ValueError(f"boundary node {nid} must have degree 1")
            elif node.kind == "H":
                if len(adj[nid]) != 2:
                    raise ValueError(f"H box {nid} must have degree 2, has {len(adj[nid])}")
            elif node.kind not in SPIDER_KINDS:
                raise ValueError(f"unknown node kind {node.kind!r}")
        for nid in self.inputs:
            if self.nodes[nid].kind != "in":
                raise ValueError(f"input {nid} is not an 'in' node")
        for nid in self.outputs:
            if self.nodes[nid].kind != "out":
                raise ValueError(f"output {nid} is not an 'out' node")

    # A node id absent from the diagram has no neighbours, so rule matchers
    # can probe replayed locations without a KeyError.
    def degree(self, nid: int) -> int:
        return len(self._adj.get(nid, ()))

    def neighbors(self, nid: int) -> list[int]:
        return list(self._adj.get(nid, ()))

    def edge_count(self, a: int, b: int) -> int:
        return self._adj.get(a, ()).count(b)

    def spiders(self) -> list[int]:
        return sorted(n for n, nd in self.nodes.items() if nd.kind in SPIDER_KINDS)

    def h_boxes(self) -> list[int]:
        return sorted(n for n, nd in self.nodes.items() if nd.kind == "H")


def _phase_is_zero(phase: complex) -> bool:
    return abs(cmath.exp(1j * phase) - 1.0) < 1e-9


def _norm_phase(phase: complex) -> complex:
    re = math.fmod(phase.real, 2.0 * math.pi)
    if re < 0.0:
        re += 2.0 * math.pi
    return complex(re, phase.imag)


class _Builder:
    """Mutable scratch copy of a diagram; build() re-validates."""

    def __init__(self, d: ZXDiagram | None = None):
        if d is None:
            self.nodes: dict[int, ZXNode] = {}
            self.edges: list[tuple[int, int]] = []
            self.inputs: list[int] = []
            self.outputs: list[int] = []
        else:
            self.nodes = dict(d.nodes)
            self.edges = list(d.edges)
            self.inputs = list(d.inputs)
            self.outputs = list(d.outputs)
        self._next = max(self.nodes) + 1 if self.nodes else 0

    def add_node(self, kind: str, phase: complex = 0j) -> int:
        nid = self._next
        self._next += 1
        self.nodes[nid] = ZXNode(kind, phase)
        return nid

    def add_edge(self, a: int, b: int) -> None:
        if a == b:
            # loop elimination: a plain self-loop on a spider is the identity
            if self.nodes[a].kind not in SPIDER_KINDS:
                raise RuleApplicationError(
                    f"rewrite would close a zero-scalar loop on node {a}"
                )
            return
        self.edges.append((a, b) if a <= b else (b, a))

    def remove_edge(self, a: int, b: int) -> None:
        key = (a, b) if a <= b else (b, a)
        self.edges.remove(key)

    def remove_node_edges(self, nid: int) -> list[int]:
        others = [b if a == nid else a for a, b in self.edges if nid in (a, b)]
        self.edges = [e for e in self.edges if nid not in e]
        return others

    def remove_node(self, nid: int) -> None:
        self.remove_node_edges(nid)
        del self.nodes[nid]

    def build(self) -> ZXDiagram:
        return ZXDiagram(self.nodes, tuple(self.edges), tuple(self.inputs), tuple(self.outputs))


# ---------------------------------------------------------------------------
# circuit translation

TRANSLATABLE_GATES = ("h", "x", "y", "z", "s", "t", "cx")


def circuit_to_zx(c: Circuit) -> ZXDiagram:
    """Translate a circuit over {H, X, Y, Z, S, T, CNOT} to a diagram."""
    b = _Builder()
    cur = []
    for _ in range(c.num_qubits):
        nid = b.add_node("in")
        b.inputs.append(nid)
        cur.append(nid)

    def chain(q: int, kind: str, phase: complex = 0j) -> int:
        nid = b.add_node(kind, phase)
        b.add_edge(cur[q], nid)
        cur[q] = nid
        return nid

    for g in c.gates:
        if g.kind not in TRANSLATABLE_GATES:
            raise ValueError(f"gate kind {g.kind!r} has no diagram translation")
        if g.kind == "h":
            chain(g.targets[0], "H")
        elif g.kind == "x":
            chain(g.targets[0], "X", math.pi)
        elif g.kind == "y":
            # Y is XZ up to a global scalar, which the calculus ignores
            chain(g.targets[0], "Z", math.pi)
            chain(g.targets[0], "X", math.pi)
        elif g.kind in _GATE_PHASES:
            chain(g.targets[0], "Z", _GATE_PHASES[g.kind])
        else:  # cx
            ctrl, tgt = g.targets
            zc = chain(ctrl, "Z")
            xt = chain(tgt, "X")
            b.add_edge(zc, xt)

    for q in range(c.num_qubits):
        nid = b.add_node("out")
        b.outputs.append(nid)
        b.add_edge(cur[q], nid)
    return b.build()


def plug_state(d: ZXDiagram, input_position: int, kind: str = "X",
               phase: complex = 0j) -> ZXDiagram:
    """Replace an input boundary with a one-legged spider state.

    An X spider with phase 0 is |0> up to scalar, so plugging the default
    turns an open wire into a |0>-prepared one.
    """
    b = _Builder(d)
    nid = d.inputs[input_position]
    b.nodes[nid] = ZXNode(kind, phase)
    b.inputs.remove(nid)
    return b.build()


# ---------------------------------------------------------------------------
# evaluation

def _rank(keys: dict) -> dict[int, int]:
    index = {key: r for r, key in enumerate(sorted(set(keys.values())))}
    return {nid: index[key] for nid, key in keys.items()}


def _canonical_order(d: ZXDiagram) -> list[int]:
    # Refined labels make the order a function of the graph alone (not of
    # node ids), so relabeled diagrams contract identically bit for bit.
    # Colour refinement on integer ranks: each round ranks (own label,
    # sorted neighbour labels) until the number of classes stops growing.
    seeds = {}
    for nid, node in d.nodes.items():
        if nid in d.inputs:
            seeds[nid] = f"in{d.inputs.index(nid)}"
        elif nid in d.outputs:
            seeds[nid] = f"out{d.outputs.index(nid)}"
        else:
            phase = node.phase
            seeds[nid] = f"{node.kind}:{phase.real:.9e}:{phase.imag:.9e}"
    labels = _rank(seeds)
    for _ in range(len(d.nodes)):
        refined = _rank({nid: (label, tuple(sorted(labels[m] for m in d._adj[nid])))
                         for nid, label in labels.items()})
        stable = len(set(refined.values())) == len(set(labels.values()))
        labels = refined
        if stable:
            break

    # Breadth-first from the ordered boundaries keeps contraction local, so
    # the number of simultaneously open tensor axes stays near the diagram
    # width instead of its edge count.
    order: list[int] = []
    seen: set[int] = set()
    queue: list[int] = []
    for nid in list(d.inputs) + list(d.outputs):
        seen.add(nid)
        order.append(nid)
        queue.append(nid)
    while True:
        while queue:
            nid = queue.pop(0)
            for m in sorted(d.neighbors(nid), key=lambda x: (labels[x], x)):
                if m not in seen:
                    seen.add(m)
                    order.append(m)
                    queue.append(m)
        rest = [n for n in d.nodes if n not in seen]
        if not rest:
            return order
        start = min(rest, key=lambda x: (labels[x], x))
        seen.add(start)
        order.append(start)
        queue.append(start)


def _node_tensor(kind: str, phase: complex, legs: int) -> np.ndarray:
    if kind == "H":
        return HADAMARD.copy()
    # |b...b> + e^{ia}|c...c>, with (b, c) = (|0>, |1>) for Z and the
    # Hadamard columns (|+>, |->) for X
    b, c = (reduce(np.multiply.outer, [v] * legs, np.array(1.0 + 0j))
            for v in (HADAMARD if kind == "X" else np.eye(2)))
    return b + cmath.exp(1j * phase) * c


def _check_budget(n: int, what: str) -> None:
    if n > MAX_EVAL_AXES:
        raise ValueError(f"diagram too large for brute force ({n} {what}; limit {MAX_EVAL_AXES})")


def evaluate(d: ZXDiagram) -> np.ndarray:
    """Contract the diagram to a 2^|outputs| x 2^|inputs| matrix."""
    n_in, n_open = len(d.inputs), len(d.inputs) + len(d.outputs)
    _check_budget(n_open, "open legs")
    if d._matrix is not None:
        return d._matrix
    order = _canonical_order(d)
    rank = {nid: r for r, nid in enumerate(order)}
    # Global labels: edge k of the rank-sorted edge list is label k; the
    # boundary of rank r (inputs, then outputs) is label len(edges) + r.
    ends = sorted(sorted((rank[a], rank[b])) for a, b in d.edges)
    legs: list[list[int]] = [[] for _ in order]
    for label, (r, s) in enumerate(ends):
        legs[r].append(label)
        legs[s].append(label)

    # Plan the fold on labels alone, so the budget refuses before any array
    # is built: spiders and H boxes in canonical order, then each boundary as
    # an identity that renames its edge label to its boundary label. Each
    # einsum call numbers only the labels it sees, in their global order; it
    # sums in label order, so its result is bit for bit as with global labels.
    plan, live = [], []
    for r in [*range(n_open, len(order)), *range(n_open)]:
        t_labels = legs[r] if r >= n_open else [legs[r][0], len(ends) + r]
        _check_budget(len(t_labels), "legs on one node")
        both = live + t_labels
        kept = [label for label in both if both.count(label) == 1]
        _check_budget(len(kept), "live axes in one fold step")
        ids = {label: i for i, label in enumerate(sorted(set(both)))}
        plan.append((r, [ids[e] for e in live], [ids[e] for e in t_labels],
                     [ids[e] for e in kept]))
        live = kept

    current = np.array(1.0 + 0j)
    # Each distinct spider is built once. The phase is keyed on its bits:
    # 0j == -0j, but e^{i(-0-0j)} is 1-0j.
    tensors: dict[tuple, np.ndarray] = {}
    for r, current_ids, t_ids, kept_ids in plan:
        if r < n_open:
            t = np.eye(2)
        else:
            node = d.nodes[order[r]]
            phase = complex(node.phase)
            key = (node.kind, phase.real.hex(), phase.imag.hex(), len(t_ids))
            if key not in tensors:
                tensors[key] = _node_tensor(node.kind, node.phase, len(t_ids))
            t = tensors[key]
        current = np.einsum(current, current_ids, t, t_ids, kept_ids)

    out_labels = [len(ends) + r for r in [*range(n_in, n_open), *range(n_in)]]
    current = current.transpose([live.index(label) for label in out_labels])
    matrix = current.reshape(2 ** len(d.outputs), 2 ** n_in)
    matrix.flags.writeable = False
    object.__setattr__(d, "_matrix", matrix)
    return matrix


# ---------------------------------------------------------------------------
# rule matching

def match_rule(d: ZXDiagram, rule: str) -> list[tuple]:
    """All left-hand-side occurrences of a rule, ordered by node id."""
    if rule == "HH":
        locs = {
            (a, b) for a, b in d.edges
            if d.nodes[a].kind == "H" and d.nodes[b].kind == "H"
        }
        return sorted(locs)
    if rule == "S2":
        return sorted(
            (nid,) for nid, node in d.nodes.items()
            if node.kind in SPIDER_KINDS and _phase_is_zero(node.phase)
            and d.degree(nid) == 2
        )
    if rule == "S1":
        locs = {
            (a, b) for a, b in d.edges
            if d.nodes[a].kind in SPIDER_KINDS and d.nodes[a].kind == d.nodes[b].kind
        }
        return sorted(locs)
    if rule == "C":
        return [(nid,) for nid in d.spiders()]
    if rule == "B2":
        zs = [n for n in d.spiders()
              if d.nodes[n].kind == "Z" and _phase_is_zero(d.nodes[n].phase)
              and d.degree(n) == 3]
        xs = [n for n in d.spiders()
              if d.nodes[n].kind == "X" and _phase_is_zero(d.nodes[n].phase)
              and d.degree(n) == 3]
        locs = []
        for i, z1 in enumerate(zs):
            for z2 in zs[i + 1:]:
                if d.edge_count(z1, z2):
                    continue
                for j, x1 in enumerate(xs):
                    for x2 in xs[j + 1:]:
                        if d.edge_count(x1, x2):
                            continue
                        if all(d.edge_count(z, x) == 1 for z in (z1, z2) for x in (x1, x2)):
                            locs.append((z1, z2, x1, x2))
        return sorted(locs)
    raise ValueError(f"unknown rule {rule!r}")


# ---------------------------------------------------------------------------
# rule application

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise RuleApplicationError(f"pattern mismatch at location: {msg}")


def _apply_hh(d: ZXDiagram, loc) -> ZXDiagram:
    a, b = loc
    _require(a in d.nodes and b in d.nodes, f"missing node in {loc}")
    _require(d.nodes[a].kind == "H" and d.nodes[b].kind == "H", f"{loc} are not H boxes")
    between = d.edge_count(a, b)
    _require(between >= 1, f"H boxes {loc} are not adjacent")
    b_ = _Builder(d)
    if between == 2:
        b_.remove_node(a)
        b_.remove_node(b)
        return b_.build()
    outer_a = next(n for n in d.neighbors(a) if n != b)
    outer_b = next(n for n in d.neighbors(b) if n != a)
    b_.remove_node(a)
    b_.remove_node(b)
    b_.add_edge(outer_a, outer_b)
    return b_.build()


def _apply_s2(d: ZXDiagram, loc) -> ZXDiagram:
    (nid,) = loc
    _require(nid in d.nodes, f"missing node {nid}")
    node = d.nodes[nid]
    _require(node.kind in SPIDER_KINDS, f"node {nid} is not a spider")
    _require(_phase_is_zero(node.phase), f"spider {nid} has nonzero phase")
    _require(d.degree(nid) == 2, f"spider {nid} does not have degree 2")
    u, w = d.neighbors(nid)
    if u == w and d.nodes[u].kind == "H":
        raise RuleApplicationError("removal would close a zero-scalar loop through an H box")
    b_ = _Builder(d)
    b_.remove_node(nid)
    b_.add_edge(u, w)
    return b_.build()


def _apply_s1(d: ZXDiagram, loc) -> ZXDiagram:
    a, b = loc
    _require(a in d.nodes and b in d.nodes and a != b, f"bad fusion pair {loc}")
    na, nb = d.nodes[a], d.nodes[b]
    _require(na.kind in SPIDER_KINDS and na.kind == nb.kind,
             f"{loc} are not same-colour spiders")
    _require(d.edge_count(a, b) >= 1, f"spiders {loc} are not adjacent")
    b_ = _Builder(d)
    others = b_.remove_node_edges(b)
    del b_.nodes[b]
    for x in others:
        if x != a:
            b_.add_edge(a, x)  # an edge back to a would be a dropped self-loop
    b_.nodes[a] = ZXNode(na.kind, _norm_phase(na.phase + nb.phase))
    return b_.build()


def _apply_unfuse(d: ZXDiagram, loc) -> ZXDiagram:
    _, nid, detach_neighbors, phase_pair = loc
    _require(nid in d.nodes, f"missing node {nid}")
    node = d.nodes[nid]
    _require(node.kind in SPIDER_KINDS, f"node {nid} is not a spider")
    detached_phase = complex(phase_pair[0], phase_pair[1])
    b_ = _Builder(d)
    new = b_.add_node(node.kind, _norm_phase(detached_phase))
    for x in detach_neighbors:
        _require(d.edge_count(nid, x) >= 1, f"node {nid} has no edge to {x}")
        b_.remove_edge(nid, x)
        b_.add_edge(new, x)
    b_.add_edge(nid, new)
    b_.nodes[nid] = ZXNode(node.kind, _norm_phase(node.phase - detached_phase))
    return b_.build()


def _apply_c(d: ZXDiagram, loc) -> ZXDiagram:
    (nid,) = loc
    _require(nid in d.nodes, f"missing node {nid}")
    node = d.nodes[nid]
    _require(node.kind in SPIDER_KINDS, f"node {nid} is not a spider")
    b_ = _Builder(d)
    flipped = "X" if node.kind == "Z" else "Z"
    b_.nodes[nid] = ZXNode(flipped, node.phase)
    others = b_.remove_node_edges(nid)
    for x in others:
        h = b_.add_node("H")
        b_.add_edge(nid, h)
        b_.add_edge(h, x)
    return b_.build()


def _apply_b2(d: ZXDiagram, loc) -> ZXDiagram:
    z1, z2, x1, x2 = loc
    for nid, kind in ((z1, "Z"), (z2, "Z"), (x1, "X"), (x2, "X")):
        _require(nid in d.nodes, f"missing node {nid}")
        _require(d.nodes[nid].kind == kind, f"node {nid} is not a {kind} spider")
        _require(_phase_is_zero(d.nodes[nid].phase), f"node {nid} has nonzero phase")
        _require(d.degree(nid) == 3, f"node {nid} does not have degree 3")
    _require(all(d.edge_count(z, x) == 1 for z in (z1, z2) for x in (x1, x2)),
             "nodes do not form a complete bipartite square")
    _require(d.edge_count(z1, z2) == 0 and d.edge_count(x1, x2) == 0,
             "same-colour nodes of the square must not touch")
    pattern = {z1, z2, x1, x2}
    ext = {}
    for nid in loc:
        outside = [m for m in d.neighbors(nid) if m not in pattern]
        _require(len(outside) == 1, f"node {nid} lacks a unique external leg")
        ext[nid] = outside[0]
    b_ = _Builder(d)
    for nid in loc:
        b_.remove_node(nid)
    nx = b_.add_node("X")
    nz = b_.add_node("Z")
    b_.add_edge(nx, ext[z1])
    b_.add_edge(nx, ext[z2])
    b_.add_edge(nz, ext[x1])
    b_.add_edge(nz, ext[x2])
    b_.add_edge(nx, nz)
    return b_.build()


def apply_rule(d: ZXDiagram, rule: str, location) -> ZXDiagram:
    """Rewrite at a location; raises RuleApplicationError on pattern mismatch.

    S1 accepts either a fusion pair (a, b) or a reverse (splitting) location
    ("unfuse", node, detach_neighbors, (phase_re, phase_im)).
    """
    location = tuple(location)
    if rule == "HH":
        return _apply_hh(d, location)
    if rule == "S2":
        return _apply_s2(d, location)
    if rule == "S1":
        if location and location[0] == "unfuse":
            return _apply_unfuse(d, location)
        return _apply_s1(d, location)
    if rule == "C":
        return _apply_c(d, location)
    if rule == "B2":
        return _apply_b2(d, location)
    raise ValueError(f"unknown rule {rule!r}")


@dataclass(frozen=True)
class RewriteStep:
    rule: str
    location: tuple
    scalar_check: complex

    def __post_init__(self):
        if self.scalar_check == 0:
            raise ValueError("rewrite scalar must be nonzero")

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule,
            "location": _location_to_json(self.location),
            "scalar_re": float(self.scalar_check.real),
            "scalar_im": float(self.scalar_check.imag),
        }


def _location_to_json(location):
    out = []
    for item in location:
        if isinstance(item, (tuple, list)):
            out.append(_location_to_json(item))
        elif isinstance(item, str):
            out.append(item)
        elif isinstance(item, (int, np.integer)):
            out.append(int(item))
        else:
            out.append(float(item))
    return out


def _location_from_json(location):
    out = []
    for item in location:
        if isinstance(item, list):
            out.append(_location_from_json(item))
        else:
            out.append(item)
    return tuple(out)


def apply_rule_checked(d: ZXDiagram, rule: str, location) -> tuple[ZXDiagram, RewriteStep]:
    """Apply a rule and record the proportionality scalar measured by
    contracting both sides; evaluate's ValueError passes through when a side
    is over the contraction budget, so every recorded scalar is measured."""
    new = apply_rule(d, rule, location)
    scalar = proportionality(evaluate(new), evaluate(d))
    if scalar is None or scalar == 0:
        raise RuleApplicationError(
            f"rule {rule} at {location} did not preserve semantics up to a scalar"
        )
    return new, RewriteStep(rule, tuple(location), scalar)


def replay_trace(d: ZXDiagram, steps: Iterable[RewriteStep]) -> ZXDiagram:
    """Re-apply a recorded trace; node id allocation is deterministic."""
    for step in steps:
        d = apply_rule(d, step.rule, step.location)
    return d


# ---------------------------------------------------------------------------
# simplification

def _color_change_enables_fusion(d: ZXDiagram, nid: int) -> bool:
    node = d.nodes[nid]
    if node.kind not in SPIDER_KINDS:
        return False
    for h in d.neighbors(nid):
        if d.nodes[h].kind != "H":
            continue
        ends = d.neighbors(h)
        other = ends[0] if ends[1] == nid else ends[1]
        if other == nid:
            continue
        if d.nodes[other].kind in SPIDER_KINDS and d.nodes[other].kind != node.kind:
            return True
    return False


def simplify(d: ZXDiagram) -> tuple[ZXDiagram, list[RewriteStep]]:
    """Greedy fixpoint in priority order HH, S2, S1, C (gated), B2.

    C fires only when it sets up a fusion and only while a budget of
    2 x (initial H count) lasts, which bounds the loop.
    """
    steps: list[RewriteStep] = []
    budget = 2 * len(d.h_boxes())
    cap = 10 * (len(d.nodes) + len(d.edges) + 1) + budget
    while len(steps) <= cap:
        progressed = False
        for rule in ("HH", "S2", "S1"):
            locs = match_rule(d, rule)
            if locs:
                d, step = apply_rule_checked(d, rule, locs[0])
                steps.append(step)
                progressed = True
                break
        if progressed:
            continue
        candidates = [nid for nid in d.spiders() if _color_change_enables_fusion(d, nid)]
        if candidates and budget > 0:
            d, step = apply_rule_checked(d, "C", (candidates[0],))
            steps.append(step)
            budget -= 1
            continue
        locs = match_rule(d, "B2")
        if locs:
            d, step = apply_rule_checked(d, "B2", locs[0])
            steps.append(step)
            continue
        return d, steps
    raise RuntimeError("simplify exceeded its step bound")


# ---------------------------------------------------------------------------
# the scripted no-hiding derivation

DERIVATION_STAGES = ("C", "S1", "S1", "S1", "T", "T,S1", "S1")

# Phase split used by the last stage: the value that absorbs the default
# input cos(pi/8)|0> + sin(pi/8)|1> into an X spider pair in the |+/-> basis
# (e^{iz} = tan(pi/8); purely imaginary z, since the ratio is real).
SPLIT_PHASE = complex(0.0, -math.log(math.tan(math.pi / 8)))


def derivation_circuit() -> Circuit:
    """Gate form of the bleaching unitary analysed diagrammatically.

    Ancilla preparation, two ancilla-controlled NOTs into the system wire,
    then an ancilla-controlled Z realized as H CNOT H.
    """
    return Circuit(3, (
        Gate("h", (1,)),
        Gate("h", (2,)),
        Gate("cx", (1, 0)),
        Gate("cx", (2, 0)),
        Gate("h", (0,)),
        Gate("cx", (1, 0)),
        Gate("h", (0,)),
    ))


def derivation_diagram() -> ZXDiagram:
    """Diagram of the derivation circuit with both ancillas plugged to |0>."""
    d = circuit_to_zx(derivation_circuit())
    d = plug_state(d, 2)
    d = plug_state(d, 1)
    return d


def _derivation_target() -> np.ndarray:
    # independent pin: the controlled-Pauli bleach map (blocks 1, X, iY, Z)
    # applied to |psi>|00> after the ancilla Hadamards
    from .nohiding import build_randomizer

    prep = kron(np.eye(2, dtype=complex), kron(HADAMARD, HADAMARD))
    full = build_randomizer("eq1").matrix @ prep
    return full[:, [0, 4]]


@dataclass(frozen=True)
class DerivationResult:
    initial: ZXDiagram
    final: ZXDiagram
    steps: tuple[RewriteStep, ...]
    stage_labels: tuple[str, ...]
    stage_spans: tuple[tuple[int, int], ...]


def run_scripted_derivation() -> DerivationResult:
    """Replay the seven-stage rewrite chain that exposes information flow.

    Stage by stage: recolour the state preparations and the H-flanked
    spider (C, with the freed H pairs cancelled), fuse the plugged states
    into their wires (S1), fuse the system-wire pair (S1), fuse the
    ancilla-wire pair (S1), drop the identity spider wire-straightening
    exposes (T), split the system-output spider off the Bell structure
    (T,S1 in reverse), and split the input spider into the +/- phase pair
    that carries the input state (S1 in reverse).
    """
    d = derivation_diagram()
    if proportionality(evaluate(d), _derivation_target()) is None:
        raise DerivationError(0, "build", "diagram does not match the bleaching map")

    initial = d
    steps: list[RewriteStep] = []
    spans: list[tuple[int, int]] = []

    def run_stage(index: int, label: str, body) -> None:
        nonlocal d
        start = len(steps)
        try:
            body()
        except (RuleApplicationError, ValueError, KeyError, StopIteration) as exc:
            raise DerivationError(index, label, str(exc)) from exc
        spans.append((start, len(steps)))

    def apply(rule: str, location) -> None:
        nonlocal d
        d, step = apply_rule_checked(d, rule, location)
        steps.append(step)

    def stage_recolour():
        states = [nid for nid in d.spiders()
                  if d.nodes[nid].kind == "X" and d.degree(nid) == 1]
        flanked = [nid for nid in d.spiders()
                   if d.nodes[nid].kind == "X"
                   and sum(d.nodes[m].kind == "H" for m in d.neighbors(nid)) >= 2]
        for nid in sorted(states) + sorted(flanked):
            apply("C", (nid,))
        while match_rule(d, "HH"):
            apply("HH", match_rule(d, "HH")[0])

    def stage_fuse_states():
        while True:
            locs = [loc for loc in match_rule(d, "S1")
                    if d.degree(loc[0]) == 1 or d.degree(loc[1]) == 1]
            if not locs:
                break
            apply("S1", locs[0])

    def stage_fuse_system():
        locs = [loc for loc in match_rule(d, "S1") if d.nodes[loc[0]].kind == "X"]
        apply("S1", locs[0])

    def stage_fuse_ancilla():
        locs = [loc for loc in match_rule(d, "S1") if d.nodes[loc[0]].kind == "Z"]
        apply("S1", locs[0])

    def stage_straighten():
        apply("S2", match_rule(d, "S2")[0])

    def stage_split_system_out():
        out0 = d.outputs[0]
        zsys = d.neighbors(out0)[0]
        apply("S1", ("unfuse", zsys, (out0,), (0.0, 0.0)))

    def stage_split_input():
        xin = next(nid for nid in d.spiders() if d.nodes[nid].kind == "X")
        out2 = d.outputs[2]
        z_upper = d.neighbors(d.outputs[1])[0]
        apply("S1", ("unfuse", xin, (out2, z_upper),
                     (SPLIT_PHASE.real, SPLIT_PHASE.imag)))

    bodies = (stage_recolour, stage_fuse_states, stage_fuse_system,
              stage_fuse_ancilla, stage_straighten, stage_split_system_out,
              stage_split_input)
    for index, (label, body) in enumerate(zip(DERIVATION_STAGES, bodies), start=1):
        run_stage(index, label, body)

    check_final_information_flow(d)
    if proportionality(evaluate(d), evaluate(initial)) is None:
        raise DerivationError(len(DERIVATION_STAGES), DERIVATION_STAGES[-1],
                              "final diagram is not proportional to the initial one")
    return DerivationResult(initial, d, tuple(steps), DERIVATION_STAGES, tuple(spans))


def scripted_derivation() -> list[RewriteStep]:
    """The recorded steps of the scripted derivation."""
    return list(run_scripted_derivation().steps)


def _component_of(d: ZXDiagram, start: int) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        nid = frontier.pop()
        for m in d.neighbors(nid):
            if m not in seen:
                seen.add(m)
                frontier.append(m)
    return seen


def check_final_information_flow(d: ZXDiagram) -> None:
    """Structural claims about the fully rewritten diagram.

    The input wire hangs off a phase-carrying X spider pair whose phases
    cancel, both ancilla outputs live in the input's connected component,
    and the system output dangles from the zero-phase Z chain that encodes
    the Bell pair through an H box.
    """
    if len(d.inputs) != 1 or len(d.outputs) != 3:
        raise DerivationError(7, "S1", "final diagram has unexpected boundaries")
    inp = d.inputs[0]
    carrier = d.neighbors(inp)[0]
    node = d.nodes[carrier]
    if node.kind != "X" or _phase_is_zero(node.phase):
        raise DerivationError(7, "S1", "input is not attached to a phase-carrying X spider")
    partners = [m for m in d.neighbors(carrier)
                if d.nodes[m].kind == "X" and not _phase_is_zero(d.nodes[m].phase)]
    if not partners or not _phase_is_zero(node.phase + d.nodes[partners[0]].phase):
        raise DerivationError(7, "S1", "phase pair does not cancel")
    component = _component_of(d, inp)
    if d.outputs[1] not in component or d.outputs[2] not in component:
        raise DerivationError(7, "S1", "ancilla outputs are cut off from the input")
    stub = d.neighbors(d.outputs[0])[0]
    if d.nodes[stub].kind != "Z" or not _phase_is_zero(d.nodes[stub].phase):
        raise DerivationError(7, "S1", "system output is not on a zero-phase Z stub")
    inner = [m for m in d.neighbors(stub) if m != d.outputs[0]]
    if len(inner) != 1 or d.nodes[inner[0]].kind != "Z":
        raise DerivationError(7, "S1", "system output stub is not chained to the Bell structure")
    bell_lower = inner[0]
    through_h = [m for m in d.neighbors(bell_lower) if d.nodes[m].kind == "H"]
    if not through_h:
        raise DerivationError(7, "S1", "Bell structure lacks its H box")


# ---------------------------------------------------------------------------
# serialization

def _phase_to_json(phase: complex):
    if phase.imag == 0.0:
        return float(phase.real)
    return [float(phase.real), float(phase.imag)]


def _phase_from_json(value) -> complex:
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(float(value), 0.0)


def diagram_to_json_dict(d: ZXDiagram) -> dict:
    return {
        "nodes": [
            {"id": nid, "kind": d.nodes[nid].kind, "phase": _phase_to_json(d.nodes[nid].phase)}
            for nid in sorted(d.nodes)
        ],
        "edges": [[a, b] for a, b in d.edges],
        "inputs": list(d.inputs),
        "outputs": list(d.outputs),
    }


def diagram_from_json_dict(obj: dict) -> ZXDiagram:
    nodes = {
        int(n["id"]): ZXNode(n["kind"], _phase_from_json(n.get("phase", 0.0)))
        for n in obj["nodes"]
    }
    edges = tuple((int(a), int(b)) for a, b in obj["edges"])
    return ZXDiagram(nodes, edges, tuple(obj["inputs"]), tuple(obj["outputs"]))


def steps_to_json_list(steps: Sequence[RewriteStep]) -> list[dict]:
    return [s.to_json_dict() for s in steps]


def steps_from_json_list(items: Sequence[dict]) -> list[RewriteStep]:
    return [
        RewriteStep(
            rule=item["rule"],
            location=_location_from_json(item["location"]),
            scalar_check=complex(item["scalar_re"], item["scalar_im"]),
        )
        for item in items
    ]

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
import itertools
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, reduce
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
            if nid not in self.nodes or self.nodes[nid].kind != "in":
                raise ValueError(f"input {nid} is not an 'in' node")
        for nid in self.outputs:
            if nid not in self.nodes or self.nodes[nid].kind != "out":
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

def _rank(keys: dict) -> tuple[dict[int, int], int]:
    index = {key: r for r, key in enumerate(sorted(set(keys.values())))}
    return {nid: index[key] for nid, key in keys.items()}, len(index)


def _canonical_order(d: ZXDiagram) -> list[int]:
    # Refined labels make the order a function of the graph alone (not of
    # node ids), so relabeled diagrams contract identically bit for bit.
    # Colour refinement on integer ranks: each round ranks (own label,
    # sorted neighbour labels) until the number of classes stops growing,
    # which it cannot once every node is a class of its own.
    seeds = {nid: f"in{i}" for i, nid in enumerate(d.inputs)}
    seeds.update((nid, f"out{i}") for i, nid in enumerate(d.outputs))
    for nid, node in d.nodes.items():
        if nid not in seeds:
            seeds[nid] = f"{node.kind}:{node.phase.real:.9e}:{node.phase.imag:.9e}"
    labels, classes = _rank(seeds)
    while classes < len(labels):
        labels, grown = _rank({nid: (label, tuple(sorted(labels[m] for m in d._adj[nid])))
                               for nid, label in labels.items()})
        if grown == classes:
            break
        classes = grown

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
            for m in sorted(d._adj[nid], key=lambda x: (labels[x], x)):
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
    return np.asarray(b + cmath.exp(1j * phase) * c)  # a 0-d sum is a numpy scalar


_CACHED_LEGS = 8


@lru_cache(maxsize=64)
def _cached_tensor(kind: str, re_bits: str, im_bits: str, legs: int) -> np.ndarray:
    """A read-only node tensor shared by every evaluate call in the process.

    Only tensors of at most _CACHED_LEGS = 8 legs (4 KiB each) come here,
    and only the 64 most recently used are kept: 256 KiB at most. A wider
    one, up to 256 MiB at the budget, is built for its call alone. The
    phase is keyed on its bits: 0j == -0j, but e^{i(-0-0j)} is 1-0j.
    """
    t = _node_tensor(kind, complex(float.fromhex(re_bits), float.fromhex(im_bits)), legs)
    t.flags.writeable = False
    return t


def _tensor(node: ZXNode, legs: int) -> np.ndarray:
    phase = complex(node.phase)
    if legs > _CACHED_LEGS:
        return _node_tensor(node.kind, phase, legs)
    return _cached_tensor(node.kind, phase.real.hex(), phase.imag.hex(), legs)


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
    # Global labels: edge k of the rank-sorted edge list is label k.
    ends = sorted(sorted((rank[a], rank[b])) for a, b in d.edges)
    legs: list[list[int]] = [[] for _ in order]
    for label, (r, s) in enumerate(ends):
        legs[r].append(label)
        legs[s].append(label)

    # Spiders and H boxes are folded in canonical order. The boundary of rank
    # r (inputs, then outputs) names its edge's axis; of a wire between two
    # boundaries, the later one takes label len(ends) + r, joined to the
    # wire's label by an identity factor folded last.
    factors = [(d.nodes[order[r]], legs[r]) for r in range(n_open, len(order))]
    boundary_labels = []
    for r in range(n_open):
        label = legs[r][0]
        if r == ends[label][1]:
            factors.append((None, [label, len(ends) + r]))
            label = len(ends) + r
        boundary_labels.append(label)

    # Plan the fold on labels alone, so the budget refuses before any array
    # is built. Each einsum call numbers only the labels it sees, in their
    # global order; it sums in label order, so its result is bit for bit as
    # with global labels.
    plan, live = [], []
    for node, t_labels in factors:
        _check_budget(len(t_labels), "legs on one node")
        shared = set(live).intersection(t_labels)
        kept = [label for label in live + t_labels if label not in shared]
        _check_budget(len(kept), "live axes in one fold step")
        ids = {label: i for i, label in enumerate(sorted(set(live).union(t_labels)))}
        plan.append((node, [ids[e] for e in live], [ids[e] for e in t_labels],
                     [ids[e] for e in kept]))
        live = kept

    current = np.array(1.0 + 0j)
    for node, current_ids, t_ids, kept_ids in plan:
        t = np.eye(2) if node is None else _tensor(node, len(t_ids))
        current = np.einsum(current, current_ids, t, t_ids, kept_ids)

    out_labels = [boundary_labels[r] for r in [*range(n_in, n_open), *range(n_in)]]
    current = current.transpose([live.index(label) for label in out_labels])
    matrix = current.reshape(2 ** len(d.outputs), 2 ** n_in)
    matrix.flags.writeable = False
    object.__setattr__(d, "_matrix", matrix)
    return matrix


# ---------------------------------------------------------------------------
# rule matching

# Node ids per location; an S1 split is ("unfuse", node, detach, (re, im)).
_ARITY = {"S1": 2, "S2": 1, "C": 1, "B2": 4, "HH": 2}
# The kinds an HH or S1 pair may have; both of its nodes share one.
_PAIR_KINDS = {"HH": ("H",), "S1": SPIDER_KINDS}


def _mismatch(d: ZXDiagram, rule: str, loc: tuple) -> str | None:
    """Why `loc` is not an occurrence of `rule`'s left-hand side in `d`, or None.

    The one definition of each pattern: match_rule keeps the candidates it
    passes and apply_rule refuses the locations it fails. Replayed locations
    are outside input, so their shape is checked before any lookup.
    """
    if rule == "S1" and loc[:1] == ("unfuse",):
        if len(loc) != 4:
            return f"a split takes (\"unfuse\", node, detach, (re, im)), got {loc!r}"
        _, nid, detach, phase_pair = loc
        if reason := _mismatch(d, "C", (nid,)):  # C's left-hand side: any spider
            return reason
        if not isinstance(detach, (tuple, list)):
            return f"detach list {detach!r} is not a sequence"
        for x in detach:
            if not d.edge_count(nid, x):
                return f"node {nid} has no edge to {x!r}"
        if len(set(detach)) != len(detach):
            return f"detach list {detach!r} repeats a neighbour"
        if not (isinstance(phase_pair, (tuple, list)) and len(phase_pair) == 2
                and all(isinstance(v, numbers.Real) and math.isfinite(v) for v in phase_pair)):
            return f"phase {phase_pair!r} is not a pair of finite numbers"
        return None
    if len(loc) != _ARITY[rule]:
        return f"{rule} needs {_ARITY[rule]}-node locations, got {loc!r}"
    try:
        nodes = [d.nodes[x] for x in loc]
    except (KeyError, TypeError):  # absent, or unhashable and so no node id
        return f"missing node in {loc!r}"
    if rule in _PAIR_KINDS:
        if nodes[0].kind not in _PAIR_KINDS[rule] or nodes[1].kind != nodes[0].kind:
            return f"{loc} are not {'H boxes' if rule == 'HH' else 'same-colour spiders'}"
        if not d.edge_count(*loc):
            return f"{loc} are not adjacent"
    elif rule in ("S2", "C"):
        (nid,), (node,) = loc, nodes
        if node.kind not in SPIDER_KINDS:
            return f"node {nid} is not a spider"
        if rule == "S2" and (not _phase_is_zero(node.phase) or d.degree(nid) != 2):
            return f"spider {nid} is not a zero-phase spider of degree 2"
    else:  # B2
        for nid, node, kind in zip(loc, nodes, "ZZXX"):
            if node.kind != kind or not _phase_is_zero(node.phase) or d.degree(nid) != 3:
                return f"node {nid} is not a zero-phase {kind} spider of degree 3"
        z1, z2, x1, x2 = loc
        if z1 == z2 or x1 == x2 or d.edge_count(z1, z2) or d.edge_count(x1, x2):
            return f"same-colour corners of {loc} coincide or touch"
        if not all(d.edge_count(z, x) == 1 for z in (z1, z2) for x in (x1, x2)):
            return "nodes do not form a complete bipartite square"
    return None


def match_rule(d: ZXDiagram, rule: str) -> list[tuple]:
    """All left-hand-side occurrences of a rule, ordered by node id: cheap
    kind (and degree) filters pick the candidates, and `_mismatch` decides."""
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    if rule in _PAIR_KINDS:
        kinds = _PAIR_KINDS[rule]
        # edges are sorted, so a multi-edge's copies are adjacent
        candidates = [(a, b) for i, (a, b) in enumerate(d.edges)
                      if d.nodes[a].kind in kinds and d.nodes[b].kind == d.nodes[a].kind
                      and (i == 0 or d.edges[i - 1] != (a, b))]
    elif rule == "B2":
        zs, xs = ([n for n in d.spiders() if d.nodes[n].kind == kind and d.degree(n) == 3]
                  for kind in SPIDER_KINDS)
        candidates = [z + x for z, x in itertools.product(itertools.combinations(zs, 2),
                                                          itertools.combinations(xs, 2))]
    else:
        candidates = [(nid,) for nid in d.spiders() if rule == "C" or d.degree(nid) == 2]
    return [loc for loc in candidates if _mismatch(d, rule, loc) is None]


# ---------------------------------------------------------------------------
# rule application: graph surgery only, on a location _mismatch has passed

def _apply_hh(d: ZXDiagram, loc) -> ZXDiagram:
    a, b = loc
    # no outer legs: a doubly linked pair is a closed loop, which cancels
    outer = [n for n in d.neighbors(a) + d.neighbors(b) if n not in loc]
    b_ = _Builder(d)
    b_.remove_node(a)
    b_.remove_node(b)
    if outer:
        b_.add_edge(*outer)
    return b_.build()


def _apply_s2(d: ZXDiagram, loc) -> ZXDiagram:
    (nid,) = loc
    u, w = d.neighbors(nid)
    if u == w and d.nodes[u].kind == "H":
        raise RuleApplicationError("removal would close a zero-scalar loop through an H box")
    b_ = _Builder(d)
    b_.remove_node(nid)
    b_.add_edge(u, w)
    return b_.build()


def _apply_s1(d: ZXDiagram, loc) -> ZXDiagram:
    if loc[0] == "unfuse":
        return _apply_unfuse(d, *loc[1:])
    a, b = loc
    na, nb = d.nodes[a], d.nodes[b]
    b_ = _Builder(d)
    others = b_.remove_node_edges(b)
    del b_.nodes[b]
    for x in others:
        if x != a:
            b_.add_edge(a, x)  # an edge back to a would be a dropped self-loop
    b_.nodes[a] = ZXNode(na.kind, _norm_phase(na.phase + nb.phase))
    return b_.build()


def _apply_unfuse(d: ZXDiagram, nid: int, detach_neighbors, phase_pair) -> ZXDiagram:
    node = d.nodes[nid]
    detached_phase = complex(phase_pair[0], phase_pair[1])
    b_ = _Builder(d)
    new = b_.add_node(node.kind, _norm_phase(detached_phase))
    for x in detach_neighbors:
        b_.remove_edge(nid, x)
        b_.add_edge(new, x)
    b_.add_edge(nid, new)
    b_.nodes[nid] = ZXNode(node.kind, _norm_phase(node.phase - detached_phase))
    return b_.build()


def _apply_c(d: ZXDiagram, loc) -> ZXDiagram:
    (nid,) = loc
    node = d.nodes[nid]
    b_ = _Builder(d)
    b_.nodes[nid] = ZXNode("X" if node.kind == "Z" else "Z", node.phase)
    for x in b_.remove_node_edges(nid):
        h = b_.add_node("H")
        b_.add_edge(nid, h)
        b_.add_edge(h, x)
    return b_.build()


def _apply_b2(d: ZXDiagram, loc) -> ZXDiagram:
    z1, z2, x1, x2 = loc
    # each corner has degree 3 and two legs inside the square
    ext = {nid: next(m for m in d.neighbors(nid) if m not in loc) for nid in loc}
    b_ = _Builder(d)
    for nid in loc:
        b_.remove_node(nid)
    nx, nz = b_.add_node("X"), b_.add_node("Z")
    for new, corner in ((nx, z1), (nx, z2), (nz, x1), (nz, x2)):
        b_.add_edge(new, ext[corner])
    b_.add_edge(nx, nz)
    return b_.build()


_APPLY = dict(zip(RULES, (_apply_s1, _apply_s2, _apply_c, _apply_b2, _apply_hh)))


def apply_rule(d: ZXDiagram, rule: str, location) -> ZXDiagram:
    """Rewrite at a location; raises RuleApplicationError on pattern mismatch.

    S1 accepts either a fusion pair (a, b) or a reverse (splitting) location
    ("unfuse", node, detach_neighbors, (phase_re, phase_im)).
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    location = tuple(location)
    if reason := _mismatch(d, rule, location):
        raise RuleApplicationError(f"pattern mismatch at location: {reason}")
    return _APPLY[rule](d, location)


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


def _local_sides(d: ZXDiagram, new: ZXDiagram) -> tuple[ZXDiagram, ZXDiagram]:
    """The region a rewrite changed, cut out of each side as a small diagram.

    The region holds every node that is absent on one side, whose ZXNode
    differs, or whose place among the inputs/outputs moved. Each edge from it
    into the unchanged context, and each context-to-context edge in the
    multiset difference of the two edge lists, ends in an open leg at its
    context node; the legs are outputs sorted by that node's id, after which
    come the region's own boundaries in their order. A context node with a
    different number of legs on the two sides, or with more than one (which
    the sort could not pair across the sides), joins the region.
    """
    sides = (d, new)
    places = [{**{n: ("in", i) for i, n in enumerate(x.inputs)},
               **{n: ("out", i) for i, n in enumerate(x.outputs)}} for x in sides]
    changed = (d.nodes.items() ^ new.nodes.items()) | (places[0].items() ^ places[1].items())
    region = {n for n, _ in changed}
    counts = Counter(d.edges), Counter(new.edges)
    only = counts[0] - counts[1], counts[1] - counts[0]
    while True:
        wires = [[e for e in diff.elements() if region.isdisjoint(e)] for diff in only]
        legs = [Counter(c for e in wire for c in e) for wire in wires]
        for x, leg in zip(sides, legs):
            leg.update(m for n in region for m in x._adj.get(n, ()) if m not in region)
        grow = {c for c in legs[0].keys() | legs[1].keys()
                if legs[0][c] != legs[1][c] or legs[0][c] > 1}
        if not grow:
            break
        region |= grow

    first = max(d.nodes.keys() | new.nodes.keys(), default=-1) + 1
    out = {c: first + i for i, c in enumerate(sorted(legs[0]))}

    def cut(x: ZXDiagram, wire: list) -> ZXDiagram:
        nodes = {n: x.nodes[n] for n in region & x.nodes.keys()}
        nodes.update((o, ZXNode("out")) for o in out.values())
        edges = [(n, out.get(m, m)) for n in nodes for m in x._adj.get(n, ())
                 if n < m or m not in region]
        edges += [(out[a], out[b]) for a, b in wire]
        return ZXDiagram(nodes, tuple(edges), tuple(n for n in x.inputs if n in region),
                         (*out.values(), *(n for n in x.outputs if n in region)))

    return cut(d, wires[0]), cut(new, wires[1])


def _local_scalar(d: ZXDiagram, new: ZXDiagram) -> complex | None:
    """proportionality(new, d), measured on the region that differs."""
    before, after = _local_sides(d, new)
    return proportionality(evaluate(after), evaluate(before))


def apply_rule_checked(d: ZXDiagram, rule: str, location) -> tuple[ZXDiagram, RewriteStep]:
    """Apply a rule and record the proportionality scalar, measured by
    contracting the region it changed on both sides: rules are local
    equations, so L = s*R on the region scales the whole diagram by s.
    evaluate's ValueError passes through when a region is over the
    contraction budget, so every recorded scalar is measured."""
    new = apply_rule(d, rule, location)
    scalar = _local_scalar(d, new)
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


def _json_field(obj, key: str, where: str, valid, what: str, default=None):
    """obj[key] of a parsed JSON object, else a ValueError naming `where` and
    the field: obj is not a dict, the field is missing or null and has no
    default, or its value fails `valid`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {obj!r}")
    value = obj.get(key, default)
    if value is None:
        raise ValueError(f"{where}: field {key!r} is missing or null")
    if not valid(value):
        raise ValueError(f"{where}: field {key!r} must be {what}, got {value!r}")
    return value


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and math.isfinite(x)


def _is_list(x) -> bool:
    return isinstance(x, list)


def _is_ids(x) -> bool:
    return isinstance(x, list) and all(isinstance(v, int) for v in x)


def _is_phase(x) -> bool:
    return _is_real(x) or isinstance(x, list) and len(x) == 2 and all(map(_is_real, x))


def diagram_from_json_dict(obj: dict) -> ZXDiagram:
    """Inverse of diagram_to_json_dict. Malformed input raises ValueError
    naming the node, edge or field; ZXDiagram then checks the graph itself."""
    nodes: dict[int, ZXNode] = {}
    for i, n in enumerate(_json_field(obj, "nodes", "diagram", _is_list, "a list")):
        where = f"node {i}"
        nid = _json_field(n, "id", where, lambda v: isinstance(v, int), "an integer")
        if nid in nodes:
            raise ValueError(f"{where}: duplicate id {nid}")
        kind = _json_field(n, "kind", where, lambda v: isinstance(v, str), "a string")
        phase = _json_field(n, "phase", where, _is_phase, "a real number or [re, im]", 0.0)
        nodes[nid] = ZXNode(kind, complex(*phase) if isinstance(phase, list) else complex(phase))
    edges = _json_field(obj, "edges", "diagram", _is_list, "a list")
    for i, edge in enumerate(edges):
        if not (_is_ids(edge) and len(edge) == 2):
            raise ValueError(f"diagram: edge {i} must be [id, id], got {edge!r}")
    inputs, outputs = (_json_field(obj, key, "diagram", _is_ids, "a list of node ids")
                       for key in ("inputs", "outputs"))
    return ZXDiagram(nodes, tuple(map(tuple, edges)), tuple(inputs), tuple(outputs))


def steps_to_json_list(steps: Sequence[RewriteStep]) -> list[dict]:
    return [s.to_json_dict() for s in steps]


def steps_from_json_list(items: list[dict]) -> list[RewriteStep]:
    """Inverse of steps_to_json_list. A malformed step raises ValueError
    naming its index and field; whether its location matches the diagram is
    apply_rule's question, asked at replay."""
    if not _is_list(items):
        raise ValueError(f"steps: expected a list, got {items!r}")
    steps = []
    for i, item in enumerate(items):
        where = f"step {i}"
        rule = _json_field(item, "rule", where, lambda v: v in RULES, f"one of {RULES}")
        location = _json_field(item, "location", where, _is_list, "a list")
        re_part, im_part = (_json_field(item, key, where, _is_real, "a finite real number")
                            for key in ("scalar_re", "scalar_im"))
        try:
            steps.append(RewriteStep(rule, _location_from_json(location),
                                     complex(re_part, im_part)))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return steps

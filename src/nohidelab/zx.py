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

Each rewrite is verified by contracting both sides of the region it
changed, each from its exact form: its nodes, edges and boundaries with
every id replaced by its rank. Rewrites of one lineage share those
contractions: a diagram built from another by a rewrite or plug_state
shares its table of verified local equations, and any other diagram starts
an empty one. The table is keyed by the forms that get contracted, so each
recorded scalar is still the contraction of its own region. It keeps
matrices only for sides of at most 8 open legs.
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
from .qmath import HADAMARD, proportionality

SPIDER_KINDS = ("Z", "X")
RULES = ("S1", "S2", "C", "B2", "HH")

# Brute-force contraction budget in axes of dimension 2, for the open legs,
# each node's legs and the live axes of each fold step alike: no array a
# contraction builds exceeds 2^24 complex entries (256 MiB), and an einsum call
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
    # Verified local equations of this diagram's rewrite lineage: region side
    # key -> its matrix, (before key, after key) -> the rewrite scalar.
    # _Builder(d).build() shares d's table; any other construction starts one.
    _verified: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        loops = [a for a, b in self.edges if a == b]
        if loops:
            raise ValueError(f"self-loop on node {loops[0]} is forbidden")
        edges = sorted([(a, b) if a < b else (b, a) for a, b in self.edges])
        nodes = dict(self.nodes)
        inputs, outputs = tuple(self.inputs), tuple(self.outputs)

        # Neighbour lists in sorted-edge order, built once: the diagram is frozen.
        adj: dict[int, list[int]] = {nid: [] for nid in nodes}
        try:
            for a, b in edges:
                adj[a].append(b)
                adj[b].append(a)
        except KeyError as exc:
            raise ValueError(f"edge references missing node {exc.args[0]}") from None
        self.__dict__.update(nodes=nodes, edges=tuple(edges), inputs=inputs, outputs=outputs,
                             _adj=adj, _verified={})
        boundary_ids = {*inputs, *outputs}
        if len(inputs) + len(outputs) != len(boundary_ids):
            raise ValueError("a boundary node may appear only once")
        for nid, node in nodes.items():
            kind = node.kind
            if kind == "Z" or kind == "X":
                continue
            if kind == "in" or kind == "out":
                if nid not in boundary_ids:
                    raise ValueError(f"boundary node {nid} missing from inputs/outputs")
                if len(adj[nid]) != 1:
                    raise ValueError(f"boundary node {nid} must have degree 1")
            elif kind == "H":
                if len(adj[nid]) != 2:
                    raise ValueError(f"H box {nid} must have degree 2, has {len(adj[nid])}")
            else:
                raise ValueError(f"unknown node kind {kind!r}")
        for what, kind, ids in (("input", "in", inputs), ("output", "out", outputs)):
            for nid in ids:
                node = nodes.get(nid)
                if node is None or node.kind != kind:
                    raise ValueError(f"{what} {nid} is not an {kind!r} node")

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
    """The phase with its real part in [0, 2pi): a negative zero becomes +0.0,
    and a tiny negative part that rounds up to 2pi when shifted becomes 0.0."""
    re = math.fmod(phase.real, 2.0 * math.pi) + 0.0
    if re < 0.0:
        re += 2.0 * math.pi
    return complex(re if re < 2.0 * math.pi else 0.0, phase.imag)


class _Builder:
    """Mutable scratch copy of a diagram; build() re-validates. A diagram
    built from a copy of `d` continues d's lineage: it shares d's table."""

    def __init__(self, d: ZXDiagram | None = None):
        if d is None:
            self.nodes: dict[int, ZXNode] = {}
            self.edges: list[tuple[int, int]] = []
            self.inputs: list[int] = []
            self.outputs: list[int] = []
            self.verified = None
        else:
            self.nodes = dict(d.nodes)
            self.edges = list(d.edges)
            self.inputs = list(d.inputs)
            self.outputs = list(d.outputs)
            self.verified = d._verified
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
        """Drop nid's edges in one pass; their other ends, in edge order."""
        kept: list[tuple[int, int]] = []
        others: list[int] = []
        for e in self.edges:
            if nid in e:
                others.append(e[e[0] == nid])
            else:
                kept.append(e)
        self.edges = kept
        return others

    def remove_node(self, nid: int) -> None:
        self.remove_node_edges(nid)
        del self.nodes[nid]

    def build(self) -> ZXDiagram:
        d = ZXDiagram(self.nodes, tuple(self.edges), tuple(self.inputs), tuple(self.outputs))
        if self.verified is not None:
            object.__setattr__(d, "_verified", self.verified)
        return d


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

# The kind and phase bits of the "out" node that ends an open leg of a region.
_LEG = ("out", (0.0).hex(), (0.0).hex())


def _form(x: ZXDiagram, region, context: list[int], wire: list) -> tuple:
    """The exact form of a region of x, with every node id replaced by its
    rank: (kinds, edges, inputs, outputs). Kinds lists the region's nodes in
    id order as (kind, phase bits), then an "out" leg per context node, in
    context order; edges are sorted rank pairs, and the outputs are the legs,
    then the region's own outputs. The whole diagram is _form(x, x.nodes,
    [], []). Forms that are equal contract to the same bits: the contraction
    sees ranks alone."""
    ids = sorted([n for n in region if n in x.nodes])
    rank = {n: r for r, n in enumerate(ids)}
    for r, c in enumerate(context, len(ids)):
        rank[c] = r
    adj, nodes, kinds = x._adj, x.nodes, []
    edges = [(rank[n], rank[m]) for n in ids for m in adj[n] if n < m or m not in region]
    edges += [(rank[a], rank[b]) for a, b in wire]
    edges.sort()
    for n in ids:
        node = nodes[n]
        phase = complex(node.phase)
        kinds.append((node.kind, phase.real.hex(), phase.imag.hex()))
    kinds += [_LEG] * len(context)
    return (tuple(kinds), tuple(edges), tuple([rank[n] for n in x.inputs if n in region]),
            (*range(len(ids), len(kinds)), *[rank[n] for n in x.outputs if n in region]))


@lru_cache(maxsize=64)
def _seed_label(kind: str, re_bits: str, im_bits: str) -> str:
    return f"{kind}:{float.fromhex(re_bits):.9e}:{float.fromhex(im_bits):.9e}"


def _canonical_order(form: tuple) -> list[int]:
    # Refined labels make the order a function of the graph alone (not of
    # node ids), so relabeled diagrams contract identically bit for bit.
    # Colour refinement: each round ranks (own label, sorted neighbour
    # labels) until the number of classes stops growing, which it cannot
    # once every node is a class of its own. Ranks order nodes as the seed
    # strings do, so seeds that are already distinct serve as the labels.
    kinds, edges, inputs, outputs = form
    adj: list[list[int]] = [[] for _ in kinds]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    boundary = {r: f"in{i}" for i, r in enumerate(inputs)}
    boundary.update({r: f"out{i}" for i, r in enumerate(outputs)})
    labels = [boundary.get(r) or _seed_label(*bits) for r, bits in enumerate(kinds)]
    classes = len(set(labels))
    while classes < len(labels):
        keys = [(label, tuple(sorted([labels[m] for m in adj[r]])))
                for r, label in enumerate(labels)]
        index = {key: i for i, key in enumerate(sorted(set(keys)))}
        labels = [index[key] for key in keys]
        if len(index) == classes:
            break
        classes = len(index)

    # Breadth-first from the ordered boundaries keeps contraction local, so
    # the number of simultaneously open tensor axes stays near the diagram
    # width instead of its edge count. order[head:] is the queue.
    key = lambda x: (labels[x], x)  # by label, ties by rank
    order = [*inputs, *outputs]
    seen = set(order)
    head = 0
    while True:
        while head < len(order):
            neighbours = adj[order[head]]
            for m in sorted(neighbours, key=key) if len(neighbours) > 1 else neighbours:
                if m not in seen:
                    seen.add(m)
                    order.append(m)
            head += 1
        if len(order) == len(kinds):
            return order
        start = min((r for r in range(len(kinds)) if r not in seen), key=key)
        seen.add(start)
        order.append(start)


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
    """A read-only node tensor shared by every contraction in the process.

    Only tensors of at most _CACHED_LEGS = 8 legs (4 KiB each) come here,
    and only the 64 most recently used are kept: 256 KiB at most. A wider
    one, up to 256 MiB at the budget, is built for its call alone. The
    phase is keyed on its bits: 0j == -0j, but e^{i(-0-0j)} is 1-0j.
    """
    t = _node_tensor(kind, complex(float.fromhex(re_bits), float.fromhex(im_bits)), legs)
    t.flags.writeable = False
    return t


def _check_budget(n: int, what: str) -> None:
    if n > MAX_EVAL_AXES:
        raise ValueError(f"diagram too large for brute force ({n} {what}; limit {MAX_EVAL_AXES})")


def evaluate(d: ZXDiagram) -> np.ndarray:
    """Contract the diagram to a 2^|outputs| x 2^|inputs| matrix."""
    return _contract(_form(d, d.nodes, [], []))


def _contract(form: tuple) -> np.ndarray:
    """Contract a form (see _form) to a 2^|outputs| x 2^|inputs| matrix."""
    kinds, edges, inputs, outputs = form
    n_in, n_open = len(inputs), len(inputs) + len(outputs)
    _check_budget(n_open, "open legs")
    order = _canonical_order(form)
    position = dict(zip(order, range(len(order))))
    # Global labels: edge k of the position-sorted edge list is label k.
    ends = sorted([(i, j) if (i := position[a]) < (j := position[b]) else (j, i)
                   for a, b in edges])
    legs: list[list[int]] = [[] for _ in order]
    for label, (p, q) in enumerate(ends):
        legs[p].append(label)
        legs[q].append(label)

    # Spiders and H boxes are folded in canonical order. The boundary at
    # position p (inputs, then outputs) names its edge's axis; of a wire
    # between two boundaries, the later one takes label len(ends) + p,
    # joined to the wire's label by an identity factor folded last.
    factors = [(kinds[order[p]], legs[p]) for p in range(n_open, len(order))]
    boundary_labels = []
    for p in range(n_open):
        label = legs[p][0]
        if p == ends[label][1]:
            factors.append((None, [label, len(ends) + p]))
            label = len(ends) + p
        boundary_labels.append(label)

    # Plan the fold on labels alone, so the budget refuses before any array
    # is built. Each einsum call numbers only the labels it sees, in their
    # global order; it sums in label order, so its result is bit for bit as
    # with global labels.
    plan, live = [], []
    for bits, t_labels in factors:
        _check_budget(len(t_labels), "legs on one node")
        shared = set(live).intersection(t_labels)
        kept = [label for label in live + t_labels if label not in shared]
        _check_budget(len(kept), "live axes in one fold step")
        ids = dict(zip(sorted([*kept, *shared]), itertools.count())).__getitem__
        plan.append((bits, [*map(ids, live)], [*map(ids, t_labels)], [*map(ids, kept)]))
        live = kept

    current = np.array(1.0 + 0j)
    for bits, current_ids, t_ids, kept_ids in plan:
        if bits is None:
            t = np.eye(2)
        elif len(t_ids) <= _CACHED_LEGS:
            t = _cached_tensor(*bits, len(t_ids))
        else:
            kind, re_bits, im_bits = bits
            t = _node_tensor(kind, complex(float.fromhex(re_bits), float.fromhex(im_bits)),
                             len(t_ids))
        current = np.einsum(current, current_ids, t, t_ids, kept_ids)

    out_labels = [boundary_labels[p] for p in [*range(n_in, n_open), *range(n_in)]]
    current = current.transpose([live.index(label) for label in out_labels])
    return current.reshape(2 ** len(outputs), 2 ** n_in)


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
        kinds, nodes = _PAIR_KINDS[rule], d.nodes
        # each edge once, a multi-edge at its first copy, in edge order
        candidates = [(a, b) for a, b in dict.fromkeys(d.edges)
                      if nodes[a].kind in kinds and nodes[b].kind == nodes[a].kind]
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


def _region(d: ZXDiagram, new: ZXDiagram) -> tuple[set[int], list[int], list[list]]:
    """The region a rewrite changed, as plain data: its node set, the context
    nodes its open legs end at in id order, and per side (d, then new) the
    context-to-context edges that differ.

    The region holds every node that is absent on one side, whose ZXNode
    differs, or whose place among the inputs/outputs moved. Each edge from it
    into the unchanged context, and each context-to-context edge in the
    multiset difference of the two edge lists, ends in an open leg at its
    context node; the legs are outputs sorted by that node's id, after which
    come the region's own boundaries in their order. A context node with a
    different number of legs on the two sides, or with more than one (which
    the sort could not pair across the sides), joins the region.
    """
    sides, region = (d, new), set()
    if d.inputs != new.inputs or d.outputs != new.outputs:
        places = [{**{n: ("in", i) for i, n in enumerate(x.inputs)},
                   **{n: ("out", i) for i, n in enumerate(x.outputs)}} for x in sides]
        region = {n for n, _ in places[0].items() ^ places[1].items()}
    counterpart = new.nodes.get
    region.update([n for n, node in d.nodes.items()
                   if (other := counterpart(n)) is not node and other != node])
    region.update(new.nodes.keys() - d.nodes.keys())
    # One signed tally per edge: copies only in d count up, only in new down.
    tally: dict[tuple[int, int], int] = {}
    for e in d.edges:
        tally[e] = tally.get(e, 0) + 1
    for e in new.edges:
        tally[e] = tally.get(e, 0) - 1
    only: tuple[list, list] = ([], [])
    for e, k in tally.items():
        if k:
            only[k < 0].extend([e] * abs(k))
    while True:
        wires = [[e for e in diff if region.isdisjoint(e)] for diff in only]
        # each side's leg ends, one entry per leg, in id order
        ends = [sorted([c for e in wire for c in e]
                       + [m for n in region for m in x._adj.get(n, ()) if m not in region])
                for x, wire in zip(sides, wires)]
        if ends[0] == ends[1] and len(set(ends[0])) == len(ends[0]):
            return region, ends[0], wires
        legs = [Counter(side) for side in ends]
        region |= {c for c in legs[0].keys() | legs[1].keys()
                   if legs[0][c] != legs[1][c] or legs[0][c] > 1}


def _local_scalar(d: ZXDiagram, new: ZXDiagram) -> complex | None:
    """proportionality(new, d), measured on the region that differs, or read
    from d's lineage table when that region pair was verified before. A
    side's matrix, too, is looked up before its form is contracted."""
    region, context, wires = _region(d, new)
    forms = (_form(d, region, context, wires[0]), _form(new, region, context, wires[1]))
    table = d._verified
    try:
        return table[forms]
    except KeyError:
        pass
    matrices = []
    for form in forms:
        matrix = table.get(form)
        if matrix is None:
            matrix = _contract(form)
            if len(form[2]) + len(form[3]) <= _CACHED_LEGS:
                matrix.flags.writeable = False
                table[form] = matrix
        matrices.append(matrix)
    table[forms] = scalar = proportionality(matrices[1], matrices[0])
    return scalar


def apply_rule_checked(d: ZXDiagram, rule: str, location) -> tuple[ZXDiagram, RewriteStep]:
    """Apply a rule and record the proportionality scalar, measured by
    contracting the region it changed on both sides: rules are local
    equations, so L = s*R on the region scales the whole diagram by s.
    The contraction's ValueError passes through when a region is over
    the budget, so every recorded scalar is measured."""
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

    # columns |0>|++> and |1>|++> of the map: its two 4-column blocks times |++>
    plus = HADAMARD[:, 0]
    return build_randomizer("eq1").matrix.reshape(8, 2, 4) @ np.outer(plus, plus).ravel()


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
    initial_matrix = evaluate(d)
    if proportionality(initial_matrix, _derivation_target()) is None:
        raise DerivationError(0, "build", "diagram does not match the bleaching map")

    initial = d
    steps: list[RewriteStep] = []
    spans: list[tuple[int, int]] = []

    def run_stage(index: int, label: str, body) -> None:
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
        while locs := match_rule(d, "HH"):
            apply("HH", locs[0])

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
    if proportionality(evaluate(d), initial_matrix) is None:
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


# JSON true and false parse as bool, a subclass of int: neither is an id or a number.
def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _is_list(x) -> bool:
    return isinstance(x, list)


def _is_id(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_ids(x) -> bool:
    return isinstance(x, list) and all(map(_is_id, x))


def _is_location(x) -> bool:
    return isinstance(x, list) and all(
        _is_location(v) if isinstance(v, list) else not isinstance(v, bool) for v in x)


def _is_phase(x) -> bool:
    return _is_real(x) or isinstance(x, list) and len(x) == 2 and all(map(_is_real, x))


def diagram_from_json_dict(obj: dict) -> ZXDiagram:
    """Inverse of diagram_to_json_dict. Malformed input raises ValueError
    naming the node, edge or field; ZXDiagram then checks the graph itself."""
    nodes: dict[int, ZXNode] = {}
    for i, n in enumerate(_json_field(obj, "nodes", "diagram", _is_list, "a list")):
        where = f"node {i}"
        nid = _json_field(n, "id", where, _is_id, "an integer")
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
        location = _json_field(item, "location", where, _is_location,
                               "a list without booleans")
        re_part, im_part = (_json_field(item, key, where, _is_real, "a finite real number")
                            for key in ("scalar_re", "scalar_im"))
        try:
            steps.append(RewriteStep(rule, _location_from_json(location),
                                     complex(re_part, im_part)))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return steps

import itertools
import math
import re

import numpy as np
import pytest

from nohidelab import qmath, zx
from nohidelab.circuits import Circuit, Gate, circuit_unitary
from nohidelab.qmath import proportionality
from nohidelab.zx import (
    RewriteStep,
    RuleApplicationError,
    ZXDiagram,
    ZXNode,
    apply_rule,
    apply_rule_checked,
    circuit_to_zx,
    diagram_from_json_dict,
    diagram_to_json_dict,
    evaluate,
    match_rule,
    plug_state,
    replay_trace,
    run_scripted_derivation,
    simplify,
    steps_from_json_list,
    steps_to_json_list,
)

TRANSLATABLE = ["h", "x", "y", "z", "s", "t", "cx"]


def random_circuit(rng, max_qubits=3, max_gates=5) -> Circuit:
    n = int(rng.integers(1, max_qubits + 1))
    gates = []
    for _ in range(int(rng.integers(1, max_gates + 1))):
        kind = TRANSLATABLE[int(rng.integers(len(TRANSLATABLE)))]
        if kind == "cx":
            if n < 2:
                continue
            pair = rng.choice(n, size=2, replace=False)
            gates.append(Gate("cx", (int(pair[0]), int(pair[1]))))
        else:
            gates.append(Gate(kind, (int(rng.integers(n)),)))
    return Circuit(n, tuple(gates))


def cx_ladder(num_qubits: int) -> Circuit:
    # 24 open legs at 12 qubits, but its fold needs 25 live axes
    return Circuit(num_qubits, tuple(Gate("cx", (i, i + 1)) for i in range(num_qubits - 1)))


def wire_diagram() -> ZXDiagram:
    return circuit_to_zx(Circuit(1))


def spider_map(num_in: int, num_out: int, kind: str, phase: complex = 0j) -> ZXDiagram:
    nodes = {}
    edges = []
    inputs, outputs = [], []
    nodes[0] = ZXNode(kind, phase)
    nid = 1
    for _ in range(num_in):
        nodes[nid] = ZXNode("in")
        inputs.append(nid)
        edges.append((0, nid))
        nid += 1
    for _ in range(num_out):
        nodes[nid] = ZXNode("out")
        outputs.append(nid)
        edges.append((0, nid))
        nid += 1
    return ZXDiagram(nodes, tuple(edges), tuple(inputs), tuple(outputs))


def count_contractions(monkeypatch) -> list:
    """Record every contraction evaluate starts, by wrapping _canonical_order."""
    started = []
    canonical_order = zx._canonical_order

    def counted(d):
        started.append(d)
        return canonical_order(d)

    monkeypatch.setattr(zx, "_canonical_order", counted)
    return started


class TestEvaluate:
    def test_bare_wire_is_identity(self):
        assert np.abs(evaluate(wire_diagram()) - np.eye(2)).max() < 1e-12

    def test_green_spider_is_phase_diagonal(self):
        for alpha in (0.0, math.pi / 4, 1.3):
            d = spider_map(1, 1, "Z", alpha)
            expected = np.diag([1.0, np.exp(1j * alpha)])
            assert np.abs(evaluate(d) - expected).max() < 1e-12

    def test_red_two_to_one_is_xor(self):
        d = spider_map(2, 1, "X")
        m = evaluate(d)
        expected = np.zeros((2, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                expected[a ^ b, a * 2 + b] = 1 / math.sqrt(2)
        assert np.abs(m - expected).max() < 1e-12

    def test_h_box(self):
        d = circuit_to_zx(Circuit(1, (Gate("h", (0,)),)))
        assert np.abs(evaluate(d) - qmath.HADAMARD).max() < 1e-12

    def test_t_gate_diagram(self):
        d = circuit_to_zx(Circuit(1, (Gate("t", (0,)),)))
        assert np.abs(evaluate(d) - np.diag([1, np.exp(1j * math.pi / 4)])).max() < 1e-12

    def test_cnot_contracts_to_scaled_cnot(self):
        c = Circuit(2, (Gate("cx", (0, 1)),))
        m = evaluate(circuit_to_zx(c))
        assert np.abs(m - circuit_unitary(c) / math.sqrt(2)).max() < 1e-12

    def test_state_plug_gives_column(self):
        d = circuit_to_zx(Circuit(1, (Gate("h", (0,)),)))
        d = plug_state(d, 0)
        m = evaluate(d)
        assert m.shape == (2, 1)
        assert proportionality(m[:, 0], np.array([1, 1]) / math.sqrt(2)) is not None

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="too large for brute force"):
            evaluate(circuit_to_zx(cx_ladder(12)))

    def test_long_narrow_circuits_evaluate(self, rng):
        # The budget counts live axes, not edges: 30 gates on 3 wires stay narrow.
        for _ in range(5):
            gates = []
            for _ in range(30):
                kind = TRANSLATABLE[int(rng.integers(len(TRANSLATABLE)))]
                wires = rng.choice(3, size=2 if kind == "cx" else 1, replace=False)
                gates.append(Gate(kind, tuple(int(w) for w in wires)))
            c = Circuit(3, tuple(gates))
            d = circuit_to_zx(c)
            assert len(d.edges) > 40
            assert proportionality(evaluate(d), circuit_unitary(c)) is not None

    def test_wide_spider_rejected_before_building_its_tensor(self, monkeypatch):
        # 24 open legs pass; the spider's 25th leg, to a plugged state, does not.
        d = spider_map(12, 12, "Z")
        d = ZXDiagram({**d.nodes, 25: ZXNode("X")}, d.edges + ((0, 25),), d.inputs, d.outputs)

        def tensor_built(*_):
            raise AssertionError("tensor built")

        monkeypatch.setattr(zx, "_node_tensor", tensor_built)
        with pytest.raises(ValueError, match=r"too large for brute force \(25 legs on one node;"):
            evaluate(d)

    def test_shared_spider_tensors_are_built_once_read_only(self, monkeypatch):
        zx._cached_tensor.cache_clear()
        built = []
        node_tensor = zx._node_tensor

        def counted(kind, phase, legs):
            built.append((kind, phase, legs))
            return node_tensor(kind, phase, legs)

        monkeypatch.setattr(zx, "_node_tensor", counted)
        # two contractions of distinct diagrams sharing a T-phase spider
        for _ in range(2):
            evaluate(circuit_to_zx(Circuit(1, (Gate("t", (0,)),))))
        assert built == [("Z", complex(math.pi / 4), 2)]
        t = zx._tensor(ZXNode("Z", math.pi / 4), 2)
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0] = 0.0
        # the cache is bounded, and a wide tensor is built for each call
        assert zx._cached_tensor.cache_info().maxsize == 64
        wide = zx._tensor(ZXNode("Z"), zx._CACHED_LEGS + 1)
        assert zx._tensor(ZXNode("Z"), zx._CACHED_LEGS + 1) is not wide
        assert len(built) == 3

    def test_too_many_open_legs_rejected_before_contracting(self, monkeypatch):
        # 13 bare wires: 26 open legs, so the 2^13 x 2^13 result would take
        # 1 GiB.
        def contraction_started(_):
            raise AssertionError("contraction started")

        monkeypatch.setattr(zx, "_canonical_order", contraction_started)
        with pytest.raises(ValueError, match="too large for brute force"):
            evaluate(circuit_to_zx(Circuit(13)))

    def test_rewritten_diagram_is_contracted_afresh(self, monkeypatch):
        d = circuit_to_zx(Circuit(1, (Gate("h", (0,)), Gate("h", (0,)))))
        before = evaluate(d)
        started = count_contractions(monkeypatch)
        new = apply_rule(d, "HH", match_rule(d, "HH")[0])
        after = evaluate(new)
        assert started == [new]
        assert np.abs(after - np.eye(2)).max() < 1e-12
        assert np.abs(before - np.eye(2)).max() < 1e-12

    def test_permutations_do_not_change_bits(self, rng):
        for _ in range(20):
            c = random_circuit(rng)
            d = circuit_to_zx(c)
            ids = list(d.nodes)
            shuffled = rng.permutation(np.arange(50, 50 + len(ids))).tolist()
            mapping = dict(zip(ids, (int(x) for x in shuffled)))
            d2 = ZXDiagram(
                {mapping[k]: v for k, v in d.nodes.items()},
                tuple((mapping[a], mapping[b]) for a, b in d.edges),
                tuple(mapping[i] for i in d.inputs),
                tuple(mapping[o] for o in d.outputs),
            )
            e1, e2 = evaluate(d), evaluate(d2)
            assert np.array_equal(e1, e2)


class TestTranslation:
    def test_empty_wire_connects_boundaries(self):
        d = wire_diagram()
        assert len(d.nodes) == 2
        assert d.edges == ((0, 1),)

    def test_faithful_on_random_circuits(self, rng):
        for _ in range(50):
            c = random_circuit(rng)
            d = circuit_to_zx(c)
            assert proportionality(evaluate(d), circuit_unitary(c)) is not None

    def test_untranslatable_gate_rejected(self):
        with pytest.raises(ValueError, match="no diagram translation"):
            circuit_to_zx(Circuit(2, (Gate("swap", (0, 1)),)))
        with pytest.raises(ValueError, match="no diagram translation"):
            circuit_to_zx(Circuit(1, (Gate("u3", (0,), (0.1, 0.2, 0.3)),)))


class TestMatchRule:
    def test_empty_diagram_no_matches(self):
        d = wire_diagram()
        for rule in ("S1", "S2", "HH", "B2"):
            assert match_rule(d, rule) == []

    def test_adjacent_same_colour_spiders_fuse(self):
        d = circuit_to_zx(Circuit(1, (Gate("s", (0,)), Gate("t", (0,)))))
        assert len(match_rule(d, "S1")) == 1

    def test_cnot_pair_has_no_fusion(self):
        d = circuit_to_zx(Circuit(2, (Gate("cx", (0, 1)),)))
        assert match_rule(d, "S1") == []

    def test_order_deterministic(self):
        d = circuit_to_zx(Circuit(1, (Gate("z", (0,)), Gate("z", (0,)), Gate("z", (0,)))))
        locs = match_rule(d, "S1")
        assert locs == sorted(locs)
        assert len(locs) == 2

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown rule"):
            match_rule(wire_diagram(), "S9")


class TestApplyRule:
    def test_s1_adds_phases(self):
        d = circuit_to_zx(Circuit(1, (Gate("s", (0,)), Gate("t", (0,)))))
        loc = match_rule(d, "S1")[0]
        d2, step = apply_rule_checked(d, "S1", loc)
        spiders = [n for n in d2.nodes.values() if n.kind == "Z"]
        assert len(spiders) == 1
        assert abs(spiders[0].phase - 3 * math.pi / 4) < 1e-12
        assert abs(step.scalar_check - 1) < 1e-9

    def test_s2_removes_identity_spider(self):
        # unfusing with zero phase plants a removable degree-2 spider
        d = circuit_to_zx(Circuit(1, (Gate("t", (0,)),)))
        spider = next(n for n, nd in d.nodes.items() if nd.kind == "Z")
        out = d.outputs[0]
        d2 = apply_rule(d, "S1", ("unfuse", spider, (out,), (0.0, 0.0)))
        locs = match_rule(d2, "S2")
        assert len(locs) == 1
        d3, step = apply_rule_checked(d2, "S2", locs[0])
        assert len(d3.nodes) == len(d.nodes)
        assert abs(step.scalar_check - 1) < 1e-9

    def test_hh_cancels_to_wire(self):
        d = circuit_to_zx(Circuit(1, (Gate("h", (0,)), Gate("h", (0,)))))
        loc = match_rule(d, "HH")[0]
        d2, step = apply_rule_checked(d, "HH", loc)
        assert np.abs(evaluate(d2) - np.eye(2)).max() < 1e-12
        assert abs(step.scalar_check - 1) < 1e-9

    def test_colour_change_preserves_semantics(self):
        d = circuit_to_zx(Circuit(1, (Gate("x", (0,)),)))
        spider = next(n for n, nd in d.nodes.items() if nd.kind == "X")
        d2, step = apply_rule_checked(d, "C", (spider,))
        assert d2.nodes[spider].kind == "Z"
        assert len(d2.h_boxes()) == 2
        assert abs(step.scalar_check - 1) < 1e-9

    def test_b2_square_collapses(self):
        nodes = {
            0: ZXNode("in"), 1: ZXNode("in"), 2: ZXNode("out"), 3: ZXNode("out"),
            4: ZXNode("Z"), 5: ZXNode("Z"), 6: ZXNode("X"), 7: ZXNode("X"),
        }
        edges = ((0, 4), (1, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 2), (7, 3))
        d = ZXDiagram(nodes, edges, (0, 1), (2, 3))
        loc = match_rule(d, "B2")[0]
        assert loc == (4, 5, 6, 7)
        d2, step = apply_rule_checked(d, "B2", loc)
        assert len([n for n in d2.nodes.values() if n.kind in ("Z", "X")]) == 2
        assert abs(step.scalar_check - math.sqrt(2)) < 1e-9

    def test_unfuse_splits_phases(self):
        d = spider_map(1, 2, "Z", 0.9)
        spider = 0
        out = d.outputs[0]
        d2, step = apply_rule_checked(d, "S1", ("unfuse", spider, (out,), (0.4, 0.0)))
        phases = sorted(n.phase.real for n in d2.nodes.values() if n.kind == "Z")
        assert phases == pytest.approx([0.4, 0.5])
        assert abs(step.scalar_check - 1) < 1e-9

    @pytest.mark.parametrize("phase, want", [
        (-1e-17, 0.0), (-0.0, 0.0), (2 * math.pi, 0.0), (-2 * math.pi, 0.0),
        (7.0, 7.0 - 2 * math.pi), (-7.0, 2 * math.pi - (7.0 - 2 * math.pi)),
        (1e300, math.fmod(1e300, 2 * math.pi)),
    ])
    def test_normalised_phase_is_in_0_to_2pi_without_negative_zero(self, phase, want):
        got = zx._norm_phase(complex(phase, 0.5)).real
        assert 0.0 <= got < 2 * math.pi
        assert math.copysign(1.0, got) == 1.0
        assert got == pytest.approx(want, abs=1e-15)

    def test_unfusing_a_tiny_phase_leaves_zero_not_2pi(self):
        d = apply_rule(spider_map(1, 1, "Z"), "S1", ("unfuse", 0, (), (1e-17, 0.0)))
        assert d.nodes[0].phase == 0.0
        assert all(node.phase.real < 2 * math.pi for node in d.nodes.values())

    def test_negative_zero_phase_from_json_is_written_as_zero(self):
        doc = diagram_to_json_dict(spider_map(1, 1, "Z"))
        doc["nodes"][0]["phase"] = -0.0
        d = apply_rule(diagram_from_json_dict(doc), "S1", ("unfuse", 0, (), (0.0, 0.0)))
        phases = [node["phase"] for node in diagram_to_json_dict(d)["nodes"]]
        assert [math.copysign(1.0, p) for p in phases] == [1.0] * len(phases)

    def test_narrow_rewrite_on_wide_diagram_verifies(self):
        # Only the region a rewrite changed is contracted: the two H boxes in
        # front of a ladder that evaluate refuses as a whole.
        c = Circuit(12, (Gate("h", (0,)), Gate("h", (0,))) + cx_ladder(12).gates)
        d = circuit_to_zx(c)
        _, step = apply_rule_checked(d, "HH", match_rule(d, "HH")[0])
        assert abs(step.scalar_check - 1) < 1e-12
        with pytest.raises(ValueError, match="too large for brute force"):
            evaluate(d)

    def test_over_budget_region_raises_before_building_arrays(self, monkeypatch):
        # No step records a scalar that was not measured by contraction:
        # fusing two Z spiders with 13 outputs each changes a region with 26
        # open legs.
        nodes = {0: ZXNode("Z"), 1: ZXNode("Z"), **{n: ZXNode("out") for n in range(2, 28)}}
        edges = ((0, 1), *((n % 2, n) for n in range(2, 28)))
        d = ZXDiagram(nodes, edges, (), tuple(range(2, 28)))

        def tensor_built(*_):
            raise AssertionError("tensor built")

        monkeypatch.setattr(zx, "_tensor", tensor_built)
        with pytest.raises(ValueError, match=r"too large for brute force \(26 open legs;"):
            apply_rule_checked(d, "S1", (0, 1))

    def test_pattern_mismatch_raises(self):
        d = circuit_to_zx(Circuit(2, (Gate("cx", (0, 1)),)))
        z = next(n for n, nd in d.nodes.items() if nd.kind == "Z")
        x = next(n for n, nd in d.nodes.items() if nd.kind == "X")
        with pytest.raises(RuleApplicationError, match="pattern mismatch"):
            apply_rule(d, "S1", (z, x))
        with pytest.raises(RuleApplicationError, match="pattern mismatch"):
            apply_rule(d, "S2", (z,))
        with pytest.raises(RuleApplicationError, match="pattern mismatch"):
            apply_rule(d, "HH", (z, x))

    def test_replayed_missing_node_is_a_pattern_mismatch(self):
        d = circuit_to_zx(Circuit(2, (Gate("cx", (0, 1)),)))
        z = next(n for n, nd in d.nodes.items() if nd.kind == "Z")
        x = next(n for n, nd in d.nodes.items() if nd.kind == "X")
        out = next(n for n in d.neighbors(z) if n in d.outputs)
        locations = [
            ("HH", (98, 99)), ("S2", (99,)), ("S1", (z, 99)), ("C", (99,)),
            ("B2", (z, 99, x, 98)), ("S1", ("unfuse", 99, (), (0.0, 0.0))),
            ("S1", ("unfuse", z, (99,), (0.0, 0.0))),
            # malformed shapes, as a hand-edited trace may carry them
            ("S1", ("unfuse", z, (out, out), (0.0, 0.0))), ("HH", (1,)), ("C", ()),
            ("S2", (z, x)), ("B2", (z, x)), ("S1", ("unfuse", z)),
            ("S1", ("unfuse", z, (out,), (0.0,))), ("S1", ("unfuse", z, out, (0.0, 0.0))),
            ("S1", ("unfuse", z, (out,), ("0", 0.0))),
            ("S1", ("unfuse", z, (out,), (math.inf, 0.0))), ("C", ({},)),
        ]
        for rule, location in locations:
            with pytest.raises(RuleApplicationError, match="pattern mismatch"):
                replay_trace(d, [RewriteStep(rule, location, 1.0)])


def planted_b2_diagram(rng) -> ZXDiagram:
    nodes = {
        0: ZXNode("in"), 1: ZXNode("in"), 2: ZXNode("out"), 3: ZXNode("out"),
        4: ZXNode("Z"), 5: ZXNode("Z"), 6: ZXNode("X"), 7: ZXNode("X"),
    }
    edges = [(0, 4), (1, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 2), (7, 3)]
    nid = 8
    # dress a random boundary with an extra spider
    if rng.integers(2):
        nodes[nid] = ZXNode("Z", float(rng.uniform(0, 2 * math.pi)))
        edges.remove((0, 4))
        edges.extend([(0, nid), (nid, 4)])
        nid += 1
    return ZXDiagram(nodes, tuple(edges), (0, 1), (2, 3))


def test_soundness_of_200_random_rewrites(rng):
    applied = 0
    trials = 0
    while applied < 200 and trials < 2000:
        trials += 1
        mode = applied % 5
        if mode == 3:
            d = planted_b2_diagram(rng)
            locs = match_rule(d, "B2")
            rule = "B2"
        elif mode == 4:
            d = circuit_to_zx(random_circuit(rng))
            spiders = d.spiders()
            if not spiders:
                continue
            nid = spiders[int(rng.integers(len(spiders)))]
            neigh = d.neighbors(nid)
            take = neigh[int(rng.integers(len(neigh)))]
            d = apply_rule(d, "S1", ("unfuse", nid, (take,), (0.0, 0.0)))
            locs = match_rule(d, "S2")
            rule = "S2"
        else:
            d = circuit_to_zx(random_circuit(rng))
            rule = ("S1", "HH", "C")[mode]
            locs = match_rule(d, rule)
        if not locs:
            continue
        loc = locs[int(rng.integers(len(locs)))]
        # apply_rule_checked raises if the rewrite breaks proportionality
        _, step = apply_rule_checked(d, rule, loc)
        assert step.scalar_check != 0
        applied += 1
    assert applied == 200


class TestSimplify:
    def test_minimal_wire_unchanged(self):
        d = wire_diagram()
        out, steps = simplify(d)
        assert steps == []
        assert out.edges == d.edges

    def test_h_h_wire_single_step(self):
        d = circuit_to_zx(Circuit(1, (Gate("h", (0,)), Gate("h", (0,)))))
        out, steps = simplify(d)
        assert [s.rule for s in steps] == ["HH"]
        assert np.abs(evaluate(out) - np.eye(2)).max() < 1e-12

    def test_derivation_diagram_simplifies_proportionally(self):
        d = zx.derivation_diagram()
        out, steps = simplify(d)
        assert len(out.nodes) < len(d.nodes)
        assert proportionality(evaluate(out), evaluate(d)) is not None

    def test_full_recovery_circuit_simplifies_proportionally(self):
        decoder = (Gate("cx", (1, 2)), Gate("h", (1,)), Gate("cx", (1, 2)))
        full = zx.derivation_circuit().extended(decoder)
        d = circuit_to_zx(full)
        out, steps = simplify(d)
        assert steps
        assert len(out.nodes) < len(d.nodes)
        assert proportionality(evaluate(out), evaluate(d)) is not None

    def test_termination_bound(self, rng):
        for _ in range(10):
            d = circuit_to_zx(random_circuit(rng, max_gates=6))
            internal = len([n for n in d.nodes.values() if n.kind not in ("in", "out")])
            h_count = len(d.h_boxes())
            _, steps = simplify(d)
            assert len(steps) <= internal + h_count + 2 * h_count

    def test_random_circuits_stay_proportional(self, rng):
        for _ in range(15):
            d = circuit_to_zx(random_circuit(rng))
            out, _ = simplify(d)
            assert proportionality(evaluate(out), evaluate(d)) is not None

    def test_planted_bialgebra_squares_stay_proportional(self, rng):
        for _ in range(10):
            d = planted_b2_diagram(rng)
            out, steps = simplify(d)
            assert steps
            assert proportionality(evaluate(out), evaluate(d)) is not None


EXPECTED_FINAL_INTERNAL = {
    "A": ("X", zx.SPLIT_PHASE),
    "B": ("X", -zx.SPLIT_PHASE),
    "C": ("Z", 0j),
    "D": ("Z", 0j),
    "E": ("Z", 0j),
    "H": ("H", 0j),
}
EXPECTED_FINAL_EDGES = [
    ("A", "B"), ("B", "in0"), ("B", "D"), ("A", "C"), ("A", "out2"),
    ("C", "H"), ("C", "out1"), ("D", "H"), ("D", "E"), ("E", "out0"),
]


def _phases_equal(a: complex, b: complex) -> bool:
    return abs(np.exp(1j * a) - np.exp(1j * b)) < 1e-9


def final_diagram_isomorphic(d: ZXDiagram) -> bool:
    internal = [n for n in d.nodes if d.nodes[n].kind not in ("in", "out")]
    if len(internal) != len(EXPECTED_FINAL_INTERNAL):
        return False
    anchors = {"in0": d.inputs[0], "out0": d.outputs[0],
               "out1": d.outputs[1], "out2": d.outputs[2]}
    names = list(EXPECTED_FINAL_INTERNAL)
    for perm in itertools.permutations(internal):
        mapping = dict(zip(names, perm))
        mapping.update(anchors)
        if any(
            d.nodes[mapping[name]].kind != kind
            or (kind != "H" and not _phases_equal(d.nodes[mapping[name]].phase, phase))
            for name, (kind, phase) in EXPECTED_FINAL_INTERNAL.items()
        ):
            continue
        expected = sorted(
            tuple(sorted((mapping[a], mapping[b]))) for a, b in EXPECTED_FINAL_EDGES
        )
        if expected == sorted(tuple(sorted(e)) for e in d.edges):
            return True
    return False


def relabelled(d: ZXDiagram) -> tuple:
    """d with its node ids replaced by their ranks, as a hashable value."""
    ids = sorted(d.nodes)
    rank = {n: r for r, n in enumerate(ids)}
    return (tuple((d.nodes[n].kind, repr(complex(d.nodes[n].phase))) for n in ids),
            tuple((rank[a], rank[b]) for a, b in d.edges),
            tuple(map(rank.__getitem__, d.inputs)), tuple(map(rank.__getitem__, d.outputs)))


class TestLineageTable:
    """Rewrites of one lineage share verified region contractions."""

    @staticmethod
    def h_wire(boxes: int) -> ZXDiagram:
        return circuit_to_zx(Circuit(1, (Gate("h", (0,)),) * boxes))

    def test_a_repeated_region_pair_is_contracted_once_per_lineage(self, monkeypatch):
        # HH on the first pair of four H boxes, then on the second pair: the
        # same region up to an order-preserving relabelling.
        started = count_contractions(monkeypatch)
        d = self.h_wire(4)
        d, first = apply_rule_checked(d, "HH", match_rule(d, "HH")[0])
        assert len(started) == 2
        d, second = apply_rule_checked(d, "HH", match_rule(d, "HH")[0])
        assert len(started) == 2
        assert second.scalar_check == first.scalar_check

    def test_separately_built_copies_share_no_table(self, monkeypatch):
        started = count_contractions(monkeypatch)
        for d in (self.h_wire(2), self.h_wire(2)):
            apply_rule_checked(d, "HH", match_rule(d, "HH")[0])
        assert len(started) == 4

    def test_phases_equal_to_nine_digits_are_separate_entries(self):
        # Two identity spiders whose phases print alike to 9 digits but
        # differ in bits: removing each scales by (1 + e^{-ip})/2, so the
        # two scalars differ, and each is its own region's contraction.
        phases = (1e-10, 1.0000000001e-10)
        assert phases[0] != phases[1] and f"{phases[0]:.9e}" == f"{phases[1]:.9e}"
        d = ZXDiagram({0: ZXNode("in"), 1: ZXNode("in"), 2: ZXNode("Z", phases[0]),
                       3: ZXNode("Z", phases[1]), 4: ZXNode("out"), 5: ZXNode("out")},
                      ((0, 2), (2, 4), (1, 3), (3, 5)), (0, 1), (4, 5))
        scalars = []
        for nid in (2, 3):
            new, step = apply_rule_checked(d, "S2", (nid,))
            before, after = zx._local_sides(d, new)
            fresh = proportionality(evaluate(after), evaluate(before))
            assert (step.scalar_check.real.hex(), step.scalar_check.imag.hex()) == (
                fresh.real.hex(), fresh.imag.hex())
            scalars.append(step.scalar_check)
            d = new
        assert scalars[0] != scalars[1]

    @pytest.mark.parametrize("legs, kept", [(4, 2), (5, 0)])
    def test_matrices_are_kept_for_sides_of_at_most_8_legs(self, legs, kept):
        # Fusing two Z spiders with `legs` outputs each: both sides of the
        # region have 2 * legs open legs.
        outs = range(2, 2 + 2 * legs)
        d = ZXDiagram({0: ZXNode("Z"), 1: ZXNode("Z"), **{n: ZXNode("out") for n in outs}},
                      ((0, 1), *((n % 2, n) for n in outs)), (), tuple(outs))
        new, step = apply_rule_checked(d, "S1", (0, 1))
        matrices = [v for v in d._verified.values() if isinstance(v, np.ndarray)]
        scalars = [v for v in d._verified.values() if not isinstance(v, np.ndarray)]
        assert new._verified is d._verified
        assert (len(matrices), scalars) == (kept, [step.scalar_check])


class TestScriptedDerivation:
    def test_initial_diagram_matches_bleaching_map(self):
        d = zx.derivation_diagram()
        from nohidelab.nohiding import build_randomizer

        prep = qmath.kron(np.eye(2), qmath.kron(qmath.HADAMARD, qmath.HADAMARD))
        target = (build_randomizer("eq1").matrix @ prep)[:, [0, 4]]
        assert proportionality(evaluate(d), target) is not None

    def test_seven_stages_all_verified(self):
        result = run_scripted_derivation()
        assert result.stage_labels == zx.DERIVATION_STAGES
        assert len(result.stage_labels) == 7
        assert len(result.stage_spans) == 7
        assert result.stage_spans[0][0] == 0
        assert result.stage_spans[-1][1] == len(result.steps)
        for step in result.steps:
            assert step.scalar_check != 0
            assert abs(step.scalar_check) > 1e-9

    def test_chain_preserves_semantics(self):
        result = run_scripted_derivation()
        s = proportionality(evaluate(result.final), evaluate(result.initial))
        assert s is not None and abs(s) > 0

    def test_final_diagram_structure(self):
        result = run_scripted_derivation()
        assert final_diagram_isomorphic(result.final)
        zx.check_final_information_flow(result.final)

    def test_input_component_reaches_ancilla_outputs(self):
        result = run_scripted_derivation()
        d = result.final
        carrier = d.neighbors(d.inputs[0])[0]
        assert d.nodes[carrier].kind == "X"
        assert not np.isclose(np.exp(1j * d.nodes[carrier].phase), 1.0)

    def test_only_initial_and_final_are_contracted_whole(self, monkeypatch):
        # Two whole diagrams in the derivation (initial against the target,
        # final against initial); every other contraction is one side of the
        # region a step changed. The 14 steps and the 9 of simplify, which
        # continues the derivation's lineage from its initial diagram, cut
        # 46 region sides, only 17 of them distinct: each is contracted once
        # in the lineage, and each of the 12 distinct region pairs is
        # compared once.
        started = count_contractions(monkeypatch)
        compared, rewrites = [], []
        local_scalar = zx._local_scalar

        def recorded(d, new):
            rewrites.append((d, new))
            return local_scalar(d, new)

        monkeypatch.setattr(zx, "_local_scalar", recorded)
        monkeypatch.setattr(zx, "proportionality",
                            lambda a, b: compared.append(a) or proportionality(a, b))
        result = run_scripted_derivation()
        simplify(result.initial)
        assert (len(started), len(compared), len(rewrites)) == (19, 14, 23)
        whole = [d for d in started if d is result.initial or d is result.final]
        local = [d for d in started if d is not result.initial and d is not result.final]
        assert len(whole) == 2
        cuts = [cut for d, new in rewrites for cut in zx._local_sides(d, new)]
        assert all(any(d == cut for cut in cuts) for d in local)
        assert len({relabelled(cut) for cut in cuts}) == len({relabelled(d) for d in local}) == 17
        assert max(len(d.inputs) + len(d.outputs) for d in local) == 4

    def test_steps_helper_returns_flat_list(self):
        steps = run_scripted_derivation().steps
        assert len(steps) == 14
        assert {s.rule for s in steps} <= {"S1", "S2", "C", "HH"}


class TestSerialization:
    def test_diagram_round_trip(self, rng):
        d = circuit_to_zx(random_circuit(rng))
        again = diagram_from_json_dict(diagram_to_json_dict(d))
        assert again.nodes == d.nodes
        assert again.edges == d.edges
        assert again.inputs == d.inputs
        assert again.outputs == d.outputs

    def test_complex_phase_round_trip(self):
        result = run_scripted_derivation()
        again = diagram_from_json_dict(diagram_to_json_dict(result.final))
        assert again.nodes == result.final.nodes

    def test_trace_replay_reproduces_final_diagram(self):
        result = run_scripted_derivation()
        steps = steps_from_json_list(steps_to_json_list(result.steps))
        replayed = replay_trace(result.initial, steps)
        assert replayed.nodes == result.final.nodes
        assert replayed.edges == result.final.edges

    @pytest.mark.parametrize("item, message", [
        ({"rule": "S1", "location": 5, "scalar_re": 1.0, "scalar_im": 0.0},
         "step 0: field 'location' must be a list"),
        ({"rule": "S1", "location": [1, 2], "scalar_im": 0.0},
         "step 0: field 'scalar_re' is missing"),
        ({"rule": "S9", "location": [1, 2], "scalar_re": 1.0, "scalar_im": 0.0},
         "step 0: field 'rule' must be one of"),
        ({"rule": "S2", "location": [1], "scalar_re": "1", "scalar_im": 0.0},
         "step 0: field 'scalar_re' must be a finite real number"),
        ({"rule": "S2", "location": [1], "scalar_re": 0.0, "scalar_im": 0.0},
         "step 0: rewrite scalar must be nonzero"),
        (["S2", [1], 1.0, 0.0], "step 0: expected an object"),
        # JSON true is a bool, which Python counts as the int 1.
        ({"rule": "HH", "location": [True, 2], "scalar_re": 1.0, "scalar_im": 0.0},
         "step 0: field 'location' must be a list without booleans"),
        ({"rule": "S1", "location": ["unfuse", 3, [2], [0.5, False]], "scalar_re": 1.0,
          "scalar_im": 0.0}, "step 0: field 'location' must be a list without booleans"),
        ({"rule": "S2", "location": [1], "scalar_re": True, "scalar_im": 0.0},
         "step 0: field 'scalar_re' must be a finite real number"),
    ])
    def test_malformed_step_names_index_and_field(self, item, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            steps_from_json_list([item])

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: obj["nodes"][2].update(phase=[1.0]), "node 2: field 'phase' must be"),
        (lambda obj: obj["nodes"][1].update(phase="0"), "node 1: field 'phase' must be"),
        (lambda obj: obj["nodes"][0].pop("kind"), "node 0: field 'kind' is missing"),
        (lambda obj: obj["nodes"][3].update(id="3"), "node 3: field 'id' must be an integer"),
        (lambda obj: obj["nodes"].append(dict(obj["nodes"][0])), "duplicate id"),
        (lambda obj: obj["edges"].append([0]), "edge 5 must be [id, id]"),
        (lambda obj: obj.update(inputs=[0, "1"]), "field 'inputs' must be a list of node ids"),
        (lambda obj: obj["outputs"].append(99), "output 99 is not an 'out' node"),
        (lambda obj: obj.pop("edges"), "field 'edges' is missing"),
        # JSON true and false are bools, which Python counts as the ints 1 and 0.
        (lambda obj: obj["nodes"][2].update(id=True), "node 2: field 'id' must be an integer"),
        (lambda obj: obj["nodes"][0].update(phase=True), "node 0: field 'phase' must be"),
        (lambda obj: obj["edges"].append([0, True]), "edge 5 must be [id, id], got [0, True]"),
        (lambda obj: obj.update(inputs=[0, True]),
         "field 'inputs' must be a list of node ids, got [0, True]"),
        (lambda obj: obj.update(outputs=[False, 1]),
         "field 'outputs' must be a list of node ids"),
    ])
    def test_malformed_diagram_names_node_and_field(self, edit, message):
        obj = diagram_to_json_dict(circuit_to_zx(Circuit(2, (Gate("cx", (0, 1)),))))
        edit(obj)
        with pytest.raises(ValueError, match=re.escape(message)):
            diagram_from_json_dict(obj)

    def test_step_serialization_schema(self):
        result = run_scripted_derivation()
        items = steps_to_json_list(result.steps)
        for item in items:
            assert set(item) == {"rule", "location", "scalar_re", "scalar_im"}

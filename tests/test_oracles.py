"""Property tests of the numpy kernels, against the kernels they replaced where kept."""
import itertools
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nohidelab.circuits import (
    GATE_ARITY,
    Circuit,
    Gate,
    depolarizing_channel,
    gate_matrix,
    run_density,
)
from nohidelab.qmath import (
    DensityMatrix,
    distances_to_mixed,
    fidelity,
    fidelity_to_pure,
    hermitian_eig,
    partial_trace,
    partial_trace_matrix,
    trace_distance,
)
from nohidelab.zx import (
    RULES,
    TRANSLATABLE_GATES,
    RuleApplicationError,
    ZXDiagram,
    ZXNode,
    _canonical_order,
    _local_scalar,
    _local_sides,
    apply_rule,
    apply_rule_checked,
    circuit_to_zx,
    evaluate,
    match_rule,
    plug_state,
)

from conftest import maximally_mixed, random_density, random_state
from oracles import (
    embed_matrix,
    run_density_dense,
    string_canonical_order,
    tensordot_evaluate,
    two_eigensolve_fidelity,
    whole_diagram_scalar,
    whole_scalar,
)
from test_zx import planted_b2_diagram

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

_unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _complex_matrices(dim: int):
    return st.tuples(arrays(float, (dim, dim), elements=_unit),
                     arrays(float, (dim, dim), elements=_unit)).map(lambda ab: ab[0] + 1j * ab[1])


@st.composite
def hermitian_matrices(draw):
    m = draw(_complex_matrices(draw(st.integers(1, 16))))
    return (m + m.conj().T) / 2


@st.composite
def embedded_operators(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(3, n)))
    targets = tuple(draw(st.permutations(range(n)))[:k])
    # Q of a QR factorization is unitary for any input, singular ones too.
    u, _ = np.linalg.qr(draw(_complex_matrices(2 ** k)))
    return n, targets, u


@st.composite
def noisy_circuits(draw):
    n = draw(st.integers(1, 3))
    kinds = [kind for kind, arity in GATE_ARITY.items() if arity <= n]
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        targets = tuple(draw(st.permutations(range(n)))[:GATE_ARITY[kind]])
        params = draw(st.tuples(*[st.floats(-7.0, 7.0)] * 3)) if kind == "u3" else ()
        gates.append(Gate(kind, targets, params))
    channels = [
        (depolarizing_channel(draw(st.floats(0.0, 1.0))),
         [draw(st.integers(0, n - 1))],
         draw(st.integers(0, len(gates))))
        for _ in range(draw(st.integers(0, 4)))
    ]
    return Circuit(n, tuple(gates)), channels, draw(st.integers(0, 2 ** 32 - 1))


_phases = st.builds(complex, st.floats(-7.0, 7.0), st.floats(-1.0, 1.0))


@st.composite
def plugged_diagrams(draw):
    n = draw(st.integers(1, 3))
    kinds = [kind for kind in TRANSLATABLE_GATES if kind != "cx" or n >= 2]
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        targets = tuple(draw(st.permutations(range(n)))[:2 if kind == "cx" else 1])
        gates.append(Gate(kind, targets))
    d = circuit_to_zx(Circuit(n, tuple(gates)))
    for _ in range(draw(st.integers(0, n))):
        position = draw(st.integers(0, len(d.inputs) - 1))
        d = plug_state(d, position, draw(st.sampled_from(["X", "Z"])), draw(_phases))
    if draw(st.booleans()):
        # a spider with no legs: a scalar factor
        nodes = {**d.nodes, max(d.nodes) + 1: ZXNode(draw(st.sampled_from(["X", "Z"])),
                                                      draw(_phases))}
        d = ZXDiagram(nodes, d.edges, d.inputs, d.outputs)
    return d


@PROPERTY
@given(hermitian_matrices())
def test_eigenvalues_match_jacobi_oracle(m):
    w, v = hermitian_eig(m)
    assert all(w[i] >= w[i + 1] for i in range(len(w) - 1))
    assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() < 1e-12
    assert np.abs(v.conj().T @ v - np.eye(len(w))).max() < 1e-12


@st.composite
def density_pairs(draw):
    # Low ranks exercise the SQRT_FLOOR clamp on near-zero eigenvalues.
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def density(rank):
        f = rng.normal(size=(2 ** n, rank)) + 1j * rng.normal(size=(2 ** n, rank))
        rho = f @ f.conj().T
        return DensityMatrix(n, rho / np.trace(rho))

    return density(draw(st.integers(1, 2 ** n))), density(draw(st.integers(1, 2 ** n)))


@PROPERTY
@given(density_pairs())
def test_fidelity_matches_two_eigensolve_oracle_bitwise(pair):
    a, b = pair
    assert fidelity(a, b) == two_eigensolve_fidelity(a, b)
    assert fidelity(b, a) == two_eigensolve_fidelity(b, a)


# The shortcuts for pure states and for distances to I/d are checked against
# the general density-matrix path, which stays their oracle.


@st.composite
def states_and_keeps(draw):
    n = draw(st.integers(1, 5))
    keep = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    return random_state(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), n), keep


@PROPERTY
@given(states_and_keeps())
def test_pure_partial_trace_matches_density_path(case):
    psi, keep = case
    a = psi.amplitudes
    want = partial_trace_matrix(np.outer(a, a.conj()), psi.num_qubits, keep)
    assert np.abs(partial_trace(psi, keep).matrix - want).max() <= 1e-12


@st.composite
def low_rank_densities(draw, max_qubits):
    n = draw(st.integers(1, max_qubits))
    rank = draw(st.integers(1, 2 ** n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = rng.normal(size=(2 ** n, rank)) + 1j * rng.normal(size=(2 ** n, rank))
    rho = f @ f.conj().T
    return DensityMatrix(n, rho / np.trace(rho))


@PROPERTY
@given(low_rank_densities(2))
def test_distances_to_mixed_match_general_metrics(rho):
    mixed = maximally_mixed(rho.num_qubits)
    t, f = distances_to_mixed(rho)
    assert abs(t - trace_distance(rho, mixed)) <= 1e-12
    assert abs(f - fidelity(rho, mixed)) <= 1e-12


@PROPERTY
@given(low_rank_densities(3), st.integers(0, 2 ** 32 - 1))
def test_fidelity_to_pure_matches_uhlmann_fidelity(rho, seed):
    psi = random_state(np.random.default_rng(seed), rho.num_qubits)
    assert abs(fidelity_to_pure(rho, psi) - fidelity(rho, psi.to_density())) <= 1e-9


@PROPERTY
@given(embedded_operators())
def test_gate_matrix_matches_oracle_embed(case):
    n, targets, u = case
    got = gate_matrix(Gate("unitary", targets, matrix=u), n)
    assert np.abs(got - embed_matrix(u, targets, n)).max() < 1e-12


@PROPERTY
@given(noisy_circuits())
def test_run_density_matches_dense_oracle(case):
    circuit, channels, seed = case
    rho = random_density(np.random.default_rng(seed), circuit.num_qubits)
    got = run_density(circuit, channels, rho).matrix
    assert np.abs(got - run_density_dense(circuit, channels, rho.matrix)).max() < 1e-12


@PROPERTY
@given(plugged_diagrams())
def test_evaluate_matches_tensordot_oracle(d):
    got = evaluate(d)
    want = tensordot_evaluate(d)
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-12


@st.composite
def recoloured_diagrams(draw):
    # A colour change puts an H box on every leg of a spider; only the
    # refinement tells those H boxes apart.
    d = draw(plugged_diagrams())
    for nid in d.spiders():
        if draw(st.booleans()):
            d = apply_rule(d, "C", (nid,))
    return d


@PROPERTY
@given(recoloured_diagrams())
def test_canonical_order_matches_string_oracle(d):
    # Integer ranks follow the order of the label strings they replace, so
    # both refinements find the same classes and the BFS visits alike.
    assert _canonical_order(d) == string_canonical_order(d)


@st.composite
def rewrite_sites(draw):
    # Recoloured circuits carry HH, S1 and C sites, and a zero-phase split of
    # a spider off one of its legs an S2 site; B2 needs a planted square.
    if draw(st.booleans()):
        return planted_b2_diagram(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    d = draw(recoloured_diagrams())
    if d.spiders() and draw(st.booleans()):
        nid = draw(st.sampled_from(d.spiders()))
        d = apply_rule(d, "S1", ("unfuse", nid, tuple(d.neighbors(nid)[:1]), (0.0, 0.0)))
    return d


def _refused(d, rule, location) -> bool:
    try:
        apply_rule(d, rule, location)
    except RuleApplicationError as exc:
        return "pattern mismatch" in str(exc)
    return False


@PROPERTY
@given(rewrite_sites())
def test_apply_rule_refuses_exactly_what_match_rule_omits(d):
    ids = sorted(d.nodes) + [max(d.nodes) + 1]
    for rule in ("HH", "S1"):
        matches = set(match_rule(d, rule))
        for a, b in itertools.product(ids, repeat=2):
            assert _refused(d, rule, (a, b)) == ((min(a, b), max(a, b)) not in matches)
    for rule in ("S2", "C"):
        matches = set(match_rule(d, rule))
        for nid in ids:
            assert _refused(d, rule, (nid,)) == ((nid,) not in matches)
    # B2 is checked at its matches, with the colours swapped and one corner replaced.
    matches = set(match_rule(d, "B2"))
    for z1, z2, x1, x2 in matches:
        apply_rule(d, "B2", (z1, z2, x1, x2))
        assert _refused(d, "B2", (x1, x2, z1, z2))
        for i, nid in itertools.product(range(4), ids):
            loc = [z1, z2, x1, x2]
            loc[i] = nid
            normal = tuple(sorted(loc[:2]) + sorted(loc[2:]))
            assert _refused(d, "B2", tuple(loc)) == (normal not in matches)


# Local verification: the scalar measured on the region a rewrite changed is
# the one measured on the whole diagram, which stays its oracle.


def _rewrites(d):
    """Every match of every rule, and a split of each spider off half its legs."""
    found = [(rule, loc) for rule in RULES for loc in match_rule(d, rule)]
    for nid in d.spiders():
        legs = list(dict.fromkeys(d.neighbors(nid)))
        found.append(("S1", ("unfuse", nid, tuple(legs[:len(legs) // 2]), (0.5, 0.25))))
    return found


def _applied(d, rule, loc):
    try:
        return apply_rule(d, rule, loc)
    except RuleApplicationError:  # a rewrite that would close a zero-scalar loop
        return None


@PROPERTY
@given(rewrite_sites())
def test_local_scalar_matches_whole_diagram_oracle(d):
    for rule, loc in _rewrites(d):
        new = _applied(d, rule, loc)
        if new is None:
            continue
        got, want = _local_scalar(d, new), whole_diagram_scalar(d, rule, loc)
        assert want is not None and got is not None
        assert abs(got - want) <= 1e-12


def _corrupt(new, data):
    """new with one spider's phase shifted off a multiple of 2 pi, or two
    output wires swapped: rewired at their neighbours, or reordered."""
    how = data.draw(st.sampled_from(["phase", "rewire", "reorder"]))
    if how == "phase":
        assume(new.spiders())
        nid = data.draw(st.sampled_from(new.spiders()))
        shift = data.draw(st.floats(0.1, 2 * math.pi - 0.1))
        node = new.nodes[nid]
        return ZXDiagram({**new.nodes, nid: ZXNode(node.kind, node.phase + shift)},
                         new.edges, new.inputs, new.outputs)
    assume(len(new.outputs) >= 2)
    i, j = data.draw(st.permutations(range(len(new.outputs))))[:2]
    o, p = new.outputs[i], new.outputs[j]
    if how == "reorder":
        outputs = list(new.outputs)
        outputs[i], outputs[j] = p, o
        return ZXDiagram(new.nodes, new.edges, new.inputs, tuple(outputs))
    swap = {o: p, p: o}
    edges = tuple((swap.get(a, a), swap.get(b, b)) for a, b in new.edges)
    return ZXDiagram(new.nodes, edges, new.inputs, new.outputs)


@PROPERTY
@given(rewrite_sites(), st.data())
def test_local_check_refuses_where_whole_diagram_check_refuses(d, data):
    rewrites = [(rule, loc) for rule, loc in _rewrites(d) if _applied(d, rule, loc)]
    assume(rewrites)
    rule, loc = data.draw(st.sampled_from(rewrites))
    bad = _corrupt(apply_rule(d, rule, loc), data)
    if whole_scalar(d, bad) is None:
        assert _local_scalar(d, bad) is None


def _check_locally(d, rule, loc):
    new, step = apply_rule_checked(d, rule, loc)
    assert abs(step.scalar_check - whole_diagram_scalar(d, rule, loc)) <= 1e-12
    return _local_sides(d, new)


def test_legless_spider_is_its_own_region():
    # a Z spider with no legs is the scalar 1 + e^{0.4i}, next to a bare wire
    d = ZXDiagram({0: ZXNode("in"), 1: ZXNode("out"), 2: ZXNode("Z", 0.4)},
                  ((0, 1),), (0,), (1,))
    for rule, loc in (("C", (2,)), ("S1", ("unfuse", 2, (), (0.1, 0.0)))):
        before, after = _check_locally(d, rule, loc)
        assert before.nodes == {2: ZXNode("Z", 0.4)}
        assert before.inputs == after.inputs == () and after.outputs == ()


def test_context_node_with_two_legs_joins_the_region():
    # Node 4 touches corner 5 (Z) and corner 1 (X) of a bialgebra square
    # whose X corners have the lower ids: one leg per corner on each side,
    # which a sort by node id could not pair, so node 4 is contracted too.
    nodes = {0: ZXNode("in"), 8: ZXNode("in"), 7: ZXNode("out"), 9: ZXNode("out"),
             1: ZXNode("X"), 2: ZXNode("X"), 5: ZXNode("Z"), 6: ZXNode("Z"),
             4: ZXNode("Z", 0.3)}
    edges = ((1, 5), (1, 6), (2, 5), (2, 6), (4, 5), (4, 1), (4, 0), (6, 8),
             (2, 7), (4, 9))
    d = ZXDiagram(nodes, edges, (0, 8), (7, 9))
    assert match_rule(d, "B2") == [(5, 6, 1, 2)]
    before, after = _check_locally(d, "B2", (5, 6, 1, 2))
    assert 4 in before.nodes and 4 in after.nodes


def test_identity_removal_leaves_a_wire_between_context_legs():
    # S2 replaces the zero-phase spider between the T spider and the output
    # by a direct edge, which the after side carries as a wire between two
    # open legs.
    d = circuit_to_zx(Circuit(1, (Gate("t", (0,)),)))
    z = d.spiders()[0]
    d = apply_rule(d, "S1", ("unfuse", z, (d.outputs[0],), (0.0, 0.0)))
    (loc,) = match_rule(d, "S2")
    before, after = _check_locally(d, "S2", loc)
    assert [before.nodes[n].kind for n in before.nodes] == ["Z", "out", "out"]
    assert set(after.nodes) == set(after.outputs) and len(after.edges) == 1

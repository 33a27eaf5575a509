"""Property tests of the numpy kernels: against independent numpy-only checks, and
against the kernels they replaced where those are kept (see oracles.py)."""
import cmath
import itertools
import math
import struct
import warnings
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nohidelab.circuits import Circuit, Gate, circuit_unitary, gate_matrix
from nohidelab.cli import SHOTS_MAX
from nohidelab.nohiding import DEFAULT_SWEEP_GRID, run_sweep
from nohidelab.qmath import (
    HADAMARD,
    PAULIS,
    SQRT_FLOOR,
    DensityMatrix,
    StateVector,
    distances_to_mixed,
    fidelity,
    fidelity_to_pure,
    hermitian_eig,
    partial_trace,
    partial_trace_matrix,
    proportionality,
    trace_distance,
)
from nohidelab.tomo import (
    born_probabilities,
    estimate_expectations,
    exact_expectations,
    project_physical,
    reconstruct,
    tomo_pipeline,
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
    counter_local_sides,
    linalg_norm_proportionality,
    per_point_sweep,
    string_canonical_order,
    whole_diagram_scalar,
    whole_scalar,
)
from test_zx import planted_b2_diagram

PROPERTY = settings(max_examples=100)

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


_phases = st.builds(complex, st.floats(-7.0, 7.0), st.floats(-1.0, 1.0))


@st.composite
def plugged_diagrams(draw):
    """(diagram, circuit, plugs): a random circuit's diagram with some inputs
    plugged by one-legged spiders, and maybe a legless spider added. Each plug
    is (input position when plugged, kind, phase), position None for the
    legless spider."""
    n = draw(st.integers(1, 3))
    kinds = [kind for kind in TRANSLATABLE_GATES if kind != "cx" or n >= 2]
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        targets = tuple(draw(st.permutations(range(n)))[:2 if kind == "cx" else 1])
        gates.append(Gate(kind, targets))
    circuit = Circuit(n, tuple(gates))
    d = circuit_to_zx(circuit)
    plugs = []
    for _ in range(draw(st.integers(0, n))):
        plug = (draw(st.integers(0, len(d.inputs) - 1)), draw(st.sampled_from(["X", "Z"])),
                draw(_phases))
        d = plug_state(d, *plug)
        plugs.append(plug)
    if draw(st.booleans()):
        plug = (None, draw(st.sampled_from(["X", "Z"])), draw(_phases))
        d = ZXDiagram({**d.nodes, max(d.nodes) + 1: ZXNode(*plug[1:])},
                      d.edges, d.inputs, d.outputs)
        plugs.append(plug)
    return d, circuit, plugs


@PROPERTY
@given(hermitian_matrices())
def test_eigh_sorts_descending_and_reconstructs_its_input(m):
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


def _psd_root(rho: DensityMatrix) -> np.ndarray:
    w, v = np.linalg.eigh(rho.matrix)
    return v @ np.diag(np.sqrt(np.where(w < SQRT_FLOOR, 0.0, w))) @ v.conj().T


@PROPERTY
@given(density_pairs())
def test_fidelity_is_the_nuclear_norm_of_the_root_product(pair):
    # F(a, b) = ||sqrt(a) sqrt(b)||_1, the sum of the product's singular values.
    a, b = pair
    want = np.linalg.svd(_psd_root(a) @ _psd_root(b), compute_uv=False).sum()
    assert abs(fidelity(a, b) - want) <= 1e-12
    assert abs(fidelity(b, a) - want) <= 1e-12


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
    [(t, f)] = distances_to_mixed([rho])
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
    # U = sum_P c_P P over the k-qubit Pauli strings, c_P = tr(P^dagger U) / 2^k;
    # each string embeds as an np.kron product with I on the other qubits.
    n, targets, u = case
    want = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for labels in itertools.product("IXYZ", repeat=len(targets)):
        coeff = np.trace(reduce(np.kron, [PAULIS[x] for x in labels]).conj().T @ u)
        factors = [np.eye(2)] * n
        for t, x in zip(targets, labels):
            factors[t] = PAULIS[x]
        want += coeff / 2 ** len(targets) * reduce(np.kron, factors)
    got = gate_matrix(Gate("unitary", targets, matrix=u), n)
    assert np.abs(got - want).max() < 1e-12


def _spider_state(kind: str, phase: complex) -> np.ndarray:
    """A one-legged spider: (1, e^{i phase}) for Z, H applied to it for X."""
    z = np.array([1.0, cmath.exp(1j * phase)])
    return HADAMARD @ z if kind == "X" else z


@PROPERTY
@given(plugged_diagrams())
def test_evaluate_matches_scaled_circuit_unitary(case):
    # circuit_to_zx writes Y as the chain X Z = -iY, and a CX as two
    # three-legged spiders, CX / sqrt(2). A plugged input contracts with its
    # spider's state; a legless spider is the scalar 1 + e^{i phase}.
    d, circuit, plugs = case
    kinds = [g.kind for g in circuit.gates]
    want = circuit_unitary(circuit) * (-1j) ** kinds.count("y") * 2 ** (-kinds.count("cx") / 2)
    columns = [np.eye(2)] * circuit.num_qubits
    open_inputs = list(range(circuit.num_qubits))
    for position, kind, phase in plugs:
        if position is None:
            want = want * (1 + cmath.exp(1j * phase))
        else:
            columns[open_inputs.pop(position)] = _spider_state(kind, phase)[:, None]
    want = want @ reduce(np.kron, columns)
    got = evaluate(d)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@st.composite
def recoloured_diagrams(draw):
    # A colour change puts an H box on every leg of a spider; only the
    # refinement tells those H boxes apart.
    d = draw(plugged_diagrams())[0]
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


def test_components_no_boundary_reaches_start_at_the_least_label():
    # Two legless spiders, their ids in the reverse of their label order
    # ("Z:1.0..." < "Z:5.0..."): each component the boundaries do not reach
    # starts at its least label, whatever the ids.
    d = ZXDiagram({0: ZXNode("in"), 1: ZXNode("out"), 2: ZXNode("Z", 0.5), 3: ZXNode("Z", 1.0)},
                  ((0, 1),), (0,), (1,))
    assert _canonical_order(d) == string_canonical_order(d) == [0, 1, 3, 2]


@PROPERTY
@given(recoloured_diagrams(), st.data())
def test_relabelled_node_ids_evaluate_bitwise(d, data):
    # The contraction order is a function of the graph alone, so new node
    # ids, in a new insertion order, give the same bits.
    ids = data.draw(st.lists(st.integers(0, 10 ** 6), min_size=len(d.nodes),
                             max_size=len(d.nodes), unique=True))
    relabel = dict(zip(d.nodes, ids))
    order = data.draw(st.permutations(list(d.nodes)))
    twin = ZXDiagram({relabel[n]: d.nodes[n] for n in order},
                     tuple((relabel[a], relabel[b]) for a, b in d.edges),
                     tuple(map(relabel.get, d.inputs)), tuple(map(relabel.get, d.outputs)))
    assert evaluate(twin).tobytes() == evaluate(d).tobytes()


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


def _parts(sides):
    return [(x.nodes, x.edges, x.inputs, x.outputs) for x in sides]


@st.composite
def parallel_path_sites(draw):
    # A zero-phase spider or an H pair on a path beside an edge between two
    # spiders: S2 or HH there leaves a parallel edge, which only a multiset
    # difference of the edge lists tells from the edge that was there.
    d = draw(rewrite_sites())
    spans = [(a, b) for a, b in d.edges if d.nodes[a].kind in "ZX" and d.nodes[b].kind in "ZX"]
    assume(spans)
    u, w = draw(st.sampled_from(spans))
    path = draw(st.sampled_from([(ZXNode("Z"),), (ZXNode("H"), ZXNode("H"))]))
    ids = range(max(d.nodes) + 1, max(d.nodes) + 1 + len(path))
    chain = [u, *ids, w]
    return ZXDiagram({**d.nodes, **dict(zip(ids, path))}, d.edges + tuple(zip(chain, chain[1:])),
                     d.inputs, d.outputs)


@PROPERTY
@given(rewrite_sites() | parallel_path_sites())
def test_local_sides_match_counter_oracle(d):
    # Every rewrite, and each result with its outputs reversed, which moves
    # boundaries between places, cuts out the region the oracle cuts out.
    for rule, loc in _rewrites(d):
        new = _applied(d, rule, loc)
        if new is None:
            continue
        moved = ZXDiagram(new.nodes, new.edges, new.inputs, new.outputs[::-1])
        for after in (new, moved):
            assert _parts(_local_sides(d, after)) == _parts(counter_local_sides(d, after))


def _check_locally(d, rule, loc):
    new, step = apply_rule_checked(d, rule, loc)
    assert abs(step.scalar_check - whole_diagram_scalar(d, rule, loc)) <= 1e-12
    sides = _local_sides(d, new)
    assert _parts(sides) == _parts(counter_local_sides(d, new))
    return sides


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


# proportionality takes the dot sums np.linalg.norm takes, without its
# dispatch: the same scalar, the same verdict and the same warnings.


@st.composite
def proportionality_cases(draw):
    """(a, b, tol): b at magnitudes from 1e-200 to 1e200, whose squares
    underflow or overflow, and a zero, a multiple of b, a multiple moved
    to either side of tol, an unrelated vector or one of another length."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 8))
    scale = 10.0 ** draw(st.sampled_from([-200, -155, 0, 154, 155, 200]) | st.integers(-200, 200))
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    # A tol of 1e300 times a norm above 2e8 overflows, which numpy scalars warn about.
    tol = draw(st.sampled_from([1e-9, 1e-12, 1e300]) | st.floats(1e-300, 1e300))
    kind = draw(st.sampled_from(["zero a", "zero b", "zeros", "multiple", "perturbed",
                                 "unrelated", "length"]))
    s = complex(*rng.normal(size=2))
    with np.errstate(all="ignore"):
        b = b * scale
        if kind.startswith("zero"):
            a = b if kind == "zero b" else np.zeros(n, complex)
            b = b if kind == "zero a" else np.zeros(n, complex)
        elif kind == "multiple":
            a = s * b
        elif kind == "perturbed":
            # A residual of f * tol * the scale the verdict compares it with.
            f = draw(st.sampled_from([0.5, 0.999, 1.001, 2.0]))
            size = max(np.linalg.norm(s * b), np.linalg.norm(b), 1.0)
            a = s * b + np.eye(n)[draw(st.integers(0, n - 1))] * (f * tol * size)
        else:
            m = n + (kind == "length")
            a = (rng.normal(size=m) + 1j * rng.normal(size=m)) * scale
    return a, b, tol


def _verdict(check, a, b, tol):
    """check's scalar as its type and bits, or None, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = check(a, b, tol)
    bits = None if s is None else (type(s), struct.pack("<dd", s.real, s.imag))
    return bits, [(w.category, str(w.message)) for w in caught]


@PROPERTY
@given(proportionality_cases())
# tol * the norm overflows, which only a numpy scalar warns about; the
# squares of 1e200 overflow to inf and those of 1e-200 underflow to 0.
@example(([3e10, 1e10j], [1.5e10, 0.5e10j], 1e300))
@example(([1e200, 1e200j], [1e200, 2e200j], 1e-9))
@example(([1e-200, 0j], [2e-200, 1e-200j], 1e-9))
def test_proportionality_matches_linalg_norm_oracle_bitwise(case):
    assert _verdict(proportionality, *case) == _verdict(linalg_norm_proportionality, *case)


_amplitude_parts = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-1.0, 1.0)


@st.composite
def sweep_cases(draw):
    psi = None
    if draw(st.booleans()):
        # Exact zeros and signed unit parts exercise the signs of zero.
        amps = np.array([complex(draw(_amplitude_parts), draw(_amplitude_parts))
                         for _ in range(2)])
        norm = np.linalg.norm(amps)
        assume(norm > 1e-3)
        psi = StateVector(1, amps / norm)
    points = st.sampled_from([0.0, 1.0, *DEFAULT_SWEEP_GRID]) | st.floats(0.0, 1.0)
    p_values = draw(st.lists(points, max_size=6))
    if p_values and draw(st.booleans()):
        p_values.insert(draw(st.integers(0, len(p_values))), draw(st.sampled_from(p_values)))
    shots = draw(st.none() | st.integers(1, 5000))
    return p_values, shots, draw(st.integers(0, 2 ** 32 - 1)), psi


@PROPERTY
@given(sweep_cases())
def test_batched_sweep_matches_per_point_oracle_bitwise(case):
    # repr round-trips every float exactly and tells -0.0 from 0.0.
    p_values, shots, seed, psi = case
    batched = run_sweep(p_values, shots, seed, psi)
    assert [repr(r) for r in batched] == [
        repr(r) for r in per_point_sweep(p_values, shots, seed, psi)
    ]


# Stacked tomography against references that share none of its algorithm:
# the simplex projection of the spectrum, linear inversion of exact
# expectations, Born probabilities from np.kron rotations, exactly rounded
# fractions, and stacks of one.

_dyadic = st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5])


@st.composite
def spectra(draw, dim):
    """Unit-trace eigenvalues: general, dyadic (exactly repeated values and an
    exact unit trace), or all but one negative."""
    kind = draw(st.sampled_from(["general", "dyadic", "one-positive"]))
    if kind == "one-positive":
        negative = [-draw(st.floats(1e-6, 0.5)) for _ in range(dim - 1)]
        return [1.0 - sum(negative)] + negative
    values = [draw(st.floats(-0.5, 1.0) if kind == "general" else _dyadic)
              for _ in range(dim - 1)]
    return values + [1.0 - sum(values)]


@st.composite
def hermitian_unit_trace_stacks(draw):
    """(num_qubits, (P, d, d) stack) with d in {2, 4}, P in 1..8: each matrix
    V diag(w) V^dagger for a random unitary V and a spectrum of `spectra`."""
    n = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = []
    for _ in range(draw(st.integers(1, 8))):
        w = np.array(draw(spectra(2 ** n)))
        u, _ = np.linalg.qr(rng.normal(size=(2 ** n, 2 ** n))
                            + 1j * rng.normal(size=(2 ** n, 2 ** n)))
        m = u @ np.diag(w) @ u.conj().T
        stack.append((m + m.conj().T) / 2)
    return n, np.array(stack)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _simplex_projection(w: np.ndarray) -> np.ndarray:
    """max(w - tau, 0) summing to 1, with tau found by bisection: the
    Euclidean projection of w onto the probability simplex."""
    w = w.tolist()
    lo, hi = min(w) - 1.0, max(w)  # the sum is at least 1 at lo and 0 at hi
    for _ in range(100):
        tau = (lo + hi) / 2
        lo, hi = (tau, hi) if sum(max(x - tau, 0.0) for x in w) >= 1.0 else (lo, tau)
    return np.maximum(np.array(w) - lo, 0.0)


@PROPERTY
@given(hermitian_unit_trace_stacks())
def test_linear_inversion_and_simplex_projection(case):
    n, stack = case
    raw = reconstruct(exact_expectations(stack), n)
    assert raw.shape == stack.shape
    assert np.abs(raw - stack).max() <= 1e-14
    # The Frobenius-nearest unit-trace PSD matrix keeps the eigenvectors and
    # projects the eigenvalues onto the probability simplex (Smolin, Gambetta
    # & Smith, PRL 108, 070502 (2012)).
    w, v = hermitian_eig(raw, tol=1e-9)  # as tomo_pipeline decomposes the raw stack
    for rho, wi, vi in zip(project_physical(w, v), w, v, strict=True):
        x = _simplex_projection(wi)
        assert np.abs(rho.matrix - vi @ np.diag(x) @ vi.conj().T).max() <= 1e-14
        assert np.abs(rho.spectrum[0] - x).max() <= 1e-14


@PROPERTY
@given(hermitian_unit_trace_stacks(), st.data())
def test_one_bad_raw_member_raises_the_single_matrix_error(case, data):
    _, stack = case
    i = data.draw(st.integers(0, len(stack) - 1))
    bad = stack[i].copy()
    bad[0, -1] += data.draw(st.sampled_from([1e-3, 0.1j, 2.0]))  # not Hermitian
    with pytest.raises(ValueError) as single:
        hermitian_eig(bad, tol=1e-9)
    stack[i] = bad
    with pytest.raises(ValueError) as stacked:
        hermitian_eig(stack, tol=1e-9)
    assert str(stacked.value) == str(single.value)


@st.composite
def tomography_cases(draw):
    """(states, qubits, shots, seed): P in 1..4 random 3-qubit pure or mixed
    states and one or two of their qubits."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    states = [random_state(rng, 3) if draw(st.booleans()) else random_density(rng, 3)
              for _ in range(draw(st.integers(1, 4)))]
    qubits = draw(st.permutations(range(3)))[:draw(st.integers(1, 2))]
    shots = draw(st.none() | st.integers(1, 5000))
    return states, qubits, shots, draw(st.integers(0, 2 ** 32 - 1))


# Measuring X applies H, and measuring Y applies S^dagger then H.
_MEASURE = {"X": HADAMARD, "Y": HADAMARD @ np.diag([1, -1j]), "Z": np.eye(2)}


@PROPERTY
@given(tomography_cases())
def test_born_probabilities_are_the_rotated_diagonal(case):
    # <b| U rho U^dagger |b> for each outcome b, with U the kron of the
    # single-qubit rotations, qubit 0 the most significant.
    states, qubits, _, _ = case
    stack = np.array([partial_trace(s, qubits).matrix for s in states])
    probs = born_probabilities(stack)
    for b, basis in enumerate(itertools.product("XYZ", repeat=len(qubits))):
        u = reduce(np.kron, [_MEASURE[ch] for ch in basis])
        want = np.einsum("bi,pij,bj->pb", u, stack, u.conj()).real
        assert np.abs(probs[:, b] - want).max() <= 1e-14


@PROPERTY
@given(tomography_cases())
def test_stacked_tomography_matches_stacks_of_one_bitwise(case):
    states, qubits, shots, seed = case
    reduced = [partial_trace(s, qubits) for s in states]
    results = tomo_pipeline(reduced, shots, seed)
    for i, (rho, result) in enumerate(zip(reduced, results, strict=True)):
        [single] = tomo_pipeline([rho], shots, seed + i)
        assert result.reduced is rho
        assert result.raw_min_eigenvalue == single.raw_min_eigenvalue
        assert _same_bits(result.physical.matrix, single.physical.matrix)


@PROPERTY
@given(st.integers(1, 8).flatmap(
    lambda dim: st.lists(_complex_matrices(dim), min_size=1, max_size=6)))
def test_stacked_eigensolve_matches_single_calls_bitwise(matrices):
    stack = np.array([(m + m.conj().T) / 2 for m in matrices])
    w, v = hermitian_eig(stack)
    for i, m in enumerate(stack):
        single_w, single_v = hermitian_eig(m)
        assert w[i].tobytes() == single_w.tobytes()
        assert v[i].tobytes() == single_v.tobytes()


@st.composite
def count_arrays(draw, num_qubits):
    """Counts of 2^num_qubits outcomes summing to a total in [1, SHOTS_MAX];
    coinciding cuts leave zeros. Drawing the total's power-of-two octave first
    makes totals past 2^53, where float64 division rounds, more than the bound."""
    octave = draw(st.integers(0, SHOTS_MAX.bit_length() - 1))
    total = draw(st.integers(2 ** octave, min(2 ** (octave + 1) - 1, SHOTS_MAX)))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=2 ** num_qubits - 1,
                                max_size=2 ** num_qubits - 1)))
    return np.diff([0, *cuts, total]).astype(np.int64)


@st.composite
def counts_by_basis(draw):
    """(n, counts): a (P, 2^n) count stack per basis, P in 1..3."""
    n = draw(st.sampled_from([1, 2]))
    points = draw(st.integers(1, 3))
    bases = ["".join(b) for b in itertools.product("XYZ", repeat=n)]
    return n, {b: np.array([draw(count_arrays(n)) for _ in range(points)]) for b in bases}


@PROPERTY
@given(counts_by_basis())
def test_array_estimator_is_the_exactly_rounded_fraction(case):
    # A Pauli is estimated from the basis with its I replaced by Z. Outcome j
    # has qubit 0 as its most significant bit, and the Pauli's sign on it is
    # the parity of j's bits at the Pauli's non-identity positions.
    n, counts = case
    ours = estimate_expectations(counts, n)
    assert list(ours) == ["".join(p) for p in itertools.product("IXYZ", repeat=n)][1:]
    for pauli, values in ours.items():
        mask = sum(1 << (n - 1 - q) for q, ch in enumerate(pauli) if ch != "I")
        rows = counts[pauli.replace("I", "Z")].tolist()
        for value, row in zip(values.tolist(), rows, strict=True):
            signed = sum(-c if (j & mask).bit_count() % 2 else c for j, c in enumerate(row))
            assert value == float(Fraction(signed, sum(row))), pauli

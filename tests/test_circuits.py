import cmath
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nohidelab import qmath
from nohidelab.circuits import (
    GATE_ARITY,
    MAX_QUBITS,
    PARAM_COUNT,
    Circuit,
    CircuitParseError,
    Gate,
    _apply_op,
    ascii_float,
    ascii_int,
    circuit_unitary,
    gate_matrix,
    parse_circuit,
    run_statevector,
    u3_matrix,
)
from nohidelab.qmath import StateVector, kron

from conftest import Q20_CIRCUIT, assert_same, random_density, random_state
from oracles import (
    column_parse_circuit,
    depolarizing_kraus,
    equal_up_to_global_phase,
    tensordot_apply_op,
)

GOLDEN = Path(__file__).parent / "data" / "circuit_grammar_golden.json"


def render_circuit(c: Circuit) -> str:
    """Inverse of parse_circuit for the text-representable gate kinds."""
    out = [f"qubits {c.num_qubits}"]
    for g in c.gates:
        if g.kind == "unitary":
            raise ValueError("unitary gates have no text form")
        parts = [g.kind] + [repr(p) for p in g.params] + [str(t) for t in g.targets]
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


class TestParser:
    def test_minimal_program(self):
        c = parse_circuit("qubits 1\nh 0")
        assert c.num_qubits == 1
        assert c.gates == (Gate("h", (0,)),)

    def test_two_qubit_gates_keep_argument_order(self):
        c = parse_circuit("qubits 3\ncx 0 1\nch 2 1")
        assert c.gates[0] == Gate("cx", (0, 1))
        assert c.gates[1] == Gate("ch", (2, 1))

    def test_index_out_of_range_has_position(self):
        with pytest.raises(CircuitParseError, match="index out of range") as err:
            parse_circuit("qubits 2\ncx 0 2")
        assert err.value.line == 2
        assert err.value.col == 6

    def test_unknown_mnemonic(self):
        with pytest.raises(CircuitParseError, match="unknown mnemonic 'foo'") as err:
            parse_circuit("qubits 1\nfoo 0")
        assert (err.value.line, err.value.col) == (2, 1)

    def test_arity_mismatch(self):
        with pytest.raises(CircuitParseError, match="expects 2 arguments"):
            parse_circuit("qubits 2\ncx 0")
        with pytest.raises(CircuitParseError, match="expects 1 arguments"):
            parse_circuit("qubits 1\nh 0 0")

    def test_malformed_angle(self):
        with pytest.raises(CircuitParseError, match="malformed angle literal 'abc'"):
            parse_circuit("qubits 1\nu3 abc 0 0 0")
        with pytest.raises(CircuitParseError, match="malformed angle literal"):
            parse_circuit("qubits 1\nu3 nan 0 0 0")

    def test_malformed_index(self):
        with pytest.raises(CircuitParseError, match="expected qubit index"):
            parse_circuit("qubits 1\nh 0.5")

    def test_duplicate_index_reported_with_location(self):
        with pytest.raises(CircuitParseError, match="duplicate") as err:
            parse_circuit("qubits 2\nswap 1 1")
        assert err.value.line == 2

    def test_missing_header(self):
        with pytest.raises(CircuitParseError, match="header"):
            parse_circuit("h 0")
        with pytest.raises(CircuitParseError, match="header"):
            parse_circuit("")

    def test_bad_qubit_count(self):
        with pytest.raises(CircuitParseError, match="qubit count"):
            parse_circuit("qubits zero")
        with pytest.raises(CircuitParseError, match="at least 1"):
            parse_circuit("qubits 0")

    def test_qubit_count_limit(self):
        assert parse_circuit(f"qubits {MAX_QUBITS}").num_qubits == MAX_QUBITS
        with pytest.raises(CircuitParseError, match="exceeds the limit") as err:
            parse_circuit(f"qubits  {MAX_QUBITS + 1}\nh 0")
        assert (err.value.line, err.value.col) == (1, 9)

    def test_golden_grammar_file(self):
        cases = json.loads(GOLDEN.read_text())
        assert len(cases) == 20
        for case in cases:
            c = parse_circuit(case["text"])
            assert c.num_qubits == case["num_qubits"], case["name"]
            got = [[g.kind, list(g.targets), list(g.params)] for g in c.gates]
            assert got == case["gates"], case["name"]

    def test_render_round_trip_on_golden(self):
        cases = json.loads(GOLDEN.read_text())
        for case in cases:
            c = parse_circuit(case["text"])
            again = parse_circuit(render_circuit(c))
            assert again.gates == c.gates, case["name"]
            assert again.num_qubits == c.num_qubits

    # Python's int() and float() also take these; the text format does not.
    @pytest.mark.parametrize("text, message, line, col", [
        ("qubits \uff13", "expected qubit count, got '\uff13'", 1, 8),
        ("qubits 2\nh \u0661", "expected qubit index, got '\u0661'", 2, 3),
        ("qubits 1\nu3 1_0.5 0 0 0", "malformed angle literal '1_0.5'", 2, 4),
        ("qubits 3\ncx +0 2", "expected qubit index, got '+0'", 2, 4),
    ], ids=["fullwidth-count", "arabic-indic-index", "underscore-angle", "signed-index"])
    def test_numbers_are_ascii_only(self, text, message, line, col):
        with pytest.raises(CircuitParseError, match=re.escape(message)) as err:
            parse_circuit(text)
        assert (err.value.line, err.value.col) == (line, col)

    # str.splitlines also ends a line at each of these; the text format reads
    # them as blanks inside a line.
    @pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                     "\u2029"], ids=ascii)
    def test_only_cr_and_lf_end_a_line(self, sep):
        assert parse_circuit(f"qubits 1\n# note{sep}x 0\n").gates == ()
        assert parse_circuit(f"qubits 1{sep}\nh{sep}0").gates == (Gate("h", (0,)),)
        with pytest.raises(CircuitParseError, match="unknown mnemonic 'bad'") as err:
            parse_circuit(f"qubits 1\n{sep}\nbad 0\n")
        assert err.value.line == 3

    def test_line_numbers_count_cr_lf_and_crlf(self):
        with pytest.raises(CircuitParseError, match="unknown mnemonic 'bad'") as err:
            parse_circuit("qubits 1\r\nh 0\rh 0\n\r\n\n\rbad 0\r\n")
        assert (err.value.line, err.value.col) == (7, 1)

    def test_ascii_number_grammar(self):
        for text in ("0", "007", "1", "20"):
            assert ascii_int(text) == int(text)
        for text in ("", "-1", "+1", " 1", "1 ", "1_0", "\u0663", "1.0"):
            with pytest.raises(ValueError):
                ascii_int(text)
        for text in ("0", "-0.5", "+2", ".5", "1e-3", "2.5E+0", "-1E2", "1e400"):
            assert ascii_float(text) == float(text)
        for text in ("", "1.", ".", "e3", "1e", "inf", "nan", "0x1p3", "1_0.5",
                     "\u0660.\u0665", " 1", "1\n", "--1"):
            with pytest.raises(ValueError):
                ascii_float(text)

    def test_render_rejects_raw_unitary(self):
        c = Circuit(1, (Gate("unitary", (0,), matrix=np.eye(2)),))
        with pytest.raises(ValueError, match="no text form"):
            render_circuit(c)


_PARSER_TOKENS = ["qubits", "h", "cx", "swap", "u3", "ccx", "unitary", "0", "1", "2",
                  "-1", "20", "21", "1.5", "nan", "1e400", "#", "\n", "\r", "\t",
                  "\x0b", "\u2028", " "]


# A header, then gate lines whose arguments are good or bad in each way the
# parser reports. Without them, no drawn text gets past the header.
_GATE_LINES = st.lists(st.tuples(
    st.sampled_from([*GATE_ARITY, "ccx"]),
    st.lists(st.sampled_from(["0", "1", "2", "3", "-1", ".5", "1e400", "nan", "#"]),
             min_size=1, max_size=4),
).map(lambda gate: " ".join([gate[0], *gate[1]])), max_size=6).map(
    lambda lines: "\n".join(["qubits 3", *lines]))
_PARSER_TEXT = st.one_of(st.text(), st.lists(st.sampled_from(_PARSER_TOKENS)).map(" ".join),
                         _GATE_LINES)


@settings(max_examples=300)
@given(_PARSER_TEXT)
def test_parser_total_on_arbitrary_text(text):
    try:
        result = parse_circuit(text)
    except CircuitParseError as exc:
        assert 1 <= exc.line <= len(re.split(r"\r\n|\r|\n", text))
        assert exc.col >= 1
    else:
        assert isinstance(result, Circuit)


def _outcome(parse, text: str):
    try:
        return parse(text)
    except CircuitParseError as exc:
        return str(exc), exc.line, exc.col


@settings(max_examples=200)
@given(_PARSER_TEXT)
@example("qubits 3\n\tcx 1 1  # Gate's own error")
@example("qubits 3\n u3 .5 nan 0 1")
@example("qubits 3\nu3 .5 1e400 1_0 3")
@example("qubits 3\nu3 .5 .5 .5 3")
@example("qubits 3\nswap 0 -1 #")
@example("qubits\u2028 21")
@example("\n  qubits 2 3 4")
def test_parser_matches_column_oracle(text):
    assert _outcome(parse_circuit, text) == _outcome(column_parse_circuit, text)


def _bits(a: np.ndarray) -> np.ndarray:
    """The bytes of `a` in C order, so that -0.0 differs from 0.0."""
    return np.ascontiguousarray(a).view(np.uint8)


def _signed_zeros(rng: np.random.Generator, a: np.ndarray) -> np.ndarray:
    """`a` with about one entry in eight set to +0.0 or -0.0 (real and imaginary parts)."""
    parts = a.view(np.float64)
    hit = rng.random(parts.shape) < 0.125
    parts[hit] = np.copysign(0.0, rng.random(hit.sum()) - 0.5)
    return a


@st.composite
def kernel_chains(draw):
    """A tensor of 1-8 qubits, maybe with a batch axis of 1-3, and 1-3 operators
    on k in {1, 2, 3} distinct axes each, in any order."""
    n = draw(st.integers(1, 8))
    batch = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, min(3, n)))
        steps.append([len(batch) + q for q in draw(st.permutations(range(n)))[:k]])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = batch + (2,) * n
    tensor = _signed_zeros(rng, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    ops = []
    for axes in steps:
        dim = 2 ** len(axes)
        op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ops.append(_signed_zeros(rng, op))
    return tensor, list(zip(ops, steps))


@settings(max_examples=200)
@given(kernel_chains())
def test_apply_op_is_bitwise_tensordot(case):
    # Later steps take the earlier steps' transposed outputs, as in a circuit.
    got = want = case[0]
    for op, axes in case[1]:
        assert op.flags.c_contiguous
        got = _apply_op(got, op, axes)
        want = tensordot_apply_op(want, op, axes)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("case", ["q20-file", "stack-of-3"])
def test_run_statevector_is_bitwise_tensordot_at_20_qubits(case):
    # The 2^19-column dots the drawn sizes above never reach. Of these gates,
    # only u3 (complex entries) rounds differently under a loop that is not
    # BLAS's own, such as np.einsum's, on every OpenBLAS kernel.
    if case == "q20-file":
        c, ket = parse_circuit(Q20_CIRCUIT), StateVector.ket("0" * 20)
        psi, got = ket.amplitudes, run_statevector(c, ket).amplitudes
    else:
        rng = np.random.default_rng(7)
        psi = rng.normal(size=(3, 2 ** 20)) + 1j * rng.normal(size=(3, 2 ** 20))
        c = Circuit(20, (Gate("cx", (0, 19)), Gate("ch", (19, 0)), Gate("swap", (3, 17)),
                         Gate("u3", (10,), (0.3, 1.1, -0.7))))
        got = run_statevector(c, psi)
    want = psi.reshape(psi.shape[:-1] + (2,) * 20)
    for g in c.gates:
        want = tensordot_apply_op(want, g.local_matrix(), [t + want.ndim - 20 for t in g.targets])
    assert got.shape == psi.shape
    assert_same(got.tobytes(), want.tobytes(), case)


@st.composite
def random_circuits(draw):
    """1-4 qubits, every mnemonic and raw unitaries on 1-3 qubits."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = [kind for kind, arity in GATE_ARITY.items() if arity <= n]
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds + ["unitary"]))
        k = GATE_ARITY.get(kind) or draw(st.integers(1, min(3, n)))
        targets = tuple(draw(st.permutations(range(n)))[:k])
        if kind == "unitary":
            dim = 2 ** k
            q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
            gates.append(Gate(kind, targets, matrix=q))
        else:
            params = tuple(rng.uniform(-4, 4, size=PARAM_COUNT.get(kind, 0)))
            gates.append(Gate(kind, targets, params))
    return Circuit(n, tuple(gates))


@settings(max_examples=100)
@given(random_circuits())
def test_circuit_unitary_is_bitwise_oracle(c):
    dim = 2 ** c.num_qubits
    want = np.eye(dim, dtype=complex).reshape((2,) * (2 * c.num_qubits))
    for g in c.gates:
        want = tensordot_apply_op(want, g.local_matrix(), g.targets)
    assert np.array_equal(_bits(circuit_unitary(c)), _bits(want.reshape(dim, dim)))


class TestGateMatrix:
    def test_t_gate_diagonal(self):
        m = gate_matrix(Gate("t", (0,)), 1)
        assert np.allclose(m, np.diag([1, cmath.exp(1j * math.pi / 4)]))

    def test_s_gate_diagonal(self):
        m = gate_matrix(Gate("s", (0,)), 1)
        assert np.allclose(m, np.diag([1, 1j]))

    def test_h_embedded_at_qubit1_of_2(self):
        m = gate_matrix(Gate("h", (1,)), 2)
        assert np.abs(m - kron(np.eye(2), qmath.HADAMARD)).max() < 1e-12

    def test_h_embedded_at_qubit0_of_2(self):
        m = gate_matrix(Gate("h", (0,)), 2)
        assert np.abs(m - kron(qmath.HADAMARD, np.eye(2))).max() < 1e-12

    def test_u3_action_on_zero(self):
        theta, phi = 0.7, 1.1
        out = u3_matrix(theta, phi, 0.3) @ np.array([1, 0])
        expected = np.array([math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)])
        assert np.abs(out - expected).max() < 1e-12

    def test_u3_prepares_sqrt_p_superposition(self):
        # theta = 2 arcsin(sqrt(p)) sends |0> to sqrt(1-p)|0> + sqrt(p)|1>
        for p in (0.0, 0.3, 0.9549150281252627, 1.0):
            theta = 2 * math.asin(math.sqrt(p))
            out = u3_matrix(theta, 0.0, 0.0) @ np.array([1, 0])
            assert np.abs(out - [math.sqrt(1 - p), math.sqrt(p)]).max() < 1e-12

    def test_cx_control_is_first_target(self):
        m = gate_matrix(Gate("cx", (0, 1)), 2)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = expected[3, 2] = expected[2, 3] = 1
        assert np.abs(m - expected).max() < 1e-12

    def test_cx_reversed_targets(self):
        m = gate_matrix(Gate("cx", (1, 0)), 2)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[2, 2] = expected[3, 1] = expected[1, 3] = 1
        assert np.abs(m - expected).max() < 1e-12

    def test_embedding_is_unitary(self, rng):
        for kind, arity in (("ch", 2), ("swap", 2), ("y", 1)):
            targets = tuple(int(q) for q in rng.choice(3, size=arity, replace=False))
            assert qmath.is_unitary(gate_matrix(Gate(kind, targets), 3))


class TestStatevectorSim:
    def test_h_on_zero(self):
        out = run_statevector(parse_circuit("qubits 1\nh 0"), StateVector.ket("0"))
        assert np.abs(out.amplitudes - np.array([1, 1]) / math.sqrt(2)).max() < 1e-12

    def test_hths_prep_carries_global_phase(self):
        out = run_statevector(
            parse_circuit("qubits 1\nh 0\nt 0\nh 0\ns 0"), StateVector.ket("0")
        )
        target = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
        phase = cmath.exp(1j * math.pi / 8)
        assert np.abs(out.amplitudes - phase * target).max() < 1e-12
        assert equal_up_to_global_phase(out.amplitudes, target)

    def test_linearity_on_random_instances(self, rng):
        c = Circuit(2, (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("t", (1,))))
        u = circuit_unitary(c)
        for _ in range(10):
            a = random_state(rng, 2)
            b = random_state(rng, 2)
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            combo = alpha * a.amplitudes + beta * b.amplitudes
            lhs = u @ combo
            rhs = alpha * run_statevector(c, a).amplitudes + beta * run_statevector(c, b).amplitudes
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_norm_preserved(self, rng):
        c = parse_circuit("qubits 3\nh 0\ncx 0 2\nu3 0.3 0.2 0.1 1\nswap 0 1")
        out = run_statevector(c, random_state(rng, 3))
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            run_statevector(parse_circuit("qubits 2\nh 0"), StateVector.ket("0"))


class TestChannels:
    def test_depolarizing_p0_single_kraus(self):
        kraus = depolarizing_kraus(0.0)
        assert len(kraus) == 1
        assert np.abs(kraus[0] - np.eye(2)).max() < 1e-12

    def test_depolarizing_p1_weights(self):
        kraus = depolarizing_kraus(1.0)
        assert len(kraus) == 4
        for k in kraus:
            assert np.abs(np.abs(k[np.abs(k) > 1e-12]) - 0.5).max() < 1e-12

    def test_completeness_on_grid(self):
        for k in range(11):
            total = sum(op.conj().T @ op for op in depolarizing_kraus(k / 10))
            assert np.abs(total - np.eye(2)).max() < 1e-12

    def test_map_mixes_the_input_with_identity_at_weight_p(self, rng):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            rho = random_density(rng, 1).matrix
            out = sum(k @ rho @ k.conj().T for k in depolarizing_kraus(p))
            assert np.abs(out - ((1 - p) * rho + p * np.eye(2) / 2)).max() < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            depolarizing_kraus(1.5)


class TestOperatorsReadOnly:
    def test_unitary_payload_is_a_read_only_copy(self):
        m = qmath.HADAMARD.copy()
        g = Gate("unitary", (0,), matrix=m)
        m[0, 0] = 5
        assert not g.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            g.matrix[0, 0] = 5
        assert np.array_equal(g.matrix, qmath.HADAMARD)
        c = Circuit(1, (g,))
        assert qmath.is_unitary(circuit_unitary(c))
        out = run_statevector(c, StateVector.ket("0"))
        assert np.abs(out.amplitudes - qmath.HADAMARD[:, 0]).max() < 1e-15

    def test_unitary_payload_is_c_contiguous(self):
        u = circuit_unitary(parse_circuit("qubits 2\nh 0\ncx 0 1\nt 1"))
        for m in (np.asfortranarray(u), u.T, u[::-1, ::-1]):
            g = Gate("unitary", (1, 0), matrix=m)
            assert g.matrix.flags.c_contiguous
            assert np.array_equal(g.matrix, m)

    def test_fixed_operators_are_read_only_views(self):
        for kind, arity in GATE_ARITY.items():
            if kind == "u3":
                continue
            m = Gate(kind, tuple(range(arity))).local_matrix()
            assert not m.flags.writeable and m.flags.c_contiguous, kind
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 5
        assert Gate("h", (0,)).local_matrix().base is qmath.HADAMARD
        for m in (qmath.HADAMARD, qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z):
            assert m.flags.writeable


def test_gate_validation():
    with pytest.raises(ValueError, match="duplicate"):
        Gate("cx", (1, 1))
    with pytest.raises(ValueError, match="unknown gate kind"):
        Gate("rx", (0,))
    with pytest.raises(ValueError, match="expects 2 targets"):
        Gate("cx", (0,))
    with pytest.raises(ValueError, match="not unitary"):
        Gate("unitary", (0,), matrix=np.ones((2, 2)))
    with pytest.raises(ValueError, match="touches qubit"):
        Circuit(1, (Gate("h", (1,)),))


def test_unitary_gates_compare_and_hash_by_payload():
    a = Gate("unitary", (0,), matrix=np.eye(2))
    b = Gate("unitary", (0,), matrix=np.eye(2, dtype=complex))
    assert a == b and hash(a) == hash(b)
    assert a != Gate("unitary", (0,), matrix=qmath.PAULI_Z)
    assert a != Gate("unitary", (1,), matrix=np.eye(2))
    assert len({a, b, Gate("unitary", (0,), matrix=qmath.HADAMARD), Gate("h", (0,))}) == 3
    assert Circuit(1, (a,)) == Circuit(1, (b,))

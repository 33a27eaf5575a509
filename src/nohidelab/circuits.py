"""Circuit IR, text-format parser, and the exact statevector simulator.

Text format (UTF-8, one statement per line; lines end at "\n", "\r\n" or "\r"):

    qubits N            header, required first statement; 1 <= N <= MAX_QUBITS
    h q | x q | y q | z q | s q | t q
    u3 theta phi lambda q      angles in decimal radians
    cx c t | ch c t            control first
    swap a b
    # comment to end of line; blank lines ignored

Numbers are ASCII: N and the qubit indices are [0-9]+, and each angle is a
finite decimal literal: an optional sign, digits with an optional fraction
(1, 1.5) or a fraction alone (.5), and an optional exponent (1e-3, 2E+1).

u3 follows the convention
U3(theta, phi, lam) = [[cos(t/2), -e^{i lam} sin(t/2)],
                       [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]].
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .qmath import (
    ATOL,
    HADAMARD,
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateVector,
    is_unitary,
)

GATE_ARITY = {
    "h": 1, "x": 1, "y": 1, "z": 1, "s": 1, "t": 1, "u3": 1,
    "cx": 2, "ch": 2, "swap": 2,
}
PARAM_COUNT = {"u3": 3}
# Largest register the parser accepts: a statevector takes 16 * 2^n bytes,
# 16 MiB at n = 20 (a density matrix would take 16 * 4^n).
MAX_QUBITS = 20

_S = np.diag([1, 1j]).astype(complex)
_T = np.diag([1, cmath.exp(1j * math.pi / 4)]).astype(complex)
_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CH = np.block([[I2, np.zeros((2, 2))], [np.zeros((2, 2)), HADAMARD]]).astype(complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _read_only_view(m: np.ndarray) -> np.ndarray:
    v = m.view()
    v.flags.writeable = False
    return v


# Read-only views: the qmath constants themselves stay writeable.
_FIXED = {kind: _read_only_view(m) for kind, m in (
    ("h", HADAMARD), ("x", PAULI_X), ("y", PAULI_Y), ("z", PAULI_Z), ("s", _S), ("t", _T),
    ("cx", _CX), ("ch", _CH), ("swap", _SWAP))}


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -cmath.exp(1j * lam) * s],
         [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]],
        dtype=complex,
    )


@dataclass(frozen=True)
class Gate:
    """One gate application; for controlled kinds the control comes first."""

    kind: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()
    matrix: np.ndarray | None = field(default=None, compare=False)  # kind "unitary" only
    # The payload's shape and bytes: gates compare and hash by its contents.
    _payload: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate qubit index in {self.kind} targets {self.targets}")
        if any(t < 0 for t in self.targets):
            raise ValueError(f"negative qubit index in targets {self.targets}")
        if self.kind == "unitary":
            if self.matrix is None:
                raise ValueError("unitary gate requires a matrix payload")
            # A C-contiguous read-only copy: the caller's array may change
            # after validation, and the gate kernel takes C-ordered operators.
            m = np.array(self.matrix, dtype=complex, order="C")
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)
            object.__setattr__(self, "_payload", (m.shape, m.tobytes()))
            dim = 2 ** len(self.targets)
            if m.shape != (dim, dim):
                raise ValueError(
                    f"unitary payload shape {m.shape} does not match {len(self.targets)} targets"
                )
            if not is_unitary(m, ATOL):
                raise ValueError("unitary payload is not unitary within tolerance")
            return
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.targets) != GATE_ARITY[self.kind]:
            raise ValueError(
                f"gate {self.kind!r} expects {GATE_ARITY[self.kind]} targets, "
                f"got {len(self.targets)}"
            )
        want = PARAM_COUNT.get(self.kind, 0)
        if len(self.params) != want:
            raise ValueError(f"gate {self.kind!r} expects {want} parameters, got {len(self.params)}")

    def local_matrix(self) -> np.ndarray:
        if self.kind == "unitary":
            return self.matrix
        if self.kind == "u3":
            return u3_matrix(*self.params)
        return _FIXED[self.kind]


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for g in self.gates:
            for t in g.targets:
                if t >= self.num_qubits:
                    raise ValueError(
                        f"gate {g.kind!r} touches qubit {t}, register has {self.num_qubits}"
                    )

    def extended(self, more: Iterable[Gate]) -> "Circuit":
        return Circuit(self.num_qubits, self.gates + tuple(more))


# Index tuples only, keyed on (rank, axes): at MAX_QUBITS there are 20 one-
# and 380 two-qubit placements per rank.
@functools.lru_cache(maxsize=1024)
def _transposes(ndim: int, axes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose that moves `axes` to the front, and its inverse."""
    perm = axes + tuple(a for a in range(ndim) if a not in axes)
    inverse = [0] * ndim
    for i, a in enumerate(perm):
        inverse[a] = i
    return perm, tuple(inverse)


def _apply_op(tensor: np.ndarray, op: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Apply a 2^k operator to `axes` of a (2,)*m tensor; axes[0] is the op's MSB.

    These are np.tensordot's own steps, the same `dot` on the same operands,
    so the result is bit-identical to contracting with tensordot and moving
    the op's axes back; only its generic axis normalisation is skipped.
    """
    perm, inverse = _transposes(tensor.ndim, tuple(axes))
    moved = tensor.transpose(perm)
    out = np.dot(op, moved.reshape(len(op), -1))
    return out.reshape(moved.shape).transpose(inverse)


def gate_matrix(g: Gate, num_qubits: int) -> np.ndarray:
    """Full 2^n unitary embedding g at its targets."""
    return circuit_unitary(Circuit(num_qubits, (g,)))


def circuit_unitary(c: Circuit) -> np.ndarray:
    dim = 2 ** c.num_qubits
    u = np.eye(dim, dtype=complex).reshape((2,) * (2 * c.num_qubits))
    for g in c.gates:
        u = _apply_op(u, g.local_matrix(), g.targets)
    return u.reshape(dim, dim)


def run_statevector(
    c: Circuit, input_state: StateVector | np.ndarray
) -> StateVector | np.ndarray:
    """Apply the circuit's gates in sequence to a pure state.

    `input_state` may also be a stack of P amplitude arrays with a leading
    batch axis, of shape (P, 2^n) or (P, 2, ..., 2). Each gate is then
    applied to all P states at once, with its axes shifted past the batch
    axis, and the evolved stack is returned as an array of the same shape.
    """
    stacked = not isinstance(input_state, StateVector)
    amps = np.asarray(input_state, dtype=complex) if stacked else input_state.amplitudes
    batch = amps.shape[:1] if stacked else ()
    size = math.prod(amps.shape[len(batch):])
    if size != 2 ** c.num_qubits:
        raise ValueError(
            f"dimension mismatch: circuit has {c.num_qubits} qubits, "
            f"state has {size} amplitudes"
        )
    psi = amps.reshape(batch + (2,) * c.num_qubits).copy()
    for g in c.gates:
        psi = _apply_op(psi, g.local_matrix(), [t + len(batch) for t in g.targets])
    if stacked:
        return psi.reshape(amps.shape)
    return StateVector(c.num_qubits, psi.reshape(-1))


class CircuitParseError(ValueError):
    """Parse failure with 1-based line and column of the offending token."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_TOKEN = re.compile(r"\S+")
# Numbers are ASCII only. Python's int() and float() also take Unicode
# digits, underscores and (int) a sign, so two spellings would give one value.
_ASCII_DECIMAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def ascii_int(text: str) -> int:
    """The value of a `[0-9]+` literal; ValueError for any other text."""
    # On ASCII text, isdigit() accepts exactly [0-9]+.
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not an ASCII integer literal: {text!r}")
    return int(text, 10)


def ascii_float(text: str) -> float:
    """The value of an ASCII decimal literal; ValueError for any other text."""
    if _ASCII_DECIMAL.fullmatch(text) is None:
        raise ValueError(f"not an ASCII decimal literal: {text!r}")
    return float(text)


# Lines end at "\r\n", "\r" or "\n" only. str.splitlines also breaks at \v, \f,
# \x1c-\x1e, \x85, U+2028 and U+2029, which editors show inside a line: a
# gate after one of them would escape a comment.
_LINE_END = re.compile(r"\r\n|\r|\n")


def _column(line: str, j: int) -> int:
    """The 1-based column of token j of a line: only a diagnostic needs one."""
    return next(itertools.islice(_TOKEN.finditer(line), j, None)).start() + 1


def _parse_index(tok: str, num_qubits: int) -> int:
    try:
        value = ascii_int(tok)
    except ValueError:
        raise ValueError(f"expected qubit index, got {tok!r}") from None
    if not 0 <= value < num_qubits:
        raise ValueError(f"index out of range: qubit {value} in a {num_qubits}-qubit register")
    return value


def _parse_angle(tok: str) -> float:
    try:
        value = ascii_float(tok)
    except ValueError:
        raise ValueError(f"malformed angle literal {tok!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"malformed angle literal {tok!r}")
    return value


def _parse_header(line: str, toks: list[str], lineno: int) -> int:
    """The qubit count of a 'qubits N' statement."""
    if toks[0] != "qubits":
        raise CircuitParseError(
            f"expected 'qubits N' header, got {toks[0]!r}", lineno, _column(line, 0))
    if len(toks) != 2:
        raise CircuitParseError(
            "header must be exactly 'qubits N'", lineno, _column(line, 1 if len(toks) > 2 else 0))
    try:
        num_qubits = ascii_int(toks[1])
    except ValueError:
        raise CircuitParseError(
            f"expected qubit count, got {toks[1]!r}", lineno, _column(line, 1)) from None
    if num_qubits < 1:
        raise CircuitParseError("qubit count must be at least 1", lineno, _column(line, 1))
    if num_qubits > MAX_QUBITS:
        raise CircuitParseError(
            f"qubit count {num_qubits} exceeds the limit of {MAX_QUBITS}", lineno, _column(line, 1))
    return num_qubits


def parse_circuit(text: str) -> Circuit:
    """Parse the circuit text format; diagnostics carry line and column.

    str.split() splits a line where `_TOKEN` does, on the same characters, so
    a token's column is looked up only when a diagnostic names it.
    """
    num_qubits = 0
    gates: list[Gate] = []
    for lineno, line in enumerate(_LINE_END.split(text), start=1):
        cut = line.find("#")
        if cut >= 0:
            line = line[:cut]
        toks = line.split()
        if not toks:
            continue
        if not num_qubits:
            num_qubits = _parse_header(line, toks, lineno)
            continue
        mnemonic = toks[0]
        if mnemonic not in GATE_ARITY:
            raise CircuitParseError(f"unknown mnemonic {mnemonic!r}", lineno, _column(line, 0))
        n_angles = PARAM_COUNT.get(mnemonic, 0)
        n_idx = GATE_ARITY[mnemonic]
        n_args = len(toks) - 1
        if n_args != n_angles + n_idx:
            raise CircuitParseError(
                f"gate {mnemonic!r} expects {n_angles + n_idx} arguments "
                f"({n_angles} angles, {n_idx} qubits), got {n_args}",
                lineno, _column(line, n_args if n_args > n_angles + n_idx else 0),
            )
        values: list = []
        try:
            for tok in toks[1:n_angles + 1]:
                values.append(_parse_angle(tok))
            for tok in toks[n_angles + 1:]:
                values.append(_parse_index(tok, num_qubits))
            gates.append(Gate(mnemonic, tuple(values[n_angles:]), tuple(values[:n_angles])))
        except ValueError as exc:
            # The token that failed follows the values read; once all are
            # read, the error is Gate's own, at the mnemonic.
            j = len(values) + 1 if len(values) < n_args else 0
            raise CircuitParseError(str(exc), lineno, _column(line, j)) from None
    if not num_qubits:
        raise CircuitParseError("empty input: expected a 'qubits N' header", 1, 1)
    return Circuit(num_qubits, tuple(gates))

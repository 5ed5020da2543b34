"""Gate-level circuit representation and a dense statevector simulator.

Gates carry multi-control specifications with per-control polarity ("+" fires
on |1>, "-" fires on |0>).  Multi-controlled gates are simulator primitives:
verification never depends on any particular decomposition (decompositions
exist only in the cost model and the QASM exporter).

Conventions:
  * qubit 0 is the most significant bit of basis-state indices, so ancilla
    codes read left to right match bit patterns of the index;
  * rotation gates follow R_P(theta) = exp(-i theta P / 2);
  * GLOBALPHASE multiplies by e^{i theta} (on the controlled subspace when
    controls are present), which makes overall minus signs representable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .pauli import check_dense

GATE_KINDS = ("H", "X", "Y", "Z", "RX", "RY", "RZ", "PHASE", "GLOBALPHASE")
ANGLED_KINDS = ("RX", "RY", "RZ", "PHASE", "GLOBALPHASE")
_DIAGONAL_KINDS = ("Z", "PHASE", "RZ")
#: entries per column block of `apply_circuit` (2^16 complex = 1 MiB)
_BLOCK_ENTRIES = 1 << 16

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _gate_matrix(kind: str, angle: float | None) -> np.ndarray:
    if kind == "H":
        return _H
    if kind == "X":
        return _X
    if kind == "Y":
        return _Y
    if kind == "Z":
        return _Z
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]])
    if kind == "RZ":
        return np.diag([np.exp(-1j * angle / 2.0), np.exp(1j * angle / 2.0)])
    if kind == "PHASE":
        return np.diag([1.0, np.exp(1j * angle)]).astype(complex)
    raise ValueError(f"no matrix for gate kind {kind!r}")


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate: kind, optional angle, single target, and polarized controls.

    Attributes:
        kind: one of GATE_KINDS.
        targets: single-element tuple for every kind except GLOBALPHASE,
            which targets no qubit (empty tuple).
        angle: radians, required for rotation/phase kinds, forbidden otherwise.
        controls: tuple of (qubit, polarity) with polarity "+" or "-".
    """

    kind: str
    targets: tuple[int, ...]
    angle: float | None = None
    controls: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        object.__setattr__(self, "controls",
                           tuple((int(q), str(p)) for q, p in self.controls))
        if self.kind == "GLOBALPHASE":
            if self.targets:
                raise ValueError("GLOBALPHASE takes no target")
        elif len(self.targets) != 1:
            raise ValueError(f"{self.kind} takes exactly one target")
        if self.kind in ANGLED_KINDS:
            if self.angle is None:
                raise ValueError(f"{self.kind} requires an angle")
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")
        qubits = list(self.targets) + [q for q, _ in self.controls]
        if len(set(qubits)) != len(qubits):
            raise ValueError("target and control qubits must be pairwise distinct")
        for _, pol in self.controls:
            if pol not in ("+", "-"):
                raise ValueError(f"control polarity must be '+' or '-', got {pol!r}")

    def inverse(self) -> "Gate":
        if self.kind in ANGLED_KINDS:
            return Gate(self.kind, self.targets, -self.angle, self.controls)
        return self  # H, X, Y, Z are self-inverse

    def max_qubit(self) -> int:
        qs = list(self.targets) + [q for q, _ in self.controls]
        return max(qs) if qs else -1

    def to_json_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.angle is not None:
            d["angle"] = self.angle
        d["targets"] = list(self.targets)
        d["controls"] = [{"q": q, "pol": p} for q, p in self.controls]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "Gate":
        return cls(kind=d["kind"], targets=tuple(d.get("targets", ())),
                   angle=d.get("angle"),
                   controls=tuple((c["q"], c["pol"]) for c in d.get("controls", ())))


@dataclass
class Circuit:
    """Ordered gate list over a fixed-width register.

    Wires [0, num_ancilla) are the ancilla block; the rest is the system
    register.  Composition never changes the width.
    """

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)
    num_ancilla: int = 0

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        if not 0 <= self.num_ancilla <= self.num_qubits:
            raise ValueError("ancilla range must fit in the register")
        for g in self.gates:
            self._check(g)

    def _check(self, gate: Gate):
        if gate.max_qubit() >= self.num_qubits:
            raise DimensionError(
                f"gate touches qubit {gate.max_qubit()} "
                f"on a width-{self.num_qubits} circuit")

    def append(self, gate: Gate) -> "Circuit":
        self._check(gate)
        self.gates.append(gate)
        return self

    def extend(self, gates) -> "Circuit":
        for g in gates:
            self.append(g)
        return self

    def __len__(self) -> int:
        return len(self.gates)

    def compose_adjoint(self) -> "Circuit":
        """Reversed gate order with every gate inverted."""
        return Circuit(self.num_qubits,
                       [g.inverse() for g in reversed(self.gates)],
                       self.num_ancilla)

    # ------------------------------------------------------------------- JSON
    def to_json_dict(self) -> dict:
        return {"num_qubits": self.num_qubits,
                "num_ancilla": self.num_ancilla,
                "gates": [g.to_json_dict() for g in self.gates]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Circuit":
        return cls(num_qubits=int(d["num_qubits"]),
                   gates=[Gate.from_json_dict(g) for g in d.get("gates", ())],
                   num_ancilla=int(d.get("num_ancilla", 0)))


def restrict(circuit: Circuit, zeros: set[int]) -> Circuit:
    """The circuit that `circuit` runs on its other wires while every wire in
    `zeros` holds |0>; the kept wires are renumbered in order, and those
    below num_ancilla stay the ancilla block.

    A gate with a positive control on a held wire never fires and is
    dropped; a negative control there always fires and is stripped.  A Z or
    PHASE on a held wire leaves |0> as it is and is dropped.  With no wire
    held, that is `circuit` itself, returned as it is.

    Raises:
        ValueError: any other kind targets a held wire, so it can move that
            wire's bit or phase its |0>.
    """
    if not zeros:
        return circuit
    keep = [w for w in range(circuit.num_qubits) if w not in zeros]
    index = {w: i for i, w in enumerate(keep)}
    out = Circuit(len(keep),
                  num_ancilla=sum(w < circuit.num_ancilla for w in keep))
    for g in circuit.gates:
        if any(pol == "+" and q in zeros for q, pol in g.controls):
            continue
        controls = tuple((index[q], pol) for q, pol in g.controls if q in index)
        if all(t in index for t in g.targets):
            out.append(Gate(g.kind, tuple(index[t] for t in g.targets),
                            g.angle, controls))
        elif g.kind not in ("Z", "PHASE"):
            raise ValueError(f"{g.kind} on held wire {g.targets[0]} "
                             "can move or phase its |0>")
    return out


def apply_circuit(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Run the circuit on a statevector (or a batch of column vectors).

    A vector is treated as one column.  The columns are evaluated in
    contiguous blocks of about _BLOCK_ENTRIES entries (at least one column):
    each block is copied in, run through every gate, and written into one
    preallocated output, so the working set stays cache-sized and the peak
    is the input plus the output.  Z, PHASE and RZ scale only the half of
    the controlled subspace they change, by the diagonal entry, factor
    first (m11·b); X swaps the two halves; every other kind does the 2x2
    update m00·a + m01·b, m10·a + m11·b on the target axis.  Products are
    formed out of place and stored back: the same bits as the full 2x2
    update, and a column's result does not depend on its block's width.

    Args:
        circuit: the circuit to apply.
        state: shape (2**width,) vector or (2**width, batch) column stack.

    Returns:
        The exact post-circuit state, same shape as the input.

    Raises:
        DimensionError: wrong state dimension.
        ValueError: input vector norm off by more than 1e-6
            (a warning is emitted beyond 1e-9).
    """
    width = circuit.num_qubits
    dim = 1 << width
    arr = np.asarray(state, dtype=complex)
    if arr.shape[0] != dim:
        raise DimensionError(
            f"state dimension {arr.shape[0]} != 2**{width}")
    if arr.ndim == 1:
        norm_err = abs(np.linalg.norm(arr) - 1.0)
        if norm_err > 1e-6:
            raise ValueError(f"input state norm off by {norm_err:.2e}")
        if norm_err > 1e-9:
            warnings.warn(f"input state norm off by {norm_err:.2e}",
                          RuntimeWarning, stacklevel=2)
    cols = arr.reshape(dim, -1)
    out = np.empty_like(cols)
    # per gate: (kind, index of its |0> half, index of its |1> half, matrix);
    # the trailing Ellipsis keeps every index a view, even when a gate fixes
    # every wire
    steps = []
    for gate in circuit.gates:
        sel: list = [slice(None)] * width + [Ellipsis]
        for q, pol in gate.controls:
            sel[q] = 1 if pol == "+" else 0
        if gate.kind == "GLOBALPHASE":
            steps.append((gate.kind, tuple(sel), None, np.exp(1j * gate.angle)))
            continue
        sel_a, sel_b = list(sel), list(sel)
        sel_a[gate.targets[0]], sel_b[gate.targets[0]] = 0, 1
        steps.append((gate.kind, tuple(sel_a), tuple(sel_b),
                      _gate_matrix(gate.kind, gate.angle)))
    step = max(1, _BLOCK_ENTRIES >> width)
    for start in range(0, cols.shape[1], step):
        work = cols[:, start:start + step].copy().reshape((2,) * width + (-1,))
        for kind, sel_a, sel_b, m in steps:
            a = work[sel_a]
            if kind == "GLOBALPHASE":
                a[...] = a * m
                continue
            b = work[sel_b]
            if kind == "X":
                a[...], b[...] = b, a.copy()
            elif kind in _DIAGONAL_KINDS:
                if kind == "RZ":
                    a[...] = m[0, 0] * a
                b[...] = m[1, 1] * b
            else:
                new_a = m[0, 0] * a + m[0, 1] * b
                b[...] = m[1, 0] * a + m[1, 1] * b
                a[...] = new_a
        out[:, start:start + step] = work.reshape(dim, -1)
    return out.reshape(arr.shape)


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full unitary: column j is the circuit applied to basis state |j>."""
    check_dense(circuit.num_qubits, circuit.num_qubits, "circuit unitary")
    dim = 1 << circuit.num_qubits
    return apply_circuit(circuit, np.eye(dim, dtype=complex))

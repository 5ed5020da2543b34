"""OPENQASM 2.0 export.

The internal gate set allows any number of polarized controls; OPENQASM 2.0
(qelib1) stops at two.  Export therefore lowers every gate to at most one
positive control first:

* negative controls are conjugated away with X gates;
* a k>=2-controlled U becomes CV, C^{k-1}X, CV†, C^{k-1}X, C^{k-1}V with
  V = sqrt(U) (principal branch), recursively;
* a controlled global phase is a diagonal phase gate on one of its controls.

The lowering is exact including global phase (uncontrolled global phases are
kept as explicit records and dropped only at text emission, with a comment).
It is deliberately ancilla-free and therefore exponential in the control
count — fine for export, not a statement about gate cost; the CNOT figures in
the cost module use the 8k-12 counting model instead, and emitted files say so
in their header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, _gate_matrix, apply_matrix


@dataclass(frozen=True)
class LoweredOp:
    """One exported primitive: a single-qubit matrix with at most one
    (positive) control, or a bare global phase (matrix None)."""

    matrix: np.ndarray | None
    target: int | None
    control: int | None
    phase_angle: float | None = None  # set only for the bare global phase


def _principal_sqrt(u: np.ndarray) -> np.ndarray:
    """Principal square root of a 2x2 unitary via its eigensystem."""
    w, v = np.linalg.eig(u)
    root = v @ np.diag(np.exp(0.5j * np.angle(w))) @ np.linalg.inv(v)
    if not np.allclose(root @ root, u, atol=1e-12):
        raise ArithmeticError("principal square root does not square back")
    return root


def _x_op(q: int) -> LoweredOp:
    return LoweredOp(_gate_matrix("X", None), q, None)


def _lower_controlled_matrix(matrix: np.ndarray, target: int,
                             controls: tuple[int, ...]) -> list[LoweredOp]:
    """All controls positive; returns the exact ancilla-free decomposition."""
    if not controls:
        return [LoweredOp(matrix, target, None)]
    if len(controls) == 1:
        return [LoweredOp(matrix, target, controls[0])]
    *rest, last = controls
    rest = tuple(rest)
    v = _principal_sqrt(matrix)
    x = _gate_matrix("X", None)
    out = [LoweredOp(v, target, last)]
    out += _lower_controlled_matrix(x, last, rest)
    out += [LoweredOp(v.conj().T, target, last)]
    out += _lower_controlled_matrix(x, last, rest)
    out += _lower_controlled_matrix(v, target, rest)
    return out


def lower_gate(gate: Gate) -> list[LoweredOp]:
    negs = [q for q, p in gate.controls if p == "-"]
    pos = tuple(q for q, p in gate.controls if p == "+") + tuple(negs)
    wrap = [_x_op(q) for q in negs]
    if gate.kind == "GLOBALPHASE":
        if not pos:
            return [LoweredOp(None, None, None, gate.angle)]
        *rest, last = pos
        core = _lower_controlled_matrix(
            np.diag([1.0, np.exp(1j * gate.angle)]).astype(complex),
            last, tuple(rest))
    else:
        core = _lower_controlled_matrix(_gate_matrix(gate.kind, gate.angle),
                                        gate.targets[0], pos)
    return wrap + core + list(reversed(wrap))


def lower_controls(circuit: Circuit) -> list[LoweredOp]:
    """Flatten the whole circuit to <=1-control primitives (exact)."""
    ops: list[LoweredOp] = []
    for g in circuit.gates:
        ops.extend(lower_gate(g))
    return ops


def lowered_unitary(num_qubits: int, ops: list[LoweredOp]) -> np.ndarray:
    """Dense unitary of a lowered op list (for equivalence checking)."""
    dim = 1 << num_qubits
    work = np.eye(dim, dtype=complex).reshape((2,) * num_qubits + (dim,))
    for op in ops:
        if op.matrix is None:
            work = work * np.exp(1j * op.phase_angle)
            continue
        sel: list = [slice(None)] * num_qubits
        if op.control is not None:
            sel[op.control] = 1
        apply_matrix(work, sel, op.target, op.matrix)
    return work.reshape(dim, dim)


# ------------------------------------------------------------------ emission

def _fmt(x: float) -> str:
    return repr(float(x))


def _u3_params(u: np.ndarray) -> tuple[float, float, float, float]:
    """(delta, theta, phi, lam) with u = e^{i delta} * u3(theta, phi, lam)."""
    theta = 2.0 * math.atan2(abs(u[1, 0]), abs(u[0, 0]))
    if abs(u[0, 0]) > 1e-12:
        delta = float(np.angle(u[0, 0]))
        phi = float(np.angle(u[1, 0])) - delta if abs(u[1, 0]) > 1e-12 else 0.0
        lam = float(np.angle(-u[0, 1])) - delta if abs(u[0, 1]) > 1e-12 else 0.0
    else:
        delta = 0.0
        phi = float(np.angle(u[1, 0]))
        lam = float(np.angle(-u[0, 1]))
    return delta, theta, phi, lam


_NAMED = (
    ("x", _gate_matrix("X", None)),
    ("y", _gate_matrix("Y", None)),
    ("z", _gate_matrix("Z", None)),
    ("h", _gate_matrix("H", None)),
    ("s", np.diag([1.0, 1.0j]).astype(complex)),
    ("sdg", np.diag([1.0, -1.0j]).astype(complex)),
)


def _match_named(u: np.ndarray) -> str | None:
    for name, m in _NAMED:
        if np.allclose(u, m, atol=1e-12):
            return name
    return None


def _emit_op(op: LoweredOp, lines: list[str]):
    if op.matrix is None:
        lines.append(f"// global phase exp({_fmt(op.phase_angle)}j) omitted")
        return
    u = op.matrix
    if op.control is None:
        name = _match_named(u)
        if name is not None:
            lines.append(f"{name} q[{op.target}];")
            return
        if abs(u[0, 1]) < 1e-14 and abs(u[1, 0]) < 1e-14:
            # diagonal: u1 up to the (dropped) global phase of u[0,0]
            lam = float(np.angle(u[1, 1] / u[0, 0]))
            lines.append(f"u1({_fmt(lam)}) q[{op.target}];")
            return
        _, theta, phi, lam = _u3_params(u)
        lines.append(f"u3({_fmt(theta)},{_fmt(phi)},{_fmt(lam)}) q[{op.target}];")
        return
    name = _match_named(u)
    if name in ("x", "y", "z", "h"):
        lines.append(f"c{name} q[{op.control}],q[{op.target}];")
        return
    if abs(u[0, 1]) < 1e-14 and abs(u[1, 0]) < 1e-14:
        delta = float(np.angle(u[0, 0]))
        if abs(delta) > 1e-14:
            lines.append(f"u1({_fmt(delta)}) q[{op.control}];")
        lam = float(np.angle(u[1, 1] / u[0, 0]))
        lines.append(f"cu1({_fmt(lam)}) q[{op.control}],q[{op.target}];")
        return
    delta, theta, phi, lam = _u3_params(u)
    if abs(delta) > 1e-14:
        lines.append(f"u1({_fmt(delta)}) q[{op.control}];")
    lines.append(f"cu3({_fmt(theta)},{_fmt(phi)},{_fmt(lam)}) "
                 f"q[{op.control}],q[{op.target}];")


def export_qasm(circuit: Circuit, provenance: list[str] | None = None) -> str:
    """Render the circuit as OPENQASM 2.0 text over include "qelib1.inc".

    Deterministic: same circuit and provenance lines give identical bytes.
    """
    lines = [f"// {p}" for p in (provenance or [])]
    lines += [
        "// Multi-controlled gates are lowered ancilla-free (recursive",
        "// controlled-sqrt scheme): the CNOT totals below exceed the 8k-12",
        "// counting model used by the cost reports.",
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    for op in lower_controls(circuit):
        _emit_op(op, lines)
    return "\n".join(lines) + "\n"

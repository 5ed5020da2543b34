"""OPENQASM 2.0 export.

The internal gate set allows any number of polarized controls; OPENQASM 2.0
(qelib1) stops at two.  Export therefore lowers every gate to package gates
with at most one positive control first, without leaving the gate set:

* negative controls are conjugated away with X gates;
* a controlled global phase is a PHASE on its last control;
* a k>=2-controlled X, Y or H is conjugated to Z by uncontrolled gates
  (X = H Z H, Y = S X S†, H = RY(pi/4) Z RY(-pi/4)), and Z is PHASE(pi);
* a k>=2-controlled PHASE, RX, RY or RZ at angle a becomes CV, C^{k-1}X, CV†,
  C^{k-1}X, C^{k-1}V with V the same kind at angle a/2 (Barenco et al.,
  quant-ph/9503016, Lemma 7.5), recursively;
* RZ(a) with at most one control is PHASE(a) times a global phase e^{-ia/2}
  under the same control.

The lowering is exact including global phase (uncontrolled global phases are
kept as GLOBALPHASE gates and dropped only at text emission, with a comment).
It is deliberately ancilla-free and therefore exponential in the control
count — fine for export, not a statement about gate cost; the CNOT figures in
the cost module use the 8k-12 counting model instead, and emitted files say so
in their header.  A gate with more than 16 controls is refused: 16, the
phase of a rank-8 reflection, already lowers to 12.8 million gates.
Emission is then a lookup on the gate kind.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import Circuit, Gate, unitary_of
from .errors import ResourceLimitError

_MAX_CONTROLS = 16

# Uncontrolled gates that, applied before a Z (and inverted after it), give
# the keyed kind.  Listed in circuit order.
_TO_Z = {
    "X": (("H", None),),
    "Y": (("PHASE", -math.pi / 2), ("H", None)),
    "H": (("RY", -math.pi / 4),),
}


def _lower_positive(kind: str, target: int | None, angle: float | None,
                    controls: tuple[int, ...]) -> list[Gate]:
    """kind on target under positive controls, as gates with <= 1 control."""
    if kind == "GLOBALPHASE":
        if not controls:
            return [Gate("GLOBALPHASE", (), angle)]
        *rest, last = controls
        return _lower_positive("PHASE", last, angle, tuple(rest))
    if len(controls) <= 1:
        pos = tuple((q, "+") for q in controls)
        if kind == "RZ":
            return [Gate("PHASE", (target,), angle, pos)] + \
                _lower_positive("GLOBALPHASE", None, -angle / 2.0, controls)
        return [Gate(kind, (target,), angle, pos)]
    if kind in _TO_Z:
        pre = [Gate(k, (target,), a) for k, a in _TO_Z[kind]]
        return pre + _lower_positive("Z", target, None, controls) + \
            [g.inverse() for g in reversed(pre)]
    if kind == "Z":
        return _lower_positive("PHASE", target, math.pi, controls)
    *rest, last = controls
    rest = tuple(rest)
    flip = _lower_positive("X", last, None, rest)
    return (_lower_positive(kind, target, angle / 2.0, (last,)) + flip
            + _lower_positive(kind, target, -angle / 2.0, (last,)) + flip
            + _lower_positive(kind, target, angle / 2.0, rest))


def lower_gate(gate: Gate) -> list[Gate]:
    """One gate as an exact sequence of gates with <= 1 positive control."""
    negs = tuple(q for q, p in gate.controls if p == "-")
    controls = tuple(q for q, p in gate.controls if p == "+") + negs
    wrap = [Gate("X", (q,)) for q in negs]
    target = gate.targets[0] if gate.targets else None
    return wrap + _lower_positive(gate.kind, target, gate.angle, controls) + wrap


def lower_controls(circuit: Circuit) -> list[Gate]:
    """Flatten the whole circuit to gates with at most one control, positive
    (exact, global phase included)."""
    ops: list[Gate] = []
    for g in circuit.gates:
        if len(g.controls) > _MAX_CONTROLS:
            raise ResourceLimitError(
                f"a {g.kind} with {len(g.controls)} controls is past the export "
                f"cap of {_MAX_CONTROLS}: lowering is exponential in the controls")
        ops.extend(lower_gate(g))
    return ops


def lowered_unitary(num_qubits: int, ops: list[Gate]) -> np.ndarray:
    """Dense unitary of a lowered gate list (for equivalence checking)."""
    return unitary_of(Circuit(num_qubits, list(ops)))


# ------------------------------------------------------------------ emission

def _fmt(x: float) -> str:
    return repr(float(x))


# qelib1 name of each kind that survives lowering (RZ does not)
_NAMES = {"X": "x", "Y": "y", "Z": "z", "H": "h",
          "PHASE": "u1", "RX": "u3", "RY": "u3"}
# u3(a, phi, lam) equals RX(a) and RY(a) exactly (no global phase)
_U3_PHASES = {"RX": (-math.pi / 2, math.pi / 2), "RY": (0.0, 0.0)}


def _emit(gate: Gate) -> str:
    """The qelib1 line of one lowered gate; a bare global phase becomes a
    comment."""
    if gate.kind == "GLOBALPHASE":
        return f"// global phase exp({_fmt(gate.angle)}j) omitted"
    name = _NAMES[gate.kind]
    if gate.angle is not None:
        params = (gate.angle,) + _U3_PHASES.get(gate.kind, ())
        name += "(" + ",".join(_fmt(p) for p in params) + ")"
    if gate.controls:
        return f"c{name} q[{gate.controls[0][0]}],q[{gate.targets[0]}];"
    return f"{name} q[{gate.targets[0]}];"


def export_qasm(circuit: Circuit, provenance: list[str] | None = None) -> str:
    """Render the circuit as OPENQASM 2.0 text over include "qelib1.inc".

    Deterministic: same circuit and provenance lines give identical bytes.
    """
    lines = [f"// {p}" for p in (provenance or [])]
    lines += [
        "// Multi-controlled gates are lowered ancilla-free (recursive",
        "// controlled half-angle scheme): the CNOT totals below exceed the",
        "// 8k-12 counting model used by the cost reports.",
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    lines += [_emit(g) for g in lower_controls(circuit)]
    return "\n".join(lines) + "\n"

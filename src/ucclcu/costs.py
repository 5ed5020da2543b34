"""CNOT-count model for the block-encoding pipeline and the staircase
baseline, plus the comparison table.

Counting conventions: every k>=2-controlled operator costs 8k-12 CNOTs, a
singly-controlled single-qubit Pauli/phase costs its direct construction
(the figures below fold those in); QASM-exported decompositions may exceed
this model and say so in their header.  `realized_cnot_count` applies the
same conventions to an emitted circuit, so the two can be compared.
"""

from __future__ import annotations

import math

from .circuit import Circuit, Gate
from .fermion import UccFactor, excitation_pauli_sum

CSV_HEADER = "rank,cascade,lcu_total,prepare,select_total"


def _check_rho(n: int, rho) -> tuple[int, ...]:
    rho = tuple(int(r) for r in rho)
    if len(rho) != 2 * n - 2:
        raise ValueError(f"rho must have length 2n-2 = {2 * n - 2}, got {len(rho)}")
    if any(r < 0 for r in rho):
        raise ValueError("rho entries must be >= 0")
    return rho


def prepare_cnot_count(n: int) -> int:
    """The paper's loader model: 2n + 2 sum_{k=2}^{2n-1} (8k-12)(2n+1-k)
    CNOTs.  The emitted thermometer loader (`synth_prepare`) costs 8n-5."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    total = 2 * n + 2 * sum((8 * k - 12) * (2 * n + 1 - k)
                            for k in range(2, 2 * n))
    closed_num = 2 * (32 * n ** 3 - 24 * n ** 2 - 41 * n + 36)
    if closed_num % 3 or total != closed_num // 3:
        raise ArithmeticError(f"prepare count {total} misses its closed form")
    return total


def select_cnot_counts(n: int, rho) -> tuple[int, int]:
    """(step CNOTs, reference-initialization CNOTs) = (4n-2, 4n + sum rho)."""
    rho = _check_rho(n, rho)
    return 4 * n - 2, 4 * n + sum(rho)


def total_lcu_count(n: int, rho) -> int:
    """Full pipeline: 6 prepare + 3 (8n-2 + sum rho) CNOTs (W, W†, and one
    round's reflections fold into the 6x/3x multiplicities)."""
    rho = _check_rho(n, rho)
    total = 6 * prepare_cnot_count(n) + 3 * (8 * n - 2 + sum(rho))
    closed = 128 * n ** 3 - 96 * n ** 2 - 140 * n + 138 + 3 * sum(rho)
    if total != closed:
        raise ArithmeticError(f"LCU count {total} misses its closed form {closed}")
    return total


def realized_cnot_count(circuit: Circuit) -> int:
    """CNOTs of an emitted circuit under the model's own conventions.

    Per gate with k controls (negative controls are free X conjugations):
    k >= 2 costs 8k-12; k = 1 costs 1 for X, Y, Z or H (a controlled Pauli,
    or a CZ between basis changes) and 2 for RX, RY, RZ or PHASE (the
    standard controlled-rotation construction); k = 0 costs 0.  A GLOBALPHASE
    with k controls is a PHASE on one control with k-1 controls.
    """
    total = 0
    for gate in circuit.gates:
        kind, k = gate.kind, len(gate.controls)
        if kind == "GLOBALPHASE":
            kind, k = "PHASE", k - 1
        if k >= 2:
            total += 8 * k - 12
        elif k == 1:
            total += 1 if kind in ("X", "Y", "Z", "H") else 2
    return total


def cascade_count(n: int, rho) -> int:
    """Staircase baseline: 2^{2n} (2n-1 + sum rho) CNOTs — one CNOT ladder of
    length (string weight - 1) each side for each of the 2^{2n-1} strings,
    no cancellation between neighbors."""
    rho = _check_rho(n, rho)
    return (1 << (2 * n)) * (2 * n - 1 + sum(rho))


def synth_cascade(f: UccFactor) -> Circuit:
    """Rotation staircase over the factor's commuting excitation strings.

    Per string: basis changes (H for X; S†,H entering and H,S leaving for Y),
    a CNOT ladder over the support, the central RZ, and the ladder reversed.
    The strings commute, so the product equals exp(theta (A - A†)) exactly.
    """
    circ = Circuit(f.num_qubits)
    half_pi = math.pi / 2
    for string, coeff in excitation_pauli_sum(f).terms():
        support = string.support()
        lam = -2.0 * (f.theta * coeff).imag
        enter: list[Gate] = []
        for q in support:
            has_x = bool(string.x_mask & (1 << (f.num_qubits - 1 - q)))
            has_z = bool(string.z_mask & (1 << (f.num_qubits - 1 - q)))
            if has_x and has_z:
                enter += [Gate("PHASE", (q,), -half_pi), Gate("H", (q,))]
            elif has_x:
                enter += [Gate("H", (q,))]
        ladder = [Gate("X", (b,), controls=((a, "+"),))
                  for a, b in zip(support, support[1:])]
        circ.extend(enter)
        circ.extend(ladder)
        circ.append(Gate("RZ", (support[-1],), lam))
        circ.extend(reversed(ladder))
        for g in reversed(enter):
            circ.append(g.inverse())
    return circ


def emit_comparison(n_max: int, rho_fill: int = 0) -> list[tuple[int, int, int, int, int]]:
    """Rows (rank, cascade, lcu_total, prepare, select_total) for 1..n_max,
    each rank's gap list filled uniformly with rho_fill."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = []
    for n in range(1, n_max + 1):
        rho = [rho_fill] * (2 * n - 2)
        steps, init = select_cnot_counts(n, rho)
        rows.append((n, cascade_count(n, rho), total_lcu_count(n, rho),
                     prepare_cnot_count(n), steps + init))
    return rows


def comparison_csv(n_max: int, rho_fill: int = 0,
                   provenance: list[str] | None = None) -> str:
    lines = [f"# {line}" for line in (provenance or [])]
    lines.append(CSV_HEADER)
    for row in emit_comparison(n_max, rho_fill):
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"

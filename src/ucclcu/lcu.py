"""Assembly of the block encoding W = (B† ⊗ 1) · SELECT · (B ⊗ 1), its
ancilla-zero block, and exact multi-round oblivious amplitude amplification.

Wire layout: main ancilla code wires 0..2n-1 (wire 0 = sector), then the pad
wire 2n when padding is engaged, then the system register.

The coefficient one-norm s fixes everything: postselection succeeds with
probability 1/s², and m amplification rounds are exact precisely when s equals
s_m = 1/sin(pi/(2(2m+1))) (s_0 = 1, s_1 = 2, s_2 ≈ 3.23607).  For any other s
the bank is padded: one extra ancilla wire carries an identity-labeled branch
of weight c = (s_m - s)/2 whose sign is flipped by a bare Z on that wire,
while +c is folded into the identity code of the main bank — the identity
contributions cancel, and the padded one-norm lands on s_m exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, apply_circuit
from .fermion import UccFactor, exact_unitary
from .pauli import check_dense
from .prepare import lcu_coefficients, synth_prepare
from .select import derive_select_plan, synth_select

#: pad engages above this surplus; below it the s_m mismatch is float dust
_PAD_THRESHOLD = 5e-13


def exact_amplification_one_norm(m: int) -> float:
    """s_m = 1/sin(pi/(2(2m+1))): the one-norm at which m rounds are exact."""
    if m < 0:
        raise ValueError("round count must be >= 0")
    return 1.0 / math.sin(math.pi / (2.0 * (2 * m + 1)))


def _pad_weight(s: float, s_target: float) -> float:
    """Pad weight c = (s_target - s)/2, or 0 when it is float dust."""
    c = (s_target - s) / 2.0
    return c if c > _PAD_THRESHOLD else 0.0


def assemble_w(f: UccFactor, s_target: float | None = None) -> Circuit:
    """W = (B† ⊗ 1) · SELECT · (B ⊗ 1) for one factor; the only W builder.

    With s_target above the one-norm s, the bank gains the pad wire 2n: an RY
    on it loads the branch of weight c = (s_target - s)/2, B is anticontrolled
    on it and loads +c extra on the identity code, and a Z on the pad wire
    gives the pad branch -c.  The identity contributions cancel and the
    one-norm becomes s_target.  The Z needs no controls: with B off, the pad
    branch keeps the main bank at all zeros, which the X alignment maps to
    the identity code.

    PREPARE places the identity coefficient on the all-zeros code while the
    plan maps plan.identity_code to the identity string, so SELECT is
    conjugated by X gates on the set bits of identity_code.
    """
    n = f.rank
    na = 2 * n
    plan = derive_select_plan(f)
    c = 0.0 if s_target is None else \
        _pad_weight(lcu_coefficients(n, f.theta).s_one_norm, s_target)
    pad = 1 if c else 0
    prep = synth_prepare(n, f.theta, identity_offset=c).gates
    select = synth_select(f, plan, system_offset=na + pad)
    code = [(w, "+" if (plan.identity_code >> (na - 1 - w)) & 1 else "-")
            for w in range(na)]
    if pad:
        prep = [Gate("RY", (na,), 2.0 * math.asin(math.sqrt(c / s_target)))] + \
            [Gate(g.kind, g.targets, g.angle, g.controls + ((na, "-"),))
             for g in prep]
        select.append(Gate("Z", (na,)))
    align = [Gate("X", (w,)) for w, pol in code if pol == "+"]
    circ = Circuit(select.num_qubits, num_ancilla=select.num_ancilla)
    circ.extend(prep + align + select.gates + align)
    circ.extend(g.inverse() for g in reversed(prep))
    return circ


def reflection_on_ancilla(num_ancilla: int) -> list[Gate]:
    """R = 1 - 2|0..0><0..0| on the ancilla block, as X · (anticontrolled
    PHASE(pi)) · X on wire 0."""
    controls = tuple((q, "-") for q in range(1, num_ancilla))
    return [Gate("X", (0,)),
            Gate("PHASE", (0,), math.pi, controls),
            Gate("X", (0,))]


@dataclass
class LcuAssembly:
    """Everything the verifier and the CLI need about one assembled factor."""

    s_one_norm: float
    s_effective: float
    pad_qubits: int
    oaa_rounds: int
    w_circuit: Circuit
    oaa_circuit: Circuit


def pad_and_synth_oaa(f: UccFactor) -> LcuAssembly:
    """Pad the one-norm to the nearest exact-amplification value and emit the
    m-round amplification circuit -W R W† R ... W.

    The rounds are the smallest m with s_m >= s.  If s overshoots s_m by
    float dust, the next m is taken and padding keeps the protocol exact.
    """
    s = lcu_coefficients(f.rank, f.theta).s_one_norm
    m = 0
    while exact_amplification_one_norm(m) < s:
        m += 1
    s_m = exact_amplification_one_norm(m)
    w = assemble_w(f, s_target=s_m)

    oaa = Circuit(w.num_qubits, list(w.gates), w.num_ancilla)
    if m > 0:
        reflect = reflection_on_ancilla(w.num_ancilla)
        w_dag = w.compose_adjoint()
        for _ in range(m):
            oaa.extend(reflect)
            oaa.extend(w_dag.gates)
            oaa.extend(reflect)
            oaa.extend(w.gates)
            oaa.append(Gate("GLOBALPHASE", (), math.pi))

    s_eff = s + 2.0 * _pad_weight(s, s_m)
    if m and abs(s_eff - s_m) > 1e-12:
        raise RuntimeError(f"padded one-norm {s_eff!r} misses s_m = {s_m!r}; "
                           "synthesis bug")
    return LcuAssembly(s, s_eff, w.num_ancilla - 2 * f.rank, m, w, oaa)


def ancilla_zero_block(circuit: Circuit) -> tuple[np.ndarray, float]:
    """(⟨0|_anc C |0⟩_anc as a system matrix, spectral norm of the leakage)."""
    num_sys = circuit.num_qubits - circuit.num_ancilla
    check_dense(circuit.num_qubits, num_sys, "ancilla-zero column batch")
    dim_sys = 1 << num_sys
    cols = np.zeros((1 << circuit.num_qubits, dim_sys), dtype=complex)
    cols[:dim_sys] = np.eye(dim_sys)
    out = apply_circuit(circuit, cols)
    block = out[:dim_sys]
    leakage = float(np.linalg.norm(out[dim_sys:], 2)) if out.shape[0] > dim_sys else 0.0
    return block, leakage


def phase_aligned_deviation(matrix: np.ndarray,
                            reference: np.ndarray) -> tuple[float, float]:
    """min_phi ||e^{i phi} M - U||_2 and the minimizing phi.

    phi maximizes Re(e^{i phi} tr(U† M)); the reported deviation is the
    spectral norm at that phi.
    """
    overlap = np.trace(reference.conj().T @ matrix)
    phi = 0.0 if abs(overlap) < 1e-12 else float(-np.angle(overlap))
    deviation = float(np.linalg.norm(np.exp(1j * phi) * matrix - reference, 2))
    return deviation, phi


@dataclass(frozen=True, slots=True)
class EndToEndReport:
    theta: float
    mode: str
    s_one_norm: float
    s_effective: float
    rounds: int
    pad_qubits: int
    deviation: float
    leakage: float
    phase_alignment: float
    success_probability: float | None
    tolerance: float
    passed: bool


def verify_end_to_end(f: UccFactor, mode: str = "oaa",
                      tolerance: float = 1e-8) -> EndToEndReport:
    """Compare the realized system block against the exact unitary.

    mode "postselect": unpadded W; deviation of s·⟨0|W|0⟩ from U after global
    phase alignment, plus the success-probability cross-check p = 1/s².
    mode "oaa": padded m-round amplification; the block itself must equal U
    and the ancilla leakage must vanish, both within tolerance.  A block over
    the dense cap is refused before the 2^N reference unitary is built.
    """
    if mode not in ("postselect", "oaa"):
        raise ValueError("mode must be 'postselect' or 'oaa'")
    if mode == "postselect":
        circuit = assemble_w(f)
    else:
        assembly = pad_and_synth_oaa(f)
        circuit = assembly.oaa_circuit
    check_dense(circuit.num_qubits, f.num_qubits, "ancilla-zero column batch")
    reference = exact_unitary(f)
    block, leakage = ancilla_zero_block(circuit)
    if mode == "postselect":
        s = lcu_coefficients(f.rank, f.theta).s_one_norm
        deviation, phi = phase_aligned_deviation(s * block, reference)
        probability = float(np.linalg.norm(block, 2) ** 2)
        prob_ok = abs(probability - 1.0 / (s * s)) <= 1e-9
        return EndToEndReport(f.theta, mode, s, s, 0, 0, deviation, leakage,
                              phi, probability, tolerance,
                              deviation <= tolerance and prob_ok)
    deviation, phi = phase_aligned_deviation(block, reference)
    return EndToEndReport(f.theta, mode, assembly.s_one_norm,
                          assembly.s_effective, assembly.oaa_rounds,
                          assembly.pad_qubits, deviation, leakage, phi, None,
                          tolerance,
                          deviation <= tolerance and leakage <= tolerance)

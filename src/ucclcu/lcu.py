"""Assembly of the block encoding W = (B† ⊗ 1) · SELECT · (B ⊗ 1), its
ancilla-zero block, and exact multi-round oblivious amplitude amplification.

Wire layout: ancilla code wires 0..2n-1 (wire 0 = sector), then the system
register.

The coefficient one-norm s fixes everything: ⟨0|W|0⟩ = U/s, so
postselection succeeds with probability 1/s².  Amplification runs m rounds
of R_φ W† R_φ W after W, R_φ = 1 - (1 - e^{iφ})|0⟩⟨0| on the code wires, with
the smallest m whose level s_m = 1/sin(pi/(2(2m+1))) reaches s (s_0 = 1,
s_1 = 2, s_2 ≈ 3.23607).  On the 2×2 model of the oblivious-amplification
lemma (Berry, Childs, Cleve, Kothari & Somma, arXiv:1312.1414) W is the
rotation [[1/s, -b], [b, 1/s]], b = sqrt(1 - 1/s²), and R_φ is
diag(e^{iφ}, 1).  Long's phase matching (G. L. Long, PRA 64, 022307 (2001),
quant-ph/0106071) makes the m rounds exact for every s ≤ s_m with
φ = 2 asin(s/s_m): the (0,0) entry of (W R_φ Wᵀ R_φ)^m W then has modulus 1.
At s = s_m, φ = pi and R_φ is the plain reflection 1 - 2|0⟩⟨0|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, apply_circuit, restrict
from .fermion import UccFactor, chain_qubits, exact_unitary
from .pauli import check_dense
from .prepare import lcu_coefficients, synth_prepare
from .select import synth_select


def exact_amplification_one_norm(m: int) -> float:
    """s_m = 1/sin(pi/(2(2m+1))): the one-norm at which m rounds are exact."""
    if m < 0:
        raise ValueError("round count must be >= 0")
    return 1.0 / math.sin(math.pi / (2.0 * (2 * m + 1)))


def assemble_w(f: UccFactor) -> Circuit:
    """W = (B† ⊗ 1) · SELECT · (B ⊗ 1) for one factor; the only W builder.

    B loads sqrt(|alpha| / s) on the 2n code wires, code 0 holding the
    identity weight, and SELECT maps code 0 to the identity string and
    carries every coefficient phase, so ⟨0|W|0⟩ = U/s with no extra phase.
    """
    prep = synth_prepare(f.rank, f.theta).gates
    select = synth_select(f)
    circ = Circuit(select.num_qubits, num_ancilla=select.num_ancilla)
    circ.extend(prep + select.gates + [g.inverse() for g in reversed(prep)])
    return circ


def reflection_on_ancilla(num_ancilla: int, phi: float) -> list[Gate]:
    """R_φ = 1 - (1 - e^{iφ})|0..0><0..0| on the ancilla block: one
    GLOBALPHASE(φ) anticontrolled on every ancilla wire, the shape of
    SELECT's code-0 phase; φ = pi is the reflection 1 - 2|0..0><0..0|."""
    return [Gate("GLOBALPHASE", (), phi,
                 tuple((q, "-") for q in range(num_ancilla)))]


def matched_phases(s: float) -> tuple[int, float, float]:
    """(m, φ, χ) for the one-norm s.

    m is the smallest round count with s_m >= s, so float dust above s_m
    takes the next m; φ = 2 asin(s/s_m) is the matched reflection phase; and
    χ is minus the argument of the (0,0) entry of the 2×2 model
    (W R_φ Wᵀ R_φ)^m W, the uncontrolled phase that makes the amplified
    block U itself.
    """
    m = 0
    while exact_amplification_one_norm(m) < s:
        m += 1
    phi = 2.0 * math.asin(s / exact_amplification_one_norm(m))
    a = 1.0 / s
    b = math.sqrt(1.0 - a * a)
    turn = complex(math.cos(phi), math.sin(phi))
    x, y = complex(a), complex(b)  # W|0>
    for _ in range(m):
        x *= turn
        x, y = a * x + b * y, a * y - b * x  # Wᵀ
        x *= turn
        x, y = a * x - b * y, b * x + a * y  # W
    return m, phi, -math.atan2(x.imag, x.real)


@dataclass
class LcuAssembly:
    """Everything the verifier and the CLI need about one assembled factor;
    s_effective is the level s_m that the reflection phase is matched to,
    and pad_qubits is always 0 (see `pad_and_synth_oaa`)."""

    s_one_norm: float
    s_effective: float
    pad_qubits: int
    oaa_rounds: int
    w_circuit: Circuit
    oaa_circuit: Circuit


def pad_and_synth_oaa(f: UccFactor) -> LcuAssembly:
    """Emit the m-round amplification circuit: W, then m times R_φ, W†,
    R_φ, W, then one uncontrolled GLOBALPHASE(χ), with (m, φ, χ) from
    `matched_phases`; its ancilla-zero block equals U.  With m = 0 (s = 1
    and sin θ = 0, as at θ = 0) it is W.

    The name, `s_effective` and `pad_qubits` come from a construction that
    padded the one-norm up to s_m on an extra ancilla wire; they stay
    because the benchmark under `bench/` reads them.
    """
    s = lcu_coefficients(f.rank, f.theta).s_one_norm
    # s rounds to 1 where |sin θ| is below half an ulp, yet W leaks
    # sqrt(2 |sin θ|): match the next float above 1, which takes one round
    nudged = max(s, math.nextafter(1.0, 2.0)) if math.sin(f.theta) else s
    m, phi, chi = matched_phases(nudged)
    w = assemble_w(f)
    oaa = Circuit(w.num_qubits, list(w.gates), w.num_ancilla)
    if m > 0:
        reflect = reflection_on_ancilla(w.num_ancilla, phi)
        w_dag = w.compose_adjoint()
        for _ in range(m):
            oaa.extend(reflect)
            oaa.extend(w_dag.gates)
            oaa.extend(reflect)
            oaa.extend(w.gates)
        oaa.append(Gate("GLOBALPHASE", (), chi))
    return LcuAssembly(s, exact_amplification_one_norm(m), 0, m, w, oaa)


def ancilla_zero_block(circuit: Circuit) -> tuple[np.ndarray, float]:
    """(⟨0|_anc C |0⟩_anc as a system matrix, spectral norm of the leakage L,
    taken as sqrt(max eigvalsh(L^H L)): unlike an SVD of the tall L, its
    digits do not follow the BLAS thread count)."""
    num_sys = circuit.num_qubits - circuit.num_ancilla
    check_dense(circuit.num_qubits, num_sys, "ancilla-zero column batch")
    dim_sys = 1 << num_sys
    cols = np.zeros((1 << circuit.num_qubits, dim_sys), dtype=complex)
    cols[:dim_sys] = np.eye(dim_sys)
    out = apply_circuit(circuit, cols)
    leak = out[dim_sys:]
    gram_max = float(np.linalg.eigvalsh(leak.conj().T @ leak)[-1])
    return out[:dim_sys], math.sqrt(max(gram_max, 0.0))


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
    s_one_norm: float
    rounds: int
    deviation: float
    leakage: float
    success_probability: float | None
    passed: bool


def verify_end_to_end(f: UccFactor, mode: str = "oaa",
                      tolerance: float = 1e-8) -> EndToEndReport:
    """Compare the realized system block against the exact unitary.

    mode "postselect": W; deviation of s·⟨0|W|0⟩ from U after global phase
    alignment, plus the success-probability cross-check p = 1/s².
    mode "oaa": m-round phase-matched amplification; the block itself, with
    no phase alignment, must equal U and the ancilla leakage must vanish,
    both within tolerance.

    Only the 2n actives and the first chain wire, if any, are simulated: the
    emitted circuits touch the other system wires (spectators) only with
    sector-controlled Z's on chain wires, so the block with spectators held
    at |0⟩ by `restrict` is matched against the factor re-indexed onto the
    kept wires, and the dense cap judges that block.  A gate that can move
    a spectator fails the check (deviation and leakage inf).
    """
    if mode not in ("postselect", "oaa"):
        raise ValueError("mode must be 'postselect' or 'oaa'")
    s = lcu_coefficients(f.rank, f.theta).s_one_norm
    if mode == "postselect":
        circuit, known = assemble_w(f), (s, 0)
    else:
        assembly = pad_and_synth_oaa(f)
        circuit, known = assembly.oaa_circuit, (s, assembly.oaa_rounds)
    kept = sorted(set(f.actives) | set(chain_qubits(f)[:1]))
    spectators = set(range(f.num_qubits)) - set(kept)
    try:
        circuit = restrict(circuit, {circuit.num_ancilla + q for q in spectators})
    except ValueError:
        return EndToEndReport(*known, math.inf, math.inf, None, False)
    block, leakage = ancilla_zero_block(circuit)
    reference = exact_unitary(UccFactor(
        tuple(map(kept.index, f.occupied)), tuple(map(kept.index, f.virtuals)),
        f.theta, len(kept)))
    if mode == "postselect":
        deviation, _ = phase_aligned_deviation(s * block, reference)
        probability = float(np.linalg.norm(block, 2) ** 2)
        prob_ok = abs(probability - 1.0 / (s * s)) <= 1e-9
        return EndToEndReport(*known, deviation, leakage, probability,
                              deviation <= tolerance and prob_ok)
    deviation = float(np.linalg.norm(block - reference, 2))
    return EndToEndReport(*known, deviation, leakage, None,
                          deviation <= tolerance and leakage <= tolerance)

"""Assembly of the block encoding W = (B† ⊗ 1) · SELECT · (B_ket ⊗ 1), its
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
from .errors import ResourceLimitError
from .fermion import UccFactor, chain_qubits, exact_unitary
from .pauli import check_dense
from .prepare import _loader_pair, lcu_coefficients
from .select import synth_select


def exact_amplification_one_norm(m: int) -> float:
    """s_m = 1/sin(pi/(2(2m+1))): the one-norm at which m rounds are exact."""
    if m < 0:
        raise ValueError("round count must be >= 0")
    return 1.0 / math.sin(math.pi / (2.0 * (2 * m + 1)))


def assemble_w(f: UccFactor) -> Circuit:
    """W = (B† ⊗ 1) · SELECT · (B_ket ⊗ 1) for one factor; the only W builder.

    B loads beta_c = sqrt(|alpha_c| / s) on the 2n code wires, code 0
    holding the identity weight, and B_ket loads sigma_c beta_c, sigma_c
    being +1 on code 0 and -1 elsewhere; both come from one angle list
    (`prepare`).  SELECT maps code 0 to the identity string and carries
    every coefficient phase over sigma, so ⟨0|W|0⟩ = Σ_c sigma_c |beta_c|²
    i^{t_c} P_c = U/s with no extra phase.  W is unitary, and that block is
    all the amplification below reads.
    """
    ket, unprepare = _loader_pair(f.rank, f.theta)
    select = synth_select(f)
    return Circuit(select.num_qubits, ket + select.gates + unprepare,
                   select.num_ancilla)


def reflection_on_ancilla(num_ancilla: int, phi: float) -> list[Gate]:
    """R_φ = 1 - (1 - e^{iφ})|0..0><0..0| on the ancilla block: one
    GLOBALPHASE(φ) anticontrolled on every ancilla wire, the only gate of W
    or the amplification with more than one control; φ = pi is the
    reflection 1 - 2|0..0><0..0|."""
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


def _spectral_norm(blocks: np.ndarray) -> float:
    """max ||M||_2 over a batch of M (..., rows, 2): sqrt of the top eigenvalue
    of the 2×2 Grams MᴴM.  No BLAS runs, so no digit follows its threads."""
    gram = np.einsum("...ri,...rj->...ij", blocks.conj(), blocks)
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[..., -1].max()), 0.0))


def _pair_rows(n: int, mask: int) -> np.ndarray:
    """[y, y ^ mask] for each y < 2^n whose pivot bit, mask's highest, is 0."""
    low = np.flatnonzero(~np.arange(1 << n) & 1 << mask.bit_length() >> 1)
    return np.stack([low, low ^ mask], axis=1)


def ancilla_zero_block(circuit: Circuit, mask: int) -> tuple[np.ndarray, float]:
    """(⟨0|_anc C |0⟩_anc on the pairs {y, y ^ mask} in `_pair_rows` order,
    shape (pairs, 2, 2); the leakage's spectral norm) from two columns, the
    sums of |0⟩|y⟩ over pivot bit 0 and 1.  ValueError unless every system
    gate is an X, Y, Z, PHASE or RZ controlled on ancillas, and in each run
    of them (cut by an H, X, Y, RX or RY on an ancilla) the X's and Y's that
    fire on a code flip no wire or all of mask: then pairs never meet."""
    na, nq = circuit.num_ancilla, circuit.num_qubits
    check_dense(nq, 1, "two-column batch")
    codes, flips = np.arange(1 << na), np.zeros(1 << na, dtype=np.int64)
    for g in [*circuit.gates, None]:  # None closes the last run
        t = g.targets[0] if g is not None and g.targets else -1
        if t >= na and (g.kind not in ("X", "Y", "Z", "PHASE", "RZ") or
                        any(q >= na for q, _ in g.controls)):
            raise ValueError(f"{g} can leave the pairs")
        if t >= na and g.kind in ("X", "Y"):
            on = sum(1 << (na - 1 - q) for q, _ in g.controls)
            fire = sum(1 << (na - 1 - q) for q, p in g.controls if p == "+")
            flips[codes & on == fire] ^= 1 << (nq - 1 - t)
        elif (g is None or g.kind in ("H", "X", "Y", "RX", "RY")) and flips.any():
            if not np.all((flips == 0) | (flips == mask)):
                raise ValueError("a run of system gates leaves the pairs")
            flips[:] = 0
    rows = _pair_rows(nq - na, mask)
    cols = np.zeros((1 << nq, 2), dtype=complex)
    cols[rows, [0, 1]] = 1.0
    out = apply_circuit(circuit, cols).reshape(1 << na, -1, 2)[:, rows]
    return out[0], _spectral_norm(np.moveaxis(out[1:], 0, 1).reshape(
        len(rows), -1, 2))


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
    """Compare the realized system block against the exact unitary U as it
    stands: W carries no global phase and the amplified block is U itself,
    so no phase is searched for.  Mode "postselect" runs W: the deviation
    ||s·⟨0|W|0⟩ - U||_2 must be within tolerance and the success probability
    p = ||⟨0|W|0⟩||_2² within 1e-9 of 1/s².  Mode "oaa" runs m phase-matched
    rounds: ||⟨0|OAA|0⟩ - U||_2 and the leakage must be within tolerance.

    Only the 2n actives and the first chain wire, if any, are simulated: the
    emitted circuits touch the other system wires (spectators) only with
    sector-controlled Z's on chain wires, so the block with spectators held
    at |0⟩ by `restrict` is matched against the factor re-indexed onto the
    kept wires.  Past 11 kept wires (rank 6) ResourceLimitError comes first.

    Pairs: each SELECT code applies X on none or all of the actives A, so C
    maps |0⟩|y⟩ into span{|a⟩|y⟩, |a⟩|y ⊕ A⟩} and U mixes y with y ⊕ A
    alone: each norm is the largest over the 2×2 pair blocks.  U nonzero off
    the pairs, or a circuit that `ancilla_zero_block` refuses or that moves a
    spectator, gives deviation inf.  Tolerance < 0, inf or NaN: ValueError.
    """
    if mode not in ("postselect", "oaa"):
        raise ValueError("mode must be 'postselect' or 'oaa'")
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    kept = sorted(set(f.actives) | set(chain_qubits(f)[:1]))
    if len(kept) > 11:
        raise ResourceLimitError(
            f"verify on {len(kept)} wires exceeds the cap of 11 (rank 5)")
    s = lcu_coefficients(f.rank, f.theta).s_one_norm
    if mode == "postselect":
        circuit, rounds, scale = assemble_w(f), 0, s
    else:
        assembly = pad_and_synth_oaa(f)
        circuit, rounds, scale = assembly.oaa_circuit, assembly.oaa_rounds, 1.0
    mask = sum(1 << (len(kept) - 1 - kept.index(q)) for q in f.actives)
    try:
        circuit = restrict(circuit, {circuit.num_ancilla + q for q in
                                     range(f.num_qubits) if q not in kept})
        block, leakage = ancilla_zero_block(circuit, mask)
    except ValueError:
        return EndToEndReport(s, rounds, math.inf, math.inf, None, False)
    reference = exact_unitary(UccFactor(
        tuple(map(kept.index, f.occupied)), tuple(map(kept.index, f.virtuals)),
        f.theta, len(kept)))
    rows = _pair_rows(len(kept), mask)
    paired = reference[rows[:, :, None], rows[:, None, :]]
    deviation = _spectral_norm(scale * block - paired) \
        if np.count_nonzero(paired) == np.count_nonzero(reference) else math.inf
    if mode == "postselect":
        probability = _spectral_norm(block) ** 2
        prob_ok = abs(probability - 1.0 / (s * s)) <= 1e-9
        return EndToEndReport(s, rounds, deviation, leakage, probability,
                              deviation <= tolerance and prob_ok)
    return EndToEndReport(s, rounds, deviation, leakage, None,
                          deviation <= tolerance and leakage <= tolerance)

"""PREPARE synthesis: load LCU coefficient amplitudes onto the 2n-qubit
ancilla bank.

The loader B loads amplitudes of magnitude sqrt(|alpha_m| / s) as a
thermometer code on the 2n code wires, with one conditional-mass angle a_w
per wire and 6n-3 gates of at most one control each: RX(a_0) on wire 0;
for w = 1..2n-1, X on wire w controlled on wire w-1 (H on the last wire),
then RY(a_w) on wire w anticontrolled on wire w-1; then, for w = 2n-2 down
to 1, H on wire w controlled on wire w-1.  Before those closing H's, every
wire below the last holds 1 exactly when the first set wire is at or before
it, so "wire w-1 is 0" means "wires 0..w-1 are all 0", and each RY fires
only on the branch whose mass it splits.  The closing H's run downwards, so
each control still reads its thermometer bit; they turn every 1 after the
first set wire into |->, next to the |+> the last wire's H left.  A code
whose first set wire is k thus has |amplitude|^2 = prod_{i<k} cos^2(a_i/2)
sin^2(a_k/2) 2^-(2n-1-k), and code 0 has prod_i cos^2(a_i/2).

W = B† · SELECT · B_ket pairs B with a ket loader of its own, the
state-preparation pair of the LCU lemma (Gilyen, Su, Low & Wiebe,
arXiv:1806.01838).  B_ket is B at two shifted angles, so it costs no gate:
RX(a_0 + 2 pi) = -RX(a_0) puts -1 on every code, and the last RY at
2 pi - a is -RY(-a), which fires only where wires 0..2n-2 are all 0 and
there writes -cos(a/2) on code 0 and the same sin(a/2) on code 1.  So B_ket
loads sigma_c beta_c, with sigma_c = +1 on code 0 and -1 on every other
code.  In the pair product conj(beta_c) sigma_c beta_c = sigma_c |alpha_c| / s
the |-> signs cancel against their bra-side conjugates and sigma stays.
SELECT realizes every other coefficient phase: the i of i sin(theta), the
sign of sin(theta), the per-string signs, and the sign of cos(theta) - 1
over sigma.

The paper's closed-form angles are kept as `prepare_angles` for reference.
Under the full-angle reading exp(-i theta P) they load |alpha_m| themselves,
not sqrt(|alpha_m| / s), so no circuit is built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, apply_circuit
from .errors import AngleDomainError
from .pauli import check_dense


@dataclass(frozen=True, slots=True)
class LcuCoefficients:
    """Coefficient families of a rank-n factor's expansion.

    identity_coeff = 1 + (cos theta - 1)/2^{2n-1}          (multiplicity 1)
    projector_coeff = (cos theta - 1)/2^{2n-1}             (multiplicity 2^{2n-1} - 1)
    excitation_coeff = i sin(theta)/2^{2n-1}               (multiplicity 2^{2n-1};
                                                            per-string signs live
                                                            in the select plan)
    s_one_norm = sum of |alpha| over all 2^{2n} terms.
    """

    rank: int
    theta: float
    identity_coeff: float
    projector_coeff: float
    excitation_coeff: complex
    s_one_norm: float

    @property
    def sector_size(self) -> int:
        return 1 << (2 * self.rank - 1)


def _check_theta(theta: float):
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")


def lcu_coefficients(n: int, theta: float) -> LcuCoefficients:
    if not 1 <= n <= 512:  # 2^{2n-1} must be a float
        raise ValueError(f"rank must be in 1..512 (2^(2n-1) is a float), got {n}")
    _check_theta(theta)
    m = 1 << (2 * n - 1)
    identity = 1.0 + (math.cos(theta) - 1.0) / m
    projector = (math.cos(theta) - 1.0) / m
    excitation = 1j * math.sin(theta) / m
    s = abs(identity) + (m - 1) * abs(projector) + m * abs(excitation)
    return LcuCoefficients(n, theta, identity, projector, excitation, s)


def _checked_arcsin(arg: float, where: str) -> float:
    if abs(arg) > 1.0 + 1e-12:
        raise AngleDomainError(f"arcsin argument {arg!r} out of [-1,1] in {where}")
    return math.asin(max(-1.0, min(1.0, arg)))


def prepare_angles(n: int, theta: float) -> tuple[float, ...]:
    """Closed-form analytic angles for the level structure.

    Theta_1 = arcsin(-sin(theta) / sqrt(2^{2n-1}));
    Theta_k = arcsin((cos(theta) - 1) / sqrt(D_k)) with
    D_k = 2^{2n-2+k} - 2^k + 2 + 2 cos^2(theta) + (2^k - 4) cos(theta),
    for 2 <= k <= 2n.  Domain membership of every argument is asserted, not
    silently clamped (violations raise AngleDomainError).
    """
    if not 1 <= n <= 256:  # 2^{4n-2} in D_{2n} must be a float
        raise ValueError(f"rank must be in 1..256 (2^(4n-2) is a float), got {n}")
    _check_theta(theta)
    cos_t = math.cos(theta)
    out = [_checked_arcsin(-math.sin(theta) / math.sqrt(1 << (2 * n - 1)),
                           "level 1")]
    for k in range(2, 2 * n + 1):
        denom = (2.0 ** (2 * n - 2 + k) - 2.0 ** k + 2.0
                 + 2.0 * cos_t * cos_t + (2.0 ** k - 4.0) * cos_t)
        out.append(_checked_arcsin((cos_t - 1.0) / math.sqrt(denom), f"level {k}"))
    return tuple(out)


def prepare_target_amplitudes(n: int, theta: float) -> list[float]:
    """Target |amplitude| per ancilla code: sqrt(|alpha| / s), code 0 holding
    the identity coefficient, codes up to 2^{2n-1}-1 the projector family,
    the upper half the excitation family."""
    c = lcu_coefficients(n, theta)
    m = c.sector_size
    s = c.s_one_norm
    ident = math.sqrt(c.identity_coeff / s)
    proj = math.sqrt(abs(c.projector_coeff) / s)
    exc = math.sqrt(abs(c.excitation_coeff) / s)
    return [ident] + [proj] * (m - 1) + [exc] * m


def _loader_angles(n: int, theta: float) -> list[float]:
    """Half-convention angles that load sqrt(mass) per code family.

    Family k (codes whose first set bit is at level k, wire k-1) receives
    total mass m_1 = |sin theta|/s for the excitation sector and
    m_k = 2^{2n-k} |projector|/s for k >= 2; the recursion peels each family
    off the remaining all-zeros-prefix amplitude.  That remainder is summed
    from the masses below it (later families plus the identity code), never
    taken by subtraction, so a zero identity mass stays exactly zero.
    """
    c = lcu_coefficients(n, theta)
    s = c.s_one_norm
    masses = [abs(math.sin(theta)) / s]
    masses += [(1 << (2 * n - k)) * abs(c.projector_coeff) / s
               for k in range(2, 2 * n + 1)]
    remaining = [c.identity_coeff / s]
    for mass in reversed(masses):
        remaining.append(remaining[-1] + mass)
    angles = []
    for mass, total in zip(masses, reversed(remaining[1:])):
        if total <= 1e-300:
            ratio = 0.0
        else:
            ratio = mass / total
            if ratio > 1.0:
                if ratio > 1.0 + 1e-9:
                    raise AngleDomainError(
                        f"conditional mass ratio {ratio!r} exceeds 1")
                ratio = 1.0
        angles.append(2.0 * math.asin(math.sqrt(ratio)))
    return angles


def _loader(n: int, angles) -> Circuit:
    """The thermometer loader on 2n wires (see the module docstring)."""
    width = 2 * n
    circ = Circuit(width, num_ancilla=width)
    circ.append(Gate("RX", (0,), angles[0]))
    for w in range(1, width):
        circ.append(Gate("H" if w == width - 1 else "X", (w,),
                         controls=((w - 1, "+"),)))
        circ.append(Gate("RY", (w,), angles[w], ((w - 1, "-"),)))
    for w in range(width - 2, 0, -1):
        circ.append(Gate("H", (w,), controls=((w - 1, "+"),)))
    return circ


def _ket_angles(angles) -> list[float]:
    """B's angles with a_0 + 2 pi first and 2 pi - a last: B_ket's angles."""
    return [angles[0] + 2.0 * math.pi, *angles[1:-1], 2.0 * math.pi - angles[-1]]


def _loader_pair(n: int, theta: float) -> tuple[list[Gate], list[Gate]]:
    """The gates of B_ket and of B†, from one `_loader_angles` call.  Every
    loader gate is an H or X, its own inverse, or a rotation that the
    negated angle inverts, so B† is the loader at the negated angles in
    reverse order."""
    angles = _loader_angles(n, theta)
    return (_loader(n, _ket_angles(angles)).gates,
            _loader(n, [-a for a in angles]).gates[::-1])


def synth_prepare(n: int, theta: float) -> Circuit:
    """The ket loader B_ket on 2n qubits."""
    return _loader(n, _ket_angles(_loader_angles(n, theta)))


@dataclass(frozen=True, slots=True)
class PrepareReport:
    """max_deviation of the pair products conj(beta_bra) beta_ket from
    sigma |alpha| / s; used_fallback is always False (there is no fallback
    loader)."""

    max_deviation: float
    used_fallback: bool = False


def verify_prepare(n: int, theta: float) -> PrepareReport:
    """Run B and B_ket on |0> and compare each code's pair product
    conj(beta_bra,c) beta_ket,c with sigma_c |alpha_c| / s, sign included."""
    check_dense(2 * n, 0, "loader state")
    target = np.square(prepare_target_amplitudes(n, theta))
    target[1:] *= -1.0
    init = np.zeros(1 << (2 * n), dtype=complex)
    init[0] = 1.0
    angles = _loader_angles(n, theta)
    bra, ket = (apply_circuit(_loader(n, a), init)
                for a in (angles, _ket_angles(angles)))
    return PrepareReport(float(np.max(np.abs(bra.conj() * ket - target))))

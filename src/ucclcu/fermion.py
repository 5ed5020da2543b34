"""Fermionic excitation operators, Jordan-Wigner mapping, and the closed-form
expansion of a coupled-cluster factor exp(theta (A - A†)).

Conventions (fixed throughout the package):

* Jordan-Wigner with the Z chain on *higher* orbital indices:
  a_k = 1/2 (X_k + i Y_k) ⊗ Z_{k+1} ⊗ ... ⊗ Z_{N-1}.
* Operator ordering inside a factor: A = a†_{a_n} ... a†_{a_1} a_{i_1} ... a_{i_n}
  with both the occupied list (i_1 < ... < i_n) and the virtual list
  (a_1 < ... < a_n) ascending.  The CLI documents the same ordering.
* The generator E = A - A† satisfies E³ = -E, so exp(theta E) closes in an
  SU(2)-like identity:  I + sin(theta) E + (cos(theta) - 1) (A A† + A† A).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, PauliSum, _bit, check_dense


@dataclass(frozen=True, slots=True)
class UccFactor:
    """One factor of a factorized coupled-cluster product.

    Attributes
    ----------
    occupied : tuple[int, ...]
        Strictly increasing occupied spin-orbital indices (i_1 < ... < i_n).
    virtuals : tuple[int, ...]
        Strictly increasing virtual spin-orbital indices (a_1 < ... < a_n).
    theta : float
        Real amplitude in radians, unbounded but finite.
    num_qubits : int
        Total spin-orbital count N (one qubit per spin orbital).
    """

    occupied: tuple[int, ...]
    virtuals: tuple[int, ...]
    theta: float
    num_qubits: int

    def __post_init__(self):
        occ = tuple(int(q) for q in self.occupied)
        vir = tuple(int(q) for q in self.virtuals)
        object.__setattr__(self, "occupied", occ)
        object.__setattr__(self, "virtuals", vir)
        if not occ or not vir:
            raise ValueError("occupied and virtual lists must be nonempty")
        if len(occ) != len(vir):
            raise ValueError("occupied and virtual lists must have equal length")
        if any(b <= a for a, b in zip(occ, occ[1:])) or \
           any(b <= a for a, b in zip(vir, vir[1:])):
            raise ValueError("orbital lists must be strictly increasing")
        if set(occ) & set(vir):
            raise ValueError("occupied and virtual orbitals must be disjoint")
        if min(occ + vir) < 0 or max(occ + vir) >= self.num_qubits:
            raise ValueError("orbital index out of range for num_qubits")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")

    @property
    def rank(self) -> int:
        return len(self.occupied)

    @property
    def actives(self) -> tuple[int, ...]:
        return tuple(sorted(self.occupied + self.virtuals))


def jw_ladder(index: int, kind: str, num_qubits: int) -> PauliSum:
    """Jordan-Wigner image of a single ladder operator.

    kind "annihilate": 1/2 (X + iY)_index ⊗ Z_{index+1..N-1}
    kind "create":     1/2 (X - iY)_index ⊗ Z_{index+1..N-1}
    """
    if kind not in ("create", "annihilate"):
        raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")
    if not 0 <= index < num_qubits:
        raise ValueError(f"orbital index {index} out of range for N={num_qubits}")
    chain = PauliString.z_on(num_qubits, range(index + 1, num_qubits))
    x_part = PauliString(num_qubits, _bit(num_qubits, index), chain.z_mask)
    y_part = PauliString(num_qubits, _bit(num_qubits, index),
                         chain.z_mask | _bit(num_qubits, index))
    sign = -0.5j if kind == "create" else 0.5j
    return PauliSum(num_qubits, [(x_part, 0.5), (y_part, sign)])


def _excitation_product(f: UccFactor) -> PauliSum:
    """A = a†_{a_n} ... a†_{a_1} a_{i_1} ... a_{i_n} as a PauliSum."""
    acc: PauliSum | None = None
    for a in sorted(f.virtuals, reverse=True):
        term = jw_ladder(a, "create", f.num_qubits)
        acc = term if acc is None else acc * term
    for i in sorted(f.occupied):
        acc = acc * jw_ladder(i, "annihilate", f.num_qubits)
    return acc


def excitation_pauli_sum(f: UccFactor) -> PauliSum:
    """E = A - A†: exactly 2^{2n-1} mutually commuting strings with pure
    imaginary coefficients (the sin-sector structure constants)."""
    a = _excitation_product(f)
    return (a - a.adjoint()).prune()


def projector_pauli_sum(f: UccFactor) -> PauliSum:
    """A A† + A† A in closed form: 2^{1-2n} Σ_S (-1)^{|S ∩ virtuals|} Z_S over
    the even-sized subsets S of the 2n actives.

    A A† = ∏_v n_v ∏_o (1 - n_o) projects onto (all virtuals filled, all
    occupied empty) and A† A = ∏_o n_o ∏_v (1 - n_v) onto the complement
    pattern.  With n = (I - Z)/2 each expands to 2^{-2n} Σ_S ±Z_S, the sign
    (-1)^{|S ∩ virtuals|} in A A† and (-1)^{|S ∩ occupied|} in A† A; the two
    agree when |S| is even and differ when it is odd, so in the sum the odd
    subsets cancel and the even ones double.
    """
    nq, weight = f.num_qubits, 2.0 ** (1 - 2 * f.rank)
    virtuals = set(f.virtuals)
    return PauliSum(nq, [
        (PauliString.z_on(nq, subset),
         -weight if len(virtuals.intersection(subset)) % 2 else weight)
        for size in range(0, 2 * f.rank + 1, 2)
        for subset in itertools.combinations(f.actives, size)])


def ucc_factor_expand(f: UccFactor) -> PauliSum:
    """Closed-form expansion of exp(theta (A - A†)) as a PauliSum.

    Returns I + sin(theta) E + (cos(theta) - 1) (A A† + A† A): at most 2^{2n}
    distinct strings; excitation coefficients have magnitude |sin theta|/2^{2n-1},
    non-identity diagonal coefficients |cos theta - 1|/2^{2n-1}, and the identity
    coefficient is 1 + (cos theta - 1)/2^{2n-1}.
    """
    out = PauliSum.identity(f.num_qubits)
    out = out + np.sin(f.theta) * excitation_pauli_sum(f)
    out = out + (np.cos(f.theta) - 1.0) * projector_pauli_sum(f)
    return out.prune()


def expm_taylor(matrix: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring over a degree-20 Taylor sum.

    The argument is halved until its 1-norm is <= 0.5, the series is summed,
    and the result squared back up.  Exact to double precision at oracle scale
    and independent of the trigonometric closed form it is used to check.
    """
    m = np.asarray(matrix, dtype=complex)
    norm = np.linalg.norm(m, 1)
    squarings = 0
    while norm > 0.5:
        norm /= 2.0
        squarings += 1
    a = m / (2 ** squarings)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, 21):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def exact_unitary(f: UccFactor) -> np.ndarray:
    """Dense exp(theta (A - A†)) via the Taylor exponential (the oracle route).

    E³ = -E makes exp(theta E) 2π-periodic in theta, so |theta| > π is first
    reduced to atan2(sin theta, cos theta): the squarings that a large
    argument needs would otherwise compound rounding (1.7e-8 at theta = 1e8).
    """
    check_dense(f.num_qubits, f.num_qubits, "exact unitary")
    theta = f.theta
    if abs(theta) > math.pi:
        theta = math.atan2(math.sin(theta), math.cos(theta))
    generator = theta * excitation_pauli_sum(f).to_dense()
    return expm_taylor(generator)


def chain_qubits(f: UccFactor) -> list[int]:
    """Idle qubits that carry a Z in every excitation string of the factor.

    Under the chain-above convention an idle qubit p is hit by an odd number
    of ladder chains exactly when the count of active orbitals below p is odd;
    equivalently the chains run inside the gaps of consecutive active pairs
    (sorted actives paired off two by two).
    """
    act = f.actives
    return [p for p in range(f.num_qubits)
            if p not in act and sum(1 for a in act if a < p) % 2 == 1]

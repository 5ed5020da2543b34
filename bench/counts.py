"""Realized-cost counter: gates and CNOTs counted on an emitted circuit.

The CNOT convention is the one `ucclcu.costs` states for its closed forms:
every gate with k >= 2 controls costs 8k - 12 CNOTs.  `ucclcu.costs` leaves
the k <= 1 cases implicit; this counter fixes them as follows (negative
controls are free, they are X conjugations):

* k = 0: 0 CNOTs.
* k = 1, target kind X, Y, Z or H: 1 CNOT (a controlled Pauli, or a
  controlled H, which is a CZ between single-qubit basis changes).
* k = 1, target kind RX, RY, RZ or PHASE: 2 CNOTs (the standard
  controlled-rotation construction).
* GLOBALPHASE with k controls is a PHASE on one control with k - 1 controls
  (so it is free at k = 1).
"""

from __future__ import annotations

from collections import Counter

_ONE_CNOT_KINDS = ("X", "Y", "Z", "H")


def gate_cnots(kind: str, controls: int) -> int:
    """CNOTs of one gate of `kind` with `controls` controls (see module doc)."""
    if kind == "GLOBALPHASE":
        if controls == 0:
            return 0
        kind, controls = "PHASE", controls - 1
    if controls == 0:
        return 0
    if controls == 1:
        return 1 if kind in _ONE_CNOT_KINDS else 2
    return 8 * controls - 12


def gate_profile(circuit) -> Counter:
    """Gate counts keyed by (kind, control count)."""
    return Counter((g.kind, len(g.controls)) for g in circuit.gates)


def realized_cnots(circuit) -> int:
    return sum(n * gate_cnots(kind, k)
               for (kind, k), n in gate_profile(circuit).items())


def chain_count(occupied, virtuals, num_qubits: int) -> int:
    """Idle orbitals with an odd number of active orbitals below them: the
    qubits that carry a Jordan-Wigner Z in every excitation string."""
    actives = set(occupied) | set(virtuals)
    return sum(1 for p in range(num_qubits)
               if p not in actives and sum(1 for a in actives if a < p) % 2)


def gap_fill(factor) -> tuple[int, ...]:
    """The `rho` argument of `ucclcu.costs` for a factor's layout.

    The closed forms only use sum(rho), so all chain qubits go into the first
    of the 2n - 2 gap slots.  At rank 1 there is no slot, and the model has no
    term for chain qubits.
    """
    n = factor.rank
    if n == 1:
        return ()
    chains = chain_count(factor.occupied, factor.virtuals, factor.num_qubits)
    return (chains,) + (0,) * (2 * n - 3)


def format_profile(profile: Counter) -> str:
    return ", ".join(f"{kind}/{k}:{n}" for (kind, k), n in sorted(profile.items()))

"""SELECT synthesis: map each ancilla code to its Pauli string.

Scheme (generalizing the rank-2 construction to arbitrary rank): the ancilla
bank has 2n wires, wire 0 being the sector qubit.  The excitation reference
(Y on the highest active orbital, X on every other active orbital, Z on the
idle chain qubits; the lexicographically least string of the off-diagonal
sector) is applied first, positively controlled on the sector wire; the
diagonal sector starts from the identity, so code 0 selects I.  Then 2n-1
steps follow, each a weight-2 Z mask applied under a positive control on one
code wire:

    wire 1          ->  Z_{o_n} Z_{v_1}        (the sector-flip mask)
    wires 2..n      ->  Z_{o_t} Z_{o_{t+1}}    (occupied adjacent pairs)
    wires n+1..2n-1 ->  Z_{v_t} Z_{v_{t+1}}    (virtual adjacent pairs)

These masks are the edge set of a path through the 2n active orbitals, hence
linearly independent over GF(2) and spanning the even-weight toggle space:
subset products reach each sector's strings exactly once.

The phase fix-ups follow in closed form from the hidden SU(2).  Write b_w
for code bit w and M_c for the product of the masks that code c fires.  A A†
and A† A project onto two patterns: the virtuals filled and the occupied
empty, and the reverse.  Each mask pairs two occupied or two virtual
orbitals, both filled or both empty in either pattern, except the
sector-flip mask (o_n, v_1), which meets one filled and one empty orbital in
each.  E = A - A† and Pi = A A† + A† A act only on those patterns, so
M_c E = (-1)^{b_1} E and M_c Pi = (-1)^{b_1} Pi.  If the reference string has
the coefficient i^r / 2^{2n-1} in E and M_c times it is i^{k_c} P_c, then
P_c has the Z4 power r + 2 b_1 + k_c in E; in Pi, whose identity coefficient
is positive, P_c = M_c has the power 2 b_1.  Code c must carry the unit of
its coefficient in the expansion I + sin(theta) E + (cos theta - 1) Pi over
the i^{k_c} the masks left: r + 2 b_1 + 2 [sin theta < 0] in the excitation
sector, 2 + 2 b_1 in the diagonal sector (cos theta - 1 <= 0), and 0 at
code 0, the identity, whose coefficient is >= 0.  Where a weight is zero
the unit is free and takes the same rule.  That is affine in b_0 and b_1
except at code 0, so from rank 2 on four gates give it: GLOBALPHASE(pi)
anticontrolled on all 2n code wires, GLOBALPHASE(pi), Z on wire 1 and
PHASE((r + 2 [sin theta < 0] - 2) pi/2) on wire 0.  At rank 1 the diagonal
sector holds code 0 and the b_1 code only, both at 0, so two gates do:
PHASE((r + 2 [sin theta < 0]) pi/2) on wire 0, then CZ(0, 1).  r comes from
the 2n single-term ladder factors of A (`_reference_power`), with no
PauliSum expanded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, Gate
from .errors import PlanningError, ResourceLimitError
from .fermion import (UccFactor, chain_qubits, excitation_pauli_sum,
                      projector_pauli_sum)
from .pauli import PauliString, _bit

#: JSON label of the unit i^p, indexed by the Z4 exponent p
_POWER_LABELS = ("+1", "+i", "-1", "-i")
_QUARTER_TURNS = {1: math.pi / 2, 2: math.pi, 3: -math.pi / 2}
_TURNS = {angle: power for power, angle in _QUARTER_TURNS.items()}
#: the code table holds 4^n entries; planning takes seconds at rank 8
_MAX_RANK = 8


@dataclass(frozen=True, slots=True)
class CodeEntry:
    """What one ancilla code must implement on the system register."""

    string: PauliString       # bare word (phase_power 0)
    phase_power: int          # i^k accumulated by the mask products
    coeff_power: int          # theta-free coefficient unit is i^coeff_power


@dataclass
class SelectPlan:
    """masks[w-1] is the Z mask fired by a positive control on code wire w;
    wire 0 is the sector wire ("sector_qubit": 0, "polarity": "+" in JSON)."""

    rank: int
    num_qubits: int
    occupied: tuple[int, ...]
    virtuals: tuple[int, ...]
    chains: tuple[int, ...]
    xy_reference: PauliString
    masks: tuple[PauliString, ...]
    code_table: dict[int, CodeEntry] = field(repr=False)

    @property
    def num_ancilla(self) -> int:
        return 2 * self.rank

    def to_json_dict(self) -> dict:
        na = self.num_ancilla
        return {
            "rank": self.rank,
            "num_qubits": self.num_qubits,
            "occupied": list(self.occupied),
            "virtuals": list(self.virtuals),
            "chain_qubits": list(self.chains),
            "sector_qubit": 0,
            "xy_reference": self.xy_reference.letters,
            "steps": [{"wire": wire, "polarity": "+", "mask": mask.letters}
                      for wire, mask in enumerate(self.masks, start=1)],
            "code_table": [
                {"code": format(code, f"0{na}b"),
                 "string": entry.string.letters,
                 "phase": _POWER_LABELS[entry.phase_power],
                 "coeff_unit": _POWER_LABELS[entry.coeff_power]}
                for code, entry in sorted(self.code_table.items())],
        }


def _layout(f: UccFactor) -> tuple[tuple[int, ...], PauliString,
                                   tuple[PauliString, ...]]:
    """(chain qubits, excitation reference, step masks) of f's SELECT."""
    nq, occ, vir, actives = f.num_qubits, f.occupied, f.virtuals, f.actives
    chains = tuple(chain_qubits(f))
    xy_ref = PauliString.from_label("".join(
        ("Y" if q == actives[-1] else "X") if q in actives
        else ("Z" if q in chains else "I")
        for q in range(nq)))
    # edges of the path o_1 .. o_n - v_1 .. v_n, the sector flip (o_n, v_1) first
    edges = [(occ[-1], vir[0])] + list(zip(occ, occ[1:])) + list(zip(vir, vir[1:]))
    return chains, xy_ref, tuple(PauliString.z_on(nq, edge) for edge in edges)


def derive_select_plan(f: UccFactor) -> SelectPlan:
    """Take the reference and Z-masks from `_layout` and tabulate all 2^{2n}
    codes.

    The plan is verified internally against the symbolic expansion (sector
    bijections, units that are powers of i) before being
    returned; a failure raises PlanningError carrying the offending string.
    Past rank 8 the code table is refused with ResourceLimitError.
    """
    n, nq = f.rank, f.num_qubits
    if n > _MAX_RANK:
        raise ResourceLimitError(
            f"rank {n} needs a SELECT code table of 4^{n} = {4 ** n} codes; "
            f"the code table is capped at rank {_MAX_RANK}")
    na = 2 * n
    chains, xy_ref, masks = _layout(f)
    excitation = excitation_pauli_sum(f)
    projector = projector_pauli_sum(f)

    code_table: dict[int, CodeEntry] = {}
    for code in range(1 << na):
        sector = (code >> (na - 1)) & 1
        word = xy_ref if sector else PauliString.identity(nq)
        for w in range(na - 1, 0, -1):  # circuit time order; masks commute
            if (code >> (na - 1 - w)) & 1:
                word = masks[w - 1].multiply(word)
        source = excitation if sector else projector
        coeff = source.coefficient(word.bare())
        if coeff == 0:
            raise PlanningError("code maps outside its sector's string set",
                                word.bare().letters)
        unit = coeff / abs(coeff)
        powers = [p for p in range(4) if abs(unit - 1j ** p) <= 1e-12]
        if not powers:
            raise PlanningError(f"coefficient unit {unit!r} is not a power of i",
                                word.bare().letters)
        code_table[code] = CodeEntry(word.bare(), word.phase_power, powers[0])

    for sector, source in ((1, excitation), (0, projector)):
        reached = {e.string.key() for c, e in code_table.items()
                   if (c >> (na - 1)) & 1 == sector}
        expected = {p.key() for p, _ in source.terms()}
        if reached != expected:
            missing = expected - reached
            label = PauliString(nq, *next(iter(missing))).letters if missing else "?"
            raise PlanningError("sector code map is not a bijection", label)

    return SelectPlan(n, nq, f.occupied, f.virtuals, chains, xy_ref, masks,
                      code_table)


def code_phase_targets(f: UccFactor, plan: SelectPlan) -> dict[int, int]:
    """Z4 power p_c of the coefficient unit i^p_c that code c must carry:
    coeff_power, plus 2 in the excitation sector where sin theta < 0 and in
    the whole diagonal sector, whose weight cos theta - 1 is never positive;
    0 for the identity code 0, whose coefficient 1 + (cos theta - 1)/2^{2n-1}
    is >= 0.  A code of zero weight (sin theta = 0 or cos theta = 1 in float)
    may carry any unit; it takes the same rule, so the fix-ups keep their
    shape."""
    na = plan.num_ancilla
    flip = 2 if math.sin(f.theta) < 0 else 0
    return {code: 0 if code == 0 else
            (entry.coeff_power + (flip if code >> (na - 1) else 2)) % 4
            for code, entry in plan.code_table.items()}


def _reference_power(f: UccFactor, xy_ref: PauliString) -> int:
    """r with i^r / 2^{2n-1} the coefficient of xy_ref in E = A - A†.

    Each ladder factor (X -+ iY)/2 on its site, with Z on every site above,
    gives xy_ref exactly one term: its own letter is xy_ref's letter there,
    toggled between X and Y when an odd number of actives lie below (their
    chains put a Z on the site).  Those 2n terms multiply to i^q xy_ref /
    2^{2n}; A† holds the conjugate, so E holds 2 i^q / 2^{2n} for odd q.
    """
    nq, letters, actives = f.num_qubits, xy_ref.letters, f.actives
    word = PauliString.identity(nq)
    # the Y term is -i/2 Y in a creation operator, +i/2 Y in an annihilation
    for k, y_power in [(a, 3) for a in reversed(f.virtuals)] + \
            [(i, 1) for i in f.occupied]:
        y = (letters[k] == "Y") != (sum(q < k for q in actives) % 2 == 1)
        site = _bit(nq, k)  # the sites above k are the lower bits
        word = word.multiply(PauliString(nq, site, (site - 1) | site * y,
                                         y_power * y))
    if word.bare() != xy_ref or word.phase_power % 2 == 0:
        raise PlanningError("reference string is not in the excitation sector",
                            letters)
    return word.phase_power


def _phase_fixups(f: UccFactor, r: int) -> list[Gate]:
    """The closed-form fix-ups of the module docstring: code c gets
    i^(p_c - phase_power_c), with r the reference string's Z4 power."""
    na = 2 * f.rank
    sector = r + (2 if math.sin(f.theta) < 0 else 0)
    if na == 2:
        return [Gate("PHASE", (0,), _QUARTER_TURNS[sector % 4]),
                Gate("PHASE", (0,), math.pi, ((1, "+"),))]
    return [Gate("GLOBALPHASE", (), math.pi, tuple((w, "-") for w in range(na))),
            Gate("GLOBALPHASE", (), math.pi),
            Gate("PHASE", (1,), math.pi),
            Gate("PHASE", (0,), _QUARTER_TURNS[(sector - 2) % 4])]


def synth_select(f: UccFactor, plan: SelectPlan | None = None) -> Circuit:
    """Emit the SELECT circuit on 2n ancilla + N system qubits.

    Gate order: sector-controlled excitation reference (chain Z's first, then
    the active-orbital letters), the step masks from the highest code wire
    down, then the closed-form phase fix-ups.  Everything comes from f
    through `_layout`, so no code table is built; `plan` is accepted and not
    read, because callers under `bench/` pass one.
    """
    chains, xy_ref, masks = _layout(f)
    nq, na = f.num_qubits, 2 * f.rank
    circ = Circuit(na + nq, num_ancilla=na)

    for q in chains:
        circ.append(Gate("Z", (na + q,), controls=((0, "+"),)))
    for q in f.actives:
        circ.append(Gate(xy_ref.letters[q], (na + q,), controls=((0, "+"),)))
    for wire in range(na - 1, 0, -1):
        for q in sorted(masks[wire - 1].support()):
            circ.append(Gate("Z", (na + q,), controls=((wire, "+"),)))

    circ.extend(_phase_fixups(f, _reference_power(f, xy_ref)))
    return circ


@dataclass(frozen=True, slots=True)
class SelectReport:
    max_deviation: float
    worst_code: int
    passed: bool          # every code exact, max_deviation 0 (else inf)


def verify_select(f: UccFactor, plan: SelectPlan | None = None,
                  circuit: Circuit | None = None) -> SelectReport:
    """Check that every ancilla code induces exactly its code_table string,
    target phase included, and leaves the ancilla untouched.

    One pass over the gates reads each code's system operator i^p X^x Z^z,
    with x and z as bit rows per system qubit, on the codes where a gate's
    controls fire: X on system qubit q flips x_q; Z adds 2 x_q to p, then
    flips z_q; Y = iXZ adds 1 + 2 x_q, then flips x_q and z_q; a Z, PHASE or
    GLOBALPHASE on the code wires adds its quarter turns (Z: 2) where its
    target bit is 1.  These rules share nothing with `PauliString.multiply`,
    which built the code table.  Code c passes when (x, z, p mod 4) equals
    the masks of P_c and t_c plus its count of Y letters, i.e. i^{t_c}·P_c.
    No float, dense array or rank limit enters: max_deviation is 0 or inf.
    A control on a system wire, another kind on a system or code wire, or an
    angle off the quarter turns fails the check, even if a later gate undoes it.
    """
    if plan is None:
        plan = derive_select_plan(f)
    if circuit is None:
        circuit = synth_select(f, plan)
    nq, na = plan.num_qubits, plan.num_ancilla
    if (circuit.num_ancilla, circuit.num_qubits) != (na, na + nq):
        raise ValueError("circuit is not laid out as this plan's SELECT")
    codes = np.arange(1 << na)
    bits = (codes >> (na - 1 - np.arange(na))[:, None]) & 1 == 1
    x, z = np.zeros((2, nq, codes.size), dtype=bool)
    p = np.zeros(codes.size, dtype=np.int64)
    for g in circuit.gates:
        code_controls = [(q, pol) for q, pol in g.controls if q < na]
        fires = np.ones(codes.size, dtype=bool)
        for q, pol in code_controls:
            fires &= bits[q] == (pol == "+")
        on_system = bool(g.targets) and g.targets[0] >= na
        turns = 2 if g.kind == "Z" else _TURNS.get(g.angle) \
            if g.kind in ("PHASE", "GLOBALPHASE") else None
        if len(code_controls) < len(g.controls) or \
                (g.kind not in ("X", "Y", "Z") if on_system else turns is None):
            return SelectReport(math.inf, int(np.argmax(fires)), False)
        if not on_system:
            p[fires & bits[g.targets[0]] if g.targets else fires] += turns
            continue
        q = g.targets[0] - na
        if g.kind != "X":
            p[fires] += 2 * x[q, fires] + (g.kind == "Y")
            z[q, fires] ^= True
        if g.kind != "Z":
            x[q, fires] ^= True

    table, targets = plan.code_table, code_phase_targets(f, plan)
    letters = np.array([list(table[c].string.letters) for c in codes]).T
    want_p = np.array([targets[c] for c in codes]) + (letters == "Y").sum(axis=0)
    bad = (x != np.isin(letters, ("X", "Y"))).any(axis=0) | \
        (z != np.isin(letters, ("Y", "Z"))).any(axis=0) | ((p - want_p) % 4 != 0)
    worst = int(np.argmax(bad))
    return SelectReport(math.inf if bad[worst] else 0.0, worst, not bad[worst])

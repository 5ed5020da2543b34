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

Each code c then needs the diagonal phase u_c / i^{k_c}: u_c is the
coefficient phase that PREPARE deliberately does not carry
(coefficient/|coefficient|, defined as 1 for zero coefficients) and i^{k_c}
the phase the mask products left behind.  The hidden SU(2) makes both
powers of i, which the plan stores as Z4 exponents, so the fix-up is a
Z4-valued function of the 2n code bits, synthesized as a phase polynomial
(Amy, Maslov, Mosca, arXiv:1303.2042): a Moebius transform over the code
bits gives one PHASE(g pi/2) per monomial, controlled on the monomial's
other wires.  Within each sector the function is affine; only code 0 breaks
that, and it gets one GLOBALPHASE anticontrolled on every code wire.  At
generic theta that is four gates from rank 2 on: the code-0 phase, an
uncontrolled GLOBALPHASE(pi), S or S† on the sector wire and Z on wire 1;
rank 1 needs two, S or S† and a CZ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, Gate
from .errors import PlanningError, ResourceLimitError
from .fermion import (UccFactor, chain_qubits, excitation_pauli_sum,
                      projector_pauli_sum)
from .pauli import PauliString

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


def derive_select_plan(f: UccFactor) -> SelectPlan:
    """Choose the reference and Z-masks and tabulate all 2^{2n} codes.

    The plan is verified internally against the symbolic expansion (sector
    bijections, mask weights, units that are powers of i) before being
    returned; a failure raises PlanningError carrying the offending string.
    Past rank 8 the code table is refused with ResourceLimitError.
    """
    n, nq = f.rank, f.num_qubits
    if n > _MAX_RANK:
        raise ResourceLimitError(
            f"rank {n} needs a SELECT code table of 4^{n} = {4 ** n} codes; "
            f"the code table is capped at rank {_MAX_RANK}")
    na = 2 * n
    occ, vir = sorted(f.occupied), sorted(f.virtuals)
    chains = tuple(chain_qubits(f))

    actives = set(occ) | set(vir)
    xy_ref = PauliString.from_label("".join(
        ("Y" if q == max(actives) else "X") if q in actives
        else ("Z" if q in chains else "I")
        for q in range(nq)))

    # edges of the path o_1 .. o_n - v_1 .. v_n, the sector flip (o_n, v_1) first
    edges = [(occ[-1], vir[0])] + list(zip(occ, occ[1:])) + list(zip(vir, vir[1:]))
    masks = tuple(PauliString.z_on(nq, edge) for edge in edges)
    for mask in masks:
        if mask.weight > 2 or mask.x_mask:
            raise PlanningError("step mask is not a weight-<=2 Z string",
                                mask.letters)

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

    return SelectPlan(n, nq, tuple(occ), tuple(vir), chains, xy_ref, masks,
                      code_table)


def code_phase_targets(f: UccFactor, plan: SelectPlan) -> dict[int, int]:
    """Z4 power p_c of the coefficient unit i^p_c that code c must carry:
    coeff_power, plus 2 where sin theta (excitation sector) or cos theta - 1
    (diagonal sector) is negative; 0 for a zero coefficient and for the
    identity code 0, whose coefficient 1 + (cos theta - 1)/2^{2n-1} is >= 0."""
    na = plan.num_ancilla
    sin_theta, cos_minus_one = math.sin(f.theta), math.cos(f.theta) - 1.0
    out = {}
    for code, entry in plan.code_table.items():
        trig = sin_theta if (code >> (na - 1)) & 1 else cos_minus_one
        if trig == 0.0 or code == 0:
            out[code] = 0
        else:
            out[code] = (entry.coeff_power + (2 if trig < 0 else 0)) % 4
    return out


def _mobius_z4(values: np.ndarray, num_bits: int) -> np.ndarray:
    """Coefficients g_S of values(x) = sum_S g_S prod_{w in S} x_w (mod 4).

    g_S = sum_{T subset of S} (-1)^{|S|-|T|} values[T], one axis per bit;
    index bit num_bits-1-w is wire w, as for codes.
    """
    g = values.reshape((2,) * num_bits).copy()
    for axis in range(num_bits):
        lead = (slice(None),) * axis
        g[lead + (1,)] -= g[lead + (0,)]
    return g.reshape(-1) % 4


def _phase_gate(bits: list[tuple[int, str]], power: int) -> Gate:
    """i^power on the codes where every (wire, polarity) of bits fires."""
    angle = _QUARTER_TURNS[power]
    on = [w for w, pol in bits if pol == "+"]
    if not on:
        return Gate("GLOBALPHASE", (), angle, tuple(bits))
    return Gate("PHASE", (on[0],), angle,
                tuple((w, pol) for w, pol in bits if w != on[0]))


def _phase_fixups(f: UccFactor, plan: SelectPlan) -> list[Gate]:
    """Diagonal gates giving code c the phase i^(p_c - phase_power_c).

    The Z4 exponent of each code is a polynomial over the 2n code bits
    (Amy, Maslov, Mosca, arXiv:1303.2042).  Within a sector it is affine, and
    the identity code 0 alone breaks that (its coefficient keeps sign +1 while
    its sector takes sign(cos theta - 1)), so that code is peeled off first as
    one all-anticontrolled GLOBALPHASE, with the residue that leaves the
    fewest monomials.  Each remaining monomial S with coefficient g_S becomes a
    PHASE(g_S pi/2) on one wire of S, positively controlled on the rest; the
    empty monomial is a GLOBALPHASE.
    """
    na = plan.num_ancilla
    targets = code_phase_targets(f, plan)
    poly = _mobius_z4(np.array(
        [(targets[code] - plan.code_table[code].phase_power) % 4
         for code in range(1 << na)], dtype=np.int64), na)
    spike = _mobius_z4((np.arange(1 << na) == 0).astype(np.int64), na)
    peel = min(range(4), key=lambda r:
               np.count_nonzero((poly - r * spike) % 4) + (r != 0))
    poly = (poly - peel * spike) % 4

    gates = []
    if peel:
        gates.append(_phase_gate([(w, "-") for w in range(na)], peel))
    for mono in np.flatnonzero(poly):
        gates.append(_phase_gate(
            [(w, "+") for w in range(na) if (mono >> (na - 1 - w)) & 1],
            int(poly[mono])))
    return gates


def synth_select(f: UccFactor, plan: SelectPlan | None = None,
                 system_offset: int | None = None) -> Circuit:
    """Emit the SELECT circuit on 2n ancilla + N system qubits.

    Gate order: sector-controlled excitation reference (chain Z's first, then
    the active-orbital letters), the step masks from the highest code wire
    down, then the phase fix-ups: the code-0 phase, if any, and one gate per
    monomial of the phase polynomial in ascending code order.

    system_offset places the system register (defaults to right after the 2n
    ancilla wires; the amplification assembler passes 2n+1 to leave room for
    its pad wire).
    """
    if plan is None:
        plan = derive_select_plan(f)
    nq, na = plan.num_qubits, plan.num_ancilla
    off = na if system_offset is None else system_offset
    if off < na:
        raise ValueError("system register overlaps the ancilla bank")
    circ = Circuit(off + nq, num_ancilla=off)

    for q in plan.chains:
        circ.append(Gate("Z", (off + q,), controls=((0, "+"),)))
    for q in sorted(set(plan.occupied) | set(plan.virtuals)):
        kind = plan.xy_reference.letters[q]
        circ.append(Gate(kind, (off + q,), controls=((0, "+"),)))
    for wire in range(na - 1, 0, -1):
        for q in sorted(plan.masks[wire - 1].support()):
            circ.append(Gate("Z", (off + q,), controls=((wire, "+"),)))

    circ.extend(_phase_fixups(f, plan))
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

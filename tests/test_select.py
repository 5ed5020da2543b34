"""Code-to-string planning and the controlled-mask SELECT circuit."""

import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from oracles import kron_pauli, mobius_fixups, select_dense_passes
from ucclcu.circuit import Circuit, Gate
from ucclcu.cli import main
from ucclcu.errors import PlanningError
from ucclcu.fermion import (UccFactor, chain_qubits, excitation_pauli_sum,
                            projector_pauli_sum)
from ucclcu.lcu import pad_and_synth_oaa
from ucclcu.select import (code_phase_targets, derive_select_plan,
                           synth_select, verify_select)

ADJ2 = UccFactor((0, 1), (2, 3), 0.7, 4)
GAP2 = UccFactor((0, 1), (4, 6), 0.9, 7)


def sector_of(code, num_ancilla):
    return (code >> (num_ancilla - 1)) & 1


class TestRank2Fixtures:
    """The doubles table is pinned literally; everything else generalizes it."""

    def setup_method(self):
        self.plan = derive_select_plan(ADJ2)

    def test_reference_strings(self):
        assert self.plan.xy_reference.letters == "XXXY"
        assert self.plan.to_json_dict()["sector_qubit"] == 0

    def test_step_masks(self):
        by_wire = {w: m.letters for w, m in enumerate(self.plan.masks, start=1)}
        assert by_wire == {1: "IZZI", 2: "ZZII", 3: "IIZZ"}
        steps = self.plan.to_json_dict()["steps"]
        assert {s["wire"]: s["mask"] for s in steps} == by_wire
        assert all(s["polarity"] == "+" for s in steps)

    def test_code_endpoints(self):
        table = self.plan.code_table
        assert table[0b1000].string.letters == "XXXY"
        assert table[0b0000].string.letters == "IIII"
        assert table[0b0100].string.letters == "IZZI"

    def test_sixteen_codes(self):
        assert len(self.plan.code_table) == 16
        xy = [e for c, e in self.plan.code_table.items() if sector_of(c, 4)]
        assert len(xy) == 8
        assert all(set(e.string.letters) <= {"X", "Y"} for e in xy)

    def test_frozen_excitation_units(self):
        # sign table established independently against the dense ladder oracle
        signs = {"XXXY": -1, "XXYX": -1, "XYXX": +1, "XYYY": -1,
                 "YXXX": +1, "YXYY": -1, "YYXY": +1, "YYYX": +1}
        for code, entry in self.plan.code_table.items():
            if sector_of(code, 4):
                assert 1j ** entry.coeff_power == signs[entry.string.letters] * 1j

    def test_frozen_projector_units(self):
        signs = {"IIII": +1, "IIZZ": +1, "IZIZ": -1, "IZZI": -1,
                 "ZIIZ": -1, "ZIZI": -1, "ZZII": +1, "ZZZZ": +1}
        for code, entry in self.plan.code_table.items():
            if not sector_of(code, 4):
                assert 1j ** entry.coeff_power == signs[entry.string.letters]


class TestPlanGeneral:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_step_count_and_shape(self, n):
        f = UccFactor(tuple(range(n)), tuple(range(n, 2 * n)), 0.3, 2 * n)
        plan = derive_select_plan(f)
        assert len(plan.masks) == 2 * n - 1
        wires = [s["wire"] for s in plan.to_json_dict()["steps"]]
        assert wires == list(range(1, 2 * n))
        for mask in plan.masks:
            assert mask.x_mask == 0  # diagonal masks only
            assert mask.weight <= 2

    def test_rank1_plan(self):
        plan = derive_select_plan(UccFactor((0,), (1,), 1.1, 2))
        assert plan.xy_reference.letters == "XY"
        assert [m.letters for m in plan.masks] == ["ZZ"]
        assert [plan.code_table[c].string.letters for c in range(4)] == \
            ["II", "ZZ", "XY", "YX"]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sector_bijection(self, n):
        f = UccFactor(tuple(range(n)), tuple(range(n, 2 * n)), 0.4, 2 * n)
        plan = derive_select_plan(f)
        na = 2 * n
        xy = {e.string.key() for c, e in plan.code_table.items()
              if sector_of(c, na)}
        iz = {e.string.key() for c, e in plan.code_table.items()
              if not sector_of(c, na)}
        assert xy == {p.key() for p, _ in excitation_pauli_sum(f).terms()}
        assert iz == {p.key() for p, _ in projector_pauli_sum(f).terms()}
        assert len(xy) == len(iz) == 1 << (na - 1)

    @pytest.mark.parametrize("f", [
        UccFactor((0,), (1,), 0.3, 2),
        ADJ2,
        GAP2,
        UccFactor((0, 1, 2), (3, 4, 5), 0.6, 6),
    ])
    def test_xy_reference_is_least_sector_string(self, f):
        plan = derive_select_plan(f)
        least = min(p.letters for p, _ in excitation_pauli_sum(f).terms())
        assert plan.xy_reference.letters == least

    def test_gapped_chain_and_reference(self):
        # orbitals (0,1)->(4,6) on 7 qubits leave a single idle gap at 5
        plan = derive_select_plan(GAP2)
        assert plan.chains == (5,)
        assert chain_qubits(GAP2) == [5]
        assert plan.xy_reference.letters == "XXIIXZY"
        assert plan.code_table[0].string.letters == "IIIIIII"

    def test_deterministic_json(self):
        a = json.dumps(derive_select_plan(ADJ2).to_json_dict(), sort_keys=True)
        b = json.dumps(derive_select_plan(ADJ2).to_json_dict(), sort_keys=True)
        assert a == b

    def test_json_shape(self):
        d = derive_select_plan(ADJ2).to_json_dict()
        assert not {"iz_reference", "identity_code"} & set(d)
        assert d["code_table"][0]["code"] == "0000"
        assert d["code_table"][0]["string"] == "IIII"
        assert {"code", "string", "phase", "coeff_unit"} == set(
            d["code_table"][0])
        assert all(len(e["code"]) == 4 for e in d["code_table"])
        units = {e["coeff_unit"] for e in d["code_table"]}
        assert units <= {"+1", "-1", "+i", "-i"}


class TestPhaseTargets:
    """One rule for every code, code 0 included: coeff_power, plus
    2 [sin theta < 0] + 2 in the excitation sector; the ket loader's sign
    (-1 off code 0) supplies the rest of each weight's unit."""

    def test_theta_zero_all_unit(self):
        # every code but the identity has zero weight at theta = 0; its free
        # unit follows the sign rule, sin theta = 0 counting as positive
        f = UccFactor((0, 1), (2, 3), 0.0, 4)
        plan = derive_select_plan(f)
        targets = code_phase_targets(f, plan)
        for code, entry in plan.code_table.items():
            if sector_of(code, 4):
                assert targets[code] == (entry.coeff_power + 2) % 4
            else:
                assert targets[code] == entry.coeff_power
        assert targets[0] == 0
        assert targets == code_phase_targets(
            UccFactor((0, 1), (2, 3), 1e-9, 4), plan)

    def test_positive_theta_signs(self):
        plan = derive_select_plan(ADJ2)
        targets = code_phase_targets(ADJ2, plan)
        na = plan.num_ancilla
        for code, entry in plan.code_table.items():
            if sector_of(code, na):  # sin(0.7) > 0, over the loader's -1
                assert targets[code] == (entry.coeff_power + 2) % 4
            else:  # cos(0.7) - 1 < 0 and the loader's -1 cancel
                assert targets[code] == entry.coeff_power
        assert plan.code_table[0].string.is_identity() and targets[0] == 0

    def test_negative_theta_flips_excitation_sector(self):
        f = UccFactor((0, 1), (2, 3), -0.7, 4)
        plan = derive_select_plan(f)
        targets = code_phase_targets(f, plan)
        positive = code_phase_targets(ADJ2, plan)
        for code, entry in plan.code_table.items():
            if sector_of(code, plan.num_ancilla):
                assert targets[code] == entry.coeff_power
                assert targets[code] == (positive[code] + 2) % 4
            else:
                assert targets[code] == positive[code]

    def test_units_times_loader_sign_are_weight_units(self):
        """sigma_c i^{t_c} is the unit of code c's LCU weight wherever that
        weight is nonzero, read off the expansion's own coefficients."""
        for f in (ADJ2, GAP2, UccFactor((0, 1), (2, 3), -2.5, 4),
                  UccFactor((0,), (1,), 0.7, 2), UccFactor((0,), (1,), -3.0, 2),
                  UccFactor((0, 2, 4), (1, 3, 5), 1.3, 6)):
            plan = derive_select_plan(f)
            targets = code_phase_targets(f, plan)
            expansion = (excitation_pauli_sum(f) * math.sin(f.theta)
                         + projector_pauli_sum(f) * (math.cos(f.theta) - 1.0))
            for code, entry in plan.code_table.items():
                weight = expansion.coefficient(entry.string) + \
                    (1.0 if code == 0 else 0.0)
                sigma = 1.0 if code == 0 else -1.0
                assert abs(weight) > 1e-12
                unit = sigma * 1j ** targets[code]
                assert abs(weight / abs(weight) - unit) <= 1e-12, (f, code)

    def test_all_targets_unimodular(self):
        for theta in (0.0, 0.4, np.pi, -2.0):
            f = UccFactor((0,), (1,), theta, 2)
            targets = code_phase_targets(f, derive_select_plan(f))
            assert all(type(p) is int and 0 <= p < 4 for p in targets.values())


class TestSynthAndVerify:
    @pytest.mark.parametrize("f", [
        UccFactor((0,), (1,), 0.8, 2),
        ADJ2,
        GAP2,
        UccFactor((0, 1, 2), (3, 4, 5), 1.3, 6),
    ])
    def test_every_code_induces_its_string(self, f):
        report = verify_select(f)
        assert report.passed
        assert report.max_deviation <= 1e-10

    def test_step_gates_are_singly_controlled_z(self):
        plan = derive_select_plan(ADJ2)
        circ = synth_select(ADJ2, plan)
        step_gates = [g for g in circ.gates
                      if g.kind == "Z" and g.controls
                      and g.controls[0][0] in {1, 2, 3}]
        assert len(step_gates) == 6  # 2 per mask, 2n-1 masks
        assert all(len(g.controls) == 1 for g in step_gates)

    def test_only_the_excitation_reference_sits_on_the_sector_wire(self):
        # the diagonal sector starts from the identity: no system gate is
        # anticontrolled on the sector wire
        plan = derive_select_plan(GAP2)
        circ = synth_select(GAP2, plan)
        sector = plan.to_json_dict()["sector_qubit"]
        on_sector = [g for g in circ.gates if g.targets
                     and g.targets[0] >= circ.num_ancilla
                     and any(q == sector for q, _ in g.controls)]
        # chain Z + four active letters, each singly and positively controlled
        assert all(g.controls == ((sector, "+"),) for g in on_sector)
        assert sorted(g.kind for g in on_sector) == ["X", "X", "X", "Y", "Z"]

    def test_mismatched_circuit_fails_verification(self):
        flipped = UccFactor((0, 1), (2, 3), -0.7, 4)
        plan = derive_select_plan(ADJ2)
        report = verify_select(ADJ2, plan, circuit=synth_select(flipped, plan))
        assert not report.passed
        assert sector_of(report.worst_code, 4) == 1


def dense_passes(f, plan, circuit):
    """The dense per-code reference verdict on the plan's phased strings."""
    targets = code_phase_targets(f, plan)
    return select_dense_passes(circuit, {
        code: 1j ** targets[code] * kron_pauli(entry.string.letters)
        for code, entry in plan.code_table.items()})


def mutated(circuit, name):
    """`circuit` with one gate-level mutation; the first system gate is the
    first excitation-reference gate, controlled on the sector wire."""
    na, gates = circuit.num_ancilla, list(circuit.gates)
    at = next(i for i, g in enumerate(gates) if g.targets and g.targets[0] >= na)
    g, wire = gates[at], gates[at].targets[0]
    last = max(i for i, g in enumerate(gates) if g.controls)
    h = Gate("H", (wire,))
    if name == "dropped control":
        gates[at] = Gate(g.kind, g.targets)
    elif name == "dropped last control":
        gates[last] = Gate(gates[last].kind, gates[last].targets,
                           gates[last].angle, gates[last].controls[:-1])
    elif name == "swapped letter":
        gates[at] = Gate("Y" if g.kind == "X" else "X", g.targets,
                         controls=g.controls)
    elif name == "phase pi/4":
        gates.append(Gate("PHASE", (0,), math.pi / 4))
    elif name == "quarter turn":
        gates.append(Gate("PHASE", (na - 1,), math.pi / 2, ((0, "-"),)))
    elif name == "H pair around a gate":
        gates[at:at + 1] = [h, g, h]
    elif name == "system-controlled Z":
        gates.append(Gate("Z", (0,), controls=((na, "+"),)))
    elif name == "undone Y pair":
        gates += [Gate("Y", (wire,), controls=((0, "+"),))] * 2
    elif name == "commuting swap":
        gates[at], gates[at + 1] = gates[at + 1], gates[at]
    return Circuit(circuit.num_qubits, gates, na)


MUTATIONS = ["dropped control", "dropped last control", "swapped letter",
             "phase pi/4", "quarter turn", "H pair around a gate",
             "system-controlled Z", "undone Y pair", "commuting swap"]


class TestCodeBlock:
    """The exact check against the dense per-code reference, which runs the
    whole SELECT on each code's |code>⊗I columns with nothing fixed."""

    @pytest.mark.parametrize("layout", [
        ((0,), (1,), 2), ((0, 1), (2, 3), 4), ((0, 2), (3, 5), 7)])
    @pytest.mark.parametrize("theta", [0.0, 0.7, -2.5, math.pi])
    def test_select_blocks_match_full_unitary(self, layout, theta):
        occ, virt, nq = layout
        f = UccFactor(occ, virt, theta, nq)
        plan = derive_select_plan(f)
        circuit = synth_select(f, plan)
        report = verify_select(f, plan, circuit)
        assert dense_passes(f, plan, circuit)
        assert report.passed and report.max_deviation == 0.0

    @pytest.mark.parametrize("f", [
        UccFactor((0, 1, 2), (3, 4, 5), 0.7, 6),
        UccFactor((0, 2, 4), (1, 3, 5), -2.5, 6),
    ], ids=["adjacent", "interleaved"])
    def test_rank3_verdict_matches_dense_reference(self, f):
        plan = derive_select_plan(f)
        circuit = synth_select(f, plan)
        assert dense_passes(f, plan, circuit)
        assert verify_select(f, plan, circuit).passed

    @pytest.mark.parametrize("name", MUTATIONS)
    @pytest.mark.parametrize("f", [
        UccFactor((0,), (1,), 0.7, 2),
        UccFactor((0, 2), (1, 3), -2.5, 4),
        UccFactor((0, 1), (4, 6), 0.7, 7),
        UccFactor((0, 1, 2), (3, 4, 5), 0.7, 6),
    ], ids=["rank1", "rank2-interleaved", "rank2-gapped", "rank3"])
    def test_mutation_verdict_matches_dense_reference(self, f, name):
        plan = derive_select_plan(f)
        circuit = mutated(synth_select(f, plan), name)
        report = verify_select(f, plan, circuit)
        assert report.passed == dense_passes(f, plan, circuit)
        assert report.passed == (name in ("undone Y pair", "commuting swap"))
        assert report.max_deviation == (0.0 if report.passed else math.inf)

    def test_undone_h_pair_is_refused_though_dense_passes(self):
        """The one deliberate difference: H is not a Pauli, so an H pair on a
        system wire is refused even though it multiplies to the identity."""
        plan = derive_select_plan(ADJ2)
        circuit = synth_select(ADJ2, plan)
        circuit.extend([Gate("H", (5,)), Gate("H", (5,))])
        assert dense_passes(ADJ2, plan, circuit)
        assert verify_select(ADJ2, plan, circuit).max_deviation == math.inf

    @pytest.mark.parametrize("extra", [
        [Gate("H", (0,))], [Gate("RY", (1,), 0.3)],
        [Gate("X", (2,)), Gate("X", (2,))],   # undone, still refused
    ])
    def test_code_moving_gate_fails_without_raising(self, extra):
        plan = derive_select_plan(ADJ2)
        circ = synth_select(ADJ2, plan)
        circ.extend(extra)
        report = verify_select(ADJ2, plan, circuit=circ)
        assert not report.passed
        assert report.max_deviation == math.inf

    def test_foreign_layout_is_refused(self):
        # ADJ2's SELECT with a spare wire between the bank and the system
        select = synth_select(ADJ2)
        shift = lambda q: q + 1 if q >= select.num_ancilla else q
        circuit = Circuit(select.num_qubits + 1, [
            Gate(g.kind, tuple(map(shift, g.targets)), g.angle, g.controls)
            for g in select.gates], select.num_ancilla + 1)
        with pytest.raises(ValueError, match="laid out"):
            verify_select(ADJ2, circuit=circuit)


@functools.lru_cache(maxsize=None)
def plan_for(occ, virt, nq):
    # plans do not depend on theta, and rank-6 planning takes a second
    return derive_select_plan(UccFactor(occ, virt, 0.7, nq))


def fixup_phases(circuit, num_ancilla):
    """Phase each ancilla code picks up from the PHASE/GLOBALPHASE gates,
    read gate by gate from the controls, with no statevector."""
    fixups = [g for g in circuit.gates if g.kind in ("PHASE", "GLOBALPHASE")]
    out = {}
    for code in range(1 << num_ancilla):
        bit = lambda w: (code >> (num_ancilla - 1 - w)) & 1
        phase = 1.0 + 0j
        for g in fixups:
            fires = all(bit(q) == (pol == "+") for q, pol in g.controls)
            if fires and all(bit(t) for t in g.targets):
                phase *= np.exp(1j * g.angle)
        out[code] = phase
    return out


FIXUP_LAYOUTS = [
    ((0, 1, 2, 3), (4, 5, 6, 7), 8),
    ((0, 2, 3, 5), (6, 9, 10, 12), 13),
    ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9), 10),
    ((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11), 12),
]
FIXUP_THETAS = [0.0, 1e-20, math.pi, -math.pi, 2 * math.pi, 0.7, -2.5]
REFERENCE_THETAS = [0.0, -0.0, 1e-9, 0.7, -0.7, math.pi / 2, -math.pi / 2,
                    2.5, -2.5, math.pi, -math.pi, 3.0, 6.0]


def layouts_of_rank(n):
    """Adjacent, interleaved, and gapped with chain wires and a spectator."""
    return [(tuple(range(n)), tuple(range(n, 2 * n)), 2 * n),
            (tuple(range(0, 2 * n, 2)), tuple(range(1, 2 * n, 2)), 2 * n),
            (tuple(range(0, 3 * n, 3)), tuple(range(3 * n + 1, 5 * n, 2)),
             5 * n + 1)]


GRID_THETAS = [0.0, 0.7, -0.7, math.pi / 2, -math.pi / 2, 2.5, -2.5, math.pi]


class TestPastTheDenseCap:
    """No dense array, so no rank limit: ranks 4-6 and wide registers pass
    in one pass over the gates."""

    @pytest.mark.parametrize("layout", [
        ((0, 1, 2, 3), (4, 5, 6, 7), 8),
        ((0, 2, 4, 6, 8), (1, 3, 5, 7, 9), 10),
        ((0, 1, 3, 4, 6, 7), (9, 10, 12, 13, 15, 16), 18),
        ((0, 5, 9), (14, 20, 29), 30),
    ], ids=["rank4-adjacent", "rank5-interleaved", "rank6-gapped", "rank3-n30"])
    def test_passes_without_a_dense_array(self, layout):
        plan = plan_for(*layout)
        for theta in GRID_THETAS:
            f = UccFactor(layout[0], layout[1], theta, layout[2])
            report = verify_select(f, plan, synth_select(f, plan))
            assert report.passed and report.max_deviation == 0.0, theta
        # the dense route's rank-5 batch alone was 16 GiB
        circuit = synth_select(f, plan)
        tracemalloc.start()
        try:
            verify_select(f, plan, circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestPhasePolynomial:
    """The closed-form fix-ups: read off the gates themselves, and matched
    against the phase polynomial that a search over the code table finds."""

    @pytest.mark.parametrize(
        "layout", [lay for n in range(1, 8) for lay in layouts_of_rank(n)]
        + [layouts_of_rank(8)[1]], ids=lambda lay: f"N{lay[2]}-{lay[0]}")
    def test_closed_form_equals_mobius_reference(self, layout):
        plan = derive_select_plan(UccFactor(*layout[:2], 0.7, layout[2]))
        for theta in REFERENCE_THETAS:
            f = UccFactor(layout[0], layout[1], theta, layout[2])
            fixups = [g for g in synth_select(f).gates
                      if g.kind in ("PHASE", "GLOBALPHASE")]
            assert fixups == mobius_fixups(
                plan, code_phase_targets(f, plan)), theta

    @pytest.mark.parametrize("layout", FIXUP_LAYOUTS)
    def test_fixups_meet_code_targets(self, layout):
        plan = plan_for(*layout)
        na = plan.num_ancilla
        for theta in FIXUP_THETAS:
            f = UccFactor(layout[0], layout[1], theta, layout[2])
            got = fixup_phases(synth_select(f, plan), na)
            targets = code_phase_targets(f, plan)
            for code, entry in plan.code_table.items():
                want = 1j ** ((targets[code] - entry.phase_power) % 4)
                assert abs(got[code] - want) <= 1e-12, (theta, code)

    @pytest.mark.parametrize("layout", [((0,), (1,), 2), ((0, 1), (4, 6), 7)]
                             + FIXUP_LAYOUTS)
    def test_fixup_shape(self, layout):
        """Z on wire 1, then S or S† on the sector wire, both uncontrolled,
        at every rank, at generic theta and at the zero weights of theta = 0
        and 1e-9 alike."""
        plan = plan_for(*layout)
        for theta in (0.7, -0.7, 2.5, -2.5, 3.0, 0.0, -0.0, 1e-9):
            f = UccFactor(layout[0], layout[1], theta, layout[2])
            fixups = [g for g in synth_select(f, plan).gates
                      if g.kind in ("PHASE", "GLOBALPHASE")]
            # sin theta = 0 counts as positive
            s = -math.pi / 2 if math.sin(theta) < 0 else math.pi / 2
            assert fixups == [Gate("PHASE", (1,), math.pi),
                              Gate("PHASE", (0,), s)], theta

    @pytest.mark.parametrize("n", range(1, 13))
    def test_no_gate_has_two_controls(self, n):
        """Every SELECT gate but the fix-ups has one control, on a code wire;
        the fix-ups are exactly the two uncontrolled PHASE gates."""
        for occ, virt, nq in layouts_of_rank(n):
            for theta in (0.7, -2.5, 0.0):
                gates = synth_select(UccFactor(occ, virt, theta, nq)).gates
                assert all(len(g.controls) == 1 and g.controls[0][0] < 2 * n
                           for g in gates[:-2]), (occ, virt, theta)
                assert [(g.kind, g.targets, g.controls) for g in gates[-2:]] \
                    == [("PHASE", (1,), ()), ("PHASE", (0,), ())]
                assert not [g for g in gates[:-2]
                            if g.kind in ("PHASE", "GLOBALPHASE")]

    def test_synthesis_builds_no_code_table(self, monkeypatch, capsys):
        def refuse(f):
            raise AssertionError("the code table was built")

        monkeypatch.setattr("ucclcu.select.derive_select_plan", refuse)
        monkeypatch.setattr("ucclcu.cli.derive_select_plan", refuse)
        f = UccFactor((0, 2, 4), (1, 3, 5), 0.7, 6)
        assert len(synth_select(f).gates) == 6 + 2 * 5 + 2
        assert pad_and_synth_oaa(f).oaa_rounds == 1
        assert main(["synth", "--part", "oaa", "--rank", "3",
                     "--theta", "0.7"]) == 0
        assert json.loads(capsys.readouterr().out)["num_ancilla"] == 6

    def test_phase_outside_z4_is_refused(self, monkeypatch):
        # a coefficient unit off the powers of i is refused at planning time
        import ucclcu.select as select_mod
        real = select_mod.excitation_pauli_sum
        monkeypatch.setattr(select_mod, "excitation_pauli_sum",
                            lambda f: real(f) * np.exp(0.1j))
        with pytest.raises(PlanningError, match="not a power of i") as err:
            derive_select_plan(ADJ2)
        assert set(err.value.offending_string) <= {"X", "Y"}


class TestPlanningFailure:
    def test_missing_chain_is_detected(self, monkeypatch):
        # sabotage the idle-gap derivation: the reference string then falls
        # outside the sector's expansion and planning must refuse it
        import ucclcu.select as select_mod
        monkeypatch.setattr(select_mod, "chain_qubits", lambda f: [])
        with pytest.raises(PlanningError) as err:
            derive_select_plan(GAP2)
        assert err.value.offending_string is not None
        assert len(err.value.offending_string) == 7

    def test_offending_string_attribute(self):
        e = PlanningError("no decomposition", "XXXY")
        assert isinstance(e, RuntimeError)
        assert e.offending_string == "XXXY"

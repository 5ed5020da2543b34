"""Code-to-string planning and the controlled-mask SELECT circuit."""

import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from ucclcu.errors import PlanningError, ResourceLimitError
from ucclcu.fermion import (UccFactor, chain_qubits, excitation_pauli_sum,
                            projector_pauli_sum)
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
        assert self.plan.iz_reference.letters == "IZZI"
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
        assert table[0b0100].string.letters == "IIII"
        assert self.plan.identity_code == 0b0100

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
        assert plan.iz_reference.letters == "ZZ"
        assert plan.identity_code == 0b01
        assert [m.letters for m in plan.masks] == ["ZZ"]

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
        assert plan.iz_reference.letters == "IZIIZII"

    def test_deterministic_json(self):
        a = json.dumps(derive_select_plan(ADJ2).to_json_dict(), sort_keys=True)
        b = json.dumps(derive_select_plan(ADJ2).to_json_dict(), sort_keys=True)
        assert a == b

    def test_json_shape(self):
        d = derive_select_plan(ADJ2).to_json_dict()
        assert d["identity_code"] == "0100"
        assert {"code", "string", "phase", "coeff_unit"} == set(
            d["code_table"][0])
        assert all(len(e["code"]) == 4 for e in d["code_table"])
        units = {e["coeff_unit"] for e in d["code_table"]}
        assert units <= {"+1", "-1", "+i", "-i"}


class TestPhaseTargets:
    def test_theta_zero_all_unit(self):
        f = UccFactor((0, 1), (2, 3), 0.0, 4)
        plan = derive_select_plan(f)
        targets = code_phase_targets(f, plan)
        assert all(p == 0 for p in targets.values())

    def test_positive_theta_signs(self):
        plan = derive_select_plan(ADJ2)
        targets = code_phase_targets(ADJ2, plan)
        na = plan.num_ancilla
        for code, entry in plan.code_table.items():
            if sector_of(code, na):
                assert targets[code] == entry.coeff_power  # sin(0.7) > 0
            elif entry.string.is_identity():
                assert targets[code] == 0
            else:  # cos(0.7) - 1 < 0
                assert targets[code] == (entry.coeff_power + 2) % 4

    def test_negative_theta_flips_excitation_sector(self):
        f = UccFactor((0, 1), (2, 3), -0.7, 4)
        plan = derive_select_plan(f)
        targets = code_phase_targets(f, plan)
        for code, entry in plan.code_table.items():
            if sector_of(code, plan.num_ancilla):
                assert targets[code] == (entry.coeff_power + 2) % 4

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

    def test_reference_controls_split_by_sector(self):
        plan = derive_select_plan(GAP2)
        circ = synth_select(GAP2, plan)
        sector = plan.to_json_dict()["sector_qubit"]
        on_sector = [g for g in circ.gates if len(g.controls) == 1
                     and g.controls[0][0] == sector]
        positives = [g for g in on_sector if g.controls[0][1] == "+"]
        negatives = [g for g in on_sector if g.controls[0][1] == "-"]
        # chain Z + four active letters on the excitation side, Z pair opposite
        assert len(positives) == 5
        assert len(negatives) == 2
        letters = sorted(g.kind for g in positives)
        assert letters == ["X", "X", "X", "Y", "Z"]

    def test_mismatched_circuit_fails_verification(self):
        flipped = UccFactor((0, 1), (2, 3), -0.7, 4)
        plan = derive_select_plan(ADJ2)
        report = verify_select(ADJ2, plan, circuit=synth_select(flipped, plan))
        assert not report.passed
        assert sector_of(report.worst_code, 4) == 1

    def test_system_offset_guard(self):
        with pytest.raises(ValueError):
            synth_select(ADJ2, system_offset=3)


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


class TestDenseGuard:
    def test_rank5_batch_refused_before_allocating(self):
        # each code's batch would be 2^20 x 2^10 complex entries (16 GiB)
        f = UccFactor(tuple(range(5)), tuple(range(5, 10)), 0.5, 10)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="exceeds the cap"):
                verify_select(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPhasePolynomial:
    """The fix-ups past the dense cap, read off the gates themselves."""

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
        plan = plan_for(*layout)
        n = plan.rank
        for theta in (0.7, -0.7, 2.5, -2.5, 3.0):
            f = UccFactor(layout[0], layout[1], theta, layout[2])
            fixups = [g for g in synth_select(f, plan).gates
                      if g.kind in ("PHASE", "GLOBALPHASE")]
            assert len(fixups) <= 3
            assert max(len(g.controls) for g in fixups) <= 2 * n - 1

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

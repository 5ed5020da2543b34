"""Block-encoding assembly, postselection, and exact amplification rounds."""

import hashlib
import itertools
import json
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucclcu.circuit import Circuit, Gate, restrict, unitary_of
from ucclcu.errors import ResourceLimitError
from ucclcu.fermion import UccFactor, chain_qubits, exact_unitary
from ucclcu.lcu import (ancilla_zero_block, assemble_w,
                        exact_amplification_one_norm, matched_phases,
                        pad_and_synth_oaa, phase_aligned_deviation,
                        reflection_on_ancilla, verify_end_to_end)
from ucclcu.prepare import lcu_coefficients, synth_prepare
from ucclcu.select import derive_select_plan, synth_select

THETAS = [-0.3, 0.3, math.pi / 4, 1.0, math.pi / 2, 2.5]


def standard_factor(n, theta):
    return UccFactor(tuple(range(n)), tuple(range(n, 2 * n)), theta, 2 * n)


def oaa_phase(f):
    """The phase that best aligns the full-register OAA block with U."""
    block = ancilla_zero_block(pad_and_synth_oaa(f).oaa_circuit)[0]
    return phase_aligned_deviation(block, exact_unitary(f))[1]


class TestAmplificationNorms:
    def test_exact_round_values(self):
        assert exact_amplification_one_norm(0) == pytest.approx(1.0)
        assert exact_amplification_one_norm(1) == pytest.approx(2.0)
        # 1/sin(pi/10) = 1 + sqrt(5)
        assert exact_amplification_one_norm(2) == pytest.approx(
            1.0 + math.sqrt(5.0), abs=1e-14)

    def test_monotone_increasing(self):
        values = [exact_amplification_one_norm(m) for m in range(8)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            exact_amplification_one_norm(-1)


class TestAssembleW:
    def test_block_is_unitary_over_s(self):
        f = standard_factor(1, 0.8)
        w = assemble_w(f)
        s = lcu_coefficients(1, 0.8).s_one_norm
        block, leakage = ancilla_zero_block(w)
        assert np.linalg.norm(s * block - exact_unitary(f), 2) < 1e-12
        # leakage columns fill the unitarity defect isotropically
        assert leakage == pytest.approx(math.sqrt(1.0 - 1.0 / s ** 2),
                                        abs=1e-12)

    @pytest.mark.parametrize("f", [standard_factor(1, 0.8),
                                   standard_factor(2, 0.7),
                                   UccFactor((0, 1), (4, 6), -2.5, 7)])
    def test_w_is_prepare_select_unprepare(self, f):
        # PREPARE loads the identity weight on code 0 and SELECT maps code 0
        # to the identity string, so nothing sits between them
        prep = synth_prepare(f.rank, f.theta).gates
        unprep = [g.inverse() for g in reversed(prep)]
        assert assemble_w(f).gates == prep + synth_select(f).gates + unprep


class TestReflection:
    def test_one_zero_code_phase(self):
        assert reflection_on_ancilla(3, math.pi) == [Gate(
            "GLOBALPHASE", (), math.pi, ((0, "-"), (1, "-"), (2, "-")))]

    @pytest.mark.parametrize("num_ancilla,width", [(1, 2), (2, 3), (3, 5)])
    def test_reflects_ancilla_vacuum(self, num_ancilla, width):
        for phi in (math.pi, 1.1):
            circ = Circuit(width, reflection_on_ancilla(num_ancilla, phi))
            dim, dim_sys = 1 << width, 1 << (width - num_ancilla)
            expected = np.eye(dim, dtype=complex)
            # only the ancilla |0..0> block picks up e^{i phi}
            expected[:dim_sys, :dim_sys] *= np.exp(1j * phi)
            assert np.linalg.norm(unitary_of(circ) - expected, 2) < 1e-14


def model_entry(s, m, phi):
    """(0,0) entry of (W S Wᵀ S)^m W, W = [[1/s, -b], [b, 1/s]] and
    S = diag(e^{i phi}, 1): the amplified block over U."""
    a = 1.0 / s
    b = math.sqrt(1.0 - a * a)
    w = np.array([[a, -b], [b, a]])
    reflect = np.diag([np.exp(1j * phi), 1.0])
    rounds = np.linalg.matrix_power(w @ reflect @ w.T @ reflect, m)
    return (rounds @ w)[0, 0]


class TestMatchedPhases:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_model_block_is_unitary_and_aligned(self, m):
        lo = exact_amplification_one_norm(m - 1)
        hi = exact_amplification_one_norm(m)
        for t in np.linspace(0.0, 1.0, 41)[1:]:
            s = lo + t * (hi - lo)
            rounds, phi, chi = matched_phases(s)
            assert rounds == m
            assert phi == pytest.approx(2.0 * math.asin(s / hi), abs=1e-15)
            assert math.pi / 3 - 1e-12 <= phi <= math.pi
            entry = model_entry(s, m, phi)
            assert abs(abs(entry) - 1.0) <= 1e-14, s
            assert abs(np.exp(1j * chi) * entry - 1.0) <= 1e-14, s

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_level_gives_the_plain_reflection(self, m):
        assert matched_phases(exact_amplification_one_norm(m))[:2] == \
            (m, math.pi)

    def test_just_above_a_level_takes_the_next(self):
        s = exact_amplification_one_norm(1)
        assert matched_phases(math.nextafter(s, 3.0))[0] == 2


class TestRoundPolicy:
    def test_half_pi_rank1_needs_no_pad(self):
        a = pad_and_synth_oaa(standard_factor(1, math.pi / 2))
        assert (a.oaa_rounds, a.pad_qubits) == (1, 0)
        assert a.s_one_norm == pytest.approx(2.0, abs=1e-14)
        assert a.s_effective == pytest.approx(2.0, abs=1e-14)

    def test_half_pi_rank2_pads_to_second_level(self):
        # s = 11/4 lies between s_1 and s_2: two rounds at phi < pi, on the
        # four code wires alone
        f = standard_factor(2, math.pi / 2)
        a = pad_and_synth_oaa(f)
        assert (a.oaa_rounds, a.pad_qubits) == (2, 0)
        assert a.s_one_norm == pytest.approx(11 / 4, abs=1e-14)
        assert a.s_effective == pytest.approx(1.0 + math.sqrt(5.0), abs=1e-12)
        assert a.oaa_circuit.num_ancilla == 4
        assert a.oaa_circuit.num_qubits == 8
        assert verify_end_to_end(f, mode="oaa").passed

    def test_theta_zero_skips_amplification(self):
        a = pad_and_synth_oaa(standard_factor(1, 0.0))
        assert (a.oaa_rounds, a.pad_qubits) == (0, 0)
        assert len(a.oaa_circuit.gates) == len(a.w_circuit.gates)

    def test_theta_pi_dust_bumps_to_one_round(self):
        # s = 1 + O(eps) from the vanishing sine overshoots s_0 = 1: one
        # round, phase-matched to phi ~ pi/3
        f = standard_factor(1, math.pi)
        a = pad_and_synth_oaa(f)
        assert (a.oaa_rounds, a.pad_qubits) == (1, 0)
        assert a.s_effective == pytest.approx(2.0, abs=1e-12)
        assert matched_phases(a.s_one_norm)[1] == pytest.approx(math.pi / 3)
        assert verify_end_to_end(f, mode="oaa").passed

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("theta", [1e-16, -1e-16])
    def test_sine_below_half_an_ulp_still_takes_a_round(self, n, theta):
        # s rounds to 1.0, yet W leaks sqrt(2 |sin theta|) = 1.4e-8 off the
        # ancilla vacuum: sin theta != 0 alone asks for one round
        f = standard_factor(n, theta)
        assert lcu_coefficients(n, theta).s_one_norm == 1.0
        assert verify_end_to_end(f, mode="postselect").passed
        r = verify_end_to_end(f, mode="oaa")
        assert r.passed and r.rounds == 1 and r.leakage <= 1e-13

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("theta", THETAS)
    def test_policy_invariants(self, n, theta):
        a = pad_and_synth_oaa(standard_factor(n, theta))
        m, s = a.oaa_rounds, a.s_one_norm
        assert exact_amplification_one_norm(m) >= s - 1e-12
        if m > 0:
            # minimal: one fewer round could not reach s
            assert exact_amplification_one_norm(m - 1) < s + 1e-9
            assert a.s_effective == pytest.approx(
                exact_amplification_one_norm(m), abs=1e-12)


class TestPostselection:
    def test_no_ancilla_block_is_whole_unitary(self):
        circ = Circuit(1, [Gate("X", (0,))])
        block, leakage = ancilla_zero_block(circ)
        assert leakage == 0.0
        assert np.allclose(block, np.array([[0, 1], [1, 0]]))

    def test_oversized_column_batch_refused_before_allocating(self):
        # 21 wires over 10 system qubits: 2^21 x 2^10 complex columns would
        # take 32 GiB
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="exceeds the cap"):
                ancilla_zero_block(Circuit(21, num_ancilla=11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPhaseAlignment:
    def test_removes_global_phase(self):
        u = exact_unitary(standard_factor(1, 0.6))
        dev, phi = phase_aligned_deviation(np.exp(0.3j) * u, u)
        assert dev < 1e-12
        assert phi == pytest.approx(-0.3, abs=1e-12)

    def test_aligned_input_keeps_zero_angle(self):
        u = exact_unitary(standard_factor(1, 0.6))
        dev, phi = phase_aligned_deviation(u, u)
        assert dev < 1e-12 and abs(phi) < 1e-12

    def test_orthogonal_overlap_defaults_to_zero_angle(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        dev, phi = phase_aligned_deviation(x, z)
        assert phi == 0.0
        assert dev == pytest.approx(math.sqrt(2.0), abs=1e-12)


class TestEndToEnd:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("theta", THETAS)
    def test_postselect_grid(self, n, theta):
        r = verify_end_to_end(standard_factor(n, theta), mode="postselect")
        assert r.passed
        assert r.deviation <= 1e-8
        assert r.success_probability == pytest.approx(
            1.0 / r.s_one_norm ** 2, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("theta", THETAS)
    def test_amplified_grid(self, n, theta):
        r = verify_end_to_end(standard_factor(n, theta), mode="oaa")
        assert r.passed
        assert r.deviation <= 1e-13
        assert r.leakage <= 1e-13
        assert abs(oaa_phase(standard_factor(n, theta))) <= 1e-12

    def test_half_pi_rank2_probability(self):
        r = verify_end_to_end(standard_factor(2, math.pi / 2),
                              mode="postselect")
        assert r.success_probability == pytest.approx(16 / 121, abs=1e-9)

    def test_gapped_orbitals(self):
        f = UccFactor((0, 1), (4, 6), 0.9, 7)
        for mode in ("postselect", "oaa"):
            r = verify_end_to_end(f, mode=mode)
            assert r.passed, mode
        assert abs(oaa_phase(f)) <= 1e-12

    def test_theta_zero(self):
        r = verify_end_to_end(standard_factor(1, 0.0), mode="oaa")
        assert r.passed and r.rounds == 0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            verify_end_to_end(standard_factor(1, 0.5), mode="amplify")


# (occ, virt, N) with spectators: gapped and interleaved, with no chain, one
# chain or chain wires past the kept one, so both chain parities occur
SPECTATOR_LAYOUTS = [
    ((3,), (4,), 7),          # adjacent actives, no chain
    ((1,), (5,), 8),          # gapped, chains 2-4
    ((0, 3), (1, 2), 6),      # interleaved, no chain
    ((0, 1), (4, 6), 7),      # gapped, one chain (5)
    ((0, 2), (3, 6), 7),      # gapped, chains 1, 4, 5
    ((0, 4), (2, 6), 7),      # interleaved, chains 1, 5
]
SPECTATOR_THETAS = [0.7, -2.5, math.pi / 2]


def circuit_for(f, mode):
    return assemble_w(f) if mode == "postselect" else \
        pad_and_synth_oaa(f).oaa_circuit


class TestSpectatorReduction:
    """verify_end_to_end simulates only the actives and the first chain
    wire; the full-register route, `ancilla_zero_block` of the whole
    emitted circuit, is the oracle."""

    @pytest.mark.parametrize("mode", ["postselect", "oaa"])
    @pytest.mark.parametrize("layout", SPECTATOR_LAYOUTS,
                             ids=lambda l: f"{l[0]}-{l[1]}-N{l[2]}")
    def test_restricted_block_is_every_spectator_slice(self, layout, mode):
        """Each spectator value's slice of the full block is bitwise the
        restricted block, its kept chain bit flipped at odd chain parity;
        the report matches the full route's within 1e-14."""
        occ, virt, nq = layout
        chains = chain_qubits(UccFactor(occ, virt, 0.0, nq))
        kept = sorted(set(occ + virt) | set(chains[:1]))
        spectators = [q for q in range(nq) if q not in kept]
        flip = tuple(i for i, q in enumerate(kept) if q in chains)
        flip += tuple(len(kept) + i for i in flip)
        for theta in SPECTATOR_THETAS:
            f = UccFactor(occ, virt, theta, nq)
            circuit = circuit_for(f, mode)
            full, leakage = ancilla_zero_block(circuit)
            na = circuit.num_ancilla
            block = ancilla_zero_block(
                restrict(circuit, {na + q for q in spectators}))[0]
            block = block.reshape((2,) * (2 * len(kept)))
            cube = full.reshape((2,) * (2 * nq))
            for bits in itertools.product((0, 1), repeat=len(spectators)):
                value = dict(zip(spectators, bits))
                index = tuple(value.get(q, slice(None)) for q in range(nq))
                odd = sum(value.get(q, 0) for q in chains) % 2
                expected = np.flip(block, flip) if odd else block
                assert np.array_equal(cube[index + index], expected), \
                    (theta, bits)

            s = lcu_coefficients(f.rank, theta).s_one_norm
            if mode == "postselect":
                deviation = phase_aligned_deviation(s * full, exact_unitary(f))[0]
            else:
                deviation, phase = phase_aligned_deviation(full, exact_unitary(f))
                assert abs(phase) <= 1e-12
            r = verify_end_to_end(f, mode=mode)
            assert abs(r.deviation - deviation) <= 1e-14
            assert abs(r.leakage - leakage) <= 1e-14
            if mode == "postselect":
                probability = np.linalg.norm(full, 2) ** 2
                assert abs(r.success_probability - probability) <= 1e-14
                full_pass = abs(probability - 1 / s ** 2) <= 1e-9
            else:
                full_pass = leakage <= 1e-8
            assert r.passed and deviation <= 1e-8 and full_pass, theta

    def test_restricted_circuits_are_pinned(self):
        """Over the grid, the restricted circuits are gate for gate those the
        general rule (wires held at 0 or 1, phases on held wires as gates on
        kept ones) returned with the spectators at 0; angles to 12 digits."""
        rows = []
        for (occ, virt, nq), theta, mode in itertools.product(
                SPECTATOR_LAYOUTS, SPECTATOR_THETAS, ["postselect", "oaa"]):
            f = UccFactor(occ, virt, theta, nq)
            circuit = circuit_for(f, mode)
            kept = set(occ + virt) | set(chain_qubits(f)[:1])
            r = restrict(circuit, {circuit.num_ancilla + q for q in range(nq)
                                   if q not in kept})
            rows.append([r.num_qubits, r.num_ancilla, [
                [g.kind, list(g.targets),
                 None if g.angle is None else f"{g.angle:.12g}",
                 [list(c) for c in g.controls]] for g in r.gates]])
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
            "6844381eec1ff205bcab828556049e19f19da141ea5833a59638386bf2386754"

    def test_grid_has_padded_and_unpadded_circuits(self):
        # one and two rounds, with phi = pi (s = s_1 at rank 1, theta = pi/2)
        # and phi < pi
        grid = [UccFactor(occ, virt, theta, nq)
                for (occ, virt, nq), theta in itertools.product(
                    SPECTATOR_LAYOUTS, SPECTATOR_THETAS)]
        assert [pad_and_synth_oaa(f).oaa_rounds for f in grid] == \
            [1, 1, 1, 1, 1, 1, 1, 2, 2, 1, 2, 2, 1, 2, 2, 1, 2, 2]
        assert all(verify_end_to_end(f, mode="oaa").passed for f in grid)

    @pytest.mark.parametrize("mode", ["postselect", "oaa"])
    def test_gate_moving_a_spectator_fails_without_raising(self, monkeypatch,
                                                           mode):
        f = UccFactor((0, 2), (3, 6), 0.7, 8)   # spectators 4, 5, 7

        def stray_x(f):
            w = assemble_w(f)
            return w.append(Gate("X", (w.num_ancilla + 7,)))

        monkeypatch.setattr("ucclcu.lcu.assemble_w", stray_x)
        r = verify_end_to_end(f, mode=mode)
        assert not r.passed
        assert r.deviation == math.inf


# adjacent at ranks 1-5, the spectator grid, and gapped and interleaved
# layouts at ranks 3-5
LONG_GATE_LAYOUTS = [
    (tuple(range(n)), tuple(range(n, 2 * n)), 2 * n) for n in range(1, 6)
] + SPECTATOR_LAYOUTS + [
    ((0, 2, 4), (1, 3, 5), 6),
    ((0, 2, 3, 5), (6, 9, 10, 12), 13),
    ((0, 2, 4, 6, 8), (1, 3, 5, 7, 9), 10),
]
LONG_GATE_THETAS = [0.0, 1e-20, 0.7, -0.7, math.pi / 2, -math.pi / 2, 2.5,
                    -2.5, 3.0, math.pi, -math.pi, 2 * math.pi]


@pytest.mark.parametrize("layout", LONG_GATE_LAYOUTS,
                         ids=lambda l: f"{l[0]}-{l[1]}-N{l[2]}")
def test_long_gates_are_zero_code_phases(layout):
    """W and OAA have exactly the 2n code wires as ancillas, and every gate
    with three or more controls is a GLOBALPHASE anticontrolled on exactly
    those wires: SELECT's code-0 phase, its inverse from W†, or the matched
    reflection R_phi."""
    occ, virt, nq = layout
    code_wires = tuple((q, "-") for q in range(2 * len(occ)))
    for theta in LONG_GATE_THETAS:
        f = UccFactor(occ, virt, theta, nq)
        select = {g.angle for g in synth_select(f).gates if len(g.controls) >= 3}
        select |= {-angle for angle in select}
        s = lcu_coefficients(f.rank, theta).s_one_norm
        if math.sin(theta):  # the round rule matches s < 1 + ulp to 1 + ulp
            s = max(s, math.nextafter(1.0, 2.0))
        reflection = matched_phases(s)[1]
        for circuit, angles in ((assemble_w(f), select),
                                (pad_and_synth_oaa(f).oaa_circuit,
                                 select | {reflection})):
            assert circuit.num_ancilla == 2 * f.rank, theta
            for g in circuit.gates:
                if len(g.controls) >= 3:
                    assert g.kind == "GLOBALPHASE", (theta, g)
                    assert g.controls == code_wires, (theta, g)
                    assert g.angle in angles, (theta, g)


@st.composite
def random_layouts(draw):
    """(occ, virt, N) at rank 1-2 on N <= 7: adjacent, gapped or interleaved."""
    n = draw(st.integers(1, 2))
    nq = draw(st.integers(2 * n, 7))
    kind = draw(st.sampled_from(["adjacent", "gapped", "interleaved"]))
    if kind == "adjacent":
        start = draw(st.integers(0, nq - 2 * n))
        picked = list(range(start, start + 2 * n))
    else:
        picked = draw(st.permutations(range(nq)))[:2 * n]
        if kind == "gapped":
            picked = sorted(picked)
    return tuple(sorted(picked[:n])), tuple(sorted(picked[n:])), nq


# theta where sin or cos - 1 vanishes or s meets s_1, nudged off it: at
# pi/2 +- 1e-6 the rank-1 s is 5e-13 below s_1, at 2e-6 it is 2e-12 below
EDGE_THETAS = st.builds(
    operator.add,
    st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
                     2 * math.pi]),
    st.sampled_from([0.0, 1e-9, -1e-9, 1e-6, -1e-6, 2e-6, -2e-6]))


def assert_both_modes_pass(f):
    for mode in ("postselect", "oaa"):
        r = verify_end_to_end(f, mode=mode)
        assert r.passed, (f, mode, r.deviation, r.leakage)
    assert abs(oaa_phase(f)) <= 1e-12, f


class TestRandomLayouts:
    @given(random_layouts(), st.one_of(st.floats(-7.0, 7.0), EDGE_THETAS))
    @settings(max_examples=25, deadline=None)
    def test_both_modes_pass(self, layout, theta):
        occ, virt, nq = layout
        f = UccFactor(occ, virt, theta, nq)
        assert derive_select_plan(f).code_table[0].string.is_identity()
        assert_both_modes_pass(f)

    @pytest.mark.parametrize("offset,wide", [(-1e-6, 0), (1e-6, 0),
                                             (-2e-6, 1), (2e-6, 1)])
    def test_rank1_pad_toggles_near_half_pi(self, offset, wide):
        # just below s_1, where asin is steepest: a gap s_1 - s of 5e-13
        # (wide = 0) or 2e-12 (wide = 1) moves phi off pi by about 1.4e-6
        # or 2.8e-6, and one round must stay exact
        f = standard_factor(1, math.pi / 2 + offset)
        a = pad_and_synth_oaa(f)
        assert (exact_amplification_one_norm(1) - a.s_one_norm > 1e-12) == \
            bool(wide)
        assert (a.oaa_rounds, a.pad_qubits) == (1, 0)
        assert_both_modes_pass(f)

    def test_rank2_pad_toggles_below_first_level(self):
        def s(theta):
            return lcu_coefficients(2, theta).s_one_norm

        lo, hi = 0.5, 1.2  # s(lo) < 2 = s_1 < s(hi); the crossing is near 0.85
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if s(mid) < 2.0 else (lo, mid)
        slope = (s(lo + 1e-6) - s(lo - 1e-6)) / 2e-6
        for gap in (5e-13, 2e-12):
            # s lands the gap below s_1: one round with phi just under pi
            theta = lo - gap / slope
            assert 0.0 < 2.0 - s(theta) < 4.0 * gap
            a = pad_and_synth_oaa(standard_factor(2, theta))
            assert (a.oaa_rounds, a.pad_qubits) == (1, 0)
            assert_both_modes_pass(standard_factor(2, theta))
        assert_both_modes_pass(standard_factor(2, hi))

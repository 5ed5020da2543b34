"""Block-encoding assembly, postselection, and exact amplification rounds."""

import math
import tracemalloc

import numpy as np
import pytest

from ucclcu.circuit import Circuit, Gate, unitary_of
from ucclcu.errors import ResourceLimitError
from ucclcu.fermion import UccFactor, exact_unitary
from ucclcu.lcu import (ancilla_zero_block, assemble_w,
                        exact_amplification_one_norm, pad_and_synth_oaa,
                        phase_aligned_deviation, reflection_on_ancilla,
                        verify_end_to_end)
from ucclcu.prepare import lcu_coefficients

THETAS = [-0.3, 0.3, math.pi / 4, 1.0, math.pi / 2, 2.5]


def standard_factor(n, theta):
    return UccFactor(tuple(range(n)), tuple(range(n, 2 * n)), theta, 2 * n)


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

    def test_alignment_x_gates(self):
        w = assemble_w(standard_factor(2, 0.7))
        bare_x = [g for g in w.gates if g.kind == "X" and not g.controls
                  and g.angle is None]
        # identity code 0100 has one set bit, conjugated on both sides
        assert len(bare_x) == 2
        assert {g.targets[0] for g in bare_x} == {1}


class TestReflection:
    @pytest.mark.parametrize("num_ancilla,width", [(1, 2), (2, 3), (3, 5)])
    def test_reflects_ancilla_vacuum(self, num_ancilla, width):
        circ = Circuit(width, reflection_on_ancilla(num_ancilla))
        dim, dim_sys = 1 << width, 1 << (width - num_ancilla)
        expected = np.eye(dim, dtype=complex)
        expected[:dim_sys, :dim_sys] *= -1.0  # ancilla |0..0> block flips sign
        assert np.linalg.norm(unitary_of(circ) - expected, 2) < 1e-14


class TestRoundPolicy:
    def test_half_pi_rank1_needs_no_pad(self):
        a = pad_and_synth_oaa(standard_factor(1, math.pi / 2))
        assert (a.oaa_rounds, a.pad_qubits) == (1, 0)
        assert a.s_one_norm == pytest.approx(2.0, abs=1e-14)
        assert a.s_effective == pytest.approx(2.0, abs=1e-14)

    def test_half_pi_rank2_pads_to_second_level(self):
        a = pad_and_synth_oaa(standard_factor(2, math.pi / 2))
        assert (a.oaa_rounds, a.pad_qubits) == (2, 1)
        assert a.s_one_norm == pytest.approx(11 / 4, abs=1e-14)
        assert a.s_effective == pytest.approx(1.0 + math.sqrt(5.0), abs=1e-12)
        assert a.num_ancilla == 5
        assert a.total_qubits == 9

    def test_theta_zero_skips_amplification(self):
        a = pad_and_synth_oaa(standard_factor(1, 0.0))
        assert (a.oaa_rounds, a.pad_qubits) == (0, 0)
        assert len(a.oaa_circuit.gates) == len(a.w_circuit.gates)

    def test_theta_pi_dust_bumps_to_one_round(self):
        # s = 1 + O(eps) from the vanishing sine; exactness demands padding up
        a = pad_and_synth_oaa(standard_factor(1, math.pi))
        assert (a.oaa_rounds, a.pad_qubits) == (1, 1)
        assert a.s_effective == pytest.approx(2.0, abs=1e-12)

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
        # rank-5 OAA width: 2^21 x 2^10 complex columns would take 32 GiB
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
        assert r.deviation <= 1e-8
        assert r.leakage <= 1e-8

    def test_half_pi_rank2_probability(self):
        r = verify_end_to_end(standard_factor(2, math.pi / 2),
                              mode="postselect")
        assert r.success_probability == pytest.approx(16 / 121, abs=1e-9)

    def test_gapped_orbitals(self):
        f = UccFactor((0, 1), (4, 6), 0.9, 7)
        for mode in ("postselect", "oaa"):
            r = verify_end_to_end(f, mode=mode)
            assert r.passed, mode

    def test_theta_zero(self):
        r = verify_end_to_end(standard_factor(1, 0.0), mode="oaa")
        assert r.passed and r.rounds == 0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            verify_end_to_end(standard_factor(1, 0.5), mode="amplify")

"""Coefficient families, analytic angles, and the ancilla loader."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucclcu.circuit import apply_circuit
from ucclcu.costs import realized_cnot_count
from ucclcu.errors import AngleDomainError, ResourceLimitError
from ucclcu.fermion import UccFactor, ucc_factor_expand
from ucclcu.prepare import (_loader, lcu_coefficients, prepare_angles,
                            prepare_target_amplitudes, synth_prepare,
                            verify_prepare)

THETAS = [-0.3, 0.3, math.pi / 4, 1.0, math.pi / 2, 2.5]


def loaded_state(circ):
    init = np.zeros(1 << circ.num_qubits, dtype=complex)
    init[0] = 1.0
    return apply_circuit(circ, init)


class TestCoefficients:
    def test_rank2_half_pi_families(self):
        c = lcu_coefficients(2, math.pi / 2)
        assert c.identity_coeff == pytest.approx(7 / 8)
        assert c.projector_coeff == pytest.approx(-1 / 8)
        assert c.excitation_coeff == pytest.approx(1j / 8)
        assert c.s_one_norm == pytest.approx(11 / 4)
        assert c.sector_size == 8

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("theta", THETAS)
    def test_one_norm_matches_symbolic_expansion(self, n, theta):
        f = UccFactor(tuple(range(n)), tuple(range(n, 2 * n)), theta, 2 * n)
        brute = ucc_factor_expand(f).one_norm()
        assert lcu_coefficients(n, theta).s_one_norm == pytest.approx(brute,
                                                                      abs=1e-12)

    def test_theta_zero_collapses_to_identity(self):
        c = lcu_coefficients(2, 0.0)
        assert c.identity_coeff == pytest.approx(1.0)
        assert c.projector_coeff == 0.0
        assert c.excitation_coeff == 0.0
        assert c.s_one_norm == pytest.approx(1.0)

    def test_one_norm_bounded(self):
        # s = |1+(c-1)/M| + (M-1)|c-1|/M + |sin| tends to 1 + (1-cos) + |sin|
        # for large rank, whose maximum is 2 + sqrt(2) (at theta = 3pi/4)
        for n in (1, 2, 3):
            for theta in np.linspace(-math.pi, math.pi, 101):
                assert lcu_coefficients(n, float(theta)).s_one_norm \
                    < 2.0 + math.sqrt(2.0)
        # rank 1 peaks at exactly 2 (theta = pi/2)
        assert lcu_coefficients(1, math.pi / 2).s_one_norm == pytest.approx(2.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="theta"):
            lcu_coefficients(1, theta)
        with pytest.raises(ValueError, match="theta"):
            prepare_angles(1, theta)


class TestAngles:
    def test_frozen_level1_rank2_half_pi(self):
        # arcsin(-sin(pi/2)/sqrt(8)) = arcsin(-1/(2*sqrt(2)))
        angles = prepare_angles(2, math.pi / 2)
        assert angles[0] == pytest.approx(math.asin(-1 / math.sqrt(8)),
                                                 abs=1e-15)
        assert angles[0] == pytest.approx(-0.361367, abs=1e-6)

    def test_frozen_level2_rank2_pi(self):
        # theta=pi: denominator 16, arcsin(-2/4) = -pi/6
        angles = prepare_angles(2, math.pi)
        assert angles[1] == pytest.approx(-math.pi / 6, abs=1e-15)

    def test_count_is_two_n(self):
        for n in (1, 2, 3):
            assert len(prepare_angles(n, 0.7)) == 2 * n

    def test_rank2_denominator_specialization(self):
        # D_2 = 14 + 2cos^2, D_3 = 26 + 2cos^2 + 4cos, D_4 = 50 + 2cos^2 + 12cos
        theta = 0.9
        ct = math.cos(theta)
        angles = prepare_angles(2, theta)
        for k, denom in ((2, 14 + 2 * ct * ct), (3, 26 + 2 * ct * ct + 4 * ct),
                         (4, 50 + 2 * ct * ct + 12 * ct)):
            assert angles[k - 1] == pytest.approx(
                math.asin((ct - 1) / math.sqrt(denom)), abs=1e-15)

    def test_angles_at_theta_zero_vanish(self):
        assert all(a == 0.0 for a in prepare_angles(3, 0.0))


class TestTargets:
    def test_targets_are_normalized(self):
        for n in (1, 2, 3):
            for theta in THETAS:
                t = prepare_target_amplitudes(n, theta)
                assert sum(a * a for a in t) == pytest.approx(1.0, abs=1e-12)

    def test_identity_slot_rank2_half_pi(self):
        # squared identity amplitude = (7/8) / (11/4) = 7/22
        t = prepare_target_amplitudes(2, math.pi / 2)
        assert t[0] ** 2 == pytest.approx(7 / 22, abs=1e-15)


class TestSynthPrepare:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("theta", THETAS)
    def test_verified_mode_loads_sqrt_targets(self, n, theta):
        got = np.abs(loaded_state(synth_prepare(n, theta)))
        target = np.array(prepare_target_amplitudes(n, theta))
        assert np.max(np.abs(got - target)) <= 1e-12

    def test_theta_zero_loads_identity_slot_only(self):
        state = loaded_state(synth_prepare(2, 0.0))
        expected = np.zeros(16)
        expected[0] = 1.0
        np.testing.assert_allclose(state, expected, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2])
    def test_paper_literal_full_convention_loads_alpha_itself(self, n):
        """The paper's angles, read as full angles exp(-i theta P) on the
        loader skeleton, reproduce the coefficient magnitudes |alpha| (the
        alpha vector is automatically unit norm), not sqrt(|alpha|/s) — the
        reason the loader takes its angles from the mass recursion."""
        theta = 0.7
        c = lcu_coefficients(n, theta)
        m = c.sector_size
        alpha_mag = np.array([abs(c.identity_coeff)]
                             + [abs(c.projector_coeff)] * (m - 1)
                             + [abs(c.excitation_coeff)] * m)
        assert np.linalg.norm(alpha_mag) == pytest.approx(1.0, abs=1e-12)
        got = np.abs(loaded_state(_loader(
            n, [2.0 * a for a in prepare_angles(n, theta)])))
        assert np.max(np.abs(got - alpha_mag)) <= 1e-12
        # and therefore misses the block-encoding targets by a visible margin
        sqrt_target = np.array(prepare_target_amplitudes(n, theta))
        assert np.max(np.abs(got - sqrt_target)) > 1e-2

    def test_gate_budget_structure(self):
        # RX, then an X (H on the last wire) and an RY per further wire, then
        # the closing H's: 6n-3 gates of at most one control, 8n-5 CNOTs
        for n in range(1, 7):
            circ = synth_prepare(n, 0.7)
            assert len(circ) == 6 * n - 3
            assert all(len(g.controls) <= 1 for g in circ.gates)
            assert realized_cnot_count(circ) == 8 * n - 5


def first_set_wire_magnitudes(n, angles):
    """|amplitude| per code, written from the thermometer argument alone: a
    code whose first set wire is k gets prod_{i<k} cos^2(a_i/2) ·
    sin^2(a_k/2) · 2^-(2n-1-k); code 0 gets prod_i cos^2(a_i/2)."""
    width = 2 * n
    probs = np.empty(1 << width)
    for code in range(1 << width):
        bits = [(code >> (width - 1 - w)) & 1 for w in range(width)]
        k = bits.index(1) if code else width
        p = math.prod(math.cos(a / 2) ** 2 for a in angles[:k])
        if code:
            p *= math.sin(angles[k] / 2) ** 2 * 2.0 ** -(width - 1 - k)
        probs[code] = p
    return np.sqrt(probs)


EDGE_ANGLES = st.sampled_from([0.0, math.pi, -math.pi, 2 * math.pi,
                               -2.5, 7.5, 4 * math.pi + 0.3])


class TestLoaderSkeleton:
    """The skeleton loads the first-set-wire distribution for any angles,
    independently of the mass recursion that picks them."""

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.one_of(st.floats(-13.0, 13.0), EDGE_ANGLES),
                             min_size=2 * n, max_size=2 * n))))
    @settings(max_examples=60, deadline=None)
    def test_magnitudes_follow_first_set_wire(self, case):
        n, angles = case
        got = np.abs(loaded_state(_loader(n, angles)))
        assert np.max(np.abs(got - first_set_wire_magnitudes(n, angles))) \
            <= 1e-12


class TestVerifyAndFallback:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_verified_mode_passes(self, n):
        for theta in THETAS:
            rep = verify_prepare(n, theta)
            assert rep.max_deviation <= 1e-9
            assert not rep.used_fallback

    @pytest.mark.parametrize("theta", [math.pi, -math.pi, 3 * math.pi])
    def test_zero_identity_mass_loads_exactly(self, theta):
        # rank 1 at odd multiples of pi: the identity code's target is 0, and
        # a remainder taken by subtraction left 1.49e-8 on it
        assert verify_prepare(1, theta).max_deviation <= 1e-12

    def test_oversized_loader_state_refused(self):
        # rank 15: a 2^30-entry state, refused before any synthesis
        with pytest.raises(ResourceLimitError, match="exceeds the cap"):
            verify_prepare(15, 0.7)


class TestAngleDomain:
    def test_checked_arcsin_raises_beyond_slack(self):
        from ucclcu.prepare import _checked_arcsin
        with pytest.raises(AngleDomainError):
            _checked_arcsin(1.001, "test")
        # within slack: clamps instead of raising
        assert _checked_arcsin(1.0 + 1e-14, "test") == pytest.approx(math.pi / 2)

"""Jordan-Wigner operators and the closed-form factor expansion, checked
against explicit occupation-number-basis matrices."""

import math

import numpy as np
import pytest

from ucclcu.errors import ResourceLimitError
from ucclcu.fermion import (UccFactor, chain_qubits, exact_unitary,
                            excitation_pauli_sum, expm_taylor, jw_ladder,
                            projector_pauli_sum, ucc_factor_expand)
from ucclcu.pauli import PauliString

from oracles import (annihilation_matrix, creation_matrix,
                     exact_factor_unitary, excitation_matrix,
                     projector_by_products)


class TestJwLadder:
    @pytest.mark.parametrize("nq", [1, 2, 3, 4])
    def test_matches_occupation_basis_matrices(self, nq):
        for k in range(nq):
            np.testing.assert_allclose(
                jw_ladder(k, "annihilate", nq).to_dense(),
                annihilation_matrix(k, nq), atol=1e-15)
            np.testing.assert_allclose(
                jw_ladder(k, "create", nq).to_dense(),
                creation_matrix(k, nq), atol=1e-15)

    def test_single_mode_forms(self):
        # N=1: a = (X + iY)/2 = |0><1|
        a = jw_ladder(0, "annihilate", 1).to_dense()
        np.testing.assert_allclose(a, [[0, 1], [0, 0]], atol=1e-15)

    def test_chain_sits_above_the_mode(self):
        # N=2 orbital 0: a_0 = 1/2 (X+iY) ⊗ Z — the Z acts on the higher index
        terms = dict((p.letters, c) for p, c in
                     jw_ladder(0, "annihilate", 2).terms())
        assert set(terms) == {"XZ", "YZ"}

    def test_anticommutation_relations(self):
        nq = 3
        for i in range(nq):
            for j in range(nq):
                ai = jw_ladder(i, "annihilate", nq).to_dense()
                adj = jw_ladder(j, "create", nq).to_dense()
                anti = ai @ adj + adj @ ai
                expected = np.eye(8) if i == j else np.zeros((8, 8))
                np.testing.assert_allclose(anti, expected, atol=1e-14)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            jw_ladder(0, "destroy", 2)
        with pytest.raises(ValueError):
            jw_ladder(5, "create", 2)


class TestUccFactor:
    def test_validation(self):
        with pytest.raises(ValueError):
            UccFactor((), (1,), 0.1, 2)                 # empty side
        with pytest.raises(ValueError):
            UccFactor((0, 1), (2,), 0.1, 3)             # unequal ranks
        with pytest.raises(ValueError):
            UccFactor((1, 0), (2, 3), 0.1, 4)           # not increasing
        with pytest.raises(ValueError):
            UccFactor((0,), (0,), 0.1, 2)               # overlap
        with pytest.raises(ValueError):
            UccFactor((0,), (5,), 0.1, 2)               # out of range

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="theta"):
            UccFactor((0,), (1,), theta, 2)

    def test_rank_and_actives(self):
        f = UccFactor((0, 2), (4, 6), 0.3, 7)
        assert f.rank == 2
        assert f.actives == (0, 2, 4, 6)


class TestExcitationSum:
    @pytest.mark.parametrize("occ,virt,nq", [
        ((0,), (1,), 2), ((0, 1), (2, 3), 4), ((0,), (2,), 4),
        ((0, 1), (4, 6), 7),
    ])
    def test_matches_ladder_product(self, occ, virt, nq):
        f = UccFactor(occ, virt, 0.9, nq)
        a = excitation_matrix(occ, virt, nq)
        np.testing.assert_allclose(excitation_pauli_sum(f).to_dense(),
                                   a - a.conj().T, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_term_count_is_half_sector(self, n):
        f = UccFactor(tuple(range(n)), tuple(range(n, 2 * n)), 0.5, 2 * n)
        assert len(excitation_pauli_sum(f)) == 1 << (2 * n - 1)

    def test_coefficients_pure_imaginary_uniform_magnitude(self):
        f = UccFactor((0, 1), (2, 3), 0.5, 4)
        for _, c in excitation_pauli_sum(f).terms():
            assert abs(c.real) < 1e-15
            assert abs(abs(c.imag) - 1 / 8) < 1e-15

    def test_strings_mutually_commute(self):
        f = UccFactor((0, 1), (2, 3), 0.5, 4)
        strings = [p for p, _ in excitation_pauli_sum(f).terms()]
        assert all(p.commutes(q) for p in strings for q in strings)

    def test_rank2_sign_table(self):
        """Frozen signs of the 8 excitation strings for occ=(0,1), virt=(2,3);
        the dense cross-check above guards the table itself."""
        f = UccFactor((0, 1), (2, 3), 1.0, 4)
        signs = {p.letters: round(c.imag * 8)
                 for p, c in excitation_pauli_sum(f).terms()}
        assert signs == {"XXXY": -1, "XXYX": -1, "XYXX": +1, "XYYY": -1,
                         "YXXX": +1, "YXYY": -1, "YYXY": +1, "YYYX": +1}


class TestProjectorSum:
    def test_diagonal_strings_only(self):
        f = UccFactor((0, 1), (2, 3), 0.5, 4)
        assert all(p.x_mask == 0 for p, _ in projector_pauli_sum(f).terms())

    @pytest.mark.parametrize("occ,virt,nq", [
        ((0,), (1,), 2), ((0, 1), (2, 3), 4), ((0, 1), (4, 6), 7),
        ((0, 3), (1, 2), 5), ((1, 3, 4), (0, 5, 7), 8),
    ])
    def test_matches_dense_projectors(self, occ, virt, nq):
        f = UccFactor(occ, virt, 0.5, nq)
        a = excitation_matrix(occ, virt, nq)
        adag = a.conj().T
        np.testing.assert_allclose(projector_pauli_sum(f).to_dense(),
                                   a @ adag + adag @ a, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["adjacent", "virtuals-below",
                                      "interleaved", "gapped"])
    def test_matches_number_operator_products(self, n, kind):
        # term for term and bit for bit: every coefficient is +-2^{1-2n}
        occ, virt, nq = {
            "adjacent": (range(n), range(n, 2 * n), 2 * n),
            "virtuals-below": (range(n, 2 * n), range(n), 2 * n),
            "interleaved": (range(1, 2 * n, 2), range(0, 2 * n, 2), 2 * n),
            "gapped": (range(0, 3 * n, 3), range(3 * n, 5 * n, 2), 5 * n),
        }[kind]
        f = UccFactor(tuple(occ), tuple(virt), 0.5, nq)
        got = [(p.key(), c) for p, c in projector_pauli_sum(f).terms()]
        want = [(p.key(), c) for p, c in projector_by_products(f).terms()]
        assert got == want
        assert len(got) == 1 << (2 * n - 1)

    def test_rank2_diagonal_sign_table(self):
        f = UccFactor((0, 1), (2, 3), 1.0, 4)
        table = {p.letters: round(c.real * 8)
                 for p, c in projector_pauli_sum(f).terms()}
        assert table == {"IIII": +1, "IIZZ": +1, "IZIZ": -1, "IZZI": -1,
                         "ZIIZ": -1, "ZIZI": -1, "ZZII": +1, "ZZZZ": +1}


class TestFactorExpand:
    def test_theta_zero_is_identity(self):
        f = UccFactor((0, 1), (2, 3), 0.0, 4)
        s = ucc_factor_expand(f)
        assert len(s) == 1
        assert s.coefficient(PauliString.identity(4)) == pytest.approx(1.0)

    def test_rank2_coefficient_families_at_half_pi(self):
        f = UccFactor((0, 1), (2, 3), math.pi / 2, 4)
        s = ucc_factor_expand(f)
        assert s.coefficient(PauliString.identity(4)) == pytest.approx(7 / 8)
        assert s.coefficient(PauliString.from_label("ZZZZ")) == pytest.approx(-1 / 8)
        assert s.coefficient(PauliString.from_label("YXXX")) == pytest.approx(1j / 8)
        assert len(s) == 16

    @pytest.mark.parametrize("theta", [0.3, -0.3, 1.0, 2.5, math.pi])
    def test_rank1_matches_exponential(self, theta):
        f = UccFactor((0,), (1,), theta, 2)
        np.testing.assert_allclose(ucc_factor_expand(f).to_dense(),
                                   exact_factor_unitary((0,), (1,), theta, 2),
                                   atol=1e-14)

    def test_generator_cube_identity(self):
        # E^3 = -E (E = A - A† has eigenvalues 0, ±i) is what lets the
        # exponential close at sin/cos order
        for occ, virt, nq in (((0,), (1,), 2), ((0, 1), (2, 3), 4)):
            e = excitation_pauli_sum(UccFactor(occ, virt, 1.0, nq)).to_dense()
            np.testing.assert_allclose(e @ e @ e, -e, atol=1e-13)

    def test_projector_squares_to_itself(self):
        for occ, virt, nq in (((0,), (1,), 2), ((0, 1), (2, 3), 4)):
            p = projector_pauli_sum(UccFactor(occ, virt, 1.0, nq)).to_dense()
            np.testing.assert_allclose(p @ p, p, atol=1e-13)

    def test_periodic_in_theta(self):
        base = UccFactor((0,), (2,), 0.7, 3)
        shifted = UccFactor((0,), (2,), 0.7 + 2 * math.pi, 3)
        np.testing.assert_allclose(ucc_factor_expand(base).to_dense(),
                                   ucc_factor_expand(shifted).to_dense(),
                                   atol=1e-13)


class TestExactUnitary:
    @pytest.mark.parametrize("occ,virt,nq,theta", [
        ((0,), (1,), 2, 1.3), ((0, 1), (2, 3), 4, -0.4),
        ((0, 1), (4, 6), 7, 2.2),
    ])
    def test_matches_eigendecomposition_oracle(self, occ, virt, nq, theta):
        f = UccFactor(occ, virt, theta, nq)
        np.testing.assert_allclose(exact_unitary(f),
                                   exact_factor_unitary(occ, virt, theta, nq),
                                   atol=1e-12)

    def test_is_unitary(self):
        u = exact_unitary(UccFactor((0, 1), (2, 3), 0.8, 4))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(16), atol=1e-13)

    def test_cap_enforced(self):
        f = UccFactor((0,), (1,), 0.1, 15)
        with pytest.raises(ResourceLimitError):
            exact_unitary(f)

    def test_expm_taylor_against_eigenbasis(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        anti = m - m.conj().T          # anti-Hermitian, norm > 1 → squaring path
        w, v = np.linalg.eigh(1j * anti)
        expected = v @ np.diag(np.exp(-1j * w)) @ v.conj().T
        np.testing.assert_allclose(expm_taylor(anti), expected, atol=1e-12)


class TestChainQubits:
    def test_adjacent_factor_has_no_chain(self):
        assert chain_qubits(UccFactor((0, 1), (2, 3), 0.1, 4)) == []

    def test_single_gap(self):
        assert chain_qubits(UccFactor((0,), (2,), 0.1, 3)) == [1]

    def test_double_excitation_with_gaps(self):
        # actives 0,1,4,6 on 7 qubits: only qubit 5 sits between the pairs
        # (2 and 3 see an even number of chains below and cancel out)
        assert chain_qubits(UccFactor((0, 1), (4, 6), 0.1, 7)) == [5]

    def test_chain_matches_excitation_strings(self):
        # every excitation string carries Z exactly on the chain qubits
        f = UccFactor((0, 2), (5, 7), 0.1, 8)
        chains = set(chain_qubits(f))
        actives = set(f.actives)
        for p, _ in excitation_pauli_sum(f).terms():
            idle_z = set(p.support()) - actives
            assert idle_z == chains

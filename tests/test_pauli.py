"""Symplectic Pauli algebra against dense Kronecker-product references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucclcu.errors import DimensionError, ResourceLimitError
from ucclcu.pauli import DENSE_QUBIT_CAP, PauliString, PauliSum, check_dense

from oracles import kron_pauli


def random_label(draw_len=4):
    return st.text(alphabet="IXYZ", min_size=1, max_size=draw_len)


class TestMultiply:
    def test_x_times_x_is_identity(self):
        p = PauliString.from_label("X").multiply(PauliString.from_label("X"))
        assert p.letters == "I"
        assert p.phase == 1

    def test_x_times_y_is_iz(self):
        p = PauliString.from_label("X").multiply(PauliString.from_label("Y"))
        assert p.letters == "Z"
        assert p.phase_power == 1
        assert p.phase == 1j

    def test_yx_times_zz(self):
        # (Y⊗X)(Z⊗Z) = X⊗Y with no leftover phase
        p = PauliString.from_label("YX").multiply(PauliString.from_label("ZZ"))
        assert p.letters == "XY"
        assert p.phase_power == 0
        dense = kron_pauli("YX") @ kron_pauli("ZZ")
        np.testing.assert_allclose(dense, kron_pauli("XY"), atol=1e-15)

    @pytest.mark.parametrize("a,b", [("XZIY", "YYZI"), ("ZZZZ", "XXXX"),
                                     ("IYXZ", "ZIYX")])
    def test_matches_dense_product(self, a, b):
        p = PauliString.from_label(a).multiply(PauliString.from_label(b))
        np.testing.assert_allclose(p.to_dense(), kron_pauli(a) @ kron_pauli(b),
                                   atol=1e-14)

    def test_width_mismatch_raises(self):
        with pytest.raises(DimensionError):
            PauliString.from_label("X").multiply(PauliString.from_label("XX"))

    @given(random_label(), random_label())
    @settings(max_examples=60, deadline=None)
    def test_product_dense_property(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        p = PauliString.from_label(a).multiply(PauliString.from_label(b))
        np.testing.assert_allclose(p.to_dense(), kron_pauli(a) @ kron_pauli(b),
                                   atol=1e-13)

    @given(random_label(3), random_label(3), random_label(3))
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, a, b, c):
        n = min(len(a), len(b), len(c))
        pa, pb, pc = (PauliString.from_label(s[:n]) for s in (a, b, c))
        left = pa.multiply(pb).multiply(pc)
        right = pa.multiply(pb.multiply(pc))
        assert left.key() == right.key()
        assert left.phase_power == right.phase_power


class TestCommutes:
    @pytest.mark.parametrize("a,b,expect", [
        ("X", "X", True), ("X", "Z", False), ("XZ", "ZX", True),
        ("XYZ", "YZX", False), ("XI", "ZI", False), ("XZIY", "YYZI", True),
    ])
    def test_examples(self, a, b, expect):
        assert PauliString.from_label(a).commutes(
            PauliString.from_label(b)) is expect

    @given(random_label(), random_label())
    @settings(max_examples=60, deadline=None)
    def test_against_dense_commutator(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        da, db = kron_pauli(a), kron_pauli(b)
        dense_says = np.allclose(da @ db, db @ da, atol=1e-12)
        assert PauliString.from_label(a).commutes(
            PauliString.from_label(b)) is dense_says


class TestPauliString:
    def test_from_label_roundtrip(self):
        p = PauliString.from_label("XZIY")
        assert p.letters == "XZIY"
        assert p.num_qubits == 4
        assert p.weight == 3
        assert p.support() == [0, 1, 3]

    def test_phase_rendering(self):
        assert str(PauliString.from_label("XZIY", phase_power=1)) == "i^1 · XZIY"
        assert str(PauliString.from_label("XZIY")) == "XZIY"

    def test_dense_matches_kron(self):
        for label in ("X", "Y", "Z", "I", "XY", "YZ", "XZIY", "YYYY"):
            np.testing.assert_allclose(PauliString.from_label(label).to_dense(),
                                       kron_pauli(label), atol=1e-15)

    def test_dense_carries_phase(self):
        p = PauliString.from_label("XZ", phase_power=3)
        np.testing.assert_allclose(p.to_dense(), -1j * kron_pauli("XZ"),
                                   atol=1e-15)

    def test_adjoint_conjugates_phase(self):
        p = PauliString.from_label("XY", phase_power=1)
        np.testing.assert_allclose(p.adjoint().to_dense(),
                                   p.to_dense().conj().T, atol=1e-15)

    def test_z_on(self):
        assert PauliString.z_on(5, [1, 3]).letters == "IZIZI"

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XQ")

    def test_dense_cap(self):
        with pytest.raises(ResourceLimitError):
            PauliString.identity(15).to_dense()

    def test_check_dense_bounds_the_entry_count(self):
        cap = DENSE_QUBIT_CAP
        check_dense(cap, cap, "square")          # a cap-qubit unitary fits
        check_dense(2 * cap - 10, 10, "tall")    # so does a tall batch as large
        for rows, cols in ((cap + 1, cap), (21, 10)):
            with pytest.raises(ResourceLimitError, match="exceeds the cap"):
                check_dense(rows, cols, "array")


class TestPauliSum:
    def test_linearity_of_dense(self):
        s = PauliSum(2, [(PauliString.from_label("XY"), 0.5),
                         (PauliString.from_label("ZI"), -2.0j)])
        expected = 0.5 * kron_pauli("XY") - 2.0j * kron_pauli("ZI")
        np.testing.assert_allclose(s.to_dense(), expected, atol=1e-15)

    def test_duplicate_terms_merge(self):
        p = PauliString.from_label("XX")
        s = PauliSum(2, [(p, 1.0), (p, 2.5)])
        assert len(s) == 1
        assert s.coefficient(p) == pytest.approx(3.5)

    def test_phase_power_folds_into_coefficient(self):
        s = PauliSum(2, [(PauliString.from_label("XZ", phase_power=2), 1.0)])
        assert s.coefficient(PauliString.from_label("XZ")) == pytest.approx(-1.0)

    def test_sum_product_matches_dense(self):
        a = PauliSum(2, [(PauliString.from_label("XI"), 1.0),
                         (PauliString.from_label("IY"), 0.5j)])
        b = PauliSum(2, [(PauliString.from_label("ZZ"), -1.0),
                         (PauliString.from_label("II"), 2.0)])
        np.testing.assert_allclose((a * b).to_dense(),
                                   a.to_dense() @ b.to_dense(), atol=1e-14)

    def test_scalar_multiply_both_sides(self):
        s = PauliSum.identity(1)
        assert (2.0 * s).coefficient(PauliString.identity(1)) == pytest.approx(2.0)
        assert (s * 2.0).coefficient(PauliString.identity(1)) == pytest.approx(2.0)

    def test_adjoint_matches_dense(self):
        s = PauliSum(2, [(PauliString.from_label("XY"), 1 + 2j),
                         (PauliString.from_label("ZI"), -0.5j)])
        np.testing.assert_allclose(s.adjoint().to_dense(),
                                   s.to_dense().conj().T, atol=1e-14)

    def test_prune_drops_zeros(self):
        p, q = PauliString.from_label("X"), PauliString.from_label("Z")
        s = PauliSum(1, [(p, 1.0), (q, 1e-14)]) - PauliSum(1, [(p, 1.0)])
        assert len(s.prune()) == 1             # exact zero removed, 1e-14 kept

    def test_one_norm(self):
        s = PauliSum(1, [(PauliString.from_label("X"), 3.0),
                         (PauliString.from_label("Z"), -4.0j)])
        assert s.one_norm() == pytest.approx(7.0)

    def test_terms_iteration_is_sorted_and_bare(self):
        s = PauliSum(2, [(PauliString.from_label("ZZ"), 1.0),
                         (PauliString.from_label("XX"), 1.0)])
        keys = [p.key() for p, _ in s.terms()]
        assert keys == sorted(keys)
        assert all(p.phase_power == 0 for p, _ in s.terms())

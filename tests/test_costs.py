"""CNOT accounting for both realizations and the dense cascade oracle."""

import numpy as np
import pytest

from ucclcu.costs import (CSV_HEADER, cascade_count, comparison_csv,
                          emit_comparison, prepare_cnot_count,
                          realized_cnot_count, select_cnot_counts,
                          synth_cascade, total_lcu_count)
from ucclcu.fermion import UccFactor, chain_qubits, exact_unitary
from ucclcu.circuit import Circuit, Gate, unitary_of
from ucclcu.lcu import pad_and_synth_oaa
from ucclcu.select import synth_select


def adjacent(n, theta=0.7):
    return UccFactor(tuple(range(n)), tuple(range(n, 2 * n)), theta, 2 * n)


class TestClosedForms:
    def test_prepare_spot_values(self):
        assert [prepare_cnot_count(n) for n in range(1, 7)] == \
            [2, 76, 374, 1024, 2154, 3892]

    def test_total_spot_values(self):
        zero = lambda n: [0] * (2 * n - 2)
        assert [total_lcu_count(n, zero(n)) for n in range(1, 7)] == \
            [30, 498, 2310, 6234, 13038, 23490]

    def test_cascade_spot_values(self):
        zero = lambda n: [0] * (2 * n - 2)
        assert [cascade_count(n, zero(n)) for n in range(1, 7)] == \
            [4, 48, 320, 1792, 9216, 45056]

    @pytest.mark.parametrize("n", range(1, 21))
    def test_prepare_sum_equals_cubic(self, n):
        # the summed ladder costs collapse to (64n^3 - 48n^2 - 82n + 72)/3
        total = 2 * n + sum((8 * k - 12) * 2 * (2 * n + 1 - k)
                            for k in range(2, 2 * n))
        assert prepare_cnot_count(n) == total
        numerator = 2 * (32 * n ** 3 - 24 * n ** 2 - 41 * n + 36)
        assert numerator % 3 == 0
        assert prepare_cnot_count(n) == numerator // 3

    @pytest.mark.parametrize("n", range(1, 21))
    def test_total_sum_equals_cubic(self, n):
        rho = [3] * (2 * n - 2)
        steps, init = select_cnot_counts(n, rho)
        assert total_lcu_count(n, rho) == \
            6 * prepare_cnot_count(n) + 3 * (steps + init)
        closed = 128 * n ** 3 - 96 * n ** 2 - 140 * n + 138 + 3 * sum(rho)
        assert total_lcu_count(n, rho) == closed

    def test_select_split(self):
        steps, init = select_cnot_counts(2, [1, 0])
        assert steps == 6            # 2n-1 masks, two CNOTs each
        assert init == 8 + 1         # 4n + chain load

    def test_gap_costs_enter_linearly(self):
        base = total_lcu_count(3, [0, 0, 0, 0])
        assert total_lcu_count(3, [2, 0, 1, 0]) == base + 3 * 3
        base_c = cascade_count(3, [0, 0, 0, 0])
        assert cascade_count(3, [1, 1, 1, 1]) == base_c + (1 << 6) * 4

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            total_lcu_count(2, [0, 0, 0])  # needs 2n-2 entries
        with pytest.raises(ValueError):
            cascade_count(2, [-1, 0])
        with pytest.raises(ValueError):
            prepare_cnot_count(0)


class TestCrossover:
    def test_first_win_at_rank_six(self):
        zero = lambda n: [0] * (2 * n - 2)
        wins = [n for n in range(1, 9)
                if total_lcu_count(n, zero(n)) < cascade_count(n, zero(n))]
        assert wins == [6, 7, 8]

    def test_rank_five_still_loses(self):
        assert total_lcu_count(5, [0] * 8) > cascade_count(5, [0] * 8)

    def test_growth_rates(self):
        zero = lambda n: [0] * (2 * n - 2)
        cascade = [cascade_count(n, zero(n)) for n in range(1, 13)]
        lcu = [total_lcu_count(n, zero(n)) for n in range(1, 13)]
        cascade_ratios = [b / a for a, b in zip(cascade, cascade[1:])]
        lcu_ratios = [b / a for a, b in zip(lcu, lcu[1:])]
        # exponential doubling-per-rank settles at ratio 4; cubic decays to 1
        assert cascade_ratios[-1] > 3.9
        assert lcu_ratios[-1] < 1.5
        assert all(b < a for a, b in zip(lcu_ratios[2:], lcu_ratios[3:]))

    def test_monotone_in_rank(self):
        zero = lambda n: [0] * (2 * n - 2)
        for seq in ([total_lcu_count(n, zero(n)) for n in range(1, 10)],
                    [cascade_count(n, zero(n)) for n in range(1, 10)]):
            assert all(b > a for a, b in zip(seq, seq[1:]))


class TestRealizedCounts:
    """The model's conventions applied to the circuits actually emitted."""

    def test_counting_rules(self):
        circ = Circuit(5, [
            Gate("H", (0,)),                                   # 0
            Gate("Y", (1,), controls=((0, "-"),)),             # 1
            Gate("RY", (1,), 0.3, ((0, "+"),)),                # 2
            Gate("PHASE", (2,), 0.3, ((0, "+"), (1, "-"))),    # 8*2-12
            Gate("X", (4,), controls=((0, "+"), (1, "+"), (2, "-"))),  # 12
            Gate("GLOBALPHASE", (), 0.3, ((3, "+"),)),         # 0
            Gate("GLOBALPHASE", (), 0.3, ((3, "+"), (4, "-"))),  # 2
        ])
        assert realized_cnot_count(circ) == 1 + 2 + 4 + 12 + 0 + 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9, 12])
    def test_select_is_linear_in_rank(self, n):
        # 2n for the excitation reference and 4n - 2 for the masks, all
        # singly controlled; the fix-ups are uncontrolled, so SELECT sits
        # under the model's 8n - 2 at every rank
        realized = realized_cnot_count(synth_select(adjacent(n)))
        model = sum(select_cnot_counts(n, [0] * (2 * n - 2)))
        assert realized == 6 * n - 2
        assert realized <= model

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_one_round_oaa_meets_model(self, n):
        assembly = pad_and_synth_oaa(adjacent(n))
        assert assembly.oaa_rounds == 1
        assert realized_cnot_count(assembly.oaa_circuit) <= \
            total_lcu_count(n, [0] * (2 * n - 2))

    def test_low_rank_gap(self):
        # only rank 1 exceeds the model: its two reflections are phases
        # anticontrolled on both code wires, 2 CNOTs each, which the model
        # folds into its multiplicities, and each of the six loader copies
        # costs 3 CNOTs (8n - 5) against the model's 2
        realized = realized_cnot_count(pad_and_synth_oaa(adjacent(1)).oaa_circuit)
        assert (realized, total_lcu_count(1, [])) == (34, 30)

    def test_one_round_oaa_pinned(self):
        # linear from rank 2 on: 98n - 76, three W's of 22n - 12 and two
        # reflections of 16n - 20
        assert [realized_cnot_count(pad_and_synth_oaa(adjacent(n)).oaa_circuit)
                for n in range(1, 7)] == [34, 120, 218, 316, 414, 512]


class TestCascadeSynthesis:
    @pytest.mark.parametrize("f", [
        UccFactor((0,), (1,), 0.8, 2),
        UccFactor((0, 1), (2, 3), -0.6, 4),
        UccFactor((0, 1), (4, 6), 0.9, 7),
        UccFactor((0, 1, 2), (3, 4, 5), 1.1, 6),
    ])
    def test_matches_exact_unitary(self, f):
        u = unitary_of(synth_cascade(f))
        assert np.linalg.norm(u - exact_unitary(f), 2) < 1e-8

    def test_cnot_ladder_count_matches_model(self):
        for f in (UccFactor((0,), (1,), 0.8, 2),
                  UccFactor((0, 1), (2, 3), 0.4, 4),
                  UccFactor((0, 1), (4, 6), 0.9, 7)):
            circ = synth_cascade(f)
            cnots = sum(1 for g in circ.gates if g.kind == "X" and g.controls)
            n, gaps = f.rank, len(chain_qubits(f))
            rho = ([0] * (2 * n - 3) + [gaps]) if n > 1 else []
            assert cnots == cascade_count(n, rho)

    def test_theta_zero_is_identity(self):
        f = UccFactor((0, 1), (2, 3), 0.0, 4)
        u = unitary_of(synth_cascade(f))
        assert np.linalg.norm(u - np.eye(16), 2) < 1e-12


class TestReportsAndCsv:
    def test_emit_rows(self):
        rows = emit_comparison(3)
        assert rows[1] == (2, 48, 498, 76, 14)
        assert rows[2][0] == 3
        with pytest.raises(ValueError):
            emit_comparison(0)

    def test_csv_layout(self):
        text = comparison_csv(2, provenance={"version": "x", "command": "y"})
        lines = text.splitlines()
        comments = [ln for ln in lines if ln.startswith("# ")]
        assert comments and all(ln.startswith("# ") for ln in lines[:len(comments)])
        assert lines[len(comments)] == CSV_HEADER
        assert lines[-1].startswith("2,")
        assert text.endswith("\n")

    def test_csv_bytes_deterministic(self):
        a = comparison_csv(6, rho_fill=1)
        b = comparison_csv(6, rho_fill=1)
        assert a == b
        assert "\r" not in a and "time" not in a.lower()

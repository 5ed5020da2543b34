"""Gate IR and dense simulator against column-by-column reference unitaries."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from ucclcu.circuit import (GATE_KINDS, Circuit, Gate, apply_circuit,
                            restrict, unitary_of)
from ucclcu.errors import DimensionError, ResourceLimitError

from oracles import (controlled_phase_factor, controlled_unitary,
                     controlled_x_rows)

_RX = lambda t: np.array([[math.cos(t / 2), -1j * math.sin(t / 2)],
                          [-1j * math.sin(t / 2), math.cos(t / 2)]])
_RY = lambda t: np.array([[math.cos(t / 2), -math.sin(t / 2)],
                          [math.sin(t / 2), math.cos(t / 2)]])
_RZ = lambda t: np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])
_PH = lambda t: np.diag([1.0, np.exp(1j * t)])
_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
_X = np.array([[0.0, 1], [1, 0]])
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1.0, -1.0])


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (0,))

    def test_globalphase_takes_no_target(self):
        with pytest.raises(ValueError):
            Gate("GLOBALPHASE", (0,), 0.5)
        Gate("GLOBALPHASE", (), 0.5)  # fine

    def test_angle_required_or_forbidden(self):
        with pytest.raises(ValueError):
            Gate("RY", (0,))
        with pytest.raises(ValueError):
            Gate("H", (0,), 0.3)

    def test_distinct_qubits(self):
        with pytest.raises(ValueError):
            Gate("X", (0,), controls=((0, "+"),))

    def test_polarity_checked(self):
        with pytest.raises(ValueError):
            Gate("X", (0,), controls=((1, "0"),))

    def test_inverse(self):
        g = Gate("RY", (0,), 0.7, ((1, "-"),))
        assert g.inverse().angle == pytest.approx(-0.7)
        assert Gate("H", (0,)).inverse() == Gate("H", (0,))


class TestApplyCircuit:
    def test_x_on_msb_qubit(self):
        # qubit 0 is the most significant bit: X_0 |00> = |10> (index 2)
        c = Circuit(2, [Gate("X", (0,))])
        state = np.zeros(4); state[0] = 1.0
        out = apply_circuit(c, state)
        np.testing.assert_allclose(out, [0, 0, 1, 0], atol=1e-15)

    def test_anticontrolled_z(self):
        c = Circuit(2, [Gate("Z", (1,), controls=((0, "-"),))])
        out = apply_circuit(c, np.array([0, 1, 0, 0], dtype=complex))
        np.testing.assert_allclose(out, [0, -1, 0, 0], atol=1e-15)  # |01> flips
        out = apply_circuit(c, np.array([0, 0, 0, 1], dtype=complex))
        np.testing.assert_allclose(out, [0, 0, 0, 1], atol=1e-15)   # |11> inert

    def test_ry_half_pi(self):
        c = Circuit(1, [Gate("RY", (0,), math.pi / 2)])
        out = apply_circuit(c, np.array([1, 0], dtype=complex))
        np.testing.assert_allclose(out, [1 / math.sqrt(2), 1 / math.sqrt(2)],
                                   atol=1e-15)

    @pytest.mark.parametrize("kind,matrix", [
        ("H", _H), ("X", _X), ("Y", _Y), ("Z", _Z),
        ("RX", _RX(0.8)), ("RY", _RY(0.8)), ("RZ", _RZ(0.8)), ("PHASE", _PH(0.8)),
    ])
    def test_single_qubit_matrices(self, kind, matrix):
        angle = 0.8 if kind in ("RX", "RY", "RZ", "PHASE") else None
        c = Circuit(1, [Gate(kind, (0,), angle)])
        np.testing.assert_allclose(unitary_of(c), matrix, atol=1e-15)

    def test_controlled_gates_vs_reference(self):
        """Exhaustive polarities for 1..3 controls on a width-4 register."""
        cases = [
            ("RY", 0.9, 2, ((0, "+"),)),
            ("X", None, 3, ((1, "-"),)),
            ("H", None, 0, ((2, "+"), (3, "-"))),
            ("PHASE", -1.1, 1, ((0, "-"), (2, "-"))),
            ("RZ", 2.2, 3, ((0, "+"), (1, "+"), (2, "-"))),
            ("Y", None, 2, ((0, "-"), (1, "-"), (3, "-"))),
        ]
        mats = {"X": _X, "Y": _Y, "H": _H}
        for kind, angle, target, controls in cases:
            c = Circuit(4, [Gate(kind, (target,), angle, controls)])
            if kind in mats:
                m = mats[kind]
            else:
                m = {"RY": _RY, "RZ": _RZ, "PHASE": _PH}[kind](angle)
            np.testing.assert_allclose(
                unitary_of(c), controlled_unitary(4, m, target, controls),
                atol=1e-14, err_msg=f"{kind} {controls}")

    def test_globalphase_plain_and_controlled(self):
        c = Circuit(2, [Gate("GLOBALPHASE", (), 0.7)])
        np.testing.assert_allclose(unitary_of(c), np.exp(0.7j) * np.eye(4),
                                   atol=1e-15)
        c = Circuit(2, [Gate("GLOBALPHASE", (), 0.7, ((0, "+"), (1, "-")))])
        np.testing.assert_allclose(
            unitary_of(c),
            controlled_phase_factor(2, 0.7, ((0, "+"), (1, "-"))), atol=1e-15)

    def test_gate_sequence_composes_left_to_right(self):
        c = Circuit(2, [Gate("H", (0,)), Gate("X", (1,), controls=((0, "+"),)),
                        Gate("RZ", (0,), 0.4)])
        expected = (controlled_unitary(2, _RZ(0.4), 0)
                    @ controlled_unitary(2, _X, 1, ((0, "+"),))
                    @ controlled_unitary(2, _H, 0))
        np.testing.assert_allclose(unitary_of(c), expected, atol=1e-14)

    def test_batch_columns(self):
        c = Circuit(2, [Gate("H", (1,))])
        cols = np.eye(4, dtype=complex)[:, :2]
        out = apply_circuit(c, cols)
        assert out.shape == (4, 2)
        np.testing.assert_allclose(out[:, 0], unitary_of(c)[:, 0], atol=1e-15)

    def test_norm_guard(self):
        c = Circuit(1, [Gate("X", (0,))])
        with pytest.raises(ValueError):
            apply_circuit(c, np.array([2.0, 0.0]))
        with pytest.warns(RuntimeWarning):
            apply_circuit(c, np.array([1.0 + 3e-8, 0.0]))

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            apply_circuit(Circuit(2), np.array([1.0, 0.0]))

    def test_unitary_cap(self):
        with pytest.raises(ResourceLimitError):
            unitary_of(Circuit(15))


def random_circuit(width, num_gates, seed):
    """Every kind at every control count 0..3, polarities drawn at random,
    plus a Z and a GLOBALPHASE that fix every wire."""
    rng = np.random.default_rng(seed)
    gates = []
    for i in range(num_gates):
        kind = GATE_KINDS[i % len(GATE_KINDS)]
        wires = [int(q) for q in rng.permutation(width)]
        target = () if kind == "GLOBALPHASE" else (wires.pop(),)
        controls = tuple((q, "+-"[int(rng.integers(2))])
                         for q in wires[:(i // len(GATE_KINDS)) % 4])
        angle = float(rng.uniform(-7, 7)) if kind in ("RX", "RY", "RZ", "PHASE",
                                                      "GLOBALPHASE") else None
        gates.append(Gate(kind, target, angle, controls))
    every = tuple((q, "+-"[q % 2]) for q in range(1, width))
    gates += [Gate("Z", (0,), controls=every),
              Gate("GLOBALPHASE", (), 0.3, every + ((0, "+"),))]
    return Circuit(width, gates)


class TestColumnBlocks:
    def test_batch_equals_column_by_column(self):
        """200 columns of a 10-qubit register span several blocks, the last
        one partial; each column must come out bit for bit as it would alone."""
        circ = random_circuit(10, 72, seed=3)
        rng = np.random.default_rng(4)
        cols = rng.normal(size=(1 << 10, 200)) + 1j * rng.normal(size=(1 << 10, 200))
        cols /= np.linalg.norm(cols, axis=0)
        out = apply_circuit(circ, cols)
        for j in range(cols.shape[1]):
            assert np.array_equal(out[:, j], apply_circuit(circ, cols[:, j])), j

    @pytest.mark.parametrize("controls", [
        (), ((3, "+"),), ((3, "-"),), ((0, "-"), (9, "+")), ((5, "+"), (2, "-"))])
    def test_x_is_a_row_permutation(self, controls):
        """X swaps the two halves: on a batch over several blocks, signed
        zeros included, it moves every entry bit for bit as the oracle's
        row permutation does."""
        rng = np.random.default_rng(6)
        cols = rng.normal(size=(1 << 10, 150)) + 1j * rng.normal(size=(1 << 10, 150))
        cols[rng.random(cols.shape) < 0.1] = complex(-0.0, -0.0)
        out = apply_circuit(Circuit(10, [Gate("X", (7,), controls=controls)]), cols)
        expected = controlled_x_rows(cols, 10, 7, controls)
        assert np.array_equal(out, expected)
        assert out.tobytes() == expected.tobytes()

    def test_peak_memory_is_the_output(self):
        """Blocks keep the working set small: the traced peak on a
        preallocated batch is its output plus a block, not several copies."""
        circ = random_circuit(14, 45, seed=5)
        cols = np.zeros((1 << 14, 1 << 6), dtype=complex)
        cols[:1 << 6] = np.eye(1 << 6)
        tracemalloc.start()
        try:
            apply_circuit(circ, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * cols.nbytes, peak / cols.nbytes


class TestCircuitOps:
    def _sample(self):
        return Circuit(3, [Gate("H", (0,)),
                           Gate("RY", (1,), 0.6, ((0, "+"),)),
                           Gate("GLOBALPHASE", (), 0.3, ((2, "-"),)),
                           Gate("PHASE", (2,), -0.9, ((0, "-"), (1, "+")))],
                       num_ancilla=1)

    def test_compose_adjoint_inverts(self):
        c = self._sample()
        u = unitary_of(c)
        u_dag = unitary_of(c.compose_adjoint())
        np.testing.assert_allclose(u_dag @ u, np.eye(8), atol=1e-14)
        np.testing.assert_allclose(u_dag, u.conj().T, atol=1e-14)

    def test_append_checks_width(self):
        with pytest.raises(DimensionError):
            Circuit(2).append(Gate("X", (2,)))

    def test_ancilla_range_validated(self):
        with pytest.raises(ValueError):
            Circuit(2, num_ancilla=3)


class TestRestrict:
    """restrict holds wires at |0>: the gates it keeps, strips and refuses."""

    def test_held_wire_rules(self):
        circ = Circuit(4, [
            Gate("X", (2,), controls=((1, "+"),)),              # never fires
            Gate("RY", (0,), 0.4, ((1, "-"), (3, "+"))),        # - stripped
            Gate("Z", (1,), controls=((0, "+"),)),              # |0> unmoved
            Gate("PHASE", (1,), 0.9),
            Gate("GLOBALPHASE", (), 0.5, ((1, "-"), (2, "+"))),
            Gate("H", (3,)),
        ], num_ancilla=2)
        out = restrict(circ, {1})
        assert (out.num_qubits, out.num_ancilla) == (3, 1)
        assert out.gates == [Gate("RY", (0,), 0.4, ((2, "+"),)),
                             Gate("GLOBALPHASE", (), 0.5, ((1, "+"),)),
                             Gate("H", (2,))]

    def test_nothing_held_is_the_circuit_itself(self):
        circ = Circuit(3, [Gate("RY", (0,), 0.4, ((1, "-"),)),
                           Gate("X", (2,), controls=((0, "+"),))], 1)
        assert restrict(circ, set()) is circ

    @pytest.mark.parametrize("gate", [
        Gate("X", (1,)), Gate("H", (1,), controls=((0, "-"),)),
        Gate("RZ", (1,), 0.3), Gate("RY", (1,), 0.3)])
    def test_other_kinds_on_a_held_wire_raise(self, gate):
        with pytest.raises(ValueError, match="held wire 1"):
            restrict(Circuit(2, [gate]), {1})
        # a positive control on a held wire drops the gate first
        assert restrict(Circuit(3, [Gate(gate.kind, gate.targets, gate.angle,
                                         gate.controls + ((2, "+"),))]),
                        {1, 2}).gates == []


class TestJsonRoundTrip:
    def test_schema_keys(self):
        d = self_describing = Circuit(2, [Gate("RY", (1,), 0.5, ((0, "-"),))],
                                      num_ancilla=1).to_json_dict()
        assert set(d) == {"num_qubits", "num_ancilla", "gates"}
        assert d["gates"][0] == {"kind": "RY", "angle": 0.5, "targets": [1],
                                 "controls": [{"q": 0, "pol": "-"}]}

    def test_round_trip_preserves_unitary(self):
        c = Circuit(3, [Gate("H", (0,)), Gate("GLOBALPHASE", (), 1.1),
                        Gate("RZ", (2,), -0.7, ((0, "+"), (1, "-")))],
                    num_ancilla=2)
        back = Circuit.from_json_dict(json.loads(json.dumps(c.to_json_dict())))
        assert back.num_ancilla == 2
        np.testing.assert_allclose(unitary_of(back), unitary_of(c), atol=1e-15)

    def test_json_is_deterministic(self):
        c = Circuit(1, [Gate("RX", (0,), 0.1)])
        assert json.dumps(c.to_json_dict()) == json.dumps(c.to_json_dict())

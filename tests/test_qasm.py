"""Control lowering and OPENQASM 2.0 text emission."""

import math
import re

import numpy as np
import pytest

from oracles import controlled_unitary
from ucclcu.circuit import Circuit, Gate, unitary_of
from ucclcu.fermion import UccFactor
from ucclcu.lcu import pad_and_synth_oaa
from ucclcu.qasm import (export_qasm, lower_controls, lower_gate,
                         lowered_unitary)

ALLOWED = {"x", "y", "z", "h", "s", "sdg", "cx", "cy", "cz", "ch",
           "u1", "u3", "cu1", "cu3"}


def phase_aligned_deviation(matrix, reference):
    """min over phi of ||e^{i phi} M - U||_2: the exporter drops global
    phases by design, so its text is compared up to one.  phi maximizes
    Re(e^{i phi} tr(U† M))."""
    overlap = np.trace(reference.conj().T @ matrix)
    phase = 1.0 if abs(overlap) < 1e-12 else np.conj(overlap) / abs(overlap)
    return float(np.linalg.norm(phase * matrix - reference, 2))


def lowered_matches(circ, tol=1e-12):
    ops = lower_controls(circ)
    assert all(isinstance(op, Gate) and len(op.controls) <= 1
               and all(pol == "+" for _, pol in op.controls) for op in ops)
    got = lowered_unitary(circ.num_qubits, ops)
    return float(np.linalg.norm(got - unitary_of(circ), 2)) <= tol


class TestLowering:
    @pytest.mark.parametrize("controls", [
        ((0, "+"),),
        ((0, "-"),),
        ((0, "+"), (2, "-")),
        ((0, "-"), (1, "-"), (3, "+")),
    ])
    @pytest.mark.parametrize("kind,angle", [
        ("X", None), ("Y", None), ("Z", None), ("H", None), ("RX", 0.4),
        ("RY", 0.7), ("RZ", -1.3), ("PHASE", 2.1)])
    def test_multi_control_exact(self, controls, kind, angle):
        width = 4
        target = 2 if all(c != 2 for c, _ in controls) else 1
        circ = Circuit(width, [Gate(kind, (target,), angle, controls)])
        assert lowered_matches(circ)

    @pytest.mark.parametrize("controls", [
        ((1, "+"),), ((0, "-"), (2, "+")), ((0, "-"), (1, "-"), (2, "-"))])
    def test_controlled_global_phase(self, controls):
        circ = Circuit(3, [Gate("GLOBALPHASE", (), 0.9, controls)])
        assert lowered_matches(circ)

    def test_bare_global_phase_kept_in_ops(self):
        circ = Circuit(1, [Gate("GLOBALPHASE", (), 1.1)])
        ops = lower_controls(circ)
        assert ops == [Gate("GLOBALPHASE", (), 1.1)]
        got = lowered_unitary(1, ops)
        assert np.allclose(got, np.exp(1.1j) * np.eye(2))

    def test_double_control_recursion_shape(self):
        gate = Gate("X", (2,), controls=((0, "+"), (1, "+")))
        ops = lower_gate(gate)
        # H, then CV, CX, CV†, CX, CV on the control pair with V = S, then H
        assert len(ops) == 7
        assert ops[0] == ops[-1] == Gate("H", (2,))
        assert [op.kind for op in ops[1:-1]] == ["PHASE", "X", "PHASE", "X",
                                                  "PHASE"]
        assert all(len(op.controls) == 1 for op in ops[1:-1])

    def test_negative_controls_wrap_with_x(self):
        gate = Gate("Z", (1,), controls=((0, "-"),))
        ops = lower_gate(gate)
        assert ops[0] == ops[-1] == Gate("X", (0,))
        assert ops[1] == Gate("Z", (1,), controls=((0, "+"),))

    def test_full_rank1_amplification(self):
        a = pad_and_synth_oaa(UccFactor((0,), (1,), 0.8, 2))
        assert lowered_matches(a.w_circuit, tol=1e-11)
        assert lowered_matches(a.oaa_circuit, tol=1e-10)

    def test_full_rank2_block_encoding(self):
        a = pad_and_synth_oaa(UccFactor((0, 1), (2, 3), 1.0, 4))
        assert lowered_matches(a.w_circuit, tol=1e-10)


def parse_qasm_unitary(text, width):
    """Tiny qelib1 interpreter for the emitted subset; returns the product."""

    def u3(theta, phi, lam):
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([[c, -np.exp(1j * lam) * s],
                         [np.exp(1j * phi) * s,
                          np.exp(1j * (phi + lam)) * c]])

    named = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]]),
        "z": np.diag([1.0, -1.0]).astype(complex),
        "h": np.array([[1, 1], [1, -1]]) / math.sqrt(2.0),
        "s": np.diag([1.0, 1.0j]),
        "sdg": np.diag([1.0, -1.0j]),
    }
    total = np.eye(1 << width, dtype=complex)
    pattern = re.compile(r"^(\w+)(?:\(([^)]*)\))? ((?:q\[\d+\],?)+);$")
    for line in text.splitlines():
        if line.startswith(("//", "OPENQASM", "include", "qreg")) or not line:
            continue
        name, args, qubits = pattern.match(line).groups()
        args = [float(a) for a in args.split(",")] if args else []
        qs = [int(m) for m in re.findall(r"q\[(\d+)\]", qubits)]
        if name in named:
            mat, ctrl = named[name], None
        elif name.startswith("c") and name[1:] in named:
            mat, ctrl = named[name[1:]], qs[0]
        elif name == "u1":
            mat, ctrl = np.diag([1.0, np.exp(1j * args[0])]), None
        elif name == "cu1":
            mat, ctrl = np.diag([1.0, np.exp(1j * args[0])]), qs[0]
        elif name == "u3":
            mat, ctrl = u3(*args), None
        elif name == "cu3":
            mat, ctrl = u3(*args), qs[0]
        else:  # pragma: no cover - vocabulary guard
            raise AssertionError(f"unexpected instruction {name}")
        controls = [(ctrl, "+")] if ctrl is not None else []
        total = controlled_unitary(width, mat, qs[-1], controls) @ total
    return total


class TestEmission:
    def test_header_and_provenance(self):
        circ = Circuit(2, [Gate("H", (0,))])
        text = export_qasm(circ, provenance=["version 1.0.0", "cmd synth"])
        lines = text.splitlines()
        assert lines[0] == "// version 1.0.0"
        assert lines[1] == "// cmd synth"
        assert "OPENQASM 2.0;" in lines
        assert 'include "qelib1.inc";' in lines
        assert "qreg q[2];" in lines
        assert any("8k-12" in ln for ln in lines)

    def test_vocabulary_and_arity(self):
        a = pad_and_synth_oaa(UccFactor((0,), (1,), 0.8, 2))
        text = export_qasm(a.oaa_circuit)
        for line in text.splitlines():
            if line.startswith(("//", "OPENQASM", "include", "qreg")):
                continue
            name = re.match(r"(\w+)", line).group(1)
            assert name in ALLOWED
            assert len(re.findall(r"q\[\d+\]", line)) <= 2

    def test_named_gates_survive(self):
        circ = Circuit(2, [Gate("H", (0,)),
                           Gate("X", (1,), controls=((0, "+"),))])
        text = export_qasm(circ)
        assert "h q[0];" in text
        assert "cx q[0],q[1];" in text

    def test_bare_global_phase_becomes_comment(self):
        circ = Circuit(1, [Gate("GLOBALPHASE", (), 0.4), Gate("X", (0,))])
        text = export_qasm(circ)
        assert "// global phase exp(" in text
        gates = [ln for ln in text.splitlines()
                 if not ln.startswith(("//", "OPENQASM", "include", "qreg"))]
        assert gates == ["x q[0];"]

    def test_byte_determinism(self):
        a = pad_and_synth_oaa(UccFactor((0, 1), (2, 3), 0.9, 4))
        assert export_qasm(a.w_circuit) == export_qasm(a.w_circuit)

    @pytest.mark.parametrize("build", [
        lambda: Circuit(2, [Gate("RX", (0,), 0.8), Gate("RY", (1,), -0.4),
                            Gate("PHASE", (0,), 1.2)]),
        lambda: Circuit(3, [Gate("RY", (2,), 0.5, ((0, "-"), (1, "+")))]),
        lambda: pad_and_synth_oaa(UccFactor((0,), (1,), 0.8, 2)).w_circuit,
        lambda: pad_and_synth_oaa(UccFactor((0,), (1,),
                                            math.pi / 2, 2)).oaa_circuit,
        lambda: Circuit(4, [Gate("Y", (3,), None,
                                 ((0, "-"), (1, "+"), (2, "-")))]),
        lambda: Circuit(4, [Gate("H", (0,), None, ((1, "+"), (3, "-")))]),
        lambda: Circuit(4, [Gate("RZ", (2,), 0.9,
                                 ((0, "+"), (1, "-"), (3, "+")))]),
        lambda: Circuit(4, [Gate("GLOBALPHASE", (), -0.7,
                                 ((0, "-"), (2, "+"), (3, "-")))]),
    ])
    def test_text_semantics_up_to_global_phase(self, build):
        circ = build()
        parsed = parse_qasm_unitary(export_qasm(circ), circ.num_qubits)
        assert phase_aligned_deviation(parsed, unitary_of(circ)) < 1e-10

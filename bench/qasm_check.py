"""A small OPENQASM 2.0 interpreter for checking exported text.

It reads only the subset of qelib1 that `ucclcu.qasm.export_qasm` writes
(x, y, z, h, s, sdg, u1, u3 and their singly-controlled forms cx, cy, cz, ch,
cu1, cu3) and applies it to a statevector.  It shares no code with the
exporter, so a wrong line in the text shows up as a wrong state.  cu3 is the
controlled version of the u3 matrix below, as qelib1 defines it.
"""

from __future__ import annotations

import math
import re

import numpy as np

_LINE = re.compile(r"(\w+)(?:\(([^)]*)\))? q\[(\d+)\](?:,q\[(\d+)\])?;")
_SQ = 1.0 / math.sqrt(2.0)
_FIXED = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
}


def _matrix(name: str, params: str | None) -> np.ndarray:
    if name in _FIXED and params is None:
        return _FIXED[name]
    values = [float(p) for p in params.split(",")] if params else []
    if name == "u1" and len(values) == 1:
        return np.array([[1, 0], [0, np.exp(1j * values[0])]], dtype=complex)
    if name == "u3" and len(values) == 3:
        theta, phi, lam = values
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([[c, -np.exp(1j * lam) * s],
                         [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]])
    raise ValueError(f"unsupported gate {name}({params})")


def simulate(text: str, state: np.ndarray) -> np.ndarray:
    """Apply the program in `text` to `state` (qubit 0 most significant)."""
    psi = None
    width = 0
    matrices: dict[tuple[str, str | None], np.ndarray] = {}
    for line in text.splitlines():
        if not line or line.startswith(("//", "OPENQASM", "include")):
            continue
        if line.startswith("qreg q["):
            width = int(line[len("qreg q["):-2])
            if state.shape != (1 << width,):
                raise ValueError("state does not match the qreg width")
            psi = np.array(state, dtype=complex).reshape((2,) * width)
            continue
        match = _LINE.fullmatch(line)
        if match is None or psi is None:
            raise ValueError(f"unrecognised line {line!r}")
        name, params, first, second = match.groups()
        if second is None:
            control, target = None, int(first)
        else:
            if not name.startswith("c"):
                raise ValueError(f"two operands on uncontrolled gate {line!r}")
            name, control, target = name[1:], int(first), int(second)
        key = (name, params)
        if key not in matrices:
            matrices[key] = _matrix(name, params)
        m = matrices[key]
        sel: list = [slice(None)] * width
        if control is not None:
            sel[control] = 1
        sel_a, sel_b = list(sel), list(sel)
        sel_a[target], sel_b[target] = 0, 1
        a = psi[tuple(sel_a)].copy()
        b = psi[tuple(sel_b)].copy()
        psi[tuple(sel_a)] = m[0, 0] * a + m[0, 1] * b
        psi[tuple(sel_b)] = m[1, 0] * a + m[1, 1] * b
    if psi is None:
        raise ValueError("no qreg declaration")
    return psi.reshape(-1)


def two_qubit_lines(text: str) -> int:
    return sum(1 for line in text.splitlines() if "],q[" in line)

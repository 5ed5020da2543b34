"""Independent reference constructions used as test oracles.

Everything here is built the slow, obvious way — Kronecker products, explicit
basis-state loops, eigendecomposition exponentials — sharing no code with the
package, so agreement between the two is meaningful.  The one exception is
`select_dense_passes`, which runs whole circuits on the package's
statevector kernel; that kernel is itself checked against the column-by-column
`controlled_unitary` here.
"""

import numpy as np

from ucclcu.circuit import Gate, apply_circuit

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_pauli(letters: str) -> np.ndarray:
    """Dense matrix of a Pauli word, qubit 0 = leftmost letter = MSB."""
    out = np.array([[1.0 + 0j]])
    for ch in letters:
        out = np.kron(out, PAULI[ch])
    return out


def annihilation_matrix(orbital: int, num_qubits: int) -> np.ndarray:
    """Fermionic a_k on the occupation-number basis, JW sign from the parity
    of occupied orbitals *above* k (chain-above convention)."""
    dim = 1 << num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    bit = 1 << (num_qubits - 1 - orbital)
    for col in range(dim):
        if col & bit:
            above = sum(1 for j in range(orbital + 1, num_qubits)
                        if col & (1 << (num_qubits - 1 - j)))
            out[col ^ bit, col] = (-1.0) ** above
    return out


def creation_matrix(orbital: int, num_qubits: int) -> np.ndarray:
    return annihilation_matrix(orbital, num_qubits).conj().T


def excitation_matrix(occupied, virtuals, num_qubits: int) -> np.ndarray:
    """A = a†_{a_n} ... a†_{a_1} a_{i_1} ... a_{i_n} (leftmost acts last)."""
    dim = 1 << num_qubits
    out = np.eye(dim, dtype=complex)
    for a in sorted(virtuals, reverse=True):
        out = out @ creation_matrix(a, num_qubits)
    for i in sorted(occupied):
        out = out @ annihilation_matrix(i, num_qubits)
    return out


def exact_factor_unitary(occupied, virtuals, theta: float,
                         num_qubits: int) -> np.ndarray:
    """exp(theta (A - A†)) via eigendecomposition of the Hermitian i(A - A†)."""
    a = excitation_matrix(occupied, virtuals, num_qubits)
    h = 1j * (a - a.conj().T)
    w, v = np.linalg.eigh(h)
    return v @ np.diag(np.exp(-1j * theta * w)) @ v.conj().T


def controlled_unitary(width: int, matrix: np.ndarray, target: int,
                       controls=()) -> np.ndarray:
    """Full-register unitary of a polarized-controlled single-qubit gate,
    assembled column by column."""
    dim = 1 << width
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (width - 1 - q)) & 1 for q in range(width)]
        if all((bits[q] == 1) == (pol == "+") for q, pol in controls):
            b = bits[target]
            for r in (0, 1):
                flipped = list(bits)
                flipped[target] = r
                row = sum(v << (width - 1 - q) for q, v in enumerate(flipped))
                out[row, col] += matrix[r, b]
        else:
            out[col, col] = 1.0
    return out


def controlled_phase_factor(width: int, angle: float, controls=()) -> np.ndarray:
    """Diagonal unitary: e^{i angle} on exactly the control-satisfying states."""
    dim = 1 << width
    diag = np.ones(dim, dtype=complex)
    for col in range(dim):
        bits = [(col >> (width - 1 - q)) & 1 for q in range(width)]
        if all((bits[q] == 1) == (pol == "+") for q, pol in controls):
            diag[col] = np.exp(1j * angle)
    return np.diag(diag)


def controlled_x_rows(state: np.ndarray, width: int, target: int,
                      controls=()) -> np.ndarray:
    """A polarized-controlled X as a row permutation: each basis row whose
    controls fire takes the row with the target bit flipped."""
    out = np.array(state, copy=True)
    for row in range(1 << width):
        bits = [(row >> (width - 1 - q)) & 1 for q in range(width)]
        if all((bits[q] == 1) == (pol == "+") for q, pol in controls):
            out[row] = state[row ^ (1 << (width - 1 - target))]
    return out


def select_dense_passes(circuit, expected, tolerance: float = 1e-10) -> bool:
    """Dense per-code reference verdict for a SELECT circuit: for each code c
    of `expected`, the whole circuit runs on the |c>⊗I columns, and the
    result minus |c>⊗expected[c], rows of the other codes included, must
    have Frobenius norm (a bound on the spectral norm) within `tolerance`.
    Nothing is fixed or restricted; the first failing code ends the check."""
    dim = 1 << (circuit.num_qubits - circuit.num_ancilla)
    for code, matrix in expected.items():
        rows = slice(code * dim, (code + 1) * dim)
        cols = np.zeros((1 << circuit.num_qubits, dim), dtype=complex)
        cols[rows] = np.eye(dim)
        got = apply_circuit(circuit, cols)
        got[rows] -= matrix
        if np.linalg.norm(got) > tolerance:
            return False
    return True


_QUARTER_TURNS = {1: np.pi / 2, 2: np.pi, 3: -np.pi / 2}


def mobius_z4(values: np.ndarray, num_bits: int) -> np.ndarray:
    """Coefficients g_S of values(x) = sum_S g_S prod_{w in S} x_w (mod 4).

    g_S = sum_{T subset of S} (-1)^{|S|-|T|} values[T], one axis per bit;
    index bit num_bits-1-w is wire w, as for codes.
    """
    g = values.reshape((2,) * num_bits).copy()
    for axis in range(num_bits):
        lead = (slice(None),) * axis
        g[lead + (1,)] -= g[lead + (0,)]
    return g.reshape(-1) % 4


def _phase_gate(bits, power):
    """i^power on the codes where every (wire, polarity) of bits fires."""
    on = [w for w, pol in bits if pol == "+"]
    if not on:
        return Gate("GLOBALPHASE", (), _QUARTER_TURNS[power], tuple(bits))
    return Gate("PHASE", (on[0],), _QUARTER_TURNS[power],
                tuple((w, pol) for w, pol in bits if w != on[0]))


def mobius_fixups(plan, targets) -> list:
    """SELECT's phase fix-ups found by search over the whole code table.

    Code c needs i^(targets[c] - phase_power_c), a Z4 function of the 2n
    code bits, written as a phase polynomial (Amy, Maslov & Mosca,
    arXiv:1303.2042).  The code-0 spike is peeled off first, as one
    all-anticontrolled GLOBALPHASE, with the multiple that leaves the fewest
    monomials; each remaining monomial S with coefficient g_S becomes a
    PHASE(g_S pi/2) on the first wire of S, positively controlled on the
    rest, in ascending code order; the empty monomial is a GLOBALPHASE.
    """
    na = plan.num_ancilla
    poly = mobius_z4(np.array(
        [(targets[code] - plan.code_table[code].phase_power) % 4
         for code in range(1 << na)], dtype=np.int64), na)
    spike = mobius_z4((np.arange(1 << na) == 0).astype(np.int64), na)
    peel = min(range(4), key=lambda r:
               np.count_nonzero((poly - r * spike) % 4) + (r != 0))
    poly = (poly - peel * spike) % 4
    gates = []
    if peel:
        gates.append(_phase_gate([(w, "-") for w in range(na)], peel))
    for mono in np.flatnonzero(poly):
        gates.append(_phase_gate(
            [(w, "+") for w in range(na) if (mono >> (na - 1 - w)) & 1],
            int(poly[mono])))
    return gates

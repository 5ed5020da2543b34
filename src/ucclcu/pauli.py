"""Exact symbolic algebra of Pauli strings and weighted Pauli sums.

Strings are encoded symplectically: two bit-masks (x-mask, z-mask) plus an
integer phase power k with the convention

    string = i^k * prod_q letter(x_q, z_q),   letter(x, z) = i^{xz} X^x Z^z

so (0,0) -> I, (1,0) -> X, (0,1) -> Z and (1,1) -> Y (the i^{xz} factor makes
the (1,1) letter exactly Y, not XZ).  Products then cost O(1) per qubit via
mask arithmetic, and the planner can reason about strings as GF(2) vectors.

Qubit 0 is the *leftmost* letter in renderings and the most significant bit
in mask/basis indexing throughout the package.

Every dense array the package builds (a Pauli matrix, an exact or circuit
unitary, a batch of basis columns) is first sized by `check_dense`, the one
place the dense cap is enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DimensionError, ResourceLimitError

# Dense arrays hold at most as many entries as a DENSE_QUBIT_CAP-qubit unitary.
DENSE_QUBIT_CAP = 14

_LETTER_FROM_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS_FROM_LETTER = {v: k for k, v in _LETTER_FROM_BITS.items()}


def check_dense(row_qubits: int, col_qubits: int, what: str) -> None:
    """Refuse a dense (2^row_qubits, 2^col_qubits) array beyond the cap.

    The bound is on the entry count, 2^(2 * DENSE_QUBIT_CAP): a square unitary
    may have DENSE_QUBIT_CAP qubits, and a tall column batch may trade columns
    for rows.  Callers check before they allocate anything.
    """
    if row_qubits + col_qubits > 2 * DENSE_QUBIT_CAP:
        raise ResourceLimitError(
            f"dense {what} of 2^{row_qubits} x 2^{col_qubits} entries exceeds "
            f"the cap of a {DENSE_QUBIT_CAP}-qubit unitary")


def _bit(num_qubits: int, qubit: int) -> int:
    """Mask bit for ``qubit`` (qubit 0 = most significant)."""
    return 1 << (num_qubits - 1 - qubit)


def _parity(values: np.ndarray) -> np.ndarray:
    """Vectorized popcount parity of nonnegative int64 values."""
    v = values.astype(np.int64, copy=True)
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


@dataclass(frozen=True, slots=True)
class PauliString:
    """An n-qubit Pauli word with a tracked global phase i^k.

    Parameters
    ----------
    num_qubits : int
        Fixed qubit count; equal counts are required for any binary operation.
    x_mask, z_mask : int
        Symplectic bit-masks; qubit q occupies bit (num_qubits - 1 - q).
    phase_power : int
        k in i^k, stored mod 4.
    """

    num_qubits: int
    x_mask: int = 0
    z_mask: int = 0
    phase_power: int = 0

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        full = (1 << self.num_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask exceeds qubit count")
        object.__setattr__(self, "phase_power", self.phase_power % 4)

    # ---------------------------------------------------------------- builders
    @classmethod
    def from_label(cls, label: str, phase_power: int = 0) -> "PauliString":
        """Build from a letter string such as ``"XZIY"`` (qubit 0 leftmost)."""
        x = z = 0
        for q, letter in enumerate(label):
            try:
                xb, zb = _BITS_FROM_LETTER[letter]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {letter!r}") from None
            b = _bit(len(label), q)
            x |= b * xb
            z |= b * zb
        return cls(len(label), x, z, phase_power)

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        return cls(num_qubits)

    @classmethod
    def z_on(cls, num_qubits: int, qubits) -> "PauliString":
        """Z on each listed qubit, I elsewhere."""
        z = 0
        for q in qubits:
            z |= _bit(num_qubits, q)
        return cls(num_qubits, 0, z)

    # ------------------------------------------------------------- inspection
    @property
    def letters(self) -> str:
        out = []
        for q in range(self.num_qubits):
            b = _bit(self.num_qubits, q)
            out.append(_LETTER_FROM_BITS[(1 if self.x_mask & b else 0,
                                          1 if self.z_mask & b else 0)])
        return "".join(out)

    @property
    def phase(self) -> complex:
        return 1j ** self.phase_power

    @property
    def weight(self) -> int:
        """Number of non-identity letters."""
        return (self.x_mask | self.z_mask).bit_count()

    def support(self) -> list[int]:
        m = self.x_mask | self.z_mask
        return [q for q in range(self.num_qubits) if m & _bit(self.num_qubits, q)]

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0 and self.phase_power == 0

    def bare(self) -> "PauliString":
        """Same letters with phase_power reset to 0."""
        return PauliString(self.num_qubits, self.x_mask, self.z_mask, 0)

    # ---------------------------------------------------------------- algebra
    def multiply(self, other: "PauliString") -> "PauliString":
        """Exact product self * other, including the accumulated i^k phase.

        The per-qubit phase bookkeeping is a mask identity: with letters
        written as i^{xz} X^x Z^z, commuting X^{x2} past Z^{z1} contributes
        (-1)^{z1 x2} and the letter normalizations contribute
        i^{x1 z1 + x2 z2 - x3 z3} with x3 = x1^x2, z3 = z1^z2.
        """
        if self.num_qubits != other.num_qubits:
            raise DimensionError(
                f"qubit counts differ: {self.num_qubits} vs {other.num_qubits}")
        x3 = self.x_mask ^ other.x_mask
        z3 = self.z_mask ^ other.z_mask
        k = (self.phase_power + other.phase_power
             + (self.x_mask & self.z_mask).bit_count()
             + (other.x_mask & other.z_mask).bit_count()
             + 2 * (self.z_mask & other.x_mask).bit_count()
             - (x3 & z3).bit_count())
        return PauliString(self.num_qubits, x3, z3, k % 4)

    __mul__ = multiply

    def commutes(self, other: "PauliString") -> bool:
        """True iff the two strings commute.

        Two Pauli words commute exactly when the number of qubit positions
        with anticommuting letters is even; this is the symplectic form
        parity(x1&z2) + parity(z1&x2).
        """
        if self.num_qubits != other.num_qubits:
            raise DimensionError(
                f"qubit counts differ: {self.num_qubits} vs {other.num_qubits}")
        anti = ((self.x_mask & other.z_mask).bit_count()
                + (self.z_mask & other.x_mask).bit_count())
        return anti % 2 == 0

    def adjoint(self) -> "PauliString":
        """Hermitian conjugate: the bare word is Hermitian, so only i^k flips."""
        return PauliString(self.num_qubits, self.x_mask, self.z_mask,
                           (-self.phase_power) % 4)

    # ------------------------------------------------------------------ dense
    def to_dense(self) -> np.ndarray:
        """Dense 2^n x 2^n realization, phase included."""
        return PauliSum(self.num_qubits, [(self, 1.0)]).to_dense()

    # ------------------------------------------------------------------- misc
    def __str__(self) -> str:
        if self.phase_power == 0:
            return self.letters
        return f"i^{self.phase_power} · {self.letters}"

    def key(self) -> tuple[int, int]:
        return (self.x_mask, self.z_mask)


class PauliSum:
    """A complex-weighted collection of Pauli strings.

    Terms are kept as a map from (x_mask, z_mask) to coefficient, with every
    string's phase_power folded into its coefficient (so stored strings are
    bare).  Instances are treated as immutable; all operations return new sums.
    """

    __slots__ = ("num_qubits", "_terms")

    def __init__(self, num_qubits: int, terms=None):
        self.num_qubits = num_qubits
        data: dict[tuple[int, int], complex] = {}
        if terms:
            for string, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if string.num_qubits != num_qubits:
                    raise DimensionError("term width differs from sum width")
                c = complex(coeff) * string.phase
                k = string.key()
                data[k] = data.get(k, 0j) + c
        self._terms = data

    # ---------------------------------------------------------------- queries
    @classmethod
    def identity(cls, num_qubits: int) -> "PauliSum":
        return cls(num_qubits, [(PauliString.identity(num_qubits), 1.0)])

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[PauliString, complex]]:
        """Iterate (bare string, coefficient), deterministic mask order."""
        for (x, z) in sorted(self._terms):
            yield PauliString(self.num_qubits, x, z), self._terms[(x, z)]

    def coefficient(self, string: PauliString) -> complex:
        """Coefficient of the given word (its own phase is divided out)."""
        if string.num_qubits != self.num_qubits:
            raise DimensionError("string width differs from sum width")
        c = self._terms.get(string.key(), 0j)
        return c / string.phase

    # ---------------------------------------------------------------- algebra
    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.num_qubits != other.num_qubits:
            raise DimensionError("sum widths differ")
        out = PauliSum(self.num_qubits)
        data = dict(self._terms)
        for k, c in other._terms.items():
            data[k] = data.get(k, 0j) + c
        out._terms = data
        return out

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            if self.num_qubits != other.num_qubits:
                raise DimensionError("sum widths differ")
            out = PauliSum(self.num_qubits)
            data: dict[tuple[int, int], complex] = {}
            for (x1, z1), c1 in self._terms.items():
                p1 = PauliString(self.num_qubits, x1, z1)
                for (x2, z2), c2 in other._terms.items():
                    p = p1.multiply(PauliString(self.num_qubits, x2, z2))
                    k = p.key()
                    data[k] = data.get(k, 0j) + c1 * c2 * p.phase
            out._terms = data
            return out
        out = PauliSum(self.num_qubits)
        out._terms = {k: c * complex(other) for k, c in self._terms.items()}
        return out

    __rmul__ = __mul__

    def adjoint(self) -> "PauliSum":
        out = PauliSum(self.num_qubits)
        out._terms = {k: c.conjugate() for k, c in self._terms.items()}
        return out

    def prune(self) -> "PauliSum":
        """Remove the terms whose coefficient is exactly zero."""
        out = PauliSum(self.num_qubits)
        out._terms = {k: c for k, c in self._terms.items() if c != 0}
        return out

    def one_norm(self) -> float:
        return float(sum(abs(c) for c in self._terms.values()))

    # ------------------------------------------------------------------ dense
    def to_dense(self) -> np.ndarray:
        """Dense 2^n x 2^n realization.

        Built by index arithmetic rather than Kronecker products: each word
        has one nonzero per column, out[j ^ x, j] = i^{#Y} (-1)^{|j & z|}.
        """
        check_dense(self.num_qubits, self.num_qubits, "Pauli sum")
        dim = 1 << self.num_qubits
        out = np.zeros((dim, dim), dtype=complex)
        cols = np.arange(dim)
        for (x, z), coeff in self._terms.items():
            rows = cols ^ x
            signs = 1.0 - 2.0 * _parity(cols & z)
            unit = 1j ** ((x & z).bit_count() % 4)
            out[rows, cols] += coeff * unit * signs
        return out

    def __str__(self) -> str:
        parts = [f"({c:.12g}) {PauliString(self.num_qubits, x, z).letters}"
                 for (x, z), c in sorted(self._terms.items())]
        return " + ".join(parts) if parts else "0"

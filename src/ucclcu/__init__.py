"""Block-encoding synthesis for factorized unitary coupled-cluster operators.

The pipeline, bottom to top: a symplectic Pauli-string algebra (`pauli`), the
Jordan-Wigner excitation operators and the closed-form factor expansion
(`fermion`), an exact statevector simulator over a small polarized-control
gate set (`circuit`), coefficient loading (`prepare`), code-to-string mapping
(`select`), block-encoding assembly with oblivious amplitude amplification
(`lcu`), CNOT-count models plus the rotation-staircase baseline (`costs`),
and OPENQASM 2.0 export (`qasm`).  `cli` exposes everything as subcommands.
"""

__version__ = "1.0.0"

from .circuit import Circuit, Gate, apply_circuit, unitary_of
from .costs import (cascade_count, comparison_csv, emit_comparison,
                    prepare_cnot_count, realized_cnot_count,
                    select_cnot_counts, synth_cascade, total_lcu_count)
from .errors import (AngleDomainError, DimensionError, PlanningError,
                     ResourceLimitError)
from .fermion import (UccFactor, chain_qubits, exact_unitary,
                      excitation_pauli_sum, jw_ladder, projector_pauli_sum,
                      ucc_factor_expand)
from .lcu import (LcuAssembly, assemble_w, exact_amplification_one_norm,
                  pad_and_synth_oaa, verify_end_to_end)
from .pauli import PauliString, PauliSum
from .prepare import (LcuCoefficients, lcu_coefficients, prepare_angles,
                      synth_prepare, verify_prepare)
from .qasm import export_qasm, lower_controls
from .select import (SelectPlan, derive_select_plan, synth_select,
                     verify_select)

__all__ = [
    "__version__",
    "AngleDomainError", "DimensionError", "PlanningError", "ResourceLimitError",
    "PauliString", "PauliSum",
    "UccFactor", "jw_ladder", "excitation_pauli_sum", "projector_pauli_sum",
    "ucc_factor_expand", "exact_unitary", "chain_qubits",
    "Circuit", "Gate", "apply_circuit", "unitary_of",
    "LcuCoefficients", "lcu_coefficients", "prepare_angles",
    "synth_prepare", "verify_prepare",
    "SelectPlan", "derive_select_plan", "synth_select", "verify_select",
    "LcuAssembly", "assemble_w", "pad_and_synth_oaa",
    "verify_end_to_end", "exact_amplification_one_norm",
    "prepare_cnot_count", "select_cnot_counts",
    "total_lcu_count", "realized_cnot_count", "cascade_count", "synth_cascade",
    "emit_comparison", "comparison_csv",
    "export_qasm", "lower_controls",
]

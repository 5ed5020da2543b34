"""The four workloads: seeded inputs, the op each input goes through, and the
checks on every op's output.

Every workload draws its inputs from the seed alone and hands the program
only `UccFactor` objects (θ included).  The seed moves orbital placement,
θ's sign and a small θ jitter; the rank, width and amplification round count
of every input slot are fixed, so the work per pass stays the same across
seeds.  An op is one factor taken through the workload's pipeline.

Why each workload exists:

* synth-sweep: compile only, ranks 1-6.  The pure-Python Pauli algebra that
  grows as 4^n, and the only place circuit size is measured past the dense
  cap.  Bypasses the simulator and the exporter.
* verify-dense: the dense trust path on narrow registers, ranks 1-3.  Nearly
  all time is in the statevector kernel: many short SELECT-only calls (64 per
  rank-3 verify_select) and long OAA circuits.  A qasm change shows nothing.
* verify-wide: the same kernel used the other way: few ancilla, wide system
  registers with idle orbitals (chain-qubit Z's), column batches of up to
  32 MB, and the SVD and Taylor-exponential oracles at 2^N.
* export-qasm: `ucclcu synth --part oaa --qasm` through `cli.main`, ranks
  1-2.  The only workload that runs qasm and cli; the verifier is bypassed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import sys
import traceback
from dataclasses import dataclass

import numpy as np

import counts
import qasm_check

THETA_GRID = (0.3, 0.7, math.pi / 2, 2.5)
JITTER = 0.05
PREPARE_TOL = 1e-9
QASM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Spec:
    """One generated input: the factor and a label for reports.  Specs hash
    by identity, so every pass reuses the same keys."""

    label: str
    factor: object


# ----------------------------------------------------------------- generation

def one_norm(n: int, theta: float) -> float:
    """Closed-form LCU one-norm s of a rank-n factor (independent of ucclcu)."""
    m = 1 << (2 * n - 1)
    c = math.cos(theta) - 1.0
    return abs(1.0 + c / m) + (m - 1) * abs(c) / m + abs(math.sin(theta))


def level(m: int) -> float:
    """s_m = 1/sin(pi/(2(2m+1))), the one-norm at which m rounds are exact."""
    return 1.0 / math.sin(math.pi / (2.0 * (2 * m + 1)))


def rounds(n: int, theta: float) -> int:
    """Smallest m with s_m >= s: the rounds the assembler must choose."""
    s, m = one_norm(n, theta), 0
    while level(m) < s:
        m += 1
    return m


def draw_theta(rng: random.Random, n: int, grid_theta: float, drawn: bool) -> float:
    """The grid value itself, or a seeded draw of either sign near it that
    keeps the grid value's round count (so the op's size does not move)."""
    if not drawn:
        return grid_theta
    while True:
        theta = grid_theta + rng.uniform(-JITTER, JITTER)
        if rounds(n, theta) == rounds(n, grid_theta):
            return rng.choice((1.0, -1.0)) * theta


def draw_layout(rng: random.Random, n: int, kind: str, idle: int, chains: int = 0):
    """(occupied, virtuals, num_qubits) for `kind` adjacent, gapped or
    interleaved, with `idle` idle orbitals of which exactly `chains` carry a
    Jordan-Wigner Z (so the emitted gate counts do not move with the seed)."""
    nq = 2 * n + idle
    while True:
        if kind == "adjacent":
            actives = list(range(2 * n))
        else:
            actives = sorted(rng.sample(range(nq), 2 * n))
        if kind == "interleaved":
            occ = sorted(rng.sample(actives, n))
        else:
            occ = actives[:n]
        virt = sorted(set(actives) - set(occ))
        if kind == "gapped" and actives[-1] - actives[0] == 2 * n - 1:
            continue  # no idle orbital inside the active span
        if kind == "interleaved" and max(occ) < min(virt):
            continue
        if counts.chain_count(occ, virt, nq) != chains:
            continue
        return tuple(occ), tuple(virt), nq


def _spec(u, rng, n, kind, idle, grid_index, drawn, chains=0) -> Spec:
    occ, virt, nq = draw_layout(rng, n, kind, idle, chains)
    theta = draw_theta(rng, n, THETA_GRID[grid_index], drawn)
    label = f"r{n}-{kind}-N{nq}-theta{theta:+.4f}"
    return Spec(label, u.UccFactor(occ, virt, theta, nq))


KINDS = ("adjacent", "gapped", "interleaved")


def gen_synth_sweep(u, rng, size):
    """Rank 3 at m = 1 holds the median input and rank 4 at m = 2 the p90
    tail, each one even group; ranks 5-6 take half the time of a pass, which
    is short (about 3 s) so a run holds several passes.
    Per rank: (inputs, grid θ indices).  Adjacent inputs take exact grid
    values once per θ, all others are seeded draws, so every input differs."""
    per_rank = {1: (6, (0, 1, 2, 3)), 2: (6, (0, 1, 2, 3)), 3: (18, (0, 1)),
                4: (12, (2,)), 5: (2, (3, 2)), 6: (1, (0,))}
    if size != "full":
        per_rank = {1: (3, (0, 2, 3)), 2: (3, (1, 2, 3)), 3: (3, (0, 1, 3))}
    return [_spec(u, rng, n, KINDS[i % 3], 2, grids[i % len(grids)],
                  drawn=i % 3 > 0 or i // 3 >= len(grids), chains=min(i % 3, 1))
            for n, (count, grids) in per_rank.items() for i in range(count)]


def gen_verify_dense(u, rng, size):
    """Rank 3 (m = 1, 1, 1, 2, 3) is most of each pass, so the median op is a
    rank-3 verification: seconds long, steady under short machine noise.
    Ranks 1 and 2 (m = 1 and 2) ride along.  (rank, grid index, drawn)."""
    if size == "full":
        slots = [(1, 1, False), (2, 2, False), (2, 3, True),
                 (3, 0, False), (3, 1, False), (3, 0, True), (3, 2, True), (3, 3, True)]
    else:
        slots = [(1, 1, False), (2, 2, False), (2, 3, True)]
    return [_spec(u, rng, n, "adjacent", 0, g, drawn) for n, g, drawn in slots]


def gen_verify_wide(u, rng, size):
    """Six padded m = 1 inputs with 8 MB column batches (rank 1 on 8 qubits,
    rank 2 on 7) hold the median; rank 1 on 9 qubits (unpadded, at π/2) and
    rank 2 on 8 at m = 2 bring the 32 MB batches."""
    if size == "full":   # (rank, idle orbitals, grid index, drawn)
        slots = [(1, 6, 0, False), (1, 6, 1, True), (1, 6, 0, True),
                 (2, 3, 1, False), (2, 3, 0, True), (2, 3, 1, True),
                 (1, 7, 2, False), (2, 4, 3, True)]
    else:
        slots = [(1, 3, 1, False), (2, 2, 3, True)]
    return [_spec(u, rng, n, "gapped", idle, g, drawn, chains=idle // 2)
            for n, idle, g, drawn in slots]


def gen_export_qasm(u, rng, size):
    """Rank 2 at m = 1 holds the middle of each pass (6 of 9 inputs) and
    rank 2 at m = 2 its top.  Rank 3 is left out: one 7 s export (59,613
    lines) per pass would leave a run two or three passes; bench/recent.py
    measures it."""
    slots = [(1, 0, False), (1, 3, True)]
    slots += [(2, g, d > 0) for g in (0, 1) for d in range(3)]
    slots += [(2, 2, False)]
    if size != "full":
        slots = slots[::3]
    return [_spec(u, rng, n, "adjacent", 0, g, drawn) for n, g, drawn in slots]


# ------------------------------------------------------------------------ ops

def op_synth_sweep(u, spec):
    f = spec.factor
    expansion = u.ucc_factor_expand(f)
    plan = u.derive_select_plan(f)
    u.synth_prepare(f.rank, f.theta)
    u.synth_select(f, plan)
    assembly = u.pad_and_synth_oaa(f)
    u.total_lcu_count(f.rank, counts.gap_fill(f))
    counts.realized_cnots(assembly.oaa_circuit)
    return expansion, plan, assembly


def check_synth_sweep(u, spec, result, memo):
    expansion, plan, assembly = result
    f = spec.factor
    s = u.lcu_coefficients(f.rank, f.theta).s_one_norm
    m = rounds(f.rank, f.theta)
    return (abs(expansion.one_norm() - s) <= 1e-12 * s
            and sorted(plan.code_table) == list(range(1 << (2 * f.rank)))
            and assembly.oaa_rounds == m
            and abs(assembly.s_effective - level(m)) <= 1e-12)


def op_verify_dense(u, spec):
    f = spec.factor
    return (u.verify_prepare(f.rank, f.theta), u.verify_select(f),
            u.verify_end_to_end(f, mode="oaa"),
            u.verify_end_to_end(f, mode="postselect"))


def check_verify_dense(u, spec, result, memo):
    prep, select, oaa, post = result
    return (prep.max_deviation <= PREPARE_TOL and not prep.used_fallback
            and select.passed and oaa.passed and post.passed)


def op_verify_wide(u, spec):
    f = spec.factor
    return (u.verify_end_to_end(f, mode="oaa"),
            u.verify_end_to_end(f, mode="postselect"))


def check_verify_wide(u, spec, result, memo):
    return all(report.passed for report in result)


def cli_argv(f) -> list[str]:
    return ["synth", "--occ", ",".join(map(str, f.occupied)),
            "--virt", ",".join(map(str, f.virtuals)),
            "--n-qubits", str(f.num_qubits), f"--theta={f.theta!r}",
            "--part", "oaa", "--qasm"]


def op_export_qasm(u, spec):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = u.cli.main(cli_argv(spec.factor))
    return code, out.getvalue()


def check_export_qasm(u, spec, result, memo):
    """Every export of one input must repeat the bytes of the first; the
    first is checked in full by `final_export_qasm` after the timed loop."""
    code, text = result
    digest = hashlib.sha256(text.encode()).hexdigest()
    first = memo.setdefault(spec, (digest, text))
    return code == 0 and first[0] == digest


def _align(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a times the global phase that best aligns it with b."""
    overlap = np.vdot(a, b)
    return a if abs(overlap) < 1e-12 else a * (overlap / abs(overlap))


def _export_matches(u, spec, text, dense: bool) -> bool:
    f = spec.factor
    circuit = u.pad_and_synth_oaa(f).oaa_circuit
    dim_sys = 1 << f.num_qubits
    seed = int.from_bytes(hashlib.sha256(spec.label.encode()).digest()[:4], "big")
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim_sys) + 1j * rng.normal(size=dim_sys)
    psi /= np.linalg.norm(psi)
    full = np.zeros(1 << circuit.num_qubits, dtype=complex)
    full[:dim_sys] = psi
    out = qasm_check.simulate(text, full)
    expected = u.exact_unitary(f) @ psi
    if np.linalg.norm(_align(out[:dim_sys], expected) - expected) > QASM_TOL \
            or np.linalg.norm(out[dim_sys:]) > QASM_TOL:
        return False
    if not dense:
        return True
    lowered = u.qasm.lowered_unitary(circuit.num_qubits,
                                     u.qasm.lower_controls(circuit))
    direct = u.unitary_of(circuit)
    return np.max(np.abs(_align(lowered, direct) - direct)) <= QASM_TOL


def final_export_qasm(u, memo) -> set:
    """Check each input's first export; return the specs that failed.

    Every input: the text, run by the benchmark's own interpreter on
    |0>_anc ⊗ ψ, must give exp(θ(A - A†))ψ in the system block (up to the
    global phase the exporter drops) with no leakage.  Also, for every rank-1
    input and the first rank-2 input (the dense 512x512 check costs seconds
    at rank 2): the lowered op list's unitary equals the circuit's, up to
    global phase.  A check that raises counts as failed.
    """
    failed = set()
    dense_rank2_done = False
    for spec, (_, text) in memo.items():
        rank = spec.factor.rank
        dense = rank == 1 or (rank == 2 and not dense_rank2_done)
        dense_rank2_done = dense_rank2_done or (dense and rank == 2)
        try:
            ok = _export_matches(u, spec, text, dense)
        except Exception:  # a broken export must not abort the run
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            failed.add(spec)
    return failed


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object
    op: object
    check: object
    final_check: object = None


WORKLOADS = {
    "synth-sweep": Workload("synth-sweep", gen_synth_sweep, op_synth_sweep,
                            check_synth_sweep),
    "verify-dense": Workload("verify-dense", gen_verify_dense, op_verify_dense,
                             check_verify_dense),
    "verify-wide": Workload("verify-wide", gen_verify_wide, op_verify_wide,
                            check_verify_wide),
    "export-qasm": Workload("export-qasm", gen_export_qasm, op_export_qasm,
                            check_export_qasm, final_export_qasm),
}


def warm_up(u):
    """One rank-1 factor through every public entry point the workloads use,
    so lazy set-up in every layer is paid before timing on every workload."""
    f = u.UccFactor((0,), (2,), 0.7, 3)
    op_synth_sweep(u, Spec("warm-up", f))
    op_verify_dense(u, Spec("warm-up", f))
    code, text = op_export_qasm(u, Spec("warm-up", f))
    circuit = u.pad_and_synth_oaa(f).oaa_circuit
    u.qasm.lowered_unitary(circuit.num_qubits, u.qasm.lower_controls(circuit))
    state = np.zeros(1 << circuit.num_qubits, dtype=complex)
    state[0] = 1.0
    qasm_check.simulate(text, state)

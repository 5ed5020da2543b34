"""Regenerate the rank-3 re-anchor figures and the realized-cost table.

    python3 bench/recent.py

For the adjacent rank-3 factor at θ = 0.7 it prints the wall time of
`ucclcu verify --rank 3 --theta 0.7 --mode oaa`, of `verify_select`, and of
`export_qasm` on the OAA circuit with the exported line count (each time the
median of three runs).  Then, for ranks 1-6 at θ = 0.7, it prints the CNOTs
counted on the emitted OAA circuit under the 8k-12 convention (bench/counts.py)
beside `costs.total_lcu_count`, and the gates by kind and control count.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
from time import perf_counter

from run import BLAS_THREADS, import_program  # sets the BLAS threads first

import counts


def timed(fn, repeats=3):
    times, result = [], None
    for _ in range(repeats):
        t0 = perf_counter()
        result = fn()
        times.append(perf_counter() - t0)
    return statistics.median(times), result


def main() -> int:
    u = import_program()
    f = u.UccFactor((0, 1, 2), (3, 4, 5), 0.7, 6)

    def cli_verify():
        with contextlib.redirect_stdout(io.StringIO()):
            return u.cli.main(["verify", "--rank", "3", "--theta", "0.7",
                               "--mode", "oaa"])

    verify_s, code = timed(cli_verify)
    select_s, report = timed(lambda: u.verify_select(f))
    oaa = u.pad_and_synth_oaa(f).oaa_circuit
    export_s, text = timed(lambda: u.export_qasm(oaa))
    print(f"blas_threads={BLAS_THREADS}; rank 3, theta=0.7, median of 3:")
    print(f"  ucclcu verify --mode oaa: {verify_s:.3f} s (exit {code})")
    print(f"  verify_select: {select_s:.3f} s (passed={report.passed})")
    print(f"  export_qasm of the OAA circuit: {export_s:.3f} s, "
          f"{text.count(chr(10))} lines")
    print("rank oaa_gates realized_cnots total_lcu_count realized/model")
    for n in range(1, 7):
        g = u.UccFactor(tuple(range(n)), tuple(range(n, 2 * n)), 0.7, 2 * n)
        circuit = u.pad_and_synth_oaa(g).oaa_circuit
        realized = counts.realized_cnots(circuit)
        model = u.total_lcu_count(n, counts.gap_fill(g))
        print(f"{n:4d} {len(circuit):9d} {realized:14d} {model:15d} "
              f"{realized / model:14.3f}")
        print("     by kind/controls: "
              + counts.format_profile(counts.gate_profile(circuit)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

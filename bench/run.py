"""Benchmark of the ucclcu pipeline.

    python3 bench/run.py --workload verify-dense --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1     # each workload in its own
                                                     # process, one after another

The package is imported from the src/ directory beside bench/, never from an
installed copy, so a tree without src/ fails with exit code 2.

A run sets up nine times (each a fresh-interpreter import of the package after
numpy, then input generation and a warm-up in this process) and reports the
median.  It then runs whole passes over the workload's inputs, stopping at the
pass end nearest to --seconds, so every run holds the same mix of inputs,
checks every op's output, and prints one JSON object as its last line: the
end-to-end metrics with --trace 0, the per-layer metrics of a separately traced
run with --trace 1 (see spans.py).  The lines before it start with "#" and say what was
measured.  BLAS and OpenMP run one thread, fixed here before numpy loads.

op_p50_s and factors_per_s take each input at its slowest pass (see
slowest_by_input); op_tail_s is a percentile over all the run's ops (see tail).
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

import counts  # noqa: E402
import qasm_check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 9
# numpy loads untimed: it is most of a fresh interpreter's import time and no
# change to ucclcu moves it
IMPORT_PROBE = ("import sys, time, numpy; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import ucclcu, ucclcu.cli, ucclcu.qasm; "
                "print(time.perf_counter() - t)")

E2E_UNITS = {
    "setup_s": "s",
    "factors_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "oaa_gates": "count",
    "select_gates": "count",
    "realized_cnots": "count",
}

LAYER_UNITS = {
    "circuit.apply_s": "s", "circuit.apply_calls": "count",
    "circuit.gate_applications": "count", "circuit.bytes_moved_gb": "GB",
    "select.plan_s": "s", "select.synth_s": "s", "select.verify_s": "s",
    "select.gates": "count", "select.phase_fixups": "count",
    "select.codes_checked": "count",
    "prepare.synth_s": "s", "prepare.verify_s": "s", "prepare.gates": "count",
    "prepare.fallback_share": "ratio",
    "lcu.assemble_s": "s", "lcu.verify_s": "s", "lcu.block_s": "s",
    "lcu.align_s": "s", "lcu.rounds": "count", "lcu.pad_share": "ratio",
    "fermion.expand_s": "s", "fermion.expand_terms": "count",
    "fermion.exact_unitary_s": "s",
    "pauli.sum_ops_s": "s",
    "costs.model_s": "s", "costs.model_cnots": "count",
    "costs.realized_to_model": "ratio",
    "qasm.lower_s": "s", "qasm.emit_s": "s", "qasm.lowered_ops": "count",
    "qasm.check_s": "s", "qasm.two_qubit_gates": "count", "qasm.bytes": "bytes",
    "cli.main_s": "s",
    "bench.trace_overhead": "ratio",
}


def info(line: str):
    print(f"# {line}")


def import_program():
    """Import ucclcu from SRC only; raise ImportError if it is not there."""
    if not (SRC / "ucclcu" / "__init__.py").is_file():
        raise ImportError(f"no ucclcu package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ucclcu
    import ucclcu.cli  # noqa: F401  (not imported by the package itself)
    import ucclcu.qasm  # noqa: F401
    if Path(ucclcu.__file__).resolve().parent != (SRC / "ucclcu").resolve():
        raise ImportError(f"ucclcu resolved to {ucclcu.__file__}, not {SRC}")
    return ucclcu


def interleave(specs):
    """Fixed order that spreads each rank's inputs evenly over the pass, so a
    few seconds of machine noise do not land on one group of ops."""
    groups: dict[int, list] = {}
    for spec in specs:
        groups.setdefault(spec.factor.rank, []).append(spec)
    keyed = [((j + 0.5) / len(group), rank, j, spec)
             for rank, group in groups.items() for j, spec in enumerate(group)]
    return [item[-1] for item in sorted(keyed, key=lambda item: item[:3])]


def set_up(u, wl, args):
    """(median set-up seconds, all set-up times, inputs)."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, check=True)
        t0 = perf_counter()
        specs = interleave(wl.generate(u, random.Random(args.seed), args.size))
        workloads.warm_up(u)
        times.append(float(probe.stdout) + perf_counter() - t0)
    return statistics.median(times), times, specs


def run_passes(u, wl, specs, seconds, tracer=None, max_passes=None):
    """Whole passes over `specs`, stopping at the pass end nearest to
    `seconds` (at least one pass).  Returns
    (latencies, ok flags, specs run, passes, wall time, memo of outputs kept
    for the final check)."""
    latencies, oks, ran, pass_ends = [], [], [], []
    memo = {}
    passes = 0
    start = perf_counter()
    while True:
        for spec in specs:
            gc.collect()
            if tracer is not None:
                tracer.op = len(latencies)
            result = None
            t0 = perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("bench.op"):
                        result = wl.op(u, spec)
                else:
                    result = wl.op(u, spec)
                latency = perf_counter() - t0
                ok = bool(wl.check(u, spec, result, memo))
            except Exception:  # an op that raises counts as failed, run goes on
                latency = perf_counter() - t0
                traceback.print_exc(file=sys.stderr)
                ok = False
            result = None
            latencies.append(latency)
            oks.append(ok)
            ran.append(spec)
        passes += 1
        pass_ends.append(perf_counter() - start)
        half_pass = pass_ends[-1] / (2 * passes)
        if passes == max_passes or pass_ends[-1] + half_pass >= seconds:
            break
    info("pass wall times: " + ", ".join(
        f"{b - a:.3f}" for a, b in zip([0.0] + pass_ends, pass_ends)) + " s")
    return latencies, oks, ran, passes, pass_ends[-1], memo


def slowest_by_input(ran, latencies) -> list[float]:
    """Each input's slowest latency over the run's passes.

    On a shared 2-vCPU host the same op runs in two speeds about 1.8x apart,
    each lasting seconds to a minute.  The slow one shows up in nearly every
    run and the fast one does not, so a run's median or mean moves with the
    share of it spent at each speed, while each input's slowest pass does not:
    over ten runs of synth-sweep and export-qasm the quartile spread of the
    slowest-pass figures was 0.03-0.12 of the median, of the medians and means
    0.1-0.4."""
    by_spec: dict = {}
    for spec, latency in zip(ran, latencies):
        by_spec.setdefault(spec, []).append(latency)
    return [max(v) for v in by_spec.values()]


def tail(latencies, p50: float):
    """(value, percentile) at the highest whole-ten percentile that has ten
    samples beyond it among all the run's ops, never below `p50` (a run of
    under 20 ops has no such percentile above the median).  Whole tens keep
    the percentile fixed while the pass count a run fits moves with machine
    speed."""
    highest = 100.0 - 1000.0 / len(latencies)
    percentile = max(50.0, 10.0 * (highest // 10.0))
    return max(p50, float(numpy.percentile(latencies, percentile))), percentile


def size_counts(u, specs, memo):
    """Sizes counted on the emitted circuits, summed over the inputs."""
    totals = Counter()
    by_rank: dict[int, Counter] = {}
    profile = Counter()
    for spec in specs:
        f = spec.factor
        oaa = u.pad_and_synth_oaa(f).oaa_circuit
        realized = counts.realized_cnots(oaa)
        model = u.total_lcu_count(f.rank, counts.gap_fill(f))
        by_rank.setdefault(f.rank, Counter()).update(
            inputs=1, realized=realized, model=model)
        totals.update(oaa_gates=len(oaa), realized_cnots=realized,
                      model_cnots=model, select_gates=len(u.synth_select(f)))
        profile.update(counts.gate_profile(oaa))
    for _, text in memo.values():   # exports kept by export-qasm
        totals.update(qasm_bytes=len(text.encode()),
                      qasm_two_qubit_gates=qasm_check.two_qubit_lines(text))
    return totals, by_rank, profile


def report(wl, args, setup_times, import_s, specs, ran, latencies, oks,
           passes, wall, totals, by_rank, profile, tail_pct):
    info(f"env: python={sys.version.split()[0]} numpy={numpy.__version__} "
         f"nproc={os.cpu_count()} blas_threads={BLAS_THREADS}")
    info(f"workload: {wl.name} seed={args.seed} size={args.size} "
         f"inputs={len(specs)} passes={passes} ops={len(oks)} wall_s={wall:.3f}")
    info(f"setup_s: median of {SETUP_REPEATS} set-ups, each a fresh-interpreter "
         "import of ucclcu after numpy plus generation and warm-up: "
         + ", ".join(f"{t:.4f}" for t in setup_times)
         + f" s (this process imported ucclcu in {import_s:.4f} s)")
    info(f"op_tail_s is the p{tail_pct:.1f} latency of {len(oks)} ops, "
         "or op_p50_s if that is higher")
    info(f"op_p50_s and factors_per_s take each of the {len(specs)} inputs at its "
         f"slowest of {passes} passes; over all ops the median latency is "
         f"{statistics.median(latencies):.4f} s and ops over run wall time "
         f"{len(oks) / wall:.4f} 1/s")
    by_input: dict[str, list[float]] = {}
    for spec, latency in zip(ran, latencies):
        by_input.setdefault(spec.label, []).append(latency)
    info("median op latency per input: " + ", ".join(
        f"{label} {statistics.median(v):.4f} s" for label, v in by_input.items()))
    failed = oks.count(False)
    info(f"fail_share = {failed}/{len(oks)} = {failed / len(oks):.4f}")
    info("realized CNOTs (8k-12 convention) against costs.total_lcu_count:")
    info("rank inputs realized_cnots model_cnots realized/model")
    for n in sorted(by_rank):
        row = by_rank[n]
        info(f"{n:4d} {row['inputs']:6d} {row['realized']:14d} {row['model']:11d} "
             f"{row['realized'] / row['model']:14.3f}")
    info("emitted OAA gates by kind/controls: " + counts.format_profile(profile))
    if totals["qasm_bytes"]:
        info(f"qasm: {totals['qasm_bytes']} bytes, "
             f"{totals['qasm_two_qubit_gates']} two-qubit gate lines")


def run_workload(args) -> int:
    t0 = perf_counter()
    try:
        u = import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    wl = workloads.WORKLOADS[args.workload]

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    setup_s, setup_times, specs = set_up(u, wl, args)
    untraced_pass = None
    if tracer is not None:
        tracer.uninstall()
        untraced_pass = run_passes(u, wl, specs, 0, max_passes=1)[4]
        tracer.install()
    latencies, oks, ran, passes, wall, memo = run_passes(
        u, wl, specs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.op = spans.CHECKS_OP
    if wl.final_check is not None:
        failed_specs = wl.final_check(u, memo)
        oks = [ok and spec not in failed_specs for ok, spec in zip(oks, ran)]
    if tracer is not None:
        tracer.uninstall()

    totals, by_rank, profile = size_counts(u, specs, memo)
    slowest = slowest_by_input(ran, latencies)
    tail_s, tail_pct = tail(latencies, statistics.median(slowest))
    report(wl, args, setup_times, import_s, specs, ran, latencies, oks,
           passes, wall, totals, by_rank, profile, tail_pct)

    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "factors_per_s": len(slowest) / sum(slowest),
            "op_p50_s": statistics.median(slowest),
            "op_tail_s": tail_s,
            "peak_rss_mb": peak_rss_mb,
            "oaa_gates": totals["oaa_gates"],
            "select_gates": totals["select_gates"],
            "realized_cnots": totals["realized_cnots"],
        }
        units = E2E_UNITS
    else:
        metrics = tracer.layer_metrics(passes)
        metrics["costs.model_cnots"] = totals["model_cnots"]
        metrics["costs.realized_to_model"] = totals["realized_cnots"] / totals["model_cnots"]
        metrics["qasm.two_qubit_gates"] = totals["qasm_two_qubit_gates"]
        metrics["qasm.bytes"] = totals["qasm_bytes"]
        metrics["bench.trace_overhead"] = (wall / passes) / untraced_pass
        units = LAYER_UNITS
        if tracer.absent:
            info("absent from the program (metrics read 0): "
                 + ", ".join(tracer.absent))
        info("circuit.bytes_moved_gb is computed (2 x state bytes x gates "
             "per apply call), not measured")
        info(f"costs.realized_to_model base: model_cnots = {totals['model_cnots']}")
        tracer.write(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl")
    for name, unit in units.items():
        info(f"{name} = {metrics[name]} {unit}")
    failed = oks.count(False)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(oks), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, so peak RSS is per workload."""
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        info(f"=== {name}")
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the ucclcu pipeline.")
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: small inputs for the harness self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

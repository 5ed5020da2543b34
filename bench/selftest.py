"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at smoke size, twice untraced and twice traced, each run
in its own process, and checks that

* each run exits 0 and its last line is a result with exactly the keys
  correct, attempted, failed and metrics, with every op correct;
* the metrics are exactly those BENCHMARK.json names, each with its unit
  (end-to-end untraced, per-layer traced);
* every count metric repeats exactly across the two runs;
* in a directory that holds only BENCHMARK.json and the benchmark's files,
  the benchmark exits nonzero without printing a result.

Exits 0 when every check holds and prints one line per failed check otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = ["bench/run.py", "--seed", "3", "--seconds", "1", "--size", "smoke"]
EXACT_UNITS = ("count", "bytes")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *RUN, "--workload", workload,
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, expected_units: dict[str, str]) -> tuple[list[str], dict]:
    problems = []
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"], {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected_units:
        problems.append(f"metrics/units differ from BENCHMARK.json: "
                        f"{sorted(set(units.items()) ^ set(expected_units.items()))}")
    return problems, {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            values = []
            for attempt in (1, 2):
                problems, metrics = check_result(run(ROOT, workload, trace),
                                                 expected[trace])
                failures += [f"{workload} trace={trace} run {attempt}: {p}"
                             for p in problems]
                values.append(metrics)
            for name, unit in expected[trace].items():
                if unit in EXACT_UNITS and values[0].get(name) != values[1].get(name):
                    failures.append(f"{workload} trace={trace}: {name} differs "
                                    f"across runs: {values[0].get(name)} vs "
                                    f"{values[1].get(name)}")
            print(f"{workload} trace={trace}: done", flush=True)

    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, "
                        f"stdout {proc.stdout.strip()[:200]!r}")
    shutil.rmtree(bare)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

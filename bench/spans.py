"""Span tracer for the traced run: wraps ucclcu's public functions from outside.

Each wrapped function is replaced, in every ucclcu module that holds it (the
defining module, every module that imported it by name, and the package
namespace), by a wrapper that records a span: name, start, end, parent span
and op id.  Nothing under src/ changes.  Spans stay in memory and are written
out when the run ends.

A span's self time is its duration minus the durations of its direct child
spans.  A layer's time is the self time of its spans.  Per-layer counts are
taken from the arguments and results of the wrapped calls.

A name that no longer exists is reported as absent; the metrics fed by it
read 0.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from time import perf_counter

SETUP_OP = "setup"
CHECKS_OP = "checks"

# wrapped name -> layer metric that receives its self time
SPAN_TIMES = {
    "ucclcu.circuit.apply_circuit": "circuit.apply_s",
    "ucclcu.pauli.PauliSum.__mul__": "pauli.sum_ops_s",
    "ucclcu.pauli.PauliSum.__add__": "pauli.sum_ops_s",
    "ucclcu.fermion.ucc_factor_expand": "fermion.expand_s",
    "ucclcu.fermion.excitation_pauli_sum": "fermion.expand_s",
    "ucclcu.fermion.projector_pauli_sum": "fermion.expand_s",
    "ucclcu.fermion.exact_unitary": "fermion.exact_unitary_s",
    "ucclcu.prepare.synth_prepare": "prepare.synth_s",
    "ucclcu.prepare.verify_prepare": "prepare.verify_s",
    "ucclcu.select.derive_select_plan": "select.plan_s",
    "ucclcu.select.synth_select": "select.synth_s",
    "ucclcu.select.verify_select": "select.verify_s",
    "ucclcu.lcu.pad_and_synth_oaa": "lcu.assemble_s",
    "ucclcu.lcu.verify_end_to_end": "lcu.verify_s",
    "ucclcu.lcu.ancilla_zero_block": "lcu.block_s",
    "ucclcu.lcu.phase_aligned_deviation": "lcu.align_s",
    "ucclcu.costs.total_lcu_count": "costs.model_s",
    "ucclcu.qasm.lower_controls": "qasm.lower_s",
    "ucclcu.qasm.export_qasm": "qasm.emit_s",
    "ucclcu.qasm.lowered_unitary": "qasm.check_s",
    "ucclcu.cli.main": "cli.main_s",
}

_PHASE_KINDS = ("PHASE", "GLOBALPHASE")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _apply_counts(args, kwargs, result):
    circuit = _arg(args, kwargs, 0, "circuit")
    state = _arg(args, kwargs, 1, "state")
    gates = len(circuit.gates)
    # computed, not measured: each gate reads and writes the whole state once
    return {"circuit.apply_calls": 1, "circuit.gate_applications": gates,
            "circuit.bytes_moved_gb": 2.0 * 16 * state.size * gates / 1e9}


def _select_counts(args, kwargs, result):
    return {"select.gates": len(result.gates),
            "select.phase_fixups": sum(1 for g in result.gates
                                       if g.kind in _PHASE_KINDS)}


def _verify_select_counts(args, kwargs, result):
    return {"select.codes_checked": 1 << (2 * _arg(args, kwargs, 0, "f").rank)}


def _prepare_counts(args, kwargs, result):
    return {"prepare.gates": len(result.gates)}


def _verify_prepare_counts(args, kwargs, result):
    return {"prepare.verify_calls": 1,
            "prepare.fallbacks": int(result.used_fallback)}


def _oaa_counts(args, kwargs, result):
    return {"lcu.assemblies": 1, "lcu.rounds": result.oaa_rounds,
            "lcu.padded": int(result.pad_qubits > 0)}


def _expand_counts(args, kwargs, result):
    return {"fermion.expand_terms": len(result)}


def _lower_counts(args, kwargs, result):
    return {"qasm.lowered_ops": len(result)}


SPAN_COUNTS = {
    "ucclcu.circuit.apply_circuit": _apply_counts,
    "ucclcu.select.synth_select": _select_counts,
    "ucclcu.select.verify_select": _verify_select_counts,
    "ucclcu.prepare.synth_prepare": _prepare_counts,
    "ucclcu.prepare.verify_prepare": _verify_prepare_counts,
    "ucclcu.lcu.pad_and_synth_oaa": _oaa_counts,
    "ucclcu.fermion.ucc_factor_expand": _expand_counts,
    "ucclcu.qasm.lower_controls": _lower_counts,
}


def _resolve(qualname: str):
    """(owner, attribute, object) for a dotted name, or None if absent."""
    parts = qualname.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


class Tracer:
    """Records spans while installed; `op` labels the spans of the current op."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, counts]
        self.op = SETUP_OP
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        stack = self._stack
        record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
        stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            stack.pop()

    # ----------------------------------------------------------- installing
    def install(self):
        """Wrap every target in every ucclcu namespace that holds it."""
        self.absent = []
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "ucclcu" or key.startswith("ucclcu."))]
        for qualname in SPAN_TIMES:
            found = _resolve(qualname)
            if found is None:
                self.absent.append(qualname)
                continue
            owner, attr, original = found
            wrapper = self._wrap(qualname[len("ucclcu."):], original,
                                 SPAN_COUNTS.get(qualname))
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []

    # ------------------------------------------------------------ reporting
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1]) - child[i] for i, s in enumerate(self.spans)]

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Self seconds and counts per pass of the workload's inputs.

        Times include the traced set-up and the final output checks, spread
        over the passes (so a layer the ops bypass still shows its warm-up);
        counts cover the timed ops only, so they repeat exactly.
        """
        times: dict[str, float] = {}
        counts: dict[str, float] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            metric = SPAN_TIMES.get("ucclcu." + span[0])
            if metric is not None:
                times[metric] = times.get(metric, 0.0) + self_s
            if isinstance(span[4], int) and span[5]:
                for key, value in span[5].items():
                    counts[key] = counts.get(key, 0) + value
        out = {metric: times.get(metric, 0.0) / passes
               for metric in sorted(set(SPAN_TIMES.values()))}
        for key in ("circuit.apply_calls", "circuit.gate_applications",
                    "circuit.bytes_moved_gb", "select.gates",
                    "select.phase_fixups", "select.codes_checked",
                    "prepare.gates", "lcu.rounds", "fermion.expand_terms",
                    "qasm.lowered_ops"):
            out[key] = counts.get(key, 0) / passes
        out["prepare.fallback_share"] = (
            counts.get("prepare.fallbacks", 0) / counts["prepare.verify_calls"]
            if counts.get("prepare.verify_calls") else 0.0)
        out["lcu.pad_share"] = (counts.get("lcu.padded", 0) / counts["lcu.assemblies"]
                                if counts.get("lcu.assemblies") else 0.0)
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

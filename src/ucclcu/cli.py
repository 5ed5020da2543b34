"""Command-line front end.

Six subcommands tie the library together: `expand` (print the factor's Pauli
expansion), `prepare-angles`, `plan` (SELECT plan as JSON), `synth` (circuit
JSON or QASM for prepare/select/w/oaa), `verify` (end-to-end grid, JSON
report), and `count` (CNOT-model comparison CSV).

Exit codes: 0 success, 1 verification failure, 2 usage/configuration error.
All artifacts are deterministic — provenance headers carry the package version
and the reconstructed command line, never a timestamp — so identical
invocations produce byte-identical output.

Orbital-index convention: inside a factor the creation operators act in
descending virtual order and the annihilation operators in ascending occupied
order (a†_{a_n}..a†_{a_1} a_{i_1}..a_{i_n}); both `--occ` and `--virt` take
ascending comma-separated spin-orbital indices.  Angles are radians.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from pathlib import Path

from . import __version__
from .costs import comparison_csv
from .errors import PlanningError, ResourceLimitError
from .fermion import UccFactor, ucc_factor_expand
from .lcu import assemble_w, pad_and_synth_oaa, verify_end_to_end
from .prepare import prepare_angles, synth_prepare
from .qasm import export_qasm
from .select import derive_select_plan, synth_select

# AngleDomainError and DimensionError are ValueErrors
_USER_ERRORS = (ValueError, PlanningError, ResourceLimitError, OSError)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_complex(c: complex) -> str:
    return f"{c.real:.17g}{c.imag:+.17g}j"


def _add_factor_args(p: argparse.ArgumentParser, with_theta: bool = True):
    p.add_argument("--rank", type=int, default=None,
                   help="shorthand: occ=0..n-1, virt=n..2n-1 on 2n qubits")
    p.add_argument("--occ", type=_int_list, default=None,
                   help="occupied spin-orbitals, ascending, comma-separated")
    p.add_argument("--virt", type=_int_list, default=None,
                   help="virtual spin-orbitals, ascending, comma-separated")
    p.add_argument("--n-qubits", type=int, default=None,
                   help="total spin-orbital count (default: max index + 1)")
    if with_theta:
        p.add_argument("--theta", type=float, required=True,
                       help="amplitude in radians")


def _factor_from(args, theta: float) -> UccFactor:
    if args.rank is not None:
        if args.occ is not None or args.virt is not None:
            raise ValueError("--rank replaces --occ/--virt; give one or the other")
        n = args.rank
        occ, virt = tuple(range(n)), tuple(range(n, 2 * n))
    else:
        if args.occ is None or args.virt is None:
            raise ValueError("--occ and --virt are required")
        occ, virt = args.occ, args.virt
    # default=-1 leaves an empty list to UccFactor, which names the problem
    nq = args.n_qubits if args.n_qubits is not None \
        else max(occ + virt, default=-1) + 1
    return UccFactor(occ, virt, theta, nq)


def _provenance(cmdline: str) -> dict:
    return {"version": __version__, "command": cmdline}


def _deliver(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- subcommands

def _cmd_expand(args, cmdline: str) -> int:
    f = _factor_from(args, args.theta)
    terms = [(1 if p.x_mask else 0, p.letters, c)
             for p, c in ucc_factor_expand(f).terms()]
    for _, letters, coeff in sorted(terms, key=lambda t: (t[0], t[1])):
        print(f"{_fmt_complex(coeff)}  {letters}")
    return 0


def _cmd_prepare_angles(args, cmdline: str) -> int:
    for k, value in enumerate(prepare_angles(args.rank, args.theta), start=1):
        print(f"Theta[{k}] = {_fmt(value)}")
    return 0


def _cmd_plan(args, cmdline: str) -> int:
    f = _factor_from(args, 0.0)
    payload = {"provenance": _provenance(cmdline)}
    payload.update(derive_select_plan(f).to_json_dict())
    _deliver(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_synth(args, cmdline: str) -> int:
    f = _factor_from(args, args.theta)
    if args.part == "prepare":
        circ = synth_prepare(f.rank, f.theta)
    elif args.part == "select":
        circ = synth_select(f)
    elif args.part == "w":
        circ = assemble_w(f)
    else:  # oaa
        circ = pad_and_synth_oaa(f).oaa_circuit
    if args.qasm:
        text = export_qasm(circ, provenance=[f"ucclcu {__version__}", cmdline])
    else:
        payload = {"provenance": _provenance(cmdline)}
        payload.update(circ.to_json_dict())
        text = json.dumps(payload, indent=2) + "\n"
    _deliver(text, args.out)
    return 0


def _cmd_verify(args, cmdline: str) -> int:
    if not args.theta:
        raise ValueError("--theta needs at least one value")
    grid = []
    for theta in sorted(args.theta):
        f = _factor_from(args, theta)
        rep = verify_end_to_end(f, mode=args.mode, tolerance=args.tol)
        grid.append({"theta": theta, "deviation": rep.deviation,
                     "s": rep.s_one_norm, "rounds": rep.rounds,
                     "leakage": rep.leakage, "pass": rep.passed})
    all_pass = all([g.pop("pass") for g in grid])  # pop from every entry
    resolved = _factor_from(args, 0.0)
    report = {
        "command": "verify",
        "params": {"occ": list(resolved.occupied),
                   "virt": list(resolved.virtuals),
                   "n_qubits": resolved.num_qubits, "mode": args.mode,
                   "tolerance": args.tol, **_provenance(cmdline)},
        "grid": grid,
        "pass": all_pass,
    }
    text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text)
    return 0 if all_pass else 1


def _cmd_count(args, cmdline: str) -> int:
    text = comparison_csv(args.rank_max, args.rho,
                          provenance=[f"ucclcu {__version__}", cmdline])
    _deliver(text, args.csv)
    return 0


# --------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucclcu",
        description="Synthesize, verify, and cost block encodings of "
                    "factorized unitary coupled-cluster operators.")
    parser.add_argument("--version", action="version",
                        version=f"ucclcu {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print the factor's Pauli expansion")
    _add_factor_args(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("prepare-angles", help="print analytic loader angles")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.set_defaults(func=_cmd_prepare_angles)

    p = sub.add_parser("plan", help="dump the SELECT plan as JSON")
    _add_factor_args(p, with_theta=False)
    p.add_argument("--out", default=None, help="write to file instead of stdout")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("synth", help="emit a circuit as JSON (or QASM)")
    p.add_argument("--part", choices=("prepare", "select", "w", "oaa"),
                   required=True)
    _add_factor_args(p)
    p.add_argument("--qasm", action="store_true",
                   help="OPENQASM 2.0 instead of circuit JSON")
    p.add_argument("--out", default=None, help="write to file instead of stdout")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", help="end-to-end check over a theta grid")
    _add_factor_args(p, with_theta=False)
    p.add_argument("--theta", type=_float_list, required=True,
                   help="comma-separated theta grid (radians); a grid that "
                        "starts negative takes the = form, --theta=-1,0.3")
    p.add_argument("--mode", choices=("postselect", "oaa"), default="oaa")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="CNOT-model comparison table (CSV)")
    p.add_argument("--rank-max", type=int, required=True)
    p.add_argument("--rho", type=int, default=0,
                   help="uniform idle-gap fill per chain segment (default 0)")
    p.add_argument("--csv", default=None, help="write to file instead of stdout")
    p.set_defaults(func=_cmd_count)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    tokens = list(sys.argv[1:]) if argv is None else list(argv)
    cmdline = "ucclcu " + " ".join(shlex.quote(t) for t in tokens)
    try:
        return args.func(args, cmdline)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

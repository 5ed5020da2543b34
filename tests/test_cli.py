"""Command-line interface: parsing, outputs, exit codes, determinism."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ucclcu
from ucclcu import __version__
from ucclcu.circuit import Circuit, unitary_of
from ucclcu.cli import main
from ucclcu.fermion import UccFactor, exact_unitary


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_rank2_half_pi_term_lines(self, capsys):
        code, out, _ = run(capsys, "expand", "--rank", "2",
                           "--theta", "1.5707963267948966")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 16
        table = {}
        for line in lines:
            coeff, letters = line.split()
            table[letters] = complex(coeff)
        assert table["IIII"] == pytest.approx(7 / 8, abs=1e-9)
        assert table["YXXX"] == pytest.approx(1j / 8, abs=1e-9)
        assert table["IZZI"] == pytest.approx(1 / 8, abs=1e-9)
        assert table["ZZII"] == pytest.approx(-1 / 8, abs=1e-9)
        # diagonal sector sorts ahead of the excitation sector
        assert all("X" not in ln and "Y" not in ln for ln in lines[:8])

    def test_explicit_orbitals(self, capsys):
        code, out, _ = run(capsys, "expand", "--occ", "0,1", "--virt", "4,6",
                           "--n-qubits", "7", "--theta", "0.9")
        assert code == 0
        assert all(len(ln.split()[1]) == 7 for ln in out.strip().splitlines())


class TestPrepareAngles:
    def test_rank2_half_pi_frozen(self, capsys):
        code, out, _ = run(capsys, "prepare-angles", "--rank", "2",
                           "--theta", "1.5707963267948966")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "Theta[1] = -0.36136712390670778"
        assert len(lines) == 4
        values = [float(ln.split("=")[1]) for ln in lines]
        assert values[1] == pytest.approx(-0.27054976297857286, abs=1e-15)


class TestPlan:
    def test_rank2_fixture_payload(self, capsys):
        code, out, _ = run(capsys, "plan", "--occ", "0,1", "--virt", "2,3")
        assert code == 0
        d = json.loads(out)
        assert d["provenance"]["version"] == __version__
        assert d["provenance"]["command"] == "ucclcu plan --occ 0,1 --virt 2,3"
        assert d["xy_reference"] == "XXXY"
        assert d["iz_reference"] == "IZZI"
        assert d["identity_code"] == "0100"
        assert len(d["code_table"]) == 16

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "plan.json"
        code, out, _ = run(capsys, "plan", "--rank", "1",
                           "--out", str(target))
        assert code == 0 and out == ""
        d = json.loads(target.read_text())
        assert d["xy_reference"] == "XY"


class TestSynth:
    def test_circuit_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "synth", "--rank", "1", "--theta", "0.8",
                           "--part", "w")
        assert code == 0
        d = json.loads(out)
        assert set(d) == {"provenance", "num_qubits", "num_ancilla", "gates"}
        circ = Circuit.from_json_dict(d)
        f = UccFactor((0,), (1,), 0.8, 2)
        block = unitary_of(circ)[:4, :4]
        s = np.linalg.norm(exact_unitary(f), 2) / np.linalg.norm(block, 2)
        assert np.linalg.norm(s * block - exact_unitary(f), 2) < 1e-10

    def test_qasm_output(self, capsys):
        code, out, _ = run(capsys, "synth", "--rank", "1", "--theta", "0.8",
                           "--part", "oaa", "--qasm")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"// ucclcu {__version__}"
        assert lines[1].startswith("// ucclcu synth --rank 1")
        assert "OPENQASM 2.0;" in lines

    @pytest.mark.parametrize("part", ["prepare", "select", "w", "oaa"])
    def test_all_parts_emit(self, capsys, part):
        code, out, _ = run(capsys, "synth", "--rank", "1", "--theta", "0.4",
                           "--part", part)
        assert code == 0
        assert json.loads(out)["gates"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "w.json"
        code, out, _ = run(capsys, "synth", "--rank", "1", "--theta", "0.8",
                           "--part", "w", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["num_ancilla"] == 2


class TestVerify:
    def test_grid_report_passes(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--rank", "1",
                           "--theta", "0.5,0.25", "--mode", "postselect",
                           "--out", str(target))
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"command", "params", "grid", "pass"}
        assert report["pass"] is True
        thetas = [g["theta"] for g in report["grid"]]
        assert thetas == sorted(thetas) == [0.25, 0.5]
        for g in report["grid"]:
            assert set(g) == {"theta", "deviation", "s", "rounds", "leakage"}
        assert json.loads(target.read_text()) == report

    def test_unreachable_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--rank", "1",
                           "--theta", "0.5", "--tol", "1e-20")
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_failing_grid_keeps_one_entry_schema(self, capsys):
        code, out, _ = run(capsys, "verify", "--rank", "1",
                           "--theta", "0.25,0.5", "--tol", "1e-20")
        assert code == 1
        for g in json.loads(out)["grid"]:
            assert set(g) == {"theta", "deviation", "s", "rounds", "leakage"}

    def test_oaa_mode_rounds(self, capsys):
        code, out, _ = run(capsys, "verify", "--rank", "2", "--theta",
                           "1.5707963267948966", "--mode", "oaa")
        assert code == 0
        assert json.loads(out)["grid"][0]["rounds"] == 2

    def test_large_theta_passes(self, capsys):
        # exp(theta E) is 2pi-periodic; an oracle that exponentiates theta
        # itself drifts to 1.7e-8 at 1e8 and fails a correct circuit
        code, out, _ = run(capsys, "verify", "--rank", "1", "--theta",
                           "1e6,1e8,1e9", "--mode", "postselect")
        assert code == 0
        assert all(g["deviation"] <= 1e-14 for g in json.loads(out)["grid"])


    @pytest.mark.parametrize("argv", [
        ("--theta", ","),
        ("--theta", "0.5", "--tol", "nan"),
        ("--theta", "0.5", "--tol=-1"),
        ("--theta", "0.5", "--tol", "inf"),
    ], ids=["empty-grid", "nan-tol", "negative-tol", "inf-tol"])
    def test_malformed_grid_or_tolerance_exits_two(self, capsys, argv):
        code, out, err = run(capsys, "verify", "--rank", "1", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:")


class TestCount:
    def test_table_and_rows(self, capsys):
        code, out, _ = run(capsys, "count", "--rank-max", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == f"# ucclcu {__version__}"
        assert lines[1] == "# ucclcu count --rank-max 2"
        assert lines[2] == "rank,cascade,lcu_total,prepare,select_total"
        assert lines[3] == "1,4,30,2,6"
        assert lines[4] == "2,48,498,76,14"

    def test_byte_identical_reruns(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        argv = ["count", "--rank-max", "6", "--rho", "1",
                "--csv", str(target)]
        run(capsys, *argv)
        first = target.read_bytes()
        run(capsys, *argv)
        assert target.read_bytes() == first
        _, out_a, _ = run(capsys, "count", "--rank-max", "4")
        _, out_b, _ = run(capsys, "count", "--rank-max", "4")
        assert out_a == out_b


class TestCrossProcessDeterminism:
    LAYOUT = ("--occ", "0,2", "--virt", "3,5", "--n-qubits", "7")

    @pytest.mark.parametrize("argv", [
        ("synth", *LAYOUT, "--theta", "0.7", "--part", "oaa", "--qasm"),
        ("plan", *LAYOUT),
    ], ids=lambda argv: argv[0])
    def test_bytes_independent_of_hash_seed(self, argv):
        # reruns inside one process share its hash seed, so they cannot see
        # output that depends on set or hash order
        src = str(Path(ucclcu.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = [
            subprocess.run([sys.executable, "-m", "ucclcu", *argv],
                           env=dict(os.environ, PYTHONHASHSEED=seed,
                                    PYTHONPATH=path),
                           capture_output=True, check=True,
                           timeout=300).stdout
            for seed in ("0", "1")]
        assert outputs[0] and outputs[0] == outputs[1]


class TestErrorsAndMeta:
    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--rank", "1"])  # --theta missing
        assert exc.value.code == 2

    def test_config_error_returns_two(self, capsys):
        code, out, err = run(capsys, "expand", "--occ", "0", "--virt", "0",
                             "--theta", "0.1")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ("expand", "--rank", "1"),
        ("prepare-angles", "--rank", "1"),
        ("synth", "--rank", "1", "--part", "oaa"),
        ("verify", "--rank", "1"),
    ], ids=lambda argv: argv[0])
    def test_non_finite_theta_exits_two(self, capsys, argv, theta):
        code, out, err = run(capsys, *argv, f"--theta={theta}")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "theta" in err

    def test_empty_rank_rejected(self, capsys):
        code, _, err = run(capsys, "expand", "--rank", "0",
                           "--theta", "0.1")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("argv", [
        ("plan", "--rank", "0"),
        ("expand", "--rank", "0", "--theta", "1"),
    ], ids=lambda argv: argv[0])
    def test_rank_zero_names_the_empty_lists(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "nonempty" in err

    def test_over_cap_verify_exits_two(self):
        # the rank-5 OAA block is 2^21 x 2^10 complex entries (32 GiB); the
        # address-space limit turns any attempt at it into a crash, not a pass
        def limit_child():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            soft = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

        src = str(Path(ucclcu.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ucclcu", "verify", "--rank", "5",
             "--theta", "0.5"],
            env=dict(os.environ, PYTHONPATH=path), preexec_fn=limit_child,
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "exceeds the cap" in proc.stderr

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_returns_integer(self, capsys):
        code = main(["count", "--rank-max", "1"])
        capsys.readouterr()
        assert isinstance(code, int)

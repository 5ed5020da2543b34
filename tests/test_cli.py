"""Command-line interface: parsing, outputs, exit codes, determinism."""

import hashlib
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
from ucclcu.circuit import Circuit, Gate, unitary_of
from ucclcu.cli import main
from ucclcu.fermion import UccFactor, exact_unitary
from ucclcu.lcu import assemble_w


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv, limit_gib=4, **env):
    """`python -m ucclcu *argv` in a child process with `env` added, under
    an address-space limit that turns any larger array into a crash."""
    def limit_child():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = limit_gib << 30
        resource.setrlimit(resource.RLIMIT_AS, (
            soft if hard == resource.RLIM_INFINITY else min(soft, hard), hard))

    src = str(Path(ucclcu.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ucclcu", *argv],
        env=dict(os.environ, PYTHONPATH=path, **env), preexec_fn=limit_child,
        capture_output=True, text=True, timeout=300)


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


LAYOUT = "--occ 0,2 --virt 3,5 --n-qubits 7"

# SHA-256 of stdout; these artifacts hold only integers and the angles 0 and
# pi/2^k
PINNED_DIGESTS = {
    "plan --rank 1":
        "8c67c3e928a33a3f34821fad06b563e7289011ba40bc8632dbb845cee6376599",
    "plan --rank 2":
        "ce0d00ec9d2902e3da9b6a2bcfa4a51a71529d316fe7be29be4ae527335350e4",
    "plan --rank 3":
        "1fcc2b716db3076facc126e51a74228b87eb6cb90151d57ebf91eed7d51c9fa0",
    f"plan {LAYOUT}":
        "494b63fa5e1f9c6b94cfb3fe60a0fb3a6fb16e3001783b974715a150cb4880e5",
    "synth --part select --rank 2 --theta 0":
        "bb272d823a3904de6336e8ee8b186c807596d694c52186c77b29cf96f652d19f",
    "synth --part select --rank 2 --theta 0 --qasm":
        "3eaafea8c6397038e4bc562fc43ff67f96010e2527acbc74ef771a239b40a064",
    "synth --part select --rank 2 --theta 0.7":
        "abd7bec5c4d62b1473c4427016ed623304f3c0780740fffd7721d1e0ef1570d0",
    "synth --part select --rank 2 --theta 0.7 --qasm":
        "f6bbec60ec4f934d68392d7751b81de9c3e6abc93a3044b9e421d1b139d0eac0",
    "synth --part select --rank 2 --theta -2.5":
        "315a37dcb3a0aac5ba768610e55cfda6f961bdb41645f5b679ccf05d30f549bd",
    "synth --part select --rank 2 --theta -2.5 --qasm":
        "2e762cb2124fef6407412e8e1ed45514b49a246cbcde288ffc2d2831b350e661",
    f"synth --part select {LAYOUT} --theta 0":
        "4721744c163c59f74cf584375f366b9f803dab5b1a4f7b19ac7a7db7c00cc3c9",
    f"synth --part select {LAYOUT} --theta 0 --qasm":
        "6e75f16c0795571390454bf2df7df4f87e33add31bc4d21c0b032dd85dc7e8e7",
    f"synth --part select {LAYOUT} --theta 0.7":
        "0f2673ff754097d1326de9015c109cfd0621f6c8333f591ddc09f9f7969ae3fd",
    f"synth --part select {LAYOUT} --theta 0.7 --qasm":
        "728528634a9e031f63dce9050d84a216128e1365b7956c2b5a419755f888c1c5",
    f"synth --part select {LAYOUT} --theta -2.5":
        "78c29e0787a8c04bb02f8ed51f2bb628803468e302ebc7aa54e13b1a09d98ae0",
    f"synth --part select {LAYOUT} --theta -2.5 --qasm":
        "5f1c8258466d8eddcb2bd5ae4ac67c1fd1e65bda41d4e17c981ba1143a5b0ffa",
    "synth --part prepare --rank 3 --theta 0":
        "01046fcbdc0b1a67bff4bcb2673f950528c5897f8da9fc195d9a0a83fdb3a7ed",
    "synth --part prepare --rank 3 --theta 0 --qasm":
        "d1858006931267b12318ba6cb720bd414d10ca359f1b4d0af6cdd716168ce36a",
    "count --rank-max 8 --rho 0":
        "fbe2b86a798f47574fa5ba02bd356f41110037b01347b7517e991a39517ece9b",
    "count --rank-max 8 --rho 1":
        "750972e3ccabf4cb1b38d50d43c5ea21b003f316ebbb4b74e0bba92d03d91c4c",
}


class TestPinnedBytes:
    """Exact bytes of the artifacts that no libm or SIMD difference can move.

    `plan`, `synth --part select` and `count` print only integers and the
    constant angles pi/2^k; `synth --part prepare` at theta = 0 has every
    loader angle exactly 0.0, so its digest pins the loader's gate list.
    `expand` and `verify` print computed floats and are left out.  A
    deliberate change to these bytes updates the digests here and says in
    CHANGES.md why the bytes changed.
    """

    @pytest.mark.parametrize("command", sorted(PINNED_DIGESTS))
    def test_stdout_digest(self, capsys, command):
        code, out, err = run(capsys, *command.split())
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[command]


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
        # the rank-5 OAA block is 2^21 x 2^10 complex entries (32 GiB)
        proc = run_child("verify", "--rank", "5", "--theta", "0.5", limit_gib=4)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "exceeds the cap" in proc.stderr

    def test_over_cap_block_refused_before_the_reference(self):
        # spectator 11 is fixed; the kept register is the ten actives and
        # chain wire 5, so the padded OAA block is still 2^22 x 2^11
        proc = run_child("verify", "--occ", "0,1,2,3,4", "--virt", "6,7,8,9,10",
                         "--n-qubits", "12", "--theta", "0.5", limit_gib=2)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "exceeds the cap" in proc.stderr

    @pytest.mark.parametrize("layout", [
        ("--occ", "0,1", "--virt", "2,11", "--n-qubits", "12",
         "--mode", "postselect"),
        ("--occ", "0", "--virt", "12", "--n-qubits", "13"),
        ("--occ", "0,5,9", "--virt", "14,20,29", "--n-qubits", "30"),
    ], ids=["rank2-n12-postselect", "rank1-n13", "rank3-n30"])
    def test_wide_layouts_verify_on_their_actives(self, layout):
        # on the whole register these need a 4 GiB batch or a 2^N reference;
        # only the actives and one chain wire are simulated
        proc = run_child("verify", *layout, "--theta", "0.5", limit_gib=2)
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["pass"] is True

    def test_spectator_moving_gate_fails_without_exit_two(self, capsys,
                                                          monkeypatch):
        def stray_x(f, s_target=None):
            w = assemble_w(f, s_target)
            return w.append(Gate("X", (w.num_ancilla + 4,)))

        monkeypatch.setattr("ucclcu.lcu.assemble_w", stray_x)
        code, out, err = run(capsys, "verify", "--occ", "0,2", "--virt", "3,6",
                             "--n-qubits", "8", "--theta", "0.7")
        assert code == 1 and err == ""
        report = json.loads(out)
        assert report["pass"] is False
        assert report["grid"][0]["deviation"] == math.inf

    def test_postselect_bytes_do_not_follow_blas_threads(self):
        # the kept register is 5 qubits; the leakage norm comes from the
        # eigenvalues of a small Gram matrix, so oaa's bytes hold too
        for mode in ("postselect", "oaa"):
            argv = ("verify", "--occ", "0,2", "--virt", "5,7", "--n-qubits",
                    "9", "--theta", "0.3,0.7,2.5", "--mode", mode)
            outs = [run_child(*argv, OPENBLAS_NUM_THREADS=threads)
                    for threads in ("1", "2")]
            assert all(proc.returncode == 0 for proc in outs)
            assert outs[0].stdout == outs[1].stdout, mode

    @pytest.mark.parametrize("argv", [
        ("prepare-angles", "--rank", "257"),
        ("synth", "--part", "prepare", "--rank", "513"),
    ], ids=lambda argv: argv[0])
    def test_float_overflowing_rank_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--theta", "0.7")
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"got {argv[-1]}" in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_returns_integer(self, capsys):
        code = main(["count", "--rank-max", "1"])
        capsys.readouterr()
        assert isinstance(code, int)

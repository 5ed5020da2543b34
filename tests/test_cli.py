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
        assert not {"iz_reference", "identity_code"} & set(d)
        assert len(d["code_table"]) == 16
        strings = {e["code"]: e["string"] for e in d["code_table"]}
        assert (strings["0000"], strings["0100"]) == ("IIII", "IZZI")

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

    def test_negative_first_grid_takes_the_equals_form(self, capsys):
        # argparse reads "-1,0.3" after a space as an option, not a value
        code, out, _ = run(capsys, "verify", "--rank", "1", "--theta=-1,0.3")
        assert code == 0
        assert [g["theta"] for g in json.loads(out)["grid"]] == [-1.0, 0.3]
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--rank", "1", "--theta", "-1,0.3"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, "synth", "--part", "prepare", "--rank", "1",
                           "--theta", "-1")
        assert code == 0 and json.loads(out)["gates"]

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
        "e74f9b0508d481f5e39d5384824d31660edf5ab03a7e77516f32a8ae2ec8db83",
    "plan --rank 2":
        "140a4d29a26b48c15717fc3b112069412eaddaa21f3a5e0f99347198861426e6",
    "plan --rank 3":
        "4b0b4b32b82e80fbd795319077e9bcb61abb260c3902198a487d386d53a70b94",
    f"plan {LAYOUT}":
        "9b9cfd1df59cb96e5ef45e6f791dfc8925296243d6d561ac9edd228f58462a1e",
    "synth --part select --rank 2 --theta 0":
        "7f6ca80cf80def0f7a3e08c8ceb508331f4cb60c3d33c4220af5b113ee3f36d1",
    "synth --part select --rank 2 --theta 0 --qasm":
        "f0cb7a74d98916536a8a1a88d1e15db6842c31e92a2b5bf146da51dfc19ceb2b",
    "synth --part select --rank 2 --theta 0.7":
        "d9622124bc86e84f32178c98e822ad548b17bca85f355d3d7bf978d9a3b469cf",
    "synth --part select --rank 2 --theta 0.7 --qasm":
        "14f4cc822a3c3eb41316300036e0b0fe91690d55e441a1937ff89aa4ad4cbb5f",
    "synth --part select --rank 2 --theta -2.5":
        "2c1f4316aeb701daab5d8a69a7cb80eee56d5418438b606c716f2d77f4d349c0",
    "synth --part select --rank 2 --theta -2.5 --qasm":
        "8b161c7692817b38709a302ee9042c47bd2613d1c06239bc783ad57e1a53324a",
    f"synth --part select {LAYOUT} --theta 0":
        "59fd2274e143085e038092bb788d44615a1601cd6fa06977ef683f801e0a1015",
    f"synth --part select {LAYOUT} --theta 0 --qasm":
        "89f7fce56d9af1a505f2904e1e140318262600bc5eadf2459a094501f0bb9350",
    f"synth --part select {LAYOUT} --theta 0.7":
        "1246753d7f4f297a61a02e6efdf02f7b49d36a016bc9071adf9517478f1b2dcb",
    f"synth --part select {LAYOUT} --theta 0.7 --qasm":
        "1c6f63b2bc1156548c22347a79e8baf4cbf8876eee3e4968781ec684a416b61b",
    f"synth --part select {LAYOUT} --theta -2.5":
        "8696b0a0b993f553f95ab9089a06640dc25c3663e467aae2f646e1d46c9ec1d2",
    f"synth --part select {LAYOUT} --theta -2.5 --qasm":
        "199fdc3c8cc6646e2d3325eb9df1361f32b8c3f54403593e2a4b6b3fdab64689",
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
        # the rank-5 OAA block is 2^20 x 2^10 complex entries (16 GiB)
        proc = run_child("verify", "--rank", "5", "--theta", "0.5", limit_gib=4)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "exceeds the cap" in proc.stderr

    def test_over_cap_block_refused_before_the_reference(self):
        # spectator 11 is fixed; the kept register is the ten actives and
        # chain wire 5, so the OAA block is 2^21 x 2^11, over the cap
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
        def stray_x(f):
            w = assemble_w(f)
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

    @pytest.mark.parametrize("argv, message", [
        (("plan", "--rank", "9"), "code table"),
        (("verify", "--rank", "9", "--theta", "0.7"), "exceeds the cap"),
    ], ids=["plan --rank 9", "verify --rank 9"])
    def test_code_table_past_rank_eight_exits_two(self, capsys, argv, message):
        # plan prints 4^9 codes, and rank 8 already takes seconds; verify
        # builds no code table, but its 36-wire block is past the dense cap
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("rank", [9, 12])
    @pytest.mark.parametrize("part", ["select", "w", "oaa"])
    def test_synth_past_rank_eight_builds_no_code_table(self, capsys, part,
                                                        rank):
        code, out, err = run(capsys, "synth", "--part", part,
                             "--rank", str(rank), "--theta", "0.7")
        assert code == 0 and err == ""
        assert json.loads(out)["num_ancilla"] == 2 * rank

    @pytest.mark.parametrize("part", ["select", "w", "oaa"])
    def test_qasm_past_sixteen_controls_exits_two(self, capsys, part):
        # the rank-9 code-0 phase has 18 controls; lowered without ancillas
        # it would be over 10^8 gates
        code, out, err = run(capsys, "synth", "--part", part, "--rank", "9",
                             "--theta", "0.7", "--qasm")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "export cap" in err

    def test_rank_nine_prepare_and_count_unaffected(self, capsys):
        code, out, _ = run(capsys, "synth", "--part", "prepare", "--rank", "9",
                           "--theta", "0.7")
        assert code == 0 and json.loads(out)["num_qubits"] == 18
        code, out, _ = run(capsys, "count", "--rank-max", "9")
        assert code == 0 and out.splitlines()[-1].startswith("9,")

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

import argparse
import json
import math
import os
import subprocess
import sys

import pytest

from spinorbit.cli import main, parse_angle
from spinorbit.qstate import TruncationError

FIG2 = os.path.join(os.path.dirname(__file__), "..", "benches", "fig2.bench")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter in a new process with the package's sources on its path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi/2", math.pi / 2),
            ("-pi", -math.pi),
            ("pi", math.pi),
            ("0.75pi", 0.75 * math.pi),
            ("2pi/3", 2 * math.pi / 3),
            ("-pi/4", -math.pi / 4),
            ("22.5deg", math.radians(22.5)),
            ("-45deg", math.radians(-45)),
            ("1.25", 1.25),
            ("+0.5", 0.5),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("text", ["", "pie", "pi*2", "deg", "1..2", "pi/0", "pi/0.0"])
    def test_rejected_forms(self, text):
        with pytest.raises((ValueError, argparse.ArgumentTypeError)):
            parse_angle(text)


class TestChshCommand:
    def test_exact_default_angles(self, capsys):
        assert main(["chsh"]) == 0
        out = capsys.readouterr().out
        assert "S = 2.8284271247461" in out

    def test_exact_json(self, capsys):
        assert main(["chsh", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["s"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert len(payload["e_values"]) == 4
        assert payload["manifest"]["command"] == "chsh"

    def test_zero_angles_give_zero(self, capsys):
        args = ["chsh", "--chi-a", "0", "--chi-a-prime", "0",
                "--chi-b", "0", "--chi-b-prime", "0", "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["s"] == pytest.approx(0.0, abs=1e-12)

    def test_montecarlo_reproducible(self, capsys):
        args = ["chsh", "--mode", "montecarlo", "--shots", "100000",
                "--seed", "42", "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["counts"] == second["counts"]
        assert abs(first["s"] - 2 * math.sqrt(2)) <= 5 * first["standard_error"]

    def test_montecarlo_requires_shots(self):
        with pytest.raises(SystemExit):
            main(["chsh", "--mode", "montecarlo"])

    def test_montecarlo_without_shots_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chsh", "--mode", "montecarlo"])
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            "spinorbit: error: montecarlo mode requires --shots\n"
        )


class TestSweepCommand:
    def test_csv_columns_and_values(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--chi-b", "pi/4", "--points", "64",
                     "--shots", "1000", "--seed", "7", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "chi_A_rad,chi_B_rad,p_pp,p_pm,p_mp,p_mm,"
            "n_pp,n_pm,n_mp,n_mm,e_exact,e_est"
        )
        assert len(lines) == 65
        row = dict(zip(lines[0].split(","), lines[49].split(",")))
        assert float(row["chi_A_rad"]) == pytest.approx(math.pi / 2, abs=1e-12)
        assert float(row["e_exact"]) == pytest.approx(0.7071067811865476, abs=1e-12)
        counts = [int(row[k]) for k in ("n_pp", "n_pm", "n_mp", "n_mm")]
        assert sum(counts) == 1000

    def test_exact_only_mode_omits_count_columns(self, tmp_path, capsys):
        out = tmp_path / "exact.csv"
        assert main(["sweep", "--points", "8", "--shots", "0",
                     "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "chi_A_rad,chi_B_rad,p_pp,p_pm,p_mp,p_mm,e_exact"

    def test_manifest_written_with_circle_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--points", "64", "--shots", "0", "--out", str(out)])
        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["seed"] == 0
        assert "PCG64" in manifest["generator"]
        # chi_A = pi/2 sits at index 48, chi_A = -pi at index 0.
        assert manifest["circle_rows"] == [0, 48]

    def test_rerun_reproduces_csv_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--points", "16", "--shots", "500", "--seed", "3"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestNchvCommand:
    def test_json_schema_keys(self, capsys):
        assert main(["nchv", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"classical_max", "quantum_s", "gap", "assignment"}
        assert payload["classical_max"] == 2.0
        assert payload["quantum_s"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert payload["gap"] == pytest.approx(2 * math.sqrt(2) - 2, abs=1e-12)

    def test_random_settings_stay_capped(self, capsys):
        settings = {"chi-a": 0.3, "chi-a-prime": -2.1, "chi-b": 1.7, "chi-b-prime": -0.4}
        argv = ["nchv", "--json"]
        for name, value in settings.items():
            argv += [f"--{name}", str(value)]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classical_max"] == 2.0
        a, ap, b, bp = settings.values()
        s = math.sin(a + b) + math.sin(a + bp) - math.sin(ap + b) + math.sin(ap + bp)
        assert payload["quantum_s"] == pytest.approx(s, abs=1e-12)

    def test_draws_nothing_so_takes_no_stream(self, capsys):
        assert main(["nchv", "--seed", "7"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["nchv", "--stream", "1"])
        assert exc.value.code == 1


class TestFieldCommand:
    def test_axis_pattern_csv(self, tmp_path, capsys):
        out = tmp_path / "field.csv"
        assert main(["field", "--q", "1", "--n-r", "3", "--n-phi", "8",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,phi,alpha"
        for line in lines[1:]:
            _, phi, alpha = (float(x) for x in line.split(","))
            assert alpha == pytest.approx(phi % math.pi, abs=1e-12)
        manifest = json.loads((tmp_path / "field.manifest.json").read_text())
        assert manifest["rotationally_invariant"] is True
        assert manifest["symmetry_order"] is None

    def test_four_fold_plate_manifest(self, tmp_path, capsys):
        out = tmp_path / "field3.csv"
        main(["field", "--q", "3", "--out", str(out)])
        manifest = json.loads((tmp_path / "field3.manifest.json").read_text())
        assert manifest["symmetry_order"] == 4


class TestRunCommand:
    def test_fig2_bench_at_peak_settings(self, capsys):
        assert main(["run", FIG2, "--chi-a", "pi/2", "--chi-b", "pi/4",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["e_exact"] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert payload["herald_probability"] == pytest.approx(0.5, abs=1e-12)
        assert payload["analyzer_m"] == 2

    def test_wider_charge_bench_same_law(self, tmp_path, capsys):
        bench = tmp_path / "q2.bench"
        bench.write_text(
            "source spdc\nfilter smf side=bob\nqplate q=2 side=bob\nherald basis=H\n"
        )
        assert main(["run", str(bench), "--chi-a", "pi/2", "--chi-b", "pi/4",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analyzer_m"] == 4
        assert payload["e_exact"] == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_counts_reported_with_shots(self, capsys):
        assert main(["run", FIG2, "--shots", "1000", "--seed", "5",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["counts"]) == 1000
        assert -1.0 <= payload["e_estimated"] <= 1.0

    def test_malformed_bench_exits_2(self, tmp_path, capsys):
        bench = tmp_path / "bad.bench"
        bench.write_text("source spdc\nqplate q=banana\n")
        assert main(["run", str(bench)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "bad-number" in err

    def test_missing_file_exits_1(self, capsys):
        assert main(["run", "/nonexistent/path.bench"]) == 1

    def test_analyzer_mismatch_exits_3(self, capsys):
        # Forcing a +-4 analyzer on a +-2 state loses all the weight.
        assert main(["run", FIG2, "--analyzer-m", "4"]) == 3
        assert "numeric contract violation" in capsys.readouterr().err

    def test_zero_weight_herald_exits_1(self, tmp_path, capsys):
        # A q-plate before the fiber filter moves every photon out of m = 0.
        bench = tmp_path / "dark.bench"
        bench.write_text(
            "source spdc\nqplate q=1 side=bob\nfilter smf side=bob\n"
            "herald basis=H side=alice\n"
        )
        assert main(["run", str(bench)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("spinorbit: error: herald probability is 0")
        assert len(err.splitlines()) == 1

    def test_roundoff_filter_bench_exits_1(self, tmp_path, capsys):
        # Only roundoff reaches the filter's m = 0 mode, so it transmits weight 0.
        bench = tmp_path / "roundoff.bench"
        bench.write_text(
            "source spdc\nqplate q=0.5 side=bob\nqwp theta=22.5deg side=bob\n"
            "herald basis=V\nqwp theta=22.5deg side=bob\nqplate q=0.5 side=bob\n"
            "filter smf side=bob\n"
        )
        assert main(["run", str(bench)]) == 1
        err = capsys.readouterr().err
        assert "herald probability is 0" in err
        assert len(err.splitlines()) == 1

    def test_bench_without_oam_exits_1(self, tmp_path, capsys):
        # No q-plate: Bob stays at m = 0, so no analyzer charge can be inferred.
        bench = tmp_path / "flat.bench"
        bench.write_text("source spdc\nfilter smf side=bob\nherald basis=H side=alice\n")
        assert main(["run", str(bench)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "spinorbit: error: cannot infer the analyzer OAM magnitude; pass --analyzer-m\n"
        )
        # --analyzer-m still overrides: the analyzer runs and finds no weight at +-1.
        assert main(["run", str(bench), "--analyzer-m", "1"]) == 3
        assert "numeric contract violation" in capsys.readouterr().err

    def test_bench_without_herald_exits_2(self, tmp_path, capsys):
        bench = tmp_path / "open.bench"
        bench.write_text("source spdc\nfilter smf side=bob\nqplate q=1 side=bob\n")
        assert main(["run", str(bench)]) == 2
        err = capsys.readouterr().err
        assert err == "bench has no herald stage; nothing to analyze\n"

    def test_truncation_exits_3(self, monkeypatch, capsys):
        def truncated(*args, **kwargs):
            raise TruncationError("|m|=6 exceeds truncation m_max=4")

        monkeypatch.setattr("spinorbit.cli.joint_probabilities", truncated)
        assert main(["run", FIG2]) == 3
        assert "numeric contract violation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exc,message",
        [(MemoryError(), "out of memory"),
         (MemoryError("Unable to allocate 1.49 GiB"), "Unable to allocate 1.49 GiB")],
        ids=["bare", "with-text"],
    )
    def test_out_of_memory_exits_1_with_one_line(self, monkeypatch, capsys, exc, message):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr("spinorbit.cli.joint_probabilities", exhausted)
        assert main(["run", FIG2]) == 1
        assert capsys.readouterr().err == f"spinorbit: error: {message}\n"

    def test_missing_filter_warning_is_one_stderr_line(self, tmp_path, capsys):
        assert main(["run", FIG2]) == 0
        reference = capsys.readouterr().out.splitlines()
        bench = tmp_path / "unfiltered.bench"
        bench.write_text("source spdc\nqplate q=1 side=bob\nherald basis=H\n")
        assert main(["run", str(bench)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "spinorbit: warning: bench has a q-plate but no mode filter; an ideal "
            "source carries no OAM, so the output is unchanged\n"
        )
        assert captured.out.splitlines()[1:] == reference[1:]  # all but the bench path

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chsh", "--chi-a", "not-an-angle"])
        assert exc.value.code == 1

    def test_zero_denominator_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chsh", "--chi-a", "pi/0"])
        assert exc.value.code == 1
        assert "cannot parse angle 'pi/0'" in capsys.readouterr().err


class TestInvalidValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ["chsh", "--mode", "montecarlo", "--shots", "1"],
            ["chsh", "--mode", "montecarlo", "--shots", "100", "--seed", "-1"],
            ["sweep", "--points", "0"],
            ["sweep", "--seed", "-1"],
            ["sweep", "--chi-b", "nan"],
            ["sweep", "--shots", "-5"],
            ["chsh", "--chi-a", "inf"],
            ["field", "--q", "0.3"],
            ["run", FIG2, "--analyzer-m", "9"],
        ],
    )
    def test_exit_1_with_one_line_and_no_file(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        if argv[0] in ("sweep", "field"):
            argv = argv + ["--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("spinorbit: error: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()


class TestFileErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--points", "4", "--out"],
            ["field", "--q", "1", "--out"],
            ["run"],
        ],
    )
    def test_exit_1_with_one_line_and_no_file(self, argv, tmp_path, capsys):
        missing = tmp_path / "missing"
        target = missing / ("in.bench" if argv[0] == "run" else "out.csv")
        assert main(argv + [str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("spinorbit: error: ")
        assert str(target) in err
        assert len(err.splitlines()) == 1
        assert not missing.exists()
        assert list(tmp_path.iterdir()) == []


class TestSeedEnvironment:
    def test_invalid_seed_warns_once_and_falls_back_to_zero(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setenv("SPINORBIT_SEED", "abc")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--points", "4", "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "'abc'" in err[0] and "SPINORBIT_SEED" in err[0]
        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        assert manifest["seed"] == 0

    def test_valid_seed_is_silent(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("SPINORBIT_SEED", "11")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--points", "4", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        assert manifest["seed"] == 11

    def test_invalid_seed_is_silent_when_unused(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("SPINORBIT_SEED", "abc")
        assert main(["field", "--q", "1", "--out", str(tmp_path / "f.csv")]) == 0
        assert main(["nchv"]) == 0
        assert main(["sweep", "--points", "4", "--seed", "5",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert capsys.readouterr().err == ""
        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        assert manifest["seed"] == 5


class TestColdStart:
    def test_import_loads_neither_benchdsl_nor_numpy_random(self):
        code = ("import sys, spinorbit.cli; "
                "print([m for m in ('spinorbit.benchdsl', 'numpy.random') if m in sys.modules])")
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_run_loads_no_dataclasses(self):
        code = ("import sys; from spinorbit.cli import main; "
                f"code = main(['run', {FIG2!r}]); "
                "print(code, 'dataclasses' in sys.modules, file=sys.stderr)")
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "0 False\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("source spdc\nqplate q=banana\n", "line 2, column 10: expected a number"),
            ("source spdc\nherald basis=H side=bob\n", "line 2: herald must act on side=alice"),
            ("source spdc\nqwp theta=1e400\n", "line 2, column 11: expected a finite number"),
        ],
    )
    def test_bad_bench_exits_2_in_a_fresh_process(self, tmp_path, text, message):
        bench = tmp_path / "bad.bench"
        bench.write_text(text)
        proc = fresh_python("-m", "spinorbit.cli", "run", str(bench))
        assert proc.returncode == 2
        assert proc.stderr.startswith(message)

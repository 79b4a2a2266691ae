import argparse
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from cli_cases import (CASES, CONSOLE, ERROR, FIG2, NO_CONSOLE, WARNING, Case, bench, check,
                       console_env, run)
from test_benchdsl import cascade_text

from spinorbit import __version__
from spinorbit.chsh import GENERATOR_ID, RngSeed
from spinorbit.cli import build_parser, cmd_run, main, parse_angle
from spinorbit.qstate import TruncationError

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

    @pytest.mark.parametrize("text", ["", "pie", "pi*2", "deg", "1..2", "pi/0", "pi/0.0",
                                      "--1", "+-0.5", "-+1deg", "pi/-2", "-pi/+2"])
    def test_rejected_forms(self, text):
        with pytest.raises((ValueError, argparse.ArgumentTypeError)):
            parse_angle(text)


class TestChshCommand:
    def test_exact_default_angles(self, cli):
        out = run(cli, Case("chsh", ("chsh",), out=("S = 2.8284271247461912",))).out
        assert "S = 2.8284271247461" in out

    def test_exact_json(self, cli):
        ran = cli(["chsh", "--json"])
        assert ran.code == 0
        payload = json.loads(ran.out)
        assert payload["s"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert len(payload["e_values"]) == 4
        assert payload["manifest"]["command"] == "chsh"

    def test_zero_angles_give_zero(self, cli):
        ran = cli(["chsh", "--chi-a", "0", "--chi-a-prime", "0",
                   "--chi-b", "0", "--chi-b-prime", "0", "--json"])
        assert ran.code == 0
        assert json.loads(ran.out)["s"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("command", ["chsh", "nchv"])
    def test_exact_manifest_names_no_generator(self, cli, command):
        ran = cli([command, "--json"])
        assert ran.code == 0
        manifest = json.loads(ran.out)["manifest"]
        assert "generator" not in manifest and "seed" not in manifest

    def test_montecarlo_reproducible(self, cli):
        args = ["chsh", "--mode", "montecarlo", "--shots", "100000", "--seed", "42", "--json"]
        first, second = cli(args), cli(args)
        assert first.code == second.code == 0
        first, second = json.loads(first.out), json.loads(second.out)
        assert first["counts"] == second["counts"]
        assert abs(first["s"] - 2 * math.sqrt(2)) <= 5 * first["standard_error"]

    def test_montecarlo_requires_shots(self, cli):
        ran = cli(["chsh", "--mode", "montecarlo"])
        assert (ran.code, ran.out) == (1, "")

    def test_montecarlo_without_shots_message(self, cli):
        run(cli, Case("chsh-montecarlo-no-shots", ("chsh", "--mode", "montecarlo"), code=1,
                      err=ERROR + "montecarlo mode requires --shots\n", err_lines=1))

    def test_exact_mode_takes_no_shots(self, cli):
        ran = run(cli, Case("chsh-exact-shots", ("chsh", "--shots", "5"), code=1,
                            err=ERROR + "exact mode takes no --shots\n", err_lines=1))
        assert ran.out == ""


class TestSweepCommand:
    def test_csv_columns_and_values(self, cli):
        ran = cli(["sweep", "--chi-b", "pi/4", "--points", "64",
                   "--shots", "1000", "--seed", "7", "--out", "sweep.csv"])
        assert ran.code == 0
        lines = ran.files["sweep.csv"].decode().splitlines()
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

    def test_exact_only_mode_omits_count_columns(self, cli):
        ran = cli(["sweep", "--points", "8", "--shots", "0", "--out", "exact.csv"])
        assert ran.code == 0
        header = ran.files["exact.csv"].decode().splitlines()[0]
        assert header == "chi_A_rad,chi_B_rad,p_pp,p_pm,p_mp,p_mm,e_exact"

    def test_manifest_written_with_circle_rows(self, cli):
        ran = cli(["sweep", "--points", "64", "--shots", "0", "--out", "sweep.csv"])
        manifest = json.loads(ran.files["sweep.manifest.json"])
        assert manifest["command"] == "sweep"
        assert "seed" not in manifest and "stream" not in manifest
        assert "generator" not in manifest
        # chi_A = pi/2 sits at index 48, chi_A = -pi at index 0.
        assert manifest["circle_rows"] == [0, 48]

    def test_sampled_manifest_names_the_generator(self, cli):
        ran = cli(["sweep", "--points", "4", "--shots", "10", "--out", "sweep.csv"])
        assert ran.code == 0
        assert json.loads(ran.files["sweep.manifest.json"])["generator"] == GENERATOR_ID

    @pytest.mark.parametrize("shots,sha256", [
        ("500", "57dc1c4913940da1e43cfe794705787c6edecd1e75ae8fe7d64fc2a97d1be802"),
        ("0", "af154542d0e24c23f1ce26e7f3bb790260d00bb22f2d75d07cdb10a845216275"),
    ])
    def test_csv_bytes_and_circle_rows_are_pinned(self, cli, shots, sha256):
        ran = cli(["sweep", "--points", "16", "--shots", shots, "--seed", "3",
                   "--out", "sweep.csv"])
        assert ran.code == 0
        assert hashlib.sha256(ran.files["sweep.csv"]).hexdigest() == sha256
        assert json.loads(ran.files["sweep.manifest.json"])["circle_rows"] == [0, 12]

    def test_rerun_reproduces_csv_bytes(self, cli):
        args = ["sweep", "--points", "16", "--shots", "500", "--seed", "3"]
        assert cli(args + ["--out", "a.csv"]).files["a.csv"] == \
            cli(args + ["--out", "b.csv"]).files["b.csv"]


class TestNchvCommand:
    def test_json_schema_keys(self, cli):
        ran = cli(["nchv", "--json"])
        assert ran.code == 0
        payload = json.loads(ran.out)
        assert set(payload) >= {"classical_max", "quantum_s", "gap", "assignment"}
        assert payload["classical_max"] == 2.0
        assert payload["quantum_s"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert payload["gap"] == pytest.approx(2 * math.sqrt(2) - 2, abs=1e-12)

    def test_random_settings_stay_capped(self, cli):
        settings = {"chi-a": 0.3, "chi-a-prime": -2.1, "chi-b": 1.7, "chi-b-prime": -0.4}
        argv = ["nchv", "--json"]
        for name, value in settings.items():
            argv += [f"--{name}", str(value)]
        ran = cli(argv)
        assert ran.code == 0
        payload = json.loads(ran.out)
        assert payload["classical_max"] == 2.0
        a, ap, b, bp = settings.values()
        s = math.sin(a + b) + math.sin(a + bp) - math.sin(ap + b) + math.sin(ap + bp)
        assert payload["quantum_s"] == pytest.approx(s, abs=1e-12)

    def test_draws_nothing_so_takes_no_stream(self, cli):
        assert cli(["nchv", "--seed", "7"]).code == 0
        assert cli(["nchv", "--stream", "1"]).code == 1


class TestFieldCommand:
    def test_axis_pattern_csv(self, cli):
        ran = cli(["field", "--q", "1", "--n-r", "3", "--n-phi", "8", "--out", "field.csv"])
        assert ran.code == 0
        lines = ran.files["field.csv"].decode().splitlines()
        assert lines[0] == "r,phi,alpha"
        for line in lines[1:]:
            _, phi, alpha = (float(x) for x in line.split(","))
            assert alpha == pytest.approx(phi % math.pi, abs=1e-12)
        manifest = json.loads(ran.files["field.manifest.json"])
        assert manifest["rotationally_invariant"] is True
        assert manifest["symmetry_order"] is None

    def test_four_fold_plate_manifest(self, cli):
        ran = run(cli, Case("field", ("field", "--q", "3", "--out", "f.csv")))
        assert json.loads(ran.files["f.manifest.json"])["symmetry_order"] == 4

    def test_radially_constant(self, cli):
        n_phi = 24
        ran = cli(["field", "--q", "3", "--alpha0", "0.1", "--n-r", "7", "--n-phi", str(n_phi),
                   "--out", "field.csv"])
        assert ran.code == 0
        rows = [line.split(",") for line in ran.files["field.csv"].decode().splitlines()[1:]]
        blocks = [rows[i:i + n_phi] for i in range(0, len(rows), n_phi)]
        assert len(blocks) == 7
        for block in blocks:
            assert len({row[0] for row in block}) == 1
            assert [row[2] for row in block] == [row[2] for row in blocks[0]]

    @pytest.mark.parametrize("argv,sha256", [
        (["--q", "1"], "4bb9814b89621a62748ef13849fb02b41f8c3935ddc81a1ee65bdc96be1c3713"),
        (["--q", "3", "--alpha0", "0.3"],
         "eb7b27afd6df1d32fbba59b094541060767445c8afcfb44083d35c96be1bb577"),
        (["--q", "0.5", "--n-r", "5", "--n-phi", "7"],
         "55954386a56425b218533a145240b8a96bc3413a126443a5b357d04d3c3eb45b"),
        (["--q", "-1.5", "--alpha0=-2pi/3", "--n-r", "1", "--n-phi", "1"],
         "77b5a5dc90c254152287f7a0e37512209693cce302846b161aada77651dc564b"),
        (["--q", "2", "--alpha0", "22.5deg", "--n-r", "16", "--n-phi", "90"],
         "627f761e767568198fb72893aa2fddd82b2c3202fd1e287e4a97c32d9846a6f6"),
        (["--q", "100", "--n-phi", "360"],
         "2edae7e8672570c21d50c1c235043a5cb4bbb38d60185ad3739eb484dce01559"),
    ], ids=["unit", "offset", "half", "one-cell", "degrees", "wide"])
    def test_csv_bytes_are_pinned(self, cli, argv, sha256):
        ran = cli(["field", *argv, "--out", "field.csv"])
        assert ran.code == 0
        assert hashlib.sha256(ran.files["field.csv"]).hexdigest() == sha256

    def test_manifest_is_pinned(self, cli):
        ran = cli(["field", "--q", "0.5", "--alpha0", "pi/4", "--n-r", "2", "--n-phi", "3",
                   "--out", "field.csv"])
        assert ran.code == 0
        manifest = json.loads(ran.files["field.manifest.json"])
        assert manifest.pop("timestamp")
        assert manifest == {
            "command": "field",
            "parameters": {"alpha0": math.pi / 4, "n_phi": 3, "n_r": 2, "out": "field.csv",
                           "q": 0.5},
            "rotationally_invariant": False,
            "symmetry_order": 1,
            "tool_version": __version__,
            "numpy_version": np.__version__,
            "python_version": "%d.%d.%d" % sys.version_info[:3],
        }


OFF_SPAN = ("source spdc\nfilter smf side=bob\nqplate q=1 side=bob\nhwp theta=0 side=bob\n"
            "herald basis=H side=alice\n")
UNFILTERED = "source spdc\nqplate q=1 side=bob\nherald basis=H\n"


class TestRunCommand:
    def test_fig2_bench_at_peak_settings(self, cli):
        ran = cli(["run", FIG2, "--chi-a", "pi/2", "--chi-b", "pi/4", "--json"])
        assert ran.code == 0
        payload = json.loads(ran.out)
        assert payload["e_exact"] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert payload["herald_probability"] == pytest.approx(0.5, abs=1e-12)
        assert payload["analyzer_m"] == 2

    def test_wider_charge_bench_same_law(self, cli):
        ran = cli(["run", "q2.bench", "--chi-a", "pi/2", "--chi-b", "pi/4", "--json"], files={
            "q2.bench": "source spdc\nfilter smf side=bob\nqplate q=2 side=bob\nherald basis=H\n"})
        assert ran.code == 0
        payload = json.loads(ran.out)
        assert payload["analyzer_m"] == 4
        assert payload["e_exact"] == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_plate_cascade_runs_at_its_reach(self, cli):
        # Eight q=1 plates with hwp(0) between each pair carry the photon to m = +-16,
        # far past the charges of one plate (m_max = 2).
        ran = run(cli, bench("cascade", cascade_text(), out=("analyzer OAM magnitude m = 16",)))
        assert "herald probability = 0.5" in ran.out

    @pytest.mark.parametrize("text,argv,warnings,expected", [
        (None, ["--shots", "10000", "--seed", "7"], 0, [
            "herald probability = 0.50000000000000022",
            "analyzer OAM magnitude m = 2",
            "p(A+B+)=0.42677669529663692 p(A+B-)=0.073223304703363093 "
            "p(A-B+)=0.073223304703363093 p(A-B-)=0.42677669529663692",
            "E(1.5707963267948966, 0.78539816339744828) = 0.70710678118654757",
            "counts (shots=10000): (4307, 762, 720, 4211)  e_est = 0.7036",
        ]),
        (cascade_text(), [], 0, [
            "herald probability = 0.50000000000000022",
            "analyzer OAM magnitude m = 16",
            "p(A+B+)=0.42677669529663692 p(A+B-)=0.073223304703363093 "
            "p(A-B+)=0.073223304703363093 p(A-B-)=0.42677669529663692",
            "E(1.5707963267948966, 0.78539816339744828) = 0.70710678118654757",
        ]),
        ("source spdc\nfilter smf side=bob\nqplate q=1 side=bob\ndove alpha=0.3 side=bob\n"
         "qwp theta=0.2 side=bob\nhwp theta=0.1 side=bob\nherald basis=H side=alice\n",
         ["--shots", "1000", "--seed", "3"], 1, [
            "herald probability = 0.50000000000000056",
            "analyzer OAM magnitude m = 2",
            "p(A+B+)=0.50620059310242871 p(A+B-)=0.42814783578288274 "
            "p(A-B+)=0.02725241233614575 p(A-B-)=0.03839915877854283",
            "E(1.5707963267948966, 0.78539816339744828) = 0.08919950376194305",
            "counts (shots=1000): (494, 439, 26, 41)  e_est = 0.070000000000000007",
        ]),
    ], ids=["fig2", "cascade", "dove-qwp-hwp"])
    def test_stdout_after_the_bench_line_is_pinned(self, cli, text, argv, warnings, expected):
        path = FIG2 if text is None else "pinned.bench"
        ran = run(cli, Case("pinned", ("run", path, *argv), files={path: text} if text else {},
                            err_lines=warnings, err_prefix=WARNING if warnings else None))
        lines = ran.out.splitlines()
        assert lines[0] == f"bench: {path}"
        assert lines[1:] == expected

    def test_manifest_records_the_truncation_and_the_bench_digest(self, cli):
        with open(FIG2, "rb") as fh:
            text = fh.read()
        manifests = []
        for data in (text, text + b"# edited\n"):
            ran = cli(["run", "fig2.bench", "--json"], files={"fig2.bench": data})
            assert ran.code == 0
            manifest = json.loads(ran.out)["manifest"]
            assert manifest["bench_sha256"] == hashlib.sha256(data).hexdigest()
            manifests.append(manifest)
        assert manifests[0]["bench_sha256"] != manifests[1]["bench_sha256"]
        assert manifests[0]["m_max"] == manifests[1]["m_max"] == 2
        assert set(manifests[0]) == {"command", "parameters", "tool_version", "numpy_version",
                                     "python_version", "timestamp", "m_max", "bench_sha256"}

    def test_counts_reported_with_shots(self, cli):
        ran = cli(["run", FIG2, "--shots", "1000", "--seed", "5", "--json"])
        assert ran.code == 0
        payload = json.loads(ran.out)
        assert sum(payload["counts"]) == 1000
        assert -1.0 <= payload["e_estimated"] <= 1.0

    def test_counts_draw_row_0_of_the_stream(self, cli):
        # The one lane rule: run --shots is row 0, lane (stream, 0), like sweep row 0.
        ran = cli(["run", FIG2, "--shots", "1000", "--seed", "5", "--stream", "2", "--json"])
        assert ran.code == 0
        payload = json.loads(ran.out)
        p = np.array(payload["probabilities"])
        want = RngSeed(5, 2).generator(0).multinomial(1000, p / p.sum())
        assert payload["counts"] == want.tolist()

    def test_malformed_bench_exits_2(self, cli):
        ran = cli(["run", "bad.bench"], files={"bad.bench": "source spdc\nqplate q=banana\n"})
        assert ran.code == 2
        assert "line 2" in ran.err and "bad-number" in ran.err

    def test_missing_file_exits_1(self, cli):
        assert cli(["run", "/nonexistent/path.bench"]).code == 1

    def test_analyzer_mismatch_exits_3(self, cli):
        # Forcing a +-1 analyzer on a +-2 state loses all the weight.
        ran = cli(["run", FIG2, "--analyzer-m", "1"])
        assert ran.code == 3
        assert "numeric contract violation" in ran.err
        # A +-4 analyzer lies outside fig2's truncation, which is its reach of 2.
        ran = cli(["run", FIG2, "--analyzer-m", "4"])
        assert (ran.code, ran.err) == (
            1, "spinorbit: error: --analyzer-m 4 exceeds the bench truncation m_max=2\n"
        )

    def test_zero_weight_herald_exits_1(self, cli):
        # A q-plate before the fiber filter moves every photon out of m = 0.
        ran = cli(["run", "dark.bench"], files={"dark.bench": (
            "source spdc\nqplate q=1 side=bob\nfilter smf side=bob\nherald basis=H side=alice\n"
        )})
        assert ran.code == 1
        assert ran.err.startswith("spinorbit: error: herald probability is 0")
        assert len(ran.err.splitlines()) == 1

    def test_roundoff_filter_bench_exits_1(self, cli):
        # Only roundoff reaches the filter's m = 0 mode, so it transmits weight 0.
        ran = cli(["run", "roundoff.bench"], files={"roundoff.bench": (
            "source spdc\nqplate q=0.5 side=bob\nqwp theta=22.5deg side=bob\n"
            "herald basis=V\nqwp theta=22.5deg side=bob\nqplate q=0.5 side=bob\n"
            "filter smf side=bob\n"
        )})
        assert ran.code == 1
        assert "herald probability is 0" in ran.err
        assert len(ran.err.splitlines()) == 1

    def test_bench_without_oam_exits_1(self, cli):
        # No q-plate: Bob stays at m = 0, so no analyzer charge can be inferred.
        flat = bench("flat", "source spdc\nfilter smf side=bob\nherald basis=H side=alice\n",
                     code=1, err_lines=1)
        run(cli, replace(flat, err=ERROR + "cannot infer the analyzer OAM magnitude; "
                                           "pass --analyzer-m\n"))
        # A bench that moves no OAM compiles at m_max = 0, so no analyzer charge fits.
        run(cli, replace(flat, argv=(*flat.argv, "--analyzer-m", "1"), err=(
            ERROR + "--analyzer-m 1 exceeds the bench truncation m_max=0\n")))

    def test_bench_without_herald_exits_2(self, cli):
        ran = cli(["run", "open.bench"],
                  files={"open.bench": "source spdc\nfilter smf side=bob\nqplate q=1 side=bob\n"})
        assert ran.code == 2
        assert ran.err == "bench has no herald stage; nothing to analyze\n"

    @pytest.mark.parametrize(
        "text,error,message",
        [
            ("source spdc\nfilter smf side=bob\n", "BenchError",
             "bench has no herald stage; nothing to analyze"),
            ("source spdc\nqplate q=banana\n", "ParseError",
             "line 2, column 10: expected a number, got 'banana' [bad-number]"),
            ("source spdc\nherald basis=H side=bob\n", "CompileError",
             "line 2: herald must act on side=alice"),
        ],
    )
    def test_cmd_run_raises_and_main_alone_prints(self, tmp_path, capsys, text, error, message):
        from spinorbit import benchdsl

        bench = tmp_path / "bad.bench"
        bench.write_text(text)
        with pytest.raises(getattr(benchdsl, error)) as exc:
            cmd_run(build_parser().parse_args(["run", str(bench)]))
        assert isinstance(exc.value, benchdsl.BenchError)
        assert str(exc.value) == message
        assert capsys.readouterr().err == ""
        assert main(["run", str(bench)]) == 2
        assert capsys.readouterr() == ("", message + "\n")

    def test_truncation_above_the_limit_exits_2(self, cli):
        ran = cli(["run", "huge.bench"], files={
            "huge.bench": "source spdc\nfilter smf side=bob\nqplate q=1e7 side=bob\nherald\n"})
        assert (ran.code, ran.out, ran.err) == (
            2, "", "line 3: truncation m_max=20000000 exceeds the limit 65536\n")

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

    def test_missing_filter_warning_is_one_stderr_line(self, cli):
        reference = run(cli, Case("fig2", ("run", FIG2))).out.splitlines()
        ran = run(cli, bench("unfiltered", UNFILTERED, err_lines=1, err=(
            "spinorbit: warning: bench has a q-plate but no mode filter; an ideal "
            "source carries no OAM, so the output is unchanged\n"
        )))
        assert ran.out.splitlines()[1:] == reference[1:]  # all but the bench path

    def test_off_span_weight_is_reported_and_warned(self, cli):
        warning = ("spinorbit: warning: weight 1 lies off the q-plate output span |L,-2>, "
                   "|R,+2>, where the optical-chain analyzer measures other probabilities\n")
        ran = run(cli, bench("offspan", OFF_SPAN, "--json", err=warning, err_lines=1,
                             json=(("", "off_span_weight", ">", 0.99),)))
        payload = json.loads(ran.out)
        assert payload["off_span_weight"] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(payload["probabilities"], [0.4268, 0.0732, 0.0732, 0.4268],
                                   atol=5e-5)
        text = cli(["run", "offspan.bench"])
        assert text.code == 0 and len(text.out.splitlines()) == 5 and text.err == warning

    @pytest.mark.parametrize("argv", [[FIG2], [FIG2, "--analyzer-m", "2", "--chi-a", "0.3"]])
    def test_on_span_runs_report_no_off_span_weight(self, argv, cli):
        ran = run(cli, Case("on-span", ("run", *argv, "--json"), err="",
                            json=(("", "manifest.m_max", "==", 2),)))
        assert abs(json.loads(ran.out)["off_span_weight"]) <= 1e-9

    def test_failure_after_the_missing_filter_lint_is_one_line(self, cli):
        ran = cli(["run", "unfiltered.bench", "--analyzer-m", "99"],
                  files={"unfiltered.bench": UNFILTERED})
        assert (ran.code, ran.err) == (
            1, "spinorbit: error: --analyzer-m 99 exceeds the bench truncation m_max=2\n"
        )

    def test_usage_error_exits_1(self, cli):
        assert cli(["chsh", "--chi-a", "not-an-angle"]).code == 1

    def test_zero_denominator_is_a_usage_error(self, cli):
        ran = cli(["chsh", "--chi-a", "pi/0"])
        assert ran.code == 1
        assert "cannot parse angle 'pi/0'" in ran.err


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
            ["field", "--q", "1", "--n-r", "0"],
            ["field", "--q", "1e308"],
            ["chsh", "--mode", "montecarlo", "--shots", str(2**63)],
            ["sweep", "--shots", str(2**63)],
            ["run", FIG2, "--shots", str(2**63)],
            ["chsh", "--mode", "montecarlo", "--shots", str(2**64)],
            ["sweep", "--shots", str(2**64)],
            ["run", FIG2, "--shots", str(2**64)],
            ["run", FIG2, "--shots", "-1"],
            ["sweep", "--stream", "-1"],
            ["run", FIG2, "--shots", "5", "--stream", "-1"],
            ["run", FIG2, "--shots", "5", "--seed", str(2**64)],
            # Checked although nothing is drawn.
            ["chsh", "--seed", "-1"],
            ["chsh", "--stream", "-1"],
            ["chsh", "--seed", str(2**64)],
            ["nchv", "--seed", "-1"],
            ["run", FIG2, "--stream", "-1"],
            ["run", FIG2, "--seed", "-1"],
        ],
    )
    def test_exit_1_with_one_line_and_no_file(self, argv, cli):
        if argv[0] in ("sweep", "field"):
            argv = argv + ["--out", "out.csv"]
        run(cli, Case("invalid", tuple(argv), code=1, err_lines=1, err_prefix=ERROR))


class TestFileErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--points", "4", "--out"],
            ["field", "--q", "1", "--out"],
            ["run"],
        ],
    )
    def test_exit_1_with_one_line_and_no_file(self, argv, cli):
        target = os.path.join("missing", "in.bench" if argv[0] == "run" else "out.csv")
        ran = run(cli, Case("missing", (*argv, target), code=1, err_lines=1, err_prefix=ERROR))
        assert target in ran.err


class TestOutputFiles:
    @pytest.mark.parametrize("argv", [["sweep", "--points", "4"], ["field", "--q", "1"]],
                             ids=["sweep", "field"])
    def test_failed_sidecar_leaves_no_csv(self, argv, tmp_path, capsys):
        (tmp_path / "s.manifest.json").mkdir()
        assert main([*argv, "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("spinorbit: error: ") and len(err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["s.manifest.json"]

    def test_unopened_files_survive_a_failed_write(self, tmp_path, capsys, monkeypatch):
        # An earlier run's sidecar stays when the rerun fails at the CSV, which it opened.
        argv = ["sweep", "--points", "4", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 0
        sidecar = (tmp_path / "s.manifest.json").read_bytes()

        def full_disk_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if str(path).endswith(".csv"):
                def no_space(*_):
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                fh.write = fh.writelines = no_space
            return fh

        monkeypatch.setattr("spinorbit.cli.open", full_disk_open, raising=False)
        assert main(argv) == 1
        assert capsys.readouterr().err.endswith("No space left on device\n")
        assert [p.name for p in tmp_path.iterdir()] == ["s.manifest.json"]
        assert (tmp_path / "s.manifest.json").read_bytes() == sidecar

    def test_another_outputs_sidecar_is_not_replaced(self, tmp_path, capsys):
        # s.csv and s.txt share the stem s, so both would write s.manifest.json.
        assert main(["sweep", "--points", "4", "--out", str(tmp_path / "s.csv")]) == 0
        sidecar = (tmp_path / "s.manifest.json").read_bytes()
        capsys.readouterr()
        assert main(["sweep", "--points", "4", "--out", str(tmp_path / "s.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("spinorbit: error: ") and len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.manifest.json"]
        assert (tmp_path / "s.manifest.json").read_bytes() == sidecar
        # A rerun into the same output replaces its own sidecar.
        assert main(["sweep", "--points", "8", "--out", str(tmp_path / "s.csv")]) == 0
        assert json.loads((tmp_path / "s.manifest.json").read_bytes())["parameters"]["points"] == 8

    def test_a_link_written_through_survives(self, tmp_path, capsys):
        target, link = tmp_path / "target.csv", tmp_path / "s.csv"
        link.symlink_to(target)
        (tmp_path / "s.manifest.json").mkdir()
        assert main(["sweep", "--points", "4", "--out", str(link)]) == 1
        assert link.is_symlink() and target.exists()


def rerun_outputs(cli, argv, out, env={}):
    """Run ``argv`` to a CSV at ``out`` or to JSON on stdout; its manifest and its output."""
    if argv[0] in ("sweep", "field"):
        ran = cli([*argv, "--out", out], env=env)
        assert ran.code == 0
        return json.loads(ran.files[out.replace(".csv", ".manifest.json")]), ran.files[out]
    ran = cli([*argv, "--json"], env=env)
    assert ran.code == 0
    payload = json.loads(ran.out)
    return payload.pop("manifest"), payload


class TestManifestRoundTrip:
    @pytest.mark.parametrize("argv", [
        ["chsh", "--chi-b=-pi/8"],
        ["chsh", "--mode", "montecarlo", "--shots", "1000", "--stream", "2"],
        ["nchv", "--chi-a-prime", "22.5deg"],
        ["sweep", "--points", "16", "--chi-b", "0.3"],
        ["sweep", "--points", "16", "--shots", "500", "--stream", "1"],
        ["field", "--q", "1.5", "--alpha0", "pi/5", "--n-r", "3", "--n-phi", "7"],
        ["run", FIG2, "--chi-a", "0.4"],
        ["run", FIG2, "--shots", "1000", "--seed", "5"],
        ["chsh", "--chi-b=-1e-05"],
        ["sweep", "--points", "4", "--chi-b=-1e-05"],
    ], ids=["chsh-exact", "chsh-montecarlo", "nchv", "sweep-exact", "sweep-sampled", "field",
            "run", "run-shots", "chsh-negative-exponent", "sweep-negative-exponent"])
    def test_the_manifest_alone_reproduces_the_output(self, argv, cli):
        # A drawn seed must be in the manifest.
        manifest, output = rerun_outputs(cli, argv, "a.csv", env={"SPINORBIT_SEED": "11"})
        params = dict(manifest["parameters"])
        rebuilt = [manifest["command"]]
        if "bench" in params:
            rebuilt.append(params.pop("bench"))
        params.pop("out", None)  # the rerun writes to a fresh path
        # One token per option: argparse takes a separate "-1e-05" for an option name.
        rebuilt += [f"--{name.replace('_', '-')}={value}" for name, value in params.items()]
        for key in ("seed", "stream"):
            if key in manifest:
                rebuilt += [f"--{key}", str(manifest[key])]
        again, output_again = rerun_outputs(cli, rebuilt, "b.csv")
        assert output_again == output
        for man in (manifest, again):
            del man["timestamp"]
            man["parameters"].pop("out", None)
        assert again == manifest


BAD_SEED = {"SPINORBIT_SEED": "abc"}


class TestSeedEnvironment:
    def test_invalid_seed_warns_once_and_falls_back_to_zero(self, cli):
        ran = cli(["sweep", "--points", "4", "--shots", "10", "--out", "sweep.csv"], env=BAD_SEED)
        assert ran.code == 0
        err = ran.err.splitlines()
        assert len(err) == 1 and "'abc'" in err[0] and "SPINORBIT_SEED" in err[0]
        assert json.loads(ran.files["sweep.manifest.json"])["seed"] == 0

    def test_valid_seed_is_silent(self, cli):
        ran = cli(["sweep", "--points", "4", "--shots", "10", "--out", "sweep.csv"],
                  env={"SPINORBIT_SEED": "11"})
        assert (ran.code, ran.err) == (0, "")
        assert json.loads(ran.files["sweep.manifest.json"])["seed"] == 11

    def test_invalid_seed_is_silent_when_unused(self, cli):
        for argv in (["field", "--q", "1", "--out", "f.csv"], ["nchv"],
                     ["sweep", "--points", "4", "--shots", "10", "--seed", "5",
                      "--out", "sweep.csv"]):
            ran = cli(argv, env=BAD_SEED)
            assert (ran.code, ran.err) == (0, "")
        assert json.loads(ran.files["sweep.manifest.json"])["seed"] == 5

    def test_exact_sweep_reads_no_seed(self, cli):
        run(cli, Case("sweep-exact-bad-seed", ("sweep", "--points", "8", "--out", "e.csv"),
                      env=BAD_SEED, err="", json=(("e.manifest.json", "seed", "absent", None),
                                                  ("e.manifest.json", "stream", "absent", None))))

    @pytest.mark.parametrize(
        "argv,message",
        [(["run", FIG2, "--shots", "-1"], "shots must be at least 1"),
         (["chsh", "--mode", "montecarlo", "--shots", "1"],
          "need at least two shots per setting"),
         (["sweep", "--shots", str(2**64), "--out", "unwritten.csv"],
          f"shots must be at most 2**63 - 1, got {2**64}")],
        ids=["run", "chsh", "sweep"],
    )
    def test_failed_draw_prints_only_its_error(self, cli, argv, message):
        run(cli, Case("failed-draw", tuple(argv), env=BAD_SEED, code=1, err_lines=1,
                      err=f"{ERROR}{message}\n"))

    def test_warning_follows_the_output(self, monkeypatch):
        monkeypatch.setenv("SPINORBIT_SEED", "abc")
        both = io.StringIO()
        monkeypatch.setattr(sys, "stdout", both)
        monkeypatch.setattr(sys, "stderr", both)
        assert main(["chsh", "--mode", "montecarlo", "--shots", "100"]) == 0
        self.assert_the_warning_is_last(both.getvalue())

    @pytest.mark.skipif(CONSOLE is None, reason=NO_CONSOLE)
    def test_warning_follows_the_output_of_the_installed_script(self, tmp_path):
        # Both streams into one pipe: the script's buffered stdout must reach it first.
        proc = subprocess.run([CONSOLE, "chsh", "--mode", "montecarlo", "--shots", "100"],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              env=console_env(BAD_SEED), cwd=tmp_path, timeout=60)
        assert proc.returncode == 0
        self.assert_the_warning_is_last(proc.stdout)

    @staticmethod
    def assert_the_warning_is_last(text):
        lines = text.splitlines()
        assert lines[0].startswith("shots per setting: 100")
        assert lines[-1] == ("spinorbit: warning: ignoring $SPINORBIT_SEED='abc' "
                             "(not an integer); using seed 0")
        assert sum(line.startswith("spinorbit: ") for line in lines) == 1

    @pytest.mark.parametrize(
        "argv,message",
        [(["chsh", "--stream", "-1"], "stream index must be non-negative"),
         (["run", FIG2, "--seed", "-1"], "seed must fit in an unsigned 64-bit integer"),
         (["nchv", "--seed", str(2**64)], "seed must fit in an unsigned 64-bit integer")],
        ids=["chsh", "run", "nchv"],
    )
    def test_explicit_values_are_checked_without_the_environment(self, cli, argv, message):
        ran = cli(argv, env=BAD_SEED)
        assert (ran.code, ran.err) == (1, f"{ERROR}{message}\n")


class TestContract:
    """The CLI cases with no named test, and the checker they all share."""

    @pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
    def test_case(self, case, cli):
        run(cli, case)

    def test_check_refuses_a_stale_row(self, cli):
        good = bench("offspan", OFF_SPAN, "--json", out=('  "analyzer_m": 2,',), err_lines=1,
                     err_prefix=WARNING, json=(("", "manifest.m_max", "==", 2),
                                               ("", "off_span_weight", ">", 0.99)))
        ran = run(cli, good)
        stale = [replace(good, code=1), replace(good, out=('  "analyzer_m": 4,',)),
                 replace(good, err_lines=2), replace(good, err_prefix=ERROR),
                 replace(good, err=""), replace(good, json=(("", "manifest.m_max", "==", 3),)),
                 replace(good, json=(("", "off_span_weight", ">", 1.0),)),
                 replace(good, json=(("", "manifest.m_max", "absent", None),))]
        for case in stale:
            with pytest.raises(AssertionError):
                check(case, ran)
        with pytest.raises(AssertionError):  # a failed command must leave no file
            check(replace(good, code=1), ran._replace(code=1, files={**ran.files, "s.csv": b""}))


class TestColdStart:
    def test_import_loads_neither_benchdsl_nor_numpy_random(self):
        code = ("import sys, spinorbit.cli; "
                "print([m for m in ('spinorbit.benchdsl', 'numpy.random') if m in sys.modules])")
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_commands_without_a_bench_never_load_benchdsl(self, tmp_path):
        argvs = [["chsh"], ["chsh", "--seed", "-1"], ["nchv"],
                 ["sweep", "--points", "4", "--out", str(tmp_path / "s.csv")],
                 ["field", "--q", "2", "--n-r", "2", "--n-phi", "4",
                  "--out", str(tmp_path / "f.csv")]]
        code = ("import sys; from spinorbit.cli import main; "
                f"codes = [main(argv) for argv in {argvs!r}]; "
                "print(codes, 'spinorbit.benchdsl' in sys.modules, file=sys.stderr)")
        proc = fresh_python("-c", code)
        assert proc.stderr.splitlines()[-1] == "[0, 1, 0, 0, 0] False"

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

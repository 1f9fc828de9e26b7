"""CLI artifacts: formats, exit codes, determinism, round-trips."""

import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from drpkit import cli
from drpkit.cli import main
from drpkit.modeq import SchemeParams, advection_coefficient
from drpkit.stencil import optimize_coefficients

PI = math.pi
CLI_OPTIONS = Path(__file__).resolve().parents[1] / "benchmarks" / "cli_options.txt"


def run_cli(args, cwd):
    old = Path.cwd()
    os.chdir(cwd)
    try:
        return main(args)
    finally:
        os.chdir(old)


def load_schema(name):
    text = resources.files("drpkit").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


class TestCoeffs:
    def test_stdout_and_json(self, tmp_path, capsys):
        code = run_cli(["coeffs", "--m", "1", "--json", "c.json"], tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert repr(2.0 / PI) in out
        payload = json.loads((tmp_path / "c.json").read_text())
        assert set(payload) >= {"m", "gamma", "E"}
        assert payload["m"] == 1
        assert payload["gamma"][0] == 2.0 / PI
        assert payload["E"] == pytest.approx(PI**3 / 12.0 - 8.0 / PI, abs=1e-12)

    def test_invalid_half_width_exit_2(self, tmp_path):
        assert run_cli(["coeffs", "--m", "0"], tmp_path) == 2
        assert run_cli(["coeffs", "--m", "99"], tmp_path) == 2

    def test_json_round_trip_bit_exact(self, tmp_path):
        run_cli(["coeffs", "--m", "3", "--json", "c.json"], tmp_path)
        payload = json.loads((tmp_path / "c.json").read_text())
        from drpkit import integrated_error, optimize_coefficients

        coeffs = optimize_coefficients(3)
        assert payload["gamma"] == list(coeffs.gamma)
        assert payload["E"] == integrated_error(coeffs)


class TestDispersion:
    def test_csv_rows(self, tmp_path):
        run_cli(["dispersion", "--m", "1", "--samples", "101", "--csv", "d.csv"], tmp_path)
        lines = (tmp_path / "d.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "zeta,lambda_bar_h,error"
        first = lines[2].split(",")
        assert float(first[0]) == -PI / 2
        mid = lines[2 + 50].split(",")
        assert float(mid[0]) == 0.0 and float(mid[1]) == 0.0
        last = lines[-1].split(",")
        assert float(last[0]) == PI / 2
        assert float(last[1]) == pytest.approx(4.0 / PI, abs=1e-15)

    def test_csv_floats_round_trip(self, tmp_path):
        run_cli(["dispersion", "--m", "2", "--samples", "21", "--csv", "d.csv"], tmp_path)
        from drpkit import dispersion_samples, optimize_coefficients

        table = dispersion_samples(optimize_coefficients(2), 21)
        lines = (tmp_path / "d.csv").read_text().splitlines()[2:]
        for line, row in zip(lines, zip(*table)):
            z, lam, err = (float(x) for x in line.split(","))
            assert (z, lam, err) == row


class TestModified:
    def test_tables_match_library(self, tmp_path, capsys):
        code = run_cli(
            ["modified", "--m", "1", "--sigma", "1", "--mu", "1", "--re-h", "1",
             "--json", "m.json"],
            tmp_path,
        )
        assert code == 0
        payload = json.loads((tmp_path / "m.json").read_text())
        nondim = {(t["t_order"], t["x_order"]): t["coefficient"]
                  for t in payload["nondimensional"]["terms"]}
        assert nondim[(1, 0)] == -1.0
        assert nondim[(2, 0)] == -0.5
        assert nondim[(0, 1)] == pytest.approx(4.0 / PI, rel=1e-14)
        out = capsys.readouterr().out
        assert "dimensional" in out and "nondimensional" in out

    def test_higher_truncation_keeps_nondim_reference(self, tmp_path):
        run_cli(
            ["modified", "--m", "2", "--q", "5", "--json", "m.json"], tmp_path
        )
        payload = json.loads((tmp_path / "m.json").read_text())
        assert payload["dimensional"]["truncation"] == [2, 5]
        assert payload["nondimensional"]["truncation"] == [2, 1]


class TestSoliton:
    def test_default_reproduces_reference_values(self, tmp_path):
        run_cli(["soliton", "--verify", "--json", "s.json"], tmp_path)
        payload = json.loads((tmp_path / "s.json").read_text())
        sol = payload["solution"]
        assert sol["v"] == pytest.approx(4.0 / PI, abs=1e-12)
        assert sol["U1"] == pytest.approx(-(PI**2) / 32.0, abs=1e-12)
        assert payload["condensed_system"]["ok"] is True
        assert payload["derived_system"]["max_abs"] == pytest.approx(1.0, abs=1e-10)
        assert payload["ode_residual"]["limit"] == -1.0
        mid = len(payload["ode_residual"]["r"]) // 2
        assert payload["ode_residual"]["r"][mid] == pytest.approx(-0.75, abs=1e-10)
        assert "branches" in payload

    def test_zero_constant(self, tmp_path):
        run_cli(["soliton", "--C", "0", "--json", "s.json"], tmp_path)
        payload = json.loads((tmp_path / "s.json").read_text())
        assert payload["solution"]["U1"] == 0.0

    def test_without_verify_no_residual_blocks(self, tmp_path):
        run_cli(["soliton", "--json", "s.json"], tmp_path)
        payload = json.loads((tmp_path / "s.json").read_text())
        assert "condensed_system" not in payload

    def test_zero_c1_rejected(self, tmp_path):
        assert run_cli(["soliton", "--C1", "0"], tmp_path) == 2

    @pytest.mark.parametrize(
        "options", [["--sigma", "0.1", "--re-h", "3"], ["--h", "0.37", "--sigma", "0.1"]]
    )
    def test_one_advection_coefficient_per_record(self, tmp_path, options):
        # the table's u_x coefficient is the kink speed, so every derived
        # branch that names v prints the solution's v, and a0 = A - v is
        # exactly zero, which leaves the ODE residual even in xi
        assert run_cli(["soliton", *options, "--verify", "--json", "s.json"], tmp_path) == 0
        payload = json.loads((tmp_path / "s.json").read_text())
        v = payload["solution"]["v"]
        for branch in payload["branches"]["derived"]:
            text = json.dumps(branch)
            if not re.search(r"\bv\b", text):
                continue
            numbers = re.findall(r"\d[\d.]*(?:e[-+]?\d+)?", text)
            near_v = {n for n in numbers if math.isclose(float(n), v, rel_tol=1e-9)}
            assert near_v == {repr(v)}, text
        r = payload["ode_residual"]["r"]
        assert r == r[::-1]


class TestSimulate:
    def test_constant_init_snapshots_identical(self, tmp_path):
        code = run_cli(
            ["simulate", "--init", "constant", "--value", "2.5", "--N", "32",
             "--steps", "10", "--snap-every", "5", "--outdir", "out"],
            tmp_path,
        )
        assert code == 0
        snaps = sorted((tmp_path / "out").glob("snapshot_*.csv"))
        assert len(snaps) == 3
        bodies = [s.read_text().splitlines()[1:] for s in snaps]
        assert bodies[0] == bodies[1] == bodies[2]

    def test_snapshot_header_format(self, tmp_path):
        run_cli(
            ["simulate", "--init", "constant", "--N", "16", "--steps", "2",
             "--snap-every", "2", "--outdir", "out", "--h", "0.5"],
            tmp_path,
        )
        first = (tmp_path / "out" / "snapshot_000000.csv").read_text().splitlines()
        assert first[0] == "# t=0.0 N=16 h=0.5"
        index, x, u = first[1].split(",")
        assert index == "0" and float(x) == 0.0

    def test_measurement_schema_and_keys(self, tmp_path):
        run_cli(
            ["simulate", "--init", "kink", "--N", "128", "--steps", "40",
             "--snap-every", "10", "--outdir", "out"],
            tmp_path,
        )
        payload = json.loads((tmp_path / "out" / "measurements.json").read_text())
        jsonschema.validate(payload, load_schema("simulate.schema.json"))
        assert payload["predicted_v"] is not None
        assert payload["measured_v"] is not None
        assert payload["shape_error_series"]
        assert payload["shape_error_series"][0]["error"] <= 1e-9
        assert len(payload["norm_series"]) == 5

    @pytest.mark.parametrize("init, option", [("random", "--seed"), ("mode", "--mode-p")])
    def test_integer_beyond_64_bits_is_echoed(self, tmp_path, init, option):
        big = 2**64
        code = run_cli(
            ["simulate", "--init", init, option, str(big), "--N", "16", "--steps", "2",
             "--snap-every", "2", "--outdir", "out"],
            tmp_path,
        )
        assert code == 0
        text = (tmp_path / "out" / "measurements.json").read_text()
        payload = json.loads(text)
        assert big in payload["config"].values()
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_oracle_matches_stepping(self, tmp_path):
        common = ["simulate", "--init", "gaussian", "--N", "64", "--steps", "30",
                  "--snap-every", "10", "--width", "8"]
        run_cli(common + ["--outdir", "a"], tmp_path)
        run_cli(common + ["--outdir", "b", "--oracle"], tmp_path)
        for name in ("snapshot_000030.csv",):
            rows_a = (tmp_path / "a" / name).read_text().splitlines()[1:]
            rows_b = (tmp_path / "b" / name).read_text().splitlines()[1:]
            for ra, rb in zip(rows_a, rows_b):
                ua, ub = float(ra.split(",")[2]), float(rb.split(",")[2])
                assert abs(ua - ub) <= 1e-10

    def test_blow_up_exit_3(self, tmp_path):
        # sigma = 1.5 with random data trips the norm guard quickly
        code = run_cli(
            ["simulate", "--init", "random", "--N", "64", "--sigma", "1.5",
             "--steps", "400", "--snap-every", "10", "--outdir", "out"],
            tmp_path,
        )
        assert code == 3


class TestReport:
    def test_schema_and_contents(self, tmp_path):
        code = run_cli(["report", "--json", "r.json"], tmp_path)
        assert code == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        jsonschema.validate(payload, load_schema("report.schema.json"))
        assert payload["soliton"]["solution"]["v"] == pytest.approx(4.0 / PI, abs=1e-12)
        assert max(abs(r) for r in payload["soliton"]["condensed_residuals"]) <= 1e-10
        assert payload["soliton"]["derived_residuals"] == pytest.approx(
            [-1.0, 0.0, -1.0, 0.0, -1.0], abs=1e-10
        )
        assert "no nontrivial branch" in payload["soliton"]["branch_summary"]["derived"]

    def test_no_sim_flag(self, tmp_path):
        run_cli(["report", "--no-sim", "--json", "r.json"], tmp_path)
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["simulation"] is None
        jsonschema.validate(payload, load_schema("report.schema.json"))


COEFFS = ("coeffs", "--json", "c.json")
SIMULATE = ("simulate", "--N", "64", "--steps", "10")


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[drpkit]\nm = 2\nsigma = 0.5\n")
        run_cli(["coeffs", "--config", str(cfg), "--json", "c.json"], tmp_path)
        assert json.loads((tmp_path / "c.json").read_text())["m"] == 2
        run_cli(["coeffs", "--config", str(cfg), "--m", "3", "--json", "c.json"], tmp_path)
        assert json.loads((tmp_path / "c.json").read_text())["m"] == 3

    def test_missing_file_exit_2(self, tmp_path):
        assert run_cli(["coeffs", "--config", "nope.ini"], tmp_path) == 2

    def test_keys_keep_their_case(self, tmp_path):
        # C is the kink's integration constant, c the advection constant
        cfg = tmp_path / "run.ini"
        cfg.write_text("[drpkit]\nN = 64\nC = 2.0\nC1 = 0.5\nV0 = 0.3\n")
        code = run_cli(["simulate", "--config", str(cfg), "--steps", "10", "--snap-every", "10",
                        "--outdir", "out"], tmp_path)
        assert code == 0
        config = json.loads((tmp_path / "out" / "measurements.json").read_text())["config"]
        assert (config["N"], config["C"], config["C1"], config["V0"]) == (64, 2.0, 0.5, 0.3)
        assert config["c"] == 1.0

    def test_every_value_option_reads_from_the_file(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[drpkit]\nxi_max = 2\nxi_samples = 3\n")
        run_cli(["soliton", "--config", str(cfg), "--verify", "--json", "s.json"], tmp_path)
        payload = json.loads((tmp_path / "s.json").read_text())
        assert payload["ode_residual"]["xi"] == [-2.0, 0.0, 2.0]

    def test_flag_beats_file(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[drpkit]\nC1 = 0.5\nxi_samples = 3\n")
        run_cli(["soliton", "--config", str(cfg), "--C1", "0.7", "--xi-samples", "5",
                 "--verify", "--json", "s.json"], tmp_path)
        payload = json.loads((tmp_path / "s.json").read_text())
        assert payload["config"]["C1"] == 0.7
        assert len(payload["ode_residual"]["xi"]) == 5

    @pytest.mark.parametrize(
        "command, text, message",
        [
            (COEFFS, "[drpkit]\nsigam = 0.5\n", "no option is named 'sigam'"),
            (SIMULATE, "[drpkit]\nsigam = 0.5\n", "no option is named 'sigam'"),
            (COEFFS, "[drpkit]\njson = c.json\n", "no option is named 'json'"),
            (COEFFS, "m = 2\n", "File contains no section headers."),
            (COEFFS, "[drpkit]\nm = 2\nm = 3\n", "option 'm' in section 'drpkit' already exists"),
            (COEFFS, "[drpkit]\nm = 2.5\n", "config key 'm': cannot parse '2.5'"),
            (SIMULATE, "[drpkit]\ninit = wave\n", "config key 'init': 'wave' is not one of kink,"),
        ],
    )
    def test_bad_file_exit_2_and_writes_nothing(self, tmp_path, capsys, command, text, message):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        assert run_cli([*command, "--config", str(cfg)], tmp_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0], err
        assert [path.name for path in tmp_path.iterdir()] == ["run.ini"]

    @pytest.mark.parametrize(
        "command, shown",
        [("simulate", "--C1 C1 inverse kink width (default 0.25)"),
         ("report", "--N N grid nodes (default 128)"),
         ("soliton", "--C1 C1 inverse kink width (default 1.0)")],
    )
    def test_help_shows_the_command_defaults(self, capsys, command, shown):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        assert shown in " ".join(capsys.readouterr().out.split())

    def test_inconsistent_dynamics_exit_2(self, tmp_path):
        code = run_cli(
            ["modified", "--sigma", "0.5", "--tau", "0.9", "--h", "1.0"], tmp_path
        )
        assert code == 2

    def test_consistent_dynamics_accepted(self, tmp_path):
        code = run_cli(
            ["modified", "--sigma", "0.5", "--tau", "0.5", "--h", "1.0",
             "--json", "m.json"],
            tmp_path,
        )
        assert code == 0

    def test_output_dir_env(self, tmp_path, monkeypatch):
        target = tmp_path / "artifacts"
        monkeypatch.setenv("DRPKIT_OUTPUT_DIR", str(target))
        run_cli(["coeffs", "--m", "1", "--json", "c.json"], tmp_path)
        assert (target / "c.json").exists()


def run_in_fresh_dir(args, workdir, capsys):
    """Exit code, stdout, stderr and artifact digests of one in-process call."""
    workdir.mkdir()
    code = run_cli(args, workdir)
    out, err = capsys.readouterr()
    digests = {
        path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.rglob("*")) if path.is_file()
    }
    return code, out.replace(str(workdir), "<dir>"), err, digests


class TestSharedParser:
    """One parser serves every ``main`` call of a process, whatever came before."""

    def test_every_option_gives_the_same_result_in_either_order(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("DRPKIT_OUTPUT_DIR", raising=False)
        lines = (line.strip() for line in CLI_OPTIONS.read_text().splitlines())
        commands = [shlex.split(line) for line in lines if line and not line.startswith("#")]
        forward = [
            run_in_fresh_dir(args, tmp_path / f"forward-{i}", capsys)
            for i, args in enumerate(commands)
        ]
        backward = [
            run_in_fresh_dir(args, tmp_path / f"backward-{i}", capsys)
            for i, args in reversed(list(enumerate(commands)))
        ]
        assert all(result[0] == 0 for result in forward)
        for args, first, second in zip(commands, forward, reversed(backward)):
            assert first == second, args

    def test_a_parse_error_leaves_the_next_call_alone(self, tmp_path, capsys):
        assert run_cli(["coeffs", "--m", "3"], tmp_path) == 0
        good = capsys.readouterr()
        with pytest.raises(SystemExit) as stop:
            run_cli(["coeffs", "--m", "x"], tmp_path)
        assert stop.value.code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err
        assert run_cli(["coeffs", "--m", "3"], tmp_path) == 0
        assert capsys.readouterr() == good

    def test_version_after_a_command(self, tmp_path, capsys):
        assert run_cli(["coeffs"], tmp_path) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as stop:
            main(["--version"])
        assert stop.value.code == 0
        assert capsys.readouterr().out == f"drpkit {cli.__version__}\n"

    def test_two_calls_build_one_parser(self, tmp_path, capsys):
        cli.build_parser.cache_clear()
        assert run_cli(["coeffs"], tmp_path) == 0
        assert run_cli(["dispersion", "--samples", "3"], tmp_path) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def test_import_builds_no_parser_and_loads_no_unused_module(child_env):
    # numpy.polynomial is what the stencil's quadrature rule once came from,
    # and configparser serves --config only
    code = (
        "import sys, drpkit.cli; "
        "print(sorted({'numpy.polynomial', 'configparser'} & set(sys.modules)), "
        "drpkit.cli.build_parser.cache_info().misses)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 0\n"


class TestRoundTrip:
    def test_json_artifacts_are_serialization_fixed_points(self, tmp_path):
        # reloading and re-serializing any JSON artifact must reproduce it
        # byte for byte, which pins bit-exact float round-trips
        run_cli(["coeffs", "--m", "3", "--json", "c.json"], tmp_path)
        run_cli(["soliton", "--verify", "--json", "s.json"], tmp_path)
        run_cli(["report", "--no-sim", "--json", "r.json"], tmp_path)
        run_cli(
            ["simulate", "--init", "kink", "--N", "64", "--steps", "10",
             "--snap-every", "5", "--outdir", "sim"],
            tmp_path,
        )
        artifacts = ["c.json", "s.json", "r.json", "sim/measurements.json"]
        for name in artifacts:
            text = (tmp_path / name).read_text()
            rendered = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
            assert rendered == text, name


class TestHorizonWarning:
    def test_kink_run_past_front_interaction_budget_warns(self, tmp_path, capsys):
        code = run_cli(
            ["simulate", "--init", "kink", "--N", "64", "--sigma", "0.2",
             "--steps", "350", "--snap-every", "350", "--outdir", "out"],
            tmp_path,
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "horizon" in err

    def test_short_run_does_not_warn(self, tmp_path, capsys):
        run_cli(
            ["simulate", "--init", "kink", "--N", "64", "--sigma", "0.2",
             "--steps", "20", "--snap-every", "20", "--outdir", "out"],
            tmp_path,
        )
        assert "horizon" not in capsys.readouterr().err


class TestModeInit:
    def test_mode_init_predicts_phase_speed(self, tmp_path):
        run_cli(
            ["simulate", "--init", "mode", "--mode-p", "2", "--N", "64",
             "--sigma", "0.1", "--steps", "40", "--snap-every", "10",
             "--level", "0.0", "--outdir", "out"],
            tmp_path,
        )
        payload = json.loads((tmp_path / "out" / "measurements.json").read_text())
        from drpkit.modeq import SchemeParams, discrete_symbol
        from drpkit.stencil import optimize_coefficients

        params = SchemeParams.from_cfl(sigma=0.1, mu=1.0, re_h=1.0)
        zeta = 2.0 * math.pi * 2 / 64
        g = discrete_symbol(optimize_coefficients(1), params, zeta)
        import numpy as np

        predicted = -float(np.angle(g)) / (params.tau * zeta)
        assert payload["predicted_v"] == pytest.approx(predicted, rel=1e-12)
        # a pure sinusoid moves at its own phase speed; the measured value
        # carries only the linear-interpolation wobble of the crossing
        assert payload["measured_v"] == pytest.approx(predicted, rel=1e-3)


def test_child_process_imports_same_drpkit(tmp_path, child_env):
    # the byte-identity checks below are only meaningful if the child runs
    # this checkout's drpkit, not another copy found from its working dir
    import drpkit

    proc = subprocess.run(
        [sys.executable, "-c", "import drpkit; print(drpkit.__file__)"],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(drpkit.__file__).resolve()


# (command, exit code, a text of its one stderr line or None for no line)
EXIT_CASES = [
    (["report", "--N", "5", "--m", "3"], 2, "too small for half-width 3"),
    (["simulate", "--init", "gaussian", "--width", "0"], 2, "width must be"),
    (["soliton", "--C1", "1e-320", "--verify"], 2, "C1 must be finite"),
    (["soliton", "--C", "1e308", "--C1", "1e-300", "--json", "f.json"], 3, "non-finite"),
    (["soliton", "--sigma", "1e300", "--verify"], 3, "numerical failure"),
    (["simulate", "--N", "64", "--sigma", "5", "--steps", "1000",
      "--snap-every", "1000"], 3, "by step 8"),
    (["simulate", "--N", "64", "--sigma", "5", "--steps", "1000",
      "--snap-every", "1"], 3, "by step 8"),
    (["simulate", "--C1", "0.3"], 0, "drpkit: warning: kink width"),
    (["simulate", "--C", "0", "--N", "64", "--steps", "10"], 2, "kink is constant"),
    (["simulate", "--sigma", "1e300", "--N", "64", "--steps", "10"], 2,
     "kink is constant"),
    (["report", "--m", "3", "--C", "0"], 2, "kink is constant"),
    (["report", "--snap-every", "0"], 2, "snap_every must be positive"),
    (["soliton", "--C", "1e300", "--C1", "1e-10", "--verify"], 3, "non-finite"),
    (["soliton", "--C", "1e308", "--C1", "1e-300"], 3, "non-finite"),
    (["simulate", "--init", "gaussian", "--oracle", "--N", "64", "--sigma", "5",
      "--steps", "1000", "--snap-every", "1000"], 3, "by step 8"),
    (["modified", "--sigma", "1e200", "--p", "6", "--q", "12"], 3,
     "tau**2 overflows a float at tau = 1e+200 (tau = sigma h / c, set by --sigma"),
    (["soliton", "--sigma", "1e200", "--verify"], 3,
     "v**2 overflows a float at v = 1.2732395447351627e+200 (v is the kink speed, "
     "set by --sigma"),
    (["report", "--tau", "1e-320", "--C1", "1e300", "--steps", "10", "--N", "64"], 2,
     "denominator 2 C1 v^2 sigma underflows to zero"),
    (["soliton", "--sigma", "1.7976931348623157e308", "--C1", "1e8"], 3,
     "a0 = A - v is NaN at A = inf, v = inf"),
    (["report", "--sigma", "1.7976931348623157e308", "--C1", "1e8", "--N", "64"], 3,
     "a0 = A - v is NaN at A = inf, v = inf"),
    (["modified", "--sigma", "1.7976931348623157e308", "--m", "3"], 3,
     "u_x coefficient is inf"),
    (["soliton", "--C", "-1e-3"], 0, None),
    (["coeffs", "--m", "x"], 2, "configuration error: argument --m: invalid int value"),
    (["modified", "--mu", "1e-200", "--re-h", "1e-200"], 2,
     "configuration error: U0 = re_h mu / h underflows to zero"),
    (["simulate", "--mu", "1e-200", "--re-h", "1e-200", "--N", "64", "--steps", "10"], 2,
     "configuration error: U0 = re_h mu / h underflows to zero"),
    (["modified", "--h", "1e-300", "--q", "3"], 2,
     "configuration error: tau0 = h / U0 underflows to zero at h = 1e-300, "
     "U0 = 9.999999999999999e+299"),
    (["simulate", "--C", "-inf", "--N", "64", "--steps", "10"], 2,
     "configuration error: C must be finite, got -inf"),
    (["report", "--C", "-inf", "--steps", "10", "--N", "64"], 2,
     "configuration error: C must be finite, got -inf"),
    (["soliton", "--xi-max", "inf", "--verify"], 2,
     "configuration error: xi_max must be finite, got inf"),
    (["soliton", "--xi-samples", "-3", "--verify"], 2,
     "configuration error: xi_samples must be nonnegative, got -3"),
    (["soliton", "--V0", "inf", "--verify"], 2,
     "configuration error: V0 must be finite, got inf"),
    (["simulate", "--V0", "nan", "--N", "64", "--steps", "10"], 2,
     "configuration error: V0 must be finite, got nan"),
    (["report", "--V0", "inf", "--N", "64", "--steps", "10"], 2,
     "configuration error: V0 must be finite, got inf"),
    (["simulate", "--level", "nan", "--N", "64", "--steps", "10"], 2,
     "configuration error: level must be finite, got nan"),
    (["simulate", "--init", "constant", "--value", "inf", "--N", "64", "--steps", "10"], 2,
     "configuration error: value must be finite, got inf"),
    (["simulate", "--init", "gaussian", "--amplitude", "inf", "--N", "64",
      "--steps", "10"], 2, "configuration error: amplitude must be finite, got inf"),
    (["simulate", "--init", "gaussian", "--center", "nan", "--N", "64", "--steps", "10"],
     2, "configuration error: center must be finite, got nan"),
    (["simulate", "--init", "random", "--amplitude", "inf", "--N", "64", "--steps", "10"],
     2, "configuration error: amplitude must be finite, got inf"),
    (["simulate", "--init", "gaussian", "--amplitude", "1e300", "--N", "64",
      "--steps", "10"], 3, "L2 norm of the initial field overflows"),
    (["simulate", "--init", "mode", "--amplitude", "1e200", "--N", "64", "--steps", "20"],
     3, "L2 norm of the initial field overflows"),
    (["simulate", "--C", "1e150", "--C1", "0.3", "--N", "64", "--steps", "10"], 3,
     "cross-correlation of the snapshot at t=0.0 with the kink template overflows"),
    (["simulate", "--init", "random", "--seed", "-1", "--N", "64", "--steps", "10"], 2,
     "configuration error: seed must be nonnegative, got -1"),
    (["dispersion", "--samples", "100000000000000"], 2,
     "configuration error: samples must be at most 16777216, got 100000000000000"),
    (["report", "--samples", "100000000000000", "--no-sim"], 2,
     "configuration error: samples must be at most 16777216, got 100000000000000"),
    (["soliton", "--xi-samples", "100000000000000", "--verify"], 2,
     "configuration error: xi_samples must be at most 16777216, got 100000000000000"),
    (["simulate", "--N", "100000000000000", "--steps", "10"], 2,
     "configuration error: N must be at most 16777216, got 100000000000000"),
    (["report", "--samples", "1", "--no-sim"], 2,
     "configuration error: samples must be at least 2, got 1"),
    (["report", "--sigma", "5e-324", "--no-sim"], 2,
     "configuration error: the u_t_t coefficient underflows to zero at tau = 5e-324 "
     "(tau = sigma h / c, set by --sigma or --tau, --h and --c)"),
    (["report", "--tau", "5e-324", "--no-sim"], 2,
     "configuration error: the u_t_t coefficient underflows to zero at tau = 5e-324 "
     "(tau = sigma h / c, set by --sigma or --tau, --h and --c)"),
    (["modified", "--sigma", "5e-324", "--c", "5e-324"], 2,
     "configuration error: the nondimensional u_t_t coefficient underflows to zero at "
     "sigma = 5e-324 (tau = sigma h / c, set by --sigma or --tau, --h and --c)"),
    (["modified", "--sigma", "1e300", "--mu", "1e-10"], 3,
     "nondimensional u_x coefficient is inf"),
    (["modified", "--sigma", "1e300", "--re-h", "1e-10", "--json", "f.json"], 3,
     "nondimensional u_x coefficient is inf"),
    (["simulate", "--c", "1e300", "--N", "64", "--steps", "20"], 0, None),
    (["modified", "--sigma", "1e-300", "--p", "4", "--q", "5"], 2,
     "configuration error: the u_t_t_t coefficient underflows to zero at tau = 1e-300 "
     "(tau = sigma h / c, set by --sigma or --tau, --h and --c)"),
    (["modified", "--sigma", "1e-300", "--tau", "2e-300"], 2,
     "configuration error: inconsistent dynamics: sigma=1e-300 but c*tau/h=2e-300"),
    (["soliton", "--tau", "5e-324", "--h", "1e-150", "--mu", "1e-170"], 0, None),
    (["modified", "--h", "1e-30", "--q", "12"], 2,
     "configuration error: the u_x_x_x_x_x_x_x_x_x_x_x coefficient underflows to zero "
     "at h = 1e-30 (set by --h)"),
]

# failing commands that must print nothing on stdout and write no file
WRITES_NOTHING = [
    ["simulate", "--C", "0", "--N", "64", "--steps", "10"],
    ["simulate", "--sigma", "1e300", "--N", "64", "--steps", "10"],
    ["report", "--m", "3", "--C", "0"],
    ["soliton", "--C", "1e300", "--C1", "1e-10", "--verify"],
    ["soliton", "--C", "1e308", "--C1", "1e-300"],
    ["soliton", "--C", "1e308", "--C1", "1e-300", "--json", "f.json"],
    ["modified", "--sigma", "1.7976931348623157e308", "--m", "3"],
    ["coeffs", "--m", "x"],
    ["modified", "--mu", "1e-200", "--re-h", "1e-200"],
    ["simulate", "--mu", "1e-200", "--re-h", "1e-200", "--N", "64", "--steps", "10"],
    ["modified", "--h", "1e-300", "--q", "3"],
    ["simulate", "--C", "-inf", "--N", "64", "--steps", "10"],
    ["report", "--C", "-inf", "--steps", "10", "--N", "64"],
    ["soliton", "--xi-max", "inf", "--verify"],
    ["soliton", "--xi-samples", "-3", "--verify"],
    ["soliton", "--V0", "inf", "--verify"],
    ["simulate", "--V0", "nan", "--N", "64", "--steps", "10"],
    ["report", "--V0", "inf", "--N", "64", "--steps", "10"],
    ["simulate", "--level", "nan", "--N", "64", "--steps", "10"],
    ["simulate", "--init", "constant", "--value", "inf", "--N", "64", "--steps", "10"],
    ["simulate", "--init", "gaussian", "--amplitude", "inf", "--N", "64", "--steps", "10"],
    ["simulate", "--init", "gaussian", "--center", "nan", "--N", "64", "--steps", "10"],
    ["simulate", "--init", "random", "--amplitude", "inf", "--N", "64", "--steps", "10"],
    ["simulate", "--init", "gaussian", "--amplitude", "1e300", "--N", "64",
     "--steps", "10"],
    ["simulate", "--init", "mode", "--amplitude", "1e200", "--N", "64", "--steps", "20"],
    ["simulate", "--C", "1e150", "--C1", "0.2", "--N", "64", "--steps", "10"],
    ["simulate", "--init", "random", "--seed", "-1", "--N", "64", "--steps", "10"],
    ["dispersion", "--samples", "100000000000000"],
    ["report", "--samples", "100000000000000", "--no-sim"],
    ["soliton", "--xi-samples", "100000000000000", "--verify"],
    ["simulate", "--N", "100000000000000", "--steps", "10"],
    ["report", "--samples", "1", "--no-sim"],
    ["report", "--sigma", "5e-324", "--no-sim"],
    ["report", "--tau", "5e-324", "--no-sim"],
    ["modified", "--sigma", "5e-324", "--c", "5e-324"],
    ["modified", "--sigma", "1e300", "--mu", "1e-10"],
    ["modified", "--sigma", "1e300", "--re-h", "1e-10", "--json", "f.json"],
    ["modified", "--sigma", "1e-300", "--p", "4", "--q", "5"],
    ["modified", "--sigma", "1e-300", "--tau", "2e-300"],
    ["modified", "--h", "1e-30", "--q", "12"],
]

# the exit path of a whole process, run as a child: one case each for exit 0,
# 2 and 3, and argparse's own exit
PROCESS_CASES = [
    (["soliton", "--C", "-1e-3"], 0, None),
    (["report", "--N", "5", "--m", "3"], 2, "too small for half-width 3"),
    (["soliton", "--sigma", "1e300", "--verify"], 3, "numerical failure"),
    (["coeffs", "--m", "x"], 2, "configuration error: argument --m: invalid int value"),
]


class TestFailureContract:
    """Bad input exits 2 and numerical failure 3, with no artifact written.

    Every message, warnings included, is one ``drpkit:`` line on stderr:
    no traceback, no source location, no NumPy RuntimeWarning.  The cases
    run ``cli.main`` in-process, with what native code writes to the file
    descriptors captured as a child's stderr; ``PROCESS_CASES`` run a child
    interpreter, for the exit path of the process itself.
    """

    @staticmethod
    def check_exit(tmp_path, run, code, message):
        got, out, err = run
        assert got == code, err
        assert "Traceback" not in err
        assert "RuntimeWarning" not in err
        lines = err.splitlines()
        assert all(line.startswith("drpkit: ") for line in lines), lines
        if message is None:
            assert not lines
        elif code == 0:
            assert len(lines) == 1 and message in lines[0]
        else:
            errors = [line for line in lines if not line.startswith("drpkit: warning: ")]
            assert len(errors) == 1 and message in errors[0], lines
            assert not list(tmp_path.glob("*.json"))

    @staticmethod
    def check_nothing_written(tmp_path, run):
        # the check comes before the first snapshot file and the first stdout line
        code, out, err = run
        assert code in (2, 3), err
        assert out == ""
        assert len(err.splitlines()) == 1, err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, code, message", EXIT_CASES)
    def test_exit_code_and_one_line_per_message(self, tmp_path, cli_in_process, command, code,
                                                message):
        self.check_exit(tmp_path, cli_in_process(tmp_path, command), code, message)

    @pytest.mark.parametrize("command", WRITES_NOTHING)
    def test_failure_prints_and_writes_nothing(self, tmp_path, cli_in_process, command):
        self.check_nothing_written(tmp_path, cli_in_process(tmp_path, command))

    @pytest.mark.parametrize("command, code, message", PROCESS_CASES)
    def test_exit_path_of_the_process(self, tmp_path, child_env, command, code, message):
        proc = subprocess.run(
            [sys.executable, "-m", "drpkit.cli", *command],
            cwd=tmp_path,
            env=child_env(DRPKIT_OUTPUT_DIR=None),
            capture_output=True,
            text=True,
        )
        run = (proc.returncode, proc.stdout, proc.stderr)
        self.check_exit(tmp_path, run, code, message)
        if code:
            self.check_nothing_written(tmp_path, run)

    def test_subnormal_tau_leaves_the_nondimensional_results_alone(self, tmp_path, capsys):
        # a subnormal tau (from --tau, or from the largest --c) once overflowed
        # the nondimensional u_x coefficient; neither it nor the kink depends on tau
        big = "1.7976931348623157e308"
        assert run_cli(["soliton", "--verify"], tmp_path) == 0
        plain = capsys.readouterr().out
        assert run_cli(["soliton", "--c", big, "--verify"], tmp_path) == 0
        assert capsys.readouterr().out == plain

        # soliton builds no dimensional table, whose u_t_t = -tau/2 underflows here;
        # the kink is the one of the same sigma = c tau / h at h = 1
        command = ["soliton", "--tau", "5e-324", "--h", "1e-150", "--mu", "1e-170"]
        assert run_cli(command, tmp_path) == 0
        subnormal = capsys.readouterr().out
        assert run_cli(["soliton", "--sigma", repr(5e-324 / 1e-150), "--mu", "1e-170"],
                       tmp_path) == 0
        assert capsys.readouterr().out == subnormal

        assert run_cli(["report", "--no-sim", "--json", "plain.json"], tmp_path) == 0
        assert run_cli(["report", "--c", big, "--no-sim", "--json", "big.json"], tmp_path) == 0
        reports = [json.loads((tmp_path / name).read_text()) for name in ("plain.json", "big.json")]
        for payload in reports:
            del payload["config"]["c"], payload["config"]["tau"]
            del payload["modified_equation"]["dimensional"]
        assert reports[1] == reports[0]

        command = ["modified", "--tau", "1e-320", "--mu", "1e-10", "--json", "m.json"]
        assert run_cli(command, tmp_path) == 0
        terms = json.loads((tmp_path / "m.json").read_text())["nondimensional"]["terms"]
        u_x = next(t["coefficient"] for t in terms if (t["t_order"], t["x_order"]) == (0, 1))
        params = SchemeParams.from_cfl(None, mu=1e-10, re_h=1.0, tau=1e-320)
        assert math.isfinite(u_x)
        assert u_x == advection_coefficient(params, optimize_coefficients(1))


class TestDeterminism:
    @pytest.mark.parametrize(
        "command",
        [
            ["coeffs", "--m", "3", "--json", "c.json"],
            ["dispersion", "--m", "2", "--csv", "d.csv"],
            ["soliton", "--verify", "--json", "s.json"],
            ["report", "--json", "r.json"],
            ["simulate", "--init", "kink", "--N", "64", "--steps", "20",
             "--snap-every", "10", "--outdir", "sim"],
        ],
    )
    def test_byte_identical_across_runs_and_threads(self, tmp_path, child_env, command):
        results = []
        for sub, threads in (("one", "1"), ("two", "4")):
            workdir = tmp_path / sub
            workdir.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "drpkit.cli"] + command,
                cwd=workdir,
                env=child_env(
                    OMP_NUM_THREADS=threads,
                    OPENBLAS_NUM_THREADS=threads,
                    DRPKIT_OUTPUT_DIR=None,
                ),
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            blob = {
                p.relative_to(workdir).as_posix(): p.read_bytes()
                for p in sorted(workdir.rglob("*"))
                if p.is_file()
            }
            results.append(blob)
        assert results[0].keys() == results[1].keys()
        for name in results[0]:
            assert results[0][name] == results[1][name], f"{name} differs"

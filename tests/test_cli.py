"""End-to-end command line checks through the click test runner."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import rumin_eta
from rumin_eta import cli, nilmanifold, rep_oracle
from rumin_eta.rep_oracle import SpectralPairingError
from rumin_eta.specfun import eta_hurw, im_polylog_even

CATALAN = 0.915965594177219


@pytest.fixture()
def runner():
    return CliRunner()


def records_of(output):
    return [json.loads(line) for line in output.splitlines() if line]


def test_eval_nil_at_zero(runner):
    result = runner.invoke(
        cli.main,
        ["eval", "--fn", "nil", "--r", "4", "--c", "1",
         "--gamma-norm", "1", "--s", "0"],
    )
    assert result.exit_code == 0
    (rec,) = records_of(result.stdout)
    assert rec["s"] == {"re": 0.0, "im": 0.0}
    assert abs(rec["value"]["re"]) <= 1e-9
    assert rec["is_pole"] is False


def test_eval_nil_snaps_to_the_negative_even_integer(runner):
    # within the pole snap of s = -2 the finite s = -2 value comes back
    result = runner.invoke(
        cli.main,
        ["eval", "--fn", "nil", "--r", "4", "--c", "1",
         "--gamma-norm", "1", "--s=-1.9999999999999"],
    )
    assert result.exit_code == 0
    (rec,) = records_of(result.stdout)
    assert rec["s"]["re"] == -1.9999999999999
    assert rec["value"] == {"re": -3.756218550639717, "im": 0.0}
    assert rec["is_pole"] is True


def test_eval_tilde_at_zero(runner):
    result = runner.invoke(
        cli.main, ["eval", "--fn", "tilde", "--a", "1.25", "--s", "0"]
    )
    assert result.exit_code == 0
    (rec,) = records_of(result.stdout)
    assert rec["value"]["re"] == pytest.approx(0.23223304703363112, abs=1e-12)
    assert rec["value"]["im"] == 0.0


def test_eval_hurw_eta_half_shift_vanishes(runner):
    result = runner.invoke(
        cli.main, ["eval", "--fn", "hurw-eta", "--a", "0.5", "--s", "3.7"]
    )
    assert result.exit_code == 0
    (rec,) = records_of(result.stdout)
    assert rec["value"] == {"re": 0.0, "im": 0.0}


def test_eval_polylog_im_l_shorthand(runner):
    result = runner.invoke(
        cli.main, ["eval", "--fn", "polylog-im", "--a", "0.25", "--l", "0"]
    )
    assert result.exit_code == 0
    (rec,) = records_of(result.stdout)
    assert rec["s"] == {"re": 2.0, "im": 0.0}
    assert rec["value"]["re"] == pytest.approx(CATALAN, abs=1e-12)


def test_eval_polylog_im_even_orders_are_im_polylog_even(runner):
    result = runner.invoke(
        cli.main, ["eval", "--fn", "polylog-im", "--a", "0.3", "--s-list", "2;4;6"]
    )
    assert result.exit_code == 0
    got = [rec["value"] for rec in records_of(result.stdout)]
    assert got == [{"re": im_polylog_even(l, 0.3), "im": 0.0} for l in (0, 1, 2)]


def test_eval_polylog_im_generic_point_matches_series(runner):
    fast = runner.invoke(
        cli.main, ["eval", "--fn", "polylog-im", "--a", "0.3", "--s", "4"]
    )
    slow = runner.invoke(
        cli.main, ["eval", "--fn", "polylog-im", "--a", "0.3", "--s", "4.0,0"]
    )
    (f,) = records_of(fast.stdout)
    (g,) = records_of(slow.stdout)
    assert f["value"]["re"] == pytest.approx(g["value"]["re"], abs=1e-10)


def test_eval_hurw_eta_far_left_at_large_imaginary_part(runner):
    # the reflection branch needs Li_{1-s} where its zeta series cancels
    result = runner.invoke(
        cli.main, ["eval", "--fn", "hurw-eta", "--a", "0.45", "--s=-2,20"]
    )
    assert result.exit_code == 0, result.output
    (rec,) = records_of(result.stdout)
    want = eta_hurw(-2.0 + 20.0j, 0.45)
    assert rec["value"] == {"re": want.real, "im": want.imag}


def test_eval_tilde_pole_record_nulls(runner):
    result = runner.invoke(
        cli.main, ["eval", "--fn", "tilde", "--a", "1.25", "--s", "-2"]
    )
    assert result.exit_code == 0
    (rec,) = records_of(result.stdout)
    assert rec["is_pole"] is True
    assert rec["value"] == {"re": None, "im": None}
    assert rec["residue"] == pytest.approx(0.99436891104358256, abs=1e-12)


def test_eval_s_list_commas_are_real_points(runner):
    result = runner.invoke(
        cli.main, ["eval", "--fn", "tilde", "--a", "0.3", "--s-list", "1.5,2,3"]
    )
    recs = records_of(result.stdout)
    assert [r["s"]["re"] for r in recs] == [1.5, 2.0, 3.0]
    assert all(r["s"]["im"] == 0.0 for r in recs)


def test_eval_s_list_semicolons_allow_complex_points(runner):
    result = runner.invoke(
        cli.main,
        ["eval", "--fn", "tilde", "--a", "0.3", "--s-list", "1.5; 2,1; 3"],
    )
    recs = records_of(result.stdout)
    assert [(r["s"]["re"], r["s"]["im"]) for r in recs] == [
        (1.5, 0.0), (2.0, 1.0), (3.0, 0.0)]


def test_eval_byte_determinism(runner):
    args = ["eval", "--fn", "nil", "--r", "4", "--c", "1",
            "--gamma-norm", "1", "--s-list", "0;-1;2,0.5"]
    first = runner.invoke(cli.main, args)
    second = runner.invoke(cli.main, args)
    assert first.stdout == second.stdout
    assert first.stdout.count("\n") == 3


# the eval cases below that fail inside an evaluation, and how the message
# names the call
_FAILED_CALLS = {
    "eval --fn polylog-im --a 0.3 --s 0.5": "--fn polylog-im at s = 0.5",
    "eval --fn nil --r 4 --c 1 --gamma-norm 1 --s=-180": "--fn nil at s = -180.0",
    "eval --fn hurw-eta --a 0.3 --s=-400": "--fn hurw-eta at s = -400.0",
    "eval --fn tilde --a 0.3 --s 1e10": "--fn tilde at s = 10000000000.0",
    "eval --fn polylog-im --a 1 --s 4": "--fn polylog-im at s = 4.0",
    "eval --fn nil --r 4 --c 1 --gamma-norm 1 --s=-152": "--fn nil at s = -152.0",
    "eval --fn nil --r 4 --c 1 --gamma-norm 1e-3 --s=-400": "--fn nil at s = -400.0",
}


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "--fn", "tilde", "--s", "1"],
        ["eval", "--fn", "tilde", "--a", "0.3"],
        ["eval", "--fn", "tilde", "--a", "0.3", "--s", "1", "--s-list", "1,2"],
        ["eval", "--fn", "tilde", "--a", "0.3", "--s", "oops"],
        ["eval", "--fn", "nil", "--r", "0", "--c", "1", "--gamma-norm", "1",
         "--s", "0"],
        ["eval", "--fn", "nil", "--r", "4", "--gamma-norm", "1", "--s", "0"],
        ["eval", "--fn", "nil", "--r", "4", "--c", "1", "--gamma-norm", "1",
         "--a", "0.3", "--s", "0"],
        ["eval", "--fn", "hurw-eta", "--a", "0.3", "--r", "4", "--s", "2"],
        ["eval", "--fn", "polylog-im", "--a", "0.3", "--s", "0.5"],
        ["eval", "--fn", "polylog-im", "--a", "0.3", "--l", "1", "--s", "4"],
        ["eval", "--fn", "tilde", "--a", "0.3", "--l", "1", "--s", "4"],
        ["spectrum", "--rep", "scalar", "--alpha", "1"],
        ["spectrum", "--rep", "scalar", "--alpha", "1", "--beta", "0",
         "--hbar", "1"],
        ["spectrum", "--rep", "schroedinger", "--hbar", "0"],
        ["spectrum", "--rep", "generic", "--lambda", "1", "--mu", "2",
         "--basis-size", "4"],
        ["verify", "--suite", "nope"],
        ["verify", "--suite", "all", "--basis-size", "8"],
        ["special-values", "--r", "4", "--c", "1", "--gamma-norm", "1",
         "--l-max", "-1"],
        # values beyond the double range, and non-finite input
        ["eval", "--fn", "nil", "--r", "4", "--c", "1", "--gamma-norm", "1",
         "--s=-180"],
        ["special-values", "--r", "4", "--c", "1", "--gamma-norm", "1",
         "--l-max", "90"],
        ["eval", "--fn", "hurw-eta", "--a", "0.3", "--s=-400"],
        ["eval", "--fn", "tilde", "--a", "0.3", "--s", "1e10"],
        ["eval", "--fn", "hurw-eta", "--a", "inf", "--s", "2"],
        ["eval", "--fn", "hurw-eta", "--a", "nan", "--s", "2"],
        ["eval", "--fn", "tilde", "--a", "0.3", "--s", "inf"],
        ["eval", "--fn", "tilde", "--a", "0.3", "--s", "nan"],
        ["eval", "--fn", "tilde", "--a", "0.3", "--s-list", "2;1,-inf"],
        ["eval", "--fn", "polylog-im", "--a", "1", "--s", "4"],
        ["eval", "--fn", "nil", "--r", "4", "--c", "1", "--gamma-norm", "1",
         "--s=-152"],
        ["special-values", "--r", "4", "--c", "1", "--gamma-norm", "1",
         "--l-max", "80"],
        # gamma^200 underflows in floating point; the value overflows
        ["eval", "--fn", "nil", "--r", "4", "--c", "1", "--gamma-norm", "1e-3",
         "--s=-400"],
    ],
)
def test_validation_failures_exit_2(runner, args):
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    call = _FAILED_CALLS.get(" ".join(args))
    if call is not None:
        assert "\nError: " + call + ": " in result.stderr, result.stderr


_RAISERS = {
    # command: (module, name, argv) of a library call the command makes
    "eval": (cli, "eta_nil",
             ["eval", "--fn", "nil", "--r", "4", "--c", "1", "--gamma-norm", "1",
              "--s", "0"]),
    "special-values": (nilmanifold, "eta_nil_neg_even",
                       ["special-values", "--r", "4", "--c", "1", "--gamma-norm", "1",
                        "--l-max", "1"]),
    "spectrum": (rep_oracle, "hermitian_eigenvalues",
                 ["spectrum", "--rep", "generic", "--lambda", "1", "--mu", "1",
                  "--basis-size", "16"]),
    "verify": (cli.verification, "run_suite", ["verify", "--suite", "tilde-eta"]),
}


def _raise_from(monkeypatch, command, error):
    module, name, argv = _RAISERS[command]

    def boom(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(module, name, boom)
    return argv


@pytest.mark.parametrize("command", sorted(_RAISERS))
@pytest.mark.parametrize("error", [SpectralPairingError], ids=["pairing"])
def test_internal_inconsistency_exits_3(runner, monkeypatch, command, error):
    result = runner.invoke(cli.main, _raise_from(monkeypatch, command, error))
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert result.stderr == "internal inconsistency: forced\n"


@pytest.mark.parametrize("command", sorted(_RAISERS))
def test_library_value_error_exits_2(runner, monkeypatch, command):
    # a usage error raised inside the command keeps the subcommand's usage line
    result = runner.invoke(cli.main, _raise_from(monkeypatch, command, ValueError))
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("Usage: main " + command + " [OPTIONS]")
    # eval names the function and the point that failed
    call = "--fn nil at s = 0.0: " if command == "eval" else ""
    assert result.stderr.endswith("Error: " + call + "forced\n")


def test_eval_has_no_jobs_option(runner, tmp_path):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps([{"fn": "tilde", "a": 0.3, "s": 2}]), encoding="utf-8")
    result = runner.invoke(
        cli.main, ["eval", "--job-file", str(path), "--fn", "tilde", "--jobs", "2"]
    )
    assert result.exit_code == 2
    assert "No such option" in result.stderr and "--jobs" in result.stderr


def test_job_file_runs_and_orders_records(runner, tmp_path):
    jobs = [
        {"fn": "tilde", "a": 1.25, "s": 0},
        {"fn": "hurw-eta", "a": 0.25, "s_list": "2;3,1"},
        {"command": "eval", "fn": "nil", "r": 4, "c": 1, "gamma_norm": 1.0,
         "s": [0.0, 0.0]},
    ]
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs), encoding="utf-8")
    result = runner.invoke(cli.main, ["eval", "--job-file", str(path),
                                      "--fn", "tilde"])
    assert result.exit_code == 0
    recs = records_of(result.stdout)
    assert len(recs) == 4
    assert recs[0]["value"]["re"] == pytest.approx(0.23223304703363112)
    assert recs[1]["s"] == {"re": 2.0, "im": 0.0}
    assert recs[2]["s"] == {"re": 3.0, "im": 1.0}
    assert abs(recs[3]["value"]["re"]) <= 1e-9


@pytest.mark.parametrize(
    "doc",
    [
        {"fn": "tilde", "a": 0.3, "s": 1},
        [{"fn": "mystery", "s": 1}],
        [{"fn": "tilde", "a": 0.3, "s": 1, "s_list": "1,2"}],
        [{"fn": "tilde", "a": 0.3, "s": 1, "surprise": 7}],
        [{"fn": "tilde", "a": 0.3, "s": True}],
        # each field has one type: an int for r, c and l, a finite real for
        # gamma_norm and a; never a bool or a string
        [{"fn": "hurw-eta", "a": "0.3", "s": 2}],
        [{"fn": "nil", "r": "4", "c": 1, "gamma_norm": 1.0, "s": 2}],
        [{"fn": "nil", "r": 4, "c": 1, "gamma_norm": "x", "s": 2}],
        [{"fn": "tilde", "a": "0.3", "s": 2}],
        [{"fn": "tilde", "a": True, "s": 2}],
        [{"fn": "polylog-im", "a": 0.3, "l": 1.5}],
        [{"fn": "nil", "r": 4.0, "c": 1, "gamma_norm": 1.0, "s": 2}],
        [{"fn": "tilde", "a": 0.3, "s": 2}, {"fn": "tilde", "a": float("nan"), "s": 2}],
        [{"fn": "tilde", "a": 0.3, "s": float("inf")}],
        [{"fn": "tilde", "a": 0.3, "s_list": [2, [1, float("nan")]]}],
        [{"fn": "tilde", "a": 0.3, "s": [True, "2"]}],
    ],
)
def test_bad_job_files_exit_2(runner, tmp_path, doc):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = runner.invoke(cli.main, ["eval", "--job-file", str(path),
                                      "--fn", "tilde"])
    assert result.exit_code == 2
    assert result.stdout == ""


def test_job_field_type_errors_name_the_job(runner, tmp_path):
    jobs = [{"fn": "tilde", "a": 0.3, "s": 2}, {"fn": "polylog-im", "a": 0.3, "l": 1.5}]
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs), encoding="utf-8")
    result = runner.invoke(cli.main, ["eval", "--job-file", str(path), "--fn", "tilde"])
    assert result.exit_code == 2
    assert result.stderr.endswith("Error: job 1: l must be an integer, got 1.5\n")


def test_special_values_rows(runner):
    result = runner.invoke(
        cli.main,
        ["special-values", "--r", "4", "--c", "1", "--gamma-norm", "1",
         "--l-max", "2"],
    )
    assert result.exit_code == 0
    recs = records_of(result.stdout)
    assert [r["s"]["re"] for r in recs] == [0.0, -1.0, -3.0, -5.0, -2.0, -4.0]
    for row in recs[:4]:
        assert row["abs_deviation"] <= 1e-9
    for row in recs[4:]:
        assert row["is_pole"] is True
        assert row["residue"] == 0.0
        assert row["sign_predicted"] in (-1, 1)
        value = row["value"]["re"]
        assert value != 0.0 and (value > 0) == (row["sign_predicted"] > 0)


def test_spectrum_scalar_csv_and_sidecar(runner):
    result = runner.invoke(
        cli.main, ["spectrum", "--rep", "scalar", "--alpha", "1", "--beta", "0"]
    )
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 4
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] == pytest.approx(-27.915456798555518, rel=1e-13)
    assert values[1] == pytest.approx(0.0, abs=1e-12)
    assert values[2] == pytest.approx(27.915456798555518, rel=1e-13)
    sidecar = json.loads(result.stderr)
    assert sidecar["rep"] == "scalar"
    assert sidecar["eigenvalue_count"] == 3


def test_spectrum_schroedinger_sidecar_comparison(runner):
    result = runner.invoke(
        cli.main,
        ["spectrum", "--rep", "schroedinger", "--hbar", "1",
         "--basis-size", "32"],
    )
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 1 + 3 * 32
    sidecar = json.loads(result.stderr)
    assert sidecar["basis_size"] == 32
    assert sidecar["trusted_count"] == 4
    assert sidecar["closed_form_comparison"]["max_rel_error"] <= 1e-10
    assert sidecar["kernel_count"] >= 1


def test_spectrum_generic_pairing_diagnostic(runner):
    result = runner.invoke(
        cli.main,
        ["spectrum", "--rep", "generic", "--lambda", "1", "--mu", "1",
         "--basis-size", "32"],
    )
    assert result.exit_code == 0
    sidecar = json.loads(result.stderr)
    assert sidecar["nu"] == 0.0
    assert sidecar["pairing_symmetry"] <= 1e-9


def test_spectrum_has_no_trusted_count_option(runner):
    result = runner.invoke(
        cli.main,
        ["spectrum", "--rep", "generic", "--lambda", "1", "--mu", "1",
         "--basis-size", "32", "--trusted-count", "3"],
    )
    assert result.exit_code == 2
    assert "No such option" in result.stderr and "--trusted-count" in result.stderr


def test_verify_suite_summary_and_exit(runner):
    result = runner.invoke(cli.main, ["verify", "--suite", "tilde-eta"])
    assert result.exit_code == 0, result.output
    *lines, summary_line = result.stdout.splitlines()
    recs = [json.loads(line) for line in lines]
    assert [r["id"] for r in recs] == ["C1", "C2", "C3", "C4"]
    assert all(r["passed"] for r in recs)
    summary = json.loads(summary_line)
    assert summary == {
        "suite": "tilde-eta",
        "basis_size": 256,
        "n_passed": 4,
        "n_total": 4,
        "passed": True,
    }


def test_verify_failure_exits_1(runner, monkeypatch):
    record = {
        "id": "C1",
        "description": "forced failure",
        "passed": False,
        "measured": 2.0,
        "tolerance": 1.0,
        "details": {},
    }
    monkeypatch.setattr(cli.verification, "run_suite",
                        lambda suite, basis_size: [record])
    result = runner.invoke(cli.main, ["verify", "--suite", "tilde-eta"])
    assert result.exit_code == 1
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["passed"] is False


def test_package_metadata_matches_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "rumin-eta"
    assert project["version"] == rumin_eta.__version__

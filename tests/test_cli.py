import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ve2d.cli as cli
import ve2d.experiments
from ve2d.dynamics import BlowUpError

SMALL_INI = """\
[grid]
n = 64
box_len = 32.0
[initial]
amplitude = 0.01
support_radius = 6.0
[run]
mu = {mu}
t_final = 2.0
sample_interval = 0.5
k_max = 1
{extra}
"""


# on data this large, steps of dt = 0.5 trip simulate's E1 ceiling at the
# t = 0.5 sample and leave non-finite fields at t = 1.5 (at mu = 0)
BLOWUP_INI = """\
[grid]
n = 32
box_len = 16
[initial]
amplitude = 50
[run]
mu = 0
t_final = 4
sample_interval = 0.5
k_max = 1
[stepper]
dt = 0.5
"""


# no initial perturbation: every state is zero, so every distance of a
# convergence study is 0 and no decay can be fitted
ZERO_INI = """\
[grid]
n = 32
[initial]
amplitude = 0
[run]
mu = 0 0.1 0.01 0.001
t_final = 1
sample_interval = 0.25
output_dir = {out}
"""


# the farthest point of a box of side 0.5 sits at r = 0.35, short of the
# light cone r >= <t>/2 of every sample
TINY_INI = """\
[grid]
n = 16
box_len = 0.5
[run]
mu = 0 0.1 0.01 0.001
t_final = 0.125
sample_interval = 0.125
"""


def write_config(tmp_path, mu="0", extra=""):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_INI.format(mu=mu, extra=extra), encoding="utf-8")
    return str(path)


class TestSimulate:
    def test_success_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, extra=f"output_dir = {out}\n")
        assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_OK
        assert "completed t = 2" in capsys.readouterr().out
        assert (out / "run_mu0.csv").exists()
        assert (out / "final_mu0.snap").exists()

    def test_lands_every_sample_of_a_short_run(self, tmp_path, capsys):
        # sample times 1e-13 apart are each stepped to, none skipped
        out = tmp_path / "out"
        path = tmp_path / "run.ini"
        path.write_text("[grid]\nn = 32\nbox_len = 16\n[run]\n"
                        "t_final = 1e-12\nsample_interval = 1e-13\n"
                        f"output_dir = {out}\n", encoding="utf-8")
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
        assert "completed t = 1e-12 (mu = 0, 11 samples)" in (
            capsys.readouterr().out)
        with open(out / "run_mu0.csv", encoding="utf-8") as fh:
            ts = [float(row["t"]) for row in csv.DictReader(fh)]
        assert ts == pytest.approx([k * 1e-13 for k in range(11)], rel=1e-9)

    def test_minus_zero_viscosity_is_zero(self, tmp_path, capsys):
        # -0 is stored as 0: its files, its CSV column and its summary
        out = tmp_path / "out"
        cfg = write_config(tmp_path, mu="-0", extra=f"output_dir = {out}\n")
        assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_OK
        assert "(mu = 0," in capsys.readouterr().out
        assert not [p.name for p in out.iterdir() if "-0" in p.name]
        with open(out / "run_mu0.csv", encoding="utf-8") as fh:
            assert {row["mu"] for row in csv.DictReader(fh)} == {"0"}
        summary = json.loads((out / "summary_mu0.json").read_text(
            encoding="utf-8"))
        assert math.copysign(1.0, summary["mu"]) == 1.0

    def test_missing_config_exits_3(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--config", str(tmp_path / "none.ini")])
        assert rc == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nt_final = forever\n", encoding="utf-8")
        assert cli.main(["simulate", "--config",
                         str(path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command, old, new, env", [
        ("simulate", "n = 64", "n = 33", {}),
        ("simulate", "k_max = 1", "k_max = 5", {}),
        ("sweep-mu", "mu = 0", "mu = 0 0.1", {"VE2D_THREADS": "abc"}),
        ("sweep-mu", "mu = 0", "mu = 0 0.1", {"VE2D_THREADS": "0"}),
        ("sweep-mu", "mu = 0", "mu = 0 0.1", {"VE2D_THREADS": "-1"}),
        ("simulate", "sample_interval", "sample_intervl", {}),
        ("simulate", "k_max = 1", "k_max = 1\n[stepper]\ncfl = 0.1", {}),
        ("simulate", "[initial]", "[initail]", {}),
        ("simulate", "t_final = 2.0\nsample_interval = 0.5",
         "t_final = 0.3\nsample_interval = 0.2", {}),
        ("simulate", "mu = 0", "mu =", {}),
        ("simulate", "support_radius = 6.0", "support_radius = 8.0", {}),
        ("simulate", "t_final = 2.0", "t_final = -1.0", {}),
        ("simulate", "k_max = 1", "k_max = 1\n[stepper]\ndt = 0", {}),
        ("simulate", "amplitude = 0.01", "amplitude = nan", {}),
        ("simulate", "amplitude = 0.01", "amplitude = inf", {}),
        ("simulate", "support_radius = 6.0", "support_radius = nan", {}),
        ("simulate", "k_max = 1", "k_max = 1\n[stepper]\ndt = nan", {}),
        ("simulate", "k_max = 1", "k_max = 1\n[stepper]\ndt = inf", {}),
        ("simulate", "amplitude = 0.01",
         "amplitude = 0.01\nprofile = spectral\nseed = -1", {}),
        ("simulate", "sample_interval = 0.5", "sample_interval = inf", {}),
        ("simulate", "sample_interval = 0.5", "sample_interval = 5e-324", {}),
        ("simulate", "sample_interval = 0.5", "sample_interval = 1e-12", {}),
        ("simulate", "box_len = 32.0", "box_len = inf", {}),
        ("sweep-mu", "mu = 0", "mu = 0 0", {}),
        ("sweep-mu", "mu = 0", "mu = 0.1234567 0.1234568", {}),
        ("converge", "mu = 0", "mu = 0 0.1234567 0.1234568 0.01", {}),
        ("sweep-mu", "mu = 0", "mu = 0 -0", {}),
        ("simulate", "k_max = 1", "k_max = 1\n[stepper]\nscheme = rk3", {}),
        ("simulate", "k_max = 1",
         "k_max = 1\n[stepper]\ndt = 0.1\ncfl_factor = 0.3", {}),
    ], ids=["odd_n", "k_max_5", "threads_not_int", "threads_0", "threads_-1",
            "unknown_key", "unknown_stepper_key", "unknown_section",
            "t_final_off_samples",
            "empty_mu", "support_too_wide", "negative_t_final", "zero_dt",
            "nan_amplitude", "inf_amplitude", "nan_support_radius", "nan_dt",
            "inf_dt", "negative_seed", "inf_sample_interval",
            "overflowing_sample_count", "too_many_samples",
            "inf_box_len", "repeated_mu", "mu_of_one_name",
            "converge_mu_of_one_name", "minus_zero_repeats_zero",
            "unknown_scheme",
            "dt_and_cfl_factor"])
    def test_bad_config_exits_3_with_one_line(self, tmp_path, capsys,
                                              monkeypatch, command, old, new,
                                              env):
        path = Path(write_config(tmp_path))
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

    def test_seed_without_spectral_profile_exits_3_with_one_line(
            self, tmp_path, capsys):
        # the bump reads no seed: the run would ignore it without a word
        path = tmp_path / "run.ini"
        path.write_text("[grid]\nn = 32\nbox_len = 16\n"
                        "[initial]\nprofile = gaussian-bump\nseed = 5\n"
                        "[run]\nt_final = 0.5\nsample_interval = 0.5\n"
                        "k_max = 1\n", encoding="utf-8")
        assert cli.main(["simulate", "--config",
                         str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "seed" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below"])
    @pytest.mark.parametrize("command", ["simulate", "audit"])
    def test_uncreatable_output_dir_exits_3_with_one_line(
            self, tmp_path, capsys, monkeypatch, command, below):
        # a regular file, or a path below one, cannot be the output
        # directory: refused before the run, with the path named
        out = tmp_path / "file"
        out.write_text("", encoding="utf-8")
        if below:
            out = out / "sub"
        cfg = write_config(tmp_path, extra=f"output_dir = {out}\n")

        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(ve2d.experiments, "evolve", no_run)
        assert cli.main([command, "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert str(out) in err
        assert err.count("\n") == 1

    def test_k_max_0_writes_artifacts_without_energy_plot(self, tmp_path,
                                                          capsys):
        # k_max = 0 leaves the E1 column empty, so there is nothing to plot
        out = tmp_path / "out"
        path = tmp_path / "k0.ini"
        path.write_text(
            "[grid]\nn = 16\nbox_len = 8\n[run]\nt_final = 2\n"
            f"sample_interval = 0.5\nk_max = 0\noutput_dir = {out}\n",
            encoding="utf-8")
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        for name in ("run_mu0.csv", "final_mu0.snap", "summary_mu0.json"):
            assert (out / name).exists(), name
        assert not (out / "energy_mu0.svg").exists()

    def test_percent_in_a_value_is_literal(self, tmp_path, capsys):
        # INI values are read literally: no '%' interpolation
        out = tmp_path / "out100%"
        cfg = write_config(tmp_path, extra=f"output_dir = {out}\n")
        assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        assert (out / "run_mu0.csv").exists()

    def test_reads_only_the_first_viscosity(self, tmp_path, capsys):
        # simulate runs mu_list[0] alone; the other values of [run] mu are
        # for sweep-mu and converge
        out = tmp_path / "out"
        cfg = write_config(tmp_path, mu="0 0.1",
                           extra=f"output_dir = {out}\n")
        assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_OK
        assert "(mu = 0," in capsys.readouterr().out
        assert sorted(p.name for p in out.glob("run_*.csv")) == [
            "run_mu0.csv"]

    def test_k_max_0_blow_up_caught_by_the_ceiling(self, tmp_path, capsys):
        # k_max = 0 has no E1; the ceiling reads E0, which grows from
        # 1.6e3 to 1.8e18 by t = 0.5, so the run stops there as k_max = 1
        # does, not at the non-finite fields of t = 1.5
        path = tmp_path / "blowup.ini"
        path.write_text(BLOWUP_INI.replace("k_max = 1", "k_max = 0"),
                        encoding="utf-8")
        rc = cli.main(["simulate", "--config", str(path)])
        assert rc == cli.EXIT_BLOWUP
        assert capsys.readouterr().err == "blow-up at t = 0.5\n"

    def test_blow_up_exits_2(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)

        def explode(config):
            raise BlowUpError(1.25)

        monkeypatch.setattr(cli, "run_simulation", explode)
        assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_BLOWUP


class TestSweepAndConverge:
    def test_sweep_reports_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mu="0 0.1")
        assert cli.main(["sweep-mu", "--config", cfg]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert set(report["per_mu"]) == {"0", "0.1"}
        assert report["max_E1_ratio"] >= 1.0

    def test_sweep_summary_keys_are_the_printed_names(self, tmp_path,
                                                       capsys):
        # sweep_summary.json, stdout and the CSV names key each viscosity
        # by one name: 0.1234567 is 0.123457 in all three
        out = tmp_path / "out"
        cfg = write_config(tmp_path, mu="0 0.1234567",
                           extra=f"output_dir = {out}\n")
        assert cli.main(["sweep-mu", "--config", cfg]) == cli.EXIT_OK
        printed = list(json.loads(capsys.readouterr().out)["per_mu"])
        summary = json.loads((out / "sweep_summary.json").read_text(
            encoding="utf-8"))
        stems = sorted(p.stem for p in out.glob("run_mu*.csv"))
        assert printed == ["0", "0.123457"]
        assert list(summary["per_mu"]) == printed
        assert stems == [f"run_mu{key}" for key in printed]

    def test_converge_requires_baseline(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mu="0.1 0.01 0.001")
        assert cli.main(["converge", "--config", cfg]) == cli.EXIT_CONFIG

    def test_converge_blow_up_exits_2_with_one_line(self, tmp_path, capsys):
        # converge takes no samples, so it has no E1 ceiling: the step's
        # finite check stops the mu = 0 run at t = 1.5
        path = tmp_path / "blowup.ini"
        path.write_text(BLOWUP_INI.replace("mu = 0", "mu = 0 0.1 0.01 0.001"),
                        encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(["converge", "--config", str(path)])
        assert rc == cli.EXIT_BLOWUP
        assert capsys.readouterr().err == "solution blew up at t = 1.5\n"

    def test_converge_zero_distances_exit_3_with_one_line(self, tmp_path,
                                                          capsys):
        # a fitted order of log 0 is no number: nothing is written
        out = tmp_path / "out"
        path = tmp_path / "zero.ini"
        path.write_text(ZERO_INI.format(out=out), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(["converge", "--config", str(path)])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not (out / "convergence.json").exists()
        assert not (out / "convergence.svg").exists()

    def test_converge_reports_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mu="0 0.1 0.01 0.001")
        assert cli.main(["converge", "--config", cfg]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert set(report["table"]) == {"0", "0.1", "0.01", "0.001"}
        assert report["table"]["0.1"] > report["table"]["0.001"]
        assert "fitted_order" in report

    def test_converge_prints_what_it_writes(self, tmp_path, capsys):
        # stdout is convergence.json: the table keyed by name, positive
        # viscosities descending and then 0, and the fitted order
        out = tmp_path / "out"
        cfg = write_config(tmp_path, mu="0 0.001 0.1 0.01",
                           extra=f"output_dir = {out}\n")
        assert cli.main(["converge", "--config", cfg]) == cli.EXIT_OK
        printed = capsys.readouterr().out
        assert printed == (out / "convergence.json").read_text(
            encoding="utf-8") + "\n"
        report = json.loads(printed)
        assert list(report) == ["table", "fitted_order"]
        assert list(report["table"]) == ["0.1", "0.01", "0.001", "0"]


class TestAuditAndFit:
    def test_audit_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["audit", "--config", cfg]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["identity_residuals"]["null_split"] < 1e-11

    def test_audit_reads_only_the_first_viscosity(self, tmp_path, capsys):
        reports = []
        for mu in ("0.01 0", "0.01"):
            cfg = write_config(tmp_path, mu=mu)
            assert cli.main(["audit", "--config", cfg]) == cli.EXIT_OK
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_audit_blow_up_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "blowup.ini"
        path.write_text(BLOWUP_INI, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(["audit", "--config", str(path)])
        assert rc == cli.EXIT_BLOWUP
        err = capsys.readouterr().err
        assert err.startswith("solution blew up at t = ")
        assert err.count("\n") == 1

    def test_fit_on_synthetic_csv(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        rows = ["t,value"]
        for k in range(20):
            t = 1.0 + k
            rows.append(f"{t},{2.0 * t ** -1.5}")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rc = cli.main(["fit", "--csv", str(path), "--column", "value",
                       "--t0", "1", "--t1", "20"])
        assert rc == cli.EXIT_OK
        assert "exponent -1.5000" in capsys.readouterr().out

    def test_fit_of_an_empty_column_exits_3_with_one_line(self, tmp_path,
                                                          capsys):
        # k_max = 0 writes E1 as NaN, which has no decay exponent
        out = tmp_path / "out"
        path = tmp_path / "k0.ini"
        path.write_text(
            "[grid]\nn = 16\nbox_len = 8\n[run]\nt_final = 2\n"
            f"sample_interval = 0.25\nk_max = 0\noutput_dir = {out}\n",
            encoding="utf-8")
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
        capsys.readouterr()
        csv_path = out / "run_mu0.csv"
        rc = cli.main(["fit", "--csv", str(csv_path), "--column", "E1",
                       "--t0", "0.25", "--t1", "2"])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(csv_path) in captured.err
        assert captured.err.count("\n") == 1

    def test_fit_unknown_column_exits_3(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n1,1\n", encoding="utf-8")
        rc = cli.main(["fit", "--csv", str(path), "--column", "nope",
                       "--t0", "1", "--t1", "2"])
        assert rc == cli.EXIT_CONFIG

    def test_fit_missing_csv_exits_3_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "none.csv"
        rc = cli.main(["fit", "--csv", str(path), "--column", "value",
                       "--t0", "1", "--t1", "2"])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bad_row", ["2,oops", "two,0.5"],
                             ids=["column", "t"])
    def test_fit_non_numeric_cell_exits_3_with_one_line(self, tmp_path,
                                                        capsys, bad_row):
        path = tmp_path / "series.csv"
        path.write_text(f"t,value\n1,1\n{bad_row}\n", encoding="utf-8")
        rc = cli.main(["fit", "--csv", str(path), "--column", "value",
                       "--t0", "1", "--t1", "2"])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["bogus"],
    ["fit", "--csv", "run.csv", "--column", "E1", "--t0", "abc", "--t1", "2"],
    ["simulate", "--config"],
], ids=["no_config", "unknown_command", "non_numeric_t0", "config_no_value"])
def test_usage_error_exits_3_with_one_line(capsys, argv):
    # a typo is a usage error, which a script can tell from a blow-up (2)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("ve2d")
    assert ": error: " in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_OK
    assert "usage: ve2d" in capsys.readouterr().out


def assert_ends_cleanly(path, command):
    """`python -m ve2d.cli command --config path` succeeds or names a
    config error in one line, and does not end in a traceback."""
    src = str(Path(ve2d.experiments.__file__).parents[1])
    env = {**os.environ, "VE2D_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "ve2d.cli", command, "--config", str(path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode in (cli.EXIT_OK, cli.EXIT_CONFIG), proc.stderr
    assert proc.stderr.count("\n") <= 1, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc


@pytest.mark.parametrize("command",
                         ["simulate", "sweep-mu", "converge", "audit"])
def test_zero_amplitude_ends_cleanly(tmp_path, command):
    # zero data are legal
    path = tmp_path / "zero.ini"
    path.write_text(ZERO_INI.format(out=tmp_path / "out"), encoding="utf-8")
    assert_ends_cleanly(path, command)


@pytest.mark.parametrize("command",
                         ["simulate", "sweep-mu", "converge", "audit"])
def test_box_short_of_the_light_cone_ends_cleanly(tmp_path, command):
    # the commands that sample refuse the box; converge and audit take no
    # sample and run
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI, encoding="utf-8")
    assert_ends_cleanly(path, command)


@pytest.mark.parametrize("command",
                         ["simulate", "sweep-mu", "converge", "audit"])
def test_config_not_utf8_ends_cleanly(tmp_path, command):
    # a Latin-1 byte in a comment: the file cannot be decoded, which is a
    # config error
    path = tmp_path / "latin1.ini"
    path.write_bytes(("# caf\xe9\n" + TINY_INI).encode("latin-1"))
    proc = assert_ends_cleanly(path, command)
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stderr.startswith("config error: cannot parse config: ")

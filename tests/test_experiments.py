import json
import os
from dataclasses import replace

import numpy as np
import pytest

import ve2d.diagnostics as dg
import ve2d.experiments as experiments
import ve2d.families as families
from ve2d.dynamics import StepperConfig
from ve2d.experiments import (INI_KEYS, ConfigError, RunConfig, audit,
                              convergence_study, mu_name, run_simulation,
                              state_l2_distance, sweep_viscosity,
                              worker_count, write_csv)
from ve2d.families import commutator_residuals, derived_family
from ve2d.state import InitialDataParams

SMALL = dict(n=64, box_len=32.0, t_final=2.0, sample_interval=0.5, k_max=1,
             initial=InitialDataParams(amplitude=0.01, support_radius=6.0))


@pytest.fixture(scope="module")
def small_run():
    return run_simulation(RunConfig(**SMALL), mu=0.0)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.n == 256
        assert cfg.box_len == 64.0
        assert cfg.t_final == 16.0

    def test_horizon_bounded_by_box(self):
        with pytest.raises(ConfigError):
            RunConfig(box_len=32.0, t_final=16.0)

    def test_viscosity_range(self):
        with pytest.raises(ConfigError):
            RunConfig(mu_list=(0.0, 2.0))

    def test_sample_interval_positive(self):
        with pytest.raises(ConfigError):
            RunConfig(sample_interval=0.0)

    def test_sample_count_bounded(self):
        # a count above the ceiling would append records without end; the
        # configs are only built, no run starts
        with pytest.raises(ConfigError, match="exceeds"):
            RunConfig(t_final=16.0, sample_interval=1e-12)
        with pytest.raises(ConfigError, match="exceeds"):
            RunConfig(t_final=16.0, sample_interval=2.0 ** -16)
        assert RunConfig(t_final=16.0, sample_interval=2.0 ** -15)._samples \
            == 2 ** 19

    def test_repeated_viscosity_rejected(self):
        # a sweep keys its report and its CSV names by mu, named by %g:
        # two viscosities of one name are one repeated, and -0 is 0
        with pytest.raises(ConfigError, match="repeated"):
            RunConfig(mu_list=(0.0, 0.1, 0.0))
        with pytest.raises(ConfigError, match="repeated"):
            RunConfig(mu_list=(0.1234567, 0.1234568))
        with pytest.raises(ConfigError, match="repeated"):
            RunConfig(mu_list=(0.0, -0.0))

    def test_empty_viscosity_list_rejected(self):
        with pytest.raises(ConfigError, match="mu needs at least one value"):
            RunConfig(mu_list=())

    def test_cfl_factor_with_dt_rejected(self):
        # a fixed dt replaces the CFL rule, so a cfl_factor would be ignored
        RunConfig(dt=0.1)
        with pytest.raises(ConfigError, match="cfl_factor"):
            RunConfig(dt=0.1, stepper=StepperConfig(cfl_factor=0.2))

    def test_initial_viscosity_rejected(self):
        # a run's viscosity comes from mu_list alone: one set in the
        # initial data would be replaced without a word
        with pytest.raises(ConfigError, match="mu_list"):
            RunConfig(initial=InitialDataParams(mu=0.5))

    @pytest.mark.parametrize("profile", ["gaussian-bump", "ring"])
    def test_seed_without_spectral_profile_rejected(self, profile):
        # the bump and the ring read no seed
        RunConfig(initial=InitialDataParams(profile="spectral", seed=5))
        RunConfig(initial=InitialDataParams(profile=profile))
        with pytest.raises(ConfigError, match="profile = spectral"):
            RunConfig(initial=InitialDataParams(profile=profile, seed=5))

    @pytest.mark.parametrize("text", [
        "seed = 0\n", "profile = ring\nseed = 0\n",
        "profile = gaussian-bump\nseed = 3\n"])
    def test_ini_seed_without_spectral_profile_rejected(self, tmp_path,
                                                         text):
        # a seed the file gives is refused unless the profile reads it,
        # 0 included
        path = tmp_path / "run.ini"
        path.write_text("[initial]\n" + text, encoding="utf-8")
        with pytest.raises(ConfigError, match="profile = spectral"):
            RunConfig.from_ini(path)


# a legal value other than the default for every INI key but scheme, which
# has one legal value (tests/test_cli.py checks that any other exits 3)
NON_DEFAULT = {
    ("grid", "n"): "128",
    ("grid", "box_len"): "128",
    ("initial", "amplitude"): "0.02",
    ("initial", "profile"): "ring",
    ("initial", "support_radius"): "6",
    ("initial", "seed"): "7",
    ("run", "mu"): "0 0.1",
    ("run", "t_final"): "8",
    ("run", "sample_interval"): "0.5",
    ("run", "k_max"): "1",
    ("run", "output_dir"): "out",
    ("stepper", "cfl_factor"): "0.2",
    ("stepper", "dealias"): "no",
    ("stepper", "dt"): "0.1",
}


class TestIniParsing:
    def test_full_config(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[grid]\n"
            "n = 64          # grid points per side\n"
            "box_len = 32.0\n"
            "[initial]\n"
            "amplitude = 0.02\n"
            "profile = spectral\n"
            "seed = 7\n"
            "[run]\n"
            "mu = 0 0.01 0.1\n"
            "t_final = 4.0\n"
            "sample_interval = 0.5\n"
            "k_max = 1\n"
            "[stepper]\n"
            "cfl_factor = 0.2\n"
            "dealias = yes\n",
            encoding="utf-8")
        cfg = RunConfig.from_ini(path)
        assert cfg.n == 64
        assert cfg.initial.profile == "spectral"
        assert cfg.initial.seed == 7
        assert cfg.mu_list == (0.0, 0.01, 0.1)
        assert cfg.stepper.cfl_factor == 0.2
        assert cfg.stepper.dealias is True

    def test_defaults_from_empty_sections(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nt_final = 8.0\n", encoding="utf-8")
        cfg = RunConfig.from_ini(path)
        assert cfg.n == 256
        assert cfg.t_final == 8.0

    def test_empty_file_gives_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("", encoding="utf-8")
        assert RunConfig.from_ini(path) == RunConfig()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.from_ini(tmp_path / "absent.ini")

    def test_bad_value(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[grid]\nn = many\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            RunConfig.from_ini(path)

    @pytest.mark.parametrize("section, key", sorted(
        (section, key) for section, keys in INI_KEYS.items() for key in keys
        if key != "scheme"))
    def test_no_key_silently_ignored(self, tmp_path, section, key):
        # only the spectral profile reads a seed, so both files set it
        head = "[initial]\nprofile = spectral\n" if key == "seed" else ""
        default = tmp_path / "default.ini"
        default.write_text(head, encoding="utf-8")
        path = tmp_path / "run.ini"
        path.write_text((head or f"[{section}]\n")
                        + f"{key} = {NON_DEFAULT[section, key]}\n",
                        encoding="utf-8")
        assert RunConfig.from_ini(path) != RunConfig.from_ini(default)

    def test_bad_boolean(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[stepper]\ndealias = maybe\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            RunConfig.from_ini(path)


class TestWorkerCount:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("VE2D_THREADS", raising=False)
        assert worker_count() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("VE2D_THREADS", "4")
        assert worker_count() == 4

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_rejected(self, monkeypatch, value):
        monkeypatch.setenv("VE2D_THREADS", value)
        with pytest.raises(ConfigError):
            worker_count()


class TestRunSimulation:
    def test_sampling_cadence(self, small_run):
        assert [rec.t for rec in small_run.records] == pytest.approx(
            [0.0, 0.5, 1.0, 1.5, 2.0])
        assert small_run.blowup_t is None
        assert small_run.final_state.t == pytest.approx(2.0)

    def test_series_accessor(self, small_run):
        ts, e1 = small_run.series("E1")
        assert len(ts) == len(e1) == 5
        assert np.all(e1 > 0)

    def test_artifacts_written(self, tmp_path):
        cfg = RunConfig(**SMALL, output_dir=str(tmp_path / "out"))
        run_simulation(cfg, mu=0.0)
        out = tmp_path / "out"
        assert (out / "run_mu0.csv").exists()
        assert (out / "final_mu0.snap").exists()
        assert (out / "summary_mu0.json").exists()
        assert (out / "energy_mu0.svg").exists()
        header = (out / "run_mu0.csv").read_text().splitlines()[0]
        assert header == dg.CSV_HEADER

    def test_k_max_3_summary_carries_the_order_3_series(self, tmp_path):
        # the CSV header is frozen, so the order-3 functionals go to the
        # summary as new keys, one value per sample; k_max = 2 has the
        # sample times but none of them
        keys = ("E3", "calE3", "X3", "Y3", "G3")
        cfg = RunConfig(**{**SMALL, "k_max": 3}, output_dir=str(tmp_path))
        run = run_simulation(cfg, mu=0.0)
        summary = json.loads((tmp_path / "summary_mu0.json").read_text())
        assert summary["sample_t"] == [rec.t for rec in run.records]
        for key in keys:
            assert summary[key] == [rec.values[key] for rec in run.records]
            assert all(v > 0 for v in summary[key]), key
        header = (tmp_path / "run_mu0.csv").read_text().splitlines()[0]
        assert header == dg.CSV_HEADER
        cfg = RunConfig(**{**SMALL, "k_max": 2},
                        output_dir=str(tmp_path / "k2"))
        run_simulation(cfg, mu=0.0)
        summary = json.loads((tmp_path / "k2" / "summary_mu0.json")
                             .read_text())
        assert "sample_t" in summary and not set(summary) & set(keys)

    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    def test_summary_carries_every_value_the_csv_leaves_out(self, tmp_path,
                                                             k_max):
        # the keys of a short run that did not blow up: its identity
        # maxima, then sample_t and a series of each record value that is
        # not a CSV column, in record order
        cfg = RunConfig(**{**SMALL, "t_final": 1.0, "k_max": k_max},
                        output_dir=str(tmp_path))
        run = run_simulation(cfg, mu=0.0)
        summary = json.loads((tmp_path / "summary_mu0.json").read_text())
        series = ["E3", "calE3", "X3", "Y3", "G3"] if k_max == 3 else []
        series.append("grad_sup")
        assert list(summary) == [
            "mu", "t_final", "blowup_t", "max_id45_res", "max_id417_res",
            "max_id218_res", "sample_t", *series]
        assert summary["sample_t"] == [rec.t for rec in run.records]
        for key in series:
            assert summary[key] == [rec.values[key] for rec in run.records]
        for col in ("id45_res", "id417_res", "id218_res"):
            assert summary[f"max_{col}"] == max(rec.values[col]
                                                for rec in run.records)

    def test_empty_output_dir_writes_nothing(self, tmp_path, monkeypatch):
        # an empty output_dir means no artifacts, as for a sweep, not
        # the working directory
        monkeypatch.chdir(tmp_path)
        run_simulation(RunConfig(**{**SMALL, "t_final": 0.5, "k_max": 0},
                                 output_dir=""), mu=0.0)
        assert list(tmp_path.iterdir()) == []

    def test_family_follows_the_dealias_setting(self):
        # the family takes d_t from the equation the run integrates, so a
        # run without dealiasing samples a family built without it
        cfg = RunConfig(**{**SMALL, "t_final": 0.5, "k_max": 2,
                           "stepper": StepperConfig(dealias=False)})
        run = run_simulation(cfg, mu=0.0)
        fam = derived_family(run.final_state, 2, dealias=False)
        assert run.records[-1].values == dg.sample_record(fam).values

    def test_sampling_builds_lean_families(self, monkeypatch):
        # a sample reads level 0 of each member, so the run streams each
        # sample's family without the residual level and holds no family;
        # the audit's one walk carries it, and stores no family either
        depths, stored = [], []
        walk = families._members
        store = families.DerivedFamily.__init__

        def members(state, k_max, dealias=True, residual=True):
            depths.append(residual)
            return walk(state, k_max, dealias, residual)

        def family(self, *args, **kwargs):
            stored.append(args)
            store(self, *args, **kwargs)

        monkeypatch.setattr(dg, "_members", members)
        monkeypatch.setattr(families, "_members", members)
        monkeypatch.setattr(families.DerivedFamily, "__init__", family)
        run_simulation(RunConfig(**SMALL), mu=0.0)
        assert depths == [False] * 5
        depths.clear()
        audit(RunConfig(**SMALL), n_random=0)
        assert depths == [True]
        assert stored == []

    def test_box_short_of_the_light_cone_rejected_before_the_run(
            self, monkeypatch):
        # the farthest point of the box, r = 0.35, is short of <t>/2 at
        # every sample; refused before a step or a pool starts
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(experiments, "evolve", no_run)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_run)
        monkeypatch.setenv("VE2D_THREADS", "2")
        cfg = RunConfig(n=16, box_len=0.5, t_final=0.125,
                        sample_interval=0.125, mu_list=(0.0, 0.1))
        for driver in (run_simulation, sweep_viscosity):
            with pytest.raises(ConfigError, match="light cone"):
                driver(cfg)

    def test_empty_viscosity_list_is_a_config_error(self):
        # not an IndexError from reading mu_list[0]
        with pytest.raises(ConfigError, match="mu needs at least one value"):
            run_simulation(RunConfig(**{**SMALL, "mu_list": ()}))

    @pytest.mark.parametrize("interval, fitted", [(0.25, True),
                                                  (0.5, False)])
    def test_summary_fits_good_sup_over_5_to_t(self, tmp_path, interval,
                                                fitted):
        # the summary holds fit_decay's exponent of good_sup over [5, T]
        # where that window holds 8 samples (13 at an interval of 0.25)
        # and neither key where it holds 7 (at 0.5)
        cfg = RunConfig(n=32, box_len=32.0, t_final=8.0,
                        sample_interval=interval, k_max=1,
                        output_dir=str(tmp_path))
        ts, good = run_simulation(cfg).series("good_sup")
        summary = json.loads((tmp_path / "summary_mu0.json").read_text(
            encoding="utf-8"))
        keys = ("good_sup_exponent", "good_sup_exponent_stderr")
        if fitted:
            assert np.all(good[ts >= 5.0] > 0)
            assert tuple(summary[k] for k in keys) == dg.fit_decay(
                ts, good, 5.0, 8.0)
        else:
            assert np.count_nonzero(ts >= 5.0) == 7
            assert not set(keys) & set(summary)

    def test_deterministic_rerun(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = RunConfig(**SMALL, output_dir=str(tmp_path / name))
            run_simulation(cfg, mu=0.01)
            outs.append((tmp_path / name / "run_mu0.01.csv").read_bytes())
        assert outs[0] == outs[1]


class TestSweep:
    def test_two_member_sweep(self):
        cfg = RunConfig(**{**SMALL, "mu_list": (0.0, 0.1)})
        report = sweep_viscosity(cfg)
        assert set(report["per_mu"]) == {mu_name(0.0), mu_name(0.1)}
        assert report["max_E1_ratio"] >= 1.0
        for entry in report["per_mu"].values():
            assert entry["max_E1_ratio"] > 0

    @pytest.mark.parametrize("driver, key, mus", [
        (sweep_viscosity, "per_mu", (0.0, 0.1)),
        (convergence_study, "table", (0.0, 0.1, 0.01, 0.001)),
    ], ids=["sweep_viscosity", "convergence_study"])
    def test_pool_capped_at_job_count(self, monkeypatch, driver, key, mus):
        # a stand-in pool that records its size and maps serially, so no
        # process starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setenv("VE2D_THREADS", "64")
        cfg = RunConfig(**{**SMALL, "t_final": 0.5, "mu_list": mus})
        report = driver(cfg)
        assert sizes == [len(mus)]
        assert set(report[key]) == {mu_name(mu) for mu in mus}

    def test_k_max_0_ratio_reads_e0(self):
        # k_max = 0 leaves E1 empty (NaN); the ratio reads E0 there, as
        # the blow-up ceiling of run_simulation does
        cfg = RunConfig(n=32, box_len=16.0, t_final=1.0, sample_interval=0.5,
                        k_max=0, mu_list=(0.0, 0.1))
        report = sweep_viscosity(cfg)
        for res in report["runs"]:
            _, e0 = res.series("E0")
            assert report["per_mu"][mu_name(res.mu)]["max_E1_ratio"] == (
                float(np.max(e0) / e0[0]))
            assert report["per_mu"][mu_name(res.mu)]["max_E1_ratio"] >= 1.0
        assert report["max_E1_ratio"] >= 1.0

    def test_k_max_3_records_cale3_exponent(self):
        # at k_max = 3 the calE3 growth exponent is fitted beside calE2's,
        # over the same window; it is recorded, not gated
        cfg = RunConfig(n=32, box_len=16.0, t_final=4.0,
                        sample_interval=0.25, k_max=3)
        report = sweep_viscosity(cfg)
        res, = report["runs"]
        for col in ("calE2", "calE3"):
            ts, ce = res.series(col)
            assert report["per_mu"][mu_name(0.0)][
                f"{col}_growth_exponent"] == dg.fit_decay(ts, ce, 1.0,
                                                          ts[-1])[0]
        lower = sweep_viscosity(replace(cfg, k_max=2))
        assert "calE3_growth_exponent" not in lower["per_mu"][mu_name(0.0)]
        assert lower["per_mu"][mu_name(0.0)]["calE2_growth_exponent"] == (
            report["per_mu"][mu_name(0.0)]["calE2_growth_exponent"])

    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    def test_growth_exponents_of_orders_2_to_k_max(self, k_max):
        cfg = RunConfig(n=32, box_len=16.0, t_final=4.0,
                        sample_interval=0.25, k_max=k_max)
        entry = sweep_viscosity(cfg)["per_mu"][mu_name(0.0)]
        assert set(entry) == {"max_E1_ratio", *(
            f"calE{k}_growth_exponent" for k in range(2, k_max + 1))}

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            sweep_viscosity(RunConfig(**{**SMALL, "mu_list": ()}))


class TestConvergence:
    def test_needs_inviscid_baseline(self):
        cfg = RunConfig(**{**SMALL, "mu_list": (0.1, 0.01, 0.001)})
        with pytest.raises(ConfigError):
            convergence_study(cfg)

    def test_reads_only_final_states(self, monkeypatch):
        # the table reads the final states alone: no run builds or walks a
        # family or takes a sample, yet each state is the one a sampled
        # run ends on
        cfg = RunConfig(**{**SMALL, "t_final": 0.5, "k_max": 2,
                           "mu_list": (0.0, 0.1, 0.01, 0.001)})
        calls = []

        def count(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return counted

        # every family, stored or streamed, is a _Family
        monkeypatch.setattr(families._Family, "__init__",
                            count("family", families._Family.__init__))
        monkeypatch.setattr(families, "_members",
                            count("walk", families._members))
        monkeypatch.setattr(dg, "_members", count("walk", dg._members))
        monkeypatch.setattr(dg, "sample_state",
                            count("sample", dg.sample_state))
        out = convergence_study(cfg)
        assert calls == []
        monkeypatch.undo()
        base = run_simulation(cfg, mu=0.0).final_state
        for mu in (0.1, 0.01, 0.001):
            final = run_simulation(cfg, mu=mu).final_state
            assert out["table"][mu_name(mu)] == state_l2_distance(final,
                                                                  base)
        assert out["table"][mu_name(0.0)] == 0.0

    def test_distance_metric(self, small_run):
        st = small_run.final_state
        assert state_l2_distance(st, st) == 0.0

    def test_distance_requires_shared_grid(self, small_run, evolved_state):
        with pytest.raises(ValueError):
            state_l2_distance(small_run.final_state, evolved_state)


class TestAudit:
    def test_report_structure(self, tmp_path):
        cfg = RunConfig(**SMALL, output_dir=str(tmp_path))
        report = audit(cfg, n_random=3)
        assert report["identity_residuals"]["null_split"] < 1e-11
        assert report["identity_residuals"]["f2_split"] < 1e-11
        assert report["identity_residuals"]["grad_split"] < 1e-7
        assert len(report["commutator_residuals"]) == len(
            list(report["commutator_residuals"]))
        assert (tmp_path / "audit.json").exists()
        on_disk = json.loads((tmp_path / "audit.json").read_text())
        assert set(on_disk) == {"identity_residuals",
                                "commutator_residuals",
                                "inequality_ratios"}

    def test_one_family_on_the_run_final_state(self, small_run, monkeypatch):
        # the audit evolves to the run's last sample time (4 intervals) and
        # walks its one family there, with the residual level, storing no
        # family and sampling nothing on the way
        walks, stored, sampled = [], [], []
        walk = families._members

        def members(state, k_max, dealias=True, residual=True):
            walks.append((state, residual))
            return walk(state, k_max, dealias, residual)

        def record(name):
            return lambda *args, **kwargs: sampled.append(name)

        monkeypatch.setattr(families, "_members", members)
        monkeypatch.setattr(families.DerivedFamily, "__init__",
                            lambda self, *args, **kwargs: stored.append(args))
        monkeypatch.setattr(dg, "sample_record", record("sample_record"))
        monkeypatch.setattr(dg, "sample_state", record("sample_state"))
        audit(RunConfig(**SMALL), n_random=0)
        final = small_run.final_state
        assert [residual for _, residual in walks] == [True]
        state = walks[0][0]
        assert state.t == final.t
        assert np.array_equal(state.V, final.V)
        assert np.array_equal(state.H, final.H)
        assert stored == [] and sampled == []

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("mu", [0.0, 1e-2])
    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    def test_streamed_report_equals_the_stored_family(self, k_max, mu,
                                                      dealias):
        # the audit forms each residual as the walk yields its member and
        # keeps only what later readers need; a stored family read in
        # index order gives the same report, value for value and in the
        # same key order
        cfg = RunConfig(**{**SMALL, "t_final": 0.5, "k_max": k_max,
                           "mu_list": (mu,),
                           "stepper": StepperConfig(dealias=dealias)})
        report = audit(cfg, n_random=0)
        state = experiments._final_state(cfg, mu)
        fam = derived_family(state, k_max, dealias)
        commutators = {str(idx): dict(zip(("r1", "r2", "r3"),
                                          commutator_residuals(fam, idx)))
                       for idx in fam.indices}
        ratios = dg.weighted_sobolev_ratios(state.grid, state.V, t=state.t)
        ratios.update(dg.nonlinearity_decay_ratios(fam))
        assert list(report["commutator_residuals"].items()) == list(
            commutators.items())
        assert list(report["inequality_ratios"].items()) == list(
            ratios.items())

    @pytest.mark.parametrize("k_max, share", [(2, 0.8), (3, 0.6)])
    def test_peak_memory(self, evolved_state, k_max, share, peak):
        # tracemalloc peaks of the audit's reads of one family: the
        # streamed walk measured 0.70-0.74 (k_max = 2) and 0.50-0.55
        # (k_max = 3) of the stored family read the same way, at n = 64
        # and 128 and mu in {0, 1e-2}
        def stored():
            fam = derived_family(evolved_state, k_max)
            for idx in fam.indices:
                commutator_residuals(fam, idx)
            dg.nonlinearity_decay_ratios(fam)

        def streamed():
            experiments._family_checks(evolved_state, k_max, True)

        stored(), streamed()  # the grid's lazy arrays, built untraced
        assert peak(streamed) <= share * peak(stored)


class TestCsvWriter:
    def test_round_trip(self, small_run, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(path, small_run.records)
        lines = path.read_text().splitlines()
        assert lines[0] == dg.CSV_HEADER
        assert len(lines) == 1 + len(small_run.records)
        first = dict(zip(dg.CSV_HEADER.split(","),
                         map(float, lines[1].split(","))))
        assert first["t"] == 0.0
        assert first["constraint_Linf"] == 0.0

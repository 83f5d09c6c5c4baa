"""Config-driven experiment drivers: single runs, viscosity sweeps,
vanishing-viscosity convergence, and identity/inequality audits.

Configs are INI files (UTF-8, '#' comments; a file that is not UTF-8
is a ConfigError) with sections [grid], [initial], [run], [stepper];
_INI_TABLE lists their keys and what each sets.  Each viscosity is named
by mu_name in file names and keys, and no two of one config may share a
name.  sweep_viscosity and convergence_study key their reports by it
where they build them, and write those reports as they return them
(a sweep less its runs).  The viscosities of a sweep or a convergence
study run in a process pool whose size is controlled by the VE2D_THREADS
environment variable (a positive integer, default 1: fully deterministic
artifacts), capped at one worker per viscosity.

Each driver computes only what it reports: a run samples diagnostics at
every sample time, a convergence study and an audit evolve to their last
state without sampling, so only the step's finite check stops them.  No
driver stores a family: a run streams each sample's walk
(diagnostics.sample_state), and the audit forms each commutator residual
as its one walk yields the member (_family_checks).  simulate and audit
read only the first value of [run] mu; sweep-mu and converge read all.
Only cfg.output_dir decides whether artifacts are written: they are
written when it is set and not empty.  A driver creates it before it
runs, so a path that cannot be a directory is a ConfigError, not a
failure after the run.
"""

import configparser
import contextlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import diagnostics as dg
from . import spectral as sp
from . import svg
from .dynamics import BlowUpError, StepperConfig, evolve
from .families import _Family, commutator_residuals
from .grid import Grid
from .state import (InitialDataParams, PotentialState, make_initial_data,
                    write_snapshot)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# the most sample intervals a run may take: each sample appends a record
_MAX_SAMPLES = 10 ** 6


def mu_name(mu: float) -> str:
    """The name of a viscosity in file names, JSON keys and printed keys:
    its %g form, 6 significant digits.  RunConfig refuses two viscosities
    of one name, whose files and keys would collide."""
    return f"{mu:g}"


@dataclass(frozen=True)
class RunConfig:
    n: int = 256
    box_len: float = 64.0
    initial: InitialDataParams = field(default_factory=InitialDataParams)
    mu_list: tuple[float, ...] = (0.0,)
    t_final: float = 16.0
    sample_interval: float = 1.0
    k_max: int = 2
    stepper: StepperConfig = field(default_factory=StepperConfig)
    dt: float | None = None
    output_dir: str | None = None
    # t_final / sample_interval, set once by __post_init__
    _samples: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ConfigError(f"n must be even and >= 8, got {self.n}")
        # the range checks are written so that a NaN fails each of them
        if not 0.0 < self.box_len < np.inf:
            raise ConfigError("box_len must be positive and finite")
        if not 0 <= self.k_max <= 3:
            raise ConfigError(f"k_max must lie in [0, 3], got {self.k_max}")
        if self.initial.mu != 0.0:
            raise ConfigError(f"initial.mu = {self.initial.mu} is not read: "
                              "a run's viscosity comes from mu_list")
        radius = self.initial.support_radius
        if radius is not None and radius >= self.box_len / 4.0:
            raise ConfigError("support_radius must be below box_len/4")
        if not 0.0 <= self.t_final <= self.box_len / 4.0 + 1e-12:
            raise ConfigError("t_final must lie in [0, box_len/4]")
        if self.dt is not None and not 0.0 < self.dt < np.inf:
            raise ConfigError("dt must be positive and finite")
        if (self.dt is not None
                and self.stepper.cfl_factor != StepperConfig.cfl_factor):
            raise ConfigError("cfl_factor is not read when dt is set: "
                              "give one of them")
        if self.initial.seed != 0 and self.initial.profile != "spectral":
            raise ConfigError("seed is read only by profile = spectral, "
                              f"not by {self.initial.profile}")
        if not self.mu_list:
            raise ConfigError("mu needs at least one value")
        # + 0.0 turns -0 into 0, in the value and in its name
        mus = tuple(mu + 0.0 for mu in self.mu_list)
        object.__setattr__(self, "mu_list", mus)
        names = [mu_name(mu) for mu in mus]
        for i, mu in enumerate(mus):
            if not 0.0 <= mu <= 1.0:
                raise ConfigError(f"viscosity {mu} outside [0, 1]")
            if names[i] in names[:i]:
                raise ConfigError(f"viscosity {mu} repeated (as {names[i]})")
        if not 0.0 < self.sample_interval < np.inf:
            raise ConfigError("sample_interval must be positive and finite")
        samples = self.t_final / self.sample_interval
        if not samples <= _MAX_SAMPLES:  # an overflow to inf fails it too
            raise ConfigError(f"t_final / sample_interval = {samples:.6g} "
                              f"exceeds {_MAX_SAMPLES} samples")
        if abs(samples - round(samples)) > 1e-9:
            raise ConfigError("t_final must be a multiple of sample_interval")
        object.__setattr__(self, "_samples", round(samples))

    @classmethod
    def from_ini(cls, path) -> "RunConfig":
        # values are read literally: a '%' is a character, not a reference
        parser = configparser.ConfigParser(interpolation=None,
                                           inline_comment_prefixes=("#",))
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        if not read:
            raise ConfigError(f"config file not found: {path}")
        sections = parser.sections() + ["DEFAULT"] * bool(parser.defaults())
        for name in sections:
            if name not in INI_KEYS:
                raise ConfigError(f"unknown section [{name}]")
            for key in parser[name]:
                if key not in INI_KEYS[name]:
                    raise ConfigError(f"unknown key {key!r} in [{name}]")
        if (parser.has_option("stepper", "dt")
                and parser.has_option("stepper", "cfl_factor")):
            raise ConfigError("[stepper] sets both dt and cfl_factor; "
                              "cfl_factor is not read when dt is set")
        profile = parser.get("initial", "profile",
                             fallback=InitialDataParams.profile)
        if parser.has_option("initial", "seed") and profile != "spectral":
            raise ConfigError(f"[initial] sets seed with profile = {profile}; "
                              "seed is read only by profile = spectral")

        def fields(target):
            """The fields of target that the file gives, parsed."""
            return {name: parse(parser[section][key])
                    for (section, key), (owner, name, parse)
                    in _INI_TABLE.items()
                    if owner is target and parser.has_option(section, key)}

        try:
            # arguments are evaluated in order: each dataclass is built as
            # soon as its values are parsed
            return cls(initial=InitialDataParams(**fields(InitialDataParams)),
                       stepper=StepperConfig(**fields(StepperConfig)),
                       **fields(cls))
        except (KeyError, ValueError, TypeError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad config value: {exc}") from exc


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(m) for m in text.replace(",", " ").split())


# Each [section] key of a config: the dataclass it sets, the field it sets
# there and that field's parser.  Within a dataclass the values are parsed
# in this order.  from_ini passes only the keys a file gives, so the
# dataclasses hold the only defaults; an empty output_dir means none.
_INI_TABLE = {
    ("initial", "amplitude"): (InitialDataParams, "amplitude", float),
    ("initial", "profile"): (InitialDataParams, "profile", str),
    ("initial", "support_radius"): (InitialDataParams, "support_radius",
                                    float),
    ("initial", "seed"): (InitialDataParams, "seed", int),
    ("stepper", "cfl_factor"): (StepperConfig, "cfl_factor", float),
    ("stepper", "scheme"): (StepperConfig, "scheme", str),
    ("stepper", "dealias"): (StepperConfig, "dealias", _parse_bool),
    ("grid", "n"): (RunConfig, "n", int),
    ("grid", "box_len"): (RunConfig, "box_len", float),
    ("run", "mu"): (RunConfig, "mu_list", _parse_floats),
    ("run", "t_final"): (RunConfig, "t_final", float),
    ("run", "sample_interval"): (RunConfig, "sample_interval", float),
    ("run", "k_max"): (RunConfig, "k_max", int),
    ("stepper", "dt"): (RunConfig, "dt", float),
    ("run", "output_dir"): (RunConfig, "output_dir",
                            lambda text: text or None),
}

INI_KEYS = {section: {k for s, k in _INI_TABLE if s == section}
            for section, _ in _INI_TABLE}


def worker_count() -> int:
    env = os.environ.get("VE2D_THREADS") or "1"
    try:
        count = int(env)
    except ValueError:
        raise ConfigError(f"VE2D_THREADS is not an integer: {env!r}") from None
    if count < 1:
        raise ConfigError(f"VE2D_THREADS must be at least 1, got {count}")
    return count


@dataclass
class RunResult:
    mu: float
    records: list[dg.DiagnosticsRecord]
    final_state: PotentialState
    blowup_t: float | None = None

    def series(self, column: str) -> tuple[np.ndarray, np.ndarray]:
        ts = np.array([rec.t for rec in self.records])
        vs = np.array([rec.values[column] for rec in self.records])
        return ts, vs


def _trajectory(cfg: RunConfig, mu: float, grid: Grid):
    """Yield the state at each sample time k * sample_interval, t = 0
    included, on grid, the Grid of cfg.

    Each evolve lands exactly on its sample time, so the steps taken do not
    depend on what the caller does with the states.  Overflow on the way to
    a non-finite field is silenced: the step's finite check reports it as a
    BlowUpError.
    """
    state = make_initial_data(grid, replace(cfg.initial, mu=mu))
    for k in range(cfg._samples + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            state = evolve(state, k * cfg.sample_interval, cfg.stepper,
                           cfg.dt)
        yield state


def _final_state(cfg: RunConfig, mu: float) -> PotentialState:
    """The state at t_final, reached through the steps of a sampled run."""
    for state in _trajectory(cfg, mu, Grid(cfg.n, cfg.box_len)):
        pass
    return state


def _energy_column(k_max: int) -> str:
    """The energy a run's growth is read from: E1, or E0 where k_max = 0
    leaves E1 empty."""
    return "E1" if k_max >= 1 else "E0"


def _check_light_cone(cfg: RunConfig, grid: Grid) -> None:
    """Reject a box, grid of cfg, in which a sample would find no point of
    the light cone: the cone shrinks as t grows, so t_final is the worst
    case."""
    if not np.any(dg._light_cone(grid, cfg.t_final)):
        raise ConfigError(f"box_len = {cfg.box_len:g} holds no point of "
                          "the light cone r >= <t>/2 at t_final = "
                          f"{cfg.t_final:g}")


def run_simulation(cfg: RunConfig, mu: float | None = None) -> RunResult:
    """Evolve from the configured initial data, sampling diagnostics.

    Artifacts (CSV, final snapshot, summary JSON, SVG plots) are written
    when cfg.output_dir is set and not empty; a blow-up leaves a partial
    CSV plus a failure marker carrying the blow-up time.  A box with no
    point of the light cone at t_final is a ConfigError, before any step.
    """
    if mu is None:
        mu = cfg.mu_list[0]
    grid = Grid(cfg.n, cfg.box_len)
    _check_light_cone(cfg, grid)
    out = _output_dir(cfg)
    energy = _energy_column(cfg.k_max)  # the blow-up ceiling reads it
    ceiling = None
    records = []
    blowup_t = None
    try:
        for state in _trajectory(cfg, mu, grid):
            # the sample streams the family and holds none of it past
            # the call, so a sample and a step never hold memory at once
            rec = dg.sample_state(state, cfg.k_max, cfg.stepper.dealias)
            records.append(rec)
            e = rec.values[energy]
            if ceiling is None:
                ceiling = 100.0 * max(e, 1e-300)
            elif e > ceiling:
                raise BlowUpError(state.t)
    except BlowUpError as exc:
        blowup_t = exc.t

    result = RunResult(mu=mu, records=records, final_state=state,
                       blowup_t=blowup_t)
    if out is not None:
        _write_run_artifacts(out, result)
    return result


def write_csv(path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dg.CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.to_csv_row() + "\n")


def _output_dir(cfg: RunConfig) -> Path | None:
    """cfg.output_dir, created, or None when it is not set or empty.  Each
    driver calls it before it runs, so a path that cannot be a directory
    fails as a ConfigError before any work."""
    if not cfg.output_dir:
        return None
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {cfg.output_dir!r}: "
                          f"{exc.strerror}") from None
    return out


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)


def _write_run_artifacts(out: Path, result: RunResult) -> None:
    tag = f"mu{mu_name(result.mu)}"
    write_csv(out / f"run_{tag}.csv", result.records)
    write_snapshot(out / f"final_{tag}.snap", result.final_state)
    summary = {"mu": result.mu, "t_final": result.final_state.t,
               "blowup_t": result.blowup_t}
    ts, good = result.series("good_sup")
    if result.blowup_t is None:
        # no exponent where fit_decay refuses the window [5, T]
        with contextlib.suppress(ValueError):
            p, err = dg.fit_decay(ts, good, 5.0, ts[-1])
            summary["good_sup_exponent"] = p
            summary["good_sup_exponent_stderr"] = err
        for col in ("id45_res", "id417_res", "id218_res"):
            summary[f"max_{col}"] = float(np.max(result.series(col)[1]))
    # a series of every record value the frozen CSV header leaves out
    summary["sample_t"] = ts.tolist()
    for col in result.records[0].values:
        if col not in dg.CSV_COLUMNS:
            summary[col] = result.series(col)[1].tolist()
    _write_json(out / f"summary_{tag}.json", summary)
    if result.blowup_t is not None:
        (out / f"BLOWUP_{tag}").write_text(
            f"blow-up at t = {result.blowup_t}\n", encoding="utf-8")
        return
    _, e1 = result.series("E1")
    if np.any(np.isfinite(e1)):  # k_max = 0 leaves E1 empty
        svg.line_plot(out / f"energy_{tag}.svg", ts, e1, "E1",
                      title=f"E1 history, mu = {result.mu:g}",
                      xlabel="t", ylabel="E1")
    if np.count_nonzero((good > 0) & (ts > 0)) >= 2:
        svg.line_plot(out / f"decay_{tag}.svg", ts, good, "good_sup",
                      title=f"good-unknown decay, mu = {result.mu:g}",
                      xlabel="t", ylabel="sup", logx=True, logy=True)


def _map_viscosities(fn, cfg: RunConfig, mus) -> list:
    """[fn(cfg, mu) for mu in mus] with output_dir cleared, in a pool of
    worker_count() processes, at most one per mu (serial at one)."""
    run = partial(fn, replace(cfg, output_dir=None))
    # the pool starts all its workers up front: no more than the jobs
    workers = min(worker_count(), len(mus))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, mus))
    return [run(mu) for mu in mus]


def sweep_viscosity(cfg: RunConfig) -> dict:
    """Run every mu in cfg.mu_list from identical initial data.

    Returns the runs, the mu list, the overall energy-ratio maximum and
    per_mu, keyed by mu_name in mu_list order: each viscosity's
    energy-ratio maximum and its fitted calE_k growth exponents for
    2 <= k <= k_max over [1, T], each where fit_decay accepts the window
    (calE3's recorded, not gated).  The ratios keep the name max_E1_ratio
    but read E0 at k_max = 0, as the blow-up ceiling does.  Artifacts:
    run_mu{name}.csv per viscosity and sweep_summary.json, the report
    without its runs.
    """
    _check_light_cone(cfg, Grid(cfg.n, cfg.box_len))
    out = _output_dir(cfg)
    results = _map_viscosities(run_simulation, cfg, cfg.mu_list)
    report = {"mu": list(cfg.mu_list), "runs": results, "per_mu": {}}
    overall = 0.0
    for res in results:
        if res.blowup_t is not None:
            raise BlowUpError(res.blowup_t)
        ts, e = res.series(_energy_column(cfg.k_max))
        ratio = float(np.max(e) / e[0]) if e[0] > 0 else 0.0
        entry = {"max_E1_ratio": ratio}
        for k in range(2, cfg.k_max + 1):
            ts, ce = res.series(f"calE{k}")
            with contextlib.suppress(ValueError):
                entry[f"calE{k}_growth_exponent"] = dg.fit_decay(
                    ts, ce, 1.0, ts[-1])[0]
        report["per_mu"][mu_name(res.mu)] = entry
        overall = max(overall, ratio)
    report["max_E1_ratio"] = overall
    if out is not None:
        for res in results:
            write_csv(out / f"run_mu{mu_name(res.mu)}.csv", res.records)
        _write_json(out / "sweep_summary.json",
                    {k: v for k, v in report.items() if k != "runs"})
    return report


def state_l2_distance(a: PotentialState, b: PotentialState) -> float:
    """L2 norm of the difference of (V, H) pairs on a shared grid."""
    if a.grid != b.grid:
        raise ValueError("states live on different grids")
    return float(np.sqrt(sp.l2_norm_sq(a.grid, a.V - b.V)
                         + sp.l2_norm_sq(a.grid, a.H - b.H)))


def convergence_study(cfg: RunConfig) -> dict:
    """Vanishing-viscosity table: ||U_mu(T) - U_0(T)||_L2 and fitted order.

    The table is keyed by mu_name, the positive viscosities descending and
    then "0"; the report is what convergence.json holds, beside the
    convergence.svg plot.  Requires mu_list to contain 0 and at least
    three positive values, each of whose final states differs from the
    mu = 0 one (a ConfigError otherwise, raised before any artifact is
    written).  Each viscosity evolves to t_final without sampling, so
    k_max is not read and only the step's finite check reports a blow-up
    (a BlowUpError).
    """
    positive = sorted((m for m in cfg.mu_list if m > 0), reverse=True)
    if 0.0 not in cfg.mu_list or len(positive) < 3:
        raise ConfigError("convergence study needs mu = 0 plus >= 3 "
                          "positive viscosities")
    outdir = _output_dir(cfg)
    base, *finals = _map_viscosities(_final_state, cfg, [0.0] + positive)
    dists = np.array([state_l2_distance(final, base) for final in finals])
    if not np.all(dists > 0):
        raise ConfigError("convergence study needs every positive viscosity "
                          "to end away from the mu = 0 state")
    table = {mu_name(mu): d for mu, d in zip(positive, dists.tolist())}
    table[mu_name(0.0)] = 0.0
    order = float(np.polyfit(np.log(positive), np.log(dists), 1)[0])
    out = {"table": table, "fitted_order": order}
    if outdir is not None:
        _write_json(outdir / "convergence.json", out)
        svg.line_plot(outdir / "convergence.svg", positive, dists, "L2 diff",
                      title="vanishing-viscosity convergence",
                      xlabel="mu", ylabel="||U_mu(T) - U_0(T)||",
                      logx=True, logy=True)
    return out


def _family_checks(state: PotentialState, k_max: int, dealias: bool
                   ) -> tuple[dict, dict[str, float]]:
    """The audit's reads of the family of state: the commutator residuals
    of every index, keyed and ordered by index, and the nonlinearity decay
    ratios.  One walk, no stored family: each residual is formed as the
    walk yields its member, which is then dropped unless a later residual
    or the ratios read it."""
    def keep(idx):
        # level 0 of the U^(l,a) a later viscous term reads (order < k_max,
        # at mu > 0) and of the U^(0,a) with |a| = 1 or 2, which
        # nonlinearity_decay_ratios reads
        return ((state.mu > 0 and idx.order < k_max)
                or (idx.alpha == 0 and 1 <= idx.order <= 2))

    fam = _Family(state, k_max, dealias, residual=True)
    residuals = {idx: commutator_residuals(fam, idx)
                 for idx in fam.walk(keep)}
    commutators = {str(idx): dict(zip(("r1", "r2", "r3"), residuals[idx]))
                   for idx in fam.indices}
    return commutators, dg.nonlinearity_decay_ratios(fam)


def audit(cfg: RunConfig, n_random: int = 20) -> dict:
    """Identity checks on random fields and on a (short) evolved state.

    The short run evolves to the sample time nearest min(T, 4) at the
    first viscosity of cfg.mu_list, without sampling: no diagnostics are
    recorded, so only the step's finite check stops it, and its
    BlowUpError propagates.  The commutator residuals and the
    nonlinearity decay ratios come from one streamed walk of the family
    there (_family_checks).
    """
    out = _output_dir(cfg)
    grid = Grid(min(cfg.n, 128), cfg.box_len)
    worst = {}
    for trial in range(n_random):
        V = sp.random_band_limited(grid, 7 * trial)
        H = np.stack([sp.random_band_limited(grid, 7 * trial + i)
                      for i in (1, 2)])
        Vp = sp.random_band_limited(grid, 7 * trial + 3)
        Hp = np.stack([sp.random_band_limited(grid, 7 * trial + i)
                       for i in (4, 5)])
        res = dg.identity_checks(grid, V, H, Vp, Hp,
                                 t=float(trial % 5))
        for name, val in res.items():
            worst[name] = max(worst.get(name, 0.0), val)

    k = round(min(cfg.t_final, 4.0) / cfg.sample_interval)
    state = _final_state(replace(cfg, t_final=k * cfg.sample_interval),
                         cfg.mu_list[0])
    commutators, decay = _family_checks(state, cfg.k_max, cfg.stepper.dealias)
    ratios = dg.weighted_sobolev_ratios(state.grid, state.V, t=state.t)
    ratios.update(decay)
    report = {"identity_residuals": worst, "commutator_residuals": commutators,
              "inequality_ratios": ratios}
    if out is not None:
        _write_json(out / "audit.json", report)
    return report

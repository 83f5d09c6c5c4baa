"""Benchmark of ve2d, driven through its command-line entry point.

    python3 bench/run.py --workload desk_run --seed 1 --seconds 32 --trace 0

Runs from the root of a source checkout and imports ve2d from its `src`
directory.  One process, one workload: the generated INI config is passed
to `ve2d.cli.main` in-process, repeated as often as fits in --seconds (at
least once), and each run's artifacts are checked (see checks.py).
VE2D_THREADS is unset, so ve2d uses one worker; numpy's FFT is
single-threaded.

--trace 0 prints the end-to-end metrics: wall_s and sim_time_per_s
(medians over the repeats), setup_s, peak_rss_mb and ok_frac.
--trace 1 first repeats the workload untraced, then with spans on the
public functions of every ve2d module and on the numpy.fft transforms, and
prints the per-layer metrics and the tracing overhead; the spans are
written to .bench_out/.  spread.py runs every workload over several seeds
and prints each metric's median and spread.

Times are in reference seconds (see calibrate).  The measured seconds are
printed above the metrics, and with --trace 0 also on a line starting
"measured ", which spread.py collects.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import AUDITED_INDICES, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
# spans of the traced run: the public functions the per-layer table names
TARGETS = (
    ("cli", "main"),
    ("experiments", "run_simulation"), ("experiments", "audit"),
    ("experiments", "write_csv"),
    ("dynamics", "step"), ("dynamics", "rhs_potential"),
    ("dynamics", "choose_dt"),
    ("families", "derived_family"), ("families", "base_jet"),
    ("families", "apply_field"), ("families", "nonlinearity_f"),
    ("families", "commutator_residuals"),
    ("diagnostics", "sample_record"), ("diagnostics", "energies"),
    ("diagnostics", "weighted_norms"), ("diagnostics", "good_unknown_norms"),
    ("diagnostics", "identity_checks"),
    ("diagnostics", "nonlinearity_decay_ratios"),
    ("state", "make_initial_data"), ("state", "write_snapshot"),
    ("svg", "line_plot"),
)
STEP = ("dynamics", "step")
STEP_SPAN = "dynamics.step"


def _array_bytes(arrays) -> int:
    """Bytes of the distinct buffers behind the arrays (views share one)."""
    owners = {}
    for a in arrays:
        while a.base is not None:
            a = a.base
        owners[id(a)] = a.nbytes
    return sum(owners.values())


def _family_bytes(args, fam) -> int:
    return _array_bytes(arr for idx in fam.indices
                        for arr in (fam.jet(idx).V, fam.jet(idx).H))


def _snapshot_bytes(args, result) -> int:
    return os.path.getsize(args[0])


OBSERVERS = {"families.derived_family": _family_bytes,
             "state.write_snapshot": _snapshot_bytes}

# (metric, span, kind); kinds are defined in layer_metrics
PER_LAYER = (
    ("spectral.fft.calls", "spectral.fft", "calls"),
    ("spectral.fft.points", "spectral.fft", "points"),
    ("spectral.fft.busy_s", "spectral.fft", "busy_s"),
    ("dynamics.step.calls", "dynamics.step", "calls"),
    ("dynamics.step.ms", "dynamics.step", "ms"),
    ("dynamics.step.self_ms", "dynamics.step", "self_ms"),
    ("dynamics.step.fft_calls", "dynamics.step", "fft_calls"),
    ("dynamics.rhs_potential.ms", "dynamics.rhs_potential", "ms"),
    ("dynamics.rhs_potential.fft_calls", "dynamics.rhs_potential",
     "fft_calls"),
    ("dynamics.choose_dt.ms", "dynamics.choose_dt", "ms"),
    ("families.derived_family.ms", "families.derived_family", "ms"),
    ("families.derived_family.fft_calls", "families.derived_family",
     "fft_calls"),
    ("families.base_jet.ms", "families.base_jet", "ms"),
    ("families.apply_field.ms", "families.apply_field", "ms"),
    ("families.family_bytes", "families.derived_family", "bytes"),
    ("families.nonlinearity_f.ms", "families.nonlinearity_f", "ms"),
    ("families.nonlinearity_f.fft_calls", "families.nonlinearity_f",
     "fft_calls"),
    ("families.commutator_residuals.ms", "families.commutator_residuals",
     "ms"),
    ("families.commutator_residuals.fft_calls",
     "families.commutator_residuals", "fft_calls"),
    ("diagnostics.sample_record.ms", "diagnostics.sample_record", "ms"),
    ("diagnostics.sample_record.fft_calls", "diagnostics.sample_record",
     "fft_calls"),
    ("diagnostics.energies.ms", "diagnostics.energies", "ms"),
    ("diagnostics.energies.fft_calls", "diagnostics.energies", "fft_calls"),
    ("diagnostics.weighted_norms.ms", "diagnostics.weighted_norms", "ms"),
    ("diagnostics.weighted_norms.fft_calls", "diagnostics.weighted_norms",
     "fft_calls"),
    ("diagnostics.good_unknown_norms.ms", "diagnostics.good_unknown_norms",
     "ms"),
    ("diagnostics.good_unknown_norms.fft_calls",
     "diagnostics.good_unknown_norms", "fft_calls"),
    ("diagnostics.identity_checks.ms", "diagnostics.identity_checks", "ms"),
    ("diagnostics.identity_checks.fft_calls", "diagnostics.identity_checks",
     "fft_calls"),
    ("diagnostics.nonlinearity_decay_ratios.ms",
     "diagnostics.nonlinearity_decay_ratios", "ms"),
    ("diagnostics.nonlinearity_decay_ratios.fft_calls",
     "diagnostics.nonlinearity_decay_ratios", "fft_calls"),
    ("state.make_initial_data.ms", "state.make_initial_data", "ms"),
    ("state.write_snapshot.ms", "state.write_snapshot", "ms"),
    ("state.write_snapshot.bytes", "state.write_snapshot", "bytes"),
    ("experiments.run_simulation.self_s", "experiments.run_simulation",
     "self_s"),
    ("experiments.audit.self_s", "experiments.audit", "self_s"),
    ("experiments.write_csv.ms", "experiments.write_csv", "ms"),
    ("svg.line_plot.ms", "svg.line_plot", "ms"),
    ("cli.main.self_s", "cli.main", "self_s"),
)
UNITS = {"calls": "count", "points": "count", "busy_s": "s", "ms": "ms",
         "self_ms": "ms", "self_s": "s", "fft_calls": "count", "bytes": "B"}
END_TO_END_UNITS = {"wall_s": "s", "sim_time_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "fraction"}


def layer_metrics(table: dict, reps: int, scale: float = 1.0
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from summarized spans of `reps` workload runs.

    calls, points, busy_s and self_s are per workload run; ms and self_ms
    are medians per call; fft_calls is FFTs per call; bytes is the median
    observed size.  Times are multiplied by `scale`.  A layer the workload
    never calls reads 0.
    """
    out = {}
    for metric, span, kind in PER_LAYER:
        row = table.get(span)
        value = 0.0
        if row and row["calls"]:
            value = {
                "calls": lambda: row["calls"] / reps,
                "points": lambda: row["points"] / reps,
                "busy_s": lambda: scale * sum(row["durations"]) / reps,
                "ms": lambda: (scale * 1e3
                               * statistics.median(row["durations"])),
                "self_ms": lambda: (scale * 1e3
                                    * statistics.median(row["self"])),
                "self_s": lambda: scale * sum(row["self"]) / reps,
                "fft_calls": lambda: row["ffts"] / row["calls"],
                "bytes": lambda: statistics.median(row.get("observed", [0])),
            }[kind]()
        out[metric] = (float(value), UNITS[kind])
    return out


# ---------------------------------------------------------------------------
# the program under test

class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import ve2d.cli from this checkout's src; any other copy is refused."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ve2d.cli as cli
    except ImportError as exc:
        raise ProgramMissing(f"cannot import ve2d from {src}: {exc}") from exc
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise ProgramMissing(f"ve2d was imported from {cli.__file__}, "
                             f"not from {src}")
    return cli


# The shared machine runs at speeds that drift by up to 1.8x over minutes,
# in phases that outlast a run; pure-Python loops slow too, and kernels
# that move more memory track the slowdown of ve2d best.  Each repeat is
# therefore bracketed by a fixed numpy kernel shaped like ve2d's work (2D
# FFTs at n = 256 over a stack of fields, elementwise products), and times
# are reported in reference seconds: those of a machine on which the kernel
# takes CALIBRATION_S, its typical time where the seed numbers were taken.
# The kernel holds about 20 MB, well under any workload's peak RSS.
CALIBRATION_S = 0.110


def calibrate(passes: int = 5) -> float:
    """Median time of the calibration kernel over a few passes."""
    x0 = np.random.default_rng(0).standard_normal((8, 256, 256))
    k = np.fft.fftfreq(256)[:, None] * np.ones(256)
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        x = x0
        for _ in range(4):
            x = np.fft.ifft2(np.fft.fft2(x) * k).real * x + x0
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Rep:
    wall_s: float           # as measured
    calib_s: float          # calibration kernel time around this repeat
    outcome: checks.Outcome

    @property
    def ref_s(self) -> float:
        """Wall seconds at the reference machine speed."""
        return self.wall_s * CALIBRATION_S / self.calib_s


def execute(cli, workload, seed: int, workdir: Path, output=True):
    """Write the config and run it through cli.main; returns (exit code,
    wall seconds of the call, artifacts directory)."""
    artifacts = workdir / "artifacts"
    config = workdir / "run.ini"
    config.write_text(workload.config(seed, artifacts if output else None),
                      encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with (contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        try:
            code = cli.main([workload.command, "--config", str(config)])
        except Exception:  # noqa: BLE001 - a crash is a failed run
            traceback.print_exc(file=stderr)
            code = "exception"
    wall = time.perf_counter() - start
    if code != 0:
        print(f"{workload.name}: exit {code}: {stderr.getvalue().strip()}",
              file=sys.stderr)
    return code, wall, artifacts


def check(workload, code, artifacts: Path, steps: int, reference: dict,
          seed: int) -> checks.Outcome:
    ref = reference.get(workload.name, {})
    seeds = ref.get("seeds", {})
    if workload.command == "audit":
        return checks.check_audit(
            code, artifacts / "audit.json", workload.samples, steps,
            AUDITED_INDICES, ref.get("commutator_ceilings", {}),
            seeds.get(str(seed), {}).get("inequality_ratios"))
    return checks.check_simulation(
        code, artifacts / f"run_mu{workload.mu:g}.csv", workload.mu,
        workload.samples, steps, seeds.get(str(seed)))


def install(tracer: spans.Tracer, targets) -> callable:
    """Install spans on `targets`; returns the undo.

    A target that ve2d no longer defines is an error: its metrics would
    read 0, like a layer the workload never calls, and a missing
    dynamics.step would drop every step from `attempted`.
    """
    undo, missing = spans.install_spans(tracer, "ve2d", targets, OBSERVERS)
    if missing:
        undo()
        raise ProgramMissing("ve2d does not define " + ", ".join(missing)
                             + "; update TARGETS in bench/run.py")
    return undo


def run_reps(cli, workload, seed: int, seconds: float, reference: dict,
             tracer: spans.Tracer, targets) -> list[Rep]:
    """Repeat the workload while another repeat, as long as the last one,
    would end within `seconds`; the first repeat always runs.

    `tracer` records spans of `targets` during each cli.main call; its
    dynamics.step spans give the step count of each run.
    """
    undo = install(tracer, targets)
    reps = []
    start = time.perf_counter()
    calib = calibrate()
    try:
        while (not reps or time.perf_counter() - start + reps[-1].wall_s
               <= seconds):
            first = len(tracer.spans)
            workdir = Path(tempfile.mkdtemp(dir=OUT))
            try:
                tracer.active = True
                try:
                    code, wall, artifacts = execute(cli, workload, seed,
                                                    workdir)
                finally:
                    tracer.active = False
                steps = sum(1 for s in tracer.spans[first:]
                            if s[0] == STEP_SPAN)
                outcome = check(workload, code, artifacts, steps, reference,
                                seed)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            for problem in outcome.problems:
                print(f"{workload.name}: {problem}", file=sys.stderr)
            after = calibrate()
            reps.append(Rep(wall, (calib + after) / 2, outcome))
            calib = after
    finally:
        undo()
    return reps


def setup_once(cli, workload, seed: int) -> float:
    """Config generation, Grid construction and one small warm-up run,
    so numpy's FFT plans and allocations are warm before timing."""
    from ve2d.grid import Grid
    warm = replace(workload, command="simulate", t_final=1 / 32,
                   sample_interval=1 / 32, k_max=0)
    start = time.perf_counter()
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        Grid(256, 64.0)
        code, _, _ = execute(cli, warm, seed, workdir, output=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0:
        raise RuntimeError(f"warm-up run exited with {code}")
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# stamp and output

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        proc = None
    if proc is None or proc.returncode != 0:
        return "unknown (not a git checkout)"
    return proc.stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "cpu_model": _cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "git_revision": _git_revision(), "source_sha256": _source_digest()}


def print_metrics(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")


def totals(reps: list[Rep]) -> tuple[int, int]:
    """Operations attempted and failed over the repeats."""
    return (sum(r.outcome.attempted for r in reps),
            sum(r.outcome.failed_count for r in reps))


def result_line(reps: list[Rep], metrics: dict) -> str:
    attempted, failed = totals(reps)
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}})


# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    os.environ.pop("VE2D_THREADS", None)
    tracer = spans.Tracer()
    if args.trace:
        spans.install_fft_counter(tracer, np.fft)
    start = time.perf_counter()
    cli = import_program()
    import_s = time.perf_counter() - start
    print("stamp " + json.dumps(stamp(args)))
    OUT.mkdir(exist_ok=True)
    reference_path = BENCH / "reference.json"
    reference = (json.loads(reference_path.read_text(encoding="utf-8"))
                 if reference_path.exists() else {})
    if str(args.seed) not in reference.get(workload.name, {}).get("seeds", {}):
        print(f"note: seed {args.seed} has no recorded reference; only the "
              "seed-independent checks apply")

    calib = calibrate()
    setup_s = import_s * CALIBRATION_S / calib
    setups, measured_setups = [], []
    for _ in range(SETUP_REPEATS):
        seconds = setup_once(cli, workload, args.seed)
        after = calibrate()
        measured_setups.append(seconds)
        setups.append(seconds * CALIBRATION_S / ((calib + after) / 2))
        calib = after
    setup_s += statistics.median(setups)
    counter = spans.Tracer()
    if not args.trace:
        reps = run_reps(cli, workload, args.seed, args.seconds, reference,
                        counter, [STEP])
        attempted, failed = totals(reps)
        metrics = {
            "wall_s": statistics.median(r.ref_s for r in reps),
            "sim_time_per_s": statistics.median(
                workload.t_final / r.ref_s for r in reps),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        print_metrics(f"{workload.name}: {len(reps)} runs, failed_frac "
                      f"{failed / attempted:.3g}, measured wall "
                      + " ".join(f"{r.wall_s:.3f}" for r in reps)
                      + " s, calibration "
                      + " ".join(f"{r.calib_s * 1e3:.1f}" for r in reps)
                      + " ms", metrics)
        print("measured " + json.dumps({
            "wall_s": statistics.median(r.wall_s for r in reps),
            "setup_s": import_s + statistics.median(measured_setups)}))
        print(result_line(reps, metrics))
        return 0

    plain = run_reps(cli, workload, args.seed, args.seconds / 2, reference,
                     counter, [STEP])
    traced = run_reps(cli, workload, args.seed, args.seconds / 2, reference,
                      tracer, TARGETS)
    table = spans.summarize(tracer.spans, tracer.observed)
    metrics = layer_metrics(table, len(traced), CALIBRATION_S
                            / statistics.median(r.calib_s for r in traced))
    traced_wall = statistics.median(r.ref_s for r in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(r.ref_s for r in plain), "s")
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({
        "stamp": stamp(args), "columns": ["name", "parent", "start", "end",
                                          "fft_calls", "fft_points"],
        "spans": tracer.spans}), encoding="utf-8")
    print_metrics(f"{workload.name}: {len(traced)} traced runs after "
                  f"{len(plain)} untraced; spans in {spans_path.name}",
                  metrics)
    print(result_line(plain + traced, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    try:
        return run_workload(parser.parse_args(argv))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

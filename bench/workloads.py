"""The benchmark's workloads: one generated INI config each, run through
`ve2d.cli.main` exactly as a user would run `ve2d <command> --config`.

All share the acceptance desk scale (n = 256, L = 64, amplitude 0.01,
k_max = 2) and the `spectral` initial profile, whose random band-limited
field is drawn from the benchmark's `--seed`.  The horizons are cut from
the acceptance T = 16 so that a run fits the benchmark's time budget; the
mix of stepping, family building and diagnostics is what each workload
is chosen for, and is stated in its `why`.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # ve2d subcommand
    mu: float
    t_final: float
    sample_interval: float
    why: str
    k_max: int = 2

    @property
    def samples(self) -> int:
        """Diagnostic samples taken by the run, t = 0 included."""
        return int(round(self.t_final / self.sample_interval)) + 1

    def config(self, seed: int, output_dir=None) -> str:
        """INI text; artifacts go to output_dir, none are written without."""
        text = (f"[grid]\nn = 256\nbox_len = 64.0\n"
                f"[initial]\namplitude = 0.01\nprofile = spectral\n"
                f"seed = {seed}\n"
                f"[run]\nmu = {self.mu!r}\nt_final = {self.t_final!r}\n"
                f"sample_interval = {self.sample_interval!r}\n"
                f"k_max = {self.k_max}\n")
        if output_dir is not None:
            text += f"output_dir = {output_dir}\n"
        return text


WORKLOADS = {w.name: w for w in (
    # Acceptance-scale time to solution with only the end points sampled:
    # IF-RK4 stepping (dynamics + spectral) is the largest share, and mu > 0
    # makes the integrating factor non-trivial.  Writes CSV, snapshot, JSON
    # and SVG.
    Workload("desk_run", "simulate", mu=1e-2, t_final=1.0,
             sample_interval=1.0,
             why="IF-RK4 stepping at mu=1e-2 takes over half the time "
                 "(dynamics+spectral); samples only at 0 and T; writes every "
                 "artifact type"),
    # Same entry point, opposite mix: one step per sample, so derived_family
    # and sample_record dominate and a stepper gain barely moves it, while
    # a shared spectral cache shows in both time and peak memory.
    Workload("sample_dense", "simulate", mu=0.0, t_final=0.125,
             sample_interval=0.0625,
             why="one step per sample at mu=0: derived_family and "
                 "sample_record take ~90% of the time, so a stepper gain "
                 "barely moves it"),
    # The only workload that runs the bilinear forms of the commuted
    # equations (nonlinearity_f, commutator_residuals over all 21 indices),
    # kept apart from the jet and gradient path sample_dense measures.
    Workload("audit", "audit", mu=0.0, t_final=0.125, sample_interval=0.125,
             why="ve2d audit at mu=0: commutator_residuals and "
                 "nonlinearity_f over 21 indices take over half the time; "
                 "no other workload runs them"),
)}

# multi-indices of total order <= 2 over (scale, dt, d1, d2, rot)
AUDITED_INDICES = 21

"""Evolve a single small-amplitude state and print a diagnostics table.

Desk-size version of the default configuration: a Gaussian bump potential
with H(0) = 0 on a 64-point grid, inviscid, horizon T = 4.  Writes the
sampled series as CSV and an energy-history SVG next to this script.
"""

from pathlib import Path

import ve2d.diagnostics as dg
from ve2d import svg
from ve2d.experiments import RunConfig, run_simulation, write_csv
from ve2d.state import InitialDataParams

here = Path(__file__).parent

cfg = RunConfig(
    n=64,
    box_len=32.0,
    initial=InitialDataParams(amplitude=0.01, support_radius=6.0),
    t_final=4.0,
    sample_interval=0.5,
    k_max=1,
)

result = run_simulation(cfg, mu=0.0)

print(f"{'t':>5} {'E1':>12} {'good_sup':>12} {'constraint':>12}")
for rec in result.records:
    print(f"{rec.t:5.1f} {rec.values['E1']:12.4e} "
          f"{rec.values['good_sup']:12.4e} "
          f"{rec.values['constraint_Linf']:12.4e}")

write_csv(here / "single_run.csv", result.records)
ts, e1 = result.series("E1")
svg.line_plot(here / "single_run_energy.svg", ts, e1, "E1",
              title="first-order energy history", xlabel="t", ylabel="E1")
print(f"\nwrote {here / 'single_run.csv'} and the energy plot")

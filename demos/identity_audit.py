"""Pointwise identities and inequality constants on random and evolved data.

The null-form decompositions and multiplier cancellations are exact
algebra, so their residuals on random band-limited fields sit at rounding
level.  The weighted Sobolev and nonlinearity-decay estimates are
inequalities; for those the measured left/right ratios are reported.
"""

import numpy as np

import ve2d.diagnostics as dg
import ve2d.spectral as sp
from ve2d.dynamics import StepperConfig, evolve
from ve2d.grid import Grid
from ve2d.state import InitialDataParams, make_initial_data

grid = Grid(64, 32.0)

worst = {}
for trial in range(10):
    V = sp.random_band_limited(grid, seed=3 * trial)
    H = np.stack([sp.random_band_limited(grid, seed=3 * trial + i)
                  for i in (1, 2)])
    for name, val in dg.identity_checks(grid, V, H, t=float(trial)).items():
        worst[name] = max(worst.get(name, 0.0), val)

print("identity residuals over 10 random band-limited fields:")
for name, val in worst.items():
    print(f"  {name:12s} {val:.3e}")

# the inequality ratios divide by small right-hand sides, so the evolved
# state must resolve the bump; use a finer grid than the random checks
fine = Grid(128, 32.0)
state = make_initial_data(fine, InitialDataParams(amplitude=0.01,
                                                  support_radius=6.0))
state = evolve(state, 4.0, StepperConfig())

print(f"\nweighted Sobolev ratios on the evolved state at t = {state.t:g}:")
for name, val in dg.weighted_sobolev_ratios(fine, state.V,
                                                  t=state.t).items():
    print(f"  {name:12s} {val:.3f}")

# The nonlinearity-decay ratios divide pointwise by 1/r-weighted products
# of the fields; below the default resolution (n = 256, box 64) their
# denominators fall to the truncation-noise floor far from the bump and
# the sup ratio loses meaning.  Use the audit CLI at full resolution for
# those constants.

"""Vanishing-viscosity convergence at desk scale.

Runs the same initial data at mu = 0 and three decreasing viscosities,
then tabulates ||U_mu(T) - U_0(T)||_L2.  The distances should fall roughly
linearly in mu (fitted order near 1).
"""

import numpy as np

from ve2d.experiments import RunConfig, convergence_study, mu_name
from ve2d.state import InitialDataParams

cfg = RunConfig(
    n=64,
    box_len=32.0,
    initial=InitialDataParams(amplitude=0.01, support_radius=6.0),
    mu_list=(0.0, 1e-1, 1e-2, 1e-3),
    t_final=4.0,
    sample_interval=1.0,
    k_max=1,
)

report = convergence_study(cfg)

# the table is keyed by viscosity name, positive viscosities descending
print(f"{'mu':>8} {'||U_mu(T) - U_0(T)||':>22}")
for name, dist in report["table"].items():
    if name != mu_name(0.0):
        print(f"{name:>8} {dist:22.6e}")
print(f"\nfitted order in mu: {report['fitted_order']:.3f}")

ratios = np.array([report["table"][mu_name(m)] for m in (1e-1, 1e-2, 1e-3)])
print("successive ratios:", " ".join(f"{a/b:.1f}"
                                     for a, b in zip(ratios, ratios[1:])))

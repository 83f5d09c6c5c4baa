"""Right-hand sides and time integration, uniform in viscosity mu in [0, 1].

One IF-RK4 body (classical RK4 with the viscous semigroup applied as an
exact spectral integrating factor) serves both forms, damping V in the
potential form and v in the primitive form.  With the coupling and
nonlinearity switched off, a step therefore reproduces pure heat decay
e^{-mu |k|^2 dt} to machine precision, for every mu, and mu = 0 degenerates
to plain RK4 on the hyperbolic system.  The potential form's quadratic
sources are the bilinear forms of ve2d.families.
"""

from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .families import bilin_f1_perp, bilin_f2
from .grid import Grid
from .state import PotentialState, PrimitiveState


class BlowUpError(RuntimeError):
    """Raised when the integration produces non-finite fields."""

    def __init__(self, t: float):
        super().__init__(f"solution blew up at t = {t:.6g}")
        self.t = t


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping knobs.

    scheme: only "if-rk4" (integrating-factor RK4) is implemented; the
    viscous operator is diagonal in spectral space, so exactness uniform in
    mu is free.  The coupling/nonlinear switches exist for linear-regime
    tests and are both on in production.
    """

    cfl_factor: float = 0.3
    scheme: str = "if-rk4"
    dealias: bool = True
    coupling: bool = True
    nonlinear: bool = True

    def __post_init__(self):
        if not 0.0 < self.cfl_factor <= 1.0:
            raise ValueError("cfl_factor must lie in (0, 1]")
        if self.scheme != "if-rk4":
            raise ValueError(f"unsupported scheme {self.scheme!r}")


def rhs_potential(state: PotentialState,
                  cfg: StepperConfig = StepperConfig(),
                  include_viscosity: bool = True
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(dV, dH) of the potential-form system.

    dV = mu lap V + div H + f1,   dH_j = d_j V + f2_j.
    include_viscosity=False drops mu lap V (the stepper handles it exactly
    through the integrating factor).
    """
    g = state.grid
    dV = np.zeros_like(state.V)
    dH = np.zeros_like(state.H)
    if include_viscosity and state.mu > 0:
        dV += state.mu * sp.laplacian(g, state.V)
    if cfg.coupling:
        dV += sp.divergence(g, state.H)
        dH += sp.gradient(g, state.V)
    if cfg.nonlinear:
        D = sp.derivative_stack(g, state.V, state.H)
        dV += bilin_f1_perp(g, D, D, cfg.dealias)
        dH += bilin_f2(g, D, D, cfg.dealias)
    return dV, dH


def rhs_primitive(state: PrimitiveState,
                  cfg: StepperConfig = StepperConfig(),
                  include_viscosity: bool = True
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(dv, dG) of the primitive system with pressure removed by projection.

    dv = P[mu lap v + div G - v.grad v + div(G G^T)],
    dG = grad v + (grad v) G - v.grad G,  with (grad v)_{ij} = d_j v_i.
    """
    g = state.grid
    v, G = state.v, state.G
    dv = np.zeros_like(v)
    dG = np.zeros_like(G)
    if include_viscosity and state.mu > 0:
        dv += state.mu * np.stack([sp.laplacian(g, v[i]) for i in range(2)])

    gv = np.stack([sp.gradient(g, v[i]) for i in range(2)])  # gv[i, j] = d_j v_i
    if cfg.coupling:
        for i in range(2):
            dv[i] += sum(sp.derivative(g, G[i, j], axis=j + 1) for j in range(2))
            dG[i] += gv[i]

    if cfg.nonlinear:
        # gG[i, j, l] = d_l G_{ij}
        gG = np.array([[sp.gradient(g, G[i, j]) for j in range(2)]
                       for i in range(2)])

        def mul(a, b):
            return sp.product(g, a, b, cfg.dealias)

        for i in range(2):
            dv[i] -= sum(mul(v[l], gv[i, l]) for l in range(2))
            for j in range(2):
                GGt = sum(mul(G[i, k], G[j, k]) for k in range(2))
                dv[i] += sp.derivative(g, GGt, axis=j + 1)
                dG[i, j] += sum(mul(gv[i, k], G[k, j]) for k in range(2))
                dG[i, j] -= sum(mul(v[l], gG[i, j, l]) for l in range(2))
        dv = sp.leray_project(g, dv)
    return dv, dG


def choose_dt(state: PotentialState, cfg: StepperConfig) -> float:
    """dt = cfl * spacing / (1 + max|v|); unit wave speed, viscosity free."""
    v = sp.perp_gradient(state.grid, state.V)
    return cfg.cfl_factor * state.grid.spacing / (1.0 + sp.linf_norm(v))


def _damp(f: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Apply a spectral factor to each (n, n) field of f."""
    if f.ndim == 2:
        return sp.ifft(factor * sp.fft(f))
    return np.stack([_damp(x, factor) for x in f])


def _if_rk4(grid: Grid, mu: float, t: float, dt: float, u, w, N):
    """One integrating-factor RK4 step of u' = mu lap u + Nu, w' = Nw.

    N(u, w) returns (Nu, Nw); the heat semigroup on u is applied exactly.
    Raises BlowUpError if the result is not finite.
    """
    E = np.exp(-mu * grid.k_sq * (dt / 2.0))
    E2 = E * E
    k1u, k1w = N(u, w)
    k2u, k2w = N(_damp(u + 0.5 * dt * k1u, E), w + 0.5 * dt * k1w)
    k3u, k3w = N(_damp(u, E) + 0.5 * dt * k2u, w + 0.5 * dt * k2w)
    k4u, k4w = N(_damp(u, E2) + dt * _damp(k3u, E), w + dt * k3w)

    un = (_damp(u, E2)
          + dt / 6.0 * (_damp(k1u, E2) + 2.0 * _damp(k2u + k3u, E) + k4u))
    wn = w + dt / 6.0 * (k1w + 2.0 * (k2w + k3w) + k4w)

    if not (np.all(np.isfinite(un)) and np.all(np.isfinite(wn))):
        raise BlowUpError(t + dt)
    return un, wn


def step(state: PotentialState, dt: float,
         cfg: StepperConfig = StepperConfig()) -> PotentialState:
    """One integrating-factor RK4 step of the potential system."""
    g = state.grid

    def N(V, H):
        s = PotentialState(grid=g, V=V, H=H, t=state.t, mu=state.mu)
        return rhs_potential(s, cfg, include_viscosity=False)

    V, H = _if_rk4(g, state.mu, state.t, dt, state.V, state.H, N)
    return PotentialState(grid=g, V=V, H=H, t=state.t + dt, mu=state.mu)


def step_primitive(state: PrimitiveState, dt: float,
                   cfg: StepperConfig = StepperConfig()) -> PrimitiveState:
    """One integrating-factor RK4 step of the primitive system."""
    g = state.grid

    def N(v, G):
        s = PrimitiveState(grid=g, v=v, G=G, t=state.t, mu=state.mu)
        return rhs_primitive(s, cfg, include_viscosity=False)

    v, G = _if_rk4(g, state.mu, state.t, dt, state.v, state.G, N)
    return PrimitiveState(grid=g, v=v, G=G, t=state.t + dt, mu=state.mu)


def evolve(state: PotentialState, t_final: float,
           cfg: StepperConfig = StepperConfig(),
           dt: float | None = None,
           callback=None) -> PotentialState:
    """Advance to t_final, choosing dt from the CFL rule unless given.

    callback(state) is invoked after every step.  The final step is
    shortened to land exactly on t_final.
    """
    s = state
    while s.t < t_final - 1e-12:
        h = dt if dt is not None else choose_dt(s, cfg)
        h = min(h, t_final - s.t)
        s = step(s, h, cfg)
        if callback is not None:
            callback(s)
    return s

"""Right-hand sides and time integration, uniform in viscosity mu in [0, 1].

One IF-RK4 body (classical RK4 with the viscous semigroup applied as an
exact spectral integrating factor) serves both forms, damping V in the
potential form and v in the primitive form.  The damped unknown is held as
rfft2 coefficients inside the step, so the integrating factor
e^{-mu |k|^2 dt} is an elementwise multiply.  With the coupling and
nonlinearity switched off, a step therefore reproduces pure heat decay to
machine precision, for every mu, and mu = 0 degenerates to plain RK4 on the
hyperbolic system.

The potential step keeps (V, H) spectral and transforms once in and once
out.  Each RHS stage costs 11 real-field transforms: the 6 gradients of
(V, H1, H2) back to physical space (the perp-gradients are relabelled
gradients), and the 5 quadratic products f11, f12, f22, f2_1, f2_2 forward.
The 2/3 mask is one multiply of the product spectra, and the four Riesz
symbols of f1 are fused into three, one per product.  The forms match
families.bilin_f1_perp and families.bilin_f2 to round-off.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import spectral as sp
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


# signs of the fields (V, H1, H2) in f_ij = -d_i^perp V d_j^perp V
#                                          + d_i^perp H . d_j^perp H
_F1_SIGNS = np.array([-1.0, 1.0, 1.0])


class _Symbols(NamedTuple):
    """Multipliers of the potential RHS in rfft2 layout."""

    ik: np.ndarray         # (2, n, n//2+1): i k_1, i k_2
    k_sq: np.ndarray       # |k|^2
    mask: np.ndarray       # 2/3-rule keep mask
    riesz: np.ndarray      # (3, n, n//2+1) fused symbols of f11, f12, f22


@lru_cache(maxsize=4)
def _symbols(grid: Grid) -> _Symbols:
    """Build the multipliers once per grid; they are read-only, since every
    caller shares them.

    riesz_pp(i, j) has symbol k_i^perp k_j / |k|^2.  For one state f_ij is
    symmetric, so f1 = sum_ij riesz_pp(i, j, f_ij) needs only f11, f12 and
    f22, with the (1,2) and (2,1) symbols summed.
    """
    def half(a):
        out = np.ascontiguousarray(a[..., :grid.n // 2 + 1])
        out.flags.writeable = False
        return out

    k = (grid.k1, grid.k2)
    kp = (grid.k1_perp, grid.k2_perp)

    def s(i, j):
        return kp[i] * k[j] * grid.inv_k_sq

    return _Symbols(ik=half(1j * np.stack(k)), k_sq=half(grid.k_sq),
                    mask=half(grid.keep_mask.astype(float)),
                    riesz=half(np.stack([s(0, 0), s(0, 1) + s(1, 0),
                                         s(1, 1)])))


def _products(grid: Grid, s: _Symbols, Vh: np.ndarray, Hh: np.ndarray
              ) -> np.ndarray:
    """The physical products f11, f12, f22, f2_1, f2_2 of one state, from
    one batched inverse transform of the 6 gradients of (V, H1, H2)."""
    D = sp.irfft(grid, s.ik * np.concatenate((Vh[None], Hh))[:, None])
    P = sp.perp(D)                                  # P[f, i] = d_i^perp f
    prods = np.empty((5,) + D.shape[-2:])
    for r, (i, j) in enumerate(((0, 0), (0, 1), (1, 1))):
        np.einsum("f,fxy,fxy->xy", _F1_SIGNS, P[:, i], P[:, j], out=prods[r])
    # f2_j = d_l^perp H_j d_l V
    np.einsum("jlxy,lxy->jxy", P[1:], D[0], out=prods[3:])
    return prods


def _rhs_hat(grid: Grid, Vh: np.ndarray, Hh: np.ndarray, cfg: StepperConfig
             ) -> tuple[np.ndarray, np.ndarray]:
    """(dV, dH) of the potential form without mu lap V, from and to rfft2
    coefficients.  The quadratic part costs one batched inverse transform of
    6 gradients and one batched forward transform of 5 products."""
    s = _symbols(grid)
    dVh = np.zeros_like(Vh)
    dHh = np.zeros_like(Hh)
    if cfg.coupling:
        dVh += s.ik[0] * Hh[0]
        dVh += s.ik[1] * Hh[1]
        dHh += s.ik * Vh
    if cfg.nonlinear:
        ph = sp.rfft(_products(grid, s, Vh, Hh))
        if cfg.dealias:
            ph *= s.mask
        dVh += np.einsum("rxy,rxy->xy", s.riesz, ph[:3])
        dHh += ph[3:]
    return dVh, dHh


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
    uh = sp.rfft(np.concatenate((state.V[None], state.H)))
    dVh, dHh = _rhs_hat(g, uh[0], uh[1:], cfg)
    if include_viscosity and state.mu > 0:
        dVh -= state.mu * _symbols(g).k_sq * uh[0]
    d = sp.irfft(g, np.concatenate((dVh[None], dHh)))
    return d[0], d[1:]


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


def _if_rk4(grid: Grid, mu: float, dt: float, u, w, N):
    """One integrating-factor RK4 step of u' = mu lap u + Nu, w' = Nw.

    u holds rfft2 coefficients, so the heat semigroup on u is an exact
    elementwise multiply; w is whatever N accepts.  N(u, w) returns
    (Nu, Nw), Nu again as coefficients.
    """
    E = np.exp(-mu * _symbols(grid).k_sq * (dt / 2.0))
    E2 = E * E
    k1u, k1w = N(u, w)
    k2u, k2w = N(E * (u + 0.5 * dt * k1u), w + 0.5 * dt * k1w)
    k3u, k3w = N(E * u + 0.5 * dt * k2u, w + 0.5 * dt * k2w)
    k4u, k4w = N(E2 * u + dt * E * k3u, w + dt * k3w)

    un = E2 * u + dt / 6.0 * (E2 * k1u + 2.0 * E * (k2u + k3u) + k4u)
    wn = w + dt / 6.0 * (k1w + 2.0 * (k2w + k3w) + k4w)
    return un, wn


def _check_finite(t: float, *fields: np.ndarray) -> None:
    if not all(np.all(np.isfinite(f)) for f in fields):
        raise BlowUpError(t)


def step(state: PotentialState, dt: float,
         cfg: StepperConfig = StepperConfig()) -> PotentialState:
    """One integrating-factor RK4 step of the potential system.

    Raises BlowUpError if the result is not finite.
    """
    g = state.grid
    uh = sp.rfft(np.concatenate((state.V[None], state.H)))
    Vh, Hh = _if_rk4(g, state.mu, dt, uh[0], uh[1:],
                     lambda Vh, Hh: _rhs_hat(g, Vh, Hh, cfg))
    u = sp.irfft(g, np.concatenate((Vh[None], Hh)))
    _check_finite(state.t + dt, u)
    return PotentialState(grid=g, V=u[0], H=u[1:], t=state.t + dt,
                          mu=state.mu)


def step_primitive(state: PrimitiveState, dt: float,
                   cfg: StepperConfig = StepperConfig()) -> PrimitiveState:
    """One integrating-factor RK4 step of the primitive system.

    Raises BlowUpError if the result is not finite.
    """
    g = state.grid

    def N(vh, G):
        s = PrimitiveState(grid=g, v=sp.irfft(g, vh), G=G, t=state.t,
                           mu=state.mu)
        dv, dG = rhs_primitive(s, cfg, include_viscosity=False)
        return sp.rfft(dv), dG

    vh, G = _if_rk4(g, state.mu, dt, sp.rfft(state.v), state.G, N)
    v = sp.irfft(g, vh)
    _check_finite(state.t + dt, v, G)
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

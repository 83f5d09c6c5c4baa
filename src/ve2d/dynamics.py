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
symbols of f1 are fused into three, one per product (Grid.f1_riesz).

_products and _quadratic_hat are the one set of quadratic forms: the
perp-form sources f1, f2 (and, on request, f3) summed over a Leibniz sum
of derivative stacks, then masked and transformed once.  The stepper
passes one pair, the time-derivative jets of families.base_jet one pair
per binomial term, and the commuted equations of families one pair per
splitting of a multi-index.  The primitive RHS follows the same pattern:
its products are summed per output and transformed in one batch.
"""

from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .grid import Grid
from .state import PotentialState, PrimitiveState


class BlowUpError(RuntimeError):
    """Raised when the integration produces non-finite fields."""

    def __init__(self, t: float):
        super().__init__(f"solution blew up at t = {t:.6g}")
        self.t = t

    def __reduce__(self):
        # args holds the message, not t, so rebuild from t
        return type(self), (self.t,)


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


def _products(pairs, f3: bool = False) -> np.ndarray:
    """The physical products f11, f12, f22, f2_1, f2_2 (and f3 when asked)
    summed over a Leibniz sum pairs = [(coef, Da, Db), ...] of derivative
    stacks (spectral.derivative_stack).

    f_ij = -d_i^perp Va d_j^perp Vb + d_i^perp Ha . d_j^perp Hb and
    f3 = sum_l d_l^perp Ha_2 d_l Hb_1.  The coefficients are symmetric
    under a <-> b, so the summed f_ij is symmetric and f21 is not formed.
    """
    prods = np.zeros((5 + f3,) + pairs[0][1].shape[-2:])
    for coef, Da, Db in pairs:
        # d_1^perp = -d_2 and d_2^perp = d_1, so f11, f12, f22 are the
        # plain products of d_2 a d_2 b, -d_2 a d_1 b and d_1 a d_1 b,
        # and b needs no perp stack
        for r, (i, j, s) in enumerate(((1, 1, 1), (1, 0, -1), (0, 0, 1))):
            prods[r] += np.einsum("f,fxy,fxy->xy", s * coef * _F1_SIGNS,
                                  Da[:, i], Db[:, j])
        Pa = sp.perp(Da)                            # P[f, i] = d_i^perp f
        # f2_j = sum_l d_l^perp Ha_j d_l Vb
        prods[3:5] += coef * np.einsum("jlxy,lxy->jxy", Pa[1:], Db[0])
        if f3:
            prods[5] += coef * np.einsum("lxy,lxy->xy", Pa[2], Db[1])
    return prods


def _quadratic_hat(grid: Grid, pairs, dealias: bool, f3: bool = False
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(f1, ph) of a Leibniz sum as rfft2 coefficients: one batched forward
    transform of the summed products, the 2/3 mask (linear, so applied
    once to the sums) and the fused Riesz symbols of f1.  ph holds the
    masked spectra in the rows of _products: ph[3:5] is f2 and ph[5]
    f3."""
    ph = sp.fft(_products(pairs, f3))
    if dealias:
        ph *= grid.keep_mask
    return np.einsum("rxy,rxy->xy", grid.f1_riesz, ph[:3]), ph


def _rhs_hat(grid: Grid, Vh: np.ndarray, Hh: np.ndarray, cfg: StepperConfig
             ) -> tuple[np.ndarray, np.ndarray]:
    """(dV, dH) of the potential form without mu lap V, from and to rfft2
    coefficients.  The quadratic part costs one batched inverse transform of
    6 gradients and one batched forward transform of 5 products."""
    dVh = np.zeros_like(Vh)
    dHh = np.zeros_like(Hh)
    if cfg.coupling:
        dVh += grid.ik[0] * Hh[0]
        dVh += grid.ik[1] * Hh[1]
        dHh += grid.ik * Vh
    if cfg.nonlinear:
        D = sp.gradient_from_hat(grid, np.concatenate((Vh[None], Hh)))
        f1h, ph = _quadratic_hat(grid, [(1, D, D)], cfg.dealias)
        dVh += f1h
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
    uh = sp.fft(np.concatenate((state.V[None], state.H)))
    dVh, dHh = _rhs_hat(g, uh[0], uh[1:], cfg)
    if include_viscosity and state.mu > 0:
        dVh -= state.mu * g.k_sq * uh[0]
    d = sp.ifft(np.concatenate((dVh[None], dHh)))
    return d[0], d[1:]


def rhs_primitive(state: PrimitiveState,
                  cfg: StepperConfig = StepperConfig(),
                  include_viscosity: bool = True
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(dv, dG) of the primitive system with pressure removed by projection.

    dv = P[mu lap v + div G - v.grad v + div(G G^T)],
    dG = grad v + (grad v) G - v.grad G,  with (grad v)_{ij} = d_j v_i.

    The products are summed per output (v.grad v, G G^T, and
    (grad v) G - v.grad G), transformed forward in one batch and masked
    once; dv and the quadratic part of dG come back in one inverse batch.
    """
    g = state.grid
    v, G = state.v, state.G
    vh, Gh = sp.fft(v), sp.fft(G)
    dvh = np.zeros_like(vh)
    dGh = np.zeros_like(Gh)
    dG = np.zeros_like(G)
    if include_viscosity and state.mu > 0:
        dvh -= state.mu * g.k_sq * vh
    gv = sp.gradient_from_hat(g, vh)                # gv[i, j] = d_j v_i
    if cfg.coupling:
        dvh += np.einsum("jxy,ijxy->ixy", g.ik, Gh)  # div G
        dG += gv

    if cfg.nonlinear:
        gG = sp.gradient_from_hat(g, Gh)            # gG[i, j, l] = d_l G_ij
        prods = np.concatenate((
            np.einsum("lxy,ilxy->ixy", v, gv),      # v.grad v
            np.einsum("ikxy,jkxy->ijxy", G, G).reshape(4, g.n, g.n),
            (np.einsum("ikxy,kjxy->ijxy", gv, G)
             - np.einsum("lxy,ijlxy->ijxy", v, gG)).reshape(4, g.n, g.n)))
        ph = sp.fft(prods)
        if cfg.dealias:
            ph *= g.keep_mask
        # div(G G^T) - v.grad v, projected
        dvh += np.einsum("jxy,ijxy->ixy", g.ik, ph[2:6].reshape(Gh.shape))
        dvh = sp.leray_hat(g, dvh - ph[:2])
        dGh = ph[6:].reshape(Gh.shape)
    d = sp.ifft(np.concatenate((dvh, dGh.reshape(4, *Gh.shape[-2:]))))
    return d[:2], dG + d[2:].reshape(G.shape)


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
    E = np.exp(-mu * grid.k_sq * (dt / 2.0))
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
    uh = sp.fft(np.concatenate((state.V[None], state.H)))
    Vh, Hh = _if_rk4(g, state.mu, dt, uh[0], uh[1:],
                     lambda Vh, Hh: _rhs_hat(g, Vh, Hh, cfg))
    u = sp.ifft(np.concatenate((Vh[None], Hh)))
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
        s = PrimitiveState(grid=g, v=sp.ifft(vh), G=G, t=state.t,
                           mu=state.mu)
        dv, dG = rhs_primitive(s, cfg, include_viscosity=False)
        return sp.fft(dv), dG

    vh, G = _if_rk4(g, state.mu, dt, sp.fft(state.v), state.G, N)
    v = sp.ifft(vh)
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

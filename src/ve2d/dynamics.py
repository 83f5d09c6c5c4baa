"""Right-hand sides and time integration, uniform in viscosity mu in [0, 1].

One integrator, _if_rk4 (classical RK4 with the viscous semigroup applied
as an exact spectral integrating factor), advances both forms.  Its
contract: a physical stack of unknowns whose leading rows carry mu lap (V
of (V, H1, H2); v1, v2 of (v1, v2, G11, G12, G21, G22)), and a coefficient
kernel kernel(grid, uh, cfg) -> duh giving the rest of the right-hand side.
The stack is transformed forward once, the four stages run on rfft2
coefficients, where the integrating factor e^{-mu |k|^2 dt} is an
elementwise multiply (exactly 1 on the undamped rows), and the result is
transformed back once and checked to be finite.  With the coupling and
nonlinearity switched off, a step therefore reproduces pure heat decay to
machine precision, for every mu, and mu = 0 degenerates to plain RK4 on the
hyperbolic system.  rhs_potential and rhs_primitive are physical-space
wrappers over the same kernels.

Each stage of the potential kernel, _rhs_hat, costs 11 real-field
transforms: the 6 gradients of (V, H1, H2) back to physical space (the
perp-gradients are relabelled gradients), and the 5 quadratic products
f11, f12, f22, f2_1, f2_2 forward.  The 2/3 mask is one multiply of the
product spectra (spectral._fft_masked), and the four Riesz symbols of f1
are fused into three, one per product (Grid.f1_riesz).  Each stage of the
primitive kernel, _rhs_primitive_hat, costs 27: v, G and their 12
gradients back, and 9 products forward (v.grad v, the 3 entries of the
symmetric G G^T, and (grad v) G - v.grad G), masked once; the pressure is
removed by the Leray projection of the coefficients.

_products and _quadratic_hat are the one set of quadratic forms: the
perp-form sources f1, f2 (and, on request, f3) summed over a Leibniz sum
of derivative stacks, then masked and transformed once.  The stepper
passes one pair, the time-derivative jets of families.base_jet one pair
per binomial term, and the commuted equations of families one pair per
splitting of a multi-index.
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
    ph = sp._fft_masked(grid, _products(pairs, f3), dealias)
    return np.einsum("rxy,rxy->xy", grid.f1_riesz, ph[:3]), ph


def _rhs_hat(grid: Grid, uh: np.ndarray, cfg: StepperConfig) -> np.ndarray:
    """(dV, dH1, dH2) of the potential form without mu lap V, from and to
    the rfft2 coefficients of the stack (V, H1, H2).  The quadratic part
    costs one batched inverse transform of 6 gradients and one batched
    forward transform of 5 products."""
    duh = np.zeros_like(uh)
    if cfg.coupling:
        duh[0] += grid.ik[0] * uh[1]
        duh[0] += grid.ik[1] * uh[2]
        duh[1:] += grid.ik * uh[0]
    if cfg.nonlinear:
        D = sp.gradient_from_hat(grid, uh)
        f1h, ph = _quadratic_hat(grid, [(1, D, D)], cfg.dealias)
        duh[0] += f1h
        duh[1:] += ph[3:]
    return duh


def _rhs_primitive_hat(grid: Grid, uh: np.ndarray, cfg: StepperConfig
                       ) -> np.ndarray:
    """(dv, dG) of the primitive form without mu lap v, from and to the
    rfft2 coefficients of the stack (v1, v2, G11, G12, G21, G22).  The
    quadratic part costs one batched inverse transform of v, G and their 12
    gradients and one batched forward transform of 9 products."""
    n, shape = grid.n, uh.shape[-2:]
    Duh = grid.ik * uh[:, None]                     # Duh[r, l] = d_l row r
    duh = np.zeros_like(uh)
    if cfg.coupling:
        # div G, and grad v with (grad v)_{ij} = d_j v_i
        duh[:2] += np.einsum("jxy,ijxy->ixy", grid.ik,
                             uh[2:].reshape(2, 2, *shape))
        duh[2:] += Duh[:2].reshape(4, *shape)
    if cfg.nonlinear:
        f = sp.ifft(np.concatenate((uh, Duh.reshape(12, *shape))))
        v, G = f[:2], f[2:6].reshape(2, 2, n, n)
        gv = f[6:10].reshape(2, 2, n, n)            # gv[i, j] = d_j v_i
        gG = f[10:].reshape(2, 2, 2, n, n)          # gG[i, j, l] = d_l G_ij
        ph = sp._fft_masked(grid, np.concatenate((
            np.einsum("lxy,ilxy->ixy", v, gv),      # v.grad v
            # G G^T is symmetric: its entries 11, 12, 22
            np.einsum("rkxy,rkxy->rxy", G[[0, 0, 1]], G[[0, 1, 1]]),
            (np.einsum("ikxy,kjxy->ijxy", gv, G)
             - np.einsum("lxy,ijlxy->ijxy", v, gG)).reshape(4, n, n))),
            cfg.dealias)
        # div(G G^T) - v.grad v
        GGt = ph[[2, 3, 3, 4]].reshape(2, 2, *shape)
        duh[:2] = duh[:2] - ph[:2] + np.einsum("jxy,ijxy->ixy", grid.ik, GGt)
        duh[2:] += ph[5:]
    # the pressure: dv is projected on every path, nonlinear or not
    duh[:2] = sp.leray_hat(grid, duh[:2])
    return duh


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
    duh = _rhs_hat(g, uh, cfg)
    if include_viscosity and state.mu > 0:
        duh[0] -= state.mu * g.k_sq * uh[0]
    d = sp.ifft(duh)
    return d[0], d[1:]


def rhs_primitive(state: PrimitiveState,
                  cfg: StepperConfig = StepperConfig(),
                  include_viscosity: bool = True
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(dv, dG) of the primitive system with pressure removed by projection.

    dv = mu lap v + P[div G - v.grad v + div(G G^T)],
    dG = grad v + (grad v) G - v.grad G,  with (grad v)_{ij} = d_j v_i.

    P is the Leray projection; it commutes with lap, and lap v needs none
    for the divergence-free v of the primitive form.  P acts with every
    switch, so dv is divergence-free with the coupling or the
    nonlinearity switched off too.  include_viscosity=False drops mu lap
    v.
    """
    g = state.grid
    uh = sp.fft(np.concatenate((state.v, state.G.reshape(4, g.n, g.n))))
    duh = _rhs_primitive_hat(g, uh, cfg)
    if include_viscosity and state.mu > 0:
        duh[:2] -= state.mu * g.k_sq * uh[:2]
    d = sp.ifft(duh)
    return d[:2], d[2:].reshape(state.G.shape)


def choose_dt(state: PotentialState, cfg: StepperConfig) -> float:
    """dt = cfl * spacing / (1 + max|v|); unit wave speed, viscosity free."""
    v = sp.perp_gradient(state.grid, state.V)
    return cfg.cfl_factor * state.grid.spacing / (1.0 + sp.linf_norm(v))


def _if_rk4(kernel, state, u: np.ndarray, damped: int, dt: float,
            cfg: StepperConfig) -> np.ndarray:
    """The stack u of physical unknowns after one integrating-factor RK4
    step of u' = mu lap u + kernel(u) from state.t, on the grid and with
    the mu of state; mu lap acts on the first `damped` rows only.

    kernel(grid, uh, cfg) -> duh acts on rfft2 coefficients, so the heat
    semigroup is an exact elementwise multiply.  Raises BlowUpError if the
    result is not finite.
    """
    g = state.grid
    uh = sp.fft(u)
    # exp(-0) = 1 exactly: the undamped rows are plain RK4
    rows = (np.arange(len(uh)) < damped)[:, None, None]
    E = np.exp(-state.mu * g.k_sq * (dt / 2.0) * rows)
    E2 = E * E
    k1 = kernel(g, uh, cfg)
    k2 = kernel(g, E * (uh + 0.5 * dt * k1), cfg)
    k3 = kernel(g, E * uh + 0.5 * dt * k2, cfg)
    k4 = kernel(g, E2 * uh + dt * E * k3, cfg)
    un = sp.ifft(E2 * uh + dt / 6.0 * (E2 * k1 + 2.0 * E * (k2 + k3) + k4))
    if not np.all(np.isfinite(un)):
        raise BlowUpError(state.t + dt)
    return un


def step(state: PotentialState, dt: float,
         cfg: StepperConfig = StepperConfig()) -> PotentialState:
    """One integrating-factor RK4 step of the potential system.

    Raises BlowUpError if the result is not finite.
    """
    u = _if_rk4(_rhs_hat, state, np.concatenate((state.V[None], state.H)),
                1, dt, cfg)
    return PotentialState(grid=state.grid, V=u[0], H=u[1:], t=state.t + dt,
                          mu=state.mu)


def step_primitive(state: PrimitiveState, dt: float,
                   cfg: StepperConfig = StepperConfig()) -> PrimitiveState:
    """One integrating-factor RK4 step of the primitive system.

    Raises BlowUpError if the result is not finite.
    """
    g = state.grid
    u = _if_rk4(_rhs_primitive_hat, state,
                np.concatenate((state.v, state.G.reshape(4, g.n, g.n))),
                2, dt, cfg)
    return PrimitiveState(grid=g, v=u[:2], G=u[2:].reshape(state.G.shape),
                          t=state.t + dt, mu=state.mu)


def evolve(state: PotentialState, t_final: float,
           cfg: StepperConfig = StepperConfig(),
           dt: float | None = None,
           callback=None) -> PotentialState:
    """Advance to t_final, choosing dt from the CFL rule unless given.

    callback(state) is invoked after every step.  The final step is
    shortened to land exactly on t_final.  A given dt must be positive and
    finite.
    """
    if dt is not None and not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    s = state
    while s.t < t_final - 1e-12:
        h = dt if dt is not None else choose_dt(s, cfg)
        h = min(h, t_final - s.t)
        s = step(s, h, cfg)
        if callback is not None:
            callback(s)
    return s

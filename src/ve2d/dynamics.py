"""Right-hand sides and time integration, uniform in viscosity mu in [0, 1].

One integrator, _if_rk4 (classical RK4 with the viscous semigroup applied
as an exact spectral integrating factor), advances both forms.  Its
contract: a physical stack of unknowns whose leading rows carry mu lap (V
of (V, H1, H2); v1, v2 of (v1, v2, G11, G12, G21, G22)), and a coefficient
kernel kernel(grid, uh, cfg, out, scratch) that writes the rest of the
right-hand side into out, working in the buffers of scratch.  The stack is
transformed forward once, the four stages run on rfft2 coefficients, where
the integrating factor e^{-mu |k|^2 dt} is an elementwise multiply of the
damped rows (on the others it is exactly 1, so they are not touched), and
the result is transformed back once and checked to be finite.  The stage
buffers and the kernel's scratch are allocated once per step, shared by
its four stages and freed when it returns; no buffer outlives a step.
With the coupling and nonlinearity switched off, a step therefore
reproduces pure heat decay to machine precision, for every mu, and mu = 0
degenerates to plain RK4 on the hyperbolic system.  rhs_potential and
rhs_primitive are physical-space wrappers over the same kernels.

Each stage of the potential kernel, _rhs_hat, costs 11 real-field
transforms: the 6 gradients of (V, H1, H2) back to physical space (the
perp-gradients are relabelled gradients), and the 5 quadratic products
f11, f12, f22, f2_1, f2_2 forward.  The 2/3 mask is part of that forward
transform (spectral._fft_masked): its column pass runs on the kept
columns only, and two slices of the product spectra are zeroed.  The four
Riesz symbols of f1 are fused into three, one per product
(Grid.f1_riesz).  Each stage of the primitive kernel, _rhs_primitive_hat,
costs 27: v, G and their 12 gradients back, and 9 products forward
(v.grad v, the 3 entries of the symmetric G G^T, and (grad v) G - v.grad
G), masked once; the pressure is removed by the Leray projection of the
coefficients.

_products and _quadratic_hat are the one set of quadratic forms: the
perp-form sources f1, f2 (and f3) summed over a Leibniz sum of
derivative stacks, then masked and transformed once.  The stepper passes
one pair, the time-derivative jets of families.base_jet one pair per
binomial term, and the commuted equations of families one pair per
splitting of a multi-index.  Each caller passes the scratch the forms
are written into, and its product rows are the one statement of f3: the
stepper and base_jet pass 5 rows, the commuted equations 6.  Each
product row is formed in place, one pass per pointwise product and per
sum, in the order an einsum over the fields would add them.
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


class _Scratch:
    """The buffers a coefficient kernel writes one stage into, allocated by
    _if_rk4 once per step and handed to each of its four stages: the
    coefficients of the `fields` fields the kernel transforms back and
    those fields, the `products` physical products and their spectra, and
    `temps` real and two complex temporaries.  families.base_jet and the
    commuted equations allocate one with no fields per call of
    _quadratic_hat."""

    def __init__(self, grid: Grid, fields: int, products: int,
                 temps: int = 2):
        n, m = grid.n, grid.n // 2 + 1
        self.coef = np.empty((fields, n, m), dtype=complex)
        self.fields = np.empty((fields, n, n))
        self.prods = np.empty((products, n, n))
        self.spectra = np.empty((products, n, m), dtype=complex)
        self.tmp = np.empty((temps, n, n))
        self.ctmp = np.empty((2, n, m), dtype=complex)


def _potential_scratch(grid: Grid) -> _Scratch:
    """Scratch of _rhs_hat: 6 gradients and 5 products."""
    return _Scratch(grid, 6, 5)


def _primitive_scratch(grid: Grid) -> _Scratch:
    """Scratch of _rhs_primitive_hat: v, G and their 12 gradients, 9
    products, and the 4 terms v.grad G."""
    return _Scratch(grid, 18, 9, 4)


def _product_rows(Da, Db, f3: bool):
    """The rows of _products for one pair of derivative stacks, each a
    signed sum [(sign, a, b), ...] of pointwise products a b with a
    positive first term, and whether coef multiplies each a (f11, f12,
    f22) or the sum (f2, f3).

    d_1^perp = -d_2 and d_2^perp = d_1, so with the field signs (-1, 1, 1)
    of (V, H1, H2), f11, f12 and f22 sum the products d_2 a d_2 b,
    -d_2 a d_1 b and d_1 a d_1 b, and b needs no perp stack; a row whose
    first term is negative starts from its second, since -x + y = y - x
    exactly.  f2_j = sum_l d_l^perp Ha_j d_l Vb = -(d_2 Ha_j d_1 Vb)
    + d_1 Ha_j d_2 Vb, and f3 = sum_l d_l^perp Ha_2 d_l Hb_1 the same.
    """
    rows = [
        (True, [(1, Da[1, 1], Db[1, 1]), (-1, Da[0, 1], Db[0, 1]),
                (1, Da[2, 1], Db[2, 1])]),                       # f11
        (True, [(1, Da[0, 1], Db[0, 0]), (-1, Da[1, 1], Db[1, 0]),
                (-1, Da[2, 1], Db[2, 0])]),                      # f12
        (True, [(1, Da[1, 0], Db[1, 0]), (-1, Da[0, 0], Db[0, 0]),
                (1, Da[2, 0], Db[2, 0])]),                       # f22
    ]
    for h in (1, 2):                                             # f2_j
        rows.append((False, [(1, Da[h, 0], Db[0, 1]),
                             (-1, Da[h, 1], Db[0, 0])]))
    if f3:
        rows.append((False, [(1, Da[2, 0], Db[1, 1]),
                             (-1, Da[2, 1], Db[1, 0])]))
    return rows


def _products(pairs, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The physical products f11, f12, f22, f2_1, f2_2 (and f3 when out has
    a sixth row) summed over a Leibniz sum pairs = [(coef, Da, Db), ...]
    of derivative stacks (spectral.derivative_stack), written into out;
    tmp holds two fields of scratch.

    f_ij = -d_i^perp Va d_j^perp Vb + d_i^perp Ha . d_j^perp Hb and
    f3 = sum_l d_l^perp Ha_2 d_l Hb_1.  The coefficients are symmetric
    under a <-> b, so the summed f_ij is symmetric and f21 is not formed.
    Each row of a pair is the sum over f of (c_f d a_f) d b_f in order
    (coef times the sum for f2 and f3), one pass per product and per
    sum; the first pair writes the rows and each later pair is summed
    apart and added.  A coefficient 1 multiplies nothing, since x 1 = x.
    """
    acc, term = tmp[0], tmp[1]
    for p, (coef, Da, Db) in enumerate(pairs):
        for r, (inner, terms) in enumerate(
                _product_rows(Da, Db, len(out) > 5)):
            dest = acc if p else out[r]
            for k, (sign, a, b) in enumerate(terms):
                t = term if k else dest
                if inner and coef != 1:
                    np.multiply(a, coef, out=t)
                    t *= b
                else:
                    np.multiply(a, b, out=t)
                if k:
                    (np.add if sign > 0 else np.subtract)(dest, t, out=dest)
            if not inner and coef != 1:
                dest *= coef
            if p:
                out[r] += acc
    return out


def _quadratic_hat(grid: Grid, pairs, dealias: bool, scratch: _Scratch
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(f1, ph) of a Leibniz sum as rfft2 coefficients: one batched forward
    transform of the summed products, the 2/3 mask (linear, so applied
    once to the sums) and the fused Riesz symbols of f1.  ph holds the
    masked spectra in the rows of _products: ph[3:5] is f2 and ph[5]
    f3.  Both are written into scratch, whose product rows are the one
    statement of whether f3 is formed: 5 rows leave it out, 6 form it."""
    ph = sp._fft_masked(grid, _products(pairs, scratch.prods, scratch.tmp),
                        dealias, scratch.spectra)
    return np.einsum("rxy,rxy->xy", grid.f1_riesz, ph[:3],
                     out=scratch.ctmp[0]), ph


def _rhs_hat(grid: Grid, uh: np.ndarray, cfg: StepperConfig,
             out: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """(dV, dH1, dH2) of the potential form without mu lap V, from the
    rfft2 coefficients of the stack (V, H1, H2) into out.  The coupling
    div H and grad V reads the ik products of the gradients.  The
    quadratic part costs one batched inverse transform of 6 gradients and
    one batched forward transform of 5 products, all in scratch."""
    n, shape = grid.n, uh.shape[-2:]
    dh = scratch.coef.reshape(3, 2, *shape)          # dh[r, l] = d_l row r
    np.multiply(grid.ik, uh[:, None], out=dh)
    if cfg.coupling:
        np.add(dh[1, 0], dh[2, 1], out=out[0])       # div H
        out[1:] = dh[0]                              # grad V
    else:
        out[...] = 0.0
    if cfg.nonlinear:
        D = sp.ifft(dh, out=scratch.fields.reshape(3, 2, n, n))
        f1h, ph = _quadratic_hat(grid, [(1, D, D)], cfg.dealias, scratch)
        out[0] += f1h
        out[1:] += ph[3:]
    return out


def _rhs_primitive_hat(grid: Grid, uh: np.ndarray, cfg: StepperConfig,
                       out: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """(dv, dG) of the primitive form without mu lap v, from the rfft2
    coefficients of the stack (v1, v2, G11, G12, G21, G22) into out.  The
    quadratic part costs one batched inverse transform of v, G and their
    12 gradients and one batched forward transform of 9 products, all in
    scratch."""
    n, shape = grid.n, uh.shape[-2:]
    s = scratch
    s.coef[:6] = uh
    Duh = s.coef[6:].reshape(6, 2, *shape)          # Duh[r, l] = d_l row r
    np.multiply(grid.ik, uh[:, None], out=Duh)
    if cfg.coupling:
        # div G, and grad v with (grad v)_{ij} = d_j v_i
        np.einsum("jxy,ijxy->ixy", grid.ik, uh[2:].reshape(2, 2, *shape),
                  out=out[:2])
        out[2:] = Duh[:2].reshape(4, *shape)
    else:
        out[...] = 0.0
    if cfg.nonlinear:
        f = sp.ifft(s.coef, out=s.fields)
        v, G = f[:2], f[2:6].reshape(2, 2, n, n)
        gv = f[6:10].reshape(2, 2, n, n)            # gv[i, j] = d_j v_i
        gG = f[10:].reshape(2, 2, 2, n, n)          # gG[i, j, l] = d_l G_ij
        P = s.prods
        np.einsum("lxy,ilxy->ixy", v, gv, out=P[:2])           # v.grad v
        # G G^T is symmetric: its entries 11, 12, 22
        np.einsum("rkxy,rkxy->rxy", G[[0, 0, 1]], G[[0, 1, 1]], out=P[2:5])
        # (grad v) G - v.grad G
        np.einsum("ikxy,kjxy->ijxy", gv, G, out=P[5:].reshape(2, 2, n, n))
        P[5:] -= np.einsum("lxy,ijlxy->ijxy", v, gG,
                           out=s.tmp.reshape(2, 2, n, n)).reshape(4, n, n)
        ph = sp._fft_masked(grid, P, cfg.dealias, s.spectra)
        # div(G G^T) - v.grad v
        GGt = ph[[2, 3, 3, 4]].reshape(2, 2, *shape)
        out[:2] -= ph[:2]
        out[:2] += np.einsum("jxy,ijxy->ixy", grid.ik, GGt, out=s.ctmp)
        out[2:] += ph[5:]
    # the pressure: dv is projected on every path, nonlinear or not
    out[:2] = sp.leray_hat(grid, out[:2])
    return out


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
    duh = _rhs_hat(g, uh, cfg, np.empty_like(uh), _potential_scratch(g))
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
    duh = _rhs_primitive_hat(g, uh, cfg, np.empty_like(uh),
                             _primitive_scratch(g))
    if include_viscosity and state.mu > 0:
        duh[:2] -= state.mu * g.k_sq * uh[:2]
    d = sp.ifft(duh)
    return d[:2], d[2:].reshape(state.G.shape)


def choose_dt(state: PotentialState, cfg: StepperConfig) -> float:
    """dt = cfl * spacing / (1 + max|v|); unit wave speed, viscosity free."""
    # |grad_perp V| = |grad V|: perp only swaps and negates
    v = sp.gradient(state.grid, state.V)
    return cfg.cfl_factor * state.grid.spacing / (1.0 + sp.linf_norm(v))


def _if_rk4(kernel, scratch, state, u: np.ndarray, damped: int, dt: float,
            cfg: StepperConfig) -> np.ndarray:
    """The stack u of physical unknowns after one integrating-factor RK4
    step of u' = mu lap u + kernel(u) from state.t, on the grid and with
    the mu of state; mu lap acts on the first `damped` rows only.

    kernel(grid, uh, cfg, out, scratch) writes the rest of the right-hand
    side of the rfft2 coefficients uh into out, so the heat semigroup is
    an exact elementwise multiply; scratch(grid) allocates the buffers the
    kernel works in.  The stage buffers and the scratch are allocated once
    per call and shared by the four stages, and none outlives the step.
    Raises BlowUpError if the result is not finite.
    """
    g = state.grid
    uh = sp.fft(u)
    d = damped
    # the heat factor of a half step, on the damped rows: on the others it
    # is exp(-0) = 1, and multiplying by 1 is exact, so they are plain RK4.
    # The split stays: one body with a factor of ones on the undamped rows
    # is bit-identical but slower (median 30.3 -> 31.6 ms a step at
    # n = 256, mu = 1e-2, slower in 43 of 60 rounds, on a 2-core Xeon)
    E = np.exp(-state.mu * g.k_sq * (dt / 2.0))
    E2 = E * E
    Eu, E2u = E * uh[:d], E2 * uh[:d]
    k = np.empty((4,) + uh.shape, dtype=complex)     # k1 .. k4
    x = np.empty_like(uh)                            # a stage's argument
    s = scratch(g)
    kernel(g, uh, cfg, k[0], s)
    # E (uh + dt/2 k1)
    np.multiply(k[0], 0.5 * dt, out=x)
    x += uh
    x[:d] *= E
    kernel(g, x, cfg, k[1], s)
    # E uh + dt/2 k2
    np.multiply(k[1], 0.5 * dt, out=x)
    x[:d] += Eu
    x[d:] += uh[d:]
    kernel(g, x, cfg, k[2], s)
    # E2 uh + dt E k3
    np.multiply(k[2, :d], dt * E, out=x[:d])
    np.multiply(k[2, d:], dt, out=x[d:])
    x[:d] += E2u
    x[d:] += uh[d:]
    kernel(g, x, cfg, k[3], s)
    # E2 uh + dt/6 (E2 k1 + 2 E (k2 + k3) + k4)
    np.add(k[1], k[2], out=x)
    x[:d] *= 2.0 * E
    x[d:] *= 2.0
    k[0, :d] *= E2
    x += k[0]
    x += k[3]
    x *= dt / 6.0
    x[:d] += E2u
    x[d:] += uh[d:]
    un = sp.ifft(x)
    if not np.all(np.isfinite(un)):
        raise BlowUpError(state.t + dt)
    return un


def step(state: PotentialState, dt: float,
         cfg: StepperConfig = StepperConfig()) -> PotentialState:
    """One integrating-factor RK4 step of the potential system.

    Raises BlowUpError if the result is not finite.
    """
    u = _if_rk4(_rhs_hat, _potential_scratch, state,
                np.concatenate((state.V[None], state.H)), 1, dt, cfg)
    return PotentialState(grid=state.grid, V=u[0], H=u[1:], t=state.t + dt,
                          mu=state.mu)


def step_primitive(state: PrimitiveState, dt: float,
                   cfg: StepperConfig = StepperConfig()) -> PrimitiveState:
    """One integrating-factor RK4 step of the primitive system.

    Raises BlowUpError if the result is not finite.
    """
    g = state.grid
    u = _if_rk4(_rhs_primitive_hat, _primitive_scratch, state,
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
    shortened to land exactly on t_final.  t_final must be finite, and a
    given dt positive and finite.
    """
    if not np.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
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

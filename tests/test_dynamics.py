import pickle
from dataclasses import replace

import numpy as np
import pytest

import ve2d.dynamics as dynamics
import ve2d.spectral as sp
from ve2d.dynamics import (BlowUpError, StepperConfig, _products,
                           _quadratic_hat, _Scratch, choose_dt, evolve,
                           rhs_potential, rhs_primitive, step, step_primitive)
from ve2d.families import base_jet
from ve2d.grid import Grid
from ve2d.state import (InitialDataParams, PotentialState, PrimitiveState,
                        constraint_norms, make_initial_data, primitive_of,
                        velocity_of)
from spectral_ops import derivative, laplacian, leray_project, riesz_pp

CFG = StepperConfig()


def single_mode_state(grid, m1, m2, mu=0.0):
    w = 2 * np.pi / grid.box_len
    V = np.cos(w * (m1 * grid.x1 + m2 * grid.x2))
    H = np.zeros((2, grid.n, grid.n))
    return PotentialState(grid, V, H, t=0.0, mu=mu), w * np.hypot(m1, m2)


class TestStepperConfig:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            StepperConfig(scheme="leapfrog")

    def test_cfl_positive(self):
        with pytest.raises(ValueError):
            StepperConfig(cfl_factor=0.0)


class TestChooseDt:
    def test_positive_and_cfl_scaled(self, small_state):
        dt = choose_dt(small_state, CFG)
        assert dt > 0
        half = choose_dt(small_state, StepperConfig(cfl_factor=0.15))
        assert half == pytest.approx(dt / 2)

    def test_shrinks_with_velocity(self, grid64):
        lo = make_initial_data(grid64, InitialDataParams(amplitude=0.01))
        hi = make_initial_data(grid64, InitialDataParams(amplitude=0.5))
        assert choose_dt(hi, CFG) < choose_dt(lo, CFG)


class TestLinearOracles:
    def test_pure_heat_is_exact(self, grid64):
        # with the nonlinearity and coupling off, the integrating factor
        # integrates V_t = mu lap V with no time-discretization error
        st = make_initial_data(grid64, InitialDataParams(amplitude=0.01))
        st = PotentialState(grid64, st.V, st.H, t=0.0, mu=0.1)
        cfg = StepperConfig(nonlinear=False, coupling=False)
        out = evolve(st, 1.0, cfg, dt=0.25)
        exact = sp.ifft(sp.fft(st.V) * np.exp(-0.1 * grid64.k_sq))
        assert sp.linf_norm(out.V - exact) < 1e-14

    def test_inviscid_single_mode_oscillates(self, grid32):
        # V_t = div H, H_t = grad V gives V_tt = lap V: a single cosine
        # mode with H = 0 evolves as cos(|k| t) times the profile
        st, kabs = single_mode_state(grid32, 2, 1)
        cfg = StepperConfig(nonlinear=False)
        T = 1.5
        out = evolve(st, T, cfg, dt=0.005)
        expect = np.cos(kabs * T) * st.V
        assert sp.linf_norm(out.V - expect) < 1e-8

    def test_viscous_single_mode_matches_damped_oscillator(self, grid32):
        # the Fourier coefficient solves c'' + mu |k|^2 c' + |k|^2 c = 0
        mu = 0.3
        st, kabs = single_mode_state(grid32, 1, 2, mu=mu)
        roots = np.roots([1.0, mu * kabs ** 2, kabs ** 2])
        T = 1.5
        a, b = roots
        # c(0) = 1 with H(0) = 0, so c'(0) = -mu |k|^2
        ca = a / (a - b)
        cb = -b / (a - b)
        factor = (ca * np.exp(a * T) + cb * np.exp(b * T)).real
        cfg = StepperConfig(nonlinear=False)
        out = evolve(st, T, cfg, dt=0.005)
        assert sp.linf_norm(out.V - factor * st.V) < 1e-8


def reference_quadratic_source(grid, V, H, dealias=True):
    """Nonlinear sources (f1, f2) of the potential form, written out term by
    term with their own derivatives; the reference for rhs_potential.

    f1 = sum_ij riesz_pp(i, j, -d_i^perp V d_j^perp V + d_i^perp H . d_j^perp H)
    f2_j = d_l^perp H_j d_l V
    """
    def mul(a, b):
        return sp.dealias(grid, a * b) if dealias else a * b

    gpV = sp.perp_gradient(grid, V)
    gV = sp.gradient(grid, V)
    gpH = np.stack([sp.perp_gradient(grid, H[j]) for j in range(2)])  # (j, l)
    f1 = np.zeros((grid.n, grid.n))
    for i in range(2):
        for j in range(2):
            fij = -mul(gpV[i], gpV[j])
            for m in range(2):
                fij += mul(gpH[m, i], gpH[m, j])
            f1 += riesz_pp(grid, i + 1, j + 1, fij)
    f2 = np.stack([sum(mul(gpH[j, l], gV[l]) for l in range(2))
                   for j in range(2)])
    return f1, f2


def quadratic_source(grid, V, H, dealias=True):
    """The nonlinear part of rhs_potential: coupling and viscosity off."""
    st = PotentialState(grid, V, H)
    return rhs_potential(st, StepperConfig(coupling=False, dealias=dealias),
                         include_viscosity=False)


# signs of the fields (V, H1, H2) in f_ij = -d_i^perp V d_j^perp V
#                                          + d_i^perp H . d_j^perp H
F1_SIGNS = np.array([-1.0, 1.0, 1.0])


def reference_products(pairs, f3=False):
    """The products f11, f12, f22, f2_1, f2_2 (and f3) of a Leibniz sum
    [(coef, Da, Db), ...] of derivative stacks, summed by einsum over a
    zero-filled accumulator with a perp stack of each Da: the reference
    for the in-place dynamics._products."""
    prods = np.zeros((5 + f3,) + pairs[0][1].shape[-2:])
    for coef, Da, Db in pairs:
        for r, (i, j, s) in enumerate(((1, 1, 1), (1, 0, -1), (0, 0, 1))):
            prods[r] += np.einsum("f,fxy,fxy->xy", s * coef * F1_SIGNS,
                                  Da[:, i], Db[:, j])
        Pa = sp.perp(Da)                            # P[f, i] = d_i^perp f
        prods[3:5] += coef * np.einsum("jlxy,lxy->jxy", Pa[1:], Db[0])
        if f3:
            prods[5] += coef * np.einsum("lxy,lxy->xy", Pa[2], Db[1])
    return prods


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("f3", [False, True])
@pytest.mark.parametrize("n_pairs", [1, 2, 3, 4])
def test_products_match_einsum_reference(n, f3, n_pairs):
    # bit for bit: the same products, summed in the same order
    rng = np.random.default_rng(100 * n + 10 * n_pairs + f3)
    pairs = [(int(rng.choice([1, 2, 6])),
              rng.standard_normal((3, 2, n, n)),
              rng.standard_normal((3, 2, n, n))) for _ in range(n_pairs)]
    out = np.empty((5 + f3, n, n))
    assert _products(pairs, out, np.empty((2, n, n))) is out
    assert np.array_equal(out, reference_products(pairs, f3))


def reference_quadratic_hat(grid, pairs, dealias, f3):
    """(f1, ph) of the einsum products of a Leibniz sum, masked and
    Riesz-summed as _quadratic_hat did when a flag f3 sized a fresh
    scratch of 5 + f3 product rows."""
    ph = sp._fft_masked(grid, reference_products(pairs, f3), dealias)
    return np.einsum("rxy,rxy->xy", grid.f1_riesz, ph[:3]), ph


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("n_pairs", [1, 2, 3])
def test_quadratic_hat_forms_f3_by_the_scratch_rows(grid32, n_pairs,
                                                    dealias):
    # the scratch is the one statement of f3: 6 product rows form it and
    # 5 leave it out, bit for bit the flag form's output either way
    n = grid32.n
    rng = np.random.default_rng(n_pairs)
    pairs = [(int(rng.choice([1, 2, 6])),
              rng.standard_normal((3, 2, n, n)),
              rng.standard_normal((3, 2, n, n))) for _ in range(n_pairs)]
    for rows in (5, 6):
        scratch = _Scratch(grid32, 0, rows)
        f1h, ph = _quadratic_hat(grid32, pairs, dealias, scratch)
        assert ph is scratch.spectra and len(ph) == rows
        r1, rph = reference_quadratic_hat(grid32, pairs, dealias, rows == 6)
        assert np.array_equal(f1h, r1) and np.array_equal(ph, rph)


def random_pair(grid, seed):
    V = sp.random_band_limited(grid, seed=seed)
    H = np.stack([sp.random_band_limited(grid, seed=seed + s) for s in (1, 2)])
    return V, H


class TestQuadraticSource:
    def test_zero_for_zero_fields(self, grid32):
        V = np.zeros((grid32.n, grid32.n))
        H = np.zeros((2, grid32.n, grid32.n))
        f1, f2 = quadratic_source(grid32, V, H, dealias=True)
        assert sp.linf_norm(f1) == 0.0
        assert sp.linf_norm(f2) == 0.0

    def test_quadratic_scaling(self, grid32):
        V, H = random_pair(grid32, 1)
        f1, f2 = quadratic_source(grid32, V, H, dealias=True)
        g1, g2 = quadratic_source(grid32, 2 * V, 2 * H, dealias=True)
        assert sp.linf_norm(g1 - 4 * f1) < 1e-11
        assert sp.linf_norm(g2 - 4 * f2) < 1e-11

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("seed", [1, 11, 21])
    def test_matches_reference_formula(self, grid64, seed, dealias):
        V, H = random_pair(grid64, seed)
        f1, f2 = quadratic_source(grid64, V, H, dealias)
        r1, r2 = reference_quadratic_source(grid64, V, H, dealias)
        assert sp.linf_norm(f1 - r1) <= 1e-13 * sp.linf_norm(r1)
        assert sp.linf_norm(f2 - r2) <= 1e-13 * sp.linf_norm(r2)

    def test_jet_level_one_is_the_rhs(self, grid64):
        V, H = random_pair(grid64, 5)
        st = PotentialState(grid64, 0.01 * V, 0.01 * H, mu=0.05)
        jet = base_jet(st, 1)
        dV, dH = rhs_potential(st)
        assert sp.linf_norm(jet.V[1] - dV) <= 1e-13 * sp.linf_norm(dV)
        assert sp.linf_norm(jet.H[1] - dH) <= 1e-13 * sp.linf_norm(dH)

    def test_rhs_reduces_to_linear_part(self, grid32):
        st, _ = single_mode_state(grid32, 1, 0, mu=0.2)
        dV, dH = rhs_potential(st, StepperConfig(nonlinear=False),
                               include_viscosity=True)
        lin = 0.2 * laplacian(grid32, st.V) + sp.divergence(grid32, st.H)
        assert sp.linf_norm(dV - lin) < 1e-13
        assert sp.linf_norm(dH - sp.gradient(grid32, st.V)) < 1e-13


def _damp(f, factor):
    """Apply a spectral factor to each (n, n) field of f."""
    if f.ndim == 2:
        return sp.ifft(factor * sp.fft(f))
    return np.stack([_damp(x, factor) for x in f])


def reference_step(state, dt, cfg):
    """The seed IF-RK4 step: physical-space state, each use of the heat
    factor round-tripped through fft/ifft, and the RHS written out with
    physical-space operators and reference_quadratic_source.  The
    reference for step."""
    g = state.grid

    def N(V, H):
        dV = np.zeros_like(V)
        dH = np.zeros_like(H)
        if cfg.coupling:
            dV += sp.divergence(g, H)
            dH += sp.gradient(g, V)
        if cfg.nonlinear:
            f1, f2 = reference_quadratic_source(g, V, H, cfg.dealias)
            dV += f1
            dH += f2
        return dV, dH

    V, H = reference_if_rk4(g, state.mu, dt, state.V, state.H, N)
    return PotentialState(g, V, H, t=state.t + dt, mu=state.mu)


def reference_if_rk4(g, mu, dt, u, w, N):
    """The seed IF-RK4 body in physical space: u' = mu lap u + Nu and
    w' = Nw, with (Nu, Nw) = N(u, w) and the heat factor on u round-tripped
    through fft/ifft at each use."""
    E = np.exp(-mu * g.k_sq * (dt / 2.0))
    E2 = E * E
    k1u, k1w = N(u, w)
    k2u, k2w = N(_damp(u + 0.5 * dt * k1u, E), w + 0.5 * dt * k1w)
    k3u, k3w = N(_damp(u, E) + 0.5 * dt * k2u, w + 0.5 * dt * k2w)
    k4u, k4w = N(_damp(u, E2) + dt * _damp(k3u, E), w + dt * k3w)
    un = (_damp(u, E2)
          + dt / 6.0 * (_damp(k1u, E2) + 2.0 * _damp(k2u + k3u, E) + k4u))
    wn = w + dt / 6.0 * (k1w + 2.0 * (k2w + k3w) + k4w)
    return un, wn


SWITCHES = {"default": CFG,
            "no_dealias": StepperConfig(dealias=False),
            "no_coupling": StepperConfig(coupling=False),
            "linear": StepperConfig(nonlinear=False)}


class TestReferenceStep:
    @pytest.mark.parametrize("mu", [0.0, 1e-2])
    @pytest.mark.parametrize("switch", list(SWITCHES))
    def test_step_matches_seed_formula(self, grid64, mu, switch):
        cfg = SWITCHES[switch]
        V, H = random_pair(grid64, 3)
        st = PotentialState(grid64, 0.05 * V, 0.05 * H, mu=mu)
        out, ref, dflt = st, st, st
        for _ in range(5):
            dt = choose_dt(ref, CFG)
            out = step(out, dt, cfg)
            ref = reference_step(ref, dt, cfg)
            dflt = step(dflt, dt, CFG)
        for a, b, d in ((out.V, ref.V, dflt.V), (out.H, ref.H, dflt.H)):
            scale = sp.linf_norm(b)
            assert sp.linf_norm(a - b) <= 1e-13 * scale
            # each switch changes the step: none is a no-op
            if cfg != CFG:
                assert sp.linf_norm(d - b) > 1e-10 * scale


def test_step_transform_budget(grid32, transforms):
    # 3 fields in and 3 out, and 6 gradients back plus 5 products forward
    # in each of the 4 stages; a per-field or round-trip fallback exceeds it
    st = make_initial_data(grid32, InitialDataParams(amplitude=0.01,
                                                     mu=1e-2))
    transforms.clear()
    step(st, 0.01, CFG)
    assert sum(transforms.values()) <= 50
    assert set(transforms) == {"rfft", "irfft"}


def test_step_primitive_transform_budget(grid32, transforms):
    # 6 fields in and 6 out, and v, G and their 12 gradients back plus 9
    # products forward in each of the 4 stages
    st = make_initial_data(grid32, InitialDataParams(amplitude=0.01,
                                                     mu=1e-2))
    prim = primitive_of(st)
    transforms.clear()
    step_primitive(prim, 0.01, CFG)
    assert sum(transforms.values()) <= 120
    assert set(transforms) == {"rfft", "irfft"}


def hand_loop(state, t_final, cfg, dt=None):
    """evolve written out as steps of min(dt or choose_dt, t_final - t)."""
    out, steps = state, 0
    while out.t < t_final - 1e-12:
        h = dt if dt is not None else choose_dt(out, cfg)
        out = step(out, min(h, t_final - out.t), cfg)
        steps += 1
    return out, steps


class TestSpectralEvolve:
    """evolve carries the coefficients from step to step and reads dt from
    its first stage; it is the hand loop of step and choose_dt up to
    round-off."""

    @pytest.mark.parametrize("dt", [None, 0.07], ids=["cfl", "given_dt"])
    @pytest.mark.parametrize("mu", [0.0, 1e-2])
    @pytest.mark.parametrize("switch", list(SWITCHES))
    def test_matches_hand_loop(self, grid64, switch, mu, dt):
        cfg = SWITCHES[switch]
        V, H = random_pair(grid64, 3)
        st = PotentialState(grid64, 0.05 * V, 0.05 * H, mu=mu)
        ref, steps = hand_loop(st, 0.4, cfg, dt)
        ts = []
        out = evolve(st, 0.4, cfg, dt, callback=lambda s: ts.append(s.t))
        assert len(ts) == steps >= 3
        assert out.t == ref.t
        for a, b in ((out.V, ref.V), (out.H, ref.H)):
            assert sp.linf_norm(a - b) <= 1e-13 * sp.linf_norm(b)
        # a callback reads the trajectory and does not change it
        plain = evolve(st, 0.4, cfg, dt)
        assert np.array_equal(plain.V, out.V)
        assert np.array_equal(plain.H, out.H)

    def test_callback_last_state_is_returned(self, small_state):
        states = []
        out = evolve(small_state, 0.5, CFG, callback=states.append)
        assert states[-1].t == out.t == 0.5
        assert np.array_equal(states[-1].V, out.V)
        assert np.array_equal(states[-1].H, out.H)

    @pytest.mark.parametrize("t_final", [0.0, -1.0])
    def test_state_at_t_final_costs_nothing(self, small_state, transforms,
                                            t_final):
        assert evolve(small_state, t_final, CFG) is small_state
        assert sum(transforms.values()) == 0

    @pytest.mark.parametrize("dt", [None, 1e-13])
    def test_lands_on_a_t_final_close_ahead(self, small_state, dt):
        # a t_final less than 1e-12 past t is stepped to, not skipped
        assert evolve(small_state, 5e-13, CFG, dt=dt).t == 5e-13

    @pytest.mark.parametrize("field", ["V", "H"])
    def test_blow_up_at_loop_time(self, small_state, field):
        bad = {"V": small_state.V.copy(), "H": small_state.H.copy()}
        bad[field][(0,) * bad[field].ndim] = np.nan if field == "V" else np.inf
        st = replace(small_state, t=0.25, **bad)
        with np.errstate(invalid="ignore"):
            with pytest.raises(BlowUpError) as spectral:
                evolve(st, 1.0, CFG, dt=0.1)
            with pytest.raises(BlowUpError) as loop:
                hand_loop(st, 1.0, CFG, dt=0.1)
        assert spectral.value.t == loop.value.t == 0.25 + 0.1


@pytest.mark.parametrize("with_callback", [False, True],
                         ids=["plain", "callback"])
def test_evolve_transform_budget(grid32, transforms, with_callback):
    # 3 fields in and 3 out per call, and 44 a step: the 4 stages' 6
    # gradients back and 5 products forward, dt read from the first
    # stage's gradients; a callback's state costs 3 more a step.  The loop
    # of step and choose_dt costs 53 a step
    st = make_initial_data(grid32, InitialDataParams(amplitude=0.01,
                                                     mu=1e-2))
    _, steps = hand_loop(st, 1.0, CFG)
    assert steps == 7
    transforms.clear()
    evolve(st, 1.0, CFG, callback=(lambda s: None) if with_callback else None)
    assert sum(transforms.values()) <= (44 + 3 * with_callback) * steps + 6
    assert set(transforms) == {"rfft", "irfft"}


def energy(state):
    """E = 1/2 (|grad V|^2 + |grad H1|^2 + |grad H2|^2), = 1/2 (|v|^2 + |G|^2)
    in primitive form."""
    D = sp.derivative_stack(state.grid, state.V, state.H)
    return 0.5 * sp.l2_norm_sq(state.grid, D)


class TestEnergyBalance:
    PARAMS = InitialDataParams(amplitude=0.05, profile="spectral", seed=0)

    def test_inviscid_drift_converges_at_fourth_order(self, grid64):
        st = make_initial_data(grid64, self.PARAMS)
        e0 = energy(st)
        drift = []
        for cfl in (0.3, 0.15):
            out = evolve(st, 4.0, StepperConfig(cfl_factor=cfl))
            drift.append(abs(energy(out) - e0) / e0)
        assert drift[0] / drift[1] >= 16.0

    def test_viscous_energy_non_increasing(self, grid64):
        st = make_initial_data(grid64, replace(self.PARAMS, mu=1e-2))
        es = [energy(st)]
        evolve(st, 4.0, CFG, callback=lambda s: es.append(energy(s)))
        assert np.all(np.diff(es) <= 0.0)


class TestStep:
    def test_fourth_order_convergence(self, grid64):
        st = make_initial_data(grid64, InitialDataParams(amplitude=0.05,
                                                         mu=0.02))
        ref = evolve(st, 1.0, CFG, dt=0.0125)
        errs = []
        for dt in (0.1, 0.05):
            out = evolve(st, 1.0, CFG, dt=dt)
            errs.append(sp.linf_norm(out.V - ref.V)
                        + sp.linf_norm(out.H - ref.H))
        ratio = errs[0] / errs[1]
        assert 10.0 < ratio < 22.0

    def test_constraint_preserved(self, evolved_state):
        # spatial truncation limits this at n = 64; the acceptance grid
        # (n = 256) reaches 1e-8 and below
        _, linf = constraint_norms(evolved_state.grid, evolved_state.H)
        assert linf < 1e-5

    def test_band_limit_preserved(self, evolved_state):
        g = evolved_state.grid
        assert sp.linf_norm(sp.dealias(g, evolved_state.V)
                            - evolved_state.V) < 1e-13

    @pytest.mark.parametrize("stepper, form", [
        (step, lambda s: s), (step_primitive, primitive_of)],
        ids=["potential", "primitive"])
    def test_nan_raises_blow_up(self, small_state, stepper, form):
        bad = PotentialState(small_state.grid,
                             np.full_like(small_state.V, np.nan),
                             small_state.H)
        with pytest.raises(BlowUpError):
            stepper(form(bad), 0.01, CFG)

    def test_blow_up_error_pickles(self):
        # a process-pool worker returns its exceptions pickled
        exc = pickle.loads(pickle.dumps(BlowUpError(1.5)))
        assert exc.t == 1.5
        assert str(exc) == str(BlowUpError(1.5))

    def test_evolve_lands_on_t_final(self, small_state):
        out = evolve(small_state, 0.5, CFG, dt=0.03)
        assert out.t == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf])
    def test_evolve_rejects_bad_dt(self, small_state, dt):
        # a dt <= 0 never reaches t_final
        assert_evolve_rejects(small_state, "dt must be positive", dt=dt)

    @pytest.mark.parametrize("t_final", [np.nan, -np.inf, np.inf])
    def test_evolve_rejects_non_finite_t_final(self, small_state, t_final):
        # t_final = +inf is never reached
        assert_evolve_rejects(small_state, "t_final must be finite",
                              t_final=t_final)

    def test_evolve_rejects_a_dt_that_does_not_advance_t(self, small_state):
        # half an ulp of 16 is 1.8e-15, so t + 1e-15 == t at t = 16 and
        # the loop would never reach t_final
        assert_evolve_rejects(replace(small_state, t=16.0),
                              "does not advance t", t_final=16.5, dt=1e-15)

    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
    @pytest.mark.parametrize("stepper, form", [
        (step, lambda s: s), (step_primitive, primitive_of)],
        ids=["potential", "primitive"])
    def test_steps_reject_bad_dt(self, small_state, stepper, form, dt):
        # evolve's rule: not a state at t = -0.1, nor one at the same t
        # that moved by round-off, nor a blow-up at t = nan
        with pytest.raises(ValueError, match="dt must be positive"):
            stepper(form(small_state), dt, CFG)

    @pytest.mark.parametrize("stepper, form", [
        (step, lambda s: s), (step_primitive, primitive_of)],
        ids=["potential", "primitive"])
    def test_steps_reject_a_dt_that_does_not_advance_t(self, small_state,
                                                        stepper, form):
        # not a state at t = 16 whose fields moved by a step of 1e-15
        with pytest.raises(ValueError, match="does not advance t"):
            stepper(form(replace(small_state, t=16.0)), 1e-15, CFG)


def assert_evolve_rejects(state, match, t_final=0.1, **kwargs):
    """evolve raises ValueError before its first step; a run that would
    never end stops after 3 steps instead of hanging."""
    steps = []

    def stop_after_3(s):
        steps.append(s.t)
        if len(steps) >= 3:
            raise RuntimeError(f"evolve stepped to t = {t_final}, {kwargs}")

    with pytest.raises(ValueError, match=match):
        evolve(state, t_final, CFG, callback=stop_after_3, **kwargs)
    assert steps == []


def reference_rhs_primitive(state, cfg=CFG, include_viscosity=True):
    """The seed rhs_primitive: field by field in physical space, each
    product dealiased on its own; the reference for rhs_primitive."""
    g = state.grid
    v, G = state.v, state.G
    dv = np.zeros_like(v)
    dG = np.zeros_like(G)
    if include_viscosity and state.mu > 0:
        dv += state.mu * np.stack([laplacian(g, v[i]) for i in range(2)])

    gv = np.stack([sp.gradient(g, v[i]) for i in range(2)])  # gv[i, j] = d_j v_i
    if cfg.coupling:
        for i in range(2):
            dv[i] += sum(derivative(g, G[i, j], axis=j + 1) for j in range(2))
            dG[i] += gv[i]

    if cfg.nonlinear:
        # gG[i, j, l] = d_l G_{ij}
        gG = np.array([[sp.gradient(g, G[i, j]) for j in range(2)]
                       for i in range(2)])

        def mul(a, b):
            return sp.dealias(g, a * b) if cfg.dealias else a * b

        for i in range(2):
            dv[i] -= sum(mul(v[l], gv[i, l]) for l in range(2))
            for j in range(2):
                GGt = sum(mul(G[i, k], G[j, k]) for k in range(2))
                dv[i] += derivative(g, GGt, axis=j + 1)
                dG[i, j] += sum(mul(gv[i, k], G[k, j]) for k in range(2))
                dG[i, j] -= sum(mul(v[l], gG[i, j, l]) for l in range(2))
    return leray_project(g, dv), dG


def reference_step_primitive(state, dt, cfg):
    """The seed IF-RK4 step of the primitive form: physical-space state,
    the heat factor on v round-tripped through fft/ifft at each use, and
    reference_rhs_primitive without viscosity.  The reference for
    step_primitive."""
    g = state.grid

    def N(v, G):
        return reference_rhs_primitive(PrimitiveState(g, v, G, mu=state.mu),
                                       cfg, include_viscosity=False)

    v, G = reference_if_rk4(g, state.mu, dt, state.v, state.G, N)
    return PrimitiveState(g, v, G, t=state.t + dt, mu=state.mu)


def off_potential_state(grid, mu):
    """A primitive state whose products reach past the 2/3 cutoff (modes up
    to 16 of 32, so dealiasing acts) and whose G is off the potential form:
    its columns are not divergence-free."""
    band = [sp.random_band_limited(grid, seed=s, max_mode=16)
            for s in (7, 8, 9)]
    pot = primitive_of(PotentialState(grid, 0.05 * band[0],
                                      0.05 * np.stack(band[1:]), mu=mu))
    return PrimitiveState(grid, pot.v, pot.G + 0.01 * pot.G[::-1], mu=mu)


class TestReferencePrimitive:
    @pytest.mark.parametrize("viscosity", [True, False])
    @pytest.mark.parametrize("switch", list(SWITCHES))
    def test_rhs_matches_seed_formula(self, grid64, switch, viscosity):
        cfg = SWITCHES[switch]
        prim = off_potential_state(grid64, 1e-2)
        got = rhs_primitive(prim, cfg, viscosity)
        ref = reference_rhs_primitive(prim, cfg, viscosity)
        dflt = reference_rhs_primitive(prim, CFG, True)
        for a, b in zip(got, ref):
            assert sp.linf_norm(a - b) <= 1e-13 * sp.linf_norm(b)
        # each switch changes the RHS: none is a no-op
        if (cfg, viscosity) != (CFG, True):
            assert max(sp.linf_norm(d - b) / sp.linf_norm(b)
                       for d, b in zip(dflt, ref)) > 1e-10

    @pytest.mark.parametrize("mu", [0.0, 1e-2])
    @pytest.mark.parametrize("switch", list(SWITCHES))
    def test_step_primitive_matches_seed_formula(self, grid64, mu, switch):
        cfg = SWITCHES[switch]
        st = off_potential_state(grid64, mu)
        dt = CFG.cfl_factor * grid64.spacing      # the CFL step at unit speed
        out, ref, dflt = st, st, st
        for _ in range(5):
            out = step_primitive(out, dt, cfg)
            ref = reference_step_primitive(ref, dt, cfg)
            dflt = step_primitive(dflt, dt, CFG)
        for a, b, d in ((out.v, ref.v, dflt.v), (out.G, ref.G, dflt.G)):
            scale = sp.linf_norm(b)
            assert sp.linf_norm(a - b) <= 1e-13 * scale
            # each switch changes the step: none is a no-op
            if cfg != CFG:
                assert sp.linf_norm(d - b) > 1e-10 * scale


@pytest.mark.parametrize("form, shapes", [
    (dynamics._POTENTIAL, ((), (2,))),
    (dynamics._PRIMITIVE, ((2,), (2, 2)))],
    ids=["potential", "primitive"])
def test_form_splits_its_stack_back(grid32, form, shapes):
    rng = np.random.default_rng(29)
    n = grid32.n
    want = [rng.standard_normal(s + (n, n)) for s in shapes]
    u = form.stack(form.state(grid32, *want))
    got = form.split(u)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    # the stack leads with the rows that mu lap damps (V; v1, v2)
    assert np.array_equal(u[:form.damped].reshape(want[0].shape), want[0])


class _DampedRows(dynamics._IFRK4):
    """The integrator that applies the heat factor to its damped rows at
    every mu, 0 included."""

    def __init__(self, form, grid, shape, mu, cfg):
        super().__init__(form, grid, shape, mu, cfg)
        self.d = form.damped


class TestUndampedAtZeroViscosity:
    # at mu = 0 the integrator damps no row: the heat factor is exactly 1,
    # so each step equals, bit for bit, the one that applies it to the
    # rows that mu lap would damp

    @pytest.mark.parametrize("switch", list(SWITCHES))
    def test_equals_the_damped_row_path(self, grid64, monkeypatch, switch):
        cfg = SWITCHES[switch]
        V, H = random_pair(grid64, 3)
        st = PotentialState(grid64, 0.05 * V, 0.05 * H)
        prim = off_potential_state(grid64, 0.0)

        def run():
            return (step(st, 0.05, cfg), step_primitive(prim, 0.05, cfg),
                    evolve(st, 0.5, cfg))

        got = run()
        monkeypatch.setattr(dynamics, "_IFRK4", _DampedRows)
        ref = run()
        for a, b in zip(got, ref):
            assert a.t == b.t
            for name in ("V", "H", "v", "G"):
                if hasattr(a, name):
                    assert np.array_equal(getattr(a, name),
                                          getattr(b, name)), name


class TestPrimitiveConsistency:
    def test_co_evolution_tracks_potential(self, grid64):
        for mu in (0.0, 0.05):
            pot = make_initial_data(grid64,
                                    InitialDataParams(amplitude=0.01, mu=mu))
            prim = primitive_of(pot)
            for _ in range(20):
                dt = choose_dt(pot, CFG)
                pot = step(pot, dt, CFG)
                prim = step_primitive(prim, dt, CFG)
            assert sp.linf_norm(prim.v - velocity_of(grid64, pot.V)) < 1e-12

    @pytest.mark.parametrize("switch", ["default", "linear"])
    def test_rhs_velocity_divergence_free(self, grid64, switch):
        # dv is projected with the nonlinearity on or off; off, the
        # unprojected div G of this G has sup|div dv| ~ 1e-2
        prim = off_potential_state(grid64, 1e-2)
        dv, _ = rhs_primitive(prim, SWITCHES[switch])
        assert sp.linf_norm(sp.divergence(grid64, dv)) <= 1e-12

    def test_velocity_stays_divergence_free(self, grid64):
        pot = make_initial_data(grid64, InitialDataParams(amplitude=0.01))
        prim = primitive_of(pot)
        for _ in range(10):
            prim = step_primitive(prim, 0.05, CFG)
        assert sp.linf_norm(sp.divergence(grid64, prim.v)) < 1e-10

"""Acceptance gate: nine quantitative criteria at the default desk scale
(n = 256, L = 64, T = 16, amplitude 0.01, k_max = 2).

Each test emits one PASS/FAIL line; the expensive runs (viscosity sweep,
co-evolution, mid-time state) are shared through session fixtures.  On a
shared 2-core Xeon (numpy 2.4.6) the whole test suite took 111-256 s,
nearly all of it in this module; its two criterion-2 runs took 101 s in
one run.
"""

import os
import time

import numpy as np
import pytest

import ve2d.diagnostics as dg
import ve2d.spectral as sp
from ve2d.dynamics import StepperConfig, choose_dt, evolve, step, step_primitive
from ve2d.experiments import RunConfig, state_l2_distance, sweep_viscosity
from ve2d.families import commutator_residuals, derived_family
from ve2d.grid import Grid
from ve2d.state import (InitialDataParams, make_initial_data, primitive_of,
                        velocity_of)

MU_SET = (0.0, 1e-3, 1e-2, 1e-1)
CFG = StepperConfig()


_CAPMAN = None


@pytest.fixture(scope="session", autouse=True)
def _capture_manager(pytestconfig):
    global _CAPMAN
    _CAPMAN = pytestconfig.pluginmanager.getplugin("capturemanager")
    yield
    _CAPMAN = None


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


@pytest.fixture(scope="session")
def acceptance_cfg():
    return RunConfig(mu_list=MU_SET)


@pytest.fixture(scope="session")
def sweep(acceptance_cfg):
    """One full T = 16 run per viscosity in MU_SET, shared by criteria
    3, 5, 6, and 7."""
    saved = os.environ.get("VE2D_THREADS")
    os.environ["VE2D_THREADS"] = str(min(4, os.cpu_count() or 1))
    try:
        report = sweep_viscosity(acceptance_cfg)
    finally:
        if saved is None:
            os.environ.pop("VE2D_THREADS", None)
        else:
            os.environ["VE2D_THREADS"] = saved
    return {res.mu: res for res in report["runs"]}


@pytest.fixture(scope="session")
def mu0_run(sweep):
    return sweep[0.0]


@pytest.fixture(scope="session")
def mid_time_state(acceptance_cfg):
    """Inviscid acceptance state at t = 8, used by criteria 4 and 9."""
    grid = Grid(acceptance_cfg.n, acceptance_cfg.box_len)
    st = make_initial_data(grid, acceptance_cfg.initial)
    return evolve(st, 8.0, CFG)


def test_criterion_1_algebraic_identities():
    grid = Grid(128, 64.0)
    start = time.time()
    worst = {}
    for trial in range(100):
        V = sp.random_band_limited(grid, seed=5 * trial)
        H = np.stack([sp.random_band_limited(grid, seed=5 * trial + i)
                      for i in (1, 2)])
        Vp = sp.random_band_limited(grid, seed=5 * trial + 3)
        Hp = np.stack([sp.random_band_limited(grid, seed=5 * trial + i)
                       for i in (4, 5)])
        res = dg.identity_checks(grid, V, H, Vp, Hp, t=float(trial % 7))
        for key, val in res.items():
            worst[key] = max(worst.get(key, 0.0), val)
    elapsed = time.time() - start
    exact = max(val for key, val in worst.items() if key != "grad_split")
    ok = exact <= 1e-12 and worst["grad_split"] <= 1e-8 and elapsed < 10.0
    _report(1, "algebraic identities", ok,
            f"max exact residual {exact:.2e} (<= 1e-12), origin-regularized "
            f"{worst['grad_split']:.2e} (<= 1e-8), {elapsed:.1f}s (< 10s)")
    assert exact <= 1e-12
    assert worst["grad_split"] <= 1e-8
    assert elapsed < 10.0


@pytest.mark.parametrize("mu", [0.0, 0.01])
def test_criterion_2_formulation_equivalence(mu):
    grid = Grid(256, 64.0)
    pot = make_initial_data(grid, InitialDataParams(amplitude=0.01, mu=mu))
    prim = primitive_of(pot)
    worst = 0.0
    next_check = 0.0
    while pot.t < 16.0 - 1e-12:
        h = min(choose_dt(pot, CFG), 16.0 - pot.t)
        pot = step(pot, h, CFG)
        prim = step_primitive(prim, h, CFG)
        if pot.t >= next_check - 1e-9:
            worst = max(worst, sp.linf_norm(prim.v
                                            - velocity_of(grid, pot.V)))
            next_check += 1.0
    worst = max(worst, sp.linf_norm(prim.v - velocity_of(grid, pot.V)))
    ok = worst <= 1e-6
    _report(2, f"formulation equivalence, mu = {mu:g}", ok,
            f"sup |v - perp-grad V| = {worst:.2e} (<= 1e-6)")
    assert ok


def test_criterion_3_constraint_propagation(mu0_run):
    _, linf = mu0_run.series("constraint_Linf")
    worst = float(np.max(linf))
    ok = worst <= 1e-8
    _report(3, "constraint propagation", ok,
            f"max over samples of Linf residual = {worst:.2e} (<= 1e-8)")
    assert ok


def test_criterion_4_commutator_consistency(mid_time_state):
    def worst_residual(state):
        fam = derived_family(state, 2)
        worst = 0.0
        for idx in fam.indices:
            worst = max(worst, *commutator_residuals(fam, idx))
        return worst

    fine = worst_residual(mid_time_state)
    coarse_grid = Grid(64, 64.0)
    coarse = worst_residual(
        evolve(make_initial_data(coarse_grid,
                                 InitialDataParams(amplitude=0.01)),
               8.0, CFG))
    ok = fine <= 1e-6 and fine <= 0.5 * coarse
    _report(4, "commutator consistency", ok,
            f"worst residual {fine:.2e} at n = 256 (<= 1e-6), "
            f"{coarse:.2e} at n = 64 (>= 2x reduction under 4x refinement)")
    assert fine <= 1e-6
    assert fine <= 0.5 * coarse


def test_criterion_5_decay_exponents(mu0_run):
    ts, good = mu0_run.series("good_sup")
    p_good, err_good = dg.fit_decay(ts, good, 5.0, 16.0)
    ts, grad = mu0_run.series("grad_sup")
    p_grad, err_grad = dg.fit_decay(ts, grad, 5.0, 16.0)
    ok = -1.8 <= p_good <= -1.2 and -0.8 <= p_grad <= -0.3
    _report(5, "decay exponents", ok,
            f"good-unknown sup fit {p_good:.3f}±{err_good:.3f} "
            f"(in [-1.8, -1.2]), gradient sup fit {p_grad:.3f}±{err_grad:.3f} "
            f"(in [-0.8, -0.3])")
    assert -1.8 <= p_good <= -1.2
    assert -0.8 <= p_grad <= -0.3


def test_criterion_6_uniform_boundedness(sweep):
    worst_ratio = 0.0
    worst_growth = -np.inf
    for mu, res in sweep.items():
        ts, e1 = res.series("E1")
        worst_ratio = max(worst_ratio, float(np.max(e1) / e1[0]))
        ts, ce2 = res.series("calE2")
        p, _ = dg.fit_decay(ts, ce2, 1.0, 16.0)
        worst_growth = max(worst_growth, p)
    ok = worst_ratio <= 2.0 and worst_growth <= 0.25
    _report(6, "uniform-in-viscosity boundedness", ok,
            f"max E1(t)/E1(0) = {worst_ratio:.4f} (<= 2), max fitted calE2 "
            f"exponent = {worst_growth:.4f} (<= 0.25)")
    assert worst_ratio <= 2.0
    assert worst_growth <= 0.25


def test_criterion_7_vanishing_viscosity(sweep):
    base = sweep[0.0].final_state
    mus = [1e-1, 1e-2, 1e-3]
    dists = [state_l2_distance(sweep[mu].final_state, base) for mu in mus]
    decreasing = dists[0] > dists[1] > dists[2] > 0
    order = float(np.polyfit(np.log(mus), np.log(dists), 1)[0])
    ok = decreasing
    _report(7, "vanishing-viscosity convergence", ok,
            "distances " + ", ".join(f"{d:.3e}" for d in dists)
            + f" strictly decreasing along mu = 1e-1, 1e-2, 1e-3; "
            f"fitted order {order:.3f} (recorded, band [0.7, 1.3] expected)")
    assert decreasing


def test_criterion_8_stepper_order():
    grid = Grid(64, 64.0)
    st = make_initial_data(grid, InitialDataParams(amplitude=0.01, mu=0.01))
    ref = evolve(st, 2.0, CFG, dt=0.025)
    errs = []
    for dt in (0.2, 0.1):
        out = evolve(st, 2.0, CFG, dt=dt)
        errs.append(sp.linf_norm(out.V - ref.V)
                    + sp.linf_norm(out.H - ref.H))
    ratio = errs[0] / errs[1]

    heat0 = make_initial_data(grid, InitialDataParams(amplitude=0.01))
    heat0 = type(heat0)(grid, heat0.V, heat0.H, t=0.0, mu=0.1)
    heat_cfg = StepperConfig(nonlinear=False, coupling=False)
    out = evolve(heat0, 1.0, heat_cfg, dt=0.25)
    exact = sp.ifft(sp.fft(heat0.V) * np.exp(-0.1 * grid.k_sq))
    heat_err = sp.linf_norm(out.V - exact)

    ok = 10.0 <= ratio <= 22.0 and heat_err <= 1e-14
    _report(8, "stepper order", ok,
            f"dt-halving error ratio {ratio:.2f} (in [10, 22]), pure-heat "
            f"error {heat_err:.2e} (<= 1e-14)")
    assert 10.0 <= ratio <= 22.0
    assert heat_err <= 1e-14


def test_criterion_9_inequality_constants(mid_time_state, mu0_run):
    worst_sob = 0.0
    worst_decay = 0.0
    for state in (mid_time_state, mu0_run.final_state):
        sob = dg.weighted_sobolev_ratios(state.grid, state.V,
                                               t=state.t)
        worst_sob = max(worst_sob, *sob.values())
        fam = derived_family(state, 2)
        dec = dg.nonlinearity_decay_ratios(fam)
        worst_decay = max(worst_decay, *dec.values())
    ok = worst_sob <= 10.0 and worst_decay <= 50.0
    _report(9, "inequality constants", ok,
            f"weighted Sobolev ratio {worst_sob:.3f} (<= 10), nonlinearity "
            f"decay ratio {worst_decay:.3f} (<= 50), at t = 8 and t = 16")
    assert worst_sob <= 10.0
    assert worst_decay <= 50.0

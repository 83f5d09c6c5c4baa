import numpy as np
import pytest

import ve2d.spectral as sp
from ve2d.dynamics import StepperConfig, evolve, rhs_potential
from ve2d.families import (MultiIndex, admissible_indices, apply_field,
                           base_jet, commutator_residuals, derived_family,
                           nonlinearity_f, time_derivative)
from ve2d.state import InitialDataParams, make_initial_data

ROOT = MultiIndex(0, (0, 0, 0, 0))


class TestIndices:
    def test_counts(self):
        # alpha plus four exponents: compositions of total order <= k
        assert len(admissible_indices(0)) == 1
        assert len(admissible_indices(1)) == 6
        assert len(admissible_indices(2)) == 21

    def test_orders_bounded(self):
        for idx in admissible_indices(2):
            assert 0 <= idx.order <= 2

    def test_contains_every_first_order_word(self):
        got = set(admissible_indices(1))
        assert MultiIndex(1, (0, 0, 0, 0)) in got
        for m in range(4):
            a = [0, 0, 0, 0]
            a[m] = 1
            assert MultiIndex(0, tuple(a)) in got


class TestBaseJet:
    def test_level_one_matches_time_differencing(self, grid64):
        # independent oracle: central difference of the evolved trajectory
        from ve2d.dynamics import step
        st = evolve(make_initial_data(grid64,
                                      InitialDataParams(amplitude=0.02)),
                    1.0, StepperConfig())
        dt = 1e-4
        ahead = step(st, dt, StepperConfig())
        behind = step(st, -dt, StepperConfig())
        fd_V = (ahead.V - behind.V) / (2 * dt)
        fd_H = (ahead.H - behind.H) / (2 * dt)
        dV, dH = time_derivative(st, 1)
        assert sp.linf_norm(dV - fd_V) < 1e-7
        assert sp.linf_norm(dH - fd_H) < 1e-7

    def test_shapes_and_level_zero(self, evolved_state):
        jet = base_jet(evolved_state, 3)
        assert jet.levels == 3
        V0, H0 = jet.pair(0)
        assert np.array_equal(V0, evolved_state.V)
        assert np.array_equal(H0, evolved_state.H)

    def test_time_derivative_requires_positive_order(self, evolved_state):
        with pytest.raises(ValueError):
            time_derivative(evolved_state, 0)


class TestApplyField:
    def test_spatial_ops_match_spectral_derivatives(self, evolved_state):
        jet = base_jet(evolved_state, 1)
        g = evolved_state.grid
        for op, axis in (("d1", 1), ("d2", 2)):
            out = apply_field(op, jet)
            assert sp.linf_norm(out.V[0]
                                - sp.derivative(g, jet.V[0], axis)) < 1e-13

    def test_dt_shifts_levels(self, evolved_state):
        jet = base_jet(evolved_state, 2)
        out = apply_field("dt", jet)
        assert out.levels == 1
        assert np.array_equal(out.V[0], jet.V[1])

    def test_modified_rotation_on_h(self, evolved_state):
        g = evolved_state.grid
        jet = base_jet(evolved_state, 0)
        out = apply_field("rot", jet)
        expect0 = sp.rotation(g, jet.H[0, 0]) + jet.H[0, 1]
        expect1 = sp.rotation(g, jet.H[0, 1]) - jet.H[0, 0]
        assert sp.linf_norm(out.H[0, 0] - expect0) < 1e-13
        assert sp.linf_norm(out.H[0, 1] - expect1) < 1e-13

    def test_scaling_field_formula(self, evolved_state):
        g = evolved_state.grid
        jet = base_jet(evolved_state, 1)
        out = apply_field("scale", jet)
        expect = (jet.t * jet.V[1] - jet.V[0]
                  + sp.radial_scaled_derivative(g, jet.V[0]))
        assert sp.linf_norm(out.V[0] - expect) < 1e-13

    def test_consumed_levels_guarded(self, evolved_state):
        jet = base_jet(evolved_state, 0)
        for op in ("dt", "scale"):
            with pytest.raises(ValueError):
                apply_field(op, jet)

    def test_unknown_op_rejected(self, evolved_state):
        with pytest.raises(ValueError):
            apply_field("curl", base_jet(evolved_state, 1))


class TestCommutatorAlgebra:
    def test_spatial_fields_commute(self, evolved_state):
        jet = base_jet(evolved_state, 0)
        ab = apply_field("d2", apply_field("d1", jet))
        ba = apply_field("d1", apply_field("d2", jet))
        assert sp.linf_norm(ab.V[0] - ba.V[0]) < 1e-11

    def test_rotation_derivative_commutator(self, evolved_state):
        # [d1, rot] = d2 and [d2, rot] = -d1 on the scalar component
        jet = base_jet(evolved_state, 0)
        lhs = apply_field("d1", apply_field("rot", jet))
        rhs = apply_field("rot", apply_field("d1", jet))
        diff = lhs.V[0] - rhs.V[0]
        expect = apply_field("d2", jet).V[0]
        assert sp.linf_norm(diff - expect) < 1e-9

    def test_derivative_scaling_commutator(self, evolved_state):
        # [d1, scale~] = d1
        jet = base_jet(evolved_state, 1)
        lhs = apply_field("d1", apply_field("scale", jet))
        rhs = apply_field("scale", apply_field("d1", jet))
        diff = lhs.V[0] - rhs.V[0]
        expect = apply_field("d1", jet).V[0]
        assert sp.linf_norm(diff - expect) < 1e-9


class TestDerivedFamily:
    def test_caches_all_indices(self, evolved_state):
        fam = derived_family(evolved_state, 2)
        assert len(fam) == 21
        for idx in fam.indices:
            V, H = fam.fields(idx)
            assert V.shape == evolved_state.V.shape
            assert H.shape == evolved_state.H.shape

    def test_pure_spatial_entries_match_direct_derivatives(self,
                                                           evolved_state):
        fam = derived_family(evolved_state, 2)
        g = evolved_state.grid
        V_d1, _ = fam.fields(MultiIndex(0, (0, 1, 0, 0)))
        assert sp.linf_norm(V_d1 - sp.derivative(g, evolved_state.V, 1)) \
            < 1e-13
        V_d12, _ = fam.fields(MultiIndex(0, (0, 1, 1, 0)))
        direct = sp.derivative(g, sp.derivative(g, evolved_state.V, 2), 1)
        assert sp.linf_norm(V_d12 - direct) < 1e-12

    def test_k_max_guard(self, evolved_state):
        with pytest.raises(ValueError):
            derived_family(evolved_state, 4)


class TestCommutedEquations:
    def test_residuals_small_for_all_indices(self, evolved_state):
        # the commuted system must hold for every admissible word; this is
        # the independent check that jets, fields, and sources cohere
        fam = derived_family(evolved_state, 2)
        for idx in fam.indices:
            r1, r2, r3 = commutator_residuals(fam, idx)
            assert r1 < 1e-5, (idx, r1)
            assert r2 < 1e-5, (idx, r2)
            assert r3 < 1e-5, (idx, r3)

    def test_residuals_small_with_viscosity(self, evolved_state_viscous):
        fam = derived_family(evolved_state_viscous, 2)
        for idx in fam.indices:
            r1, r2, r3 = commutator_residuals(fam, idx)
            assert max(r1, r2, r3) < 1e-5, idx

    def test_root_sources_match_evolution_sources(self, evolved_state):
        # rhs_potential's nonlinear part (f1 from the perp-derivative form)
        # against nonlinearity_f (f1 from the plain-derivative fij)
        fam = derived_family(evolved_state, 2)
        f1, f2, f3, fij = nonlinearity_f(fam, ROOT)
        g1, g2 = rhs_potential(evolved_state, StepperConfig(coupling=False),
                               include_viscosity=False)
        assert sp.linf_norm(f1 - g1) < 1e-11
        assert sp.linf_norm(f2 - g2) < 1e-11

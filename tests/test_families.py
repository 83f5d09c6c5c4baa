from math import comb

import gc
import weakref

import numpy as np
import pytest

import ve2d.families as families
import ve2d.spectral as sp
from ve2d.dynamics import StepperConfig, evolve, rhs_potential
from ve2d.grid import Grid
from ve2d.experiments import RunConfig, audit
from ve2d.diagnostics import (nonlinearity_decay_ratios, sample_record,
                             sample_state, weighted_sobolev_ratios)
from ve2d.families import (Jet, MultiIndex, _children, _members, _splittings,
                           admissible_indices, apply_field, base_jet,
                           commutator_residuals, derived_family,
                           nonlinearity_f, time_derivative)
from ve2d.state import InitialDataParams, PotentialState, make_initial_data
from spectral_ops import (derivative, laplacian, radial_scaled_derivative,
                          riesz_pp, rotation)

ROOT = MultiIndex(0, (0, 0, 0, 0))


# ---------------------------------------------------------------------------
# the seed quadratic forms: each product dealiased on its own, each Riesz
# multiplier applied to its own f_ij; the references for base_jet and
# nonlinearity_f, which sum the products first and dealias once

def _mul(grid, a, b, dealias):
    return sp.dealias(grid, a * b) if dealias else a * b


def reference_bilin_f1_perp(grid, Da, Db, dealias):
    """sum_ij riesz_pp(i,j, -d_i^perp Va d_j^perp Vb + d_i^perp Ha . d_j^perp Hb)."""
    Pa, Pb = sp.perp(Da), sp.perp(Db)
    out = np.zeros((grid.n, grid.n))
    for i in range(2):
        for j in range(2):
            fij = -_mul(grid, Pa[0, i], Pb[0, j], dealias)
            for m in range(2):
                fij += _mul(grid, Pa[1 + m, i], Pb[1 + m, j], dealias)
            out += riesz_pp(grid, i + 1, j + 1, fij)
    return out


def reference_quad_fij(grid, Da, Db, i, j, dealias):
    """Plain-derivative quadratic form d_i Va d_j Vb - d_i Ha . d_j Hb."""
    out = _mul(grid, Da[0, i - 1], Db[0, j - 1], dealias)
    for m in range(2):
        out -= _mul(grid, Da[1 + m, i - 1], Db[1 + m, j - 1], dealias)
    return out


def reference_bilin_f2(grid, Da, Db, dealias):
    """Component j: sum_l d_l^perp Ha_j d_l Vb; returns shape (2, n, n)."""
    gpH = sp.perp(Da[1:])
    return np.stack([sum(_mul(grid, gpH[j, l], Db[0, l], dealias)
                         for l in range(2)) for j in range(2)])


def reference_bilin_f3(grid, Da, Db, dealias):
    """sum_l d_l^perp Ha_2 d_l Hb_1."""
    gpH2 = sp.perp(Da[2])
    return sum(_mul(grid, gpH2[l], Db[1, l], dealias) for l in range(2))


def reference_base_jet(state, levels, dealias=True):
    """The seed base_jet: the Leibniz recursion with the seed forms."""
    g = state.grid
    V = np.empty((levels + 1, g.n, g.n))
    H = np.empty((levels + 1, 2, g.n, g.n))
    V[0], H[0] = state.V, state.H
    D = []
    for m in range(levels):
        D.append(sp.derivative_stack(g, V[m], H[m]))
        dV = sp.divergence(g, H[m])
        if state.mu > 0:
            dV += state.mu * laplacian(g, V[m])
        dH = D[m][0].copy()
        for l in range(m + 1):
            c = comb(m, l)
            dV += c * reference_bilin_f1_perp(g, D[l], D[m - l], dealias)
            dH += c * reference_bilin_f2(g, D[l], D[m - l], dealias)
        V[m + 1], H[m + 1] = dV, dH
    return Jet(grid=g, V=V, H=H, t=state.t, mu=state.mu)


def reference_nonlinearity_f(fam, idx):
    """The seed nonlinearity_f: the splitting sums with the seed forms."""
    g = fam.state.grid
    n = g.n
    fij = {(i, j): np.zeros((n, n)) for i in range(1, 3) for j in range(1, 3)}
    f2 = np.zeros((2, n, n))
    f3 = np.zeros((n, n))
    for left, right, coef in _splittings(idx):
        Da = sp.derivative_stack(g, *fam.fields(left))
        Db = sp.derivative_stack(g, *fam.fields(right))
        for i in range(1, 3):
            for j in range(1, 3):
                fij[i, j] += coef * reference_quad_fij(g, Da, Db, i, j,
                                                       fam.dealias)
        f2 += coef * reference_bilin_f2(g, Da, Db, fam.dealias)
        f3 += coef * reference_bilin_f3(g, Da, Db, fam.dealias)
    f1 = np.zeros((n, n))
    for (i, j), field_ij in fij.items():
        f1 += riesz_pp(g, i, j, field_ij)
    return f1, f2, f3, fij


# ---------------------------------------------------------------------------
# the word order scale~, d_t, d_1, d_2, rot~ as nested loops and an
# if-chain: the references for admissible_indices, _splittings and
# _children, which read a member's degrees in _CANONICAL order

def reference_admissible_indices(k_max):
    out = []
    for total in range(k_max + 1):
        for alpha in range(total + 1):
            rest = total - alpha
            for a1 in range(rest + 1):
                for a2 in range(rest - a1 + 1):
                    for a3 in range(rest - a1 - a2 + 1):
                        a4 = rest - a1 - a2 - a3
                        out.append(MultiIndex(alpha, (a1, a2, a3, a4)))
    return out


def reference_splittings(idx):
    alpha, a = idx
    for beta in range(alpha + 1):
        for b1 in range(a[0] + 1):
            for b2 in range(a[1] + 1):
                for b3 in range(a[2] + 1):
                    for b4 in range(a[3] + 1):
                        b = (b1, b2, b3, b4)
                        c = tuple(ai - bi for ai, bi in zip(a, b))
                        coef = comb(alpha, beta)
                        for ai, bi in zip(a, b):
                            coef *= comb(ai, bi)
                        yield (MultiIndex(beta, b),
                               MultiIndex(alpha - beta, c), coef)


def reference_parent(idx):
    """Outermost operator of the canonical word and the remaining index."""
    alpha, (a1, a2, a3, a4) = idx
    if alpha > 0:
        return "scale", MultiIndex(alpha - 1, (a1, a2, a3, a4))
    if a1 > 0:
        return "dt", MultiIndex(0, (a1 - 1, a2, a3, a4))
    if a2 > 0:
        return "d1", MultiIndex(0, (a1, a2 - 1, a3, a4))
    if a3 > 0:
        return "d2", MultiIndex(0, (a1, a2, a3 - 1, a4))
    if a4 > 0:
        return "rot", MultiIndex(0, (a1, a2, a3, a4 - 1))
    return None


def reference_children(k_max):
    """{parent: [(op, child), ...]} by inverting reference_parent, each
    parent's children sorted outermost operator first."""
    order = ("scale", "dt", "d1", "d2", "rot")
    children = {}
    for idx in reference_admissible_indices(k_max)[1:]:
        op, parent = reference_parent(idx)
        children.setdefault(parent, []).append((op, idx))
    for kids in children.values():
        kids.sort(key=lambda kid: order.index(kid[0]))
    return children


def random_state(grid, seed, mu=0.0):
    """Small non-radial band-limited data: every member of a derived
    family is a field of its own size, so relative comparisons mean
    something (on a radial bump the rot members are round-off noise)."""
    V = sp.random_band_limited(grid, seed=seed, amplitude=0.05)
    H = np.stack([sp.random_band_limited(grid, seed=seed + s, amplitude=0.05)
                  for s in (1, 2)])
    return PotentialState(grid, V, H, mu=mu)


def rel_err(a, b):
    return sp.linf_norm(a - b) / sp.linf_norm(b)


class TestIndices:
    def test_counts(self):
        # alpha plus four exponents: compositions of total order <= k
        assert len(admissible_indices(0)) == 1
        assert len(admissible_indices(1)) == 6
        assert len(admissible_indices(2)) == 21

    def test_orders_bounded(self):
        for idx in admissible_indices(2):
            assert 0 <= idx.order <= 2

    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    def test_word_order_equals_the_reference(self, k_max):
        # the same indices, splittings (order and coefficients) and
        # children, in the same order, as the loops and the if-chain
        indices = admissible_indices(k_max)
        assert indices == reference_admissible_indices(k_max)
        children = reference_children(k_max)
        for idx in indices:
            assert (list(_splittings(idx))
                    == list(reference_splittings(idx))), idx
            assert _children(idx, k_max) == children.get(idx, []), idx

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
        # level 0 is read from the coefficients, as every level is, and the
        # transform pair gives the state's fields back to round-off
        jet = base_jet(evolved_state, 3)
        assert jet.levels == 3
        V0, H0 = jet.pair(0)
        u0 = sp.ifft(jet.hat[0])
        assert np.array_equal(V0, u0[0])
        assert np.array_equal(H0, u0[1:])
        for got, want in ((V0, evolved_state.V), (H0, evolved_state.H)):
            assert sp.linf_norm(got - want) <= 2e-15 * sp.linf_norm(want)

    def test_time_derivative_requires_positive_order(self, evolved_state):
        with pytest.raises(ValueError):
            time_derivative(evolved_state, 0)


def assert_read_from_hat(jet):
    """Every physical read of jet is the inverse transform of its
    coefficients, bit for bit."""
    assert np.array_equal(jet.V, sp.ifft(jet.hat[:, 0]))
    assert np.array_equal(jet.H, sp.ifft(jet.hat[:, 1:]))
    for m in range(jet.levels + 1):
        u = sp.ifft(jet.hat[m])
        V, H = jet.pair(m)
        assert np.array_equal(V, u[0]) and np.array_equal(H, u[1:]), m


class TestOneReadPath:
    # a jet holds its coefficients and nothing else: each field of every
    # level, level 0 of the root too, is read one way
    def test_constructed_jet(self, grid32):
        V = np.stack([sp.random_band_limited(grid32, seed=s)
                      for s in range(3)])
        H = np.stack([[sp.random_band_limited(grid32, seed=10 * s + c)
                       for c in (1, 2)] for s in range(3)])
        assert_read_from_hat(Jet(grid32, V, H, 0.5, 0.0))

    def test_base_jet(self, grid32):
        assert_read_from_hat(base_jet(random_state(grid32, 5), 3))

    @pytest.mark.parametrize("residual", [True, False],
                             ids=["residual", "lean"])
    def test_family_members(self, grid32, residual):
        fam = derived_family(random_state(grid32, 5), 2, residual=residual)
        for idx in fam.indices:
            jet = fam.jet(idx)
            assert_read_from_hat(jet)
            u = sp.ifft(jet.hat[0])
            V, H = fam.fields(idx)
            assert np.array_equal(V, u[0]), idx
            assert np.array_equal(H, u[1:]), idx


class TestSeedForms:
    # Levels 1-2 must match to 1e-13.  Levels 3-4 sum more terms of larger
    # derivatives, and the seed code itself is no better conditioned there:
    # a random one-ulp change of (V, H) moves the seed base_jet on this data
    # (n = 64, seeds 1, 5, 9, mu in {0, 0.05}, with and without dealias) by
    # up to 2.7e-14 relative at level 3 and 8.5e-14 at level 4.  The bounds
    # below are those one-ulp sensitivities, rounded up.
    LEVEL_BOUND = {1: 1e-13, 2: 1e-13, 3: 3e-14, 4: 9e-14}

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("mu", [0.0, 0.05])
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_base_jet_matches_seed_formula(self, grid64, seed, mu, dealias):
        st = random_state(grid64, seed, mu)
        jet = base_jet(st, 4, dealias)
        ref = reference_base_jet(st, 4, dealias)
        for m, bound in self.LEVEL_BOUND.items():
            assert rel_err(jet.V[m], ref.V[m]) <= bound, m
            assert rel_err(jet.H[m], ref.H[m]) <= bound, m

    @pytest.mark.parametrize("dealias", [True, False])
    def test_nonlinearity_f_matches_seed_formula(self, grid64, dealias):
        fam = derived_family(random_state(grid64, 3), 2, dealias)
        for idx in fam.indices:
            got = nonlinearity_f(fam, idx)
            ref = reference_nonlinearity_f(fam, idx)
            for a, b in zip(got[:3], ref[:3]):
                assert rel_err(a, b) <= 1e-13, idx
            for ij, b in ref[3].items():
                assert rel_err(got[3][ij], b) <= 1e-13, (idx, ij)


class TestTransformBudget:
    # measured counts at n = 32 (fields through the row passes, once per
    # direction; a batch of k counts k).  Jets hold rfft2 coefficients:
    # base_jet costs 3 fields in and 11 per level, d_t, d_1 and d_2 cost
    # none, and each parent of a rot~ or scale~ child
    # transforms the gradients of the levels they read once, which also
    # gives its kept stack.  The root reads the gradients base_jet built
    # its levels from, and a d_t child with children reads its parent's
    # from level 1 on when the parent holds them anyway (the root and the
    # pure rot~ words, and the d_t children themselves), so neither
    # transforms its own.  A sample reads the kept stacks and the
    # coefficients and makes no forward transform: its 9 fields are the
    # root's second derivatives (d1d2 = d2d1 is formed once).  Each
    # quadratic form is summed over its Leibniz sum or splittings and
    # transformed once; dealiasing each product on its own exceeds these.
    @pytest.fixture
    def state(self, grid32):
        return make_initial_data(grid32, InitialDataParams(amplitude=0.01,
                                                           mu=1e-2))

    def test_derived_family(self, state, transforms):
        transforms.clear()
        derived_family(state, 2)
        assert sum(transforms.values()) <= 138
        assert set(transforms) == {"rfft", "irfft"}

    def test_sample_record(self, state, transforms):
        fam = derived_family(state, 2)
        transforms.clear()
        sample_record(fam)
        assert sum(transforms.values()) <= 9
        assert set(transforms) == {"irfft"}

    def test_derived_family_k_max_3(self, state, transforms):
        transforms.clear()
        derived_family(state, 3)
        assert sum(transforms.values()) <= 449
        assert set(transforms) == {"rfft", "irfft"}

    def test_lean_derived_family(self, state, transforms):
        # without the residual level: base_jet one level shorter, each
        # gradient batch one level shorter, and each rot~ or scale~ child
        # one level fewer forward
        transforms.clear()
        derived_family(state, 2, residual=False)
        assert sum(transforms.values()) <= 79
        assert set(transforms) == {"rfft", "irfft"}

    def test_lean_derived_family_k_max_3(self, state, transforms):
        transforms.clear()
        derived_family(state, 3, residual=False)
        assert sum(transforms.values()) <= 264
        assert set(transforms) == {"rfft", "irfft"}

    def test_sample_record_k_max_3(self, state, transforms):
        fam = derived_family(state, 3)
        transforms.clear()
        sample_record(fam)
        assert sum(transforms.values()) <= 9
        assert set(transforms) == {"irfft"}

    @pytest.mark.parametrize("k_max, budget", [(2, 79 + 9), (3, 264 + 9)])
    def test_sample_state(self, state, transforms, k_max, budget):
        # the streamed sample builds the lean family's members and makes
        # the sample's transforms, nothing more
        transforms.clear()
        sample_state(state, k_max)
        assert sum(transforms.values()) <= budget
        assert set(transforms) == {"rfft", "irfft"}

    def test_nonlinearity_f_all_indices(self, state, transforms):
        # per index one forward batch of the 6 summed products and one
        # inverse batch of 7 fields; each order-2 member's stack is built
        # once, 6 fields
        fam = derived_family(state, 2)
        transforms.clear()
        for idx in fam.indices:
            nonlinearity_f(fam, idx)
        assert sum(transforms.values()) <= 363
        assert set(transforms) == {"rfft", "irfft"}

    def test_commutator_residuals_all_indices(self, state, transforms):
        # the 6 products forward, then the residuals formed in
        # coefficients and one inverse batch of 4 fields per index
        fam = derived_family(state, 2)
        transforms.clear()
        for idx in fam.indices:
            commutator_residuals(fam, idx)
        assert sum(transforms.values()) <= 300
        assert set(transforms) == {"rfft", "irfft"}

    def test_nonlinearity_decay_ratios(self, state, transforms):
        # the fields of the 14 members U^(0,a) with |a| = 1 or 2 (3 each),
        # the root's 6 products forward and 7 fields back, div f2 among
        # them
        fam = derived_family(state, 2)
        transforms.clear()
        nonlinearity_decay_ratios(fam)
        assert sum(transforms.values()) <= 55
        assert set(transforms) == {"rfft", "irfft"}

    def test_root_products_formed_once(self, state, transforms):
        # the root's residual and the decay ratios share the root's
        # product spectra: the ratios then skip its 6 forward fields, and
        # read the same values as on a fresh family
        fam = derived_family(state, 2)
        commutator_residuals(fam, ROOT)
        transforms.clear()
        shared = nonlinearity_decay_ratios(fam)
        assert sum(transforms.values()) <= 55 - 6
        assert set(transforms) == {"irfft"}
        assert shared == nonlinearity_decay_ratios(derived_family(state, 2))
        for spectra in fam._root_hat:
            assert not spectra.flags.writeable

    def test_weighted_sobolev_ratios(self, state, transforms):
        # f and its rotation forward, their gradients (2 each) and the 3
        # second derivatives of f back (d1d2 f = d2d1 f)
        transforms.clear()
        weighted_sobolev_ratios(state.grid, state.V, t=state.t)
        assert sum(transforms.values()) <= 9
        assert set(transforms) == {"rfft", "irfft"}

    def test_audit(self, transforms):
        # the steps to t = 0.5, one walk (138), the 21 commutator
        # residuals (300) and the ratios, which reuse the root's product
        # spectra (6 forward fields fewer); a family and a sample at each
        # of the 3 sample times on the way, then a fourth family, took 1322
        cfg = RunConfig(n=32, box_len=16.0, t_final=0.5, sample_interval=0.25,
                        k_max=2)
        transforms.clear()
        audit(cfg, n_random=0)
        assert sum(transforms.values()) <= 710
        assert set(transforms) == {"rfft", "irfft"}


class TestApplyField:
    def test_spatial_ops_match_spectral_derivatives(self, evolved_state):
        jet = base_jet(evolved_state, 1)
        g = evolved_state.grid
        for op, axis in (("d1", 1), ("d2", 2)):
            out = apply_field(op, jet)
            assert sp.linf_norm(out.V[0]
                                - derivative(g, jet.V[0], axis)) < 1e-13

    def test_dt_shifts_levels(self, evolved_state):
        jet = base_jet(evolved_state, 2)
        out = apply_field("dt", jet)
        assert out.levels == 1
        assert np.array_equal(out.V[0], jet.V[1])

    def test_modified_rotation_on_h(self, evolved_state):
        g = evolved_state.grid
        jet = base_jet(evolved_state, 0)
        out = apply_field("rot", jet)
        expect0 = rotation(g, jet.H[0, 0]) + jet.H[0, 1]
        expect1 = rotation(g, jet.H[0, 1]) - jet.H[0, 0]
        assert sp.linf_norm(out.H[0, 0] - expect0) < 1e-13
        assert sp.linf_norm(out.H[0, 1] - expect1) < 1e-13

    def test_scaling_field_formula(self, evolved_state):
        g = evolved_state.grid
        jet = base_jet(evolved_state, 1)
        out = apply_field("scale", jet)
        expect = (jet.t * jet.V[1] - jet.V[0]
                  + radial_scaled_derivative(g, jet.V[0]))
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
        assert sp.linf_norm(V_d1 - derivative(g, evolved_state.V, 1)) \
            < 1e-13
        V_d12, _ = fam.fields(MultiIndex(0, (0, 1, 1, 0)))
        direct = derivative(g, derivative(g, evolved_state.V, 2), 1)
        assert sp.linf_norm(V_d12 - direct) < 1e-12

    @pytest.mark.parametrize("k_max, residual", [
        *(pytest.param(k, True, id=f"{k}") for k in (0, 1, 2, 3)),
        *(pytest.param(k, False, id=f"lean-{k}") for k in (0, 1, 2, 3))])
    def test_member_levels(self, grid64, k_max, residual):
        # each member keeps levels 0..k_max - order + 1 (k_max - order
        # without the residual level), equal bit for bit to the same levels
        # of the untrimmed apply_field chain; the walk reads each batch
        # and each child's slice from these levels
        st = random_state(grid64, 7)
        fam = derived_family(st, k_max, residual=residual)
        full = {ROOT: base_jet(st, k_max + 1)}
        for idx in fam.indices[1:]:
            op, parent = reference_parent(idx)
            full[idx] = apply_field(op, full[parent])
        for idx in fam.indices:
            jet = fam.jet(idx)
            assert jet.levels == k_max - idx.order + residual, idx
            assert np.array_equal(jet.V, full[idx].V[:jet.levels + 1]), idx
            assert np.array_equal(jet.H, full[idx].H[:jet.levels + 1]), idx

    def test_stack_sharing(self, grid64):
        # stacks of members of order < k_max are kept and shared: each is a
        # copy of the level-0 slice of the gradient batch that the member's
        # rot~ and scale~ children read, so the batch itself is freed.  An
        # order-k_max stack is built on each call and dropped, since keeping
        # those too would hold the gradients of every member at once.  Both
        # depths keep the same stacks
        st = random_state(grid64, 3)
        for residual in (True, False):
            fam = derived_family(st, 2, residual=residual)
            for idx in fam.indices:
                D = fam.stack(idx)
                assert (D is fam.stack(idx)) == (idx.order < fam.k_max), idx
                assert D.base is None, idx
                assert np.array_equal(
                    D, sp.gradient_from_hat(grid64, fam.jet(idx).hat[0])), idx
                assert rel_err(D, sp.derivative_stack(
                    grid64, *fam.fields(idx))) <= 1e-13, idx

    @pytest.mark.parametrize("mu", [0.0, 1e-2])
    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    def test_lean_family_samples_equal_full(self, grid64, k_max, mu):
        # level 0 of every member is transformed field by field, so the
        # samples do not see whether the residual level was built
        st = random_state(grid64, 5, mu)
        lean = sample_record(derived_family(st, k_max, residual=False))
        full = sample_record(derived_family(st, k_max))
        assert lean.values.keys() == full.values.keys()
        for key, value in full.values.items():
            assert (lean.values[key] == value
                    or (np.isnan(value) and np.isnan(lean.values[key]))), key

    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    @pytest.mark.parametrize("residual", [True, False])
    def test_walk_yields_the_stored_family(self, grid64, k_max, residual):
        # each index once, parents before children, with the stored jets
        # and stacks; order-k_max members carry no stack
        st = random_state(grid64, 5)
        fam = derived_family(st, k_max, residual=residual)
        seen = []
        for idx, jet, stack in _members(st, k_max, residual=residual):
            assert idx.order == 0 or reference_parent(idx)[1] in seen, idx
            seen.append(idx)
            assert np.array_equal(jet.hat, fam.jet(idx).hat), idx
            if idx.order < k_max:
                assert np.array_equal(stack, fam.stack(idx)), idx
            else:
                assert stack is None, idx
        assert sorted(seen) == sorted(fam.indices)

    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    def test_walk_yields_sub_indices_first(self, grid32, k_max):
        # each parent's children in descending canonical order (scale~,
        # d_t, d_1, d_2, rot~) put every member after all the members its
        # Leibniz splittings read, so a streamed reader can form each
        # member's residual as soon as it is yielded
        seen = set()
        for idx, _, _ in _members(random_state(grid32, 3), k_max):
            reads = {m for left, right, _ in _splittings(idx)
                     for m in (left, right)}
            assert reads - {idx} <= seen, idx
            seen.add(idx)
        assert len(seen) == len(admissible_indices(k_max))

    @pytest.mark.parametrize("k_max", [1, 2, 3])
    def test_walk_holds_only_the_path(self, grid32, k_max):
        # a member's jet is freed once its last child is built, so no
        # more jets live at once than there are members on a path from
        # the root; a stored family holds every one
        live = []
        for _, jet, _ in _members(random_state(grid32, 3), k_max,
                                  residual=False):
            live.append(weakref.ref(jet))
            del jet
            assert sum(ref() is not None for ref in live) <= k_max + 1
        assert len(live) == len(admissible_indices(k_max))

    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("k_max", [1, 2, 3])
    def test_walk_frees_each_batch_after_its_last_reader(self, grid32,
                                                         k_max, residual):
        # a parent's gradient batch is read by its scale~ child, the
        # first, its d_t child when that has children (which reads it from
        # level 1 on, a view) and its rot~ child, the last, when it has
        # one: so few distinct batches are alive at once (3 at k_max = 3
        # when every batch lived until the last child).  A d_t child's
        # stack shares its parent's batch, so batches count by identity
        live = []
        for _, jet, stack in _members(random_state(grid32, 3), k_max,
                                      residual=residual):
            if stack is not None:
                live.append(weakref.ref(stack.base))
            del jet, stack
            alive = {id(ref()) for ref in live if ref() is not None}
            assert len(alive) <= min(k_max, 2)

    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("k_max", [1, 2, 3])
    def test_walk_transforms_each_batch_once(self, grid32, monkeypatch,
                                             k_max, residual):
        # the root's stack is a view of the stacks base_jet built its
        # levels from, and a d_t child with children reads its parent's
        # batch when the parent holds it until after that child anyway:
        # the root and the pure rot~ words, which have a rot~ child last,
        # and the d_t children that read their parent's.  Any other
        # parent frees its batch after its scale~ child, so its d_t child
        # transforms its own (the d_t d_1 and d_t d_2 of k_max = 3)
        built = []

        def recorded(*args):
            out = base(*args)
            built.append(out[1])
            return out
        base = families._base_jet
        monkeypatch.setattr(families, "_base_jet", recorded)
        stacks, shared = {}, {}
        for idx, _, stack in _members(random_state(grid32, 3), k_max,
                                      residual=residual):
            if stack is None:
                continue
            stacks[idx] = stack
            if idx == ROOT:
                assert np.shares_memory(stack, built[0])
                continue
            op, parent = reference_parent(idx)
            shared[idx] = op == "dt" and (
                parent == ROOT or parent.a[:3] == (0, 0, 0)
                or shared[parent])
            assert np.shares_memory(stack, stacks[parent].base) == (
                shared[idx]), idx
        assert len(built) == 1
        assert built[0].shape[0] == k_max + residual

    def test_walk_leaves_no_cycle(self):
        # a finished walk is freed by reference counting alone: a cycle
        # would hold the grid's arrays until the cyclic collector runs
        gc.disable()
        try:
            grid = Grid(32, 16.0)
            alive = weakref.ref(grid)
            st = random_state(grid, 3)
            sample_state(st, 2)
            derived_family(st, 2)
            del grid, st
            assert alive() is None
        finally:
            gc.enable()

    def test_lean_family_refuses_residuals(self, grid64):
        fam = derived_family(random_state(grid64, 3), 2, residual=False)
        with pytest.raises(ValueError) as err:
            commutator_residuals(fam, ROOT)
        assert "\n" not in str(err.value)

    def test_coefficients_read_only(self, grid64):
        # dt members and trimmed parents share their coefficient buffers
        fam = derived_family(random_state(grid64, 3), 2)
        for idx in fam.indices:
            with pytest.raises(ValueError):
                fam.jet(idx).hat[0, 0, 0, 0] = 1.0

    def test_k_max_guard(self, evolved_state):
        with pytest.raises(ValueError):
            derived_family(evolved_state, 4)
        with pytest.raises(ValueError):
            derived_family(evolved_state, -1)
        with pytest.raises(ValueError):
            sample_state(evolved_state, -1)
        with pytest.raises(ValueError):
            base_jet(evolved_state, -1)


class TestKMax3:
    # the 56 members a k_max = 3 family holds, checked as the k_max = 2
    # family is: the bilinear forms against the seed forms, and the
    # commuted equations under refinement (the pattern of criterion 4)

    @pytest.mark.parametrize("dealias", [True, False])
    def test_nonlinearity_f_matches_seed_formula(self, grid64, dealias):
        fam = derived_family(random_state(grid64, 3), 3, dealias)
        assert len(fam.indices) == 56
        for idx in fam.indices:
            got = nonlinearity_f(fam, idx)
            ref = reference_nonlinearity_f(fam, idx)
            for a, b in zip(got[:3], ref[:3]):
                assert rel_err(a, b) <= 1e-13, idx
            for ij, b in ref[3].items():
                assert rel_err(got[3][ij], b) <= 1e-13, (idx, ij)

    def test_residuals_fall_under_refinement(self, evolved_state,
                                             resolved_params):
        # the same data and time on the n = 128 grid and one of n = 64;
        # every residual falls at least twofold, the worst at n = 128 is
        # below 1e-6
        coarse_state = evolve(make_initial_data(Grid(64, 32.0),
                                                resolved_params),
                              2.0, StepperConfig())
        fine = derived_family(evolved_state, 3)
        coarse = derived_family(coarse_state, 3)
        worst = 0.0
        for idx in fine.indices:
            r_fine = max(commutator_residuals(fine, idx))
            assert r_fine <= 0.5 * max(commutator_residuals(coarse, idx)), idx
            worst = max(worst, r_fine)
        assert worst <= 1e-6


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
        # rhs_potential's nonlinear part (the stepper's batch of 5
        # products) against nonlinearity_f at the root (the batch of 6
        # with f3, summed over the one splitting)
        fam = derived_family(evolved_state, 2)
        f1, f2, f3, fij = nonlinearity_f(fam, ROOT)
        g1, g2 = rhs_potential(evolved_state, StepperConfig(coupling=False),
                               include_viscosity=False)
        assert sp.linf_norm(f1 - g1) < 1e-11
        assert sp.linf_norm(f2 - g2) < 1e-11

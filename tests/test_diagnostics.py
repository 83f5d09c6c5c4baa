import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ve2d.diagnostics as dg
import ve2d.spectral as sp
from ve2d.dynamics import evolve
from ve2d.experiments import RunConfig, run_simulation
from ve2d.families import (MultiIndex, _nonlinearity_hat, _splittings,
                           admissible_indices, derived_family)
from ve2d.grid import Grid
from ve2d.state import InitialDataParams, make_initial_data
from spectral_ops import derivative, rotation


@pytest.fixture(scope="module")
def family(evolved_state):
    return derived_family(evolved_state, 2)


@pytest.fixture(scope="module")
def state64(small_state):
    return evolve(small_state, 1.0)


def reference_weighted_sobolev_ratios(grid, f, t):
    """weighted_sobolev_ratios with every word its own transform round
    trip: the rotation, each gradient, and the words of length <= 2 built
    one derivative at a time."""
    w = dg.GeometryWeights(grid, t)
    rhs1 = rhs2 = 0.0
    for h in (f, rotation(grid, f)):
        dr = dg._radial(w, sp.gradient(grid, h))
        rhs1 += sp.l2_norm_sq(grid, dr) + sp.l2_norm_sq(grid, h)
        rhs2 += (sp.l2_norm_sq(grid, w.sigma_bracket * dr)
                 + sp.l2_norm_sq(grid, w.sigma_bracket * h))
    out = {"sob_r": dg._ratio(grid.r * f ** 2, rhs1),
           "sob_rw": dg._ratio(grid.r * w.sigma_bracket ** 2 * f ** 2, rhs2)}
    inner = grid.r <= t / 2.0
    if not np.any(inner):
        return {**out, "sob_int": 0.0}
    lhs = np.sqrt(1.0 + t * t) * float(np.max(np.abs(f[inner])))
    derivs = {(): f}
    for order in (1, 2):
        new = {}
        for word, h in list(derivs.items()):
            if len(word) == order - 1:
                for ax in (1, 2):
                    new[word + (ax,)] = derivative(grid, h, ax)
        derivs.update(new)
    rhs = 0.0
    for h in derivs.values():
        rhs += sp.l2_norm(grid, w.sigma_bracket * h)
    return {**out, "sob_int": lhs / max(rhs, 1e-30)}


def _order_sums(fam):
    """Pointwise sums of |V|, |H| grouped by (alpha order, a order)."""
    sums_V, sums_H = {}, {}
    for idx in fam.indices:
        V, H = fam.fields(idx)
        key = (idx.alpha, sum(idx.a))
        absH = np.sqrt(H[0] ** 2 + H[1] ** 2)
        sums_V[key] = sums_V.get(key, 0.0) + np.abs(V)
        sums_H[key] = sums_H.get(key, 0.0) + absH
    return sums_V, sums_H


def reference_nonlinearity_decay_ratios(fam, idx):
    """The decay ratios at any index: each right side sums the products of
    the order-graded field sums, and fij adds the structure terms of every
    splitting of idx."""
    g = fam.state.grid
    w = dg.GeometryWeights(g, fam.state.t)
    sums_V, sums_H = _order_sums(fam)

    def graded(sums_a, sums_b, extra_a, extra_b, amax, bmax):
        total = np.zeros((g.n, g.n))
        for (ma, la), A in sums_a.items():
            for (mb, lb), B in sums_b.items():
                if (ma + mb <= amax and la - extra_a >= 0
                        and lb - extra_b >= 0
                        and (la - extra_a) + (lb - extra_b) <= bmax):
                    total += A * B
        return total

    alpha, a = idx
    ph = _nonlinearity_hat(fam, idx)[1]
    u = sp.ifft(np.concatenate((ph, g.ik[0] * ph[3:4] + g.ik[1] * ph[4:5])))
    f2, f3 = u[3:5], u[5]
    out = {}
    lhs = np.sqrt(f2[0] ** 2 + f2[1] ** 2)
    rhs = graded(sums_V, sums_H, 1, 1, alpha, sum(a)) / w.r
    out["f2_decay"] = dg._ratio(lhs, rhs)
    rhs = graded(sums_H, sums_H, 1, 1, alpha, sum(a)) / w.r
    out["f3_decay"] = dg._ratio(np.abs(f3), rhs)
    if idx.order + 2 <= fam.k_max:
        rhs = graded(sums_V, sums_H, 2, 2, alpha, sum(a)) / w.r
        out["divf2_decay"] = dg._ratio(np.abs(u[6]), rhs)
    lhs = np.max(np.abs(u[:3]), axis=0)
    rhs = (graded(sums_V, sums_V, 1, 1, alpha, sum(a))
           + graded(sums_H, sums_H, 1, 1, alpha, sum(a))) / w.r
    for left, right, _ in _splittings(idx):
        good_rad, good_tan_l = dg._good_unknown_grads(
            w, dg._radial(w, fam.stack(left)))
        Dr = fam.stack(right)
        good_tan_r = dg._good_unknown_grads(w, dg._radial(w, Dr))[1]
        mag_grad_r = np.sqrt(np.sum(Dr[0] ** 2, axis=0)) + np.sqrt(
            np.sum(Dr[1:] ** 2, axis=(0, 1)))
        rhs = (rhs + np.abs(good_rad) * mag_grad_r
               + np.abs(good_tan_l) * np.abs(good_tan_r))
    out["fij_decay"] = dg._ratio(lhs, rhs)
    return out


def reference_parseval(grid, fh):
    """l2_norm_sq of the fields with rfft2 coefficients fh, from the
    squares of the coefficients: weight 2 on the columns 0 < m2 < n/2."""
    p = np.square(fh.view(float))
    s = 2.0 * np.sum(p) - np.sum(p[..., :2]) - np.sum(p[..., -2:])
    return float(s) * (grid.spacing / grid.n) ** 2


def reference_good_unknowns(w, D):
    """(dV + dH . omega, dH . omega_perp) of a stack or of its radial
    projection, one expression each."""
    dV, dH = D[0], D[1:]
    return (dV + dH[0] * w.omega[0] + dH[1] * w.omega[1],
            dH[0] * w.omega_perp[0] + dH[1] * w.omega_perp[1])


def reference_sample_functionals(fam):
    """energies, weighted_norms and good_unknown_norms as three loops over
    the members, each with its own per-order tally and each term its own
    weighted norm: the reference for the one pass of
    diagnostics._sample_pass."""
    g = fam.state.grid
    by_order = {}
    grad_by_order = {}
    for idx in fam.indices:
        by_order.setdefault(idx.order, 0.0)
        by_order[idx.order] += reference_parseval(g, fam.jet(idx).hat[0])
        if idx.order < fam.k_max:  # calE_k sums orders <= k - 1 only
            D = fam.stack(idx)
            grad_by_order.setdefault(idx.order, 0.0)
            grad_by_order[idx.order] += (sp.l2_norm_sq(g, D[0])
                                         + sp.l2_norm_sq(g, D[1:]))
    energies = {}
    for k in range(fam.k_max + 1):
        energies[f"E{k}"] = sum(by_order.get(m, 0.0) for m in range(k + 1))
        if k >= 1:
            energies[f"calE{k}"] = sum(grad_by_order.get(m, 0.0)
                                       for m in range(k))

    w = dg.GeometryWeights(g, fam.state.t)
    x_by, y_by, g_by = {}, {}, {}
    for idx in fam.indices:
        if idx.order > fam.k_max - 1:
            continue
        D = fam.stack(idx)
        gV, gH = D[0], D[1:]
        xterm = (sp.l2_norm_sq(g, w.sigma_bracket * gV)
                 + sp.l2_norm_sq(g, w.sigma_bracket * gH))
        good_rad, good_tan = reference_good_unknowns(w, dg._radial(w, D))
        yterm = (sp.l2_norm_sq(g, w.r * good_rad)
                 + sp.l2_norm_sq(g, w.r * good_tan))
        good_r, good_t = reference_good_unknowns(w, D)
        kern = w.eq / w.sigma_bracket ** 2
        gterm = float(np.sum((good_r ** 2 + good_t ** 2) * kern)
                      * g.spacing ** 2)
        o = idx.order
        x_by[o] = x_by.get(o, 0.0) + xterm
        y_by[o] = y_by.get(o, 0.0) + yterm
        g_by[o] = g_by.get(o, 0.0) + gterm
    weighted = {}
    for k in range(1, fam.k_max + 1):
        weighted[f"X{k}"] = sum(x_by.get(m, 0.0) for m in range(k))
        weighted[f"Y{k}"] = sum(y_by.get(m, 0.0) for m in range(k))
        weighted[f"G{k}"] = sum(g_by.get(m, 0.0) for m in range(k))

    per_index = {}
    total = 0.0
    for idx in fam.indices:
        if idx.order > fam.k_max - 1:
            continue
        good_r, good_t = reference_good_unknowns(w, fam.stack(idx))
        s_r = float(np.max(np.abs(good_r), where=w.mask, initial=0.0))
        s_t = float(np.max(np.abs(good_t), where=w.mask, initial=0.0))
        per_index[idx] = (s_r, s_t)
        total += s_r + s_t
    return energies, weighted, {"per_index": per_index, "sum": total}


def reference_masked_sups(grid, uh, D, Dp, t):
    """The sups that read a mask, each taken over a boolean gather:
    null_split, f2_split, grad_split (as _identity_checks) and the
    good-unknown sups of the stack Dp (as good_unknown_norms)."""
    w = dg.GeometryWeights(grid, t)
    gV, gH, gVp, gHp = D[0], D[1:], Dp[0], Dp[1:]
    dd = sp.ifft(grid.ik[:, None] * grid.ik * uh[:, None, None])
    ggV, ggH = dd[0], dd[1:]
    out = {}
    res = 0.0
    goodV, goodT = reference_good_unknowns(w, Dp)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                lhs = (gHp[0, i] * ggH[0, j, k] + gHp[1, i] * ggH[1, j, k]
                       - gVp[i] * ggV[j, k])
                dH_jk_r = (ggH[0, j, k] * w.omega[0]
                           + ggH[1, j, k] * w.omega[1])
                dH_jk_t = (ggH[0, j, k] * w.omega_perp[0]
                           + ggH[1, j, k] * w.omega_perp[1])
                rhs = (goodV[i] * dH_jk_r
                       - gVp[i] * (ggV[j, k] + dH_jk_r)
                       + goodT[i] * dH_jk_t)
                res = max(res, float(np.max(np.abs((lhs - rhs)[w.interior]))))
    out["null_split"] = res
    gpH = sp.perp(gH)
    gpV = sp.perp(gV)
    f2 = np.stack([gpH[m, 0] * gV[0] + gpH[m, 1] * gV[1] for m in range(2)])
    coef_r = np.zeros_like(gV[0])
    coef_t = np.zeros_like(gV[0])
    for l in range(2):
        gpH_l = gpH[:, l]
        coef_r += (gpH_l[0] * w.omega[0] + gpH_l[1] * w.omega[1]
                   + gpV[l]) * gV[l]
        coef_t += (gpH_l[0] * w.omega_perp[0]
                   + gpH_l[1] * w.omega_perp[1]) * gV[l]
    rhs = np.stack([coef_r * w.omega[m] + coef_t * w.omega_perp[m]
                    for m in range(2)])
    out["f2_split"] = float(np.max(np.abs((f2 - rhs)[:, w.interior])))
    far = grid.r >= 4.0 * grid.spacing
    dr = dg._radial(w, gV)
    dtheta = grid.x1 * gV[1] - grid.x2 * gV[0]
    res = 0.0
    for i in range(2):
        rhs = w.omega[i] * dr + w.omega_perp[i] / w.r * dtheta
        res = max(res, float(np.max(np.abs((gV[i] - rhs)[far]))))
    out["grad_split"] = res
    out["good"] = (float(np.max(np.abs(goodV[:, w.mask]))),
                   float(np.max(np.abs(goodT[:, w.mask]))))
    return out


def reference_geometry_weights(grid, t):
    """The fields of GeometryWeights(grid, t), one expression each, with
    the class's order of operations, so the two agree bit for bit."""
    r_true = grid.r
    r = np.maximum(r_true, grid.spacing)
    omega = np.stack([grid.x1 / r, grid.x2 / r])
    omega_perp = np.stack([-omega[1], omega[0]])
    sigma = r_true - t
    sigma_bracket = np.sqrt(1.0 + sigma ** 2)
    eq = np.exp(np.arctan(sigma))
    return dict(r=r, r_sq=r ** 2, omega=omega, omega_perp=omega_perp,
                sigma_bracket=sigma_bracket, sigma_sq=sigma_bracket ** 2,
                eq=eq, kernel=eq / sigma_bracket ** 2,
                mask=r_true >= np.sqrt(1.0 + t * t) / 2.0,
                interior=r_true >= grid.spacing)


class TestGeometryWeights:
    @pytest.mark.parametrize("t", [0.0, 3.0, 20.0])
    def test_fields_equal_the_reference(self, grid64, t):
        w = dg.GeometryWeights(grid64, t)
        ref = reference_geometry_weights(grid64, t)
        assert w.grid is grid64 and w.t == t
        assert set(vars(w)) == {"grid", "t", *ref}
        for name, value in ref.items():
            assert np.array_equal(getattr(w, name), value), name

    def test_frame_is_orthonormal(self, grid64):
        # away from the regularized origin cell
        w = dg.GeometryWeights(grid64, t=3.0)
        norm = (w.omega[0] ** 2 + w.omega[1] ** 2)[w.interior]
        assert np.max(np.abs(norm - 1.0)) < 1e-14
        dot = w.omega[0] * w.omega_perp[0] + w.omega[1] * w.omega_perp[1]
        assert sp.linf_norm(dot) < 1e-14

    def test_weights_bounded_below(self, grid64):
        w = dg.GeometryWeights(grid64, t=3.0)
        assert np.all(w.r >= grid64.spacing)
        assert np.all(w.sigma_bracket >= 1.0)
        assert np.all(w.eq > 0)

    def test_mask_shrinks_with_time(self, grid64):
        near = dg.GeometryWeights(grid64, t=0.0)
        late = dg.GeometryWeights(grid64, t=20.0)
        assert np.count_nonzero(late.mask) < np.count_nonzero(near.mask)

    @pytest.mark.parametrize("entry", [
        dg.sample_record, dg.energies, dg.weighted_norms,
        dg.good_unknown_norms,
        lambda fam: dg.identity_checks(fam.state.grid, fam.state.V,
                                       fam.state.H, t=fam.state.t),
        lambda fam: dg.weighted_sobolev_ratios(fam.state.grid, fam.state.V,
                                               t=fam.state.t),
        dg.nonlinearity_decay_ratios,
    ], ids=["sample_record", "energies", "weighted_norms",
            "good_unknown_norms", "identity_checks",
            "weighted_sobolev_ratios", "nonlinearity_decay_ratios"])
    def test_built_once_per_sample(self, family, monkeypatch, entry):
        # each entry point builds the weights once and passes them down
        built = []
        real = dg.GeometryWeights
        monkeypatch.setattr(dg, "GeometryWeights",
                            lambda grid, t: built.append(t) or real(grid, t))
        entry(family)
        assert built == [family.state.t]


class TestEnergies:
    def test_e0_matches_direct_norm(self, evolved_state, family):
        g = evolved_state.grid
        expect = (sp.l2_norm_sq(g, evolved_state.V)
                  + sp.l2_norm_sq(g, evolved_state.H))
        assert dg.energies(family)["E0"] == pytest.approx(expect, rel=1e-12)

    def test_parseval_matches_quadrature(self, family):
        # E_k reads the coefficients by Parseval; the quadrature sums the
        # physical fields
        g = family.state.grid
        e = dg.energies(family)
        for k in range(family.k_max + 1):
            quad = 0.0
            for idx in family.indices:
                if idx.order <= k:
                    V, H = family.fields(idx)
                    quad += sp.l2_norm_sq(g, V) + sp.l2_norm_sq(g, H)
            assert abs(e[f"E{k}"] - quad) <= 1e-13 * quad, k

    def test_monotone_in_order(self, family):
        e = dg.energies(family)
        assert e["E0"] <= e["E1"] <= e["E2"]
        assert e["calE1"] <= e["calE2"]

    def test_weighted_norms_positive(self, family):
        out = dg.weighted_norms(family)
        assert set(out) == {"X1", "X2", "Y1", "Y2", "G1", "G2"}
        assert all(v > 0 for v in out.values())

    def test_x_dominates_cal_e(self, family):
        # the <r - t> weight is >= 1 pointwise
        e = dg.energies(family)
        x = dg.weighted_norms(family)
        assert x["X1"] >= e["calE1"]
        assert x["X2"] >= e["calE2"]

    def test_good_unknown_norms(self, family):
        out = dg.good_unknown_norms(family)
        assert out["sum"] > 0
        assert all(len(v) == 2 for v in out["per_index"].values())
        orders = {idx.order for idx in out["per_index"]}
        assert max(orders) <= family.k_max - 1


def assert_round_off(got, ref, rel=1e-13):
    """got has the keys of ref, in its order, and each value lies within
    rel of ref's, relative: the round-off of a rewritten sum."""
    assert list(got) == list(ref)
    for key, val in ref.items():
        assert abs(got[key] - val) <= rel * abs(val), key


class TestSamplePass:
    # one pass over the family gives every sample functional; it must
    # equal the three loops of reference_sample_functionals: the sups bit
    # for bit, and the functionals, whose sums the pass forms from one
    # density per stack and dots against shared weights, to round-off

    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("mu", [0.0, 1e-2])
    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    def test_matches_reference(self, state64, k_max, mu, residual):
        fam = derived_family(replace(state64, mu=mu), k_max,
                             residual=residual)
        energies, weighted, good = reference_sample_functionals(fam)
        assert_round_off(dg.energies(fam), energies)
        assert_round_off(dg.weighted_norms(fam), weighted)
        assert dg.good_unknown_norms(fam) == good
        vals = dg.sample_record(fam).values
        assert_round_off({key: vals[key] for key in {**energies, **weighted}},
                         {**energies, **weighted})
        assert vals["good_sup"] == good["sum"]

    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    def test_one_stack_read_per_member(self, state64, k_max):
        # each member of order < k_max once, and the root once more for
        # the constraint and the identities: 7 at k_max = 2, where three
        # loops over the members took 19
        fam = derived_family(state64, k_max, residual=False)
        reads = []
        stack = fam.stack
        fam.stack = lambda idx: reads.append(idx) or stack(idx)
        dg.sample_record(fam)
        assert len(reads) <= sum(idx.order < k_max for idx in fam.indices) + 1
        # only the root is read twice
        assert {idx for idx in reads if reads.count(idx) > 1} <= {
            fam.indices[0]}

    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    def test_a_new_term_is_one_key(self, state64, tmp_path, monkeypatch,
                                   k_max):
        # a term added to _member_terms for the members with a stack is
        # summed over the orders <= k - 1 and recorded as Z{k} after G{k},
        # with no other edit; the summary carries it as a series.  Here Z
        # is each member's levels, k_max - order in a lean family, so the
        # sums are exact
        ref = dg.sample_state(state64, k_max).values
        member_terms = dg._member_terms

        def with_z(w, jet, D):
            terms, sup = member_terms(w, jet, D)
            if D is not None:
                terms["Z"] = float(jet.levels)
            return terms, sup

        monkeypatch.setattr(dg, "_member_terms", with_z)
        counts = [sum(idx.order == m for idx in admissible_indices(k_max))
                  for m in range(k_max + 1)]
        lean = derived_family(state64, k_max, residual=False)
        for rec in (dg.sample_state(state64, k_max), dg.sample_record(lean)):
            keys = list(rec.values)
            z_keys = [key for key in keys if key.startswith("Z")]
            assert z_keys == [f"Z{k}" for k in range(1, k_max + 1)]
            for k in range(1, k_max + 1):
                assert keys.index(f"Z{k}") == keys.index(f"G{k}") + 1
                assert rec.values[f"Z{k}"] == sum(
                    counts[m] * (k_max - m) for m in range(k))
            rest = {key: v for key, v in rec.values.items() if key[0] != "Z"}
            assert list(rest) == list(ref)
            assert np.array_equal(list(rest.values()), list(ref.values()),
                                  equal_nan=True)
        run_simulation(RunConfig(n=16, box_len=8.0, t_final=1.0,
                                 sample_interval=0.5, k_max=k_max,
                                 output_dir=str(tmp_path)))
        summary = json.loads((tmp_path / "summary_mu0.json").read_text(
            encoding="utf-8"))
        for k in range(1, k_max + 1):
            assert len(summary[f"Z{k}"]) == 3

    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    def test_functionals_select_exact_term_names(self, state64, monkeypatch,
                                                 k_max):
        # energies and weighted_norms select a key by its exact term name,
        # not by a prefix: Etilde on every member and Gamma on the members
        # with a stack reach the record and join neither
        fam = derived_family(state64, k_max, residual=False)
        ref = [dg.energies(fam), dg.weighted_norms(fam)]
        member_terms = dg._member_terms

        def with_lookalikes(w, jet, D):
            terms, sup = member_terms(w, jet, D)
            terms["Etilde"] = 1.0
            if D is not None:
                terms["Gamma"] = 1.0
            return terms, sup

        monkeypatch.setattr(dg, "_member_terms", with_lookalikes)
        keys = dg.sample_record(fam).values
        assert "Etilde0" in keys and ("Gamma1" in keys) == (k_max >= 1)
        got = [dg.energies(fam), dg.weighted_norms(fam)]
        assert [list(d.items()) for d in got] == [
            list(d.items()) for d in ref]

    def test_empty_cone_raises_for_the_sups_only(self, grid32):
        # at t = 30 no point of the L = 16 box has r >= <t>/2
        st = make_initial_data(grid32, InitialDataParams(amplitude=0.01))
        fam = derived_family(replace(st, t=30.0), 1, residual=False)
        assert not np.any(dg.GeometryWeights(grid32, 30.0).mask)
        assert np.isfinite(dg.energies(fam)["calE1"])
        assert np.isfinite(dg.weighted_norms(fam)["G1"])
        with pytest.raises(ValueError, match="light-cone mask is empty"):
            dg.good_unknown_norms(fam)
        with pytest.raises(ValueError, match="light-cone mask is empty"):
            dg.sample_record(fam)


class TestStreamedSample:
    # sample_state walks the family depth first and keeps each member's
    # scalars only; it must equal sample_record of the stored lean family
    # value for value, in a fraction of its memory

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("mu", [0.0, 1e-2])
    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    def test_equals_sample_record(self, state64, k_max, mu, dealias):
        st = replace(state64, mu=mu)
        ref = dg.sample_record(derived_family(st, k_max, dealias,
                                              residual=False))
        got = dg.sample_state(st, k_max, dealias)
        assert (got.t, got.mu) == (ref.t, ref.mu)
        assert list(got.values) == list(ref.values)
        for key, val in ref.values.items():
            assert (got.values[key] == val
                    or (np.isnan(val) and np.isnan(got.values[key]))), key

    @pytest.mark.parametrize("k_max, share", [(2, 0.5), (3, 0.3)])
    def test_peak_memory(self, state64, k_max, share, peak):
        # tracemalloc peaks of the sample alone: the streamed sample
        # measured 0.43 (k_max = 2) and 0.25 (k_max = 3) of the stored
        # family plus sample_record at n = 64, and 0.39 and 0.24 at
        # n = 128
        def stored():
            dg.sample_record(derived_family(state64, k_max, residual=False))

        def streamed():
            dg.sample_state(state64, k_max)

        stored(), streamed()  # the grid's lazy arrays, built untraced
        assert peak(streamed) <= share * peak(stored)


class TestIdentityChecks:
    def test_machine_zero_on_random_fields(self, grid64):
        V = 0.1 * sp.random_band_limited(grid64, seed=31)
        H = 0.1 * np.stack([sp.random_band_limited(grid64, seed=s)
                            for s in (32, 33)])
        out = dg.identity_checks(grid64, V, H, t=1.0)
        assert out["null_split"] < 1e-12
        assert out["f2_split"] < 1e-12
        assert out["perp_cancel"] < 1e-12
        assert out["riesz_trace"] < 1e-13
        # the polar gradient splitting involves the regularized radius
        assert out["grad_split"] < 1e-8

    def test_cross_pair_arguments(self, grid64):
        V = 0.1 * sp.random_band_limited(grid64, seed=41)
        H = 0.1 * np.stack([sp.random_band_limited(grid64, seed=s)
                            for s in (42, 43)])
        Vp = 0.1 * sp.random_band_limited(grid64, seed=44)
        Hp = 0.1 * np.stack([sp.random_band_limited(grid64, seed=s)
                             for s in (45, 46)])
        out = dg.identity_checks(grid64, V, H, Vp=Vp, Hp=Hp, t=2.0)
        assert out["null_split"] < 1e-12


class TestMaskedSups:
    # the sups over a mask take np.max(..., where=mask); they must equal
    # the boolean gathers of reference_masked_sups bit for bit

    @pytest.mark.parametrize("cross", [False, True])
    def test_identity_checks(self, grid64, cross):
        V, Vp = (0.1 * sp.random_band_limited(grid64, seed=s)
                 for s in (51, 54))
        H, Hp = (0.1 * np.stack([sp.random_band_limited(grid64, seed=s)
                                 for s in pair]) for pair in ((52, 53),
                                                              (55, 56)))
        if not cross:
            Vp, Hp = V, H
        got = dg.identity_checks(grid64, V, H, Vp, Hp, t=3.0)
        uh = sp.fft(np.concatenate((V[None], H)))
        ref = reference_masked_sups(grid64, uh, sp.gradient_from_hat(
            grid64, uh), sp.derivative_stack(grid64, Vp, Hp), 3.0)
        for key in ("null_split", "f2_split", "grad_split"):
            assert got[key] == ref[key], key

    @pytest.mark.parametrize("mu", [0.0, 1e-2])
    @pytest.mark.parametrize("k_max", [1, 2, 3])
    def test_sample_record(self, evolved_state, k_max, mu):
        st = replace(evolved_state, mu=mu)
        fam = derived_family(st, k_max)
        vals = dg.sample_record(fam).values
        root = MultiIndex(0, (0, 0, 0, 0))
        D = fam.stack(root)
        ref = reference_masked_sups(st.grid, fam.jet(root).hat[0], D, D,
                                    st.t)
        assert vals["id45_res"] == ref["null_split"]
        assert vals["id417_res"] == ref["f2_split"]
        assert vals["id218_res"] == ref["grad_split"]
        total = 0.0
        for idx, sups in dg.good_unknown_norms(fam)["per_index"].items():
            Ds = fam.stack(idx)
            ref = reference_masked_sups(st.grid, fam.jet(idx).hat[0], Ds, Ds,
                                        st.t)["good"]
            assert sups == ref, idx
            total += ref[0] + ref[1]
        assert vals["good_sup"] == total


class TestInequalityRatios:
    def test_weighted_sobolev_on_gaussian(self):
        g = Grid(128, 32.0)
        f = np.exp(-(g.r / 3.0) ** 2)
        for t in (0.0, 4.0, 10.0):
            out = dg.weighted_sobolev_ratios(g, f, t=t)
            assert set(out) == {"sob_r", "sob_rw", "sob_int"}
            for key, val in out.items():
                assert 0 < val <= 10.0, (t, key, val)

    def test_weighted_sobolev_on_evolved_field(self, evolved_state):
        out = dg.weighted_sobolev_ratios(evolved_state.grid,
                                               evolved_state.V,
                                               t=evolved_state.t)
        assert all(v <= 10.0 for v in out.values())

    def test_nonlinearity_decay_structure(self, family):
        # the quantitative <= 50 bound is a property of the acceptance
        # configuration (large box, late times); on this desk-size state
        # only the machinery is checked
        out = dg.nonlinearity_decay_ratios(family)
        assert set(out) == {"f2_decay", "f3_decay", "divf2_decay",
                            "fij_decay"}
        assert all(np.isfinite(v) and v > 0 for v in out.values())

    @pytest.mark.parametrize("k_max", [1, 2, 3])
    @pytest.mark.parametrize("viscous", [False, True], ids=["mu0", "mu005"])
    def test_nonlinearity_decay_matches_reference(self, evolved_state,
                                                  evolved_state_viscous,
                                                  k_max, viscous):
        # the ratios condition a one-ulp change of the state into ~1e-6,
        # so the root-only sums must keep the reference's order exactly
        st = evolved_state_viscous if viscous else evolved_state
        fam = derived_family(st, k_max)
        root = MultiIndex(0, (0, 0, 0, 0))
        assert (dg.nonlinearity_decay_ratios(fam)
                == reference_nonlinearity_decay_ratios(fam, root))

    def test_nonlinearity_decay_empty_at_k_max_0(self, evolved_state):
        # no first-order member, so no right side to divide by
        assert dg.nonlinearity_decay_ratios(
            derived_family(evolved_state, 0)) == {}

    @pytest.mark.parametrize("t", [0.0, 2.0, 8.0])
    def test_weighted_sobolev_matches_reference(self, evolved_state, t):
        g, f = evolved_state.grid, evolved_state.V
        got = dg.weighted_sobolev_ratios(g, f, t=t)
        ref = reference_weighted_sobolev_ratios(g, f, t)
        assert got["sob_r"] == ref["sob_r"]
        assert got["sob_rw"] == ref["sob_rw"]
        assert abs(got["sob_int"] - ref["sob_int"]) <= 1e-13 * ref["sob_int"]

    def test_nonlinearity_decay_scale_invariant(self, family):
        # both sides of each estimate are quadratic in the fields, so the
        # ratios do not change under amplitude rescaling
        from dataclasses import replace
        from ve2d.state import PotentialState
        st = family.state
        scaled = PotentialState(st.grid, 2.0 * st.V, 2.0 * st.H,
                                t=st.t, mu=st.mu)
        fam2 = derived_family(scaled, 2)
        a = dg.nonlinearity_decay_ratios(family)
        b = dg.nonlinearity_decay_ratios(fam2)
        for key in a:
            # the small RHS floor breaks exact invariance at ~1e-6
            assert b[key] == pytest.approx(a[key], rel=1e-4)


class TestDecayFit:
    def test_exact_power_law_recovered(self):
        ts = np.linspace(2.0, 20.0, 40)
        vals = 3.7 * ts ** -1.25
        p, err = dg.fit_decay(ts, vals, 2.0, 20.0)
        assert p == pytest.approx(-1.25, abs=1e-12)
        assert err < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(p=st.floats(-3.0, 3.0), c=st.floats(0.1, 10.0))
    def test_recovers_random_exponents(self, p, c):
        ts = np.linspace(1.0, 16.0, 31)
        got, _ = dg.fit_decay(ts, c * ts ** p, 1.0, 16.0)
        assert got == pytest.approx(p, abs=1e-9)

    def test_window_selects_samples(self):
        ts = np.linspace(1.0, 20.0, 60)
        vals = np.where(ts < 10.0, ts ** -2.0, ts ** -1.0)
        vals *= np.where(ts < 10.0, 1.0, 10.0 ** -1.0)
        p, _ = dg.fit_decay(ts, vals, 10.0, 20.0)
        assert p == pytest.approx(-1.0, abs=1e-10)

    def test_too_few_samples_rejected(self):
        ts = np.linspace(1.0, 2.0, 5)
        with pytest.raises(ValueError):
            dg.fit_decay(ts, ts ** -1.0, 1.0, 2.0)

    def test_nonpositive_values_rejected(self):
        ts = np.linspace(1.0, 16.0, 31)
        vals = ts - 8.0
        with pytest.raises(ValueError):
            dg.fit_decay(ts, vals, 1.0, 16.0)

    def test_nan_values_rejected(self):
        # a k_max = 0 run leaves E1 NaN, which is not a positive value
        ts = np.linspace(1.0, 16.0, 31)
        with pytest.raises(ValueError, match="positive"):
            dg.fit_decay(ts, np.full_like(ts, np.nan), 1.0, 16.0)


class TestCsvRecords:
    def test_header_is_frozen(self):
        assert dg.CSV_HEADER == (
            "t,mu,E0,E1,E2,calE1,calE2,X1,X2,Y1,Y2,G1,G2,good_sup,"
            "constraint_L2,constraint_Linf,id45_res,id417_res,id218_res")

    def test_sample_record_round_trips(self, family):
        rec = dg.sample_record(family)
        row = rec.to_csv_row()
        cols = dg.CSV_HEADER.split(",")
        parts = row.split(",")
        assert len(parts) == len(cols)
        parsed = dict(zip(cols, map(float, parts)))
        assert parsed["t"] == rec.t
        assert parsed["E1"] >= parsed["E0"] > 0
        for col in ("id45_res", "id417_res", "id218_res"):
            assert np.isfinite(parsed[col])

    def test_grad_sup_available_off_schema(self, family):
        rec = dg.sample_record(family)
        assert rec.values["grad_sup"] > 0
        assert "grad_sup" not in dg.CSV_HEADER

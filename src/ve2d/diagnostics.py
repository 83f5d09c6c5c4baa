"""Energy functionals, light-cone geometry, identity checks, and decay fits.

Functionals over a derived family (k ranges over 0..k_max where defined):

    E_k     sum of ||U^(alpha,a)||_L2^2            over order <= k
    calE_k  sum of ||grad U^(alpha,a)||_L2^2       over order <= k-1
    X_k     like calE_k with weight <r - t>
    Y_k     r-weighted radial good unknowns        over order <= k-1
    G_k     good unknowns with <t-r>^-2 e^q kernel over order <= k-1

with q = arctan(r - t).  The good unknowns are d_i V + d_i H . omega and
d_i H . omega_perp, which decay faster near the light cone r ~ t.

Each of these is a sum over members of a per-member term, and one home,
_member_terms, computes every term one member adds: E by Parseval of its
rfft2 coefficients, and, for the members of order < k_max, calE, X, Y,
G and the good-unknown sups from the member's stack.  A stack gives one
pointwise density, sum_c |grad U_c|^2, whose sum is calE and whose dot
with the shared weight <r - t>^2 is X; Y and G read the good unknowns
per direction, which the sups read too: Y their radial projections
omega . good (d_r V + d_r H . omega and d_r H . omega_perp, exactly),
dotted with r^2, and G their squares, dotted with the kernel.  _sample_pass
records every term by one rule: a term of level 0 (E) sums the orders
<= k into its k-th value, a term of the stack the orders <= k - 1, and
the terms come in the order the root returns them, so a new functional
is one key in _member_terms.  A sample is one pass over the members
(_sample_pass), any iterable of (idx, jet, stack): a stored family's
(DerivedFamily.members, for sample_record) or the depth-first walk's
(families._members, for sample_state).  The pass
keeps each member's scalars alone and sums them per order in index
order, then over the orders, so the two give equal values, and every
stack is read once.  run_simulation samples with sample_state and holds
no family: each member is dropped as the walk moves on (see families for
the peaks).  A sample also reads the root's stack and coefficients for
the constraint and the three recorded identities, before the walk goes
on, so it transforms only the root's second derivatives (9 inverse
fields) and nothing forward.  energies, weighted_norms and
good_unknown_norms each read the same pass.

The light-cone weights of GeometryWeights are an argument, not shared
state: each public entry point (sample_record, energies, weighted_norms,
good_unknown_norms, identity_checks, weighted_sobolev_ratios and
nonlinearity_decay_ratios) builds them once, as GeometryWeights(grid, t),
and passes them to the helpers that read them.  They hold every field
the members share, the weights <r - t>^2 of X_k, r^2 of Y_k and the
kernel of G_k among them, so a member's terms form no weight of their
own.

The inequality ratios are evaluated at the base state only, as the audit
and the acceptance gate report them.  nonlinearity_decay_ratios reads the
root's products and stack and the fields of the members U^(0,a) with
|a| = 1 and 2; weighted_sobolev_ratios reads one field and the words of
length <= 2 built from its one forward transform.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import spectral as sp
from .families import (DerivedFamily, MultiIndex, _members,
                       _nonlinearity_hat, admissible_indices)
from .grid import Grid
from .state import PotentialState, _constraint_of_gradients


def _light_cone(grid: Grid, t: float) -> np.ndarray:
    """The light cone region r >= <t>/2 of grid at time t, with the true
    r: the points a sample's sup over the cone reads."""
    return grid.r >= np.sqrt(1.0 + t * t) / 2.0


class GeometryWeights:
    """Light-cone geometry at time t with one-cell origin regularization,
    built once per sample at its (grid, t)."""

    def __init__(self, grid: Grid, t: float):
        self.grid, self.t = grid, t
        r_true = grid.r
        self.r = np.maximum(r_true, grid.spacing)         # regularized
        self.r_sq = self.r ** 2                           # weight of Y_k
        self.omega = np.stack([grid.x1 / self.r, grid.x2 / self.r])
        self.omega_perp = np.stack([-self.omega[1], self.omega[0]])
        sigma = r_true - t
        self.sigma_bracket = np.sqrt(1.0 + sigma ** 2)    # <r - t>, true r
        self.sigma_sq = self.sigma_bracket ** 2           # weight of X_k
        self.eq = np.exp(np.arctan(sigma))                # ghost weight e^q
        self.kernel = self.eq / self.sigma_sq             # kernel of G_k
        # the light cone region, and the points away from the regularized
        # origin, r >= spacing
        self.mask = _light_cone(grid, t)
        self.interior = r_true >= grid.spacing


def _radial(w: GeometryWeights, grads: np.ndarray) -> np.ndarray:
    """d_r = omega . grad of gradients stacked along axis -3."""
    return w.omega[0] * grads[..., 0, :, :] + w.omega[1] * grads[..., 1, :, :]


def _good_unknown_grads(w: GeometryWeights, D: np.ndarray):
    """(dV + dH . omega, dH . omega_perp) from derivatives D of (V, H1, H2)
    stacked along axis 0.  A derivative stack gives the good unknowns per
    spatial direction i; its radial projection _radial(w, D) gives
    (d_r V + d_r H . omega, d_r H . omega_perp)."""
    dV, dH = D[0], D[1:]                      # dH[j] = d H_j
    # in place, in the order of dV + dH[0] w0 + dH[1] w1 (a sum of two
    # terms is exact in either order), with one product temporary
    good_r = np.multiply(dH[0], w.omega[0])
    good_r += dV
    term = np.multiply(dH[1], w.omega[1])
    good_r += term
    good_t = np.multiply(dH[0], w.omega_perp[0])
    good_t += np.multiply(dH[1], w.omega_perp[1], out=term)
    return good_r, good_t


def _member_terms(w: GeometryWeights, jet, D) -> tuple[dict, tuple | None]:
    """What one member adds to the sample: its terms of the functionals,
    E by Parseval of its level-0 coefficients and, when it has a stack D
    (an order below k_max), calE, X, Y and G from D; and the masked
    (radial, tangential) sups of its good unknowns, None without D.

    The stack's one pointwise density S = sum_c |grad U_c|^2 gives calE as
    its sum and X as its dot with <r - t>^2.  Y and G read the good
    unknowns (good_r, good_t) per direction: their radial projections
    omega . good_r = d_r V + d_r H . omega and omega . good_t =
    d_r H . omega_perp are those of Y, whose summed squares are dotted
    with r^2, and G dots the summed squares of good_r and good_t with
    the kernel."""
    g = w.grid
    terms = {"E": sp.l2_norm_sq_hat(g, jet.hat[0])}
    if D is None:  # the stack terms sum orders <= k - 1 only
        return terms, None
    h2 = g.spacing ** 2
    S = np.einsum("cixy,cixy->xy", D, D)
    terms["calE"] = float(np.sum(S)) * h2
    terms["X"] = sp._dot(S, w.sigma_sq) * h2
    good_r, good_t = _good_unknown_grads(w, D)
    rad = np.einsum("ixy,ixy->xy", w.omega, good_r)
    tan = np.einsum("ixy,ixy->xy", w.omega, good_t)
    rad *= rad
    rad += np.multiply(tan, tan, out=tan)
    terms["Y"] = sp._dot(rad, w.r_sq) * h2
    # S is read; it now holds the density of G
    np.einsum("ixy,ixy->xy", good_r, good_r, out=S)
    S += np.einsum("ixy,ixy->xy", good_t, good_t, out=tan)
    terms["G"] = sp._dot(S, w.kernel) * h2
    return terms, (
        float(np.max(np.abs(good_r), where=w.mask, initial=0.0)),
        float(np.max(np.abs(good_t), where=w.mask, initial=0.0)))


def _sample_pass(members, k_max: int, w: GeometryWeights
                 ) -> tuple[dict[str, float], dict]:
    """One pass over the (idx, jet, stack) of a family of order k_max, in
    any order, with the weights w at its (grid, t): a functional of every
    term of _member_terms, in the order of the root's terms, and the
    good-unknown sups of each member of order < k_max.

    A term the members of order k_max carry (E, of level 0) sums the
    orders <= k into its k-th value, k = 0 .. k_max; a term only the
    members with a stack carry sums the orders <= k - 1, k = 1 .. k_max.
    Only each member's scalars are kept, and they are summed per order in
    index order and then over the orders, so the values do not depend on
    the order of the walk."""
    per_member = {idx: _member_terms(w, jet, D) for idx, jet, D in members}
    by_order, sups = {}, {}
    for idx in admissible_indices(k_max):
        terms, sup = per_member[idx]
        if sup is not None:
            sups[idx] = sup
        for name, term in terms.items():
            key = name, idx.order
            by_order[key] = by_order.get(key, 0.0) + term
    # each term's name, in the order of the root's terms, and its lag: 1
    # for a term of the stack, which no member of order k_max carries
    lags = {name: int((name, k_max) not in by_order) for name, _ in by_order}
    out = {f"{name}{k}": sum(by_order.get((name, m), 0.0)
                             for m in range(k + 1 - lag))
           for k in range(k_max + 1) for name, lag in lags.items()
           if k >= lag}
    return out, sups


def _family_pass(fam: DerivedFamily) -> tuple[GeometryWeights, dict, dict]:
    """The weights at the family's (grid, t) and _sample_pass of it."""
    w = GeometryWeights(fam.state.grid, fam.state.t)
    return (w, *_sample_pass(fam.members(), fam.k_max, w))


def _good_sup(w: GeometryWeights, sups: dict) -> float:
    """Sum of the sups over the members in the family's order; the light
    cone mask of w must not be empty."""
    if not np.any(w.mask):
        raise ValueError(f"light-cone mask is empty at t = {w.t}")
    return sum((s_r + s_t for s_r, s_t in sups.values()), 0.0)


def energies(fam: DerivedFamily) -> dict[str, float]:
    """E_k for k <= k_max and calE_k for 1 <= k <= k_max.

    E_k reads each member's level-0 coefficients by Parseval, with no
    transform; calE_k reads the kept stacks.
    """
    out = _family_pass(fam)[1]
    # a key is its term's name and a one-digit order (k_max <= 3)
    return {k: v for k, v in out.items() if k[:-1] in ("E", "calE")}


def weighted_norms(fam: DerivedFamily) -> dict[str, float]:
    """X_k, Y_k, G_k for 1 <= k <= k_max."""
    out = _family_pass(fam)[1]
    return {k: v for k, v in out.items() if k[:-1] in ("X", "Y", "G")}


def good_unknown_norms(fam: DerivedFamily) -> dict:
    """Sup norms of the good unknowns over the light cone mask r >= <t>/2,
    for the members of order <= k_max - 1.

    Returns per-index (radial, tangential) sups and their overall sum.
    """
    w, _, sups = _family_pass(fam)
    return {"per_index": sups, "sum": _good_sup(w, sups)}


# ---------------------------------------------------------------------------
# exact algebraic identities

def identity_checks(grid: Grid, V: np.ndarray, H: np.ndarray,
                    Vp: np.ndarray | None = None,
                    Hp: np.ndarray | None = None,
                    t: float = 0.0) -> dict[str, float]:
    """L-inf residuals of the pointwise algebraic identities.

    null_split:   d_iH'.d_kd_jH - d_iV' d_kd_jV rewritten through the good
                  unknowns and the orthonormal frame (omega, omega_perp)
    f2_split:     the radial/tangential decomposition of d_l^perp H_j d_l V
    grad_split:   grad f = omega d_r f + (omega_perp / r) d_theta f
    perp_cancel:  sum_j d_j^perp V d_j V = 0
    riesz_trace:  sum_i riesz_pp(i, i, f) = 0

    All are exact away from the regularized origin; the first two are
    evaluated on r >= spacing, grad_split on r >= 4 spacing.
    """
    Vp = V if Vp is None else Vp
    Hp = H if Hp is None else Hp
    uh = sp.fft(np.concatenate((V[None], H)))
    D = sp.gradient_from_hat(grid, uh)
    Dp = D if Vp is V and Hp is H else sp.derivative_stack(grid, Vp, Hp)
    out = _identity_checks(GeometryWeights(grid, t), uh, D, Dp)
    # antisymmetry cancellation
    gV = D[0]
    gpV = sp.perp(gV)
    out["perp_cancel"] = sp.linf_norm(gpV[0] * gV[0] + gpV[1] * gV[1])
    # trace of the perp-Riesz multiplier vanishes (k_perp . k = 0)
    trace = sum(sp.ifft(grid.riesz[i, i] * uh[0]) for i in range(2))
    out["riesz_trace"] = sp.linf_norm(trace)
    return out


def _second_derivatives(grid: Grid, fh: np.ndarray) -> np.ndarray:
    """d_j d_k of the fields with coefficients fh for the pairs
    (j, k) = (1, 1), (1, 2), (2, 2), stacked along a new axis -3; one
    inverse batch.  The symbols ik_j ik_k commute exactly, so d_2 d_1 is
    d_1 d_2 bit for bit and is not formed."""
    ik = grid.ik
    return sp.ifft(np.stack([ik[0] * ik[0], ik[0] * ik[1], ik[1] * ik[1]])
                   * fh[..., None, :, :])


def _null_split(w: GeometryWeights, uh: np.ndarray, Dp: np.ndarray
                ) -> float:
    """null_split over all (i, j, k), from the coefficients uh of
    (V, H1, H2) and the derivative stack Dp of (V', H').  Its 9 second
    derivatives are freed on return, before the other identities.  The
    terms of (j, k) = (2, 1) are those of (1, 2) bit for bit, so the sup
    skips them.  The frame projections of d_j d_k H do not depend on i
    and are formed once per (j, k).  Every pass writes into one of five
    buffers, in the order of

        lhs = d_iH'_1 d_jk H_1 + d_iH'_2 d_jk H_2 - d_iV' d_jk V
        rhs = good_i dH_jk_r - d_iV' (d_jk V + dH_jk_r) + good_perp_i dH_jk_t

    with dH_jk_r = d_jk H . omega and dH_jk_t = d_jk H . omega_perp."""
    gVp, gHp = Dp[0], Dp[1:]
    dd = _second_derivatives(w.grid, uh)
    ggV, ggH = dd[0], dd[1:]                   # [jk], [m, jk]
    res = 0.0
    goodV, goodT = _good_unknown_grads(w, Dp)
    dH_r, dH_t, lhs, rhs, term = np.empty((5,) + ggV.shape[1:])
    for jk in range(3):
        np.multiply(ggH[0, jk], w.omega[0], out=dH_r)
        dH_r += np.multiply(ggH[1, jk], w.omega[1], out=term)
        np.multiply(ggH[0, jk], w.omega_perp[0], out=dH_t)
        dH_t += np.multiply(ggH[1, jk], w.omega_perp[1], out=term)
        for i in range(2):
            np.multiply(gHp[0, i], ggH[0, jk], out=lhs)
            lhs += np.multiply(gHp[1, i], ggH[1, jk], out=term)
            lhs -= np.multiply(gVp[i], ggV[jk], out=term)
            np.multiply(goodV[i], dH_r, out=rhs)
            rhs -= np.multiply(gVp[i], np.add(ggV[jk], dH_r, out=term),
                               out=term)
            rhs += np.multiply(goodT[i], dH_t, out=term)
            np.abs(np.subtract(lhs, rhs, out=term), out=term)
            res = max(res, float(np.max(term, where=w.interior,
                                        initial=0.0)))
    return res


def _identity_checks(w: GeometryWeights, uh: np.ndarray, D: np.ndarray,
                     Dp: np.ndarray) -> dict[str, float]:
    """null_split, f2_split and grad_split, the identities a sample
    records, with the weights w, from the coefficients uh of (V, H1, H2),
    their derivative stack D and the derivative stack Dp of (V', H'): 9
    inverse fields of second derivatives."""
    grid = w.grid
    gV, gH = D[0], D[1:]
    out = {"null_split": _null_split(w, uh, Dp)}

    # f2_split: sum_l d_l^perp H_m d_l V decomposed along (omega, omega_perp)
    gpH = sp.perp(gH)                          # [j, l]
    gpV = sp.perp(gV)
    f2 = np.stack([gpH[m, 0] * gV[0] + gpH[m, 1] * gV[1] for m in range(2)])
    coef_r = np.zeros_like(gV[0])
    coef_t = np.zeros_like(gV[0])
    for l in range(2):
        gpH_l = gpH[:, l]                      # vector d_l^perp H
        coef_r += (gpH_l[0] * w.omega[0] + gpH_l[1] * w.omega[1]
                   + gpV[l]) * gV[l]
        coef_t += (gpH_l[0] * w.omega_perp[0]
                   + gpH_l[1] * w.omega_perp[1]) * gV[l]
    rhs = np.stack([coef_r * w.omega[m] + coef_t * w.omega_perp[m]
                    for m in range(2)])
    out["f2_split"] = float(np.max(np.abs(f2 - rhs), where=w.interior,
                                   initial=0.0))

    # grad_split on r >= 4 spacing
    far = grid.r >= 4.0 * grid.spacing
    dr = _radial(w, gV)
    dtheta = grid.x1 * gV[1] - grid.x2 * gV[0]
    res = 0.0
    for i in range(2):
        rhs = w.omega[i] * dr + w.omega_perp[i] / w.r * dtheta
        res = max(res, float(np.max(np.abs(gV[i] - rhs), where=far,
                                    initial=0.0)))
    out["grad_split"] = res
    return out


# ---------------------------------------------------------------------------
# inequality constants (the analysis proves "<="; we record the ratios)

def _ratio(lhs: np.ndarray, rhs) -> float:
    if np.isscalar(rhs) or rhs.ndim == 0:
        return float(np.max(lhs) / max(float(rhs), 1e-30))
    floor = 1e-12 * float(np.max(rhs)) + 1e-30
    return float(np.max(lhs / (rhs + floor)))


def weighted_sobolev_ratios(grid: Grid, f: np.ndarray,
                                  t: float = 0.0) -> dict[str, float]:
    """LHS/RHS ratios of the three weighted Sobolev-type inequalities.

    sob_r:       r |f|^2            vs sums of ||d_r rot^a f||^2 + ||rot^a f||^2
    sob_rw:      r <t-r>^2 |f|^2    vs the same sums with weight <t-r>
    sob_int:     <t> sup_{r<=t/2}|f| vs sum_{|a|<=2} ||<t-r> d^a f||

    rot^a runs over a <= 1.  sob_int sums the 7 words d^a of length <= 2
    (f, d1 f, d2 f, d1d1 f, d1d2 f, d2d1 f, d2d2 f; the mixed word is
    transformed once and its norm counts twice).  The gradient, the
    rotation and the second-order words all come from one forward
    transform of f; the rotation costs one more.
    """
    w = GeometryWeights(grid, t)
    fh = sp.fft(f)
    gf = sp.gradient_from_hat(grid, fh)
    rot = grid.x1 * gf[1] - grid.x2 * gf[0]
    rhs1 = rhs2 = 0.0
    for h, gh in ((f, gf), (rot, sp.gradient(grid, rot))):
        dr = _radial(w, gh)
        rhs1 += sp.l2_norm_sq(grid, dr) + sp.l2_norm_sq(grid, h)
        rhs2 += (sp.l2_norm_sq(grid, w.sigma_bracket * dr)
                 + sp.l2_norm_sq(grid, w.sigma_bracket * h))
    out = {"sob_r": _ratio(grid.r * f ** 2, rhs1),
           "sob_rw": _ratio(grid.r * w.sigma_bracket ** 2 * f ** 2, rhs2),
           "sob_int": 0.0}
    inner = grid.r <= t / 2.0
    if np.any(inner):
        lhs = np.sqrt(1.0 + t * t) * float(np.max(np.abs(f[inner])))
        dd = _second_derivatives(grid, fh)     # d1d1 f, d1d2 f, d2d2 f
        rhs = 0.0
        for h in (f, gf[0], gf[1], dd[0], dd[1], dd[1], dd[2]):
            rhs += sp.l2_norm(grid, w.sigma_bracket * h)
        out["sob_int"] = lhs / max(rhs, 1e-30)
    return out


def _root_sums(fam: DerivedFamily, order: int):
    """Pointwise sums of |V| and |H| over the members U^(0,a) with
    |a| = order, in the family's order."""
    sum_V = sum_H = 0.0
    for idx in fam.indices:
        if idx.alpha == 0 and idx.order == order:
            V, H = fam.fields(idx)
            sum_V = sum_V + np.abs(V)
            sum_H = sum_H + np.sqrt(H[0] ** 2 + H[1] ** 2)
    return sum_V, sum_H


def nonlinearity_decay_ratios(fam: DerivedFamily) -> dict[str, float]:
    """Pointwise decay bounds of the quadratic nonlinearities near the cone,
    at the base state.

    f2_decay, f3_decay, divf2_decay, fij_decay: LHS/RHS ratios where each
    right side is 1/r times products of the sums of |V| and |H| over the
    members U^(0,a) with |a| = 1 (|a| = 2 for div f2), and fij adds the
    good-unknown structure terms of the root.  divf2_decay needs
    k_max >= 2; at k_max = 0 there is no first-order member, and no ratio
    is returned.
    """
    if fam.k_max < 1:
        return {}
    g = fam.state.grid
    w = GeometryWeights(g, fam.state.t)
    root = MultiIndex(0, (0, 0, 0, 0))
    # the perp-form products, f2, f3 and div f2 from the shared spectra;
    # the plain-derivative fij are the perp-form products up to sign
    ph = _nonlinearity_hat(fam, root)[1]
    u = sp.ifft(np.concatenate((ph, g.ik[0] * ph[3:4] + g.ik[1] * ph[4:5])))
    del ph  # not read below; freed before the sums and stacks that follow
    f2, f3 = u[3:5], u[5]
    sum_V, sum_H = _root_sums(fam, 1)
    out = {}
    lhs = np.sqrt(f2[0] ** 2 + f2[1] ** 2)
    out["f2_decay"] = _ratio(lhs, sum_V * sum_H / w.r)
    out["f3_decay"] = _ratio(np.abs(f3), sum_H * sum_H / w.r)
    if fam.k_max >= 2:
        sum_V2, sum_H2 = _root_sums(fam, 2)
        out["divf2_decay"] = _ratio(np.abs(u[6]), sum_V2 * sum_H2 / w.r)

    lhs = np.max(np.abs(u[:3]), axis=0)
    D = fam.stack(root)
    good_rad, good_tan = _good_unknown_grads(w, _radial(w, D))
    mag_grad = np.sqrt(np.sum(D[0] ** 2, axis=0)) + np.sqrt(
        np.sum(D[1:] ** 2, axis=(0, 1)))
    rhs = ((sum_V * sum_V + sum_H * sum_H) / w.r
           + np.abs(good_rad) * mag_grad + np.abs(good_tan) * np.abs(good_tan))
    out["fij_decay"] = _ratio(lhs, rhs)
    return out


# ---------------------------------------------------------------------------
# decay fitting

def fit_decay(ts, values, t0: float, t1: float) -> tuple[float, float]:
    """Least-squares exponent of value ~ t^p over the window [t0, t1].

    Returns (p, stderr).  Requires at least 8 samples in the window, all
    of them positive (a NaN is not).
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    sel = (ts >= t0) & (ts <= t1)
    ts, values = ts[sel], values[sel]
    if ts.size < 8:
        raise ValueError(f"need >= 8 samples in window, got {ts.size}")
    if not (np.all(values > 0) and np.all(ts > 0)):
        raise ValueError("decay fit requires positive times and values")
    x, y = np.log(ts), np.log(values)
    (slope, _), cov = np.polyfit(x, y, 1, cov=True)
    return float(slope), float(np.sqrt(cov[0, 0]))


# ---------------------------------------------------------------------------
# CSV record

# the record values the frozen CSV header holds, after t and mu
CSV_COLUMNS = ("E0", "E1", "E2", "calE1", "calE2", "X1", "X2", "Y1", "Y2",
               "G1", "G2", "good_sup", "constraint_L2", "constraint_Linf",
               "id45_res", "id417_res", "id218_res")
CSV_HEADER = ",".join(("t", "mu", *CSV_COLUMNS))


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One CSV row of the diagnostics pipeline."""

    t: float
    mu: float
    values: dict[str, float]

    def to_csv_row(self) -> str:
        parts = [f"{self.t:.10g}", f"{self.mu:.10g}"]
        parts += [f"{self.values[c]:.12g}" for c in CSV_COLUMNS]
        return ",".join(parts)


def sample_record(fam: DerivedFamily) -> DiagnosticsRecord:
    """Evaluate the full diagnostics suite on one family, in one pass over
    its members."""
    return _record(fam.state, fam.k_max, fam.members())


def sample_state(state: PotentialState, k_max: int = 2,
                 dealias: bool = True) -> DiagnosticsRecord:
    """sample_record(derived_family(state, k_max, dealias,
    residual=False)), equal to it value for value, streamed: each member
    is read as the walk builds it and dropped after its last child, so no
    family is held."""
    return _record(state, k_max,
                   _members(state, k_max, dealias, residual=False))


def _record(state: PotentialState, k_max: int, members) -> DiagnosticsRecord:
    """The record of one pass over members, (idx, jet, stack) with the
    root first: the root's values are read before the walk goes on."""
    w = GeometryWeights(state.grid, state.t)
    rest = iter(members)
    root = next(rest)
    extras = _root_values(w, *root[1:])
    members = chain([root], rest)
    del root  # the walk frees the root's jet and stack after its children
    vals, sups = _sample_pass(members, k_max, w)
    # families built with k_max < 2 leave the deeper columns empty
    for col in CSV_COLUMNS:
        vals.setdefault(col, float("nan"))
    vals["good_sup"] = _good_sup(w, sups)
    vals.update(extras)
    return DiagnosticsRecord(t=state.t, mu=state.mu, values=vals)


def _root_values(w: GeometryWeights, jet, D) -> dict[str, float]:
    """The constraint, the identities and grad_sup, from the root's stack
    D and level-0 coefficients; at k_max = 0 the root has no stack and D
    is built here."""
    if D is None:
        D = sp.gradient_from_hat(w.grid, jet.hat[0])
    res = _constraint_of_gradients(D[1:])
    ids = _identity_checks(w, jet.hat[0], D, D)
    return {"constraint_L2": sp.l2_norm(w.grid, res),
            "constraint_Linf": sp.linf_norm(res),
            "id45_res": ids["null_split"],
            "id417_res": ids["f2_split"],
            "id218_res": ids["grad_split"],
            # not a CSV column: the summary carries it as a series
            "grad_sup": max(sp.linf_norm(D[0]), sp.linf_norm(D[1:]))}

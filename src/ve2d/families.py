"""Generalized vector fields and the derived family U^(alpha, a).

The operator set is Gamma in {d_t, d_1, d_2, rot~} plus the modified
scaling scale~ = t d_t + r d_r - 1, where rot~ acts componentwise as the
angular derivative rot = x1 d2 - x2 d1 on V and as rot - (perp rotation)
on H:  rot~ H = rot H - (-H2, H1).

Time derivatives are never formed by differencing stored history.  Each
field pair carries a jet of time-derivative levels (V^[m], H^[m]) built by
pushing the evolution equations through a Leibniz recursion, so d_t is a
level shift and scale~ consumes one level via

    (scale~ f)^[m] = t f^[m+1] + (m - 1) f^[m] + (x . grad) f^[m].

The canonical operator word for the multi-index (alpha, a) is scale~^alpha
d_t^{a1} d_1^{a2} d_2^{a3} rot~^{a4}, scaling powers outermost.
"""

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from . import spectral as sp
from .grid import Grid
from .state import PotentialState

class MultiIndex(NamedTuple):
    """Degree of each operator: alpha scalings, a = (dt, d1, d2, rot)."""

    alpha: int
    a: tuple[int, int, int, int]

    @property
    def order(self) -> int:
        return self.alpha + sum(self.a)


def admissible_indices(k_max: int) -> list[MultiIndex]:
    """All multi-indices with total order <= k_max, ordered by degree."""
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


# ---------------------------------------------------------------------------
# bilinear nonlinearities
#
# The single home of the quadratic forms of the jets (base_jet) and the
# commuted equations (nonlinearity_f).  Each reads the derivative stacks Da
# of (Va, Ha) and Db of (Vb, Hb) (spectral.derivative_stack).  quad_fij
# stays a formula apart from bilin_f1_perp: the commutator residuals check
# one against the other.  The stepper (dynamics) evaluates f1 and f2 of one
# state in spectral space, with f_ij symmetric and the Riesz symbols fused;
# tests pin it to these forms to round-off.

def bilin_f1_perp(grid: Grid, Da, Db, dealias=True) -> np.ndarray:
    """sum_ij riesz_pp(i,j, -d_i^perp Va d_j^perp Vb + d_i^perp Ha . d_j^perp Hb)."""
    Pa, Pb = sp.perp(Da), sp.perp(Db)
    out = np.zeros((grid.n, grid.n))
    for i in range(2):
        for j in range(2):
            fij = -sp.product(grid, Pa[0, i], Pb[0, j], dealias)
            for m in range(2):
                fij += sp.product(grid, Pa[1 + m, i], Pb[1 + m, j], dealias)
            out += sp.riesz_pp(grid, i + 1, j + 1, fij)
    return out


def quad_fij(grid: Grid, Da, Db, i: int, j: int, dealias=True) -> np.ndarray:
    """Plain-derivative quadratic form d_i Va d_j Vb - d_i Ha . d_j Hb."""
    out = sp.product(grid, Da[0, i - 1], Db[0, j - 1], dealias)
    for m in range(2):
        out -= sp.product(grid, Da[1 + m, i - 1], Db[1 + m, j - 1], dealias)
    return out


def bilin_f2(grid: Grid, Da, Db, dealias=True) -> np.ndarray:
    """Component j: sum_l d_l^perp Ha_j d_l Vb; returns shape (2, n, n)."""
    gpH = sp.perp(Da[1:])
    out = np.empty((2, grid.n, grid.n))
    for j in range(2):
        out[j] = sum(sp.product(grid, gpH[j, l], Db[0, l], dealias)
                     for l in range(2))
    return out


def bilin_f3(grid: Grid, Da, Db, dealias=True) -> np.ndarray:
    """sum_l d_l^perp Ha_2 d_l Hb_1."""
    gpH2 = sp.perp(Da[2])
    return sum(sp.product(grid, gpH2[l], Db[1, l], dealias) for l in range(2))


# ---------------------------------------------------------------------------
# jets of time-derivative levels

@dataclass(frozen=True)
class Jet:
    """Time-derivative levels of a (V, H) pair at a fixed time.

    V has shape (M+1, n, n) and H has shape (M+1, 2, n, n); level m holds
    d_t^m of the field.
    """

    grid: Grid
    V: np.ndarray
    H: np.ndarray
    t: float
    mu: float

    @property
    def levels(self) -> int:
        return self.V.shape[0] - 1

    def pair(self, level: int = 0) -> tuple[np.ndarray, np.ndarray]:
        return self.V[level], self.H[level]


def base_jet(state: PotentialState, levels: int, dealias: bool = True) -> Jet:
    """Jet of the base state: levels built by Leibniz recursion through the
    evolution equations, so every level is exact at the continuous limit."""
    g = state.grid
    V = np.empty((levels + 1, g.n, g.n))
    H = np.empty((levels + 1, 2, g.n, g.n))
    V[0], H[0] = state.V, state.H
    D = []  # derivative stack of each level, built once
    for m in range(levels):
        D.append(sp.derivative_stack(g, V[m], H[m]))
        dV = sp.divergence(g, H[m])
        if state.mu > 0:
            dV += state.mu * sp.laplacian(g, V[m])
        dH = D[m][0].copy()
        for l in range(m + 1):
            c = comb(m, l)
            dV += c * bilin_f1_perp(g, D[l], D[m - l], dealias)
            dH += c * bilin_f2(g, D[l], D[m - l], dealias)
        V[m + 1], H[m + 1] = dV, dH
    return Jet(grid=g, V=V, H=H, t=state.t, mu=state.mu)


def time_derivative(state: PotentialState, order: int,
                    dealias: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(d_t^m V, d_t^m H) evaluated through the evolution equations."""
    if order < 1:
        raise ValueError("order must be >= 1")
    jet = base_jet(state, order, dealias)
    return jet.V[order], jet.H[order]


def _rot_levelwise(grid: Grid, f: np.ndarray) -> np.ndarray:
    return np.stack([sp.rotation(grid, lvl) for lvl in f.reshape(-1, grid.n, grid.n)]
                    ).reshape(f.shape)


def apply_field(op: str, jet: Jet) -> Jet:
    """Apply one generalized vector field to a jet.

    d_t shifts levels; d_1/d_2 and rot~ act levelwise; scale~ consumes one
    level.  The returned jet has one level fewer for d_t and scale~.
    """
    g = jet.grid
    if op == "dt":
        if jet.levels < 1:
            raise ValueError("jet has no levels left for dt")
        return Jet(g, jet.V[1:], jet.H[1:], jet.t, jet.mu)
    if op in ("d1", "d2"):
        axis = 1 if op == "d1" else 2
        V = np.stack([sp.derivative(g, lvl, axis) for lvl in jet.V])
        H = np.stack([np.stack([sp.derivative(g, h, axis) for h in lvl])
                      for lvl in jet.H])
        return Jet(g, V, H, jet.t, jet.mu)
    if op == "rot":
        V = _rot_levelwise(g, jet.V)
        H = _rot_levelwise(g, jet.H)
        # modified rotation: rot~ H = rot H - H^perp, H^perp = (-H2, H1)
        H = H.copy()
        H[:, 0] += jet.H[:, 1]
        H[:, 1] -= jet.H[:, 0]
        return Jet(g, V, H, jet.t, jet.mu)
    if op == "scale":
        if jet.levels < 1:
            raise ValueError("jet has no levels left for scale")
        M = jet.levels
        V = np.empty((M, g.n, g.n))
        H = np.empty((M, 2, g.n, g.n))
        for m in range(M):
            V[m] = (jet.t * jet.V[m + 1] + (m - 1) * jet.V[m]
                    + sp.radial_scaled_derivative(g, jet.V[m]))
            for j in range(2):
                H[m, j] = (jet.t * jet.H[m + 1, j] + (m - 1) * jet.H[m, j]
                           + sp.radial_scaled_derivative(g, jet.H[m, j]))
        return Jet(g, V, H, jet.t, jet.mu)
    raise ValueError(f"unknown field op {op!r}")


def _parent(idx: MultiIndex) -> tuple[str, MultiIndex] | None:
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


class DerivedFamily:
    """All U^(alpha, a) with alpha + |a| <= k_max for one base state.

    Each entry keeps its full jet so that d_t of any family member is
    available for residual checks without differencing.
    """

    def __init__(self, state: PotentialState, k_max: int = 2,
                 dealias: bool = True):
        if k_max > 3:
            raise ValueError("k_max > 3 is outside the supported desk scale")
        self.state = state
        self.k_max = k_max
        self.indices = admissible_indices(k_max)
        self._jets: dict[MultiIndex, Jet] = {}
        root = base_jet(state, k_max + 1, dealias)
        self._jets[MultiIndex(0, (0, 0, 0, 0))] = root
        for idx in self.indices:
            if idx not in self._jets:
                op, parent = _parent(idx)
                self._jets[idx] = apply_field(op, self._jets[parent])
        self.dealias = dealias

    def jet(self, idx: MultiIndex) -> Jet:
        return self._jets[idx]

    def fields(self, idx: MultiIndex) -> tuple[np.ndarray, np.ndarray]:
        """(V^(alpha,a), H^(alpha,a)) at level 0."""
        return self._jets[idx].pair(0)

    def __len__(self) -> int:
        return len(self.indices)


def derived_family(state: PotentialState, k_max: int = 2,
                   dealias: bool = True) -> DerivedFamily:
    return DerivedFamily(state, k_max, dealias)


def _splittings(idx: MultiIndex):
    """All ((beta, b), (gamma, c), coefficient) with beta+gamma = alpha,
    b+c = a and coefficient C(alpha, beta) prod C(a_m, b_m)."""
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


def nonlinearity_f(fam: DerivedFamily, idx: MultiIndex):
    """(f1, f2, f3, fij) for the commuted system at the given index.

    fij is a dict {(i, j): field} of the plain-derivative quadratic forms;
    f1 = sum_ij riesz_pp(i, j, fij).  All sums are binomial-weighted over
    splittings of the index.
    """
    g = fam.state.grid
    n = g.n
    fij = {(i, j): np.zeros((n, n)) for i in range(1, 3) for j in range(1, 3)}
    f2 = np.zeros((2, n, n))
    f3 = np.zeros((n, n))
    splits = list(_splittings(idx))
    # one derivative stack per distinct member, held only for this call
    members = {m for left, right, _ in splits for m in (left, right)}
    D = {m: sp.derivative_stack(g, *fam.fields(m)) for m in members}
    for left, right, coef in splits:
        Da, Db = D[left], D[right]
        for i in range(1, 3):
            for j in range(1, 3):
                fij[i, j] += coef * quad_fij(g, Da, Db, i, j, fam.dealias)
        f2 += coef * bilin_f2(g, Da, Db, fam.dealias)
        f3 += coef * bilin_f3(g, Da, Db, fam.dealias)
    f1 = np.zeros((n, n))
    for (i, j), field_ij in fij.items():
        f1 += sp.riesz_pp(g, i, j, field_ij)
    return f1, f2, f3, fij


def commutator_residuals(fam: DerivedFamily, idx: MultiIndex
                         ) -> tuple[float, float, float]:
    """L-inf residuals of the three commuted equations at the given index.

    r1: d_t V' - mu lap sum_l C(alpha,l) (-1)^(alpha-l) V^(l,a) - div H' - f1
    r2: d_t H' - grad V' - f2
    r3: div_perp H' - f3
    All vanish at the continuous level; the measured values are pure
    discretization error.
    """
    g = fam.state.grid
    jet = fam.jet(idx)
    V, H = jet.pair(0)
    dtV, dtH = jet.pair(1)
    f1, f2, f3, _ = nonlinearity_f(fam, idx)

    r1 = dtV - sp.divergence(g, H) - f1
    if fam.state.mu > 0:
        alpha, a = idx
        visc = np.zeros_like(V)
        for l in range(alpha + 1):
            Vl, _ = fam.fields(MultiIndex(l, a))
            visc += comb(alpha, l) * (-1.0) ** (alpha - l) * Vl
        r1 -= fam.state.mu * sp.laplacian(g, visc)

    r2 = dtH - sp.gradient(g, V) - f2
    r3 = sp.perp_divergence(g, H) - f3
    return (sp.linf_norm(r1), sp.linf_norm(r2), sp.linf_norm(r3))

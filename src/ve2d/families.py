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
from .dynamics import _F1_SIGNS, _f2, _quadratic_hat
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
    evolution equations, so every level is exact at the continuous limit.

    Level m + 1 sums the quadratic sources over the pairs (C(m, l), D_l,
    D_{m-l}) of the derivative stacks D_l of the levels below.  Each level
    costs one batched forward transform of (V, H), one batched inverse of
    its 6 gradients, one batched forward of the 5 summed products and one
    batched inverse of (dV, dH).
    """
    g = state.grid
    V = np.empty((levels + 1, g.n, g.n))
    H = np.empty((levels + 1, 2, g.n, g.n))
    V[0], H[0] = state.V, state.H
    D = []  # derivative stack of each level, built once
    for m in range(levels):
        uh = sp.fft(np.concatenate((V[m][None], H[m])))
        D.append(sp.gradient_from_hat(g, uh))
        f1h, f2h = _quadratic_hat(
            g, [(comb(m, l), D[l], D[m - l]) for l in range(m + 1)], dealias)
        dVh = g.ik[0] * uh[1] + g.ik[1] * uh[2] + f1h
        if state.mu > 0:
            dVh -= state.mu * g.k_sq * uh[0]
        d = sp.ifft(np.concatenate((dVh[None], g.ik * uh[0] + f2h)))
        V[m + 1], H[m + 1] = d[0], d[1:]
    return Jet(grid=g, V=V, H=H, t=state.t, mu=state.mu)


def time_derivative(state: PotentialState, order: int,
                    dealias: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(d_t^m V, d_t^m H) evaluated through the evolution equations."""
    if order < 1:
        raise ValueError("order must be >= 1")
    jet = base_jet(state, order, dealias)
    return jet.V[order], jet.H[order]


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
        return Jet(g, sp.derivative(g, jet.V, axis),
                   sp.derivative(g, jet.H, axis), jet.t, jet.mu)
    if op == "rot":
        V = sp.rotation(g, jet.V)
        H = sp.rotation(g, jet.H)
        # modified rotation: rot~ H = rot H - H^perp, H^perp = (-H2, H1)
        H[:, 0] += jet.H[:, 1]
        H[:, 1] -= jet.H[:, 0]
        return Jet(g, V, H, jet.t, jet.mu)
    if op == "scale":
        if jet.levels < 1:
            raise ValueError("jet has no levels left for scale")
        m = np.arange(jet.levels)[:, None, None]
        V = (jet.t * jet.V[1:] + (m - 1) * jet.V[:-1]
             + sp.radial_scaled_derivative(g, jet.V[:-1]))
        H = (jet.t * jet.H[1:] + (m[:, None] - 1) * jet.H[:-1]
             + sp.radial_scaled_derivative(g, jet.H[:-1]))
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

    A member of order k keeps the levels 0..k_max - k + 1 of its jet, the
    most any descendant reads, so d_t of every member is available for
    residual checks without differencing.  stack(idx) is the one home of a
    member's gradients.
    """

    def __init__(self, state: PotentialState, k_max: int = 2,
                 dealias: bool = True):
        if k_max > 3:
            raise ValueError("k_max > 3 is outside the supported desk scale")
        self.state = state
        self.k_max = k_max
        self.indices = admissible_indices(k_max)
        self._jets: dict[MultiIndex, Jet] = {}
        self._stacks: dict[MultiIndex, np.ndarray] = {}
        root = base_jet(state, k_max + 1, dealias)
        self._jets[MultiIndex(0, (0, 0, 0, 0))] = root
        for idx in self.indices:
            if idx not in self._jets:
                op, parent = _parent(idx)
                # the member keeps levels 0..k_max - order + 1; dt and
                # scale read one level more of the parent
                keep = k_max - idx.order + 2 + (op in ("dt", "scale"))
                jet = self._jets[parent]
                self._jets[idx] = apply_field(
                    op, Jet(jet.grid, jet.V[:keep], jet.H[:keep], jet.t,
                            jet.mu))
        self.dealias = dealias

    def jet(self, idx: MultiIndex) -> Jet:
        return self._jets[idx]

    def fields(self, idx: MultiIndex) -> tuple[np.ndarray, np.ndarray]:
        """(V^(alpha,a), H^(alpha,a)) at level 0."""
        return self._jets[idx].pair(0)

    def stack(self, idx: MultiIndex) -> np.ndarray:
        """Derivative stack of U^idx at level 0 (spectral.derivative_stack).

        Kept for members of order < k_max, which every sample functional
        reads.  A member of order k_max appears only in the splittings of
        its own index, so its stack is built on each call and not kept.
        """
        D = self._stacks.get(idx)
        if D is None:
            D = sp.derivative_stack(self.state.grid, *self.fields(idx))
            if idx.order < self.k_max:
                self._stacks[idx] = D
        return D

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


# ---------------------------------------------------------------------------
# bilinear nonlinearities of the commuted equations
#
# The perp-form sources f1 and f2 have one home, dynamics._products, shared
# by the stepper and base_jet: it sums them over a Leibniz sum of derivative
# stacks (spectral.derivative_stack), and dynamics._quadratic_hat masks and
# transforms the sums once.  nonlinearity_f shares its f2 formula
# (dynamics._f2) and writes the plain-derivative f_ij and f3 itself, from
# the member stacks of DerivedFamily.stack: the commutator residuals check
# f1 from the plain-derivative f_ij against the perp form that built the
# jets.

def _splitting_products(fam: DerivedFamily, idx: MultiIndex) -> np.ndarray:
    """f11, f12, f21, f22, f2_1, f2_2, f3 in physical space, summed over
    the splittings of idx; each distinct member's stack is read once."""
    g = fam.state.grid
    splits = list(_splittings(idx))
    members = {m for left, right, _ in splits for m in (left, right)}
    D = {m: fam.stack(m) for m in members}
    prods = np.zeros((7, g.n, g.n))
    for left, right, coef in splits:
        Da, Db = D[left], D[right]
        Pa = sp.perp(Da)
        prods[:4] += np.einsum("f,fixy,fjxy->ijxy", -coef * _F1_SIGNS,
                               Da, Db).reshape(4, g.n, g.n)
        prods[4:6] += coef * _f2(Pa, Db)
        prods[6] += coef * np.einsum("lxy,lxy->xy", Pa[2], Db[1])
    return prods


def nonlinearity_f(fam: DerivedFamily, idx: MultiIndex):
    """(f1, f2, f3, fij) for the commuted system at the given index.

    fij is a dict {(i, j): field} of the plain-derivative quadratic forms
    d_i Va d_j Vb - d_i Ha . d_j Hb; f1 = sum_ij riesz_pp(i, j, fij),
    f2 = dynamics._f2 and f3 = sum_l d_l^perp Ha_2 d_l Hb_1.  All are
    binomial-weighted sums over splittings of the index: one batched
    forward transform of the 7 sums, one mask, then the inverse transforms
    of f1 and of the 7 masked sums.
    """
    g = fam.state.grid
    ph = sp.fft(_splitting_products(fam, idx))
    if fam.dealias:
        ph *= g.keep_mask
    f1 = sp.ifft(np.einsum("rxy,rxy->xy", g.riesz.reshape(ph[:4].shape),
                           ph[:4]))
    out = sp.ifft(ph)
    fij = {(i, j): out[2 * i + j - 3]
           for i in range(1, 3) for j in range(1, 3)}
    return f1, out[4:6], out[6], fij


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
    dtV, dtH = fam.jet(idx).pair(1)
    f1, f2, f3, _ = nonlinearity_f(fam, idx)
    D = fam.stack(idx)  # D[0] = grad V', D[1 + j, i] = d_i H'_j

    r1 = dtV - (D[1, 0] + D[2, 1]) - f1
    if fam.state.mu > 0:
        alpha, a = idx
        visc = np.zeros_like(dtV)
        for l in range(alpha + 1):
            Vl, _ = fam.fields(MultiIndex(l, a))
            visc += comb(alpha, l) * (-1.0) ** (alpha - l) * Vl
        r1 -= fam.state.mu * sp.laplacian(g, visc)

    r2 = dtH - D[0] - f2
    r3 = D[2, 0] - D[1, 1] - f3
    return (sp.linf_norm(r1), sp.linf_norm(r2), sp.linf_norm(r3))

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

Jets hold rfft2 coefficients from end to end (Boyd, Chebyshev and Fourier
Spectral Methods, 2001): d_t is a slice, d_1 and d_2 are a multiply by ik,
and only rot~ and scale~, which multiply by x, visit physical space: one
inverse batch of gradients per parent and one forward batch per child.
No gradients are transformed twice: the root's batch is the stacks
base_jet builds its levels from, and a d_t child's is its parent's from
level 1 on.  Readers inverse-transform what they need.

Which levels a family builds depends on its reader.  Every sample
functional reads level 0 of each member, so a family built for sampling
(residual=False) keeps only the levels its members' descendants need for
that.  commutator_residuals also reads d_t of each member, one level
more, which only a family built with residual=True (the default) holds.

The canonical operator word for the multi-index (alpha, a) is

    scale~^alpha d_t^{a1} d_1^{a2} d_2^{a3} rot~^{a4},

outermost first; _CANONICAL is its one statement, and admissible_indices,
the walk's children and the Leibniz splittings (_splittings) read a
member's degrees (alpha, a1, a2, a3, a4) in that order.

A family is one depth-first walk over these words (_members): each member
is built from its parent, the word with its outermost operator removed,
and yielded with its stack, a view into its gradient batch, and a
parent's jet is freed once its last child is built, so the walk holds
only the members on one path from the root.  A member's children are the
operators at or outside its outermost one, in canonical order
(_children): every member then comes after every sub-index of it, so the
walk can be read member by member by a reader of the Leibniz splittings
too.  A member's jet holds exactly the levels its descendants read, so
the walk reads from jet.levels how many levels its gradient batch has
and how many of them each child takes.  _Family.walk holds what the
walk yields: DerivedFamily walks to the end and keeps every jet, for the
public API; the audit (experiments._family_checks) forms each member's
commutator_residuals as it is yielded and keeps, by its own rule, only
the stacks and the level-0 coefficients that later readers need.
diagnostics.sample_state streams the walk itself and keeps each member's
scalars alone.  At n = 256 (numpy 2.4.6, tracemalloc) the streamed
sample peaks at 26.7 MiB for k_max = 2 and 41.8 MiB for k_max = 3, where
the stored lean family alone peaks at 55.8 and 162.8 MiB; the whole
audit peaks at 74.1 and 127.7 MiB.
"""

from itertools import product
from math import comb, prod
from typing import NamedTuple

import numpy as np

from . import spectral as sp
from .dynamics import _quadratic_hat, _Scratch
from .grid import Grid
from .state import PotentialState

class MultiIndex(NamedTuple):
    """Degree of each operator: alpha scalings, a = (dt, d1, d2, rot)."""

    alpha: int
    a: tuple[int, int, int, int]

    @property
    def order(self) -> int:
        return self.alpha + sum(self.a)


# the operators of a canonical word, outermost first: a member's degrees
# (alpha, a1, a2, a3, a4) are its powers of each, in this order
_CANONICAL = ("scale", "dt", "d1", "d2", "rot")


def _index(degrees) -> MultiIndex:
    """The multi-index of the degrees (alpha, a1, a2, a3, a4)."""
    return MultiIndex(degrees[0], tuple(degrees[1:]))


def admissible_indices(k_max: int) -> list[MultiIndex]:
    """All multi-indices with total order <= k_max, ordered by degree."""
    degrees = product(range(k_max + 1), repeat=len(_CANONICAL))
    return [_index(d) for d in sorted(degrees, key=sum) if sum(d) <= k_max]


# ---------------------------------------------------------------------------
# jets of time-derivative levels

class Jet:
    """Time-derivative levels of a (V, H) pair at a fixed time.

    hat holds the rfft2 coefficients (spectral.fft) of (V, H1, H2) level by
    level, shape (M+1, 3, n, n//2+1); level m holds d_t^m of the fields.
    It is read-only, since a dt member and a trimmed parent share its
    buffer.  V (M+1, n, n), H (M+1, 2, n, n) and pair() are physical and
    inverse-transformed on each access.
    """

    def __init__(self, grid: Grid, V: np.ndarray, H: np.ndarray, t: float,
                 mu: float):
        """Jet of the physical levels V (M+1, n, n) and H (M+1, 2, n, n)."""
        self._init(grid, sp.fft(np.concatenate((V[:, None], H), axis=1)),
                   t, mu)

    @classmethod
    def from_hat(cls, grid: Grid, hat: np.ndarray, t: float,
                 mu: float) -> "Jet":
        """Jet of the coefficients hat."""
        jet = cls.__new__(cls)
        jet._init(grid, hat, t, mu)
        return jet

    def _init(self, grid, hat, t, mu):
        hat.flags.writeable = False
        self.grid, self.hat, self.t, self.mu = grid, hat, t, mu

    @property
    def levels(self) -> int:
        return self.hat.shape[0] - 1

    @property
    def V(self) -> np.ndarray:
        return sp.ifft(self.hat[:, 0])

    @property
    def H(self) -> np.ndarray:
        return sp.ifft(self.hat[:, 1:])

    def pair(self, level: int = 0) -> tuple[np.ndarray, np.ndarray]:
        u = sp.ifft(self.hat[level])
        return u[0], u[1:]


def base_jet(state: PotentialState, levels: int, dealias: bool = True) -> Jet:
    """Jet of the base state: levels built by Leibniz recursion through the
    evolution equations, so every level is exact at the continuous limit.

    Level m + 1 sums the quadratic sources over the pairs (C(m, l), D_l,
    D_{m-l}) of the derivative stacks D_l of the levels below.  The levels
    stay spectral: the state costs one batched forward transform of
    (V, H), and each level one batched inverse of its 6 gradients and one
    batched forward of the 5 summed products.
    """
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    return _base_jet(state, levels, dealias)[0]


def _base_jet(state: PotentialState, levels: int, dealias: bool
              ) -> tuple[Jet, np.ndarray]:
    """base_jet and the derivative stacks it builds, D[m] of level m in one
    (levels, 3, 2, n, n) array: the gradient batch of the jet's levels
    0..levels - 1, which the walk's root reads."""
    g = state.grid
    uh = np.empty((levels + 1, 3, g.n, g.n // 2 + 1), dtype=complex)
    uh[0] = sp.fft(np.concatenate((state.V[None], state.H)))
    D = np.empty((levels, 3, 2, g.n, g.n))
    for m in range(levels):
        sp.gradient_from_hat(g, uh[m], out=D[m])
        f1h, ph = _quadratic_hat(
            g, [(comb(m, l), D[l], D[m - l]) for l in range(m + 1)], dealias,
            _Scratch(g, 0, 5))
        uh[m + 1, 0] = g.ik[0] * uh[m, 1] + g.ik[1] * uh[m, 2] + f1h
        if state.mu > 0:
            uh[m + 1, 0] -= state.mu * g.k_sq * uh[m, 0]
        uh[m + 1, 1:] = g.ik * uh[m, 0] + ph[3:]
    return Jet.from_hat(g, uh, state.t, state.mu), D


def time_derivative(state: PotentialState, order: int,
                    dealias: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(d_t^m V, d_t^m H) evaluated through the evolution equations."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return base_jet(state, order, dealias).pair(order)


def apply_field(op: str, jet: Jet, grads: np.ndarray | None = None) -> Jet:
    """Apply one generalized vector field to a jet.

    d_t shifts levels; d_1/d_2 multiply the coefficients by ik, with no
    transform.  rot~ and scale~ multiply the physical gradients of the
    levels they read by x and transform the result forward once.  Each
    field's x2 product is formed in one field-sized buffer and combined
    into the x1 products, and scale~ then adds t f^[m+1] + (m - 1) f^[m]
    field by field in two more, each value in the order of the one
    expression x1 d1 f + x2 d2 f + (t f^[m+1] + (m - 1) f^[m]), so no
    temporary of the whole batch is formed but the x1 products.  scale~
    consumes one level, so the returned jet has one level fewer for d_t
    and scale~.  grads, when given, holds those gradients
    (spectral.gradient_from_hat of the first levels of jet.hat, at least
    as many as the result has; ValueError if fewer): the rot~ and scale~
    children of one parent share them.
    """
    g = jet.grid
    if op in ("dt", "scale") and jet.levels < 1:
        raise ValueError(f"jet has no levels left for {op}")
    if op == "dt":
        return Jet.from_hat(g, jet.hat[1:], jet.t, jet.mu)
    if op in ("d1", "d2"):
        return Jet.from_hat(g, g.ik[int(op == "d2")] * jet.hat, jet.t, jet.mu)
    if op not in ("rot", "scale"):
        raise ValueError(f"unknown field op {op!r}")
    out = jet.levels + (op == "rot")
    if grads is None:
        grads = sp.gradient_from_hat(g, jet.hat[:out])
    elif len(grads) < out:
        raise ValueError(f"{op} reads the gradients of {out} levels, "
                         f"grads holds {len(grads)}")
    G = grads[:out]
    # x1 d2 f - x2 d1 f (rot) or x1 d1 f + x2 d2 f (scale)
    rot = op == "rot"
    u = np.multiply(g.x1, G[:, :, int(rot)])
    term = np.empty(u.shape[-2:])
    for i in np.ndindex(u.shape[:-2]):
        np.multiply(g.x2, G[i][int(not rot)], out=term)
        (np.subtract if rot else np.add)(u[i], term, out=u[i])
    del term  # freed before the transform allocates hat, and u after
    hat = sp.fft(u)
    del u
    if rot:
        # modified rotation: rot~ H = rot H - H^perp, H^perp = (-H2, H1)
        hat[:, 1] += jet.hat[:, 2]
        hat[:, 2] -= jet.hat[:, 1]
    else:
        # + (t f^[m+1] + (m - 1) f^[m]), field by field in two buffers
        tf, lower = np.empty((2,) + hat.shape[-2:], dtype=complex)
        for m, c in np.ndindex(hat.shape[:2]):
            np.multiply(jet.t, jet.hat[m + 1, c], out=tf)
            tf += np.multiply(m - 1, jet.hat[m, c], out=lower)
            hat[m, c] += tf
    return Jet.from_hat(g, hat, jet.t, jet.mu)


def _children(idx: MultiIndex, k_max: int) -> list[tuple[str, MultiIndex]]:
    """(op, child) for each child of idx in the walk: one for each
    operator at or outside the outermost one of idx (every operator at the
    root), in _CANONICAL order, and none at order k_max."""
    if idx.order >= k_max:
        return []
    degrees = (idx.alpha, *idx.a)
    outermost = next((j for j, d in enumerate(degrees) if d),
                     len(_CANONICAL) - 1)
    return [(op, _index([d + (i == j) for i, d in enumerate(degrees)]))
            for j, op in enumerate(_CANONICAL[:outermost + 1])]


def _members(state: PotentialState, k_max: int = 2, dealias: bool = True,
             residual: bool = True):
    """Every member of the family of state, as (idx, jet, stack), depth
    first over the canonical words (_children): the walk _Family.walk
    holds (for DerivedFamily and the audit) and diagnostics.sample_state
    streams.

    Each parent's children come in _CANONICAL order, so every member
    comes after every sub-index of it, all that its Leibniz splittings
    and its viscous term read.  A member of order k keeps the levels
    0..k_max - k + r of its jet, the most any descendant reads, with r = 1
    when residual is true and 0 otherwise.  A member of order < k_max has
    a scale~ child, and its stack is the level-0 slice of its one batch
    of gradients, of the levels its children read; a member of order
    k_max yields None and has no children.

    The root's batch is the stacks base_jet built its levels from
    (_base_jet).  A d_t child is its parent's jet one level down, so when
    it has children its batch is its parent's from level 1 on, a view;
    every other member of order < k_max transforms its own.  A parent
    frees its batch once its last reader is built: its scale~ child, the
    first, its d_t child when that has children, and its rot~ child, the
    last.  So at most one batch per order on the path from the root is
    alive, k_max in all.  A parent frees its jet once its last child is
    built, so only the members on the path from the root are held at
    once.  A stack is a view into a batch: a reader that keeps it keeps
    the batch.
    """
    if not 0 <= k_max <= 3:
        raise ValueError(f"k_max must lie in [0, 3], got {k_max}")
    jet, D = _base_jet(state, k_max + residual, dealias)
    return _walk(MultiIndex(0, (0, 0, 0, 0)), jet, k_max, D)


def _walk(idx: MultiIndex, jet: Jet, k_max: int,
          G: np.ndarray | None = None):
    """The walk of _members below idx, whose jet is given, and whose
    gradient batch G is given or transformed here.  The jet holds the
    levels its member keeps, so its batch is of those levels and a child's
    slice is read from them.  A module-level generator, not a closure: a
    closure that calls itself is a reference cycle, which would hold the
    grid until the cyclic collector runs."""
    g = jet.grid
    kids = _children(idx, k_max)
    # the children that read the batch: scale~, rot~, and d_t when it has
    # children (from level 1 on)
    readers = [op for op, kid in kids
               if op in ("scale", "rot") or (op == "dt" and kid.order < k_max)]
    if not kids:
        G = None
    elif G is None:
        G = sp.gradient_from_hat(g, jet.hat[:jet.levels])
    yield idx, jet, None if G is None else G[0]
    for op, kid in kids:
        # the child keeps one level fewer than its parent; dt and scale~
        # read one level more of the parent
        keep = jet.levels + (op in ("dt", "scale"))
        sub = _walk(kid, apply_field(
            op, Jet.from_hat(g, jet.hat[:keep], jet.t, jet.mu),
            G if op in ("rot", "scale") else None), k_max,
            G[1:] if op == "dt" and op in readers else None)
        if op == readers[-1]:
            G = None
        if kid == kids[-1][1]:
            del jet
        yield from sub


class _Family:
    """Members of one walk held by index, read through jet, stack and
    fields, as commutator_residuals, nonlinearity_f and
    diagnostics.nonlinearity_decay_ratios read them.  walk() fills it.  A
    kept stack is a copy of the yielded slice, so the batch behind it is
    freed."""

    def __init__(self, state: PotentialState, k_max: int, dealias: bool,
                 residual: bool):
        self.state = state
        self.k_max = k_max
        self.dealias = dealias
        self.residual = residual
        self.indices = admissible_indices(k_max)
        self._jets: dict[MultiIndex, Jet] = {}
        self._stacks: dict[MultiIndex, np.ndarray] = {}
        # the root's product spectra, formed once (_nonlinearity_hat)
        self._root_hat = None

    def walk(self, keep=None):
        """Hold each member as _members yields it and yield its index, so
        commutator_residuals(fam, idx) can be called as idx is yielded:
        every sub-index of it is held by then.  When the caller moves on,
        the member's jet stays whole, or, given keep, only its level-0
        coefficients (copied) where keep(idx) is true and nothing
        elsewhere.  The stacks of the members of order < k_max all stay."""
        for idx, jet, stack in _members(self.state, self.k_max,
                                        self.dealias, self.residual):
            self._jets[idx] = jet
            if stack is not None:
                self._stacks[idx] = stack.copy()
            del jet, stack  # the walk frees its own after the last child
            yield idx
            if keep is not None:
                jet = self._jets.pop(idx)
                if keep(idx):
                    self._jets[idx] = Jet.from_hat(
                        jet.grid, jet.hat[:1].copy(), jet.t, jet.mu)
                del jet

    def jet(self, idx: MultiIndex) -> Jet:
        return self._jets[idx]

    def fields(self, idx: MultiIndex) -> tuple[np.ndarray, np.ndarray]:
        """(V^(alpha,a), H^(alpha,a)) at level 0, inverse-transformed on
        each call."""
        return self._jets[idx].pair(0)

    def stack(self, idx: MultiIndex) -> np.ndarray:
        """Derivative stack of U^idx at level 0 (spectral.derivative_stack
        layout), from its coefficients.

        Kept for members of order < k_max, which every sample functional
        reads.  A member of order k_max appears only in the splittings of
        its own index, so its stack is built on each call (6 inverse
        fields) and not kept.
        """
        D = self._stacks.get(idx)
        if D is None:
            D = sp.gradient_from_hat(self.state.grid, self._jets[idx].hat[0])
        return D


class DerivedFamily(_Family):
    """All U^(alpha, a) with alpha + |a| <= k_max for one base state, held.

    The members are what _members yields, each jet kept as built: the
    constructor walks to the end.  The sample functionals
    (diagnostics.sample_record, the inequality ratios) read level 0 alone,
    so a family for them may be built with residual=False; run_simulation
    streams the same walk and holds no family.  commutator_residuals reads
    d_t of every member without differencing and needs residual=True, the
    default.  The levels both depths keep are equal bit for bit.
    stack(idx) is the one home of a member's gradients, kept for the
    members of order < k_max.
    """

    def __init__(self, state: PotentialState, k_max: int = 2,
                 dealias: bool = True, *, residual: bool = True):
        super().__init__(state, k_max, dealias, residual)
        for _ in self.walk():
            pass

    def members(self):
        """The triples _members yields, (idx, jet, stack), in index order;
        the stack is the one held, None for the members of order k_max."""
        for idx in self.indices:
            yield idx, self._jets[idx], self._stacks.get(idx)

    def __len__(self) -> int:
        return len(self.indices)


def derived_family(state: PotentialState, k_max: int = 2,
                   dealias: bool = True, *,
                   residual: bool = True) -> DerivedFamily:
    return DerivedFamily(state, k_max, dealias, residual=residual)


def _splittings(idx: MultiIndex):
    """All ((beta, b), (gamma, c), coefficient) with beta+gamma = alpha,
    b+c = a and coefficient C(alpha, beta) prod C(a_m, b_m)."""
    degrees = (idx.alpha, *idx.a)
    for b in product(*(range(d + 1) for d in degrees)):
        c = [d - e for d, e in zip(degrees, b)]
        yield _index(b), _index(c), prod(map(comb, degrees, b))


# ---------------------------------------------------------------------------
# bilinear nonlinearities of the commuted equations
#
# Commuting a vector field through the equations splits the arguments of
# each quadratic form by Leibniz, so the commuted sources are the base
# forms of dynamics._products summed over the splittings of the index, and
# dynamics._quadratic_hat masks, Riesz-sums and transforms them in one
# forward batch, exactly as for the stepper and base_jet.  The
# plain-derivative forms fij = d_i Va d_j Vb - d_i Ha . d_j Hb are a
# relabelling of the perp-form products: f11 = -f22^perp,
# f12 = f21 = f12^perp and f22 = -f11^perp.

def _nonlinearity_hat(fam: DerivedFamily, idx: MultiIndex
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(f1, ph) of the commuted system at idx as rfft2 coefficients; ph
    holds the masked f11^perp, f12^perp, f22^perp, f2_1, f2_2, f3.  Each
    distinct member's stack is read once.  The root's are formed once per
    family and kept, read-only: its residual and
    diagnostics.nonlinearity_decay_ratios both read them."""
    if idx.order == 0 and fam._root_hat is not None:
        return fam._root_hat
    splits = list(_splittings(idx))
    D = {m: fam.stack(m) for m in {m for s in splits for m in s[:2]}}
    pairs = [(coef, D[left], D[right]) for left, right, coef in splits]
    grid = fam.state.grid
    out = _quadratic_hat(grid, pairs, fam.dealias, _Scratch(grid, 0, 6))
    if idx.order == 0:
        for a in out:
            a.flags.writeable = False
        fam._root_hat = out
    return out


def nonlinearity_f(fam: DerivedFamily, idx: MultiIndex):
    """(f1, f2, f3, fij) for the commuted system at the given index.

    fij is a dict {(i, j): field} of the plain-derivative quadratic forms
    d_i Va d_j Vb - d_i Ha . d_j Hb, f1 = sum_ij R_ij fij with the
    perp-Riesz symbols R_ij = k_i^perp k_j / |k|^2,
    f2_j = sum_l d_l^perp Ha_j d_l Vb and f3 = sum_l d_l^perp Ha_2 d_l Hb_1.
    All are binomial-weighted sums over splittings of the index: one
    batched forward transform of 6 products and one inverse batch of 7
    fields.
    """
    f1h, ph = _nonlinearity_hat(fam, idx)
    out = sp.ifft(np.concatenate((f1h[None], ph)))
    fij = {(1, 1): -out[3], (1, 2): out[2], (2, 1): out[2],
           (2, 2): -out[1]}
    return out[0], out[4:6], out[6], fij


def commutator_residuals(fam: DerivedFamily, idx: MultiIndex
                         ) -> tuple[float, float, float]:
    """L-inf residuals of the three commuted equations at the given index.

    r1: d_t V' - mu lap sum_l C(alpha,l) (-1)^(alpha-l) V^(l,a) - div H' - f1
    r2: d_t H' - grad V' - f2
    r3: div_perp H' - f3
    All vanish at the continuous level; the measured values are pure
    discretization error.  The residuals are formed in coefficients, the
    viscous term folded into d_t V', and come back in one inverse batch
    of 4 fields.  The family must carry the residual level
    (residual=True).
    """
    if not fam.residual:
        raise ValueError("commutator_residuals needs a family built with "
                         "residual=True")
    g = fam.state.grid
    uh = fam.jet(idx).hat
    f1h, ph = _nonlinearity_hat(fam, idx)
    dtV = uh[1, 0]
    if fam.state.mu > 0:
        alpha, a = idx
        visc = sum(comb(alpha, l) * (-1.0) ** (alpha - l)
                   * fam.jet(MultiIndex(l, a)).hat[0, 0]
                   for l in range(alpha + 1))
        dtV = dtV + fam.state.mu * g.k_sq * visc
    Vh, Hh = uh[0, 0], uh[0, 1:]
    r = sp.ifft(np.concatenate((
        (dtV - g.ik[0] * Hh[0] - g.ik[1] * Hh[1] - f1h)[None],   # r1
        uh[1, 1:] - g.ik * Vh - ph[3:5],                        # r2
        (g.ik[0] * Hh[1] - g.ik[1] * Hh[0] - ph[5])[None])))    # r3
    return sp.linf_norm(r[0]), sp.linf_norm(r[1:3]), sp.linf_norm(r[3])

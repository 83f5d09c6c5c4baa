"""Evolved unknowns in potential and primitive form, and the maps between them.

The potential form carries a scalar stream-like potential V and a pair of
potentials H = (H1, H2).  The primitive form carries the velocity v and the
deformation perturbation G (the full deformation gradient is I + G).  They
are related by

    v = grad_perp V,        G[i, j] = d_i^perp H_j,

so v and each column of G (in the first index) are divergence-free by
construction.  Potentials are normalized to zero mean, being defined only
up to constants.
"""

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import spectral as sp
from .grid import Grid

SNAPSHOT_MAGIC = b"VE2D"
SNAPSHOT_VERSION = 1

# L-inf divergence tolerance for accepting primitive states as potential-
# representable; spectrally divergence-free inputs pass with large margin.
ADMISSIBILITY_TOL = 1e-8


def _check_state(grid: Grid, mu: float, fields) -> None:
    """The checks both forms make: each (array, leading shape) of fields
    has that shape over the grid, and mu lies in [0, 1]."""
    if any(a.shape != lead + (grid.n, grid.n) for a, lead in fields):
        raise ValueError("field shapes do not match the grid")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"viscosity must lie in [0, 1], got {mu}")


@dataclass(frozen=True)
class PotentialState:
    """Potential-form unknowns (V, H) at time t with viscosity mu."""

    grid: Grid
    V: np.ndarray        # (n, n)
    H: np.ndarray        # (2, n, n)
    t: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        _check_state(self.grid, self.mu, ((self.V, ()), (self.H, (2,))))


@dataclass(frozen=True)
class PrimitiveState:
    """Primitive-form unknowns (v, G) at time t with viscosity mu."""

    grid: Grid
    v: np.ndarray        # (2, n, n)
    G: np.ndarray        # (2, 2, n, n)
    t: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        _check_state(self.grid, self.mu, ((self.v, (2,)), (self.G, (2, 2))))


@dataclass(frozen=True)
class InitialDataParams:
    """Parameters for constructing small smooth initial data.

    profile is one of "gaussian-bump", "ring", "spectral".  The support
    radius bounds the (numerically) compact support of V0 and must stay
    below box_len/4 so that speed-1 waves remain inside the box over the
    standard run horizon.
    """

    amplitude: float = 0.01
    profile: str = "gaussian-bump"
    support_radius: float | None = None
    seed: int = 0
    mu: float = 0.0

    def __post_init__(self):
        # written so that a NaN fails each comparison
        if not 0.0 <= self.amplitude < np.inf:
            raise ValueError("amplitude must be finite and nonnegative")
        if self.profile not in ("gaussian-bump", "ring", "spectral"):
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.support_radius is not None and not self.support_radius > 0:
            raise ValueError("support_radius must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def velocity_of(grid: Grid, V: np.ndarray) -> np.ndarray:
    """v = grad_perp V = (-d2 V, d1 V); divergence-free by construction."""
    return sp.perp_gradient(grid, V)


def deformation_of(grid: Grid, H: np.ndarray) -> np.ndarray:
    """G with G[i, j] = d_i^perp H_j; each column divergence-free."""
    return np.swapaxes(sp.perp_gradient(grid, H), 0, 1).copy()


def constraint_residual(grid: Grid, H: np.ndarray) -> np.ndarray:
    """Pointwise residual of div_perp H = grad_perp H2 . grad H1."""
    return _constraint_of_gradients(sp.gradient(grid, H))


def _constraint_of_gradients(DH: np.ndarray) -> np.ndarray:
    """constraint_residual from the gradients DH[j] = grad H_j, as in
    D[1:] of a derivative stack."""
    gpH2 = sp.perp(DH[1])
    div_perp = DH[1, 0] - DH[0, 1]
    return div_perp - (gpH2[0] * DH[0, 0] + gpH2[1] * DH[0, 1])


def constraint_norms(grid: Grid, H: np.ndarray) -> tuple[float, float]:
    """(L2, L-inf) norms of the constraint residual."""
    res = constraint_residual(grid, H)
    return sp.l2_norm(grid, res), sp.linf_norm(res)


def make_initial_data(grid: Grid, params: InitialDataParams) -> PotentialState:
    """Build a zero-mean, numerically compactly supported V0 with H0 = 0.

    Profiles are built from Gaussians with sigma = support_radius / 6, so
    V0 falls below 2e-8 of its peak at the support radius and decays
    double-exponentially beyond it, while remaining fully resolved in
    spectral space.  H0 = 0 satisfies the quadratic constraint exactly
    (both sides vanish).
    """
    radius = params.support_radius
    if radius is None:
        radius = grid.box_len / 8.0
    if radius >= grid.box_len / 4.0:
        raise ValueError("support radius must be below box_len/4")

    r = grid.r
    sigma = radius / 6.0
    if params.profile == "gaussian-bump":
        V = np.exp(-(r / sigma) ** 2 / 2.0)
    elif params.profile == "ring":
        V = np.exp(-((r - radius / 2.0) / sigma) ** 2 / 2.0)
    else:  # spectral: random band-limited field windowed to the support
        window = np.exp(-(r / sigma) ** 2 / 2.0)
        V = sp.random_band_limited(grid, params.seed, max_mode=6) * window

    # band-limit to the 2/3-rule mask: products of evolved fields are then
    # alias-free and all spectral identities hold along the trajectory
    V = sp.dealias(grid, V - V.mean())
    peak = np.max(np.abs(V))
    if peak > 0:
        V = V * (params.amplitude / peak)
    H = np.zeros((2, grid.n, grid.n))
    return PotentialState(grid=grid, V=V, H=H, t=0.0, mu=params.mu)


def primitive_of(state: PotentialState) -> PrimitiveState:
    """Map (V, H) to (v, G) = (grad_perp V, grad_perp-columns of H)."""
    return PrimitiveState(
        grid=state.grid,
        v=velocity_of(state.grid, state.V),
        G=deformation_of(state.grid, state.H),
        t=state.t,
        mu=state.mu,
    )


def potentials_of(prim: PrimitiveState) -> PotentialState:
    """Recover zero-mean potentials from an admissible primitive state.

    Requires div v = 0 and div of each G column (first index) = 0 to
    within ADMISSIBILITY_TOL in L-inf; violations raise with the measured
    residual so corrupted inputs fail loudly.
    """
    g = prim.grid
    div_v = sp.linf_norm(sp.divergence(g, prim.v))
    div_G = max(sp.linf_norm(sp.divergence(g, prim.G[:, j])) for j in range(2))
    worst = max(div_v, div_G)
    if worst > ADMISSIBILITY_TOL:
        raise ValueError(
            f"primitive state is not divergence-free: residual {worst:.3e}")
    V = sp.inverse_laplacian(g, sp.perp_divergence(g, prim.v))
    H = np.stack([
        sp.inverse_laplacian(g, sp.perp_divergence(g, prim.G[:, j]))
        for j in range(2)
    ])
    return PotentialState(grid=g, V=V, H=H, t=prim.t, mu=prim.mu)


def write_snapshot(path, state: PotentialState) -> None:
    """Write the bit-exact binary snapshot format.

    Layout: magic "VE2D", version u32, n u32, L f64, t f64, mu f64, then
    V, H1, H2 as row-major little-endian f64 arrays of n^2 entries each.
    """
    g = state.grid
    header = SNAPSHOT_MAGIC + struct.pack(
        "<IIddd", SNAPSHOT_VERSION, g.n, g.box_len, state.t, state.mu)
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in (state.V, state.H[0], state.H[1]):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_snapshot(path) -> PotentialState:
    """Read a snapshot written by write_snapshot; a file shorter or longer
    than its header announces raises ValueError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        header = fh.read(32)
        if len(header) < 32:
            raise ValueError("truncated snapshot")
        version, n, box_len, t, mu = struct.unpack("<IIddd", header)
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        size = 3 * n * n * 8
        # checked before reading: the header's n may claim any size
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < size:
            raise ValueError("truncated snapshot")
        if left > size:
            raise ValueError(f"snapshot has {left - size} bytes after its "
                             f"data")
        data = np.frombuffer(fh.read(size), dtype="<f8")
    V, H1, H2 = (data[i * n * n:(i + 1) * n * n].reshape(n, n).copy()
                 for i in range(3))
    grid = Grid(n, box_len)
    return PotentialState(grid=grid, V=V, H=np.stack([H1, H2]), t=t, mu=mu)

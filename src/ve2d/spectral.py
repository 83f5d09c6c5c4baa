"""FFT-based spectral calculus on a periodic box.

All operators act on real fields sampled on a :class:`~ve2d.grid.Grid` and
return real fields.  Nonlocal operators (inverse Laplacian and the
perp-Riesz multiplier) adopt the zero-mean convention: the k=0 coefficient
of the output is set to zero.
"""

import numpy as np

from .grid import Grid


def fft(f: np.ndarray) -> np.ndarray:
    return np.fft.fft2(f)


def ifft(fh: np.ndarray) -> np.ndarray:
    return np.fft.ifft2(fh).real


def rfft(f: np.ndarray) -> np.ndarray:
    """Half-spectrum (rfft2) coefficients of real fields over the last two
    axes; a stack of fields is one batched transform."""
    return np.fft.rfft2(f)


def irfft(grid: Grid, fh: np.ndarray) -> np.ndarray:
    """Real fields from half-spectrum coefficients; inverse of rfft."""
    return np.fft.irfft2(fh, s=(grid.n, grid.n))


def derivative(grid: Grid, f: np.ndarray, axis: int) -> np.ndarray:
    """Spectral partial derivative along axis 1 or 2."""
    k = grid.k1 if axis == 1 else grid.k2
    return ifft(1j * k * fft(f))


def gradient(grid: Grid, f: np.ndarray) -> np.ndarray:
    """(d1 f, d2 f) stacked along the leading axis."""
    fh = fft(f)
    return np.stack([ifft(1j * grid.k1 * fh), ifft(1j * grid.k2 * fh)])


def perp(g: np.ndarray) -> np.ndarray:
    """(-g2, g1) of gradients stacked along axis -3; exact, so a perp-
    gradient needs no transforms of its own."""
    return np.stack([-g[..., 1, :, :], g[..., 0, :, :]], axis=-3)


def perp_gradient(grid: Grid, f: np.ndarray) -> np.ndarray:
    """grad_perp f = (-d2 f, d1 f)."""
    return perp(gradient(grid, f))


def derivative_stack(grid: Grid, V: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Gradients of (V, H1, H2) as one (3, 2, n, n) stack: D[0] = grad V,
    D[1 + j] = grad H[j]."""
    return np.stack([gradient(grid, f) for f in (V, H[0], H[1])])


def divergence(grid: Grid, vec: np.ndarray) -> np.ndarray:
    return ifft(1j * grid.k1 * fft(vec[0]) + 1j * grid.k2 * fft(vec[1]))


def perp_divergence(grid: Grid, vec: np.ndarray) -> np.ndarray:
    """div_perp v = -d2 v1 + d1 v2 (the scalar curl)."""
    return ifft(-1j * grid.k2 * fft(vec[0]) + 1j * grid.k1 * fft(vec[1]))


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    return ifft(-grid.k_sq * fft(f))


def inverse_laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Solve lap(u) = f spectrally; the mean of f is annihilated."""
    return ifft(-grid.inv_k_sq * fft(f))


def riesz_pp(grid: Grid, i: int, j: int, f: np.ndarray) -> np.ndarray:
    """Zero-order multiplier d_i^perp d_j lap^{-1}, symbol k_i^perp k_j / |k|^2."""
    ki = grid.k1_perp if i == 1 else grid.k2_perp
    kj = grid.k1 if j == 1 else grid.k2
    return ifft(ki * kj * grid.inv_k_sq * fft(f))


def dealias_spectral(grid: Grid, fh: np.ndarray) -> np.ndarray:
    """Zero the modes with max(|m1|,|m2|) > n/3 of a spectral field."""
    return fh * grid.keep_mask


def dealias(grid: Grid, f: np.ndarray) -> np.ndarray:
    """2/3-rule projection of a physical field."""
    return ifft(dealias_spectral(grid, fft(f)))


def product(grid: Grid, a: np.ndarray, b: np.ndarray,
            dealiased: bool) -> np.ndarray:
    """Pointwise product a * b, 2/3-rule projected when dealiased."""
    prod = a * b
    return dealias(grid, prod) if dealiased else prod


def rotation(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Angular derivative x1 d2 f - x2 d1 f (centered coordinates)."""
    g = gradient(grid, f)
    return grid.x1 * g[1] - grid.x2 * g[0]


def radial_scaled_derivative(grid: Grid, f: np.ndarray) -> np.ndarray:
    """r d_r f = x . grad f."""
    g = gradient(grid, f)
    return grid.x1 * g[0] + grid.x2 * g[1]


def leray_project(grid: Grid, vec: np.ndarray) -> np.ndarray:
    """Projection onto divergence-free fields; k=0 component zeroed."""
    vh1, vh2 = fft(vec[0]), fft(vec[1])
    div = grid.k1 * vh1 + grid.k2 * vh2
    vh1 = (vh1 - grid.k1 * div * grid.inv_k_sq) * (grid.k_sq > 0)
    vh2 = (vh2 - grid.k2 * div * grid.inv_k_sq) * (grid.k_sq > 0)
    return np.stack([ifft(vh1), ifft(vh2)])


def l2_norm(grid: Grid, f: np.ndarray) -> float:
    """L2 norm by trapezoidal (= rectangle, periodic) quadrature."""
    return float(np.sqrt(np.sum(f * f) * grid.spacing ** 2))


def l2_norm_sq(grid: Grid, f: np.ndarray) -> float:
    return float(np.sum(f * f) * grid.spacing ** 2)


def linf_norm(f: np.ndarray) -> float:
    return float(np.max(np.abs(f)))


def spectral_l2_norm(grid: Grid, f: np.ndarray) -> float:
    """L2 norm from Fourier coefficients (Parseval)."""
    fh = fft(f)
    return float(np.sqrt(np.sum(np.abs(fh) ** 2)) / grid.n * grid.spacing)


def random_band_limited(grid: Grid, seed: int, max_mode: int = 8,
                        amplitude: float = 1.0) -> np.ndarray:
    """Real random field supported on modes |m1|,|m2| <= max_mode, zero mean."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((grid.n, grid.n))
    m = np.rint(np.fft.fftfreq(grid.n) * grid.n)
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    mask = (np.abs(m1) <= max_mode) & (np.abs(m2) <= max_mode)
    fh = fft(f) * mask
    fh[0, 0] = 0.0
    out = ifft(fh)
    peak = np.max(np.abs(out))
    return out * (amplitude / peak) if peak > 0 else out

"""Spectral operators that the library no longer calls, kept as the tests'
independent references (each transforms its input on its own)."""

import ve2d.spectral as sp


def derivative(grid, f, axis):
    """Spectral partial derivative along axis 1 or 2."""
    return sp.ifft(grid.ik[axis - 1] * sp.fft(f))


def rotation(grid, f):
    """Angular derivative x1 d2 f - x2 d1 f (centered coordinates), of a
    field or of each field of a stack."""
    g = sp.gradient(grid, f)
    return grid.x1 * g[..., 1, :, :] - grid.x2 * g[..., 0, :, :]


def laplacian(grid, f):
    return sp.ifft(-grid.k_sq * sp.fft(f))


def riesz_pp(grid, i, j, f):
    """Zero-order multiplier d_i^perp d_j lap^{-1}, symbol
    k_i^perp k_j / |k|^2."""
    return sp.ifft(grid.riesz[i - 1, j - 1] * sp.fft(f))


def radial_scaled_derivative(grid, f):
    """r d_r f = x . grad f, of a field or of each field of a stack."""
    g = sp.gradient(grid, f)
    return grid.x1 * g[..., 0, :, :] + grid.x2 * g[..., 1, :, :]


def leray_project(grid, vec):
    """Projection onto divergence-free fields; k=0 component zeroed."""
    return sp.ifft(sp.leray_hat(grid, sp.fft(vec)))

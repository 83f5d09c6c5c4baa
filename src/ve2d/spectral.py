"""FFT-based spectral calculus on a periodic box.

Operators act on real fields sampled on a :class:`~ve2d.grid.Grid` and
return real fields; the *_hat helpers act on coefficients instead, for
callers that keep their fields spectral (the stepper and the derived
family).  The one transform pair is fft/ifft, the rfft2 of the last two
axes and its inverse, whose coefficients share the half-spectrum layout
of the Grid multipliers.  Each is written as the two 1-D passes that
numpy's rfft2 and irfftn make, so every value is bit for bit theirs, but
only the work a caller keeps is done: under the 2/3 rule the forward
column pass runs on the kept columns alone (_fft_masked), and the inverse
column pass of each field goes into one buffer per call instead of a
temporary per field.  Both write into an out buffer when one is given, so
a caller that keeps buffers (the stepper's stages) transforms into them.
An operator on a stack of fields calls the pair once for the whole stack.
The nonlocal inverse Laplacian adopts the zero-mean convention: the k=0
coefficient of the output is set to zero.
"""

import numpy as np

from .grid import Grid


def _fft(f: np.ndarray, out: np.ndarray | None, columns: int) -> np.ndarray:
    """fft of f with the column pass on the first `columns` columns only;
    the other columns of out hold row-pass values, for the caller to zero.
    One rfft row pass of the whole stack into out, then one fft column
    pass in place: the passes rfft2 makes, in its order."""
    if out is None:
        out = np.empty(f.shape[:-1] + (f.shape[-1] // 2 + 1,), dtype=complex)
    np.fft.rfft(f, axis=-1, out=out)
    kept = out[..., :columns]
    np.fft.fft(kept, axis=-2, out=kept)
    return out


def fft(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """rfft2 coefficients of real fields over the last two axes, in the
    layout of the Grid multipliers, written into out when it is given and
    returned.  A stack of fields takes one numpy call per pass: the row
    pass writes out and the column pass works in place, so no
    intermediate is allocated."""
    return _fft(f, out, f.shape[-1] // 2 + 1)


def ifft(fh: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Real fields from rfft2 coefficients, into out as in fft; inverse of
    fft (n is even), bit-identical to irfftn over the last two axes.

    Field by field, the ifft column pass goes into one (n, n//2+1) buffer
    that the call reuses, and the irfft row pass from it into out; irfftn
    allocates that buffer anew for every field.  A batched column pass
    would need a buffer the size of the whole stack, which at n = 256 no
    longer fits in cache, and it measured slower from 6 fields up.
    """
    n = 2 * (fh.shape[-1] - 1)
    if out is None:
        out = np.empty(fh.shape[:-1] + (n,))
    columns = np.empty(fh.shape[-2:], dtype=complex)
    for i in np.ndindex(fh.shape[:-2]):
        np.fft.ifft(fh[i], axis=-2, out=columns)
        np.fft.irfft(columns, n, axis=-1, out=out[i])
    return out


def gradient_from_hat(grid: Grid, fh: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Physical gradients of the fields with coefficients fh, stacked along
    axis -3 as in gradient, written into out when it is given; one inverse
    transform."""
    return ifft(grid.ik * fh[..., None, :, :], out)


def gradient(grid: Grid, f: np.ndarray) -> np.ndarray:
    """(d1 f, d2 f) of a field, or of each field of a stack, stacked along
    axis -3: the result has shape f.shape[:-2] + (2, n, n)."""
    return gradient_from_hat(grid, fft(f))


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
    return gradient(grid, np.concatenate((V[None], H)))


def divergence(grid: Grid, vec: np.ndarray) -> np.ndarray:
    vh = fft(vec)
    return ifft(grid.ik[0] * vh[0] + grid.ik[1] * vh[1])


def perp_divergence(grid: Grid, vec: np.ndarray) -> np.ndarray:
    """div_perp v = -d2 v1 + d1 v2 (the scalar curl)."""
    vh = fft(vec)
    return ifft(-grid.ik[1] * vh[0] + grid.ik[0] * vh[1])


def inverse_laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Solve lap(u) = f spectrally; the mean of f is annihilated."""
    return ifft(-grid.inv_k_sq * fft(f))


def _fft_masked(grid: Grid, f: np.ndarray, dealias: bool,
                out: np.ndarray | None = None) -> np.ndarray:
    """fft of f (into out when given) with, when dealias is set, the 2/3
    rule applied: the modes with max(|m1|,|m2|) > n/3 zeroed.  The column
    pass then runs on the Grid.dealias_cutoff + 1 kept columns only, and
    the rows of m1 past the cutoff and the other columns are zeroed as two
    slice assignments.  The one home of the rule, for dealias and for the
    product spectra of the steppers and the jets."""
    if not dealias:
        return fft(f, out)
    c = grid.dealias_cutoff
    fh = _fft(f, out, c + 1)
    fh[..., c + 1:grid.n - c, :] = 0.0
    fh[..., c + 1:] = 0.0
    return fh


def dealias(grid: Grid, f: np.ndarray) -> np.ndarray:
    """2/3-rule projection of a physical field."""
    return ifft(_fft_masked(grid, f, True))


def leray_hat(grid: Grid, vh: np.ndarray) -> np.ndarray:
    """Projection of the coefficients (2, n, n//2+1) of a vector field onto
    divergence-free fields; k=0 component zeroed."""
    div = grid.ik[0] * vh[0] + grid.ik[1] * vh[1]
    return (vh + grid.ik * div * grid.inv_k_sq) * (grid.k_sq > 0)


def l2_norm(grid: Grid, f: np.ndarray) -> float:
    """L2 norm by trapezoidal (= rectangle, periodic) quadrature."""
    return float(np.sqrt(np.sum(f * f) * grid.spacing ** 2))


def l2_norm_sq(grid: Grid, f: np.ndarray) -> float:
    return float(np.sum(f * f) * grid.spacing ** 2)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) of two arrays of one shape, with no product temporary:
    np.einsum, single-threaded, where np.dot would hand an array of more
    than 10000 elements to OpenBLAS threads, whose spinning helper slowed
    the elementwise passes around it (2-vCPU Xeon)."""
    return float(np.einsum("i,i->", a.reshape(-1), b.reshape(-1)))


def l2_norm_sq_hat(grid: Grid, fh: np.ndarray) -> float:
    """l2_norm_sq of the fields with rfft2 coefficients fh, by Parseval:
    each column 0 < m2 < n/2 of the half spectrum stands for two conjugate
    modes, so it has weight 2.  The sums are dots of the float view (re,
    im interleaved) with itself, with no squared temporary: twice the
    whole, less the columns m2 = 0 and n/2.  fh must be contiguous along
    its last axis."""
    p = fh.view(float)
    edges = p[..., [0, 1, -2, -1]]
    s = 2.0 * _dot(p, p) - _dot(edges, edges)
    return s * (grid.spacing / grid.n) ** 2


def linf_norm(f: np.ndarray) -> float:
    return float(np.max(np.abs(f)))


def random_band_limited(grid: Grid, seed: int, max_mode: int = 8,
                        amplitude: float = 1.0) -> np.ndarray:
    """Real random field supported on modes |m1|,|m2| <= max_mode, zero mean."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((grid.n, grid.n))
    m1 = np.rint(np.fft.fftfreq(grid.n) * grid.n)
    m2 = np.rint(np.fft.rfftfreq(grid.n) * grid.n)
    mask = (np.abs(m1)[:, None] <= max_mode) & (np.abs(m2) <= max_mode)
    fh = fft(f) * mask
    fh[0, 0] = 0.0
    out = ifft(fh)
    peak = np.max(np.abs(out))
    return out * (amplitude / peak) if peak > 0 else out

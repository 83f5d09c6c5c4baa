"""Periodic grid for a centered 2D box, with its wavenumbers and spectral
multipliers in the rfft2 half-spectrum layout."""

import numpy as np


class Grid:
    """Uniform n x n periodic grid on [-L/2, L/2)^2.

    Axis 0 is x1, axis 1 is x2 (row-major, 'ij' indexing).  Wavenumbers
    are k_j = 2*pi*m_j/L with m_j integer.  Every spectral array (k1, k2,
    k1_perp, k2_perp, k_sq, inv_k_sq, keep_mask, the ik stack and the Riesz
    symbols) is built once, in the rfft2 half-spectrum layout of shape
    (n, n//2 + 1): m_1 in [-n/2, n/2) along axis 0, m_2 in [0, n/2] along
    axis 1.  dealias_cutoff = n // 3 is the largest |m_j| the 2/3 rule
    keeps; keep_mask is derived from it.
    """

    def __init__(self, n: int, box_len: float):
        if n < 8 or n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {n}")
        if not 0 < box_len < np.inf:  # a NaN fails the check too
            raise ValueError(
                f"box length must be positive and finite, got {box_len}")
        self.n = int(n)
        self.box_len = float(box_len)
        self.spacing = self.box_len / self.n

        axis = (np.arange(self.n) - self.n // 2) * self.spacing
        self.x1, self.x2 = np.meshgrid(axis, axis, indexing="ij")
        self.r = np.hypot(self.x1, self.x2)

        k_axis = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
        k_half = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.spacing)
        # zero the Nyquist mode: odd-order derivatives of real fields have
        # no Hermitian-consistent value there, and zeroing it makes all
        # multiplier compositions exact identities
        k_axis[self.n // 2] = 0.0
        k_half[self.n // 2] = 0.0
        self.k1, self.k2 = np.meshgrid(k_axis, k_half, indexing="ij")
        # k_perp = (-k2, k1)
        self.k1_perp = -self.k2
        self.k2_perp = self.k1
        self.k_sq = self.k1 ** 2 + self.k2 ** 2
        inv = np.zeros_like(self.k_sq)
        nonzero = self.k_sq > 0.0
        inv[nonzero] = 1.0 / self.k_sq[nonzero]
        self.inv_k_sq = inv
        self.ik = 1j * np.stack([self.k1, self.k2])

        m1, m2 = np.meshgrid(np.rint(np.fft.fftfreq(self.n) * self.n),
                             np.rint(np.fft.rfftfreq(self.n) * self.n),
                             indexing="ij")
        # 2/3 rule: keep modes with max(|m1|, |m2|) <= n/3, that is
        # <= dealias_cutoff, since the m_j are integers
        self.dealias_cutoff = self.n // 3
        self.keep_mask = ((np.abs(m1) <= self.dealias_cutoff)
                          & (np.abs(m2) <= self.dealias_cutoff))

        # riesz[i, j]: symbol k_i^perp k_j / |k|^2 of riesz_pp(i+1, j+1).
        # For a symmetric f_ij, f1 = sum_ij riesz_pp(i, j, f_ij) needs only
        # f11, f12 and f22, with the (1,2) and (2,1) symbols summed.
        kp = np.stack([self.k1_perp, self.k2_perp])
        self.riesz = kp[:, None] * np.stack([self.k1, self.k2]) * inv
        self.f1_riesz = np.stack([self.riesz[0, 0],
                                  self.riesz[0, 1] + self.riesz[1, 0],
                                  self.riesz[1, 1]])
        # every caller shares these arrays
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    def zeros(self) -> np.ndarray:
        return np.zeros((self.n, self.n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.n == other.n
            and self.box_len == other.box_len
        )

    def __hash__(self):
        return hash((self.n, self.box_len))

    def __repr__(self) -> str:
        return f"Grid(n={self.n}, box_len={self.box_len})"

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ve2d.spectral as sp
from ve2d.grid import Grid
from spectral_ops import (derivative, laplacian, leray_project,
                          radial_scaled_derivative, riesz_pp, rotation)

GRID = Grid(32, 16.0)


def spectral_l2_norm(grid, f):
    """L2 norm from the rfft2 coefficients (Parseval); each column
    0 < m2 < n/2 also stands for its conjugate column -m2."""
    fh = sp.fft(f)
    weight = np.full(fh.shape[-1], 2.0)
    weight[0] = weight[-1] = 1.0
    return float(np.sqrt(np.sum(weight * np.abs(fh) ** 2))
                 / grid.n * grid.spacing)


def trig_field(grid, m1, m2):
    w = 2 * np.pi / grid.box_len
    return np.sin(w * m1 * grid.x1) * np.cos(w * m2 * grid.x2)


class TestGrid:
    def test_basic_geometry(self):
        g = Grid(32, 16.0)
        assert g.spacing == pytest.approx(0.5)
        assert g.x1.shape == (32, 32)
        assert np.all(g.r >= 0)
        # centered box: origin is a grid point
        assert np.min(g.r) == 0.0

    def test_nyquist_mode_removed(self):
        g = Grid(32, 16.0)
        assert g.k1[g.n // 2, 0] == 0.0
        assert g.k2[0, g.n // 2] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(7, 16.0)
        with pytest.raises(ValueError):
            Grid(32, -1.0)

    @pytest.mark.parametrize("box_len", [float("nan"), float("inf")])
    def test_non_finite_box_rejected(self, box_len):
        with pytest.raises(ValueError, match="positive and finite"):
            Grid(8, box_len)

    def test_equality_and_hash(self):
        assert Grid(32, 16.0) == Grid(32, 16.0)
        assert Grid(32, 16.0) != Grid(64, 16.0)
        assert hash(Grid(32, 16.0)) == hash(Grid(32, 16.0))


class TestTransformPair:
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_out_is_written_and_returned(self, lead):
        g = GRID
        f = np.random.default_rng(2).standard_normal(lead + (g.n, g.n))
        fh = sp.fft(f)
        out = np.empty_like(fh)
        assert sp.fft(f, out=out) is out
        assert np.array_equal(out, fh)
        back = np.empty_like(f)
        assert sp.ifft(fh, out=back) is back
        assert np.array_equal(back, sp.ifft(fh))
        # the inverse is the transform numpy's irfft2 makes
        assert np.array_equal(back, np.fft.irfft2(fh))


    @pytest.mark.parametrize("n", [8, 10, 30, 32, 96, 256])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_bit_identical_to_numpy(self, n, lead):
        # the passes are numpy's own, so every value is rfft2's or
        # irfftn's, and the masked forward's is rfft2's then masked; an out
        # of NaNs shows any entry left unwritten
        g = Grid(n, 16.0)
        f = np.random.default_rng(n).standard_normal(lead + (n, n))
        fh = np.fft.rfft2(f)
        c = g.dealias_cutoff
        masked = fh.copy()
        masked[..., c + 1:n - c, :] = 0.0
        masked[..., c + 1:] = 0.0
        cases = [(sp.fft, f, fh),
                 (lambda a, out: sp._fft_masked(g, a, False, out), f, fh),
                 (lambda a, out: sp._fft_masked(g, a, True, out), f, masked),
                 (sp.ifft, fh, np.fft.irfftn(fh, axes=(-2, -1)))]
        for transform, a, expected in cases:
            before = a.copy()
            for out in (None, np.full_like(expected, np.nan)):
                got = transform(a, out)
                assert np.array_equal(got, expected)
                assert out is None or got is out
                assert np.array_equal(a, before)

class TestKeptBand:
    """The block the 2/3 rule keeps and the whole half spectrum are two
    instances of one band: the multipliers a kernel reads and a
    transform pair."""

    @pytest.mark.parametrize("n", [8, 32, 48, 64, 256])
    def test_kept_pair_is_the_whole_pair_on_the_block(self, n):
        g = Grid(n, 16.0)
        c = g.dealias_cutoff
        rows = np.r_[:c + 1, n - c:n]
        band = sp._Band(g, kept=True)
        f = np.random.default_rng(n).standard_normal((2, 3, n, n))
        masked = sp._fft_masked(g, f, True)
        back = sp.ifft(masked)          # masked holds zeros off the block
        for out in (None, np.full((2, 3, 2 * c + 1, c + 1), np.nan,
                                  dtype=complex)):
            fh = band.fft_masked(f, True, out)
            assert out is None or fh is out
            assert np.array_equal(fh, masked[..., rows, :c + 1])
        for out in (None, np.full_like(f, np.nan)):
            got = band.ifft(fh, out)
            assert out is None or got is out
            assert np.array_equal(got, back)
        for name in ("ik", "k_sq", "f1_riesz"):
            assert np.array_equal(getattr(band, name),
                                  getattr(g, name)[..., rows, :c + 1])

    def test_whole_band_is_the_grid_and_the_pair(self, grid32):
        band = sp._Band(grid32)
        for name in ("ik", "k_sq", "f1_riesz"):
            assert getattr(band, name) is getattr(grid32, name)
        assert band.ifft is sp.ifft
        assert band.fft_masked.func is sp._fft_masked
        assert band.fft_masked.args == (grid32,)

    def test_kept_block_holds_masked_modes_only(self, grid32):
        f = np.zeros((grid32.n, grid32.n))
        with pytest.raises(ValueError, match="2/3-rule modes only"):
            sp._Band(grid32, kept=True).fft_masked(f, False)

    def test_kept_column_passes_pruned(self, grid32, transforms):
        # at n = 32 the block is m2 <= 10: each field's column pass runs
        # on 11 of the 17 columns, both ways
        band = sp._Band(grid32, kept=True)
        f = np.random.default_rng(4).standard_normal((3, grid32.n, grid32.n))
        fh = band.fft_masked(f, True)
        band.ifft(fh)
        assert transforms == {"rfft": 3, "irfft": 3}
        assert transforms.columns == {"fft": 33, "ifft": 33}


class TestDerivatives:
    def test_derivative_matches_analytic(self):
        g = GRID
        w = 2 * np.pi / g.box_len
        f = trig_field(g, 3, 2)
        d1 = 3 * w * np.cos(3 * w * g.x1) * np.cos(2 * w * g.x2)
        d2 = -2 * w * np.sin(3 * w * g.x1) * np.sin(2 * w * g.x2)
        assert sp.linf_norm(derivative(g, f, 1) - d1) < 1e-12
        assert sp.linf_norm(derivative(g, f, 2) - d2) < 1e-12

    def test_gradient_and_perp_gradient(self):
        g = GRID
        f = trig_field(g, 2, 5)
        grad = sp.gradient(g, f)
        perp = sp.perp_gradient(g, f)
        assert sp.linf_norm(perp[0] + grad[1]) < 1e-13
        assert sp.linf_norm(perp[1] - grad[0]) < 1e-13

    def test_second_order_compositions(self):
        g = GRID
        f = trig_field(g, 4, 1) + trig_field(g, 1, 3)
        lap = laplacian(g, f)
        assert sp.linf_norm(sp.divergence(g, sp.gradient(g, f)) - lap) < 1e-12
        assert sp.linf_norm(
            sp.perp_divergence(g, sp.perp_gradient(g, f)) - lap) < 1e-12

    def test_perp_gradient_orthogonal_to_gradient(self):
        g = GRID
        f = sp.random_band_limited(g, seed=3)
        grad = sp.gradient(g, f)
        perp = sp.perp_gradient(g, f)
        # perp-gradient flow is divergence free and tangent to level sets
        assert sp.linf_norm(sp.divergence(g, perp)) < 1e-12
        dot = grad[0] * perp[0] + grad[1] * perp[1]
        assert sp.linf_norm(dot) < 1e-12

    def test_inverse_laplacian_round_trip(self):
        g = GRID
        f = sp.random_band_limited(g, seed=7)
        u = sp.inverse_laplacian(g, f)
        assert abs(u.mean()) < 1e-15
        assert sp.linf_norm(laplacian(g, u) - (f - f.mean())) < 1e-12

    def test_rotation_kills_radial_fields(self):
        # needs a gaussian that is both spectrally resolved and decayed
        # to machine precision at the box edge
        g = Grid(64, 32.0)
        f = np.exp(-(g.r / 3.0) ** 2)
        assert sp.linf_norm(rotation(g, f)) < 1e-10

    def test_rotation_matches_analytic(self):
        # (x1 d2 - x2 d1) applied to x1 b(r) gives -x2 b(r)
        g = Grid(64, 32.0)
        bump = np.exp(-(g.r / 3.0) ** 2)
        expect = -g.x2 * bump
        assert sp.linf_norm(rotation(g, g.x1 * bump) - expect) < 1e-9

    def test_radial_scaled_derivative_on_gaussian(self):
        g = Grid(64, 32.0)
        f = np.exp(-(g.r / 3.0) ** 2)
        expect = -(2.0 / 9.0) * g.r ** 2 * f
        assert sp.linf_norm(radial_scaled_derivative(g, f) - expect) < 1e-9


class TestRiesz:
    def test_trace_vanishes(self):
        # sum_i k_i^perp k_i = -k2 k1 + k1 k2 = 0
        g = GRID
        f = sp.random_band_limited(g, seed=12)
        trace = riesz_pp(g, 1, 1, f) + riesz_pp(g, 2, 2, f)
        assert sp.linf_norm(trace) < 1e-13

    def test_agrees_with_derivative_composition(self):
        # the (1, 2) entry is d_1^perp d_2 lap^{-1} = -d_2 d_2 lap^{-1}
        g = GRID
        f = sp.random_band_limited(g, seed=13)
        u = sp.inverse_laplacian(g, f)
        expect = -derivative(g, derivative(g, u, 2), 2)
        got = riesz_pp(g, 1, 2, f)
        assert sp.linf_norm(got - expect) < 1e-12

    def test_bounded_on_l2(self):
        # zero-order multiplier: never amplifies the spectral l2 norm
        g = GRID
        for seed in (1, 2, 3):
            f = sp.random_band_limited(g, seed=seed)
            for i in (1, 2):
                for j in (1, 2):
                    out = riesz_pp(g, i, j, f)
                    assert sp.l2_norm(g, out) <= sp.l2_norm(g, f) * (1 + 1e-12)


class TestDealias:
    def test_idempotent_and_projection(self):
        g = GRID
        rng = np.random.default_rng(0)
        f = rng.standard_normal((g.n, g.n))
        once = sp.dealias(g, f)
        assert sp.linf_norm(sp.dealias(g, once) - once) < 1e-14

    def test_band_limited_fields_unchanged(self):
        g = GRID
        f = sp.random_band_limited(g, seed=4)
        assert sp.linf_norm(sp.dealias(g, f) - f) < 1e-14

    def test_high_modes_removed(self):
        g = GRID
        w = 2 * np.pi / g.box_len
        m = g.n // 2 - 2  # above the two-thirds cutoff
        f = np.cos(w * m * g.x1)
        assert sp.linf_norm(sp.dealias(g, f)) < 1e-13

    # n/3 is an integer for 12 and 48, not for 8, 32 and 96
    @pytest.mark.parametrize("n", [8, 12, 32, 48, 96])
    def test_one_masked_forward(self, n):
        # dealias and the product spectra of both steppers apply the rule
        # through _fft_masked, whose slices zero what keep_mask zeroes
        g = Grid(n, 16.0)
        m1 = np.abs(np.fft.fftfreq(n) * n)[:, None]
        m2 = np.abs(np.fft.rfftfreq(n) * n)
        assert np.array_equal(g.keep_mask, np.maximum(m1, m2) <= n / 3.0)
        f = np.random.default_rng(1).standard_normal((3, g.n, g.n))
        assert np.array_equal(sp._fft_masked(g, f, False), sp.fft(f))
        fh = sp._fft_masked(g, f, True)
        assert np.array_equal(fh, sp.fft(f) * g.keep_mask)
        assert np.array_equal(sp.dealias(g, f[0]), sp.ifft(fh[0]))


    def test_masked_column_pass_pruned(self, grid32, transforms):
        # at n = 32 the rule keeps the columns m2 <= 10: the masked forward
        # runs its column pass on 11 of the 17, the plain one on all
        f = np.random.default_rng(3).standard_normal((grid32.n, grid32.n))
        sp._fft_masked(grid32, f, True)
        assert transforms == {"rfft": 1}
        assert transforms.columns == {"fft": 11}
        transforms.clear()
        sp.fft(f)
        assert transforms == {"rfft": 1}
        assert transforms.columns == {"fft": 17}

class TestLeray:
    def test_output_divergence_free(self):
        g = GRID
        rng = np.random.default_rng(5)
        vec = np.stack([sp.random_band_limited(g, seed=s) for s in (20, 21)])
        proj = leray_project(g, vec)
        assert sp.linf_norm(sp.divergence(g, proj)) < 1e-11

    def test_idempotent_and_fixes_divergence_free(self):
        g = GRID
        f = sp.random_band_limited(g, seed=22)
        vec = sp.perp_gradient(g, f)
        assert sp.linf_norm(leray_project(g, vec) - vec) < 1e-12


class TestNorms:
    def test_l2_matches_quadrature(self):
        g = GRID
        f = trig_field(g, 3, 4)
        # mean of sin^2 cos^2 over the torus is 1/4
        expect = np.sqrt(0.25 * g.box_len ** 2)
        assert sp.l2_norm(g, f) == pytest.approx(expect, rel=1e-12)

    def test_parseval(self):
        g = GRID
        f = sp.random_band_limited(g, seed=30)
        assert spectral_l2_norm(g, f) == pytest.approx(
            sp.l2_norm(g, f), rel=1e-12)

    def test_linf(self):
        f = np.array([[1.0, -3.5], [2.0, 0.0]])
        assert sp.linf_norm(f) == 3.5


class TestRandomBandLimited:
    def test_properties(self):
        g = GRID
        f = sp.random_band_limited(g, seed=42)
        assert abs(f.mean()) < 1e-14
        assert sp.linf_norm(f) == pytest.approx(1.0)
        assert sp.linf_norm(sp.dealias(g, f) - f) < 1e-13

    def test_deterministic(self):
        g = GRID
        a = sp.random_band_limited(g, seed=9)
        b = sp.random_band_limited(g, seed=9)
        assert np.array_equal(a, b)
        c = sp.random_band_limited(g, seed=10)
        assert not np.array_equal(a, c)


@settings(max_examples=25, deadline=None)
@given(s1=st.integers(0, 1000), s2=st.integers(0, 1000),
       axis=st.sampled_from([1, 2]))
def test_derivative_is_linear(s1, s2, axis):
    g = GRID
    f = sp.random_band_limited(g, seed=s1)
    h = sp.random_band_limited(g, seed=s2)
    lhs = derivative(g, f + 2.0 * h, axis)
    rhs = derivative(g, f, axis) + 2.0 * derivative(g, h, axis)
    assert sp.linf_norm(lhs - rhs) < 1e-11


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000))
def test_derivatives_commute(seed):
    g = GRID
    f = sp.random_band_limited(g, seed=seed)
    d12 = derivative(g, derivative(g, f, 1), 2)
    d21 = derivative(g, derivative(g, f, 2), 1)
    assert sp.linf_norm(d12 - d21) < 1e-11

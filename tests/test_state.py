import re
import struct

import numpy as np
import pytest

import ve2d.spectral as sp
from ve2d.grid import Grid
from ve2d.state import (SNAPSHOT_MAGIC, SNAPSHOT_VERSION, InitialDataParams,
                        PotentialState, PrimitiveState, constraint_norms,
                        constraint_residual, deformation_of,
                        make_initial_data, potentials_of, primitive_of,
                        read_snapshot, velocity_of, write_snapshot)
from spectral_ops import derivative


def initial_seminorms(state):
    """L2 seminorms of (V, H) through second derivatives."""
    g = state.grid
    fields = [state.V, state.H[0], state.H[1]]
    out = {"L2": np.sqrt(sum(sp.l2_norm_sq(g, f) for f in fields))}
    grads = [sp.gradient(g, f) for f in fields]
    out["grad_L2"] = np.sqrt(sum(sp.l2_norm_sq(g, gr) for gr in grads))
    out["grad2_L2"] = np.sqrt(sum(
        sp.l2_norm_sq(g, derivative(g, gr[i], axis=j + 1))
        for gr in grads for i in range(2) for j in range(2)))
    return {k: float(v) for k, v in out.items()}


class TestStateValidation:
    def test_shape_mismatch_rejected(self, grid32):
        V = np.zeros((grid32.n, grid32.n))
        with pytest.raises(ValueError):
            PotentialState(grid32, V, np.zeros((3, grid32.n, grid32.n)))
        with pytest.raises(ValueError):
            PotentialState(grid32, V[:-1], np.zeros((2, grid32.n, grid32.n)))

    def test_viscosity_range(self, grid32):
        V = np.zeros((grid32.n, grid32.n))
        H = np.zeros((2, grid32.n, grid32.n))
        with pytest.raises(ValueError):
            PotentialState(grid32, V, H, mu=-0.1)
        with pytest.raises(ValueError):
            PotentialState(grid32, V, H, mu=1.5)

    @pytest.mark.parametrize("bad", [
        {"v": np.zeros((32, 32))}, {"v": np.zeros((2, 32, 31))},
        {"G": np.zeros((4, 32, 32))}, {"G": np.zeros((2, 2, 16, 16))},
        {"mu": -0.1}, {"mu": 1.5}, {"mu": float("nan")},
        {"t": float("nan")}, {"t": float("inf")}, {"t": -float("inf")}],
        ids=["v_scalar", "v_short", "G_flat", "G_coarse", "mu_negative",
             "mu_above_1", "mu_nan", "t_nan", "t_inf", "t_minus_inf"])
    def test_primitive_state_checked(self, grid32, bad):
        fields = {"v": np.zeros((2, 32, 32)), "G": np.zeros((2, 2, 32, 32))}
        PrimitiveState(grid32, **fields, mu=0.5)
        with pytest.raises(ValueError) as exc:
            PrimitiveState(grid32, **{**fields, "mu": 0.5, **bad})
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"),
                                   -float("inf")])
    def test_potential_state_rejects_non_finite_t(self, grid32, t):
        # a non-finite t never ends a trajectory loop: t + dt == t
        V = np.zeros((grid32.n, grid32.n))
        H = np.zeros((2, grid32.n, grid32.n))
        with pytest.raises(ValueError, match="t must be finite") as exc:
            PotentialState(grid32, V, H, t=t)
        assert "\n" not in str(exc.value)


class TestInitialData:
    @pytest.mark.parametrize("profile", ["gaussian-bump", "ring", "spectral"])
    def test_profiles(self, grid64, profile):
        st = make_initial_data(
            grid64, InitialDataParams(amplitude=0.02, profile=profile))
        assert sp.linf_norm(st.V) == pytest.approx(0.02, rel=1e-12)
        assert abs(st.V.mean()) < 1e-16
        assert np.all(st.H == 0.0)
        # dealiasing at construction keeps the whole trajectory band limited
        assert sp.linf_norm(sp.dealias(grid64, st.V) - st.V) < 1e-16

    def test_deterministic_in_seed(self, grid64):
        a = make_initial_data(grid64, InitialDataParams(seed=5,
                                                        profile="spectral"))
        b = make_initial_data(grid64, InitialDataParams(seed=5,
                                                        profile="spectral"))
        assert np.array_equal(a.V, b.V)

    def test_support_radius_bounded(self, grid64):
        with pytest.raises(ValueError):
            make_initial_data(grid64, InitialDataParams(
                support_radius=grid64.box_len / 2))

    def test_localized_near_support_radius(self):
        # resolution must cover the bump width for the tails to be clean
        g = Grid(128, 32.0)
        radius = 6.0
        st = make_initial_data(g, InitialDataParams(
            amplitude=1.0, support_radius=radius))
        inside = np.abs(st.V[g.r <= radius]).max()
        # zero-mean normalization leaves a constant offset outside the
        # bump; only the variation there matters
        outside = np.ptp(st.V[g.r > 2 * radius])
        assert outside < 1e-8 * inside

    def test_seminorms_positive(self, small_state):
        sem = initial_seminorms(small_state)
        assert set(sem) == {"L2", "grad_L2", "grad2_L2"}
        assert all(v > 0 for v in sem.values())


class TestKinematics:
    def test_velocity_divergence_free(self, grid64):
        V = sp.random_band_limited(grid64, seed=2)
        v = velocity_of(grid64, V)
        assert sp.linf_norm(sp.divergence(grid64, v)) < 1e-12

    def test_deformation_columns_divergence_free(self, grid64):
        H = np.stack([sp.random_band_limited(grid64, seed=s) for s in (3, 4)])
        G = deformation_of(grid64, H)
        for j in range(2):
            assert sp.linf_norm(sp.divergence(grid64, G[:, j])) < 1e-12

    def test_constraint_residual_fd_oracle(self, grid32):
        # compare the spectral residual against a centered finite difference
        g = Grid(128, 16.0)
        H = 0.05 * np.stack([sp.random_band_limited(g, seed=s, max_mode=3)
                             for s in (6, 7)])

        def fd(f, axis):
            return ((np.roll(f, -1, axis=axis - 1)
                     - np.roll(f, 1, axis=axis - 1)) / (2 * g.spacing))

        perp_div = -fd(H[0], 2) + fd(H[1], 1)
        rhs = (-fd(H[1], 2) * fd(H[0], 1) + fd(H[1], 1) * fd(H[0], 2))
        expected = perp_div - rhs
        got = constraint_residual(g, H)
        assert sp.linf_norm(got - expected) < 1e-3
        assert sp.linf_norm(expected) > 1e-2  # the oracle is not trivial

    def test_constraint_zero_for_zero_h(self, grid64):
        H = np.zeros((2, grid64.n, grid64.n))
        l2, linf = constraint_norms(grid64, H)
        assert l2 == 0.0 and linf == 0.0


class TestFormulationRoundTrip:
    def test_primitive_of_round_trip(self, evolved_state):
        prim = primitive_of(evolved_state)
        back = potentials_of(prim)
        assert sp.linf_norm(back.V - (evolved_state.V
                                      - evolved_state.V.mean())) < 1e-12
        hm = evolved_state.H.mean(axis=(1, 2))[:, None, None]
        assert sp.linf_norm(back.H - (evolved_state.H - hm)) < 1e-12
        assert back.t == evolved_state.t
        assert back.mu == evolved_state.mu

    def test_potentials_of_rejects_compressible_velocity(self, grid64):
        v = np.stack([sp.random_band_limited(grid64, seed=s) for s in (8, 9)])
        G = np.zeros((2, 2, grid64.n, grid64.n))
        with pytest.raises(ValueError):
            potentials_of(PrimitiveState(grid64, v, G, t=0.0, mu=0.0))

    def test_potentials_of_rejects_a_mean(self, grid64):
        # a constant v or G column is divergence-free but is no
        # grad_perp of a periodic potential: it would be dropped
        n = grid64.n
        v = np.zeros((2, n, n))
        v[0] = 1.0
        G = np.zeros((2, 2, n, n))
        G[0, 1] = 0.5
        for v_, G_, mean in ((v, 0 * G, "1.000e+00"),
                             (0 * v, G, "5.000e-01")):
            with pytest.raises(ValueError, match=f"mean.* {re.escape(mean)}"):
                potentials_of(PrimitiveState(grid64, v_, G_))


class TestSnapshots:
    def test_round_trip_exact(self, evolved_state_viscous, tmp_path):
        path = tmp_path / "state.snap"
        write_snapshot(path, evolved_state_viscous)
        back = read_snapshot(path)
        assert back.grid == evolved_state_viscous.grid
        assert back.t == evolved_state_viscous.t
        assert back.mu == evolved_state_viscous.mu
        assert np.array_equal(back.V, evolved_state_viscous.V)
        assert np.array_equal(back.H, evolved_state_viscous.H)

    def test_bad_magic_rejected(self, evolved_state_viscous, tmp_path):
        path = tmp_path / "state.snap"
        write_snapshot(path, evolved_state_viscous)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            read_snapshot(path)

    def test_truncated_rejected(self, evolved_state_viscous, tmp_path):
        path = tmp_path / "state.snap"
        write_snapshot(path, evolved_state_viscous)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ValueError):
            read_snapshot(path)

    def test_trailing_bytes_rejected(self, evolved_state_viscous, tmp_path):
        path = tmp_path / "state.snap"
        write_snapshot(path, evolved_state_viscous)
        path.write_bytes(path.read_bytes() + bytes(700))
        with pytest.raises(ValueError, match="700 bytes after its data"):
            read_snapshot(path)

    @pytest.mark.parametrize("size", [6, 20])
    def test_truncated_header_rejected(self, evolved_state_viscous, tmp_path,
                                       size):
        # cut inside the 36-byte header: after the magic, within version
        # and n (6) or within box_len, t and mu (20)
        path = tmp_path / "state.snap"
        write_snapshot(path, evolved_state_viscous)
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match="truncated snapshot"):
            read_snapshot(path)

    def test_non_finite_t_rejected(self, tmp_path):
        path = tmp_path / "state.snap"
        path.write_bytes(SNAPSHOT_MAGIC + struct.pack(
            "<IIddd", SNAPSHOT_VERSION, 8, 64.0, float("nan"), 0.0)
            + bytes(3 * 8 * 8 * 8))
        with pytest.raises(ValueError, match="t must be finite"):
            read_snapshot(path)

    def test_header_size_checked_before_reading(self, tmp_path):
        # a bare 36-byte header claiming n = 2^31: the data it announces
        # is not read (its byte count overflows a read)
        path = tmp_path / "state.snap"
        path.write_bytes(SNAPSHOT_MAGIC + struct.pack(
            "<IIddd", SNAPSHOT_VERSION, 2 ** 31, 64.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="truncated snapshot"):
            read_snapshot(path)

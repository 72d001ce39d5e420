import numpy as np
import pytest

from pact.errors import WindowTooShortError
from pact.forward import AcousticMedium, default_receive_chain, forward_operator, to_time_domain
from pact import _chunks
from pact.geometry import (SamplingPattern, apply_sampling_pattern, build_hemisphere_grid,
                           quadrature_weights)
from pact.recon_ubp import UbpConfig, ubp_filter, ubp_reconstruct
from pact.volume import GridSpec


def point_source_setup(ix, iy, iz, shape=(32, 32, 32), n_theta=12, n_phi=24,
                       extra=()):
    medium = AcousticMedium()
    grid = GridSpec(shape, 1e-3)
    sensors = build_hemisphere_grid(n_theta, n_phi, 0.05)
    chain = default_receive_chain(sensors, grid, medium, fs=20e6, n_freq=60,
                                  center_hz=0.9e6, derivative=True)
    src = grid.zeros()
    src.data[ix, iy, iz] = 1.0
    for jx, jy, jz, amp in extra:
        src.data[jx, jy, jz] = amp
    psi = forward_operator(src, sensors, medium, chain, threads=2)
    traces = ubp_filter(to_time_domain(psi, chain), 1.0 / chain.fs)
    return src, traces, sensors, grid, chain


def test_filter_zero():
    assert not np.any(ubp_filter(np.zeros((3, 16)), 1e-7))


def test_filter_exact_for_constant():
    b = ubp_filter(np.full((2, 12), 3.5), 1e-7)
    assert np.allclose(b[:, 1:-1], 3.5, rtol=1e-12)


def test_filter_exact_for_ramp():
    dt = 5e-8
    t = np.arange(20) * dt
    b = ubp_filter(t[None, :], dt)
    # d/dt [t * t] = 2 t, and the central stencil is exact on quadratics.
    assert np.allclose(b[0, 1:-1], 2 * t[1:-1], rtol=1e-10)


def test_filter_needs_three_samples():
    with pytest.raises(ValueError):
        ubp_filter(np.zeros((1, 2)), 1e-7)


def test_zero_traces_zero_volume():
    sensors = build_hemisphere_grid(4, 8, 0.05)
    grid = GridSpec((12, 12, 12), 1e-3)
    vol = ubp_reconstruct(np.zeros((32, 1000)), sensors, grid, UbpConfig(), fs=20e6)
    assert not np.any(vol.data)


def test_point_source_localization():
    src, traces, sensors, grid, chain = point_source_setup(18, 14, 16)
    rec = ubp_reconstruct(traces, sensors, grid, UbpConfig(), fs=chain.fs, threads=2)
    peak = np.unravel_index(np.argmax(np.abs(rec.data)), rec.shape)
    assert max(abs(np.array(peak) - [18, 14, 16])) <= 1


def test_two_source_amplitude_ratio():
    src, traces, sensors, grid, chain = point_source_setup(
        18, 14, 16, extra=[(8, 20, 12, 0.5)]
    )
    rec = ubp_reconstruct(traces, sensors, grid, UbpConfig(), fs=chain.fs, threads=2)
    peak1 = np.abs(rec.data[16:21, 12:17, 14:19]).max()
    peak2 = np.abs(rec.data[6:11, 18:23, 10:15]).max()
    assert peak1 / peak2 == pytest.approx(2.0, rel=0.15)


def test_reconstruction_is_linear():
    _, tr1, sensors, grid, chain = point_source_setup(18, 14, 16)
    _, tr2, _, _, _ = point_source_setup(10, 20, 12)
    cfg = UbpConfig()
    r1 = ubp_reconstruct(tr1, sensors, grid, cfg, fs=chain.fs)
    r2 = ubp_reconstruct(tr2, sensors, grid, cfg, fs=chain.fs)
    r12 = ubp_reconstruct(2.0 * tr1 + tr2, sensors, grid, cfg, fs=chain.fs)
    lhs = r12.data.astype(np.float64)
    rhs = 2.0 * r1.data.astype(np.float64) + r2.data.astype(np.float64)
    err = np.abs(lhs - rhs).max() / np.abs(rhs).max()
    assert err < 1e-6


def ubp_oracle(traces, sensors, grid, c0, fs):
    """sum_m q_m/R interp(trace_m, R fs/c0), zero past the last interval, over -sum q."""
    ids = sensors.active_indices
    q = quadrature_weights(sensors)[ids]
    coords = grid.voxel_coords()
    samples = np.arange(traces.shape[1])
    out = np.zeros(grid.n_voxels)
    for m, s in enumerate(sensors.positions[ids]):
        R = np.linalg.norm(coords - s, axis=1)
        tau = R * fs / c0
        b = np.where(tau < traces.shape[1] - 1, np.interp(tau, samples, traces[m]), 0.0)
        out += q[m] * b / R
    return out / -q.sum()


def test_matches_float64_oracle_at_every_thread_count():
    # 21 active detectors (one full detector chunk and a partial one) over
    # 2184 voxels (one full voxel block and a partial one); a 700-sample
    # record leaves about 31% of the flights outside the window.
    sensors = apply_sampling_pattern(build_hemisphere_grid(3, 10, 0.05),
                                     SamplingPattern.parse("limaz:250"))
    grid = GridSpec((14, 13, 12), 1e-3)
    assert sensors.active_indices.size % _chunks.DETECTOR_CHUNK != 0
    assert _chunks.VOXEL_BLOCK < grid.n_voxels < 2 * _chunks.VOXEL_BLOCK
    traces = np.random.default_rng(4).standard_normal((sensors.active_indices.size, 700))
    expect = ubp_oracle(traces, sensors, grid, 1500.0, 20e6)
    got = [ubp_reconstruct(traces, sensors, grid, UbpConfig(), fs=20e6, threads=t).data
           for t in (1, 2, 3)]
    assert np.linalg.norm(got[0].ravel() - expect) <= 1e-12 * np.linalg.norm(expect)
    assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])


def test_threads_do_not_change_output():
    _, traces, sensors, grid, chain = point_source_setup(15, 15, 15)
    cfg = UbpConfig()
    r1 = ubp_reconstruct(traces, sensors, grid, cfg, fs=chain.fs, threads=1)
    r2 = ubp_reconstruct(traces, sensors, grid, cfg, fs=chain.fs, threads=2)
    r8 = ubp_reconstruct(traces, sensors, grid, cfg, fs=chain.fs, threads=8)
    assert np.array_equal(r1.data, r2.data)
    assert np.array_equal(r1.data, r8.data)


def test_window_too_short_diagnosed():
    sensors = build_hemisphere_grid(4, 8, 0.05)
    grid = GridSpec((16, 16, 16), 1e-3)
    # 40 samples at 20 MHz = 2 us, but flights take ~33 us.
    with pytest.raises(WindowTooShortError):
        ubp_reconstruct(np.ones((32, 40)), sensors, grid, UbpConfig(), fs=20e6)


def test_grid_must_fit_inside_bowl():
    sensors = build_hemisphere_grid(4, 8, 0.01)
    grid = GridSpec((32, 32, 32), 1e-3)  # spans past the 1 cm bowl
    with pytest.raises(ValueError):
        ubp_reconstruct(np.zeros((32, 1000)), sensors, grid, UbpConfig(), fs=20e6)


def test_trace_row_count_checked():
    sensors = build_hemisphere_grid(4, 8, 0.05)
    grid = GridSpec((8, 8, 8), 1e-3)
    with pytest.raises(ValueError):
        ubp_reconstruct(np.zeros((7, 400)), sensors, grid, UbpConfig(), fs=20e6)

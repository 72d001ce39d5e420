import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pact import _chunks, forward
from pact.errors import GeometryMismatchError
from pact.forward import (
    AcousticMedium,
    PhysicsMask,
    ReceiveChain,
    Spectra,
    add_noise,
    adjoint_operator,
    band_pass_response,
    default_receive_chain,
    forward_operator,
    load_spectra,
    physics_residual,
    projector_adjoint,
    projector_forward,
    sample_physics_mask,
    save_spectra,
    to_time_domain,
)
from pact.geometry import (
    SamplingPattern,
    SensorArray,
    apply_sampling_pattern,
    build_hemisphere_grid,
)
from pact.recon_ubp import UbpConfig, ubp_reconstruct
from pact.volume import GridSpec, Volume

from conftest import dyadic_volume, greens_matrix
from test_ubp import ubp_oracle


def test_forward_matches_dense_oracle(grid8, array10, medium, chain16):
    rng = np.random.default_rng(19)
    x = Volume(rng.random((8, 8, 8)).astype(np.float32), grid8.pitch_m)
    psi = forward_operator(x, array10, medium, chain16)
    mat = greens_matrix(grid8, array10, medium, chain16)
    expect = (mat @ x.data.astype(np.float64).ravel()).reshape(10, 16)
    err = np.abs(psi.values - expect).max() / np.abs(expect).max()
    assert err < 1e-12


@pytest.mark.parametrize("operator", [forward_operator, projector_forward])
def test_zero_volume_gives_zero_spectra(grid8, array10, medium, chain16, operator):
    psi = operator(grid8.zeros(), array10, medium, chain16)
    assert psi.values.shape == (10, 16)
    assert not np.any(psi.values)


def test_single_voxel_closed_form(medium, chain16):
    h = 1e-3
    grid = GridSpec((1, 1, 1), h, origin_m=(0.0, 0.0, 0.0))
    vol = grid.zeros()
    vol.data[0, 0, 0] = 1.0
    sensors = build_hemisphere_grid(2, 5, 0.1)
    psi = forward_operator(vol, sensors, medium, chain16)
    R = np.linalg.norm(sensors.positions, axis=1)
    expect = h**3 * np.exp(1j * chain16.omega[None, :] * R[:, None] / medium.c0) / (
        4 * np.pi * R[:, None]
    )
    err = np.abs(psi.values - expect) / np.abs(expect)
    assert err.max() < 1e-10


def test_two_voxels_superpose(grid8, array10, medium, chain16):
    a = grid8.zeros()
    a.data[1, 2, 3] = 1.0
    b = grid8.zeros()
    b.data[6, 5, 4] = 1.0
    both = grid8.zeros()
    both.data[1, 2, 3] = 1.0
    both.data[6, 5, 4] = 1.0
    pa = forward_operator(a, array10, medium, chain16).values
    pb = forward_operator(b, array10, medium, chain16).values
    pboth = forward_operator(both, array10, medium, chain16).values
    err = np.abs(pboth - pa - pb) / np.abs(pboth).max()
    assert err.max() < 1e-12


def test_linearity(grid8, array10, medium, chain16):
    rng = np.random.default_rng(0)
    x = Volume(dyadic_volume(rng, (8, 8, 8)), grid8.pitch_m)
    y = Volume(dyadic_volume(rng, (8, 8, 8)), grid8.pitch_m)
    # Dyadic coefficients keep the float32 combination exact.
    z = Volume(0.5 * x.data + 0.25 * y.data, grid8.pitch_m)
    pz = forward_operator(z, array10, medium, chain16).values
    px = forward_operator(x, array10, medium, chain16).values
    py = forward_operator(y, array10, medium, chain16).values
    err = np.abs(pz - 0.5 * px - 0.25 * py).max() / np.abs(pz).max()
    assert err < 1e-10


def test_reciprocity_of_green_factor(medium, chain16):
    # Swapping the voxel and detector positions leaves the factor unchanged.
    # Each point is (radius, element): a 2x4 grid direction at that radius.
    h = 1e-3
    p1, p2 = (0.01, 1), (0.095, 6)

    def pair_spectrum(voxel, det):
        origin = build_hemisphere_grid(2, 4, voxel[0]).positions[voxel[1]]
        grid = GridSpec((1, 1, 1), h, origin_m=tuple(origin))
        vol = grid.zeros()
        vol.data[0, 0, 0] = 1.0
        sensors = SensorArray(det[0], 2, 4, np.arange(8) == det[1])
        return forward_operator(vol, sensors, medium, chain16).values[0]

    assert np.allclose(pair_spectrum(p1, p2), pair_spectrum(p2, p1), rtol=1e-14)


def test_energy_decay_with_distance(medium, chain16):
    h = 1e-3
    grid = GridSpec((1, 1, 1), h, origin_m=(0.0, 0.0, 0.0))
    vol = grid.zeros()
    vol.data[0, 0, 0] = 1.0
    near = build_hemisphere_grid(2, 4, 0.05)
    far = build_hemisphere_grid(2, 4, 0.10)
    p_near = forward_operator(vol, near, medium, chain16).values
    p_far = forward_operator(vol, far, medium, chain16).values
    ratio = np.abs(p_far) / np.abs(p_near)
    assert np.allclose(ratio, 0.5, rtol=1e-10)


def test_detector_inside_volume_rejected(medium, chain16):
    grid = GridSpec((16, 16, 16), 1e-2)  # 16 cm cube swallows the array
    sensors = build_hemisphere_grid(2, 5, 0.05)
    with pytest.raises(ValueError):
        forward_operator(grid.zeros(), sensors, medium, chain16)


def test_empty_active_set_rejected(grid8, array10, medium, chain16):
    array10.active[:] = False
    with pytest.raises(ValueError):
        forward_operator(grid8.zeros(), array10, medium, chain16)


def test_adjoint_zero(grid8, array10, medium, chain16):
    psi = Spectra(np.zeros((10, 16), dtype=complex), chain16.freq_hz,
                  array10.active_indices)
    vol = adjoint_operator(psi, array10, medium, chain16, grid8)
    assert not np.any(vol.data)


def test_adjoint_dot_product(grid8, array10, medium, chain16):
    rng = np.random.default_rng(5)
    for trial in range(5):
        x = Volume(rng.random((8, 8, 8)).astype(np.float32), grid8.pitch_m)
        ax = forward_operator(x, array10, medium, chain16)
        y = rng.standard_normal(ax.values.shape) + 1j * rng.standard_normal(ax.values.shape)
        aty = adjoint_operator(Spectra(y, chain16.freq_hz, array10.active_indices),
                               array10, medium, chain16, grid8)
        lhs = float(np.real(np.sum(np.conj(ax.values) * y)))
        rhs = float(np.sum(x.data.astype(np.float64) * aty.data.astype(np.float64)))
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-6


def test_adjoint_dot_product_to_float64_rounding(grid8, array10, medium, chain16):
    # The adjoint volume holds its float64 sums; a float32 result would leave
    # a gap near 1e-9 of ||Ax||*||y||.
    rng = np.random.default_rng(11)
    for trial in range(5):
        x = Volume(rng.standard_normal((8, 8, 8)), grid8.pitch_m)
        ax = forward_operator(x, array10, medium, chain16).values
        y = rng.standard_normal(ax.shape) + 1j * rng.standard_normal(ax.shape)
        aty = adjoint_operator(Spectra(y, chain16.freq_hz, array10.active_indices),
                               array10, medium, chain16, grid8)
        assert aty.data.dtype == np.float64
        lhs = float(np.sum(ax.real * y.real + ax.imag * y.imag))
        rhs = float(np.sum(x.data * aty.data))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(y)


def test_adjoint_single_entry_is_conjugate_kernel(grid8, array10, medium, chain16):
    vals = np.zeros((10, 16), dtype=complex)
    m, k = 3, 7
    vals[m, k] = 2.0 - 1.0j
    psi = Spectra(vals, chain16.freq_hz, array10.active_indices)
    vol = adjoint_operator(psi, array10, medium, chain16, grid8)
    coords = grid8.voxel_coords()
    pos = array10.positions[array10.active_indices[m]]
    R = np.linalg.norm(coords - pos, axis=1)
    kernel = np.conj(chain16.response[k] * np.exp(1j * chain16.omega[k] * R / medium.c0)
                     / (4 * np.pi * R) * grid8.pitch_m**3)
    expect = np.real(kernel * vals[m, k]).reshape(grid8.shape)
    assert np.allclose(vol.data, expect.astype(np.float32), rtol=1e-5, atol=1e-30)


def test_time_domain_zero(chain16, array10):
    psi = Spectra(np.zeros((10, 16), dtype=complex), chain16.freq_hz,
                  array10.active_indices)
    traces = to_time_domain(psi, chain16)
    assert traces.shape == (10, 2000)
    assert not np.any(traces)


def test_time_domain_single_bin_cosine(chain16, array10):
    vals = np.zeros((10, 16), dtype=complex)
    k0 = 4
    vals[:, k0] = 1.0
    psi = Spectra(vals, chain16.freq_hz, array10.active_indices)
    traces = to_time_domain(psi, chain16)
    t = np.arange(chain16.n_t) / chain16.fs
    expect = (2.0 / chain16.n_t) * np.cos(chain16.omega[k0] * t)
    assert np.allclose(traces[0], expect, atol=1e-15)


def test_time_domain_round_trip(grid8, array10, medium, chain16):
    rng = np.random.default_rng(8)
    x = Volume(rng.random((8, 8, 8)).astype(np.float32), grid8.pitch_m)
    psi = forward_operator(x, array10, medium, chain16)
    back = np.conj(np.fft.rfft(to_time_domain(psi, chain16), axis=1))[:, 1:chain16.n_freq + 1]
    err = np.abs(back - psi.values).max() / np.abs(psi.values).max()
    assert err < 1e-10


def test_nyquist_bin_guard():
    with pytest.raises(ValueError):
        ReceiveChain(fs=20e6, n_t=200, n_freq=101)


def test_point_source_arrival_time(medium):
    # Band-limited point-source trace peaks within 2 samples of R / c0.
    grid = GridSpec((1, 1, 1), 1e-3, origin_m=(0.0, 0.003, -0.002))
    vol = grid.zeros()
    vol.data[0, 0, 0] = 1.0
    sensors = build_hemisphere_grid(3, 6, 0.06)
    chain = default_receive_chain(sensors, grid, medium, fs=20e6, n_freq=200,
                                  center_hz=1.5e6)
    psi = forward_operator(vol, sensors, medium, chain)
    traces = to_time_domain(psi, chain)
    env = np.abs(traces)
    for m, det in enumerate(sensors.positions):
        t_star = np.linalg.norm(det - [0.0, 0.003, -0.002]) / medium.c0
        peak = np.argmax(env[m])
        assert abs(peak - t_star * chain.fs) <= 2.0


def test_add_noise_inf_is_identity(grid8, array10, medium, chain16):
    rng = np.random.default_rng(9)
    x = Volume(rng.random((8, 8, 8)).astype(np.float32), grid8.pitch_m)
    psi = forward_operator(x, array10, medium, chain16)
    out = add_noise(psi, math.inf, 3)
    assert np.array_equal(out.values, psi.values)


def test_add_noise_energy_calibration():
    rng = np.random.default_rng(10)
    vals = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
    psi = Spectra(vals, np.arange(1, 101) * 1e4, np.arange(100))
    noisy = add_noise(psi, 20.0, 11)
    noise = noisy.values - psi.values
    ratio = np.sum(np.abs(noise) ** 2) / np.sum(np.abs(vals) ** 2)
    assert ratio == pytest.approx(0.01, rel=0.05)


def test_add_noise_deterministic(grid8, array10, medium, chain16):
    rng = np.random.default_rng(12)
    x = Volume(rng.random((8, 8, 8)).astype(np.float32), grid8.pitch_m)
    psi = forward_operator(x, array10, medium, chain16)
    a = add_noise(psi, 15.0, 77)
    b = add_noise(psi, 15.0, 77)
    assert np.array_equal(a.values, b.values)


def test_add_noise_zero_energy_rejected(chain16, array10):
    psi = Spectra(np.zeros((10, 16), dtype=complex), chain16.freq_hz,
                  array10.active_indices)
    with pytest.raises(ValueError):
        add_noise(psi, 20.0, 1)


def test_physics_mask_sampling(chain16, array10):
    big = build_hemisphere_grid(8, 16, 0.1)
    chain = ReceiveChain(fs=20e6, n_t=2000, n_freq=60)
    mask = sample_physics_mask(15, 40, chain, big, 5)
    assert len(set(mask.mode_indices)) == 15
    assert len(set(mask.sensor_indices)) == 40
    full = sample_physics_mask(chain16.n_freq, 10, chain16, array10, 5)
    assert np.array_equal(np.sort(full.mode_indices), np.arange(16))
    again = sample_physics_mask(15, 40, chain, big, 5)
    assert np.array_equal(mask.mode_indices, again.mode_indices)
    assert np.array_equal(mask.sensor_indices, again.sensor_indices)
    with pytest.raises(ValueError):
        sample_physics_mask(17, 5, chain16, array10, 1)
    with pytest.raises(ValueError):
        sample_physics_mask(5, 11, chain16, array10, 1)


def test_physics_mask_validation():
    with pytest.raises(ValueError):
        PhysicsMask(np.array([1, 1]), np.array([0]))
    with pytest.raises(ValueError):
        PhysicsMask(np.array([], dtype=int), np.array([0]))


def test_physics_residual_self_consistent(grid8, array10, medium, chain16):
    rng = np.random.default_rng(13)
    x = Volume(rng.random((8, 8, 8)).astype(np.float32), grid8.pitch_m)
    psi = forward_operator(x, array10, medium, chain16)
    mask = sample_physics_mask(8, 6, chain16, array10, 21)
    assert physics_residual(x, psi, mask, array10, medium, chain16) < 1e-10


def test_physics_residual_zero_estimate_is_masked_energy(grid8, array10, medium, chain16):
    rng = np.random.default_rng(14)
    x = Volume(rng.random((8, 8, 8)).astype(np.float32), grid8.pitch_m)
    psi = forward_operator(x, array10, medium, chain16)
    mask = sample_physics_mask(8, 6, chain16, array10, 22)
    expect = float(np.sum(np.abs(
        psi.values[np.ix_(mask.sensor_indices, mask.mode_indices)]) ** 2))
    got = physics_residual(grid8.zeros(), psi, mask, array10, medium, chain16)
    assert got == pytest.approx(expect, rel=1e-12)


def test_physics_residual_scaled_estimate(grid8, array10, medium, chain16):
    rng = np.random.default_rng(15)
    x = Volume(dyadic_volume(rng, (8, 8, 8)), grid8.pitch_m)
    psi = forward_operator(x, array10, medium, chain16)
    mask = sample_physics_mask(8, 6, chain16, array10, 23)
    x2 = Volume(2.0 * x.data, grid8.pitch_m)
    got = physics_residual(x2, psi, mask, array10, medium, chain16)
    expect = float(np.sum(np.abs(
        psi.values[np.ix_(mask.sensor_indices, mask.mode_indices)]) ** 2))
    assert got == pytest.approx(expect, rel=1e-9)


def test_physics_residual_identity_mask_matches_full(grid8, array10, medium, chain16):
    rng = np.random.default_rng(16)
    x = Volume(rng.random((8, 8, 8)).astype(np.float32), grid8.pitch_m)
    truth = Volume(rng.random((8, 8, 8)).astype(np.float32), grid8.pitch_m)
    psi = forward_operator(truth, array10, medium, chain16)
    mask = PhysicsMask(np.arange(chain16.n_freq), np.arange(10))
    got = physics_residual(x, psi, mask, array10, medium, chain16)
    full = forward_operator(x, array10, medium, chain16).values - psi.values
    expect = float(np.sum(np.abs(full) ** 2))
    assert got == pytest.approx(expect, rel=1e-9)


def test_foreign_detector_ids_are_a_geometry_mismatch(grid8, array10, medium, chain16):
    # Rows for ids the array does not have: the residual must not pair them
    # with the active rows by position, as the adjoint already refuses to.
    x = Volume(dyadic_volume(np.random.default_rng(17), (8, 8, 8)), grid8.pitch_m)
    psi = forward_operator(x, array10, medium, chain16)
    foreign = Spectra(psi.values, psi.freq_hz, psi.detector_ids + 1000)
    mask = sample_physics_mask(8, 6, chain16, array10, 24)
    with pytest.raises(GeometryMismatchError):
        physics_residual(x, foreign, mask, array10, medium, chain16)
    with pytest.raises(GeometryMismatchError):
        adjoint_operator(foreign, array10, medium, chain16, grid8)


def test_band_pass_response_shape():
    freqs = np.linspace(1e5, 9e6, 200)
    h = band_pass_response(freqs, 2.12e6, 0.78, 7.5e6)
    assert np.abs(h).max() == pytest.approx(1.0)
    assert np.abs(h[freqs >= 7.5e6]).max() == 0.0
    peak_f = freqs[np.argmax(np.abs(h))]
    assert peak_f == pytest.approx(2.12e6, rel=0.05)
    hd = band_pass_response(freqs, 2.12e6, 0.78, 7.5e6, derivative=True)
    assert np.abs(hd).max() == pytest.approx(1.0)
    assert np.all(np.real(hd) == 0.0)


def test_spectra_file_round_trip(tmp_path, grid8, array10, medium, chain16):
    rng = np.random.default_rng(17)
    x = Volume(rng.random((8, 8, 8)).astype(np.float32), grid8.pitch_m)
    psi = forward_operator(x, array10, medium, chain16)
    path = str(tmp_path / "psi.c64")
    save_spectra(psi, chain16, path, geometry_file="g.json", c0=medium.c0)
    back, chain, header = load_spectra(path)
    assert header["geometry"] == "g.json"
    assert chain.n_t == chain16.n_t and chain.n_freq == 16
    assert np.array_equal(back.detector_ids, psi.detector_ids)
    # complex64 payload: exact for the stored precision
    assert np.allclose(back.values, psi.values, rtol=1e-6)


def test_spectra_payload_mismatch_detected(tmp_path, grid8, array10, medium, chain16):
    rng = np.random.default_rng(18)
    x = Volume(rng.random((8, 8, 8)).astype(np.float32), grid8.pitch_m)
    psi = forward_operator(x, array10, medium, chain16)
    path = str(tmp_path / "psi.c64")
    save_spectra(psi, chain16, path)
    with open(path, "ab") as f:
        f.write(b"\x00" * 8)
    with pytest.raises(GeometryMismatchError):
        load_spectra(path)


# --------------------------------------------------------------------------
# The solver's projector pair, on small random problems.

# chain16, and a wide band whose 5 us record is shorter than every flight to
# a 0.1 m array, so the projector's flight phases wrap.
PROJECTOR_CHAINS = [ReceiveChain(fs=20e6, n_t=2000, n_freq=16),
                    ReceiveChain(fs=20e6, n_t=100, n_freq=40)]
MEDIUM = AcousticMedium(c0=1500.0)
# Relative error of the projector against greens_matrix at _OVERSAMPLE = 64.
PROJECTOR_ERROR = 2e-4


@st.composite
def projector_problems(draw):
    """(grid, sensors, chain, volume, rng): up to 8^3 voxels and a 4x8 array."""
    grid = GridSpec(tuple(draw(st.integers(1, 8)) for _ in range(3)), 1e-3)
    n_theta, n_phi = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["full", "uniform", "limaz", "limel"]))
    pattern = SamplingPattern(kind, rate=draw(st.integers(1, n_phi)),
                              arc_deg=draw(st.floats(30.0, 360.0)),
                              fraction=draw(st.floats(0.25, 1.0)))
    sensors = apply_sampling_pattern(build_hemisphere_grid(n_theta, n_phi, 0.1), pattern)
    assume(sensors.active.any())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.random(grid.shape)
    if draw(st.booleans()):
        data[rng.random(grid.shape) < 0.9] = 0.0  # sparse
    vol = Volume(data, grid.pitch_m)
    return grid, sensors, draw(st.sampled_from(PROJECTOR_CHAINS)), vol, rng


def _random_spectra(rng, sensors, chain):
    shape = (sensors.active_indices.size, chain.n_freq)
    return Spectra(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                   chain.freq_hz, sensors.active_indices)


@settings(max_examples=100, deadline=None)
@given(problem=projector_problems())
def test_projector_dot_product(problem):
    grid, sensors, chain, x, rng = problem
    ax = projector_forward(x, sensors, MEDIUM, chain).values
    y = _random_spectra(rng, sensors, chain)
    aty = projector_adjoint(y, sensors, MEDIUM, chain, grid).data
    lhs = float(np.sum(ax.real * y.values.real + ax.imag * y.values.imag))
    rhs = float(np.sum(x.data * aty))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(y.values)


@settings(max_examples=100, deadline=None)
@given(problem=projector_problems())
def test_projector_matches_greens_matrix(problem):
    grid, sensors, chain, x, rng = problem
    mat = greens_matrix(grid, sensors, MEDIUM, chain)
    expect = (mat @ x.data.ravel()).reshape(-1, chain.n_freq)
    got = projector_forward(x, sensors, MEDIUM, chain).values
    assert np.linalg.norm(got - expect) <= PROJECTOR_ERROR * np.linalg.norm(expect)
    # The adjoint at spectra of a random volume, as the solver applies it.
    y = Spectra((mat @ rng.random(grid.n_voxels)).reshape(expect.shape), chain.freq_hz,
                sensors.active_indices)
    expect = np.real(mat.conj().T @ y.values.ravel())
    got = projector_adjoint(y, sensors, MEDIUM, chain, grid).data.ravel()
    assert np.linalg.norm(got - expect) <= PROJECTOR_ERROR * np.linalg.norm(expect)


@settings(max_examples=100, deadline=None)
@given(problem=projector_problems())
def test_projector_is_linear(problem):
    grid, sensors, chain, x, rng = problem
    y = Volume(rng.random(grid.shape), grid.pitch_m)
    z = Volume(0.5 * x.data - 0.25 * y.data, grid.pitch_m)
    px, py, pz = (projector_forward(v, sensors, MEDIUM, chain).values for v in (x, y, z))
    scale = np.linalg.norm(0.5 * px) + np.linalg.norm(0.25 * py)
    assert np.linalg.norm(pz - 0.5 * px + 0.25 * py) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(problem=projector_problems())
def test_projector_is_bitwise_identical_across_threads(problem):
    grid, sensors, chain, x, rng = problem
    y = _random_spectra(rng, sensors, chain)
    fwd = [projector_forward(x, sensors, MEDIUM, chain, threads=t).values for t in (1, 2)]
    adj = [projector_adjoint(y, sensors, MEDIUM, chain, grid, threads=t).data for t in (1, 2)]
    assert np.array_equal(*fwd) and np.array_equal(*adj)


def test_projector_dense_volume_error(grid8, array10, medium, chain16):
    # The 1/sinc^2 factor cancels the triangle kernel's mean error over many
    # voxels: without it this error reads 5.3e-5.
    x = Volume(np.random.default_rng(0).random(grid8.shape), grid8.pitch_m)
    expect = greens_matrix(grid8, array10, medium, chain16) @ x.data.ravel()
    got = projector_forward(x, array10, medium, chain16).values.ravel()
    assert np.linalg.norm(got - expect) <= 1e-5 * np.linalg.norm(expect)


@pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
def test_projector_last_phase_cell_wraps_to_the_first(medium, chain16, frac):
    # A flight whose phase lies in the grid's last cell spreads onto cell 0,
    # and the adjoint gathers from it.
    n = 2 * forward._OVERSAMPLE * chain16.n_freq
    grid = GridSpec((1, 1, 1), 1e-3, origin_m=(0.0, 0.0, 0.0))
    vol = grid.zeros()
    vol.data[0, 0, 0] = 1.0
    sensors = build_hemisphere_grid(1, 1, (n - 1 + frac) / n * medium.c0 * chain16.T)
    expect = forward_operator(vol, sensors, medium, chain16).values
    got = projector_forward(vol, sensors, medium, chain16).values
    assert np.abs(got - expect).max() <= PROJECTOR_ERROR * np.abs(expect).max()
    psi = Spectra(expect, chain16.freq_hz, sensors.active_indices)
    expect = adjoint_operator(psi, sensors, medium, chain16, grid).data
    got = projector_adjoint(psi, sensors, medium, chain16, grid).data
    assert abs(got - expect).max() <= PROJECTOR_ERROR * abs(expect).max()


def test_projector_rows_hold_one_period_at_a_slow_sound_speed(grid8, array10, medium,
                                                              chain16, monkeypatch):
    # At c0 / 100 every flight wraps the phase grid about 100 times more
    # often than at c0; the adjoint's rows still hold one period and the
    # cell that repeats the first, and the pair stays adjoint.
    slow = AcousticMedium(c0=medium.c0 / 100)
    widths = []

    def back_project(rows, *args, **kwargs):
        widths.append(rows.shape[1])
        return _chunks.back_project(rows, *args, **kwargs)

    monkeypatch.setattr(forward, "back_project", back_project)
    rng = np.random.default_rng(8)
    x = Volume(rng.random(grid8.shape), grid8.pitch_m)
    ax = projector_forward(x, array10, slow, chain16).values
    y = _random_spectra(rng, array10, chain16)
    aty = projector_adjoint(y, array10, slow, chain16, grid8).data
    assert widths == [2 * forward._OVERSAMPLE * chain16.n_freq + 1]
    lhs = float(np.sum(ax.real * y.values.real + ax.imag * y.values.imag))
    assert abs(lhs - float(np.sum(x.data * aty))) \
        <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(y.values)


def test_projector_spans_voxel_blocks(medium, chain16):
    # 9216 voxels: more than one voxel block, the last one partial.
    grid = GridSpec((24, 24, 16), 1e-3)
    sensors = build_hemisphere_grid(2, 3, 0.1)
    assert grid.n_voxels > _chunks.VOXEL_BLOCK
    rng = np.random.default_rng(3)
    x = Volume(rng.random(grid.shape), grid.pitch_m)
    mat = greens_matrix(grid, sensors, medium, chain16)
    expect = mat @ x.data.ravel()
    got = projector_forward(x, sensors, medium, chain16).values.ravel()
    assert np.linalg.norm(got - expect) <= PROJECTOR_ERROR * np.linalg.norm(expect)
    psi = Spectra(expect.reshape(got.size // chain16.n_freq, -1), chain16.freq_hz,
                  sensors.active_indices)
    expect = np.real(mat.conj().T @ expect)
    back = projector_adjoint(psi, sensors, medium, chain16, grid).data.ravel()
    assert np.linalg.norm(back - expect) <= PROJECTOR_ERROR * np.linalg.norm(expect)
    assert abs(np.vdot(got, psi.values.ravel()).real - x.data.ravel() @ back) \
        <= 1e-12 * np.linalg.norm(got) * np.linalg.norm(psi.values)


# The exact pair's tile kernel where its structure can break: the split of
# K bins into ceil(sqrt(K)) baby steps, partial voxel tiles, masked bins and
# the tabled phase.

@pytest.mark.parametrize("n_bins", [1, 2, 3, 5, 16, 17, 24, 149])
def test_exact_pair_matches_greens_matrix_at_every_bin_split(grid8, array10, medium, n_bins):
    chain = ReceiveChain(fs=20e6, n_t=2000, n_freq=n_bins)
    rng = np.random.default_rng(n_bins)
    mat = greens_matrix(grid8, array10, medium, chain)
    x = Volume(rng.random(grid8.shape), grid8.pitch_m)
    expect = (mat @ x.data.ravel()).reshape(10, n_bins)
    got = forward_operator(x, array10, medium, chain).values
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
    y = _random_spectra(rng, array10, chain)
    expect = np.real(mat.conj().T @ y.values.ravel())
    got = adjoint_operator(y, array10, medium, chain, grid8).data.ravel()
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("sparse", [False, True])
def test_exact_pair_partial_last_tile(medium, chain16, sparse):
    grid = GridSpec((9, 9, 9), 1e-3)
    assert grid.n_voxels > _chunks.GREENS_BLOCK and grid.n_voxels % _chunks.GREENS_BLOCK
    sensors = build_hemisphere_grid(3, 7, 0.1)  # 21 detectors: a partial detector chunk
    rng = np.random.default_rng(8)
    data = rng.random(grid.shape)
    if sparse:
        data[rng.random(grid.shape) < 0.2] = 0.0
    x = Volume(data, grid.pitch_m)
    mat = greens_matrix(grid, sensors, medium, chain16)
    expect = (mat @ data.ravel()).reshape(-1, chain16.n_freq)
    got = forward_operator(x, sensors, medium, chain16).values
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
    y = _random_spectra(rng, sensors, chain16)
    expect = np.real(mat.conj().T @ y.values.ravel())
    got = adjoint_operator(y, sensors, medium, chain16, grid).data.ravel()
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("modes", [[0], [15], [9, 13, 15], [2, 14]])
def test_physics_residual_masked_bins(grid8, array10, medium, chain16, modes):
    rng = np.random.default_rng(len(modes))
    x = Volume(rng.random(grid8.shape), grid8.pitch_m)
    truth = Volume(rng.random(grid8.shape), grid8.pitch_m)
    psi = forward_operator(truth, array10, medium, chain16)
    mask = PhysicsMask(np.array(modes), np.array([0, 3, 4, 9]))
    full = forward_operator(x, array10, medium, chain16).values - psi.values
    expect = float(np.sum(np.abs(full[np.ix_(mask.sensor_indices, mask.mode_indices)]) ** 2))
    got = physics_residual(x, psi, mask, array10, medium, chain16)
    assert got == pytest.approx(expect, rel=1e-12)


def test_unit_phase_matches_complex_exp():
    n = forward._PHASE_NODES
    cell = 2.0 * np.pi / n
    nodes = np.arange(2 * n + 1) * cell  # [0, 4 pi]
    edges = (np.arange(2 * n) + 0.5) * cell  # half-cell boundaries
    theta = np.concatenate([nodes, edges, np.nextafter(edges, 0.0), np.nextafter(edges, 13.0),
                            np.linspace(0.0, 4.0 * np.pi, 100_001)])
    assert np.abs(forward._unit_phase(theta) - np.exp(1j * theta)).max() <= 1e-14


# The exact pair and the kernels around it, on the same random problems.

@settings(max_examples=40, deadline=None)
@given(problem=projector_problems())
def test_exact_pair_dot_product_and_linearity(problem):
    grid, sensors, chain, x, rng = problem
    ax = forward_operator(x, sensors, MEDIUM, chain).values
    y = _random_spectra(rng, sensors, chain)
    aty = adjoint_operator(y, sensors, MEDIUM, chain, grid).data
    lhs = float(np.sum(ax.real * y.values.real + ax.imag * y.values.imag))
    rhs = float(np.sum(x.data * aty))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(y.values)
    w = Volume(rng.random(grid.shape), grid.pitch_m)
    z = Volume(0.5 * x.data - 0.25 * w.data, grid.pitch_m)
    aw, az = (forward_operator(v, sensors, MEDIUM, chain).values for v in (w, z))
    scale = np.linalg.norm(0.5 * ax) + np.linalg.norm(0.25 * aw)
    assert np.linalg.norm(az - 0.5 * ax + 0.25 * aw) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(problem=projector_problems(), data=st.data())
def test_physics_residual_is_the_masked_full_residual(problem, data):
    grid, sensors, chain, x, rng = problem
    psi = _random_spectra(rng, sensors, chain)
    n_modes = data.draw(st.integers(1, chain.n_freq))
    n_rows = data.draw(st.integers(1, psi.n_det))
    mask = sample_physics_mask(n_modes, n_rows, chain, sensors, data.draw(st.integers(0, 99)))
    full = forward_operator(x, sensors, MEDIUM, chain).values - psi.values
    expect = float(np.sum(np.abs(full[np.ix_(mask.sensor_indices, mask.mode_indices)]) ** 2))
    got = physics_residual(x, psi, mask, sensors, MEDIUM, chain)
    assert got == pytest.approx(expect, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(problem=projector_problems())
def test_exact_kernels_are_bitwise_identical_across_threads(problem):
    grid, sensors, chain, x, rng = problem
    y = _random_spectra(rng, sensors, chain)
    mask = PhysicsMask(np.arange(chain.n_freq), np.arange(y.n_det))
    # A 2000-sample record at 20 MHz covers every flight to the 0.1 m array.
    traces = rng.standard_normal((y.n_det, 2000))
    runs = [(forward_operator(x, sensors, MEDIUM, chain, threads=t).values,
             adjoint_operator(y, sensors, MEDIUM, chain, grid, threads=t).data,
             physics_residual(x, y, mask, sensors, MEDIUM, chain, threads=t),
             ubp_reconstruct(traces, sensors, grid, UbpConfig(), fs=20e6, threads=t).data)
            for t in (1, 2)]
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


def test_back_projections_span_voxel_blocks_at_every_thread_count(medium, chain16):
    # The property tests' grids fit in one block; here 9216 voxels make 4.5
    # voxel blocks and 18 Green's blocks, run in parallel, and 21 detectors
    # leave a partial detector chunk.
    grid = GridSpec((24, 24, 16), 1e-3)
    sensors = build_hemisphere_grid(3, 7, 0.1)
    assert grid.n_voxels % _chunks.VOXEL_BLOCK and grid.n_voxels > 4 * _chunks.VOXEL_BLOCK
    assert sensors.active_indices.size % _chunks.DETECTOR_CHUNK
    rng = np.random.default_rng(9)
    mat = greens_matrix(grid, sensors, medium, chain16)
    psi = Spectra((mat @ rng.random(grid.n_voxels)).reshape(-1, chain16.n_freq),
                  chain16.freq_hz, sensors.active_indices)
    # A 2000-sample record at 20 MHz covers every flight to the 0.1 m array.
    traces = rng.standard_normal((psi.n_det, 2000))
    # Threads write their own rows of the projector's phase grid; switching
    # them often would expose a write to another thread's part.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = [(adjoint_operator(psi, sensors, medium, chain16, grid, threads=t).data.ravel(),
                 projector_adjoint(psi, sensors, medium, chain16, grid, threads=t).data.ravel(),
                 ubp_reconstruct(traces, sensors, grid, UbpConfig(), fs=20e6,
                                 threads=t).data.ravel())
                for t in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    for run in runs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(runs[0], run))
    exact, projected, ubp = runs[0]
    expect = np.real(mat.conj().T @ psi.values.ravel())
    assert np.abs(exact - expect).max() <= 1e-12 * np.abs(expect).max()
    assert np.linalg.norm(projected - expect) <= PROJECTOR_ERROR * np.linalg.norm(expect)
    expect = ubp_oracle(traces, sensors, grid, medium.c0, 20e6)
    assert np.linalg.norm(ubp - expect) <= 1e-12 * np.linalg.norm(expect)


@settings(max_examples=40, deadline=None)
@given(problem=projector_problems())
def test_time_domain_rfft_round_trip(problem):
    grid, sensors, chain, x, rng = problem
    psi = _random_spectra(rng, sensors, chain)
    traces = to_time_domain(psi, chain)
    assert traces.shape == (psi.n_det, chain.n_t)
    back = np.conj(np.fft.rfft(traces, axis=1))[:, 1:chain.n_freq + 1]
    assert np.abs(back - psi.values).max() <= 1e-12 * np.abs(psi.values).max()

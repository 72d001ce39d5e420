import numpy as np
import pytest
from scipy import sparse

from pact.errors import BasisSupportError
from pact.checks import (
    ball_average_error,
    cap_area,
    rotation_consistency_error,
    run_disco_checks,
    run_fno_checks,
)
from pact.geometry import SamplingPattern, apply_sampling_pattern, build_hemisphere_grid
from pact.neuralop import (
    DiscoLayer,
    FnoLayer,
    build_disco_matrices,
    disco_apply,
    eval_kernel_basis,
    fno_identity_layer,
    fno_layer_apply,
    fno_random_layer,
    make_kernel_basis,
)

R_DEFAULT = 0.1 * np.pi


def test_piecewise_linear_collocation_property():
    basis = make_kernel_basis("piecewise_linear", 4, R_DEFAULT)
    # Center node evaluates to 1 at the disk center.
    v = eval_kernel_basis(basis, 0.0, 0.0)
    assert v[0] == pytest.approx(1.0)
    # Ring nodes evaluate to 1 at their own collocation point ...
    for c in range(3):
        phi_c = 2 * np.pi * c / 3
        v = eval_kernel_basis(basis, R_DEFAULT, phi_c)
        assert v[1 + c] == pytest.approx(1.0)
        # ... and to 0 at the other ring nodes.
        others = [1 + o for o in range(3) if o != c]
        assert np.allclose(v[others], 0.0)


def test_basis_values_in_unit_interval():
    basis = make_kernel_basis("piecewise_linear", 4, R_DEFAULT)
    rng = np.random.default_rng(0)
    rho = rng.uniform(0, 1.5 * R_DEFAULT, 500)
    phi = rng.uniform(0, 2 * np.pi, 500)
    vals = eval_kernel_basis(basis, rho, phi)
    assert vals.min() >= 0.0 and vals.max() <= 1.0


@pytest.mark.parametrize("kind,L", [("piecewise_linear", 4), ("haar", 4), ("zernike", 4)])
def test_compact_support(kind, L):
    basis = make_kernel_basis(kind, L, R_DEFAULT)
    vals = eval_kernel_basis(basis, np.array([1.5 * R_DEFAULT]), np.array([1.0]))
    assert not np.any(vals)


@pytest.mark.parametrize("kind,L", [("piecewise_linear", 4), ("haar", 8), ("zernike", 6)])
def test_azimuth_periodicity(kind, L):
    basis = make_kernel_basis(kind, L, R_DEFAULT)
    rng = np.random.default_rng(1)
    rho = rng.uniform(0, R_DEFAULT, 200)
    phi = rng.uniform(0, 2 * np.pi, 200)
    a = eval_kernel_basis(basis, rho, phi)
    b = eval_kernel_basis(basis, rho, phi + 2 * np.pi)
    assert np.allclose(a, b, atol=1e-12)


def test_negative_rho_rejected():
    basis = make_kernel_basis("zernike", 4, R_DEFAULT)
    with pytest.raises(ValueError):
        eval_kernel_basis(basis, -0.1, 0.0)


def test_invalid_basis_configs():
    with pytest.raises(ValueError):
        make_kernel_basis("spline", 4, R_DEFAULT)
    with pytest.raises(ValueError):
        make_kernel_basis("haar", 3, R_DEFAULT)
    with pytest.raises(ValueError):
        make_kernel_basis("zernike", 4, 0.0)
    with pytest.raises(ValueError):
        make_kernel_basis("zernike", 4, 2.0)


@pytest.mark.parametrize("kind,L", [("piecewise_linear", 4), ("haar", 4), ("zernike", 4)])
def test_gram_matrix_full_rank(kind, L):
    # Linear independence on a dense polar sample of the disk, area weights.
    basis = make_kernel_basis(kind, L, R_DEFAULT)
    n_r, n_p = 16, 24
    rho = (np.arange(n_r) + 0.5) * R_DEFAULT / n_r
    phi = np.arange(n_p) * 2 * np.pi / n_p
    rr, pp = np.meshgrid(rho, phi, indexing="ij")
    vals = eval_kernel_basis(basis, rr.ravel(), pp.ravel())  # [n, L]
    w = (rr * (R_DEFAULT / n_r) * (2 * np.pi / n_p)).ravel()
    gram = vals.T @ (vals * w[:, None])
    cond = np.linalg.cond(gram)
    assert cond < 1e4


def test_zernike_gram_on_64_point_grid():
    basis = make_kernel_basis("zernike", 4, R_DEFAULT)
    rho = (np.arange(8) + 0.5) * R_DEFAULT / 8
    phi = np.arange(8) * 2 * np.pi / 8
    rr, pp = np.meshgrid(rho, phi, indexing="ij")
    vals = eval_kernel_basis(basis, rr.ravel(), pp.ravel())
    w = (rr * (R_DEFAULT / 8) * (2 * np.pi / 8)).ravel()
    gram = vals.T @ (vals * w[:, None])
    assert np.linalg.cond(gram) < 1e4


def test_disco_matrices_sparsity_respects_ball():
    sensors = build_hemisphere_grid(16, 32, 1.0)
    basis = make_kernel_basis("zernike", 4, R_DEFAULT)
    mats = build_disco_matrices(sensors, sensors, basis)
    assert len(mats) == 4
    units = sensors.positions / sensors.radius_m
    pattern = sum(abs(m) for m in mats).tocoo()
    dots = np.einsum("ij,ij->i", units[pattern.row], units[pattern.col])
    dist = np.arccos(np.clip(dots, -1, 1))
    assert dist.max() <= R_DEFAULT + 1e-12


def test_disco_cap_area_small_grid():
    basis = make_kernel_basis("zernike", 4, R_DEFAULT)
    mean_err, _ = ball_average_error(basis, 32, 64)
    assert mean_err < 0.03


def test_disco_refinement_convergence_on_smooth_field():
    # Fixed output points, refined input grids: successive outputs approach
    # each other (resolution-convergent quadrature).
    basis = make_kernel_basis("zernike", 4, R_DEFAULT)
    rng = np.random.default_rng(20)
    theta = rng.standard_normal((1, 1, 4))
    thetas_out = np.linspace(0.5, 1.0, 5)
    phis_out = np.linspace(0.3, 5.9, 8)
    out_pts = np.array([[np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)]
                        for t in thetas_out for p in phis_out])

    def smooth(units):
        return (1.0 + 0.5 * units[:, 0] + 0.3 * units[:, 2] ** 2)[None, :]

    outs = []
    for nt in (16, 32, 64):
        grid = build_hemisphere_grid(nt, 2 * nt, 1.0)
        mats = build_disco_matrices(grid, out_pts, basis)
        layer = DiscoLayer(basis, mats, theta)
        outs.append(disco_apply(layer, smooth(grid.positions)))
    d1 = np.abs(outs[1] - outs[0]).max()
    d2 = np.abs(outs[2] - outs[1]).max()
    assert d2 < d1


@pytest.mark.parametrize("pattern", ["full", "uniform:2"])
@pytest.mark.parametrize("kind", ["zernike", "piecewise_linear"])
def test_disco_lattice_and_general_azimuths_agree(kind, pattern):
    # Output points given as a SensorArray take sin/cos of the azimuth
    # difference from the integer-column table, given as unit vectors from the
    # float difference.  Where an output point sits on an input point, rho is
    # arccos of a cosine a few roundings below 1 on either path (up to 3e-8
    # rad, at any phi), and the n = 1 terms scale with rho / r; elsewhere the
    # paths agree to round-off.
    out = build_hemisphere_grid(32, 64, 1.0)
    sensors = apply_sampling_pattern(out, SamplingPattern.parse(pattern))
    basis = make_kernel_basis(kind, 4, R_DEFAULT)
    lattice = build_disco_matrices(sensors, out, basis)
    general = build_disco_matrices(sensors, out.positions, basis)
    scale = max(np.abs(m.data).max() for m in lattice)
    for a, b in zip(lattice, general):
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        coincident = sensors.active_indices[a.indices] == rows
        err = np.abs(a.data - b.data) / scale
        assert err[~coincident].max() < 1e-12
        assert err[coincident].max() < 2 * 3e-8 / basis.r


def test_disco_empty_neighborhood_diagnosed():
    sensors = build_hemisphere_grid(4, 8, 1.0)
    tiny = make_kernel_basis("zernike", 1, 1e-4)
    out_pts = np.array([[np.sin(0.3) * np.cos(p), np.sin(0.3) * np.sin(p), np.cos(0.3)]
                        for p in np.linspace(0.05, 6.2, 40)])
    with pytest.raises(BasisSupportError):
        build_disco_matrices(sensors, out_pts, tiny)


def test_disco_apply_zero_theta():
    sensors = build_hemisphere_grid(8, 16, 1.0)
    basis = make_kernel_basis("haar", 2, R_DEFAULT)
    mats = build_disco_matrices(sensors, sensors, basis)
    layer = DiscoLayer(basis, mats, np.zeros((2, 1, 2)))
    out = disco_apply(layer, np.ones((1, layer.n_in)))
    assert not np.any(out)


def test_disco_apply_identity_double():
    # K^1 = identity, theta = 2 -> output is exactly 2 f.
    basis = make_kernel_basis("zernike", 1, R_DEFAULT)
    eye = sparse.identity(12, format="csr")
    layer = DiscoLayer(basis, [eye], np.full((1, 1, 1), 2.0))
    f = np.arange(12, dtype=float)[None, :]
    assert np.array_equal(disco_apply(layer, f), 2.0 * f)


def test_disco_theta_jacobian_is_stacked_kf():
    sensors = build_hemisphere_grid(8, 16, 1.0)
    basis = make_kernel_basis("zernike", 3, R_DEFAULT)
    mats = build_disco_matrices(sensors, sensors, basis)
    rng = np.random.default_rng(2)
    f = rng.standard_normal((1, sensors.n_elements))
    kf = np.stack([mats[ell] @ f[0] for ell in range(3)])
    # Output is linear in theta, so the Jacobian columns are exactly K^l f.
    step = 1e-6
    for ell in range(3):
        tp = np.zeros((1, 1, 3))
        tp[0, 0, ell] = step
        lp = DiscoLayer(basis, mats, tp)
        fd = disco_apply(lp, f)[0] / step
        assert np.allclose(fd, kf[ell], rtol=1e-6, atol=1e-12)


def test_disco_superposition_with_complex_features():
    sensors = build_hemisphere_grid(8, 16, 1.0)
    basis = make_kernel_basis("piecewise_linear", 4, R_DEFAULT)
    mats = build_disco_matrices(sensors, sensors, basis)
    rng = np.random.default_rng(3)
    layer = DiscoLayer(basis, mats, rng.standard_normal((2, 2, 4)))
    f = rng.standard_normal((2, layer.n_in)) + 1j * rng.standard_normal((2, layer.n_in))
    g = rng.standard_normal((2, layer.n_in))
    lhs = disco_apply(layer, 1.5 * f - 2.0 * g)
    rhs = 1.5 * disco_apply(layer, f) - 2.0 * disco_apply(layer, g)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-15)


def test_disco_rotation_consistency():
    sensors = build_hemisphere_grid(12, 24, 1.0)
    basis = make_kernel_basis("zernike", 4, R_DEFAULT)
    mats = build_disco_matrices(sensors, sensors, basis)
    rng = np.random.default_rng(4)
    layer = DiscoLayer(basis, mats, rng.standard_normal((1, 1, 4)))
    f = rng.standard_normal((1, layer.n_in))
    assert rotation_consistency_error(layer, sensors, f) < 1e-6


def test_disco_shape_mismatch_rejected():
    basis = make_kernel_basis("zernike", 1, R_DEFAULT)
    eye = sparse.identity(6, format="csr")
    layer = DiscoLayer(basis, [eye], np.ones((1, 1, 1)))
    with pytest.raises(ValueError):
        disco_apply(layer, np.ones((2, 6)))
    with pytest.raises(ValueError):
        disco_apply(layer, np.ones((1, 5)))


def test_fno_identity_configuration():
    rng = np.random.default_rng(5)
    f = rng.random((2, 12, 16, 6))
    layer = fno_identity_layer(2, (12, 16, 6), activation="relu")
    out = fno_layer_apply(layer, f)
    assert np.abs(out - f).max() < 1e-10


def test_fno_zero_input_gives_rectified_bias():
    layer = fno_random_layer(3, (8, 8, 4), (2, 2, 4), seed=6)
    out = fno_layer_apply(layer, np.zeros((3, 8, 8, 4)))
    expect = np.maximum(layer.bias, 0.0)[:, None, None, None]
    assert np.allclose(out, np.broadcast_to(expect, out.shape), atol=1e-14)


def test_fno_out_of_band_mode_rejected_exactly():
    n_theta, n_phi, n_k = 16, 16, 4
    layer = fno_random_layer(1, (n_theta, n_phi, n_k), (3, 3, 4), seed=7,
                             activation="identity")
    layer.pointwise = np.eye(1)
    layer.bias = np.zeros(1)
    tt = np.arange(n_theta)[:, None, None]
    pp = np.arange(n_phi)[None, :, None]
    f = np.exp(2j * np.pi * (5 * tt / n_theta + 4 * pp / n_phi))
    f = np.broadcast_to(f, (1, n_theta, n_phi, n_k)).astype(np.complex128)
    out = fno_layer_apply(layer, f)
    assert np.abs(out).max() < 1e-10
    spec = np.fft.fft2(out, axes=(1, 2))
    assert np.abs(spec).max() < 1e-8


def test_fno_truncation_is_projection():
    from pact.checks import _truncated_identity

    rng = np.random.default_rng(8)
    f = rng.standard_normal((2, 12, 12, 5)) + 1j * rng.standard_normal((2, 12, 12, 5))
    proj = _truncated_identity(2, (12, 12, 5), (3, 4, 3))
    once = fno_layer_apply(proj, f)
    twice = fno_layer_apply(proj, once)
    assert np.abs(twice - once).max() / np.abs(once).max() < 1e-10


def test_fno_modes_must_fit_grid():
    layer = fno_identity_layer(1, (8, 8, 4))
    with pytest.raises(ValueError):
        fno_layer_apply(layer, np.zeros((1, 6, 8, 4)))  # J_theta = 4 > 6 // 2
    bad = FnoLayer((2, 2, 9), np.ones((1, 5, 5, 9), dtype=complex), np.eye(1),
                   np.zeros(1))
    with pytest.raises(ValueError):
        fno_layer_apply(bad, np.zeros((1, 8, 8, 4)))


def test_check_suites_all_pass():
    sensors = build_hemisphere_grid(16, 32, 1.0)
    disco = run_disco_checks(sensors=sensors)
    # The per-output cap tolerance is calibrated for 64x128; skip it here.
    for name, ok, detail in disco:
        if name != "cap-area-quadrature":
            assert ok, f"{name}: {detail}"
    for name, ok, detail in run_fno_checks():
        assert ok, f"{name}: {detail}"

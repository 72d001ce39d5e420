import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from pact.errors import BasisSupportError
from pact.checks import (
    ball_average_error,
    cap_area,
    rotation_consistency_error,
    run_disco_checks,
    run_fno_checks,
)
from pact.geometry import (
    SamplingPattern,
    SensorArray,
    apply_sampling_pattern,
    build_hemisphere_grid,
    quadrature_weights,
)
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
    # float difference.  The paths agree to round-off, coincident points
    # included: there rho is 0 on the table path and of order 1e-16 on the
    # float path.
    out = build_hemisphere_grid(32, 64, 1.0)
    sensors = apply_sampling_pattern(out, SamplingPattern.parse(pattern))
    basis = make_kernel_basis(kind, 4, R_DEFAULT)
    lattice = build_disco_matrices(sensors, out, basis)
    general = build_disco_matrices(sensors, out.positions, basis)
    scale = max(np.abs(m.data).max() for m in lattice)
    for a, b in zip(lattice, general):
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert (np.abs(a.data - b.data) / scale).max() < 1e-12


def _dense_disco_reference(in_pts, out_pts, basis):
    """(values of each K^l, indices, indptr) from every output row paired with
    every input through the build's formulas, or the count of empty rows the
    build must report when more than a tenth are empty."""
    def angles(pts):
        if isinstance(pts, SensorArray):
            return pts.angles[pts.active_indices].T
        x, y, z = (pts / np.linalg.norm(pts, axis=1)[:, None]).T
        return np.arccos(z), np.arctan2(y, x)

    (th_in, ph_in), (th_out, ph_out) = angles(in_pts), angles(out_pts)
    q = quadrature_weights(in_pts)[in_pts.active_indices]
    if isinstance(out_pts, SensorArray) and out_pts.n_phi == in_pts.n_phi:
        n = in_pts.n_phi
        col = (in_pts.active_indices[None, :] - out_pts.active_indices[:, None]) % n
        steps = np.arange(n) * (2.0 * np.pi / n)
        sin_d, cos_d = np.sin(steps)[col], np.cos(steps)[col]
    else:
        dphi = (ph_in[None, :] - ph_out[:, None]) % (2.0 * np.pi)
        sin_d, cos_d = np.sin(dphi), np.cos(dphi)
    ci, si = np.cos(th_in)[None, :], np.sin(th_in)[None, :]
    co, so = np.cos(th_out)[:, None], np.sin(th_out)[:, None]
    cos_rho = ci * co + si * so * cos_d
    near = cos_rho >= np.cos(basis.r)
    counts = np.count_nonzero(near, axis=1)
    empty = int(np.count_nonzero(counts == 0))
    if empty > 0.1 * th_out.size:
        return empty
    east, north = si * sin_d, ci * so - si * co * cos_d
    rho = np.minimum(np.arctan2(np.sqrt(east * east + north * north), cos_rho), basis.r)
    phi = np.arctan2(north, east)
    rows, cols = np.nonzero(near)
    vals = eval_kernel_basis(basis, rho, phi)[rows, cols] * q[cols][:, None]
    return list(vals.T), cols, np.concatenate([[0], np.cumsum(counts)])


def _sphere_points(thetas, phis):
    return np.stack([np.sin(thetas) * np.cos(phis), np.sin(thetas) * np.sin(phis),
                     np.cos(thetas)], axis=1)


@st.composite
def disco_builds(draw):
    """(input array, output points, basis).

    Inputs are a sensor array of up to 12x24 under any sampling pattern.
    Outputs are another sampled array with the same azimuth count (the
    integer-column path) or another (the float path), random unit vectors,
    or the inputs moved 1e-9 to 5e-8 rad in colatitude.  r is drawn freely,
    the colatitude gap of a drawn output/input pair nudged by a few ulps, so
    that pair sits on the edge of the colatitude band a block of rows
    searches, or below 1e-8 rad for the moved inputs.
    """
    def sampled(n_theta, n_phi):
        pattern = SamplingPattern(draw(st.sampled_from(["full", "uniform", "limaz", "limel"])),
                                  rate=draw(st.integers(1, n_phi)),
                                  arc_deg=draw(st.floats(1.0, 360.0)),
                                  fraction=draw(st.floats(0.01, 1.0)))
        return apply_sampling_pattern(build_hemisphere_grid(n_theta, n_phi, 1.0), pattern)

    n_theta, n_phi = draw(st.integers(1, 12)), draw(st.integers(1, 24))
    sensors = sampled(n_theta, n_phi)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["same azimuths", "other grid", "unit vectors", "moved inputs"]))
    if kind == "same azimuths":
        out = sampled(draw(st.integers(1, 12)), n_phi)
    elif kind == "other grid":
        out = sampled(draw(st.integers(1, 12)), draw(st.integers(1, 24)))
    elif kind == "unit vectors":
        size = draw(st.integers(1, 80))
        out = _sphere_points(rng.uniform(0.0, np.pi / 2, size), rng.uniform(-np.pi, np.pi, size))
    else:
        th, ph = sensors.angles[sensors.active_indices].T
        out = _sphere_points(th + rng.uniform(1e-9, 5e-8, th.size), ph)
    th_out = (out.angles[out.active_indices, 0] if isinstance(out, SensorArray)
              else np.arccos(np.clip(out[:, 2], -1.0, 1.0)))
    if kind == "moved inputs":
        r = draw(st.floats(1e-11, 1e-8))
    elif draw(st.booleans()):
        r = draw(st.floats(0.2, np.pi / 2))
    else:
        th_in = sensors.angles[sensors.active_indices, 0]
        r = abs(th_out[draw(st.integers(0, th_out.size - 1))]
                - th_in[draw(st.integers(0, th_in.size - 1))])
        for _ in range(abs(nudge := draw(st.integers(-4, 4)))):
            r = np.nextafter(r, np.copysign(np.inf, nudge))
        assume(0.0 < r <= np.pi / 2)
    basis_kind = draw(st.sampled_from(["zernike", "haar", "piecewise_linear"]))
    L = draw(st.sampled_from([1, 2, 4, 8]) if basis_kind == "haar" else st.integers(2, 6))
    return sensors, out, make_kernel_basis(basis_kind, L, float(r))


_MOVED = build_hemisphere_grid(16, 32, 1.0)


@settings(max_examples=200, deadline=None)
@given(case=disco_builds())
# Points 3e-9 rad from their inputs pass the neighbour test at r = 1e-10:
# a band of r plus 1e-9 would drop them.
@example(case=(_MOVED, _sphere_points(_MOVED.angles[:, 0] + 3e-9, _MOVED.angles[:, 1]),
               make_kernel_basis("zernike", 1, 1e-10)))
def test_disco_build_matches_dense_reference(case):
    in_pts, out_pts, basis = case
    ref = _dense_disco_reference(in_pts, out_pts, basis)
    if isinstance(ref, int):
        with pytest.raises(BasisSupportError, match=re.escape(f"{ref} of ")):
            build_disco_matrices(in_pts, out_pts, basis)
        return
    values, indices, indptr = ref
    mats = build_disco_matrices(in_pts, out_pts, basis)
    assert len(mats) == basis.L
    for m, v in zip(mats, values):
        assert m.shape == (indptr.size - 1, in_pts.active_indices.size)
        assert np.array_equal(m.indptr, indptr) and np.array_equal(m.indices, indices)
        assert m.data.dtype == np.float64 and m.data.tobytes() == v.tobytes()


def test_disco_build_peak_memory_stays_near_its_output():
    # 1.5x sits between a build that holds each entry once plus one block of
    # rows' work arrays (1.27x here) and one that holds every entry twice, in
    # per-row lists and in the result (1.85x).
    sensors = build_hemisphere_grid(32, 64, 1.0)
    basis = make_kernel_basis("zernike", 4, R_DEFAULT)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mats = build_disco_matrices(sensors, sensors, basis)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    held = {a.__array_interface__["data"][0]: a.nbytes
            for m in mats for a in (m.data, m.indices, m.indptr)}
    assert peak <= 1.5 * sum(held.values())


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

"""Property suites behind ``pact disco-check`` and ``pact fno-check``.

Each check returns (name, passed, detail); the CLI prints one line per
property and exits nonzero if any fails.
"""

import numpy as np

from .geometry import build_hemisphere_grid
from .neuralop import (
    DiscoLayer,
    build_disco_matrices,
    disco_apply,
    eval_kernel_basis,
    fno_identity_layer,
    fno_layer_apply,
    fno_random_layer,
    make_kernel_basis,
)


def cap_area(r, radius_m=1.0):
    """Area of the geodesic ball of radius r on a sphere of radius radius_m."""
    return 2.0 * np.pi * (1.0 - np.cos(r)) * radius_m**2


def _constant_kernel_theta(basis):
    """Coefficients representing kappa == 1 on the ball, if the basis has them."""
    if basis.kind in ("zernike", "haar"):
        theta = np.zeros((1, 1, basis.L))
        theta[0, 0, 0] = 1.0
        return theta
    return None


def interior_output_mask(sensors, r):
    """Active elements whose geodesic ball stays inside the hemisphere."""
    ids = sensors.active_indices
    theta = sensors.angles[ids, 0]
    return (theta >= r) & (theta <= np.pi / 2.0 - r)


def ball_average_error(basis, n_theta, n_phi, radius_m=1.0):
    """Mean relative error of the constant-kernel ball sum vs the cap area."""
    quad_basis = basis
    if _constant_kernel_theta(basis) is None:
        # Constant kernels are outside the piecewise-linear span; check the
        # quadrature with the ball indicator instead.
        quad_basis = make_kernel_basis("haar", 1, basis.r)
    sensors = build_hemisphere_grid(n_theta, n_phi, radius_m)
    mats = build_disco_matrices(sensors, sensors, quad_basis)
    theta = _constant_kernel_theta(quad_basis)
    layer = DiscoLayer(quad_basis, mats, theta)
    ones = np.ones((1, layer.n_in))
    out = disco_apply(layer, ones)[0]
    mask = interior_output_mask(sensors, quad_basis.r)
    if not mask.any():
        raise ValueError(f"no output ball of radius r={basis.r:g} lies inside the hemisphere "
                         f"on the {n_theta}x{n_phi} grid")
    target = cap_area(quad_basis.r, radius_m)
    rel = np.abs(out[mask] - target) / target
    return float(rel.mean()), float(rel.max())


def run_disco_checks(basis_kind="zernike", L=4, r=0.1 * np.pi, sensors=None, seed=0):
    results = []
    rng = np.random.default_rng(seed)
    basis = make_kernel_basis(basis_kind, L, r)
    if sensors is None:
        sensors = build_hemisphere_grid(64, 128, 1.0)

    # Compact support of the basis itself.
    vals = eval_kernel_basis(basis, np.array([1.5 * r]), np.array([0.3]))
    passed = bool(np.all(vals == 0.0))
    results.append(("basis-compact-support", passed,
                    f"max |b(1.5 r)| = {np.abs(vals).max():.3g}"))

    # Azimuth periodicity.
    rho = rng.uniform(0, r, 64)
    phi = rng.uniform(0, 2 * np.pi, 64)
    d = np.abs(eval_kernel_basis(basis, rho, phi)
               - eval_kernel_basis(basis, rho, phi + 2 * np.pi))
    results.append(("basis-azimuth-periodic", bool(d.max() < 1e-9),
                    f"max drift {d.max():.3g}"))

    mats = build_disco_matrices(sensors, sensors, basis)

    # Sparsity respects the geodesic ball.
    ids = sensors.active_indices
    units = sensors.positions[ids] / sensors.radius_m
    pattern = sum(abs(m) for m in mats).tocoo()
    dots = np.einsum("ij,ij->i", units[pattern.row], units[pattern.col])
    dist = np.arccos(np.clip(dots, -1, 1))
    worst = float(dist.max()) if dist.size else 0.0
    results.append(("support-sparsity", bool(worst <= r + 1e-12),
                    f"farthest coupled pair at {worst:.4f} rad (r = {r:.4f})"))

    # Constant-kernel quadrature vs analytic cap area.  Boundary cells enter
    # all-or-nothing, so single outputs fluctuate a few times more than the
    # mean; the ball average is held to 2% and each output to 5%.
    mean_err, max_err = ball_average_error(basis, sensors.n_theta, sensors.n_phi,
                                           sensors.radius_m)
    results.append(("cap-area-quadrature", bool(mean_err < 0.02 and max_err < 0.05),
                    f"mean rel err {mean_err:.4f}, max {max_err:.4f}"))

    # Refinement convergence of the quadrature (three grids, rate >= 0.9).
    errs = [ball_average_error(basis, nt, 2 * nt, sensors.radius_m)[0]
            for nt in (16, 32, 64)]
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    results.append(("quadrature-convergence", bool(min(rates) >= 0.9),
                    f"errors {errs[0]:.2e} -> {errs[1]:.2e} -> {errs[2]:.2e}, "
                    f"rates {rates[0]:.2f}, {rates[1]:.2f}"))

    # Shrinking support keeps only the self entry.
    tiny = _min_spacing(sensors) * 0.45
    tiny_basis = make_kernel_basis("haar", 1, tiny)
    tiny_mats = build_disco_matrices(sensors, sensors, tiny_basis)
    nnz_per_row = np.diff(tiny_mats[0].indptr)
    results.append(("shrinking-support", bool(np.all(nnz_per_row == 1)),
                    f"rows with != 1 entry: {int(np.sum(nnz_per_row != 1))}"))

    # Exact linearity of the layer.
    theta = rng.standard_normal((2, 3, basis.L))
    layer = DiscoLayer(basis, mats, theta)
    f = rng.standard_normal((3, layer.n_in))
    g = rng.standard_normal((3, layer.n_in))
    lhs = disco_apply(layer, 2.5 * f - 1.25 * g)
    rhs = 2.5 * disco_apply(layer, f) - 1.25 * disco_apply(layer, g)
    scale = np.abs(rhs).max()
    lin_err = np.abs(lhs - rhs).max() / max(scale, 1e-300)
    results.append(("superposition", bool(lin_err < 1e-12), f"rel err {lin_err:.2e}"))

    # Grid-step rotation about the polar axis commutes with the layer.
    rot_err = rotation_consistency_error(layer, sensors, f)
    results.append(("azimuth-rotation", bool(rot_err < 1e-6), f"rel err {rot_err:.2e}"))
    return results


def _min_spacing(sensors):
    ids = sensors.active_indices
    theta = sensors.angles[ids, 0]
    d_theta = (np.pi / 2.0) / sensors.n_theta
    d_phi = 2.0 * np.pi / sensors.n_phi
    # Nearest neighbors are either along a ring or along a meridian.
    ring = np.sin(theta.min()) * d_phi
    return min(ring, d_theta)


def rotation_consistency_error(layer, sensors, f):
    """Relative error between rotate-then-apply and apply-then-rotate."""
    if int(np.count_nonzero(sensors.active)) != sensors.n_elements:
        raise ValueError("rotation check needs a fully active grid")
    n_phi = sensors.n_phi
    c = f.shape[0]
    f_grid = f.reshape(c, sensors.n_theta, n_phi)
    f_rot = np.roll(f_grid, 1, axis=2).reshape(c, -1)
    out = disco_apply(layer, f)
    out_rot = disco_apply(layer, f_rot)
    expected = np.roll(out.reshape(-1, sensors.n_theta, n_phi), 1, axis=2)
    expected = expected.reshape(out_rot.shape)
    scale = np.abs(expected).max()
    return float(np.abs(out_rot - expected).max() / max(scale, 1e-300))


def run_fno_checks(n_theta=16, n_phi=32, n_k=8, channels=2, modes=(4, 4, 8), seed=0):
    results = []
    rng = np.random.default_rng(seed)
    shape = (n_theta, n_phi, n_k)
    f = rng.random((channels,) + shape)  # nonnegative real input

    ident = fno_identity_layer(channels, shape, activation="relu")
    out = fno_layer_apply(ident, f)
    err = np.abs(out - f).max()
    results.append(("identity-configuration", bool(err < 1e-10), f"max err {err:.2e}"))

    # Out-of-band input modes vanish in the pre-activation output.
    j_theta, j_phi, j_k = modes
    layer = fno_random_layer(channels, shape, modes, seed=seed, activation="identity")
    layer.pointwise = np.eye(channels)
    layer.bias = np.zeros(channels)
    mode_field = np.zeros((channels,) + shape, dtype=np.complex128)
    xi_t, xi_p = j_theta + 1, j_phi + 1
    grid_t = np.arange(n_theta)[:, None, None]
    grid_p = np.arange(n_phi)[None, :, None]
    mode_field[:] = np.exp(2j * np.pi * (xi_t * grid_t / n_theta + xi_p * grid_p / n_phi))
    out = fno_layer_apply(layer, mode_field)
    leak = np.abs(out).max()
    results.append(("out-of-band-rejection", bool(leak < 1e-10), f"max leak {leak:.2e}"))

    # Truncation acts as a projection: applying twice equals applying once.
    proj = _truncated_identity(channels, shape, modes)
    once = fno_layer_apply(proj, f.astype(np.complex128))
    twice = fno_layer_apply(proj, once)
    perr = np.abs(twice - once).max() / max(np.abs(once).max(), 1e-300)
    results.append(("projection-idempotence", bool(perr < 1e-10), f"rel err {perr:.2e}"))

    # Zero input propagates the rectified bias.
    blayer = fno_random_layer(channels, shape, modes, seed=seed + 1, activation="relu")
    out = fno_layer_apply(blayer, np.zeros((channels,) + shape))
    expect = np.maximum(blayer.bias, 0.0)[:, None, None, None]
    berr = np.abs(out - expect).max()
    results.append(("zero-input-bias", bool(berr < 1e-12), f"max err {berr:.2e}"))
    return results


def _truncated_identity(channels, shape, modes):
    """Identity multiplier restricted to the retained modes."""
    from .neuralop import FnoLayer, _retained_indices

    n_theta, n_phi, _ = shape
    it = _retained_indices(n_theta, modes[0])
    ip = _retained_indices(n_phi, modes[1])
    weights = np.ones((channels, it.size, ip.size, modes[2]), dtype=np.complex128)
    return FnoLayer(tuple(modes), weights, np.eye(channels), np.zeros(channels),
                    "identity")

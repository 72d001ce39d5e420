import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pact.recon_iter as recon_iter
from pact.forward import (
    ReceiveChain,
    adjoint_operator,
    forward_operator,
    projector_adjoint,
    projector_forward,
)
from pact.geometry import build_hemisphere_grid
from pact.phantom import default_tree_bbox, grow_vessel_tree, make_initial_pressure
from pact.recon_iter import (
    IterConfig,
    estimate_op_norm,
    fista_reconstruct,
    fista_solve,
    operator_pair,
    tv_huber,
)
from pact.volume import GridSpec, Volume

from conftest import greens_matrix


def test_op_norm_identity():
    grid = GridSpec((4, 4, 4), 1e-3)
    est = estimate_op_norm(lambda v: v, lambda v: v, grid, iters=10, seed=0)
    assert est == pytest.approx(1.0, abs=1e-6)


def test_op_norm_diagonal():
    grid = GridSpec((3, 1, 1), 1e-3)
    d = np.array([3.0, 1.0, 0.5])
    est = estimate_op_norm(lambda v: d * v, lambda v: d * v, grid, iters=50, seed=1)
    assert est == pytest.approx(3.0, abs=1e-4)


def test_op_norm_zero_operator():
    grid = GridSpec((4, 4, 4), 1e-3)
    z = lambda v: np.zeros_like(v)
    assert estimate_op_norm(z, z, grid, iters=5, seed=0) == 0.0


def test_op_norm_nondecreasing_estimates():
    grid = GridSpec((3, 1, 1), 1e-3)
    d = np.array([2.0, 1.5, 0.25])
    vals = [estimate_op_norm(lambda v: d * v, lambda v: d * v, grid, iters=k, seed=3)
            for k in range(3, 12)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_op_norm_matches_dense_svd(grid8, array10, medium, chain16):
    mat = greens_matrix(grid8, array10, medium, chain16)
    # Real-linear operator R^N -> C^M: stack real and imaginary rows.
    real_mat = np.vstack([mat.real, mat.imag])
    sigma = np.linalg.svd(real_mat, compute_uv=False)[0]

    def fwd(v):
        return mat @ v

    def adj(y):
        return np.real(mat.conj().T @ y)

    est = estimate_op_norm(fwd, adj, grid8, iters=60, seed=2)
    assert est == pytest.approx(sigma, rel=0.01)


def test_tv_constant_volume():
    val, grad = tv_huber(np.full((6, 6, 6), 2.7), 0.01)
    assert val == 0.0
    assert not np.any(grad)


def test_tv_step_slab_value():
    n = 8
    delta = 1e-3
    x = np.zeros((n, n, n))
    x[4:, :, :] = 1.0  # unit jump across one interior face
    val, _ = tv_huber(x, delta)
    assert val == pytest.approx((1.0 - delta / 2.0) * n * n, rel=1e-9)


def test_tv_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    step = 1e-4
    worst = 0.0
    for seed in range(3):
        x = np.random.default_rng(seed).random((8, 8, 8))
        _, grad = tv_huber(x, 0.01)
        for _ in range(10):
            i, j, k = rng.integers(0, 8, size=3)
            xp = x.copy()
            xp[i, j, k] += step
            xm = x.copy()
            xm[i, j, k] -= step
            fd = (tv_huber(xp, 0.01)[0] - tv_huber(xm, 0.01)[0]) / (2 * step)
            scale = max(abs(fd), abs(grad[i, j, k]), 1e-12)
            worst = max(worst, abs(fd - grad[i, j, k]) / scale)
    assert worst < 1e-4


def test_tv_rejects_bad_delta():
    with pytest.raises(ValueError):
        tv_huber(np.zeros((4, 4, 4)), 0.0)


def _identity_cfg(**kw):
    base = dict(lambda_tv=0.0, mu_tik=0.0, max_iters=300, rel_obj_tol=0.0,
                power_iters=5, nonneg=False)
    base.update(kw)
    return IterConfig(**base)


def test_fista_identity_operator_recovers_truth():
    grid = GridSpec((4, 4, 4), 1e-3)
    rng = np.random.default_rng(4)
    x_true = rng.random(grid.n_voxels)
    x, trace = fista_solve(lambda v: v, lambda v: v, x_true, grid, _identity_cfg())
    assert trace[-1] < 1e-12
    assert np.allclose(x, x_true, atol=1e-6)


def _wideband_setup(grid8, medium):
    # Wide retained band keeps the discrete operator well conditioned
    # (condition number ~17), so the solver oracles are meaningful.
    sensors = build_hemisphere_grid(4, 6, 0.1)
    chain = ReceiveChain(fs=20e6, n_t=100, n_freq=40)
    return sensors, chain


def test_fista_noiseless_consistency(grid8, medium):
    from pact.recon_iter import default_lambda

    sensors, chain = _wideband_setup(grid8, medium)
    rng = np.random.default_rng(5)
    x_true = Volume(rng.random((8, 8, 8)).astype(np.float32), grid8.pitch_m)
    psi = forward_operator(x_true, sensors, medium, chain)
    # Essentially unregularized: lambda two orders below the default weight.
    lam = 1e-2 * default_lambda(psi, sensors, medium, chain, grid8)
    cfg = IterConfig(lambda_tv=lam,
                     mu_tik=0.0, max_iters=200, rel_obj_tol=0.0, power_iters=15)
    vol, trace = fista_reconstruct(psi, sensors, medium, chain, grid8, cfg)
    resid = forward_operator(vol, sensors, medium, chain).values - psi.values
    rel = np.linalg.norm(resid) / np.linalg.norm(psi.values)
    assert rel < 1e-3
    assert vol.data.min() >= 0.0


def test_fista_matches_dense_least_squares(grid8, medium):
    # Materialized operator oracle: unprojected lambda=mu=0 FISTA converges to
    # the least-squares solution from a zero start.
    sensors, chain = _wideband_setup(grid8, medium)
    mat = greens_matrix(grid8, sensors, medium, chain)
    rng = np.random.default_rng(6)
    x_true = rng.random(grid8.n_voxels)
    y = mat @ x_true

    def fwd(v):
        return mat @ v

    def adj(z):
        return np.real(mat.conj().T @ z)

    real_mat = np.vstack([mat.real, mat.imag])
    real_y = np.concatenate([y.real, y.imag])
    x_ls, *_ = np.linalg.lstsq(real_mat, real_y, rcond=None)
    cfg = _identity_cfg(max_iters=2000, power_iters=40)
    x, trace = fista_solve(fwd, adj, y, grid8, cfg)
    assert np.linalg.norm(x - x_ls) / np.linalg.norm(x_ls) < 1e-4


def _dense_least_squares():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((80, 64))
    return mat, mat @ rng.standard_normal(64)


_DENSE_MAT, _DENSE_Y = _dense_least_squares()


@settings(max_examples=30, deadline=None)
@example(factor=0.75)
@example(factor=0.6)
@given(factor=st.floats(min_value=0.5, max_value=1.0))
def test_fista_converges_with_under_estimated_norm(factor):
    # A low ||A|| estimate makes early steps overshoot.  Backtracking must
    # recover the step, and neither a rejected step nor a momentum ripple may
    # end the solve through the relative-drop test.
    mat, y = _DENSE_MAT, _DENSE_Y
    grid = GridSpec((4, 4, 4), 1e-3)
    cfg = IterConfig(max_iters=500, rel_obj_tol=1e-3, nonneg=False,
                     op_norm=factor * np.linalg.norm(mat, 2))
    _, trace = fista_solve(lambda v: mat @ v, lambda r: mat.T @ r, y, grid, cfg)
    assert trace[-1] < 1e-4
    assert np.all(np.diff(trace) <= 1e-9 * trace[0])


def test_fista_applies_each_operator_once_per_iteration(grid8, medium, monkeypatch):
    sensors, chain = _wideband_setup(grid8, medium)
    x_true = Volume(np.random.default_rng(8).random((8, 8, 8)).astype(np.float32),
                    grid8.pitch_m)
    psi = forward_operator(x_true, sensors, medium, chain)
    warm = adjoint_operator(psi, sensors, medium, chain, grid8)
    # Twice the power-iteration estimate bounds ||A||, so no step backtracks.
    A, At = operator_pair(sensors, medium, chain, grid8)
    cfg = IterConfig(max_iters=12, rel_obj_tol=0.0,
                     op_norm=2.0 * estimate_op_norm(A, At, grid8, iters=10, seed=0))
    calls = {"forward": 0, "adjoint": 0, "exact": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(recon_iter, "projector_forward",
                        counted("forward", projector_forward))
    monkeypatch.setattr(recon_iter, "projector_adjoint",
                        counted("adjoint", projector_adjoint))
    monkeypatch.setattr(recon_iter, "forward_operator", counted("exact", forward_operator))
    monkeypatch.setattr(recon_iter, "adjoint_operator", counted("exact", adjoint_operator))
    _, trace = fista_reconstruct(psi, sensors, medium, chain, grid8, cfg,
                                 warm_volume=warm)
    assert len(trace) == 1 + cfg.max_iters
    # One forward rescales the warm start; then one of each per iteration.
    # The solve never applies the exact pair.
    assert calls == {"forward": 1 + cfg.max_iters, "adjoint": cfg.max_iters, "exact": 0}


def test_fista_trace_is_monotone(grid8, array10, medium, chain16):
    rng = np.random.default_rng(7)
    x_true = Volume(rng.random((8, 8, 8)).astype(np.float32), grid8.pitch_m)
    psi = forward_operator(x_true, array10, medium, chain16)
    from pact.recon_iter import default_lambda

    lam = default_lambda(psi, array10, medium, chain16, grid8)
    cfg = IterConfig(lambda_tv=lam, mu_tik=0.1 * lam, max_iters=60,
                     rel_obj_tol=0.0, power_iters=10)
    _, trace = fista_reconstruct(psi, array10, medium, chain16, grid8, cfg)
    assert np.all(np.diff(trace) <= 1e-9 * trace[0])


def test_fista_warm_start_not_worse(grid8, medium):
    # Back-projection-style warm starts (here the adjoint of the data, the
    # same role UBP plays in the pipeline) never end above the zero start on
    # an equal iteration budget.
    from pact.recon_iter import default_lambda

    sensors, chain = _wideband_setup(grid8, medium)
    op_norm = None
    for seed in range(20):
        x_true = Volume(np.random.default_rng(seed).random((8, 8, 8)).astype(np.float32),
                        grid8.pitch_m)
        psi = forward_operator(x_true, sensors, medium, chain)
        warm = adjoint_operator(psi, sensors, medium, chain, grid8)
        lam = default_lambda(psi, sensors, medium, chain, grid8)
        cfg = IterConfig(lambda_tv=lam, max_iters=15, rel_obj_tol=0.0,
                         power_iters=10, op_norm=op_norm)
        _, tz = fista_reconstruct(psi, sensors, medium, chain, grid8, cfg)
        _, tw = fista_reconstruct(psi, sensors, medium, chain, grid8, cfg,
                                  warm_volume=warm)
        assert tw[-1] <= tz[-1] * (1 + 1e-6)
        if op_norm is None:
            # Geometry is shared across seeds; reuse one estimate.
            A, At = operator_pair(sensors, medium, chain, grid8)
            op_norm = estimate_op_norm(A, At, grid8, iters=10, seed=0)


def test_fista_discrepancy_stop(grid8, array10, medium, chain16):
    rng = np.random.default_rng(9)
    x_true = Volume(rng.random((8, 8, 8)).astype(np.float32), grid8.pitch_m)
    psi = forward_operator(x_true, array10, medium, chain16)
    target = 0.5 * float(np.sum(np.abs(psi.values) ** 2))
    cfg = IterConfig(lambda_tv=0.0, max_iters=500, rel_obj_tol=0.0,
                     power_iters=10, discrepancy_target=target)
    _, trace = fista_reconstruct(psi, array10, medium, chain16, grid8, cfg)
    assert len(trace) < 500  # stopped early once the residual hit the target
    assert 2.0 * trace[-1] <= target * (1 + 1e-12)


def test_fista_nonnegativity_is_exact(grid8, array10, medium, chain16):
    rng = np.random.default_rng(10)
    x_true = Volume(rng.random((8, 8, 8)).astype(np.float32), grid8.pitch_m)
    psi = forward_operator(x_true, array10, medium, chain16)
    noisy = psi.copy()
    noisy.values += 0.3 * np.abs(psi.values).max() * (
        rng.standard_normal(psi.values.shape)
        + 1j * rng.standard_normal(psi.values.shape)
    )
    cfg = IterConfig(lambda_tv=0.0, max_iters=30, rel_obj_tol=0.0, power_iters=10)
    vol, _ = fista_reconstruct(noisy, array10, medium, chain16, grid8, cfg)
    assert vol.data.min() >= 0.0


def test_phantom_and_fista_results_keep_float64(grid8, array10, medium, chain16):
    # Library results keep their float64 bits; only file output rounds to float32.
    p0 = make_initial_pressure(grow_vessel_tree(3, 4, default_tree_bbox(grid8)), grid8)
    psi = forward_operator(p0, array10, medium, chain16)
    cfg = IterConfig(max_iters=5, power_iters=3)
    vol, _ = fista_reconstruct(psi, array10, medium, chain16, grid8, cfg)
    for v in (p0, vol):
        assert v.data.dtype == np.float64
        assert not np.array_equal(v.data, v.data.astype(np.float32))


def test_iter_config_validation():
    with pytest.raises(ValueError):
        IterConfig(lambda_tv=-1.0)
    with pytest.raises(ValueError):
        IterConfig(huber_delta=0.0)
    with pytest.raises(ValueError):
        IterConfig(power_iters=2)

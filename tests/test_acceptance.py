"""Acceptance suite: each test pins one verification target with an explicit
tolerance and runtime budget.  Run with ``pytest tests/test_acceptance.py -v
-s`` to see one PASS line per criterion.

Criteria 4 and 5 share one phantom batch (the subsampling sweep reuses the
solver-ordering reconstructions), so their runtime budget is bundled.
"""

import math
import time

import numpy as np
import pytest

from pact.checks import (
    ball_average_error,
    rotation_consistency_error,
    run_fno_checks,
)
from pact.forward import (
    AcousticMedium,
    PhysicsMask,
    ReceiveChain,
    Spectra,
    default_receive_chain,
    forward_operator,
    physics_residual,
    sample_physics_mask,
    to_time_domain,
)
from pact.geometry import (
    SamplingPattern,
    apply_sampling_pattern,
    build_hemisphere_grid,
)
from pact.metrics import cosine_similarity, nmse, psnr
from pact.neuralop import (
    DiscoLayer,
    build_disco_matrices,
    make_kernel_basis,
)
from pact.phantom import default_tree_bbox, grow_vessel_tree, make_initial_pressure
from pact.recon_iter import (
    IterConfig,
    default_lambda,
    estimate_op_norm,
    fista_reconstruct,
    fista_solve,
    operator_pair,
    tv_huber,
)
from pact.recon_ubp import UbpConfig, ubp_filter, ubp_reconstruct
from pact.volume import GridSpec, Volume

from conftest import greens_matrix

THREADS = 2


def _report(n, elapsed, limit, detail):
    print(f"[criterion {n:2d}] PASS in {elapsed:5.1f}s (limit {limit:g}s) - {detail}")


# --------------------------------------------------------------------------
# 1. Adjoint correctness


def test_c01_adjoint_dot_product():
    t0 = time.perf_counter()
    from pact.forward import adjoint_operator

    medium = AcousticMedium()
    grid = GridSpec((8, 8, 8), 1e-3)
    sensors = build_hemisphere_grid(2, 5, 0.1)
    chain = ReceiveChain(fs=20e6, n_t=2000, n_freq=16)
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        x = Volume(rng.random((8, 8, 8)).astype(np.float32), grid.pitch_m)
        ax = forward_operator(x, sensors, medium, chain)
        y = rng.standard_normal(ax.values.shape) + 1j * rng.standard_normal(ax.values.shape)
        aty = adjoint_operator(Spectra(y, chain.freq_hz, sensors.active_indices),
                               sensors, medium, chain, grid)
        lhs = float(np.real(np.sum(np.conj(ax.values) * y)))
        rhs = float(np.sum(x.data.astype(np.float64) * aty.data.astype(np.float64)))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 10.0
    _report(1, elapsed, 10, f"20 trials, worst relative error {worst:.2e}")


# --------------------------------------------------------------------------
# 2. Analytic forward oracle


def test_c02_single_voxel_closed_form():
    t0 = time.perf_counter()
    medium = AcousticMedium()
    h = 1e-3
    grid = GridSpec((1, 1, 1), h, origin_m=(0.0, 0.0, 0.0))
    vol = grid.zeros()
    vol.data[0, 0, 0] = 1.0
    sensors = build_hemisphere_grid(3, 7, 0.09)
    chain = ReceiveChain(fs=20e6, n_t=1500, n_freq=149)
    psi = forward_operator(vol, sensors, medium, chain)
    R = np.linalg.norm(sensors.positions, axis=1)
    expect = h**3 * np.exp(1j * chain.omega[None, :] * R[:, None] / medium.c0) / (
        4 * np.pi * R[:, None]
    )
    err = float((np.abs(psi.values - expect) / np.abs(expect)).max())
    elapsed = time.perf_counter() - t0
    assert err < 1e-10
    assert elapsed < 1.0
    _report(2, elapsed, 1, f"21 detectors x 149 bins, worst relative error {err:.2e}")


# --------------------------------------------------------------------------
# 3. UBP localization


def test_c03_ubp_localization():
    t0 = time.perf_counter()
    medium = AcousticMedium()
    grid = GridSpec((64, 64, 64), 5e-4)
    sensors = build_hemisphere_grid(32, 128, 0.05)
    chain = default_receive_chain(sensors, grid, medium, fs=20e6, n_freq=80,
                                  center_hz=1.2e6, fractional_bw=1.0,
                                  derivative=True)
    truth1, truth2 = (40, 28, 36), (20, 40, 24)
    src = grid.zeros()
    src.data[truth1] = 1.0
    src.data[truth2] = 0.5
    psi = forward_operator(src, sensors, medium, chain, threads=THREADS)
    traces = ubp_filter(to_time_domain(psi, chain), 1.0 / chain.fs)
    rec = ubp_reconstruct(traces, sensors, grid, UbpConfig(), fs=chain.fs,
                          threads=1)
    peak = np.unravel_index(np.argmax(np.abs(rec.data)), rec.shape)
    off = max(abs(np.array(peak) - truth1))
    p1 = float(np.abs(rec.data[38:43, 26:31, 34:39]).max())
    p2 = float(np.abs(rec.data[18:23, 38:43, 22:27]).max())
    ratio = p1 / p2
    elapsed = time.perf_counter() - t0
    assert off <= 1
    assert ratio == pytest.approx(2.0, rel=0.15)
    assert elapsed < 60.0
    _report(3, elapsed, 60,
            f"argmax offset {off} voxel, amplitude ratio {ratio:.3f} (true 2.0)")


# --------------------------------------------------------------------------
# 4 & 5. Solver ordering and subsampling monotonicity (shared batch)

_BATCH = {}


def _phantom_batch():
    if _BATCH:
        return _BATCH
    t0 = time.perf_counter()
    medium = AcousticMedium()
    grid = GridSpec((48, 48, 48), 5e-4)
    full = build_hemisphere_grid(10, 36, 0.045)
    chain = default_receive_chain(full, grid, medium, fs=20e6, n_freq=40,
                                  center_hz=0.8e6, fractional_bw=1.2,
                                  derivative=True)
    patterns = ["full", "uniform:6", "uniform:10", "uniform:20"]
    arrays = {p: apply_sampling_pattern(full, SamplingPattern.parse(p))
              for p in patterns}

    op_norm = None
    ubp_cos = {p: [] for p in patterns}
    iter_cos = []
    for seed in range(10):
        tree = grow_vessel_tree(seed, 12, default_tree_bbox(grid))
        gt = make_initial_pressure(tree, grid, sigma_vox=1.0)
        psi_full = forward_operator(gt, full, medium, chain, threads=THREADS)
        for p in patterns:
            sub = arrays[p]
            keep = np.isin(psi_full.detector_ids, sub.active_indices)
            psi = Spectra(psi_full.values[keep], chain.freq_hz,
                          psi_full.detector_ids[keep])
            traces = ubp_filter(to_time_domain(psi, chain), 1.0 / chain.fs)
            rec = ubp_reconstruct(traces, sub, grid, UbpConfig(), fs=chain.fs,
                                  threads=1)
            ubp_cos[p].append(cosine_similarity(gt, rec))
            if p == "uniform:6":
                lam = default_lambda(psi, sub, medium, chain, grid,
                                     threads=THREADS)
                if op_norm is None:
                    A, At = operator_pair(sub, medium, chain, grid, threads=THREADS)
                    op_norm = estimate_op_norm(A, At, grid, iters=12, seed=0)
                cfg = IterConfig(lambda_tv=lam, max_iters=10, rel_obj_tol=0.0,
                                 power_iters=12, op_norm=op_norm,
                                 threads=THREADS)
                it_rec, trace = fista_reconstruct(psi, sub, medium, chain,
                                                  grid, cfg, warm_volume=rec)
                assert np.all(np.diff(trace) <= 1e-9 * trace[0])
                iter_cos.append(cosine_similarity(gt, it_rec))
    _BATCH["ubp_cos"] = ubp_cos
    _BATCH["iter_cos"] = iter_cos
    _BATCH["elapsed"] = time.perf_counter() - t0
    return _BATCH


def test_c04_solver_ordering():
    batch = _phantom_batch()
    mean_ubp = float(np.mean(batch["ubp_cos"]["uniform:6"]))
    mean_iter = float(np.mean(batch["iter_cos"]))
    elapsed = batch["elapsed"]
    assert mean_iter >= mean_ubp + 0.03
    assert elapsed < 1200.0
    _report(4, elapsed, 1200,
            f"mean cosine iter {mean_iter:.3f} vs UBP {mean_ubp:.3f} at 6x "
            f"(+{100 * (mean_iter - mean_ubp):.1f} points over 10 phantoms)")


def test_c05_subsampling_monotonicity():
    batch = _phantom_batch()
    means = [float(np.mean(batch["ubp_cos"][p]))
             for p in ("full", "uniform:6", "uniform:10", "uniform:20")]
    assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
    _report(5, 0.0, 1200,
            "UBP mean cosine " + " >= ".join(f"{m:.3f}" for m in means)
            + " across 1x/6x/10x/20x")


# --------------------------------------------------------------------------
# 6. FISTA sanity


def test_c06_fista_sanity():
    t0 = time.perf_counter()
    medium = AcousticMedium()
    grid = GridSpec((8, 8, 8), 1e-3)
    sensors = build_hemisphere_grid(4, 6, 0.1)
    chain = ReceiveChain(fs=20e6, n_t=100, n_freq=40)

    # Monotone objective on a regularized run.
    rng = np.random.default_rng(66)
    x_true = Volume(rng.random((8, 8, 8)).astype(np.float32), grid.pitch_m)
    psi = forward_operator(x_true, sensors, medium, chain)
    lam = default_lambda(psi, sensors, medium, chain, grid)
    cfg = IterConfig(lambda_tv=lam, max_iters=50, rel_obj_tol=0.0, power_iters=15)
    _, trace = fista_reconstruct(psi, sensors, medium, chain, grid, cfg)
    assert np.all(np.diff(trace) <= 1e-9 * trace[0])

    # lambda = mu = 0, no projection: matches the dense least-squares solution.
    mat = greens_matrix(grid, sensors, medium, chain)
    y = mat @ rng.random(grid.n_voxels)
    real_mat = np.vstack([mat.real, mat.imag])
    x_ls, *_ = np.linalg.lstsq(real_mat, np.concatenate([y.real, y.imag]),
                               rcond=None)
    cfg = IterConfig(lambda_tv=0.0, mu_tik=0.0, max_iters=2000, rel_obj_tol=0.0,
                     power_iters=40, nonneg=False)
    x, _ = fista_solve(lambda v: mat @ v, lambda z: np.real(mat.conj().T @ z),
                       y, grid, cfg)
    rel = float(np.linalg.norm(x - x_ls) / np.linalg.norm(x_ls))
    elapsed = time.perf_counter() - t0
    assert rel < 1e-4
    assert elapsed < 60.0
    _report(6, elapsed, 60,
            f"monotone trace; normal-equations match {rel:.2e} relative")


# --------------------------------------------------------------------------
# 7. TV gradient


def test_c07_tv_gradient():
    t0 = time.perf_counter()
    step = 1e-4
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.random((6, 6, 6))
        _, grad = tv_huber(x, 0.01)
        pick = np.random.default_rng(100 + seed)
        for _ in range(20):
            i, j, k = pick.integers(0, 6, size=3)
            xp = x.copy()
            xp[i, j, k] += step
            xm = x.copy()
            xm[i, j, k] -= step
            fd = (tv_huber(xp, 0.01)[0] - tv_huber(xm, 0.01)[0]) / (2 * step)
            scale = max(abs(fd), abs(grad[i, j, k]), 1e-12)
            worst = max(worst, abs(fd - grad[i, j, k]) / scale)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-3
    assert elapsed < 5.0
    _report(7, elapsed, 5,
            f"10 seeds x 20 voxels, worst relative FD mismatch {worst:.2e}")


# --------------------------------------------------------------------------
# 8. DISCO quadrature


def test_c08_disco_quadrature():
    t0 = time.perf_counter()
    basis = make_kernel_basis("zernike", 4, 0.1 * np.pi)
    mean_err, max_err = ball_average_error(basis, 64, 128)
    errs = [ball_average_error(basis, nt, 2 * nt)[0] for nt in (16, 32, 64)]
    rates = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    elapsed = time.perf_counter() - t0
    # Ball average within 2%; single outputs fluctuate more (boundary cells
    # enter all-or-nothing) and are held to 5%.
    assert mean_err < 0.02
    assert max_err < 0.05
    assert min(rates) >= 0.9
    assert elapsed < 30.0
    _report(8, elapsed, 30,
            f"cap-area mean err {mean_err:.4f} (max {max_err:.4f}); "
            f"convergence rates {rates[0]:.2f}, {rates[1]:.2f}")


# --------------------------------------------------------------------------
# 9. DISCO azimuthal consistency


def test_c09_disco_rotation():
    t0 = time.perf_counter()
    sensors = build_hemisphere_grid(16, 32, 1.0)
    rng = np.random.default_rng(9)
    worst = 0.0
    for kind, L in (("zernike", 4), ("piecewise_linear", 4), ("haar", 4)):
        basis = make_kernel_basis(kind, L, 0.1 * np.pi)
        mats = build_disco_matrices(sensors, sensors, basis)
        layer = DiscoLayer(basis, mats, rng.standard_normal((2, 2, L)))
        f = rng.standard_normal((2, layer.n_in))
        worst = max(worst, rotation_consistency_error(layer, sensors, f))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 10.0
    _report(9, elapsed, 10, f"all three bases, worst relative error {worst:.2e}")


# --------------------------------------------------------------------------
# 10. FNO layer identity and low-pass


def test_c10_fno_identity_lowpass():
    t0 = time.perf_counter()
    results = run_fno_checks(n_theta=16, n_phi=32, n_k=8, channels=2,
                             modes=(4, 4, 8), seed=10)
    elapsed = time.perf_counter() - t0
    for name, ok, detail in results:
        assert ok, f"{name}: {detail}"
    assert elapsed < 10.0
    _report(10, elapsed, 10,
            "; ".join(name for name, _, _ in results))


# --------------------------------------------------------------------------
# 11. Physics residual


def test_c11_physics_residual():
    t0 = time.perf_counter()
    medium = AcousticMedium()

    # Correctness at desk scale.
    grid = GridSpec((8, 8, 8), 1e-3)
    sensors = build_hemisphere_grid(2, 5, 0.1)
    chain = ReceiveChain(fs=20e6, n_t=2000, n_freq=16)
    rng = np.random.default_rng(11)
    x = Volume(rng.random((8, 8, 8)).astype(np.float32), grid.pitch_m)
    psi = forward_operator(x, sensors, medium, chain)
    mask = sample_physics_mask(8, 6, chain, sensors, 42)
    self_res = physics_residual(x, psi, mask, sensors, medium, chain)
    assert self_res < 1e-10
    ident = PhysicsMask(np.arange(chain.n_freq), np.arange(10))
    other = Volume(rng.random((8, 8, 8)).astype(np.float32), grid.pitch_m)
    got = physics_residual(other, psi, ident, sensors, medium, chain)
    diff = forward_operator(other, sensors, medium, chain).values - psi.values
    expect = float(np.sum(np.abs(diff) ** 2))
    rel = abs(got - expect) / expect
    assert rel < 1e-9

    # Cost scaling on a 48^3 problem: (15 modes, 40 sensors) under 5% of full.
    grid48 = GridSpec((48, 48, 48), 5e-4)
    big = build_hemisphere_grid(24, 64, 0.045)
    chain48 = default_receive_chain(big, grid48, medium, fs=20e6, n_freq=64,
                                    center_hz=0.8e6, fractional_bw=1.2,
                                    derivative=True)
    dense = Volume(np.random.default_rng(12).random((48, 48, 48)).astype(np.float32),
                   grid48.pitch_m)
    t_full0 = time.perf_counter()
    psi48 = forward_operator(dense, big, medium, chain48, threads=THREADS)
    t_full = time.perf_counter() - t_full0
    mask48 = sample_physics_mask(15, 40, chain48, big, 13)
    t_mask0 = time.perf_counter()
    physics_residual(dense, psi48, mask48, big, medium, chain48, threads=THREADS)
    t_mask = time.perf_counter() - t_mask0
    frac = t_mask / t_full
    elapsed = time.perf_counter() - t0
    assert frac < 0.05
    assert elapsed < 60.0
    _report(11, elapsed, 60,
            f"self-residual {self_res:.1e}; identity-mask match {rel:.1e}; "
            f"masked cost {100 * frac:.1f}% of full ({t_mask:.2f}s vs {t_full:.1f}s)")


# --------------------------------------------------------------------------
# 12. Metric oracles


def test_c12_metric_oracles():
    t0 = time.perf_counter()

    def vol(arr):
        return Volume(np.asarray(arr, dtype=np.float32).reshape(-1, 1, 1), 1e-3)

    assert psnr(vol([1.0, 0.0]), vol([0.0, 0.0])) == pytest.approx(3.0103, abs=1e-4)
    assert abs(psnr(vol([1.0, 0.0]), vol([0.0, 0.0]))
               - 10 * math.log10(1 / 0.5)) < 1e-9
    assert nmse(vol([1.0, 1.0]), vol([1.0, 0.0])) == pytest.approx(0.5, abs=1e-9)
    assert nmse(vol([1.0, 1.0]), vol([0.0, 0.0])) == pytest.approx(1.0, abs=1e-9)
    assert cosine_similarity(vol([1.0, 0.0, 0.0]), vol([1.0, 1.0, 0.0])) == pytest.approx(
        1 / math.sqrt(2), abs=1e-9
    )
    assert math.isinf(psnr(vol([1.0, 2.0]), vol([1.0, 2.0])))

    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.random((4, 4, 4))
        b = rng.random((4, 4, 4))
        p, q = Volume(a.astype(np.float32), 1e-3), Volume(b.astype(np.float32), 1e-3)
        af = p.data.astype(np.float64).ravel()
        bf = q.data.astype(np.float64).ravel()
        dot = sum(x * y for x, y in zip(af, bf))
        na = math.sqrt(sum(x * x for x in af))
        nb = math.sqrt(sum(x * x for x in bf))
        worst = max(worst, abs(cosine_similarity(p, q) - dot / (na * nb)))
        mse = sum((x - y) ** 2 for x, y in zip(af, bf)) / af.size
        worst = max(worst, abs(psnr(p, q) - 10 * math.log10(max(af) ** 2 / mse)))
        worst = max(worst, abs(nmse(p, q) - sum((x - y) ** 2 for x, y in zip(af, bf))
                               / sum(x * x for x in af)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 5.0
    _report(12, elapsed, 5,
            f"hand values exact; brute-force agreement within {worst:.1e}")


# --------------------------------------------------------------------------
# 13. Determinism


def test_c13_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    from pact.cli import main

    runs = [("r1", "1"), ("r2", "1"), ("r8", "8")]
    for name, threads in runs:
        out = tmp_path / name
        code = main(["pipeline", "--seed", "7", "--grid", "24x24x24",
                     "--pitch", "0.001", "--radius", "0.045", "--ntheta", "8",
                     "--nphi", "24", "--nf", "24", "--leaves", "8",
                     "--center", "6e5", "--pattern", "uniform:2",
                     "--recon", "iter", "--iters", "5",
                     "--threads", threads, "--out-dir", str(out)])
        assert code == 0
    files = ["gt.f32", "psi.c64", "recon.f32", "report.json"]
    for fname in files:
        base = (tmp_path / "r1" / fname).read_bytes()
        assert (tmp_path / "r2" / fname).read_bytes() == base, f"{fname}: reruns differ"
        assert (tmp_path / "r8" / fname).read_bytes() == base, f"{fname}: thread count changed bytes"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(13, elapsed, 300,
            "pipeline outputs bitwise identical across reruns and threads {1, 8}")

"""Optimization-based reconstruction: least squares with Huber-TV and
Tikhonov terms, nonnegativity projection, FISTA iterations.

Minimizes  0.5*||Ax - psi||^2 + lambda*TV_delta(x) + 0.5*mu*||x||^2
subject to x >= 0.  The Huber-smoothed TV is handled by its gradient.  The
step starts at 1/L with L from a short power iteration on A^H A and
backtracks (L doubles, never shrinks) until the candidate sits under the
quadratic model at the extrapolated point (Beck & Teboulle, IEEE TIP 18(11),
2009); the same test covers the TV curvature the power iteration leaves
out.  A monotone safeguard (reject-and-restart) keeps the objective trace
non-increasing, and a gradient restart drops momentum that points against
the gradient step.  The solver keeps A(x) and A(z) and gets A at the
extrapolated point by linearity, so an iteration costs one application of
A and one of A^H.  A is the spherical projector of :mod:`pact.forward`
(:func:`operator_pair`); the power iteration and :func:`default_lambda`
use the exact Green's pair.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, positive
from .forward import (Spectra, adjoint_operator, forward_operator, projector_adjoint,
                      projector_forward)
from .volume import Volume

# Factor by which a backtracking step raises the Lipschitz estimate.
_BACKTRACK = 2.0


@dataclass
class IterConfig:
    """FISTA solver parameters.

    ``discrepancy_target`` stops once the squared residual falls to the
    expected noise energy.  ``rel_obj_tol`` stops once an accepted step
    lowers the objective by less than that fraction; a rejected step
    (momentum restart) never stops the solve.

    ``power_iters`` defaults to 6 steps: the power iteration under-estimates
    ||A||, and backtracking makes an under-estimate safe, costing one extra
    application of A per doubling of L.  At the c13 pipeline size (24^3
    grid, 96 detectors, 24 bins) six steps land 0.56% below the 40-step
    estimate, for the exact pair and the projector alike (their estimates
    differ by 2e-6), and no step of a 20-iteration solve needed to backtrack
    from it.  Each iteration applies A once and A^H once.
    """

    lambda_tv: float = 0.0
    mu_tik: float = 0.0
    huber_delta: float = 0.01
    max_iters: int = 100
    rel_obj_tol: float = 1e-3
    power_iters: int = 6
    discrepancy_target: float = None
    nonneg: bool = True
    op_norm: float = None            # reuse a precomputed ||A|| estimate
    threads: int = 1

    def __post_init__(self):
        if not all(math.isfinite(w) and w >= 0 for w in (self.lambda_tv, self.mu_tik)):
            raise ValueError("regularization weights must be finite and >= 0")
        positive(self.huber_delta, "huber_delta")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.power_iters < 3:
            raise ValueError("power_iters must be >= 3")


def estimate_op_norm(forward, adjoint, grid, iters=20, seed=0):
    """Power iteration on A^H A; returns an estimate of ||A||_2.

    ``forward`` maps a float64 voxel vector to measurement space and
    ``adjoint`` maps that output back to a voxel vector.  The Rayleigh
    estimate is non-decreasing in exact arithmetic.
    """
    if iters < 3:
        raise ValueError("power iteration needs at least 3 steps")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.n_voxels)
    nv = math.sqrt(_real_inner(v, v))
    if nv == 0.0:
        return 0.0
    v /= nv
    est = 0.0
    for _ in range(iters):
        w = adjoint(forward(v))
        nw = math.sqrt(_real_inner(w, w))
        if nw == 0.0:
            return 0.0
        # Rayleigh quotient of A^H A at the unit vector v.
        est = np.sqrt(abs(float(np.einsum("i,i->", v, w))))
        v = w / nw
    return float(est)


def tv_huber(x, delta):
    """Isotropic Huber-TV value and gradient of a 3D array.

    Forward differences with replicate boundary; phi_delta(s) = s^2/(2 delta)
    for s <= delta and s - delta/2 beyond.  The gradient is the exact
    analytic adjoint of the difference stencil.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    arr = np.asarray(x, dtype=np.float64)
    dx = np.zeros_like(arr)
    dy = np.zeros_like(arr)
    dz = np.zeros_like(arr)
    dx[:-1, :, :] = arr[1:, :, :] - arr[:-1, :, :]
    dy[:, :-1, :] = arr[:, 1:, :] - arr[:, :-1, :]
    dz[:, :, :-1] = arr[:, :, 1:] - arr[:, :, :-1]
    mag = np.sqrt(dx * dx + dy * dy + dz * dz)
    small = mag <= delta
    value = float(np.sum(np.where(small, mag * mag / (2.0 * delta), mag - delta / 2.0)))
    # d phi / d mag divided by mag: 1/delta inside the quadratic region, 1/mag outside.
    with np.errstate(divide="ignore"):
        ratio = np.where(small, 1.0 / delta, 1.0 / np.maximum(mag, 1e-300))
    px, py, pz = dx * ratio, dy * ratio, dz * ratio
    grad = np.zeros_like(arr)
    grad[:-1, :, :] -= px[:-1, :, :]
    grad[1:, :, :] += px[:-1, :, :]
    grad[:, :-1, :] -= py[:, :-1, :]
    grad[:, 1:, :] += py[:, :-1, :]
    grad[:, :, :-1] -= pz[:, :, :-1]
    grad[:, :, 1:] += pz[:, :, :-1]
    return value, grad


def operator_pair(sensors, medium, chain, grid, threads=1):
    """The solver's forward map and its adjoint, between float64 vectors.

    ``A`` takes a C-order voxel vector to the active detectors' complex
    spectra through :func:`~pact.forward.projector_forward`, and ``At`` takes
    spectra back through :func:`~pact.forward.projector_adjoint`.  The pair
    is within about 1e-4 (relative) of the exact Green's operators and
    adjoint to rounding (~1e-15 of ||Ax||*||y|| in the dot-product test).
    Both are looked up in this module when the pair is built, so a wrapper
    bound to ``recon_iter.projector_forward`` beforehand sees every
    application.
    """
    return _vector_maps(projector_forward, projector_adjoint, sensors, medium, chain,
                        grid, threads)


def _vector_maps(forward, adjoint, sensors, medium, chain, grid, threads):
    ids = sensors.active_indices

    def A(xvec):
        vol = Volume(xvec.reshape(grid.shape), grid.pitch_m, grid.origin_m)
        return forward(vol, sensors, medium, chain, threads=threads).values

    def At(resid):
        sp = Spectra(resid, chain.freq_hz, ids)
        return adjoint(sp, sensors, medium, chain, grid, threads=threads).data.ravel()

    return A, At


def fista_reconstruct(psi, sensors, medium, chain, grid, cfg, warm_volume=None):
    """FISTA reconstruction; returns (volume, objective trace).

    The iterations apply :func:`operator_pair`.  Without ``cfg.op_norm`` the
    starting ||A|| comes from a power iteration on the exact Green's pair.
    The volume holds the float64 iterate (>= 0 when ``cfg.nonneg``).  The
    trace holds the objective after each accepted iterate, starting with the
    warm-start value; it is non-increasing by construction (candidates that
    would raise the objective are rejected and momentum restarts).
    """
    if cfg.op_norm is None:
        # The starting step comes from the exact model, as default_lambda's weight does.
        exact = _vector_maps(forward_operator, adjoint_operator, sensors, medium, chain,
                             grid, cfg.threads)
        cfg = replace(cfg, op_norm=estimate_op_norm(*exact, grid, iters=cfg.power_iters))
    A, At = operator_pair(sensors, medium, chain, grid, threads=cfg.threads)
    warm_x = None if warm_volume is None else warm_volume.data.ravel()
    x, trace = fista_solve(A, At, psi.values, grid, cfg, warm_x=warm_x)
    return Volume(x.reshape(grid.shape), grid.pitch_m, grid.origin_m), trace


def fista_solve(A, At, y_ref, grid, cfg, warm_x=None):
    """Monotone FISTA with backtracking on generic forward/adjoint callables.

    ``A`` maps a float64 vector of grid.n_voxels to measurement space, ``At``
    maps back; ``y_ref`` is the data.  Returns (x vector, objective trace).
    ``A`` must be linear: the extrapolated point's data term comes from
    stored products, so each iteration applies ``A`` once (at the candidate)
    and ``At`` once (at the extrapolated point), plus one ``A`` per backtrack.
    """

    def data_term(ax):
        """0.5*||Ax - y||^2 and the residual Ax - y."""
        resid = ax - y_ref
        return 0.5 * _real_inner(resid, resid), resid

    def regulariser(xvec):
        """Value and gradient of lambda*TV_delta(x) + 0.5*mu*||x||^2."""
        value, grad = 0.0, 0.0
        if cfg.lambda_tv > 0:
            tv, tv_grad = tv_huber(xvec.reshape(grid.shape), cfg.huber_delta)
            value += cfg.lambda_tv * tv
            grad = cfg.lambda_tv * tv_grad.ravel()
        if cfg.mu_tik > 0:
            value += 0.5 * cfg.mu_tik * float(np.einsum("i,i->", xvec, xvec))
            grad = grad + cfg.mu_tik * xvec
        return value, grad

    # Starting Lipschitz estimate ||A||^2 + mu; backtracking raises it
    # where the estimate is low or the TV term needs more.
    if cfg.op_norm is not None:
        op_norm = float(cfg.op_norm)
    else:
        op_norm = estimate_op_norm(A, At, grid, iters=cfg.power_iters)
    lip = op_norm**2 + cfg.mu_tik
    if lip == 0.0:
        raise ValueError("operator norm estimate is zero; nothing to reconstruct")

    if warm_x is not None:
        x = np.asarray(warm_x, dtype=np.float64).copy()
        if cfg.nonneg:
            np.maximum(x, 0.0, out=x)
        # The back-projection scale is arbitrary; rescale the warm start to
        # the least-squares optimum so it can never start above F(0).
        ax = A(x)
        denom = _real_inner(ax, ax)
        if denom > 0.0:
            s = max(_real_inner(ax, y_ref) / denom, 0.0)
            x = s * x
            ax = s * ax
    else:
        x = np.zeros(grid.n_voxels)
        ax = np.zeros(np.shape(y_ref), dtype=np.result_type(y_ref, np.float64))

    data_x = data_term(ax)[0]
    f_x = data_x + regulariser(x)[0]
    trace = [f_x]
    y, ay = x, ax
    t = 1.0
    # Per-step slack scales with the starting objective, never an absolute floor.
    slack = 1e-9 * abs(f_x)

    for it in range(cfg.max_iters):
        data_y, resid = data_term(ay)
        reg_y, reg_grad = regulariser(y)
        f_y = data_y + reg_y
        g = At(resid) + reg_grad
        # Backtrack until F(z) sits under the quadratic model at y.
        while True:
            z = y - g / lip
            if cfg.nonneg:
                np.maximum(z, 0.0, out=z)
            az = A(z)
            data_z = data_term(az)[0]
            f_z = data_z + regulariser(z)[0]
            if not (np.isfinite(f_z) and np.isfinite(lip)):
                raise DivergenceError(f"non-finite objective or step at iteration {it + 1}")
            d = z - y
            model = f_y + _real_inner(d, g) + 0.5 * lip * float(np.einsum("i,i->", d, d))
            if f_z <= model + slack:
                break
            lip *= _BACKTRACK
        accepted = f_z <= f_x + slack
        if accepted:
            rel_drop = (f_x - f_z) / max(abs(f_x), 1e-300)
            # Gradient restart (O'Donoghue & Candes, FoCM 15, 2015): drop the
            # momentum when it points against the gradient step, so the trace
            # has no ripple where a small drop would end the solve early.
            if _real_inner(d, z - x) < 0.0:
                t = 1.0
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            # A is linear, so A(y) follows from the stored products.
            y = z + beta * (z - x)
            ay = az + beta * (az - ax)
            x, ax, f_x, data_x = z, az, f_z, data_z
            t = t_new
        else:
            # Reject the step and restart momentum from the current iterate.
            y, ay = x, ax
            t = 1.0
        trace.append(f_x)
        if cfg.discrepancy_target is not None and 2.0 * data_x <= cfg.discrepancy_target:
            break
        if accepted and 0.0 <= rel_drop < cfg.rel_obj_tol and it > 0:
            break

    return x, np.asarray(trace)


def _real_inner(u, v):
    u = np.asarray(u).ravel()
    v = np.asarray(v).ravel()
    if np.iscomplexobj(u) or np.iscomplexobj(v):
        u = u.astype(np.complex128)
        v = v.astype(np.complex128)
        return (float(np.einsum("i,i->", np.ascontiguousarray(u.real),
                                np.ascontiguousarray(v.real)))
                + float(np.einsum("i,i->", np.ascontiguousarray(u.imag),
                                  np.ascontiguousarray(v.imag))))
    return float(np.einsum("i,i->", u, v))


def default_lambda(psi, sensors, medium, chain, grid, threads=1):
    """Default TV weight: 1e-4 * ||A^H psi||_inf."""
    vol = adjoint_operator(psi, sensors, medium, chain, grid, threads=threads)
    return 1e-4 * float(np.max(np.abs(vol.data)))


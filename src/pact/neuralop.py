"""Verification-scale neural-operator building blocks.

Geodesic-disk kernel bases (piecewise linear, Haar, Zernike), the spherical
discrete-continuous convolution built from them, and the truncated-mode
spectral layer.  No training loop: parameters are seeded, and the
module's contract is exactness of the forward maps.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import BasisSupportError
from .geometry import SensorArray, quadrature_weights

_BASIS_KINDS = ("piecewise_linear", "haar", "zernike")


@dataclass(frozen=True)
class KernelBasis:
    """L basis functions supported on the geodesic ball of radius ``r`` (rad).

    Layout depends on ``kind``: piecewise-linear has one isotropic node at
    the disk center and L - 1 equally spaced azimuth nodes on the ring at
    radius r, Haar a dyadic radius/azimuth sign structure, Zernike the
    OSA-ordered (n, m) index list on the rescaled disk.
    """

    kind: str
    L: int
    r: float

    def __post_init__(self):
        if self.kind not in _BASIS_KINDS:
            raise ValueError(f"unknown basis kind '{self.kind}'")
        if not 0.0 < self.r <= np.pi / 2:
            raise ValueError("support radius must lie in (0, pi/2]")
        if self.L < 1:
            raise ValueError("need at least one basis function")
        if self.kind == "haar" and self.L not in (1, 2, 4, 8):
            raise ValueError("haar basis supports L in {1, 2, 4, 8}")
        if self.kind == "piecewise_linear" and self.L < 2:
            raise ValueError("piecewise-linear basis needs a center node and a ring: L >= 2")


def make_kernel_basis(kind, L, r):
    return KernelBasis(kind=kind, L=L, r=r)


def eval_kernel_basis(basis, rho, phi):
    """Evaluate all L basis functions at polar disk coordinates (rho, phi).

    Accepts scalars or same-shape arrays; returns shape ``rho.shape + (L,)``.
    Values vanish for rho > r and are 2*pi-periodic in phi.
    """
    rho = np.asarray(rho, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    if np.any(rho < 0):
        raise ValueError("rho must be >= 0")
    scalar = rho.ndim == 0
    rho = np.atleast_1d(rho)
    phi = np.broadcast_to(np.atleast_1d(phi), rho.shape)
    inside = rho <= basis.r
    if basis.kind == "piecewise_linear":
        vals = _eval_piecewise_linear(basis, rho, phi)
    elif basis.kind == "haar":
        vals = _eval_haar(basis, rho, phi)
    else:
        vals = _eval_zernike(basis, rho, phi)
    vals *= inside[..., None]
    return vals[0] if scalar else vals


def _tent(t):
    return np.maximum(1.0 - np.abs(t), 0.0)


def _wrap_pi(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def _eval_piecewise_linear(basis, rho, phi):
    r = basis.r
    count = basis.L - 1
    out = np.empty(rho.shape + (basis.L,))
    # The center node is isotropic: the disk center has no azimuth.
    out[..., 0] = _tent(rho / r)
    radial = _tent((rho - r) / r)
    scale = np.sin(r) / r
    for c in range(count):
        node = 2.0 * np.pi * c / count
        out[..., c + 1] = radial * _tent(scale * _wrap_pi(phi - node))
    return out


def _eval_haar(basis, rho, phi):
    p = np.mod(phi, 2.0 * np.pi)
    rad_fns = [np.ones_like(rho), np.where(rho < basis.r / 2.0, 1.0, -1.0)]
    ang_fns = [
        np.ones_like(p),
        np.where(p < np.pi, 1.0, -1.0),
        np.where(p < np.pi / 2, 1.0, np.where(p < np.pi, -1.0, 0.0)),
        np.where(p < np.pi, 0.0, np.where(p < 1.5 * np.pi, 1.0, -1.0)),
    ]
    # Dyadic tensor order: constant, radial sign, then angular refinements.
    pairs = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
    out = np.empty(rho.shape + (basis.L,))
    for ell in range(basis.L):
        ri, ai = pairs[ell]
        out[..., ell] = rad_fns[ri] * ang_fns[ai]
    return out


def _osa_nm(j):
    n = int(math.ceil((-3.0 + math.sqrt(9.0 + 8.0 * j)) / 2.0))
    m = 2 * j - n * (n + 2)
    return n, m


def zernike_radial(n, m_abs, t):
    out = np.zeros_like(t)
    for s in range((n - m_abs) // 2 + 1):
        coeff = ((-1) ** s * math.factorial(n - s)
                 / (math.factorial(s)
                    * math.factorial((n + m_abs) // 2 - s)
                    * math.factorial((n - m_abs) // 2 - s)))
        out = out + coeff * t ** (n - 2 * s)
    return out


def _eval_zernike(basis, rho, phi):
    t = np.minimum(rho / basis.r, 1.0)
    out = np.empty(rho.shape + (basis.L,))
    for j in range(basis.L):
        n, m = _osa_nm(j)
        rad = zernike_radial(n, abs(m), t)
        if m < 0:
            out[..., j] = rad * np.sin(abs(m) * phi)
        elif m > 0:
            out[..., j] = rad * np.cos(m * phi)
        else:
            out[..., j] = rad
    return out


def _angles_and_weights(pts):
    """(colatitudes [n], azimuths [n], weights [n] or None) of a SensorArray or unit points."""
    if isinstance(pts, SensorArray):
        ids = pts.active_indices
        return pts.angles[ids, 0], pts.angles[ids, 1], quadrature_weights(pts)[ids]
    units = np.asarray(pts, dtype=np.float64)
    if units.ndim != 2 or units.shape[1] != 3:
        raise ValueError("points must be an (n, 3) array or a SensorArray")
    norms = np.linalg.norm(units, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("points must be unit vectors")
    x, y, z = (units / norms[:, None]).T
    return np.arccos(z), np.arctan2(y, x), None


# Output rows per block of the build.  Measured on the 64x128 Zernike L=4
# build: 32 rows took 0.76-0.78 s with a traced peak 1.05x the bytes of the
# matrices; 128 rows 0.84-0.93 s and 1.20x, 512 rows 1.28-1.49 s and 1.74x,
# and 16 rows was no faster.  Near the pole a row has the most neighbours,
# and a block's pair arrays grow with them.
_ROW_BLOCK = 32

# Colatitude slack (rad) of each block's input band.  The neighbour test
# compares cos(rho) with cos(r); their round-off measured at most 3.2e-16
# over 4e6 random pairs.  Allowing 1e-14, a pair the test admits has
# cos(colatitude difference) >= cos(r) - 1e-14, so its colatitude difference
# exceeds r by at most arccos(1 - 1e-14) ~ 1.4e-7 rad, the worst case being
# r -> 0.  (1e-9 is too small there: at r = 1e-10 it drops pairs
# 3e-9 rad apart that the test admits.)
_BAND_SLACK = 1e-6


def build_disco_matrices(in_pts, out_pts, basis):
    """Sparse evaluation matrices K^l of shape [n_out x n_in].

    K^l[i, j] = b_l(rho_ij, phi_ij) * q_j, present only when the geodesic
    distance from output point v_i to input point u_j is at most the basis
    radius.  (rho, phi) are log-map polar coordinates of u_j about v_i with
    local east as phi = 0, found by spherical trigonometry from the
    colatitudes and the azimuth difference of the two points.

    When both point sets are sensor arrays with the same azimuth count, sin
    and cos of the azimuth difference come from one table indexed by the
    integer column difference, which makes the matrices exactly invariant
    under grid-step rotations (this matters for bases with discontinuities
    such as Haar, whose sign boundaries run along lattice directions).  Any
    other pair takes them from the float difference.

    The build makes two passes over fixed blocks of output rows.  The first
    finds each block's neighbours and counts them into ``indptr``; it tests
    only the inputs whose colatitude lies within r (plus a small slack for
    round-off) of the block's colatitudes, since the geodesic distance is
    never less than the colatitude difference.  The second evaluates rho,
    phi and the basis on the block's pairs and writes them into L
    preallocated value arrays.  All L matrices share one ``indices`` and one
    ``indptr`` array, so changing one matrix's ``indices`` in place changes
    them all.
    """
    th_in, ph_in, q = _angles_and_weights(in_pts)
    th_out, ph_out, _ = _angles_and_weights(out_pts)
    if q is None:
        raise ValueError("input points must be a SensorArray carrying quadrature weights")
    n_in, n_out = th_in.size, th_out.size
    if (isinstance(in_pts, SensorArray) and isinstance(out_pts, SensorArray)
            and in_pts.n_phi == out_pts.n_phi):
        period = in_pts.n_phi
        az_in = in_pts.active_indices % period
        az_out = out_pts.active_indices % period
        steps = np.arange(period) * (2.0 * np.pi / period)
        sin_of, cos_of = np.sin(steps).take, np.cos(steps).take
    else:
        period, az_in, az_out = 2.0 * np.pi, ph_in, ph_out
        sin_of, cos_of = np.sin, np.cos
    sin_in, cos_in = np.sin(th_in), np.cos(th_in)
    sin_out, cos_out = np.sin(th_out), np.cos(th_out)
    cos_r, half = np.cos(basis.r), basis.r + _BAND_SLACK
    blocks = [np.arange(a, min(a + _ROW_BLOCK, n_out)) for a in range(0, n_out, _ROW_BLOCK)]

    def pair_terms(i, j):
        """sin and cos of both colatitudes, the azimuth difference, its cosine
        and cos(rho) of the pairs (output i, input j)."""
        s_i, c_i, s_j, c_j = sin_out[i], cos_out[i], sin_in[j], cos_in[j]
        dphi = (az_in[j] - az_out[i]) % period
        cos_d = cos_of(dphi)
        return s_i, c_i, s_j, c_j, dphi, cos_d, c_j * c_i + s_j * s_i * cos_d

    # Pass 1: each row's neighbours, in ascending input order.
    counts = np.zeros(n_out, dtype=np.int64)
    cols = [np.zeros(0, dtype=np.int64)]
    for rows in blocks:
        th = th_out[rows]   # fmin/fmax skip a NaN point, whose row stays empty
        band = np.flatnonzero((th_in >= np.fmin.reduce(th) - half)
                              & (th_in <= np.fmax.reduce(th) + half))
        near = pair_terms(rows[:, None], band)[-1] >= cos_r
        counts[rows] = np.count_nonzero(near, axis=1)
        cols.append(np.broadcast_to(band, near.shape)[near])
    empty = int(np.count_nonzero(counts == 0))
    if empty > 0.1 * n_out:
        raise BasisSupportError(
            f"{empty} of {n_out} output points have no inputs within r={basis.r:g}; "
            "basis radius too small for the grid density"
        )
    nnz = int(counts.sum())
    # The index type scipy would pick: int32 whenever the shape and nnz fit.
    idx = np.int32 if max(n_in, n_out, nnz) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n_out + 1, dtype=idx)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(cols, dtype=idx, casting="same_kind")
    del cols

    # Pass 2: the basis values of each block's pairs, straight into K^l's data.
    data = [np.empty(nnz) for _ in range(basis.L)]
    for rows in blocks:
        span = slice(indptr[rows[0]], indptr[rows[-1] + 1])
        j = indices[span]
        i = np.repeat(rows, counts[rows])
        s_i, c_i, s_j, c_j, dphi, cos_d, cos_rho = pair_terms(i, j)
        e_comp = s_j * sin_of(dphi)
        n_comp = c_j * s_i - s_j * c_i * cos_d
        # (e, n) is u_j's tangent-plane offset at v_i, of length sin(rho).
        # arctan2 keeps rho exact near 0, where arccos(cos rho) reads ~1e-8.
        # The pair passed the neighbour test, so it lies in the closed ball:
        # rho is capped at r, lest round-off zero the basis at the ball's edge.
        rho = np.minimum(np.arctan2(np.sqrt(e_comp * e_comp + n_comp * n_comp), cos_rho),
                         basis.r)
        b = eval_kernel_basis(basis, rho, np.arctan2(n_comp, e_comp))  # [pairs, L]
        q_j = q[j]
        for ell, values in enumerate(data):
            np.multiply(b[:, ell], q_j, out=values[span])
    return [sparse.csr_matrix((v, indices, indptr), shape=(n_out, n_in)) for v in data]


@dataclass
class DiscoLayer:
    """Spherical discrete-continuous convolution with channel mixing.

    ``matrices`` depend only on geometry and basis; ``theta`` has shape
    [C_out, C_in, L] and is the only learnable state.
    """

    basis: KernelBasis
    matrices: list
    theta: np.ndarray
    n_in: int = field(init=False)
    n_out: int = field(init=False)

    def __post_init__(self):
        self.theta = np.asarray(self.theta)
        if self.theta.ndim != 3 or self.theta.shape[2] != self.basis.L:
            raise ValueError("theta must have shape [C_out, C_in, L]")
        if len(self.matrices) != self.basis.L:
            raise ValueError("need one sparse matrix per basis function")
        self.n_out, self.n_in = self.matrices[0].shape

    @property
    def c_in(self):
        return self.theta.shape[1]


def disco_apply(layer, f):
    """Apply a DISCO layer to features ``f`` of shape [C_in x n_in].

    out[c_o, i] = sum_{c_i, l} theta[c_o, c_i, l] * (K^l f[c_i])_i; exactly
    linear in both the features and the coefficients.
    """
    f = np.asarray(f)
    if f.ndim != 2 or f.shape != (layer.c_in, layer.n_in):
        raise ValueError(
            f"feature shape {f.shape} does not match layer [{layer.c_in} x {layer.n_in}]"
        )
    dtype = np.result_type(f.dtype, layer.theta.dtype, np.float64)
    # One sparse x dense product per basis function streams each matrix once;
    # kf[l, n, c_i] = (K^l f[c_i])_n, contracted over (c_i, l) as one product.
    ft = np.ascontiguousarray(f.T, dtype=dtype)
    kf = np.stack([layer.matrices[ell] @ ft for ell in range(layer.basis.L)])
    return np.tensordot(layer.theta.astype(dtype), kf, axes=([1, 2], [2, 0]))


@dataclass
class FnoLayer:
    """One spectral layer: FFT over the angular axes, truncated learnable
    multiplier, inverse FFT, then a pointwise channel map and rectifier.

    ``spectral_weights`` covers only the retained modes
    (|xi_theta| <= J_theta, |xi_phi| <= J_phi, first J_k bins along k) and is
    applied channel-wise; everything outside is zeroed.
    """

    modes: tuple
    spectral_weights: np.ndarray
    pointwise: np.ndarray
    bias: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        self.modes = tuple(int(j) for j in self.modes)
        self.spectral_weights = np.asarray(self.spectral_weights, dtype=np.complex128)
        self.pointwise = np.asarray(self.pointwise, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.activation not in ("relu", "identity"):
            raise ValueError("activation must be 'relu' or 'identity'")
        c = self.spectral_weights.shape[0]
        if self.pointwise.shape != (c, c) or self.bias.shape != (c,):
            raise ValueError("pointwise map and bias must match the channel count")


def _retained_indices(n, j):
    freqs = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    return np.flatnonzero(np.abs(freqs) <= j)


def fno_layer_apply(layer, f):
    """Apply an FNO layer to features [C x N_theta x N_phi x N_k]."""
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim != 4:
        raise ValueError("features must be [C x N_theta x N_phi x N_k]")
    c, n_theta, n_phi, n_k = f.shape
    j_theta, j_phi, j_k = layer.modes
    if j_theta > n_theta // 2 or j_phi > n_phi // 2 or j_k > n_k:
        raise ValueError(
            f"modes {layer.modes} exceed the grid ({n_theta}, {n_phi}, {n_k})"
        )
    it = _retained_indices(n_theta, j_theta)
    ip = _retained_indices(n_phi, j_phi)
    expect = (c, it.size, ip.size, j_k)
    if layer.spectral_weights.shape != expect:
        raise ValueError(
            f"spectral weights shape {layer.spectral_weights.shape}, expected {expect}"
        )
    hat = np.fft.fft2(f, axes=(1, 2))
    kept = hat[:, it[:, None], ip[None, :], :j_k] * layer.spectral_weights
    hat_new = np.zeros_like(hat)
    hat_new[:, it[:, None], ip[None, :], :j_k] = kept
    g = np.fft.ifft2(hat_new, axes=(1, 2))
    out = np.einsum("oc,cxyz->oxyz", layer.pointwise.astype(np.complex128), g)
    out = out + layer.bias[:, None, None, None]
    if layer.activation == "relu":
        out = np.maximum(out.real, 0.0) + 1j * np.maximum(out.imag, 0.0)
    return out


def fno_identity_layer(channels, grid_shape, activation="identity"):
    """Full-spectrum pass-through configuration (M = 1, B = I, b = 0)."""
    n_theta, n_phi, n_k = grid_shape
    modes = (n_theta // 2, n_phi // 2, n_k)
    it = _retained_indices(n_theta, modes[0])
    ip = _retained_indices(n_phi, modes[1])
    weights = np.ones((channels, it.size, ip.size, n_k), dtype=np.complex128)
    return FnoLayer(modes, weights, np.eye(channels), np.zeros(channels), activation)


def fno_random_layer(channels, grid_shape, modes, seed, activation="relu"):
    """Seeded random layer for checks and benchmarks."""
    n_theta, n_phi, _ = grid_shape
    it = _retained_indices(n_theta, modes[0])
    ip = _retained_indices(n_phi, modes[1])
    rng = np.random.default_rng(seed)
    shape = (channels, it.size, ip.size, modes[2])
    weights = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    pointwise = rng.standard_normal((channels, channels)) / np.sqrt(channels)
    bias = rng.standard_normal(channels) * 0.1
    return FnoLayer(tuple(modes), weights, pointwise, bias, activation)

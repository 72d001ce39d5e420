"""Frequency-domain acoustic forward model and its adjoint.

The detected spectrum of detector m at angular frequency w_k is the
discretized free-space single-layer potential

    psi[m, k] = H(w_k) * sum_v P(r_v) * exp(i*k*R) / (4*pi*R) * dV,

with R = |r_v - s_m| and real wavenumber k = w_k/c0 of a lossless medium.
:func:`forward_operator` evaluates this sum exactly and
:func:`adjoint_operator` is its adjoint; they are the simulator and the
oracle.  Both work on detector x voxel tiles: the phase z = exp(i w_1 R / c0)
of a tile comes from a table of 4096 unit roots and a Taylor factor, and
with z^k = z^(q m) z^r, m = ceil(sqrt(K)), one batched complex matrix product
gives all K bins of the tile (the adjoint adds Horner's rule in z^m).
:func:`projector_forward` and :func:`projector_adjoint` are the
iterative solver's faster pair: the same sum through a 1-D NUFFT in the
flight phase, within about 1e-4 of the exact pair; its adjoint back-projects
phase-grid rows with UBP's gather, :func:`pact._chunks.back_project`.  Sums
run in a fixed order (over the nonzero support of P in the forward maps), so
results are bitwise reproducible for any thread count.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._chunks import (DETECTOR_CHUNK, GREENS_BLOCK, VOXEL_BLOCK, back_project, chunk_ranges,
                      flight_cells, longest_flight, map_chunks, map_runs, tile_distances)
from .errors import GeometryMismatchError, header_field, positive
from .volume import Volume


@dataclass(frozen=True)
class AcousticMedium:
    """Homogeneous lossless acoustic medium with sound speed ``c0`` (m/s)."""

    c0: float = 1500.0

    def __post_init__(self):
        positive(self.c0, "sound speed")


# Longest record (samples per detector) a chain may describe.  Time-domain
# traces hold n_t float64 samples per detector: 2**24 samples is 128 MiB per
# detector (96 GiB for 768), and 0.84 s at 20 MHz, in which sound in water
# crosses 1.2 km, thousands of times the flight across any tomograph.  A
# longer record comes from a unit slip (c0 in km/s, say), not a measurement.
_MAX_RECORD_SAMPLES = 2**24


@dataclass
class ReceiveChain:
    """Sampling, record length and per-bin receive response.

    Retains ``n_freq`` positive DFT bins of a record of ``n_t`` samples at
    ``fs``; bin k (1-based) sits at angular frequency 2*pi*k/T with
    T = n_t / fs.  ``response`` (default all ones) multiplies every
    detector's bin k as given; it is not rescaled.
    """

    fs: float
    n_t: int
    n_freq: int
    response: np.ndarray = None

    def __post_init__(self):
        if self.fs <= 0 or self.n_t < 2:
            raise ValueError("invalid sampling rate or record length")
        if self.n_t > _MAX_RECORD_SAMPLES:
            raise ValueError(
                f"record of n_t={self.n_t} samples exceeds the {_MAX_RECORD_SAMPLES} "
                "a chain may allocate per detector"
            )
        if not 1 <= self.n_freq <= self.n_t // 2:
            raise ValueError(
                f"n_freq={self.n_freq} exceeds the Nyquist bin {self.n_t // 2}"
            )
        if self.response is None:
            self.response = np.ones(self.n_freq, dtype=np.complex128)
        self.response = np.asarray(self.response, dtype=np.complex128)
        if self.response.shape != (self.n_freq,):
            raise ValueError("response must hold one complex value per bin")

    @property
    def T(self):
        return self.n_t / self.fs

    @property
    def freq_hz(self):
        return np.arange(1, self.n_freq + 1) / self.T

    @property
    def omega(self):
        return 2.0 * np.pi * self.freq_hz


# Default chain: anti-alias cutoff (Hz), where its raised-cosine rolloff starts
# (fraction of the cutoff) and record time past the longest flight (s).
_ANTI_ALIAS_HZ = 7.5e6
_TAPER_START = 0.8
_PULSE_SUPPORT_S = 3e-6


def default_receive_chain(sensors, grid, medium, fs=20e6, n_freq=149,
                          center_hz=2.12e6, fractional_bw=0.78, derivative=False):
    """Receive chain sized so every voxel-to-detector flight fits the window.

    The record runs 3 us past the longest flight.  The response is a
    zero-phase Gaussian band-pass (center 2.12 MHz, 78% fractional FWHM by
    default) under a raised-cosine rolloff to zero at 7.5 MHz, normalized to
    unit peak; a parametric stand-in for the measured impulse response.  With
    ``derivative=True`` it also carries the -i*omega factor of the wave
    equation, so simulated traces have the N-wave polarity UBP expects.
    """
    positive(fs, "sampling rate")
    act = sensors.positions[sensors.active]
    if act.shape[0] == 0:
        raise ValueError("sensor array has no active elements")
    t_max = longest_flight(act, grid.corners()) / medium.c0 + _PULSE_SUPPORT_S
    if not math.isfinite(t_max * fs):
        raise ValueError(f"record length {t_max:g} s at {fs:g} Hz is not a finite sample count")
    n_t = int(math.ceil(t_max * fs))
    n_t += n_t % 2  # keep the record even
    n_freq = min(n_freq, n_t // 2)
    freqs = np.arange(1, n_freq + 1) * (fs / n_t)
    response = band_pass_response(freqs, center_hz, fractional_bw, _ANTI_ALIAS_HZ,
                                  derivative=derivative)
    return ReceiveChain(fs=fs, n_t=n_t, n_freq=n_freq, response=response)


def band_pass_response(freq_hz, center_hz, fractional_bw, anti_alias_hz,
                       derivative=False):
    """Gaussian band-pass times raised-cosine anti-alias rolloff, unit peak."""
    positive(center_hz, "band-pass center frequency")
    positive(fractional_bw, "fractional bandwidth")
    freq_hz = np.asarray(freq_hz, dtype=np.float64)
    fwhm = fractional_bw * center_hz
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    h = np.exp(-0.5 * ((freq_hz - center_hz) / sigma) ** 2)
    f0 = _TAPER_START * anti_alias_hz
    roll = np.ones_like(freq_hz)
    band = (freq_hz > f0) & (freq_hz < anti_alias_hz)
    roll[band] = 0.5 * (1.0 + np.cos(np.pi * (freq_hz[band] - f0) / (anti_alias_hz - f0)))
    roll[freq_hz >= anti_alias_hz] = 0.0
    h = (h * roll).astype(np.complex128)
    if derivative:
        h = h * (-1j * freq_hz / center_hz)
    peak = float(np.abs(h).max())
    return h / peak if peak > 0 else h


@dataclass
class Spectra:
    """Complex frequency-domain measurements, one row per active detector."""

    values: np.ndarray
    freq_hz: np.ndarray
    detector_ids: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        self.freq_hz = np.asarray(self.freq_hz, dtype=np.float64)
        self.detector_ids = np.asarray(self.detector_ids, dtype=np.int64)
        if self.values.ndim != 2:
            raise ValueError("spectra values must be 2D [n_det x n_freq]")
        if self.values.shape != (self.detector_ids.size, self.freq_hz.size):
            raise ValueError("spectra fields have inconsistent dimensions")
        if self.freq_hz.size >= 2 and np.any(np.diff(self.freq_hz) <= 0):
            raise ValueError("frequencies must be strictly increasing")

    @property
    def n_det(self):
        return self.values.shape[0]

    @property
    def n_freq(self):
        return self.values.shape[1]

    def energy(self):
        return float(np.einsum("ij,ij->", self.values.real, self.values.real)
                     + np.einsum("ij,ij->", self.values.imag, self.values.imag))

    def copy(self):
        return Spectra(self.values.copy(), self.freq_hz.copy(), self.detector_ids.copy())


@dataclass(frozen=True)
class PhysicsMask:
    """Random subset of (frequency bin, detector row) pairs for the physics residual."""

    mode_indices: np.ndarray
    sensor_indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mode_indices",
                           np.asarray(self.mode_indices, dtype=np.int64))
        object.__setattr__(self, "sensor_indices",
                           np.asarray(self.sensor_indices, dtype=np.int64))
        for name, idx in (("mode", self.mode_indices), ("sensor", self.sensor_indices)):
            if idx.size == 0:
                raise ValueError(f"{name} subset must be non-empty")
            if np.unique(idx).size != idx.size:
                raise ValueError(f"{name} subset contains duplicates")
            if np.any(idx < 0):
                raise ValueError(f"{name} subset contains negative indices")


def _active_geometry(sensors):
    ids = sensors.active_indices
    if ids.size == 0:
        raise ValueError("sensor array has no active elements")
    pos = sensors.positions[ids]
    return ids, pos


def _check_spectra(psi, ids, chain):
    if not np.array_equal(psi.detector_ids, ids):
        raise GeometryMismatchError("spectra rows do not match the active detector set")
    if psi.n_freq != chain.n_freq:
        raise GeometryMismatchError("spectra bins do not match the receive chain")


def _check_detectors_outside(positions, grid):
    lo, hi = grid.bounding_box()
    # Distance from each detector to the voxel-center bounding box.
    d = np.maximum(np.maximum(lo - positions, positions - hi), 0.0)
    dist = np.sqrt(np.einsum("ij,ij->i", d, d))
    if np.any(dist < grid.pitch_m):
        raise ValueError(
            "active detector lies inside (or within one voxel pitch of) the volume"
        )


def _support(vol):
    """Nonzero voxels of a volume: (values float64 [n], coords float64 [n,3])."""
    flat = vol.data.ravel()
    idx = np.flatnonzero(flat)
    return flat[idx], vol.grid.voxel_coords()[idx]


def forward_operator(p, sensors, medium, chain, threads=1):
    """Simulate complex spectra from an initial-pressure volume.

    Returns a :class:`Spectra` over the active detectors and the chain's
    retained bins.  Deterministic for any ``threads``.
    """
    ids, pos = _active_geometry(sensors)
    _check_detectors_outside(pos, p.grid)
    rows = _green_rows(pos, p, chain.omega[0] / medium.c0, chain.n_freq)
    values = np.concatenate(map_chunks(rows, ids.size, DETECTOR_CHUNK, threads))
    values *= chain.response[None, :]
    return Spectra(values, chain.freq_hz, ids)


# Nodes of the phase table: exp(i theta) is the nearest node's value times a
# Taylor factor in |delta| <= pi / _PHASE_NODES.
_PHASE_NODES = 4096
_NODE_PHASES = np.exp(2j * np.pi * np.arange(_PHASE_NODES) / _PHASE_NODES)


def _unit_phase(theta, out=None):
    """exp(i theta) of a float array theta >= 0, without a complex exp.

    theta = 2 pi j / N + delta with j the nearest node; cos(delta) to
    delta^4 and sin(delta) to delta^5 leave a truncation error below 1e-21,
    so the result is within a few ulps of theta of ``np.exp(1j * theta)``
    (1.8e-15 at theta <= 4 pi, 5.0e-15 at theta <= 30), at about a quarter
    of its cost.  theta must be finite: a NaN or inf reads a wrong node.
    """
    u = theta * (_PHASE_NODES / (2.0 * np.pi))
    node = np.rint(u)
    delta = np.subtract(u, node, out=u)  # exact: node is the integer nearest u
    delta *= 2.0 * np.pi / _PHASE_NODES
    d2 = delta * delta
    idx = node.astype(np.int64)
    idx &= _PHASE_NODES - 1
    corr = np.empty(theta.shape, dtype=np.complex128)
    corr.real = 1.0 + d2 * (d2 / 24.0 - 0.5)
    corr.imag = delta * (1.0 + d2 * (d2 / 120.0 - 1.0 / 6.0))
    return np.multiply(_NODE_PHASES[idx], corr, out=out)


def _bin_split(n_bins):
    """Baby-step count m = ceil(sqrt(K)) and giant-step count ceil(K / m)."""
    m = math.isqrt(n_bins - 1) + 1
    return m, -(-n_bins // m)


def _green_tiles(pos, coords, corners, k1, m):
    """Phase tiles of the exact sum: ``tile(a, b, lo, hi, buf) -> (R, Z)``.

    For the detectors ``pos[a:b]`` and the voxels ``coords[lo:hi]`` (which
    lie in the box of ``corners``), R [d, v] is their distance and
    Z [r, d, v] = z^(r+1), r < m, are the baby steps of z = exp(i k1 R):
    bin k = q m + r + 1 is z^(q m) Z[r].  Z lives in the caller's ``buf``,
    reused for every tile so the allocator does not return it between tiles.
    """
    longest_flight(pos, corners, float(k1) * _PHASE_NODES / (2.0 * np.pi))
    distances = tile_distances(pos, coords)

    def tile(a, b, lo, hi, buf):
        R = distances(a, b, lo, hi)
        Z = buf[:m * R.size].reshape((m,) + R.shape)
        _unit_phase(R * k1, out=Z[0])
        for r in range(1, m):
            np.multiply(Z[r - 1], Z[0], out=Z[r])
        return R, Z

    return tile


def _green_rows(pos, p, k1, n_bins):
    """Exact sums of detector chunks: ``rows(a, b) -> [b - a, n_bins]``.

    Row d, bin k (1-based) is sum_v P(r_v) dV / (4 pi R) z^k over the support
    of ``p``.  Per tile the giant steps W [q, d, v] = P dV / (4 pi R) z^(q m)
    meet the baby steps in one batched matrix product (Paterson & Stockmeyer,
    SIAM J. Comput. 2, 1973); tiles are summed in order.
    """
    vals, coords = _support(p)
    m, n_giant = _bin_split(n_bins)
    tile = _green_tiles(pos, coords, p.grid.corners(), k1, m)
    scale = p.pitch_m**3 / (4.0 * np.pi)

    def rows(a, b):
        out = np.zeros((b - a, n_giant, m), dtype=np.complex128)
        zbuf = np.empty(m * (b - a) * GREENS_BLOCK, dtype=np.complex128)
        buf = np.empty(n_giant * (b - a) * GREENS_BLOCK, dtype=np.complex128)
        for lo in range(0, vals.size, GREENS_BLOCK):
            R, Z = tile(a, b, lo, lo + GREENS_BLOCK, zbuf)
            W = buf[:n_giant * R.size].reshape((n_giant,) + R.shape)
            W[0] = vals[lo:lo + GREENS_BLOCK] * scale / R
            for q in range(1, n_giant):
                np.multiply(W[q - 1], Z[m - 1], out=W[q])
            out += W.transpose(1, 0, 2) @ Z.transpose(1, 2, 0)
        return out.reshape(b - a, n_giant * m)[:, :n_bins]

    return rows


def adjoint_operator(psi, sensors, medium, chain, grid, threads=1):
    """Conjugate-transpose of :func:`forward_operator` onto a voxel grid.

    Treats the forward map as a real-linear operator into C^M with the real
    inner product Re(u^H v).  The output volume holds the float64 sums, so it
    is the adjoint under that pairing to rounding: the dot-product test
    against the forward holds to ~1e-14 of ||Ax||*||y||.
    """
    ids, pos = _active_geometry(sensors)
    _check_detectors_outside(pos, grid)
    _check_spectra(psi, ids, chain)
    n_bins = chain.n_freq
    m, n_giant = _bin_split(n_bins)
    tile = _green_tiles(pos, grid.voxel_coords(), grid.corners(),
                        chain.omega[0] / medium.c0, m)
    scale = grid.pitch_m**3 / (4.0 * np.pi)
    # Re(conj(H_k z^k) psi_k) = Re(z^k c_k) with c_k = H_k conj(psi_k).
    coeff = np.zeros((ids.size, n_giant * m), dtype=np.complex128)
    coeff[:, :n_bins] = np.conj(psi.values) * chain.response[None, :]
    coeff = coeff.reshape(ids.size, n_giant, m)

    def run(start, stop):
        acc = np.zeros(stop - start)
        zbuf = np.empty(m * DETECTOR_CHUNK * GREENS_BLOCK, dtype=np.complex128)
        buf = np.empty(n_giant * DETECTOR_CHUNK * GREENS_BLOCK, dtype=np.complex128)
        for a, b in chunk_ranges(ids.size, DETECTOR_CHUNK):
            for lo in range(start, stop, GREENS_BLOCK):
                hi = min(lo + GREENS_BLOCK, stop)
                R, Z = tile(a, b, lo, hi, zbuf)
                # S [q, d, v]: the baby-step sums of each giant step.
                S = buf[:n_giant * R.size].reshape((n_giant,) + R.shape)
                np.matmul(coeff[a:b], Z.transpose(1, 0, 2), out=S.transpose(1, 0, 2))
                # Horner's rule in z^m over the giant steps.
                h = S[n_giant - 1]
                for q in range(n_giant - 2, -1, -1):
                    h *= Z[m - 1]
                    h += S[q]
                acc[lo - start:hi - start] += np.einsum(
                    "dv,dv->v", h.real, np.divide(scale, R, out=R))
        return acc

    acc = np.concatenate(map_runs(run, grid.n_voxels, GREENS_BLOCK, threads))
    return Volume(acc.reshape(grid.shape), grid.pitch_m, grid.origin_m)


# Oversampling of the projector's phase grid: n = 2 * _OVERSAMPLE * n_freq cells.
# The error against the exact sum falls about 4x per doubling.
_OVERSAMPLE = 64


def _phase_cells(chain, c0):
    """The projector's cell count n, its cells per metre of flight and 1/sinc^2 per bin."""
    n = 2 * _OVERSAMPLE * chain.n_freq
    rate = float(chain.omega[0]) * n / (2.0 * np.pi * c0)
    return n, rate, 1.0 / np.sinc(np.arange(1, chain.n_freq + 1) / n) ** 2


def projector_forward(p, sensors, medium, chain, threads=1):
    """Fast approximation of :func:`forward_operator` (the solver's forward map).

    For each detector, P(r_v) dV / (4 pi R) is spread with linear weights
    onto a periodic grid over the flight phase omega_1 R / c0, one FFT takes
    it to the bins, and 1/sinc^2 undoes the triangle kernel: a 1-D type-1
    NUFFT (Dutt & Rokhlin, SISC 14, 1993), i.e. the interpolation-based
    imaging model of Wang et al. (PMB 57, 2012).  Relative error against the
    exact sum is about 1e-4.  Deterministic for any ``threads``.
    """
    ids, pos = _active_geometry(sensors)
    _check_detectors_outside(pos, p.grid)
    vals, coords = _support(p)
    n, rate, corr = _phase_cells(chain, medium.c0)
    n_freq = chain.n_freq
    scale = p.pitch_m**3 / (4.0 * np.pi)
    cells = flight_cells(pos, coords, p.grid.corners(), rate, period=n)

    def rows(a, b):
        size = (b - a) * (n + 1)
        f = np.zeros(size)
        for lo in range(0, vals.size, VOXEL_BLOCK):
            R, idx, frac = cells(a, b, lo, lo + VOXEL_BLOCK)
            idx += (n + 1) * np.arange(b - a)[:, None]
            g = vals[lo:lo + VOXEL_BLOCK] * scale / R
            upper = g * frac
            g -= upper
            f += np.bincount(idx.ravel(), g.ravel(), size)
            # The upper weights land one cell on; cell n of a row folds onto cell 0.
            f[1:] += np.bincount(idx.ravel(), upper.ravel(), size)[:-1]
        f = f.reshape(b - a, n + 1)
        f[:, 0] += f[:, n]
        # sum_j f_j exp(+2 pi i k j / n) of a real f is conj(rfft(f))[k].
        return np.conj(np.fft.rfft(f[:, :n], axis=1)[:, 1:n_freq + 1])

    values = np.concatenate(map_chunks(rows, ids.size, DETECTOR_CHUNK, threads))
    values *= (chain.response * corr)[None, :]
    return Spectra(values, chain.freq_hz, ids)


def projector_adjoint(psi, sensors, medium, chain, grid, threads=1):
    """Exact adjoint of :func:`projector_forward` under Re(u^H v).

    Per detector: 1/sinc^2 and the conjugate response, one FFT back to the
    n-periodic phase grid, then :func:`pact._chunks.back_project` of its
    rows with weight dV / (4 pi R).  The dot-product test against the
    forward holds to ~1e-15 of ||Ax||*||y||.
    """
    ids, pos = _active_geometry(sensors)
    _check_detectors_outside(pos, grid)
    _check_spectra(psi, ids, chain)
    n, rate, corr = _phase_cells(chain, medium.c0)
    coeff = psi.values * (np.conj(chain.response) * corr)[None, :]
    rows = np.empty((ids.size, n + 1))

    def phase_rows(a, b):
        spec = np.zeros((b - a, n // 2 + 1), dtype=np.complex128)
        spec[:, 1:chain.n_freq + 1] = np.conj(coeff[a:b])
        # Re sum_k c_k exp(-2 pi i k j / n) on cells 0..n, cell n repeating 0.
        rows[a:b, :n] = np.fft.irfft(spec, n=n, axis=1) * (n / 2.0)
        rows[a:b, n] = rows[a:b, 0]

    map_chunks(phase_rows, ids.size, DETECTOR_CHUNK, threads)
    scale = grid.pitch_m**3 / (4.0 * np.pi)
    sums, _ = back_project(rows, pos, grid, rate, np.full(ids.size, scale), threads, period=n)
    return Volume(sums.reshape(grid.shape), grid.pitch_m, grid.origin_m)


def to_time_domain(psi, chain):
    """Real time traces from the retained positive bins.

    Bin 0 and bins above ``n_freq`` are zero; the inverse DFT uses the
    conjugate-symmetric extension, so a forward DFT of the result reproduces
    the retained bins exactly.  The spectra follow the physics convention
    p(t) = Re sum_k psi_k exp(-i w_k t) (a Green's factor exp(+i w R / c0)
    is an arrival at t = R / c0), hence the conjugation against numpy's
    exp(+i w t) inverse transform.
    """
    if psi.n_freq != chain.n_freq:
        raise ValueError("spectra bins do not match the receive chain")
    n_t = chain.n_t
    full = np.zeros((psi.n_det, n_t // 2 + 1), dtype=np.complex128)
    full[:, 1:chain.n_freq + 1] = np.conj(psi.values)
    return np.fft.irfft(full, n=n_t, axis=1)


def add_noise(psi, snr_db, rng_seed):
    """Add circular complex Gaussian noise reaching the target SNR in dB.

    ``snr_db = +inf`` is the no-noise sentinel; any other value must be
    finite.  Noise energy expectation is ||psi||^2 * 10**(-snr_db/10);
    deterministic in ``rng_seed``.
    """
    if psi.values.size == 0:
        raise ValueError("cannot add noise to empty spectra")
    if snr_db == math.inf:
        return psi.copy()
    if not math.isfinite(snr_db):
        raise ValueError(f"SNR must be finite or +inf dB, got {snr_db}")
    energy = psi.energy()
    if energy == 0.0:
        raise ValueError("zero-energy spectra cannot meet a finite target SNR")
    m = psi.values.size
    sigma = math.sqrt(energy * 10.0 ** (-snr_db / 10.0) / m)
    rng = np.random.default_rng(rng_seed)
    noise = rng.standard_normal(psi.values.shape) + 1j * rng.standard_normal(psi.values.shape)
    out = psi.copy()
    out.values = psi.values + (sigma / math.sqrt(2.0)) * noise
    return out


def sample_physics_mask(n_modes, n_sensors, chain, sensors, rng_seed):
    """Uniform without-replacement subsets of bins and active-detector rows."""
    n_active = int(np.count_nonzero(sensors.active))
    if not 1 <= n_modes <= chain.n_freq:
        raise ValueError(f"n_modes={n_modes} outside [1, {chain.n_freq}]")
    if not 1 <= n_sensors <= n_active:
        raise ValueError(f"n_sensors={n_sensors} outside [1, {n_active}]")
    rng = np.random.default_rng(rng_seed)
    modes = np.sort(rng.choice(chain.n_freq, size=n_modes, replace=False))
    rows = np.sort(rng.choice(n_active, size=n_sensors, replace=False))
    return PhysicsMask(modes, rows)


def physics_residual(p_hat, psi, mask, sensors, medium, chain, threads=1):
    """Squared data mismatch ||M A p_hat - M psi||_2^2 on the masked pairs.

    The forward operator is evaluated only on the masked (sensor, mode)
    pairs, never in full, so the cost is O(|mask| * n_voxels).
    """
    ids, pos = _active_geometry(sensors)
    _check_detectors_outside(pos, p_hat.grid)
    _check_spectra(psi, ids, chain)
    if np.any(mask.sensor_indices >= ids.size) or np.any(mask.mode_indices >= chain.n_freq):
        raise ValueError("mask indices out of range")
    modes = mask.mode_indices
    h = chain.response[modes]
    sub_pos = pos[mask.sensor_indices]
    ref = psi.values[np.ix_(mask.sensor_indices, modes)]
    # The forward kernel up to the highest masked bin; the masked columns are kept.
    green = _green_rows(sub_pos, p_hat, chain.omega[0] / medium.c0, int(modes.max()) + 1)

    def rows(a, b):
        pred = green(a, b)[:, modes]
        pred *= h[None, :]
        diff = pred - ref[a:b]
        return float(np.einsum("ij,ij->", diff.real, diff.real)
                     + np.einsum("ij,ij->", diff.imag, diff.imag))

    parts = map_chunks(rows, sub_pos.shape[0], DETECTOR_CHUNK, threads)
    return float(sum(parts))


def save_spectra(psi, chain, path, geometry_file=None, c0=None):
    """Raw interleaved complex64 rows plus a JSON sidecar header."""
    import json

    header = {
        "n_det": int(psi.n_det),
        "n_freq": int(psi.n_freq),
        "fs": float(chain.fs),
        "T": chain.T,
        "n_t": int(chain.n_t),
        "c0": c0,
        "geometry": geometry_file,
        "detector_ids": [int(i) for i in psi.detector_ids],
        "response_re": [float(v) for v in chain.response.real],
        "response_im": [float(v) for v in chain.response.imag],
        "dtype": "c8le",
    }
    with open(str(path) + ".json", "w") as f:
        json.dump(header, f)
        f.write("\n")
    with open(path, "wb") as f:
        f.write(np.ascontiguousarray(psi.values, dtype="<c8").tobytes())


def load_spectra(path):
    """Read spectra written by :func:`save_spectra`; returns (Spectra, ReceiveChain, header)."""
    import json

    side = f"{path}.json"
    with open(side) as f:
        header = json.load(f)
    n_det, n_freq, n_t = (header_field(header, key, "int", side)
                          for key in ("n_det", "n_freq", "n_t"))
    fs = float(header_field(header, "fs", "number", side))
    if fs <= 0:
        raise GeometryMismatchError(f"{side}: fs must be positive, got {fs}")
    ids = header_field(header, "detector_ids", "ints", side)
    if not all(0 <= i < 2**63 for i in ids):
        raise GeometryMismatchError(f"{side}: detector ids must lie in [0, 2**63)")
    ids = np.asarray(ids, dtype=np.int64)
    if np.unique(ids).size != ids.size:
        raise GeometryMismatchError(f"{side}: repeated detector id")
    re, im = (header_field(header, key, "numbers", side) for key in ("response_re", "response_im"))
    if len(re) != n_freq or len(im) != n_freq:
        raise GeometryMismatchError(f"{side}: response needs n_freq values")
    # Older sidecars carry "gains": null (unit gains); nothing else is supported.
    if header.get("gains") is not None:
        raise GeometryMismatchError(f"{side}: per-channel gains are not supported")
    response = np.asarray(re, dtype=np.float64) + 1j * np.asarray(im, dtype=np.float64)
    try:
        chain = ReceiveChain(fs=fs, n_t=n_t, n_freq=n_freq, response=response)
    except ValueError as exc:
        raise GeometryMismatchError(f"{side}: {exc}") from None
    raw = np.fromfile(path, dtype="<c8")
    if raw.size != n_det * n_freq:
        raise GeometryMismatchError(
            f"{path}: payload has {raw.size} values, header promises {n_det * n_freq}"
        )
    if not np.all(np.isfinite(raw)):
        raise GeometryMismatchError(f"{path}: payload holds non-finite values")
    values = raw.reshape(n_det, n_freq).astype(np.complex128)
    psi = Spectra(values, chain.freq_hz, ids)
    return psi, chain, header

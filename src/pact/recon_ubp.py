"""Universal back-projection from conditioned time traces.

For each voxel r, the reconstruction accumulates the filtered trace
b(t) = d/dt [t * p(t)] of every active detector at the time of flight
t* = |r - s| / c0 (linear interpolation), weighted by the detector cell
area and 1/R spherical spreading, then divides by the summed active weights
(Xu & Wang, PRE 71, 016706, 2005).  Accumulation is single precision with
Kahan compensation, with a fixed detector order per voxel, so output is
bitwise reproducible for any thread count.
"""

from dataclasses import dataclass

import numpy as np

from ._chunks import map_chunks
from .errors import WindowTooShortError
from .geometry import quadrature_weights
from .volume import Volume

# Voxel block size; per-voxel sums run over detectors in fixed order, so
# this affects only speed, never the numbers.  Large blocks keep the GIL
# released long enough for worker threads to overlap.
_UBP_CHUNK = 131072


@dataclass(frozen=True)
class UbpConfig:
    """Back-projection parameters: the sound speed ``c0`` (m/s)."""

    c0: float = 1500.0

    def __post_init__(self):
        if self.c0 <= 0:
            raise ValueError("sound speed must be positive")


def ubp_filter(traces, dt):
    """Back-projection filter b(t) = d/dt [t * p(t)].

    ``traces`` is [n_det x n_t].  Central differences in the interior,
    one-sided at the ends; exact for constant and linear p.
    """
    traces = np.asarray(traces, dtype=np.float64)
    if traces.ndim != 2 or traces.shape[1] < 3:
        raise ValueError("need traces [n_det x n_t] with at least 3 time samples")
    n_t = traces.shape[1]
    t = np.arange(n_t) * dt
    tp = traces * t[None, :]
    out = np.empty_like(tp)
    out[:, 1:-1] = (tp[:, 2:] - tp[:, :-2]) / (2.0 * dt)
    out[:, 0] = (tp[:, 1] - tp[:, 0]) / dt
    out[:, -1] = (tp[:, -1] - tp[:, -2]) / dt
    return out


def ubp_reconstruct(traces, sensors, grid, cfg, fs, threads=1):
    """Voxel-driven universal back-projection onto ``grid``.

    ``traces`` are already-filtered samples [n_active x n_t] in the order of
    the active elements, sampled at ``fs`` (Hz).  Out-of-window flight
    times contribute zero, but if more than half of all (voxel, detector)
    pairs fall outside the window the record is considered too short.
    """
    dt = 1.0 / fs
    traces = np.asarray(traces, dtype=np.float64)
    ids = sensors.active_indices
    if ids.size == 0:
        raise ValueError("sensor array has no active elements")
    if traces.shape[0] != ids.size:
        raise ValueError(
            f"trace rows ({traces.shape[0]}) do not match active detectors ({ids.size})"
        )
    n_t = traces.shape[1]
    pos = sensors.positions[ids]
    lo, hi = grid.bounding_box()
    corners = np.array([[cx, cy, cz] for cx in (lo[0], hi[0])
                        for cy in (lo[1], hi[1]) for cz in (lo[2], hi[2])])
    if np.linalg.norm(corners, axis=1).max() >= sensors.radius_m:
        raise ValueError("reconstruction grid extends outside the detector bowl")
    q = quadrature_weights(sensors)[ids]
    weight_norm = float(q.sum())

    coords = grid.voxel_coords().astype(np.float32)
    n_v = coords.shape[0]
    # Single-precision kernel math: voxel-scale accuracy, half the traffic.
    pos32 = pos.astype(np.float32)
    s2 = np.einsum("ij,ij->i", pos32.astype(np.float64),
                   pos32.astype(np.float64)).astype(np.float32)
    trace32 = traces.astype(np.float32)
    q32 = q.astype(np.float32)
    inv_cdt = np.float32(1.0 / (cfg.c0 * dt))

    def chunk(a, b):
        x = np.ascontiguousarray(coords[a:b, 0])
        y = np.ascontiguousarray(coords[a:b, 1])
        z = np.ascontiguousarray(coords[a:b, 2])
        g2 = x * x + y * y + z * z
        n = b - a
        # Kahan-compensated sum over detectors; no buffer is allocated per detector.
        acc = np.zeros(n, dtype=np.float32)
        comp = np.zeros(n, dtype=np.float32)
        ky = np.empty(n, dtype=np.float32)
        kt = np.empty(n, dtype=np.float32)
        R = np.empty(n, dtype=np.float32)
        tau = np.empty(n, dtype=np.float32)
        tmp = np.empty(n, dtype=np.float32)
        frac = np.empty(n, dtype=np.float32)
        v0 = np.empty(n, dtype=np.float32)
        v1 = np.empty(n, dtype=np.float32)
        missed = 0
        for m in range(ids.size):
            sx, sy, sz = pos32[m]
            np.multiply(x, np.float32(-2.0 * sx), out=R)
            R += g2
            np.multiply(y, np.float32(-2.0 * sy), out=tmp)
            R += tmp
            np.multiply(z, np.float32(-2.0 * sz), out=tmp)
            R += tmp
            R += s2[m]
            np.maximum(R, np.float32(0.0), out=R)
            np.sqrt(R, out=R)
            np.multiply(R, inv_cdt, out=tau)
            val, miss = _interp_linear(trace32[m], tau, n_t, frac, v0, v1)
            missed += miss
            val *= q32[m]
            val /= R
            np.subtract(val, comp, out=ky)
            np.add(acc, ky, out=kt)
            np.subtract(kt, acc, out=comp)
            comp -= ky
            # kt becomes the running sum; recycle the old sum as scratch.
            acc, kt = kt, acc
        return acc, missed

    results = map_chunks(chunk, n_v, _UBP_CHUNK, threads)
    out = np.concatenate([r[0] for r in results])
    n_missed = sum(r[1] for r in results)
    if n_missed > 0.5 * n_v * ids.size:
        raise WindowTooShortError(
            f"{n_missed} of {n_v * ids.size} voxel-detector flight times "
            "fall outside the recorded window"
        )
    # The derivative filter d/dt[t p] carries the opposite sign of the
    # classical inversion kernel 2p - 2t dp/dt on band-passed data; the
    # arbitrary proportionality constant is chosen negative so positive
    # sources reconstruct positive.
    out = out / np.float32(-weight_norm)
    return Volume(out.reshape(grid.shape), grid.pitch_m, grid.origin_m)


def _interp_linear(trace, tau, n_t, frac, v0, v1):
    """In-place linear sampling of one trace at fractional indices ``tau``.

    Out-of-window samples are zeroed; returns (values-in-v1, missed count).
    """
    idx = tau.astype(np.int32)  # tau >= 0, so truncation is floor
    np.subtract(tau, idx, out=frac)
    invalid = idx > n_t - 2
    missed = int(np.count_nonzero(invalid))
    np.minimum(idx, n_t - 2, out=idx)
    np.take(trace, idx, out=v0)
    idx += 1
    np.take(trace, idx, out=v1)
    v1 -= v0
    v1 *= frac
    v1 += v0
    if missed:
        v1[invalid] = 0.0
    return v1, missed

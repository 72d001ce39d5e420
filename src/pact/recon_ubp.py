"""Universal back-projection from conditioned time traces.

For each voxel r, the reconstruction accumulates the filtered trace
b(t) = d/dt [t * p(t)] of every active detector at the time of flight
t* = |r - s| / c0 (linear interpolation), weighted by the detector cell
area and 1/R spherical spreading, then divides by the summed active weights
(Xu & Wang, PRE 71, 016706, 2005).  The sums run in float64 on the
detector x voxel tiles of :mod:`pact._chunks`: each voxel block visits the
detector chunks in a fixed order, so output is bitwise reproducible for any
thread count.
"""

from dataclasses import dataclass

import numpy as np

from ._chunks import DETECTOR_CHUNK, VOXEL_BLOCK, chunk_ranges, map_chunks, tile_distances
from .errors import WindowTooShortError, positive
from .geometry import quadrature_weights
from .volume import Volume


@dataclass(frozen=True)
class UbpConfig:
    """Back-projection parameters: the sound speed ``c0`` (m/s)."""

    c0: float = 1500.0

    def __post_init__(self):
        positive(self.c0, "sound speed")


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
    traces = np.asarray(traces, dtype=np.float64)
    ids = sensors.active_indices
    if ids.size == 0:
        raise ValueError("sensor array has no active elements")
    if traces.shape[0] != ids.size:
        raise ValueError(
            f"trace rows ({traces.shape[0]}) do not match active detectors ({ids.size})"
        )
    n_t = traces.shape[1]
    flat = traces.ravel()
    pos = sensors.positions[ids]
    lo, hi = grid.bounding_box()
    corners = np.array([[cx, cy, cz] for cx in (lo[0], hi[0])
                        for cy in (lo[1], hi[1]) for cz in (lo[2], hi[2])])
    if np.linalg.norm(corners, axis=1).max() >= sensors.radius_m:
        raise ValueError("reconstruction grid extends outside the detector bowl")
    q = quadrature_weights(sensors)[ids]
    distances = tile_distances(pos, grid.voxel_coords())
    samples_per_m = fs / cfg.c0
    detector_chunks = chunk_ranges(ids.size, DETECTOR_CHUNK)

    def block(start, stop):
        acc = np.zeros(stop - start)
        missed = 0
        for a, b in detector_chunks:
            R = distances(a, b, start, stop)
            frac = R * samples_per_m
            idx = frac.astype(np.int64)  # floor, as R >= 0
            frac -= idx
            invalid = idx > n_t - 2
            missed += int(np.count_nonzero(invalid))
            np.minimum(idx, n_t - 2, out=idx)
            # Linear gather from the chunk's rows of the flattened traces.
            idx += n_t * np.arange(a, b)[:, None]
            lower = flat[idx]
            val = flat[idx + 1]
            val -= lower
            val *= frac
            val += lower
            val[invalid] = 0.0
            acc += np.einsum("dv,dv->v", val, np.divide(q[a:b, None], R, out=R))
        return acc, missed

    results = map_chunks(block, grid.n_voxels, VOXEL_BLOCK, threads)
    out = np.concatenate([r[0] for r in results])
    n_missed = sum(r[1] for r in results)
    if n_missed > 0.5 * grid.n_voxels * ids.size:
        raise WindowTooShortError(
            f"{n_missed} of {grid.n_voxels * ids.size} voxel-detector flight times "
            "fall outside the recorded window"
        )
    # The derivative filter d/dt[t p] carries the opposite sign of the
    # classical inversion kernel 2p - 2t dp/dt on band-passed data; the
    # arbitrary proportionality constant is chosen negative so positive
    # sources reconstruct positive.
    out /= -q.sum()
    return Volume(out.reshape(grid.shape), grid.pitch_m, grid.origin_m)


"""Universal back-projection from conditioned time traces.

For each voxel r, the reconstruction accumulates the filtered trace
b(t) = d/dt [t * p(t)] of every active detector at the time of flight
t* = |r - s| / c0 (linear interpolation), weighted by the detector cell
area and 1/R spherical spreading, then divides by the summed active weights
(Xu & Wang, PRE 71, 016706, 2005), through :func:`pact._chunks.back_project`:
each voxel block sums the detector chunks in a fixed order in float64, so
output is bitwise reproducible for any thread count.
"""

from dataclasses import dataclass

import numpy as np

from ._chunks import back_project
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
    if np.linalg.norm(grid.corners(), axis=1).max() >= sensors.radius_m:
        raise ValueError("reconstruction grid extends outside the detector bowl")
    q = quadrature_weights(sensors)[ids]
    out, n_missed = back_project(traces, sensors.positions[ids], grid, fs / cfg.c0, q, threads)
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


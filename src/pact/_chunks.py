"""Deterministic chunked execution of the detector x voxel kernels.

Every kernel that pairs detectors with voxels works on tiles of at most
``DETECTOR_CHUNK`` detectors by ``VOXEL_BLOCK`` voxels (``GREENS_BLOCK``
for the exact Green's sum), whose distances come from
:func:`tile_distances`.  Work is split into fixed-size chunks
whose boundaries do not depend on the thread count, each chunk is computed
by a pure function, and results are combined in chunk order.  Numeric
output is therefore bitwise identical for any ``threads`` value.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Fixed detector-chunk size; changing it regroups cross-detector reductions,
# so it is a constant rather than a tunable.
DETECTOR_CHUNK = 16
# Voxels per tile: a [DETECTOR_CHUNK x VOXEL_BLOCK] float64 array is 256 KiB,
# which keeps a tile's temporaries near cache size at any grid size.
VOXEL_BLOCK = 2048
# Voxels per tile of the exact Green's sum, whose tile holds about
# 2 sqrt(K) complex powers per pair for K bins.  On a 2-core host (process
# time, min of 7) 512 took 0.063/0.056 s for the c13 forward/adjoint (24 bins)
# and 0.25-0.30 s for the c04 forward (40 bins), against 0.070/0.063 s and
# 0.31-0.32 s at 2048; 256 and 1024 read as 512 within the host's noise.
GREENS_BLOCK = 512


def chunk_ranges(n, size):
    """Split ``range(n)`` into (start, stop) pairs of at most ``size``."""
    return [(s, min(s + size, n)) for s in range(0, n, size)]


def map_chunks(fn, n, size, threads=1):
    """Apply ``fn(start, stop)`` over fixed chunks, returning results in order.

    ``fn`` must not mutate shared state; with ``threads > 1`` chunks run on a
    thread pool (numpy releases the GIL in array kernels).
    """
    ranges = chunk_ranges(n, size)
    if threads <= 1 or len(ranges) <= 1:
        return [fn(s, e) for s, e in ranges]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda se: fn(se[0], se[1]), ranges))


def tile_distances(pos, coords):
    """Distances of detector x voxel tiles: ``distances(a, b, lo, hi) -> R``.

    R [d, v] is the distance from detector ``pos[a:b][d]`` to voxel
    ``coords[lo:hi][v]``, from R^2 = |c|^2 - 2 c.s + |s|^2 with one matrix
    product per tile.  Detectors lie outside the volume, so R^2 is far from
    the cancellation that would take it below zero.
    """
    coords_t = np.ascontiguousarray(coords.T)
    sq_coords = np.einsum("vj,vj->v", coords, coords)

    def distances(a, b, lo, hi):
        det = pos[a:b]
        R = (-2.0 * det) @ coords_t[:, lo:hi]
        R += sq_coords[lo:hi]
        R += np.einsum("dj,dj->d", det, det)[:, None]
        return np.sqrt(R, out=R)

    return distances

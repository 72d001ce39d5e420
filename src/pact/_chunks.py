"""Deterministic chunked execution of the detector x voxel kernels.

Every kernel that pairs detectors with voxels works on tiles of at most
``DETECTOR_CHUNK`` detectors by ``VOXEL_BLOCK`` voxels (``GREENS_BLOCK``
for the exact Green's sum), whose distances come from :func:`tile_distances`.
Forward kernels sum the voxel tiles of each detector chunk.  Back-projections
(:func:`back_project`, the one time-of-flight gather, and the exact adjoint)
sum the detector chunks of each voxel block; each thread takes one run of
whole blocks (:func:`map_runs`) and visits it a detector chunk at a time, so
the chunk's rows stay in cache.  Tile boundaries do not depend on the thread
count and every sum visits its tiles in one fixed order, so numeric output is
bitwise identical for any ``threads`` value.
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

    ``fn`` may write only to its own chunk's part of shared arrays; with
    ``threads > 1`` chunks run on a thread pool (numpy releases the GIL in
    array kernels).
    """
    ranges = chunk_ranges(n, size)
    if threads <= 1 or len(ranges) <= 1:
        return [fn(s, e) for s, e in ranges]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda se: fn(se[0], se[1]), ranges))


def map_runs(fn, n, block, threads=1):
    """Apply ``fn(start, stop)`` to one run of whole ``block``s per thread.

    The runs cover ``range(n)`` and start on multiples of ``block``, so the
    ``block``-sized tiles that ``fn`` cuts from its run are the same for any
    ``threads``; results come back in order.
    """
    n_blocks = -(-n // block)
    return map_chunks(fn, n, -(-n_blocks // max(threads, 1)) * block, threads)


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


def longest_flight(pos, corners, rate=1.0):
    """Longest flight ``rate * R`` from ``pos`` to ``corners``: with a grid's
    corners, a bound on every flight onto it.  At 2**53 cells or more a cell
    index is not exact (past 2**63 it wraps), so that raises ValueError.
    """
    d = np.linalg.norm(pos[:, None, :] - corners[None, :, :], axis=2)
    u = float(d.max()) * rate
    if not u < 2.0**53:
        raise ValueError(f"a flight of {u:.3g} cells is past 2**53: sound speed out of range")
    return u


def flight_cells(pos, coords, corners, rate, period=None):
    """Flight cells of detector x voxel tiles: ``cells(a, b, lo, hi) -> (R, idx, frac)``.

    R [d, v] is the distance from detector ``pos[a:b][d]`` to voxel
    ``coords[lo:hi][v]`` (in the box of ``corners``), u = R * rate its
    flight in cells, idx = floor(u) and frac = u - floor(u).  With a
    ``period`` (cells of a periodic row), idx is floor(u) mod period.
    """
    longest_flight(pos, corners, rate)
    distances = tile_distances(pos, coords)

    def cells(a, b, lo, hi):
        R = distances(a, b, lo, hi)
        frac = R * rate
        idx = frac.astype(np.int64)  # floor, as u >= 0
        frac -= idx
        if period is not None and idx.max() >= period:
            idx %= period
        return R, idx, frac

    return cells


def back_project(rows, pos, grid, rate, weights, threads=1, period=None):
    """Time-of-flight back-projection onto ``grid``: ``(sums, n_missed)``.

    Voxel v sums, over the detectors d at ``pos``, row d of ``rows`` read at
    u = R * rate by linear interpolation, times weights[d] / R; a flight past
    the row's last interval adds zero and is counted in n_missed.  Rows with
    a ``period`` hold period + 1 cells, the last repeating the first, and
    every flight wraps onto them.  Runs of voxel blocks go in parallel
    (:func:`map_runs`), each summing the detector chunks in order.
    """
    n_t = rows.shape[1]
    cells = flight_cells(pos, grid.voxel_coords(), grid.corners(), rate, period)

    def run(start, stop):
        acc = np.zeros(stop - start)
        missed = 0
        # A detector chunk at a time over the run's blocks keeps its rows in cache.
        for a, b in chunk_ranges(pos.shape[0], DETECTOR_CHUNK):
            flat = rows[a:b].ravel()
            for lo in range(start, stop, VOXEL_BLOCK):
                hi = min(lo + VOXEL_BLOCK, stop)
                R, idx, frac = cells(a, b, lo, hi)
                # A tile whose flights all fall in the window skips the mask.
                invalid = None
                if idx.max() > n_t - 2:
                    invalid = idx > n_t - 2
                    missed += int(np.count_nonzero(invalid))
                    np.minimum(idx, n_t - 2, out=idx)
                # Linear gather from the chunk's flattened rows.
                idx += n_t * np.arange(b - a)[:, None]
                lower = flat[idx]
                val = flat[1:][idx]
                val -= lower
                val *= frac
                val += lower
                if invalid is not None:
                    val[invalid] = 0.0
                acc[lo - start:hi - start] += np.einsum(
                    "dv,dv->v", val, np.divide(weights[a:b, None], R, out=R))
        return acc, missed

    results = map_runs(run, grid.n_voxels, VOXEL_BLOCK, threads)
    return np.concatenate([r[0] for r in results]), sum(r[1] for r in results)

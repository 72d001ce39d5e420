"""Procedural vascular phantoms and their initial-pressure volumes.

The tree generator replaces the external vessel-synthesis tool: a seeded
recursive binary bifurcation with Murray's-law radii, grown inside an
axis-aligned box.  Segments are rasterized as capsules and smoothed with a
truncated Gaussian before scaling to the target peak pressure.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import positive
from .volume import Volume


@dataclass(frozen=True)
class GrowthParams:
    """Tuning knobs of the bifurcating generator."""

    root_radius_m: float = 1.5e-3
    length_scale: float = 0.35   # first-segment length as a fraction of bbox diagonal
    length_decay: float = 0.72   # child length shrink per generation
    spread: float = 0.9          # radians of random direction perturbation
    min_radius_m: float = 1e-4

    def __post_init__(self):
        if self.root_radius_m <= 0 or self.min_radius_m <= 0:
            raise ValueError("radii must be positive")


@dataclass
class VesselTree:
    """Connected tree of cylindrical segments, each (start, end, radius) in meters."""

    segments: list

    def as_arrays(self):
        if not self.segments:
            return (np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
        starts = np.array([s[0] for s in self.segments], dtype=np.float64)
        ends = np.array([s[1] for s in self.segments], dtype=np.float64)
        radii = np.array([s[2] for s in self.segments], dtype=np.float64)
        return starts, ends, radii


def grow_vessel_tree(seed, n_leaves, bbox, params=None):
    """Grow a random binary vessel tree with ``n_leaves`` terminal segments.

    ``bbox`` is (lo, hi) corner points in meters.  Deterministic in ``seed``;
    a tree with n leaves always has 2n - 1 segments.
    """
    if n_leaves < 1:
        raise ValueError("n_leaves must be >= 1")
    params = params or GrowthParams()
    lo = np.asarray(bbox[0], dtype=np.float64)
    hi = np.asarray(bbox[1], dtype=np.float64)
    if np.any(hi <= lo):
        raise ValueError("bounding box is degenerate")
    rng = np.random.default_rng(seed)
    diag = float(np.linalg.norm(hi - lo))

    def clip(p):
        return np.clip(p, lo, hi)

    root_start = lo + (hi - lo) * np.array([0.5, 0.5, 0.9])
    direction = _unit(np.array([0.0, 0.0, -1.0]) + 0.3 * rng.standard_normal(3))
    root_end = clip(root_start + direction * params.length_scale * diag)

    segments = []

    def grow(start, end, radius, leaves, length):
        segments.append((tuple(start), tuple(end), float(radius)))
        if leaves == 1:
            return
        # Asymmetric leaf split; Murray's law r^3 = r_l^3 + r_r^3.
        asym = rng.uniform(0.4, 0.6)
        left = max(1, min(leaves - 1, int(round(asym * leaves))))
        right = leaves - left
        frac = rng.uniform(0.4, 0.6)
        r_left = max(params.min_radius_m, radius * frac ** (1.0 / 3.0))
        r_right = max(params.min_radius_m, radius * (1.0 - frac) ** (1.0 / 3.0))
        axis = _unit(np.asarray(end) - np.asarray(start))
        child_len = length * params.length_decay
        for sub_leaves, sub_radius in ((left, r_left), (right, r_right)):
            d = _unit(axis + params.spread * rng.standard_normal(3))
            child_end = clip(np.asarray(end) + d * child_len)
            grow(np.asarray(end), child_end, sub_radius, sub_leaves, child_len)

    grow(root_start, root_end, params.root_radius_m, n_leaves,
         params.length_scale * diag)
    return VesselTree(segments)


def make_initial_pressure(tree, grid, p0_scale=1.0, sigma_vox=1.0):
    """Rasterize a vessel tree into an initial-pressure volume.

    Voxels within a segment radius of its axis are set, the binary volume is
    smoothed by an isotropic Gaussian of ``sigma_vox`` voxels (truncated at
    3 sigma, unit-sum kernel) and rescaled so the maximum equals
    ``p0_scale``.  The data stay float64; files hold them as float32.
    """
    if not (math.isfinite(sigma_vox) and sigma_vox >= 0):
        raise ValueError(f"smoothing width must be finite and >= 0, got {sigma_vox!r}")
    positive(p0_scale, "p0_scale")
    data = rasterize_tree(tree, grid)
    if sigma_vox > 0:
        data = gaussian_filter(data, sigma=sigma_vox, mode="constant", truncate=3.0)
    peak = float(data.max())
    if peak > 0:
        data = data * (p0_scale / peak)
    return Volume(data, grid.pitch_m, grid.origin_m)


def rasterize_tree(tree, grid):
    """Binary capsule rasterization of all segments onto ``grid`` (float64)."""
    data = np.zeros(grid.shape, dtype=np.float64)
    starts, ends, radii = tree.as_arrays()
    if starts.shape[0] == 0:
        return data
    lo, hi = grid.bounding_box()
    margin = radii.max()
    if np.any(np.minimum(starts, ends).min(axis=0) < lo - margin) or np.any(
        np.maximum(starts, ends).max(axis=0) > hi + margin
    ):
        warnings.warn("vessel tree extends outside the grid; rasterization clipped")
    axes = [grid.axis_coords(a) for a in range(3)]
    for a, b, r in zip(starts, ends, radii):
        _rasterize_capsule(data, axes, grid.pitch_m, a, b, r)
    return data


def _rasterize_capsule(data, axes, pitch, a, b, radius):
    # Work on the segment's padded bounding sub-box only.
    lo_pt = np.minimum(a, b) - radius
    hi_pt = np.maximum(a, b) + radius
    slices = []
    local_axes = []
    for d in range(3):
        i0 = int(np.searchsorted(axes[d], lo_pt[d] - pitch))
        i1 = int(np.searchsorted(axes[d], hi_pt[d] + pitch))
        if i0 >= i1:
            return
        slices.append(slice(i0, i1))
        local_axes.append(axes[d][i0:i1])
    gx, gy, gz = np.meshgrid(*local_axes, indexing="ij")
    pts = np.stack([gx, gy, gz], axis=-1)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        dist = np.linalg.norm(pts - a, axis=-1)
    else:
        t = np.clip(((pts - a) @ ab) / denom, 0.0, 1.0)
        closest = a + t[..., None] * ab
        dist = np.linalg.norm(pts - closest, axis=-1)
    region = data[slices[0], slices[1], slices[2]]
    region[dist <= radius] = 1.0


def default_tree_bbox(grid):
    """Central 80% of the grid extent, as (lo, hi)."""
    lo, hi = grid.bounding_box()
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0 * 0.8
    return (center - half, center + half)


def _unit(v):
    n = float(np.linalg.norm(v))
    return v / n if n > 0 else np.array([0.0, 0.0, 1.0])

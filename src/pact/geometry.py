"""Hemispherical detector geometry, quadrature weights and subsampling patterns.

The physical bowl (four rotating quarter-rings) is modeled as a static
equiangular virtual grid of n_theta x n_phi point detectors on the upper
hemisphere, with analytic cell areas as quadrature weights.  Elevation theta
is the colatitude measured from the pole (bowl apex, +z), offset by half a
cell so no ring sits exactly at the pole.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatchError, header_field

_POSITION_RTOL = 1e-9


@dataclass
class SensorArray:
    """Detector positions on a hemisphere of radius ``radius_m`` with cell-area weights.

    ``positions`` is (n, 3) in meters, ``angles`` is (n, 2) rows of
    (theta, phi), ``quad_weights`` is the per-element area (m^2), ``active``
    is the current acquisition mask.  Element index is
    ``i_theta * n_phi + i_phi``.
    """

    radius_m: float
    n_theta: int
    n_phi: int
    positions: np.ndarray
    angles: np.ndarray
    quad_weights: np.ndarray
    active: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.angles = np.asarray(self.angles, dtype=np.float64)
        self.quad_weights = np.asarray(self.quad_weights, dtype=np.float64)
        self.active = np.asarray(self.active, dtype=bool)
        n = self.n_theta * self.n_phi
        if not (self.positions.shape == (n, 3) and self.angles.shape == (n, 2)):
            raise ValueError("inconsistent sensor array field shapes")
        if self.quad_weights.shape != (n,) or self.active.shape != (n,):
            raise ValueError("inconsistent sensor array field shapes")
        radii = np.linalg.norm(self.positions, axis=1)
        if not np.allclose(radii, self.radius_m, rtol=_POSITION_RTOL, atol=0.0):
            raise ValueError("positions do not lie on the stated sphere radius")
        if np.any(self.quad_weights[self.active] <= 0.0):
            raise ValueError("active elements must carry positive quadrature weights")

    @property
    def n_elements(self):
        return self.n_theta * self.n_phi

    @property
    def active_indices(self):
        return np.flatnonzero(self.active)

    def copy(self):
        return SensorArray(
            self.radius_m,
            self.n_theta,
            self.n_phi,
            self.positions.copy(),
            self.angles.copy(),
            self.quad_weights.copy(),
            self.active.copy(),
        )


@dataclass(frozen=True)
class SamplingPattern:
    """Acquisition mask descriptor.

    ``kind`` is one of 'full', 'uniform' (every rate-th azimuth column),
    'limaz' (azimuth arc of arc_deg degrees) or 'limel' (fraction of
    elevation rows closest to the pole).
    """

    kind: str
    rate: int = 1
    arc_deg: float = 360.0
    fraction: float = 1.0

    def __post_init__(self):
        if self.kind not in ("full", "uniform", "limaz", "limel"):
            raise ValueError(f"unknown sampling pattern kind '{self.kind}'")
        if self.kind == "uniform" and self.rate < 1:
            raise ValueError("uniform subsampling rate must be >= 1")
        if self.kind == "limaz" and not 0.0 < self.arc_deg <= 360.0:
            raise ValueError("azimuth arc must lie in (0, 360] degrees")
        if self.kind == "limel" and not 0.0 < self.fraction <= 1.0:
            raise ValueError("elevation fraction must lie in (0, 1]")

    @classmethod
    def parse(cls, text):
        """Parse CLI syntax: 'full', 'uniform:6', 'limaz:120', 'limel:0.333'."""
        name, _, arg = text.partition(":")
        name = name.strip().lower()
        if name == "full":
            return cls("full")
        if not arg:
            raise ValueError(f"pattern '{text}' needs an argument, e.g. uniform:6")
        if name == "uniform":
            return cls("uniform", rate=int(arg))
        if name == "limaz":
            return cls("limaz", arc_deg=float(arg))
        if name == "limel":
            return cls("limel", fraction=float(arg))
        raise ValueError(f"unknown sampling pattern '{text}'")


def build_hemisphere_grid(n_theta, n_phi, radius_m):
    """Equiangular hemisphere grid with all elements active.

    theta_i = (i + 0.5) * (pi/2) / n_theta, phi_j = j * 2*pi / n_phi.
    """
    if n_theta < 1 or n_phi < 1:
        raise ValueError("grid dimensions must be >= 1")
    if radius_m <= 0:
        raise ValueError("radius must be positive")
    thetas = (np.arange(n_theta) + 0.5) * (np.pi / 2.0) / n_theta
    phis = np.arange(n_phi) * 2.0 * np.pi / n_phi
    th = np.repeat(thetas, n_phi)
    ph = np.tile(phis, n_theta)
    positions = radius_m * np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1
    )
    angles = np.stack([th, ph], axis=1)
    active = np.ones(n_theta * n_phi, dtype=bool)
    array = SensorArray(
        radius_m, n_theta, n_phi, positions, angles,
        np.ones(n_theta * n_phi), active,
    )
    array.quad_weights = quadrature_weights(array)
    return array


def quadrature_weights(array):
    """Analytic equiangular cell areas q = R^2 sin(theta) dtheta dphi.

    Inactive elements report weight zero.  Over a fully active grid the
    weights tile the hemisphere area 2*pi*R^2 exactly (up to round-off).
    """
    d_theta = (np.pi / 2.0) / array.n_theta
    d_phi = 2.0 * np.pi / array.n_phi
    # Exact cell area: R^2 * dphi * (cos(th_lo) - cos(th_hi)).
    i_theta = np.arange(array.n_theta)
    th_lo = i_theta * d_theta
    th_hi = (i_theta + 1) * d_theta
    ring = array.radius_m**2 * d_phi * (np.cos(th_lo) - np.cos(th_hi))
    q = np.repeat(ring, array.n_phi)
    q = np.where(array.active, q, 0.0)
    return q


def apply_sampling_pattern(array, pattern):
    """Return a copy of ``array`` with the acquisition mask updated.

    Patterns compose with the existing mask (already-inactive elements stay
    inactive), which makes every pattern idempotent.
    """
    out = array.copy()
    i_phi = np.arange(array.n_elements) % array.n_phi
    i_theta = np.arange(array.n_elements) // array.n_phi
    if pattern.kind == "full":
        keep = np.ones(array.n_elements, dtype=bool)
    elif pattern.kind == "uniform":
        if pattern.rate > array.n_phi:
            raise ValueError(
                f"subsampling rate {pattern.rate} exceeds azimuth count {array.n_phi}"
            )
        keep = i_phi % pattern.rate == 0
    elif pattern.kind == "limaz":
        # phi_j < arc  <=>  j * 360 < arc * n_phi, exact for integer grids.
        keep = i_phi * 360.0 < pattern.arc_deg * array.n_phi
    else:  # limel: keep rows closest to the pole (smallest theta)
        n_keep = max(1, int(round(pattern.fraction * array.n_theta)))
        keep = i_theta < n_keep
    out.active = array.active & keep
    return out


def save_sensor_array(array, path):
    """Structured-text (JSON) serialization with per-element records."""
    elements = [
        [int(i), float(array.angles[i, 0]), float(array.angles[i, 1]),
         float(array.quad_weights[i]), bool(array.active[i])]
        for i in range(array.n_elements)
    ]
    doc = {
        "radius_m": float(array.radius_m),
        "n_theta": int(array.n_theta),
        "n_phi": int(array.n_phi),
        "elements": elements,
    }
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")


def load_sensor_array(path):
    with open(path) as f:
        doc = json.load(f)
    n_theta, n_phi = (header_field(doc, key, "int", path) for key in ("n_theta", "n_phi"))
    radius = float(header_field(doc, "radius_m", "number", path))
    n = n_theta * n_phi
    records = doc.get("elements")
    if not isinstance(records, list) or len(records) != n:
        raise GeometryMismatchError(f"{path}: 'elements' must list {n} element records")
    if not all(isinstance(rec, list) and len(rec) == 5 for rec in records):
        raise GeometryMismatchError(
            f"{path}: element records must be [index, theta, phi, weight, active]"
        )
    # type() rather than isinstance(): JSON true/false must not pass as 1/0.
    if not all(type(rec[0]) is int and 0 <= rec[0] < n for rec in records):
        raise GeometryMismatchError(f"{path}: element indices must be integers in [0, {n})")
    idx = np.array([rec[0] for rec in records], dtype=np.int64)
    if np.unique(idx).size != n:
        raise GeometryMismatchError(f"{path}: repeated element index")
    if not all(type(v) in (int, float) and math.isfinite(v)
               for rec in records for v in rec[1:4]):
        raise GeometryMismatchError(f"{path}: element angles and weights must be finite numbers")
    if not all(type(rec[4]) is bool for rec in records):
        raise GeometryMismatchError(f"{path}: element active flags must be true or false")
    angles = np.zeros((n, 2))
    weights = np.zeros(n)
    active = np.zeros(n, dtype=bool)
    angles[idx] = [rec[1:3] for rec in records]
    weights[idx] = [rec[3] for rec in records]
    active[idx] = [rec[4] for rec in records]
    th, ph = angles[:, 0], angles[:, 1]
    positions = radius * np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1
    )
    return SensorArray(radius, n_theta, n_phi, positions, angles, weights, active)

"""Hemispherical detector geometry, quadrature weights and subsampling patterns.

The physical bowl (four rotating quarter-rings) is modeled as a static
equiangular virtual grid of n_theta x n_phi point detectors on the upper
hemisphere, with analytic cell areas as quadrature weights.  Elevation theta
is the colatitude measured from the pole (bowl apex, +z), offset by half a
cell so no ring sits exactly at the pole.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryMismatchError, header_field, positive

# Relative tolerance of a sensor file's theta, phi and weight against the grid's values.
_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class SensorArray:
    """Equiangular n_theta x n_phi grid on a hemisphere of radius ``radius_m``.

    Element ``i_theta * n_phi + i_phi`` sits at colatitude
    theta = (i_theta + 0.5) * (pi/2) / n_theta and azimuth
    phi = i_phi * 2*pi / n_phi; ``active`` is the acquisition mask.  The
    read-only ``angles`` ((n, 2) rows of (theta, phi)) and ``positions``
    ((n, 3), meters) follow from the grid, and :func:`quadrature_weights`
    gives the cell areas.
    """

    radius_m: float
    n_theta: int
    n_phi: int
    active: np.ndarray
    angles: np.ndarray = field(init=False, repr=False, compare=False)
    positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_theta < 1 or self.n_phi < 1:
            raise ValueError("grid dimensions must be >= 1")
        positive(self.radius_m, "radius")
        object.__setattr__(self, "active", np.asarray(self.active, dtype=bool))
        if self.active.shape != (self.n_elements,):
            raise ValueError(f"active mask must hold {self.n_elements} flags")
        thetas = (np.arange(self.n_theta) + 0.5) * (np.pi / 2.0) / self.n_theta
        phis = np.arange(self.n_phi) * 2.0 * np.pi / self.n_phi
        th = np.repeat(thetas, self.n_phi)
        ph = np.tile(phis, self.n_theta)
        positions = self.radius_m * np.stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1
        )
        for name, value in (("angles", np.stack([th, ph], axis=1)), ("positions", positions)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_elements(self):
        return self.n_theta * self.n_phi

    @property
    def active_indices(self):
        return np.flatnonzero(self.active)


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
    """The :class:`SensorArray` grid with every element active."""
    return SensorArray(radius_m, n_theta, n_phi, np.ones(n_theta * n_phi, dtype=bool))


def _cell_areas(array):
    """Exact equiangular cell areas R^2 * dphi * (cos(th_lo) - cos(th_hi)), mask ignored."""
    d_theta = (np.pi / 2.0) / array.n_theta
    d_phi = 2.0 * np.pi / array.n_phi
    i_theta = np.arange(array.n_theta)
    th_lo = i_theta * d_theta
    th_hi = (i_theta + 1) * d_theta
    ring = array.radius_m**2 * d_phi * (np.cos(th_lo) - np.cos(th_hi))
    return np.repeat(ring, array.n_phi)


def quadrature_weights(array):
    """Cell-area quadrature weights q = R^2 sin(theta) dtheta dphi of ``array``.

    The one source of the weights: inactive elements report zero, and over a
    fully active grid the weights tile the hemisphere area 2*pi*R^2 exactly
    (up to round-off).
    """
    return np.where(array.active, _cell_areas(array), 0.0)


def apply_sampling_pattern(array, pattern):
    """Return a new array whose acquisition mask is ``array``'s narrowed by ``pattern``.

    Patterns compose with the existing mask (already-inactive elements stay
    inactive), which makes every pattern idempotent.
    """
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
    return SensorArray(array.radius_m, array.n_theta, array.n_phi, array.active & keep)


def save_sensor_array(array, path):
    """JSON with one [index, theta, phi, unmasked cell area, active] record per element."""
    weights = _cell_areas(array)
    elements = [
        [int(i), float(array.angles[i, 0]), float(array.angles[i, 1]),
         float(weights[i]), bool(array.active[i])]
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
    """Read a :func:`save_sensor_array` file; its records must match the header's grid."""
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
    values = np.zeros((n, 3))
    active = np.zeros(n, dtype=bool)
    values[idx] = [rec[1:4] for rec in records]
    active[idx] = [rec[4] for rec in records]
    try:
        array = SensorArray(radius, n_theta, n_phi, active)
    except ValueError as exc:
        raise GeometryMismatchError(f"{path}: {exc}") from None
    grid = np.column_stack([array.angles, _cell_areas(array)])
    off = np.flatnonzero(~np.isclose(values, grid, rtol=_GRID_RTOL, atol=0.0).all(axis=1))
    if off.size:
        raise GeometryMismatchError(
            f"{path}: element {off[0]} theta, phi or weight is off the "
            f"{n_theta}x{n_phi} equiangular grid of radius {radius} m"
        )
    return array
